"""Expected answers for the benchmark, computed without mbaudit.

Nothing here imports the package under test.  Catalog homology is
written out in closed form; explicit complexes are checked with ranks
over Q by fraction-free (Bareiss) elimination, ranks over F_2 and
|det|; polynomials are plain coefficient lists.  A group is a pair
``(free_rank, torsion)`` and a profile is a tuple of groups, trimmed
so that its top group is nontrivial, matching how the program compares
profiles.
"""

from __future__ import annotations

from pathlib import Path

Z = (1, ())
TRIVIAL = (0, ())


def trim(groups) -> tuple:
    gs = list(groups)
    while gs and gs[-1] == TRIVIAL:
        gs.pop()
    return tuple(gs)


def shifted(profile: tuple, r: int) -> tuple:
    return trim((TRIVIAL,) * r + profile) if profile else ()


# ---------------------------------------------------------------------------
# catalog spaces in closed form; a space is a tag string as in documents


def space_dim(tag: str) -> int:
    if tag == "point":
        return 0
    if tag == "torus2":
        return 2
    return int(tag.split(":")[1])


def admits_twist(tag: str) -> bool:
    return tag == "sphere:1" or tag == "torus2" or tag.startswith("rp:")


def catalog_groups(tag: str, twisted: bool) -> tuple:
    """H_k of the catalog model, k = 0..dim, untrimmed.

    rp:n has boundaries 1 + (-1)^k, twisted 1 - (-1)^k; sphere:1 twisted
    has d_1 = 2; torus2 twisted has d_1 = [2 0], d_2 = [0 2]^T.
    """
    if twisted and not admits_twist(tag):
        raise ValueError(f"{tag} has no twisted coefficients")
    n = space_dim(tag)
    if tag == "point":
        return (Z,)
    if tag == "torus2":
        return ((0, (2,)), (0, (2,)), TRIVIAL) if twisted else (Z, (2, ()), Z)
    if tag.startswith("sphere:"):
        if twisted:
            return ((0, (2,)), TRIVIAL)
        return (Z,) + (TRIVIAL,) * (n - 1) + (Z,)
    # rp:n; the degrees with zero boundary are odd (untwisted) or even (twisted)
    out = []
    for k in range(n + 1):
        cycles = (k % 2 == 0) if twisted else (k == 0 or k % 2 == 1)
        bounded = k < n and (k + 1) % 2 == (1 if twisted else 0)
        out.append(TRIVIAL if not cycles else (0, (2,)) if bounded else Z)
    return tuple(out)


def catalog_profile(tag: str, twisted: bool) -> tuple:
    return trim(catalog_groups(tag, twisted))


def euler_of_cells(tag: str) -> int:
    n = space_dim(tag)
    if tag == "point":
        return 1
    if tag == "torus2":
        return 0
    if tag.startswith("sphere:"):
        return 1 + (-1) ** n
    return 1 if n % 2 == 0 else 0


# ---------------------------------------------------------------------------
# polynomials as coefficient lists


def ptrim(cs) -> list[int]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poincare(profile: tuple) -> list[int]:
    return ptrim(g[0] for g in profile)


def padd(a, b) -> list[int]:
    n = max(len(a), len(b))
    return ptrim(
        (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)
    )


def pshift(a, k: int) -> list[int]:
    return [0] * k + list(a) if a else []


def at_minus_one(a) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(a))


def verdict(mb, p) -> tuple:
    """("Holds", Q) | ("FailsNotDivisible", gap) | ("FailsNegativeCoefficient", degree, Q)."""
    diff = padd(mb, [-c for c in p])
    gap = at_minus_one(diff)
    if gap:
        return ("FailsNotDivisible", gap)
    q, running = [], 0
    for k in range(len(diff) - 1):
        running = diff[k] - running
        q.append(running)
    q = ptrim(q)
    negative = [k for k, c in enumerate(q) if c < 0]
    if negative:
        return ("FailsNegativeCoefficient", negative[0], tuple(q))
    return ("Holds", tuple(q))


def poly_str(cs) -> str:
    parts: list[str] = []
    for k, c in enumerate(cs):
        if c == 0:
            continue
        body = str(abs(c)) if k == 0 else ("t" if k == 1 else f"t^{k}")
        if k and abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Morse-Bott audit of a critical list, as cmd_audit would report it


def audit(ambient: str, criticals, mode: str, naive: bool) -> dict:
    """Expected audit of ``criticals`` = [(tag, index, twisted), ...]."""
    p = poincare(catalog_profile(ambient, False))
    mb: list[int] = []
    page, naive_page = [], []
    for tag, index, twisted in criticals:
        mb = padd(mb, pshift(poincare(catalog_profile(tag, twisted and mode == "local")), index))
        page.append(shifted(catalog_profile(tag, twisted), index))
        naive_page.append(shifted(catalog_profile(tag, False), index))
    free = lambda prof: sum(g[0] for g in prof)
    euler = lambda prof: sum(g[0] if k % 2 == 0 else -g[0] for k, g in enumerate(prof))
    return {
        "mb": tuple(mb),
        "p": tuple(p),
        "verdict": verdict(mb, p),
        "page": tuple(page),
        "e2_free": sum(free(x) for x in page),
        "e2_euler": sum(euler(x) for x in page),
        "ambient_free": sum(p),
        "ambient_euler": euler_of_cells(ambient),
        "naive_free": sum(free(x) for x in naive_page) if naive else None,
    }


# ---------------------------------------------------------------------------
# CLI stdout, rendered from closed forms


def group_str(g) -> str:
    free, torsion = g
    parts = [] if free == 0 else ["Z" if free == 1 else f"Z^{free}"]
    parts += [f"Z/{t}" for t in torsion]
    return " x ".join(parts) if parts else "0"


def table(profile: tuple, top: int) -> list[str]:
    return ["degree  group"] + [
        f"{k:>6}  {group_str(profile[k] if k < len(profile) else TRIVIAL)}"
        for k in range(top + 1)
    ]


def summary(profile: tuple) -> str:
    parts = [f"H_{k} = {group_str(g)}" for k, g in enumerate(profile) if g != TRIVIAL]
    return ", ".join(parts) if parts else "0"


def verdict_line(v) -> str:
    if v[0] == "Holds":
        return f"verdict: Holds, Q = {poly_str(v[1])}"
    if v[0] == "FailsNotDivisible":
        return f"verdict: FailsNotDivisible, chi gap {v[1]}"
    return f"verdict: FailsNegativeCoefficient at degree {v[1]}, Q = {poly_str(v[2])}"


def audit_stdout(ambient, criticals, mode: str, naive: bool) -> tuple[int, str]:
    a = audit(ambient, criticals, mode, naive)
    lines = [
        f"mode: {mode}",
        f"MB_t = {poly_str(a['mb'])}",
        f"P_t = {poly_str(a['p'])}",
        verdict_line(a["verdict"]),
        "E2 page (filtration order):",
    ]
    for j, ((tag, index, twisted), prof) in enumerate(zip(criticals, a["page"])):
        char = "twisted" if twisted else "orientable"
        lines.append(f"  [{j}] {tag} index {index} {char}: {summary(prof)}")
    rank_ok = "ok" if a["e2_free"] >= a["ambient_free"] else "VIOLATED"
    euler_ok = "ok" if a["e2_euler"] == a["ambient_euler"] else "MISMATCH"
    lines.append(
        f"E2 total free rank {a['e2_free']} | ambient free rank {a['ambient_free']} | rank bound {rank_ok}"
    )
    lines.append(
        f"E2 Euler sum {a['e2_euler']} | chi(ambient) {a['ambient_euler']} | Euler {euler_ok}"
    )
    if naive:
        lines.append(f"naive E2 (all characters untwisted) total free rank {a['naive_free']}")
    return (0 if a["verdict"][0] == "Holds" else 1), "\n".join(lines) + "\n"


def homology_stdout(tag: str, twisted: bool) -> str:
    lines = [f"H_*({tag}; {'twisted Z' if twisted else 'Z'})"]
    prof = catalog_profile(tag, twisted)
    lines += table(prof, space_dim(tag))
    lines.append(f"P_t = {poly_str(poincare(prof))}")
    return "\n".join(lines) + "\n"


def thom_stdout(tag: str, rank: int, twisted: bool) -> str:
    pair = shifted(catalog_profile(tag, twisted), rank)
    plain = shifted(catalog_profile(tag, False), rank)
    char = "twisted" if twisted else "orientable"
    lines = [f"H_*(disc bundle, sphere bundle; Z) for base {tag}, rank {rank}, {char}"]
    lines += table(pair, rank + space_dim(tag))
    lines.append(f"THOM ISO: {'holds' if pair == plain else 'fails'}")
    return "\n".join(lines) + "\n"


def morse_stdout(before: tuple, top: int, stab=None, bundle=None) -> str:
    """``stab`` = (rank, label, after profile); ``bundle`` = expected pair profile."""
    lines = ["Morse homology:"] + table(before, top)
    if stab is not None:
        rank, label, after = stab
        lines.append(f"stabilized (shift {rank}, twist {label}):")
        lines += table(after, top + rank)
        if bundle is not None:
            lines.append(f"MATCHES H(DE-,SE-): {'yes' if after == bundle else 'no'}")
    return "\n".join(lines) + "\n"


def fixtures_stdout(base: Path, names) -> str:
    return "".join(f"{n}  {base / (n + '.json')}\n" for n in sorted(names))


# ---------------------------------------------------------------------------
# explicit matrices: ranks, |det|, products; a matrix is (rows, cols, entries)


def bareiss(rows: int, cols: int, entries) -> tuple[int, int]:
    """(rank over Q, |det| if square and nonsingular else 0), fraction-free."""
    a = [list(entries[i * cols : (i + 1) * cols]) for i in range(rows)]
    rank, prev = 0, 1
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        lead = a[rank]
        for r in range(rank + 1, rows):
            row = a[r]
            f = row[col]
            for c in range(col + 1, cols):
                row[c] = (lead[col] * row[c] - f * lead[c]) // prev
            row[col] = 0
        prev = lead[col]
        rank += 1
    det = abs(prev) if rows == cols == rank else 0
    return rank, det


def rank_mod2(rows: int, cols: int, entries) -> int:
    """Rank over F_2 with rows packed into int bitmasks."""
    vecs = []
    for i in range(rows):
        v = 0
        for j, e in enumerate(entries[i * cols : (i + 1) * cols]):
            if e & 1:
                v |= 1 << j
        vecs.append(v)
    rank = 0
    basis: dict[int, int] = {}
    for v in vecs:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                rank += 1
                break
            v ^= basis[top]
    return rank


def product_is_zero(a, b) -> bool:
    """Whether a @ b == 0 for a = (r, m, entries), b = (m, c, entries)."""
    ar, am, ae = a
    bm, bc, be = b
    cols = [[be[k * bc + j] for k in range(bm)] for j in range(bc)]
    for i in range(ar):
        row = ae[i * am : (i + 1) * am]
        if any(row):
            for col in cols:
                if sum(x * y for x, y in zip(row, col)):
                    return False
    return True


def single_block_expectation(n: int, entries) -> dict:
    """What homology must say about the complex Z^n --A--> Z^n."""
    rank, det = bareiss(n, n, entries)
    r2 = rank_mod2(n, n, entries)
    return {"free": (n - rank, n - rank), "even_torsion": rank - r2, "det": det}
