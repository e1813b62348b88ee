"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload yields an endless, seed-determined stream of items.  An
item carries its input and the expected answer from :mod:`oracle`, so
``check`` never consults the code under test.  ``run`` is the operation
a user pays for; ``run_in_process`` is the same operation without a
subprocess, used by the traced run.
"""

from __future__ import annotations

import compileall
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from itertools import count
from pathlib import Path
from random import Random

import oracle
from oracle import TRIVIAL, Z

Z2 = (0, (2,))
MODES = ("untwisted", "local")
GOLDEN = 0.6180339887498949
SILVER = 0.4142135623730951


def spread_sizes(rng: Random, lo: int, hi: int, step: float = GOLDEN):
    """Low-discrepancy sizes in lo..hi.  The seed sets only the offset, so
    every prefix of the stream covers the range evenly and runs on
    different seeds see nearly the same mix of sizes.  Two streams read
    together need different steps, or their joint mix depends on the seed."""
    u = rng.random()
    while True:
        u = (u + step) % 1.0
        yield lo + int(u * (hi - lo + 1))


def profile_tuple(profile) -> tuple:
    return tuple((g.free_rank, g.torsion) for g in profile.groups)


def verdict_tuple(v) -> tuple:
    name = type(v).__name__
    if name == "Holds":
        return (name, v.quotient.coeffs)
    if name == "FailsNotDivisible":
        return (name, v.chi_gap)
    return (name, v.degree, v.quotient.coeffs)


class Workload:
    """A seeded item stream plus the operation and its check."""

    name = ""
    in_process = True

    def __init__(self, root: Path, seed: int, deadline: float) -> None:
        self.root = root
        self.seed = seed
        self.deadline = deadline
        self.pool: list = []
        self._stream = self.items(Random(f"{self.name}/{seed}"))

    def items(self, rng: Random):
        raise NotImplementedError

    def setup(self, pool_size: int) -> None:
        """Generate the first ``pool_size`` items and warm up on others."""
        self.pool = [next(self._stream) for _ in range(pool_size)]
        warm = self.items(Random(f"{self.name}/warm-up"))
        for _ in range(self.warm_ups):
            self.run(next(warm))

    warm_ups = 2

    def item(self, i: int):
        """The i-th item; past the pool, items are made in order and not kept."""
        if i < len(self.pool):
            return self.pool[i]
        return next(self._stream)

    def run(self, item):
        return self.run_in_process(item)

    def run_in_process(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        return result == item["expected"]

    def input_stats(self) -> dict:
        digest = hashlib.sha256()
        for item in self.pool:
            digest.update(repr(item["input"]).encode())
        return {"ops": len(self.pool), "sha256": digest.hexdigest()[:16]}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli-fixtures: one `python -m mbaudit ...` per operation

FIXTURE_CRITICALS = {
    "rp5-counterexample": ("rp:5", [("point", 0, False), ("rp:3", 1, True), ("point", 5, False)]),
    "rp5-morse": ("rp:5", [("point", k, False) for k in range(6)]),
    "s1-moebius": ("sphere:1", [("point", 0, False)] * 2 + [("point", 1, False)] * 2),
    "s2-height": ("sphere:2", [("point", 0, False), ("point", 2, False)]),
    "torus-perfect": (
        "torus2",
        [("point", 0, False), ("point", 1, False), ("point", 1, False), ("point", 2, False)],
    ),
}

# Morse homology of each fixture's morse block, worked by hand, and its top index
FIXTURE_MORSE = {
    "rp5-morse": ((Z, Z2, TRIVIAL, Z2, TRIVIAL, Z), 5),
    "s1-moebius": ((Z, Z), 1),
    "s2-height": ((Z, TRIVIAL, Z), 2),
    "torus-perfect": ((Z, (2, ()), Z), 2),
}
MOEBIUS = (Z2,)  # s1-moebius with its `moebius` twist: d_1 = [[1, 1], [1, -1]]
S1_MOEBIUS_BUNDLE = oracle.shifted(oracle.catalog_profile("sphere:1", True), 1)

# stdout the README prints, byte for byte
README_STDOUT = {
    ("audit", "rp5-counterexample", "--mode", "untwisted", "--naive"): (
        1,
        "mode: untwisted\n"
        "MB_t = 1 + t + t^4 + t^5\n"
        "P_t = 1 + t^5\n"
        "verdict: FailsNegativeCoefficient at degree 2, Q = t - t^2 + t^3\n"
        "E2 page (filtration order):\n"
        "  [0] point index 0 orientable: H_0 = Z\n"
        "  [1] rp:3 index 1 twisted: H_1 = Z/2, H_3 = Z/2\n"
        "  [2] point index 5 orientable: H_5 = Z\n"
        "E2 total free rank 2 | ambient free rank 2 | rank bound ok\n"
        "E2 Euler sum 0 | chi(ambient) 0 | Euler ok\n"
        "naive E2 (all characters untwisted) total free rank 4\n",
    ),
    ("homology", "rp:3", "--twisted"): (
        0,
        "H_*(rp:3; twisted Z)\n"
        "degree  group\n"
        "     0  Z/2\n"
        "     1  0\n"
        "     2  Z/2\n"
        "     3  0\n"
        "P_t = 0\n",
    ),
    ("thom", "sphere:1,1,twisted"): (
        0,
        "H_*(disc bundle, sphere bundle; Z) for base sphere:1, rank 1, twisted\n"
        "degree  group\n"
        "     0  0\n"
        "     1  Z/2\n"
        "     2  0\n"
        "THOM ISO: fails\n",
    ),
    ("morse", "s1-moebius", "--stabilize", "1", "--twist", "moebius"): (
        0,
        "Morse homology:\n"
        "degree  group\n"
        "     0  Z\n"
        "     1  Z\n"
        "stabilized (shift 1, twist moebius):\n"
        "degree  group\n"
        "     0  0\n"
        "     1  Z/2\n"
        "     2  0\n"
        "MATCHES H(DE-,SE-): yes\n",
    ),
}
README_LOCAL_HEAD = "mode: local\nMB_t = 1 + t^5\nP_t = 1 + t^5\nverdict: Holds, Q = 0\n"

# a sign twist that breaks d∘d = 0: d_1 = [1 1], d_2 = [1 -1]^T, twist flips d_2
BAD_TWIST_DOC = {
    "format": 1,
    "ambient": "sphere:2",
    "morse": {
        "generators": [
            {"label": "a", "index": 0},
            {"label": "b", "index": 1},
            {"label": "c", "index": 1},
            {"label": "e", "index": 2},
        ],
        "differentials": {
            "1": {"rows": 1, "cols": 2, "entries": [1, 1]},
            "2": {"rows": 2, "cols": 1, "entries": [1, -1]},
        },
        "twists": {
            "bad": {
                "1": {"rows": 1, "cols": 2, "entries": [1, 1]},
                "2": {"rows": 2, "cols": 1, "entries": [1, -1]},
            }
        },
    },
}


def cli_mix(bad_twist: str, fixtures: Path) -> list[dict]:
    """Every invocation in the mix with its exit code, stdout and stderr prefix."""
    mix = []

    def add(argv, code, stdout, err=""):
        mix.append({"input": tuple(argv), "expected": (code, stdout), "stderr": err})

    for name, (ambient, crits) in FIXTURE_CRITICALS.items():
        for mode in MODES:
            for naive in (False, True):
                argv = ("audit", name, "--mode", mode) + (("--naive",) if naive else ())
                code, out = oracle.audit_stdout(ambient, crits, mode, naive)
                if argv[1:4] == ("rp5-counterexample", "--mode", "local") and not out.startswith(README_LOCAL_HEAD):
                    raise AssertionError("oracle disagrees with the README on --mode local")
                add(argv, code, out)
    for tag, twisted in [
        ("rp:3", True), ("rp:5", False), ("rp:4", True), ("sphere:2", False),
        ("sphere:1", True), ("torus2", False), ("torus2", True), ("point", False),
    ]:
        argv = ("homology", tag) + (("--twisted",) if twisted else ())
        add(argv, 0, oracle.homology_stdout(tag, twisted))
    for tag, rank, twisted in [
        ("sphere:1", 1, True), ("rp:3", 1, True), ("rp:4", 2, True), ("torus2", 2, False),
    ]:
        argv = ("thom", f"{tag},{rank},{'twisted' if twisted else 'orientable'}")
        add(argv, 0, oracle.thom_stdout(tag, rank, twisted))
    for name, rank, twist in [
        ("rp5-morse", None, None), ("rp5-morse", 2, None), ("s1-moebius", 1, "moebius"),
        ("s1-moebius", 1, None), ("s1-moebius", None, "moebius"), ("s2-height", 3, None),
        ("torus-perfect", 1, None),
    ]:
        before, top = FIXTURE_MORSE[name]
        argv = ("morse", name)
        stab = None
        if rank is not None or twist is not None:
            r = rank or 0
            after = MOEBIUS if twist else before
            stab = (r, twist or "all +1", oracle.shifted(after, r))
            argv += (("--stabilize", str(rank)) if rank is not None else ()) + (
                ("--twist", twist) if twist else ()
            )
        bundle = S1_MOEBIUS_BUNDLE if name == "s1-moebius" else None
        add(argv, 0, oracle.morse_stdout(before, top, stab, bundle))
    add(("fixtures", "list"), 0, oracle.fixtures_stdout(fixtures, FIXTURE_CRITICALS))
    s1_table = oracle.morse_stdout(FIXTURE_MORSE["s1-moebius"][0], 1)
    add(("audit", "no-such-document"), 2, "", "error: no such document")
    add(("homology", "klein"), 2, "", "error: space: unknown space tag")
    add(("thom", "sphere:1,x,twisted"), 2, "", "error: bundle rank must be an integer")
    add(("morse", "rp5-counterexample"), 2, "", "error: document has no morse section")
    add(("morse", "s1-moebius", "--twist", "nope"), 2, s1_table, "error: document has no twist")
    add(("audit", "rp5-morse", "--mode", "bogus"), 2, "", "usage:")
    add(("homology", "sphere:2", "--twisted"), 3, "", "error: sphere:2 admits no")
    add(("thom", "point,1,twisted"), 3, "", "error: point admits no")
    add(
        ("morse", bad_twist, "--stabilize", "1", "--twist", "bad"),
        4,
        oracle.morse_stdout((), 2),
        "error: twisted differential does not square to zero",
    )
    for argv, expected in README_STDOUT.items():
        if not any(m["input"] == argv and m["expected"] == expected for m in mix):
            raise AssertionError(f"oracle disagrees with the README on {argv}")
    return mix


class CliFixtures(Workload):
    name = "cli-fixtures"
    in_process = False
    warm_ups = 3

    def __init__(self, root: Path, seed: int, deadline: float) -> None:
        self.tmp: Path | None = None
        super().__init__(root, seed, deadline)

    def items(self, rng: Random):
        mix = cli_mix(str(self.bad_twist_path()), self.root / "fixtures")
        rng.shuffle(mix)
        while True:
            yield from mix

    def bad_twist_path(self) -> Path:
        if self.tmp is None:
            base = self.root / ".bench_out"
            base.mkdir(exist_ok=True)
            self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=base))
            (self.tmp / "bad-twist.json").write_text(json.dumps(BAD_TWIST_DOC))
        return self.tmp / "bad-twist.json"

    def setup(self, pool_size: int) -> None:
        compileall.compile_dir(str(self.root / "src" / "mbaudit"), quiet=1)
        super().setup(pool_size)

    def run(self, item):
        proc = subprocess.run(
            [sys.executable, "-m", "mbaudit", *item["input"]],
            cwd=self.root,
            capture_output=True,
            timeout=self.deadline,
        )
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def run_in_process(self, item):
        import mbaudit.cli as cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(item["input"]))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, item, result) -> bool:
        code, out, err = result
        if (code, out) != item["expected"]:
            return False
        return err.startswith(item["stderr"]) if item["stderr"] else err == ""

    def input_stats(self) -> dict:
        mix = cli_mix("bad-twist.json", self.root / "fixtures")
        stats = super().input_stats()
        stats.update(mix=len(mix), error_invocations=sum(1 for m in mix if m["expected"][0] >= 2))
        return stats

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


# ---------------------------------------------------------------------------
# audit-catalog: parse one generated document and audit it in both modes

NOISE_PIECES = ["point", "sphere:1", "sphere:2", "sphere:3", "rp:2", "rp:3", "rp:4", "rp:5", "torus2"]

# Pieces placed at indices 1..5 that fix each mode's verdict; the noise
# pairs sit at index 6 and up, where their quotient terms cannot mask it.
PROBES = [
    [("torus2", 1, True), ("torus2", 2, True)],  # Holds in both modes
    [("rp:3", 1, True)],  # untwisted fails at degree 2, local holds (rp5-counterexample)
    [("point", 3, False)],  # Euler gap in both modes
    [("rp:3", 1, False)],  # fails at degree 2 in both modes
    [("rp:4", 1, True), ("point", 2, False)],  # untwisted holds, local fails at degree 3
]


def catalog_document(rng: Random, kind: int, family: str, n: int, pairs: int) -> tuple[str, list]:
    """An ambient from ``family`` (rp, sphere or torus2), of dimension ``n``
    unless a torus, with ``pairs`` noise pairs; on rp and sphere ambients
    ``PROBES[kind]`` fixes the verdict in each mode."""
    if family == "torus2":
        crits = [("point", 0, False), ("point", 1, False), ("point", 1, False), ("point", 2, False)]
        for _ in range(pairs // 2):
            k = rng.randint(0, 1)
            piece = "point" if k or rng.random() < 0.5 else "sphere:1"
            crits += [(piece, k, False), (piece, k + 1, False)]
        if kind == 2:
            crits.append(("point", 1, False))
        return "torus2", crits
    ambient = f"{family}:{n}"
    crits = [("point", 0, False), ("point", n, False)]
    if ambient.startswith("rp") and n % 2 == 0:
        crits.append(("point", n - 1, False))
    crits += PROBES[kind]
    for _ in range(pairs):
        tag = rng.choice(NOISE_PIECES)
        k = rng.randint(6, n - 1 - oracle.space_dim(tag))
        twisted = oracle.admits_twist(tag) and rng.random() < 0.4
        crits += [(tag, k, twisted), (tag, k + 1, twisted)]
    crits.sort(key=lambda c: c[1])
    return ambient, crits


class AuditCatalog(Workload):
    name = "audit-catalog"

    def items(self, rng: Random):
        dims, pairs = spread_sizes(rng, 12, 200), spread_sizes(rng, 8, 28, SILVER)
        for i in count():
            family = "torus2" if i % 8 == 7 else "sphere" if i % 3 == 2 else "rp"
            ambient, crits = catalog_document(rng, i % len(PROBES), family, next(dims), next(pairs))
            doc = {
                "format": 1,
                "ambient": ambient,
                "criticals": [
                    {"space": t, "index": k, "negative_character": "twisted" if tw else "orientable"}
                    for t, k, tw in crits
                ],
            }
            expected = []
            for mode in MODES:
                a = oracle.audit(ambient, crits, mode, naive=True)
                report = (
                    a["e2_free"], a["ambient_free"], a["e2_euler"], a["ambient_euler"],
                    a["e2_free"] >= a["ambient_free"], a["e2_euler"] == a["ambient_euler"],
                )
                expected.append((a["mb"], a["p"], a["verdict"], a["page"], report, a["naive_free"]))
            yield {"input": json.dumps(doc), "crits": crits, "ambient": ambient,
                   "expected": tuple(expected)}

    def run_in_process(self, item):
        import mbaudit

        data = mbaudit.parse_document(item["input"]).morse_bott()
        out = []
        for mode in MODES:
            mb = mbaudit.mb_polynomial(data, mode)
            p = data.ambient_poincare()
            verdict = mbaudit.check_inequalities(mb, p)
            page = mbaudit.e2_page(data)
            rep = mbaudit.e2_consistency(data)
            naive = mbaudit.e2_consistency(data, naive=True)
            out.append((
                mb.coeffs, p.coeffs, verdict_tuple(verdict),
                tuple(profile_tuple(x) for x in page),
                (rep.total_free_rank, rep.ambient_rank, rep.euler_sum, rep.ambient_euler,
                 rep.rank_bound_ok, rep.euler_ok),
                naive.total_free_rank,
            ))
        return tuple(out)

    def input_stats(self) -> dict:
        stats = super().input_stats()
        keys = set()
        shares = {mode: {} for mode in MODES}
        pieces = 0
        for item in self.pool:
            keys.add((item["ambient"], False))
            for tag, _, twisted in item["crits"]:
                keys.add((tag, twisted))
            pieces += len(item["crits"])
            for mode, exp in zip(MODES, item["expected"]):
                v = exp[2][0]
                shares[mode][v] = shares[mode].get(v, 0) + 1
        for mode in MODES:
            shares[mode] = {v: round(c / len(self.pool), 3) for v, c in sorted(shares[mode].items())}
        stats.update(
            pieces=pieces,
            cells=sum(oracle.space_dim(i["ambient"]) + 1 for i in self.pool),
            max_dim=max(oracle.space_dim(i["ambient"]) for i in self.pool),
            distinct_keys=len(keys),
            verdict_shares=shares,
        )
        return stats


# ---------------------------------------------------------------------------
# explicit-complexes: unique complexes with known homology, and SNF-growth blocks

TORSION_ORDERS = [2, 2, 3, 4, 6, 12]


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders: list[int]) -> tuple[int, ...]:
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _factorize(n).items():
            by_prime.setdefault(p, []).append(e)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for p, es in by_prime.items():
            es = sorted(es, reverse=True)
            if i < len(es):
                f *= p ** es[i]
        factors.append(f)
    return tuple(sorted(factors))


def known_complex(rng: Random, top: int, budget: int) -> tuple[list[int], list[list[list[int]]], tuple]:
    """About ``budget`` cells in degrees 0..top: free cells plus torsion
    pairs, scrambled by basis changes.

    Returns ranks, boundaries (bounds[k] is d_{k+1} as a list of rows)
    and the homology profile the construction guarantees.
    """
    ranks = [0] * (top + 1)
    free = [0] * (top + 1)
    orders: list[list[int]] = [[] for _ in range(top + 1)]
    pairs = []
    total = 0
    while total < budget:
        k = rng.randint(0, top)
        if k == top or total + 2 > budget or rng.random() < 0.45:
            ranks[k] += 1
            free[k] += 1
            total += 1
        else:
            n = rng.choice(TORSION_ORDERS)
            pairs.append((k, ranks[k], ranks[k + 1], n))
            orders[k].append(n)
            ranks[k] += 1
            ranks[k + 1] += 1
            total += 2
    while len(ranks) > 1 and ranks[-1] == 0:
        ranks.pop()
    top = len(ranks) - 1
    bounds = [[[0] * ranks[k + 1] for _ in range(ranks[k])] for k in range(top)]
    for k, row, col, n in pairs:
        bounds[k][row][col] = n
    # e_i <- e_i + c e_j in degree k: column op on d_k, inverse row op on d_{k+1}
    for _ in range(budget):
        k = rng.randrange(top + 1)
        if ranks[k] < 2:
            continue
        i, j = rng.sample(range(ranks[k]), 2)
        c = rng.choice([-2, -1, 1, 2])
        if k >= 1:
            for row in bounds[k - 1]:
                row[i] += c * row[j]
        if k < top:
            bounds[k][j] = [a - c * b for a, b in zip(bounds[k][j], bounds[k][i])]
    expected = oracle.trim(
        (free[k], invariant_factors(orders[k])) for k in range(top + 1)
    )
    return ranks, bounds, expected


def gauge(rng: Random, ranks) -> list[list[list[int]]]:
    """Signs eps_k(i) * eps_{k+1}(j) for d_{k+1}: conjugation by a diagonal
    sign matrix per degree, which keeps the homology."""
    eps = [[rng.choice((1, -1)) for _ in range(r)] for r in ranks]
    return [
        [[eps[k][i] * eps[k + 1][j] for j in range(ranks[k + 1])] for i in range(ranks[k])]
        for k in range(len(ranks) - 1)
    ]


def gauge_twist(rng: Random, ranks, bounds, inconsistent: bool):
    """A gauge twist; when ``inconsistent``, one sign flipped where a
    composite sees it, which breaks d∘d = 0."""
    signs = gauge(rng, ranks)
    if inconsistent:
        candidates = []
        for k, d in enumerate(bounds):
            for i, row in enumerate(d):
                for j, e in enumerate(row):
                    if not e:
                        continue
                    below = k >= 1 and any(r[i] for r in bounds[k - 1])
                    above = k + 1 < len(bounds) and any(bounds[k + 1][j])
                    if below or above:
                        candidates.append((k, i, j))
        if not candidates:
            inconsistent = False
        else:
            k, i, j = rng.choice(candidates)
            signs[k][i][j] = -signs[k][i][j]
    return signs, inconsistent


def _flat(m) -> list[int]:
    return [e for row in m for e in row]


def _matrix(rows: int, cols: int, m) -> dict:
    return {"rows": rows, "cols": cols, "entries": _flat(m)}


def twisted_composites_vanish(ranks, bounds, signs) -> bool:
    """Independent d∘d check on the twisted differentials."""
    tw = [
        (ranks[k], ranks[k + 1], [a * s for a, s in zip(_flat(d), _flat(signs[k]))])
        for k, d in enumerate(bounds)
    ]
    return all(oracle.product_is_zero(tw[k], tw[k + 1]) for k in range(len(tw) - 1))


def growth_block(rng: Random, n: int) -> list[int]:
    """A square block at 20% density with entries in [-3, 3].

    Entry growth in a min-|pivot| SNF makes the time heavy-tailed: over
    3000 draws of side 20..32 on a 2-vCPU Xeon VM the median took 3 ms and
    the slowest 0.33 s, while sides up to 40 gave draws of 5.7 s and more.
    The cap at 32 keeps the tail in every run without letting one draw
    decide a run's throughput.
    """
    return [rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.2 else 0 for _ in range(n * n)]


class ExplicitComplexes(Workload):
    name = "explicit-complexes"

    def items(self, rng: Random):
        """Two known complexes, then one block; every fourth twist is inconsistent."""
        budgets, sides = spread_sizes(rng, 40, 150), spread_sizes(rng, 20, 32)
        known = 0
        for i in count():
            if i % 3 == 2:
                yield self._block(rng, next(sides))
                continue
            yield self._known(rng, 2 + known % 3, next(budgets), inconsistent=(known % 4 == 3))
            known += 1

    def _known(self, rng: Random, top: int, budget: int, inconsistent: bool) -> dict:
        ranks, bounds, ambient = known_complex(rng, top, budget)
        # the Morse block is the ambient in another sign basis, so no two
        # homology inputs of one operation are equal
        bounds_morse = [
            [[a * s for a, s in zip(row, srow)] for row, srow in zip(d, sd)]
            for d, sd in zip(bounds, gauge(rng, ranks))
        ]
        signs, inconsistent = gauge_twist(rng, ranks, bounds_morse, inconsistent)
        if twisted_composites_vanish(ranks, bounds_morse, signs) == inconsistent:
            raise AssertionError("twist construction disagrees with the d∘d check")
        rank = rng.randint(1, 3)
        top = len(ranks) - 1
        doc = {
            "format": 1,
            "ambient": {
                "ranks": ranks,
                "boundaries": [_matrix(ranks[k], ranks[k + 1], d) for k, d in enumerate(bounds)],
            },
            "morse": {
                "generators": [
                    {"label": f"g{k}.{i}", "index": k} for k in range(top + 1) for i in range(ranks[k])
                ],
                "differentials": {
                    str(k + 1): _matrix(ranks[k], ranks[k + 1], d) for k, d in enumerate(bounds_morse)
                },
                "twists": {
                    "gauge": {
                        str(k + 1): _matrix(ranks[k], ranks[k + 1], s) for k, s in enumerate(signs)
                    }
                },
            },
        }
        stab = "InconsistentTwistError" if inconsistent else oracle.shifted(ambient, rank)
        return {
            "family": "known",
            "input": json.dumps(doc),
            "rank": rank,
            "cells": sum(ranks),
            "entries": sum(ranks[k] * ranks[k + 1] for k in range(top)),
            "bits": max((abs(e).bit_length() for d in bounds for e in _flat(d)), default=0),
            "expected": (ambient, ambient, stab),
        }

    def _block(self, rng: Random, n: int) -> dict:
        entries = growth_block(rng, n)
        doc = {
            "format": 1,
            "ambient": {"ranks": [n, n], "boundaries": [{"rows": n, "cols": n, "entries": entries}]},
        }
        return {
            "family": "block",
            "input": json.dumps(doc),
            "cells": 2 * n,
            "entries": n * n,
            "bits": max((abs(e).bit_length() for e in entries), default=0),
            "expected": oracle.single_block_expectation(n, entries),
        }

    def run_in_process(self, item):
        import mbaudit

        doc = mbaudit.parse_document(item["input"])
        ambient = profile_tuple(mbaudit.homology(mbaudit.catalog_complex(doc.ambient)))
        if item["family"] == "block":
            return ambient
        morse = profile_tuple(mbaudit.morse_homology(doc.morse))
        try:
            stabilized = mbaudit.stabilize(doc.morse, item["rank"], doc.twists["gauge"])
        except mbaudit.InconsistentTwistError:
            return ambient, morse, "InconsistentTwistError"
        return ambient, morse, profile_tuple(mbaudit.morse_homology(stabilized))

    def check(self, item, result) -> bool:
        if item["family"] == "known":
            return result == item["expected"]
        exp = item["expected"]
        if len(result) > 2:
            return False
        h0, h1 = (tuple(result) + (TRIVIAL, TRIVIAL))[:2]
        torsion = h0[1]
        if (h0[0], h1[0]) != exp["free"] or h1[1]:
            return False
        if sum(1 for t in torsion if t % 2 == 0) != exp["even_torsion"]:
            return False
        if any(t <= 1 for t in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
            return False
        if exp["det"]:
            product = 1
            for t in torsion:
                product *= t
            return product == exp["det"]
        return True

    def input_stats(self) -> dict:
        stats = super().input_stats()
        known = [i for i in self.pool if i["family"] == "known"]
        stats.update(
            known=len(known),
            blocks=len(self.pool) - len(known),
            inconsistent=sum(1 for i in known if i["expected"][2] == "InconsistentTwistError"),
            cells=sum(i["cells"] for i in self.pool),
            entries=sum(i["entries"] for i in self.pool),
            max_bits=max(i["bits"] for i in self.pool),
            distinct_keys=len({i["input"] for i in self.pool}),
        )
        return stats


WORKLOADS = {w.name: w for w in (CliFixtures, AuditCatalog, ExplicitComplexes)}
