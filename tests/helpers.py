"""Shared test machinery: readers of matrix, complex and profile fields,
an independent homology oracle, a generator of random complexes with
known homology, and a CLI runner.

The oracle deliberately shares no code with the Smith-normal-form route:
free ranks come from fraction-free (Bareiss) elimination over the
integers, and the number of even torsion factors per degree is
recovered from mod-2 dimensions via universal coefficients
(dim_F2 H_k = free_k + t2_k + t2_{k-1}).
"""

from __future__ import annotations

import contextlib
import io
from itertools import combinations
from math import gcd
from pathlib import Path
from random import Random

from mbaudit import (
    AbelianGroup,
    HomologyProfile,
    IntegerChainComplex,
    IntegerMatrix,
    IntPoly,
)
from mbaudit.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

FIXTURE_NAMES = [
    "rp5-counterexample",
    "rp5-morse",
    "s1-moebius",
    "s2-height",
    "torus-perfect",
]


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# matrices and complexes read through their fields


def matrix_rows(m: IntegerMatrix) -> list[list[int]]:
    """The rows of ``m`` as lists, read off its row-major ``entries``."""
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def transpose(m: IntegerMatrix) -> IntegerMatrix:
    es, c = m.entries, m.cols
    return IntegerMatrix(c, m.rows, [es[i * c + j] for j in range(c) for i in range(m.rows)])


def entrywise_product(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    return IntegerMatrix(a.rows, a.cols, [x * y for x, y in zip(a.entries, b.entries)])


def boundary(cx: IntegerChainComplex, k: int) -> IntegerMatrix:
    """d_k of ``cx``, a zero matrix of the right shape outside 1..top."""
    if 1 <= k <= cx.top_degree:
        return cx.boundaries[k - 1]
    rank = dict(enumerate(cx.ranks)).get
    return IntegerMatrix.zeros(rank(k - 1, 0), rank(k, 0))


def total_free_rank(profile: HomologyProfile) -> int:
    return sum(g.free_rank for g in profile.groups)


def euler_characteristic(profile: HomologyProfile) -> int:
    """The alternating sum of the free ranks, read off the groups."""
    return sum((-1) ** k * g.free_rank for k, g in enumerate(profile.groups))


# ---------------------------------------------------------------------------
# independent rank computations


def rank_over_rationals(m: IntegerMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) row echelon elimination.

    After each pivot every entry below it is a minor of ``m``, so the
    division by the previous pivot is exact and the entries stay
    integers no larger than the Hadamard bound.
    """
    rows = matrix_rows(m)
    rank, prev = 0, 1
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        p = lead[col]
        for r in range(rank + 1, m.rows):
            f = rows[r][col]
            rows[r] = [(p * a - f * b) // prev for a, b in zip(rows[r], lead)]
        prev = p
        rank += 1
    return rank


def rank_mod2(m: IntegerMatrix) -> int:
    rows = [[e % 2 for e in row] for row in matrix_rows(m)]
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(m.rows):
            if r != rank and rows[r][col]:
                rows[r] = [(a + b) % 2 for a, b in zip(rows[r], lead)]
        rank += 1
    return rank


def determinant(rows: list[list[int]]) -> int:
    """Determinant of a square matrix by Bareiss fraction-free elimination;
    every division is exact, so entries stay integers."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def invariant_factors_by_minors(m: IntegerMatrix) -> tuple[int, ...]:
    """Invariant factors as quotients of determinantal divisors: d_k is the
    gcd of the k x k minors and the k-th factor is d_k / d_(k-1).  The
    number of minors grows fast, so this is for small matrices only."""
    rows = matrix_rows(m)
    factors: list[int] = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        d = 0
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                d = gcd(d, determinant([[rows[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


def oracle_free_and_even(cx: IntegerChainComplex) -> tuple[list[int], list[int]]:
    """Free ranks and even-torsion-factor counts per degree, computed
    without Smith normal form."""
    top = cx.top_degree
    rq = [rank_over_rationals(boundary(cx, k)) for k in range(top + 2)]
    r2 = [rank_mod2(boundary(cx, k)) for k in range(top + 2)]
    free, even = [], []
    prev_even = 0
    for k in range(top + 1):
        f = cx.ranks[k] - rq[k] - rq[k + 1]
        dim2 = cx.ranks[k] - r2[k] - r2[k + 1]
        e = dim2 - f - prev_even
        free.append(f)
        even.append(e)
        prev_even = e
    return free, even


def assert_profile_matches_oracle(cx: IntegerChainComplex, profile: HomologyProfile) -> None:
    free, even = oracle_free_and_even(cx)
    for k in range(cx.top_degree + 1):
        group = profile.group(k)
        assert group.free_rank == free[k], f"free rank mismatch in degree {k}"
        got_even = sum(1 for t in group.torsion if t % 2 == 0)
        assert got_even == even[k], f"even torsion count mismatch in degree {k}"


# ---------------------------------------------------------------------------
# random complexes with known homology


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


def invariant_factors_from_orders(orders: list[int]) -> tuple[int, ...]:
    """Normalize a multiset of cyclic orders into a divisor chain."""
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


def random_complex(rng: Random, max_rank: int = 8) -> tuple[IntegerChainComplex, HomologyProfile]:
    """A random complex assembled from free generators and torsion pairs,
    then scrambled by a homology-preserving change of basis."""
    top = rng.randint(0, 3)
    ranks = [0] * (top + 2)
    free = [0] * (top + 2)
    orders: list[list[int]] = [[] for _ in range(top + 2)]
    pairs: list[tuple[int, int, int, int]] = []  # (degree, row, col, order)
    budget = rng.randint(1, max_rank)
    total = 0
    while total < budget:
        k = rng.randint(0, top)
        if total + 2 > budget or rng.random() < 0.45:
            ranks[k] += 1
            free[k] += 1
            total += 1
        else:
            n = rng.choice([2, 2, 3, 4, 6, 12])
            pairs.append((k, ranks[k], ranks[k + 1], n))
            orders[k].append(n)
            ranks[k] += 1
            ranks[k + 1] += 1
            total += 2

    while len(ranks) > 1 and ranks[-1] == 0:
        ranks.pop()
    ndeg = len(ranks)
    bounds = [
        [[0] * ranks[k] for _ in range(ranks[k - 1])] for k in range(1, ndeg)
    ]
    for k, row, col, n in pairs:
        bounds[k][row][col] = n  # bounds[k] is d_{k+1}

    # change of basis e_i <- e_i + c e_j inside one degree: column
    # operation on d_k, inverse row operation on d_{k+1}
    for _ in range(rng.randint(0, 12)):
        k = rng.randrange(ndeg)
        if ranks[k] < 2:
            continue
        i, j = rng.sample(range(ranks[k]), 2)
        c = rng.choice([-2, -1, 1, 2])
        if k >= 1:
            for row in bounds[k - 1]:
                row[i] += c * row[j]
        if k + 1 < ndeg:
            bounds[k][j] = [a - c * b for a, b in zip(bounds[k][j], bounds[k][i])]

    cx = IntegerChainComplex(
        tuple(ranks),
        tuple(
            IntegerMatrix(ranks[k - 1], ranks[k], [e for row in bounds[k - 1] for e in row])
            for k in range(1, ndeg)
        ),
    )
    expected = HomologyProfile(
        AbelianGroup(free[k], invariant_factors_from_orders(orders[k]))
        for k in range(ndeg)
    )
    return cx, expected


def growth_block(rng: Random, n: int) -> list[int]:
    """The entries of an n x n block at 20% density with entries in
    [-3, 3], drawn as the benchmark's explicit-complexes workload draws
    its SNF growth blocks."""
    return [rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.2 else 0 for _ in range(n * n)]


def random_poly(rng: Random, max_degree: int = 6, lo: int = -4, hi: int = 6) -> IntPoly:
    return IntPoly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_degree + 1))])
