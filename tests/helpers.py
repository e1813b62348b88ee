"""Shared test machinery: readers of matrix, complex and profile fields,
a check of homology against the independent oracle, random complexes
with known homology, and a CLI runner.

The oracle and the input generators are the benchmark's, imported from
``bench/`` (``conftest.py`` puts it on the path): ``oracle.py`` imports
nothing from mbaudit, and ``workloads.py`` draws the complexes with
known homology and the Smith-normal-form growth blocks.  The oracle
shares no code with the Smith-normal-form route: free ranks come from
its fraction-free (Bareiss) elimination over the integers, and the
number of even torsion factors per degree is recovered from its mod-2
ranks via universal coefficients
(dim_F2 H_k = free_k + t2_k + t2_{k-1}).  What stays here converts
their plain lists and tuples to and from mbaudit's values, and adds the
three routes the benchmark does not take: that universal-coefficient
step, invariant factors from determinantal divisors, and their p-adic
valuations from elimination over Z/p^e.
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

import oracle
import workloads

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
# checks that take no answer from Smith normal form


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
                d = gcd(d, oracle.bareiss(k, k, [rows[i][j] for i in rs for j in cs])[1])
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


def p_valuation(n: int, p: int) -> int:
    """The exponent of p in a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def local_valuations(rows: int, cols: int, entries, p: int, e: int) -> list[int]:
    """The p-adic valuations, each below e, of the invariant factors that
    are nonzero mod p^e, in increasing order, by local elimination over
    Z/p^e: pivot on an entry of least valuation, clear its column with a
    unit multiple of its row, record the valuation, and drop its row and
    column.  A factor of valuation e or more is zero mod p^e and is not
    listed, so a caller raises e until as many valuations as the rank come
    back."""
    q = p**e
    a = [[x % q for x in entries[i * cols : (i + 1) * cols]] for i in range(rows)]
    found: list[int] = []
    v = 0  # the least valuation left never drops below the last pivot's
    while v < e:
        step = p ** (v + 1)
        at = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x % step), None)
        if at is None:
            v += 1
            continue
        i, j = at
        pivot, low = a.pop(i), p**v
        inverse = pow(pivot[j] // low, -1, q)
        for row in a:
            f = row[j] // low * inverse % q
            if f:
                row[:] = [(x - f * y) % q for x, y in zip(row, pivot)]
        for row in a:
            del row[j]
        found.append(v)
    return found


def oracle_free_and_even(cx: IntegerChainComplex) -> tuple[list[int], list[int]]:
    """Free ranks and even-torsion-factor counts per degree, computed
    without Smith normal form."""
    top = cx.top_degree
    ds = [boundary(cx, k) for k in range(top + 2)]
    rq = [oracle.bareiss(d.rows, d.cols, d.entries)[0] for d in ds]
    r2 = [oracle.rank_mod2(d.rows, d.cols, d.entries) for d in ds]
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
# random inputs


def random_complex(rng: Random, max_rank: int = 8) -> tuple[IntegerChainComplex, HomologyProfile]:
    """A complex from ``workloads.known_complex`` in degrees 0..3 with 1 to
    ``max_rank`` cells, and the homology its construction guarantees."""
    top = rng.randint(0, 3)
    ranks, bounds, profile = workloads.known_complex(rng, top, rng.randint(1, max_rank))
    cx = IntegerChainComplex(
        tuple(ranks),
        tuple(
            IntegerMatrix(ranks[k], ranks[k + 1], [e for row in d for e in row])
            for k, d in enumerate(bounds)
        ),
    )
    return cx, HomologyProfile(AbelianGroup(free, torsion) for free, torsion in profile)


def planted_torsion_matrix(rng: Random) -> tuple[IntegerMatrix, tuple[int, ...]]:
    """A matrix of at most 10 x 10 whose rank is 1 to half its smaller
    side, rounded up, and whose invariant factors are a planted divisor
    chain, scrambled by unimodular row and column operations."""
    rows, cols = rng.randint(1, 10), rng.randint(1, 10)
    factors, f = [], 1
    for _ in range(rng.randint(1, (min(rows, cols) + 1) // 2)):
        f *= rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 9))
        factors.append(f)
    a = [[factors[i] if i == j < len(factors) else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(2 * (rows + cols)):
        c = rng.choice((-2, -1, 1, 2))
        if rows > 1 and (cols == 1 or rng.random() < 0.5):  # row i += c * row k
            i, k = rng.sample(range(rows), 2)
            a[i] = [x + c * y for x, y in zip(a[i], a[k])]
        elif cols > 1:  # column j += c * column k
            j, k = rng.sample(range(cols), 2)
            for row in a:
                row[j] += c * row[k]
    return IntegerMatrix(rows, cols, [x for row in a for x in row]), tuple(factors)


def random_poly(rng: Random, max_degree: int = 6, lo: int = -4, hi: int = 6) -> IntPoly:
    return IntPoly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_degree + 1))])
