"""Integer chain complexes, Smith normal form, and a small space catalog.

Conventions
-----------
A chain complex stores one rank per degree 0..top and boundary matrices
d_k : C_k -> C_{k-1} for k = 1..top; rows of d_k index degree k-1
generators, columns index degree k.  Homology in degree k is
ker d_k / im d_{k+1}.  Its free rank is

    ranks[k] - rank(d_k) - rank(d_{k+1})

and its torsion is the list of invariant factors of d_{k+1} that exceed
one, both read off Smith normal forms.  Everything is exact: matrices
hold Python ints and the reduction uses only invertible integer row and
column operations.

Smith normal form runs in two phases.  The first eliminates ±1 pivots on
a sparse copy of the matrix, least Markowitz cost first (Dumas, Saunders
and Villard, 2001); a unit pivot needs no column operations and adds one
invariant factor 1.  The block that is left, with no unit in it, goes to
a dense algorithm that pivots on the entry of least absolute value and
forces each pivot to divide the rest.  Non-unit pivots stay dense: such
a pivot clears its column only after a run of remainder steps, and on
sparse rows those steps spread fill and grow the entries far faster than
the dense algorithm does on the same block.

A complex checks d∘d = 0 once, when it is built, with a sparse product
that skips zero entries (boundary matrices are mostly zeros); a pair of
boundaries with a zero factor needs no product.

The catalog fixes one minimal cellular model per space: a point (one
cell), spheres (two cells), the 2-torus (four cells), and real
projective spaces (one cell per degree, boundary degree 1 + (-1)^k).
Each non-simply-connected catalog space also carries one canonical sign
local system, the "twisted" coefficients: it swaps the projective-space
boundary pattern to 1 - (-1)^k, turns the circle's boundary into
multiplication by 2, and doubles one loop of the torus (boundaries
[2 0] and [0 2]^T).  Twisting never changes the alternating sum of
ranks, so Euler characteristics are preserved.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress
from math import gcd
from typing import Iterable, Sequence, Union

from ._value import Value
from .polyalg import IntPoly


class ChainComplexError(ValueError):
    """A boundary matrix has the wrong shape or d∘d != 0."""


class InadmissibleCharacterError(ValueError):
    """A nontrivial orientation character on a space that has none."""


# ---------------------------------------------------------------------------
# matrices


class IntegerMatrix(Value):
    """A rows x cols integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable[int]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        es = tuple(entries)
        if not {int}.issuperset(map(type, es)):  # one C-level pass; type(True) is bool
            bad = next(e for e in es if type(e) is not int)
            raise TypeError(f"integer entry expected, got {bad!r}")
        if len(es) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(es)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", es)

    @staticmethod
    def zeros(rows: int, cols: int) -> IntegerMatrix:
        return IntegerMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> IntegerMatrix:
        """Build from a non-empty list of equal-length rows."""
        if not rows:
            raise ValueError("from_rows needs at least one row; use zeros() for empty shapes")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return IntegerMatrix(len(rows), ncols, [e for r in rows for e in r])

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __matmul__(self, other: IntegerMatrix) -> IntegerMatrix:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # sparse row product: row i of the result is the sum of a_ik times
        # row k of other, over the nonzero a_ik and the nonzero entries of
        # that row; compress() skips the zeros without a Python-level test
        n, p = self.cols, other.cols
        a, b = self.entries, other.entries
        other_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for idx in compress(range(len(b)), b):
            other_rows[idx // p].append((idx % p, b[idx]))
        out = [0] * (self.rows * p)
        for idx in compress(range(len(a)), a):
            x, base = a[idx], idx // n * p
            for j, y in other_rows[idx % n]:
                out[base + j] += x * y
        return IntegerMatrix(self.rows, p, out)


# ---------------------------------------------------------------------------
# Smith normal form


class SmithNormalForm(Value):
    """Invariant factors (positive, each dividing the next) and the rank."""

    factors: tuple[int, ...]
    rank: int

    def __init__(self, factors: tuple[int, ...], rank: int) -> None:
        if any(f <= 0 for f in factors):
            raise ValueError("invariant factors must be positive")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {factors} are not a divisor chain")
        if rank != len(factors):
            raise ValueError("rank must equal the number of invariant factors")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "rank", rank)


def _smallest_nonzero(a: list[list[int]], t: int, nrows: int, ncols: int):
    """The row-major first entry of least absolute value in the block
    from (t, t), or None; a unit is least, so the scan stops there."""
    best = None
    best_abs = 0
    for i in range(t, nrows):
        row = a[i]
        for j in range(t, ncols):
            v = row[j]
            if v:
                av = abs(v)
                if av == 1:
                    return (i, j)
                if best is None or av < best_abs:
                    best, best_abs = (i, j), av
    return best


def _eliminate_units(rows: dict[int, dict[int, int]], cols: dict[int, set[int]]) -> int:
    """Eliminate ±1 pivots in place and return how many there were.

    ``rows`` maps a row index to its nonzero entries by column and
    ``cols`` maps a column index to the rows with a nonzero there.  Each
    step takes the unit of least Markowitz cost (row nnz - 1)(col nnz - 1),
    subtracts multiples of its row from the other rows of its column and
    drops its row and column: a unit pivot clears its row by column
    operations that touch nothing else, so what is left is the Schur
    complement, and the SNF of the input is 1 followed by its SNF.
    """
    units = 0
    while True:
        pivot = best = None
        for i, row in rows.items():
            ri = len(row) - 1
            for j, v in row.items():
                if v == 1 or v == -1:
                    cost = ri * (len(cols[j]) - 1)
                    if best is None or cost < best:
                        pivot, best = (i, j), cost
                        if not cost:
                            break
            if best == 0:
                break
        if pivot is None:
            return units
        pi, pj = pivot
        prow = rows.pop(pi)
        pv = prow.pop(pj)
        for j in prow:
            cols[j].discard(pi)
        col = cols.pop(pj)
        col.discard(pi)
        for r in col:
            row = rows[r]
            q = row.pop(pj) * pv  # pv is its own inverse
            for j, v in prow.items():
                x = row.get(j, 0) - q * v
                if x:
                    if j not in row:
                        cols[j].add(r)
                    row[j] = x
                elif j in row:
                    del row[j]
                    cols[j].discard(r)
            if not row:
                del rows[r]
        units += 1


def _dense_factors(a: list[list[int]]) -> list[int]:
    """Invariant factors of a dense matrix by least-|v| pivots.

    After each pivot is isolated it is forced to divide every remaining
    entry before moving on, so the diagonal comes out as a divisor chain.
    """
    nrows, ncols = len(a), len(a[0])
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        pivot = _smallest_nonzero(a, t, nrows, ncols)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        # rows above t are zero from column t on, so swaps start at row t
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            # clear the column below the pivot; a surviving remainder is
            # strictly smaller than the pivot, promote it and start over
            restart = False
            for i in range(t + 1, nrows):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    restart = True
                    break
            if restart:
                continue
            # the column is clear, so a column operation against it
            # changes the pivot row alone
            pt = a[t]
            for j in range(t + 1, ncols):
                if pt[j] == 0:
                    continue
                pt[j] %= pt[t]
                if pt[j]:
                    for row in a[t:]:
                        row[t], row[j] = row[j], row[t]
                    restart = True
                    break
            if restart:
                continue
            # cross is clear; force divisibility of the remaining block
            p = pt[t]
            if p == 1:
                break
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(pt, a[offender])]
        factors.append(a[t][t])
        t += 1
    return factors


def smith_normal_form(m: IntegerMatrix) -> SmithNormalForm:
    """Invariant factors over Z, in two phases.

    A zero matrix has none, and a single row or column has the gcd of
    its entries.  Otherwise the ±1 pivots are eliminated first on a
    sparse copy (one dict per row plus a column index), least Markowitz
    cost first, as in Dumas, Saunders and Villard, "On efficient sparse
    integer matrix Smith normal form computations" (2001); each counts
    one factor 1.  The block that is left goes to the dense least-|v|
    pivot algorithm.  Non-unit pivots stay in the dense phase: the
    remainder steps they need spread fill and grow entries when run on
    sparse rows, far faster than on the dense block.
    """
    es = m.entries
    if not any(es):
        return SmithNormalForm((), 0)
    if m.rows == 1 or m.cols == 1:
        return SmithNormalForm((gcd(*es),), 1)
    ncols = m.cols
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for idx in compress(range(len(es)), es):
        i, j = divmod(idx, ncols)
        rows.setdefault(i, {})[j] = es[idx]
        cols.setdefault(j, set()).add(i)
    units = _eliminate_units(rows, cols)
    left = [j for j, c in cols.items() if c]
    dense = _dense_factors([[row.get(j, 0) for j in left] for row in rows.values()]) if rows else []
    factors = (1,) * units + tuple(dense)
    return SmithNormalForm(factors, len(factors))


# ---------------------------------------------------------------------------
# chain complexes and homology


class IntegerChainComplex(Value):
    """Ranks per degree plus boundaries d_1..d_top, validated on build."""

    ranks: tuple[int, ...]
    boundaries: tuple[IntegerMatrix, ...]

    def __init__(
        self, ranks: Iterable[int], boundaries: Iterable[IntegerMatrix] = ()
    ) -> None:
        rs = tuple(ranks)
        bs = tuple(boundaries)
        if not rs:
            raise ValueError("a chain complex needs at least degree 0")
        if any(not isinstance(r, int) or isinstance(r, bool) or r < 0 for r in rs):
            raise ValueError("ranks must be nonnegative integers")
        if len(bs) != len(rs) - 1:
            raise ChainComplexError(
                f"expected {len(rs) - 1} boundary matrices for top degree {len(rs) - 1}, got {len(bs)}"
            )
        for k, d in enumerate(bs, start=1):
            if (d.rows, d.cols) != (rs[k - 1], rs[k]):
                raise ChainComplexError(
                    f"d_{k} must be {rs[k - 1]}x{rs[k]}, got {d.rows}x{d.cols}"
                )
        for k in range(1, len(bs)):
            # a product with a zero factor is zero; catalog models are
            # mostly zero boundaries, so they cost no product at all
            if bs[k - 1].is_zero() or bs[k].is_zero():
                continue
            if not (bs[k - 1] @ bs[k]).is_zero():
                raise ChainComplexError(f"d_{k} ∘ d_{k + 1} != 0")
        object.__setattr__(self, "ranks", rs)
        object.__setattr__(self, "boundaries", bs)

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def euler_characteristic(self) -> int:
        return sum(r if k % 2 == 0 else -r for k, r in enumerate(self.ranks))


class AbelianGroup(Value):
    """Z^free_rank plus cyclic torsion in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int = 0, torsion: Iterable[int] = ()) -> None:
        ts = tuple(torsion)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(t <= 1 for t in ts):
            raise ValueError("torsion orders must exceed 1")
        for a, b in zip(ts, ts[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {ts} is not a divisor chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", ts)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianGroup()


class HomologyProfile(Value):
    """Homology groups per degree, trimmed so the top group is nontrivial.

    Trimming makes equality degree-by-degree equality: two profiles that
    agree in every degree compare equal no matter how many trailing
    trivial degrees either computation happened to produce.
    """

    groups: tuple[AbelianGroup, ...]

    def __init__(self, groups: Iterable[AbelianGroup] = ()) -> None:
        gs = list(groups)
        while gs and gs[-1].is_trivial():
            gs.pop()
        object.__setattr__(self, "groups", tuple(gs))

    @property
    def top_degree(self) -> int:
        return len(self.groups) - 1

    def group(self, k: int) -> AbelianGroup:
        if 0 <= k < len(self.groups):
            return self.groups[k]
        return TRIVIAL_GROUP

    def shifted(self, r: int) -> HomologyProfile:
        """The same groups moved up r degrees."""
        if r < 0:
            raise ValueError("shift must be nonnegative")
        return HomologyProfile((TRIVIAL_GROUP,) * r + self.groups)

    def poincare_polynomial(self) -> IntPoly:
        return IntPoly([g.free_rank for g in self.groups])


def homology(complex: IntegerChainComplex) -> HomologyProfile:
    """Integral homology of a valid complex, degree by degree."""
    top = complex.top_degree
    snf = [smith_normal_form(complex.boundaries[k]) for k in range(top)]

    def rank_d(k: int) -> int:
        return snf[k - 1].rank if 1 <= k <= top else 0

    groups = []
    for k in range(top + 1):
        free = complex.ranks[k] - rank_d(k) - rank_d(k + 1)
        torsion = ()
        if k + 1 <= top:
            torsion = tuple(f for f in snf[k].factors if f > 1)
        groups.append(AbelianGroup(free, torsion))
    return HomologyProfile(groups)


# ---------------------------------------------------------------------------
# space catalog


class Point(Value):
    pass


class Sphere(Value):
    n: int

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("sphere dimension must be >= 1")
        object.__setattr__(self, "n", n)


class RealProjective(Value):
    n: int

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("projective-space dimension must be >= 1")
        object.__setattr__(self, "n", n)


class Torus2(Value):
    pass


class Explicit(Value):
    """A user-supplied complex standing in for a space."""

    complex: IntegerChainComplex


Space = Union[Point, Sphere, RealProjective, Torus2, Explicit]


def space_tag(space: Space) -> str:
    """Short display/parse tag for a space."""
    match space:
        case Point():
            return "point"
        case Sphere(n):
            return f"sphere:{n}"
        case RealProjective(n):
            return f"rp:{n}"
        case Torus2():
            return "torus2"
        case Explicit():
            return "explicit"
    raise TypeError(f"not a space: {space!r}")


def space_dim(space: Space) -> int | None:
    """Dimension of a catalog space, None for Explicit."""
    match space:
        case Point():
            return 0
        case Sphere(n):
            return n
        case RealProjective(n):
            return n
        case Torus2():
            return 2
        case Explicit():
            return None
    raise TypeError(f"not a space: {space!r}")


class OrientationCharacter(Enum):
    """Coefficient system: plain Z, or Z twisted by the canonical sign
    character of the fundamental group."""

    TRIVIAL = "orientable"
    NONTRIVIAL = "twisted"


def admits_nontrivial_character(space: Space) -> bool:
    match space:
        case Sphere(n):
            return n == 1
        case RealProjective():
            return True
        case Torus2():
            return True
    return False


def require_admissible(space: Space, character: OrientationCharacter) -> None:
    if character is OrientationCharacter.NONTRIVIAL and not admits_nontrivial_character(space):
        raise InadmissibleCharacterError(
            f"{space_tag(space)} admits no nontrivial orientation character"
        )


def catalog_complex(
    space: Space,
    character: OrientationCharacter = OrientationCharacter.TRIVIAL,
) -> IntegerChainComplex:
    """The fixed cellular model of a catalog space, possibly twisted."""
    require_admissible(space, character)
    twisted = character is OrientationCharacter.NONTRIVIAL
    match space:
        case Point():
            return IntegerChainComplex((1,), ())
        case Sphere(n):
            if n == 1:
                d1 = IntegerMatrix(1, 1, (2,)) if twisted else IntegerMatrix.zeros(1, 1)
                return IntegerChainComplex((1, 1), (d1,))
            ranks = (1,) + (0,) * (n - 1) + (1,)
            bounds = tuple(
                IntegerMatrix.zeros(ranks[k - 1], ranks[k]) for k in range(1, n + 1)
            )
            return IntegerChainComplex(ranks, bounds)
        case RealProjective(n):
            ranks = (1,) * (n + 1)
            bounds = tuple(
                IntegerMatrix(1, 1, (1 - (-1) ** k if twisted else 1 + (-1) ** k,))
                for k in range(1, n + 1)
            )
            return IntegerChainComplex(ranks, bounds)
        case Torus2():
            if twisted:
                bounds = (
                    IntegerMatrix.from_rows([[2, 0]]),
                    IntegerMatrix.from_rows([[0], [2]]),
                )
            else:
                bounds = (IntegerMatrix.zeros(1, 2), IntegerMatrix.zeros(2, 1))
            return IntegerChainComplex((1, 2, 1), bounds)
        case Explicit(cx):
            return cx
    raise TypeError(f"not a space: {space!r}")
