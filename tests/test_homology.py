import importlib
import math
from enum import IntEnum
from random import Random

import pytest

from mbaudit import (
    AbelianGroup,
    ChainComplexError,
    Explicit,
    HomologyProfile,
    InadmissibleCharacterError,
    IntegerChainComplex,
    IntegerMatrix,
    IntPoly,
    OrientationCharacter,
    Point,
    RealProjective,
    SmithNormalForm,
    Sphere,
    Torus2,
    catalog_complex,
    homology,
    smith_normal_form,
    space_dim,
    space_tag,
)

import oracle
import workloads
from helpers import (
    assert_profile_matches_oracle,
    euler_characteristic,
    invariant_factors_by_minors,
    local_valuations,
    matrix_rows,
    p_valuation,
    random_complex,
    transpose,
)

TRIV = OrientationCharacter.TRIVIAL
TW = OrientationCharacter.NONTRIVIAL


def M(rows):
    return IntegerMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_single_entries():
    assert smith_normal_form(M([[2]])).factors == (2,)
    assert smith_normal_form(M([[2]])).rank == 1
    assert smith_normal_form(M([[0]])).factors == ()
    assert smith_normal_form(M([[0]])).rank == 0
    assert smith_normal_form(M([[-5]])).factors == (5,)


def test_snf_2x2_divisor_chain():
    # gcd of entries is 2 and |det| = 8, so the chain must be (2, 4)
    snf = smith_normal_form(M([[2, 4], [6, 8]]))
    assert snf.factors == (2, 4)
    assert snf.rank == 2


def test_snf_empty_shapes():
    assert smith_normal_form(IntegerMatrix.zeros(0, 3)).factors == ()
    assert smith_normal_form(IntegerMatrix.zeros(3, 0)).factors == ()
    assert smith_normal_form(IntegerMatrix.zeros(0, 0)).rank == 0
    for rows in range(6):
        for cols in range(6):
            snf = smith_normal_form(IntegerMatrix.zeros(rows, cols))
            assert (snf.factors, snf.rank) == ((), 0)


def test_snf_needs_the_divisibility_fix():
    # diag(2, 3) is not in normal form; invariant factors are (1, 6)
    assert smith_normal_form(M([[2, 0], [0, 3]])).factors == (1, 6)


def test_snf_transpose_invariance_random():
    rng = Random(23)
    for _ in range(300):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = IntegerMatrix(
            rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)]
        )
        assert smith_normal_form(m).factors == smith_normal_form(transpose(m)).factors


def test_snf_agrees_with_determinantal_divisors_up_to_4x4():
    # the k-th factor is d_k / d_(k-1), d_k the gcd of the k x k minors;
    # on 3x3 matrices the product of the factors is also checked against
    # the cofactor expansion of the determinant
    rng = Random(29)
    for _ in range(120):
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        factors = smith_normal_form(M(rows)).factors
        assert factors == invariant_factors_by_minors(M(rows))
        assert (math.prod(factors) if len(factors) == 3 else 0) == abs(det)
    for _ in range(400):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntegerMatrix(nrows, ncols, [rng.randint(-6, 6) for _ in range(nrows * ncols)])
        assert smith_normal_form(m).factors == invariant_factors_by_minors(m)


def assert_snf_passes_independent_checks(m):
    snf = smith_normal_form(m)
    factors = snf.factors
    rank, det = oracle.bareiss(m.rows, m.cols, m.entries)
    assert snf.rank == len(factors) == rank
    assert sum(f % 2 for f in factors) == oracle.rank_mod2(m.rows, m.cols, m.entries)
    assert all(f > 0 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert smith_normal_form(transpose(m)).factors == factors
    if m.rows == m.cols == len(factors):
        assert math.prod(factors) == det
    for p in (2, 3, 5, 7):
        # e comes from the Bareiss rank alone: raised until every factor's
        # valuation falls below it
        e = 1
        while len(found := local_valuations(m.rows, m.cols, m.entries, p, e)) < rank:
            e *= 2
        assert found == [p_valuation(f, p) for f in factors], p


def test_snf_independent_checks_on_sparse_matrices():
    rng = Random(43)
    shapes = [(n, n) for n in range(1, 13)] + [(12, 14), (14, 12)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 14)) for _ in range(150)]
    for rows, cols in shapes:
        density = rng.choice((0.15, 0.3, 0.6))
        values = rng.choice(((-1, 1), (-3, -2, -1, 1, 2, 3), (-6, -4, -2, 2, 3, 9)))
        entries = [rng.choice(values) if rng.random() < density else 0 for _ in range(rows * cols)]
        assert_snf_passes_independent_checks(IntegerMatrix(rows, cols, entries))


def test_snf_independent_checks_on_growth_blocks():
    rng = Random(47)
    full_rank = 0
    for _ in range(25):
        n = rng.randint(20, 32)
        m = IntegerMatrix(n, n, workloads.growth_block(rng, n))
        assert_snf_passes_independent_checks(m)
        full_rank += smith_normal_form(m).rank == n
    assert full_rank  # the determinant check ran


def dense_phase_inputs(monkeypatch):
    """Record the shape of every block handed to the dense phase."""
    # `import mbaudit.homology as m` gives the function, not the module
    chains = importlib.import_module("mbaudit.homology")
    seen = []
    dense = chains._dense_factors

    def spy(a):
        seen.append((len(a), len(a[0])))
        return dense(a)

    monkeypatch.setattr(chains, "_dense_factors", spy)
    return seen


def test_snf_of_signed_permutations_is_all_units(monkeypatch):
    seen = dense_phase_inputs(monkeypatch)
    rng = Random(53)
    for n in range(1, 10):
        for signed in (False, True):
            perm = list(range(n))
            rng.shuffle(perm)
            entries = [0] * (n * n)
            for i, j in enumerate(perm):
                entries[i * n + j] = rng.choice((-1, 1)) if signed else 1
            assert smith_normal_form(IntegerMatrix(n, n, entries)).factors == (1,) * n
    assert seen == []


def test_snf_single_unit_in_the_last_row_or_column():
    rng = Random(59)
    for _ in range(200):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        entries = [rng.choice((0, 2, -2, 3, -4, 6)) for _ in range(rows * cols)]
        if rng.random() < 0.5:
            idx = (rows - 1) * cols + rng.randrange(cols)  # last row
        else:
            idx = rng.randrange(rows) * cols + cols - 1  # last column
        entries[idx] = rng.choice((-1, 1))
        m = IntegerMatrix(rows, cols, entries)
        factors = smith_normal_form(m).factors
        assert factors[0] == 1
        assert factors == invariant_factors_by_minors(m)


def test_snf_without_units_is_all_dense(monkeypatch):
    seen = dense_phase_inputs(monkeypatch)
    rng = Random(61)
    for _ in range(200):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        entries = [rng.choice((2, -2, 3, -3, 4, -6)) for _ in range(rows * cols)]
        m = IntegerMatrix(rows, cols, entries)
        assert smith_normal_form(m).factors == invariant_factors_by_minors(m)
        assert seen.pop() == (rows, cols)
    assert smith_normal_form(M([[2, 0], [0, 3]])).factors == (1, 6)
    assert seen == [(2, 2)]


def test_snf_of_one_row_or_column_is_the_gcd():
    rng = Random(67)
    for _ in range(200):
        n = rng.randint(1, 8)
        entries = [rng.choice((0, 0, -1, 2, -4, 6, -9, 12)) for _ in range(n)]
        expected = (math.gcd(*entries),) if any(entries) else ()
        assert smith_normal_form(IntegerMatrix(1, n, entries)).factors == expected
        assert smith_normal_form(IntegerMatrix(n, 1, entries)).factors == expected
    assert smith_normal_form(M([[0, -6, 0, -4]])).factors == (2,)
    assert smith_normal_form(M([[-3], [0], [-3]])).factors == (3,)


# ---------------------------------------------------------------------------
# complexes and homology


def test_complex_validates_shapes():
    with pytest.raises(ChainComplexError):
        IntegerChainComplex((1, 1), (IntegerMatrix.zeros(2, 1),))
    with pytest.raises(ChainComplexError):
        IntegerChainComplex((1, 1), ())


def test_complex_rejects_dd_nonzero():
    with pytest.raises(ChainComplexError):
        IntegerChainComplex((1, 1, 1), (M([[1]]), M([[1]])))


def test_catalog_models_need_a_product_only_for_the_twisted_torus(monkeypatch):
    # every other catalog model has a zero boundary in each consecutive
    # pair, so d∘d = 0 holds without a product
    products = []
    matmul = IntegerMatrix.__matmul__

    def counting(a, b):
        products.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(IntegerMatrix, "__matmul__", counting)
    for n in range(1, 9):
        catalog_complex(RealProjective(n), TRIV)
        catalog_complex(RealProjective(n), TW)
    for n in range(1, 5):
        catalog_complex(Sphere(n), TRIV)
    catalog_complex(Sphere(1), TW)
    catalog_complex(Torus2(), TRIV)
    assert products == []
    catalog_complex(Torus2(), TW)
    assert products == [(1, 2, 1)]


def test_homology_of_projective_space_models():
    rp3 = homology(catalog_complex(RealProjective(3)))
    assert rp3.group(0) == AbelianGroup(1)
    assert rp3.group(1) == AbelianGroup(0, (2,))
    assert rp3.group(2) == AbelianGroup(0)
    assert rp3.group(3) == AbelianGroup(1)

    rp3_tw = homology(catalog_complex(RealProjective(3), TW))
    assert rp3_tw.group(0) == AbelianGroup(0, (2,))
    assert rp3_tw.group(1) == AbelianGroup(0)
    assert rp3_tw.group(2) == AbelianGroup(0, (2,))
    assert rp3_tw.group(3) == AbelianGroup(0)
    assert rp3_tw.poincare_polynomial() == IntPoly()

    rp5 = homology(catalog_complex(RealProjective(5)))
    assert rp5.poincare_polynomial() == IntPoly([1, 0, 0, 0, 0, 1])


def test_homology_of_spheres_torus_point():
    assert homology(catalog_complex(Point())).poincare_polynomial() == IntPoly([1])
    s2 = homology(catalog_complex(Sphere(2)))
    assert s2.poincare_polynomial() == IntPoly([1, 0, 1])
    s1_tw = homology(catalog_complex(Sphere(1), TW))
    assert s1_tw.group(0) == AbelianGroup(0, (2,))
    assert s1_tw.group(1) == AbelianGroup(0)
    t2 = homology(catalog_complex(Torus2()))
    assert t2.poincare_polynomial() == IntPoly([1, 2, 1])
    t2_tw = homology(catalog_complex(Torus2(), TW))
    assert t2_tw.group(0) == AbelianGroup(0, (2,))
    assert t2_tw.group(1) == AbelianGroup(0, (2,))
    assert t2_tw.group(2) == AbelianGroup(0)


def test_twisting_preserves_euler_characteristic():
    for space in (Sphere(1), RealProjective(2), RealProjective(5), Torus2()):
        plain = catalog_complex(space, TRIV)
        twisted = catalog_complex(space, TW)
        assert plain.euler_characteristic() == twisted.euler_characteristic()
        assert (
            euler_characteristic(homology(plain))
            == euler_characteristic(homology(twisted))
        )


def test_homology_euler_equals_cell_euler():
    rng = Random(31)
    for _ in range(50):
        cx, _ = random_complex(rng)
        assert euler_characteristic(homology(cx)) == cx.euler_characteristic()


def test_inadmissible_characters_rejected():
    for space in (Point(), Sphere(2), Sphere(5)):
        with pytest.raises(InadmissibleCharacterError):
            catalog_complex(space, TW)
    ex = Explicit(IntegerChainComplex((1,), ()))
    with pytest.raises(InadmissibleCharacterError):
        catalog_complex(ex, TW)


def test_explicit_passthrough():
    cx = IntegerChainComplex((1, 1), (M([[0]]),))
    assert catalog_complex(Explicit(cx)) is cx


def test_space_helpers():
    assert space_tag(RealProjective(5)) == "rp:5"
    assert space_tag(Torus2()) == "torus2"
    assert space_dim(Sphere(3)) == 3
    assert space_dim(Explicit(IntegerChainComplex((1,), ()))) is None
    with pytest.raises(ValueError):
        Sphere(0)
    with pytest.raises(ValueError):
        RealProjective(0)


def test_profile_trimming_and_shift():
    p = HomologyProfile([AbelianGroup(1), AbelianGroup(0), AbelianGroup(0)])
    assert p.top_degree == 0
    assert p == HomologyProfile([AbelianGroup(1)])
    shifted = p.shifted(2)
    assert shifted.group(2).free_rank == 1
    assert shifted.group(0).free_rank == 0
    assert shifted.poincare_polynomial() == IntPoly([0, 0, 1])


def test_abelian_group_validation_and_rendering():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))  # not a divisor chain
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(2, (2, 4))) == "Z^2 x Z/2 x Z/4"
    assert str(AbelianGroup(1)) == "Z"


def test_homology_matches_independent_oracle_on_catalog():
    spaces = [Point(), Sphere(1), Sphere(2), Sphere(4), RealProjective(2),
              RealProjective(3), RealProjective(5), Torus2()]
    for space in spaces:
        for char in (TRIV, TW):
            if char is TW and space in (Point(), Sphere(2), Sphere(4)):
                continue
            cx = catalog_complex(space, char)
            assert_profile_matches_oracle(cx, homology(cx))


def test_homology_matches_construction_and_oracle_on_random_complexes():
    rng = Random(37)
    for _ in range(150):
        cx, expected = random_complex(rng)
        got = homology(cx)
        assert got == expected
        assert_profile_matches_oracle(cx, got)


def test_matrix_basics():
    m = M([[1, 2], [3, 4]])
    assert m.entries == (1, 2, 3, 4)
    prod = m @ M([[1], [1]])
    assert prod.entries == (3, 7)
    with pytest.raises(ValueError):
        m @ IntegerMatrix.zeros(3, 3)
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, (1, 2, 3))
    with pytest.raises(TypeError):
        IntegerMatrix(1, 1, (0.5,))


def dense_product(a, b):
    """Textbook triple loop, the reference for the sparse product."""
    return [
        [sum(a.entries[i * a.cols + k] * b.entries[k * b.cols + j] for k in range(a.cols))
         for j in range(b.cols)]
        for i in range(a.rows)
    ]


def random_sparse(rng, rows, cols):
    entries = [
        rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.3 else 0
        for _ in range(rows * cols)
    ]
    if rows and rng.random() < 0.5:  # a zero row
        i = rng.randrange(rows)
        entries[i * cols : (i + 1) * cols] = [0] * cols
    return IntegerMatrix(rows, cols, entries)


def test_sparse_product_matches_the_triple_loop():
    rng = Random(67)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (4, 1, 4)]
    shapes += [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(300)]
    for rows, inner, cols in shapes:
        a, b = random_sparse(rng, rows, inner), random_sparse(rng, inner, cols)
        prod = a @ b
        assert (prod.rows, prod.cols) == (rows, cols)
        assert matrix_rows(prod) == dense_product(a, b)
        assert all(type(e) is int for e in prod.entries)


class Sign(IntEnum):
    PLUS = 1


def test_matrix_entry_type_errors_name_the_first_bad_entry():
    # the type must be int itself: bool and IntEnum are int subclasses
    for bad in (True, False, 0.5, 1.0, "1", Sign.PLUS):
        with pytest.raises(TypeError) as exc:
            IntegerMatrix(1, 3, (1, bad, 2.5))
        assert str(exc.value) == f"integer entry expected, got {bad!r}"


def test_unit_pivot_stops_the_scan_at_the_first_minimum():
    from mbaudit.homology import _smallest_nonzero

    def full_scan(a, t):
        cells = [
            (abs(a[i][j]), i, j)
            for i in range(t, len(a))
            for j in range(t, len(a[0]))
            if a[i][j]
        ]
        return min(cells)[1:] if cells else None

    rng = Random(71)
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = matrix_rows(random_sparse(rng, rows, cols))
        t = rng.randint(0, min(rows, cols) - 1)
        assert _smallest_nonzero(a, t, rows, cols) == full_scan(a, t)


def test_snf_checks_positivity_before_the_divisor_chain():
    for factors in ((0, 2), (-2, 4), (2, 0), (0,)):
        with pytest.raises(ValueError, match="^invariant factors must be positive$"):
            SmithNormalForm(factors, len(factors))
