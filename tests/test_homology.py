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
    Sphere,
    Torus2,
    catalog_complex,
    homology,
    smith_normal_form,
    space_dim,
    space_tag,
)

from helpers import assert_profile_matches_oracle, random_complex

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
        assert smith_normal_form(m).factors == smith_normal_form(m.transpose()).factors


def test_snf_agrees_with_determinant_divisors_3x3():
    # d1 = gcd of entries, d1*d2 = gcd of 2x2 minors, d1*d2*d3 = |det|
    import itertools
    import math

    rng = Random(29)
    for _ in range(120):
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        m = M(rows)
        entries_gcd = math.gcd(*(abs(e) for e in m.entries))
        minors = []
        for rs in itertools.combinations(range(3), 2):
            for cs in itertools.combinations(range(3), 2):
                a, b = rs
                c, d = cs
                minors.append(rows[a][c] * rows[b][d] - rows[a][d] * rows[b][c])
        minors_gcd = math.gcd(*(abs(x) for x in minors))
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        factors = smith_normal_form(m).factors
        if entries_gcd == 0:
            assert factors == ()
            continue
        assert factors[0] == entries_gcd
        if len(factors) >= 2:
            assert factors[0] * factors[1] == minors_gcd
        else:
            assert minors_gcd == 0
        if len(factors) == 3:
            assert factors[0] * factors[1] * factors[2] == abs(det)
        else:
            assert det == 0


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
            homology(plain).euler_characteristic()
            == homology(twisted).euler_characteristic()
        )


def test_homology_euler_equals_cell_euler():
    rng = Random(31)
    for _ in range(50):
        cx, _ = random_complex(rng)
        assert homology(cx).euler_characteristic() == cx.euler_characteristic()


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
    assert shifted.free_rank(2) == 1
    assert shifted.free_rank(0) == 0
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
    assert m.entry(1, 0) == 3
    assert m.transpose().row(0) == (1, 3)
    prod = m @ M([[1], [1]])
    assert prod.to_rows() == [[3], [7]]
    with pytest.raises(ValueError):
        m @ IntegerMatrix.zeros(3, 3)
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, (1, 2, 3))
    with pytest.raises(TypeError):
        IntegerMatrix(1, 1, (0.5,))


def dense_product(a, b):
    """Textbook triple loop, the reference for the sparse product."""
    return [
        [sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols)) for j in range(b.cols)]
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
        assert [list(prod.row(i)) for i in range(rows)] == dense_product(a, b)
        assert all(type(e) is int for e in prod.entries)


def test_matrix_entry_type_errors_name_the_first_bad_entry():
    for bad in (True, False, 0.5, 1.0, "1"):
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
        a = random_sparse(rng, rows, cols).to_rows()
        t = rng.randint(0, min(rows, cols) - 1)
        assert _smallest_nonzero(a, t, rows, cols) == full_scan(a, t)
