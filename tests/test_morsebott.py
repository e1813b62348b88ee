import json
import warnings
from collections import Counter
from random import Random

import pytest

import mbaudit.bundles
import mbaudit.morsebott
from mbaudit import (
    BundleDescriptor,
    CriticalSubmanifold,
    Explicit,
    FailsNegativeCoefficient,
    FailsNotDivisible,
    Holds,
    InadmissibleCharacterError,
    IntegerChainComplex,
    IntegerMatrix,
    IntPoly,
    MorseBottData,
    OrientationCharacter,
    Point,
    RealProjective,
    Sphere,
    Torus2,
    catalog_complex,
    check_inequalities,
    divide_by_one_plus_t,
    e2_consistency,
    e2_page,
    homology,
    mb_polynomial,
    parse_document,
    space_dim,
    thom_pair_homology,
)
from mbaudit.document import parse_space
from mbaudit.homology import admits_nontrivial_character
from mbaudit.morsebott import MODES
from mbaudit.polyalg import ONE_PLUS_T

from helpers import (
    FIXTURES,
    FIXTURE_NAMES,
    euler_characteristic,
    random_poly,
    run_cli,
    total_free_rank,
)

TRIV = OrientationCharacter.TRIVIAL
TW = OrientationCharacter.NONTRIVIAL


def rp5_data():
    return MorseBottData(
        RealProjective(5),
        [
            CriticalSubmanifold(Point(), 0, TRIV),
            CriticalSubmanifold(RealProjective(3), 1, TW),
            CriticalSubmanifold(Point(), 5, TRIV),
        ],
    )


def test_mb_polynomial_modes():
    data = rp5_data()
    assert mb_polynomial(data, "untwisted") == IntPoly([1, 1, 0, 0, 1, 1])
    assert mb_polynomial(data, "local") == IntPoly([1, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        mb_polynomial(data, "sideways")


def test_mb_polynomial_single_point():
    data = MorseBottData(Point(), [CriticalSubmanifold(Point(), 0, TRIV)])
    assert mb_polynomial(data, "untwisted") == IntPoly([1])
    assert mb_polynomial(data, "local") == IntPoly([1])


def test_check_inequalities_verdicts():
    # perfect case
    v = check_inequalities(IntPoly([1, 2, 1]), IntPoly([1, 2, 1]))
    assert isinstance(v, Holds) and v.quotient == IntPoly()
    # classic Morse case with one cancellable pair
    v = check_inequalities(IntPoly([2, 1]), IntPoly([1]))
    assert v == Holds(IntPoly([1]))
    # chi mismatch
    v = check_inequalities(IntPoly([2, 1]), IntPoly([1, 1]))
    assert v == FailsNotDivisible(1)
    # divisible but with a negative quotient coefficient
    v = check_inequalities(IntPoly([1, 1, 0, 0, 1, 1]), IntPoly([1, 0, 0, 0, 0, 1]))
    assert v == FailsNegativeCoefficient(2, IntPoly([0, 1, -1, 1]))


def test_check_inequalities_reports_lowest_negative_degree():
    # mb - p = (1+t)(-1 + t^3): negative at degree 0 before positive at 3
    mb = ONE_PLUS_T * IntPoly([-1, 0, 0, 1])
    v = check_inequalities(mb, IntPoly())
    assert isinstance(v, FailsNegativeCoefficient)
    assert v.degree == 0


def test_quotient_routes_agree_and_reconstruct():
    rng = Random(47)
    for _ in range(500):
        p = random_poly(rng)
        r = random_poly(rng)
        mb = p + ONE_PLUS_T * r
        v = check_inequalities(mb, p)
        if all(c >= 0 for c in r.coeffs):
            assert v == Holds(r)
            assert p + ONE_PLUS_T * v.quotient == mb
        else:
            assert isinstance(v, FailsNegativeCoefficient)
            assert v.quotient == r
            assert v.degree == min(k for k, c in enumerate(r.coeffs) if c < 0)


def test_wrong_quotient_trips_the_reconstruction_check(monkeypatch):
    monkeypatch.setattr(
        mbaudit.morsebott, "divide_by_one_plus_t", lambda p: IntPoly([0, 1, -1, 2])
    )
    with pytest.raises(AssertionError):
        check_inequalities(IntPoly([1, 1, 0, 0, 1, 1]), IntPoly([1, 0, 0, 0, 0, 1]))


def test_chi_gap_value():
    rng = Random(53)
    for _ in range(200):
        mb, p = random_poly(rng), random_poly(rng)
        v = check_inequalities(mb, p)
        gap = (mb - p).evaluate(-1)
        if gap != 0:
            assert v == FailsNotDivisible(gap)


def test_e2_page_rp5():
    page = e2_page(rp5_data())
    assert len(page) == 3
    assert page[0].group(0).free_rank == 1
    assert page[1].group(1).torsion == (2,)
    assert page[1].group(3).torsion == (2,)
    assert total_free_rank(page[1]) == 0
    assert page[2].group(5).free_rank == 1


def random_catalog_document(rng):
    """A valid document: a catalog ambient with its minimum and maximum,
    plus up to five pieces, twisted at random where the space and the
    index allow it."""
    n = rng.randint(1, 9)
    ambient = rng.choice([f"sphere:{n}", f"rp:{n}", "torus2"])
    top = 2 if ambient == "torus2" else n
    crits = [("point", 0, False), ("point", top, False)]
    for _ in range(rng.randint(0, 5)):
        tag = rng.choice(["point", "sphere:1", "sphere:2", "rp:1", "rp:2", "rp:3", "torus2"])
        space = parse_space(tag)
        if space_dim(space) > top:
            continue
        index = rng.randint(0, top - space_dim(space))
        twistable = index > 0 and admits_nontrivial_character(space)
        crits.append((tag, index, twistable and rng.random() < 0.5))
    rng.shuffle(crits)
    return {
        "format": 1,
        "ambient": ambient,
        "criticals": [
            {"space": t, "index": k, "negative_character": "twisted" if tw else "orientable"}
            for t, k, tw in crits
        ],
    }


def page_in(data, naive):
    """The E2 page, or with ``naive`` the page with every character trivial."""
    if not naive:
        return e2_page(data)
    return tuple(thom_pair_homology(BundleDescriptor(c.space, c.index)) for c in data.criticals)


def test_e2_page_poincare_sums_to_local_mb():
    rng = Random(61)
    documents = [rp5_data()]
    documents += [
        parse_document(json.dumps(random_catalog_document(rng))).morse_bott()
        for _ in range(200)
    ]
    for data in documents:
        ambient = data.ambient_homology()
        for mode in MODES:
            naive = mode == "untwisted"
            page = page_in(data, naive)
            total = IntPoly()
            for profile in page:
                total = total + profile.poincare_polynomial()
            assert mb_polynomial(data, mode) == total
            report = e2_consistency(data, naive=naive)
            assert report.total_free_rank == sum(map(total_free_rank, page))
            assert report.euler_sum == sum(map(euler_characteristic, page))
            assert report.ambient_rank == total_free_rank(ambient)
            assert report.ambient_euler == euler_characteristic(ambient)
            assert report.rank_bound_ok == (report.total_free_rank >= report.ambient_rank)
            assert report.euler_ok == (report.euler_sum == report.ambient_euler)


def test_e2_consistency_rp5_and_naive():
    report = e2_consistency(rp5_data())
    assert report.total_free_rank == 2
    assert report.ambient_rank == 2
    assert report.rank_bound_ok
    assert report.euler_sum == 0
    assert report.ambient_euler == 0
    assert report.euler_ok

    naive = e2_consistency(rp5_data(), naive=True)
    assert naive.total_free_rank == 4
    assert naive.euler_ok  # twisting never moves Euler sums


def test_e2_consistency_height_sphere():
    data = MorseBottData(
        Sphere(2),
        [CriticalSubmanifold(Point(), 0, TRIV), CriticalSubmanifold(Point(), 2, TRIV)],
    )
    report = e2_consistency(data)
    assert report.total_free_rank == 2 == report.ambient_rank
    assert report.euler_sum == 2 == report.ambient_euler


def test_validation_rejects_explicit_criticals():
    cx = IntegerChainComplex((1,), ())
    with pytest.raises(ValueError):
        CriticalSubmanifold(Explicit(cx), 0, TRIV)
    with pytest.raises(ValueError):
        CriticalSubmanifold(Point(), -1, TRIV)
    with pytest.raises(InadmissibleCharacterError):
        CriticalSubmanifold(Point(), 0, TW)


def test_index_zero_twisted_critical_is_refused_when_built(tmp_path):
    # The character is admissible for the space, but the piece's negative
    # bundle has rank 0 and no orientation to twist, so the piece itself
    # is refused: no audit starts and nothing reaches stdout.
    with pytest.raises(InadmissibleCharacterError):
        CriticalSubmanifold(RealProjective(3), 0, TW)
    doc = {
        "format": 1,
        "ambient": "sphere:6",
        "criticals": [
            {"space": "rp:3", "index": 0, "negative_character": "twisted"},
            {"space": "point", "index": 6, "negative_character": "orientable"},
        ],
    }
    with pytest.raises(InadmissibleCharacterError):
        parse_document(json.dumps(doc))
    path = tmp_path / "twisted-minimum.json"
    path.write_text(json.dumps(doc))
    assert run_cli("audit", str(path)) == (
        3, "", "error: a rank-0 bundle has no orientation to twist\n"
    )


def test_validation_dimension_bound():
    with pytest.raises(ValueError):
        MorseBottData(
            Sphere(2),
            [
                CriticalSubmanifold(Point(), 0, TRIV),
                CriticalSubmanifold(Torus2(), 2, TRIV),  # 2 + 2 > 2
            ],
        )


def test_validation_min_max_required_on_catalog_ambient():
    with pytest.raises(ValueError):
        MorseBottData(Sphere(2), [CriticalSubmanifold(Point(), 0, TRIV)])
    with pytest.raises(ValueError):
        MorseBottData(Sphere(2), [CriticalSubmanifold(Point(), 2, TRIV)])
    # a critical submanifold can realize the top dimension without
    # having top index: the whole space as a single critical level
    MorseBottData(Torus2(), [CriticalSubmanifold(Torus2(), 0, TRIV)])


def test_validation_explicit_ambient_warns_instead_of_failing():
    circle = Explicit(
        IntegerChainComplex((1, 1), (IntegerMatrix.zeros(1, 1),))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # fine: has an index-0 critical
        MorseBottData(circle, [CriticalSubmanifold(Point(), 0, TRIV),
                               CriticalSubmanifold(Point(), 1, TRIV)])
    with pytest.warns(UserWarning):
        MorseBottData(circle, [CriticalSubmanifold(Point(), 1, TRIV)])
    with pytest.warns(UserWarning):
        MorseBottData(circle, [])


def test_monotonicity_lowering_mb_flips_holds():
    perfect = [
        (IntPoly([1, 2, 1]), IntPoly([1, 2, 1])),  # torus
        (IntPoly([1, 0, 1]), IntPoly([1, 0, 1])),  # sphere
        (IntPoly([1, 1, 1, 1, 1, 1]), IntPoly([1, 0, 0, 0, 0, 1])),  # rp5 morse
    ]
    for mb, p in perfect:
        assert check_inequalities(mb, p).holds
        for k in range(len(mb.coeffs)):
            for delta in (1, 2):
                lowered = mb - IntPoly([0] * k + [delta])
                assert not check_inequalities(lowered, p).holds


def test_mb_chi_invariance_holds_even_for_twisted_random_data():
    rng = Random(59)
    spaces = [Point(), Sphere(1), Sphere(2), RealProjective(2), RealProjective(3), Torus2()]
    for _ in range(100):
        ambient = Sphere(6)
        crits = [CriticalSubmanifold(Point(), 0, TRIV)]
        for _ in range(rng.randint(0, 4)):
            space = rng.choice(spaces)
            index = rng.randint(0, 6 - (0 if isinstance(space, Point) else 3))
            twistable = index > 0 and space not in (Point(), Sphere(2))
            char = TW if rng.random() < 0.5 and twistable else TRIV
            crits.append(CriticalSubmanifold(space, index, char))
        crits.append(CriticalSubmanifold(Point(), 6, TRIV))
        data = MorseBottData(ambient, crits)
        assert (
            mb_polynomial(data, "untwisted").evaluate(-1)
            == mb_polynomial(data, "local").evaluate(-1)
        )
        # and the page's Euler sum never depends on the characters either
        assert e2_consistency(data).euler_sum == e2_consistency(data, naive=True).euler_sum


def test_quotient_reconstruction_on_rp5_local():
    data = rp5_data()
    mb = mb_polynomial(data, "local")
    p = data.ambient_poincare()
    v = check_inequalities(mb, p)
    assert v.holds
    assert p + ONE_PLUS_T * v.quotient == mb
    assert divide_by_one_plus_t(mb - p) == v.quotient


def test_memoized_homology_matches_a_fresh_computation():
    pairs = [(Point(), TRIV), (Sphere(1), TW), (Torus2(), TRIV), (Torus2(), TW)]
    pairs += [(Sphere(n), TRIV) for n in range(1, 13)]
    pairs += [(RealProjective(n), c) for n in range(1, 31) for c in (TRIV, TW)]
    for i, (space, character) in enumerate(pairs):
        # each pair as the middle piece, at index 1..3, of an ambient that
        # it fills up to the top dimension
        index = 1 + i % 3
        ambient = RealProjective(index + space_dim(space))
        data = MorseBottData(
            ambient,
            [
                CriticalSubmanifold(Point(), 0, TRIV),
                CriticalSubmanifold(space, index, character),
                CriticalSubmanifold(Point(), index + space_dim(space), TRIV),
            ],
        )
        assert e2_page(data)[1] == homology(catalog_complex(space, character)).shifted(index)
        assert data.ambient_homology() == homology(catalog_complex(ambient))


def test_audit_builds_each_pair_once(monkeypatch):
    builds = Counter()

    def counting(space, character=TRIV):
        builds[space, character] += 1
        return catalog_complex(space, character)

    monkeypatch.setattr(mbaudit.morsebott, "catalog_complex", counting)
    monkeypatch.setattr(mbaudit.bundles, "catalog_complex", counting)
    data = rp5_data()
    # what `mbaudit audit --naive` asks of one document
    mb_polynomial(data)
    data.ambient_poincare()
    e2_page(data)
    e2_consistency(data)
    e2_consistency(data, naive=True)
    assert builds == {
        (Point(), TRIV): 1,
        (RealProjective(3), TRIV): 1,
        (RealProjective(3), TW): 1,
        (RealProjective(5), TRIV): 1,
    }


def test_no_reader_computes_anything_once_built(monkeypatch):
    data = rp5_data()
    called = []

    def recording(name, original):
        def record(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        return record

    for name in ("homology", "catalog_complex", "thom_pair_homology"):
        monkeypatch.setattr(mbaudit.morsebott, name, recording(name, getattr(mbaudit.morsebott, name)))
    for mode in MODES:
        mb_polynomial(data, mode)
    data.ambient_homology()
    data.ambient_poincare()
    assert e2_page(data) is e2_page(data)
    e2_consistency(data)
    e2_consistency(data, naive=True)
    assert called == []


def test_audited_data_still_compares_and_hashes_by_value():
    audited, fresh = rp5_data(), rp5_data()
    mb_polynomial(audited, "local")
    e2_consistency(audited, naive=True)
    assert audited == fresh
    assert hash(audited) == hash(fresh)
    assert repr(audited) == repr(fresh)


def test_inadmissible_character_raises_on_every_call():
    data = MorseBottData(
        Sphere(6),
        [CriticalSubmanifold(Point(), 0, TRIV), CriticalSubmanifold(Point(), 6, TRIV)],
    )
    for _ in range(2):
        with pytest.raises(InadmissibleCharacterError):
            CriticalSubmanifold(RealProjective(3), 0, TW)
    assert e2_consistency(data).ambient_euler == 2


def test_e2_consistency_equals_the_page_sums_on_every_fixture():
    from mbaudit import load_document
    from mbaudit.morsebott import MODES

    for name in FIXTURE_NAMES:
        for mode in MODES:
            # a fresh document per mode, audited first in that mode; the
            # report reads the MB built with the data, whatever came first
            data = load_document(FIXTURES / f"{name}.json").morse_bott()
            mb_polynomial(data, mode)
            for naive in (False, True):
                page = page_in(data, naive)
                report = e2_consistency(data, naive=naive)
                assert report.total_free_rank == sum(map(total_free_rank, page))
                assert report.euler_sum == sum(map(euler_characteristic, page))
                ambient = data.ambient_homology()
                assert report.ambient_rank == total_free_rank(ambient)
                assert report.ambient_euler == euler_characteristic(ambient)


def test_audit_builds_one_negative_bundle_per_piece(monkeypatch):
    built = []
    original = BundleDescriptor.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BundleDescriptor, "__init__", counting)
    code, _, _ = run_cli("audit", "rp5-counterexample", "--naive")
    assert code == 1
    # each piece builds its bundle to validate itself; the E2 page reuses it
    assert built == [
        (Point(), 0, TRIV),
        (RealProjective(3), 1, TW),
        (Point(), 5, TRIV),
    ]
