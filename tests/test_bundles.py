from random import Random

import pytest

from mbaudit import (
    AbelianGroup,
    BundleDescriptor,
    HomologyProfile,
    InadmissibleCharacterError,
    IntegerChainComplex,
    IntegerMatrix,
    OrientationCharacter,
    Point,
    RealProjective,
    Sphere,
    Torus2,
    catalog_complex,
    homology,
    thom_iso_check,
    thom_pair_homology,
)

from helpers import euler_characteristic, total_free_rank

TRIV = OrientationCharacter.TRIVIAL
TW = OrientationCharacter.NONTRIVIAL


def one_cell_complex(degrees):
    """One cell per degree 0..top with the given boundary degrees."""
    ranks = (1,) * (len(degrees) + 1)
    bounds = tuple(IntegerMatrix(1, 1, (d,)) for d in degrees)
    return IntegerChainComplex(ranks, bounds)


def reduced(profile):
    """Drop one Z from degree 0 (for comparing against quotient pairs)."""
    g0 = profile.group(0)
    assert g0.free_rank >= 1
    groups = [AbelianGroup(g0.free_rank - 1, g0.torsion)]
    groups += [profile.group(k) for k in range(1, profile.top_degree + 1)]
    return HomologyProfile(groups)


def test_moebius_pair_matches_reduced_rp2_oracle():
    # The disc/sphere pair of the Moebius band collapses to RP^2; the
    # one-cell-per-degree model of RP^2 has boundary degrees (0, 2).
    rp2 = homology(one_cell_complex([0, 2]))
    pair = thom_pair_homology(BundleDescriptor(Sphere(1), 1, TW))
    assert pair == reduced(rp2)
    assert pair.group(1) == AbelianGroup(0, (2,))
    assert pair.top_degree == 1


def test_tautological_pair_over_rp3_matches_reduced_rp4_oracle():
    rp4 = homology(one_cell_complex([0, 2, 0, 2]))
    pair = thom_pair_homology(BundleDescriptor(RealProjective(3), 1, TW))
    assert pair == reduced(rp4)
    assert pair.group(1) == AbelianGroup(0, (2,))
    assert pair.group(3) == AbelianGroup(0, (2,))


def test_trivial_rank5_over_point():
    pair = thom_pair_homology(BundleDescriptor(Point(), 5, TRIV))
    assert pair.group(5) == AbelianGroup(1)
    assert total_free_rank(pair) == 1
    assert pair.top_degree == 5


def test_rank_zero_is_identity():
    for space in (Point(), Sphere(3), Torus2(), RealProjective(4)):
        pair = thom_pair_homology(BundleDescriptor(space, 0, TRIV))
        assert pair == homology(catalog_complex(space))


def test_trivial_character_is_plain_shift():
    rng = Random(41)
    spaces = [Point(), Sphere(1), Sphere(3), RealProjective(2), RealProjective(5), Torus2()]
    for _ in range(60):
        space = rng.choice(spaces)
        rank = rng.randint(0, 4)
        pair = thom_pair_homology(BundleDescriptor(space, rank, TRIV))
        assert pair == homology(catalog_complex(space)).shifted(rank)
        assert thom_iso_check(BundleDescriptor(space, rank, TRIV)).holds


def test_euler_characteristic_sign_rule():
    spaces = [Sphere(1), RealProjective(2), RealProjective(3), Torus2()]
    for space in spaces:
        for char in (TRIV, TW):
            for rank in range(1, 4):
                pair = thom_pair_homology(BundleDescriptor(space, rank, char))
                base = homology(catalog_complex(space))
                assert (
                    euler_characteristic(pair)
                    == (-1) ** rank * euler_characteristic(base)
                )


def test_thom_iso_check_reports():
    report = thom_iso_check(BundleDescriptor(Sphere(1), 1, TW))
    assert not report.holds
    assert report.pair != report.shifted_base
    assert report.shifted_base == homology(catalog_complex(Sphere(1))).shifted(1)

    ok = thom_iso_check(BundleDescriptor(Torus2(), 2, TRIV))
    assert ok.holds
    assert ok.pair == ok.shifted_base


def test_full_normal_bundle_orientable_but_pair_still_twisted():
    # The quantitative point behind the rp5 fixture: an orientable total
    # normal bundle does not make the pair homology the plain shift.
    tw = thom_pair_homology(BundleDescriptor(RealProjective(3), 1, TW))
    plain = homology(catalog_complex(RealProjective(3))).shifted(1)
    assert total_free_rank(tw) == 0
    assert total_free_rank(plain) == 2


def test_bundle_validation():
    with pytest.raises(ValueError):
        BundleDescriptor(Sphere(1), -1, TRIV)
    with pytest.raises(InadmissibleCharacterError):
        BundleDescriptor(Sphere(2), 1, TW)
    with pytest.raises(InadmissibleCharacterError):
        BundleDescriptor(Sphere(1), 0, TW)
