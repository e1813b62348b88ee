"""Disc/sphere-bundle pair homology for bundles over catalog spaces.

For a rank-r bundle E over B, the homology of the pair (disc bundle,
sphere bundle) is the homology of B shifted up r degrees, computed with
coefficients twisted by the bundle's orientation character.  For an
orientable bundle this is the familiar shift isomorphism; for a
nonorientable one the twist is what makes the answer come out right
(rank-1 sanity checks: the Moebius pair over the circle matches reduced
RP^2, the tautological pair over RP^3 matches reduced RP^4).
"""

from __future__ import annotations

from ._value import Value
from .homology import (
    HomologyProfile,
    InadmissibleCharacterError,
    OrientationCharacter,
    Space,
    catalog_complex,
    homology,
    require_admissible,
)


class BundleDescriptor(Value):
    base: Space
    rank: int
    character: OrientationCharacter

    def __init__(
        self, base: Space, rank: int, character: OrientationCharacter = OrientationCharacter.TRIVIAL
    ) -> None:
        if rank < 0:
            raise ValueError("bundle rank must be nonnegative")
        require_admissible(base, character)
        if rank == 0 and character is OrientationCharacter.NONTRIVIAL:
            raise InadmissibleCharacterError(
                "a rank-0 bundle has no orientation to twist"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "character", character)


def thom_pair_homology(
    bundle: BundleDescriptor, base: HomologyProfile | None = None
) -> HomologyProfile:
    """H_*(disc bundle, sphere bundle; Z).

    ``base`` is the homology of the base with coefficients twisted by the
    bundle's character, for a caller that already has it; it is computed
    when omitted.
    """
    if base is None:
        base = homology(catalog_complex(bundle.base, bundle.character))
    return base.shifted(bundle.rank)


class ThomIsoReport(Value):
    """Whether the pair homology equals the plain (untwisted) shift."""

    holds: bool
    pair: HomologyProfile
    shifted_base: HomologyProfile


def thom_iso_check(bundle: BundleDescriptor) -> ThomIsoReport:
    pair = thom_pair_homology(bundle)
    plain = thom_pair_homology(BundleDescriptor(bundle.base, bundle.rank))
    return ThomIsoReport(pair == plain, pair, plain)
