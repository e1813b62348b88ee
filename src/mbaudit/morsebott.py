"""Morse-Bott polynomial audits and the associated spectral-page ledger.

Given an ambient space and its critical submanifolds in filtration
order, the counting polynomial is

    MB(t) = sum over criticals of  t^index * P(critical)

where P is the Poincare polynomial of the critical submanifold, taken
with plain Z coefficients in ``untwisted`` mode and with coefficients
twisted by the recorded negative-bundle orientation character in
``local`` mode.  The audit asks whether MB - P(ambient) is (1 + t)
times a polynomial with nonnegative coefficients, and reports exactly
how that fails when it does.

The quotient comes from synthetic division and is checked by multiplying
back, (1 + t) * Q == MB - P; the check is kept even in production.

Each :class:`MorseBottData` computes the homology of a (space,
character) pair, and the pair homology of a negative bundle, at most
once, and keeps them for the audits that follow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

from .bundles import BundleDescriptor, thom_pair_homology
from .homology import (
    Explicit,
    HomologyProfile,
    OrientationCharacter,
    Space,
    catalog_complex,
    homology,
    require_admissible,
    space_dim,
    space_tag,
)
from .polyalg import ONE_PLUS_T, IntPoly, divide_by_one_plus_t

MODES = ("untwisted", "local")


@dataclass(frozen=True)
class CriticalSubmanifold:
    """A connected catalog space sitting at a given index, together with
    the orientation character of its negative normal bundle."""

    space: Space
    index: int
    negative_character: OrientationCharacter = OrientationCharacter.TRIVIAL

    def __post_init__(self) -> None:
        if isinstance(self.space, Explicit):
            raise ValueError("critical submanifolds must be connected catalog spaces")
        if self.index < 0:
            raise ValueError("critical index must be nonnegative")
        require_admissible(self.space, self.negative_character)


@dataclass(frozen=True, init=False)
class MorseBottData:
    """Ambient space plus critical submanifolds in filtration order.

    Homology profiles are memoized per object in tables that are not
    dataclass fields, so equality, hashing and repr see only the data.
    """

    ambient: Space
    criticals: tuple[CriticalSubmanifold, ...]

    def __init__(self, ambient: Space, criticals: Iterable[CriticalSubmanifold]) -> None:
        crits = tuple(criticals)
        ambient_dim = space_dim(ambient)
        if ambient_dim is not None:
            for c in crits:
                cdim = space_dim(c.space)
                if c.index + cdim > ambient_dim:
                    raise ValueError(
                        f"critical {space_tag(c.space)} at index {c.index} does not fit in "
                        f"a {ambient_dim}-dimensional ambient space"
                    )
            has_min = any(c.index == 0 for c in crits)
            has_max = any(c.index + space_dim(c.space) == ambient_dim for c in crits)
            if not (has_min and has_max):
                raise ValueError(
                    "a closed ambient space needs a critical submanifold of index 0 "
                    "and one realizing the top dimension"
                )
        elif not crits:
            warnings.warn("no critical submanifolds given", stacklevel=2)
        else:
            if not any(c.index == 0 for c in crits):
                warnings.warn(
                    "no index-0 critical submanifold; minimum missing?", stacklevel=2
                )
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "criticals", crits)
        object.__setattr__(self, "_profiles", {})
        object.__setattr__(self, "_pairs", {})

    def _homology(
        self,
        space: Space,
        character: OrientationCharacter = OrientationCharacter.TRIVIAL,
    ) -> HomologyProfile:
        """Homology of a space with plain or twisted coefficients."""
        key = (space, character)
        profile = self._profiles.get(key)
        if profile is None:
            profile = homology(catalog_complex(space, character))
            self._profiles[key] = profile
        return profile

    def _pair_homology(self, bundle: BundleDescriptor) -> HomologyProfile:
        """Disc/sphere pair homology of a negative bundle."""
        pair = self._pairs.get(bundle)
        if pair is None:
            pair = thom_pair_homology(
                bundle, self._homology(bundle.base, bundle.character)
            )
            self._pairs[bundle] = pair
        return pair

    def ambient_homology(self) -> HomologyProfile:
        return self._homology(self.ambient)

    def ambient_poincare(self) -> IntPoly:
        return self.ambient_homology().poincare_polynomial()


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def mb_polynomial(data: MorseBottData, mode: str = "untwisted") -> IntPoly:
    """The counting polynomial of the critical submanifolds."""
    _check_mode(mode)
    coeffs: list[int] = []
    for crit in data.criticals:
        character = (
            crit.negative_character if mode == "local" else OrientationCharacter.TRIVIAL
        )
        groups = data._homology(crit.space, character).groups
        top = crit.index + len(groups)
        if len(coeffs) < top:
            coeffs.extend([0] * (top - len(coeffs)))
        for k, group in enumerate(groups, start=crit.index):
            coeffs[k] += group.free_rank
    return IntPoly(coeffs)


class InequalityVerdict:
    """Base for the three audit outcomes."""

    holds = False


@dataclass(frozen=True)
class Holds(InequalityVerdict):
    quotient: IntPoly

    holds = True


@dataclass(frozen=True)
class FailsNotDivisible(InequalityVerdict):
    """mb - p is not divisible by 1 + t; chi_gap is its value at -1,
    the Euler-characteristic mismatch."""

    chi_gap: int


@dataclass(frozen=True)
class FailsNegativeCoefficient(InequalityVerdict):
    """The quotient exists but dips negative; degree is the lowest
    offending power of t."""

    degree: int
    quotient: IntPoly


def check_inequalities(mb: IntPoly, p: IntPoly) -> InequalityVerdict:
    """Audit mb against p: is mb - p = (1 + t) * Q with Q >= 0?"""
    diff = mb - p
    gap = diff.evaluate(-1)
    if gap != 0:
        return FailsNotDivisible(gap)
    quotient = divide_by_one_plus_t(diff)
    if ONE_PLUS_T * quotient != diff:
        raise AssertionError(
            f"(1 + t) * {quotient.coeffs} does not reconstruct {diff.coeffs}"
        )
    for k, c in enumerate(quotient.coeffs):
        if c < 0:
            return FailsNegativeCoefficient(k, quotient)
    return Holds(quotient)


def e2_page(data: MorseBottData, naive: bool = False) -> tuple[HomologyProfile, ...]:
    """Pair homology of each negative bundle, in filtration order.

    With ``naive=True`` every orientation character is forced trivial,
    which reproduces the bookkeeping error the local characters fix.
    """
    return tuple(
        data._pair_homology(_negative_bundle(crit, naive)) for crit in data.criticals
    )


def _negative_bundle(crit: CriticalSubmanifold, naive: bool) -> BundleDescriptor:
    """The negative bundle of a piece; raises for a twisted rank-0 bundle."""
    character = OrientationCharacter.TRIVIAL if naive else crit.negative_character
    return BundleDescriptor(crit.space, crit.index, character)


@dataclass(frozen=True)
class E2Report:
    total_free_rank: int
    ambient_rank: int
    rank_bound_ok: bool
    euler_sum: int
    ambient_euler: int
    euler_ok: bool


def e2_consistency(data: MorseBottData, naive: bool = False) -> E2Report:
    """Rank and Euler bookkeeping for the page against the ambient space.

    A page entry is its base's profile shifted up by the index, so its
    free rank is the base's and its Euler term is (-1)^index * chi(base).
    """
    total_free = euler_sum = 0
    for crit in data.criticals:
        bundle = _negative_bundle(crit, naive)
        base = data._homology(bundle.base, bundle.character)
        total_free += base.total_free_rank()
        euler_sum += (-1) ** bundle.rank * base.euler_characteristic()
    ambient = data.ambient_homology()
    ambient_rank = ambient.total_free_rank()
    ambient_euler = ambient.euler_characteristic()  # Euler-Poincare
    return E2Report(
        total_free_rank=total_free,
        ambient_rank=ambient_rank,
        rank_bound_ok=total_free >= ambient_rank,
        euler_sum=euler_sum,
        ambient_euler=ambient_euler,
        euler_ok=euler_sum == ambient_euler,
    )
