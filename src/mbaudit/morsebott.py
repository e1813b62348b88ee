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

MB is the sum of the Poincare polynomials of the E2 page, the pair
homology of each piece's negative bundle (the naive page, every character
trivial, in ``untwisted`` mode), and the page's rank and Euler report is
read off MB and P.  A :class:`MorseBottData` computes the ambient
homology, MB in both modes and the E2 page once, when it is built, from
the homology of each (space, character) pair it needs, each computed
once.  Every reader returns what was built, so no value changes after
it is built.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from ._value import Value
from .bundles import BundleDescriptor, thom_pair_homology
from .homology import (
    Explicit,
    HomologyProfile,
    OrientationCharacter,
    Space,
    catalog_complex,
    homology,
    space_dim,
    space_tag,
)
from .polyalg import ONE_PLUS_T, IntPoly, divide_by_one_plus_t

MODES = ("untwisted", "local")


class CriticalSubmanifold(Value):
    """A connected catalog space sitting at a given index, together with
    the orientation character of its negative normal bundle, which is
    built to validate the piece (a twisted piece at index 0 is refused)
    and kept, in an attribute that is not a field, for the E2 page."""

    space: Space
    index: int
    negative_character: OrientationCharacter

    def __init__(
        self, space: Space, index: int,
        negative_character: OrientationCharacter = OrientationCharacter.TRIVIAL,
    ) -> None:
        if isinstance(space, Explicit):
            raise ValueError("critical submanifolds must be connected catalog spaces")
        if index < 0:
            raise ValueError("critical index must be nonnegative")
        bundle = BundleDescriptor(space, index, negative_character)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "negative_character", negative_character)
        object.__setattr__(self, "_negative_bundle", bundle)


class MorseBottData(Value):
    """Ambient space plus critical submanifolds in filtration order.

    The ambient homology, MB in each mode and the E2 page are computed
    when the data is built and kept in attributes that are not fields,
    so equality, hashing and repr see only the data, and no reader
    computes anything.
    """

    ambient: Space
    criticals: tuple[CriticalSubmanifold, ...]

    def __init__(self, ambient: Space, criticals: Iterable[CriticalSubmanifold]) -> None:
        crits = tuple(criticals)
        has_min = any(c.index == 0 for c in crits)
        ambient_dim = space_dim(ambient)
        if ambient_dim is not None:
            for c in crits:
                cdim = space_dim(c.space)
                if c.index + cdim > ambient_dim:
                    raise ValueError(
                        f"critical {space_tag(c.space)} at index {c.index} does not fit in "
                        f"a {ambient_dim}-dimensional ambient space"
                    )
            has_max = any(c.index + space_dim(c.space) == ambient_dim for c in crits)
            if not (has_min and has_max):
                raise ValueError(
                    "a closed ambient space needs a critical submanifold of index 0 "
                    "and one realizing the top dimension"
                )
        elif not crits:
            warnings.warn("no critical submanifolds given", stacklevel=2)
        elif not has_min:
            warnings.warn("no index-0 critical submanifold; minimum missing?", stacklevel=2)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "criticals", crits)
        trivial = OrientationCharacter.TRIVIAL
        pairs = [(ambient, trivial)]
        pairs += [(c.space, ch) for c in crits for ch in (trivial, c.negative_character)]
        profiles = {pair: homology(catalog_complex(*pair)) for pair in dict.fromkeys(pairs)}
        mb: dict[str, list[int]] = {mode: [] for mode in MODES}
        page = []
        for c in crits:  # one pass: each piece's untwisted and local profile, and its page term
            for mode, character in zip(MODES, (trivial, c.negative_character)):
                coeffs = mb[mode]
                groups = profiles[c.space, character].groups
                coeffs.extend([0] * (c.index + len(groups) - len(coeffs)))
                for k, group in enumerate(groups, start=c.index):
                    coeffs[k] += group.free_rank
            page.append(thom_pair_homology(c._negative_bundle, profiles[c.space, c.negative_character]))
        object.__setattr__(self, "_ambient_homology", profiles[ambient, trivial])
        object.__setattr__(self, "_mb", {mode: IntPoly(coeffs) for mode, coeffs in mb.items()})
        object.__setattr__(self, "_page", tuple(page))

    def ambient_homology(self) -> HomologyProfile:
        return self._ambient_homology

    def ambient_poincare(self) -> IntPoly:
        return self.ambient_homology().poincare_polynomial()


def mb_polynomial(data: MorseBottData, mode: str = "untwisted") -> IntPoly:
    """The counting polynomial: the sum of the Poincare polynomials of the
    E2 page, taken over the naive page in ``untwisted`` mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return data._mb[mode]


class InequalityVerdict:
    """Base for the three audit outcomes."""

    holds = False


class Holds(InequalityVerdict, Value):
    quotient: IntPoly

    holds = True


class FailsNotDivisible(InequalityVerdict, Value):
    """mb - p is not divisible by 1 + t; chi_gap is its value at -1,
    the Euler-characteristic mismatch."""

    chi_gap: int


class FailsNegativeCoefficient(InequalityVerdict, Value):
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


def e2_page(data: MorseBottData) -> tuple[HomologyProfile, ...]:
    """Pair homology of each negative bundle, in filtration order."""
    return data._page


class E2Report(Value):
    total_free_rank: int
    ambient_rank: int
    rank_bound_ok: bool
    euler_sum: int
    ambient_euler: int
    euler_ok: bool


def e2_consistency(data: MorseBottData, naive: bool = False) -> E2Report:
    """Rank and Euler bookkeeping for the page against the ambient space.

    MB is the page's Poincare polynomial, so the page's total free rank
    is MB(1) and its Euler sum MB(-1); the ambient's are P(1) and P(-1).
    """
    mb = mb_polynomial(data, "untwisted" if naive else "local")
    p = data.ambient_poincare()
    total_free, euler_sum = mb.evaluate(1), mb.evaluate(-1)
    ambient_rank, ambient_euler = p.evaluate(1), p.evaluate(-1)
    return E2Report(
        total_free_rank=total_free,
        ambient_rank=ambient_rank,
        rank_bound_ok=total_free >= ambient_rank,
        euler_sum=euler_sum,
        ambient_euler=ambient_euler,
        euler_ok=euler_sum == ambient_euler,
    )
