"""Finite Morse-type complexes with labeled generators, and stabilization.

A :class:`MorseData` is a free complex presented the way gradient
counting produces it: a list of (label, index) generators and one
integer matrix per consecutive index pair, each entry the signed count
of trajectories from a single column generator down to a single row
generator.  Index gaps are allowed; absent matrices are zero.

Stabilization models crossing with a rank-r disc fibre: every index goes
up by r and every matrix entry picks up a sign recording whether the
fibre orientation is preserved along that trajectory.  The sign
bookkeeping is the :class:`SignTwist`; an inconsistent assignment is
detectable, because the twisted differential stops squaring to zero.
With no twist, stabilization is a pure shift.  Shapes and d∘d = 0 are
checked once, by the :class:`IntegerChainComplex` a MorseData builds.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ._value import Value
from .homology import (
    ChainComplexError,
    HomologyProfile,
    IntegerChainComplex,
    IntegerMatrix,
    homology,
)


class InconsistentTwistError(Exception):
    """A sign twist broke d∘d = 0."""


def _complex_from_counts(
    counts: list[int], differentials: Mapping[int, IntegerMatrix]
) -> IntegerChainComplex:
    top = len(counts) - 1
    bounds = []
    for k in range(1, top + 1):
        d = differentials.get(k)
        bounds.append(d if d is not None else IntegerMatrix.zeros(counts[k - 1], counts[k]))
    return IntegerChainComplex(tuple(counts), tuple(bounds))


class MorseData(Value):
    """Labeled generators plus differentials keyed by source index.

    The matrix at key k maps index-k generators to index-(k-1)
    generators; its columns follow the order in which index-k generators
    appear in ``generators``, rows likewise for index k-1.

    The chain complex built (and checked for shapes and d∘d = 0) on
    construction is kept in an attribute that is not a field, so
    equality, hashing and repr see only the data.
    """

    generators: tuple[tuple[str, int], ...]
    differentials: tuple[tuple[int, IntegerMatrix], ...]

    def __init__(
        self,
        generators: Iterable[tuple[str, int]],
        differentials: Mapping[int, IntegerMatrix] | None = None,
    ) -> None:
        gens = tuple((str(label), index) for label, index in generators)
        if not gens:
            raise ValueError("at least one generator is required")
        labels = [label for label, _ in gens]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be unique")
        if any(not isinstance(i, int) or isinstance(i, bool) or i < 0 for _, i in gens):
            raise ValueError("generator indices must be nonnegative integers")
        diffs = dict(differentials or {})
        top = max(i for _, i in gens)
        counts = [0] * (top + 1)
        for _, i in gens:
            counts[i] += 1
        for k in diffs:
            if type(k) is not int or k < 1 or k > top:
                raise ValueError(f"differential key {k} out of range 1..{top}")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(
            self, "differentials", tuple(sorted(diffs.items()))
        )
        # checks each shape and d∘d = 0 (raises ChainComplexError if not)
        object.__setattr__(self, "_complex", _complex_from_counts(counts, diffs))

    @property
    def max_index(self) -> int:
        return self._complex.top_degree

    def to_chain_complex(self) -> IntegerChainComplex:
        return self._complex


class SignTwist(Value):
    """One ±1 matrix per differential, applied entrywise."""

    signs: tuple[tuple[int, IntegerMatrix], ...]

    def __init__(self, signs: Mapping[int, IntegerMatrix]) -> None:
        ss = dict(signs)
        for k, s in ss.items():
            if any(e not in (1, -1) for e in s.entries):
                raise ValueError(f"twist {k} has entries other than +1/-1")
        object.__setattr__(self, "signs", tuple(sorted(ss.items())))


def morse_homology(data: MorseData) -> HomologyProfile:
    return homology(data.to_chain_complex())


def stabilize(data: MorseData, rank: int, twist: SignTwist | None = None) -> MorseData:
    """Shift all indices up by ``rank`` and twist the differentials.

    Without a twist this is a pure shift: the differentials are reused
    as they are.  A twist must carry exactly one sign matrix per
    differential of ``data``, keyed by the (unshifted) source index,
    with matching shape.  If the twisted differentials violate d∘d = 0
    the sign assignment was inconsistent and
    :class:`InconsistentTwistError` is raised.
    """
    if rank < 0:
        raise ValueError("stabilization rank must be nonnegative")
    diffs = dict(data.differentials)
    if twist is not None:
        signs = dict(twist.signs)
        if set(signs) != set(diffs):
            raise ValueError(
                f"twist keys {sorted(signs)} do not match differential keys {sorted(diffs)}"
            )
        for k, d in diffs.items():
            s = signs[k]
            if (s.rows, s.cols) != (d.rows, d.cols):
                raise ValueError(
                    f"twist {k} must be {d.rows}x{d.cols}, got {s.rows}x{s.cols}"
                )
            diffs[k] = IntegerMatrix(
                d.rows, d.cols, [a * b for a, b in zip(d.entries, s.entries)]
            )
    generators = tuple((label, index + rank) for label, index in data.generators)
    try:
        return MorseData(generators, {k + rank: d for k, d in diffs.items()})
    except ChainComplexError as exc:
        raise InconsistentTwistError(f"twisted differential does not square to zero: {exc}") from exc
