"""Exact polynomials in one variable t with integer coefficients.

A polynomial is stored densely: ``coeffs[k]`` is the coefficient of
``t^k``, the top entry is nonzero, and the zero polynomial is the empty
tuple.  All arithmetic is plain Python integer arithmetic, so nothing
ever overflows or rounds.

The one nonstandard primitive is :func:`divide_by_one_plus_t`, synthetic
division at the root -1.  A polynomial is divisible by ``1 + t`` exactly
when it vanishes at -1, and the nonnegativity of the quotient is what
:mod:`mbaudit.morsebott` ultimately certifies.
"""

from __future__ import annotations

from typing import Iterable

from ._value import Value


class NotDivisibleError(ValueError):
    """Division by 1 + t left a nonzero remainder."""


class IntPoly(Value):
    """An integer polynomial in t.

    >>> p = IntPoly([1, 1, 0, 0, 1, 1])
    >>> str(p)
    '1 + t + t^4 + t^5'
    >>> p.evaluate(-1)
    0
    >>> str(IntPoly([0, 1, -1, 1]))
    't - t^2 + t^3'
    >>> IntPoly([1, 0, 0]) == IntPoly([1])
    True
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        if not {int}.issuperset(map(type, cs)):  # one C-level pass; type(True) is bool
            bad = next(c for c in cs if type(c) is not int)
            raise TypeError(f"integer coefficient expected, got {bad!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self) -> IntPoly:
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        """Product, by convolution of coefficients.

        >>> str(IntPoly([1, 1]) * IntPoly([0, 1, -1, 1]))
        't + t^4'
        """
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def evaluate(self, x: int) -> int:
        """Value at an integer point, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "t" if k == 1 else f"t^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = IntPoly()
ONE_PLUS_T = IntPoly([1, 1])


def divide_by_one_plus_t(p: IntPoly) -> IntPoly:
    """The unique q with p = (1 + t) * q, if it exists.

    Synthetic division at the root -1: q_k = p_k - q_{k-1}.  Divisibility
    is equivalent to p(-1) = 0; otherwise :class:`NotDivisibleError` is
    raised and the remainder p(-1) is left in the message.

    >>> str(divide_by_one_plus_t(IntPoly([0, 1, 1, 1, 1])))
    't + t^3'
    >>> divide_by_one_plus_t(IntPoly([1, 0, 1]))
    Traceback (most recent call last):
        ...
    mbaudit.polyalg.NotDivisibleError: not divisible by 1 + t (remainder 2)
    """
    if p.is_zero():
        return ZERO
    q: list[int] = []
    prev = 0
    for c in p.coeffs:
        prev = c - prev
        q.append(prev)
    # the last value is the remainder times the sign: prev = (-1)^deg * p(-1)
    if prev:
        remainder = prev if len(q) % 2 else -prev
        raise NotDivisibleError(f"not divisible by 1 + t (remainder {remainder})")
    return IntPoly(q[:-1])
