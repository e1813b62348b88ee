import doctest
from enum import IntEnum
from random import Random

import pytest

import mbaudit.polyalg
from mbaudit.polyalg import (
    ONE_PLUS_T,
    IntPoly,
    NotDivisibleError,
    divide_by_one_plus_t,
)

from helpers import random_poly


def test_doctests():
    failures, _ = doctest.testmod(mbaudit.polyalg)
    assert failures == 0


def test_normalization():
    assert IntPoly([1, 0, 0]) == IntPoly([1])
    assert IntPoly([0, 0]) == IntPoly()
    assert IntPoly().is_zero()
    assert not IntPoly([0, 1]).is_zero()


def test_add_sub():
    a = IntPoly([1, 2, 3])
    b = IntPoly([0, -2, -3, 4])
    assert a + b == b + a == IntPoly([1, 0, 0, 4])
    assert (a + b) - b == a
    assert a - a == IntPoly()


def test_mul_known_product():
    # (1 + t) * (t - t^2 + t^3) = t + t^4
    assert ONE_PLUS_T * IntPoly([0, 1, -1, 1]) == IntPoly([0, 1, 0, 0, 1])


def test_mul_against_naive_convolution():
    rng = Random(7)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        expect = {}
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                expect[i + j] = expect.get(i + j, 0) + ca * cb
        width = len(a.coeffs) + len(b.coeffs)
        assert a * b == IntPoly([expect.get(k, 0) for k in range(width)])


def test_evaluate_is_a_ring_homomorphism():
    rng = Random(11)
    for _ in range(300):
        a, b = random_poly(rng), random_poly(rng)
        for x in (-2, -1, 0, 1, 2):
            assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
            assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_division_examples():
    # (1+t+t^4+t^5) - (1+t^5) = t + t^4 = (1+t)(t - t^2 + t^3)
    assert divide_by_one_plus_t(IntPoly([0, 1, 0, 0, 1])) == IntPoly([0, 1, -1, 1])
    assert divide_by_one_plus_t(IntPoly([1, 1])) == IntPoly([1])
    assert divide_by_one_plus_t(IntPoly()) == IntPoly()
    assert divide_by_one_plus_t(IntPoly([0, 1, 1, 1, 1])) == IntPoly([0, 1, 0, 1])


def test_division_rejects_exactly_when_value_at_minus_one_is_nonzero():
    rng = Random(13)
    degrees = set()
    for _ in range(500):
        p = random_poly(rng)
        remainder = p.evaluate(-1)
        if remainder == 0:
            q = divide_by_one_plus_t(p)
            assert ONE_PLUS_T * q == p
        else:
            # the message carries p(-1) itself, whatever the parity of the degree
            with pytest.raises(NotDivisibleError) as exc:
                divide_by_one_plus_t(p)
            assert str(exc.value).endswith(f"(remainder {remainder})")
            degrees.add(len(p.coeffs) % 2)
    assert degrees == {0, 1}  # refusals of odd and of even degree both drawn


def test_division_round_trip():
    rng = Random(17)
    for _ in range(500):
        q = random_poly(rng)
        assert divide_by_one_plus_t(ONE_PLUS_T * q) == q


def test_rendering():
    assert str(IntPoly()) == "0"
    assert str(IntPoly([1, 1, 0, 0, 1, 1])) == "1 + t + t^4 + t^5"
    assert str(IntPoly([0, 1, -1, 1])) == "t - t^2 + t^3"
    assert str(IntPoly([1, 2, 1])) == "1 + 2*t + t^2"
    assert str(IntPoly([-1, 0, -3])) == "-1 - 3*t^2"
    assert str(IntPoly([0, 0, 0, 7])) == "7*t^3"
    assert str(IntPoly([2])) == "2"


def test_coefficients_are_exact_big_integers():
    big = 10**40
    p = IntPoly([big, big])
    assert (p * p).coeffs[1] == 2 * big * big


def test_coefficients_are_exactly_int():
    class Sign(IntEnum):
        PLUS = 1

    for bad in (True, 1.0, Sign.PLUS):
        with pytest.raises(TypeError) as exc:
            IntPoly([0, bad, 2.5])
        assert str(exc.value) == f"integer coefficient expected, got {bad!r}"
