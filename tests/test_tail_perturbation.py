"""Tail perturbation: certified coefficients do not depend on the unknown tail.

A series known mod t^N stands for every series with those N coefficients.
Each operation below is recomputed from inputs whose orders >= N are filled
with seeded random values at a larger precision; every coefficient the
original result certifies must come out unchanged.  No oracle is involved,
only the operation itself on two inputs that agree mod t^N.

The certified windows: ``mod_q_reduce`` and ``weierstrass_divide`` with
``exact`` set certify their remainder, and ``strict_prepare`` certifies q
and its certificate exponent.  Over m^e = 0 the quotient h and the unit u
are certified on their first N - d*e coefficients: the tail t^N*g shifts
them by q'*g*t^(N - d*e), where q*q' = t^(d*e).  That is d*(e-1) orders
short of the precision N - d they carry (see ROADMAP item 6), so these
tests check the N - d*e window.
"""

import random

import pytest

from arclift import (
    MonicPoly,
    PrimeFieldRing,
    TruncatedSeries,
    mod_q_reduce,
    strict_prepare,
    weierstrass_divide,
)

from _helpers import acceptance_rings, random_nondegenerate

EXTRA = 8  # orders of random tail beyond N


def _with_tail(x, rng, extra=EXTRA):
    """x's N known coefficients followed by ``extra`` random ones."""
    ring = x.ring
    tail = [ring.random_element(rng) for _ in range(extra)]
    return TruncatedSeries(ring, list(x.coeffs) + tail, x.precision + extra)


def _strict_modulus(ring, rng):
    """A strict monic q of degree d <= 4 and a precision N >= d*(e+1)."""
    e = ring.nilpotency_exponent()
    d = rng.randrange(5)
    q = MonicPoly(ring, [ring.random_nilpotent(rng) for _ in range(d)])
    return q, d * (e + 1) + 1 + rng.randrange(3)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_exact_reduction_ignores_the_tail(ring):
    rng = random.Random(61)
    for _ in range(30):
        q, n = _strict_modulus(ring, rng)
        x = TruncatedSeries(ring, [ring.random_element(rng) for _ in range(n)], n)
        out = mod_q_reduce(x, q)
        assert out.exact
        for _ in range(3):
            assert mod_q_reduce(_with_tail(x, rng), q).value == out.value


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_exact_division_ignores_the_tail(ring):
    rng = random.Random(62)
    e = ring.nilpotency_exponent()
    for _ in range(30):
        q, n = _strict_modulus(ring, rng)
        f = TruncatedSeries(ring, [ring.random_element(rng) for _ in range(n)], n)
        out = weierstrass_divide(f, q)
        assert out.exact
        for _ in range(3):
            again = weierstrass_divide(_with_tail(f, rng), q)
            assert again.a == out.a
            assert again.h.agrees(out.h, n - q.degree * e)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_strict_preparation_ignores_the_tail(ring):
    rng = random.Random(63)
    e = ring.nilpotency_exponent()
    for _ in range(30):
        x, d = random_nondegenerate(ring, rng)
        fact = strict_prepare(x)
        for _ in range(3):
            again = strict_prepare(_with_tail(x, rng))
            assert again.q == fact.q
            assert again.certificate_n == fact.certificate_n
            assert again.u.agrees(fact.u, x.precision - d * e)


def test_inexact_remainder_does_change_with_the_tail():
    # q = t - 1 is not strict: reducing mod q evaluates at t = 1, so the
    # remainder is the sum of all coefficients, tail included
    f7 = PrimeFieldRing(7)
    q = MonicPoly.from_ints(f7, [-1])
    x = TruncatedSeries.from_ints(f7, [1, 1, 1], 3)
    rng = random.Random(64)
    tails = [_with_tail(x, rng) for _ in range(5)]
    reduced = mod_q_reduce(x, q)
    divided = weierstrass_divide(x, q)
    assert not reduced.exact and not divided.exact
    assert any(mod_q_reduce(y, q).value != reduced.value for y in tails)
    assert any(weierstrass_divide(y, q).a != divided.a for y in tails)
