"""Tail perturbation: certified coefficients do not depend on the unknown tail.

A series known mod t^N stands for every series with those N coefficients.
Each operation below is recomputed from inputs whose orders >= N are filled
with seeded random values at a larger precision; every coefficient the
original result certifies must come out unchanged.  No oracle is involved,
only the operation itself on two inputs that agree mod t^N.

The certified windows: ``mod_q_reduce`` and ``weierstrass_divide`` with
``exact`` set certify their remainder, ``strict_prepare`` certifies q
and its certificate exponent, ``laurent_divide`` every exponent below its
``precision_bound``, ``check_congruence`` all of v1, and ``arc_lift`` v1
and v0 below its N' and the lifted arc to the precision it carries
(N' + 1 on the moving coordinates), and ``expand_around`` its head and
its tail, for a perturbation x' known mod t^k.  Over m^e = 0 the
quotient h and the unit u are certified on their first N - d*e
coefficients: the tail t^N*g shifts them by q'*g*t^(N - d*e), where
q*q' = t^(d*e).  That is d*(e-1) orders short of the precision N - d they
carry (see ROADMAP item 4), so these
tests check the N - d*e window.  ``test_tail_perturbation_drawn.py`` runs
the reduction, division and preparation cases on drawn inputs as well.
"""

import random

import pytest

from arclift import (
    ArcPoint,
    LowPoly,
    MonicPoly,
    MultiPoly,
    PolyMap,
    PrimeFieldRing,
    TruncatedSeries,
    arc_lift,
    check_congruence,
    expand_around,
    laurent_divide,
    mod_q_reduce,
    strict_prepare,
    weierstrass_divide,
)
from arclift.jets import ModQVector

from _helpers import acceptance_rings, random_element, random_nilpotent, random_nondegenerate

EXTRA = 8  # orders of random tail beyond N


def _with_tail(x, rng, extra=EXTRA):
    """x's N known coefficients followed by ``extra`` random ones."""
    ring = x.ring
    tail = [random_element(ring, rng) for _ in range(extra)]
    return TruncatedSeries(ring, list(x.coeffs) + tail, x.precision + extra)


def _strict_modulus(ring, rng):
    """A strict monic q of degree d <= 4 and a precision N >= d*(e+1)."""
    e = ring.nilpotency_exponent()
    d = rng.randrange(5)
    q = MonicPoly(ring, [random_nilpotent(ring, rng) for _ in range(d)])
    return q, d * (e + 1) + 1 + rng.randrange(3)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_exact_reduction_ignores_the_tail(ring):
    rng = random.Random(61)
    for _ in range(30):
        q, n = _strict_modulus(ring, rng)
        x = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
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
        f = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
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


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_laurent_division_ignores_the_tails(ring):
    rng = random.Random(65)
    for _ in range(30):
        b, _ = random_nondegenerate(ring, rng)
        n = b.precision
        a = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
        out = laurent_divide(a, b)
        for _ in range(3):
            again = laurent_divide(_with_tail(a, rng), _with_tail(b, rng))
            for k in range(out.offset, out.precision_bound):
                assert again.coefficient(k) == out.coefficient(k)


# f = y^2 + x*y - x^3 at x = t^2 and y of order >= 3: det = 2y + x has
# order 2 over every acceptance ring, characteristic 2 included, and f has
# order >= 5 = ord(t*det^2), so the congruence holds
NODE = PolyMap(("x", "y"), 1, [MultiPoly(2, {(0, 2): 1, (1, 1): 1, (3, 0): -1})])


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_congruence_correction_ignores_the_tails(ring):
    rng = random.Random(66)
    e = ring.nilpotency_exponent()
    for _ in range(20):
        n = 5 * (e + 1) - 1 + rng.randrange(4)  # the least N check_congruence takes, and more
        y = [ring.zero] * 3 + [random_element(ring, rng) for _ in range(n - 3)]
        arc = (TruncatedSeries.t_power(ring, 2, n), TruncatedSeries(ring, y, n))
        v1 = check_congruence(ArcPoint(NODE, arc))
        assert v1[0].precision == n - 5 * e
        for _ in range(3):
            again = check_congruence(ArcPoint(NODE, [_with_tail(c, rng) for c in arc]))
            assert again[0].agrees(v1[0], v1[0].precision)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_expansion_ignores_the_perturbation_tail(ring):
    rng = random.Random(69)
    # y1^3 + y1*y2 and y2^2 - 2*y1
    g = PolyMap(("y1", "y2"), 0, [MultiPoly(2, {(3, 0): 1, (1, 1): 1}),
                                  MultiPoly(2, {(0, 2): 1, (1, 0): -2})])
    for _ in range(20):
        d = rng.randrange(4)
        low = [random_element(ring, rng) for _ in range(d)]
        q, tq = MonicPoly(ring, low), MonicPoly(ring, [ring.zero] + low)
        xbar = ModQVector(tq, [LowPoly(ring, d + 1, [random_element(ring, rng) for _ in range(d + 1)])
                               for _ in range(2)])
        k = d + 1 + rng.randrange(3)
        xprime = [TruncatedSeries(ring, [random_element(ring, rng) for _ in range(k)], k)
                  for _ in range(2)]
        out = expand_around(g, q, xbar, xprime)
        for _ in range(3):
            again = expand_around(g, q, xbar, [_with_tail(x, rng) for x in xprime])
            assert again.head == out.head
            for mine, theirs in zip(out.tail, again.tail):
                assert theirs.agrees(mine, mine.precision)


def test_inexact_remainder_does_change_with_the_tail():
    # q = t - 1 is not strict: reducing mod q evaluates at t = 1, so the
    # remainder is the sum of all coefficients, tail included
    f7 = PrimeFieldRing(7)
    q = MonicPoly(f7, [-1])
    x = TruncatedSeries(f7, [1, 1, 1], 3)
    rng = random.Random(64)
    tails = [_with_tail(x, rng) for _ in range(5)]
    reduced = mod_q_reduce(x, q)
    divided = weierstrass_divide(x, q)
    assert not reduced.exact and not divided.exact
    assert any(mod_q_reduce(y, q).value != reduced.value for y in tails)
    assert any(weierstrass_divide(y, q).a != divided.a for y in tails)


CUSP = PolyMap(("x", "y"), 1, [MultiPoly(2, {(0, 2): 1, (3, 0): -1})])
SPACE = PolyMap(
    ("x", "y", "z"),
    1,
    [MultiPoly(3, {(0, 2, 0): 1, (3, 0, 0): -1}), MultiPoly(3, {(0, 0, 2): 1, (5, 0, 0): -1})],
)


def _perturbed_arc(ring, rng, leads, low, n):
    """x = t^leads[0] and, for every moving coordinate, t^lead plus random
    coefficients from order ``low`` on, at precision n."""
    comps = [TruncatedSeries.t_power(ring, leads[0], n)]
    for lead in leads[1:]:
        coeffs = [ring.zero] * lead + [ring.one] + [ring.zero] * (low - lead - 1)
        coeffs += [random_element(ring, rng) for _ in range(n - low)]
        comps.append(TruncatedSeries(ring, coeffs, n))
    return comps


def _lift_cases(ring, rng):
    """(map, arc) pairs at the least N arc_lift takes and a little more.

    The cusp y^2 = x^3 at x = t^2, y = t^3 + O(t^4) has det = 2y of order 3
    and needs 2 to be a unit; in characteristic 2 the node of
    ``test_congruence_correction_ignores_the_tails`` (det order 2) stands in.
    """
    e = ring.nilpotency_exponent()
    if ring.from_int(2):
        pm, leads, low, d_div = CUSP, (2, 3), 4, 7
    else:
        pm, leads, low, d_div = NODE, (2, 3), 3, 5
    need = max(d_div * (e + 1) - 1, d_div * e + 1)
    for _ in range(3):
        yield pm, _perturbed_arc(ring, rng, leads, low, need + rng.randrange(4))


def _assert_lift_ignores_the_tails(pm, arc, rng):
    out = arc_lift(ArcPoint(pm, arc))
    n_out = out.precision
    for _ in range(2):
        again = arc_lift(ArcPoint(pm, [_with_tail(c, rng) for c in arc]))
        assert again.precision >= n_out
        for mine, theirs in zip(out.v1 + out.v0, again.v1 + again.v0):
            assert theirs.agrees(mine, n_out)
        for mine, theirs in zip(out.arc.components, again.arc.components):
            assert theirs.agrees(mine, mine.precision)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_arc_lift_ignores_the_tails(ring):
    rng = random.Random(67)
    for pm, arc in _lift_cases(ring, rng):
        _assert_lift_ignores_the_tails(pm, arc, rng)


def test_space_curve_lift_ignores_the_tails():
    # y^2 = x^3, z^2 = x^5 at x = t^2: det = 4yz has order 3 + 5 = 8, so
    # the divisor t*det^2 has order 17 and a field needs N >= 33
    ring = PrimeFieldRing(5)
    rng = random.Random(68)
    for _ in range(2):
        arc = _perturbed_arc(ring, rng, (2, 3, 5), 9, 33 + rng.randrange(4))
        _assert_lift_ignores_the_tails(SPACE, arc, rng)
