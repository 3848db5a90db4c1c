"""Tail perturbation on drawn inputs: ``mod_q_reduce``, ``weierstrass_divide``
and ``strict_prepare`` certify the same windows as in
``test_tail_perturbation.py``, on a ring, a degree d <= 4, a precision N,
coefficients and a tail of 1..8 orders that ``hypothesis`` draws over the
six acceptance rings.  The module is skipped where ``hypothesis`` is
missing; the seeded cases in ``test_tail_perturbation.py`` do not need it.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arclift import (  # noqa: E402
    ArtinianLocalRing,
    MonicPoly,
    RationalRing,
    TruncatedSeries,
    mod_q_reduce,
    strict_prepare,
    weierstrass_divide,
)

from _helpers import acceptance_rings  # noqa: E402

EXTRA = 8  # orders of drawn tail beyond N, at most


def _elements(ring, nilpotent=False):
    """A strategy for elements of an acceptance ring, or for its nilpotents."""
    if isinstance(ring, ArtinianLocalRing):
        monomials = [x for x in ring.monomials() if sum(x) or not nilpotent]
        coeffs = st.lists(st.integers(0, ring.base.p - 1),
                          min_size=len(monomials), max_size=len(monomials))
        return coeffs.map(lambda cs: ring.element({x: c for x, c in zip(monomials, cs) if c}))
    if nilpotent and ring.is_field:
        return st.just(ring.zero)
    if isinstance(ring, RationalRing):
        return st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)).map(ring.element)
    step = ring.residue_field().p if nilpotent else 1
    return st.integers(-30, 30).map(lambda k: ring.from_int(step * k))


def _series(data, ring, n, label):
    return TruncatedSeries(ring, data.draw(st.lists(_elements(ring), min_size=n, max_size=n),
                                           label=label), n)


def _draw_tail(data, x):
    """x's N known coefficients followed by 1..EXTRA drawn ones."""
    tail = data.draw(st.lists(_elements(x.ring), min_size=1, max_size=EXTRA), label="tail")
    return TruncatedSeries(x.ring, list(x.coeffs) + tail, x.precision + len(tail))


def _draw_strict_case(data):
    """(ring, e, q, x): q strict of degree d <= 4, x known to N >= d*(e+1) + 1."""
    ring = data.draw(st.sampled_from(acceptance_rings()), label="ring")
    e = ring.nilpotency_exponent()
    d = data.draw(st.integers(0, 4), label="d")
    low = data.draw(st.lists(_elements(ring, nilpotent=True), min_size=d, max_size=d), label="q")
    n = d * (e + 1) + data.draw(st.integers(1, 3), label="N - d*(e+1)")
    return ring, e, MonicPoly(ring, low), _series(data, ring, n, "x")


DRAWN = settings(max_examples=40, derandomize=True, deadline=None)


@DRAWN
@given(data=st.data())
def test_drawn_exact_reduction_ignores_the_tail(data):
    _, _, q, x = _draw_strict_case(data)
    out = mod_q_reduce(x, q)
    assert out.exact
    assert mod_q_reduce(_draw_tail(data, x), q).value == out.value


@DRAWN
@given(data=st.data())
def test_drawn_exact_division_ignores_the_tail(data):
    _, e, q, f = _draw_strict_case(data)
    out = weierstrass_divide(f, q)
    assert out.exact
    again = weierstrass_divide(_draw_tail(data, f), q)
    assert again.a == out.a
    assert again.h.agrees(out.h, f.precision - q.degree * e)


@DRAWN
@given(data=st.data())
def test_drawn_strict_preparation_ignores_the_tail(data):
    ring = data.draw(st.sampled_from(acceptance_rings()), label="ring")
    e = ring.nilpotency_exponent()
    d = data.draw(st.integers(0, 4), label="d")
    n = d * (e + 1) + data.draw(st.integers(1, 4), label="N - d*(e+1)")
    head = data.draw(st.lists(_elements(ring, nilpotent=True), min_size=d, max_size=d), label="x<d")
    unit = data.draw(_elements(ring).filter(ring.is_unit), label="x_d")
    x = TruncatedSeries(ring, head + [unit] + list(_series(data, ring, n, "x>d").coeffs), n)
    fact = strict_prepare(x)
    again = strict_prepare(_draw_tail(data, x))
    assert again.q == fact.q
    assert again.certificate_n == fact.certificate_n
    assert again.u.agrees(fact.u, n - d * e)
