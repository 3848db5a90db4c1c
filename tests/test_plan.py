"""Evaluation plans against term-by-term evaluation.

``MultiPoly.evaluate_or`` with an embedding of the coefficients as constant
series is the oracle: it multiplies every term out on its own, so it shares
neither the plan's monomial table nor its +-1 and ``scale`` shortcuts.
"""

import itertools
import random
from fractions import Fraction

import pytest

from arclift import (
    ArcPoint,
    ArityMismatch,
    IntegersMod,
    MultiPoly,
    NotAUnit,
    PolyMap,
    TruncatedSeries,
    arc_lift,
    newton,
)
from arclift.newton import evaluate_along
from arclift.polynomials import EvaluationPlan, MonomialTable

from _helpers import acceptance_rings

COEFFICIENTS = [0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)]


def _coefficients(ring):
    """The test coefficients that have an image in ``ring`` (3 is no unit in
    Z/9 and Z/27)."""
    if isinstance(ring, IntegersMod):
        return [c for c in COEFFICIENTS if Fraction(c).denominator == 1]
    return COEFFICIENTS


def _random_polys(rng, m, count, coefficients):
    """``count`` random polynomials in m variables, each with a constant
    term, plus the zero polynomial and a repeat of the first."""
    polys = []
    for _ in range(count):
        terms = {(0,) * m: rng.choice(coefficients)}
        for _ in range(rng.randrange(6)):
            terms[tuple(rng.randrange(4) for _ in range(m))] = rng.choice(coefficients)
        polys.append(MultiPoly(m, terms))
    return polys + [MultiPoly(m, {}), MultiPoly(m, dict(polys[0].terms))]


def _oracle(poly, values, n, ring):
    return poly.evaluate_or(
        values,
        TruncatedSeries.constant(ring.zero, n),
        embed=lambda c: TruncatedSeries.constant(ring.from_fraction(c), n),
    )


def _plan_evaluate(plan, poly, table, ring, n):
    return plan.evaluate(
        poly,
        table,
        TruncatedSeries.constant(ring.zero, n),
        lambda c: TruncatedSeries.constant(ring.from_fraction(c), n),
        lambda x, c: x.scale(ring.from_fraction(c)),
    )


def _random_series(ring, rng, n):
    return TruncatedSeries(ring, [ring.random_element(rng) for _ in range(n)], n)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_plan_matches_term_by_term_evaluation(ring):
    rng = random.Random(17)
    for m in (1, 2, 3):
        polys = _random_polys(rng, m, 5, _coefficients(ring))
        plan = EvaluationPlan(m, polys)
        assert len(plan.programs) == len(set(polys))
        for n in (1, 4, 17):
            values = [_random_series(ring, rng, n) for _ in range(m)]
            table = MonomialTable(plan.monomials, values)
            for poly in polys:
                want = _oracle(poly, values, n, ring)
                got = _plan_evaluate(plan, poly, table, ring, n)
                assert got.precision == want.precision and got == want
                assert repr(got) == repr(want)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_evaluate_along_matches_term_by_term_evaluation(ring):
    """Values known beyond n, or to fewer orders than n, give the precision
    term-by-term evaluation gives."""
    rng = random.Random(18)
    for m in (1, 2):
        for poly in _random_polys(rng, m, 6, _coefficients(ring)):
            for n in (1, 6, 13):
                sizes = [rng.choice([n - 1 or 1, n, n + 3]) for _ in range(m)]
                values = [_random_series(ring, rng, k) for k in sizes]
                want = _oracle(poly, values, n, ring)
                got = evaluate_along(poly, values, n)
                assert got.precision == want.precision and got == want


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_each_monomial_costs_one_product(ring, monkeypatch):
    rng = random.Random(19)
    polys = _random_polys(rng, 3, 6, _coefficients(ring))
    plan = EvaluationPlan(3, polys)
    degree_two_or_more = {e for p in polys for e in p.terms if sum(e) >= 2}
    assert len(plan.monomials.steps) >= len(degree_two_or_more)
    table = MonomialTable(plan.monomials, [_random_series(ring, rng, 8) for _ in range(3)])
    count = [0]
    mul = TruncatedSeries.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    for poly in polys:
        _plan_evaluate(plan, poly, table, ring, 8)
    assert count[0] == len(plan.monomials.steps)
    for poly in polys:  # a second pass reads the table
        _plan_evaluate(plan, poly, table, ring, 8)
    assert count[0] == len(plan.monomials.steps)


@pytest.mark.parametrize("ring", [IntegersMod(9), IntegersMod(27)], ids=repr)
def test_a_coefficient_without_image_raises_as_term_by_term(ring):
    values = [TruncatedSeries.from_ints(ring, [1, 1], 4)] * 2
    for poly in (
        MultiPoly(2, {(1, 0): Fraction(1, 3)}),
        MultiPoly(2, {(0, 0): Fraction(2, 3), (1, 1): 1}),
        MultiPoly(2, {(2, 0): 1, (0, 1): Fraction(-1, 6)}),
    ):
        with pytest.raises(NotAUnit) as oracle:
            _oracle(poly, values, 4, ring)
        with pytest.raises(NotAUnit) as planned:
            evaluate_along(poly, values, 4)
        assert str(planned.value) == str(oracle.value)
        assert f"has no image in {ring}" in str(planned.value)


def test_an_arc_raises_for_a_map_coefficient_without_image():
    z27 = IntegersMod(27)
    # the cusp scaled by 1/3: y^2/3 - x^3/3
    pm = PolyMap(("x1", "y1"), 1, [MultiPoly(2, {(0, 2): Fraction(1, 3), (3, 0): Fraction(-1, 3)})])
    y = TruncatedSeries.from_ints(z27, [0, 0, 0, 1, 1], 40)
    arc = ArcPoint(pm, (TruncatedSeries.t_power(z27, 2, 40), y))
    with pytest.raises(NotAUnit, match="the coefficient 1/3 has no image in Zmod\\(27\\): its denominator 3"):
        arc.values
    with pytest.raises(NotAUnit, match="the coefficient 2/3 has no image in Zmod\\(27\\)"):
        arc_lift(arc)  # det = 2y/3


def test_a_plan_refuses_a_polynomial_of_another_arity():
    with pytest.raises(ArityMismatch, match="a plan over 3 variables got a polynomial in 2 variables"):
        EvaluationPlan(3, [MultiPoly(2, {(1, 0): 1})])


def test_a_lift_never_evaluates_the_jacobian_block(monkeypatch):
    """The map's plan holds programs only for what a lift reads: f, the
    adjugate, det and the coefficients of the adjugate remainder.  On this
    sheared space curve the block entry -2u + 2w and the Taylor coefficient
    -2 of v_u*v_w are none of those."""
    f5 = acceptance_rings()[0]
    pm = PolyMap(
        ("x1", "u", "w"),
        1,
        [
            MultiPoly(3, {(0, 2, 0): 1, (0, 1, 1): -2, (0, 0, 2): 1, (3, 0, 0): -1}),
            MultiPoly(3, {(0, 0, 2): 1, (5, 0, 0): -1}),
        ],
    )
    jd = pm.jacobian
    read = {*pm.polys, *itertools.chain(*jd.adjugate), jd.det}
    read.update(c for r in jd.remainder for c in r.terms.values())
    assert set(jd.plan.programs) == read
    assert jd.matrix[0][1] == MultiPoly(3, {(0, 1, 0): -2, (0, 0, 1): 2})
    assert jd.taylor[0].terms[(1, 1)] == MultiPoly.constant(3, -2)
    assert not {jd.matrix[0][1], jd.taylor[0].terms[(1, 1)]} & set(jd.plan.programs)

    evaluated = []
    real = newton._evaluate
    monkeypatch.setattr(
        newton, "_evaluate", lambda plan, poly, *args: evaluated.append(poly) or real(plan, poly, *args)
    )
    x1 = TruncatedSeries.t_power(f5, 2, 34)
    u = TruncatedSeries.from_ints(f5, [0, 0, 0, 1, 0, 1, 0, 0, 0, 1], 34)
    w = TruncatedSeries.from_ints(f5, [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], 34)
    result = arc_lift(ArcPoint(pm, (x1, u, w)))
    assert result.precision == 17 and all(v.is_zero() for v in result.arc.values)
    assert set(evaluated) == read
