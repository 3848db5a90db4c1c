"""Property tests of series products, inverses, monic division and cusp
arc lifts against sympy.

``hypothesis`` draws the series; ``sympy`` polynomial arithmetic mod t^n
(and mod eps^2 over Artin(Fp(5); eps; 2)), its Newton series inversion
(``rs_series_inversion``) and ``sympy.div`` are the oracles, so nothing
here runs arclift's own kernel twice.  Both packages are optional: the
module is skipped where either is missing.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arclift import (  # noqa: E402
    ArcPoint,
    ArtinianLocalRing,
    LowPoly,
    MonicPoly,
    MultiPoly,
    PolyMap,
    PrimeFieldRing,
    RationalRing,
    TruncatedSeries,
    arc_lift,
)
from arclift.weierstrass import divide_by_monic  # noqa: E402
from sympy.polys.ring_series import rs_series_inversion  # noqa: E402
from sympy.polys.rings import ring as ring_series_ring  # noqa: E402

T = sympy.Symbol("t")
EPS = sympy.Symbol("eps")
SETTINGS = settings(max_examples=30, derandomize=True, deadline=None)

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 30))
residues = st.integers(min_value=0, max_value=4)


def _poly(coeffs, ring):
    """The sympy polynomial sum c_i t^i over QQ or GF(5)."""
    terms = [sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
             for c in reversed(coeffs)]
    if isinstance(ring, RationalRing):
        return sympy.Poly(terms, T, domain=sympy.QQ)
    return sympy.Poly(terms, T, modulus=5)


def _coefficients(poly, n, ring):
    """The first n ascending coefficients of a sympy polynomial, as payloads."""
    got = list(reversed(poly.all_coeffs())) if not poly.is_zero else []
    got = (got + [0] * n)[:n]
    if isinstance(ring, RationalRing):
        return [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, got)]
    return [int(c) % 5 for c in got]


def _series(ring, payloads):
    return TruncatedSeries(ring, [ring.element(v) for v in payloads], len(payloads))


def _payloads(x):
    return [c.value for c in x.coeffs]


RINGS = {"Q": (RationalRing(), rationals), "Fp(5)": (PrimeFieldRing(5), residues)}


def _check_products(ring, values, shortest, longest):
    @SETTINGS
    @given(st.lists(values, min_size=shortest, max_size=longest),
           st.lists(values, min_size=shortest, max_size=longest))
    def check(a, b):
        n = min(len(a), len(b))
        expected = _coefficients(_poly(a, ring) * _poly(b, ring), n, ring)
        assert _payloads(_series(ring, a) * _series(ring, b)) == expected
        full = _coefficients(_poly(a, ring) * _poly(b, ring), len(a), ring)
        poly = LowPoly(ring, len(b), [ring.element(v) for v in b]).as_series(len(a))
        assert _payloads(_series(ring, a) * poly) == full

    check()


@pytest.mark.parametrize("name", RINGS)
def test_products_match_sympy(name):
    _check_products(*RINGS[name], shortest=1, longest=14)


@pytest.mark.parametrize("name", RINGS)
def test_long_products_match_sympy(name):
    """Lengths from 24 to 80 reach the integer path's Kronecker regime."""
    _check_products(*RINGS[name], shortest=24, longest=80)


@pytest.mark.parametrize("name", RINGS)
def test_inverse_matches_sympy(name):
    ring, values = RINGS[name]

    @SETTINGS
    @given(values.filter(bool), st.lists(values, max_size=13))
    def check(c0, tail):
        a = [c0] + tail
        n = len(a)
        expected = _coefficients(_poly(a, ring).invert(_poly([0] * n + [1], ring)), n, ring)
        assert _payloads(_series(ring, a).invert()) == expected

    check()


# Q values whose denominators are high powers or pairwise coprime, so the
# common denominator of the inverse grows and changes from term to term.
hard_rationals = st.sampled_from(
    [Fraction(1, 3**20), Fraction(2, 7), Fraction(5, 11), Fraction(3, 13), Fraction(-7, 2)]
)
LONG_VALUES = {"Q": st.one_of(rationals, hard_rationals), "Fp(5)": residues}
HARD_TAIL = [Fraction(1, 3**20), Fraction(5, 11), Fraction(3, 13), 0, Fraction(2, 7)]
LONG_EXAMPLES = {"Q": (Fraction(2, 7), (HARD_TAIL * 26)[:129]), "Fp(5)": (3, [4] * 129)}


def _sympy_inverse(a, n, ring):
    """The first n coefficients of 1/a by sympy's own series inversion."""
    domain = sympy.QQ if isinstance(ring, RationalRing) else sympy.GF(5)
    r, t = ring_series_ring("t", domain)
    terms = [domain(c.numerator, c.denominator) if isinstance(c, Fraction) else domain(c)
             for c in a]
    inverse = rs_series_inversion(sum((c * t**i for i, c in enumerate(terms)), r.zero), t, n)
    got = [inverse.coeff(t**i) for i in range(n)]
    if isinstance(ring, RationalRing):
        return [Fraction(int(c.numerator), int(c.denominator)) for c in got]
    return [int(c) % 5 for c in got]


@pytest.mark.parametrize("name", RINGS)
def test_long_inverses_match_sympy(name):
    """Lengths 24 to 130, constant terms other than 1 and, over Q, heights
    like 1/3^20 and coprime denominators 2/7, 5/11, 3/13."""
    ring, values = RINGS[name][0], LONG_VALUES[name]

    @settings(SETTINGS, max_examples=12)
    @given(values.filter(lambda c: c not in (0, 1)),
           st.lists(values, min_size=23, max_size=129))
    @example(*LONG_EXAMPLES[name])
    def check(c0, tail):
        a = [c0] + tail
        assert _payloads(_series(ring, a).invert()) == _sympy_inverse(a, len(a), ring)

    check()


@pytest.mark.parametrize("name", RINGS)
def test_monic_division_matches_sympy(name):
    ring, values = RINGS[name]

    @SETTINGS
    @given(st.lists(values, max_size=14), st.lists(values, max_size=5))
    def check(f, low):
        d = len(low)
        q = MonicPoly(ring, [ring.element(v) for v in low])
        quot, rem = divide_by_monic(ring.integer_form(f), q)
        quot, rem = [ring.element(v) for v in ring.from_integer_form(*quot)], rem.coeffs
        expected_quot, expected_rem = sympy.div(_poly(f, ring), _poly(low + [1], ring))
        assert [c.value for c in quot] == _coefficients(expected_quot, max(len(f) - d, 0), ring)
        assert [c.value for c in rem] == _coefficients(expected_rem, d, ring)

    check()


# -- Artin(Fp(5); eps; 2): an element is a pair (c0, c1) meaning c0 + c1*eps --

F5EPS = ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)
pairs = st.tuples(residues, residues)


def _eps_series(pairs):
    payloads = [{k: c for k, c in (((0,), c0), ((1,), c1)) if c} for c0, c1 in pairs]
    return _series(F5EPS, payloads)


def _eps_poly(pairs):
    """sum (c0 + c1 eps) t^i in GF(5)[t, eps]."""
    expr = sum(((c0 + c1 * EPS) * T**i for i, (c0, c1) in enumerate(pairs)), sympy.Integer(0))
    return sympy.Poly(expr, T, EPS, modulus=5)


def _eps_truncated(poly, n):
    """The first n coefficients of a polynomial in (t, eps), mod (eps^2, t^n), as pairs."""
    out = [[0, 0] for _ in range(n)]
    for (i, k), c in poly.terms():
        if i < n and k < 2:
            out[i][k] = int(c) % 5
    return [tuple(p) for p in out]


@SETTINGS
@given(st.lists(pairs, min_size=1, max_size=12), st.lists(pairs, min_size=1, max_size=12))
def test_artinian_products_match_sympy(a, b):
    product = _eps_poly(a) * _eps_poly(b)
    n = min(len(a), len(b))
    assert _eps_series(a) * _eps_series(b) == _eps_series(_eps_truncated(product, n))
    times = _eps_series(a) * LowPoly(F5EPS, len(b), _eps_series(b).coeffs).as_series(len(a))
    assert times == _eps_series(_eps_truncated(product, len(a)))


# -- arc_lift on the cusp y^2 = x^3 ---------------------------------------------

CUSP = PolyMap(["x", "y"], 1, [MultiPoly(2, {(0, 2): 1, (3, 0): -1})])


@pytest.mark.parametrize("name", RINGS)
def test_cusp_lift_residual_vanishes(name):
    """x = t^2, y = t^3 + p with ord p >= 4: det = 2y has order 3, so the
    lifted arc must solve y^2 = x^3 mod t^(N - 2*3 - 1)."""
    ring, values = RINGS[name]

    @SETTINGS
    @given(st.integers(13, 28), st.lists(values, min_size=1, max_size=24))
    def check(n, perturbation):
        zero, one = ring.payload_from_int(0), ring.payload_from_int(1)
        x = [zero, zero, one] + [zero] * (n - 3)
        y = ([zero, zero, zero, one] + perturbation + [zero] * n)[:n]
        result = arc_lift(ArcPoint(CUSP, [_series(ring, x), _series(ring, y)]))
        n_out = n - 2 * 3 - 1
        assert result.precision == n_out
        x_new, y_new = (_payloads(c) for c in result.arc.components)
        assert x_new == _payloads(_series(ring, x)) and y_new[:4] == [0, 0, 0, 1]
        residual = _poly(y_new, ring) ** 2 - _poly(x_new, ring) ** 3
        assert _coefficients(residual, n_out, ring) == [0] * n_out

    check()


# -- arc_lift residuals on random plane curves and on a space curve -------------

# the monomials x^i y^j of weight 2i + 3j >= 7 and degree <= 4: at x = t^2,
# y = t^3 + O(t^4) each has order >= 7 and its y-derivative order >= 4
PLANE_TERMS = [(i, j) for i in range(5) for j in range(5 - i) if 2 * i + 3 * j >= 7]
SPACE = PolyMap(
    ["x1", "y1", "y2"],
    1,
    [MultiPoly(3, {(0, 2, 0): 1, (3, 0, 0): -1}), MultiPoly(3, {(0, 0, 2): 1, (5, 0, 0): -1})],
)


def _arc(ring, leads, low, tails, n):
    """x = t^leads[0] and, per moving coordinate, t^lead plus a drawn tail
    from order ``low`` on, as payload lists of length n."""
    zero, one = ring.payload_from_int(0), ring.payload_from_int(1)
    out = [[zero] * leads[0] + [one] + [zero] * (n - leads[0] - 1)]
    for lead, tail in zip(leads[1:], tails):
        coeffs = [zero] * lead + [one] + [zero] * (low - lead - 1) + tail
        out.append((coeffs + [zero] * n)[:n])
    return out


def _lifted_residuals(pm, arc, ring):
    """arc_lift of the arc, and each equation of pm evaluated by sympy at the
    lifted arc: its first N' coefficients, N' the certified precision."""
    result = arc_lift(ArcPoint(pm, [_series(ring, c) for c in arc]))
    comps = [_poly(_payloads(c), ring) for c in result.arc.components]
    residuals = []
    for p in pm.polys:
        value = _poly([0], ring)
        for exps, c in p.terms.items():
            term = _poly([c], ring)
            for comp, k in zip(comps, exps):
                term = term * comp**k
            value = value + term
        residuals.append(_coefficients(value, result.precision, ring))
    return result.precision, residuals


@pytest.mark.parametrize("name", RINGS)
def test_random_plane_curve_lift_residual_vanishes(name):
    """f = y^2 - x^3 plus drawn terms of weight >= 7 (``PLANE_TERMS``) at
    x = t^2, y = t^3 + p with ord p >= 4: f(arc) has order >= 7 and
    det = df/dy = 2y + (order >= 4) has order 3, so the lifted arc must
    solve f mod t^(N - 2*3 - 1)."""
    ring, values = RINGS[name]

    @settings(SETTINGS, max_examples=20)
    @given(st.lists(values, min_size=len(PLANE_TERMS), max_size=len(PLANE_TERMS)),
           st.integers(13, 24), st.lists(values, min_size=1, max_size=20))
    def check(coeffs, n, perturbation):
        terms = {(0, 2): 1, (3, 0): -1}
        terms.update((ij, c) for ij, c in zip(PLANE_TERMS, coeffs) if c)
        pm = PolyMap(["x", "y"], 1, [MultiPoly(2, terms)])
        n_out, residuals = _lifted_residuals(pm, _arc(ring, (2, 3), 4, [perturbation], n), ring)
        assert n_out == n - 7
        assert residuals == [[0] * n_out]

    check()


@pytest.mark.parametrize("name", RINGS)
def test_space_curve_lift_residual_vanishes(name):
    """y1^2 = x1^3, y2^2 = x1^5 at x1 = t^2, y1 = t^3 + p, y2 = t^5 + r with
    ord p, ord r >= 9: det = 4*y1*y2 has order 8, so the lifted arc must
    solve both equations mod t^(N - 2*8 - 1)."""
    ring, values = RINGS[name]

    @settings(SETTINGS, max_examples=6)
    @given(st.integers(33, 40), st.lists(values, min_size=1, max_size=31),
           st.lists(values, min_size=1, max_size=31))
    def check(n, p, r):
        n_out, residuals = _lifted_residuals(SPACE, _arc(ring, (2, 3, 5), 9, [p, r], n), ring)
        assert n_out == n - 17
        assert residuals == [[0] * n_out] * 2

    check()


# The space curve in the moving coordinates u = y1 + y2, w = y2: its first
# equation (u - w)^2 - x1^3 puts the mixed monomial v_u*v_w into the Taylor
# remainder, so the solver's Jacobian Dh is not diagonal.
SHEARED = PolyMap(
    ["x1", "u", "w"],
    1,
    [
        MultiPoly(3, {(0, 2, 0): 1, (0, 1, 1): -2, (0, 0, 2): 1, (3, 0, 0): -1}),
        MultiPoly(3, {(0, 0, 2): 1, (5, 0, 0): -1}),
    ],
)


def _sheared(ring, arc):
    """A space-curve arc (x1, y1, y2) as payload lists in (x1, u, w)."""
    y1, y2 = (_series(ring, c) for c in arc[1:])
    return [arc[0], _payloads(y1 + y2), arc[2]]


@pytest.mark.parametrize("name", RINGS)
def test_sheared_space_curve_lift_residual_vanishes(name):
    """``SHEARED`` at x1 = t^2, u = t^3 + t^5 + p + r, w = t^5 + r with
    ord p, ord r >= 9: det = 4*(u - w)*w has order 8, as on the space curve,
    and now dh_1/dv_w is nonzero."""
    ring, values = RINGS[name]
    arc = _sheared(ring, _arc(ring, (2, 3, 5), 9, [[1, 2], [3]], 34))
    hd = ArcPoint(SHEARED, [_series(ring, c) for c in arc]).correction
    v = tuple(_series(ring, [1] * 34) for _ in range(2))
    _, jac = hd(v, 34)
    assert not jac[0][1].is_zero()

    @settings(SETTINGS, max_examples=6)
    @given(st.integers(33, 40), st.lists(values, min_size=1, max_size=31),
           st.lists(values, min_size=1, max_size=31))
    def check(n, p, r):
        arc = _sheared(ring, _arc(ring, (2, 3, 5), 9, [p, r], n))
        n_out, residuals = _lifted_residuals(SHEARED, arc, ring)
        assert n_out == n - 17
        assert residuals == [[0] * n_out] * 2

    check()
