"""Property tests of series products and inverses against sympy.

``hypothesis`` draws the series; ``sympy`` polynomial arithmetic mod t^n is
the oracle, so nothing here runs arclift's own kernel twice.  Both packages
are optional: the module is skipped where either is missing.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arclift import PrimeFieldRing, RationalRing, TruncatedSeries  # noqa: E402

T = sympy.Symbol("t")
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


@pytest.mark.parametrize("name", RINGS)
def test_products_match_sympy(name):
    ring, values = RINGS[name]

    @SETTINGS
    @given(st.lists(values, min_size=1, max_size=14), st.lists(values, min_size=1, max_size=14))
    def check(a, b):
        n = min(len(a), len(b))
        expected = _coefficients(_poly(a, ring) * _poly(b, ring), n, ring)
        assert _payloads(_series(ring, a) * _series(ring, b)) == expected
        full = _coefficients(_poly(a, ring) * _poly(b, ring), len(a), ring)
        assert _payloads(_series(ring, a).times_poly([ring.element(v) for v in b])) == full

    check()


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
