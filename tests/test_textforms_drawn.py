"""Property tests of the text forms on drawn input: every parser refuses
what it cannot read with an ``ArcliftError`` and nothing else, and
format -> parse returns the input for series over five rings and for maps
with drawn variable names.  The module is skipped where ``hypothesis`` is
missing; the seeded cases in ``test_textforms.py`` do not need it.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arclift import (  # noqa: E402
    ArcliftError,
    ArtinianLocalRing,
    IntegersMod,
    MultiPoly,
    PolyMap,
    PrimeFieldRing,
    RationalRing,
    TruncatedSeries,
)
from arclift.series import format_series  # noqa: E402
from arclift.textforms import (  # noqa: E402
    format_poly_map,
    parse_arc,
    parse_element,
    parse_factorization,
    parse_monic,
    parse_poly_map,
    parse_ring,
    parse_series,
    parse_t_poly,
)

RINGS = [
    PrimeFieldRing(5),
    RationalRing(),
    IntegersMod(9),
    ArtinianLocalRing(PrimeFieldRing(2), ["s1", "s2"], 3),
    ArtinianLocalRing(RationalRing(), ["a", "b"], 2),
]

# Single digits keep nested powers such as ((t^9)^9)^9 small.
TOKENS = [
    *"0123456789", *"+-*/^()[]{},;:", " ",
    "t", "x", "y", "eps", "a", "s1", "Q", "O", "_z9",
    "Fp(", "Zmod(", "Artin(", "O(t^", "vars:", "split:", "eqs:", "u:", "q:", "n:", "N:",
]

PARSERS = {
    "ring": lambda text, ring: parse_ring(text),
    "map": lambda text, ring: parse_poly_map(text),
    "element": parse_element,
    "t_poly": parse_t_poly,
    "series": lambda text, ring: parse_series(text, ring, 6),
    "monic": parse_monic,
    "factorization": parse_factorization,
    "arc": lambda text, ring: parse_arc(text, ring, 6),
}

DRAWN = settings(max_examples=200, derandomize=True, deadline=None)


@pytest.mark.parametrize("parse", PARSERS.values(), ids=PARSERS)
@DRAWN
@given(tokens=st.lists(st.sampled_from(TOKENS), max_size=20), ring=st.sampled_from(RINGS))
def test_parsers_raise_only_arclift_errors(parse, tokens, ring):
    try:
        parse("".join(tokens), ring)
    except ArcliftError:
        pass


def _scalars(ring):
    """A strategy for ints or fractions with an image in a base ring."""
    if isinstance(ring, RationalRing):
        return st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    return st.integers(0, (ring.p if isinstance(ring, PrimeFieldRing) else ring.n) - 1)


def _elements(ring):
    if not isinstance(ring, ArtinianLocalRing):
        return _scalars(ring).map(ring.from_fraction)
    gens = [ring.generators()[name] for name in ring.names]
    monomials = [math.prod((g**k for g, k in zip(gens, exps)), start=ring.one)
                 for exps in ring.monomials()]
    return st.lists(_scalars(ring.base), min_size=len(monomials), max_size=len(monomials)).map(
        lambda cs: sum((ring.from_fraction(c) * x for c, x in zip(cs, monomials)), ring.zero))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_series_format_parse_roundtrip(ring, data):
    coeffs = data.draw(st.lists(_elements(ring), min_size=1, max_size=8), label="coeffs")
    n = len(coeffs) + data.draw(st.integers(0, 3), label="zero padding")
    s = TruncatedSeries(ring, coeffs, n)
    text = format_series(s)
    back = parse_series(text, ring)
    assert back == s and format_series(back) == text


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,4}", fullmatch=True)
COEFFICIENTS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
).filter(bool)


@st.composite
def poly_maps(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True), label="vars")
    m = len(names)
    n = draw(st.integers(1, m), label="equations")
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * m), COEFFICIENTS, max_size=4)
    polys = [MultiPoly(m, draw(terms, label="terms")) for _ in range(n)]
    return PolyMap(names, m - n, polys)


@DRAWN
@given(pm=poly_maps())
def test_poly_map_format_parse_roundtrip(pm):
    text = format_poly_map(pm)
    back = parse_poly_map(text)
    assert back.var_names == pm.var_names and back.split == pm.split
    assert back.polys == pm.polys and format_poly_map(back) == text
