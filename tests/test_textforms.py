import random
from fractions import Fraction

import pytest

from arclift import (
    ArtinianLocalRing,
    IntegersMod,
    InvalidDescriptor,
    MonicPoly,
    MultiPoly,
    ParseError,
    PolyMap,
    PrimeFieldRing,
    RationalRing,
    TruncatedSeries,
    strict_prepare,
)
from arclift.textforms import (
    MAX_DIGITS,
    MAX_NESTING,
    format_element,
    format_factorization,
    format_low,
    format_monic,
    format_poly_map,
    format_t_poly,
    parse_element,
    parse_factorization,
    parse_low,
    parse_monic,
    parse_poly_map,
    parse_ring,
    parse_series,
    parse_t_poly,
)
from arclift.series import format_series
from arclift.weierstrass import poly_mul

from _helpers import acceptance_rings


def test_ring_descriptor_roundtrip():
    for text, expected in [
        ("Q", RationalRing()),
        ("Fp(5)", PrimeFieldRing(5)),
        ("Zmod(9)", IntegersMod(9)),
        ("Artin(Fp(5); eps; 2)", ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)),
        (
            "Artin(Fp(2); s1, s2; 3)",
            ArtinianLocalRing(PrimeFieldRing(2), ["s1", "s2"], 3),
        ),
    ]:
        ring = parse_ring(text)
        assert ring == expected
        assert parse_ring(repr(ring)) == ring


def test_bad_descriptors_raise_parse_errors():
    for text in ["F(5)", "Artin(Fp(5); eps)", "Zmod(x)", ""]:
        with pytest.raises(ParseError):
            parse_ring(text)


def test_nested_artinian_bases_are_refused_without_recursion():
    for depth in (2, 1000):
        with pytest.raises(InvalidDescriptor):
            parse_ring("Artin(" * depth + "Q" + "; a; 2)" * depth)


@pytest.mark.parametrize("text", [
    "(" * 1000 + "1" + ")" * 1000 + " + O(t^3)",
    "-" * 3000 + "1 + O(t^3)",
    "(-" * MAX_NESTING + "t" + ")" * MAX_NESTING + " + O(t^3)",
], ids=["parentheses", "minus signs", "both"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
        parse_series(text, PrimeFieldRing(5))


def test_nesting_at_the_ceiling_is_accepted():
    ring = PrimeFieldRing(5)
    half = MAX_NESTING // 2
    for text, plain in [("(" * MAX_NESTING + "1 + t" + ")" * MAX_NESTING, "1 + t"),
                        ("-" * MAX_NESTING + "t", "t"),  # an even count of signs
                        ("(-" * half + "t" + ")" * half, "t")]:
        assert parse_t_poly(text, ring) == parse_t_poly(plain, ring)


def test_element_literals():
    r = parse_ring("Artin(Fp(5); eps; 2)")
    eps = r.generators()["eps"]
    assert parse_element("2+eps", r) == r.from_int(2) + eps
    assert parse_element("3*eps^1", r) == r.from_int(3) * eps
    assert parse_element("(1+eps)*(1-eps)", r) == r.one
    assert parse_element("-2", r) == r.from_int(-2)
    q = RationalRing()
    from fractions import Fraction

    assert parse_element("1/2 - 1/3", q) == q.element(Fraction(1, 6))


def test_element_rejects_t_and_unknown_names():
    r = PrimeFieldRing(7)
    with pytest.raises(ParseError):
        parse_element("t + 1", r)
    with pytest.raises(ParseError):
        parse_element("zeta", r)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_element_format_parse_roundtrip(ring):
    rng = random.Random(17)
    for _ in range(200):
        a = ring.random_element(rng)
        assert parse_element(format_element(ring, a), ring) == a


def test_series_literals():
    r = parse_ring("Artin(Fp(5); eps; 2)")
    s = parse_series("[eps, 1] + O(t^4)", r)
    assert s.precision == 4
    assert s.coeffs[0] == r.generators()["eps"]
    assert s.coeffs[1] == r.one
    t_form = parse_series("t^2 + 3*t + 1 + O(t^5)", PrimeFieldRing(7))
    assert t_form == TruncatedSeries.from_ints(PrimeFieldRing(7), [1, 3, 1], 5)
    with pytest.raises(ParseError):
        parse_series("t^2", PrimeFieldRing(7))  # no precision anywhere


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_series_format_parse_roundtrip(ring):
    rng = random.Random(19)
    for _ in range(40):
        s = TruncatedSeries(ring, [ring.random_element(rng) for _ in range(6)], 8)
        assert parse_series(format_series(s), ring) == s


def test_monic_poly_roundtrip():
    z9 = IntegersMod(9)
    q = MonicPoly.from_ints(z9, [3, 0, 6])
    text = format_monic(q)
    assert text == "t^3 + 6*t^2 + 3"
    assert parse_monic(text, z9) == q
    assert format_monic(MonicPoly.t_power(z9, 0)) == "1"
    with pytest.raises(ParseError):
        parse_monic("2*t + 1", z9)


def test_low_poly_roundtrip():
    f7 = PrimeFieldRing(7)
    from arclift import LowPoly

    a = LowPoly.from_ints(f7, 3, [1, 0, 5])
    text = format_low(a)
    assert parse_low(text, f7, 3) == a
    assert format_low(LowPoly(f7, 2, [])) == "0"


def test_factorization_roundtrip():
    r = parse_ring("Artin(Fp(5); eps; 2)")
    eps = r.generators()["eps"]
    fact = strict_prepare(TruncatedSeries(r, [eps, r.one], 4))
    text = format_factorization(fact)
    assert text == "{u: [1, 0, 0] + O(t^3), q: t + eps, n: 2, N: 4}"
    back = parse_factorization(text, r)
    assert back.u == fact.u
    assert back.q == fact.q
    assert back.certificate_n == fact.certificate_n
    assert back.precision == fact.precision


@pytest.mark.parametrize(
    "field, value",
    [("n", "x"), ("N", "4.0"), ("n", "-2"), ("N", "1" * (MAX_DIGITS + 1))],
    ids=["letter", "decimal point", "sign", "too many digits"],
)
def test_factorization_integer_fields_refuse_bad_text(field, value):
    r = parse_ring("Artin(Fp(5); eps; 2)")
    fields = {"u": "[1, 0, 0] + O(t^3)", "q": "t + eps", "n": "2", "N": "4"}
    fields[field] = value
    text = "{" + ", ".join(f"{k}: {v}" for k, v in fields.items()) + "}"
    with pytest.raises(ParseError):
        parse_factorization(text, r)


def test_poly_map_roundtrip():
    pm = parse_poly_map("vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]")
    assert pm.m == 2 and pm.n == 1 and pm.split == 1
    assert pm.polys[0] == MultiPoly(2, {(0, 2): 1, (3, 0): -1})
    text = format_poly_map(pm)
    again = parse_poly_map(text)
    assert again.polys == pm.polys and again.var_names == pm.var_names
    with pytest.raises(ParseError):
        parse_poly_map("vars: [x]; eqs: [x]")


FACTORIZATION = "u: [1] + O(t^1), q: t, n: 1, N: 1"
MAP = "vars: [y]; split: 0; eqs: [y]"


def _refuse_record(map_text, factorization_text, match):
    with pytest.raises(ParseError, match=match):
        parse_poly_map(map_text)
    with pytest.raises(ParseError, match=match):
        parse_factorization("{" + factorization_text + "}", RationalRing())


def test_records_refuse_a_repeated_key():
    # neither the last value (eqs [y^2 - 1], certificate_n 5) nor the first wins
    _refuse_record(MAP + "; eqs: [y^2 - 1]", FACTORIZATION + ", n: 5", "repeats the field")


def test_records_refuse_an_unknown_key():
    _refuse_record(MAP + "; foo: bar", FACTORIZATION + ", junk: 5", "has no field")


def test_records_refuse_a_part_without_a_colon():
    # no key with an empty value; a trailing separator leaves an empty part
    _refuse_record(MAP + "; eqs", FACTORIZATION + ", N", "expected key: value")
    _refuse_record(MAP + ";", FACTORIZATION + ",", "expected key: value")


def test_records_refuse_a_missing_key():
    _refuse_record("vars: [y]; eqs: [y]", "u: [1] + O(t^1), q: t, N: 1", "is missing")


def test_poly_map_with_rational_coefficients():
    pm = parse_poly_map("vars: [y]; split: 0; eqs: [y^2/2 - 3]")
    from fractions import Fraction

    assert pm.polys[0].terms[(2,)] == Fraction(1, 2)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_parsed_powers_match_repeated_products(ring):
    rng = random.Random(29)
    for _ in range(6):
        coeffs = [ring.random_element(rng) for _ in range(rng.randint(1, 4))]
        text = format_t_poly(ring, [c.value for c in coeffs])
        base = parse_t_poly(text, ring)
        expected = (ring.item_ring.payload_from_int(1),), 1
        for k in range(21):
            assert parse_t_poly(f"({text})^{k}", ring) == expected, (text, k)
            items, scale = poly_mul(expected, base, ring)
            while items and ring.item_ring.payload_is_zero(items[-1]):
                items = items[:-1]
            expected = tuple(items), scale


def test_parsed_map_powers_match_explicit_products():
    pm = parse_poly_map("vars: [x, y, z, w]; split: 1; eqs: [x^0, (x + 2*y)^1, (x - y/2)^7]")
    x, y = (MultiPoly.variable(i, 4, 1) for i in range(2))
    base = x - y.scale(Fraction(1, 2))
    seventh = base
    for _ in range(6):
        seventh = seventh * base
    assert pm.polys == (MultiPoly.constant(4, 1), x + y.scale(2), seventh)
