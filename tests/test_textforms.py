import random
import time
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
    MAX_TERM_PAIRS,
    format_factorization,
    format_poly_map,
    format_t_poly,
    parse_element,
    parse_factorization,
    parse_monic,
    parse_poly_map,
    parse_ring,
    parse_series,
    parse_t_poly,
)
from arclift.series import format_series
from arclift.weierstrass import poly_mul

from _helpers import acceptance_rings, random_element


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
        a = random_element(ring, rng)
        assert parse_element(repr(a), ring) == a


def test_series_literals():
    r = parse_ring("Artin(Fp(5); eps; 2)")
    s = parse_series("[eps, 1] + O(t^4)", r)
    assert s.precision == 4
    assert s.coeffs[0] == r.generators()["eps"]
    assert s.coeffs[1] == r.one
    t_form = parse_series("t^2 + 3*t + 1 + O(t^5)", PrimeFieldRing(7))
    assert t_form == TruncatedSeries(PrimeFieldRing(7), [1, 3, 1], 5)
    with pytest.raises(ParseError):
        parse_series("t^2", PrimeFieldRing(7))  # no precision anywhere


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_series_format_parse_roundtrip(ring):
    rng = random.Random(19)
    for _ in range(40):
        s = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(6)], 8)
        assert parse_series(format_series(s), ring) == s


def test_monic_poly_roundtrip():
    z9 = IntegersMod(9)
    q = MonicPoly(z9, [3, 0, 6])
    text = repr(q)
    assert text == "t^3 + 6*t^2 + 3"
    assert parse_monic(text, z9) == q
    assert repr(MonicPoly.t_power(z9, 0)) == "1"
    with pytest.raises(ParseError):
        parse_monic("2*t + 1", z9)


def test_low_poly_roundtrip():
    f7 = PrimeFieldRing(7)
    from arclift import LowPoly

    a = LowPoly(f7, 3, [1, 0, 5])
    text = repr(a)
    assert text == "5*t^2 + 1"
    assert parse_series(text, f7, 3) == a.as_series(3)
    assert repr(LowPoly(f7, 2, [])) == "0"


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


@pytest.mark.parametrize("names", ["x, ", "x, 2", "y, y z"])
def test_poly_map_refuses_variables_that_are_not_names(names):
    # each parsed before, to a coordinate no equation can name
    with pytest.raises(ParseError, match="is not a name"):
        parse_poly_map(f"vars: [{names}]; split: 0; eqs: [x]")


@pytest.mark.parametrize("names", ["2", "a b", "a, "])
def test_ring_refuses_generators_that_are_not_names(names):
    with pytest.raises(ParseError, match="is not a name"):
        parse_ring(f"Artin(Fp(5); {names}; 2)")


def test_ring_refuses_t_as_a_generator():
    # its elements would print as t, which reads back as the series variable
    with pytest.raises(ParseError, match="series variable"):
        parse_ring("Artin(Fp(5); t; 2)")
    r = parse_ring("Artin(Fp(5); _t1, T; 2)")
    assert r.names == ("_t1", "T")
    assert parse_element(repr(r.generators()["_t1"]), r) == r.generators()["_t1"]


@pytest.mark.parametrize("text, match", [
    ("vars: [y]]; split: 0; eqs: [y]", "unbalanced ']'"),
    ("vars: [y; split: 0; eqs: [y]", "unclosed '\\['"),
    ("vars: [y); split: 0; eqs: [y]", "unbalanced '\\)'"),
])
def test_unbalanced_brackets_are_named(text, match):
    # the first two once reported "map is missing ['eqs', 'split']"
    with pytest.raises(ParseError, match=match):
        parse_poly_map(text)


def test_poly_map_with_rational_coefficients():
    pm = parse_poly_map("vars: [y]; split: 0; eqs: [y^2/2 - 3]")
    from fractions import Fraction

    assert pm.polys[0].terms[(2,)] == Fraction(1, 2)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_parsed_powers_match_repeated_products(ring):
    rng = random.Random(29)
    for _ in range(6):
        coeffs = [random_element(ring, rng) for _ in range(rng.randint(1, 4))]
        text = format_t_poly(ring, [c.value for c in coeffs])
        base = parse_t_poly(text, ring)
        expected = ring.integer_form([ring.payload_from_int(1)])
        for k in range(21):
            assert parse_t_poly(f"({text})^{k}", ring) == expected, (text, k)
            items, scale = poly_mul(expected, base, ring)
            expected = ring.form_window(items, scale, 0, ring.form_trimmed_len(items))


def test_parsed_map_powers_match_explicit_products():
    pm = parse_poly_map("vars: [x, y, z, w]; split: 1; eqs: [x^0, (x + 2*y)^1, (x - y/2)^7]")
    x, y = (MultiPoly.variable(i, 4, 1) for i in range(2))
    base = x - y.scale(Fraction(1, 2))
    seventh = base
    for _ in range(6):
        seventh = seventh * base
    assert pm.polys == (MultiPoly.constant(4, 1), x + y.scale(2), seventh)


# -- what a literal may build ------------------------------------------------

CEILING_RINGS = [PrimeFieldRing(5), RationalRing(), IntegersMod(9),
                 ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2),
                 ArtinianLocalRing(RationalRing(), ["a", "b"], 3)]


@pytest.mark.parametrize("ring", CEILING_RINGS, ids=repr)
def test_t_polynomials_above_degree_512_are_refused(ring):
    assert ring.form_len(parse_t_poly("t^512", ring)[0]) == 513
    assert ring.form_len(parse_t_poly("(t^256)^2", ring)[0]) == 513
    assert ring.form_len(parse_t_poly("t^256*t^256", ring)[0]) == 513
    for text in ("(t^512)^512", "(t^257)^2", "t^300*t^300", "(1 + t)^300*t^300", "t*(t^512)"):
        with pytest.raises(ParseError, match=r"degree \d+ exceeds the ceiling 512"):
            parse_t_poly(text, ring)
    with pytest.raises(ParseError, match="degree 262144 exceeds the ceiling 512"):
        parse_series("((t^512)^512)^512 + O(t^4)", ring)


def test_a_chain_of_powers_is_refused_before_anything_large_is_built(monkeypatch):
    import arclift.textforms as textforms

    lengths, degrees = [], []
    real_poly_mul, real_mul = textforms.poly_mul, MultiPoly.__mul__

    def poly_mul_seen(a, b, ring):
        out = real_poly_mul(a, b, ring)
        lengths.append(len(out[0]))
        return out

    def mul_seen(a, b):
        out = real_mul(a, b)
        degrees.append(max(map(sum, out.terms), default=0))
        return out

    monkeypatch.setattr(textforms, "poly_mul", poly_mul_seen)
    monkeypatch.setattr(MultiPoly, "__mul__", mul_seen)
    with pytest.raises(ParseError, match="degree 262144"):
        parse_t_poly("((t^512)^512)^512", PrimeFieldRing(5))
    with pytest.raises(ParseError, match="degree 262144"):
        parse_poly_map("vars: [x, y]; split: 1; eqs: [((x + 1)^512)^512]")
    # the inner powers ran (t^512 and (x + 1)^512), nothing past them
    assert lengths and max(lengths) == 513
    assert degrees and max(degrees) == 512


def test_map_equations_above_degree_512_are_refused():
    assert parse_poly_map("vars: [x, y]; split: 1; eqs: [x^512 - y]").polys[0].terms[(512, 0)] == 1
    for eq in ("x^300*y^300", "(x*y)^257", "((x + 1)^512)^512", "x*(y^512)"):
        with pytest.raises(ParseError, match=r"degree \d+ exceeds the ceiling 512"):
            parse_poly_map(f"vars: [x, y]; split: 1; eqs: [{eq}]")


SUM5 = "vars: [x, y, z, w, u]; split: 4; eqs: [(x + y + z + w + u)^{}]"


def test_map_products_past_the_term_pair_ceiling_are_refused(monkeypatch):
    """(x + y + z + w + u)^32 has 58,905 terms; its square-and-multiply
    would multiply two 4,845-term powers.  The product of 495 by 495 terms
    (245,025 pairs, for ^16) is refused before it is formed."""
    assert len(parse_poly_map(SUM5.format(8)).polys[0].terms) == 495
    sizes = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: sizes.append(len(a.terms) * len(b.terms)) or mul(a, b))
    for k in (16, 32, 512):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"product of 495 by 495 terms exceeds the ceiling {MAX_TERM_PAIRS} term pairs"):
            parse_poly_map(SUM5.format(k))
        assert time.perf_counter() - start < 1
    assert sizes and max(sizes) <= MAX_TERM_PAIRS
    # a t-polynomial under the degree ceiling stays below the pair ceiling
    assert 257 * 257 <= MAX_TERM_PAIRS
    assert len(parse_t_poly("(1 + t)^256 * (1 + t)^256", PrimeFieldRing(7))[0]) == 513


NINES = "9*(10^430)^9*10^429"  # 9 * 10^4299: MAX_DIGITS digits


@pytest.mark.parametrize("ring", [RationalRing(), ArtinianLocalRing(RationalRing(), ["a", "b"], 3)],
                         ids=repr)
def test_integers_above_the_digit_ceiling_are_refused_over_q(ring):
    assert MAX_DIGITS == 4300
    assert parse_element(NINES, ring) == ring.from_int(9 * 10**4299)
    assert parse_element("*".join(["2^512"] * 27), ring) == ring.from_int(2**13824)
    for text in (
        "(2^512)^512",
        "((2^512)^512)^512",
        "*".join(["2^512"] * 28),  # 2^14336 has 4316 digits
        f"{NINES} + {NINES}",  # a sum one digit past the ceiling
        f"t/({NINES})/10",  # a denominator
        "(2^512)^512*t + a" if ring != RationalRing() else "(2^512)^512*t",
    ):
        with pytest.raises(ParseError, match="exceeds the ceiling 4300 digits"):
            parse_t_poly(text, ring)


def test_residue_rings_reduce_large_literals():
    # over Fp and Z/n every item is a residue, so only the text's own
    # integers are bounded
    assert parse_t_poly("(2^512)^512 + t", PrimeFieldRing(5)) == parse_t_poly("1 + t", PrimeFieldRing(5))
    z9 = IntegersMod(9)
    assert parse_t_poly("*".join(["2^512"] * 28), z9) == parse_t_poly(str(pow(2, 512 * 28, 9)), z9)


def test_map_integers_above_the_digit_ceiling_are_refused():
    for eq in ("(2^512)^512*x", "*".join(["2^512"] * 28) + "*y", f"x/({NINES})/10",
               f"{NINES}*x + {NINES}*x"):
        with pytest.raises(ParseError, match="exceeds the ceiling 4300 digits"):
            parse_poly_map(f"vars: [x, y]; split: 1; eqs: [{eq}]")
    pm = parse_poly_map(f"vars: [x, y]; split: 1; eqs: [{NINES}*x - y]")
    assert pm.polys[0].terms[(1, 0)] == 9 * 10**4299
