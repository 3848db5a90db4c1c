import random
from fractions import Fraction

import pytest

from arclift import (
    ArcPoint,
    ArtinianLocalRing,
    Indeterminate,
    InsufficientPrecision,
    IntegersMod,
    LowPoly,
    MixedRings,
    MonicPoly,
    MultiPoly,
    NonLocalRing,
    NotAUnit,
    PolyMap,
    PrimeFieldRing,
    RationalRing,
    RingElement,
    TruncatedSeries,
    arc_kernel_ring,
    arc_lift,
    fixed_point_solve,
    is_nondegenerate,
    laurent_divide,
    reduced_order,
    strict_prepare,
    weierstrass_divide,
)
from arclift import rings
from arclift.rings import KRONECKER_MIN_RESIDUE_TERMS, KRONECKER_MIN_TERMS, Ring
from arclift.weierstrass import divide_by_monic, poly_mul

from _helpers import (
    acceptance_rings,
    correction_hd,
    random_element,
    random_nilpotent,
    random_nondegenerate,
    random_unit,
    schoolbook_product,
    solver_map,
)


def F5eps():
    return ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)


def convolve(ring, a, b, n):
    """Payloads of a*b mod t^n, for ascending payload lists a and b, by the
    ring's own product of their series forms (``Ring.convolve``)."""
    (a, s), (b, r) = ring.integer_form(a[:n]), ring.integer_form(b[:n])
    return ring.from_integer_form(*ring.canonical_form(ring.convolve(a, b, n), s * r))


def _form(ring, elements):
    """The canonical series form of an element list, as ``poly_mul`` keeps it."""
    items, scale = ring.integer_form([c.value for c in elements])
    return tuple(items), scale


def _poly_mul(f, g, ring):
    """``poly_mul`` of two element lists, read back as an element list."""
    form = poly_mul(_form(ring, f), _form(ring, g), ring)
    return [ring.element(v) for v in ring.from_integer_form(*form)]


def _as_series(ring, poly, n):
    """An element list read as an exact polynomial mod t^n."""
    return LowPoly(ring, len(poly), poly).as_series(n)


def test_product_truncates_at_min_precision():
    q = RationalRing()
    a = TruncatedSeries(q, [1, 1], 4)
    b = TruncatedSeries(q, [1, -1], 4)
    assert a * b == TruncatedSeries(q, [1, 0, -1, 0], 4)


def test_nilpotent_squares_vanish_in_products():
    r = F5eps()
    eps = r.generators()["eps"]
    s = TruncatedSeries(r, [eps, r.one], 3)
    prod = s * s
    expected = TruncatedSeries(r, [r.zero, eps + eps, r.one], 3)
    assert prod == expected


def test_addition():
    q = RationalRing()
    a = TruncatedSeries(q, [1, 1], 2)
    b = TruncatedSeries(q, [-1, 1], 2)
    assert a + b == TruncatedSeries(q, [0, 2], 2)


def test_mixed_rings_rejected():
    with pytest.raises(MixedRings):
        TruncatedSeries(PrimeFieldRing(5), [1], 2) + TruncatedSeries(PrimeFieldRing(7), [1], 2)


def test_geometric_series_inverse():
    q = RationalRing()
    x = TruncatedSeries(q, [1, -1], 4)
    assert x.invert() == TruncatedSeries(q, [1, 1, 1, 1], 4)


def test_inverse_over_z9():
    z9 = IntegersMod(9)
    x = TruncatedSeries(z9, [1, 3], 3)
    inv = x.invert()
    assert inv == TruncatedSeries(z9, [1, -3, 0], 3)
    assert x * inv == TruncatedSeries(z9, [1, 0, 0], 3)


def test_inverse_needs_unit_constant():
    q = RationalRing()
    with pytest.raises(NotAUnit):
        TruncatedSeries(q, [0, 1, 1], 3).invert()


@pytest.mark.parametrize("modulus", [9, 27])
def test_inverses_over_zmod_with_nilpotent_tails(modulus):
    """Unit constants 2, 4, 5, 7 and tails of multiples of 3 (nilpotent) or
    of random residues, at precisions 1 to 40: a*inv = 1 by the schoolbook
    oracle, and every payload is a reduced residue."""
    ring = IntegersMod(modulus)
    rng = random.Random(modulus)
    for c0 in (2, 4, 5, 7):
        for n in (1, 2, 3, 8, 17, 40):
            for nilpotent in (True, False):
                tail = [3 * rng.randrange(modulus // 3) if nilpotent else rng.randrange(modulus)
                        for _ in range(n - 1)]
                a = TruncatedSeries(ring, [c0] + tail, n)
                inv = a.invert()
                assert all(type(v) is int and 0 <= v < modulus for v in inv.payloads)
                product = schoolbook_product(list(a.coeffs), list(inv.coeffs), ring)[:n]
                assert product == [ring.one] + [ring.zero] * (n - 1)


def test_integer_rings_divide_by_a_unit_scale():
    assert PrimeFieldRing(5).from_integer_form([1, 2, -6], 3) == [2, 4, 3]
    assert IntegersMod(9).from_integer_form([1, 3, 10], 2) == [5, 6, 5]
    assert RationalRing().from_integer_form([1, -6], -4) == [Fraction(-1, 4), Fraction(3, 2)]


@pytest.mark.parametrize(
    "ring, c0",
    [
        (PrimeFieldRing(5), 0),
        (RationalRing(), 0),
        (IntegersMod(9), 3),
        (IntegersMod(27), 9),
        (F5eps(), "eps"),
        (ArtinianLocalRing(PrimeFieldRing(2), ["s1", "s2"], 3), "s1"),
    ],
    ids=lambda x: repr(x),
)
def test_inverse_refuses_a_non_unit_constant_in_each_family(ring, c0):
    c0 = ring.generators()[c0] if isinstance(c0, str) else ring.from_int(c0)
    with pytest.raises(NotAUnit, match="constant coefficient is not a unit"):
        TruncatedSeries(ring, [c0, ring.one, ring.one], 3).invert()


def test_colimit_series_inversion_is_refused():
    ring = arc_kernel_ring(PrimeFieldRing(5))
    for n in (2, 64):  # 64: from the base of the Newton doubling
        with pytest.raises(NonLocalRing):
            TruncatedSeries(ring, [ring.one, ring.q0()], n).invert()


# -- Newton inversion from NEWTON_INVERT_MIN on ------------------------------

NEWTON_RINGS = [
    PrimeFieldRing(5),
    IntegersMod(9),
    IntegersMod(27),
    F5eps(),
    ArtinianLocalRing(PrimeFieldRing(2), ["s1", "s2"], 3),
    ArtinianLocalRing(RationalRing(), ["a", "b"], 3),
]


def _recurrence_inverse(ring, payloads):
    """The payloads of the inverse by c_k = -c_0^{-1} sum_{i=1..k} a_i c_{k-i}
    on the ring's payload operations, skipping zero a_i: an oracle apart from
    ``invert_series`` and from Newton's products."""
    inv0 = ring.invert(ring.element(payloads[0])).value
    neg_inv0 = ring.payload_neg(inv0)
    support = [(i, a) for i, a in enumerate(payloads) if i and not ring.payload_is_zero(a)]
    out = [inv0]
    for k in range(1, len(payloads)):
        acc = ring.payload_from_int(0)
        for i, a in support:
            if i > k:
                break
            acc = ring.payload_add(acc, ring.payload_mul(a, out[k - i]))
        out.append(ring.payload_mul(neg_inv0, acc))
    return out


def _newton_cases(ring, rng):
    """Dense series, three at each of cutoff - 1, cutoff and cutoff + 1 and
    one at an odd N above twice the cutoff, then three at N = 512 with a
    unit constant and five other nonzero terms."""
    cut = ring.NEWTON_INVERT_MIN
    for n in (cut - 1, cut, cut + 1) * 3 + (2 * cut + 5,):
        yield [random_unit(ring, rng)] + [random_element(ring, rng) for _ in range(n - 1)]
    for _ in range(3):
        coeffs = [random_unit(ring, rng)] + [ring.zero] * 511
        for i in rng.sample(range(1, 512), 5):
            coeffs[i] = random_unit(ring, rng)
        yield coeffs


@pytest.mark.parametrize("ring", NEWTON_RINGS, ids=repr)
def test_newton_inverse_matches_the_recurrence(ring, monkeypatch):
    """From the cutoff on, ``invert_series`` runs once, at the base of the
    halving ladder, and the result is the recurrence's inverse: the same
    form, equal, and printed the same."""
    calls = []
    real = type(ring).invert_series
    monkeypatch.setattr(ring, "invert_series",
                        lambda items, scale: calls.append(ring.form_len(items)) or real(ring, items, scale))
    rng = random.Random(31)
    for coeffs in _newton_cases(ring, rng):
        n = len(coeffs)
        x = TruncatedSeries(ring, coeffs, n)
        calls.clear()
        got = x.invert()
        base = n
        while base >= ring.NEWTON_INVERT_MIN:
            base = (base + 1) // 2
        assert calls == [base]
        want = TruncatedSeries(ring, [ring.element(v) for v in _recurrence_inverse(ring, x.payloads)], n)
        assert got.form == want.form
        assert got == want
        assert repr(got) == repr(want)


@pytest.mark.parametrize("ring, c0", [(IntegersMod(9), 3), (F5eps(), "eps")], ids=repr)
def test_newton_inversion_refuses_a_non_unit_before_any_product(ring, c0, monkeypatch):
    def refuse(*args):
        raise AssertionError("convolve called")

    n = ring.NEWTON_INVERT_MIN + 16
    c0 = ring.generators()[c0] if isinstance(c0, str) else ring.from_int(c0)
    monkeypatch.setattr(ring, "convolve", refuse)
    with pytest.raises(NotAUnit, match="constant coefficient is not a unit"):
        TruncatedSeries(ring, [c0] + [ring.one] * (n - 1), n).invert()
    with pytest.raises(AssertionError, match="convolve called"):  # the spy is live
        TruncatedSeries(ring, [ring.one] * n, n).invert()


def test_rationals_invert_by_the_recurrence_at_every_length(monkeypatch):
    ring = RationalRing()
    calls = []
    real = RationalRing.invert_series
    monkeypatch.setattr(ring, "invert_series",
                        lambda ints, scale: calls.append(len(ints)) or real(ring, ints, scale))
    rng = random.Random(32)
    for n in (Ring.NEWTON_INVERT_MIN - 1, Ring.NEWTON_INVERT_MIN, 129, 512):
        calls.clear()
        x = TruncatedSeries(ring, [1] + [rng.randint(-30, 30) for _ in range(n - 1)], n)
        x.invert()
        assert calls == [n]


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_double_inverse_is_identity(ring):
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [random_unit(ring, rng)] + [random_element(ring, rng) for _ in range(7)]
        x = TruncatedSeries(ring, coeffs, 8)
        assert x.invert().invert() == x


def test_nondegeneracy_verdicts():
    r = F5eps()
    eps = r.generators()["eps"]
    with pytest.raises(Indeterminate):
        is_nondegenerate(TruncatedSeries(r, [eps, eps], 2))
    z9 = IntegersMod(9)
    assert is_nondegenerate(TruncatedSeries(z9, [3, 1], 2))
    with pytest.raises(Indeterminate):
        is_nondegenerate(TruncatedSeries(PrimeFieldRing(7), [0], 5))


def test_reduced_order_examples():
    r = F5eps()
    eps = r.generators()["eps"]
    x = TruncatedSeries(r, [eps, r.zero, r.one, r.one], 4)
    assert reduced_order(x) == 2
    z9 = IntegersMod(9)
    assert reduced_order(TruncatedSeries(z9, [3, 6, 1], 3)) == 2
    q = RationalRing()
    assert reduced_order(TruncatedSeries(q, [5, 1], 2)) == 0


def _payload_reduced_order(x):
    """The reduced order by its definition on the coefficients: the first
    whose residue is nonzero, None when there is none."""
    ring = x.ring
    return next((d for d, c in enumerate(x.coeffs) if ring.residue(c)), None)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_reduced_order_reads_the_form_as_the_payloads_define_it(ring):
    # leading coefficients drawn from the maximal ideal (nonzero ones over
    # Z/p^e and the Artinian rings), then anything; with all of them
    # nilpotent both readings find no order
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 8)
        lead = rng.randint(0, n)
        coeffs = [random_nilpotent(ring, rng) for _ in range(lead)]
        coeffs += [random_element(ring, rng) for _ in range(n - lead)]
        x = TruncatedSeries(ring, coeffs, n)
        want = _payload_reduced_order(x)
        assert ring.form_reduced_order(*x.form) == (n if want is None else want)
        if want is None:
            with pytest.raises(Indeterminate):
                reduced_order(x)
        else:
            assert reduced_order(x) == want


def test_reduced_order_skips_nonzero_nilpotent_leading_coefficients():
    z9 = IntegersMod(9)
    assert reduced_order(TruncatedSeries(z9, [3, 6, 1], 3)) == 2
    with pytest.raises(Indeterminate):
        reduced_order(TruncatedSeries(z9, [3, 6, 0], 3))
    r = F5eps()
    eps = r.generators()["eps"]
    assert reduced_order(TruncatedSeries(r, [eps, 2 * eps, eps + r.one], 3)) == 2
    with pytest.raises(Indeterminate):
        reduced_order(TruncatedSeries(r, [eps, 2 * eps, r.zero], 3))
    for ring in (ArtinianLocalRing(RationalRing(), ["a", "b"], 3), IntegersMod(27)):
        rng = random.Random(41)
        for _ in range(30):
            coeffs = [random_nilpotent(ring, rng) for _ in range(3)] + [random_element(ring, rng)]
            x = TruncatedSeries(ring, coeffs, 4)
            assert ring.form_reduced_order(*x.form) == (_payload_reduced_order(x) or 4)


@pytest.mark.parametrize("ring", [arc_kernel_ring(PrimeFieldRing(5)), IntegersMod(6)], ids=repr)
def test_reduced_order_refuses_rings_without_a_residue_field(ring):
    # a colimit model takes the payload default, Z/6 its residue shortcut;
    # both refuse as ``residue`` does
    x = TruncatedSeries(ring, [ring.one, ring.zero], 2)
    with pytest.raises(NonLocalRing):
        ring.residue(ring.one)
    with pytest.raises(NonLocalRing):
        reduced_order(x)


def _schoolbook_quotient_holds(quotient, a, b):
    """Whether quotient * b = a on every exponent the known coefficients of
    the Laurent quotient and of b determine, by a schoolbook sum over ring
    elements: zero below exponent 0, a's coefficient from 0 on.  Returns
    how many exponents were checked."""
    ring = a.ring
    low, m = quotient.offset, quotient.body.precision
    body, bs, az = quotient.body.coeffs, b.coeffs, a.coeffs
    checked = 0
    for e in range(low, min(low + m, low + b.precision, a.precision)):
        acc = ring.zero
        for i in range(low, e + 1):
            acc = acc + body[i - low] * bs[e - i]
        if acc != (az[e] if e >= 0 else ring.zero):
            return 0
        checked += 1
    return checked


@pytest.mark.parametrize(
    "ring, b_coeffs, shape",
    [
        (IntegersMod(9), [0, 0, 1, 3, 4, 2], "t-power"),  # q = t^2
        (IntegersMod(9), [3, 6, 1, 3, 4, 2], "strict"),  # q = t^2 + 6t + 3
        (F5eps(), [0, 0, "1+eps", 3, "2*eps", 1], "t-power"),
        (F5eps(), ["eps", 0, 1, "eps", 4, 1], "strict"),  # q = t^2 + eps
    ],
)
def test_laurent_divide_by_a_t_power_or_a_strict_q_matches_the_oracle(
    ring, b_coeffs, shape, monkeypatch
):
    from arclift import divides_power_of_t, weierstrass
    from arclift.series import LaurentSeries
    from arclift.textforms import parse_element

    def element(c):
        return parse_element(c, ring) if isinstance(c, str) else ring.from_int(c)

    n = 14
    b = TruncatedSeries(ring, [element(c) for c in b_coeffs] + [ring.one] * (n - len(b_coeffs)), n)
    fact = strict_prepare(b)
    assert (fact.q.t_multiplicity() == fact.q.degree) == (shape == "t-power")
    real = weierstrass.divide_by_monic
    rng = random.Random(43)
    for _ in range(20):
        a = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(weierstrass, "divide_by_monic", lambda f, q: calls.append(q) or real(f, q))
            quotient = laurent_divide(a, b)
        # q = t^d needs no division: its q' is a power of t
        assert bool(calls) == (shape == "strict")
        assert _schoolbook_quotient_holds(quotient, a, b) > 0
        # the general route through q' = t^n / q gives the same window
        qprime = divides_power_of_t(fact.q, fact.certificate_n).as_series(n)
        general = LaurentSeries(-fact.certificate_n, a * qprime).normalize()
        general = general.times_series(fact.u.invert()).normalize()
        assert (quotient.offset, quotient.body) == (general.offset, general.body)


def test_laurent_divide_shifts_plain_powers():
    f7 = PrimeFieldRing(7)
    a = TruncatedSeries.t_power(f7, 3, 6)
    b = TruncatedSeries.t_power(f7, 1, 6)
    out = laurent_divide(a, b).normalize()
    assert out.offset == 2
    assert out.coefficient(2) == f7.one


def test_laurent_divide_by_nilpotent_shift():
    r = F5eps()
    eps = r.generators()["eps"]
    one = TruncatedSeries(r, [r.one], 6)
    b = TruncatedSeries(r, [eps, r.one], 6)
    out = laurent_divide(one, b)
    assert out.coefficient(-1) == r.one
    assert out.coefficient(-2) == -eps
    # (eps + t) * (t^-1 - eps t^-2) = 1 on the certified window, with
    # nothing left below exponent 0
    product = out.times_series(b).power_series_part()
    assert product is not None and product.agrees(one)


def test_laurent_divide_by_unit_constant():
    from fractions import Fraction

    q = RationalRing()
    a = TruncatedSeries(q, [1, 1], 4)
    b = TruncatedSeries(q, [2], 4)
    ps = laurent_divide(a, b).power_series_part()
    assert ps.coeffs[0] == q.element(Fraction(1, 2))
    assert ps.coeffs[1] == q.element(Fraction(1, 2))


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_laurent_division_inverts_multiplication(ring):
    rng = random.Random(11)
    for _ in range(100):
        b, _ = random_nondegenerate(ring, rng, dmax=3, extra=12)
        n = b.precision
        a = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
        product = laurent_divide(a, b).times_series(b).power_series_part()
        assert product is not None and product.agrees(a)


def test_laurent_division_exhausts_precision():
    from arclift import PrecisionExhausted

    r = F5eps()
    eps = r.generators()["eps"]
    b = TruncatedSeries(r, [eps, r.one], 3)  # certificate consumes 2 orders
    a = TruncatedSeries(r, [r.one], 2)
    with pytest.raises(PrecisionExhausted):
        laurent_divide(a, b)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_reduced_order_is_additive(ring):
    rng = random.Random(13)
    for _ in range(100):
        x, dx = random_nondegenerate(ring, rng, dmax=2, extra=8)
        y, dy = random_nondegenerate(ring, rng, dmax=2, extra=8)
        prod = x * y
        if dx + dy < prod.precision:
            assert reduced_order(prod) == dx + dy


# -- the product and division kernel against schoolbook oracles -------------

def _sparse(ring, rng, count):
    """A zero-heavy list: about half the entries are exactly zero."""
    return [ring.zero if rng.random() < 0.5 else random_element(ring, rng) for _ in range(count)]


def _long_division(f, low, ring):
    """f = (t^d + low) * quot + rem by repeatedly cancelling the top term."""
    d = len(low)
    rem = list(f)
    quot = [ring.zero] * max(len(f) - d, 0)
    while len(rem) > d:
        top = rem.pop()
        k = len(rem) - d
        quot[k] = top
        for j, c in enumerate(low):
            rem[k + j] = rem[k + j] - top * c
    return quot, rem + [ring.zero] * (d - len(rem))


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_products_match_schoolbook(ring):
    rng = random.Random(17)
    for _ in range(40):
        na, nb = rng.randint(1, 9), rng.randint(1, 9)
        a = TruncatedSeries(ring, _sparse(ring, rng, na), na)
        b = TruncatedSeries(ring, _sparse(ring, rng, nb), nb)
        n = min(na, nb)
        expected = schoolbook_product(list(a.coeffs), list(b.coeffs), ring)[:n]
        assert a * b == TruncatedSeries(ring, expected, n)

        poly = _sparse(ring, rng, na + rng.randint(1, 4))  # longer than a
        expected = schoolbook_product(poly, list(a.coeffs), ring)[:na]
        assert a * _as_series(ring, poly, na) == TruncatedSeries(ring, expected, na)

        f, g = _sparse(ring, rng, na), _sparse(ring, rng, nb)
        assert _poly_mul(f, g, ring) == schoolbook_product(f, g, ring)
        expected = _form(ring, schoolbook_product(f, g, ring))
        assert poly_mul(_form(ring, f), _form(ring, g), ring) == expected
        zero = _form(ring, [])
        assert poly_mul(zero, _form(ring, g), ring) == zero
        assert poly_mul(_form(ring, f), zero, ring) == zero


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_monic_division_matches_long_division(ring):
    rng = random.Random(19)
    for _ in range(40):
        d = rng.randint(0, 4)
        lows = [
            _sparse(ring, rng, d),  # arbitrary low coefficients
            [ring.zero] * d,  # q = t^d
            [random_nilpotent(ring, rng) for _ in range(d)],  # strict q
        ]
        for low in lows:
            q = MonicPoly(ring, low)
            for length in (rng.randint(0, d), rng.randint(d + 1, d + 9)):
                f = _sparse(ring, rng, length)
                quot, rem = divide_by_monic(ring.integer_form([c.value for c in f]), q)
                quot, rem = [ring.element(v) for v in ring.from_integer_form(*quot)], list(rem.coeffs)
                assert (quot, rem) == _long_division(f, low, ring)
                assert len(rem) == d
                if quot:
                    back = schoolbook_product(quot, list(q.coeffs), ring)
                    back = [c + (rem[i] if i < d else ring.zero) for i, c in enumerate(back)]
                    assert back == f


def test_product_over_arc_kernel_ring():
    ring = arc_kernel_ring(PrimeFieldRing(5))
    rng = random.Random(23)
    # x5 - x5 is a zero presented at level 5; adding it would re-level a sum
    gens = [ring.zero, ring.x(5) - ring.x(5), ring.one, ring.q0(), -ring.q0()]
    gens += [ring.x(i) for i in range(5)]
    for _ in range(30):
        na, nb = rng.randint(1, 7), rng.randint(1, 7)
        a = [rng.choice(gens) for _ in range(na)]
        b = [rng.choice(gens) for _ in range(nb)]
        n = min(na, nb)
        expected = TruncatedSeries(ring, schoolbook_product(a, b, ring)[:n], n)
        product = TruncatedSeries(ring, a, na) * TruncatedSeries(ring, b, nb)
        assert product == expected and repr(product) == repr(expected)
        assert repr(_poly_mul(a, b, ring)) == repr(schoolbook_product(a, b, ring))


# -- the integer path of the kernel (Fp, Z/n, Q) ---------------------------

def _plain_product(a, b, n, modulus=None):
    """a*b mod t^n on bare ints or Fractions, reduced mod ``modulus`` if given."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return [c % modulus for c in out] if modulus else out


def _modulus(ring):
    """p or n for Fp and Z/n; None for Q."""
    if isinstance(ring, RationalRing):
        return None
    return ring.p if isinstance(ring, PrimeFieldRing) else ring.n


def _integer_cases(ring, rng):
    """(a, b) payload pairs: edge shapes first, then random lists."""
    m = _modulus(ring)
    if m is None:
        def draw(count):
            return [Fraction(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(count)]
        yield [Fraction(1, k) for k in range(1, 41)], [Fraction(-k, k + 1) for k in range(1, 31)]
        yield [Fraction(1, 3**40), Fraction(-2, 7), Fraction(5)], [Fraction(-1, 3**40)] * 4
        yield [Fraction(-7, 9), Fraction(0), Fraction(-1, 2)], [Fraction(2, 3), Fraction(-3, 4)]
    else:
        def draw(count):
            return [rng.randrange(m) for _ in range(count)]
        yield [m - 1] * 12, [m - 1] * 12  # a large sum before the one reduction
    zero = ring.payload_from_int(0)
    yield [zero] * 5, draw(6)
    yield draw(4), [zero] * 3
    yield [], draw(3)
    yield [], []
    for _ in range(25):
        yield draw(rng.randint(1, 12)), draw(rng.randint(1, 12))
    # around the Kronecker crossover: the sparser operand has K-1, K or 3K
    # nonzero terms
    for terms in (KRONECKER_MIN_TERMS - 1, KRONECKER_MIN_TERMS, 3 * KRONECKER_MIN_TERMS):
        if m is None:
            # 26^2 * 48 = 32448: at 3K the middle coefficients sit just
            # below 2^15, the top of a two-byte slot
            yield [Fraction(-26)] * terms, [Fraction(-26)] * terms
            yield [Fraction(-26)] * terms, [Fraction(26)] * (terms + 5)
            # at K the middle coefficient is 32 * 64 * 16 = 2^15, one past a
            # two-byte slot: the slot needs its sign bit
            yield [Fraction(32)] * terms, [Fraction(64)] * terms
            yield [Fraction(-k, k + 1) for k in range(1, terms + 1)], draw(terms)  # all negative
            mixed = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), d)
                     for d in rng.sample(range(1, 500), 2 * terms)]  # distinct denominators
            yield mixed[:terms], mixed[terms:]
        else:
            yield [m - 1] * terms, [m - 1] * terms  # the largest sums before the one reduction
            yield [m - 1] * terms, draw(2 * terms)
        top = m - 1 if m else terms
        sparse = [zero] * (2 * terms)
        sparse[1::2] = [ring.payload_from_int(1 + k % top) for k in range(terms)]
        yield sparse, sparse[::-1]  # nonzero terms, not length, pick the regime
    # around the residue crossover, K = KRONECKER_MIN_RESIDUE_TERMS
    k = KRONECKER_MIN_RESIDUE_TERMS
    for terms in (k - 1, k, 3 * k):
        if m is None:
            yield [Fraction(-26)] * terms, [Fraction(26, 3)] * (terms + 5)
            continue
        yield [m - 1] * terms, [m - 1] * terms
        yield [m - 1] * terms, draw(2 * terms)
        sparse = [zero] * (2 * terms)
        sparse[::2] = [ring.payload_from_int(1 + i % (m - 1)) for i in range(terms)]
        yield sparse, sparse[::-1]


def _kronecker_threshold(ring):
    """The nonzero count from which the ring's (or its base's) ints pack."""
    ring = getattr(ring, "base", ring)
    return KRONECKER_MIN_TERMS if isinstance(ring, RationalRing) else KRONECKER_MIN_RESIDUE_TERMS


def _canonical_values(ring, elements):
    """The payloads of ``elements``, after asserting each is canonical."""
    m = _modulus(ring)
    values = [c.value for c in elements]
    if m is None:
        assert all(type(v) is Fraction for v in values)
    else:
        assert all(type(v) is int and 0 <= v < m for v in values)
    return values


INTEGER_RINGS = [RationalRing(), PrimeFieldRing(2), PrimeFieldRing(5), IntegersMod(9), IntegersMod(27)]


@pytest.mark.parametrize("ring", INTEGER_RINGS, ids=repr)
def test_integer_path_matches_plain_product(ring):
    rng = random.Random(29)
    m = _modulus(ring)
    for a, b in _integer_cases(ring, rng):
        f, g = [ring.element(v) for v in a], [ring.element(v) for v in b]
        for n in {0, 1, 3, min(len(a), len(b)), max(len(a) + len(b) - 1, 0), len(a) + len(b) + 2}:
            out = convolve(ring, a, b, n)
            assert _canonical_values(ring, [ring.element(v) for v in out]) == _plain_product(a, b, n, m)

        full = _canonical_values(ring, _poly_mul(f, g, ring))
        assert full == _plain_product(a, b, len(a) + len(b) - 1 if a and b else 0, m)
        if not (a and b):
            continue

        n = min(len(a), len(b))
        product = TruncatedSeries(ring, f, len(a)) * TruncatedSeries(ring, g, len(b))
        expected = TruncatedSeries(ring, [ring.element(v) for v in _plain_product(a, b, n, m)], n)
        assert _canonical_values(ring, product.coeffs) == [c.value for c in expected.coeffs]
        assert product == expected and hash(product) == hash(expected)
        assert [hash(c) for c in product.coeffs] == [hash(c) for c in expected.coeffs]

        n = max(1, len(a) // 2)  # g may be longer than the series
        got = TruncatedSeries(ring, f, n) * _as_series(ring, g, n)
        assert _canonical_values(ring, got.coeffs) == _plain_product(a[:n], b, n, m)


def _watch_packing(monkeypatch):
    """A list that records (ints, width, signed) for each ``rings._pack`` call."""
    packed = []
    pack = rings._pack

    def watched(ints, width, signed):
        packed.append((ints, width, signed))
        return pack(ints, width, signed)

    monkeypatch.setattr(rings, "_pack", watched)
    return packed


@pytest.mark.parametrize("ring", INTEGER_RINGS, ids=repr)
def test_integer_path_takes_both_regimes(ring, monkeypatch):
    packed = _watch_packing(monkeypatch)
    regimes = set()
    for a, b in _integer_cases(ring, random.Random(29)):
        before = len(packed)
        convolve(ring, a, b, len(a) + len(b))
        regimes.add(len(packed) > before)
    assert regimes == {False, True}
    assert min(len(ints) - ints.count(0) for ints, _, _ in packed) == _kronecker_threshold(ring)
    # residues pack into unsigned slots, Q's ints into signed ones
    assert {signed for _, _, signed in packed} == {_modulus(ring) is None}


@pytest.mark.parametrize(
    "ring, terms, width",
    [
        (PrimeFieldRing(2), 255, 1),  # 1 * 1 * 255: the top of a one-byte slot
        (PrimeFieldRing(2), 256, 2),  # 256: one past it
        (IntegersMod(64), 16, 2),  # 63^2 * 16 = 63504 < 2^16
        (IntegersMod(65), 16, 4),  # 64^2 * 16 = 2^16, one past a two-byte slot
        (IntegersMod(2**40), 16, 11),  # (2^40 - 1)^2 * 16 < 2^84: no struct size
        (IntegersMod(2**40), 48, 11),
    ],
    ids=lambda x: repr(x) if isinstance(x, rings.Ring) else str(x),
)
def test_unsigned_slots_hold_the_largest_residue_sums(ring, terms, width, monkeypatch):
    packed = _watch_packing(monkeypatch)
    top = ring.item_top
    scattered = [0] * (2 * terms)
    for i in random.Random(terms).sample(range(2 * terms), terms):
        scattered[i] = top
    for a, b in (
        ([top] * terms, [top] * terms),  # the middle coefficient at the bound
        ([top] * terms, [top] * (terms + 7)),
        ([top, 0] * terms, [0, top] * terms),
        (scattered, [top] * terms),
    ):
        for n in (len(a), len(a) + len(b) - 1, len(a) + len(b) + 2):
            assert ring.convolve(a[:n], b[:n], n) == _plain_product(a[:n], b[:n], n)
    assert packed and {(w, signed) for _, w, signed in packed} == {(width, False)}
    series = TruncatedSeries(ring, [top] * terms, terms)
    square = _plain_product([top] * terms, [top] * terms, terms, _modulus(ring))
    assert series * series == TruncatedSeries(ring, square, terms)


RESIDUE_RINGS = [PrimeFieldRing(5), PrimeFieldRing(7), IntegersMod(9), IntegersMod(25),
                 F5eps(), ArtinianLocalRing(PrimeFieldRing(3), ["a", "b"], 3)]


@pytest.mark.parametrize("ring", RESIDUE_RINGS, ids=repr)
def test_residue_products_see_only_canonical_residues(ring, monkeypatch):
    """Unsigned slots hold the sums of residues in [0, m), so every int
    operand of a product in a lift, a preparation and a division must be
    one; ``_int_product`` serves both ``Ring.convolve`` and the Artinian
    slices."""
    base = ring.base if isinstance(ring, ArtinianLocalRing) else ring
    seen = []
    product = rings._int_product
    monkeypatch.setattr(rings, "_int_product",
                        lambda a, b, n, top=None: seen.append((a, b, top)) or product(a, b, n, top))
    rng = random.Random(41)
    n = 64
    cusp = PolyMap(("x", "y"), 1, [MultiPoly(2, {(0, 2): 1, (3, 0): -1})])
    y = [ring.zero] * 3 + [ring.one] + [random_unit(ring, rng) for _ in range(n - 4)]
    result = arc_lift(ArcPoint(cusp, (TruncatedSeries.t_power(ring, 2, n), TruncatedSeries(ring, y, n))))
    assert result.arc.values[0].truncate(result.precision).is_zero()
    x = TruncatedSeries(ring, [random_nilpotent(ring, rng) for _ in range(2)]
                        + [random_unit(ring, rng)] + [random_element(ring, rng) for _ in range(n - 3)], n)
    fact = strict_prepare(x)
    dividend = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
    weierstrass_divide(dividend, fact.q)
    laurent_divide(dividend, x)
    assert any(top is not None and min(len(a) - a.count(0), len(b) - b.count(0)) >= KRONECKER_MIN_TERMS
               for a, b, top in seen)
    for a, b, top in seen:
        assert top == base.item_top
        assert all(type(c) is int and 0 <= c <= top for c in a + b)


@pytest.mark.parametrize("ring", INTEGER_RINGS, ids=repr)
def test_integer_rings_never_touch_payload_ops_in_products(ring, monkeypatch):
    def refuse(*args):
        raise AssertionError("payload op called on the integer path")

    a = [ring.payload_from_int(k) for k in (3, 0, -2, 7)]
    b = [ring.payload_from_int(k) for k in (1, 5, 0)]
    expected = convolve(ring, a, b, 5)
    monkeypatch.setattr(ring, "payload_add", refuse)
    monkeypatch.setattr(ring, "payload_mul", refuse)
    assert convolve(ring, a, b, 5) == expected


@pytest.mark.parametrize("ring", INTEGER_RINGS, ids=repr)
def test_integer_rings_invert_without_payload_ops(ring, monkeypatch):
    def refuse(*args):
        raise AssertionError("payload op called on the integer path")

    series = [TruncatedSeries(ring, [1, 4, 0, -2, 7, 3] * k, 6 * k)
              for k in (1, Ring.NEWTON_INVERT_MIN // 6 + 1)]
    expected = [x.invert() for x in series]
    monkeypatch.setattr(ring, "payload_add", refuse)
    monkeypatch.setattr(ring, "payload_mul", refuse)
    assert [x.invert() for x in series] == expected


def test_artinian_and_colimit_rings_override_convolve():
    for ring in INTEGER_RINGS:
        assert type(ring).convolve is Ring.convolve
        assert type(ring).invert_series is Ring.invert_series
    for ring in (F5eps(), ArtinianLocalRing(RationalRing(), ["a", "b"], 3)):
        assert type(ring).invert_series is not Ring.invert_series
    for ring in (F5eps(), ArtinianLocalRing(PrimeFieldRing(2), ["s1", "s2"], 3),
                 arc_kernel_ring(PrimeFieldRing(5))):
        assert type(ring).convolve is not Ring.convolve


# -- the sliced path of the kernel (Artinian rings) -------------------------

ARTIN_RINGS = [
    F5eps(),
    ArtinianLocalRing(PrimeFieldRing(2), ["s1", "s2"], 3),
    ArtinianLocalRing(RationalRing(), ["a", "b"], 3),
    ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 1),
    ArtinianLocalRing(PrimeFieldRing(3), ["a", "b", "c"], 4),
]


def _artin_element(ring, rng, density, top_only=False):
    """Each monomial (only those of degree e-1 if ``top_only``) present with
    probability ``density``, with a nonzero and, over Q, fractional coefficient."""
    out = {}
    for exps in ring.monomials():
        if (top_only and sum(exps) < ring.e - 1) or rng.random() >= density:
            continue
        out[exps] = _artin_coefficient(ring, rng)
    return ring.element(out)


def _artin_coefficient(ring, rng):
    if isinstance(ring.base, RationalRing):
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 40))
    return rng.randrange(1, ring.base.p)


def _artin_cases(ring, rng):
    """(f, g) element-list pairs: edge shapes first, then random lists."""
    def draw(count, density=0.4, zeros=0.5, top_only=False):
        return [ring.zero if rng.random() < zeros else _artin_element(ring, rng, density, top_only)
                for _ in range(count)]

    yield draw(9, density=1.0, zeros=0.0), draw(7, density=1.0, zeros=0.0)  # dense
    yield draw(8, top_only=True, zeros=0.0), draw(8, top_only=True, zeros=0.0)  # products vanish
    yield draw(10, density=0.1), draw(11, density=0.1)  # slices of one or two terms
    yield [ring.zero] * 5, draw(6)
    yield draw(4), [ring.zero] * 3
    yield [], draw(3)
    yield [], []
    if isinstance(ring.base, RationalRing):
        one = (0,) * ring.m
        tiny = [ring.element({one: Fraction(1, 3**20)}), ring.element({one: Fraction(-2, 7)})]
        yield tiny, [ring.element({one: Fraction(-1, 3**20)})] * 4
    for _ in range(25):
        yield draw(rng.randint(1, 12)), draw(rng.randint(1, 12), density=rng.random())
    # around the Kronecker crossovers: lists of 3K coefficients whose nonzero
    # ones share a support of up to three monomials, 1 among them, so that
    # each slice holds K-1, K or 3K nonzero ints, for either threshold K
    for k in (KRONECKER_MIN_TERMS, KRONECKER_MIN_RESIDUE_TERMS):
        length = 3 * k
        for terms in (k - 1, k, length):
            def spread():
                one, *monomials = ring.monomials()
                support = [one] + rng.sample(monomials, min(2, len(monomials)))
                out = [ring.zero] * length
                for i in rng.sample(range(length), terms):
                    out[i] = ring.element({x: _artin_coefficient(ring, rng) for x in support})
                return out
            yield spread(), spread()
            if not isinstance(ring.base, RationalRing):
                # every coefficient the base's top residue on 1 and one more
                # monomial: the slice products reach top^2 * terms, the bound
                # their unsigned slots are sized from
                one, *rest = ring.monomials()
                top = {x: ring.base.p - 1 for x in [one] + rest[:1]}
                filled = [ring.element(top)] * terms + [ring.zero] * (length - terms)
                yield filled, filled[::-1]


def _canonical_artin(ring, elements):
    """The payloads of ``elements``, after asserting each is canonical."""
    values = [c.value for c in elements]
    for v in values:
        for exps, c in v.items():
            assert len(exps) == ring.m and sum(exps) < ring.e
            assert not ring.base.payload_is_zero(c)
            if isinstance(ring.base, RationalRing):
                assert type(c) is Fraction
            else:
                assert type(c) is int and 0 <= c < ring.base.p
    return values


@pytest.mark.parametrize("ring", ARTIN_RINGS, ids=repr)
def test_sliced_path_matches_schoolbook(ring):
    rng = random.Random(31)
    for f, g in _artin_cases(ring, rng):
        a, b = [c.value for c in f], [c.value for c in g]
        full = schoolbook_product(f, g, ring)
        for n in {0, 1, 3, min(len(f), len(g)), len(full), len(f) + len(g) + 2}:
            expected = (full + [ring.zero] * n)[:n]
            got = [ring.element(v) for v in convolve(ring, a, b, n)]
            assert _canonical_artin(ring, got) == [c.value for c in expected]
        assert _canonical_artin(ring, _poly_mul(f, g, ring)) == [c.value for c in full]
        if not (f and g):
            continue

        n = min(len(f), len(g))
        product = TruncatedSeries(ring, f, len(f)) * TruncatedSeries(ring, g, len(g))
        expected = TruncatedSeries(ring, full[:n], n)
        assert _canonical_artin(ring, product.coeffs) == [c.value for c in expected.coeffs]
        assert product == expected and hash(product) == hash(expected)
        assert [hash(c) for c in product.coeffs] == [hash(c) for c in expected.coeffs]

        n = max(1, len(f) // 2)  # g may be longer than the series
        got = TruncatedSeries(ring, f, n) * _as_series(ring, g, n)
        expected = schoolbook_product(f[:n], g, ring)[:n]
        assert _canonical_artin(ring, got.coeffs) == [c.value for c in expected]


@pytest.mark.parametrize("ring", ARTIN_RINGS, ids=repr)
def test_sliced_path_takes_both_regimes(ring, monkeypatch):
    packed = _watch_packing(monkeypatch)
    regimes = set()
    for f, g in _artin_cases(ring, random.Random(31)):
        before = len(packed)
        convolve(ring, [c.value for c in f], [c.value for c in g], len(f) + len(g))
        regimes.add(len(packed) > before)
    assert regimes == {False, True}
    assert min(len(ints) - ints.count(0) for ints, _, _ in packed) == _kronecker_threshold(ring)
    # slices over an Fp base pack unsigned, over Q signed
    assert {signed for _, _, signed in packed} == {isinstance(ring.base, RationalRing)}


def test_artinian_products_skip_payload_ops_and_colimit_products_keep_them(monkeypatch):
    rng = random.Random(37)
    cases = []
    for ring in ARTIN_RINGS:
        f = [_artin_element(ring, rng, 0.7) for _ in range(6)]
        g = [_artin_element(ring, rng, 0.7) for _ in range(5)]
        cases.append((ring, f, g, schoolbook_product(f, g, ring)))

    def refuse(*args):
        raise AssertionError("Artinian payload op called in a product")

    monkeypatch.setattr(ArtinianLocalRing, "payload_mul", refuse)
    monkeypatch.setattr(ArtinianLocalRing, "payload_add", refuse)
    for ring, f, g, full in cases:
        a, b = [c.value for c in f], [c.value for c in g]
        assert convolve(ring, a, b, len(full)) == [c.value for c in full]
        assert _poly_mul(f, g, ring) == full
        product = TruncatedSeries(ring, f, 6) * TruncatedSeries(ring, g, 5)
        assert product == TruncatedSeries(ring, full[:5], 5)
        assert TruncatedSeries(ring, f, 6) * _as_series(ring, g, 6) == TruncatedSeries(ring, full[:6], 6)

    ring = arc_kernel_ring(PrimeFieldRing(5))
    calls = []
    mul = ring.payload_mul
    monkeypatch.setattr(ring, "payload_mul", lambda x, y: calls.append(1) or mul(x, y))
    a = TruncatedSeries(ring, [ring.x(1), ring.one], 2)
    product = a * TruncatedSeries(ring, [ring.q0(), ring.x(2)], 2)
    assert calls and product.coefficient(0) == ring.x(1) * ring.q0()


@pytest.mark.parametrize("ring", ARTIN_RINGS, ids=repr)
def test_artinian_series_arithmetic_calls_no_payload_op(ring, monkeypatch):
    """Series products, sums, differences, negations and scaling over an
    Artinian ring run on the base ints of its slices: neither
    ``payload_mul`` nor ``payload_add`` is called, and each result is the
    one the payload operations give."""
    rng = random.Random(43)
    f = [_artin_element(ring, rng, 0.7) for _ in range(9)]
    g = [_artin_element(ring, rng, 0.7) for _ in range(7)]
    c = _artin_element(ring, rng, 0.7)
    expected = {
        "mul": schoolbook_product(f, g, ring)[:7],
        "add": [a + b for a, b in zip(f, g)],
        "sub": [a - b for a, b in zip(f, g)],
        "neg": [-a for a in f],
        "scale": [a * c for a in f],
        "scale by 2": [a * 2 for a in f],
    }
    expected = {k: TruncatedSeries(ring, v, len(v)) for k, v in expected.items()}
    x, y = TruncatedSeries(ring, f, 9), TruncatedSeries(ring, g, 7)
    calls = []
    for name in ("payload_mul", "payload_add"):
        real = getattr(ArtinianLocalRing, name)
        monkeypatch.setattr(ArtinianLocalRing, name,
                            lambda self, a, b, real=real, name=name: calls.append(name) or real(self, a, b))
    got = {"mul": x * y, "add": x + y, "sub": x - y, "neg": -x, "scale": x.scale(c),
           "scale by 2": x.scale(2)}
    assert x * c == got["scale"]
    assert calls == []
    for k, want in expected.items():
        assert got[k] == want, k
    assert ring.zero * ring.one == ring.zero and calls  # the spies are live


# -- payload storage: series arithmetic builds no RingElement ----------------

WRAPPER_RINGS = [RationalRing(), PrimeFieldRing(5), F5eps()]


def _random_series(ring, rng, n):
    return TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)


def _count_wrappers(monkeypatch, fn):
    """How many RingElements fn() constructs."""
    count = [0]
    init = RingElement.__init__

    def counting(self, ring, value):
        count[0] += 1
        init(self, ring, value)

    with monkeypatch.context() as m:
        m.setattr(RingElement, "__init__", counting)
        fn()
    return count[0]


@pytest.mark.parametrize("ring", WRAPPER_RINGS, ids=repr)
def test_series_arithmetic_builds_no_wrappers(ring, monkeypatch):
    for n in (16, 64):
        rng = random.Random(n)
        a, b = _random_series(ring, rng, n), _random_series(ring, rng, n)
        c = random_element(ring, rng)

        def ops():
            a * b, a + b, a - b, -a, a.truncate(n // 2), a.shift(3)
            TruncatedSeries.constant(c, n)

        assert _count_wrappers(monkeypatch, ops) == 0


@pytest.mark.parametrize("ring", WRAPPER_RINGS, ids=repr)
def test_fixed_point_solve_wraps_per_round_not_per_coefficient(ring, monkeypatch):
    def h(v):
        return v[0] * v[1], v[0] + v[1] * v[1]

    def dh(v):
        one = TruncatedSeries(v[0].ring, [1], v[0].precision)
        return (v[1], v[0]), (one, v[1] + v[1])

    counts = {}
    for n in (16, 64):
        rng = random.Random(n)
        v1 = (_random_series(ring, rng, n), _random_series(ring, rng, n))
        counts[n] = _count_wrappers(monkeypatch, lambda: fixed_point_solve(solver_map(h, dh), v1, n))
    # Wrappers come only from the pivot inverses of the first round that
    # solves a system; later rounds refine those inverses by products,
    # which wrap nothing, so the count must not grow with N.
    assert counts[16] > 0 and counts[16] == counts[64]


def _count_products(monkeypatch, fn):
    """How many series products fn() runs."""
    count = [0]
    mul = TruncatedSeries.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    with monkeypatch.context() as m:
        m.setattr(TruncatedSeries, "__mul__", counting)
        fn()
    return count[0]


@pytest.mark.parametrize("ring", WRAPPER_RINGS, ids=repr)
def test_correction_jacobian_of_a_quadratic_h_runs_no_product(ring, monkeypatch):
    rng = random.Random(9)
    n = 32
    c = [_random_series(ring, rng, n) for _ in range(4)]
    v = (_random_series(ring, rng, n), _random_series(ring, rng, n))
    # the space curve's shape, with a linear and a constant term
    hd = correction_hd([{(2, 0): c[0], (1, 0): c[1]}, {(0, 2): c[2], (0, 0): c[3]}])
    counts = [_count_products(monkeypatch, lambda: hd(v, k)) for k in (0, 1, 15, 31)]
    assert counts == [5] * 4  # c0*v0*v0, c1*v0, c2*v1*v1
    _, dh = hd(v, 15)
    assert dh[0][1].is_zero() and dh[1][0].is_zero()
    # a mixed term's partial in its second variable is one product, at the
    # precision of Dh
    hd = correction_hd([{(1, 1): c[0]}, {(0, 2): c[1]}])
    assert [_count_products(monkeypatch, lambda: hd(v, k)) for k in (0, 15)] == [4, 5]


def test_scale_runs_no_product(monkeypatch):
    q = RationalRing()
    x = TruncatedSeries(q, [1, 2, 3], 3)
    assert _count_products(monkeypatch, lambda: x.scale(q.element(Fraction(2, 3)))) == 0


def _scale_cases():
    q, z9, eps_ring = RationalRing(), IntegersMod(9), F5eps()
    eps = eps_ring.generators()["eps"]
    art = ArtinianLocalRing(q, ["a", "b"], 3)
    a, b = art.generators()["a"], art.generators()["b"]
    kernel = arc_kernel_ring(PrimeFieldRing(5))
    cases = [
        (PrimeFieldRing(5), 3),
        (q, q.element(Fraction(-3, 4))),
        (q, q.element(Fraction(5, 3))),
        (q, 6),
        (z9, z9.from_int(3)),  # a zero divisor
        (z9, 7),
        (eps_ring, eps + eps),  # nilpotent
        (eps_ring, eps_ring.one + eps),
        (art, a * b + a.ring.from_fraction(Fraction(1, 2)) * a),  # nilpotent, with a fraction
        (kernel, kernel.x(3) + kernel.q0()),  # raises level-0 items to level 3
    ]
    rings_seen = []
    for ring, _ in cases:
        if ring not in rings_seen:
            rings_seen.append(ring)
    return cases + [(ring, ring.zero) for ring in rings_seen] + [(ring, 0) for ring in rings_seen]


def _scale_operand(ring, rng):
    try:
        return random_element(ring, rng)
    except NotImplementedError:  # colimit rings: levels 0 and 1, and zeros
        return rng.choice([ring.zero, ring.one, ring.q0(), ring.x(1), ring.q0() * ring.x(1)])


@pytest.mark.parametrize("ring, c", _scale_cases(), ids=repr)
def test_scale_matches_the_product_with_a_constant_series(ring, c):
    rng = random.Random(12)
    element = c if isinstance(c, RingElement) else ring.from_int(c)
    for n in (1, 2, 9, 40):
        x = TruncatedSeries(ring, [_scale_operand(ring, rng) for _ in range(n)], n)
        want = x * TruncatedSeries.constant(element, n)
        got = x.scale(c)
        assert got.precision == n and got.form == want.form
        assert got == want and repr(got) == repr(want)
        assert x * element == want


@pytest.mark.parametrize("ring", WRAPPER_RINGS, ids=repr)
def test_drop_and_pad_move_the_window_and_refuse_what_they_cannot_certify(ring):
    rng = random.Random(6)
    a = _random_series(ring, rng, 8)
    assert a.drop(3) == TruncatedSeries(ring, a.coeffs[3:], 5)
    assert a.drop(3).shift(3) + a.truncate(3).pad(8) == a
    assert a.pad(11) == TruncatedSeries(ring, a.coeffs, 11) and a.pad(8) is a
    with pytest.raises(InsufficientPrecision):
        a.drop(8)
    with pytest.raises(ValueError):
        a.pad(7)


@pytest.mark.parametrize("ring", WRAPPER_RINGS, ids=repr)
def test_coeffs_is_a_wrapped_view_and_the_constructor_checks(ring):
    rng = random.Random(5)
    a = _random_series(ring, rng, 8)
    assert isinstance(a.coeffs, tuple) and len(a.coeffs) == a.precision
    for i, c in enumerate(a.coeffs):
        assert isinstance(c, RingElement) and c.ring is ring
        assert c == a.coefficient(i) and c.value == a.payloads[i]
    with pytest.raises(AttributeError):
        a.coeffs = ()
    other = PrimeFieldRing(7)
    with pytest.raises(MixedRings):
        TruncatedSeries(ring, [ring.one, other.one], 3)
    with pytest.raises(TypeError):
        TruncatedSeries(ring, [ring.one, 0.5], 3)
    assert TruncatedSeries(ring, [1, ring.one], 4) == TruncatedSeries(ring, [ring.one, 1, 0], 4)


def _count_fractions(monkeypatch, fn):
    """How many Fractions fn() constructs, arithmetic results included."""
    count = [0]

    def counted(make):
        def counting(*args, **kwargs):
            count[0] += 1
            return make(*args, **kwargs)

        return counting

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counted(vars(Fraction)["__new__"]))
        coprime = vars(Fraction).get("_from_coprime_ints")
        if coprime is not None:  # from 3.12 arithmetic results bypass __new__
            m.setattr(Fraction, "_from_coprime_ints", classmethod(counted(coprime.__func__)))
        fn()
    return count[0]


def test_fixed_point_solve_over_q_builds_fractions_per_round_not_per_coefficient(monkeypatch):
    q = RationalRing()

    def h(v):
        return v[0] * v[1], v[0] + v[1] * v[1]

    def dh(v):
        one = TruncatedSeries(v[0].ring, [1], v[0].precision)
        return (v[1], v[0]), (one, v[1] + v[1])

    counts = {}
    for n in (16, 32, 64):
        rng = random.Random(n)
        v1 = (_random_series(q, rng, n), _random_series(q, rng, n))
        counts[n] = _count_fractions(
            monkeypatch, lambda: fixed_point_solve(solver_map(h, dh), v1, n)
        )
    # Series stay in integer form: Fractions come only from each round's
    # pivot inverses and the constant in dh, so each doubling of N adds one
    # round and the same number of Fractions.
    assert counts[16] > 0 and counts[64] - counts[32] == counts[32] - counts[16], counts
