import random
from fractions import Fraction
import sys

import pytest

from arclift import (
    INFINITE_WITHIN_PRECISION,
    ArtinianLocalRing,
    IntegersMod,
    Indeterminate,
    InsufficientPrecision,
    LowPoly,
    MonicPoly,
    MultiPoly,
    NoDivide,
    NonLocalRing,
    PolyMap,
    PrimeFieldRing,
    RationalRing,
    TruncatedSeries,
    arc_kernel_ring,
    divides_power_of_t,
    expand_around,
    integer_completion,
    kernel_fiber_basis,
    map_mod_poly,
    mod_q_reduce,
    ord_at_point,
    recombine_division,
    recombine_factorization,
    strict_prepare,
    weierstrass_divide,
)
from arclift import weierstrass
from arclift.pathology import ColimitRing
from arclift.weierstrass import divide_by_monic
from arclift.errors import ArityMismatch, MixedRings
from arclift.jets import ModQVector

from _helpers import (
    acceptance_rings,
    brute_force_fiber_dimension,
    charpoly_of_t,
    random_element,
    random_nilpotent,
    random_nondegenerate,
    reconstruct_factorization,
    strict_by_linear_system,
)


def F5eps():
    return ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)


def test_prepare_nilpotent_shift():
    r = F5eps()
    eps = r.generators()["eps"]
    x = TruncatedSeries(r, [eps, r.one], 4)
    fact = strict_prepare(x)
    assert fact.q == MonicPoly(r, [eps])
    assert fact.u == TruncatedSeries(r, [r.one], 3)
    assert fact.certificate_n == 2


def test_prepare_pure_power_is_already_strict():
    for ring in (PrimeFieldRing(7), RationalRing(), IntegersMod(9)):
        x = TruncatedSeries.t_power(ring, 3, 14)
        fact = strict_prepare(x)
        assert fact.q == MonicPoly.t_power(ring, 3)
        assert fact.u.coeffs[0] == ring.one


def test_prepare_over_z9_with_certificate():
    z9 = IntegersMod(9)
    x = TruncatedSeries(z9, [3, 1], 6)
    fact = strict_prepare(x)
    assert fact.q == MonicPoly(z9, [3])
    assert fact.u == TruncatedSeries(z9, [1], 5)
    qprime = divides_power_of_t(fact.q, 2)
    assert qprime == MonicPoly(z9, [-3])
    # (t + 3)(t - 3) = t^2 - 9 = t^2 exactly in Z/9
    prod = qprime.as_series(4) * fact.q.as_series(4)
    assert prod == TruncatedSeries(z9, [0, 0, 1, 0], 4)


def test_prepare_at_the_exact_precision_boundary():
    r = F5eps()
    eps = r.generators()["eps"]
    x = TruncatedSeries(r, [eps, r.one, r.zero], 3)  # N = d*(e+1) exactly
    fact = strict_prepare(x)
    assert fact.q == MonicPoly(r, [eps])
    assert fact.u.precision == 2


def test_prepare_requires_local_ring_and_precision():
    z6 = IntegersMod(6)
    with pytest.raises(NonLocalRing):
        strict_prepare(TruncatedSeries(z6, [1, 1], 4))
    r = F5eps()
    eps = r.generators()["eps"]
    with pytest.raises(InsufficientPrecision):
        strict_prepare(TruncatedSeries(r, [eps, r.one], 2))  # needs N >= 3
    with pytest.raises(Indeterminate):
        strict_prepare(TruncatedSeries(r, [eps, eps], 4))


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_prepare_reconstructs_and_matches_linear_oracle(ring):
    rng = random.Random(42)
    for _ in range(60):
        x, d = random_nondegenerate(ring, rng)
        fact = strict_prepare(x)
        assert fact.q.degree == d
        assert fact.q.is_strict()
        assert ring.is_unit(fact.u.coeffs[0])
        assert reconstruct_factorization(fact) == x
        q_oracle, u_oracle = strict_by_linear_system(x)
        assert q_oracle == fact.q
        assert u_oracle == fact.u


@pytest.mark.parametrize(
    "ring", [IntegersMod(9), IntegersMod(27), F5eps()], ids=repr
)
def test_prepare_matches_characteristic_polynomial_at_small_degree(ring):
    rng = random.Random(43)
    e = ring.nilpotency_exponent()
    for _ in range(25):
        x, d = random_nondegenerate(ring, rng, dmax=2)
        fact = strict_prepare(x)
        assert charpoly_of_t(x, d * e) == fact.q


def test_polynomials_refuse_coefficients_from_another_ring():
    f5, f7 = PrimeFieldRing(5), PrimeFieldRing(7)
    with pytest.raises(MixedRings):
        MonicPoly(f5, [f7.from_int(6)])
    with pytest.raises(MixedRings):
        LowPoly(f5, 2, [f5.one, f7.from_int(6)])


def test_polynomials_take_ints_as_canonical_elements():
    f5 = PrimeFieldRing(5)
    a = LowPoly(f5, 2, [1, 7])
    assert a == LowPoly(f5, 2, [1, 2])
    assert repr(a) == "2*t + 1"
    q = MonicPoly(f5, [6, -1])
    assert q == MonicPoly(f5, [1, 4])
    assert repr(q) == "t^2 + 4*t + 1"


def test_division_by_strict_linear_factor():
    r = F5eps()
    eps = r.generators()["eps"]
    f = TruncatedSeries.t_power(r, 3, 5)
    q = MonicPoly(r, [eps])
    result = weierstrass_divide(f, q)
    assert result.exact
    assert result.a.is_zero()
    assert result.h == TruncatedSeries(r, [r.zero, -eps, r.one, r.zero], 4)


def test_division_of_q_by_itself():
    z9 = IntegersMod(9)
    q = MonicPoly(z9, [3, 6])
    f = q.as_series(8)
    result = weierstrass_divide(f, q)
    assert result.a.is_zero()
    assert result.h == TruncatedSeries(z9, [1], 6)


def test_division_splits_truncation():
    f7 = PrimeFieldRing(7)
    f = TruncatedSeries(f7, [1, 1, 1], 3)
    result = weierstrass_divide(f, MonicPoly.t_power(f7, 2))
    assert result.exact
    assert result.h == TruncatedSeries(f7, [1], 1)
    assert result.a == LowPoly(f7, 2, [1, 1])


def test_division_by_non_strict_divisor_is_flagged():
    f7 = PrimeFieldRing(7)
    f = TruncatedSeries(f7, [1, 2, 3, 4], 4)
    result = weierstrass_divide(f, MonicPoly(f7, [-1]))  # q = t - 1
    assert not result.exact
    assert recombine_division(MonicPoly(f7, [-1]), result.a, result.h).agrees(f, 2)


def test_division_by_strict_divisor_below_budget_is_flagged():
    # strict q but N < d*(e+1): the unknown tail could still leak into a
    r = F5eps()
    eps = r.generators()["eps"]
    q = MonicPoly(r, [eps])
    f = TruncatedSeries(r, [r.one, r.one], 2)  # N = 2 < 1*(2+1)
    result = weierstrass_divide(f, q)
    assert not result.exact
    # while a pure power divisor is exact at any admissible precision
    assert weierstrass_divide(f, MonicPoly.t_power(r, 1)).exact


def test_division_needs_one_order_beyond_the_degree():
    f7 = PrimeFieldRing(7)
    with pytest.raises(InsufficientPrecision):
        weierstrass_divide(TruncatedSeries(f7, [1, 1], 2), MonicPoly.t_power(f7, 2))


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_division_reconstructs_to_reduced_precision(ring):
    rng = random.Random(44)
    e = ring.nilpotency_exponent()
    for _ in range(60):
        d = rng.randrange(1, 5)
        n = d * (e + 1) + 4
        q = MonicPoly(ring, [random_nilpotent(ring, rng) for _ in range(d)])
        f = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
        result = weierstrass_divide(f, q)
        assert result.exact
        assert result.a.bound == d
        back = recombine_division(q, result.a, result.h)
        assert back.agrees(f, n - d)


def test_divides_power_examples():
    f7 = PrimeFieldRing(7)
    assert divides_power_of_t(MonicPoly.t_power(f7, 2), 5) == MonicPoly.t_power(f7, 3)
    q = RationalRing()
    with pytest.raises(NoDivide) as info:
        divides_power_of_t(MonicPoly(q, [-1]), 3)
    assert info.value.remainder == LowPoly(q, 1, [1])


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_certificate_exponent_always_verifies(ring):
    rng = random.Random(45)
    e = ring.nilpotency_exponent()
    for _ in range(40):
        x, d = random_nondegenerate(ring, rng)
        fact = strict_prepare(x)
        qprime = divides_power_of_t(fact.q, d * e)
        assert qprime.degree == d * e - d
        prod = qprime.as_series(d * e + 1) * fact.q.as_series(d * e + 1)
        assert prod == TruncatedSeries.t_power(ring, d * e, d * e + 1)


@pytest.mark.parametrize("ring", [PrimeFieldRing(5), RationalRing()], ids=repr)
def test_strict_prepare_over_a_field_makes_no_product(ring, monkeypatch):
    # Over a field the strict q is t^d: round 1's u * t^d is a shift of u,
    # and its defect x - u * t^d is zero, so the first round exits.
    def refuse(*args):
        raise AssertionError("a series product in strict_prepare over a field")

    rng = random.Random(27)
    for _ in range(40):
        x, d = random_nondegenerate(ring, rng)
        with monkeypatch.context() as m:
            m.setattr(ring, "convolve", refuse)
            fact = strict_prepare(x)
        assert fact.q == MonicPoly.t_power(ring, d)
        assert reconstruct_factorization(fact) == x


DIVISION_RINGS = acceptance_rings() + [arc_kernel_ring(PrimeFieldRing(5))]
PAYLOAD_OPS = ("from_integer_form", "payload_add", "payload_mul", "payload_neg")


def _draw(ring, rng):
    if isinstance(ring, ColimitRing):
        return rng.choice([ring.zero, ring.one, ring.q0(), ring.x(1), ring.q0() * ring.x(2)])
    return random_element(ring, rng)


def _refuse(*args):
    raise AssertionError("a payload operation or a product where a window does")


def _is_canonical(ring, form):
    items, scale = form
    out, s = ring.canonical_form(items, scale)
    return (tuple(out), s) == (tuple(items), scale)


def _synthetic_division(f, q):
    """(quot, rem) with f = q * quot + rem, deg rem < deg q, for a list of
    ring elements f and a monic q, by schoolbook synthetic division on ring
    elements from the top coefficient down."""
    ring, d, qs = q.ring, q.degree, q.coeffs
    rem = list(f) + [ring.zero] * (d - len(f))
    quot = [ring.zero] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = quot[i - d] = rem[i]
        for j in range(d + 1):
            rem[i - d + j] = rem[i - d + j] - c * qs[j]
    return quot, rem[:d]


def _check_division(ring, f, q, monkeypatch):
    """divide_by_monic of the elements f by q against the oracle: equal
    coefficients, and both results canonical forms.  A division by a power
    of t runs with the ring's payload operations refused."""
    form = ring.integer_form([c.value for c in f])
    with monkeypatch.context() as m:
        if q.is_t_power():
            for name in PAYLOAD_OPS:
                m.setattr(ring, name, _refuse)
        quot, rem = divide_by_monic(form, q)
    want_quot, want_rem = _synthetic_division(f, q)
    assert ring.form_len(quot[0]) == len(want_quot)
    assert list(map(ring.element, ring.from_integer_form(*quot))) == want_quot
    assert rem.bound == q.degree and list(rem.coeffs) == want_rem
    assert _is_canonical(ring, quot) and _is_canonical(ring, rem.form)


@pytest.mark.parametrize("ring", DIVISION_RINGS, ids=repr)
def test_division_by_a_t_power_or_a_general_monic_matches_the_oracle(ring, monkeypatch):
    rng = random.Random(25)
    t3 = MonicPoly.t_power(ring, 3)
    assert t3.is_t_power()
    for length in (0, 2, 3, 4, 7):  # below, at and above deg t^3
        for _ in range(6):
            f = [_draw(ring, rng) for _ in range(length)]
            q = MonicPoly(ring, [ring.one, _draw(ring, rng), _draw(ring, rng)])
            assert not q.is_t_power()
            _check_division(ring, f, t3, monkeypatch)  # two windows of f
            _check_division(ring, f, q, monkeypatch)  # synthetic division


def test_division_of_a_q_dividend_over_a_scale_by_a_t_power(monkeypatch):
    # both windows of ints over the scale 6 lose items; the quotient's
    # content is 6 and must be divided out
    q = RationalRing()
    f = [q.from_fraction(Fraction(*c)) for c in ((1, 2), (1, 3), (1, 1), (2, 1), (4, 1))]
    assert q.integer_form([c.value for c in f])[1] == 6
    for d in (1, 2, 3, 5, 6):
        _check_division(q, f, MonicPoly.t_power(q, d), monkeypatch)
    quot, rem = divide_by_monic(q.integer_form([c.value for c in f]), MonicPoly.t_power(q, 3))
    assert quot == ((2, 4), 1) and rem.form == ((3, 2, 6), 6)


@pytest.mark.parametrize("ring", DIVISION_RINGS, ids=repr)
def test_monic_times_is_the_product_with_q(ring, monkeypatch):
    rng = random.Random(26)
    for n in (1, 2, 3, 4, 9):
        for _ in range(4):
            x = TruncatedSeries(ring, [_draw(ring, rng) for _ in range(n)], n)
            general = MonicPoly(ring, [ring.one, _draw(ring, rng), _draw(ring, rng)])
            for q in (MonicPoly.t_power(ring, 0), MonicPoly.t_power(ring, 3), general):
                want = x * q.as_series(n)
                with monkeypatch.context() as m:
                    if q.is_t_power():  # a window of x: no product
                        m.setattr(ring, "convolve", _refuse)
                    got = q.times(x)
                assert got == want and got.precision == n
                assert _is_canonical(ring, got.form)


def test_recombination_maps():
    q = RationalRing()
    out = recombine_division(
        MonicPoly.t_power(q, 2), LowPoly(q, 2, [1, 1]), TruncatedSeries(q, [1], 3)
    )
    assert out == TruncatedSeries(q, [1, 1, 1], 3)
    r = F5eps()
    eps = r.generators()["eps"]
    out = recombine_factorization(MonicPoly(r, [eps]), TruncatedSeries(r, [r.one], 3))
    assert out == TruncatedSeries(r, [eps, r.one, r.zero], 3)
    zero = recombine_division(
        MonicPoly.t_power(q, 2), LowPoly(q, 2, []), TruncatedSeries(q, [0], 4)
    )
    assert zero.is_zero()


def test_fiber_of_pure_power_is_trivial():
    f5 = PrimeFieldRing(5)
    assert kernel_fiber_basis(MonicPoly.t_power(f5, 3), 12) == []
    assert kernel_fiber_basis(MonicPoly.t_power(f5, 3), 2) == []  # too short to prepare t^3


def test_fiber_of_unit_constant_term_is_full():
    f5 = PrimeFieldRing(5)
    q = MonicPoly(f5, [1, 2, 3])
    pairs = kernel_fiber_basis(q, 12)
    assert len(pairs) == 3
    for a, v in pairs:
        assert recombine_division(q, a, v).is_zero()


def test_fiber_dimension_with_single_root_at_zero():
    f7 = PrimeFieldRing(7)
    # q = t(t-1)(t-2) = t^3 - 3t^2 + 2t
    q = MonicPoly(f7, [0, 2, -3])
    pairs = kernel_fiber_basis(q, 12)
    assert len(pairs) == 2
    assert brute_force_fiber_dimension(q, 12) == 2
    for a, v in pairs:
        assert recombine_division(q, a, v).is_zero()


def test_fiber_pairs_are_independent():
    f5 = PrimeFieldRing(5)
    q = MonicPoly(f5, [0, 1])  # t^2 + t: e = 1, d = 2
    pairs = kernel_fiber_basis(q, 12)
    assert len(pairs) == 1
    a, v = pairs[0]
    assert a.coeffs[1] == f5.one and not a.coeffs[0]


def test_ord_at_point_jumps_for_the_criterion_witness():
    f7 = PrimeFieldRing(7)
    minus_a = MultiPoly(1, {(1,): f7.from_int(-1)})
    one = MultiPoly.constant(1, f7.one)
    coeffs = [minus_a, one, MultiPoly(1, {})]
    assert ord_at_point(coeffs, (f7.from_int(0),)) == 1
    assert ord_at_point(coeffs, (f7.from_int(3),)) == 0


def test_ord_at_point_pure_power_and_infinite():
    f7 = PrimeFieldRing(7)
    zero = MultiPoly(1, {})
    one = MultiPoly.constant(1, f7.one)
    assert ord_at_point([zero, zero, one], (f7.from_int(4),)) == 2
    assert ord_at_point([zero, zero], (f7.from_int(4),)) is INFINITE_WITHIN_PRECISION


def test_ord_at_point_arity_mismatch():
    f7 = PrimeFieldRing(7)
    one = MultiPoly.constant(2, f7.one)
    with pytest.raises(ArityMismatch):
        ord_at_point([one], (f7.one,))


def test_every_monic_reduction_calls_divide_by_monic(monkeypatch):
    # Rebind divide_by_monic in every arclift module that holds it, as an
    # external tracer does, so that a second division loop would go unseen.
    original = weierstrass.divide_by_monic
    calls = []

    def counted(f, q):
        calls.append(q.degree)
        return original(f, q)

    for name, module in list(sys.modules.items()):
        if name == "arclift" or name.startswith("arclift."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    r = F5eps()
    eps = r.generators()["eps"]
    x = TruncatedSeries(r, [eps, r.one, eps, r.one], 6)  # q = t + eps after one round
    q = MonicPoly(r, [eps, r.one])
    cusp = PolyMap(("x", "y"), 1, [MultiPoly(2, {(0, 2): 1, (3, 0): -1})])
    xbar = ModQVector(q, [LowPoly(r, 2, [eps, r.one]), LowPoly(r, 2, [r.one, eps])])
    tq = MonicPoly(r, [r.zero] + list(q.low))
    xbar_tq = ModQVector(tq, [LowPoly(r, 3, [eps, r.one]), LowPoly(r, 3, [r.one])])
    xprime = (x, x)
    cases = {
        "strict_prepare": lambda: strict_prepare(x),
        "weierstrass_divide": lambda: weierstrass_divide(x, q),
        "divides_power_of_t": lambda: divides_power_of_t(MonicPoly(r, [eps]), 2),
        "mod_q_reduce": lambda: mod_q_reduce(x, q),
        "map_mod_poly": lambda: map_mod_poly(cusp, q, xbar),
        "expand_around": lambda: expand_around(cusp, q, xbar_tq, xprime),
        "integer_completion": lambda: integer_completion(3, 4),
    }
    for name, run in cases.items():
        calls.clear()
        run()
        assert calls, f"{name} divided without divide_by_monic"
