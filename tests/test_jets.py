import random

import pytest

from arclift import (
    ArtinianLocalRing,
    LowPoly,
    MonicPoly,
    MultiPoly,
    PolyMap,
    PrimeFieldRing,
    RationalRing,
    TruncatedSeries,
    expand_around,
    map_mod_poly,
    mod_q_reduce,
)
from arclift.errors import ArityMismatch, InsufficientPrecision
from arclift.jets import ModQVector

from _helpers import acceptance_rings, random_element, schoolbook_product


def test_reduce_power_past_modulus():
    f7 = PrimeFieldRing(7)
    x = TruncatedSeries.t_power(f7, 3, 6)
    out = mod_q_reduce(x, MonicPoly.t_power(f7, 2))
    assert out.value.is_zero()
    assert out.exact


def test_reduce_mod_shifted_square():
    f7 = PrimeFieldRing(7)
    x = TruncatedSeries(f7, [1, 1, 1], 3)
    out = mod_q_reduce(x, MonicPoly(f7, [-1]))  # t - 1... degree 1
    # 1 + t + t^2 at t = 1 is 3
    assert out.value == LowPoly(f7, 1, [3])
    assert not out.exact
    q2 = MonicPoly(f7, [-1, 0])  # t^2 - 1
    out2 = mod_q_reduce(x, q2)
    assert out2.value == LowPoly(f7, 2, [2, 1])


def test_reduce_constant_is_identity():
    q = RationalRing()
    x = TruncatedSeries(q, [5], 4)
    out = mod_q_reduce(x, MonicPoly.t_power(q, 2))
    assert out.value == LowPoly(q, 2, [5])


def test_reduce_needs_enough_precision():
    f7 = PrimeFieldRing(7)
    with pytest.raises(InsufficientPrecision):
        mod_q_reduce(TruncatedSeries(f7, [1], 1), MonicPoly.t_power(f7, 2))


def _identity_map(m):
    return PolyMap(
        tuple(f"y{i}" for i in range(m)),
        0,
        [MultiPoly.variable(i, m, 1) for i in range(m)],
    )


def test_map_identity_fixes_vectors():
    f5 = PrimeFieldRing(5)
    q = MonicPoly(f5, [1, 1])
    xbar = ModQVector(q, [LowPoly(f5, 2, [2, 3])])
    assert map_mod_poly(_identity_map(1), q, xbar) == xbar


def test_map_squares_and_reduces():
    q = RationalRing()
    modulus = MonicPoly.t_power(q, 2)
    square = PolyMap(("y",), 0, [MultiPoly(1, {(2,): 1})])
    a, b = 3, 4
    xbar = ModQVector(modulus, [LowPoly(q, 2, [a, b])])
    out = map_mod_poly(square, modulus, xbar)
    assert out.components[0] == LowPoly(q, 2, [a * a, 2 * a * b])


def test_map_constant():
    f5 = PrimeFieldRing(5)
    modulus = MonicPoly(f5, [2, 0])
    const = PolyMap(("y",), 0, [MultiPoly.constant(1, 3)])
    xbar = ModQVector(modulus, [LowPoly(f5, 2, [1, 1])])
    out = map_mod_poly(const, modulus, xbar)
    assert out.components[0] == LowPoly(f5, 2, [3, 0])


def _random_poly_map(rng, m, n, deg, max_coeff=4):
    polys = []
    for _ in range(n):
        terms = {}
        for _ in range(4):
            exps = tuple(rng.randrange(deg + 1) for _ in range(m))
            if sum(exps) > deg:
                continue
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                terms[exps] = terms.get(exps, 0) + c
        polys.append(MultiPoly(m, terms) + MultiPoly.constant(m, rng.randint(-2, 2)))
    return PolyMap(tuple(f"y{i}" for i in range(m)), m - n, polys)


def test_map_composition_is_functorial():
    rng = random.Random(9)
    f5 = PrimeFieldRing(5)
    for _ in range(40):
        d = rng.randrange(1, 4)
        q = MonicPoly(f5, [random_element(f5, rng) for _ in range(d)])
        f = _random_poly_map(rng, 2, 2, 2)
        g = _random_poly_map(rng, 2, 2, 2)
        composed_polys = [
            p.evaluate_or(list(f.polys), MultiPoly(2, {}), embed=lambda c: MultiPoly.constant(2, c))
            for p in g.polys
        ]
        gf = PolyMap(f.var_names, 0, composed_polys)
        xbar = ModQVector(
            q, [LowPoly(f5, d, [random_element(f5, rng) for _ in range(d)]) for _ in range(2)]
        )
        assert map_mod_poly(gf, q, xbar) == map_mod_poly(
            g, q, map_mod_poly(f, q, map_mod_poly(_identity_map(2), q, xbar))
        )


def test_map_over_pure_power_agrees_with_jets():
    # reduction mod t^d of f(series) equals f applied to the d-jet
    rng = random.Random(10)
    f5 = PrimeFieldRing(5)
    for _ in range(30):
        d = rng.randrange(1, 5)
        q = MonicPoly.t_power(f5, d)
        f = _random_poly_map(rng, 2, 2, 3)
        series = [
            TruncatedSeries(f5, [random_element(f5, rng) for _ in range(d)], d + 3)
            for _ in range(2)
        ]
        xbar = ModQVector(q, [mod_q_reduce(s, q).value for s in series])
        out = map_mod_poly(f, q, xbar)
        zero = TruncatedSeries.constant(f5.zero, d + 3)
        direct = [
            p.evaluate_or(
                series, zero, embed=lambda c: TruncatedSeries.constant(f5.from_int(c), d + 3)
            )
            for p in f.polys
        ]
        for got, s in zip(out.components, direct):
            assert got == mod_q_reduce(s, q).value


def test_expand_square_around_scalar_with_unit_modulus():
    # g(y) = y^2 around xbar = c with modulus t (q = 1): head c^2, tail 2c + t
    q = RationalRing()
    g = PolyMap(("y",), 0, [MultiPoly(1, {(2,): 1})])
    unit_modulus = MonicPoly(q, [])
    c = 3
    xbar = ModQVector(MonicPoly(q, [0]), [LowPoly(q, 1, [c])])
    xprime = (TruncatedSeries(q, [1], 6),)
    out = expand_around(g, unit_modulus, xbar, xprime)
    assert out.head.components[0] == LowPoly(q, 1, [c * c])
    assert out.tail[0] == TruncatedSeries(q, [2 * c, 1], 6)


def test_expand_square_around_constant_mod_t_squared():
    # q = t: w = (c + t^2)^2 = c^2 + 2c t^2 + t^4, head = c^2, tail = 2c + t^2
    q = RationalRing()
    g = PolyMap(("y",), 0, [MultiPoly(1, {(2,): 1})])
    modulus = MonicPoly.t_power(q, 1)
    c = 5
    xbar = ModQVector(MonicPoly.t_power(q, 2), [LowPoly(q, 2, [c])])
    xprime = (TruncatedSeries(q, [1], 8),)
    out = expand_around(g, modulus, xbar, xprime)
    assert out.head.components[0] == LowPoly(q, 2, [c * c, 0])
    assert out.tail[0] == TruncatedSeries(q, [2 * c, 0, 1], 7)


def test_expand_without_perturbation_reduces_the_value():
    f5 = PrimeFieldRing(5)
    g = PolyMap(("y",), 0, [MultiPoly(1, {(3,): 1})])
    modulus = MonicPoly(f5, [1])
    xbar = ModQVector(MonicPoly(f5, [0, 1]), [LowPoly(f5, 2, [1, 1])])
    xprime = (TruncatedSeries.constant(f5.zero, 8),)
    out = expand_around(g, modulus, xbar, xprime)
    # w = (1 + t)^3 with no perturbation: reconstruct exactly
    w = TruncatedSeries(f5, [1, 3, 3, 1], 9)
    n = out.tail[0].precision
    back = out.tail[0] * xbar.modulus.as_series(n) + out.head.components[0].as_series(n)
    assert back.agrees(w)


@pytest.mark.parametrize(
    "ring", [PrimeFieldRing(5), ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)], ids=repr
)
def test_expand_reconstructs_randomized(ring):
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randrange(0, 4)
        q = MonicPoly(ring, [random_element(ring, rng) for _ in range(d)])
        tq_coeffs = [ring.zero, *q.coeffs]
        g = _random_poly_map(rng, 2, 2, 3)
        xbar = ModQVector(
            MonicPoly(ring, tq_coeffs[:-1]),
            [LowPoly(ring, d + 1, [random_element(ring, rng) for _ in range(d + 1)]) for _ in range(2)],
        )
        n = d + 4
        xprime = tuple(
            TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
            for _ in range(2)
        )
        out = expand_around(g, q, xbar, xprime)
        # recompute g(xbar + t q x') directly and compare with head + t*q*tail
        moved = [
            c.as_series(n + 1) + (xp * q.as_series(n)).shift(1)
            for c, xp in zip(xbar.components, xprime)
        ]
        zero = TruncatedSeries.constant(ring.zero, n + 1)
        for i, poly in enumerate(g.polys):
            w = poly.evaluate_or(
                moved, zero, embed=lambda c: TruncatedSeries.constant(ring.from_int(c), n + 1)
            )
            m = out.tail[i].precision
            back = out.tail[i] * xbar.modulus.as_series(m) + out.head.components[i].as_series(m)
            assert back.agrees(w)


def test_expand_arity_checks():
    q = RationalRing()
    g = PolyMap(("y",), 0, [MultiPoly(1, {(2,): 1})])
    modulus = MonicPoly.t_power(q, 1)
    bad = ModQVector(MonicPoly.t_power(q, 1), [LowPoly(q, 1, [1])])
    with pytest.raises(ArityMismatch):
        expand_around(g, modulus, bad, (TruncatedSeries(q, [1], 6),))


def test_expand_needs_perturbation_precision_beyond_the_modulus():
    q = RationalRing()
    g = PolyMap(("y",), 0, [MultiPoly(1, {(2,): 1})])
    modulus = MonicPoly.t_power(q, 2)
    xbar = ModQVector(MonicPoly.t_power(q, 3), [LowPoly(q, 3, [1])])
    with pytest.raises(InsufficientPrecision):
        expand_around(g, modulus, xbar, (TruncatedSeries(q, [1], 2),))


# -- oracle: evaluate term by term, reducing after every product ---------------

def _synthetic_division(coeffs, low, zero):
    """(quotient, remainder) of a ring-element list by the monic with low
    coefficients ``low``, by long division from the top degree."""
    d = len(low)
    rem = list(coeffs) + [zero] * (d - len(coeffs))
    quot = [zero] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        quot[i - d] = c
        for j, qj in enumerate(low):
            rem[i - d + j] = rem[i - d + j] - c * qj
    return quot, rem[:d]


def _oracle_eval(poly, comps, ring, reduce):
    """poly at the coefficient lists ``comps``, applying ``reduce`` to the
    embedded coefficient and after every product."""
    total = reduce([])
    for exps, c in poly.terms.items():
        term = reduce([ring.from_int(c)])
        for comp, k in zip(comps, exps):
            for _ in range(k):
                term = reduce(schoolbook_product(term, comp, ring))
        size = max(len(total), len(term))
        total = [
            (total[i] if i < len(total) else ring.zero) + (term[i] if i < len(term) else ring.zero)
            for i in range(size)
        ]
    return total


def _oracle_map(rng, m, n, deg):
    """A random map of total degree <= deg (deg = 0: a constant map); some
    equations come out zero."""
    polys = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randrange(4)):
            exps = tuple(rng.randrange(deg + 1) for _ in range(m))
            if sum(exps) <= deg:
                terms[exps] = rng.randint(-3, 3)
        polys.append(MultiPoly(m, terms))
    return PolyMap(tuple(f"y{i}" for i in range(m)), m - n, polys)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_map_mod_poly_matches_reduce_after_every_product(ring):
    rng = random.Random(13)
    for d in range(6):
        for k in range(6):
            low = [random_element(ring, rng) for _ in range(d)]
            q = MonicPoly(ring, low)
            m = rng.randrange(1, 3)
            f = _oracle_map(rng, m, rng.randrange(1, m + 1), 0 if k == 0 else 4)
            comps = [[random_element(ring, rng) for _ in range(d)] for _ in range(m)]
            out = map_mod_poly(f, q, ModQVector(q, [LowPoly(ring, d, c) for c in comps]))

            def reduce(coeffs):
                return _synthetic_division(coeffs, low, ring.zero)[1]

            want = [_oracle_eval(p, comps, ring, reduce) for p in f.polys]
            assert [list(c.coeffs) for c in out.components] == want


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_expand_around_matches_truncate_after_every_product(ring):
    rng = random.Random(14)
    for d in range(6):
        for k in range(4):
            low = [random_element(ring, rng) for _ in range(d)]
            q = MonicPoly(ring, low)
            tq_low = [ring.zero] + low
            m = rng.randrange(1, 3)
            g = _oracle_map(rng, m, rng.randrange(1, m + 1), 0 if k == 0 else 4)
            prec = d + 1 + rng.randrange(3)
            xbar = [[random_element(ring, rng) for _ in range(d + 1)] for _ in range(m)]
            xprime = [[random_element(ring, rng) for _ in range(prec)] for _ in range(m)]
            out = expand_around(
                g,
                q,
                ModQVector(MonicPoly(ring, tq_low), [LowPoly(ring, d + 1, c) for c in xbar]),
                [TruncatedSeries(ring, c, prec) for c in xprime],
            )
            # x' read as an exact polynomial: xbar + t*q*x' has degree <= d + prec,
            # so truncating at n after every product loses nothing.  The exact
            # value's remainder is g(xbar) mod t*q, and its quotient is certified
            # below order prec (an extension of x' moves it by t^prec)
            n = 4 * (d + prec) + 1
            moved = []
            for c, xp in zip(xbar, xprime):
                step = [ring.zero] + schoolbook_product(xp, list(q.coeffs), ring)
                moved.append([a + b for a, b in zip(c + [ring.zero] * n, step + [ring.zero] * n)])

            def truncate(coeffs):
                return coeffs[:n]

            def reduce(coeffs):
                return _synthetic_division(coeffs, tq_low, ring.zero)[1]

            for i, poly in enumerate(g.polys):
                w = _oracle_eval(poly, moved, ring, truncate)
                quot, rem = _synthetic_division(w + [ring.zero] * (n - len(w)), tq_low, ring.zero)
                assert list(out.head.components[i].coeffs) == rem
                # the head is g(xbar) mod t*q, reduced after every product
                assert rem == _oracle_eval(poly, xbar, ring, reduce)
                assert out.tail[i] == TruncatedSeries(ring, quot, prec - d)


def test_expand_around_head_does_not_depend_on_the_perturbation_precision():
    # g = y^3 around xbar = 1 + t, q = t + 1, x' = 0: (1 + t)^3 mod t*(t + 1)
    # is t + 1 and the tail is ((1 + t)^3 - (1 + t)) / (t*(t + 1)) = 2 + t,
    # whether x' is known mod t^2, t^3 or t^4
    f5 = PrimeFieldRing(5)
    g = PolyMap(("y",), 0, [MultiPoly(1, {(3,): 1})])
    q = MonicPoly(f5, [1])
    xbar = ModQVector(MonicPoly(f5, [0, 1]), [LowPoly(f5, 2, [1, 1])])
    for prec in (2, 3, 4):
        out = expand_around(g, q, xbar, (TruncatedSeries.constant(f5.zero, prec),))
        assert out.head.components[0] == LowPoly(f5, 2, [1, 1])
        assert out.tail[0] == TruncatedSeries(f5, [2, 1], prec - 1)


def test_equal_vectors_and_expansions_hash_equal():
    # g = y^3 around xbar = 1 + t mod t*q, q = t + 1, over Fp(5)
    f5 = PrimeFieldRing(5)
    g = PolyMap(("y",), 0, [MultiPoly(1, {(3,): 1})])
    q = MonicPoly(f5, [1])

    def expansion():
        xbar = ModQVector(MonicPoly(f5, [0, 1]), [LowPoly(f5, 2, [1, 1])])
        return expand_around(g, q, xbar, (TruncatedSeries(f5, [0, 2], 4),))

    a, b = expansion(), expansion()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.head == b.head and hash(a.head) == hash(b.head)
    assert len({a, b}) == 1 and len({a.head, b.head}) == 1
    # the modulus and the component count enter the hash
    other = ModQVector(MonicPoly(f5, [0, 1]), [LowPoly(f5, 2, [1, 1])] * 2)
    assert other != a.head
