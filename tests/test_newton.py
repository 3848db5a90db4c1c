import itertools
import random
from fractions import Fraction

import pytest

from arclift import (
    ArcPoint,
    ArityMismatch,
    ArtinianLocalRing,
    CongruenceFailed,
    DegenerateJacobian,
    InsufficientPrecision,
    IntegersMod,
    MultiPoly,
    PolyMap,
    PrecisionExhausted,
    PrimeFieldRing,
    RationalRing,
    ResidualNonzero,
    TruncatedSeries,
    arc_lift,
    check_congruence,
    congruence_forward,
    fixed_point_solve,
    jacobian_data,
    newton,
)

from _helpers import catalan_numbers, correction_hd, random_element, solver_map


def cusp_map():
    # y^2 - x^3 with one passive and one moving coordinate
    return PolyMap(("x1", "y1"), 1, [MultiPoly(2, {(0, 2): 1, (3, 0): -1})])


def cusp_arc(ring, y_coeffs, precision):
    pm = cusp_map()
    x = TruncatedSeries.t_power(ring, 2, precision)
    y = TruncatedSeries(ring, y_coeffs, precision)
    return ArcPoint(pm, (x, y))


def test_jacobian_of_cusp():
    jd = jacobian_data(cusp_map())
    assert jd.matrix[0][0] == MultiPoly(2, {(0, 1): 2})
    assert jd.adjugate[0][0] == MultiPoly.constant(2, 1)
    assert jd.det == MultiPoly(2, {(0, 1): 2})


def test_jacobian_of_linear_projection():
    pm = PolyMap(("y1", "y2"), 0, [MultiPoly.variable(0, 2, 1), MultiPoly.variable(1, 2, 1)])
    jd = jacobian_data(pm)
    one = MultiPoly.constant(2, 1)
    zero = MultiPoly(2, {})
    assert jd.matrix == ((one, zero), (zero, one))
    assert jd.adjugate == ((one, zero), (zero, one))
    assert jd.det == one


def test_jacobian_cramer_identity_nontrivial():
    # verified symbolically at construction; a non-diagonal 2x2 instance
    f1 = MultiPoly(3, {(0, 2, 0): 1, (1, 0, 1): 1})  # y1^2 + x*y2
    f2 = MultiPoly(3, {(0, 1, 1): 1, (3, 0, 0): -1})  # y1*y2 - x^3
    jd = jacobian_data(PolyMap(("x", "y1", "y2"), 1, [f1, f2]))
    assert jd.det == MultiPoly(3, {(0, 2, 0): 2, (1, 0, 1): -1})  # 2*y1^2 - x*y2


def test_jacobian_cramer_identity_three_by_three():
    # a coupled 3x3 block; the constructor verifies B*adj = adj*B = det*Id
    polys = [
        MultiPoly(4, {(0, 2, 0, 0): 1, (1, 0, 1, 0): 1}),
        MultiPoly(4, {(0, 0, 1, 1): 1, (2, 0, 0, 0): -1}),
        MultiPoly(4, {(0, 1, 0, 2): 1, (0, 0, 0, 1): 1}),
    ]
    jd = jacobian_data(PolyMap(("x", "y1", "y2", "y3"), 1, polys))
    assert len(jd.adjugate) == 3
    assert not jd.det.is_zero()


def test_degenerate_jacobian_detected():
    pm = PolyMap(("x1", "y1"), 1, [MultiPoly(2, {(1, 0): 1})])  # f = x1, no y
    with pytest.raises(DegenerateJacobian):
        jacobian_data(pm)


def _random_map(rng, split, n):
    """n random equations in split + n variables, total degree <= 4, with
    int or Fraction coefficients."""
    m = split + n
    exponents = [e for e in itertools.product(range(5), repeat=m) if sum(e) <= 4]
    polys = []
    for _ in range(n):
        terms = {}
        for e in rng.sample(exponents, rng.randint(1, 5)):
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[e] = Fraction(c, rng.randint(2, 5)) if rng.random() < 0.5 else c
        polys.append(MultiPoly(m, terms))
    return PolyMap([f"x{i}" for i in range(m)], split, polys)


@pytest.mark.parametrize("split", [0, 1, 2])
def test_taylor_table_matches_sympy_expansion(split):
    # jd.taylor[i] is f_i(x + v) on the moving block, and jd.matrix its
    # linear part; sympy expands and differentiates independently
    sympy = pytest.importorskip("sympy")
    rng = random.Random(700 + split)
    checked = 0
    while checked < 12:
        n = rng.randint(1, 2)
        pm = _random_map(rng, split, n)
        try:
            jd = jacobian_data(pm)
        except DegenerateJacobian:
            continue
        xs = sympy.symbols(f"x0:{pm.m}")
        vs = sympy.symbols(f"v0:{n}")

        def sym(poly):
            return sum(
                (sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c)
                * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                for e, c in poly.terms.items()
            )

        shift = {xs[split + j]: xs[split + j] + vs[j] for j in range(n)}
        for i, f in enumerate(pm.polys):
            expanded = sympy.Poly(sympy.expand(sym(f).subs(shift, simultaneous=True)), *vs)
            expected = {a: sympy.expand(c) for a, c in expanded.as_dict().items()}
            table = jd.taylor[i]
            assert table.nvars == n
            assert set(table.terms) == set(expected)
            for a, coeff in table.terms.items():
                assert sympy.expand(sym(coeff) - expected[a]) == 0
            for j in range(n):
                assert sympy.expand(sym(jd.matrix[i][j]) - sympy.diff(sym(f), xs[split + j])) == 0
        checked += 1


def test_jacobian_data_is_hashable():
    pm = PolyMap(
        ("x", "y1", "y2"),
        1,
        [
            MultiPoly(3, {(0, 2, 0): 1, (1, 0, 1): Fraction(1, 2)}),
            MultiPoly(3, {(0, 1, 1): 1, (3, 0, 0): -1}),
        ],
    )
    jd = jacobian_data(pm)
    assert hash(jd) == hash(jacobian_data(pm))
    assert {jd: 1}[jacobian_data(pm)] == 1


# With one equation adj = 1, so the arc's adjugate remainder coefficients
# (``remainder_at``, in the order of ``jacobian.remainder[0].terms``) are
# those of the Taylor remainder H.


def test_taylor_remainder_of_linear_map_vanishes():
    q = RationalRing()
    pm = PolyMap(("x1", "y1"), 1, [MultiPoly(2, {(0, 1): 2, (1, 0): 3})])
    arc = ArcPoint(pm, (TruncatedSeries.t_power(q, 1, 6), TruncatedSeries(q, [1], 6)))
    assert arc.jacobian.remainder == (MultiPoly(1, {}),)
    assert arc.remainder_at == ((),)


def test_taylor_remainder_of_cusp_is_the_pure_square():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1], 8)
    assert list(arc.jacobian.remainder[0].terms) == [(2,)]
    assert arc.remainder_at == ((TruncatedSeries(q, [1], 8),),)


def test_taylor_remainder_weights_cubic_terms_once():
    # f = y^3: expansion parts are 3y^2 v, 3y v^2, v^3; the remainder must be
    # H(v) = 3y v^2 + (t*det) v^3 with det = 3y^2
    q = RationalRing()
    pm = PolyMap(("y",), 0, [MultiPoly(1, {(3,): 1})])
    y = TruncatedSeries(q, [1, 1], 8)
    arc = ArcPoint(pm, (y,))
    h = dict(zip(arc.jacobian.remainder[0].terms, arc.remainder_at[0]))
    assert set(h) == {(2,), (3,)}
    assert h[(2,)] == y.scale(q.from_int(3))
    det = arc.det_at
    assert h[(3,)] == det.shift(1).truncate(8)


@pytest.mark.parametrize("ring", [PrimeFieldRing(5), RationalRing()], ids=repr)
def test_taylor_identity_randomized(ring):
    # f(x + t*det*v) = f(x) + t*det*B(x;v) + (t*det)^2 H(x;v), times adj(x):
    # adj*f(x + t*det*v) = adj*f(x) + t*det^2*v + (t*det)^2 h(v) at precision
    # 12, with h = adj*H from the arc's solver map
    rng = random.Random(21)
    pm = PolyMap(
        ("x1", "y1", "y2"),
        1,
        [
            MultiPoly(3, {(0, 2, 0): 1, (0, 0, 1): 1, (2, 0, 0): -1}),
            MultiPoly(3, {(0, 1, 1): 1, (1, 0, 0): -1, (0, 0, 3): 2}),
        ],
    )
    n = 12
    for _ in range(25):
        comps = tuple(
            TruncatedSeries(ring, [random_element(ring, rng) for _ in range(4)], n)
            for _ in range(3)
        )
        arc = ArcPoint(pm, comps)
        det = arc.det_at
        vs = tuple(
            TruncatedSeries(ring, [random_element(ring, rng) for _ in range(3)], n)
            for _ in range(2)
        )
        h_at, _ = arc.correction(vs, 0)
        tdet_v = tuple((det * v).shift(1) for v in vs)
        moved = ArcPoint(
            pm,
            (
                comps[0],
                comps[1] + tdet_v[0].truncate(n),
                comps[2] + tdet_v[1].truncate(n),
            ),
        )
        tdet_sq = (det * det).shift(2)
        adj = arc.adjugate_at
        for i in range(2):
            lhs = adj[i][0] * moved.values[0] + adj[i][1] * moved.values[1]
            rhs = (
                adj[i][0] * arc.values[0]
                + adj[i][1] * arc.values[1]
                + (det * det * vs[i]).shift(1).truncate(n)
                + (tdet_sq * h_at[i]).truncate(n)
            )
            assert lhs.agrees(rhs, n)


def test_congruence_of_exact_solution_is_zero():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1], 16)
    v1 = check_congruence(arc)
    assert v1[0].is_zero()


def test_congruence_on_perturbed_cusp_matches_hand_series():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1, 1], 16)
    (v1,) = check_congruence(arc)
    # independent series computation: defect/(t*det^2) = (2+t)/(4(1+t)^2),
    # and the implemented convention flips the sign.
    n = v1.precision
    one_plus_t = TruncatedSeries(q, [1, 1], n)
    inv = one_plus_t.invert()
    expected = (
        TruncatedSeries(q, [2, 1], n)
        * inv
        * inv
        * TruncatedSeries.constant(q.element(Fraction(1, 4)), n)
    )
    assert v1 == -expected
    assert v1.coeffs[0] == q.element(Fraction(-1, 2))
    assert v1.precision == 16 - 7  # N - 2*rho - 1 over a field


def test_congruence_failure_carries_a_pole_witness():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 2], 16)
    with pytest.raises(CongruenceFailed) as info:
        check_congruence(arc)
    assert info.value.component == 0
    assert info.value.witness.first_pole()[0] == -1


def test_congruence_needs_precision():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1, 1], 8)
    with pytest.raises(PrecisionExhausted):
        check_congruence(arc)


def square(v):
    """h(v) = v^2 in one variable, with its Jacobian ``double``."""
    return (v[0] * v[0],)


def double(v):
    return ((v[0] + v[0],),)


def zero_jacobian(v):
    k = min(x.precision for x in v)
    return tuple(tuple(TruncatedSeries(x.ring, [], k) for _ in v) for x in v)


def test_fixed_point_trivial_cases():
    q = RationalRing()
    v1 = (TruncatedSeries(q, [1, 2, 3], 8),)
    hd = solver_map(lambda v: (TruncatedSeries.constant(q.zero, 8),), zero_jacobian)
    out = fixed_point_solve(hd, v1, 8)
    assert out[0] == v1[0].truncate(8)
    zero = (TruncatedSeries.constant(q.zero, 8),)
    out = fixed_point_solve(solver_map(square, double), zero, 8)
    assert out[0].is_zero()


def test_fixed_point_generates_signed_catalan_numbers():
    q = RationalRing()
    v1 = (TruncatedSeries(q, [1], 10),)
    (v0,) = fixed_point_solve(solver_map(square, double), v1, 10)
    cs = catalan_numbers(10)
    expected = [(-1) ** k * cs[k] for k in range(10)]
    assert v0 == TruncatedSeries(q, expected, 10)
    assert expected == [1, -1, 2, -5, 14, -42, 132, -429, 1430, -4862]


def contraction_solve(h, v1, precision):
    """Oracle: v <- v1 - t*h(v); pass k is exact mod t^k, so it runs there."""
    v = [x.truncate(1) for x in v1]
    for k in range(2, precision + 1):
        hv = h([TruncatedSeries(x.ring, x.coeffs, k - 1) for x in v])
        v = [v1[i].truncate(k) - hv[i].shift(1) for i in range(len(v))]
    return tuple(v)


def random_series(ring, precision, rng):
    # small integers over Q: random fractions make the oracle's cost explode
    if ring == RationalRing():
        return TruncatedSeries(ring, [rng.randint(-3, 3) for _ in range(precision)])
    return TruncatedSeries(ring, [random_element(ring, rng) for _ in range(precision)])


def random_polynomial_h(ring, n, precision, rng, monomials=None):
    """A random h: R[[t]]^n -> R[[t]]^n with series coefficients, of degree
    <= 2 unless ``monomials`` lists each equation's exponents, evaluated
    term by term here, and ``correction_hd`` on the same polynomials."""
    if monomials is None:
        choices = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
        monomials = [rng.sample(choices, min(len(choices), 4)) for _ in range(n)]
    polys = [{e: random_series(ring, precision, rng) for e in exps} for exps in monomials]

    def h(v):
        k = min(x.precision for x in v)
        out = []
        for terms in polys:
            acc = TruncatedSeries(ring, [], k)
            for e, c in terms.items():
                term = c.truncate(k)
                for var, power in enumerate(e):
                    for _ in range(power):
                        term = term * v[var]
                acc = acc + term
            out.append(acc)
        return tuple(out)

    return h, correction_hd(polys)


def probe_jacobian(h, v, k):
    """Reference Dh(v) mod t^k from n + 1 calls of h alone, as the solver
    once built it: with p = k + 1 and w = p + k,
    (h(v + t^p e_j) - h(v)) mod t^w = t^p Dh(v) e_j mod t^w, since the
    t^(2p) terms lie beyond w.  Needs v known to w orders."""
    p, w = k + 1, 2 * k + 1
    v = tuple(x.truncate(w) for x in v)
    bump = TruncatedSeries.t_power(v[0].ring, p, w)
    hv = h(v)
    cols = [h(tuple(x + bump if i == j else x for i, x in enumerate(v))) for j in range(len(v))]
    return tuple(
        tuple((cols[j][i] - hv[i]).drop(p) for j in range(len(v))) for i in range(len(v))
    )


@pytest.mark.parametrize(
    "ring",
    [RationalRing(), PrimeFieldRing(5), ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)],
    ids=repr,
)
@pytest.mark.parametrize("n", [1, 2])
def test_correction_jacobian_matches_probe_differences(ring, n):
    rng = random.Random(50 + n)
    for k in (1, 2, 7, 20):
        h, hd = random_polynomial_h(ring, n, 2 * k + 1, rng)
        v = tuple(random_series(ring, 2 * k + 1, rng) for _ in range(n))
        expected = probe_jacobian(h, v, k)
        hv, dh = hd(v, k)
        assert tuple(hv) == h(v)
        assert tuple(map(tuple, dh)) == expected
        # Dh mod t^k reads v mod t^k only
        assert tuple(map(tuple, hd(tuple(x.truncate(k) for x in v), k)[1])) == expected


@pytest.mark.parametrize(
    "ring",
    [RationalRing(), PrimeFieldRing(5), ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)],
    ids=repr,
)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("precision", [1, 2, 3, 17, 64])
def test_fixed_point_matches_contraction_oracle(ring, n, precision):
    rng = random.Random(1000 * n + precision)
    for _ in range(2 if precision < 64 else 1):
        h, hd = random_polynomial_h(ring, n, precision, rng)
        v1 = tuple(random_series(ring, precision, rng) for _ in range(n))
        assert fixed_point_solve(hd, v1, precision) == contraction_solve(h, v1, precision)


def newton_ladder(precision):
    """The precisions ``fixed_point_solve`` certifies, round by round:
    from 1, p -> min(2p + 1, precision)."""
    ladder = [1]
    while ladder[-1] < precision:
        ladder.append(min(2 * ladder[-1] + 1, precision))
    return ladder


@pytest.mark.parametrize("n", [1, 2])
def test_fixed_point_calls_h_logarithmically(n):
    ring = PrimeFieldRing(5)
    for precision, rounds, dh_rounds in [
        (128, 7, 6),  # 1, 3, 7, ..., 127, 128: the last round has no Dh
        (121, 6, 6),  # 1, 3, 7, 15, 31, 63, 121
        (57, 5, 5),  # 1, 3, 7, 15, 31, 57
    ]:
        rng = random.Random(7)
        _, inner = random_polynomial_h(ring, n, precision, rng)
        calls = []

        def hd(v, k):
            calls.append((min(x.precision for x in v), k))
            return inner(v, k)

        v1 = tuple(random_series(ring, precision, rng) for _ in range(n))
        fixed_point_solve(hd, v1, precision)
        # ceil(log2(precision + 1)) - 1 rounds, then the certificate
        assert len(newton_ladder(precision)) - 1 == rounds
        assert len(calls) == rounds + 1
        assert calls[-1] == (precision, 0) and max(kh for kh, _ in calls[:-1]) < precision
        dh_at = [k for _, k in calls if k]
        assert len(dh_at) == dh_rounds
        for kh, k in calls:  # Dh is asked for below the precision of h
            assert k < kh


def test_fixed_point_final_certificate_can_fail():
    # h is not a power-series map: it only shows t^6 once given 8 known
    # coefficients, so every Newton round agrees and the final check fails
    q = RationalRing()

    def h(v):
        k = v[0].precision
        return (TruncatedSeries.t_power(q, 6, k) if k == 8 else TruncatedSeries(q, [], k),)

    with pytest.raises(RuntimeError, match="Newton certificate failed"):
        fixed_point_solve(solver_map(h, zero_jacobian), (TruncatedSeries(q, [1, 2], 8),), 8)


def test_fixed_point_residual_certificate_can_fail():
    # h(v) = t^(k-1) at precision k moves with the truncation, so a later
    # round's residual no longer vanishes to the order already certified
    q = RationalRing()

    def h(v):
        k = v[0].precision
        return (TruncatedSeries.t_power(q, k - 1, k),)

    with pytest.raises(RuntimeError, match="residual"):
        fixed_point_solve(solver_map(h, zero_jacobian), (TruncatedSeries(q, [1, 2], 8),), 8)


def test_fixed_point_validates_h():
    q = RationalRing()
    v1 = (TruncatedSeries(q, [1, 2], 8),) * 2
    with pytest.raises(ArityMismatch):
        fixed_point_solve(solver_map(lambda v: (v[0],), zero_jacobian), v1, 8)
    with pytest.raises(ArityMismatch):
        fixed_point_solve(solver_map(lambda v: v + v, zero_jacobian), v1, 8)
    with pytest.raises(InsufficientPrecision):
        fixed_point_solve(solver_map(lambda v: tuple(x.truncate(1) for x in v), zero_jacobian), v1, 8)
    with pytest.raises(ArityMismatch):
        fixed_point_solve(solver_map(lambda v: v, zero_jacobian), (), 8)


def test_fixed_point_validates_dh():
    q = RationalRing()
    v1 = (TruncatedSeries(q, [1, 2], 8),) * 2

    def h(v):
        return v[0] * v[1], v[1] * v[1]

    def dh(v):
        return (v[1], v[0]), (zero_jacobian(v)[1][0], v[1] + v[1])

    assert fixed_point_solve(solver_map(h, dh), v1, 8) == contraction_solve(h, v1, 8)
    with pytest.raises(ArityMismatch):  # one row for two equations
        fixed_point_solve(solver_map(h, lambda v: dh(v)[:1]), v1, 8)
    with pytest.raises(ArityMismatch):  # rows of one entry
        fixed_point_solve(solver_map(h, lambda v: tuple(row[:1] for row in dh(v))), v1, 8)

    def short(v):  # entries known mod t only
        return tuple(tuple(x.truncate(1) for x in row) for row in dh(v))

    with pytest.raises(InsufficientPrecision):
        fixed_point_solve(solver_map(h, short), v1, 8)


@pytest.mark.parametrize("precision", [8, 10, 64])
def test_fixed_point_wrong_jacobian_fails_the_residual_certificate(precision):
    # the zero Jacobian for h = v^2 leaves each round's update right only
    # one order past what was certified, so the next round's residual is off
    q = RationalRing()
    v1 = (TruncatedSeries(q, [1], precision),)
    with pytest.raises(RuntimeError, match="residual"):
        fixed_point_solve(solver_map(square, zero_jacobian), v1, precision)


@pytest.mark.parametrize(
    "ring",
    [RationalRing(), PrimeFieldRing(5), IntegersMod(27), ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)],
    ids=repr,
)
@pytest.mark.parametrize(
    "shape, monomials",
    [
        ("diagonal", [[(2, 0)], [(0, 2)]]),  # the space curve's h
        ("lower", [[(2, 0), (1, 0), (3, 0)], [(1, 1), (2, 0), (0, 2), (0, 0)]]),
    ],
)
def test_fixed_point_on_diagonal_and_lower_triangular_systems(ring, shape, monomials):
    rng = random.Random(len(shape))
    for precision in (2, 9, 33, 64):
        h, hd = random_polynomial_h(ring, 2, precision, rng, monomials)
        v1 = tuple(random_series(ring, precision, rng) for _ in range(2))
        assert fixed_point_solve(hd, v1, precision) == contraction_solve(h, v1, precision)
        k = (precision - 1) // 2
        if k:
            v = tuple(random_series(ring, precision, rng) for _ in range(2))
            _, dh = hd(v, k)
            assert tuple(map(tuple, dh)) == probe_jacobian(h, v, k)
            assert dh[0][1].is_zero() and (shape == "lower" or dh[1][0].is_zero())


@pytest.mark.parametrize(
    "ring", [RationalRing(), PrimeFieldRing(5), ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)],
    ids=repr,
)
def test_fixed_point_fills_in_a_zero_jacobian_entry(ring):
    # dh[1][2] is identically zero, and known to one order fewer than the
    # shifted entries around it, but eliminating v0 from row 1 fills it in
    # from dh[1][0] and dh[0][2]
    monomials = [[(1, 0, 1), (2, 0, 0)], [(1, 1, 0), (0, 2, 0)], [(0, 0, 2), (0, 1, 1)]]
    rng = random.Random(3)
    for precision in (9, 33, 64):
        h, hd = random_polynomial_h(ring, 3, precision, rng, monomials)
        v1 = tuple(random_series(ring, precision, rng) for _ in range(3))
        assert fixed_point_solve(hd, v1, precision) == contraction_solve(h, v1, precision)
        _, dh = hd(v1, 4)
        assert dh[1][2].is_zero() and dh[1][0] and dh[0][2]


@pytest.mark.parametrize("precision", [8, 64])
def test_fixed_point_with_a_wrong_dh_from_its_plan_fails_the_residual_certificate(precision):
    q = RationalRing()
    hd = correction_hd([{(2,): TruncatedSeries(q, [1], precision)}])

    def doubled(v, k):  # h = v^2 right, Dh = 4v wrong
        hv, dh = hd(v, k)
        return hv, dh and [[x + x for x in row] for row in dh]

    v1 = (TruncatedSeries(q, [1], precision),)
    (v0,) = fixed_point_solve(hd, v1, precision)  # signed Catalan numbers
    assert v0 == TruncatedSeries(q, [(-1) ** k * c for k, c in enumerate(catalan_numbers(precision))])
    with pytest.raises(RuntimeError, match="residual"):
        fixed_point_solve(doubled, v1, precision)


@pytest.mark.parametrize(
    "ring", [RationalRing(), PrimeFieldRing(5), ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)],
    ids=repr,
)
@pytest.mark.parametrize("n", [1, 2])
def test_fixed_point_inverts_each_pivot_once_per_solve(ring, n, monkeypatch):
    # the first round with a Jacobian inverts its n pivots; later rounds
    # refine those inverses, so the count does not grow with the rounds
    invert = TruncatedSeries.invert
    for precision in (16, 128):
        rng = random.Random(precision + n)
        h, hd = random_polynomial_h(ring, n, precision, rng)
        v1 = tuple(random_series(ring, precision, rng) for _ in range(n))
        calls = []
        with monkeypatch.context() as m:
            m.setattr(TruncatedSeries, "invert", lambda x: calls.append(x.precision) or invert(x))
            v0 = fixed_point_solve(hd, v1, precision)
        assert calls == [2] * n  # the round from t to t^3, the first with Dh
        if precision == 16:
            assert v0 == contraction_solve(h, v1, precision)


@pytest.mark.parametrize("precision", [15, 16, 63, 64])
@pytest.mark.parametrize("changed", ["first", "middle", "last"])
def test_fixed_point_with_a_dh_that_moves_below_p_fails_a_certificate(precision, changed):
    # Dh = 2v for h = v^2, plus 1 in one round: that round's Id + t*Dh
    # differs from its neighbours' at order 1, below the precision p + 1
    # they share, so the carried pivot inverse is wrong as well as the
    # matrix.  A change in the last round of the ladder is left to the
    # final certificate; at 16 and 64 that round, from 2^r - 1 to 2^r,
    # has no Dh, so the last change is caught by its residual check.
    q = RationalRing()
    hd = correction_hd([{(2,): TruncatedSeries(q, [1], precision)}])
    ladder = newton_ladder(precision)
    ks = [hi - lo - 1 for lo, hi in zip(ladder, ladder[1:]) if hi - lo - 1]
    target = {"first": ks[0], "middle": ks[len(ks) // 2], "last": ks[-1]}[changed]
    final = ladder[-1] - ladder[-2] - 1

    def moved(v, k):
        hv, dh = hd(v, k)
        if k == target:
            dh = [[x + TruncatedSeries(q, [1], k) for x in row] for row in dh]
        return hv, dh

    v1 = (TruncatedSeries(q, [1], precision),)
    match = "Newton certificate failed" if target == final else "residual certificate failed"
    with pytest.raises(RuntimeError, match=match):
        fixed_point_solve(moved, v1, precision)


def test_jacobian_data_is_cached_per_map(monkeypatch):
    calls = []
    real = newton.jacobian_data
    monkeypatch.setattr(newton, "jacobian_data", lambda pm: calls.append(pm) or real(pm))
    arc = cusp_arc(RationalRing(), [0, 0, 0, 1, 1], 16)
    result = arc_lift(arc, 14)
    assert len(calls) == 1
    assert result.arc.jacobian is arc.jacobian is arc.map.jacobian


def test_degenerate_map_raises_on_every_access():
    pm = PolyMap(("x1", "y1"), 1, [MultiPoly(2, {(1, 0): 1})])
    q = RationalRing()
    arc = (TruncatedSeries.t_power(q, 1, 4), TruncatedSeries(q, [1], 4))
    for _ in range(2):
        with pytest.raises(DegenerateJacobian):
            ArcPoint(pm, arc)


@pytest.mark.parametrize(
    "ring", [RationalRing(), PrimeFieldRing(5)], ids=repr
)
def test_forward_then_solve_roundtrips(ring):
    rng = random.Random(31)
    arc = cusp_arc(ring, [0, 0, 0, 1, 1], 16)
    hd = arc.correction
    for _ in range(30):
        v0 = (TruncatedSeries(ring, [random_element(ring, rng) for _ in range(10)], 12),)
        v1 = congruence_forward(arc, v0)
        back = fixed_point_solve(hd, v1, min(x.precision for x in v1))
        assert back[0].agrees(v0[0])


def test_forward_map_of_zero_correction_on_exact_quadratic_arc():
    # H is homogeneous of degree >= 2, so H(0) = 0 and v1 = 0
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1], 16)
    zero = (TruncatedSeries.constant(q.zero, 12),)
    v1 = congruence_forward(arc, zero)
    assert v1[0].is_zero()


def test_lift_of_exact_arc_is_identity():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1], 16)
    result = arc_lift(arc)
    assert all(v.is_zero() for v in result.v0)
    assert result.arc.components[1].agrees(arc.components[1])


def test_lift_of_perturbed_cusp_lands_on_the_exact_branch():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1, 1], 16)
    result = arc_lift(arc)
    assert result.precision == 9
    # v0 = -1/(2(1+t)), alternating halves
    half = q.element(Fraction(1, 2))
    expected_v0 = TruncatedSeries(q, [(-half if k % 2 == 0 else half) for k in range(9)], 9)
    assert result.v0[0] == expected_v0
    # the lifted moving coordinate is exactly t^3
    assert result.arc.components[1] == TruncatedSeries.t_power(q, 3, 10)
    assert result.arc.values[0].is_zero()


def test_lift_perturbed_dual_number_arc():
    r = ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)
    eps = r.generators()["eps"]
    n = 26
    arc = ArcPoint(
        cusp_map(),
        (
            TruncatedSeries.t_power(r, 2, n),
            TruncatedSeries(r, [r.zero] * 3 + [r.one, eps], n),
        ),
    )
    result = arc_lift(arc)
    assert result.precision == n - 14  # (2*rho+1)*e orders consumed
    assert result.arc.values[0].is_zero()
    assert result.arc.components[1] == TruncatedSeries.t_power(r, 3, result.precision + 1)


def test_lift_respects_the_passive_block():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1, 1], 16)
    result = arc_lift(arc)
    assert result.arc.components[0].agrees(arc.components[0])


def test_lift_with_explicit_working_precision():
    q = RationalRing()
    arc = cusp_arc(q, [0, 0, 0, 1, 1], 20)
    full = arc_lift(arc)
    trimmed = arc_lift(arc, 16)
    assert trimmed.precision == 9
    assert full.precision == 13
    assert full.v0[0].agrees(trimmed.v0[0])


def _two_equation_map():
    # y1^2 = x1^3 and y2^2 = x1^5 share the passive coordinate x1
    return PolyMap(
        ("x1", "y1", "y2"),
        1,
        [
            MultiPoly(3, {(0, 2, 0): 1, (3, 0, 0): -1}),
            MultiPoly(3, {(0, 0, 2): 1, (5, 0, 0): -1}),
        ],
    )


def _two_equation_arc(k1, k2, precision):
    q = RationalRing()
    y1 = [0] * precision
    y1[3] = 1
    y1[k1] = 1
    y2 = [0] * precision
    y2[5] = 1
    y2[k2] = 1
    return ArcPoint(
        _two_equation_map(),
        (
            TruncatedSeries.t_power(q, 2, precision),
            TruncatedSeries(q, y1, precision),
            TruncatedSeries(q, y2, precision),
        ),
    )


def test_two_equation_lift_moves_both_coordinates():
    q = RationalRing()
    arc = _two_equation_arc(9, 10, 40)
    result = arc_lift(arc)
    assert result.precision == 40 - 17  # det has order 8
    t3 = TruncatedSeries.t_power(q, 3, result.precision)
    t5 = TruncatedSeries.t_power(q, 5, result.precision)
    assert result.arc.components[1].agrees(t3, result.precision)
    assert result.arc.components[2].agrees(t5, result.precision)
    assert all(v.is_zero() for v in result.arc.values)


def test_two_equation_membership_rejects_large_perturbations():
    # an order-4 perturbation of y1 makes the weighted defect 2*y2*f1 have
    # valuation 12 < 17 = ord(t*det^2): a pole of order 5 witnesses it
    arc = _two_equation_arc(4, 10, 40)
    with pytest.raises(CongruenceFailed) as info:
        check_congruence(arc)
    assert info.value.component == 0
    assert info.value.witness.first_pole()[0] == -5


LIFT_RINGS = [PrimeFieldRing(5), RationalRing(), ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)]
CURVES = {
    # map, leading exponent of each coordinate, lowest perturbed order
    "cusp": (cusp_map, (2, 3), 4),
    "space curve": (_two_equation_map, (2, 3, 5), 9),
}


def perturbed_arc(ring, curve, precision, rng):
    """x = t^2 and each moving coordinate t^lead plus a perturbation from
    the curve's lowest perturbed order on, with small nonzero coefficients
    (and an eps part over the Artinian ring)."""
    make_map, lead, min_order = CURVES[curve]
    comps = []
    for i, k in enumerate(lead):
        coeffs = [ring.zero] * precision
        coeffs[k] = ring.one
        for j in range(min_order if i else precision, precision):
            c = ring.from_int(rng.choice((-2, -1, 1, 2)))
            if isinstance(ring, ArtinianLocalRing):
                c = c + ring.generators()["eps"] * rng.randint(1, 4)
            coeffs[j] = coeffs[j] + c
        comps.append(TruncatedSeries(ring, coeffs, precision))
    return ArcPoint(make_map(), comps)


@pytest.mark.parametrize("ring", LIFT_RINGS, ids=repr)
@pytest.mark.parametrize("curve, moving", [("cusp", 0), ("space curve", 0), ("space curve", 1)])
def test_lift_residual_check_fails_on_a_wrong_correction(ring, curve, moving, monkeypatch):
    # v0 with its order-1 coefficient moved by 1 in one moving coordinate
    # moves that coordinate at order 2 + ord(det), well below N', so
    # f(x_new) cannot vanish there; the passive-only monomials the lifted
    # arc takes from the input must not hide it
    arc = perturbed_arc(ring, curve, 64, random.Random(curve))
    arc_lift(arc)  # the true correction passes the check
    real = newton.fixed_point_solve

    def wrong(hd, v1, precision):
        v0 = list(real(hd, v1, precision))
        coeffs = list(v0[moving].coeffs)
        coeffs[1] = coeffs[1] + ring.one
        v0[moving] = TruncatedSeries(ring, coeffs, v0[moving].precision)
        return tuple(v0)

    monkeypatch.setattr(newton, "fixed_point_solve", wrong)
    with pytest.raises(ResidualNonzero):
        arc_lift(arc)


@pytest.mark.parametrize("ring", LIFT_RINGS, ids=repr)
@pytest.mark.parametrize("curve", CURVES)
def test_moved_arc_starts_from_the_passive_monomials(ring, curve):
    arc = perturbed_arc(ring, curve, 64, random.Random(7))
    arc.values  # fills the monomials f reads
    rng = random.Random(8)
    steps = [
        TruncatedSeries(ring, [random_element(ring, rng) for _ in range(31)], 31)
        for _ in range(arc.map.n)
    ]
    moved = arc.moved(steps)
    fresh = ArcPoint(arc.map, moved.components)
    assert moved.precision == 31
    assert moved.components[0] is arc.components[0]
    for j, step in enumerate(steps, arc.map.split):
        assert moved.components[j] == (arc.components[j] + step)
    passive = arc.jacobian.passive
    assert passive  # x^3, and x^5 on the space curve
    for s in passive:
        assert moved._monomials.values[s] == arc._monomials.values[s].truncate(31)
    assert moved.values == fresh.values
    assert moved.det_at == fresh.det_at and moved.adjugate_at == fresh.adjugate_at


def test_lift_over_modular_integers():
    z9 = IntegersMod(9)
    n = 22
    arc = ArcPoint(
        cusp_map(),
        (
            TruncatedSeries.t_power(z9, 2, n),
            TruncatedSeries(z9, [0, 0, 0, 1, 3], n),  # t^3 + 3t^4, nilpotent bump
        ),
    )
    result = arc_lift(arc)
    assert result.arc.values[0].is_zero()
    assert result.arc.components[1] == TruncatedSeries.t_power(z9, 3, result.precision + 1)
