"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact equality; randomized populations are seeded and
sized as stated.  Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion lines.
"""

import itertools
import random
from fractions import Fraction

import pytest

from arclift import (
    ArcPoint,
    ArtinianLocalRing,
    IntegersMod,
    LowPoly,
    MonicPoly,
    MultiPoly,
    PolyMap,
    PrimeFieldRing,
    RationalRing,
    TruncatedSeries,
    arc_lift,
    check_identities,
    congruence_forward,
    divides_power_of_t,
    fixed_point_solve,
    integer_completion,
    kernel_fiber_basis,
    ord_at_point,
    recombine_division,
    sawed_completion,
    strict_prepare,
    weierstrass_divide,
    xy_arc_counterexample,
)

from _helpers import (
    acceptance_rings,
    brute_force_fiber_dimension,
    catalan_numbers,
    gf_matrix_rank,
    random_element,
    random_nilpotent,
    random_nondegenerate,
    reconstruct_factorization,
    solver_map,
    strict_by_linear_system,
)

CASES_PER_RING = 1000


def _report(number, description, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def preparation_bulk():
    """One pass of criterion 1/3 data: 10^3 preparations per ring."""
    stats = {}
    for ring in acceptance_rings():
        rng = random.Random(20240801)
        e = ring.nilpotency_exponent()
        recon = strict_flag = unit_flag = oracle = certificate = 0
        for _ in range(CASES_PER_RING):
            x, d = random_nondegenerate(ring, rng)
            fact = strict_prepare(x)
            recon += reconstruct_factorization(fact) == x
            strict_flag += fact.q.is_strict() and fact.q.degree == d
            unit_flag += ring.is_unit(fact.u.coeffs[0])
            q_oracle, u_oracle = strict_by_linear_system(x)
            oracle += (q_oracle == fact.q) and (u_oracle == fact.u)
            try:
                qprime = divides_power_of_t(fact.q, d * e)
                prod = qprime.as_series(d * e + 1) * fact.q.as_series(d * e + 1)
                certificate += prod == TruncatedSeries.t_power(ring, d * e, d * e + 1)
            except Exception:
                pass
        stats[repr(ring)] = (recon, strict_flag, unit_flag, oracle, certificate)
    return stats


def test_criterion_1_strict_preparation_reconstruction(preparation_bulk):
    ok = all(
        recon == strict == unit == oracle == CASES_PER_RING
        for recon, strict, unit, oracle, _ in preparation_bulk.values()
    )
    _report(
        1,
        f"{CASES_PER_RING} preparations per ring reconstruct exactly, are strict, "
        "and match the independent linear-system oracle",
        ok,
    )


def test_criterion_2_division_exactness():
    ok = True
    for ring in acceptance_rings():
        rng = random.Random(20240802)
        e = ring.nilpotency_exponent()
        for _ in range(CASES_PER_RING):
            d = rng.randrange(1, 5)
            n = d * (e + 1) + 4
            q = MonicPoly(ring, [random_nilpotent(ring, rng) for _ in range(d)])
            f = TruncatedSeries(ring, [random_element(ring, rng) for _ in range(n)], n)
            result = weierstrass_divide(f, q)
            ok = (
                ok
                and result.exact
                and result.a.bound == d
                and recombine_division(q, result.a, result.h).agrees(f, n - d)
            )
    _report(
        2,
        f"{CASES_PER_RING} divisions per ring re-multiply to f mod t^(N-d) with deg a < d",
        ok,
    )


def test_criterion_3_divisibility_certificates(preparation_bulk):
    ok = all(cert == CASES_PER_RING for *_, cert in preparation_bulk.values())
    z9 = IntegersMod(9)
    fact = strict_prepare(TruncatedSeries(z9, [3, 1], 6))
    qprime = divides_power_of_t(fact.q, 2)
    ok = ok and qprime == MonicPoly(z9, [-3])
    prod = qprime.as_series(3) * fact.q.as_series(3)
    ok = ok and prod == TruncatedSeries.t_power(z9, 2, 3)
    _report(3, "every prepared q divides t^(d*e); (t+3)(t-3) = t^2 in Z/9", ok)


def test_criterion_4_fiber_dimensions_exhaustive():
    f5 = PrimeFieldRing(5)
    scalars = range(5)
    ok = True
    for d in range(4):
        for lows in itertools.product(scalars, repeat=d):
            q = MonicPoly(f5, list(lows))
            e = q.t_multiplicity()
            pairs = kernel_fiber_basis(q, 12)
            ok = ok and len(pairs) == d - e == brute_force_fiber_dimension(q, 12)
            for a, v in pairs:
                ok = ok and recombine_division(q, a, v).is_zero()
    # the two stated extremes
    ok = ok and kernel_fiber_basis(MonicPoly.t_power(f5, 3), 12) == []
    ok = ok and len(kernel_fiber_basis(MonicPoly(f5, [1, 2, 3]), 12)) == 3
    _report(
        4,
        "all 156 monic q over F5 (d <= 3): fiber dimension d - e, matching brute-force rank",
        ok,
    )


def test_criterion_5_fixed_point_catalan():
    q = RationalRing()
    v1 = (TruncatedSeries(q, [1], 10),)
    hd = solver_map(lambda v: (v[0] * v[0],), lambda v: ((v[0] + v[0],),))
    (v0,) = fixed_point_solve(hd, v1, 10)
    cs = catalan_numbers(10)
    expected = [(-1) ** k * cs[k] for k in range(10)]
    ok = expected == [1, -1, 2, -5, 14, -42, 132, -429, 1430, -4862]
    ok = ok and v0 == TruncatedSeries(q, expected, 10)
    _report(5, "fixed point of v -> 1 - t*v^2 has signed Catalan coefficients", ok)


def _cusp_map():
    return PolyMap(("x1", "y1"), 1, [MultiPoly(2, {(0, 2): 1, (3, 0): -1})])


def test_criterion_6_arc_lifting_on_the_cusp():
    q = RationalRing()
    arc = ArcPoint(
        _cusp_map(),
        (TruncatedSeries.t_power(q, 2, 16), TruncatedSeries(q, [0, 0, 0, 1, 1], 16)),
    )
    result = arc_lift(arc)
    ok = result.precision >= 9
    ok = ok and result.arc.values[0].is_zero()  # f(x_new) = 0 mod t^N'
    exact_branch = TruncatedSeries.t_power(q, 3, result.precision)
    ok = ok and result.arc.components[1].agrees(exact_branch, result.precision)

    r = ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)
    eps = r.generators()["eps"]
    n = 26
    arc2 = ArcPoint(
        _cusp_map(),
        (
            TruncatedSeries.t_power(r, 2, n),
            TruncatedSeries(r, [r.zero] * 3 + [r.one, eps], n),
        ),
    )
    result2 = arc_lift(arc2)
    ok = ok and result2.arc.values[0].is_zero()
    # the nilpotent perturbation is removed exactly: y_new = t^3, i.e. the
    # applied correction is -eps*t^4
    np1 = result2.precision + 1
    ok = ok and result2.arc.components[1] == TruncatedSeries.t_power(r, 3, np1)
    correction = result2.arc.components[1] - arc2.components[1].truncate(np1)
    ok = ok and correction == TruncatedSeries(r, [r.zero] * 4 + [-eps], np1)
    _report(
        6,
        f"cusp lift over Q: residual 0 mod t^{result.precision} (>= 9), y_new = t^3; "
        "dual-number perturbation lifts with residual 0 at available precision",
        ok,
    )


def test_criterion_7_forward_map_roundtrip():
    q = RationalRing()
    arc = ArcPoint(
        _cusp_map(),
        (TruncatedSeries.t_power(q, 2, 16), TruncatedSeries(q, [0, 0, 0, 1, 1], 16)),
    )
    hd = arc.correction
    rng = random.Random(20240807)
    ok = True
    for _ in range(100):
        v0 = (
            TruncatedSeries(
                q,
                [q.element(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(10)],
                12,
            ),
        )
        v1 = congruence_forward(arc, v0)
        back = fixed_point_solve(hd, v1, min(x.precision for x in v1))
        ok = ok and back[0].agrees(v0[0])
    _report(7, "100 random corrections roundtrip through forward map and fixed-point solve", ok)


def test_criterion_8_pathology_identities():
    report = check_identities(12, PrimeFieldRing(5))
    ok = report.all_ok
    product_rows = [r for r in report.rows if r.statement.endswith(" = 0")]
    nonzero_rows = [r for r in report.rows if "!=" in r.statement]
    ok = ok and len(product_rows) == 13 * 14 // 2 and all(r.ok for r in product_rows)
    ok = ok and len(nonzero_rows) == 13 and all(r.ok for r in nonzero_rows)
    for n in range(1, 7):
        completion = sawed_completion(n, PrimeFieldRing(5))
        ok = ok and completion.dimension == n and completion.all_ok
    for p in (2, 3, 5):
        for n in range(1, 5):
            c = integer_completion(p, n)
            ok = ok and c.verified and c.modulus == p ** n and c.t_image.value == p % p ** n
    _report(
        8,
        "x_m*x_n = 0 and x_n != 0 up to 12; sawed completions k[q0]/q0^n for n <= 6; "
        "integer completions Z/p^n for p in {2,3,5}, n <= 4",
        ok,
    )


def test_criterion_9_cross_arc_counterexample():
    report = xy_arc_counterexample(10, PrimeFieldRing(5))
    ok = report.product_is_zero and report.x_nonzero and report.q_nondegenerate
    ok = ok and report.all_ok and report.product.precision == 10
    _report(
        9,
        "q*x = 0 mod t^10 with x != 0 and q non-degenerate over the arc-kernel ring",
        ok,
    )


def _strictness_system_is_infeasible(d, series_len, coeff_degree, p):
    """No w with polynomial coefficients solves w*(t - a) = t^d mod t^N over F_p[a].

    Unknowns: coefficients w_k[j] (k < N, j <= coeff_degree); the t^k
    condition reads w_{k-1} - a*w_k = [k == d], giving one row per power of
    a.  Infeasible iff the augmented rank exceeds the plain rank.
    """
    cols = series_len * (coeff_degree + 1)
    rows = []
    rhs = []
    for k in range(series_len):
        for j in range(coeff_degree + 2):
            row = [0] * cols
            if k >= 1 and j <= coeff_degree:
                row[(k - 1) * (coeff_degree + 1) + j] += 1
            if j >= 1 and (j - 1) <= coeff_degree:
                row[k * (coeff_degree + 1) + (j - 1)] -= 1
            rows.append(row)
            rhs.append(1 if (k == d and j == 0) else 0)
    plain = gf_matrix_rank(rows, p)
    augmented = gf_matrix_rank([r + [b] for r, b in zip(rows, rhs)], p)
    return augmented > plain


def test_criterion_10_no_strict_factorization_over_a_parameter_line():
    f7 = PrimeFieldRing(7)
    ok = all(_strictness_system_is_infeasible(d, 6, 8, 7) for d in range(4))
    minus_a = MultiPoly(1, {(1,): f7.from_int(-1)})
    coeffs = [minus_a, MultiPoly.constant(1, f7.one)] + [MultiPoly(1, {})] * 3
    ok = ok and ord_at_point(coeffs, (f7.from_int(0),)) == 1
    ok = ok and ord_at_point(coeffs, (f7.from_int(1),)) == 0
    _report(
        10,
        "strict-factorization ansatz for t - a over F7[a] (coefficient degree <= 8) is "
        "infeasible for d <= 3, while the vanishing order jumps 1 -> 0 between a = 0 and a = 1",
        ok,
    )
