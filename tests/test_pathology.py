import pytest

from arclift import pathology
from arclift import (
    IntegersMod,
    InvalidDescriptor,
    LowPoly,
    MixedFamilies,
    PrimeFieldRing,
    RationalRing,
    arc_kernel_ring,
    check_identities,
    integer_completion,
    sawed_completion,
    sawed_plane_ring,
    xy_arc_counterexample,
)


def kernel_ring():
    return arc_kernel_ring(PrimeFieldRing(5))


def test_x_generator_products_vanish():
    r = kernel_ring()
    assert not r.x(0) * r.x(5)
    assert not r.x(3) * r.x(3)


def test_descent_relation():
    r = kernel_ring()
    assert r.x(0) == -(r.q0() * r.x(1))
    assert r.x(2) == (r.q0() ** 2) * r.x(4)  # two transitions, sign (+1)^2


def test_hash_agrees_with_equality_across_levels():
    r = arc_kernel_ring(RationalRing())
    a, b = r.x(0), -r.q0() * r.x(1)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({r.x(2), (r.q0() ** 2) * r.x(4), r.x(3)}) == 2


def test_generators_are_nonzero():
    r = kernel_ring()
    assert r.x(3) != r.from_int(0)
    assert bool(r.x(12))


def test_level_relation_truncates():
    r = kernel_ring()
    # q0^{n+1} x_n = 0 at level n
    assert not (r.q0() ** 1) * r.x(0)
    assert not (r.q0() ** 4) * r.x(3)
    assert (r.q0() ** 3) * r.x(3) != r.from_int(0)


def test_arithmetic_across_levels():
    r = kernel_ring()
    s = r.x(1) + r.q0() * r.x(2)
    assert not s  # the defining relation
    assert r.x(1) - r.x(1) == r.from_int(0)
    assert (r.one + r.q0()) * r.x(1) == r.x(1) + r.q0() * r.x(1)


def test_random_ideal_combinations_square_to_zero():
    import random

    rng = random.Random(23)
    field = PrimeFieldRing(5)
    for ring in (arc_kernel_ring(field), sawed_plane_ring(field)):
        gens = [ring.x(i) for i in range(8)]
        if ring.sawed:
            gens.append(ring.a0())
        for _ in range(50):
            u = sum(
                (g * ring.from_int(rng.randrange(5)) for g in gens), ring.from_int(0)
            )
            v = sum(
                (g * ring.from_int(rng.randrange(5)) for g in gens), ring.from_int(0)
            )
            assert not u * v


def test_a0_lives_only_on_the_sawed_plane():
    with pytest.raises(MixedFamilies):
        kernel_ring().a0()
    s = sawed_plane_ring(PrimeFieldRing(5))
    assert s.a0() == -(s.q0() * s.x(0))


def test_sawed_plane_keeps_high_q0_multiples():
    s = sawed_plane_ring(PrimeFieldRing(5))
    # no level relation: q0^{n+1} x_n survives (it equals -a0 up to sign chain)
    assert (s.q0() ** 4) * s.x(3) != s.from_int(0)


def test_check_identities_all_pass_at_full_bound():
    report = check_identities(12, PrimeFieldRing(5))
    assert report.all_ok
    assert any(r.statement == "x3*x7 = 0" for r in report.rows)
    assert any(r.statement.startswith("x12 != 0") for r in report.rows)


def test_check_identities_over_q7_localization_row():
    report = check_identities(5, PrimeFieldRing(7))
    kills = [r for r in report.rows if r.statement == "q0 -> 3 kills x5"]
    assert kills and kills[0].ok


def test_localization_rows_fail_without_the_level_relation(monkeypatch):
    from arclift import pathology

    kills = [r for r in check_identities(4).rows if " kills x" in r.statement]
    assert kills and all(r.ok for r in kills)
    monkeypatch.setattr(pathology, "arc_kernel_ring", sawed_plane_ring)
    kills = [r for r in check_identities(4).rows if " kills x" in r.statement]
    assert kills and not any(r.ok for r in kills)


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_check_identities_rows_are_distinct_at_small_bounds(bound):
    # 0, bound // 2 and bound coincide below 2: each "kills" row comes once
    statements = [r.statement for r in check_identities(bound).rows]
    assert len(statements) == len(set(statements))
    assert {s for s in statements if " kills x" in s}


def test_check_identities_bound_guard():
    with pytest.raises(InvalidDescriptor):
        check_identities(13)


def test_sawed_completion_order_one_is_the_residue_field():
    report = sawed_completion(1, RationalRing())
    assert report.dimension == 1
    assert report.basis == ("1",)
    assert report.all_ok


def test_sawed_completion_order_three_chain():
    report = sawed_completion(3, RationalRing())
    assert report.dimension == 3
    assert report.basis == ("1", "q0", "q0^2")
    a0 = next(g for g in report.generator_images if g.name == "a0")
    assert a0.chain == "a0 = -q0*x0 = q0^2*x1 = -q0^3*x2"
    assert a0.verified
    assert report.all_ok


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sawed_completion_verifies_up_to_six(n):
    report = sawed_completion(n, PrimeFieldRing(5))
    assert report.dimension == n
    assert len(report.basis) == n
    assert report.all_ok


def test_integer_completion_examples():
    r = integer_completion(3, 2)
    assert r.modulus == 9
    assert r.t_image == IntegersMod(9).from_int(3)
    assert r.verified
    r = integer_completion(2, 1)
    assert r.modulus == 2
    assert r.t_image.value == 0
    assert r.verified
    r = integer_completion(5, 3)
    assert r.modulus == 125
    assert r.t_image.value == 5
    assert r.verified


def test_integer_completion_rejects_bad_input():
    with pytest.raises(InvalidDescriptor):
        integer_completion(4, 2)
    with pytest.raises(InvalidDescriptor):
        integer_completion(3, 0)
    with pytest.raises(InvalidDescriptor, match="exceeds the ceiling"):
        integer_completion(100000000000031, 2)


def test_integer_completion_modulus_may_exceed_the_ceiling_on_primes():
    r = integer_completion(2, 64)
    assert r.modulus == 2**64 and r.ring.n == 2**64 and r.verified
    assert r.ring.residue_field() == PrimeFieldRing(2) and r.ring.nilpotency_exponent() == 64


def test_integer_completion_t_image_comes_from_the_division(monkeypatch):
    # a division that is wrong only on linear dividends leaves the modulus
    # right, so only the reduction of t itself can catch it
    real = pathology.divide_by_monic

    def off_by_one_on_t(dividend, divisor):
        quotient, remainder = real(dividend, divisor)
        if len(dividend[0]) == 2:
            remainder = LowPoly(divisor.ring, 1, [remainder.coeffs[0] + 1])
        return quotient, remainder

    monkeypatch.setattr(pathology, "divide_by_monic", off_by_one_on_t)
    r = integer_completion(5, 3)
    assert r.modulus == 125
    assert r.t_image.value == 6
    assert not r.verified


def test_cross_arc_counterexample():
    report = xy_arc_counterexample(10, PrimeFieldRing(5))
    assert report.product_is_zero
    assert report.x_nonzero
    assert report.q_nondegenerate
    assert report.all_ok
    # the coefficient of t^3 is the relation x2 + q0*x3
    row = next(r for r in report.rows if "t^3" in r.statement)
    assert row.ok


def test_cross_arc_over_the_rationals():
    report = xy_arc_counterexample(6, RationalRing())
    assert report.all_ok


def test_cross_arc_guards_scale():
    with pytest.raises(InvalidDescriptor):
        xy_arc_counterexample(13)
