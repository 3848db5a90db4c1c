import random
from fractions import Fraction

import pytest

from arclift import (
    ArtinianLocalRing,
    IntegersMod,
    InvalidDescriptor,
    MixedRings,
    NonLocalRing,
    NotAUnit,
    PrimeFieldRing,
    RationalRing,
    make_ring,
)
from arclift.pathology import arc_kernel_ring, sawed_plane_ring
from arclift.rings import MAX_MODULUS, MAX_MONOMIALS, PayloadRing, Ring

from _helpers import acceptance_rings, random_element, random_nilpotent


def test_prime_field_has_p_elements():
    f5 = PrimeFieldRing(5)
    assert len(f5.elements()) == 5
    assert f5.from_int(7) == f5.from_int(2)


def test_dual_numbers_square_to_zero():
    r = ArtinianLocalRing(PrimeFieldRing(2), ["eps"], 2)
    eps = r.generators()["eps"]
    assert not eps * eps
    assert eps != r.zero


def test_zmod9_is_local_with_square_zero_ideal():
    z9 = IntegersMod(9)
    assert z9.is_local
    assert z9.nilpotency_exponent() == 2
    assert z9.from_int(3) * z9.from_int(3) == z9.zero


def test_artinian_multiplication_discards_high_degree():
    r = ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)
    eps = r.generators()["eps"]
    one = r.one
    assert (one + eps) * (one - eps) == one


def test_rational_fraction_arithmetic():
    q = RationalRing()
    assert q.element(Fraction(1, 2)) + q.element(Fraction(1, 3)) == q.element(Fraction(5, 6))


def test_invert_dual_number():
    r = ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)
    eps = r.generators()["eps"]
    a = r.from_int(2) + eps
    inv = r.invert(a)
    assert inv == r.from_int(3) + eps
    assert a * inv == r.one


def test_three_is_not_a_unit_mod_nine():
    z9 = IntegersMod(9)
    assert not z9.is_unit(z9.from_int(3))
    with pytest.raises(NotAUnit):
        z9.invert(z9.from_int(3))


def test_invert_rational():
    q = RationalRing()
    assert q.invert(q.element(Fraction(-2, 3))) == q.element(Fraction(-3, 2))


def test_residue_and_nilpotency_mod_nine():
    z9 = IntegersMod(9)
    assert z9.residue(z9.from_int(6)) == PrimeFieldRing(3).from_int(0)
    assert z9.is_nilpotent(z9.from_int(6))
    assert not z9.is_nilpotent(z9.from_int(2))


def test_residue_of_dual_number():
    r = ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2)
    a = r.from_int(2) + r.generators()["eps"]
    assert r.residue(a) == PrimeFieldRing(5).from_int(2)


def test_field_nilpotents_are_zero():
    f7 = PrimeFieldRing(7)
    assert f7.is_nilpotent(f7.zero)
    assert not f7.is_nilpotent(f7.from_int(3))


def test_invalid_descriptors():
    with pytest.raises(InvalidDescriptor):
        PrimeFieldRing(6)
    with pytest.raises(InvalidDescriptor):
        ArtinianLocalRing(PrimeFieldRing(5), ["a", "a"], 2)
    with pytest.raises(InvalidDescriptor):
        ArtinianLocalRing(PrimeFieldRing(5), ["a"], 0)
    with pytest.raises(InvalidDescriptor):
        IntegersMod(1)


def test_moduli_above_the_ceiling_are_refused_before_trial_division():
    assert IntegersMod(MAX_MODULUS).nilpotency_exponent() == 40
    for make in (PrimeFieldRing, IntegersMod):
        with pytest.raises(InvalidDescriptor, match=f"exceeds the ceiling {MAX_MODULUS}"):
            make(100000000000031)  # prime: trial division would take about a second


def test_artinian_rings_above_the_monomial_ceiling_are_refused():
    f5 = PrimeFieldRing(5)
    assert len(ArtinianLocalRing(f5, ["s"], MAX_MONOMIALS).names) == 1  # e monomials
    ArtinianLocalRing(f5, "abcdef", 10)  # 5,005 monomials
    for names, e in ((["s"], MAX_MONOMIALS + 1), ("abcdef", 12), ("abcdef", 20)):
        with pytest.raises(InvalidDescriptor, match=f"exceeds the ceiling {MAX_MONOMIALS}"):
            ArtinianLocalRing(f5, names, e)


def test_from_fraction_names_a_coefficient_without_image():
    assert PrimeFieldRing(5).from_fraction(Fraction(3, 2)) == PrimeFieldRing(5).from_int(4)
    with pytest.raises(NotAUnit, match=r"coefficient 2/5 has no image in Fp\(5\)"):
        PrimeFieldRing(5).from_fraction(Fraction(2, 5))
    with pytest.raises(NotAUnit, match=r"coefficient -1/3 has no image in Zmod\(9\)"):
        IntegersMod(9).from_fraction(Fraction(-1, 3))


def test_non_prime_power_modulus_has_no_residue_theory():
    z6 = IntegersMod(6)
    assert not z6.is_local
    with pytest.raises(NonLocalRing):
        z6.residue_field()
    with pytest.raises(NonLocalRing):
        z6.is_nilpotent(z6.from_int(2))
    # arithmetic still works
    assert z6.from_int(4) * z6.from_int(5) == z6.from_int(2)


def test_mixed_rings_rejected():
    with pytest.raises(MixedRings):
        PrimeFieldRing(5).one + PrimeFieldRing(7).one


def test_make_ring_accepts_descriptors_and_rings():
    r = make_ring("Artin(Fp(5); eps; 2)")
    assert isinstance(r, ArtinianLocalRing)
    assert make_ring(r) is r


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_randomized_unit_inverses(ring):
    rng = random.Random(101)
    seen_units = 0
    for _ in range(1000):
        a = random_element(ring, rng)
        if ring.is_unit(a):
            seen_units += 1
            assert a * ring.invert(a) == ring.one
        else:  # zero in Fp(5) and Q, 3 and 6 in Z/9, nilpotents in Artin
            with pytest.raises(NotAUnit):
                ring.invert(a)
    assert seen_units > 100


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_unit_iff_not_nilpotent_in_local_rings(ring):
    rng = random.Random(202)
    for _ in range(400):
        a = random_element(ring, rng)
        assert ring.is_unit(a) != ring.is_nilpotent(a)


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_nilpotents_die_at_the_stated_exponent(ring):
    rng = random.Random(303)
    e = ring.nilpotency_exponent()
    for _ in range(200):
        nu = random_nilpotent(ring, rng)
        assert not nu ** e


def test_zmod_prime_power_matches_artinian_classification():
    # Z/9 and a 2-generator truncated algebra both classify every element
    # as unit exactly when its residue is nonzero.
    z9 = IntegersMod(9)
    elements = [z9.from_int(k) for k in range(9)]
    units = sum(1 for a in elements if z9.is_unit(a))
    nilpotents = sum(1 for a in elements if z9.is_nilpotent(a))
    assert units == 6 and nilpotents == 3
    art = ArtinianLocalRing(PrimeFieldRing(3), ["s"], 2)
    # 9 elements: c0 + c1 s; units are the 6 with c0 != 0
    count_units = 0
    for c0 in range(3):
        for c1 in range(3):
            a = art.from_int(c0) + art.generators()["s"] * art.from_int(c1)
            if art.is_unit(a):
                count_units += 1
    assert count_units == 6


@pytest.mark.parametrize("ring", acceptance_rings(), ids=repr)
def test_difference_is_the_sum_with_the_negation(ring):
    rng = random.Random(404)
    for _ in range(200):
        a, b = random_element(ring, rng), random_element(ring, rng)
        assert ring.payload_sub(a.value, b.value) == ring.payload_add(a.value, ring.payload_neg(b.value))
        assert a - b == a + (-b) and (a - b) + b == a


def test_residue_and_field_bodies_have_one_home():
    # _ResidueRing holds the residue bodies (both inverses among them),
    # _Field the field ones (the reduced order among them) and Ring the zero
    # test, the form equality and the formatting; each class keeps the
    # payload_add and payload_mul that the benchmark tracer reads through
    # vars(cls)
    shared = {"payload_is_zero", "format_element", "form_eq"}
    residue = {"payload_from_int", "payload_neg", "payload_sub", "invert", "invert_series"}
    field = {"is_unit", "is_local", "nilpotency_exponent", "residue_field", "residue",
             "form_reduced_order"}
    for cls, moved in (
        (PrimeFieldRing, shared | residue | field),
        (IntegersMod, shared | residue),
        (RationalRing, shared | field),
        (ArtinianLocalRing, {"form_eq"}),
    ):
        assert not moved & set(vars(cls)), cls
        assert {"payload_add", "payload_mul"} <= set(vars(cls)), cls
    # the reduced order has a body per family, and colimit rings refuse it
    assert "form_reduced_order" not in vars(Ring)


@pytest.mark.parametrize("ring, value", [
    (PrimeFieldRing(5), 0), (PrimeFieldRing(131), 0), (IntegersMod(9), 6), (IntegersMod(129), 86),
], ids=repr)
def test_residue_non_units_name_the_value_and_the_modulus(ring, value):
    with pytest.raises(NotAUnit, match=f"^{value} is not a unit mod {ring.item_top + 1}$"):
        ring.invert(ring.element(value))


def _equal_pairs(ring, rng):
    """Pairs of equal elements reached by different routes: a and
    (a + c) - c, and over a colimit ring x_n and -q0 * x_(n+1), which sit at
    different presentation levels."""
    if isinstance(ring, PayloadRing):  # a colimit model
        q0, x = ring.q0(), ring.x
        yield x(2), -q0 * x(3)
        yield ring.one + x(1), ring.one - q0 * x(2)
        draws = [ring.one, q0, x(1), q0 * x(4), ring.one + q0]
    else:
        draws = [random_element(ring, rng) for _ in range(40)]
    for a in draws:
        for c in (rng.choice(draws), ring.one):
            yield a, (a + c) - c


@pytest.mark.parametrize("ring", acceptance_rings() + [
    PrimeFieldRing(131), IntegersMod(129), IntegersMod(2**40),
    ArtinianLocalRing(RationalRing(), ["a", "b"], 3),
    arc_kernel_ring(PrimeFieldRing(5)), sawed_plane_ring(PrimeFieldRing(5)),
], ids=repr)
def test_elements_equal_no_int_and_equal_elements_hash_equally(ring):
    # an int has many images (3 and 8 in Fp(5)), and no hash agrees with
    # all of them, so an element never equals an int; arithmetic with ints
    # still coerces
    rng = random.Random(505)
    for a, b in _equal_pairs(ring, rng):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1, (a, b)
        for k in (-1, 0, 1, 2, 3, 8, 10**20):
            assert not a == k and not k == a and a != k, (a, k)
            assert a + k == a + ring.from_int(k) and k * a == ring.from_int(k) * a
    for k in (-1, 0, 1, 3, 10**20):
        assert ring.from_int(k) != k and k != ring.from_int(k), k


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_and_integers_mod_a_prime_agree(p):
    fp, zp = PrimeFieldRing(p), IntegersMod(p)
    ints = [-(10**30) - 1, -2 * p - 1, -p, -1, 0, 1, p - 1, p, 3 * p + 2, 10**30 + 7]
    for k in ints:
        assert fp.payload_from_int(k) == zp.payload_from_int(k) == k % p
        assert str(fp.from_int(k)) == str(zp.from_int(k)) == str(k % p)
    for a in range(p):
        assert fp.payload_neg(a) == zp.payload_neg(a) == -a % p
        assert fp.payload_is_zero(a) == zp.payload_is_zero(a) == (a == 0)
        assert fp.format_element(a) == zp.format_element(a) == str(a)
        assert fp.is_unit(fp.element(a)) == zp.is_unit(zp.element(a)) == (a != 0)
        for b in range(p):
            for op, want in (("payload_add", a + b), ("payload_sub", a - b), ("payload_mul", a * b)):
                assert getattr(fp, op)(a, b) == getattr(zp, op)(a, b) == want % p, (op, a, b)


@pytest.mark.parametrize("field", [PrimeFieldRing(2), PrimeFieldRing(7), RationalRing()], ids=repr)
def test_fields_are_their_own_residue_fields(field):
    assert field.is_field and field.is_local
    assert field.nilpotency_exponent() == 1
    assert field.residue_field() is field
    for k in (-3, 0, 1, 5):
        a = field.from_int(k)
        assert field.residue(a) == a
        assert field.is_unit(a) == bool(a)
