"""The series forms of Fp and Z/n on both sides of the byte bound.

Up to m = 128 a form's items are one ``bytes`` object; from m = 129 on a
tuple of ints.  Every form operation of ``_ResidueRing`` is compared here,
on seeded draws, with an int-list oracle written in this file, so the test
needs neither hypothesis nor any arclift routine besides the one it checks.
"""

import random

import pytest

from arclift import (
    ArtinianLocalRing,
    IntegersMod,
    LowPoly,
    MonicPoly,
    PrimeFieldRing,
    RationalRing,
    Ring,
    TruncatedSeries,
)
from arclift import rings
from arclift.pathology import arc_kernel_ring
from arclift.textforms import parse_monic, parse_series, parse_t_poly
from arclift.weierstrass import divide_by_monic, poly_mul

BYTE_RINGS = [PrimeFieldRing(2), PrimeFieldRing(5), IntegersMod(9), IntegersMod(27),
              PrimeFieldRing(127), IntegersMod(128)]
INT_RINGS = [IntegersMod(129), PrimeFieldRing(131), PrimeFieldRing(251), IntegersMod(2**40)]
LENGTHS = (0, 1, 7, 96, 512)


def _modulus(ring):
    return ring.item_top + 1


def _item_type(ring):
    """The one type of the items of the ring's series forms."""
    if isinstance(ring, (PrimeFieldRing, IntegersMod)) and ring.item_top < 128:
        return bytes
    return tuple


# -- the int-list oracle --------------------------------------------------------

def _window(a, start, stop):
    return [a[i] if 0 <= i < len(a) else 0 for i in range(start, stop)]


def _product(a, b, n, m):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return [c % m for c in out]


def _inverse(a, m):
    inv0 = pow(a[0], -1, m)
    out = [inv0]
    for k in range(1, len(a)):
        out.append(-inv0 * sum(a[i] * out[k - i] for i in range(1, k + 1)) % m)
    return out


def _leading_zeros(a):
    return next((i for i, c in enumerate(a) if c), len(a))


def _trimmed_len(a):
    return max((i + 1 for i, c in enumerate(a) if c), default=0)


# -- draws -----------------------------------------------------------------------

def _draws(ring, rng):
    """(name, residues) lists of every length: dense, sparse with zero ends,
    one term, all zero, and every residue the top one."""
    m = _modulus(ring)
    for n in LENGTHS:
        yield f"dense {n}", [rng.randrange(m) for _ in range(n)]
        sparse = [0] * n
        for i in rng.sample(range(n), n // 5):
            sparse[i] = rng.randrange(1, m)
        if n > 2:
            sparse[0] = sparse[-1] = 0
        yield f"sparse {n}", sparse
        if n:
            one = [0] * n
            one[rng.randrange(n)] = rng.randrange(1, m)
            yield f"one term {n}", one
        yield f"zero {n}", [0] * n
        yield f"top {n}", [m - 1] * n


def _form(ring, residues):
    items, scale = ring.integer_form(residues)
    assert type(items) is _item_type(ring) and scale == 1
    return items


def _values(ring, form):
    """The residues of a canonical form, after checking its item type."""
    items, scale = form
    assert type(items) is _item_type(ring) and scale == 1
    return list(items)


@pytest.mark.parametrize("ring", BYTE_RINGS + INT_RINGS, ids=repr)
def test_form_operations_match_the_int_list_oracle(ring):
    m = _modulus(ring)
    rng = random.Random(m)
    draws = list(_draws(ring, rng))
    scalars = range(m) if m <= 128 else [0, 1, 2, m - 1] + rng.sample(range(m), 12)
    for name, a in draws:
        x, n = _form(ring, a), len(a)
        assert list(ring.from_integer_form(x, 1)) == a
        assert ring.form_len(x) == n
        assert _values(ring, ring.canonical_form([c + m * rng.randint(-3, 3) for c in a], 1)) == a
        scale = 3 if m % 3 else 7
        assert _values(ring, ring.canonical_form([c * scale for c in a], scale)) == a
        # zero, leading-zero and trimmed-length tests, and equality
        assert ring.form_is_zero(x) == (not any(a)), name
        assert ring.form_leading_zeros(x) == _leading_zeros(a), name
        assert ring.form_trimmed_len(x) == _trimmed_len(a), name
        assert ring.form_eq(x, _form(ring, list(a)))
        if n:
            changed = list(a)
            changed[-1] = (changed[-1] + 1) % m
            assert not ring.form_eq(x, _form(ring, changed))
        # negation and scaling by residues
        assert _values(ring, ring.form_neg(x, 1)) == [-c % m for c in a], name
        for c in scalars:
            assert _values(ring, ring.form_scale(x, 1, c)) == [v * c % m for v in a], (name, c)
        # windows: shifts up, cuts, pads, and a start past the end
        for start in (-5, -1, 0, 1, n // 2, n, n + 3):
            for stop in {max(start, 0), max(start + 1, 0), n, n + 4}:
                if stop < start:
                    continue
                got = ring.form_window(x, 1, start, stop)
                assert _values(ring, got) == _window(a, start, stop), (name, start, stop)
        # the inverse of a unit series, as TruncatedSeries.invert takes it
        if n and a[0] and ring.is_unit(ring.element(a[0])):
            got = ring.canonical_form(*ring.invert_series(x, 1))
            assert _values(ring, got) == _inverse(a, m), name
    # sums, differences and products of pairs, mod t^k below and above the lengths
    for (name_a, a), (name_b, b) in _pairs(draws, rng):
        x, y = _form(ring, a), _form(ring, b)
        k = min(len(a), len(b))
        assert _values(ring, ring.form_sum(x, 1, y, 1)) == [(u + v) % m for u, v in zip(a, b)]
        assert _values(ring, ring.form_sum(x, 1, y, 1, True)) == [(u - v) % m for u, v in zip(a, b)]
        full = len(a) + len(b) - 1  # -1 for two empty operands
        for n in sorted({0, 1, k // 2, k, max(len(a), len(b)), full, full + 3} - {-1}):
            got = ring.canonical_form(ring.convolve(x, y, n), 1)
            assert _values(ring, got) == _product(a, b, n, m), (name_a, name_b, n)


def _pairs(draws, rng):
    """Every draw against a dense one of each length, and a sample of the rest."""
    dense = [d for d in draws if d[0].startswith("dense")]
    pairs = [(a, b) for a in draws for b in dense]
    return pairs + rng.sample([(a, b) for a in draws for b in draws], 40)


@pytest.mark.parametrize("ring, want", [
    (PrimeFieldRing(2), {1: 96, 2: 512}),  # (m - 1)^2 terms: 96, then 512 > 255
    (PrimeFieldRing(5), {1: 7, 2: 96}),  # 16 * 7 < 2^8 <= 16 * 96
    (IntegersMod(27), {2: 96, 4: 512}),  # 676 * 96 < 2^16 <= 676 * 512
    (PrimeFieldRing(127), {2: 2, 4: 7}),  # 16129 * 2 < 2^16 <= 16129 * 7
], ids=repr)
def test_byte_products_take_every_slot_width(ring, want, monkeypatch):
    """Dense products of the given lengths pack into the given slot widths
    and match the oracle, the largest residues included."""
    widths = []
    widened = rings._widened
    monkeypatch.setattr(rings, "_widened", lambda items, w: widths.append(w) or widened(items, w))
    m, rng = _modulus(ring), random.Random(3)
    for w, n in want.items():
        for a in ([m - 1] * n, [rng.randrange(1, m) for _ in range(n)]):
            del widths[:]
            x = _form(ring, a)
            for k in (n, 2 * n - 1):
                assert _values(ring, ring.canonical_form(ring.convolve(x, x, k), 1)) == _product(a, a, k, m)
            assert set(widths) == {w}


# -- one item type per ring ---------------------------------------------------------

TYPE_RINGS = [PrimeFieldRing(5), IntegersMod(27), IntegersMod(128), IntegersMod(129),
              PrimeFieldRing(131), RationalRing(), IntegersMod(2**40),
              ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2), arc_kernel_ring(PrimeFieldRing(5))]


@pytest.mark.parametrize("ring", TYPE_RINGS, ids=repr)
def test_every_form_a_ring_hands_out_has_its_one_item_type(ring):
    one, two = ring.one, ring.from_int(2)
    n = Ring.NEWTON_INVERT_MIN + 4  # inverses take the Newton doubling too
    x = TruncatedSeries(ring, [one, two] + [ring.from_int(k) for k in range(n - 2)], n)
    y = TruncatedSeries(ring, [two, one, one], 3).pad(n)
    series = [x, y, x + y, x - y, -x, x * y, x.scale(two), x.shift(3), x.drop(2), x.truncate(5),
              x.pad(n + 3), TruncatedSeries.zero(ring, 4), TruncatedSeries.constant(two, 4),
              TruncatedSeries.t_power(ring, 2, 5), TruncatedSeries._of_form(ring, *x.form, n + 2)]
    colimit = hasattr(ring, "q0")
    if not colimit:  # colimit rings refuse inverses and literals
        series += [x.invert(), x.truncate(6).invert(),
                   parse_series("[1, 2, 0] + O(t^5)", ring), parse_series("1 + 2*t + O(t^4)", ring)]
    q, low = MonicPoly(ring, [two, one]), LowPoly(ring, 3, [one])
    polys = [q, MonicPoly.t_power(ring, 3), low, -low]
    forms = [s.form for s in series] + [p.form for p in polys]
    forms += [poly_mul(x.form, q.form, ring), poly_mul(ring.integer_form(()), q.form, ring)]
    for divisor in (q, MonicPoly.t_power(ring, 2)):
        quot, rem = divide_by_monic(x.form, divisor)
        forms += [quot, rem.form]
    if not colimit:
        forms += [parse_t_poly("(t + 2)^3 - t", ring), parse_monic("t^2 + 1", ring).form]
    for items, _ in forms:
        assert type(items) is _item_type(ring)
