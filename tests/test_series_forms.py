"""Chains of series operations against a schoolbook payload oracle.

Every series keeps its ring's canonical series form (items, scale) and
builds its payloads only when read.  ``hypothesis`` draws a start series
and a chain of products, sums, differences, negations, shifts,
truncations, drops, paddings and inverses; the oracle below runs the same
chain on plain lists of payloads by schoolbook loops over the ring's
payload operations (Fraction arithmetic over Q), so nothing here reuses
arclift's series kernel.
After every step the result must equal the oracle, equal the series rebuilt
from its own payloads (with the same hash), and store its form in its
family's canonical shape: reduced residues over scale 1 for Fp and Z/n,
ints with the content divided out for Q, one slice of base ints per
monomial for Artinian rings (``_check_slices``), canonical payloads over
scale 1 for colimit rings.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arclift import (  # noqa: E402
    ArtinianLocalRing,
    IntegersMod,
    PrimeFieldRing,
    RationalRing,
    RingElement,
    TruncatedSeries,
    arc_kernel_ring,
)
from arclift.pathology import ColimitRing  # noqa: E402

Q = RationalRing()
SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)

rationals = st.one_of(
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 30)),
    st.sampled_from([Fraction(0), Fraction(1, 3**20), Fraction(2, 7), Fraction(-5, 11)]),
)
operands = st.lists(rationals, min_size=1, max_size=12)
steps = st.one_of(
    st.tuples(st.sampled_from(["mul", "add", "sub"]), operands),
    st.tuples(st.sampled_from(["shift", "truncate", "drop", "pad"]), st.integers(0, 4)),
    st.tuples(st.sampled_from(["neg", "invert"]), st.none()),
)


def _combination(ring, basis):
    """The map from coefficients c_i (ints or Fractions) to the element
    sum c_i * basis[i] of ``ring``."""

    def build(cs):
        out = ring.zero
        for c, b in zip(cs, basis):
            out = out + ring.from_fraction(c) * b
        return out

    return build


def _elements(ring):
    """A strategy for elements of ``ring`` that reach every part of its
    payloads: nilpotent monomials, and colimit generators at several
    presentation levels."""
    if isinstance(ring, (PrimeFieldRing, IntegersMod)):
        return st.integers(-30, 30).map(ring.from_int)
    if ring == Q:
        return rationals.map(Q.element)
    if isinstance(ring, ColimitRing):
        small = st.integers(0, 4)
        return st.tuples(small, small, small, st.integers(0, 3)).map(
            lambda c: _combination(ring, [ring.one, ring.q0(), ring.x(c[3])])(c[:3])
        )
    monomials = [ring.element({x: ring.base.payload_from_int(1)}) for x in ring.monomials()]
    coeffs = st.integers(-4, 4) if isinstance(ring.base, PrimeFieldRing) else rationals
    if len(monomials) > SPARSE_FROM:  # one monomial per coefficient
        return st.tuples(st.sampled_from(monomials), coeffs).map(lambda mc: mc[0] * ring.from_fraction(mc[1]))
    coeffs = st.one_of(st.just(0), coeffs)
    return st.lists(coeffs, min_size=len(monomials), max_size=len(monomials)).map(
        _combination(ring, monomials)
    )


SPARSE_FROM = 20
"""Over an Artinian ring with more monomials, an element has one monomial."""

FAMILIES = [  # Q has its own test below, with its examples
    PrimeFieldRing(5),
    IntegersMod(9),
    ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2),
    ArtinianLocalRing(Q, ["a", "b"], 3),
    ArtinianLocalRing(Q, ["a"], 1),
    ArtinianLocalRing(PrimeFieldRing(5), ["a", "b", "c", "d", "e", "f"], 10),  # 5,005 monomials
    arc_kernel_ring(PrimeFieldRing(5)),
]


def _steps(ring):
    ops = st.lists(_elements(ring), min_size=1, max_size=12)
    if isinstance(ring, ColimitRing):
        return st.one_of(
            st.tuples(st.sampled_from(["mul", "add", "sub"]), ops),
            st.tuples(st.sampled_from(["shift", "truncate"]), st.integers(0, 4)),
        )
    return st.one_of(
        st.tuples(st.sampled_from(["mul", "add", "sub"]), ops),
        st.tuples(st.sampled_from(["shift", "truncate", "drop", "pad"]), st.integers(0, 4)),
        st.tuples(st.sampled_from(["neg", "invert"]), st.none()),
    )


def _oracle(ring, op, a, arg):
    """One step on a list of payloads (the known coefficients), or None
    where the operation does not apply; ``arg`` holds payloads for the
    binary operations."""
    add, mul, neg = ring.payload_add, ring.payload_mul, ring.payload_neg
    zero = ring.payload_from_int(0)

    def dot(xs, ys):
        acc = zero
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    if op == "mul":
        n = min(len(a), len(arg))
        return [dot(a[: k + 1], reversed(arg[: k + 1])) for k in range(n)]
    if op == "add":
        return [add(x, y) for x, y in zip(a, arg)]
    if op == "sub":
        return [add(x, neg(y)) for x, y in zip(a, arg)]
    if op == "neg":
        return [neg(x) for x in a]
    if op == "shift":
        return [zero] * arg + a
    if op == "truncate":
        return a[: max(1, len(a) - arg)]
    if op == "drop":
        return a[min(arg, len(a) - 1):]
    if op == "pad":
        return a + [zero] * arg
    if not ring.is_unit(RingElement(ring, a[0])):
        return None
    minus_inv0 = neg(ring.invert(RingElement(ring, a[0])).value)
    out = [neg(minus_inv0)]
    for k in range(1, len(a)):
        out.append(mul(minus_inv0, dot(a[1 : k + 1], reversed(out))))
    return out


def _apply(op, x, arg):
    ring = x.ring
    if op in ("mul", "add", "sub"):
        y = TruncatedSeries(ring, [RingElement(ring, c) for c in arg], len(arg))
        return {"mul": x * y, "add": x + y, "sub": x - y}[op]
    if op == "neg":
        return -x
    if op == "shift":
        return x.shift(arg)
    if op == "truncate":
        return x.truncate(max(1, x.precision - arg))
    if op == "drop":
        return x.drop(min(arg, x.precision - 1))
    if op == "pad":
        return x.pad(x.precision + arg)
    return x.invert()


def _check_form(x):
    """The family's canonical form invariant."""
    ring = x.ring
    items, scale = x.form
    if isinstance(ring, ArtinianLocalRing):
        _check_slices(x)
        return
    assert type(items) is tuple and len(items) == x.precision
    if ring == Q:
        assert all(type(c) is int for c in items)
        assert scale > 0 and math.gcd(scale, *items) == 1
        assert all(type(c) is Fraction for c in x.payloads)
        return
    assert scale == 1 and x.payloads == items
    if isinstance(ring, (PrimeFieldRing, IntegersMod)):
        m = ring.p if isinstance(ring, PrimeFieldRing) else ring.n
        assert all(type(c) is int and 0 <= c < m for c in items)
    else:
        for level, _, xpart in items:
            assert all(e[0] <= level for e in xpart.terms)


def _check_slices(x):
    """The Artinian slice invariant: the items are (precision, slices), one
    slice (deg, exps, ints) per monomial that occurs, sorted by (deg, exps),
    each with exactly ``precision`` base ints, not all zero, over the form's
    one scale: residues in [0, p) over scale 1, or over a Q base ints with
    the content of all slices divided out.  The payloads hold the same
    terms."""
    ring, base = x.ring, x.ring.base
    (n, slices), scale = x.form
    assert n == x.precision and type(slices) is tuple
    keys = [(d, exps) for d, exps, _ in slices]
    assert keys == sorted(set(keys)) and len({exps for _, exps in keys}) == len(keys)
    flat = []
    for d, exps, ints in slices:
        assert type(exps) is tuple and len(exps) == ring.m and d == sum(exps) < ring.e
        assert type(ints) is tuple and len(ints) == n and any(ints)
        assert all(type(c) is int for c in ints)
        flat += ints
    if base == Q:
        assert scale > 0 and math.gcd(scale, *flat) == 1
    else:
        assert scale == 1 and all(0 <= c < base.p for c in flat)
    for a in x.payloads:
        for exps, c in a.items():
            assert len(exps) == ring.m and sum(exps) < ring.e
            if base == Q:
                assert type(c) is Fraction and c
            else:
                assert type(c) is int and 0 < c < base.p
    assert sum(map(len, x.payloads)) == len(flat) - flat.count(0)


def _check(x, expected):
    ring = x.ring
    _check_form(x)
    assert x.precision == len(expected)
    assert all(map(ring.payload_eq, x.payloads, expected))
    rebuilt = TruncatedSeries(ring, [RingElement(ring, c) for c in expected], len(expected))
    assert x == rebuilt and rebuilt == x
    assert hash(x) == hash(rebuilt)
    if not isinstance(ring, ColimitRing):  # colimit payloads print at their level
        assert x.payloads == tuple(expected)
        assert repr(x) == repr(rebuilt) and rebuilt.form == x.form


def _run_chain(ring, start, chain):
    """Run ``chain`` from the series of ``start`` (payloads) and from the
    payload list alike, checking after every step."""
    x = TruncatedSeries(ring, [RingElement(ring, c) for c in start], len(start))
    expected = list(start)
    _check(x, expected)
    for op, arg in chain:
        following = _oracle(ring, op, expected, arg)
        if following is None:
            continue
        x, expected = _apply(op, x, arg), following
        _check(x, expected)


@SETTINGS
@given(operands, st.lists(steps, max_size=8))
@example([Fraction(2, 7), Fraction(1, 3**20), Fraction(5, 11)], [("invert", None)] * 2)
@example([Fraction(1, 2), Fraction(1, 3)], [("truncate", 1), ("mul", [Fraction(6)])])
def test_rational_chains_match_the_fraction_oracle(start, chain):
    _run_chain(Q, start, chain)


@pytest.mark.parametrize("ring", FAMILIES, ids=repr)
@settings(SETTINGS, max_examples=40)
@given(data=st.data())
def test_chains_match_the_payload_oracle_over_every_family(ring, data):
    start = data.draw(st.lists(_elements(ring), min_size=1, max_size=12), label="start")
    chain = data.draw(st.lists(_steps(ring), max_size=8), label="chain")
    start = [c.value for c in start]
    chain = [(op, [c.value for c in arg] if isinstance(arg, list) else arg) for op, arg in chain]
    _run_chain(ring, start, chain)
