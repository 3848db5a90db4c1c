"""Chains of series operations over Q against a pure-Fraction oracle.

Series over Q keep a canonical integer form (ints, scale) and build their
Fraction payloads only when read.  ``hypothesis`` draws a start series and
a chain of products, sums, differences, negations, shifts, truncations,
drops, paddings and inverses; the oracle below runs the same chain on plain
lists of ``Fraction``s by schoolbook loops, so nothing here reuses arclift's
kernel.
After every step the result must equal the oracle, equal the series rebuilt
from its own Fractions (with the same hash and repr), and store its form
with the content divided out.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arclift import RationalRing, TruncatedSeries  # noqa: E402

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


def _oracle(op, a, arg):
    """One step on a list of Fractions (the known coefficients), or None
    where the operation does not apply."""
    if op == "mul":
        n = min(len(a), len(arg))
        return [sum((a[i] * arg[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]
    if op == "add":
        return [x + y for x, y in zip(a, arg)]
    if op == "sub":
        return [x - y for x, y in zip(a, arg)]
    if op == "neg":
        return [-x for x in a]
    if op == "shift":
        return [Fraction(0)] * arg + a
    if op == "truncate":
        return a[: max(1, len(a) - arg)]
    if op == "drop":
        return a[min(arg, len(a) - 1):]
    if op == "pad":
        return a + [Fraction(0)] * arg
    if not a[0]:
        return None
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum((a[i] * out[k - i] for i in range(1, k + 1)), Fraction(0)) / a[0])
    return out


def _apply(op, x, arg):
    if op in ("mul", "add", "sub"):
        y = TruncatedSeries(Q, [Q.element(c) for c in arg], len(arg))
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


def _check(x, expected):
    ints, scale = x.form
    assert scale > 0 and math.gcd(scale, *ints) == 1
    assert len(ints) == x.precision == len(expected)
    assert all(type(c) is Fraction for c in x.payloads)
    assert list(x.payloads) == expected
    rebuilt = TruncatedSeries(Q, [Q.element(c) for c in expected], len(expected))
    assert x == rebuilt and rebuilt == x
    assert hash(x) == hash(rebuilt) and repr(x) == repr(rebuilt)
    assert rebuilt.form == x.form


@SETTINGS
@given(operands, st.lists(steps, max_size=8))
@example([Fraction(2, 7), Fraction(1, 3**20), Fraction(5, 11)], [("invert", None)] * 2)
@example([Fraction(1, 2), Fraction(1, 3)], [("truncate", 1), ("mul", [Fraction(6)])])
def test_rational_chains_match_the_fraction_oracle(start, chain):
    x = TruncatedSeries(Q, [Q.element(c) for c in start], len(start))
    expected = list(start)
    for op, arg in chain:
        following = _oracle(op, expected, arg)
        if following is None:
            continue
        x, expected = _apply(op, x, arg), following
        _check(x, expected)
