"""Byte-identity of the lifting and jet outputs, pinned by sha256.

Every digest hashes the ``repr`` of the results on seeded inputs, so any
change in the computed coefficients, their precision or their printed form
shows here.  The digests were recorded from a version that evaluated each
polynomial term by term with ``MultiPoly.evaluate_or``; an evaluation
strategy that changes none of them leaves every output byte-identical.
"""

import hashlib
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
    expand_around,
    map_mod_poly,
)
from arclift.jets import ModQVector

from _helpers import random_element

RINGS = {
    "Fp(5)": PrimeFieldRing(5),
    "Q": RationalRing(),
    "Zmod(27)": IntegersMod(27),
    "Artin(Fp(5); eps; 2)": ArtinianLocalRing(PrimeFieldRing(5), ["eps"], 2),
}

# name -> (map, leading exponent per coordinate, lowest perturbed order, N values)
CURVES = {
    "cusp": (
        PolyMap(("x1", "y1"), 1, [MultiPoly(2, {(0, 2): 1, (3, 0): -1})]),
        (2, 3),
        4,
        (40, 64),
    ),
    "space": (
        PolyMap(
            ("x1", "y1", "z1"),
            1,
            [MultiPoly(3, {(0, 2, 0): 1, (3, 0, 0): -1}), MultiPoly(3, {(0, 0, 2): 1, (5, 0, 0): -1})],
        ),
        (2, 3, 5),
        9,
        (72, 96),
    ),
    # the space curve with u = y1 + z1: Dh has an off-diagonal entry
    "sheared": (
        PolyMap(
            ("x1", "u", "w"),
            1,
            [
                MultiPoly(3, {(0, 2, 0): 1, (0, 1, 1): -2, (0, 0, 2): 1, (3, 0, 0): -1}),
                MultiPoly(3, {(0, 0, 2): 1, (5, 0, 0): -1}),
            ],
        ),
        (2, 3, 5),
        9,
        (72, 96),
    ),
}

LIFT_DIGESTS = {
    ("cusp", "Fp(5)"): "c2a9b38d51efbe36d93576ed2fdbbad814d9301a0da3db646bfff5cc176b4f48",
    ("cusp", "Q"): "bad39acc14c5f04ecec21055e074069103510a695f569118fe10c2f77b505270",
    ("cusp", "Zmod(27)"): "cfdc73182bdc9fcbdd7c52af93ac5e646d3aac59d0b0f2ebe7a59b163120cda9",
    ("cusp", "Artin(Fp(5); eps; 2)"): "7f1001dee82fab5c9bc8cca70843f4bcfa03b738489cbf9760370ed78d16a2d3",
    ("space", "Fp(5)"): "2f86d1cf85568f2ba9e9adeb4097a905f09369186679098077643652e5ff25a9",
    ("space", "Q"): "78a231a6ae50d6a3effd7dd66ac1bee9180c24c3c3439f6b3a2c1d97893831e9",
    ("space", "Zmod(27)"): "e22a2f93b17e3f2cdfb48ba5771fac31b17ab219c61b0980cbe9ae909da50aed",
    ("space", "Artin(Fp(5); eps; 2)"): "67f9d06fb882eda37ee59670d65baf7400b34b96bbf15bee7ae88db3efb1fedf",
    ("sheared", "Fp(5)"): "34fa520ef127646ffda01a208aa174498ea4bcf33b2756af44c89cef58413ced",
    ("sheared", "Q"): "f432403caadb768ec2553f6022c5c495d1f0a0c85cec8359bb163f52ee987701",
    ("sheared", "Zmod(27)"): "991d156487817a0d83a6162ace88304d7e0c772a08899b583d18c9c58f382689",
    ("sheared", "Artin(Fp(5); eps; 2)"): "b305b10e26e6ec1dc08e7718a54f2c2507f1f2bef28c7a5fe525c4c303b70975",
}


def _digest(parts):
    return hashlib.sha256("\n".join(map(repr, parts)).encode()).hexdigest()


def _element(ring, rng):
    """A small random coefficient: over Q and Z/n an int in [-3, 3], so Q
    lifts stay cheap; elsewhere a uniform element."""
    if isinstance(ring, (RationalRing, IntegersMod)):
        return ring.from_int(rng.randint(-3, 3))
    return random_element(ring, rng)


def _arc(curve, ring, n, seed):
    pm, lead, low, _ = CURVES[curve]
    rng = random.Random(seed)
    comps = []
    for i, k in enumerate(lead):
        coeffs = [ring.zero] * n
        coeffs[k] = ring.one
        if i:  # the passive x1 stays t^2
            for j in range(low, n):
                coeffs[j] = coeffs[j] + _element(ring, rng)
        comps.append(coeffs)
    if curve == "sheared":
        comps[1] = [a + b for a, b in zip(comps[1], comps[2])]
    return ArcPoint(pm, [TruncatedSeries(ring, c, n) for c in comps])


def lift_digest(curve, ring_name):
    parts = []
    for n in CURVES[curve][3]:
        result = arc_lift(_arc(curve, RINGS[ring_name], n, seed=19 * n + len(curve)))
        parts += [result.v1, result.v0, result.arc.components, result.precision]
    return _digest(parts)


@pytest.mark.parametrize("ring_name", RINGS)
@pytest.mark.parametrize("curve", CURVES)
def test_arc_lift_outputs_are_pinned(curve, ring_name):
    assert lift_digest(curve, ring_name) == LIFT_DIGESTS[curve, ring_name]


def _jet_map(rng, m, n, third):
    """A map with coefficients +-1, +-2 and ``third`` and constant terms."""
    coeffs = [1, -1, 2, third, -2]
    polys = []
    for _ in range(n):
        terms = {(0,) * m: rng.choice(coeffs)}
        for _ in range(4):
            terms[tuple(rng.randrange(3) for _ in range(m))] = rng.choice(coeffs)
        polys.append(MultiPoly(m, terms))
    return PolyMap(tuple(f"y{i}" for i in range(m)), m - n, polys)


JET_DIGESTS = {
    "Fp(5)": "0daeb5a0adc4ceeb65cfcf164cb316521b85447510f7f20854cc938d309f86d2",
    "Q": "73f9d59e4bbe78bbb3861256f207d2cf6dee2833372881066eccfab11083d719",
    "Zmod(27)": "5fa044c9e41b7bcabf7d5e531cd94b7f527261be3ffb9a6be23fd0486b805730",
    "Artin(Fp(5); eps; 2)": "f5ce89c62ac8525830c5e246b092b709453a9d6118081c8f14ae055eeda5a819",
}


def jet_digest(ring_name):
    ring = RINGS[ring_name]
    rng = random.Random(2024)
    # 3 is no unit in Z/27
    third = Fraction(1, 2) if isinstance(ring, IntegersMod) else Fraction(1, 3)
    parts = []
    for d in range(1, 5):
        for m in (1, 2, 3):
            g = _jet_map(rng, m, rng.randrange(1, m + 1), third)
            q = MonicPoly(ring, [_element(ring, rng) for _ in range(d)])
            xbar = ModQVector(q, [LowPoly(ring, d, [_element(ring, rng) for _ in range(d)]) for _ in range(m)])
            parts.append(map_mod_poly(g, q, xbar))
            tq = MonicPoly(ring, [ring.zero, *q.coeffs[:-1]])
            xbar = ModQVector(
                tq, [LowPoly(ring, d + 1, [_element(ring, rng) for _ in range(d + 1)]) for _ in range(m)]
            )
            prec = d + 1 + rng.randrange(3)
            xprime = [TruncatedSeries(ring, [_element(ring, rng) for _ in range(prec)], prec) for _ in range(m)]
            out = expand_around(g, q, xbar, xprime)
            parts += [out.head, out.tail]
    return _digest(parts)


@pytest.mark.parametrize("ring_name", RINGS)
def test_jet_outputs_are_pinned(ring_name):
    assert jet_digest(ring_name) == JET_DIGESTS[ring_name]
