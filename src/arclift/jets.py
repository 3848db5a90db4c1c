"""Finite-level jet data parameterized by a monic modulus.

A vector mod q packages m residues in R[t]/(q); Euclidean division by the
monic q identifies that quotient with polynomials of degree < deg q, so
polynomial maps act by evaluate-then-reduce.  The two-term expansion
splits g(xbar + t*q*x') into a reduction mod t*q plus an exact multiple of
t*q, which is the finite-level shadow of restricting equations to moving
divisors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch, InsufficientPrecision, MixedRings
from .newton import PolyMap
from .series import TruncatedSeries
from .rings import RingElement
from .weierstrass import LowPoly, MonicPoly, _remainder_exact, divide_by_monic, poly_mul


class ModQVector:
    """An m-tuple of residues mod a monic polynomial, stored as low polys."""

    __slots__ = ("modulus", "components")

    def __init__(self, modulus: MonicPoly, components):
        components = tuple(components)
        d = modulus.degree
        for c in components:
            if c.ring != modulus.ring:
                raise MixedRings("components must live over the modulus ring")
            if c.bound != d:
                raise ArityMismatch(f"component bound {c.bound} != deg q = {d}")
        self.modulus = modulus
        self.components = components

    def __eq__(self, other):
        if not isinstance(other, ModQVector):
            return NotImplemented
        return self.modulus == other.modulus and self.components == other.components

    def __repr__(self):
        comps = ", ".join(map(repr, self.components))
        return f"{{q: {self.modulus!r}, comps: [{comps}]}}"


@dataclass(frozen=True)
class ModQReduction:
    """Remainder mod q; ``exact`` is false when the t^N tail could leak in."""

    value: LowPoly
    exact: bool


def mod_q_reduce(x: TruncatedSeries, q: MonicPoly) -> ModQReduction:
    """Remainder of the truncation of x under Euclidean division by q."""
    if x.ring != q.ring:
        raise MixedRings(f"{x.ring} vs {q.ring}")
    if x.precision < q.degree:
        raise InsufficientPrecision(
            f"reduction mod degree {q.degree} needs {q.degree} known orders, got {x.precision}"
        )
    _, rem = divide_by_monic(x.payloads, q)
    rem = [RingElement(x.ring, v) for v in rem]
    return ModQReduction(
        value=LowPoly(x.ring, q.degree, rem), exact=_remainder_exact(q, x.precision)
    )


class _QuotientValue:
    """Arithmetic carrier for R[t]/(q): multiply coefficient lists, reduce."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus, coeffs):
        self.modulus = modulus
        self.coeffs = coeffs  # length == deg q

    def __add__(self, other):
        return _QuotientValue(
            self.modulus, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        ring = self.modulus.ring
        prod = poly_mul(self.coeffs, other.coeffs, ring)
        _, rem = divide_by_monic([c.value for c in prod], self.modulus)
        return _QuotientValue(self.modulus, [RingElement(ring, v) for v in rem])


def map_mod_poly(f: PolyMap, q: MonicPoly, xbar: ModQVector) -> ModQVector:
    """Apply a polynomial map componentwise in R[t]/(q)."""
    if xbar.modulus != q:
        raise ArityMismatch("vector is reduced mod a different modulus")
    if len(xbar.components) != f.m:
        raise ArityMismatch(f"map expects {f.m} components, got {len(xbar.components)}")
    ring = q.ring
    d = q.degree
    values = [_QuotientValue(q, list(c.coeffs)) for c in xbar.components]
    zero = _QuotientValue(q, [ring.zero] * d)

    def embed(c):
        return _QuotientValue(q, [ring.from_fraction(c)] + [ring.zero] * (d - 1))

    out = []
    for poly in f.polys:
        val = poly.evaluate_or(values, zero, embed=embed)
        out.append(LowPoly(ring, d, val.coeffs))
    return ModQVector(q, out)


@dataclass(frozen=True)
class Expansion:
    """g(xbar + t*q*x') = head + t*q * tail, exactly at the stated precision."""

    head: ModQVector
    tail: tuple


def expand_around(g: PolyMap, q: MonicPoly, xbar: ModQVector, xprime) -> Expansion:
    """Two-term expansion of g along the perturbation t*q*x'.

    ``xbar`` holds residues mod the monic t*q (bound deg q + 1): the head of
    the expansion lives one degree higher than q because the perturbation
    direction is t*q.  The quotient ``tail`` is exact Euclidean data, so
    head + t*q*tail reconstructs g(xbar + t*q*x') at full precision.
    """
    xprime = tuple(xprime)
    d = q.degree
    ring = q.ring
    tq = MonicPoly(ring, [ring.zero] + list(q.low))
    if xbar.modulus != tq:
        raise ArityMismatch("xbar must be reduced mod t*q (bound deg q + 1)")
    if len(xbar.components) != g.m or len(xprime) != g.m:
        raise ArityMismatch(f"map expects {g.m} components")
    prec = min(x.precision for x in xprime)
    if prec < 1 or prec + 1 < d + 2:
        raise InsufficientPrecision(
            f"expansion mod t*q of degree {d + 1} needs perturbations known mod t^{d + 1}"
        )
    moved = []
    for c, xp in zip(xbar.components, xprime):
        step = xp.times_poly(q.coeff_list()).shift(1)  # t*q*x', gains one order
        moved.append(c.as_series(step.precision) + step)
    w_prec = min(s.precision for s in moved)
    zero = TruncatedSeries.constant(ring.zero, w_prec)
    heads = []
    tails = []
    for poly in g.polys:
        w = poly.evaluate_or(
            moved, zero, embed=lambda c: TruncatedSeries.constant(ring.from_fraction(c), w_prec)
        )
        quot, rem = divide_by_monic(w.payloads, tq)
        heads.append(LowPoly(ring, d + 1, [RingElement(ring, v) for v in rem]))
        tails.append(TruncatedSeries._wrap(ring, quot, w.precision - (d + 1)))
    return Expansion(head=ModQVector(tq, heads), tail=tuple(tails))
