"""Finite-level jet data parameterized by a monic modulus.

A vector mod q packages m residues in R[t]/(q); Euclidean division by the
monic q identifies that quotient with polynomials of degree < deg q, so
polynomial maps act by evaluate-then-reduce: ``map_mod_poly`` evaluates the
residues as exact polynomials with ``newton.evaluate_along`` and divides by
q once, which agrees with reducing after every product because reduction
mod q is a ring map.  The two-term expansion
splits g(xbar + t*q*x') into a reduction mod t*q plus an exact multiple of
t*q, which is the finite-level shadow of restricting equations to moving
divisors.  Residues, moduli and quotients keep the ring's series form (see
``weierstrass``), so they pass to and from series without conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityMismatch, InsufficientPrecision, MixedRings
from .newton import PolyMap, evaluate_along
from .series import TruncatedSeries
from .weierstrass import LowPoly, MonicPoly, _remainder_exact, divide_by_monic


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

    def __hash__(self):
        return hash((self.modulus, len(self.components)))

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
    _, rem = divide_by_monic(x.form, q)
    return ModQReduction(value=rem, exact=_remainder_exact(q, x.precision))


def map_mod_poly(f: PolyMap, q: MonicPoly, xbar: ModQVector) -> ModQVector:
    """Apply a polynomial map componentwise in R[t]/(q).

    The residues have degree < d = deg q, so a map polynomial of total
    degree D takes them to a polynomial of degree <= D*(d-1): evaluated at
    that precision it is exact, and one division by q reduces it.
    """
    if xbar.modulus != q:
        raise ArityMismatch("vector is reduced mod a different modulus")
    if len(xbar.components) != f.m:
        raise ArityMismatch(f"map expects {f.m} components, got {len(xbar.components)}")
    d = q.degree
    out = []
    for poly in f.polys:
        n = max(1, max(map(sum, poly.terms), default=0) * (d - 1) + 1)
        values = [c.as_series(n) for c in xbar.components]
        _, rem = divide_by_monic(evaluate_along(poly, values, n).form, q)
        out.append(rem)
    return ModQVector(q, out)


@dataclass(frozen=True)
class Expansion:
    """g(xbar + t*q*x') = head + t*q * tail, exactly at the stated precision."""

    head: ModQVector
    tail: tuple


def expand_around(g: PolyMap, q: MonicPoly, xbar: ModQVector, xprime) -> Expansion:
    """Two-term expansion of g along the perturbation t*q*x'.

    ``xbar`` holds residues mod the monic t*q (bound deg q + 1): the head
    of the expansion lives one degree higher than q because the
    perturbation direction is t*q.  The head is g(xbar) mod t*q
    (``map_mod_poly``), exact whatever x' is.  The tail is
    (g(xbar + t*q*x') - head) / (t*q).  With x' known mod t^k, any
    extension moves the argument by a multiple of t^(k+1)*q, so it moves
    the tail only from order k on; the tail is therefore the Euclidean
    quotient of g at the exact polynomials xbar + t*q*(x' mod t^k), cut to
    precision k - deg q, and head + t*q*tail is g(xbar + t*q*x') mod
    t^(k+1).
    """
    xprime = tuple(xprime)
    d = q.degree
    ring = q.ring
    items, scale = q.form
    tq = MonicPoly._of_form(ring, *ring.form_window(items, scale, -1, ring.form_len(items)))
    if xbar.modulus != tq:
        raise ArityMismatch("xbar must be reduced mod t*q (bound deg q + 1)")
    if len(xbar.components) != g.m or len(xprime) != g.m:
        raise ArityMismatch(f"map expects {g.m} components")
    prec = min(x.precision for x in xprime)
    if prec < 1 or prec + 1 < d + 2:
        raise InsufficientPrecision(
            f"expansion mod t*q of degree {d + 1} needs perturbations known mod t^{d + 1}"
        )
    # the moved arguments have degree <= d + prec, so g of them is exact here
    top = max((sum(exps) for poly in g.polys for exps in poly.terms), default=0)
    n = max(top, 1) * (d + prec) + 1
    moved = [
        c.as_series(n) + (xp.truncate(prec).pad(n - 1) * q.as_series(n - 1)).shift(1)
        for c, xp in zip(xbar.components, xprime)
    ]
    tails = []
    for poly in g.polys:
        quot, _ = divide_by_monic(evaluate_along(poly, moved, n).form, tq)
        tails.append(TruncatedSeries._of_form(ring, *quot, prec - d))
    return Expansion(head=map_mod_poly(g, tq, xbar), tail=tuple(tails))
