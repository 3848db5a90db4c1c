"""Strict Weierstrass preparation and division over local Artinian rings.

A monic polynomial q is *strict* when all of its non-leading coefficients
are nilpotent, equivalently q is congruent to t^d modulo the nilradical;
such a q divides t^(d*e) exactly, where m^e = 0.  Every non-degenerate
series over a local Artinian ring factors uniquely as x = u * q with u a
unit series and q strict, and this module computes that factorization
exactly at the stated truncation.

The preparation algorithm is a Newton iteration on the pair (u, q): each
round Euclidean-divides the unit-normalized defect by the current q and
absorbs the remainder into q and the quotient into u.  The defect shrinks
by at least one power of the maximal ideal per round (quadratically away
from the truncation boundary), so at most e rounds are needed and the exit
test is exact equality u * q = x mod t^N.

``divide_by_monic`` is the package's only Euclidean division: every
reduction by a monic polynomial, here, in ``jets`` and in ``pathology``,
calls it on payload lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InsufficientPrecision,
    InvalidDescriptor,
    MixedRings,
    NoDivide,
    NonLocalRing,
    NotAUnit,
)
from .rings import RingElement
from .series import TruncatedSeries, _payload, convolve, laurent_divider, reduced_order


def _elements(ring, coeffs):
    """Coefficients given as elements of ``ring`` or ints, as canonical
    elements of ``ring``; an element of another ring raises MixedRings."""
    return tuple(RingElement(ring, _payload(ring, c)) for c in coeffs)


class MonicPoly:
    """t^d + q_{d-1} t^{d-1} + ... + q_0; only the low coefficients are stored."""

    __slots__ = ("ring", "low")

    def __init__(self, ring, low):
        self.ring = ring
        self.low = _elements(ring, low)

    @classmethod
    def from_ints(cls, ring, low_ints):
        return cls(ring, low_ints)

    @classmethod
    def t_power(cls, ring, d):
        return cls(ring, [ring.zero] * d)

    @property
    def degree(self):
        return len(self.low)

    def coeff_list(self):
        return list(self.low) + [self.ring.one]

    def is_strict(self) -> bool:
        ring = self.ring
        return all(not ring.residue(c) for c in self.low)

    def t_multiplicity(self) -> int:
        """Largest e with t^e dividing q exactly (e = d when all lows vanish)."""
        for i, c in enumerate(self.low):
            if c:
                return i
        return self.degree

    def as_series(self, precision) -> TruncatedSeries:
        return TruncatedSeries(self.ring, self.coeff_list(), precision)

    def eval_at(self, a: RingElement) -> RingElement:
        acc = self.ring.one
        for c in reversed(self.low):
            acc = acc * a + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, MonicPoly):
            return NotImplemented
        return self.ring == other.ring and self.low == other.low

    def __hash__(self):
        return hash((self.ring, self.degree))

    def __repr__(self):
        from .textforms import format_monic

        return format_monic(self)


class LowPoly:
    """A polynomial of degree < bound (an element of the affine space A_d)."""

    __slots__ = ("ring", "bound", "coeffs")

    def __init__(self, ring, bound, coeffs):
        coeffs = _elements(ring, coeffs)
        if len(coeffs) > bound:
            raise InvalidDescriptor(f"{len(coeffs)} coefficients exceed bound {bound}")
        self.ring = ring
        self.bound = bound
        self.coeffs = coeffs + (ring.zero,) * (bound - len(coeffs))

    @classmethod
    def from_ints(cls, ring, bound, ints):
        return cls(ring, bound, ints)

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def degree(self):
        for i in range(self.bound - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def as_series(self, precision) -> TruncatedSeries:
        return TruncatedSeries(self.ring, self.coeffs, precision)

    def __neg__(self):
        return LowPoly(self.ring, self.bound, [-c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, LowPoly):
            return NotImplemented
        return self.ring == other.ring and self.bound == other.bound and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.ring, self.bound))

    def __repr__(self):
        from .textforms import format_low

        return format_low(self)


@dataclass(frozen=True)
class StrictFactorization:
    """x = u * q mod t^precision, with q strict and q * q' = t^certificate_n."""

    u: TruncatedSeries
    q: MonicPoly
    certificate_n: int
    precision: int


def poly_mul(a, b, ring):
    """Exact product of two coefficient lists."""
    if not a or not b:
        return []
    out = convolve(ring, [c.value for c in a], [c.value for c in b], len(a) + len(b) - 1)
    return [RingElement(ring, v) for v in out]


def divide_by_monic(payloads, q: MonicPoly):
    """Euclidean division by a monic polynomial: f = q * quot + rem.

    Exact synthetic division of an ascending payload sequence f over q's
    ring; returns the payload lists (quot, rem) with len(rem) == deg q.  No
    inversions are needed because q is monic.
    """
    d = q.degree
    ring = q.ring
    padd, pmul, pzero = ring.payload_add, ring.payload_mul, ring.payload_is_zero
    zero = ring.payload_from_int(0)
    rem = list(payloads)
    rem += [zero] * (d - len(rem))
    quot = [zero] * (len(rem) - d)
    neg_low = [(j, ring.payload_neg(c.value)) for j, c in enumerate(q.low) if c]
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if pzero(c):
            continue
        quot[i - d] = c
        for j, nqj in neg_low:
            rem[i - d + j] = padd(rem[i - d + j], pmul(c, nqj))
    return quot, rem[:d]


def strict_prepare(x: TruncatedSeries) -> StrictFactorization:
    """Unique strict factorization x = u * q over a local Artinian ring.

    Preconditions: the ring is local Artinian (fields count with e = 1),
    x is non-degenerate of reduced order d, and N >= d*(e+1) so that every
    Euclidean reduction below stays exact.  The certificate exponent d*e is
    sound (each low coefficient of q is nilpotent, so t^d iterated e times
    dies) though not always minimal.
    """
    ring = x.ring
    if not ring.is_local:
        raise NonLocalRing(f"{ring} is not local; strict factorization needs a local ring")
    e = ring.nilpotency_exponent()
    d = reduced_order(x)
    big_n = x.precision
    if big_n < d * (e + 1):
        raise InsufficientPrecision(
            f"strict preparation of order {d} over m^{e}=0 needs N >= {d * (e + 1)}, got {big_n}"
        )
    u = x.drop(d)
    q = MonicPoly.t_power(ring, d)
    for _ in range(e + 1):
        # u has degree < N - d, so u * q is exact at precision N
        u_padded = u.pad(big_n)
        defect = x - u_padded.times_poly(q.coeff_list())
        if defect.is_zero():
            return StrictFactorization(u=u, q=q, certificate_n=d * e, precision=big_n)
        g, dq = divide_by_monic((u_padded.invert() * defect).payloads, q)
        q = MonicPoly(ring, [a + RingElement(ring, b) for a, b in zip(q.low, dq)])
        n = u.precision
        u = u + TruncatedSeries._wrap(ring, convolve(ring, g, u.payloads, n), n)
    raise RuntimeError("strict preparation did not converge; this is a bug")


def _remainder_exact(q: MonicPoly, precision: int) -> bool:
    """Whether the t^N truncation tail cannot leak into the remainder."""
    d = q.degree
    if q.t_multiplicity() == d:
        return True  # q = t^d: the tail reduces to zero outright
    ring = q.ring
    if not ring.is_local:
        return False
    e = ring.nilpotency_exponent()
    return q.is_strict() and precision >= d * (e + 1)


@dataclass(frozen=True)
class WeierstrassDivision:
    """f = q * h + a with deg a < deg q; ``exact`` marks a trustworthy a.

    When q is not strict (or the precision budget is short) the division is
    still performed, but the unknown t^N tail of f could have leaked into
    the remainder, so a is flagged approximate instead of raising.
    """

    h: TruncatedSeries
    a: LowPoly
    exact: bool


def weierstrass_divide(f: TruncatedSeries, q: MonicPoly) -> WeierstrassDivision:
    if f.ring != q.ring:
        raise MixedRings(f"{f.ring} vs {q.ring}")
    d = q.degree
    if f.precision < d + 1:
        raise InsufficientPrecision(
            f"division by degree {d} needs at least {d + 1} known orders, got {f.precision}"
        )
    quot, rem = divide_by_monic(f.payloads, q)
    h = TruncatedSeries._wrap(f.ring, quot, f.precision - d)
    a = LowPoly(f.ring, d, [RingElement(f.ring, v) for v in rem])
    return WeierstrassDivision(h=h, a=a, exact=_remainder_exact(q, f.precision))


def divides_power_of_t(q: MonicPoly, n: int) -> MonicPoly:
    """The unique monic q' with q * q' = t^n, or raise NoDivide with witness."""
    d = q.degree
    if n < d:
        raise InvalidDescriptor(f"t^{n} cannot be divisible by a degree {d} monic")
    ring = q.ring
    tn = [ring.payload_from_int(0)] * n + [ring.payload_from_int(1)]
    quot, rem = divide_by_monic(tn, q)
    if not all(map(ring.payload_is_zero, rem)):
        raise NoDivide(LowPoly(ring, d, [RingElement(ring, v) for v in rem]))
    return MonicPoly(ring, [RingElement(ring, v) for v in quot[:-1]])


def recombine_division(q: MonicPoly, a: LowPoly, v: TruncatedSeries) -> TruncatedSeries:
    """q * v + a: reassemble Weierstrass division data into a series."""
    if not (q.ring == a.ring == v.ring):
        raise MixedRings("q, a, v must share one ring")
    return v.times_poly(q.coeff_list()) + a.as_series(v.precision)


def recombine_factorization(q: MonicPoly, u: TruncatedSeries) -> TruncatedSeries:
    """u * q: reassemble a factorization; u must be a unit series."""
    if q.ring != u.ring:
        raise MixedRings(f"{q.ring} vs {u.ring}")
    if not u.ring.is_unit(u.coefficient(0)):
        raise NotAUnit("constant coefficient of u is not a unit")
    return u.times_poly(q.coeff_list())


def kernel_fiber_basis(q: MonicPoly, precision: int):
    """Basis of the fiber {(a, v) : q*v + a = 0} over a field.

    With e the multiplicity of t in q, the remainders a = t^i for
    i = e..d-1 are exactly divisible by q inside k[[t]], and the resulting
    pairs (t^i, -t^i/q) span the d-e dimensional fiber.
    """
    ring = q.ring
    if not ring.is_field:
        raise InvalidDescriptor("fiber computation requires field coefficients")
    d = q.degree
    e = q.t_multiplicity()
    if e == d:
        return []  # q = t^d: the fiber is zero, and nothing needs dividing
    divide = laurent_divider(q.as_series(precision))
    out = []
    for i in range(e, d):
        a = LowPoly(ring, d, [ring.zero] * i + [ring.one])
        quotient = divide((-a).as_series(precision))
        v = quotient.power_series_part()
        if v is None:
            raise RuntimeError("t^e | a guarantees a power series quotient; this is a bug")
        out.append((a, v))
    return out


class InfiniteWithinPrecision:
    """Verdict: every known coefficient vanishes at the sampled point."""

    def __repr__(self):
        return "infinite-within-precision"


INFINITE_WITHIN_PRECISION = InfiniteWithinPrecision()


def ord_at_point(coeff_polys, point):
    """Vanishing order at one point of the coefficient parameter space.

    ``coeff_polys`` lists the series coefficients as polynomials in the
    parameters; the point is substituted into each and the first index with
    a nonzero value is returned.  If all known coefficients vanish the
    sentinel ``INFINITE_WITHIN_PRECISION`` comes back: the truncation shows
    nothing beyond the sampled window.
    """
    point = list(point)
    if not point:
        raise InvalidDescriptor("a point needs at least one coordinate")
    zero = point[0].ring.zero
    for i, poly in enumerate(coeff_polys):
        value = poly.evaluate_or(point, zero)
        if value:
            return i
    return INFINITE_WITHIN_PRECISION
