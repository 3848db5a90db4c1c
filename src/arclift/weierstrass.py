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
calls it.  Exact t-polynomials (``MonicPoly``, ``LowPoly``, dividends and
quotients) are kept in their ring's canonical series form (items, scale),
as series are, and a coefficient becomes a ``RingElement`` only when read
through ``low`` or ``coeffs``.
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
from .series import TruncatedSeries, _payload, laurent_divider, reduced_order


class _ExactPoly:
    """An exact t-polynomial, kept as the canonical series form ``form`` of
    its coefficients (see the module docstring)."""

    __slots__ = ("ring", "form", "_payloads")

    @classmethod
    def _of_form(cls, ring, items, scale):
        """Unchecked constructor from a canonical series form of ``ring``."""
        self = object.__new__(cls)
        self.ring = ring
        self.form = (items, scale)
        self._payloads = None
        return self

    @property
    def payloads(self):
        """The coefficients as a tuple of canonical payloads, built on first
        read."""
        if self._payloads is None:
            self._payloads = tuple(self.ring.from_integer_form(*self.form))
        return self._payloads

    @property
    def coeffs(self):
        """The coefficients as ``RingElement``s."""
        return tuple(map(self.ring.element, self.payloads))

    def as_series(self, precision) -> TruncatedSeries:
        """The polynomial read mod t^precision."""
        return TruncatedSeries._of_form(self.ring, *self.form, precision)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        (a, s), (b, r) = self.form, other.form
        ring = self.ring
        return ring == other.ring and s == r and ring.form_len(a) == ring.form_len(b) and ring.form_eq(a, b)

    def __hash__(self):
        return hash((self.ring, self.ring.form_len(self.form[0])))

    def __repr__(self):
        from .textforms import format_t_poly

        return format_t_poly(self.ring, self.payloads)


class MonicPoly(_ExactPoly):
    """t^d + q_{d-1} t^{d-1} + ... + q_0, kept as the form of all d + 1
    coefficients; ``low`` reads the d low ones."""

    __slots__ = ()

    def __init__(self, ring, low):
        self.ring = ring
        self.form = ring.integer_form([_payload(ring, c) for c in [*low, 1]])
        self._payloads = None

    @classmethod
    def t_power(cls, ring, d):
        one = ring.integer_form([ring.payload_from_int(1)])
        return cls._of_form(ring, *ring.form_window(*one, -d, 1))

    @property
    def degree(self):
        return self.ring.form_len(self.form[0]) - 1

    @property
    def low(self):
        return self.coeffs[:-1]

    def is_strict(self) -> bool:
        ring = self.ring
        return all(not ring.residue(ring.element(c)) for c in self.payloads[:-1])

    def t_multiplicity(self) -> int:
        """Largest e with t^e dividing q exactly (e = d when all lows vanish)."""
        return self.ring.form_leading_zeros(self.form[0])

    def is_t_power(self) -> bool:
        """Whether q = t^d, as every strict q over a field is.  The package
        decides this shape here and nowhere else: ``times``,
        ``divide_by_monic``, ``_remainder_exact`` and ``kernel_fiber_basis``
        ask."""
        return self.t_multiplicity() == self.degree

    def times(self, x: TruncatedSeries) -> TruncatedSeries:
        """x * q mod t^N, N the precision of x: for q = t^d one window of x
        (a shift), otherwise one series product."""
        ring, n = self.ring, x.precision
        if self.is_t_power():
            k = min(self.degree, n)
            return TruncatedSeries._of_form(ring, *ring.form_window(*x.form, -k, n - k), n)
        return x * self.as_series(n)


class LowPoly(_ExactPoly):
    """A polynomial of degree < bound (an element of the affine space A_d),
    kept as the form of its ``bound`` coefficients."""

    __slots__ = ()

    def __init__(self, ring, bound, coeffs):
        payloads = [_payload(ring, c) for c in coeffs]
        if len(payloads) > bound:
            raise InvalidDescriptor(f"{len(payloads)} coefficients exceed bound {bound}")
        self.ring = ring
        self.form = ring.form_window(*ring.integer_form(payloads), 0, bound)
        self._payloads = None

    @property
    def bound(self):
        return self.ring.form_len(self.form[0])

    def is_zero(self):
        return self.ring.form_is_zero(self.form[0])

    def __neg__(self):
        return LowPoly._of_form(self.ring, *self.ring.form_neg(*self.form))


@dataclass(frozen=True)
class StrictFactorization:
    """x = u * q mod t^precision, with q strict and q * q' = t^certificate_n."""

    u: TruncatedSeries
    q: MonicPoly
    certificate_n: int
    precision: int


def poly_mul(a, b, ring):
    """The exact product of two t-polynomials given as canonical series
    forms of ``ring``, as a canonical series form: one ``Ring.convolve``."""
    (a, s), (b, r) = a, b
    la, lb = ring.form_len(a), ring.form_len(b)
    if not la or not lb:
        return ring.integer_form(())
    return ring.canonical_form(ring.convolve(a, b, la + lb - 1), s * r)


def divide_by_monic(f, q: MonicPoly):
    """Euclidean division by a monic polynomial: f = q * quot + rem.

    f is a canonical series form of q's ring read as an exact polynomial;
    returns the form of quot and rem as a ``LowPoly`` of bound deg q.  For
    q = t^d they are the two windows of f, from coefficient d on and below
    d, with no payload built.  Otherwise exact synthetic division on the
    payloads of f (the residues of its items over Fp and Z/n, the items
    themselves over colimit rings); no inversions are needed because q is
    monic.
    """
    d = q.degree
    ring = q.ring
    if q.is_t_power():
        n = ring.form_len(f[0])
        return ring.form_window(*f, d, max(n, d)), LowPoly._of_form(ring, *ring.form_window(*f, 0, d))
    padd, pmul, pzero = ring.payload_add, ring.payload_mul, ring.payload_is_zero
    zero = ring.payload_from_int(0)
    rem = list(ring.from_integer_form(*f))
    rem += [zero] * (d - len(rem))
    quot = [zero] * (len(rem) - d)
    neg_low = [(j, ring.payload_neg(c)) for j, c in enumerate(q.payloads[:d]) if not pzero(c)]
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if pzero(c):
            continue
        quot[i - d] = c
        for j, nqj in neg_low:
            rem[i - d + j] = padd(rem[i - d + j], pmul(c, nqj))
    return ring.integer_form(quot), LowPoly._of_form(ring, *ring.integer_form(rem[:d]))


def strict_prepare(x: TruncatedSeries) -> StrictFactorization:
    """Unique strict factorization x = u * q over a local Artinian ring.

    Preconditions: the ring is local Artinian (fields count with e = 1),
    x is non-degenerate of reduced order d, and N >= d*(e+1) so that every
    Euclidean reduction below stays exact.  The certificate exponent d*e is
    sound (each low coefficient of q is nilpotent, so t^d iterated e times
    dies) though not always minimal.

    Each round's defect x - u * q is one ``MonicPoly.times``.  The first
    round starts from q = t^d, so its u * q is a shift of u; over a field
    that defect is zero and the preparation makes no series product.
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
        defect = x - q.times(u_padded)
        if defect.is_zero():
            return StrictFactorization(u=u, q=q, certificate_n=d * e, precision=big_n)
        g, dq = divide_by_monic((u_padded.invert() * defect).form, q)
        q = MonicPoly._of_form(ring, *(q.as_series(d + 1) + dq.as_series(d + 1)).form)
        n = u.precision
        u = u + u * TruncatedSeries._of_form(ring, *g, n)
    raise RuntimeError("strict preparation did not converge; this is a bug")


def _remainder_exact(q: MonicPoly, precision: int) -> bool:
    """Whether the t^N truncation tail cannot leak into the remainder."""
    if q.is_t_power():
        return True  # the tail reduces to zero outright
    ring = q.ring
    if not ring.is_local:
        return False
    e = ring.nilpotency_exponent()
    return q.is_strict() and precision >= q.degree * (e + 1)


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
    quot, a = divide_by_monic(f.form, q)
    h = TruncatedSeries._of_form(f.ring, *quot, f.precision - d)
    return WeierstrassDivision(h=h, a=a, exact=_remainder_exact(q, f.precision))


def divides_power_of_t(q: MonicPoly, n: int) -> MonicPoly:
    """The unique monic q' with q * q' = t^n, or raise NoDivide with witness."""
    d = q.degree
    if n < d:
        raise InvalidDescriptor(f"t^{n} cannot be divisible by a degree {d} monic")
    quot, rem = divide_by_monic(MonicPoly.t_power(q.ring, n).form, q)
    if not rem.is_zero():
        raise NoDivide(rem)
    return MonicPoly._of_form(q.ring, *quot)


def recombine_division(q: MonicPoly, a: LowPoly, v: TruncatedSeries) -> TruncatedSeries:
    """q * v + a: reassemble Weierstrass division data into a series."""
    if not (q.ring == a.ring == v.ring):
        raise MixedRings("q, a, v must share one ring")
    return q.times(v) + a.as_series(v.precision)


def recombine_factorization(q: MonicPoly, u: TruncatedSeries) -> TruncatedSeries:
    """u * q: reassemble a factorization; u must be a unit series."""
    if q.ring != u.ring:
        raise MixedRings(f"{q.ring} vs {u.ring}")
    if not u.ring.is_unit(u.coefficient(0)):
        raise NotAUnit("constant coefficient of u is not a unit")
    return q.times(u)


def kernel_fiber_basis(q: MonicPoly, precision: int):
    """Basis of the fiber {(a, v) : q*v + a = 0} over a field.

    With e the multiplicity of t in q, the remainders a = t^i for
    i = e..d-1 are exactly divisible by q inside k[[t]], and the resulting
    pairs (t^i, -t^i/q) span the d-e dimensional fiber.  Dividing by q
    prepares it strictly, which over a field needs N >= 2e known orders;
    a shorter N is refused before any division.
    """
    ring = q.ring
    if not ring.is_field:
        raise InvalidDescriptor("fiber computation requires field coefficients")
    if q.is_t_power():
        return []  # the fiber is zero, and nothing needs dividing
    d, e = q.degree, q.t_multiplicity()
    if precision < 2 * e:
        raise InsufficientPrecision(
            f"the fiber of a q of t-multiplicity {e} needs N >= {2 * e}, got {precision}")
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
