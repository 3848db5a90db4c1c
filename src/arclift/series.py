"""Truncated power series R[[t]] mod t^N and Laurent series.

A series stores its coefficients as canonical ring payloads (see
``rings``), and sums, products, shifts and truncations run on those
payloads; ``RingElement`` wrappers are built only where a coefficient
leaves the series API (``coefficient``, the ``coeffs`` view).

Precision is explicit data.  Every operation states the precision of its
output and never claims a coefficient beyond it: sums and products follow
the min-precision rule, shifts gain orders, and Laurent division records
exactly how many orders the strict-factorization certificate consumed.

``convolve`` is the entry point of every t-polynomial product: series
products, ``times_poly`` and ``weierstrass.poly_mul`` all call it.  It
cuts both operands to the output length and hands them to the ring
(``Ring.convolve``), so each ring family chooses its own product path.
Likewise ``TruncatedSeries.invert`` checks the constant term and inverts it
with ``Ring.invert`` (the colimit models refuse there), then hands the
payloads to ``Ring.invert_series``: the fraction-free integer recurrence
for Fp, Z/n and Q, the payload recurrence for Artinian rings.
"""

from __future__ import annotations

from .errors import (
    Indeterminate,
    InsufficientPrecision,
    MixedRings,
    NotAUnit,
    PrecisionExhausted,
)
from .rings import RingElement


def convolve(ring, a, b, n):
    """Payloads of a*b mod t^n, for ascending payload lists a and b, by the
    ring's own product (``Ring.convolve``)."""
    return ring.convolve(a[:n], b[:n], n)


def _payload(ring, c):
    """The payload of a coefficient given as an element of ``ring`` or an int."""
    if isinstance(c, RingElement):
        if c.ring is not ring and c.ring != ring:
            raise MixedRings(f"coefficient from {c.ring}, expected one from {ring}")
        return c.value
    if isinstance(c, int):
        return ring.payload_from_int(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class TruncatedSeries:
    """c_0 + c_1 t + ... + c_{N-1} t^{N-1} + O(t^N) with exact coefficients.

    Coefficients are stored as canonical ring payloads: ``payloads`` is a
    tuple of exactly ``precision`` of them, and every operation here works
    on it without building ``RingElement``s.  Payloads are immutable values,
    so slices and zero padding share them.  ``coeffs`` (a read-only tuple)
    and ``coefficient`` wrap payloads for callers outside the series layer.
    """

    __slots__ = ("ring", "precision", "payloads")

    def __init__(self, ring, coeffs, precision=None):
        payloads = [_payload(ring, c) for c in coeffs]
        self._init(ring, payloads, len(payloads) if precision is None else precision)

    def _init(self, ring, payloads, precision):
        if precision < 1:
            raise InsufficientPrecision("a series needs at least one known coefficient")
        n = len(payloads)
        payloads = tuple(payloads[:precision] if n > precision else payloads)
        if n < precision:
            payloads += (ring.payload_from_int(0),) * (precision - n)
        self.ring = ring
        self.precision = precision
        self.payloads = payloads

    # -- constructors ------------------------------------------------------
    @classmethod
    def _wrap(cls, ring, payloads, precision):
        """Unchecked constructor from payloads of ``ring``, cut to
        ``precision`` or padded with zeros up to it."""
        self = object.__new__(cls)
        self._init(ring, payloads, precision)
        return self

    @classmethod
    def from_ints(cls, ring, ints, precision=None):
        return cls(ring, list(ints), precision)

    @classmethod
    def constant(cls, value: RingElement, precision):
        return cls._wrap(value.ring, (value.value,), precision)

    @classmethod
    def t_power(cls, ring, k, precision):
        if k >= precision:
            raise InsufficientPrecision(f"t^{k} is invisible at precision {precision}")
        zero = ring.payload_from_int(0)
        return cls._wrap(ring, (zero,) * k + (ring.payload_from_int(1),), precision)

    # -- basics --------------------------------------------------------------
    @property
    def coeffs(self):
        """The coefficients as a tuple of ``RingElement``s."""
        ring = self.ring
        return tuple(RingElement(ring, v) for v in self.payloads)

    def coefficient(self, i) -> RingElement:
        if i >= self.precision:
            raise InsufficientPrecision(f"coefficient {i} beyond precision {self.precision}")
        return RingElement(self.ring, self.payloads[i])

    def is_zero(self) -> bool:
        return all(map(self.ring.payload_is_zero, self.payloads))

    def __bool__(self):
        return not self.is_zero()

    def _check(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise MixedRings(f"{self.ring} vs {other.ring}")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.precision == other.precision
            and all(map(self.ring.payload_eq, self.payloads, other.payloads))
        )

    def __hash__(self):
        return hash((self.ring, self.precision, len(self.payloads)))

    def agrees(self, other, upto=None) -> bool:
        """Coefficientwise equality on the common known window (or ``upto``)."""
        self._check(other)
        n = min(self.precision, other.precision)
        if upto is not None:
            if upto > n:
                raise InsufficientPrecision(f"cannot compare {upto} orders at precision {n}")
            n = upto
        return all(map(self.ring.payload_eq, self.payloads[:n], other.payloads[:n]))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        n = min(self.precision, other.precision)
        out = map(self.ring.payload_add, self.payloads, other.payloads)
        return TruncatedSeries._wrap(self.ring, list(out), n)

    def __neg__(self):
        out = map(self.ring.payload_neg, self.payloads)
        return TruncatedSeries._wrap(self.ring, list(out), self.precision)

    def __sub__(self, other):
        self._check(other)
        n = min(self.precision, other.precision)
        out = map(self.ring.payload_sub, self.payloads, other.payloads)
        return TruncatedSeries._wrap(self.ring, list(out), n)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.scale(other)
        self._check(other)
        n = min(self.precision, other.precision)
        return TruncatedSeries._wrap(
            self.ring, convolve(self.ring, self.payloads, other.payloads, n), n
        )

    def scale(self, c: RingElement):
        ring = self.ring
        pmul, v = ring.payload_mul, _payload(ring, c)
        return TruncatedSeries._wrap(ring, [pmul(v, x) for x in self.payloads], self.precision)

    def times_poly(self, poly_coeffs):
        """Multiply by an exact polynomial (ascending coefficient list).

        The polynomial carries no truncation, so the output precision equals
        this series' precision.
        """
        n = self.precision
        p = [c.value for c in poly_coeffs]
        return TruncatedSeries._wrap(self.ring, convolve(self.ring, p, self.payloads, n), n)

    def shift(self, k):
        """Multiply by t^k (k >= 0); gains k orders of precision."""
        if k < 0:
            raise ValueError("negative shifts live in LaurentSeries")
        if k == 0:
            return self
        zeros = (self.ring.payload_from_int(0),) * k
        return TruncatedSeries._wrap(self.ring, zeros + self.payloads, self.precision + k)

    def truncate(self, n):
        if n > self.precision:
            raise InsufficientPrecision(f"cannot extend precision {self.precision} to {n}")
        if n == self.precision:
            return self
        return TruncatedSeries._wrap(self.ring, self.payloads[:n], n)

    def invert(self):
        """Inverse by the ring's own recurrence (``Ring.invert_series``);
        needs a unit constant term."""
        ring = self.ring
        c0 = self.coefficient(0)
        if not ring.is_unit(c0):
            raise NotAUnit("constant coefficient is not a unit")
        inv0 = ring.invert(c0)
        out = ring.invert_series(self.payloads, inv0.value)
        return TruncatedSeries._wrap(ring, out, self.precision)

    def __repr__(self):
        return format_series(self)


def format_series(x: TruncatedSeries) -> str:
    body = ", ".join(map(x.ring.format_element, x.payloads))
    return f"[{body}] + O(t^{x.precision})"


def is_nondegenerate(x: TruncatedSeries) -> bool:
    """True when the residue series is visibly nonzero within precision.

    Over a local ring every homomorphism to a field factors through the
    residue field, so a single reduction decides non-degeneracy.  When all
    known coefficients reduce to zero the verdict is ``Indeterminate``:
    the truncation cannot certify either answer, and that is deliberately
    distinct from "no".
    """
    reduced_order(x)
    return True


def reduced_order(x: TruncatedSeries) -> int:
    """Smallest d whose coefficient has nonzero residue (vanishing order)."""
    ring = x.ring
    for d, v in enumerate(x.payloads):
        if ring.residue(RingElement(ring, v)):
            return d
    raise Indeterminate(
        f"all {x.precision} known coefficients are nilpotent; order is invisible"
    )


class LaurentSeries:
    """t^offset * body, body a TruncatedSeries (offset may be negative).

    Coefficients are known for exponents ``offset .. offset+N-1`` where N is
    the body precision; ``precision_bound`` is the exclusive upper end of
    that window.  Normalization strips leading exact zeros, raising the
    offset without shrinking the window.
    """

    __slots__ = ("offset", "body")

    def __init__(self, offset: int, body: TruncatedSeries):
        self.offset = offset
        self.body = body

    @property
    def ring(self):
        return self.body.ring

    @property
    def precision_bound(self) -> int:
        return self.offset + self.body.precision

    def normalize(self):
        body = self.body
        payloads, pzero = body.payloads, body.ring.payload_is_zero
        k = 0
        while k < len(payloads) - 1 and pzero(payloads[k]):
            k += 1
        if not k:
            return self
        return LaurentSeries(
            self.offset + k, TruncatedSeries._wrap(body.ring, payloads[k:], len(payloads) - k)
        )

    def coefficient(self, exponent: int) -> RingElement:
        i = exponent - self.offset
        if i < 0:
            return self.ring.zero
        return self.body.coefficient(i)

    def is_zero(self):
        return self.body.is_zero()

    def power_series_part(self):
        """Return an equal TruncatedSeries, or None if a negative exponent
        carries a nonzero coefficient (the witness is ``first_pole()``)."""
        norm = self.normalize()
        if norm.offset < 0 and norm.body.coefficient(0):
            return None
        if norm.offset < 0:
            # all-zero body stuck below 0: shift the window up
            n = norm.precision_bound
            if n < 1:
                raise PrecisionExhausted("no non-negative exponent is certified")
            return TruncatedSeries._wrap(norm.ring, (), n)
        return norm.body.shift(norm.offset)

    def first_pole(self):
        norm = self.normalize()
        if norm.offset < 0 and norm.body.coefficient(0):
            return norm.offset, norm.body.coefficient(0)
        return None

    def times_series(self, s: TruncatedSeries):
        return LaurentSeries(self.offset, self.body * s)

    def scale(self, c: RingElement):
        return LaurentSeries(self.offset, self.body.scale(c))

    def agrees_with_series(self, s: TruncatedSeries, upto=None) -> bool:
        """Compare against a plain power series on the common window."""
        self.body._check(s)
        n = min(self.precision_bound, s.precision)
        if upto is not None:
            n = min(n, upto)
        peq, zero = s.ring.payload_eq, s.ring.payload_from_int(0)
        body, theirs = self.body.payloads, s.payloads
        for k in range(min(self.offset, 0), n):
            i = k - self.offset
            if not peq(body[i] if i >= 0 else zero, theirs[k] if k >= 0 else zero):
                return False
        return True

    def __repr__(self):
        return f"t^({self.offset}) * ({format_series(self.body)})"


def laurent_divide(a: TruncatedSeries, b: TruncatedSeries) -> LaurentSeries:
    """a / b in R((t)) for non-degenerate b over a local Artinian ring.

    Uses the strict factorization b = u * q and the certificate q * q' = t^n:
    1/b = u^{-1} q' t^{-n}.  The numerator is multiplied by the exact
    polynomial q' first and normalized before the unit inverse is applied,
    so the certified window is as wide as the data allows.
    """
    a._check(b)
    return laurent_divider(b)(a)


def laurent_divider(b: TruncatedSeries):
    """The map a -> ``laurent_divide(a, b)``, for dividends over b's ring.

    The strict factorization of b, the certificate q' and u^{-1} are
    computed once here, so dividing several series by one b repeats none of
    them.
    """
    from .weierstrass import divides_power_of_t, strict_prepare

    fact = strict_prepare(b)
    n = fact.certificate_n
    qprime = divides_power_of_t(fact.q, n).coeff_list()
    u_inv = fact.u.invert()

    def divide(a: TruncatedSeries) -> LaurentSeries:
        b._check(a)
        out = LaurentSeries(-n, a.times_poly(qprime)).normalize()
        out = out.times_series(u_inv).normalize()
        if out.precision_bound < 1:
            raise PrecisionExhausted(f"certificate consumed {n} orders, none remain")
        return out

    return divide
