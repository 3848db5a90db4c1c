"""Truncated power series R[[t]] mod t^N and Laurent series.

A series over Q keeps its coefficients in one canonical integer form
(ints, scale), c_i = ints[i] / scale with the content divided out
(``Ring.series_form``): sums, products, shifts, truncations and inverses
run on ints, and the Fraction payloads are built only when something
reads them.  Over the other rings a series stores canonical ring payloads
(see ``rings``) and runs on those.  ``RingElement`` wrappers are built only
where a coefficient leaves the series API (``coefficient``, ``coeffs``).

Precision is explicit data.  Every operation states the precision of its
output and never claims a coefficient beyond it: sums and products follow
the min-precision rule, shifts gain orders, and Laurent division records
exactly how many orders the strict-factorization certificate consumed.

Every t-polynomial product of payloads goes through ``convolve``, which
cuts both operands to the output length and hands them to the ring
(``Ring.convolve``), so each ring family chooses its own product path;
products of forms call the ring's int product loop directly.  Likewise
``TruncatedSeries.invert`` checks the constant term and inverts it with
``Ring.invert`` (the colimit models refuse there), then hands the form to
``Ring.invert_form`` or the payloads to ``Ring.invert_series``: the
fraction-free integer recurrence for Fp, Z/n and Q, the payload recurrence
for Artinian rings.
"""

from __future__ import annotations

import math
from operator import add, not_, sub

from .errors import (
    Indeterminate,
    InsufficientPrecision,
    MixedRings,
    NotAUnit,
    PrecisionExhausted,
)
from .rings import RingElement, _int_product


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

    ``payloads`` is a tuple of exactly ``precision`` canonical payloads.
    Over a ring with series forms, ``form`` is the canonical
    ``(ints, scale)`` of the same coefficients and every operation here
    runs on it: a series built from payloads computes its form on first
    use, one built by an operation its payloads on first read, and each
    keeps what it computed.  Over the other rings ``form`` is None and the
    operations run on payloads without building ``RingElement``s.  Both
    are immutable, so slices and zero padding share them.
    """

    __slots__ = ("ring", "precision", "_payloads", "_form")

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
        self._payloads = payloads
        self._form = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def _wrap(cls, ring, payloads, precision):
        """Unchecked constructor from payloads of ``ring``, cut to
        ``precision`` or padded with zeros up to it."""
        self = object.__new__(cls)
        self._init(ring, payloads, precision)
        return self

    @classmethod
    def _of_form(cls, ring, ints, scale, precision):
        """Unchecked constructor from the integer form ints / scale over a
        ring with series forms, cut to ``precision`` or padded with zeros
        up to it, and stored canonical."""
        if precision < 1:
            raise InsufficientPrecision("a series needs at least one known coefficient")
        pad = precision - len(ints)
        ints, scale = ring.canonical_form(ints[:precision] if pad < 0 else ints, scale)
        self = object.__new__(cls)
        self.ring = ring
        self.precision = precision
        self._payloads = None
        self._form = (tuple(ints) + (0,) * pad, scale)
        return self

    @classmethod
    def from_ints(cls, ring, ints, precision=None):
        return cls(ring, list(ints), precision)

    @classmethod
    def constant(cls, value: RingElement, precision):
        ring = value.ring
        if ring.series_form:
            return cls._of_form(ring, *ring.integer_form([value.value]), precision)
        return cls._wrap(ring, (value.value,), precision)

    @classmethod
    def t_power(cls, ring, k, precision):
        if k >= precision:
            raise InsufficientPrecision(f"t^{k} is invisible at precision {precision}")
        zero = ring.payload_from_int(0)
        return cls._wrap(ring, (zero,) * k + (ring.payload_from_int(1),), precision)

    # -- basics --------------------------------------------------------------
    @property
    def payloads(self):
        """The coefficients as a tuple of ``precision`` canonical payloads."""
        payloads = self._payloads
        if payloads is None:
            payloads = self._payloads = tuple(self.ring.from_integer_form(*self._form))
        return payloads

    @property
    def form(self):
        """The canonical ``(ints, scale)`` of the coefficients over a ring
        with series forms, else None."""
        form = self._form
        if form is None and self.ring.series_form:
            ints, scale = self.ring.integer_form(self._payloads)
            form = self._form = (tuple(ints), scale)
        return form

    @property
    def coeffs(self):
        """The coefficients as a tuple of ``RingElement``s."""
        ring = self.ring
        return tuple(RingElement(ring, v) for v in self.payloads)

    def coefficient(self, i) -> RingElement:
        if i >= self.precision:
            raise InsufficientPrecision(f"coefficient {i} beyond precision {self.precision}")
        if self._payloads is None:
            ints, scale = self._form
            return RingElement(self.ring, self.ring.from_integer_form([ints[i]], scale)[0])
        return RingElement(self.ring, self._payloads[i])

    def is_zero(self) -> bool:
        if self.ring.series_form:
            return not any(self.form[0])
        return all(map(self.ring.payload_is_zero, self._payloads))

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
            and (
                self.form == other.form
                if self.ring.series_form
                else all(map(self.ring.payload_eq, self._payloads, other._payloads))
            )
        )

    def __hash__(self):
        return hash((self.ring, self.precision))

    def agrees(self, other, upto=None) -> bool:
        """Coefficientwise equality on the common known window (or ``upto``)."""
        self._check(other)
        n = min(self.precision, other.precision)
        if upto is not None:
            if upto > n:
                raise InsufficientPrecision(f"cannot compare {upto} orders at precision {n}")
            n = upto
        return self.truncate(n) == other.truncate(n)

    # -- arithmetic ----------------------------------------------------------
    def _sum(self, other, op, payload_op):
        """self op other, for op add or sub: on forms over the lcm of their
        scales, else by ``payload_op``."""
        self._check(other)
        ring, n = self.ring, min(self.precision, other.precision)
        if not ring.series_form:
            out = map(payload_op, self._payloads, other._payloads)
            return TruncatedSeries._wrap(ring, list(out), n)
        (a, s), (b, r) = self.form, other.form
        if s == r:
            ints = list(map(op, a, b))
        else:
            g = math.gcd(s, r)
            fa, fb = r // g, s // g
            ints = [op(x * fa, y * fb) for x, y in zip(a, b)]
            s *= fa
        return TruncatedSeries._of_form(ring, ints, s, n)

    def __add__(self, other):
        return self._sum(other, add, self.ring.payload_add)

    def __sub__(self, other):
        return self._sum(other, sub, self.ring.payload_sub)

    def __neg__(self):
        if self.ring.series_form:
            ints, scale = self.form
            return TruncatedSeries._of_form(self.ring, [-c for c in ints], scale, self.precision)
        out = map(self.ring.payload_neg, self._payloads)
        return TruncatedSeries._wrap(self.ring, list(out), self.precision)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.scale(other)
        self._check(other)
        ring, n = self.ring, min(self.precision, other.precision)
        if ring.series_form:
            (a, s), (b, r) = self.form, other.form
            return TruncatedSeries._of_form(ring, _int_product(a[:n], b[:n], n), s * r, n)
        return TruncatedSeries._wrap(ring, convolve(ring, self._payloads, other._payloads, n), n)

    def scale(self, c: RingElement):
        ring = self.ring
        pmul, v = ring.payload_mul, _payload(ring, c)
        return TruncatedSeries._wrap(ring, [pmul(v, x) for x in self.payloads], self.precision)

    def times_poly(self, poly_coeffs):
        """Multiply by an exact polynomial (ascending coefficient list).

        The polynomial carries no truncation, so the output precision equals
        this series' precision.
        """
        ring, n = self.ring, self.precision
        p = [c.value for c in poly_coeffs]
        if ring.series_form:
            (a, s), (b, r) = ring.integer_form(p[:n]), self.form
            return TruncatedSeries._of_form(ring, _int_product(a, b, n), s * r, n)
        return TruncatedSeries._wrap(ring, convolve(ring, p, self._payloads, n), n)

    def shift(self, k):
        """Multiply by t^k (k >= 0); gains k orders of precision."""
        if k < 0:
            raise ValueError("negative shifts live in LaurentSeries")
        if k == 0:
            return self
        if self.ring.series_form:
            ints, scale = self.form
            return TruncatedSeries._of_form(self.ring, (0,) * k + ints, scale, self.precision + k)
        zeros = (self.ring.payload_from_int(0),) * k
        return TruncatedSeries._wrap(self.ring, zeros + self._payloads, self.precision + k)

    def drop(self, k):
        """(x - (x mod t^k)) / t^k: the coefficients from index k on, at
        precision N - k (0 <= k < N)."""
        if not 0 <= k < self.precision:
            raise InsufficientPrecision(f"cannot drop {k} of {self.precision} known orders")
        if k == 0:
            return self
        if self.ring.series_form:
            ints, scale = self.form
            return TruncatedSeries._of_form(self.ring, ints[k:], scale, self.precision - k)
        return TruncatedSeries._wrap(self.ring, self._payloads[k:], self.precision - k)

    def truncate(self, n):
        if n > self.precision:
            raise InsufficientPrecision(f"cannot extend precision {self.precision} to {n}")
        if n == self.precision:
            return self
        if self.ring.series_form:
            ints, scale = self.form
            return TruncatedSeries._of_form(self.ring, ints[:n], scale, n)
        return TruncatedSeries._wrap(self.ring, self._payloads[:n], n)

    def pad(self, n):
        """x mod t^N read as an exact polynomial, at precision n >= N: the
        orders N..n-1 are zero."""
        if n < self.precision:
            raise ValueError(f"cannot pad precision {self.precision} down to {n}")
        if n == self.precision:
            return self
        if self.ring.series_form:
            return TruncatedSeries._of_form(self.ring, *self.form, n)
        return TruncatedSeries._wrap(self.ring, self._payloads, n)

    def _leading_zeros(self):
        """How many coefficients are exactly zero before the first nonzero
        one, at most N - 1."""
        if self.ring.series_form:
            items, is_zero = self.form[0], not_
        else:
            items, is_zero = self._payloads, self.ring.payload_is_zero
        k, last = 0, self.precision - 1
        while k < last and is_zero(items[k]):
            k += 1
        return k

    def invert(self):
        """Inverse by the ring's own recurrence (``Ring.invert_form`` on the
        form, ``Ring.invert_series`` on payloads); needs a unit constant
        term."""
        ring = self.ring
        c0 = self.coefficient(0)
        if not ring.is_unit(c0):
            raise NotAUnit("constant coefficient is not a unit")
        if ring.series_form:
            return TruncatedSeries._of_form(ring, *ring.invert_form(*self.form), self.precision)
        out = ring.invert_series(self._payloads, ring.invert(c0).value)
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
        k = self.body._leading_zeros()
        if not k:
            return self
        return LaurentSeries(self.offset + k, self.body.drop(k))

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
