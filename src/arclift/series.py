"""Truncated power series R[[t]] mod t^N and Laurent series.

A series keeps its coefficients in its ring's canonical series form
(items, scale) (see ``rings``): reduced residues over scale 1 for Fp and
Z/n, ints over a content-free scale for Q, one slice of base ints per
monomial for Artinian rings, and canonical payloads over scale 1 for
colimit rings.  Each operation has one body, on that form, with no branch
on the ring and no reading of the items: sums, negations, scaling and
windows (shift, drop, truncate, pad, one coefficient) are the ring's form
operations (``Ring.form_sum``, ``form_neg``, ``form_scale``,
``form_window``), products hand the items to ``Ring.convolve`` and bring
the result to canonical form once (``Ring.canonical_form``), and
``invert`` checks the constant term and hands the form to
``Ring.invert_series``: at full length below the ring's
``NEWTON_INVERT_MIN`` orders, and from there on at the base of a Newton
doubling whose steps are two series products each.  Payloads are built
from the form only when something reads them (over Fp, Z/n and colimit
rings they are the items themselves), and ``RingElement`` wrappers only
where a coefficient leaves the series API (``coefficient``, ``coeffs``).

Precision is explicit data.  Every operation states the precision of its
output and never claims a coefficient beyond it: sums and products follow
the min-precision rule, shifts gain orders, and Laurent division records
exactly how many orders the strict-factorization certificate consumed.

Exact t-polynomials (``weierstrass.MonicPoly`` and ``LowPoly``) keep the
same form, so one read mod t^N is a series at once and a product with it
is a series product.
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

    ``form`` is the canonical series form ``(items, scale)`` of the
    ``precision`` coefficients (``Ring.form_len`` of the items), and every
    operation here runs on it; ``payloads`` is the tuple of their
    ``precision`` canonical payloads.  A series built from payloads
    computes its form at once (over Fp, Z/n and colimit rings without a
    pass over them), one built by an operation its payloads on first read
    and keeps them.  Both are immutable, so windows share them.
    """

    __slots__ = ("ring", "precision", "form", "_payloads")

    def __init__(self, ring, coeffs, precision=None):
        payloads = tuple(_payload(ring, c) for c in coeffs)
        n = len(payloads)
        if precision is None:
            precision = n
        if precision < 1:
            raise InsufficientPrecision("a series needs at least one known coefficient")
        if n != precision:
            payloads = payloads[:precision] + (ring.payload_from_int(0),) * (precision - n)
        self.ring = ring
        self.precision = precision
        self._payloads = payloads
        items, scale = ring.integer_form(payloads)
        self.form = (tuple(items), scale)

    # -- constructors ------------------------------------------------------
    @classmethod
    def _of_form(cls, ring, items, scale, precision):
        """Unchecked constructor from a canonical series form of ``ring``
        read as an exact polynomial mod t^precision: its items padded with
        zeros or cut to ``precision``, a cut over a scale above 1 brought
        back to canonical form (it may have lost the content-1 items)."""
        if precision < 1:
            raise InsufficientPrecision("a series needs at least one known coefficient")
        if ring.form_len(items) != precision:
            items, scale = ring.form_window(items, scale, 0, precision)
        return _series(ring, items, scale, precision)

    @classmethod
    def constant(cls, value: RingElement, precision):
        ring = value.ring
        return cls._of_form(ring, *ring.integer_form([value.value]), precision)

    @classmethod
    def zero(cls, ring, precision):
        """The zero series mod t^precision, from the ring's form of no
        coefficients: no payload is built."""
        return cls._of_form(ring, *ring.integer_form(()), precision)

    @classmethod
    def t_power(cls, ring, k, precision):
        if k >= precision:
            raise InsufficientPrecision(f"t^{k} is invisible at precision {precision}")
        return cls.constant(ring.one, precision - k).shift(k)

    # -- basics --------------------------------------------------------------
    @property
    def payloads(self):
        """The coefficients as a tuple of ``precision`` canonical payloads."""
        payloads = self._payloads
        if payloads is None:
            payloads = self._payloads = tuple(self.ring.from_integer_form(*self.form))
        return payloads

    @property
    def coeffs(self):
        """The coefficients as a tuple of ``RingElement``s."""
        return tuple(map(self.ring.element, self.payloads))

    def coefficient(self, i) -> RingElement:
        if i >= self.precision:
            raise InsufficientPrecision(f"coefficient {i} beyond precision {self.precision}")
        ring = self.ring
        if self._payloads is None:
            return RingElement(ring, ring.from_integer_form(*ring.form_window(*self.form, i, i + 1))[0])
        return RingElement(ring, self._payloads[i])

    def is_zero(self) -> bool:
        return self.ring.form_is_zero(self.form[0])

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
        if self.precision != other.precision:
            return False
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        (a, s), (b, r) = self.form, other.form
        return s == r and self.ring.form_eq(a, b)

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
    def _sum(self, other, subtract):
        self._check(other)
        ring, n = self.ring, min(self.precision, other.precision)
        return _series(ring, *ring.form_sum(*self.form, *other.form, subtract), n)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return _series(self.ring, *self.ring.form_neg(*self.form), self.precision)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.scale(other)
        self._check(other)
        ring, n = self.ring, min(self.precision, other.precision)
        (a, s), (b, r) = self.form, other.form
        return _series(ring, *ring.canonical_form(ring.convolve(a, b, n), s * r), n)

    def scale(self, c: RingElement):
        """c times the series, for c in the ring or an int, by
        ``Ring.form_scale``: the product with the constant series c, form
        and all, in one pass."""
        ring = self.ring
        return _series(ring, *ring.form_scale(*self.form, _payload(ring, c)), self.precision)

    def shift(self, k):
        """Multiply by t^k (k >= 0); gains k orders of precision."""
        if k < 0:
            raise ValueError("negative shifts live in LaurentSeries")
        if k == 0:
            return self
        ring, n = self.ring, self.precision
        return _series(ring, *ring.form_window(*self.form, -k, n), n + k)

    def drop(self, k):
        """(x - (x mod t^k)) / t^k: the coefficients from index k on, at
        precision N - k (0 <= k < N)."""
        if not 0 <= k < self.precision:
            raise InsufficientPrecision(f"cannot drop {k} of {self.precision} known orders")
        if k == 0:
            return self
        ring, n = self.ring, self.precision
        return _series(ring, *ring.form_window(*self.form, k, n), n - k)

    def truncate(self, n):
        if n > self.precision:
            raise InsufficientPrecision(f"cannot extend precision {self.precision} to {n}")
        if n == self.precision:
            return self
        if n < 1:
            raise InsufficientPrecision("a series needs at least one known coefficient")
        return _series(self.ring, *self.ring.form_window(*self.form, 0, n), n)

    def pad(self, n):
        """x mod t^N read as an exact polynomial, at precision n >= N: the
        orders N..n-1 are zero."""
        if n < self.precision:
            raise ValueError(f"cannot pad precision {self.precision} down to {n}")
        if n == self.precision:
            return self
        return _series(self.ring, *self.ring.form_window(*self.form, 0, n), n)

    def _leading_zeros(self):
        """How many coefficients are exactly zero before the first nonzero
        one, at most N - 1."""
        return min(self.ring.form_leading_zeros(self.form[0]), self.precision - 1)

    def invert(self):
        """Inverse, for a unit constant term.  Below the ring's
        ``NEWTON_INVERT_MIN`` known orders, by ``Ring.invert_series``; from
        there on by precision doubling, one ``refine_inverse`` step from
        the inverse mod t^ceil(N/2)."""
        ring = self.ring
        if not ring.is_unit(self.coefficient(0)):
            raise NotAUnit("constant coefficient is not a unit")
        ladder = [self.precision]
        while ladder[-1] >= ring.NEWTON_INVERT_MIN:
            ladder.append((ladder[-1] + 1) // 2)
        h = ladder.pop()
        items, scale = ring.invert_series(*self.truncate(h).form)
        g = _series(ring, *ring.canonical_form(items, scale), h)
        for n in reversed(ladder):
            g = self.truncate(n).refine_inverse(g)
        return g

    def refine_inverse(self, g):
        """The inverse mod t^N of the series from g, its inverse mod t^h for
        an h with 2h >= N, by one Newton step (Brent and Kung, JACM 1978):
        x*g = 1 + t^h*e, and the inverse mod t^N is g - t^h*(g mod t^(N-h))*e,
        so the second product runs at half length.  For h >= N, g cut to N.
        Nothing is checked: a g that is not that inverse gives a series that
        is not the inverse."""
        n, h = self.precision, g.precision
        if h >= n:
            return g.truncate(n)
        g = g.pad(n)
        e = (self * g).drop(h)
        return g - (g.truncate(n - h) * e).shift(h)

    def __repr__(self):
        return format_series(self)


def _series(ring, items, scale, precision):
    """Unchecked constructor from a canonical series form of ``ring`` of
    exactly ``precision`` coefficients."""
    self = object.__new__(TruncatedSeries)
    self.ring = ring
    self.precision = precision
    self._payloads = None
    self.form = (tuple(items), scale)
    return self


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
    """Smallest d whose coefficient has nonzero residue (vanishing order),
    read from the series form by ``Ring.form_reduced_order``."""
    d = x.ring.form_reduced_order(*x.form)
    if d < x.precision:
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
            return TruncatedSeries.zero(norm.ring, n)
        return norm.body.shift(norm.offset)

    def first_pole(self):
        norm = self.normalize()
        if norm.offset < 0 and norm.body.coefficient(0):
            return norm.offset, norm.body.coefficient(0)
        return None

    def times_series(self, s: TruncatedSeries):
        return LaurentSeries(self.offset, self.body * s)

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

    The strict factorization b = u * q, the certificate q * q' = t^n and
    u^{-1} are computed once here, so dividing several series by one b
    repeats none of them.  When q is a power of t, as it is for every b
    over a field, q = t^d needs no division for its certificate, q' is
    t^(n-d), and the product a * q' is a shift: no ``divide_by_monic`` and
    no product.  Otherwise ``divides_power_of_t`` finds q' and each
    dividend pays one product with it.
    """
    from .weierstrass import divides_power_of_t, strict_prepare

    fact = strict_prepare(b)
    n, q = fact.certificate_n, fact.q
    u_inv = fact.u.invert()
    if q.t_multiplicity() == q.degree:
        k = n - q.degree

        def times_qprime(a):
            return a.shift(k).truncate(a.precision)
    else:
        qprime = divides_power_of_t(q, n)

        def times_qprime(a):
            return a * qprime.as_series(a.precision)

    def divide(a: TruncatedSeries) -> LaurentSeries:
        b._check(a)
        out = LaurentSeries(-n, times_qprime(a)).normalize()
        out = out.times_series(u_inv).normalize()
        if out.precision_bound < 1:
            raise PrecisionExhausted(f"certificate consumed {n} orders, none remain")
        return out

    return divide
