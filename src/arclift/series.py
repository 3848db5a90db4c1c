"""Truncated power series R[[t]] mod t^N and Laurent series.

A series stores its coefficients as canonical ring payloads (see
``rings``), and sums, products, shifts and truncations run on those
payloads; ``RingElement`` wrappers are built only where a coefficient
leaves the series API (``coefficient``, the ``coeffs`` view).

Precision is explicit data.  Every operation states the precision of its
output and never claims a coefficient beyond it: sums and products follow
the min-precision rule, shifts gain orders, and Laurent division records
exactly how many orders the strict-factorization certificate consumed.

``convolve`` is the package's only loop that multiplies two t-polynomials:
series products, ``times_poly`` and ``weierstrass.poly_mul`` all call it.
It has three paths, fixed by the ring's family: Fp, Z/n and Q multiply on
Python ints and reduce once per output coefficient; Artinian rings
multiply per-monomial slices on their base ring's ints; the colimit rings
add payload products term by term, skipping zero factors.

The int product has two exact regimes, chosen by the sparser operand's
count of nonzero ints.  Below ``KRONECKER_MIN_TERMS`` it is a schoolbook
loop over the nonzero terms.  From there on it is Kronecker substitution:
each list is packed into one Python int, w bits per coefficient, and a
single big-int multiply (Karatsuba, in C) does the O(n^2) work (von zur
Gathen and Gerhard, *Modern Computer Algebra*, section 8.4; D. Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
J. Symb. Comp. 2009).  The threshold counts nonzero terms, not length:
one-term and shifted operands are frequent in Newton lifting, and the
schoolbook loop multiplies them in a few steps whatever their length.
"""

from __future__ import annotations

import struct

from .errors import (
    Indeterminate,
    InsufficientPrecision,
    MixedRings,
    NotAUnit,
    PrecisionExhausted,
)
from .rings import ArtinianLocalRing, RingElement


def convolve(ring, a, b, n):
    """Payloads of a*b mod t^n, for ascending payload lists a and b.

    Three paths, chosen by the ring's family:

    * Fp, Z/n and Q multiply on Python ints (``Ring.integer_form``): Fp
      and Z/n residues as they are, Q numerators over each list's lcm of
      denominators.  Each output coefficient is mapped back once (``% p``,
      ``% n`` or one reduced ``Fraction``) instead of normalising after
      every term.  When both lists have at least ``KRONECKER_MIN_TERMS``
      nonzero ints, the ints are multiplied by one Kronecker product,
      otherwise term by term; both give the same ints, so the payloads
      are the same.
    * Artinian rings run ``ArtinianLocalRing.convolve``, which splits each
      list by monomial and multiplies slice pairs on the base ring's
      integer form.
    * Every other ring (the colimit models) runs the payload loop.  There,
      terms with a zero factor (by ``payload_is_zero``) are skipped, never
      added: besides saving work, this keeps each colimit-ring coefficient
      at the presentation level of its nonzero terms, where a zero raised
      to a higher level would otherwise re-express it (x3 printing as
      q0^2*x5).
    """
    a, b = a[:n], b[:n]
    if isinstance(ring, ArtinianLocalRing):
        return ring.convolve(a, b, n)
    form = ring.integer_form(a)
    if form is None:
        padd, pmul, pzero = ring.payload_add, ring.payload_mul, ring.payload_is_zero
        out = [ring.payload_from_int(0)] * n
        b = [(j, bj) for j, bj in enumerate(b) if not pzero(bj)]
        for i, ai in enumerate(a):
            if pzero(ai):
                continue
            for j, bj in b:
                k = i + j
                if k >= n:
                    break
                out[k] = padd(out[k], pmul(ai, bj))
        return out
    a, scale_a = form
    b, scale_b = ring.integer_form(b)
    return ring.from_integer_form(_int_product(a, b, n), scale_a * scale_b)


KRONECKER_MIN_TERMS = 16
"""The sparser operand's nonzero count from which ``_int_product`` packs.

Measured on CPython 3.11 (2-vCPU VM), schoolbook over Kronecker time on
dense lists: with slots of up to 8 bytes (residues, 20-bit numerators)
Kronecker breaks even near 10 nonzero terms and is 1.3-2.9x faster at 16;
with 100-bit numerators it is 0.85-0.95x at 16 and wins from 32.  On the
products of the ``lift`` and ``prepare`` benchmark workloads it breaks even
near 9, so 12 instead of 16 would gain about 0.3% of a ``lift`` cycle.
"""


def _int_product(a, b, n):
    """a*b mod t^n, as n Python ints, for int lists a and b no longer than n."""
    terms = min(len(a) - a.count(0), len(b) - b.count(0))
    if terms >= KRONECKER_MIN_TERMS:
        return _kronecker_product(a, b, n, terms)
    out = [0] * n
    b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in b:
            k = i + j
            if k >= n:
                break
            out[k] += ai * bj
    return out


def _kronecker_product(a, b, n, terms):
    """``_int_product`` by one big-int multiply; ``terms`` is the smaller
    operand's count of nonzero ints.

    Each list is packed into sum c_i 2^(w i), w bits per slot, and the two
    are multiplied once (CPython multiplies large ints by Karatsuba, in C).
    Every product coefficient is a sum of at most ``terms`` products, so
    |c_k| <= max|a| max|b| terms < 2^(w-1), and each of the first m slots of
    the product holds exactly one coefficient.
    """
    m = min(n, len(a) + len(b) - 1)
    bound = max(max(a), -min(a)) * max(max(b), -min(b)) * terms
    width = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
    if width <= 8:
        width = 1 << (width - 1).bit_length()  # a size ``struct`` packs
    return _unpack(_pack(a, width) * _pack(b, width), width, m) + [0] * (n - m)


_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _top_bits(width, count):
    """The int whose ``count`` slots of ``width`` bytes each hold 2^(8 width - 1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(ints, width):
    """sum ints[i] 2^(8 width i), for ints in [-2^(8 width - 1), 2^(8 width - 1)).

    The slots are written in two's complement; flipping each slot's top bit
    turns them into ints[i] + 2^(8 width - 1), a sum without carries."""
    code = _STRUCT_CODES.get(width)
    if code:
        data = struct.pack(f"<{len(ints)}{code}", *ints)
    else:
        data = b"".join([c.to_bytes(width, "little", signed=True) for c in ints])
    top = _top_bits(width, len(ints))
    return (int.from_bytes(data, "little") ^ top) - top


def _unpack(x, width, m):
    """[c_0, ..., c_{m-1}] for x = sum c_k 2^(8 width k), |c_k| < 2^(8 width - 1).

    Adding 2^(8 width - 1) to each of the m slots makes every slot
    non-negative, so slot k holds c_k + 2^(8 width - 1) with no borrow from
    below; the mask drops the slots from m on.  Flipping the top bits back
    leaves c_k in two's complement."""
    top = _top_bits(width, m)
    data = (((x + top) & ((1 << (8 * width * m)) - 1)) ^ top).to_bytes(width * m, "little")
    code = _STRUCT_CODES.get(width)
    if code:
        return list(struct.unpack(f"<{m}{code}", data))
    return [
        int.from_bytes(data[i : i + width], "little", signed=True)
        for i in range(0, width * m, width)
    ]


def _payload(ring, c):
    """The payload of a coefficient given as an element of ``ring`` or an int."""
    if isinstance(c, RingElement):
        if c.ring is not ring and c.ring != ring:
            raise MixedRings(f"coefficient from {c.ring}, series over {ring}")
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
        """Inverse by the standard recurrence; needs a unit constant term."""
        ring = self.ring
        c0 = self.coefficient(0)
        if not ring.is_unit(c0):
            raise NotAUnit("constant coefficient is not a unit")
        n = self.precision
        inv0 = ring.invert(c0)
        out = [inv0.value]
        padd, pmul = ring.payload_add, ring.payload_mul
        neg_inv0 = ring.payload_neg(inv0.value)
        a = self.payloads
        for k in range(1, n):
            acc = None
            for i in range(1, k + 1):
                term = pmul(a[i], out[k - i])
                acc = term if acc is None else padd(acc, term)
            out.append(pmul(neg_inv0, acc))
        return TruncatedSeries._wrap(ring, out, n)

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
