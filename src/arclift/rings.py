"""Exact coefficient rings: the closed family of "test rings".

Four families are supported, each with canonical element representations so
that equality is plain representational equality:

* ``PrimeFieldRing(p)``     -- F_p, residues stored in ``[0, p)``;
* ``RationalRing()``        -- Q, reduced ``fractions.Fraction``;
* ``IntegersMod(n)``        -- Z/n, residues in ``[0, n)``; local iff n = p^e;
* ``ArtinianLocalRing(base, names, e)`` -- base[s_1..s_m] truncated by
  "total degree >= e is zero", so the maximal ideal (s_1..s_m) satisfies
  m^e = 0.  Elements are finite maps from exponent multi-indices to nonzero
  base coefficients.

Each ring multiplies t-polynomials itself (``Ring.convolve``, which
``series.convolve`` calls): Fp, Z/n and Q on their payloads' integer form
(``integer_form``), Artinian rings slice by monomial on their base ring's
integer form, and the colimit models in ``pathology`` on payloads.

Each ring also inverts a series itself (``Ring.invert_series``, which
``TruncatedSeries.invert`` calls).  Fp, Z/n and Q run the fraction-free
recurrence on integer forms (``invert_form``): the inverse is kept as ints
over one common denominator, so each coefficient costs one dot product of
ints and one ``canonical_form`` of a single value.  Artinian rings run the
recurrence on payloads, one ``payload_mul`` and ``payload_add`` per term.
An Artinian ring has at most ``MAX_MONOMIALS`` monomials.

Series over Q keep the canonical form (ints, scale) of their coefficients,
with gcd(scale, ints) = 1, instead of Fractions (``Ring.series_form``), so
chains of sums and products normalise once per operation, by one gcd over
the ints, not one Fraction per coefficient.

``_int_product`` is the package's only int product loop: ``Ring.convolve``
and the products of series that keep their form both call it.  Below
``KRONECKER_MIN_TERMS`` nonzero ints in the sparser operand it multiplies
term by term; from there on it packs each list into one Python int, w bits
per coefficient, so that a single big-int multiply (Karatsuba, in C) does
the O(n^2) work: Kronecker substitution (von zur Gathen and Gerhard,
*Modern Computer Algebra*, section 8.4; D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comp.
2009).  The threshold counts nonzero terms, not length: one-term and
shifted operands are frequent in Newton lifting, and the term-by-term loop
multiplies them in a few steps whatever their length.

Every ring is immutable and every operation is a pure function, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import compress
from operator import add, mul

from .errors import InvalidDescriptor, MixedRings, NonLocalRing, NotAUnit
from .polynomials import MultiPoly


MAX_MODULUS = 2**40
"""The largest prime or modulus a ring descriptor may name.  ``is_prime``
and ``prime_power`` divide by trial up to the square root, so this keeps
their work near 10^6 steps (about 0.1 s)."""


def check_modulus(n: int, what: str) -> None:
    """Refuse an n above ``MAX_MODULUS`` before any trial division runs."""
    if n > MAX_MODULUS:
        raise InvalidDescriptor(f"{what} {n} exceeds the ceiling {MAX_MODULUS}")


MAX_MONOMIALS = 10_000
"""The most monomials, C(m + e - 1, m), an Artinian ring may have.  One
product of dense elements visits every pair of monomials: measured on
CPython 3.11 (2-vCPU VM) over Fp(5) with m = 6, it takes 9.6 s at e = 10
(5,005 monomials) and 58 s at e = 12 (12,376), and ``strict_prepare`` of a
sparse series at N = 24 takes 0.9 s and 3.1 s.  At e = 20 (177,100
monomials) ``strict_prepare`` did not finish in 300 s."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def power(x, k, mul, one):
    """x^k for an int k >= 0 by square-and-multiply: O(log k) calls of
    ``mul``; ``one`` is returned for k = 0."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if out is None else out


def prime_power(n: int):
    """Return (p, e) with n = p^e and p prime, or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)
        if n % p:
            continue
        e = 0
        m = n
        while m % p == 0:
            m //= p
            e += 1
        return (p, e) if m == 1 else None
    return None


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


def _residues(ints, scale, m):
    """The residues mod m of ints[i] / scale, for a scale prime to m."""
    if scale == 1:
        return [c % m for c in ints]
    f = pow(scale, -1, m)
    return [c * f % m for c in ints]


class RingElement:
    """Thin immutable handle: a ring reference plus a canonical payload."""

    __slots__ = ("ring", "value")

    def __init__(self, ring, value):
        self.ring = ring
        self.value = value

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise MixedRings(f"{self.ring} vs {other.ring}")
            return other.value
        if isinstance(other, int):
            return self.ring.payload_from_int(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.payload_add(self.value, v))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring.payload_neg(self.value))

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.payload_sub(self.value, v))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.payload_mul(self.value, v))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return power(self, k, mul, self.ring.one)

    def __eq__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self.ring.payload_eq(self.value, v)

    def __bool__(self):
        return not self.ring.payload_is_zero(self.value)

    def __hash__(self):
        return hash((self.ring, self.ring.payload_hash(self.value)))

    def __repr__(self):
        return self.ring.format_element(self.value)


class Ring:
    """Common interface; subclasses implement the payload-level arithmetic."""

    is_field = False

    # -- payload layer (fast path, no wrappers) -------------------------
    def payload_from_int(self, k: int):
        raise NotImplementedError

    def payload_add(self, a, b):
        raise NotImplementedError

    def payload_neg(self, a):
        raise NotImplementedError

    def payload_sub(self, a, b):
        """a - b; rings with a one-step difference override this."""
        return self.payload_add(a, self.payload_neg(b))

    def payload_mul(self, a, b):
        raise NotImplementedError

    def payload_is_zero(self, a) -> bool:
        raise NotImplementedError

    def payload_eq(self, a, b) -> bool:
        """Representational equality; overridden where payloads carry a
        presentation level that must be aligned first."""
        return a == b

    def payload_hash(self, a) -> int:
        """A hash that agrees with ``payload_eq``."""
        return hash(a)

    series_form = False
    """Whether series over this ring store their canonical integer form
    (``canonical_form``) instead of payloads, and run on it."""

    def integer_form(self, payloads):
        """``(ints, scale)`` with payloads[i] = ints[i] / scale, where
        ``scale`` is a positive int: residues as they are, rationals over
        their lcm of denominators, which is their canonical form."""
        raise NotImplementedError

    def from_integer_form(self, ints, scale):
        """The canonical payloads of ints[i] / scale (reduced residues,
        reduced fractions), for any Python ints and a scale that is a unit
        of the ring, such as a product of scales that this ring's
        ``integer_form`` returned."""
        raise NotImplementedError

    def canonical_form(self, ints, scale):
        """The canonical ``(ints, scale)`` of the values ints[i] / scale:
        here the residues over scale 1."""
        return self.from_integer_form(ints, scale), 1

    def convolve(self, a, b, n):
        """Payloads of a*b mod t^n, for ascending payload lists a and b no
        longer than n: one ``_int_product`` of their integer forms, and each
        output coefficient mapped back once."""
        a, scale_a = self.integer_form(a)
        b, scale_b = self.integer_form(b)
        return self.from_integer_form(_int_product(a, b, n), scale_a * scale_b)

    def invert_series(self, payloads, inv0):
        """Payloads of the inverse mod t^n of the series with the n
        coefficients ``payloads``, whose constant term is a unit with
        inverse payload ``inv0``: ``invert_form`` on their integer form."""
        return self.from_integer_form(*self.invert_form(*self.integer_form(payloads)))

    def invert_form(self, ints, scale):
        """An integer form of the inverse mod t^n of the series
        ints[i] / scale (i < n), whose constant term is a unit.

        The fraction-free recurrence (von zur Gathen and Gerhard, *Modern
        Computer Algebra*, section 9.1): the scale cancels from every term
        but the first, and the inverse is kept as ints O over one common
        denominator L, coefficient k being -sum_{i=1..k} A_i O_{k-i} /
        (A_0 L); L grows to the lcm of the denominators met so far, and the
        earlier O are rescaled when it does.  1/A_0 is brought to canonical
        form once, so a residue ring inverts A_0 once, not per coefficient.
        """
        tail = ints[1:]
        (inv_num,), inv_den = self.canonical_form([1], ints[0])
        nums, den = [scale * inv_num], inv_den
        for _ in range(1, len(ints)):
            dot = sum(map(mul, tail, reversed(nums)))
            (num,), d = self.canonical_form([-dot * inv_num], inv_den * den)
            if den % d:
                f = d // math.gcd(den, d)
                nums = [x * f for x in nums]
                den *= f
            nums.append(num * (den // d))
        return nums, den

    # -- element layer ---------------------------------------------------
    def element(self, value) -> RingElement:
        return RingElement(self, value)

    def from_int(self, k: int) -> RingElement:
        return RingElement(self, self.payload_from_int(k))

    def from_fraction(self, q: Fraction | int) -> RingElement:
        """The image of a rational number, given as a Fraction or an int."""
        num = self.from_int(q.numerator)
        if q.denominator == 1:
            return num
        try:
            inv = self.invert(self.from_int(q.denominator))
        except NotAUnit:
            raise NotAUnit(
                f"the coefficient {q} has no image in {self}: "
                f"its denominator {q.denominator} is not a unit there"
            ) from None
        return num * inv

    @property
    def zero(self) -> RingElement:
        return self.from_int(0)

    @property
    def one(self) -> RingElement:
        return self.from_int(1)

    def generators(self) -> dict:
        return {}

    # -- units and locality ----------------------------------------------
    def is_unit(self, a: RingElement) -> bool:
        raise NotImplementedError

    def invert(self, a: RingElement) -> RingElement:
        raise NotImplementedError

    @property
    def is_local(self) -> bool:
        raise NotImplementedError

    def nilpotency_exponent(self) -> int:
        """Smallest e with m^e = 0 for the maximal ideal m of a local ring."""
        raise NotImplementedError

    def residue_field(self) -> "Ring":
        raise NotImplementedError

    def residue(self, a: RingElement) -> RingElement:
        """Image of a in R/m, as an element of ``residue_field()``."""
        raise NotImplementedError

    def is_nilpotent(self, a: RingElement) -> bool:
        if not self.is_local:
            raise NonLocalRing(f"{self} is not local")
        return not self.residue(a)

    # -- sampling for randomized tests ------------------------------------
    def random_element(self, rng) -> RingElement:
        raise NotImplementedError

    def random_unit(self, rng) -> RingElement:
        for _ in range(1000):
            a = self.random_element(rng)
            if self.is_unit(a):
                return a
        raise RuntimeError("failed to sample a unit")

    def random_nilpotent(self, rng) -> RingElement:
        if self.nilpotency_exponent() == 1:
            return self.zero  # the maximal ideal is zero
        for _ in range(1000):
            a = self.random_element(rng)
            if self.is_nilpotent(a):
                return a
        raise RuntimeError("failed to sample a nilpotent")

    def format_element(self, value) -> str:
        raise NotImplementedError


class PrimeFieldRing(Ring):
    is_field = True

    def __init__(self, p: int):
        check_modulus(p, "prime")
        if not is_prime(p):
            raise InvalidDescriptor(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeFieldRing) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"Fp({self.p})"

    def payload_from_int(self, k):
        return k % self.p

    def payload_add(self, a, b):
        return (a + b) % self.p

    def payload_neg(self, a):
        return (-a) % self.p

    def payload_sub(self, a, b):
        return (a - b) % self.p

    def payload_mul(self, a, b):
        return (a * b) % self.p

    def payload_is_zero(self, a):
        return a == 0

    def integer_form(self, payloads):
        return payloads, 1

    def from_integer_form(self, ints, scale):
        return _residues(ints, scale, self.p)

    def is_unit(self, a):
        return a.value != 0

    def invert(self, a):
        if a.value == 0:
            raise NotAUnit("0 is not invertible")
        return self.element(pow(a.value, -1, self.p))

    @property
    def is_local(self):
        return True

    def nilpotency_exponent(self):
        return 1

    def residue_field(self):
        return self

    def residue(self, a):
        return a

    def elements(self):
        return [self.element(k) for k in range(self.p)]

    def random_element(self, rng):
        return self.element(rng.randrange(self.p))

    def format_element(self, value):
        return str(value)


class RationalRing(Ring):
    is_field = True
    series_form = True

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"

    def payload_from_int(self, k):
        return Fraction(k)

    def payload_add(self, a, b):
        return a + b

    def payload_neg(self, a):
        return -a

    def payload_sub(self, a, b):
        return a - b

    def payload_mul(self, a, b):
        return a * b

    def payload_is_zero(self, a):
        return a == 0

    def integer_form(self, payloads):
        scale = math.lcm(*[x.denominator for x in payloads])
        return [x.numerator * (scale // x.denominator) for x in payloads], scale

    def from_integer_form(self, ints, scale):
        return [Fraction(c, scale) for c in ints]

    def canonical_form(self, ints, scale):
        """Content divided out: gcd(scale, *ints) = 1 and scale > 0, so
        scale is the lcm of the reduced denominators."""
        g = math.gcd(scale, *ints) if scale > 0 else -math.gcd(scale, *ints)
        return (ints, scale) if g == 1 else ([c // g for c in ints], scale // g)

    def is_unit(self, a):
        return a.value != 0

    def invert(self, a):
        if a.value == 0:
            raise NotAUnit("0 is not invertible")
        return self.element(1 / a.value)

    @property
    def is_local(self):
        return True

    def nilpotency_exponent(self):
        return 1

    def residue_field(self):
        return self

    def residue(self, a):
        return a

    def random_element(self, rng):
        return self.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def format_element(self, value):
        return str(value)


class IntegersMod(Ring):
    """Z/n.  Arithmetic for every n >= 2; residue theory only for n = p^e."""

    def __init__(self, n: int):
        if n < 2:
            raise InvalidDescriptor("modulus must be >= 2")
        check_modulus(n, "modulus")
        self.n = n
        self._pe = prime_power(n)

    @classmethod
    def _of_prime_power(cls, p: int, e: int):
        """Unchecked constructor of Z/p^e for a prime p; p^e may exceed
        ``MAX_MODULUS``, since no trial division runs."""
        self = object.__new__(cls)
        self.n = p**e
        self._pe = (p, e)
        return self

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.n == self.n

    def __hash__(self):
        return hash(("Zmod", self.n))

    def __repr__(self):
        return f"Zmod({self.n})"

    def payload_from_int(self, k):
        return k % self.n

    def payload_add(self, a, b):
        return (a + b) % self.n

    def payload_neg(self, a):
        return (-a) % self.n

    def payload_sub(self, a, b):
        return (a - b) % self.n

    def payload_mul(self, a, b):
        return (a * b) % self.n

    def payload_is_zero(self, a):
        return a == 0

    def integer_form(self, payloads):
        return payloads, 1

    def from_integer_form(self, ints, scale):
        return _residues(ints, scale, self.n)

    def is_unit(self, a):
        return math.gcd(a.value, self.n) == 1

    def invert(self, a):
        try:
            return self.element(pow(a.value, -1, self.n))
        except ValueError:
            raise NotAUnit(f"gcd({a.value}, {self.n}) != 1") from None

    @property
    def is_local(self):
        return self._pe is not None

    def nilpotency_exponent(self):
        if self._pe is None:
            raise NonLocalRing(f"{self} is not local")
        return self._pe[1]

    def residue_field(self):
        if self._pe is None:
            raise NonLocalRing(f"{self} is not local")
        return PrimeFieldRing(self._pe[0])

    def residue(self, a):
        return self.residue_field().from_int(a.value)

    def elements(self):
        return [self.element(k) for k in range(self.n)]

    def random_element(self, rng):
        return self.element(rng.randrange(self.n))

    def random_nilpotent(self, rng):
        p, e = self._pe if self._pe else (None, None)
        if p is None:
            raise NonLocalRing(f"{self} is not local")
        if e == 1:
            return self.zero
        return self.element(p * rng.randrange(self.n // p))

    def format_element(self, value):
        return str(value)


class ArtinianLocalRing(Ring):
    """base[s_1..s_m] / (all monomials of total degree >= e).

    Payloads are dicts mapping exponent tuples (total degree < e) to nonzero
    base payloads.  Multiplication convolves exponents and discards any
    monomial of total degree >= e, which is exactly m^e = 0.
    """

    def __init__(self, base: Ring, names, truncation_order: int):
        if not isinstance(base, (PrimeFieldRing, RationalRing)):
            raise InvalidDescriptor("base must be a prime field or Q")
        names = tuple(names)
        if not names:
            raise InvalidDescriptor("at least one generator required")
        if len(set(names)) != len(names):
            raise InvalidDescriptor("generator names must be distinct")
        if truncation_order < 1:
            raise InvalidDescriptor("truncation order must be >= 1")
        monomials = math.comb(len(names) + truncation_order - 1, len(names))
        if monomials > MAX_MONOMIALS:
            raise InvalidDescriptor(
                f"{monomials} monomials of degree < {truncation_order} in "
                f"{len(names)} generators: the count exceeds the ceiling {MAX_MONOMIALS}"
            )
        self.base = base
        self.names = names
        self.e = truncation_order
        self.m = len(names)

    def __eq__(self, other):
        return (
            isinstance(other, ArtinianLocalRing)
            and other.base == self.base
            and other.names == self.names
            and other.e == self.e
        )

    def __hash__(self):
        return hash(("Artin", self.base, self.names, self.e))

    def __repr__(self):
        return f"Artin({self.base}; {','.join(self.names)}; {self.e})"

    def payload_from_int(self, k):
        c = self.base.payload_from_int(k)
        if self.base.payload_is_zero(c):
            return {}
        return {(0,) * self.m: c}

    def payload_add(self, a, b):
        out = dict(a)
        base = self.base
        for exps, c in b.items():
            if exps in out:
                s = base.payload_add(out[exps], c)
                if base.payload_is_zero(s):
                    del out[exps]
                else:
                    out[exps] = s
            else:
                out[exps] = c
        return out

    def payload_neg(self, a):
        base = self.base
        return {exps: base.payload_neg(c) for exps, c in a.items()}

    def payload_mul(self, a, b):
        base = self.base
        e = self.e
        out = {}
        for xa, ca in a.items():
            for xb, cb in b.items():
                exps = tuple(i + j for i, j in zip(xa, xb))
                if sum(exps) >= e:
                    continue
                c = base.payload_mul(ca, cb)
                if exps in out:
                    c = base.payload_add(out[exps], c)
                if base.payload_is_zero(c):
                    out.pop(exps, None)
                else:
                    out[exps] = c
        return out

    def payload_is_zero(self, a):
        return not a

    def payload_hash(self, a):
        return hash(tuple(sorted(a.items())))

    def convolve(self, a, b, n):
        """``Ring.convolve`` slice by slice: each slice pair of total degree
        below e is one ``_int_product`` (slices come by ascending degree, so
        the first pair reaching e ends the row), added to the ints of its
        product monomial.  This pays off when monomials recur across
        t-degrees; when every slice holds one term, the O(n) work per slice
        pair makes it slower than multiplying term by term."""
        slices_a, scale_a = self._integer_slices(a)
        slices_b, scale_b = self._integer_slices(b)
        e = self.e
        slots = {}
        for db, xb, sb in slices_b:
            for da, xa, sa in slices_a:
                if da + db >= e:
                    break
                x = tuple(map(add, xa, xb))
                c = _int_product(sa, sb, n)
                acc = slots.get(x)
                slots[x] = c if acc is None else list(map(add, acc, c))
        terms = [(k, x) for x, acc in slots.items() for k in compress(range(n), acc)]
        ints = [c for acc in slots.values() for c in compress(acc, acc)]
        pzero = self.base.payload_is_zero
        out = [{} for _ in range(n)]
        for (k, x), c in zip(terms, self.base.from_integer_form(ints, scale_a * scale_b)):
            if not pzero(c):
                out[k][x] = c
        return out

    def invert_series(self, payloads, inv0):
        """``Ring.invert_series`` by the payload recurrence: one
        ``payload_mul`` and one ``payload_add`` per term."""
        out = [inv0]
        padd, pmul = self.payload_add, self.payload_mul
        neg_inv0 = self.payload_neg(inv0)
        for k in range(1, len(payloads)):
            acc = None
            for i in range(1, k + 1):
                term = pmul(payloads[i], out[k - i])
                acc = term if acc is None else padd(acc, term)
            out.append(pmul(neg_inv0, acc))
        return out

    def _integer_slices(self, payloads):
        """``([(deg, exps, ints), ...], scale)`` by ascending total degree:
        the base coefficient of the monomial exps in payloads[i] is
        ints[i] / scale, and each ``ints`` is as long as ``payloads``."""
        ints, scale = self.base.integer_form([c for a in payloads for c in a.values()])
        ints = iter(ints)
        slices = {}
        for i, a in enumerate(payloads):
            for exps in a:
                s = slices.get(exps)
                if s is None:
                    s = slices[exps] = [0] * len(payloads)
                s[i] = next(ints)
        return sorted((sum(x), x, s) for x, s in slices.items()), scale

    def generators(self):
        out = {}
        for i, name in enumerate(self.names):
            exps = tuple(1 if j == i else 0 for j in range(self.m))
            if self.e == 1:
                out[name] = self.zero  # m = 0 when e = 1
            else:
                out[name] = self.element({exps: self.base.payload_from_int(1)})
        return out

    def is_unit(self, a):
        c = a.value.get((0,) * self.m)
        if c is None:
            return False
        return self.base.is_unit(self.base.element(c))

    def invert(self, a):
        const = a.value.get((0,) * self.m)
        if const is None:
            raise NotAUnit("constant coefficient is zero")
        c = self.base.element(const)
        if not self.base.is_unit(c):
            raise NotAUnit("constant coefficient is not a base unit")
        cinv = RingElement(self, {(0,) * self.m: self.base.invert(c).value})
        nil = a - RingElement(self, {(0,) * self.m: const})
        # geometric series: (c + v)^{-1} = c^{-1} sum_k (-c^{-1} v)^k, exact
        # because v^e = 0.
        t = -cinv * nil
        acc = self.one
        term = self.one
        for _ in range(1, self.e):
            term = term * t
            acc = acc + term
        return cinv * acc

    @property
    def is_local(self):
        return True

    def nilpotency_exponent(self):
        return self.e

    def residue_field(self):
        return self.base

    def residue(self, a):
        c = a.value.get((0,) * self.m)
        return self.base.zero if c is None else self.base.element(c)

    def random_element(self, rng):
        out = {}
        for exps in self.monomials():
            if rng.random() < 0.6:
                c = self.base.random_element(rng)
                if c:
                    out[exps] = c.value
        return self.element(out)

    def random_nilpotent(self, rng):
        a = self.random_element(rng)
        out = dict(a.value)
        out.pop((0,) * self.m, None)
        return self.element(out)

    def monomials(self):
        """All exponent tuples of total degree < e, degree-then-lex order."""

        def rec(prefix, remaining, budget):
            if remaining == 0:
                yield prefix
                return
            for k in range(budget + 1):
                yield from rec(prefix + (k,), remaining - 1, budget - k)

        out = list(rec((), self.m, self.e - 1))
        out.sort(key=lambda x: (sum(x), x))
        return out

    def format_element(self, value):
        return MultiPoly(self.m, value).format(self.names, self.base.format_element)


def make_ring(descriptor):
    """Build a ring from a descriptor string like ``Artin(Fp(5); eps; 2)``.

    Accepts an already-built ring unchanged; see ``textforms.parse_ring``
    for the grammar.
    """
    if isinstance(descriptor, Ring):
        return descriptor
    from .textforms import parse_ring

    return parse_ring(descriptor)
