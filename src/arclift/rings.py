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

Each ring keeps a series in one canonical *series form* (items, scale)
(``canonical_form``): for Fp and Z/n one reduced residue per coefficient
over scale 1, all of them one ``bytes`` object, a byte per residue, for a
modulus up to 128, and a tuple of ints above (``_ResidueRing``); for Q one
int per coefficient over a scale with the content divided out, so chains
of sums and products normalise once per operation, by one gcd, not one
Fraction per coefficient; for Artinian rings one slice per monomial that
occurs, the base ints of its coefficient at every power of t over one
scale (``ArtinianLocalRing``), so their sums, scaling and products run on
base ints too; for the colimit models in ``pathology`` their canonical
payloads over scale 1 (``PayloadRing``).  Every form a ring hands out has
that ring's one item type: ``bytes`` for the byte residue rings, a tuple
for every other ring.  The layout of the items stays inside the rings:
``TruncatedSeries`` and the t-polynomials of ``weierstrass`` hand a form
to the ring's ``form_*`` operations (length, window, sum, negation,
scaling, equality, zero, leading or trailing zeros and reduced order), to
``integer_form``/``from_integer_form`` (payloads to form and back) and
``canonical_form``, to ``convolve``, the product of two forms' items
(``_byte_product`` for byte forms, ``_int_product`` for int tuples and
once per slice pair for Artinian rings, payload products for colimit
models), and to ``invert_series``, the canonical form of the inverse of
a short series, one body per family: the fraction-free recurrence over
one common denominator for Q, the same recurrence with each coefficient
reduced mod m as it is formed for Fp and Z/n (bytes and int tuples
alike), the payload recurrence on payload dicts for Artinian rings;
colimit models refuse it, as they refuse every element inverse.  The
``Ring`` defaults of the form operations take one item per coefficient
and do their arithmetic through ``item_ring``: plain ints for Q and for
residue moduli above 128, the ring's own payload operations for colimit
models; ``_ResidueRing`` overrides each of them for byte forms.  From
``NEWTON_INVERT_MIN`` known orders on, ``TruncatedSeries.invert`` calls
``invert_series`` only at the base of a Newton doubling, whose products go
through ``convolve``; Q opts out and inverts by the recurrence at every
length.  An Artinian ring has at most ``MAX_MONOMIALS`` monomials.

``_int_product`` is the package's only int product loop: ``Ring.convolve``
(Q, residue moduli above 128) and the Artinian slices call it, and
``_byte_product`` is its counterpart on bytes.  Below
``KRONECKER_MIN_RESIDUE_TERMS`` nonzero residues, or
``KRONECKER_MIN_TERMS`` nonzero Q ints, in the sparser operand it
multiplies term by term; from there on it packs each list into one Python
int, w bits per coefficient, so that a single big-int multiply (Karatsuba,
in C) does the O(n^2) work: Kronecker substitution (von zur Gathen and
Gerhard, *Modern Computer Algebra*, section 8.4; D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J. Symb.
Comp. 2009).  The thresholds count nonzero terms, not length: one-term and
shifted operands are frequent in Newton lifting, and go term by term.  That
loop still walks every item of the denser operand, so its cost grows with
that operand's length.  With one term against a dense operand, term by term
against packed took 5.2 / 4.6 µs at n = 32, 13.5 / 6.7 at n = 64 and
21.7 / 11.5 at n = 128 over Fp(5), and 10.5 / 15.3 at n = 64 and 19.2 /
17.9 at n = 128 over Q (CPython 3.11.7, 2-vCPU VM); in five ``lift`` benchmark
cycles (seed 21), such one-term residue products at n >= 32 were 740 calls
and 8.4 ms.  A residue ring states the largest item of its canonical form
(``Ring.item_top``: p - 1 for Fp, n - 1 for Z/n), and an Artinian ring
over Fp passes its base's, so their slots are unsigned and sized from that
bound without reading the operands; Q's ints, which have no bound, are
scanned and packed in signed slots.

Element-level bodies have one home each.  ``Ring`` tests a payload for
zero as ``a == 0``, compares forms as they are and formats a payload with
``str``; ``_ResidueRing`` holds ``payload_from_int``, ``payload_neg``,
``payload_sub``, ``invert`` and ``invert_series`` for Fp and Z/n, modulo
``item_top`` + 1; ``_Field`` holds units, locality, the residue field and
the reduced order of a form for Fp and Q; ``PayloadRing`` holds the
colimit models' level-raising form equality and their refusals of the
reduced order and the series inverse.  ``payload_add`` and
``payload_mul`` stay on each family's own class, where the benchmark's
tracer counts them.

Every ring is immutable and every operation is a pure function, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import compress, count
from operator import add, eq, mul, neg, not_, sub
from types import SimpleNamespace

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
"""The sparser operand's nonzero count from which ``_int_product`` packs
ints of no known bound (Q's), in signed, scanned slots.

Measured on CPython 3.11 (2-vCPU VM), schoolbook over Kronecker time on
dense lists of n terms, mod t^n, the median of three runs:

| operands | n=4 | 5 | 6 | 7 | 8 | 12 | 16 | 24 | 32 |
|---|---|---|---|---|---|---|---|---|---|
| Fp(5), unsigned | 0.59 | 0.71 | 0.97 | 1.03 | 1.55 | 2.1 | 2.5 | 5.2 | 5.9 |
| Zmod(27), unsigned | 0.59 | 0.73 | 0.92 | 1.07 | 1.25 | 2.2 | 3.2 | 6.3 | 9.5 |
| Zmod(2^40), unsigned, 11-byte slots | 0.50 | 0.57 | 0.44 | 0.67 | 0.84 | 1.04 | 1.17 | 2.3 | 2.6 |
| Q, 20-bit numerators, signed | 0.37 | 0.48 | 0.59 | 0.64 | 0.83 | 1.34 | 1.36 | 2.5 | 4.0 |
| Q, 100-bit numerators, signed | 0.31 | 0.36 | 0.45 | 0.50 | 0.48 | 0.72 | 0.79 | 1.18 | 1.44 |

Signed Q slots break even between 8 and 12 terms, and the threshold stays
at 16, where every kind of operand but wide Q numerators gains.
"""

KRONECKER_MIN_RESIDUE_TERMS = 6
"""The sparser operand's nonzero count from which ``_int_product`` packs
residues (a ``top`` given), in unsigned slots sized from the bound.  It
serves the int tuples of moduli above 128 and the slices of Artinian rings
over Fp; the byte forms of smaller moduli go through ``_byte_product``.

Re-measured on CPython 3.11.7 (2-vCPU VM), schoolbook over Kronecker time
on dense lists of n terms, mod t^n, the best of seven runs:

| operands | n=4 | 5 | 6 | 7 | 8 | 12 | 16 | 24 | 32 |
|---|---|---|---|---|---|---|---|---|---|
| Fp(5), Artinian slices | 0.68 | 0.89 | 1.11 | 1.22 | 1.52 | 2.37 | 3.41 | 6.0 | 8.9 |
| Fp(131) | 0.70 | 0.86 | 1.08 | 1.25 | 1.44 | 2.10 | 3.05 | 5.3 | 8.0 |
| Fp(251) | 0.70 | 0.90 | 1.13 | 1.26 | 1.40 | 2.11 | 3.14 | 5.4 | 7.0 |
| Zmod(2^40), 11-byte slots | 0.48 | 0.57 | 0.65 | 0.73 | 0.80 | 1.08 | 1.41 | 1.9 | 2.5 |

Residues below 2^8 break even between 5 and 6 terms; slots of 11 bytes,
near ``MAX_MODULUS``, break even only near 12, and lose up to 1.5x between
6 and 12 terms.

``_byte_product`` has a cutoff of its own: it multiplies a one-term
operand by a window and a ``translate`` (1.0-1.4 µs against a dense
operand of n = 8-128), and packs from two terms on.  A term-by-term loop
over translated windows was measured against packing at two and three
terms: over Fp(5), whose slots stay one byte wide, packing won (1.3 / 1.3
µs at n = 8, 4.6 / 2.8 at n = 128, three terms); where slots are two
bytes wide, as for Zmod(27) and Fp(127), the loop won by 2-5 µs (4.4 /
9.3 at n = 128), but such products were 112 calls in three ``prepare``
cycles and none in ``lift``, so it is not kept."""


def _int_product(a, b, n, top=None):
    """a*b mod t^n, as n Python ints, for int lists a and b no longer than n.

    ``top`` is the largest item either list may hold, for lists of
    canonical residues in [0, top] (``Ring.item_top``); None allows any
    ints."""
    terms = min(len(a) - a.count(0), len(b) - b.count(0))
    if terms >= (KRONECKER_MIN_TERMS if top is None else KRONECKER_MIN_RESIDUE_TERMS):
        return _kronecker_product(a, b, n, terms, top)
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


def _kronecker_product(a, b, n, terms, top):
    """``_int_product`` by one big-int multiply; ``terms`` is the smaller
    operand's count of nonzero ints.

    Each list is packed into sum c_i 2^(w i), w bits per slot, and the two
    are multiplied once (CPython multiplies large ints by Karatsuba, in C).
    Every product coefficient is a sum of at most ``terms`` products, so
    |c_k| <= max|a| max|b| terms, and each of the first m slots of the
    product holds exactly one coefficient.  Residues (``top`` given) are
    non-negative, so their slots are unsigned and sized from top^2 terms
    without reading the operands; other ints take a sign bit, and their
    bound comes from scanning both lists.
    """
    m = min(n, len(a) + len(b) - 1)
    signed = top is None
    if signed:
        bound = max(max(a), -min(a)) * max(max(b), -min(b)) * terms
    else:
        bound = top * top * terms
    width = (bound.bit_length() + signed + 7) // 8  # bytes per slot
    if width <= 8:
        width = 1 << (width - 1).bit_length()  # a size ``struct`` packs
    packed = _pack(a, width, signed) * _pack(b, width, signed)
    return _unpack(packed, width, m, signed) + [0] * (n - m)


_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}  # signed; upper case unsigned


def _top_bits(width, count):
    """The int whose ``count`` slots of ``width`` bytes each hold 2^(8 width - 1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(ints, width, signed):
    """sum ints[i] 2^(8 width i), for ints in [0, 2^(8 width)), or for
    ``signed`` ints in [-2^(8 width - 1), 2^(8 width - 1)).

    Signed slots are written in two's complement; flipping each slot's top
    bit turns them into ints[i] + 2^(8 width - 1), a sum without carries."""
    code = _STRUCT_CODES.get(width)
    if code:
        data = struct.pack(f"<{len(ints)}{code if signed else code.upper()}", *ints)
    else:
        data = b"".join([c.to_bytes(width, "little", signed=signed) for c in ints])
    if not signed:
        return int.from_bytes(data, "little")
    top = _top_bits(width, len(ints))
    return (int.from_bytes(data, "little") ^ top) - top


def _unpack(x, width, m, signed):
    """[c_0, ..., c_{m-1}] for x = sum c_k 2^(8 width k), with every c_k in
    [0, 2^(8 width)), or for ``signed`` |c_k| < 2^(8 width - 1).

    Unsigned slots hold c_k as they are, and the mask drops the slots from
    m on.  For signed ones, adding 2^(8 width - 1) to each of the m slots
    first makes every slot non-negative, so slot k holds
    c_k + 2^(8 width - 1) with no borrow from below; flipping the top bits
    back after the mask leaves c_k in two's complement."""
    mask = (1 << (8 * width * m)) - 1
    if signed:
        top = _top_bits(width, m)
        x = ((x + top) & mask) ^ top
    else:
        x &= mask
    data = x.to_bytes(width * m, "little")
    code = _STRUCT_CODES.get(width)
    if code:
        return list(struct.unpack(f"<{m}{code if signed else code.upper()}", data))
    return [
        int.from_bytes(data[i : i + width], "little", signed=signed)
        for i in range(0, width * m, width)
    ]


def _residues(ints, scale, m):
    """The residues mod m of ints[i] / scale, for a scale prime to m."""
    if scale == 1:
        return [c % m for c in ints]
    f = pow(scale, -1, m)
    return [c * f % m for c in ints]


# -- the byte kernel: Fp and Z/n forms for m <= 128 (see _ResidueRing) -------

_BYTE_TOP = 127
"""The largest ``item_top`` whose series forms are ``bytes``: one residue
per byte, and a sum of two residues, at most 2 * 127 = 254, still fits
its byte, so a sum of two strings read as ints carries into no neighbour."""

_TIMES_TABLES = {}


def _times_table(m, c):
    """The ``bytes.translate`` table of x -> x * c mod m for all 256 byte
    values x, built on first use and kept for the process: one period of m
    entries, repeated.  c = 1 reduces, c = m - 1 negates.  Rings are built
    afresh per CLI call, so the tables live here, not on a ring; with
    c < m <= 128 there are at most 8,255 of them."""
    table = _TIMES_TABLES.get((m, c))
    if table is None:
        period = bytes([x * c % m for x in range(m)])
        table = _TIMES_TABLES[m, c] = (period * (256 // m + 1))[:256]
    return table


def _byte_sum(a, b, m):
    """The residues (a_i + b_i) mod m over the shorter length, for byte
    residues a and b: one int addition, then one ``translate``."""
    k = min(len(a), len(b))
    x = int.from_bytes(a[:k], "little") + int.from_bytes(b[:k], "little")
    return x.to_bytes(k, "little").translate(_times_table(m, 1))


def _byte_product(a, b, n, m):
    """Bytes congruent mod m to the coefficients of a*b mod t^n, for byte
    residues a and b; ``canonical_form`` reduces them.

    A sparser operand of one nonzero term c t^i makes the product one
    window of the other times c: a shift and a ``translate``.  Otherwise
    Kronecker substitution, as in ``_kronecker_product``, straight from the
    bytes: each operand widened to w-byte slots by one strided
    ``bytearray`` assignment, w the power of two that holds (m-1)^2 terms,
    one big-int multiply masked to the slots kept, and each slot reduced
    by its byte planes, plane j translated by x -> x 256^j mod m and the
    planes added one by one with a ``translate`` after each add."""
    a, b = a[:n], b[:n]
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a  # a is the sparser
    la, lb = len(a), len(b)
    terms = la - a.count(0)
    if terms <= 1:
        if not terms:
            return bytes(n)
        i = la - len(a.lstrip(b"\0"))
        out = (bytes(i) + b.translate(_times_table(m, a[i])))[:n]
        return out + bytes(n - len(out))
    k = min(n, la + lb - 1)
    w = (((m - 1) * (m - 1) * terms).bit_length() + 7) // 8
    w = 1 << (w - 1).bit_length()  # bytes per slot: 1, 2, 4, 8, ...
    x = _widened(a, w) * _widened(b, w)
    if k < la + lb - 1:
        x &= (1 << (8 * w * k)) - 1
    data = x.to_bytes(w * k, "little")
    if w == 1:
        return data + bytes(n - k)
    out = data[::w].translate(_times_table(m, 1))
    for j in range(1, w):
        f = pow(256, j, m)
        if f:
            out = _byte_sum(out, data[j::w].translate(_times_table(m, f)), m)
    return out + bytes(n - k)


def _widened(items, w):
    """The int whose w-byte slots hold the bytes of ``items``."""
    if w == 1:
        return int.from_bytes(items, "little")
    wide = bytearray(w * len(items))
    wide[::w] = items
    return int.from_bytes(wide, "little")


INT_ITEMS = SimpleNamespace(payload_add=add, payload_sub=sub, payload_neg=neg, payload_mul=mul,
                            payload_is_zero=not_, payload_eq=eq, payload_from_int=int)
"""The item arithmetic of the int-tuple series forms, Q's and those of Fp
and Z/n above modulus 128: plain ints, which ``canonical_form`` reduces
once per operation."""


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
        """Equality with elements only: an int is never equal, since no hash
        could agree with all of its images (3 and 8 in Fp(5))."""
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring.payload_eq(self.value, self._coerce(other))

    def __bool__(self):
        return not self.ring.payload_is_zero(self.value)

    def __hash__(self):
        return hash((self.ring, self.ring.payload_hash(self.value)))

    def __repr__(self):
        return self.ring.format_element(self.value)


class Ring:
    """Common interface; subclasses implement the payload-level arithmetic.

    The defaults here serve every family whose payloads they fit: a payload
    is zero when it equals 0 and prints as ``str`` of itself (Fp, Z/n, Q),
    a difference is the sum with the negation, and the series form
    operations below run one item per coefficient."""

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
        return a == 0

    def payload_eq(self, a, b) -> bool:
        """Representational equality; overridden where payloads carry a
        presentation level that must be aligned first."""
        return a == b

    def payload_hash(self, a) -> int:
        """A hash that agrees with ``payload_eq``."""
        return hash(a)

    # -- series forms (see the module docstring) -------------------------
    item_ring = INT_ITEMS
    """What adds, subtracts, negates, multiplies and compares the items of
    this ring's series forms, in the default form operations below, by its
    ``payload_*`` operations."""

    def integer_form(self, payloads):
        """The canonical series form ``(items, scale)`` of the payloads,
        payloads[i] = items[i] / scale: here the payloads themselves, as a
        tuple, over scale 1."""
        return tuple(payloads), 1

    def from_integer_form(self, ints, scale):
        """The canonical payloads of a canonical series form, or of any ints
        over a unit scale other than 1.  Here a form over scale 1 holds the
        payloads themselves."""
        return ints if scale == 1 else self.canonical_form(ints, scale)[0]

    def canonical_form(self, ints, scale):
        """The canonical series form of the values ints[i] / scale, for any
        Python ints and a unit scale.  Its items, as those of every form a
        ring hands out, are of the ring's one item type: ``bytes`` for Fp
        and Z/n up to m = 128, a tuple otherwise."""
        raise NotImplementedError

    item_top = None
    """The largest item of this ring's canonical series forms, which are
    then residues in [0, item_top]: p - 1 for Fp, n - 1 for Z/n.  None for
    Q, whose items have no bound, and for payload rings, whose items are
    not ints.  It alone picks the item type of a residue ring's forms
    (``_ResidueRing``), and ``convolve`` sizes unsigned Kronecker slots
    from it."""

    # Code outside the rings reads the items of a form only through the
    # form operations below, which take canonical forms and return one.
    # The defaults run on one item per coefficient, through ``item_ring``.

    def form_len(self, items):
        """How many coefficients the items of a series form hold."""
        return len(items)

    def form_window(self, items, scale, start, stop):
        """The form of the coefficients start..stop-1 (start <= stop,
        0 <= stop) of the form read as an exact polynomial: zero where
        the index is negative or past the last item.  A negative start
        shifts up, a stop past the end pads, and a cut over a scale above 1
        is brought back to canonical form (it may have lost the items that
        kept the content 1)."""
        n = len(items)
        if start < 0:
            out = (self.item_ring.payload_from_int(0),) * -start + tuple(items[:stop])
        else:
            out = tuple(items[start:stop])
        if stop > n:
            out += (self.item_ring.payload_from_int(0),) * (stop - max(n, start))
        if scale != 1 and (start > 0 or stop < n):
            return self.canonical_form(out, scale)
        return out, scale

    def form_sum(self, a, s, b, r, subtract=False):
        """The form of a + b (a - b if ``subtract``) for the forms (a, s)
        and (b, r), over the lcm of the two scales, as long as the shorter."""
        item_ring = self.item_ring
        op = item_ring.payload_sub if subtract else item_ring.payload_add
        if s == r:
            items = list(map(op, a, b))
        else:
            g = math.gcd(s, r)
            fa, fb = r // g, s // g
            items = [op(x * fa, y * fb) for x, y in zip(a, b)]
            s *= fa
        return self.canonical_form(items, s)

    def form_neg(self, items, scale):
        """The form of the negated coefficients."""
        return self.canonical_form(list(map(self.item_ring.payload_neg, items)), scale)

    def form_scale(self, items, scale, c):
        """The form of c times each coefficient, for a payload c: each item
        times the item of c's own form, over the product of the scales.  As
        in ``convolve``, a zero factor leaves a zero item, so the result is
        the form of the product with the constant series c."""
        (ci,), cs = self.integer_form([c])
        item_ring = self.item_ring
        mul, is_zero = item_ring.payload_mul, item_ring.payload_is_zero
        zero = item_ring.payload_from_int(0)
        if is_zero(ci):
            items = [zero] * len(items)
        else:
            items = [zero if is_zero(x) else mul(ci, x) for x in items]
        return self.canonical_form(items, scale * cs)

    def form_eq(self, a, b):
        """Whether the canonical items a and b, over one scale and of one
        length, hold equal coefficients: canonical items compare equal as
        they are."""
        return a == b

    def form_is_zero(self, items):
        return all(map(self.item_ring.payload_is_zero, items))

    def form_leading_zeros(self, items):
        """How many coefficients are zero before the first nonzero one (all
        of them for zero)."""
        nonzero = map(not_, map(self.item_ring.payload_is_zero, items))
        return next(compress(count(), nonzero), len(items))

    def form_trimmed_len(self, items):
        """How many coefficients are left without the trailing zero ones."""
        is_zero, n = self.item_ring.payload_is_zero, len(items)
        while n and is_zero(items[n - 1]):
            n -= 1
        return n

    def form_ints(self, items, scale):
        """The ints of a form that can grow without bound: Q's items and
        scale; none for a residue ring, whose items are reduced."""
        return (*items, scale) if self.item_top is None else ()

    def convolve(self, a, b, n):
        """The items of a*b mod t^n, over the product of the two scales and
        not yet canonical, for the items a and b of two series forms.  Here
        one ``_int_product`` of the first n items of each."""
        return _int_product(a[:n], b[:n], n, self.item_top)

    def invert_series(self, ints, scale):
        """The canonical series form of the inverse mod t^n of the
        canonical series form (ints, scale) of n items, whose constant term
        is a unit.  ``TruncatedSeries.invert`` calls it below
        ``NEWTON_INVERT_MIN`` items, and at the base of its Newton doubling
        from there on.  Each family has one body: this one serves Q.

        The fraction-free recurrence (von zur Gathen and Gerhard, *Modern
        Computer Algebra*, section 9.1): the scale cancels from every term
        but the first, and the inverse is kept as ints O over one common
        denominator L, coefficient k being -sum_{i=1..k} A_i O_{k-i} /
        (A_0 L); L grows to the lcm of the reduced denominators met so far,
        the first one's included, and the earlier O are rescaled when it
        does.  So the running ints never carry a content, and the final
        ``canonical_form`` finds none to divide out.
        """
        tail = ints[1:]
        (inv_num,), inv_den = self.canonical_form([1], ints[0])
        (first,), den = self.canonical_form([scale * inv_num], inv_den)
        nums = [first]
        for _ in range(1, len(ints)):
            dot = sum(map(mul, tail, reversed(nums)))
            (num,), d = self.canonical_form([-dot * inv_num], inv_den * den)
            if den % d:
                f = d // math.gcd(den, d)
                nums = [x * f for x in nums]
                den *= f
            nums.append(num * (den // d))
        return self.canonical_form(nums, den)

    NEWTON_INVERT_MIN = 48
    """The precision from which ``TruncatedSeries.invert`` doubles by
    Newton's iteration instead of calling ``invert_series`` at full length.

    Measured on CPython 3.11 (2-vCPU VM), ms per inverse of a random dense
    series, ``invert_series`` -> Newton with this cutoff (at N = 32, one
    forced Newton step):

    | ring | N=32 | 48 | 64 | 128 | 256 | 512 |
    |---|---|---|---|---|---|---|
    | Fp(5) | 0.056 -> 0.076 | 0.097 -> 0.084 | 0.20 -> 0.16 | 0.43 -> 0.18 | 1.8 -> 0.34 | 5.8 -> 0.64 |
    | Zmod(27) | 0.051 -> 0.071 | 0.097 -> 0.086 | 0.16 -> 0.14 | 0.49 -> 0.22 | 2.0 -> 0.64 | 7.4 -> 0.96 |
    | Artin(Fp(5); eps; 2) | 1.6 -> 0.50 | 3.8 -> 1.1 | 6.3 -> 1.7 | 26 -> 1.9 | 97 -> 2.1 | |
    | Artin(Fp(2); s1,s2; 3) | 5.1 -> 1.5 | 12 -> 3.5 | 22 -> 6.5 | 73 -> 5.3 | 290 -> 6.2 | |

    The Artinian rows were measured with series products on slices, the
    best of two runs interleaved with runs of the payload-dict products
    before them, where Newton took 0.61, 1.2, 2.0, 2.4 and 2.9 ms (eps) and
    1.7, 4.1, 6.7, 6.0 and 7.7 ms (s1, s2) at the same N: the recurrence at
    the base of the doubling, which did not change, is most of an inverse.
    Over Fp and Z/n the one-step break-even lies between N = 40 and 48.
    Artinian rings gain below 48 as well, but no inverse of the ``prepare``
    and ``cli`` benchmark workloads reaches 48 (they stop at N = 40), so
    their cost does not move.  ``RationalRing`` opts out: its coefficients
    grow, and with |c| <= 30 Newton ran at 0.96-1.09x at N = 64-128,
    0.70-0.78x at 256, 0.43-0.59x at 384 and 0.34x at 512 (two runs).
    """

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

    def format_element(self, value) -> str:
        return str(value)


class _ResidueRing(Ring):
    """Fp and Z/n: payloads are residues in [0, m), for m = ``item_top`` +
    1, and forms are over scale 1.  For m <= 128 (``_BYTE_TOP``) the items
    of a form are one ``bytes`` object, one residue per byte, and each form
    operation is a few C-level string operations: a sum adds the two
    strings read as ints and reduces every byte by one ``translate``, a
    difference first negates b by one, negation and scaling are one each,
    windows are slices, the zero tests strip zero bytes, and ``convolve``
    multiplies the strings by Kronecker substitution (``_byte_product``).
    For larger m the items are a tuple of ints, and a sum, negation or
    scaling reduces each item as it forms it, in one pass.  The element
    inverse and the series inverse have one body each for both item
    types.  Each subclass keeps its own ``payload_add`` and
    ``payload_mul``, which the benchmark tracer counts per class."""

    def payload_from_int(self, k):
        return k % (self.item_top + 1)

    def payload_neg(self, a):
        return -a % (self.item_top + 1)

    def payload_sub(self, a, b):
        return (a - b) % (self.item_top + 1)

    def integer_form(self, payloads):
        if self.item_top <= _BYTE_TOP:
            return bytes(payloads), 1
        return tuple(payloads), 1

    def canonical_form(self, ints, scale):
        m = self.item_top + 1
        if self.item_top > _BYTE_TOP:
            return tuple(_residues(ints, scale, m)), 1
        if scale == 1 and type(ints) is bytes:
            return ints.translate(_times_table(m, 1)), 1
        return bytes(_residues(ints, scale, m)), 1

    def form_window(self, items, scale, start, stop):
        if self.item_top > _BYTE_TOP:
            return super().form_window(items, scale, start, stop)
        n = len(items)
        out = bytes(-start) + items[:stop] if start < 0 else items[start:stop]
        if stop > n:
            out += bytes(stop - max(n, start))
        return out, 1

    def form_sum(self, a, s, b, r, subtract=False):
        m = self.item_top + 1
        if self.item_top <= _BYTE_TOP:
            return _byte_sum(a, b.translate(_times_table(m, m - 1)) if subtract else b, m), 1
        if subtract:
            return tuple([(x - y) % m for x, y in zip(a, b)]), 1
        return tuple([(x + y) % m for x, y in zip(a, b)]), 1

    def form_neg(self, items, scale):
        m = self.item_top + 1
        if self.item_top <= _BYTE_TOP:
            return items.translate(_times_table(m, m - 1)), 1
        return tuple([-x % m for x in items]), 1

    def form_scale(self, items, scale, c):
        m = self.item_top + 1
        if self.item_top <= _BYTE_TOP:
            return items.translate(_times_table(m, c)), 1
        return tuple([x * c % m for x in items]), 1

    def form_is_zero(self, items):
        if self.item_top <= _BYTE_TOP:
            return not items.rstrip(b"\0")
        return super().form_is_zero(items)

    def form_leading_zeros(self, items):
        if self.item_top <= _BYTE_TOP:
            return len(items) - len(items.lstrip(b"\0"))
        return super().form_leading_zeros(items)

    def form_trimmed_len(self, items):
        if self.item_top <= _BYTE_TOP:
            return len(items.rstrip(b"\0"))
        return super().form_trimmed_len(items)

    def convolve(self, a, b, n):
        if self.item_top <= _BYTE_TOP:
            return _byte_product(a, b, n, self.item_top + 1)
        return super().convolve(a, b, n)

    def invert_series(self, ints, scale):
        """The recurrence of ``Ring.invert_series`` with each coefficient
        reduced mod m as it is formed, for bytes and int tuples alike: over
        scale 1 the common denominator stays 1, so no coefficient needs
        ``canonical_form``."""
        m = self.item_top + 1
        tail, out = ints[1:], [pow(ints[0], -1, m)]
        f = m - out[0]  # -1/A_0 mod m
        for _ in range(1, len(ints)):
            out.append(sum(map(mul, tail, reversed(out))) * f % m)
        return self.integer_form(out)

    def invert(self, a):
        try:
            return self.element(pow(a.value, -1, self.item_top + 1))
        except ValueError:
            raise NotAUnit(f"{a.value} is not a unit mod {self.item_top + 1}") from None


class _Field(Ring):
    """Fp and Q: every nonzero element is a unit, and the maximal ideal is
    zero, so the ring is its own residue field."""

    is_field = True

    def is_unit(self, a):
        return a.value != 0

    @property
    def is_local(self):
        return True

    def nilpotency_exponent(self):
        return 1

    def residue_field(self):
        return self

    def residue(self, a):
        return a

    def form_reduced_order(self, items, scale):
        """The index of the first coefficient with a nonzero residue, or
        the number of coefficients when there is none: over a field, the
        first nonzero coefficient.  Each other family has its own (Z/p^e,
        Artinian rings), and colimit models refuse (``PayloadRing``)."""
        return self.form_leading_zeros(items)


class PrimeFieldRing(_ResidueRing, _Field):
    def __init__(self, p: int):
        check_modulus(p, "prime")
        if not is_prime(p):
            raise InvalidDescriptor(f"{p} is not prime")
        self.p = p
        self.item_top = p - 1

    def __eq__(self, other):
        return isinstance(other, PrimeFieldRing) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"Fp({self.p})"

    def payload_add(self, a, b):
        return (a + b) % self.p

    def payload_mul(self, a, b):
        return (a * b) % self.p

    def elements(self):
        return [self.element(k) for k in range(self.p)]


class RationalRing(_Field):
    NEWTON_INVERT_MIN = math.inf  # coefficient growth: see Ring.NEWTON_INVERT_MIN

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

    def integer_form(self, payloads):
        """The numerators over the lcm of the denominators, which is
        canonical."""
        scale = math.lcm(*[x.denominator for x in payloads])
        return tuple([x.numerator * (scale // x.denominator) for x in payloads]), scale

    def from_integer_form(self, ints, scale):
        return [Fraction(c, scale) for c in ints]

    def canonical_form(self, ints, scale):
        """Content divided out: gcd(scale, *ints) = 1 and scale > 0, so
        scale is the lcm of the reduced denominators."""
        g = math.gcd(scale, *ints) if scale > 0 else -math.gcd(scale, *ints)
        return (tuple(ints), scale) if g == 1 else (tuple([c // g for c in ints]), scale // g)

    def invert(self, a):
        if a.value == 0:
            raise NotAUnit("0 is not invertible")
        return self.element(1 / a.value)


class IntegersMod(_ResidueRing):
    """Z/n.  Arithmetic for every n >= 2; residue theory only for n = p^e."""

    def __init__(self, n: int):
        if n < 2:
            raise InvalidDescriptor("modulus must be >= 2")
        check_modulus(n, "modulus")
        self.n = n
        self.item_top = n - 1
        self._pe = prime_power(n)

    @classmethod
    def _of_prime_power(cls, p: int, e: int):
        """Unchecked constructor of Z/p^e for a prime p; p^e may exceed
        ``MAX_MODULUS``, since no trial division runs."""
        self = object.__new__(cls)
        self.n = p**e
        self.item_top = self.n - 1
        self._pe = (p, e)
        return self

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.n == self.n

    def __hash__(self):
        return hash(("Zmod", self.n))

    def __repr__(self):
        return f"Zmod({self.n})"

    def payload_add(self, a, b):
        return (a + b) % self.n

    def payload_mul(self, a, b):
        return (a * b) % self.n

    def is_unit(self, a):
        return math.gcd(a.value, self.n) == 1

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

    def form_reduced_order(self, items, scale):
        """The first residue prime to p, for n = p^e."""
        p = self.residue_field().p
        if self.item_top <= _BYTE_TOP:
            return self.form_leading_zeros(items.translate(_times_table(p, 1)))
        return next(compress(count(), [c % p for c in items]), len(items))


class PayloadRing(Ring):
    """A ring whose series form is its canonical payloads over scale 1, so
    ``integer_form``, ``from_integer_form`` and ``canonical_form`` pass them
    through, and the ring's own payload operations are its item arithmetic.
    Subclasses implement ``convolve`` on payloads.  These are the colimit
    models: they have no residue field and invert no element, so the
    reduced order and the series inverse refuse here, before any payload
    is read."""

    @property
    def item_ring(self):
        return self

    def canonical_form(self, items, scale):
        return tuple(items), scale

    def form_ints(self, items, scale):
        return ()

    def form_eq(self, a, b):
        """Equal as they are, or coefficient by coefficient once
        ``payload_eq`` has raised each pair to a common level."""
        return a == b or all(map(self.payload_eq, a, b))

    def form_reduced_order(self, items, scale):
        raise NonLocalRing("colimit models have no single residue field")

    def invert_series(self, items, scale):
        raise NonLocalRing("inversion is not part of the colimit model")


class ArtinianLocalRing(Ring):
    """base[s_1..s_m] / (all monomials of total degree >= e).

    Payloads are dicts mapping exponent tuples (total degree < e) to nonzero
    base payloads.  Multiplication convolves exponents and discards any
    monomial of total degree >= e, which is exactly m^e = 0.

    The series form is slice-major: its items are ``(n, slices)``, n the
    number of coefficients and ``slices`` one ``(deg, exps, ints)`` for
    each monomial exps, of total degree deg, that occurs, where ``ints``
    holds the n base ints of its coefficients over the form's one scale:
    residues over scale 1 for an Fp base, and over a Q base ints with one
    content, that of all the slices, divided out.  All-zero slices are
    dropped and the rest sorted by (deg, exps), so equal series have equal
    forms.  Sums, negations, scaling and windows are one pass over each
    slice, and a product one ``_int_product`` per slice pair; payload dicts
    are built only where a payload is read, and for the payload recurrence
    of ``invert_series``.
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

    # -- series forms: slices by monomial (see the class docstring) ---------
    def integer_form(self, payloads):
        """The slices of the payloads: their coefficients gathered by
        monomial, then over Q the base's integer form of all slices at
        once."""
        n = len(payloads)
        slices = {}
        for i, a in enumerate(payloads):
            for x, c in a.items():
                s = slices.get(x)
                if s is None:
                    s = slices[x] = [0] * n
                s[i] = c
        keys = sorted(slices, key=lambda x: (sum(x), x))
        if self.base.item_top is not None:  # residues are their own ints
            return (n, tuple([(sum(x), x, tuple(slices[x])) for x in keys])), 1
        ints, scale = self.base.integer_form([c for x in keys for c in slices[x]])
        return (n, tuple([(sum(x), x, tuple(ints[k * n : (k + 1) * n])) for k, x in enumerate(keys)])), scale

    def from_integer_form(self, items, scale):
        """The payload dicts of a canonical series form."""
        n, slices = items
        out = [{} for _ in range(n)]
        base = self.base
        for _, x, s in slices:
            for i, c in zip(compress(count(), s), base.from_integer_form(list(compress(s, s)), scale)):
                out[i][x] = c
        return out

    def canonical_form(self, items, scale):
        """The canonical form of ``(n, slices)``, for slices of n base ints
        each over ``scale``, in any order and possibly zero."""
        n, slices = items
        base = self.base
        if base.item_top is None:  # one content for all the slices
            flat, scale = base.canonical_form([c for _, _, s in slices for c in s], scale)
            out = [(d, x, tuple(flat[k * n : (k + 1) * n])) for k, (d, x, _) in enumerate(slices)]
        else:
            m = base.item_top + 1
            out = [(d, x, tuple(_residues(s, scale, m))) for d, x, s in slices]
            scale = 1
        out = [slice_ for slice_ in out if any(slice_[2])]
        out.sort()
        return (n, tuple(out)), scale

    def form_len(self, items):
        return items[0]

    def form_window(self, items, scale, start, stop):
        n, slices = items
        if start == 0 and stop == n:
            return items, scale
        if start < 0:
            head = (0,) * -start
            out = [(d, x, head + s[:stop]) for d, x, s in slices]
        else:
            out = [(d, x, s[start:stop]) for d, x, s in slices]
        if stop > n:
            tail = (0,) * (stop - max(n, start))
            out = [(d, x, s + tail) for d, x, s in out]
        if start > 0 or stop < n:
            if scale != 1:
                return self.canonical_form((stop - start, out), scale)
            out = [slice_ for slice_ in out if any(slice_[2])]
        return (stop - start, tuple(out)), scale

    def form_sum(self, a, s, b, r, subtract=False):
        (n, slices_a), (m, slices_b) = a, b
        k = min(n, m)
        fa = fb = 1
        if s != r:
            g = math.gcd(s, r)
            fa, fb = r // g, s // g
        op, zeros = (sub if subtract else add), (0,) * k
        slots = {x: (d, x, c[:k] if fa == 1 else [v * fa for v in c[:k]]) for d, x, c in slices_a}
        for d, x, c in slices_b:
            c = c[:k] if fb == 1 else [v * fb for v in c[:k]]
            acc = slots.get(x)
            slots[x] = (d, x, list(map(op, zeros if acc is None else acc[2], c)))
        return self.canonical_form((k, slots.values()), s * fa)

    def form_neg(self, items, scale):
        n, slices = items
        return self.canonical_form((n, [(d, x, list(map(neg, c))) for d, x, c in slices]), scale)

    def form_scale(self, items, scale, c):
        """c times each coefficient: each slice times each slice of c's own
        form (of one int), slice pair by slice pair as in ``convolve``."""
        (_, slices_c), cs = self.integer_form([c])
        slots = self._slice_products(items[1], slices_c, lambda a, b: [v * b[0] for v in a])
        return self.canonical_form((items[0], slots), scale * cs)

    def form_is_zero(self, items):
        return not items[1]

    def form_leading_zeros(self, items):
        n, slices = items
        return min([next(compress(count(), s)) for _, _, s in slices], default=n)

    def form_reduced_order(self, items, scale):
        """The first nonzero int of the constant monomial's slice, which
        sorts first when it occurs."""
        n, slices = items
        if slices and not slices[0][0]:
            return next(compress(count(), slices[0][2]))
        return n

    def form_trimmed_len(self, items):
        top = 0
        for _, _, s in items[1]:  # no slice is all zero
            k = len(s)
            while not s[k - 1]:
                k -= 1
            top = max(top, k)
        return top

    def form_ints(self, items, scale):
        return self.base.form_ints([c for _, _, s in items[1] for c in s], scale)

    def convolve(self, a, b, n):
        """``Ring.convolve`` slice pair by slice pair, each pair of total
        degree below e one ``_int_product``.  This pays off when monomials
        recur across t-degrees; when every slice holds one term, the O(n)
        work per slice pair makes it slower than multiplying term by term."""
        top = self.base.item_top
        slots = self._slice_products(
            a[1], b[1], lambda x, y: _int_product(x[:n], y[:n], n, top))
        return n, slots

    def _slice_products(self, slices_a, slices_b, product):
        """The slices ``(deg, exps, ints)`` of the sum, over every pair of
        a slice of a and one of b of total degree below e, of
        product(ints_a, ints_b) at the product monomial.  Slices come by
        ascending degree, so the first pair reaching e ends the row."""
        e = self.e
        slots = {}
        for db, xb, cb in slices_b:
            for da, xa, ca in slices_a:
                if da + db >= e:
                    break
                x = tuple(map(add, xa, xb))
                c = product(ca, cb)
                acc = slots.get(x)
                slots[x] = (da + db, x, c if acc is None else list(map(add, acc[2], c)))
        return slots.values()

    def invert_series(self, items, scale):
        """``Ring.invert_series`` by the payload recurrence on the payload
        dicts of the form: one ``payload_mul`` and one ``payload_add`` per
        term, after ``invert`` of the constant term."""
        payloads = self.from_integer_form(items, scale)
        inv0 = self.invert(RingElement(self, payloads[0])).value
        out = [inv0]
        padd, pmul = self.payload_add, self.payload_mul
        neg_inv0 = self.payload_neg(inv0)
        for k in range(1, len(payloads)):
            acc = None
            for i in range(1, k + 1):
                term = pmul(payloads[i], out[k - i])
                acc = term if acc is None else padd(acc, term)
            out.append(pmul(neg_inv0, acc))
        return self.integer_form(out)

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
