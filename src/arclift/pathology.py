"""Executable models of the pathological coordinate rings.

Two filtered-colimit rings are modeled, both presented at finite levels as
polynomials in (q0, x_n) over a base field, with the transition x_n ->
-q0 * x_{n+1}:

* the *arc kernel* ring (functions on the pairs (q, x) with q*x = 0 and
  q monic of degree one): level n imposes q0^{n+1} * x_n = 0, and every
  product of two x-generators dies in the colimit;
* the *sawed plane* ring (functions on the plane with the vertical axis
  removed and the origin restored): no level relation, but the model also
  normalizes x-products to zero, which is harmless for every computation
  done here (all of them are linear in the x-generators) and keeps
  canonical forms finite.

Elements are stored at the level where they were created and raised
lazily; equality raises both operands to a common level and compares
canonical forms, which is faithful because the transition maps are
injective.  The x-generators are nonzero at every level, yet they vanish
at every point of the spectrum to arbitrarily high order: inverting q0
kills them through the level relation, and at q0 = 0 they sit inside
every power of the maximal ideal.  These are the witnesses that multiply
degenerately (q * x = 0 with both factors nonzero) and thereby break the
axis-decomposition bijection for arcs on the coordinate cross x*y = 0.
Colimit payloads have no integer form, so a series over a colimit ring
keeps its payloads as its series form (``rings.PayloadRing``), and
``ColimitRing.convolve`` is the package's only payload-level t-polynomial
product loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDescriptor, MixedFamilies, NonLocalRing
from .polynomials import MultiPoly
from .rings import IntegersMod, PayloadRing, RationalRing, RingElement, check_modulus, is_prime
from .series import TruncatedSeries
from .weierstrass import MonicPoly, divide_by_monic


def _q0_poly(field, coeff_map):
    return MultiPoly(1, {(k,): field.from_int(c) if isinstance(c, int) else c for k, c in coeff_map.items()})


class ColimitRing(PayloadRing):
    """Shared machinery for the two colimit families.

    Payloads are triples (level, const, xpart) with const and xpart
    polynomials in q0 over the base field; the triple denotes
    const(q0) + xpart(q0) * x_level.
    """

    def __init__(self, field, sawed: bool):
        if not field.is_field:
            raise InvalidDescriptor("colimit models need field coefficients")
        self.field = field
        self.sawed = sawed

    def __eq__(self, other):
        return (
            isinstance(other, ColimitRing)
            and other.field == self.field
            and other.sawed == self.sawed
        )

    def __hash__(self):
        return hash(("colimit", self.field, self.sawed))

    def __repr__(self):
        name = "SawedPlane" if self.sawed else "ArcKernel"
        return f"{name}({self.field})"

    # -- canonical forms ---------------------------------------------------
    def _canon(self, level, const, xpart):
        if not self.sawed:
            xpart = MultiPoly(1, {e: c for e, c in xpart.terms.items() if e[0] <= level})
        return (level, const, xpart)

    def _raise(self, payload, level):
        lv, const, xp = payload
        if level < lv:
            raise ValueError("levels only go up")
        if level == lv or xp.is_zero():
            return self._canon(level, const, xp)
        k = level - lv
        step = MultiPoly(1, {(k,): -self.field.one if k % 2 else self.field.one})  # (-q0)^k
        return self._canon(level, const, xp * step)

    def _common(self, a, b):
        lv = max(a[0], b[0])
        return self._raise(a, lv), self._raise(b, lv), lv

    # -- payload arithmetic -------------------------------------------------
    def payload_from_int(self, k):
        return (0, MultiPoly.constant(1, self.field.from_int(k)), MultiPoly(1, {}))

    def payload_add(self, a, b):
        pa, pb, level = self._common(a, b)
        return self._canon(level, pa[1] + pb[1], pa[2] + pb[2])

    def payload_neg(self, a):
        lv, c, x = a
        return (lv, -c, -x)

    def payload_mul(self, a, b):
        pa, pb, level = self._common(a, b)
        (_, ca, xa), (_, cb, xb) = pa, pb
        # x-generator products normalize to zero (exact in the arc-kernel
        # colimit; imposed in the sawed model)
        return self._canon(level, ca * cb, ca * xb + cb * xa)

    def payload_is_zero(self, a):
        return a[1].is_zero() and a[2].is_zero()

    def convolve(self, a, b, n):
        """``Ring.convolve`` by adding payload products term by term.  Terms
        with a zero factor are skipped, never added: besides saving work,
        this keeps each coefficient at the presentation level of its nonzero
        terms, where a zero raised to a higher level would otherwise
        re-express it (x3 printing as q0^2*x5)."""
        padd, pmul, pzero = self.payload_add, self.payload_mul, self.payload_is_zero
        out = [self.payload_from_int(0)] * n
        b = [(j, bj) for j, bj in enumerate(b) if not pzero(bj)]
        for i, ai in enumerate(a[:n]):
            if pzero(ai):
                continue
            for j, bj in b:
                k = i + j
                if k >= n:
                    break
                out[k] = padd(out[k], pmul(ai, bj))
        return out

    def payload_eq(self, a, b):
        pa, pb, _ = self._common(a, b)
        return pa[1] == pb[1] and pa[2] == pb[2]

    def payload_hash(self, a):
        # raising the level rewrites the x-part but never the constant part
        return hash(a[1])

    @property
    def is_local(self):
        return False

    def residue_field(self):
        raise NonLocalRing("colimit models have no single residue field")

    def residue(self, a):
        raise NonLocalRing("colimit models have no single residue field")

    def is_unit(self, a):
        lv, c, x = a.value
        return x.is_zero() and len(c.terms) == 1 and (0,) in c.terms

    def invert(self, a):
        raise NonLocalRing("inversion is not part of the colimit model")

    # -- generators ---------------------------------------------------------
    def q0(self) -> RingElement:
        return self.element((0, _q0_poly(self.field, {1: 1}), MultiPoly(1, {})))

    def x(self, n) -> RingElement:
        if n < 0:
            raise InvalidDescriptor("generator index must be >= 0")
        return self.element((n, MultiPoly(1, {}), MultiPoly.constant(1, self.field.one)))

    def a0(self) -> RingElement:
        if not self.sawed:
            raise MixedFamilies("a0 exists only in the sawed-plane family")
        return self.element((0, MultiPoly(1, {}), _q0_poly(self.field, {1: -1})))

    # -- diagnostics ---------------------------------------------------------
    def reduced_polynomial(self, a: RingElement) -> MultiPoly:
        """Image in k[q0] after killing the (nilpotent) x-generators."""
        return a.value[1]

    def format_element(self, value):
        level, const, xp = value
        if const.is_zero() and xp.is_zero():
            return "0"
        combined = MultiPoly(
            2,
            {(e[0], 0): c for e, c in const.terms.items()}
            | {(e[0], 1): c for e, c in xp.terms.items()},
        )
        return combined.format(
            ("q0", f"x{level}"), coeff_str=lambda c: self.field.format_element(c.value)
        )


def arc_kernel_ring(field) -> ColimitRing:
    return ColimitRing(field, sawed=False)


def sawed_plane_ring(field) -> ColimitRing:
    return ColimitRing(field, sawed=True)


@dataclass(frozen=True)
class IdentityRow:
    statement: str
    level: int
    ok: bool


@dataclass(frozen=True)
class IdentityReport:
    family: str
    rows: tuple

    @property
    def all_ok(self):
        return all(r.ok for r in self.rows)


def _sample_units(field):
    if hasattr(field, "elements"):
        return [c for c in field.elements() if c][:4]
    return [field.from_int(k) for k in (1, 2, 3, -1)]


def check_identities(bound: int, field=None) -> IdentityReport:
    """Exercise the arc-kernel relations at desk scale.

    Checks, for indices up to ``bound``: all products of x-generators die,
    the descent x_m = (-1)^k q0^k x_{m+k} holds, each x_n is nonzero, and
    inverting q0 (sampling unit values c) forces x_n = 0 through the level
    relation c^{n+1} x_n = 0.
    """
    if not 0 <= bound <= 12:
        raise InvalidDescriptor("identity checks are desk-scale: 0 <= bound <= 12")
    if field is None:
        from .rings import PrimeFieldRing

        field = PrimeFieldRing(5)
    ring = arc_kernel_ring(field)
    q0 = ring.q0()
    rows = []
    for m in range(bound + 1):
        xm = ring.x(m)
        for n in range(m, bound + 1):
            prod = xm * ring.x(n)
            rows.append(IdentityRow(f"x{m}*x{n} = 0", max(m, n), not prod))
    for m in range(bound + 1):
        for k in (1, 2, 3):
            lhs = ring.x(m)
            rhs = (q0 ** k) * ring.x(m + k)
            if k % 2 == 1:
                rhs = -rhs
            rows.append(IdentityRow(f"x{m} = (-1)^{k}*q0^{k}*x{m + k}", m + k, lhs == rhs))
    for n in range(bound + 1):
        rows.append(IdentityRow(f"x{n} != 0", n, bool(ring.x(n))))
    for c in _sample_units(field):
        for n in (0, bound // 2, bound):
            # the level relation q0^{n+1} x_n = 0 with q0^{n+1} -> c^{n+1} a unit
            ok = not (q0 ** (n + 1) * ring.x(n)) and field.is_unit(c ** (n + 1))
            rows.append(
                IdentityRow(
                    f"q0 -> {field.format_element(c.value)} kills x{n}", n, ok
                )
            )
    return IdentityReport(family="arc-kernel", rows=tuple(rows))


@dataclass(frozen=True)
class GeneratorImage:
    name: str
    chain: str
    ideal_power: int
    verified: bool


@dataclass(frozen=True)
class SawedCompletion:
    order: int
    dimension: int
    basis: tuple
    generator_images: tuple

    @property
    def all_ok(self):
        return all(g.verified for g in self.generator_images)


def sawed_completion(n: int, field=None) -> SawedCompletion:
    """The completion of the sawed plane at the origin, to order n.

    Every generator other than q0 factors as (sign) * q0^p * x_j with
    p >= n through the transition relations, hence lies in the n-th power
    of the origin's ideal; the quotient is k[q0]/(q0^n), of dimension n.
    Each factorization is verified by exact colimit arithmetic.
    """
    if n < 1:
        raise InvalidDescriptor("completion order must be >= 1")
    if field is None:
        field = RationalRing()
    ring = sawed_plane_ring(field)
    q0 = ring.q0()
    images = []

    def descend(name, target, index_at):
        """name = (-1)^j q0^j x_{index_at(j)} for j = 1..n; verify at j = n."""
        parts = [name]
        for j in range(1, n + 1):
            sign = "-" if j % 2 == 1 else ""
            power = "q0" if j == 1 else f"q0^{j}"
            parts.append(f"{sign}{power}*x{index_at(j)}")
        rhs = (q0 ** n) * ring.x(index_at(n))
        if n % 2 == 1:
            rhs = -rhs
        return " = ".join(parts), target == rhs

    chain, ok = descend("a0", ring.a0(), lambda j: j - 1)
    images.append(GeneratorImage("a0", chain, n, ok))
    for i in range(n + 3):
        chain, ok = descend(f"x{i}", ring.x(i), lambda j, i=i: i + j)
        images.append(GeneratorImage(f"x{i}", chain, n, ok))
    basis = tuple(f"q0^{k}" if k > 1 else ("q0" if k == 1 else "1") for k in range(n))
    return SawedCompletion(order=n, dimension=n, basis=basis, generator_images=tuple(images))


@dataclass(frozen=True)
class IntegerCompletion:
    """Z[t]/(t - p) completed t-adically to level n: the ring Z/p^n, t -> p."""

    prime: int
    order: int
    modulus: int
    t_image: RingElement
    ring: IntegersMod
    verified: bool


def integer_completion(p: int, n: int) -> IntegerCompletion:
    """Level-n truncation of the t-completion of the integers with t acting
    as multiplication by p.

    Eliminating t from the ideal (t - p, t^n) leaves (p^n): the remainders
    of t^n and of t under division by t - p are p^n and p (computed, not
    assumed), so the quotient is Z/p^n with t mapping to p.
    """
    check_modulus(p, "prime")
    if not is_prime(p):
        raise InvalidDescriptor(f"{p} is not prime")
    if n < 1:
        raise InvalidDescriptor("completion order must be >= 1")
    rationals = RationalRing()
    t_minus_p = MonicPoly(rationals, [-p])

    def reduce_t_power(k):
        _, remainder = divide_by_monic(MonicPoly.t_power(rationals, k).form, t_minus_p)
        (value,) = remainder.payloads
        return int(value)

    modulus = reduce_t_power(n)
    ring = IntegersMod._of_prime_power(p, n)
    t_image = ring.from_int(reduce_t_power(1))
    checks = [
        ring.n == modulus,  # the remainder is the modulus of Z/p^n
        t_image ** n == ring.zero,  # t^n dies at level n
        t_image - ring.from_int(p) == ring.zero,  # t - p dies
        n == 1 or bool(t_image ** (n - 1)),  # and no earlier power does
    ]
    return IntegerCompletion(
        prime=p,
        order=n,
        modulus=modulus,
        t_image=t_image,
        ring=ring,
        verified=all(checks),
    )


@dataclass(frozen=True)
class CrossArcReport:
    """The arc on the coordinate cross supported on neither axis alone."""

    q: TruncatedSeries
    x: TruncatedSeries
    product: TruncatedSeries
    product_is_zero: bool
    x_nonzero: bool
    q_nondegenerate: bool
    rows: tuple

    @property
    def all_ok(self):
        return self.product_is_zero and self.x_nonzero and self.q_nondegenerate


def xy_arc_counterexample(precision: int, field=None) -> CrossArcReport:
    """Build q = q0 + t and x = x0 + x1 t + ... over the arc-kernel ring.

    Their product vanishes identically mod t^N (coefficient k is
    x_{k-1} + q0*x_k, zero by the defining relations), yet x is nonzero and
    q is non-degenerate: its t-coefficient is the constant 1, so every
    residue-field evaluation keeps q nonzero.  Multiplication by the
    non-degenerate q is therefore not injective here, which is exactly what
    rings whose elements vanish to infinite order make possible.
    """
    if precision < 1 or precision > 12:
        raise InvalidDescriptor("the counterexample is desk-scale: 1 <= N <= 12")
    if field is None:
        from .rings import PrimeFieldRing

        field = PrimeFieldRing(5)
    ring = arc_kernel_ring(field)
    q = TruncatedSeries(ring, [ring.q0(), ring.from_int(1)], precision)
    x = TruncatedSeries(ring, [ring.x(i) for i in range(precision)], precision)
    product = q * x
    rows = []
    for k in range(precision):
        label = "q0*x0" if k == 0 else f"x{k - 1} + q0*x{k}"
        rows.append(
            IdentityRow(f"coefficient t^{k} of q*x: {label} = 0", k, not product.coefficient(k))
        )
    rows.append(IdentityRow("x0 != 0 (x is a nonzero series)", 0, bool(x.coefficient(0))))
    constant_one = any(
        len(ring.reduced_polynomial(c).terms) == 1
        and (0,) in ring.reduced_polynomial(c).terms
        for c in q.coeffs
    )
    for c in _sample_units(field) + [field.zero]:
        images = [ring.reduced_polynomial(co).evaluate_or([c], field.zero) for co in q.coeffs]
        rows.append(
            IdentityRow(
                f"q at q0 = {field.format_element(c.value)} stays nonzero",
                0,
                any(bool(v) for v in images),
            )
        )
    return CrossArcReport(
        q=q,
        x=x,
        product=product,
        product_is_zero=product.is_zero(),
        x_nonzero=bool(x),
        q_nondegenerate=constant_one,
        rows=tuple(rows),
    )
