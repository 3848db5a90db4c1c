"""Newton-style lifting of approximate arcs on complete intersections.

Equations f = (f_1..f_n) on A^m come with a coordinate split: the first
m-n coordinates are passive, the last n are the ones Newton corrections
move (corrections never touch the passive block).  Each map is expanded
once, over its own int/Fraction coefficients, into a Taylor table: f(x + v)
by degree in the corrections v.  Its degree-1 entries are the Jacobian block
B, whose adjugate satisfies B * adj = adj * B = det * Id; its entries of
degree >= 2 are the remainder H.

The pipeline works with truncated series throughout and never divides
blindly: each arc evaluates the degree-k coefficients of the adjugate
remainder adj * H with the weight (t*det)^(k-2) explicitly, which makes the
key congruence a statement about exact divisibility by t*det^2 checked
through Laurent division with a strict-factorization certificate.

Evaluation runs on one plan per map, built with the Jacobian data
(``polynomials.EvaluationPlan``): the polynomials in x that an arc reads
(f, the adjugate, det and the coefficients of adj * H) share one monomial
table per arc, each monomial one product, and a coefficient other than +-1
costs one O(N) ``scale``.  Each of them is evaluated when first read.  The
Jacobian block and the Taylor table stay symbolic: they build the others,
and the plan holds no program for them.

The correction v0 solves v + t*h(v) = v1 for the adjugate remainder h.
``fixed_point_solve`` does this by Newton iteration, whose Jacobian
Id + t*Dh is the identity mod t: each round takes the certified precision
from p to 2p + 1 and works only at that precision.  h is
``ArcPoint.correction``, the map's ``CorrectionPlan`` bound to the arc's
coefficients of adj * H; it forms each term c*v^a as (c*v^(a-e_j))*v_j and returns Dh at half the
precision from those cofactors, truncated, so a quadratic h costs Dh no
series product; a lift to t^N evaluates h and Dh O(log N) times.
Identically zero entries of adj and Dh are skipped.  Every round checks
that its residual vanishes to the precision already certified, and the
result is certified against v1 by one last evaluation at full precision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, prod

from .errors import (
    ArityMismatch,
    CongruenceFailed,
    DegenerateJacobian,
    InsufficientPrecision,
    InvalidDescriptor,
    MixedRings,
    NonLocalRing,
    PrecisionExhausted,
    ResidualNonzero,
)
from .polynomials import EvaluationPlan, Monomials, MonomialTable, MultiPoly
from .series import TruncatedSeries, laurent_divider, reduced_order


class PolyMap:
    """A polynomial map A^m -> A^n with integer or rational coefficients."""

    __slots__ = ("var_names", "split", "polys", "_jacobian")

    def __init__(self, var_names, split: int, polys):
        var_names = tuple(var_names)
        polys = tuple(polys)
        if not polys:
            raise InvalidDescriptor("a polynomial map needs at least one equation")
        if len(set(var_names)) != len(var_names):
            raise InvalidDescriptor("variable names must be distinct")
        if split != len(var_names) - len(polys) or split < 0:
            raise InvalidDescriptor(
                f"split {split} inconsistent with {len(var_names)} variables, "
                f"{len(polys)} equations"
            )
        for p in polys:
            if p.nvars != len(var_names):
                raise ArityMismatch("equation arity does not match the variable list")
        self.var_names = var_names
        self.split = split
        self.polys = polys
        self._jacobian = None

    @property
    def jacobian(self) -> "JacobianData":
        """``jacobian_data(self)``, computed on first use and kept; a
        degenerate map raises on every access."""
        if self._jacobian is None:
            self._jacobian = jacobian_data(self)
        return self._jacobian

    @property
    def m(self):
        return len(self.var_names)

    @property
    def n(self):
        return len(self.polys)

    def __repr__(self):
        from .textforms import format_poly_map

        return format_poly_map(self)


@dataclass(frozen=True)
class JacobianData:
    """Jacobian block in the moving coordinates, its adjugate, and det;
    ``taylor[i]`` is f_i(x + v) for v on the moving block, a MultiPoly in v
    with MultiPoly coefficients in x, whose v^{e_j} entries are ``matrix[i]``;
    ``remainder[i]`` is sum_j adjugate[i][j] * H_j, H_j the terms of degree
    >= 2 of ``taylor[j]``, in the same form.

    ``plan`` evaluates f, the adjugate, det and the coefficients of
    ``remainder`` along an arc (``matrix`` and ``taylor`` stay symbolic),
    ``passive`` lists its monomial slots in the passive variables alone,
    and ``correction`` is the solver's program for ``remainder`` in v; all
    three follow from the other fields."""

    matrix: tuple
    adjugate: tuple
    det: MultiPoly
    taylor: tuple
    remainder: tuple
    plan: EvaluationPlan = field(compare=False, repr=False)
    passive: tuple = field(compare=False, repr=False)
    correction: "CorrectionPlan" = field(compare=False, repr=False)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j]) for j in range(n))
        for i in range(n)
    )


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = None
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _taylor_table(f: MultiPoly, split: int) -> MultiPoly:
    """f(x + v) with v added to the moving block x[split:], by binomials:
    each term c*x^b and each a <= b[split:] add c*prod C(b_i, a_i)*x^(b-a)
    to the coefficient of v^a.  For fixed a, b -> b - a is injective, so no
    two terms land on the same monomial."""
    table = {}
    for b, c in f.terms.items():
        moving = b[split:]
        for a in itertools.product(*(range(k + 1) for k in moving)):
            rest = b[:split] + tuple(k - i for k, i in zip(moving, a))
            table.setdefault(a, {})[rest] = c * prod(map(comb, moving, a))
    return MultiPoly(f.nvars - split, {a: MultiPoly(f.nvars, t) for a, t in table.items()})


def jacobian_data(pm: PolyMap) -> JacobianData:
    n, m = pm.n, pm.m
    one = MultiPoly.constant(m, 1)
    zero = MultiPoly(m, {})
    taylor = tuple(_taylor_table(f, pm.split) for f in pm.polys)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    matrix = tuple(tuple(table.terms.get(e, zero) for e in unit) for table in taylor)
    if n == 1:
        adj = ((one,),)
    else:
        cof = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [
                    [matrix[r][c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
                cof[i][j] = _det(minor) if (i + j) % 2 == 0 else -_det(minor)
        adj = tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))  # transpose
    det = _det(matrix)
    if det.is_zero():
        raise DegenerateJacobian("Jacobian determinant is identically zero")
    det_id = tuple(tuple(det if i == j else zero for j in range(n)) for i in range(n))
    if _mat_mul(matrix, adj) != det_id or _mat_mul(adj, matrix) != det_id:
        raise RuntimeError("Cramer identity failed symbolically; this is a bug")
    remainder = []
    for row in adj:
        terms = {}
        for a_ij, table in zip(row, taylor):
            if a_ij:  # an identically zero adjugate entry adds nothing
                for a, coeff in table.terms.items():
                    if sum(a) >= 2:
                        terms[a] = terms[a] + a_ij * coeff if a in terms else a_ij * coeff
        remainder.append(MultiPoly(n, terms))
    plan = EvaluationPlan(m, [
        *pm.polys, *itertools.chain(*adj), det, *(c for r in remainder for c in r.terms.values()),
    ])
    return JacobianData(
        matrix=matrix, adjugate=adj, det=det, taylor=taylor, remainder=tuple(remainder),
        plan=plan, passive=plan.monomials.within(pm.split),
        correction=CorrectionPlan(n, [r.terms for r in remainder]),
    )


def _evaluate(plan: EvaluationPlan, poly: MultiPoly, table: MonomialTable, ring, n):
    """``plan.evaluate`` with int/Fraction coefficients as series mod t^n:
    the only place where map coefficients enter the coefficient ring."""
    return plan.evaluate(
        poly,
        table,
        TruncatedSeries.constant(ring.zero, n),
        lambda c: TruncatedSeries.constant(ring.from_fraction(c), n),
        lambda x, c: x.scale(ring.from_fraction(c)),
    )


def _cut(values, n):
    """The series cut to at most n known orders, so a term that is a bare
    monomial keeps no order its constant-coefficient product would not."""
    return [x.truncate(min(n, x.precision)) for x in values]


def evaluate_along(poly: MultiPoly, values, n) -> TruncatedSeries:
    """A polynomial with int/Fraction coefficients at a vector of series,
    mod t^n, by a one-polynomial ``EvaluationPlan``."""
    plan = EvaluationPlan(len(values), [poly])
    return _evaluate(plan, poly, MonomialTable(plan.monomials, _cut(values, n)), values[0].ring, n)


class ArcPoint:
    """An m-tuple of series with the equation data evaluated along it."""

    def __init__(self, pm: PolyMap, components):
        components = tuple(components)
        if len(components) != pm.m:
            raise ArityMismatch(f"expected {pm.m} components, got {len(components)}")
        ring = components[0].ring
        for c in components[1:]:
            if c.ring != ring:
                raise MixedRings("arc components must share one ring")
        self.map = pm
        self.components = components
        self.ring = ring
        self.jacobian = pm.jacobian
        self._evaluated = {}

    @property
    def precision(self):
        return min(c.precision for c in self.components)

    def truncated(self, n):
        return ArcPoint(self.map, tuple(c.truncate(min(n, c.precision)) for c in self.components))

    def moved(self, steps) -> "ArcPoint":
        """The arc with steps[j] added to moving coordinate j, each sum cut
        to the lowest precision n of the steps and the arc.  The passive
        block does not move, so the new arc's monomial table starts from
        this arc's values of the passive-only monomials, cut to n, and
        does not recompute them."""
        split = self.map.split
        n = min(self.precision, *(x.precision for x in steps))
        components = list(self.components)
        for j, step in enumerate(steps, split):
            components[j] = (components[j] + step).truncate(n)
        out = ArcPoint(self.map, components)
        values = self._monomials.values
        out._monomials = MonomialTable(
            self.jacobian.plan.monomials,
            _cut(out.components, out.precision),
            [(s, values[s].truncate(n)) for s in self.jacobian.passive if values[s] is not None],
        )
        return out

    @cached_property
    def _monomials(self) -> MonomialTable:
        """The map plan's monomials along the arc, each filled when first read."""
        return MonomialTable(self.jacobian.plan.monomials, _cut(self.components, self.precision))

    def _eval(self, poly: MultiPoly) -> TruncatedSeries:
        """A polynomial of the map's plan along the arc, at its precision;
        equal polynomials are evaluated once."""
        out = self._evaluated.get(poly)
        if out is None:
            out = self._evaluated[poly] = _evaluate(
                self.jacobian.plan, poly, self._monomials, self.ring, self.precision
            )
        return out

    @cached_property
    def _weights(self):
        return [None, self.det_at.shift(1).truncate(self.precision)]

    def _weight(self, k) -> TruncatedSeries:
        """(t*det)^k along the arc, for k >= 1."""
        weights = self._weights
        while len(weights) <= k:
            weights.append(weights[-1] * weights[1])
        return weights[k]

    @cached_property
    def values(self):
        """f(x), one series per equation."""
        return tuple(map(self._eval, self.map.polys))

    @cached_property
    def adjugate_at(self):
        return tuple(tuple(map(self._eval, row)) for row in self.jacobian.adjugate)

    @cached_property
    def det_at(self) -> TruncatedSeries:
        return self._eval(self.jacobian.det)

    @cached_property
    def remainder_at(self):
        """The coefficients of the adjugate remainder h along the arc, per
        equation in the order of ``jacobian.remainder[i].terms``: the v^a
        coefficient weighted by (t*det)^(|a|-2)."""
        return tuple(
            tuple(
                self._eval(c) if sum(a) == 2 else self._eval(c) * self._weight(sum(a) - 2)
                for a, c in r.terms.items()
            )
            for r in self.jacobian.remainder
        )

    @cached_property
    def correction(self):
        """The solver map hd(v, k) = (h(v), Dh(v mod t^k)) of the adjugate
        remainder h along the arc: the map's ``CorrectionPlan`` bound to
        ``remainder_at``."""
        return self.jacobian.correction.bind(self.remainder_at)

    def __repr__(self):
        return f"ArcPoint({', '.join(map(repr, self.components))})"


def _apply_matrix(mat, vec):
    """mat * vec for series of one precision, skipping zero entries."""
    out = []
    for row in mat:
        terms = [a * x for a, x in zip(row, vec) if a]
        out.append(sum(terms[1:], terms[0]) if terms else row[0] * vec[0])
    return tuple(out)


class CorrectionPlan:
    """The solver's map h_i(v) = sum_a c_{i,a} v^a, for series coefficients
    c, with its Jacobian, as one straight-line program in v.

    Each term is formed as (c * v^(a-e_j)) * v_j, through j of highest
    exponent and the ``Monomials`` shared by all terms; that cofactor,
    truncated and times a_j, is the term's part of dh_i/dv_j, so those
    partials cost no series product.  A term's partials in its other
    variables cost one product each, at the precision of Dh.
    """

    __slots__ = ("n", "monomials", "terms")

    def __init__(self, n, supports):
        self.n = n
        self.monomials = Monomials(n)
        # per equation, per term: ((j, slot of a - e_j or None, a_j), ...) over
        # the variables of a, the variable the term is formed through first
        self.terms = tuple(tuple(self._parts(a) for a in support) for support in supports)

    def _parts(self, a):
        parts = [
            (j, self.monomials.slot(a[:j] + (k - 1,) + a[j + 1:]) if sum(a) > 1 else None, k)
            for j, k in enumerate(a)
            if k
        ]
        return tuple(sorted(parts, key=lambda part: -part[2]))

    def bind(self, coeffs):
        """hd(v, k) = (h(v), Dh(v mod t^k)) for the coefficients coeffs[i]
        of equation i, one series per term in the order of the plan's
        supports and each known at least as far as v.  h(v) is known as far
        as v; k = 0 asks for h alone, with None for Dh."""
        n, monomials = self.n, self.monomials
        rows = [tuple(zip(cs, parts)) for cs, parts in zip(coeffs, self.terms)]

        def add(row, j, x, mult):
            x = x if mult == 1 else x.scale(mult)
            row[j] = x if row[j] is None else row[j] + x

        def hd(v, k):
            kh = min(x.precision for x in v)
            v = tuple(x.truncate(kh) for x in v)
            ring = v[0].ring
            table = MonomialTable(monomials, v)
            dh = [[None] * n for _ in range(n)] if k else None
            hv = []
            for i, row in enumerate(rows):
                acc = None
                for c, parts in row:
                    if not parts:  # the constant term
                        term = c.truncate(kh)
                    else:
                        (j, s, mult), *rest = parts
                        cofactor = c if s is None else c * table[s]
                        term = cofactor * v[j]
                        if k:
                            add(dh[i], j, cofactor.truncate(k), mult)
                            for j, s, mult in rest:  # c is longer: the product keeps k
                                add(dh[i], j, c * table[s].truncate(k), mult)
                    acc = term if acc is None else acc + term
                hv.append(TruncatedSeries.zero(ring, kh) if acc is None else acc)
            if k:
                zero = None  # one series for every identically zero entry
                for row in dh:
                    for j, x in enumerate(row):
                        if x is None:
                            if zero is None:
                                zero = TruncatedSeries.zero(ring, k)
                            row[j] = zero
            return hv, dh

        return hd


def check_congruence(arc: ArcPoint):
    """Divide the adjugate defect adj(x; f(x)) by t*det(x)^2.

    Returns the congruence correction v1 (sign convention:
    adj(x; f(x)) + t*det^2*v1 = 0) when every component is a power series,
    and raises CongruenceFailed with the first offending component's
    Laurent expansion otherwise.
    """
    ring = arc.ring
    if not ring.is_local:
        raise NonLocalRing("the congruence test needs a local coefficient ring")
    e = ring.nilpotency_exponent()
    det_series = arc.det_at
    rho = reduced_order(det_series)
    big_n = arc.precision
    # the divisor t*det^2 has order 2*rho + 1 and is known mod t^{N+1}; its
    # strict preparation and a nonempty certified quotient window need:
    d_div = 2 * rho + 1
    need = max(d_div * (e + 1) - 1, d_div * e + 1)
    if big_n < need:
        raise PrecisionExhausted(
            f"congruence at det order {rho} over m^{e}=0 needs N >= {need}, got {big_n}"
        )
    divide = laurent_divider((det_series * det_series).shift(1))
    defect = _apply_matrix(arc.adjugate_at, arc.values)
    parts = []
    for i, a in enumerate(defect):
        quotient = divide(a)
        ps = quotient.power_series_part()
        if ps is None:
            raise CongruenceFailed(i, quotient.normalize())
        parts.append(-ps)
    prec = min(p.precision for p in parts)
    return tuple(p.truncate(prec) for p in parts)


def _solve_near_identity(mat, rhs, inv):
    """Solve mat * x = rhs for a series matrix with mat == Id mod t.

    Plain elimination: every pivot stays 1 mod t, so it is a unit.  Zero
    entries are skipped and may be known to fewer orders than the others,
    which all share one precision; one that fills in becomes a negated
    product at that precision.
    ``inv[k]`` is None or the inverse of a series that agrees with pivot k
    to at least half its precision; it is replaced by the inverse of pivot
    k, from ``invert`` or from one ``refine_inverse`` step.
    """
    n = len(rhs)
    a = [list(row) for row in mat]
    b = list(rhs)
    for k in range(n):
        pivot = a[k][k]
        inv[k] = pivot.invert() if inv[k] is None else pivot.refine_inverse(inv[k])
        for i in range(k + 1, n):
            if not a[i][k]:  # nothing to eliminate
                continue
            f = a[i][k] * inv[k]
            for j in range(k + 1, n):
                if a[k][j]:
                    g = f * a[k][j]
                    a[i][j] = a[i][j] - g if a[i][j] else -g
            b[i] = b[i] - f * b[k]
    x = [None] * n
    for k in reversed(range(n)):
        acc = b[k]
        for j in range(k + 1, n):
            if a[k][j]:
                acc = acc - a[k][j] * x[j]
        x[k] = acc * inv[k]
    return x


def fixed_point_solve(hd, v1, precision: int):
    """The unique v0 with v0 + t*h(v0) = v1 mod t^precision, by Newton
    iteration on F(v) = v + t*h(v) - v1 with precision doubling.

    h must be a t-adic power-series map (h(v) mod t^k depends on v mod t^k
    only).  ``hd(v, k)`` returns h(v), n components known as far as v, and
    for k > 0 the partials dh_i/dv_j at v mod t^k, n rows of n known mod
    t^k; k = 0 asks for h alone, and the second item is ignored.  The
    solver calls it on series truncated to a working precision.

    Each round lifts v from certified mod t^p to certified mod t^q,
    q = min(2p + 1, precision).  The t in front of h is what buys the
    extra order: for a correction t^p*e, F(v + t^p*e) - F(v) is
    t^p*(Id + t*Dh(v))*e plus t times terms in (t^p*e)^2, so the error of
    the linear step is O(t^(2p+1)), and it needs Dh(v) only mod t^p,
    which depends only on the certified v mod t^p.  A round:

    * calls hd once at v mod t^(q-1) with k = q-p-1 (at most p), giving
      h(v) and Dh mod t^(q-p-1), so Id + t*Dh is known mod t^(q-p);
    * checks that the residual r = v1 - v - t*h(v) at precision q
      vanishes mod t^p;
    * solves (Id + t*Dh) e = r / t^p mod t^(q-p) and sets v <- v + t^p e.

    From p = 1 the rounds reach 3, 7, ..., 2^r - 1, so hd is called
    ceil(log2(precision + 1)) times: ceil(log2(precision + 1)) - 1 rounds,
    then the certificate.  Every round but a last one from p to p + 1 asks
    for Dh, below the precision of h in its call.  A wrong Dh leaves v
    right only mod t^(p+1), which a later check catches.  The last call
    evaluates h at the result at full precision and certifies
    v0 + t*h(v0) = v1 mod t^precision coefficient by coefficient.

    Only the first round that has Dh inverts its pivots; later rounds
    carry each pivot's inverse over and refine it by one Newton step of
    two products (``TruncatedSeries.refine_inverse``).  That is exact: a
    round from p to q = 2p + 1 reads Dh mod t^p at v mod t^p, so its
    matrix Id + t*Dh is known mod t^(p+1), and it ends by moving v by
    t^p*e.  The next round reads Dh to more orders, but the first p of
    them depend only on v mod t^p, which did not move.  So the two
    matrices, and with them the pivots of the elimination, agree mod
    t^(p+1), while the next matrix is known mod at most t^(2p+2): each
    kept inverse is right mod t^h with 2h >= N for the N it is refined
    to, as ``refine_inverse`` needs.  If Dh is not the Jacobian of h and
    changes below t^(p+1) between rounds, the refined inverse is wrong,
    and so is the update; that is a wrong Dh as above, and a residual
    check or the final certificate raises.
    """
    v1 = tuple(v1)
    n = len(v1)
    if not n:
        raise ArityMismatch("the fixed-point system needs at least one component")
    if min(x.precision for x in v1) < precision:
        raise InsufficientPrecision("v1 is not known to the requested precision")

    def hd_at(v, kh, k):
        """hd(v mod t^kh, k), with h truncated to precision kh and Dh to k;
        ``truncate`` raises InsufficientPrecision where hd returned fewer
        orders."""
        hv, dh = hd(tuple(x.truncate(kh) for x in v), k)
        hv = tuple(hv)
        if len(hv) != n:
            raise ArityMismatch(f"h returned {len(hv)} components for {n} equations")
        hv = tuple(x.truncate(kh) for x in hv)
        if not k:
            return hv, None
        rows = tuple(map(tuple, dh))
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ArityMismatch(f"dh must return {n} rows of {n} entries")
        return hv, tuple(tuple(x.truncate(k) for x in row) for row in rows)

    ring = v1[0].ring
    one = TruncatedSeries.constant(ring.one, precision)
    inverses = [None] * n  # the pivot inverses of the last solve, carried
    v = tuple(x.truncate(1) for x in v1)  # F(v) = v - v1 mod t
    p = 1
    while p < precision:
        q = min(2 * p + 1, precision)
        v = tuple(x.pad(q) for x in v)
        hv, dh = hd_at(v, q - 1, q - p - 1)
        rho = []
        for i in range(n):
            r = v1[i] - v[i] - hv[i].shift(1)  # at precision q, the least
            if not r.truncate(p).is_zero():
                raise RuntimeError(
                    "Newton residual certificate failed: h is not a t-adic "
                    "power-series map, dh is not its Jacobian, or this is a bug"
                )
            rho.append(r.drop(p))
        if dh is None:
            eps = rho  # q - p == 1: Id + t*Dh = Id mod t
        else:
            # mat = Id + t*Dh(v) mod t^(q-p): a sum keeps the lower
            # precision; zero entries off the diagonal stay as they are
            mat = [
                [x.shift(1) + one if i == j else x.shift(1) if x else x for j, x in enumerate(row)]
                for i, row in enumerate(dh)
            ]
            eps = _solve_near_identity(mat, rho, inverses)
        v = tuple(v[i] + eps[i].shift(p) for i in range(n))
        p = q
    hv, _ = hd_at(v, precision, 0)
    for i in range(n):
        if not (v[i] + hv[i].shift(1)).agrees(v1[i], precision):
            raise RuntimeError(
                "Newton certificate failed: v0 + t*h(v0) != v1; h is not a t-adic "
                "power-series map, or this is a bug"
            )
    return v


def congruence_forward(arc: ArcPoint, v0):
    """Push a solved correction to its congruence correction:
    v1 = v0 + t * adj(x; H(x; v0))."""
    hv, _ = arc.correction(tuple(v0), 0)
    prec = min(min(x.precision for x in v0), min(x.precision for x in hv) + 1)
    return tuple(
        v0[i].truncate(prec) + hv[i].shift(1).truncate(prec) for i in range(len(hv))
    )


@dataclass(frozen=True)
class LiftResult:
    v1: tuple
    v0: tuple
    arc: ArcPoint
    precision: int


def arc_lift(arc: ArcPoint, working_precision=None) -> LiftResult:
    """Lift an approximate arc to an exact solution mod t^N'.

    Pipeline: the congruence correction v1, the fixed point v0 of
    v + t*adj(H(v)), then the update x_new = x + t*det(x)*v0 applied to the
    moving block only (``ArcPoint.moved``, which keeps the input's values
    of the passive-only monomials).  The residual f(x_new) is checked to
    vanish at the certified precision N'; over the supported rings a
    failure would be an internal bug (ResidualNonzero), not a legitimate
    outcome.
    """
    if working_precision is not None:
        arc = arc.truncated(working_precision)
    v1 = check_congruence(arc)
    out_prec = min(x.precision for x in v1)
    v0 = fixed_point_solve(arc.correction, v1, out_prec)
    det_series = arc.det_at
    lifted = arc.moved([(det_series * x).shift(1) for x in v0])
    for value in lifted.values:
        if not value.truncate(out_prec).is_zero():
            raise ResidualNonzero(
                f"f(lifted arc) != 0 mod t^{out_prec}; the coefficient ring must "
                "have elements vanishing to infinite order, or this is a bug"
            )
    return LiftResult(v1=v1, v0=v0, arc=lifted, precision=out_prec)
