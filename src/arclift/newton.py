"""Newton-style lifting of approximate arcs on complete intersections.

Equations f = (f_1..f_n) on A^m come with a coordinate split: the first
m-n coordinates are passive, the last n are the ones Newton corrections
move (corrections never touch the passive block).  Each map is expanded
once, over its own int/Fraction coefficients, into a Taylor table: f(x + v)
by degree in the corrections v.  Its degree-1 entries are the Jacobian block
B, whose adjugate satisfies B * adj = adj * B = det * Id; its entries of
degree >= 2 are the remainder H.

The pipeline works with truncated series throughout and never divides
blindly: each arc evaluates the table's degree-k entries with the weight
(t*det)^(k-2) explicitly, which makes the key congruence a statement about
exact divisibility by t*det^2 checked through Laurent division with a
strict-factorization certificate.

The correction v0 solves v + t*h(v) = v1 for the adjugate remainder h.
``fixed_point_solve`` does this by Newton iteration, whose Jacobian
Id + t*Dh is the identity mod t: each round doubles the certified
precision, works only at that precision and takes Dh from the partials of
h's polynomials at half of it, so a lift to t^N evaluates h and Dh
O(log N) times each.  Every round checks that its residual vanishes to the
precision already certified, and the result is certified against v1 by
one last evaluation at full precision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
from .polynomials import MultiPoly
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
    with MultiPoly coefficients in x, whose v^{e_j} entries are ``matrix[i]``."""

    matrix: tuple
    adjugate: tuple
    det: MultiPoly
    taylor: tuple


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
    return JacobianData(matrix=matrix, adjugate=adj, det=det, taylor=taylor)


def evaluate_along(poly: MultiPoly, values, n) -> TruncatedSeries:
    """A polynomial with int/Fraction coefficients at a vector of series,
    mod t^n: the only place where map coefficients become constant series."""
    ring = values[0].ring
    return poly.evaluate_or(
        values,
        TruncatedSeries.constant(ring.zero, n),
        embed=lambda c: TruncatedSeries.constant(ring.from_fraction(c), n),
    )


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

    @property
    def precision(self):
        return min(c.precision for c in self.components)

    def truncated(self, n):
        return ArcPoint(self.map, tuple(c.truncate(min(n, c.precision)) for c in self.components))

    def _eval(self, poly: MultiPoly) -> TruncatedSeries:
        return evaluate_along(poly, self.components, self.precision)

    @cached_property
    def values(self):
        """f(x), one series per equation."""
        return tuple(self._eval(p) for p in self.map.polys)

    @cached_property
    def adjugate_at(self):
        return tuple(tuple(self._eval(p) for p in row) for row in self.jacobian.adjugate)

    @cached_property
    def jacobian_at(self):
        return tuple(tuple(self._eval(p) for p in row) for row in self.jacobian.matrix)

    @cached_property
    def det_at(self) -> TruncatedSeries:
        return self._eval(self.jacobian.det)

    def __repr__(self):
        return f"ArcPoint({', '.join(map(repr, self.components))})"


def _apply_matrix(mat, vec):
    n = len(mat)
    out = []
    for i in range(n):
        acc = mat[i][0] * vec[0]
        for j in range(1, n):
            acc = acc + mat[i][j] * vec[j]
        out.append(acc)
    return tuple(out)


def taylor_remainder(arc: ArcPoint):
    """Collected quadratic-and-higher Taylor data H as polynomials in the
    correction variables, with series coefficients.

    Writing f(x + v) = f(x) + B(x; v) + sum_{k>=2} B_k(x; v) by homogeneous
    degree in v, the returned H satisfies

        f(x + t*det*v) = f(x) + t*det*B(x; v) + (t*det)^2 * H(x; v)

    identically: each coefficient of B_k, read from the map's Taylor table
    and evaluated along the arc, is weighted by (t*det)^{k-2}, so no series
    division ever happens.
    """
    prec = arc.precision
    tdet = arc.det_at.shift(1).truncate(prec)
    weights = [None, tdet]  # weights[k] = (t*det)^k for k >= 1
    out = []
    for table in arc.jacobian.taylor:
        h = {}
        for a, coeff in table.terms.items():
            k = sum(a) - 2
            if k < 0:
                continue
            while len(weights) <= k:
                weights.append(weights[-1] * tdet)
            h[a] = arc._eval(coeff) if k == 0 else arc._eval(coeff) * weights[k]
        out.append(MultiPoly(arc.map.n, h))
    return out


def adjugate_remainder(arc: ArcPoint):
    """adj(x) applied to the Taylor remainder: the self-map h of the solver."""
    h = taylor_remainder(arc)
    n = arc.map.n
    adj = arc.adjugate_at
    out = []
    for i in range(n):
        acc = MultiPoly(n, {})
        for j in range(n):
            if not h[j].is_zero():
                acc = acc + h[j].map_coefficients(lambda s: s * adj[i][j])
        out.append(acc)
    return out


def _eval_correction(polys, v):
    """Evaluate v-polynomials (series coefficients) at a series vector."""
    ring = v[0].ring
    prec = min(x.precision for x in v)
    zero = TruncatedSeries.constant(ring.zero, prec)
    return tuple(p.evaluate_or(v, zero).truncate(prec) for p in polys)


def _correction_jacobian(polys):
    """The map v -> Dh(v) for h = ``_eval_correction(polys, .)``: a term
    c*v^a of h_i gives a_j*c*v^(a - e_j) to dh_i/dv_j."""
    n = len(polys)

    def partial(p, j):
        lower = {a[:j] + (a[j] - 1,) + a[j + 1:]: (a[j], c) for a, c in p.terms.items() if a[j]}
        return MultiPoly(n, {a: c.scale(k) if k > 1 else c for a, (k, c) in lower.items()})

    rows = [[partial(p, j) for j in range(n)] for p in polys]
    return lambda v: tuple(_eval_correction(row, v) for row in rows)


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


def _solve_near_identity(mat, rhs):
    """Solve mat * x = rhs for a series matrix with mat == Id mod t.

    Plain elimination: every pivot stays 1 mod t, so it is a unit.
    """
    n = len(rhs)
    a = [list(row) for row in mat]
    b = list(rhs)
    inv = []
    for k in range(n):
        inv.append(a[k][k].invert())
        for i in range(k + 1, n):
            f = a[i][k] * inv[k]
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - f * a[k][j]
            b[i] = b[i] - f * b[k]
    x = [None] * n
    for k in reversed(range(n)):
        acc = b[k]
        for j in range(k + 1, n):
            acc = acc - a[k][j] * x[j]
        x[k] = acc * inv[k]
    return x


def fixed_point_solve(h, dh, v1, precision: int):
    """The unique v0 with v0 + t*h(v0) = v1 mod t^precision, by Newton
    iteration on F(v) = v + t*h(v) - v1 with precision doubling.

    h must be a t-adic power-series map (h(v) mod t^k depends on v mod t^k
    only) and dh(v)[i][j] its partial dh_i/dv_j.  Both are called on series
    truncated to a working precision and must return n components (dh: n
    rows of n), each known that far.

    Each round lifts v from certified mod t^p to certified mod t^q,
    q = min(2p, precision):

    * the residual r = v1 - v - t*h(v) at precision q must vanish mod t^p
      (checked);
    * Dh mod t^(q-p-1) depends only on v mod t^(q-p-1), so one call of dh
      there gives Id + t*Dh mod t^(q-p);
    * (Id + t*Dh) e = r / t^p mod t^(q-p), and v <- v + t^p e.

    So h is called ceil(log2 precision) + 1 times and dh at most
    ceil(log2 precision) - 1 times, below the precision of h in its round.
    A wrong dh leaves v right only mod t^(p+1), which a later check catches.
    The last call evaluates h at the result at full precision and certifies
    v0 + t*h(v0) = v1 mod t^precision coefficient by coefficient.
    """
    v1 = tuple(v1)
    n = len(v1)
    if not n:
        raise ArityMismatch("the fixed-point system needs at least one component")
    if min(x.precision for x in v1) < precision:
        raise InsufficientPrecision("v1 is not known to the requested precision")

    def h_at(v, k):
        """h(v mod t^k) truncated to precision k; ``truncate`` raises
        InsufficientPrecision if h returned fewer orders."""
        out = tuple(h(tuple(x.truncate(k) for x in v)))
        if len(out) != n:
            raise ArityMismatch(f"h returned {len(out)} components for {n} equations")
        return tuple(x.truncate(k) for x in out)

    def dh_at(v, k):
        """dh(v mod t^k), checked as ``h_at`` checks h."""
        rows = tuple(map(tuple, dh(tuple(x.truncate(k) for x in v))))
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ArityMismatch(f"dh must return {n} rows of {n} entries")
        return tuple(tuple(x.truncate(k) for x in row) for row in rows)

    one = TruncatedSeries.from_ints(v1[0].ring, [1], precision)
    v = tuple(x.truncate(1) for x in v1)  # F(v) = v - v1 mod t
    p = 1
    while p < precision:
        q = min(2 * p, precision)
        v = tuple(x.pad(q) for x in v)
        hv = h_at(v, q - 1)
        rho = []
        for i in range(n):
            r = v1[i].truncate(q) - v[i] - hv[i].shift(1)
            if not r.truncate(p).is_zero():
                raise RuntimeError(
                    "Newton residual certificate failed: h is not a t-adic "
                    "power-series map, dh is not its Jacobian, or this is a bug"
                )
            rho.append(r.drop(p))
        if q - p == 1:
            eps = rho  # Id + t*Dh = Id mod t
        else:
            # mat = Id + t*Dh(v) mod t^(q-p): a sum keeps the lower precision
            mat = [
                [x.shift(1) + one if i == j else x.shift(1) for j, x in enumerate(row)]
                for i, row in enumerate(dh_at(v, q - p - 1))
            ]
            eps = _solve_near_identity(mat, rho)
        v = tuple(v[i] + eps[i].shift(p) for i in range(n))
        p = q
    hv = h_at(v, precision)
    for i in range(n):
        if not (v[i] + hv[i].shift(1).truncate(precision)).agrees(v1[i], precision):
            raise RuntimeError(
                "Newton certificate failed: v0 + t*h(v0) != v1; h is not a t-adic "
                "power-series map, or this is a bug"
            )
    return v


def congruence_forward(arc: ArcPoint, v0):
    """Push a solved correction to its congruence correction:
    v1 = v0 + t * adj(x; H(x; v0))."""
    polys = adjugate_remainder(arc)
    hv = _eval_correction(polys, tuple(v0))
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
    moving block only.  The residual f(x_new) is checked to vanish at the
    certified precision N'; over the supported rings a failure would be an
    internal bug (ResidualNonzero), not a legitimate outcome.
    """
    if working_precision is not None:
        arc = arc.truncated(working_precision)
    v1 = check_congruence(arc)
    out_prec = min(x.precision for x in v1)
    polys = adjugate_remainder(arc)

    def h(v):
        return _eval_correction(polys, v)

    v0 = fixed_point_solve(h, _correction_jacobian(polys), v1, out_prec)
    det_series = arc.det_at
    pm = arc.map
    new_components = list(arc.components)
    for j in range(pm.n):
        step = (det_series * v0[j]).shift(1)
        new_components[pm.split + j] = (arc.components[pm.split + j] + step).truncate(
            min(out_prec + 1, arc.precision)
        )
    lifted = ArcPoint(pm, new_components)
    for value in lifted.values:
        if not value.truncate(out_prec).is_zero():
            raise ResidualNonzero(
                f"f(lifted arc) != 0 mod t^{out_prec}; the coefficient ring must "
                "have elements vanishing to infinite order, or this is a bug"
            )
    return LiftResult(v1=v1, v0=v0, arc=lifted, precision=out_prec)
