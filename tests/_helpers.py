"""Shared test machinery: ring zoo, random elements and series, and
independent oracles.

The oracles deliberately avoid the production algorithms they check:
products come from a schoolbook loop written here, factorizations are
re-derived from a linear system in w = u^{-1} (plus the
characteristic-polynomial route at small degree), fiber dimensions from
brute-force ranks over a prime field, and fixed-point coefficients from the
Catalan recurrence.
"""

from __future__ import annotations

from fractions import Fraction

from arclift import (
    ArtinianLocalRing,
    IntegersMod,
    MonicPoly,
    PrimeFieldRing,
    RationalRing,
    TruncatedSeries,
    reduced_order,
)
from arclift.newton import CorrectionPlan


def schoolbook_product(a, b, ring):
    """Exact product of two ring-element lists, kept apart from arclift's kernel."""
    if not a or not b:
        return []
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if ai and bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def solver_map(h, dh):
    """``fixed_point_solve``'s hd from h and a separate Jacobian map dh,
    which gets v mod t^k."""

    def hd(v, k):
        return h(v), (dh(tuple(x.truncate(k) for x in v)) if k else None)

    return hd


def correction_hd(polys):
    """``fixed_point_solve``'s hd for h_i(v) = sum_a polys[i][a] * v^a, the
    polys given as {exponent: series} dicts: ``CorrectionPlan`` bound to the
    coefficients, as ``ArcPoint.correction`` binds the arc's."""
    return CorrectionPlan(len(polys), polys).bind([tuple(p.values()) for p in polys])


def random_element(ring, rng):
    """A seeded random element: uniform over Fp and Z/n, a small fraction
    over Q, and over an Artinian ring each monomial present with chance 0.6
    and a random base coefficient; NotImplementedError for any other ring.
    Golden digests depend on this exact draw order."""
    if isinstance(ring, PrimeFieldRing):
        return ring.element(rng.randrange(ring.p))
    if isinstance(ring, IntegersMod):
        return ring.element(rng.randrange(ring.n))
    if isinstance(ring, RationalRing):
        return ring.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if isinstance(ring, ArtinianLocalRing):
        out = {}
        for exps in ring.monomials():
            if rng.random() < 0.6:
                c = random_element(ring.base, rng)
                if c:
                    out[exps] = c.value
        return ring.element(out)
    raise NotImplementedError(f"no sampler for {ring}")


def random_unit(ring, rng):
    """The first unit among up to 1000 ``random_element`` draws."""
    for _ in range(1000):
        a = random_element(ring, rng)
        if ring.is_unit(a):
            return a
    raise RuntimeError("failed to sample a unit")


def random_nilpotent(ring, rng):
    """A random element of the maximal ideal of a local ring."""
    if isinstance(ring, ArtinianLocalRing):  # drop the constant term
        out = dict(random_element(ring, rng).value)
        out.pop((0,) * ring.m, None)
        return ring.element(out)
    if ring.nilpotency_exponent() == 1:  # NonLocalRing for a Z/n that is not local
        return ring.zero  # the maximal ideal is zero
    p = ring.residue_field().p  # Z/p^e
    return ring.element(p * rng.randrange(ring.n // p))


def acceptance_rings():
    """The six coefficient rings the acceptance criteria quantify over."""
    f5 = PrimeFieldRing(5)
    f2 = PrimeFieldRing(2)
    return [
        f5,
        RationalRing(),
        IntegersMod(9),
        IntegersMod(27),
        ArtinianLocalRing(f5, ["eps"], 2),
        ArtinianLocalRing(f2, ["s1", "s2"], 3),
    ]


def random_nondegenerate(ring, rng, dmax=4, extra=4):
    """A random series of prescribed reduced order d <= dmax at N = d(e+1)+extra."""
    e = ring.nilpotency_exponent()
    d = rng.randrange(dmax + 1)
    n = d * (e + 1) + extra
    coeffs = [random_nilpotent(ring, rng) for _ in range(d)]
    coeffs.append(random_unit(ring, rng))
    coeffs.extend(random_element(ring, rng) for _ in range(n - d - 1))
    return TruncatedSeries(ring, coeffs, n), d


def strict_by_linear_system(x):
    """Independent (q, u) from the truncated linear system on w = u^{-1}.

    The conditions (w*x)_k = [k == d] for d <= k < N are linear in the N-d
    unknown coefficients of w; modulo the maximal ideal the matrix is
    triangular with the unit x_d on the diagonal, so forward substitution
    plus nilpotent refinement solves it in at most e passes.  Then q is the
    low part of w*x and u comes from the descending monic recurrence.
    """
    ring = x.ring
    e = ring.nilpotency_exponent()
    d = reduced_order(x)
    big_n = x.precision
    n = big_n - d
    xs = list(x.coeffs)
    xd_inv = ring.invert(xs[d])
    zero = ring.zero

    def entry(r, i):
        j = d + r - i
        return xs[j] if 0 <= j < big_n else zero

    w = [zero] * n
    rhs = [ring.one] + [zero] * (n - 1)
    residual = rhs
    for _ in range(e + 1):
        if all(not c for c in residual):
            break
        delta = [zero] * n
        for r in range(n):
            acc = residual[r]
            for i in range(r):
                if delta[i]:
                    acc = acc - entry(r, i) * delta[i]
            delta[r] = xd_inv * acc
        w = [w[i] + delta[i] for i in range(n)]
        residual = []
        for r in range(n):
            acc = zero
            for i in range(r + 1, min(n, r + d + 1)):
                if delta[i]:
                    acc = acc - entry(r, i) * delta[i]
            residual.append(acc)
    else:
        raise AssertionError("w-system refinement did not converge")
    wx = schoolbook_product(w, xs, ring)
    assert wx[d] == ring.one and all(not wx[k] for k in range(d + 1, big_n)), (
        "w does not normalize x to a monic low part"
    )
    q = MonicPoly(ring, wx[:d])
    u = [zero] * n
    for j in range(n - 1, -1, -1):
        acc = xs[j + d]
        for i in range(d):
            k = j + d - i
            if k < n and u[k]:
                acc = acc - q.low[i] * u[k]
        u[j] = acc
    return q, TruncatedSeries(ring, u, n)


def reconstruct_factorization(fact):
    """u * q as an exact polynomial product, at the factorization precision.

    u is stored as the full degree < N-d polynomial, so the product pins all
    N coefficients (the series product u * q.as_series(N) would stop at
    u's precision N-d).
    """
    ring = fact.u.ring
    prod = schoolbook_product(list(fact.u.coeffs), list(fact.q.coeffs), ring)
    return TruncatedSeries(ring, prod, fact.precision)


def solve_linear(ring, rows, rhs):
    """One solution of A z = b over a ring, by unit-pivot elimination.

    Returns a vector (free variables set to zero) or None when the system
    is inconsistent at some step.  Over a field this is ordinary Gaussian
    elimination; over a local ring pivots must be units, which suffices for
    the presentations used in the tests.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    where = [-1] * ncols
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, m):
            if a[r][col] and ring.is_unit(a[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = ring.invert(a[row][col])
        a[row] = [inv * v for v in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                factor = a[r][col]
                a[r] = [a[r][j] - factor * a[row][j] for j in range(ncols + 1)]
        where[col] = row
        row += 1
    for r in range(m):
        if all(not a[r][j] for j in range(ncols)) and a[r][ncols]:
            return None
    out = [ring.zero] * ncols
    for col in range(ncols):
        if where[col] >= 0:
            out[col] = a[where[col]][ncols]
    return out


def charpoly_of_t(x, certificate_n):
    """The monic q from the module presentation of R[[t]] mod (x).

    At level n = certificate_n the quotient module is R^n modulo the columns
    x, x*t, ..., x*t^{n-1}; expressing the class of t^d in the classes of
    1..t^{d-1} solves a small linear system whose last d unknowns are the
    negated low coefficients of the characteristic polynomial of t.
    """
    ring = x.ring
    d = reduced_order(x)
    n = certificate_n
    if n <= d:
        return MonicPoly.t_power(ring, d)
    xs = list(x.coeffs)
    zero = ring.zero
    cols = []
    for i in range(n):
        col = [zero] * n
        for j, c in enumerate(xs):
            if i + j < n:
                col[i + j] = c
        cols.append(col)
    for j in range(d):
        basis = [zero] * n
        basis[j] = ring.one
        cols.append(basis)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(n)]
    target = [zero] * n
    target[d] = ring.one
    solution = solve_linear(ring, rows, target)
    assert solution is not None, "t^d must be expressible in the module presentation"
    for r in range(n):
        acc = zero
        for c, z in enumerate(solution):
            if z:
                acc = acc + rows[r][c] * z
        assert acc == target[r], "elimination returned a non-solution"
    lam = solution[n:]
    return MonicPoly(ring, [-c for c in lam])


def gf_matrix_rank(rows, p):
    """Rank of an integer matrix over F_p."""
    a = [[v % p for v in row] for row in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, m):
            if a[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(inv * v) % p for v in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [(a[r][j] - f * a[row][j]) % p for j in range(ncols)]
        rank += 1
        row += 1
    return rank


def brute_force_fiber_dimension(q, precision):
    """dim { (a, v) : q*v + a = 0 mod t^N } minus the truncation ghosts.

    Columns of the truncated linear map are t^i (the a-part) and q*t^j mod
    t^N (the v-part, j < N); the v-only kernel consists of pure truncation
    artifacts (valuation >= N - e) that extend to no series solution, so it
    is subtracted.
    """
    ring = q.ring
    p = ring.p
    d = q.degree
    n = precision
    qc = list(q.payloads)
    cols = []
    for i in range(d):
        col = [0] * n
        col[i] = 1
        cols.append(col)
    qcols = []
    for j in range(n):
        col = [0] * n
        for k, c in enumerate(qc):
            if j + k < n:
                col[j + k] = c
        qcols.append(col)
    total = [[(cols + qcols)[c][r] for c in range(d + n)] for r in range(n)]
    vonly = [[qcols[c][r] for c in range(n)] for r in range(n)]
    kernel_total = d + n - gf_matrix_rank(total, p)
    ghosts = n - gf_matrix_rank(vonly, p)
    return kernel_total - ghosts


def catalan_numbers(count):
    """c_0 = 1, c_{k+1} = sum c_i c_{k-i}: the independent recurrence."""
    cs = [1]
    for k in range(count - 1):
        cs.append(sum(cs[i] * cs[k - i] for i in range(k + 1)))
    return cs
