"""The ``prepare`` workload: the Weierstrass chain on a seeded population.

Each item takes a series x of reduced order d at N = d(e+1) + 4, in the
style of the acceptance suite's ``random_nondegenerate``.  A cycle holds one
series for every pair of the six acceptance rings and d = 0..4, so every
cycle has the same mix and only the coefficients vary with the seed.  An
item runs

1. ``strict_prepare(x)`` -> u, q, n;
2. ``divides_power_of_t(q, n)`` -> q';
3. ``weierstrass_divide(y, q)`` for a second seeded series y;
4. ``laurent_divide(y, x)``;
5. ``mod_q_reduce`` of the cusp arc (t^2, t^3 + r(t)) mod q, and
   ``map_mod_poly`` of the cusp map on the reduced vector.

Every population member also runs at 2N with the same leading coefficients;
those pairs are the size ladder behind ``n_exponent``.  Newton lifting is
never called here.
"""

from __future__ import annotations

import dataclasses
import itertools

from arclift import jets, series, textforms, weierstrass

import oracle
from inputs import RingSampler, cycle_rng
from workload import Item, Workload

RINGS = [
    "Fp(5)",
    "Q",
    "Zmod(9)",
    "Zmod(27)",
    "Artin(Fp(5); eps; 2)",
    "Artin(Fp(2); s1,s2; 3)",
]
CUSP = "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]"
EXTRA = 4


def prepare_chain(x, y, arc, cusp):
    fact = weierstrass.strict_prepare(x)
    qprime = weierstrass.divides_power_of_t(fact.q, fact.certificate_n)
    division = weierstrass.weierstrass_divide(y, fact.q)
    quotient = series.laurent_divide(y, x)
    xbar = jets.ModQVector(fact.q, [jets.mod_q_reduce(c, fact.q).value for c in arc])
    image = jets.map_mod_poly(cusp, fact.q, xbar)
    return fact, qprime, division, quotient, xbar, image


class PrepareWorkload(Workload):
    name = "prepare"
    trace_cycles = 8

    def __init__(self):
        self.cusp = textforms.parse_poly_map(CUSP)
        self.samplers = [RingSampler(desc) for desc in RINGS]

    def cycle(self, seed, index):
        rng = cycle_rng(self.name, seed, index)
        items = []
        for sampler, d in itertools.product(self.samplers, range(5)):
            ring = sampler.ring
            e = ring.nilpotency_exponent()
            n_small = d * (e + 1) + EXTRA
            big = 2 * n_small
            x = [sampler.nilpotent(rng) for _ in range(d)] + [sampler.unit(rng)]
            x += [sampler.element(rng) for _ in range(big - d - 1)]
            y = [sampler.element(rng) for _ in range(big)]
            arc_x = [ring.zero] * big
            arc_x[2] = ring.one
            arc_y = [ring.zero] * 3 + [ring.one] + [sampler.element(rng) for _ in range(big - 4)]
            for rung, n in enumerate((n_small, big)):
                def ts(c):
                    return series.TruncatedSeries(ring, c[:n], n)

                items.append(
                    Item(
                        label=f"{sampler.descriptor}/{'2N' if rung else 'N'}",
                        fn=prepare_chain,
                        args=(ts(x), ts(y), (ts(arc_x), ts(arc_y)), self.cusp),
                        data=dict(ring=ring, e=e, d=d, n=n, x=x[:n], y=y[:n],
                                  arc=(arc_x[:n], arc_y[:n])),
                        rung=rung,
                    )
                )
        return items

    def check_item(self, item, output):
        fact, qprime, division, quotient, xbar, image = output
        d = item.data
        ring, n, deg = d["ring"], d["n"], d["d"]
        zero, one = ring.zero, ring.one
        low = list(fact.q.low)
        q = low + [one]
        # x = u*q with u a unit and q strict of degree d, certified to N
        if fact.precision != n or len(low) != deg or fact.certificate_n != deg * d["e"]:
            return False
        if not ring.is_unit(fact.u.coeffs[0]) or any(ring.is_unit(c) for c in low):
            return False
        if oracle.mul_trunc(list(fact.u.coeffs), q, n, zero) != d["x"]:
            return False
        # q * q' = t^n exactly
        m = fact.certificate_n
        if oracle.mul_full(q, list(qprime.low) + [one], zero) != [zero] * m + [one]:
            return False
        # y = q*h + a on the certified window, with an exact remainder
        h, a = list(division.h.coeffs), list(division.a.coeffs)
        window = n - deg
        if division.h.precision != window or len(a) != deg or not division.exact:
            return False
        qh = oracle.mul_trunc(q, h, window, zero)
        if [qh[i] + (a[i] if i < deg else zero) for i in range(window)] != d["y"][:window]:
            return False
        # quotient * x = y wherever both factors are known
        body = list(quotient.body.coeffs)
        off = quotient.offset
        known = min(len(body), n, n - off)
        if known < 1:
            return False
        prod = oracle.mul_trunc(body, d["x"], known, zero)
        want = [d["y"][off + k] if off + k >= 0 else zero for k in range(known)]
        if prod != want:
            return False
        # reductions mod q, and the cusp map applied in R[t]/(q)
        rems = [oracle.rem_monic(c, low, zero)[1] for c in d["arc"]]
        if [list(c.coeffs) for c in xbar.components] != rems:
            return False
        xr, yr = rems
        f = oracle.mul_full(yr, yr, zero)
        x3 = oracle.mul_full(oracle.mul_full(xr, xr, zero), xr, zero)
        size = max(len(f), len(x3))
        f = [(f[i] if i < len(f) else zero) - (x3[i] if i < len(x3) else zero) for i in range(size)]
        return [list(c.coeffs) for c in image.components] == [oracle.rem_monic(f, low, zero)[1]]

    def corrupt(self, item, output):
        fact = output[0]
        u = list(fact.u.coeffs)
        u[0] = u[0] + fact.u.ring.one
        bad = dataclasses.replace(fact, u=series.TruncatedSeries(fact.u.ring, u, fact.u.precision))
        return (bad,) + tuple(output[1:])
