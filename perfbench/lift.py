"""The ``lift`` workload: seeded ``arc_lift`` calls on two families of arcs.

* The cusp y^2 = x^3 at x = t^2, y = t^3 + p(t) with p random of order >= 4,
  over Fp(5) at N in {64, 128} and over Q at N in {32, 64}.
* The space curve y^2 = x^3, z^2 = x^5 at x = t^2, y = t^3 + p(t),
  z = t^5 + r(t) with p and r random of order >= 9 (order 8 breaks the
  congruence), over Q, Fp(5) and Artin(Fp(5); eps; 2) at N in {64, 96}.

The Fp(5) cusp perturbations run at both N; those pairs are the size ladder
behind ``n_exponent``.  Every perturbation coefficient is nonzero (over Q an
integer in [-3, 3]), because the cost of a lift over Q or Artin varies
several-fold with how many coefficients are zero; with dense perturbations
an item's cost depends on its class, not on the seed.

An item builds the ArcPoint from the generated component series and lifts
it, so each item pays the Jacobian set-up that ``ArcPoint`` does.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from arclift import newton, series, textforms

import oracle
from inputs import RingSampler, cycle_rng
from workload import Item, Workload

CUSP = "vars: [x1, y1]; split: 1; eqs: [y1^2 - x1^3]"
SPACE = "vars: [x1, y1, z1]; split: 1; eqs: [y1^2 - x1^3, z1^2 - x1^5]"

# Each curve: its equations and Jacobian determinant as {exponents: int},
# the leading exponent of every coordinate, and the lowest perturbed order.
CURVES = {
    "cusp": dict(
        text=CUSP,
        eqs=[{(0, 2): 1, (3, 0): -1}],
        det={(0, 1): 2},
        lead=(2, 3),
        min_order=4,
    ),
    "space": dict(
        text=SPACE,
        eqs=[{(0, 2, 0): 1, (3, 0, 0): -1}, {(0, 0, 2): 1, (5, 0, 0): -1}],
        det={(0, 1, 1): 4},
        lead=(2, 3, 5),
        min_order=9,
    ),
}

# (curve, ring, N values, perturbations per cycle, ladder).  Every
# perturbation of an entry runs at each of its N.  Sorted by latency, a
# cycle's 37 items fall into blocks by class; the counts put p50 in the
# middle of the five space/Fp(5)/N=96 items and p90 in the middle of the
# four cusp/Q/N=64 items, away from a border between classes, so the
# percentiles do not jump between runs.
CLASSES = [
    ("cusp", "Fp(5)", (64, 128), 6, True),
    ("cusp", "Q", (32,), 5, False),
    ("cusp", "Q", (64,), 4, False),
    ("space", "Fp(5)", (64, 96), 5, False),
    ("space", "Artin(Fp(5); eps; 2)", (64, 96), 1, False),
    ("space", "Q", (64, 96), 1, False),
    ("space", "Q", (64,), 2, False),
]


def lift_item(pm, components):
    return newton.arc_lift(newton.ArcPoint(pm, components))


class LiftWorkload(Workload):
    name = "lift"

    def __init__(self):
        self.maps = {k: textforms.parse_poly_map(c["text"]) for k, c in CURVES.items()}
        self.samplers = {}
        for _, desc, *_ in CLASSES:
            if desc not in self.samplers:
                self.samplers[desc] = RingSampler(desc, int_range=3)

    def cycle(self, seed, index):
        rng = cycle_rng(self.name, seed, index)
        items = []
        for curve, desc, sizes, count, ladder in CLASSES:
            spec = CURVES[curve]
            sampler = self.samplers[desc]
            ring = sampler.ring
            for _ in range(count):
                comps = []
                for i, lead in enumerate(spec["lead"]):
                    coeffs = [ring.zero] * max(sizes)
                    coeffs[lead] = ring.one
                    if i > 0:  # the passive x stays t^2
                        for k in range(spec["min_order"], len(coeffs)):
                            coeffs[k] = coeffs[k] + sampler.element(rng, dense=True)
                    comps.append(coeffs)
                for rung, n in enumerate(sizes):
                    arc = tuple(series.TruncatedSeries(ring, c[:n], n) for c in comps)
                    head = min(n, 24)  # ord(det) <= 8 on both curves
                    det = oracle.evaluate(spec["det"], [c[:head] for c in comps], head, ring)
                    rho = next(i for i, c in enumerate(det) if ring.is_unit(c))
                    items.append(
                        Item(
                            label=f"{curve}/{desc}/N={n}",
                            fn=lift_item,
                            args=(self.maps[curve], arc),
                            data=dict(spec=spec, ring=ring, comps=[c[:n] for c in comps],
                                      n=n, rho=rho),
                            rung=rung if ladder else None,
                        )
                    )
        return items

    def check_item(self, item, result):
        d = item.data
        ring, n, rho, spec = d["ring"], d["n"], d["rho"], d["spec"]
        out_prec = result.precision
        if ring.is_field and out_prec != n - 2 * rho - 1:
            return False
        if not 1 <= out_prec <= n - 2 * rho - 1:
            return False
        new = [list(c.coeffs[:out_prec]) for c in result.arc.components]
        if any(len(c) < out_prec for c in new):
            return False
        # the passive x is untouched; the moving block moves by t*det*v0,
        # so it agrees with the input arc below order rho + 1
        if new[0] != d["comps"][0][:out_prec]:
            return False
        keep = min(rho + 1, out_prec)
        if any(a[:keep] != b[:keep] for a, b in zip(new[1:], d["comps"][1:])):
            return False
        for eq in spec["eqs"]:
            if any(oracle.evaluate(eq, new, out_prec, ring)):
                return False
        return True

    def corrupt(self, item, result):
        comps = list(result.arc.components)
        y = comps[1]
        k = item.data["rho"] + 1
        coeffs = list(y.coeffs)
        coeffs[k] = coeffs[k] + y.ring.one
        comps[1] = series.TruncatedSeries(y.ring, coeffs, y.precision)
        return dataclasses.replace(result, arc=SimpleNamespace(components=tuple(comps)))
