"""Span recorder and ring-operation counters for the traced run.

The tracer wraps arclift's layer entry points from outside: a module-level
function is rebound in every ``arclift`` module that holds it (so callers
that imported the name see the wrapper too), and methods are replaced on
their class.  Nothing under ``src/`` changes.  ``uninstall`` puts every
original back.

A span is ``[name, start, end, parent, item]``; ``parent`` is the index of
the enclosing span (-1 at an item's root) and ``item`` the item's index in
the pass.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from arclift import cli, jets, newton, pathology, polynomials, rings, series, textforms, weierstrass

# span name -> the functions it covers
FUNCTIONS = {
    "series.laurent_divide": [series.laurent_divide],
    "weierstrass.strict_prepare": [weierstrass.strict_prepare],
    "weierstrass.divide_by_monic": [weierstrass.divide_by_monic],
    "weierstrass.poly_mul": [weierstrass.poly_mul],
    "weierstrass.weierstrass_divide": [weierstrass.weierstrass_divide],
    "weierstrass.divides_power_of_t": [weierstrass.divides_power_of_t],
    "newton.arc_lift": [newton.arc_lift],
    "newton.fixed_point_solve": [newton.fixed_point_solve],
    "newton.check_congruence": [newton.check_congruence],
    "newton.jacobian_data": [newton.jacobian_data],
    "jets.mod_q_reduce": [jets.mod_q_reduce],
    "jets.map_mod_poly": [jets.map_mod_poly],
    "pathology.check_identities": [pathology.check_identities],
    "textforms.parse": [
        fn for name, fn in vars(textforms).items() if name.startswith("parse_")
    ],
    # includes series.format_series, which textforms imports
    "textforms.format": [
        fn for name, fn in vars(textforms).items() if name.startswith("format_")
    ],
    "cli.main": [cli.main],
}

# span name -> (class, method)
METHODS = {
    "series.mul": (series.TruncatedSeries, "__mul__"),
    "series.invert": (series.TruncatedSeries, "invert"),
    "polynomials.evaluate_or": (polynomials.MultiPoly, "evaluate_or"),
}

# counter name -> (class, method); payload ops are too many for spans
COUNTERS = {
    f"rings.{family}.{op}.count": (cls, f"payload_{op}")
    for family, cls in (
        ("fp", rings.PrimeFieldRing),
        ("q", rings.RationalRing),
        ("zmod", rings.IntegersMod),
        ("artin", rings.ArtinianLocalRing),
    )
    for op in ("mul", "add")
}
COUNTERS["pathology.colimit.mul.count"] = (pathology.ColimitRing, "payload_mul")

H_SPAN = "newton.h"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.item = -1
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------
    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _count(self, name, fn):
        counters = self.counters

        def counted(*args):
            counters[name] += 1
            return fn(*args)

        return counted

    def _solve_with_traced_h(self, fn):
        """fixed_point_solve, with the h it is given wrapped as a span."""

        def solve(h, *args, **kwargs):
            return fn(self.wrap(H_SPAN, h), *args, **kwargs)

        return solve

    # -- installing ------------------------------------------------------------
    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "arclift" or n.startswith("arclift.")]
        for name, fns in FUNCTIONS.items():
            for fn in fns:
                wrapped = fn
                if fn is newton.fixed_point_solve:
                    wrapped = self._solve_with_traced_h(fn)
                wrapped = self.wrap(name, wrapped)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, attr, wrapped)
        for name, (cls, method) in METHODS.items():
            self._set(cls, method, self.wrap(name, vars(cls)[method]))
        for name, (cls, method) in COUNTERS.items():
            self._set(cls, method, self._count(name, vars(cls)[method]))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------
    def totals(self):
        """(span counts, self seconds) per span name, plus the op counters."""
        counts = Counter()
        self_s = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            counts[name] += 1
            self_s[name] += (end - start) - child[i]
        return counts, self_s, Counter(self.counters)
