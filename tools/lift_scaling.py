"""Print ``arc_lift`` time at growing N, in ms, best of 3, as a table.

Each row is one ring and curve, lifted from one seeded dense perturbation
at every N from 64 up to ``--max-n`` (doubling), so a row's columns differ
only in N:

* the cusp y^2 = x^3 at x = t^2, y = t^3 + p(t), p of order >= 4;
* the space curve y^2 = x^3, z^2 = x^5 at x = t^2, y = t^3 + p(t),
  z = t^5 + r(t), p and r of order >= 9.

Every perturbation coefficient is nonzero: over Q an integer in [-3, 3],
over Fp(5) a residue in [1, 4], over Artin(Fp(5); eps; 2) one of those
plus one of those times eps.  A lift's time includes building its
``ArcPoint``; the map, and with it the Jacobian data, is built once per
row.

``--stages`` adds a second table: per row and N, µs of the fastest lift
spent in ``check_congruence``, in ``fixed_point_solve`` and in the rest of
``arc_lift`` (the ``ArcPoint``, the update and the residual check).  It
times the two stages by rebinding their names in ``arclift.newton``, which
``arc_lift`` looks up at each call, and puts them back afterwards; the
wrappers add two calls to each lift.  Standard library only; run from the
repository root:

    python3 tools/lift_scaling.py [--max-n 512] [--stages]
"""

import argparse
import contextlib
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arclift import (  # noqa: E402
    ArcPoint, PrimeFieldRing, RationalRing, TruncatedSeries, arc_lift, make_ring, newton,
)
from arclift.textforms import parse_poly_map  # noqa: E402

CURVES = {
    # map, leading exponent of each coordinate, lowest perturbed order
    "cusp": ("vars: [x, y]; split: 1; eqs: [y^2 - x^3]", (2, 3), 4),
    "space curve": ("vars: [x, y, z]; split: 1; eqs: [y^2 - x^3, z^2 - x^5]", (2, 3, 5), 9),
}
RINGS = ("Fp(5)", "Q", "Artin(Fp(5); eps; 2)")
SEED = 1
REPEATS = 3
STAGES = ("check_congruence", "fixed_point_solve")


def dense_element(ring, rng):
    """A random element whose every coefficient is nonzero."""
    if isinstance(ring, RationalRing):
        return ring.from_int(rng.choice((-1, 1)) * rng.randint(1, 3))
    if isinstance(ring, PrimeFieldRing):
        return ring.from_int(rng.randint(1, ring.p - 1))
    eps = ring.generators()["eps"]
    return ring.from_int(rng.randint(1, 4)) + eps * rng.randint(1, 4)


def components(ring, lead, min_order, n, rng):
    """The arc's coefficient lists to order n: t^lead for the passive x,
    t^lead plus a dense perturbation from ``min_order`` on for the rest."""
    out = []
    for i, k in enumerate(lead):
        coeffs = [ring.zero] * n
        coeffs[k] = ring.one
        if i > 0:
            for j in range(min_order, n):
                coeffs[j] = coeffs[j] + dense_element(ring, rng)
        out.append(coeffs)
    return out


@contextlib.contextmanager
def timed_stages(spent):
    """Rebind each of ``STAGES`` in ``arclift.newton`` to a wrapper that
    adds its seconds to ``spent[name]``, and put the originals back."""
    originals = {name: getattr(newton, name) for name in STAGES}

    def wrap(name, fn):
        def timed(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] += time.perf_counter() - start
        return timed

    for name, fn in originals.items():
        setattr(newton, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(newton, name, fn)


def best_lift(pm, ring, coeffs, n, stages):
    """The fastest of ``REPEATS`` lifts: its time in s and its seconds per
    stage and in the rest of ``arc_lift``, the stages timed only with
    ``stages``."""
    best, split = float("inf"), None
    for _ in range(REPEATS):
        spent = dict.fromkeys(STAGES, 0.0)
        with timed_stages(spent) if stages else contextlib.nullcontext():
            start = time.perf_counter()
            arc_lift(ArcPoint(pm, [TruncatedSeries(ring, c[:n], n) for c in coeffs]))
            total = time.perf_counter() - start
        if total < best:
            best = total
            split = [spent[name] for name in STAGES] + [total - sum(spent.values())]
    return best, split


def print_header(title, sizes):
    print(title)
    print()
    print("| ring, curve | " + " | ".join(f"N={n}" for n in sizes) + " |")
    print("|---|" + "---|" * len(sizes))


def print_row(label, cells):
    print(f"| {label} | " + " | ".join(cells) + " |", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=512, help="largest N (from 64, doubling)")
    parser.add_argument("--stages", action="store_true",
                        help="also print µs in check_congruence / fixed_point_solve / the rest")
    args = parser.parse_args(argv)
    sizes = [n for n in (64, 128, 256, 512) if n <= args.max_n]
    if not sizes:
        parser.error("need --max-n >= 64")
    print_header(f"arc_lift, ms, best of {REPEATS}; seed {SEED}; "
                 f"{platform.python_implementation()} {platform.python_version()}, "
                 f"{platform.machine()}", sizes)
    splits = []
    for desc in RINGS:
        ring = make_ring(desc)
        for curve, (text, lead, min_order) in CURVES.items():
            pm = parse_poly_map(text)
            rng = random.Random(f"{SEED}/{desc}/{curve}")
            coeffs = components(ring, lead, min_order, sizes[-1], rng)
            cells = [best_lift(pm, ring, coeffs, n, args.stages) for n in sizes]
            label = f"{desc}, {curve}"
            print_row(label, [f"{best * 1e3:.1f}" for best, _ in cells])
            splits.append((label, [" / ".join(f"{x * 1e6:.0f}" for x in split) for _, split in cells]))
    if args.stages:  # the stage columns read zero without the wrappers
        print()
        print_header("µs of the fastest lift in check_congruence / fixed_point_solve / the rest "
                     "of arc_lift", sizes)
        for label, cells in splits:
            print_row(label, cells)


if __name__ == "__main__":
    main()
