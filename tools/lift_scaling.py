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
row.  Standard library only; run from the repository root:

    python3 tools/lift_scaling.py [--max-n 512]
"""

import argparse
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arclift import (  # noqa: E402
    ArcPoint, PrimeFieldRing, RationalRing, TruncatedSeries, arc_lift, make_ring,
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


def best_ms(pm, ring, coeffs, n):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        arc_lift(ArcPoint(pm, [TruncatedSeries(ring, c[:n], n) for c in coeffs]))
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=512, help="largest N (from 64, doubling)")
    args = parser.parse_args(argv)
    sizes = [n for n in (64, 128, 256, 512) if n <= args.max_n]
    if not sizes:
        parser.error("need --max-n >= 64")
    print(f"arc_lift, ms, best of {REPEATS}; seed {SEED}; "
          f"{platform.python_implementation()} {platform.python_version()}, {platform.machine()}")
    print()
    print("| ring, curve | " + " | ".join(f"N={n}" for n in sizes) + " |")
    print("|---|" + "---|" * len(sizes))
    for desc in RINGS:
        ring = make_ring(desc)
        for curve, (text, lead, min_order) in CURVES.items():
            pm = parse_poly_map(text)
            rng = random.Random(f"{SEED}/{desc}/{curve}")
            coeffs = components(ring, lead, min_order, sizes[-1], rng)
            cells = [f"{best_ms(pm, ring, coeffs, n):.1f}" for n in sizes]
            print(f"| {desc}, {curve} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
