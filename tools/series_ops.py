"""Print µs per series operation for each ring family, best of k, as a table.

Each row is one ring and one operation on ``TruncatedSeries``; the columns
are N = 24 and N = 96.  The operands are seeded random series whose every
coefficient is nonzero, with a unit constant term:

* ``mul``: x * y;
* ``sum``: x + y;
* ``scale``: x.scale(2), the shape of a map coefficient such as Dh's 2;
* ``shift``: x.shift(3);
* ``invert``: x.invert() (a colimit ring refuses it: ``-``).

A cell runs the operation in a loop of at least 20 ms, k times, and
reports the fastest loop's time per call.  Standard library only; run from
the repository root:

    python3 tools/series_ops.py [--repeats K]
"""

import argparse
import platform
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arclift import (  # noqa: E402
    ArtinianLocalRing, IntegersMod, PrimeFieldRing, RationalRing, TruncatedSeries,
    arc_kernel_ring, make_ring,
)
from arclift.errors import ArcliftError  # noqa: E402

RINGS = ("Fp(5)", "Zmod(27)", "Q", "Artin(Fp(5); eps; 2)", "Artin(Fp(2); s1, s2; 3)",
         "Artin(Q; a, b; 3)", "ArcKernel(Fp(5))")
SIZES = (24, 96)
OPS = {
    "mul": lambda x, y: x * y,
    "sum": lambda x, y: x + y,
    "scale": lambda x, y: x.scale(2),
    "shift": lambda x, y: x.shift(3),
    "invert": lambda x, y: x.invert(),
}
SEED = 1
MIN_LOOP_S = 0.02


def build_ring(desc):
    if desc == "ArcKernel(Fp(5))":
        return arc_kernel_ring(PrimeFieldRing(5))
    return make_ring(desc)


def nonzero_element(ring, rng):
    """A random element whose every coefficient is nonzero; a unit over
    Fp, Z/n and Q, with a unit constant part over Artinian rings."""
    if isinstance(ring, PrimeFieldRing):
        return ring.from_int(rng.randint(1, ring.p - 1))
    if isinstance(ring, IntegersMod):
        return ring.from_int(rng.choice([k for k in range(1, ring.n) if k % 3]))
    if isinstance(ring, RationalRing):
        return ring.from_fraction(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30)))
    if isinstance(ring, ArtinianLocalRing):
        return ring.element({x: nonzero_element(ring.base, rng).value for x in ring.monomials()})
    return rng.choice([ring.one, ring.one + ring.q0(), ring.one + ring.x(1), ring.one + ring.q0() * ring.x(2)])


def best_us(op, x, y, repeats):
    """The fastest of ``repeats`` loops of op(x, y), in µs per call."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            op(x, y)
        if time.perf_counter() - start >= MIN_LOOP_S:
            break
        loops *= 2
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            op(x, y)
        best = min(best, time.perf_counter() - start)
    return best / loops * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="loops per cell, the best counts (k)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("need --repeats >= 1")
    print(f"series operations, µs per call, best of {args.repeats}; seed {SEED}; "
          f"{platform.python_implementation()} {platform.python_version()}, {platform.machine()}")
    print()
    print("| ring | op | " + " | ".join(f"N={n}" for n in SIZES) + " |")
    print("|---|---|" + "---|" * len(SIZES))
    for desc in RINGS:
        ring = build_ring(desc)
        rng = random.Random(f"{SEED}/{desc}")
        operands = {n: [TruncatedSeries(ring, [nonzero_element(ring, rng) for _ in range(n)], n)
                        for _ in range(2)] for n in SIZES}
        for name, op in OPS.items():
            cells = []
            for n in SIZES:
                try:
                    cells.append(f"{best_us(op, *operands[n], args.repeats):.1f}")
                except ArcliftError:
                    cells.append("-")
            print(f"| {desc} | {name} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
