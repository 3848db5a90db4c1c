"""Print µs per series operation for each ring family, best of k, as a table.

Each row is one ring and one operation on ``TruncatedSeries``; the columns
are N = 24 and N = 96.  Fp(5), Zmod(27) and Zmod(81) keep their series as
byte strings, and Fp(131) and Zmod(129) (not local), above the byte bound
of modulus 128, as int tuples, so the table shows both encodings of the
residue rings; Zmod(81), with m^4 = 0, is the residue ring whose
preparations take the most rounds.  The operands are seeded random series
whose every coefficient is nonzero, with a unit constant term:

* ``mul``: x * y;
* ``sum``: x + y;
* ``scale``: x.scale(2), the shape of a map coefficient such as Dh's 2;
* ``shift``: x.shift(3);
* ``invert``: x.invert() (a colimit ring refuses it: ``-``);
* ``divide t^3``: ``divide_by_monic`` of x by t^3, two windows of x;
* ``divide q``: ``divide_by_monic`` of x by t^3 + y_2 t^2 + y_1 t + y_0,
  a monic with nonzero low terms, by synthetic division;
* ``prepare``: ``strict_prepare`` of x with its three lowest coefficients
  made nilpotent (zero over a field), so of reduced order 3 (a non-local
  or colimit ring refuses it: ``-``);
* ``laurent``: ``laurent_divide(y, x)`` for that same x, so the
  preparation, q' and u^-1 for one dividend (refused where ``prepare`` is).

Before a cell is timed, its result is checked once: x * x^-1 = 1 for
``invert``, q * quot + rem = x for both divisions, u * q = x mod t^N
with q strict for ``prepare``, and quotient * x = y on the window both
factors determine for ``laurent``.  A cell whose check fails reads ``wrong``,
and the script then exits 1 after the table.  A cell runs the operation in
a loop of at least 20 ms, k times, and reports the fastest loop's time per
call.  Standard library only; run from the repository root:

    python3 tools/series_ops.py [--repeats K]
"""

import argparse
import math
import platform
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arclift import (  # noqa: E402
    ArtinianLocalRing, IntegersMod, MonicPoly, PrimeFieldRing, RationalRing, TruncatedSeries,
    arc_kernel_ring, laurent_divide, make_ring, recombine_factorization, strict_prepare,
)
from arclift.errors import ArcliftError  # noqa: E402
from arclift.weierstrass import divide_by_monic, recombine_division  # noqa: E402

RINGS = ("Fp(5)", "Zmod(27)", "Zmod(81)", "Fp(131)", "Zmod(129)", "Q", "Artin(Fp(5); eps; 2)",
         "Artin(Fp(2); s1, s2; 3)", "Artin(Q; a, b; 3)", "ArcKernel(Fp(5))")
SIZES = (24, 96)
OPS = {
    "mul": lambda x, y: x * y,
    "sum": lambda x, y: x + y,
    "scale": lambda x, y: x.scale(2),
    "shift": lambda x, y: x.shift(3),
    "invert": lambda x, y: x.invert(),
    "divide t^3": lambda x, q: divide_by_monic(x.form, q),
    "divide q": lambda x, q: divide_by_monic(x.form, q),
    "prepare": lambda x, y: strict_prepare(x),
    "laurent": lambda x, y: laurent_divide(y, x),
}
FIRST = {  # an op's first operand, from x, when it is not x itself
    "prepare": lambda x: nilpotent_low(x, 3),
    "laurent": lambda x: nilpotent_low(x, 3),
}
SECOND = {  # an op's second operand, from y, when it is not y itself
    "divide t^3": lambda y: MonicPoly.t_power(y.ring, 3),
    "divide q": lambda y: MonicPoly(y.ring, y.coeffs[:3]),
}


def divides_back(x, q, out):
    """Whether q * quot + rem = x mod t^N, N the precision of x, for the
    quotient's form and the remainder ``out`` of x divided by q."""
    quot, rem = out
    return recombine_division(q, rem, TruncatedSeries._of_form(x.ring, *quot, x.precision)) == x


def multiplies_back(x, y, quotient):
    """Whether the Laurent quotient times x is y on the exponents from 0
    up to the window both factors determine."""
    product = quotient.times_series(x).power_series_part()
    return product is not None and product.agrees(y)


CHECKS = {  # what an op's result must satisfy, for its operands x and y
    "invert": lambda x, y, inv: x * inv == TruncatedSeries.constant(x.ring.one, x.precision),
    "divide t^3": divides_back,
    "divide q": divides_back,
    "prepare": lambda x, y, fact: (
        fact.q.is_strict() and recombine_factorization(fact.q, fact.u.pad(x.precision)) == x),
    "laurent": multiplies_back,
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
        return ring.from_int(rng.choice([k for k in range(1, ring.n) if math.gcd(k, ring.n) == 1]))
    if isinstance(ring, RationalRing):
        return ring.from_fraction(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30)))
    if isinstance(ring, ArtinianLocalRing):
        return ring.element({x: nonzero_element(ring.base, rng).value for x in ring.monomials()})
    return rng.choice([ring.one, ring.one + ring.q0(), ring.one + ring.x(1), ring.one + ring.q0() * ring.x(2)])


def nilpotent_low(x, d):
    """x with its d lowest coefficients moved into the maximal ideal: zero
    over a field, times p over Z/p^e, without their constant slice over an
    Artinian ring.  A ring that is not local keeps x as it is."""
    ring = x.ring
    if not ring.is_local:
        return x
    if ring.is_field:
        low = [ring.zero] * d
    elif isinstance(ring, ArtinianLocalRing):
        low = [ring.element({k: v for k, v in c.value.items() if any(k)}) for c in x.coeffs[:d]]
    else:
        low = [c * ring.residue_field().p for c in x.coeffs[:d]]
    return TruncatedSeries(ring, low + list(x.coeffs[d:]), x.precision)


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
    wrong = []
    for desc in RINGS:
        ring = build_ring(desc)
        rng = random.Random(f"{SEED}/{desc}")
        operands = {n: [TruncatedSeries(ring, [nonzero_element(ring, rng) for _ in range(n)], n)
                        for _ in range(2)] for n in SIZES}
        for name, op in OPS.items():
            cells = []
            for n in SIZES:
                try:
                    x, y = operands[n]
                    x = FIRST.get(name, lambda x: x)(x)
                    y = SECOND.get(name, lambda y: y)(y)
                    if not CHECKS.get(name, lambda *_: True)(x, y, op(x, y)):
                        wrong.append(f"{desc} {name} N={n}")
                        cells.append("wrong")
                        continue
                    cells.append(f"{best_us(op, x, y, args.repeats):.1f}")
                except ArcliftError:
                    cells.append("-")
            print(f"| {desc} | {name} | " + " | ".join(cells) + " |", flush=True)
    if wrong:
        sys.exit("wrong results: " + "; ".join(wrong))


if __name__ == "__main__":
    main()
