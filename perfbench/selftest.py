"""Shows that every workload's output check can fail.

    python3 perfbench/selftest.py [--seed N]

For each workload, one cycle runs for real.  Its outputs must all pass.
Then every output is replaced by the workload's ``corrupt`` version (for
``cli`` both the text and the JSON twin, so they still agree), and one item
by a call that raises; each of those must be counted as failed, so
``failed_frac`` moves off zero.  Exits 1 if any check lets a wrong output
through.
"""

from __future__ import annotations

import argparse
import sys

import run
import workload


def _raises(*_):
    raise ArithmeticError("deliberate failure")


def selftest(name, seed):
    wl = run.load_workload(name)
    items = wl.cycle(seed, 0)
    outputs, _, errors, _ = run.run_items(items)
    clean = run.checked(wl, items, outputs, errors)
    problems = [f"{name}: clean output of {items[i].label} failed its check"
                for i, ok in enumerate(clean) if not ok]
    bad = list(outputs)
    corrupted = range(len(items))
    for i in corrupted:
        bad[i] = wl.corrupt(items[i], outputs[i])
    passed = run.checked(wl, items, bad, errors)
    problems += [f"{name}: corrupted output of {items[i].label} passed its check"
                 for i in corrupted if passed[i]]
    raising = list(items)
    last = len(items) - 1
    raising[last] = workload.Item(items[last].label, _raises, (), items[last].data)
    outs, _, errs, _ = run.run_items(raising)
    if run.checked(wl, raising, outs, errs)[last]:
        problems.append(f"{name}: an item that raised was counted as passed")
    failed_frac = passed.count(False) / len(passed)
    print(f"{name:8s} items {len(items):3d}  corrupted {len(corrupted):3d}  "
          f"failed_frac after corruption {failed_frac:.3f}")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    problems = []
    for name in run.WORKLOADS:
        problems += selftest(name, args.seed)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
