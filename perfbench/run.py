"""The arclift benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {lift,prepare,cli} --seed N --seconds S --trace {0,1}

Load is a closed loop with one caller in one process and one thread: each
item starts when the previous one returns.  The loop repeats whole cycles
of the workload until S seconds of item time have passed and the workload's
minimum item count is reached.  Only the library call is timed; outputs are
checked after each cycle, outside the timed interval.

Every time metric is given at a fixed reference speed: after each item the
runner times a fixed kernel that uses nothing from arclift, and scales the
item's latency by how much slower than its reference time the kernel ran
around it (``speed.py``).  The raw wall-clock figures are in the provenance
line.

``setup_s`` is the median of seven fresh-process probes, run between cycles
across the run so that they meet the same machine as the items do; each
probe times the kernel around itself and is scaled the same way.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays a fixed,
seed-determined set of cycles once untraced and twice traced, prints the
per-layer metrics, and fails if the two traced passes count differently.
The last line of standard output is the JSON result; the lines before it
and ``.bench_out/`` hold the per-rung medians, sample counts and
provenance.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("lift", "prepare", "cli")
SETUP_PROBES = 7
PROBE_KERNEL_REPS = 40


def load_workload(name):
    """Import arclift from this checkout's ``src`` and build the workload."""
    sys.path.insert(0, SRC)
    import arclift

    if os.path.dirname(os.path.abspath(arclift.__file__)) != os.path.join(SRC, "arclift"):
        raise ImportError(f"arclift resolved outside {SRC}")
    if name == "lift":
        from lift import LiftWorkload as cls
    elif name == "prepare":
        from prepare import PrepareWorkload as cls
    else:
        from cli_mix import CliWorkload as cls
    return cls()


# -- running items ----------------------------------------------------------------

def run_items(items, tracer=None, track=None):
    """Call every item once; returns (outputs, latencies, errors, loop wall).

    With a speed ``track``, the speed kernel runs after each item and the
    item's midpoint goes to ``track.item_times``.
    """
    outputs, lat, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = item.fn(*item.args)
        except Exception as exc:  # an unexpected raise is a failed item
            out = exc
        t1 = clock()
        outputs.append(out)
        lat.append(t1 - t0)
        errors.append(isinstance(out, Exception))
        if track is not None:
            track.item_times.append((t0 + t1) / 2)
            track.sample(t1 - t0)
    return outputs, lat, errors, clock() - start


def checked(wl, items, outputs, errors):
    ok = wl.check(items, outputs)
    return [good and not err for good, err in zip(ok, errors)]


def timed_loop(wl, args):
    """Whole cycles until ``seconds`` of loop time and ``min_items`` items.

    Returns the samples of each cycle as (label, rung, latency, passed), the
    loop time of each cycle, the speed track of the run, and the set-up
    probes, which run between cycles spread over the run so that they see
    the same machine as the items.
    """
    cycles, walls, setup = [], [], []
    track = speed.SpeedTrack()
    while sum(walls) < args.seconds or sum(map(len, cycles)) < wl.min_items:
        if len(setup) < SETUP_PROBES and sum(walls) >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_time(args))
        items = wl.cycle(args.seed, len(cycles))
        outputs, lat, errors, cycle_wall = run_items(items, track=track)
        passed = checked(wl, items, outputs, errors)
        cycles.append([(it.label, it.rung, t, ok) for it, t, ok in zip(items, lat, passed)])
        walls.append(cycle_wall)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(args))
    return cycles, walls, track, setup


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def ladder(wl, samples):
    """Per-rung medians of the paired size ladder, and the exponent between them."""
    rungs = {}
    for rung in (0, 1):
        lat = [s[2] for s in samples if s[1] == rung]
        rungs[f"rung{rung}"] = {"median_ms": statistics.median(lat) * 1e3, "samples": len(lat)}
    exponent = math.log(rungs["rung1"]["median_ms"] / rungs["rung0"]["median_ms"]) / math.log(
        wl.ladder_ratio
    )
    return rungs, exponent


def setup_time(args):
    """Set-up time of one fresh process: import, parse and generate.

    Returns (raw seconds, seconds at the reference speed).
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, kernel_s = map(float, proc.stdout.split()[-2:])
    return raw, raw * speed.REF_S / kernel_s


def setup_probe(workload, seed):
    """Prints the set-up time and the median speed-kernel time around it."""
    before = speed.time_kernel(PROBE_KERNEL_REPS)
    t0 = time.perf_counter()
    wl = load_workload(workload)
    wl.cycle(seed, 0)
    elapsed = time.perf_counter() - t0
    after = speed.time_kernel(PROBE_KERNEL_REPS)
    print(elapsed, statistics.median(dt for _, dt in before + after))


# -- provenance --------------------------------------------------------------------

def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "arclift")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(args, **extra):
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
    }


# -- the two kinds of run -----------------------------------------------------------

def end_to_end(args):
    wl = load_workload(args.workload)
    cycles, walls, track, setup = timed_loop(wl, args)
    raw = [s for c in cycles for s in c]
    # every latency at the reference speed; see speed.py
    samples = [(label, rung, lat * track.scale(t), ok)
               for (label, rung, lat, ok), t in zip(raw, track.item_times)]
    attempted = len(samples)
    failed = sum(1 for s in samples if not s[3])
    lat_ms = [s[2] * 1e3 for s in samples]
    raw_ms = [s[2] * 1e3 for s in raw]
    tail = p90(lat_ms)
    rungs, exponent = ladder(wl, samples)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "items_per_s": (attempted / (sum(lat_ms) / 1e3), "1/s"),
        "item_ms_p50": (statistics.median(lat_ms), "ms"),
        "item_ms_p90": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "n_exponent": (exponent, "1"),
    }
    labels = {}
    for label, _, lat, _ in samples:
        labels.setdefault(label, []).append(lat * 1e3)
    kernel_ms = [k * 1e3 for k in track.kernel_s]
    info = provenance(
        args,
        cycles=len(cycles),
        items=attempted,
        items_per_label={k: len(v) for k, v in labels.items()},
        median_ms_per_label={k: statistics.median(v) for k, v in labels.items()},
        failed_frac=failed / attempted,
        loop_wall_s=sum(walls),
        p50_samples=attempted,
        p90_samples=attempted,
        p90_samples_beyond=sum(1 for v in lat_ms if v > tail),
        setup_samples_s=[ref for _, ref in setup],
        ladder=rungs,
        speed={
            "ref_kernel_ms": speed.REF_S * 1e3,
            "kernel_samples": len(kernel_ms),
            "kernel_ms_quartiles": statistics.quantiles(kernel_ms, n=4),
            "raw_items_per_s": attempted / (sum(raw_ms) / 1e3),
            "raw_item_ms_p50": statistics.median(raw_ms),
            "raw_item_ms_p90": p90(raw_ms),
            "raw_setup_samples_s": [r for r, _ in setup],
        },
    )
    return metrics, attempted, failed, info, None


def traced(args):
    wl = load_workload(args.workload)
    from tracer import Tracer  # imports arclift, so after load_workload

    items = [it for i in range(wl.trace_cycles) for it in wl.cycle(args.seed, i)]
    outputs, _, errors, base_wall = run_items(items)
    failed = sum(not ok for ok in checked(wl, items, outputs, errors))
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            outputs, _, errors, wall = run_items(items, tracer)
        finally:
            tracer.uninstall()
        failed += sum(not ok for ok in checked(wl, items, outputs, errors))
        passes.append((tracer, wall))
    (first, wall), (second, _) = passes
    counts, self_s, counters = first.totals()
    counts2, _, counters2 = second.totals()
    if counts != counts2 or counters != counters2:
        diff = sorted(k for k in set(counts) | set(counts2) | set(counters) | set(counters2)
                      if counts[k] != counts2[k] or counters[k] != counters2[k])
        raise SystemExit(f"traced passes of seed {args.seed} counted differently: {diff}")
    metrics = {}
    for name in COUNTERS_REPORTED:
        metrics[name] = (counters[name], "count")
    for name in SPAN_COUNTS:
        metrics[f"{name}.count"] = (counts[name], "count")
    metrics["newton.h.calls"] = (counts["newton.h"], "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics["trace.overhead_ratio"] = (wall / base_wall, "ratio")
    attempted = 3 * len(items)
    info = provenance(
        args,
        cycles=wl.trace_cycles,
        items=len(items),
        spans=len(first.spans),
        untraced_wall_s=base_wall,
        traced_wall_s=wall,
        span_counts=dict(sorted(counts.items())),
        self_s=dict(sorted(self_s.items())),
        op_counts=dict(sorted(counters.items())),
    )
    return metrics, attempted, failed, info, first


COUNTERS_REPORTED = [
    f"rings.{family}.{op}.count" for family in ("fp", "q", "zmod", "artin") for op in ("mul", "add")
] + ["pathology.colimit.mul.count"]
SPAN_COUNTS = [
    "series.mul",
    "weierstrass.divide_by_monic",
    "weierstrass.poly_mul",
    "newton.jacobian_data",
    "polynomials.evaluate_or",
]
SELF_TIMES = [
    "series.mul",
    "series.invert",
    "series.laurent_divide",
    "weierstrass.strict_prepare",
    "newton.fixed_point_solve",
    "newton.check_congruence",
    "polynomials.evaluate_or",
    "jets.mod_q_reduce",
    "jets.map_mod_poly",
    "pathology.check_identities",
    "textforms.parse",
    "textforms.format",
    "cli.main",
]


def write_out(args, result, info, tracer):
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as f:
        json.dump({"result": result, "provenance": info}, f, indent=1, sort_keys=True)
    if tracer is not None:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        with gzip.open(os.path.join(OUT, f"spans-{stem}.jsonl.gz"), "wt") as f:
            for name, start, end, parent, item in tracer.spans:
                f.write(json.dumps([name, start - origin, end - origin, parent, item]) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "arclift")):
        print(f"error: no arclift sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, info, tracer = run(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:36s} {value:>14.6g} {unit}")
    print(f"{args.workload:8s} {'failed_frac':36s} {failed / attempted:>14.6g} ratio")
    print("provenance: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_out(args, result, info, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
