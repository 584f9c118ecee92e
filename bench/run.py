"""Benchmark of the dlaguerre lab: time to a verified answer, and its digits.

    python3 bench/run.py --workload exact --seed 1 --seconds 45 --trace 0

Runs one workload (exact or crossval; see README.md) as a closed loop:
one client, one process, one thread.  The run's panel is the first
PANEL[workload] op inputs seeded by --seed.  The panel runs once in full;
an untraced run then repeats the panel's inputs in order until --seconds
have passed, so a faster program does more of the same ops and never meets
other ones.  Every time is reported in nominal seconds: corrected for the
host's speed while it was taken (hostspeed.py).  The last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0), or its per-layer
metrics (--trace 1), by name with their units.  The line before it holds
the provenance and the failure tally.  The package is imported from the
checkout's src/ directory and nowhere else; without it the run exits 1
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from hostspeed import HostSpeed
from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PANEL = {"exact": 200, "crossval": 6}
SETUP_SAMPLES = 3       # fresh processes before the timed loop, and again after
SETUP_PERIOD_S = 0.02   # host-speed sampling period inside a set-up process


def load_package():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "dlaguerre" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'dlaguerre'}")
    sys.path.insert(0, str(SRC))


def set_up(workload, seed):
    """Import, generate the panel's inputs, warm the per-process caches."""
    load_package()
    import workloads
    inputs = workloads.list_inputs(workload, seed, PANEL[workload])
    workloads.warm_up(workload)
    return workloads, inputs


def setup_samples(args):
    """Set-up times, in nominal seconds, of SETUP_SAMPLES fresh processes.
    Each child times itself, from the moment before it was started."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only", repr(time.perf_counter())],
            check=True, timeout=120, stdout=subprocess.PIPE, text=True)
        samples.append(float(child.stdout.split()[-1]))
    return samples


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_ops(wl, inputs, seconds, tracer, clock):
    """The closed loop.  Runs the panel once, then (untraced) repeats its
    inputs in order, starting an op only if its first time still fits
    before `seconds` are up.  Returns the panel's ops, every panel op's
    intervals on `clock`, and whether each repeat gave the panel op's
    outcome."""
    start = clock()
    panel, runs = [], []
    for inp in inputs:
        t0 = clock()
        panel.append(wl.run_op(inp, tracer))
        runs.append([(t0, clock())])
    repeats_agree = True
    i = 0
    while not tracer.enabled and (
            clock() + runs[i][0][1] - runs[i][0][0] < start + seconds):
        t0 = clock()
        op = wl.run_op(inputs[i], tracer)
        runs[i].append((t0, clock()))
        repeats_agree = repeats_agree and op.outcome == panel[i].outcome
        i = (i + 1) % len(inputs)
    return panel, runs, repeats_agree


def end_to_end(panel, op_s, setup_s):
    """`op_s` holds each panel op's time, the mean over its runs, so every
    op weighs the same however many times the loop reached it."""
    n = len(panel)
    return {
        "setup_s": setup_s,
        "ops_per_s": n / sum(op_s),
        "op_s_p50": statistics.median(op_s),
        "failed_frac": sum(op.status != "pass" for op in panel) / n,
        "raised_frac": sum(op.status == "raised" for op in panel) / n,
        "digits_mean": statistics.fmean(op.digits for op in panel),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(tracer, runs, hs):
    """Per-layer totals of the traced panel, in nominal seconds."""
    out = Counter()
    ok_integrate_s = 0.0
    for layer, start, end, raised in tracer.spans:
        took = hs.nominal(start, end)
        out[f"{layer}.calls"] += 1
        out[f"{layer}.busy_s"] += took
        out[f"{layer}.failed"] += raised
        if layer == "painleve.integrate" and not raised:
            ok_integrate_s += took
    outside = sum(b - a for r in runs for a, b in r) - sum(
        end - start for _, start, end, _ in tracer.spans)
    out["bench.unattributed_s"] = outside / hs.slowness()
    out["bench.trace_overhead_s"] = tracer.overhead_s()
    out.update(tracer.counters)
    steps = tracer.counters["painleve.integrate.steps"]
    tried = steps + tracer.counters["painleve.integrate.rejected"]
    out["painleve.integrate.accept_ratio"] = steps / tried if tried else 0.0
    out["painleve.integrate.step_ms"] = (
        1000 * ok_integrate_s / tried if tried else 0.0)
    return out


def provenance(args, wl):
    import mpmath as mp
    return {"seed": args.seed, "workload": args.workload,
            "mpmath": mp.__version__, "mpmath_backend": mp.libmp.BACKEND,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "prec_bits": wl.PREC.significand_bits, "tol": str(wl.PREC.tol),
            "panel": PANEL[args.workload]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PANEL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=float, metavar="STARTED",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only is not None:
        # perf_counter is CLOCK_MONOTONIC, shared with the parent
        with HostSpeed(SETUP_PERIOD_S) as hs:
            set_up(args.workload, args.seed)
            done = hs.clock()
        print(hs.nominal(args.setup_only, done))
        return 0
    load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # set-up is sampled on both sides of the loop, so that its median
    # spans the run's host-speed phases as the op times do
    setup = [] if args.trace else setup_samples(args)
    wl, inputs = set_up(args.workload, args.seed)
    with HostSpeed() as hs:
        tracer = Tracer(hs.clock) if args.trace else NullTracer()
        panel, runs, repeats_agree = run_ops(wl, inputs, args.seconds,
                                             tracer, hs.clock)
    if not args.trace:
        setup += setup_samples(args)
    op_s = [statistics.fmean(hs.nominal(*iv) for iv in r) for r in runs]
    setup_s = statistics.median(setup) if setup else None
    if args.trace:
        values = per_layer(tracer, runs, hs)
        declared = spec["per_layer"]
    else:
        values = end_to_end(panel, op_s, setup_s)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}

    detail = provenance(args, wl)
    detail.update(ops_timed=sum(map(len, runs)), op_s_p90=percentile(op_s, 0.9),
                  setup_s=setup_s, repeats_agree=repeats_agree,
                  host_slowness=hs.slowness(),
                  op_s=[round(x, 4) for x in op_s],
                  op_wall_s=[round(statistics.fmean(b - a for a, b in r), 4)
                             for r in runs],
                  tally=dict(sorted(wl.tally(panel).items())),
                  panel_outcomes=[[op.status, round(op.digits, 3)]
                                  for op in panel])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": len(panel) == len(inputs) and repeats_agree
        and all(op.raised or math.isfinite(op.worst) for op in panel),
        "attempted": len(panel),
        "failed": sum(op.status != "pass" for op in panel),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
