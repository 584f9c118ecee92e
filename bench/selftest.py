"""Self-tests of the benchmark (about three minutes on two cores):

    python3 bench/selftest.py

1. coverage: the default seed's panels reach every domain corner, and the
   known defects there show up as raised or failed ops;
2. CLI mirror: the first op of each kind (exact, oracle, flow) equals the
   output of its subcommand run in-process through `dlaguerre.cli.main`;
3. determinism: the same seed repeats inputs, outcomes and counts; another
   seed gives other inputs.

Prints one PASS/FAIL line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import run
from tracer import Tracer

DEFAULT_SEED = 1
FAILURES = []


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}",
          flush=True)
    if not ok:
        FAILURES.append(name)


def panel(wl, workload, seed, count=None):
    """Inputs and traced ops of the first `count` panel ops."""
    inputs = wl.list_inputs(workload, seed, count or run.PANEL[workload])
    tracer = Tracer()
    return inputs, [wl.run_op(inp, tracer) for inp in inputs]


def by_kind(runs):
    """{op kind: (inputs, ops)} over the panels of every workload."""
    out = {}
    for inputs, ops in runs.values():
        for inp, op in zip(inputs, ops):
            kind = out.setdefault(inp["op"], ([], []))
            kind[0].append(inp)
            kind[1].append(op)
    return out


def crosses_singularity(wl, inp):
    """Does theta_n or theta_n + t change sign on (t0, t1]?  Determinant route."""
    import mpmath as mp
    from dlaguerre import table_for, theta_kappa_from_recurrence
    with mp.workprec(wl.PREC.significand_bits):
        t0, t1 = mp.mpf(wl.FLOW_T0), mp.mpf(inp["t1"])
        grid = [t0 * (t1 / t0) ** (mp.mpf(j) / 60) for j in range(61)]
        signs = set()
        for t in grid:
            _, tab = table_for(wl.params_of(inp, t=t), inp["n"] + 1, wl.PREC,
                               cross_check=False)
            th = theta_kappa_from_recurrence(tab, inp["n"]).theta
            signs.add((th > 0, th + t > 0))
        return len(signs) > 1


def odd_alpha_negative_a2(wl, inp):
    from dlaguerre import table_for
    if inp["alpha"] % 2 == 0:
        return False
    n_max = inp.get("n_max", inp.get("n", 1)) + 2
    try:
        _, tab = table_for(wl.params_of(inp), n_max, wl.PREC, cross_check=False)
    except Exception:       # a table that cannot be built says nothing here
        return False
    return any(v < 0 for v in tab.a2[1:])


def rounds_down_at_128_bits(t: str) -> bool:
    import mpmath as mp
    with mp.workprec(128):
        short = mp.mpf(t)
    with mp.workprec(148):
        return short < mp.mpf(t)


def tensor_weighting_misses(run_):
    """Panel ops whose t rounds down at 128 bits and whose Delta_N or D_N
    misses its gate: the [t, t + 2] weighting defect of the tensor oracles."""
    return sum(rounds_down_at_128_bits(inp["t"])
               and bool({"delta_N", "D_N"} & set(op.missed))
               for inp, op in zip(*run_))


def test_coverage(wl, runs):
    kinds = by_kind(runs)
    inputs = {k: kinds[k][0] for k in kinds}
    pts = inputs["exact"] + inputs["oracle"]
    corners = {
        "alpha + mu <= 1": any(p["alpha"] + p["mu"] <= 1 for p in pts),
        "odd alpha with a_n^2 < 0": any(odd_alpha_negative_a2(wl, p)
                                        for p in pts),
        "alpha = 0": any(p["alpha"] == 0 for p in pts + inputs["flow"]),
        "t >= 2": any(float(p["t"]) >= 2 for p in pts),
        "t <= 0.05": any(float(p["t"]) <= 0.05 for p in pts),
        "flow t1 past the first apparent singularity": any(
            crosses_singularity(wl, p) for p in inputs["flow"]),
    }
    for name, ok in corners.items():
        check(f"coverage: {name}", ok)
    tallies = {k: wl.tally(kinds[k][1]) for k in kinds}
    defects = {
        "exact: verify_identities raises on a signed weight":
            tallies["exact"]["verify_identities:SingularHankel"],
        "exact: ab_flow_check misses its 1e-8 gate off the desk point":
            tallies["exact"]["miss:flow_laws"],
        "oracle: moment_quadrature raises QuadratureFailure at alpha=mu=0":
            tallies["oracle"]["moment_quadrature:QuadratureFailure"],
        "oracle: stieltjes_eval raises QuadratureFailure at alpha=mu=0":
            tallies["oracle"]["stieltjes_eval:QuadratureFailure"],
        "oracle: a tensor oracle misses where t rounds down at 128 bits":
            tensor_weighting_misses(kinds["oracle"]),
        "flow: evolve raises SingularityEncountered":
            tallies["flow"]["evolve:SingularityEncountered"],
    }
    for name, count in defects.items():
        check(f"known defect shows: {name}", count > 0, f"{count} op(s)")


def _cli(argv):
    from dlaguerre.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        code = main(argv + ["--out", out])
        doc = json.load(open(out)) if os.path.exists(out) else None
    return code, doc


def _flags(inp):
    return ["--alpha", str(inp["alpha"]), "--mu", str(inp["mu"]),
            "--zeta", inp["zeta"]]


def test_cli_mirror(runs):
    kinds = by_kind(runs)
    inp, op = kinds["exact"][0][0], kinds["exact"][1][0]
    code, _ = _cli(["verify"] + _flags(inp) + ["--t", inp["t"], "--nmax",
                                             str(inp["n_max"]), "--fast"])
    verdict = {"pass": 0, "miss": 4, "raised": 3}[op.status]
    check("mirror: exact op verdict equals `dlaguerre verify --fast`",
          code == verdict, f"op {op.status}, exit code {code}")

    inp, op = kinds["oracle"][0][0], kinds["oracle"][1][0]
    code, doc = _cli(["moments"] + _flags(inp) + ["--t", inp["t"],
                                                "--kmax", "12"])
    cli_rel = [row["relative_difference"] for row in doc["moments"]] \
        if doc else None
    check("mirror: oracle per-k moment differences equal `dlaguerre "
          "moments`", code == 0 and cli_rel == op.key.get("moments_rel"),
          f"exit code {code}")

    inp, op = kinds["flow"][0][0], kinds["flow"][1][0]
    code, doc = _cli(["evolve"] + _flags(inp) + [
        "--n", str(inp["n"]), "--t0", "1e-3", "--t1", inp["t1"]])
    cli_rel = doc["summary"].get("endpoint_vs_hankel_rel") if doc else None
    check("mirror: flow endpoint-vs-Hankel equals `dlaguerre evolve`",
          code == 0 and cli_rel == op.key.get("endpoint_vs_hankel_rel"),
          f"exit code {code}, cli {cli_rel}, op "
          f"{op.key.get('endpoint_vs_hankel_rel')}")


def test_determinism(wl, runs):
    counts = {"exact": run.PANEL["exact"], "crossval": 2}
    for workload, count in counts.items():
        inputs, ops = panel(wl, workload, DEFAULT_SEED, count)
        first_inputs, first_ops = runs[workload][0], runs[workload][1]
        check(f"determinism: {workload} inputs repeat",
              inputs == first_inputs[:count])
        check(f"determinism: {workload} digits and failure sets repeat",
              [op.outcome for op in ops]
              == [op.outcome for op in first_ops[:count]])
        key = {"exact": "semiclassical.identities.records",
               "crossval": "painleve.integrate.steps"}[workload]
        got = [op.counts[key] for op in ops]
        want = [op.counts[key] for op in first_ops[:count]]
        check(f"determinism: {workload} {key} repeats",
              got == want and sum(got) > 0, f"{sum(got)} vs {sum(want)}")
        other = wl.list_inputs(workload, DEFAULT_SEED + 1, count)
        check(f"determinism: {workload} another seed gives other inputs",
              all(a != b for a, b in zip(other, inputs)))


def main() -> int:
    run.load_package()
    import workloads as wl
    wl.warm_up("crossval")
    runs = {w: panel(wl, w, DEFAULT_SEED) for w in wl.WORKLOADS}
    for w, (_, ops) in runs.items():
        check(f"panel: {w} ops have finite disagreements or raised",
              all(op.raised or math.isfinite(op.worst) for op in ops))
    test_coverage(wl, runs)
    test_cli_mirror(runs)
    test_determinism(wl, runs)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
