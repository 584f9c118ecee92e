"""The benchmark's view of the package: bench/workloads.py imports the
public names it reads and runs one op, so renaming one of them fails
here and not only in a benchmark run."""

import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_exact_op_passes_at_desk_point(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads
    from tracer import NullTracer

    op = workloads.run_op({"op": "exact", "alpha": 2, "mu": 2, "zeta": "0.5",
                           "t": "0.3", "n_max": 3}, NullTracer())
    assert op.status == "pass", (op.raised, op.missed)
