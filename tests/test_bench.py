"""The benchmark's view of the package: bench/workloads.py imports the
public names it reads and runs one op of each kind, so renaming one of
them fails here and not only in a benchmark run."""

import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")

DESK = {"alpha": 2, "mu": 2, "zeta": "0.5"}


def run_desk_op(monkeypatch, **inp):
    monkeypatch.syspath_prepend(BENCH)
    import workloads
    from tracer import NullTracer

    return workloads.run_op({**DESK, **inp}, NullTracer())


def test_exact_op_passes_at_desk_point(monkeypatch):
    """verify --fast: tables, the identity battery, the a/b flow laws."""
    op = run_desk_op(monkeypatch, op="exact", t="0.3", n_max=3)
    assert op.status == "pass", (op.raised, op.missed)


def test_oracle_op_passes_at_desk_point(monkeypatch):
    """The quadrature cross-checks, theta_kappa_from_recurrence and the
    ladder_* routes among them, every group run."""
    op = run_desk_op(monkeypatch, op="oracle", t="0.3", n=1, delta_N=2,
                     dN_N=1, y1="5", y2="7")
    assert op.status == "pass", (op.raised, op.missed)
    assert not op.skipped


def test_oracle_op_passes_with_the_three_fold_tensor(monkeypatch):
    """The TENSOR_CYCLE cell (3, 2): Delta_3 and D_2 by tensor sums."""
    op = run_desk_op(monkeypatch, op="oracle", t="0.3", n=1, delta_N=3,
                     dN_N=2, y1="5", y2="7")
    assert op.status == "pass", (op.raised, op.missed)
    assert not op.skipped


def test_flow_op_passes_at_desk_point(monkeypatch):
    """evolve with its endpoint check, to_hamiltonian,
    hamilton_map_residual and pv_residual."""
    op = run_desk_op(monkeypatch, op="flow", n=1, t1="0.3")
    assert op.status == "pass", (op.raised, op.missed)
