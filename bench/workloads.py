"""Seeded inputs and operations of the two benchmark workloads.

Each op replays the public call sequence of one `dlaguerre` subcommand and
checks its answer against the independent route with the gate the package
already applies (see README.md for the table).  There are three kinds of
op: `exact` (verify --fast), `oracle` (the quadrature cross-checks) and
`flow` (evolve).  The `exact` workload runs exact ops; the `crossval`
workload alternates oracle and flow ops.  Every call into a package module
goes through `Op.call(layer, fn, ...)`, so a traced run can split the op
time by layer without touching the package.

Inputs.  The discrete coordinates of the j-th op of a kind (alpha, mu, n,
oracle orders, and the bins of t, t1 and zeta) come from a fixed design
indexed by j, and the seed draws the continuous coordinates inside their
bins.  Every run of a workload therefore has the same mix of corners and
the same mix of costs, while different seeds give different inputs.  An
exact op's zeta and t bins are one two-hundredth of their ranges, so the
share of exact ops that fail moves little with the seed.  Decimal inputs are strings,
as the CLI passes them.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter

import mpmath as mp

import dlaguerre
from dlaguerre import (PrecisionCtx, PVParams, StepControl, WeightParams,
                       build_moment_table, dN_by_quadrature, dN_kernel,
                       delta_by_quadrature, epsilon_eval, evolve,
                       gram_schmidt_recurrence, hankel_determinant,
                       inner_product, ladder_integrals, moment_closed_form,
                       moment_quadrature, orthopoly_eval, pv_residual,
                       recurrence_coefficients, series_init, stieltjes_eval,
                       theta_kappa_from_recurrence, to_hamiltonian, to_mpf,
                       verify_identities, workprec)
from dlaguerre.hankel import epsilon_derivative_eval
from dlaguerre.painleve import ab_flow_check, hamilton_map_residual
from dlaguerre.semiclassical import (ladder_ab_at, ladder_ab_by_quadrature,
                                     omega_poly, polyval, theta_poly,
                                     v_poly, w_poly)
from tracer import NullTracer

PREC = PrecisionCtx()                    # the CLI default: 256 bits, 1e-30
QPREC = PrecisionCtx(192, "1e-28")       # verify's quadrature-check context
IPREC = PrecisionCtx(192, "1e-25")       # inner products, tests/test_oracle.py
GSPREC = PrecisionCtx(256, "1e-45")      # Gram-Schmidt, tests/test_oracle.py
DIGITS_CAP = PREC.decimal_digits         # digits credited to an exact match

# the evolve subcommand's step control, built as cmd_evolve builds it
with mp.workprec(53):
    FLOW_CTRL = StepControl(rtol="1e-18", atol=str(to_mpf("1e-18") * 1e-6))
FLOW_T0 = "1e-3"

WORKLOADS = ("exact", "crossval")

# (alpha, mu) cells, ordered so that any few consecutive ops mix even and
# odd alpha, the corners alpha = 0 and alpha + mu <= 1, and every mu.
COMBOS = ((2, 2), (0, 0), (3, 1), (4, 3), (1, 0), (2, 1), (0, 3), (3, 2),
          (4, 0), (1, 1), (2, 3), (0, 1), (3, 3), (4, 1), (1, 2), (2, 0),
          (0, 2), (3, 0), (4, 2), (1, 3))
# the flow needs alpha + mu >= 2 (series_init's domain is alpha + mu > 1)
FLOW_COMBOS = ((2, 2), (3, 1), (4, 0), (1, 3), (0, 2), (2, 3), (4, 1),
               (3, 0), (1, 2), (0, 3), (2, 1), (4, 2), (3, 3), (1, 1),
               (2, 0), (4, 3), (3, 2))
# zeta and t bins of exact ops: as many as a panel has ops, so each panel op
# has a bin of its own in each coordinate (a Latin hypercube; 77 and 133 are
# prime to it) and the seed moves an op only inside its narrow bins
EXACT_STRATA = 200
# (Delta_N order, D_N order): exactly one O(m^2) mpmath tensor call per op
TENSOR_CYCLE = ((1, 2), (2, 1), (3, 2))


PACKAGE_DIR = os.path.dirname(os.path.abspath(dlaguerre.__file__)) + os.sep


def from_package(exc: BaseException) -> bool:
    """True when exc was raised inside (or passed through) the package.

    Such an exception is an outcome of the op, typed DLaguerreError or not;
    one raised by the benchmark's own code is a bug and propagates.
    """
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename.startswith(PACKAGE_DIR):
            return True
        tb = tb.tb_next
    return False


def _dec(x: float) -> str:
    return f"{x:.6g}"


def _log_bin(rng, lo, hi, n_bins, b):
    """Log-uniform draw inside bin b of n_bins log-spaced bins of [lo, hi]."""
    a = math.log(lo) + (math.log(hi) - math.log(lo)) * b / n_bins
    w = (math.log(hi) - math.log(lo)) / n_bins
    return math.exp(a + w * rng.random())


def _grid_t(lo, hi, n_bins, b):
    """Log-centre of bin b, to three digits: a fixed design value.

    Oracle ops take t from this grid, not from the seed: whether the tensor
    oracles keep the jump factor on [t, t + 2] depends on how t's decimal
    rounds at 128 bits (see README.md), so a seeded t would make each op a
    coin flip and a panel of three oracle ops could not give steady failure
    figures.  The grid's first value, 0.0117, rounds down, so the defect
    shows in every panel.
    """
    return f"{math.exp(math.log(lo) + math.log(hi / lo) * (b + 0.5) / n_bins):.3g}"


def _lin_bin(rng, lo, hi, n_bins, b):
    w = (hi - lo) / n_bins
    return lo + w * (b + rng.random())


def make_input(kind: str, rng: random.Random, i: int) -> dict:
    """Inputs of the i-th op of a kind: the design cell of position i,
    drawn inside by rng."""
    if kind == "exact":
        alpha, mu = COMBOS[i % len(COMBOS)]
        return {"op": kind, "alpha": alpha, "mu": mu,
                "zeta": _dec(_lin_bin(rng, -2.0, 0.9, EXACT_STRATA,
                                      (77 * i) % EXACT_STRATA)),
                "t": _dec(_log_bin(rng, 0.01, 5.0, EXACT_STRATA,
                                   (133 * i) % EXACT_STRATA)),
                "n_max": 3 + i % 6}
    if kind == "oracle":
        alpha, mu = COMBOS[i % len(COMBOS)]
        n_delta, n_dn = TENSOR_CYCLE[i % len(TENSOR_CYCLE)]
        y1 = rng.uniform(3.0, 8.0)
        y2 = y1 if i % 2 else y1 + rng.uniform(1.0, 3.0)   # odd i: confluent
        return {"op": kind, "alpha": alpha, "mu": mu,
                "zeta": _dec(_lin_bin(rng, -2.0, 0.9, 30, (9 * i) % 30)),
                "t": _grid_t(0.01, 5.0, 20, (7 * i) % 20),
                "n": 1 + (i // 3) % 3, "delta_N": n_delta, "dN_N": n_dn,
                "y1": _dec(y1), "y2": _dec(y2)}
    if kind == "flow":
        alpha, mu = FLOW_COMBOS[i % len(FLOW_COMBOS)]
        return {"op": kind, "alpha": alpha, "mu": mu,
                "zeta": _dec(_lin_bin(rng, -1.0, 0.9, 30, (9 * i + 3) % 30)),
                "n": 1 + i % 4,
                "t1": _dec(_log_bin(rng, 0.05, 3.0, 48, (15 * i + 27) % 48))}
    raise ValueError(f"unknown op kind {kind!r}")


def list_inputs(workload: str, seed: int, count: int) -> list:
    """The first `count` op inputs of (workload, seed), reproducibly.
    Each kind of op draws from its own stream, so a crossval panel's
    oracle ops do not depend on its flow ops."""
    kinds = {"exact": ("exact",), "crossval": ("oracle", "flow")}[workload]
    rngs = {k: random.Random(f"{k}:{seed}") for k in kinds}
    return [make_input(kinds[i % len(kinds)], rngs[kinds[i % len(kinds)]],
                       i // len(kinds)) for i in range(count)]


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------


def rel_err(got, want):
    """|got - want| / max(|want|, 1e-30), as tests/conftest.py measures it."""
    with mp.extraprec(20):
        return abs(got - want) / max(abs(want), mp.mpf(1e-30))


def rel_terms(terms):
    """|sum| / max(|term|, 1): the residual measure of semiclassical.Report."""
    with mp.extraprec(20):
        return abs(mp.fsum(terms)) / max([abs(v) for v in terms] + [mp.mpf(1)])


class Op:
    """State of one op: gate results, raised calls, skipped calls."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.worst = 0.0          # worst relative cross-route disagreement
        self.missed = []          # gates missed
        self.raised = []          # "function:ExceptionType" per raising call
        self.skipped = []         # calls outside their documented domain
        self.key = {}             # numbers the CLI-mirror self-test compares
        self.counts = Counter()   # this op's share of the tracer's counters
        self.current = None

    def call(self, layer, fn, *args, **kwargs):
        self.current = fn.__qualname__
        return self.tracer.call(layer, fn, *args, **kwargs)

    def count(self, key, value=1):
        self.counts[key] += value
        self.tracer.count(key, value)

    def gate(self, name, rel, bound, passed=None):
        rel = float(rel)
        if not math.isfinite(rel):
            rel = math.inf
        self.worst = max(self.worst, rel)
        ok = rel <= bound if passed is None else passed
        if not ok:
            self.missed.append(name)

    def fail(self, exc):
        self.raised.append(f"{self.current}:{type(exc).__name__}")

    @property
    def status(self) -> str:
        if self.raised:
            return "raised"
        return "miss" if self.missed else "pass"

    @property
    def outcome(self) -> tuple:
        """What must repeat when the op is run again on the same input."""
        return (self.status, self.digits, sorted(self.raised),
                sorted(self.missed))

    @property
    def digits(self) -> float:
        """-log10 of the worst disagreement; 0 for an op that raised."""
        if self.raised:
            return 0.0
        if self.worst == 0:
            return float(DIGITS_CAP)
        return min(float(DIGITS_CAP), max(0.0, -math.log10(self.worst)))


def params_of(inp, t=None) -> WeightParams:
    return WeightParams(inp["alpha"], inp["mu"], inp["zeta"],
                        inp["t"] if t is None else t)


def op_exact(inp, op: Op):
    """`dlaguerre verify --fast`: tables, identity battery, a/b flow laws."""
    params = params_of(inp)
    n_max = inp["n_max"]
    with workprec(PREC):
        mom = op.call("moments.closed_form", build_moment_table, params,
                      2 * (n_max + 2) + 1, PREC, cross_check=False)
        tab = op.call("hankel.recurrence", recurrence_coefficients, mom,
                      n_max + 2, PREC)
        rep = op.call("semiclassical.identities", verify_identities, tab, mom,
                      list(range(1, n_max + 1)), PREC, threshold=1e-15,
                      include_quadrature_checks=False)
        op.count("semiclassical.identities.records", len(rep.records))
        op.count("semiclassical.identities.missed_records", len(rep.failures))
        op.gate("identities", rep.max_relative(), 1e-15, rep.all_passed)
        t_mid = to_mpf(params.t)
        grid = mp.linspace(t_mid - t_mid / 10, t_mid + t_mid / 10, 9)
        flow = op.call("painleve.flow_laws", ab_flow_check, params,
                       min(2, n_max), grid, PREC, threshold=1e-8)
        op.count("painleve.flow_laws.records", len(flow.records))
        op.count("painleve.flow_laws.missed_records", len(flow.failures))
        op.gate("flow_laws", flow.max_relative(), 1e-8, flow.all_passed)
    op.key["all_passed"] = rep.all_passed and flow.all_passed


def _crossval_tables(inp, op: Op, params):
    n_tab = inp["n"] + 2
    mom = op.call("moments.closed_form", build_moment_table, params,
                  2 * n_tab + 1, PREC, cross_check=False)
    tab = op.call("hankel.recurrence", recurrence_coefficients, mom, n_tab,
                  PREC)
    return mom, tab


def _crossval_tensor(inp, op: Op, params, mom, tab):
    """Criterion 8: tensor-quadrature Delta_N and D_N vs determinant/kernel."""
    n_delta, n_dn = inp["delta_N"], inp["dN_N"]
    layer = "oracle.tensor_f64" if n_delta == 3 else "oracle.tensor_mp"
    res = op.call(layer, delta_by_quadrature, params, n_delta, PREC)
    det = op.call("hankel.reference", hankel_determinant, mom, n_delta, PREC)
    op.gate("delta_N", rel_err(res.value, det), 1e-10)
    y1, y2 = to_mpf(inp["y1"]), to_mpf(inp["y2"])
    res = op.call("oracle.tensor_mp", dN_by_quadrature, params, n_dn, y1, y2,
                  PREC)
    ker = op.call("hankel.reference", dN_kernel, tab, n_dn, y1, y2)
    op.gate("D_N", rel_err(res.value, ker), 1e-10)


def _crossval_moments(inp, op: Op, params):
    """`dlaguerre moments --kmax 12` and criterion 1."""
    rels = []
    for k in range(13):
        cf = op.call("moments.closed_form", moment_closed_form, k, params,
                     PREC)
        q = op.call("moments.quadrature", moment_quadrature, k, params, PREC)
        rel = abs(cf - q) / max(abs(q), mp.mpf(1))
        rels.append(mp.nstr(rel, 5))
        op.gate("moments", rel, 1e-20)
    op.key["moments_rel"] = rels


def _crossval_ladder(inp, op: Op, params, mom, tab):
    """verify's ladder checks: residue integrals and partial fractions."""
    n = inp["n"]
    pair = op.call("semiclassical.aux", theta_kappa_from_recurrence, tab, n)
    if params.alpha >= 1:
        lad = op.call("semiclassical.ladder_quadrature", ladder_integrals,
                      tab, mom, n, QPREC, check_equivalence=False)
        op.gate("ladder_R", rel_terms([lad.R, -pair.R]), 1e-20)
        op.gate("ladder_r", rel_terms([lad.r, -pair.r]), 1e-20)
    else:
        op.skipped.append("ladder_integrals")
    for x in (-2, -1):
        a_q, b_q = op.call("semiclassical.ladder_quadrature",
                           ladder_ab_by_quadrature, tab, n, x, QPREC)
        a_r, b_r = op.call("semiclassical.aux", ladder_ab_at, pair, params, x)
        op.gate("ladder_A", rel_terms([a_q, -a_r]), 1e-20)
        op.gate("ladder_B", rel_terms([b_q, -b_r]), 1e-20)


def _crossval_cauchy(inp, op: Op, params, mom, tab):
    """Casoratian and eps ODE at x = -2, as verify's quadrature half."""
    n = inp["n"]
    x = mp.mpf(-2)
    eps_n = op.call("hankel.cauchy", epsilon_eval, tab, mom, n, x, QPREC)
    eps_m = op.call("hankel.cauchy", epsilon_eval, tab, mom, n - 1, x, QPREC)
    deps_n = op.call("hankel.cauchy", epsilon_derivative_eval, tab, mom, n, x,
                     QPREC)
    pe = op.call("hankel.reference", orthopoly_eval, tab, n, x)
    a_n = op.call("hankel.reference", tab.a, n)
    op.gate("casoratian", rel_terms([pe.value_n * eps_m,
                                     -pe.value_nm1 * eps_n, -1 / a_n]), 1e-20)
    pair = op.call("semiclassical.aux", theta_kappa_from_recurrence, tab, n)
    t = to_mpf(params.t)
    W, V = polyval(w_poly(t), x), polyval(v_poly(params), x)
    TH = polyval(theta_poly(pair.theta), x)
    OM = polyval(omega_poly(n, pair.kappa, params), x)
    op.gate("eps_ode", rel_terms([W * deps_n, -(OM + V) * eps_n,
                                  a_n * TH * eps_m]), 1e-18)


def _crossval_stieltjes(inp, op: Op, params, mom, tab):
    """Stieltjes transform f(-2) against eps_0(-2) = gamma_0 f(-2)."""
    x = mp.mpf(-2)
    stj = op.call("hankel.cauchy", stieltjes_eval, mom, x, QPREC)
    eps_0 = op.call("hankel.cauchy", epsilon_eval, tab, mom, 0, x, QPREC)
    op.gate("stieltjes", rel_terms([tab.gamma[0] * stj, -eps_0]), 1e-20)


def _crossval_orthogonality(inp, op: Op, params, mom, tab):
    """Gram-Schmidt on quadrature moments, and <p_i, p_j> by quadrature."""
    n = inp["n"]
    gs = op.call("oracle.gram_schmidt", gram_schmidt_recurrence, params,
                 n + 1, GSPREC)
    for k in range(1, n + 2):
        op.gate("gram_schmidt_a", rel_err(gs["a"][k], tab.a(k)), 1e-18)
        op.gate("gram_schmidt_b", rel_err(gs["b"][k - 1], tab.b[k - 1]), 1e-18)
    diag = op.call("oracle.inner_product", inner_product, (n, n), tab, mom,
                   IPREC)
    op.gate("inner_product_diag", rel_err(diag, 1), 1e-22)
    off = op.call("oracle.inner_product", inner_product, (n - 1, n), tab, mom,
                  IPREC)
    op.gate("inner_product_offdiag", abs(off), 1e-18)


def op_oracle(inp, op: Op):
    """Independent-route checks at one point.

    The comparison groups are independent: one that raises is tallied and
    the others still run, so every op costs about the same.
    """
    params = params_of(inp)
    with workprec(PREC):
        mom, tab = _crossval_tables(inp, op, params)
        for group in (_crossval_tensor, _crossval_moments, _crossval_ladder,
                      _crossval_cauchy, _crossval_stieltjes,
                      _crossval_orthogonality):
            try:
                if group is _crossval_moments:
                    group(inp, op, params)
                else:
                    group(inp, op, params, mom, tab)
            except Exception as exc:
                if not from_package(exc):
                    raise
                op.fail(exc)


def op_flow(inp, op: Op):
    """`dlaguerre evolve`: series data, DP5(4) flow, endpoint vs Hankel."""
    params = params_of(inp, t=0)
    n = inp["n"]
    with workprec(PREC):
        t0, t1 = to_mpf(FLOW_T0), to_mpf(inp["t1"])
        y0 = op.call("painleve.series", series_init, n, t0, params, PREC)
        traj = op.call("painleve.integrate", evolve, n, t0, t1, params, PREC,
                       FLOW_CTRL, y0=y0)
        op.count("painleve.integrate.steps", traj.steps)
        op.count("painleve.integrate.rejected", traj.rejected)
        pars1 = params.replace_t(t1)
        mom1 = op.call("moments.closed_form", build_moment_table, pars1,
                       2 * (n + 1) + 1, PREC, cross_check=False)
        tab1 = op.call("hankel.recurrence", recurrence_coefficients, mom1,
                       n + 1, PREC)
        ref = op.call("semiclassical.aux", theta_kappa_from_recurrence, tab1,
                      n)
        th1, ka1 = traj.theta[-1], traj.kappa[-1]
        rel_th = abs(th1 - ref.theta) / max(abs(ref.theta), mp.mpf(1e-30))
        op.key["endpoint_vs_hankel_rel"] = mp.nstr(rel_th, 5)
        op.gate("endpoint", max(rel_th, rel_err(ka1, ref.kappa)), 1e-6)
        op.call("painleve.residuals", hamilton_map_residual, ref.theta,
                ref.kappa, n, t1, params, "prop11", PREC)
        lo = max(t0, to_mpf("0.1"))
        if t1 > lo * mp.mpf("1.2"):
            grid = mp.linspace(lo, t1, 121)
            samples = op.call("painleve.residuals", traj.sample, grid)
            qs = [op.call("painleve.residuals", to_hamiltonian, th, ka, tt, n,
                          params, "prop11").q
                  for tt, (th, ka) in zip(grid, samples)]
            pv = op.call("painleve.residuals", PVParams.make, n,
                         params.alpha, params.mu, "prop11")
            op.call("painleve.residuals", pv_residual, grid, qs, pv.alphas,
                    PREC)


OPS = {"exact": op_exact, "oracle": op_oracle, "flow": op_flow}


def run_op(inp: dict, tracer) -> Op:
    """Run one op; failures inside the package become Op state."""
    op = Op(tracer)
    try:
        OPS[inp["op"]](inp, op)
    except Exception as exc:
        if not from_package(exc):
            raise
        op.fail(exc)
    return op


def warm_up(workload: str):
    """Fill the per-process caches at a fixed desk point (not the seed's)."""
    desk = {"alpha": 2, "mu": 2, "zeta": "0.5", "t": "0.3"}
    if workload == "exact":
        run_op(dict(desk, op="exact", n_max=3), NullTracer())
        return
    with workprec(PREC):
        params = params_of(desk)
        moment_quadrature(0, params, PREC)
        delta_by_quadrature(params, 1, PREC)        # Gauss-Legendre node cache
        params = params_of(desk, t=0)
        y0 = series_init(1, to_mpf(FLOW_T0), params, PREC)
        evolve(1, to_mpf(FLOW_T0), to_mpf("1.05e-3"), params, PREC,
               FLOW_CTRL, y0=y0)


def tally(ops) -> Counter:
    """Failures per call and exception type, and gate misses per gate."""
    out = Counter()
    for op in ops:
        out.update(op.raised)
        out.update(f"miss:{g}" for g in set(op.missed))
        out.update(f"skip:{s}" for s in op.skipped)
    return out
