"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Desk-scale grid: alpha=2, mu=2, zeta=0.5, n <= 4, t in [1e-3, 0.5], 256-bit
arithmetic throughout (oracles may run at their documented lower tiers).
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import random

import mpmath as mp
import pytest

from dlaguerre import (PVParams, PrecisionCtx, WeightParams, dN_by_quadrature,
                       dN_kernel, delta_by_quadrature, evolve,
                       hankel_determinant, moment_closed_form,
                       moment_quadrature, table_for,
                       theta_kappa_from_recurrence, to_hamiltonian,
                       verify_identities, pv_residual)
from dlaguerre.painleve import (compatibility_residual, deformation_residual,
                                flow_map_residual)
from conftest import rel_err

PREC = PrecisionCtx()
PARAMS = WeightParams(2, 2, "0.5", "0.3")


def announce(cid: str, passed: bool, detail: str):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {cid}: {tag} — {detail}")
    assert passed, f"criterion {cid} failed: {detail}"


@pytest.fixture(scope="module")
def tables():
    return table_for(PARAMS, 6, PREC)


@pytest.fixture(scope="module")
def identity_report(tables):
    mom, tab = tables
    return verify_identities(tab, mom, [1, 2, 3, 4], PREC,
                             threshold=1e-15, lax_threshold=1e-18,
                             include_quadrature_checks=True)


def test_criterion_1_moment_cross_validation():
    """Closed form vs quadrature to 1e-20 relative, k <= 12, full grid."""
    worst = 0.0
    worst_at = None
    for alpha in (1, 2):
        for mu in (1, 2):
            for zeta in ("0", "0.5", "-1"):
                for t in ("0.1", "0.3", "1"):
                    p = WeightParams(alpha, mu, zeta, t)
                    for k in range(13):
                        cf = moment_closed_form(k, p, PREC)
                        q = moment_quadrature(k, p, PREC)
                        r = rel_err(cf, q)
                        if r > worst:
                            worst, worst_at = r, (alpha, mu, zeta, t, k)
    announce("1 (moment cross-validation)", worst <= 1e-20,
             f"worst relative difference {worst:.3e} at {worst_at} "
             f"(tolerance 1e-20)")


def test_criterion_2_classical_limits():
    """a_n^2(0) = n(n+4), b_n(0) = 2n+5 to 1e-25; Delta_n(0) product to 1e-20."""
    p0 = WeightParams(2, 2, "0.5", 0)
    _, tab = table_for(p0, 6, PREC)
    worst_ab = 0.0
    for n in range(1, 6):
        worst_ab = max(worst_ab, rel_err(tab.a2[n], n * (n + 4)))
        worst_ab = max(worst_ab, rel_err(tab.b[n], 2 * n + 5))
    worst_d = 0.0
    with mp.workprec(256):
        for n in range(1, 6):
            pred = mp.mpf("0.5") ** n
            for k in range(1, n):
                pred *= mp.factorial(k)
            for k in range(n):
                pred *= mp.gamma(5 + k)
            worst_d = max(worst_d, rel_err(tab.delta[n], pred))
    ok = worst_ab <= 1e-25 and worst_d <= 1e-20
    announce("2 (classical limits)", ok,
             f"recurrence worst {worst_ab:.3e} (tol 1e-25), "
             f"determinant worst {worst_d:.3e} (tol 1e-20)")


def test_criterion_3_identity_suite(identity_report, tables):
    """All identity residuals <= 1e-15 relative across the t grid, n <= 4."""
    rep = identity_report
    worst = rep.max_relative()
    n_checks = len(rep.records)
    ok = rep.all_passed
    for t in ("0.001", "0.1", "0.5"):
        p = WeightParams(2, 2, "0.5", t)
        mom_t, tab_t = table_for(p, 6, PREC, cross_check=False)
        rep_t = verify_identities(tab_t, mom_t, [1, 2, 3, 4], PREC,
                                  threshold=1e-15, lax_threshold=1e-18,
                                  include_quadrature_checks=False)
        n_checks += len(rep_t.records)
        worst = max(worst, rep_t.max_relative())
        ok = ok and rep_t.all_passed
    announce("3 (identity suite)", ok,
             f"{n_checks} checks over t in {{1e-3, 0.1, 0.3, 0.5}}, "
             f"worst relative residual {worst:.3e} (tol 1e-15)")


def test_criterion_4_ode_vs_determinant(tables):
    """Evolved (theta, kappa) matches the Hankel pipeline to 1e-25, n <= 4."""
    _, tab = tables
    worst = 0.0
    for n in range(1, 5):
        traj = evolve(n, "0.001", "0.3", PARAMS, PREC)
        ref = theta_kappa_from_recurrence(tab, n)
        _, th, ka = traj.endpoint
        worst = max(worst, rel_err(th, ref.theta), rel_err(ka, ref.kappa))
    announce("4 (flow vs determinants)", worst <= 1e-25,
             f"worst endpoint relative error {worst:.3e} over n = 1..4 "
             f"(tol 1e-25)")


def test_criterion_5_pv_residual():
    """q(t) satisfies the second-order equation; conventions are dual."""
    n = 1
    with mp.workprec(256):
        grid = mp.linspace(mp.mpf("0.1"), mp.mpf("0.5"), 201)
    traj = evolve(n, "0.001", "0.5", PARAMS, PREC, t_eval=grid)
    qs = {"prop11": [], "cor12": []}
    duality = 0.0
    with mp.workprec(256):
        for t, (th, ka) in zip(grid, traj.sample(grid)):
            for conv in qs:
                qs[conv].append(to_hamiltonian(th, ka, t, n, PARAMS, conv).q)
            duality = max(duality, float(abs(qs["prop11"][-1]
                                             * qs["cor12"][-1] - 1)))
    resids = {}
    for conv in qs:
        pv = PVParams.make(n, 2, 2, conv)
        resids[conv] = pv_residual(grid, qs[conv], pv.alphas, PREC)
    ok = (resids["prop11"] <= 1e-8 and resids["cor12"] <= 1e-8
          and duality <= 1e-40)
    announce("5 (Painleve V residual)", ok,
             f"prop11 {resids['prop11']:.3e}, cor12 {resids['cor12']:.3e} "
             f"(tol 1e-8); duality defect {duality:.1e}")


def test_criterion_6_two_theory_equivalence():
    """The (R, r) and (theta, kappa) vector fields agree at 100 random states."""
    rng = random.Random(20260811)
    worst = 0.0
    with mp.workprec(256):
        for _ in range(100):
            n = rng.randint(0, 4)
            t = mp.mpf(rng.randint(5, 50)) / 100
            # admissible: theta outside {0, -t}, R outside {0, 1}
            th = t * (mp.mpf(rng.choice([k for k in range(-30, 31)
                                         if k not in (-10, 0)])) / 10)
            ka = mp.mpf(rng.randint(-300, 300)) / 100
            worst = max(worst, float(flow_map_residual(th, ka, n, t, PARAMS)))
    announce("6 (two-theory equivalence)", worst <= 1e-18,
             f"worst field mismatch {worst:.3e} over 100 states (tol 1e-18)")


def test_criterion_7_lax_consistency(identity_report):
    """x-system residual <= 1e-18; deformation and zero curvature <= 1e-8."""
    lax_recs = [r for r in identity_report.records
                if r.check_id.startswith("lax_x_ode")]
    assert lax_recs, "identity suite produced no x-system records"
    worst_x = max(r.relative for r in lax_recs)
    worst_t = 0.0
    worst_c = 0.0
    for n in (1, 2, 3):
        worst_t = max(worst_t, deformation_residual(PARAMS, n, -1, "0.3", PREC))
        worst_c = max(worst_c, compatibility_residual(PARAMS, n, -1, "0.3", PREC))
    ok = worst_x <= 1e-18 and worst_t <= 1e-8 and worst_c <= 1e-8
    announce("7 (Lax and deformation)", ok,
             f"x-system {worst_x:.3e} (tol 1e-18), deformation {worst_t:.3e},"
             f" zero-curvature {worst_c:.3e} (tol 1e-8)")


def test_criterion_8_brute_force_determinants(tables):
    """Tensor-quadrature Delta_N and D_N agree with the determinant pipeline."""
    mom, tab = tables
    worst_delta = 0.0
    for N in (1, 2, 3):
        res = delta_by_quadrature(PARAMS, N, PREC)
        det = hankel_determinant(mom, N, PREC)
        worst_delta = max(worst_delta, rel_err(res.value, det))
    worst_dn = 0.0
    for N in (1, 2):
        for (y1, y2) in ((5, 7), (4, 4)):
            res = dN_by_quadrature(PARAMS, N, y1, y2, PREC)
            ker = dN_kernel(tab, N, y1, y2)
            worst_dn = max(worst_dn, rel_err(res.value, ker))
    ok = worst_delta <= 1e-10 and worst_dn <= 1e-10
    announce("8 (brute-force equivalence)", ok,
             f"Delta worst {worst_delta:.3e}, D_N worst {worst_dn:.3e} "
             f"(tol 1e-10)")
