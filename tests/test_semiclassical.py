"""Auxiliary pairs, ladder residues, Lax matrices, and the identity battery."""

import dataclasses
import hashlib
import json
import math
import random

import mpmath as mp
import pytest

import dlaguerre.semiclassical as semiclassical
from dlaguerre import (CrossCheckError, DegenerateTheta, PrecisionCtx, Report,
                       SingularHankel, UnsupportedParameters, WeightParams,
                       build_lax, ladder_integrals, monic_values, table_for,
                       theta_kappa_from_recurrence, verify_identities)
from dlaguerre.moments import TruncSeries
from dlaguerre.semiclassical import (default_x_panel, ladder_ab_at,
                                     ladder_ab_by_quadrature, lax_residues,
                                     lax_x_matrices, omega_poly, polyval,
                                     theta_poly, theta_prev_from_pair,
                                     two_v_poly, v_poly, w_poly,
                                     theta_degree_bound, omega_degree_bound)
from dlaguerre.painleve import ab_flow_check
from dlaguerre.quadrature import weighted_nodes
from conftest import rel_err

# regression baselines at alpha=2, mu=2, zeta=0.5, t=0.3 (320-bit pipeline)
THETA_2_BASELINE = "-0.13733967369188817190637695988814525803161470736382"
KAPPA_2_BASELINE = "0.56578926767513431051580043237408483388655833994388"


def structural_correspondence_residual():
    """Symbolic check that the (R, r) sum recurrence maps onto the
    (theta, kappa) sum recurrence under R = (th+t)/t, r = k/t - (n+m/2).

    Returns the sympy-simplified difference (0 when the correspondence is
    exact); evaluated on coefficient arrays, not numerically.
    """
    import sympy as sp

    t, n, al, mu = sp.symbols("t n alpha mu", positive=True)
    th, ka, kb = sp.symbols("theta kappa_n kappa_np1")
    R = (th + t) / t
    r_n = ka / t - (n + mu / 2)
    r_np1 = kb / t - ((n + 1) + mu / 2)
    ladder_form = r_np1 + r_n - al + R * (mu + al + 2 * n + 1 + t * R - t)
    theta_form = kb + ka + th * (th + t + 2 * n + al + 1 + mu)
    return sp.simplify(sp.expand(t * ladder_form - theta_form))


class TestAuxPair:
    def test_origin_vanishes(self, tables_origin):
        _, tab = tables_origin
        for n in range(5):
            pair = theta_kappa_from_recurrence(tab, n)
            assert pair.theta == 0
            assert pair.kappa == 0

    def test_small_t_leading_term(self, prec):
        """theta ~ -(mu/(alpha+mu)) t to leading order at t = 0.01."""
        p = WeightParams(2, 2, "0.5", "0.01")
        _, tab = table_for(p, 2, prec)
        pair = theta_kappa_from_recurrence(tab, 1)
        assert rel_err(pair.theta, mp.mpf("-0.005")) < 1e-2

    def test_regression_baseline(self, tables_main):
        _, tab = tables_main
        pair = theta_kappa_from_recurrence(tab, 2)
        with mp.workprec(256):
            assert rel_err(pair.theta, mp.mpf(THETA_2_BASELINE)) < 1e-45
            assert rel_err(pair.kappa, mp.mpf(KAPPA_2_BASELINE)) < 1e-45

    def test_equivalence_fields(self, tables_main):
        _, tab = tables_main
        with mp.workprec(256):
            for n in range(1, 5):
                pair = theta_kappa_from_recurrence(tab, n)
                t = mp.mpf("0.3")
                assert rel_err(pair.R, (pair.theta + t) / t) < 1e-60
                assert rel_err(pair.r, pair.kappa / t - (n + 1)) < 1e-60


class TestLadderIntegrals:
    def test_small_t_limit(self, prec):
        """R_n -> alpha/(alpha+mu) = 0.5 as t -> 0+."""
        p = WeightParams(2, 2, "0.5", "0.001")
        mom, tab = table_for(p, 3, prec)
        pair = ladder_integrals(tab, mom, 1, PrecisionCtx(192, "1e-25"))
        assert rel_err(pair.R, mp.mpf("0.5")) < 1e-2

    def test_sum_rule(self, tables_main):
        """a_n^2 R_{n-1} R_n = r_n (r_n - alpha) at n = 2."""
        mom, tab = tables_main
        qp = PrecisionCtx(192, "1e-25")
        p1 = ladder_integrals(tab, mom, 1, qp)
        p2 = ladder_integrals(tab, mom, 2, qp)
        with mp.workprec(192):
            lhs = tab.a2[2] * p1.R * p2.R
            rhs = p2.r * (p2.r - 2)
            assert rel_err(lhs, rhs) < 1e-20

    def test_matches_recurrence_route(self, tables_main):
        mom, tab = tables_main
        qp = PrecisionCtx(192, "1e-25")
        with mp.workprec(256):
            for n in range(1, 5):
                li = ladder_integrals(tab, mom, n, qp)
                ref = theta_kappa_from_recurrence(tab, n)
                assert rel_err(li.R, ref.R) < 1e-15
                assert rel_err(li.r, ref.r) < 1e-15

    def test_disagreement_is_cross_check_error(self, tables_main,
                                               monkeypatch):
        """Quadrature (R_n, r_n) off the recurrence route's pair is two
        computation routes disagreeing, so it raises CrossCheckError."""
        mom, tab = tables_main
        good = theta_kappa_from_recurrence(tab, 1)
        with mp.workprec(256):
            off = dataclasses.replace(good, R=good.R * (1 + mp.mpf("1e-10")))
        monkeypatch.setattr(semiclassical, "theta_kappa_from_recurrence",
                            lambda table, n: off)
        with pytest.raises(CrossCheckError, match="disagrees"):
            ladder_integrals(tab, mom, 1, PrecisionCtx(192, "1e-25"))

    @pytest.mark.parametrize("alpha, mu", [(2, 2), (0, 2), (0, 0), (0, 1),
                                           (2, 0)])
    def test_ab_quadrature_matches_residues(self, prec, alpha, mu):
        """The defining A_n, B_n integrals, with their boundary terms where
        w jumps (at 0 when mu = 0, at t when alpha = 0), match the partial
        fractions of the residue data."""
        p = WeightParams(alpha, mu, "0.5", "0.3")
        _, tab = table_for(p, 4, prec, cross_check=False)
        qp = PrecisionCtx(192, "1e-28")
        with mp.workprec(256):
            for n in (1, 2):
                pair = theta_kappa_from_recurrence(tab, n)
                for x in (-2, -1):
                    got = ladder_ab_by_quadrature(tab, n, x, qp)
                    want = ladder_ab_at(pair, p, x)
                    for g, w in zip(got, want):
                        assert rel_err(g, w) < 1e-25

    @pytest.mark.parametrize("point", [(2, 2, "0.5"), (1, 0, "0.5"),
                                       (3, 1, "-0.7")])
    def test_ab_at_t_zero_matches_quadrature(self, prec, point):
        """At t = 0 the pair has no residues (R_n = None), which raised a
        TypeError; the partial fractions are (1/x, -n/x) whatever they
        are."""
        p = WeightParams(*point, 0)
        _, tab = table_for(p, 3, prec, cross_check=False)
        qp = PrecisionCtx(192, "1e-28")
        with mp.workprec(256):
            for n in range(4):
                pair = theta_kappa_from_recurrence(tab, n)
                for x in (-1, -2):
                    got = ladder_ab_at(pair, p, x)
                    want = ladder_ab_by_quadrature(tab, n, x, qp)
                    for g, w in zip(got, want):
                        assert abs(g - w) < 1e-55

    def test_alpha_zero_unsupported(self, prec):
        p = WeightParams(0, 2, "0.5", "0.3")
        mom, tab = table_for(p, 2, prec)
        with pytest.raises(UnsupportedParameters):
            ladder_integrals(tab, mom, 1, prec)


class TestLax:
    def test_traces(self, tables_main):
        _, tab = tables_main
        with mp.workprec(256):
            for n in (1, 2, 3):
                A0, At, _, _ = build_lax(tab, n)
                assert rel_err(A0[0][0] + A0[1][1], -2) < 1e-60
                assert rel_err(At[0][0] + At[1][1], -2) < 1e-60

    def test_residue_tuple_carries_the_x_system(self, tables_main,
                                                params_main):
        """build_lax is lax_residues at the table's t with theta_{n-1}
        eliminated, and A(x) from lax_x_matrices carries (P_n, P_{n-1})
        along x: d/dx P = A P, P' read off an order-1 x-jet."""
        _, tab = tables_main
        with mp.workprec(256):
            t, x = mp.mpf("0.3"), mp.mpf(-1)
            for n in (1, 2, 3):
                pair = theta_kappa_from_recurrence(tab, n)
                res = build_lax(tab, n)
                assert res == lax_residues(
                    n, t, pair.theta, theta_prev_from_pair(pair, params_main),
                    pair.kappa, tab.a2[n], params_main)
                A, _ = lax_x_matrices(*res, t, x)
                P = monic_values(tab, n, TruncSeries([x, 1]))
                vec = P[n].c, P[n - 1].c
                for i in (0, 1):
                    assert rel_err(A[i][0] * vec[0][0] + A[i][1] * vec[1][0],
                                   vec[i][1]) < 1e-60

    def test_omega0_equals_v(self, tables_main, params_main):
        _, tab = tables_main
        with mp.workprec(256):
            pair = theta_kappa_from_recurrence(tab, 0)
            om0 = omega_poly(0, pair.kappa, params_main)
            vv = v_poly(params_main)
            for a, b in zip(om0, vv):
                assert abs(a - b) < mp.mpf("1e-60")

    def test_theta_elimination_matches_table(self, tables_main, params_main):
        _, tab = tables_main
        with mp.workprec(256):
            for n in (1, 2, 3):
                pair = theta_kappa_from_recurrence(tab, n)
                got = theta_prev_from_pair(pair, params_main)
                want = theta_kappa_from_recurrence(tab, n - 1).theta
                assert rel_err(got, want) < 1e-55

    def test_degenerate_at_origin(self, tables_origin, params_origin):
        _, tab = tables_origin
        pair = theta_kappa_from_recurrence(tab, 1)
        with pytest.raises(DegenerateTheta):
            theta_prev_from_pair(pair, params_origin)

    def test_degree_bounds(self, tables_main, params_main):
        """Theta_n degree 1 leading -1; Omega_n degree 2 leading -1/2."""
        _, tab = tables_main
        assert theta_degree_bound() == 1
        assert omega_degree_bound() == 2
        pair = theta_kappa_from_recurrence(tab, 2)
        th_poly = theta_poly(pair.theta)
        om_poly = omega_poly(2, pair.kappa, params_main)
        assert len(th_poly) - 1 == theta_degree_bound()
        assert len(om_poly) - 1 == omega_degree_bound()
        assert th_poly[0] == -1
        assert om_poly[0] == mp.mpf("-0.5")


class TestIdentitySuite:
    def test_aux_pair_sum_example(self, tables_main, params_main):
        """kappa_{n+1} + kappa_n + theta_n(theta_n+t+2n+alpha+1+mu) = 0."""
        _, tab = tables_main
        with mp.workprec(256):
            t = mp.mpf("0.3")
            for n in (1, 2, 3):
                pn = theta_kappa_from_recurrence(tab, n)
                pp = theta_kappa_from_recurrence(tab, n + 1)
                resid = pp.kappa + pn.kappa + pn.theta * (
                    pn.theta + t + 2 * n + 2 + 1 + 2)
                assert abs(resid) < mp.mpf("1e-18")

    def test_freud_product_at_bn_trivial(self, tables_main, params_main):
        """At x = b_n the product form forces Omega_{n+1}(b_n) = -Omega_n(b_n)."""
        _, tab = tables_main
        with mp.workprec(256):
            n = 2
            p1 = theta_kappa_from_recurrence(tab, n)
            p2 = theta_kappa_from_recurrence(tab, n + 1)
            x = tab.b[n]
            s = polyval(omega_poly(n + 1, p2.kappa, params_main), x) \
                + polyval(omega_poly(n, p1.kappa, params_main), x)
            assert abs(s) < mp.mpf("1e-60")

    def test_theta_product_example(self, tables_main):
        """a_n^2 theta_n theta_{n-1} = kappa_n^2 - mu^2 t^2/4 at n = 2."""
        _, tab = tables_main
        with mp.workprec(256):
            p2 = theta_kappa_from_recurrence(tab, 2)
            p1 = theta_kappa_from_recurrence(tab, 1)
            t = mp.mpf("0.3")
            lhs = tab.a2[2] * p2.theta * p1.theta
            rhs = p2.kappa ** 2 - t * t
            assert rel_err(lhs, rhs) < 1e-60

    def test_panel_avoids_support_endpoints(self, params_main):
        panel = default_x_panel("0.3")
        assert all(x != 0 and x != mp.mpf("0.3") for x in panel)

    def test_fast_suite_passes(self, tables_main, prec):
        mom, tab = tables_main
        rep = verify_identities(tab, mom, [1, 2, 3], prec,
                                include_quadrature_checks=False)
        assert rep.all_passed
        assert rep.max_relative() < 1e-15

    def test_report_schema_and_failures(self, tables_main, prec):
        mom, tab = tables_main
        rep = verify_identities(tab, mom, [1], prec, threshold=1e-80,
                                lax_threshold=1e-80,
                                include_quadrature_checks=False)
        assert not rep.all_passed
        assert len(rep.failures) > 0
        doc = rep.to_dict()
        assert doc["n_failures"] == len(rep.failures)
        rec = doc["records"][0]
        for key in ("id", "formula", "n", "point", "residual", "scale",
                    "relative", "threshold", "passed"):
            assert key in rec
        assert rep.to_json().startswith("{")

    def test_full_suite_at_alpha_zero(self, prec):
        """At alpha = 0 the residue-integral pair is left out (w/(y-t) is not
        integrable there); the other quadrature checks still run and pass."""
        p = WeightParams(0, 2, "0.5", "0.3")
        mom, tab = table_for(p, 3, prec)
        rep = verify_identities(tab, mom, [1, 2], prec,
                                include_quadrature_checks=True)
        assert isinstance(rep, Report)
        ids = {r.check_id for r in rep.records}
        assert {"ladder_partial_fraction_A", "ladder_partial_fraction_B",
                "casoratian", "eps_ode"} <= ids
        assert not ids & {"rr_integral_equivalence_R",
                          "rr_integral_equivalence_r"}
        assert rep.all_passed

    def test_structural_correspondence_symbolic(self):
        assert structural_correspondence_residual() == 0

    def test_signed_weight_odd_alpha(self, prec):
        """alpha = 1 makes the weight signed on (0, t); the determinant
        machinery and the scalar recurrences still hold."""
        p = WeightParams(1, 2, "0.5", "0.3")
        from dlaguerre import build_moment_table, recurrence_coefficients
        mom = build_moment_table(p, 11, prec)
        tab = recurrence_coefficients(mom, 5, prec)
        with mp.workprec(256):
            t = mp.mpf("0.3")
            for n in (1, 2, 3):
                pn = theta_kappa_from_recurrence(tab, n)
                pp = theta_kappa_from_recurrence(tab, n + 1)
                pm = theta_kappa_from_recurrence(tab, n - 1)
                sum_rule = pp.kappa + pn.kappa + pn.theta * (
                    pn.theta + t + 2 * n + 1 + 1 + 2)
                product = tab.a2[n] * pn.theta * pm.theta \
                    - (pn.kappa ** 2 - 4 * t * t / 4)
                assert abs(sum_rule) < mp.mpf("1e-60")
                assert abs(product) < mp.mpf("1e-60")

    def test_negative_mass_returns_records(self, prec):
        """mu_0 = -4 at (1, 0, 0.9, 5): gamma_0 is not real, so the
        orthonormal view refuses, but the battery runs on monic data and
        every record passes."""
        mom, tab = table_for(WeightParams(1, 0, "0.9", "5"), 4, prec)
        assert mom[0] < 0 and tab.gamma[0] is None
        with pytest.raises(SingularHankel):
            tab.a(3)
        rep = verify_identities(tab, mom, [1, 2, 3], prec,
                                include_quadrature_checks=False)
        assert len(rep.records) == 213 and rep.all_passed

    def test_real_mu_quadrature_pipeline(self):
        """Non-integer mu runs on the quadrature path end to end and the
        scalar sum recurrence still holds (weight read as (x-t)^a x^mu)."""
        p = WeightParams(2, "1.5", "0.5", "0.3")
        from dlaguerre import build_moment_table, recurrence_coefficients
        qprec = PrecisionCtx(256, "1e-35")
        mom = build_moment_table(p, 9, qprec, source="quadrature")
        tab = recurrence_coefficients(mom, 4, qprec)
        with mp.workprec(256):
            t, mu = mp.mpf("0.3"), mp.mpf("1.5")
            for n in (1, 2, 3):
                pn = theta_kappa_from_recurrence(tab, n)
                pp = theta_kappa_from_recurrence(tab, n + 1)
                sum_rule = pp.kappa + pn.kappa + pn.theta * (
                    pn.theta + t + 2 * n + 2 + 1 + mu)
                assert abs(sum_rule) < mp.mpf("1e-40")

    def test_real_mu_full_battery_returns_records(self, prec):
        """Non-integer mu with the quadrature checks on: the grading around
        x^mu's branch point used to put a panel end a rounding error above t
        (7.6e-65 at 212 bits), a panel whose nodes all sat on t, and the
        residue integrand w/(y-t) then divided by zero."""
        p = WeightParams(2, "1.5", "0.5", "0.3")
        with mp.workprec(212):
            xs = weighted_nodes(p, 10).xs
            assert all(mp.make_mpf(x) != mp.mpf("0.3") for x in xs)
        mom, tab = table_for(p, 2, prec, source="quadrature", cross_check=False)
        rep = verify_identities(tab, mom, [1], prec)
        ids = {r.check_id for r in rep.records}
        assert {"rr_integral_equivalence_R", "ladder_partial_fraction_A",
                "casoratian"} <= ids
        assert rep.all_passed

    @pytest.mark.parametrize("n_range", [[], range(1, 1), [2, -1]])
    def test_n_range_without_a_valid_n(self, tables_main, prec, n_range):
        """An empty n_range, or one with a negative n, is a typed error
        that names n_range (an empty one raised ValueError from max)."""
        moments, tab = tables_main
        with pytest.raises(UnsupportedParameters, match="n_range"):
            verify_identities(tab, moments, n_range, prec,
                              include_quadrature_checks=False)

    def test_n_range_past_the_table(self, params_main, prec):
        """n = 3 needs theta_4, past a table with n_max = 3: a typed error
        naming n_range and n_max (it was an untyped ValueError)."""
        moments, tab = table_for(params_main, 3, prec)
        with pytest.raises(UnsupportedParameters, match="n_range.*n_max = 3"):
            verify_identities(tab, moments, [3], prec,
                              include_quadrature_checks=False)

    def test_partial_fractions_need_mu_above_one(self, prec):
        """y^mu/y is not integrable by the Jacobi panel for 0 < mu < 1."""
        p = WeightParams(2, "0.5", "0.5", "0.3")
        mom, tab = table_for(p, 2, prec, source="quadrature", cross_check=False)
        with pytest.raises(UnsupportedParameters):
            ladder_ab_by_quadrature(tab, 1, -1, prec)

    def test_desk_point_record_layout(self, params_main, prec):
        """`dlaguerre verify` at the desk point: 240 identity and 22 flow
        records, in the same order with the same ids and points.  The flow
        records are 4 laws at s^0 .. s^4 about the middle node, then the
        deformation and zero-curvature records."""
        mom, tab = table_for(params_main, 5, prec)
        rep = verify_identities(tab, mom, [1, 2, 3], prec)
        with mp.workprec(256):
            tm = mp.mpf("0.3")
            grid = mp.linspace(tm - tm / 10, tm + tm / 10, 9)
        flow = ab_flow_check(params_main, 2, grid, prec, threshold=1e-15)
        assert rep.all_passed and flow.all_passed
        for report, count, digest in ((rep, 240, "4896dace98f2d660"),
                                      (flow, 22, "abe1efddb350f845")):
            keys = [(r.check_id, r.n, r.point) for r in report.records]
            assert len(keys) == count
            # fingerprint of the ordered (id, n, point) list
            assert hashlib.sha256(
                json.dumps(keys).encode()).hexdigest()[:16] == digest
        points = {r.point for r in rep.records}
        assert points == {"coeff", "-", "-2.0", "-1.0", "-0.5", "0.15", "0.6"}

    def test_polynomial_data(self, params_main):
        with mp.workprec(128):
            W = w_poly("0.3")
            tv = two_v_poly(params_main)
            # W = x(x - t); 2V = -x^2 + (alpha+mu+t)x - mu t
            assert [str(c) for c in W] == ["1.0", "-0.3", "0.0"]
            assert rel_err(tv[0], -1) < 1e-30
            assert rel_err(tv[1], mp.mpf("4.3")) < 1e-30
            assert rel_err(tv[2], mp.mpf("-0.6")) < 1e-30


# signed weights (odd alpha: a_2^2, a_3^2 < 0 at the first point; a_1^2,
# a_2^2, a_4^2, a_5^2 < 0 at the second; mu_0 < 0 at the third),
# alpha + mu <= 1, and t at both ends of the range
CONTRACT_POINTS = [
    (1, 0, "-0.429535", "0.604487", 7), (3, 2, "-0.85424", "3.87196", 6),
    (1, 0, "0.9", "5", 3), (0, 1, "0.5", "0.3", 3), (1, 0, "-2", "0.3", 3),
    (0, 0, "0.5", "0.3", 3), (2, 2, "0.5", "1e-3", 3), (3, 1, "-0.7", "10", 3)]


class TestFailuresBecomeRecords:
    @pytest.mark.parametrize("alpha, mu, zeta, t, n_max", CONTRACT_POINTS)
    def test_battery_and_flow_laws_return_records(self, prec, alpha, mu,
                                                  zeta, t, n_max):
        """verify_identities (fast over n <= n_max; full over n <= 2 where
        alpha >= 1) and ab_flow_check return records and raise nothing;
        here every record passes."""
        p = WeightParams(alpha, mu, zeta, t)
        mom, tab = table_for(p, n_max + 2, prec, cross_check=False)
        reports = [verify_identities(tab, mom, list(range(1, n_max + 1)),
                                     prec, include_quadrature_checks=False)]
        if alpha >= 1:
            reports.append(verify_identities(tab, mom, [1, 2], prec))
        with mp.workprec(256):
            tm = mp.mpf(t)
            grid = mp.linspace(tm - tm / 10, tm + tm / 10, 9)
        reports.append(ab_flow_check(p, 2, grid, prec, threshold=1e-15))
        for rep in reports:
            assert rep.records and rep.all_passed, rep.failures[:3]


class TestTIndependentWeight:
    @pytest.mark.parametrize("mu", [0, 2])
    def test_batteries_leave_out_undefined_records(self, prec, mu):
        """(alpha, zeta) = (0, 0): the weight does not depend on t, so
        theta_n = -t and R_n = 0.  The fast and full batteries leave out
        rr_a2 (it divides by R_n) and the Lax rows (the theta_{n-1}
        elimination degenerates) and return records; every one passes."""
        p = WeightParams(0, mu, 0, "0.3")
        mom, tab = table_for(p, 5, prec, cross_check=False)
        for n_range, quad in (([1, 2, 3], False), ([1, 2], True)):
            rep = verify_identities(tab, mom, n_range, prec,
                                    include_quadrature_checks=quad)
            ids = {r.check_id for r in rep.records}
            assert "rr_rec_ratio" in ids
            assert not ids & {"rr_a2", "lax_x_ode_row1", "lax_x_ode_row2"}
            assert rep.all_passed, rep.failures[:3]


def _operator_record(terms, threshold):
    """residual, scale and passed as Report.add defines them, written with
    mpf operators under mp.extraprec(20)."""
    with mp.extraprec(20):
        resid = abs(mp.fsum(terms))
        scale = max(max(map(abs, terms)), 1)
    return float(resid), float(scale), bool(resid <= mp.mpf(threshold) * scale)


class TestReportAdd:
    @pytest.mark.parametrize("bits", [256, 276])
    def test_matches_operator_form(self, bits):
        """Same residual, scale and passed flag as the operator form, at the
        battery's width and at the flow laws' 20 extra bits, on terms that
        carry more bits than the sum keeps."""
        rng = random.Random(11)
        with mp.workprec(bits):
            third = mp.mpf(1) / 3
            with mp.workprec(bits + 60):
                fine = [mp.mpf(1) / 7, -mp.mpf(1) / 7 + mp.mpf(2) ** -250]
            cases = [
                ([3, -2, -1], 1e-15),                         # ints, sum 0
                ([third, -third], 1e-15),                     # exactly zero
                ([mp.mpf("1e-5"), mp.mpf("-2e-7"), 3], 1e-20),
                ([mp.mpf("1e-5"), mp.mpf("-2e-7"), mp.mpf("3e-9")], 1e-8),
                ([mp.mpf("1e40"), -mp.mpf("1e40"), mp.mpf("1e-30"), -2],
                 1e-18),                                      # mixed sizes
                (fine, 1e-75),
                ([mp.mpf(1), -(1 + mp.mpf("1e-15"))], 1e-15),
                ([mp.mpf(1), -(1 + mp.mpf("1e-15"))], 0.999e-15),
                # residual exactly threshold * scale, scale with many bits
                ([4 * third, -4 * third, third / 2 ** 38], 2.0 ** -40),
            ]
            for _ in range(200):
                terms = [mp.mpf(rng.uniform(-1, 1)) * 10 ** rng.randint(-40, 40)
                         for _ in range(rng.randint(1, 6))]
                # land the residual near threshold * scale, on either side
                thr = 10.0 ** rng.randint(-30, -5)
                big = max(map(abs, terms))
                terms.append(-mp.fsum(terms) + thr * max(big, 1)
                             * (1 + rng.choice((-1, 1)) * 2.0 ** -30))
                cases.append((terms, thr))
            rep = Report("t", {})
            for terms, thr in cases:
                rec = rep.add("c", "f", 0, "-", terms, thr)
                assert (rec.residual, rec.scale, rec.passed) == \
                    _operator_record(terms, thr), terms
            assert {rec.passed for rec in rep.records} == {True, False}

    @pytest.mark.parametrize("terms", [
        ["1e400", "-1e400"],                        # scale beyond a float
        ["1e400", "1e400", "1"]])                   # residual and scale
    def test_term_beyond_the_float_range_fails_with_a_note(self, terms):
        """A residual or scale that no finite float holds fails whatever
        the threshold, and the report stays valid JSON: no nan or
        infinity, which a strict parser refuses.  The record keeps its
        relative residual, a finite float, and max_relative counts it."""
        rep = Report("t", {})
        with mp.workprec(256):
            vals = [mp.mpf(v) for v in terms]
            rec = rep.add("c", "f", 0, "-", vals, 1e300)
            rep.add("d", "f", 0, "-", [mp.mpf(1), -mp.mpf(1)], 1e-15)
            want = float(abs(mp.fsum(vals)) / max(map(abs, vals)))
        assert not rec.passed and not rep.all_passed
        assert (rec.residual, rec.scale) == (None, None)
        assert rec.note.endswith("do not fit a finite float")
        assert rec.relative == want and math.isfinite(want)
        assert rep.max_relative() == rec.relative

        def refuse(token):
            raise ValueError(token)

        doc = json.loads(rep.to_json(), parse_constant=refuse)
        assert doc["n_failures"] == 1 and doc["records"][0]["residual"] is None
        assert doc["records"][0]["relative"] == want
