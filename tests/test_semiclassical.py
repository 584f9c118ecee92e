"""Auxiliary pairs, ladder residues, Lax matrices, and the identity battery."""

import mpmath as mp
import pytest

from dlaguerre import (DegenerateTheta, PrecisionCtx, Report,
                       UnsupportedParameters, WeightParams, build_lax,
                       ladder_integrals, table_for,
                       theta_kappa_from_recurrence, verify_identities)
from dlaguerre.semiclassical import (default_x_panel, ladder_ab_at,
                                     ladder_ab_by_quadrature, omega_poly,
                                     polyval,
                                     structural_correspondence_residual,
                                     theta_poly, theta_prev_from_pair,
                                     two_v_poly, v_poly, w_poly,
                                     theta_degree_bound, omega_degree_bound)
from conftest import rel_err

# regression baselines at alpha=2, mu=2, zeta=0.5, t=0.3 (320-bit pipeline)
THETA_2_BASELINE = "-0.13733967369188817190637695988814525803161470736382"
KAPPA_2_BASELINE = "0.56578926767513431051580043237408483388655833994388"


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
                lax = build_lax(tab, n)
                assert rel_err(lax.A0[0][0] + lax.A0[1][1], -2) < 1e-60
                assert rel_err(lax.At[0][0] + lax.At[1][1], -2) < 1e-60

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

    def test_polynomial_data(self, params_main):
        with mp.workprec(128):
            W = w_poly("0.3")
            tv = two_v_poly(params_main)
            # W = x(x - t); 2V = -x^2 + (alpha+mu+t)x - mu t
            assert [str(c) for c in W] == ["1.0", "-0.3", "0.0"]
            assert rel_err(tv[0], -1) < 1e-30
            assert rel_err(tv[1], mp.mpf("4.3")) < 1e-30
            assert rel_err(tv[2], mp.mpf("-0.6")) < 1e-30
