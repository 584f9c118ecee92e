"""Hamiltonian wiring, variable maps, flows, series, integration, residuals."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlaguerre import (PVParams, PrecisionCtx, SingularPanel, SingularRHS,
                       SingularityEncountered, StepControl,
                       UnsupportedParameters, WeightParams, ab_flow_check,
                       evolve, finite_difference, from_hamiltonian,
                       hamilton_rhs, hamiltonian_eval, ode_rhs, pv_residual,
                       rr_rhs, series_init, table_for, to_hamiltonian,
                       theta_kappa_from_recurrence)
from dlaguerre.painleve import (aux_pair_series, compatibility_residual,
                                deformation_residual, flow_map_residual,
                                hamilton_map_residual, moment_series)
from conftest import rel_err


class TestPVParams:
    def test_prop11_wiring(self):
        pv = PVParams.make(1, 2, 2, "prop11")
        with mp.workprec(128):
            assert abs(sum(pv.v)) < mp.mpf("1e-30")
            a1, a2, a3, a4 = pv.alphas
            assert (a1, a2, a3, a4) == (2, -2, -7, mp.mpf("-0.5"))

    def test_cor12_wiring(self):
        pv = PVParams.make(1, 2, 2, "cor12")
        with mp.workprec(128):
            assert abs(sum(pv.v)) < mp.mpf("1e-30")
            a1, a2, a3, a4 = pv.alphas
            assert (a1, a2, a3, a4) == (2, -2, 7, mp.mpf("-0.5"))

    def test_alpha_identities(self):
        """alpha_i reproduce the canonical forms in the v variables."""
        with mp.workprec(128):
            for conv in ("prop11", "cor12"):
                pv = PVParams.make(2, 3, 1, conv)
                v1, v2, v3, v4 = pv.v
                assert rel_err((v3 - v4) ** 2 / 2, pv.alphas[0]) < 1e-30
                assert rel_err(-(v2 - v1) ** 2 / 2, pv.alphas[1]) < 1e-30
                assert rel_err(2 * v1 + 2 * v2 - 1, pv.alphas[2]) < 1e-30

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            PVParams.make(1, 2, 2, "prop99")


class TestHamiltonian:
    def test_p_zero_collapse(self):
        """At p = 0, tH = (v3-v1)(v4-v1)(q-1)."""
        pv = PVParams.make(1, 2, 2, "prop11")
        with mp.workprec(192):
            q, t = mp.mpf(2), mp.mpf("0.3")
            v1, v2, v3, v4 = pv.v
            want = (v3 - v1) * (v4 - v1) * (q - 1) / t
            assert rel_err(hamiltonian_eval(q, 0, t, pv), want) < 1e-40

    def test_gradient_against_fd(self):
        """dq/dt closed form vs central difference of H in p."""
        pv = PVParams.make(1, 2, 2, "prop11")
        with mp.workprec(256):
            q, p, t = mp.mpf(2), mp.mpf("0.1"), mp.mpf("0.3")
            dq, dp = hamilton_rhs(q, p, t, pv)
            fd_q = finite_difference(
                lambda pp: hamiltonian_eval(q, pp, t, pv), p, mp.mpf(2) ** -40)
            fd_p = finite_difference(
                lambda qq: hamiltonian_eval(qq, p, t, pv), q, mp.mpf(2) ** -40)
            assert abs(dq - fd_q.value) < mp.mpf("1e-18")
            assert abs(dp + fd_p.value) < mp.mpf("1e-18")

    def test_singular_at_t0(self):
        pv = PVParams.make(1, 2, 2, "prop11")
        with pytest.raises(SingularRHS):
            hamiltonian_eval(2, 0.1, 0, pv)


admissible_states = st.tuples(
    st.integers(min_value=0, max_value=4),                    # n
    st.integers(min_value=-19, max_value=19).filter(
        lambda k: abs(k) >= 2 and k != -10),                  # theta/t in 1/10
    st.integers(min_value=-20, max_value=20),                 # kappa in 1/10
    st.integers(min_value=1, max_value=10))                   # t in 1/20


class TestMaps:
    @settings(max_examples=25, deadline=None)
    @given(admissible_states)
    def test_round_trip_and_duality(self, state):
        n, th10, ka10, t20 = state
        params = WeightParams(2, 2, "0.5", "0.3")
        with mp.workprec(256):
            t = mp.mpf(t20) / 20
            th = mp.mpf(th10) / 10 * t
            ka = mp.mpf(ka10) / 10
            qs = []
            for conv in ("prop11", "cor12"):
                hp = to_hamiltonian(th, ka, t, n, params, conv)
                th2, ka2 = from_hamiltonian(hp.q, hp.p, t, n, params, conv)
                assert abs(th2 - th) < mp.mpf("1e-60")
                assert abs(ka2 - ka) < mp.mpf("1e-60")
                qs.append(hp.q)
            assert abs(qs[0] * qs[1] - 1) < mp.mpf("1e-60")

    def test_q_limit_at_origin(self, prec):
        """q -> -alpha/mu as t -> 0+ (equals -1 at alpha = mu = 2)."""
        p = WeightParams(2, 2, "0.5", "0.0005")
        _, tab = table_for(p, 2, prec)
        pair = theta_kappa_from_recurrence(tab, 1)
        hp = to_hamiltonian(pair.theta, pair.kappa, "0.0005", 1, p, "prop11")
        assert rel_err(hp.q, -1) < 1e-2

    def test_flow_equivalence_both_conventions(self, tables_main, params_main):
        _, tab = tables_main
        for n in (1, 2, 3):
            pair = theta_kappa_from_recurrence(tab, n)
            for conv in ("prop11", "cor12"):
                resid = hamilton_map_residual(pair.theta, pair.kappa, n,
                                              "0.3", params_main, conv)
                assert float(resid) < 1e-15

    def test_p_determined_by_q_equation(self, tables_main, params_main):
        """The dq-equation is linear in p and pins the canonical momentum:
        solving it along the flow reproduces the p-map."""
        _, tab = tables_main
        n = 1
        pair = theta_kappa_from_recurrence(tab, n)
        pv = PVParams.make(n, 2, 2, "prop11")
        with mp.workprec(256):
            t = mp.mpf("0.3")
            th, ka = pair.theta, pair.kappa
            dth, _ = ode_rhs(th, ka, n, t, params_main)
            # q = 1 + t/theta along the flow
            dq = 1 / th - t * dth / th ** 2
            hp = to_hamiltonian(th, ka, t, n, params_main, "prop11")
            v1, v2, v3, v4 = pv.v
            q = hp.q
            p_solved = (t * dq + (v2 - v1) * (q - 1) ** 2
                        - 2 * (v1 + v2) * q * (q - 1) + t * q) \
                / (2 * q * (q - 1) ** 2)
            assert rel_err(p_solved, hp.p) < 1e-40


class TestFlows:
    def test_rhs_zeta_free(self, params_main):
        """Identical (theta, kappa, t) but different zeta: same derivatives."""
        other = WeightParams(2, 2, "-1", "0.3")
        with mp.workprec(192):
            d1 = ode_rhs("-0.14", "0.4", 1, "0.3", params_main)
            d2 = ode_rhs("-0.14", "0.4", 1, "0.3", other)
            assert d1 == d2

    def test_rhs_vs_hankel_fd(self, params_main, prec, tables_main):
        """theta'(t) from the flow matches central differences at 1e-10."""
        _, tab = tables_main
        pair = theta_kappa_from_recurrence(tab, 1)
        h = mp.mpf(10) ** -6
        with mp.workprec(256):
            vals = {}
            for s in (-1, 1):
                pars = params_main.replace_t(mp.mpf("0.3") + s * h)
                _, tb = table_for(pars, 2, prec, cross_check=False)
                vals[s] = theta_kappa_from_recurrence(tb, 1)
            dth_fd = (vals[1].theta - vals[-1].theta) / (2 * h)
            dka_fd = (vals[1].kappa - vals[-1].kappa) / (2 * h)
            dth, dka = ode_rhs(pair.theta, pair.kappa, 1, "0.3", params_main)
            assert rel_err(dth_fd, dth) < 1e-10
            assert rel_err(dka_fd, dka) < 1e-10

    def test_rhs_vs_series_derivative(self, params_main):
        """At t = 1e-3 the flow matches the series term-by-term derivative."""
        with mp.workprec(256):
            th_s, ka_s = aux_pair_series(1, params_main, 8)
            t = mp.mpf("0.001")
            th, ka = th_s.eval(t), ka_s.eval(t)
            dth, dka = ode_rhs(th, ka, 1, t, params_main)
            assert rel_err(th_s.deriv_eval(t), dth) < 1e-6
            assert rel_err(ka_s.deriv_eval(t), dka) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(admissible_states)
    def test_two_theory_equivalence(self, state):
        """(R, r) field is the image of the (theta, kappa) field."""
        n, th10, ka10, t20 = state
        params = WeightParams(2, 2, "0.5", "0.3")
        with mp.workprec(256):
            t = mp.mpf(t20) / 20
            th = mp.mpf(th10) / 10 * t
            ka = mp.mpf(ka10) / 10
            resid = flow_map_residual(th, ka, n, t, params)
            assert float(resid) < 1e-18

    def test_singular_rhs(self, params_main):
        with pytest.raises(SingularRHS):
            ode_rhs(0, 1, 1, "0.3", params_main)
        with pytest.raises(SingularRHS):
            rr_rhs(1, 1, 1, "0.3", params_main)


class TestSeries:
    def test_moment_series_matches_closed_form(self, params_main, prec):
        from dlaguerre import moment_closed_form
        with mp.workprec(256):
            s = moment_series(1, params_main, 10)
            for tval in ("0.001", "0.01"):
                pars = params_main.replace_t(tval)
                want = moment_closed_form(1, pars, prec)
                assert rel_err(s.eval(mp.mpf(tval)), want) < 1e-20

    def test_leading_coefficients(self, params_main):
        """theta_1 = -t/2 + 7t^2/60 ...; kappa_1 = 3t/2 - t^2/6 ... at (2,2)."""
        with mp.workprec(256):
            th_s, ka_s = aux_pair_series(1, params_main, 3)
            assert th_s.c[0] == 0 and ka_s.c[0] == 0
            assert rel_err(th_s.c[1], mp.mpf("-0.5")) < 1e-50
            assert rel_err(th_s.c[2], mp.mpf(7) / 60) < 1e-50
            assert rel_err(ka_s.c[1], mp.mpf("1.5")) < 1e-50
            assert rel_err(ka_s.c[2], mp.mpf(-1) / 6) < 1e-50

    def test_a2_series_quadratic(self, params_main):
        """a_n^2 = n(n+a+m) + 0*t - n a m (n+a+m) t^2/((a+m)^2((a+m)^2-1)) + ...

        The quadratic coefficient follows from the verified kappa and
        theta series through kappa_n = (n+m/2)t + a_n^2 - sum b_i; at
        n=1, alpha=mu=2 it equals -1/12.
        """
        from dlaguerre.painleve import TruncSeries, _det_series
        with mp.workprec(256):
            mk = {k: moment_series(k, params_main, 3) for k in range(4)}
            d = {m: _det_series([[mk[i + j] for j in range(m)]
                                 for i in range(m)], 3) for m in range(3)}
            a2 = (d[0] * d[2]).divide(d[1] * d[1])
            assert rel_err(a2.c[0], 5) < 1e-50
            assert abs(a2.c[1]) < mp.mpf("1e-50")
            assert rel_err(a2.c[2], mp.mpf(-1) / 12) < 1e-50

    def test_series_init_vs_hankel(self, params_main, prec):
        p = WeightParams(2, 2, "0.5", "0.001")
        _, tab = table_for(p, 2, prec)
        for n in (1, 2):
            pair = theta_kappa_from_recurrence(tab, n)
            th0, ka0 = series_init(n, "0.001", params_main)
            assert rel_err(th0, pair.theta) < 1e-40
            assert rel_err(ka0, pair.kappa) < 1e-40
            th6, ka6 = series_init(n, "0.001", params_main, order=6)
            assert rel_err(th6, pair.theta) < 1e-5       # an explicit order wins
            assert rel_err(th6, pair.theta) > 1e-30

    def test_preconditions(self, params_main):
        with pytest.raises(UnsupportedParameters):
            series_init(1, "0.5", params_main)          # t0 too large
        with pytest.raises(UnsupportedParameters):
            series_init(1, 0, params_main)              # t0 must be positive
        thin = WeightParams(1, 0, "0.5", "0.3")
        with pytest.raises(UnsupportedParameters):
            series_init(1, "0.001", thin)               # alpha + mu <= 1


class TestEvolve:
    def test_zero_length(self, params_main, prec):
        traj = evolve(1, "0.001", "0.001", params_main, prec)
        assert len(traj) == 1
        th0, ka0 = series_init(1, "0.001", params_main)
        assert traj.theta[0] == th0 and traj.kappa[0] == ka0

    def test_endpoint_vs_hankel(self, params_main, prec, tables_main):
        _, tab = tables_main
        pair = theta_kappa_from_recurrence(tab, 1)
        traj = evolve(1, "0.001", "0.3", params_main, prec)
        _, thE, kaE = traj.endpoint
        assert rel_err(thE, pair.theta) < 1e-25
        assert rel_err(kaE, pair.kappa) < 1e-25

    def test_metadata_reports_orders(self, params_main, prec):
        """The series order and truncation estimate actually used, or
        "caller" for caller data, and the Taylor order of the step control."""
        traj = evolve(1, "0.001", "0.05", params_main, prec)
        meta = traj.metadata
        order = meta["series_order"]
        assert meta["initial_data"] == "series" and isinstance(order, int)
        th0, _ = series_init(1, "0.001", params_main, prec, order=order)
        assert traj.theta[0] == th0
        assert 0 < float(meta["series_truncation"]) < 1e-40
        assert meta["taylor_order"] == 36                  # rtol 1e-30
        y0 = series_init(1, "0.001", params_main, prec)
        caller = evolve(1, "0.001", "0.05", params_main, prec,
                        StepControl(rtol="1e-18"), y0=y0).metadata
        assert caller["initial_data"] == "caller"
        assert caller["series_order"] == caller["series_truncation"] == "caller"
        assert caller["taylor_order"] == 22

    def test_reproducible_under_refinement(self, params_main, prec, tables_main):
        """Endpoint stable under tol/10 refinement, within 10*tol.

        The flow carries a t^{-(1+alpha+mu)} unstable mode, so local errors
        committed at t get amplified by (t1/t)^5; the property is therefore
        tested on a span whose amplification factor stays below 10 (here
        (0.3/0.25)^5 ~ 2.5), from shared table-exact initial data.
        """
        _, tab = tables_main
        pars = params_main.replace_t("0.25")
        _, tab25 = table_for(pars, 2, prec, cross_check=False)
        pair = theta_kappa_from_recurrence(tab25, 1)
        y0 = (pair.theta, pair.kappa)
        tight = StepControl(rtol="1e-14", atol="1e-22")
        tighter = StepControl(rtol="1e-15", atol="1e-23")
        a = evolve(1, "0.25", "0.3", params_main, prec, tight, y0=y0)
        b = evolve(1, "0.25", "0.3", params_main, prec, tighter, y0=y0)
        assert rel_err(a.endpoint[1], b.endpoint[1]) < 10 * 1e-14

    def test_zeta_enters_only_through_initial_data(self, params_main, prec):
        """Same y0, different stored zeta: identical trajectories."""
        other = WeightParams(2, 2, "-1", "0.3")
        y0 = series_init(1, "0.001", params_main)
        a = evolve(1, "0.001", "0.05", params_main, prec, y0=y0)
        b = evolve(1, "0.001", "0.05", other, prec, y0=y0)
        assert a.theta == b.theta and a.kappa == b.kappa

    def test_t_eval_nodes_hit_exactly(self, params_main, prec):
        with mp.workprec(256):
            nodes = [mp.mpf("0.01"), mp.mpf("0.02"), mp.mpf("0.05")]
        traj = evolve(1, "0.001", "0.05", params_main, prec, t_eval=nodes)
        for node in nodes:
            assert node in traj.t
        samples = traj.sample(nodes)
        assert len(samples) == 3
        # nodes are read off the step polynomials: no step is cut short
        plain = evolve(1, "0.001", "0.05", params_main, prec)
        assert traj.steps == plain.steps
        assert traj.endpoint == plain.endpoint
        assert len(traj) == len(plain) + 2                  # 0.05 is t1
        with mp.workprec(256):
            for node, (th, ka) in zip(nodes, samples):
                th_p, ka_p = plain.eval(node)
                assert rel_err(th, th_p) < 1e-70 and rel_err(ka, ka_p) < 1e-70

    def test_singularity_guard(self, params_main, prec):
        # start inside the guard zone around theta = -t
        y0 = (mp.mpf("-0.001") * (1 - mp.mpf("1e-12")), mp.mpf("0.001"))
        with pytest.raises(SingularityEncountered) as err:
            evolve(1, "0.001", "0.3", params_main, prec, y0=y0)
        assert err.value.t_last is not None

    def test_singularity_inside_step(self, prec):
        """theta_2 reaches 0 near t = 0.864 at (3, 1, -0.204531): the step
        polynomial's sign change stops the run just before it."""
        params = WeightParams(3, 1, "-0.204531", 0)
        y0 = series_init(2, "1e-3", params, prec)
        with pytest.raises(SingularityEncountered) as err:
            evolve(2, "1e-3", "1.847", params, prec, y0=y0)
        assert 0.80 <= err.value.t_last <= 0.87

    def test_singularity_at_start(self, prec):
        """At (4, 0, 0.34017), n = 3, theta is O(t^5): the series data
        already lies in the guard zone, so the run stops at t0."""
        params = WeightParams(4, 0, "0.34017", 0)
        y0 = series_init(3, "1e-3", params, prec)
        with pytest.raises(SingularityEncountered) as err:
            evolve(3, "1e-3", "0.5", params, prec, y0=y0)
        with mp.workprec(256):
            assert err.value.t_last == mp.mpf("1e-3")

    def test_dense_output_consistency(self, params_main, prec):
        traj = evolve(1, "0.001", "0.1", params_main, prec)
        with mp.workprec(256):
            tq = mp.mpf("0.0731")
            th_q, ka_q = traj.eval(tq)
            pars = params_main.replace_t(tq)
            _, tab = table_for(pars, 2, prec, cross_check=False)
            ref = theta_kappa_from_recurrence(tab, 1)
            assert rel_err(th_q, ref.theta) < 1e-25
            assert rel_err(ka_q, ref.kappa) < 1e-25


class TestPvResidual:
    def test_constant_function_zero_alphas(self, prec):
        """y = 2 with all alpha_i = 0 gives an identically zero residual."""
        with mp.workprec(256):
            grid = mp.linspace(mp.mpf("0.1"), mp.mpf("0.5"), 21)
            qs = [mp.mpf(2)] * 21
        resid = pv_residual(grid, qs, (0, 0, 0, 0), prec)
        assert resid < 1e-40

    def test_nonuniform_grid_rejected(self, prec):
        with mp.workprec(128):
            grid = [mp.mpf(v) for v in ("0.1", "0.2", "0.25", "0.3", "0.4",
                                        "0.5", "0.6")]
        with pytest.raises(SingularPanel):
            pv_residual(grid, [mp.mpf(2)] * 7, (0, 0, 0, 0), prec)

    def test_singular_locus_rejected(self, prec):
        with mp.workprec(128):
            grid = mp.linspace(mp.mpf("0.1"), mp.mpf("0.5"), 9)
        with pytest.raises(SingularPanel):
            pv_residual(grid, [mp.mpf(1) + mp.mpf("1e-12")] * 9,
                        (0, 0, 0, 0), prec)


class TestAbFlow:
    def test_flow_laws_near_main_point(self, params_main, prec):
        with mp.workprec(256):
            grid = mp.linspace(mp.mpf("0.28"), mp.mpf("0.32"), 9)
        rep = ab_flow_check(params_main, 2, grid, prec)
        assert rep.all_passed
        ids = {r.check_id for r in rep.records}
        assert {"ab_flow_a_t", "ab_flow_b_t", "ab_flow_a_ladder",
                "ab_flow_b_ladder", "deformation_t_ode",
                "zero_curvature"} <= ids

    def test_b_derivative_matches_series_near_origin(self, params_main, prec):
        """b_n'(t->0) finite and consistent with the exact series."""
        with mp.workprec(256):
            th_s, _ = aux_pair_series(2, params_main, 4)
            t0 = mp.mpf("0.002")
            # b_n = theta_n + (2n+1+alpha+mu) + t
            want = th_s.deriv_eval(t0) + 1
            h = mp.mpf("1e-4")
            vals = []
            for s in (-1, 1):
                pars = params_main.replace_t(t0 + s * h)
                _, tab = table_for(pars, 3, prec, cross_check=False)
                vals.append(tab.b[2])
            got = (vals[1] - vals[0]) / (2 * h)
            assert rel_err(got, want) < 1e-6

    def test_deformation_and_compatibility_residuals(self, params_main, prec):
        assert deformation_residual(params_main, 2, -1, "0.3", prec) < 1e-8
        assert compatibility_residual(params_main, 2, -1, "0.3", prec) < 1e-8
