"""Hamiltonian wiring, variable maps, flows, series, integration, residuals."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlaguerre import (DegenerateTheta, PVParams, PrecisionCtx, SingularPanel,
                       SingularRHS, SingularityEncountered, StepControl,
                       UnsupportedParameters, WeightParams, ab_flow_check,
                       evolve, finite_difference, from_hamiltonian,
                       hamilton_rhs, hamiltonian_eval, ode_rhs, pv_residual,
                       rr_rhs, series_init, table_for, to_hamiltonian,
                       theta_kappa_from_recurrence)
from dlaguerre import painleve
from dlaguerre.kernels import GUARD
from dlaguerre.moments import moment_series
from dlaguerre.painleve import (CONVENTIONS, FLOW_ORDER, aux_pair_series,
                                compatibility_residual, deformation_residual,
                                flow_map_residual, hamilton_map_residual)
from dlaguerre.precision import to_fraction, to_mpf
from dlaguerre.semiclassical import Report, rr_map
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

    def test_make_is_memoized(self):
        """One PVParams per (n, alpha, mu, convention, prec) and their
        types.  It pins its own width, so a cached one has the bits of a
        fresh one whatever the caller's context, and so do the q, p and H
        that to_hamiltonian maps through it."""
        args = (2, 3, "1.5", "cor12", PrecisionCtx(192))
        PVParams.make.cache_clear()
        with mp.workprec(300):
            fresh = PVParams.make(*args)
        assert PVParams.make(*args) is fresh
        PVParams.make.cache_clear()
        again = PVParams.make(*args)
        assert again is not fresh
        assert ([c._mpf_ for c in again.v + again.alphas]
                == [c._mpf_ for c in fresh.v + fresh.alphas])
        # an equal value of another type, or another width, is another key
        other = PVParams.make(2, mp.mpf(3), "1.5", "cor12", PrecisionCtx(192))
        assert other is not again and type(other.alpha) is mp.mpf
        assert PVParams.make(2, 3, "1.5", "cor12") is not again

        def mapped():
            with mp.workprec(80):
                pt = to_hamiltonian("-0.4", "0.7", "0.3", 2,
                                    WeightParams(3, "1.5", "0.5", "0.3"),
                                    "cor12", PrecisionCtx(192))
            return [v._mpf_ for v in (pt.q, pt.p, pt.H)]

        PVParams.make.cache_clear()
        first = mapped()
        assert mapped() == first
        assert PVParams.make.cache_info().hits == 1


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

    def test_partials_from_jets(self):
        """hamilton_rhs reads dtH/dp and dtH/dq off order-1 jets of tH;
        they agree with the hand-differentiated polynomial to rounding."""
        for conv in CONVENTIONS:
            pv = PVParams.make(2, 3, 1, conv)
            with mp.workprec(256):
                q, p, t = mp.mpf("1.7"), mp.mpf("-0.45"), mp.mpf("0.3")
                v1, v2, v3, v4 = pv.v
                d_p = (2 * q * (q - 1) ** 2 * p
                       - ((v2 - v1) * (q - 1) ** 2
                          - 2 * (v1 + v2) * q * (q - 1) + t * q))
                d_q = ((q - 1) * (3 * q - 1) * p * p
                       - (2 * (v2 - v1) * (q - 1)
                          - 2 * (v1 + v2) * (2 * q - 1) + t) * p
                       + (v3 - v1) * (v4 - v1))
                dq, dp = hamilton_rhs(q, p, t, pv)
                assert rel_err(dq, d_p / t) < 1e-70
                assert rel_err(dp, -d_q / t) < 1e-70

    def test_optional_context_rule(self):
        """A given context sets the width, 20 bits above it; without one,
        PrecisionCtx() does, whatever the caller's width (it took 20 bits
        over the caller's).  H = 226/5 here, so the rounding error of the
        result shows the width it was computed at."""
        pv = PVParams.make(1, 2, 2, "prop11")

        def bits(h):
            return -math.log2(abs(to_fraction(h) / Fraction(226, 5) - 1))

        for width in (100, 600):
            with mp.workprec(width):
                given = hamiltonian_eval("2", "0.1", "0.3", pv,
                                         PrecisionCtx(192))
                omitted = hamiltonian_eval("2", "0.1", "0.3", pv)
            assert 192 + 19 < bits(given) < 192 + 23
            assert 256 + 19 < bits(omitted) < 256 + 23


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

    @pytest.mark.parametrize("conv", ["prop11", "cor12"])
    def test_q_alone_has_to_hamiltonians_bits(self, conv):
        """to_q is to_hamiltonian's q, bit for bit, at 100 seeded states
        at two widths (the evolve command's residual stage reads q alone),
        and refuses theta in {0, -t} and t = 0 by the same type."""
        rng = random.Random(5)
        params = WeightParams(3, "1.5", "-0.7", 0)
        for trial in range(100):
            prec = PrecisionCtx((128, 256)[trial % 2])
            with mp.workprec(400):
                t = mp.mpf(rng.uniform(1e-3, 3))
                th = t * rng.uniform(-3, 3)
                ka = mp.mpf(rng.uniform(-2, 2))
            want = to_hamiltonian(th, ka, t, 2, params, conv, prec).q
            assert painleve.to_q(th, t, conv, prec)._mpf_ == want._mpf_
        for th, t in (("0", "0.3"), ("-0.3", "0.3"), ("0.1", "0")):
            with pytest.raises(DegenerateTheta, match="map undefined"):
                painleve.to_q(th, t, conv)
        with pytest.raises(UnsupportedParameters, match="convention"):
            painleve.to_q("0.1", "0.3", "prop12")

    @pytest.mark.parametrize("conv", ["prop11", "cor12"])
    def test_inverse_refuses_t_zero(self, conv):
        """t = 0 raised a bare ZeroDivisionError under cor12 and returned
        (0, 0), on to_hamiltonian's degenerate locus, under prop11."""
        params = WeightParams(2, 2, "0.5", "0.3")
        with pytest.raises(DegenerateTheta, match="t = 0"):
            from_hamiltonian("2", "0.1", 0, 1, params, conv)

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

    @pytest.mark.parametrize("bits, bound", [(512, 1e-140), (1024, 1e-290)])
    def test_real_mu_residual_follows_width(self, bits, bound):
        """At real mu the PV constants carry rounded mu: built at 256 bits
        whatever the context, they held the residual at 5.3e-76 at both
        widths; built at the chart's width it reads 6.7e-165 and
        1.3e-318."""
        params = WeightParams(2, "0.3", "0.5", "0.7")
        resid = hamilton_map_residual("-0.41", "0.37", 2, "0.7", params,
                                      "prop11", PrecisionCtx(bits))
        assert resid < bound

    @pytest.mark.parametrize("bits, bound", [(256, 1e-84), (512, 1e-160)])
    def test_real_mu_constants_at_chart_width(self, bits, bound):
        """The chart runs 40 bits above prec, and so do the PV constants:
        built at prec they held the residual at 5.3e-76 (256 bits) and
        4.6e-153 (512 bits), the rounding of a real mu's v_1..v_4; built
        at the chart's width it reads 2.2e-88 and 6.7e-165."""
        params = WeightParams(2, "0.3", "0.5", "0.7")
        resid = hamilton_map_residual("-0.41", "0.37", 2, "0.7", params,
                                      "prop11", PrecisionCtx(bits))
        assert resid < bound

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
            jets = aux_pair_series(1, params_main, 8)
            th_s, ka_s = jets.theta[1], jets.kappa[1]
            t = mp.mpf("0.001")
            th, ka = th_s.eval(t), ka_s.eval(t)
            dth, dka = ode_rhs(th, ka, 1, t, params_main)
            assert rel_err(th_s.deriv_eval(t), dth) < 1e-6
            assert rel_err(ka_s.deriv_eval(t), dka) < 1e-6

    @pytest.mark.parametrize("alpha, mu, zeta, t", [
        (2, 2, "0.5", "2"), (2, 2, "0.5", "3.5"), (4, 3, "-0.3", "2.0"),
        (0, 3, "0.5", "4.9"), (1, 0, "0.8", "0.02")])
    def test_rhs_vs_jets(self, prec, alpha, mu, zeta, t):
        """The order-1 jets of theta_n, kappa_n about t are the flow."""
        params = WeightParams(alpha, mu, zeta, t)
        jets = aux_pair_series(3, params, 1, prec, about=t)
        with mp.workprec(256):
            for n in (1, 2, 3):
                th, ka = jets.theta[n], jets.kappa[n]
                dth, dka = ode_rhs(th.c[0], ka.c[0], n, t, params, prec)
                assert rel_err(th.c[1], dth) < 1e-60
                assert rel_err(ka.c[1], dka) < 1e-60

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
            jets = aux_pair_series(1, params_main, 3)
            th_s, ka_s = jets.theta[1], jets.kappa[1]
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
        from dlaguerre.hankel import hankel_minors
        with mp.workprec(256):
            mk = {k: moment_series(k, params_main, 3) for k in range(4)}
            d, _ = hankel_minors(mk, 2)
            a2 = d[2] / (d[1] * d[1])
            assert rel_err(a2.c[0], 5) < 1e-50
            assert abs(a2.c[1]) < mp.mpf("1e-50")
            assert rel_err(a2.c[2], mp.mpf(-1) / 12) < 1e-50

    @pytest.mark.parametrize("alpha, mu, zeta", [(2, 2, "0.5"), (1, 0, "0.9")])
    @pytest.mark.parametrize("about, order", [("0.01", 1), ("0.3", 1),
                                              ("2", 1), ("5", 1), (0, 16)])
    def test_jets_match_wide_jet_table(self, prec, alpha, mu, zeta, about,
                                       order):
        """theta, kappa and b jets for n <= 12 at 256 bits (eliminated
        GUARD_BITS wider, like the numeric tables) against 1024 bits, at a
        positive and a signed weight: within 1e-78 of each jet's largest
        coefficient (kappa_0 = mu t / 2 vanishes identically at mu = 0)."""
        p = WeightParams(alpha, mu, zeta, about)
        got = aux_pair_series(12, p, order, prec, about)
        ref = aux_pair_series(12, p, order, PrecisionCtx(1024), about)
        with mp.workprec(1024):
            for key in ("theta", "kappa", "b"):
                for g, r in zip(getattr(got, key), getattr(ref, key)):
                    scale = max(abs(c) for c in r.c)
                    assert max(abs(x - y) for x, y in zip(g.c, r.c)) <= (
                        scale * mp.mpf("1e-78"))

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

    def test_negative_index_names_n(self, params_main, prec):
        """n < 0 is named as n (it read "k_max must be >= 0")."""
        with pytest.raises(UnsupportedParameters, match="n must be >= 0"):
            series_init(-1, "0.001", params_main)
        with pytest.raises(UnsupportedParameters, match="n must be >= 0"):
            evolve(-1, "0.001", "0.01", params_main, prec)


class TestStepControl:
    @pytest.mark.parametrize("field, bad", [
        ("rtol", 0), ("rtol", "0"), ("rtol", "-1e-18"), ("rtol", 1),
        ("rtol", "inf"), ("rtol", "nan"), ("rtol", "abc"), ("rtol", None),
        ("atol", "-1e-24"), ("atol", "abc"), ("atol", None)])
    def test_bad_tolerance_names_field(self, field, bad):
        """rtol = 0 failed in _taylor_order ("cannot convert inf or nan to
        int") and a negative rtol with a TypeError about mpc."""
        with pytest.raises(UnsupportedParameters, match=field):
            StepControl(**{field: bad})

    def test_valid_tolerances(self):
        StepControl()
        StepControl(rtol="1e-18", atol=0)
        StepControl(rtol=mp.mpf("0.5"), atol=1e-40)


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

    def test_sample_hits_nodes_exactly(self, params_main, prec):
        """sample returns the stored values at nodes and reads every other
        query off the polynomial of the step that contains it, within one
        ulp of that polynomial evaluated at 1024 bits."""
        traj = evolve(1, "0.001", "0.05", params_main, prec)
        with mp.workprec(256):
            queries = [traj.t[1], mp.mpf("0.01"), mp.mpf("0.02"), traj.t[-1]]
        samples = traj.sample(queries)
        assert samples[0] == (traj.theta[1], traj.kappa[1])
        assert samples[-1] == (traj.theta[-1], traj.kappa[-1])
        with mp.workprec(1024):
            for tq, (th, ka) in zip(queries[1:3], samples[1:3]):
                assert tq not in traj.t
                i = max(k for k, (tk, _, _) in enumerate(traj.jets) if tk <= tq)
                tk, th_s, ka_s = traj.jets[i]
                for got, poly in ((th, th_s), (ka, ka_s)):
                    ulp = mp.ldexp(1, mp.mag(got) - 256)
                    assert abs(got - poly.eval(tq - tk)) <= ulp

    def test_dense_output_at_trajectory_precision(self, params_main, prec):
        """eval/sample outside any workprec block keep the trajectory's
        digits (at 53 bits they kept about 17)."""
        traj = evolve(1, "0.001", "0.1", params_main, prec)
        outside = traj.eval("0.0731")
        sampled = traj.sample(["0.0731"])[0]
        with mp.workprec(256):
            inside = traj.eval("0.0731")
            for got, want in zip(outside + sampled, inside + inside):
                assert rel_err(got, want) <= 1e-29

    @pytest.mark.parametrize("t0, t1", [("0.001", None), (None, "0.3"),
                                        ("0.001", "abc")])
    def test_range_that_is_not_numbers(self, params_main, prec, t0, t1):
        with pytest.raises(UnsupportedParameters, match="t0 and t1"):
            evolve(1, t0, t1, params_main, prec)

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

    @pytest.mark.parametrize("mu", [2, "1.5"])
    def test_t_independent_weight(self, prec, mu):
        """(alpha, zeta) = (0, 0): the weight does not depend on t and
        theta_n = -t identically.  evolve names that before the first step,
        with or without caller data (it raised SingularityEncountered at
        t0)."""
        params = WeightParams(0, mu, 0, 0)
        for y0 in (None, ("-0.001", "0.001")):
            with pytest.raises(DegenerateTheta, match="does not depend on t"):
                evolve(1, "1e-3", "0.3", params, prec, y0=y0)

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
        """Nine points, enough for the interior, so the uniformity check
        is what raises."""
        with mp.workprec(128):
            grid = [mp.mpf(v) for v in ("0.1", "0.2", "0.25", "0.3", "0.4",
                                        "0.5", "0.6", "0.7", "0.8")]
        with pytest.raises(SingularPanel, match="uniform"):
            pv_residual(grid, [mp.mpf(2)] * 9, (0, 0, 0, 0), prec)

    def test_singular_locus_rejected(self, prec):
        with mp.workprec(128):
            grid = mp.linspace(mp.mpf("0.1"), mp.mpf("0.5"), 9)
        with pytest.raises(SingularPanel):
            pv_residual(grid, [mp.mpf(1) + mp.mpf("1e-12")] * 9,
                        (0, 0, 0, 0), prec)


def _reference_pv_residual(t_grid, q_values, alphas, prec):
    """pv_residual with q' and q'' from oracle.finite_difference in the
    grid index at h = 2, as the stencils were applied before."""
    with mp.workprec(prec.significand_bits + 20):
        ts = [to_mpf(v) for v in t_grid]
        qs = [to_mpf(v) for v in q_values]
        h = ts[1] - ts[0]
        scale, residuals = mp.mpf(0), []
        for i in range(4, len(ts) - 4):
            yp, ypp = (finite_difference(lambda j: qs[int(j)], i, 2, k).value
                       / h ** k for k in (1, 2))
            rhs = painleve.pv_rhs_second_derivative(qs[i], yp, ts[i], alphas)
            residuals.append(abs(ypp - rhs))
            scale = max(scale, abs(ypp))
        return float(max(residuals) / max(scale, mp.mpf(1)))


class TestPvResidualStencils:
    """pv_residual applies finite_difference's stencils to the grid samples
    directly: its exact integer numerators, each rounded once, give the
    float of finite_difference's mpf stencils."""

    def test_random_samples(self, prec):
        rng = random.Random(5)
        pv = PVParams.make(2, 3, 1, "prop11")
        for trial in range(6):
            with mp.workprec(400):
                grid = mp.linspace(mp.mpf("0.1"), mp.mpf(rng.uniform(0.3, 3)),
                                   rng.choice([9, 15, 121]))
                qs = [mp.mpf(rng.uniform(1.1, 3)) / 3 + rng.choice([0, 2])
                      for _ in grid]
            want = _reference_pv_residual(grid, qs, pv.alphas, prec)
            assert pv_residual(grid, qs, pv.alphas, prec) == want

    def test_trajectory(self, params_main, prec):
        """The q of a desk-point trajectory, as the CLI samples it."""
        traj = evolve(1, "1e-3", "0.3", params_main, prec)
        with mp.workprec(prec.significand_bits):
            grid = mp.linspace(mp.mpf("0.1"), traj.t[-1], 121)
            qs = [to_hamiltonian(th, ka, t, 1, params_main, "prop11", prec).q
                  for t, (th, ka) in zip(grid, traj.sample(grid))]
        pv = PVParams.make(1, 2, 2, "prop11", prec)
        want = _reference_pv_residual(grid, qs, pv.alphas, prec)
        assert pv_residual(grid, qs, pv.alphas, prec) == want


def _reference_vanishing_start(c, p, length, depth=8):
    """_vanishing_start over Fractions: the Bernstein coefficients of
    sum_j c_j (s 2^-p)^j on [0, length], halved by de Casteljau's
    algorithm, all exact, and the offset of the first piece left as a
    Fraction."""
    K = len(c) - 1
    lam = to_fraction(length) / Fraction(2) ** p
    # the coefficients of c(length x), times lam's denominator^K: a
    # positive factor keeps every sign and offset, as the one below does,
    # which leaves the halvings powers of two to reduce by
    N, M = lam.numerator, lam.denominator
    a = [cj * N ** j * M ** (K - j) for j, cj in enumerate(c)]
    b = [sum(Fraction(math.comb(k, j), math.comb(K, j)) * a[j]
             for j in range(k + 1)) for k in range(K + 1)]
    scale = math.lcm(*(x.denominator for x in b))
    b = [x * scale for x in b]

    def first(b, start, width, depth):
        if all(x > 0 for x in b) or all(x < 0 for x in b):
            return None
        if depth == 0:
            return start
        left, right, x = [b[0]], [b[-1]], b
        for _ in range(K):
            x = [(x[k] + x[k + 1]) / 2 for k in range(len(x) - 1)]
            left.append(x[0])
            right.append(x[-1])
        half = width / 2
        found = first(left, start, half, depth - 1)
        if found is None:
            found = first(right[::-1], start + half, half, depth - 1)
        return found

    return first(b, Fraction(0), to_fraction(length), depth)


class TestVanishingStartRaw:
    """The Bernstein sign test on the jet's integers flags the same pieces
    as the exact test over Fractions, at the same offsets, exactly."""

    @pytest.mark.parametrize("order", [5, 10, 22])
    def test_random_polynomials(self, order):
        """Both outcomes, and polynomials that the |c_0| > S bound clears
        before any Bernstein coefficient is formed, are exercised; the
        scale 2^p and the length take both signs of log2(length 2^-p)."""
        rng = random.Random(order)
        flagged = dominated = 0
        for trial in range(500):
            one = 1 << rng.randint(40, 300)
            c = [rng.choice([-1, 1]) * rng.randint(one // 10, one)] + [
                rng.randint(-one, one) // 3 for _ in range(order)]
            p = rng.randint(-8, 8)
            with mp.workprec(400):
                length = mp.ldexp(mp.mpf(rng.uniform(0.1, 1.5)) / 7 * 7, p)
                lam = to_fraction(length) / Fraction(2) ** p
            dominated += abs(c[0]) > 2 * sum(
                abs(cj) * lam ** j for j, cj in enumerate(c) if j)
            with mp.workprec(276):
                got = painleve._vanishing_start(c, p, length)
            want = _reference_vanishing_start(c, p, length)
            if want is None:
                assert got is None, trial
            else:
                flagged += 1
                assert got is not None and to_fraction(got) == want, trial
        assert flagged >= 50 and dominated >= 50

    @pytest.mark.parametrize("bits", [64, 276])
    def test_dominant_constant_at_the_margin(self, bits):
        """|c_0| = S puts a root at s = length; |c_0| a hair above S still
        leaves it to the Bernstein test, which clears it; a dominant c_0
        is cleared either way.  The outcome does not depend on the working
        width."""
        one, tiny = 1 << 40, 1
        with mp.workprec(bits):
            for c, length, vanishes in (
                    ([one, -one], 1, True), ([one, -one + tiny], 1, False),
                    ([-3] + [1] * 22, mp.mpf(1) / 8, False),
                    ([-3] + [1] * 22, 1, True),
                    ([3, -1, 1, -1], 1, False), ([1, 0, 0, -1], 1, True)):
                length = mp.mpf(length)
                got = painleve._vanishing_start(c, 0, length)
                want = _reference_vanishing_start(c, 0, length)
                assert (got is not None) is vanishes
                assert got is None or to_fraction(got) == want


def _flow_jet_reference(n, params, tk, th0, ka0, K, F, p):
    """The flow jet's recursion at 1024 bits on the same data, with the PV
    constants as the working width rounds them, each coefficient j scaled
    to y_j h^j 2^F (h = 2^p), as _flow_jet_factory holds it; and the
    a-priori bound of each integer coefficient's error in units of 2^-F,
    carried beside it through the same integer operations (rounded up, on
    integers): th0 and ka0 convert within one unit (exactly when they
    fit), tk and the constants exactly; every floor adds one unit; a sum
    of products carries |a| e_b + |b| e_a + e_a e_b per term; a reciprocal
    1/d carries 2^(2F) e_d / (|d| (|d| - e_d)); and the division by
    (j+1) tk carries (e_F + j e_y) 2^(F+p) / ((j+1) |TK|).  Returns
    ((theta, kappa), (their bounds)), called at the working width."""
    a, m = to_mpf(params.alpha), to_mpf(params.mu)
    consts = (2 * n + a + 1 + m, 2 * n + a + m, n * n + (n + m / 2) * (a + m),
              m * m / 4, (n + m / 2) * (n + a + m / 2))
    c_lin, c_k2, c_t, c_m2, c_tt = consts
    a_lin, a_k2, _, a_m2, a_tt = (abs(to_fraction(c)) for c in consts)
    TK, H = int(to_fraction(tk) * 2 ** F), 1 << F + p

    def up(x, shift=0):
        """|x| 2^-shift rounded up, for an int or an mpf x."""
        if isinstance(x, int):
            return -(-abs(x) >> shift)
        _, man, exp, _ = x._mpf_
        return man << exp - shift if exp >= shift else -(-man >> shift - exp)

    def conv(x, ex, y, ey, j, lo=0):
        terms = range(lo, j + 1)
        return (mp.fsum(x[i] * y[j - i] for i in terms),
                sum(up(x[i]) * ey[j - i] + up(y[j - i]) * ex[i]
                    + ex[i] * ey[j - i] for i in terms))

    def times_t(x, ex, j):
        """(tk X_j + h X_(j-1)) 2^-F and its error before the floor."""
        if not j:
            return TK * x[0], abs(TK) * ex[0]
        return TK * x[j] + H * x[j - 1], abs(TK) * ex[j] + H * ex[j - 1]

    with mp.workprec(1024):
        one = mp.ldexp(1, F)
        th, ka = [th0 * one], [ka0 * one]
        eth, eka = ([int(x[0] != mp.floor(x[0]))] for x in (th, ka))
        w, ew = [th[0] + TK], [eth[0]]
        u, eu, v, ev = [], [], [], []
        for x, ex, d, e in ((u, eu, th[0], eth[0]), (v, ev, w[0], ew[0])):
            # |d| and the converted d are both at least low
            low = int(mp.floor(abs(d))) - e
            x.append(one * one / d)
            ex.append(-(-(e << 2 * F) // (low * low)) + 1)
        uv, euv, tv, etv, sq, esq, g, eg, tg, etg = ([] for _ in range(10))
        for j in range(K):
            if j:
                w.append(th[1] + H if j == 1 else th[j])
                ew.append(eth[j])
                for x, ex, y, ey in ((u, eu, th, eth), (v, ev, w, ew)):
                    P, eP = conv(y, ey, x, ex, j, 1)
                    x.append(-x[0] * P / one ** 2)
                    ex.append(up(up(x[0]) * eP + up(P) * ex[0] + ex[0] * eP,
                                 2 * F) + 1)
            uv.append(u[j] + v[j])
            euv.append(eu[j] + ev[j])
            val, err = times_t(v, ev, j)
            tv.append(val / one)
            etv.append(up(err, F) + 1)
            P, eP = conv(ka, eka, ka, eka, j)
            sq.append(P / one)
            esq.append(up(eP, F) + 1)
            g.append(c_tt * v[j] - c_m2 * u[j])
            eg.append(math.ceil(a_tt * ev[j] + a_m2 * eu[j]) + 1)
            val, err = times_t(g, eg, j)
            tg.append(val / one)
            etg.append(up(err, F) + 1)
            P, eP = conv(th, eth, th, eth, j)
            tt, ett = times_t(th, eth, j)
            f_th = 2 * ka[j] + c_lin * th[j] + (tt + P) / one
            e_th = (2 * eka[j] + math.ceil(a_lin * eth[j]) + up(ett + eP, F)
                    + 2)
            P1, eP1 = conv(uv, euv, sq, esq, j)
            P2, eP2 = conv(tv, etv, ka, eka, j)
            ttg, ettg = times_t(tg, etg, j)
            f_ka = (P1 / one + c_lin * ka[j] - c_k2 * P2 / one + ttg / one)
            e_ka = (up(eP1, F) + math.ceil(a_lin * eka[j])
                    + math.ceil(a_k2 * up(eP2, F)) + up(ettg, F) + 4)
            if j < 2:
                f_ka -= c_t * (TK if j == 0 else H)
                e_ka += 1
            den = (j + 1) * TK
            for y, ey, f, ef in ((th, eth, f_th, e_th), (ka, eka, f_ka, e_ka)):
                y.append((f - j * y[j]) * H / den)
                ey.append(-(-(ef + j * ey[j]) * H // abs(den)) + 1)
    return (th, ka), (eth, eka)


class TestFlowJetRaw:
    """The flow's Taylor jet on integers against the same recursion at 1024
    bits: each coefficient within its a-priori bound."""

    @staticmethod
    def points():
        """200 seeded points (n, alpha, mu, t, theta, kappa, bits), integer
        and real mu, at 128, 256 and 276 bits, the data carrying 400 bits
        (so they convert to the unit within one unit), then theta = 2e-9 t
        and theta + t = 2e-9 t, beside the guard zone, and t = 1e-30."""
        rng = random.Random(22)
        for trial in range(200):
            bits = (128, 256, 276)[trial % 3]
            n, alpha = rng.randint(0, 5), rng.randint(0, 4)
            mu = rng.choice([0, 1, 2, 3, "0.3", "1.7"])
            with mp.workprec(400):
                t = mp.mpf(rng.uniform(1e-3, 5)) / 3
                th = t * rng.choice([-1, 1]) * rng.uniform(0.05, 20) / 7
                ka = mp.mpf(rng.uniform(-2, 2)) / 11
            yield n, alpha, mu, t, th, ka, bits
        with mp.workprec(276):
            t = mp.mpf("0.731")
            for th in (2e-9 * t, -t + 2e-9 * t):
                for mu in (2, "0.3"):
                    yield 1, 2, mu, t, th, mp.mpf("0.2") * t, 276
            t = mp.mpf("1e-30")
            for mu in (2, "1.7"):
                yield 2, 3, mu, t, -t / 3, t / 7, 276

    def test_seeded_points(self):
        """Order 22.  The unit sits prec + GUARD bits below the largest of
        |theta0|, |kappa0| and tk, or lower where tk needs it to convert
        exactly, and 2^p <= |tk| < 2^(p+1).  The bound is not vacuous: past
        the converted data (j > 0) the largest error reaches 2^-4 of it."""
        worst = 0
        for n, alpha, mu, t, th, ka, bits in self.points():
            params = WeightParams(alpha, mu, "0.5", 0)
            with mp.workprec(bits):
                jet = painleve._flow_jet_factory(n, params)(t, th, ka, 22)
                top = max(mp.mag(v) for v in (t, th, ka))    # or one more
                assert jet.F >= bits + GUARD - top
                assert jet.TK == to_fraction(t) * 2 ** jet.F
                h = Fraction(2) ** jet.p
                assert h <= to_fraction(t) < 2 * h
                refs, bounds = _flow_jet_reference(n, params, t, th, ka, 22,
                                                   jet.F, jet.p)
            with mp.workprec(1024):
                for got, ref, bound in zip((jet.th, jet.ka), refs, bounds):
                    assert len(got) == 23
                    for j, (y, r, e) in enumerate(zip(got, ref, bound)):
                        assert abs(y - r) <= e, (n, alpha, mu, t, th, ka)
                        if j:
                            worst = max(worst, abs(y - r) / e)
        assert worst >= 2.0 ** -4


class TestAbFlow:
    def test_flow_laws_near_main_point(self, params_main, prec):
        with mp.workprec(256):
            grid = mp.linspace(mp.mpf("0.28"), mp.mpf("0.32"), 9)
        rep = ab_flow_check(params_main, 2, grid, prec, threshold=1e-25)
        assert rep.all_passed and len(rep.records) == 22
        ids = {r.check_id for r in rep.records}
        assert {"ab_flow_a_t", "ab_flow_b_t", "ab_flow_a_ladder",
                "ab_flow_b_ladder", "deformation_t_ode",
                "zero_curvature"} <= ids
        assert (rep.context["about"], rep.context["jet_order"]) == (
            str(grid[4]), FLOW_ORDER)
        assert [r.point for r in rep.records[::4][:FLOW_ORDER]] == [
            f"s^{j} about t=0.3" for j in range(FLOW_ORDER)]

    @pytest.mark.parametrize("alpha, mu", [(2, 2), (0, 1)])
    def test_about_zero_keeps_the_t_forms(self, prec, alpha, mu):
        """About t* = 0 the ladder forms and the two Lax records divide by
        t: they are left out, and the two t-forms pass at every order."""
        params = WeightParams(alpha, mu, "0.5", 0)
        for n in (1, 2):
            rep = ab_flow_check(params, n, [mp.mpf(0)] * 9, prec,
                                threshold=1e-25)
            assert rep.all_passed and len(rep.records) == 2 * FLOW_ORDER
            assert [r.check_id for r in rep.records[:2]] == [
                "ab_flow_a_t", "ab_flow_b_t"]

    @pytest.mark.parametrize("fn", [deformation_residual,
                                    compatibility_residual])
    @pytest.mark.parametrize("x, t, name", [
        (-1, 0, "t"), (0, "0.3", "x"), ("0.3", "0.3", "x")])
    def test_lax_residual_refuses_poles(self, prec, fn, x, t, name):
        """t = 0 and x in {0, t} are the poles of A(x): refused by name
        (a bare ZeroDivisionError before)."""
        params = WeightParams(2, 2, "0.5", t)
        with pytest.raises(UnsupportedParameters, match=f"^{name} must"):
            fn(params, 2, x, t, prec)

    def test_needs_n_and_a_node(self, params_main, prec):
        """n = 0 would read b_{-1} and divide by a_0^2 = 0."""
        with pytest.raises(UnsupportedParameters, match="n >= 1"):
            ab_flow_check(params_main, 0, ["0.3"], prec)
        with pytest.raises(SingularPanel, match="grid node"):
            ab_flow_check(params_main, 2, [], prec)

    def test_nudged_coefficient_fails_only_its_records(self, params_main,
                                                       prec, monkeypatch):
        """b_2's s^3 coefficient nudged by 1e-30 relative fails exactly the
        records it feeds: b_2 at s^3 (a_t, b_t) and b_2' at s^2 (b_t
        through t b_2', b_ladder); the order-1 Lax records never read it."""
        def nudged(*args, **kwargs):
            jets = aux_pair_series(*args, **kwargs)
            jets.b[2].c[3] *= 1 + mp.mpf("1e-30")
            return jets

        with mp.workprec(256):
            grid = mp.linspace(mp.mpf("0.27"), mp.mpf("0.33"), 9)
        assert ab_flow_check(params_main, 2, grid, prec,
                             threshold=1e-60).all_passed
        monkeypatch.setattr(painleve, "aux_pair_series", nudged)
        rep = ab_flow_check(params_main, 2, grid, prec, threshold=1e-60)
        assert {(r.check_id, r.point.split()[0]) for r in rep.failures} == {
            ("ab_flow_a_t", "s^3"), ("ab_flow_b_t", "s^2"),
            ("ab_flow_b_t", "s^3"), ("ab_flow_b_ladder", "s^2")}

    def test_s0_records_are_the_per_point_records(self, params_main, prec):
        """The s^0 records equal, to rounding, the records of the laws
        read off an order-1 table at the middle node alone."""
        n = 2
        with mp.workprec(256):
            grid = mp.linspace(mp.mpf("0.27"), mp.mpf("0.33"), 9)
        new = [r for r in ab_flow_check(params_main, n, grid, prec,
                                        threshold=1e-15).records
               if r.point.startswith("s^0 ")]
        old = Report("per-point", {})
        with mp.workprec(prec.significand_bits + 20):
            t = grid[4]
            jets = aux_pair_series(n + 1, params_main, 1, prec, about=t)
            a2, b, th, ka = jets.a2, jets.b, jets.theta, jets.kappa
            dlog_a2, db = a2[n].c[1] / a2[n].c[0], b[n].c[1]
            (R_m, _), (R_n, r_n), (_, r_p) = (
                rr_map(th[i].c[0], ka[i].c[0], t, i, params_main)
                for i in (n - 1, n, n + 1))
            for check_id, terms in (
                    ("ab_flow_a_t", [t * dlog_a2, -2, -b[n - 1].c[0],
                                     b[n].c[0]]),
                    ("ab_flow_b_t", [t * db, -a2[n].c[0], a2[n + 1].c[0],
                                     -b[n].c[0]]),
                    ("ab_flow_a_ladder", [dlog_a2, -R_m, R_n]),
                    ("ab_flow_b_ladder", [db, -r_n, r_p])):
                old.add(check_id, "", n, t, terms, 1e-15)
        assert len(new) == len(old.records) == 4
        for rn, ro in zip(new, old.records):
            assert (rn.check_id, rn.n) == (ro.check_id, ro.n)
            assert abs(rn.scale - ro.scale) <= 1e-15 * ro.scale
            assert max(rn.residual, ro.residual) <= 1e-80 * ro.scale

    def test_b_derivative_matches_series_near_origin(self, params_main, prec):
        """b_n'(t->0) finite and consistent with the exact series."""
        with mp.workprec(256):
            th_s = aux_pair_series(2, params_main, 4).theta[2]
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
        assert deformation_residual(params_main, 2, -1, "0.3", prec) < 1e-25
        assert compatibility_residual(params_main, 2, -1, "0.3", prec) < 1e-25

    @pytest.mark.parametrize("alpha, mu, zeta, t", [
        (4, 3, "-0.3", "2.0"), (0, 3, "0.5", "1.1")])
    def test_flow_laws_off_desk(self, prec, alpha, mu, zeta, t):
        """Points where the old order-4 stencil missed 1e-8 (3e-6 at the
        first); the jets hold every law to 1e-25."""
        params = WeightParams(alpha, mu, zeta, t)
        with mp.workprec(256):
            tm = mp.mpf(t)
            grid = mp.linspace(tm - tm / 10, tm + tm / 10, 9)
        rep = ab_flow_check(params, 2, grid, prec, threshold=1e-25)
        assert rep.all_passed and len(rep.records) == 22
