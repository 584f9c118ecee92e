"""Moment layer: Kummer series, closed form vs quadrature, table invariants."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlaguerre import (CrossCheckError, NoConvergence, NonterminatingPolePassed,
                       PrecisionCtx, UnsupportedParameters, WeightParams,
                       build_moment_table, confluent_1f1, moment_closed_form,
                       moment_limit_t0, moment_quadrature)
from conftest import rel_err


class TestConfluent1F1:
    def test_empty_sum_is_one(self, prec):
        assert confluent_1f1("3.7", "5.1", 0, prec) == 1

    def test_terminating_two_terms(self, prec):
        assert confluent_1f1(-1, 4, 2, prec) == mp.mpf("0.5")

    def test_against_exponential(self, prec):
        # 1F1(1; 2; z) = (e^z - 1)/z
        with mp.workprec(256):
            z = mp.mpf("-0.3")
            want = (mp.exp(z) - 1) / z
            got = confluent_1f1(1, 2, z, prec)
            assert rel_err(got, want) < 1e-28

    def test_against_library(self, prec):
        with mp.workprec(256):
            for a, b, z in ((mp.mpf("0.7"), mp.mpf("2.3"), mp.mpf("-1.1")),
                            (mp.mpf(3), mp.mpf("4.5"), mp.mpf("0.25")),
                            (mp.mpf("-2"), mp.mpf("7"), mp.mpf("5"))):
                want = mp.hyp1f1(a, b, z)
                got = confluent_1f1(a, b, z, prec)
                assert rel_err(got, want) < 1e-28

    def test_pole_detected(self, prec):
        with pytest.raises(NonterminatingPolePassed):
            confluent_1f1("2.5", -3, 1, prec)

    def test_termination_beats_pole(self, prec):
        # upper -2 terminates at j=2 before the lower parameter pole at j=5
        val = confluent_1f1(-2, -5, 1, prec)
        with mp.workprec(256):
            want = 1 + mp.mpf(-2) / (-5) + mp.mpf(2) / 20 / 2
            assert rel_err(val, want) < 1e-70

    def test_no_convergence_budget(self):
        tiny = PrecisionCtx(max_series_terms=3)
        with pytest.raises(NoConvergence):
            confluent_1f1("0.5", "1.5", 30, tiny)


class TestWeightParams:
    def test_validation(self):
        with pytest.raises(UnsupportedParameters):
            WeightParams(-1, 2, "0.5", "0.3")
        with pytest.raises(UnsupportedParameters):
            WeightParams(2, -1, "0.5", "0.3")
        with pytest.raises(UnsupportedParameters):
            WeightParams(2, 2, "1.5", "0.3")
        with pytest.raises(UnsupportedParameters):
            WeightParams(2, 2, "0.5", -1)
        with pytest.raises(UnsupportedParameters):
            WeightParams(2, 2, "0.5", "inf")
        with pytest.raises(UnsupportedParameters):
            WeightParams(True, 2, "0.5", "0.3")
        p = WeightParams("2.0", "2.0", "0.5", "0.3")
        assert p.mu_is_integer and (p.alpha, p.mu) == (2, 2)
        assert moment_closed_form(0, p, PrecisionCtx()) == moment_closed_form(
            0, WeightParams(2, 2, "0.5", "0.3"), PrecisionCtx())

    def test_weight_jump(self):
        p = WeightParams(2, 2, "0.5", "0.3")
        with mp.workprec(128):
            below = p.weight(mp.mpf("0.2"))
            above = p.weight(mp.mpf("0.4"))
            assert below > 0 and above > 0
            # jump factor halves the nucleus above t
            nucleus = (mp.mpf("0.4") - mp.mpf("0.3")) ** 2 * mp.mpf("0.4") ** 2 \
                * mp.exp(mp.mpf("-0.4"))
            assert rel_err(above, nucleus / 2) < 1e-30


class TestClosedForm:
    def test_origin_degenerate(self, prec):
        p0 = WeightParams(2, 2, "0.5", 0)
        assert moment_closed_form(0, p0, prec) == 12
        assert moment_limit_t0(0, p0, prec) == 12

    def test_classical_moment(self, prec):
        # zeta = 0, t = 0: plain Laguerre moment Gamma(7)
        p = WeightParams(2, 2, 0, 0)
        assert rel_err(moment_quadrature(2, p, prec), mp.mpf(720)) < 1e-40

    def test_mu_zero_zeta_zero_degenerates(self, prec):
        # mu = 0, zeta = 0, t = 0: mu_k = Gamma(1 + k + alpha) for any k
        p = WeightParams(3, 0, 0, 0)
        with mp.workprec(256):
            for k in (0, 2, 5):
                want = mp.gamma(1 + k + 3)
                assert rel_err(moment_closed_form(k, p, prec), want) < 1e-60

    def test_matches_quadrature_main(self, prec, params_main):
        cf = moment_closed_form(1, params_main, prec)
        q = moment_quadrature(1, params_main, prec)
        assert rel_err(cf, q) < 1e-25

    @pytest.mark.parametrize("alpha, mu", [(0, 0), (1, 0), (0, 1)])
    def test_matches_quadrature_low_corner(self, prec, alpha, mu):
        """alpha + mu <= 1: no tail cutoff leaves e^-50 of the integral."""
        p = WeightParams(alpha, mu, "0.5", "0.3")
        assert rel_err(moment_quadrature(0, p, prec),
                       moment_closed_form(0, p, prec)) < 1e-25
        build_moment_table(p, 4, prec, cross_check=True)

    def test_noninteger_mu_refused(self, prec):
        p = WeightParams(2, "1.5", "0.5", "0.3")
        with pytest.raises(UnsupportedParameters):
            moment_closed_form(0, p, prec)
        # quadrature path accepts it
        v = moment_quadrature(0, p, prec)
        assert mp.isfinite(v)

    def test_t_to_zero_continuity(self, prec):
        p = WeightParams(2, 2, "0.5", "1e-31")
        limit = moment_limit_t0(3, p, prec)
        assert rel_err(moment_closed_form(3, p, prec), limit) < 1e-29


class TestMomentTable:
    def test_origin_values(self, prec):
        p0 = WeightParams(2, 2, "0.5", 0)
        tab = build_moment_table(p0, 2, prec)
        assert [int(v) for v in tab.values] == [12, 60, 360]

    def test_single_entry(self, prec, params_main):
        tab = build_moment_table(params_main, 0, prec)
        assert len(tab) == 1
        assert rel_err(tab[0], moment_quadrature(0, params_main, prec)) < 1e-40

    def test_sources_agree(self, prec, params_main):
        t_cf = build_moment_table(params_main, 4, prec, "closed_form")
        t_q = build_moment_table(params_main, 4, prec, "quadrature")
        for a, b in zip(t_cf.values, t_q.values):
            assert rel_err(a, b) < 1e-40

    def test_bad_source(self, prec, params_main):
        with pytest.raises(ValueError):
            build_moment_table(params_main, 2, prec, "divination")


class TestZetaStructure:
    @settings(max_examples=10, deadline=None)
    @given(st.tuples(
        st.integers(min_value=-30, max_value=8),
        st.integers(min_value=-30, max_value=8),
        st.integers(min_value=-30, max_value=8)).filter(
            lambda z: len(set(z)) == 3))
    def test_affine_in_zeta(self, zetas):
        """mu_k(zeta) is affine: three-point collinearity (zeta in tenths)."""
        prec = PrecisionCtx(192, "1e-25")
        vals = []
        with mp.workprec(192):
            zs = [mp.mpf(z) / 10 for z in zetas]
            for z in zs:
                p = WeightParams(2, 1, z, "0.3")
                vals.append(moment_closed_form(2, p, prec))
            s01 = (vals[1] - vals[0]) / (zs[1] - zs[0])
            s02 = (vals[2] - vals[0]) / (zs[2] - zs[0])
            assert rel_err(s01, s02) < 1e-30

    def test_positive_for_even_alpha(self, prec):
        for zeta in ("0", "0.5", "-1", "0.9"):
            for t in ("0.1", "1", "3"):
                p = WeightParams(2, 1, zeta, t)
                for k in (0, 3, 7):
                    assert moment_closed_form(k, p, prec) > 0
