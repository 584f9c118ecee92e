"""Determinants, recurrence data, polynomial evaluation, Cauchy transforms."""

import mpmath as mp
import pytest

import dlaguerre.hankel as hankel
from dlaguerre import (CrossCheckError, MomentTable, PrecisionCtx,
                       PrecisionExhausted, SingularHankel,
                       UnsupportedParameters, WeightParams,
                       build_moment_table, dN_kernel, epsilon_eval,
                       hankel_determinant, monic_values, orthopoly_eval,
                       recurrence_coefficients, shifted_hankel_determinant,
                       stieltjes_eval, table_for,
                       theta_kappa_from_recurrence)
from dlaguerre.hankel import GUARD_BITS, hankel_minors
from dlaguerre.moments import TruncSeries
from dlaguerre.oracle import (dN_by_quadrature, gram_schmidt_recurrence,
                              inner_product)
from dlaguerre.painleve import aux_pair_series
from dlaguerre.precision import workprec
from dlaguerre.quadrature import integrate_weighted
from conftest import SIGNED_ZERO_T, per_node, rel_err


class TestDeterminants:
    def test_empty_convention(self, tables_origin, prec):
        mom, _ = tables_origin
        assert hankel_determinant(mom, 0, prec) == 1

    def test_two_by_two(self, tables_origin, prec):
        mom, _ = tables_origin
        assert rel_err(hankel_determinant(mom, 2, prec), mp.mpf(720)) < 1e-70

    def test_origin_product_formula(self, tables_origin, prec):
        """Delta_n(0) = (1-zeta)^n prod k! prod Gamma(1+alpha+mu+k), n <= 6."""
        mom, tab = tables_origin
        with mp.workprec(256):
            for n in range(7):
                pred = mp.mpf("0.5") ** n
                for k in range(1, n):
                    pred *= mp.factorial(k)
                for k in range(n):
                    pred *= mp.gamma(5 + k)
                assert rel_err(tab.delta[n], pred) < 1e-40

    def test_shifted_seed(self, tables_origin, prec):
        mom, _ = tables_origin
        assert shifted_hankel_determinant(mom, 0, prec) == 0
        assert rel_err(shifted_hankel_determinant(mom, 1, prec),
                       mom[1]) < 1e-70

    def test_low_width_meets_tol(self, params_main):
        """Delta_8 at the desk point from 64-bit moments: the 64-bit pass is
        about 7.7e-14 off, well inside tol 1e-10, and the value returned
        (eliminated 60 bits wider) meets tol against 1024 bits."""
        lowp = PrecisionCtx(64, "1e-10")
        mom = build_moment_table(params_main, 14, lowp, cross_check=False)
        ref = build_moment_table(params_main, 15, PrecisionCtx(1024),
                                 cross_check=False)
        with mp.workprec(1024):
            want = hankel_minors(ref, 8)[0][8]
        assert rel_err(hankel_determinant(mom, 8, lowp), want) < 1e-10

    def test_precision_exhausted_raises(self, prec):
        """(1, 0, -0.429535) has every Delta_m > 0 at t = 0 and a_2^2,
        a_3^2 < 0 at t = 0.604487, so Delta_3 crosses 0 in between; t lies
        within 1e-71 of that zero (bisection at 1024 bits).  About 72 of
        256 bits' 77 digits cancel there, and 60 more bits leave ~1e-24."""
        p = WeightParams(1, 0, "-0.429535", SIGNED_ZERO_T)
        mom = build_moment_table(p, 7, prec, cross_check=False)
        with pytest.raises(PrecisionExhausted, match="Delta_3"):
            recurrence_coefficients(mom, 3, prec)
        with pytest.raises(PrecisionExhausted, match="Delta_3"):
            hankel_determinant(mom, 3, prec)

    @pytest.mark.parametrize("source", ["closed_form", "quadrature"])
    def test_foreign_moments_refused(self, prec, params_main, source):
        """The minors come from moments rebuilt from the table's parameters,
        so a table whose mu_3 is not its parameters' moment (scaled by
        1 + 1e-20) is refused, where it used to be replaced unnoticed."""
        mom = build_moment_table(params_main, 13, prec, source,
                                 cross_check=False)
        with mp.workprec(256):
            vals = list(mom.values)
            vals[3] *= 1 + mp.mpf("1e-20")
        bad = MomentTable(params_main, 13, tuple(vals), source, prec)
        with pytest.raises(CrossCheckError, match="^mu_3 "):
            recurrence_coefficients(bad, 6, prec)
        with pytest.raises(CrossCheckError, match="^mu_3 "):
            hankel_determinant(bad, 3, prec)
        assert recurrence_coefficients(mom, 6, prec).n_max == 6

    def test_singular_hankel(self, prec, params_main):
        with mp.workprec(256):
            ones = MomentTable(params_main, 4, tuple(mp.mpf(1) for _ in range(5)),
                               "quadrature", prec)
        with pytest.raises((SingularHankel, PrecisionExhausted)):
            recurrence_coefficients(ones, 1, prec)


def _pivoted_minors(mom, n):
    """Delta_m, sigma_m for m <= n by mpmath's pivoted LU, one matrix each."""
    delta, sigma = [mp.mpf(1)], [mp.mpf(0)]
    for m in range(1, n + 1):
        delta.append(mp.det(mp.matrix(
            [[mom[i + j] for j in range(m)] for i in range(m)])))
        sigma.append(mp.det(mp.matrix(
            [[mom[i + j] for j in range(m - 1)] + [mom[i + m]]
             for i in range(m)])))
    return delta, sigma


class TestHankelMinors:
    @pytest.mark.parametrize("alpha, mu", [(1, 0), (0, 1), (3, 1)])
    @pytest.mark.parametrize("t", ["0.01", "5"])
    @pytest.mark.parametrize("zeta", ["-2", "0.9"])
    def test_matches_pivoted_reference(self, alpha, mu, t, zeta):
        """Sizes up to 10 at 512 bits against pivoted LU at 1024 bits, on
        odd alpha (signed weight, a_n^2 < 0 at t = 5) and alpha + mu <= 1:
        the 512-bit pass keeps the digits its measured loss leaves, and the
        values eliminated GUARD_BITS wider 60 bits more, within 10^3."""
        p = WeightParams(alpha, mu, zeta, t)
        ref = build_moment_table(p, 19, PrecisionCtx(1024), cross_check=False)
        narrow = PrecisionCtx(512)
        mom = build_moment_table(p, 19, narrow, cross_check=False)
        with mp.workprec(512):
            delta, sigma = hankel_minors(mom, 10)
        wide_delta, wide_sigma, lost = hankel._minors(mom, 10, 19, narrow, [])
        with mp.workprec(1024):
            want_delta, want_sigma = _pivoted_minors(ref, 10)
        for m in range(1, 11):
            assert max(lost[m]) < 12
            assert rel_err(delta[m], want_delta[m]) < 10 ** (lost[m][0] - 152)
            assert rel_err(sigma[m], want_sigma[m]) < 10 ** (lost[m][1] - 152)
            for got, want, loss in ((wide_delta[m], want_delta[m], lost[m][0]),
                                    (wide_sigma[m], want_sigma[m], lost[m][1])):
                assert rel_err(got, want) < 10 ** (loss - 151) / 2 ** GUARD_BITS
        if alpha % 2 and t == "5":
            assert any(delta[m - 1] * delta[m + 1] < 0 for m in range(1, 10))

    def test_zero_pivot_raises_on_numbers(self):
        with mp.workprec(256):
            ones = [mp.mpf(1)] * 6
            with pytest.raises(SingularHankel, match="Delta_2"):
                hankel_minors(ones, 3)

    def test_zero_pivot_raises_on_jets(self):
        """A pivot whose constant term vanishes stops the jet elimination,
        even when its higher coefficients do not."""
        with mp.workprec(256):
            mk = [TruncSeries([1, k]) for k in (1, 2, 3, 5)]
            with pytest.raises(SingularHankel, match="Delta_2"):
                hankel_minors(mk, 2)


def _assert_near_wide_reference(tab, params, bound):
    """Every Delta_m, a_n^2 and b_n within bound, relative, of 2048 bits."""
    mom = build_moment_table(params, 2 * tab.n_max + 1, PrecisionCtx(2048),
                             cross_check=False)
    ref = recurrence_coefficients(mom, tab.n_max, PrecisionCtx(2048))
    with mp.workprec(2048):
        for key in ("delta", "a2", "b"):
            for got, want in zip(getattr(tab, key), getattr(ref, key)):
                assert abs(got - want) <= bound * abs(want)


class TestRecurrenceTableProvenance:
    def test_desk_point_runs_at_base_precision(self, params_main, prec):
        """n_max = 3 at the desk point: built once at the context's 256 bits
        plus GUARD_BITS, one measured (Delta_m, sigma_m) loss per minor,
        Delta_1 = mu_0 and sigma_1 = mu_1 with none, and every stored value
        within 1e-76 of a 2048-bit table."""
        _, tab = table_for(params_main, 3, prec)
        assert tab.bits == prec.significand_bits + GUARD_BITS == 316
        assert len(tab.digits_lost) == tab.n_max + 2
        assert tab.digits_lost[:2] == ((0.0, 0.0), (0.0, 0.0))
        assert 0 < max(max(pair) for pair in tab.digits_lost) < 12
        _assert_near_wide_reference(tab, params_main, 1e-76)

    def test_escalating_point_reports_wider_precision(self, params_main, prec,
                                                      tables_main):
        """n_max = 6 at the desk point, which once escalated to 512 bits:
        the table reports the one wider width it was built at, the same as
        for n_max = 3, and Delta_7 and sigma_7, the worst minors, lose about
        6 of 77 digits; every stored value is within 1e-76 of 2048 bits."""
        _, tab = tables_main
        _, small = table_for(params_main, 3, prec)
        assert tab.bits == small.bits == prec.significand_bits + GUARD_BITS
        assert len(tab.digits_lost) == tab.n_max + 2
        assert tab.digits_lost[:4] == small.digits_lost[:4]
        worst = max(max(pair) for pair in tab.digits_lost)
        assert max(tab.digits_lost[7]) == worst
        assert 5 < min(tab.digits_lost[7]) <= worst < 12
        _assert_near_wide_reference(tab, params_main, 1e-76)

    def test_signed_point_builds_moments_once(self, prec, monkeypatch):
        """(1, 0, -0.429535, 0.604487) at n_max = 9, where the Hadamard
        estimate of the cancellation (bound over |det|) asks for 1024 bits:
        one moment build at 316 bits, and the table within 1e-76 of 2048
        bits."""
        p = WeightParams(1, 0, "-0.429535", "0.604487")
        mom = build_moment_table(p, 19, prec, cross_check=False)
        rebuilt = []

        def counting(params, k_max, wider, *args, **kwargs):
            rebuilt.append(wider.significand_bits)
            return build_moment_table(params, k_max, wider, *args, **kwargs)

        monkeypatch.setattr(hankel, "build_moment_table", counting)
        tab = recurrence_coefficients(mom, 9, prec)
        monkeypatch.undo()
        assert tab.bits == 316 and rebuilt == [316]
        assert max(max(pair) for pair in tab.digits_lost) < 12
        _assert_near_wide_reference(tab, p, 1e-76)

    def test_a_is_computed_once_and_guards_sign(self, prec):
        """a_n is the orthonormal view's square root of a_n^2, taken on
        demand; a_n^2 <= 0 (signed weight) raises."""
        _, tab = table_for(WeightParams(1, 0, "0.5", "0.3"), 4, prec)
        assert tab.a(0) == 0
        with mp.workprec(256):
            assert rel_err(tab.a(1), mp.sqrt(tab.a2[1])) < 1e-70
        assert tab.a2[3] < 0
        with pytest.raises(SingularHankel, match="a_3"):
            tab.a(3)


class TestAuxiliaries:
    """theta_n and kappa_n come from the one map recurrence_data, run on
    the wide minors for tables and on jets by aux_pair_series."""

    @pytest.mark.parametrize("point", [(2, 0, "-1.5", "0.013"),
                                       (4, 3, "0.75", "0.01")])
    def test_rounded_once_from_wide_minors(self, point, prec):
        """At small t, theta_n and kappa_n (n <= 4) are within 1e-77 of a
        1024-bit table, relative to max(|value|, 1); formed from the
        256-bit b_n, a_n^2 and sigma_n/Delta_n they were up to 3e-76 off."""
        p = WeightParams(*point)
        _, tab = table_for(p, 4, prec)
        _, ref = table_for(p, 4, PrecisionCtx(1024))
        with mp.workprec(1024):
            for n in range(5):
                got = theta_kappa_from_recurrence(tab, n)
                want = theta_kappa_from_recurrence(ref, n)
                for key in ("theta", "kappa"):
                    g, w = getattr(got, key), getattr(want, key)
                    assert abs(g - w) <= 1e-77 * max(abs(w), 1), (n, key)

    def test_jets_and_tables_share_the_map(self, params_main, prec):
        """The constant terms of the order-1 jets about t, rounded, are the
        table's theta_n and kappa_n bit for bit: the same moments, the same
        elimination and the same map at the same width."""
        _, tab = table_for(params_main, 4, prec)
        jets = aux_pair_series(4, params_main, 1, prec, about="0.3")
        with mp.workprec(256):
            for n in range(5):
                assert +jets.theta[n].c[0] == tab.theta[n]
                assert +jets.kappa[n].c[0] == tab.kappa[n]
                assert +jets.a2[n].c[0] == tab.a2[n]


class TestRecurrence:
    def test_classical_values(self, tables_origin):
        """a_n^2(0) = n(n+alpha+mu), b_n(0) = 2n+alpha+mu+1."""
        _, tab = tables_origin
        for n in range(1, 6):
            assert rel_err(tab.a2[n], n * (n + 4)) < 1e-60
        for n in range(6):
            assert rel_err(tab.b[n], 2 * n + 5) < 1e-60

    def test_b0_is_moment_ratio(self, tables_origin):
        mom, tab = tables_origin
        assert rel_err(tab.b[0], mom[1] / mom[0]) < 1e-70

    def test_gamma_identities(self, tables_main):
        """a_n = gamma_{n-1}/gamma_n; b_n = c_n - c_{n+1}, where c_n =
        -sigma_n/Delta_n = g_{n,1}/g_n is the x^{n-1} coefficient of P_n."""
        _, tab = tables_main
        with mp.workprec(256):
            for n in range(1, 6):
                assert rel_err(tab.a(n), tab.gamma[n - 1] / tab.gamma[n]) < 1e-60
            c = [-tab.sigma[n] / tab.delta[n] for n in range(7)]
            for n in range(6):
                assert rel_err(tab.b[n], c[n] - c[n + 1]) < 1e-60

    def test_positive_weight_positivity(self, tables_main):
        _, tab = tables_main
        for n in range(1, 7):
            assert tab.a2[n] > 0
        for n in range(7):
            assert tab.delta[n] > 0

    def test_gram_schmidt_equivalence(self, params_main, tables_main):
        """Determinant route vs Gram-Schmidt on the quadrature inner product."""
        mom, tab = tables_main
        gs_prec = PrecisionCtx(256, "1e-45")
        gs = gram_schmidt_recurrence(params_main, 5, gs_prec)
        with mp.workprec(256):
            for n in range(1, 6):
                assert rel_err(gs["a"][n], tab.a(n)) < 1e-18
                assert rel_err(gs["b"][n], tab.b[n]) < 1e-18
                assert rel_err(gs["gamma1_ratio"][n],
                               -tab.sigma[n] / tab.delta[n]) < 1e-18


class TestMonicValues:
    def test_leading_coefficients(self, tables_main):
        """P_n = x^n - (sigma_n/Delta_n) x^{n-1} + ..., read off at X = 1e30,
        up to n = n_max + 1."""
        _, tab = tables_main
        with mp.workprec(256):
            X = mp.mpf(10) ** 30
            P = monic_values(tab, 7, X)
            for n in range(1, 8):
                sub = (P[n] - X ** n) / X ** (n - 1)
                assert rel_err(sub, -tab.sigma[n] / tab.delta[n]) < 1e-20

    def test_x_jet_carries_the_derivative(self, tables_main):
        """An order-1 x-jet carries P_n', checked against mpmath's diff."""
        _, tab = tables_main
        with mp.workprec(256):
            for x in (mp.mpf(-1), mp.mpf("0.7")):
                jets = monic_values(tab, 5, TruncSeries([x, 1]))
                for n in (0, 3, 5):
                    want = mp.diff(lambda s: monic_values(tab, n, s)[n], x)
                    assert jets[n].c[0] == monic_values(tab, n, x)[n]
                    err = abs(jets[n].c[1] - want)
                    assert err <= 1e-40 * max(abs(want), 1)

    @pytest.mark.parametrize("alpha, mu, zeta, t", [
        (2, 2, "0.5", "0.3"), (2, 2, "0.5", "2"),
        (1, 0, "-0.429535", "0.604487"), (3, 2, "-0.85424", "3.87196"),
        (1, 0, "0.9", "5")])
    def test_t_jets_match_numbers(self, prec, alpha, mu, zeta, t):
        """monic_values on a JetTable about t*: the order-0 term of every
        P_m(x) jet equals the value from the table at t*, signed weights
        (a_m^2 < 0, or mu_0 < 0 at t = 5) included."""
        p = WeightParams(alpha, mu, zeta, t)
        _, tab = table_for(p, 4, prec, cross_check=False)
        jets = aux_pair_series(4, p, 2, prec, about=t)
        with mp.workprec(256):
            for x in (mp.mpf(-1), mp.mpf("0.5"), mp.mpf(3)):
                want = monic_values(tab, 5, x)
                got = monic_values(jets, 5, x)
                for m in range(6):
                    assert got[m].order == 2
                    assert rel_err(got[m].c[0], want[m]) < 1e-50


class TestPolyEval:
    def test_p0_normalization(self, tables_main):
        mom, tab = tables_main
        pe = orthopoly_eval(tab, 0, 1)
        with mp.workprec(256):
            assert rel_err(pe.value_n, 1 / mp.sqrt(mom[0])) < 1e-70

    def test_orthonormality_by_quadrature(self, tables_main, prec):
        mom, tab = tables_main
        ip = inner_product((2, 3), tab, mom, PrecisionCtx(192, "1e-30"))
        assert abs(ip) < 1e-25
        ip_diag = inner_product((3, 3), tab, mom, PrecisionCtx(192, "1e-30"))
        assert rel_err(ip_diag, 1) < 1e-25

    def test_leading_coefficient(self, tables_main):
        """p_n(X)/X^n -> gamma_n; the subleading term forces X >> sum(b)."""
        _, tab = tables_main
        with mp.workprec(256):
            X = mp.mpf(10) ** 20
            for n in (1, 3, 5):
                pe = orthopoly_eval(tab, n, X)
                assert rel_err(pe.value_n / X ** n, tab.gamma[n]) < 1e-15

    def test_eval_beyond_table_raises(self, tables_main):
        _, tab = tables_main
        with pytest.raises(ValueError):
            orthopoly_eval(tab, 7, 1)


class TestEpsilon:
    def test_casoratian(self, tables_main, prec):
        """p_n eps_{n-1} - p_{n-1} eps_n = 1/a_n at x = -1, n = 2."""
        mom, tab = tables_main
        qp = PrecisionCtx(192, "1e-30")
        with mp.workprec(256):
            x = mp.mpf(-1)
            e2 = epsilon_eval(tab, mom, 2, x, qp)
            e1 = epsilon_eval(tab, mom, 1, x, qp)
            pe = orthopoly_eval(tab, 2, x)
            got = pe.value_n * e1 - pe.value_nm1 * e2
            assert rel_err(got, 1 / tab.a(2)) < 1e-25

    @pytest.mark.parametrize("x", ["-0.01", "2+0.2j"])
    def test_casoratian_near_support(self, tables_main, x):
        """The Cauchy panels grade down to a pole 0.01 to 0.2 off [0, inf)."""
        mom, tab = tables_main
        qp = PrecisionCtx(192, "1e-28")
        with mp.workprec(256):
            x = mp.mpmathify(x)
            e2 = epsilon_eval(tab, mom, 2, x, qp)
            e1 = epsilon_eval(tab, mom, 1, x, qp)
            pe = orthopoly_eval(tab, 2, x)
            got = pe.value_n * e1 - pe.value_nm1 * e2
            assert rel_err(got, 1 / tab.a(2)) < 1e-25

    def test_stieltjes_matches_eps0(self, tables_main, prec):
        mom, tab = tables_main
        qp = PrecisionCtx(192, "1e-30")
        with mp.workprec(256):
            f = stieltjes_eval(mom, -1, qp)
            e0 = epsilon_eval(tab, mom, 0, -1, qp)
            assert rel_err(e0 / tab.gamma[0], f) < 1e-28

    def test_large_x_decay(self, tables_main):
        """x^{n+1} eps_n -> 1/gamma_n; correction is sum(b)/x, so x = -1e14."""
        mom, tab = tables_main
        qp = PrecisionCtx(192, "1e-30")
        with mp.workprec(256):
            x = mp.mpf(-1e14)
            for n in (1, 2):
                e = epsilon_eval(tab, mom, n, x, qp)
                assert rel_err(x ** (n + 1) * e, 1 / tab.gamma[n]) < 1e-10

    def test_on_support_refused(self, tables_main):
        mom, tab = tables_main
        with pytest.raises(UnsupportedParameters):
            epsilon_eval(tab, mom, 1, mp.mpf("0.5"))

    def test_complex_point(self, tables_main):
        mom, tab = tables_main
        qp = PrecisionCtx(128, "1e-20")
        val = epsilon_eval(tab, mom, 1, mp.mpc(0.5, 1.0), qp)
        assert mp.isfinite(val) and mp.im(val) != 0


class TestChristoffelDarboux:
    def test_symmetry(self, tables_main):
        _, tab = tables_main
        with mp.workprec(256):
            a = dN_kernel(tab, 2, 5, 7)
            b = dN_kernel(tab, 2, 7, 5)
            assert rel_err(a, b) < 1e-70

    def test_n1_explicit(self, tables_main):
        """D_1(y1,y2) = y1 y2 mu0 - (y1+y2) mu1 + mu2."""
        mom, tab = tables_main
        with mp.workprec(256):
            got = dN_kernel(tab, 1, 5, 7)
            want = 35 * mom[0] - 12 * mom[1] + mom[2]
            assert rel_err(got, want) < 1e-60

    def test_confluent_matches_extrapolation(self, tables_main):
        _, tab = tables_main
        with mp.workprec(256):
            s = mp.mpf(4)
            direct = dN_kernel(tab, 2, s, s)
            h = mp.mpf(2) ** -30
            near = (dN_kernel(tab, 2, s + h, s - h)
                    + dN_kernel(tab, 2, s - h, s + h)) / 2
            assert rel_err(direct, near) < 1e-15

    @pytest.mark.parametrize("zeta, t", [("0.9", "5"),
                                         ("-0.429535", "0.604487")])
    @pytest.mark.parametrize("N", [1, 2])
    def test_signed_weight_against_quadrature(self, prec, zeta, t, N):
        """Odd alpha makes the weight signed (mu_0 < 0 at t = 5, so gamma_0
        is not real; a_2^2 < 0 at the second point): the monic kernel still
        matches the tensor-quadrature oracle to criterion 8's 1e-10."""
        p = WeightParams(1, 0, zeta, t)
        _, tab = table_for(p, N + 1, prec, cross_check=False)
        for y1, y2 in ((5, 7), (4, 4)):
            ref = dN_by_quadrature(p, N, y1, y2, prec)
            assert rel_err(dN_kernel(tab, N, y1, y2), ref.value) < 1e-10

    def test_table_too_small(self, tables_main):
        _, tab = tables_main
        with pytest.raises(ValueError):
            dN_kernel(tab, 6, 1, 2)


class TestMonicValuesRaw:
    """monic_values at an mpf x runs on raw mpf tuples; its bits are those
    of the plain recurrence, as are the generic path's on mpc and jets."""

    @staticmethod
    def loop(tab, n, x):
        cur, prev = (x - tab.b[0]) * 0 + 1, 0
        out = [cur]
        for m in range(n):
            cur, prev = (x - tab.b[m]) * cur - tab.a2[m] * prev, cur
            out.append(cur)
        return out

    @pytest.mark.parametrize("x", ["-2", "0.15", "3.7", "1e5", "0"])
    def test_mpf_x(self, tables_main, x):
        _, tab = tables_main
        for bits in (192, 276):
            with mp.workprec(bits):
                got = monic_values(tab, 7, mp.mpf(x))
                want = self.loop(tab, 7, mp.mpf(x))
                assert [v._mpf_ for v in got] == [v._mpf_ for v in want]

    def test_mpc_and_jets(self, tables_main):
        _, tab = tables_main
        with mp.workprec(276):
            z = mp.mpc(-1, "0.5")
            assert ([v._mpc_ for v in monic_values(tab, 6, z)]
                    == [v._mpc_ for v in self.loop(tab, 6, z)])
            jet = TruncSeries([mp.mpf("0.4"), 1])
            got, want = monic_values(tab, 6, jet), self.loop(tab, 6, jet)
            assert ([[c._mpf_ for c in v.c] for v in got]
                    == [[c._mpf_ for c in v.c] for v in want])


class TestCauchySweepRaw:
    """cauchy_sweep's column integrand runs on integers, two columns for
    each complex kernel; its values and error estimates agree with those
    of the plain mpf integrand evaluated node by node to the context's
    last bits (its own columns round once more, at 16 bits past the
    working width)."""

    @staticmethod
    def plain_sweep(table, n, x, prec):
        """integrate_weighted over the mpf integrand cauchy_sweep replaces."""
        with mp.workprec(prec.significand_bits + 20):
            x = mp.mpmathify(x)

            def fn(s):
                P = monic_values(table, n, s)
                inv = 1 / (x - s)
                dinv = -inv * inv
                return [p * inv for p in P] + [p * dinv for p in P]

            return integrate_weighted(
                per_node(fn), table.params, prec, pole=x,
                extra_digits=hankel._cancel_digits(table.n_max + 1, x)).items


    @pytest.mark.parametrize("x", [-2, "-0.35", (-1, "0.5"), ("0.7", -2)],
                             ids=str)
    def test_against_plain_integrand(self, tables_main, x):
        _, tab = tables_main
        qprec = PrecisionCtx(192, "1e-28")
        x = mp.mpc(*x) if isinstance(x, tuple) else x
        hankel._SWEEP.clear()
        E, dE = hankel.cauchy_sweep(tab, 4, x, qprec)
        want = self.plain_sweep(tab, 4, x, qprec)
        with workprec(qprec):
            close = mp.ldexp(1, 8 - qprec.significand_bits)
            for got, ref in zip(E.items + dE.items, want):
                assert abs(got.value - ref.value) <= close * abs(ref.value)
                assert abs(got.error - ref.error) <= close * abs(ref.value)
