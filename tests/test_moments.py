"""Moment layer: jets, closed form vs quadrature, table invariants."""

import itertools
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational

from dlaguerre import (CrossCheckError, PrecisionCtx, SingularHankel,
                       TruncSeries, UnsupportedParameters, WeightParams,
                       build_moment_table, moment_closed_form, moment_jets,
                       moment_quadrature, moment_series, table_for)
from dlaguerre import moments
from dlaguerre.painleve import aux_pair_series
from dlaguerre.precision import to_fraction
from conftest import rel_err


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

    @pytest.mark.parametrize("name, bad", [
        ("alpha", "1/0"), ("mu", "1/0"), ("t", "1/0"), ("mu", "abc"),
        ("t", "abc"), ("mu", None), ("t", None)])
    def test_malformed_values_raise_typed(self, name, bad):
        """A value that is not a number raises UnsupportedParameters naming
        the parameter, not ZeroDivisionError, ValueError or TypeError."""
        args = {"alpha": 2, "mu": 2, "zeta": "0.5", "t": "0.3", name: bad}
        with pytest.raises(UnsupportedParameters, match=name):
            WeightParams(**args)

    def test_zeta_compared_exactly(self):
        """zeta = 1 - 1e-23 is below 1 (it rounds to 1 at 64 bits); every
        spelling of 1, and 1 + 1e-23, is not."""
        WeightParams(2, 2, "0.99999999999999999999999", "0.3")
        for one in ("1", "1.0", 1, 1.0, mp.mpf(1),
                    "1.00000000000000000000001"):
            with pytest.raises(UnsupportedParameters, match="zeta"):
                WeightParams(2, 2, one, "0.3")
        with pytest.raises(UnsupportedParameters):
            WeightParams(True, 2, "0.5", "0.3")
        p = WeightParams("2.0", "2.0", "0.5", "0.3")
        assert p.mu_is_integer and (p.alpha, p.mu) == (2, 2)
        assert moment_closed_form(0, p, PrecisionCtx()) == moment_closed_form(
            0, WeightParams(2, 2, "0.5", "0.3"), PrecisionCtx())

    def test_large_integers_kept_exactly(self):
        """alpha and mu are stored as exact ints (they were rounded to 64
        bits: 10**30 + 1 came back as 10**30 + 19884624838657)."""
        p = WeightParams(10**30 + 1, "1e30", "0.5", "0.3")
        assert (p.alpha, p.mu) == (10**30 + 1, 10**30)

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
    @pytest.mark.parametrize("mu", [10**30, "1e400"])
    def test_factorial_overflow_is_typed(self, prec, mu):
        """k + alpha + mu past sys.maxsize raised OverflowError from
        math.factorial."""
        p = WeightParams(2, mu, "0.5", "0.3")
        with pytest.raises(UnsupportedParameters, match="k \\+ alpha \\+ mu"):
            moment_closed_form(0, p, prec)

    def test_origin_degenerate(self, prec):
        p0 = WeightParams(2, 2, "0.5", 0)
        assert moment_closed_form(0, p0, prec) == 12
        # (1 - zeta) (k + alpha + mu)! at t = 0
        assert moment_closed_form(3, p0, prec) == 2520

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
        limit = moment_closed_form(3, p.replace_t(0), prec)
        assert rel_err(moment_closed_form(3, p, prec), limit) < 1e-29

    def test_against_kummer_at_512_bits(self, prec):
        """The 256-bit closed form is within 1e-76 of the Kummer form
        Gamma(S+1) [1F1(-a; -S; -t) - zeta e^-t 1F1(-(k+m); -S; t)],
        S = k + a + m, evaluated by mpmath's hyp1f1 at 512 bits.  Rounding
        each 1F1 before the subtraction left 3e-74 at (zeta, t, alpha, mu,
        k) = (0.9, 4.9, 1, 0, 6)."""
        worst = 0.0
        for zeta in ("0.5", "0.9"):
            for t in ("0.001", "0.3", "4.9"):
                for alpha in range(5):
                    for mu in range(4):
                        p = WeightParams(alpha, mu, zeta, t)
                        for k in range(18):
                            got = moment_closed_form(k, p, prec)
                            with mp.workprec(512):
                                S, tt = k + alpha + mu, mp.mpf(t)
                                want = mp.factorial(S) * (
                                    mp.hyp1f1(-alpha, -S, -tt)
                                    - mp.mpf(zeta) * mp.exp(-tt)
                                    * mp.hyp1f1(-(k + mu), -S, tt))
                                worst = max(worst, rel_err(got, want))
        assert worst < 1e-76


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


class TestPearsonRecurrence:
    def test_table_bit_identical_to_closed_form(self, prec):
        """The two-seed table equals the per-k closed form bit for bit for
        k <= 40, also at t = 40, where the t^k solution of the recurrence
        outgrows the moments by about e^40 before k reaches t."""
        for t in ("0", "1e-6", "5", "20", "40"):
            for alpha, mu, zeta in itertools.product((0, 1, 4), (0, 3),
                                                     ("0.999", "-2")):
                p = WeightParams(alpha, mu, zeta, t)
                tab = build_moment_table(p, 40, prec, cross_check=False)
                want = [moment_closed_form(k, p, prec) for k in range(41)]
                assert list(tab.values) == want, (alpha, mu, zeta, t)

    @pytest.mark.parametrize("order", [1, 16])
    def test_jets_match_moment_series(self, order):
        """Every jet coefficient agrees with the direct Taylor expansion to
        1e-70 of the jet's largest coefficient."""
        worst = 0.0
        with mp.workprec(256):
            for about in ("0", "0.3", "5", "20"):
                for alpha, mu, zeta in ((0, 0, "0.9"), (2, 2, "0.5"),
                                        (3, 1, "-2"), (1, 0, "0.999")):
                    p = WeightParams(alpha, mu, zeta, about)
                    jets = moment_jets(20, p, order, mp.mpf(about))
                    for k, jet in enumerate(jets):
                        want = moment_series(k, p, order, mp.mpf(about)).c
                        scale = max(abs(c) for c in want)
                        worst = max(worst, float(max(
                            abs(g - w) for g, w in zip(jet.c, want)) / scale))
        assert worst < 1e-70

    def test_two_seeds_per_table(self, prec, params_main, monkeypatch):
        """A moment table or a jet table evaluates the closed form twice,
        for mu_0 and mu_1, whatever its size."""
        calls = []
        parts = moments._moment_parts

        def counting(*args, **kwargs):
            calls.append(args[0])
            return parts(*args, **kwargs)

        monkeypatch.setattr(moments, "_moment_parts", counting)
        build_moment_table(params_main, 13, prec, cross_check=False)
        assert calls == [0, 1]
        calls.clear()
        aux_pair_series(4, params_main, 6, prec, about="0.3")
        assert calls == [0, 1]


class TestNearUnitZeta:
    @pytest.mark.parametrize("t", ["0.3", "0.05", "0.001"])
    def test_cancellation_gets_guard_bits(self, prec, t):
        """At zeta = 1 - 1e-12, P(t) - zeta e^{-t} Q(t) cancels up to 41
        bits, past the 30 guard bits: in the seeds at t = 0.05 and 0.001,
        in the recurrence from mu_3 on at t = 0.3.  The table, its Hankel
        rebuild at prec + 60 (which refused it) and the per-k closed form
        agree bit for bit, within a 256-bit unit of 1024 bits."""
        p = WeightParams(2, 2, "0.999999999999", t)
        mom, _ = table_for(p, 3, prec)
        ref = build_moment_table(p, 7, PrecisionCtx(1024), cross_check=False)
        for k in range(8):
            assert mom[k] == moment_closed_form(k, p, prec), k
            assert rel_err(mom[k], ref[k]) < 1e-76, k

    def test_ordinary_points_keep_thirty_guard_bits(self, prec,
                                                    monkeypatch):
        """At the desk point the subtraction cancels under 2 bits, so each
        seed is evaluated once."""
        calls = []
        parts = moments._moment_parts

        def counting(*args, **kwargs):
            calls.append(args[0])
            return parts(*args, **kwargs)

        monkeypatch.setattr(moments, "_moment_parts", counting)
        p = WeightParams(2, 2, "0.5", "0.3")
        build_moment_table(p, 13, prec, cross_check=False)
        moment_closed_form(5, p, prec)
        assert calls == [0, 1, 5]

    def test_exact_zero_moment_evaluated_twice(self, prec, monkeypatch):
        """A moment that is exactly 0 cancels the whole width; it is
        evaluated once more, at twice the width, and stays 0.  At
        (1, 0, 0, 1) mu_0 = 1 - 1 and at (1, 0, 0, 2) mu_1 = 2 - 2."""
        calls = []
        parts = moments._moment_parts

        def counting(*args, **kwargs):
            calls.append(args[0])
            return parts(*args, **kwargs)

        monkeypatch.setattr(moments, "_moment_parts", counting)
        assert moment_closed_form(0, WeightParams(1, 0, 0, 1), prec) == 0
        assert calls == [0, 0]
        tab = build_moment_table(WeightParams(1, 0, 0, 2), 9, prec)
        assert tab[1] == 0 and tab[0] == -1 and tab[9] == 8 * 362880
        assert calls == [0, 0, 0, 1, 0, 1]

    def test_exact_zero_moment_by_quadrature(self, prec):
        """An integral that is exactly 0 converges on the quadrature route
        too, measured against its absolute mass at half the digits: at
        (1, 0, 0, 1) mu_0 is rounding noise around 0, and the table's
        Hankel data stops at the typed Delta_1 = mu_0 = 0."""
        p = WeightParams(1, 0, 0, 1)
        tab = build_moment_table(p, 3, prec, "quadrature")
        assert abs(tab[0]) < 1e-80 and rel_err(tab[1], 1) < 1e-70
        with pytest.raises(SingularHankel, match="Delta_1"):
            table_for(p, 3, prec)


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


def _close(got, want):
    return len(got) == len(want) and all(
        abs(g - w) < mp.mpf("1e-70") for g, w in zip(got, want))


class TestTruncSeries:
    def test_arithmetic_round_trips(self):
        with mp.workprec(256):
            a = TruncSeries([2, 3, 5, 7])
            b = TruncSeries([1, -1, 4, 2])
            assert _close(((a * b) / b).c, a.c)
            assert _close((1 / a * a).c, [1, 0, 0, 0])
            assert (2 - a).c == (-(a - 2)).c == [0, -3, -5, -7]
            assert (mp.mpf(3) * a).c == (a * 3).c == [6, 9, 15, 21]
            assert (a + TruncSeries([1, 1])).c == [3, 4]   # the lower order

    def test_geometric_jet(self):
        """1/(1 - s) against its coefficients, all 1."""
        with mp.workprec(256):
            geo = 1 / TruncSeries([1, -1], 6)
            assert _close(geo.c, [1] * 7)

    @staticmethod
    def horner(c, s):
        """A plain-mpf Horner loop, the reference for TruncSeries.eval."""
        acc = mp.mpf(0)
        for a in reversed(c):
            acc = acc * s + a
        return acc

    @pytest.mark.parametrize("bits", [128, 256, 320])
    def test_eval_bits(self, bits):
        """eval has the plain loop's bits.  Coefficients and
        arguments carry 400 bits, so each sum and product rounds."""
        rng = random.Random(bits)
        for trial in range(200):
            order = rng.choice([0, 1, 5, 12, 23])
            with mp.workprec(400):
                c = [mp.mpf(rng.uniform(-1, 1)) / 3
                     * mp.mpf(10) ** rng.randint(-30, 30)
                     for _ in range(order + 1)]
                s = mp.mpf(rng.uniform(-2, 2)) / 7
                jet = TruncSeries(c)
            with mp.workprec(bits):
                got, want = jet.eval(s), self.horner(jet.c, s)
            assert type(got) is mp.mpf
            assert got._mpf_ == want._mpf_, (trial, order)

    def test_eval_mpc_falls_back(self):
        """An mpc argument takes the plain loop."""
        with mp.workprec(256):
            real = TruncSeries([mp.mpf(1) / 3, 2, -7])
            s = mp.mpc("0.3", "-1.1")
            got, want = real.eval(s), self.horner(real.c, s)
            assert type(got) is mp.mpc
            assert got._mpc_ == want._mpc_

    @staticmethod
    def plain_mul(x, y):
        """The plain-mpf product loop that TruncSeries.__mul__ replaces."""
        return [mp.fdot(x[:j + 1], y[j::-1])
                for j in range(min(len(x), len(y)))]

    @staticmethod
    def plain_div(x, y):
        """The plain-mpf quotient loop that TruncSeries.__truediv__
        replaces."""
        out = []
        for j in range(min(len(x), len(y))):
            out.append((x[j] - mp.fdot(y[1:j + 1], out[j - 1::-1])) / y[0])
        return out

    @pytest.mark.parametrize("bits", [128, 256, 320])
    @pytest.mark.parametrize("order", [1, 5, 22])
    def test_products_and_quotients_bits(self, bits, order):
        """*, / (by a series and by a constant), + and - on raw tuples
        have the plain loops' bits; 400-bit coefficients make every
        operation round, and some series are one order shorter."""
        rng = random.Random(bits * 100 + order)
        for trial in range(20):
            with mp.workprec(400):
                a, b = ([mp.mpf(rng.uniform(-1, 1)) / 3
                         * mp.mpf(10) ** rng.randint(-20, 20)
                         for _ in range(order + 1 - rng.randint(0, i))]
                        for i in (0, 1))
                b[0] = b[0] or mp.mpf(1)
                k = mp.mpf(rng.uniform(-5, 5)) / 7
                x, y = TruncSeries(a), TruncSeries(b)
            n = rng.choice([-3, 2, 7])
            with mp.workprec(bits):
                for got, want in (
                        (x * y, self.plain_mul(a, b)),
                        (x / y, self.plain_div(a, b)),
                        (x * k, [c * k for c in a]),
                        (n * x, [c * n for c in a]),
                        (x / k, [c / k for c in a]),
                        (x / n, [c / n for c in a]),
                        (n / y, self.plain_div([n] + [0] * (len(b) - 1),
                                               b)),
                        (x + y, [c + d for c, d in zip(a, b)]),
                        (x - k, [a[0] + (-k)] + [c + 0 for c in a[1:]]),
                        (n - y, [-b[0] + n] + [-c + 0 for c in b[1:]]),
                        (-x, [-c for c in a])):
                    assert all(type(c) is mp.mpf for c in got.c)
                    assert [c._mpf_ for c in got.c] == [
                        c._mpf_ for c in want], trial


class TestConv:
    """moments.conv on raw tuples against the exact sum of the slices'
    products over Fractions, rounded once at bits."""

    @staticmethod
    def check(x, y, bits):
        rx, ry = [v._mpf_ for v in x], [v._mpf_ for v in y]
        for lo in (0, 1):
            for j in range(lo, min(len(x), len(y))):
                s = sum(to_fraction(a) * to_fraction(b)
                        for a, b in zip(x[lo:j + 1], y[j - lo::-1]))
                want = from_rational(s.numerator, s.denominator, bits, "n")
                assert moments.conv(rx, ry, j, bits, "n", lo) == want

    @pytest.mark.parametrize("bits", [128, 256, 320])
    def test_seeded_lists(self, bits):
        """Zeros, factors 2^(+-3 prec) apart (no term is dropped, however
        far below the running sum) and 400-bit factors, so the exact
        products round."""
        rng = random.Random(bits)
        with mp.workprec(400):
            for _ in range(60):
                lists = []
                for _ in range(2):
                    v = []
                    for _ in range(rng.randint(1, 23)):
                        u = rng.random()
                        c = (mp.mpf(rng.uniform(-1, 1)) / 3
                             * mp.mpf(10) ** rng.randint(-30, 30))
                        if u < 0.15:
                            c = mp.mpf(0)
                        elif u < 0.3:
                            c = mp.ldexp(c, rng.choice([-3, 3]) * bits)
                        v.append(c)
                    lists.append(v)
                self.check(*lists, bits)

    @pytest.mark.parametrize("bits", [128, 256, 320])
    def test_cancellation_and_drop_rule(self, bits):
        """Exact cancellation to 0, a tiny term after it, and a tie at bits
        (2^p + 1 needs p + 1 bits) with a term more than 2 p bits below it,
        before or after: the tiny term breaks the tie upward, so the
        correctly rounded sum is 2^p + 2, where a sum that drops it (as
        mpf_sum does) rounds to even, 2^p."""
        with mp.workprec(4 * bits):
            a, b = mp.mpf(2) / 3, mp.mpf(5) / 7
            tiny = mp.ldexp(1, -2 * bits - 10)
            tie = mp.mpf(2) ** bits + 1
            one = mp.mpf(1)
            cases = [([a, a], [b, -b]),
                     ([a, a, tiny], [tiny, b, -b]),
                     ([tie, tiny], [one, one]),
                     ([tiny, tie], [one, one])]
        for x, y in cases:
            self.check(x, y, bits)
        rx, ry = [v._mpf_ for v in cases[0][0]], [v._mpf_ for v in cases[0][1]]
        assert moments.conv(rx, ry, 1, bits, "n") == mp.mpf(0)._mpf_
        for x, y in cases[2:]:
            got = moments.conv([v._mpf_ for v in x], [v._mpf_ for v in y],
                               1, bits, "n")
            with mp.workprec(bits):
                assert got == (mp.mpf(2) ** bits + 2)._mpf_ != (
                    mp.mpf(2) ** bits)._mpf_
