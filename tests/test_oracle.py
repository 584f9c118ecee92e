"""Brute-force oracles: tensor integrals, Stieltjes, finite differences."""

import itertools

import mpmath as mp
import pytest
from mpmath.libmp import mpf_mul, mpf_shift, mpf_sub

from dlaguerre import (PrecisionCtx, SingularHankel, UnsupportedParameters,
                       WeightParams, dN_by_quadrature, delta_by_quadrature,
                       finite_difference, hankel_determinant, dN_kernel,
                       moment_closed_form, table_for)
from dlaguerre import oracle
from dlaguerre.oracle import (_vandermonde_sum, gram_schmidt_recurrence,
                              inner_product)
from dlaguerre.precision import workprec
from dlaguerre.quadrature import GUARD_BITS
from conftest import mpf_nodes, per_node, rel_err


def _tuple_sum(pts, N):
    """The squared-Vandermonde sum term by term over all N-tuples of nodes."""
    terms = []
    for tup in itertools.product(pts, repeat=N):
        term = mp.fprod(w for (_, w) in tup)
        for (xa, _), (xb, _) in itertools.combinations(tup, 2):
            term *= (xb - xa) ** 2
        terms.append(term)
    return mp.fsum(terms) / mp.factorial(N)


def _collapsed_sum(pts, N):
    """oracle._vandermonde_sum over an mpf node list, as raw tuples."""
    return _vandermonde_sum([x._mpf_ for x, _ in pts],
                            ([w._mpf_ for _, w in pts],), N)


def _node_list(point, insert=None, nodes=10):
    """weighted_nodes at the tensor oracle's width, with the dN insertion
    (y1 - x)(y2 - x) multiplied into the weights when insert = (y1, y2)."""
    with workprec(PrecisionCtx(), GUARD_BITS):
        pts = mpf_nodes(WeightParams(*point), nodes)
        if insert is not None:
            y1, y2 = insert
            pts = [(x, w * (y1 - x) * (y2 - x)) for (x, w) in pts]
    return pts


class TestVandermondeSum:
    """The collapsed pair sum against the explicit tuple sum."""

    @pytest.mark.parametrize("N", (1, 2, 3))
    @pytest.mark.parametrize("point, insert", [
        ((2, 2, "0.5", "0.3"), None),
        ((3, 1, "-0.7", "2"), None),
        ((2, 2, "0.5", "0.3"), (5, 7)),
        ((2, 2, "0.5", "0.3"), (4, 4)),
    ], ids=["desk", "signed", "dN_5_7", "dN_confluent_4"])
    def test_matches_tuple_sum(self, point, insert, N):
        pts = _node_list(point, insert)
        with workprec(PrecisionCtx(), GUARD_BITS):
            got = _collapsed_sum(pts, N)
            with mp.extraprec(mp.mp.prec):
                want = _tuple_sum(pts, N)
        assert rel_err(got, want) <= 1e-75

    @staticmethod
    def _pair_sum_lengths(monkeypatch, pts):
        """The summed lengths of the pair sums s1 and s2 (kernels.dot, the
        mp.fdot of the raw kernel) of one N = 3 sum over pts."""
        lengths = []
        dot = oracle.dot

        def counting_dot(cs, ds, prec, rnd):
            cs = list(cs)
            lengths.append(len(cs))
            return dot(cs, ds, prec, rnd)

        monkeypatch.setattr(oracle, "dot", counting_dot)
        with workprec(PrecisionCtx(), GUARD_BITS):
            value = _collapsed_sum(pts, 3)
        return sum(lengths), value

    def test_three_fold_sum_is_quadratic(self, monkeypatch):
        """The N = 3 sum does O(m) work per node: its pair-sum lengths add
        up to a small multiple of m^2, where a pair sum per node would
        reach m^3."""
        pts = _node_list((2, 2, "0.5", "0.3"), nodes=20)
        m = len(pts)
        total, _ = self._pair_sum_lengths(monkeypatch, pts)
        assert m == 40 and 0 < total <= 3 * m * m

    def test_quadratic_bound_catches_a_cubic_sum(self, monkeypatch):
        """The bound above fails on an O(m^3) N = 3 sum: one whose _spread
        forms sum_{j,k} c_j c_k (x_k - x_j)^2 / 2 term by term, m^2 pair
        terms per node, and is the same sum."""
        pts = _node_list((2, 2, "0.5", "0.3"), nodes=20)
        m = len(pts)
        _, want = self._pair_sum_lengths(monkeypatch, pts)

        def cubic_spread(xs, parts, x0, lift):
            prec, rnd = mp.mp._prec_rounding
            ds = [mpf_sub(x, x0) for x in xs]
            cs = [mpf_mul(w, mpf_mul(d, d)) if lift else w
                  for d, w in zip(ds, parts[0])]
            pairs = [(mpf_mul(cj, ck), mpf_mul(e, e))
                     for xj, cj in zip(xs, cs) for xk, ck in zip(xs, cs)
                     for e in (mpf_sub(xk, xj),)]
            return mp.make_mpf(mpf_shift(oracle.dot(
                [c for c, _ in pairs], [d for _, d in pairs], prec, rnd), -1))

        monkeypatch.setattr(oracle, "_spread", cubic_spread)
        total, got = self._pair_sum_lengths(monkeypatch, pts)
        assert total == m ** 3 > 3 * m * m
        assert rel_err(got, want) <= 1e-70


class TestDeltaByQuadrature:
    def test_n1_is_mu0_origin(self, params_origin, prec):
        res = delta_by_quadrature(params_origin, 1, prec)
        assert rel_err(res.value, 12) < 1e-25

    def test_n2_origin_trivial(self, params_origin, prec):
        res = delta_by_quadrature(params_origin, 2, prec)
        assert rel_err(res.value, 720) < 1e-20

    def test_n2_matches_determinant(self, params_main, tables_main, prec):
        mom, _ = tables_main
        res = delta_by_quadrature(params_main, 2, prec)
        det = hankel_determinant(mom, 2, prec)
        assert rel_err(res.value, det) < 1e-12

    def test_n3_matches_determinant(self, params_main, tables_main, prec):
        mom, _ = tables_main
        res = delta_by_quadrature(params_main, 3, prec)
        det = hankel_determinant(mom, 3, prec)
        assert rel_err(res.value, det) < 1e-10
        assert float(res.error) > 0

    def test_n1_where_t_rounds_down(self, prec):
        """Every node past t carries 1 - zeta, however t's decimal rounds."""
        p = WeightParams(2, 2, "-1.98885", "0.0117")
        res = delta_by_quadrature(p, 1, prec)
        mu0 = moment_closed_form(0, p, prec)
        assert rel_err(res.value, mu0) < 1e-10
        with mp.workprec(256):
            assert abs(res.value - mu0) <= res.error

    def test_n4_unsupported(self, params_main, prec):
        with pytest.raises(UnsupportedParameters):
            delta_by_quadrature(params_main, 4, prec)

    def test_node_doubling_shrinks_estimate(self, params_main, prec):
        """Error estimates decrease monotonically beyond the asymptotic regime."""
        ests = [float(delta_by_quadrature(params_main, 1, prec, nodes=m).error)
                for m in (10, 20, 40)]
        assert ests[0] > ests[1] > ests[2]


class TestDNByQuadrature:
    def test_n1_explicit_expansion(self, params_main, tables_main, prec):
        mom, _ = tables_main
        res = dN_by_quadrature(params_main, 1, 5, 7, prec)
        with mp.workprec(256):
            want = 35 * mom[0] - 12 * mom[1] + mom[2]
        assert rel_err(res.value, want) < 1e-15

    def test_symmetry(self, params_main, prec):
        a = dN_by_quadrature(params_main, 2, 5, 7, prec, nodes=40)
        b = dN_by_quadrature(params_main, 2, 7, 5, prec, nodes=40)
        assert rel_err(a.value, b.value) < 1e-20

    def test_n2_matches_kernel(self, params_main, tables_main, prec):
        _, tab = tables_main
        res = dN_by_quadrature(params_main, 2, 5, 7, prec)
        want = dN_kernel(tab, 2, 5, 7)
        assert rel_err(res.value, want) < 1e-10

    def test_confluent_matches_kernel(self, params_main, tables_main, prec):
        _, tab = tables_main
        s = mp.mpf(4)
        res = dN_by_quadrature(params_main, 2, s, s, prec)
        want = dN_kernel(tab, 2, s, s)
        assert rel_err(res.value, want) < 1e-10


class TestInnerProduct:
    def test_normalization(self, tables_main, prec):
        mom, tab = tables_main
        v = inner_product((0, 0), tab, mom, PrecisionCtx(192, "1e-25"))
        assert rel_err(v, 1) < 1e-22

    def test_off_diagonal(self, tables_main):
        mom, tab = tables_main
        v = inner_product((1, 3), tab, mom, PrecisionCtx(192, "1e-25"))
        assert abs(v) < 1e-18

    def test_gamma_below_read_as_orthopoly_eval_reads_it(self):
        """At (1, 1, -0.7, 2) h_1 < 0 while h_2 > 0: p_2 is real, but
        orthopoly_eval(tab, 2, x) reads gamma_1 too and raises, so
        <p_2, p_2> raises as it does (an integrand that read gamma_2 alone
        returned 1.0)."""
        mom, tab = table_for(WeightParams(1, 1, "-0.7", "2"), 3,
                             PrecisionCtx())
        assert tab.gamma[1] is None and tab.gamma[2] is not None
        with pytest.raises(SingularHankel, match=r"^gamma_1 is not real"):
            inner_product((2, 2), tab, mom, PrecisionCtx(192, "1e-25"))

    def test_recurrence_projection(self, tables_main, params_main):
        """<x p_2, p_3> = a_3 by direct quadrature."""
        from dlaguerre.quadrature import integrate_weighted
        from dlaguerre.hankel import orthopoly_eval
        mom, tab = tables_main
        qp = PrecisionCtx(192, "1e-25")
        from dlaguerre.precision import workprec
        with workprec(qp, 20):
            def fn(s):
                p3 = orthopoly_eval(tab, 3, s)
                return (s * p3.value_nm1 * p3.value_n,)

            got = integrate_weighted(per_node(fn), params_main, qp,
                                     rel_scale=(1,))[0].value
            assert rel_err(got, tab.a(3)) < 1e-15


class TestFiniteDifference:
    def test_polynomial_derivative(self):
        with mp.workprec(128):
            fd = finite_difference(lambda t: t * t, 3, mp.mpf(2) ** -20)
            assert rel_err(fd.value, 6) < 1e-25
            assert float(fd.error) < 1e-20

    def test_second_derivative(self):
        with mp.workprec(192):
            fd = finite_difference(mp.exp, 1, mp.mpf(2) ** -22, order=2)
            assert rel_err(fd.value, mp.exp(1)) < 1e-22

    def test_plateau_under_h_sweep(self, params_main, prec):
        """Delta_2(t) derivative stabilizes across a dyadic h sweep."""
        from dlaguerre import build_moment_table

        def delta2(t):
            pars = params_main.replace_t(t)
            mom = build_moment_table(pars, 2, prec, cross_check=False)
            return hankel_determinant(mom, 2, prec)

        with mp.workprec(256):
            vals = [finite_difference(delta2, mp.mpf("0.3"), mp.mpf(2) ** -e).value
                    for e in (30, 36, 42)]
            assert rel_err(vals[0], vals[1]) < 1e-20
            assert rel_err(vals[1], vals[2]) < 1e-20

    def test_bad_order(self):
        with pytest.raises(UnsupportedParameters):
            finite_difference(lambda t: t, 1, "1e-6", order=3)


class TestGramSchmidt:
    def test_quadrature_moment_route(self, params_main, tables_main):
        """Stieltjes on the quadrature node lists reproduces the
        determinant recurrence."""
        _, tab = tables_main
        gs = gram_schmidt_recurrence(params_main, 4, PrecisionCtx(256, "1e-45"))
        with mp.workprec(256):
            for n in range(1, 5):
                assert rel_err(gs["a"][n], tab.a(n)) < 1e-18
                assert rel_err(gs["b"][n - 1], tab.b[n - 1]) < 1e-18

    def test_signed_weight(self):
        """(1, 0, 0.9, 5): h_0 < 0 while a_1^2, a_2^2 > 0, so a_n and b_n
        match the table and no gamma_n exists (Gram-Schmidt on moments
        stopped at degree 0)."""
        params = WeightParams(1, 0, "0.9", "5")
        _, tab = table_for(params, 2, PrecisionCtx())
        gs = gram_schmidt_recurrence(params, 2, PrecisionCtx(256, "1e-45"))
        assert gs["gamma"] == [None] * 3
        with mp.workprec(256):
            for n in range(3):
                assert rel_err(gs["b"][n], tab.b[n]) < 1e-18
            for n in (1, 2):
                assert rel_err(gs["a"][n], tab.a(n)) < 1e-18

    def test_negative_a2_named(self):
        """a_3^2 = -55 at (1, 0, 0.9, 5) has no orthonormal a_3."""
        with pytest.raises(SingularHankel, match=r"^a_3\^2 = -54\.9"):
            gram_schmidt_recurrence(WeightParams(1, 0, "0.9", "5"), 3,
                                    PrecisionCtx(256, "1e-45"))
