"""Split Gauss quadrature: the reference rules, the node-list cache, the
node ladder, one climb per family of integrals, and the Cauchy sweep that
shares both."""

import functools
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_rational, mpf_add, mpf_mul

from dlaguerre import (PrecisionCtx, QuadratureFailure, WeightParams,
                       build_moment_table, cauchy_transform,
                       dN_by_quadrature, delta_by_quadrature,
                       gram_schmidt_recurrence, ladder_integrals,
                       moment_closed_form, moment_quadrature, stieltjes_eval,
                       table_for, verify_identities, workprec)
from dlaguerre import (hankel, kernels, moments, oracle, quadrature,
                       semiclassical)
from dlaguerre.hankel import cauchy_sweep
from dlaguerre.semiclassical import ladder_ab_by_quadrature
from dlaguerre.precision import to_mpf
from dlaguerre.quadrature import LADDER, integrate_weighted, weighted_nodes
from conftest import per_node, rel_err

PREC = PrecisionCtx()
QPREC = PrecisionCtx(192, "1e-28")       # verify's quadrature-check context
DESK = WeightParams(2, 2, "0.5", "0.3")


class _KeepNothing(dict):
    """A node-list cache that stores nothing: every call builds its list."""

    def __setitem__(self, key, value):
        pass


def fresh_and_cached(monkeypatch, compute):
    """compute() with every node list and every panel built afresh, then
    with both caches in use: the lists emptied first, the graded panels
    kept from a first pass, so the cached run rebuilds its lists from
    them.  That first pass also builds the reference rules, so both runs
    sum nodes made from the same rules.  The Cauchy sweep memo is emptied
    before each run, or the later runs would integrate nothing."""
    compute()
    hankel._SWEEP.clear()
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_LISTS", _KeepNothing())
        patch.setattr(quadrature, "_PANELS", _KeepNothing())
        fresh = compute()
    quadrature._LISTS.clear()
    hankel._SWEEP.clear()
    return fresh, compute()


def from_scratch(monkeypatch, params, m, pole):
    """_build_nodes with the panel memo neither read nor written."""
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_PANELS", _KeepNothing())
        return quadrature._build_nodes(quadrature._exact(params), m, pole)


class TestCacheBitIdentity:
    def test_moments(self, monkeypatch):
        fresh, cached = fresh_and_cached(monkeypatch, lambda: [
            moment_quadrature(k, DESK, PREC) for k in range(13)])
        assert fresh == cached

    def test_cauchy_transforms(self, monkeypatch):
        _, tab = table_for(DESK, 4, PREC)
        fresh, cached = fresh_and_cached(monkeypatch, lambda: [
            cauchy_transform(tab, n, -2, QPREC, derivative=d)
            for n in range(4) for d in (False, True)])
        assert fresh == cached

    def test_tensor_oracles(self, monkeypatch):
        fresh, cached = fresh_and_cached(monkeypatch, lambda: (
            [delta_by_quadrature(DESK, N, PREC) for N in (1, 2, 3)]
            + [dN_by_quadrature(DESK, N, "-1.5", "0.7", PREC)
               for N in (1, 2)]))
        assert fresh == cached

    @pytest.mark.parametrize("point", [(2, 2, "0.5", "0.3"),
                                       (1, 0, "0.9", "5")])
    def test_full_battery(self, monkeypatch, point):
        mom, tab = table_for(WeightParams(*point), 5, PREC)
        fresh, cached = fresh_and_cached(
            monkeypatch,
            lambda: verify_identities(tab, mom, [1, 2, 3], PREC).to_dict())
        assert fresh["n_checks"] > 0
        assert fresh == cached


class TestCacheScope:
    def test_battery_builds_each_list_once(self, monkeypatch):
        """The full battery asks for about a hundred lists, and builds each
        distinct one once."""
        mom, tab = table_for(DESK, 6, PREC)
        verify_identities(tab, mom, [1, 2, 3, 4], PREC)
        quadrature._LISTS.clear()
        hankel._SWEEP.clear()
        builds = Counter()
        build = quadrature._build_nodes

        def counting(params, m, pole):
            builds[(params, m, pole, mp.mp.prec)] += 1
            return build(params, m, pole)

        monkeypatch.setattr(quadrature, "_build_nodes", counting)
        verify_identities(tab, mom, [1, 2, 3, 4], PREC)
        assert len(builds) >= 5
        assert set(builds.values()) == {1}

    def test_new_weight_drops_old_lists(self):
        other = WeightParams(1, 0, "0.9", "5")
        with workprec(PREC):
            weighted_nodes(DESK, 10)
            weighted_nodes(DESK, 20, pole=mp.mpf(-2))
            weighted_nodes(other, 10)
        assert [key[0] for key in quadrature._LISTS] == [
            quadrature._exact(other)]

    def test_pole_sweep_keeps_one_pole(self):
        with workprec(PREC):
            weighted_nodes(DESK, 10)
            poles = [-1 - mp.mpf(i) / 10 for i in range(50)]
            for pole in poles:
                weighted_nodes(DESK, 10, pole=pole)
        last = (type(poles[-1]), poles[-1])
        assert {key[2] for key in quadrature._LISTS} == {None, last}
        assert len(quadrature._LISTS) == 2

    def test_lists_belong_to_their_weight(self, monkeypatch):
        """Alternating weights, poles and precisions: each call returns the
        list _build_nodes makes from scratch for its own inputs, a t of
        more digits than the width holds included."""
        weights = [DESK, DESK.replace_t("0.31"),
                   WeightParams(2, 2, "0.6", "0.3"),
                   WeightParams(1, "1.5", "0.5", "0.3"),
                   DESK.replace_t("0." + "6093654243496137" * 7)]
        for bits in (128, 256, 128):
            with mp.workprec(bits):
                for params in weights + weights[::-1]:
                    for pole in (None, mp.mpf(-2), mp.mpf(-1)):
                        got = weighted_nodes(params, 10, pole)
                        assert got == from_scratch(monkeypatch, params, 10,
                                                   pole)
                        assert isinstance(got, tuple)

    def test_rule_upgrade_retires_lists(self, monkeypatch):
        """A list built from a reference rule that has since been rebuilt
        at a higher precision is not returned."""
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "_LISTS", {})
        with mp.workprec(128):
            before = weighted_nodes(DESK, 10)
        with mp.workprec(200):
            weighted_nodes(DESK, 10)
        with mp.workprec(128):
            after = weighted_nodes(DESK, 10)
            assert after == quadrature._build_nodes(DESK, 10, None)
            assert after != before

    def test_first_list_after_upgrade_built_once(self, monkeypatch):
        """A lookup past the rules' width upgrades them (256 -> 320 bits),
        and the list it builds is cached under the upgraded rules, so
        asking again builds nothing (the first list was built twice)."""
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "_LISTS", {})
        with mp.workprec(256):
            weighted_nodes(DESK, 10)
        builds = _counting_builds(monkeypatch)
        with mp.workprec(259):
            first = weighted_nodes(DESK, 10)
            assert weighted_nodes(DESK, 10) is first
        assert dict(builds) == {(10, None, 259): 1}

    def test_weight_spellings_share_lists(self, monkeypatch):
        """mu spelled '0.5', mpf('0.5'), '0.50' and '0.5' again is one
        weight: the four moments build 3 lists, and each spelling's lists
        are the ones '0.5' alone builds, bit for bit (keyed by the
        spelling, the four made 12 builds)."""
        single = WeightParams(2, "0.5", "0.5", "0.3")
        moment_quadrature(3, single, PREC)      # builds the reference rules
        quadrature._LISTS.clear()
        builds = _counting_builds(monkeypatch)
        spellings = [WeightParams(2, mu, "0.5", "0.3")
                     for mu in ("0.5", mp.mpf("0.5"), "0.50", "0.5")]
        for params in spellings:
            moment_quadrature(3, params, PREC)
        assert sum(builds.values()) == 3
        fresh = {}
        for m, _, bits in list(builds):
            with mp.workprec(bits):
                fresh[m] = quadrature._build_nodes(single, m, None)
                for params in spellings:
                    assert weighted_nodes(params, m) == fresh[m]
        assert sum(builds.values()) == 3 + len(fresh)

    def test_graded_panels_outlive_their_weight(self, monkeypatch):
        """Graded lists for three weights in turn, at poles -2, -1 and off
        the axis and at 128 and 256 bits, are _build_nodes' from-scratch
        lists bit for bit.  The second weight's t = 5 falls inside one of
        the first's panels, and it takes the panels past the jump from the
        memo (the same x objects): over half its nodes."""
        monkeypatch.setattr(quadrature, "_LISTS", {})
        monkeypatch.setattr(quadrature, "_PANELS", {})
        weights = [DESK, WeightParams(1, 0, "0.9", "5"),
                   WeightParams(1, "1.5", "-0.7", "0.3")]
        for bits in (128, 256):
            for pole in (mp.mpf(-2), mp.mpf(-1), mp.mpc("-0.5", "1")):
                with mp.workprec(bits):
                    lists = [weighted_nodes(params, 10, pole)
                             for params in weights]
                for params, got in zip(weights, lists):
                    with mp.workprec(bits):
                        assert got == from_scratch(monkeypatch, params, 10,
                                                   pole)
                seen = {id(x) for x in lists[0][0]}
                shared = sum(id(x) in seen for x in lists[1][0])
                assert 2 * shared > len(lists[1][0])

    def test_pole_sweep_keeps_one_pole_of_panels(self, monkeypatch):
        """Panels of a pole sweep at two m: one entry per m, both the
        latest pole's."""
        monkeypatch.setattr(quadrature, "_PANELS", {})
        poles = [-1 - mp.mpf(i) / 10 for i in range(20)]
        with workprec(PREC):
            for pole in poles:
                for m in (10, 20):
                    weighted_nodes(DESK, m, pole=pole)
        last = (type(poles[-1]), poles[-1])
        assert sorted(key[0] for key in quadrature._PANELS) == [10, 20]
        assert {entry[0] for entry in quadrature._PANELS.values()} == {last}

    def test_lists_without_pole_keep_no_panels(self, monkeypatch):
        """Lists without a pole, at several weights, m and widths, neither
        add an entry nor disturb the graded one."""
        monkeypatch.setattr(quadrature, "_PANELS", {})
        with workprec(PREC):
            weighted_nodes(DESK, 10, pole=mp.mpf(-2))
        graded = dict(quadrature._PANELS)
        for bits in (128, 256):
            with mp.workprec(bits):
                for params in (DESK, WeightParams(1, "1.5", "0.5", "7")):
                    for m in (10, 20):
                        weighted_nodes(params, m)
        assert quadrature._PANELS == graded

    def test_rule_upgrade_retires_panels(self, monkeypatch):
        """Panels built from reference rules that have since been rebuilt
        at a higher tier are not read: the next graded list at that width
        builds its own from the upgraded rules, bit for bit the
        from-scratch list, and replaces the old entry."""
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "_LISTS", {})
        monkeypatch.setattr(quadrature, "_PANELS", {})
        pole, other = mp.mpf(-2), WeightParams(2, 2, "0.6", "0.3")
        with mp.workprec(128):
            before = weighted_nodes(DESK, 10, pole)
            assert quadrature._PANELS[(10, 128, "n")][1] == (128, 128)
        with mp.workprec(200):
            weighted_nodes(DESK, 10)
        with mp.workprec(128):
            after = weighted_nodes(other, 10, pole)
            assert after == from_scratch(monkeypatch, other, 10, pole)
        assert quadrature._PANELS[(10, 128, "n")][1] == (256, 256)
        seen = {id(x) for x in before[0]}
        assert not any(id(x) in seen for x in after[0])

    def test_grading_ends_do_not_depend_on_width(self):
        """A pole at -2 grades ends 2 (1.5^j - 1) = 1, 2.5, 4.75, ...,
        20.78125 and then REACH: every end is formed at 53 bits, so a pole
        at -2 and one at 2 + 0.2i grade the same ends at 566 and 579 bits,
        and the last is exactly REACH past the support point nearest the
        pole."""
        params = WeightParams(4, 3, "-0.7", "1.3")
        lists = {}
        for pole in ("-2", "2+0.2j"):
            for bits in (566, 579):
                with mp.workprec(bits):
                    lists[pole, bits] = quadrature._breaks(
                        params, mp.mpmathify(pole))
            assert lists[pole, 566] == lists[pole, 579]
        assert lists["-2", 566] == [2 * mp.mpf(1.5) ** j - 2
                                    for j in range(1, 7)] + [quadrature.REACH]
        assert lists["2+0.2j", 566][-1] == 2 + quadrature.REACH

    @pytest.mark.parametrize("t", ["0.0117", "0.905", "5"])
    @pytest.mark.parametrize("pole, most", [
        ("-2", 7), ("-0.35", 12), ("-0.01", 20), ("-0.5+1j", 10),
        ("2+0.2j", 23), ("0.15+0.05j", 23), ("0.5+1e-20j", 238)])
    @pytest.mark.parametrize("mu", ["3", "1.5"])
    def test_graded_panels_keep_their_distance(self, mu, t, pole, most):
        """Every Legendre panel of a graded list, from 0 to the Laguerre
        tail, has its centre GRADE half-widths or more from the pole, and
        at real mu every panel past the Jacobi panel at 0 as many from 0.
        At integer mu no list has more ends than the one bound needs (the
        sqrt(2) steps from half the pole's distance had 11, 16, 26, 12, 27,
        28 and 279); at real mu the pole shares the branch point's ends, so
        a list has no more than those and the pole's own together.  A pole
        1e-20 off the support takes steps far below 53 bits of its foot,
        which are added exactly."""
        params = WeightParams(4, mu, "-1.5", t)
        with workprec(PREC):
            pole = mp.mpmathify(pole)
            cuts = quadrature._breaks(params, pole)
            ends = sorted({mp.mpf(0), to_mpf(t), *cuts})
            for lo, hi in zip(ends[:-1], ends[1:]):
                bound = quadrature.GRADE * (hi - lo) / 2
                assert abs((lo + hi) / 2 - pole) >= bound
                assert (params.mu_is_integer or lo == 0
                        or (lo + hi) / 2 >= bound)
            if not params.mu_is_integer:
                most += len(quadrature._breaks(params, None))
        assert len(cuts) <= most


class TestLadder:
    def test_tail_past_forty_node_degree(self, monkeypatch):
        """At 512 bits and a 1e-60 tolerance the 20-node sums are about
        1e-40 off, so only the 40- and 80-node sums can agree; a ladder that
        ended at 40 raised QuadratureFailure (sums 2.7e-36 apart)."""
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "_LISTS", {})
        params = WeightParams(2, 2, "0.5", "7.3")
        prec = PrecisionCtx(512, "1e-60")
        got = moment_quadrature(5, params, prec)
        assert rel_err(got, moment_closed_form(5, params, prec)) < 1e-60

    def test_requested_component_raises(self):
        """A step at 0.7, inside the Laguerre tail, keeps Gauss sums apart
        at every rung: read, it raises with the message it has alone,
        while x^2 beside it returns the bits it has alone."""
        def step(x):
            return mp.mpf(x < mp.mpf("0.7"))

        with workprec(PREC):
            res = integrate_weighted(per_node(lambda x: [x ** 2, step(x)]),
                                     DESK, PREC)
            alone = integrate_weighted(per_node(lambda x: [x ** 2]), DESK,
                                       PREC)[0]
            with pytest.raises(QuadratureFailure) as scalar:
                integrate_weighted(per_node(lambda x: [step(x)]), DESK,
                                   PREC)[0]
        assert len(res) == 2 and res[0] == alone
        assert rel_err(res[0].value, moment_closed_form(2, DESK, PREC)) < 1e-30
        with pytest.raises(QuadratureFailure,
                           match=r"^80-node sums still differ by \S+ at "
                                 r"scale \S+$") as vector:
            res[1]
        assert str(vector.value) == str(scalar.value)


def _counting_climbs(monkeypatch):
    """Component counts of the integrate_weighted calls (climbs of the
    node ladder) made by the moment, ladder and oracle layers."""
    climbs = []
    integrate = quadrature.integrate_weighted

    def counting(fn, params, prec, **kwargs):
        res = integrate(fn, params, prec, **kwargs)
        climbs.append(len(res))
        return res

    for module in (moments, semiclassical, oracle):
        monkeypatch.setattr(module, "integrate_weighted", counting)
    return climbs


class TestOneClimb:
    def test_ladder_families(self, monkeypatch):
        """R_n and r_n share one climb, and so do A_n(x) and B_n(x), once
        per weight: twice at mu = 1.5, where the mu/(x y) term is
        integrated against the weight with mu - 1."""
        mom, tab = table_for(DESK, 5, PREC)
        real = WeightParams(2, "1.5", "0.5", "0.3")
        _, real_tab = table_for(real, 2, PREC, source="quadrature",
                                cross_check=False)
        climbs = _counting_climbs(monkeypatch)
        ladder_integrals(tab, mom, 2, QPREC)
        assert climbs == [2]
        climbs.clear()
        ladder_ab_by_quadrature(tab, 2, -2, QPREC)
        assert climbs == [2]
        climbs.clear()
        ladder_ab_by_quadrature(real_tab, 1, -2, QPREC)
        assert climbs == [2, 2]

    def test_moment_tables(self, monkeypatch):
        """A quadrature table climbs once for every k <= k_max, the
        closed-form cross-check once for k in {0, k_max}, and
        Gram-Schmidt (Stieltjes over the node lists) never."""
        climbs = _counting_climbs(monkeypatch)
        build_moment_table(DESK, 12, PREC, "quadrature")
        assert climbs == [13]
        climbs.clear()
        build_moment_table(DESK, 12, PREC)
        assert climbs == [2]
        climbs.clear()
        gram_schmidt_recurrence(DESK, 3, PrecisionCtx(256, "1e-45"))
        assert climbs == []

    @pytest.mark.parametrize("point", [(2, 2, "0.5", "0.3"),
                                       (1, 0, "0.9", "5"),
                                       (3, 1, "-0.7", "1.3"),
                                       (2, "1.5", "0.5", "0.3")])
    def test_table_is_per_k_moments(self, point):
        """Every entry of the one-climb table is moment_quadrature's, bit
        for bit: a component stops at the rung its own climb stopped at."""
        params = WeightParams(*point)
        tab = build_moment_table(params, 12, PREC, "quadrature")
        assert list(tab.values) == [moment_quadrature(k, params, PREC)
                                    for k in range(13)]


def _counting_builds(monkeypatch):
    """Counter of _build_nodes calls by (m, pole, working precision)."""
    builds = Counter()
    build = quadrature._build_nodes

    def counting(params, m, pole):
        builds[(m, pole, mp.mp.prec)] += 1
        return build(params, m, pole)

    monkeypatch.setattr(quadrature, "_build_nodes", counting)
    return builds


class TestCauchySweep:
    @pytest.mark.parametrize("x", [mp.mpf(-2), mp.mpc("-0.5", "1"),
                                   mp.mpc(1, 1)])
    def test_same_bits_whatever_came_before(self, x):
        """E_2 and E_2' asked first, after a sweep to degree 5, and after
        stieltjes_eval at the same point come out bit for bit the same."""
        mom, tab = table_for(DESK, 5, PREC)

        def ask():
            return [cauchy_transform(tab, 2, x, QPREC, derivative=d)
                    for d in (False, True)]

        ask()                       # builds the reference rules
        hankel._SWEEP.clear()
        first = ask()
        hankel._SWEEP.clear()
        E, dE = cauchy_sweep(tab, 5, x, QPREC)
        assert len(E) == len(dE) == 6
        from_higher = ask()
        hankel._SWEEP.clear()
        with workprec(PREC):
            stieltjes_eval(mom, x, QPREC)
        assert ask() == from_higher == first == [E[2].value, dE[2].value]

    @pytest.mark.parametrize("point", [(2, 2, "0.5", "0.3"),
                                       (1, 0, "0.9", "5")])
    def test_crossval_group_builds_each_list_once(self, monkeypatch, point):
        """E_n, E_{n-1}, E_n', the Stieltjes transform and E_0 at x = -2 on
        tables built together share one width, so they build the three
        graded lists (m = 10, 20, 40) once; each at its own width built
        six."""
        n, x = 3, mp.mpf(-2)
        mom, tab = table_for(WeightParams(*point), n + 2, PREC,
                             cross_check=False)

        def group():
            with workprec(PREC):
                for m, d in ((n, False), (n - 1, False), (n, True)):
                    cauchy_transform(tab, m, x, QPREC, derivative=d)
                stieltjes_eval(mom, x, QPREC)
                cauchy_transform(tab, 0, x, QPREC)

        group()                     # builds the reference rules
        quadrature._LISTS.clear()
        hankel._SWEEP.clear()
        builds = _counting_builds(monkeypatch)
        group()
        assert sorted(m for m, _, _ in builds) == [10, 20, 40]
        assert set(builds.values()) == {1}

    def test_battery_runs_one_sweep(self, monkeypatch):
        """The full battery for n = 1..4 reads every E_m and E_m' off one
        sweep to degree 4."""
        mom, tab = table_for(DESK, 6, PREC)
        sweeps = []
        integrate = hankel.integrate_weighted

        def counting(fn, params, prec, **kwargs):
            res = integrate(fn, params, prec, **kwargs)
            sweeps.append(len(res))
            return res

        monkeypatch.setattr(hankel, "integrate_weighted", counting)
        hankel._SWEEP.clear()
        rep = verify_identities(tab, mom, [1, 2, 3, 4], PREC)
        assert sweeps == [10]
        assert sum(r.check_id == "casoratian" for r in rep.records) == 4


    def test_off_axis_sweep_accuracy(self):
        """E_0..E_3 and E_0'..E_3' at (4, 3, -1.5, 5), x = -0.5 + i, 256
        bits and 1e-30, within 1e-56 of a reference: the sweep at 512 bits
        and 1e-60, which tanh-sinh quadrature (mp.quad at 420 bits) matches
        to 1e-80.  Steps of sqrt(2) from half the pole's distance started
        the Laguerre tail at 25.3 and read 4.0e-54."""
        mom, tab = table_for(WeightParams(4, 3, "-1.5", "5"), 4, PREC)
        E, dE = cauchy_sweep(tab, 3, mp.mpc("-0.5", 1), PREC)
        with mp.workprec(256):
            want = [mp.mpc(*pair) for pair in OFF_AXIS_SWEEP]
            got = [r.value for r in E.items + dE.items]
            assert max(abs(g / w - 1) for g, w in zip(got, want)) < 1e-56

    def test_benchmark_oracle_points_pinned(self, monkeypatch):
        """The benchmark's three seed-1 oracle weights at x = -2 and 192
        bits, on tables built as its panel builds them and with rules built
        afresh: E_0, E_1, E_0' and E_1' keep the bits they had when a pole
        at -2 graded 11 ends in sqrt(2) steps."""
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "_LISTS", {})
        monkeypatch.setattr(quadrature, "_PANELS", {})
        monkeypatch.setattr(hankel, "_SWEEP", {})
        values = []
        for point in ((2, 2, "-1.98885", "0.0117"),
                      (0, 0, "-1.09248", "0.103"),
                      (3, 1, "-0.236018", "0.905")):
            mom = build_moment_table(WeightParams(*point), 7, PREC,
                                     cross_check=False)
            tab = hankel.recurrence_coefficients(mom, 3, PREC)
            with workprec(PREC):
                E, dE = cauchy_sweep(tab, 1, mp.mpf(-2), QPREC)
            values += [r.value for r in E.items + dE.items]
        digest = hashlib.sha256(json.dumps([_raw(v) for v in values]).encode())
        assert digest.hexdigest() == (
            "792c901af5f4e1d80fc08858b0fd92f4b040b8770b10eed037a83daf254c1180")


# the reference for TestCauchySweep.test_off_axis_sweep_accuracy: E_0..E_3,
# then E_0'..E_3', as (real, imaginary)
OFF_AXIS_SWEEP = [
    ("-118.5141236625332441553524932882347912971696994127220129066952998",
     "-46.61410834334559877796215036853756997763074646891243607902546384"),
    ("457.6022741721406222501534810882473159229266599743646198845291369",
     "307.2028289712450932041854200042122068900888062522187456116353384"),
    ("-873.6613834302516559008608110254460762960512587114410857730814584",
     "-790.3356890950356781591533648035197328360825658832038731392574043"),
    ("1807.479176840510166178519079876330213493038850062846812223010213",
     "2687.210516940635817363918913916369055203375605442445186808562595"),
    ("-23.19320756117647543190746364369320692365220793260551942562050481",
     "-36.8745670545334545152984385689414512720788875561109063833927342"),
    ("130.1791823029694696526915680713278829642938430545989216495301804",
     "266.9604326174099033705998410992428679712668747430233922815785703"),
    ("-247.5863085652172468738385564297839688881001605934490985161936754",
     "-742.7593800547367689750125296349551021324070124340066848963128697"),
    ("144.9877466794479875906682069385947785689818510021174605749751152",
     "2846.597263858633036956678291912201176644492476010012836527866418"),
]


# every reference rule family, and the tiers _rule_bits hands out
FAMILIES = ["legendre", "laguerre"] + [
    quadrature._jacobi(mu) for mu in ("0.25", "0.5", "1.5", "2.5", "7.3")]
TIERS = (256, 320, 576)
REF_BITS = TIERS[-1] + 64      # Golub-Welsch loses up to ~13 bits


def _family_id(family):
    return family if isinstance(family, str) else f"jacobi-{family[1]}"


@pytest.fixture(scope="module")
def rules():
    """Every tested rule; each tier starts from the tier below, as _rule
    builds them when the working precision rises."""
    built = {}
    for family in FAMILIES:
        for m in LADDER:
            cached = None
            for bits in TIERS:
                cached = (bits, quadrature._gauss(family, m, bits, cached))
                built[(family, m, bits)] = cached[1]
    return built


def _ulps(got, want, bits):
    """Largest |got - want| in units of the last place of want at bits."""
    return max(abs(g - w) / mp.ldexp(1, mp.mag(w) - bits)
               for g, w in zip(got, want))


@functools.lru_cache
def _monomial_integrals(family):
    """The integrals of x^k, k < 2 LADDER[-1], against the family's
    weight, at REF_BITS: 2/(k + 1) or 0, k!, and for (1 + x)^mu the
    binomial sum of the Beta integrals int (1 + x)^(j + mu) =
    2^(j + mu + 1) / (j + mu + 1), summed with 2k guard bits for its
    cancellation."""
    out = []
    k_max = 2 * LADDER[-1] - 1
    with mp.workprec(REF_BITS + 2 * k_max + 20):
        if isinstance(family, tuple):
            mu = mp.mpf(family[1].numerator) / family[1].denominator
            beta = [mp.ldexp(mp.mpf(2) ** mu, j + 1) / (j + mu + 1)
                    for j in range(k_max + 1)]
    for k in range(k_max + 1):
        with mp.workprec(REF_BITS + 2 * k + 20):
            if family == "legendre":
                v = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            elif family == "laguerre":
                v = mp.factorial(k)
            else:
                v = mp.fsum(math.comb(k, j) * (-1) ** (k - j) * beta[j]
                            for j in range(k + 1))
        with mp.workprec(REF_BITS):
            out.append(+v)
    return out


@pytest.mark.parametrize("m", LADDER)
@pytest.mark.parametrize("family", FAMILIES, ids=_family_id)
class TestReferenceRules:
    def test_within_two_ulps_of_golub_welsch(self, rules, family, m):
        """Nodes and weights against mp.gauss_quadrature at 64 bits past
        the highest tier, at every tier (Golub-Welsch itself loses 10-13
        bits of the weights at the tier's own width)."""
        with mp.workprec(REF_BITS):
            if family in ("legendre", "laguerre"):
                X, W = mp.gauss_quadrature(m, family)
            else:
                X, W = mp.gauss_quadrature(m, "jacobi", 0,
                                           mp.mpf(family[1].numerator)
                                           / family[1].denominator)
            X, W = [X[i] for i in range(m)], [W[i] for i in range(m)]
            for bits in TIERS:
                nodes, weights = rules[(family, m, bits)]
                assert _ulps(nodes, X, bits) <= 2
                assert _ulps(weights, W, bits) <= 2

    def test_exact_on_monomials(self, rules, family, m):
        """sum W_i x_i^k equals the closed-form integral for every k below
        2m, to the rounding of the tier's nodes and weights: (4k + 8)
        units of 2^-bits of sum |W_i x_i^k|."""
        exact = _monomial_integrals(family)[:2 * m]
        for bits in TIERS:
            nodes, weights = rules[(family, m, bits)]
            with mp.workprec(REF_BITS):
                terms = list(weights)          # W_i x_i^k, k = 0, 1, ...
                for k, want in enumerate(exact):
                    scale = mp.fsum(abs(v) for v in terms)
                    assert abs(mp.fsum(terms) - want) <= (
                        (4 * k + 8) * mp.ldexp(scale, -bits))
                    terms = [v * x for v, x in zip(terms, nodes)]


class TestRuleBuilds:
    def test_no_golub_welsch(self, monkeypatch):
        """The desk point's lists, and those of a real mu (which adds the
        Jacobi panel at 0), build every rule without mp.gauss_quadrature."""
        def refuse(*args, **kwargs):
            raise AssertionError("mp.gauss_quadrature called")

        monkeypatch.setattr(mp, "gauss_quadrature", refuse)
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "_LISTS", {})
        with workprec(PREC):
            for params in (DESK, WeightParams(2, "1.5", "0.5", "0.3")):
                for m in LADDER:
                    nodes = weighted_nodes(params, m)
                    assert len(nodes.xs) == len(nodes.ws) > m
        assert {key[0] for key in quadrature._RULES} == {
            "legendre", "laguerre", quadrature._jacobi("1.5")}

    def test_jacobi_rules_keyed_by_value(self, monkeypatch):
        """mu given as '0.5', mpf('0.5') and '0.50' is one weight for the
        reference rules: the later two calls build none (keyed by the
        spelling, each built its own set)."""
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "_LISTS", {})
        builds = Counter()
        gauss = quadrature._gauss

        def counting(family, m, bits, cached=None):
            builds[family[0] if isinstance(family, tuple) else family] += 1
            return gauss(family, m, bits, cached)

        monkeypatch.setattr(quadrature, "_gauss", counting)
        got, counts = [], []
        for mu in ("0.5", mp.mpf("0.5"), "0.50"):
            got.append(moment_quadrature(3, WeightParams(2, mu, "0.5", "0.3"),
                                         PREC))
            counts.append(builds["jacobi"])
        assert got[0] == got[1] == got[2]
        assert counts[0] > 0 and counts == [counts[0]] * 3
        assert sum(key[0][0] == "jacobi"
                   for key in quadrature._RULES) == counts[0]

    def test_higher_tier_starts_from_the_cached_rule(self, monkeypatch):
        """_rule rebuilds at the next tier from the cached nodes: no float
        starting roots, and the same rule as a build from scratch."""
        monkeypatch.setattr(quadrature, "_RULES", {})
        with mp.workprec(256):
            low = list(quadrature._rule("laguerre", 20))

        def refuse(*args):
            raise AssertionError("float starting roots asked for")

        monkeypatch.setattr(quadrature, "_float_roots", refuse)
        with mp.workprec(300):
            high = list(quadrature._rule("laguerre", 20))
        monkeypatch.undo()
        scratch = quadrature._gauss("laguerre", 20, 320)
        assert [x for x, _ in high] == list(scratch[0])
        assert [w for _, w in high] == list(scratch[1])
        assert len(low) == len(high) == 20

    def test_failed_root_set_raises(self, monkeypatch):
        """Starting roots that all converge to one root leave nodes that do
        not increase strictly: QuadratureFailure, not a wrong rule."""
        float_roots = quadrature._float_roots

        def collapsed(a, b):
            roots = float_roots(a, b)
            return [roots[0]] * len(roots)

        monkeypatch.setattr(quadrature, "_float_roots", collapsed)
        with pytest.raises(QuadratureFailure, match="failed its checks"):
            quadrature._gauss("laguerre", 10, 256)

    @pytest.mark.parametrize("m", LADDER + (160,))
    def test_float_roots_near_the_nodes(self, m):
        """The QL eigenvalues, Newton's starting roots, lie within 1e-12
        relative of the finished nodes (of the 64-bit tier) for every
        family."""
        for family in FAMILIES:
            nodes = quadrature._gauss(family, m, 64)[0]
            with mp.workprec(64):
                a, b, _, _ = quadrature._family(family, m)
            roots = quadrature._float_roots(a, b)
            assert len(roots) == m
            assert max(abs(r - float(x)) / abs(float(x))
                       for r, x in zip(roots, nodes)) < 1e-12

    def test_ql_that_does_not_converge_raises(self):
        """A nan off-diagonal never becomes negligible: QuadratureFailure
        after the bounded sweeps, not a loop without end."""
        with pytest.raises(QuadratureFailure, match="QL did not converge"):
            quadrature._float_roots([0.0] * 3, [0.0, math.nan, 1.0])

    def test_newton_that_does_not_settle_raises(self, monkeypatch):
        """A recurrence whose root moves by 2^-150 between evaluations never
        gives a correction below 2^-target: QuadratureFailure after a few
        evaluations at the final width, not a loop without end."""
        recurrence, calls = quadrature._recurrence, Counter()

        def jittery(x, a, b, prec):
            p, dp, q = recurrence(x, a, b, prec)
            calls[prec] += 1
            shift = mpf_mul(dp, mp.ldexp((-1) ** sum(calls.values()),
                                         -150)._mpf_)
            return mpf_add(p, shift, prec), dp, q

        monkeypatch.setattr(quadrature, "_recurrence", jittery)
        with pytest.raises(QuadratureFailure, match="did not converge"):
            quadrature._gauss("legendre", 10, 256)
        assert calls[max(calls)] == 4


def _raw(v):
    """The exact bits of a number: an mpf's or an mpc's raw tuples."""
    return getattr(v, "_mpf_", None) or v._mpc_


def _reference_nodes(params, m, pole):
    """(x, W) of _build_nodes' list: x as it forms them at the working
    precision, W from that x as an mpf expression at twice the width, with
    t as the list reads it (at the working one)."""
    bits = mp.mp.prec
    t = to_mpf(params.t)
    tail_factor = 1 - to_mpf(params.zeta)
    alpha, mu = int(params.alpha), to_mpf(params.mu)
    cuts = quadrature._breaks(params, pole)
    head = [mp.mpf(0)] + [b for b in cuts if b < t] + [t] if t > 0 else []
    tail = [t] + [b for b in cuts if b > t]
    out = []
    for ends, factor in ((head, 1), (tail, params.zeta)):
        for lo, hi in zip(ends[:-1], ends[1:]):
            half, mid = (hi - lo) / 2, (hi + lo) / 2
            jacobi = lo == 0 and not params.mu_is_integer
            family = quadrature._jacobi(params.mu) if jacobi else "legendre"
            for s, w in quadrature._rule(family, m):
                x = mid + half * s
                with mp.workprec(2 * bits):
                    f = 1 if factor == 1 else 1 - to_mpf(factor)
                    xmu = half ** mu if jacobi else x ** mu
                    out.append((x, half * w * f * (x - t) ** alpha * xmu
                                * mp.exp(-x)))
    start = tail[-1]
    for y, w in quadrature._rule("laguerre", m):
        x = start + y
        with mp.workprec(2 * bits):
            scale = (1 - to_mpf(params.zeta)) * mp.exp(-start)
            out.append((x, scale * w * (x - t) ** alpha * x ** mu))
    return out


def _reference_sum(nodes, col, prec, rnd, absolute=False):
    """kernels.weighted_sum as the exact rational sum of W_i v_i, rounded
    once at prec (with absolute, of |W_i| |v_i|, |v_i| at four times the
    width)."""
    def exact(parts):
        total = sum(Fraction(w) * v for w, v in zip(nodes.ws, parts))
        total *= Fraction(2) ** (nodes.scale + col.exp)
        return mp.make_mpf(from_rational(total.numerator, total.denominator,
                                         prec, rnd))

    if absolute:
        if col.im is None:
            return exact([abs(v) for v in col.re])
        with mp.workprec(4 * prec):
            mags = [mp.sqrt(mp.mpf(r) ** 2 + mp.mpf(i) ** 2)
                    for r, i in zip(col.re, col.im)]
            total = mp.fsum(abs(w) * v for w, v in zip(nodes.ws, mags))
            total = mp.ldexp(total, nodes.scale + col.exp)
        with mp.workprec(prec):
            return +total
    if col.im is None:
        return exact(col.re)
    return mp.make_mpc((exact(col.re)._mpf_, exact(col.im)._mpf_))


class TestRawKernels:
    """The node arithmetic against the plain expressions it stands for:
    the nodes bit for bit, each weight within a few ulps of its mpf
    expression at twice the width, and each sum the exact sum of its
    integer products rounded once."""

    @pytest.mark.parametrize("alpha", [0, 3])
    @pytest.mark.parametrize("mu", ["2", "1.5"])
    @pytest.mark.parametrize("zeta, t", [("0.5", "0.3"), ("-0.7", "1.7"),
                                         ("0.5", "0")])
    @pytest.mark.parametrize("pole", [None, -2, (-1, "0.5")], ids=str)
    def test_build_nodes(self, alpha, mu, zeta, t, pole):
        params = quadrature._exact(WeightParams(alpha, mu, zeta, t))
        with mp.workprec(252):
            pole = (None if pole is None else mp.mpc(*pole)
                    if isinstance(pole, tuple) else mp.mpf(pole))
            got = quadrature._build_nodes(params, 10, pole)
            want = _reference_nodes(params, 10, pole)
        assert list(got.xs) == [_raw(x) for x, _ in want]
        # the smallest weight keeps the working width plus WEIGHT_GUARD
        assert min(abs(w).bit_length() for w in got.ws if w) == (
            252 + kernels.WEIGHT_GUARD)
        with mp.workprec(504):
            for w, (_, ref) in zip(got.ws, want):
                assert abs(mp.ldexp(w, got.scale) - ref) <= mp.ldexp(
                    abs(ref), 3 - 252)

    @pytest.mark.parametrize("name, fn", [
        ("real", lambda x: [x ** 3, 1 / (x + 1), mp.exp(-x)]),
        ("complex", lambda x: [1 / (mp.mpc(-1, "0.5") - x),
                               x * mp.mpc(0, 2), mp.mpc(x, 0)]),
        ("exact zero", lambda x: [x - x, x * x - 2 * x]),
        ("mixed", lambda x: [x if x < 1 else mp.mpc(x, 1), 2, 0.5]),
        ("no convergence", lambda x: [mp.sign(x - mp.mpf("0.123")), x])])
    def test_integrate_weighted(self, monkeypatch, name, fn):
        """Values, error estimates and failure messages, whichever path a
        component takes: the plain sums, the mass floor of an integral
        that is exactly 0, or a climb whose sums never agree."""
        def results():
            return [item if isinstance(item, str)
                    else (_raw(item.value), _raw(item.error))
                    for item in integrate_weighted(per_node(fn), DESK,
                                                   PREC).items]

        got = results()
        monkeypatch.setattr(quadrature, "weighted_sum", _reference_sum)
        assert got == results()
        if name == "no convergence":
            # the message as the sums over mpf products wrote it
            assert got[0] == ("80-node sums still differ by 4.9538e-6 at "
                              "scale 10.29")

    def test_weighted_sum(self):
        """A real and a complex column, plain and absolute, against exact
        sums: the last two rows cancel, so a product or a partial sum
        that is rounded shows."""
        third = 2 ** 200 // 3
        nodes = kernels.Nodes((), (), 0, (3 << 190, -11 << 190, 29 << 190,
                                          third, 1 << 200), -200)
        cols = [kernels.Column([17 << 90, 0, -4, 3 << 100, -1 << 100], -100),
                kernels.Column([1, 2, 0, 3, -1], -3, [-2, 5, 0, 3, -1])]
        for col in cols:
            for absolute in (False, True):
                got = kernels.weighted_sum(nodes, col, 200, "n", absolute)
                want = _reference_sum(nodes, col, 200, "n", absolute)
                assert type(got) is type(want)
                if absolute and col.im is not None:
                    # |v_i| by isqrt: at most one unit of 2^exp low per node
                    with mp.workprec(400):
                        slack = mp.ldexp(sum(map(abs, nodes.ws)),
                                         nodes.scale + col.exp)
                        assert want - slack <= got <= want
                else:
                    assert _raw(got) == _raw(want)
