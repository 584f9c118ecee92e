"""Split Gauss quadrature: the node-list cache and the node ladder."""

from collections import Counter

import mpmath as mp
import pytest

from dlaguerre import (PrecisionCtx, WeightParams, cauchy_transform,
                       dN_by_quadrature, delta_by_quadrature,
                       moment_closed_form, moment_quadrature, table_for,
                       verify_identities, workprec)
from dlaguerre import quadrature
from dlaguerre.quadrature import weighted_nodes
from conftest import rel_err

PREC = PrecisionCtx()
QPREC = PrecisionCtx(192, "1e-28")       # verify's quadrature-check context
DESK = WeightParams(2, 2, "0.5", "0.3")


class _KeepNothing(dict):
    """A node-list cache that stores nothing: every call builds its list."""

    def __setitem__(self, key, value):
        pass


def fresh_and_cached(monkeypatch, compute):
    """compute() with every node list built afresh, then with the cache in
    use (emptied first).  A first pass builds the reference rules, so both
    runs sum nodes made from the same rules."""
    compute()
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_LISTS", _KeepNothing())
        fresh = compute()
    quadrature._LISTS.clear()
    return fresh, compute()


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
        assert [key[0] for key in quadrature._LISTS] == [other]

    def test_pole_sweep_keeps_one_pole(self):
        with workprec(PREC):
            weighted_nodes(DESK, 10)
            poles = [-1 - mp.mpf(i) / 10 for i in range(50)]
            for pole in poles:
                weighted_nodes(DESK, 10, pole=pole)
        last = (type(poles[-1]), poles[-1])
        assert {key[2] for key in quadrature._LISTS} == {None, last}
        assert len(quadrature._LISTS) == 2

    def test_lists_belong_to_their_weight(self):
        """Alternating weights, poles and precisions: each call returns the
        list _build_nodes makes for its own inputs."""
        weights = [DESK, DESK.replace_t("0.31"),
                   WeightParams(2, 2, "0.6", "0.3"),
                   WeightParams(1, "1.5", "0.5", "0.3")]
        for bits in (128, 256, 128):
            with mp.workprec(bits):
                for params in weights + weights[::-1]:
                    for pole in (None, mp.mpf(-2), mp.mpf(-1)):
                        got = weighted_nodes(params, 10, pole)
                        assert got == quadrature._build_nodes(params, 10,
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
