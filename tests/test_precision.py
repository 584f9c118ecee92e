"""The precision rule: an omitted context is the data's or the default one.

Every public function with an optional `prec` runs at the context it is
given, else at its data's (a moment table's or a recurrence table's),
else at PrecisionCtx(); the caller's mpmath width never picks it.
"""

import dataclasses
import functools

import mpmath as mp
import pytest

from dlaguerre import PrecisionCtx, Report, TruncSeries, WeightParams, table_for
from dlaguerre.hankel import (cauchy_sweep, cauchy_transform,
                              epsilon_derivative_eval, epsilon_eval,
                              hankel_determinant, recurrence_coefficients,
                              shifted_hankel_determinant, stieltjes_eval)
from dlaguerre.oracle import inner_product
from dlaguerre.painleve import (PVParams, ab_flow_check, aux_pair_series,
                                compatibility_residual, deformation_residual,
                                evolve, flow_map_residual, from_hamiltonian,
                                hamilton_map_residual, hamilton_rhs,
                                hamiltonian_eval, ode_rhs, pv_residual,
                                rr_rhs, series_init, to_hamiltonian)
from dlaguerre.precision import DEFAULT_CTX
from dlaguerre.semiclassical import (ladder_ab_at, ladder_ab_by_quadrature,
                                     ladder_integrals, theta_kappa_from_recurrence,
                                     theta_prev_from_pair, verify_identities)

PARAMS = WeightParams(2, 2, "0.5", "0.3")
TABLE_CTX = PrecisionCtx(192)      # the data's context, not the default
TH, KA = "-0.41", "0.37"           # a (theta, kappa) state off {0, -t}


@functools.lru_cache(maxsize=None)
def _data():
    """(moments, table, pair) at TABLE_CTX: pair is the n = 2 AuxPair."""
    mom, tab = table_for(PARAMS, 4, TABLE_CTX)
    return mom, tab, theta_kappa_from_recurrence(tab, 2)


def _pv():
    return PVParams.make(2, 2, 2, "prop11")


# name -> (call(mom, tab, pair, **prec), True when the data set the default)
CASES = {
    "hankel_determinant": (
        lambda m, t, p, **kw: hankel_determinant(m, 2, **kw), True),
    "shifted_hankel_determinant": (
        lambda m, t, p, **kw: shifted_hankel_determinant(m, 2, **kw), True),
    "recurrence_coefficients": (
        lambda m, t, p, **kw: recurrence_coefficients(m, 2, **kw), True),
    "cauchy_sweep": (lambda m, t, p, **kw: cauchy_sweep(t, 2, -2, **kw), True),
    "cauchy_transform": (
        lambda m, t, p, **kw: cauchy_transform(t, 2, -1, **kw), True),
    "epsilon_eval": (
        lambda m, t, p, **kw: epsilon_eval(t, m, 2, -2, **kw), True),
    "epsilon_derivative_eval": (
        lambda m, t, p, **kw: epsilon_derivative_eval(t, m, 2, -2, **kw),
        True),
    "stieltjes_eval": (lambda m, t, p, **kw: stieltjes_eval(m, -2, **kw), True),
    "inner_product": (
        lambda m, t, p, **kw: inner_product((1, 2), t, m, **kw), True),
    "ladder_integrals": (
        lambda m, t, p, **kw: ladder_integrals(t, m, 2, **kw), True),
    "ladder_ab_by_quadrature": (
        lambda m, t, p, **kw: ladder_ab_by_quadrature(t, 2, -2, **kw), True),
    "verify_identities": (
        lambda m, t, p, **kw: verify_identities(
            t, m, [1, 2], include_quadrature_checks=False, **kw), True),
    "ladder_ab_at": (
        lambda m, t, p, **kw: ladder_ab_at(p, PARAMS, -2, **kw), False),
    "theta_prev_from_pair": (
        lambda m, t, p, **kw: theta_prev_from_pair(p, PARAMS, **kw), False),
    "PVParams.make": (
        lambda m, t, p, **kw: PVParams.make(2, 2, "0.3", "cor12", **kw),
        False),
    "hamiltonian_eval": (
        lambda m, t, p, **kw: hamiltonian_eval("2", "0.1", "0.3", _pv(), **kw),
        False),
    "hamilton_rhs": (
        lambda m, t, p, **kw: hamilton_rhs("2", "0.1", "0.3", _pv(), **kw),
        False),
    "to_hamiltonian": (
        lambda m, t, p, **kw: to_hamiltonian(TH, KA, "0.3", 2, PARAMS, **kw),
        False),
    "from_hamiltonian": (
        lambda m, t, p, **kw: from_hamiltonian("2", "0.1", "0.3", 2, PARAMS,
                                               **kw), False),
    "ode_rhs": (
        lambda m, t, p, **kw: ode_rhs(TH, KA, 2, "0.3", PARAMS, **kw), False),
    "rr_rhs": (
        lambda m, t, p, **kw: rr_rhs("0.3", "0.1", 2, "0.3", PARAMS, **kw),
        False),
    "flow_map_residual": (
        lambda m, t, p, **kw: flow_map_residual(TH, KA, 2, "0.3", PARAMS,
                                                **kw), False),
    "hamilton_map_residual": (
        lambda m, t, p, **kw: hamilton_map_residual(
            TH, KA, 2, "0.3", WeightParams(2, "0.3", "0.5", "0.3"), **kw),
        False),
    "aux_pair_series": (
        lambda m, t, p, **kw: aux_pair_series(2, PARAMS, 3, about="0.3",
                                              **kw), False),
    "series_init": (
        lambda m, t, p, **kw: series_init(1, "1e-3", PARAMS, **kw), False),
    "evolve": (
        lambda m, t, p, **kw: evolve(1, "1e-3", "2e-3", PARAMS, **kw), False),
    "pv_residual": (
        lambda m, t, p, **kw: pv_residual(
            [f"0.{i}" for i in range(1, 10)],
            [f"1.{i}{i}" for i in range(1, 10)], _pv().alphas, **kw), False),
    "deformation_residual": (
        lambda m, t, p, **kw: deformation_residual(PARAMS, 2, -1, "0.3",
                                                   **kw), False),
    "compatibility_residual": (
        lambda m, t, p, **kw: compatibility_residual(PARAMS, 2, -1, "0.3",
                                                     **kw), False),
    "ab_flow_check": (
        lambda m, t, p, **kw: ab_flow_check(PARAMS, 1, ["0.29", "0.3", "0.31"],
                                            **kw), False),
}


def _bits(x):
    """Every mpf of a result as its raw tuple, so equal means bit for bit."""
    if isinstance(x, (mp.mpf, mp.mpc)):
        return getattr(x, "_mpf_", None) or x._mpc_
    if isinstance(x, TruncSeries):
        return _bits(x.c)
    if isinstance(x, Report):
        return x.to_dict()
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _bits(v)) for k, v in x.items()))
    return x


@pytest.mark.parametrize("name", sorted(CASES))
def test_omitted_context_is_data_or_default(name):
    """Called without prec inside a narrow and a wide caller width, each
    function returns the bits it gives at its default context: the data's
    for table-based functions, PrecisionCtx() for the others."""
    call, from_data = CASES[name]
    mom, tab, pair = _data()
    want = _bits(call(mom, tab, pair,
                      prec=TABLE_CTX if from_data else PrecisionCtx()))
    for width in (100, 600):
        with mp.workprec(width):
            assert _bits(call(mom, tab, pair)) == want, width


def test_default_context_is_shared(monkeypatch):
    """An omitted context is the one DEFAULT_CTX: no call builds a
    PrecisionCtx() of its own (each build parses tol), and the results are
    those of an explicit PrecisionCtx(), bit for bit.  The chart residuals
    are left out: they build their working context, guard bits above."""
    mom, tab, pair = _data()
    names = [name for name, (_, from_data) in sorted(CASES.items())
             if not from_data
             and name not in ("flow_map_residual", "hamilton_map_residual")]
    want = {name: _bits(CASES[name][0](mom, tab, pair, prec=PrecisionCtx()))
            for name in names}
    built = []
    original = PrecisionCtx.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PrecisionCtx, "__post_init__", counted)
    for name in names:
        del built[:]
        assert _bits(CASES[name][0](mom, tab, pair)) == want[name], name
        assert built == [], name
    assert DEFAULT_CTX == PrecisionCtx()
