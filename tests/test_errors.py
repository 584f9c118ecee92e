"""Out-of-domain input raises UnsupportedParameters, also a ValueError."""

import functools

import mpmath as mp
import pytest

from dlaguerre import (PrecisionCtx, PVParams, UnsupportedParameters,
                       WeightParams, build_moment_table, evolve,
                       from_hamiltonian, table_for, theta_kappa_from_recurrence)
from dlaguerre import hankel
from dlaguerre.hankel import (cauchy_sweep, cauchy_transform, dN_kernel,
                              epsilon_derivative_eval, epsilon_eval,
                              hankel_determinant, orthopoly_eval,
                              recurrence_coefficients, stieltjes_eval)
from dlaguerre.moments import MomentTable, moment_closed_form
from dlaguerre.semiclassical import AuxPair

PARAMS = WeightParams(2, 2, "0.5", "0.3")


@functools.lru_cache(maxsize=None)
def _tables():
    return table_for(PARAMS, 2, PrecisionCtx())


REFUSALS = {
    "hankel_determinant N < 0": lambda: hankel_determinant(_tables()[0], -1),
    "hankel_determinant past k_max": (
        lambda: hankel_determinant(_tables()[0], 9)),
    "recurrence_coefficients past k_max": (
        lambda: recurrence_coefficients(_tables()[0], 9)),
    "orthopoly_eval past n_max": lambda: orthopoly_eval(_tables()[1], 9, -1),
    "dN_kernel past n_max": lambda: dN_kernel(_tables()[1], 9, -1, -2),
    "MomentTable length": lambda: MomentTable(PARAMS, 2, (1, 2)),
    "MomentTable source": lambda: MomentTable(PARAMS, 0, (1,), "guess"),
    "MomentTable finite": lambda: MomentTable(PARAMS, 0, (float("inf"),)),
    "build_moment_table source": (
        lambda: build_moment_table(PARAMS, 2, PrecisionCtx(), "guess")),
    "closed form size": (
        lambda: moment_closed_form(0, WeightParams(0, 2049, 0, 0),
                                   PrecisionCtx())),
    "PVParams.make convention": lambda: PVParams.make(1, 2, 2, "prop99"),
    "PVParams convention": (
        lambda: PVParams((0, 0, 0, 0), (0, 0, 0, 0), 1, 2, 2, "prop99")),
    "from_hamiltonian convention": (
        lambda: from_hamiltonian("2", "0.1", "0.3", 1, PARAMS, "prop99")),
    "Trajectory.eval range": (
        lambda: evolve(1, "1e-3", "2e-3", PARAMS).eval("0.5")),
    "PrecisionCtx bits": lambda: PrecisionCtx(32),
    "PrecisionCtx tol": lambda: PrecisionCtx(256, "-1e-30"),
    "AuxPair provenance": lambda: AuxPair(1, 0, 0, 0, 0, 0, "guess"),
    "theta_kappa_from_recurrence past n_max": (
        lambda: theta_kappa_from_recurrence(_tables()[1], 9)),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_is_typed(name):
    """Each raised a bare ValueError; existing `except ValueError` callers
    still catch it."""
    with pytest.raises(UnsupportedParameters) as info:
        REFUSALS[name]()
    assert isinstance(info.value, ValueError)


def test_closed_form_size_bound_names_the_sum():
    """S = k + alpha + mu past the bound is refused before the factorials
    (one moment took 41 s at mu = 10^4; the command line's tests time
    mu = 10^12 and alpha = 10^8)."""
    with pytest.raises(UnsupportedParameters,
                       match=r"k \+ alpha \+ mu <= 2048, got 2049"):
        moment_closed_form(1, WeightParams(2000, 48, 0, "0.3"),
                           PrecisionCtx())


CAUCHY_VIEWS = {
    "cauchy_sweep": lambda mom, tab, x, prec: cauchy_sweep(tab, 1, x, prec),
    "cauchy_transform": (
        lambda mom, tab, x, prec: cauchy_transform(tab, 1, x, prec)),
    "epsilon_eval": lambda mom, tab, x, prec: epsilon_eval(tab, mom, 1, x,
                                                           prec),
    "epsilon_derivative_eval": (
        lambda mom, tab, x, prec: epsilon_derivative_eval(tab, mom, 1, x,
                                                          prec)),
    "stieltjes_eval": lambda mom, tab, x, prec: stieltjes_eval(mom, x, prec),
}


@pytest.mark.parametrize("x", [mp.nan, -mp.inf, mp.mpc(mp.nan, 1),
                               mp.mpc(-2, mp.inf)], ids=str)
@pytest.mark.parametrize("name", sorted(CAUCHY_VIEWS))
def test_non_finite_cauchy_point_refused(monkeypatch, name, x):
    """A Cauchy-kernel point that is not finite is refused by name before
    any quadrature; it raised an untyped ValueError ("cannot convert inf
    or nan to int") while sizing the sweep's width."""
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrated at a non-finite x")

    monkeypatch.setattr(hankel, "integrate_weighted", no_quadrature)
    mom, tab = _tables()
    with pytest.raises(UnsupportedParameters, match="x must be finite"):
        CAUCHY_VIEWS[name](mom, tab, x, PrecisionCtx(192, "1e-28"))
