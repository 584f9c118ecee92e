"""Out-of-domain input raises UnsupportedParameters, also a ValueError."""

import functools

import pytest

from dlaguerre import (PrecisionCtx, PVParams, UnsupportedParameters,
                       WeightParams, build_moment_table, evolve,
                       from_hamiltonian, table_for, theta_kappa_from_recurrence)
from dlaguerre.hankel import (dN_kernel, hankel_determinant, orthopoly_eval,
                              recurrence_coefficients)
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
