"""Shared fixtures: the desk-scale parameter points and cached tables."""

import mpmath as mp
import pytest

from dlaguerre import PrecisionCtx, WeightParams, table_for
from dlaguerre.quadrature import weighted_nodes


@pytest.fixture(scope="session")
def prec():
    return PrecisionCtx()


@pytest.fixture(scope="session")
def params_main():
    """The main acceptance point: alpha=2, mu=2, zeta=0.5, t=0.3."""
    return WeightParams(2, 2, "0.5", "0.3")


@pytest.fixture(scope="session")
def params_origin():
    """Classical limit t = 0 at the same (alpha, mu, zeta)."""
    return WeightParams(2, 2, "0.5", 0)


@pytest.fixture(scope="session")
def tables_main(params_main, prec):
    """(moments, recurrence table) at the main point, n_max = 6."""
    return table_for(params_main, 6, prec)


@pytest.fixture(scope="session")
def tables_origin(params_origin, prec):
    return table_for(params_origin, 6, prec)


def rel_err(got, want):
    with mp.extraprec(20):
        got = mp.mpf(got) if not isinstance(got, (mp.mpf, mp.mpc)) else got
        want = mp.mpf(want) if not isinstance(want, (mp.mpf, mp.mpc)) else want
        scale = max(abs(want), mp.mpf(1e-30))
        return float(abs(got - want) / scale)


@pytest.fixture(scope="session")
def relerr():
    return rel_err


def per_node(fn):
    """integrate_weighted's column integrand from a per-node one: fn at the
    mpf of each raw node, each component gathered into a column of raw mpf
    tuples, or of mpc numbers where one of its values is complex.  Other
    numbers convert as mpf arithmetic converts them."""
    def columns(xs):
        out = []
        for vs in zip(*(fn(mp.make_mpf(x)) for x in xs)):
            vs = [mp.mpmathify(v) for v in vs]
            out.append([mp.mpc(v) for v in vs]
                       if any(isinstance(v, mp.mpc) for v in vs)
                       else [v._mpf_ for v in vs])
        return out

    return columns


# (1, 0, -0.429535) has every Delta_m > 0 at t = 0 and Delta_3 < 0 at
# t = 0.604487; this t lies within 1e-71 of the zero of Delta_3 between
# (bisection at 1024 bits), so Delta_3 there is ~1e-70 of its scale.
SIGNED_ZERO_T = ("0.47437660510312110794025129357528858358110931814056597382228"
                 "81186851610")


def mpf_nodes(params, m, pole=None):
    """weighted_nodes' columns as a list of (x, W) mpf pairs."""
    return [tuple(map(mp.make_mpf, node))
            for node in zip(*weighted_nodes(params, m, pole))]
