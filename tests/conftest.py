"""Shared fixtures: the desk-scale parameter points and cached tables."""

import mpmath as mp
import pytest

from dlaguerre import PrecisionCtx, WeightParams, table_for
from dlaguerre.kernels import Column, column_exp, to_fixed, top_exp


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


def fixed_column(values, F):
    """A Column of mpf or mpc numbers (or numbers that mpf arithmetic
    takes) at the scale kernels.column_exp gives for them, two integer
    columns where one of the values is complex."""
    values = [mp.mpmathify(v) for v in values]
    if any(isinstance(v, mp.mpc) for v in values):
        parts = [mp.mpc(v)._mpc_ for v in values]
        re, im = [p[0] for p in parts], [p[1] for p in parts]
    else:
        re, im = [v._mpf_ for v in values], None
    e = column_exp(top_exp(re + (im or [])), F)
    return Column([to_fixed(v, e) for v in re], e,
                  None if im is None else [to_fixed(v, e) for v in im])


def per_node(fn):
    """integrate_weighted's column integrand from a per-node one: fn at the
    mpf of each node, each component gathered into one fixed-point Column
    (fixed_column)."""
    def columns(nodes):
        return [fixed_column(vs, nodes.F)
                for vs in zip(*(fn(mp.make_mpf(x)) for x in nodes.xs))]

    return columns


# (1, 0, -0.429535) has every Delta_m > 0 at t = 0 and Delta_3 < 0 at
# t = 0.604487; this t lies within 1e-71 of the zero of Delta_3 between
# (bisection at 1024 bits), so Delta_3 there is ~1e-70 of its scale.
SIGNED_ZERO_T = ("0.47437660510312110794025129357528858358110931814056597382228"
                 "81186851610")


def mpf_nodes(nodes):
    """A node list (kernels.Nodes) as (x, W) mpf pairs, each W = ws[i]
    2^scale rounded once at the working precision."""
    return [(mp.make_mpf(x), mp.ldexp(w, nodes.scale))
            for x, w in zip(nodes.xs, nodes.ws)]
