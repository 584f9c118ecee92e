"""to_hamiltonian and pv_residual against independent plain references.

Each case compares the bits (or the raised type) of the package function
with the plain mpf expression kept here.  The node sums, the tensor
oracles' included, run on integers and are checked in test_fixed_point.py.
"""

import functools
import random

import mpmath as mp
import pytest

from dlaguerre import PVParams, PrecisionCtx, WeightParams, evolve
from dlaguerre import painleve
from dlaguerre.precision import to_mpf, workprec


def _bits(v):
    """Every number of v by its raw tuple; a raised call by its type."""
    if isinstance(v, mp.mpf):
        return v._mpf_
    if isinstance(v, mp.mpc):
        return v._mpc_
    if isinstance(v, (list, tuple)):
        return [_bits(x) for x in v]
    if isinstance(v, dict):
        return {k: _bits(x) for k, x in v.items()}
    if hasattr(v, "__dataclass_fields__"):
        return {k: _bits(getattr(v, k)) for k in v.__dataclass_fields__}
    return v


def _outcome(fn):
    try:
        return _bits(fn())
    except Exception as exc:  # noqa: BLE001 -- the type is compared
        return type(exc).__name__


# --- the plain references ----------------------------------------------------

def ref_to_hamiltonian(th, ka, t, n, params, convention):
    pv = PVParams.make(n, params.alpha, params.mu, convention)
    with workprec(PrecisionCtx(), 20):
        th, ka, t = to_mpf(th), to_mpf(ka), to_mpf(t)
        if t == 0 or th == 0 or th + t == 0:
            raise painleve.DegenerateTheta("map undefined")
        q, p = painleve._qp_map(th, ka, t, n, params, convention)
        H = painleve._t_hamiltonian(q, p, t, pv) / t
        return painleve.HamiltonPoint(q=+q, p=+p, t=+t, H=+H)


def ref_pv_residual(ts, qs, alphas):
    """pv_residual in plain mpf arithmetic, up to the quotient it converts
    to float: finite_difference's order-4 stencils in the grid index at
    spacings 2 and 1, Richardson-combined as (16 d_1 - d_2)/15."""
    def d1(qs, i, hh):
        return (-qs[i + 2 * hh] + 8 * qs[i + hh] - 8 * qs[i - hh]
                + qs[i - 2 * hh]) / (12 * hh)

    def d2(qs, i, hh):
        return (-qs[i + 2 * hh] + 16 * qs[i + hh] - 30 * qs[i]
                + 16 * qs[i - hh] - qs[i - 2 * hh]) / (12 * hh * hh)

    with workprec(PrecisionCtx(), 20):
        ts = [to_mpf(v) for v in ts]
        qs = [to_mpf(v) for v in qs]
        h = ts[1] - ts[0]
        spread = abs(h) * mp.mpf("1e-20")
        for i in range(1, len(ts)):
            if abs((ts[i] - ts[i - 1]) - h) > spread:
                raise painleve.SingularPanel("grid must be uniform")
        near = mp.mpf("1e-8")
        for q in qs:
            if abs(q) < near or abs(q - 1) < near:
                raise painleve.SingularPanel("q near {0, 1}")
        scale, residuals = mp.mpf(0), []
        for i in range(4, len(ts) - 4):
            yp, ypp = ((16 * d(qs, i, 1) - d(qs, i, 2)) / 15 / h ** k
                       for k, d in ((1, d1), (2, d2)))
            rhs = painleve.pv_rhs_second_derivative(qs[i], yp, ts[i], alphas)
            residuals.append(abs(ypp - rhs))
            scale = max(scale, abs(ypp))
        return max(residuals) / max(scale, mp.mpf(1))


# --- the cases ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _trajectory():
    params = WeightParams(2, 2, "0.5", 0)
    traj = evolve(1, "1e-3", "0.3", params)
    with mp.workprec(256):
        grid = mp.linspace(mp.mpf("0.1"), traj.t[-1], 21)
    return params, grid, traj.sample(grid)


def _hamiltonian(convention, complex_theta=False):
    params, grid, samples = _trajectory()
    rows = [(mp.mpc(th, "0.1") if complex_theta else th, ka, t, params)
            for t, (th, ka) in zip(grid, samples)]
    # a real mu, whose m/2 and sums round: the order of each operation
    # shows in the last bits
    real_mu = WeightParams(3, "0.1", "0.5", 0)
    rng = random.Random(7)
    for _ in range(20):
        rows.append(tuple(mp.mpf(rng.uniform(-2, 2)) / 3 for _ in range(3))
                    + (real_mu,))
    rows.append(("-0.5", "0.2", "0.5", params))     # theta = -t: raises
    return ([(lambda r=r: painleve.to_hamiltonian(*r[:3], 2, r[3],
                                                  convention))
             for r in rows],
            [(lambda r=r: ref_to_hamiltonian(*r[:3], 2, r[3], convention))
             for r in rows])


def _pv_quotient(ts, qs, alphas):
    """painleve._pv_quotient, the quotient before pv_residual rounds it to
    a float, at pv_residual's width."""
    with workprec(PrecisionCtx(), 20):
        return painleve._pv_quotient(
            *([to_mpf(v) for v in vs] for vs in (ts, qs, alphas)))


def _pv(convention):
    params, grid, samples = _trajectory()
    qs = [painleve.to_hamiltonian(th, ka, t, 1, params, convention).q
          for t, (th, ka) in zip(grid, samples)]
    alphas = PVParams.make(1, 2, 2, convention).alphas
    bad = list(qs)
    bad[3] = mp.mpf(1) + mp.mpf("1e-10")        # near the locus
    cases = [(grid, qs), (grid, bad)]
    # rough samples on rough grids, as TestPvResidualStencils draws them:
    # each max residual falls at another grid point
    rng = random.Random(5)
    for _ in range(6):
        with mp.workprec(400):
            g = mp.linspace(mp.mpf("0.1"), mp.mpf(rng.uniform(0.3, 3)),
                            rng.choice([9, 15, 121]))
            cases.append((g, [mp.mpf(rng.uniform(1.1, 3)) / 3
                              + rng.choice([0, 2]) for _ in g]))
    return ([lambda: painleve.pv_residual(grid, qs, alphas)]
            + [(lambda c=c: _pv_quotient(*c, alphas)) for c in cases],
            [lambda: float(ref_pv_residual(grid, qs, alphas))]
            + [(lambda c=c: ref_pv_residual(*c, alphas)) for c in cases])


CASES = {
    "to_hamiltonian prop11": lambda: _hamiltonian("prop11"),
    "to_hamiltonian cor12": lambda: _hamiltonian("cor12"),
    "to_hamiltonian complex theta": lambda: _hamiltonian("prop11", True),
    "pv_residual prop11": lambda: _pv("prop11"),
    "pv_residual cor12": lambda: _pv("cor12"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_raw_kernel_has_the_plain_bits(name):
    got, want = CASES[name]()
    if callable(got):
        got, want = [got], [want]
    for g, w in zip(got, want):
        assert _outcome(g) == _outcome(w)
