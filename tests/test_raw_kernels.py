"""to_hamiltonian against an independent plain reference.

Each case compares the bits (or the raised type) of the package function
with the plain mpf expression kept here.  The node sums, the tensor
oracles' included, the dense output and pv_residual's stencils run on
integers and are checked in test_fixed_point.py.
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


CASES = {
    "to_hamiltonian prop11": lambda: _hamiltonian("prop11"),
    "to_hamiltonian cor12": lambda: _hamiltonian("cor12"),
    "to_hamiltonian complex theta": lambda: _hamiltonian("prop11", True),
}


@pytest.mark.parametrize("name", list(CASES))
def test_raw_kernel_has_the_plain_bits(name):
    got, want = CASES[name]()
    if callable(got):
        got, want = [got], [want]
    for g, w in zip(got, want):
        assert _outcome(g) == _outcome(w)
