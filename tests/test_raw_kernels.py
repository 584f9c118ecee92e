"""The raw-tuple kernels against the plain mpf expressions they replace.

Each kernel runs its per-node or per-sample arithmetic on mpmath.libmp
tuples, with the operations and roundings of an mpf expression.  That
expression is kept here as the reference, evaluated node by node and
gathered into integrate_weighted's columns (conftest.per_node), and each
case compares the bits (or the raised type) of the package function
with it: n = 0, where P_{-1} = 0 enters as the int 0, integer and real
mu, and a complex x, where only the kernel columns are mpc.
"""

import functools
import random

import mpmath as mp
import pytest

from dlaguerre import (PVParams, PrecisionCtx, QuadratureFailure,
                       SingularHankel, WeightParams, evolve, table_for)
from dlaguerre import hankel, painleve
from dlaguerre.hankel import cauchy_sweep, stieltjes_eval
from dlaguerre.moments import _quadrature_moments
from dlaguerre.oracle import (dN_by_quadrature, delta_by_quadrature,
                              gram_schmidt_recurrence, inner_product)
from dlaguerre.precision import to_mpf, workprec
from dlaguerre.quadrature import GUARD_BITS, LADDER, integrate_weighted
from dlaguerre.semiclassical import ladder_ab_by_quadrature, ladder_integrals
from conftest import mpf_nodes, per_node

PREC = PrecisionCtx(128, "1e-25")
POINTS = {
    "mu_2": (2, 2, "0.5", "0.3"),          # integer mu, the desk point
    "mu_1.5": (2, "1.5", "0.5", "0.3"),    # real mu: a Jacobi panel at 0
    "signed": (3, 1, "-0.7", "2"),         # odd alpha, a signed weight
}
PLAIN_X = mp.mpc("-0.5", 1)


def _tables(point):
    params = WeightParams(*POINTS[point])
    source = "closed_form" if params.mu_is_integer else "quadrature"
    return table_for(params, 3, PREC, source=source, cross_check=False)


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


def _plain_monic(table, n, x):
    """P_0..P_n(x) by the monic recurrence in plain mpf arithmetic."""
    cur, prev = (x - table.b[0]) * 0 + 1, 0
    out = [cur]
    for m in range(n):
        cur, prev = (x - table.b[m]) * cur - table.a2[m] * prev, cur
        out.append(cur)
    return out


def _plain_pair(table, n, y):
    P = _plain_monic(table, n, y)
    return P[n], (P[n - 1] if n else 0)


# --- the plain references ----------------------------------------------------

def ref_moments(params, ks):
    return [r.value for r in integrate_weighted(
        per_node(lambda x: [x ** k for k in ks]), params, PREC)]


def ref_stieltjes(mom, x):
    with workprec(PREC, 20):
        x = to_mpf(x)
        cancel = hankel._cancel_digits((mom.k_max + 1) // 2, x)
        res = integrate_weighted(per_node(lambda s: (1 / (x - s),)),
                                 mom.params, PREC, extra_digits=cancel,
                                 pole=x)
    return res[0].value


def ref_cauchy(tab, n, x):
    with workprec(PREC, 20):
        x = to_mpf(x)

        def fn(s):
            P = _plain_monic(tab, n, s)
            inv = 1 / (x - s)
            dinv = -inv * inv
            return [p * inv for p in P] + [p * dinv for p in P]

        res = integrate_weighted(
            per_node(fn), tab.params, PREC, pole=x,
            extra_digits=hankel._cancel_digits(tab.n_max + 1, x)).items
    return [(r.value, r.error) for r in res]


def ref_ladder(tab, n):
    params, al = tab.params, tab.params.alpha
    with workprec(PREC, 20):
        t = to_mpf(params.t)

        def fn(y):
            p, p_prev = _plain_pair(tab, n, y)
            return al * p * p / (y - t), al * p * p_prev / (y - t)

        h_R, h_r = tab.h(n), tab.h(n - 1) if n else 1
        res = integrate_weighted(per_node(fn), params, PREC,
                                 rel_scale=(h_R, h_r))
        return res[0].value / h_R, res[1].value / h_r


def ref_ladder_ab(tab, n, x):
    params = tab.params
    with workprec(PREC, 20):
        al, mu = to_mpf(params.alpha), to_mpf(params.mu)
        t, x, zeta = to_mpf(params.t), to_mpf(x), to_mpf(params.zeta)
        shifted = None if params.mu_is_integer else WeightParams(
            params.alpha, to_mpf(params.mu) - 1, params.zeta, params.t)

        def products(y):
            p, p_prev = _plain_pair(tab, n, y)
            return p * p, p * p_prev

        def kernelled(y):
            k = al / ((x - t) * (y - t))
            k = k if shifted else k + mu / (x * y)
            return [v * k for v in products(y)]

        h_A, h_B = tab.h(n), tab.h(n - 1) if n else 1

        def integrals(fn, weight):
            return [res.value for res in integrate_weighted(
                per_node(fn), weight, PREC, rel_scale=(h_A, h_B))]

        A, B = integrals(kernelled, params)
        if shifted:
            sA, sB = integrals(products, shifted)
            A += mu / x * sA
            B += mu / x * sB
        jumps = []
        if mu == 0:
            jumps.append((mp.mpf(0), (-t) ** al * (1 - zeta if t == 0 else 1)))
        if al == 0 and t > 0:
            jumps.append((t, -zeta * t ** mu * mp.exp(-t)))
        for s, dw in jumps:
            p, p_prev = _plain_pair(tab, n, s)
            A += dw * p * p / (x - s)
            B += dw * p * p_prev / (x - s)
        return +(A / h_A), +(B / h_B)


def ref_inner_product(tab, i, j):
    def p(k, s):
        with workprec(tab.prec):
            if k:
                hankel._gamma(tab, k - 1)
            return hankel._gamma(tab, k) * _plain_monic(tab, k, s)[k]

    with workprec(PREC, 20):
        def fn(s):
            pi = p(i, s)
            return (pi * pi if j == i else pi * p(j, s),)

        return integrate_weighted(per_node(fn), tab.params, PREC,
                                  rel_scale=(1,))[0].value


def ref_spread(xs, ws, x0, lift):
    ds = [x - x0 for x in xs]
    d2 = [d * d for d in ds]
    cs = [w * e for w, e in zip(ws, d2)] if lift else ws
    s0, s1, s2 = mp.fsum(cs), mp.fdot(cs, ds), mp.fdot(cs, d2)
    return s0 * s2 - s1 * s1


def ref_tensor(params, N, insert=None, nodes=LADDER[1]):
    def value_at(m):
        pts = mpf_nodes(params, m)
        if insert is not None:
            y1, y2 = insert
            pts = [(x, w * ((y1 - x) * (y2 - x))) for (x, w) in pts]
        xs, ws = zip(*pts)
        if N == 1:
            return mp.fsum(ws)
        if N == 2:
            return ref_spread(xs, ws, max(pts, key=lambda p: abs(p[1]))[0], 0)
        return mp.fsum(w * ref_spread(xs, ws, x, 2) for x, w in pts) / 3

    with workprec(PREC, GUARD_BITS):
        if insert is not None:
            insert = tuple(map(to_mpf, insert))
        fine = value_at(nodes)
        err = abs(fine - value_at(nodes // 2))
    with workprec(PREC):
        return +fine, +err


def ref_gram_schmidt(params, n_max):
    tol = PREC.tol_mpf()
    with workprec(PREC, GUARD_BITS):
        def stieltjes(m):
            xs, ws = zip(*mpf_nodes(params, m))
            p_prev, p = [0] * len(xs), [1] * len(xs)
            h, b = [], []
            for n in range(n_max + 1):
                wp2 = [w * v * v for w, v in zip(ws, p)]
                h.append(mp.fsum(wp2))
                b.append(mp.fdot(wp2, xs) / h[n])
                if n < n_max:
                    a2 = h[n] / h[n - 1] if n else 0
                    p_prev, p = p, [(x - b[n]) * v - a2 * u
                                    for x, v, u in zip(xs, p, p_prev)]
            return h, b

        coarse = stieltjes(LADDER[0])
        for m in LADDER[1:]:
            fine = stieltjes(m)
            if all(abs(f - c) <= tol * abs(f) for fs, cs in zip(fine, coarse)
                   for f, c in zip(fs, cs)):
                break
            coarse = fine
        else:
            raise QuadratureFailure("no agreement")
        h, b = fine
    with workprec(PREC):
        a = [mp.mpf(0)]
        for n in range(1, n_max + 1):
            a2 = h[n] / h[n - 1]
            if not a2 > 0:
                raise SingularHankel("a_n^2 <= 0")
            a.append(mp.sqrt(a2))
        return {"a": a, "b": [+v for v in b],
                "gamma": [1 / mp.sqrt(v) if v > 0 else None for v in h],
                "gamma1_ratio": [-mp.fsum(b[:n]) for n in range(n_max + 1)]}


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

def _moments(point):
    params = WeightParams(*POINTS[point])
    ks = list(range(13))
    return (lambda: _quadrature_moments(ks, params, PREC),
            lambda: ref_moments(params, ks))


def _stieltjes(point, x=-2):
    mom, _ = _tables(point)
    return (lambda: stieltjes_eval(mom, x, PREC),
            lambda: ref_stieltjes(mom, x))


def _cauchy(point, n, x=-2):
    _, tab = _tables(point)
    return (lambda: [(r.value, r.error)
                     for r in sum(map(list, cauchy_sweep(tab, n, x, PREC)),
                                  [])],
            lambda: ref_cauchy(tab, n, x))


def _ladder(point, n):
    mom, tab = _tables(point)

    def got():
        pair = ladder_integrals(tab, mom, n, PREC, check_equivalence=False)
        return pair.R, pair.r

    return got, lambda: ref_ladder(tab, n)


def _ladder_ab(point, n, x=-2):
    _, tab = _tables(point)
    return (lambda: ladder_ab_by_quadrature(tab, n, x, PREC),
            lambda: ref_ladder_ab(tab, n, x))


def _inner(point, i, j):
    mom, tab = _tables(point)
    return (lambda: inner_product((i, j), tab, mom, PREC),
            lambda: ref_inner_product(tab, i, j))


def _tensor(point, N, insert=None):
    params = WeightParams(*POINTS[point])

    def got():
        res = (delta_by_quadrature(params, N, PREC) if insert is None
               else dN_by_quadrature(params, N, *insert, PREC))
        return res.value, res.error

    return got, lambda: ref_tensor(params, N, insert)


def _gram_schmidt(point, n_max):
    params = WeightParams(*POINTS[point])
    return (lambda: gram_schmidt_recurrence(params, n_max, PREC),
            lambda: ref_gram_schmidt(params, n_max))


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


def _pv_raw(ts, qs, alphas):
    """painleve._pv_residual_raw's quotient, before pv_residual rounds it
    to a float, at pv_residual's width."""
    with workprec(PrecisionCtx(), 20):
        return mp.make_mpf(painleve._pv_residual_raw(
            *([to_mpf(v)._mpf_ for v in vs] for vs in (ts, qs, alphas))))


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
            + [(lambda c=c: _pv_raw(*c, alphas)) for c in cases],
            [lambda: float(ref_pv_residual(grid, qs, alphas))]
            + [(lambda c=c: ref_pv_residual(*c, alphas)) for c in cases])


CASES = {
    "moments mu_2": lambda: _moments("mu_2"),
    "moments mu_1.5": lambda: _moments("mu_1.5"),
    "stieltjes mu_2": lambda: _stieltjes("mu_2"),
    "stieltjes mu_1.5": lambda: _stieltjes("mu_1.5"),
    "stieltjes complex x": lambda: _stieltjes("mu_2", PLAIN_X),
    "cauchy n=0": lambda: _cauchy("mu_2", 0),
    "cauchy n=3 mu_1.5": lambda: _cauchy("mu_1.5", 3),
    "cauchy signed": lambda: _cauchy("signed", 2, "-0.5"),
    "ladder n=0": lambda: _ladder("mu_2", 0),
    "ladder n=2 mu_1.5": lambda: _ladder("mu_1.5", 2),
    "ladder signed": lambda: _ladder("signed", 3),
    "ladder_ab n=0": lambda: _ladder_ab("mu_2", 0),
    "ladder_ab n=2": lambda: _ladder_ab("mu_2", 2, -1),
    "ladder_ab mu_1.5": lambda: _ladder_ab("mu_1.5", 1),
    "ladder_ab signed": lambda: _ladder_ab("signed", 2, "-0.5"),
    "ladder_ab complex x": lambda: _ladder_ab("mu_2", 1, PLAIN_X),
    "inner (0, 0)": lambda: _inner("mu_2", 0, 0),
    "inner (1, 3)": lambda: _inner("mu_2", 1, 3),
    "inner (2, 2) mu_1.5": lambda: _inner("mu_1.5", 2, 2),
    "inner (2, 1) signed": lambda: _inner("signed", 2, 1),
    "Delta_1": lambda: _tensor("mu_2", 1),
    "Delta_2 signed": lambda: _tensor("signed", 2),
    "Delta_3 mu_1.5": lambda: _tensor("mu_1.5", 3),
    "D_1": lambda: _tensor("mu_2", 1, ("5", "7")),
    "D_2 confluent": lambda: _tensor("signed", 2, ("4", "4")),
    "D_2 complex y": lambda: _tensor("mu_2", 2, (mp.mpc(3, 1), "7")),
    "gram_schmidt": lambda: _gram_schmidt("mu_2", 3),
    "gram_schmidt mu_1.5": lambda: _gram_schmidt("mu_1.5", 2),
    "gram_schmidt signed": lambda: _gram_schmidt("signed", 3),
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
