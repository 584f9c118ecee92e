"""Independent brute-force ground truth for the determinant pipeline.

Nothing here reuses the identity machinery it is meant to check: inner
products integrate polynomial values directly against the weight,
delta_by_quadrature evaluates the N-fold squared-Vandermonde integral by
tensor-product quadrature, dN_by_quadrature does the same with two
characteristic-polynomial insertions, gram_schmidt_recurrence rebuilds the
recurrence coefficients by Stieltjes' procedure (no moment, no
determinant), and finite_difference, order-4 stencils with a Richardson
error estimate (painleve.pv_residual applies them to grid samples
directly).  Results carry error estimates; assertions downstream compare
|value - reference| against estimate + tol.

Tensor integrals and Stieltjes sums are sums over the split Gauss node
lists of quadrature.weighted_nodes at prec + GUARD_BITS, as
integrate_weighted's.  The Stieltjes sums run on the lists' integers
(kernels.py): each h_n and sum W x P_n^2 is one exact integer sum, rounded
once.  The tensor sums run on raw mpf tuples (mpmath.libmp), each weight
converted once from the list's integer column, with the operations and
roundings of the mpf expressions mp.fsum and mp.fdot would run over those
weights, so they have those expressions' bits; only a complex D_N point
makes mpc weights, whose parts are summed apart as fsum and fdot sum
them.  A tensor value uses `nodes` per panel (by default
the second rung of quadrature.LADDER); its error estimate is the
difference from the sum at nodes // 2.  Over an m-node list the sum
collapses its innermost pair exactly, sum_{j,k} c_j c_k (x_k - x_j)^2 / 2
= s0 s2 - s1^2 with s_p = sum_j c_j (x_j - x0)^p, so N = 2 costs O(m) and
N = 3 costs O(m^2); it is an identity of finite sums, not a moment table
or a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import mpmath as mp
from mpmath.libmp import (from_man_exp, fzero, mpc_abs, mpf_abs, mpf_div,
                          mpf_gt, mpf_mul, mpf_sub, mpf_sum)

from .errors import QuadratureFailure, SingularHankel, UnsupportedParameters
from .hankel import RecurrenceTable, _gamma, check_degree
from .kernels import (Column, dot, monic_columns, monic_step, scaled,
                      to_fixed)
from .moments import MomentTable, WeightParams
from .precision import PrecisionCtx, to_mpf, workprec
from .quadrature import (GUARD_BITS, LADDER, QuadResult, integrate_weighted,
                         weighted_nodes)


def inner_product(index_pair, table: RecurrenceTable, moments: MomentTable,
                  prec: PrecisionCtx = None):
    """<p_i, p_j> by direct quadrature against the weight.

    At each node p_k = gamma_k P_k is hankel.orthopoly_eval's value_n, on
    integers: P_0..P_max(i,j) from one monic recurrence at 2^-F, gamma_k at
    its own scale (kernels.scaled), and the product p_i p_j.
    orthopoly_eval reads gamma_{k-1} too, so where h_{k-1} <= 0 this raises
    SingularHankel as it does, before any quadrature.
    """
    prec = prec or table.prec
    i, j = index_pair
    for k in (i, j):
        check_degree(k, table.n_max)

    def gamma(k):
        if k:
            _gamma(table, k - 1)
        return _gamma(table, k)

    g_i = gamma(i)
    g_j = g_i if j == i else gamma(j)
    with workprec(prec, 20):
        def fn(nodes):
            F = nodes.F
            P = monic_columns(table.b, table.a2, max(i, j), nodes.X, F)
            p_i = scaled(g_i, P[i], F)
            p_j = p_i if j == i else scaled(g_j, P[j], F)
            return (Column([u * v >> F for u, v in zip(p_i.re, p_j.re)],
                           p_i.exp + p_j.exp + F),)

        return integrate_weighted(fn, table.params, prec,
                                  rel_scale=(1,))[0].value


def _number(parts):
    """The mpf of a one-part raw sum, the mpc of a (real, imaginary) one."""
    return mp.make_mpf(parts[0]) if len(parts) == 1 else mp.make_mpc(parts)


def _spread(xs, parts, x0, lift):
    """The pair sum sum_{j,k} c_j c_k (x_k - x_j)^2 / 2 = s0 s2 - s1^2, for
    c_j = W_j (x_j - x0)^lift and s_p = sum_j c_j (x_j - x0)^p: three O(m)
    sums on raw tuples, the bits of mp.fsum(cs), mp.fdot(cs, ds) and
    mp.fdot(cs, d2).  xs and x0 are raw; parts holds the raw W_j, or for
    complex weights their real and their imaginary parts, which fsum and
    fdot sum apart.  s0 s2 - s1^2 is formed on mpf (or mpc) numbers."""
    prec, rnd = mp.mp._prec_rounding
    mul = mpf_mul
    ds = [mpf_sub(x, x0, prec, rnd) for x in xs]
    d2 = [mul(d, d, prec, rnd) for d in ds]
    sums = []
    for ws in parts:
        cs = [mul(w, e, prec, rnd) for w, e in zip(ws, d2)] if lift else ws
        sums.append((mpf_sum(cs, prec, rnd), dot(cs, ds, prec, rnd),
                     dot(cs, d2, prec, rnd)))
    s0, s1, s2 = map(_number, zip(*sums))
    return s0 * s2 - s1 * s1


def _vandermonde_sum(xs, parts, N):
    """sum over N-tuples of nodes of prod W * prod_{i<j} (x_j - x_i)^2 / N!,
    for raw nodes xs and weights W in parts (as _spread takes them).

    The innermost pair sum collapses exactly (_spread), so no tuple loop
    and no moment or determinant is formed: N = 2 is one O(m) pass centred
    at the heaviest node (the first of equals, as max picks it), and N = 3
    is (1/3) sum_i W_i (s0 s2 - s1^2) with c_j = W_j (x_j - x_i)^2 centred
    at x_i, O(m) per i and O(m^2) in all.
    """
    prec, rnd = mp.mp._prec_rounding
    if N == 1:
        return _number([mpf_sum(ws, prec, rnd) for ws in parts])
    if N == 2:
        size = ([mpf_abs(w, prec, rnd) for w in parts[0]] if len(parts) == 1
                else [mpc_abs(w, prec, rnd) for w in zip(*parts)])
        top = 0
        for i, v in enumerate(size):
            if mpf_gt(v, size[top]):
                top = i
        return _spread(xs, parts, xs[top], 0)
    weights = map(_number, zip(*parts))
    return mp.fsum(w * _spread(xs, parts, x, 2)
                   for x, w in zip(xs, weights)) / 3


def _weights(xs, ws, insert):
    """The raw weights ws of a node list as _vandermonde_sum takes them,
    each times (y1 - x)(y2 - x) for insert = (y1, y2), rounded as the mpf
    expression w * ((y1 - x) * (y2 - x)) rounds it.  A complex y makes
    the mpc weights of that expression, split into their parts."""
    if insert is None:
        return (ws,)
    y1, y2 = insert
    if isinstance(y1, mp.mpc) or isinstance(y2, mp.mpc):
        make = mp.make_mpf
        return tuple(zip(*((make(w) * ((y1 - make(x)) * (y2 - make(x))))
                           ._mpc_ for x, w in zip(xs, ws))))
    prec, rnd = mp.mp._prec_rounding
    mul, sub = mpf_mul, mpf_sub
    y1, y2 = y1._mpf_, y2._mpf_
    return ([mul(w, mul(sub(y1, x, prec, rnd), sub(y2, x, prec, rnd), prec,
                        rnd), prec, rnd) for x, w in zip(xs, ws)],)


def _tensor(params: WeightParams, N: int, prec: PrecisionCtx, nodes: int,
            insert=None) -> QuadResult:
    """N-fold tensor integral at nodes and nodes // 2 per panel, the
    weights times (y1 - x)(y2 - x) for insert = (y1, y2); nodes < 2 leaves
    the coarser list empty and is refused."""
    if nodes < 2:
        raise UnsupportedParameters(f"nodes must be >= 2, got {nodes}")
    with workprec(prec, GUARD_BITS):
        def value_at(m):
            nodes = weighted_nodes(params, m)
            ws = nodes.raw_weights(*mp.mp._prec_rounding)
            return _vandermonde_sum(nodes.xs, _weights(nodes.xs, ws, insert),
                                    N)

        fine = value_at(nodes)
        err = abs(fine - value_at(nodes // 2))
    with workprec(prec):
        return QuadResult(+fine, +err)


def delta_by_quadrature(params: WeightParams, N: int, prec: PrecisionCtx,
                        nodes: int = LADDER[1]) -> QuadResult:
    """The N-fold squared-Vandermonde integral, N in {1, 2, 3}."""
    if N not in (1, 2, 3):
        raise UnsupportedParameters("delta_by_quadrature supports N in {1,2,3}")
    return _tensor(params, N, prec, nodes)


def dN_by_quadrature(params: WeightParams, N: int, y1, y2,
                     prec: PrecisionCtx, nodes: int = LADDER[1]) -> QuadResult:
    """Brute-force D_N(y1, y2) with two characteristic-polynomial insertions."""
    if N not in (1, 2):
        raise UnsupportedParameters("dN_by_quadrature supports N in {1,2}")
    with workprec(prec, GUARD_BITS):
        y1, y2 = to_mpf(y1), to_mpf(y2)
    if not (mp.isfinite(y1) and mp.isfinite(y2)):
        raise UnsupportedParameters(
            f"y1 and y2 must be finite, got {y1} and {y2}")
    return _tensor(params, N, prec, nodes, insert=(y1, y2))


@dataclass(frozen=True)
class FDResult:
    """Finite-difference estimate with a Richardson error estimate."""

    value: object
    error: object


def finite_difference(f, x0, h, order: int = 1) -> FDResult:
    """Order-4 central stencil for f' (order=1) or f'' (order=2).

    The error estimate is the Richardson comparison between spacings
    h and h/2; the returned value is the extrapolated one.
    """
    if order not in (1, 2):
        raise UnsupportedParameters("order must be 1 or 2")
    x0 = to_mpf(x0)
    h = to_mpf(h)

    def stencil(hh):
        f2p, fp = f(x0 + 2 * hh), f(x0 + hh)
        fm, f2m = f(x0 - hh), f(x0 - 2 * hh)
        if order == 1:
            return (-f2p + 8 * fp - 8 * fm + f2m) / (12 * hh)
        fc = f(x0)
        return (-f2p + 16 * fp - 30 * fc + 16 * fm - f2m) / (12 * hh * hh)

    d_h = stencil(h)
    d_h2 = stencil(h / 2)
    # order-4 stencils: Richardson factor 2^4
    value = (16 * d_h2 - d_h) / 15
    return FDResult(value=value, error=abs(d_h2 - d_h) / 15)


def gram_schmidt_recurrence(params: WeightParams, n_max: int,
                            prec: PrecisionCtx):
    """Recurrence data by the discretized Stieltjes procedure (Gautschi,
    Orthogonal Polynomials, OUP 2004, 2.2.3): at every node, at prec +
    GUARD_BITS, h_n = sum W P_n^2, b_n = sum W x P_n^2 / h_n, a_{n+1}^2 =
    h_{n+1}/h_n and P_{n+1} = (x - b_n) P_n - a_n^2 P_{n-1}, once per rung
    of LADDER, up to the first pair of rungs whose h_n and b_n agree to
    prec.tol relative to the finer (QuadratureFailure if none do).

    Returns RecurrenceTable's orthonormal view, lists indexed by n: 'a'
    (SingularHankel where a_n^2 <= 0), 'b', 'gamma' (None where h_n <= 0)
    and 'gamma1_ratio' (-sum_{k<n} b_k, P_n's x^(n-1) coefficient).
    """
    if n_max < 0:
        raise UnsupportedParameters(f"n_max must be >= 0, got {n_max}")
    tol = prec.tol_mpf()
    with workprec(prec, GUARD_BITS):
        def stieltjes(m):
            # h_n and sum W x P_n^2 as exact integer sums over the fixed
            # point columns, each rounded once, and P_{n+1} by monic_step
            prec, rnd = mp.mp._prec_rounding
            nodes = weighted_nodes(params, m)
            X, F, ws, e = nodes.X, nodes.F, nodes.ws, nodes.scale
            p_prev, p = [0] * len(X), [1 << F] * len(X)
            h, b = [], []
            for n in range(n_max + 1):
                wp2 = [w * v * v for w, v in zip(ws, p)]
                h.append(from_man_exp(sum(wp2), e - 2 * F, prec, rnd))
                b.append(mpf_div(from_man_exp(sum(map(mul, wp2, X)),
                                              e - 3 * F, prec, rnd),
                                 h[n], prec, rnd))
                if n < n_max:
                    a2 = mpf_div(h[n], h[n - 1], prec, rnd) if n else fzero
                    p_prev, p = p, monic_step(X, to_fixed(b[n], -F),
                                              to_fixed(a2, -F), p, p_prev, F)
            return [mp.make_mpf(v) for v in h], [mp.make_mpf(v) for v in b]

        coarse = stieltjes(LADDER[0])
        for m in LADDER[1:]:
            fine = stieltjes(m)
            if all(abs(f - c) <= tol * abs(f) for fs, cs in zip(fine, coarse)
                   for f, c in zip(fs, cs)):
                break
            coarse = fine
        else:
            raise QuadratureFailure(
                f"{LADDER[-1]}-node Stieltjes sums still differ at tol "
                f"{mp.nstr(tol, 5)}")
        h, b = fine
    with workprec(prec):
        a = [mp.mpf(0)]
        for n in range(1, n_max + 1):
            a2 = h[n] / h[n - 1]
            if not a2 > 0:
                raise SingularHankel(
                    f"a_{n}^2 = {mp.nstr(a2, 8)} is not positive")
            a.append(mp.sqrt(a2))
        return {"a": a, "b": [+v for v in b],
                "gamma": [1 / mp.sqrt(v) if v > 0 else None for v in h],
                "gamma1_ratio": [-mp.fsum(b[:n]) for n in range(n_max + 1)]}
