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
integrate_weighted's, and run on the lists' integers (kernels.py): the
nodes X_i at 2^-F and the weights at the list's scale.  Each h_n and
sum W x P_n^2 is one exact integer sum, rounded once, and so is each
tensor value: a D_N point converts to 2^-F (a complex one to two
integers), the insertion (y1 - x)(y2 - x) multiplies into the weights
exactly, and the sum over N-tuples is an exact integer, rounded to an mpf
(or the two parts of an mpc) once, at N = 3 by one division by 3.  A
tensor value uses `nodes` per panel (by default the second rung of
quadrature.LADDER); its error estimate is the difference from the sum at
nodes // 2.  Over an m-node list the sum collapses its innermost pair
exactly, sum_{j,k} c_j c_k (x_k - x_j)^2 / 2 = s0 s2 - s1^2 with s_p =
sum_j c_j (x_j - x0)^p, so N = 2 costs O(m) and N = 3 costs O(m^2); it is
an identity of finite sums, not a moment table or a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import mpmath as mp
from mpmath.libmp import from_int, from_man_exp, fzero, mpf_div

from .errors import QuadratureFailure, SingularHankel, UnsupportedParameters
from .hankel import RecurrenceTable, _gamma, check_degree
from .kernels import Column, monic_columns, monic_step, scaled, to_fixed
from .moments import MomentTable, WeightParams
from .precision import PrecisionCtx, finite, to_mpf, workprec
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


def _spread(X, parts, x0, lift):
    """The pair sum sum_{j,k} c_j c_k (x_k - x_j)^2 / 2 = s0 s2 - s1^2, for
    c_j = W_j (x_j - x0)^lift and s_p = sum_j c_j (x_j - x0)^p, exact on
    integers: the nodes X and x0 at 2^-F, and parts the W_j's integer
    column, or for complex weights its real and its imaginary column.
    Three O(m) sums per part; a pair (real, imaginary) for two parts."""
    ds = [x - x0 for x in X]
    d2 = [d * d for d in ds]
    sums = []
    for ws in parts:
        cs = [w * e for w, e in zip(ws, d2)] if lift else ws
        sums.append((sum(cs), sum(map(mul, cs, ds)), sum(map(mul, cs, d2))))
    if len(sums) == 1:
        (s0, s1, s2), = sums
        return (s0 * s2 - s1 * s1,)
    (a0, a1, a2), (b0, b1, b2) = sums
    return (a0 * a2 - b0 * b2 - a1 * a1 + b1 * b1,
            a0 * b2 + b0 * a2 - 2 * a1 * b1)


def _vandermonde_sum(X, F, parts, e, N):
    """sum over N-tuples of nodes of prod W * prod_{i<j} (x_j - x_i)^2 / N!,
    for nodes X at 2^-F and weights W_j = parts[.][j] 2^e (as _spread takes
    them), exact on integers and rounded once: an mpf, or an mpc for two
    parts.

    The innermost pair sum collapses exactly (_spread), so no tuple loop
    and no moment or determinant is formed: N = 2 is one O(m) pass, and
    N = 3 is (1/3) sum_i W_i (s0 s2 - s1^2) with c_j = W_j (x_j - x_i)^2
    centred at x_i, O(m) per i and O(m^2) in all.
    """
    prec, rnd = mp.mp._prec_rounding
    if N == 1:
        sums = [sum(ws) for ws in parts]
    elif N == 2:
        sums, e = _spread(X, parts, 0, 0), 2 * (e - F)
    else:
        ws, = parts
        S = sum(w * _spread(X, parts, x, 2)[0] for x, w in zip(X, ws))
        return mp.make_mpf(mpf_div(from_man_exp(S, 3 * e - 6 * F),
                                   from_int(3), prec, rnd))
    parts = [from_man_exp(s, e, prec, rnd) for s in sums]
    return mp.make_mpf(parts[0]) if len(parts) == 1 else mp.make_mpc(parts)


def _weights(nodes, insert):
    """(parts, e): a node list's weights as _vandermonde_sum takes them,
    each times (y1 - x)(y2 - x) for insert = (y1, y2), exactly, with y1
    and y2 at 2^-F (kernels.to_fixed).  A complex y makes two columns,
    the real and the imaginary parts of the products."""
    if insert is None:
        return (nodes.ws,), nodes.scale
    F, ws, X = nodes.F, nodes.ws, nodes.X
    (a1, b1), (a2, b2) = ([to_fixed(p._mpf_, -F) for p in (y.real, y.imag)]
                          for y in insert)
    e = nodes.scale - 2 * F
    re = [w * ((a1 - x) * (a2 - x) - b1 * b2) for w, x in zip(ws, X)]
    if not any(isinstance(y, mp.mpc) for y in insert):
        return (re,), e
    return (re, [w * ((a1 - x) * b2 + b1 * (a2 - x))
                 for w, x in zip(ws, X)]), e


def _tensor(params: WeightParams, N: int, prec: PrecisionCtx, nodes: int,
            insert=None) -> QuadResult:
    """N-fold tensor integral at nodes and nodes // 2 per panel, the
    weights times (y1 - x)(y2 - x) for insert = (y1, y2); a nodes that is
    not an integer, or nodes < 2, which leaves the coarser list empty, is
    refused."""
    if not isinstance(nodes, int):
        raise UnsupportedParameters(
            f"nodes must be an integer, got nodes = {nodes!r}")
    if nodes < 2:
        raise UnsupportedParameters(f"nodes must be >= 2, got {nodes}")
    with workprec(prec, GUARD_BITS):
        def value_at(m):
            nodes = weighted_nodes(params, m)
            parts, e = _weights(nodes, insert)
            return _vandermonde_sum(nodes.X, nodes.F, parts, e, N)

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
    h and h/2; the returned value is the extrapolated one.  A nan or
    infinite x0 or h, or h = 0, is refused by name.
    """
    if order not in (1, 2):
        raise UnsupportedParameters("order must be 1 or 2")
    x0, h = finite(x0=x0, h=h)
    if not h:
        raise UnsupportedParameters("h must be nonzero, got h = 0")

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
