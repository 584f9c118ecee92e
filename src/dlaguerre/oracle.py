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

Tensor integrals and Stieltjes sums are mpf sums over the split Gauss node
lists of quadrature.weighted_nodes at prec + GUARD_BITS, as
integrate_weighted's.  A tensor value uses `nodes` per panel (by default
the second rung of quadrature.LADDER); its error estimate is the
difference from the sum at nodes // 2.  Over an m-node list the sum
collapses its innermost pair exactly, sum_{j,k} c_j c_k (x_k - x_j)^2 / 2
= s0 s2 - s1^2 with s_p = sum_j c_j (x_j - x0)^p, so N = 2 costs O(m) and
N = 3 costs O(m^2); it is an identity of finite sums, not a moment table
or a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .errors import QuadratureFailure, SingularHankel, UnsupportedParameters
from .hankel import RecurrenceTable, orthopoly_eval
from .moments import MomentTable, WeightParams
from .precision import PrecisionCtx, to_mpf, workprec
from .quadrature import (GUARD_BITS, LADDER, QuadResult, integrate_weighted,
                         weighted_nodes)


def inner_product(index_pair, table: RecurrenceTable, moments: MomentTable,
                  prec: PrecisionCtx = None):
    """<p_i, p_j> by direct quadrature against the weight."""
    prec = prec or table.prec
    i, j = index_pair
    if max(i, j) > table.n_max:
        raise UnsupportedParameters("polynomial degree exceeds table n_max")
    with workprec(prec, 20):
        def fn(s):
            pi = orthopoly_eval(table, i, s).value_n
            return (pi * pi if j == i
                    else pi * orthopoly_eval(table, j, s).value_n,)

        return integrate_weighted(fn, table.params, prec,
                                  rel_scale=(1,))[0].value


def _spread(xs, ws, x0, lift):
    """The pair sum sum_{j,k} c_j c_k (x_k - x_j)^2 / 2 = s0 s2 - s1^2, for
    c_j = W_j (x_j - x0)^lift and s_p = sum_j c_j (x_j - x0)^p: three O(m)
    sums."""
    ds = [x - x0 for x in xs]
    d2 = [d * d for d in ds]
    cs = [w * e for w, e in zip(ws, d2)] if lift else ws
    s0, s1, s2 = mp.fsum(cs), mp.fdot(cs, ds), mp.fdot(cs, d2)
    return s0 * s2 - s1 * s1


def _vandermonde_sum(pts, N):
    """sum over N-tuples of nodes of prod W * prod_{i<j} (x_j - x_i)^2 / N!.

    The innermost pair sum collapses exactly (_spread), so no tuple loop
    and no moment or determinant is formed: N = 2 is one O(m) pass centred
    at the heaviest node, and N = 3 is (1/3) sum_i W_i (s0 s2 - s1^2) with
    c_j = W_j (x_j - x_i)^2 centred at x_i, O(m) per i and O(m^2) in all.
    """
    xs, ws = zip(*pts)
    if N == 1:
        return mp.fsum(ws)
    if N == 2:
        return _spread(xs, ws, max(pts, key=lambda p: abs(p[1]))[0], 0)
    return mp.fsum(w * _spread(xs, ws, x, 2) for x, w in pts) / 3


def _tensor(params: WeightParams, N: int, prec: PrecisionCtx, nodes: int,
            insert=None) -> QuadResult:
    """N-fold tensor integral at nodes and nodes // 2 per panel."""
    with workprec(prec, GUARD_BITS):
        def value_at(m):
            pts = weighted_nodes(params, m)
            if insert is not None:
                pts = [(x, w * insert(x)) for (x, w) in pts]
            return _vandermonde_sum(pts, N)

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
    return _tensor(params, N, prec, nodes,
                   insert=lambda x: (y1 - x) * (y2 - x))


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
    tol = prec.tol_mpf()
    with workprec(prec, GUARD_BITS):
        def stieltjes(m):
            xs, ws = zip(*weighted_nodes(params, m))
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
