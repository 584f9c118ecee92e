"""Independent brute-force ground truth for the determinant pipeline.

Nothing here reuses the identity machinery it is meant to check: inner
products integrate polynomial values directly against the weight,
delta_by_quadrature evaluates the N-fold squared-Vandermonde integral by
tensor-product quadrature, dN_by_quadrature does the same with two
characteristic-polynomial insertions, Gram-Schmidt orthogonalization
rebuilds the recurrence coefficients without determinants, and
finite_difference supplies derivative oracles with Richardson error
estimates.  Results carry error estimates; assertions downstream compare
|value - reference| against estimate + tolerance.

The tensor integrals are mpf sums over the split Gauss node list of
quadrature.weighted_nodes at the caller's precision.  The value uses
`nodes` per panel (by default the second rung of quadrature.LADDER); its
error estimate is the difference from the sum at nodes // 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .errors import QuadratureFailure, UnsupportedParameters
from .hankel import RecurrenceTable, orthopoly_eval
from .moments import MomentTable, WeightParams, build_moment_table
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


def _vandermonde_sum(pts, N):
    """sum over N-tuples of nodes of prod W * prod_{i<j} (x_j - x_i)^2 / N!."""
    if N == 1:
        return mp.fsum(w for (_, w) in pts)
    if N == 2:
        return mp.fsum(w1 * mp.fdot((w2, (x2 - x1) ** 2) for (x2, w2) in pts)
                       for (x1, w1) in pts) / 2
    xs = [x for (x, _) in pts]
    ws = [w for (_, w) in pts]
    d2 = [[(xj - xi) ** 2 for xj in xs] for xi in xs]
    total = []
    for i, wi in enumerate(ws):
        # sum_{j,k} c_j (x_k - x_j)^2 c_k with c_j = W_j (x_j - x_i)^2
        col = [d * w for d, w in zip(d2[i], ws)]
        total.append(wi * mp.fdot(col, [mp.fdot(row, col) for row in d2]))
    return mp.fsum(total) / 6


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
                            prec: PrecisionCtx, moments: MomentTable = None):
    """Recurrence data by Gram-Schmidt on {1, x, ..., x^n_max}.

    Inner products reduce to quadrature moments (independent of the
    closed form); no determinant is formed.  Returns a dict with keys
    'a', 'b', 'gamma', 'gamma1_ratio' (lists indexed by n).
    """
    if moments is None:
        moments = build_moment_table(params, 2 * n_max + 1, prec,
                                     source="quadrature")
    if moments.k_max < 2 * n_max + 1:
        raise UnsupportedParameters("moment table too short for n_max")
    with workprec(prec):
        mu = [to_mpf(v) for v in moments.values]

        def dot(c1, c2):
            return mp.fsum(c1[i] * c2[j] * mu[i + j]
                           for i in range(len(c1)) for j in range(len(c2))
                           if c1[i] != 0 and c2[j] != 0)

        def shift(c):
            return [mp.mpf(0)] + list(c)

        basis = []          # orthonormal coefficient lists, degree n has n+1 coeffs
        a_list = [mp.mpf(0)]
        b_list = []
        gamma_list = []
        gamma1_list = [mp.mpf(0)]
        for n in range(n_max + 1):
            mono = [mp.mpf(0)] * n + [mp.mpf(1)]
            work = list(mono)
            for q in basis:
                c = dot(mono, q)
                for i in range(len(q)):
                    work[i] -= c * q[i]
            nrm2 = dot(work, work)
            if not nrm2 > 0:
                raise QuadratureFailure(
                    f"Gram-Schmidt norm^2 <= 0 at degree {n}; weight not "
                    "positive definite or quadrature too coarse")
            nrm = mp.sqrt(nrm2)
            q = [c / nrm for c in work]
            basis.append(q)
            gamma_list.append(q[n])
            if n >= 1:
                gamma1_list.append(q[n - 1] / q[n])
                a_list.append(dot(shift(basis[n - 1]), q))
                b_list.append(dot(shift(basis[n - 1]), basis[n - 1]))
        b_list.append(dot(shift(basis[n_max]), basis[n_max]))
        return {
            "a": a_list, "b": b_list, "gamma": gamma_list,
            "gamma1_ratio": gamma1_list,
        }
