"""Hankel determinants, monic recurrence data, and polynomial evaluation.

From a moment table this module builds

    Delta_n = det[mu_{j+k-2}]_{j,k=1..n}          (Delta_0 = 1),
    sigma_n = same matrix with the last column advanced one moment index,

and from their ratios the data of the monic orthogonal polynomials P_n

    h_n    = Delta_{n+1}/Delta_n = <P_n, P_n>,
    a_n^2  = h_n/h_{n-1} = Delta_{n-1} Delta_{n+1} / Delta_n^2,
    b_n    = sigma_{n+1}/Delta_{n+1} - sigma_n/Delta_n,
    P_n(x) = x^n - (sigma_n/Delta_n) x^{n-1} + ...,

with semiclassical's auxiliaries theta_n = b_n - (2n + 1 + alpha + mu) - t
and kappa_n = (n + mu/2) t + a_n^2 - sigma_n/Delta_n: recurrence_data is
the one copy of this map, for numbers and for jets.

The shifted-determinant route for b_n avoids differentiating determinants
and stays exact in the classical limit.  One bordered elimination gives
them all: unpivoted Gaussian elimination of the n x (n+1) array
[mu_{i+j}] (the Hankel matrix of order n bordered by the column
mu_{i+n}) leaves the pivot Delta_{k+1}/Delta_k and, beside it,
sigma_{k+1}/Delta_k after step k, so one O(n^3) pass yields every
Delta_m and sigma_m, on numbers and on jets alike.  Hankel matrices of
these moments are ill-conditioned, so every minor of numbers is
eliminated at one width, GUARD_BITS above the caller's, from moments
rebuilt there, which must round to the caller's own (bit for bit for the
closed form, within 10 tol for quadrature; CrossCheckError otherwise); the
jets of painleve.aux_pair_series use the same guard.  A RecurrenceTable
maps its wide minors at that width and rounds the results once.
Each minor's loss is measured, not bounded: the caller's own moments are
eliminated at the caller's width too, and the digits by which that
shadow pass and the wide one disagree are the digits the elimination
loses.  The wide values lose as many, so their relative error is about
10^(loss - digits) 2^-GUARD_BITS, and PrecisionExhausted is raised,
naming the minor, only where that exceeds the context's tol (at 256 bits
and tol 1e-30, for t within ~1e-70 of a zero of Delta_m(t)).  On a
200-table panel of the documented domain (n <= 10, t <= 5) the loss
stays below 11 digits.

Polynomial evaluation is the monic recurrence
P_{m+1} = (x - b_m) P_m - a_m^2 P_{m-1} (monic_values), with no square
root, so signed weights (a_m^2 < 0) need no special case; dN_kernel is
the two-point Christoffel-Darboux evaluation of the characteristic-
polynomial average D_N.

The second solution E_n(x) = int P_n(s) w(s)/(x-s) ds off the support and
its x-derivative come from cauchy_sweep, one climb of the node ladder for
E_0..E_n and E_0'..E_n'.  Every Cauchy-kernel integral of a table,
stieltjes_eval's included, is widened by the table's degree bound
N = n_max + 1 rather than by its own n, so all of them run at one width
and share weighted_nodes' lists.  The latest sweep is kept in a one-entry
memo keyed by (table, typed x, prec); cauchy_transform, epsilon_eval and
epsilon_derivative_eval are views of it.  A component is the same to the
last bit whichever sweep computed it, and the entry is replaced in one
assignment, so a race only sweeps twice.  The orthonormal p_n = gamma_n P_n,
gamma_n = h_n^(-1/2), remain as a view (RecurrenceTable.a and .gamma,
orthopoly_eval, epsilon_eval, epsilon_derivative_eval) holding the
package's only square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import mpmath as mp

from .errors import (CrossCheckError, PrecisionExhausted, SingularHankel,
                     UnsupportedParameters)
from .kernels import Column, column_exp, monic_columns, times, to_fixed
from .moments import (MomentTable, TruncSeries, WeightParams,
                      build_moment_table)
from .precision import PrecisionCtx, to_mpf, workprec
from .quadrature import QuadResults, integrate_weighted

GUARD_BITS = 60     # every Hankel minor is eliminated this far above prec


def hankel_minors(mk, n: int):
    """Every Delta_m and sigma_m, m <= n, from one bordered elimination.

    mk[k] holds mu_k for k <= 2n - 1, as numbers or as TruncSeries jets.
    Unpivoted elimination of the n x (n+1) array [mu_{i+j}] leaves, at
    step k, the pivot Delta_{k+1}/Delta_k and its right neighbour
    sigma_{k+1}/Delta_k (Schur complements of the leading block).  The
    square part stays symmetric, so only its upper triangle is updated.
    Returns the lists (Delta_0..Delta_n, sigma_0..sigma_n); raises
    SingularHankel at a zero pivot (a zero constant term for jets).
    """
    zero = 0 * mk[0]
    delta, sigma = [zero + 1], [zero]
    rows = [[mk[i + j] for j in range(n + 1)] for i in range(n)]
    for k, row in enumerate(rows):
        piv = row[k]
        if (piv.c[0] if isinstance(piv, TruncSeries) else piv) == 0:
            raise SingularHankel(f"Delta_{k + 1} vanishes to working precision")
        delta.append(delta[k] * piv)
        sigma.append(delta[k] * row[k + 1])
        for r in range(k + 1, n):
            f = row[r] / piv
            below = rows[r]
            for c in range(r, n + 1):
                below[c] = below[c] - f * row[c]
    return delta, sigma


def _digits_lost(shadow, wide, digits: int) -> float:
    """Digits of the digits-wide shadow that disagree with wide, >= 0."""
    if shadow == wide:
        return 0.0
    if wide == 0:
        return math.inf
    with mp.workprec(53):
        man, exp = (abs(shadow - wide) / abs(wide)).man_exp
    return max(digits + math.log10(man) + exp * math.log10(2), 0.0)


def _check_rebuild(moments: MomentTable, mom: MomentTable,
                   prec: PrecisionCtx):
    """Raise CrossCheckError unless mom, rebuilt wider from moments.params,
    is the caller's table: rounded to the narrower of the two widths,
    closed-form moments agree bit for bit, quadrature ones within 10 tol
    (as in build_moment_table's cross-check)."""
    bits = min(prec.significand_bits, moments.prec.significand_bits)
    with mp.workprec(bits):
        tol = 10 * max(prec.tol_mpf(), moments.prec.tol_mpf())
        for k, (mine, theirs) in enumerate(zip(mom.values, moments.values)):
            mine, theirs = +mine, +theirs
            if (mine != theirs if moments.source == "closed_form"
                    else abs(mine - theirs) > tol * max(abs(mine), 1)):
                raise CrossCheckError(
                    f"mu_{k} = {mp.nstr(theirs, 25)} is not the "
                    f"{moments.source} moment {mp.nstr(mine, 25)} of the "
                    "table's parameters")


def _minors(moments: MomentTable, n: int, k_top: int, prec: PrecisionCtx,
            checked):
    """Delta_m and sigma_m, m <= n, eliminated at prec + GUARD_BITS.

    The caller's moments mu_0..mu_k_top are eliminated at prec (the shadow
    pass; a zero pivot raises SingularHankel), then rebuilt from
    moments.params and moments.source at the wider width and eliminated
    again.  Moments past k_top border sigma_n alone and are taken as 0.
    Returns the wide (Delta, sigma) and [(loss Delta_m, loss sigma_m)];
    raises CrossCheckError when the rebuilt moments are not the caller's
    (_check_rebuild), and PrecisionExhausted when the estimated error of a
    checked minor, ("Delta" | "sigma", m), exceeds prec.tol.
    """
    pad = [0] * (2 * n - 1 - k_top)
    with workprec(prec):
        shadow = hankel_minors(list(moments.values[:k_top + 1]) + pad, n)
    wide = prec.scaled(prec.significand_bits + GUARD_BITS)
    mom = build_moment_table(moments.params, k_top, wide, moments.source,
                             cross_check=False)
    _check_rebuild(moments, mom, prec)
    with workprec(wide):
        delta, sigma = hankel_minors(list(mom.values) + pad, n)
    digits = prec.decimal_digits
    lost = [(_digits_lost(shadow[0][m], delta[m], digits),
             _digits_lost(shadow[1][m], sigma[m], digits))
            for m in range(n + 1)]
    with mp.workprec(53):
        log_tol = float(mp.log10(prec.tol_mpf()))
    for name, m in checked:
        loss = lost[m][name == "sigma"]
        log_err = loss - digits - GUARD_BITS * math.log10(2)
        if log_err > log_tol:
            raise PrecisionExhausted(
                f"{name}_{m}: {loss:.0f} of {digits} digits cancel at "
                f"{prec.significand_bits} bits, leaving a relative error of "
                f"~1e{log_err:.0f} at {wide.significand_bits} bits "
                f"(tol {prec.tol}); raise significand_bits")
    return delta, sigma, lost


def _one_minor(moments: MomentTable, N: int, prec: PrecisionCtx,
               shifted: bool):
    """Delta_N (or sigma_N) from _minors, rounded to prec."""
    name = "sigma" if shifted else "Delta"
    if N < 0:
        raise UnsupportedParameters("N must be >= 0")
    need = 2 * N - 1 if shifted else 2 * N - 2
    if moments.k_max < need:
        raise UnsupportedParameters(f"N={N} needs moments up to mu_{need}")
    delta, sigma, _ = _minors(moments, N, need, prec, [(name, N)])
    with workprec(prec):
        return +(sigma if shifted else delta)[N]


def hankel_determinant(moments: MomentTable, N: int, prec: PrecisionCtx = None):
    """Delta_N = det[mu_{j+k-2}]_{j,k=1..N}; Delta_0 := 1.

    Raises PrecisionExhausted when the measured loss (see _minors) leaves
    a relative error above prec.tol.
    """
    if N == 0:
        return mp.mpf(1)
    return _one_minor(moments, N, prec or moments.prec, shifted=False)


def shifted_hankel_determinant(moments: MomentTable, N: int,
                               prec: PrecisionCtx = None):
    """sigma_N: last column advanced one index (mu_{i+N} in place of mu_{i+N-1}).

    sigma_0 := 0; sigma_N/Delta_N is the root sum of the degree-N monic
    orthogonal polynomial.
    """
    if N == 0:
        return mp.mpf(0)
    return _one_minor(moments, N, prec or moments.prec, shifted=True)


def recurrence_data(delta, sigma, t, params: WeightParams):
    """(a_n^2, b_n, theta_n, kappa_n) lists, n <= len(delta) - 2, from
    Delta_m and sigma_m (module docstring); a_0^2 = 0.

    Plain arithmetic at the caller's precision, so the minors and t may be
    numbers or TruncSeries jets in t.
    """
    al, m = to_mpf(params.alpha), to_mpf(params.mu)
    n_max = len(delta) - 2
    root_sum = [s / d for s, d in zip(sigma, delta)]
    b = [root_sum[i + 1] - root_sum[i] for i in range(n_max + 1)]
    a2 = [0 * delta[0]] + [delta[i - 1] * delta[i + 1] / (delta[i] * delta[i])
                           for i in range(1, n_max + 1)]
    theta = [b[i] - (2 * i + 1 + al + m) - t for i in range(n_max + 1)]
    kappa = [(i + m / 2) * t + a2[i] - root_sum[i] for i in range(n_max + 1)]
    return a2, b, theta, kappa


@dataclass(frozen=True)
class RecurrenceTable:
    """Monic recurrence data Delta, sigma, a_n^2, b_n and the auxiliaries
    theta_n, kappa_n up to n_max.

    bits is the width every minor was eliminated at (prec + GUARD_BITS)
    and digits_lost[m] the (Delta_m, sigma_m) decimal digits the
    elimination measurably loses at prec, so each wide minor's relative
    error is about 10^(lost - prec.decimal_digits) 2^-GUARD_BITS, at most
    prec.tol (the builder raises otherwise); the stored values are mapped
    from the wide minors (recurrence_data) and rounded to prec once.
    """

    params: WeightParams
    n_max: int
    delta: Sequence      # Delta_0 .. Delta_{n_max+1}
    sigma: Sequence      # sigma_0 .. sigma_{n_max+1}
    a2: Sequence         # a2[n] = a_n^2, index 0 unused (a_0 := 0)
    b: Sequence          # b_0 .. b_{n_max}
    theta: Sequence      # theta_0 .. theta_{n_max}
    kappa: Sequence      # kappa_0 .. kappa_{n_max}
    prec: PrecisionCtx
    bits: int
    digits_lost: Sequence   # (Delta_m, sigma_m) measured loss, m <= n_max + 1

    def h(self, m: int):
        """h_m = Delta_{m+1}/Delta_m = <P_m, P_m>, negative if w is signed."""
        with workprec(self.prec):
            return self.delta[m + 1] / self.delta[m]

    def a(self, n: int):
        """a_n = sqrt(a_n^2) > 0 (orthonormal view); raises if a_n^2 <= 0."""
        if n and not self.a2[n] > 0:
            raise SingularHankel(
                f"a_{n}^2 = {mp.nstr(self.a2[n], 8)} is not positive")
        with workprec(self.prec):
            return mp.sqrt(self.a2[n])

    @cached_property
    def gamma(self):
        """gamma_n = h_n^(-1/2), n <= n_max, None where h_n <= 0 (view)."""
        with workprec(self.prec):
            return tuple(1 / mp.sqrt(h) if h > 0 else None
                         for h in map(self.h, range(self.n_max + 1)))


def recurrence_coefficients(moments: MomentTable, n_max: int,
                            prec: PrecisionCtx = None) -> RecurrenceTable:
    """Build the RecurrenceTable for n <= n_max.

    Needs moments up to index 2*n_max + 1.  Every minor comes from _minors
    at prec + GUARD_BITS bits, with its loss measured against the caller's
    moments at prec; raises SingularHankel on a zero pivot,
    PrecisionExhausted when a minor's estimated relative error exceeds
    prec.tol, and CrossCheckError if positivity fails where the weight is
    positive (even alpha, zeta < 1).
    """
    prec = prec or moments.prec
    if moments.k_max < 2 * n_max + 1:
        raise UnsupportedParameters(f"needs moments up to mu_{2 * n_max + 1}")
    delta, sigma, lost = _minors(
        moments, n_max + 1, 2 * n_max + 1, prec,
        [(name, m) for m in range(1, n_max + 2)
         for name in ("Delta", "sigma")])
    with workprec(prec, GUARD_BITS):
        a2, b, theta, kappa = recurrence_data(
            delta, sigma, to_mpf(moments.params.t), moments.params)
        if moments.params.weight_positive:
            for n in range(1, n_max + 1):
                if not a2[n] > 0:
                    raise CrossCheckError(
                        f"a_{n}^2 <= 0 for a positive weight (conditioning?)")

    def rounded(values):
        return tuple(+v for v in values)

    with workprec(prec):
        return RecurrenceTable(
            params=moments.params, n_max=n_max,
            delta=rounded(delta), sigma=rounded(sigma), a2=rounded(a2),
            b=rounded(b), theta=rounded(theta), kappa=rounded(kappa),
            prec=prec, bits=prec.significand_bits + GUARD_BITS,
            digits_lost=tuple(lost))


def monic_values(data, n: int, x) -> list:
    """[P_0(x), ..., P_n(x)] by P_{m+1} = (x - b_m) P_m - a_m^2 P_{m-1}.

    data is a RecurrenceTable or a painleve.JetTable (jets in t); n may
    reach its n_max + 1 (check_degree).  Plain arithmetic at the caller's
    precision, so x may be a number (an mpc too, with a RecurrenceTable)
    or a TruncSeries, whose coefficients are real: an order-1 x-jet
    TruncSeries([x, 1]) at a real x carries every P_m'(x) in its c[1].  A
    number x that is nan or infinite is refused.
    """
    check_degree(n, data.n_max + 1)
    if not isinstance(x, TruncSeries) and not mp.isfinite(x):
        raise UnsupportedParameters(f"x must be finite, got x = {x}")
    cur, prev = (x - data.b[0]) * 0 + 1, 0
    out = [cur]
    for m in range(n):
        cur, prev = (x - data.b[m]) * cur - data.a2[m] * prev, cur
        out.append(cur)
    return out


@dataclass(frozen=True)
class PolyEval:
    """p_n and p_{n-1} at one point (orthonormal view)."""

    n: int
    x: object
    value_n: object
    value_nm1: object


def check_degree(n: int, top: int, name: str = "n"):
    """Refuse a degree outside 0..top by name, before any work: top is
    n_max + 1 where only P_n is read, n_max where gamma_n or h_n is."""
    if not 0 <= n <= top:
        raise UnsupportedParameters(f"{name}={n} is outside 0..{top}")


def _gamma(table: RecurrenceTable, n: int):
    """gamma_n of the orthonormal view; raises where h_n <= 0."""
    if table.gamma[n] is None:
        raise SingularHankel(f"gamma_{n} is not real (h_{n} <= 0)")
    return table.gamma[n]


def orthopoly_eval(table: RecurrenceTable, n: int, x) -> PolyEval:
    """(p_n, p_{n-1}) at x: gamma_n P_n and gamma_{n-1} P_{n-1} (orthonormal
    view of monic_values); raises SingularHankel where h_n or h_{n-1} <= 0."""
    check_degree(n, table.n_max)
    with workprec(table.prec):
        x = to_mpf(x)
        P = monic_values(table, n, x)
        prev = _gamma(table, n - 1) * P[n - 1] if n else mp.mpf(0)
        return PolyEval(n=n, x=x, value_n=_gamma(table, n) * P[n],
                        value_nm1=prev)


def _cancel_digits(N: int, x) -> int:
    """Digits to widen a Cauchy-kernel integral by, for degree bound N.

    E_k ~ x^{-k-1}: far from the support the O(1/x) node masses cancel
    down by k + 1 orders in |x| (k + 2 for E_k'), and k + 2 <= N + 2 for
    every E_k and E_k' of a table with n_max + 1 = N, so all of them run
    at one width and share one node list per rung.
    """
    return int((N + 2) * mp.log10(1 + abs(x))) + 10


def _off_support(x, message):
    """x at the working precision, refused with message on [0, inf) and
    refused as not finite (nan or inf in either part), before any work:
    _cancel_digits cannot size such a point."""
    x = to_mpf(x)
    if not mp.isfinite(x):
        raise UnsupportedParameters(f"x must be finite, got x = {x}")
    if mp.im(x) == 0 and mp.re(x) >= 0:
        raise UnsupportedParameters(message)
    return x


def _inverse_distances(x, nodes):
    """The Column 1/(x - s) over a node list, each value one floor
    division of integers at 2^-F, at the scale of its largest value (the
    nearest node's).  A complex x gives two integer columns, (u - s - iv)
    / ((u - s)^2 + v^2)."""
    F = nodes.F
    if type(x) is mp.mpf:
        S = to_fixed(x._mpf_, -F)
        D = [S - s for s in nodes.X]
        e = column_exp(F + 1 - min(map(abs, D)).bit_length(), F)
        c = 1 << F - e
        return Column([c // d for d in D], e)
    U, V = (to_fixed(v._mpf_, -F) for v in (x.real, x.imag))
    R = [U - s for s in nodes.X]
    den = [r * r + V * V for r in R]
    e = column_exp(F - (min(den).bit_length() - 1) // 2, F)
    c = F - e
    return Column([(r << c) // d for r, d in zip(R, den)], e,
                  [(-V << c) // d for d in den])


def _neg_squares(k, F):
    """The Column -k^2 of a Column k, at twice its scale plus F."""
    if k.im is None:
        return Column([-(v * v) >> F for v in k.re], 2 * k.exp + F)
    return Column([(b * b - a * a) >> F for a, b in zip(k.re, k.im)],
                  2 * k.exp + F, [-(2 * a * b) >> F
                                  for a, b in zip(k.re, k.im)])


_SWEEP: dict = {}   # {"latest": ((table, typed x, prec), (E, dE))}


def cauchy_sweep(table: RecurrenceTable, n: int, x, prec: PrecisionCtx = None):
    """E_0..E_n(x) and E_0'..E_n'(x) from one climb of the node ladder.

    One column integrand on integers: P_0..P_n from kernels.monic_columns
    over the nodes, which are real, times the kernel columns 1/(x - s) and
    -1/(x - s)^2, two integer columns each at a complex x.  Returns the
    pair of QuadResults (E, dE), E[k] for E_k and dE[k] for E_k'; a component
    whose sums never agreed raises QuadratureFailure when it is read.

    The latest sweep is kept (module docstring), keyed by (table, typed x,
    prec) since an mpc x is another integrand than an equal mpf; it serves
    every n it reaches, and a higher n sweeps again.
    """
    check_degree(n, table.n_max + 1)
    prec = prec or table.prec
    with workprec(prec, 20):
        x = _off_support(x, "the Cauchy transform requires x < 0 or a "
                            "complex x off [0, inf)")
        key = (table, (type(x), x), prec)
        latest = _SWEEP.get("latest")
        if latest is not None and latest[0] == key and len(latest[1][0]) > n:
            return latest[1]

        def fn(nodes):
            F = nodes.F
            P = monic_columns(table.b, table.a2, n, nodes.X, F)
            inv = _inverse_distances(x, nodes)
            return [times(p, k, F) for k in (inv, _neg_squares(inv, F))
                    for p in P]

        res = integrate_weighted(
            fn, table.params, prec, pole=x,
            extra_digits=_cancel_digits(table.n_max + 1, x)).items
        hit = QuadResults(res[:n + 1]), QuadResults(res[n + 1:])
    _SWEEP["latest"] = key, hit
    return hit


def cauchy_transform(table: RecurrenceTable, n: int, x,
                     prec: PrecisionCtx = None, derivative: bool = False):
    """E_n(x) = int_0^inf P_n(s) w(s)/(x - s) ds, x off the support; with
    derivative, E_n'(x) = -int P_n(s) w(s)/(x - s)^2 ds.

    x must be real negative or carry a nonzero imaginary part; on-support
    principal values are out of contract.  A view of cauchy_sweep, so the
    E_k and E_k' of one (table, x, prec) come from one climb, at the width
    that the table's degree bound n_max + 1 sets (_cancel_digits), and
    through its one-entry memo.
    """
    E, dE = cauchy_sweep(table, n, x, prec)
    return (dE if derivative else E)[n].value


def epsilon_eval(table: RecurrenceTable, moments: MomentTable, n: int, x,
                 prec: PrecisionCtx = None):
    """eps_n(x) = int p_n(s) w(s)/(x - s) ds = gamma_n E_n(x)."""
    check_degree(n, table.n_max)
    g = _gamma(table, n)
    with workprec(prec or table.prec):
        return g * cauchy_transform(table, n, x, prec)


def epsilon_derivative_eval(table: RecurrenceTable, moments: MomentTable,
                            n: int, x, prec: PrecisionCtx = None):
    """eps_n'(x) = gamma_n E_n'(x), same domain as epsilon_eval."""
    check_degree(n, table.n_max)
    g = _gamma(table, n)
    with workprec(prec or table.prec):
        return g * cauchy_transform(table, n, x, prec, derivative=True)


def stieltjes_eval(moments: MomentTable, x, prec: PrecisionCtx = None):
    """Stieltjes transform f(x) = int w(s)/(x - s) ds, x off the support.

    Runs at the width of a recurrence table built on these moments, whose
    degree bound is (k_max + 1) // 2, so it shares that table's node lists.
    """
    prec = prec or moments.prec
    with workprec(prec, 20):
        x = _off_support(x, "stieltjes_eval requires x off [0, inf)")
        cancel = _cancel_digits((moments.k_max + 1) // 2, x)
        def fn(nodes):
            return (_inverse_distances(x, nodes),)

        res = integrate_weighted(fn, moments.params, prec,
                                 extra_digits=cancel, pole=x)
    return res[0].value


def dN_kernel(table: RecurrenceTable, N: int, y1, y2):
    """Christoffel-Darboux evaluation of the two-point average D_N(y1, y2),

    D_N = Delta_{N+1} sum_{k<=N} P_k(y1) P_k(y2) / h_k
        = Delta_N (P_{N+1}(y1) P_N(y2) - P_N(y1) P_{N+1}(y2)) / (y1 - y2),

    whose sum form needs no confluent case.  Needs 0 <= N <= n_max - 1."""
    check_degree(N, table.n_max - 1, "N")
    with workprec(table.prec):
        P1 = monic_values(table, N, to_mpf(y1))
        P2 = monic_values(table, N, to_mpf(y2))
        return table.delta[N + 1] * mp.fsum(P1[k] * P2[k] / table.h(k)
                                            for k in range(N + 1))


def table_for(params: WeightParams, n_max: int, prec: PrecisionCtx,
              source: str = "closed_form", cross_check: bool = True):
    """Moment table plus recurrence table sized for work up to n_max."""
    moments = build_moment_table(params, 2 * n_max + 1, prec, source,
                                 cross_check=cross_check)
    return moments, recurrence_coefficients(moments, n_max, prec)
