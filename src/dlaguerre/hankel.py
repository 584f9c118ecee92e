"""Hankel determinants, recurrence coefficients, and polynomial evaluation.

From a moment table this module builds

    Delta_n = det[mu_{j+k-2}]_{j,k=1..n}          (Delta_0 = 1),
    sigma_n = same matrix with the last column advanced one moment index,

and from their ratios the orthonormal-polynomial data

    a_n^2  = Delta_{n-1} Delta_{n+1} / Delta_n^2,
    b_n    = sigma_{n+1}/Delta_{n+1} - sigma_n/Delta_n,
    gamma_n = sqrt(Delta_n / Delta_{n+1}),
    gamma_{n,1}/gamma_n = -sigma_n/Delta_n  (sum of recurrence roots).

The shifted-determinant route for b_n avoids differentiating determinants
and stays exact in the classical limit.  One bordered elimination gives
them all: unpivoted Gaussian elimination of the n x (n+1) array
[mu_{i+j}] (the Hankel matrix of order n bordered by the column
mu_{i+n}) leaves the pivot Delta_{k+1}/Delta_k and, beside it,
sigma_{k+1}/Delta_k after step k, so one O(n^3) pass yields every
Delta_m and sigma_m, on numbers and on jets alike.  Hankel matrices of
these moments are exponentially ill-conditioned in n, so each minor
carries a cancellation estimate (Hadamard bound over |det|, from running
row norms at 53 bits) and the table builder escalates the working
precision until enough digits survive.

Polynomial evaluation is the forward three-term recurrence
a_{n+1} p_{n+1} = (x - b_n) p_n - a_n p_{n-1}, seeded by p_0 = gamma_0;
epsilon_eval computes the second (Cauchy-transform) solution
eps_n(x) = int p_n(s) w(s)/(x-s) ds off the support, and dN_kernel the
two-point Christoffel-Darboux evaluation of the characteristic-polynomial
average D_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .errors import (CrossCheckError, PrecisionExhausted, SingularHankel,
                     UnsupportedParameters)
from .moments import (MomentTable, TruncSeries, WeightParams,
                      build_moment_table)
from .precision import PrecisionCtx, to_mpf, workprec
from .quadrature import integrate_weighted


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


def _half_log_ratio(bound, det) -> float:
    """log10(sqrt(bound) / |det|) clipped at 0; infinite when det is 0."""
    if det == 0:
        return math.inf
    man, exp = (bound / (det * det)).man_exp
    return max((math.log10(man) + exp * math.log10(2)) / 2, 0.0)


def digits_lost(mk, delta, sigma):
    """Decimal digits that cancel in each Delta_m and sigma_m.

    The estimate is log10(Hadamard bound / |det|), the bound being the
    product of the row norms.  Row i of the m x m Hankel matrix has squared
    norm sum_{j<m} mu_{i+j}^2; these sums grow one term per m, and sigma_m's
    rows swap the last term for mu_{i+m}^2.  Runs at 53 bits with one
    logarithm per determinant.  Returns [(lost Delta_m, lost sigma_m)].
    """
    n = len(delta) - 1
    lost = [(0.0, 0.0)]
    with mp.workprec(53):
        sq = [mp.mpf(mk[k]) ** 2 for k in range(2 * n)]
        rows = []            # rows[i] = sum_{j<m-1} mu_{i+j}^2 entering step m
        for m in range(1, n + 1):
            rows.append(mp.fsum(sq[m - 1:2 * m - 2]))
            h_delta = h_sigma = mp.mpf(1)
            for i in range(m):
                h_sigma *= rows[i] + sq[i + m]
                rows[i] += sq[i + m - 1]
                h_delta *= rows[i]
            lost.append((_half_log_ratio(h_delta, +delta[m]),
                         _half_log_ratio(h_sigma, +sigma[m])))
    return lost


def _checked_minor(moments: MomentTable, N: int, prec: PrecisionCtx,
                   shifted: bool):
    """Delta_N (or sigma_N) by hankel_minors, with the cancellation check."""
    name = "sigma" if shifted else "Delta"
    if N < 0:
        raise ValueError("N must be >= 0")
    need = 2 * N - 1 if shifted else 2 * N - 2
    if moments.k_max < need:
        raise ValueError(f"need moments up to {need}, table has {moments.k_max}")
    with workprec(prec):
        mk = [moments[k] for k in range(need + 1)]
        if not shifted:
            # mu_{2N-1} only borders the last row, so it feeds sigma_N alone
            mk.append(mp.mpf(0))
        delta, sigma = hankel_minors(mk, N)
        lost_delta, lost_sigma = digits_lost(mk, delta, sigma)[N]
        det, lost = (sigma[N], lost_sigma) if shifted else (delta[N], lost_delta)
        if prec.decimal_digits - lost < 20:
            raise PrecisionExhausted(
                f"{name}_{N}: ~{lost:.0f} digits cancel at "
                f"{prec.decimal_digits} working digits; raise significand_bits")
        return +det


def hankel_determinant(moments: MomentTable, N: int, prec: PrecisionCtx = None):
    """Delta_N = det[mu_{j+k-2}]_{j,k=1..N}; Delta_0 := 1.

    Raises PrecisionExhausted when the cancellation estimate leaves fewer
    than 20 correct decimal digits at the working precision.
    """
    if N == 0:
        return mp.mpf(1)
    return _checked_minor(moments, N, prec or moments.prec, shifted=False)


def shifted_hankel_determinant(moments: MomentTable, N: int,
                               prec: PrecisionCtx = None):
    """sigma_N: last column advanced one index (mu_{i+N} in place of mu_{i+N-1}).

    sigma_0 := 0; sigma_N/Delta_N is the root sum of the degree-N monic
    orthogonal polynomial.
    """
    if N == 0:
        return mp.mpf(0)
    return _checked_minor(moments, N, prec or moments.prec, shifted=True)


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence data Delta, sigma, a_n^2, b_n, gamma_n, gamma_{n,1} up to n_max.

    bits is the working precision the determinants were computed at after
    escalation, and digits_lost[m] the (Delta_m, sigma_m) cancellation
    estimates there; the stored values are rounded to prec.
    """

    params: WeightParams
    n_max: int
    delta: Sequence      # Delta_0 .. Delta_{n_max+1}
    sigma: Sequence      # sigma_0 .. sigma_{n_max+1}
    a2: Sequence         # a2[n] = a_n^2, index 0 unused (a_0 := 0)
    a_root: Sequence     # a_0 .. a_{n_max}, None where a_n^2 <= 0
    b: Sequence          # b_0 .. b_{n_max}
    gamma: Sequence      # gamma_0 .. gamma_{n_max}, or None entries if not real
    gamma1_ratio: Sequence  # gamma_{n,1}/gamma_n = -sigma_n/Delta_n
    prec: PrecisionCtx
    bits: int
    digits_lost: Sequence   # (Delta_m, sigma_m) digits lost, m <= n_max + 1

    def a(self, n: int):
        """a_n = sqrt(a_n^2) > 0; raises if a_n^2 is not positive."""
        v = self.a_root[n]
        if v is None:
            raise SingularHankel(
                f"a_{n}^2 = {mp.nstr(self.a2[n], 8)} is not positive")
        return v

    def b_sum(self, n: int):
        """sum_{i<n} b_i (equals sigma_n/Delta_n)."""
        return mp.fsum(self.b[:n]) if n > 0 else mp.mpf(0)


def recurrence_coefficients(moments: MomentTable, n_max: int,
                            prec: PrecisionCtx = None) -> RecurrenceTable:
    """Build the RecurrenceTable for n <= n_max.

    Needs moments up to index 2*n_max + 1.  Doubles the working precision
    and recomputes whenever a determinant loses more than half the digits
    (Hankel matrices are exponentially ill-conditioned in n); raises
    SingularHankel on an exactly vanishing Delta_n, and CrossCheckError if
    positivity fails where the weight is positive (even alpha, zeta < 1).
    """
    prec = prec or moments.prec
    if moments.k_max < 2 * n_max + 1:
        raise ValueError(f"need moments up to {2*n_max+1}, table has {moments.k_max}")

    bits = prec.significand_bits
    mom = moments
    while True:
        wp = prec.scaled(bits)
        with workprec(wp):
            delta, sigma = hankel_minors(mom, n_max + 1)
            lost_each = digits_lost(mom, delta, sigma)
        lost = max(max(pair) for pair in lost_each)
        # escalate while cancellation eats more than half the digits
        if lost <= wp.decimal_digits / 2 and wp.decimal_digits - lost >= 20:
            break
        if bits >= 16 * prec.significand_bits:
            raise PrecisionExhausted(
                f"~{lost:.0f} digits cancel even at {bits} bits")
        bits *= 2
        # moments must be regenerated at the wider precision to add digits
        mom = build_moment_table(mom.params, mom.k_max, prec.scaled(bits),
                                 mom.source, cross_check=False)

    with workprec(wp):
        root_sum = [sigma[n] / delta[n] for n in range(n_max + 2)]
        a2 = [mp.mpf(0)] + [delta[n - 1] * delta[n + 1] / delta[n] ** 2
                            for n in range(1, n_max + 1)]
        a_root = [mp.mpf(0)] + [mp.sqrt(v) if v > 0 else None for v in a2[1:]]
        b = [root_sum[n + 1] - root_sum[n] for n in range(n_max + 1)]
        gamma = []
        for n in range(n_max + 1):
            ratio = delta[n] / delta[n + 1]
            gamma.append(mp.sqrt(ratio) if ratio > 0 else None)
        gamma1_ratio = [-root_sum[n] for n in range(n_max + 1)]

        if moments.params.weight_positive:
            for n in range(1, n_max + 1):
                if not a2[n] > 0:
                    raise CrossCheckError(
                        f"a_{n}^2 <= 0 for a positive weight (conditioning?)")

    def rounded(values):
        return tuple(None if v is None else +v for v in values)

    with workprec(prec):
        return RecurrenceTable(
            params=moments.params, n_max=n_max,
            delta=rounded(delta), sigma=rounded(sigma), a2=rounded(a2),
            a_root=rounded(a_root), b=rounded(b), gamma=rounded(gamma),
            gamma1_ratio=rounded(gamma1_ratio), prec=prec, bits=bits,
            digits_lost=tuple(lost_each))


@dataclass(frozen=True)
class PolyEval:
    """p_n and p_{n-1} at one point, from the forward recurrence."""

    n: int
    x: object
    value_n: object
    value_nm1: object


def orthopoly_eval(table: RecurrenceTable, n: int, x) -> PolyEval:
    """Evaluate (p_n, p_{n-1}) at x by the forward three-term recurrence."""
    if n > table.n_max:
        raise ValueError(f"n={n} exceeds table n_max={table.n_max}")
    with workprec(table.prec):
        x = to_mpf(x)
        pm1 = mp.mpf(0)
        p0 = table.gamma[0]
        if p0 is None:
            raise SingularHankel("gamma_0 is not real (Delta_1/Delta_0 < 0)")
        cur, prev = p0, pm1
        for m in range(n):
            nxt = ((x - table.b[m]) * cur - table.a(m) * prev) / table.a(m + 1)
            prev, cur = cur, nxt
        return PolyEval(n=n, x=x, value_n=cur, value_nm1=prev)


def orthopoly_eval_with_derivative(table: RecurrenceTable, n: int, x):
    """(p_n, p_{n-1}, p_n', p_{n-1}') via the differentiated recurrence."""
    if n > table.n_max:
        raise ValueError(f"n={n} exceeds table n_max={table.n_max}")
    with workprec(table.prec):
        x = to_mpf(x)
        cur, prev = table.gamma[0], mp.mpf(0)
        if cur is None:
            raise SingularHankel("gamma_0 is not real (Delta_1/Delta_0 < 0)")
        dcur, dprev = mp.mpf(0), mp.mpf(0)
        for m in range(n):
            am, am1 = table.a(m), table.a(m + 1)
            nxt = ((x - table.b[m]) * cur - am * prev) / am1
            dnxt = (cur + (x - table.b[m]) * dcur - am * dprev) / am1
            prev, cur = cur, nxt
            dprev, dcur = dcur, dnxt
        return cur, prev, dcur, dprev


def epsilon_eval(table: RecurrenceTable, moments: MomentTable, n: int, x,
                 prec: PrecisionCtx = None):
    """eps_n(x) = int_0^inf p_n(s) w(s)/(x - s) ds, x off the support.

    x must be real negative or carry a nonzero imaginary part; on-support
    principal values are out of contract.
    """
    prec = prec or table.prec
    params = table.params
    with workprec(prec, 20):
        x = to_mpf(x)
        if mp.im(x) == 0 and mp.re(x) >= 0:
            raise UnsupportedParameters(
                "epsilon_eval requires x < 0 or a complex x off [0, inf)")

        def fn(s):
            return orthopoly_eval(table, n, s).value_n / (x - s)

        # eps_n ~ x^{-n-1}: far from the support the O(1/x) node masses
        # cancel down by n+1 orders in |x|; widen the digits to compensate
        cancel = int((n + 1) * mp.log10(1 + abs(x))) + 10
        res = integrate_weighted(fn, params, prec, extra_digits=cancel, pole=x)
    with workprec(prec):
        return +res.value


def epsilon_derivative_eval(table: RecurrenceTable, moments: MomentTable,
                            n: int, x, prec: PrecisionCtx = None):
    """eps_n'(x) = -int p_n(s) w(s)/(x - s)^2 ds, same domain as epsilon_eval."""
    prec = prec or table.prec
    params = table.params
    with workprec(prec, 20):
        x = to_mpf(x)
        if mp.im(x) == 0 and mp.re(x) >= 0:
            raise UnsupportedParameters(
                "epsilon derivative requires x < 0 or complex x off [0, inf)")

        def fn(s):
            return -orthopoly_eval(table, n, s).value_n / (x - s) ** 2

        cancel = int((n + 2) * mp.log10(1 + abs(x))) + 10
        res = integrate_weighted(fn, params, prec, extra_digits=cancel, pole=x)
    with workprec(prec):
        return +res.value


def stieltjes_eval(moments: MomentTable, x, prec: PrecisionCtx = None):
    """Stieltjes transform f(x) = int w(s)/(x - s) ds, x off the support."""
    prec = prec or moments.prec
    params = moments.params
    with workprec(prec, 20):
        x = to_mpf(x)
        if mp.im(x) == 0 and mp.re(x) >= 0:
            raise UnsupportedParameters("stieltjes_eval requires x off [0, inf)")
        cancel = int(mp.log10(1 + abs(x))) + 10
        res = integrate_weighted(lambda s: 1 / (x - s), params, prec,
                                 extra_digits=cancel, pole=x)
    with workprec(prec):
        return +res.value


def dN_kernel(table: RecurrenceTable, N: int, y1, y2):
    """Christoffel-Darboux evaluation of the two-point average D_N(y1, y2).

    D_N = Delta_N/(gamma_N gamma_{N+1})
          * (p_{N+1}(y1) p_N(y2) - p_N(y1) p_{N+1}(y2)) / (y1 - y2),

    with the confluent (derivative) form at y1 = y2.  Needs a table built
    with n_max >= N + 1.
    """
    if N + 1 > table.n_max:
        raise ValueError(f"dN_kernel needs n_max >= {N+1}, table has {table.n_max}")
    with workprec(table.prec):
        y1 = to_mpf(y1)
        y2 = to_mpf(y2)
        gN, gN1 = table.gamma[N], table.gamma[N + 1]
        if gN is None or gN1 is None:
            raise SingularHankel("gamma_N not real; weight not positive definite")
        pref = table.delta[N] / (gN * gN1)
        if y1 == y2:
            pN1, pN, dN1, dN = orthopoly_eval_with_derivative(table, N + 1, y1)
            return pref * (dN1 * pN - dN * pN1)
        e1 = orthopoly_eval(table, N + 1, y1)
        e2 = orthopoly_eval(table, N + 1, y2)
        num = e1.value_n * e2.value_nm1 - e2.value_n * e1.value_nm1
        return pref * num / (y1 - y2)


def table_for(params: WeightParams, n_max: int, prec: PrecisionCtx,
              source: str = "closed_form", cross_check: bool = True):
    """Moment table plus recurrence table sized for work up to n_max."""
    moments = build_moment_table(params, 2 * n_max + 1, prec, source,
                                 cross_check=cross_check)
    return moments, recurrence_coefficients(moments, n_max, prec)
