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
and stays exact in the classical limit.  Hankel matrices of these moments
are exponentially ill-conditioned in n, so the determinant evaluation
carries a cancellation estimate (Hadamard bound over |det|) and the table
builder escalates the working precision until enough digits survive.

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
from .moments import MomentTable, WeightParams, build_moment_table
from .precision import PrecisionCtx, to_mpf, workprec
from .quadrature import integrate_weighted


def _det_with_condition(rows):
    """Determinant by pivoted elimination; returns (det, digits_lost).

    digits_lost is the decimal size of the cancellation, estimated as
    log10(Hadamard bound / |det|).
    """
    n = len(rows)
    if n == 0:
        return mp.mpf(1), 0.0
    a = [[to_mpf(v) for v in row] for row in rows]
    hadamard = mp.mpf(1)
    for row in a:
        hadamard *= mp.sqrt(mp.fsum([v * v for v in row]))
    det = mp.mpf(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return mp.mpf(0), mp.inf
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col + 1, n):
                a[r][c] -= f * a[col][c]
    lost = float(mp.log10(hadamard / abs(det))) if det != 0 else math.inf
    return det, max(lost, 0.0)


def hankel_determinant(moments: MomentTable, N: int, prec: PrecisionCtx = None):
    """Delta_N = det[mu_{j+k-2}]_{j,k=1..N}; Delta_0 := 1.

    Raises PrecisionExhausted when the cancellation estimate leaves fewer
    than 20 correct decimal digits at the working precision.
    """
    prec = prec or moments.prec
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > 0 and moments.k_max < 2 * N - 2:
        raise ValueError(f"need moments up to {2*N-2}, table has {moments.k_max}")
    with workprec(prec):
        rows = [[moments[i + j] for j in range(N)] for i in range(N)]
        det, lost = _det_with_condition(rows)
        if prec.decimal_digits - lost < 20:
            raise PrecisionExhausted(
                f"Delta_{N}: ~{lost:.0f} digits cancel at "
                f"{prec.decimal_digits} working digits; raise significand_bits")
        return +det


def shifted_hankel_determinant(moments: MomentTable, N: int,
                               prec: PrecisionCtx = None):
    """sigma_N: last column advanced one index (mu_{i+N} in place of mu_{i+N-1}).

    sigma_0 := 0; sigma_N/Delta_N is the root sum of the degree-N monic
    orthogonal polynomial.
    """
    prec = prec or moments.prec
    if N == 0:
        return mp.mpf(0)
    if moments.k_max < 2 * N - 1:
        raise ValueError(f"need moments up to {2*N-1}, table has {moments.k_max}")
    with workprec(prec):
        rows = [[moments[i + j] for j in range(N - 1)] + [moments[i + N]]
                for i in range(N)]
        det, lost = _det_with_condition(rows)
        if prec.decimal_digits - lost < 20:
            raise PrecisionExhausted(
                f"sigma_{N}: ~{lost:.0f} digits cancel at "
                f"{prec.decimal_digits} working digits; raise significand_bits")
        return +det


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence data Delta, sigma, a_n^2, b_n, gamma_n, gamma_{n,1} up to n_max."""

    params: WeightParams
    n_max: int
    delta: Sequence      # Delta_0 .. Delta_{n_max+1}
    sigma: Sequence      # sigma_0 .. sigma_{n_max+1}
    a2: Sequence         # a2[n] = a_n^2, index 0 unused (a_0 := 0)
    b: Sequence          # b_0 .. b_{n_max}
    gamma: Sequence      # gamma_0 .. gamma_{n_max}, or None entries if not real
    gamma1_ratio: Sequence  # gamma_{n,1}/gamma_n = -sigma_n/Delta_n
    prec: PrecisionCtx

    def a(self, n: int):
        """a_n = sqrt(a_n^2) > 0; raises if a_n^2 is not positive."""
        if n == 0:
            return mp.mpf(0)
        v = self.a2[n]
        if not v > 0:
            raise SingularHankel(f"a_{n}^2 = {mp.nstr(v, 8)} is not positive")
        return mp.sqrt(v)

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
        try:
            with workprec(wp):
                pairs = [
                    (_det_with_condition(
                        [[mom[i + j] for j in range(n)] for i in range(n)]),
                     _det_with_condition(
                        [[mom[i + j] for j in range(n - 1)] + [mom[i + n]]
                         for i in range(n)]) if n > 0 else ((mp.mpf(0), 0.0)))
                    for n in range(n_max + 2)
                ]
                delta = [p[0][0] for p in pairs]
                sigma = [p[1][0] for p in pairs]
                for m_i, d in enumerate(delta):
                    if d == 0:
                        raise SingularHankel(
                            f"Delta_{m_i} vanishes to working precision")
                lost = max(max(p[0][1], p[1][1]) for p in pairs)
            # escalate while cancellation eats more than half the digits
            if lost <= wp.decimal_digits / 2 and wp.decimal_digits - lost >= 20:
                break
            if bits >= 16 * prec.significand_bits:
                raise PrecisionExhausted(
                    f"~{lost:.0f} digits cancel even at {bits} bits")
        except PrecisionExhausted:
            if bits >= 16 * prec.significand_bits:
                raise
        bits *= 2
        # moments must be regenerated at the wider precision to add digits
        mom = build_moment_table(mom.params, mom.k_max, prec.scaled(bits),
                                 mom.source, cross_check=False)

    with workprec(prec.scaled(bits)):
        for n, d in enumerate(delta):
            if d == 0:
                raise SingularHankel(f"Delta_{n} vanishes to working precision")
        root_sum = [sigma[n] / delta[n] for n in range(n_max + 2)]
        a2 = [mp.mpf(0)] + [delta[n - 1] * delta[n + 1] / delta[n] ** 2
                            for n in range(1, n_max + 1)]
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

    with workprec(prec):
        return RecurrenceTable(
            params=moments.params, n_max=n_max,
            delta=tuple(+d for d in delta), sigma=tuple(+s for s in sigma),
            a2=tuple(+v for v in a2), b=tuple(+v for v in b),
            gamma=tuple(None if g is None else +g for g in gamma),
            gamma1_ratio=tuple(+v for v in gamma1_ratio), prec=prec)


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
