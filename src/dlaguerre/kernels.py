"""Kernels shared by the quadrature, jet and flow-check layers.

Fixed point, for the node sums of every weighted integral:

- a node list (Nodes) holds its weights as one column of Python integers
  at one binary scale, W_i = ws[i] 2^scale, the scale set so that the
  smallest nonzero |W_i| keeps the working width prec plus WEIGHT_GUARD
  bits (so every weight keeps at least that many), and its nodes a second
  time as integers X_i at 2^-F, F = prec + GUARD bits below the leading
  bit of its smallest node (or of 1), so that every node converts exactly;
- an integrand returns Columns, v_i = (re[i] + i im[i]) 2^exp, one exp per
  column: exp = min(0, top) - F for a column whose magnitudes stay below
  2^top.  A column of values of order 1 or more is fixed point at 2^-F,
  its large values wide integers; a column of small values (the
  reciprocals of a far pole) keeps F bits below its largest.  A complex
  column is two integer columns at one scale;
- a product of two columns is their exact integer product shifted right
  by F, at the sum of their scales plus F; a quotient is one floor
  division; monic_step is the recurrence on integers at 2^-F;
- weighted_sum is one exact integer dot product per part over the weight
  column, rounded to an mpf once.

The a-priori bound.  Each integer operation rounds once, toward minus
infinity, so it adds less than one unit of its result's scale, and it
carries its inputs' errors to first order: |b| e_a + |a| e_b for a
product, e_d / d^2 for a reciprocal 1/d, and through monic_step |x - b|
e_m + |a2| e_{m-1} + |P_m| (e_x + e_b) + |P_{m-1}| e_a.  A node converts
to 2^-F exactly, a constant (b_m, a_m^2, t, the pole) within one unit.
So with e_i the error carried to node i, a sum S = sum_i W_i v_i over the
list's weights is wrong by at most

    sum_i |W_i| e_i + half an ulp of S at prec,

the second term its one rounding; tests/test_fixed_point.py forms this
bound for the moments and the Cauchy sweep and finds the measured error
within 2^8 of it.  Every unit is at most 2^-GUARD of an ulp at prec of a
value of order 1, so the rounding of S dominates.

The flow's fixed point:

- each step of painleve.evolve is one integer jet (FlowJet): coefficient
  j held as y_j h^j, h = 2^p <= t_k, at one unit 2^-F, prec + GUARD bits
  below the largest of |theta|, |kappa| and t_k, with the a-priori bound
  above (painleve._flow_jet_factory); the Bernstein step test's signs are
  exact.  The step ends and dense output read the jet's integers, rescaled
  exactly to sigma = (t - t_k) 2^-g in [0, 1] (FlowJet.rescaled and value,
  the nodes and queries by exact_column); horner floors once per step, the
  error carried into a step is multiplied by sigma, and an order-K value is
  within K units of 2^-F of the stored polynomial's before its one
  rounding;
- the PV stencils (painleve._pv_quotient): the grid and the samples are
  exact integers at one scale, so the grid checks are exact and both
  Richardson-combined stencil numerators are exact integers; q' and q''
  are one correctly rounded division each, by 360 h and 720 h^2, so each
  is the exact stencil value within half an ulp.

The series data (TruncSeries, moments.py) keeps one exponent per
coefficient, since its flow laws compare coefficients about log2(1/t*)
bits apart per order: conv forms a coefficient of a product of series on
finite raw real tuples as the exact sum of the exact products, rounded
once.  The flow's jets run on integers, as above, and the tensor oracles
sum on the node list's integers as every weighted integral does
(oracle.py).
"""

from __future__ import annotations

from math import isqrt
from operator import mul
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import from_man_exp

GUARD = 16          # bits of the node columns past the working width
WEIGHT_GUARD = 8    # the smallest weight keeps the working width plus these


class Nodes(NamedTuple):
    """One node list: xs the raw mpf nodes, X the same nodes at 2^-F
    (exactly), and the weights W_i = ws[i] 2^scale."""

    xs: tuple
    X: tuple
    F: int
    ws: tuple
    scale: int


class Column(NamedTuple):
    """v_i = (re[i] + i im[i]) 2^exp; im is None for a real column."""

    re: list
    exp: int
    im: list = None


def to_fixed(v, e):
    """The raw mpf v as an integer at 2^e, rounded toward zero (one unit)."""
    s, m, x, _ = v
    k = x - e
    m = m << k if k >= 0 else m >> -k
    return -m if s else m


def top_exp(values):
    """The least top with |v| < 2^top for every finite raw mpf value,
    None if all are zero."""
    return max((x + b for _, m, x, b in values if m), default=None)


def column_exp(top, F):
    """The scale of a column whose magnitudes stay below 2^top."""
    return (0 if top is None else min(0, top)) - F


def scaled(c, ps, F):
    """c p for an mpf c and a column ps at 2^-F, as a Column at c's own
    scale: c keeps F bits whatever its size."""
    e = (top_exp([c._mpf_]) or 0) - F
    C = to_fixed(c._mpf_, e)
    return Column([(C * p) >> F for p in ps], e)


def monic_step(X, B, A, cur, prev, F):
    """(x - b) P_m(x) - a2 P_{m-1}(x) at each node of the column X, for b
    and a2 = a_m^2 and the columns cur = P_m, prev = P_{m-1}, all at
    2^-F: one floor per node."""
    return [((x - B) * p - A * q) >> F for x, p, q in zip(X, cur, prev)]


def monic_columns(b, a2, n, X, F):
    """[P_0, ..., P_n], one column of integers at 2^-F each over the nodes
    X, by monic_step from P_0 = 1 and P_{-1} = 0, for the mpf b_m and
    a_m^2 of a RecurrenceTable."""
    cur, prev = [1 << F] * len(X), [0] * len(X)
    out = [cur]
    for m in range(n):
        cur, prev = monic_step(X, to_fixed(b[m]._mpf_, -F),
                               to_fixed(a2[m]._mpf_, -F), cur, prev, F), cur
        out.append(cur)
    return out


def exact_column(values):
    """Finite raw mpf values as exact integers at one scale 2^e, e <= 0 the
    least exponent among them: ([V_i], e)."""
    e = min([0] + [x for _, m, x, _ in values if m])
    return [to_fixed(v, e) for v in values], e


def horner(cs, S, F):
    """sum_j C_j sigma^j for integers C_j at sigma = S 2^-F in [0, 1]:
    Horner's rule, one floor per step, at the C_j's scale."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * S >> F) + c
    return acc


def times(ps, k, F):
    """p k for a column ps at 2^-F and a Column k, at k's scale."""
    return Column([(p * v) >> F for p, v in zip(ps, k.re)], k.exp,
                  None if k.im is None
                  else [(p * v) >> F for p, v in zip(ps, k.im)])


def weighted_sum(nodes, col, prec, rnd, absolute=False):
    """sum_i W_i v_i over a node list's weights and a Column, or with
    absolute sum_i |W_i v_i|: one exact integer dot product per part,
    rounded once at prec, an mpc for a complex column (with absolute,
    |v_i| = isqrt(re^2 + im^2), one unit low at most)."""
    ws, e = nodes.ws, nodes.scale + col.exp
    if col.im is None:
        prods = map(mul, ws, col.re)
        s = sum(map(abs, prods)) if absolute else sum(prods)
        return mp.make_mpf(from_man_exp(s, e, prec, rnd))
    if absolute:
        s = sum(abs(w) * isqrt(r * r + i * i)
                for w, r, i in zip(ws, col.re, col.im))
        return mp.make_mpf(from_man_exp(s, e, prec, rnd))
    return mp.make_mpc(tuple(from_man_exp(sum(map(mul, ws, part)), e, prec,
                                          rnd) for part in (col.re, col.im)))


def conv(x, y, j, prec, rnd, lo=0):
    """sum_{i=lo..j} x_i y_{j-i}: coefficient j of a product of series, for
    lists x, y of finite raw real mpf tuples, as a raw tuple rounded once
    at prec.

    Each product is exact and they are summed exactly into one integer
    mantissa at the least exponent so far, so the result is the exact sum
    correctly rounded.  A zero factor adds nothing; a running sum that
    cancels to zero restarts at the next term's exponent.
    """
    man = exp = 0
    for (s, m, e, _), (s2, m2, e2, _) in zip(x[lo:j + 1], y[j - lo::-1]):
        if m and m2:
            p, e = (-m * m2 if s ^ s2 else m * m2), e + e2
            if not man:
                man, exp = p, e
            elif e >= exp:
                man += p << (e - exp)
            else:
                man, exp = (man << (exp - e)) + p, e
    return from_man_exp(man, exp, prec, rnd)
