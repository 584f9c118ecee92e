"""Raw-tuple kernels shared by the quadrature and jet layers: each runs on
raw mpf tuples (mpmath.libmp) with the operations and roundings of the
mpf expression it stands for, so it has that expression's bits without
an mpf object per intermediate result.
"""

from __future__ import annotations

import mpmath as mp
from mpmath.libmp import (fone, from_man_exp, fzero, mpc_abs, mpf_mul,
                          mpf_sub, mpf_sum)


def dot(xs, ys, prec, rnd):
    """sum_i x_i y_i for sequences xs, ys of raw real mpf tuples, as a raw
    tuple rounded once at prec.

    The bits are those of mp.fdot over the mpfs: each product is exact,
    and they are summed by mpf_sum's rules into one integer mantissa,
    including its drop rule for a term more than 2 prec bits below the
    running sum (or a sum that far below the term).  A zero factor adds
    nothing; an inf or nan factor hands the products to mpf_sum itself.
    """
    man = exp = 0
    cap = 2 * prec
    for (s, m, e, b), (s2, m2, e2, b2) in zip(xs, ys):
        if not (m and m2):
            if e and not m or e2 and not m2:        # inf or nan
                return mpf_sum([mpf_mul(u, v) for u, v in zip(xs, ys)],
                               prec, rnd)
            continue
        p = -m * m2 if s ^ s2 else m * m2
        e += e2
        d = e - exp
        if d >= 0:
            if d > cap and (not man or d - man.bit_length() > cap):
                man, exp = p, e
            else:
                man += p << d
        elif -d > cap and -d - p.bit_length() > cap:
            if not man:
                man, exp = p, e
        else:
            man = (man << -d) + p
            exp = e
    return from_man_exp(man, exp, prec, rnd)


def conv(x, y, j, prec, rnd, lo=0):
    """sum_{i=lo..j} x_i y_{j-i}: coefficient j of a product of series, for
    lists x, y of raw real mpf tuples, by dot."""
    return dot(x[lo:j + 1], y[j - lo::-1], prec, rnd)


def monic_step(xs, b, a2, cur, prev, prec, rnd):
    """(x - b) P_m(x) - a2 P_{m-1}(x) at each node x of the column xs, for
    raw b = b_m and a2 = a_m^2 and the columns cur = P_m and prev =
    P_{m-1}, each operation rounded at prec as the mpf arithmetic rounds
    it."""
    mul, sub = mpf_mul, mpf_sub
    return [sub(mul(sub(x, b, prec, rnd), p, prec, rnd),
                mul(a2, q, prec, rnd), prec, rnd)
            for x, p, q in zip(xs, cur, prev)]


def monic_columns(b, a2, n, xs, prec, rnd):
    """[P_0, ..., P_n], one column each over the raw nodes xs, by
    monic_step from P_0 = fone and P_{-1} = fzero (which act as the ints
    1 and 0), for the mpf b_m and a_m^2 of a RecurrenceTable."""
    cur, prev = [fone] * len(xs), [fzero] * len(xs)
    out = [cur]
    for m in range(n):
        cur, prev = monic_step(xs, b[m]._mpf_, a2[m]._mpf_, cur, prev, prec,
                               rnd), cur
        out.append(cur)
    return out


def times(ps, ks, prec, rnd):
    """[p k] for a column ps of raw real values and a kernel column ks:
    raw mpf tuples, each product rounded at prec, or mpc numbers, each
    product the mpc arithmetic's at the working precision."""
    if type(ks[0]) is tuple:
        return [mpf_mul(p, k, prec, rnd) for p, k in zip(ps, ks)]
    make = mp.make_mpf
    return [make(p) * k for p, k in zip(ps, ks)]


def weighted_sum(ws, vs, prec, rnd, absolute=False):
    """mp.fsum(w * v) over raw mpf weights ws and a column vs, or with
    absolute that of abs(w * v), bit for bit.

    vs holds raw real mpf tuples or mpc numbers.  Each product is rounded
    at prec as mpf * v rounds it, then one mpf_sum runs per part: as in
    fsum, an mpc column's real and imaginary products are summed apart
    into an mpc (with absolute, each product's mpc_abs into one sum).
    """
    mul = mpf_mul
    if type(vs[0]) is tuple:
        return mp.make_mpf(mpf_sum([mul(w, v, prec, rnd)
                                    for w, v in zip(ws, vs)],
                                   prec, rnd, absolute))
    parts = [v._mpc_ for v in vs]
    re = [mul(w, v[0], prec, rnd) for w, v in zip(ws, parts)]
    im = [mul(w, v[1], prec, rnd) for w, v in zip(ws, parts)]
    if absolute:
        return mp.make_mpf(mpf_sum([mpc_abs(z, prec, rnd)
                                    for z in zip(re, im)], prec, rnd))
    return mp.make_mpc((mpf_sum(re, prec, rnd), mpf_sum(im, prec, rnd)))
