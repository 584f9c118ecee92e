"""The fixed-point node sums against references at twice the width.

Each case runs a package integral and records the integrand of every
climb it makes (integrate_weighted's fn).  On the climb's node lists at
m = 10 and 20, every sum S = sum_i W_i v_i that the integer path forms is
compared with the same sum in mpf at twice the working width, over the
same nodes x_i and weights W_i (the list's own values) and a plain
per-node expression of the integrand, with the constants it reads (t,
the pole, the table's b_m, a_m^2 and gamma_k) as the package holds them.
Each error must stay within 2^-bits of sum_i |W_i v_i|.  The cases cover
n = 0, integer and real mu (the Jacobi panel), odd alpha with zeta < 0
(negative weights), t = 0, a t so small that the nodes of [0, t] lie far
below 2^-(working width) (each node still converts exactly: the list's F
follows its smallest node), and a complex x.

For the moments and the Cauchy sweep, the a-priori bound of kernels.py
(per-node errors carried to first order through each integer operation,
plus half an ulp of the one rounding) is formed from the columns' own
scales: every error must lie within it, and the largest error of each
case within 2^8 of it, so the bound is not vacuous.

The tensor oracles (Delta_N, D_N) sum the same integers and round once:
each value, and the error estimate formed from the sums at nodes and
nodes // 2, has the bits of the explicit sum over every N-tuple of the
list's integer nodes and weights, the insertion (y1 - x)(y2 - x) with y1
and y2 at 2^-F multiplied in, divided by N! and rounded once.
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_rational

from dlaguerre import PrecisionCtx, WeightParams, table_for
from dlaguerre import hankel, moments, oracle, quadrature, semiclassical
from dlaguerre.hankel import cauchy_sweep, stieltjes_eval
from dlaguerre.kernels import to_fixed, weighted_sum
from dlaguerre.moments import _quadrature_moments
from dlaguerre.oracle import (dN_by_quadrature, delta_by_quadrature,
                              gram_schmidt_recurrence, inner_product)
from dlaguerre.precision import to_mpf, workprec
from dlaguerre.quadrature import GUARD_BITS, LADDER, weighted_nodes
from dlaguerre.semiclassical import ladder_ab_by_quadrature, ladder_integrals

PREC = PrecisionCtx(128, "1e-25")
POINTS = {
    "mu_2": (2, 2, "0.5", "0.3"),          # integer mu, the desk point
    "mu_1.5": (2, "1.5", "0.5", "0.3"),    # real mu: a Jacobi panel at 0
    "signed": (3, 1, "-0.7", "2"),         # odd alpha, zeta < 0: W_i < 0
    "t_0": (2, 2, "0.5", 0),               # t = 0: no panel on [0, t]
    "t_tiny": (2, 2, "0.5", "1e-80"),      # nodes on [0, t] below 2^-265
}
COMPLEX_X = mp.mpc("-0.5", 1)
RUNGS = LADDER[:2]


@functools.lru_cache(maxsize=None)
def _tables(point):
    params = WeightParams(*POINTS[point])
    source = "closed_form" if params.mu_is_integer else "quadrature"
    return table_for(params, 3, PREC, source=source, cross_check=False)


def _climbs(monkeypatch, call):
    """(fn, params, bits, pole) of each integrate_weighted climb of call()."""
    seen = []
    real = quadrature.integrate_weighted

    def spy(fn, params, prec, rel_scale=None, extra_digits=0, pole=None):
        bits = prec.significand_bits + GUARD_BITS + math.ceil(
            extra_digits * math.log2(10))
        seen.append((fn, params, bits, pole))
        return real(fn, params, prec, rel_scale, extra_digits, pole)

    for module in (hankel, semiclassical, moments, oracle):
        monkeypatch.setattr(module, "integrate_weighted", spy)
    call()
    return seen


def _sums(climb, plain, m):
    """[(S, reference, mass)] per column of the climb's integrand over its
    m-node list, and the list and columns themselves."""
    fn, params, bits, pole = climb
    with mp.workprec(bits):
        nodes = weighted_nodes(params, m, pole)
        cols = fn(nodes)
        got = [weighted_sum(nodes, c, bits, "n") for c in cols]
    with mp.workprec(2 * bits):
        W = [mp.ldexp(w, nodes.scale) for w in nodes.ws]
        vals = [plain(mp.make_mpf(x)) for x in nodes.xs]
        out = []
        for k, S in enumerate(got):
            terms = [w * v[k] for w, v in zip(W, vals)]
            out.append((S, mp.fsum(terms), mp.fsum(abs(v) for v in terms)))
    return out, nodes, cols


def _plain_monic(table, n, x):
    cur, prev = 1, 0
    out = [mp.mpf(1)]
    for m in range(n):
        cur, prev = (x - table.b[m]) * cur - table.a2[m] * prev, cur
        out.append(cur)
    return out


def _pair(table, n, y):
    P = _plain_monic(table, n, y)
    return P[n], (P[n - 1] if n else 0)


def _t(params, bits):
    """t as the integrands read it, at their working width."""
    with mp.workprec(bits):
        return to_mpf(params.t)


# --- the cases: (call, [plain integrand per climb, given its bits]) -----------

def _moments(point):
    params = WeightParams(*POINTS[point])
    ks = list(range(13))
    return (lambda: _quadrature_moments(ks, params, PREC),
            [lambda bits: lambda x: [x ** k for k in ks]])


def _stieltjes(point, x=-2):
    mom, _ = _tables(point)
    x0 = mp.mpmathify(x)
    return (lambda: stieltjes_eval(mom, x0, PREC),
            [lambda bits: lambda s: [1 / (x0 - s)]])


def _cauchy(point, n, x=-2):
    _, tab = _tables(point)
    x0 = mp.mpmathify(x)

    def plain(bits):
        def fn(s):
            P = _plain_monic(tab, n, s)
            inv = 1 / (x0 - s)
            return [p * inv for p in P] + [-p * inv * inv for p in P]
        return fn

    def call():
        hankel._SWEEP.clear()
        cauchy_sweep(tab, n, x0, PREC)

    return call, [plain]


def _ladder(point, n):
    mom, tab = _tables(point)
    al = tab.params.alpha

    def plain(bits):
        t = _t(tab.params, bits)

        def fn(y):
            p, q = _pair(tab, n, y)
            return [al * p * p / (y - t), al * p * q / (y - t)]
        return fn

    return (lambda: ladder_integrals(tab, mom, n, PREC,
                                     check_equivalence=False), [plain])


def _ladder_ab(point, n, x=-2):
    _, tab = _tables(point)
    params = tab.params
    x0 = mp.mpmathify(x)
    shifted = not params.mu_is_integer

    def products(bits):
        def fn(y):
            p, q = _pair(tab, n, y)
            return [p * p, p * q]
        return fn

    def kernelled(bits):
        t = _t(params, bits)
        al, mu = mp.mpf(params.alpha), to_mpf(params.mu)

        def fn(y):
            k = al / ((x0 - t) * (y - t)) + (0 if shifted else mu / (x0 * y))
            return [v * k for v in products(bits)(y)]
        return fn

    return (lambda: ladder_ab_by_quadrature(tab, n, x0, PREC),
            [kernelled] + ([products] if shifted else []))


def _inner(point, i, j):
    mom, tab = _tables(point)

    def plain(bits):
        def fn(s):
            P = _plain_monic(tab, max(i, j), s)
            return [tab.gamma[i] * P[i] * tab.gamma[j] * P[j]]
        return fn

    return lambda: inner_product((i, j), tab, mom, PREC), [plain]


CASES = {
    "moments mu_2": lambda: _moments("mu_2"),
    "moments mu_1.5": lambda: _moments("mu_1.5"),
    "moments t_0": lambda: _moments("t_0"),
    "stieltjes mu_2": lambda: _stieltjes("mu_2"),
    "stieltjes mu_1.5": lambda: _stieltjes("mu_1.5"),
    "stieltjes complex x": lambda: _stieltjes("mu_2", COMPLEX_X),
    "cauchy n=0": lambda: _cauchy("mu_2", 0),
    "cauchy n=3 mu_1.5": lambda: _cauchy("mu_1.5", 3),
    "cauchy signed": lambda: _cauchy("signed", 2, "-0.5"),
    "cauchy t_0": lambda: _cauchy("t_0", 3),
    "cauchy complex x": lambda: _cauchy("mu_2", 2, COMPLEX_X),
    "ladder n=0": lambda: _ladder("mu_2", 0),
    "ladder n=2 mu_1.5": lambda: _ladder("mu_1.5", 2),
    "ladder signed": lambda: _ladder("signed", 3),
    "ladder t_tiny": lambda: _ladder("t_tiny", 2),
    "ladder_ab n=0": lambda: _ladder_ab("mu_2", 0),
    "ladder_ab n=2": lambda: _ladder_ab("mu_2", 2, -1),
    "ladder_ab mu_1.5": lambda: _ladder_ab("mu_1.5", 1),
    "ladder_ab signed": lambda: _ladder_ab("signed", 2, "-0.5"),
    "ladder_ab complex x": lambda: _ladder_ab("mu_2", 1, COMPLEX_X),
    "ladder_ab t_tiny": lambda: _ladder_ab("t_tiny", 2),
    "inner (0, 0)": lambda: _inner("mu_2", 0, 0),
    "inner (1, 3)": lambda: _inner("mu_2", 1, 3),
    "inner (2, 2) mu_1.5": lambda: _inner("mu_1.5", 2, 2),
    "inner (1, 0) signed": lambda: _inner("signed", 1, 0),
}


@pytest.mark.parametrize("name", list(CASES))
def test_sums_against_twice_the_width(monkeypatch, name):
    call, plains = CASES[name]()
    climbs = _climbs(monkeypatch, call)
    assert len(climbs) == len(plains)
    for climb, plain in zip(climbs, plains):
        bits = climb[2]
        for m in RUNGS:
            for S, ref, mass in _sums(climb, plain(bits), m)[0]:
                assert abs(S - ref) <= mp.ldexp(mass, -bits)


@pytest.mark.parametrize("point, n_max", [("mu_2", 3), ("mu_1.5", 2),
                                          ("signed", 1), ("t_0", 2)])
def test_stieltjes_procedure_against_twice_the_width(point, n_max):
    """gram_schmidt_recurrence's integer sums against the same procedure in
    mpf at twice its width over the same nodes: b_n, a_n and gamma_n agree
    to the last bits of prec."""
    params = WeightParams(*POINTS[point])
    got = gram_schmidt_recurrence(params, n_max, PREC)
    bits = PREC.significand_bits + GUARD_BITS
    with mp.workprec(bits):
        # the rung the climb stopped at: the first whose pair agreed
        lists = {m: weighted_nodes(params, m) for m in LADDER}
    with mp.workprec(2 * bits):
        def stieltjes(m):
            nodes = lists[m]
            xs = [mp.make_mpf(x) for x in nodes.xs]
            ws = [mp.ldexp(w, nodes.scale) for w in nodes.ws]
            p_prev, p = [0] * len(xs), [1] * len(xs)
            h, b = [], []
            for n in range(n_max + 1):
                wp2 = [w * v * v for w, v in zip(ws, p)]
                h.append(mp.fsum(wp2))
                b.append(mp.fdot(wp2, xs) / h[n])
                a2 = h[n] / h[n - 1] if n else 0
                p_prev, p = p, [(x - b[n]) * v - a2 * u
                                for x, v, u in zip(xs, p, p_prev)]
            return h, b

        tol = PREC.tol_mpf()
        coarse = stieltjes(LADDER[0])
        for m in LADDER[1:]:
            fine = stieltjes(m)
            if all(abs(f - c) <= tol * abs(f) for fs, cs in zip(fine, coarse)
                   for f, c in zip(fs, cs)):
                break
            coarse = fine
        h, b = fine
    with mp.workprec(PREC.significand_bits):
        close = mp.ldexp(1, 4 - PREC.significand_bits)
        for n in range(n_max + 1):
            assert abs(got["b"][n] - b[n]) <= close * max(abs(b[n]), 1)
            assert abs(got["gamma"][n] - 1 / mp.sqrt(h[n])) <= (
                close * got["gamma"][n])
            if n:
                assert abs(got["a"][n] - mp.sqrt(h[n] / h[n - 1])) <= (
                    close * got["a"][n])


# --- the a-priori bound ------------------------------------------------------

def _node_errors(nodes):
    """|x_i - X_i 2^-F|: 0 where the node is exact at 2^-F, one unit at
    most (kernels.to_fixed rounds toward zero)."""
    F = nodes.F
    return [abs(mp.make_mpf(x) - mp.ldexp(X, -F))
            for x, X in zip(nodes.xs, nodes.X)]


def _conv_error(v, F):
    """The error of an mpf v converted to 2^-F."""
    return abs(v - mp.ldexp(mp.floor(abs(v) * mp.ldexp(1, F)), -F)
               * mp.sign(v))


def _monic_errors(table, n, nodes, ex):
    """P_0..P_n at each node and their first-order errors through
    monic_step: |x - b| e_m + |a2| e_{m-1} + |P_m| (e_x + e_b)
    + |P_{m-1}| e_a + one unit."""
    F = nodes.F
    unit = mp.ldexp(1, -F)
    xs = [mp.make_mpf(x) for x in nodes.xs]
    P = [[mp.mpf(1)] * len(xs)]
    E = [[mp.mpf(0)] * len(xs)]
    prev, eprev = [mp.mpf(0)] * len(xs), [mp.mpf(0)] * len(xs)
    for m in range(n):
        b, a2 = table.b[m], table.a2[m]
        eb, ea = _conv_error(b, F), _conv_error(a2, F)
        cur, ecur = P[-1], E[-1]
        P.append([(x - b) * p - a2 * q for x, p, q in zip(xs, cur, prev)])
        E.append([abs(x - b) * e + abs(a2) * eq + abs(p) * (e0 + eb)
                  + abs(q) * ea + unit
                  for x, p, q, e, eq, e0 in zip(xs, cur, prev, ecur, eprev,
                                                ex)])
        prev, eprev = cur, ecur
    return P, E


def _bound_moments(nodes, cols, ks):
    xs = [mp.make_mpf(x) for x in nodes.xs]
    ex = _node_errors(nodes)
    unit = mp.ldexp(1, -nodes.F)
    return [[k * abs(x) ** (k - 1) * e + (unit if k > 1 else 0) if k else 0
             for x, e in zip(xs, ex)] for k in ks]


def _bound_cauchy(nodes, cols, table, n, x0):
    F = nodes.F
    xs = [mp.make_mpf(x) for x in nodes.xs]
    ex = _node_errors(nodes)
    P, E = _monic_errors(table, n, nodes, ex)
    es = _conv_error(x0, F)
    inv, dinv = cols[0].exp, cols[n + 1].exp
    k = [1 / (x0 - x) for x in xs]
    ek = [(e + es) * v * v + mp.ldexp(1, inv) for v, e in zip(k, ex)]
    ed = [2 * abs(v) * e + mp.ldexp(1, dinv) for v, e in zip(k, ek)]
    out = []
    for kern, errs, scale in ((k, ek, inv), (None, ed, dinv)):
        kern = kern or [-v * v for v in k]
        for p, e in zip(P, E):
            out.append([abs(c) * ep + abs(q) * ec + mp.ldexp(1, scale)
                        for c, ec, q, ep in zip(kern, errs, p, e)])
    return out


BOUND_CASES = {
    "moments mu_2": ("mu_2", None, None),
    "moments mu_1.5": ("mu_1.5", None, None),
    "moments t_0": ("t_0", None, None),
    "cauchy n=0": ("mu_2", 0, -2),
    "cauchy n=3 mu_1.5": ("mu_1.5", 3, -2),
    "cauchy signed": ("signed", 2, "-0.5"),
}


@pytest.mark.parametrize("name", list(BOUND_CASES))
def test_a_priori_bound_holds_and_is_not_vacuous(monkeypatch, name):
    point, n, x = BOUND_CASES[name]
    call, plains = CASES[name]()
    climb, = _climbs(monkeypatch, call)
    bits = climb[2]
    worst = 0
    for m in RUNGS:
        sums, nodes, cols = _sums(climb, plains[0](bits), m)
        with mp.workprec(2 * bits):
            if n is None:
                errs = _bound_moments(nodes, cols, range(13))
            else:
                errs = _bound_cauchy(nodes, cols, _tables(point)[1], n,
                                     mp.mpmathify(x))
            W = [abs(mp.ldexp(w, nodes.scale)) for w in nodes.ws]
            for (S, ref, mass), e in zip(sums, errs):
                # half an ulp of the one rounding of S at bits
                half_ulp = mp.ldexp(1, mp.mag(S) - bits - 1) if S else 0
                bound = mp.fdot(W, e) + half_ulp
                assert abs(S - ref) <= bound
                worst = max(worst, abs(S - ref) / bound)
    assert worst >= mp.ldexp(1, -8)


# --- the tensor oracles ------------------------------------------------------

def _gauss_mul(u, v):
    """The product of two Gaussian integers (re, im)."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _tuple_sum(params, N, insert, m):
    """The N-fold squared-Vandermonde sum over the m-node list, term by
    term over every N-tuple of its integers, exact, divided by N! and
    rounded once at the working precision: an mpf, or an mpc where a y is
    complex."""
    nodes = weighted_nodes(params, m)
    X, F, e = nodes.X, nodes.F, nodes.scale
    ws = [(w, 0) for w in nodes.ws]
    if insert is not None:
        (a1, b1), (a2, b2) = ((to_fixed(y.real._mpf_, -F),
                               to_fixed(y.imag._mpf_, -F)) for y in insert)
        ws = [_gauss_mul(w, _gauss_mul((a1 - x, b1), (a2 - x, b2)))
              for w, x in zip(ws, X)]
        e -= 2 * F
    re = im = 0
    for tup in itertools.product(range(len(X)), repeat=N):
        w = (1, 0)
        for i in tup:
            w = _gauss_mul(w, ws[i])
        v = 1
        for i, j in itertools.combinations(tup, 2):
            v *= (X[j] - X[i]) ** 2
        re, im = re + w[0] * v, im + w[1] * v
    # N weights at 2^e and N (N - 1) / 2 squared differences at 2^-2F
    scale = Fraction(2) ** (N * e - N * (N - 1) * F) / math.factorial(N)
    prec, rnd = mp.mp._prec_rounding
    parts = [from_rational(q.numerator, q.denominator, prec, rnd)
             for q in (S * scale for S in (re, im))]
    if insert is not None and any(isinstance(y, mp.mpc) for y in insert):
        return mp.make_mpc(parts)
    return mp.make_mpf(parts[0])


# name: (point, N, the D_N point (y1, y2) or None, nodes per panel)
TENSOR_CASES = {
    "Delta_1": ("mu_2", 1, None, 3),
    "Delta_2 signed": ("signed", 2, None, 3),
    "Delta_3 mu_1.5": ("mu_1.5", 3, None, 3),
    "D_1": ("mu_2", 1, ("5", "7"), 3),
    "D_2 confluent": ("signed", 2, ("4", "4"), 3),
    "D_2 complex y": ("mu_2", 2, (mp.mpc(3, 1), "7"), 3),
    # the exact sum S of this one, rounded before the division by 3 (two
    # roundings), loses its last bit
    "Delta_3 signed LADDER[1]": ("signed", 3, None, LADDER[1]),
}
TENSOR_CASES.update({f"Delta_{N} desk LADDER[1]": ("mu_2", N, None, LADDER[1])
                     for N in (1, 2, 3)})


@pytest.mark.parametrize("name", list(TENSOR_CASES))
def test_tensor_value_is_the_tuple_sum_rounded_once(monkeypatch, name):
    """Bit equality with the O(m^N) tuple sum over the same integers: each
    sum at nodes and nodes // 2 at the oracle's width, and the value and
    error estimate it returns."""
    point, N, insert, nodes = TENSOR_CASES[name]
    params = WeightParams(*POINTS[point])
    sums, real = [], oracle._vandermonde_sum

    def spy(*args):
        sums.append(real(*args))
        return sums[-1]

    monkeypatch.setattr(oracle, "_vandermonde_sum", spy)
    res = (delta_by_quadrature(params, N, PREC, nodes) if insert is None
           else dN_by_quadrature(params, N, *insert, PREC, nodes))
    with workprec(PREC, GUARD_BITS):
        if insert is not None:
            insert = tuple(map(to_mpf, insert))
        want = [_tuple_sum(params, N, insert, m) for m in (nodes, nodes // 2)]
        err = abs(want[0] - want[1])
    with workprec(PREC):
        want += [+want[0], +err]

    def raw(v):
        return v._mpf_ if isinstance(v, mp.mpf) else v._mpc_

    assert list(map(raw, sums + [res.value, res.error])) == (
        list(map(raw, want)))
