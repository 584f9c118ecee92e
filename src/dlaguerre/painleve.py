"""Painleve V layer: Hamiltonian, variable maps, coupled flow, integration.

The scalar auxiliaries (theta_n, kappa_n) satisfy the coupled flow

    t th' = 2 k + (2n + a + 1 + m + t + th) th,
    t k'  = (1/(th+t) + 1/th) k^2
            + (2n + a + m + 1 - (2n + a + m) t/(th+t)) k
            - (n^2 + (n + m/2)(a + m)) t - m^2 t^2/(4 th)
            + (n + m/2)(n + a + m/2) t^2/(th+t),

equivalently, through R = (th+t)/t and r = k/t - (n + m/2),

    t R' = 2r - a + R(tR + 2n + a + m - t),
    t r' = ((1-2R)/(R(1-R))) r^2 - n(n+m) R/(1-R)
           + (2n + a + m) r + (2n + m) r/(R-1) - a r/R.

Two Moebius maps carry the flow onto the polynomial Hamiltonian system

    tH = q(q-1)^2 p^2 - ((v2-v1)(q-1)^2 - 2(v1+v2)q(q-1) + tq) p
         + (v3-v1)(v4-v1)(q-1),

with q' = dH/dp, p' = -dH/dq, both in the variable t:

  convention "prop11":  q = (th+t)/th,
                        p = th((n+a+m/2)t - k) / (t(th+t)),
     v = v1, v1+a, v1+a+n, v1+a+n+m  with  v1 = -(3a+2n+m)/4,
     PV parameters (m^2/2, -a^2/2, -(2n+a+1+m), -1/2);

  convention "cor12":   q = th/(th+t),
                        p = (th+t)(k - m t/2 + th(2n+a+m+1+t+th)) / (t th),
     v = v2+m, v2, v2-(n+1), v2-(n+a+1)  with  v2 = (2n+a+2-m)/4,
     PV parameters (a^2/2, -m^2/2, +(2n+a+1+m), -1/2).

Both p-maps were re-derived from the (linear in p) q-equation; each map
satisfies both Hamilton equations identically, is compatible with the
inverse pair (th = t/(q-1), k = t(n+a+m/2 - pq)) respectively
(th = tq/(1-q), with k solved from the p-map), and eliminating p
reproduces the Painleve V equation with the parameters above.

Small-t initial data comes from an exact truncated-power-series pipeline:
for integer alpha and mu every moment is an entire function of t with
explicitly known Taylor coefficients, so Hankel determinants, recurrence
coefficients, and (theta_n, kappa_n) all have exact series computable by
polynomial arithmetic.  This supersedes hand-truncated expansions, whose
leading terms the series reproduce:

    theta_n = -m/(a+m) t + a m (a+m+2n+1)/((a+m)^2((a+m)^2-1)) t^2 + ...
    kappa_n =  m(2n+a+m)/(2(a+m)) t - 2 a m n (n+a+m)/((a+m)^2((a+m)^2-1)) t^2 + ...

The integrator is an embedded Dormand-Prince 5(4) pair in the working
precision with singularity guards at theta in {0, -t} and cubic-Hermite
dense output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from .errors import (DegenerateTheta, NoConvergence, SingularPanel,
                     SingularRHS, SingularityEncountered,
                     UnsupportedParameters)
from .hankel import orthopoly_eval, recurrence_coefficients
from .moments import WeightParams, build_moment_table
from .precision import PrecisionCtx, to_mpf, workprec
from .semiclassical import Report, build_lax, theta_kappa_from_recurrence

# ---------------------------------------------------------------------------
# parameter wiring
# ---------------------------------------------------------------------------

CONVENTIONS = ("prop11", "cor12")


@dataclass(frozen=True)
class PVParams:
    """Canonical parameters v_1..v_4 (sum 0) and PV constants alpha_1..alpha_4."""

    v: tuple
    alphas: tuple
    n: int
    alpha: object
    mu: object
    convention: str

    def __post_init__(self):
        with mp.extraprec(20):
            if abs(mp.fsum(to_mpf(c) for c in self.v)) > mp.mpf(10) ** (-25):
                raise ValueError("v_1 + v_2 + v_3 + v_4 must vanish")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")

    @classmethod
    def make(cls, n: int, alpha, mu, convention: str = "prop11",
             prec: PrecisionCtx = None) -> "PVParams":
        with workprec(prec or PrecisionCtx()):
            a, m = to_mpf(alpha), to_mpf(mu)
            if convention == "prop11":
                v1 = -(3 * a + 2 * n + m) / 4
                v = (v1, v1 + a, v1 + a + n, v1 + a + n + m)
                alphas = (m * m / 2, -a * a / 2, -(2 * n + a + 1 + m),
                          -mp.mpf(1) / 2)
            elif convention == "cor12":
                v2 = (2 * n + a + 2 - m) / 4
                v = (v2 + m, v2, v2 - (n + 1), v2 - (n + a + 1))
                alphas = (a * a / 2, -m * m / 2, +(2 * n + a + 1 + m),
                          -mp.mpf(1) / 2)
            else:
                raise ValueError(f"convention must be one of {CONVENTIONS}")
            return cls(v=v, alphas=alphas, n=n, alpha=alpha, mu=mu,
                       convention=convention)


@dataclass(frozen=True)
class HamiltonPoint:
    """Canonical coordinates (q, p) at time t, with the Hamiltonian cached."""

    q: object
    p: object
    t: object
    H: object


# ---------------------------------------------------------------------------
# Hamiltonian and its canonical equations
# ---------------------------------------------------------------------------


def hamiltonian_eval(q, p, t, pv: PVParams, prec: PrecisionCtx = None):
    """H(q, p, t) of the polynomial PV Hamiltonian (tH is polynomial)."""
    ctx = workprec(prec) if prec is not None else mp.extraprec(20)
    with ctx:
        q, p, t = to_mpf(q), to_mpf(p), to_mpf(t)
        if t == 0:
            raise SingularRHS("Hamiltonian undefined at t = 0")
        v1, v2, v3, v4 = (to_mpf(c) for c in pv.v)
        tH = (q * (q - 1) ** 2 * p * p
              - ((v2 - v1) * (q - 1) ** 2 - 2 * (v1 + v2) * q * (q - 1)
                 + t * q) * p
              + (v3 - v1) * (v4 - v1) * (q - 1))
        return tH / t


def hamilton_rhs(q, p, t, pv: PVParams, prec: PrecisionCtx = None):
    """(dq/dt, dp/dt) = (dH/dp, -dH/dq) in closed form."""
    ctx = workprec(prec) if prec is not None else mp.extraprec(20)
    with ctx:
        q, p, t = to_mpf(q), to_mpf(p), to_mpf(t)
        if t == 0:
            raise SingularRHS("Hamilton equations undefined at t = 0")
        v1, v2, v3, v4 = (to_mpf(c) for c in pv.v)
        d_tH_dp = (2 * q * (q - 1) ** 2 * p
                   - ((v2 - v1) * (q - 1) ** 2
                      - 2 * (v1 + v2) * q * (q - 1) + t * q))
        d_tH_dq = ((q - 1) * (3 * q - 1) * p * p
                   - (2 * (v2 - v1) * (q - 1)
                      - 2 * (v1 + v2) * (2 * q - 1) + t) * p
                   + (v3 - v1) * (v4 - v1))
        return d_tH_dp / t, -d_tH_dq / t


# ---------------------------------------------------------------------------
# variable maps
# ---------------------------------------------------------------------------


def to_hamiltonian(theta, kappa, t, n: int, params: WeightParams,
                   convention: str = "prop11",
                   prec: PrecisionCtx = None) -> HamiltonPoint:
    """(theta, kappa) -> (q, p) in the chosen convention."""
    pv = PVParams.make(n, params.alpha, params.mu, convention, prec)
    ctx = workprec(prec) if prec is not None else mp.extraprec(20)
    with ctx:
        th, ka, t = to_mpf(theta), to_mpf(kappa), to_mpf(t)
        a, m = to_mpf(params.alpha), to_mpf(params.mu)
        if t == 0 or th == 0 or th + t == 0:
            raise DegenerateTheta("map undefined at theta in {0, -t} or t = 0")
        if convention == "prop11":
            q = (th + t) / th
            p = th * ((n + a + m / 2) * t - ka) / (t * (th + t))
        else:
            q = th / (th + t)
            p = (th + t) * (ka - m * t / 2
                            + th * (2 * n + a + m + 1 + t + th)) / (t * th)
        H = hamiltonian_eval(q, p, t, pv)
        return HamiltonPoint(q=+q, p=+p, t=+t, H=+H)


def from_hamiltonian(q, p, t, n: int, params: WeightParams,
                     convention: str = "prop11",
                     prec: PrecisionCtx = None):
    """(q, p) -> (theta, kappa): exact algebraic inverse of to_hamiltonian."""
    ctx = workprec(prec) if prec is not None else mp.extraprec(20)
    with ctx:
        q, p, t = to_mpf(q), to_mpf(p), to_mpf(t)
        a, m = to_mpf(params.alpha), to_mpf(params.mu)
        if convention == "prop11":
            if q == 1:
                raise DegenerateTheta("inverse undefined at q = 1")
            th = t / (q - 1)
            ka = t * (n + a + m / 2 - p * q)
        elif convention == "cor12":
            if q == 1:
                raise DegenerateTheta("inverse undefined at q = 1")
            th = t * q / (1 - q)
            ka = (p * t * th / (t + th)
                  - th * (2 * n + a + m + 1 + t + th) + m * t / 2)
        else:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        return +th, +ka


# ---------------------------------------------------------------------------
# the coupled flows
# ---------------------------------------------------------------------------


def _theta_kappa_rhs_factory(n: int, params: WeightParams):
    """Flow right side with all parameter constants hoisted (hot path)."""
    a, m = to_mpf(params.alpha), to_mpf(params.mu)
    c_lin = 2 * n + a + 1 + m          # theta-equation linear constant
    c_k1 = 2 * n + a + m + 1
    c_k2 = 2 * n + a + m
    c_t = n * n + (n + m / 2) * (a + m)
    c_m2 = m * m / 4
    c_tt = (n + m / 2) * (n + a + m / 2)

    def rhs(t, th, ka):
        if t == 0:
            raise SingularRHS("flow undefined at t = 0")
        tpth = th + t
        if th == 0 or tpth == 0:
            raise SingularRHS("flow singular at theta in {0, -t}")
        dth = (2 * ka + (c_lin + t + th) * th) / t
        dka = ((1 / tpth + 1 / th) * ka * ka
               + (c_k1 - c_k2 * t / tpth) * ka
               - c_t * t - c_m2 * t * t / th + c_tt * t * t / tpth) / t
        return dth, dka

    return rhs


def ode_rhs(theta, kappa, n: int, t, params: WeightParams,
            prec: PrecisionCtx = None):
    """(d theta/dt, d kappa/dt) of the coupled (theta, kappa) flow.

    The right side never references zeta: the jump size enters only through
    initial data.
    """
    ctx = workprec(prec) if prec is not None else mp.extraprec(20)
    with ctx:
        th, ka, t = to_mpf(theta), to_mpf(kappa), to_mpf(t)
        rhs = _theta_kappa_rhs_factory(n, params)
        dth, dka = rhs(t, th, ka)
        return +dth, +dka


def rr_rhs(R, r, n: int, t, params: WeightParams, prec: PrecisionCtx = None):
    """(dR/dt, dr/dt) of the ladder-residue flow.

    The r-equation carries n(n+mu) in the R/(1-R) term (the n(n+alpha)
    variant fails the equivalence with the (theta, kappa) flow).
    """
    ctx = workprec(prec) if prec is not None else mp.extraprec(20)
    with ctx:
        R, r, t = to_mpf(R), to_mpf(r), to_mpf(t)
        a, m = to_mpf(params.alpha), to_mpf(params.mu)
        if t == 0:
            raise SingularRHS("flow undefined at t = 0")
        if R == 0 or R == 1:
            raise SingularRHS("flow singular at R in {0, 1}")
        dR = (2 * r - a + R * (t * R + 2 * n + a + m - t)) / t
        dr = (((1 - 2 * R) / (R * (1 - R))) * r * r
              - n * (n + m) * R / (1 - R)
              + (2 * n + a + m) * r
              + (2 * n + m) * r / (R - 1)
              - a * r / R) / t
        return +dR, +dr


def flow_map_residual(theta, kappa, n: int, t, params: WeightParams,
                      prec: PrecisionCtx = None):
    """|image of (theta,kappa) flow under R=(th+t)/t, r=k/t-(n+m/2)
    minus the (R, r) flow|, componentwise max.

    The computational form of the two-theory equivalence.
    """
    prec = prec or PrecisionCtx()
    with workprec(prec, 20):
        th, ka, t = to_mpf(theta), to_mpf(kappa), to_mpf(t)
        m = to_mpf(params.mu)
        dth, dka = ode_rhs(th, ka, n, t, params)
        R = (th + t) / t
        r = ka / t - (n + m / 2)
        # chain rule: R and r depend on (theta, t) and (kappa, t)
        dR_chain = dth / t - th / (t * t)
        dr_chain = dka / t - ka / (t * t)
        dR, dr = rr_rhs(R, r, n, t, params)
        return max(abs(dR_chain - dR), abs(dr_chain - dr))


def hamilton_map_residual(theta, kappa, n: int, t, params: WeightParams,
                          convention: str = "prop11",
                          prec: PrecisionCtx = None):
    """|chain-rule (q', p') along the flow minus hamilton_rhs(q, p, t)|, max.

    The directional derivative of the map along the flow is formed with an
    order-4 stencil in a scalar parameter; at 256 bits its truncation is
    far below the 1e-15 acceptance threshold.
    """
    prec = prec or PrecisionCtx()
    with workprec(prec, 40):
        th, ka, t = to_mpf(theta), to_mpf(kappa), to_mpf(t)
        dth, dka = ode_rhs(th, ka, n, t, params)

        def qp(eps):
            hp = to_hamiltonian(th + eps * dth, ka + eps * dka, t + eps,
                                n, params, convention)
            return hp.q, hp.p

        h = mp.mpf(2) ** (-40)
        vals = {s: qp(s * h) for s in (-2, -1, 1, 2)}
        dq = (-vals[2][0] + 8 * vals[1][0] - 8 * vals[-1][0] + vals[-2][0]) / (12 * h)
        dp = (-vals[2][1] + 8 * vals[1][1] - 8 * vals[-1][1] + vals[-2][1]) / (12 * h)
        hp = to_hamiltonian(th, ka, t, n, params, convention)
        pv = PVParams.make(n, params.alpha, params.mu, convention)
        dq_h, dp_h = hamilton_rhs(hp.q, hp.p, t, pv)
        return max(abs(dq - dq_h), abs(dp - dp_h))


# ---------------------------------------------------------------------------
# exact small-t series
# ---------------------------------------------------------------------------


class TruncSeries:
    """Truncated power series with mpf coefficients, fixed order."""

    __slots__ = ("c",)

    def __init__(self, coeffs, order=None):
        c = [to_mpf(v) for v in coeffs]
        if order is not None:
            c = c[:order + 1] + [mp.mpf(0)] * max(0, order + 1 - len(c))
        self.c = c

    @property
    def order(self):
        return len(self.c) - 1

    @classmethod
    def constant(cls, v, order):
        return cls([v] + [0] * order)

    def __add__(self, other):
        return TruncSeries([a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        return TruncSeries([a - b for a, b in zip(self.c, other.c)])

    def __mul__(self, other):
        K = self.order
        out = [mp.mpf(0)] * (K + 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j in range(0, K - i + 1):
                out[i + j] += a * other.c[j]
        return TruncSeries(out)

    def scale(self, s):
        s = to_mpf(s)
        return TruncSeries([a * s for a in self.c])

    def divide(self, other):
        if other.c[0] == 0:
            raise ZeroDivisionError("series division needs a unit constant term")
        K = self.order
        out = [mp.mpf(0)] * (K + 1)
        for i in range(K + 1):
            acc = self.c[i]
            for j in range(1, i + 1):
                acc -= other.c[j] * out[i - j]
            out[i] = acc / other.c[0]
        return TruncSeries(out)

    def eval(self, t):
        t = to_mpf(t)
        acc = mp.mpf(0)
        for a in reversed(self.c):
            acc = acc * t + a
        return acc

    def deriv_eval(self, t):
        t = to_mpf(t)
        acc = mp.mpf(0)
        for i in range(len(self.c) - 1, 0, -1):
            acc = acc * t + i * self.c[i]
        return acc


def moment_series(k: int, params: WeightParams, order: int) -> TruncSeries:
    """Exact Taylor coefficients of mu_k(t) through t^order (integer alpha, mu)."""
    if not params.mu_is_integer:
        raise UnsupportedParameters("moment series requires integer mu")
    al = int(params.alpha)
    m = int(params.mu)
    S = k + al + m
    zeta = to_mpf(params.zeta)
    head = [mp.mpf(0)] * (order + 1)
    for j in range(0, min(al, order) + 1):
        head[j] = (-1) ** j * mp.binomial(al, j) * mp.gamma(S + 1 - j)
    tail = [mp.mpf(0)] * (order + 1)
    for j in range(0, min(k + m, order) + 1):
        tail[j] = mp.binomial(k + m, j) * mp.gamma(S + 1 - j)
    exp_neg = TruncSeries([(-1) ** i / mp.factorial(i)
                           for i in range(order + 1)])
    return (TruncSeries(head)
            - (exp_neg * TruncSeries(tail)).scale(zeta))


def _det_series(entries, order: int) -> TruncSeries:
    """Determinant of a matrix of TruncSeries by Laplace subset recursion.

    det over the top popcount(mask) rows and the column set mask, expanded
    along the last of those rows; sign = (-1)^{(row-1) + position-in-mask}.
    """
    n = len(entries)
    if n == 0:
        return TruncSeries.constant(1, order)
    K = entries[0][0].order
    memo = {0: TruncSeries.constant(1, K)}

    def det_mask(mask):
        if mask in memo:
            return memo[mask]
        row = bin(mask).count("1")
        acc = TruncSeries.constant(0, K)
        sign = 1 if (row - 1) % 2 == 0 else -1
        for col in range(n):
            bit = 1 << col
            if mask & bit:
                sub = det_mask(mask & ~bit)
                term = entries[row - 1][col] * sub
                acc = acc + (term if sign > 0 else term.scale(-1))
                sign = -sign
        memo[mask] = acc
        return acc

    return det_mask((1 << n) - 1)


def aux_pair_series(n: int, params: WeightParams, order: int,
                    prec: PrecisionCtx = None):
    """Exact truncated series of theta_n(t) and kappa_n(t).

    Returns (theta_series, kappa_series).  Valid for integer alpha, mu with
    zeta < 1; all arithmetic runs at the context precision, and for integer
    parameters every coefficient is exact up to rounding.
    """
    prec = prec or PrecisionCtx()
    with workprec(prec, 60):
        al, m = to_mpf(params.alpha), to_mpf(params.mu)
        mk = {k: moment_series(k, params, order)
              for k in range(2 * n + 2)}
        delta = {}
        sigma = {}
        for size in range(n + 2):
            delta[size] = _det_series(
                [[mk[i + j] for j in range(size)] for i in range(size)], order)
            if size == 0:
                sigma[size] = TruncSeries.constant(0, order)
            else:
                sigma[size] = _det_series(
                    [[mk[i + j] for j in range(size - 1)] + [mk[i + size]]
                     for i in range(size)], order)
        root_sum = {s: sigma[s].divide(delta[s]) for s in range(n + 2)}
        b = {i: root_sum[i + 1] - root_sum[i] for i in range(n + 1)}
        a2_n = (delta[n - 1] * delta[n + 1]).divide(delta[n] * delta[n]) \
            if n >= 1 else TruncSeries.constant(0, order)
        lin = TruncSeries([0, 1] + [0] * (order - 1))
        theta = b[n] - TruncSeries.constant(2 * n + 1 + al + m, order) - lin
        kappa = lin.scale(n + m / 2) + a2_n - root_sum[n]
        return theta, kappa


def series_init(n: int, t0, params: WeightParams, prec: PrecisionCtx = None,
                order: int = 6):
    """(theta_n, kappa_n) at small t0 from the exact truncated series.

    Requires 0 < t0 <= 1e-2 and alpha + mu > 1 (expansion ordering), with
    integer alpha and mu.  The default order 6 leaves the truncation error
    around t0^7, far below the ODE tolerance at t0 = 1e-3.
    """
    prec = prec or PrecisionCtx()
    with workprec(prec):
        t0 = to_mpf(t0)
        if not 0 < t0 <= mp.mpf("0.01"):
            raise UnsupportedParameters("series_init requires 0 < t0 <= 1e-2")
        if not to_mpf(params.alpha) + to_mpf(params.mu) > 1:
            raise UnsupportedParameters("series_init requires alpha + mu > 1")
        th_s, ka_s = aux_pair_series(n, params, order, prec)
        return +th_s.eval(t0), +ka_s.eval(t0)


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) integration
# ---------------------------------------------------------------------------

_DP_A = [
    [],
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561),
     Fraction(-212, 729)],
    [Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247),
     Fraction(49, 176), Fraction(-5103, 18656)],
    [Fraction(35, 384), Fraction(0), Fraction(500, 1113), Fraction(125, 192),
     Fraction(-2187, 6784), Fraction(11, 84)],
]
_DP_C = [Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(4, 5),
         Fraction(8, 9), Fraction(1), Fraction(1)]
_DP_B5 = _DP_A[6] + [Fraction(0)]
_DP_B4 = [Fraction(5179, 57600), Fraction(0), Fraction(7571, 16695),
          Fraction(393, 640), Fraction(-92097, 339200), Fraction(187, 2100),
          Fraction(1, 40)]


@dataclass(frozen=True)
class StepControl:
    """Embedded-pair step control: tolerances, limits, singularity guard."""

    rtol: object = "1e-18"
    atol: object = "1e-24"
    h0: Optional[object] = None
    max_step: Optional[object] = None
    max_steps: int = 200000
    guard: object = "1e-9"   # reject states with |theta| or |theta+t| < guard*t
    safety: object = "0.9"


@dataclass
class Trajectory:
    """Accepted integration nodes with (theta, kappa) and run statistics."""

    n: int
    params: WeightParams
    t: list
    theta: list
    kappa: list
    derivs: list               # (dtheta, dkappa) at the nodes, for Hermite
    steps: int
    rejected: int
    max_error_estimate: float
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)

    @property
    def endpoint(self):
        return self.t[-1], self.theta[-1], self.kappa[-1]

    def eval(self, t_query):
        """Cubic-Hermite dense output between accepted nodes."""
        tq = to_mpf(t_query)
        ts = self.t
        if not ts[0] <= tq <= ts[-1]:
            raise ValueError("query outside the trajectory range")
        lo, hi = 0, len(ts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ts[mid] <= tq:
                lo = mid
            else:
                hi = mid
        h = ts[hi] - ts[lo]
        if h == 0:
            return self.theta[lo], self.kappa[lo]
        s = (tq - ts[lo]) / h
        out = []
        for vals, ders in ((self.theta, 0), (self.kappa, 1)):
            y0, y1 = vals[lo], vals[hi]
            f0, f1 = self.derivs[lo][ders], self.derivs[hi][ders]
            h00 = (1 + 2 * s) * (1 - s) ** 2
            h10 = s * (1 - s) ** 2
            h01 = s * s * (3 - 2 * s)
            h11 = s * s * (s - 1)
            out.append(h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1)
        return out[0], out[1]

    def sample(self, t_list):
        """(theta, kappa) at each query: exact node values when the query
        coincides with an accepted step (the t_eval case), Hermite otherwise."""
        node = {}
        for i, t in enumerate(self.t):
            node[t] = i
        out = []
        for tq in t_list:
            tq = to_mpf(tq)
            i = node.get(tq)
            if i is not None:
                out.append((self.theta[i], self.kappa[i]))
            else:
                out.append(self.eval(tq))
        return out


def evolve(n: int, t0, t1, params: WeightParams, prec: PrecisionCtx = None,
           step_ctrl: StepControl = None, y0=None,
           t_eval: Sequence = None) -> Trajectory:
    """Integrate the (theta, kappa) flow from t0 to t1 (forward, t0 <= t1).

    Initial data comes from series_init unless y0 = (theta0, kappa0) is
    supplied.  When t_eval is given, steps land exactly on those nodes.
    Raises SingularityEncountered (with .t_last) if the state drifts into
    the guard zone around theta in {0, -t}; NoConvergence on step underflow.
    """
    prec = prec or PrecisionCtx()
    ctrl = step_ctrl or StepControl()
    with workprec(prec):
        # parse at the context precision so initial data matches what a
        # caller parsing the same literals would see bit-for-bit
        t0 = to_mpf(t0)
        t1 = to_mpf(t1)
        t_eval = [to_mpf(s) for s in (t_eval or [])]
    with workprec(prec, 20):
        if not 0 < t0 <= t1:
            raise UnsupportedParameters("need 0 < t0 <= t1")
        if y0 is None:
            y = list(series_init(n, t0, params, prec))
            init_src = "series"
        else:
            y = [to_mpf(y0[0]), to_mpf(y0[1])]
            init_src = "caller"
        rtol = to_mpf(ctrl.rtol)
        atol = to_mpf(ctrl.atol)
        guard = to_mpf(ctrl.guard)
        safety = to_mpf(ctrl.safety)
        A = [[to_mpf(x) for x in row] for row in _DP_A]
        B5 = [to_mpf(x) for x in _DP_B5]
        B4 = [to_mpf(x) for x in _DP_B4]
        C = [to_mpf(x) for x in _DP_C]

        rhs = _theta_kappa_rhs_factory(n, params)

        def f(t, state):
            th, ka = state
            if abs(th) < guard * t or abs(th + t) < guard * t:
                raise SingularityEncountered(
                    f"theta within guard zone at t={mp.nstr(t, 10)}",
                    t_last=t)
            return rhs(t, th, ka)

        stops = sorted({t1} | {s for s in t_eval if t0 < s <= t1})
        ts = [+t0]
        ys_th = [+y[0]]
        ys_ka = [+y[1]]
        ders = [f(t0, y)]
        rej = 0
        steps = 0
        max_est = mp.mpf(0)

        t = t0
        h = to_mpf(ctrl.h0) if ctrl.h0 is not None else t0 / 4
        hmax = to_mpf(ctrl.max_step) if ctrl.max_step is not None else (t1 - t0)
        k1 = ders[0]
        stop_i = 0
        while t < t1:
            if steps + rej >= ctrl.max_steps:
                raise NoConvergence("step budget exhausted")
            while stop_i < len(stops) and stops[stop_i] <= t:
                stop_i += 1
            next_stop = stops[stop_i]
            h = min(h, hmax, next_stop - t)
            lands_on_stop = (h == next_stop - t)
            if h <= mp.eps * t * 4:
                raise NoConvergence("step size underflow")
            ks = [k1]
            try:
                for s_i in range(1, 7):
                    ti = t + C[s_i] * h
                    yi = [y[c] + h * mp.fsum(A[s_i][j] * ks[j][c]
                                             for j in range(s_i))
                          for c in (0, 1)]
                    ks.append(f(ti, yi))
            except SingularRHS as exc:
                raise SingularityEncountered(str(exc), t_last=t) from exc
            y5 = [y[c] + h * mp.fsum(B5[j] * ks[j][c] for j in range(7))
                  for c in (0, 1)]
            y4 = [y[c] + h * mp.fsum(B4[j] * ks[j][c] for j in range(7))
                  for c in (0, 1)]
            err = mp.mpf(0)
            for c in (0, 1):
                sc = atol + rtol * max(abs(y[c]), abs(y5[c]))
                err = max(err, abs(y5[c] - y4[c]) / sc)
            if err <= 1:
                # land exactly on requested nodes: t + (stop - t) may round
                t = next_stop if lands_on_stop else t + h
                y = y5
                k1 = ks[6]          # FSAL
                ts.append(t)
                ys_th.append(y[0])
                ys_ka.append(y[1])
                ders.append(k1)
                steps += 1
                max_est = max(max_est, err * rtol)
            else:
                rej += 1
            factor = safety * (err + mp.mpf(10) ** (-40)) ** (mp.mpf(-1) / 5)
            h = h * min(mp.mpf(5), max(mp.mpf("0.2"), factor))

    with workprec(prec):
        return Trajectory(
            n=n, params=params, t=[+v for v in ts],
            theta=[+v for v in ys_th], kappa=[+v for v in ys_ka],
            derivs=[(+d[0], +d[1]) for d in ders],
            steps=steps, rejected=rej, max_error_estimate=float(max_est),
            metadata={"initial_data": init_src, "rtol": str(ctrl.rtol),
                      "atol": str(ctrl.atol), "series_order": 6})


# ---------------------------------------------------------------------------
# Painleve V residual
# ---------------------------------------------------------------------------


def pv_rhs_second_derivative(y, yp, t, alphas):
    """Right side of the PV equation solved for y''."""
    a1, a2, a3, a4 = (to_mpf(a) for a in alphas)
    y, yp, t = to_mpf(y), to_mpf(yp), to_mpf(t)
    return ((1 / (2 * y) + 1 / (y - 1)) * yp * yp
            - yp / t
            + (y - 1) ** 2 / (t * t) * (a1 * y + a2 / y)
            + a3 * y / t
            + a4 * y * (y + 1) / (y - 1))


def pv_residual(t_grid: Sequence, q_values: Sequence, alphas,
                prec: PrecisionCtx = None) -> float:
    """Max |q'' - PV right side| over the interior grid, normalized by max|q''|.

    q must be sampled on a uniform grid fine enough for the order-4 central
    stencils; grid points too close to the PV singular locus {0, 1} raise
    SingularPanel.
    """
    prec = prec or PrecisionCtx()
    with workprec(prec, 20):
        ts = [to_mpf(v) for v in t_grid]
        qs = [to_mpf(v) for v in q_values]
        if len(ts) < 7:
            raise SingularPanel("need at least 7 grid points")
        h = ts[1] - ts[0]
        for i in range(1, len(ts)):
            if abs((ts[i] - ts[i - 1]) - h) > abs(h) * mp.mpf("1e-20"):
                raise SingularPanel("grid must be uniform")
        for q in qs:
            if abs(q) < mp.mpf("1e-8") or abs(q - 1) < mp.mpf("1e-8"):
                raise SingularPanel("q too close to the singular locus {0, 1}")
        worst = mp.mpf(0)
        scale = mp.mpf(0)
        residuals = []
        for i in range(2, len(ts) - 2):
            yp = (-qs[i + 2] + 8 * qs[i + 1] - 8 * qs[i - 1] + qs[i - 2]) / (12 * h)
            ypp = (-qs[i + 2] + 16 * qs[i + 1] - 30 * qs[i]
                   + 16 * qs[i - 1] - qs[i - 2]) / (12 * h * h)
            rhs = pv_rhs_second_derivative(qs[i], yp, ts[i], alphas)
            residuals.append(abs(ypp - rhs))
            scale = max(scale, abs(ypp))
        worst = max(residuals)
        return float(worst / max(scale, mp.mpf(1)))


# ---------------------------------------------------------------------------
# flow of the recurrence coefficients and Lax compatibility
# ---------------------------------------------------------------------------


def _mat_mul(X, Y):
    return tuple(tuple(mp.fsum(X[i][k] * Y[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def _mat_sub(X, Y):
    return tuple(tuple(X[i][j] - Y[i][j] for j in range(2)) for i in range(2))


def _mat_absmax(X):
    return max(abs(X[i][j]) for i in range(2) for j in range(2))


def deformation_residual(params: WeightParams, n: int, x, t,
                         prec: PrecisionCtx = None, h=None):
    """Residual of the t-deformation system on the polynomial vector.

    Checks d/dt (p_n, p_{n-1})^T = [Binf - At/(x-t)] (p_n, p_{n-1})^T with
    the t-derivative by central differences across freshly built tables.
    Returns max-abs residual normalized by the vector scale.
    """
    prec = prec or PrecisionCtx()
    with workprec(prec, 20):
        t = to_mpf(t)
        x = to_mpf(x)
        h = to_mpf(h) if h is not None else mp.mpf(2) ** (-20)

        def poly_vec(tt):
            pars = params.replace_t(tt)
            mom = build_moment_table(pars, 2 * (n + 1) + 1, prec,
                                     cross_check=False)
            tab = recurrence_coefficients(mom, n + 1, prec)
            pe = orthopoly_eval(tab, n, x)
            return (pe.value_n, pe.value_nm1), tab

        vec_p, _ = poly_vec(t + h)
        vec_m, _ = poly_vec(t - h)
        vec_0, tab0 = poly_vec(t)
        lax = build_lax(tab0, n)
        B = lax.b_matrix(x)
        resid = mp.mpf(0)
        scale = max(abs(vec_0[0]), abs(vec_0[1]), mp.mpf(1))
        for c in (0, 1):
            dd = (vec_p[c] - vec_m[c]) / (2 * h)
            model = B[c][0] * vec_0[0] + B[c][1] * vec_0[1]
            resid = max(resid, abs(dd - model))
        return float(resid / scale)


def compatibility_residual(params: WeightParams, n: int, x, t,
                           prec: PrecisionCtx = None, h=None):
    """Zero-curvature residual dA/dt - dB/dx + AB - BA at (x, t).

    dA/dt by central differences of the Lax build at t +/- h; dB/dx exact.
    Returns the max-abs entry normalized by the largest term entry.
    """
    prec = prec or PrecisionCtx()
    with workprec(prec, 20):
        t = to_mpf(t)
        x = to_mpf(x)
        h = to_mpf(h) if h is not None else mp.mpf(2) ** (-20)

        def lax_at(tt):
            pars = params.replace_t(tt)
            mom = build_moment_table(pars, 2 * (n + 1) + 1, prec,
                                     cross_check=False)
            tab = recurrence_coefficients(mom, n + 1, prec)
            return build_lax(tab, n)

        lax_p = lax_at(t + h)
        lax_m = lax_at(t - h)
        lax_0 = lax_at(t)
        Ap = lax_p.a_matrix(x)
        Am = lax_m.a_matrix(x)
        dA = tuple(tuple((Ap[i][j] - Am[i][j]) / (2 * h) for j in range(2))
                   for i in range(2))
        A0 = lax_0.a_matrix(x)
        B0 = lax_0.b_matrix(x)
        dB = lax_0.b_matrix_dx(x)
        comm = _mat_sub(_mat_mul(A0, B0), _mat_mul(B0, A0))
        resid = _mat_sub(_mat_sub(dA, dB), _mat_sub(_mat_mul(B0, A0),
                                                    _mat_mul(A0, B0)))
        # resid = dA - dB + AB - BA
        scale = max(_mat_absmax(dA), _mat_absmax(dB), _mat_absmax(comm),
                    mp.mpf(1))
        return float(_mat_absmax(resid) / scale)


def ab_flow_check(params: WeightParams, n: int, t_grid: Sequence,
                  prec: PrecisionCtx = None, threshold: float = 1e-8,
                  n_max: int = None) -> Report:
    """Flow laws of a_n(t), b_n(t) against finite differences on a t-grid.

    Verifies both printed normalizations (they are equivalent and must both
    hold):   2t a'/a = 2 + b_{n-1} - b_n     and   2 a'/a = R_{n-1} - R_n,
             t b' = a_n^2 - a_{n+1}^2 + b_n  and   b' = r_n - r_{n+1};
    plus the t-deformation residual and the zero-curvature compatibility
    at x = -1 on the middle node.  t_grid must be uniform and away from 0.
    """
    prec = prec or PrecisionCtx()
    n_max = n_max or (n + 1)
    rep = Report(
        title="ab-flow",
        context={"alpha": str(params.alpha), "mu": str(params.mu),
                 "zeta": str(params.zeta), "n": n,
                 "t_grid": [str(v) for v in t_grid], "threshold": threshold})
    with workprec(prec, 20):
        ts = [to_mpf(v) for v in t_grid]
        h = ts[1] - ts[0]
        for i in range(1, len(ts)):
            if abs((ts[i] - ts[i - 1]) - h) > abs(h) * mp.mpf("1e-20"):
                raise SingularPanel("t grid must be uniform")
        if len(ts) < 5:
            raise SingularPanel("need at least 5 grid nodes")

        tabs = []
        for tt in ts:
            pars = params.replace_t(tt)
            mom = build_moment_table(pars, 2 * n_max + 1, prec,
                                     cross_check=False)
            tabs.append(recurrence_coefficients(mom, n_max, prec))

        a_vals = [tab.a(n) for tab in tabs]
        b_vals = [tab.b[n] for tab in tabs]
        pairs_n = [theta_kappa_from_recurrence(tab, n) for tab in tabs]
        pairs_m = [theta_kappa_from_recurrence(tab, n - 1) for tab in tabs]
        pairs_p = [theta_kappa_from_recurrence(tab, n + 1) for tab in tabs]

        def d4(vals, i):
            return (-vals[i + 2] + 8 * vals[i + 1]
                    - 8 * vals[i - 1] + vals[i - 2]) / (12 * h)

        for i in range(2, len(ts) - 2):
            t = ts[i]
            da = d4(a_vals, i)
            db = d4(b_vals, i)
            tab = tabs[i]
            rep.add("ab_flow_a_t",
                    "2t a_n'/a_n = 2 + b_{n-1} - b_n", n, t,
                    [2 * t * da / a_vals[i], -2, -tab.b[n - 1], tab.b[n]],
                    threshold)
            rep.add("ab_flow_b_t",
                    "t b_n' = a_n^2 - a_{n+1}^2 + b_n", n, t,
                    [t * db, -tab.a2[n], tab.a2[n + 1], -tab.b[n]],
                    threshold)
            rep.add("ab_flow_a_ladder",
                    "2 a_n'/a_n = R_{n-1} - R_n", n, t,
                    [2 * da / a_vals[i], -pairs_m[i].R, pairs_n[i].R],
                    threshold)
            rep.add("ab_flow_b_ladder",
                    "b_n' = r_n - r_{n+1}", n, t,
                    [db, -pairs_n[i].r, pairs_p[i].r], threshold)

        mid = ts[len(ts) // 2]
        rep.add("deformation_t_ode",
                "d/dt (p_n, p_{n-1}) = [Binf - At/(x-t)] (p_n, p_{n-1})",
                n, f"x=-1, t={mp.nstr(mid, 8)}",
                [mp.mpf(deformation_residual(params, n, -1, mid, prec))],
                threshold)
        rep.add("zero_curvature",
                "dA/dt - dB/dx + AB - BA = 0",
                n, f"x=-1, t={mp.nstr(mid, 8)}",
                [mp.mpf(compatibility_residual(params, n, -1, mid, prec))],
                threshold)
    return rep
