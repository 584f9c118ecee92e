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

Every t-derivative comes from one jet arithmetic (moments.TruncSeries).
For integer alpha and mu every moment is an entire function of t with
explicitly known Taylor coefficients about any t*, so the Hankel
determinants (Gaussian elimination on jets), the recurrence coefficients
and (theta_n, kappa_n) all have jets computed by series arithmetic
(aux_pair_series).  About t* = 0 they are the small-t initial data, which
supersede hand-truncated expansions whose leading terms they reproduce:

    theta_n = -m/(a+m) t + a m (a+m+2n+1)/((a+m)^2((a+m)^2-1)) t^2 + ...
    kappa_n =  m(2n+a+m)/(2(a+m)) t - 2 a m n (n+a+m)/((a+m)^2((a+m)^2-1)) t^2 + ...

The series order is chosen from t0, alpha + mu and the tolerance so that
the flow's (t1/t0)^(1+alpha+mu) amplification of the initial error stays
below it.  About t* > 0 one order-5 table gives the a_n/b_n flow laws as
jet identities, checked coefficient by coefficient (s^0 .. s^4), and its
order-1 terms the t-deformation and the zero-curvature residuals.  The flow's
order-1 jet, mapped through a chart (rr_map or _qp_map), is checked against
that chart's own field (_chart_residual), and hamilton_rhs reads the
partials of tH off its jets.  Only pv_residual differentiates numerically:
order-4 stencils on the sampled q, Richardson-combined as
oracle.finite_difference combines them.  It takes samples, as the
evolve command and its benchmark hand them over, so the stencils stay.
The stencils run on the samples as exact integers, each derivative one
rounded division (kernels.py); each sample's q (to_q) and the right side
run plain mpf arithmetic: _q_map, _qp_map, _t_hamiltonian and
pv_rhs_second_derivative are the one copy of each formula.
The jets carry a_n^2, never a_n: polynomial jets come from the monic
recurrence and the Lax pair acts on (P_n, P_{n-1}) (the monic gauge), so
signed weights need no square root either.

The integrator is a Taylor-series method in the working precision.  Each
step builds the jet of (theta, kappa) about its start by the standard
automatic-differentiation recursions (products, 1/theta, 1/(theta+t) and
the division by t, O(K^2) for order K), with the order K taken from the
tolerance and the step size from the jet's last two coefficients (Jorba &
Zou, Exp. Math. 14, 2005).  Each step runs on one integer jet (FlowJet,
_flow_jet_factory): its Bernstein sign test, its end and the dense output
(Trajectory) all read the jet's integers.
Integration stops with SingularityEncountered when theta or theta + t
reaches the guard zone around 0 at a node, when its step polynomial may
vanish inside a step, or when the step size collapses at a pole.  At
(alpha, zeta) = (0, 0) the weight does not depend on t, theta_n = -t
identically, and evolve raises DegenerateTheta before it starts.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field, replace
from operator import mul
from typing import NamedTuple, Optional, Sequence

import mpmath as mp
from mpmath.libmp import from_int, from_man_exp, mpf_div

from .errors import (DegenerateTheta, NoConvergence, SingularPanel,
                     SingularRHS, SingularityEncountered,
                     UnsupportedParameters)
from .hankel import GUARD_BITS, hankel_minors, monic_values, recurrence_data
from .kernels import GUARD, exact_column, horner, to_fixed, top_exp
from .moments import TruncSeries, WeightParams, moment_jets
from .precision import (DEFAULT_CTX, PrecisionCtx, finite,
                        fraction_or_none, to_mpf, workprec)
from .semiclassical import Report, lax_residues, lax_x_matrices, rr_map

# ---------------------------------------------------------------------------
# parameter wiring
# ---------------------------------------------------------------------------

CONVENTIONS = ("prop11", "cor12")
BAD_CONVENTION = f"convention must be one of {CONVENTIONS}"
DEGENERATE_MAP = "map undefined at theta in {0, -t} or t = 0"


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
            raise UnsupportedParameters(BAD_CONVENTION)

    @classmethod
    @functools.lru_cache(maxsize=64, typed=True)
    def make(cls, n: int, alpha, mu, convention: str = "prop11",
             prec: PrecisionCtx = None) -> "PVParams":
        """The parameters of weight (alpha, mu) at n, at prec's width (the
        default context's when None).  Memoized on the arguments and their
        types: the result is frozen and its width is pinned here, so a
        repeated call returns the same bits without recomputing them."""
        with workprec(prec or DEFAULT_CTX):
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
                raise UnsupportedParameters(BAD_CONVENTION)
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


def _t_hamiltonian(q, p, t, pv: PVParams):
    """tH(q, p, t): plain arithmetic, so q or p may be a jet."""
    v1, v2, v3, v4 = (to_mpf(c) for c in pv.v)
    return (q * ((q - 1) * (q - 1)) * p * p
            - ((v2 - v1) * ((q - 1) * (q - 1)) - 2 * (v1 + v2) * q * (q - 1)
               + t * q) * p
            + (v3 - v1) * (v4 - v1) * (q - 1))


def hamiltonian_eval(q, p, t, pv: PVParams, prec: PrecisionCtx = None):
    """H(q, p, t), 20 bits above prec or DEFAULT_CTX (tH is polynomial)."""
    with workprec(prec or DEFAULT_CTX, 20):
        q, p, t = finite(q=q, p=p, t=t)
        if t == 0:
            raise SingularRHS("Hamiltonian undefined at t = 0")
        return _t_hamiltonian(q, p, t, pv) / t


def hamilton_rhs(q, p, t, pv: PVParams, prec: PrecisionCtx = None):
    """(dq/dt, dp/dt) = (dH/dp, -dH/dq), read off order-1 jets of tH in p
    and in q, 20 bits above prec or DEFAULT_CTX."""
    with workprec(prec or DEFAULT_CTX, 20):
        q, p, t = finite(q=q, p=p, t=t)
        if t == 0:
            raise SingularRHS("Hamilton equations undefined at t = 0")
        d_tH_dp = _t_hamiltonian(q, TruncSeries([p, 1]), t, pv).c[1]
        d_tH_dq = _t_hamiltonian(TruncSeries([q, 1]), p, t, pv).c[1]
        return d_tH_dp / t, -d_tH_dq / t


# ---------------------------------------------------------------------------
# variable maps
# ---------------------------------------------------------------------------


def _q_map(th, t, convention: str):
    """q of (theta, t): plain arithmetic, so jets map too."""
    return (th + t) / th if convention == "prop11" else th / (th + t)


def _qp_map(th, ka, t, n: int, params: WeightParams, convention: str):
    """q and p of (theta, kappa, t): plain arithmetic, so jets map too."""
    a, m = to_mpf(params.alpha), to_mpf(params.mu)
    q = _q_map(th, t, convention)
    if convention == "prop11":
        return q, th * ((n + a + m / 2) * t - ka) / (t * (th + t))
    return q, (th + t) * (ka - m * t / 2
                          + th * (2 * n + a + m + 1 + t + th)) / (t * th)


def to_q(theta, t, convention: str = "prop11", prec: PrecisionCtx = None):
    """to_hamiltonian's q alone, with its bits and its refusals."""
    if convention not in CONVENTIONS:
        raise UnsupportedParameters(BAD_CONVENTION)
    with workprec(prec or DEFAULT_CTX, 20):
        th, t = finite(theta=theta, t=t)
        if t == 0 or th == 0 or th + t == 0:
            raise DegenerateTheta(DEGENERATE_MAP)
        return +_q_map(th, t, convention)


def to_hamiltonian(theta, kappa, t, n: int, params: WeightParams,
                   convention: str = "prop11",
                   prec: PrecisionCtx = None) -> HamiltonPoint:
    """(theta, kappa) -> (q, p, H) by _qp_map and _t_hamiltonian, 20 bits
    above prec or DEFAULT_CTX; real and complex data alike."""
    pv = PVParams.make(n, params.alpha, params.mu, convention, prec)
    with workprec(prec or DEFAULT_CTX, 20):
        th, ka, t = finite(theta=theta, kappa=kappa, t=t)
        if t == 0 or th == 0 or th + t == 0:
            raise DegenerateTheta(DEGENERATE_MAP)
        q, p = _qp_map(th, ka, t, n, params, convention)
        H = _t_hamiltonian(q, p, t, pv) / t
        return HamiltonPoint(q=+q, p=+p, t=+t, H=+H)


def from_hamiltonian(q, p, t, n: int, params: WeightParams,
                     convention: str = "prop11",
                     prec: PrecisionCtx = None):
    """(q, p) -> (theta, kappa): exact algebraic inverse of to_hamiltonian,
    20 bits above prec or DEFAULT_CTX.  t = 0 is refused as to_hamiltonian
    refuses it: the image theta = 0 lies on its degenerate locus."""
    with workprec(prec or DEFAULT_CTX, 20):
        q, p, t = finite(q=q, p=p, t=t)
        a, m = to_mpf(params.alpha), to_mpf(params.mu)
        if convention not in CONVENTIONS:
            raise UnsupportedParameters(BAD_CONVENTION)
        if t == 0:
            raise DegenerateTheta(DEGENERATE_MAP)
        if q == 1:
            raise DegenerateTheta("inverse undefined at q = 1")
        if convention == "prop11":
            th = t / (q - 1)
            ka = t * (n + a + m / 2 - p * q)
        else:
            th = t * q / (1 - q)
            ka = (p * t * th / (t + th)
                  - th * (2 * n + a + m + 1 + t + th) + m * t / 2)
        return +th, +ka


# ---------------------------------------------------------------------------
# the coupled flows
# ---------------------------------------------------------------------------


class FlowJet(NamedTuple):
    """One step's Taylor jet on integers: theta(tk + s) = sum_j th[j]
    (s 2^-p)^j 2^-F, kappa likewise with ka, and TK = tk 2^F exactly."""

    tk: object
    F: int
    p: int
    TK: int
    th: list
    ka: list

    def coeff(self, Y, j, exact=False):
        """Coefficient j of th or ka (Y): an mpf, exact or rounded at the
        working precision."""
        rounding = () if exact else mp.mp._prec_rounding
        return mp.make_mpf(from_man_exp(Y[j], -self.F - self.p * j, *rounding))

    def rescaled(self, g):
        """The same jet at 2^g, g >= p: th[j] 2^((g - p) j), exactly."""
        th, ka = ([y << (g - self.p) * j for j, y in enumerate(Y)]
                  for Y in (self.th, self.ka))
        return self._replace(p=g, th=th, ka=ka)

    def value(self, Y, S, e):
        """th or ka (Y) at s = S 2^e <= 2^p by integer Horner, one floor
        per step, rounded once at the working precision."""
        return mp.make_mpf(from_man_exp(horner(Y, S, self.p - e), -self.F,
                                        *mp.mp._prec_rounding))


def _flow_jet_factory(n: int, params: WeightParams):
    """Taylor jets of the (theta, kappa) flow on integers, constants hoisted.

    jet(tk, th0, ka0, K) returns the FlowJet of theta(tk + s), kappa(tk + s)
    through s^K for real (mpf) data, by the recursions for products,
    1/theta, 1/(theta+t) and the division by t = tk + s: if t y' = F then
    y_{j+1} = (F_j - j y_j) / ((j+1) tk), O(K^2) per jet.  Coefficient j is
    the integer y_j h^j 2^F, h = 2^p = 2^floor(log2 |tk|), the unit 2^-F
    prec + GUARD bits below the largest of |th0|, |ka0|, |tk| (lower if tk
    needs it to be exact), so a product is an integer convolution and one
    floor, t x is tk X_j + h X_(j-1), a reciprocal one division, and each
    y_(j+1) h^(j+1) one floor division.  The PV constants are the working
    width's, exact.  A-priori bound, in units: th0 and ka0 within one, each
    floor less than one, and first-order propagation, |b| e_a + |a| e_b for
    a product, e_d u_0^2 for u_0 = 1/d, (e_F + j e_y) h / ((j+1) |tk|) for
    the division (tests/test_painleve.py checks it at 1024 bits).
    """
    a, m = to_mpf(params.alpha), to_mpf(params.mu)
    consts = [(2 * n + a + 1 + m)._mpf_, (2 * n + a + m)._mpf_,
              (n * n + (n + m / 2) * (a + m))._mpf_, (m * m / 4)._mpf_,
              ((n + m / 2) * (n + a + m / 2))._mpf_]
    # every constant exactly at 2^-s, s >= 0
    s = -min([0] + [c[2] for c in consts if c[1]])
    c_lin, c_k2, c_t, c_m2, c_tt = (to_fixed(c, -s) for c in consts)

    def jet(tk, th0, ka0, K):
        if tk == 0:
            raise SingularRHS("flow undefined at t = 0")
        if th0 == 0 or th0 + tk == 0:
            raise SingularRHS("flow singular at theta in {0, -t}")
        data = [tk._mpf_, th0._mpf_, ka0._mpf_]
        _, _, exp, bc = data[0]
        F = max(mp.mp.prec + GUARD - top_exp(data), -exp)
        p, F2 = exp + bc - 1, 2 * F
        fp = F + p
        TK, th, ka = (to_fixed(v, -F) for v in data)
        th, ka = [th], [ka]
        w = [th[0] + TK]                                # theta + t
        if not (th[0] and w[0]):
            raise SingularRHS("flow singular at theta in {0, -t}")
        u, v = [(1 << F2) // th[0]], [(1 << F2) // w[0]]   # 1/theta, 1/w
        uv, tv, sq, g, tg = [], [], [], [], []

        def tx(x, j):       # t x at s^j, at 2^-2F: tk X_j + h X_(j-1)
            return TK * x[j] + (x[j - 1] << fp if j else 0)

        def cv(x, y, j, lo=0):      # sum_i x_i y_(j-i), at 2^-2F
            return sum(map(mul, x[lo:j + 1], y[j - lo::-1]))

        for j in range(K):
            if j:
                w.append(th[1] + (1 << fp) if j == 1 else th[j])
                u.append(-u[0] * cv(th, u, j, 1) >> F2)
                v.append(-v[0] * cv(w, v, j, 1) >> F2)
            uv.append(u[j] + v[j])
            tv.append(tx(v, j) >> F)
            sq.append(cv(ka, ka, j) >> F)
            g.append(c_tt * v[j] - c_m2 * u[j] >> s)
            tg.append(tx(g, j) >> F)
            f_th = (2 * ka[j] + (c_lin * th[j] >> s)
                    + (tx(th, j) + cv(th, th, j) >> F))
            f_ka = ((cv(uv, sq, j) >> F) + (c_lin * ka[j] >> s)
                    - (c_k2 * cv(tv, ka, j) >> F + s) + (tx(tg, j) >> F))
            if j < 2:       # the -c_t t term: t is tk + s, scaled [tk, h]
                f_ka -= c_t * (TK if j == 0 else 1 << fp) >> s
            den = (j + 1) * TK
            th.append((f_th - j * th[j] << fp) // den)
            ka.append((f_ka - j * ka[j] << fp) // den)
        return FlowJet(tk, F, p, TK, th, ka)

    return jet


def ode_rhs(theta, kappa, n: int, t, params: WeightParams,
            prec: PrecisionCtx = None):
    """(d theta/dt, d kappa/dt) of the coupled (theta, kappa) flow, 20 bits
    above prec or DEFAULT_CTX.

    The right side never references zeta: the jump size enters only through
    initial data.
    """
    with workprec(prec or DEFAULT_CTX, 20):
        th, ka, t = finite(theta=theta, kappa=kappa, t=t)
        jet = _flow_jet_factory(n, params)(t, th, ka, 1)
        return jet.coeff(jet.th, 1), jet.coeff(jet.ka, 1)


def rr_rhs(R, r, n: int, t, params: WeightParams, prec: PrecisionCtx = None):
    """(dR/dt, dr/dt) of the ladder-residue flow, 20 bits above prec or
    DEFAULT_CTX.

    The r-equation carries n(n+mu) in the R/(1-R) term (the n(n+alpha)
    variant fails the equivalence with the (theta, kappa) flow).
    """
    with workprec(prec or DEFAULT_CTX, 20):
        R, r, t = finite(R=R, r=r, t=t)
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


def _chart_residual(theta, kappa, n: int, t, params: WeightParams,
                    prec: PrecisionCtx, extra_bits: int, chart, field):
    """|image of the (theta, kappa) flow under chart minus field|, max.

    At work = (prec or DEFAULT_CTX) + extra_bits bits, the flow's
    order-1 jet of (theta, kappa) at t is mapped through chart(th, ka, t)
    -> (X, Y), plain arithmetic, so (X', Y') along the flow is exact to
    working precision; field(X, Y, t, work) is the chart's own (X', Y').
    """
    work = PrecisionCtx((prec or DEFAULT_CTX).significand_bits + extra_bits)
    with workprec(work):
        th, ka, t = to_mpf(theta), to_mpf(kappa), to_mpf(t)
        jet = _flow_jet_factory(n, params)(t, th, ka, 1)
        X, Y = chart(TruncSeries([th, jet.coeff(jet.th, 1)]),
                     TruncSeries([ka, jet.coeff(jet.ka, 1)]),
                     TruncSeries([t, 1]))
        dX, dY = field(X.c[0], Y.c[0], t, work)
        return max(abs(X.c[1] - dX), abs(Y.c[1] - dY))


def flow_map_residual(theta, kappa, n: int, t, params: WeightParams,
                      prec: PrecisionCtx = None):
    """|image of (theta,kappa) flow under R=(th+t)/t, r=k/t-(n+m/2)
    minus the (R, r) flow|, componentwise max.

    The computational form of the two-theory equivalence.
    """
    return _chart_residual(
        theta, kappa, n, t, params, prec, 20,
        lambda th, ka, s: rr_map(th, ka, s, n, params),
        lambda R, r, s, ctx: rr_rhs(R, r, n, s, params, ctx))


def hamilton_map_residual(theta, kappa, n: int, t, params: WeightParams,
                          convention: str = "prop11",
                          prec: PrecisionCtx = None):
    """|(q', p') along the flow minus hamilton_rhs(q, p, t)|, max, with
    (q, p) the map of to_hamiltonian (_qp_map) and PVParams at the chart's
    width, so a real mu's constants are rounded no coarser than the chart."""
    return _chart_residual(
        theta, kappa, n, t, params, prec, 40,
        lambda th, ka, s: _qp_map(th, ka, s, n, params, convention),
        lambda q, p, s, ctx: hamilton_rhs(
            q, p, s,
            PVParams.make(n, params.alpha, params.mu, convention, ctx), ctx))


# ---------------------------------------------------------------------------
# jets of the Hankel data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JetTable:
    """Taylor jets in s of the recurrence data at t = about + s.

    delta[m], sigma[m] for m <= n_max + 1; b[m], theta[m], kappa[m] for
    m <= n_max; a2[m] for 1 <= m <= n_max (a2[0] is zero).  The map of
    RecurrenceTable (hankel.recurrence_data) applied to jets, so the
    coefficient of s^j is the j-th t-derivative over j!.
    """

    params: WeightParams
    about: object
    n_max: int
    delta: tuple
    sigma: tuple
    a2: tuple
    b: tuple
    theta: tuple
    kappa: tuple

    @property
    def t(self) -> TruncSeries:
        return TruncSeries([self.about, 1], self.delta[0].order)


def aux_pair_series(n_max: int, params: WeightParams, order: int,
                    prec: PrecisionCtx = None, about=0) -> JetTable:
    """Jets through s^order of the recurrence data at t = about + s.

    Built from moment_jets at integer alpha, mu; zeta < 1.  About 0 the
    jets are the exact small-t series (series_init); about any t > 0 their
    order-1 terms are the t-derivatives that the flow laws, the deformation
    and the zero-curvature checks read.  Arithmetic runs with the GUARD_BITS
    of the numeric tables, the moment recurrence with its own on top.  An
    n_max that is not an int, an order that is not a non-negative int, or
    an about that is not finite (moment_jets), is refused by name.
    """
    if not isinstance(n_max, int):
        raise UnsupportedParameters(
            f"n_max must be an integer, got n_max = {n_max!r}")
    if not isinstance(order, int) or order < 0:
        raise UnsupportedParameters(
            f"order must be a non-negative integer, got order = {order!r}")
    with workprec(prec or DEFAULT_CTX, GUARD_BITS):
        about = to_mpf(about)
        mk = moment_jets(2 * n_max + 1, params, order, about)
        delta, sigma = hankel_minors(mk, n_max + 1)
        a2, b, theta, kappa = recurrence_data(
            delta, sigma, TruncSeries([about, 1], order), params)
    return JetTable(params, about, n_max, tuple(delta), tuple(sigma),
                    tuple(a2), tuple(b), tuple(theta), tuple(kappa))


def _series_order(t0, params: WeightParams, prec: PrecisionCtx) -> int:
    """Default order of the small-t series initial data.

    An error d in the data at t0 reaches t1 as d (t1/t0)^(1+alpha+mu), and
    the truncation error of the order-K series is about t0^(K+1) (theta and
    kappa are analytic in a disc of radius about 1).  The order keeps the
    amplified error to t1 = 1 below prec.tol, with two orders to spare for
    t1 of a few units: K = alpha + mu + ln(tol)/ln(t0) + 2.
    """
    with workprec(prec):
        t0 = to_mpf(t0)
        a_m = to_mpf(params.alpha) + to_mpf(params.mu)
        return int(mp.ceil(a_m + mp.log(prec.tol_mpf()) / mp.log(t0))) + 2


def _series_data(n: int, t0, params: WeightParams, prec: PrecisionCtx,
                 order: Optional[int]):
    """(theta, kappa, order, truncation estimate) at t0 from the series.

    The estimate is the size of the last kept term, max(|theta_K|, |kappa_K|)
    t0^K.
    """
    with workprec(prec):
        t0 = to_mpf(t0)
        if not 0 < t0 <= mp.mpf("0.01"):
            raise UnsupportedParameters("series_init requires 0 < t0 <= 1e-2")
        if not to_mpf(params.alpha) + to_mpf(params.mu) > 1:
            raise UnsupportedParameters("series_init requires alpha + mu > 1")
        if order is None:
            order = _series_order(t0, params, prec)
        jets = aux_pair_series(n, params, order, prec)
        th_s, ka_s = jets.theta[n], jets.kappa[n]
        est = max(abs(th_s.c[-1]), abs(ka_s.c[-1])) * t0 ** order
        return +th_s.eval(t0), +ka_s.eval(t0), order, +est


def series_init(n: int, t0, params: WeightParams, prec: PrecisionCtx = None,
                order: Optional[int] = None):
    """(theta_n, kappa_n) at small t0 from the exact truncated series.

    Requires 0 < t0 <= 1e-2 and alpha + mu > 1 (expansion ordering), with
    integer alpha and mu.  The default order (_series_order) leaves a
    truncation error that stays below prec.tol after the flow's
    (t1/t0)^(1+alpha+mu) amplification to t1 = 1; an explicit order, a
    non-negative int, wins.  An n that is not an integer is refused by
    name.
    """
    if not isinstance(n, int):
        raise UnsupportedParameters(f"n must be an integer, got n = {n!r}")
    if n < 0:
        raise UnsupportedParameters(f"n must be >= 0, got {n}")
    prec = prec or DEFAULT_CTX
    th, ka, _, _ = _series_data(n, t0, params, prec, order)
    return th, ka


# ---------------------------------------------------------------------------
# Taylor-series integration
# ---------------------------------------------------------------------------


MAX_STEPS = 200000
THETA_GUARD = "1e-9"   # raise at nodes with |theta| or |theta + t| < this * t


@dataclass(frozen=True)
class StepControl:
    """Taylor step control: the tolerances, 0 < rtol < 1 and atol >= 0.

    The order is ceil(-ln(rtol)/2) + 1; each step is sized so that the
    last two terms of its jet stay below max(atol, rtol |y|).
    """

    rtol: object = "1e-30"
    atol: object = "1e-36"

    def __post_init__(self):
        rtol, atol = fraction_or_none(self.rtol), fraction_or_none(self.atol)
        if rtol is None or not 0 < rtol < 1:
            raise UnsupportedParameters(
                f"rtol must be in (0, 1), got {self.rtol!r}")
        if atol is None or atol < 0:
            raise UnsupportedParameters(
                f"atol must be >= 0, got {self.atol!r}")


def _taylor_order(rtol) -> int:
    """Jorba-Zou order for relative tolerance rtol: ceil(-ln(rtol)/2) + 1.

    At this order the step that keeps the last term near rtol is about e^-2
    times the jet's radius of convergence, which minimises the work per
    unit t (Jorba & Zou, Exp. Math. 14, 2005).
    """
    return int(mp.ceil(-mp.log(to_mpf(rtol)) / 2)) + 1


def _vanishing_start(c, p: int, length, depth: int = 8):
    """Offset of the first piece of [0, length] (an mpf > 0) on which
    sum_j c_j (s 2^-p)^j, for integers c_j, may vanish, or None when it
    keeps its sign on all of [0, length].

    The polynomial lies in the convex hull of its Bernstein coefficients on
    a piece, so a piece whose coefficients share one sign is cleared; the
    others are halved by de Casteljau's algorithm, up to depth times, all
    on integer multiples of them by one positive factor (length 2^-p =
    M 2^r gives c_j M^j 2^(r j - min(0, r) K) lcm_i C(K, i) / C(K, j), and
    level i of a halving is scaled by 2^(K - i)), so each sign tested and
    the offset, i length 2^-d for piece i of level d, are exact.  Where
    |c_0| exceeds S = sum_(j>0) |c_j| (length 2^-p)^j, rounded up through a
    64-bit ceiling of length 2^-p, every coefficient has c_0's sign.
    """
    K = len(c) - 1
    _, man, exp, _ = length._mpf_
    r = exp - p
    lam = man << r + 64 if r + 64 >= 0 else -(-man >> -(r + 64))
    pw, bound = 1 << 64, 0
    for cj in c[1:]:
        pw = -(-pw * lam >> 64)
        bound -= -abs(cj) * pw >> 64
    if abs(c[0]) > bound:
        return None
    d = math.lcm(*(math.comb(K, j) for j in range(K + 1)))
    b = [cj * man ** j * (d // math.comb(K, j)) << r * j - min(0, r) * K
         for j, cj in enumerate(c)]
    for i in range(1, K + 1):          # b_k = sum_j C(k, j) a_j / C(K, j)
        for k in range(K, i - 1, -1):
            b[k] += b[k - 1]

    def first(b, piece, level):
        if min(b) > 0 or max(b) < 0:
            return None
        if level == depth:
            return mp.make_mpf(from_man_exp(man * piece, exp - level))
        left, right, x = [b[0] << K], [b[-1] << K], b
        for i in range(1, K + 1):
            x = [x[k] + x[k + 1] for k in range(len(x) - 1)]
            left.append(x[0] << K - i)
            right.append(x[-1] << K - i)
        found = first(left, 2 * piece, level + 1)
        if found is None:
            found = first(right[::-1], 2 * piece + 1, level + 1)
        return found

    return first(b, 0, 0)


@dataclass
class Trajectory:
    """Integration nodes with (theta, kappa), step jets and run statistics.

    step_jets[i] is the integer jet (FlowJet) of step i about its start
    t_i, at a power 2^p no shorter than the step, and jets[i] = (t_i, theta
    jet, kappa jet) the same polynomials as TruncSeries of exact mpf; the
    step ends where step i + 1 starts (the last at the final node).  The
    step size is fixed from the jet before the step is taken, so `rejected`
    is always 0.  eval and sample run at the trajectory's precision `prec`,
    whatever the caller's context: a query at a node returns the stored
    values, any other FlowJet.value at its exact offset, within K units of
    2^-F of the order-K stored polynomial before its one rounding
    (kernels.py), so within one ulp unless below K 2^(1 + prec - F).
    """

    n: int
    params: WeightParams
    t: list
    theta: list
    kappa: list
    step_jets: list
    steps: int
    rejected: int
    max_error_estimate: float
    metadata: dict = field(default_factory=dict)
    prec: PrecisionCtx = DEFAULT_CTX

    def __len__(self):
        return len(self.t)

    @property
    def endpoint(self):
        return self.t[-1], self.theta[-1], self.kappa[-1]

    @property
    def jets(self):
        return [(J.tk, *(TruncSeries([J.coeff(Y, j, True)
                                      for j in range(len(Y))])
                         for Y in (J.th, J.ka))) for J in self.step_jets]

    def eval(self, t_query):
        """Dense output at one query, as sample reads it."""
        return self.sample([t_query])[0]

    def sample(self, t_list):
        """(theta, kappa) at each query: exact node values when the query
        coincides with a node, the step polynomials on integers otherwise.
        A query that is not a finite real number, or lies outside the
        trajectory, is refused by name."""
        with workprec(self.prec):
            qs = [_query(tq) for tq in t_list]
            # nodes, step starts and queries as exact integers at one scale
            nt, ns = len(self.t), len(self.step_jets)
            X, e = exact_column([v._mpf_ for v in self.t]
                                + [J.tk._mpf_ for J in self.step_jets]
                                + [v._mpf_ for v in qs])
            nodes, starts = X[:nt], X[nt:nt + ns]
            node = {T: i for i, T in enumerate(nodes)}
            out = []
            for T in X[nt + ns:]:
                if not nodes[0] <= T <= nodes[-1]:
                    raise UnsupportedParameters(
                        "query outside the trajectory")
                i = node.get(T)
                if i is not None:
                    out.append((self.theta[i], self.kappa[i]))
                    continue
                k = bisect.bisect_right(starts, T) - 1
                J = self.step_jets[k]
                out.append((J.value(J.th, T - starts[k], e),
                            J.value(J.ka, T - starts[k], e)))
        return out


def _query(tq):
    """A dense-output query rounded to an mpf at the current precision, or
    refused by name when it is not a finite real number."""
    try:
        v = to_mpf(tq)
    except (TypeError, ValueError):
        v = None
    if type(v) is not mp.mpf or not mp.isfinite(v):
        raise UnsupportedParameters(
            f"query must be a finite real number, got {tq!r}")
    return +v


def _caller_data(y0):
    """y0 = (theta0, kappa0) as two finite mpf, or refused by name."""
    try:
        th, ka = (to_mpf(v) for v in y0)
    except (TypeError, ValueError):
        th = ka = None
    if not all(type(v) is mp.mpf and mp.isfinite(v) for v in (th, ka)):
        raise UnsupportedParameters(
            f"y0 must be two finite real numbers (theta0, kappa0), "
            f"got y0 = {y0!r}")
    return th, ka


def evolve(n: int, t0, t1, params: WeightParams, prec: PrecisionCtx = None,
           step_ctrl: StepControl = None, y0=None) -> Trajectory:
    """Integrate the (theta, kappa) flow from t0 to t1 (forward, t0 <= t1).

    Taylor-series method: each step expands (theta, kappa) about its start
    to order ceil(-ln(rtol)/2) + 1 and takes the Jorba-Zou step size from
    the last two coefficients.  Initial data comes from series_init (default
    order) unless y0 = (theta0, kappa0) is supplied; Trajectory.sample
    and .eval read values between the nodes off the step polynomials.
    Raises SingularityEncountered (with .t_last) when theta or theta + t
    reaches the guard zone (THETA_GUARD * t) at a node, when the step's
    polynomial for either may vanish inside the step (t_last is then where
    the polynomial was last certified nonzero), or when the jet's step size
    falls below THETA_GUARD * t (a pole of the flow); NoConvergence when the
    MAX_STEPS budget runs out or the step size underflows.  Raises
    DegenerateTheta before the first step when (alpha, zeta) = (0, 0),
    where the weight does not depend on t and theta_n = -t identically.
    An n that is not an integer, a t0 or t1 that is not a finite real
    number, and a y0 that is not two finite reals are refused by name
    (UnsupportedParameters) before any step.
    """
    if not isinstance(n, int):
        raise UnsupportedParameters(f"n must be an integer, got n = {n!r}")
    if n < 0:
        raise UnsupportedParameters(f"n must be >= 0, got {n}")
    prec = prec or DEFAULT_CTX
    ctrl = step_ctrl or StepControl()
    with workprec(prec):
        # parse at the context precision so initial data matches what a
        # caller parsing the same literals would see bit-for-bit
        try:
            t0, t1 = to_mpf(t0), to_mpf(t1)
        except (TypeError, ValueError):
            raise UnsupportedParameters(
                f"t0 and t1 must be numbers, got {t0!r} and {t1!r}") from None
        if mp.mpc in (type(t0), type(t1)):
            raise UnsupportedParameters(
                f"t0 and t1 must be real, got {t0} and {t1}")
        t0, t1 = finite(t0=t0, t1=t1)
    with workprec(prec, 20):
        if not 0 < t0 <= t1:
            raise UnsupportedParameters("need 0 < t0 <= t1")
        if int(params.alpha) == 0 and to_mpf(params.zeta) == 0:
            raise DegenerateTheta(
                "alpha = zeta = 0: the weight does not depend on t, so "
                "theta_n = -t identically, on the flow's singular locus")
        if y0 is None:
            th, ka, s_order, s_est = _series_data(n, t0, params, prec, None)
            meta = {"initial_data": "series", "series_order": s_order,
                    "series_truncation": mp.nstr(s_est, 3)}
        else:
            th, ka = _caller_data(y0)
            meta = {"initial_data": "caller", "series_order": "caller",
                    "series_truncation": "caller"}
        rtol = to_mpf(ctrl.rtol)
        atol = to_mpf(ctrl.atol)
        guard = to_mpf(THETA_GUARD)
        order = _taylor_order(rtol)
        jet = _flow_jet_factory(n, params)

        ts, ys_th, ys_ka, step_jets = [], [], [], []

        def record(t, th, ka):
            if abs(th) < guard * t or abs(th + t) < guard * t:
                raise SingularityEncountered(
                    f"theta within guard zone at t={mp.nstr(t, 10)}",
                    t_last=t)
            ts.append(t)
            ys_th.append(th)
            ys_ka.append(ka)

        record(t0, th, ka)
        steps = 0
        max_est = mp.mpf(0)
        t = t0
        while t < t1:
            if steps >= MAX_STEPS:
                raise NoConvergence("step budget exhausted")
            try:
                J = jet(t, th, ka, order)
            except SingularRHS as exc:
                raise SingularityEncountered(str(exc), t_last=t) from exc
            eps = max(atol, rtol * max(abs(th), abs(ka)))
            sizes = {j: max(abs(J.coeff(J.th, j)), abs(J.coeff(J.ka, j)))
                     for j in (order - 1, order)}
            radius = [(eps / size) ** (mp.mpf(1) / j)
                      for j, size in sizes.items() if size]
            if radius and min(radius) < guard * t:
                # the jet converges only on a collapsing disc: a pole ahead
                raise SingularityEncountered(
                    f"flow singular within {mp.nstr(min(radius), 3)} of "
                    f"t={mp.nstr(t, 10)}", t_last=t)
            h = min([t1 - t0] + radius)
            if h <= mp.eps * t * 4:
                raise NoConvergence("step size underflow")
            lands = t + h >= t1 * (1 - 4 * mp.eps)
            if lands:
                h = t1 - t
            t_next = t1 if lands else t + h
            # the step t_next - t as an exact integer L at 2^e
            (T, T_next), e = exact_column([t._mpf_, t_next._mpf_])
            L = T_next - T
            step = mp.make_mpf(from_man_exp(L, e))
            # theta + t = sum_j w_j (s 2^-p)^j 2^-F
            w = [J.th[0] + J.TK, J.th[1] + (1 << J.F + J.p)] + J.th[2:]
            for poly in (J.th, w):
                start = _vanishing_start(poly, J.p, step)
                if start is not None:
                    raise SingularityEncountered(
                        "theta polynomial reaches {0, -t} inside the step "
                        f"from t={mp.nstr(t, 10)}", t_last=t + start)
            max_est = max(max_est, rtol / eps * max(
                size * h ** j for j, size in sizes.items()))
            # sigma = s 2^-p in [0, 1] on the step
            J = J.rescaled(max(J.p, e + (L - 1).bit_length()))
            step_jets.append(J)
            th, ka = J.value(J.th, L, e), J.value(J.ka, L, e)
            t = t_next
            record(t, th, ka)
            steps += 1

    with workprec(prec):
        meta.update({"rtol": str(ctrl.rtol), "atol": str(ctrl.atol),
                     "taylor_order": order})
        return Trajectory(
            n=n, params=params, t=[+v for v in ts],
            theta=[+v for v in ys_th], kappa=[+v for v in ys_ka],
            step_jets=step_jets, steps=steps, rejected=0,
            max_error_estimate=float(max_est), metadata=meta, prec=prec)


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

    q must be sampled on a uniform grid of at least 9 points, one finite
    real sample per point; q' and q'' come from oracle.finite_difference's
    order-4 stencils in the grid index at spacings 2 and 1,
    Richardson-combined, so that every sample read is on the grid.  A grid
    whose spacing is zero is refused by name; samples too close to the PV
    singular locus {0, 1} raise SingularPanel.  The quotient is
    _pv_quotient's, rounded to a float.
    """
    with workprec(prec or DEFAULT_CTX, 20):
        ts = [to_mpf(v) for v in t_grid]
        qs = [to_mpf(v) for v in q_values]
        if len(ts) < 9:
            raise SingularPanel("need at least 9 grid points")
        if len(qs) != len(ts):
            raise UnsupportedParameters(
                f"{len(qs)} q values for {len(ts)} grid points")
        alphas = [to_mpf(a) for a in alphas]
        if len(alphas) != 4 or not all(type(v) is mp.mpf and mp.isfinite(v)
                                       for v in ts + qs + alphas):
            raise UnsupportedParameters(
                "pv_residual needs finite real grid points and samples and "
                "4 finite real alphas")
        return float(_pv_quotient(ts, qs, alphas))


def _pv_quotient(ts, qs, alphas):
    """pv_residual's quotient at mpf data, before it is rounded to a float.

    The grid and the samples become exact integers at one scale 2^e
    (kernels.exact_column), so the grid checks are exact and both stencil
    numerators, 32 N1_1 - N1_2 for q' and 64 N2_1 - N2_2 for q'' (N1_k, N2_k
    the order-4 stencils at spacing k in the grid index), are exact
    integers: each derivative is one division, by 360 h or 720 h^2, rounded
    once.  pv_rhs_second_derivative is the right side."""
    X, e = exact_column([v._mpf_ for v in ts + qs])
    T, Q = X[:len(ts)], X[len(ts):]
    H = T[1] - T[0]
    if not H:
        raise UnsupportedParameters("grid spacing must be nonzero, got h = 0")
    # |(t_i - t_(i-1)) - h| <= 1e-20 |h| and |q|, |q - 1| >= 1e-8, exactly
    if any(abs(T[i] - T[i - 1] - H) * 10 ** 20 > abs(H)
           for i in range(1, len(T))):
        raise SingularPanel("grid must be uniform")
    one = 1 << -e
    if any(min(abs(q), abs(q - one)) * 10 ** 8 < one for q in Q):
        raise SingularPanel("q too close to the singular locus {0, 1}")

    def stencils(i, k):
        p1, m1, p2, m2 = Q[i + k], Q[i - k], Q[i + 2 * k], Q[i - 2 * k]
        return 8 * (p1 - m1) - p2 + m2, 16 * (p1 + m1) - p2 - m2 - 30 * Q[i]

    prec, rnd = mp.mp._prec_rounding
    # q' = (32 N1_1 - N1_2) / 360 H, q'' = (64 N2_1 - N2_2) 2^-e / 720 H^2
    den1, den2 = from_int(360 * H), from_int(720 * H * H)
    residuals, scale = [], mp.mpf(0)
    for i in range(4, len(ts) - 4):
        (n11, n21), (n12, n22) = stencils(i, 1), stencils(i, 2)
        yp = mp.make_mpf(mpf_div(from_int(32 * n11 - n12), den1, prec, rnd))
        ypp = mp.make_mpf(mpf_div(from_int((64 * n21 - n22) << -e), den2,
                                  prec, rnd))
        rhs = pv_rhs_second_derivative(qs[i], yp, ts[i], alphas)
        residuals.append(abs(ypp - rhs))
        scale = max(scale, abs(ypp))
    return max(residuals) / max(scale, mp.mpf(1))


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


def _lax_jets(jets: JetTable, n: int, x):
    """A(x) as jets in t, the value of B(x), and At, in the monic gauge:
    (P_n, P_{n-1}) = diag(h_n, h_{n-1})^(1/2) (p_n, p_{n-1}), so B gains
    diag((ln h_n)', (ln h_{n-1})')/2 over the orthonormal gauge's B."""
    residues = lax_residues(n, jets.t, jets.theta[n], jets.theta[n - 1],
                            jets.kappa[n], jets.a2[n], jets.params)
    A, B = lax_x_matrices(*residues, jets.t, x)
    h = [jets.delta[m + 1] / jets.delta[m] for m in (n, n - 1)]
    B0 = tuple(tuple(B[i][j].c[0] + (h[i].c[1] / (2 * h[i].c[0]) if i == j
                                     else 0) for j in range(2))
               for i in range(2))
    return A, B0, residues[1]


def _deformation(jets: JetTable, n: int, x, lax):
    """Residual of d/dt (P_n, P_{n-1}) = B (P_n, P_{n-1}) from order-1 jets,
    normalized by the vector scale; lax is _lax_jets(jets, n, x)."""
    P = monic_values(jets, n, x)
    vec = P[n], P[n - 1]
    _, B, _ = lax
    resid = max(abs(vec[c].c[1] - B[c][0] * vec[0].c[0]
                    - B[c][1] * vec[1].c[0]) for c in (0, 1))
    return float(resid / max(abs(vec[0].c[0]), abs(vec[1].c[0]), mp.mpf(1)))


def _compatibility(jets: JetTable, x, lax):
    """dA/dt - dB/dx + AB - BA from order-1 jets, normalized by the largest
    term entry; lax is _lax_jets(jets, n, x).  Zero curvature is
    gauge-invariant; this is the monic gauge."""
    A, B0, At = lax
    dA = tuple(tuple(e.c[1] for e in row) for row in A)
    A0 = tuple(tuple(e.c[0] for e in row) for row in A)
    dB = tuple(tuple(e.c[0] / (x - jets.about) ** 2 for e in row)
               for row in At)
    comm = _mat_sub(_mat_mul(A0, B0), _mat_mul(B0, A0))
    resid = _mat_sub(_mat_sub(dA, dB), _mat_sub(_mat_mul(B0, A0),
                                                _mat_mul(A0, B0)))
    scale = max(_mat_absmax(dA), _mat_absmax(dB), _mat_absmax(comm),
                mp.mpf(1))
    return float(_mat_absmax(resid) / scale)


def _off_poles(x, t):
    """x as mpf; UnsupportedParameters, by name, at a t or x that is not
    finite, at t = 0 (the residues divide by t) or at x in {0, t}, the
    poles of A(x)."""
    t, x = finite(t=t, x=x)
    if t == 0:
        raise UnsupportedParameters("t must be > 0 for the Lax residuals")
    if x == 0 or x == t:
        raise UnsupportedParameters(
            f"x must avoid the poles 0 and t of A(x), got x = {mp.nstr(x, 8)}")
    return x


def deformation_residual(params: WeightParams, n: int, x, t,
                         prec: PrecisionCtx = None):
    """Residual of the t-deformation system on the polynomial vector.

    Checks d/dt (P_n, P_{n-1})^T = B (P_n, P_{n-1})^T with B = Binf - At/(x-t)
    + diag((ln h_n)', (ln h_{n-1})')/2 in the monic gauge, the t-derivatives
    read off order-1 jets of the recurrence data at t > 0, x not in {0, t}.
    Returns max-abs residual normalized by the vector scale.
    """
    with workprec(prec or DEFAULT_CTX, 20):
        x = _off_poles(x, t)
        jets = aux_pair_series(n, params, 1, prec, about=t)
        return _deformation(jets, n, x, _lax_jets(jets, n, x))


def compatibility_residual(params: WeightParams, n: int, x, t,
                           prec: PrecisionCtx = None):
    """Zero-curvature residual dA/dt - dB/dx + AB - BA at (x, t).

    dA/dt from order-1 jets of the Lax entries; dB/dx exact.  Needs t > 0
    and x not in {0, t}.  Returns the max-abs entry normalized by the
    largest term entry.
    """
    with workprec(prec or DEFAULT_CTX, 20):
        x = _off_poles(x, t)
        jets = aux_pair_series(n, params, 1, prec, about=t)
        return _compatibility(jets, x, _lax_jets(jets, n, x))


def _d(x: TruncSeries) -> TruncSeries:
    """d/ds of a jet, one order lower."""
    return TruncSeries([j * c for j, c in enumerate(x.c) if j])


def _order_1(jets: JetTable) -> JetTable:
    """The same table read through s^1 (coefficients are not recomputed)."""
    cut = {name: tuple(TruncSeries(x.c[:2]) for x in getattr(jets, name))
           for name in ("delta", "sigma", "a2", "b", "theta", "kappa")}
    return replace(jets, **cut)


FLOW_ORDER = 5  # ab_flow_check's jet order: each flow law at s^0 .. s^4


def ab_flow_check(params: WeightParams, n: int, t_grid: Sequence,
                  prec: PrecisionCtx = None,
                  threshold: float = 1e-8) -> Report:
    """Flow laws of a_n(t), b_n(t) as jet identities about the middle node
    of t_grid; no other node is read.

    One aux_pair_series table of order FLOW_ORDER about t* = the middle
    node gives every law below as an identity of jets in s = t - t*, and
    each Taylor coefficient s^0 .. s^(FLOW_ORDER-1) is one record whose
    terms are the unscaled coefficients of the law's terms.  An identity
    of Taylor coefficients at t* holds as an identity of analytic functions
    near it.  Both printed normalizations are checked (they are equivalent
    and must both hold), with 2 a'/a written as (a^2)'/a^2 so signed
    weights need no sqrt:
             2t a'/a = 2 + b_{n-1} - b_n     and   2 a'/a = R_{n-1} - R_n,
             t b' = a_n^2 - a_{n+1}^2 + b_n  and   b' = r_n - r_{n+1};
    plus the t-deformation residual and the zero-curvature compatibility
    at x = -1, read off the same table through s^1.  About t* = 0 the
    ladder forms (R_n, r_n divide by t) and the two Lax residuals (A(x)
    has a pole at x = t) are left out, as the identity battery leaves out
    rows on the theta locus; the two t-forms are checked.  A grid node
    that is not finite is refused by name before any arithmetic.
    """
    if n < 1:
        raise UnsupportedParameters("the a_n/b_n flow laws need n >= 1")
    if not t_grid:
        raise SingularPanel("need a grid node")
    with workprec(prec or DEFAULT_CTX, 20):
        for v in t_grid:
            finite(t=v)
    about = t_grid[len(t_grid) // 2]
    rep = Report(
        title="ab-flow",
        context={"alpha": str(params.alpha), "mu": str(params.mu),
                 "zeta": str(params.zeta), "n": n,
                 "t_grid": [str(v) for v in t_grid], "threshold": threshold,
                 "about": str(about), "jet_order": FLOW_ORDER})
    with workprec(prec or DEFAULT_CTX, 20):
        mid = to_mpf(about)
        at = f"t={mp.nstr(mid, 8)}"
        jets = aux_pair_series(n + 1, params, FLOW_ORDER, prec, about=mid)
        a2, b, th, ka, t = jets.a2, jets.b, jets.theta, jets.kappa, jets.t
        dlog_a2, db = _d(a2[n]) / a2[n], _d(b[n])
        laws = [
            ("ab_flow_a_t", "2t a_n'/a_n = 2 + b_{n-1} - b_n",
             [t * dlog_a2, TruncSeries.constant(-2, FLOW_ORDER), -b[n - 1],
              b[n]]),
            ("ab_flow_b_t", "t b_n' = a_n^2 - a_{n+1}^2 + b_n",
             [t * db, -a2[n], a2[n + 1], -b[n]])]
        if mid:
            (R_m, _), (R_n, r_n), (_, r_p) = (
                rr_map(th[i], ka[i], t, i, params) for i in (n - 1, n, n + 1))
            laws += [
                ("ab_flow_a_ladder", "2 a_n'/a_n = R_{n-1} - R_n",
                 [dlog_a2, -R_m, R_n]),
                ("ab_flow_b_ladder", "b_n' = r_n - r_{n+1}", [db, -r_n, r_p])]
        for j in range(FLOW_ORDER):
            for check_id, formula, terms in laws:
                rep.add(check_id, formula, n, f"s^{j} about {at}",
                        [v.c[j] for v in terms], threshold)
        if not mid:
            return rep

        x = mp.mpf(-1)
        jets = _order_1(jets)
        lax = _lax_jets(jets, n, x)
        rep.add("deformation_t_ode",
                "d/dt (P_n, P_{n-1}) = B (P_n, P_{n-1}), monic gauge",
                n, f"x=-1, {at}", [mp.mpf(_deformation(jets, n, x, lax))],
                threshold)
        rep.add("zero_curvature", "dA/dt - dB/dx + AB - BA = 0",
                n, f"x=-1, {at}", [mp.mpf(_compatibility(jets, x, lax))],
                threshold)
    return rep
