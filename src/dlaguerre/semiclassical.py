"""Auxiliary quantities of the two differential-equation theories.

Both theories hinge on the rational logarithmic derivative of the weight,
w'/w = 2V/W almost everywhere, with

    W(x)  = x(x - t),
    2V(x) = -x^2 + (alpha + mu + t)x - mu*t.

Isomonodromy route.  The polynomials in the first-order system
W p_n' = (Omega_n - V) p_n - a_n Theta_n p_{n-1} are, for this weight,

    Theta_n(x) = -(x + theta_n),
    Omega_n(x) = -x^2/2 + (2n + alpha + mu + t)x/2 - kappa_n,

with the scalar auxiliaries

    theta_n = b_n - 2n - 1 - alpha - mu - t,
    kappa_n = (n + mu/2) t + a_n^2 - sum_{i<n} b_i.

Ladder route.  The lowering relation p_n' = -B_n p_n + a_n A_n p_{n-1}
holds with A_n = -Theta_n/W and B_n = -(Omega_n - V)/W, whose residues at
the poles x = t and x = 0 define

    A_n = R_n/(x-t) + (1-R_n)/x,      B_n = r_n/(x-t) - (n+r_n)/x,
    R_n = alpha * int w(y) p_n(y)^2 /(y-t) dy,
    r_n = a_n * alpha * int w(y) p_n(y) p_{n-1}(y) /(y-t) dy   (alpha >= 1),

and the two parameterizations are linked by R_n = (theta_n + t)/t and
r_n = kappa_n/t - (n + mu/2).  verify_identities runs the full battery of
recurrence, product, telescoped-sum, ladder, and Lax-system identities
connecting all of these, reporting one machine-readable residual record
per (identity, n, point).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import mpmath as mp

from .errors import DegenerateTheta, SingularHankel, UnsupportedParameters
from .hankel import (MomentTable, RecurrenceTable, epsilon_derivative_eval,
                     epsilon_eval, orthopoly_eval,
                     orthopoly_eval_with_derivative)
from .moments import WeightParams
from .precision import PrecisionCtx, to_mpf, workprec
from .quadrature import integrate_weighted, weight_value

# ---------------------------------------------------------------------------
# polynomial data for the rational log-derivative
# ---------------------------------------------------------------------------


def w_poly(t):
    """Coefficients (highest degree first) of W = x(x-t)."""
    t = to_mpf(t)
    return [mp.mpf(1), -t, mp.mpf(0)]


def two_v_poly(params: WeightParams):
    """Coefficients of 2V = -x^2 + (alpha+mu+t)x - mu*t."""
    al, mu, t = to_mpf(params.alpha), to_mpf(params.mu), to_mpf(params.t)
    return [mp.mpf(-1), al + mu + t, -mu * t]


def v_poly(params: WeightParams):
    return [c / 2 for c in two_v_poly(params)]


def polyval(coeffs, x):
    acc = mp.mpf(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def theta_poly(theta_n):
    """Theta_n(x) = -(x + theta_n)."""
    return [mp.mpf(-1), -to_mpf(theta_n)]


def omega_poly(n: int, kappa_n, params: WeightParams):
    """Omega_n(x) = -x^2/2 + (2n+alpha+mu+t)x/2 - kappa_n."""
    al, mu, t = to_mpf(params.alpha), to_mpf(params.mu), to_mpf(params.t)
    return [mp.mpf(-1) / 2, (2 * n + al + mu + t) / 2, -to_mpf(kappa_n)]


def theta_degree_bound(deg_w: int = 2, deg_v: int = 2) -> int:
    """deg Theta_n <= max(deg W - 2, deg V - 1, 0) from the large-x counting."""
    return max(deg_w - 2, deg_v - 1, 0)


def omega_degree_bound(deg_w: int = 2, deg_v: int = 2) -> int:
    """deg Omega_n <= max(deg W - 1, deg V)."""
    return max(deg_w - 1, deg_v)


# ---------------------------------------------------------------------------
# auxiliary pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxPair:
    """(theta_n, kappa_n) and the equivalent ladder residues (R_n, r_n)."""

    n: int
    t: object
    theta: object
    kappa: object
    R: object
    r: object
    provenance: str = "from_recurrence"

    def __post_init__(self):
        if self.provenance not in ("from_recurrence", "from_integrals", "from_ode"):
            raise ValueError("unknown provenance")


def theta_kappa_from_recurrence(table: RecurrenceTable, n: int) -> AuxPair:
    """AuxPair at the table's t from b_n, a_n^2 and the b-sum.

    kappa_n is computed twice (telescoped b-sum and the leading-coefficient
    ratio -sigma_n/Delta_n) and the two must agree to the context tolerance.
    """
    if n > table.n_max:
        raise ValueError(f"n={n} exceeds table n_max={table.n_max}")
    params = table.params
    with workprec(table.prec):
        t = to_mpf(params.t)
        al, mu = to_mpf(params.alpha), to_mpf(params.mu)
        theta = table.b[n] - 2 * n - 1 - al - mu - t
        shift = (n + mu / 2) * t + table.a2[n]
        kappa_sum = shift - table.b_sum(n)
        kappa_gamma = shift + table.gamma1_ratio[n]
        tol = table.prec.tol_mpf()
        scale = max(abs(kappa_sum), mp.mpf(1))
        if abs(kappa_sum - kappa_gamma) > tol * scale * 100:
            raise SingularHankel(
                "the two kappa_n routes disagree; table inconsistent")
        kappa = (kappa_sum + kappa_gamma) / 2
        if t == 0:
            return AuxPair(n=n, t=t, theta=+theta, kappa=+kappa,
                           R=None, r=None, provenance="from_recurrence")
        return AuxPair(n=n, t=t, theta=+theta, kappa=+kappa,
                       R=(theta + t) / t, r=kappa / t - (n + mu / 2),
                       provenance="from_recurrence")


def ladder_integrals(table: RecurrenceTable, moments: MomentTable, n: int,
                     prec: PrecisionCtx = None,
                     check_equivalence: bool = True) -> AuxPair:
    """(R_n, r_n) by direct quadrature of the residue integrals (alpha >= 1).

    The integrand carries w(y)/(y-t) = (1 - zeta H)(y-t)^{alpha-1} y^mu e^-y,
    integrable precisely because alpha >= 1 is an integer.  Asserts the
    equivalence R = (theta+t)/t, r = kappa/t - (n + mu/2) against the
    recurrence route unless check_equivalence is False.
    """
    prec = prec or table.prec
    params = table.params
    if not (isinstance(params.alpha, int) or float(params.alpha).is_integer()) \
            or int(params.alpha) < 1:
        raise UnsupportedParameters("ladder integrals require integer alpha >= 1")
    al = int(params.alpha)

    with workprec(prec, 20):
        t = to_mpf(params.t)
        mu = to_mpf(params.mu)

        # no node sits at y = t, and w(y)/(y-t) is smooth there for alpha >= 1
        def fn_R(y):
            p = orthopoly_eval(table, n, y).value_n
            return al * p * p / (y - t)

        def fn_r(y):
            pe = orthopoly_eval(table, n, y)
            return al * pe.value_n * pe.value_nm1 / (y - t)

        R = integrate_weighted(fn_R, params, prec, rel_scale=1).value
        r = table.a(n) * integrate_weighted(fn_r, params, prec,
                                            rel_scale=1).value
        pair = AuxPair(n=n, t=+t, theta=+(t * (R - 1)),
                       kappa=+(t * (r + n + mu / 2)), R=+R, r=+r,
                       provenance="from_integrals")
        if check_equivalence:
            ref = theta_kappa_from_recurrence(table, n)
            tol = prec.tol_mpf() * 100
            for got, want in ((pair.R, ref.R), (pair.r, ref.r)):
                if abs(got - want) > tol * max(abs(want), mp.mpf(1)):
                    raise SingularHankel(
                        f"ladder integral disagrees with recurrence route at "
                        f"n={n}: {mp.nstr(got, 20)} vs {mp.nstr(want, 20)}")
    return pair


def ladder_ab_at(pair: AuxPair, params: WeightParams, x,
                 prec: PrecisionCtx = None):
    """(A_n(x), B_n(x)) from the residue data of the pair.

    Runs at prec when given, else inherits the caller's precision context.
    """
    ctx = workprec(prec) if prec is not None else mp.extraprec(20)
    with ctx:
        x = to_mpf(x)
        t = to_mpf(pair.t)
        return (pair.R / (x - t) + (1 - pair.R) / x,
                pair.r / (x - t) - (pair.n + pair.r) / x)


def ladder_ab_by_quadrature(table: RecurrenceTable, n: int, x,
                            prec: PrecisionCtx = None):
    """(A_n(x), B_n(x)) from the defining double-argument integrals.

    A_n(x) = int p_n^2(y) [v'(x)-v'(y)]/(x-y) w(y) dy with v = -ln w, plus
    a boundary term [w(s+) - w(s-)] p_n(s)^2/(x - s) at each point s where
    w jumps: s = 0 when mu = 0, and s = t when alpha = 0.  For this weight
    [v'(x)-v'(y)]/(x-y) = alpha/((x-t)(y-t)) + mu/(x y).  B_n is the same
    with p_n^2 replaced by a_n p_n p_{n-1}.  Independent of the residue
    shortcut; used to validate the partial fractions.
    """
    prec = prec or table.prec
    params = table.params
    al, mu = to_mpf(params.alpha), to_mpf(params.mu)
    t = to_mpf(params.t)
    with workprec(prec, 20):
        x = to_mpf(x)
        zeta = to_mpf(params.zeta)

        def kernel(y):
            return al / ((x - t) * (y - t)) + mu / (x * y)

        def fn_A(y):
            p = orthopoly_eval(table, n, y).value_n
            return p * p * kernel(y)

        def fn_B(y):
            pe = orthopoly_eval(table, n, y)
            return pe.value_n * pe.value_nm1 * kernel(y)

        A = integrate_weighted(fn_A, params, prec, rel_scale=1).value
        B = integrate_weighted(fn_B, params, prec, rel_scale=1).value
        jumps = []
        if mu == 0:
            jumps.append((mp.mpf(0), (-t) ** al * (1 - zeta if t == 0 else 1)))
        if al == 0 and t > 0:
            jumps.append((t, -zeta * t ** mu * mp.exp(-t)))
        for s, dw in jumps:
            pe = orthopoly_eval(table, n, s)
            A += dw * pe.value_n ** 2 / (x - s)
            B += dw * pe.value_n * pe.value_nm1 / (x - s)
        return +A, +(table.a(n) * B)


# ---------------------------------------------------------------------------
# Lax data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaxData:
    """2x2 residue matrices of the x-system and the t-deformation matrix.

    x-system:  d/dx (p_n, p_{n-1})^T = [Ainf + A0/x + At/(x-t)] (p_n, p_{n-1})^T
    t-system:  d/dt (p_n, p_{n-1})^T = [Binf - At/(x-t)] (p_n, p_{n-1})^T
    """

    n: int
    t: object
    A0: tuple
    At: tuple
    Ainf: tuple
    Binf: tuple
    theta_n: object
    theta_nm1: object
    kappa_n: object
    a_n: object
    Theta: tuple       # coefficients of Theta_n, highest first
    Omega: tuple       # coefficients of Omega_n
    W: tuple
    V: tuple

    def a_matrix(self, x):
        """Ainf + A0/x + At/(x-t) as a 2x2 tuple-of-tuples."""
        x = to_mpf(x)
        t = to_mpf(self.t)
        return tuple(
            tuple(self.Ainf[i][j] + self.A0[i][j] / x + self.At[i][j] / (x - t)
                  for j in range(2)) for i in range(2))

    def b_matrix(self, x):
        """Binf - At/(x-t)."""
        x = to_mpf(x)
        t = to_mpf(self.t)
        return tuple(
            tuple(self.Binf[i][j] - self.At[i][j] / (x - t)
                  for j in range(2)) for i in range(2))

    def b_matrix_dx(self, x):
        """d/dx of b_matrix: +At/(x-t)^2."""
        x = to_mpf(x)
        t = to_mpf(self.t)
        return tuple(
            tuple(self.At[i][j] / (x - t) ** 2 for j in range(2))
            for i in range(2))


def theta_prev_from_pair(pair: AuxPair, params: WeightParams,
                         prec: PrecisionCtx = None):
    """theta_{n-1} out of (theta_n, kappa_n) by the recurrence-ratio elimination.

    Uses the ratio identity
      [theta_n/(theta_n+t)] [theta_{n-1}/(theta_{n-1}+t)]
        = (kappa^2 - mu^2 t^2/4) / ((kappa-(n+alpha+mu/2)t)(kappa-(n+mu/2)t)).
    Raises DegenerateTheta at theta in {0, -t} or when the elimination
    degenerates.  Runs at prec when given, else inherits the caller's
    precision context.
    """
    ctx = workprec(prec) if prec is not None else mp.extraprec(20)
    with ctx:
        n = pair.n
        t = to_mpf(pair.t)
        al, mu = to_mpf(params.alpha), to_mpf(params.mu)
        theta, kappa = to_mpf(pair.theta), to_mpf(pair.kappa)
        if t == 0:
            raise DegenerateTheta("elimination needs t > 0")
        guard = mp.mpf(10) ** (-40) * t
        if abs(theta) < guard or abs(theta + t) < guard:
            raise DegenerateTheta("theta_n at or near {0, -t}")
        denom = (kappa - (n + al + mu / 2) * t) * (kappa - (n + mu / 2) * t)
        if denom == 0:
            raise DegenerateTheta("ratio elimination denominator vanishes")
        rho = (kappa ** 2 - mu ** 2 * t ** 2 / 4) / denom
        s = rho * (theta + t) / theta
        if abs(1 - s) < mp.mpf(10) ** (-40):
            raise DegenerateTheta("elimination degenerate: s -> 1")
        return s * t / (1 - s)


def build_lax(table: RecurrenceTable, n: int) -> LaxData:
    """Residue matrices at the table's t, with theta_{n-1} eliminated.

    theta_{n-1} is recovered from (theta_n, kappa_n) through the ratio
    identity rather than read from the n-1 table row, matching the
    elimination strategy of the closed (theta, kappa) description.
    """
    params = table.params
    pair = theta_kappa_from_recurrence(table, n)
    with workprec(table.prec):
        t = to_mpf(params.t)
        al, mu = to_mpf(params.alpha), to_mpf(params.mu)
        th_prev = theta_prev_from_pair(pair, params)
        a_n = table.a(n)
        th, ka = pair.theta, pair.kappa
        A0 = ((ka / t - mu / 2, -a_n * th / t),
              (a_n * th_prev / t, -ka / t - mu / 2))
        At = (((n + mu / 2) - ka / t, a_n * (th + t) / t),
              (-a_n * (th_prev + t) / t, ka / t - (n + al + mu / 2)))
        Ainf = ((mp.mpf(0), mp.mpf(0)), (mp.mpf(0), mp.mpf(1)))
        Binf = (((th + t) / (2 * t), mp.mpf(0)),
                (mp.mpf(0), -(th_prev + t) / (2 * t)))
        return LaxData(
            n=n, t=+t, A0=A0, At=At, Ainf=Ainf, Binf=Binf,
            theta_n=+th, theta_nm1=+th_prev, kappa_n=+ka, a_n=+a_n,
            Theta=tuple(theta_poly(th)),
            Omega=tuple(omega_poly(n, ka, params)),
            W=tuple(w_poly(t)), V=tuple(v_poly(params)))


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    """One identity evaluated at one (n, point): residual vs threshold."""

    check_id: str
    formula: str
    n: Optional[int]
    point: str
    residual: float
    scale: float
    threshold: float
    passed: bool
    note: str = ""

    @property
    def relative(self) -> float:
        return self.residual / self.scale if self.scale else self.residual

    def to_dict(self):
        return {
            "id": self.check_id, "formula": self.formula, "n": self.n,
            "point": self.point, "residual": self.residual,
            "scale": self.scale, "relative": self.relative,
            "threshold": self.threshold, "passed": self.passed,
            "note": self.note,
        }


@dataclass
class Report:
    """Collection of residual records plus run context."""

    title: str
    context: dict
    records: list = field(default_factory=list)

    def add(self, check_id, formula, n, point, terms, threshold, note=""):
        """Record max|sum(terms)| normalized by the largest magnitude term."""
        with mp.extraprec(20):
            resid = abs(mp.fsum(terms))
            scale = max([abs(to_mpf(v)) for v in terms] + [mp.mpf(1)])
        rec = CheckRecord(
            check_id=check_id, formula=formula, n=n, point=str(point),
            residual=float(resid), scale=float(scale),
            threshold=float(threshold),
            passed=bool(resid <= to_mpf(threshold) * scale), note=note)
        self.records.append(rec)
        return rec

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> list:
        return [r for r in self.records if not r.passed]

    def max_relative(self) -> float:
        return max((r.relative for r in self.records), default=0.0)

    def to_dict(self):
        return {
            "title": self.title,
            "context": self.context,
            "all_passed": self.all_passed,
            "n_checks": len(self.records),
            "n_failures": len(self.failures),
            "max_relative_residual": self.max_relative(),
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def default_x_panel(t):
    """Five probe points avoiding the support endpoints 0 and t."""
    t = to_mpf(t)
    return [mp.mpf(-2), mp.mpf(-1), mp.mpf('-0.5'), t / 2, 2 * t]


def verify_identities(table: RecurrenceTable, moments: MomentTable,
                      n_range: Sequence[int], prec: PrecisionCtx = None,
                      threshold: float = 1e-15, lax_threshold: float = 1e-18,
                      include_quadrature_checks: bool = True) -> Report:
    """Run the full identity battery for every n in n_range.

    Polynomial identities are evaluated on the five-point x panel; the
    integral-based checks (Cauchy-transform system, ladder partial
    fractions) are stationed at negative x only.  Failures become report
    records, never exceptions.
    """
    prec = prec or table.prec
    params = table.params
    rep = Report(
        title="identity-suite",
        context={"alpha": str(params.alpha), "mu": str(params.mu),
                 "zeta": str(params.zeta), "t": str(params.t),
                 "n_range": list(n_range), "threshold": threshold,
                 "quadrature_checks": include_quadrature_checks})

    with workprec(prec):
        t = to_mpf(params.t)
        al, mu = to_mpf(params.alpha), to_mpf(params.mu)
        panel = default_x_panel(t)
        neg_panel = [x for x in panel if x < 0]
        W = w_poly(t)
        V = v_poly(params)
        twoV = two_v_poly(params)

        need = max(n_range) + 1
        if need > table.n_max:
            raise ValueError("table too small for n_range (need n_max >= max+1)")
        pairs = {m: theta_kappa_from_recurrence(table, m)
                 for m in range(0, need + 1)}
        TH = {m: theta_poly(pairs[m].theta) for m in pairs}
        OM = {m: omega_poly(m, pairs[m].kappa, params) for m in pairs}

        def pv(c, x):
            return polyval(c, x)

        # Omega_0 = V as polynomials
        for c0, cv in zip(OM[0], V):
            rep.add("omega0_is_v", "Omega_0 - V = 0 (coefficientwise)", 0,
                    "coeff", [c0, -cv], threshold)

        for n in n_range:
            pn, pm = pairs[n], pairs.get(n - 1)
            pp = pairs[n + 1]
            a2n, a2n1 = table.a2[n], table.a2[n + 1]
            bn = table.b[n]

            for x in panel:
                if n >= 1:
                    rep.add(
                        "freud_add",
                        "W + a_{n+1}^2 Th_{n+1} - a_n^2 Th_{n-1}"
                        " = (x-b_n)(Om_{n+1} - Om_n)", n, x,
                        [pv(W, x), a2n1 * pv(TH[n + 1], x),
                         -a2n * pv(TH[n - 1], x),
                         -(x - bn) * (pv(OM[n + 1], x) - pv(OM[n], x))],
                        threshold)
                    rep.add(
                        "freud_shift",
                        "(x-b_{n-1})Th_{n-1} - (x-b_n)Th_n = Om_{n-1} - Om_{n+1}"
                        "  [index-corrected right side]", n, x,
                        [(x - table.b[n - 1]) * pv(TH[n - 1], x),
                         -(x - bn) * pv(TH[n], x),
                         -pv(OM[n - 1], x), pv(OM[n + 1], x)],
                        threshold, note="printed right side Om_n - Om_{n+1} fails")
                    rep.add(
                        "freud_square",
                        "W Th_n + a_{n+1}^2 Th_{n+1}Th_n - a_n^2 Th_n Th_{n-1}"
                        " = Om_{n+1}^2 - Om_n^2", n, x,
                        [pv(W, x) * pv(TH[n], x),
                         a2n1 * pv(TH[n + 1], x) * pv(TH[n], x),
                         -a2n * pv(TH[n], x) * pv(TH[n - 1], x),
                         -(pv(OM[n + 1], x) ** 2 - pv(OM[n], x) ** 2)],
                        threshold)
                    rep.add(
                        "freud_telescoped",
                        "Om_n^2 - a_n^2 Th_n Th_{n-1} = V^2 + W sum_{i<n} Th_i",
                        n, x,
                        [pv(OM[n], x) ** 2,
                         -a2n * pv(TH[n], x) * pv(TH[n - 1], x),
                         -pv(V, x) ** 2,
                         -pv(W, x) * mp.fsum(pv(TH[i], x) for i in range(n))],
                        threshold)
                rep.add(
                    "freud_product",
                    "(x-b_n) Th_n = Om_{n+1} + Om_n", n, x,
                    [(x - bn) * pv(TH[n], x), -pv(OM[n + 1], x),
                     -pv(OM[n], x)], threshold)

            # scalar recurrences in (theta, kappa)
            rep.add(
                "aux_pair_sum",
                "k_{n+1} + k_n + th_n(th_n + t + 2n + a + 1 + m) = 0", n, "-",
                [pp.kappa, pn.kappa,
                 pn.theta * (pn.theta + t + 2 * n + al + 1 + mu)], threshold)
            if n >= 1:
                rep.add(
                    "aux_theta_product",
                    "a_n^2 th_n th_{n-1} = k_n^2 - m^2 t^2/4", n, "-",
                    [a2n * pn.theta * pm.theta, -pn.kappa ** 2,
                     mu ** 2 * t ** 2 / 4], threshold)
                rep.add(
                    "aux_theta_shift_product",
                    "a_n^2 (t+th_n)(t+th_{n-1})"
                    " = (k_n-(n+a+m/2)t)(k_n-(n+m/2)t)", n, "-",
                    [a2n * (t + pn.theta) * (t + pm.theta),
                     -(pn.kappa - (n + al + mu / 2) * t)
                     * (pn.kappa - (n + mu / 2) * t)], threshold)
                rep.add(
                    "aux_pair_ratio",
                    "th_n th_{n-1} (k-(n+a+m/2)t)(k-(n+m/2)t)"
                    " = (th_n+t)(th_{n-1}+t)(k^2 - m^2t^2/4)", n, "-",
                    [pn.theta * pm.theta
                     * (pn.kappa - (n + al + mu / 2) * t)
                     * (pn.kappa - (n + mu / 2) * t),
                     -(pn.theta + t) * (pm.theta + t)
                     * (pn.kappa ** 2 - mu ** 2 * t ** 2 / 4)], threshold)

            if t > 0:
                # ladder identities through the residue data
                Rn, rn = pn.R, pn.r
                Rp, rp_ = pp.R, pp.r
                rep.add(
                    "rr_rec_sum",
                    "r_{n+1} + r_n - a = -R_n(m + a + 2n + 1 + tR_n - t)"
                    "  [sign-corrected right side]", n, "-",
                    [rp_, rn, -al, Rn * (mu + al + 2 * n + 1 + t * Rn - t)],
                    threshold, note="printed +R_n(...) fails")
                rep.add(
                    "rr_b",
                    "b_n = 2n + 1 + a + m + t R_n", n, "-",
                    [bn, -(2 * n + 1 + al + mu + t * Rn)], threshold)
                if n >= 1:
                    Rm, rm = pm.R, pm.r
                    rep.add(
                        "rr_rec_ratio",
                        "R_n R_{n-1} (r+n)(r+n+m)"
                        " = (R_n-1)(R_{n-1}-1) r (r-a)", n, "-",
                        [Rn * Rm * (rn + n) * (rn + n + mu),
                         -(Rn - 1) * (Rm - 1) * rn * (rn - al)], threshold)
                    rep.add(
                        "rr_product_a",
                        "r_n(r_n - a) = a_n^2 R_{n-1} R_n", n, "-",
                        [rn * (rn - al), -a2n * Rm * Rn], threshold)
                    rep.add(
                        "rr_product_b",
                        "(n+r_n)(n+m+r_n) = a_n^2 (R_n-1)(R_{n-1}-1)", n, "-",
                        [(n + rn) * (n + mu + rn),
                         -a2n * (Rn - 1) * (Rm - 1)], threshold)
                    rep.add(
                        "rr_a2",
                        "a_n^2 = (r-a)r/R_n - (n+r)(n+m+r)/(R_n-1)", n, "-",
                        [a2n, -(rn - al) * rn / Rn,
                         (n + rn) * (n + mu + rn) / (Rn - 1)], threshold)

                for x in panel:
                    An, Bn = ladder_ab_at(pn, params, x)
                    Ap, Bp = ladder_ab_at(pp, params, x)
                    twoVW = pv(twoV, x) / pv(W, x)
                    # ladder lowering relation against the exact derivative
                    pe_n, pe_m, dpe_n, _ = orthopoly_eval_with_derivative(
                        table, n, x)
                    rep.add(
                        "ladder_relation",
                        "p_n' = -B_n p_n + a_n A_n p_{n-1}", n, x,
                        [dpe_n, Bn * pe_n, -table.a(n) * An * pe_m], threshold)
                    rep.add(
                        "ladder_rec_sum",
                        "B_{n+1} + B_n = (x-b_n)A_n + 2V/W"
                        "  [sign-corrected 2V/W]", n, x,
                        [Bp, Bn, -(x - bn) * An, -twoVW], threshold,
                        note="printed -2V/W fails")
                    if n >= 1:
                        Am, _ = ladder_ab_at(pm, params, x)
                        rep.add(
                            "ladder_rec_diff",
                            "(B_{n+1}-B_n)(x-b_n)"
                            " = a_{n+1}^2 A_{n+1} - a_n^2 A_{n-1} - 1"
                            "  [sign-corrected 1]", n, x,
                            [(Bp - Bn) * (x - bn), -a2n1 * Ap, a2n * Am,
                             mp.mpf(1)], threshold, note="printed +1 fails")
                        rep.add(
                            "ladder_square",
                            "B_{n+1}^2 - B_n^2 - (2V/W)(B_{n+1}-B_n)"
                            " = a_{n+1}^2 A_{n+1}A_n - a_n^2 A_{n-1}A_n - A_n"
                            "  [sign-corrected A_n]", n, x,
                            [Bp ** 2, -Bn ** 2, -twoVW * (Bp - Bn),
                             -a2n1 * Ap * An, a2n * Am * An, An],
                            threshold, note="printed +A_n fails")
                        A_hist = [ladder_ab_at(pairs[i], params, x)[0]
                                  for i in range(n)]
                        rep.add(
                            "ladder_telescoped",
                            "B_n^2 - (2V/W)B_n - a_n^2 A_n A_{n-1}"
                            " = -sum_{i<n} A_i", n, x,
                            [Bn ** 2, -twoVW * Bn, -a2n * An * Am,
                             mp.fsum(A_hist)], threshold)

                # x-system residual with finite-difference derivatives
                lax = build_lax(table, n)
                h = mp.mpf(2) ** (-40)
                for x in panel:
                    Amat = lax.a_matrix(x)
                    vec = orthopoly_eval(table, n, x)
                    vp = orthopoly_eval(table, n, x + h)
                    vm = orthopoly_eval(table, n, x - h)
                    d_n = (vp.value_n - vm.value_n) / (2 * h)
                    d_m = (vp.value_nm1 - vm.value_nm1) / (2 * h)
                    rep.add(
                        "lax_x_ode_row1",
                        "d/dx p_n = A11 p_n + A12 p_{n-1}", n, x,
                        [d_n, -Amat[0][0] * vec.value_n,
                         -Amat[0][1] * vec.value_nm1], lax_threshold)
                    rep.add(
                        "lax_x_ode_row2",
                        "d/dx p_{n-1} = A21 p_n + A22 p_{n-1}", n, x,
                        [d_m, -Amat[1][0] * vec.value_n,
                         -Amat[1][1] * vec.value_nm1], lax_threshold)

            if include_quadrature_checks and t > 0 and n >= 1:
                qprec = PrecisionCtx(min(prec.significand_bits, 192), "1e-28")
                # the residue integrals carry w/(y-t), integrable for alpha >= 1
                if al >= 1:
                    pair_q = ladder_integrals(table, moments, n, qprec,
                                              check_equivalence=False)
                    rep.add(
                        "rr_integral_equivalence_R",
                        "alpha int w p_n^2/(y-t) = (theta_n + t)/t", n, "-",
                        [pair_q.R, -pn.R], 1e-20)
                    rep.add(
                        "rr_integral_equivalence_r",
                        "a_n alpha int w p_n p_{n-1}/(y-t) = kappa_n/t"
                        " - (n+mu/2)", n, "-", [pair_q.r, -pn.r], 1e-20)
                for x in neg_panel[:2]:
                    Aq, Bq = ladder_ab_by_quadrature(table, n, x, qprec)
                    An, Bn = ladder_ab_at(pn, params, x)
                    rep.add(
                        "ladder_partial_fraction_A",
                        "A_n(x) integral = R_n/(x-t) + (1-R_n)/x", n, x,
                        [Aq, -An], 1e-20)
                    rep.add(
                        "ladder_partial_fraction_B",
                        "B_n(x) integral = r_n/(x-t) - (n+r_n)/x", n, x,
                        [Bq, -Bn], 1e-20)
                for x in neg_panel[:1]:
                    eps_n = epsilon_eval(table, moments, n, x, qprec)
                    eps_m = epsilon_eval(table, moments, n - 1, x, qprec)
                    deps_n = epsilon_derivative_eval(table, moments, n, x, qprec)
                    pe = orthopoly_eval(table, n, x)
                    rep.add(
                        "casoratian",
                        "p_n eps_{n-1} - p_{n-1} eps_n = 1/a_n", n, x,
                        [pe.value_n * eps_m, -pe.value_nm1 * eps_n,
                         -1 / table.a(n)], 1e-20)
                    rep.add(
                        "eps_ode",
                        "W eps_n' = (Om_n + V) eps_n - a_n Th_n eps_{n-1}",
                        n, x,
                        [pv(W, x) * deps_n,
                         -(pv(OM[n], x) + pv(V, x)) * eps_n,
                         table.a(n) * pv(TH[n], x) * eps_m], 1e-18)
                    # trace identity: d/dx ln det Y = -2V/W, det Y = casoratian / w
                    hh = mp.mpf(2) ** (-30)
                    dets = []
                    for xx in (x + hh, x - hh):
                        en = epsilon_eval(table, moments, n, xx, qprec)
                        em = epsilon_eval(table, moments, n - 1, xx, qprec)
                        pz = orthopoly_eval(table, n, xx)
                        dets.append((pz.value_n * em - pz.value_nm1 * en)
                                    / weight_value(xx, params))
                    dlog = (mp.log(dets[0]) - mp.log(dets[1])) / (2 * hh)
                    rep.add(
                        "dety_trace",
                        "d/dx ln det Y_n = -2V/W", n, x,
                        [dlog, pv(twoV, x) / pv(W, x)], 1e-14)

    return rep


def structural_correspondence_residual():
    """Symbolic check that the (R, r) sum recurrence maps onto the
    (theta, kappa) sum recurrence under R = (th+t)/t, r = k/t - (n+m/2).

    Returns the sympy-simplified difference (0 when the correspondence is
    exact); evaluated on coefficient arrays, not numerically.
    """
    import sympy as sp

    t, n, al, mu = sp.symbols("t n alpha mu", positive=True)
    th, ka, kb = sp.symbols("theta kappa_n kappa_np1")
    R = (th + t) / t
    r_n = ka / t - (n + mu / 2)
    r_np1 = kb / t - ((n + 1) + mu / 2)
    ladder_form = r_np1 + r_n - al + R * (mu + al + 2 * n + 1 + t * R - t)
    theta_form = kb + ka + th * (th + t + 2 * n + al + 1 + mu)
    return sp.simplify(sp.expand(t * ladder_form - theta_form))
