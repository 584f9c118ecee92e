"""Auxiliary quantities of the two differential-equation theories.

Both theories hinge on the rational logarithmic derivative of the weight,
w'/w = 2V/W almost everywhere, with

    W(x)  = x(x - t),
    2V(x) = -x^2 + (alpha + mu + t)x - mu*t.

Everything runs on the monic P_n (hankel.monic_values; Y_11 of the
Riemann-Hilbert matrix) with h_n = <P_n, P_n> and a_n^2 = h_n/h_{n-1}, so
no square root is taken and signed weights (odd alpha, mu_0 < 0) hold too;
the Lax pair acts on (P_n, P_{n-1}), the monic gauge (lax_residues).

Isomonodromy route.  The polynomials in the first-order system
W P_n' = (Omega_n - V) P_n - a_n^2 Theta_n P_{n-1} are, for this weight,

    Theta_n(x) = -(x + theta_n),
    Omega_n(x) = -x^2/2 + (2n + alpha + mu + t)x/2 - kappa_n,

with the scalar auxiliaries

    theta_n = b_n - 2n - 1 - alpha - mu - t,
    kappa_n = (n + mu/2) t + a_n^2 - sigma_n/Delta_n.

Ladder route.  The lowering relation P_n' = -B_n P_n + a_n^2 A_n P_{n-1}
holds with A_n = -Theta_n/W and B_n = -(Omega_n - V)/W, whose residues at
the poles x = t and x = 0 define

    A_n = R_n/(x-t) + (1-R_n)/x,      B_n = r_n/(x-t) - (n+r_n)/x,
    R_n = alpha * int w(y) P_n(y)^2 /(y-t) dy / h_n,
    r_n = alpha * int w(y) P_n(y) P_{n-1}(y) /(y-t) dy / h_{n-1}  (alpha >= 1),

and the two parameterizations are linked by R_n = (theta_n + t)/t and
r_n = kappa_n/t - (n + mu/2), the map rr_map (plain arithmetic, so jets
map too).  theta_n and kappa_n are read off the RecurrenceTable, which
maps them from its wide minors (hankel.recurrence_data).  R_n and r_n
share one climb of the node ladder, as do A_n(x) and B_n(x) per weight.
verify_identities runs the full battery of recurrence, product,
telescoped-sum, ladder, and Lax-system identities connecting all of these,
reporting one machine-readable residual record per (identity, n, point).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import mpmath as mp
from mpmath.libmp import (fone, mpf_abs, mpf_gt, mpf_le, mpf_lt, mpf_mul,
                          mpf_sum, to_float)

from .errors import CrossCheckError, DegenerateTheta, UnsupportedParameters
from .hankel import (MomentTable, RecurrenceTable, cauchy_sweep, check_degree,
                     monic_values)
from .kernels import (GUARD, Column, column_exp, monic_columns, times,
                      to_fixed, top_exp)
from .moments import TruncSeries, WeightParams
from .precision import (DEFAULT_CTX, PrecisionCtx, fraction_or_none,
                        to_fraction, to_mpf, workprec)
from .quadrature import integrate_weighted

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
        if self.provenance not in ("from_recurrence", "from_integrals"):
            raise UnsupportedParameters("unknown provenance")


def rr_map(theta, kappa, t, n: int, params: WeightParams):
    """(R_n, r_n) = ((theta + t)/t, kappa/t - (n + mu/2)): plain arithmetic,
    so jets map too."""
    return (theta + t) / t, kappa / t - (n + to_mpf(params.mu) / 2)


def theta_kappa_from_recurrence(table: RecurrenceTable, n: int) -> AuxPair:
    """AuxPair at the table's t: theta_n and kappa_n as the table holds
    them, and (R_n, r_n) by rr_map (None at t = 0)."""
    check_degree(n, table.n_max)
    with workprec(table.prec):
        t = to_mpf(table.params.t)
        theta, kappa = table.theta[n], table.kappa[n]
        R, r = rr_map(theta, kappa, t, n, table.params) if t else (None, None)
        return AuxPair(n=n, t=t, theta=theta, kappa=kappa, R=R, r=r,
                       provenance="from_recurrence")


def ladder_integrals(table: RecurrenceTable, moments: MomentTable, n: int,
                     prec: PrecisionCtx = None,
                     check_equivalence: bool = True) -> AuxPair:
    """(R_n, r_n) by direct quadrature of the residue integrals (alpha >= 1),
    on monic values as in the module docstring.

    The integrand carries w(y)/(y-t) = (1 - zeta H)(y-t)^{alpha-1} y^mu e^-y,
    integrable precisely because alpha >= 1 is an integer.  Asserts the
    equivalence R = (theta+t)/t, r = kappa/t - (n + mu/2) against the
    recurrence route unless check_equivalence is False.
    """
    check_degree(n, table.n_max)
    prec = prec or table.prec
    params = table.params
    if params.alpha < 1:
        raise UnsupportedParameters("ladder integrals require integer alpha >= 1")
    al = params.alpha

    with workprec(prec, 20):
        t = to_mpf(params.t)
        mu = to_mpf(params.mu)

        # no node sits at y = t, and w(y)/(y-t) is smooth there for alpha >= 1
        def fn(nodes):
            # al p p / (y - t) and al p p_prev / (y - t) at 2^-F, one floor
            # division each (al is an int)
            X, F = nodes.X, nodes.F
            P = monic_columns(table.b, table.a2, n, X, F)
            p, p_prev = P[n], (P[n - 1] if n else [0] * len(X))
            T = to_fixed(t._mpf_, -F)
            d = [y - T for y in X]
            ap = [al * v for v in p]
            return (Column([a * v // e for a, v, e in zip(ap, p, d)], -F),
                    Column([a * v // e for a, v, e in zip(ap, p_prev, d)],
                           -F))

        # each integral converges relative to the h that normalizes it
        h_R, h_r = table.h(n), table.h(n - 1) if n else 1
        res = integrate_weighted(fn, params, prec, rel_scale=(h_R, h_r))
        R, r = res[0].value / h_R, res[1].value / h_r
        pair = AuxPair(n=n, t=+t, theta=+(t * (R - 1)),
                       kappa=+(t * (r + n + mu / 2)), R=+R, r=+r,
                       provenance="from_integrals")
        if check_equivalence:
            ref = theta_kappa_from_recurrence(table, n)
            tol = prec.tol_mpf() * 100
            for got, want in ((pair.R, ref.R), (pair.r, ref.r)):
                if abs(got - want) > tol * max(abs(want), mp.mpf(1)):
                    raise CrossCheckError(
                        f"ladder integral disagrees with recurrence route at "
                        f"n={n}: {mp.nstr(got, 20)} vs {mp.nstr(want, 20)}")
    return pair


def _ab_point(x, params: WeightParams, t):
    """x at the working precision, refused where A_n(x) and B_n(x) have
    no value: not finite, or a pole 0 or t, against the t divided by and,
    for an x that is not an mpf, as an exact value (a decimal x and t
    round apart at two widths)."""
    v = to_mpf(x)
    if not mp.isfinite(v):
        raise UnsupportedParameters(f"x must be finite, got x = {x}")
    if v in (0, t) or type(x) is not mp.mpf and fraction_or_none(x) in (
            0, to_fraction(params.t)):
        raise UnsupportedParameters(
            f"x must avoid the poles 0 and t of A_n and B_n, got x = {x}")
    return v


def ladder_ab_at(pair: AuxPair, params: WeightParams, x,
                 prec: PrecisionCtx = None):
    """(A_n(x), B_n(x)) from the residue data of the pair, 20 bits above
    prec or DEFAULT_CTX; x at a pole 0 or t, or not finite, is refused
    (_ab_point).  At t = 0, where the pair has no residues, the partial
    fractions are (1/x, -n/x) whatever R_n and r_n are."""
    with workprec(prec or DEFAULT_CTX, 20):
        t = to_mpf(pair.t)
        x = _ab_point(x, params, t)
        if t == 0:
            return 1 / x, -pair.n / x
        return (pair.R / (x - t) + (1 - pair.R) / x,
                pair.r / (x - t) - (pair.n + pair.r) / x)


def ladder_ab_by_quadrature(table: RecurrenceTable, n: int, x,
                            prec: PrecisionCtx = None):
    """(A_n(x), B_n(x)) from the defining double-argument integrals.

    A_n(x) = int p_n^2(y) [v'(x)-v'(y)]/(x-y) w(y) dy with v = -ln w, plus
    a boundary term [w(s+) - w(s-)] p_n(s)^2/(x - s) at each point s where
    w jumps: s = 0 when mu = 0, and s = t when alpha = 0.  For this weight
    [v'(x)-v'(y)]/(x-y) = alpha/((x-t)(y-t)) + mu/(x y).  B_n is the same
    with p_n^2 replaced by a_n p_n p_{n-1}.  On monic values A is divided by
    h_n and B by h_{n-1} (p_n^2 = P_n^2/h_n).  Independent of the residue
    shortcut; used to validate the partial fractions.  For non-integer mu
    the mu/(x y) term is integrated against the weight with mu - 1, whose
    Jacobi panel carries y^(mu-1) exactly; that needs mu > 1.  A and B
    share one climb per weight.  x at a pole 0 or t, or not finite, is
    refused before any work (_ab_point).
    """
    check_degree(n, table.n_max)
    prec = prec or table.prec
    params = table.params
    if not (params.mu_is_integer or to_fraction(params.mu) > 1):
        raise UnsupportedParameters(
            "ladder_ab_by_quadrature needs mu > 1 when mu is not an integer")
    with workprec(prec, 20):
        al, mu = to_mpf(params.alpha), to_mpf(params.mu)
        t = to_mpf(params.t)
        x = _ab_point(x, params, t)
        zeta = to_mpf(params.zeta)
        shifted = None if params.mu_is_integer else WeightParams(
            params.alpha, to_mpf(params.mu) - 1, params.zeta, params.t)

        def products(nodes):
            X, F = nodes.X, nodes.F
            P = monic_columns(table.b, table.a2, n, X, F)
            p, p_prev = P[n], (P[n - 1] if n else [0] * len(X))
            return (Column([v * v >> F for v in p], -F),
                    Column([v * u >> F for v, u in zip(p, p_prev)], -F))

        # the partial fraction al/((x-t)(y-t)) [+ mu/(x y)] as c1/(y - t) [+
        # c2/y]: the constants at their own scale, mpc at a complex x, and
        # each column value one floor division at 2^-F
        with mp.extraprec(GUARD):
            c1 = al / (x - t)
            c2 = mp.mpf(0) if shifted else mu / x

        def kernelled(nodes):
            X, F = nodes.X, nodes.F
            parts = [[mp.re(c), mp.im(c)] for c in (c1, c2)]
            e = column_exp(top_exp([v._mpf_ for pair in parts for v in pair]),
                           F)
            (a, ai), (b, bi) = [[to_fixed(v._mpf_, e) << F for v in pair]
                                for pair in parts]
            T = to_fixed(t._mpf_, -F)

            def column(a, b):
                return [a // (y - T) + b // y for y in X]

            k = Column(column(a, b), e,
                       None if type(x) is mp.mpf else column(ai, bi))
            return [times(v.re, k, F) for v in products(nodes)]

        h_A, h_B = table.h(n), table.h(n - 1) if n else 1

        def integrals(fn, weight):
            return [res.value for res in integrate_weighted(
                fn, weight, prec, rel_scale=(h_A, h_B))]

        A, B = integrals(kernelled, params)
        if shifted:
            sA, sB = integrals(products, shifted)
            A += mu / x * sA
            B += mu / x * sB
        jumps = []
        if mu == 0:
            jumps.append((mp.mpf(0), (-t) ** al * (1 - zeta if t == 0 else 1)))
        if al == 0 and t > 0:
            jumps.append((t, -zeta * t ** mu * mp.exp(-t)))
        for s, dw in jumps:
            P = monic_values(table, n, s)
            p, p_prev = P[n], (P[n - 1] if n else 0)
            A += dw * p * p / (x - s)
            B += dw * p * p_prev / (x - s)
        return +(A / h_A), +(B / h_B)


# ---------------------------------------------------------------------------
# Lax data
# ---------------------------------------------------------------------------


def _near_theta_locus(theta, t) -> bool:
    """True where theta_n lies within 1e-40 t of 0 or -t, i.e. R_n within
    1e-40 of 1 or 0: the elimination and the divisions by R_n, R_n - 1
    are undefined there."""
    guard = mp.mpf(10) ** (-40) * t
    return abs(theta) < guard or abs(theta + t) < guard


def theta_prev_from_pair(pair: AuxPair, params: WeightParams,
                         prec: PrecisionCtx = None):
    """theta_{n-1} out of (theta_n, kappa_n) by the recurrence-ratio elimination.

    Uses the ratio identity
      [theta_n/(theta_n+t)] [theta_{n-1}/(theta_{n-1}+t)]
        = (kappa^2 - mu^2 t^2/4) / ((kappa-(n+alpha+mu/2)t)(kappa-(n+mu/2)t)).
    Raises DegenerateTheta at theta in {0, -t} or when the elimination
    degenerates.  Runs 20 bits above prec or DEFAULT_CTX.
    """
    with workprec(prec or DEFAULT_CTX, 20):
        n = pair.n
        t = to_mpf(pair.t)
        al, mu = to_mpf(params.alpha), to_mpf(params.mu)
        theta, kappa = to_mpf(pair.theta), to_mpf(pair.kappa)
        if t == 0:
            raise DegenerateTheta("elimination needs t > 0")
        if _near_theta_locus(theta, t):
            raise DegenerateTheta("theta_n at or near {0, -t}")
        denom = (kappa - (n + al + mu / 2) * t) * (kappa - (n + mu / 2) * t)
        if denom == 0:
            raise DegenerateTheta("ratio elimination denominator vanishes")
        rho = (kappa ** 2 - mu ** 2 * t ** 2 / 4) / denom
        s = rho * (theta + t) / theta
        if abs(1 - s) < mp.mpf(10) ** (-40):
            raise DegenerateTheta("elimination degenerate: s -> 1")
        return s * t / (1 - s)


def lax_residues(n: int, t, theta, theta_prev, kappa, a2_n,
                 params: WeightParams):
    """(A0, At, Ainf, Binf) from theta_n, theta_{n-1}, kappa_n and a_n^2:
    the 2x2 residue matrices of the x-system and the t-deformation,

      d/dx (P_n, P_{n-1})^T = [Ainf + A0/x + At/(x-t)] (P_n, P_{n-1})^T,
      d/dt (P_n, P_{n-1})^T = [Binf - At/(x-t) + D] (P_n, P_{n-1})^T,

    with D = diag((ln h_n)', (ln h_{n-1})')/2.  Monic gauge: the
    orthonormal gauge's a_n is a_n^2 in the (1,2) entries and 1 in the
    (2,1) entries.  Plain arithmetic, so the arguments may be numbers or
    TruncSeries jets in t (then every entry is a jet).
    """
    al, mu = to_mpf(params.alpha), to_mpf(params.mu)
    th, th_prev, ka = theta, theta_prev, kappa
    zero, one = mp.mpf(0), mp.mpf(1)
    A0 = ((ka / t - mu / 2, -a2_n * th / t),
          (th_prev / t, -ka / t - mu / 2))
    At = (((n + mu / 2) - ka / t, a2_n * (th + t) / t),
          (-(th_prev + t) / t, ka / t - (n + al + mu / 2)))
    Ainf = ((zero, zero), (zero, one))
    Binf = (((th + t) / (2 * t), zero), (zero, -(th_prev + t) / (2 * t)))
    return A0, At, Ainf, Binf


def lax_x_matrices(A0, At, Ainf, Binf, t, x):
    """A(x) = Ainf + A0/x + At/(x-t) and B(x) = Binf - At/(x-t)."""
    d = x - t
    A = tuple(tuple(Ainf[i][j] + A0[i][j] / x + At[i][j] / d
                    for j in range(2)) for i in range(2))
    B = tuple(tuple(Binf[i][j] - At[i][j] / d
                    for j in range(2)) for i in range(2))
    return A, B


def build_lax(table: RecurrenceTable, n: int):
    """lax_residues (A0, At, Ainf, Binf) at the table's t, with
    theta_{n-1} eliminated.

    theta_{n-1} is recovered from (theta_n, kappa_n) through the ratio
    identity rather than read from the n-1 table row, matching the
    elimination strategy of the closed (theta, kappa) description.
    """
    pair = theta_kappa_from_recurrence(table, n)
    with workprec(table.prec):
        th_prev = theta_prev_from_pair(pair, table.params, table.prec)
        return lax_residues(n, pair.t, pair.theta, th_prev, pair.kappa,
                            table.a2[n], table.params)


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
    residual: Optional[float]
    scale: Optional[float]
    threshold: float
    passed: bool
    note: str = ""

    @property
    def relative(self) -> Optional[float]:
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
    _thresholds: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def add(self, check_id, formula, n, point, terms, threshold, note=""):
        """Record |sum(terms)| against threshold * max(max|term|, 1).

        terms are mpf, int or float.  The sum is rounded once at the working
        precision + 20 bits and the largest |term| is rounded to that width,
        as mp.fsum and abs under mp.extraprec(20) do; threshold * scale is
        rounded at the working precision.  Runs on raw mpf tuples.  A
        residual or scale beyond a finite float fails, both None and given
        in the note, so that a report holds no nan or infinity.
        """
        prec = mp.mp.prec
        key = (threshold, prec)
        if key not in self._thresholds:
            self._thresholds[key] = (float(threshold), to_mpf(threshold)._mpf_)
        thr_float, thr = self._thresholds[key]
        raw = [v._mpf_ if hasattr(v, "_mpf_") else mp.mp.convert(v)._mpf_
               for v in terms]
        resid = mpf_abs(mpf_sum(raw, prec + 20, "n"))
        top = mpf_abs(raw[0])
        for v in map(mpf_abs, raw[1:]):
            if mpf_gt(v, top):
                top = v
        scale = mpf_abs(top, prec + 20, "n")
        if mpf_lt(scale, fone):
            scale = fone
        residual, scale_f = to_float(resid, rnd="n"), to_float(scale, rnd="n")
        passed = mpf_le(resid, mpf_mul(thr, scale, prec, "n"))
        if not math.isfinite(residual + scale_f):
            note = (note and note + "; ") + (
                f"residual {mp.nstr(mp.make_mpf(resid), 5)} and scale "
                f"{mp.nstr(mp.make_mpf(scale), 5)} do not fit a finite float")
            residual, scale_f, passed = None, None, False
        rec = CheckRecord(
            check_id=check_id, formula=formula, n=n, point=str(point),
            residual=residual, scale=scale_f, threshold=thr_float,
            passed=passed, note=note)
        self.records.append(rec)
        return rec

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> list:
        return [r for r in self.records if not r.passed]

    def max_relative(self) -> float:
        return max((r.relative for r in self.records
                    if r.relative is not None), default=0.0)

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
    records, never exceptions; an n_range that is empty or holds a
    negative n raises UnsupportedParameters.  Records undefined at the
    parameters are left out: the partial fractions at non-integer
    mu <= 1, and rr_a2 and the Lax rows where theta_n sits at 0 or -t
    (R_n in {1, 0}; at (alpha, zeta) = (0, 0) the weight is
    t-independent and theta_n = -t).
    """
    if not n_range or min(n_range) < 0:
        raise UnsupportedParameters(
            f"n_range must hold at least one n >= 0, got {list(n_range)}")
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
        # the per-point tables are lists indexed by panel position: mpf(-1)
        # and mpf(-2) hash alike, so dicts keyed by the points probe
        neg = [i for i, x in enumerate(panel) if x < 0]
        W = w_poly(t)
        V = v_poly(params)
        twoV = two_v_poly(params)

        need = max(n_range) + 1
        if need > table.n_max:
            raise UnsupportedParameters(
                f"n_range up to {max(n_range)} needs a table with n_max >= "
                f"{need}, got n_max = {table.n_max}")
        pairs = {m: theta_kappa_from_recurrence(table, m)
                 for m in range(0, need + 1)}
        TH = {m: theta_poly(pairs[m].theta) for m in pairs}
        OM = {m: omega_poly(m, pairs[m].kappa, params) for m in pairs}

        # every per-point quantity that does not depend on n, evaluated once
        label = [str(x) for x in panel]
        Wx = [polyval(W, x) for x in panel]
        Vx = [polyval(V, x) for x in panel]
        THx = [[polyval(TH[m], x) for m in pairs] for x in panel]
        OMx = [[polyval(OM[m], x) for m in pairs] for x in panel]
        if t > 0:
            twoVW = [polyval(twoV, x) / w for x, w in zip(panel, Wx)]
            ABx = [[ladder_ab_at(pairs[m], params, x, prec) for m in pairs]
                   for x in panel]
            # (P_m, P_m') for m <= max(n_range) from one order-1 x-jet pass;
            # the trailing (0, 0) is P_{-1}, read at index -1 when n = 0
            PD = [[tuple(P.c) for P in monic_values(
                table, max(n_range), TruncSeries([x, 1]))] + [(0, 0)]
                for x in panel]

        qprec = PrecisionCtx(min(prec.significand_bits, 192), "1e-28")
        # E_m and E_m' at the Cauchy station for every m <= max(n_range),
        # from one sweep; a component that did not converge raises when read
        sweeps = ([(i, cauchy_sweep(table, max(n_range), panel[i], qprec))
                   for i in neg[:1]]
                  if include_quadrature_checks and t > 0
                  and max(n_range) >= 1 else [])

        # Omega_0 = V as polynomials
        for c0, cv in zip(OM[0], V):
            rep.add("omega0_is_v", "Omega_0 - V = 0 (coefficientwise)", 0,
                    "coeff", [c0, -cv], threshold)

        for n in n_range:
            pn, pm = pairs[n], pairs.get(n - 1)
            pp = pairs[n + 1]
            a2n, a2n1 = table.a2[n], table.a2[n + 1]
            bn = table.b[n]

            for i, x in enumerate(panel):
                th, om, w = THx[i], OMx[i], Wx[i]
                if n >= 1:
                    rep.add(
                        "freud_add",
                        "W + a_{n+1}^2 Th_{n+1} - a_n^2 Th_{n-1}"
                        " = (x-b_n)(Om_{n+1} - Om_n)", n, label[i],
                        [w, a2n1 * th[n + 1], -a2n * th[n - 1],
                         -(x - bn) * (om[n + 1] - om[n])],
                        threshold)
                    rep.add(
                        "freud_shift",
                        "(x-b_{n-1})Th_{n-1} - (x-b_n)Th_n = Om_{n-1} - Om_{n+1}"
                        "  [index-corrected right side]", n, label[i],
                        [(x - table.b[n - 1]) * th[n - 1], -(x - bn) * th[n],
                         -om[n - 1], om[n + 1]],
                        threshold, note="printed right side Om_n - Om_{n+1} fails")
                    rep.add(
                        "freud_square",
                        "W Th_n + a_{n+1}^2 Th_{n+1}Th_n - a_n^2 Th_n Th_{n-1}"
                        " = Om_{n+1}^2 - Om_n^2", n, label[i],
                        [w * th[n], a2n1 * th[n + 1] * th[n],
                         -a2n * th[n] * th[n - 1],
                         -(om[n + 1] ** 2 - om[n] ** 2)],
                        threshold)
                    rep.add(
                        "freud_telescoped",
                        "Om_n^2 - a_n^2 Th_n Th_{n-1} = V^2 + W sum_{i<n} Th_i",
                        n, label[i],
                        [om[n] ** 2, -a2n * th[n] * th[n - 1], -Vx[i] ** 2,
                         -w * mp.fsum(th[:n])],
                        threshold)
                rep.add(
                    "freud_product",
                    "(x-b_n) Th_n = Om_{n+1} + Om_n", n, label[i],
                    [(x - bn) * th[n], -om[n + 1], -om[n]], threshold)

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
                    if not _near_theta_locus(pn.theta, t):
                        rep.add(
                            "rr_a2",
                            "a_n^2 = (r-a)r/R_n - (n+r)(n+m+r)/(R_n-1)", n,
                            "-", [a2n, -(rn - al) * rn / Rn,
                                  (n + rn) * (n + mu + rn) / (Rn - 1)],
                            threshold)

                for i, x in enumerate(panel):
                    ab = ABx[i]
                    (An, Bn), (Ap, Bp) = ab[n], ab[n + 1]
                    # ladder lowering relation against the exact derivative
                    (p_n, dp_n), (p_m, _) = PD[i][n], PD[i][n - 1]
                    rep.add(
                        "ladder_relation",
                        "P_n' = -B_n P_n + a_n^2 A_n P_{n-1}", n, label[i],
                        [dp_n, Bn * p_n, -a2n * An * p_m], threshold)
                    rep.add(
                        "ladder_rec_sum",
                        "B_{n+1} + B_n = (x-b_n)A_n + 2V/W"
                        "  [sign-corrected 2V/W]", n, label[i],
                        [Bp, Bn, -(x - bn) * An, -twoVW[i]], threshold,
                        note="printed -2V/W fails")
                    if n >= 1:
                        Am = ab[n - 1][0]
                        rep.add(
                            "ladder_rec_diff",
                            "(B_{n+1}-B_n)(x-b_n)"
                            " = a_{n+1}^2 A_{n+1} - a_n^2 A_{n-1} - 1"
                            "  [sign-corrected 1]", n, label[i],
                            [(Bp - Bn) * (x - bn), -a2n1 * Ap, a2n * Am,
                             mp.mpf(1)], threshold, note="printed +1 fails")
                        rep.add(
                            "ladder_square",
                            "B_{n+1}^2 - B_n^2 - (2V/W)(B_{n+1}-B_n)"
                            " = a_{n+1}^2 A_{n+1}A_n - a_n^2 A_{n-1}A_n - A_n"
                            "  [sign-corrected A_n]", n, label[i],
                            [Bp ** 2, -Bn ** 2, -twoVW[i] * (Bp - Bn),
                             -a2n1 * Ap * An, a2n * Am * An, An],
                            threshold, note="printed +A_n fails")
                        rep.add(
                            "ladder_telescoped",
                            "B_n^2 - (2V/W)B_n - a_n^2 A_n A_{n-1}"
                            " = -sum_{i<n} A_i", n, label[i],
                            [Bn ** 2, -twoVW[i] * Bn, -a2n * An * Am,
                             mp.fsum(A for A, _ in ab[:n])], threshold)

                # x-system residual against the differentiated recurrence,
                # left out where the theta_{n-1} elimination degenerates
                try:
                    lax = build_lax(table, n)
                except DegenerateTheta:
                    lax = None
                for i, x in enumerate(panel if lax else ()):
                    Amat, _ = lax_x_matrices(*lax, t, x)
                    (p_n, dp_n), (p_m, dp_m) = PD[i][n], PD[i][n - 1]
                    rep.add(
                        "lax_x_ode_row1",
                        "d/dx P_n = A11 P_n + A12 P_{n-1}", n, label[i],
                        [dp_n, -Amat[0][0] * p_n, -Amat[0][1] * p_m],
                        lax_threshold)
                    rep.add(
                        "lax_x_ode_row2",
                        "d/dx P_{n-1} = A21 P_n + A22 P_{n-1}", n, label[i],
                        [dp_m, -Amat[1][0] * p_n, -Amat[1][1] * p_m],
                        lax_threshold)

            if include_quadrature_checks and t > 0 and n >= 1:
                # the residue integrals carry w/(y-t), integrable for alpha >= 1
                if al >= 1:
                    pair_q = ladder_integrals(table, moments, n, qprec,
                                              check_equivalence=False)
                    rep.add(
                        "rr_integral_equivalence_R",
                        "alpha int w P_n^2/(y-t) / h_n = (theta_n + t)/t", n,
                        "-", [pair_q.R, -pn.R], 1e-20)
                    rep.add(
                        "rr_integral_equivalence_r",
                        "alpha int w P_n P_{n-1}/(y-t) / h_{n-1} = kappa_n/t"
                        " - (n+mu/2)", n, "-", [pair_q.r, -pn.r], 1e-20)
                # the mu/(x y) kernel term needs mu > 1 unless mu is an integer
                partial_fractions = neg[:2] if (
                    params.mu_is_integer or mu > 1) else []
                for i in partial_fractions:
                    Aq, Bq = ladder_ab_by_quadrature(table, n, panel[i], qprec)
                    An, Bn = ABx[i][n]
                    rep.add(
                        "ladder_partial_fraction_A",
                        "A_n(x) integral = R_n/(x-t) + (1-R_n)/x", n, label[i],
                        [Aq, -An], 1e-20)
                    rep.add(
                        "ladder_partial_fraction_B",
                        "B_n(x) integral = r_n/(x-t) - (n+r_n)/x", n, label[i],
                        [Bq, -Bn], 1e-20)
                for i, (E, dE) in sweeps:
                    x = panel[i]
                    E_n, E_m, dE_n, dE_m = (
                        r.value for r in (E[n], E[n - 1], dE[n], dE[n - 1]))
                    (p_n, dp_n), (p_m, dp_m) = PD[i][n], PD[i][n - 1]
                    rep.add(
                        "casoratian",
                        "P_n E_{n-1} - P_{n-1} E_n = h_{n-1}", n, label[i],
                        [p_n * E_m, -p_m * E_n, -table.h(n - 1)], 1e-20)
                    rep.add(
                        "eps_ode",
                        "W E_n' = (Om_n + V) E_n - a_n^2 Th_n E_{n-1}",
                        n, label[i],
                        [Wx[i] * dE_n, -(OMx[i][n] + Vx[i]) * E_n,
                         a2n * THx[i][n] * E_m], 1e-18)
                    # trace identity: d/dx ln det Y = -2V/W with det Y = C/w,
                    # C the casoratian, so C'/C - w'/w with w'/w in partial
                    # fractions and C' from the exact derivatives
                    cas = p_n * E_m - p_m * E_n
                    dcas = dp_n * E_m + p_n * dE_m - dp_m * E_n - p_m * dE_n
                    rep.add(
                        "dety_trace",
                        "d/dx ln det Y_n = -2V/W", n, label[i],
                        [dcas / cas, -(al / (x - t) + mu / x - 1),
                         twoVW[i]], 1e-14)

    return rep
