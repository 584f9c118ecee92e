"""Moments of the jump-deformed Laguerre weight.

The weight is

    w(x) = (1 - zeta*H(x-t)) * (x-t)^alpha * x^mu * e^{-x},   x >= 0,

with H the Heaviside step, zeta < 1, t >= 0, alpha a non-negative integer
and mu >= 0 (integer on the closed-form path).  Splitting the moment
integral at the jump and converting each binomial sum into a terminating
Kummer series gives, for integer alpha and mu, the exact closed form

    mu_k = Gamma(1+k+alpha+mu) * [ 1F1(-alpha; -(k+alpha+mu); -t)
           - zeta * e^{-t} * 1F1(-(k+mu); -(k+alpha+mu); t) ],

where both 1F1's terminate (after alpha+1 and k+mu+1 terms) strictly
before the lower parameter's pole, so the evaluation is a finite sum of
Gamma ratios.  This is the degenerate integer-parameter limit of the
generic two-solution hypergeometric representation of the moment; the
generic-parameter coefficients do not survive the limit unchanged, which
is why every closed-form evaluation is cross-checked against independent
split quadrature of the defining integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import (CrossCheckError, NoConvergence, NonterminatingPolePassed,
                     UnsupportedParameters)
from .precision import PrecisionCtx, to_mpf, workprec
from .quadrature import integrate_weighted, weight_value


def _is_nonneg_int(x) -> bool:
    """True for a non-negative integer value, as a number or a string ("2.0")."""
    if isinstance(x, mp.mpf):
        return mp.isint(x) and x >= 0
    try:
        v = Fraction(x)
    except (TypeError, ValueError, OverflowError):
        return False
    return v.denominator == 1 and v >= 0


@dataclass(frozen=True)
class WeightParams:
    """The four weight parameters (alpha, mu, zeta, t).

    alpha: non-negative integer exponent on (x - t).
    mu:    non-negative exponent on x; must be an integer for the moment
           closed form (real mu is quadrature-only).
    zeta:  jump size, zeta < 1.
    t:     jump location, t >= 0 (t = 0 is the classical limit).
    """

    alpha: int
    mu: object
    zeta: object
    t: object

    def __post_init__(self):
        if any(isinstance(v, bool)
               for v in (self.alpha, self.mu, self.zeta, self.t)):
            raise UnsupportedParameters("weight parameters must be numbers")
        if not _is_nonneg_int(self.alpha):
            raise UnsupportedParameters("alpha must be a non-negative integer")
        with mp.workprec(64):
            # integer values are stored as int, so int(alpha), int(mu) hold
            object.__setattr__(self, "alpha", int(to_mpf(self.alpha)))
            if self.mu_is_integer:
                object.__setattr__(self, "mu", int(to_mpf(self.mu)))
            if not mp.isfinite(to_mpf(self.mu)) or not to_mpf(self.mu) >= 0:
                raise UnsupportedParameters("mu must be finite and >= 0")
            if not to_mpf(self.zeta) < 1:
                raise UnsupportedParameters("zeta must be < 1")
            if not mp.isfinite(to_mpf(self.t)) or not to_mpf(self.t) >= 0:
                raise UnsupportedParameters("t must be finite and >= 0")

    @property
    def mu_is_integer(self) -> bool:
        return _is_nonneg_int(self.mu)

    @property
    def at_origin(self) -> bool:
        with mp.workprec(64):
            return to_mpf(self.t) == 0

    @property
    def weight_positive(self) -> bool:
        """True when w >= 0 a.e. (even alpha and zeta < 1)."""
        return int(self.alpha) % 2 == 0

    def weight(self, x):
        """Evaluate w(x) on the support (jump factor included past t)."""
        return weight_value(x, self)

    def replace_t(self, t_new) -> "WeightParams":
        return WeightParams(self.alpha, self.mu, self.zeta, t_new)


def confluent_1f1(a, b, z, prec: PrecisionCtx):
    """Kummer 1F1(a; b; z) by direct series, to relative tolerance prec.tol.

    Terminates exactly when a is a non-positive integer.  Raises
    NonterminatingPolePassed if b hits a non-positive integer first, and
    NoConvergence past prec.max_series_terms.
    """
    # guard bits absorb the alternating-series cancellation for z < 0
    with mp.workprec(prec.significand_bits + 60):
        a = to_mpf(a)
        b = to_mpf(b)
        z = to_mpf(z)
        tol = prec.tol_mpf()
        terminates_at = None
        if a <= 0 and a == mp.floor(a):
            terminates_at = int(-a)
        term = mp.mpf(1)
        total = mp.mpf(1)
        j = 0
        small_run = 0
        while True:
            if terminates_at is not None and j >= terminates_at:
                break
            denom = b + j
            if denom == 0:
                raise NonterminatingPolePassed(
                    f"1F1 lower parameter hits non-positive integer at term {j}")
            term = term * (a + j) / denom * z / (j + 1)
            total += term
            j += 1
            if terminates_at is None:
                # two consecutive small terms guard the alternating case
                small_run = small_run + 1 if abs(term) <= tol * abs(total) / 4 else 0
                if small_run >= 2:
                    break
            if j >= prec.max_series_terms:
                raise NoConvergence("1F1 series exceeded max_series_terms")
    with workprec(prec):
        return +total


def moment_limit_t0(k: int, params: WeightParams, prec: PrecisionCtx):
    """mu_k at t = 0: the weight degenerates to (1-zeta) x^(alpha+mu) e^{-x}."""
    with workprec(prec, 20):
        val = (1 - to_mpf(params.zeta)) * mp.gamma(
            mp.mpf(k) + to_mpf(params.alpha) + to_mpf(params.mu) + 1)
    with workprec(prec):
        return +val


def moment_closed_form(k: int, params: WeightParams, prec: PrecisionCtx):
    """mu_k via the terminating hypergeometric closed form (integer alpha, mu)."""
    if k < 0:
        raise UnsupportedParameters("k must be >= 0")
    if not params.mu_is_integer:
        raise UnsupportedParameters(
            "closed form requires integer mu; use moment_quadrature")
    if params.at_origin:
        return moment_limit_t0(k, params, prec)
    a_i = int(params.alpha)
    m_i = int(params.mu)
    with workprec(prec, 30):
        t = to_mpf(params.t)
        zeta = to_mpf(params.zeta)
        s = k + a_i + m_i
        f_head = confluent_1f1(-a_i, -s, -t, prec)
        f_tail = confluent_1f1(-(k + m_i), -s, t, prec)
        val = mp.gamma(s + 1) * (f_head - zeta * mp.exp(-t) * f_tail)
    with workprec(prec):
        return +val


def moment_quadrature(k: int, params: WeightParams, prec: PrecisionCtx):
    """mu_k by split Gauss quadrature of the defining integral.

    Works for real mu >= 0; the only route available off the integer grid.
    """
    if k < 0:
        raise UnsupportedParameters("k must be >= 0")
    return integrate_weighted(lambda x: x ** k, params, prec).value


@dataclass(frozen=True)
class MomentTable:
    """mu_0..mu_k_max at fixed parameters, with provenance."""

    params: WeightParams
    k_max: int
    values: Sequence
    source: str = "closed_form"
    prec: PrecisionCtx = field(default_factory=PrecisionCtx)

    def __post_init__(self):
        if len(self.values) != self.k_max + 1:
            raise ValueError("values must have length k_max + 1")
        if self.source not in ("closed_form", "quadrature"):
            raise ValueError("source must be closed_form or quadrature")
        for v in self.values:
            if not mp.isfinite(v):
                raise ValueError("moment values must be finite")

    def __getitem__(self, k: int):
        return self.values[k]

    def __len__(self):
        return self.k_max + 1


def build_moment_table(params: WeightParams, k_max: int, prec: PrecisionCtx,
                       source: str = "closed_form",
                       cross_check: bool = True) -> MomentTable:
    """Moment table from the requested source.

    The closed-form source is cross-validated against quadrature at the
    endpoints k in {0, k_max}; disagreement beyond prec.tol raises
    CrossCheckError rather than returning silently wrong data.  Callers
    rebuilding tables along a t-grid may pass cross_check=False once the
    agreement has been established for the parameter family.
    """
    if k_max < 0:
        raise UnsupportedParameters("k_max must be >= 0")
    if source == "closed_form":
        vals = [moment_closed_form(k, params, prec) for k in range(k_max + 1)]
        tol = prec.tol_mpf()
        for k in ({0, k_max} if cross_check else ()):
            q = moment_quadrature(k, params, prec)
            if abs(vals[k] - q) > tol * max(abs(q), mp.mpf(1)) * 10:
                raise CrossCheckError(
                    f"closed form and quadrature disagree at k={k}: "
                    f"{mp.nstr(vals[k], 25)} vs {mp.nstr(q, 25)}")
    elif source == "quadrature":
        vals = [moment_quadrature(k, params, prec) for k in range(k_max + 1)]
    else:
        raise ValueError("source must be closed_form or quadrature")
    return MomentTable(params, k_max, tuple(vals), source, prec)
