"""Moments of the jump-deformed Laguerre weight, and the jet type.

The weight is

    w(x) = (1 - zeta*H(x-t)) * (x-t)^alpha * x^mu * e^{-x},   x >= 0,

with H the Heaviside step, zeta < 1, t >= 0, alpha a non-negative integer
and mu >= 0 (integer on the closed-form path).  Splitting the moment
integral at the jump and expanding (x-t)^alpha on [0, inf) and
(t+y)^(k+mu) on [t, inf) binomially gives, for integer alpha and mu,

    mu_k(t) = P(t) - zeta e^{-t} Q(t),
    P(t) = sum_j (-1)^j C(alpha, j) (S-j)! t^j,
    Q(t) = sum_j C(k+mu, j) (S-j)! t^j,        S = k + alpha + mu,

two polynomials with integer coefficients.  So every moment is an entire
function of t: moment_series gives its Taylor jet about any t*, and the
closed form is that jet's order-0 term, evaluated with guard bits and
cross-checked against independent split quadrature of the defining
integral.

Tables need only two of them.  The weight is semiclassical: w'/w = 2V/W
away from the jump, with W = x(x - t) and 2V = -x^2 + (alpha+mu+t)x - mu t.
Integrating (W x^k w)' over [0, inf) gives zero: W(0) = 0 kills the
endpoint term at 0 (w decays at infinity), and W(t) = 0 kills both the
jump of w at t and the delta that the step contributes to w'.  Expanding
W' x^k + k W x^(k-1) + x^k 2V leaves the Pearson recurrence

    mu_{k+2} = (k+2+alpha+mu+t) mu_{k+1} - (k+1+mu) t mu_k,

so moment_jets builds mu_0..mu_K from the closed forms of mu_0 and mu_1,
on numbers and on t-jets alike (its coefficients are linear in t).  For
large k the recurrence has one solution with ratio ~k (the moments, and
the tail integral over [t, inf) alike) and one with ratio ~t (the integral
over [0, t]).  Forward recursion is stable once k > t, where the moments
dominate; below that the t^k solution can outgrow them by up to
max_k t^k/k! ~ e^t, so about 1.44 t bits are lost on the way.  moment_jets
adds ceil(1.5 t) guard bits on top of the caller's precision;
build_moment_table works 30 bits above the table's width, as
moment_closed_form does, and its entries equal moment_closed_form's bit
for bit (k <= 40, t <= 40 in the tests).  P - zeta e^{-t} Q cancels
without bound as zeta -> 1 (41 bits at zeta = 1 - 1e-12, t = 0.3), and the
recursion loses as many at each k; both routes add the bits they measure
(_guarded_jets).

TruncSeries is the one truncated-power-series type of the package; the
Hankel jets, series initial data and every t-derivative of the Painleve
layer are built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import mpmath as mp
from mpmath.libmp import (from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_neg,
                          mpf_sub)

from .errors import CrossCheckError, UnsupportedParameters
from .kernels import Column, conv
from .precision import (PrecisionCtx, finite, finite_real, fraction_or_none,
                        to_fraction, to_mpf, workprec)
from .quadrature import integrate_weighted, weight_value

FREE_LOSS = 10      # bits of cancellation that 30 guard bits absorb
MAX_S = 2048        # largest k + alpha + mu of the closed form (_moment_parts)
BAD_SOURCE = "source must be closed_form or quadrature"


def _is_nonneg_int(x) -> bool:
    """True for a non-negative integer value, as a number or a string ("2.0")."""
    v = fraction_or_none(x)
    return v is not None and v.denominator == 1 and v >= 0


def _finite_nonneg(x) -> bool:
    """x is a finite number >= 0 (an unreadable string or None is not)."""
    try:
        v = to_mpf(x)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    return mp.isfinite(v) and v >= 0


def _below_one(x) -> bool:
    """x < 1, exactly: the Fraction of its value or decimal string
    (1 - 1e-23 is 1 at 64 bits)."""
    v = fraction_or_none(x)
    return v is not None and v < 1


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
            raise UnsupportedParameters(
                f"alpha must be a non-negative integer, got {self.alpha!r}")
        if not _below_one(self.zeta):
            raise UnsupportedParameters(f"zeta must be < 1, got {self.zeta!r}")
        with mp.workprec(64):
            # integer values are stored as exact ints (not rounded to 64 bits)
            object.__setattr__(self, "alpha", int(to_fraction(self.alpha)))
            if self.mu_is_integer:
                object.__setattr__(self, "mu", int(to_fraction(self.mu)))
            if not _finite_nonneg(self.mu):
                raise UnsupportedParameters(
                    f"mu must be finite and >= 0, got {self.mu!r}")
            if not _finite_nonneg(self.t):
                raise UnsupportedParameters(
                    f"t must be finite and >= 0, got {self.t!r}")

    @property
    def mu_is_integer(self) -> bool:
        return _is_nonneg_int(self.mu)

    @property
    def weight_positive(self) -> bool:
        """True when w >= 0 a.e. (even alpha and zeta < 1)."""
        return int(self.alpha) % 2 == 0

    def weight(self, x):
        """Evaluate w(x) on the support (jump factor included past t)."""
        return weight_value(x, self)

    def replace_t(self, t_new) -> "WeightParams":
        return WeightParams(self.alpha, self.mu, self.zeta, t_new)


def _raw_coeffs(values):
    """values as raw real tuples, each converted once: a finite mpf its
    own, an int exactly (as mpf arithmetic takes it), anything else
    through finite_real, which refuses a complex or non-finite value by
    name."""
    out = []
    for v in values:
        if type(v) is int:
            out.append(from_int(v))
        elif type(v) is mp.mpf and (v._mpf_[1] or v._mpf_ == fzero):
            out.append(v._mpf_)
        else:
            out.append(finite_real(coefficient=v)[0]._mpf_)
    return out


class TruncSeries:
    """Truncated power series (a jet) with real mpf coefficients.

    Arithmetic with another series truncates to the lower order; any other
    operand, on either side, is a constant.  Division needs a nonzero
    constant term.  The coefficients (rounded at the working precision)
    and each constant (an int exactly) are converted once, a complex or
    non-finite one refused by name.  +, -, * and / run on raw tuples with
    the roundings of the mpf expressions; each coefficient of a product,
    and each quotient coefficient's sum, is the exact sum of the exact
    products rounded once (conv).
    """

    __slots__ = ("c",)

    def __init__(self, coeffs, order=None):
        raw = _raw_coeffs(map(to_mpf, coeffs))
        if order is not None:
            raw = raw[:order + 1] + [fzero] * max(0, order + 1 - len(raw))
        self.c = [mp.make_mpf(v) for v in raw]

    @classmethod
    def _of_raw(cls, raw):
        """The series of raw mpf coefficients, without conversion."""
        out = cls.__new__(cls)
        out.c = [mp.make_mpf(v) for v in raw]
        return out

    @property
    def order(self):
        return len(self.c) - 1

    @classmethod
    def constant(cls, v, order):
        return cls([v] + [0] * order)

    def _pair(self, other):
        """Raw coefficients of self and other through the lower order; a
        constant other is [other, 0, 0, ...]."""
        if isinstance(other, TruncSeries):
            K = min(self.order, other.order)
            return ([a._mpf_ for a in self.c[:K + 1]],
                    [b._mpf_ for b in other.c[:K + 1]])
        return ([a._mpf_ for a in self.c],
                _raw_coeffs([other]) + [fzero] * self.order)

    def __add__(self, other):
        prec, rnd = mp.mp._prec_rounding
        return TruncSeries._of_raw([mpf_add(a, b, prec, rnd)
                                    for a, b in zip(*self._pair(other))])

    __radd__ = __add__

    def __neg__(self):
        prec, rnd = mp.mp._prec_rounding
        return TruncSeries._of_raw([mpf_neg(a._mpf_, prec, rnd)
                                    for a in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def _scaled(self, other, raw_op):
        """[a op other] for a constant other."""
        k, = _raw_coeffs([other])
        prec, rnd = mp.mp._prec_rounding
        return TruncSeries._of_raw([raw_op(a._mpf_, k, prec, rnd)
                                    for a in self.c])

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self._scaled(other, mpf_mul)
        x, y = self._pair(other)
        prec, rnd = mp.mp._prec_rounding
        return TruncSeries._of_raw([conv(x, y, j, prec, rnd)
                                    for j in range(len(x))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            return self._scaled(other, mpf_div)
        x, y = self._pair(other)
        if y[0] == fzero:
            raise ZeroDivisionError("series division by a zero constant term")
        prec, rnd = mp.mp._prec_rounding
        out = []
        for j in range(len(x)):
            out.append(mpf_div(mpf_sub(x[j], conv(y, out, j, prec, rnd, 1),
                                       prec, rnd), y[0], prec, rnd))
        return TruncSeries._of_raw(out)

    def __rtruediv__(self, other):
        return TruncSeries.constant(other, self.order) / self

    def eval(self, s):
        """The polynomial at s by Horner's rule, acc = acc * s + c_j."""
        s = to_mpf(s)
        acc = mp.mpf(0)
        for a in reversed(self.c):
            acc = acc * s + a
        return acc

    def deriv_eval(self, s):
        s = to_mpf(s)
        acc = mp.mpf(0)
        for i in range(len(self.c) - 1, 0, -1):
            acc = acc * s + i * self.c[i]
        return acc


def _taylor_shift(p, t0, order):
    """Coefficients through s^order of p(t0 + s), p given lowest degree first
    (repeated synthetic division by s - t0)."""
    out = []
    for _ in range(min(order, len(p) - 1) + 1):
        acc, quot = 0, []
        for a in reversed(p):
            acc = acc * t0 + a
            quot.append(acc)
        out.append(quot.pop())
        p = quot[::-1]
    return TruncSeries(out, order)


def moment_series(k: int, params: WeightParams, order: int,
                  about=0) -> TruncSeries:
    """Taylor coefficients of mu_k(about + s) through s^order.

    mu_k(t) = P(t) - zeta e^{-t} Q(t) with integer-coefficient polynomials
    P (degree alpha, the integral over x >= 0) and Q (degree k + mu, the
    integral over x >= t after x = t + y); each is re-expanded about t*
    and the tail is multiplied by e^{-t*} e^{-s}.  A t* that is not
    finite is refused by name.
    """
    finite(about=about)
    head, tail = _moment_parts(k, params, order, about)
    return head - tail


def _moment_parts(k, params, order, about):
    """The jets of P(t) and zeta e^{-t} Q(t) of moment_series, apart.

    S = k + alpha + mu past MAX_S is refused before the lists (up to S + 1
    factorials of S log2 S bits) are built.  Their cost grows faster than
    S^2: one moment takes 0.7 s at S = 2000 and 27 s at 8000 (pure-Python
    mpmath, one x86 core), so MAX_S = 2048 keeps it under a second.
    """
    if not params.mu_is_integer:
        raise UnsupportedParameters("moment series requires integer mu")
    al, m = int(params.alpha), int(params.mu)
    S = k + al + m
    if S > MAX_S:
        raise UnsupportedParameters(
            f"closed form needs k + alpha + mu <= {MAX_S}, got {S}")
    t0 = to_mpf(about)
    head = [(-1) ** j * math.comb(al, j) * math.factorial(S - j)
            for j in range(al + 1)]
    tail = [math.comb(k + m, j) * math.factorial(S - j)
            for j in range(k + m + 1)]
    exp_neg = TruncSeries([(-1) ** i / mp.factorial(i)
                           for i in range(order + 1)])
    return (_taylor_shift(head, t0, order), to_mpf(params.zeta) * mp.exp(-t0)
            * (exp_neg * _taylor_shift(tail, t0, order)))


def _guarded_jets(params, order, about, k_lo, k_max) -> list:
    """Coefficient lists of the jets of mu_k_lo..mu_k_max about t*: the
    closed form for the first two, the Pearson recurrence for the rest.

    P_k and T_k = zeta e^{-t} Q_k run through the recurrence beside mu_k,
    at order 0, to measure the bits that mu_k = P_k - T_k cancels,
    log2((|P_k| + |T_k|)/|mu_k|); past FREE_LOSS everything is computed
    once more with that many more bits.  The loss does not depend on the
    width unless it reaches it (a mu_k that comes out 0 counts as the whole
    width), so the second run is final.
    """
    if not params.mu_is_integer:
        raise UnsupportedParameters(
            "closed form requires integer mu; use moment_quadrature")
    a_m, m = int(params.alpha) + int(params.mu), int(params.mu)

    def evaluate():
        t0 = to_mpf(about)
        seeds = [_moment_parts(k, params, order, t0)
                 for k in range(k_lo, min(k_max, k_lo + 1) + 1)]
        c = [(head - tail).c for head, tail in seeds]
        heads, tails = ([[x.c[0]] for x in part] for part in zip(*seeds))
        for k in range(k_lo, k_max - 1):
            grow, damp = k + 2 + a_m + t0, k + 1 + m
            for seq in (c, heads, tails):
                lo, hi = seq[-2:]
                seq.append([grow * hi[0] - damp * t0 * lo[0]] + [
                    grow * hi[j] + hi[j - 1] - damp * (t0 * lo[j] + lo[j - 1])
                    for j in range(1, len(hi))])
        if not all(cs[0] for cs in c):
            return c, mp.mp.prec
        return c, max(mp.mag(abs(p[0]) + abs(q[0])) - mp.mag(cs[0])
                      for p, q, cs in zip(heads, tails, c))

    c, lost = evaluate()
    if lost > FREE_LOSS:
        with mp.extraprec(lost):
            c = evaluate()[0]
    return c


def moment_jets(k_max: int, params: WeightParams, order: int,
                about=0) -> list:
    """Jets of mu_0..mu_k_max about t* through s^order, from two seeds.

    mu_0 and mu_1 come from moment_series; every higher moment follows from
    the Pearson recurrence mu_{k+2} = (k+2+alpha+mu+t) mu_{k+1}
    - (k+1+mu) t mu_k, whose coefficients are linear in t = t* + s.  Order 0
    gives the numbers.  Runs with ceil(1.5 |t*|) guard bits over the
    caller's precision, more where the numbers cancel (_guarded_jets), and
    leaves the values unrounded.  A t* that is not finite is refused by
    name before any arithmetic.
    """
    if k_max < 0:
        raise UnsupportedParameters("k_max must be >= 0")
    finite(about=about)
    with mp.workprec(53):       # forward recursion loses up to ~1.44 t bits
        guard = int(mp.ceil(3 * abs(to_mpf(about)) / 2))
    with mp.extraprec(guard):
        return [TruncSeries(cs)
                for cs in _guarded_jets(params, order, about, 0, k_max)]


def moment_closed_form(k: int, params: WeightParams, prec: PrecisionCtx):
    """mu_k in closed form: the order-0 term of moment_series about t, with
    30 guard bits, more where it cancels (_guarded_jets)."""
    if k < 0:
        raise UnsupportedParameters("k must be >= 0")
    with workprec(prec, 30):
        val = _guarded_jets(params, 0, params.t, k, k)[0][0]
    with workprec(prec):
        return +val


def moment_quadrature(k: int, params: WeightParams, prec: PrecisionCtx):
    """mu_k by split Gauss quadrature of the defining integral.

    Works for real mu >= 0; the only route available off the integer grid.
    """
    if k < 0:
        raise UnsupportedParameters("k must be >= 0")
    return _quadrature_moments([k], params, prec)[0]


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
            raise UnsupportedParameters("values must have length k_max + 1")
        if self.source not in ("closed_form", "quadrature"):
            raise UnsupportedParameters(BAD_SOURCE)
        for v in self.values:
            if not mp.isfinite(v):
                raise UnsupportedParameters("moment values must be finite")

    def __getitem__(self, k: int):
        return self.values[k]

    def __len__(self):
        return self.k_max + 1


def build_moment_table(params: WeightParams, k_max: int, prec: PrecisionCtx,
                       source: str = "closed_form",
                       cross_check: bool = True) -> MomentTable:
    """Moment table from the requested source.

    The closed-form source runs moment_jets at order 0 from the two seeds
    mu_0, mu_1 (equal to moment_closed_form entry by entry) and is
    cross-validated against quadrature at the endpoints k in {0, k_max};
    disagreement beyond prec.tol raises CrossCheckError rather than
    returning silently wrong data.  Callers
    rebuilding tables along a t-grid may pass cross_check=False once the
    agreement has been established for the parameter family.  Quadrature
    moments, for the table or the cross-check, come from one climb.
    """
    if k_max < 0:
        raise UnsupportedParameters("k_max must be >= 0")
    if source == "closed_form":
        with workprec(prec, 30):
            jets = moment_jets(k_max, params, 0, params.t)
        with workprec(prec):
            vals = [+mk.c[0] for mk in jets]
        tol = prec.tol_mpf()
        ends = sorted({0, k_max}) if cross_check else []
        for k, q in zip(ends, _quadrature_moments(ends, params, prec)):
            if abs(vals[k] - q) > tol * max(abs(q), mp.mpf(1)) * 10:
                raise CrossCheckError(
                    f"closed form and quadrature disagree at k={k}: "
                    f"{mp.nstr(vals[k], 25)} vs {mp.nstr(q, 25)}")
    elif source == "quadrature":
        vals = _quadrature_moments(range(k_max + 1), params, prec)
    else:
        raise UnsupportedParameters(BAD_SOURCE)
    return MomentTable(params, k_max, tuple(vals), source, prec)


def _quadrature_moments(ks, params, prec) -> list:
    """[mu_k for k in ks] in one climb; the first that does not converge
    raises QuadratureFailure."""
    if not ks:
        return []

    def powers(nodes):
        # x^k at 2^-F: the exact integer power, rounded down once
        X, F = nodes.X, nodes.F
        return [Column([x ** k >> (k - 1) * F for x in X] if k
                       else [1 << F] * len(X), -F) for k in ks]

    res = integrate_weighted(powers, params, prec)
    return [item.value for item in res]
