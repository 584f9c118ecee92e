"""Split Gauss quadrature for integrals against the jump-deformed weight.

The weight w(x) = (1 - zeta*H(x-t)) (x-t)^alpha x^mu e^{-x} on [0, inf) is
smooth on (0, t) and (t, inf) separately but jumps at x = t, and has an
endpoint singularity at 0 for non-integer mu.  Every integral here is a
sum over one node list (x_i, W_i) whose weights W_i already carry w(x_i):

- Gauss-Legendre panels, none longer than SPAN, cover [0, t]; the panel at
  0 is Gauss-Jacobi(0, mu) when mu is not an integer, so x^mu is exact;
- [t, inf) ends in Gauss-Laguerre after the change x = L + y, which is
  exact for polynomial integrands: there is no cutoff and no tail bound;
- integrands with a pole near the support (the Cauchy, epsilon and
  Stieltjes kernels 1/(x - s)) get Legendre panels graded by one bound:
  each panel's centre lies GRADE = 5 half-widths or more from the pole.
  Gauss error on a panel falls like rho^(-2m), rho set by the pole's
  distance in half-widths (Trefethen, SIAM Rev. 50, 2008), so the panel
  with the fewest half-widths to the pole sets the list's accuracy, and
  panels graded farther out spend nodes for nothing.  5 is the ratio of
  the first panel that sqrt(2) steps from half the pole's distance made,
  the panel that set that grading's accuracy; every panel at 5 keeps its
  worst error and needs about a third fewer nodes (ends d (1.5^j - 1)
  for a pole at -d).  The grading ends, and the Laguerre tail starts,
  REACH past the support point nearest the pole;
- x^mu's branch point at 0 grades the panels past the Jacobi panel by t:
  ends t/2 sqrt(2)^j, up to REACH.  With a pole as well, the pole's
  panels past the Jacobi panel keep GRADE half-widths from 0 too, and
  its steps land on the branch point's ends where they can, so the two
  gradings share ends.

Each node takes the jump factor of the panel it belongs to.  The reference
rules come from one builder for all three families (_gauss) that needs
only the family's recurrence: one float QL pass for the eigenvalues of its
Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969), then Newton's method
on the recurrence (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013), O(m^2)
operations, nodes and weights within an ulp (Golub-Welsch weights lose
10-13 bits).  They are cached per (family, m) at the highest precision
asked for so far, a Jacobi family by the exact value of mu.
integrate_weighted climbs the node ladder m = 10, 20, 40, 80 once for all
components of an integrand, each stopping at its first pair of successive
sums that agree to the tolerance; that difference is the error estimate
it carries.  An integrand takes the node list, not a node: it is called
once per rung with the list (kernels.Nodes) and returns one fixed-point
column (kernels.Column) per component.  So a family of integrals (R_n and
r_n, A_n and B_n, a moment table, the Cauchy sweep's E_0..E_n,
E_0'..E_n') is one call per rung.  The Laguerre tail
with m nodes is exact for polynomials of degree < 2m only, so at integer
mu two sums agree on x^k once the coarser one has 2m > k + alpha + mu: at
alpha = mu = 2 and t = 20 the 20-node sums miss from k = 36 on, and the
40/80 pair agrees.

The node arithmetic runs on Python integers (the contract, the scales and
the a-priori bound are kernels.py's).  A list carries its weights as one
integer column at one binary scale, which keeps the smallest nonzero |W_i|
at the working width plus kernels.WEIGHT_GUARD bits, and its nodes once
more, exactly, at 2^-F, F = working width + kernels.GUARD bits below the
smallest node's leading bit (or 1's): _build_nodes forms each
weight half w factor (x - t)^alpha x^mu e^{-x} as the exact product of its
factors' mantissas and rounds it once to the list's scale.  An integrand's
columns sit at 2^-F, or F bits below their largest value where that is
below 1, two integer columns for a complex argument; kernels.monic_columns
gives every P_k column (the Cauchy sweep's, the ladder integrands',
inner_product's, and by monic_step the Stieltjes procedure's), and each
sum is one exact integer dot product rounded once (kernels.weighted_sum),
wrong by at most half an ulp plus sum |W_i| e_i, e_i the error that the
column's integer operations carry to node i, each unit GUARD bits or more
below the working ulp.  The tensor oracles sum on the same integers: each
value is the exact sum over the list's integers, rounded once (oracle.py).
Jets and complex arguments elsewhere keep plain mpf arithmetic.

The node lists themselves are cached too, since one weight's integrals
ask for the same few lists many times (every ladder and oracle integral
and Cauchy sweep climbs afresh).  The key is every input a list depends
on: the weight's exact values (_exact, which the list is built from), m,
the pole and the working precision, plus the precision of each reference
rule the list is built from (_rule_bits).  Only one
weight's lists are kept, and of the pole-graded ones only the latest
pole's, so sweeping points or poles holds memory to a few lists.  A cached
list is the Nodes _build_nodes returned, so every sum runs over the same
nodes, in the same order and at the same precision as without the cache,
and gives the same bits.  Concurrent callers can at worst both build a
list that neither found.

What survives a change of weight is the geometry of the pole-graded lists
(_PANELS): each Legendre panel's abscissae, half w_i and e^{-x_i}, and the
Laguerre tail's abscissae L + y_i and e^{-L}, none of which depends on
the weight.  Per m, working precision and rule tier, the panels of the
latest graded list are kept, keyed by their exact ends, for the latest
pole only; the next weight's list at that pole takes every panel whose
ends it shares (those the pole grades, away from t) and forms only the
weight's own factors, in the order _build_nodes always forms them, so no
bit moves.  At integer mu a pole's ends come from the pole alone, formed
at 53 bits, so every such weight shares them but for the panel that t
cuts; a pole at -2 grades 7 panels, and its lists at m = 10, 20 and 40,
tails included, hold 630 nodes.  Lists without a pole keep no panels:
their ends all follow t (0, t, the cuts of [0, t] and, at non-integer
mu, the grading by t), so only a weight with the same t could use them
again, and keeping them for that case holds memory that a sweep over t
never repays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import mpmath as mp
from mpmath.libmp import (fone, from_float, from_int, fzero, mpf_add,
                          mpf_div, mpf_exp, mpf_mul, mpf_neg, mpf_pos,
                          mpf_pow, mpf_shift, mpf_sqrt, mpf_sub)

from .errors import QuadratureFailure
from .kernels import GUARD, WEIGHT_GUARD, Nodes, to_fixed, weighted_sum
from .precision import PrecisionCtx, to_fraction, to_mpf, workprec

LADDER = (10, 20, 40, 80)      # Gauss nodes per panel, one rung at a time
GUARD_BITS = 20
REACH = 32                     # graded panels end this far past a singularity
GRADE = 5                      # a pole lies this many half-widths or more
                               # from the centre of each panel it grades
SPAN = 5                       # longest panel on [0, t]

_RULES: dict = {}              # (family, m) -> (bits, rule)
_LISTS: dict = {}              # weighted_nodes key -> node tuple, one weight
_PANELS: dict = {}             # (m, prec, rounding) -> (pole, rule tiers,
                               # {ends: geometry}) of the latest graded list


@dataclass(frozen=True)
class QuadResult:
    """Value plus the error estimate that every quadrature result carries."""

    value: object
    error: object


@dataclass(frozen=True)
class QuadResults:
    """One QuadResult per component of a vector integrand.  A component
    whose sums never agreed holds its QuadratureFailure message instead
    and raises it when read, so the others stay usable."""

    items: tuple

    def __len__(self):
        return len(self.items)

    def __getitem__(self, k):
        item = self.items[k]
        if isinstance(item, str):
            raise QuadratureFailure(item)
        return item


def _jacobi(mu):
    """The Gauss-Jacobi(0, mu) family, keyed by the exact value of mu, so
    that '0.5', '0.50' and mpf('0.5') share one rule."""
    return ("jacobi", to_fraction(mu))


@functools.lru_cache(maxsize=64)
def _exact(params):
    """The weight with mu, zeta and t as the Fractions of their values:
    one key, and one list, however they are spelled.  Memoized: params is
    frozen, and a cache hit of weighted_nodes spent most of its time here
    re-validating the WeightParams it builds."""
    return replace(params, mu=to_fraction(params.mu),
                   zeta=to_fraction(params.zeta), t=to_fraction(params.t))


def _rule_bits(family, m):
    """Precision of the rule _rule returns at the working precision: the
    cached one's, or the next multiple of 64 bits where that is more (a few
    precision tiers share one build)."""
    return max(_RULES.get((family, m), (0,))[0],
               64 * math.ceil(mp.mp.prec / 64))


def _rule(family, m):
    """m-point reference rule: 'legendre' on [-1, 1], 'laguerre' for e^-y
    on [0, inf), or _jacobi(mu) for (1 + s)^mu on [-1, 1].  A rule asked
    for at a higher tier than the cached one is rebuilt from it."""
    bits = _rule_bits(family, m)
    cached = _RULES.get((family, m))
    if cached is None or cached[0] < bits:
        cached = _RULES[(family, m)] = (bits, _gauss(family, m, bits, cached))
    return zip(*cached[1])


def _family(family, m):
    """Monic recurrence p_{j+1} = (x - a_j) p_j - b_j p_{j-1} (j < m,
    b_0 = 0) of a reference rule at the working precision, its mass mu_0
    and its support."""
    if family == "legendre":
        a = [mp.mpf(0)] * m
        b = [mp.mpf(0)] + [mp.mpf(j * j) / (4 * j * j - 1)
                           for j in range(1, m)]
        return a, b, mp.mpf(2), (-1, 1)
    if family == "laguerre":
        return ([mp.mpf(2 * j + 1) for j in range(m)],
                [mp.mpf(j * j) for j in range(m)], mp.mpf(1), (0, mp.inf))
    mu = to_mpf(family[1])
    a = [mu * mu / ((2 * j + mu) * (2 * j + mu + 2)) for j in range(m)]
    b = [mp.mpf(0)] + [4 * (j * (j + mu) / (2 * j + mu)) ** 2
                       / ((2 * j + mu + 1) * (2 * j + mu - 1))
                       for j in range(1, m)]
    return a, b, 2 * mp.mpf(2) ** mu / (mu + 1), (-1, 1)


def _float_roots(a, b):
    """The roots of p_m in float, ascending: the eigenvalues of the Jacobi
    matrix, diagonal a_j and off-diagonal sqrt(b_j) (Golub & Welsch), by
    implicit QL sweeps with Wilkinson shifts, at most 30 per eigenvalue."""
    d = [float(v) for v in a]
    e = [math.sqrt(float(v)) for v in b[1:]] + [0.0]
    for lo in range(len(d)):
        for _ in range(30):
            hi = lo         # the block d[lo..hi] ends at a negligible e[hi]
            while hi < len(d) - 1 and (
                    abs(e[hi]) + (dd := abs(d[hi]) + abs(d[hi + 1])) != dd):
                hi += 1
            if hi == lo:
                break
            g = (d[lo + 1] - d[lo]) / (2 * e[lo])
            g = d[hi] - d[lo] + e[lo] / (g + math.copysign(math.hypot(g, 1),
                                                           g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(hi - 1, lo - 1, -1):
                f, h = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0:      # e[i] splits the block: sweep again
                    d[i + 1] -= p
                    e[hi] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * h
                p = s * r
                d[i + 1] = g + p
                g = c * r - h
            else:
                d[lo] -= p
                e[lo], e[hi] = g, 0.0
        else:
            raise QuadratureFailure(
                f"{len(d)}-point Jacobi matrix: QL did not converge")
    return sorted(d)


def _gauss(family, m, bits, cached=None):
    """(nodes, weights) of the m-point rule at bits, by Newton's method on
    the recurrence (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).

    Each root starts from _float_roots, or from cached = (bits, rule) of a
    lower tier, and takes Newton steps on p_m / p_m' from the recurrence
    on raw mpf tuples.  A step doubles the bits a root has, less c =
    bitlen(m) + 4 for rounding and curvature, so each runs at twice the
    bits reached.
    The root is done when a correction at the final width, target + c, is
    below 2^-target of max(|x|, 2^-bitlen(m)), with target = bits +
    2 bitlen(m) + 4: a weight moves by up to m^2 times its node's relative
    error.  That last evaluation, at the final node, gives the weight
    mu_0 b_1...b_{m-1} / (p_m'(x) p_{m-1}(x)).  Legendre builds its
    positive roots only.  Raises QuadratureFailure unless every root
    converges within a few steps at the final width, the nodes increase
    strictly inside the support, the weights are positive and they sum to
    mu_0 within m 2^-(bits-8) of it.
    """
    symmetric = family == "legendre"
    c = m.bit_length() + 4
    target = bits + 2 * m.bit_length() + 4
    final = target + c
    with mp.workprec(final):
        a, b, mu0, (lo, hi) = _family(family, m)
        numer = (mu0 * mp.fprod(b[1:]))._mpf_
    ra, rb = [v._mpf_ for v in a], [v._mpf_ for v in b]
    # a symmetric rule's roots from 0 up (0 itself when m is odd)
    if cached is None:
        roots = _float_roots(a, b)
        if symmetric:
            roots = [0.0] * (m % 2) + roots[(m + 1) // 2:]
        start, acc = [from_float(v) for v in roots], 53 - c
    else:
        nodes = cached[1][0][m // 2 if symmetric else 0:]
        start, acc = [v._mpf_ for v in nodes], cached[0] - c
    floor = -m.bit_length()
    pts = []
    for x in start:
        reached, tries = acc, 4         # evaluations at the final width
        while tries:
            prec = min(final, max(2 * reached, 64))
            p, dp, q = _recurrence(x, ra, rb, prec)
            dx = mpf_div(p, dp, prec, "n")
            # bits of x that the correction leaves alone
            good = max(x[2] + x[3] if x[1] else floor, floor) - (
                dx[2] + dx[3] if dx[1] else floor - final)
            tries -= prec == final
            if prec == final and good >= target:
                break
            x = mpf_sub(x, dx, prec, "n")
            reached = min(prec, 2 * good) - c
        else:
            raise QuadratureFailure(
                f"{m}-point {family} rule at {bits} bits: Newton's method "
                f"did not converge")
        pts.append((x, mpf_div(numer, mpf_mul(dp, q, final, "n"), final,
                               "n")))
    if symmetric:
        pts += [(mpf_neg(x), w) for x, w in pts if x != fzero]
    X, W = zip(*sorted((mp.make_mpf(mpf_pos(x, bits, "n")),
                        mp.make_mpf(mpf_pos(w, bits, "n"))) for x, w in pts))
    with mp.workprec(bits):
        if not (lo < X[0] and X[-1] < hi
                and all(u < v for u, v in zip(X, X[1:]))
                and min(W) > 0
                and abs(mp.fsum(W) - mu0) <= m * mp.ldexp(mu0, 8 - bits)):
            raise QuadratureFailure(
                f"{m}-point {family} rule at {bits} bits failed its checks")
    return X, W


def _recurrence(x, a, b, prec):
    """p_m(x), p_m'(x) and p_{m-1}(x) from the monic recurrence, on raw mpf
    tuples: products exact, each sum rounded once to prec."""
    mul, add, sub = mpf_mul, mpf_add, mpf_sub
    p0, p1 = fone, sub(x, a[0], prec, "n")
    d0, d1 = fzero, fone
    for aj, bj in zip(a[1:], b[1:]):
        xa = sub(x, aj, prec, "n") if aj[1] else x
        p0, p1, d0, d1 = (
            p1, sub(mul(xa, p1), mul(bj, p0), prec, "n"),
            d1, add(p1, sub(mul(xa, d1), mul(bj, d0), prec, "n"), prec, "n"))
    return p1, d1, p0


def _breaks(params, pole):
    """Panel ends in (0, inf) besides t, graded away from singularities.

    The x^mu branch point at 0 grades by t (or 1/2 at t = 0): ends
    d/2 sqrt(2)^j up to REACH, whose every second one, d/2 2^j, is exact.
    A pole adds the ends of _pole_ends, so that every Legendre panel it
    grades has its centre GRADE half-widths or more from it, sharing the
    branch point's ends and keeping its distance from 0.  Equal panels
    no longer than SPAN cut [0, t], so the ladder's m = 20 rung resolves
    e^{-x} (one panel over [0, 10] is 1e-20 off).  Ends within a few ulps
    of t or of each other are merged.
    """
    t = to_mpf(params.t)
    ends = []
    if not params.mu_is_integer:
        # the Jacobi panel at 0 takes x^mu; grade the panels past it by t,
        # the distance from the branch point to the start of the tail
        d = t if t > 0 else mp.mpf(1) / 2
        steps, j = (d / 2, d / 2 * mp.sqrt(2)), 0
        while (step := mp.ldexp(steps[j % 2], j // 2)) <= REACH:
            ends.append(step)
            j += 1
    if pole is not None:
        ends += _pole_ends(pole, None if params.mu_is_integer else ends)
    ends = set(ends)
    pieces = int(mp.ceil(t / SPAN))
    ends.update(t * i / pieces for i in range(1, pieces))
    # an odd step can land an end a rounding error away from t or from
    # another centre's end; such a panel has all its nodes on its ends, so
    # merge ends that agree to working precision
    close = mp.ldexp(1, 8 - mp.mp.prec)
    merged = []
    for b in sorted(ends):
        if abs(b - t) > close * b and (not merged or b - merged[-1] > close * b):
            merged.append(b)
    return merged


def _pole_ends(pole, branch=None):
    """The ends in (0, inf) that a pole off the support grades.

    They step out on both sides from the support point nearest the pole,
    near = max(Re pole, 0), each panel as wide as the bound allows: a
    panel whose near end lies u from Re pole has its centre GRADE
    half-widths h from the pole at h = (u + sqrt(GRADE^2 u^2 + (GRADE^2
    - 1) Im(pole)^2)) / (GRADE^2 - 1); for a real pole at -d the ends are
    d (1.5^j - 1).  Each step's width is formed at 53 bits, every
    rounding down, and added exactly, so each panel keeps the bound and
    the ends depend on the pole's value alone, not on the working width.
    The stepping stops at 0 and at exactly REACH past near, where the
    Laguerre tail starts; a pole farther than 2 * REACH from near adds
    none.

    At non-integer mu, branch holds the ends that grade x^mu's branch
    point at 0.  The panels past the Jacobi panel at 0 then keep GRADE
    half-widths from 0 as well (each end within a factor 1.5 of the
    last), and a step goes to the farthest branch end within it, so the
    two gradings share ends.
    """
    near = max(mp.re(pole), mp.mpf(0))
    if not 0 < abs(pole - near) <= 2 * REACH:
        return []
    foot, im = mp.re(pole)._mpf_, mp.im(pole)._mpf_
    sq, rest = from_int(GRADE ** 2), from_int(GRADE ** 2 - 1)
    # (GRADE^2 - 1) Im(pole)^2, rounded down as every term below
    off = mpf_mul(rest, mpf_mul(im, im, 53, "f"), 53, "f")
    ends = [near]
    for side in (1, -1):
        sign, b = from_int(side), near
        while True:
            u = mpf_mul(sign, mpf_sub(b._mpf_, foot), 53, "f")
            root = mpf_sqrt(mpf_add(mpf_mul(sq, mpf_mul(u, u, 53, "f"), 53,
                                            "f"), off, 53, "f"), 53, "f")
            width = mp.make_mpf(mpf_shift(mpf_div(
                mpf_add(u, root, 53, "f"), rest, 53, "f"), 1))
            if side < 0 and width >= b:
                break       # the panel [0, b] keeps the pole's bound
            if branch is not None and b > 0:
                # GRADE half-widths from 0: at most 2b / (GRADE -+ 1)
                width = min(width, mp.make_mpf(mpf_div(
                    mpf_shift(b._mpf_, 1), from_int(GRADE - side), 53, "f")))
            step = mp.make_mpf(mpf_add(b._mpf_, mpf_mul(sign, width._mpf_)))
            if branch is not None:
                shared = [g for g in branch
                          if 0 < side * (g - b) <= side * (step - b)]
                step = shared[-1 if side > 0 else 0] if shared else step
            b = step
            if side * (b - near) >= REACH:
                ends.append(near + side * REACH)
                break
            ends.append(b)
    return [b for b in ends if b > 0]


def weighted_nodes(params, m: int, pole=None):
    """The node list (kernels.Nodes) of m nodes per panel: the raw x_i,
    the same nodes at 2^-F and the integer weight column, W_i including
    the full weight.

    pole is the location of an off-support singularity of the integrand
    (x of a Cauchy kernel 1/(x - s)); it grades the panels around it, each
    panel's centre GRADE half-widths or more from it (_pole_ends).
    Runs at the caller's working precision.  Cached as the module
    docstring describes: a list for another weight drops the current
    weight's lists, a graded list for another pole drops the current
    pole's.  A graded list's panel geometry outlives its weight, for the
    latest pole only; a list without a pole keeps none.
    """
    params = _exact(params)
    # typed: mpc(-2, 0) == mpf(-2), but the two hash apart
    pole_key = None if pole is None else (type(pole), pole)
    # the rules the build will use; one that another caller upgrades before
    # the build leaves an entry that no later lookup asks for
    rules = tuple(_rule_bits(f, m) for f in
                  ("legendre", "laguerre", _jacobi(params.mu)))
    key = (params, m, pole_key, mp.mp.prec, rules)
    nodes = _LISTS.get(key)
    if nodes is None:
        for old in list(_LISTS):
            if old[0] != params or (pole_key is not None
                                    and old[2] not in (None, pole_key)):
                _LISTS.pop(old, None)
        nodes = _LISTS[key] = _build_nodes(params, m, pole)
    return nodes


def _build_nodes(params, m, pole):
    """One weighted_nodes list, given the weight as _exact gives it.

    Each panel's geometry (_panel, _tail) does not depend on the weight;
    each node's weight half w factor (x - t)^alpha x^mu e^{-x} (on the
    tail, factor e^{-L} w (x - t)^alpha x^mu) is the exact integer product
    of the mantissas of its factors, x - t and the powers formed exactly
    (x^mu is mpf_pow's at a non-integer mu, half^mu on the Jacobi panel),
    and the list rounds each product once to its one scale, which keeps
    the smallest nonzero weight at the working width plus WEIGHT_GUARD
    bits.  A graded list reads and leaves its Legendre panels and tail in
    _PANELS, as the module docstring describes; with _PANELS kept empty
    this is the from-scratch build.
    """
    prec, rnd = mp.mp._prec_rounding
    t = to_mpf(params.t)
    tm, te = _man_exp(t._mpf_)
    tail_factor = _man_exp((1 - to_mpf(params.zeta))._mpf_)
    alpha = int(params.alpha)
    mu = to_mpf(params.mu)._mpf_
    int_mu = int(params.mu) if params.mu_is_integer else None
    cuts = _breaks(params, pole)
    head = [mp.mpf(0)] + [b for b in cuts if b < t] + [t] if t > 0 else []
    tail = [t] + [b for b in cuts if b > t]
    memo = _panel_memo(m, pole)
    old = memo[2] if memo else {}
    kept = {}

    def geometry(key, build):
        """The geometry under key (a panel's ends, the tail's start): the
        previous list's, else build()'s."""
        kept[key] = old.get(key) or build()
        return kept[key]

    # (x, m, e, x^mu as (mantissa, exponent) or None) per node: the weight
    # is m 2^e (x - t)^alpha x^mu; nodes, rule weights and e^{-x} are > 0
    pending = []
    for ends, (fm, fe) in ((head, (1, 0)), (tail, tail_factor)):
        for lo, hi in zip(ends[:-1], ends[1:]):
            xmu = None
            if lo == 0 and not params.mu_is_integer:
                # Gauss-Jacobi(0, mu) carries x^mu = half^mu (1 + s)^mu
                half, nodes = _panel(lo, hi, _jacobi(params.mu), m)
                xmu = _man_exp(mpf_pow(half, mu, prec, rnd))
            else:
                _, nodes = geometry((lo._mpf_, hi._mpf_),
                                    lambda: _panel(lo, hi, "legendre", m))
            pending += [(x, fm * hm * dm, fe + he + de, xmu)
                        for x, (_, hm, he, _), (_, dm, de, _) in nodes]
    (_, dm, de, _), nodes = geometry(tail[-1]._mpf_,
                                     lambda: _tail(tail[-1], m))
    fm, fe = tail_factor
    pending += [(x, fm * dm * wm, fe + de + we, None)
                for x, (_, wm, we, _) in nodes]
    if memo:
        _PANELS[(m, prec, rnd)] = memo[:2] + (kept,)
    xs, prods = [], []
    for x, v, e, xmu in pending:
        _, xm, xe, _ = x
        lo = min(xe, te)
        d = (xm << xe - lo) - (tm << te - lo)
        if xmu is None:
            xmu = ((xm ** int_mu, xe * int_mu) if int_mu is not None
                   else _man_exp(mpf_pow(x, mu, prec, rnd)))
        xs.append(x)
        prods.append((v * d ** alpha * xmu[0], e + lo * alpha + xmu[1]))
    scale = min(e + abs(v).bit_length() for v, e in prods if v) - (
        prec + WEIGHT_GUARD)
    ws = tuple(v << (e - scale) if e >= scale
               else (v + (1 << (scale - e - 1))) >> (scale - e)
               for v, e in prods)
    # every node keeps prec + GUARD bits at 2^-F, so each converts exactly
    F = prec + GUARD - min(0, min(x[2] + x[3] for x in xs))
    return Nodes(tuple(xs), tuple(to_fixed(x, -F) for x in xs), F, ws, scale)


def _man_exp(v):
    """A raw mpf as (signed mantissa, exponent)."""
    s, m, e, _ = v
    return (-m if s else m), e


def _panel_memo(m, pole):
    """The _PANELS entry a graded build at the working precision may read:
    (pole, rule tiers, geometries) of the previous graded list at this
    pole, m, width and tiers, with its geometries emptied if there is none
    or its tiers are not the current ones; None without a pole.  A graded
    build at another pole drops every entry of the old one first.
    """
    if pole is None:
        return None
    prec, rnd = mp.mp._prec_rounding
    # typed: mpc(-2, 0) == mpf(-2), but the two hash apart
    pole_key = (type(pole), pole)
    rules = (_rule_bits("legendre", m), _rule_bits("laguerre", m))
    for key, entry in list(_PANELS.items()):
        if entry[0] != pole_key:
            _PANELS.pop(key, None)
    entry = _PANELS.get((m, prec, rnd))
    if entry is None or entry[1] != rules:
        entry = (pole_key, rules, {})
    return entry


def _panel(lo, hi, family, m):
    """A panel's geometry at the working precision: half = (hi - lo) / 2
    and a tuple of (x_i, half w_i, e^{-x_i}), all raw, over the reference
    rule's nodes s_i, x_i = mid + half s_i."""
    prec, rnd = mp.mp._prec_rounding
    half, mid = ((hi - lo) / 2)._mpf_, ((hi + lo) / 2)._mpf_
    nodes = []
    for s, w in _rule(family, m):
        x = mpf_add(mid, mpf_mul(half, s._mpf_, prec, rnd), prec, rnd)
        nodes.append((x, mpf_mul(half, w._mpf_, prec, rnd),
                      mpf_exp(mpf_neg(x, prec, rnd), prec, rnd)))
    return half, tuple(nodes)


def _tail(start, m):
    """The Laguerre tail's geometry from start = L: e^{-L} and a tuple of
    (L + y_i, w_i), all raw."""
    prec, rnd = mp.mp._prec_rounding
    return mp.exp(-start)._mpf_, tuple(
        (mpf_add(start._mpf_, y._mpf_, prec, rnd), w._mpf_)
        for y, w in _rule("laguerre", m))


def integrate_weighted(fn, params, prec: PrecisionCtx, rel_scale=None,
                       extra_digits=0, pole=None):
    """Integrate each component of fn w(x) dx over [0, inf), one climb.

    fn is called once per rung with the rung's node list (weighted_nodes')
    and excludes the weight; it returns one kernels.Column per component,
    all over the same nodes, each summed by one exact integer dot product
    and one rounding (kernels.weighted_sum).  Sums at m and 2m nodes
    per panel, climbing LADDER until |Q_2m - Q_m| <= prec.tol * scale,
    where a component's scale is |rel_scale[k]| when rel_scale (one scale
    per component) is given, else |Q_2m|, floored at the sum's absolute
    mass sum |W_i v_i| times 2^-(significand_bits/2) so that an integral
    that is exactly 0 converges too; each component keeps the Q_2m of
    the first pair at which it agreed, and the climb stops once all have.
    extra_digits widens the working precision when the caller expects
    cancellation (Cauchy transforms far from the support); pole is as in
    weighted_nodes.

    Returns QuadResults of one QuadResult(Q_2m, |Q_2m - Q_m|) per
    component; a component whose sums never agree raises QuadratureFailure
    when it is read.
    """
    tol = prec.tol_mpf()
    bits = prec.significand_bits + GUARD_BITS + math.ceil(
        extra_digits * math.log2(10))
    with mp.workprec(bits):
        scales = (None if rel_scale is None
                  else [abs(to_mpf(s)) for s in rel_scale])
        rnd = mp.mp._prec_rounding[1]

        def sums(m, ks=None):
            nodes = weighted_nodes(params, m, pole)
            cols = fn(nodes)
            if ks is None:
                ks = range(len(cols))
            return nodes, cols, {k: weighted_sum(nodes, cols[k], bits, rnd)
                                 for k in ks}

        coarse = sums(LADDER[0])[2]
        pending, done = list(coarse), {}
        for m in LADDER[1:]:
            nodes, cols, fine = sums(m, pending)
            for k in pending:
                err = abs(fine[k] - coarse[k])
                scale = abs(fine[k]) if scales is None else scales[k]
                if scales is None and err > tol * scale:
                    # floor: half the digits of the absolute mass (exact 0s)
                    scale = max(scale, mp.ldexp(
                        weighted_sum(nodes, cols[k], bits, rnd,
                                     absolute=True),
                        -(prec.significand_bits // 2)))
                if err <= tol * scale:
                    done[k] = (fine[k], err)
                else:
                    # the failure, should this pair be the ladder's last
                    done[k] = (f"{LADDER[-1]}-node sums still differ by "
                               f"{mp.nstr(err, 5)} at scale "
                               f"{mp.nstr(scale, 5)}")
            pending = [k for k in pending if isinstance(done[k], str)]
            if not pending:
                break
            coarse = fine
    with workprec(prec):
        return QuadResults(tuple(
            item if isinstance(item, str) else QuadResult(+item[0], +item[1])
            for _, item in sorted(done.items())))


def weight_value(x, params):
    """Full weight (x-t)^alpha x^mu e^{-x}, times 1 - zeta past x = t."""
    x = to_mpf(x)
    t = to_mpf(params.t)
    w = (x - t) ** int(params.alpha) * x ** to_mpf(params.mu) * mp.exp(-x)
    if x > t:
        w = (1 - to_mpf(params.zeta)) * w
    return w
