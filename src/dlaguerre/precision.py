"""Working-precision context shared by every numerical operation.

All arithmetic runs on mpmath under an explicit significand width: a
PrecisionCtx travels with every operation, and `workprec` scopes the mpmath
precision to a block.  A function whose context is optional runs at the one
given, else at its data's (a table's or a trajectory's), else at
DEFAULT_CTX, the one shared PrecisionCtx(); the caller's mpmath width
never picks it.  Floats are taken at their exact binary value; pass
decimal strings when a decimal literal is meant (the CLI always does).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_rational

from .errors import UnsupportedParameters

DEFAULT_BITS = 256


def finite(**values):
    """The values as mpf (or mpc), in order; a nan or infinite one is
    refused by name."""
    out = []
    for name, v in values.items():
        v = to_mpf(v)
        if not mp.isfinite(v):
            raise UnsupportedParameters(
                f"{name} must be finite, got {name} = {v}")
        out.append(v)
    return out


def finite_real(**values):
    """The values as finite mpf, in order, as finite gives them; a complex
    one is refused by name."""
    out = finite(**values)
    for name, v in zip(values, out):
        if type(v) is not mp.mpf:
            raise UnsupportedParameters(
                f"{name} must be real, got {name} = {v}")
    return out


def to_mpf(x):
    """Convert x to mpf (or mpc) at the current precision.

    Accepts int, float, str, Fraction, mpf, mpc, complex.
    """
    if isinstance(x, (mp.mpf, mp.mpc)):
        return x
    if isinstance(x, Fraction):
        # rounded once, as mp.mpf rounds a decimal string
        return mp.make_mpf(from_rational(x.numerator, x.denominator,
                                         mp.mp.prec, "n"))
    if isinstance(x, complex):
        return mp.mpc(x.real, x.imag)
    return mp.mpf(x)


def to_fraction(x):
    """The exact value of x as a Fraction: an mpf's binary value, anything
    else as Fraction reads it (a decimal string's decimal value)."""
    if isinstance(x, mp.mpf):
        if not mp.isfinite(x):
            return Fraction(float(x))   # raises, as for an inf or nan float
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    return Fraction(x)


def fraction_or_none(x):
    """to_fraction(x), or None when x is not a finite real number."""
    try:
        return to_fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None


@dataclass(frozen=True)
class PrecisionCtx:
    """Precision contract: significand bits and relative tolerance.

    The default pairs 256 bits (~77 decimal digits) with a 1e-30 relative
    tolerance, leaving a wide guard band for cancellation.
    """

    significand_bits: int = DEFAULT_BITS
    tol: object = field(default="1e-30")

    def __post_init__(self):
        if self.significand_bits < 64:
            raise UnsupportedParameters("significand_bits must be >= 64")
        t = self.tol_mpf()
        if not t > 0:
            raise UnsupportedParameters("tol must be positive")

    def tol_mpf(self):
        with mp.workprec(max(self.significand_bits, 64)):
            return to_mpf(self.tol)

    @property
    def decimal_digits(self) -> int:
        """Full decimal digits representable at this width (floor(bits*log10 2))."""
        return int(math.floor(self.significand_bits * math.log10(2)))

    def scaled(self, bits: int) -> "PrecisionCtx":
        """Same contract at a different significand width."""
        return PrecisionCtx(bits, self.tol)


# The default context, built once: a PrecisionCtx is frozen, and building
# one parses tol.
DEFAULT_CTX = PrecisionCtx()


@contextmanager
def workprec(prec: PrecisionCtx, extra_bits: int = 0):
    """Run a block at prec.significand_bits (+ guard bits)."""
    with mp.workprec(prec.significand_bits + extra_bits):
        yield mp


def nstr_full(x, prec: PrecisionCtx) -> str:
    """Decimal string carrying the full digit count of the context."""
    return mp.nstr(x, prec.decimal_digits, strip_zeros=True)
