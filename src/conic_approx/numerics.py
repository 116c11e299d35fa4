"""Certified reals on dyadic grids.

Precision is an absolute bit count p, meaning the grid 2**-p.  A certified
value is an interval whose endpoints are rounded outward (lower endpoint down,
upper endpoint up) to such a grid, so it encloses the exact value it stands
for.  The only rounding to a mantissa length is upward, for upper bounds of
positive quantities (`ratio_up`, `Dyadic.round_up`).

Scaled floors and ceilings go through `scale_outward`, square roots through
`sqrt_outward`, certified nearest integers through `nearest_integer`, every
height-driven precision through `height_precision`, and every request for p
bits past the cap through `check_cap`.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

DEFAULT_PRECISION_CAP = 4096
_CAP_ENV = "CONIC_APPROX_MAX_BITS"


def precision_cap() -> int:
    """Hard ceiling on working precision, overridable via CONIC_APPROX_MAX_BITS."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_PRECISION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"{_CAP_ENV} must be a positive integer, not {raw!r}")
    return cap


class PrecisionCapError(RuntimeError):
    """Raised when a certified computation would need more bits than the cap allows."""


def check_cap(bits: int) -> None:
    """Refuse a request for `bits` bits past the cap, before anything of that
    size is built."""
    cap = precision_cap()
    if bits > cap:
        raise PrecisionCapError(f"needs {bits} bits, cap is {cap}")


class DomainError(ValueError):
    """Operand outside the mathematical domain of an operation (e.g. sqrt of a negative)."""


@dataclass(frozen=True)
class Dyadic:
    """man * 2**exp, with man odd or zero (canonical representation)."""

    man: int
    exp: int

    @staticmethod
    def make(man: int, exp: int = 0) -> "Dyadic":
        if man == 0:
            return Dyadic(0, 0)
        shift = (man & -man).bit_length() - 1
        return Dyadic(man >> shift, exp + shift)

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp, 1)
        return Fraction(self.man, 1 << -self.exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.exp, other.exp)
        return Dyadic.make((self.man << (self.exp - e)) + (other.man << (other.exp - e)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp) if self.man else self

    def mul_int(self, k: int) -> "Dyadic":
        return Dyadic.make(self.man * k, self.exp)

    def _cmp(self, other: "Dyadic") -> int:
        e = min(self.exp, other.exp)
        d = (self.man << (self.exp - e)) - (other.man << (other.exp - e))
        return (d > 0) - (d < 0)

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def round_up(self, prec: int) -> "Dyadic":
        """Smallest dyadic with at most prec mantissa bits that is >= self."""
        drop = abs(self.man).bit_length() - prec
        if drop <= 0:
            return self
        return Dyadic.make(scale_outward(self.man, -drop)[1], self.exp + drop)

    def log(self) -> float:
        """Natural log of a positive dyadic; exact-mantissa big ints are fine."""
        if self.man <= 0:
            raise DomainError("log of non-positive dyadic")
        return math.log(self.man) + self.exp * math.log(2)

    def __float__(self) -> float:
        try:
            return self.man * 2.0 ** self.exp
        except OverflowError:
            return math.inf if self.man > 0 else -math.inf

    def __repr__(self) -> str:
        return f"Dyadic({self.man}, {self.exp})"


def scale_outward(num: int, shift: int, den: int = 1) -> tuple[int, int]:
    """(floor, ceiling) of num * 2**shift / den, for den > 0.

    Shifts only when den = 1, one division otherwise, so a caller that needs
    both sides of one quotient pays for a single division.
    """
    if shift >= 0:
        num <<= shift
    elif den == 1:
        return num >> -shift, -((-num) >> -shift)
    else:
        den <<= -shift
    if den == 1:
        return num, num
    q, r = divmod(num, den)
    return q, q + (r > 0)


def sqrt_outward(n: int, p: int) -> tuple[int, int]:
    """(floor, ceiling) of sqrt(n) * 2**p, for p >= 0, from one isqrt of n * 4**p."""
    if n < 0:
        raise DomainError(f"square root of the negative integer {n}")
    m = n << 2 * p
    lo = isqrt(m)
    return lo, lo + (lo * lo != m)


def nearest_integer(lo: int, hi: int, p: int) -> int | None:
    """The integer n that both lo * 2**-p and hi * 2**-p round to (halves round
    up), so every point of [lo, hi] * 2**-p does; None when they round apart.
    Needs p >= 1."""
    half = 1 << (p - 1)
    n = (lo + half) >> p
    return n if (hi + half) >> p == n else None


def height_precision(height: int, floor: int) -> int:
    """Working bits for certified values at heights up to `height`: L at
    height X is about X**-0.6, so 2 bits(X) + 64 bits keep its enclosure away
    from 0 and the record comparisons decided.  Never fewer than floor."""
    return max(floor, 2 * height.bit_length() + 64)


def ratio_up(num: int, den: int) -> Dyadic:
    """A dyadic >= num/den with a mantissa of about 64 bits, for num >= 0, den > 0.

    Reads only the 64-bit heads of num (rounded up) and den (rounded down),
    so it costs no full-size division.  Each of the two heads and the final
    quotient is off by a factor below 1 + 2**-63, so the result exceeds
    num/den by a factor below 1 + 2**-61.
    """
    if den <= 0 or num < 0:
        raise ValueError("ratio_up needs num >= 0 and den > 0")
    if num == 0:
        return ZERO
    a = max(0, num.bit_length() - 64)
    b = max(0, den.bit_length() - 64)
    hn = scale_outward(num, -a)[1]
    hd = scale_outward(den, -b)[0]
    s = 64 + hd.bit_length() - hn.bit_length()
    return Dyadic.make(scale_outward(hn, s, hd)[1], a - b - s)


ZERO = Dyadic(0, 0)


@dataclass(frozen=True)
class CertifiedReal:
    """Interval [lo, hi] guaranteed to contain the exact value it stands for;
    `precision` is the bit count p it was certified at."""

    lo: Dyadic
    hi: Dyadic
    precision: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("empty interval")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_scaled(lo: int, hi: int, p: int) -> "CertifiedReal":
        """[lo, hi] * 2**-p at precision p."""
        return CertifiedReal(Dyadic.make(lo, -p), Dyadic.make(hi, -p), p)

    @staticmethod
    def from_fraction(q: Fraction, precision: int) -> "CertifiedReal":
        """q between its floor and ceiling on the grid 2**-precision."""
        return CertifiedReal.from_scaled(
            *scale_outward(q.numerator, precision, q.denominator), precision
        )

    # -- queries -----------------------------------------------------------
    def width(self) -> Dyadic:
        return self.hi - self.lo

    def contains(self, q: Fraction | int) -> bool:
        q = Fraction(q)
        return self.lo.as_fraction() <= q <= self.hi.as_fraction()

    def midpoint(self) -> Fraction:
        return (self.lo.as_fraction() + self.hi.as_fraction()) / 2

    def __float__(self) -> float:
        return float(self.midpoint())

    def __neg__(self) -> "CertifiedReal":
        return CertifiedReal(-self.hi, -self.lo, self.precision)

    def log_bounds(self) -> tuple[float, float]:
        return self.lo.log(), self.hi.log()

