"""Certified interval reals over dyadic endpoints.

Endpoints are dyadic rationals (integer mantissa times a power of two), so
addition, subtraction and multiplication by dyadics or integers are exact;
rounding happens only when an operation result is trimmed back to the working
precision, and it is always outward (lower endpoint down, upper endpoint up).
Every operation therefore returns an enclosure of the exact result.
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

    @staticmethod
    def from_fraction_down(q: Fraction, prec: int) -> "Dyadic":
        return _scale_fraction(q, prec, up=False)

    @staticmethod
    def from_fraction_up(q: Fraction, prec: int) -> "Dyadic":
        return _scale_fraction(q, prec, up=True)

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

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic.make(self.man * other.man, self.exp + other.exp)

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

    def round_down(self, prec: int) -> "Dyadic":
        """Largest dyadic with at most prec mantissa bits that is <= self."""
        n = abs(self.man).bit_length()
        if n <= prec:
            return self
        drop = n - prec
        return Dyadic.make(self.man >> drop, self.exp + drop)

    def round_up(self, prec: int) -> "Dyadic":
        n = abs(self.man).bit_length()
        if n <= prec:
            return self
        drop = n - prec
        return Dyadic.make(-((-self.man) >> drop), self.exp + drop)

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


def _scale_fraction(q: Fraction, prec: int, up: bool) -> Dyadic:
    num, den = q.numerator, q.denominator
    if den == 1:
        return Dyadic.make(num)
    k = prec + den.bit_length()
    scaled = num << k
    m = -((-scaled) // den) if up else scaled // den
    return Dyadic.make(m, -k)


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
    hn = -((-num) >> a)
    hd = den >> b
    s = 64 + hd.bit_length() - hn.bit_length()
    return Dyadic.make(-((-hn << s) // hd), a - b - s)


ZERO = Dyadic(0, 0)


@dataclass(frozen=True)
class CertifiedReal:
    """Interval [lo, hi] guaranteed to contain the exact value it stands for."""

    lo: Dyadic
    hi: Dyadic
    precision: int = 64

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("empty interval")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_int(n: int, precision: int = 64) -> "CertifiedReal":
        d = Dyadic.make(n)
        return CertifiedReal(d, d, precision)

    @staticmethod
    def from_fraction(q: Fraction, precision: int = 64) -> "CertifiedReal":
        return CertifiedReal(
            Dyadic.from_fraction_down(q, precision),
            Dyadic.from_fraction_up(q, precision),
            precision,
        )

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction, precision: int = 64) -> "CertifiedReal":
        return CertifiedReal(
            Dyadic.from_fraction_down(Fraction(lo), precision),
            Dyadic.from_fraction_up(Fraction(hi), precision),
            precision,
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

    # -- arithmetic (outward rounded to working precision) -----------------
    def _wrap(self, lo: Dyadic, hi: Dyadic, precision: int | None = None) -> "CertifiedReal":
        p = precision if precision is not None else self.precision
        return CertifiedReal(lo.round_down(p), hi.round_up(p), p)

    def _join_prec(self, other: "CertifiedReal") -> int:
        return max(self.precision, other.precision)

    def __add__(self, other: "CertifiedReal") -> "CertifiedReal":
        return self._wrap(self.lo + other.lo, self.hi + other.hi, self._join_prec(other))

    def __sub__(self, other: "CertifiedReal") -> "CertifiedReal":
        return self._wrap(self.lo - other.hi, self.hi - other.lo, self._join_prec(other))

    def __neg__(self) -> "CertifiedReal":
        return CertifiedReal(-self.hi, -self.lo, self.precision)

    def __mul__(self, other: "CertifiedReal") -> "CertifiedReal":
        prods = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return self._wrap(min(prods), max(prods), self._join_prec(other))

    def mul_int(self, k: int) -> "CertifiedReal":
        """Exact multiplication by an integer (no rounding)."""
        a, b = self.lo.mul_int(k), self.hi.mul_int(k)
        if k < 0:
            a, b = b, a
        return CertifiedReal(a, b, self.precision)

    def abs_(self) -> "CertifiedReal":
        if ZERO <= self.lo:
            return self
        if self.hi <= ZERO:
            return -self
        return CertifiedReal(ZERO, max(-self.lo, self.hi), self.precision)

    def max_with(self, other: "CertifiedReal") -> "CertifiedReal":
        return CertifiedReal(
            max(self.lo, other.lo), max(self.hi, other.hi), self._join_prec(other)
        )

    def log_bounds(self) -> tuple[float, float]:
        return self.lo.log(), self.hi.log()


def _sqrt_shift(d: Dyadic, prec: int) -> tuple[int, int]:
    k = max(0, 2 * prec - abs(d.man).bit_length())
    if (d.exp - k) % 2:
        k += 1
    return d.man << k, (d.exp - k) // 2


def sqrt_down(d: Dyadic, prec: int) -> Dyadic:
    m, e = _sqrt_shift(d, prec)
    return Dyadic.make(isqrt(m), e)


def sqrt_up(d: Dyadic, prec: int) -> Dyadic:
    m, e = _sqrt_shift(d, prec)
    s = isqrt(m)
    if s * s != m:
        s += 1
    return Dyadic.make(s, e)


def interval_sqrt(x: CertifiedReal) -> CertifiedReal:
    """Enclosure of sqrt over the whole interval; outward rounded."""
    if x.lo < ZERO:
        raise DomainError("interval_sqrt of interval reaching below zero")
    p = x.precision
    return CertifiedReal(sqrt_down(x.lo, p), sqrt_up(x.hi, p), p)
