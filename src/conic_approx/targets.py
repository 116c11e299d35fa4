"""Approximation targets (1, xi1, xi2) that can be certified at any precision."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Protocol

from .arith import is_square
from .extremal import CertifiedVec3, ExtremalSequence, limit_point, seed_triple
from .numerics import CertifiedReal, check_cap, sqrt_outward


class Target(Protocol):
    def enclosure(self, bits: int) -> tuple[CertifiedReal, CertifiedReal]:
        """Enclosures of (xi1, xi2) with widths at most 2**-bits."""
        ...

    def exact_coords(self) -> tuple[Fraction, Fraction] | None:
        """Exact values when the target is rational, else None."""
        ...


@dataclass(frozen=True)
class RationalTarget:
    xi1: Fraction
    xi2: Fraction

    def enclosure(self, bits: int) -> tuple[CertifiedReal, CertifiedReal]:
        return (
            CertifiedReal.from_fraction(self.xi1, bits),
            CertifiedReal.from_fraction(self.xi2, bits),
        )

    def exact_coords(self):
        return (self.xi1, self.xi2)


class DependentTargetError(ValueError):
    """1, sqrt(a), sqrt(b) are linearly dependent over Q, but the point is not
    rational: L has exact ties there, which no precision decides."""


@dataclass(frozen=True)
class SqrtPairTarget:
    """The point (1, sqrt(a), sqrt(b)) for non-negative integers a, b, enclosed
    on the grid 2**-bits.

    Either 1, sqrt(a), sqrt(b) are linearly independent over Q (none of a, b,
    a*b is a square), as the paper assumes, or both a and b are squares and
    the point is rational.  Any other pair raises `DependentTargetError`.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        sa, sb = is_square(self.a), is_square(self.b)
        if not (sa and sb) and (sa or sb or is_square(self.a * self.b)):
            square = self.a if sa else self.b if sb else f"{self.a}*{self.b}"
            raise DependentTargetError(
                f"1, sqrt({self.a}) and sqrt({self.b}) are linearly dependent over Q "
                f"({square} is a square)"
            )

    def enclosure(self, bits: int) -> tuple[CertifiedReal, CertifiedReal]:
        return (
            CertifiedReal.from_scaled(*sqrt_outward(self.a, bits), bits),
            CertifiedReal.from_scaled(*sqrt_outward(self.b, bits), bits),
        )

    def exact_coords(self):
        if is_square(self.a) and is_square(self.b):
            return (Fraction(isqrt(self.a)), Fraction(isqrt(self.b)))
        return None


@dataclass
class ExtremalTarget:
    """Limit point of the seeded sequence on x0^2 - b*x1^2 - c*x2^2 = 1."""

    b: int
    c: int
    _seq: ExtremalSequence | None = field(default=None, repr=False)
    _limit: tuple[int, CertifiedVec3] | None = field(default=None, repr=False)

    @property
    def sequence(self) -> ExtremalSequence:
        if self._seq is None:
            self._seq = seed_triple(self.b, self.c)
        return self._seq

    def limit(self, bits: int) -> CertifiedVec3:
        """`limit_point` with widths at most 2**-bits.  The tightest enclosure
        so far serves every request of at most its bits; a request past it
        computes a new one at exactly `bits`, so the first call on a target
        gives the same enclosure as `limit_point` at 2**-bits."""
        if self._limit is None or self._limit[0] < bits:
            check_cap(bits)  # before 2**bits is built
            self._limit = bits, limit_point(self.sequence, Fraction(1, 2**bits))
        return self._limit[1]

    def enclosure(self, bits: int) -> tuple[CertifiedReal, CertifiedReal]:
        enc = self.limit(bits)
        return enc.xi1, enc.xi2

    def exact_coords(self):
        return None
