"""Approximation targets (1, xi1, xi2) that can be certified at any precision."""
from __future__ import annotations

from fractions import Fraction

from .arith import is_square
from .extremal import ExtremalSequence, seed_triple
from .limit import CertifiedVec3, limit_point
from .numerics import CertifiedReal, check_cap, sqrt_outward
from .records import FrozenRecord, Record


class Target:
    """A point (1, xi1, xi2) with 1, xi1, xi2 linearly independent over Q, the
    paper's hypothesis: L(x) never vanishes, so every record comparison is
    decided at some finite precision.  Only annotations name it: a target is
    any object with this method."""

    def enclosure(self, bits: int) -> tuple[CertifiedReal, CertifiedReal]:
        """Enclosures of (xi1, xi2) with widths at most 2**-bits."""
        ...


class DependentTargetError(ValueError):
    """1, xi1, xi2 are linearly dependent over Q, so the target is outside the
    paper's hypothesis: L vanishes or ties exactly, which no precision decides."""


class SqrtPairTarget(FrozenRecord):
    """The point (1, sqrt(a), sqrt(b)) for non-negative integers a, b, enclosed
    on the grid 2**-bits.

    A pair is accepted exactly when none of a, b, a*b is a square, that is,
    when 1, sqrt(a), sqrt(b) are linearly independent over Q, as the paper
    assumes.  Any other pair, square pairs and (0, 0) among them, raises
    `DependentTargetError`.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        sa, sb = is_square(a), is_square(b)
        if sa or sb or is_square(a * b):
            square = a if sa else b if sb else f"{a}*{b}"
            raise DependentTargetError(
                f"1, sqrt({a}) and sqrt({b}) are linearly dependent over Q "
                f"({square} is a square)"
            )
        super().__init__(a, b)

    def enclosure(self, bits: int) -> tuple[CertifiedReal, CertifiedReal]:
        return (
            CertifiedReal.from_scaled(*sqrt_outward(self.a, bits), bits),
            CertifiedReal.from_scaled(*sqrt_outward(self.b, bits), bits),
        )


class ExtremalTarget(Record):
    """Limit point of the seeded sequence on x0^2 - b*x1^2 - c*x2^2 = 1.

    `_seq` and `_limit` cache the sequence and the tightest enclosure so far;
    equality and the repr leave them out."""

    __slots__ = ("b", "c", "_seq", "_limit")
    _fields = ("b", "c")

    def __init__(self, b: int, c: int) -> None:
        self.b = b
        self.c = c
        self._seq: ExtremalSequence | None = None
        self._limit: tuple[int, CertifiedVec3] | None = None

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
