"""The limit point of a seeded sequence, certified.

`limit_point` encloses the limit (1 : xi1 : xi2) of the projective classes
of the members of an `ExtremalSequence`, from the consecutive distances
d_j = ||y_j ^ y_{j+1}|| / (||y_j|| ||y_{j+1}||) and the tail bounds summed
from them (`ConsecutiveDistances`), and checks that the enclosure meets the
conic; `verify_no_small_relation` reads the same distances.  Members past
the stored depth come from `extremal.extend`, with every identity checked.
"""
from __future__ import annotations

from fractions import Fraction

from .extremal import ExtremalSequence, InvariantViolation, extend
from .numerics import ZERO, CertifiedReal, Dyadic, check_cap, ratio_up, scale_outward
from .quadform import cross, max_norm
from .records import FrozenRecord


class CertifiedVec3(FrozenRecord):
    """Enclosure of a projective representative (1, xi1, xi2), plus a bound on
    the projective distance from the last sequence member used to the limit,
    all three on one grid."""

    __slots__ = ("xi1", "xi2", "tail_bound")


class ConsecutiveDistances:
    """The distances d_j = ||y_j ^ y_{j+1}|| / (||y_j|| ||y_{j+1}||), j >= 2, of
    one sequence, each computed once and rounded up by `ratio_up`, and the tail
    bounds summed from them.

    Appending d_j checks the quartic decay d_j <= d_{j-1} / 4 exactly, as
    4 c_j n_{j-1} <= c_{j-1} n_j on the wedge norms c and the norm products n.
    When d_j reads a member past the stored depth, one `extend` call appends
    it together with every member up to `_horizon`, so a batch costs one call.
    """

    def __init__(self, seq: ExtremalSequence, goal_bits: int):
        self.seq = seq
        self.goal_bits = goal_bits
        self.up: list[Dyadic] = []  # up[k] >= d_{k+2}
        self.last: tuple[int, int] | None = None  # (c, n) of the last distance

    def __getitem__(self, j: int) -> Dyadic:
        while len(self.up) <= j - 2:
            self._append()
        return self.up[j - 2]

    def _append(self) -> None:
        seq, j = self.seq, len(self.up) + 2
        if seq.depth <= j:
            extend(seq, max(j + 1, self._horizon()))
        y, z = seq.y(j), seq.y(j + 1)
        c, n = max_norm(cross(y, z)), max_norm(y) * max_norm(z)
        if self.last is not None and 4 * c * self.last[1] > self.last[0] * n:
            raise InvariantViolation("quartic decay of consecutive distances", j)
        self.last = c, n
        self.up.append(ratio_up(c, n))

    def _horizon(self) -> int:
        """One past the first index k with 2 bits(||y_k||) >= goal_bits, the
        index from which d_k, about ||y_k||^-2, is below 2^-goal_bits.

        Past the stored members, ||y_{k+1}|| is read as t_k ||y_k|| and t_{k+1}
        as t_k t_{k-1} (the norm inequality and the t recurrence without their
        small terms), on 64-bit heads.  Only the size of the batch depends on it.
        """
        seq = self.seq
        k = seq.depth
        norm, t_prev, t = (_head(v) for v in (max_norm(seq.y(k)), seq.t(k - 1), seq.t(k)))
        while 2 * (norm[0].bit_length() + norm[1]) < self.goal_bits:
            norm, t_prev, t = _head_mul(norm, t), t, _head_mul(t, t_prev)
            k += 1
        return k + 1

    def tail_bound(self, start: int, slack: Dyadic) -> Dyadic:
        """Upper bound on the projective distance from [y_start] to the limit point.

        By the quasi-triangle inequality dist([x],[z]) <= dist([x],[y]) + 2 dist([y],[z])
        the distance is at most the sum of 2^k d_{start+k}.  The sum stops after the
        first term below `slack`, and the quartic decay bounds the rest by one more
        such term.  Every term is rounded up, so the sum is a certified bound; it is
        returned rounded up to 64 bits.
        """
        total, k = ZERO, 0
        while True:
            d = self[start + k]
            term = Dyadic.make(d.man, d.exp + k)
            total += term
            if term < slack:
                return (total + term).round_up(64)
            k += 1


def _head(x: int) -> tuple[int, int]:
    """(m, e) with m of at most 64 bits and m 2^e close to x > 0."""
    e = max(0, x.bit_length() - 64)
    return x >> e, e


def _head_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    m, e = _head(a[0] * b[0])
    return m, e + a[1] + b[1]


def limit_point(seq: ExtremalSequence, target_width: Fraction | float) -> CertifiedVec3:
    """Certified enclosure of the limit (1, xi1, xi2), coordinate widths <= target_width.

    The width is read once as P bits, the fewest P >= 0 with 2**-P <= the
    width; the cap bounds P.  The enclosure is centred at y_i / y_i[0] for
    the first i >= 2 whose tail bound eps satisfies 4 eps <= 2**-P, and each
    endpoint is rounded outward to the grid 2**-bits, bits = max(64, P + 9).
    The guard bits above P keep the rounding to a small part of the width.
    `tail_bound` is eps rounded up to the same grid.
    """
    tw = Fraction(target_width)
    if tw <= 0:
        raise ValueError("target_width must be positive")
    P = (scale_outward(tw.denominator, 0, tw.numerator)[1] - 1).bit_length()
    check_cap(P)
    bits = max(64, P + 9)
    i, eps = limit_index(seq, P)
    # |xi_j - y_j / y_0| <= eps * ||y|| / y_0, which is eps when y_0 = ||y|| > 0
    # (representative (1, xi1, xi2) has max norm 1).  q(y) = 1 with b, c > 1
    # and the recurrence keep the first coordinate positive and largest; a
    # sequence built otherwise fails here instead of giving a wrong enclosure.
    y = seq.y(i)
    if not 0 < y[0] == max_norm(y):
        raise InvariantViolation("first coordinate is the norm at the limit index", i)
    e = scale_outward(eps.man, eps.exp + bits)[1]  # eps rounded up to the grid
    box1, box2 = (_enclose(y[k], y[0], e, bits) for k in (1, 2))
    xi1, xi2 = (CertifiedReal.from_scaled(lo, hi, bits) for lo, hi in (box1, box2))
    if any(hi - lo > 1 << (bits - P) for lo, hi in (box1, box2)):
        raise AssertionError("enclosure construction exceeded target width")
    _check_on_conic(seq, box1, box2, bits)
    return CertifiedVec3(xi1, xi2, CertifiedReal.from_scaled(e, e, bits))


def limit_index(seq: ExtremalSequence, P: int) -> tuple[int, Dyadic]:
    """The first i >= 2 whose tail bound eps satisfies 4 eps <= 2**-P, and that eps."""
    # 4 eps <= 2**-P needs about d_i <= 2**-(P+3); one batch reaches 2**-(P+4)
    distances = ConsecutiveDistances(seq, P + 4)
    slack = Dyadic.make(1, -P - 2)
    i = 2
    while True:
        # the bound eps from i is at least d_i, so 4 eps <= 2**-P needs d_i <= 2**-(P+2)
        if distances[i] <= slack:
            eps = distances.tail_bound(i, slack)
            if eps <= slack:
                return i, eps
        i += 1


def _enclose(num: int, den: int, e: int, p: int) -> tuple[int, int]:
    """Integers lo, hi with [num/den - e 2^-p, num/den + e 2^-p] inside [lo, hi] 2^-p,
    for den > 0: floor(num/den 2^p) - e and ceil(num/den 2^p) + e, both from one
    division."""
    lo, hi = scale_outward(num, p, den)
    return lo - e, hi + e


def _check_on_conic(seq: ExtremalSequence, box1, box2, p: int) -> None:
    """0 lies in the range of a00 + a11 x^2 + a22 z^2, the diagonal part of the
    form, over the box (x, z) in box1 x box2 scaled by 2^-p.  The range is
    evaluated exactly, scaled by 4^p, with no outward rounding."""

    def squares(lo: int, hi: int) -> tuple[int, int]:
        s, t = lo * lo, hi * hi
        return (0 if lo <= 0 <= hi else min(s, t)), max(s, t)

    low = high = seq.form.a00 << 2 * p
    for a, (s, t) in ((seq.form.a11, squares(*box1)), (seq.form.a22, squares(*box2))):
        low, high = low + min(a * s, a * t), high + max(a * s, a * t)
    if not low <= 0 <= high:
        raise InvariantViolation("limit point lies on the conic", seq.depth)


def verify_no_small_relation(seq: ExtremalSequence, coeff_bound: int = 10**6) -> bool:
    """Prove no integer relation u0 + u1*xi1 + u2*xi2 = 0 with |u_i| <= coeff_bound.

    If u were such a relation then |<u, y_i>| <= 2 ||u|| ||y_i ^ Xi|| for every i;
    once the right side is below 1 for three consecutive indices, the integers
    <u, y_i> vanish on a triple spanning the space, forcing u = 0.
    """
    bound = 2 * coeff_bound
    # the right side is about bound / ||y_i||, so it needs ||y_i|| > bound at
    # i, i + 1 and i + 2; the norm bits grow about 2.6-fold over two indices
    # and d_{i+2}, about ||y_{i+2}||^-2, then has about 5.2 bits(bound) bits
    distances = ConsecutiveDistances(seq, 6 * bound.bit_length())
    slack = Dyadic.make(1, -20)
    i = 2
    while True:
        if all(
            distances.tail_bound(j, slack).mul_int(bound * max_norm(seq.y(j))) < Dyadic(1, 0)
            for j in (i, i + 1, i + 2)
        ):
            return True
        i += 1
