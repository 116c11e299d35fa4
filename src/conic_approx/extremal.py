"""Seeded integer sequences on the conic x0^2 - b*x1^2 - c*x2^2 = 1.

From a Pell seed the recurrences

    y_{i+1} = t_i * y_i - y_{i-2},    t_{i+1} = t_i * t_{i-1} - t_{i-2}

produce unit vectors of the form whose projective classes converge, with
golden-ratio growth, to a point (1 : xi1 : xi2) on the conic admitting the
extremal uniform approximation exponent.  Every algebraic identity the
construction relies on is re-checked exactly at runtime while extending.
An entry of the identity tables may reuse values that earlier entries of the
same run proved; see `Window`, `_reflection` and `_constant_determinant`.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .numerics import CertifiedReal, PrecisionCapError, precision_cap
from .pell import fundamental_solution, find_seed_pair
from .quadform import (
    TernaryQuadraticForm,
    Vec3,
    cross,
    det3,
    max_norm,
    psi,
)
from .arith import is_squarefree


class InvariantViolation(RuntimeError):
    """An exact runtime identity of the construction failed."""

    def __init__(self, identity: str, index: int):
        super().__init__(f"{identity} failed at index {index}")
        self.identity = identity
        self.index = index


class UnsupportedConstruction(ValueError):
    """Seeded construction requires square-free b > 1 and c > 1."""


@dataclass(frozen=True)
class CertifiedVec3:
    """Enclosure of a projective representative (1, xi1, xi2), plus a bound on
    the projective distance from the last sequence member used to the limit."""

    xi1: CertifiedReal
    xi2: CertifiedReal
    tail_bound: CertifiedReal


@dataclass
class ExtremalSequence:
    b: int
    c: int
    seed: tuple[int, int, int, int, int, int]  # (m, n, m', n', r, t)
    form: TernaryQuadraticForm
    ys: list[Vec3] = field(default_factory=list)  # ys[k] holds y_{k-1}
    ts: list[int] = field(default_factory=list)
    det0: int = 0

    def y(self, i: int) -> Vec3:
        return self.ys[i + 1]

    def t(self, i: int) -> int:
        return self.ts[i + 1]

    @property
    def depth(self) -> int:
        """Largest stored index."""
        return len(self.ys) - 2


def _validate_bc(b: int, c: int) -> None:
    for name, v in (("b", b), ("c", c)):
        if v <= 1 or not is_squarefree(v):
            raise UnsupportedConstruction(f"{name}={v} must be a square-free integer > 1")


def seed_triple(b: int, c: int) -> ExtremalSequence:
    """Initial sequence at indices -1, 0, 1 from the Pell data of b and c."""
    _validate_bc(b, c)
    form = TernaryQuadraticForm(1, -b, -c)
    s, sp = find_seed_pair(b)
    rt = fundamental_solution(c)
    m, n, mp, np_, r, t = s.m, s.n, sp.m, sp.n, rt.m, rt.n
    ys: list[Vec3] = [(1, 0, 0), (m, n, 0), (r * mp, r * np_, t)]
    ts = [
        form.bilinear(ys[1], ys[0]),
        form.bilinear(ys[2], ys[1]),
        form.bilinear(ys[2], ys[0]),
    ]
    det0 = det3(ys[2], ys[1], ys[0])
    seq = ExtremalSequence(b, c, (m, n, mp, np_, r, t), form, ys, ts, det0)
    window = Window(form, ys, ts, det0, 1)
    for name, holds in SEED_IDENTITIES:
        if not holds(window):
            raise InvariantViolation(name, 1)
    return seq


# ---------------------------------------------------------------------------
# the identity table, walked by `seed_triple`, `extend` and `cli verify`
# ---------------------------------------------------------------------------

@dataclass
class Window:
    """The stored members that the identities at index i read.

    `proved` counts the indices just before i at which this same run (one
    `extend` call, or one `verify`) already proved every identity; the seed
    identities count for the indices -1, 0 and 1.  An entry may reuse values
    those identities established.  The caller keeps `proved` at 0 unless every
    entry evaluated so far, earlier entries at index i included, has held.
    """

    form: TernaryQuadraticForm
    ys: list[Vec3]  # ys[k] holds y_{k-1}
    ts: list[int]
    det0: int
    i: int
    proved: int = 0

    def y(self, j: int) -> Vec3:
        return self.ys[j + 1]

    def t(self, j: int) -> int:
        return self.ts[j + 1]

    @cached_property
    def t_product(self) -> int:
        """P = t_{i-1} * t_{i-2}, shared by the t recurrence and the double
        inequality on t."""
        return self.t(self.i - 1) * self.t(self.i - 2)


Identity = tuple[str, Callable[[Window], bool]]


def _seed_unit_values(w: Window) -> bool:
    """q(y_{-1}) = q(y_0) = q(y_1) = 1."""
    return all(w.form(w.y(j)) == 1 for j in (-1, 0, 1))


def _seed_inner_products(w: Window) -> bool:
    """t_{-1} = B(y_0, y_{-1}), t_0 = B(y_1, y_0) and t_1 = B(y_1, y_{-1})."""
    B, y = w.form.bilinear, w.y
    return (w.t(-1), w.t(0), w.t(1)) == (B(y(0), y(-1)), B(y(1), y(0)), B(y(1), y(-1)))


def _seed_increasing_ts(w: Window) -> bool:
    """0 < t_{-1} < t_0 < t_1."""
    return 0 < w.t(-1) < w.t(0) < w.t(1)


def _seed_increasing_norms(w: Window) -> bool:
    """||y_{-1}|| < ||y_0|| < ||y_1||."""
    return max_norm(w.y(-1)) < max_norm(w.y(0)) < max_norm(w.y(1))


def _seed_independent(w: Window) -> bool:
    """det(y_1, y_0, y_{-1}) = det0 != 0."""
    return w.det0 == det3(w.y(1), w.y(0), w.y(-1)) != 0


def _unit_value(w: Window) -> bool:
    """q(y_i) = 1."""
    return w.form(w.y(w.i)) == 1


def _reflection(w: Window) -> bool:
    """y_i = psi(y_{i-1}, y_{i-3}) = B(y_{i-1}, y_{i-3}) y_{i-1} - q(y_{i-1}) y_{i-3}.

    When index i-1 is proved, reuses q(y_{i-1}) = 1 (the unit value at i-1)
    and B(y_{i-1}, y_{i-3}) = t_{i-1} (the inner product t_i = B(y_i, y_{i-2})
    at i-1, or the seed inner products when i = 2).  Otherwise evaluates both.
    """
    x, z = w.y(w.i - 1), w.y(w.i - 3)
    if w.proved < 1:
        return w.y(w.i) == psi(w.form, x, z)
    s = w.t(w.i - 1)
    return w.y(w.i) == tuple(s * a - b for a, b in zip(x, z))


def _inner_product_next(w: Window) -> bool:
    """t_{i-1} = B(y_i, y_{i-1})."""
    return w.t(w.i - 1) == w.form.bilinear(w.y(w.i), w.y(w.i - 1))


def _inner_product_skip(w: Window) -> bool:
    """t_i = B(y_i, y_{i-2})."""
    return w.t(w.i) == w.form.bilinear(w.y(w.i), w.y(w.i - 2))


def _constant_determinant(w: Window) -> bool:
    """|det(y_i, y_{i-1}, y_{i-2})| = |det0|.

    For Y = (y_i, y_{i-1}, y_{i-2}) and the Gram matrix G of the form,
    det(Y^T G Y) = det(G) det(Y)^2.  Once q = 1 is proved for the three
    members, and a = t_{i-1}, b = t_{i-2}, c = t_i for their inner products
    (at i-2 and i-1, i.e. `w.proved` >= 2, and by the entries before this one
    at i), Y^T G Y = [[2, a, c], [a, 2, b], [c, b, 2]], of determinant
    8 + 2 c (P - c) - 2 (a^2 + b^2) with the shared P = a b.  If also
    det(G) != 0, testing that against det(G) det0^2 gives the verdict of
    `det3` for one product and two squares of t's.  Otherwise `det3` is
    evaluated on the members (nine products).
    """
    i = w.i
    g = w.form.gram_det
    if w.proved >= 2 and g:
        a, b, c = w.t(i - 1), w.t(i - 2), w.t(i)
        return 8 + 2 * c * (w.t_product - c) - 2 * (a * a + b * b) == g * w.det0 * w.det0
    return abs(det3(w.y(i), w.y(i - 1), w.y(i - 2))) == abs(w.det0)


def _t_recurrence(w: Window) -> bool:
    """t_i = t_{i-1} t_{i-2} - t_{i-3}, from the shared product P."""
    return w.t(w.i) == w.t_product - w.t(w.i - 3)


def _t_bounds(w: Window) -> bool:
    """(t_{i-1} - 1) t_{i-2} < t_i < t_{i-1} t_{i-2}, i.e. P - t_{i-2} < t_i < P
    with the shared product P."""
    p = w.t_product
    return p - w.t(w.i - 2) < w.t(w.i) < p


def _norm_bounds(w: Window) -> bool:
    """(t_{i-1} - 1) ||y_{i-1}|| < ||y_i|| < (t_{i-1} + 1) ||y_{i-1}||, i.e.
    N - ||y_{i-1}|| < ||y_i|| < N + ||y_{i-1}|| with one product N = t_{i-1} ||y_{i-1}||."""
    prev = max_norm(w.y(w.i - 1))
    n = w.t(w.i - 1) * prev
    return n - prev < max_norm(w.y(w.i)) < n + prev


# Checked once, on y_{-1}, y_0, y_1 (reported at index 1).
SEED_IDENTITIES: tuple[Identity, ...] = (
    ("unit value of the form on the seed", _seed_unit_values),
    ("seed inner products", _seed_inner_products),
    ("strictly increasing seed inner products", _seed_increasing_ts),
    ("strictly increasing seed norms", _seed_increasing_norms),
    ("linear independence of the seed triple", _seed_independent),
)

# Checked at every index i >= 2, in this order: the constant determinant
# reuses the unit value and both inner products at i, so it comes after them.
IDENTITIES: tuple[Identity, ...] = (
    ("unit value of the form", _unit_value),
    ("reflection-operator recurrence", _reflection),
    ("inner product t_{i-1} = B(y_i, y_{i-1})", _inner_product_next),
    ("inner product t_i = B(y_i, y_{i-2})", _inner_product_skip),
    ("constant determinant", _constant_determinant),
    ("t recurrence", _t_recurrence),
    ("double inequality on t", _t_bounds),
    ("double inequality on norms", _norm_bounds),
)


def extend(seq: ExtremalSequence, upto: int) -> ExtremalSequence:
    """Extend in place through index `upto`, checking every entry of
    `IDENTITIES` at each new index; an index reuses only what this call
    proved, so the first new index reuses nothing and the second reuses
    nothing from before the first."""
    first = seq.depth + 1
    while seq.depth < upto:
        i = seq.depth + 1
        t_i_minus_1 = seq.t(i - 1)
        y_new = tuple(
            t_i_minus_1 * a - b for a, b in zip(seq.y(i - 1), seq.y(i - 3))
        )
        t_new = seq.t(i - 1) * seq.t(i - 2) - seq.t(i - 3)
        seq.ys.append(y_new)  # type: ignore[arg-type]
        seq.ts.append(t_new)
        window = Window(seq.form, seq.ys, seq.ts, seq.det0, i, proved=i - first)
        for name, holds in IDENTITIES:
            if not holds(window):
                raise InvariantViolation(name, i)
    return seq


def proj_dist_exact(u, v) -> Fraction:
    """Projective distance ||u ^ v|| / (||u|| ||v||) for exact integer vectors."""
    if not any(u) or not any(v):
        raise ValueError("zero vector")
    return Fraction(max_norm(cross(u, v)), max_norm(u) * max_norm(v))


def tail_bound_from(seq: ExtremalSequence, start: int, slack: Fraction) -> Fraction:
    """Bound on the projective distance from [y_start] to the limit point.

    Uses the quasi-triangle inequality dist([x],[z]) <= dist([x],[y]) + 2 dist([y],[z]):
    summing 2^k * d_k over consecutive-member distances d_k, truncated once the
    running term drops below `slack`; the remainder is majorized geometrically
    after checking d_{k+1} <= d_k / 4 at every step used.
    """
    total = Fraction(0)
    k = 0
    prev: Fraction | None = None
    while True:
        extend(seq, start + k + 1)
        d = proj_dist_exact(seq.y(start + k), seq.y(start + k + 1))
        if prev is not None and d > prev / 4:
            raise InvariantViolation("quartic decay of consecutive distances", start + k)
        term = Fraction(2**k) * d
        total += term
        if term < slack:
            return total + term  # remainder of the series is at most one extra term
        prev = d
        k += 1


def limit_point(seq: ExtremalSequence, target_width: Fraction | float) -> CertifiedVec3:
    """Certified enclosure of the limit (1, xi1, xi2), coordinate widths <= target_width."""
    tw = Fraction(target_width)
    if tw <= 0:
        raise ValueError("target_width must be positive")
    # bits ~ -log2(tw), computed exactly (tw can underflow a float)
    bits = max(64, 8 + (tw.denominator // tw.numerator).bit_length()) if tw < 1 else 64
    if bits > precision_cap():
        raise PrecisionCapError(
            f"target width needs {bits} bits, cap is {precision_cap()}"
        )
    i = 2
    while True:
        extend(seq, i)
        y = seq.y(i)
        d = tail_bound_from(seq, i, tw / 4)
        # |xi_j - y_j / y_0| <= d * ||y|| / y_0  (representative normalized to first
        # coordinate 1, whose max norm is 1 because b, c > 1 force |xi_j| < 1)
        eps = d * Fraction(max_norm(y), y[0])
        if 2 * eps <= tw / 2:
            xi1 = CertifiedReal.from_endpoints(
                Fraction(y[1], y[0]) - eps, Fraction(y[1], y[0]) + eps, bits
            )
            xi2 = CertifiedReal.from_endpoints(
                Fraction(y[2], y[0]) - eps, Fraction(y[2], y[0]) + eps, bits
            )
            if xi1.width().as_fraction() > tw or xi2.width().as_fraction() > tw:
                raise AssertionError("enclosure construction exceeded target width")
            enclosure = CertifiedVec3(xi1, xi2, CertifiedReal.from_fraction(d, 64))
            _check_on_conic(seq, enclosure)
            return enclosure
        i += 1


def _check_on_conic(seq: ExtremalSequence, xi: CertifiedVec3) -> None:
    one = CertifiedReal.from_int(1)
    val = one - (xi.xi1 * xi.xi1).mul_int(seq.b) - (xi.xi2 * xi.xi2).mul_int(seq.c)
    if not val.contains(0):
        raise InvariantViolation("limit point lies on the conic", seq.depth)


def tails_equal(seq_a: ExtremalSequence, seq_b: ExtremalSequence) -> int | None:
    """Shift a with y'_i = +/- y_{i+a} over the whole overlap, or None if distinct."""
    na, nb = seq_a.depth, seq_b.depth
    for a in range(-(nb + 1), na + 2):
        lo = max(-1, -1 - a)
        hi = min(na - a, nb)
        if hi - lo < 2:
            continue
        if all(
            seq_a.y(i + a) == seq_b.y(i)
            or seq_a.y(i + a) == tuple(-x for x in seq_b.y(i))
            for i in range(lo, hi + 1)
        ):
            return a
    return None


def verify_no_small_relation(seq: ExtremalSequence, coeff_bound: int = 10**6) -> bool:
    """Prove no integer relation u0 + u1*xi1 + u2*xi2 = 0 with |u_i| <= coeff_bound.

    If u were such a relation then |<u, y_i>| <= 2 ||u|| ||y_i ^ Xi|| for every i;
    once the right side is below 1 for three consecutive indices, the integers
    <u, y_i> vanish on a triple spanning the space, forcing u = 0.
    """
    i = 2
    while True:
        extend(seq, i + 2)
        ok = True
        for j in (i, i + 1, i + 2):
            wedge = tail_bound_from(seq, j, Fraction(1, 2**20)) * max_norm(seq.y(j))
            if 2 * coeff_bound * wedge >= 1:
                ok = False
                break
        if ok:
            return True
        i += 1


def growth_ratios(seq: ExtremalSequence) -> list[tuple[int, float]]:
    """(i, log||y_{i+1}|| / log||y_i||) for all stored i >= 1."""
    out = []
    for i in range(1, seq.depth):
        out.append((i, math.log(max_norm(seq.y(i + 1))) / math.log(max_norm(seq.y(i)))))
    return out
