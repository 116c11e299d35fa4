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
import os
import signal
import struct
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .numerics import ZERO, CertifiedReal, Dyadic, check_cap, ratio_up, scale_outward
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


def validate_bc(b: int, c: int) -> None:
    for name, v in (("b", b), ("c", c)):
        if v <= 1 or not is_squarefree(v):
            raise UnsupportedConstruction(f"{name}={v} must be a square-free integer > 1")


def seed_triple(b: int, c: int) -> ExtremalSequence:
    """Initial sequence at indices -1, 0, 1 from the Pell data of b and c."""
    validate_bc(b, c)
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
    those identities established, and values that entries before it at index i
    established.  So its verdict stands only if every entry before it held:
    `verify` keeps `proved` at 0 after any failure, and `extend` reports only
    the first failure of a walk in which, once it forks, each process
    evaluates part of the table.
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


# The entries a forked child evaluates when `extend` shares its checks, about
# half of their cost; the parent evaluates the rest of the table.
CHILD_SHARE = frozenset({"unit value of the form", "inner product t_{i-1} = B(y_i, y_{i-1})"})
# Bits of ||y_upto|| from which `extend` forks: on a 2-core x86_64 machine the
# fork, pipe and reap cost about 1.7 ms, and one index's checks 3-4 ms at 2^15 bits.
FORK_MIN_BITS = 1 << 15
# The child's verdict on the pipe: whether an entry failed, its index and its
# position in `IDENTITIES`.
_VERDICT = struct.Struct("<?qq")


def extend(seq: ExtremalSequence, upto: int) -> ExtremalSequence:
    """Extend in place through index `upto`, checking every entry of
    `IDENTITIES` at each new index; an index reuses only what this call
    proved, so the first new index reuses nothing and the second reuses
    nothing from before the first.

    The recurrence runs first, for every new index; then the checks.  When
    the members are large and a second core is free (`_fork_pays`), one
    forked child evaluates the `CHILD_SHARE` entries at every new index while
    this process evaluates the others, and the failure reported is the
    smaller of the two first failures by (index, table position).  That is
    the serial verdict: every entry before the serial first failure reads
    only values that entries before it established, so it holds in either
    process; the failing entry fails in the process that owns it; any other
    failure comes later.  On a failure the sequence is cut back to the
    failing index, the last member it stored.
    """
    first = seq.depth + 1
    if first > upto:
        return seq
    for i in range(first, upto + 1):
        t = seq.t(i - 1)
        y_new = tuple(t * a - b for a, b in zip(seq.y(i - 1), seq.y(i - 3)))
        seq.ys.append(y_new)  # type: ignore[arg-type]
        seq.ts.append(t * seq.t(i - 2) - seq.t(i - 3))
    if _fork_pays(seq, upto):
        failure = _forked_first_failure(seq, first, upto)
    else:
        failure = _first_failure(seq, first, upto, range(len(IDENTITIES)))
    if failure is not None:
        i, k = failure
        del seq.ys[i + 2:], seq.ts[i + 2:]
        raise InvariantViolation(IDENTITIES[k][0], i)
    return seq


def _first_failure(
    seq: ExtremalSequence, first: int, upto: int, positions: Sequence[int]
) -> tuple[int, int] | None:
    """(i, k) of the first entry `IDENTITIES[k]`, k in `positions`, that fails
    at an index i in first..upto, walking the indices in order and at each the
    entries in table order; None if all of them hold.  Index i reads what
    indices first..i-1 proved (`Window.proved` = i - first), so a verdict at
    (i, k) stands only if every entry before (i, k) held."""
    for i in range(first, upto + 1):
        window = Window(seq.form, seq.ys, seq.ts, seq.det0, i, proved=i - first)
        for k in positions:
            if not IDENTITIES[k][1](window):
                return i, k
    return None


def _fork_pays(seq: ExtremalSequence, upto: int) -> bool:
    """y_upto has at least `FORK_MIN_BITS` bits, `os.fork` exists, this
    process runs one thread and may run on at least two CPUs."""
    if max_norm(seq.y(upto)).bit_length() < FORK_MIN_BITS or not hasattr(os, "fork"):
        return False
    if threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _forked_first_failure(seq: ExtremalSequence, first: int, upto: int) -> tuple[int, int] | None:
    """`_first_failure` over the whole table, with the `CHILD_SHARE` entries
    evaluated in one forked child.

    The child sends its first failure through a pipe as one `_VERDICT` and
    leaves through `os._exit`.  This process reads the pipe to its end and
    reaps the child; if the verdict is short or the child did not exit 0, it
    evaluates the child's share itself, so no entry passes unevaluated.  If
    this process raises meanwhile, it kills and reaps the child first.
    """
    child = [k for k, (name, _) in enumerate(IDENTITIES) if name in CHILD_SHARE]
    mine = [k for k in range(len(IDENTITIES)) if k not in child]
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return _first_failure(seq, first, upto, range(len(IDENTITIES)))
    if pid == 0:
        status = 1
        try:
            os.close(r)
            failure = _first_failure(seq, first, upto, child)
            os.write(w, _VERDICT.pack(failure is not None, *(failure or (0, 0))))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        failures = [_first_failure(seq, first, upto, mine)]
        verdict = b""
        while chunk := os.read(r, _VERDICT.size):
            verdict += chunk
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        try:
            exited_0 = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        except ChildProcessError:  # reaped elsewhere, e.g. with SIGCHLD ignored
            exited_0 = False
    if len(verdict) == _VERDICT.size and exited_0:
        failed, i, k = _VERDICT.unpack(verdict)
        failures.append((i, k) if failed else None)
    else:
        failures.append(_first_failure(seq, first, upto, child))
    return min((f for f in failures if f is not None), default=None)


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
    """
    tw = Fraction(target_width)
    if tw <= 0:
        raise ValueError("target_width must be positive")
    P = (scale_outward(tw.denominator, 0, tw.numerator)[1] - 1).bit_length()
    check_cap(P)
    bits = max(64, P + 9)
    # 4 eps <= 2**-P needs about d_i <= 2**-(P+3); one batch reaches 2**-(P+4)
    distances = ConsecutiveDistances(seq, P + 4)
    slack = Dyadic.make(1, -P - 2)
    i = 2
    while True:
        # the bound eps from i is at least d_i, so 4 eps <= 2**-P needs d_i <= 2**-(P+2)
        if distances[i] <= slack:
            eps = distances.tail_bound(i, slack)
            if eps <= slack:
                break
        i += 1
    # |xi_j - y_j / y_0| <= eps * ||y|| / y_0 = eps: y_0 = ||y|| > 0 because
    # q(y) = 1 with b, c > 1 and the recurrence keep the first coordinate
    # positive and largest (representative (1, xi1, xi2) has max norm 1).
    y = seq.y(i)
    box1, box2 = (_enclose(y[k], y[0], eps, bits) for k in (1, 2))
    xi1, xi2 = (CertifiedReal.from_scaled(lo, hi, bits) for lo, hi in (box1, box2))
    if any(hi - lo > 1 << (bits - P) for lo, hi in (box1, box2)):
        raise AssertionError("enclosure construction exceeded target width")
    _check_on_conic(seq, box1, box2, bits)
    return CertifiedVec3(xi1, xi2, CertifiedReal(eps, eps, 64))


def _enclose(num: int, den: int, eps: Dyadic, p: int) -> tuple[int, int]:
    """Integers lo, hi with [num/den - eps, num/den + eps] inside [lo, hi] 2^-p, for den > 0:
    floor(num/den 2^p) - ceil(eps 2^p) and ceil(num/den 2^p) + ceil(eps 2^p),
    both from one division."""
    e = scale_outward(eps.man, eps.exp + p)[1]
    lo, hi = scale_outward(num, p, den)
    return lo - e, hi + e


def _check_on_conic(seq: ExtremalSequence, box1, box2, p: int) -> None:
    """0 lies in the range of 1 - b x^2 - c z^2 over the box (x, z) in box1 x box2
    scaled by 2^-p.  The range is evaluated exactly, scaled by 4^p, with no
    outward rounding."""

    def squares(lo: int, hi: int) -> tuple[int, int]:
        s, t = lo * lo, hi * hi
        return (0 if lo <= 0 <= hi else min(s, t)), max(s, t)

    (s1, t1), (s2, t2) = squares(*box1), squares(*box2)
    one = 1 << 2 * p
    if not one - seq.b * t1 - seq.c * t2 <= 0 <= one - seq.b * s1 - seq.c * s2:
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


def growth_ratios(seq: ExtremalSequence) -> list[tuple[int, float]]:
    """(i, log||y_{i+1}|| / log||y_i||) for all stored i >= 1."""
    out = []
    for i in range(1, seq.depth):
        out.append((i, math.log(max_norm(seq.y(i + 1))) / math.log(max_norm(seq.y(i)))))
    return out
