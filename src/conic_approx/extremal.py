"""Seeded integer sequences on the conic x0^2 - b*x1^2 - c*x2^2 = 1.

From a Pell seed the recurrences

    y_{i+1} = t_i * y_i - y_{i-2},    t_{i+1} = t_i * t_{i-1} - t_{i-2}

produce unit vectors of the form whose projective classes converge, with
golden-ratio growth, to a point (1 : xi1 : xi2) on the conic admitting the
extremal uniform approximation exponent; `limit` certifies that point.
Every algebraic identity the construction relies on is re-checked exactly at
runtime while extending.  An entry of the identity tables may reuse values
that earlier entries of the same run proved; see `Window`, `_reflection`,
`_inner_product_next` and `_constant_determinant`.
"""
from __future__ import annotations

import math
import mmap
import os
import signal
import struct
import threading
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property

from .pell import fundamental_solution, find_seed_pair
from .quadform import (
    TernaryQuadraticForm,
    Vec3,
    det3,
    max_norm,
    psi,
)
from . import arith
from .arith import is_squarefree
from .records import Record


class InvariantViolation(RuntimeError):
    """An exact runtime identity of the construction failed."""

    def __init__(self, identity: str, index: int):
        super().__init__(f"{identity} failed at index {index}")
        self.identity = identity
        self.index = index


class UnsupportedConstruction(ValueError):
    """Seeded construction requires square-free b > 1 and c > 1."""


class ExtremalSequence(Record):
    """Members y_i of the form and their inner products t_i, from index -1 on,
    and det0 = det(y_1, y_0, y_{-1}); `ys[k]` holds y_{k-1}."""

    __slots__ = ("form", "ys", "ts", "det0")

    # read-only views of the form x0^2 - b x1^2 - c x2^2
    b = property(lambda self: -self.form.a11)
    c = property(lambda self: -self.form.a22)

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
        if v >= 1 << arith.FACTOR_BITS:
            raise UnsupportedConstruction(f"{name} must be below 2^{arith.FACTOR_BITS}")
        if v <= 1 or not is_squarefree(v):
            raise UnsupportedConstruction(f"{name}={v} must be a square-free integer > 1")


def seed_triple(b: int, c: int) -> ExtremalSequence:
    """Initial sequence at indices -1, 0, 1 from the Pell data of b and c."""
    validate_bc(b, c)
    form = TernaryQuadraticForm(1, -b, -c)
    s, sp = find_seed_pair(b)
    rt = fundamental_solution(c)
    ys: list[Vec3] = [(1, 0, 0), (s.m, s.n, 0), (rt.m * sp.m, rt.m * sp.n, rt.n)]
    B = form.bilinear
    ts = [B(ys[1], ys[0]), B(ys[2], ys[1]), B(ys[2], ys[0])]
    det0 = det3(ys[2], ys[1], ys[0])
    seq = ExtremalSequence(form, ys, ts, det0)
    for name, i, holds in verdicts(seq):
        if not holds:
            raise InvariantViolation(name, i)
    return seq


def pell_seed(seq: ExtremalSequence) -> tuple[int, int, int, int, int, int]:
    """(m, n, m', n', r, t), the Pell data `seed_triple` built seq from, read
    off y_0 = (m, n, 0) and y_1 = (r m', r n', t): m'^2 - b n'^2 = 1, so
    r > 0 is the exact square root of y_1[0]^2 - b y_1[1]^2 (an `isqrt`)."""
    (m, n, _), (x0, x1, t) = seq.y(0), seq.y(1)
    r = math.isqrt(x0 * x0 - seq.b * x1 * x1)
    return m, n, x0 // r, x1 // r, r, t


# ---------------------------------------------------------------------------
# the identity tables, walked by `seed_triple`, `extend` and `cli verify`
# ---------------------------------------------------------------------------

class Window:
    """The view of a sequence that the identities at index i read: its
    `form`, `y`, `t` and `det0`, bound when the window is made.

    `proved` counts the indices just before i at which this same run (one
    `extend` call, or one segment of a `verdicts` walk) already proved every
    identity; the seed identities, when all of them held, count for the
    indices -1, 0 and 1 in the first segment of `verdicts`.  An entry may
    reuse values those identities established, and values that entries
    before it at index i established.  So its verdict stands only if every
    entry before it held.  `_first_failure`, the one loop over `IDENTITIES`,
    is the only place that sets `proved`; `extend` reports only the first
    failure, and `verdicts` starts a new segment, from 0, past each failure.
    `t_product` and `t_y` are each computed at their first read and kept in
    the window's `__dict__`, by `functools.cached_property`.
    """

    def __init__(self, seq: ExtremalSequence, i: int, proved: int = 0) -> None:
        self.form, self.y, self.t, self.det0 = seq.form, seq.y, seq.t, seq.det0
        self.i = i
        self.proved = proved

    @cached_property
    def t_product(self) -> int:
        """P = t_{i-1} * t_{i-2}, shared by the t recurrence and the double
        inequality on t."""
        return arith.mul(self.t(self.i - 1), self.t(self.i - 2))

    @cached_property
    def t_y(self) -> Vec3:
        """t_{i-1} * y_{i-1}, coordinate by coordinate, shared by the reflection
        entry and the double inequality on norms.  These are the products the
        recurrence made y_i from, made again by `arith.mul`, by Toom-3 where it
        takes that, so a fault of either algorithm shows."""
        t, mul = self.t(self.i - 1), arith.mul
        x0, x1, x2 = self.y(self.i - 1)
        return mul(t, x0), mul(t, x1), mul(t, x2)


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
    at i-1, or the seed inner products when i = 2), and reads t_{i-1} y_{i-1}
    from `Window.t_y`.  Otherwise evaluates both.
    """
    z = w.y(w.i - 3)
    if w.proved < 1:
        return w.y(w.i) == psi(w.form, w.y(w.i - 1), z)
    (p0, p1, p2), (z0, z1, z2) = w.t_y, z
    return w.y(w.i) == (p0 - z0, p1 - z1, p2 - z2)


def _inner_product_next(w: Window) -> bool:
    """t_{i-1} = B(y_i, y_{i-1}).

    When index i-1 is proved, reuses q(y_{i-1}) = 1 (the unit value at i-1,
    or the seed's when i = 2) and q(y_i) = 1 (the unit value at i, before
    this entry): by polarization, q(y_i + y_{i-1}) = q(y_i) + B(y_i, y_{i-1})
    + q(y_{i-1}), so the identity reads q(y_i + y_{i-1}) = t_{i-1} + 2, three
    squares instead of three unbalanced products.  Otherwise evaluates B.
    """
    x, y = w.y(w.i), w.y(w.i - 1)
    if w.proved < 1:
        return w.t(w.i - 1) == w.form.bilinear(x, y)
    (x0, x1, x2), (y0, y1, y2) = x, y
    return w.form((x0 + y0, x1 + y1, x2 + y2)) == w.t(w.i - 1) + 2


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
        squares = arith.square(a) + arith.square(b)
        return 8 + 2 * c * (w.t_product - c) - 2 * squares == g * w.det0 * w.det0
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
    N - ||y_{i-1}|| < ||y_i|| < N + ||y_{i-1}|| with N = t_{i-1} ||y_{i-1}||.

    For the coordinate k of y_{i-1} of largest absolute value, N is the
    product t_{i-1} y_{i-1,k} of `Window.t_y`, negated when y_{i-1,k} < 0.
    """
    x = w.y(w.i - 1)
    norms = [abs(a) for a in x]
    prev = max(norms)
    k = norms.index(prev)
    n = w.t_y[k]
    if x[k] < 0:
        n = -n
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


# The entries a forked child evaluates when `extend` shares its checks; the
# parent runs the recurrence and evaluates the rest of the table.  Serial CPU
# on the `construct` mix (depths 17-21 of its six pairs, 2-core x86_64, best
# of 5, with the products of `arith`): the child's five entries 796 ms
# (B_next 350, B_skip 335, determinant 109, t entries 2), the parent's
# recurrence and three entries 791 ms (recurrence 248, q 350, psi 190, norm
# 3).  Each cached product has all its readers on one side:
# `Window.t_product` in the child, `Window.t_y` in the parent.
CHILD_SHARE = frozenset({
    "inner product t_{i-1} = B(y_i, y_{i-1})",
    "inner product t_i = B(y_i, y_{i-2})",
    "constant determinant",
    "t recurrence",
    "double inequality on t",
})
# Bound on the bits of ||y_upto|| from which `extend` forks: on a 2-core x86_64
# machine a fork, `_exit` and reap cost about 1.6 ms, 1.9 ms with the pipes,
# the mapping and a child that reads the members, and one index's checks
# 2.3-3.3 ms at 27k-35k bits.
FORK_MIN_BITS = 1 << 15
# The notice of one new member on the pipe to the child: the bytes of each
# coordinate of y_i and of t_i in the shared buffer.
_NOTICE = struct.Struct("<qq")
# The child's verdict at the start of the shared mapping: whether it was
# written (a fresh mapping reads False), whether an entry failed, its index
# and its position in `IDENTITIES`.
_VERDICT = struct.Struct("<??qq")


def extend(seq: ExtremalSequence, upto: int) -> ExtremalSequence:
    """Extend in place through index `upto`, checking every entry of
    `IDENTITIES` at each new index (`_checked_first_failure` from 0 proved
    indices): an index reuses only what this call proved, so the first new
    index reuses nothing and the second reuses nothing from before the
    first.  On a failure the sequence is cut back to the failing index, the
    last member it stored.
    """
    first = seq.depth + 1
    if first > upto:
        return seq
    failure = _checked_first_failure(seq, first, upto, 0)
    if failure is not None:
        i, k = failure
        del seq.ys[i + 2:], seq.ts[i + 2:]
        raise InvariantViolation(IDENTITIES[k][0], i)
    return seq


def verdicts(seq: ExtremalSequence) -> Iterator[tuple[str, int, bool]]:
    """(name, i, holds) for each entry of `SEED_IDENTITIES` at i = 1, then of
    `IDENTITIES` at each stored i >= 2, in walk order.  Each segment of the
    walk reuses exactly what it proved, as `extend` does: the first,
    `_checked_first_failure`'s from index 2 and forked where it pays, counts
    the seed's three indices when every seed identity held, and each later
    one is `_first_failure`'s from 0, past the failure before it."""
    seed = Window(seq, 1)
    proved = 3
    for name, holds in SEED_IDENTITIES:
        ok = holds(seed)
        proved = proved if ok else 0
        yield name, 1, ok
    positions = range(len(IDENTITIES))
    failure = _checked_first_failure(seq, 2, seq.depth, proved) if seq.depth > 1 else None
    for i in range(2, seq.depth + 1):
        for k, (name, _) in enumerate(IDENTITIES):
            holds = (i, k) != failure
            yield name, i, holds
            if not holds:
                rest = _first_failure(seq, i, i, positions[k + 1:], 0)
                failure = rest or _first_failure(seq, i + 1, seq.depth, positions, 0)


def _append_member(seq: ExtremalSequence, i: int) -> None:
    """Appends y_i = t_{i-1} y_{i-1} - y_{i-3} and t_i = t_{i-1} t_{i-2} - t_{i-3},
    multiplying with `*`; the checks redo the products t_{i-1} y_{i-1} and
    t_{i-1} t_{i-2} with `arith.mul`, by Toom-3 from `arith.TOOM_MIN_BITS` on."""
    t = seq.t(i - 1)
    y = tuple(t * a - b for a, b in zip(seq.y(i - 1), seq.y(i - 3)))
    seq.ys.append(y)  # type: ignore[arg-type]
    seq.ts.append(t * seq.t(i - 2) - seq.t(i - 3))


def _serial_first_failure(
    seq: ExtremalSequence, first: int, upto: int, proved: int
) -> tuple[int, int] | None:
    """Appends the members through `upto` not yet stored, then returns
    `_first_failure` over the whole table."""
    for i in range(seq.depth + 1, upto + 1):
        _append_member(seq, i)
    return _first_failure(seq, first, upto, range(len(IDENTITIES)), proved)


def _first_failure(
    seq: ExtremalSequence, first: int, upto: int, positions: Sequence[int], proved: int
) -> tuple[int, int] | None:
    """(i, k) of the first entry `IDENTITIES[k]`, k in `positions`, that fails
    at an index i in first..upto, walking the indices in order and at each the
    entries in table order; None if all of them hold.  The one loop over the
    table, and the one place that sets `Window.proved`: to i - first + proved,
    `proved` counting the indices before first that the caller proved.  So a
    verdict at (i, k) stands only if every entry before (i, k) held."""
    for i in range(first, upto + 1):
        window = Window(seq, i, i - first + proved)
        for k in positions:
            if not IDENTITIES[k][1](window):
                return i, k
    return None


def _stream_bound(seq: ExtremalSequence, first: int, upto: int) -> tuple[int, int]:
    """Upper bounds on the bits of ||y_upto|| and on the bytes `_write_member`
    writes for the indices first..upto, read off the stored members before
    any new one exists; when first = upto + 1, the bits of y_upto and 0.

    |a b - c| <= |a| |b| + |c| < 2^(bits(a) + bits(b)) + 2^bits(c), so
    bits(a b - c) <= max(bits(a) + bits(b), bits(c)) + 1.  Both recurrences
    have that shape, the y recurrence in each coordinate.
    """
    ys = [max_norm(seq.y(i)).bit_length() for i in range(first - 3, first)]
    ts = [seq.t(i).bit_length() for i in range(first - 3, first)]
    size = 0
    for _ in range(first, upto + 1):
        ys.append(max(ts[-1] + ys[-1], ys[-3]) + 1)
        ts.append(max(ts[-1] + ts[-2], ts[-3]) + 1)
        size += 3 * _signed_bytes(ys[-1]) + _signed_bytes(ts[-1])
    return ys[-1], size


def _fork_pays(bits: int) -> bool:
    """`bits` is at least `FORK_MIN_BITS`, `os.fork` exists, this process
    runs one thread and may run on at least two CPUs."""
    if bits < FORK_MIN_BITS or not hasattr(os, "fork"):
        return False
    if threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _checked_first_failure(
    seq: ExtremalSequence, first: int, upto: int, proved: int
) -> tuple[int, int] | None:
    """Appends the members through `upto` not yet stored and returns
    `_first_failure` over the whole table at the indices first..upto, with
    the `CHILD_SHARE` entries evaluated in one child forked before the first
    new member exists.

    The failure returned is the smaller of the two first failures by (index,
    table position).  That is the serial verdict: every entry before the
    serial first failure reads only values that entries before it
    established, so it holds in either process; the failing entry fails in
    the process that owns it; any other failure comes later.

    This process writes each new member into an anonymous shared mapping
    past the `_VERDICT` at its start (`_write_member`) and then its 16-byte
    `_NOTICE` into a pipe, which holds thousands of them, so it never waits
    for the child to read.  The child walks the indices in order, and before
    index i appends the members of the notices it reads (`_read_member`)
    until it stores y_i; it evaluates its share at i with `_first_failure`,
    packs its first failure into the `_VERDICT` and leaves through
    `os._exit(0)`.  This process sends no further notice once the child has
    left and reaps it; unless the child exited 0 and wrote its verdict, it
    evaluates the child's share itself, so no entry passes unevaluated.  If
    this process raises meanwhile, it kills and reaps the child first.
    Where the fork does not pay (`_fork_pays` on the bits `_stream_bound`
    gives for y_upto, exact when it is stored) or the mapping or the fork
    fails, everything runs here (`_serial_first_failure`).
    """
    bits, size = _stream_bound(seq, seq.depth + 1, upto)
    if not _fork_pays(bits):
        return _serial_first_failure(seq, first, upto, proved)
    child = [k for k, (name, _) in enumerate(IDENTITIES) if name in CHILD_SHARE]
    mine = [k for k in range(len(IDENTITIES)) if k not in child]
    try:
        buf = mmap.mmap(-1, _VERDICT.size + size)
    except (OSError, OverflowError):  # more than memory or the address space holds
        return _serial_first_failure(seq, first, upto, proved)
    with buf:
        buf.seek(_VERDICT.size)
        notice_r, notice_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(notice_r)
            os.close(notice_w)
            return _serial_first_failure(seq, first, upto, proved)
        if pid == 0:
            status = 1
            try:
                os.close(notice_w)
                failure = None
                for i in range(first, upto + 1):
                    while seq.depth < i:
                        # every notice is one write of fewer than PIPE_BUF bytes, so a
                        # read returns whole notices; a short one is the end of the pipe
                        notice = os.read(notice_r, _NOTICE.size)
                        if len(notice) < _NOTICE.size:
                            raise EOFError("the parent sent no further member")
                        y, t = _read_member(buf, notice)
                        seq.ys.append(y)
                        seq.ts.append(t)
                    failure = _first_failure(seq, i, i, child, i - first + proved)
                    if failure is not None:
                        break
                _VERDICT.pack_into(buf, 0, True, failure is not None, *(failure or (0, 0)))
                status = 0
            finally:
                os._exit(status)
        os.close(notice_r)
        try:
            for i in range(seq.depth + 1, upto + 1):
                _append_member(seq, i)
                notice = _write_member(buf, seq.ys[-1], seq.ts[-1])
                try:
                    os.write(notice_w, notice)
                except BrokenPipeError:  # the child has left; its exit status tells why
                    pass
            failures = [_first_failure(seq, first, upto, mine, proved)]
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(notice_w)
            try:
                exited_0 = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            except ChildProcessError:  # reaped elsewhere, e.g. with SIGCHLD ignored
                exited_0 = False
        written, failed, i, k = _VERDICT.unpack_from(buf) if exited_0 else (False,) * 4
    if written:
        failures.append((i, k) if failed else None)
    else:
        failures.append(_first_failure(seq, first, upto, child, proved))
    return min((f for f in failures if f is not None), default=None)


def _signed_bytes(bits: int) -> int:
    """Bytes of a signed int whose absolute value has at most `bits` bits."""
    return bits // 8 + 1


def _write_member(buf: mmap.mmap, y: Vec3, t: int) -> bytes:
    """Writes the coordinates of y, then t, at the position of `buf` as signed
    little-endian ints, and returns the `_NOTICE` of their sizes."""
    ny, nt = _signed_bytes(max_norm(y).bit_length()), _signed_bytes(t.bit_length())
    for x in y:
        buf.write(x.to_bytes(ny, "little", signed=True))
    buf.write(t.to_bytes(nt, "little", signed=True))
    return _NOTICE.pack(ny, nt)


def _read_member(buf: mmap.mmap, notice: bytes) -> tuple[Vec3, int]:
    """The y and t that `_write_member` wrote at the position of `buf`."""
    ny, nt = _NOTICE.unpack(notice)
    y = tuple(int.from_bytes(buf.read(ny), "little", signed=True) for _ in range(3))
    return y, int.from_bytes(buf.read(nt), "little", signed=True)  # type: ignore[return-value]


def growth_ratios(seq: ExtremalSequence) -> list[tuple[int, float]]:
    """(i, log||y_{i+1}|| / log||y_i||) for all stored i >= 1."""
    out = []
    for i in range(1, seq.depth):
        out.append((i, math.log(max_norm(seq.y(i + 1))) / math.log(max_norm(seq.y(i)))))
    return out
