"""Seeded sequences on the conic: recurrences, growth, limit-point enclosures."""
import inspect
import io
import math
import mmap
import os
import random
import re
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conic_approx import ExtremalTarget, enumerate_minimal, extremal, limit
from conic_approx.cli import main
from conic_approx.extremal import (
    CHILD_SHARE,
    IDENTITIES,
    SEED_IDENTITIES,
    ExtremalSequence,
    InvariantViolation,
    UnsupportedConstruction,
    Window,
    extend,
    growth_ratios,
    pell_seed,
    seed_triple,
    verdicts,
)
from conic_approx.limit import ConsecutiveDistances, limit_index, limit_point, verify_no_small_relation
from conic_approx.numerics import Dyadic, PrecisionCapError, ratio_up
from conic_approx.pell import find_seed_pair, fundamental_solution
from conic_approx.quadform import cross, det3, max_norm

# the pairs of the benchmark's `construct` and `pipeline` workloads
CONSTRUCT_PAIRS = [(3, 2), (3, 6), (2, 3), (3, 7), (3, 5), (3, 11)]
PIPELINE_PAIRS = [(2, 3), (3, 2), (3, 5), (3, 6), (3, 7), (3, 11)]
SQUAREFREE_30 = [n for n in range(2, 31) if all(n % (k * k) for k in range(2, 6))]


class TestSeed:
    def test_b2_c3(self):
        seq = seed_triple(2, 3)
        assert seq.y(-1) == (1, 0, 0)
        assert seq.y(0) == (3, 2, 0)
        assert seq.y(1) == (198, 140, 1)
        assert [seq.t(i) for i in (-1, 0, 1)] == [6, 68, 396]

    def test_b2_c3_seed_determinant(self):
        seq = seed_triple(2, 3)
        assert abs(det3(seq.y(1), seq.y(0), seq.y(-1))) == 2

    def test_b3_c2(self):
        seq = seed_triple(3, 2)
        assert seq.y(0) == (2, 1, 0)
        # (r, t) = (3, 2) since 9 - 2*4 = 1
        assert seq.y(1)[2] == 2
        assert seq.y(1) == (3 * 26, 3 * 15, 2)

    @pytest.mark.parametrize("b,c", [(4, 3), (3, 4), (1, 3), (3, 1), (8, 3), (12, 5)])
    def test_invalid_parameters_rejected(self, b, c):
        with pytest.raises(UnsupportedConstruction):
            seed_triple(b, c)

    @pytest.mark.parametrize("b,c", [(2, 3), (3, 2), (2, 5), (5, 2), (6, 7), (10, 11)])
    def test_seed_contract(self, b, c):
        seq = seed_triple(b, c)
        for i in (-1, 0, 1):
            assert seq.form(seq.y(i)) == 1
        assert 0 < seq.t(-1) < seq.t(0) < seq.t(1)
        assert max_norm(seq.y(-1)) < max_norm(seq.y(0)) < max_norm(seq.y(1))
        assert seq.det0 != 0

    @pytest.mark.parametrize(
        "b,c", [(b, c) for b in SQUAREFREE_30 for c in SQUAREFREE_30 if b != c]
    )
    def test_pell_seed_reads_off_the_pell_data(self, b, c):
        s, sp = find_seed_pair(b)
        rt = fundamental_solution(c)
        assert pell_seed(seed_triple(b, c)) == (s.m, s.n, sp.m, sp.n, rt.m, rt.n)

    def test_b_and_c_are_read_only_views_of_the_form(self):
        seq = seed_triple(3, 7)
        assert (seq.b, seq.c) == (-seq.form.a11, -seq.form.a22) == (3, 7)
        for name in ("b", "c"):
            with pytest.raises(AttributeError):
                setattr(seq, name, 5)
        assert (seq.b, seq.c) == (3, 7)


@pytest.mark.usefixtures("extend_path")
class TestExtend:
    PATH = "serial"

    def test_y2_t2(self):
        seq = extend(seed_triple(2, 3), 2)
        assert seq.y(2) == (78407, 55440, 396)
        assert seq.t(2) == 396 * 68 - 6 == 26922
        assert seq.form(seq.y(2)) == 1

    @pytest.mark.parametrize("b,c", [(2, 3), (3, 2), (2, 5), (5, 2), (6, 7)])
    def test_all_invariants_through_depth_12(self, b, c):
        seq = extend(seed_triple(b, c), 12)
        form = seq.form
        for i in range(-1, 13):
            assert form(seq.y(i)) == 1
        for i in range(1, 13):
            assert abs(det3(seq.y(i), seq.y(i - 1), seq.y(i - 2))) == abs(seq.det0)
        for i in range(-1, 12):
            assert seq.t(i) == form.bilinear(seq.y(i + 1), seq.y(i))
        for i in range(1, 12):
            assert (seq.t(i) - 1) * seq.t(i - 1) < seq.t(i + 1) < seq.t(i) * seq.t(i - 1)
            ni, nip = max_norm(seq.y(i)), max_norm(seq.y(i + 1))
            assert (seq.t(i) - 1) * ni < nip < (seq.t(i) + 1) * ni

    def test_wedge_recurrence(self):
        # z_i = y_i ^ y_{i+1} satisfies z_i = t_{i-1} z_{i-2} + z_{i-3}
        seq = extend(seed_triple(2, 3), 10)
        z = {i: cross(seq.y(i), seq.y(i + 1)) for i in range(-1, 10)}
        for i in range(2, 10):
            want = tuple(
                seq.t(i - 1) * a + b for a, b in zip(z[i - 2], z[i - 3])
            )
            assert z[i] == want

    def test_tampering_detected(self):
        seq = extend(seed_triple(2, 3), 4)
        seq.ys[3] = (seq.ys[3][0] + 1, seq.ys[3][1], seq.ys[3][2])
        with pytest.raises(InvariantViolation):
            extend(seq, 6)


def _first_failure(table, seq, i, proved):
    """Walk `table` at index i as `extend` does; name of the first failing entry."""
    w = Window(seq, i, proved=proved)
    return next((name for name, holds in table if not holds(w)), None)


def _bump(seq, j):
    y = seq.ys[j + 1]
    seq.ys[j + 1] = (y[0] + 1, y[1], y[2])


class TestConstantDeterminant:
    """The Gram path of the constant-determinant entry (`w.proved` >= 2) gives
    the verdict of `det3` whenever a run can reach it."""

    PAIRS = [(2, 3), (3, 2), (2, 5), (6, 7), (3, 11)]

    @pytest.mark.parametrize("b,c", PAIRS)
    def test_both_paths_pass_on_valid_windows(self, b, c):
        det = dict(IDENTITIES)["constant determinant"]
        seq = extend(seed_triple(b, c), 12)
        for i in range(2, 13):
            for proved in (0, 1, 2, i + 1):
                assert det(Window(seq, i, proved=proved))

    @pytest.mark.parametrize("b,c", PAIRS)
    @pytest.mark.parametrize("how", [lambda d: d + 1, lambda d: -d, lambda d: 2 * d, lambda d: 0])
    def test_tampered_det0_same_verdict(self, b, c, how):
        det = dict(IDENTITIES)["constant determinant"]
        seq = extend(seed_triple(b, c), 12)
        seq.det0 = how(seq.det0)
        for i in range(2, 13):
            gram = det(Window(seq, i, proved=2))
            full = det(Window(seq, i, proved=0))
            assert gram == full == (abs(seq.det0) == abs(det3(seq.y(2), seq.y(1), seq.y(0))))

    @pytest.mark.parametrize("b,c", PAIRS)
    @pytest.mark.parametrize("back", [0, 1, 2])
    def test_tampered_member_same_verdict(self, b, c, back, det3_forced):
        # a tampered y_i, y_{i-1} or y_{i-2} fails an entry before the
        # determinant at index i, so the walk never reaches the Gram path
        for i in range(4, 13):
            seq = extend(seed_triple(b, c), 12)
            _bump(seq, i - back)
            got = _first_failure(IDENTITIES, seq, i, proved=2)
            assert got is not None and got != "constant determinant"
            assert got == _first_failure(det3_forced, seq, i, proved=2)

    def test_table_orders_the_entries_it_reuses_first(self):
        names = [name for name, _ in IDENTITIES]
        det = names.index("constant determinant")
        for earlier in (
            "unit value of the form",
            "inner product t_{i-1} = B(y_i, y_{i-1})",
            "inner product t_i = B(y_i, y_{i-2})",
        ):
            assert names.index(earlier) < det
        # the polarization path of B(y_i, y_{i-1}) reuses q(y_i) = 1
        assert names.index("unit value of the form") < names.index(
            "inner product t_{i-1} = B(y_i, y_{i-1})"
        )

    @pytest.mark.parametrize("b,c", PAIRS)
    def test_extend_in_several_calls_matches_one_call(self, b, c):
        whole = extend(seed_triple(b, c), 12)
        steps = seed_triple(b, c)
        for upto in (7, 9, 12):
            extend(steps, upto)
        assert steps.ys == whole.ys and steps.ts == whole.ts
        single = seed_triple(b, c)
        for upto in range(2, 13):
            extend(single, upto)
        assert single.ys == whole.ys and single.ts == whole.ts

    def test_det3_only_at_the_first_two_indices_of_a_call(self, monkeypatch):
        calls = []

        def counting_det3(u, v, w):
            calls.append(1)
            return det3(u, v, w)

        seq = seed_triple(2, 3)
        monkeypatch.setattr(extremal, "det3", counting_det3)
        extend(seq, 12)
        assert len(calls) == 2
        extend(seq, 13)
        assert len(calls) == 3


class TestPolarizationAndSharedProducts:
    """The polarization path of t_{i-1} = B(y_i, y_{i-1}) and the norm
    inequality read off `Window.t_y` give the verdicts of `form.bilinear` and
    of the norm inequality's own product (`plain_forced`)."""

    PAIRS = [(2, 3), (3, 7), (3, 11)]

    @pytest.mark.parametrize("b,c", PAIRS)
    def test_every_entry_passes_on_valid_windows(self, b, c):
        seq = extend(seed_triple(b, c), 12)
        for i in range(2, 13):
            for proved in (0, 1, 2, i + 1):
                assert _first_failure(IDENTITIES, seq, i, proved) is None

    @pytest.mark.parametrize("b,c", PAIRS)
    @pytest.mark.parametrize("what", ["y", "t"])
    @pytest.mark.parametrize("back", [0, 1, 2, 3])
    def test_tampered_window_same_first_failure(self, b, c, what, back, plain_forced):
        for i in range(4, 13):
            for proved in (1, 2):
                seq = extend(seed_triple(b, c), 12)
                if what == "y":
                    _bump(seq, i - back)
                else:
                    seq.ts[i - back + 1] += 1
                got = _first_failure(IDENTITIES, seq, i, proved)
                assert got == _first_failure(plain_forced, seq, i, proved)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.tuples(*[st.integers(-(2**80), 2**80)] * 3),
        k=st.integers(0, 2),
        e=st.integers(0, 2),
        t=st.one_of(st.integers(-3, 0), st.integers(max_value=0), st.integers()),
        s=st.integers(-2, 2),
        d=st.integers(-2, 2),
        rest=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        shared=st.booleans(),
    )
    @example(x=(0, 0, 0), k=0, e=0, t=0, s=0, d=1, rest=(0, 0), shared=False)
    @example(x=(5, -5, 0), k=1, e=0, t=-1, s=1, d=-1, rest=(0, 0), shared=True)
    def test_norm_bounds_on_a_negative_largest_coordinate(self, x, k, e, t, s, d, rest, shared):
        """y_{i-1} = x with x_k = -(||x|| + e) largest in absolute value (tied
        when e = 0), t_{i-1} = t of either sign, and ||y_i|| near
        (t + s) ||x||, against (t - 1) ||x|| < ||y_i|| < (t + 1) ||x||."""
        x = list(x)
        x[k] = -(max_norm(x) + e)
        y = ((t + s) * max_norm(x) + d, *rest)
        seq = ExtremalSequence(seed_triple(2, 3).form, [(1, 0, 0), (1, 0, 0), tuple(x), y], [0, 0, t, 0], 0)
        w = Window(seq, 2)
        if shared:
            assert w.t_y == tuple(t * a for a in x)
        holds = dict(IDENTITIES)["double inequality on norms"]
        assert holds(w) == ((t - 1) * max_norm(x) < max_norm(y) < (t + 1) * max_norm(x))


class TestExtendForked(TestExtend):
    """`TestExtend`, and extending in several calls, with every `extend` call
    that appends an index forking."""

    PATH = "forked"
    test_extend_in_several_calls_matches_one_call = (
        TestConstantDeterminant.test_extend_in_several_calls_matches_one_call
    )


def outcome(seq, upto):
    """((identity, index) of the violation `extend` raises, or None; the depth after)."""
    try:
        extend(seq, upto)
    except InvariantViolation as err:
        return (err.identity, err.index), seq.depth
    return None, seq.depth


def fails_at(table, name, index):
    """`table` with the entry `name` failing at `index` and nowhere else."""

    def wrap(holds):
        return lambda w: w.i != index and holds(w)

    return tuple((n, wrap(h) if n == name else h) for n, h in table)


def tamper_member(seq):
    _bump(seq, 2)  # y_5 = t_4 y_4 - y_2 then leaves the conic: q(y_5) != 1


def tamper_det0(seq):
    seq.det0 += 1  # only the constant determinant reads det0


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def shared_mappings() -> int:
    """Anonymous shared mappings of this process, as `mmap.mmap(-1, n)` makes them."""
    with open("/proc/self/maps") as maps:
        return sum(line.rstrip().endswith("/dev/zero (deleted)") for line in maps)


def stream_hooks(monkeypatch):
    """The pids `os.fork` returns to this process, and a list of hooks that
    each get the number of a notice (from 1) before `extend` sends it."""
    children, hooks, parent = [], [], os.getpid()
    real_fork, real_write = os.fork, os.write

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    sent = []

    def write(fd, data):
        if os.getpid() == parent and len(data) == extremal._NOTICE.size:
            sent.append(data)
            for hook in hooks:
                hook(len(sent))
        return real_write(fd, data)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "write", write)
    return children, hooks


REAL_VERDICT = extremal._VERDICT


class VerdictThen:
    """`extremal._VERDICT`, with `then` called in the child once its verdict
    is packed into the mapping, and each unpacked verdict appended to
    `unpacked`."""

    size = REAL_VERDICT.size

    def __init__(self, then=lambda: None, unpacked=None):
        self.then, self.unpacked = then, [] if unpacked is None else unpacked

    def pack_into(self, buf, offset, *values):
        REAL_VERDICT.pack_into(buf, offset, *values)
        self.then()

    def unpack_from(self, buf):
        verdict = REAL_VERDICT.unpack_from(buf)
        self.unpacked.append(verdict)
        return verdict


class TestSharedChecks:
    """`extend` with one forked child evaluating `CHILD_SHARE` gives the serial
    verdict, leaves the sequence as the serial path does and leaves no child
    or descriptor behind."""

    NAMES = [name for name, _ in IDENTITIES]

    def both(self, monkeypatch, forks, make, upto):
        """`outcome` of extend(make(), upto) on the serial and the forked path."""
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 1 << 62)
        serial = outcome(make(), upto)
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 0)
        seq = make()
        before = len(forks)
        forked = outcome(seq, upto)
        assert len(forks) == before + 1
        return serial, forked

    @pytest.mark.parametrize("b,c", [(2, 3), (3, 7), (3, 11)])
    def test_same_members_at_depth_18(self, b, c, monkeypatch, forks):
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 1 << 62)
        serial = extend(seed_triple(b, c), 18)
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 0)
        forked = extend(seed_triple(b, c), 18)
        assert forks
        assert forked.ys == serial.ys and forked.ts == serial.ts

    def test_child_share_is_part_of_the_table(self):
        assert CHILD_SHARE < set(self.NAMES)

    @pytest.mark.parametrize(
        "cached,readers",
        [
            ("t_product", {"constant determinant", "t recurrence", "double inequality on t"}),
            ("t_y", {"reflection-operator recurrence", "double inequality on norms"}),
        ],
    )
    def test_readers_of_each_cached_product_sit_in_one_share(self, cached, readers):
        # a cached product read in both processes would be computed twice
        found = {
            name for name, holds in IDENTITIES
            if re.search(rf"\b{cached}\b", inspect.getsource(holds))
        }
        assert found == readers
        assert readers <= CHILD_SHARE or not readers & CHILD_SHARE

    @pytest.mark.parametrize("name", NAMES)
    def test_each_entry_failing_alone_same_violation(self, name, monkeypatch, forks):
        monkeypatch.setattr(extremal, "IDENTITIES", fails_at(IDENTITIES, name, 8))
        serial, forked = self.both(monkeypatch, forks, lambda: seed_triple(3, 7), 12)
        assert forked == serial == ((name, 8), 8)

    @pytest.mark.parametrize(
        "tamper,owner", [(tamper_member, "parent"), (tamper_det0, "child")]
    )
    def test_tampered_input_same_violation(self, tamper, owner, monkeypatch, forks):
        def make():
            seq = extend(seed_triple(2, 3), 4)
            tamper(seq)
            return seq

        serial, forked = self.both(monkeypatch, forks, make, 10)
        assert forked == serial
        (name, index), depth = serial
        assert (name in CHILD_SHARE) == (owner == "child")
        assert index == depth == 5

    @pytest.mark.parametrize(
        "failures",
        [
            # (entry, index) pairs that fail; the first by (index, position) wins
            [("unit value of the form", 9), ("double inequality on norms", 7)],
            [("unit value of the form", 7), ("double inequality on norms", 9)],
            [("inner product t_{i-1} = B(y_i, y_{i-1})", 8), ("reflection-operator recurrence", 8)],
            [("inner product t_{i-1} = B(y_i, y_{i-1})", 8), ("t recurrence", 8)],
            [("inner product t_{i-1} = B(y_i, y_{i-1})", 2)],
            [("double inequality on norms", 12)],
        ],
    )
    def test_first_failure_by_index_then_position(self, failures, monkeypatch, forks):
        table = IDENTITIES
        for name, index in failures:
            table = fails_at(table, name, index)
        monkeypatch.setattr(extremal, "IDENTITIES", table)
        serial, forked = self.both(monkeypatch, forks, lambda: seed_triple(3, 7), 12)
        want = min(failures, key=lambda f: (f[1], self.NAMES.index(f[0])))
        assert forked == serial == (want, want[1])

    @pytest.mark.parametrize(
        "how", ["exit 0", "killed", "writes a pass, then killed", "writes a pass, then fails"]
    )
    @pytest.mark.parametrize("tamper", [None, tamper_member, tamper_det0])
    def test_child_without_a_verdict(self, how, tamper, monkeypatch, forks, tmp_path):
        """A child that exits 0 without writing its verdict, or does not
        exit 0 (killed, or failing after it wrote a pass it never checked):
        this process evaluates the child's share itself, so such a pass
        never hides `tamper_det0`'s failure."""
        real, parent = extremal._first_failure, os.getpid()
        walked = tmp_path / "child walked"

        def child_fails(seq, first, upto, positions, proved):
            if os.getpid() == parent:
                return real(seq, first, upto, positions, proved)
            seq.y(first)  # waits for the first streamed member
            walked.touch()
            if how == "exit 0":
                os._exit(0)
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return None  # claims a pass it never checked

        def after_the_verdict():
            if how == "writes a pass, then killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError("after the verdict")

        def make():
            seq = extend(seed_triple(2, 3), 4)
            if tamper:
                tamper(seq)
            return seq

        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 1 << 62)
        serial, seq = outcome(make(), 10), make()
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 0)
        monkeypatch.setattr(extremal, "_first_failure", child_fails)
        monkeypatch.setattr(extremal, "_VERDICT", VerdictThen(after_the_verdict))
        assert outcome(seq, 10) == serial
        assert forks == [1] and walked.exists()
        assert (serial[0] is None) == (tamper is None)

    @pytest.mark.parametrize("tamper", [None, tamper_member, tamper_det0])
    def test_child_killed_mid_stream(self, tamper, monkeypatch, forks):
        def make():
            seq = extend(seed_triple(2, 3), 4)
            if tamper:
                tamper(seq)
            return seq

        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 1 << 62)
        serial, seq = outcome(make(), 10), make()
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 0)
        children, notices = stream_hooks(monkeypatch)
        notices.append(lambda n: n == 2 and os.kill(children[0], signal.SIGKILL))
        unpacked = []
        # a child that has packed its verdict waits there, so the kill always
        # lands on a live child: with a tamper the child fails at the first
        # new member and could otherwise exit 0 before notice 2
        monkeypatch.setattr(
            extremal, "_VERDICT", VerdictThen(lambda: time.sleep(30), unpacked=unpacked)
        )
        assert outcome(seq, 10) == serial
        assert forks == [1]
        assert unpacked == []  # the mapping's verdict is never read

    @pytest.mark.parametrize("b,c", [(2, 3), (3, 11)])
    def test_fork_comes_before_the_first_new_member(self, b, c, monkeypatch, forks):
        seq = extend(seed_triple(b, c), 6)
        depths = []
        real = os.fork

        def fork():
            depths.append(seq.depth)
            return real()

        monkeypatch.setattr(os, "fork", fork)
        extend(seq, 12)
        assert depths == [6]
        assert seq.depth == 12

    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pair=st.sampled_from(CONSTRUCT_PAIRS),
        depth=st.integers(6, 14),
        more=st.integers(1, 4),
        tamper=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["y", "t"]), st.integers(0, 2), st.integers(0, 2),
                st.integers(-3, 3).filter(bool),
            ),
            st.tuples(st.just("det0"), st.just(0), st.just(0), st.integers(-3, 3).filter(bool)),
        ),
    )
    def test_generated_streamed_outcome_is_the_serial_one(
        self, pair, depth, more, tamper, monkeypatch, forks
    ):
        """A tamper changes what the next call reads: a coordinate of y_j or
        t_j, j = depth - back, or det0, by k."""

        def make():
            seq = extend(seed_triple(*pair), depth)
            if tamper is not None:
                what, back, coord, k = tamper
                j = depth - back
                if what == "y":
                    y = list(seq.y(j))
                    y[coord] += k
                    seq.ys[j + 1] = tuple(y)
                elif what == "t":
                    seq.ts[j + 1] += k
                else:
                    seq.det0 += k
            return seq

        serial, streamed = self.both(monkeypatch, forks, make, depth + more)
        assert streamed == serial

    def checks_everything_here(self):
        seq = extend(seed_triple(2, 3), 4)
        tamper_member(seq)
        fds, maps = open_fds(), shared_mappings()
        assert outcome(seq, 10) == (("unit value of the form", 5), 5)
        assert open_fds() == fds and shared_mappings() == maps

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_checks_everything_here(self, monkeypatch, forks):
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        self.checks_everything_here()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_mapping_checks_everything_here(self, monkeypatch, forks):
        def no_mapping(fd, size):
            raise OverflowError("Python int too large to convert to C ssize_t")

        monkeypatch.setattr(extremal.mmap, "mmap", no_mapping)
        self.checks_everything_here()
        assert not forks

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize(
        "case",
        ["pass", "violation", "parent raises", "parent raises between members", "child killed"],
    )
    def test_no_child_or_descriptor_left(self, case, monkeypatch, forks):
        seq = extend(seed_triple(2, 3), 4)
        if case == "violation":
            tamper_member(seq)
        if case == "parent raises":
            def boom(w):
                raise KeyboardInterrupt

            monkeypatch.setattr(extremal, "IDENTITIES", IDENTITIES + (("boom", boom),))
        if case == "parent raises between members":
            _, notices = stream_hooks(monkeypatch)

            def interrupt(n):
                if n == 3:
                    raise KeyboardInterrupt

            notices.append(interrupt)
        if case == "child killed":
            children, notices = stream_hooks(monkeypatch)
            notices.append(lambda n: n == 1 and os.kill(children[0], signal.SIGKILL))
        fds, maps = open_fds(), shared_mappings()
        try:
            extend(seq, 12)
        except (InvariantViolation, KeyboardInterrupt):
            assert case in ("violation", "parent raises", "parent raises between members")
        else:
            assert case in ("pass", "child killed")
        assert forks
        if case == "parent raises between members":
            assert seq.depth == 4 + 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds
        assert shared_mappings() == maps


def reference_verdicts(seq):
    """(name, i, holds) as `verify` walked the tables in its own loops: the
    seed identities at index 1, then index i >= 2 reusing the i + 1 indices
    before it (the seed's three among them) until an entry failed, and
    nothing from then on, or at all when a seed identity failed."""
    seed = Window(seq, 1)
    out = [(name, 1, holds(seed)) for name, holds in SEED_IDENTITIES]
    failed = not all(ok for _, _, ok in out)
    for i in range(2, seq.depth + 1):
        window = Window(seq, i)
        for name, holds in IDENTITIES:
            window.proved = 0 if failed else i + 1
            ok = holds(window)
            failed = failed or not ok
            out.append((name, i, ok))
    return out


class TestVerdicts:
    """`verdicts`, which `verify` prints, gives the verdicts of `verify`'s own
    loops, serial or forked, with any number of failures, in the seed or
    past it."""

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pair=st.sampled_from(CONSTRUCT_PAIRS),
        # (index, coordinate of y or 3 for t, change)
        tampers=st.lists(
            st.tuples(st.integers(2, 10), st.integers(0, 3), st.integers(-2, 2).filter(bool)),
            max_size=3,
        ),
        # (index of the seed's t, change); t_{-1}, t_0 and t_1 are each one
        # side of the seed inner products, so any change breaks the seed
        seed_tamper=st.one_of(
            st.none(), st.tuples(st.integers(-1, 1), st.integers(-2, 2).filter(bool))
        ),
        forked=st.booleans(),
    )
    # a seed t tampered with the members clean, tampers at two consecutive
    # indices, and a tamper at the last index
    @example(pair=(2, 3), tampers=[], seed_tamper=(0, 1), forked=False)
    @example(pair=(3, 7), tampers=[(5, 3, 1), (6, 1, -1)], seed_tamper=None, forked=True)
    @example(pair=(3, 5), tampers=[(10, 0, 2)], seed_tamper=None, forked=False)
    def test_equal_the_reference(self, pair, tampers, seed_tamper, forked, monkeypatch):
        seq = extend(seed_triple(*pair), 10)
        for j, coord, k in tampers:
            if coord == 3:
                seq.ts[j + 1] += k
            else:
                y = list(seq.y(j))
                y[coord] += k
                seq.ys[j + 1] = tuple(y)
        if seed_tamper is not None:
            j, k = seed_tamper
            seq.ts[j + 1] += k
        want = reference_verdicts(seq)
        sound = all(ok for _, i, ok in want if i == 1)
        assert sound == (seed_tamper is None)
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 0 if forked else 1 << 62)
        assert list(verdicts(seq)) == want
        assert seq.depth == 10

    @pytest.mark.parametrize("seed_fails", [False, True])
    def test_each_segment_reuses_what_it_proved(self, seed_fails, monkeypatch):
        """Past a failure at index i the walk reuses again what it proves, as
        `extend` does: the window of index j > i counts the j - i - 1 indices
        between, so from i + 2 on the entries take their reuse paths."""
        seq = extend(seed_triple(2, 3), 10)
        if seed_fails:
            # the seed inner products fail, and the t recurrence at 2 alone after them
            seq.ts[0] += 1
            failed = [(SEED_IDENTITIES[1][0], 1), ("t recurrence", 2)]
            walk = [(2, 0), (2, 0), *((j, j - 3) for j in range(3, 11))]
        else:
            monkeypatch.setattr(extremal, "IDENTITIES", fails_at(IDENTITIES, "t recurrence", 5))
            failed = [("t recurrence", 5)]
            walk = [(2, 3), (3, 4), (4, 5), (5, 6), (5, 0), *((j, j - 6) for j in range(6, 11))]
        made = []

        class Recorded(Window):
            def __init__(self, seq, i, proved=0):
                super().__init__(seq, i, proved)
                made.append((i, proved))

        monkeypatch.setattr(extremal, "Window", Recorded)
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 1 << 62)
        assert [(name, i) for name, i, ok in verdicts(seq) if not ok] == failed
        assert made == [(1, 0), *walk]

    def test_the_seed_alone_at_depth_1(self, forks):
        seq = seed_triple(2, 3)
        assert list(verdicts(seq)) == [(name, 1, True) for name, _ in SEED_IDENTITIES]
        assert forks == []

    def test_seed_triple_raises_the_first_failing_verdict(self, monkeypatch):
        evaluated = []

        def entry(name, ok):
            return name, lambda w: evaluated.append(name) or ok

        table = [entry(name, name != SEED_IDENTITIES[2][0]) for name, _ in SEED_IDENTITIES]
        monkeypatch.setattr(extremal, "SEED_IDENTITIES", tuple(table))
        with pytest.raises(InvariantViolation) as err:
            seed_triple(2, 3)
        assert (err.value.identity, err.value.index) == (SEED_IDENTITIES[2][0], 1)
        assert evaluated == [name for name, _ in SEED_IDENTITIES[:3]]


class TestNoForkBelowTheThreshold:
    """The workloads whose members stay far below `FORK_MIN_BITS` never fork."""

    @pytest.fixture
    def fork_calls(self, monkeypatch):
        calls, real = [], os.fork

        def counting_fork():
            calls.append(1)
            return real()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    def test_construct_to_depth_15_and_its_enclosure(self, fork_calls):
        for b, c in CONSTRUCT_PAIRS:  # the library side of `cli construct --depth 15`
            target = ExtremalTarget(b, c)
            extend(target.sequence, 15)
            target.limit(128)
        assert fork_calls == []

    @pytest.mark.parametrize("b,c", PIPELINE_PAIRS)
    def test_verify_at_depth_15(self, b, c, fork_calls, tmp_path):
        argv = ["construct", "--b", str(b), "--c", str(c), "--depth", "15", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main(["verify", "--in", str(tmp_path / "sequence.jsonl")]) == 0
        assert fork_calls == []

    @pytest.mark.parametrize("b,c", [(3, 2), (13, 11)])
    def test_scan_of_an_extremal_target(self, b, c, fork_calls):
        assert enumerate_minimal(ExtremalTarget(b, c), 260_000)
        assert fork_calls == []


# ints of either sign with up to 10^5 bits: +-(random bits from a seed + delta)
BIG_INTS = st.builds(
    lambda bits, seed, delta, sign: sign * (random.Random(seed).getrandbits(bits) + delta),
    st.integers(0, 100_000),
    st.integers(0, 2**32),
    st.integers(-1, 1),
    st.sampled_from([1, -1]),
)


class TestStreamedMembers:
    """The bytes of the members `extend` streams to its forked child."""

    @pytest.mark.parametrize("b,c", CONSTRUCT_PAIRS)
    def test_bound_covers_what_is_written_at_depths_2_to_22(self, b, c):
        seq = seed_triple(b, c)
        written = []  # bytes of member i at written[i - 2]
        for i in range(2, 23):
            extremal._append_member(seq, i)
            out = io.BytesIO()
            extremal._write_member(out, seq.y(i), seq.t(i))
            written.append(len(out.getvalue()))
        for first in range(2, 23):
            ys, ts = seq.ys[:first + 1], seq.ts[:first + 1]
            start = ExtremalSequence(seq.form, ys, ts, seq.det0)
            for upto in range(first, 23):
                bits, size = extremal._stream_bound(start, first, upto)
                assert bits >= max_norm(seq.y(upto)).bit_length()
                assert size >= sum(written[first - 2:upto - 1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(BIG_INTS, min_size=4, max_size=4))
    @example([0, 0, 0, 0])
    @example([-1, -1, -1, -1])
    @example([0, -1, 1, -(1 << 100_000)])
    @example([-128, 127, -129, 128])
    def test_members_round_trip(self, ints):
        y, t = tuple(ints[:3]), ints[3]
        nbytes = extremal._signed_bytes
        size = 3 * nbytes(max_norm(y).bit_length()) + nbytes(t.bit_length())
        with mmap.mmap(-1, size) as buf:
            notice = extremal._write_member(buf, y, t)
            assert buf.tell() == size
            buf.seek(0)
            assert extremal._read_member(buf, notice) == (y, t)


class TestGrowth:
    def test_ratios_approach_golden(self):
        seq = extend(seed_triple(2, 3), 15)
        last = dict(growth_ratios(seq))[14]
        assert abs(last - 1.6180) < 0.005

    def test_norm_over_t_band(self):
        # ||y_i|| / t_{i+1} stays in a fixed multiplicative band for i >= 3
        seq = extend(seed_triple(2, 3), 14)
        ratios = [max_norm(seq.y(i)) / seq.t(i + 1) for i in range(3, 14)]
        assert max(ratios) / min(ratios) < 1.0001


def midpoint(x) -> Fraction:
    """The centre of a certified real's interval, exactly."""
    return (x.lo.as_fraction() + x.hi.as_fraction()) / 2


class TestLimitPoint:
    def test_b2_c3_enclosure(self):
        seq = seed_triple(2, 3)
        enc = limit_point(seq, Fraction(1, 2**80))
        mid1, mid2 = midpoint(enc.xi1), midpoint(enc.xi2)
        assert abs(mid1 - Fraction(55440, 78407)) < Fraction(1, 10**3)
        assert abs(mid2 - Fraction(396, 78407)) < Fraction(1, 10**3)
        # the limit lies on the conic: 2 xi1^2 + 3 xi2^2 = 1 somewhere in the
        # box, whose coordinates are positive
        lo1, hi1 = enc.xi1.lo.as_fraction(), enc.xi1.hi.as_fraction()
        lo2, hi2 = enc.xi2.lo.as_fraction(), enc.xi2.hi.as_fraction()
        assert 0 < lo1 and 0 < lo2
        assert 2 * lo1**2 + 3 * lo2**2 <= 1 <= 2 * hi1**2 + 3 * hi2**2

    def test_cap_message_names_the_bits(self, monkeypatch):
        # 2**-2000 underflows a float; the message must not print width 0
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "100")
        with pytest.raises(PrecisionCapError) as err:
            limit_point(seed_triple(2, 3), Fraction(1, 2**2000))
        assert str(err.value) == "needs 2000 bits, cap is 100"

    @pytest.mark.parametrize("width", [0, -1])
    def test_width_that_is_not_positive_is_refused(self, width):
        with pytest.raises(ValueError, match="^target_width must be positive$"):
            limit_point(seed_triple(2, 3), width)

    def test_width_that_is_not_a_power_of_two_rounds_down_to_one(self):
        seq = seed_triple(2, 3)
        assert limit_point(seq, Fraction(3, 2**130)) == limit_point(seq, Fraction(1, 2**129))
        assert limit_point(seq, Fraction(2**129 - 1, 2**258)) == limit_point(seq, Fraction(1, 2**130))
        assert limit_point(seq, 5) == limit_point(seq, 1)

    @pytest.mark.parametrize("width", [0.3, float("inf"), float("nan"), "1/4"])
    def test_width_that_is_not_a_fraction_or_an_int_is_refused(self, width):
        want = f"^target_width must be a Fraction or an int, not {type(width).__name__}$"
        with pytest.raises(TypeError, match=want):
            limit_point(seed_triple(2, 3), width)

    def test_width_request_honored(self):
        seq = seed_triple(2, 3)
        for k in (30, 60, 120):
            enc = limit_point(seq, Fraction(1, 2**k))
            for x in (enc.xi1, enc.xi2):
                assert x.hi.as_fraction() - x.lo.as_fraction() <= Fraction(1, 2**k)

    def test_distance_decreases(self):
        seq = extend(seed_triple(2, 3), 11)
        enc = limit_point(seq, Fraction(1, 2**200))
        xi = (Fraction(1), midpoint(enc.xi1), midpoint(enc.xi2))

        def dist_to_limit(i):
            y = seq.y(i)
            num = max(abs(c) for c in cross(y, xi))
            return num / (max_norm(y) * max(abs(c) for c in xi))

        assert dist_to_limit(10) < dist_to_limit(5)

    def test_wedge_norm_band(self):
        # ||y_i ^ Xi|| * ||y_i|| stays within a fixed band for large i
        # midpoint of Xi must be far more accurate than ||y_i||^-2 for the
        # largest index used (y_8 has ~420 bits, so 2^-1800 leaves slack)
        seq = extend(seed_triple(2, 3), 9)
        enc = limit_point(seq, Fraction(1, 2**1800))
        xi = (Fraction(1), midpoint(enc.xi1), midpoint(enc.xi2))
        vals = []
        for i in range(4, 9):
            y = seq.y(i)
            vals.append(max(abs(c) for c in cross(y, xi)) * max_norm(y))
        assert max(vals) / min(vals) < 3


class TestIndependenceEvidence:
    def test_no_small_relation(self):
        seq = seed_triple(2, 3)
        assert verify_no_small_relation(seq, coeff_bound=10**6)


def exact_dist(u, v) -> Fraction:
    """Projective distance ||u ^ v|| / (||u|| ||v||), exactly."""
    return Fraction(max_norm(cross(u, v)), max_norm(u) * max_norm(v))


def dist_up(u, v) -> Fraction:
    """The same distance rounded up as `ConsecutiveDistances` rounds it."""
    return ratio_up(max_norm(cross(u, v)), max_norm(u) * max_norm(v)).as_fraction()


def reference_tail_bound(seq: ExtremalSequence, start: int, slack: Fraction) -> Fraction:
    """The exact series the tail bound rounds up: sum of 2^k d_{start+k} in
    Fractions, stopped after the first term below `slack`, plus that term again."""
    total, k = Fraction(0), 0
    while True:
        extend(seq, start + k + 1)
        term = 2**k * exact_dist(seq.y(start + k), seq.y(start + k + 1))
        total += term
        if term < slack:
            return total + term
        k += 1



# (P, index) at every P <= 4096 where a slack of 2**-(P+1) in `limit_index`,
# in place of 2**-(P+2), would give another limit index, and so other bytes
# of `xi.json`
SLACK_DECIDES = {
    (2, 3): [
        (32, 3), (61, 4), (108, 5), (184, 6), (307, 7),
        (506, 8), (827, 9), (1348, 10), (2190, 11), (3554, 12),
    ],
    (3, 5): [
        (33, 3), (64, 4), (114, 5), (195, 6), (326, 7),
        (537, 8), (880, 9), (1434, 10), (2330, 11), (3780, 12),
    ],
    (5, 7): [
        (60, 3), (113, 4), (198, 5), (336, 6), (559, 7),
        (920, 8), (1505, 9), (2450, 10), (3980, 11),
    ],
    (3, 11): [
        (33, 3), (66, 4), (116, 5), (199, 6), (332, 7),
        (547, 8), (896, 9), (1460, 10), (2373, 11), (3850, 12),
    ],
    (3, 2): [
        (26, 3), (52, 4), (92, 5), (157, 6), (262, 7),
        (433, 8), (708, 9), (1155, 10), (1876, 11), (3044, 12),
    ],
}


class TestCertifiedLimit:
    @pytest.mark.parametrize("b,c", PIPELINE_PAIRS)
    @pytest.mark.parametrize("k", [64, 128, 300, 1000, 3000])
    def test_enclosures_contain_a_later_member(self, b, c, k):
        seq = seed_triple(b, c)
        tw = Fraction(1, 2**k)
        enc = limit_point(seq, tw)
        late = seq.depth + 3
        y = extend(seq, late).y(late)
        for x, coord in ((enc.xi1, 1), (enc.xi2, 2)):
            lo, hi = x.lo.as_fraction(), x.hi.as_fraction()
            assert hi - lo <= tw
            assert lo <= Fraction(y[coord], y[0]) <= hi

    @pytest.mark.parametrize("b,c", PIPELINE_PAIRS)
    def test_tail_bound_rounds_the_exact_series_up(self, b, c):
        seq = extend(seed_triple(b, c), 14)
        distances = ConsecutiveDistances(seq, 0)
        for k in (20, 64, 128, 700):
            for start in (2, 3, 5):
                exact = reference_tail_bound(seq, start, Fraction(1, 2**k))
                got = distances.tail_bound(start, Dyadic.make(1, -k)).as_fraction()
                assert exact <= got <= exact * (1 + Fraction(1, 2**56))

    @pytest.mark.parametrize("b,c", PIPELINE_PAIRS)
    def test_enclosure_tail_bound_rounds_the_exact_series_up(self, b, c):
        tw = Fraction(1, 2**500)
        seq = seed_triple(b, c)
        enc = limit_point(seq, tw)
        # the start index is the first whose bound eps has 4 eps <= tw
        start = 2
        while 4 * reference_tail_bound(seq, start, tw / 4) > tw:
            start += 1
        exact = reference_tail_bound(seq, start, tw / 4)
        i, eps = limit_index(seq, 500)
        assert i == start
        assert exact <= eps.as_fraction() <= exact * (1 + Fraction(1, 2**56))
        # the enclosure carries eps rounded up to the grid 2**-509 of xi1 and xi2
        grid = Fraction(1, 2**509)
        assert enc.tail_bound.lo == enc.tail_bound.hi
        assert enc.tail_bound.precision == enc.xi1.precision == enc.xi2.precision == 509
        assert enc.tail_bound.hi.as_fraction() == math.ceil(eps.as_fraction() / grid) * grid

    def test_tampered_member_breaks_the_quartic_decay(self):
        seq = extend(seed_triple(2, 3), 12)
        seq.ys[5 + 1] = seq.y(3)  # y_5 := y_3, so d_4 = d_3
        with pytest.raises(InvariantViolation) as err:
            limit_point(seq, Fraction(1, 2**128))
        assert err.value.identity == "quartic decay of consecutive distances"
        assert err.value.index == 4

    @pytest.mark.parametrize(
        "move",
        [lambda y: (y[1], y[0], y[2]), lambda y: (-y[0], -y[1], -y[2])],
        ids=["|y_1| > y_0", "y_0 < 0"],
    )
    def test_member_whose_first_coordinate_is_not_its_norm(self, move):
        """Swapping or negating coordinates of every member keeps each
        distance d_j, so the limit index is the one of the true sequence."""
        true = extend(seed_triple(2, 3), 12)
        i = limit_index(true, 64)[0]
        ys = [move(y) for y in true.ys]
        seq = ExtremalSequence(true.form, ys, true.ts, true.det0)
        with pytest.raises(InvariantViolation) as err:
            limit_point(seq, Fraction(1, 2**64))
        assert err.value.identity == "first coordinate is the norm at the limit index"
        assert err.value.index == i
        assert seq.depth == true.depth == 12

    @pytest.mark.parametrize(
        "b,c,P,index",
        [(2, 3, 16, 2), (2, 3, 64, 4), (2, 3, 128, 5)]
        + [(b, c, P, index) for (b, c), cases in SLACK_DECIDES.items() for P, index in cases],
    )
    def test_limit_index_where_the_slack_decides_it(self, b, c, P, index):
        # with the slack at 2**-(P+1) in place of 2**-(P+2), (2, 3) at P = 32 gives 2
        assert limit_index(seed_triple(b, c), P)[0] == index

    def test_conic_check_on_boxes_that_hold_zero(self):
        # at p = 4 the box (-1, 1) x (-1, 1) meets 1 - 2 x^2 - 3 z^2 = 0; the
        # upper end 1 of that range is where x^2 and z^2 reach 0 in the box
        seq = seed_triple(2, 3)
        limit._check_on_conic(seq, (-16, 16), (-16, 16), 4)
        with pytest.raises(InvariantViolation) as err:
            limit._check_on_conic(seq, (0, 1), (0, 1), 4)
        assert err.value.identity == "limit point lies on the conic"

    def test_tampered_enclosure_is_off_the_conic(self, monkeypatch):
        real = limit._enclose
        monkeypatch.setattr(
            limit, "_enclose", lambda num, den, e, p: real(num + 1, den, e, p)
        )
        with pytest.raises(InvariantViolation) as err:
            limit_point(seed_triple(2, 3), Fraction(1, 2**128))
        assert err.value.identity == "limit point lies on the conic"

    def test_one_extend_call_and_det3_at_two_indices_per_call(self, monkeypatch):
        seq = seed_triple(2, 3)
        extends, det3_calls = [], []
        real_extend = limit.extend

        def counting_extend(s, upto):
            extends.append(upto)
            return real_extend(s, upto)

        def counting_det3(u, v, w):
            det3_calls.append(1)
            return det3(u, v, w)

        monkeypatch.setattr(limit, "extend", counting_extend)
        monkeypatch.setattr(extremal, "det3", counting_det3)
        limit_point(seq, Fraction(1, 2**4000))
        assert extends == [13] and seq.depth == 13
        assert len(det3_calls) <= 2 * len(extends)

    def test_no_extend_call_when_the_members_suffice(self, monkeypatch):
        seq = extend(seed_triple(2, 3), 12)
        monkeypatch.setattr(limit, "extend", None)
        limit_point(seq, Fraction(1, 2**128))

    def test_deterministic(self):
        a = limit_point(seed_triple(3, 7), Fraction(1, 2**700))
        b = limit_point(extend(seed_triple(3, 7), 14), Fraction(1, 2**700))
        assert a == b


class TestProjDist:
    """The projective distance as `ConsecutiveDistances` rounds it up."""

    def test_identical(self):
        assert dist_up((3, 1, 4), (3, 1, 4)) == 0

    def test_orthonormal(self):
        assert dist_up((1, 0, 0), (0, 1, 0)) == 1

    def test_example(self):
        assert dist_up((1, 0, 0), (1, 1, 0)) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            dist_up((0, 0, 0), (1, 0, 0))

    vec = st.tuples(*[st.integers(-50, 50)] * 3).filter(any)
    big = st.tuples(*[st.integers(-(2**200), 2**200)] * 3).filter(any)

    @given(vec, vec, vec)
    @settings(max_examples=300)
    def test_quasi_triangle_inequality(self, x, y, z):
        assert exact_dist(x, z) <= dist_up(x, y) + 2 * dist_up(y, z)

    @given(st.one_of(vec, big), st.one_of(vec, big))
    def test_symmetric_and_scale_invariant(self, x, y):
        assert dist_up(x, y) == dist_up(y, x)
        for u in (x, tuple(3 * c for c in x)):
            exact = exact_dist(x, y)
            assert exact <= dist_up(u, y) <= exact * (1 + Fraction(1, 2**61))
