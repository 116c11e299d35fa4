"""Seeded sequences on the conic: recurrences, growth, limit-point enclosures."""
import os
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_approx import extremal
from conic_approx.extremal import (
    CHILD_SHARE,
    IDENTITIES,
    ConsecutiveDistances,
    ExtremalSequence,
    InvariantViolation,
    UnsupportedConstruction,
    Window,
    extend,
    growth_ratios,
    limit_point,
    seed_triple,
    tails_equal,
    verify_no_small_relation,
)
from conic_approx.numerics import Dyadic, PrecisionCapError, ratio_up
from conic_approx.quadform import cross, det3, max_norm


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
    w = Window(seq.form, seq.ys, seq.ts, seq.det0, i, proved=proved)
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
                assert det(Window(seq.form, seq.ys, seq.ts, seq.det0, i, proved=proved))

    @pytest.mark.parametrize("b,c", PAIRS)
    @pytest.mark.parametrize("how", [lambda d: d + 1, lambda d: -d, lambda d: 2 * d, lambda d: 0])
    def test_tampered_det0_same_verdict(self, b, c, how):
        det = dict(IDENTITIES)["constant determinant"]
        seq = extend(seed_triple(b, c), 12)
        seq.det0 = how(seq.det0)
        for i in range(2, 13):
            gram = det(Window(seq.form, seq.ys, seq.ts, seq.det0, i, proved=2))
            full = det(Window(seq.form, seq.ys, seq.ts, seq.det0, i, proved=0))
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
        "tamper,owner", [(tamper_member, "child"), (tamper_det0, "parent")]
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

    @pytest.mark.parametrize("how", ["exit 0", "killed", "short verdict", "pass, then exit 1"])
    @pytest.mark.parametrize("tamper", [None, tamper_member])
    def test_child_without_a_verdict(self, how, tamper, monkeypatch, forks):
        real, parent = extremal._first_failure, os.getpid()

        def child_fails(seq, first, upto, positions):
            if os.getpid() == parent:
                return real(seq, first, upto, positions)
            if how == "exit 0":
                os._exit(0)
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            write = os.write
            if how == "short verdict":
                os.write = lambda fd, data: write(fd, data[:-1])
                return real(seq, first, upto, positions)

            def write_then_fail(fd, data):
                write(fd, data)
                raise OSError("after the verdict")

            os.write = write_then_fail
            return None  # claims a pass it never checked

        def make():
            seq = extend(seed_triple(2, 3), 4)
            if tamper:
                tamper(seq)
            return seq

        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 1 << 62)
        serial = outcome(make(), 10)
        monkeypatch.setattr(extremal, "FORK_MIN_BITS", 0)
        monkeypatch.setattr(extremal, "_first_failure", child_fails)
        assert outcome(make(), 10) == serial
        assert forks
        assert (serial[0] is None) == (tamper is None)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_checks_everything_here(self, monkeypatch, forks):
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        seq = extend(seed_triple(2, 3), 4)
        tamper_member(seq)
        fds = open_fds()
        assert outcome(seq, 10) == (("unit value of the form", 5), 5)
        assert open_fds() == fds

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("case", ["pass", "violation", "parent raises"])
    def test_no_child_or_descriptor_left(self, case, monkeypatch, forks):
        seq = extend(seed_triple(2, 3), 4)
        if case == "violation":
            tamper_member(seq)
        if case == "parent raises":
            def boom(w):
                raise KeyboardInterrupt

            monkeypatch.setattr(extremal, "IDENTITIES", IDENTITIES + (("boom", boom),))
        fds = open_fds()
        try:
            extend(seq, 12)
        except (InvariantViolation, KeyboardInterrupt):
            assert case != "pass"
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds


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


class TestLimitPoint:
    def test_b2_c3_enclosure(self):
        seq = seed_triple(2, 3)
        enc = limit_point(seq, Fraction(1, 2**80))
        mid1, mid2 = enc.xi1.midpoint(), enc.xi2.midpoint()
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

    def test_width_that_is_not_a_power_of_two_rounds_down_to_one(self):
        seq = seed_triple(2, 3)
        assert limit_point(seq, Fraction(3, 2**130)) == limit_point(seq, Fraction(1, 2**129))
        assert limit_point(seq, Fraction(2**129 - 1, 2**258)) == limit_point(seq, Fraction(1, 2**130))
        assert limit_point(seq, 0.3) == limit_point(seq, Fraction(1, 4))
        assert limit_point(seq, 5) == limit_point(seq, 1)

    def test_width_request_honored(self):
        seq = seed_triple(2, 3)
        for k in (30, 60, 120):
            enc = limit_point(seq, Fraction(1, 2**k))
            assert enc.xi1.width().as_fraction() <= Fraction(1, 2**k)
            assert enc.xi2.width().as_fraction() <= Fraction(1, 2**k)

    def test_distance_decreases(self):
        seq = extend(seed_triple(2, 3), 11)
        enc = limit_point(seq, Fraction(1, 2**200))
        xi = (Fraction(1), enc.xi1.midpoint(), enc.xi2.midpoint())

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
        xi = (Fraction(1), enc.xi1.midpoint(), enc.xi2.midpoint())
        vals = []
        for i in range(4, 9):
            y = seq.y(i)
            vals.append(max(abs(c) for c in cross(y, xi)) * max_norm(y))
        assert max(vals) / min(vals) < 3


class TestTailsEqual:
    def test_self_shift_zero(self):
        seq = extend(seed_triple(2, 3), 6)
        assert tails_equal(seq, seq) == 0

    def test_sign_insensitive(self):
        a = extend(seed_triple(2, 3), 6)
        b = extend(seed_triple(2, 3), 6)
        b.ys = [tuple(-c for c in y) for y in b.ys]
        assert tails_equal(a, b) == 0

    def test_equal_seeds_and_shifted_tails(self):
        a = extend(seed_triple(2, 3), 8)
        b = extend(seed_triple(2, 3), 8)
        assert tails_equal(a, b) == 0
        shifted = extend(seed_triple(2, 3), 8)
        shifted.ys = shifted.ys[2:]
        shifted.ts = shifted.ts[2:]
        assert tails_equal(a, shifted) == 2

    def test_distinct_sequences_detected(self):
        a = extend(seed_triple(2, 3), 6)
        b = extend(seed_triple(2, 5), 6)
        assert tails_equal(a, b) is None


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


PIPELINE_PAIRS = [(2, 3), (3, 2), (3, 5), (3, 6), (3, 7), (3, 11)]


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
            assert x.width().as_fraction() <= tw
            assert x.contains(Fraction(y[coord], y[0]))

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
        assert enc.tail_bound.lo == enc.tail_bound.hi
        assert exact <= enc.tail_bound.hi.as_fraction() <= exact * (1 + Fraction(1, 2**56))

    def test_tampered_member_breaks_the_quartic_decay(self):
        seq = extend(seed_triple(2, 3), 12)
        seq.ys[5 + 1] = seq.y(3)  # y_5 := y_3, so d_4 = d_3
        with pytest.raises(InvariantViolation) as err:
            limit_point(seq, Fraction(1, 2**128))
        assert err.value.identity == "quartic decay of consecutive distances"
        assert err.value.index == 4

    def test_tampered_enclosure_is_off_the_conic(self, monkeypatch):
        real = extremal._enclose
        monkeypatch.setattr(
            extremal, "_enclose", lambda num, den, eps, p: real(num + 1, den, eps, p)
        )
        with pytest.raises(InvariantViolation) as err:
            limit_point(seed_triple(2, 3), Fraction(1, 2**128))
        assert err.value.identity == "limit point lies on the conic"

    def test_one_extend_call_and_det3_at_two_indices_per_call(self, monkeypatch):
        seq = seed_triple(2, 3)
        extends, det3_calls = [], []
        real_extend = extremal.extend

        def counting_extend(s, upto):
            extends.append(upto)
            return real_extend(s, upto)

        def counting_det3(u, v, w):
            det3_calls.append(1)
            return det3(u, v, w)

        monkeypatch.setattr(extremal, "extend", counting_extend)
        monkeypatch.setattr(extremal, "det3", counting_det3)
        limit_point(seq, Fraction(1, 2**4000))
        assert extends == [13] and seq.depth == 13
        assert len(det3_calls) <= 2 * len(extends)

    def test_no_extend_call_when_the_members_suffice(self, monkeypatch):
        seq = extend(seed_triple(2, 3), 12)
        monkeypatch.setattr(extremal, "extend", None)
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
