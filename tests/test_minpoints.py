"""Minimal-point enumeration against brute force, exponent reports, rigidity."""
import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conic_approx import minpoints, targets
from conic_approx.extremal import extend, seed_triple
from conic_approx.limit import limit_point
from conic_approx.minpoints import (
    _abs_interval,
    _record,
    _scaled_enclosure,
    _scan,
    enumerate_minimal,
    estimate_lambda,
    independence_indices,
    records_from_sequence,
    rigidity_check,
)
from conic_approx.numerics import (
    CertifiedReal,
    Dyadic,
    PrecisionCapError,
    height_precision,
    nearest_integer,
)
from conic_approx.quadform import TernaryQuadraticForm, cross, det3, max_norm, psi
from conic_approx.targets import (
    DependentTargetError,
    ExtremalTarget,
    SqrtPairTarget,
)


def decimal_scaled_sqrt(a: int, digits: int) -> int:
    """floor(sqrt(a) * 10**digits), an oracle independent of the dyadic pipeline."""
    return isqrt(a * 10 ** (2 * digits))


def brute_force_records(scaled, xmax, digits):
    """Record scan over a +-2 window of candidate integer pairs per x0.

    `scaled` are floor(xi_j * 10**digits); comparisons carry an explicit margin
    so a wrong decision is impossible for targets that are not near-rational.
    """
    S = 10**digits
    a1, a2 = scaled
    records = []
    best = None
    for x0 in range(1, xmax + 1):
        cands = []
        for d1 in range(-2, 3):
            n1 = (x0 * a1 + S // 2) // S + d1
            for d2 in range(-2, 3):
                n2 = (x0 * a2 + S // 2) // S + d2
                L = max(abs(x0 * a1 - n1 * S), abs(x0 * a2 - n2 * S))
                cands.append((L, n1, n2))
        L, n1, n2 = min(cands)
        assert L > 4 * xmax  # margin: scaled values are off by < xmax ulp
        if best is None or L + 4 * xmax < best:
            best = L
            records.append((x0, n1, n2))
        else:
            assert L > best - 4 * xmax  # no undecided comparisons at this scale
    return records


class TestEnumerateAgainstBruteForce:
    @pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (3, 5)])
    def test_sqrt_targets_xmax_100(self, a, b):
        got = enumerate_minimal(SqrtPairTarget(a, b), 100)
        digits = 30
        want = brute_force_records(
            (decimal_scaled_sqrt(a, digits), decimal_scaled_sqrt(b, digits)), 100, digits
        )
        assert [(r.x[0], r.x[1], r.x[2]) for r in got] == want

    def test_extremal_target_contains_sequence_members(self):
        got = enumerate_minimal(ExtremalTarget(2, 3), 10**4)
        xs = [r.x for r in got]
        seq = extend(seed_triple(2, 3), 3)
        # y_{-1} = (1,0,0) is not a record ((1,1,0) is closer at x0 = 1);
        # all later members within range must appear
        for i in (0, 1):
            assert seq.y(i) in xs

    def test_records_strictly_improving(self):
        got = enumerate_minimal(SqrtPairTarget(2, 3), 2000)
        for r1, r2 in zip(got, got[1:]):
            assert r2.X > r1.X
            assert r2.L.hi < r1.L.lo  # certified strict decrease


def reference_scan(target, xmax, p, *, skip):
    """The scan written from its definition, and the x0 it rounds.

    Without `skip` every x0 is rounded and compared.  With it, x0 is skipped
    when x0*a1lo mod 2**p lies in [best_hi + slack, 2**p - 1 - best_hi - slack],
    tested directly on that residue.  Returns (records or None, the x0
    rounded in order, up to the end of the pass or the undecided x0).
    """
    (a1lo, a1hi), (a2lo, a2hi) = _scaled_enclosure(target, p)
    mask = (1 << p) - 1
    slack = xmax * (a1hi - a1lo) + 1
    records = []
    visited = []
    best = None
    for x0 in range(1, xmax + 1):
        if skip and best is not None and best[1] + slack <= x0 * a1lo & mask <= mask - best[1] - slack:
            continue
        visited.append(x0)
        v1lo, v1hi = x0 * a1lo, x0 * a1hi
        v2lo, v2hi = x0 * a2lo, x0 * a2hi
        n1 = nearest_integer(v1lo, v1hi, p)
        n2 = nearest_integer(v2lo, v2hi, p)
        if n1 is None or n2 is None:
            return None, visited
        d1 = (v1lo - (n1 << p), v1hi - (n1 << p))
        d2 = (v2lo - (n2 << p), v2hi - (n2 << p))
        e1i = _abs_interval(*d1)
        e2i = _abs_interval(*d2)
        li = (max(e1i[0], e2i[0]), max(e1i[1], e2i[1]))
        if best is None or li[1] < best[0]:
            best = li
            records.append(_record((x0, n1, n2), d1, d2, p))
        elif li[0] < best[1]:
            return None, visited
    return records, visited


def unfiltered_scan(target, xmax, p):
    """The scan without the first-coordinate skip: every x0 is rounded and compared."""
    return reference_scan(target, xmax, p, skip=False)[0]


SQUAREFREE_60 = [n for n in range(2, 61) if all(n % (k * k) for k in range(2, 8))]
PREFILTER_TARGETS = [
    ExtremalTarget(2, 3),
    ExtremalTarget(3, 5),
    ExtremalTarget(5, 7),
    SqrtPairTarget(2, 3),
    SqrtPairTarget(5, 7),
    SqrtPairTarget(11, 13),
]


class TestPrefilter:
    @pytest.mark.parametrize(
        "a,b",
        random.Random(4).sample(
            [(a, b) for a in SQUAREFREE_60 for b in SQUAREFREE_60 if a < b], 12
        ),
    )
    def test_random_sqrt_pairs_match_brute_force(self, a, b):
        got = enumerate_minimal(SqrtPairTarget(a, b), 3000)
        digits = 30
        want = brute_force_records(
            (decimal_scaled_sqrt(a, digits), decimal_scaled_sqrt(b, digits)), 3000, digits
        )
        assert [r.x for r in got] == want

    @pytest.mark.parametrize("target", PREFILTER_TARGETS, ids=repr)
    def test_equals_unfiltered_scan_at_default_precision(self, target):
        xmax = 2 * 10**4
        p = height_precision(xmax, 96)
        want = unfiltered_scan(target, xmax, p)
        assert want is not None
        assert _scan(target, xmax, p) == want

    def test_low_precision_passes(self):
        # at 24 bits the unfiltered scan is undecided on every target below;
        # at 28 bits it decides on some of them
        xmax = 2 * 10**4
        undecided = 0
        for target in PREFILTER_TARGETS:
            exact = [r.x for r in enumerate_minimal(target, xmax)]
            for p in (24, 28):
                want = unfiltered_scan(target, xmax, p)
                got = _scan(target, xmax, p)
                if want is not None:
                    assert got == want
                else:
                    undecided += 1
                    if got is not None:
                        assert [r.x for r in got] == exact
            assert [r.x for r in enumerate_minimal(target, xmax, bits=24)] == exact
        assert undecided >= len(PREFILTER_TARGETS)


class ShiftedTarget:
    """Test-only target (1, sign*xi1 + shift, xi2) on the enclosures of `inner`.

    With sign -1 or a negative shift the xi1 enclosure is negative, so a1lo is
    too.  The records are those of `inner`: the same x0 and L, with
    x1 = sign*n1 + shift*x0.
    """

    def __init__(self, inner, sign, shift):
        self.inner, self.sign, self.shift = inner, sign, shift

    def enclosure(self, bits):
        e1, e2 = self.inner.enclosure(bits)
        if self.sign < 0:
            lo, hi = e1.lo, e1.hi
            e1 = CertifiedReal(Dyadic(-hi.man, hi.exp), Dyadic(-lo.man, lo.exp), e1.precision)
        m = Dyadic.make(self.shift)
        return CertifiedReal(e1.lo + m, e1.hi + m, e1.precision), e2

    def __repr__(self):
        return f"ShiftedTarget({self.inner!r}, {self.sign}, {self.shift})"


class IntegerXi1Target:
    """Test-only target (1, k, xi2) with xi1 exactly the integer k, so a1lo =
    k*2**p is a multiple of 2**p (0 when k = 0) at every p: the residues of
    x0*a1lo are all 0, and the records are those of xi2 alone."""

    def __init__(self, k, inner):
        self.k, self.inner = k, inner

    def enclosure(self, bits):
        k = Dyadic.make(self.k)
        return CertifiedReal(k, k, bits), self.inner.enclosure(bits)[1]

    def __repr__(self):
        return f"IntegerXi1Target({self.k}, {self.inner!r})"


class GridTarget:
    """Test-only target (1, n1*2**-q, n2*2**-q), exact on the grid 2**-q.  At
    p = q every enclosure has width 0, so slack = 1 and every rounding is
    decided, and over a few thousand x0 some residues x0*a1lo mod 2**p fall
    exactly on an end of the skip window."""

    def __init__(self, n1, n2, q):
        self.n1, self.n2, self.q = n1, n2, q

    def enclosure(self, bits):
        return tuple(
            CertifiedReal(Dyadic.make(n, -self.q), Dyadic.make(n, -self.q), self.q)
            for n in (self.n1, self.n2)
        )

    def __repr__(self):
        return f"GridTarget({self.n1}, {self.n2}, {self.q})"


SQRT_PAIRS_60 = [(a, b) for a in SQUAREFREE_60 for b in SQUAREFREE_60 if a != b]
EXTREMAL_POOL = [ExtremalTarget(b, c) for b, c in ((2, 3), (3, 5), (5, 7), (3, 2))]
FAKE_TARGETS = [
    ShiftedTarget(SqrtPairTarget(2, 3), -1, 0),
    ShiftedTarget(SqrtPairTarget(5, 7), 1, -4),
    ShiftedTarget(ExtremalTarget(2, 3), -1, 3),
    IntegerXi1Target(0, SqrtPairTarget(2, 3)),
    IntegerXi1Target(-3, SqrtPairTarget(2, 7)),
    IntegerXi1Target(5, SqrtPairTarget(11, 13)),
]
SCAN_TARGETS = st.one_of(
    st.sampled_from(SQRT_PAIRS_60).map(lambda ab: SqrtPairTarget(*ab)),
    st.sampled_from(EXTREMAL_POOL),
    st.sampled_from(FAKE_TARGETS),
)


def exact_records(target, xmax):
    """(x0, x1, x2) of the records, from the unfiltered scan at the first
    doubling of the default precision that decides it."""
    p = height_precision(xmax, 96)
    while (out := unfiltered_scan(target, xmax, p)) is None:
        p *= 2
    return [r.x for r in out]


def rounded_x0(monkeypatch, target, xmax, p):
    """The x0 that `_scan` passes to `nearest_integer`, in order, and its result."""
    (a1lo, _), _ = _scaled_enclosure(target, p)
    calls = []

    def counted(lo, hi, p):
        calls.append(lo)
        return nearest_integer(lo, hi, p)

    monkeypatch.setattr(minpoints, "nearest_integer", counted)
    out = _scan(target, xmax, p)
    return [v // a1lo for v in calls[::2]], out  # each x0 rounds x0*a1lo, then x0*a2lo


@pytest.fixture(params=sorted({1, 2, 3, 4, minpoints.BLOCK_LANES, 64}), ids=lambda k: f"lanes{k}")
def block_lanes(monkeypatch, request):
    """`minpoints.BLOCK_LANES`, which `_scan` reads, at 1 to 4 lanes, at the
    module's own width and at 64, so that blocks end on short scans, records
    and xmax, and hold several kept lanes and records."""
    monkeypatch.setattr(minpoints, "BLOCK_LANES", request.param)


@pytest.mark.usefixtures("block_lanes")
class TestRebasedSkip:
    """`_scan` skips x0 a block at a time, on residues re-based at each record
    and packed one lane per x0; these compare it with the scans written from
    their definitions."""

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        target=SCAN_TARGETS,
        xmax=st.integers(1, 3000),
        p=st.one_of(st.none(), st.integers(16, 40)),
    )
    @example(target=SqrtPairTarget(2, 3), xmax=1, p=None)
    @example(target=IntegerXi1Target(0, SqrtPairTarget(2, 3)), xmax=3000, p=None)
    @example(target=ShiftedTarget(SqrtPairTarget(2, 3), -1, 0), xmax=3000, p=20)
    @example(target=SqrtPairTarget(2, 3), xmax=2, p=None)  # fewer x0 than lanes
    @example(target=SqrtPairTarget(5, 7), xmax=2941, p=None)  # 1 mod 2, 3, 4, 5 and 6
    # the record at 34 follows the one at 22: on the last lane of a block at
    # 1, 2 and 3 lanes, and the block ends at xmax
    @example(target=SqrtPairTarget(2, 3), xmax=34, p=None)
    # at 6 and at 64 lanes the block that keeps 987 keeps 991: 987 sets no
    # record, 991 does
    @example(target=SqrtPairTarget(14, 37), xmax=1000, p=None)
    # the records at 89 and 93 lie in one block at 6 and at 64 lanes
    @example(target=SqrtPairTarget(14, 53), xmax=100, p=None)
    # the record at 991 is a kept lane past xmax in the last block at 6 and 64 lanes
    @example(target=SqrtPairTarget(14, 37), xmax=990, p=None)
    def test_equals_unfiltered_scan_where_it_decides(self, target, xmax, p):
        p = p or height_precision(xmax, 96)
        want = unfiltered_scan(target, xmax, p)
        got = _scan(target, xmax, p)
        if want is not None:
            assert got == want
        elif got is not None:
            assert all(r.L.precision == p for r in got)
            assert [r.x for r in got] == exact_records(target, xmax)

    @pytest.mark.parametrize("target", FAKE_TARGETS, ids=repr)
    def test_fake_targets_get_their_exact_records(self, target):
        xmax = 3000
        got = [r.x for r in enumerate_minimal(target, xmax)]
        if isinstance(target, ShiftedTarget):
            inner = [r.x for r in enumerate_minimal(target.inner, xmax)]
            want = [(x0, target.sign * x1 + target.shift * x0, x2) for x0, x1, x2 in inner]
        else:
            digits = 30
            scaled = (target.k * 10**digits, decimal_scaled_sqrt(target.inner.b, digits))
            want = brute_force_records(scaled, xmax, digits)
        assert got == want

    def test_records_at_one_and_at_xmax(self):
        target = SqrtPairTarget(2, 3)
        records = enumerate_minimal(target, 2000)
        for xmax in (1, records[1].X, records[-1].X):
            p = height_precision(xmax, 96)
            got = _scan(target, xmax, p)
            assert got == unfiltered_scan(target, xmax, p)
            assert got[0].X == 1 and got[-1].X == xmax

    def test_empty_window_skips_nothing(self, monkeypatch):
        # at 12 bits slack = xmax + 1 > 2**11, so span < 0 after every record
        # and every x0 up to the undecided one is rounded
        target = SqrtPairTarget(2, 3)
        xmax, p = 3000, 12
        (a1lo, a1hi), _ = _scaled_enclosure(target, p)
        assert xmax * (a1hi - a1lo) + 1 > 1 << (p - 1)
        visited, got = rounded_x0(monkeypatch, target, xmax, p)
        want, want_visited = reference_scan(target, xmax, p, skip=False)
        assert got == want
        assert visited == want_visited == list(range(1, len(visited) + 1))


@pytest.mark.usefixtures("block_lanes")
class TestSameCandidates:
    """`_scan` rounds exactly the x0 that the skip test on x0*a1lo mod 2**p keeps."""

    @pytest.mark.parametrize("target", PREFILTER_TARGETS, ids=repr)
    @pytest.mark.parametrize("bits", [None, 24, 28])
    def test_rounds_the_x0_that_the_direct_skip_keeps(self, monkeypatch, target, bits):
        xmax = 2 * 10**4
        p = bits or height_precision(xmax, 96)
        want, want_visited = reference_scan(target, xmax, p, skip=True)
        visited, got = rounded_x0(monkeypatch, target, xmax, p)
        assert got == want
        assert visited == want_visited
        assert len(visited) < xmax // 20

    @pytest.mark.parametrize("q", [12, 13, 17])
    def test_window_ends(self, monkeypatch, q):
        rng = random.Random(q)
        for _ in range(5):
            target = GridTarget(rng.randrange(1, 1 << q), rng.randrange(1, 1 << q), q)
            want, want_visited = reference_scan(target, 3000, q, skip=True)
            visited, got = rounded_x0(monkeypatch, target, 3000, q)
            assert got == want
            assert visited == want_visited


class TestRationalTargets:
    @pytest.mark.parametrize(
        "a,b", [(2, 8), (0, 2), (1, 2), (2, 1), (6, 24), (4, 9), (0, 0), (1, 1)]
    )
    def test_dependent_sqrt_target_rejected(self, a, b):
        with pytest.raises(DependentTargetError):
            SqrtPairTarget(a, b)

    @pytest.mark.parametrize("a,b,square", [(4, 3, "4"), (2, 9, "9"), (2, 8, "2*8")])
    def test_dependent_target_names_the_square(self, a, b, square):
        with pytest.raises(ValueError) as exc:
            SqrtPairTarget(a, b)
        assert str(exc.value) == (
            f"1, sqrt({a}) and sqrt({b}) are linearly dependent over Q ({square} is a square)"
        )

    def test_xmax_validation(self):
        with pytest.raises(ValueError):
            enumerate_minimal(SqrtPairTarget(2, 3), 0)

    @pytest.mark.parametrize("bits", [0, -3])
    def test_bits_below_one_rejected(self, bits):
        with pytest.raises(ValueError, match="^bits must be at least 1$"):
            enumerate_minimal(SqrtPairTarget(2, 3), 10, bits=bits)


class TestSqrtPairEnclosure:
    @pytest.mark.parametrize(
        "a,b", [(255, 2), (257, 3), (1000, 3), (10**6 + 1, 2), (10**12 + 1, 3)]
    )
    @pytest.mark.parametrize("bits", [1, 24, 96, 512])
    def test_widths_at_most_2_to_the_minus_bits(self, a, b, bits):
        for n, x in zip((a, b), SqrtPairTarget(a, b).enclosure(bits)):
            lo, hi = x.lo.as_fraction(), x.hi.as_fraction()
            assert hi - lo <= Fraction(1, 2**bits)
            assert lo**2 <= n <= hi**2


class TestExtremalTargetLimit:
    def test_tightest_enclosure_serves_smaller_requests(self, monkeypatch):
        calls = []

        def counted(seq, width):
            calls.append(width)
            return limit_point(seq, width)

        monkeypatch.setattr(targets, "limit_point", counted)
        target = ExtremalTarget(2, 3)
        enc = target.limit(128)
        assert enc == limit_point(seed_triple(2, 3), Fraction(1, 2**128))
        assert target.enclosure(96) == (enc.xi1, enc.xi2)
        assert target.limit(128) is enc and len(calls) == 1
        assert target.limit(256) != enc and calls == [Fraction(1, 2**128), Fraction(1, 2**256)]
        assert target.limit(200) is target.limit(256) and len(calls) == 2

    def test_request_past_the_cap_is_rejected(self, monkeypatch):
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "200")
        with pytest.raises(PrecisionCapError, match="needs 10000 bits, cap is 200"):
            ExtremalTarget(2, 3).limit(10_000)


class TestPrecisionCap:
    def test_first_pass_honors_the_cap(self, monkeypatch):
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "50")
        with pytest.raises(PrecisionCapError, match="needs 96 bits, cap is 50"):
            enumerate_minimal(SqrtPairTarget(2, 3), 10**4)


class TestHeightPrecision:
    """Both scans take their bits from `height_precision`: 96 to 102 over the
    benchmark's scan sizes, 512 at criterion 4's height 1e50."""

    @pytest.mark.parametrize(
        "xmax,bits",
        [(15_520, 96), (16_000, 96), (64_000, 96), (128_000, 98), (256_000, 100), (263_680, 102)],
    )
    def test_first_scan_pass(self, monkeypatch, xmax, bits):
        passes = []

        def first_pass(target, xmax, p):
            passes.append(p)
            return []

        monkeypatch.setattr(minpoints, "_scan", first_pass)
        assert enumerate_minimal(SqrtPairTarget(2, 3), xmax) == []
        assert passes == [bits]

    def test_records_from_sequence_at_criterion_4_height(self, monkeypatch):
        requests = []
        original = ExtremalTarget.enclosure

        def enclosure(target, bits):
            requests.append(bits)
            return original(target, bits)

        monkeypatch.setattr(ExtremalTarget, "enclosure", enclosure)
        records_from_sequence(ExtremalTarget(2, 3), 10**50)
        assert requests == [512]

    @pytest.mark.parametrize("b,c", [(2, 3), (3, 11)])
    def test_last_member_at_the_cap_keeps_a_tight_l(self, b, c):
        # members have L about X**-1, so the rule needs its full 2 bits(X):
        # 1.6 bits(X) + 64 would leave this L's enclosure containing 0
        target = ExtremalTarget(b, c)
        seq = extend(target.sequence, 10)
        records, _ = records_from_sequence(target, max_norm(seq.y(10)))
        assert records[-1].x == seq.y(10)
        lo, hi = (e.as_fraction() for e in (records[-1].L.lo, records[-1].L.hi))
        assert lo > 0 and (hi - lo) / lo < Fraction(1, 2**32)


class TestExponentReport:
    def test_two_records_single_hat(self):
        recs = enumerate_minimal(SqrtPairTarget(2, 3), 3)
        assert len(recs) >= 2
        rep = estimate_lambda(recs[:2])
        assert len(rep.lambda_hats) == 1

    def test_hats_in_unit_interval_for_sqrt_target(self):
        recs = enumerate_minimal(SqrtPairTarget(2, 3), 10**4)
        rep = estimate_lambda(recs)
        for i, h in rep.lambda_hats[2:]:
            assert 0 <= h <= 1.2  # early indices can overshoot; later ones settle
        assert 0 < rep.summary < 1
        assert rep.alpha == pytest.approx((2 * rep.summary - 1) / (1 - rep.summary))
        assert rep.theta == pytest.approx((1 - rep.summary) / rep.summary)

    @pytest.mark.parametrize(
        "n_records,next_x",
        [(0, None), (0, 1), (1, None)],
        ids=["none", "next-x-only", "one-record"],
    )
    def test_fewer_than_two_heights_is_refused(self, n_records, next_x):
        # records_from_sequence at a cap below 1 gives no record, and
        # estimate_lambda([], next_X=...) reached min() of no estimate
        recs = enumerate_minimal(SqrtPairTarget(2, 3), 100)[:n_records]
        with pytest.raises(ValueError, match="^need at least two records$"):
            estimate_lambda(recs, next_X=next_x)

    @pytest.mark.parametrize("n_records,below", [(1, 0), (2, 0), (2, 1)])
    def test_next_x_at_or_below_the_last_height_is_refused(self, n_records, below):
        # next_X = 1 after the record X = 1 divided by log 1 = 0
        recs = enumerate_minimal(SqrtPairTarget(2, 3), 100)[:n_records]
        next_x = recs[-1].X - below
        with pytest.raises(ValueError, match=f"^next_X {next_x} must exceed the last record's X "):
            estimate_lambda(recs, next_X=next_x)

    def test_records_from_sequence_heights(self):
        recs, next_x = records_from_sequence(ExtremalTarget(2, 3), 10**20)
        assert [r.x for r in recs[:3]] == [(1, 0, 0), (3, 2, 0), (198, 140, 1)]
        assert next_x > recs[-1].X
        rep = estimate_lambda(recs, next_X=next_x)
        assert len(rep.lambda_hats) == len(recs)

    def test_records_from_sequence_equal_the_scan_records(self):
        recs, _ = records_from_sequence(ExtremalTarget(2, 3), 10**5)
        scanned = {r.x: r for r in enumerate_minimal(ExtremalTarget(2, 3), 10**5, bits=512)}
        shared = [r for r in recs if r.x in scanned]
        assert len(shared) == 3
        for r in shared:
            assert r == scanned[r.x]

    def test_records_from_sequence_at_height_1e200(self):
        recs, next_x = records_from_sequence(ExtremalTarget(2, 3), 10**200)
        assert all(r.L.lo.man > 0 for r in recs)
        rep = estimate_lambda(recs, next_X=next_x)
        assert 0 < rep.summary < 1


class TestIndependence:
    def test_collinear_triple_excluded(self):
        recs = enumerate_minimal(SqrtPairTarget(2, 3), 100)
        fake = [recs[0], recs[0], recs[0]]
        assert independence_indices(fake) == []

    def test_determinant_bound(self):
        recs = enumerate_minimal(SqrtPairTarget(2, 3), 10**4)
        for i in independence_indices(recs):
            d = abs(det3(recs[i - 1].x, recs[i].x, recs[i + 1].x))
            bound = (
                6
                * recs[i + 1].X
                * recs[i].L.hi.as_fraction()
                * recs[i - 1].L.hi.as_fraction()
            )
            assert d <= bound


def integer_multiple_of(w, y) -> int | None:
    """k with w == k * y, or None: the oracle of `rigidity_check`'s test."""
    if any(cross(w, y)):
        return None
    for a, b in zip(w, y):
        if b != 0:
            if a % b:
                return None
            k = a // b
            return k if all(x == k * z for x, z in zip(w, y)) else None
    return None


class TestRigidity:
    def test_insufficient_data(self):
        recs = enumerate_minimal(SqrtPairTarget(2, 3), 50)
        phi = TernaryQuadraticForm(1, -2, -3)
        rep = rigidity_check(phi, recs[:4])
        assert rep.insufficient

    def test_integer_multiple_detection(self):
        assert integer_multiple_of((6, 9, 12), (2, 3, 4)) == 3
        assert integer_multiple_of((6, 9, 13), (2, 3, 4)) is None
        assert integer_multiple_of((3, 3, 4), (2, 3, 4)) is None

    def test_verdicts_equal_the_integer_multiple_oracle(self):
        # records are primitive, so psi(y_k, y_{k-2}) parallel to y_{k+1} is
        # an integer multiple of it; the scan records at 1e6 give failures,
        # the members restated as records pass every check
        cases = [
            (target.sequence.form, enumerate_minimal(target, 10**6)) for target in EXTREMAL_POOL
        ] + [
            (target.sequence.form, records_from_sequence(target, 10**100)[0])
            for target in EXTREMAL_POOL
        ] + [
            (TernaryQuadraticForm(1, -a, -b), enumerate_minimal(SqrtPairTarget(a, b), 10**5))
            for a, b in ((2, 3), (5, 7), (11, 13))
        ]
        seen = set()
        for phi, recs in cases:
            rep = rigidity_check(phi, recs)
            ys = [recs[i].x for i in rep.independence_set]
            want = [
                (k, integer_multiple_of(psi(phi, ys[k], ys[k - 2]), ys[k + 1]) is not None)
                for k in range(2, len(ys) - 1)
            ]
            assert rep.checks == want
            seen |= {ok for _, ok in want}
        assert seen == {True, False}

    def test_control_target_shows_failures(self):
        recs = enumerate_minimal(SqrtPairTarget(2, 3), 10**5)
        phi = TernaryQuadraticForm(1, -2, -3)
        rep = rigidity_check(phi, recs)
        assert not rep.insufficient
        assert any(not ok for _, ok in rep.checks)


class TestFormValueBand:
    def test_extremal_form_values(self):
        # |phi(x_i)| >= 1 past the first record, and |phi(x_i)| <= C * X_i * L_i
        recs = enumerate_minimal(ExtremalTarget(2, 3), 10**4)
        phi = TernaryQuadraticForm(1, -2, -3)
        for r in recs[1:]:
            v = abs(phi(r.x))
            assert v >= 1
            assert v <= 40 * r.X * r.L.hi.as_fraction() + 10
