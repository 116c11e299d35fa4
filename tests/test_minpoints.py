"""Minimal-point enumeration against brute force, exponent reports, rigidity."""
import math
import random
from fractions import Fraction
from math import isqrt

import pytest

from conic_approx import minpoints, targets
from conic_approx.extremal import extend, limit_point, seed_triple
from conic_approx.minpoints import (
    RationalTargetError,
    _abs_interval,
    _scan,
    enumerate_minimal,
    estimate_lambda,
    independence_indices,
    integer_multiple_of,
    records_from_sequence,
    rigidity_check,
)
from conic_approx.numerics import PrecisionCapError, height_precision, nearest_integer, scale_outward
from conic_approx.quadform import TernaryQuadraticForm, det3
from conic_approx.targets import (
    DependentTargetError,
    ExtremalTarget,
    RationalTarget,
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


def unfiltered_scan(target, xmax, p):
    """The scan without the first-coordinate skip: every x0 is rounded and compared."""
    (a1lo, a1hi), (a2lo, a2hi) = (
        (scale_outward(e.lo.man, e.lo.exp + p)[0], scale_outward(e.hi.man, e.hi.exp + p)[1])
        for e in target.enclosure(p)
    )
    records = []
    best = None
    for x0 in range(1, xmax + 1):
        v1lo, v1hi = x0 * a1lo, x0 * a1hi
        v2lo, v2hi = x0 * a2lo, x0 * a2hi
        n1 = nearest_integer(v1lo, v1hi, p)
        if n1 is None:
            return None
        n2 = nearest_integer(v2lo, v2hi, p)
        if n2 is None:
            return None
        d1 = (v1lo - (n1 << p), v1hi - (n1 << p))
        d2 = (v2lo - (n2 << p), v2hi - (n2 << p))
        e1i = _abs_interval(*d1)
        e2i = _abs_interval(*d2)
        li = (max(e1i[0], e2i[0]), max(e1i[1], e2i[1]))
        if best is None or li[1] < best[0]:
            best = li
            records.append((x0, n1, n2, li, d1, d2))
        elif li[0] < best[1]:
            return None
    return records, p


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
                        assert [r[:3] for r in got[0]] == exact
            assert [r.x for r in enumerate_minimal(target, xmax, bits=24)] == exact
        assert undecided >= len(PREFILTER_TARGETS)


class TestRationalTargets:
    def test_rational_point_detected(self):
        with pytest.raises(RationalTargetError) as ei:
            enumerate_minimal(RationalTarget(Fraction(1, 2), Fraction(1, 3)), 10)
        assert ei.value.point == (6, 3, 2)

    def test_square_sqrt_target_is_rational(self):
        with pytest.raises(RationalTargetError):
            enumerate_minimal(SqrtPairTarget(4, 9), 10)

    @pytest.mark.parametrize("a,b", [(2, 8), (0, 2), (1, 2), (2, 1), (6, 24)])
    def test_dependent_sqrt_target_rejected(self, a, b):
        with pytest.raises(DependentTargetError):
            SqrtPairTarget(a, b)

    def test_xmax_validation(self):
        with pytest.raises(ValueError):
            enumerate_minimal(SqrtPairTarget(2, 3), 0)

    def test_half_integer_ties_round_to_even(self):
        recs = enumerate_minimal(RationalTarget(Fraction(1, 2), Fraction(3, 2)), 1)
        assert recs[0].x == (1, 0, 2)


def on_the_grid(x, bits: int, q: Fraction) -> bool:
    """x has both endpoints on the grid 2**-bits, contains q and is at most
    2**-bits wide."""
    lo, hi = (e.as_fraction() * 2**bits for e in (x.lo, x.hi))
    return lo.denominator == hi.denominator == 1 and x.contains(q) and hi - lo <= 1


class TestRationalEnclosure:
    """Rational values round to the grid 2**-bits itself, whatever their
    denominators."""

    @pytest.mark.parametrize(
        "xi1,xi2",
        [(Fraction(1, 3), Fraction(22, 7)), (Fraction(-5, 3**37), Fraction(2**70 + 1, 2**69)), (Fraction(1, 2), Fraction(3))],
        ids=["small", "large", "dyadic"],
    )
    @pytest.mark.parametrize("bits", [1, 24, 96, 512])
    def test_target_enclosure(self, xi1, xi2, bits):
        for q, x in zip((xi1, xi2), RationalTarget(xi1, xi2).enclosure(bits)):
            assert x.precision == bits
            assert on_the_grid(x, bits, q)

    def test_records(self):
        # sqrt(2) and sqrt(3) to about 2^-64, with denominators 3^40 and 7^23
        xi1, xi2 = Fraction(isqrt(2 * 3**80), 3**40), Fraction(isqrt(3 * 7**46), 7**23)
        recs = enumerate_minimal(RationalTarget(xi1, xi2), 1000)
        assert len(recs) >= 5
        for r in recs:
            x0, x1, x2 = r.x
            L = max(abs(x0 * xi1 - x1), abs(x0 * xi2 - x2))
            assert on_the_grid(r.L, 96, L)
            assert on_the_grid(r.delta[0], 96, x1 - x0 * xi1)
            assert on_the_grid(r.delta[1], 96, x2 - x0 * xi2)


class TestSqrtPairEnclosure:
    @pytest.mark.parametrize(
        "a,b", [(255, 2), (256, 9), (1000, 3), (10**6 + 1, 2), (10**12 + 1, 3)]
    )
    @pytest.mark.parametrize("bits", [1, 24, 96, 512])
    def test_widths_at_most_2_to_the_minus_bits(self, a, b, bits):
        for n, x in zip((a, b), SqrtPairTarget(a, b).enclosure(bits)):
            assert x.width().as_fraction() <= Fraction(1, 2**bits)
            assert x.lo.as_fraction() ** 2 <= n <= x.hi.as_fraction() ** 2


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
            return [], p

        monkeypatch.setattr(minpoints, "_scan", first_pass)
        assert enumerate_minimal(SqrtPairTarget(2, 3), xmax) == []
        assert passes == [bits]

    def test_records_from_sequence_at_criterion_4_height(self, monkeypatch):
        target = ExtremalTarget(2, 3)
        requests = []

        def enclosure(bits):
            requests.append(bits)
            return ExtremalTarget.enclosure(target, bits)

        monkeypatch.setattr(target, "enclosure", enclosure)
        records_from_sequence(seed_triple(2, 3), target, 10**50)
        assert requests == [512]


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

    def test_records_from_sequence_heights(self):
        seq = seed_triple(2, 3)
        recs, next_x = records_from_sequence(seq, ExtremalTarget(2, 3), 10**20)
        assert [r.x for r in recs[:3]] == [(1, 0, 0), (3, 2, 0), (198, 140, 1)]
        assert next_x > recs[-1].X
        rep = estimate_lambda(recs, next_X=next_x)
        assert len(rep.lambda_hats) == len(recs)

    def test_records_from_sequence_equal_the_scan_records(self):
        recs, _ = records_from_sequence(seed_triple(2, 3), ExtremalTarget(2, 3), 10**5)
        scanned = {r.x: r for r in enumerate_minimal(ExtremalTarget(2, 3), 10**5, bits=512)}
        shared = [r for r in recs if r.x in scanned]
        assert len(shared) == 3
        for r in shared:
            assert (r.L, r.delta) == (scanned[r.x].L, scanned[r.x].delta)

    def test_records_from_sequence_at_height_1e200(self):
        seq = seed_triple(2, 3)
        recs, next_x = records_from_sequence(seq, ExtremalTarget(2, 3), 10**200)
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
