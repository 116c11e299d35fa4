"""Certified interval arithmetic: soundness, refinement, upward-rounded ratios,
and the rounding primitives and height rule that every certified rounding uses."""
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conic_approx.numerics import (
    CertifiedReal,
    DomainError,
    height_precision,
    interval_sqrt,
    nearest_integer,
    ratio_up,
    scale_outward,
)

import pytest

# 80 decimal digits of sqrt(2), computed by the long-division (digit-by-digit)
# method in test_oracle_sqrt2_longdivision below
SQRT2_80 = Fraction(
    14142135623730950488016887242096980785696718753769480731766797379907324784621070,
    10**79,
)


def longdiv_sqrt_digits(n: int, digits: int) -> int:
    """Integer floor(sqrt(n) * 10**digits) by the schoolbook digit method."""
    remainder = 0
    root = 0
    pairs = []
    s = str(n)
    if len(s) % 2:
        s = "0" + s
    for j in range(0, len(s), 2):
        pairs.append(int(s[j : j + 2]))
    pairs.extend([0] * digits)
    for p in pairs:
        remainder = remainder * 100 + p
        d = 9
        while (20 * root + d) * d > remainder:
            d -= 1
        remainder -= (20 * root + d) * d
        root = root * 10 + d
    return root


def test_oracle_sqrt2_longdivision():
    assert Fraction(longdiv_sqrt_digits(2, 79), 10**79) == SQRT2_80


class TestIntervalSqrt:
    def test_perfect_square_exact(self):
        x = CertifiedReal.from_int(4)
        r = interval_sqrt(x)
        assert r.contains(2)
        assert r.width().as_fraction() == 0

    def test_sqrt2_width_and_oracle(self):
        r = interval_sqrt(CertifiedReal.from_int(2, 64))
        assert r.width().as_fraction() <= Fraction(1, 2**60)
        assert r.contains(SQRT2_80)

    def test_zero(self):
        r = interval_sqrt(CertifiedReal.from_int(0))
        assert r.lo.as_fraction() == 0 and r.hi.as_fraction() == 0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            interval_sqrt(CertifiedReal.from_int(-1))

    @given(st.fractions(min_value=0, max_value=10**6), st.integers(32, 256))
    def test_sqrt_contains_exact_square_root(self, q, bits):
        r = interval_sqrt(CertifiedReal.from_fraction(q, bits))
        # r*r must enclose q
        sq = r * r
        assert sq.lo.as_fraction() <= q <= sq.hi.as_fraction()

    def test_monotone_refinement(self):
        prev = interval_sqrt(CertifiedReal.from_int(2, 32))
        for bits in (64, 128, 256):
            cur = interval_sqrt(CertifiedReal.from_int(2, bits))
            assert cur.width().as_fraction() <= prev.width().as_fraction()
            prev = cur


class TestRatioUp:
    def test_zero(self):
        assert ratio_up(0, 7).as_fraction() == 0

    def test_small_ratios_are_exact_when_dyadic(self):
        assert ratio_up(3, 4).as_fraction() == Fraction(3, 4)
        assert ratio_up(1, 2**300).as_fraction() == Fraction(1, 2**300)

    @pytest.mark.parametrize("num,den", [(1, 0), (-1, 3), (1, -3)])
    def test_bad_arguments(self, num, den):
        with pytest.raises(ValueError):
            ratio_up(num, den)

    @given(st.integers(0, 2**400), st.integers(1, 2**400))
    @settings(max_examples=500)
    def test_rounds_up_by_less_than_2_to_the_minus_61(self, num, den):
        d = ratio_up(num, den)
        exact = Fraction(num, den)
        assert exact <= d.as_fraction() <= exact * (1 + Fraction(1, 2**61))
        assert abs(d.man).bit_length() <= 65


exprs = st.recursive(
    st.fractions(min_value=-100, max_value=100),
    lambda children: st.tuples(st.sampled_from("+-*"), children, children),
    max_leaves=12,
)


def _eval_exact(e):
    if not isinstance(e, tuple):
        return e
    op, a, b = e
    a, b = _eval_exact(a), _eval_exact(b)
    return a + b if op == "+" else a - b if op == "-" else a * b


def _eval_interval(e, bits):
    if not isinstance(e, tuple):
        return CertifiedReal.from_fraction(e, bits)
    op, a, b = e
    a, b = _eval_interval(a, bits), _eval_interval(b, bits)
    return a + b if op == "+" else a - b if op == "-" else a * b


class TestEnclosureSoundness:
    @given(exprs, st.integers(16, 128))
    @settings(max_examples=200)
    def test_exact_value_inside_interval(self, e, bits):
        exact = _eval_exact(e)
        enc = _eval_interval(e, bits)
        assert enc.lo.as_fraction() <= exact <= enc.hi.as_fraction()

    @given(exprs, st.integers(16, 96))
    @settings(max_examples=100)
    def test_doubling_precision_never_widens(self, e, bits):
        w1 = _eval_interval(e, bits).width().as_fraction()
        w2 = _eval_interval(e, 2 * bits).width().as_fraction()
        assert w2 <= w1

    @given(st.fractions(min_value=-1000, max_value=1000), st.integers(-1000, 1000))
    def test_mul_int_exact(self, q, k):
        enc = CertifiedReal.from_fraction(q, 64).mul_int(k)
        assert enc.lo.as_fraction() <= k * q <= enc.hi.as_fraction()


def signed_ints(max_bits: int):
    """Integers of every size up to max_bits bits, of both signs."""
    return st.integers(0, max_bits).flatmap(lambda b: st.integers(-(1 << b), 1 << b))


def positive_ints(max_bits: int):
    return st.integers(1, max_bits).flatmap(lambda b: st.integers(1, 1 << b))


class TestScaleOutward:
    @given(
        signed_ints(10_000),
        st.integers(-12_000, 12_000),
        st.one_of(st.just(1), positive_ints(10_000)),
    )
    @settings(max_examples=300, deadline=None)
    @example(7, 3, 1)
    @example(-7, 3, 1)
    @example(7, -2, 1)
    @example(-7, -2, 1)
    @example(-(2**9_999 + 1), -9_000, 1)
    @example(7, 3, 5)
    @example(-7, 3, 5)
    @example(7, -2, 5)
    @example(-7, -2, 5)
    @example(2**9_999 + 1, 5_000, 3**6_000)
    @example(-(2**9_999 + 1), -5_000, 3**6_000)
    def test_equals_exact_floor_and_ceiling(self, num, shift, den):
        exact = Fraction(num, den) * Fraction(2) ** shift
        assert scale_outward(num, shift, den) == (math.floor(exact), math.ceil(exact))


def round_half_up(v: int, p: int) -> int:
    return math.floor(Fraction(v, 2**p) + Fraction(1, 2))


class TestNearestInteger:
    @given(signed_ints(200), st.integers(0, 2**12), st.integers(1, 80))
    @settings(max_examples=500)
    @example(-1, 0, 1)  # -1/2 rounds up to 0
    @example(1, 0, 1)  # 1/2 rounds up to 1
    @example(-1, 2, 1)  # [-1/2, 1/2] reaches 0 and 1
    @example(3 * 2**9, 2**10 - 1, 10)  # [3/2, 5/2) all round to 2
    @example(3 * 2**9, 2**10, 10)  # [3/2, 5/2] reaches the tie at 5/2
    def test_returns_n_exactly_when_both_ends_round_to_n(self, lo, width, p):
        hi = lo + width
        n_lo, n_hi = round_half_up(lo, p), round_half_up(hi, p)
        assert nearest_integer(lo, hi, p) == (n_lo if n_lo == n_hi else None)

    @pytest.mark.parametrize("n", [-3, 0, 5])
    @pytest.mark.parametrize("p", [1, 7, 64])
    def test_ties_round_up(self, n, p):
        half = 1 << (p - 1)
        tie_below, tie_above = (n << p) - half, (n << p) + half  # n - 1/2, n + 1/2
        assert nearest_integer(tie_below, tie_below, p) == n
        assert nearest_integer(tie_below, tie_above - 1, p) == n
        assert nearest_integer(tie_above, tie_above, p) == n + 1
        assert nearest_integer(tie_below - 1, tie_below, p) is None
        assert nearest_integer(tie_below, tie_above, p) is None


class TestHeightPrecision:
    @pytest.mark.parametrize(
        "height,floor,bits",
        [(1, 96, 96), (2**16 - 1, 96, 96), (2**16, 96, 98), (10**50, 512, 512), (2**224, 512, 514)],
    )
    def test_two_bits_per_height_bit_plus_64_over_a_floor(self, height, floor, bits):
        assert height_precision(height, floor) == bits
