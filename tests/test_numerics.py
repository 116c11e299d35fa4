"""Certified values on dyadic grids: square roots on the grid, upward-rounded
ratios, and the rounding primitives, height rule and cap check that every
certified computation uses."""
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conic_approx.numerics import (
    DomainError,
    PrecisionCapError,
    check_cap,
    height_precision,
    nearest_integer,
    ratio_up,
    scale_outward,
    sqrt_outward,
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


class TestSqrtOutward:
    @given(
        st.one_of(st.integers(0, 2**300), st.integers(0, 2**150).map(lambda k: k * k)),
        st.integers(0, 300),
    )
    @settings(max_examples=500)
    @example(0, 0)
    @example(2, 0)
    @example(4, 7)
    @example(2**300, 0)
    def test_floor_and_ceiling_of_the_scaled_root(self, n, p):
        lo, hi = sqrt_outward(n, p)
        m = n << 2 * p
        assert lo * lo <= m < (lo + 1) ** 2
        assert hi == (lo if lo * lo == m else lo + 1)

    def test_sqrt2_against_the_long_division_oracle(self):
        lo, hi = sqrt_outward(2, 64)
        assert hi - lo == 1
        assert Fraction(lo, 2**64) <= SQRT2_80 <= Fraction(hi, 2**64)

    def test_zero(self):
        assert sqrt_outward(0, 64) == (0, 0)

    def test_refinement_nests(self):
        prev_lo, prev_hi, prev_p = *sqrt_outward(2, 32), 32
        for p in (64, 128, 256):
            lo, hi = sqrt_outward(2, p)
            assert prev_lo << (p - prev_p) <= lo and hi <= prev_hi << (p - prev_p)
            prev_lo, prev_hi, prev_p = lo, hi, p

    def test_perfect_square_is_exact(self):
        assert sqrt_outward(49, 10) == (7 << 10, 7 << 10)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sqrt_outward(-1, 8)


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


class TestCheckCap:
    def test_at_the_cap_passes_and_past_it_names_the_bits(self, monkeypatch):
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "100")
        check_cap(100)
        with pytest.raises(PrecisionCapError) as err:
            check_cap(101)
        assert str(err.value) == "needs 101 bits, cap is 100"
