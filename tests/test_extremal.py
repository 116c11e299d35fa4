"""Seeded sequences on the conic: recurrences, growth, limit-point enclosures."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_approx import extremal
from conic_approx.extremal import (
    IDENTITIES,
    ExtremalSequence,
    InvariantViolation,
    UnsupportedConstruction,
    Window,
    extend,
    growth_ratios,
    limit_point,
    proj_dist_exact,
    seed_triple,
    tails_equal,
    verify_no_small_relation,
)
from conic_approx.numerics import PrecisionCapError
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


class TestExtend:
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
        # the limit lies on the conic: 2 xi1^2 + 3 xi2^2 = 1
        v = enc.xi1 * enc.xi1
        w = enc.xi2 * enc.xi2
        total = v.mul_int(2) + w.mul_int(3)
        assert total.contains(1)

    def test_cap_message_names_the_bits(self, monkeypatch):
        # 2**-2000 underflows a float; the message must not print width 0
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "100")
        with pytest.raises(PrecisionCapError) as err:
            limit_point(seed_triple(2, 3), Fraction(1, 2**2000))
        assert str(err.value) == "target width needs 2009 bits, cap is 100"

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


class TestProjDist:
    def test_identical(self):
        assert proj_dist_exact((3, 1, 4), (3, 1, 4)) == 0

    def test_orthonormal(self):
        assert proj_dist_exact((1, 0, 0), (0, 1, 0)) == 1

    def test_example(self):
        assert proj_dist_exact((1, 0, 0), (1, 1, 0)) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            proj_dist_exact((0, 0, 0), (1, 0, 0))

    vec = st.tuples(*[st.integers(-50, 50)] * 3).filter(any)

    @given(vec, vec, vec)
    @settings(max_examples=300)
    def test_quasi_triangle_inequality(self, x, y, z):
        assert proj_dist_exact(x, z) <= proj_dist_exact(x, y) + 2 * proj_dist_exact(y, z)

    @given(vec, vec)
    def test_symmetric_and_scale_invariant(self, x, y):
        assert proj_dist_exact(x, y) == proj_dist_exact(y, x)
        assert proj_dist_exact(tuple(3 * c for c in x), y) == proj_dist_exact(x, y)
