"""Continued fractions of sqrt(b) and Pell solutions against brute-force oracles."""
import json
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conic_approx import pell
from conic_approx.arith import is_squarefree
from conic_approx.cli import main
from conic_approx.pell import (
    PellSolution,
    cf_expansion,
    find_seed_pair,
    fundamental_solution,
    next_solution,
)


def cf_period(b: int) -> tuple[int, list[int]]:
    """(a0, periodic part) of the expansion of sqrt(b), read off `cf_expansion`:
    the period ends at the first partial quotient 2*a0."""
    expansion = cf_expansion(b, 4 * b)  # the period is shorter than 2b
    a0 = expansion[0]
    return a0, expansion[1 : expansion.index(2 * a0) + 1]


def brute_force_fundamental(b: int, n_limit: int = 10**6):
    """Smallest n with b*n^2 + 1 a perfect square."""
    for n in range(1, n_limit + 1):
        m2 = b * n * n + 1
        m = isqrt(m2)
        if m * m == m2:
            return m, n
    raise AssertionError(f"no solution below {n_limit}")


def convergent_fundamental(b: int) -> tuple[int, int]:
    """The first convergent (h, k) of sqrt(b) with h^2 - b*k^2 = 1, the norm
    tested at every convergent: its cost grows about as the cube of the
    period, so it serves only on short periods."""
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    for a, _ in pell._cf_steps(b):
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if h * h - b * k * k == 1:
            return h, k


SQUAREFREE_SMALL = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 31]


class TestContinuedFraction:
    def test_sqrt2(self):
        assert cf_expansion(2, 6) == [1, 2, 2, 2, 2, 2]

    def test_sqrt3(self):
        assert cf_expansion(3, 6) == [1, 1, 2, 1, 2, 1]

    def test_sqrt7(self):
        assert cf_expansion(7, 6) == [2, 1, 1, 1, 4, 1]

    def test_perfect_square_rejected(self):
        with pytest.raises(ValueError):
            cf_expansion(9, 4)

    def test_small_b_rejected(self):
        with pytest.raises(ValueError):
            cf_expansion(1, 4)

    @pytest.mark.parametrize("b", SQUAREFREE_SMALL)
    def test_convergents_approximate_sqrt(self, b):
        # h/k from the expansion must satisfy |h^2 - b k^2| small and alternate sides
        terms = cf_expansion(b, 12)
        h_prev, h = 1, terms[0]
        k_prev, k = 0, 1
        for a in terms[1:]:
            h_prev, h = h, a * h + h_prev
            k_prev, k = k, a * k + k_prev
            # convergent error bound: |sqrt(b) - h/k| < 1/k^2, i.e. |h^2 - b k^2| < 2*sqrt(b)+1
            assert abs(h * h - b * k * k) <= 2 * isqrt(b) + 1

    @pytest.mark.parametrize("b,period", [(2, 1), (3, 2), (7, 4), (13, 5), (19, 6)])
    def test_period_lengths(self, b, period):
        a0, per = cf_period(b)
        assert a0 == isqrt(b)
        assert len(per) == period
        assert per[-1] == 2 * a0


class TestFundamentalSolution:
    @pytest.mark.parametrize(
        "b,expected",
        [(2, (3, 2)), (3, (2, 1)), (5, (9, 4)), (6, (5, 2)), (7, (8, 3)), (10, (19, 6)), (13, (649, 180))],
    )
    def test_known_table(self, b, expected):
        s = fundamental_solution(b)
        assert (s.m, s.n) == expected

    @pytest.mark.parametrize("b", SQUAREFREE_SMALL)
    def test_matches_brute_force(self, b):
        s = fundamental_solution(b)
        assert (s.m, s.n) == brute_force_fundamental(b)

    def test_matches_convergent_oracle_up_to_3000(self):
        # periods of both parities: the odd ones are squared
        for b in filter(is_squarefree, range(2, 3001)):
            s = fundamental_solution(b)
            assert (s.m, s.n) == convergent_fundamental(b), b

    def test_matches_convergent_oracle_near_1e8(self):
        # period 693, a 2483-bit solution
        s = fundamental_solution(99999989)
        assert (s.m, s.n) == convergent_fundamental(99999989)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fundamental_solution(4)
        with pytest.raises(ValueError):
            fundamental_solution(1)

    def test_solution_invariant_enforced(self):
        with pytest.raises(ValueError, match=r"\(3, 3\) does not solve x\^2 - 2 y\^2 = 1"):
            PellSolution(3, 3, 2)

    @pytest.mark.parametrize("m,n", [(1, 0), (-3, 2), (3, -2)])
    def test_non_positive_solution_rejected(self, m, n):
        with pytest.raises(ValueError, match="positive solution required"):
            PellSolution(m, n, 2)


class TestSuccessor:
    def test_chain_b2(self):
        s = fundamental_solution(2)
        s = next_solution(s)
        assert (s.m, s.n) == (17, 12)
        s = next_solution(s)
        assert (s.m, s.n) == (99, 70)

    def test_chain_b3(self):
        s = next_solution(fundamental_solution(3))
        assert (s.m, s.n) == (7, 4)

    @pytest.mark.parametrize("b", SQUAREFREE_SMALL)
    def test_strictly_increasing_and_valid(self, b):
        prev = fundamental_solution(b)
        for _ in range(6):
            cur = next_solution(prev)
            assert cur.m > prev.m and cur.n > prev.n
            assert cur.m**2 - b * cur.n**2 == 1
            prev = cur


class TestSeedPair:
    def test_b2(self):
        first, second = find_seed_pair(2)
        assert (first.m, first.n) == (3, 2)
        assert (second.m, second.n) == (99, 70)
        assert 3 < 3 * 99 - 2 * 2 * 70 < 99  # middle value 17

    def test_b2_rejects_17_12(self):
        # the candidate (17,12) fails strictness: 3*17 - 2*2*12 = 3 = m
        assert 3 * 17 - 2 * 2 * 12 == 3

    @pytest.mark.parametrize("b", SQUAREFREE_SMALL)
    def test_double_inequality_strict(self, b):
        first, second = find_seed_pair(b)
        mid = first.m * second.m - b * first.n * second.n
        assert first.m < mid < second.m

    @pytest.mark.parametrize("b", SQUAREFREE_SMALL)
    def test_second_is_the_third_solution(self, b):
        # the middle value is the second solution, so the first admissible
        # candidate is the third; `pell` checks that many against the digit limit
        first, second = find_seed_pair(b)
        assert second == next_solution(next_solution(first, first), first)

    @pytest.mark.parametrize("b", SQUAREFREE_SMALL)
    def test_second_is_smallest_admissible(self, b):
        first, second = find_seed_pair(b)
        s = first
        while s.m < second.m:
            if s.m > first.m:
                mid = first.m * s.m - b * first.n * s.n
                assert not (first.m < mid < s.m)
            s = next_solution(s)


class TestFundamentalComputedOnce:
    """`find_seed_pair` and `pell` compute the fundamental solution once,
    one walk over the period of sqrt(b) (seconds for some b near 2^32), and
    multiply by it instead of computing it again for each power."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, real = [], pell.fundamental_solution

        def counting(b):
            calls.append(b)
            return real(b)

        monkeypatch.setattr(pell, "fundamental_solution", counting)
        return calls

    @pytest.mark.parametrize("b", SQUAREFREE_SMALL)
    def test_solutions(self, b, calls, capsys):
        # the solutions `pell` lists are the powers of one fundamental solution
        assert main(["pell", "--b", str(b), "--count", "8"]) == 0
        assert calls == [b]
        got = json.loads(capsys.readouterr().out)["solutions"]
        f = s = fundamental_solution(b)
        for want in got:
            assert (want["m"], want["n"]) == (str(s.m), str(s.n))
            s = next_solution(s, f)
        assert len(got) == 8

    @pytest.mark.parametrize("b", SQUAREFREE_SMALL)
    def test_find_seed_pair(self, b, calls):
        find_seed_pair(b)
        assert calls == [b]

    def test_pell_command(self, calls, capsys):
        # the seed pair's first solution is the fundamental one, and the
        # listed solutions are its powers
        assert main(["pell", "--b", "109", "--count", "5"]) == 0
        assert calls == [109]
        out = capsys.readouterr().out
        assert '"m": "158070671986249"' in out


@given(st.integers(2, 400).filter(lambda b: isqrt(b) ** 2 != b))
def test_cf_expansion_is_periodic_after_head(b):
    a0, period = cf_period(b)
    expansion = cf_expansion(b, 1 + 3 * len(period))
    assert expansion[0] == a0
    assert expansion[1:] == period * 3
