"""Continued fractions of sqrt(b) and solutions of x^2 - b*y^2 = 1."""
from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from math import isqrt

from .arith import FACTOR_BITS, is_square, is_squarefree
from .records import FrozenRecord, set_field


class PellSolution(FrozenRecord):
    """A positive solution (m, n) of m^2 - b*n^2 = 1."""

    __slots__ = ("m", "n", "b")

    def __init__(self, m: int, n: int, b: int) -> None:
        if m <= 0 or n <= 0:
            raise ValueError("positive solution required")
        if m * m - b * n * n != 1:
            raise ValueError(f"({m}, {n}) does not solve x^2 - {b} y^2 = 1")
        set_field(self, "m", m)
        set_field(self, "n", n)
        set_field(self, "b", b)


def _check_radicand(b: int) -> None:
    if b < 2:
        raise ValueError("radicand must be at least 2")
    if b >= 1 << FACTOR_BITS:
        raise ValueError(f"radicand must be below 2^{FACTOR_BITS}")
    if is_square(b):
        raise ValueError(f"{b} is a perfect square")


def _cf_steps(b: int) -> Iterator[int]:
    """Partial quotients of sqrt(b), starting with a0 = floor(sqrt(b))."""
    a0 = isqrt(b)
    yield a0
    p, q = a0, b - a0 * a0
    while True:
        a = (a0 + p) // q
        yield a
        p = a * q - p
        q = (b - p * p) // q


def cf_expansion(b: int, terms: int) -> list[int]:
    """First `terms` partial quotients of the periodic expansion of sqrt(b)."""
    _check_radicand(b)
    if terms <= 0:
        raise ValueError("terms must be positive")
    return list(islice(_cf_steps(b), terms))


def fundamental_solution(b: int) -> PellSolution:
    """Minimal positive solution of x^2 - b*y^2 = 1 via continued-fraction convergents."""
    _check_radicand(b)
    if not is_squarefree(b):
        raise ValueError(f"{b} is not square-free")
    h_prev, h = 1, isqrt(b)
    k_prev, k = 0, 1
    steps = _cf_steps(b)
    next(steps)  # a0 already folded into (h, k)
    while True:
        if h * h - b * k * k == 1:
            return PellSolution(h, k, b)
        a = next(steps)
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k


def next_solution(s: PellSolution, f: PellSolution | None = None) -> PellSolution:
    """Successor under the group law (m + n*sqrt(b)) * (m1 + n1*sqrt(b)), with
    (m1, n1) the fundamental solution `f`, computed here when not given."""
    if f is None:
        f = fundamental_solution(s.b)
    return PellSolution(s.m * f.m + s.b * s.n * f.n, s.m * f.n + s.n * f.m, s.b)


def solutions(b: int) -> Iterator[PellSolution]:
    """The positive solutions in increasing order, powers of one fundamental solution."""
    f = s = fundamental_solution(b)
    while True:
        yield s
        s = next_solution(s, f)


def find_seed_pair(b: int) -> tuple[PellSolution, PellSolution]:
    """Fundamental solution (m, n) and the smallest later (m', n') with
    m < m*m' - b*n*n' < m' strictly."""
    gen = solutions(b)
    first = next(gen)
    m, n = first.m, first.n
    for cand in gen:
        mid = m * cand.m - b * n * cand.n
        if m < mid < cand.m:
            return first, cand
