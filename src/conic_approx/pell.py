"""Continued fractions of sqrt(b) and solutions of x^2 - b*y^2 = 1."""
from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from math import isqrt

from . import arith
from .arith import FACTOR_BITS, is_square, is_squarefree
from .records import FrozenRecord


class PellSolution(FrozenRecord):
    """A positive solution (m, n) of m^2 - b*n^2 = 1."""

    __slots__ = ("m", "n", "b")

    def __init__(self, m: int, n: int, b: int) -> None:
        if m <= 0 or n <= 0:
            raise ValueError("positive solution required")
        if arith.square(m) - b * arith.square(n) != 1:
            raise ValueError(f"({m}, {n}) does not solve x^2 - {b} y^2 = 1")
        super().__init__(m, n, b)


def _check_radicand(b: int) -> None:
    if b < 2:
        raise ValueError("radicand must be at least 2")
    if b >= 1 << FACTOR_BITS:
        raise ValueError(f"radicand must be below 2^{FACTOR_BITS}")
    if is_square(b):
        raise ValueError(f"{b} is a perfect square")


def _cf_steps(b: int) -> Iterator[tuple[int, int]]:
    """Partial quotients a_i of sqrt(b), from a_0 = floor(sqrt(b)), each with
    the state q_(i+1) after it: the convergent through a_i solves
    x^2 - b*y^2 = (-1)^(i+1) * q_(i+1), and the period ends at the first q of 1."""
    a0 = isqrt(b)
    p, q = a0, b - a0 * a0
    yield a0, q
    while True:
        a = (a0 + p) // q
        p = a * q - p
        q = (b - p * p) // q
        yield a, q


def cf_expansion(b: int, terms: int) -> list[int]:
    """First `terms` partial quotients of the periodic expansion of sqrt(b)."""
    _check_radicand(b)
    if terms <= 0:
        raise ValueError("terms must be positive")
    return [a for a, _ in islice(_cf_steps(b), terms)]


def fundamental_solution(b: int) -> PellSolution:
    """Minimal positive solution of x^2 - b*y^2 = 1: the convergent that ends
    the first period of sqrt(b), of length r, solves x^2 - b*y^2 = (-1)^r, so
    for odd r its square in Z[sqrt(b)] is taken (Lagrange)."""
    _check_radicand(b)
    if not is_squarefree(b):
        raise ValueError(f"{b} is not square-free")
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    for r, (a, q) in enumerate(_cf_steps(b), 1):
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if q == 1:
            break
    if r % 2:
        h, k = arith.square(h) + b * arith.square(k), 2 * h * k
    return PellSolution(h, k, b)


def next_solution(s: PellSolution, f: PellSolution | None = None) -> PellSolution:
    """Successor under the group law (m + n*sqrt(b)) * (m1 + n1*sqrt(b)), with
    (m1, n1) the fundamental solution `f`, computed here when not given."""
    if f is None:
        f = fundamental_solution(s.b)
    return PellSolution(s.m * f.m + s.b * s.n * f.n, s.m * f.n + s.n * f.m, s.b)


def find_seed_pair(b: int) -> tuple[PellSolution, PellSolution]:
    """Fundamental solution f = (m, n) and f^3 = (m', n'), the first power
    with m < m*m' - b*n*n' < m' strictly: for f^k the middle value is the m of
    f^(k-1), which for f^2 is m itself."""
    f = fundamental_solution(b)
    return f, next_solution(next_solution(f, f), f)
