"""Integer arithmetic: factorization, square-free parts, quadratic residues,
and exact products of big integers.

Factoring uses trial division; its inputs are desk-scale (coefficients of
small quadratic forms), so no advanced factoring is needed.  The products
`square` and `mul` serve the construction's identity checks, whose operands
grow to hundreds of thousands of bits: from `TOOM_MIN_BITS` on, each splits
its operands once by Toom-3 and recurses, where CPython multiplies by
Karatsuba alone.  Each decides that itself, so callers never test sizes.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# b, c, Pell radicands and what `quadform.reduce_form` factors must be below
# 2^FACTOR_BITS: trial division, up to the square root, takes hours on 80 bits.
FACTOR_BITS = 32
# `quadform.HOLZER_MAX_POINTS` bounds the other search `reduce` could not end.


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division. Returns {prime: exponent}."""
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write |n| = s**2 * f with f square-free.  Returns (s, f); f carries the sign of n."""
    if n == 0:
        return 1, 0
    sign = 1 if n > 0 else -1
    s = 1
    f = 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    return s, sign * f


def is_squarefree(n: int) -> bool:
    return abs(n) == abs(squarefree_decompose(n)[1])


def squarefree_scale(q: Fraction) -> tuple[Fraction, int]:
    """For q > 0 find rational s with q * s**2 equal to a square-free positive integer f.

    Returns (s, f).
    """
    if q <= 0:
        raise ValueError("positive rational required")
    # numerator and denominator are coprime: f is the product of their square-free parts
    (su, fu), (sv, fv) = squarefree_decompose(q.numerator), squarefree_decompose(q.denominator)
    s, f = Fraction(sv * fv, su), fu * fv
    if q * s * s != f:
        raise AssertionError
    return s, f


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def is_qr_mod_squarefree(a: int, m: int) -> bool:
    """Whether x**2 = a (mod |m|) is solvable, for square-free m (0 counts as a square)."""
    m = abs(m)
    for p in factorize(m):
        if p == 2:
            continue
        if legendre_symbol(a, p) == -1:
            return False
    return True


# Operand bits from which `square` and `mul` take a Toom-3 step.  Timed
# against CPython's own product (2-core x86_64, Python 3.11.7, medians of
# interleaved runs, this constant), the kernel is at par up to about 48k
# bits, 0.85-0.97 at 64k-135k bits and 0.79-0.81 at 200k-400k bits, for
# squares and for operands 1:1 or 1.6:1 apart; below the constant a step
# gains nothing for its additions and shifts.  It must be at least 6,
# so that each step shrinks its operands.
TOOM_MIN_BITS = 1 << 15


def square(x):
    """x * x of any number; of an int from `TOOM_MIN_BITS` bits, by Toom-3 and recursion."""
    if type(x) is not int or (n := x.bit_length()) < TOOM_MIN_BITS:
        return x * x
    k = (n + 2) // 3
    x = abs(x)
    mask = (1 << k) - 1
    x0, x1, x2 = x & mask, (x >> k) & mask, x >> 2 * k
    p = x0 + x2
    return _toom3_join(
        square(x0),
        square(p + x1),
        square(p - x1),
        square((((x2 << 1) - x1) << 1) + x0),
        square(x2),
        k,
    )


def mul(a: int, b: int) -> int:
    """a * b, by one Toom-3 step and recursion when both operands have at
    least `TOOM_MIN_BITS` bits and neither has more than twice the other's."""
    na, nb = a.bit_length(), b.bit_length()
    if na < nb:
        na, nb = nb, na
    if nb < TOOM_MIN_BITS or na > 2 * nb:
        return a * b
    k = (na + 2) // 3
    negative = (a < 0) != (b < 0)
    a, b = abs(a), abs(b)
    mask = (1 << k) - 1
    a0, a1, a2 = a & mask, (a >> k) & mask, a >> 2 * k
    b0, b1, b2 = b & mask, (b >> k) & mask, b >> 2 * k
    pa, pb = a0 + a2, b0 + b2
    r = _toom3_join(
        mul(a0, b0),
        mul(pa + a1, pb + b1),
        mul(pa - a1, pb - b1),
        mul((((a2 << 1) - a1) << 1) + a0, (((b2 << 1) - b1) << 1) + b0),
        mul(a2, b2),
        k,
    )
    return -r if negative else r


def _toom3_join(v0: int, v1: int, vm1: int, vm2: int, vinf: int, k: int) -> int:
    """r(2^k) for the product polynomial r of degree 4 whose values at 0, 1,
    -1, -2 and infinity are given: the interpolation of Bodrato and Zanoni
    (2007), with one exact division by 3 and exact halvings."""
    r3 = (vm2 - v1) // 3
    r1 = (v1 - vm1) >> 1
    r2 = vm1 - v0
    r3 = ((r2 - r3) >> 1) + (vinf << 1)
    r2 += r1 - vinf
    r1 -= r3
    return ((((((vinf << k) + r3) << k) + r2) << k) + r1 << k) + v0
