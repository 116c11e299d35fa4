"""Reference results the benchmark checks the program against.

Nothing here calls `conic_approx.minpoints`, `conic_approx.targets` or the CLI:
the minimal-point oracle is a separate exact scan on fixed-point integers,
and the sequence replay is the bare recurrence without any identity checks.
"""
from __future__ import annotations

from math import isqrt


class WrongOutput(Exception):
    """The program returned normally but its output failed a check."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def replay(ys, ts, depth):
    """Bare recurrence from the first three members of a seeded sequence.

    `ys` and `ts` hold y_{-1}, y_0, y_1 and t_{-1}, t_0, t_1 (the program's
    storage order); returns the lists extended through index `depth`.
    """
    ys, ts = list(ys[:3]), list(ts[:3])
    while len(ys) < depth + 2:
        t = ts[-1]
        a, c = ys[-1], ys[-3]
        ys.append((t * a[0] - c[0], t * a[1] - c[1], t * a[2] - c[2]))
        ts.append(t * ts[-2] - ts[-3])
    return ys, ts


def unit_value(b, c, y):
    """x0^2 - b*x1^2 - c*x2^2, written out here rather than taken from quadform."""
    return y[0] * y[0] - b * y[1] * y[1] - c * y[2] * y[2]


def sqrt_fixed(a, p):
    """floor(sqrt(a) * 2**p), exact."""
    return isqrt(a << (2 * p))


def ratio_fixed(ys, p):
    """floor(y1/y0 * 2**p), floor(y2/y0 * 2**p) from the first member that is
    large enough and agrees with its successor to within one unit: both are
    then within two units of xi * 2**p."""
    for y, z in zip(ys, ys[1:]):
        if y[0].bit_length() > 2 * p + 8:
            a = ((y[1] << p) // y[0], (y[2] << p) // y[0])
            b = ((z[1] << p) // z[0], (z[2] << p) // z[0])
            if abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1:
                return a
    raise ValueError("sequence too short for the requested precision")


class Undecided(Exception):
    pass


def minimal_points(a1, a2, p, xmax):
    """Records (x0, n1, n2, L_lo, L_hi) of L(x0) = max(||x0 xi1||, ||x0 xi2||).

    a1, a2 approximate xi1 * 2**p and xi2 * 2**p to within 2 units; L bounds
    are in units of 2**-p.  Raises Undecided when two L values cannot be
    ordered at this precision.
    """
    one = 1 << p
    half = one >> 1
    mask = one - 1
    records = []
    blo = bhi = one  # no record yet: every L beats it
    v1 = 0
    for x0 in range(1, xmax + 1):
        v1 += a1
        err = 2 * x0
        d1 = ((v1 + half) & mask) - half
        if d1 < 0:
            d1 = -d1
        if d1 - err >= bhi:
            continue
        v2 = x0 * a2
        d2 = ((v2 + half) & mask) - half
        if d2 < 0:
            d2 = -d2
        lo = max(d1 - err, d2 - err, 0)
        hi = max(d1, d2) + err
        if hi < blo:
            n1 = (v1 + half) >> p
            n2 = (v2 + half) >> p
            records.append((x0, n1, n2, lo, hi))
            blo, bhi = lo, hi
        elif lo < bhi:
            raise Undecided(x0)
    return records


def reference_records(fixed, xmax, p=128):
    """Oracle records, doubling the precision until every comparison decides.

    `fixed(p)` returns (a1, a2) for precision p.
    """
    while True:
        try:
            return minimal_points(*fixed(p), p, xmax), p
        except Undecided:
            p *= 2
