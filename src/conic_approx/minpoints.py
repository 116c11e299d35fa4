"""Minimal points (best approximations) to a certified target and exponent reports.

A minimal point realizes a new strict record of L(x) = max(|x0*xi1 - x1|,
|x0*xi2 - x2|) as the first coordinate grows.  For a fixed x0 the best lattice
point is obtained by independent nearest-integer rounding of x0*xi1 and
x0*xi2, so a scan over x0 = 1..Xmax enumerates the whole sequence.
The scan runs on scaled-integer enclosures; any undecided comparison restarts
it at doubled precision, so every emitted record is certified.

Most x0 are rejected by the first coordinate alone.  Let a1lo be the scaled
lower end of xi1, best_hi the scaled upper bound of the current record's L and
slack = Xmax*(a1hi - a1lo) + 1, which bounds the width of every enclosure of
x0*xi1.  An x0 whose residue r = x0*a1lo mod 2**p lies in
[best_hi + slack, 2**p - 1 - best_hi - slack] has every point of that
enclosure more than best_hi from the nearest integer, so |x0*xi1 - x1| > L_best
for every x1: the x0 can neither set a record nor overlap the current one, and
the scan skips it.  Every other x0 gets both certified roundings and the record
and overlap tests.  So the records and the precision are those of the scan
without the skip, except that an x0 whose rounding is ambiguous at the current
precision, but which is certifiably far from the record, no longer forces a
precision doubling.

The skip test is re-based so that it is one mask and one comparison.  With
base = best_hi + slack and span = 2**p - 1 - 2*base, r lies in the window
exactly when (r - base) mod 2**p <= span; a negative span (before the first
record, or when the window is empty) skips nothing.  The scan runs through the
sums u = x0*step - base, made by `itertools.accumulate` in C, where
step = (a1lo mod 2**p) + 2**p has the residues of a1lo mod 2**p, so
u & mask = (r - base) mod 2**p, and is positive whatever the target's
enclosure, so x0 = (u + base) // step is exact.  x0 is not carried beside the
sums, which would cost a Python-level step per x0 again: that division
recovers it only for the few x0 that pass the test (0.1-0.4 % at Xmax 2.6e5).
The sums restart from the next x0 at each new record, when base and span
change.
"""
from __future__ import annotations

import math
from itertools import accumulate, repeat

from .extremal import extend
from .numerics import (
    CertifiedReal,
    PrecisionCapError,
    check_cap,
    height_precision,
    nearest_integer,
    precision_cap,
    scale_outward,
)
from .quadform import TernaryQuadraticForm, Vec3, cross, det3, max_norm, psi
from .records import FrozenRecord, set_field
from .targets import ExtremalTarget, Target


class MinimalPointRecord(FrozenRecord):
    __slots__ = ("x", "X", "L")

    def __init__(self, x: Vec3, X: int, L: CertifiedReal) -> None:
        set_field(self, "x", x)
        set_field(self, "X", X)
        set_field(self, "L", L)


class ExponentReport(FrozenRecord):
    __slots__ = ("lambda_hats", "summary", "alpha", "theta", "independence_set", "c_lower")

    def __init__(
        self,
        lambda_hats: list[tuple[int, float]],
        summary: float,
        alpha: float,
        theta: float,
        independence_set: list[int],
        c_lower: float,
    ) -> None:
        set_field(self, "lambda_hats", lambda_hats)
        set_field(self, "summary", summary)
        set_field(self, "alpha", alpha)
        set_field(self, "theta", theta)
        set_field(self, "independence_set", independence_set)
        set_field(self, "c_lower", c_lower)


class RigidityReport(FrozenRecord):
    __slots__ = ("independence_set", "insufficient", "checks", "first_holding")

    def __init__(
        self,
        independence_set: list[int],
        insufficient: bool,
        checks: list[tuple[int, bool]],  # (position k in the independence subsequence, passed)
        first_holding: int | None,
    ) -> None:
        set_field(self, "independence_set", independence_set)
        set_field(self, "insufficient", insufficient)
        set_field(self, "checks", checks)
        set_field(self, "first_holding", first_holding)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _abs_interval(lo: int, hi: int) -> tuple[int, int]:
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _scaled_enclosure(target: Target, p: int):
    """((a1lo, a1hi), (a2lo, a2hi)): the target's enclosure at p bits rounded
    outward to the grid 2**-p and scaled by 2**p."""
    return (
        (scale_outward(e.lo.man, e.lo.exp + p)[0], scale_outward(e.hi.man, e.hi.exp + p)[1])
        for e in target.enclosure(p)
    )


def _record(x, d1, d2, p: int) -> MinimalPointRecord:
    """The record of the lattice point x, from the scaled enclosures d1, d2 of
    x0*xi1 - x1 and x0*xi2 - x2 on the grid 2**-p."""
    assert math.gcd(*x) == 1, "minimal points are primitive"
    e1i, e2i = _abs_interval(*d1), _abs_interval(*d2)
    return MinimalPointRecord(
        x=x,
        X=x[0],
        L=CertifiedReal.from_scaled(max(e1i[0], e2i[0]), max(e1i[1], e2i[1]), p),
    )


def _scan(target: Target, xmax: int, p: int) -> list[MinimalPointRecord] | None:
    """One pass at fixed precision; returns the records, or None when undecided."""
    (a1lo, a1hi), (a2lo, a2hi) = _scaled_enclosure(target, p)
    mask = (1 << p) - 1
    step = (a1lo & mask) + (1 << p)  # a1lo's residues mod 2**p, and positive
    slack = xmax * (a1hi - a1lo) + 1
    records = []
    best: tuple[int, int] | None = None  # scaled (lo, hi) of the current record L
    base, span = 0, -1  # the skip window, re-based to [0, span]; empty until the first record
    x0 = 1
    while x0 <= xmax:
        for u in accumulate(repeat(step, xmax - x0), initial=x0 * step - base):
            if u & mask <= span:
                continue  # |x0*xi1 - x1| > L_best for every x1
            x0 = (u + base) // step
            v1lo, v1hi = x0 * a1lo, x0 * a1hi
            v2lo, v2hi = x0 * a2lo, x0 * a2hi
            n1 = nearest_integer(v1lo, v1hi, p)
            n2 = nearest_integer(v2lo, v2hi, p)
            if n1 is None or n2 is None:
                return None
            d1 = (v1lo - (n1 << p), v1hi - (n1 << p))
            d2 = (v2lo - (n2 << p), v2hi - (n2 << p))
            e1i = _abs_interval(*d1)
            e2i = _abs_interval(*d2)
            li = (max(e1i[0], e2i[0]), max(e1i[1], e2i[1]))
            if best is None or li[1] < best[0]:
                best = li
                records.append(_record((x0, n1, n2), d1, d2, p))
                base = best[1] + slack
                span = mask - 2 * base
                break  # restart the sums from x0 + 1 on the new window
            elif li[0] < best[1]:
                return None  # overlap with the current record: undecided
        else:
            break
        x0 += 1
    return records


def enumerate_minimal(
    target: Target, xmax: int, *, bits: int | None = None
) -> list[MinimalPointRecord]:
    """Certified minimal-point records for x0 = 1..xmax."""
    if xmax <= 0:
        raise ValueError("xmax must be positive")
    if bits is not None and bits < 1:
        raise ValueError("bits must be at least 1")
    p = bits if bits is not None else height_precision(xmax, 96)
    check_cap(p)
    cap = precision_cap()
    while True:
        records = _scan(target, xmax, p)
        if records is not None:
            return records
        if p >= cap:
            raise PrecisionCapError(f"minimal-point scan undecided at {p} bits")
        p = min(2 * p, cap)


# ---------------------------------------------------------------------------
# exponent estimation and structure checks
# ---------------------------------------------------------------------------

def _log_interval(x: CertifiedReal) -> float:
    return (x.lo.log() + x.hi.log()) / 2


def records_from_sequence(target: ExtremalTarget, max_norm_cap: int):
    """The target's sequence members restated as minimal-point records, up to
    a norm cap.

    L comes from the scan's arithmetic on the grid 2**-bits, where the
    precision grows with the cap (`height_precision`, at least 512 bits), so a
    member that the scan also finds gets the same record.
    """
    bits = height_precision(max_norm_cap, 512)
    (a1lo, a1hi), (a2lo, a2hi) = _scaled_enclosure(target, bits)
    seq = target.sequence
    out = []
    i = -1
    while True:
        extend(seq, i + 1)
        y = seq.y(i)
        if max_norm(y) > max_norm_cap:
            break
        d1 = (y[0] * a1lo - (y[1] << bits), y[0] * a1hi - (y[1] << bits))
        d2 = (y[0] * a2lo - (y[2] << bits), y[0] * a2hi - (y[2] << bits))
        out.append(_record(y, d1, d2, bits))
        i += 1
    # one extra first coordinate so the last record gets a lambda-hat
    next_x = seq.y(i)[0]
    return out, next_x


def estimate_lambda(
    records: list[MinimalPointRecord], next_X: int | None = None
) -> ExponentReport:
    """Exponent estimates lambda_hat_i = -log L_i / log X_{i+1} and summary.

    The summary is the minimum over the last ceil(k/3) estimates (the exponent
    is liminf-flavored and early records are pre-asymptotic).  `next_X`, the
    height after the last record, must exceed that record's X.
    """
    if len(records) + (next_X is not None) < 2:
        raise ValueError("need at least two records")
    if next_X is not None and next_X <= records[-1].X:
        raise ValueError(f"next_X {next_X} must exceed the last record's X {records[-1].X}")
    hats: list[tuple[int, float]] = []
    for i, rec in enumerate(records):
        if i + 1 < len(records):
            nxt = records[i + 1].X
        elif next_X is not None:
            nxt = next_X
        else:
            break
        hats.append((i, -_log_interval(rec.L) / math.log(nxt)))
    k = len(hats)
    tail = hats[-math.ceil(k / 3):]
    summary = min(h for _, h in tail)
    alpha = (2 * summary - 1) / (1 - summary)
    theta = (1 - summary) / summary
    indep = independence_indices(records)
    c_lower = 0.0
    for i, rec in enumerate(records[:-1]):
        c_lower = max(
            c_lower, math.exp(_log_interval(rec.L) + summary * math.log(records[i + 1].X))
        )
    return ExponentReport(hats, summary, alpha, theta, indep, c_lower)


def independence_indices(records: list[MinimalPointRecord]) -> list[int]:
    """Indices i with det(x_{i-1}, x_i, x_{i+1}) != 0 (exact integer determinant)."""
    out = []
    for i in range(1, len(records) - 1):
        if det3(records[i - 1].x, records[i].x, records[i + 1].x) != 0:
            out.append(i)
    return out


def rigidity_check(
    phi: TernaryQuadraticForm, records: list[MinimalPointRecord]
) -> RigidityReport:
    """Check that records at consecutive independence indices obey the reflection
    rigidity: psi(y_k, y_{k-2}) is an exact integer multiple of y_{k+1}, that
    is, parallel to it, as records are primitive."""
    indep = independence_indices(records)
    ys = [records[i].x for i in indep]
    if len(indep) < 4:
        return RigidityReport(indep, True, [], None)
    checks = []
    first_holding = None
    for k in range(2, len(ys) - 1):
        ok = not any(cross(psi(phi, ys[k], ys[k - 2]), ys[k + 1]))
        checks.append((k, ok))
        if ok and first_holding is None:
            first_holding = k
        if not ok:
            first_holding = None
    return RigidityReport(indep, False, checks, first_holding)
