"""Minimal points (best approximations) to a certified target and exponent reports.

A minimal point realizes a new strict record of L(x) = max(|x0*xi1 - x1|,
|x0*xi2 - x2|) as the first coordinate grows.  For a fixed x0 the best lattice
point is obtained by independent nearest-integer rounding of x0*xi1 and
x0*xi2, so a scan over x0 = 1..Xmax enumerates the whole sequence.
The scan runs on scaled-integer enclosures; any undecided comparison restarts
it at doubled precision, so every emitted record is certified.

Most x0 are rejected by the first coordinate alone.  The scan carries
v = x0*a1lo (a1lo the scaled lower end of xi1) by one addition per step and
skips x0 when r = v mod 2**p lies at least best_hi + slack from both ends of
[0, 2**p), where best_hi is the scaled upper bound of the current record's L
and slack = Xmax*(a1hi - a1lo) + 1 bounds the width of every enclosure of
x0*xi1.  Every point of that enclosure is then more than best_hi from the
nearest integer, so |x0*xi1 - x1| > L_best for every x1: the x0 can neither
set a record nor overlap the current one.  Every other x0 gets both certified
roundings and the record and overlap tests.  So the records and the precision
are those of the scan without the skip, except that an x0 whose rounding is
ambiguous at the current precision, but which is certifiably far from the
record, no longer forces a precision doubling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numerics import (
    CertifiedReal,
    PrecisionCapError,
    height_precision,
    nearest_integer,
    precision_cap,
    scale_outward,
)
from .quadform import TernaryQuadraticForm, Vec3, cross, det3, max_norm, primitive, psi
from .targets import Target


class RationalTargetError(ValueError):
    """The target is a rational point; L vanishes and records are undefined."""

    def __init__(self, point: Vec3):
        super().__init__(f"target is the rational point {point}")
        self.point = point


@dataclass(frozen=True)
class MinimalPointRecord:
    x: Vec3
    X: int
    L: CertifiedReal
    delta: tuple[CertifiedReal, CertifiedReal]


@dataclass(frozen=True)
class ExponentReport:
    lambda_hats: list[tuple[int, float]]
    summary: float
    alpha: float
    theta: float
    independence_set: list[int]
    c_lower: float


@dataclass(frozen=True)
class RigidityReport:
    independence_set: list[int]
    insufficient: bool
    checks: list[tuple[int, bool]]  # (position k in the independence subsequence, passed)
    first_holding: int | None
    form_values: list[int]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _abs_interval(lo: int, hi: int) -> tuple[int, int]:
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _scan(target: Target, xmax: int, p: int):
    """One pass at fixed precision; returns records or None when undecided."""
    (a1lo, a1hi), (a2lo, a2hi) = (
        (scale_outward(e.lo.man, e.lo.exp + p)[0], scale_outward(e.hi.man, e.hi.exp + p)[1])
        for e in target.enclosure(p)
    )
    mask = (1 << p) - 1
    slack = xmax * (a1hi - a1lo) + 1
    records = []
    best: tuple[int, int] | None = None  # scaled (lo, hi) of the current record L
    skip_lo, skip_hi = 1, 0  # empty until the first record
    v = 0
    for x0 in range(1, xmax + 1):
        v += a1lo
        if skip_lo <= v & mask <= skip_hi:
            continue  # |x0*xi1 - x1| > L_best for every x1
        v1lo, v1hi = v, x0 * a1hi
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
            records.append((x0, n1, n2, li, d1, d2))
            skip_lo, skip_hi = best[1] + slack, mask - best[1] - slack
        elif li[0] < best[1]:
            return None  # overlap with the current record: undecided
    return records, p


def enumerate_minimal(
    target: Target, xmax: int, *, bits: int | None = None
) -> list[MinimalPointRecord]:
    """Certified minimal-point records for x0 = 1..xmax."""
    if xmax <= 0:
        raise ValueError("xmax must be positive")
    exact = target.exact_coords()
    if exact is not None:
        return _enumerate_rational(exact, xmax)
    p = bits if bits is not None else height_precision(xmax, 96)
    cap = precision_cap()
    if p > cap:
        raise PrecisionCapError(f"minimal-point scan needs {p} bits, cap is {cap}")
    while True:
        out = _scan(target, xmax, p)
        if out is not None:
            raw, p = out
            result = []
            for x0, n1, n2, li, d1, d2 in raw:
                assert math.gcd(x0, n1, n2) == 1, "minimal points are primitive"
                result.append(
                    MinimalPointRecord(
                        x=(x0, n1, n2),
                        X=x0,
                        L=CertifiedReal.from_scaled(*li, p),
                        delta=(
                            -CertifiedReal.from_scaled(*d1, p),
                            -CertifiedReal.from_scaled(*d2, p),
                        ),
                    )
                )
            return result
        if p >= cap:
            raise PrecisionCapError(f"minimal-point scan undecided at {p} bits")
        p = min(2 * p, cap)


def _enumerate_rational(exact, xmax: int) -> list[MinimalPointRecord]:
    xi1, xi2 = exact
    best: Fraction | None = None
    records = []
    for x0 in range(1, xmax + 1):
        v1, v2 = x0 * xi1, x0 * xi2
        n1, n2 = round(v1), round(v2)
        L = max(abs(v1 - n1), abs(v2 - n2))
        if L == 0:
            raise RationalTargetError((x0, n1, n2))
        if best is None or L < best:
            best = L
            records.append(
                MinimalPointRecord(
                    x=primitive((x0, n1, n2)),
                    X=x0,
                    L=CertifiedReal.from_fraction(L, 96),
                    delta=(
                        CertifiedReal.from_fraction(n1 - v1, 96),
                        CertifiedReal.from_fraction(n2 - v2, 96),
                    ),
                )
            )
    return records


# ---------------------------------------------------------------------------
# exponent estimation and structure checks
# ---------------------------------------------------------------------------

def _log_interval(x: CertifiedReal) -> float:
    lo, hi = x.log_bounds()
    return (lo + hi) / 2


def records_from_sequence(seq, target: Target, max_norm_cap: int):
    """Exact sequence members restated as minimal-point records, up to a norm cap.

    The precision grows with the cap (`height_precision`, at least 512 bits).
    """
    from .extremal import extend

    bits = height_precision(max_norm_cap, 512)
    e1, e2 = target.enclosure(bits)
    out = []
    i = -1
    while True:
        extend(seq, i + 1)
        y = seq.y(i)
        if max_norm(y) > max_norm_cap:
            break
        d1 = e1.mul_int(y[0]) - CertifiedReal.from_int(y[1])
        d2 = e2.mul_int(y[0]) - CertifiedReal.from_int(y[2])
        L = d1.abs_().max_with(d2.abs_())
        out.append(MinimalPointRecord(x=y, X=y[0], L=L, delta=(-d1, -d2)))
        i += 1
    # one extra first coordinate so the last record gets a lambda-hat
    next_x = seq.y(i)[0]
    return out, next_x


def estimate_lambda(
    records: list[MinimalPointRecord], next_X: int | None = None
) -> ExponentReport:
    """Exponent estimates lambda_hat_i = -log L_i / log X_{i+1} and summary.

    The summary is the minimum over the last ceil(k/3) estimates (the exponent
    is liminf-flavored and early records are pre-asymptotic).
    """
    if len(records) < 2 and next_X is None:
        raise ValueError("need at least two records")
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


def integer_multiple_of(w, y) -> int | None:
    """k with w == k * y, or None."""
    if any(cross(w, y)):
        return None
    for a, b in zip(w, y):
        if b != 0:
            if a % b:
                return None
            k = a // b
            return k if all(x == k * z for x, z in zip(w, y)) else None
    return None


def rigidity_check(
    phi: TernaryQuadraticForm, records: list[MinimalPointRecord]
) -> RigidityReport:
    """Check that records at consecutive independence indices obey the reflection
    rigidity: psi(y_k, y_{k-2}) is an exact integer multiple of y_{k+1}."""
    indep = independence_indices(records)
    ys = [records[i].x for i in indep]
    form_values = [abs(phi(y)) for y in ys]
    if len(indep) < 4:
        return RigidityReport(indep, True, [], None, form_values)
    checks = []
    first_holding = None
    for k in range(2, len(ys) - 1):
        w = psi(phi, ys[k], ys[k - 2])
        ok = integer_multiple_of(w, ys[k + 1]) is not None
        checks.append((k, ok))
        if ok and first_holding is None:
            first_holding = k
        if not ok:
            first_holding = None
    return RigidityReport(indep, False, checks, first_holding, form_values)
