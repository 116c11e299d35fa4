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

The skip test runs on a block of K = BLOCK_LANES consecutive x0 at once, in
two stages.  With base = best_hi + slack and span = 2**p - 1 - 2*base, r lies
in the window exactly when (r - base) mod 2**p <= span.  The first stage reads
only the top q = min(p, 2*bits(Xmax) + 8) bits of a1lo.  With drop = p - q and
a = a1lo >> drop, a floor also for a1lo < 0, a1lo = a*2**drop + d with 0 <= d
< 2**drop, so x0*a1lo = R*2**drop + x0*d modulo 2**p, where R = x0*a mod 2**q
and 0 <= x0*d < Xmax*2**drop.  Hence an x0 with R in [low_end, 2**q - 1 -
low_end - spill], where low_end = ceil(base / 2**drop) and spill = Xmax when
drop > 0 (0 when q = p), has r in [base, 2**p - 1 - base]: the ceiling keeps
the bottom end, and spill the top end, of the p-bit window.  One int U
(`packed` in `_scan`) holds the re-based residues (x0*a - low_end) mod 2**q
of a block, one per lane of q + 1 bits whose top bit, the guard, is clear,
and a lane is kept when U + lift sets its guard.  With 2*low_end + spill <=
2**q, lift = (2*low_end + spill)*ones, where ones has a 1 at the foot of each
lane: a residue below 2**q plus lift carries into the guard of its lane, and
never past it, exactly when the residue exceeds 2**q - 1 - 2*low_end - spill,
the span of the q-bit window.  Before the first record, and whenever that
window is empty, lift = 2**q*ones: every lane's guard is set, nothing carries
further, and nothing is skipped.  The next block is U = (U + kstep) & lanes,
with kstep = ((K*a) mod 2**q)*ones and lanes the mask of every lane's residue
bits: one add and one guard-bit test, then one add and one mask, per K
x0.  The kept x0 of a block are read off its guard bits, lowest first, after
one mask clears the lanes past Xmax in the last block.  The second stage is
the p-bit test itself, (x0*a1lo - base) mod 2**p > span (every x0 passes it
while span < 0), on each kept x0; the x0 it keeps get both certified
roundings and the record and overlap tests.  A record re-bases U on the next
x0 by the expression that bases it at x0 = 1, from the residues j*a mod 2**q
of the lanes, packed once per pass.  As the first stage keeps every x0 that
the p-bit test keeps, the x0 rounded, the records and the precision passes
are those of the per-x0 test alone.  At most Xmax + 2 of the 2**q values of R
lie outside the q-bit window with r inside the p-bit one, so over a whole
scan the first stage keeps on the order of Xmax*(Xmax + 2)/2**q < 2**-8 x0
more than the p-bit test, while a lane has q + 1 bits instead of p + 1.
"""
from __future__ import annotations

import math

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
from .quadform import TernaryQuadraticForm, cross, det3, max_norm, psi
from .records import FrozenRecord
from .targets import ExtremalTarget, Target


class MinimalPointRecord(FrozenRecord):
    __slots__ = ("x", "X", "L")


class ExponentReport(FrozenRecord):
    __slots__ = ("lambda_hats", "summary", "alpha", "theta", "independence_set", "c_lower")


class RigidityReport(FrozenRecord):
    """`checks` holds (k, passed) pairs, k a position in the independence subsequence."""

    __slots__ = ("independence_set", "insufficient", "checks", "first_holding")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

# x0 per block of the scan's skip test.  A wider block skips faster, but the
# benchmark's harness keeps a record of about 0.44 KiB per `scan` operation,
# so its peak_rss_mib grows with throughput, not with the scan's own memory.
# On 35 s `scan` runs (2-core x86_64, Python 3.11.7), against 6 lanes of
# p + 1 bits, lanes of q + 1 bits read: 6 lanes 1.15x ops_per_s and +2.1 %
# peak_rss_mib (medians of 3 pairs; +0.9 to +6.9 % per pair), 8 lanes 1.33x
# and +5.0 % (10 pairs; +2.9 to +10.1 %), 10 lanes 1.48x and +8.7 % (3 pairs;
# +8.3 to +13.3 %).  8 is the widest block whose median stays well inside the
# benchmark's 10 % bound on peak_rss_mib.
BLOCK_LANES = 8


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
    if math.gcd(*x) != 1:
        raise AssertionError("minimal points are primitive")
    e1i, e2i = _abs_interval(*d1), _abs_interval(*d2)
    return MinimalPointRecord(
        x, x[0], CertifiedReal.from_scaled(max(e1i[0], e2i[0]), max(e1i[1], e2i[1]), p)
    )


def _scan(target: Target, xmax: int, p: int) -> list[MinimalPointRecord] | None:
    """One pass at fixed precision; returns the records, or None when undecided."""
    (a1lo, a1hi), (a2lo, a2hi) = _scaled_enclosure(target, p)
    mask = (1 << p) - 1
    slack = xmax * (a1hi - a1lo) + 1
    # the lanes test the top q bits: a1lo = a*2**drop + d with 0 <= d < 2**drop,
    # and x*d < xmax*2**drop, which `spill` adds to the top end of the window
    q = min(p, 2 * xmax.bit_length() + 8)
    drop = p - q
    a, spill = a1lo >> drop, xmax if drop else 0
    qmask = (1 << q) - 1
    width = q + 1  # a lane: a residue below 2**q and its guard bit
    ones = ((1 << BLOCK_LANES * width) - 1) // ((1 << width) - 1)  # a 1 at the foot of each lane
    lanes, guards = qmask * ones, ones << q
    offsets = sum((j * a & qmask) << j * width for j in range(BLOCK_LANES))
    kstep = (BLOCK_LANES * a & qmask) * ones
    past = xmax + 1 - BLOCK_LANES  # a block that starts past this x0 has lanes past xmax
    records = []
    best: tuple[int, int] | None = None  # scaled (lo, hi) of the current record L
    base, span = 0, -1  # the p-bit window; span < 0 keeps every x0
    low_end, lift = 0, guards  # no record yet: r + 2**q keeps every lane
    x = 0  # the block starts at x + 1
    while True:
        packed = (offsets + (((x + 1) * a - low_end) & qmask) * ones) & lanes
        for x0 in range(x + 1, xmax + 1, BLOCK_LANES):
            kept = (packed + lift) & guards
            packed = (packed + kstep) & lanes
            if not kept:
                continue  # |x*xi1 - x1| > L_best on the whole block
            if x0 > past:
                kept &= guards >> (x0 - past) * width  # the lanes up to xmax
            while kept:
                low = kept & -kept  # the lowest kept lane
                kept ^= low
                x = x0 + low.bit_length() // width - 1
                v1lo = x * a1lo
                if (v1lo - base) & mask <= span:
                    continue  # in the p-bit window: |x*xi1 - x1| > L_best
                v1hi = x * a1hi
                v2lo, v2hi = x * a2lo, x * a2hi
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
                    records.append(_record((x, n1, n2), d1, d2, p))
                    break
                elif li[0] < best[1]:
                    return None  # overlap with the current record: undecided
            else:
                continue
            break  # a record at x: re-base the block on x + 1
        else:
            return records
        base = best[1] + slack
        span = mask - 2 * base
        # the q-bit window [low_end, 2**q - 1 - low_end - spill] scaled by
        # 2**drop lies inside the p-bit one; the lift carries a lane into its
        # guard exactly when its residue is past the window's top, or every
        # lane when the window is empty
        low_end = -(-base >> drop)
        lift = min(2 * low_end + spill, qmask + 1) * ones


def enumerate_minimal(
    target: Target, xmax: int, *, bits: int | None = None
) -> list[MinimalPointRecord]:
    """Certified minimal-point records for x0 = 1..xmax."""
    if not isinstance(xmax, int):
        raise TypeError(f"xmax must be an int, not {type(xmax).__name__}")
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
