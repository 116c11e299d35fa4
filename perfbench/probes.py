"""Fixed-size probes behind the ROADMAP baseline table, run once per traced run.

Each probe times one call from outside at the size the table names, so the
table can be re-derived from any traced run's result.
"""
from __future__ import annotations

import time
from fractions import Fraction

from conic_approx import (
    ExtremalTarget,
    SqrtPairTarget,
    enumerate_minimal,
    extend,
    limit_point,
    seed_triple,
)

import oracle
from workloads import no_int_str_limit


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def baseline() -> dict:
    """{metric name: (value, unit)} for the baseline table's rows."""
    m = {}
    seq = seed_triple(2, 3)
    checked = timed(extend, seq, 22)[1]
    bare = timed(oracle.replay, seq.ys, seq.ts, 22)[1]
    m["baseline.extend22_s"] = (checked, "s")
    m["baseline.recurrence22_s"] = (bare, "s")
    m["baseline.check_ratio22"] = (checked / bare, "x")

    fresh = seed_triple(2, 3)
    m["baseline.limit4000_s"] = (timed(limit_point, fresh, Fraction(1, 2**4000))[1], "s")
    m["baseline.limit4000_depth"] = (fresh.depth, "count")

    for label, make in (("extremal", lambda: ExtremalTarget(2, 3)), ("sqrt", lambda: SqrtPairTarget(2, 3))):
        for size, xmax in (("1e5", 10**5), ("1e6", 10**6)):
            records, seconds = timed(enumerate_minimal, make(), xmax)
            m[f"baseline.scan{size}_{label}_s"] = (seconds, "s")
        m[f"baseline.scan1e6_{label}_bits"] = (records[0].L.precision, "bit")

    y = seq.y(22)
    m["baseline.vector22_bits"] = (max(abs(v) for v in y).bit_length(), "bit")
    with no_int_str_limit():
        text, seconds = timed(lambda: [str(v) for v in y])
        m["baseline.str22_s"] = (seconds, "s")
        m["baseline.int22_s"] = (timed(lambda: [int(s) for s in text])[1], "s")
    hexes, seconds = timed(lambda: [format(v, "x") for v in y])
    m["baseline.hex22_s"] = (seconds, "s")
    m["baseline.unhex22_s"] = (timed(lambda: [int(h, 16) for h in hexes])[1], "s")
    return m
