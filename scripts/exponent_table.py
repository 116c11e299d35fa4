#!/usr/bin/env python3
"""Compare exponent estimates of the extremal target against sqrt controls.

Usage: python scripts/exponent_table.py --xmax 100000
"""
import argparse

from conic_approx.minpoints import (
    enumerate_minimal,
    estimate_lambda,
    rigidity_check,
)
from conic_approx.targets import ExtremalTarget, SqrtPairTarget


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--xmax", type=int, default=10**5)
    ap.add_argument("--b", type=int, default=2)
    ap.add_argument("--c", type=int, default=3)
    args = ap.parse_args()

    extremal = ExtremalTarget(args.b, args.c)
    targets = [
        (f"extremal ({args.b},{args.c})", extremal),
        ("(1, sqrt2, sqrt3)", SqrtPairTarget(2, 3)),
        ("(1, sqrt2, sqrt5)", SqrtPairTarget(2, 5)),
    ]
    phi = extremal.sequence.form
    print(f"{'target':>20} {'records':>8} {'summary':>8} {'indep':>6} {'rigidity':>20}")
    for name, target in targets:
        recs = enumerate_minimal(target, args.xmax)
        rep = estimate_lambda(recs)
        rig = rigidity_check(phi, recs)
        if rig.insufficient:
            rtxt = "insufficient data"
        else:
            fails = sum(not ok for _, ok in rig.checks)
            rtxt = f"{fails} failures/{len(rig.checks)}"
        print(
            f"{name:>20} {len(recs):>8} {rep.summary:>8.4f} "
            f"{len(rep.independence_set):>6} {rtxt:>20}"
        )


if __name__ == "__main__":
    main()
