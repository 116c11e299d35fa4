#!/usr/bin/env python3
"""Compare exponent estimates of the extremal target against sqrt controls.

Usage: python scripts/exponent_table.py --xmax 100000

Like the CLI, whose `run` calls it, an `--xmax` below 1, fewer than two
minimal points up to it or a stdout it cannot write exits 2 with one
`error:` line on stderr, and a pair it cannot build on exits 3 with one
`rejected:` line.
"""
import argparse
import sys

from conic_approx.cli import InputError, echo, estimable_records, run
from conic_approx.minpoints import estimate_lambda, rigidity_check
from conic_approx.targets import ExtremalTarget, SqrtPairTarget


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--xmax", type=int, default=10**5)
    ap.add_argument("--b", type=int, default=2)
    ap.add_argument("--c", type=int, default=3)
    return run(table, ap.parse_args())


def table(args: argparse.Namespace) -> None:
    if args.xmax <= 0:
        raise InputError("--xmax must be positive")
    extremal = ExtremalTarget(args.b, args.c)
    targets = [
        (f"extremal ({args.b},{args.c})", extremal),
        ("(1, sqrt2, sqrt3)", SqrtPairTarget(2, 3)),
        ("(1, sqrt2, sqrt5)", SqrtPairTarget(2, 5)),
    ]
    phi = extremal.sequence.form
    rows = [f"{'target':>20} {'records':>8} {'summary':>8} {'indep':>6} {'rigidity':>20}"]
    for name, target in targets:
        recs = estimable_records(target, args.xmax)
        rep = estimate_lambda(recs)
        rig = rigidity_check(phi, recs)
        if rig.insufficient:
            rtxt = "insufficient data"
        else:
            fails = sum(not ok for _, ok in rig.checks)
            rtxt = f"{fails} failures/{len(rig.checks)}"
        rows.append(
            f"{name:>20} {len(recs):>8} {rep.summary:>8.4f} "
            f"{len(rep.independence_set):>6} {rtxt:>20}"
        )
    echo("\n".join(rows))  # once every target has its estimate


if __name__ == "__main__":
    sys.exit(main())
