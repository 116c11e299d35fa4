#!/usr/bin/env python3
"""Build an extremal sequence and print its growth and exponent diagnostics.

Usage: python scripts/run_extremal_experiment.py --b 2 --c 3 --depth 18

Like the CLI, a pair it cannot build on and a height past the precision cap
exit 3 with one `rejected:` or `precision cap:` line on stderr.
"""
import argparse
import math
import sys
from fractions import Fraction

from conic_approx.cli import EXIT_MATH
from conic_approx.extremal import UnsupportedConstruction, extend, growth_ratios, seed_triple
from conic_approx.minpoints import estimate_lambda, records_from_sequence
from conic_approx.numerics import PrecisionCapError
from conic_approx.quadform import max_norm
from conic_approx.targets import ExtremalTarget


def exact_int(text: str) -> int:
    """The integer part of a decimal such as 1e400, read exactly (no float)."""
    return int(Fraction(text))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--b", type=int, default=2)
    ap.add_argument("--c", type=int, default=3)
    ap.add_argument("--depth", type=int, default=18)
    ap.add_argument("--height-cap", type=exact_int, default=10**50,
                    help="norm cap for the exponent table, e.g. 1e400")
    args = ap.parse_args()
    try:
        report(args)
    except UnsupportedConstruction as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    except PrecisionCapError as exc:
        print(f"precision cap: {exc}", file=sys.stderr)
        return EXIT_MATH
    return 0


def report(args: argparse.Namespace) -> None:
    seq = extend(seed_triple(args.b, args.c), args.depth)
    print(f"seed (m, n, m', n', r, t) = {seq.seed}")
    print(f"|det(y_1, y_0, y_-1)| = {abs(seq.det0)}")
    print()
    print(f"{'i':>3} {'t_i':>14} {'norm bits':>10} {'log-ratio':>10}")
    ratios = dict(growth_ratios(seq))
    for i in range(-1, args.depth + 1):
        t = seq.t(i)
        ts = str(t) if t < 10**12 else f"~2^{t.bit_length()}"
        r = f"{ratios[i]:.5f}" if i in ratios else ""
        print(f"{i:>3} {ts:>14} {max_norm(seq.y(i)).bit_length():>10} {r:>10}")

    print()
    records, next_x = records_from_sequence(
        seed_triple(args.b, args.c), ExtremalTarget(args.b, args.c), args.height_cap
    )
    report = estimate_lambda(records, next_X=next_x)
    print(f"{'i':>3} {'X_i bits':>9} {'lambda_hat':>11}")
    for i, h in report.lambda_hats:
        print(f"{i:>3} {records[i].X.bit_length():>9} {h:>11.5f}")
    golden = (1 + math.sqrt(5)) / 2
    print()
    print(f"summary (min over last third): {report.summary:.5f}")
    print(f"1/golden ratio:                {1 / golden:.5f}")


if __name__ == "__main__":
    sys.exit(main())
