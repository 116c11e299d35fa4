"""Command-line front end: reduce forms, construct extremal points, enumerate
minimal points, verify sequence files, and print Pell data.

Exit codes: 0 success, 2 input error, 3 mathematical rejection, 4 invariant failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

from .extremal import (
    IDENTITIES,
    SEED_IDENTITIES,
    InvariantViolation,
    UnsupportedConstruction,
    Window,
    extend,
    validate_bc,
)
from .minpoints import (
    RationalTargetError,
    enumerate_minimal,
    estimate_lambda,
    rigidity_check,
)
from .numerics import CertifiedReal, Dyadic, PrecisionCapError, precision_cap
from .pell import cf_expansion, find_seed_pair, fundamental_solution, next_solution
from .quadform import FormRejected, TernaryQuadraticForm, det3, max_norm, reduce_form
from .targets import DependentTargetError, ExtremalTarget, SqrtPairTarget

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3
EXIT_INVARIANT = 4


def read_int(s: str) -> int:
    """An integer string of a CLI file: `0x` hex as written, or decimal as in
    files written before hex.  Decimal text is subject to CPython's int/str
    digit limit (a ValueError past it); hex is not.  A non-string is a
    TypeError."""
    return int(s, 0)


def _dyadic_json(d: Dyadic) -> dict:
    return {"exp": d.exp, "man": hex(d.man)}


def _real_json(x: CertifiedReal) -> dict:
    return {"hi": _dyadic_json(x.hi), "lo": _dyadic_json(x.lo), "precision": x.precision}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _write(outdir: str, files: dict[str, str]) -> bool:
    """Write {name: text} into outdir, creating it.  Every file goes to a
    temporary name first and is moved into place only once all are written;
    on OSError no file of this call is left, one `error:` line is printed
    and the result is False."""
    out = Path(outdir)
    staged: list[tuple[Path, Path]] = []
    placed: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            tmp = out / f".{name}.{os.getpid()}.tmp"
            staged.append((tmp, out / name))
            with open(tmp, "w", newline="") as fp:
                fp.write(text)
        for tmp, final in staged:
            os.replace(tmp, final)
            placed.append(final)
    except OSError as exc:
        for path in [tmp for tmp, _ in staged] + placed:
            path.unlink(missing_ok=True)
        print(f"error: cannot write to --out {outdir}: {exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_reduce(args) -> int:
    try:
        phi = TernaryQuadraticForm.from_json(Path(args.form).read_text())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read form: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        red = reduce_form(phi)
    except FormRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    if not red.verify(phi):  # defensive re-check before printing
        print("internal error: reduction identity failed", file=sys.stderr)
        return EXIT_INVARIANT
    out = {
        "case": red.case,
        "mu": str(red.mu),
        "T": [[str(x) for x in row] for row in red.T],
        "b": str(red.b),
        "c": str(red.c),
    }
    print(_dump(out))
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.depth < 1:
        print("error: --depth must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    if args.precision < 1:
        print("error: --precision must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        target = ExtremalTarget(args.b, args.c)
        seq = extend(target.sequence, args.depth)
        enclosure = target.limit(args.precision)  # checks the cap before 2**precision
    except UnsupportedConstruction as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    except PrecisionCapError as exc:
        print(f"precision cap: {exc}", file=sys.stderr)
        return EXIT_MATH
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    sequence = "".join(
        json.dumps(
            {
                "i": i,
                "norm_bits": max_norm(seq.y(i)).bit_length(),
                "t": hex(seq.t(i)),
                "y": [hex(v) for v in seq.y(i)],
            },
            sort_keys=True,
        )
        + "\n"
        for i in range(-1, args.depth + 1)
    )
    xi = _dump(
        {
            "b": str(args.b),
            "c": str(args.c),
            "depth": args.depth,
            "precision": args.precision,
            "seed": [hex(v) for v in seq.seed],
            "tail_bound": _real_json(enclosure.tail_bound),
            "xi1": _real_json(enclosure.xi1),
            "xi2": _real_json(enclosure.xi2),
        }
    ) + "\n"
    if not _write(args.out, {"sequence.jsonl": sequence, "xi.json": xi}):
        return EXIT_INPUT
    outdir = Path(args.out)
    print(f"wrote {outdir / 'sequence.jsonl'} and {outdir / 'xi.json'}")
    return EXIT_OK


def _real_fields(x: dict) -> tuple:
    """(lo man, lo exp, hi man, hi exp, precision) of a `_real_json` object."""
    lo, hi = x["lo"], x["hi"]
    return read_int(lo["man"]), lo["exp"], read_int(hi["man"]), hi["exp"], x["precision"]


def _target_from_args(args):
    """The target, and for --xi the file's precision and enclosure fields."""
    if args.xi is not None:
        obj = json.loads(Path(args.xi).read_text())
        if not isinstance(obj, dict):
            raise ValueError(f"--xi {args.xi} must hold a JSON object")
        precision = obj.get("precision")
        if type(precision) is not int or precision < 1:
            raise ValueError(f"--xi {args.xi} needs a positive integer precision")
        claimed = {key: _real_fields(obj[key]) for key in ("xi1", "xi2", "tail_bound")}
        return ExtremalTarget(read_int(obj["b"]), read_int(obj["c"])), (precision, claimed)
    if args.sqrt is not None:
        a, b = (int(s) for s in args.sqrt.split(","))
        if a < 0 or b < 0:
            raise ValueError("--sqrt needs non-negative integers A,B")
        return SqrtPairTarget(a, b), None
    if args.b is not None and args.c is not None:
        return ExtremalTarget(args.b, args.c), None
    raise ValueError("need --b/--c, --xi FILE, or --sqrt A,B")


def cmd_enumerate(args) -> int:
    if args.xmax <= 0:
        print("error: --xmax must be positive", file=sys.stderr)
        return EXIT_INPUT
    if args.precision is not None and args.precision < 1:
        print("error: --precision must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        target, xi = _target_from_args(args)
    except DependentTargetError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if xi is not None:
            # the target keeps this enclosure, so a scan at no more bits reuses it
            precision, claimed = xi
            enc = target.limit(precision)
            for key, fields in claimed.items():
                if fields != _real_fields(_real_json(getattr(enc, key))):
                    print(
                        f"invariant failure: --xi {args.xi}: {key} differs from the "
                        f"enclosure recomputed at precision {precision}",
                        file=sys.stderr,
                    )
                    return EXIT_INVARIANT
        records = enumerate_minimal(target, args.xmax, bits=args.precision)
    except RationalTargetError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    except UnsupportedConstruction as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    except PrecisionCapError as exc:
        print(f"precision cap: {exc}", file=sys.stderr)
        return EXIT_MATH
    if len(records) < 2:
        print(
            f"error: {len(records)} minimal point(s) up to --xmax {args.xmax}; "
            "the exponent estimate needs at least two",
            file=sys.stderr,
        )
        return EXIT_INPUT
    report = estimate_lambda(records)
    hat_by_index = dict(report.lambda_hats)
    rows = []
    for i, rec in enumerate(records):
        rows.append(
            {
                "i": i,
                "X_i": str(rec.X),
                "x1": str(rec.x[1]),
                "x2": str(rec.x[2]),
                "L_i_lo": repr(float(rec.L.lo)),
                "L_i_hi": repr(float(rec.L.hi)),
                "lambda_hat_i": repr(hat_by_index[i]) if i in hat_by_index else "",
            }
        )
    if args.format == "csv":
        buf = io.StringIO(newline="")
        writer = csv.DictWriter(
            buf, fieldnames=["i", "X_i", "x1", "x2", "L_i_lo", "L_i_hi", "lambda_hat_i"]
        )
        writer.writeheader()
        writer.writerows(rows)
        files = {"records.csv": buf.getvalue()}
    else:
        files = {"records.json": _dump(rows) + "\n"}
    rigidity = None
    if isinstance(target, ExtremalTarget):
        phi = TernaryQuadraticForm(1, -target.b, -target.c)
        rig = rigidity_check(phi, records)
        rigidity = {
            "checks": [{"k": k, "passed": ok} for k, ok in rig.checks],
            "first_holding": rig.first_holding,
            "insufficient_data": rig.insufficient,
        }
    files["report.json"] = _dump(
        {
            "alpha": repr(report.alpha),
            "c_lower": repr(report.c_lower),
            "independence_set": report.independence_set,
            "lambda_hats": [[i, repr(h)] for i, h in report.lambda_hats],
            "rigidity": rigidity,
            "summary": repr(report.summary),
            "theta": repr(report.theta),
        }
    ) + "\n"
    if not _write(args.out, files):
        return EXIT_INPUT
    print(f"{len(records)} records; lambda-hat summary {report.summary:.5f}")
    return EXIT_OK


def _infer_bc(rows) -> tuple[int, int]:
    for row in rows:
        y = row["y"]
        if y[1] and not y[2]:
            b_num, b_den = y[0] * y[0] - 1, y[1] * y[1]
            if b_num % b_den:
                raise ValueError("cannot infer b")
            b = b_num // b_den
            break
    else:
        raise ValueError("cannot infer b")
    for row in rows:
        y = row["y"]
        if y[2]:
            c_num = y[0] * y[0] - b * y[1] * y[1] - 1
            if c_num % (y[2] * y[2]):
                raise ValueError("cannot infer c")
            return b, c_num // (y[2] * y[2])
    raise ValueError("cannot infer c")


def cmd_verify(args) -> int:
    if (args.b is None) != (args.c is None):
        print("error: verify takes --b and --c together or neither", file=sys.stderr)
        return EXIT_INPUT
    if args.b is not None:
        try:
            validate_bc(args.b, args.c)
        except UnsupportedConstruction as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return EXIT_MATH
    try:
        lines = Path(args.infile).read_text().strip().splitlines()
        if not lines:
            raise ValueError("empty file")
        rows = []
        for line in lines:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"row {line[:40]!r} is not a JSON object")
            if not isinstance(obj["y"], list) or len(obj["y"]) != 3:
                raise ValueError(f"row i={obj['i']}: y must be a list of 3 integers")
            y = tuple(read_int(v) for v in obj["y"])
            rows.append(
                {
                    "i": int(obj["i"]),
                    "y": y,
                    "t": read_int(obj["t"]),
                    "norm_bits": int(obj["norm_bits"]),
                }
            )
        rows.sort(key=lambda r: r["i"])
        if len(rows) < 3 or [r["i"] for r in rows] != list(range(-1, len(rows) - 1)):
            raise ValueError("rows must hold indices -1, 0, 1, ... without gaps")
        b, c = (args.b, args.c) if args.b is not None else _infer_bc(rows)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot parse sequence file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    phi = TernaryQuadraticForm(1, -b, -c)
    ys = [r["y"] for r in rows]
    ts = [r["t"] for r in rows]
    det0 = det3(ys[2], ys[1], ys[0])
    failures = 0

    def check(name: str, ok: bool, index: int) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name} @ i={index}")
        if not ok:
            failures += 1

    for r in rows:
        check("norm_bits", max_norm(r["y"]).bit_length() == r["norm_bits"], r["i"])
    seed = Window(phi, ys, ts, det0, 1)
    for name, holds in SEED_IDENTITIES:
        check(name, holds(seed), 1)
    # values proved earlier (the seed, then every index before i, then the
    # entries before this one at i) may be reused only while nothing has failed
    for i in range(2, len(rows) - 1):
        window = Window(phi, ys, ts, det0, i)
        for name, holds in IDENTITIES:
            window.proved = i + 1 if failures == 0 else 0
            check(name, holds(window), i)
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def cmd_pell(args) -> int:
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        fund = fundamental_solution(args.b)
        first, second = find_seed_pair(args.b)
        sols = [fund]
        for _ in range(args.count - 1):
            sols.append(next_solution(sols[-1]))
        expansion = cf_expansion(args.b, 12)
    except ValueError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    print(
        _dump(
            {
                "b": str(args.b),
                "cf_expansion_prefix": expansion,
                "fundamental": {"m": str(fund.m), "n": str(fund.n)},
                "seed_pair": {
                    "first": {"m": str(first.m), "n": str(first.n)},
                    "second": {"m": str(second.m), "n": str(second.n)},
                },
                "solutions": [{"m": str(s.m), "n": str(s.n)} for s in sols],
            }
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conic-approx",
        description="Extremal approximation points on rational conics (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a ternary quadratic form to canonical shape")
    p.add_argument("--form", required=True, help="JSON file with coefficients a00..a12")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct", help="build an extremal sequence and its limit point")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--precision", type=int, default=128, help="enclosure width 2^-BITS")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="enumerate minimal points of a target")
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--xi", help="xi.json file from a previous construct run")
    p.add_argument("--sqrt", help="A,B for the target (1, sqrt(A), sqrt(B))")
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="re-check all invariants of a sequence file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pell", help="fundamental and successor Pell solutions")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(func=cmd_pell)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        precision_cap()  # a malformed CONIC_APPROX_MAX_BITS is an input error
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
