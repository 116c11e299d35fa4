"""Command-line front end: reduce forms, construct extremal points, enumerate
minimal points, verify sequence files, and print Pell data.

Exit codes: 0 success, 2 input error, 3 mathematical rejection, 4 invariant
failure.  Commands raise; `run` alone prints the one line of a failure and
picks its code from `FAILURES`.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from itertools import accumulate, chain, repeat

from .extremal import (
    ExtremalSequence,
    InvariantViolation,
    UnsupportedConstruction,
    extend,
    pell_seed,
    validate_bc,
    verdicts,
)
from .limit import limit_index
from .minpoints import enumerate_minimal, estimate_lambda, rigidity_check
from .numerics import CertifiedReal, Dyadic, PrecisionCapError, precision_cap
from .pell import cf_expansion, find_seed_pair, next_solution
from .quadform import (
    FormRejected,
    ReductionIdentityError,
    TernaryQuadraticForm,
    det3,
    max_norm,
    reduce_form,
)
from .targets import DependentTargetError, ExtremalTarget, SqrtPairTarget

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3
EXIT_INVARIANT = 4


class InputError(Exception):
    """An argument or file the command cannot use (exit 2)."""


class Rejected(Exception):
    """Input the command reads but refuses to work on (exit 3)."""


class FileMismatch(Exception):
    """An `--xi` enclosure that differs from the one recomputed (exit 4)."""


class StdoutError(Exception):
    """A write to stdout that failed, as on a broken pipe or a full disk (exit 2)."""


# (exception types, prefix of the stderr line, exit code); the first row that
# holds the exception's class decides
FAILURES = (
    ((InputError,), "error", EXIT_INPUT),
    ((StdoutError,), "error: cannot write to stdout", EXIT_INPUT),
    ((UnsupportedConstruction, FormRejected, DependentTargetError, Rejected), "rejected", EXIT_MATH),
    ((PrecisionCapError,), "precision cap", EXIT_MATH),
    ((InvariantViolation, ReductionIdentityError, FileMismatch), "invariant failure", EXIT_INVARIANT),
)
_FAILING = tuple(chain.from_iterable(types for types, _, _ in FAILURES))


def run(command, *args) -> int:
    """Call `command(*args)` and return 0, or for an exception of `FAILURES`
    print `<prefix>: <message>` once to stderr and return the row's code.
    A malformed CONIC_APPROX_MAX_BITS is an input error before the command
    starts, and a write to stdout that fails (`echo`'s StdoutError) is one
    while it runs.  Any other exception propagates, so a bug still ends in a
    traceback."""
    try:
        try:
            precision_cap()
        except ValueError as exc:
            raise InputError(exc) from None
        command(*args)
    except _FAILING as exc:
        if isinstance(exc, StdoutError):
            # the flush at exit then sends what is left to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        prefix, code = next((p, c) for types, p, c in FAILURES if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


_DECIMAL = re.compile(r"-?[0-9]+")


def _digit_limit() -> str:
    return f"has more than {sys.get_int_max_str_digits()} decimal digits, the int/str limit"


def read_int(s: str) -> int:
    """An integer string of a CLI file: an optional `-`, then `0x` and hex
    digits as written, or decimal digits as in files written before hex.
    Any other string is a ValueError, and so is decimal text past CPython's
    int/str digit limit; hex has no limit.  A non-string is a TypeError.
    Each message reads on from the name of the field, as in `t must be an
    integer string`."""
    if not isinstance(s, str):
        raise TypeError("must be an integer string")
    if s.startswith(("0x", "-0x")):
        # int(s, 16) alone also takes underscores, surrounding whitespace and
        # non-ASCII digits
        if s.isascii() and "_" not in s and s[-1].isalnum():
            try:
                return int(s, 16)
            except ValueError:
                pass
    elif _DECIMAL.fullmatch(s):
        try:
            return int(s)
        except ValueError:  # the int/str digit limit, the only error left
            raise ValueError(f"{_digit_limit()} (hex has none)") from None
    raise ValueError("must be an integer string")


class _LongDigits(str):
    """A JSON integer past CPython's int/str digit limit, as its digits."""


def _parse_int(digits: str):
    try:
        return int(digits)
    except ValueError:  # the int/str digit limit, the only error left
        return _LongDigits(digits)


# the one decoder of every input file, built once (`json`'s one-call loader
# builds one per call when given `parse_int`)
_decode = json.JSONDecoder(parse_int=_parse_int).decode
JSON_INTEGER, INTEGER_STRING = "a JSON integer", "an integer string"


def read_field(name: str, v, kind: str | None = None) -> int:
    """The integer of field `name` of an input file: `kind` JSON_INTEGER, or
    INTEGER_STRING (of `read_int`), or by default either.  Anything else, a
    bool, a float or a JSON integer past the int/str digit limit included,
    is a ValueError whose message begins with `name`."""
    if type(v) is int and kind != INTEGER_STRING:
        return v
    if type(v) is _LongDigits and kind == JSON_INTEGER:  # no hex hint: the field takes no string
        raise ValueError(f"{name} {_digit_limit()}")
    if type(v) is str and kind != JSON_INTEGER or type(v) is _LongDigits:
        try:  # read_int refuses every _LongDigits
            return read_int(v)
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    raise ValueError(f"{name} must be {kind or f'an integer, not {v!r}'}")


def read_form(text: str) -> TernaryQuadraticForm:
    """The form of a JSON object with keys among a00, a11, a22, a01, a02,
    a12 (a missing key is 0), each an integer of `read_field`.  Anything
    else, another key included, is a ValueError; one about a coefficient
    names its key."""
    keys = ("a00", "a11", "a22", "a01", "a02", "a12")
    obj = _decode(text)
    if not isinstance(obj, dict):
        raise ValueError("the form must be a JSON object")
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ValueError(
            f"unknown key {', '.join(map(repr, unknown))}; a form has only {', '.join(keys)}"
        )
    return TernaryQuadraticForm(*(read_field(key, obj.get(key, 0)) for key in keys))


def _dyadic_json(d: Dyadic) -> dict:
    return {"exp": d.exp, "man": hex(d.man)}


def _real_json(x: CertifiedReal) -> dict:
    return {"hi": _dyadic_json(x.hi), "lo": _dyadic_json(x.lo), "precision": x.precision}


def _read(path: str) -> str:
    with open(path) as fp:
        return fp.read()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def echo(text: str = "") -> None:
    """Print `text` and flush stdout, if the process has one; any OSError of
    stdout, a broken pipe or a full disk, is a StdoutError.  Every command
    that `run` calls prints through it."""
    try:
        print(text, flush=True)
    except OSError as exc:
        raise StdoutError(exc) from None


def _write(outdir: str, files: dict[str, str], line: str) -> None:
    """Write {name: text} into outdir, creating it, and print `line`.  Every
    file goes to a temporary name first; `line` is printed and flushed once
    all are written, and only then are they moved into place.  If any step
    fails, no file of this call is left; an OSError of outdir or of a file
    is an InputError naming --out, one of stdout `echo`'s StdoutError."""
    staged: list[tuple[str, str]] = []
    placed: list[str] = []
    fault = f"cannot write to --out {outdir}"
    try:
        try:
            os.makedirs(outdir, exist_ok=True)
            for name, text in files.items():
                tmp = os.path.join(outdir, f".{name}.{os.getpid()}.tmp")
                staged.append((tmp, os.path.join(outdir, name)))
                with open(tmp, "w", newline="") as fp:
                    fp.write(text)
        except OSError as exc:
            raise InputError(f"{fault}: {exc}") from None
        echo(line)
        try:
            for tmp, final in staged:
                os.replace(tmp, final)
                placed.append(final)
        except OSError as exc:
            raise InputError(f"{fault}: {exc}") from None
    except (InputError, StdoutError):
        for path in [tmp for tmp, _ in staged] + placed:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        raise


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_reduce(args) -> None:
    try:
        phi = read_form(_read(args.form))
    except (OSError, ValueError, RecursionError) as exc:  # json nested too deep
        raise InputError(f"cannot read form: {exc}") from None
    red = reduce_form(phi)
    out = {
        "case": red.case,
        "mu": str(red.mu),
        "T": [[str(x) for x in row] for row in red.T],
        "b": str(red.b),
        "c": str(red.c),
    }
    echo(_dump(out))


def cmd_construct(args) -> None:
    if args.depth < 1:
        raise InputError("--depth must be at least 1")
    if args.precision < 1:
        raise InputError("--precision must be at least 1")
    target = ExtremalTarget(args.b, args.c)
    seq = extend(target.sequence, args.depth)
    enclosure = target.limit(args.precision)  # checks the cap before 2**precision
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
            "seed": [hex(v) for v in pell_seed(seq)],
            "tail_bound": _real_json(enclosure.tail_bound),
            "xi1": _real_json(enclosure.xi1),
            "xi2": _real_json(enclosure.xi2),
        }
    ) + "\n"
    out = args.out
    line = f"wrote {os.path.join(out, 'sequence.jsonl')} and {os.path.join(out, 'xi.json')}"
    _write(out, {"sequence.jsonl": sequence, "xi.json": xi}, line)


def _real_fields(x, key: str) -> tuple:
    """(lo man, lo exp, hi man, hi exp, precision) of the `_real_json` object
    `key`.  Anything else is a ValueError naming `key`, and the leaf at
    fault, as in `xi1.lo.exp`, when the shape holds."""
    shape = f"{key} must be an object with lo, hi and precision"
    try:
        lo, hi = x["lo"], x["hi"]
        return (
            read_field(f"{key}.lo.man", lo["man"], INTEGER_STRING),
            read_field(f"{key}.lo.exp", lo["exp"], JSON_INTEGER),
            read_field(f"{key}.hi.man", hi["man"], INTEGER_STRING),
            read_field(f"{key}.hi.exp", hi["exp"], JSON_INTEGER),
            read_field(f"{key}.precision", x["precision"], JSON_INTEGER),
        )
    except (KeyError, TypeError):
        raise ValueError(f"{shape}, lo and hi each with an integer-string man and an exp") from None
    except ValueError as exc:
        raise ValueError(f"{shape}; {exc}") from None


def _target_from_args(args):
    """The target, and for --xi the file's precision and enclosure fields.
    Naming more than one target, or none, is an InputError."""
    named = [
        flag
        for flag, given in (
            ("--xi", args.xi is not None),
            ("--sqrt", args.sqrt is not None),
            ("--b/--c", args.b is not None or args.c is not None),
        )
        if given
    ]
    if len(named) > 1:
        raise InputError(f"name one target, not {' and '.join(named)}")
    if args.xi is not None:
        try:
            obj = _decode(_read(args.xi))
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(exc) from None
        if not isinstance(obj, dict):
            raise InputError(f"--xi {args.xi} must hold a JSON object")
        needs = InputError(f"--xi {args.xi} needs a positive integer precision")
        try:
            precision = read_field("precision", obj.get("precision"), JSON_INTEGER)
        except ValueError:
            raise needs from None
        if precision < 1:
            raise needs
        try:
            claimed = {key: _real_fields(obj.get(key), key) for key in ("xi1", "xi2", "tail_bound")}
            bc = [read_field(key, obj.get(key), INTEGER_STRING) for key in ("b", "c")]
        except ValueError as exc:
            raise InputError(f"--xi {args.xi}: {exc}") from None
        return ExtremalTarget(*bc), (precision, claimed)
    if args.sqrt is not None:
        needs = InputError(f"--sqrt needs two non-negative integers A,B, not {args.sqrt!r}")
        try:
            a, b = (int(s) for s in args.sqrt.split(","))
        except ValueError:
            raise needs from None
        if a < 0 or b < 0:
            raise needs
        return SqrtPairTarget(a, b), None
    if args.b is not None and args.c is not None:
        return ExtremalTarget(args.b, args.c), None
    raise InputError("need --b/--c, --xi FILE, or --sqrt A,B")


def _legacy_tail_bound(target: ExtremalTarget, precision: int) -> tuple:
    """The `tail_bound` fields of an `xi.json` written before the tail bound
    moved to the grid of xi1 and xi2: the bound eps itself, at precision 64."""
    eps = limit_index(target.sequence, precision)[1]
    return _real_fields(_real_json(CertifiedReal(eps, eps, 64)), "tail_bound")


def cmd_enumerate(args) -> None:
    if args.xmax <= 0:
        raise InputError("--xmax must be positive")
    if args.precision is not None and args.precision < 1:
        raise InputError("--precision must be at least 1")
    target, xi = _target_from_args(args)
    if xi is not None:
        # the target keeps this enclosure, so a scan at no more bits reuses it
        precision, claimed = xi
        enc = target.limit(precision)
        for key, fields in claimed.items():
            if fields != _real_fields(_real_json(getattr(enc, key)), key) and not (
                key == "tail_bound" and fields == _legacy_tail_bound(target, precision)
            ):
                raise FileMismatch(
                    f"--xi {args.xi}: {key} differs from the enclosure recomputed "
                    f"at precision {precision}"
                )
    records = enumerate_minimal(target, args.xmax, bits=args.precision)
    if len(records) < 2:
        raise InputError(
            f"{len(records)} minimal point(s) up to --xmax {args.xmax}; "
            "the exponent estimate needs at least two"
        )
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
        rig = rigidity_check(target.sequence.form, records)
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
    _write(args.out, files, f"{len(records)} records; lambda-hat summary {report.summary:.5f}")


def _infer_bc(ys) -> tuple[int, int]:
    """(b, c) read off q(y) = 1: b from the first member (m, n, 0) with
    n != 0, then c from the first member with a third coordinate."""
    m, n, _ = next((y for y in ys if y[1] and not y[2]), (0, 0, 0))
    b, rest = divmod(m * m - 1, n * n) if n else (0, 1)
    if rest:
        raise ValueError("cannot infer b")
    x0, x1, x2 = next((y for y in ys if y[2]), (0, 0, 0))
    c, rest = divmod(x0 * x0 - b * x1 * x1 - 1, x2 * x2) if x2 else (0, 1)
    if rest:
        raise ValueError("cannot infer c")
    return b, c


def cmd_verify(args) -> None:
    """Prints one `PASS`/`FAIL` line per row's `norm_bits` and then one per
    verdict of `extremal.verdicts`; raises the first failure."""
    if (args.b is None) != (args.c is None):
        raise InputError("verify takes --b and --c together or neither")
    if args.b is not None:
        validate_bc(args.b, args.c)
    try:
        lines = _read(args.infile).strip().splitlines()
        if not lines:
            raise ValueError("empty file")
        rows = []
        for n, line in enumerate(lines, 1):
            obj = _decode(line)
            if not isinstance(obj, dict):
                raise ValueError(f"row {line[:40]!r} is not a JSON object")
            missing = [key for key in ("i", "y", "t", "norm_bits") if key not in obj]
            if missing:
                raise ValueError(f"line {n} has no {' or '.join(missing)} field")
            i = read_field(f"line {n}: i", obj["i"], JSON_INTEGER)
            if not isinstance(obj["y"], list) or len(obj["y"]) != 3:
                raise ValueError(f"row i={i}: y must be a list of 3 integers")
            y = tuple(read_field(f"row i={i}: y[{k}]", v, INTEGER_STRING) for k, v in enumerate(obj["y"]))
            t = read_field(f"row i={i}: t", obj["t"], INTEGER_STRING)
            rows.append((i, y, t, read_field(f"row i={i}: norm_bits", obj["norm_bits"], JSON_INTEGER)))
        indices, ys, ts, norm_bits = map(list, zip(*sorted(rows)))
        if len(rows) < 3 or indices != list(range(-1, len(rows) - 1)):
            raise ValueError("rows must hold indices -1, 0, 1, ... without gaps")
        b, c = (args.b, args.c) if args.b is not None else _infer_bc(ys)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot parse sequence file: {exc}") from None
    seq = ExtremalSequence(TernaryQuadraticForm(1, -b, -c), ys, ts, det3(ys[2], ys[1], ys[0]))
    checks = [("norm_bits", i, max_norm(y).bit_length() == k) for i, y, k in zip(indices, ys, norm_bits)]
    first_failure = None
    for name, index, ok in chain(checks, verdicts(seq)):
        echo(f"{'PASS' if ok else 'FAIL'}  {name} @ i={index}")
        if not ok and first_failure is None:
            first_failure = InvariantViolation(name, index)
    if first_failure is not None:
        raise first_failure  # `run` prints its one `invariant failure:` line


def cmd_pell(args) -> None:
    """Prints the solutions as decimal strings; a solution past the int/str
    digit limit is refused before any is converted, and no later one is
    computed.  The seed pair's second solution is the third, so at least
    three are checked."""
    if args.count < 1:
        raise InputError("--count must be at least 1")
    try:
        first, second = find_seed_pair(args.b)  # first is the fundamental solution
        expansion = cf_expansion(args.b, 12)
    except ValueError as exc:
        raise Rejected(exc) from None
    limit = sys.get_int_max_str_digits()  # 0 is no limit
    too_long = 10**limit if limit else None
    sols = []
    # range, unlike repeat's count, takes a --count past 2^63
    for k, s in zip(range(1, max(args.count, 3) + 1), accumulate(repeat(first), next_solution)):
        if too_long is not None and s.m >= too_long:
            raise Rejected(f"--b {args.b}: solution {k} {_digit_limit()}")
        sols.append(s)
    echo(
        _dump(
            {
                "b": str(args.b),
                "cf_expansion_prefix": expansion,
                "fundamental": {"m": str(first.m), "n": str(first.n)},
                "seed_pair": {
                    "first": {"m": str(first.m), "n": str(first.n)},
                    "second": {"m": str(second.m), "n": str(second.n)},
                },
                "solutions": [{"m": str(s.m), "n": str(s.n)} for s in sols[: args.count]],
            }
        )
    )


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
    return run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
