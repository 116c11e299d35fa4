"""Command-line front end: reduce forms, construct extremal points, enumerate
minimal points, verify sequence files, and print Pell data.

Exit codes: 0 success, 2 input error, 3 mathematical rejection, 4 invariant
failure.  Commands raise; `run` alone prints the one line of a failure and
picks its code from `FAILURES`.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import accumulate, chain, repeat

from . import formats
from .extremal import (
    ExtremalSequence,
    InvariantViolation,
    UnsupportedConstruction,
    extend,
    validate_bc,
    verdicts,
)
from .minpoints import enumerate_minimal, estimate_lambda, rigidity_check
from .numerics import PrecisionCapError, precision_cap
from .pell import cf_expansion, find_seed_pair, next_solution
from .quadform import (
    FormRejected,
    ReductionIdentityError,
    TernaryQuadraticForm,
    det3,
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
    fails, no file of this call is left, nor a directory it created; an
    OSError of outdir or of a file is an InputError naming --out, one of
    stdout `echo`'s StdoutError."""
    staged: list[tuple[str, str]] = []
    placed: list[str] = []
    created = []  # outdir and its parents that do not exist yet, deepest first
    parent = os.path.abspath(outdir)
    while not os.path.exists(parent):
        created.append(parent)
        parent = os.path.dirname(parent)
    fault = f"cannot write to --out {outdir}"
    try:
        try:
            os.makedirs(outdir, exist_ok=True)
            for name, text in files.items():
                tmp = os.path.join(outdir, f".{name}.{os.getpid()}.tmp")
                staged.append((tmp, os.path.join(outdir, name)))
                formats.write_text(tmp, text)
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
        for path in created:
            try:
                os.rmdir(path)
            except OSError:  # one that another process has filled stays
                pass
        raise


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_reduce(args) -> None:
    try:
        phi = formats.read_form(formats.read_text(args.form))
    except (OSError, ValueError, RecursionError) as exc:  # json nested too deep
        raise InputError(f"cannot read form: {exc}") from None
    echo(formats.dump_reduction(reduce_form(phi)))


def cmd_construct(args) -> None:
    if args.depth < 1:
        raise InputError("--depth must be at least 1")
    if args.precision < 1:
        raise InputError("--precision must be at least 1")
    target = ExtremalTarget(args.b, args.c)
    seq = extend(target.sequence, args.depth)
    sequence = formats.dump_sequence(seq)  # before the limit point extends seq past --depth
    enclosure = target.limit(args.precision)  # checks the cap before 2**precision
    xi = formats.dump_xi(seq, args.depth, args.precision, enclosure)
    out = args.out
    line = f"wrote {os.path.join(out, 'sequence.jsonl')} and {os.path.join(out, 'xi.json')}"
    _write(out, {"sequence.jsonl": sequence, "xi.json": xi}, line)


def _target_from_args(args):
    """The target, and for --xi the file's precision and claimed enclosure.
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
            b, c, precision, claimed = formats.load_xi(formats.read_text(args.xi), f"--xi {args.xi}")
        except (OSError, ValueError) as exc:
            raise InputError(exc) from None
        return ExtremalTarget(b, c), (precision, claimed)
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


def estimable_records(target, xmax: int, bits: int | None = None) -> list:
    """`enumerate_minimal(target, xmax, bits=bits)`; an InputError naming
    --xmax when it finds fewer than the two records an exponent estimate
    needs."""
    records = enumerate_minimal(target, xmax, bits=bits)
    if len(records) < 2:
        raise InputError(
            f"{len(records)} minimal point(s) up to --xmax {xmax}; "
            "the exponent estimate needs at least two"
        )
    return records


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
        if claimed != enc and claimed != formats.legacy_enclosure(enc, target.sequence, precision):
            key = next(k for k in enc.__slots__ if getattr(claimed, k) != getattr(enc, k))
            raise FileMismatch(
                f"--xi {args.xi}: {key} differs from the enclosure recomputed at precision {precision}"
            )
    records = estimable_records(target, args.xmax, args.precision)
    report = estimate_lambda(records)
    rigidity = rigidity_check(target.sequence.form, records) if isinstance(target, ExtremalTarget) else None
    files = {
        f"records.{args.format}": formats.dump_records(records, report, args.format),
        "report.json": formats.dump_report(report, rigidity),
    }
    _write(args.out, files, f"{len(records)} records; lambda-hat summary {report.summary:.5f}")


def cmd_verify(args) -> None:
    """Prints one `PASS`/`FAIL` line per row's `norm_bits` and then one per
    verdict of `extremal.verdicts`; raises the first failure."""
    if (args.b is None) != (args.c is None):
        raise InputError("verify takes --b and --c together or neither")
    try:
        bc = None if args.b is None else (args.b, args.c)
        b, c, ys, ts, checks = formats.load_sequence(formats.read_text(args.infile), bc)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot parse sequence file: {exc}") from None
    validate_bc(b, c)  # given or inferred, the pair `construct` accepts
    seq = ExtremalSequence(TernaryQuadraticForm(1, -b, -c), ys, ts, det3(ys[2], ys[1], ys[0]))
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
        raise Rejected(f"--b {args.b}: {exc}") from None
    limit = sys.get_int_max_str_digits()  # 0 is no limit
    too_long = 10**limit if limit else None
    sols = []
    # range, unlike repeat's count, takes a --count past 2^63
    for k, s in zip(range(1, max(args.count, 3) + 1), accumulate(repeat(first), next_solution)):
        if too_long is not None and s.m >= too_long:
            raise Rejected(f"--b {args.b}: solution {k} {formats.digit_limit()}")
        sols.append(s)
    echo(formats.dump_pell(args.b, expansion, first, second, sols[: args.count]))


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
