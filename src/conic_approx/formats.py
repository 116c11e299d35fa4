"""The CLI's file formats, each with one writer and, where a command reads
it, one reader; README's "File formats" table lists their keys.  Every input
is decoded by `_decode` and read field by field by `read_field`, and every
JSON text is written by `_dump`, with sorted keys.  A reader raises
ValueError, or RecursionError on JSON nested too deep (`load_xi` raises a
ValueError for that too)."""
from __future__ import annotations

import csv
import io
import json
import re
import sys

from .extremal import pell_seed
from .limit import CertifiedVec3, limit_index
from .numerics import CertifiedReal, Dyadic
from .quadform import TernaryQuadraticForm, max_norm
from .records import FrozenRecord

_DECIMAL = re.compile(r"-?[0-9]+")


def digit_limit() -> str:
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
            raise ValueError(f"{digit_limit()} (hex has none)") from None
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
        raise ValueError(f"{name} {digit_limit()}")
    if type(v) is str and kind != JSON_INTEGER or type(v) is _LongDigits:
        try:  # read_int refuses every _LongDigits
            return read_int(v)
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    raise ValueError(f"{name} must be {kind or f'an integer, not {v!r}'}")


def read_text(path: str) -> str:
    with open(path) as fp:
        return fp.read()


def write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fp:
        fp.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


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


def dump_reduction(red) -> str:
    """The stdout of `reduce`, every number a decimal string."""
    return _dump(
        {
            "case": red.case,
            "mu": str(red.mu),
            "T": [[str(x) for x in row] for row in red.T],
            "b": str(red.b),
            "c": str(red.c),
        }
    )


def dump_sequence(seq) -> str:
    """The sequence file of `seq`, a row for each stored index from -1 on."""
    rows = (
        {"i": i, "norm_bits": max_norm(y).bit_length(), "t": hex(t), "y": [hex(v) for v in y]}
        for i, (y, t) in enumerate(zip(seq.ys, seq.ts), -1)
    )
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


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


def load_sequence(text: str, bc: tuple[int, int] | None = None) -> tuple:
    """(b, c, ys, ts, checks) of a sequence file whose rows hold the indices
    -1, 0, 1, ... without gaps: (b, c) is `bc`, or read off the members when
    None, and checks holds ("norm_bits", i, whether row i's `norm_bits` is
    its member's).  A message about a field names its line or row."""
    lines = text.strip().splitlines()
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
    checks = [("norm_bits", i, max_norm(y).bit_length() == k) for i, y, k in zip(indices, ys, norm_bits)]
    return (*(_infer_bc(ys) if bc is None else bc), ys, ts, checks)


def _dyadic_json(d: Dyadic) -> dict:
    return {"exp": d.exp, "man": hex(d.man)}


def _real_json(x: CertifiedReal) -> dict:
    return {"hi": _dyadic_json(x.hi), "lo": _dyadic_json(x.lo), "precision": x.precision}


def dump_xi(seq, depth: int, precision: int, enc: CertifiedVec3) -> str:
    """The `xi.json` of `construct --depth depth --precision precision`."""
    return _dump(
        {
            "b": str(seq.b),
            "c": str(seq.c),
            "depth": depth,
            "precision": precision,
            "seed": [hex(v) for v in pell_seed(seq)],
            "tail_bound": _real_json(enc.tail_bound),
            "xi1": _real_json(enc.xi1),
            "xi2": _real_json(enc.xi2),
        }
    ) + "\n"


def _claimed(x, key: str) -> CertifiedReal:
    """The enclosure `key` of an `xi.json`, built from its fields exactly as
    written, an empty one (lo above hi) included, so that a tampered one
    differs from the enclosure recomputed.  A ValueError names `key`, and
    the leaf at fault, as in `xi1.lo.exp`, when the shape holds."""
    shape = f"{key} must be an object with lo, hi and precision"
    try:
        fields = [
            Dyadic(
                read_field(f"{key}.{end}.man", d["man"], INTEGER_STRING),
                read_field(f"{key}.{end}.exp", d["exp"], JSON_INTEGER),
            )
            for end, d in (("lo", x["lo"]), ("hi", x["hi"]))
        ] + [read_field(f"{key}.precision", x["precision"], JSON_INTEGER)]
    except (KeyError, TypeError):
        raise ValueError(f"{shape}, lo and hi each with an integer-string man and an exp") from None
    except ValueError as exc:
        raise ValueError(f"{shape}; {exc}") from None
    claimed = object.__new__(CertifiedReal)  # past `__init__`'s check for an empty interval
    FrozenRecord.__init__(claimed, *fields)
    return claimed


def load_xi(text: str, source: str) -> tuple[int, int, int, CertifiedVec3]:
    """(b, c, precision, enclosure) of an `xi.json`, the enclosure as the
    file claims it; a ValueError about its content begins with `source`, and
    JSON nested too deep is one."""
    try:
        obj = _decode(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{source}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{source} must hold a JSON object")
    needs = ValueError(f"{source} needs a positive integer precision")
    try:
        precision = read_field("precision", obj.get("precision"), JSON_INTEGER)
    except ValueError:
        raise needs from None
    if precision < 1:
        raise needs
    try:
        claimed = CertifiedVec3(*(_claimed(obj.get(key), key) for key in ("xi1", "xi2", "tail_bound")))
        b, c = (read_field(key, obj.get(key), INTEGER_STRING) for key in ("b", "c"))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return b, c, precision, claimed


def legacy_enclosure(enc: CertifiedVec3, seq, precision: int) -> CertifiedVec3:
    """`enc` as an `xi.json` written before the tail bound moved to the grid
    of xi1 and xi2 held it: the bound itself, at precision 64."""
    eps = limit_index(seq, precision)[1]
    return CertifiedVec3(enc.xi1, enc.xi2, CertifiedReal(eps, eps, 64))


def dump_records(records, report, fmt: str) -> str:
    """`records.csv` (`fmt` "csv") or `records.json`, a row per record."""
    hats = dict(report.lambda_hats)
    rows = [
        {
            "i": i,
            "X_i": str(rec.X),
            "x1": str(rec.x[1]),
            "x2": str(rec.x[2]),
            "L_i_lo": repr(float(rec.L.lo)),
            "L_i_hi": repr(float(rec.L.hi)),
            "lambda_hat_i": repr(hats[i]) if i in hats else "",
        }
        for i, rec in enumerate(records)
    ]
    if fmt == "json":
        return _dump(rows) + "\n"
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=["i", "X_i", "x1", "x2", "L_i_lo", "L_i_hi", "lambda_hat_i"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def dump_report(report, rigidity) -> str:
    """`report.json`; `rigidity` None (no form) writes null."""
    if rigidity is not None:
        rigidity = {
            "checks": [{"k": k, "passed": ok} for k, ok in rigidity.checks],
            "first_holding": rigidity.first_holding,
            "insufficient_data": rigidity.insufficient,
        }
    return _dump(
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


def _solution(s) -> dict:
    return {"m": str(s.m), "n": str(s.n)}


def dump_pell(b: int, expansion: list, first, second, solutions) -> str:
    """The stdout of `pell`, every solution's numbers decimal strings."""
    return _dump(
        {
            "b": str(b),
            "cf_expansion_prefix": expansion,
            "fundamental": _solution(first),
            "seed_pair": {"first": _solution(first), "second": _solution(second)},
            "solutions": [_solution(s) for s in solutions],
        }
    )
