"""Round trips of the CLI's file formats: each writer of `formats` against
its reader, or, for the files no command reads, against the test's own
`csv` and `json` parse."""
import csv
import io
import json
import sys

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conic_approx.extremal import ExtremalSequence, extend, pell_seed, seed_triple
from conic_approx.formats import (
    dump_records,
    dump_report,
    dump_sequence,
    dump_xi,
    legacy_enclosure,
    load_sequence,
    load_xi,
    read_form,
    read_int,
)
from conic_approx.minpoints import enumerate_minimal, estimate_lambda, rigidity_check
from conic_approx.quadform import TernaryQuadraticForm, max_norm
from conic_approx.targets import ExtremalTarget, SqrtPairTarget

PAIRS = [(2, 3), (3, 11), (5, 7)]
DEEPEST = 24
# decimal text is quadratic to write, so legacy files stop here; (2, 3)
# members pass CPython's 4300-digit int/str limit from depth 16 on
DEEPEST_DECIMAL = 20


@pytest.fixture(scope="module")
def deep():
    """One sequence per pair, at depth 24 for (2, 3) and 18 for the others;
    each drawn sequence is a prefix of one of them."""
    return {bc: extend(seed_triple(*bc), DEEPEST if bc == (2, 3) else 18) for bc in PAIRS}


def as_decimal(text: str) -> str:
    """The rows with every integer string in decimal, as files were written
    before hex."""
    rows = [json.loads(line) for line in text.splitlines()]
    for r in rows:
        r["y"], r["t"] = [str(read_int(v)) for v in r["y"]], str(read_int(r["t"]))
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sequence_file_round_trip(deep, data):
    bc = data.draw(st.sampled_from(PAIRS), label="pair")
    full = deep[bc]
    # about half of the depths have members past 4300 digits
    depth = data.draw(st.one_of(st.integers(1, 15), st.integers(16, full.depth)), label="depth")
    decimal = depth <= DEEPEST_DECIMAL and data.draw(st.booleans(), label="decimal")
    seq = ExtremalSequence(full.form, full.ys[: depth + 2], full.ts[: depth + 2], full.det0)
    past = max_norm(seq.y(depth)) >= 10**4300
    event(f"{'decimal' if decimal else 'hex'}, {'past' if past else 'within'} 4300 digits")
    # a row whose norm_bits is off reads back as the one failed check
    off = data.draw(st.sampled_from([None, *range(-1, depth + 1)]), label="norm_bits off at")
    by = data.draw(st.sampled_from([-1, 1]), label="by")
    old = sys.get_int_max_str_digits()
    # hex reads past CPython's default limit; decimal text needs it lifted
    sys.set_int_max_str_digits(0 if decimal else 4300)
    try:
        rows = dump_sequence(seq).splitlines(keepends=True)
        if off is not None:
            row = json.loads(rows[off + 1])
            rows[off + 1] = json.dumps({**row, "norm_bits": row["norm_bits"] + by}) + "\n"
        text = "".join(rows)
        b, c, ys, ts, checks = load_sequence(as_decimal(text) if decimal else text)
    finally:
        sys.set_int_max_str_digits(old)
    assert (b, c) == bc
    assert ys == seq.ys and ts == seq.ts
    assert checks == [("norm_bits", i, i != off) for i in range(-1, depth + 1)]


def test_sequence_file_at_the_deepest_depth(deep):
    seq = deep[(2, 3)]
    assert seq.depth == DEEPEST and seq.y(16)[0] >= 10**4300
    assert load_sequence(dump_sequence(seq))[2:4] == (seq.ys, seq.ts)


@settings(max_examples=25, deadline=None)
@given(
    bc=st.sampled_from(PAIRS),
    depth=st.integers(1, 8),
    precision=st.integers(1, 300),
    legacy=st.booleans(),
)
def test_xi_file_round_trip(bc, depth, precision, legacy):
    target = ExtremalTarget(*bc)
    seq = extend(target.sequence, depth)
    enc = target.limit(precision)
    if legacy:  # the tail bound itself, at precision 64
        enc = legacy_enclosure(enc, target.sequence, precision)
        assert enc.tail_bound.precision == 64
    text = dump_xi(seq, depth, precision, enc)
    assert load_xi(text, "--xi F") == (*bc, precision, enc)
    obj = json.loads(text)
    assert obj["depth"] == depth
    assert [read_int(v) for v in obj["seed"]] == list(pell_seed(seq))


KEYS = ("a00", "a11", "a22", "a01", "a02", "a12")
SPELLINGS = {"json": lambda v: v, "decimal": str, "hex": hex}


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.dictionaries(
        st.sampled_from(KEYS),
        st.tuples(st.integers(-(2**200), 2**200), st.sampled_from(sorted(SPELLINGS))),
    )
)
def test_form_file_reads_every_spelling(coeffs):
    values = {key: v for key, (v, _) in coeffs.items()}
    assume(any(values.values()))
    text = json.dumps({key: SPELLINGS[spell](v) for key, (v, spell) in coeffs.items()})
    assert read_form(text) == TernaryQuadraticForm(*(values.get(key, 0) for key in KEYS))


TARGETS = [SqrtPairTarget(2, 3), SqrtPairTarget(5, 7), ExtremalTarget(2, 3), ExtremalTarget(3, 11)]


@settings(max_examples=12, deadline=None)
@given(target=st.sampled_from(TARGETS), xmax=st.integers(50, 3000))
def test_records_and_report_parse_to_the_records_fields(target, xmax):
    records = enumerate_minimal(target, xmax)
    assume(len(records) >= 2)
    report = estimate_lambda(records)
    hats = dict(report.lambda_hats)
    from_csv = list(csv.DictReader(io.StringIO(dump_records(records, report, "csv"), newline="")))
    from_json = json.loads(dump_records(records, report, "json"))
    indices = list(range(len(records)))
    assert [int(row.pop("i")) for row in from_csv] == [row.pop("i") for row in from_json] == indices
    assert from_csv == from_json  # the same strings once i is read
    for i, (row, rec) in enumerate(zip(from_json, records)):
        assert (int(row["X_i"]), int(row["x1"]), int(row["x2"])) == (rec.X, rec.x[1], rec.x[2])
        assert (float(row["L_i_lo"]), float(row["L_i_hi"])) == (float(rec.L.lo), float(rec.L.hi))
        assert row["lambda_hat_i"] == ("" if i not in hats else repr(hats[i]))
    rigidity = rigidity_check(target.sequence.form, records) if isinstance(target, ExtremalTarget) else None
    obj = json.loads(dump_report(report, rigidity))
    for key in ("alpha", "c_lower", "summary", "theta"):
        assert float(obj[key]) == getattr(report, key)
    assert obj["independence_set"] == list(report.independence_set)
    assert [(i, float(h)) for i, h in obj["lambda_hats"]] == list(report.lambda_hats)
    if rigidity is None:
        assert obj["rigidity"] is None
    else:
        assert obj["rigidity"] == {
            "checks": [{"k": k, "passed": ok} for k, ok in rigidity.checks],
            "first_holding": rigidity.first_holding,
            "insufficient_data": rigidity.insufficient,
        }
