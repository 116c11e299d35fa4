"""Command-line behavior: exit codes, files, round trips, determinism."""
import builtins
import json
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conic_approx import targets
from conic_approx.cli import build_parser, main, read_int
from conic_approx.extremal import (
    IDENTITIES,
    SEED_IDENTITIES,
    InvariantViolation,
    extend,
    limit_point,
    seed_triple,
)

ANISO_FORM = {
    "a00": "1", "a11": "-2", "a22": "-3", "a01": "0", "a02": "0", "a12": "0",
}


@pytest.fixture
def int_str_limit():
    """CPython's default int/str digit limit, whatever the environment set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def unwritable(tmp_path) -> str:
    """An --out below a regular file, so creating it raises NotADirectoryError."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    return str(blocker / "run")


def as_decimal(f: Path) -> str:
    """The rows of a sequence file with every integer string in decimal, as
    files were written before hex; the int/str digit limit is lifted here."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        for r in rows:
            r["y"], r["t"] = [str(read_int(v)) for v in r["y"]], str(read_int(r["t"]))
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    finally:
        sys.set_int_max_str_digits(old)


def assert_one_line(capsys, prefix: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def write_form(tmp_path, coeffs, name="form.json"):
    p = tmp_path / name
    p.write_text(json.dumps(coeffs))
    return str(p)


class TestReduce:
    def test_anisotropic(self, tmp_path, capsys):
        rc = main(["reduce", "--form", write_form(tmp_path, ANISO_FORM)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case"] == "anisotropic"
        assert (out["b"], out["c"]) == ("2", "3")

    def test_parabola(self, tmp_path, capsys):
        coeffs = dict(ANISO_FORM, a00="0", a11="-1", a22="0", a02="1")
        rc = main(["reduce", "--form", write_form(tmp_path, coeffs)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["case"] == "parabola"

    def test_definite_rejected(self, tmp_path):
        coeffs = dict(ANISO_FORM, a11="2", a22="3")
        assert main(["reduce", "--form", write_form(tmp_path, coeffs)]) == 3

    def test_missing_file(self):
        assert main(["reduce", "--form", "/nonexistent/form.json"]) == 2

    def test_format_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--form", write_form(tmp_path, ANISO_FORM), "--format", "json"])
        assert exc.value.code == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["reduce", "--form", str(p)]) == 2


class TestConstruct:
    def test_writes_sequence_and_target(self, tmp_path):
        rc = main(
            ["construct", "--b", "2", "--c", "3", "--depth", "6", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "sequence.jsonl").read_text().strip().splitlines()
        assert len(lines) == 8  # indices -1..6
        rows = [json.loads(s) for s in lines]
        assert read_int(rows[3]["t"]) == 26922
        assert [read_int(v) for v in rows[2]["y"]] == [198, 140, 1]
        xi = json.loads((tmp_path / "xi.json").read_text())
        assert xi["b"] == "2" and xi["c"] == "3"

    def test_non_squarefree_rejected(self, tmp_path):
        assert main(["construct", "--b", "4", "--c", "3", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("depth", ["0", "-5"])
    def test_depth_below_one_rejected_before_out_is_created(self, tmp_path, capsys, depth):
        out = tmp_path / "run"
        rc = main(["construct", "--b", "2", "--c", "3", "--depth", depth, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "--depth" in capsys.readouterr().err

    @pytest.mark.parametrize("precision", ["-1", "0"])
    def test_precision_below_one_rejected_before_out_is_created(self, tmp_path, capsys, precision):
        out = tmp_path / "run"
        argv = ["construct", "--b", "2", "--c", "3", "--precision", precision, "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--precision" in err and err.count("\n") == 1

    def test_precision_past_the_cap_is_rejected_before_the_width_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        # the width 2**-precision alone would take 2 MiB at this precision
        monkeypatch.delenv("CONIC_APPROX_MAX_BITS", raising=False)
        out = tmp_path / "run"
        argv = ["construct", "--b", "2", "--c", "3", "--depth", "1", "--out", str(out)]
        tracemalloc.start()
        try:
            rc = main([*argv, "--precision", str(2**24)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 3
        assert_one_line(capsys, "precision cap: ")
        assert peak < 2**20 and not out.exists()

    @pytest.mark.parametrize("depth", [16, 20])
    def test_round_trip_past_the_int_str_limit(self, tmp_path, depth, int_str_limit):
        # the depth-16 members already have more than 4300 decimal digits
        argv = ["construct", "--b", "2", "--c", "3", "--depth", str(depth), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main(["verify", "--in", str(tmp_path / "sequence.jsonl")]) == 0
        xi = str(tmp_path / "xi.json")
        assert main(["enumerate", "--xi", xi, "--xmax", "1000", "--out", str(tmp_path)]) == 0

    def test_deepest_depth_within_the_int_str_limit(self, tmp_path, int_str_limit):
        argv = ["construct", "--b", "2", "--c", "3", "--depth", "15", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main(["verify", "--in", str(tmp_path / "sequence.jsonl")]) == 0

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        argv = ["construct", "--b", "2", "--c", "3", "--depth", "4", "--out", unwritable(tmp_path)]
        assert main(argv) == 2
        assert_one_line(capsys, "error: cannot write to --out ")

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        real_open = builtins.open

        def failing_open(file, *args, **kwargs):
            if "xi.json" in Path(file).name:  # the second file, under any name
                raise OSError(28, "No space left on device")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        out = tmp_path / "run"
        argv = ["construct", "--b", "2", "--c", "3", "--depth", "4", "--out", str(out)]
        assert main(argv) == 2
        assert_one_line(capsys, "error: cannot write to --out ")
        assert list(out.iterdir()) == []

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(
                ["construct", "--b", "2", "--c", "3", "--depth", "5", "--out", str(d)]
            ) == 0
        assert (a / "sequence.jsonl").read_bytes() == (b / "sequence.jsonl").read_bytes()
        assert (a / "xi.json").read_bytes() == (b / "xi.json").read_bytes()


class TestVerify:
    def _construct(self, tmp_path):
        assert main(
            ["construct", "--b", "2", "--c", "3", "--depth", "6", "--out", str(tmp_path)]
        ) == 0
        return tmp_path / "sequence.jsonl"

    def test_round_trip_passes(self, tmp_path):
        f = self._construct(tmp_path)
        assert main(["verify", "--in", str(f)]) == 0

    def test_tampered_coordinate_fails(self, tmp_path, capsys):
        f = self._construct(tmp_path)
        rows = [json.loads(s) for s in f.read_text().strip().splitlines()]
        rows[4]["y"][0] = hex(read_int(rows[4]["y"][0]) + 1)
        f.write_text("\n".join(json.dumps(r) for r in rows))
        assert main(["verify", "--in", str(f)]) == 4
        out = capsys.readouterr().out
        assert "FAIL" in out and "unit value" in out

    @pytest.mark.parametrize("flag", [["--b", "5"], ["--c", "7"]])
    def test_lone_b_or_c_is_input_error(self, tmp_path, capsys, flag):
        f = self._construct(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--in", str(f), *flag]) == 2
        assert_one_line(capsys, "error: ")

    @pytest.mark.parametrize("b,c", [("0", "3"), ("2", "4"), ("-2", "3")])
    def test_pair_that_construct_rejects_is_rejected(self, tmp_path, capsys, b, c):
        f = self._construct(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--in", str(f), "--b", b, "--c", c]) == 3
        assert_one_line(capsys, "rejected: ")

    def test_given_pair_replaces_the_inferred_one(self, tmp_path, capsys):
        f = self._construct(tmp_path)
        assert main(["verify", "--in", str(f), "--b", "2", "--c", "3"]) == 0
        assert main(["verify", "--in", str(f), "--b", "3", "--c", "2"]) == 4

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.jsonl"
        f.write_text("")
        assert main(["verify", "--in", str(f)]) == 2

    def test_row_with_two_coordinates_is_input_error(self, tmp_path, capsys):
        f = self._construct(tmp_path)
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        rows[4]["y"] = rows[4]["y"][:2]
        f.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["verify", "--in", str(f)]) == 2
        assert_one_line(capsys, "error: cannot parse sequence file: ")

    def test_row_whose_y_is_a_string_is_input_error(self, tmp_path, capsys):
        # "100" would otherwise be read digit by digit as y_{-1} = (1, 0, 0)
        f = self._construct(tmp_path)
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        rows[0]["y"] = "100"
        f.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["verify", "--in", str(f)]) == 2
        assert_one_line(capsys, "error: cannot parse sequence file: ")

    def test_rows_that_are_lists_are_input_error(self, tmp_path, capsys):
        f = self._construct(tmp_path)
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        f.write_text("".join(json.dumps(list(r.values())) + "\n" for r in rows))
        assert main(["verify", "--in", str(f)]) == 2
        assert_one_line(capsys, "error: cannot parse sequence file: ")

    def test_gap_in_indices_is_input_error(self, tmp_path):
        f = self._construct(tmp_path)
        lines = f.read_text().strip().splitlines()
        f.write_text("\n".join(lines[:4] + lines[5:]))
        assert main(["verify", "--in", str(f)]) == 2

    def test_missing_seed_row_is_input_error(self, tmp_path):
        f = self._construct(tmp_path)
        lines = f.read_text().strip().splitlines()
        f.write_text("\n".join(lines[1:]))
        assert main(["verify", "--in", str(f)]) == 2

    def test_decimal_file_verifies_like_the_hex_file(self, tmp_path, capsys):
        f = self._construct(tmp_path)
        legacy = tmp_path / "decimal.jsonl"
        legacy.write_text(as_decimal(f))
        capsys.readouterr()
        assert main(["verify", "--in", str(f)]) == 0
        from_hex = capsys.readouterr().out
        assert main(["verify", "--in", str(legacy)]) == 0
        assert capsys.readouterr().out == from_hex

    def test_decimal_file_past_the_digit_limit_is_input_error(self, tmp_path, capsys, int_str_limit):
        argv = ["construct", "--b", "2", "--c", "3", "--depth", "16", "--out", str(tmp_path)]
        assert main(argv) == 0
        legacy = tmp_path / "decimal.jsonl"
        legacy.write_text(as_decimal(tmp_path / "sequence.jsonl"))
        capsys.readouterr()
        assert main(["verify", "--in", str(legacy)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot parse sequence file: ") and err.count("\n") == 1, err


BIG = 2**100_000


@st.composite
def signed_ints(draw, max_bits=100_000):
    """Integers of up to max_bits bits and either sign, the bits drawn from a seeded PRNG."""
    v = draw(st.randoms(use_true_random=False)).getrandbits(draw(st.integers(0, max_bits)))
    return -v if draw(st.booleans()) else v


@settings(max_examples=40, deadline=None)
@given(signed_ints())
@example(0)
@example(-1)
@example(BIG - 1)
@example(1 - BIG)
def test_read_int_inverts_hex_and_str(v):
    assert read_int(hex(v)) == v  # hex has no digit limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert read_int(str(v)) == v
    finally:
        sys.set_int_max_str_digits(old)


def _checked_names(out: str) -> set[str]:
    """Identity names in verify's `PASS  name @ i=k` / `FAIL  ...` lines."""
    return {line[6:].rsplit(" @ i=", 1)[0] for line in out.splitlines()}


def _tamper(ys, ts, member, how, j=3):
    """Apply `how` to y_j[0] or to t_j, in lists where ys[k] holds y_{k-1}."""
    if member == "y":
        y = ys[j + 1]
        ys[j + 1] = (how(y[0]), y[1], y[2])
    else:
        ts[j + 1] = how(ts[j + 1])


# (identity, member tampered at index 3, tamper): `verify` reports the
# identity as failed, and an `extend` past the tampered member raises.
INDEX_TAMPERS = [
    ("unit value of the form", "y", lambda v: v + 1),
    ("reflection-operator recurrence", "y", lambda v: v + 1),
    ("inner product t_{i-1} = B(y_i, y_{i-1})", "t", lambda v: v + 1),
    ("inner product t_i = B(y_i, y_{i-2})", "t", lambda v: v + 1),
    ("constant determinant", "y", lambda v: v + 1),
    ("t recurrence", "t", lambda v: v + 1),
    ("double inequality on t", "t", lambda v: 2 * v),
    ("double inequality on norms", "y", lambda v: 2 * v),
]

# Seed members only `verify` can tamper with: `seed_triple` computes them.
SEED_TAMPERS = [
    ("unit value of the form on the seed", "y", lambda v: v + 1, 0),
    ("seed inner products", "t", lambda v: v + 1, 0),
    ("strictly increasing seed inner products", "t", lambda v: -v, -1),
    ("strictly increasing seed norms", "y", lambda v: 10**6, -1),
    ("linear independence of the seed triple", "y", lambda v: 0, -1),
]


class TestIdentityTable:
    def _rows(self, tmp_path):
        assert main(
            ["construct", "--b", "2", "--c", "3", "--depth", "6", "--out", str(tmp_path)]
        ) == 0
        f = tmp_path / "sequence.jsonl"
        return f, [json.loads(s) for s in f.read_text().strip().splitlines()]

    def _verify_tampered(self, tmp_path, capsys, member, how, j):
        f, rows = self._rows(tmp_path)
        ys = [tuple(read_int(v) for v in r["y"]) for r in rows]
        ts = [read_int(r["t"]) for r in rows]
        _tamper(ys, ts, member, how, j)
        for r, y, t in zip(rows, ys, ts):
            r["y"], r["t"] = [hex(v) for v in y], hex(t)
            r["norm_bits"] = max(abs(v) for v in y).bit_length()
        f.write_text("\n".join(json.dumps(r) for r in rows))
        capsys.readouterr()
        rc = main(["verify", "--in", str(f), "--b", "2", "--c", "3"])
        return rc, capsys.readouterr().out

    def test_every_entry_has_a_tamper(self):
        assert [name for name, _, _ in INDEX_TAMPERS] == [name for name, _ in IDENTITIES]
        assert [t[0] for t in SEED_TAMPERS] == [name for name, _ in SEED_IDENTITIES]

    @pytest.mark.parametrize("name,member,how", INDEX_TAMPERS, ids=[t[0] for t in INDEX_TAMPERS])
    def test_tamper_detected_by_extend_and_verify(self, tmp_path, capsys, name, member, how):
        seq = extend(seed_triple(2, 3), 4)
        _tamper(seq.ys, seq.ts, member, how)
        with pytest.raises(InvariantViolation):
            extend(seq, 6)
        rc, out = self._verify_tampered(tmp_path, capsys, member, how, 3)
        assert rc == 4
        assert f"FAIL  {name} @ i=" in out

    @pytest.mark.parametrize(
        "name,member,how,j", SEED_TAMPERS, ids=[t[0] for t in SEED_TAMPERS]
    )
    def test_seed_tamper_detected_by_verify(self, tmp_path, capsys, name, member, how, j):
        rc, out = self._verify_tampered(tmp_path, capsys, member, how, j)
        assert rc == 4
        assert f"FAIL  {name} @ i=1" in out

    @pytest.mark.parametrize(
        "member,how",
        [t[1:] for t in INDEX_TAMPERS] + [("y", lambda v: v)],
        ids=[t[0] for t in INDEX_TAMPERS] + ["untampered"],
    )
    def test_verify_output_equals_the_det3_path(self, tmp_path, capsys, request, member, how):
        gram = self._verify_tampered(tmp_path / "gram", capsys, member, how, 3)
        request.getfixturevalue("det3_forced")
        assert self._verify_tampered(tmp_path / "det3", capsys, member, how, 3) == gram

    def test_tampered_det0_detected_by_extend(self):
        seq = extend(seed_triple(2, 3), 4)
        seq.det0 += 1
        with pytest.raises(InvariantViolation) as err:
            extend(seq, 5)
        assert err.value.identity == "constant determinant"

    def test_verify_prints_exactly_the_table(self, tmp_path, capsys):
        f, _ = self._rows(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--in", str(f)]) == 0
        names = {name for name, _ in SEED_IDENTITIES + IDENTITIES}
        assert _checked_names(capsys.readouterr().out) == names | {"norm_bits"}


class TestEnumerate:
    def test_extremal_bc(self, tmp_path):
        rc = main(
            ["enumerate", "--b", "2", "--c", "3", "--xmax", "5000", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "records.csv").read_text().strip().splitlines()
        assert lines[0] == "i,X_i,x1,x2,L_i_lo,L_i_hi,lambda_hat_i"
        assert any(row.split(",")[1:4] == ["198", "140", "1"] for row in lines[1:])
        report = json.loads((tmp_path / "report.json").read_text())
        assert "summary" in report and "rigidity" in report

    def test_round_trip_from_construct(self, tmp_path):
        assert main(
            ["construct", "--b", "2", "--c", "3", "--depth", "6", "--out", str(tmp_path)]
        ) == 0
        rc = main(
            [
                "enumerate",
                "--xi", str(tmp_path / "xi.json"),
                "--xmax", "1000",
                "--out", str(tmp_path),
                "--format", "json",
            ]
        )
        assert rc == 0
        rows = json.loads((tmp_path / "records.json").read_text())
        xs = [(r["X_i"], r["x1"], r["x2"]) for r in rows]
        assert ("3", "2", "0") in xs and ("198", "140", "1") in xs

    def test_sqrt_control_target(self, tmp_path):
        rc = main(
            ["enumerate", "--sqrt", "2,3", "--xmax", "2000", "--out", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["rigidity"] is None  # no attached form for a control target

    def test_rational_target_rejected(self, tmp_path):
        assert main(
            ["enumerate", "--sqrt", "4,9", "--xmax", "100", "--out", str(tmp_path)]
        ) == 3

    @pytest.mark.parametrize("pair", ["2,8", "0,2", "1,2", "8,2", "3,12"])
    def test_dependent_sqrt_pair_rejected_before_the_scan(self, tmp_path, capsys, pair):
        out = tmp_path / "run"
        assert main(["enumerate", "--sqrt", pair, "--xmax", "100", "--out", str(out)]) == 3
        assert not out.exists()
        assert_one_line(capsys, "rejected: ")

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        argv = ["enumerate", "--sqrt", "2,3", "--xmax", "100", "--out", unwritable(tmp_path)]
        assert main(argv) == 2
        assert_one_line(capsys, "error: cannot write to --out ")

    def test_xi_file_holding_a_list_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "xi.json"
        f.write_text("[2, 3]")
        assert main(["enumerate", "--xi", str(f), "--xmax", "100", "--out", str(tmp_path)]) == 2
        assert_one_line(capsys, "error: ")

    def _xi(self, tmp_path) -> tuple[Path, dict]:
        argv = ["construct", "--b", "2", "--c", "3", "--depth", "6", "--out", str(tmp_path)]
        assert main(argv) == 0
        f = tmp_path / "xi.json"
        return f, json.loads(f.read_text())

    def _enumerate_xi(self, f: Path, capsys) -> int:
        capsys.readouterr()
        out = f.parent / "records"
        return main(["enumerate", "--xi", str(f), "--xmax", "1000", "--out", str(out)])

    @pytest.mark.parametrize("key", ["xi1", "xi2", "tail_bound"])
    def test_tampered_enclosure_is_invariant_failure(self, tmp_path, capsys, key):
        f, obj = self._xi(tmp_path)
        obj[key]["lo"]["man"] = hex(read_int(obj[key]["lo"]["man"]) - 1)
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 4
        assert_one_line(capsys, f"invariant failure: --xi {f}: {key} differs ")
        assert not (tmp_path / "records").exists()

    def test_decimal_xi_file_passes_the_enclosure_check(self, tmp_path, capsys):
        f, obj = self._xi(tmp_path)
        assert self._enumerate_xi(f, capsys) == 0
        from_hex = (tmp_path / "records" / "records.csv").read_bytes()
        for key in ("xi1", "xi2", "tail_bound"):
            for end in ("lo", "hi"):
                obj[key][end]["man"] = str(read_int(obj[key][end]["man"]))
        obj["seed"] = [str(read_int(v)) for v in obj["seed"]]
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 0
        assert (tmp_path / "records" / "records.csv").read_bytes() == from_hex

    @pytest.mark.parametrize("precision", [None, 0, -1, "128", True])
    def test_xi_file_without_positive_precision_is_input_error(self, tmp_path, capsys, precision):
        f, obj = self._xi(tmp_path)
        if precision is None:
            del obj["precision"]
        else:
            obj["precision"] = precision
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 2
        assert_one_line(capsys, f"error: --xi {f} needs a positive integer precision")

    def test_xi_precision_past_the_cap_is_rejected(self, tmp_path, capsys):
        f, obj = self._xi(tmp_path)
        obj["precision"] = 10**6
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 3
        assert_one_line(capsys, "precision cap: ")

    def test_check_and_scan_share_one_limit_point(self, tmp_path, capsys, monkeypatch):
        f, _ = self._xi(tmp_path)
        calls = []

        def counted(seq, width):
            calls.append(width)
            return limit_point(seq, width)

        monkeypatch.setattr(targets, "limit_point", counted)
        assert self._enumerate_xi(f, capsys) == 0
        assert len(calls) == 1

    def test_xmax_zero_usage_error(self, tmp_path):
        assert main(
            ["enumerate", "--b", "2", "--c", "3", "--xmax", "0", "--out", str(tmp_path)]
        ) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sqrt=2,3", "--xmax", "1"],  # one record; the estimate needs two
            ["--sqrt=-1,2", "--xmax", "100"],  # no square root of a negative
        ],
    )
    def test_input_error_is_one_line(self, tmp_path, capsys, argv):
        assert main(["enumerate", *argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_precision_cap_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "abc")
        argv = ["construct", "--b", "2", "--c", "3", "--depth", "3", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "CONIC_APPROX_MAX_BITS" in err and err.count("\n") == 1

    def test_precision_cap_below_first_pass_is_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "50")
        argv = ["enumerate", "--sqrt", "2,3", "--xmax", "10000", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("precision cap: ")
        assert not (tmp_path / "records.csv").exists()

    @pytest.mark.parametrize("precision", ["0", "-3"])
    def test_precision_below_one_is_input_error(self, tmp_path, capsys, precision):
        argv = ["enumerate", "--sqrt", "2,3", "--xmax", "10", "--precision", precision]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--precision" in err and err.count("\n") == 1

    def test_missing_target_usage_error(self, tmp_path):
        assert main(["enumerate", "--xmax", "10", "--out", str(tmp_path)]) == 2

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert main(
                ["enumerate", "--b", "2", "--c", "3", "--xmax", "500", "--out", str(d)]
            ) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_successive_calls_with_different_subcommands(self, tmp_path, capsys):
        assert main(["pell", "--b", "2", "--count", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["fundamental"] == {"m": "3", "n": "2"}
        assert main(
            ["construct", "--b", "2", "--c", "3", "--depth", "3", "--out", str(tmp_path)]
        ) == 0
        assert main(["verify", "--in", str(tmp_path / "sequence.jsonl")]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pell", "--count", "2"])  # --b is required
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["pell", "--b", "3", "--count", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["fundamental"] == {"m": "2", "n": "1"}


class TestPell:
    def test_table(self, capsys):
        assert main(["pell", "--b", "2", "--count", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fundamental"] == {"m": "3", "n": "2"}
        assert out["seed_pair"]["second"] == {"m": "99", "n": "70"}
        assert [s["m"] for s in out["solutions"]] == ["3", "17", "99"]

    def test_perfect_square_rejected(self):
        assert main(["pell", "--b", "9"]) == 3

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_input_error(self, capsys, count):
        assert main(["pell", "--b", "2", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --count must be at least 1\n"
