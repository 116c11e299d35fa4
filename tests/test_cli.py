"""Command-line behavior: exit codes, files, round trips, determinism."""
import builtins
import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conic_approx import arith, extremal, quadform, targets
from conic_approx.cli import build_parser, main
from conic_approx.formats import dump_sequence, read_int
from conic_approx.extremal import (
    IDENTITIES,
    SEED_IDENTITIES,
    ExtremalSequence,
    InvariantViolation,
    extend,
    seed_triple,
)
from conic_approx.limit import limit_point
from conic_approx.numerics import precision_cap

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


# `construct --b 2 --c 3 --depth 3` as written before `tail_bound` moved to the
# grid of xi1 and xi2: the tail bound itself, at precision 64
LEGACY_XI = {
    "b": "2",
    "c": "3",
    "depth": 3,
    "precision": 128,
    "seed": ["0x3", "0x2", "0x63", "0x46", "0x2", "0x1"],
    "tail_bound": {
        "hi": {"exp": -248, "man": "0x6a6323f32ce6c17f"},
        "lo": {"exp": -248, "man": "0x6a6323f32ce6c17f"},
        "precision": 64,
    },
    "xi1": {
        "hi": {"exp": -135, "man": "0x5a8196a37226a8de725ff69b36215bcd77"},
        "lo": {"exp": -137, "man": "0x16a065a8dc89aa379c97fda6cd8856f35d9"},
        "precision": 137,
    },
    "xi2": {
        "hi": {"exp": -137, "man": "0x295fcfd69ea48ac78c3451d27871c0ced"},
        "lo": {"exp": -136, "man": "0x14afe7eb4f524563c61a28e93c38e0675"},
        "precision": 137,
    },
}


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

    def test_unsearchable_holzer_box_rejected(self, tmp_path, capsys):
        # 1000003 and 1000037 are primes, each a square modulo the other, so
        # the form has a rational zero; its Holzer box has about 10^9 points
        coeffs = {"a00": 1, "a11": -1000003, "a22": -1000037}
        start = time.perf_counter()
        assert main(["reduce", "--form", write_form(tmp_path, coeffs)]) == 3
        assert time.perf_counter() - start < 1
        assert_one_line(capsys, "rejected: the Holzer box of the diagonal values (1, -1000003, -1000037) ")

    def test_small_witness_in_a_huge_holzer_box(self, tmp_path, capsys):
        # 9699690 = 2*3*5*...*19 is square-free, so the normal form is
        # (1, -1, -9699690); the bound caps the points searched, not the box,
        # and the witness (1, 1, 0) comes after about 3 * 10^3 of them
        assert (isqrt(9699690) + 2) ** 2 > quadform.HOLZER_MAX_POINTS
        coeffs = {"a00": 1, "a11": -1, "a22": -9699690}
        assert main(["reduce", "--form", write_form(tmp_path, coeffs)]) == 0
        assert json.loads(capsys.readouterr().out)["case"] == "parabola"

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

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '"x"',
            "true",
            '{"a00": null}',
            '{"a00": 1, "a11": -2.7, "a22": -3}',
            '{"a00": true, "a11": -2, "a22": -3}',
            '{"a00": "1", "a11": "-2.7", "a22": "-3"}',
        ],
        ids=["list", "string", "bool", "null", "float", "bool-coefficient", "float-string"],
    )
    def test_form_that_is_not_an_object_of_integers_is_input_error(self, tmp_path, capsys, text):
        p = tmp_path / "form.json"
        p.write_text(text)
        assert main(["reduce", "--form", str(p)]) == 2
        assert_one_line(capsys, "error: cannot read form: ")

    def test_unknown_key_is_input_error(self, tmp_path, capsys):
        # a misspelt coefficient used to read as 0 and reduce x0^2 - 2x1^2 - 3x2^2
        coeffs = {"a00": 1, "a11": -2, "a22": -3, "a99": 5}
        assert main(["reduce", "--form", write_form(tmp_path, coeffs)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot read form: unknown key 'a99'; "
            "a form has only a00, a11, a22, a01, a02, a12\n"
        )

    @pytest.mark.parametrize(
        "text", [" 1", "1_0", "+1", "\u0661"], ids=["space", "underscore", "plus", "arabic-indic"]
    )
    def test_coefficient_string_off_the_integer_rule_is_input_error(self, tmp_path, capsys, text):
        # int() read each of these, so the form reduced with exit 0
        coeffs = dict(ANISO_FORM, a00=text)
        assert main(["reduce", "--form", write_form(tmp_path, coeffs)]) == 2
        assert capsys.readouterr() == ("", "error: cannot read form: a00 must be an integer string\n")

    @pytest.mark.parametrize("key,text,value", [("a00", "0x1f", 31), ("a11", "-0x2", -2)])
    def test_hex_coefficient_reads_as_its_integer(self, tmp_path, capsys, key, text, value):
        # int() refused hex with a message that named no key
        outputs = []
        for v in (value, text):
            assert main(["reduce", "--form", write_form(tmp_path, dict(ANISO_FORM, **{key: v}))]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    CASES = {
        "anisotropic": ANISO_FORM,
        "parabola": dict(ANISO_FORM, a00="0", a11="-1", a22="0", a02="1"),
        "pair-of-lines": dict(ANISO_FORM, a22="0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failed_reduction_identity_is_one_invariant_line(
        self, tmp_path, capsys, monkeypatch, case
    ):
        monkeypatch.setattr(quadform.CanonicalReduction, "verify", lambda self, phi: False)
        assert main(["reduce", "--form", write_form(tmp_path, self.CASES[case])]) == 4
        assert_one_line(capsys, "invariant failure: ")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_identity_check_per_reduce(self, tmp_path, capsys, monkeypatch, case):
        calls = []
        real = quadform.CanonicalReduction.verify

        def counting_verify(self, phi):
            calls.append(phi)
            return real(self, phi)

        monkeypatch.setattr(quadform.CanonicalReduction, "verify", counting_verify)
        assert main(["reduce", "--form", write_form(tmp_path, self.CASES[case])]) == 0
        assert json.loads(capsys.readouterr().out)["case"] == case
        assert len(calls) == 1


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
        assert not out.exists()  # nor the directory this call created

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(
                ["construct", "--b", "2", "--c", "3", "--depth", "5", "--out", str(d)]
            ) == 0
        assert (a / "sequence.jsonl").read_bytes() == (b / "sequence.jsonl").read_bytes()
        assert (a / "xi.json").read_bytes() == (b / "xi.json").read_bytes()


class TestHugeCoefficients:
    """b, c, a Pell radicand or a number `reduce` would factor of 2^32 or
    more is refused (exit 3, one `rejected:` line naming the bound) before it
    is factored: trial division runs for hours on such numbers, so
    `arith.factorize` is replaced here by a function that raises on them."""

    HUGE = 99999999999999999999999

    @pytest.fixture(autouse=True)
    def no_huge_factoring(self, monkeypatch):
        real = arith.factorize

        def factorize(n):
            if abs(n) >= 1 << 32:
                raise AssertionError(f"factorize called on a {abs(n).bit_length()}-bit number")
            return real(n)

        monkeypatch.setattr(arith, "factorize", factorize)

    @pytest.mark.parametrize("which", ["b", "c"])
    @pytest.mark.parametrize("command", ["construct", "enumerate", "verify"])
    def test_b_or_c_refused(self, tmp_path, capsys, command, which):
        b, c = (str(self.HUGE), "3") if which == "b" else ("2", str(self.HUGE))
        assert main(["construct", "--b", "2", "--c", "3", "--depth", "3", "--out", str(tmp_path)]) == 0
        extra = {
            "construct": ["--out", str(tmp_path / "run")],
            "enumerate": ["--xmax", "100", "--out", str(tmp_path / "run")],
            "verify": ["--in", str(tmp_path / "sequence.jsonl")],
        }[command]
        capsys.readouterr()
        assert main([command, "--b", b, "--c", c, *extra]) == 3
        assert capsys.readouterr().err == f"rejected: {which} must be below 2^32\n"
        assert not (tmp_path / "run").exists()

    def test_b_of_an_xi_file_refused(self, tmp_path, capsys):
        assert main(["construct", "--b", "2", "--c", "3", "--depth", "3", "--out", str(tmp_path)]) == 0
        f = tmp_path / "xi.json"
        obj = json.loads(f.read_text())
        obj["b"] = hex((1 << 20_000) + 1)  # past the int/str digit limit in decimal
        f.write_text(json.dumps(obj))
        capsys.readouterr()
        argv = ["enumerate", "--xi", str(f), "--xmax", "100", "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert capsys.readouterr().err == "rejected: b must be below 2^32\n"

    @pytest.mark.parametrize(
        "coeffs,named",
        [
            ({"a00": 1, "a11": "-1000000000000000000000007", "a22": -3}, "diagonal value"),
            ({"a00": 1, "a11": -2, "a22": -3, "a01": str(HUGE)}, "diagonal value"),
            ({"a00": 1, "a11": str(-HUGE)}, "ratio of diagonal values"),
            (
                {"a00": 67108859, "a11": 2, "a22": -38, "a01": -11, "a02": -11, "a12": 4},
                "ratio of diagonal values",
            ),
            (
                {"a00": 134217689, "a11": -2, "a22": 20, "a01": 32, "a02": 50, "a12": -23},
                "normalized diagonal value",
            ),
        ],
        ids=["coefficient", "off-diagonal", "pair-of-lines", "anisotropic", "normal-form"],
    )
    def test_reduce_refused(self, tmp_path, capsys, coeffs, named):
        assert main(["reduce", "--form", write_form(tmp_path, coeffs)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rejected: {named} ")
        assert captured.err.endswith(" must be below 2^32\n") and captured.err.count("\n") == 1

    def test_reduce_factors_numerator_and_denominator_apart(self, tmp_path, capsys):
        # three primes below 2^32, whose products b and c are not: each ratio
        # of diagonal values is factored as numerator and denominator
        coeffs = {"a00": 2147483647, "a11": -2147483629, "a22": -2147483587}
        assert main(["reduce", "--form", write_form(tmp_path, coeffs)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["case"], out["b"], out["c"]) == ("anisotropic", "4611685975477714963", "4611685885283401789")

    @pytest.mark.parametrize(
        "b,why",
        [
            (HUGE, "radicand must be below 2^32"),
            (1000000000000000000000007, "radicand must be below 2^32"),
            (1 << 32, "radicand must be below 2^32"),
            (4, "4 is a perfect square"),
            (12, "12 is not square-free"),
            (1, "radicand must be at least 2"),
        ],
        ids=[str(HUGE), "1000000000000000000000007", "4294967296", "4", "12", "1"],
    )
    def test_pell_radicand_refused(self, capsys, b, why):
        assert main(["pell", "--b", str(b)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rejected: --b {b}: {why}\n"

    def test_largest_accepted_b(self, tmp_path, capsys, int_str_limit):
        # 2^32 - 1 = 3 * 5 * 17 * 257 * 65537 is square-free
        argv = ["construct", "--b", str((1 << 32) - 1), "--c", "3", "--depth", "3"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        # a prime whose period of sqrt(b) is long: its 87522-bit fundamental
        # solution is past the int/str digit limit, and one walk over the
        # period finds it in well under a second
        capsys.readouterr()
        with time_limit(10):
            assert main(["pell", "--b", "4294967197", "--count", "1"]) == 3
        assert capsys.readouterr().err == (
            "rejected: --b 4294967197: solution 1 has more than 4300 decimal digits, the int/str limit\n"
        )


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

    def test_failure_names_the_first_failing_entry_on_stderr(self, tmp_path, capsys):
        f = self._construct(tmp_path)
        rows = [json.loads(s) for s in f.read_text().strip().splitlines()]
        rows[-1]["y"] = [hex(-read_int(v)) for v in rows[-1]["y"]]
        rows[-1]["t"] = hex(-read_int(rows[-1]["t"]))
        f.write_text("\n".join(json.dumps(r) for r in rows))
        capsys.readouterr()
        assert main(["verify", "--in", str(f)]) == 4
        out, err = capsys.readouterr()
        fails = [line for line in out.splitlines() if line.startswith("FAIL  ")]
        assert fails[0] == "FAIL  reflection-operator recurrence @ i=6"
        assert err == "invariant failure: reflection-operator recurrence failed at index 6\n"

    def test_row_without_t_names_the_row(self, tmp_path, capsys):
        f = self._construct(tmp_path)
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        del rows[2]["t"]
        f.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["verify", "--in", str(f)]) == 2
        assert capsys.readouterr().err == "error: cannot parse sequence file: line 3 has no t field\n"

    @pytest.mark.parametrize("field", ["t", "y[1]"])
    def test_row_field_that_is_a_json_number_names_the_row(self, tmp_path, capsys, field):
        f = self._construct(tmp_path)
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        if field == "t":
            rows[4]["t"] = read_int(rows[4]["t"])
        else:
            rows[4]["y"][1] = read_int(rows[4]["y"][1])
        f.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["verify", "--in", str(f)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot parse sequence file: row i=3: {field} must be an integer string\n"

    @pytest.mark.parametrize(
        "field,spell",
        [
            ("t", bin),  # verified with exit 0 when `read_int` was int(s, 0)
            ("t", lambda v: f"{v:_}"),  # so did underscores
            ("y[1]", lambda v: "abc"),  # named neither the row nor the field
            ("y[2]", lambda v: f" {hex(v)}"),
        ],
        ids=["t-binary", "t-underscores", "y1-abc", "y2-leading-space"],
    )
    def test_row_field_that_is_no_integer_string_names_the_row(self, tmp_path, capsys, field, spell):
        f = self._construct(tmp_path)
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        if field == "t":
            rows[4]["t"] = spell(read_int(rows[4]["t"]))
        else:
            k = int(field[2])
            rows[4]["y"][k] = spell(read_int(rows[4]["y"][k]))
        f.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["verify", "--in", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot parse sequence file: row i=3: {field} must be an integer string\n"

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

    @pytest.mark.parametrize("pair", [[], ["--b", "8", "--c", "3"]], ids=["inferred", "given"])
    def test_pair_that_construct_rejects_is_rejected_when_inferred(self, tmp_path, capsys, pair):
        # every seed identity holds on x0^2 - 8 x1^2 - 3 x2^2 = 1, and so
        # does every identity to depth 8, but construct refuses b = 8
        form = quadform.TernaryQuadraticForm(1, -8, -3)
        ys = [(1, 0, 0), (3, 1, 0), (198, 70, 1)]
        ts = [form.bilinear(ys[1], ys[0]), form.bilinear(ys[2], ys[1]), form.bilinear(ys[2], ys[0])]
        seq = extend(ExtremalSequence(form, ys, ts, quadform.det3(ys[2], ys[1], ys[0])), 8)
        f = tmp_path / "sequence.jsonl"
        f.write_text(dump_sequence(seq))
        capsys.readouterr()
        assert main(["verify", "--in", str(f), *pair]) == 3
        assert capsys.readouterr() == ("", "rejected: b=8 must be a square-free integer > 1\n")

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

    @pytest.mark.parametrize(
        "key,edit",
        [
            ("i", lambda v: v + 0.4),
            ("i", float),
            ("i", bool),
            ("i", str),
            ("norm_bits", lambda v: v + 0.9),
            ("norm_bits", str),
        ],
        ids=["i-plus-0.4", "i-float", "i-bool", "i-string", "norm_bits-plus-0.9", "norm_bits-string"],
    )
    def test_row_field_that_is_not_a_json_integer_is_input_error(self, tmp_path, capsys, key, edit):
        f = self._construct(tmp_path)
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        rows[2][key] = edit(rows[2][key])  # the row of i = 1, so bool(i) is True
        f.write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
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


@pytest.mark.parametrize(
    "text,value",
    [("0x1f", 31), ("-0x1F", -31), ("0x0", 0), ("-0", 0), ("42", 42), ("-42", -42), ("007", 7)],
)
def test_read_int_takes_hex_and_decimal(text, value):
    assert read_int(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "", "-", "0x", "-0x", "0b101", "0o17", "0X1f", "1_000", "0x_1f", "0x1_f", " 42", "42 ",
        "0x1f\n", "+42", "--42", "-+42", "0x-1f", "ff", "4 2", "\u0664\u0662", "0x\u0664",
    ],
)
def test_read_int_refuses_other_strings(text):
    with pytest.raises(ValueError, match="^must be an integer string$"):
        read_int(text)


@pytest.mark.parametrize("value", [42, None, ["0x1"], 4.0])
def test_read_int_refuses_a_non_string(value):
    with pytest.raises(TypeError, match="^must be an integer string$"):
        read_int(value)


def test_read_int_names_the_digit_limit(int_str_limit):
    with pytest.raises(ValueError, match="^has more than 4300 decimal digits"):
        read_int("9" * 4301)
    assert read_int(hex(10**4301)) == 10**4301


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


def _unit_value_off_b_kept(ys, ts):
    """y_3 += v = (b y2_1, y2_0, 0) with b = 2, so B(v, y_2) = 0."""
    y2, y3 = ys[3], ys[4]
    ys[4] = (y3[0] + 2 * y2[1], y3[1] + y2[0], y3[2])


def _tampering(member, how, j):
    return lambda ys, ts: _tamper(ys, ts, member, how, j)


# (id, edit) of the depth-6 files that `verify` reads forked and serially
FORK_EDITS = (
    [(f"{name} @ {j}", _tampering(m, how, j)) for name, m, how in INDEX_TAMPERS for j in (3, 5)]
    + [(name, _tampering(m, how, j)) for name, m, how, j in SEED_TAMPERS]
    + [("B kept, q off", _unit_value_off_b_kept), ("untampered", lambda ys, ts: None)]
)


class TestIdentityTable:
    def _rows(self, tmp_path):
        assert main(
            ["construct", "--b", "2", "--c", "3", "--depth", "6", "--out", str(tmp_path)]
        ) == 0
        f = tmp_path / "sequence.jsonl"
        return f, [json.loads(s) for s in f.read_text().strip().splitlines()]

    def _verify_tampered(self, tmp_path, capsys, member, how, j):
        return self._verify_edited(tmp_path, capsys, lambda ys, ts: _tamper(ys, ts, member, how, j))

    def _verify_edited(self, tmp_path, capsys, edit):
        """(exit code, stdout) of `verify` on a depth-6 file whose members
        `edit(ys, ts)` changed, with ys[k] holding y_{k-1}."""
        return self._verify(capsys, self._edited(tmp_path, edit))

    def _edited(self, tmp_path, edit) -> Path:
        f, rows = self._rows(tmp_path)
        ys = [tuple(read_int(v) for v in r["y"]) for r in rows]
        ts = [read_int(r["t"]) for r in rows]
        edit(ys, ts)
        for r, y, t in zip(rows, ys, ts):
            r["y"], r["t"] = [hex(v) for v in y], hex(t)
            r["norm_bits"] = max(abs(v) for v in y).bit_length()
        f.write_text("\n".join(json.dumps(r) for r in rows))
        return f

    def _verify(self, capsys, f: Path):
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

    @pytest.mark.parametrize(
        "member,how",
        [t[1:] for t in INDEX_TAMPERS] + [("y", lambda v: v)],
        ids=[t[0] for t in INDEX_TAMPERS] + ["untampered"],
    )
    def test_verify_and_extend_equal_the_plain_path(self, tmp_path, capsys, request, member, how):
        def extended():
            seq = extend(seed_triple(2, 3), 4)
            _tamper(seq.ys, seq.ts, member, how)
            try:
                extend(seq, 8)
            except InvariantViolation as err:
                return (err.identity, err.index), seq.depth
            return None, seq.depth

        new = self._verify_tampered(tmp_path / "new", capsys, member, how, 3), extended()
        request.getfixturevalue("plain_forced")
        assert (self._verify_tampered(tmp_path / "plain", capsys, member, how, 3), extended()) == new

    def test_verify_after_a_failure_evaluates_b_in_full(self, tmp_path, capsys, request):
        """y_3 + v with B(v, y_2) = 0 breaks q(y_3) = 1 but keeps
        t_2 = B(y_3, y_2), which polarization would then fail to see."""
        rc, out = self._verify_edited(tmp_path / "new", capsys, _unit_value_off_b_kept)
        assert rc == 4
        assert "FAIL  unit value of the form @ i=3" in out
        assert "PASS  inner product t_{i-1} = B(y_i, y_{i-1}) @ i=3" in out
        request.getfixturevalue("plain_forced")
        assert self._verify_edited(tmp_path / "plain", capsys, _unit_value_off_b_kept) == (rc, out)

    @pytest.mark.parametrize("edit", [e for _, e in FORK_EDITS], ids=[i for i, _ in FORK_EDITS])
    def test_forked_verify_equals_the_serial_one(self, tmp_path, capsys, monkeypatch, request, edit):
        f = self._edited(tmp_path, edit)
        with monkeypatch.context() as serial:
            serial.setattr(extremal, "_fork_pays", lambda bits: False)
            want = self._verify(capsys, f)
        forks = request.getfixturevalue("forks")  # every walk forks, as its threshold is 0
        assert self._verify(capsys, f) == want
        assert forks == [1]

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

    @pytest.mark.parametrize("path", ["serial", "forked"])
    @pytest.mark.parametrize(
        "identity",
        [None, ("unit value of the form", "y", lambda v: v + 1)],
        ids=["norm_bits only", "norm_bits and an identity"],
    )
    def test_norm_bits_fault_keeps_the_reuse(
        self, tmp_path, capsys, monkeypatch, request, identity, path
    ):
        """A row's `norm_bits` is a format check: off by one, it prints one
        more `FAIL` line and names the first failure, but the walk still
        reuses the seed's indices and prints the verdicts of the file
        without that fault."""
        edit = (lambda ys, ts: None) if identity is None else _tampering(*identity[1:], 3)
        f = self._edited(tmp_path, edit)
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        if path == "serial":
            monkeypatch.setattr(extremal, "_fork_pays", lambda bits: False)
        else:
            forks = request.getfixturevalue("forks")
        capsys.readouterr()
        assert main(["verify", "--in", str(f)]) == (0 if identity is None else 4)
        clean = capsys.readouterr()
        rows[5]["norm_bits"] += 1
        f.write_text("".join(json.dumps(r) + "\n" for r in rows))
        proved = []
        real = extremal._checked_first_failure

        def spy(seq, first, upto, reused):
            proved.append(reused)
            return real(seq, first, upto, reused)

        monkeypatch.setattr(extremal, "_checked_first_failure", spy)
        assert main(["verify", "--in", str(f)]) == 4
        out, err = capsys.readouterr()
        assert out == clean.out.replace("PASS  norm_bits @ i=4", "FAIL  norm_bits @ i=4")
        assert err == "invariant failure: norm_bits failed at index 4\n"
        assert proved == [3]
        if path == "forked":
            assert forks == [1, 1]


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

    @pytest.mark.parametrize("pair", ["2,8", "0,2", "1,2", "8,2", "3,12", "4,9", "0,0", "1,1"])
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

    @pytest.mark.parametrize("key", ["xi1", "tail_bound"])
    def test_xi_field_that_is_a_list_names_the_field(self, tmp_path, capsys, key):
        f, obj = self._xi(tmp_path)
        obj[key] = [obj[key]["lo"], obj[key]["hi"]]
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 2
        assert_one_line(capsys, f"error: --xi {f}: {key} must be an object with lo, hi and precision")

    @pytest.mark.parametrize("key,end", [("xi1", "lo"), ("tail_bound", "hi")])
    def test_xi_mantissa_in_binary_names_the_field(self, tmp_path, capsys, key, end):
        # `int(s, 0)` read it, and the enclosure check passed with exit 0
        f, obj = self._xi(tmp_path)
        obj[key][end]["man"] = bin(read_int(obj[key][end]["man"]))
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 2
        assert_one_line(capsys, f"error: --xi {f}: {key} must be an object with lo, hi and precision")

    @pytest.mark.parametrize("key,text", [("b", "0b10"), ("c", "0o3")])
    def test_xi_b_or_c_in_another_base_names_the_field(self, tmp_path, capsys, key, text):
        f, obj = self._xi(tmp_path)
        obj[key] = text
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 2
        assert capsys.readouterr().err == f"error: --xi {f}: {key} must be an integer string\n"

    @pytest.mark.parametrize(
        "key,edit",
        [("b", lambda obj: obj.pop("b")), ("c", lambda obj: obj.update(c=3))],
        ids=["no-b", "c-a-json-number"],
    )
    def test_bad_b_or_c_in_xi_names_the_field(self, tmp_path, capsys, key, edit):
        f, obj = self._xi(tmp_path)
        edit(obj)
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 2
        assert capsys.readouterr().err == f"error: --xi {f}: {key} must be an integer string\n"

    def _xi(self, tmp_path) -> tuple[Path, dict]:
        argv = ["construct", "--b", "2", "--c", "3", "--depth", "6", "--out", str(tmp_path)]
        assert main(argv) == 0
        f = tmp_path / "xi.json"
        return f, json.loads(f.read_text())

    def _enumerate_xi(self, f: Path, capsys) -> int:
        capsys.readouterr()
        out = f.parent / "records"
        return main(["enumerate", "--xi", str(f), "--xmax", "1000", "--out", str(out)])

    @pytest.mark.parametrize(
        "key,swap",
        [("xi1", False), ("xi2", False), ("tail_bound", False), ("xi2", True)],
        ids=["xi1", "xi2", "tail_bound", "xi2-lo-hi-swapped"],
    )
    def test_tampered_enclosure_is_invariant_failure(self, tmp_path, capsys, key, swap):
        # an empty enclosure (lo above hi) differs, as any other tamper does
        f, obj = self._xi(tmp_path)
        if swap:
            obj[key]["lo"], obj[key]["hi"] = obj[key]["hi"], obj[key]["lo"]
        else:
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

    def test_tail_bound_shares_the_grid_of_xi1_and_xi2(self, tmp_path):
        _, obj = self._xi(tmp_path)
        grids = {key: obj[key]["precision"] for key in ("xi1", "xi2", "tail_bound")}
        assert grids == dict.fromkeys(grids, 137)  # max(64, 128 + 9)

    def test_legacy_xi_file_passes_the_enclosure_check(self, tmp_path, capsys):
        f = tmp_path / "xi.json"
        f.write_text(json.dumps(LEGACY_XI))
        assert self._enumerate_xi(f, capsys) == 0
        rows = (tmp_path / "records" / "records.csv").read_text().splitlines()
        assert any(row.split(",")[1:4] == ["198", "140", "1"] for row in rows)

    def test_tampered_legacy_tail_bound_is_invariant_failure(self, tmp_path, capsys):
        obj = json.loads(json.dumps(LEGACY_XI))
        for end in ("lo", "hi"):
            obj["tail_bound"][end]["man"] = hex(read_int(obj["tail_bound"][end]["man"]) + 2)
        f = tmp_path / "xi.json"
        f.write_text(json.dumps(obj))
        assert self._enumerate_xi(f, capsys) == 4
        assert_one_line(capsys, f"invariant failure: --xi {f}: tail_bound differs ")
        assert not (tmp_path / "records").exists()

    @pytest.mark.parametrize("pair", ["2,3,5", ",", "2", "", "2,x", "2;3", "-1,2", "2,-3"])
    def test_malformed_sqrt_says_what_it_needs(self, tmp_path, capsys, pair):
        out = tmp_path / "run"
        assert main(["enumerate", f"--sqrt={pair}", "--xmax", "100", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --sqrt needs two non-negative integers A,B, not {pair!r}\n"
        )
        assert not out.exists()

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

    def test_xmax_past_a_c_ssize_t_reaches_the_cap(self, tmp_path, capsys, monkeypatch):
        # 1e20 > 2**63: the scan hands no count of that size to a C routine,
        # so the passes at 8 and 16 bits run until they are undecided
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "16")
        argv = ["enumerate", "--sqrt", "2,3", "--xmax", str(10**20), "--precision", "8"]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == "precision cap: minimal-point scan undecided at 16 bits\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("precision", ["0", "-3"])
    def test_precision_below_one_is_input_error(self, tmp_path, capsys, precision):
        argv = ["enumerate", "--sqrt", "2,3", "--xmax", "10", "--precision", precision]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--precision" in err and err.count("\n") == 1

    def test_missing_target_usage_error(self, tmp_path):
        assert main(["enumerate", "--xmax", "10", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["--b", "2", "--c", "3", "--sqrt", "2,5"], "--sqrt and --b/--c"),
            (["--c", "3", "--sqrt", "2,5"], "--sqrt and --b/--c"),
            (["--xi", "xi.json", "--sqrt", "2,5"], "--xi and --sqrt"),
            (["--xi", "xi.json", "--b", "2", "--c", "3"], "--xi and --b/--c"),
        ],
        ids=["sqrt-and-bc", "sqrt-and-c", "xi-and-sqrt", "xi-and-bc"],
    )
    def test_more_than_one_target_rejected_before_the_scan(self, tmp_path, capsys, argv, named):
        # the parent scanned (1, sqrt 2, sqrt 5) for the first and exited 0
        out = tmp_path / "out"
        assert main(["enumerate", *argv, "--xmax", "100", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: name one target, not {named}\n"
        assert not out.exists()

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert main(
                ["enumerate", "--b", "2", "--c", "3", "--xmax", "500", "--out", str(d)]
            ) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["reduce", "--form"], "error: cannot read form: maximum recursion depth exceeded"),
        (["verify", "--in"], "error: cannot parse sequence file: maximum recursion depth exceeded"),
        (["enumerate", "--xmax", "10", "--xi"], "error: maximum recursion depth exceeded"),
    ],
    ids=["reduce", "verify", "enumerate"],
)
def test_json_nested_too_deep_is_input_error(tmp_path, capsys, argv, prefix):
    # json.loads raises RecursionError, no ValueError, which ended in a traceback
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    assert main([*argv, str(f)]) == 2
    assert_one_line(capsys, prefix)


class TestPrecisionCapVerdict:
    """`--precision P` (for `enumerate --xi`, the file's `precision`) is
    accepted exactly when P is at most the cap, with one message past it."""

    def _argv(self, path: str, precision: int, tmp_path: Path) -> list[str]:
        out = str(tmp_path / "run")
        if path == "construct":
            return ["construct", "--b", "2", "--c", "3", "--depth", "3",
                    "--precision", str(precision), "--out", out]
        if path == "xi":
            argv = ["construct", "--b", "2", "--c", "3", "--depth", "3",
                    "--precision", "4096", "--out", str(tmp_path)]
            assert main(argv) == 0
            f = tmp_path / "xi.json"
            f.write_text(json.dumps({**json.loads(f.read_text()), "precision": precision}))
            return ["enumerate", "--xi", str(f), "--xmax", "100", "--out", out]
        target = ["--b", "2", "--c", "3"] if path == "bc" else ["--sqrt", "2,3"]
        return ["enumerate", *target, "--xmax", "100", "--precision", str(precision), "--out", out]

    @pytest.mark.parametrize("path", ["construct", "bc", "sqrt", "xi"])
    def test_cap_is_accepted_and_one_more_bit_is_rejected(self, tmp_path, capsys, monkeypatch, path):
        monkeypatch.delenv("CONIC_APPROX_MAX_BITS", raising=False)
        assert main(self._argv(path, 4096, tmp_path / "at")) == 0
        argv = self._argv(path, 4097, tmp_path / "past")
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == "precision cap: needs 4097 bits, cap is 4096\n"
        assert not (tmp_path / "past" / "run").exists()

    def test_construct_under_a_cap_below_64_bits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "60")
        assert main(self._argv("construct", 60, tmp_path)) == 0
        assert json.loads((tmp_path / "run" / "xi.json").read_text())["precision"] == 60


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedOutputs:
    """Digests of the files and the `verify` output of two fixed runs, so any
    change to a byte of them shows."""

    def test_construct_verify_enumerate_xi(self, tmp_path, capsys):
        d = str(tmp_path)
        assert main(["construct", "--b", "2", "--c", "3", "--depth", "12", "--out", d]) == 0
        capsys.readouterr()
        assert main(["verify", "--in", str(tmp_path / "sequence.jsonl")]) == 0
        verified = capsys.readouterr().out
        xi = str(tmp_path / "xi.json")
        assert main(["enumerate", "--xi", xi, "--xmax", "20000", "--out", d]) == 0
        names = ("sequence.jsonl", "xi.json", "records.csv", "report.json")
        got = {name: sha256((tmp_path / name).read_bytes()) for name in names}
        got["verify stdout"] = sha256(verified.encode())
        assert got == {
            "sequence.jsonl": "e73558fac6cefc5a9a9e0baa1008417626e8e9a5e204790fe9db618c8a46eeae",
            "xi.json": "c0c90c370d90b8b664709e0879e499599dbed093721c6cbe92b6034fcc4a127a",
            "records.csv": "9e6c9a0ad33166fa0196d2cf2d1b2cf00820ef1e015c7eef953433f28ae3f318",
            "report.json": "d71f56f0a8f86d02fad94dd583b9c1e30f92c90721dbce91cf8b0495d4bbe7d7",
            "verify stdout": "cf22b8527640b1c3b72a07c4f834bd58397732cfa9c3913af116b3b40c4b4056",
        }

    def test_enumerate_sqrt(self, tmp_path):
        argv = ["enumerate", "--sqrt", "2,3", "--xmax", "100000", "--out", str(tmp_path)]
        assert main(argv) == 0
        got = {name: sha256((tmp_path / name).read_bytes()) for name in ("records.csv", "report.json")}
        assert got == {
            "records.csv": "f93e8fb3ba03b81707848ff235bfc9de483d09e6e0b39109aa8c94e46c091519",
            "report.json": "0ca2ec9a94f45011fb83b6b03db8efc7694e759cf8b8005be183fb127eeac9ad",
        }


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

    @pytest.mark.parametrize(
        "b,count,position",
        [("1000033", "4", 4), ("2", "5700", 5618), ("2", "100000", 5618), ("2", str(2**63 + 1), 5618)],
    )
    def test_solution_past_the_digit_limit_is_rejected(self, capsys, int_str_limit, b, count, position):
        # str() of the first such solution ended in a traceback (exit 1),
        # --count 100000 computed every solution first, and a count past
        # 2^63 overflowed itertools.repeat (OverflowError, exit 1)
        assert main(["pell", "--b", b, "--count", count]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"rejected: --b {b}: solution {position} has more than 4300 decimal digits, "
            "the int/str limit\n"
        )

    def test_seed_pair_past_the_digit_limit_is_rejected(self, capsys, int_str_limit):
        # the fundamental solution has 1719 digits, the second 3438; --count 2
        # still prints the seed pair's second solution, the third
        assert main(["pell", "--b", "1000081", "--count", "2"]) == 3
        assert capsys.readouterr().err.startswith("rejected: --b 1000081: solution 3 has more than ")

    def test_no_digit_limit_prints_every_solution(self, capsys, int_str_limit):
        sys.set_int_max_str_digits(0)
        assert main(["pell", "--b", "1000033", "--count", "4"]) == 0
        assert len(json.loads(capsys.readouterr().out)["solutions"]) == 4

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_input_error(self, capsys, count):
        assert main(["pell", "--b", "2", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --count must be at least 1\n"


# ---------------------------------------------------------------------------
# The CLI contract: every drawn command line ends in 0, 2, 3 or 4; a failure
# prints exactly one stderr line with one of the four prefixes of
# `cli.FAILURES` and leaves no file in --out, nor --out itself; an input
# error on files kept as written names a flag of the command line, and a
# refusal on them names a flag or its value.

PREFIXES = ("error: ", "rejected: ", "precision cap: ", "invariant failure: ")
TARGET_FLAGS = ("--b", "--c", "--xi", "--sqrt")
# the start of an input-error line about each contract file
FILE_PREFIXES = {
    "form.json": "error: cannot read form: ",
    "sequence.jsonl": "error: cannot parse sequence file: ",
    "xi.json": "error: --xi {d}/xi.json",
}


def names(line: str, field: str) -> bool:
    """Whether `line` names `field` as a word of its own: `i` in `line 3: i
    must be`, but not in `row i=1`; `y` in `y[1]`; `xi1.lo.exp` whole."""
    return re.search(rf"(?<![\w.]){re.escape(field)}(?![\w.=])", line) is not None


def values(small: st.SearchStrategy, huge: bool = True, past_cap: bool = False) -> st.SearchStrategy:
    """Integers of one of the kinds small, huge (at least 2^32), zero,
    negative or past the precision cap, as argv strings; small ones, which
    get past the checks, about four times in five."""
    others = [st.just(0), st.integers(-(1 << 40), -1)]
    if huge:
        others.append(st.integers(1 << 32, 1 << 80))
    if past_cap:
        others.append(st.integers(1, 1 << 20).map(lambda k: precision_cap() + k))
    return st.integers(0, 4).flatmap(lambda k: small if k else st.one_of(others)).map(str)


B_OR_C = values(st.integers(1, 12))
PRECISION = values(st.integers(1, 512), past_cap=True)


@st.composite
def mutated(draw, name: str, text: str) -> tuple[bytes, str, tuple | None]:
    """`text`, a JSON file or (for `.jsonl`) one JSON row a line, unchanged or
    with a key dropped, a JSON number where a string goes, a value of another
    shape, a tampered integer string, truncated bytes or bytes that are not
    UTF-8; with the mutation's name and the path of the value it changed (the
    document's index first, then its keys), or None."""
    how = draw(st.sampled_from(["keep"] * 4 + ["drop", "number", "shape", "tamper", "truncate", "bytes"]))
    data = text.encode()
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))], how, None
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:], how, None
    jsonl = name.endswith(".jsonl")
    docs = [json.loads(line) for line in text.splitlines()] if jsonl else [json.loads(text)]

    def leaves(node, path=()):
        yield path, node
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            yield from leaves(child, (*path, key))

    spots = [(path, v) for path, v in leaves(docs) if len(path) >= 1]
    if how == "drop":
        spots = [(p, v) for p, v in spots if isinstance(p[-1], str)]
    elif how in ("number", "tamper"):
        spots = [(p, v) for p, v in spots if isinstance(v, str)]
    path = None
    if how != "keep" and spots:
        path, v = draw(st.sampled_from(spots))
        parent = docs
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        elif how == "number":
            parent[path[-1]] = read_int(v) if v.lstrip("-").startswith("0x") else 7
        elif how == "shape":
            parent[path[-1]] = draw(st.sampled_from([[], {}, None, "x", 1.5, True, [1, 2, 3]]))
        elif v.lstrip("-").startswith("0x"):
            parent[path[-1]] = hex(read_int(v) + draw(st.sampled_from([-2, -1, 1, 2])))
    if jsonl:
        return "".join(json.dumps(doc) + "\n" for doc in docs).encode(), how, path
    return json.dumps(docs[0], indent=2).encode(), how, path


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory) -> dict[str, str]:
    """The files of `construct --depth 4` and a form file, as text."""
    d = tmp_path_factory.mktemp("contract")
    assert main(["construct", "--b", "2", "--c", "3", "--depth", "4", "--out", str(d)]) == 0
    texts = {name: (d / name).read_text() for name in ("sequence.jsonl", "xi.json")}
    texts["form.json"] = json.dumps(ANISO_FORM, indent=2)
    return texts


@st.composite
def command_lines(draw, files: dict[str, str], d: Path) -> tuple[list[str], dict]:
    """An argv for one of the five commands, and {file name: (mutation, path)}
    of `mutated`; its files are written into d, and its --out is d/out,
    which does not exist yet, or now and then a path below a regular file,
    which cannot be created."""
    mutations = {}
    for name, text in files.items():
        data, how, path = draw(mutated(name, text))
        (d / name).write_bytes(data)
        mutations[name] = how, path
    out = f"--out={draw(st.sampled_from([d / 'out'] * 5 + [d / 'form.json' / 'out']))}"
    command = draw(st.sampled_from(["reduce", "construct", "verify", "enumerate", "pell"]))
    if command == "reduce":
        return ["reduce", f"--form={d / 'form.json'}"], mutations
    if command == "construct":
        depth = draw(values(st.integers(1, 12), huge=False))
        return ["construct", f"--b={draw(B_OR_C)}", f"--c={draw(B_OR_C)}", f"--depth={depth}",
                f"--precision={draw(PRECISION)}", out], mutations
    if command == "verify":
        pair = draw(st.sampled_from([[], ["b", "c"], ["b"], ["c"]]))
        return ["verify", f"--in={d / 'sequence.jsonl'}", *(f"--{k}={draw(B_OR_C)}" for k in pair)], mutations
    if command == "pell":
        # a huge count runs into the int/str digit limit; the two primes
        # below 2^32 have long periods of sqrt(b)
        count = draw(st.one_of(values(st.integers(1, 8)), st.integers(1 << 32, 1 << 80).map(str)))
        b = draw(st.one_of(B_OR_C, st.sampled_from(["4294967189", "4294967197"])))
        return ["pell", f"--b={b}", f"--count={count}"], mutations
    # one target mostly; none or two are input errors
    targets = draw(st.sampled_from([["bc"], ["xi"], ["sqrt"]] * 3 + [[], ["bc", "sqrt"], ["xi", "bc"]]))
    argv = ["enumerate", f"--xmax={draw(values(st.integers(1, 2000), huge=False))}", out]
    for target in targets:
        if target == "bc":
            argv += [f"--b={draw(B_OR_C)}", f"--c={draw(B_OR_C)}"]
        elif target == "xi":
            argv.append(f"--xi={d / 'xi.json'}")
        else:
            a, b = draw(values(st.integers(0, 30))), draw(values(st.integers(0, 30)))
            argv.append(f"--sqrt={a},{b}")
    if draw(st.booleans()):
        argv.append(f"--precision={draw(PRECISION)}")
    if draw(st.booleans()):
        argv.append("--format=json")
    return argv, mutations


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` have passed, so an
    unbounded input fails the test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_command_line_ends_in_a_documented_code(contract_files, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv, mutations = data.draw(command_lines(contract_files, d), label="argv")
        stdout, stderr = io.StringIO(), io.StringIO()
        old = sys.get_int_max_str_digits()
        # the lowest limit CPython takes, so a huge pell --count reaches it soon
        sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
        try:
            with time_limit(10), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
        finally:
            sys.set_int_max_str_digits(old)
        err = stderr.getvalue()
        event(f"{argv[0]} exit {rc}")
        assert rc in (0, 2, 3, 4), (rc, err)
        if rc == 0:
            assert err == ""
        else:
            assert err.startswith(PREFIXES) and err.count("\n") == 1 and err.endswith("\n"), err
            # no file left, and no --out directory either
            assert sorted(p.name for p in d.rglob("*")) == sorted(contract_files)
        named = [name for name in contract_files if any(name in a for a in argv)]
        if rc == 2 and all(mutations[name][0] == "keep" for name in named):
            # with every file it names as written, the fault is in the flags;
            # an enumerate without a target may get the line that asks for one
            flags = {a.split("=")[0] for a in argv if a.startswith("--")}
            if argv[0] == "enumerate" and not flags & set(TARGET_FLAGS):
                flags |= set(TARGET_FLAGS)
            event("exit 2 on kept files: the line names a flag")
            assert any(names(err.replace(str(d), "D"), flag) for flag in flags), (argv, err)
        if rc == 3 and all(mutations[name][0] == "keep" for name in named):
            # with every file it names as written, a refusal is of a flag's
            # value: the line names the flag (`--b 12`, `b must be below`) or
            # the value (`b=0`, `needs P bits`, `sqrt(4)`); `names` does not
            # take `b` in `b=4`, so the value is what matches there
            words = set()
            for a in argv:
                flag, _, value = a.partition("=")
                if flag.startswith("--") and flag not in ("--out", "--in", "--xi", "--form"):
                    words |= {flag, flag[2:], *value.split(",")}
            event("exit 3 on kept files: the line names a flag or its value")
            assert any(names(err, word) for word in words), (argv, err)
        if rc == 2:
            # a line about a file whose key was dropped, or whose value became
            # a number or another shape, names that key (`path[0]` is the row)
            for name, prefix in FILE_PREFIXES.items():
                how, path = mutations[name]
                if err.startswith(prefix.format(d=d)) and how in ("drop", "number", "shape") and len(path) > 1:
                    event(f"{name}: the line names the {how} key")
                    assert names(err.replace(str(d), "D"), str(path[1])), (how, path, err)


# ---------------------------------------------------------------------------
# One field rule for every input file: each integer leaf of the three formats,
# given another JSON type, a malformed integer string or a JSON integer past
# the int/str limit, exits 2 with one short line that names the leaf.

ENCLOSURES = ("xi1", "xi2", "tail_bound")
# (file, path of the leaf, kind): "json" takes only a JSON integer, "string"
# only an integer string, "either" both; a row path starts with the row (i = 1)
LEAVES = [
    ("sequence.jsonl", (2, "i"), "json"),
    *[("sequence.jsonl", (2, "y", k), "string") for k in range(3)],
    ("sequence.jsonl", (2, "t"), "string"),
    ("sequence.jsonl", (2, "norm_bits"), "json"),
    ("xi.json", ("b",), "string"),
    ("xi.json", ("c",), "string"),
    ("xi.json", ("precision",), "json"),
    *[
        ("xi.json", (key, end, leaf), "string" if leaf == "man" else "json")
        for key in ENCLOSURES
        for end in ("lo", "hi")
        for leaf in ("man", "exp")
    ],
    *[("xi.json", (key, "precision"), "json") for key in ENCLOSURES],
    *[("form.json", (key,), "either") for key in ANISO_FORM],
]
OTHER_TYPE = {"json": "7", "string": 7, "either": 1.5}


def leaf_name(name: str, path: tuple) -> str:
    """The leaf as its line names it: `y[1]` in a row, `xi1.lo.exp` in xi.json."""
    if name == "sequence.jsonl":
        return path[1] if len(path) == 2 else f"{path[1]}[{path[2]}]"
    return ".".join(path)


@pytest.mark.parametrize("case", ["other-type", "malformed-string", "past-the-limit"])
@pytest.mark.parametrize(
    "name,path,kind", LEAVES, ids=[f"{n.split('.')[0]}:{leaf_name(n, p)}" for n, p, _ in LEAVES]
)
def test_every_integer_leaf_is_refused_by_name(
    contract_files, tmp_path, capsys, int_str_limit, name, path, kind, case
):
    # a malformed enclosure exp or precision read as a mismatch (exit 4), and
    # a JSON integer past the limit got `json`'s message, which names no key
    jsonl = name.endswith(".jsonl")
    text = contract_files[name]
    docs = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    node = docs
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = {"other-type": OTHER_TYPE[kind], "malformed-string": "1_0"}.get(case, "@BIG@")
    dump = "".join(json.dumps(doc) + "\n" for doc in docs) if jsonl else json.dumps(docs)
    f = tmp_path / name
    f.write_text(dump.replace('"@BIG@"', "9" * 5001))
    argv = {
        "sequence.jsonl": ["verify", "--in", str(f)],
        "xi.json": ["enumerate", "--xi", str(f), "--xmax", "100", "--out", str(tmp_path / "out")],
        "form.json": ["reduce", "--form", str(f)],
    }[name]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    line = err.replace(str(f), "FILE")
    assert line.startswith("error: ") and line.count("\n") == 1 and len(line) < 200, line
    assert names(line, leaf_name(name, path)), line
    if case == "past-the-limit":
        # the hex hint only where the field takes an integer string; an
        # xi.json `precision` has its own line
        hint = " (hex has none)" if kind != "json" else ""
        limit = f"{leaf_name(name, path)} has more than 4300 decimal digits, the int/str limit{hint}\n"
        assert line.endswith(limit) or (path == ("precision",) and "hex" not in line), line


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--form", "{d}/form.json"],
        ["pell", "--b", "2", "--count", "3000"],
        ["construct", "--b", "2", "--c", "3", "--depth", "4", "--out", "{d}/out"],
        ["enumerate", "--sqrt", "2,3", "--xmax", "100", "--out", "{d}/out"],
    ],
    ids=["reduce", "pell", "construct", "enumerate"],
)
def test_closed_stdout_is_one_input_error_line(tmp_path, argv):
    # each ended in a 14-line BrokenPipeError traceback with exit 1, and
    # construct and enumerate left their files behind
    (tmp_path / "form.json").write_text(json.dumps(ANISO_FORM))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        run = subprocess.run(
            [sys.executable, "-m", "conic_approx.cli", *(a.format(d=tmp_path) for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (2, "error: cannot write to stdout: [Errno 32] Broken pipe\n")
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "form.json"]  # no --out directory either


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--form", "{d}/form.json"],
        ["pell", "--b", "2"],
        ["construct", "--b", "2", "--c", "3", "--depth", "3", "--out", "{d}/out"],
        ["enumerate", "--sqrt", "2,3", "--xmax", "100", "--out", "{d}/out"],
        ["verify", "--in", "{d}/run/sequence.jsonl"],
    ],
    ids=["reduce", "pell", "construct", "enumerate", "verify"],
)
def test_full_stdout_is_one_input_error_line(tmp_path, argv):
    # reduce ended in an OSError traceback with exit 1, and construct exited 2
    # with `error: cannot write to --out`
    (tmp_path / "form.json").write_text(json.dumps(ANISO_FORM))
    assert main(["construct", "--b", "2", "--c", "3", "--depth", "3", "--out", str(tmp_path / "run")]) == 0
    before = sorted(tmp_path.rglob("*"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with open("/dev/full", "w") as full:  # every write to it fails with ENOSPC
        run = subprocess.run(
            [sys.executable, "-m", "conic_approx.cli", *(a.format(d=tmp_path) for a in argv)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert (run.returncode, run.stderr) == (
        2, "error: cannot write to stdout: [Errno 28] No space left on device\n"
    )
    assert sorted(tmp_path.rglob("*")) == before  # no --out directory either
