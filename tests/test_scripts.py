"""The experiment scripts run end to end."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conic_approx

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(conic_approx.__file__).resolve().parents[1]


def run_script(name: str, *args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


def test_extremal_experiment_reads_the_height_cap_exactly():
    # 1e400 is past the float range; the README quotes the summary there
    run = run_script("run_extremal_experiment.py", "--depth", "6", "--height-cap", "1e400")
    assert run.returncode == 0, run.stderr
    assert "summary (min over last third): 0.61516\n" in run.stdout


def test_extremal_experiment_past_the_cap_exits_3():
    # the records of 1e700 need 4716 bits, past the default cap of 4096
    run = run_script("run_extremal_experiment.py", "--depth", "6", "--height-cap", "1e700")
    assert run.returncode == 3
    assert run.stderr == "precision cap: needs 4716 bits, cap is 4096\n"


def test_extremal_experiment_height_cap_below_one_is_input_error():
    # a cap of 0 gives no record, and the exponent estimate ended in a traceback
    run = run_script("run_extremal_experiment.py", "--depth", "3", "--height-cap", "0")
    assert run.returncode == 2
    assert (run.stdout, run.stderr) == ("", "error: --height-cap must be at least 1\n")


def test_extremal_experiment_malformed_precision_cap_is_input_error(monkeypatch):
    # the script's first use of the cap raised a ValueError, a traceback with exit 1
    monkeypatch.setenv("CONIC_APPROX_MAX_BITS", "abc")
    run = run_script("run_extremal_experiment.py", "--depth", "3")
    assert run.returncode == 2
    assert (run.stdout, run.stderr) == (
        "", "error: CONIC_APPROX_MAX_BITS must be a positive integer, not 'abc'\n"
    )


def test_extremal_experiment_rejects_a_square_b():
    run = run_script("run_extremal_experiment.py", "--b", "4")
    assert run.returncode == 3
    assert run.stderr == "rejected: b=4 must be a square-free integer > 1\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_extremal_experiment_full_stdout_is_one_input_error_line():
    # its first print ended in an OSError traceback with exit 1
    with open("/dev/full", "w") as full:  # every write to it fails with ENOSPC
        run = run_script("run_extremal_experiment.py", "--depth", "6", stdout=full)
    assert (run.returncode, run.stderr) == (
        2, "error: cannot write to stdout: [Errno 28] No space left on device\n"
    )


def test_exponent_table_prints_the_header_and_three_rows():
    run = run_script("exponent_table.py", "--xmax", "2000")
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["target", "records", "summary", "indep", "rigidity"]
    assert [row.split()[:2] for row in rows] == [
        ["extremal", "(2,3)"], ["(1,", "sqrt2,"], ["(1,", "sqrt2,"]
    ]
    assert run.stderr == ""


def test_exponent_table_rejects_a_square_b():
    # ExtremalTarget's UnsupportedConstruction ended in a traceback with exit 1
    run = run_script("exponent_table.py", "--b", "4")
    assert run.returncode == 3
    assert (run.stdout, run.stderr) == ("", "rejected: b=4 must be a square-free integer > 1\n")


def test_exponent_table_xmax_below_one_is_input_error():
    run = run_script("exponent_table.py", "--xmax", "0")
    assert run.returncode == 2
    assert (run.stdout, run.stderr) == ("", "error: --xmax must be positive\n")


@pytest.mark.parametrize("xmax", ["1", "2"])
def test_exponent_table_fewer_than_two_records_is_input_error(xmax):
    # estimate_lambda's ValueError ended in a traceback with exit 1; the line
    # is the one `cli enumerate` prints
    run = run_script("exponent_table.py", "--xmax", xmax)
    assert run.returncode == 2
    assert (run.stdout, run.stderr) == (
        "",
        f"error: 1 minimal point(s) up to --xmax {xmax}; the exponent estimate needs at least two\n",
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_exponent_table_full_stdout_is_one_input_error_line():
    with open("/dev/full", "w") as full:  # every write to it fails with ENOSPC
        run = run_script("exponent_table.py", "--xmax", "2000", stdout=full)
    assert (run.returncode, run.stderr) == (
        2, "error: cannot write to stdout: [Errno 28] No space left on device\n"
    )
