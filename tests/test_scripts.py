"""The experiment scripts run end to end."""
import os
import subprocess
import sys
from pathlib import Path

import conic_approx

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(conic_approx.__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
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


def test_extremal_experiment_rejects_a_square_b():
    run = run_script("run_extremal_experiment.py", "--b", "4")
    assert run.returncode == 3
    assert run.stderr == "rejected: b=4 must be a square-free integer > 1\n"
