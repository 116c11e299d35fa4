import os

import pytest

from conic_approx import cli, extremal
from conic_approx.quadform import det3


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(VERDICTS):
            terminalreporter.write_line(line)


def _det3_determinant(w) -> bool:
    """The constant-determinant entry evaluated by `det3` on the members only."""
    i = w.i
    return abs(det3(w.y(i), w.y(i - 1), w.y(i - 2))) == abs(w.det0)


@pytest.fixture
def det3_forced(monkeypatch):
    """`extend` and `cli verify` walk a copy of `IDENTITIES` whose constant
    determinant never takes the Gram path; returns that copy."""
    table = tuple(
        (name, _det3_determinant if name == "constant determinant" else holds)
        for name, holds in extremal.IDENTITIES
    )
    monkeypatch.setattr(extremal, "IDENTITIES", table)
    monkeypatch.setattr(cli, "IDENTITIES", table)
    return table


@pytest.fixture
def forks(monkeypatch):
    """Counts the calls to `os.fork`; `extend` forks at every call that
    appends an index (the size threshold is 0).  Skips where `extend` cannot
    fork at all."""
    monkeypatch.setattr(extremal, "FORK_MIN_BITS", 0)
    if not extremal._fork_pays(0):
        pytest.skip("extend does not fork here: no os.fork, one CPU or other threads")
    calls = []
    real = os.fork

    def counting_fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def extend_path(request, monkeypatch):
    """Runs the test with `extend` on the path its class names in `PATH`:
    "serial" never forks; "forked" forks at every call that appends an index,
    and the test fails if no call forked."""
    if getattr(request.cls, "PATH", "serial") == "serial":
        monkeypatch.setattr(extremal, "_fork_pays", lambda bits: False)
        yield
        return
    calls = request.getfixturevalue("forks")
    yield
    assert calls, "no extend call forked"
