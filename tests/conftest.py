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
