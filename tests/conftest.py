import os

import pytest

from conic_approx import extremal
from conic_approx.quadform import det3, max_norm


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


def _bilinear_inner_product_next(w) -> bool:
    """t_{i-1} = B(y_i, y_{i-1}) evaluated by `form.bilinear` at every index."""
    return w.t(w.i - 1) == w.form.bilinear(w.y(w.i), w.y(w.i - 1))


def _own_product_norm_bounds(w) -> bool:
    """The double inequality on norms with its own product t_{i-1} ||y_{i-1}||."""
    prev = max_norm(w.y(w.i - 1))
    n = w.t(w.i - 1) * prev
    return n - prev < max_norm(w.y(w.i)) < n + prev


def _forced(monkeypatch, plain: dict):
    """`extend` and `cli verify`, which share `extremal`'s walk, walk a copy
    of `IDENTITIES` with the entries named in `plain` replaced; returns that
    copy."""
    table = tuple((name, plain.get(name, holds)) for name, holds in extremal.IDENTITIES)
    monkeypatch.setattr(extremal, "IDENTITIES", table)
    return table


@pytest.fixture
def det3_forced(monkeypatch):
    """The table whose constant determinant never takes the Gram path."""
    return _forced(monkeypatch, {"constant determinant": _det3_determinant})


@pytest.fixture
def plain_forced(monkeypatch):
    """The table whose inner product t_{i-1} = B(y_i, y_{i-1}) never takes
    the polarization path and whose norm inequality computes its own
    product instead of reading `Window.t_y`."""
    return _forced(
        monkeypatch,
        {
            "inner product t_{i-1} = B(y_i, y_{i-1})": _bilinear_inner_product_next,
            "double inequality on norms": _own_product_norm_bounds,
        },
    )


@pytest.fixture
def forks(monkeypatch):
    """Counts the calls to `os.fork`; `extend` forks at every call that
    appends an index, and `verify` at every walk (the size threshold is 0).
    Skips where neither can fork at all."""
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
