"""Shared fixtures and the acceptance-criteria reporter."""

import numpy as np
import pytest

_ACCEPTANCE_LINES = []


def record_criterion(label, ok, detail=""):
    """Record and print one pass/fail line for an acceptance criterion."""
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {label}: {status}" + (f"  ({detail})" if detail else "")
    _ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
