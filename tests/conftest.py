"""Shared fixtures and the acceptance-criteria reporter."""

import numpy as np
import pytest

from multisep import Lattice

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


@pytest.fixture(autouse=True)
def full_partition_search(request, monkeypatch):
    """min_ksep_energy searches one partition per lattice-automorphism
    orbit.  test_manybody_equivalence.py holds it to an oracle that
    searches every partition from the same seeded start states, so there
    every lattice gets the trivial group, under which the search visits
    every partition too."""
    if request.module.__name__.endswith("test_manybody_equivalence"):
        monkeypatch.setattr(Lattice, "automorphisms", lambda self: np.arange(self.n)[None])
