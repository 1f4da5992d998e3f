"""Shared fixtures, the Hypothesis profiles and the acceptance-criteria
reporter.

Acceptance tests register a verdict per criterion; a terminal-summary hook
prints one PASS/FAIL line each, so the gate is readable at the end of the
run even when individual assertions carry long tracebacks.
"""

import re
import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from threshgrad.analysis import analyze, generate_synthetic
from threshgrad.solver import SolverConfig

# `pytest --hypothesis-profile=ci` draws ten times the default number of
# examples for every property, in the same order on every run.  A property
# that needs more or fewer examples than the default states its count as a
# multiple of `settings.default.max_examples`, which is the active
# profile's count when the test module is imported, so the profile scales
# it too
settings.register_profile("ci", max_examples=1000, derandomize=True)

_ACCEPTANCE: dict = {}
_EXPECTED: set = set()


def record_acceptance(criterion: int, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE[criterion] = (passed, detail)


@pytest.fixture
def acceptance():
    return record_acceptance


def pytest_collection_modifyitems(items):
    for item in items:
        m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", item.nodeid)
        if m:
            _EXPECTED.add(int(m.group(1)))


def pytest_terminal_summary(terminalreporter):
    if not _EXPECTED:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(_EXPECTED):
        if k in _ACCEPTANCE:
            passed, detail = _ACCEPTANCE[k]
            verdict = "PASS" if passed else "FAIL"
        else:
            verdict, detail = "FAIL", "test did not complete"
        line = f"ACCEPTANCE {k}: {verdict}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# shared instance batch: 100 seeded interval-only least-squares problems


@dataclass
class Batch:
    runs: list  # the `Analysis` of instance seed i at index i
    elapsed: float


@pytest.fixture(scope="session")
def lasso_batch() -> Batch:
    """100 seeded 20x50 instances solved, polished and analyzed once per
    session; several acceptance criteria quantify over this batch."""
    t0 = time.perf_counter()
    runs = [analyze(generate_synthetic(20, 50, s), SolverConfig()) for s in range(100)]
    return Batch(runs=runs, elapsed=time.perf_counter() - t0)
