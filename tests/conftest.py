"""Collects acceptance-criterion results and prints one line per criterion
at the end of the run, each with the time its test took, and records when a universe builds its states."""

import time

import pytest

from revlab import states

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: str, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number}: {description}: {status}{suffix}")
    return ok


@pytest.fixture(autouse=True)
def _criterion_time():
    """Appends the test's own time, past its module fixtures, to each criterion line it records."""
    first, start = len(ACCEPTANCE_LINES), time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    ACCEPTANCE_LINES[first:] = [f"{line} [{elapsed:.2f}s]" for line in ACCEPTANCE_LINES[first:]]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def generated(monkeypatch):
    """The (sig, kind, global_consistency, il_scope) of each `states._generate_states` call: one per
    universe that builds its states."""
    calls = []
    generate = states._generate_states
    monkeypatch.setattr(states, "_generate_states", lambda *args: calls.append(args) or generate(*args))
    return calls
