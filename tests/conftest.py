"""Collects acceptance-criterion results and prints one line per criterion
at the end of the run, and records when a universe builds its states."""

import pytest

from revlab import states

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: str, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number}: {description}: {status}{suffix}")
    return ok


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
