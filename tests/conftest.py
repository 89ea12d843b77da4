"""Shared pytest plumbing.

test_acceptance.py registers one verdict per numbered criterion through the
`criterion` fixture; after the run the hook below prints a single pass/fail
line for each so the outcome is readable without scrolling through tracebacks.
The `traced_peak` fixture measures what one call allocates at its peak.
"""

import tracemalloc

import pytest

N_CRITERIA = 9

_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_criterion(number: int, title: str, passed: bool, detail: str = "") -> None:
    _RESULTS[number] = (title, bool(passed), detail)


@pytest.fixture
def criterion():
    return record_criterion


def _traced_peak(fn, *args) -> int:
    """Bytes `fn(*args)` holds at its peak under tracemalloc, above what was
    held when it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for num in range(1, N_CRITERIA + 1):
        if num in _RESULTS:
            title, ok, detail = _RESULTS[num]
            line = f"criterion {num}: {'PASS' if ok else 'FAIL'}  {title}"
            if detail:
                line += f"  [{detail}]"
        else:
            line = f"criterion {num}: NOT RUN"
        terminalreporter.write_line(line)
