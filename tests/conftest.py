"""Shared test plumbing: collects acceptance-criterion verdicts and
prints them in a dedicated section of the terminal summary, and
measures the traced memory peak of a call."""

import tracemalloc

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def traced_peak(call) -> int:
    """Bytes allocated at the peak of ``call()`` beyond those live before it.

    A first untraced call keeps one-off lazy imports out of the count.
    """
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
