"""Shared test plumbing: collects acceptance-criterion verdicts and
prints them in a dedicated section of the terminal summary, measures the
traced memory peak of a call, and names one entry in each kind of square
tile for the symmetry checks."""

import tracemalloc

acceptance_lines: list[str] = []

# With the default 256-row tiles an n = 600 matrix has tiles starting at 0,
# 256 and 512. One entry each in an upper and a lower off-diagonal tile,
# a diagonal tile, the last (partial) diagonal tile and the last tile column.
TILE_CASE_N = 600
TILE_CASE_ENTRIES = [(10, 300), (300, 10), (300, 310), (595, 590), (100, 599)]


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
