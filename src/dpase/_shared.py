"""Pieces shared by the numeric modules: the range error that sweeps tag
``invalid_cell``, and the row-block walk that keeps n x n work in small
temporaries."""

from __future__ import annotations

# A blockwise pass visits about this many entries at a time (at least one
# row), so its temporaries stay O(block * n) instead of n x n.
BLOCK_ENTRIES = 2**16


class ParameterRangeError(ValueError):
    """Raised when a parameter lies outside the range a computation allows.

    A sweep records the cell as ``invalid_cell``; any other error inside a
    cell propagates.
    """


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices covering ``range(n)``, each about
    ``BLOCK_ENTRIES`` entries of an n-column matrix."""
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]
