"""Pieces shared by the numeric modules: the range error that sweeps tag
``invalid_cell``, the row-block and square-tile walks that keep n x n
work in small temporaries, and the record of matrices already checked."""

from __future__ import annotations

import math
import weakref

import numpy as np

# A blockwise pass visits about this many entries at a time (at least one
# row, or one tile of side isqrt(BLOCK_ENTRIES)), so its temporaries stay
# O(block * n) or O(BLOCK_ENTRIES) instead of n x n.
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


def _tile_side() -> int:
    return max(1, math.isqrt(BLOCK_ENTRIES))


def tile_pairs(n: int) -> list[tuple[slice, slice]]:
    """Pairs ``(I, J)`` of square tiles of an n x n matrix, J at or right
    of I, so the tiles ``M[I, J]`` cover every (i, j) with i <= j and no
    pair (i, j) lies in two of them. Tiles have about ``BLOCK_ENTRIES``
    entries, so a tile and its transposed partner ``M[J, I]`` are read
    from cache instead of one strided column at a time."""
    side = _tile_side()
    edges = [slice(i, min(i + side, n)) for i in range(0, n, side)]
    return [(I, J) for a, I in enumerate(edges) for J in edges[a:]]


def mirror_upper(M: np.ndarray) -> None:
    """Copy the upper triangle of the square matrix M onto its lower
    triangle in place, tile by tile; the upper triangle and the diagonal
    are left as they are."""
    for I, J in tile_pairs(len(M)):
        if I == J:
            # Row by row inside a diagonal tile: a whole-tile copy from an
            # overlapping view would make numpy buffer the tile first.
            D = M[I, I]
            for r in range(1, len(D)):
                D[r, :r] = D[:r, r]
        else:
            M[J, I] = M[I, J].T


def is_symmetric(M: np.ndarray, tol: float = 0.0) -> bool:
    """Whether ``|M[i, j] - M[j, i]| <= tol`` for every pair, comparing each
    upper tile with its transposed lower partner once. Tile pairs are
    compared for exact equality, with one-byte temporaries, so an exactly
    symmetric matrix (bool ones included) needs no subtraction. From the
    first unequal pair on, a positive tol (meant for finite matrices) is
    checked on each pair's difference in one reused tile buffer."""
    buffer = None
    for I, J in tile_pairs(len(M)):
        upper, lower = M[I, J], M[J, I].T
        if buffer is None:
            if np.array_equal(upper, lower):
                continue
            if tol <= 0:
                return False
            buffer = np.empty(_tile_side() ** 2)
        diff = buffer[: upper.size].reshape(upper.shape)
        # Copy the transposed tile first: numpy buffers every strided
        # operand of a 2-D ufunc call in its own 64 KB block.
        np.copyto(diff, lower)
        np.subtract(upper, diff, out=diff)
        if not np.abs(diff, out=diff).max() <= tol:
            return False
    return True


# Read-only arrays that own their data and hold, as built, what the
# check that consults the record for their kind would find: a bool
# square array is a valid adjacency (symmetric, hollow), a float vector
# the finite values of a packed matrix. Only an array that no view of
# exists yet may be recorded: freezing an array does not freeze a
# writable view made before. Keyed by id and held weakly, so an entry
# goes with its array.
_checked: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def mark_checked(array: np.ndarray) -> None:
    """Make ``array``, just built valid and with no view of it, read-only
    and, if it owns its data (a view's base could still be written
    through), record it as checked."""
    array.setflags(write=False)
    if array.flags.owndata:
        _checked[id(array)] = array


def is_checked(array: np.ndarray) -> bool:
    """Whether ``array`` is itself a recorded array and still read-only; a
    copy, a view or an array made writable again is not."""
    return _checked.get(id(array)) is array and not array.flags.writeable
