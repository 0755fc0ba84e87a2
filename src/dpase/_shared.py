"""Pieces shared by the numeric modules: the range error that sweeps tag
``invalid_cell``, and the row-block and square-tile walks that keep n x n
work in small temporaries."""

from __future__ import annotations

import math

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


def tile_pairs(n: int) -> list[tuple[slice, slice]]:
    """Pairs ``(I, J)`` of square tiles of an n x n matrix, J at or right
    of I, so the tiles ``M[I, J]`` cover every (i, j) with i <= j and no
    pair (i, j) lies in two of them. Tiles have about ``BLOCK_ENTRIES``
    entries, so a tile and its transposed partner ``M[J, I]`` are read
    from cache instead of one strided column at a time."""
    side = max(1, math.isqrt(BLOCK_ENTRIES))
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
    upper tile with its transposed lower partner once. A tile pair that is
    exactly equal needs no subtraction, so an exactly symmetric matrix
    (bool ones included) is checked with one-byte temporaries."""
    return all(
        np.array_equal(M[I, J], M[J, I].T)
        or (tol > 0 and np.abs(M[I, J] - M[J, I].T).max() <= tol)
        for I, J in tile_pairs(len(M))
    )
