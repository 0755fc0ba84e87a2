"""The square-tile walk over symmetric n x n matrices."""

import numpy as np
import pytest

from dpase import _shared

DEFAULT_SIDE = 256  # isqrt(2**16)


def sides_and_sizes():
    for side in (1, 2, 3, DEFAULT_SIDE):
        for n in sorted({0, 1, 2, side - 1, side, side + 1, 2 * side + 1}):
            yield side, n


@pytest.fixture
def tile_side(request, monkeypatch):
    """Tiles of the requested side: BLOCK_ENTRIES is its square, or the
    default when the side is the default one."""
    side = request.param
    if side != DEFAULT_SIDE:
        monkeypatch.setattr(_shared, "BLOCK_ENTRIES", side * side)
    return side


CASES = pytest.mark.parametrize(
    "tile_side, n", list(sides_and_sizes()), indirect=["tile_side"]
)


class TestTilePairs:
    @CASES
    def test_cover_the_upper_triangle_once(self, tile_side, n):
        seen = np.zeros((n, n), dtype=int)
        pairs = _shared.tile_pairs(n)
        for I, J in pairs:
            assert I.stop - I.start <= tile_side and J.start >= I.start
            seen[I, J] += 1
        # Each (i, j) with i <= j once; below the diagonal only the lower
        # halves of the diagonal tiles.
        tile = np.arange(n) // tile_side
        expected = np.triu(np.ones((n, n), dtype=bool)) | (tile[:, None] == tile)
        assert np.array_equal(seen, expected.astype(int))
        tiles = -(-n // tile_side)
        assert len(pairs) == tiles * (tiles + 1) // 2

    def test_side_is_the_square_root_of_block_entries_rounded_down(self, monkeypatch):
        monkeypatch.setattr(_shared, "BLOCK_ENTRIES", 10)
        assert [(I.start, J.start) for I, J in _shared.tile_pairs(7)] == [
            (0, 0), (0, 3), (0, 6), (3, 3), (3, 6), (6, 6),
        ]


class TestMirrorUpper:
    @CASES
    @pytest.mark.parametrize("dtype", [float, bool])
    def test_keeps_the_upper_triangle_and_makes_the_matrix_symmetric(
        self, tile_side, n, dtype
    ):
        M = np.random.default_rng(n).normal(size=(n, n))
        if dtype is bool:
            M = M > 0.3
        before = M.copy()
        _shared.mirror_upper(M)
        assert np.array_equal(np.triu(M), np.triu(before))
        assert np.array_equal(M, M.T)


class TestIsSymmetric:
    @CASES
    def test_one_planted_difference_in_any_tile_is_found(self, tile_side, n):
        M = np.random.default_rng(n).normal(size=(n, n))
        M += M.T
        assert _shared.is_symmetric(M)
        planted = [(0, n - 1), (n - 1, 0), (n // 2, n // 2 - 1), (n - 1, n - 2)]
        for i, j in planted if n >= 2 else []:
            bad = M.copy()
            bad[i, j] += 1e-9
            assert not _shared.is_symmetric(bad)
            assert not _shared.is_symmetric(bad, 1e-10)
            assert _shared.is_symmetric(bad, 1e-8)

    @CASES
    def test_every_tile_pair_is_held_to_the_tolerance(self, tile_side, n):
        # All pairs differ by up to 5e-11, so every tile pair after the
        # first unequal one goes through the subtraction.
        rng = np.random.default_rng(n)
        M = rng.normal(size=(n, n))
        M += M.T
        M += np.triu(rng.uniform(0.0, 5e-11, size=(n, n)), 1)
        assert _shared.is_symmetric(M, 1e-10)
        if n >= 2:
            assert not _shared.is_symmetric(M)
            M[n - 1, n - 2] += 1e-9
            assert not _shared.is_symmetric(M, 1e-10)
