"""k-nearest-neighbor classification with leave-one-out cross validation.

Distances are Euclidean. All tie rules are deterministic: neighbors at
identical distance rank by ascending vertex index; among vote-tied
classes the one whose nearest voting member is closest wins, and a
residual tie goes to the smallest class id. Comparisons use squared
distances throughout so the ordering is exact.

Leave-one-out evaluation never holds the n x n distance matrix: it walks
row blocks of about ``BLOCK_ENTRIES / n`` rows, so its memory is
O(block * n). Each block's k nearest come from a partial sort, and every
candidate tied with the k-th distance is kept and ranked by (distance,
index) before the cut, so the tie rules above hold exactly as a full
sort would apply them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._shared import ParameterRangeError, row_blocks


@dataclass(frozen=True)
class ErrorReport:
    """LOOCV classification error alongside the always-guess-modal baseline."""

    error_rate: float
    n_evaluated: int
    k: int
    chance_error: float


def chance_error(labels: np.ndarray) -> float:
    """Error of always predicting the most frequent class: 1 - modal share."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(labels) == 0:
        raise ValueError("labels must be a nonempty vector")
    _, counts = np.unique(labels, return_counts=True)
    return 1.0 - counts.max() / len(labels)


def _sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    # Accumulate per coordinate so the arithmetic matches a per-pair sum.
    # Squaring is exact under sign flip, so d(a, b) and d(b, a) are bit-equal.
    out = np.zeros((len(queries), len(points)))
    for j in range(points.shape[1]):
        diff = queries[:, j][:, None] - points[:, j][None, :]
        out += diff * diff
    return out


def _nearest_k(sq: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k nearest, ranked by (distance, index).

    A partial sort finds each row's k-th smallest distance; every column
    at or below it is a candidate, so a tie across the cut is kept. The
    candidates come out row-major with ascending columns, and a stable
    sort by (row, distance) keeps that column order among equal distances.
    """
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(sq <= kth)
    ranked = cols[np.lexsort((sq[rows, cols], rows))]
    counts = np.bincount(rows, minlength=len(sq))
    starts = np.cumsum(counts) - counts
    return ranked[starts[:, None] + np.arange(k)]


def _vote(neighbor_labels: np.ndarray, neighbor_sq_dists: np.ndarray) -> int:
    counts: dict[int, int] = {}
    nearest: dict[int, float] = {}
    for label, sq in zip(neighbor_labels, neighbor_sq_dists):
        label = int(label)
        counts[label] = counts.get(label, 0) + 1
        if label not in nearest:
            nearest[label] = sq  # neighbors arrive distance-sorted
    top = max(counts.values())
    tied = [label for label, c in counts.items() if c == top]
    return min(tied, key=lambda label: (nearest[label], label))


def _require_finite(points: np.ndarray) -> None:
    # A NaN distance compares false with the k-th one, so its row would
    # yield fewer than k candidates.
    if not np.isfinite(points).all():
        raise ValueError("point coordinates must be finite")


def knn_predict(
    train_points: np.ndarray,
    train_labels: np.ndarray,
    query: np.ndarray,
    k: int,
) -> int:
    """Majority label among the k nearest training points to the query."""
    train_points = np.asarray(train_points, dtype=float)
    train_labels = np.asarray(train_labels)
    query = np.asarray(query, dtype=float)
    if train_points.ndim != 2 or len(train_points) == 0:
        raise ValueError("training set must be a nonempty (m, d) matrix")
    if len(train_labels) != len(train_points):
        raise ValueError("training labels must match the training points")
    if query.shape != (train_points.shape[1],):
        raise ValueError(
            f"query shape {query.shape} does not match dimension {train_points.shape[1]}"
        )
    if not 1 <= k <= len(train_points):
        raise ParameterRangeError(f"k must satisfy 1 <= k <= {len(train_points)}, got {k}")
    _require_finite(train_points)
    _require_finite(query)
    sq = _sq_dists(query[None, :], train_points)
    neighbors = _nearest_k(sq, k)[0]
    return _vote(train_labels[neighbors], sq[0, neighbors])


def loocv_error(points: np.ndarray, labels: np.ndarray, k: int) -> ErrorReport:
    """Leave-one-out kNN error: predict each point from all the others.

    Distances are computed one row block at a time, so memory beyond the
    inputs is O(block * n) with blocks of about ``BLOCK_ENTRIES / n``
    rows, never n x n. The result, tie rules included, is the same as
    ranking each point's full distance row with a stable sort.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) matrix")
    n = len(points)
    if len(labels) != n:
        raise ValueError("labels length must equal the number of points")
    if not 1 <= k <= n - 1:
        raise ParameterRangeError(
            f"leave-one-out with k={k} needs at least {k + 1} points, got {n}"
        )
    _require_finite(points)

    errors = 0
    for b in row_blocks(n):
        sq = _sq_dists(points[b], points)
        np.fill_diagonal(sq[:, b.start:], np.inf)  # leave each point out
        errors += sum(
            _vote(labels[row], dists[row]) != int(label)
            for row, dists, label in zip(_nearest_k(sq, k), sq, labels[b])
        )
    return ErrorReport(
        error_rate=errors / n,
        n_evaluated=n,
        k=k,
        chance_error=chance_error(labels),
    )
