"""k-nearest-neighbor classification with leave-one-out cross validation.

Distances are Euclidean. All tie rules are deterministic: neighbors at
identical distance rank by ascending vertex index; among vote-tied
classes the one whose nearest voting member is closest wins, and a
residual tie goes to the smallest class id. Comparisons use squared
distances throughout so the ordering is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        raise ValueError(f"k must satisfy 1 <= k <= {len(train_points)}, got {k}")
    sq = _sq_dists(query[None, :], train_points)[0]
    order = np.argsort(sq, kind="stable")[:k]
    return _vote(train_labels[order], sq[order])


def loocv_error(points: np.ndarray, labels: np.ndarray, k: int) -> ErrorReport:
    """Leave-one-out kNN error: predict each point from all the others."""
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) matrix")
    n = len(points)
    if len(labels) != n:
        raise ValueError("labels length must equal the number of points")
    if not 1 <= k <= n - 1:
        raise ValueError(f"leave-one-out with k={k} needs at least {k + 1} points, got {n}")

    sq = _sq_dists(points, points)
    np.fill_diagonal(sq, np.inf)
    order = np.argsort(sq, axis=1, kind="stable")[:, :k]

    errors = 0
    for i in range(n):
        neighbors = order[i]
        if _vote(labels[neighbors], sq[i, neighbors]) != int(labels[i]):
            errors += 1
    return ErrorReport(
        error_rate=errors / n,
        n_evaluated=n,
        k=k,
        chance_error=chance_error(labels),
    )
