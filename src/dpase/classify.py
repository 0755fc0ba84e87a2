"""k-nearest-neighbor classification with leave-one-out cross validation.

Distances are Euclidean. All tie rules are deterministic: neighbors at
identical distance rank by ascending vertex index; among vote-tied
classes the one whose nearest voting member is closest wins, and a
residual tie goes to the smallest class id. Comparisons use squared
distances throughout so the ordering is exact.

Leave-one-out evaluation is a sorted sweep (Friedman, Baskett & Shustek
1975). The points are sorted once, stably, on their widest coordinate
and walked in blocks of about ``BLOCK_ENTRIES / n`` consecutive sorted
points, but at least ``SWEEP_MIN_ROWS``. Each block's k-th distances to
its sorted neighbors bound the true ones from above, and only the
points whose gap along the sort axis is within that bound can be
nearer, so only those get full distances.
They are one slice of the sorted points, all n of them where one
coordinate prunes nothing (small n). From ``GRAM_FILTER_MIN_D``
dimensions on, where one coordinate prunes nothing either, the sweep
gives way to a filter: one matrix product per block gives every
distance in Gram form, ||x||^2 + ||y||^2 - 2 x.y, whose rounding error
has a proven bound, and only the points that the bound cannot rule out
get the exact distances. Every candidate tied with the k-th distance is
kept and ranked by (distance, vertex index) before the cut, and one
vectorized vote per block applies the tie rules above exactly as a full
sort would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _shared
from ._shared import ParameterRangeError
from .embedding import _one_blas_thread

# From this many dimensions on, LOOCV ranks through the Gram filter
# instead of the sorted sweep. One call on a seed-7 blockmodel
# embedding, k = 3, sweep -> filter, on a 2-core x86-64 machine: at
# d = 5, 6.0 -> 4.9 ms (n = 1000), 20 -> 15 ms (n = 2000) and 66 -> 48 ms
# (n = 4000); at d = 4, 4.3 -> 4.4, 13.2 -> 14.6 and 47 -> 47 ms; at
# d = 3 the sweep is 1.5 to 2 times faster at every n. At n = 300 a
# block spans most points, so the filter keeps most of them and is
# slower at d = 5 and 10 (0.8 -> 0.9 and 1.0 -> 1.2 ms).
GRAM_FILTER_MIN_D = 5
# The sorted sweep walks blocks of at least this many sorted points,
# where BLOCK_ENTRIES / n gives fewer (n > 2048); the Gram filter keeps
# ``row_blocks``. Its block's work grows with the block, the sweep's
# only with the candidate slice, so fewer Python-level rounds pay. One
# plain plus one private call at d = 2 on a seed-7 blockmodel, k = 3,
# 2-core x86-64 machine, BLOCK_ENTRIES / n rows -> 32, 64 rows: 81 ->
# 61, 63 ms at n = 4000 and 325 -> 199, 175 ms at n = 8000, with the
# same error rates. At 64 rows the block temporaries (2 MB each at
# n = 4000) left heap memory held under the next cell's buffers: peak
# RSS of 15 nsweep passes read 132 MB in 2 of 6 processes, against
# 121-122 MB in all 6 at 32 rows and in 4 of 4 at BLOCK_ENTRIES / n.
SWEEP_MIN_ROWS = 32


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


def _nearest_k(sq: np.ndarray, k: int, keys: np.ndarray) -> np.ndarray:
    """Column indices of each row's k nearest, ranked by (distance, key).

    ``keys`` holds each column's vertex index, so columns at equal
    distance rank by ascending vertex index in whatever order the columns
    come. A partial sort finds each row's k-th smallest distance; every
    column at or below it is a candidate, so a tie across the cut is
    kept. A NaN entry sorts last and is never a candidate.
    """
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(sq <= kth)
    ranked = cols[np.lexsort((keys[cols], sq[rows, cols], rows))]
    counts = np.bincount(rows, minlength=len(sq))
    starts = np.cumsum(counts) - counts
    return ranked[starts[:, None] + np.arange(k)]


def _vote(sq: np.ndarray, k: int, keys: np.ndarray,
          classes: np.ndarray, n_classes: int) -> np.ndarray:
    """Each row's winning class among its k nearest columns of ``sq``.

    ``_nearest_k`` picks each row's k nearest columns, ranked by
    (distance, ``keys``); their class ids, from ``classes`` (each
    column's class in 0..n_classes-1, in order of the class values), and
    their squared distances are gathered. Every neighbor is keyed by
    (its class's votes, descending; its distance; its class id), so a
    class's nearest member carries the class's best key and each row's
    best-keyed neighbor names the winner.
    """
    nearest = _nearest_k(sq, k, keys)
    classes, sq = classes[nearest], np.take_along_axis(sq, nearest, axis=1)
    rows = len(nearest)
    slots = (np.arange(rows)[:, None] * n_classes + classes).ravel()
    votes = np.bincount(slots, minlength=rows * n_classes)[slots]
    best = np.lexsort((classes.ravel(), sq.ravel(), -votes, slots // n_classes))
    return classes.ravel()[best[::k]]


def _gram_bounds(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Each point's float squared norm n_i and its part of the Gram
    filter's error bound (``e_ij = slack_i + slack_j``), for the points
    held as the columns of ``coords``; None if 8 n_i could overflow."""
    d = len(coords)
    norms = np.einsum("ij,ij->j", coords, coords)
    if not norms.max() <= np.finfo(float).max / 8:
        return None
    m, u = d + 3, np.finfo(float).eps / 2
    return norms, 4 * m * u / (1 - m * u) * norms + 4 * d * np.finfo(float).smallest_subnormal


def _gram_keep(coords: np.ndarray, norms: np.ndarray, slack: np.ndarray,
               b: slice, k: int) -> np.ndarray:
    """Mask of the points (columns of ``coords``) that may rank among the
    k nearest of some point of block ``b``.

    Gram-form distances g = n_i + n_j - 2 x_i.x_j come from one matrix
    product. Each row's (k+1)-th smallest g + e, its own column counted,
    is at least the k-th smallest over the other points and so bounds its
    k-th kernel distance from above; a point is kept if g - e is within
    that bound for some row. Each point of the block keeps itself, since
    its kernel distance to itself is 0.
    """
    g = norms[b, None] + norms - 2 * (coords[:, b].T @ coords)
    e = slack[b, None] + slack
    kth = np.partition(g + e, k, axis=1)[:, k:k + 1]
    return np.any(g - e <= kth, axis=0)


def _beyond(xq: np.ndarray, x: float, bound: np.ndarray) -> bool:
    """Whether the sort-axis term alone puts ``x`` past every row's bound."""
    gap = xq - x
    return bool(np.all(gap * gap > bound))


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
    values, classes = np.unique(train_labels, return_inverse=True)
    sq = _sq_dists(query[None, :], train_points)
    winner = _vote(sq, k, np.arange(len(train_points)), classes, len(values))
    return int(values[winner[0]])


def loocv_error(points: np.ndarray, labels: np.ndarray, k: int) -> ErrorReport:
    """Leave-one-out kNN error: predict each point from all the others.

    The points are sorted, stably, on their widest coordinate and walked
    in blocks of about ``BLOCK_ENTRIES / n`` consecutive sorted points,
    but at least ``SWEEP_MIN_ROWS`` (32, from n = 2049 on). For each
    block:

    1. Distances to the block's sorted neighbors, a full block plus k on
       each side, give each row's k-th smallest distance among them, an
       upper bound on its true k-th distance.
    2. A point whose squared gap along the sort axis alone exceeds a
       row's bound cannot be among its neighbors: the distance kernel
       adds nonnegative per-coordinate terms to 0, so its float sum is
       never below that one term. The remaining points form one slice
       ``[lo, hi)`` of the sorted points, located with ``searchsorted``
       and then checked exactly at both ends; should rounding have cut
       it short, it is widened to all points.
    3. Full distances to the candidates go through the same selection
       as a full sort, with the candidates' vertex indices (``order``
       of their sorted positions) as the tie key.

    When the neighbors already span every point (small n) the block
    skips the bound, and its slice is all n sorted points. The sorted
    points' coordinates are held once as one contiguous ``(d, n)``
    array, so every slice is read in place. Memory beyond the inputs
    is O(block * n), never n x n. Each point's
    distance to itself is NaN, which never ranks, so the result, tie
    rules included, is the same as ranking each point's full distance
    row without it by a stable sort, also when squares overflow to inf.

    With d >= ``GRAM_FILTER_MIN_D`` steps 1 and 2 are skipped, since
    one coordinate prunes nothing there, and the blocks keep about
    ``BLOCK_ENTRIES / n`` points, however few. Step 3's candidates are
    then the points, out of all n, that the Gram filter ``_gram_keep``
    keeps: each one whose Gram-form distance minus its error bound e_ij
    is within some row's bound U_i. The filter is exact, as follows. Let
    s_ij be the float value that the kernel ``_sq_dists`` returns,
    g_ij = ||x_i - x_j||^2 the real distance, n_i the float ||x_i||^2,
    T_ij = ||x_i||^2 + ||x_j||^2, u = 2^-53 the unit roundoff,
    gamma_m = m u / (1 - m u), and theta_m any factor with
    |theta_m| <= gamma_m. For any summation order, FMA or not, and
    leaving underflow aside (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., §3.1 and Lemma 3.3):

    - Each kernel term fl((x - y)^2) is (x - y)^2 (1 + theta_3): the
      difference's rounding counts twice once squared, the product's
      once. Summing d nonnegative terms from 0 adds theta_{d-1}, so
      |s_ij - g_ij| <= gamma_{d+2} g_ij <= 2 gamma_{d+2} T_ij.
    - The float dot product and norms each err by at most gamma_d
      times the sum of |x_ik x_jk| (at most T_ij / 2) or of x_ik^2, and
      ĝ_ij = n_i + n_j - 2 x_i.x_j takes two more roundings on three
      terms whose magnitudes sum to at most 2 (1 + gamma_d) T_ij, so
      |ĝ_ij - g_ij| <= (2 gamma_d + 2 gamma_2 (1 + gamma_d)) T_ij
      <= 2 gamma_{d+2} T_ij.

    So |ĝ_ij - s_ij| <= 4 gamma_{d+2} T_ij. Since T_ij <= (n_i + n_j) /
    (1 - gamma_d), and forming the bound takes a few roundings more,
    e_ij = 4 gamma_{d+3} (n_i + n_j) + 8 d 2^-1074 still bounds it for
    d < 10^7. Its absolute term covers underflow: 4 d products and
    squares may round to a subnormal (the dot product's d count twice,
    as 2 x.y), each off by at most 2^-1075 (Higham §2.1), and sums at
    most double that, so 10 d 2^-1075 < 8 d 2^-1074.
    Since s_ij <= ĝ_ij + e_ij, the k-th smallest of ĝ_ij + e_ij over
    j != i bounds the k-th smallest s_ij from above, and so does U_i,
    the (k+1)-th smallest over all j, which is no smaller. Any j with
    s_ij at or below that k-th distance has ĝ_ij - e_ij <= s_ij <= U_i,
    so every point that can rank, ties at the k-th distance included,
    is kept; so is each row's own point, with s_ii = 0. Rounding to
    nearest is monotone, so comparing the float sums ĝ + e and ĝ - e
    keeps that order. A call in which 8 n_i could overflow for some
    point skips the filter and runs steps 1 and 2.
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

    values, classes = np.unique(labels, return_inverse=True)
    spans = np.ptp(points, axis=0)
    x = points[:, spans.argmax()] if spans.size else np.zeros(n)
    order = np.argsort(x, kind="stable")
    xs, sorted_classes = x[order], classes[order]
    # One contiguous row per coordinate: the kernel reads one coordinate
    # of a slice of the sorted points at a time.
    coords = np.ascontiguousarray(points[order].T)
    gram = _gram_bounds(coords) if len(coords) >= GRAM_FILTER_MIN_D else None
    # With the Gram filter these are ``row_blocks(n)``.
    step = max(SWEEP_MIN_ROWS if gram is None else 1, _shared.BLOCK_ENTRIES // n)
    blocks = [slice(i, min(i + step, n)) for i in range(0, n, step)]
    # A full block plus k on each side; with the Gram filter, all points.
    reach = blocks[0].stop + k if gram is None else n
    errors = 0
    # numpy's OpenBLAS is pinned to one thread for the call: the Gram
    # filter's products would otherwise leave the pool's idle worker
    # spinning between them, and an n = 2000, d = 50 call took 156-157 ms
    # of CPU in 77-89 ms of wall time without the pin. The sorted sweep
    # calls no BLAS routine, so the pin changes none of its bits.
    with _one_blas_thread():
        for b in blocks:
            queries, xq, own = coords[:, b].T, xs[b], np.arange(b.stop - b.start)
            lo, hi = max(0, b.start - reach), min(n, b.stop + reach)
            if hi - lo < n:  # 1. bound each row's k-th distance from its sorted neighbors
                near = _sq_dists(queries, coords[:, lo:hi].T)
                near[own, b.start - lo + own] = np.nan  # leave each point out
                bound = np.partition(near, k - 1, axis=1)[:, k - 1]
                # 2. the sorted range whose sort-axis gap is within some row's bound
                lo = np.searchsorted(xs, (xq - np.sqrt(bound)).min())
                hi = np.searchsorted(xs, (xq + np.sqrt(bound)).max(), side="right")
                if lo > 0 and not _beyond(xq, xs[lo - 1], bound):
                    lo = 0
                if hi < n and not _beyond(xq, xs[hi], bound):
                    hi = n
            # 3. the candidates, ranked with their vertex indices as the tie key
            first, cand = b.start - lo, slice(lo, hi)  # where the block's own points start
            if gram is not None:  # lo = 0 and hi = n
                keep = _gram_keep(coords, *gram, b, k)
                first, cand = np.count_nonzero(keep[:b.start]), np.flatnonzero(keep)
            sq = _sq_dists(queries, coords[:, cand].T)
            sq[own, first + own] = np.nan
            winners = _vote(sq, k, order[cand], sorted_classes[cand], len(values))
            errors += int(np.count_nonzero(winners != sorted_classes[b]))
    return ErrorReport(
        error_rate=errors / n,
        n_evaluated=n,
        k=k,
        chance_error=chance_error(labels),
    )
