"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test:
eigenvalues come from characteristic-polynomial root isolation instead
of LAPACK, large-matrix eigenpairs from a full dense decomposition
instead of Lanczos iteration, nearest-neighbor answers from a pure-Python exhaustive sort,
Procrustes optima from a dense grid over all 2x2 orthogonal maps,
symmetric random matrices from a whole upper triangle mirrored after
the fact instead of row by row in place, and edge lists from a
line-by-line parse into a float64 matrix instead of a vectorized one.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from dpase import EdgeListError

edge_log = logging.getLogger("oracles.edge_list")


# ---------------------------------------------------------------------------
# characteristic polynomial eigenvalues (small symmetric matrices)

def char_poly_coeffs(A) -> list[float]:
    """Monic characteristic polynomial of A via the Faddeev-LeVerrier
    recurrence: returns [1, c1, ..., cn] with det(xI - A) = x^n + c1 x^{n-1} + ...
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = [1.0]
    M = np.eye(n)
    for k in range(1, n + 1):
        AM = A @ M
        ck = -np.trace(AM) / k
        coeffs.append(float(ck))
        M = AM + ck * np.eye(n)
    return coeffs


def _poly_eval(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_real_roots(coeffs: list[float]) -> list[float]:
    """Real roots of a monic polynomial whose roots are all real and
    (effectively) simple.

    Critical points come from recursing on the derivative (whose roots
    are real too, by Rolle); each sign change between consecutive
    critical points, padded by a Cauchy bound, is bisected down to
    machine precision. Intended for characteristic polynomials of
    generic symmetric matrices, where eigenvalues are distinct.
    """
    lead = coeffs[0]
    coeffs = [c / lead for c in coeffs]
    degree = len(coeffs) - 1
    if degree == 0:
        return []
    if degree == 1:
        return [-coeffs[1]]
    deriv = [(degree - i) * coeffs[i] for i in range(degree)]
    critical = poly_real_roots(deriv)
    bound = 1.0 + max(abs(c) for c in coeffs[1:])
    points = sorted({-bound, bound, *critical})
    roots: list[float] = []

    def push(r: float) -> None:
        if all(abs(r - seen) > 1e-12 * max(1.0, abs(r)) for seen in roots):
            roots.append(r)

    for lo, hi in zip(points, points[1:]):
        flo, fhi = _poly_eval(coeffs, lo), _poly_eval(coeffs, hi)
        if flo == 0.0:
            push(lo)
            continue
        if fhi == 0.0:
            push(hi)
            continue
        if flo * fhi > 0.0:
            continue
        a, b, fa = lo, hi, flo
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            fm = _poly_eval(coeffs, mid)
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        push(0.5 * (a + b))
    return sorted(roots)


def sym_eigvals(A) -> list[float]:
    """Eigenvalues of a small symmetric matrix from its characteristic
    polynomial, sorted ascending."""
    return poly_real_roots(char_poly_coeffs(A))


def magnitude_sort(values, d: int | None = None) -> list[float]:
    """Sort by descending |value|, positive first on magnitude ties,
    optionally truncated to the first d."""
    ordered = sorted(values, key=lambda v: (-abs(v), v < 0))
    return ordered if d is None else ordered[:d]


def dense_top_d(M, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-d eigenpairs by magnitude from a full dense decomposition.

    Ordered by descending |value|, positive first on magnitude ties, then
    by ascending position; each vector's sign is flipped so that its first
    largest-|entry| component is positive.
    """
    w, V = np.linalg.eigh(np.asarray(M, dtype=float))
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), w[i] < 0, i))[:d]
    values, vectors = w[order], V[:, order].copy()
    for col in range(d):
        column = vectors[:, col]
        lead = max(range(len(column)), key=lambda i: (abs(column[i]), -i))
        if column[lead] < 0:
            vectors[:, col] = -column
    return values, vectors


# ---------------------------------------------------------------------------
# exhaustive k-nearest-neighbor / LOOCV

def sq_dist(a, b) -> float:
    total = 0.0
    for j in range(len(a)):
        diff = float(a[j]) - float(b[j])
        total += diff * diff
    return total


def brute_vote(candidates: list[tuple[float, int, int]]) -> int:
    """Majority label from (sq_dist, index, label) triples already sorted
    by (distance, index): vote ties go to the class with the closest
    member, then to the smaller class id."""
    counts: dict[int, int] = {}
    nearest: dict[int, float] = {}
    for dist, _, label in candidates:
        counts[label] = counts.get(label, 0) + 1
        if label not in nearest:
            nearest[label] = dist
    top = max(counts.values())
    tied = [label for label, c in counts.items() if c == top]
    return min(tied, key=lambda label: (nearest[label], label))


def brute_knn_predict(points, labels, query, k: int) -> int:
    ranked = sorted(
        (sq_dist(points[i], query), i, int(labels[i])) for i in range(len(points))
    )
    return brute_vote(ranked[:k])


def brute_loocv_error(points, labels, k: int) -> float:
    n = len(points)
    errors = 0
    for i in range(n):
        ranked = sorted(
            (sq_dist(points[j], points[i]), j, int(labels[j]))
            for j in range(n)
            if j != i
        )
        if brute_vote(ranked[:k]) != int(labels[i]):
            errors += 1
    return errors / n


# ---------------------------------------------------------------------------
# 2x2 orthogonal Procrustes by dense grid search

def grid_procrustes_distance(X, Y, step: float = 1e-5) -> float:
    """min ||X Q - Y||_F over Q in O(2), by scanning rotations and
    reflections at the given angular resolution.

    Uses ||X Q - Y||_F^2 = ||X||^2 + ||Y||^2 - 2 tr(Q^T X^T Y) and the
    closed trig form of the trace on each component of O(2).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    M = X.T @ Y
    theta = np.arange(0.0, 2.0 * math.pi, step)
    c, s = np.cos(theta), np.sin(theta)
    # rotation [[c,-s],[s,c]]: tr(Q^T M) = c (M00 + M11) + s (M10 - M01)
    trace_rot = c * (M[0, 0] + M[1, 1]) + s * (M[1, 0] - M[0, 1])
    # reflection [[c,s],[s,-c]]: tr(Q^T M) = c (M00 - M11) + s (M01 + M10)
    trace_ref = c * (M[0, 0] - M[1, 1]) + s * (M[0, 1] + M[1, 0])
    best = max(trace_rot.max(), trace_ref.max())
    gap = (X * X).sum() + (Y * Y).sum() - 2.0 * best
    return math.sqrt(max(gap, 0.0))


# ---------------------------------------------------------------------------
# symmetric random matrices: draw the upper triangle, then mirror it

def rfp_layout(M) -> np.ndarray:
    """M's upper triangle in LAPACK's rectangular full packed layout
    (TRANSR = 'N', UPLO = 'L'), made by LAPACK's own ``dtpttf`` from the
    row-major upper packed vector (which is the column-major lower one)."""
    from scipy.linalg.lapack import dtpttf

    n = len(M)
    rfp, info = dtpttf(n, np.asarray(M, dtype=float)[np.triu_indices(n)], transr="N", uplo="L")
    assert info == 0
    return rfp


def triu_scatter_noise(n: int, beta_sq: float, rng) -> np.ndarray:
    """Symmetric N(0, beta_sq) noise from one draw of the upper triangle
    (diagonal included, row-major order) scattered through index arrays."""
    rows, cols = np.triu_indices(n)
    draws = rng.normal(0.0, math.sqrt(beta_sq), size=rows.size)
    E = np.zeros((n, n))
    E[rows, cols] = draws
    E[cols, rows] = draws
    return E


def transpose_sum_sbm(B, pi, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Blockmodel adjacency and 1-based labels: labels from ``pi``, then
    each row's strict upper triangle from ``B``, symmetrized as U + U^T."""
    B = np.asarray(B, dtype=float)
    labels = rng.choice(len(pi), size=n, p=pi) + 1
    idx = labels - 1
    upper = np.zeros((n, n))
    for i in range(n - 1):
        upper[i, i + 1:] = rng.random(n - 1 - i) < B[idx[i], idx[i + 1:]]
    return upper + upper.T, labels


# ---------------------------------------------------------------------------
# edge lists: one Python int() per token, line by line

def line_loop_edge_list(path, n_hint: int | None = None) -> np.ndarray:
    """A float64 adjacency matrix from an edge list read line by line.

    Same file format, messages and log lines as ``dpase.load_edge_list``:
    ``#`` and blank lines skipped, exactly two ``int()`` tokens per line,
    a 0 anywhere means 0-based, duplicates collapse, self-loops are
    dropped with a warning, ids past int64 are capped so that they fail
    the size checks, and the first out-of-range line in file order is named.
    """
    if n_hint is not None and n_hint < 0:
        raise EdgeListError(f"{path}: vertex-count hint must be nonnegative, got {n_hint}")
    linenos: list[int] = []
    pairs: list[int] = []
    try:
        fh = open(path)
    except OSError as exc:
        raise EdgeListError(f"cannot read edge list {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise EdgeListError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            ids = []
            for token in tokens:
                try:
                    ids.append(int(token))
                except ValueError:
                    raise EdgeListError(
                        f"{path}:{lineno}: non-integer vertex id {token!r}"
                    ) from None
            if min(ids) < 0:
                raise EdgeListError(f"{path}:{lineno}: negative vertex id")
            linenos.append(lineno)
            pairs += ids
    if not pairs:
        if n_hint is None:
            raise EdgeListError(f"{path}: no edges and no vertex-count hint")
        return np.zeros((n_hint, n_hint))
    cap = np.iinfo(np.int64).max
    ids = np.array([min(i, cap) for i in pairs], dtype=np.int64).reshape(-1, 2)
    min_id = int(ids.min())
    if min_id == 1:
        edge_log.info(
            "%s: minimum vertex id is 1 and 0 never appears; treating ids as 1-based", path
        )
    ids -= 0 if min_id == 0 else 1
    n = n_hint if n_hint is not None else int(ids.max()) + 1
    A = np.zeros((n, n))
    for row, (u, v) in enumerate(ids.tolist()):
        if u >= n or v >= n:
            raise EdgeListError(f"{path}:{linenos[row]}: vertex id exceeds declared count {n}")
        if u != v:
            A[u, v] = A[v, u] = 1.0
    self_loops = int(np.count_nonzero(ids[:, 0] == ids[:, 1]))
    if self_loops:
        edge_log.warning("%s: dropped %d self-loop(s)", path, self_loops)
    return A
