"""Symmetric eigendecomposition, spectral embedding, and Procrustes alignment.

The embedding of a symmetric matrix M is built from the d eigenpairs of
largest eigenvalue magnitude: each vertex i maps to row i of
``V * sqrt(|w|)``. Scaling by the magnitude square root keeps positions
real when the retained set contains negative eigenvalues, and reduces to
the usual square root when all retained eigenvalues are positive.

Every symmetric matrix is decomposed from one layout, its row-major
upper triangle packed into a vector of n (n + 1) / 2 float64 values
(:class:`PackedSymmetric`), so a float matrix costs 4 n^2 bytes instead
of 8 n^2. A dense input is checked and then packed; a bool adjacency is
packed straight from its one-byte rows, with no n x n float64 copy.

The eigenpairs come from one of two solvers. Small matrices, and
requests for at least half the spectrum, are unpacked and take a full
dense symmetric decomposition (LAPACK) that is then truncated. Matrices
with at least ``LANCZOS_MIN_N`` rows take ARPACK's restarted Lanczos
iteration, which finds only the d wanted pairs with packed
matrix-vector products (BLAS ``dspmv``). Both paths order the pairs the
same way and fix each eigenvector's sign so that its largest-magnitude
entry (the first, if several tie) is positive, so the embedding's signs
do not depend on which solver or BLAS build produced it.

Embeddings are only identified up to an orthogonal transform, so any
comparison between two embeddings must go through
:func:`procrustes_align` rather than raw entrywise differences.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._shared import BLOCK_ENTRIES, ParameterRangeError, is_symmetric, mirror_upper, row_blocks

INPUT_SYMMETRY_TOL = 1e-12
# Below this size one dense solve costs less than loading ARPACK once:
# a dense ``top_d_eigen`` takes about 12 ms at n = 500 and 72 ms at
# n = 999, while importing scipy.sparse.linalg after dpase.cli takes
# 0.09-0.12 s and 30 MB (2-core x86-64 machine, numpy 2.4, scipy 1.17).
LANCZOS_MIN_N = 1000


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted by descending magnitude with matching unit vectors.

    ``values`` has shape (d,), ``vectors`` has shape (n, d) with column i
    the eigenvector of ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class AlignmentResult:
    """Best orthogonal map of one point set onto another.

    ``rotation`` is the d x d orthogonal matrix Q minimizing
    ``||X @ Q - Y||_F``; ``aligned_distance`` is that minimum.
    """

    rotation: np.ndarray
    aligned_distance: float


@dataclass(frozen=True)
class PackedSymmetric:
    """A symmetric n x n float64 matrix held as its upper triangle.

    ``data`` has length n (n + 1) / 2 and holds each row's part on and
    right of the diagonal, ``M[i, i:]``, one row after another. This is
    also the column-major lower packed layout that BLAS calls ``'L'``.
    """

    n: int
    data: np.ndarray

    def __post_init__(self):
        size = self.n * (self.n + 1) // 2
        if self.data.dtype != float or self.data.shape != (size,):
            raise ValueError(
                f"a packed {self.n} x {self.n} matrix needs {size} float64 values, "
                f"got shape {self.data.shape} of {self.data.dtype}"
            )

    def _blocks(self):
        """(rows, mask, part) for each block of rows: ``M[rows, rows.start:][mask]``
        lists the block's entries on and right of the diagonal in packed
        order, and ``data[part]`` holds them."""

        def start(i: int) -> int:  # where row i begins in ``data``
            return i * self.n - i * (i - 1) // 2

        for rows in row_blocks(self.n):
            mask = np.arange(rows.start, self.n) >= np.arange(rows.start, rows.stop)[:, None]
            yield rows, mask, slice(start(rows.start), start(rows.stop))

    @classmethod
    def pack(cls, M: np.ndarray) -> PackedSymmetric:
        """The upper triangle of the square matrix M, packed row by row."""
        n = len(M)
        packed = cls(n, np.empty(n * (n + 1) // 2))
        for rows, mask, part in packed._blocks():
            packed.data[part] = M[rows, rows.start:][mask]
        return packed

    def add(self, M: np.ndarray) -> None:
        """Add the upper triangle of the square n x n matrix M in place."""
        for rows, mask, part in self._blocks():
            self.data[part] += M[rows, rows.start:][mask]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M @ v from the packed values (BLAS ``dspmv``)."""
        # Imported here like ARPACK: only the Lanczos path multiplies.
        from scipy.linalg.blas import dspmv

        return dspmv(self.n, 1.0, self.data, np.ravel(v), lower=1)

    def dense(self) -> np.ndarray:
        """The full symmetric n x n matrix."""
        M = np.empty((self.n, self.n))
        for rows, mask, part in self._blocks():
            M[rows, rows.start:][mask] = self.data[part]
        mirror_upper(M)
        return M


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    """M after checking that it is square, finite and symmetric within
    ``INPUT_SYMMETRY_TOL``, in that order: a bool matrix as it is, any
    other as float64.

    A bool matrix is checked for exact symmetry on its one-byte entries:
    it cannot hold a non-finite value, and its 0/1 values are symmetric
    within the tolerance exactly when they are exactly symmetric, so the
    same inputs are accepted as for its float64 copy.
    """
    M = np.asarray(M)
    is_bool = M.dtype == bool
    if not is_bool:
        M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not is_bool and not all(np.isfinite(M[b]).all() for b in row_blocks(len(M))):
        raise ValueError("matrix entries must be finite")
    if not is_symmetric(M, 0.0 if is_bool else INPUT_SYMMETRY_TOL):
        raise ValueError("matrix is not symmetric")
    return M


def _packed(M: np.ndarray | PackedSymmetric) -> PackedSymmetric:
    """M checked and packed; a packed M is only checked to be finite,
    since it cannot hold an asymmetric pair."""
    if not isinstance(M, PackedSymmetric):
        return PackedSymmetric.pack(_check_symmetric(M))
    chunks = range(0, len(M.data), BLOCK_ENTRIES)
    if not all(np.isfinite(M.data[c:c + BLOCK_ENTRIES]).all() for c in chunks):
        raise ValueError("matrix entries must be finite")
    return M


def _scipy_blas_threads():
    """(get, set) for the thread count of the OpenBLAS that scipy's BLAS
    wrappers link, or None if they link no OpenBLAS that exports them.

    numpy's and scipy's wheels each bundle their own OpenBLAS, each with
    its own thread pool. Looking the symbols up through the handle of
    scipy's BLAS extension (``dlsym`` searches an object and then what it
    links) finds scipy's copy, which ARPACK links too, wherever it is
    installed, and never numpy's.
    """
    from scipy.linalg import _fblas

    lib = ctypes.CDLL(_fblas.__file__)
    for setter in ("scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                   "openblas_set_num_threads", "openblas_set_num_threads64_"):
        if hasattr(lib, setter):
            get, set_ = getattr(lib, setter.replace("_set_", "_get_")), getattr(lib, setter)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_scipy_blas_thread():
    """Run scipy's OpenBLAS on the calling thread for the block, then
    restore its previous thread count; do nothing if it is not found.

    Up to n = 4000 a Lanczos solve gains nothing measurable from a
    second thread (``dspmv`` runs on one either way), but after each
    threaded call the pool's worker busy-waits, and it then competes
    with numpy's own pool (LOOCV's products) for the cores. The count is
    process-wide while the block runs, so one thread at a time may solve.
    """
    get, set_ = _scipy_blas_threads() or (lambda: None, lambda count: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _lanczos(P: PackedSymmetric, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d eigenpairs of largest magnitude from ARPACK, to machine precision.

    The start vector comes from its own fixed-seed generator, so results
    are reproducible and no caller's random stream is touched. The
    Krylov basis holds ``ncv = max(20, min(4 d, 2 d + 20))`` vectors
    (at most n). Past the K signal pairs of a blockmodel the wanted
    pairs sit in a tight cluster at the edge of the noise bulk, and
    ARPACK's default ``max(20, 2 d + 1)`` restarts many times on it: on
    a seed-7 n = 2000 blockmodel graph a plain d = 10 solve took 1108
    products at ncv = 21 and 417 at 40. At d = 50 the cap, 120, takes
    about as many products as the default 101 (475-489 on three graphs)
    and a larger basis takes more (570 at 200). For d <= 5 the rule
    gives the default 20.
    """
    # Imported here so that runs which never reach this path do not pay
    # scipy's import time and memory.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = P.n
    op = LinearOperator((n, n), matvec=P.matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        with _one_scipy_blas_thread():
            return eigsh(op, k=d, which="LM", v0=v0, tol=0.0, maxiter=10 * n,
                         ncv=min(n, max(20, min(4 * d, 2 * d + 20))))
    except ArpackNoConvergence as exc:
        raise np.linalg.LinAlgError(
            f"Lanczos eigensolver did not converge for d={d} at n={n}: {exc}"
        ) from exc


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-|entry| component is positive."""
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return V * np.where(lead < 0, -1.0, 1.0)


def top_d_eigen(M: np.ndarray | PackedSymmetric, d: int) -> EigenPairs:
    """Eigenpairs of a symmetric matrix with the d largest |eigenvalues|.

    M is a square array or a :class:`PackedSymmetric`. With
    ``n >= LANCZOS_MIN_N`` and ``2 d < n`` ARPACK's Lanczos solver
    computes just the d pairs from packed mat-vecs; otherwise the matrix
    is unpacked and a full dense symmetric decomposition is truncated.
    Ties in magnitude rank the positive eigenvalue first, then fall back
    to ascending position among the solver's ascending eigenvalues, so
    results are deterministic. On the Lanczos path a +/- magnitude tie
    that straddles position d is resolved by the solver, which returns
    only d pairs. Each eigenvector's sign is fixed so that its
    largest-|entry| component (the first, if several tie) is positive.
    Within numerically degenerate eigenspaces any orthonormal basis may
    be returned. Lanczos non-convergence raises ``np.linalg.LinAlgError``,
    and a d outside 1..n raises ``ParameterRangeError``. A square array
    is checked to be finite and symmetric within ``INPUT_SYMMETRY_TOL``
    (a bool 0/1 adjacency exactly, on its one-byte entries) and then
    packed from its upper triangle.
    """
    P = _packed(M)
    n = P.n
    if not 1 <= d <= n:
        raise ParameterRangeError(f"embedding dimension must satisfy 1 <= d <= {n}, got {d}")
    # 2 d < n keeps ARPACK's k < n and ncv <= n limits out of reach.
    if n >= LANCZOS_MIN_N and 2 * d < n:
        w, V = _lanczos(P, d)
    else:
        w, V = np.linalg.eigh(P.dense())
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), w[i] < 0, i))[:d]
    return EigenPairs(values=w[order], vectors=_fix_signs(V[:, order]))


def ase(M: np.ndarray | PackedSymmetric, d: int) -> np.ndarray:
    """Adjacency spectral embedding of a symmetric matrix, given as a
    square array or a :class:`PackedSymmetric`.

    Returns the (n, d) matrix of estimated latent positions
    ``V * sqrt(|w|)`` built from the top-d eigenpairs by magnitude.
    """
    pairs = top_d_eigen(M, d)
    return pairs.vectors * np.sqrt(np.abs(pairs.values))


def procrustes_align(X: np.ndarray, Y: np.ndarray) -> AlignmentResult:
    """Solve the orthogonal Procrustes problem for two point sets.

    Finds the orthogonal Q minimizing ``||X @ Q - Y||_F`` via the
    singular value decomposition of ``X.T @ Y`` and reports the
    minimized Frobenius distance.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    U, _, Vt = np.linalg.svd(X.T @ Y)
    rotation = U @ Vt
    aligned_distance = float(np.linalg.norm(X @ rotation - Y))
    return AlignmentResult(rotation=rotation, aligned_distance=aligned_distance)


def frobenius_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """Frobenius norm of X - Y."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    return float(np.linalg.norm(X - Y))
