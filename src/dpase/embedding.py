"""Symmetric eigendecomposition, spectral embedding, and Procrustes alignment.

The embedding of a symmetric matrix M is built from the d eigenpairs of
largest eigenvalue magnitude: each vertex i maps to row i of
``V * sqrt(|w|)``. Scaling by the magnitude square root keeps positions
real when the retained set contains negative eigenvalues, and reduces to
the usual square root when all retained eigenvalues are positive.

Every symmetric matrix is decomposed from one layout, one triangle
packed into n (n + 1) / 2 float64 values in LAPACK's rectangular full
packed (RFP) format (:class:`PackedSymmetric`), so a float matrix costs
4 n^2 bytes instead of 8 n^2. A dense input is checked and then packed
from its upper triangle; a bool adjacency is packed straight from its
one-byte rows, with no n x n float64 copy.

A request for at least half the spectrum takes a full dense symmetric
decomposition (LAPACK) that is then truncated, as does a small one
where numpy's LAPACK lacks a routine of the two-ended solve; both are
made in one place, :func:`top_d_eigen`. Any other comes from one of
two solvers, chosen by size. Below ``LANCZOS_MIN_N`` rows the matrix
is unpacked and reduced to tridiagonal form once, and bisection and
inverse iteration on that form find only the d lowest and the d highest
pairs, among which the d of largest magnitude always lie. Larger
matrices take ARPACK's restarted Lanczos iteration, which finds only
the d wanted pairs with packed matrix-vector products. RFP holds two
triangles and a dense block, each an ordinary strided matrix, so a
product is four BLAS calls (``dsymv`` and ``dgemv``) split into two
halves that the calling thread and one helper thread compute at once:
the caller queues the second half for the helper, computes the first
and waits for the second's outcome on a reply queue of its own
(:func:`_split`). The same two threads fill the two fixed chunks of a
random draw (:func:`draw_in_two`). All paths order the pairs the same
way and fix each eigenvector's sign so that its largest-magnitude entry
(the first, if several tie) is positive, so the embedding's signs do
not depend on which solver or BLAS build produced it.

Embeddings are only identified up to an orthogonal transform, so any
comparison between two embeddings must go through
:func:`procrustes_align` rather than raw entrywise differences.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from ._shared import (
    BLOCK_ENTRIES, ParameterRangeError, is_symmetric, mirror_upper, row_blocks, tile_pairs,
)

INPUT_SYMMETRY_TOL = 1e-12
# Below this size one dense solve costs less than loading ARPACK once:
# a d = 2 ``top_d_eigen`` takes 25-27 ms at n = 999 on the two-ended
# path, while importing scipy.sparse.linalg after dpase.cli takes
# 0.09-0.12 s and 30 MB (same machine, scipy 1.17). The random draws
# (:func:`draw_in_two`) take two threads from this size on too, so a
# smaller run starts no helper thread.
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
    """A symmetric n x n float64 matrix in LAPACK's rectangular full packed
    (RFP) layout, TRANSR = ``'N'``, UPLO = ``'L'``: the n (n + 1) / 2 values
    of one triangle, laid out as one column-major array that holds two
    triangles and one dense block.

    With n1 = ceil(n / 2) and n2 = n - n1, ``data`` is a column-major
    array of lda = n + 1 (n even) or n (n odd) rows and n1 columns.
    Column j, for j < n1, ends with ``M[j, j:]``, the part of row j on and
    right of the diagonal, which covers M11 = ``M[:n1, :n1]`` and M21 =
    ``M[n1:, :n1]``. In front of it come the entries of M22 = ``M[n1:,
    n1:]`` up to and including its diagonal: row j of M22's lower triangle
    in column j (n even) or column j + 1 (n odd). This is what
    ``scipy.linalg.lapack.dtpttf`` makes from the row-major upper packed
    vector. Every block is an ordinary strided matrix, so a product runs
    on the dense BLAS kernels (see :meth:`matvec`).
    """

    n: int
    data: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"matrix size must be a non-negative integer, got {self.n!r}")
        # The blocks are views of ``data`` and BLAS reads it by address.
        size = self.n * (self.n + 1) // 2
        if self.data.dtype != float or self.data.shape != (size,):
            raise ValueError(
                f"a packed {self.n} x {self.n} matrix needs {size} float64 values, "
                f"got shape {self.data.shape} of {self.data.dtype}"
            )
        if not self.data.flags.c_contiguous:
            raise ValueError("packed values must be one contiguous array")

    def _blocks(self):
        """(rows, cols, mask, part) for each piece of a block of rows: the
        entries of ``M[rows, cols]`` where ``mask`` holds, those on and right
        of the diagonal, have their places in ``part``, a view of ``data``
        of the same shape. A block's square on the diagonal takes a
        triangular mask, the rest of its rows none (True). No block
        straddles row n1, so a view is either the tails of RFP columns or
        M22's lower triangle read across.
        """
        n, odd = self.n, self.n % 2
        n1, n2 = n - n // 2, n // 2
        columns = self.data.reshape(n1, n + 1 - odd)  # row j: RFP column j
        lower = columns[odd:odd + n2, :n2]  # M22's lower triangle, row by row
        for block in row_blocks(n):
            for rows in (slice(block.start, min(block.stop, n1)),
                         slice(max(block.start, n1), block.stop)):
                start, stop = rows.start, rows.stop
                if start >= stop:
                    continue
                if start < n1:
                    part = columns[rows, start + 1 - odd:]
                else:
                    part = lower[start - n1:, start - n1:stop - n1].T
                square = np.arange(stop - start)
                yield rows, slice(start, stop), square >= square[:, None], part[:, :stop - start]
                yield rows, slice(stop, n), True, part[:, stop - start:]

    @classmethod
    def pack(cls, M: np.ndarray) -> PackedSymmetric:
        """The upper triangle of the square matrix M, packed."""
        n = len(M)
        packed = cls(n, np.empty(n * (n + 1) // 2))
        for rows, cols, mask, part in packed._blocks():
            np.copyto(part, M[rows, cols], where=mask)
        return packed

    def add(self, M: np.ndarray) -> None:
        """Add the upper triangle of the square n x n matrix M in place."""
        for rows, cols, mask, part in self._blocks():
            np.add(part, M[rows, cols], out=part, where=mask)

    def _halves(self, v: np.ndarray, y: np.ndarray):
        """Two functions that write y1 = M11 v1 + M21^T v2 and y2 = M22 v2 +
        M21 v1 into the halves of y, through numpy's ``cblas_dsymv`` and
        ``cblas_dgemv``; None if numpy's BLAS lacks either."""
        blas = _openblas(np.linalg._umath_linalg)
        if blas is None or blas.dsymv is None or blas.dgemv is None:
            return None
        n, odd = self.n, self.n % 2
        n1, n2, lda = n - n // 2, n // 2, n + 1 - odd
        a, x, out, size = self.data.ctypes.data, v.ctypes.data, y.ctypes.data, v.itemsize
        m11, m21, m22 = a + (1 - odd) * size, a + (1 - odd + n1) * size, a + odd * lda * size
        # Column-major (102); upper (121) or lower (122); not (111) or transposed (112).
        def first():
            blas.dsymv(102, 122, n1, 1.0, m11, lda, x, 1, 0.0, out, 1)
            blas.dgemv(102, 112, n2, n1, 1.0, m21, lda, x + n1 * size, 1, 1.0, out, 1)

        def second():
            blas.dsymv(102, 121, n2, 1.0, m22, lda, x + n1 * size, 1, 0.0, out + n1 * size, 1)
            blas.dgemv(102, 111, n2, n1, 1.0, m21, lda, x, 1, 1.0, out + n1 * size, 1)

        return first, second

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M @ v, block by block: y1 on the calling thread while one helper
        thread computes y2 (see :func:`_split`). Without numpy's cblas
        symbols, numpy multiplies the same blocks on the calling thread."""
        v = np.ascontiguousarray(np.ravel(v), dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected a vector of {self.n} values, got {v.size}")
        y = np.zeros(self.n)
        halves = self._halves(v, y)
        if halves is not None:
            _split(*halves)
            return y
        n, odd = self.n, self.n % 2
        n1 = n - n // 2
        arf = self.data.reshape(n1, n + 1 - odd).T  # the column-major RFP array
        m11, m21, m22 = arf[1 - odd:1 - odd + n1], arf[1 - odd + n1:], arf[:n // 2, odd:]
        y[:n1] = _lower_symv(m11, v[:n1]) + m21.T @ v[n1:]
        y[n1:] = _lower_symv(m22.T, v[n1:]) + m21 @ v[:n1]
        return y

    def dense(self, mirror: bool = True) -> np.ndarray:
        """The full symmetric n x n matrix; without ``mirror`` only its
        upper triangle and diagonal are set, the rest left uninitialized."""
        M = np.empty((self.n, self.n))
        for rows, cols, mask, part in self._blocks():
            np.copyto(M[rows, cols], part, where=mask)
        if mirror:
            mirror_upper(M)
        return M


def _lower_symv(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the symmetric S whose lower triangle, diagonal included,
    T holds; T's strict upper triangle is never read. Square tiles keep
    the temporaries small."""
    y = np.zeros(len(T))
    for I, J in tile_pairs(len(T)):
        tile = T[J, I]  # on or below the diagonal
        if I == J:  # the diagonal counts once
            tile = np.tril(tile)
            y[I] += tile @ x[I] + tile.T @ x[I] - tile.diagonal() * x[I]
        else:
            y[J] += tile @ x[I]
            y[I] += tile.T @ x[J]
    return y


# Each job is (second half, reply queue). The one helper thread runs the
# jobs in turn and puts the half's exception, or None, on the job's own
# reply queue, so a caller only ever reads the reply to its own half.
_jobs: queue.SimpleQueue | None = None
_jobs_start = threading.Lock()


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        second, reply = jobs.get()
        try:
            second()
        except BaseException as exc:  # raised again in the caller
            reply.put(exc)
        else:
            reply.put(None)


def _split(first: Callable[[], None], second: Callable[[], None]) -> None:
    """first() on the calling thread and second() on the helper thread, at
    once, starting the helper at the first call. Both waits block in C
    with the GIL released; an exception in second() is raised in the
    caller. Calls from several threads queue their halves for the helper."""
    global _jobs
    with _jobs_start:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), name="dpase-split", daemon=True).start()
    reply = queue.SimpleQueue()
    _jobs.put((second, reply))
    try:
        first()
    finally:
        error = reply.get()
    if error is not None:
        raise error


def draw_in_two(n: int, rng: np.random.Generator,
                fill: Callable[[np.random.Generator, int], None]) -> None:
    """Call ``fill(stream, c)`` for the two fixed chunks c = 0, 1 of a random
    n x n draw, chunk c from child stream c. The children are spawned
    (``SeedSequence.spawn``) from two integers drawn from ``rng``, so they
    follow from rng's state alone: deep copies of one stream give the same
    children. From ``LANCZOS_MIN_N`` on the chunks run at once on the
    calling and the helper thread (:func:`_split`), below it one after the
    other; either way chunk c takes child c, so the bits do not depend on
    the thread or core count."""
    seeds = np.random.SeedSequence(rng.integers(0, 2**63, size=2)).spawn(2)
    first, second = (np.random.Generator(np.random.PCG64(seed)) for seed in seeds)
    chunks = (lambda: fill(first, 0), lambda: fill(second, 1))
    if n >= LANCZOS_MIN_N:
        return _split(*chunks)
    for chunk in chunks:
        chunk()


def _forget_threads() -> None:
    """In a forked child, which has only the forking thread, drop the
    parent's job queue and locks; the next split starts a new helper. A
    pin held by another of the parent's threads would never end in the
    child, so each held pin's thread count is restored first."""
    global _jobs, _jobs_start, _pin_lock
    _jobs, _jobs_start, _pin_lock = None, threading.Lock(), threading.Lock()
    for count, saved, set_threads in _pins.values():
        if count:
            set_threads(saved)
    _pins.clear()


os.register_at_fork(after_in_child=_forget_threads)


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


class _OpenBlas(NamedTuple):
    """Entry points of one loaded OpenBLAS: its thread count's getter and
    setter, LAPACKE's ``dsytrd``, ``dstebz``, ``dstein`` and ``dormtr``,
    CBLAS's ``dsymv`` and ``dgemv`` (each None if it does not export it),
    and the integer type of its LAPACK and BLAS."""

    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    dsytrd: Callable | None
    dstebz: Callable | None
    dstein: Callable | None
    dormtr: Callable | None
    dsymv: Callable | None
    dgemv: Callable | None
    lapack_int: type


@cache
def _openblas(module) -> _OpenBlas | None:
    """The OpenBLAS that the extension module links, or None if it links
    no OpenBLAS that exports its thread count.

    numpy's and scipy's wheels each bundle their own OpenBLAS, each with
    its own thread pool. Looking the symbols up through the handle of an
    extension module (``dlsym`` searches an object and then what it
    links) finds the copy that module calls, wherever it is installed:
    ``scipy.linalg._fblas`` reaches scipy's, which ARPACK links too, and
    ``numpy.linalg._umath_linalg`` reaches numpy's. A ``64_`` suffix
    marks a 64-bit integer (ILP64) build.
    """
    lib = ctypes.CDLL(module.__file__)
    for prefix, suffix in (("scipy_", ""), ("scipy_", "64_"), ("", ""), ("", "64_")):
        if hasattr(lib, f"{prefix}openblas_set_num_threads{suffix}"):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            k = ctypes.c_int64 if suffix else ctypes.c_int32
            # i: the layout or a CBLAS flag, c: a flag, k: a LAPACK integer,
            # r: a double, m: a LAPACK integer passed by reference, p and q:
            # contiguous arrays of doubles and of LAPACK integers, a: the
            # address of a double, for a block inside a larger array.
            i, c, r, m = ctypes.c_int, ctypes.c_char, ctypes.c_double, ctypes.POINTER(k)
            p, q = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS") for t in (float, k))
            a = ctypes.c_void_p
            signatures = {  # each LAPACKE routine returns info, CBLAS nothing
                # (layout, uplo, n, a, lda, d, e, tau)
                "dsytrd": [i, c, k, p, k, p, p, p],
                # (range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit)
                "dstebz": [c, c, k, r, r, k, k, r, p, p, m, m, p, q, q],
                # (layout, n, d, e, m, w, iblock, isplit, z, ldz, ifail)
                "dstein": [i, k, p, p, k, p, q, q, p, k, q],
                # (layout, side, uplo, trans, m, n, a, lda, tau, c, ldc)
                "dormtr": [i, c, c, c, k, k, p, k, p, p, k],
                # (layout, uplo, n, alpha, a, lda, x, incx, beta, y, incy)
                "dsymv": [i, i, k, r, a, k, a, k, r, a, k],
                # (layout, trans, m, n, alpha, a, lda, x, incx, beta, y, incy)
                "dgemv": [i, i, k, k, r, a, k, a, k, r, a, k],
            }
            routines = {}
            for name, argtypes in signatures.items():
                cblas = name in ("dsymv", "dgemv")
                symbol = f"{prefix}{'cblas' if cblas else 'LAPACKE'}_{name}{suffix}"
                routine = routines[name] = getattr(lib, symbol, None)
                if routine is not None:
                    routine.argtypes, routine.restype = argtypes, None if cblas else k
            return _OpenBlas(get, set_, **routines, lapack_int=k)
    return None


# Per found library, keyed by its setter's id (a ctypes function is not
# hashable): [how many blocks pin it now, the thread count to restore
# when the last one ends, the setter].
_pins: dict = {}
_pin_lock = threading.Lock()


@contextmanager
def _one_blas_thread(found: _OpenBlas | None):
    """Run each call of the found OpenBLAS on the thread that makes it
    while the block runs, then restore its previous thread count; do
    nothing if none was found.

    After each threaded call a pool's worker busy-waits, and it then
    competes with the other library's pool, and with the helper thread
    that runs the second half of each split product or draw
    (:func:`_split`), for the cores. A Lanczos solve splits each
    product over two threads itself (:meth:`PackedSymmetric.matvec`), and
    a two-ended dense ``top_d_eigen`` at n = 300 and d = 2 takes 1.4 ms of
    wall and CPU time on one thread, where a full ``eigh`` took 3.5-5.2 ms
    of wall and 7.4-9.2 ms of CPU time on two. The count is process-wide,
    so blocks that overlap in several threads are counted: the first
    one sets the count to 1 and the last one to end restores it.
    """
    if found is None:
        yield
        return
    with _pin_lock:
        pin = _pins.setdefault(id(found.set_threads), [0, None, found.set_threads])
        if pin[0] == 0:
            pin[1] = found.get_threads()
            found.set_threads(1)
        pin[0] += 1
    try:
        yield
    finally:
        with _pin_lock:
            pin[0] -= 1
            if pin[0] == 0:
                found.set_threads(pin[1])


def _lanczos(P: PackedSymmetric, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d eigenpairs of largest magnitude from ARPACK, to machine precision.

    ARPACK's own BLAS calls (scipy's OpenBLAS) and the packed products
    (numpy's) both run with their pool pinned to one thread; each product
    is split over the calling thread and one helper thread instead, which
    nearly halves its wall time from n = 2000 on. The pin also keeps the
    products' rounding independent of the pool's size. The start vector
    comes from its own fixed-seed generator, so results are reproducible
    and no caller's random stream is touched. The
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
    from scipy.linalg import _fblas
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = P.n
    op = LinearOperator((n, n), matvec=P.matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        with _one_blas_thread(_openblas(_fblas)), \
                _one_blas_thread(_openblas(np.linalg._umath_linalg)):
            return eigsh(op, k=d, which="LM", v0=v0, tol=0.0, maxiter=10 * n,
                         ncv=min(n, max(20, min(4 * d, 2 * d + 20))))
    except ArpackNoConvergence as exc:
        raise np.linalg.LinAlgError(
            f"Lanczos eigensolver did not converge for d={d} at n={n}: {exc}"
        ) from exc


def _two_ends(P: PackedSymmetric, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The d lowest and the d highest eigenpairs in ascending order, from
    numpy's own LAPACK on one thread; None if numpy's BLAS does not export
    the four routines below. Needs 2 d < n, so the two ranges do not
    overlap.

    ``dsytrd`` reduces the matrix to tridiagonal form once. At each end
    ``dstebz`` finds the d eigenvalues by bisection and ``dstein`` their
    vectors by inverse iteration (what ``dsyevr`` runs for part of the
    spectrum), and one ``dormtr`` call maps all 2 d vectors back. The
    full decomposition and its n^2 eigenvector entries are skipped. Only
    the triangle that ``dsytrd`` reads (column-major ``'L'``, the packed
    layout) is unpacked. A failed step, a wrong pair count or an
    unconverged vector raises ``np.linalg.LinAlgError``.
    """
    found = _openblas(np.linalg._umath_linalg)
    if found is None or None in (found.dsytrd, found.dstebz, found.dstein, found.dormtr):
        return None
    # As dsyevr does, scale a matrix whose largest |entry| lies outside
    # [rmin, rmax] into that range, where no step over- or underflows,
    # and scale the eigenvalues back.
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    rmin, rmax = np.sqrt(tiny / eps), min(np.sqrt(eps / tiny), 1 / np.sqrt(np.sqrt(tiny)))
    big = max(P.data.max(), -P.data.min())
    sigma = rmin / big if 0 < big < rmin else rmax / big if big > rmax else 1.0
    if sigma != 1.0:
        P = PackedSymmetric(P.n, P.data * sigma)
    n, M, integer = P.n, P.dense(mirror=False), found.lapack_int
    diagonal, off, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    # dstein NaN-checks all n entries of w, not only the d it reads.
    w = np.zeros((2, n))
    # Row i of Z is eigenvector i: column-major n x 2d, leading dimension n.
    Z = np.empty((2 * d, n))
    iblock, isplit, ifail = np.zeros((3, n), dtype=integer)
    m, nsplit = integer(), integer()

    def check(step: str, info: int, pairs: str, failed: str = "") -> None:
        if info != 0 or failed:
            raise np.linalg.LinAlgError(
                f"{step} failed for pairs {pairs} at n={n}: info={info}{failed}"
            )

    with _one_blas_thread(found):
        both = f"1..{d} and {n - d + 1}..{n}"
        check("dsytrd", found.dsytrd(102, b"L", n, M, n, diagonal, off, tau), both)
        for half, first in enumerate((1, n - d + 1)):
            pairs = f"{first}..{first + d - 1}"
            info = found.dstebz(b"I", b"B", n, 0.0, 0.0, first, first + d - 1, 0.0, diagonal,
                                off, ctypes.byref(m), ctypes.byref(nsplit), w[half], iblock,
                                isplit)
            check("dstebz", info, pairs, "" if m.value == d else f", {m.value} pairs")
            info = found.dstein(102, n, diagonal, off, d, w[half], iblock, isplit,
                                Z[half * d:], n, ifail)
            failed = ifail[:d][ifail[:d] != 0]
            check("dstein", info, pairs, f", unconverged {failed}" if failed.size else "")
        check("dormtr", found.dormtr(102, b"L", b"L", b"N", n, 2 * d, M, n, tau, Z, n), both)
    # dstebz lists the eigenvalues of each block of a split tridiagonal
    # matrix in turn; sort them, as dsyevr does.
    w = np.concatenate((w[0, :d], w[1, :d])) * (1 / sigma)
    order = np.argsort(w, kind="stable")
    return w[order], Z.T[:, order]


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-|entry| component is positive."""
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return V * np.where(lead < 0, -1.0, 1.0)


def top_d_eigen(M: np.ndarray | PackedSymmetric, d: int) -> EigenPairs:
    """Eigenpairs of a symmetric matrix with the d largest |eigenvalues|.

    M is a square array or a :class:`PackedSymmetric`. With ``2 d >= n``
    the matrix is unpacked and a full dense symmetric decomposition is
    truncated. Otherwise, with ``n >= LANCZOS_MIN_N`` ARPACK's Lanczos
    solver computes just the d pairs from packed mat-vecs, and below it
    the matrix is unpacked and LAPACK finds only the d lowest and the d
    highest pairs (a full decomposition if numpy's LAPACK lacks one of
    the routines). Ties in magnitude rank the positive eigenvalue first,
    then fall back to ascending position among the solver's ascending
    eigenvalues, so results are deterministic. Magnitudes within n eps max|w| of each other count as
    tied: the solvers compute an exact +/- pair (on a bipartite graph)
    only to a few ulps of ||M||, so without that margin rounding would
    pick the end. On the Lanczos path a +/- magnitude tie that
    straddles position d is resolved by the solver, which returns only d
    pairs. Each eigenvector's sign is fixed so that its largest-|entry|
    component (the first, if several tie) is positive. Within
    numerically degenerate eigenspaces any orthonormal basis may be
    returned. Lanczos non-convergence or a failed LAPACK step raises
    ``np.linalg.LinAlgError``, and a d outside 1..n raises
    ``ParameterRangeError``. A square array is checked to be finite and
    symmetric within ``INPUT_SYMMETRY_TOL`` (a bool 0/1 adjacency
    exactly, on its one-byte entries) and then packed from its upper
    triangle.
    """
    P = _packed(M)
    n = P.n
    if not 1 <= d <= n:
        raise ParameterRangeError(f"embedding dimension must satisfy 1 <= d <= {n}, got {d}")
    # Only 2 d < n keeps ARPACK's k < n and ncv <= n limits out of reach,
    # and the two ends of the spectrum apart. The one full eigh is here.
    pairs = None
    if 2 * d < n:
        pairs = _lanczos(P, d) if n >= LANCZOS_MIN_N else _two_ends(P, d)
    w, V = np.linalg.eigh(P.dense()) if pairs is None else pairs
    tie = n * np.finfo(float).eps * np.abs(w).max()
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]) - tie * (w[i] > 0), w[i] < 0, i))[:d]
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
