"""Symmetric eigendecomposition, spectral embedding, and Procrustes alignment.

The embedding of a symmetric matrix M is built from the d eigenpairs of
largest eigenvalue magnitude: each vertex i maps to row i of
``V * sqrt(|w|)``. Scaling by the magnitude square root keeps positions
real when the retained set contains negative eigenvalues, and reduces to
the usual square root when all retained eigenvalues are positive.

Every symmetric matrix is decomposed from one layout, one triangle
packed into n (n + 1) / 2 float64 values in LAPACK's rectangular full
packed (RFP) format (:class:`PackedSymmetric`), so a float matrix costs
4 n^2 bytes instead of 8 n^2. A dense input is checked (a graph marked
checked, :func:`~dpase._shared.is_checked`, is not walked again) and
then packed from its upper triangle; a bool adjacency is packed straight
from its one-byte entries, with no n x n float64 copy. Packing,
unpacking and the noise draw's :meth:`PackedSymmetric.fill` walk the
same groups of whole RFP columns in storage order.

A request for at least half the spectrum takes a full dense symmetric
decomposition (LAPACK) that is then truncated, as does a small one
where numpy's LAPACK lacks a routine of the two-ended solve; both are
made in one place, :func:`top_d_eigen`. Any other comes from one of
two solvers, chosen by size. Below ``LANCZOS_MIN_N`` rows the matrix
is unpacked and reduced to tridiagonal form once, and bisection and
inverse iteration on that form find only the d lowest and the d highest
pairs, among which the d of largest magnitude always lie. Larger
matrices take a thick-restart Lanczos iteration (:func:`_lanczos`),
which finds only the d wanted pairs with packed matrix-vector products
and numpy's own BLAS, so no path loads scipy. RFP holds two
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
import math
import os
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from . import _shared
from ._shared import (
    ParameterRangeError, is_checked, is_symmetric, mirror_upper, row_blocks, tile_pairs,
)

INPUT_SYMMETRY_TOL = 1e-12
# From this size on the Lanczos solver runs. On a 2-core x86-64 machine,
# plain and private (alpha = 0.1) blockmodel matrices, wall / CPU ms per
# solve, two-ended -> Lanczos: at d = 10, 27 / 27 -> 32-40 / 43-52 at
# n = 700 and 76-78 / 76-78 -> 54-65 / 83-94 at n = 1000. At d = 2 the
# Lanczos solve is already faster at n = 500 (8.3 / 8.3 -> 3.4-6.8 /
# 3.4-8.7). The random draws (:func:`draw_in_two`) take two threads
# from this size on too, so a smaller run starts no helper thread.
LANCZOS_MIN_N = 1000
# A Lanczos solve that has not converged after this many products per row
# raises np.linalg.LinAlgError.
_PRODUCTS_PER_ROW = 10


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

    def _groups(self, start: int = 0, stop: int | None = None) -> list[slice]:
        """Slices of consecutive whole RFP columns, about ``BLOCK_ENTRIES``
        values each (at least one column), from the column that holds
        ``data[start]`` through the one that holds ``data[stop - 1]``."""
        lda = self.n + 1 - self.n % 2
        step = max(1, _shared.BLOCK_ENTRIES // lda)
        ncols = -(-(self.data.size if stop is None else stop) // lda)
        return [slice(j, min(j + step, ncols)) for j in range(start // lda, ncols, step)]

    def _columns(self) -> np.ndarray:
        """``data`` as an array whose row j is RFP column j."""
        return self.data.reshape(-1, self.n + 1 - self.n % 2)

    @classmethod
    def pack(cls, M: np.ndarray) -> PackedSymmetric:
        """The upper triangle of the square matrix M, packed."""
        n = len(M)
        packed = cls(n, np.empty(n * (n + 1) // 2))
        columns = packed._columns()
        for group in packed._groups():
            for part, tile, mask in _upper_tiles(M, columns[group], group.start):
                np.copyto(part, tile, where=mask)
        return packed

    def fill(self, start: int, stop: int, values: Callable[[np.ndarray], None],
             plus: np.ndarray | None = None) -> None:
        """Write ``data[start:stop]`` in storage order, one group of whole
        RFP columns at a time (cut at start and stop): ``values(piece)``
        writes each piece in place, and then the entries of the upper
        triangle of the n x n matrix ``plus``, if given, that have their
        places in the piece are added into it while it is still in cache.
        So each value is written once and read back from cache, and plus
        is read one group of columns at a time."""
        columns = self._columns()
        lda = columns.shape[1]
        for group in self._groups(start, stop):
            lo = max(start, group.start * lda)
            piece = self.data[lo:min(stop, group.stop * lda)]
            values(piece)
            if plus is not None:
                held = np.empty(columns[group].shape, dtype=plus.dtype)
                for part, tile, mask in _upper_tiles(plus, held, group.start):
                    np.copyto(part, tile, where=mask)
                lo -= group.start * lda
                np.add(piece, held.ravel()[lo:lo + piece.size], out=piece)

    def _halves(self, v: np.ndarray, y: np.ndarray):
        """Two functions that write y1 = M11 v1 + M21^T v2 and y2 = M22 v2 +
        M21 v1 into the halves of y, through numpy's ``cblas_dsymv`` and
        ``cblas_dgemv``; None if numpy's BLAS lacks either."""
        blas = _openblas()
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
        columns = self._columns()
        for group in self._groups():
            for part, tile, mask in _upper_tiles(M, columns[group], group.start):
                np.copyto(tile, part, where=mask)
        if mirror:
            mirror_upper(M)
        return M


def _upper_tiles(M: np.ndarray, columns: np.ndarray, first: int):
    """(part, tile, mask) for each piece of the RFP columns ``first``,
    ``first + 1``, ... of the n x n matrix M, held as the rows of
    ``columns``: the entries of ``tile``, a view of M, where ``mask``
    holds have their places in ``part``, a view of ``columns`` of the
    same shape. They are the entries of M's upper triangle, diagonal
    included, so M's lower triangle is never read or written. Column j
    ends with ``M[j, j:]``, and M22's lower row in front of it is read
    as the matching column of M's upper triangle, one transposed tile
    for the whole group.
    """
    n, odd, size = len(M), len(M) % 2, len(columns)
    n1, last, at = n - n // 2, first + size, first + 1 - odd
    square = np.arange(size) >= np.arange(size)[:, None]  # on and right of the diagonal
    yield columns[:, at:at + size], M[first:last, first:last], square
    yield columns[:, at + size:], M[first:last, last:], True
    # Rows top..end of M22 (RFP columns top + odd..end + odd) lie in the group.
    top, end = max(first - odd, 0), last - odd
    if end > top:
        rows = columns[top + odd - first:]
        yield rows[:, :top], M[n1:n1 + top, n1 + top:n1 + end].T, True
        tile = M[n1 + top:n1 + end, n1 + top:n1 + end].T
        yield rows[:, top:end], tile, square[:end - top, :end - top].T


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
# How many blocks pin numpy's OpenBLAS now, and the thread count to
# restore when the last one ends (:func:`_one_blas_thread`).
_pin = [0, None]
# Guards the helper's start and the pin.
_lock = threading.Lock()


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
    with _lock:
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
    parent's job queue, lock and pin; the next split starts a new helper.
    A pin held by another of the parent's threads would never end in the
    child, so the thread count it saved is restored first."""
    global _jobs, _lock, _pin
    if _pin[0]:
        _openblas().set_threads(_pin[1])
    _jobs, _lock, _pin = None, threading.Lock(), [0, None]


os.register_at_fork(after_in_child=_forget_threads)


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    """M after checking that it is square, finite and symmetric within
    ``INPUT_SYMMETRY_TOL``, in that order: a bool matrix as it is, any
    other as float64.

    A bool matrix is checked for exact symmetry on its one-byte entries:
    it cannot hold a non-finite value, and its 0/1 values are symmetric
    within the tolerance exactly when they are exactly symmetric, so the
    same inputs are accepted as for its float64 copy. A bool matrix
    marked checked (:func:`~dpase._shared.is_checked`), a valid
    adjacency, is returned without a walk.
    """
    M = np.asarray(M)
    is_bool = M.dtype == bool
    if is_bool and is_checked(M):
        return M
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
    since it cannot hold an asymmetric pair, and not at all if its values
    are marked checked (``dp_ase``'s A + E, finite by construction)."""
    if not isinstance(M, PackedSymmetric):
        return PackedSymmetric.pack(_check_symmetric(M))
    if is_checked(M.data):
        return M
    step = _shared.BLOCK_ENTRIES
    if not all(np.isfinite(M.data[c:c + step]).all() for c in range(0, len(M.data), step)):
        raise ValueError("matrix entries must be finite")
    return M


class _OpenBlas(NamedTuple):
    """Entry points of numpy's OpenBLAS: its thread count's getter and
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
def _openblas() -> _OpenBlas | None:
    """numpy's OpenBLAS, or None if numpy links no OpenBLAS that exports
    its thread count.

    numpy's wheel bundles its own OpenBLAS, with its own thread pool, and
    prefixes its symbols with ``scipy_``. Looking the symbols up through
    the handle of numpy's LAPACK extension, ``numpy.linalg._umath_linalg``
    (``dlsym`` searches an object and then what it links), finds the copy
    that numpy calls, wherever it is installed. A ``64_`` suffix marks a
    64-bit integer (ILP64) build.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix in (("scipy_", ""), ("scipy_", "64_"), ("", ""), ("", "64_")):
        if hasattr(lib, f"{prefix}openblas_set_num_threads{suffix}"):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            k = ctypes.c_int64 if suffix else ctypes.c_int32
            # i: the layout or a CBLAS flag, c: a flag, k: a LAPACK integer,
            # r: a double, a: the address of a contiguous array (of doubles
            # or of LAPACK integers) or of one LAPACK integer. An address
            # skips the per-call checks of an ``ndpointer`` argument.
            i, c, r, a = ctypes.c_int, ctypes.c_char, ctypes.c_double, ctypes.c_void_p
            signatures = {  # each LAPACKE routine returns info, CBLAS nothing
                # (layout, uplo, n, a, lda, d, e, tau)
                "dsytrd": [i, c, k, a, k, a, a, a],
                # (range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit)
                "dstebz": [c, c, k, r, r, k, k, r, a, a, a, a, a, a, a],
                # (layout, n, d, e, m, w, iblock, isplit, z, ldz, ifail)
                "dstein": [i, k, a, a, k, a, a, a, a, k, a],
                # (layout, side, uplo, trans, m, n, a, lda, tau, c, ldc)
                "dormtr": [i, c, c, c, k, k, a, k, a, a, k],
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


@contextmanager
def _one_blas_thread():
    """Run each call of numpy's OpenBLAS on the thread that makes it while
    the block runs, then restore its previous thread count; do nothing if
    numpy has no such OpenBLAS.

    After each threaded call a pool's worker busy-waits, and it then
    competes with the helper thread that runs the second half of each
    split product or draw (:func:`_split`), and with the caller's next
    calls, for the cores: a two-ended ``top_d_eigen`` at n = 300 and d = 2
    takes 1.4 ms of wall and CPU time on one thread, where a full ``eigh``
    took 3.5-5.2 ms of wall and 7.4-9.2 ms of CPU time on two. One thread
    also makes each call round the same way on any pool size. The count
    is process-wide, so blocks that overlap in several threads are
    counted: the first one sets the count to 1 and the last one to end
    restores it. A block counts down the pair it counted up, so one that
    the forking thread ends in a child leaves the child's new pair alone.
    """
    found = _openblas()
    if found is None:
        yield
        return
    with _lock:
        pin = _pin
        if pin[0] == 0:
            pin[1] = found.get_threads()
            found.set_threads(1)
        pin[0] += 1
    try:
        yield
    finally:
        with _lock:
            pin[0] -= 1
            if pin[0] == 0:
                found.set_threads(pin[1])


def _lanczos(P: PackedSymmetric, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d eigenpairs of largest magnitude, in ascending order, from a
    thick-restart Lanczos iteration (Wu & Simon 2000; Krylov-Schur with
    block size 1, Stewart 2002) on packed products, to machine precision.

    The basis V (one row per vector) and the projection S = V M V^T
    satisfy M V[:m]^T = V[:m]^T S + V[m]^T b^T: S is tridiagonal past
    the Ritz pairs kept at the last restart, which sit on its diagonal
    with their couplings to V[m] in b. Each step multiplies the newest
    vector, orthogonalizes the product against the whole basis by
    classical Gram-Schmidt with ARPACK's DGKS refinement (another pass
    while a pass leaves less than 0.717 of the norm it started with; after
    three, the basis spans an invariant subspace and a fresh random
    direction continues it), and appends it. A Ritz pair (theta, y) of
    the active part of S has residual norm |b . y|, and counts as
    converged by ARPACK's test for ``tol=0``: |b . y| <= u max(u^(2/3),
    |theta|) with u = eps / 2. A full basis restarts from the Ritz pairs
    of largest magnitude, as many as ARPACK's ``dsaup2`` keeps: d plus
    min(converged, (ncv - d) / 2). The converged ones among them are
    locked: they move to the front with their couplings set to 0, so no
    later step or test touches them again. Without locking, two d = 50
    solves at n = 2000 took 480 and 489 products instead of 479 and 462.

    The test runs at the end of each cycle and, once the last test found
    every wanted pair within 1000 times its tolerance, after every
    product, so the last cycle stops as soon as it has converged: a d = 2
    solve of a seed-7 n = 2000 blockmodel graph stops after 22 products
    instead of 37. Testing after every product from the start cost more
    than it saved: its small eigensolve took up to 2 times a product at
    d = 50 and n = 2000.

    The basis holds ``ncv = max(20, min(4 d, 2 d + 20))`` vectors (at
    most n). Past the K signal pairs of a blockmodel the wanted pairs sit
    in a tight cluster at the edge of the noise bulk, and a basis of
    ``max(20, 2 d + 1)`` restarts many times on it: on a seed-7 n = 2000
    blockmodel graph a plain d = 10 solve took 1108 products at ncv = 21
    and 417 at 40 with ARPACK (345 at 40 here). At d = 50 the cap, 120,
    took about as many ARPACK products as 101 (475-489 on three graphs)
    and a larger basis took more (570 at 200). For d <= 5 the rule gives
    20.

    The caller pins numpy's OpenBLAS to one thread (:func:`top_d_eigen`),
    so the basis operations and the small eigensolves round the same way
    on any pool size; each product is split over the calling thread and
    one helper thread instead (:meth:`PackedSymmetric.matvec`), which nearly
    halves its wall time from n = 2000 on. The start vector, and any fresh
    direction, come from one fixed-seed generator, so results are
    reproducible and no caller's random stream is touched. A solve that
    has not converged after ``_PRODUCTS_PER_ROW`` n products raises
    ``np.linalg.LinAlgError``.
    """
    n = P.n
    ncv = min(n, max(20, min(4 * d, 2 * d + 20)))
    u = np.finfo(float).eps / 2
    rng = np.random.default_rng(0)
    V, S, b = np.empty((ncv + 1, n)), np.zeros((ncv, ncv)), np.zeros(ncv)
    V[0] = rng.standard_normal(n)
    V[0] /= np.linalg.norm(V[0])
    m = locked = products = converged = 0  # V[:locked]: the locked Ritz vectors
    near = False
    while True:
        if products >= _PRODUCTS_PER_ROW * n:
            raise np.linalg.LinAlgError(
                f"Lanczos eigensolver did not converge for d={d} at n={n}: "
                f"{converged} of {d} pairs after {products} products"
            )
        basis, w = V[:m + 1], P.matvec(V[m])
        products += 1
        alpha, norm = 0.0, math.sqrt(w @ w)
        for _ in range(3):
            step = basis @ w
            w -= step @ basis
            alpha += step[m]
            before, norm = norm, math.sqrt(w @ w)
            if norm > 0.717 * before:
                break
        else:  # an invariant subspace: continue from a fresh direction
            w, norm = rng.standard_normal(n), 0.0
            for _ in range(2):
                w -= (basis @ w) @ basis
        S[m, :m] = S[:m, m] = b[:m]
        S[m, m], b[:m], b[m] = alpha, 0.0, norm
        np.divide(w, norm or math.sqrt(w @ w), out=V[m + 1])
        m += 1
        if m < ncv and not near:
            continue
        theta, Y = np.linalg.eigh(S[locked:m, locked:m])
        residual = np.abs(b[locked:m] @ Y)
        tolerance = u * np.maximum(u ** (2 / 3), np.abs(theta))
        values = np.concatenate((S.diagonal()[:locked], theta))
        order = np.argsort(-np.abs(values), kind="stable")
        lock = np.ones(locked, dtype=bool)
        done = np.concatenate((lock, residual <= tolerance))
        near = np.concatenate((lock, residual <= 1000 * tolerance))[order[:d]].all()
        converged = int(np.count_nonzero(done[order[:d]]))
        if converged == d or m == ncv:
            # Column i maps the basis to the Ritz vector of values[i].
            Q = np.zeros((m, m))
            Q[:locked, :locked] = np.eye(locked)
            Q[locked:, locked:] = Y
        if converged == d:
            wanted = order[:d][np.argsort(values[order[:d]], kind="stable")]
            return values[wanted], V[:m].T @ Q[:, wanted]
        if m < ncv:
            continue
        kept = order[:d + min(converged, (ncv - d) // 2)]
        kept = kept[np.argsort(~done[kept], kind="stable")]  # converged first
        keep, locked = len(kept), int(np.count_nonzero(done[kept]))
        coupling = b[:m] @ Q[:, kept[locked:]]
        S[:], b[:] = 0.0, 0.0
        S[range(keep), range(keep)] = values[kept]
        b[locked:keep] = coupling
        V[:keep], V[keep] = Q[:, kept].T @ V[:m], V[m]
        m = keep


def _two_ends(P: PackedSymmetric, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The d lowest and the d highest eigenpairs in ascending order, from
    numpy's own LAPACK, which the caller pins to one thread; None if
    numpy's BLAS does not export the four routines below. Needs 2 d < n, so the two ranges do not
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
    found = _openblas()
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
    # Every array is C-contiguous and goes by address; each end's w and Z
    # start one row further on.
    at_M, at_d, at_e, at_tau, at_w, at_Z, at_block, at_split, at_fail = (
        x.ctypes.data for x in (M, diagonal, off, tau, w, Z, iblock, isplit, ifail))
    at_m, at_nsplit = ctypes.addressof(m), ctypes.addressof(nsplit)

    def check(step: str, info: int, pairs: str, failed: str = "") -> None:
        if info != 0 or failed:
            raise np.linalg.LinAlgError(
                f"{step} failed for pairs {pairs} at n={n}: info={info}{failed}"
            )

    both = f"1..{d} and {n - d + 1}..{n}"
    check("dsytrd", found.dsytrd(102, b"L", n, at_M, n, at_d, at_e, at_tau), both)
    for half, first in enumerate((1, n - d + 1)):
        pairs = f"{first}..{first + d - 1}"
        ends = at_w + half * w.strides[0]
        info = found.dstebz(b"I", b"B", n, 0.0, 0.0, first, first + d - 1, 0.0, at_d, at_e,
                            at_m, at_nsplit, ends, at_block, at_split)
        check("dstebz", info, pairs, "" if m.value == d else f", {m.value} pairs")
        info = found.dstein(102, n, at_d, at_e, d, ends, at_block, at_split,
                            at_Z + half * d * Z.strides[0], n, at_fail)
        failed = ifail[:d][ifail[:d] != 0]
        check("dstein", info, pairs, f", unconverged {failed}" if failed.size else "")
    check("dormtr", found.dormtr(102, b"L", b"L", b"N", n, 2 * d, at_M, n, at_tau, at_Z, n),
          both)
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
    truncated. Otherwise, with ``n >= LANCZOS_MIN_N`` a thick-restart
    Lanczos solver computes just the d pairs from packed mat-vecs, and
    below it the matrix is unpacked and LAPACK finds only the d lowest and
    the d highest pairs (a full decomposition if numpy's LAPACK lacks one of
    the routines). Either partial solve runs with numpy's OpenBLAS pinned
    to one thread (:func:`_one_blas_thread`), so its bits do not depend on
    the pool's size; a full decomposition follows ``OPENBLAS_NUM_THREADS``.
    Ties in magnitude rank the positive eigenvalue first,
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
    # Only 2 d < n keeps the Lanczos basis (ncv <= n) beyond the d pairs,
    # and the two ends of the spectrum apart. The one full eigh is here.
    pairs = None
    if 2 * d < n:
        with _one_blas_thread():
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
