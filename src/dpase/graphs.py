"""Stochastic blockmodel sampling and graph file ingestion.

An undirected simple graph on n vertices is represented as a plain numpy
array: an n x n symmetric, hollow (zero-diagonal) 0/1 matrix of dtype
bool, one byte per entry. Arithmetic on it (the embedding's float64
copy, ``dp_ase``'s in-place ``M += A``) sees exactly 0.0 and 1.0.
Block/class labels are 1-based integer vectors with values in 1..K.

File formats
------------
Edge list: ASCII, one ``u v`` pair of integer vertex ids per line,
whitespace separated. Lines starting with ``#`` and blank lines are
skipped. Ids may be 0-based or 1-based; the base is auto-detected from
the minimum id seen (0 anywhere means 0-based).

Labels: one integer class id per line, one line per vertex. Arbitrary
ids are remapped to contiguous 1..K in order of first appearance.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from ._shared import ParameterRangeError, is_symmetric, mirror_upper, row_blocks
from .embedding import draw_in_two

log = logging.getLogger(__name__)

SYMMETRY_TOL = 1e-12
PI_SUM_TOL = 1e-12
_ID_CAP = np.iinfo(np.int64).max


class EdgeListError(ValueError):
    """Raised when an edge-list or label file cannot be ingested."""


@dataclass(frozen=True)
class SbmParams:
    """Parameters of a K-block stochastic blockmodel.

    Parameters
    ----------
    B : (K, K) array
        Symmetric matrix of between-block edge probabilities in [0, 1].
    pi : (K,) array
        Block membership prior; nonnegative, sums to 1.
    """

    B: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError(f"B must be a square matrix, got shape {B.shape}")
        if pi.ndim != 1 or len(pi) != B.shape[0]:
            raise ValueError(
                f"pi length {pi.shape} does not match B dimension {B.shape[0]}"
            )
        if len(pi) < 1:
            raise ValueError("block count must be at least 1")
        if np.abs(B - B.T).max() > SYMMETRY_TOL:
            raise ValueError("B must be symmetric")
        # Written so that a NaN, which compares false, fails the check.
        if not (B.min() >= 0.0 and B.max() <= 1.0):
            raise ValueError("B entries must lie in [0, 1]")
        if pi.min() < 0.0:
            raise ValueError("pi entries must be nonnegative")
        if not abs(pi.sum() - 1.0) <= PI_SUM_TOL:
            raise ValueError(f"pi must sum to 1, got {float(pi.sum())}")
        _freeze(self, B=B, pi=pi)

    @property
    def K(self) -> int:
        return len(self.pi)


@dataclass(frozen=True)
class LabeledGraph:
    """A read-only bool adjacency matrix together with 1-based block labels.

    The arrays are frozen in place, not copied: a bool adjacency (or an
    int label vector) passed in becomes read-only in the caller's hands.
    """

    adjacency: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        adjacency = validate_adjacency(self.adjacency)
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or len(labels) != adjacency.shape[0]:
            raise ValueError("labels length must equal the vertex count")
        if labels.min(initial=1) < 1:
            raise ValueError("labels must be 1-based positive class ids")
        _freeze(self, adjacency=adjacency, labels=labels)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _freeze(record, **arrays: np.ndarray) -> None:
    """Make each validated array read-only and store it on the frozen
    dataclass ``record`` under its keyword."""
    for name, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(record, name, array)


def validate_adjacency(A: np.ndarray) -> np.ndarray:
    """Check that A is a symmetric, hollow 0/1 matrix; return it as bool.

    Any numeric 0/1 matrix is accepted and checked as float64; a bool
    matrix is returned as is and skips the 0/1 check it cannot fail.
    Symmetry and hollowness must hold exactly (entrywise), not merely
    within tolerance. Symmetry is checked tile against transposed tile
    and the 0/1 check walks row blocks, so temporaries stay
    O(``BLOCK_ENTRIES``) and O(block * n) rather than n x n.
    """
    A = np.asarray(A)
    if A.dtype != bool:
        A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {A.shape}")
    if not is_symmetric(A):
        raise ValueError("adjacency matrix must be exactly symmetric")
    if np.any(np.diagonal(A) != 0):
        raise ValueError("adjacency matrix must have a zero diagonal")
    if A.dtype == bool:
        return A
    if not all(np.all((A[b] == 0.0) | (A[b] == 1.0)) for b in row_blocks(len(A))):
        raise ValueError("adjacency entries must be 0 or 1")
    return A != 0.0


def sample_block_labels(params: SbmParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. 1-based block labels from the membership prior."""
    if n < 1:
        raise ParameterRangeError(f"vertex count must be at least 1, got {n}")
    return rng.choice(params.K, size=n, p=params.pi) + 1


def sample_sbm(params: SbmParams, n: int, rng: np.random.Generator) -> LabeledGraph:
    """Sample a graph from a stochastic blockmodel.

    Labels are drawn i.i.d. from ``params.pi``; for each vertex pair
    i < j an edge is present independently with probability
    ``B[label_i, label_j]``. The diagonal is zero. The labels come from
    ``rng`` itself; the strict upper triangle is cut into two fixed
    chunks of rows, each drawn from its own child stream of ``rng``
    (:func:`~dpase.embedding.draw_in_two`, on two threads from
    ``LANCZOS_MIN_N`` on). Two calls with an identically seeded ``rng``
    produce bit-identical graphs, whatever the thread count.
    """
    labels = sample_block_labels(params, n, rng)
    idx = labels - 1
    probs = params.B[:, idx]  # probs[k, j]: edge chance of vertex j with block k + 1
    A = np.zeros((n, n), dtype=bool)
    # Chunk 0 is the longest run of top rows that holds at most half the
    # strict upper triangle's entries, chunk 1 the rest. Each chunk is
    # drawn in blocks of rows, one uniform draw per block over the columns
    # from its first row on. The values this writes on and below the
    # diagonal are then overwritten by the zeroed diagonal and one tiled
    # mirror, so A is the only n x n buffer. Blocks of 32 rows ran fastest
    # on two threads; below n = 1024 they hold n / 32 rows, so a block's
    # two float64 temporaries stay within n^2 / 2 bytes.
    cut = int(np.searchsorted(np.cumsum(np.arange(n - 1, 0, -1)), n * (n - 1) // 4, "right"))
    rows = max(1, min(32, n // 32))

    def fill(stream: np.random.Generator, c: int) -> None:
        start, stop = ((0, cut), (cut, n - 1))[c]
        for a in range(start, stop, rows):
            b = min(a + rows, stop)
            np.less(stream.random((b - a, n - a)), probs[idx[a:b], a:], out=A[a:b, a:])

    draw_in_two(n, rng, fill)
    np.fill_diagonal(A, False)
    mirror_upper(A)
    return LabeledGraph(adjacency=A, labels=labels)


def _parse_id(token: str, lineno: int, path: str, noun: str = "vertex id") -> int:
    try:
        return int(token)
    except ValueError:
        raise EdgeListError(
            f"{path}:{lineno}: non-integer {noun} {token!r}"
        ) from None


def _data_lines(path, what: str):
    """Yield ``(lineno, stripped line)`` for each non-blank, non-``#`` line."""
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except OSError as exc:
        raise EdgeListError(f"cannot read {what} {path}: {exc}") from exc


def _parse_edge_lines(path) -> np.ndarray:
    """The (m, 2) int64 ids of an edge list, read line by line; the first
    bad line raises ``EdgeListError``."""
    pairs: list[int] = []
    for lineno, line in _data_lines(path, "edge list"):
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(
                f"{path}:{lineno}: expected 'u v', got {line!r}"
            )
        # An id past int64 fits no matrix; capped, it fails the size checks.
        u, v = (min(_parse_id(token, lineno, str(path)), _ID_CAP) for token in tokens)
        if u < 0 or v < 0:
            raise EdgeListError(f"{path}:{lineno}: negative vertex id")
        pairs += (u, v)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _comments_start_lines(data: bytes) -> bool:
    """Whether every ``#`` in a file's bytes begins its line, after optional
    whitespace: then each is a comment line the line loop skips, and
    ``np.loadtxt(comments="#")`` skips the same lines. Bytes without a
    ``#`` pass."""
    at = data.find(b"#")
    while at >= 0:
        if data[data.rfind(b"\n", 0, at) + 1:at].strip():
            return False
        at = data.find(b"#", at + 1)
    return True


def _load_edge_ids(path) -> np.ndarray | None:
    """The (m, 2) int64 ids of an edge list from one read and one C-level parse.

    The file's bytes are read once, checked by ``_comments_start_lines``
    and dropped; then ``np.loadtxt`` parses the file once. Returns None,
    leaving the file to the line loop and its messages, when the file
    cannot be read or holds no edges, a ``#`` after a token, a token that
    is not an int64, a line without two ids or a negative id. Whatever it
    does accept, it reads exactly as the line loop would.
    """
    try:
        with open(path, "rb") as fh:
            if not _comments_start_lines(fh.read()):
                return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns on a file with no data
            ids = np.loadtxt(path, dtype=np.int64, ndmin=2, comments="#")
    except (OSError, ValueError):
        return None
    if ids.shape[1] != 2 or not len(ids) or ids.min() < 0:
        return None
    return ids


def load_edge_list(path, n_hint: int | None = None) -> np.ndarray:
    """Read a whitespace-separated edge list into an adjacency matrix.

    Duplicate edges collapse to a single edge and self-loops are dropped:
    a self-loop's diagonal entry is never written, and a warning with the
    count is logged. When ``n_hint`` is given it fixes the vertex count
    and any id outside the valid range is an error; otherwise the count
    is inferred from the largest id. A file of id pairs, blank lines and
    whole-line ``#`` comments is parsed in one vectorized pass; anything
    else goes through the line loop, which names the first bad line.
    """
    if n_hint is not None and n_hint < 0:
        raise EdgeListError(f"{path}: vertex-count hint must be nonnegative, got {n_hint}")
    ids = _load_edge_ids(path)
    if ids is None:
        ids = _parse_edge_lines(path)
    if not len(ids):
        if n_hint is None:
            raise EdgeListError(f"{path}: no edges and no vertex-count hint")
        return np.zeros((n_hint, n_hint), dtype=bool)

    min_id = ids.min()
    offset = 0 if min_id == 0 else 1
    if min_id == 1:
        log.info("%s: minimum vertex id is 1 and 0 never appears; treating ids as 1-based", path)

    ids -= offset
    n = n_hint if n_hint is not None else int(ids.max()) + 1
    # Sized before the bounds check, so an n too large to allocate is
    # reported ahead of any out-of-range line.
    A = np.zeros((n, n), dtype=bool)
    outside = np.flatnonzero((ids >= n).any(axis=1))
    if outside.size:
        # Row r of ids is the r-th data line on both parse paths.
        lineno, _ = next(itertools.islice(_data_lines(path, "edge list"), outside[0], None))
        raise EdgeListError(f"{path}:{lineno}: vertex id exceeds declared count {n}")
    u, v = ids.T
    # Each edge sets both of its entries and a self-loop sets its diagonal
    # entry to False, so A is symmetric and hollow as built.
    A[u, v] = A[v, u] = u != v
    self_loops = np.count_nonzero(u == v)
    if self_loops:
        log.warning("%s: dropped %d self-loop(s)", path, self_loops)
    return A


def write_edge_list(A: np.ndarray, path) -> None:
    """Write the upper-triangle edges of an adjacency matrix, 0-based, in
    row-major order. Rows are read a block at a time, so memory beyond A
    and the text is O(block * n)."""
    A = validate_adjacency(A)
    with open(path, "w", newline="\n") as fh:
        for b in row_blocks(len(A)):
            rows, cols = np.nonzero(A[b])
            rows += b.start
            upper = cols > rows
            fh.write("".join(
                f"{u} {v}\n" for u, v in zip(rows[upper].tolist(), cols[upper].tolist())
            ))


def load_labels(path, n: int) -> np.ndarray:
    """Read one class id per line and remap ids to contiguous 1..K.

    Remapping preserves first-appearance order, so the first distinct id
    in the file becomes class 1. The file must contain exactly ``n``
    non-blank, non-comment lines.
    """
    raw = [
        _parse_id(line, lineno, str(path), noun="class id")
        for lineno, line in _data_lines(path, "labels")
    ]
    if not raw:
        raise EdgeListError(f"{path}: empty label file")
    if len(raw) != n:
        raise EdgeListError(f"{path}: expected {n} labels, got {len(raw)}")
    remap: dict[int, int] = {}
    for value in raw:
        if value not in remap:
            remap[value] = len(remap) + 1
    return np.array([remap[value] for value in raw], dtype=int)
