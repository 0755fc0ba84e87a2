"""Experiment sweeps: Monte Carlo replication over privacy parameters.

Every sweep runs one engine over the Cartesian product of its parameter
lists and the replicates, and emits one record per cell per replicate
with the lists enumerated left to right and the replicate innermost.
Replicate r seeds its stream with ``base_seed + r`` and realizes its
graph at each n once; every (d, alpha, delta) cell then draws its noise
from a copy of the stream as the graph draw left it. The plain reference
(non-private embedding and error) of every d comes from one eigensolve
per graph, at the largest d of the sweep that fits it, and its error is
computed once per (graph, d); both are shared by every privacy cell of a
simulated replicate and by every replicate of a dataset graph. Distinct
replicates draw fresh graphs and fresh noise. Runs are fully
deterministic: the same configuration and base seed produce
byte-identical output files.

Failed cells become status-tagged records with empty metric fields
instead of aborting the sweep: ``calibration_error`` for a budget that
gives no usable noise scale, ``eigen_error`` for a failed eigensolve and
``invalid_cell`` for a parameter out of range (``ParameterRangeError``).
Any other exception is a fault, not a cell result, and propagates.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import weakref
from dataclasses import dataclass, fields, replace

import numpy as np

from ._shared import ParameterRangeError
from .classify import loocv_error
from .embedding import ase, procrustes_align
from .graphs import LabeledGraph, SbmParams, sample_sbm
from .privacy import CalibrationError, PrivacyBudget, _check_noise_ratio, dp_ase

_INT_COLUMNS = {"n", "d", "k", "replicate", "seed"}


@dataclass(frozen=True)
class SweepRecord:
    """One experimental cell: parameters, both pipeline errors, distances."""

    experiment: str
    n: int
    d: int
    alpha: float
    delta: float
    k: int
    replicate: int
    seed: int
    error_dp: float | None = None
    error_ase: float | None = None
    fnorm: float | None = None
    fnorm_per_vertex: float | None = None
    status: str = "ok"


CSV_COLUMNS = [f.name for f in fields(SweepRecord)]


@dataclass(frozen=True)
class SimulationSource:
    """Draws a fresh blockmodel graph per (n, replicate)."""

    params: SbmParams

    def realize(self, n: int, rng: np.random.Generator) -> LabeledGraph:
        return sample_sbm(self.params, n, rng)


@dataclass(frozen=True)
class DatasetSource:
    """A fixed real graph: only the privacy noise resamples per replicate."""

    graph: LabeledGraph

    def realize(self, n: int, rng: np.random.Generator) -> LabeledGraph:
        if n != self.graph.n:
            raise ParameterRangeError(
                f"dataset has {self.graph.n} vertices, requested {n}"
            )
        return self.graph


class _PlainReferences:
    """Plain embedding and LOOCV error per d of the latest graph, held weakly
    so a replaced simulated graph is freed before the next one is drawn.

    A graph's top-d eigenpairs by magnitude are the leading d of its top-D
    pairs for any D >= d, and every solver path sorts and sign-fixes the
    pairs column by column. So a graph's first request makes one plain
    solve, at the largest d of ``d_list`` that fits the graph
    (1 <= d <= n), and every d up to it gets the leading columns of that
    embedding: the same bits as its own solve on the full dense path
    (below ``DENSE_ENDS_MIN_N``, or for half the spectrum), differences at
    rounding level (about 1e-13) on the two-ended and Lanczos paths,
    which solve for d pairs at a time. If that solve raises
    ``LinAlgError``, every smaller d solves on its own, so only the cells
    whose own solve fails are tagged. A d outside 1..n solves on its own
    and raises. Solves are deterministic, so a d whose solve raised
    ``LinAlgError`` keeps the error and raises a copy of it on every later
    request instead of solving again; the copy has no traceback, which
    would hold the graph.
    """

    def __init__(self, d_list):
        self._d_list = d_list
        self._graph = lambda: None

    def get(self, graph: LabeledGraph, d: int, k: int) -> tuple[np.ndarray, float]:
        if self._graph() is not graph:
            self._graph, self._by_d, self._top = weakref.ref(graph), {}, np.empty((graph.n, 0))
            top_d = max((e for e in self._d_list if 1 <= e <= graph.n), default=0)
            try:
                self._top = ase(graph.adjacency, top_d) if top_d else self._top
            except np.linalg.LinAlgError as exc:
                self._by_d[top_d] = copy.copy(exc)
        if d not in self._by_d:
            top = self._top[:, :d] if 1 <= d <= self._top.shape[1] else None
            try:
                reference = ase(graph.adjacency, d) if top is None else np.ascontiguousarray(top)
                self._by_d[d] = (reference, loocv_error(reference, graph.labels, k).error_rate)
            except np.linalg.LinAlgError as exc:
                self._by_d[d] = copy.copy(exc)
        if isinstance(self._by_d[d], Exception):
            raise copy.copy(self._by_d[d])
        return self._by_d[d]


# The errors that make a cell's result, not a fault of the program.
_CELL_ERRORS = (ParameterRangeError, CalibrationError, np.linalg.LinAlgError)


def _failed(record: SweepRecord, exc: ValueError) -> SweepRecord:
    if isinstance(exc, CalibrationError):
        return replace(record, status="calibration_error")
    if isinstance(exc, np.linalg.LinAlgError):
        return replace(record, status="eigen_error")
    return replace(record, status="invalid_cell")


def _cell(record: SweepRecord, graph: LabeledGraph, rng, plain) -> SweepRecord:
    d, delta = record.d, record.delta
    try:
        # Check calibration feasibility before budget range validation so an
        # unsatisfiable cell is tagged as such rather than as a bad budget.
        _check_noise_ratio(d, delta)
        budget = PrivacyBudget(record.alpha, delta)
        reference, error_ase = plain.get(graph, d, record.k)
        private = dp_ase(graph.adjacency, d, budget, rng)
        error_dp = loocv_error(private, graph.labels, record.k).error_rate
        fnorm = procrustes_align(private, reference).aligned_distance
    except _CELL_ERRORS as exc:
        return _failed(record, exc)
    return replace(
        record,
        error_dp=error_dp,
        error_ase=error_ase,
        fnorm=fnorm,
        fnorm_per_vertex=fnorm / math.sqrt(record.n),
    )


def _replicate(source, records: list[SweepRecord], plain) -> list[SweepRecord]:
    """Realize the records' (n, replicate) graph once and fill in every cell."""
    rng = np.random.default_rng(records[0].seed)
    try:
        graph = source.realize(records[0].n, rng)
    except _CELL_ERRORS as exc:
        return [_failed(record, exc) for record in records]
    # Every cell draws its noise from a copy of the stream as the graph left it.
    return [_cell(record, graph, copy.deepcopy(rng), plain) for record in records]


def _sweep(
    experiment: str, source, n_list, d_list, alpha_list, delta_list, k: int,
    replicates: int, base_seed: int,
) -> list[SweepRecord]:
    """Every sweep: the lists' Cartesian product, replicate innermost."""
    if any(not values for values in (n_list, d_list, alpha_list, delta_list)):
        raise ValueError("sweep list must be nonempty")
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    cells = list(itertools.product(d_list, alpha_list, delta_list))
    plain = _PlainReferences(d_list)
    records = []
    for n in n_list:
        by_replicate = []
        for rep in range(replicates):
            seed = base_seed + rep
            blank = [SweepRecord(experiment, n, *cell, k, rep, seed) for cell in cells]
            by_replicate.append(_replicate(source, blank, plain))
        # Regroup cell by cell, with the replicate innermost.
        records.extend(record for row in zip(*by_replicate) for record in row)
    return records


def run_n_sweep(
    source: SimulationSource,
    n_list: list[int],
    d: int,
    alpha: float,
    delta: float,
    k: int,
    replicates: int,
    base_seed: int,
) -> list[SweepRecord]:
    """Fixed privacy budget, growing graphs: one record per (n, replicate)."""
    return _sweep(
        "n-sweep", source, n_list, [d], [alpha], [delta], k, replicates, base_seed
    )


def run_privacy_grid(
    source,
    n: int,
    d: int,
    alpha_list: list[float],
    delta_list: list[float],
    k: int,
    replicates: int,
    base_seed: int,
) -> list[SweepRecord]:
    """Full alpha x delta Cartesian grid at fixed n, replicated per cell."""
    return _sweep(
        "privacy-grid", source, [n], [d], alpha_list, delta_list, k, replicates,
        base_seed,
    )


def run_dim_sweep(
    source,
    n: int,
    d_list: list[int],
    alpha: float,
    delta: float,
    k: int,
    replicates: int,
    base_seed: int,
) -> list[SweepRecord]:
    """Fixed budget, varying embedding dimension."""
    return _sweep(
        "dim-sweep", source, [n], d_list, [alpha], [delta], k, replicates, base_seed
    )


def run_alpha_tradeoff(
    source,
    n: int,
    d: int,
    alpha_list: list[float],
    delta: float,
    k: int,
    replicates: int,
    base_seed: int,
) -> list[SweepRecord]:
    """Fixed delta, varying alpha; the non-private error rides along."""
    return _sweep(
        "alpha-tradeoff", source, [n], [d], alpha_list, [delta], k, replicates,
        base_seed,
    )


def _format_value(name: str, value) -> str:
    if value is None:
        return ""
    if name in _INT_COLUMNS:
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _json_value(name: str, value):
    if value is None or name in _INT_COLUMNS or not isinstance(value, float):
        return value
    return float(format(value, ".9g"))


def emit_results(records: list[SweepRecord], format: str, path) -> None:
    """Write records as CSV or JSON with a fixed column order.

    Floats are printed with 9 significant digits in both formats; CSV
    rows follow ``CSV_COLUMNS`` exactly and missing metrics of failed
    cells are left empty (``null`` in JSON).
    """
    if format == "csv":
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for record in records:
                row = [_format_value(c, getattr(record, c)) for c in CSV_COLUMNS]
                fh.write(",".join(row) + "\n")
    elif format == "json":
        payload = [
            {c: _json_value(c, getattr(record, c)) for c in CSV_COLUMNS}
            for record in records
        ]
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {format!r}")
