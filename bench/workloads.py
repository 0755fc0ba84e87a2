"""The benchmark's workloads: inputs, the CLI commands of one pass, output checks.

Every pass drives the public entry point ``dpase.cli.main(argv)`` with
its commands run one after another (a closed loop with one caller). The
program receives only argv and files; every input is made from the
workload seed, which is also the CLI's base seed.

The default sizes are the benchmark's; the self-test builds the same
workloads at tiny sizes.
"""

from __future__ import annotations

import csv
import json
import math
import shlex
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import dpase

# The paper's 2-block blockmodel, as CLI flags and as library parameters.
SBM_FLAGS = ["--B", "0.3,0.1,0.1,0.2", "--pi", "0.4,0.6"]
SBM_PARAMS = dpase.SbmParams(B=[[0.3, 0.1], [0.1, 0.2]], pi=[0.4, 0.6])
K = 3
# Acceptance criterion 5: the plain embedding separates the blocks.
ASE_ERROR_BOUND = 0.05
ASE_BOUND_SIZES = (2000, 4000)


@dataclass
class Outcome:
    """What one command's output check found, and the quality it read."""

    problems: list[str] = field(default_factory=list)
    private_errors: list[float] = field(default_factory=list)
    fnorm_per_vertex: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass, the files it writes and their check."""

    argv: list[str]
    outputs: tuple[Path, ...]
    check: Callable[[], Outcome]


def _read_records(path: Path, fmt: str) -> tuple[list[str] | None, list[dict]]:
    """The CSV header (None for JSON) and the records as dicts."""
    with open(path, newline="") as fh:
        if fmt == "json":
            return None, json.load(fh)
        reader = csv.DictReader(fh)
        records = list(reader)
        return list(reader.fieldnames or []), records


def check_records(path: Path, fmt: str, experiment: str, cells: list[tuple[int, int]]) -> Outcome:
    """Sweep output: schema, one ok record per expected (n, d) cell, sane metrics."""
    out = Outcome()
    columns = dpase.CSV_COLUMNS
    header, records = _read_records(path, fmt)
    if header is not None and header != columns:
        out.problems.append(f"{path.name}: header {header} != CSV_COLUMNS")
        return out
    if len(records) != len(cells):
        out.problems.append(f"{path.name}: {len(records)} records, expected {len(cells)}")
        return out
    for i, (record, (n, d)) in enumerate(zip(records, cells)):
        where = f"{path.name} record {i}"
        if list(record) != columns:
            out.problems.append(f"{where}: fields {list(record)} != CSV_COLUMNS")
            continue
        if record["status"] != "ok":
            out.problems.append(f"{where}: status {record['status']!r}")
            continue
        try:
            cell = (record["experiment"], int(record["n"]), int(record["d"]))
            error_dp = float(record["error_dp"])
            error_ase = float(record["error_ase"])
            fnorm_pv = float(record["fnorm_per_vertex"])
        except (TypeError, ValueError) as exc:
            out.problems.append(f"{where}: unreadable field ({exc})")
            continue
        if cell != (experiment, n, d):
            out.problems.append(f"{where}: cell {cell}, expected {(experiment, n, d)}")
            continue
        if not (0.0 <= error_dp <= 1.0 and 0.0 <= error_ase <= 1.0):
            out.problems.append(f"{where}: error outside [0, 1]")
        if not (math.isfinite(fnorm_pv) and fnorm_pv >= 0.0):
            out.problems.append(f"{where}: fnorm_per_vertex {fnorm_pv!r}")
        if n in ASE_BOUND_SIZES and error_ase > ASE_ERROR_BOUND:
            out.problems.append(f"{where}: error_ase {error_ase} > {ASE_ERROR_BOUND} at n={n}")
        out.private_errors.append(error_dp)
        out.fnorm_per_vertex.append(fnorm_pv)
    return out


class Workload:
    """A named pass of CLI commands; ``why`` is the one-line reason it exists."""

    name = ""
    why = ""

    def setup(self, work: Path, seed: int) -> None:
        """The program samples its own graphs from the seed; nothing to write."""

    def warmup(self, work: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def steps(self, work: Path, seed: int) -> list[Step]:
        raise NotImplementedError

    def config(self, seed: int) -> dict:
        """The set-up and the command lines of one pass, for the run record."""
        commands = [shlex.join(step.argv) for step in self.steps(Path("work"), seed)]
        return {"setup": self.setup.__doc__, "commands": commands}


class NSweep(Workload):
    name = "nsweep"
    why = ("growing simulated graphs: dense eigh dominates, n=4000 sets the memory peak, "
           "every cell owns its graph so sweep reuse saves nothing")

    def __init__(self, n_list=(1000, 2000, 4000), warmup_n=(40, 60)):
        self.n_list = tuple(n_list)
        self.warmup_n = tuple(warmup_n)

    def _argv(self, n_list, seed: int, out: Path) -> list[str]:
        return ["simulate-sweep-n", "--n-list", ",".join(map(str, n_list)), *SBM_FLAGS,
                "--alpha", "0.1", "--delta", "0.001", "--dim", "2", "--k", str(K),
                "--replicates", "1", "--seed", str(seed), "--format", "csv", "--out", str(out)]

    def warmup(self, work: Path, seed: int) -> list[str]:
        return self._argv(self.warmup_n, seed, work / "warmup.csv")

    def steps(self, work: Path, seed: int) -> list[Step]:
        out = work / "nsweep.csv"
        cells = [(n, 2) for n in self.n_list]
        return [Step(self._argv(self.n_list, seed, out), (out,),
                     lambda: check_records(out, "csv", "n-sweep", cells))]


class Grid(Workload):
    name = "grid"
    why = ("many small privacy-grid cells: LOOCV and per-call overhead matter, and each "
           "replicate's graph and plain embedding are recomputed for all 4 cells")
    alphas = (0.001, 0.05)
    deltas = (0.0001, 0.6)

    def __init__(self, n=300, replicates=20):
        self.n = n
        self.replicates = replicates

    def _argv(self, replicates: int, seed: int, out: Path) -> list[str]:
        return ["privacy-grid", "--n", str(self.n), *SBM_FLAGS,
                "--alpha", ",".join(map(str, self.alphas)),
                "--delta", ",".join(map(str, self.deltas)), "--dim", "2", "--k", str(K),
                "--replicates", str(replicates), "--seed", str(seed),
                "--format", "json", "--out", str(out)]

    def warmup(self, work: Path, seed: int) -> list[str]:
        return self._argv(1, seed, work / "warmup.json")

    def steps(self, work: Path, seed: int) -> list[Step]:
        out = work / "grid.json"
        cells = [(self.n, 2)] * (len(self.alphas) * len(self.deltas) * self.replicates)
        return [Step(self._argv(self.replicates, seed, out), (out,),
                     lambda: check_records(out, "json", "privacy-grid", cells))]


class EdgeList(Workload):
    name = "edgelist"
    why = ("one-shot release of an edge-list file: text parsing, savetxt/loadtxt, the "
           "fixed-graph cache path and eigensolves and LOOCV up to d=50; never samples")

    def __init__(self, n=2000, dims=(2, 10, 50), warmup_n=60):
        self.n = n
        self.dims = tuple(dims)
        self.warmup_n = warmup_n

    @staticmethod
    def _write_graph(work: Path, n: int, seed: int, stem: str) -> tuple[Path, Path]:
        graph = dpase.sample_sbm(SBM_PARAMS, n, np.random.default_rng(seed))
        edges, labels = work / f"{stem}.edges", work / f"{stem}.labels"
        dpase.write_edge_list(graph.adjacency, edges)
        labels.write_text("".join(f"{label}\n" for label in graph.labels))
        return edges, labels

    def setup(self, work: Path, seed: int) -> None:
        """Writes an SBM graph with write_edge_list and its labels, one per line."""
        self._write_graph(work, self.n, seed, "graph")

    def warmup(self, work: Path, seed: int) -> list[str]:
        edges, _ = self._write_graph(work, self.warmup_n, seed, "warmup")
        return ["embed", "--edge-list", str(edges), "--n-hint", str(self.warmup_n),
                "--dim", "2", "--alpha", "0.1", "--delta", "0.01", "--seed", str(seed),
                "--out", str(work / "warmup.csv")]

    def steps(self, work: Path, seed: int) -> list[Step]:
        edges, labels = work / "graph.edges", work / "graph.labels"
        embedding, report, sweep = work / "embedding.csv", work / "classify.json", work / "dims.csv"
        data = ["--edge-list", str(edges), "--n-hint", str(self.n)]
        return [
            Step(["embed", *data, "--dim", "2", "--alpha", "0.1", "--delta", "0.01",
                  "--seed", str(seed), "--out", str(embedding)],
                 (embedding,), lambda: self._check_embedding(embedding)),
            Step(["classify", "--embedding", str(embedding), "--labels", str(labels),
                  "--k", str(K), "--out", str(report)],
                 (report,), lambda: self._check_classify(embedding, labels, report)),
            Step(["dim-sweep", *data, "--labels", str(labels),
                  "--dim", ",".join(map(str, self.dims)), "--alpha", "0.1", "--delta", "0.01",
                  "--k", str(K), "--replicates", "1", "--seed", str(seed),
                  "--format", "csv", "--out", str(sweep)],
                 (sweep,), lambda: check_records(sweep, "csv", "dim-sweep",
                                                 [(self.n, d) for d in self.dims])),
        ]

    def _check_embedding(self, path: Path) -> Outcome:
        positions = np.loadtxt(path, delimiter=",", ndmin=2)
        if positions.shape != (self.n, 2) or not np.all(np.isfinite(positions)):
            return Outcome([f"{path.name}: shape {positions.shape} or non-finite entries"])
        return Outcome()

    def _check_classify(self, embedding: Path, labels: Path, report: Path) -> Outcome:
        """The classify JSON equals loocv_error recomputed on the embedding CSV."""
        positions = np.loadtxt(embedding, delimiter=",", ndmin=2)
        expected = dpase.loocv_error(positions, dpase.load_labels(labels, len(positions)), K)
        with open(report) as fh:
            got = json.load(fh)
        want = {"error_rate": expected.error_rate, "n_evaluated": expected.n_evaluated,
                "k": expected.k, "chance_error": expected.chance_error}
        if got != want:
            return Outcome([f"{report.name}: {got} != recomputed {want}"])
        return Outcome(private_errors=[got["error_rate"]])


WORKLOADS = {cls.name: cls for cls in (NSweep, Grid, EdgeList)}
