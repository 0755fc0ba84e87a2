"""dpase's layers as the traced run sees them, and the per-layer metrics.

Each target is a module attribute that a caller looks up at call time,
so wrapping it traces exactly the calls that caller makes. The plain
embedding a sweep computes for reference (``dpase.sweeps.ase``) is kept
apart from the one inside the private release (``dpase.privacy.ase``).
The harness opens one ``cli.main`` span around every CLI command, so
``cli.self_s`` is what the CLI spends outside the library layers:
option parsing and the embedding CSV's ``savetxt``/``loadtxt``.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from spans import Span, self_times

# Vertex counts that per-layer numbers are broken out by (nsweep's sizes).
BY_N_SIZES = (1000, 2000, 4000)

SWEEP_RUNS = ("sweeps.run_n_sweep", "sweeps.run_privacy_grid", "sweeps.run_dim_sweep")


def _fingerprint(matrix) -> str:
    data = np.ascontiguousarray(matrix)
    return hashlib.blake2b(data.data, digest_size=16).hexdigest()


def _graph_key(args, result) -> dict:
    return {"graph": _fingerprint(result.adjacency)}


def _plain_key(args, result) -> dict:
    return {"graph": _fingerprint(args[0]), "d": args[1] if len(args) > 1 else None}


def _edge_count(args, result) -> dict:
    return {"edges": int(np.count_nonzero(result)) // 2}


# (module, attribute, span name, position of the argument giving n, after-hook)
TARGETS = [
    ("dpase.cli", "run_n_sweep", "sweeps.run_n_sweep", None, None),
    ("dpase.cli", "run_privacy_grid", "sweeps.run_privacy_grid", 1, None),
    ("dpase.cli", "run_dim_sweep", "sweeps.run_dim_sweep", 1, None),
    ("dpase.cli", "emit_results", "sweeps.emit_results", None, None),
    ("dpase.cli", "load_edge_list", "graphs.load_edge_list", None, _edge_count),
    ("dpase.cli", "load_labels", "graphs.load_labels", 1, None),
    ("dpase.cli", "dp_ase", "privacy.dp_ase", 0, None),
    ("dpase.cli", "loocv_error", "classify.loocv_error", 0, None),
    ("dpase.sweeps", "sample_sbm", "graphs.sample_sbm", 1, _graph_key),
    ("dpase.sweeps", "ase", "sweeps.plain_ase", 0, _plain_key),
    ("dpase.sweeps", "dp_ase", "privacy.dp_ase", 0, None),
    ("dpase.sweeps", "loocv_error", "classify.loocv_error", 0, None),
    ("dpase.sweeps", "procrustes_align", "embedding.procrustes_align", 0, None),
    ("dpase.privacy", "validate_adjacency", "graphs.validate_adjacency", 0, None),
    ("dpase.privacy", "sample_symmetric_noise", "privacy.sample_symmetric_noise", 0, None),
    ("dpase.privacy", "ase", "privacy.ase", 0, None),
    ("dpase.embedding", "top_d_eigen", "embedding.top_d_eigen", 0, None),
    ("dpase.graphs", "validate_adjacency", "graphs.validate_adjacency", 0, None),
]

# metric name -> (unit, better)
_TOTAL_S = [
    "embedding.top_d_eigen", "embedding.procrustes_align", "classify.loocv_error",
    "privacy.sample_symmetric_noise", "graphs.sample_sbm", "graphs.validate_adjacency",
    "graphs.load_edge_list", "graphs.load_labels", "sweeps.emit_results",
]
_CALLS = [
    "embedding.top_d_eigen", "classify.loocv_error", "privacy.sample_symmetric_noise",
    "graphs.sample_sbm", "graphs.validate_adjacency", "sweeps.plain_ase",
]
_SELF_S = {
    "privacy.dp_ase.self_s": ("privacy.dp_ase",),
    "sweeps.self_s": SWEEP_RUNS,
    "cli.self_s": ("cli.main",),
}
_PEAK = ["classify.loocv_error", "privacy.dp_ase"]
_BY_N = [
    "embedding.top_d_eigen.s", "embedding.procrustes_align.s", "classify.loocv_error.s",
    "privacy.sample_symmetric_noise.s", "graphs.sample_sbm.s",
    "graphs.validate_adjacency.s", "privacy.dp_ase.self_s",
    "classify.loocv_error.peak_n2", "privacy.dp_ase.peak_n2",
]


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    specs = {}
    for name in _TOTAL_S:
        specs[f"{name}.s"] = ("s", "lower")
    for name in _CALLS:
        specs[f"{name}.calls"] = ("count", "lower")
    for name in _SELF_S:
        specs[name] = ("s", "lower")
    for name in _PEAK:
        specs[f"{name}.peak_n2"] = ("n2_f64", "lower")
    specs["graphs.load_edge_list.edges_per_s"] = ("1/s", "higher")
    specs["sweeps.graph_reuse"] = ("ratio", "higher")
    specs["sweeps.plain_reuse"] = ("ratio", "higher")
    for name in _BY_N:
        for n in BY_N_SIZES:
            specs[f"{name}.n{n}"] = specs[name]
    specs["trace.overhead_ratio"] = ("ratio", "lower")
    return specs


def _pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Time, call and reuse metrics of one traced pass, overall and by n."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key: str, value: float, n: int | None) -> None:
        out[key] = out.get(key, 0.0) + value
        if n is not None:
            by_n = f"{key}.n{n}"
            out[by_n] = out.get(by_n, 0.0) + value

    for span in spans:
        if span.name in _TOTAL_S:
            add(f"{span.name}.s", span.duration, span.n)
        if span.name in _CALLS:
            add(f"{span.name}.calls", 1, span.n)
        for metric, names in _SELF_S.items():
            if span.name in names:
                add(metric, own[span.id], span.n)

    edges = sum(s.attrs.get("edges", 0) for s in spans if s.name == "graphs.load_edge_list")
    load_s = out.get("graphs.load_edge_list.s", 0.0)
    out["graphs.load_edge_list.edges_per_s"] = edges / load_s if load_s > 0 else 0.0
    out["sweeps.graph_reuse"] = _reuse(spans, "graphs.sample_sbm", ("graph",))
    out["sweeps.plain_reuse"] = _reuse(spans, "sweeps.plain_ase", ("graph", "d"))
    return out


def _reuse(spans: list[Span], name: str, keys: tuple[str, ...]) -> float:
    """Distinct inputs per call; 1.0 (nothing repeated) when never called."""
    seen = [tuple(s.attrs.get(k) for k in keys) for s in spans if s.name == name]
    return len(set(seen)) / len(seen) if seen else 1.0


def _peak_metrics(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for span in spans:
        if span.name not in _PEAK or not span.n or span.peak_bytes is None:
            continue
        ratio = span.peak_bytes / (8.0 * span.n * span.n)
        keys = [f"{span.name}.peak_n2"]
        if span.n in BY_N_SIZES:
            keys.append(f"{span.name}.peak_n2.n{span.n}")
        for key in keys:
            out[key] = max(out.get(key, 0.0), ratio)
    return out


def per_layer_metrics(spans: list[Span], traced_walls, untraced_walls) -> dict[str, float]:
    """Per-layer metrics: medians over the traced passes, peaks from the ``memory`` pass."""
    runs: dict[str, list[Span]] = {}
    for span in spans:
        runs.setdefault(span.run, []).append(span)
    peaks = _peak_metrics(runs.pop("memory", []))
    per_pass = [_pass_metrics(run_spans) for run_spans in runs.values()]
    out = {}
    for name in metric_specs():
        if name == "trace.overhead_ratio":
            value = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        elif ".peak_n2" in name:
            value = peaks.get(name, 0.0)
        else:
            value = statistics.median(m.get(name, 0.0) for m in per_pass)
        out[name] = value
    return out
