"""Command-line interface for embeddings, classification, and sweeps.

Subcommands mirror the experiment families: ``simulate-sweep-n``,
``privacy-grid``, ``dim-sweep``, ``alpha-tradeoff``, plus the one-shot
``embed`` and ``classify`` utilities. The four sweeps share one handler
and differ only in the ``run_*`` function they call and the name of
their size option. They simulate a blockmodel with K = len(``--pi``) blocks,
and ``dim-sweep`` and ``alpha-tradeoff`` can instead run on a fixed graph
given by ``--edge-list`` and ``--labels``. Each subcommand accepts only
the options it reads. Options may also be supplied via a JSON config
file (``--config``); values given as flags win over the file, which wins
over built-in defaults.

List-valued options (``--alpha``, ``--delta``, ``--dim``, ``--n-list``)
accept a single value, a comma list ``a,b,c``, or a colon range
``start:step:end`` whose endpoint is included when it lies on the step
lattice within 1e-12.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .classify import loocv_error
from .embedding import ase
from .graphs import (
    LabeledGraph,
    SbmParams,
    load_edge_list,
    load_labels,
)
from .privacy import PrivacyBudget, dp_ase
from .sweeps import (
    DatasetSource,
    SimulationSource,
    emit_results,
    run_alpha_tradeoff,
    run_dim_sweep,
    run_n_sweep,
    run_privacy_grid,
)

LATTICE_TOL = 1e-12


def _expand_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:step:end, got {text!r}")
    start, step, end = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, step, end))):
        raise ValueError(f"range bounds must be finite, got {text!r}")
    if step == 0:
        raise ValueError("range step must be nonzero")
    span = (end - start) / step
    if span < -LATTICE_TOL:
        raise ValueError(f"empty range {text!r}")
    nearest = round(span)
    if abs(start + nearest * step - end) <= LATTICE_TOL:
        count = nearest
    else:
        count = math.floor(span + LATTICE_TOL)
    return [start + i * step for i in range(count + 1)]


def parse_float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        for v in value:
            if isinstance(v, bool):
                raise ValueError(f"list items must be numbers, got {json.dumps(v)}")
        return [float(v) for v in value]
    text = str(value).strip()
    if ":" in text:
        return _expand_range(text)
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError(f"empty list {value!r}")
    return [float(t) for t in items]


def parse_int_list(value) -> list[int]:
    out = []
    for v in parse_float_list(value):
        if not math.isfinite(v) or abs(v - round(v)) > 1e-9:
            raise ValueError(f"expected integers, got {v!r}")
        out.append(int(round(v)))
    return out


def _conv_int(v) -> int:
    return int(str(v), 10) if not isinstance(v, int) else v


def _conv_format(v) -> str:
    v = str(v)
    if v not in ("csv", "json"):
        raise ValueError(f"--format must be csv or json, got {v!r}")
    return v


# dest -> (converter, default); None default means optional-unless-listed
_SWEEP_OPTS = {
    "seed": (_conv_int, 0),
    "replicates": (_conv_int, 1),
    "format": (_conv_format, "csv"),
    "out": (str, None),
    "k": (_conv_int, 3),
    "B": (parse_float_list, None),
    "pi": (parse_float_list, None),
}

_DATA_OPTS = {
    "edge_list": (str, None),
    "labels": (str, None),
    "n_hint": (_conv_int, None),
}

_SUBCOMMANDS = {
    "simulate-sweep-n": {
        **_SWEEP_OPTS,
        "n_list": (parse_int_list, None),
        "dim": (_conv_int, 2),
        "alpha": (float, 0.1),
        "delta": (float, 0.001),
    },
    "privacy-grid": {
        **_SWEEP_OPTS,
        "n": (_conv_int, None),
        "dim": (_conv_int, 2),
        "alpha": (parse_float_list, None),
        "delta": (parse_float_list, None),
    },
    "dim-sweep": {
        **_SWEEP_OPTS, **_DATA_OPTS,
        "n": (_conv_int, None),
        "dim": (parse_int_list, None),
        "alpha": (float, 0.1),
        "delta": (float, 0.01),
    },
    "alpha-tradeoff": {
        **_SWEEP_OPTS, **_DATA_OPTS,
        "n": (_conv_int, None),
        "dim": (_conv_int, 2),
        "alpha": (parse_float_list, None),
        "delta": (float, 0.01),
    },
    "embed": {
        "seed": (_conv_int, 0),
        "out": (str, None),
        "edge_list": (str, None),
        "n_hint": (_conv_int, None),
        "dim": (_conv_int, 2),
        "alpha": (float, None),
        "delta": (float, None),
    },
    "classify": {
        "out": (str, None),
        "k": (_conv_int, 3),
        "embedding": (str, None),
        "labels": (str, None),
    },
}

_FLAG_HELP = {
    "n_list": "vertex counts to sweep (list or start:step:end)",
    "n": "vertex count (simulated graphs)",
    "dim": "embedding dimension(s)",
    "alpha": "privacy parameter alpha (list allowed where swept)",
    "delta": "privacy parameter delta (list allowed where swept)",
    "k": "neighbor count for kNN",
    "replicates": "Monte Carlo replicates per cell",
    "seed": "base seed; replicate r uses seed + r",
    "out": "output file path",
    "format": "output format: csv or json",
    "B": "row-major comma list of the K x K block probability matrix",
    "pi": "comma list of block membership probabilities (K = its length)",
    "edge_list": "edge-list file ('u v' per line, '#' comments)",
    "labels": "label file (one class id per line)",
    "n_hint": "declared vertex count for the edge list",
    "embedding": "embedding CSV (one row per vertex)",
    "config": "JSON file of option defaults; explicit flags win",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpase",
        description="Differentially private spectral embedding experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, options in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(command, argument_default=argparse.SUPPRESS)
        for dest in ("config", *options):
            flag = "--" + dest.replace("_", "-")
            sub.add_argument(flag, dest=dest, type=str, help=_FLAG_HELP.get(dest))
    return parser


def _resolve_options(command: str, given: dict) -> dict:
    table = _SUBCOMMANDS[command]
    merged = {dest: default for dest, (_, default) in table.items()}
    config_path = given.pop("config", None)
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in table:
                raise ValueError(f"unknown option {key!r} in config file")
            if value is None or isinstance(value, bool):
                raise ValueError(f"option {key!r} in config file must not be {json.dumps(value)}")
            merged[key] = value
    merged.update(given)
    out = {}
    for dest, (converter, _) in table.items():
        try:
            out[dest] = None if merged[dest] is None else converter(merged[dest])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for option {dest!r}: {exc}") from exc
    return out


def _require(opts: dict, *names: str) -> None:
    for name in names:
        if opts.get(name) is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"missing required option {flag}")


def _sbm_params(opts: dict) -> SbmParams:
    _require(opts, "B", "pi")
    pi = np.array(opts["pi"])
    K = len(pi)
    flat = np.array(opts["B"])
    if flat.size != K * K:
        raise ValueError(f"--B needs {K * K} entries for K={K}, got {flat.size}")
    return SbmParams(B=flat.reshape(K, K), pi=pi)


def _load_dataset(opts: dict) -> LabeledGraph:
    _require(opts, "labels")
    adjacency = load_edge_list(opts["edge_list"], n_hint=opts.get("n_hint"))
    labels = load_labels(opts["labels"], adjacency.shape[0])
    return LabeledGraph(adjacency=adjacency, labels=labels)


def _cmd_sweep(run, size: str, opts: dict) -> int:
    """Run one sweep family; ``size`` names its vertex-count option.

    ``--edge-list`` (where the subcommand accepts it) selects a fixed
    graph; otherwise the graph is simulated from ``--B``/``--pi`` at the
    size option.
    """
    _require(opts, "dim", "alpha", "delta", "out")
    if opts.get("edge_list") is not None:
        data = _load_dataset(opts)
        source, n = DatasetSource(data), data.n
    else:
        _require(opts, size)
        source, n = SimulationSource(_sbm_params(opts)), opts[size]
    records = run(
        source, n, opts["dim"], opts["alpha"], opts["delta"],
        opts["k"], opts["replicates"], opts["seed"],
    )
    emit_results(records, opts["format"], opts["out"])
    return 0


def _cmd_embed(opts: dict) -> int:
    _require(opts, "edge_list", "out")
    if (opts["alpha"] is None) != (opts["delta"] is None):
        raise ValueError("provide both --alpha and --delta, or neither for a plain embedding")
    adjacency = load_edge_list(opts["edge_list"], n_hint=opts.get("n_hint"))
    if opts["alpha"] is None:
        positions = ase(adjacency, opts["dim"])
    else:
        budget = PrivacyBudget(opts["alpha"], opts["delta"])
        rng = np.random.default_rng(opts["seed"])
        positions = dp_ase(adjacency, opts["dim"], budget, rng)
    np.savetxt(opts["out"], positions, delimiter=",", fmt="%.17g")
    return 0


def _cmd_classify(opts: dict) -> int:
    _require(opts, "embedding", "labels")
    positions = np.loadtxt(opts["embedding"], delimiter=",", ndmin=2)
    labels = load_labels(opts["labels"], len(positions))
    report = loocv_error(positions, labels, opts["k"])
    payload = json.dumps(dataclasses.asdict(report), indent=2)
    if opts["out"]:
        with open(opts["out"], "w", newline="\n") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


# The lambdas look the run_* names up when called, not at import, so a
# wrapper installed on dpase.cli.run_* (for tracing or tests) is honoured.
_HANDLERS = {
    "simulate-sweep-n": lambda opts: _cmd_sweep(run_n_sweep, "n_list", opts),
    "privacy-grid": lambda opts: _cmd_sweep(run_privacy_grid, "n", opts),
    "dim-sweep": lambda opts: _cmd_sweep(run_dim_sweep, "n", opts),
    "alpha-tradeoff": lambda opts: _cmd_sweep(run_alpha_tradeoff, "n", opts),
    "embed": _cmd_embed,
    "classify": _cmd_classify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    given = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        opts = _resolve_options(args.command, given)
        return _HANDLERS[args.command](opts)
    except (ValueError, OSError) as exc:
        print(f"dpase: error: {exc}", file=sys.stderr)
        # A failed eigensolve is a ValueError too, but not the input's fault.
        return 3 if isinstance(exc, np.linalg.LinAlgError) else 1


if __name__ == "__main__":
    sys.exit(main())
