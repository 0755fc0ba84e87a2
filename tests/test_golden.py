"""Golden sweep outputs: every sweep's CSV and JSON compared byte for byte.

The files under ``tests/golden/`` pin the exact output of small
configurations of all four sweeps, on simulated and dataset sources,
with several replicates and every failure tag a sweep can produce
without a failing eigensolver. Regenerate them only for a deliberate
output change, by running this file as a script::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from dpase import (
    DatasetSource,
    SbmParams,
    SimulationSource,
    emit_results,
    run_alpha_tradeoff,
    run_dim_sweep,
    run_n_sweep,
    run_privacy_grid,
    sample_sbm,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
FORMATS = ("csv", "json")

PARAMS = SbmParams(B=[[0.3, 0.1], [0.1, 0.2]], pi=[0.4, 0.6])
SIMULATED = SimulationSource(PARAMS)
DATASET = DatasetSource(sample_sbm(PARAMS, 60, np.random.default_rng(4)))

# name -> (sweep, positional arguments after the source)
CASES = {
    # n=3 is too small for leave-one-out with k=3: invalid_cell. n=1000
    # draws its graph and noise on two threads and solves by Lanczos.
    "n_sweep_simulated": (run_n_sweep, ([3, 30, 45, 1000], 2, 0.5, 0.01, 3, 2, 7)),
    # A dataset of 60 vertices asked for 50: invalid_cell.
    "n_sweep_dataset": (run_n_sweep, ([60, 50], 2, 0.5, 0.01, 3, 2, 8)),
    # delta=2.0 gives d/delta=1: calibration_error, also at alpha=-1;
    # alpha=-1 with delta=0.01 is an invalid budget: invalid_cell.
    "privacy_grid_simulated": (
        run_privacy_grid, (40, 2, [0.5, -1.0, 2.0], [0.01, 2.0], 3, 2, 11)
    ),
    "privacy_grid_dataset": (
        run_privacy_grid, (60, 2, [0.5, 1.0], [0.01, 0.1], 3, 2, 12)
    ),
    # d=50 exceeds n=30: invalid_cell.
    "dim_sweep_simulated": (run_dim_sweep, (30, [2, 3, 50], 0.5, 0.01, 3, 2, 13)),
    "dim_sweep_dataset": (run_dim_sweep, (60, [1, 2, 4], 0.5, 0.01, 3, 3, 14)),
    "alpha_tradeoff_simulated": (
        run_alpha_tradeoff, (36, 2, [0.2, -1.0, 2.0], 0.05, 3, 2, 15)
    ),
    "alpha_tradeoff_dataset": (
        run_alpha_tradeoff, (60, 2, [0.3, 1.0], 0.05, 3, 3, 16)
    ),
}


def _source(name: str):
    return DATASET if name.endswith("_dataset") else SIMULATED


def _emit(name: str, fmt: str, path: Path) -> None:
    sweep, args = CASES[name]
    emit_results(sweep(_source(name), *args), fmt, path)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_output_matches_golden_bytes(name, fmt, tmp_path):
    path = tmp_path / f"{name}.{fmt}"
    _emit(name, fmt, path)
    assert path.read_bytes() == (GOLDEN_DIR / path.name).read_bytes()


def test_golden_files_cover_every_status():
    statuses = set()
    for name in CASES:
        text = (GOLDEN_DIR / f"{name}.csv").read_text().splitlines()[1:]
        statuses.update(line.rsplit(",", 1)[1] for line in text)
    assert statuses == {"ok", "calibration_error", "invalid_cell"}


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for fmt in FORMATS:
            _emit(case, fmt, GOLDEN_DIR / f"{case}.{fmt}")
