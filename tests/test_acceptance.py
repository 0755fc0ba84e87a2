"""End-to-end acceptance checks.

Each test records one ``[acceptance] criterion N: PASS/FAIL`` line,
printed in a dedicated section of the pytest terminal summary, then
asserts. Criterion 9 needs a user-supplied dataset and reports SKIP
when the environment variables below are unset.
"""

import os
from collections import defaultdict

import numpy as np
import pytest
import scipy.stats

import oracles
from conftest import acceptance_lines
from dpase import (
    DatasetSource,
    LabeledGraph,
    PrivacyBudget,
    SbmParams,
    SimulationSource,
    ase,
    calibrate_noise,
    load_edge_list,
    load_labels,
    loocv_error,
    procrustes_align,
    run_alpha_tradeoff,
    run_n_sweep,
    run_privacy_grid,
    sample_block_labels,
    sample_symmetric_noise,
    top_d_eigen,
)
from dpase.cli import main

BASE_SEED = 20250814
B_TWO_BLOCK = np.array([[0.3, 0.1], [0.1, 0.2]])
PI_TWO_BLOCK = [0.4, 0.6]

POLBLOGS_EDGE_ENV = "DPASE_POLBLOGS_EDGELIST"
POLBLOGS_LABEL_ENV = "DPASE_POLBLOGS_LABELS"


def _report(criterion: int, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    acceptance_lines.append(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert passed, f"criterion {criterion}: {detail}"


def sim_source() -> SimulationSource:
    return SimulationSource(SbmParams(B=B_TWO_BLOCK, pi=PI_TWO_BLOCK))


def test_criterion_1_noise_calibration_exactness():
    scale = calibrate_noise(1000, 2, PrivacyBudget(0.1, 0.001))
    gap = abs(scale.beta_sq - 0.184876)
    _report(1, gap <= 1e-5, f"beta_sq={scale.beta_sq!r}, |gap|={gap:.2e}")


def test_criterion_2_mechanism_statistics():
    n, beta_sq = 500, 0.25
    E = sample_symmetric_noise(n, beta_sq, np.random.default_rng(BASE_SEED)).dense()
    symmetric = np.array_equal(E, E.T)
    upper = E[np.triu_indices(n, k=1)]
    stat = float((upper**2).sum() / beta_sq)
    lo = scipy.stats.chi2.ppf(0.005, upper.size)
    hi = scipy.stats.chi2.ppf(0.995, upper.size)
    in_band = lo <= stat <= hi
    _report(
        2,
        symmetric and upper.size == 124750 and in_band,
        f"m={upper.size}, chi2 stat={stat:.1f}, band=[{lo:.1f}, {hi:.1f}], "
        f"symmetric={symmetric}",
    )


def test_criterion_3_eigensolver_oracle():
    rng = np.random.default_rng(BASE_SEED)
    worst_root_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        G = rng.normal(size=(n, n))
        M = (G + G.T) / 2
        pairs = top_d_eigen(M, n)
        expected = oracles.magnitude_sort(oracles.sym_eigvals(M))
        worst_root_gap = max(
            worst_root_gap, float(np.abs(pairs.values - expected).max())
        )
    small_ok = worst_root_gap <= 1e-10

    worst_residual = 0.0
    worst_trace_gap = 0.0
    for _ in range(20):
        G = rng.normal(size=(100, 100))
        M = (G + G.T) / 2
        pairs = top_d_eigen(M, 100)
        residuals = np.linalg.norm(
            M @ pairs.vectors - pairs.vectors * pairs.values, axis=0
        )
        worst_residual = max(worst_residual, float(residuals.max() / np.linalg.norm(M)))
        worst_trace_gap = max(
            worst_trace_gap, abs(float(pairs.values.sum()) - float(np.trace(M)))
        )
    large_ok = worst_residual <= 1e-8 and worst_trace_gap <= 1e-8
    _report(
        3,
        small_ok and large_ok,
        f"root gap={worst_root_gap:.2e}, residual/||A||={worst_residual:.2e}, "
        f"trace gap={worst_trace_gap:.2e}",
    )


def test_criterion_4_ase_exact_recovery():
    n = 200
    params = SbmParams(B=B_TWO_BLOCK, pi=PI_TWO_BLOCK)
    labels = sample_block_labels(params, n, np.random.default_rng(BASE_SEED))
    idx = labels - 1
    P = B_TWO_BLOCK[np.ix_(idx, idx)]
    w, V = np.linalg.eigh(B_TWO_BLOCK)
    truth = (V * np.sqrt(w))[idx]
    distance = procrustes_align(ase(P, 2), truth).aligned_distance
    _report(4, distance <= 1e-8, f"procrustes distance={distance:.2e}")


def test_criterion_5_simulation_convergence():
    n_list = [100, 500, 1000, 2000]
    records = run_n_sweep(sim_source(), n_list, 2, 0.1, 0.001, 3, 10, BASE_SEED)
    per_n = defaultdict(lambda: defaultdict(list))
    for r in records:
        assert r.status == "ok", r
        per_n[r.n]["fnorm_v"].append(r.fnorm_per_vertex)
        per_n[r.n]["dp"].append(r.error_dp)
        per_n[r.n]["ase"].append(r.error_ase)
    fnorm_means = [float(np.mean(per_n[n]["fnorm_v"])) for n in n_list]
    decreasing = all(a > b for a, b in zip(fnorm_means, fnorm_means[1:]))
    dp_2000 = float(np.mean(per_n[2000]["dp"]))
    ase_2000 = float(np.mean(per_n[2000]["ase"]))
    errors_ok = dp_2000 <= 0.05 and abs(dp_2000 - ase_2000) <= 0.05
    _report(
        5,
        decreasing and errors_ok,
        f"fnorm/vertex means={[round(v, 4) for v in fnorm_means]}, "
        f"err_dp(2000)={dp_2000:.4f}, err_ase(2000)={ase_2000:.4f}",
    )


def test_criterion_6_privacy_grid_monotonicity():
    records = run_privacy_grid(
        sim_source(), 300, 2, [0.001, 0.05], [0.0001, 0.6], 3, 20, BASE_SEED
    )
    cells = defaultdict(list)
    for r in records:
        assert r.status == "ok", r
        cells[(r.alpha, r.delta)].append(r.error_dp)
    loosest = float(np.mean(cells[(0.05, 0.6)]))
    tightest = float(np.mean(cells[(0.001, 0.0001)]))
    ok = loosest <= tightest - 0.05 or (loosest <= 0.05 and tightest <= 0.05)
    _report(6, ok, f"loosest corner={loosest:.4f}, tightest corner={tightest:.4f}")


def test_criterion_7_knn_oracle_equivalence():
    rng = np.random.default_rng(BASE_SEED)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(7, 31))
        d = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        points = rng.normal(size=(n, d))
        labels = rng.integers(1, 4, size=n)
        mine = loocv_error(points, labels, k).error_rate
        if mine != oracles.brute_loocv_error(points, labels, k):
            mismatches += 1
    _report(7, mismatches == 0, f"{mismatches} mismatches over 100 instances")


def test_criterion_8_determinism(tmp_path):
    sweep_args = [
        "simulate-sweep-n", "--n-list", "40,60", "--B", "0.3,0.1,0.1,0.2",
        "--pi", "0.4,0.6", "--replicates", "3", "--seed", str(BASE_SEED),
    ]
    grid_args = [
        "privacy-grid", "--n", "50", "--B", "0.3,0.1,0.1,0.2", "--pi", "0.4,0.6",
        "--alpha", "0.1,0.5", "--delta", "0.01", "--replicates", "2",
        "--seed", str(BASE_SEED), "--format", "json",
    ]
    identical = True
    for args, name in ((sweep_args, "sweep"), (grid_args, "grid")):
        first = tmp_path / f"{name}1.out"
        second = tmp_path / f"{name}2.out"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        identical = identical and first.read_bytes() == second.read_bytes()
    _report(8, identical, "CSV and JSON reruns compared byte for byte")


def test_criterion_9_real_data_reproduction():
    edge_path = os.environ.get(POLBLOGS_EDGE_ENV)
    label_path = os.environ.get(POLBLOGS_LABEL_ENV)
    if not edge_path or not label_path:
        acceptance_lines.append(
            f"[acceptance] criterion 9: SKIP (set {POLBLOGS_EDGE_ENV} and "
            f"{POLBLOGS_LABEL_ENV} to a local copy of the dataset)"
        )
        pytest.skip("dataset not supplied")
    n = sum(
        1
        for line in open(label_path)
        if line.strip() and not line.lstrip().startswith("#")
    )
    adjacency = load_edge_list(edge_path, n_hint=n)
    labels = load_labels(label_path, n)
    data = LabeledGraph(adjacency=adjacency, labels=labels)

    plain = loocv_error(ase(data.adjacency, 2), data.labels, 3).error_rate
    records = run_alpha_tradeoff(
        DatasetSource(data), data.n, 2, [0.251], 0.01, 3, 5, BASE_SEED
    )
    private = float(np.mean([r.error_dp for r in records]))
    ok = abs(plain - 0.180) <= 0.03 and abs(private - 0.189) <= 0.04
    _report(
        9, ok, f"n={data.n}, error_ase={plain:.4f} (target 0.180+-0.03), "
        f"error_dp={private:.4f} (target 0.189+-0.04)"
    )
