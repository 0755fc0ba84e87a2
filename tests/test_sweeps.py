"""Sweep runners: ordering, seeding, failure tagging, and emission."""

import csv
import itertools
import json
import math
import weakref
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse.linalg
import scipy.stats

from conftest import traced_peak
from dpase import (
    CSV_COLUMNS,
    DatasetSource,
    SbmParams,
    SimulationSource,
    SweepRecord,
    emit_results,
    run_alpha_tradeoff,
    run_dim_sweep,
    run_n_sweep,
    run_privacy_grid,
    sample_sbm,
)
from dpase import classify, embedding, privacy, sweeps


def sim_source() -> SimulationSource:
    return SimulationSource(SbmParams(B=[[0.3, 0.1], [0.1, 0.2]], pi=[0.4, 0.6]))


def fixed_source(n: int = 60, seed: int = 0) -> DatasetSource:
    return DatasetSource(sample_sbm(sim_source().params, n, np.random.default_rng(seed)))


class TestSeedingAndOrdering:
    def test_record_seed_is_base_plus_replicate(self):
        records = run_n_sweep(sim_source(), [30, 40], 2, 0.5, 0.01, 3, 3, base_seed=100)
        for record in records:
            assert record.seed == 100 + record.replicate

    def test_rows_enumerate_lists_left_to_right_with_replicate_innermost(self):
        records = run_privacy_grid(
            sim_source(), 30, 2, [0.5, 1.0], [0.01, 0.1], 3, 2, 0
        )
        expected = [
            (alpha, delta, rep)
            for alpha in (0.5, 1.0)
            for delta in (0.01, 0.1)
            for rep in (0, 1)
        ]
        assert [(r.alpha, r.delta, r.replicate) for r in records] == expected

    def test_every_cell_appears_once_per_replicate(self):
        records = run_privacy_grid(
            sim_source(), 30, 2, [0.3, 0.6, 0.9], [0.01, 0.2], 3, 4, 7
        )
        counts = defaultdict(int)
        for r in records:
            counts[(r.alpha, r.delta, r.replicate)] += 1
        assert len(counts) == 3 * 2 * 4
        assert set(counts.values()) == {1}

    def test_permuting_sweep_lists_permutes_rows_but_not_results(self):
        kwargs = dict(n=40, d=2, k=3, replicates=2, base_seed=5)
        fwd = run_privacy_grid(
            sim_source(), kwargs["n"], kwargs["d"], [0.3, 0.9], [0.01, 0.3],
            kwargs["k"], kwargs["replicates"], kwargs["base_seed"],
        )
        rev = run_privacy_grid(
            sim_source(), kwargs["n"], kwargs["d"], [0.9, 0.3], [0.3, 0.01],
            kwargs["k"], kwargs["replicates"], kwargs["base_seed"],
        )
        key = lambda r: (r.alpha, r.delta, r.replicate)
        assert {key(r): r for r in fwd} == {key(r): r for r in rev}

    def test_error_ase_constant_across_cells_within_a_replicate(self):
        records = run_privacy_grid(
            sim_source(), 50, 2, [0.2, 0.5, 1.0], [0.01, 0.1], 3, 3, 11
        )
        per_replicate = defaultdict(set)
        for r in records:
            per_replicate[r.replicate].add(r.error_ase)
        for rep, values in per_replicate.items():
            assert len(values) == 1, rep

    def test_rerun_is_identical(self):
        a = run_n_sweep(sim_source(), [30], 2, 0.5, 0.01, 3, 3, 9)
        b = run_n_sweep(sim_source(), [30], 2, 0.5, 0.01, 3, 3, 9)
        assert a == b

    def test_rejects_empty_lists_and_bad_replicates(self):
        with pytest.raises(ValueError):
            run_n_sweep(sim_source(), [], 2, 0.5, 0.01, 3, 1, 0)
        with pytest.raises(ValueError):
            run_n_sweep(sim_source(), [30], 2, 0.5, 0.01, 3, 0, 0)


class TestRecordContents:
    def test_metric_relationships(self):
        records = run_n_sweep(sim_source(), [40], 2, 0.5, 0.01, 3, 2, 0)
        for r in records:
            assert r.status == "ok"
            assert 0.0 <= r.error_dp <= 1.0
            assert 0.0 <= r.error_ase <= 1.0
            assert r.fnorm >= 0.0
            assert r.fnorm_per_vertex == r.fnorm / math.sqrt(r.n)

    def test_vanishing_noise_matches_plain_pipeline(self):
        records = run_n_sweep(sim_source(), [60, 120], 2, 1e6, 0.001, 3, 2, 3)
        for r in records:
            assert abs(r.error_dp - r.error_ase) <= 0.01

    def test_degenerate_grid_matches_n_sweep(self):
        grid = run_privacy_grid(sim_source(), 50, 2, [0.4], [0.02], 3, 2, 21)
        line = run_n_sweep(sim_source(), [50], 2, 0.4, 0.02, 3, 2, 21)
        for g, s in zip(grid, line):
            assert (g.error_dp, g.error_ase, g.fnorm) == (s.error_dp, s.error_ase, s.fnorm)

    def test_single_alpha_tradeoff_matches_grid_column(self):
        tradeoff = run_alpha_tradeoff(sim_source(), 50, 2, [0.4], 0.02, 3, 2, 21)
        grid = run_privacy_grid(sim_source(), 50, 2, [0.4], [0.02], 3, 2, 21)
        for t, g in zip(tradeoff, grid):
            assert (t.error_dp, t.error_ase, t.fnorm) == (g.error_dp, g.error_ase, g.fnorm)


class TestFailureTagging:
    def test_unsatisfiable_calibration_is_tagged_and_isolated(self):
        # d/delta <= 1 cannot produce a positive noise variance; the
        # cell is tagged and its neighbors still compute.
        records = run_privacy_grid(sim_source(), 30, 2, [0.5], [0.01, 2.0], 3, 1, 0)
        by_delta = {r.delta: r for r in records}
        assert by_delta[2.0].status == "calibration_error"
        assert by_delta[2.0].error_dp is None
        assert by_delta[2.0].fnorm is None
        assert by_delta[0.01].status == "ok"

    def test_invalid_budget_is_tagged(self):
        records = run_alpha_tradeoff(sim_source(), 30, 2, [-1.0, 0.5], 0.01, 3, 1, 0)
        by_alpha = {r.alpha: r for r in records}
        assert by_alpha[-1.0].status == "invalid_cell"
        assert by_alpha[0.5].status == "ok"

    def test_dimension_beyond_n_is_tagged_per_cell(self):
        records = run_dim_sweep(sim_source(), 20, [2, 50], 0.5, 0.01, 3, 1, 0)
        by_d = {r.d: r for r in records}
        assert by_d[2].status == "ok"
        assert by_d[50].status == "invalid_cell"

    def test_lanczos_non_convergence_is_tagged_and_isolated(self, monkeypatch):
        # The private solve at n = 1000 fails to converge; the n = 1100
        # cell and both plain references still compute. Each n has one
        # cell, whose plain reference is solved before its private matrix,
        # so the solves are told apart by their order per n.
        real = scipy.sparse.linalg.eigsh
        solves = defaultdict(list)

        def flaky(M, **kwargs):
            n = M.shape[0]
            solves[n].append("plain" if not solves[n] else "private")
            if n == 1000 and solves[n][-1] == "private":
                raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])
            return real(M, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", flaky)
        records = run_n_sweep(sim_source(), [1000, 1100], 2, 0.5, 0.01, 3, 1, 0)
        assert solves == {1000: ["plain", "private"], 1100: ["plain", "private"]}
        by_n = {r.n: r for r in records}
        assert by_n[1000].status == "eigen_error"
        assert by_n[1000].error_dp is None
        assert by_n[1000].fnorm is None
        assert by_n[1100].status == "ok"
        assert by_n[1100].error_dp is not None

    def test_a_failed_shared_solve_fails_only_its_own_cells(self, monkeypatch):
        # eigsh fails for k = 4 only. The plain d = 4 solve that the d = 2
        # cells would slice fails, so they solve d = 2 on their own.
        real = scipy.sparse.linalg.eigsh
        solves = []

        def flaky(M, **kwargs):
            solves.append(kwargs["k"])
            if kwargs["k"] == 4:
                raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])
            return real(M, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", flaky)
        n = embedding.LANCZOS_MIN_N
        records = run_dim_sweep(fixed_source(n=n), n, [2, 4], 0.5, 0.01, 3, 2, 0)
        # First replicate: the shared plain d = 4 (fails), plain d = 2 and
        # private d = 2; the d = 4 cell raises the kept failure. The second
        # replicate reuses both plain results and solves only private d = 2.
        assert solves == [4, 2, 2, 2]
        assert [(r.d, r.status) for r in records] == [
            (2, "ok"), (2, "ok"), (4, "eigen_error"), (4, "eigen_error"),
        ]
        assert all(r.error_ase is not None for r in records if r.d == 2)

    def test_a_dimension_beyond_n_never_becomes_the_shared_solve(self, monkeypatch):
        plain = TestReuse.count_calls(monkeypatch, "ase")
        records = run_dim_sweep(fixed_source(n=40), 40, [2, 50], 0.5, 0.01, 3, 1, 0)
        assert [args[1] for args in plain] == [2, 50]
        assert [(r.d, r.status) for r in records] == [(2, "ok"), (50, "invalid_cell")]

    def test_dataset_size_mismatch_is_tagged(self):
        records = run_dim_sweep(fixed_source(n=40), 99, [2], 0.5, 0.01, 3, 1, 0)
        assert records[0].status == "invalid_cell"

    def test_alpha_outside_float_range_is_a_calibration_error(self):
        records = run_alpha_tradeoff(sim_source(), 30, 2, [math.inf, 0.5], 0.01, 3, 1, 0)
        assert [r.status for r in records] == ["calibration_error", "ok"]

    @pytest.mark.parametrize("module, name", [
        (classify, "_nearest_k"), (sweeps, "procrustes_align"),
    ])
    def test_a_plain_value_error_from_a_bug_escapes_the_sweep(
        self, monkeypatch, module, name
    ):
        # Only range, calibration and eigensolver errors describe a cell;
        # any other ValueError is a fault and must not become a record.
        def planted(*args, **kwargs):
            raise ValueError("planted bug")

        monkeypatch.setattr(module, name, planted)
        with pytest.raises(ValueError, match="planted bug"):
            run_privacy_grid(sim_source(), 30, 2, [0.5], [0.01], 3, 1, 0)


class TestTightCorner:
    def test_lanczos_cell_agrees_with_the_dense_solve(self, monkeypatch):
        # alpha = delta = 0.001 at n = 1000: the wanted eigenpairs sit near
        # the noise bulk, where ARPACK needs the most restarts. The packed
        # Lanczos solve must match a dense decomposition of the same matrix.
        solves = []
        real = scipy.sparse.linalg.eigsh

        def counted(*args, **kwargs):
            solves.append(kwargs["k"])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)

        def run():
            private, real_dp_ase = [], sweeps.dp_ase

            def spy(*args):
                private.append(real_dp_ase(*args))
                return private[-1]

            with monkeypatch.context() as patch:
                patch.setattr(sweeps, "dp_ase", spy)
                (record,) = run_n_sweep(sim_source(), [1000], 2, 0.001, 0.001, 3, 1, 0)
            return record, private[0]

        record, X = run()
        assert solves == [2, 2]  # the plain reference and the private matrix
        monkeypatch.setattr(embedding, "LANCZOS_MIN_N", 10**9)
        dense_record, X_dense = run()
        assert solves == [2, 2]
        assert record.status == dense_record.status == "ok"
        assert np.abs(X - X_dense).max() <= 1e-10 * np.abs(X_dense).max()
        assert record.error_dp == dense_record.error_dp
        assert record.error_ase == dense_record.error_ase
        assert record.fnorm == pytest.approx(dense_record.fnorm, rel=1e-10)


class TestDatasetSource:
    def test_plain_error_constant_across_replicates(self):
        records = run_alpha_tradeoff(fixed_source(), 60, 2, [0.3, 0.8], 0.01, 3, 4, 0)
        assert len({r.error_ase for r in records}) == 1

    def test_noise_still_varies_across_replicates(self):
        records = run_alpha_tradeoff(fixed_source(), 60, 2, [0.3], 0.01, 3, 4, 0)
        assert len({r.error_dp for r in records}) > 1 or len({r.fnorm for r in records}) > 1

    def test_cells_of_one_replicate_scale_one_shared_draw(self, monkeypatch):
        # Cell c's noise is beta_c Z with one standard-normal Z per
        # replicate, so on a fixed graph two cells' releases A + beta_c Z
        # give back A exactly (README, "Notes on the privacy guarantee").
        draws = []
        real = privacy.sample_symmetric_noise

        def spy(n, scale, rng):
            noise = real(n, scale, rng)
            draws.append((math.sqrt(scale.beta_sq), noise.data.copy()))
            return noise

        monkeypatch.setattr(privacy, "sample_symmetric_noise", spy)
        run_alpha_tradeoff(fixed_source(), 60, 2, [0.3, 0.8], 0.01, 3, 1, 0)
        (beta_1, noise_1), (beta_2, noise_2) = draws
        assert beta_1 / beta_2 == pytest.approx(0.8 / 0.3, rel=1e-12)
        ratio = noise_1 * beta_2 / (noise_2 * beta_1)
        assert np.abs(ratio - 1).max() <= 4 * np.finfo(float).eps


class TestReuse:
    @staticmethod
    def count_calls(monkeypatch, name: str) -> list:
        calls = []
        original = getattr(sweeps, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sweeps, name, counted)
        return calls

    def test_simulated_grid_draws_and_embeds_each_replicate_once(self, monkeypatch):
        samples = self.count_calls(monkeypatch, "sample_sbm")
        plain = self.count_calls(monkeypatch, "ase")
        records = run_privacy_grid(sim_source(), 40, 2, [0.5, 1.0], [0.01, 0.1], 3, 3, 0)
        assert len(records) == 12
        assert len(samples) == 3
        assert len(plain) == 3

    def test_dataset_dim_sweep_solves_the_largest_dimension_once(self, monkeypatch):
        plain = self.count_calls(monkeypatch, "ase")
        records = run_dim_sweep(fixed_source(), 60, [2, 5], 0.5, 0.01, 3, 3, 0)
        assert [r.status for r in records] == ["ok"] * 6
        assert [args[1] for args in plain] == [5]

    def test_a_sliced_dense_reference_equals_its_own_solve(self):
        # For half the spectrum or more the full dense decomposition runs,
        # and the leading columns of the d = 8 solve are the d = 6 solve
        # bit for bit, so the d = 6 records do not change.
        nested = run_dim_sweep(fixed_source(n=12), 12, [8, 6], 0.5, 0.01, 3, 2, 0)
        alone = run_dim_sweep(fixed_source(n=12), 12, [6], 0.5, 0.01, 3, 2, 0)
        assert [r.status for r in nested] == ["ok"] * 4
        assert [r for r in nested if r.d == 6] == alone

    def assert_sliced_like_its_own_solve(self, monkeypatch, n):
        source = fixed_source(n=n)
        alone = run_dim_sweep(source, n, [2], 0.5, 0.01, 3, 1, 0)
        plain = self.count_calls(monkeypatch, "ase")
        nested = run_dim_sweep(source, n, [2, 10], 0.5, 0.01, 3, 1, 0)
        assert [args[1] for args in plain] == [10]
        assert [r.status for r in nested] == ["ok", "ok"]
        # The d = 2 cell's reference is the d = 10 solve's leading columns,
        # which differ from a d = 2 solve by rounding only.
        (record,), (own,) = [r for r in nested if r.d == 2], alone
        assert record.error_ase == own.error_ase
        assert record.error_dp == own.error_dp
        assert record.fnorm == pytest.approx(own.fnorm, rel=1e-10)

    def test_a_lanczos_sweep_slices_every_reference_from_one_solve(self, monkeypatch):
        self.assert_sliced_like_its_own_solve(monkeypatch, embedding.LANCZOS_MIN_N)

    def test_a_two_ended_sweep_slices_every_reference_from_one_solve(self, monkeypatch):
        self.assert_sliced_like_its_own_solve(monkeypatch, 60)

    def test_a_simulated_graph_is_freed_before_the_next_is_drawn(self, monkeypatch):
        drawn = []

        def sample(*args):
            assert all(ref() is None for ref in drawn)
            graph = sample_sbm(*args)
            drawn.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(sweeps, "sample_sbm", sample)
        records = run_n_sweep(sim_source(), [30, 40], 2, 0.5, 0.01, 3, 2, 0)
        assert len(drawn) == 4
        assert [r.status for r in records] == ["ok"] * 4

    def test_a_failed_plain_solve_does_not_keep_its_graph(self, monkeypatch):
        drawn = []

        def sample(*args):
            assert all(ref() is None for ref in drawn)
            graph = sample_sbm(*args)
            drawn.append(weakref.ref(graph))
            return graph

        def failing(A, d):
            try:
                raise RuntimeError("no convergence")
            except RuntimeError as exc:
                raise np.linalg.LinAlgError("plain solve failed") from exc

        monkeypatch.setattr(sweeps, "sample_sbm", sample)
        monkeypatch.setattr(sweeps, "ase", failing)
        records = run_n_sweep(sim_source(), [30, 40], 2, 0.5, 0.01, 3, 2, 0)
        assert len(drawn) == 4
        assert [r.status for r in records] == ["eigen_error"] * 4


class TestMemory:
    def test_n_sweep_holds_the_graph_beside_one_float_matrix(self):
        # The 1-byte graph (0.125 n^2 float64) beside one n x n float64
        # buffer, A + E or the plain embedding's copy of A, plus row-block
        # temporaries: about 1.26 n^2. A float64 graph beside A + E is 2.1.
        n = 1000
        peak = traced_peak(lambda: run_n_sweep(sim_source(), [n], 2, 0.1, 0.001, 3, 1, 0))
        assert peak <= 1.35 * n * n * 8


class TestTrends:
    def test_privacy_grid_corner_ordering(self):
        records = run_privacy_grid(
            sim_source(), 150, 2, [0.001, 0.5], [0.0001, 0.5], 3, 5, 0
        )
        cells = defaultdict(list)
        for r in records:
            cells[(r.alpha, r.delta)].append(r.error_dp)
        loosest = np.mean(cells[(0.5, 0.5)])
        tightest = np.mean(cells[(0.001, 0.0001)])
        assert loosest < tightest - 0.05

    def test_error_decreases_as_alpha_grows(self):
        alphas = [0.02, 0.05, 0.1, 0.3, 1.0]
        records = run_alpha_tradeoff(sim_source(), 150, 2, alphas, 0.01, 3, 5, 0)
        per_alpha = defaultdict(list)
        for r in records:
            per_alpha[r.alpha].append(r.error_dp)
        means = [np.mean(per_alpha[a]) for a in alphas]
        rho = scipy.stats.spearmanr(alphas, means).statistic
        assert rho <= -0.8

    def test_true_rank_dimension_wins_on_average(self):
        records = run_dim_sweep(sim_source(), 150, [2, 10], 0.5, 0.01, 3, 20, 0)
        per_d = defaultdict(list)
        for r in records:
            per_d[r.d].append(r.error_ase)
        assert np.mean(per_d[2]) <= np.mean(per_d[10])


class TestEmitResults:
    def make_records(self):
        return run_n_sweep(sim_source(), [30], 2, 0.5, 0.01, 3, 2, 0)

    def test_empty_stream_gives_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_header_and_row_count(self, tmp_path):
        path = tmp_path / "out.csv"
        records = self.make_records()
        emit_results(records, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,n,d,alpha,delta,k,replicate,seed,error_dp,error_ase,fnorm,fnorm_per_vertex,status"
        assert len(lines) == 1 + len(records)

    def test_round_trip_recovers_values_at_nine_digits(self, tmp_path):
        records = self.make_records()
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        emit_results(records, "csv", csv_path)
        emit_results(records, "json", json_path)
        with open(csv_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads(json_path.read_text())
        for record, crow, jrow in zip(records, csv_rows, json_rows):
            for field in ("error_dp", "error_ase", "fnorm", "fnorm_per_vertex"):
                want = float(format(getattr(record, field), ".9g"))
                assert float(crow[field]) == want
                assert jrow[field] == want
            assert int(crow["n"]) == jrow["n"] == record.n
            assert crow["status"] == jrow["status"] == "ok"

    def test_failed_cells_serialize_as_empty_and_null(self, tmp_path):
        record = SweepRecord(
            experiment="privacy-grid", n=10, d=2, alpha=0.5, delta=2.0,
            k=3, replicate=0, seed=0, status="calibration_error",
        )
        csv_path = tmp_path / "fail.csv"
        json_path = tmp_path / "fail.json"
        emit_results([record], "csv", csv_path)
        emit_results([record], "json", json_path)
        row = csv_path.read_text().splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("error_dp")] == ""
        assert row[CSV_COLUMNS.index("fnorm")] == ""
        assert row[-1] == "calibration_error"
        payload = json.loads(json_path.read_text())[0]
        assert payload["error_dp"] is None
        assert payload["status"] == "calibration_error"

    def test_row_order_matches_sweep_order(self, tmp_path):
        records = run_privacy_grid(sim_source(), 30, 2, [0.9, 0.3], [0.2, 0.05], 3, 2, 0)
        path = tmp_path / "order.csv"
        emit_results(records, "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        seen = [(float(r["alpha"]), float(r["delta"]), int(r["replicate"])) for r in rows]
        expected = [
            (a, dv, rep)
            for a, dv, rep in itertools.product([0.9, 0.3], [0.2, 0.05], [0, 1])
        ]
        assert seen == expected

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_results([], "xml", tmp_path / "out.xml")
