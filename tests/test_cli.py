"""Command-line interface: parsing, config merge, outputs, exit codes."""

import csv
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpase
from conftest import count_walks
from dpase import embedding, load_edge_list, sample_sbm, SbmParams, write_edge_list
from dpase.cli import main, parse_float_list, parse_int_list
from dpase.sweeps import DatasetSource, SimulationSource

SBM_FLAGS = ["--B", "0.3,0.1,0.1,0.2", "--pi", "0.4,0.6"]


def write_fixture_graph(tmp_path, n=24, seed=4):
    params = SbmParams(B=[[0.6, 0.05], [0.05, 0.5]], pi=[0.5, 0.5])
    graph = sample_sbm(params, n, np.random.default_rng(seed))
    edge_path = tmp_path / "graph.edges"
    label_path = tmp_path / "graph.labels"
    write_edge_list(graph.adjacency, edge_path)
    label_path.write_text("".join(f"{v}\n" for v in graph.labels))
    return edge_path, label_path, graph


class TestListParsing:
    def test_single_value(self):
        assert parse_float_list("0.5") == [0.5]

    def test_comma_list(self):
        assert parse_float_list("0.1,0.2,0.3") == [0.1, 0.2, 0.3]

    def test_range_endpoint_on_lattice_included(self):
        assert parse_int_list("1:1:5") == [1, 2, 3, 4, 5]
        values = parse_float_list("0.1:0.2:0.7")
        assert values == pytest.approx([0.1, 0.3, 0.5, 0.7])

    def test_range_endpoint_off_lattice_dropped(self):
        values = parse_float_list("0.001:0.01:0.05")
        assert values == pytest.approx([0.001, 0.011, 0.021, 0.031, 0.041])

    def test_long_range_length(self):
        values = parse_float_list("0.0001:0.002:0.6")
        assert len(values) == 300
        assert values[-1] == pytest.approx(0.5981)

    def test_descending_range(self):
        assert parse_float_list("5:-2:1") == [5.0, 3.0, 1.0]

    def test_json_style_list_passthrough(self):
        assert parse_float_list([0.1, 0.2]) == [0.1, 0.2]

    def test_rejects_malformed_ranges(self):
        with pytest.raises(ValueError):
            parse_float_list("1:2")
        with pytest.raises(ValueError):
            parse_float_list("1:0:5")
        with pytest.raises(ValueError):
            parse_float_list("5:1:1")

    def test_rejects_an_empty_comma_list(self):
        with pytest.raises(ValueError, match="empty list"):
            parse_float_list(",")

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError):
            parse_int_list("1,2.5")


class TestSweepCommands:
    def test_simulate_sweep_n_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["simulate-sweep-n", "--n-list", "30,40", *SBM_FLAGS,
             "--alpha", "0.5", "--delta", "0.01", "--replicates", "2",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["n"]), int(r["replicate"])) for r in rows] == [
            (30, 0), (30, 1), (40, 0), (40, 1)
        ]
        assert all(r["status"] == "ok" for r in rows)
        assert all(int(r["seed"]) == 7 + int(r["replicate"]) for r in rows)

    def test_privacy_grid_with_ranges(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(
            ["privacy-grid", "--n", "30", *SBM_FLAGS,
             "--alpha", "0.4,0.8", "--delta", "0.01:0.04:0.09",
             "--seed", "3", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2 * 3
        assert payload[0]["experiment"] == "privacy-grid"

    def test_dim_sweep_on_dataset(self, tmp_path):
        edges, labels, _ = write_fixture_graph(tmp_path)
        out = tmp_path / "dims.csv"
        code = main(
            ["dim-sweep", "--edge-list", str(edges), "--labels", str(labels),
             "--dim", "1,2", "--alpha", "0.9", "--delta", "0.01",
             "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["d"]) for r in rows] == [1, 2]
        assert all(int(r["n"]) == 24 for r in rows)

    def test_alpha_tradeoff_on_simulation(self, tmp_path):
        out = tmp_path / "alpha.csv"
        code = main(
            ["alpha-tradeoff", "--n", "30", *SBM_FLAGS,
             "--alpha", "0.2,0.8", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["alpha"]) for r in rows] == [0.2, 0.8]
        # delta defaults to 0.01 for this experiment family
        assert all(float(r["delta"]) == 0.01 for r in rows)

    def test_run_twice_is_byte_identical(self, tmp_path):
        args = ["simulate-sweep-n", "--n-list", "30", *SBM_FLAGS,
                "--replicates", "3", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestChecksPerGraph:
    """Symmetry walks per command: a sampled graph and a loaded edge list
    are valid as built and are never walked."""

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_a_simulated_n_sweep_walks_no_graph(self, tmp_path, monkeypatch, n):
        walks = count_walks(monkeypatch)
        assert main(["simulate-sweep-n", "--n-list", f"{n},40", *SBM_FLAGS,
                     "--replicates", "2", "--out", str(tmp_path / "x.csv")]) == 0
        assert walks == []

    def test_a_four_cell_privacy_grid_walks_no_graph(self, tmp_path, monkeypatch):
        walks = count_walks(monkeypatch)
        assert main(["privacy-grid", "--n", "300", *SBM_FLAGS, "--alpha", "0.4,0.8",
                     "--delta", "0.01,0.02", "--out", str(tmp_path / "x.csv")]) == 0
        assert walks == []

    def test_a_loaded_graph_is_walked_by_no_cell(self, tmp_path, monkeypatch):
        edges, labels, _ = write_fixture_graph(tmp_path)
        walks = count_walks(monkeypatch)
        assert main(["alpha-tradeoff", "--edge-list", str(edges), "--labels", str(labels),
                     "--alpha", "0.4,0.8", "--replicates", "2",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert walks == []

    def test_an_embedded_edge_list_is_not_walked(self, tmp_path, monkeypatch):
        edges, _, _ = write_fixture_graph(tmp_path)
        walks = count_walks(monkeypatch)
        for release in ([], ["--alpha", "0.5", "--delta", "0.01"]):
            assert main(["embed", "--edge-list", str(edges), "--dim", "2", *release,
                         "--out", str(tmp_path / "e.csv")]) == 0
        assert walks == []


class TestSweepDispatch:
    """Each sweep subcommand calls its ``dpase.cli.run_*`` name once.

    The name is replaced after import, so these fail if dispatch binds
    the function objects at import time.
    """

    @pytest.mark.parametrize("command, run_name, flags, expected", [
        ("simulate-sweep-n", "run_n_sweep",
         ["--n-list", "30,40", *SBM_FLAGS, "--dim", "3", "--alpha", "0.5",
          "--delta", "0.02", "--k", "2", "--replicates", "4", "--seed", "7"],
         ([30, 40], 3, 0.5, 0.02, 2, 4, 7)),
        ("privacy-grid", "run_privacy_grid",
         ["--n", "30", *SBM_FLAGS, "--alpha", "0.4,0.8", "--delta", "0.01,0.02"],
         (30, 2, [0.4, 0.8], [0.01, 0.02], 3, 1, 0)),
        ("dim-sweep", "run_dim_sweep",
         ["--n", "30", *SBM_FLAGS, "--dim", "1,2", "--seed", "5"],
         (30, [1, 2], 0.1, 0.01, 3, 1, 5)),
        ("alpha-tradeoff", "run_alpha_tradeoff",
         ["--n", "30", *SBM_FLAGS, "--alpha", "0.2,0.8", "--replicates", "2"],
         (30, 2, [0.2, 0.8], 0.01, 3, 2, 0)),
    ])
    def test_simulated_sweep_calls_its_run_function(
        self, tmp_path, monkeypatch, command, run_name, flags, expected
    ):
        calls = []
        monkeypatch.setattr(
            "dpase.cli." + run_name, lambda *args: calls.append(args) or []
        )
        assert main([command, *flags, "--out", str(tmp_path / "x.csv")]) == 0
        assert len(calls) == 1
        source, *rest = calls[0]
        assert isinstance(source, SimulationSource)
        assert np.array_equal(source.params.B, [[0.3, 0.1], [0.1, 0.2]])
        assert np.array_equal(source.params.pi, [0.4, 0.6])
        assert tuple(rest) == expected

    @pytest.mark.parametrize("command, run_name, flags, expected", [
        ("dim-sweep", "run_dim_sweep", ["--dim", "1,2"],
         (24, [1, 2], 0.1, 0.01, 3, 1, 0)),
        ("alpha-tradeoff", "run_alpha_tradeoff", ["--alpha", "0.3", "--n", "99"],
         (24, 2, [0.3], 0.01, 3, 1, 0)),
    ])
    def test_edge_list_sweep_calls_its_run_function(
        self, tmp_path, monkeypatch, command, run_name, flags, expected
    ):
        edges, labels, graph = write_fixture_graph(tmp_path)
        calls = []
        monkeypatch.setattr(
            "dpase.cli." + run_name, lambda *args: calls.append(args) or []
        )
        assert main([command, "--edge-list", str(edges), "--labels", str(labels),
                     *flags, "--out", str(tmp_path / "x.csv")]) == 0
        assert len(calls) == 1
        source, *rest = calls[0]
        assert isinstance(source, DatasetSource)
        assert np.array_equal(source.graph.adjacency, graph.adjacency)
        assert tuple(rest) == expected


class TestEmbedAndClassify:
    def test_embed_plain_writes_one_row_per_vertex(self, tmp_path):
        edges, _, graph = write_fixture_graph(tmp_path)
        out = tmp_path / "embedding.csv"
        assert main(["embed", "--edge-list", str(edges), "--dim", "2",
                     "--out", str(out)]) == 0
        X = np.loadtxt(out, delimiter=",")
        assert X.shape == (graph.n, 2)

    def test_embed_private_is_seed_deterministic(self, tmp_path):
        edges, _, _ = write_fixture_graph(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["embed", "--edge-list", str(edges), "--alpha", "0.5",
                "--delta", "0.01", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_embed_requires_both_privacy_flags(self, tmp_path, capsys):
        edges, _, _ = write_fixture_graph(tmp_path)
        code = main(["embed", "--edge-list", str(edges), "--alpha", "0.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "--delta" in capsys.readouterr().err

    def test_embed_exits_3_when_the_eigensolver_does_not_converge(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(embedding, "_PRODUCTS_PER_ROW", 0.01)  # 10 products at n = 1000
        edges, _, _ = write_fixture_graph(tmp_path, n=1000)
        out = tmp_path / "x.csv"
        assert main(["embed", "--edge-list", str(edges), "--dim", "2",
                     "--out", str(out)]) == 3
        assert "dpase: error: Lanczos eigensolver did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_embed_rejects_a_negative_n_hint(self, tmp_path, capsys):
        edges, _, _ = write_fixture_graph(tmp_path)
        code = main(["embed", "--edge-list", str(edges), "--n-hint", "-1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "graph.edges" in err and "hint" in err and "-1" in err

    def test_classify_reports_loocv_error(self, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        np.savetxt(emb, [[0.0, 0], [0, 1], [5, 5], [5, 6]], delimiter=",")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n1\n2\n2\n")
        code = main(["classify", "--embedding", str(emb),
                     "--labels", str(labels), "--k", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "error_rate": 0.0, "n_evaluated": 4, "k": 1, "chance_error": 0.5,
        }

    def test_classify_writes_file_when_out_given(self, tmp_path):
        emb = tmp_path / "emb.csv"
        np.savetxt(emb, [[0.0, 0], [0, 1], [5, 5], [5, 6]], delimiter=",")
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n1\n2\n2\n")
        out = tmp_path / "report.json"
        assert main(["classify", "--embedding", str(emb), "--labels",
                     str(labels), "--k", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["error_rate"] == 0.0

    def test_embed_round_trips_through_classify(self, tmp_path, capsys):
        edges, labels, _ = write_fixture_graph(tmp_path)
        emb = tmp_path / "emb.csv"
        assert main(["embed", "--edge-list", str(edges), "--out", str(emb)]) == 0
        assert main(["classify", "--embedding", str(emb),
                     "--labels", str(labels)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3
        assert 0.0 <= payload["error_rate"] <= 1.0


class TestConfigMerge:
    def test_config_file_supplies_defaults(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 30, "B": [0.3, 0.1, 0.1, 0.2], "pi": "0.4,0.6",
            "alpha": [0.2, 0.8], "out": str(out),
        }))
        assert main(["alpha-tradeoff", "--config", str(cfg)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["alpha"]) for r in rows] == [0.2, 0.8]

    def test_explicit_flags_beat_config(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 30, "B": [0.3, 0.1, 0.1, 0.2], "pi": [0.4, 0.6],
            "alpha": [0.2], "seed": 1, "out": str(out),
        }))
        assert main(["alpha-tradeoff", "--config", str(cfg),
                     "--alpha", "0.9", "--seed", "42"]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["alpha"]) for r in rows] == [0.9]
        assert int(rows[0]["seed"]) == 42

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["alpha-tradeoff", "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err


class TestFailures:
    def test_missing_required_option(self, tmp_path, capsys):
        code = main(["simulate-sweep-n", "--n-list", "30", "--pi", "0.4,0.6",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "--B" in capsys.readouterr().err

    def test_wrong_B_size(self, tmp_path, capsys):
        code = main(["simulate-sweep-n", "--n-list", "30", "--B", "0.3,0.1",
                     "--pi", "0.4,0.6", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "4 entries" in capsys.readouterr().err

    def test_bad_format_value(self, tmp_path, capsys):
        code = main(["simulate-sweep-n", "--n-list", "30", *SBM_FLAGS,
                     "--format", "xml", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "format" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["embed", "--bogus", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        *[("embed", flag) for flag in ("--k", "--labels", "--replicates", "--format")],
        *[("classify", flag) for flag in ("--seed", "--replicates", "--format")],
        *[(command, "--blocks") for command in (
            "simulate-sweep-n", "privacy-grid", "dim-sweep", "alpha-tradeoff")],
    ])
    def test_options_a_subcommand_does_not_read_exit_2(self, command, flag):
        with pytest.raises(SystemExit) as info:
            main([command, flag, "2"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command, bad, name", [
        ("simulate-sweep-n", {"alpha": None}, "alpha"),
        ("simulate-sweep-n", {"alpha": [0.1]}, "alpha"),
        ("simulate-sweep-n", {"pi": [[0.4], [0.6]]}, "pi"),
        ("alpha-tradeoff", {"dim": None}, "dim"),
        ("alpha-tradeoff", {"seed": None}, "seed"),
        ("alpha-tradeoff", {"k": True, "replicates": True}, "'k'"),
        ("simulate-sweep-n", {"alpha": True}, "alpha"),
        ("alpha-tradeoff", {"alpha": [True, 0.5]}, "'alpha'"),
        ("dim-sweep", {"dim": [2, False]}, "'dim'"),
    ])
    def test_bad_config_value_exits_1_and_names_the_option(
        self, tmp_path, capsys, command, bad, name
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_list" if command == "simulate-sweep-n" else "n": 30,
            "B": [0.3, 0.1, 0.1, 0.2], "pi": [0.4, 0.6], "alpha": 0.5,
            "out": str(tmp_path / "x.csv"), **bad,
        }))
        assert main([command, "--config", str(cfg)]) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["privacy-grid", "--n", "30", "--alpha", "0:1:inf", "--delta", "0.01"], "alpha"),
        (["privacy-grid", "--n", "30", "--alpha", "0.5", "--delta", "0.1:inf:1"], "delta"),
        (["simulate-sweep-n", "--n-list", "inf", "--alpha", "0.5", "--delta", "0.01"],
         "n_list"),
    ])
    def test_non_finite_range_bound_or_integer_names_the_option(
        self, tmp_path, capsys, argv, name
    ):
        code = main([*argv, *SBM_FLAGS, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"dpase: error: bad value for option {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_nan_in_B_exits_1(self, tmp_path, capsys):
        code = main(["privacy-grid", "--n", "30", "--B", "nan,0.1,0.1,0.2", "--pi", "0.5,0.5",
                     "--alpha", "0.5", "--delta", "0.01", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "B entries must lie in [0, 1]" in capsys.readouterr().err

    def test_pi_sum_prints_as_a_plain_float(self, tmp_path, capsys):
        code = main(["privacy-grid", "--n", "30", "--B", "0.3,0.1,0.1,0.2", "--pi", "0.5,0.6",
                     "--alpha", "0.5", "--delta", "0.01", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "dpase: error: pi must sum to 1, got 1.1\n" in capsys.readouterr().err

    def test_config_file_cannot_name_another_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": str(tmp_path / "other.json")}))
        assert main(["alpha-tradeoff", "--config", str(cfg)]) == 1
        assert "unknown option 'config'" in capsys.readouterr().err

    def test_unparsable_flag_value_names_the_option(self, tmp_path, capsys):
        code = main(["privacy-grid", "--n", "abc", *SBM_FLAGS, "--alpha", "0.5",
                     "--delta", "0.01", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "option 'n'" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["alpha-tradeoff", "--config", str(cfg)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["alpha-tradeoff", "--config", str(tmp_path / "no.json")])
        assert code == 1

    def test_labels_required_with_edge_list_sweeps(self, tmp_path, capsys):
        edges, _, _ = write_fixture_graph(tmp_path)
        code = main(["dim-sweep", "--edge-list", str(edges), "--dim", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "--labels" in capsys.readouterr().err

    def test_missing_labels_is_reported_before_reading_the_edge_list(self, tmp_path, capsys):
        code = main(["dim-sweep", "--edge-list", str(tmp_path / "absent.txt"),
                     "--dim", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "missing required option --labels" in err
        assert "cannot read" not in err

    def test_lone_privacy_flag_is_reported_before_reading_the_edge_list(
        self, tmp_path, capsys
    ):
        code = main(["embed", "--edge-list", str(tmp_path / "absent.txt"),
                     "--alpha", "0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "provide both --alpha and --delta" in err
        assert "cannot read" not in err

    def test_mismatched_label_count(self, tmp_path, capsys):
        edges, _, _ = write_fixture_graph(tmp_path)
        labels = tmp_path / "short.labels"
        labels.write_text("1\n2\n")
        code = main(["dim-sweep", "--edge-list", str(edges),
                     "--labels", str(labels), "--dim", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_n_hint_validates_dataset(self, tmp_path):
        edges, labels, _ = write_fixture_graph(tmp_path)
        code = main(["dim-sweep", "--edge-list", str(edges),
                     "--labels", str(labels), "--n-hint", "10",
                     "--dim", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestBlasThreadCount:
    """One and two OpenBLAS threads, under either of two OpenBLAS kernel
    sets, give the same records.

    ``OPENBLAS_CORETYPE`` makes a ``DYNAMIC_ARCH`` OpenBLAS build load the
    kernels of the named core instead of those it detects, so products
    and eigensolves round differently; a build without ``DYNAMIC_ARCH``
    ignores it. It is set only in the child process. kNN errors must be
    equal. Other floats may differ by the 1e-10 relative tolerance that
    the Lanczos and dense paths are held to; the CSV keeps 9 significant
    digits, so such a difference can show as one unit in the last
    printed digit.
    """

    # (OPENBLAS_NUM_THREADS, OPENBLAS_CORETYPE); None leaves the kernels to OpenBLAS.
    CONFIGS = list(itertools.product((1, 2), (None, "Prescott")))

    @staticmethod
    def run_cli(config: tuple[int, str | None], *args) -> None:
        threads, coretype = config
        src = Path(dpase.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        subprocess.run(
            [sys.executable, "-m", "dpase.cli", *map(str, args)],
            env=env, capture_output=True, text=True, check=True,
        )

    @staticmethod
    def close_as_printed(a: float, b: float) -> bool:
        if a == b:
            return True
        last_digit = 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - 8)
        return abs(a - b) <= 1e-10 * max(abs(a), abs(b)) + last_digit

    def test_sweep_records_do_not_depend_on_thread_count(self, tmp_path):
        rows = []
        for i, config in enumerate(self.CONFIGS):
            out = tmp_path / f"config{i}.csv"
            self.run_cli(config, "simulate-sweep-n", "--n-list", 1000,
                         "--replicates", 1, *SBM_FLAGS, "--out", out)
            with open(out, newline="") as fh:
                rows.append(list(csv.DictReader(fh)))
        (one,) = rows[0]
        assert one["status"] == "ok"
        for config, (other,) in zip(self.CONFIGS[1:], rows[1:]):
            assert one.keys() == other.keys(), config
            for column in one:
                if column in ("fnorm", "fnorm_per_vertex"):
                    assert self.close_as_printed(
                        float(one[column]), float(other[column])
                    ), (config, column)
                else:
                    assert one[column] == other[column], (config, column)

    def test_classify_report_does_not_depend_on_thread_count(self, tmp_path):
        rng = np.random.default_rng(17)
        embedding, labels = tmp_path / "embedding.csv", tmp_path / "labels.txt"
        np.savetxt(embedding, rng.integers(-6, 7, size=(1000, 2)), delimiter=",")
        labels.write_text("".join(f"{v}\n" for v in rng.integers(1, 3, size=1000)))
        reports = []
        for i, config in enumerate(self.CONFIGS):
            out = tmp_path / f"config{i}.json"
            self.run_cli(config, "classify", "--embedding", embedding,
                         "--labels", labels, "--out", out)
            reports.append(out.read_text())
        assert reports == [reports[0]] * len(self.CONFIGS)
        assert json.loads(reports[0])["n_evaluated"] == 1000
