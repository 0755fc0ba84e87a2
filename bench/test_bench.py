"""Self-test of the benchmark harness at tiny sizes.

Run with ``python -m pytest bench``. It checks that the traced run puts
every wrapped function back, that self times fit in the wall time of
their pass, that failures are counted, and that every printed metric
is declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [p for p in (str(BENCH.parent / "src"), str(BENCH)) if p not in sys.path]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, instrument, self_times  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = [
    workloads.NSweep(n_list=(40, 60, 80), warmup_n=(20, 30)),
    workloads.Grid(n=40, replicates=2),
    workloads.EdgeList(n=60, dims=(2, 3, 5), warmup_n=30),
]


def _targets():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in layers.TARGETS}


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]}
    assert declared == layers.metric_specs()


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_timed_run_prints_every_end_to_end_metric(workload, tmp_path):
    tally, metrics, detail = run.measure(workload, 5, 0.01, False, tmp_path / "work")
    assert tally.failed == 0, tally.problems
    assert tally.attempted == len(workload.steps(tmp_path, 5)) * detail["passes"]
    assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    for name, metric in metrics.items():
        assert np.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_restores_wrappers_and_self_times_fit(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path / "out")
    originals = _targets()
    tally, metrics, detail = run.measure(workload, 5, 0.01, True, tmp_path / "work")
    assert _targets() == originals
    assert tally.failed == 0, tally.problems
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}

    dump = json.loads((tmp_path / "out" / f"spans-{workload.name}-seed5.json").read_text())
    spans = [Span(**s) for s in dump["spans"]]
    own = self_times(spans)
    for k, wall in enumerate(dump["meta"]["traced_walls_s"]):
        in_pass = [s for s in spans if s.run == f"traced-{k}"]
        assert in_pass and sum(own[s.id] for s in in_pass) <= wall
    assert metrics["embedding.top_d_eigen.calls"]["value"] > 0
    assert metrics["classify.loocv_error.peak_n2"]["value"] > 0


def test_wrappers_are_restored_after_an_error():
    originals = _targets()
    with pytest.raises(RuntimeError):
        with instrument(Recorder(), layers.TARGETS):
            assert _targets() != originals
            raise RuntimeError("boom")
    assert _targets() == originals


def test_a_missing_target_is_an_error_and_the_others_are_restored():
    originals = _targets()
    targets = [*layers.TARGETS, ("dpase.sweeps", "no_such_layer", "x", None, None)]
    with pytest.raises(AttributeError):
        with instrument(Recorder(), targets):
            pass
    assert _targets() == originals


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, None, "r", "root", 0.0, 10.0),
        Span(1, 0, "r", "a", 1.0, 4.0),
        Span(2, 0, "r", "b", 3.0, 5.0),  # overlaps a
        Span(3, 0, "r", "c", 9.0, 12.0),  # runs past the parent's end
        Span(4, 1, "r", "d", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_nested_spans_keep_the_outer_peak():
    recorder = Recorder()
    tracemalloc.start()
    try:
        with recorder.span("outer") as outer:
            with recorder.span("inner") as inner:
                block = np.ones(500_000)
                del block
            small = np.ones(100_000)
            del small
    finally:
        tracemalloc.stop()
    assert inner.peak_bytes >= 4_000_000
    assert outer.peak_bytes >= inner.peak_bytes


def test_failed_commands_and_checks_are_counted(tmp_path):
    out = tmp_path / "x.txt"
    ok = workloads.Outcome()
    steps = [
        workloads.Step(["classify"], (), lambda: ok),  # misses required options
        workloads.Step(["noop"], (out,), lambda: workloads.Outcome(["bad output"])),
        workloads.Step(["noop"], (tmp_path / "missing.csv",), lambda: 1 / 0),
        workloads.Step(["noop"], (out,), lambda: ok),
    ]
    tally = run.Tally()
    out.write_text("first")
    run.verify(steps, [run._call(steps[0].argv), 0, 0, 0], tally)
    assert (tally.attempted, tally.failed) == (4, 3)
    out.write_text("second")
    run.verify(steps[3:], [0], tally)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert any("differs from the first pass" in p for p in tally.problems)


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
