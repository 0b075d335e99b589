"""Tests of the benchmark's own logic. Run with ``python3 -m pytest perfbench``."""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from randbo import acquisition, analysis, cli, confidence, engine  # noqa: E402
from randbo.engine import RunConfig  # noqa: E402
from randbo.errors import NumericalError  # noqa: E402

from gate import Gate, unit_record  # noqa: E402
from study import Recorder, Unit, end_to_end, tail_percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _two_point_traces(n_reps=3, horizon=20, seed=5, sampler=None):
    sampler = sampler or analysis.counterexample_instance(0.0)
    cfg = RunConfig(kernel=analysis.counterexample_instance(0.0).kernel, horizon=horizon,
                    schedule=confidence.Constant(1.0), noise_variance=1.0)
    return cli.run_replications(sampler, cfg, n_reps, seed)


def _workload(label="c", sampled=False):
    return SimpleNamespace(labels=(label,), sampled=frozenset({label} if sampled else ()))


def test_tail_percentile_leaves_ten_samples_beyond():
    rng = random.Random(0)
    for n in (11, 12, 57, 100, 240, 1000):
        xs = rng.sample(range(10 * n), n)
        pct, value, count = tail_percentile(xs)
        ranked = sorted(xs)
        assert count == n
        assert sum(x > value for x in xs) == 10
        # nearest rank of pct is the value's rank; one rank higher leaves 9 beyond
        assert ranked[int(np.ceil(pct / 100 * n)) - 1] == value
        assert pct == pytest.approx(100 * (n - 10) / n)
    assert tail_percentile(list(range(1, 101)))[:2] == (90.0, 90)
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)


def test_self_time_subtracts_direct_children_of_nested_spans():
    #   a [0, 10] -> b [1, 4] -> c [2, 3];  a -> d [5, 7]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    dur, own = self_times(start, end, parent)
    assert dur.tolist() == [10.0, 3.0, 1.0, 2.0]
    assert own.tolist() == [5.0, 2.0, 1.0, 2.0]


def test_tracer_records_nesting_and_self_time_of_wrapped_calls():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = tracer.wrap("gp.leaf", leaf)

    def outer():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.01)

    tracer.call("engine.outer", outer)
    by_name, layers = tracer.summary()
    assert by_name["gp.leaf"][0] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    calls, total, own = by_name["engine.outer"]
    assert own == pytest.approx(total - by_name["gp.leaf"][1])
    assert 0.009 < own < total
    assert layers["engine"] + layers["gp"] == pytest.approx(total)


def test_tracer_replaces_the_names_engine_calls_and_restores_them():
    tracer = Tracer(label_of=lambda: "c")
    originals = (engine._run_one, engine.run_bo, engine.ucb_scores, acquisition.rff_features)
    with tracer.installed():
        _two_point_traces(n_reps=2, horizon=5)
    names = set(tracer.names[i] for i in tracer.name_id)
    assert {"engine.replication", "bench.instance_draw", "engine.run_bo",
            "confidence.next_confidence", "acquisition.score",
            "gp.incremental_update", "gp.kernel_matrix"} <= names
    assert (engine._run_one, engine.run_bo, engine.ucb_scores,
            acquisition.rff_features) == originals
    assert [r[:2] for r in tracer.reps] == [("c", 5), ("c", 5)]
    m = tracer.layer_metrics(0.0)
    assert m["confidence.next_confidence.calls"] == 5
    assert m["gp.kernel_matrix.repeat_ratio"] > 0.5


class _FailingSampler:
    """Two-point instances, except replication 1 raises NumericalError."""

    def __call__(self, rep, rng):
        if rep == 1:
            raise NumericalError("injected")
        return analysis.counterexample_instance(0.0)(rep, rng)


def test_failed_rep_frac_counts_the_replication_that_raised():
    recorder = Recorder()
    with recorder.installed():
        recorder.begin_unit(["c"])
        with pytest.warns(UserWarning, match="replication 1 failed"):
            _two_point_traces(n_reps=4, horizon=10, sampler=_FailingSampler())
    unit = Unit(0, 1.0, False, recorder.samples, {"c": 30})
    gate = Gate(_workload(), {0: unit_record(recorder.traces)})
    gate.check_unit(0, recorder.traces)
    metrics, info = end_to_end([unit], gate, peak_rss_mb=1.0)
    assert (info["replications"], info["failed_replications"]) == (4, 1)
    assert info["failed_rep_frac"] == 0.25
    assert metrics["rep_ok_frac"] == 0.75
    assert [tr.horizon for tr in recorder.traces["c"]] == [10, 10, 10]


def test_gate_rejects_a_perturbed_selection_sequence():
    traces = _two_point_traces()
    reference = {0: unit_record({"c": traces})}
    gate = Gate(_workload(), reference)
    gate.check_unit(0, {"c": traces})
    assert gate.errors == []

    flipped = traces[1].selected_index.copy()
    flipped[7] = 1 - flipped[7]
    perturbed = [traces[0], dataclasses.replace(traces[1], selected_index=flipped), traces[2]]
    gate = Gate(_workload(), reference)
    gate.check_unit(0, {"c": perturbed})
    assert gate.errors == ["unit 0: c selections differ from the reference"]


def test_gate_band_rejects_shifted_regret_of_sampled_algorithms():
    traces = _two_point_traces(n_reps=6)
    reference = {0: unit_record({"c": traces})}
    gate = Gate(_workload(sampled=True), reference)
    gate.check_unit(0, {"c": traces})
    gate.check_bands()
    assert gate.errors == [] and gate.regret_ratio() == 1.0

    shifted = [dataclasses.replace(tr, cumulative_regret=tr.cumulative_regret + 100.0)
               for tr in traces]
    gate = Gate(_workload(sampled=True), reference)
    gate.check_unit(0, {"c": shifted})  # digests are not checked for sampled labels
    assert gate.errors == []
    gate.check_bands()
    assert len(gate.errors) == 1 and "outside" in gate.errors[0]


def test_benchmark_json_declares_what_the_benchmark_reports():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert [d["name"] for d in SPEC["per_layer"]] == list(Tracer().layer_metrics(0.0))
    unit = Unit(0, 1.0, False, [("c", 0.1, False)] * 11, {"c": 11})
    metrics, _ = end_to_end([unit], Gate(_workload(), {}), peak_rss_mb=1.0)
    assert {d["name"] for d in SPEC["end_to_end"]} == set(metrics) | {"setup_s"}
    bounds = {d["name"]: d["bound"] for d in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two_point", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
