"""The names that the benchmark in ``perfbench/`` hooks into must exist.

``perfbench/tracing.py`` times a run by replacing the module attributes
listed in its ``TARGETS``, and ``perfbench/study.py`` swaps
``engine._run_one`` and ``cli.run_replications``, labelling each
``run_replications`` call with the next configured algorithm. A function
renamed or moved out of one of those modules would drop out of traced runs
without any error, so these tests pin the names.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from randbo import cli, engine
from randbo.confidence import DeterministicUcb
from randbo.config import parse_text

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owners, attr, name, _ in tracing.TARGETS:
        for owner in owners:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"


@pytest.mark.parametrize("name", ["write_trace_csv", "write_summary_csv",
                                  "write_bounds_json", "write_manifest"])
def test_wrapped_writers_take_the_path_first(name):
    # The tracer counts a trace file's bytes with os.path.getsize(args[0]).
    first = next(iter(inspect.signature(getattr(cli, name)).parameters.values()))
    assert first.name == "path"
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_study_hooks_exist():
    assert callable(engine._run_one)
    assert cli.run_replications is engine.run_replications


@pytest.mark.parametrize("problem", [
    "kind = synthetic_bcr\ngrid.count = 3\ngrid.dim = 1\n",
    "kind = benchmark\nbenchmark.name = holder_table\ncandidates.count = 20\n",
])
def test_roster_calls_run_replications_per_algorithm_in_order(problem, tmp_path, monkeypatch):
    config = parse_text(problem + "horizon = 3\nn_reps = 1\nalgorithms = ei, gp_ucb\n")
    real, calls = cli.run_replications, []

    def recording(sampler, run_cfg, *args, **kwargs):
        calls.append((run_cfg.acquisition.kind, type(run_cfg.schedule)))
        return real(sampler, run_cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "run_replications", recording)
    assert cli.run_experiment(config, tmp_path / "out") == 0
    assert calls == [("ei", type(None)), ("ucb", DeterministicUcb)]
