"""The names that the benchmark in ``perfbench/`` hooks into must exist.

``perfbench/tracing.py`` times a run by replacing the module attributes
listed in its ``TARGETS``, and ``perfbench/study.py`` swaps
``engine._run_one`` and ``cli.run_replications``, labelling each
``run_replications`` call with the next configured algorithm. A function
renamed or moved out of one of those modules would drop out of traced runs
without any error, so these tests pin the names. Every name a
``perfbench/*.py`` file imports from ``randbo`` or reads off something it
imported from there must resolve too, or the benchmark fails to start.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

from randbo import analysis, cli, engine
from randbo.confidence import Constant, DeterministicUcb, ShiftedExpFinite
from randbo.config import parse_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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
        calls.append((run_cfg.acquisition, type(run_cfg.schedule)))
        return real(sampler, run_cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "run_replications", recording)
    assert cli.run_experiment(config, tmp_path / "out") == 0
    assert calls == [("ei", type(None)), ("ucb", DeterministicUcb)]


def test_counterexample_calls_the_traced_names_per_schedule(tmp_path, monkeypatch):
    # The two-point workload's spans: two slope tests and one summary file per
    # schedule, and the study's labels on run_replications in schedule order.
    config = parse_text("kind = counterexample\nn_reps = 2\n"
                        "counterexample.constants = 0.5, 1\ncounterexample.horizons = 4, 8\n")
    calls, schedules = Counter(), []
    for owner, attr in [(analysis, "regret_slope_test"), (cli, "write_summary_csv"),
                        (cli, "run_replications")]:
        def recording(*args, _real=getattr(owner, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            if _attr == "run_replications":
                schedules.append(args[1].schedule)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, recording)
    assert cli.run_experiment(config, tmp_path / "out") == 0
    assert calls == {"run_replications": 3, "regret_slope_test": 6, "write_summary_csv": 3}
    assert [type(s) for s in schedules] == [Constant, Constant, ShiftedExpFinite]
    assert [s.c for s in schedules[:2]] == [0.5, 1.0]


def _import(module: str, name: str):
    """``from module import name``: an attribute, else a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def _randbo_names(path: Path) -> dict[str, bool]:
    """Each name the file imports from ``randbo`` and each attribute it reads
    off a name so bound (``module.name`` or ``module.name.attr``), mapped to
    whether it resolves."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "randbo":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = (local, importlib.import_module(local))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "randbo":
            for alias in node.names:
                label = f"{node.module}.{alias.name}"
                try:
                    bound[alias.asname or alias.name] = (label, _import(node.module, alias.name))
                    names[label] = True
                except (ImportError, AttributeError):
                    names[label] = False
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in bound):
            label, owner = bound[node.value.id]
            names[f"{label}.{node.attr}"] = hasattr(owner, node.attr)
    return names


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_randbo_names_resolve(path):
    names = _randbo_names(path)
    assert [name for name, ok in names.items() if not ok] == []


def test_perfbench_scan_sees_imports_and_attribute_reads():
    names = _randbo_names(PERFBENCH / "test_perfbench.py")
    assert names["randbo.engine.RunConfig"] and names["randbo.confidence.Constant"]
