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
from pathlib import Path

import pytest

from randbo import cli, engine
from randbo.confidence import DeterministicUcb
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
        calls.append((run_cfg.acquisition.kind, type(run_cfg.schedule)))
        return real(sampler, run_cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "run_replications", recording)
    assert cli.run_experiment(config, tmp_path / "out") == 0
    assert calls == [("ei", type(None)), ("ucb", DeterministicUcb)]


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
