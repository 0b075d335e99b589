"""Experiment configuration: a flat text format of dotted keys.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Values are integers, finite reals, booleans (true/false), bare
strings, or comma-separated lists of reals, of integers or of names, each
entry checked like a scalar of its kind and kept as written. A list has at
least one entry, and a list of names no entry twice. Unknown keys
are rejected with a nearest-match suggestion; validation reports every
problem at once, not just the first.

Algorithm names are declared once, in ``ALGORITHMS``; kernel families and
benchmark names come from the modules that implement them. A key's
``required_by`` names the kinds, algorithms or keys that need it.
"""

from __future__ import annotations

import difflib
import math
import sys
from dataclasses import dataclass, field

from . import bench, confidence, gp
from .errors import ConfigurationError

KINDS = (
    "synthetic_bcr",
    "conditional_regret",
    "benchmark",
    "tabular",
    "counterexample",
    "lemma_check",
    "bound_sweep",
)

# Each algorithm and the confidence schedule it builds from (config, |X|, d)
# for UCB selection; None marks an acquisition that takes no schedule.
ALGORITHMS = {
    "gp_ucb": lambda c, m, d: confidence.DeterministicUcb(m, c["gp_ucb.delta"]),
    "rgp_ucb": lambda c, m, d: confidence.GammaRandomized(m, c["rgp_ucb.theta"]),
    "irgp_ucb": lambda c, m, d: confidence.ShiftedExpFinite(m),
    "irgp_ucb_high_prob": lambda c, m, d: confidence.ShiftedExpHighProb(
        m, c["irgp_ucb_high_prob.delta"]),
    "irgp_ucb_continuous": lambda c, m, d: confidence.ShiftedExpContinuous(
        c["irgp_ucb_continuous.a"], c["irgp_ucb_continuous.b"], c["irgp_ucb_continuous.r"], d),
    "gp_ucb_heuristic": lambda c, m, d: confidence.HeuristicUcb(d),
    "irgp_ucb_heuristic": lambda c, m, d: confidence.HeuristicShiftedExp(d),
    "constant_ucb": lambda c, m, d: confidence.Constant(c["constant_ucb.value"]),
    "ei": None, "ts": None, "pims": None,
}


def _parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Each scalar kind: the test a value must pass, and its name in messages.
_SCALAR = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "integer"),
    # A float's range: no nan or infinity, and no integer too large to convert.
    "real": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
             and abs(v) <= sys.float_info.max, "finite real number"),
    "bool": (lambda v: isinstance(v, bool), "true/false"),
    "str": (lambda v: isinstance(v, str), "name"),
}
# The list kinds and the scalar kind of their entries.
_ENTRY_KIND = {"ints": "int", "reals": "real", "names": "str"}


@dataclass(frozen=True)
class _Key:
    """One schema entry: how to coerce, check, and default a config key."""

    name: str
    kind: str  # int | real | bool | str | ints | reals | names
    default: object = None
    choices: tuple | dict | None = None
    minimum: float | None = None
    exclusive_min: float | None = None
    exclusive_max: float | None = None
    required_by: tuple = ()  # kinds, algorithms or keys that need this key

    def coerce(self, value, errors: list[str]):
        """The checked value, or None once its problems are in ``errors``.

        A scalar is held as its kind: a name as text, a real as float. Each
        list entry passes the same checks but is kept as written, so
        ``0.5, 1, 2`` keeps its ``1`` in labels and in the serialized config.
        A list needs at least one entry, and a list of names distinct ones.
        """
        if self.kind in _ENTRY_KIND:
            items = value if isinstance(value, list) else [value]
            fine = [self._check(_ENTRY_KIND[self.kind], v, errors) for v in items]
            problems = [] if items else ["expected at least one entry"]
            if self.kind == "names":
                repeats = dict.fromkeys(v for i, v in enumerate(items) if v in items[:i])
                problems += [f"{v!r} is listed more than once" for v in repeats]
            errors.extend(f"{self.name}: {p}" for p in problems)
            return items if all(fine) and not problems else None
        if self.kind == "str":
            value = str(value)
        if not self._check(self.kind, value, errors):
            return None
        return float(value) if self.kind == "real" else value

    def _check(self, kind: str, value, errors: list[str]) -> bool:
        """Whether ``value`` is a valid scalar of ``kind``; if not, says why."""
        fits, expected = _SCALAR[kind]
        if not fits(value):
            problem = f"expected {expected}, got {value!r}"
        elif self.choices is not None and value not in self.choices:
            problem = f"{value!r} is not one of {sorted(self.choices)}"
        elif self.minimum is not None and value < self.minimum:
            problem = f"{value!r} is below the minimum {self.minimum}"
        elif self.exclusive_min is not None and value <= self.exclusive_min:
            problem = f"{value!r} must be above {self.exclusive_min}"
        elif self.exclusive_max is not None and value >= self.exclusive_max:
            problem = f"{value!r} must be below {self.exclusive_max}"
        else:
            return True
        errors.append(f"{self.name}: {problem}")
        return False


SCHEMA: dict[str, _Key] = {
    k.name: k
    for k in [
        _Key("kind", "str", choices=KINDS),
        _Key("horizon", "int", default=200, minimum=1),
        _Key("n_reps", "int", default=100, minimum=1),
        _Key("base_seed", "int", default=0, minimum=0),
        _Key("n_jobs", "int", default=1, minimum=1),
        _Key("output", "str", default=None),
        _Key("overwrite", "bool", default=False),
        _Key("noise_variance", "real", default=None, exclusive_min=0.0),
        _Key("noise_stddev", "real", default=None, minimum=0.0),
        _Key("kernel.family", "str", default="squared_exponential",
             choices=gp.KERNEL_FAMILIES),
        _Key("kernel.lengthscale", "reals", default=[0.1]),
        _Key("kernel.signal_variance", "real", default=1.0),
        _Key("grid.low", "real", default=0.0),
        _Key("grid.high", "real", default=0.9),
        _Key("grid.count", "int", default=10, minimum=1),
        _Key("grid.dim", "int", default=3, minimum=1),
        _Key("algorithms", "names", default=["irgp_ucb"], choices=ALGORITHMS),
        _Key("acquisition.num_features", "int", default=2000, minimum=1),
        _Key("candidates.count", "int", default=2000, minimum=1),
        _Key("initial.count", "int", default=1, minimum=0),
        _Key("gp_ucb.delta", "real", default=0.1, exclusive_min=0.0, exclusive_max=1.0),
        _Key("rgp_ucb.theta", "real", default=1.0, minimum=0.0),
        _Key("constant_ucb.value", "real", default=1.0),
        _Key("irgp_ucb_high_prob.delta", "real", default=0.1, exclusive_min=0.0, exclusive_max=1.0),
        _Key("irgp_ucb_continuous.a", "real", required_by=("irgp_ucb_continuous",)),
        _Key("irgp_ucb_continuous.b", "real", required_by=("irgp_ucb_continuous",)),
        _Key("irgp_ucb_continuous.r", "real", default=1.0),
        _Key("refit.period", "int", default=None, minimum=1),
        _Key("refit.lengthscales", "reals", required_by=("refit.period",)),
        _Key("refit.signal_variances", "reals", default=[1.0]),
        _Key("benchmark.name", "str", choices=bench.BENCHMARKS, required_by=("benchmark",)),
        _Key("benchmark.dim", "int", default=None, minimum=1),
        _Key("tabular.path", "str", required_by=("tabular",)),
        _Key("tabular.objective", "str", required_by=("tabular",)),
        _Key("counterexample.rho", "real", default=0.0),
        _Key("counterexample.constants", "reals", default=[0.5, 1.0, 2.0]),
        _Key("counterexample.horizons", "ints", default=[250, 1000], minimum=1),
        _Key("conditional.n_sequences", "int", default=1, minimum=1),
        _Key("conditional.delta", "real", default=0.1, exclusive_min=0.0, exclusive_max=1.0),
        _Key("lemma.n_configs", "int", default=50, minimum=1),
        _Key("lemma.n_mc", "int", default=100000, minimum=100),
        _Key("lemma.max_grid", "int", default=50, minimum=2),
        _Key("lemma.max_data", "int", default=20, minimum=0),
        _Key("bounds.horizons", "ints", default=[100, 200, 400], minimum=1),
        _Key("bounds.deltas", "reals", default=[0.05, 0.1, 0.2]),
        _Key("bounds.domain_size", "int", default=1000, minimum=2),
        _Key("bounds.gamma", "real", default=10.0, minimum=0.0),
        _Key("bounds.a", "real", default=2.0),
        _Key("bounds.b", "real", default=1.0),
        _Key("bounds.r", "real", default=1.0),
        _Key("bounds.dim", "int", default=3, minimum=1),
    ]
}

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with every key resolved."""

    kind: str
    values: dict = field(repr=False)

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def horizon(self) -> int:
        return self.values["horizon"]

    @property
    def n_reps(self) -> int:
        return self.values["n_reps"]

    @property
    def base_seed(self) -> int:
        return self.values["base_seed"]

    @property
    def n_jobs(self) -> int:
        return self.values["n_jobs"]

    @property
    def algorithms(self) -> list[str]:
        return list(self.values["algorithms"])

    @property
    def noise_variance(self) -> float:
        return self.values["noise_variance"]

    @property
    def noise_stddev(self) -> float:
        return self.values["noise_stddev"]


def parse_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse and validate configuration text; collect every error."""
    errors: list[str] = []
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            errors.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        if "," in value:
            raw[key] = [_parse_scalar(v.strip()) for v in value.split(",") if v.strip()]
        else:
            raw[key] = _parse_scalar(value)

    values: dict[str, object] = {}
    for key, value in raw.items():
        spec = SCHEMA.get(key)
        if spec is None:
            hint = difflib.get_close_matches(key, SCHEMA.keys(), n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            errors.append(f"unknown key {key!r}{suggestion}")
            continue
        coerced = spec.coerce(value, errors)
        if coerced is not None:
            values[key] = coerced

    for name, spec in SCHEMA.items():
        if name not in values and spec.default is not None:
            values.setdefault(name, spec.default)
    # contextual defaults: the two-point instance family runs with unit
    # noise, everything else with the small-variance default
    kind = values.get("kind")
    if values.get("noise_variance") is None:
        values["noise_variance"] = 1.0 if kind == "counterexample" else 1e-4
    if values.get("noise_stddev") is None:
        values["noise_stddev"] = math.sqrt(values["noise_variance"])

    if "kind" not in values:
        errors.append("kind: required key is missing")
    # What can need a key: the kind, each algorithm, and each key given a value.
    needs = {kind: "kind", **dict.fromkeys(values.get("algorithms", []), "algorithm"),
             **{k: "key" for k, v in values.items() if v is not None}}
    for spec in SCHEMA.values():
        need = next((n for n in spec.required_by if n in needs), None)
        if need is not None and values.get(spec.name) is None:
            errors.append(f"{spec.name}: required by {needs[need]} {need!r}")

    _raise_on(errors)
    return ExperimentConfig(kind=values["kind"], values=values)


def _raise_on(errors: list[str]) -> None:
    if errors:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(sorted(errors)))


def override(config: ExperimentConfig, **values) -> ExperimentConfig:
    """The config with the given keys replaced, each value checked by its
    schema entry as a file's would be; a value of None leaves its key."""
    errors: list[str] = []
    merged = dict(config.values)
    for key, value in values.items():
        if value is not None:
            merged[key] = SCHEMA[key].coerce(value, errors)
    _raise_on(errors)
    return ExperimentConfig(kind=config.kind, values=merged)


def parse_config(path) -> ExperimentConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_text(text, source=str(path))


def serialize_config(config: ExperimentConfig) -> str:
    """Render a config back to the flat text format (round-trips exactly)."""
    lines = []
    for key in sorted(config.values):
        value = config.values[key]
        if value is None:
            continue
        if isinstance(value, list):
            rendered = ", ".join(_render_scalar(v) for v in value)
        else:
            rendered = _render_scalar(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
