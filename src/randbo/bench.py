"""Problem generators.

Synthetic instances drawn from the surrogate prior on a finite grid and
CSV ingestion of tabular measurement data, both ``FiniteInstance``s, and
analytic benchmark functions on continuous domains (negated so every
problem is a maximization) as ``ContinuousInstance``s on the unit cube.

Each benchmark's function, domain and optimum are one ``BENCHMARKS``
entry; the config schema takes its benchmark names from that table.

A synthetic study redraws the objective on one grid per replication. The
grid's prior Gram is factored once per process (``gp.prior_data``), so
each draw is one mat-vec of that factor with fresh standard normals, bit
for bit what ``gp.sample_prior`` returns for the same generator. A grid too
large for that cache is drawn through ``gp.sample_prior`` itself.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gp
from .engine import ContinuousInstance, FiniteInstance
from .errors import ConfigurationError, DomainError, IngestionError
from .rng import as_generator


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned product grid over a box."""

    axes: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.axes:
            raise ConfigurationError("grid needs at least one axis")
        frozen = []
        for ax in self.axes:
            a = np.asarray(ax, dtype=float).copy()
            if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a)):
                raise ConfigurationError("grid axes must be non-empty finite vectors")
            a.setflags(write=False)
            frozen.append(a)
        object.__setattr__(self, "axes", tuple(frozen))

    @classmethod
    def uniform(cls, low: float, high: float, count: int, dim: int) -> "GridSpec":
        """Equally divided points in [low, high], replicated over ``dim`` axes."""
        if count < 1 or dim < 1:
            raise ConfigurationError("count and dim must be >= 1")
        axis = np.linspace(low, high, count)
        return cls(tuple(axis for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def size(self) -> int:
        return int(np.prod([ax.size for ax in self.axes]))

    def points(self) -> np.ndarray:
        """All grid points, shape (size, dim), first axis varying slowest."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def make_synthetic_instance(kernel: gp.Kernel, grid: GridSpec, noise_stddev: float,
                            seed) -> FiniteInstance:
    """Finite instance whose objective is one prior draw over the grid.

    The draw uses the grid's cached prior factor when the cache can hold
    it and equals ``gp.sample_prior(kernel, grid.points(), seed)``.
    """
    pts = grid.points()
    prior = gp.prior_data(kernel, pts, factor=True)
    if prior is None:
        values = gp.sample_prior(kernel, pts, seed)
    else:
        values = prior.factor @ as_generator(seed).standard_normal(pts.shape[0])
    return FiniteInstance(pts, values, noise_stddev)


@dataclass(frozen=True)
class SyntheticInstanceSampler:
    """Draws a fresh prior-sample objective on the same grid per replication.

    Every replication shares the grid's cached prior factor. Each call
    draws; a roster of algorithms wraps the sampler in
    ``engine.SharedInstanceSampler`` so that each replication's instance
    is drawn once and shared by the algorithms.
    """

    kernel: gp.Kernel
    grid: GridSpec
    noise_stddev: float

    def __call__(self, rep: int, rng: np.random.Generator) -> FiniteInstance:
        return make_synthetic_instance(self.kernel, self.grid, self.noise_stddev, rng)


# ---------------------------------------------------------------------------
# Analytic benchmark functions (maximization orientation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkInfo:
    evaluate: Callable[[np.ndarray], float]  # the function on its own domain
    default_dim: int
    fixed_dim: bool
    domain_low: float
    domain_high: float
    optimum_value: float


def _holder_table(x: np.ndarray) -> float:
    r = math.hypot(x[0], x[1])
    return abs(math.sin(x[0]) * math.cos(x[1]) * math.exp(abs(1.0 - r / math.pi)))


def _cross_in_tray(x: np.ndarray) -> float:
    r = math.hypot(x[0], x[1])
    inner = abs(math.sin(x[0]) * math.sin(x[1]) * math.exp(abs(100.0 - r / math.pi)))
    return 0.0001 * (inner + 1.0) ** 0.1


def _ackley(x: np.ndarray) -> float:
    a, b, c = 20.0, 0.2, 2.0 * math.pi
    d = x.shape[0]
    term1 = -a * math.exp(-b * math.sqrt(np.mean(x * x)))
    term2 = -math.exp(np.mean(np.cos(c * x)))
    return -(term1 + term2 + a + math.e)


BENCHMARKS = {
    "holder_table": BenchmarkInfo(_holder_table, 2, True, -10.0, 10.0, 19.20850256788675),
    "cross_in_tray": BenchmarkInfo(_cross_in_tray, 2, True, -10.0, 10.0, 2.0626118708227397),
    "ackley": BenchmarkInfo(_ackley, 4, False, -32.768, 32.768, 0.0),
}


def benchmark_function(name: str, x) -> float:
    """Evaluate a benchmark objective (negated standard form, so bigger is better)."""
    if name not in BENCHMARKS:
        raise ConfigurationError(f"unknown benchmark {name!r}; expected one of {sorted(BENCHMARKS)}")
    info = BENCHMARKS[name]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if info.fixed_dim and x.shape[0] != info.default_dim:
        raise DomainError(f"{name} is defined on {info.default_dim} dimensions")
    if np.any(x < info.domain_low) or np.any(x > info.domain_high):
        raise DomainError(
            f"{name} domain is [{info.domain_low}, {info.domain_high}]^{x.shape[0]}"
        )
    return float(info.evaluate(x))


@dataclass(frozen=True)
class _UnitCubeObjective:
    """Benchmark objective reparametrized to the unit cube (picklable)."""

    name: str
    low: float
    high: float

    def __call__(self, u: np.ndarray) -> float:
        x = self.low + np.asarray(u, dtype=float) * (self.high - self.low)
        return benchmark_function(self.name, x)


def make_benchmark_instance(name: str, dim: int | None = None,
                            noise_stddev: float = 0.01,
                            candidate_count: int = 2000) -> ContinuousInstance:
    """Continuous benchmark on the unit cube.

    The domain is rescaled to the unit cube so kernel lengthscales are
    comparable across benchmarks; ``candidate_count`` candidates are
    redrawn uniformly each iteration.
    """
    if name not in BENCHMARKS:
        raise ConfigurationError(f"unknown benchmark {name!r}; expected one of {sorted(BENCHMARKS)}")
    info = BENCHMARKS[name]
    d = info.default_dim if dim is None else int(dim)
    if info.fixed_dim and d != info.default_dim:
        raise ConfigurationError(f"{name} is only defined for d={info.default_dim}")
    return ContinuousInstance(
        _UnitCubeObjective(name, info.domain_low, info.domain_high), d,
        candidate_count, info.optimum_value, float(noise_stddev))


# ---------------------------------------------------------------------------
# Tabular ingestion
# ---------------------------------------------------------------------------


def standardize_columns(features: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance columns.

    Constant columns get std 1 so they map to zeros instead of dividing by
    zero; they carry no distance information either way.
    """
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    stds = np.where(stds > 0.0, stds, 1.0)
    return (features - means) / stds


def ingest_tabular(path, objective_column: str) -> FiniteInstance:
    """Parse a CSV file into a finite-domain problem instance.

    Contract: comma-separated, UTF-8, first row holds column names, decimal
    point '.', at least 2 data rows. Every non-objective column is a
    feature. The instance's points are the features standardized for
    kernel distances.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise IngestionError(f"{path}: cannot read: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise IngestionError(f"{path}: cannot read as UTF-8: byte {err.start} is invalid") from None
    if not rows:
        raise IngestionError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if objective_column not in header:
        raise IngestionError(
            f"{path}: objective column {objective_column!r} not among {header}"
        )
    obj_pos = header.index(objective_column)

    missing: list[int] = []
    parsed: list[list[float]] = []
    for i, row in enumerate(rows[1:], start=2):  # 1-based with header on line 1
        if len(row) != len(header):
            raise IngestionError(f"{path}: line {i} has {len(row)} cells, expected {len(header)}")
        if any(cell.strip() == "" for cell in row):
            missing.append(i)
            continue
        values = []
        for j, cell in enumerate(row):
            try:
                values.append(float(cell))
            except ValueError:
                raise IngestionError(
                    f"{path}: line {i}, column {header[j]!r}: non-numeric value {cell.strip()!r}"
                )
            if j != obj_pos and not math.isfinite(values[-1]):
                raise IngestionError(f"{path}: line {i}, column {header[j]!r}: "
                                     f"non-finite feature {cell.strip()!r}")
        parsed.append(values)
    if missing:
        raise IngestionError(f"{path}: missing values on lines {missing}")
    if len(parsed) < 2:
        raise IngestionError(f"{path}: tabular dataset needs at least 2 rows")

    data = np.asarray(parsed, dtype=float)
    objective = data[:, obj_pos]
    if not np.all(np.isfinite(objective)):
        raise IngestionError(f"{path}: objective column contains non-finite values")
    return FiniteInstance(standardize_columns(np.delete(data, obj_pos, axis=1)), objective, 0.0)
