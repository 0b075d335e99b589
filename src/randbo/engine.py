"""Sequential optimization driver.

A problem is one of two kinds. A ``FiniteInstance`` is a finite domain: fixed
candidate points with the true value at each (the synthetic grids and the
tabular emulators). A ``ContinuousInstance`` is an objective on the unit
cube, with fresh uniform candidates drawn each iteration (the benchmarks).

One replication iterates: (re)fit hyperparameters, produce the iteration's
confidence parameter, select a candidate by the configured acquisition
rule, observe a noisy value, update the posterior, and record regret. A
complete per-iteration trace comes back for analysis.

On a finite instance the posterior moments over all candidates are
maintained incrementally alongside the state's Cholesky factor, which
turns the per-iteration cost from O(n^2 m) into O(n m); a test replays
traces through the batch posterior to confirm the two paths agree. The
prior diagonal and each appended observation's Gram row are read from the
process-level prior Gram of the grid (``gp.prior_data``), computed once per
(kernel, grid) and shared by every replication and every refit that lands
on the same kernel; a grid too large for that cache gets its rows computed
per append instead. The posterior-sample rules reuse the cache: the grid's
random features are computed once per feature draw, and each sample path
is a prior path corrected through the cached V and the state's Cholesky
factor.

``run_replications`` draws each replication's instance first; on a fixed
grid the synthetic sampler's draw is a mat-vec with the grid's cached prior
factor (see ``bench.SyntheticInstanceSampler``).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import gp
from .acquisition import (
    RffModel,
    build_rff,
    expected_improvement,
    path_inputs,
    pims_scores,
    rff_features,
    sample_posterior_path,
    ucb_scores,
)
from .confidence import ConfidenceSchedule, next_confidence
from .errors import ConfigurationError, NumericalError, RandboError
from .rng import (
    CANDIDATES,
    CONFIDENCE,
    FEATURES,
    INITIAL,
    INSTANCE,
    NOISE,
    PATHS,
    substream,
)

ACQUISITION_KINDS = ("ucb", "ei", "ts", "pims")


@dataclass(frozen=True)
class AcquisitionSpec:
    """Which selection rule to run, plus its feature budget where relevant."""

    kind: str = "ucb"
    num_features: int = 2000

    def __post_init__(self):
        if self.kind not in ACQUISITION_KINDS:
            raise ConfigurationError(
                f"unknown acquisition {self.kind!r}; expected one of {ACQUISITION_KINDS}"
            )
        if self.num_features < 1:
            raise ConfigurationError("num_features must be >= 1")


@dataclass(frozen=True)
class FiniteInstance:
    """A finite domain: fixed candidate points and the true value at each.

    ``optimum_index`` and ``optimum_value`` follow from the values. Every
    observed input, the initial design included, is a row of ``points``.
    """

    points: np.ndarray
    true_values: np.ndarray
    noise_stddev: float
    optimum_index: int = field(init=False)
    optimum_value: float = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ConfigurationError("candidate points must be a non-empty (n, d) array")
        tv = np.asarray(self.true_values, dtype=float)
        if tv.shape != (pts.shape[0],):
            raise ConfigurationError("true_values must align with the candidate points")
        if not np.all(np.isfinite(tv)):
            raise ConfigurationError("true_values must be finite")
        if self.noise_stddev < 0:
            raise ConfigurationError("noise_stddev must be non-negative")
        for name, arr in (("points", pts), ("true_values", tv)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        idx = int(np.argmax(tv))
        object.__setattr__(self, "optimum_index", idx)
        object.__setattr__(self, "optimum_value", float(tv[idx]))

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ContinuousInstance:
    """A continuous domain: an objective on the unit cube [0, 1]^dim.

    Each iteration draws ``candidate_count`` fresh uniform candidates;
    ``optimum_value`` is the objective's known maximum, for regret.
    """

    objective: Callable[[np.ndarray], float]
    dim: int
    candidate_count: int
    optimum_value: float
    noise_stddev: float

    def __post_init__(self):
        if self.dim < 1 or self.candidate_count < 1:
            raise ConfigurationError("dim and candidate_count must be >= 1")
        if not math.isfinite(self.optimum_value):
            raise ConfigurationError("a continuous instance needs a known finite optimum_value")
        if self.noise_stddev < 0:
            raise ConfigurationError("noise_stddev must be non-negative")


ProblemInstance = FiniteInstance | ContinuousInstance


@dataclass(frozen=True)
class FixedInstanceSampler:
    """Instance sampler that ignores the replication and returns one instance."""

    instance: ProblemInstance

    def __call__(self, rep: int, rng: np.random.Generator) -> ProblemInstance:
        return self.instance


@dataclass
class BoTrace:
    """Per-iteration record of one replication.

    Arrays all have length ``horizon``; initial-design observations are kept
    separately and are not iteration rows.
    """

    horizon: int
    selected_index: np.ndarray   # within-iteration candidate index
    selected_x: np.ndarray       # (T, d)
    zeta_value: np.ndarray       # nan for non-UCB acquisitions
    observed_y: np.ndarray
    mean_at_selection: np.ndarray
    sd_at_selection: np.ndarray
    instantaneous_regret: np.ndarray
    cumulative_regret: np.ndarray
    initial_x: np.ndarray        # (k, d)
    initial_y: np.ndarray
    initial_indices: np.ndarray | None   # grid rows; None on a continuous instance
    optimum_value: float


@dataclass(frozen=True)
class RunConfig:
    """Everything one replication needs besides the instance and the seed."""

    kernel: gp.Kernel
    horizon: int
    acquisition: AcquisitionSpec = AcquisitionSpec()
    schedule: ConfidenceSchedule | None = None
    noise_variance: float = 1e-4
    initial_design: int | Sequence | None = None
    refit_period: int | None = None
    refit_grid: tuple[gp.KernelSpec, ...] | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if not self.noise_variance > 0:
            raise ConfigurationError("model noise_variance must be positive")
        if self.acquisition.kind == "ucb" and self.schedule is None:
            raise ConfigurationError("UCB acquisition needs a confidence schedule")
        if self.schedule is not None:
            # Fails for a schedule that ends before the horizon (a short Replay).
            self.schedule.shift(self.horizon)
        if self.refit_period is not None:
            if self.refit_period < 1:
                raise ConfigurationError("refit_period must be >= 1")
            if not self.refit_grid:
                raise ConfigurationError("refit_period requires a refit_grid of kernels")


class _MomentCache:
    """Running posterior moments over a fixed candidate set.

    Maintains V = L^-1 K(obs, cand) one row per observation; means and
    variances follow from column inner products and are updated in O(m)
    per appended row. The prior variances and the Gram row of each appended
    candidate come from the cached prior Gram of (kernel, candidates), or,
    for a candidate set too large for that cache, from the kernel directly.
    """

    def __init__(self, state: gp.GpState, cand_pts: np.ndarray, capacity: int):
        m = cand_pts.shape[0]
        self.pts = cand_pts
        prior = gp.prior_data(state.kernel, cand_pts)
        self.gram = None if prior is None else prior.gram
        if self.gram is None:
            self.prior = gp.kernel_diag(state.kernel, cand_pts)
        else:
            self.prior = np.diagonal(self.gram)
        self.V = np.empty((capacity, m))
        self.mean = np.zeros(m)
        self.varsum = np.zeros(m)
        self.n = state.n_obs
        if state.n_obs:
            V0 = gp.cross_solve(state, cand_pts)
            self.V[: state.n_obs] = V0
            self.mean = V0.T @ state.half_targets
            self.varsum = np.einsum("ij,ij->j", V0, V0)

    def solve_row(self, idx: int) -> np.ndarray:
        """L^-1 k(observations, candidate idx): column idx of V."""
        return self.V[: self.n, idx]

    def append(self, new_state: gp.GpState, idx: int) -> None:
        """Add the row of the observation just made at candidate ``idx``."""
        n = self.n
        l_row = new_state.chol[n, :n]
        pivot = new_state.chol[n, n]
        if self.gram is None:
            k_row = gp.kernel_matrix(new_state.kernel, self.pts[idx][None, :], self.pts)[0]
        else:
            k_row = self.gram[idx]
        v = (k_row - l_row @ self.V[:n]) / pivot
        self.V[n] = v
        self.mean += v * new_state.half_targets[n]
        self.varsum += v * v
        self.n = n + 1

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mean, np.maximum(self.prior - self.varsum, 0.0)


def _resolve_initial_design(instance: ProblemInstance, design,
                            rng: np.random.Generator):
    """Return (grid indices or None, points array) for the warm-start observations.

    On a finite instance the design is an index array, possibly empty; a
    count draws that many distinct rows. A continuous instance takes only a
    count, of uniform points in the unit cube.
    """
    finite = isinstance(instance, FiniteInstance)
    if design is None or isinstance(design, (int, np.integer)):
        count = int(design or 0)
        if count < 0:
            raise ConfigurationError("initial design count must be >= 0")
        if not finite:
            return None, rng.random((count, instance.dim))
        m = instance.points.shape[0]
        if count > m:
            raise ConfigurationError("initial design larger than the candidate set")
        idx = np.sort(rng.choice(m, size=count, replace=False))
    elif finite:
        idx = np.asarray(design, dtype=int)
        if idx.ndim != 1 or np.any(idx < 0) or np.any(idx >= instance.points.shape[0]):
            raise ConfigurationError("initial design indices out of range")
    else:
        raise ConfigurationError("a continuous instance's initial design is a point count")
    return idx, instance.points[idx]


def _true_value(instance: ProblemInstance, idx: int | None, x: np.ndarray) -> float:
    if isinstance(instance, FiniteInstance):
        return float(instance.true_values[idx])
    return float(instance.objective(x))


def run_bo(instance: ProblemInstance, config: RunConfig, seed: int,
           rep: int = 0) -> BoTrace:
    """Run one replication for ``config.horizon`` acquisition rounds.

    The replication's randomness is split into keyed substreams (noise,
    confidence draws, sample paths, candidate resampling, initial design),
    so identical (instance, config, seed, rep) reproduce the trace bit for
    bit and concurrent replications never interact.

    Returns
    -------
    BoTrace
    """
    T = config.horizon
    kind = config.acquisition.kind
    finite = isinstance(instance, FiniteInstance)

    noise_rng = substream(seed, rep, NOISE)
    conf_rng = substream(seed, rep, CONFIDENCE)
    path_rng = substream(seed, rep, PATHS)
    cand_rng = substream(seed, rep, CANDIDATES)
    init_rng = substream(seed, rep, INITIAL)
    feat_rng = substream(seed, rep, FEATURES)

    init_idx, init_x = _resolve_initial_design(instance, config.initial_design, init_rng)
    n_init = init_x.shape[0]
    kernel = config.kernel

    init_y = np.empty(n_init)
    state = gp.empty_state(kernel, config.noise_variance, capacity=T + n_init + 1)
    for i in range(n_init):
        f_i = _true_value(instance, None if init_idx is None else int(init_idx[i]), init_x[i])
        init_y[i] = f_i + noise_rng.standard_normal() * instance.noise_stddev
        state = gp.incremental_update(state, init_x[i], init_y[i])

    rff: RffModel | None = None
    if kind in ("ts", "pims"):
        rff = build_rff(kernel, config.acquisition.num_features, feat_rng)
        if finite:
            # Sample paths need the prior path at the candidates and at the
            # observed inputs, which are grid rows too: the grid's features,
            # computed once per feature draw, cover both.
            path_features = rff_features(rff, instance.points)

    cache = _MomentCache(state, instance.points, T + n_init + 1) if finite else None

    sel_idx = np.empty(T, dtype=int)
    sel_x = np.empty((T, instance.dim))
    zeta_val = np.full(T, np.nan)
    obs_y = np.empty(T)
    mu_sel = np.empty(T)
    sd_sel = np.empty(T)
    regret = np.empty(T)

    try:
        for t in range(1, T + 1):
            if (
                config.refit_period is not None
                and (t - 1) % config.refit_period == 0
                and state.n_obs > 0
            ):
                kernel = gp.fit_hyperparameters(
                    state.inputs, state.outputs, list(config.refit_grid),
                    config.noise_variance,
                )
                state = gp.batch_state(kernel, state.inputs.copy(), state.outputs.copy(),
                                       config.noise_variance)
                if finite:
                    cache = _MomentCache(state, instance.points, T + n_init + 1)
                if rff is not None:
                    rff = build_rff(kernel, config.acquisition.num_features, feat_rng)
                    if finite:
                        path_features = rff_features(rff, instance.points)

            if finite:
                pts = instance.points
                mean, var = cache.moments()
            else:
                pts = cand_rng.random((instance.candidate_count, instance.dim))
                mean, var = gp.posterior_batch(state, pts)

            if kind == "ucb":
                beta = next_confidence(config.schedule, t, conf_rng)
                zeta_val[t - 1] = beta
                idx = int(np.argmax(ucb_scores(mean, var, beta)))
            elif kind == "ei":
                incumbent = float(np.max(state.outputs)) if state.n_obs else 0.0
                idx = int(np.argmax(expected_improvement(mean, var, incumbent)))
            else:  # ts, pims
                if finite:
                    obs_rows = np.concatenate([init_idx, sel_idx[: t - 1]])
                    inputs = (path_features, obs_rows, cache.V[: cache.n])
                else:
                    inputs = path_inputs(state, rff, pts)
                path = sample_posterior_path(state, *inputs, path_rng)
                if kind == "ts":
                    idx = int(np.argmax(path))
                else:
                    idx = int(np.argmax(pims_scores(mean, var, float(np.max(path)))))

            x_t = pts[idx]
            f_t = _true_value(instance, idx, x_t)
            y_t = f_t + noise_rng.standard_normal() * instance.noise_stddev

            # Record the pre-update posterior now: the cache mutates its
            # moment arrays in place when the observation is appended.
            sel_idx[t - 1] = idx
            sel_x[t - 1] = x_t
            obs_y[t - 1] = y_t
            mu_sel[t - 1] = mean[idx]
            sd_sel[t - 1] = np.sqrt(max(var[idx], 0.0))
            regret[t - 1] = instance.optimum_value - f_t

            if finite:
                # The solve row for a candidate point is already a cached
                # column of V, so the update needs no triangular solve.
                new_state = gp.incremental_update(state, x_t, y_t,
                                                  l_row=cache.solve_row(idx))
                cache.append(new_state, idx)
            else:
                new_state = gp.incremental_update(state, x_t, y_t)
            state = new_state
    except NumericalError as exc:
        raise NumericalError(f"iteration {t}: {exc}") from exc

    return BoTrace(
        horizon=T,
        selected_index=sel_idx,
        selected_x=sel_x,
        zeta_value=zeta_val,
        observed_y=obs_y,
        mean_at_selection=mu_sel,
        sd_at_selection=sd_sel,
        instantaneous_regret=regret,
        cumulative_regret=np.cumsum(regret),
        initial_x=init_x,
        initial_y=init_y,
        initial_indices=init_idx,
        optimum_value=instance.optimum_value,
    )


def _run_one(args) -> tuple[int, BoTrace | None, str | None]:
    instance_sampler, config, base_seed, rep = args
    try:
        instance = instance_sampler(rep, substream(base_seed, rep, INSTANCE))
        return rep, run_bo(instance, config, base_seed, rep=rep), None
    except (RandboError, np.linalg.LinAlgError) as exc:
        return rep, None, f"{type(exc).__name__}: {exc}"


def run_replications(instance_sampler, config: RunConfig, n_reps: int,
                     base_seed: int, n_jobs: int = 1) -> list[BoTrace]:
    """Run ``n_reps`` independent replications.

    ``instance_sampler(rep, rng)`` produces each replication's instance; a
    sampler that redraws the objective gives expected-regret estimates over
    the prior, a FixedInstanceSampler conditions on one problem. Failed
    replications are reported as warnings and skipped; at least one must
    succeed. Results are ordered by replication index and independent of
    execution schedule.
    """
    if n_reps < 1:
        raise ConfigurationError("n_reps must be >= 1")
    jobs = [(instance_sampler, config, base_seed, i) for i in range(n_reps)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_run_one, jobs, chunksize=max(1, n_reps // (4 * n_jobs))))
    else:
        results = [_run_one(job) for job in jobs]

    traces: list[BoTrace] = []
    for rep, trace, err in results:
        if err is not None:
            warnings.warn(f"replication {rep} failed: {err}", stacklevel=2)
        else:
            traces.append(trace)
    if not traces:
        raise NumericalError("all replications failed")
    return traces
