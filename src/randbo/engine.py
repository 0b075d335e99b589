"""Sequential optimization driver.

A problem is one of two kinds. A ``FiniteInstance`` is a finite domain: fixed
candidate points with the true value at each (the synthetic grids and the
tabular emulators). A ``ContinuousInstance`` is an objective on the unit
cube, with fresh uniform candidates drawn each iteration (the benchmarks).

One replication draws its noise and confidence parameters up front, fits
its first state to the initial design, then iterates: refit when one is
due, select a candidate by the configured acquisition rule, observe a noisy
value, update the posterior, and record regret. A complete per-iteration
trace comes back for analysis. ``run_bo`` holds the setup, the loop and the
acquisition dispatch; a posterior model, picked once by the instance's
kind, holds everything else, the replication's one ``gp.GpState``
included: ``run_bo`` passes the model a candidate index and reads the
posterior through ``model.state``.

The grid model of a finite instance maintains the posterior moments over all
candidates incrementally alongside the state's Cholesky factor, which
turns the per-iteration cost from O(n^2 m) into O(n m); a test replays
traces through the batch posterior to confirm the two paths agree. The
prior diagonal and each appended observation's Gram row are read from the
process-level prior Gram of the grid (``gp.prior_data``), computed once per
(kernel, grid) and shared by every replication and every refit that lands
on the same kernel; a grid too large for that cache gets its rows computed
per append instead. The Cholesky update of an observation takes its prior
variance k(x, x) from the model's prior diagonal, so no kernel is
evaluated at the observed point. The posterior-sample rules reuse the
cache: on a grid whose prior factor L is cached (L L^T = K), the features
of the prior path are L itself, so each path is an exact posterior draw,
a prior draw L z corrected through the cached V and the state's Cholesky
factor. A grid above the cache's size takes a random-Fourier-feature prior
path instead, with ``RunConfig.num_features`` features. The features
stay fixed from one refit to the next, so the prior paths of a block of
iterations (up to the next refit, the horizon, or ``PATH_BLOCK``
iterations) are drawn at the block's start as one matrix product, from
the ``PATHS`` substream in the order one iteration at a time would draw
them. With L as the features that product runs over blocks of
``FACTOR_ROWS`` rows of L and skips L's zero upper triangle, at half the
dense product's cost; random features keep the dense product.

The fresh-candidate model of a continuous instance draws each iteration's
candidates and forms V = L^-1 K(X, candidates) as one triangular matrix
product of the inverse factor with the cross-covariance (BLAS ``trmm``,
written over the cross-covariance's own memory), not as a triangular solve
with one right-hand side per candidate: that solve's shape, a hundred rows
by thousands of columns, runs several times slower in BLAS than a product,
and the triangular product costs half a dense one. The model holds L^-1
itself: ``gp.inverse_factor`` (LAPACK ``dtrtri``) once per fit, then one
row per observation at O(n^2). The observation's Cholesky row is the chosen
candidate's column of V, so an update evaluates no kernel and solves
nothing. V agrees with the solve to rounding and serves every acquisition:
the moments, and for TS and PIMS the path, whose random features, at the
candidates and the observed inputs, change every iteration; it draws a
block of one path. Grids keep the triangular solve (``gp.cross_solve``),
which runs once per fit there, so their outputs are unchanged to the
byte.

Each fit builds one state, the winner's (``gp.fit_state``), with rows for
the observations still to come, so none of them copies it.

``run_replications`` draws each replication's instance first; on a fixed
grid the synthetic sampler's draw is a mat-vec with the grid's cached prior
factor (see ``bench.SyntheticInstanceSampler``). A roster of algorithms
passes every algorithm one ``SharedInstanceSampler``, so each
replication's instance is drawn once, in the first algorithm's
replication, and shared read-only by the rest.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.blas import dtrmm

from . import gp
from .acquisition import (
    build_rff,
    draw_prior_paths,
    expected_improvement,
    pims_scores,
    rff_features,
    sample_posterior_path,
    ucb_scores,
)
from .confidence import Schedule, next_confidence
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

# Most iterations whose prior paths are drawn as one block on a finite
# instance, so the block's paths take O(m * PATH_BLOCK) memory.
PATH_BLOCK = 256

# Rows of the cached prior factor per block of ``acquisition.lower_product``,
# the product of a path block with the factor that skips its zero upper
# triangle outside the diagonal blocks; a grid of at most this many points
# keeps the dense product.
# Milliseconds for 10 paths (one BLAS thread, 2-vCPU x86-64 guest, OpenBLAS
# 0.3.30), dense product against blocks of 48 / 64 / 96 / 128 rows:
#   m = 125:  0.019 against 0.016 / 0.014 / 0.015 / 0.021
#   m = 1000: 1.00 against 0.46 / 0.46 / 0.45 / 0.73
#   m = 2048: 5.0 against 1.8-2.5 / 2.6-3.1 / 3.0-3.9 / 3.3
# and for one path at m = 1000, 0.31 (mat-vec) against 0.23 at 48 rows.
# Wider blocks lose once a block of the factor outgrows the core's cache.
FACTOR_ROWS = 48


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
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("candidate points must be finite")
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


class SharedInstanceSampler:
    """Instance sampler that draws each replication's instance once, for a roster.

    The first call for a replication draws from ``sampler``; a later call
    with the same replication and the same generator state, which in
    ``_run_one`` means the same (base_seed, rep), returns the same
    instance, read-only as instances are. A roster that hands one of these
    to every algorithm draws each instance once, inside the first
    algorithm's replication. A draw that raises is not kept, so the
    replication fails in every algorithm with the same message. The
    instances are held until the sampler is dropped.
    """

    def __init__(self, sampler):
        self.sampler = sampler
        self.drawn: dict = {}

    def __call__(self, rep: int, rng: np.random.Generator) -> ProblemInstance:
        key = (rep, repr(rng.bit_generator.state))
        instance = self.drawn.get(key)
        if instance is None:
            instance = self.drawn[key] = self.sampler(rep, rng)
        return instance


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
    """Everything one replication needs besides the instance and the seed.

    ``acquisition`` is one of ``ACQUISITION_KINDS``; only UCB takes a
    ``schedule``. ``num_features`` sizes the random-feature prior path of
    TS and PIMS where there is no cached prior factor (see ``_GridModel``).
    """

    kernel: gp.Kernel
    horizon: int
    acquisition: str = "ucb"
    num_features: int = 2000
    schedule: Schedule | None = None
    noise_variance: float = 1e-4
    initial_design: int | Sequence | None = None
    refit_period: int | None = None
    refit_grid: tuple[gp.KernelSpec, ...] | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if self.acquisition not in ACQUISITION_KINDS:
            raise ConfigurationError(f"unknown acquisition {self.acquisition!r}; "
                                     f"expected one of {ACQUISITION_KINDS}")
        if self.num_features < 1:
            raise ConfigurationError("num_features must be >= 1")
        if not self.noise_variance > 0:
            raise ConfigurationError("model noise_variance must be positive")
        if self.acquisition == "ucb" and self.schedule is None:
            raise ConfigurationError("UCB acquisition needs a confidence schedule")
        if self.acquisition != "ucb" and self.schedule is not None:
            raise ConfigurationError(f"{self.acquisition} acquisition takes no confidence schedule")
        if self.schedule is not None:
            # Fails for a schedule that ends before the horizon (a short Replay).
            self.schedule.shift(self.horizon)
        if self.refit_period is not None:
            if self.refit_period < 1:
                raise ConfigurationError("refit_period must be >= 1")
            if not self.refit_grid:
                raise ConfigurationError("refit_period requires a refit_grid of kernels")


def _design_count(design) -> int | None:
    """An initial design's point count, or None when the design lists grid rows."""
    if design is not None and not isinstance(design, (int, np.integer)):
        return None
    count = int(design or 0)
    if count < 0:
        raise ConfigurationError("initial design count must be >= 0")
    return count


class _Model:
    """The posterior of one replication at the points it selects among.

    The model owns the replication's ``gp.GpState``: ``initial_design``
    comes first, then ``refit(state)`` hands it each state ``gp.fit_state``
    builds, the first one on the initial design and one per refit. Each
    iteration calls ``moments``, ``path`` (TS, PIMS), ``true_value`` and
    ``observe`` with a candidate index; ``observe`` grows ``self.state`` in
    place and the arrays derived from it.
    """

    state: gp.GpState

    def __init__(self, instance: ProblemInstance, config: RunConfig,
                 feat_rng: np.random.Generator, path_rng: np.random.Generator):
        self.instance = instance
        self.config = config
        self.feat_rng = feat_rng
        self.path_rng = path_rng
        self.sampled = config.acquisition in ("ts", "pims")


class _GridModel(_Model):
    """A finite instance's posterior: V = L^-1 K(obs, points), one row per observation.

    Means and variances follow from column inner products of V and are
    updated in O(m) per appended row.
    """

    def initial_design(self, design, rng: np.random.Generator):
        """(rows, points, true values) of the warm-start observations: the
        design's rows, possibly none, or a count of distinct rows drawn."""
        m = self.instance.points.shape[0]
        count = _design_count(design)
        if count is None:
            idx = np.asarray(design, dtype=int)
            if idx.ndim != 1 or np.any(idx < 0) or np.any(idx >= m):
                raise ConfigurationError("initial design indices out of range")
        elif count > m:
            raise ConfigurationError("initial design larger than the candidate set")
        else:
            idx = np.sort(rng.choice(m, size=count, replace=False))
        self.rows = list(idx)  # grid row of each observation
        self.V = np.empty((self.config.horizon + len(idx) + 1, m))
        return idx, self.instance.points[idx], self.instance.true_values[idx]

    def true_value(self, idx: int) -> float:
        return float(self.instance.true_values[idx])

    def refit(self, state: gp.GpState) -> None:
        self.state = state
        pts, n = self.instance.points, state.n_obs
        prior = gp.prior_data(state.kernel, pts, factor=self.sampled)
        if self.sampled:
            # The cached prior factor gives exact prior draws on the grid;
            # otherwise the grid's random features are computed once per
            # feature draw.
            self.features = prior.factor if prior is not None else rff_features(
                build_rff(state.kernel, self.config.num_features, self.feat_rng),
                pts)
            self.row_block = FACTOR_ROWS if prior is not None else None
            self.block_last = 0
        self.gram = None if prior is None else prior.gram
        self.prior = gp.kernel_diag(state.kernel, pts)
        V0 = gp.cross_solve(state, pts)
        self.V[:n] = V0  # moments from V0 itself: its memory order fixes the rounding
        self.mean = V0.T @ state.half_targets
        self.varsum = np.einsum("ij,ij->j", V0, V0)

    def moments(self, cand_rng: np.random.Generator):
        return self.instance.points, self.mean, np.maximum(self.prior - self.varsum, 0.0)

    def path(self, t: int) -> np.ndarray:
        state = self.state
        n = state.n_obs
        if t > self.block_last:
            # The features hold until the next refit, at t = 1 + k p.
            last = min(self.config.horizon, t + PATH_BLOCK - 1)
            p = self.config.refit_period
            if p is not None:
                last = min(last, ((t - 1) // p + 1) * p)
            self.block_first, self.block_last = t, last
            self.paths, self.eps = draw_prior_paths(
                self.features, range(n, n + last - t + 1), state.noise_variance,
                self.path_rng, self.row_block)
        j = t - self.block_first
        return sample_posterior_path(state, self.paths[j], np.array(self.rows, dtype=int),
                                     self.V[:n], self.eps[j])

    def observe(self, idx: int, y: float) -> None:
        # The solve row for a grid point is already a column of V, and its
        # prior variance an entry of the cached diagonal, so the update
        # needs no triangular solve and no kernel evaluation.
        state, x = self.state, self.instance.points[idx]
        n = state.n_obs
        gp.incremental_update(state, x, y, l_row=self.V[:n, idx], prior_var=self.prior[idx])
        k_row = self.gram[idx] if self.gram is not None else gp.kernel_matrix(
            state.kernel, x[None, :], self.instance.points)[0]
        v = (k_row - state.chol[n, :n] @ self.V[:n]) / state.chol[n, n]
        self.V[n] = v
        self.mean += v * state.half_targets[n]
        self.varsum += v * v
        self.rows.append(idx)


class _FreshModel(_Model):
    """A continuous instance's posterior at each iteration's fresh candidates.

    The model holds L^-1 for its state's factor: one ``gp.inverse_factor``
    per fit, then one row per observation.
    """

    def initial_design(self, design, rng: np.random.Generator):
        """(None, points, true values): ``design`` uniform points in the unit cube."""
        count = _design_count(design)
        if count is None:
            raise ConfigurationError("a continuous instance's initial design is a point count")
        # Entries above the diagonal are never written, so the upper
        # triangle that ``observe``'s row product reads stays zero.
        size = self.config.horizon + count + 1
        self.inv = np.zeros((size, size))
        X = rng.random((count, self.instance.dim))
        return None, X, np.array([float(self.instance.objective(x)) for x in X])

    def true_value(self, idx: int) -> float:
        return float(self.instance.objective(self.pts[idx]))

    def refit(self, state: gp.GpState) -> None:
        self.state = state
        n = state.n_obs
        self.inv[:n, :n] = gp.inverse_factor(state)
        if self.sampled:
            self.rff = build_rff(state.kernel, self.config.num_features, self.feat_rng)

    def moments(self, cand_rng: np.random.Generator):
        state = self.state
        self.pts = cand_rng.random((self.instance.candidate_count, self.instance.dim))
        n = state.n_obs
        V = gp.kernel_matrix(state.kernel, state.inputs, self.pts)
        if n:
            # V^T = K^T L^-T by one triangular product with L^-1, which runs
            # several times faster than the triangular solve with thousands
            # of right-hand sides. K^T is F-contiguous, so BLAS writes V^T
            # over K's own memory and no n x m result is allocated.
            V = dtrmm(1.0, self.inv[:n, :n], V.T, side=1, lower=1, trans_a=1,
                      overwrite_b=1).T
        self.V = V
        return self.pts, *gp.moments_from_solve(state, self.pts, V)

    def path(self, t: int) -> np.ndarray:
        state = self.state
        m, n = self.pts.shape[0], state.n_obs
        features = rff_features(self.rff, np.vstack([self.pts, state.inputs]))
        prior, eps = draw_prior_paths(features, [n], state.noise_variance, self.path_rng)
        return sample_posterior_path(state, prior[0], np.arange(m, m + n), self.V, eps[0])

    def observe(self, idx: int, y: float) -> None:
        # The new Cholesky row L^-1 k(X, x) is the candidate's column of the
        # V that ``moments`` formed, so the update evaluates no kernel and
        # solves nothing. L^-1 of the extended factor [[L, 0], [l^T, p]] is
        # L^-1 with the row [-l^T L^-1 / p, 1 / p] appended.
        state = self.state
        n = state.n_obs
        gp.incremental_update(state, self.pts[idx], y, l_row=self.V[:, idx])
        pivot = state.chol[n, n]
        self.inv[n, :n] = state.chol[n, :n] @ self.inv[:n, :n]
        self.inv[n, :n] /= -pivot
        self.inv[n, n] = 1.0 / pivot


def run_bo(instance: ProblemInstance, config: RunConfig, seed: int,
           rep: int = 0) -> BoTrace:
    """Run one replication for ``config.horizon`` acquisition rounds.

    The replication's randomness is split into keyed substreams (noise,
    confidence draws, sample paths, candidate resampling, initial design),
    so identical (instance, config, seed, rep) reproduce the trace bit for
    bit and concurrent replications never interact.

    The draws independent of the data come before the loop: the noise of
    every observation as one array and, for UCB, all T confidence
    parameters, which the paper's conditional-regret analysis fixes before
    a run. The first state is one ``gp.fit_state`` on the initial design,
    over the refit grid if refits are configured and the design is
    non-empty, else under ``config.kernel``; refits follow at t = 1 + k p.

    Returns
    -------
    BoTrace
    """
    T = config.horizon
    kind = config.acquisition
    period = config.refit_period

    noise_rng = substream(seed, rep, NOISE)
    conf_rng = substream(seed, rep, CONFIDENCE)
    path_rng = substream(seed, rep, PATHS)
    cand_rng = substream(seed, rep, CANDIDATES)
    init_rng = substream(seed, rep, INITIAL)
    feat_rng = substream(seed, rep, FEATURES)

    model_kind = _GridModel if isinstance(instance, FiniteInstance) else _FreshModel
    model = model_kind(instance, config, feat_rng, path_rng)
    init_idx, init_x, init_f = model.initial_design(config.initial_design, init_rng)
    n_init = init_x.shape[0]

    noise = noise_rng.standard_normal(n_init + T) * instance.noise_stddev
    init_y = init_f + noise[:n_init]
    zeta_val = np.full(T, np.nan)
    if kind == "ucb":
        zeta_val[:] = [next_confidence(config.schedule, t, conf_rng) for t in range(1, T + 1)]

    capacity = T + n_init + 1
    kernels = list(config.refit_grid) if period is not None and n_init else [config.kernel]
    model.refit(gp.fit_state(init_x, init_y, kernels, config.noise_variance, capacity))

    sel_idx = np.empty(T, dtype=int)
    sel_x = np.empty((T, instance.dim))
    obs_y = np.empty(T)
    mu_sel = np.empty(T)
    sd_sel = np.empty(T)
    regret = np.empty(T)

    try:
        for t in range(1, T + 1):
            if period is not None and t > 1 and (t - 1) % period == 0:
                model.refit(gp.fit_state(model.state.inputs, model.state.outputs,
                                         list(config.refit_grid), config.noise_variance,
                                         capacity))

            pts, mean, var = model.moments(cand_rng)
            if kind == "ucb":
                idx = int(np.argmax(ucb_scores(mean, var, zeta_val[t - 1])))
            elif kind == "ei":
                outputs = model.state.outputs
                incumbent = float(np.max(outputs)) if outputs.size else 0.0
                idx = int(np.argmax(expected_improvement(mean, var, incumbent)))
            else:  # ts, pims
                path = model.path(t)
                if kind == "ts":
                    idx = int(np.argmax(path))
                else:
                    idx = int(np.argmax(pims_scores(mean, var, float(np.max(path)))))

            f_t = model.true_value(idx)
            y_t = f_t + noise[n_init + t - 1]

            # Record the pre-update posterior now: a grid model updates its
            # moment arrays in place when the observation is appended.
            sel_idx[t - 1] = idx
            sel_x[t - 1] = pts[idx]
            obs_y[t - 1] = y_t
            mu_sel[t - 1] = mean[idx]
            sd_sel[t - 1] = np.sqrt(var[idx])
            regret[t - 1] = instance.optimum_value - f_t

            model.observe(idx, y_t)
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
