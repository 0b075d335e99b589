"""Regret metrics, closed-form regret-bound calculators, and Monte-Carlo
verification harnesses.

Covers: summary statistics over replicated traces (the expected-regret
estimate), the conditional expected regret estimator, realized information
gain of a selected point set, the family of closed-form cumulative-regret
bounds for randomized and deterministic confidence schedules, tail-bound
helpers (Gaussian survival, chi-square upper quantile), a Monte-Carlo check
of the optimum-value inequality that drives the randomized-UCB analysis,
the two-point problem instance on which constant-confidence UCB earns
linear regret, and an empirical slope test separating linear from
sublinear regret growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gp
from .confidence import RATE, Replay, beta_deterministic, shift_continuous, shift_finite
from .engine import BoTrace, FiniteInstance, RunConfig, run_replications
from .errors import ConfigurationError
from .rng import as_generator


# ---------------------------------------------------------------------------
# Regret metrics and replication summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegretSummary:
    """Replication-averaged regret curves with standard errors."""

    horizon: int
    n_reps: int
    mean_cumulative_curve: np.ndarray
    stderr_cumulative_curve: np.ndarray
    mean_simple_curve: np.ndarray
    stderr_simple_curve: np.ndarray
    mean_instantaneous_curve: np.ndarray

    @property
    def mean_cumulative_regret(self) -> float:
        return float(self.mean_cumulative_curve[-1])

    def at_horizon(self, horizon: int) -> "RegretSummary":
        """Restriction of the summary to a shorter horizon prefix."""
        if not 1 <= horizon <= self.horizon:
            raise ConfigurationError("horizon outside the summarized range")
        h = horizon
        return RegretSummary(
            h, self.n_reps,
            self.mean_cumulative_curve[:h], self.stderr_cumulative_curve[:h],
            self.mean_simple_curve[:h], self.stderr_simple_curve[:h],
            self.mean_instantaneous_curve[:h],
        )


def _stderr(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[0]
    if n < 2:
        return np.zeros(rows.shape[1])
    return np.std(rows, axis=0, ddof=1) / math.sqrt(n)


def summarize_traces(traces: list[BoTrace]) -> RegretSummary:
    """Aggregate replication traces into mean curves with standard errors."""
    if not traces:
        raise ConfigurationError("need at least one trace")
    horizon = traces[0].horizon
    if any(tr.horizon != horizon for tr in traces):
        raise ConfigurationError("traces must share a horizon")
    inst = np.stack([tr.instantaneous_regret for tr in traces])
    cum = np.cumsum(inst, axis=1)
    simple = np.minimum.accumulate(inst, axis=1)
    return RegretSummary(
        horizon=horizon,
        n_reps=len(traces),
        mean_cumulative_curve=cum.mean(axis=0),
        stderr_cumulative_curve=_stderr(cum),
        mean_simple_curve=simple.mean(axis=0),
        stderr_simple_curve=_stderr(simple),
        mean_instantaneous_curve=inst.mean(axis=0),
    )


def estimate_conditional_regret(instance_sampler, config: RunConfig, sequence,
                                n_reps: int, base_seed: int,
                                n_jobs: int = 1) -> RegretSummary:
    """Expected regret conditioned on a fixed confidence sequence.

    The given sequence is replayed in every replication while the objective
    and the noise are redrawn, estimating the regret averaged over the
    environment for one realization of the algorithm's randomness.
    """
    conditioned = replace(config, schedule=Replay(sequence))
    traces = run_replications(instance_sampler, conditioned, n_reps, base_seed, n_jobs)
    return summarize_traces(traces)


# ---------------------------------------------------------------------------
# Information gain
# ---------------------------------------------------------------------------


def realized_information_gain(kernel: gp.Kernel, points, noise_variance: float) -> float:
    """Mutual information 0.5 log det(I + K/sigma^2) of the selected set.

    Equals the sum over selections of 0.5 log(1 + sd^2/sigma^2) with the
    posterior variance taken just before each selection, so it upper-bounds
    the variance sum appearing in the regret proofs.
    """
    if not noise_variance > 0:
        raise ConfigurationError("noise_variance must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    if pts.ndim == 1:
        pts = pts[:, None]
    K = gp.kernel_matrix(kernel, pts)
    A = np.eye(pts.shape[0]) + K / noise_variance
    L = gp.cholesky(A, float(np.max(np.diagonal(A))),
                    f"information-gain matrix of {pts.shape[0]} points", start=0.0)
    return float(np.sum(np.log(np.diag(L))))


# Information gain is monotone submodular in the selected set, so the greedy
# gain is at least (1 - 1/e) times the maximum gain gamma_T (Nemhauser et al.
# 1978); greedy / GREEDY_GAIN_FRACTION therefore bounds gamma_T from above.
GREEDY_GAIN_FRACTION = 1.0 - 1.0 / math.e


def greedy_information_gain(kernel: gp.Kernel, points, T: int,
                            noise_variance: float) -> float:
    """Greedy maximization of information gain over a candidate grid.

    Picks the highest-posterior-variance point T times. The result is a
    lower approximation of the maximum gain gamma_T over size-T subsets,
    whose exact maximization is intractable; a bound that needs gamma_T
    takes ``greedy / GREEDY_GAIN_FRACTION``.
    """
    pts = np.asarray(points, dtype=float)
    state = gp.empty_state(kernel, noise_variance, capacity=T + 1)
    total = 0.0
    for _ in range(T):
        _, var = gp.posterior_batch(state, pts)
        idx = int(np.argmax(var))
        total += 0.5 * math.log(1.0 + var[idx] / noise_variance)
        state = gp.incremental_update(state, pts[idx], 0.0)
    return total


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation, optionally compared against an empirical target."""

    name: str
    inputs: dict
    value: float
    target: float | None = None
    satisfied: bool | None = None
    slack: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ConfigurationError("bound value must be finite and non-negative")

    @classmethod
    def compare(cls, name: str, inputs: dict, value: float,
                target: float) -> "BoundReport":
        return cls(name, inputs, value, target, bool(target <= value), value - target)


def _width_constant(noise_variance: float) -> float:
    if not noise_variance > 0:
        raise ConfigurationError("noise_variance must be positive")
    return 2.0 / math.log(1.0 + 1.0 / noise_variance)


def bcr_bound_finite(T: int, domain_size: int, noise_variance: float,
                     gamma: float) -> float:
    """Expected-regret bound sqrt(C1 C2 T gamma) for the constant-shift schedule.

    C1 = 2/log(1 + 1/sigma^2) converts summed posterior variances into
    information gain; C2 = 2 + 2 log(|X|/2) is the constant confidence mean.
    """
    if T < 1 or gamma < 0:
        raise ConfigurationError("need T >= 1 and gamma >= 0")
    c2 = 2.0 + shift_finite(domain_size)
    return math.sqrt(_width_constant(noise_variance) * c2 * T * gamma)


def bcr_bound_continuous(T: int, a: float, b: float, r: float, d: int,
                         noise_variance: float, gamma: float) -> float:
    """Expected-regret bound pi^2/6 + sqrt(C1 T gamma (2 + s_T)) for continuous domains."""
    if T < 1 or gamma < 0:
        raise ConfigurationError("need T >= 1 and gamma >= 0")
    s_T = shift_continuous(a, b, r, d, T)
    return math.pi**2 / 6.0 + math.sqrt(
        _width_constant(noise_variance) * T * gamma * (2.0 + s_T)
    )


def _anytime_log(T: int, delta: float) -> float:
    if T < 1:
        raise ConfigurationError("T must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    return math.log(math.pi**2 * T * T / (3.0 * delta))


def conditional_bound_U(T: int, delta: float, s_T: float, noise_variance: float,
                        gamma: float, continuous: bool = False) -> float:
    """High-probability bound on conditional expected regret.

    6 sqrt(T log(pi^2 T^2/(3 delta)))
      + sqrt(C1 gamma (T s_T + T + 2 sqrt(T log(...)) + 2 log(...))),
    plus pi^2/6 on continuous domains.
    """
    if gamma < 0:
        raise ConfigurationError("gamma must be >= 0")
    lg = _anytime_log(T, delta)
    root_tl = math.sqrt(T * lg)
    value = 6.0 * root_tl + math.sqrt(
        _width_constant(noise_variance) * gamma * (T * s_T + T + 2.0 * root_tl + 2.0 * lg)
    )
    if continuous:
        value += math.pi**2 / 6.0
    return value


def high_prob_bound(T: int, delta: float, domain_size: int, noise_variance: float,
                    gamma: float) -> float:
    """Anytime high-probability cumulative-regret bound for the growing-shift schedule.

    2 sqrt(C1 gamma (T s_T + T + 2 sqrt(T log(pi^2 T^2/(3 delta))) + 2 log(...)))
    with s_T = 2 log(|X| T^2 pi^2 / (6 delta)), the schedule's anytime width.
    """
    if gamma < 0:
        raise ConfigurationError("gamma must be >= 0")
    lg = _anytime_log(T, delta)
    s_T = beta_deterministic(domain_size, T, delta)
    root_tl = math.sqrt(T * lg)
    return 2.0 * math.sqrt(
        _width_constant(noise_variance) * gamma * (T * s_T + T + 2.0 * root_tl + 2.0 * lg)
    )


def laurent_bound(D: int, delta: float) -> float:
    """Chi-square upper quantile bound D + 2 sqrt(D log(1/delta)) + 2 log(1/delta)."""
    if D < 1:
        raise ConfigurationError("degrees of freedom must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    lg = math.log(1.0 / delta)
    return D + 2.0 * math.sqrt(D * lg) + 2.0 * lg


def gaussian_tail_bound(c: float) -> float:
    """Survival-function bound exp(-c^2/2)/2 for the standard normal, c > 0."""
    if not c > 0:
        raise ConfigurationError("c must be positive")
    return 0.5 * math.exp(-0.5 * c * c)


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the optimum-value inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    """Two Monte-Carlo estimates and their standard errors, lhs vs rhs."""

    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    n_mc: int

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.lhs_stderr, self.rhs_stderr)

    def holds(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * self.combined_stderr


def validate_optimum_bound(kernel: gp.Kernel, points, dataset,
                           noise_variance: float, n_mc: int,
                           seed) -> InequalityCheck:
    """Check E[max f] <= E[max mu + sqrt(zeta) sd] on a finite candidate set.

    The left side averages the maximum of joint posterior draws of f over
    the candidates; the right side averages the maximized UCB with the
    confidence drawn from the shifted exponential with shift 2 log(|X|/2)
    and rate 1/2 (negative draws, possible only for a one-point set, clamp
    the multiplier at zero). Both sides are reported with standard errors.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
    if m < 1 or n_mc < 2:
        raise ConfigurationError("need at least one candidate and two samples")
    rng = as_generator(seed)

    if dataset is None or len(dataset[0]) == 0:
        state = gp.empty_state(kernel, noise_variance)
    else:
        state = gp.batch_state(kernel, dataset[0], dataset[1], noise_variance)
    V = gp.cross_solve(state, pts)
    mean, var = gp.moments_from_solve(state, pts, V)
    sd = np.sqrt(var)
    cov = gp.kernel_matrix(kernel, pts) - V.T @ V
    L = gp.cholesky(cov, float(np.max(gp.kernel_diag(kernel, pts))),
                    f"posterior covariance of {m} points")

    draws = rng.standard_normal((n_mc, m)) @ L.T + mean
    lhs_samples = draws.max(axis=1)

    s = 2.0 * math.log(m / 2.0)
    zeta = s - np.log(1.0 - rng.random(n_mc)) / RATE
    mult = np.sqrt(np.maximum(zeta, 0.0))
    rhs_samples = (mean[None, :] + mult[:, None] * sd[None, :]).max(axis=1)

    return InequalityCheck(
        lhs=float(lhs_samples.mean()),
        lhs_stderr=float(lhs_samples.std(ddof=1) / math.sqrt(n_mc)),
        rhs=float(rhs_samples.mean()),
        rhs_stderr=float(rhs_samples.std(ddof=1) / math.sqrt(n_mc)),
        n_mc=n_mc,
    )


# ---------------------------------------------------------------------------
# Two-point counterexample and noise-event frequency
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_VARIANCES = (1.0, 0.99)


@dataclass(frozen=True)
class CounterexampleSampler:
    """Two-candidate instance family with prior covariance [[1, rho], [rho, 0.99]].

    Observation noise is standard normal and the surrogate uses the exact
    prior, so runs on this family reproduce the regime where a constant
    confidence parameter locks onto the wrong point with positive
    probability. Calling the sampler draws a fresh objective pair.
    """

    rho: float = 0.0
    noise_stddev: float = 1.0

    def __post_init__(self):
        if not abs(self.rho) < math.sqrt(COUNTEREXAMPLE_VARIANCES[1]):
            raise ConfigurationError(
                "counterexample covariance requires |rho| < sqrt(0.99)"
            )

    @property
    def covariance(self) -> np.ndarray:
        v1, v2 = COUNTEREXAMPLE_VARIANCES
        return np.array([[v1, self.rho], [self.rho, v2]])

    @property
    def kernel(self) -> gp.ExplicitKernel:
        return gp.ExplicitKernel(self.covariance)

    def instance_for(self, f_values) -> FiniteInstance:
        """Instance conditioned on explicit objective values (for event studies)."""
        return FiniteInstance(np.array([[0.0], [1.0]]), f_values, self.noise_stddev)

    def __call__(self, rep: int, rng: np.random.Generator) -> FiniteInstance:
        f = np.linalg.cholesky(self.covariance) @ rng.standard_normal(2)
        return self.instance_for(f)


def counterexample_instance(rho: float = 0.0) -> CounterexampleSampler:
    """Factory for the two-point linear-regret problem family."""
    return CounterexampleSampler(rho=rho)


def noise_event_curve(T: int, n_mc: int, seed) -> np.ndarray:
    """P(running noise average stays >= -1 through t) for every t <= T.

    One Monte-Carlo pass over i.i.d. standard normal sequences; the curve
    is exactly nested across t by construction, hence non-increasing.
    """
    if T < 1 or n_mc < 1:
        raise ConfigurationError("need T >= 1 and n_mc >= 1")
    rng = as_generator(seed)
    counts = np.zeros(T)
    inv_t = 1.0 / np.arange(1, T + 1)
    remaining = n_mc
    chunk = max(1, 4_000_000 // T)
    while remaining:
        b = min(remaining, chunk)
        means = np.cumsum(rng.standard_normal((b, T)), axis=1) * inv_t
        alive = np.minimum.accumulate(means >= -1.0, axis=1)
        counts += alive.sum(axis=0)
        remaining -= b
    return counts / n_mc


def noise_event_frequency(T: int, n_mc: int, seed) -> float:
    """P(the running noise average stays >= -1 for every t <= T), estimated."""
    return float(noise_event_curve(T, n_mc, seed)[-1])


# ---------------------------------------------------------------------------
# Regret growth classification
# ---------------------------------------------------------------------------

LINEAR_CONSISTENT = "linear-consistent"
SUBLINEAR_CONSISTENT = "sublinear-consistent"
INCONCLUSIVE = "inconclusive"

LINEAR_THRESHOLD = 0.8
SUBLINEAR_THRESHOLD = 0.6


@dataclass(frozen=True)
class SlopeResult:
    ratio: float
    verdict: str
    per_step_first: float = float("nan")
    per_step_second: float = float("nan")


def regret_slope_test(first: RegretSummary, second: RegretSummary,
                      start: int | None = None) -> SlopeResult:
    """Compare per-step mean regret at two horizons.

    By default the rates are cumulative averages and the ratio is
    (BCR_T2/T2)/(BCR_T1/T1). With ``start`` they are the per-step regret
    increments over the adjacent windows (start, T1] and (T1, T2], which
    leave out the learning transient before ``start`` that a cumulative
    average keeps carrying. A ratio at or above ``LINEAR_THRESHOLD`` is
    consistent with linear growth, one at or below ``SUBLINEAR_THRESHOLD``
    with sublinear growth, anything between is inconclusive, and so is a
    zero first-window rate.
    """
    if second.horizon <= first.horizon:
        raise ConfigurationError("slope test needs increasing horizons")
    if start is None:
        rate1 = first.mean_cumulative_regret / first.horizon
        rate2 = second.mean_cumulative_regret / second.horizon
    else:
        if not 0 <= start < first.horizon:
            raise ConfigurationError("window start must lie in [0, first horizon)")
        at_start = float(first.mean_cumulative_curve[start - 1]) if start else 0.0
        at_mid = float(second.mean_cumulative_curve[first.horizon - 1])
        rate1 = (first.mean_cumulative_regret - at_start) / (first.horizon - start)
        rate2 = (second.mean_cumulative_regret - at_mid) / (second.horizon - first.horizon)
    if rate1 == 0.0:
        return SlopeResult(float("nan"), INCONCLUSIVE, rate1, rate2)
    ratio = rate2 / rate1
    if ratio >= LINEAR_THRESHOLD:
        verdict = LINEAR_CONSISTENT
    elif ratio <= SUBLINEAR_THRESHOLD:
        verdict = SUBLINEAR_CONSISTENT
    else:
        verdict = INCONCLUSIVE
    return SlopeResult(ratio, verdict, rate1, rate2)


def late_window_slope_test(summary: RegretSummary) -> SlopeResult:
    """Slope test over the second half of the horizon T.

    Compares per-step regret over (3T/4, T] with that over (T/2, 3T/4].
    Every schedule goes through an early learning transient; judging growth
    after it is what separates a positive per-step plateau (linear regret)
    from a rate that keeps decaying.
    """
    T = summary.horizon
    half, three_quarters = T // 2, (3 * T) // 4
    if not 0 < half < three_quarters < T:
        raise ConfigurationError("late-window slope test needs a horizon of at least 3")
    return regret_slope_test(summary.at_horizon(three_quarters), summary, start=half)
