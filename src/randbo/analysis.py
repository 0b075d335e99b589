"""Regret metrics, closed-form regret-bound calculators, and Monte-Carlo
verification harnesses.

Covers: summary statistics over replicated traces (the expected-regret
estimate), the conditional expected regret estimator, realized information
gain of a selected point set, the family of closed-form cumulative-regret
bounds for randomized and deterministic confidence schedules (each bound
takes its shift or mean from the schedule class in ``confidence``, so a
schedule's formula and domain checks exist only there), tail-bound
helpers (Gaussian survival, chi-square upper quantile), a Monte-Carlo check
of the optimum-value inequality that drives the randomized-UCB analysis,
the two-point problem instance on which constant-confidence UCB earns
linear regret, and an empirical slope test separating linear from
sublinear regret growth.

Each checkable claim of the paper has one verifier here (``*_claim``,
``optimum_bound_sweep``, ``counterexample_slopes``), which returns
``Verdict``s; ``randbo check`` and the acceptance criteria both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from . import gp
from .confidence import (RATE, Constant, Replay, ShiftedExpContinuous, ShiftedExpFinite,
                         ShiftedExpHighProb)
from .engine import BoTrace, FiniteInstance, RunConfig, run_replications
from .errors import ConfigurationError
from .rng import LEMMA_SWEEP, as_generator, substream


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


def mean_realized_gain(traces, kernel: gp.Kernel, noise_variance: float) -> float:
    """Mean over traces of the realized information gain of each run's selections.

    The finite-domain expected-regret report puts this in place of gamma_T.
    A realized gain is at most gamma_T, so the bound it gives is not one the
    paper certifies (ROADMAP item 3 replaces it with a certified gamma_T).
    """
    return float(np.mean([realized_information_gain(kernel, tr.selected_x, noise_variance)
                          for tr in traces]))


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
    information gain; C2 = 2 + 2 log(|X|/2) is the constant-shift schedule's mean.
    """
    if T < 1 or gamma < 0:
        raise ConfigurationError("need T >= 1 and gamma >= 0")
    c2 = ShiftedExpFinite(domain_size).mean(T)
    return math.sqrt(_width_constant(noise_variance) * c2 * T * gamma)


def bcr_bound_continuous(T: int, a: float, b: float, r: float, d: int,
                         noise_variance: float, gamma: float) -> float:
    """Expected-regret bound pi^2/6 + sqrt(C1 T gamma (2 + s_T)) for continuous domains.

    2 + s_T is the continuous-shift schedule's mean at iteration T.
    """
    if T < 1 or gamma < 0:
        raise ConfigurationError("need T >= 1 and gamma >= 0")
    mean_T = ShiftedExpContinuous(a, b, r, d).mean(T)
    return math.pi**2 / 6.0 + math.sqrt(
        _width_constant(noise_variance) * T * gamma * mean_T
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
    s_T = ShiftedExpHighProb(domain_size, delta).shift(T)
    root_tl = math.sqrt(T * lg)
    return 2.0 * math.sqrt(
        _width_constant(noise_variance) * gamma * (T * s_T + T + 2.0 * root_tl + 2.0 * lg)
    )


def high_prob_exceedance(traces, delta: float, domain_size: int, kernel: gp.Kernel,
                         noise_variance: float) -> float:
    """Share of traces whose final cumulative regret exceeds ``high_prob_bound``.

    Each trace's bound takes that trace's realized information gain in place
    of gamma_T: the same uncertified substitution as ``mean_realized_gain``.
    """
    exceed = sum(
        tr.cumulative_regret[-1] > high_prob_bound(
            tr.horizon, delta, domain_size, noise_variance,
            realized_information_gain(kernel, tr.selected_x, noise_variance))
        for tr in traces)
    return float(exceed / len(traces))


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


def bound_sweep_reports(T: int, delta: float, m: int, gamma: float, s2: float,
                        a: float, b: float, r: float, dim: int) -> list[BoundReport]:
    """Every closed-form bound at one (T, delta) on |X| = m points with noise
    variance s2; the conditional bound takes the constant-shift s_T and the
    chi-square quantile bound D = T."""
    inputs = {"T": T, "delta": delta, "domain_size": m, "gamma": gamma, "noise_variance": s2}
    s_T = ShiftedExpFinite(m).shift(T)
    return [
        BoundReport("expected_regret_bound_finite", inputs, bcr_bound_finite(T, m, s2, gamma)),
        BoundReport("expected_regret_bound_continuous",
                    {**inputs, "a": a, "b": b, "r": r, "dim": dim},
                    bcr_bound_continuous(T, a, b, r, dim, s2, gamma)),
        BoundReport("conditional_regret_bound", {**inputs, "s_T": s_T},
                    conditional_bound_U(T, delta, s_T, s2, gamma)),
        BoundReport("anytime_regret_bound", inputs, high_prob_bound(T, delta, m, s2, gamma)),
        BoundReport("chi_square_upper_quantile", {"D": T, "delta": delta},
                    laurent_bound(T, delta)),
    ]


# ---------------------------------------------------------------------------
# Claim verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """One judged statistic of a claim: its value, whether it passes, and a
    report line (``randbo check`` appends ``-> PASS`` or ``-> FAIL``)."""

    statistic: float
    passed: bool
    detail: str


def chi_square_coverage_claim(n_mc: int, seed) -> list[Verdict]:
    """P(chi-square_D > laurent_bound(D, delta)) <= delta, with no slack, for
    D in (1, 10, 100) and delta in (0.01, 0.05, 0.2), drawn in that order.
    False-alarm rate: not measured."""
    rng = as_generator(seed)
    verdicts = []
    for D in (1, 10, 100):
        for delta in (0.01, 0.05, 0.2):
            exceed = float(np.mean(rng.chisquare(D, size=n_mc) > laurent_bound(D, delta)))
            verdicts.append(Verdict(exceed, exceed <= delta, f"chi-square coverage D={D} "
                                    f"delta={delta}: exceedance {exceed:.4f}"))
    return verdicts


def gaussian_tail_claim() -> Verdict:
    """gaussian_tail_bound(c) >= ndtr(-c) for c = 0.1, 0.2, ..., 5.0; the
    statistic is the smallest margin. Deterministic: no false alarms."""
    margin = min(gaussian_tail_bound(float(c)) - float(ndtr(-c))
                 for c in np.arange(0.1, 5.05, 0.1))
    return Verdict(margin, margin >= 0.0, "normal tail dominance on c in [0.1, 5]:")


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


@dataclass(frozen=True)
class SweepVerdict(Verdict):
    rows: list  # (config_id, domain_size, n_data, family, dim, InequalityCheck)


def optimum_bound_sweep(n_configs: int, max_grid: int, max_data: int, n_mc: int,
                        noise_variance: float, noise_stddev: float, seed: int) -> SweepVerdict:
    """``validate_optimum_bound`` on ``n_configs`` random configurations.

    Configuration i draws from ``substream(seed, LEMMA_SWEEP, i)``: 2..max_grid
    points in 1..3 dimensions, 0..max_data noisy observations of a prior
    draw, and a lengthscale in [0.1, 1); the family alternates between
    squared exponential and Matern-5/2. It passes when every check holds; the
    statistic is the worst (lhs - rhs) / combined standard error.
    False-alarm rate: not measured.
    """
    rows = []
    for i in range(n_configs):
        rng = substream(seed, LEMMA_SWEEP, i)
        m = int(rng.integers(2, max_grid + 1))
        n_data = int(rng.integers(0, max_data + 1))
        dim = int(rng.integers(1, 4))
        family = ("squared_exponential", "matern52")[i % 2]
        kernel = gp.KernelSpec.isotropic(family, float(rng.uniform(0.1, 1.0)), dim)
        points = rng.random((m, dim))
        dataset = None
        if n_data:
            X = rng.random((n_data, dim))
            y = gp.sample_prior(kernel, X, rng) + rng.normal(0.0, noise_stddev, size=n_data)
            dataset = (X, y)
        check = validate_optimum_bound(kernel, points, dataset, noise_variance, n_mc, rng)
        rows.append((i, m, n_data, family, dim, check))
    bad = sum(not c.holds() for *_, c in rows)
    worst = max((c.lhs - c.rhs) / c.combined_stderr for *_, c in rows)
    return SweepVerdict(worst, bad == 0, f"optimum-bound sweep: {n_configs} "
                        f"configurations, {bad} violations", rows)


# ---------------------------------------------------------------------------
# Two-point counterexample and noise-event frequency
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_VARIANCES = (1.0, 0.99)


@dataclass(frozen=True)
class CounterexampleSampler:
    """Two-candidate instance family with prior covariance [[1, rho], [rho, 0.99]].

    Observation noise is N(0, ``noise_stddev``^2), standard normal by
    default, and the surrogate uses the exact prior, so runs on this family
    reproduce the regime where a constant confidence parameter locks onto
    the wrong point with positive probability. Calling the sampler draws a
    fresh objective pair.
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


def noise_event_claim(T: int, n_mc: int, seed) -> list[Verdict]:
    """From one ``noise_event_curve``: P(T=1) within 3 binomial standard
    errors of Phi(1), and P(T) >= 0.229, the analytic lower bound.
    False-alarm rate: not measured."""
    curve = noise_event_curve(T, n_mc, seed)
    at_one, at_T, level = float(curve[0]), float(curve[-1]), float(ndtr(1.0))
    near = abs(at_one - level) < 3 * math.sqrt(level * (1 - level) / n_mc)
    return [Verdict(at_one, near, f"noise-event frequency T=1: {at_one:.4f} vs {level:.4f}"),
            Verdict(at_T, at_T >= 0.229, f"noise-event frequency T={T}: {at_T:.4f} >= 0.229")]


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


@dataclass(frozen=True)
class SlopeVerdict(Verdict):
    label: str
    summary: RegretSummary
    cumulative: SlopeResult  # short -> long horizon, cumulative averages
    late: SlopeResult        # late_window_slope_test


def judge_slopes(label: str, summary: RegretSummary, short_horizon: int) -> SlopeVerdict:
    """The two-point verdict rule.

    The randomized schedule (``irgp_ucb``) must read sublinear on the
    cumulative short -> long ratio; its late-window ratio tends to about
    0.76, below 0.8, so the late windows do tell a plateau from a decaying
    rate. A constant schedule must read linear on the late-window ratio,
    per-step regret over (3T/4, T] against (T/2, 3T/4]. Its cumulative ratio
    carries the early transient every schedule goes through, and reads well
    below 0.8 for beta = 1 and 2 even with infinitely many replications.
    No per-step level is required: the paper promises Omega(T) growth with
    an unspecified constant, and a correct UCB's plateaus on this instance
    are about 0.024 / 0.015 / 0.0066 for beta = 0.5 / 1 / 2.
    """
    cumulative = regret_slope_test(summary.at_horizon(short_horizon), summary)
    late = late_window_slope_test(summary)
    name, judged, expected = (("ratio", cumulative, SUBLINEAR_CONSISTENT)
                              if label == "irgp_ucb" else
                              ("late_ratio", late, LINEAR_CONSISTENT))
    detail = (f"{label}: ratio={cumulative.ratio:.3f} late_ratio={late.ratio:.3f} "
              f"(late per-step {late.per_step_first:.4f} -> {late.per_step_second:.4f}) "
              f"{name} verdict={judged.verdict} (expected {expected})")
    return SlopeVerdict(judged.ratio, judged.verdict == expected, detail,
                        label, summary, cumulative, late)


def counterexample_slopes(constants, horizons: tuple[int, int], n_reps: int, seed: int,
                          rho: float = 0.0, noise_variance: float = 1.0,
                          noise_stddev: float = 1.0, n_jobs: int = 1,
                          replicate=run_replications) -> list[SlopeVerdict]:
    """Linear regret for constant-beta GP-UCB, sublinear for IRGP-UCB, on the
    two-point instance.

    Runs UCB with each constant (labelled ``constant_<c>``, c as given) and
    then with the randomized schedule, n_reps replications up to the longer
    of the (short, long) horizons through ``replicate`` (which has
    ``run_replications``'s signature), and judges each by ``judge_slopes``.
    Observations carry N(0, ``noise_stddev``^2) noise; the surrogate assumes
    ``noise_variance``.

    False-alarm rates, from a conjugate reference simulation of a correct
    engine: a constant beta = 2 reads below 0.8 on the late windows in 16%
    of 80-rep samples (``randbo check counterexample --quick``; beta = 1 in
    4.6%, beta = 0.5 in 1.9%) and in 3.7% of 500-rep samples. The late-window
    statistic is a weak detector: 22-30% of 500-rep samples of a sublinear
    schedule (IRGP-UCB, growing-beta GP-UCB) still read >= 0.8.
    """
    sampler = CounterexampleSampler(rho, noise_stddev)
    schedules = [(f"constant_{c}", Constant(float(c))) for c in constants]
    results = []
    for label, schedule in schedules + [("irgp_ucb", ShiftedExpFinite(2))]:
        cfg = RunConfig(kernel=sampler.kernel, horizon=horizons[1], schedule=schedule,
                        noise_variance=noise_variance)
        traces = replicate(sampler, cfg, n_reps, seed, n_jobs)
        results.append(judge_slopes(label, summarize_traces(traces), horizons[0]))
    return results
