"""Confidence-parameter schedules for UCB acquisition.

Each schedule class defines ``shift(t)``, the deterministic part of
iteration t's value, and inherits ``draw(t, rng)``, ``mean(t)`` and
``quantile(t, q)`` from one of two bases: ``PointMass`` for the
deterministic widths (anytime, constant, heuristic, and a replayed
sequence), whose value is the shift, and ``ShiftedExp`` for the shift plus
an exponential of rate 1/2 (finite, continuous, anytime high-probability
and heuristic shifts). The Gamma-randomized width defines its own three;
its quantile is the inverse regularized lower incomplete gamma function
(``scipy.special.gammaincinv``) times the scale, the same double that
``scipy.stats.gamma.ppf`` returns, so importing this module does not load
``scipy.stats``. Every randomized draw advances the generator exactly
once, so a fixed generator state maps one-to-one onto a draw sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .errors import ConfigurationError
from .rng import as_generator


def sample_shifted_exponential(s: float, lam: float, rng) -> float:
    """Draw s + Z with Z exponential of rate ``lam`` by inverse transform.

    Consumes exactly one uniform; the result is never below s.
    """
    if not lam > 0:
        raise ConfigurationError("rate parameter must be positive")
    # 1 - random() lies in (0, 1], keeping the log finite.
    u = 1.0 - as_generator(rng).random()
    return s - math.log(u) / lam


def shift_finite(domain_size: int) -> float:
    """Constant shift 2 log(|X| / 2) for a finite domain of |X| >= 2 points."""
    if domain_size < 2:
        raise ConfigurationError(
            "shifted-exponential schedule needs a domain of at least 2 points"
        )
    return 2.0 * math.log(domain_size / 2.0)


def shift_continuous(a: float, b: float, r: float, d: int, t: int) -> float:
    """Iteration-t shift for a continuous domain under the smoothness constants.

    2 d log(b d r t^2 (sqrt(log(a d)) + sqrt(pi)/2)) - 2 log 2; monotone
    non-decreasing in t.
    """
    if not (a > 0 and b > 0 and r > 0):
        raise ConfigurationError("smoothness constants a, b, r must be positive")
    if d < 1:
        raise ConfigurationError("dimension d must be >= 1")
    if a * d <= 1.0:
        raise ConfigurationError("need a*d > 1 so sqrt(log(a d)) is defined")
    if t < 1:
        raise ConfigurationError("iteration index must be >= 1")
    inner = b * d * r * t * t * (math.sqrt(math.log(a * d)) + math.sqrt(math.pi) / 2.0)
    if inner <= 0:
        raise ConfigurationError("shift argument must be positive")
    return 2.0 * d * math.log(inner) - 2.0 * math.log(2.0)


def beta_deterministic(domain_size: int, t: int, delta: float) -> float:
    """Anytime union-bound width 2 log(|X| t^2 pi^2 / (6 delta))."""
    if domain_size < 1:
        raise ConfigurationError("domain_size must be >= 1")
    if t < 1:
        raise ConfigurationError("iteration index must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must lie in (0, 1)")
    return 2.0 * math.log(domain_size * t * t * math.pi**2 / (6.0 * delta))


def gamma_shape(domain_size: int, t: int) -> float:
    """Gamma shape log(|X| t^2) / log(1.5) for the Gamma-randomized schedule."""
    if t < 1:
        raise ConfigurationError("iteration index must be >= 1")
    kappa = math.log(domain_size * t * t) / math.log(1.5)
    if kappa <= 0:
        raise ConfigurationError("Gamma shape requires |X| t^2 > 1")
    return kappa


def sample_gamma_confidence(domain_size: int, t: int, theta: float, rng) -> float:
    """Draw from Gamma(shape log(|X| t^2)/log 1.5, scale theta)."""
    if not theta > 0:
        raise ConfigurationError("theta must be positive")
    kappa = gamma_shape(domain_size, t)
    return float(as_generator(rng).gamma(shape=kappa, scale=theta))


def heuristic_beta(d: int, t: int) -> float:
    """Benchmark heuristic width 0.2 d log(2 t)."""
    if t < 1:
        raise ConfigurationError("iteration index must be >= 1")
    return 0.2 * d * math.log(2.0 * t)


# ---------------------------------------------------------------------------
# Schedule variants
# ---------------------------------------------------------------------------

RATE = 0.5  # exponential rate shared by every shifted-exponential variant


def _check_level(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ConfigurationError("quantile level must lie in (0, 1)")


class PointMass:
    """Deterministic schedule: iteration t's value is ``shift(t)``.

    Draws leave the generator untouched, and every quantile equals the mean.
    """

    randomized = False

    def __post_init__(self):
        self.shift(1)  # out-of-range parameters fail at construction

    def draw(self, t: int, rng) -> float:
        return self.shift(t)

    def mean(self, t: int) -> float:
        return self.shift(t)

    def quantile(self, t: int, q: float) -> float:
        _check_level(q)
        return self.shift(t)


class ShiftedExp:
    """Randomized schedule ``shift(t) + Z``, Z exponential of rate ``RATE``.

    Each draw consumes exactly one uniform and is never below the shift.
    """

    randomized = True

    def __post_init__(self):
        self.shift(1)  # out-of-range parameters fail at construction

    def draw(self, t: int, rng) -> float:
        return sample_shifted_exponential(self.shift(t), RATE, rng)

    def mean(self, t: int) -> float:
        return self.shift(t) + 1.0 / RATE

    def quantile(self, t: int, q: float) -> float:
        _check_level(q)
        return self.shift(t) - math.log(1.0 - q) / RATE


@dataclass(frozen=True)
class Constant(PointMass):
    """Fixed confidence value for every iteration."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ConfigurationError("constant confidence must be positive")

    def shift(self, t: int) -> float:
        return self.c


@dataclass(frozen=True)
class DeterministicUcb(PointMass):
    """Deterministic anytime width, growing like log t."""

    domain_size: int
    delta: float

    def shift(self, t: int) -> float:
        return beta_deterministic(self.domain_size, t, self.delta)


@dataclass(frozen=True)
class HeuristicUcb(PointMass):
    """Deterministic heuristic 0.2 d log(2 t)."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("dimension d must be >= 1")

    def shift(self, t: int) -> float:
        return heuristic_beta(self.d, t)


@dataclass(frozen=True)
class Replay(PointMass):
    """A fixed confidence sequence: iteration t takes ``values[t - 1]``.

    Replaying one realization of a randomized schedule conditions regret
    on the algorithm's randomness. Iterations past the sequence's end are
    rejected, so a run whose horizon exceeds it fails at configuration.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        seq = np.asarray(self.values, dtype=float).ravel()
        if not np.all(seq >= 0):
            raise ConfigurationError("replayed confidence values must be non-negative")
        object.__setattr__(self, "values", tuple(seq.tolist()))

    def shift(self, t: int) -> float:
        if not 1 <= t <= len(self.values):
            raise ConfigurationError(
                f"replayed sequence of {len(self.values)} values has no iteration {t}"
            )
        return self.values[t - 1]


@dataclass(frozen=True)
class ShiftedExpFinite(ShiftedExp):
    """Shifted exponential with constant shift 2 log(|X|/2) and rate 1/2.

    Rejected for |X| < 2 rather than clamped: the shift would be negative
    and the schedule is out of theory there.
    """

    domain_size: int

    def shift(self, t: int) -> float:
        return shift_finite(self.domain_size)


@dataclass(frozen=True)
class ShiftedExpContinuous(ShiftedExp):
    """Shifted exponential with the smoothness-constant shift, rate 1/2."""

    a: float
    b: float
    r: float
    d: int

    def shift(self, t: int) -> float:
        return shift_continuous(self.a, self.b, self.r, self.d, t)


@dataclass(frozen=True)
class ShiftedExpHighProb(ShiftedExp):
    """Shifted exponential whose shift is the anytime width, rate 1/2."""

    domain_size: int
    delta: float

    def shift(self, t: int) -> float:
        return beta_deterministic(self.domain_size, t, self.delta)


@dataclass(frozen=True)
class HeuristicShiftedExp(ShiftedExp):
    """Shifted exponential with shift d/2 and rate 1/2."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("dimension d must be >= 1")

    def shift(self, t: int) -> float:
        return self.d / 2.0


@dataclass(frozen=True)
class GammaRandomized:
    """Gamma-distributed confidence with iteration-growing shape.

    It has no deterministic component, so its shift is zero.
    """

    domain_size: int
    theta: float = 1.0

    randomized = True

    def __post_init__(self):
        if self.domain_size < 1:
            raise ConfigurationError("domain_size must be >= 1")
        if not self.theta > 0:
            raise ConfigurationError("theta must be positive")
        gamma_shape(self.domain_size, 1)  # fail early on |X| = 1

    def shift(self, t: int) -> float:
        return 0.0

    def draw(self, t: int, rng) -> float:
        return sample_gamma_confidence(self.domain_size, t, self.theta, rng)

    def mean(self, t: int) -> float:
        return self.theta * gamma_shape(self.domain_size, t)

    def quantile(self, t: int, q: float) -> float:
        """The level-q quantile theta P^-1(kappa_t, q) of Gamma(kappa_t, theta).

        P^-1 is the inverse regularized lower incomplete gamma function.
        This is the same double as ``scipy.stats.gamma.ppf(q, kappa_t,
        scale=theta)``, but leaves that module unloaded: loading it would
        be most of the package's start-up time.
        """
        _check_level(q)
        return float(gammaincinv(gamma_shape(self.domain_size, t), q) * self.theta)


ConfidenceSchedule = PointMass | ShiftedExp | GammaRandomized


def next_confidence(schedule: ConfidenceSchedule, t: int, rng) -> float:
    """Produce iteration t's confidence parameter.

    Deterministic variants ignore the generator; randomized ones advance it
    by exactly one draw, so a fixed seed reproduces the sequence.
    """
    if t < 1:
        raise ConfigurationError("iteration index must be >= 1")
    return schedule.draw(t, rng)
