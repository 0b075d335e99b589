"""Confidence-parameter schedules for UCB acquisition.

Each schedule is a frozen dataclass on the one base ``Schedule``: it writes
its formula once, as ``shift(t)``, and checks its parameters once, when
built. The base derives ``draw(t, rng)``, ``mean(t)`` and ``quantile(t, q)``
from the shift: a point mass there for the deterministic widths, the shift
plus Exp(``RATE``) for the classes that set ``randomized``. The
Gamma-randomized width has no shift and defines its own three from
``shape(t)``; its quantile is ``scipy.special.gammaincinv`` times the scale,
the same double as ``scipy.stats.gamma.ppf``, without loading
``scipy.stats``. The regret bounds in ``analysis`` read their shifts from
these classes. Every randomized draw advances the generator exactly once,
so a fixed generator state maps one-to-one onto a draw sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .errors import ConfigurationError

RATE = 0.5  # exponential rate shared by every shifted-exponential variant


def _check_level(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ConfigurationError("quantile level must lie in (0, 1)")


def _check_generator(rng) -> None:
    # Seeding a fresh generator from an integer on every call would repeat
    # one value at every iteration, so only a running generator is taken.
    if not isinstance(rng, np.random.Generator):
        raise ConfigurationError(
            f"a schedule draws from a numpy Generator, not {type(rng).__name__}"
        )


class Schedule:
    """Iteration t's value is ``shift(t)``, plus Z ~ Exp(``RATE``) when
    the class sets ``randomized``.

    A draw takes a ``np.random.Generator`` and rejects anything else,
    whatever the class. A deterministic draw leaves the generator untouched
    and every quantile equals the mean. A randomized draw consumes exactly
    one uniform, by inverse transform, and is never below the shift.
    """

    randomized = False

    def shift(self, t: int) -> float:
        raise NotImplementedError

    def draw(self, t: int, rng: np.random.Generator) -> float:
        _check_generator(rng)
        s = self.shift(t)
        if not self.randomized:
            return s
        # 1 - random() lies in (0, 1], keeping the log finite.
        return s - math.log(1.0 - rng.random()) / RATE

    def mean(self, t: int) -> float:
        s = self.shift(t)
        return s + 1.0 / RATE if self.randomized else s

    def quantile(self, t: int, q: float) -> float:
        _check_level(q)
        s = self.shift(t)
        return s - math.log(1.0 - q) / RATE if self.randomized else s


@dataclass(frozen=True)
class Constant(Schedule):
    """Fixed confidence value for every iteration."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ConfigurationError("constant confidence must be positive")

    def shift(self, t: int) -> float:
        return self.c


@dataclass(frozen=True)
class DeterministicUcb(Schedule):
    """Anytime union-bound width 2 log(|X| t^2 pi^2 / (6 delta)), growing like log t."""

    domain_size: int
    delta: float

    def __post_init__(self):
        if self.domain_size < 1:
            raise ConfigurationError("domain_size must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")

    def shift(self, t: int) -> float:
        return 2.0 * math.log(self.domain_size * t * t * math.pi**2 / (6.0 * self.delta))


@dataclass(frozen=True)
class ShiftedExpHighProb(DeterministicUcb):
    """Shifted exponential whose shift is the anytime width, rate 1/2."""

    randomized = True


@dataclass(frozen=True)
class _DimensionScaled(Schedule):
    """A heuristic whose only parameter is the dimension d >= 1."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("dimension d must be >= 1")


@dataclass(frozen=True)
class HeuristicUcb(_DimensionScaled):
    """Deterministic heuristic 0.2 d log(2 t)."""

    def shift(self, t: int) -> float:
        return 0.2 * self.d * math.log(2.0 * t)


@dataclass(frozen=True)
class Replay(Schedule):
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
class ShiftedExpFinite(Schedule):
    """Shifted exponential with constant shift 2 log(|X|/2) and rate 1/2.

    Rejected for |X| < 2 rather than clamped: the shift would be negative
    and the schedule is out of theory there.
    """

    domain_size: int

    randomized = True

    def __post_init__(self):
        if self.domain_size < 2:
            raise ConfigurationError(
                "shifted-exponential schedule needs a domain of at least 2 points"
            )

    def shift(self, t: int) -> float:
        return 2.0 * math.log(self.domain_size / 2.0)


@dataclass(frozen=True)
class ShiftedExpContinuous(Schedule):
    """Shifted exponential with the smoothness-constant shift, rate 1/2.

    The shift 2 d log(b d r t^2 (sqrt(log(a d)) + sqrt(pi)/2)) - 2 log 2 is
    monotone non-decreasing in t.
    """

    a: float
    b: float
    r: float
    d: int

    randomized = True

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.r > 0):
            raise ConfigurationError("smoothness constants a, b, r must be positive")
        if self.d < 1:
            raise ConfigurationError("dimension d must be >= 1")
        if self.a * self.d <= 1.0:
            raise ConfigurationError("need a*d > 1 so sqrt(log(a d)) is defined")
        try:  # the log's argument grows with t, so t = 1 is its smallest
            self.shift(1)
        except ValueError:  # b d r underflowed to zero
            raise ConfigurationError("shift argument must be positive") from None

    def shift(self, t: int) -> float:
        a, b, r, d = self.a, self.b, self.r, self.d
        inner = b * d * r * t * t * (math.sqrt(math.log(a * d)) + math.sqrt(math.pi) / 2.0)
        return 2.0 * d * math.log(inner) - 2.0 * math.log(2.0)


@dataclass(frozen=True)
class HeuristicShiftedExp(_DimensionScaled):
    """Shifted exponential with shift d/2 and rate 1/2."""

    randomized = True

    def shift(self, t: int) -> float:
        return self.d / 2.0


@dataclass(frozen=True)
class GammaRandomized(Schedule):
    """Gamma(``shape(t)``, scale theta) confidence with iteration-growing shape.

    It has no deterministic component, so its shift is zero.
    """

    domain_size: int
    theta: float = 1.0

    randomized = True

    def __post_init__(self):
        # The shape is positive for every t >= 1 exactly when |X| >= 2.
        if self.domain_size < 2:
            raise ConfigurationError("Gamma shape requires |X| t^2 > 1, so |X| >= 2")
        if not self.theta > 0:
            raise ConfigurationError("theta must be positive")

    def shape(self, t: int) -> float:
        """Gamma shape log(|X| t^2) / log(1.5)."""
        return math.log(self.domain_size * t * t) / math.log(1.5)

    def shift(self, t: int) -> float:
        return 0.0

    def draw(self, t: int, rng: np.random.Generator) -> float:
        _check_generator(rng)
        return float(rng.gamma(shape=self.shape(t), scale=self.theta))

    def mean(self, t: int) -> float:
        return self.theta * self.shape(t)

    def quantile(self, t: int, q: float) -> float:
        """The level-q quantile theta P^-1(kappa_t, q) of Gamma(kappa_t, theta).

        P^-1 is the inverse regularized lower incomplete gamma function.
        This is the same double as ``scipy.stats.gamma.ppf(q, kappa_t,
        scale=theta)``, but leaves that module unloaded: loading it would
        be most of the package's start-up time.
        """
        _check_level(q)
        return float(gammaincinv(self.shape(t), q) * self.theta)


def next_confidence(schedule: Schedule, t: int, rng: np.random.Generator) -> float:
    """Produce iteration t's confidence parameter.

    ``rng`` must be a ``np.random.Generator``; any other type, an integer
    seed included, raises ConfigurationError. Deterministic variants ignore
    the generator; randomized ones advance it by exactly one draw, so
    generators started from one state reproduce the sequence.
    """
    if t < 1:
        raise ConfigurationError("iteration index must be >= 1")
    return schedule.draw(t, rng)
