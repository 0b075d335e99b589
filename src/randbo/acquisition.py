"""Acquisition rules over a set of candidate points.

UCB, expected-improvement and improvement-probability scores of posterior
moments, and the posterior sample paths of Thompson sampling and PIMS,
drawn by decoupled pathwise conditioning: a random-Fourier-feature prior
path corrected by an exact-kernel data update. Ties always break toward the
lowest candidate index so selections are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr

from . import gp
from .errors import ConfigurationError
from .rng import as_generator

def ucb_scores(mean: np.ndarray, var: np.ndarray, confidence: float) -> np.ndarray:
    """UCB scores mu + sqrt(confidence) * sd for posterior moments."""
    if confidence < 0:
        raise ConfigurationError("confidence must be non-negative")
    return mean + math.sqrt(confidence) * np.sqrt(np.maximum(var, 0.0))


def expected_improvement(mean: np.ndarray, var: np.ndarray,
                         incumbent: float) -> np.ndarray:
    """Closed-form EI against ``incumbent``; zero-variance points score max(mu - inc, 0)."""
    sd = np.sqrt(np.maximum(var, 0.0))
    gain = mean - incumbent
    out = np.maximum(gain, 0.0)
    pos = sd > 0.0
    if np.any(pos):
        z = gain[pos] / sd[pos]
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        out[pos] = gain[pos] * ndtr(z) + sd[pos] * pdf
    return out


@dataclass(frozen=True)
class RffModel:
    """Random cosine feature map approximating a stationary kernel.

    The implied kernel is phi(x) . phi(x') with
    phi(x) = scale * cos(frequencies @ x + phases),
    scale = sqrt(2 * signal_variance / num_features).
    """

    num_features: int
    frequencies: np.ndarray  # (M, d)
    phases: np.ndarray       # (M,)
    scale: float


def build_rff(kernel: gp.KernelSpec, num_features: int, seed) -> RffModel:
    """Draw feature frequencies from the kernel's spectral density.

    Squared-exponential kernels use Gaussian frequencies with per-axis
    standard deviation 1/lengthscale; Matern-nu kernels use multivariate
    Student-t frequencies with 2 nu degrees of freedom. Deterministic given
    the seed.
    """
    if not isinstance(kernel, gp.KernelSpec):
        raise ConfigurationError("random Fourier features need a stationary kernel family")
    if num_features < 1:
        raise ConfigurationError("num_features must be >= 1")
    rng = as_generator(seed)
    base = rng.standard_normal((num_features, kernel.dim)) / kernel.lengthscales
    if kernel.family == gp.SQUARED_EXPONENTIAL:
        freqs = base
    else:
        df = 5.0 if kernel.family == gp.MATERN52 else 3.0
        u = rng.chisquare(df, size=num_features) / df
        freqs = base / np.sqrt(u)[:, None]
    phases = rng.uniform(0.0, 2.0 * math.pi, size=num_features)
    scale = math.sqrt(2.0 * kernel.signal_variance / num_features)
    return RffModel(num_features, freqs, phases, scale)


def rff_features(rff: RffModel, X) -> np.ndarray:
    """Feature matrix phi(X), shape (n, M)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    # In place: a 1000-point grid at M = 2000 is a 16 MB matrix, and the
    # temporaries of the plain expression would double the peak.
    out = X @ rff.frequencies.T
    out += rff.phases
    np.cos(out, out=out)
    out *= rff.scale
    return out


def sample_posterior_path(state: gp.GpState, features: np.ndarray,
                          obs_rows: np.ndarray, V: np.ndarray, seed) -> np.ndarray:
    """Values at the candidates of one posterior sample path.

    Decoupled pathwise conditioning (Wilson et al. 2020, "Efficiently
    Sampling Functions from GP Posteriors"): a random-feature prior path
    f0 = phi w0 is corrected by an exact-kernel data update,

        f = f0(cand) + V^T L^-1 (y - f0(X) - eps),   V = L^-1 K(X, cand),

    with w0 ~ N(0, I_M) drawn first and eps ~ N(0, sigma^2 I_n) second.
    The update uses the exact kernel, so the path's mean is the exact
    posterior mean; only the prior path's covariance carries the feature
    approximation. With no observations the path is the prior path.

    Parameters
    ----------
    state : GpState
        Observations X, y and the Cholesky factor L of K(X, X) + sigma^2 I.
    features : ndarray, shape (r, M)
        phi over a point set whose first m = V.shape[1] rows are the
        candidates; the observed inputs are among its rows.
    obs_rows : ndarray of int, shape (n,)
        Row of ``features`` for each observed input, in observation order.
    V : ndarray, shape (n, m)
    seed : int or numpy Generator
    """
    rng = as_generator(seed)
    prior = features @ rng.standard_normal(features.shape[1])
    m = V.shape[1]
    n = state.n_obs
    if n == 0:
        return prior[:m]
    eps = rng.standard_normal(n) * math.sqrt(state.noise_variance)
    resid = state.outputs - prior[obs_rows] - eps
    return prior[:m] + V.T @ solve_triangular(state.chol, resid, lower=True,
                                              check_finite=False)


def path_inputs(state: gp.GpState, rff: RffModel,
                pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sample_posterior_path`` inputs for arbitrary candidate points.

    Features of the candidates stacked over the observed inputs, the rows of
    the latter, and V = L^-1 K(X, pts). Callers holding these for a fixed
    grid pass them directly instead.
    """
    m, n = pts.shape[0], state.n_obs
    features = rff_features(rff, np.vstack([pts, state.inputs]))
    return features, np.arange(m, m + n), gp.cross_solve(state, pts)


def ts_select(state: gp.GpState, rff: RffModel, pts: np.ndarray, seed) -> int:
    """Argmax over ``pts`` of one posterior sample path.

    The engine replay tests' fresh-input reference: ``path_inputs`` rebuilds its inputs.
    """
    return int(np.argmax(sample_posterior_path(state, *path_inputs(state, rff, pts), seed)))


def pims_select(state: gp.GpState, rff: RffModel, pts: np.ndarray, seed) -> int:
    """Probability-of-improvement selection thresholded at a sampled path's max.

    Draws one path, takes its maximum over ``pts`` as the improvement
    threshold, then maximizes Phi((mu - threshold)/sd). Zero-variance points
    score 1 when mu clears the threshold and 0 otherwise. Like ``ts_select``,
    a fresh-input reference: ``path_inputs`` and ``posterior_batch`` rebuild it.
    """
    f_star = float(np.max(sample_posterior_path(state, *path_inputs(state, rff, pts), seed)))
    mean, var = gp.posterior_batch(state, pts)
    return int(np.argmax(pims_scores(mean, var, f_star)))


def pims_scores(mean: np.ndarray, var: np.ndarray, f_star: float) -> np.ndarray:
    sd = np.sqrt(np.maximum(var, 0.0))
    out = (mean >= f_star).astype(float)
    pos = sd > 0.0
    out[pos] = ndtr((mean[pos] - f_star) / sd[pos])
    return out
