"""Acquisition rules over a set of candidate points.

UCB, expected-improvement and improvement-probability scores of posterior
moments, and the posterior sample paths of Thompson sampling and PIMS,
drawn by pathwise conditioning: a prior path, with features and V from the
engine's posterior model, corrected by an exact-kernel data update. A
cached grid factor as the features makes the prior path, and with it the
posterior path, exact; elsewhere random Fourier features approximate the
prior path. Prior paths sharing their features are drawn as one block
(``draw_prior_paths``), one matrix product, with the random numbers in the
order one path at a time would draw them; a lower-triangular factor as
the features is multiplied in row blocks that skip its zero upper
triangle (``lower_product``). The data update's triangular solve is one
LAPACK call (``gp.solve_lower``). Ties always break toward the lowest
candidate index so selections are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from . import gp
from .errors import ConfigurationError
from .rng import as_generator

def ucb_scores(mean: np.ndarray, var: np.ndarray, confidence: float) -> np.ndarray:
    """UCB scores mu + sqrt(confidence) * sd for posterior moments (var >= 0)."""
    if confidence < 0:
        raise ConfigurationError("confidence must be non-negative")
    return mean + math.sqrt(confidence) * np.sqrt(var)


def expected_improvement(mean: np.ndarray, var: np.ndarray,
                         incumbent: float) -> np.ndarray:
    """Closed-form EI against ``incumbent`` (var >= 0); zero variance scores max(mu - inc, 0)."""
    sd = np.sqrt(var)
    gain = mean - incumbent
    pos = sd > 0.0
    if pos.all():
        return _ei_positive(gain, sd)
    out = np.maximum(gain, 0.0)
    out[pos] = _ei_positive(gain[pos], sd[pos])
    return out


def _ei_positive(gain: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """EI of each gain mu - incumbent at a positive sd, elementwise."""
    z = gain / sd
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return gain * ndtr(z) + sd * pdf


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


def draw_prior_paths(features: np.ndarray, n_obs: Sequence[int], noise_variance: float,
                     seed, row_block: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Prior paths and noise draws of a block of paths sharing ``features``.

    Path j draws z_j ~ N(0, I_M) and then eps_j ~ N(0, noise_variance I_n)
    with n = ``n_obs[j]``, in the order of j, so a block yields the numbers
    of its paths drawn one at a time. The prior paths phi z_j are the rows
    of one matrix product; a block of one is a mat-vec.

    A ``row_block`` declares ``features`` lower triangular, as a grid's
    prior factor is: the product is then taken over row blocks of that
    many rows (``lower_product``), which skips the zero upper triangle
    outside the diagonal blocks. It agrees with the dense product to
    rounding.

    Returns
    -------
    prior : ndarray, shape (len(n_obs), r)
    eps : list of ndarray, shapes (n_obs[j],)
    """
    rng = as_generator(seed)
    Z = np.empty((len(n_obs), features.shape[1]))
    sd = math.sqrt(noise_variance)
    eps = []
    for j, n in enumerate(n_obs):
        Z[j] = rng.standard_normal(features.shape[1])
        eps.append(rng.standard_normal(n) * sd)
    if row_block is not None and features.shape[0] > row_block:
        return lower_product(Z, features, row_block), eps
    if len(Z) == 1:
        return (features @ Z[0])[None, :], eps
    return Z @ features.T, eps


def lower_product(Z: np.ndarray, L: np.ndarray, rows: int) -> np.ndarray:
    """Z @ L.T for a lower-triangular L, block by block over ``rows`` rows of L.

    Columns [r0, r1) of the result are Z[:, :r1] @ L[r0:r1, :r1].T: no
    block reads L right of its own diagonal block, so the blocks together
    read about half of L, and each is one BLAS product of strided views,
    with no copy. ``engine.FACTOR_ROWS`` records the width the engine
    uses and the timings it was chosen by.
    """
    m = L.shape[0]
    out = np.empty((Z.shape[0], m))
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        np.matmul(Z[:, :r1], L[r0:r1, :r1].T, out=out[:, r0:r1])
    return out


def sample_posterior_path(state: gp.GpState, prior: np.ndarray, obs_rows: np.ndarray,
                          V: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Values at the candidates of one posterior sample path.

    Pathwise conditioning (Wilson et al. 2020, "Efficiently Sampling
    Functions from GP Posteriors"): a prior path f0 = phi w0 is corrected
    by an exact-kernel data update,

        f = f0(cand) + V^T L^-1 (y - f0(X) - eps),   V = L^-1 K(X, cand),

    with w0 ~ N(0, I_M) and eps ~ N(0, sigma^2 I_n) from
    ``draw_prior_paths``. The update uses the exact kernel, so the path's
    mean is the exact posterior mean. Its covariance is exact when
    phi phi^T is the prior Gram over the rows: with a grid's Cholesky
    factor as phi (M = m), f0 is an exact prior draw and f an exact
    posterior draw (Wilson et al. 2020, section 3). With random Fourier
    features the prior path's covariance carries the feature
    approximation. With no observations the path is the prior path.

    Parameters
    ----------
    state : GpState
        Observations X, y and the Cholesky factor L of K(X, X) + sigma^2 I.
    prior : ndarray, shape (r,)
        The prior path phi w0 over a point set whose first m = V.shape[1]
        rows are the candidates; the observed inputs are among its rows.
    obs_rows : ndarray of int, shape (n,)
        Row of ``prior`` for each observed input, in observation order.
    V : ndarray, shape (n, m)
    eps : ndarray, shape (n,)
        The observation-noise draw.
    """
    m = V.shape[1]
    if state.n_obs == 0:
        return prior[:m]
    resid = state.outputs - prior[obs_rows] - eps
    return prior[:m] + V.T @ gp.solve_lower(state.chol, resid)


def pims_scores(mean: np.ndarray, var: np.ndarray, f_star: float) -> np.ndarray:
    """Probability of improvement on ``f_star`` for posterior moments (var >= 0)."""
    sd = np.sqrt(var)
    pos = sd > 0.0
    if pos.all():
        return ndtr((mean - f_star) / sd)
    out = (mean >= f_star).astype(float)
    out[pos] = ndtr((mean[pos] - f_star) / sd[pos])
    return out
