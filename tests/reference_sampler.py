"""Random-feature TS and PIMS selectors rebuilt from scratch at every call.

The engine keeps its sampler inputs (features, observed rows, V) in its
posterior models and updates them as observations arrive. These selectors
recompute all of them from the state and the candidates, so the engine
replay tests can check the engine's selections against them.
"""

import numpy as np

from randbo import gp
from randbo.acquisition import (
    draw_prior_paths,
    pims_scores,
    rff_features,
    sample_posterior_path,
)


def path_inputs(state, rff, pts):
    """``sample_posterior_path`` inputs for arbitrary candidate points.

    Features of the candidates stacked over the observed inputs, the rows of
    the latter, and V = L^-1 K(X, pts).
    """
    m, n = pts.shape[0], state.n_obs
    features = rff_features(rff, np.vstack([pts, state.inputs]))
    return features, np.arange(m, m + n), gp.cross_solve(state, pts)


def fresh_path(state, rff, pts, seed):
    features, rows, V = path_inputs(state, rff, pts)
    prior, eps = draw_prior_paths(features, [state.n_obs], state.noise_variance, seed)
    return sample_posterior_path(state, prior[0], rows, V, eps[0])


def ts_select(state, rff, pts, seed) -> int:
    """Argmax over ``pts`` of one random-feature posterior sample path."""
    return int(np.argmax(fresh_path(state, rff, pts, seed)))


def pims_select(state, rff, pts, seed) -> int:
    """Probability-of-improvement selection thresholded at a sampled path's max.

    Draws one path, takes its maximum over ``pts`` as the improvement
    threshold, then maximizes Phi((mu - threshold)/sd). Zero-variance points
    score 1 when mu clears the threshold and 0 otherwise.
    """
    f_star = float(np.max(fresh_path(state, rff, pts, seed)))
    mean, var = gp.posterior_batch(state, pts)
    return int(np.argmax(pims_scores(mean, var, f_star)))
