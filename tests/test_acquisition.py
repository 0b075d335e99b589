"""Tests for acquisition scores and selectors and the pathwise posterior sampler."""

import math

import numpy as np
import pytest

from randbo import acquisition as acq
from randbo import gp
from randbo.errors import ConfigurationError
from reference_sampler import path_inputs, pims_select, ts_select

SE = lambda dim, ell=1.0: gp.KernelSpec.isotropic("squared_exponential", ell, dim)


def state_with(kernel, X, y, noise):
    return gp.batch_state(kernel, X, y, noise)


class TestUcbSelect:
    def test_zero_confidence_is_greedy(self):
        kernel = SE(1, ell=0.5)
        state = state_with(kernel, [[0.0], [1.0]], [2.0, -1.0], 1e-6)
        pts = np.array([[0.0], [0.5], [1.0]])
        mean, var = gp.posterior_batch(state, pts)
        idx = int(np.argmax(acq.ucb_scores(mean, var, 0.0)))
        assert idx == int(np.argmax(mean)) == 0

    def test_empty_state_picks_highest_prior_sd(self):
        cov = np.diag([0.25, 1.0, 0.49])
        kernel = gp.ExplicitKernel(cov)
        state = gp.empty_state(kernel, 1e-4)
        scores = acq.ucb_scores(*gp.posterior_batch(state, [[0.0], [1.0], [2.0]]), 4.0)
        idx = int(np.argmax(scores))
        assert idx == 1
        assert scores[idx] == pytest.approx(2.0 * 1.0)

    def test_two_point_lock_in_under_event(self):
        # Explicit prior [[1, 0], [0, 0.99]]; large first value, bounded noise
        # averages: a constant confidence keeps selecting the first point.
        c = 1.0
        f = np.array([3.0, 4.1])
        kernel = gp.ExplicitKernel(np.array([[1.0, 0.0], [0.0, 0.99]]))
        pts = np.array([[0.0], [1.0]])
        state = gp.empty_state(kernel, 1.0)
        for t in range(60):
            idx = int(np.argmax(acq.ucb_scores(*gp.posterior_batch(state, pts), c)))
            assert idx == 0, f"switched away at t={t}"
            state = gp.incremental_update(state, [0.0], f[0])  # zero-noise draws

    def test_tie_breaks_to_lowest_index(self):
        kernel = gp.ExplicitKernel(np.eye(3))
        state = gp.empty_state(kernel, 1.0)
        scores = acq.ucb_scores(*gp.posterior_batch(state, [[0.0], [1.0], [2.0]]), 1.0)
        assert int(np.argmax(scores)) == 0

    def test_negative_confidence_rejected(self):
        state = gp.empty_state(SE(1), 1.0)
        with pytest.raises(ConfigurationError):
            acq.ucb_scores(*gp.posterior_batch(state, [[0.0]]), -0.1)

    def test_mean_shift_leaves_argmax(self):
        rng = np.random.default_rng(42)
        mean = rng.normal(size=25)
        var = rng.uniform(0.01, 1.0, size=25)
        base = np.argmax(acq.ucb_scores(mean, var, 2.0))
        shifted = np.argmax(acq.ucb_scores(mean + 13.7, var, 2.0))
        assert base == shifted

    def test_confidence_threshold_monotone(self):
        # candidate A: higher sd, lower mean; B: the reverse. Above some
        # confidence A wins and keeps winning.
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = np.array([0.0, rng.uniform(0.1, 1.0)])
            sd = np.array([rng.uniform(0.6, 1.0), rng.uniform(0.05, 0.3)])
            pick = lambda c: int(np.argmax(acq.ucb_scores(mu, sd**2, c)))
            assert pick(0.0) == 1
            lo, hi = 0.0, 1e6
            assert pick(hi) == 0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if pick(mid) == 0:
                    hi = mid
                else:
                    lo = mid
            for c in np.linspace(hi, hi * 10 + 1, 25):
                assert pick(c) == 0


class TestEiSelect:
    def test_standard_normal_density_at_zero_gain(self):
        scores = acq.expected_improvement(np.array([0.0]), np.array([1.0]), 0.0)
        assert scores[0] == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_zero_variance_degenerate(self):
        mean = np.array([-1.0, -0.5, 0.0])
        scores = acq.expected_improvement(mean, np.zeros(3), 0.0)
        np.testing.assert_array_equal(scores, np.zeros(3))
        state = gp.empty_state(gp.ExplicitKernel(np.eye(3) * 1e-30), 1e-9)
        scores = acq.expected_improvement(*gp.posterior_batch(state, [[0.0], [1.0], [2.0]]),
                                          5.0)
        idx = int(np.argmax(scores))
        assert idx == 0 and scores[idx] == pytest.approx(0.0, abs=1e-12)

    def test_prefers_higher_sd_below_incumbent(self):
        mean = np.array([0.0, 0.0])
        var = np.array([0.1**2, 1.0])
        scores = acq.expected_improvement(mean, var, 1.0)
        assert scores[1] > scores[0]

    def test_positive_gain_dominates(self):
        scores = acq.expected_improvement(np.array([3.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        assert np.argmax(scores) == 0
        assert scores[0] == pytest.approx(2.0)


class TestBuildRff:
    def test_gram_error_small_at_2000_features(self):
        # Monte-Carlo bound at a pinned seed; the estimator's max-error over
        # a 20x20 Gram sits near 0.05 at M=2000, so the seed is part of the
        # test contract (the M-scaling test below covers seed robustness).
        kernel = SE(3, ell=1.0)
        rff = acq.build_rff(kernel, 2000, seed=3)
        rng = np.random.default_rng(1)
        probes = rng.uniform(-1, 1, size=(20, 3))
        exact = gp.kernel_matrix(kernel, probes)
        feats = acq.rff_features(rff, probes)
        approx = feats @ feats.T
        assert np.max(np.abs(approx - exact)) < 0.05

    def test_deterministic_given_seed(self):
        a = acq.build_rff(SE(2), 64, seed=9)
        b = acq.build_rff(SE(2), 64, seed=9)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_frequency_scale_matches_inverse_lengthscale(self):
        rff = acq.build_rff(SE(2, ell=0.1), 2000, seed=3)
        stds = rff.frequencies.std(axis=0, ddof=1)
        np.testing.assert_allclose(stds, 10.0, rtol=0.05)

    def test_matern_gram_reasonable(self):
        kernel = gp.KernelSpec.isotropic("matern52", 0.8, 2)
        rff = acq.build_rff(kernel, 4000, seed=0)
        rng = np.random.default_rng(5)
        probes = rng.uniform(-1, 1, size=(15, 2))
        exact = gp.kernel_matrix(kernel, probes)
        feats = acq.rff_features(rff, probes)
        assert np.max(np.abs(feats @ feats.T - exact)) < 0.08

    def test_error_shrinks_with_more_features(self):
        kernel = SE(2, ell=0.5)
        rng = np.random.default_rng(11)
        probes = rng.uniform(-1, 1, size=(20, 2))
        exact = gp.kernel_matrix(kernel, probes)
        wins = 0
        for seed in range(20):
            err = {}
            for m in (250, 4000):
                feats = acq.rff_features(acq.build_rff(kernel, m, seed), probes)
                err[m] = np.max(np.abs(feats @ feats.T - exact))
            wins += err[4000] <= err[250]
        assert wins >= 19

    def test_explicit_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            acq.build_rff(gp.ExplicitKernel(np.eye(2)), 10, 0)


def conditioned_paths(state, features, rows, V, count, seed):
    """``count`` posterior paths from one block of prior draws, one row each."""
    prior, eps = acq.draw_prior_paths(features, [state.n_obs] * count,
                                      state.noise_variance, np.random.default_rng(seed))
    return np.stack([acq.sample_posterior_path(state, p, rows, V, e)
                     for p, e in zip(prior, eps)])


def draw_paths(state, rff, pts, count, seed=0):
    """``count`` sample paths at ``pts`` from one generator, one row each."""
    inputs = path_inputs(state, rff, np.asarray(pts, dtype=float))
    return conditioned_paths(state, *inputs, count, seed)


class TestSamplePosteriorPath:
    def test_empty_state_prior_weights(self):
        # With no data the path is phi(cand) w0; 16 probes give phi full
        # column rank at M = 8, so the weights are recovered exactly.
        rff = acq.build_rff(SE(1), 8, seed=0)
        state = gp.empty_state(SE(1), 1e-4)
        probes = np.linspace(-2.0, 2.0, 16)[:, None]
        draws = draw_paths(state, rff, probes, 10000)
        weights = np.linalg.lstsq(acq.rff_features(rff, probes), draws.T, rcond=None)[0]
        var = weights.var(axis=1, ddof=1)
        assert np.all(var > 0.94) and np.all(var < 1.06)

    def test_prior_path_variance_matches_approximate_kernel(self):
        kernel = SE(2, ell=0.7)
        rff = acq.build_rff(kernel, 400, seed=2)
        state = gp.empty_state(kernel, 1e-4)
        probe = np.array([[0.3, -0.2]])
        phi = acq.rff_features(rff, probe)[0]
        khat = float(phi @ phi)
        vals = draw_paths(state, rff, probe, 10000)[:, 0]
        assert vals.var(ddof=1) == pytest.approx(khat, abs=0.05)

    def test_near_interpolation_at_tiny_noise(self):
        kernel = SE(1)
        rff = acq.build_rff(kernel, 2000, seed=4)
        state = gp.batch_state(kernel, [[0.3]], [1.7], 1e-8)
        for seed in range(100):
            [[val]] = draw_paths(state, rff, [[0.3]], 1, seed=seed)
            assert abs(val - 1.7) < 0.01

    def test_formula_and_draw_order(self):
        # f = phi(cand) w0 + K(cand, X) (K + noise I)^-1 (y - phi(X) w0 - eps),
        # with w0 (M normals) drawn before eps (n normals) from one stream.
        kernel = SE(1, ell=0.5)
        rff = acq.build_rff(kernel, 32, seed=1)
        noise = 1e-2
        X, y = np.array([[-0.4], [0.5]]), np.array([0.3, -1.1])
        state = gp.batch_state(kernel, X, y, noise)
        pts = np.linspace(-1.0, 1.0, 7)[:, None]
        rng = np.random.default_rng(11)
        w0 = rng.standard_normal(32)
        eps = rng.standard_normal(2) * math.sqrt(noise)
        gain = np.linalg.solve(gp.kernel_matrix(kernel, X) + noise * np.eye(2),
                               gp.kernel_matrix(kernel, X, pts)).T
        expected = (acq.rff_features(rff, pts) @ w0
                    + gain @ (y - acq.rff_features(rff, X) @ w0 - eps))
        np.testing.assert_allclose(draw_paths(state, rff, pts, 1, seed=11)[0], expected,
                                   rtol=1e-10, atol=1e-12)

    def test_monte_carlo_moments_match_exact_posterior(self):
        # The data update uses the exact kernel, so the path mean is the
        # exact posterior mean at any feature count. The weight-space
        # sampler this replaced (phi(cand) times a draw from the feature
        # model's weight posterior) fails this check at M = 256: its mean
        # misses posterior_batch by up to 0.21 here, about 30 SE.
        kernel = SE(1, ell=0.5)
        rff = acq.build_rff(kernel, 256, seed=0)
        noise = 1e-2
        X = np.array([[-1.0], [0.2], [1.1]])
        state = gp.batch_state(kernel, X, [0.8, -0.5, 1.3], noise)
        pts = np.linspace(-2.0, 2.0, 25)[:, None]
        draws = draw_paths(state, rff, pts, 20000, seed=7)
        mean, var = gp.posterior_batch(state, pts)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.0 * se)
        # Variance: exact up to the feature approximation of the prior path
        # (k_hat(x, x) - 1 has sd 1/sqrt(2M) = 0.044 per point) ...
        path_var = draws.var(axis=0, ddof=1)
        np.testing.assert_allclose(path_var, var, atol=0.15)
        # ... and, to Monte-Carlo error (sd about 1% of the variance), the
        # sampler's own covariance: f = B w0 - G eps + G y with
        # G = K(cand, X) (K + noise I)^-1 and B = phi(cand) - G phi(X).
        G = np.linalg.solve(gp.kernel_matrix(kernel, X) + noise * np.eye(3),
                            gp.kernel_matrix(kernel, X, pts)).T
        B = acq.rff_features(rff, pts) - G @ acq.rff_features(rff, X)
        expected = np.sum(B * B, axis=1) + noise * np.sum(G * G, axis=1)
        np.testing.assert_allclose(path_var, expected, rtol=0.05, atol=1e-6)


    @pytest.mark.usefixtures("fresh_prior_cache")
    def test_grid_factor_gives_exact_posterior_covariance(self):
        # With the grid's cached prior factor as the features (L L^T = K)
        # the path is an exact posterior draw: its mean is posterior_batch's
        # and its full covariance is K(c, c) - V^T V, entrywise to within
        # 5 Monte-Carlo SE, SE_ij = sqrt((C_ii C_jj + C_ij^2) / n).
        kernel = SE(1, ell=0.5)
        pts = np.linspace(-2.0, 2.0, 25)[:, None]
        rows = np.array([6, 13, 19])
        state = gp.batch_state(kernel, pts[rows], [0.8, -0.5, 1.3], 1e-2)
        factor = gp.prior_data(kernel, pts, factor=True).factor
        V = gp.cross_solve(state, pts)
        n = 20000
        draws = conditioned_paths(state, factor, rows, V, n, seed=7)
        mean, _ = gp.posterior_batch(state, pts)
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.0 * se)
        C = gp.kernel_matrix(kernel, pts) - V.T @ V
        d = np.diagonal(C)
        mc_se = np.sqrt((np.outer(d, d) + C * C) / n)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - C) <= 5.0 * mc_se)


class TestTsSelect:
    def test_singleton(self):
        rff = acq.build_rff(SE(1), 32, seed=0)
        state = gp.empty_state(SE(1), 1e-4)
        assert ts_select(state, rff, np.array([[0.5]]), 3) == 0

    def test_symmetric_prior_balanced(self):
        kernel = SE(1, ell=0.5)
        rff = acq.build_rff(kernel, 256, seed=0)
        state = gp.empty_state(kernel, 1e-4)
        cands = np.array([[0.0], [10.0]])  # effectively independent
        picks = np.array([ts_select(state, rff, cands, s) for s in range(10000)])
        assert picks.mean() == pytest.approx(0.5, abs=0.02)

    def test_dominant_observation_wins(self):
        kernel = SE(1, ell=0.5)
        rff = acq.build_rff(kernel, 512, seed=1)
        state = gp.batch_state(kernel, [[0.0]], [5.0], 1e-4)
        cands = np.array([[0.0], [10.0]])
        picks = np.array([ts_select(state, rff, cands, s) for s in range(1000)])
        assert np.mean(picks == 0) > 0.95


class TestPimsSelect:
    def test_singleton(self):
        rff = acq.build_rff(SE(1), 32, seed=0)
        state = gp.empty_state(SE(1), 1e-4)
        assert pims_select(state, rff, np.array([[0.5]]), 3) == 0

    def test_exchangeable_candidates_tie_to_lowest_index(self):
        # With no data the posterior moments are identical across candidates,
        # so improvement scores tie exactly and the lowest index wins; the
        # sampled threshold cannot reorder equal scores.
        kernel = SE(1, ell=0.5)
        rff = acq.build_rff(kernel, 256, seed=0)
        state = gp.empty_state(kernel, 1e-4)
        cands = np.array([[0.0], [10.0]])
        picks = {pims_select(state, rff, cands, s) for s in range(50)}
        assert picks == {0}

    def test_asymmetric_posterior_breaks_tie_both_ways(self):
        # Same geometry with one observation: the unexplored candidate keeps
        # prior variance and wins when thresholds are high; selection is no
        # longer constant across path draws.
        kernel = SE(1, ell=0.5)
        rff = acq.build_rff(kernel, 512, seed=0)
        state = gp.batch_state(kernel, [[0.0]], [0.5], 1e-2)
        cands = np.array([[0.0], [10.0]])
        picks = np.array([pims_select(state, rff, cands, s) for s in range(400)])
        assert {0, 1} == set(picks.tolist())

    def test_score_half_at_threshold(self):
        scores = acq.pims_scores(np.array([1.0]), np.array([0.25]), 1.0)
        assert scores[0] == pytest.approx(0.5)

    def test_zero_sd_scores(self):
        scores = acq.pims_scores(np.array([2.0, 0.5]), np.zeros(2), 1.0)
        np.testing.assert_array_equal(scores, [1.0, 0.0])
