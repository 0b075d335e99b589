"""Tests for the sequential optimization driver and replication runner."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from randbo import engine, gp
from randbo.acquisition import (
    build_rff,
    draw_prior_paths,
    expected_improvement,
    pims_scores,
    rff_features,
    sample_posterior_path,
    ucb_scores,
)
from randbo.analysis import CounterexampleSampler
from randbo.confidence import Constant, Replay, ShiftedExpFinite, next_confidence
from randbo.engine import (
    ContinuousInstance,
    FiniteInstance,
    FixedInstanceSampler,
    RunConfig,
    SharedInstanceSampler,
    run_bo,
    run_replications,
)
from randbo.errors import ConfigurationError, NumericalError
from randbo.rng import (
    CANDIDATES,
    CONFIDENCE,
    FEATURES,
    INSTANCE,
    NOISE,
    PATHS,
    substream,
)
from reference_sampler import pims_select, ts_select


def se(dim, ell=0.4):
    return gp.KernelSpec.isotropic("squared_exponential", ell, dim)


def random_instance(seed, m=20, dim=2, noise=0.05):
    rng = np.random.default_rng(seed)
    pts = rng.random((m, dim))
    vals = gp.sample_prior(se(dim), pts, rng)
    return FiniteInstance(pts, vals, noise)


def ucb_config(horizon, m, **kw):
    return RunConfig(kernel=se(kw.pop("dim", 2)), horizon=horizon,
                     schedule=ShiftedExpFinite(m), noise_variance=1e-3, **kw)


def _objective(x):
    return float(-np.sum((x - 0.25) ** 2))


class TestProblemInstance:
    """The two instance kinds, FiniteInstance and ContinuousInstance."""

    def test_finite_factory_consistency(self):
        inst = random_instance(0)
        assert inst.optimum_value == inst.true_values.max()
        assert inst.true_values[inst.optimum_index] == inst.optimum_value

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            FiniteInstance(np.empty((0, 2)), np.empty(0), 0.0)

    def test_one_dim_promotion(self):
        inst = FiniteInstance([0.0, 1.0, 2.0], [0.0, 2.0, 1.0], 0.0)
        assert inst.points.shape == (3, 1) and inst.dim == 1
        assert not inst.points.flags.writeable and not inst.true_values.flags.writeable

    def test_finite_rejects_non_finite_values(self):
        with pytest.raises(ConfigurationError):
            FiniteInstance([[0.0], [1.0]], [float("inf"), 0.0], 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_finite_rejects_non_finite_points(self, bad):
        with pytest.raises(ConfigurationError):
            FiniteInstance([[0.0, 1.0], [1.0, bad]], [0.0, 1.0], 0.0)

    def test_finite_rejects_misaligned_values_and_negative_noise(self):
        with pytest.raises(ConfigurationError):
            FiniteInstance([[0.0], [1.0]], [0.0], 0.0)
        with pytest.raises(ConfigurationError):
            FiniteInstance([[0.0], [1.0]], [0.0, 1.0], -0.1)

    @pytest.mark.parametrize("dim, count, optimum, noise", [
        (0, 4, 0.0, 0.0),
        (2, 0, 0.0, 0.0),
        (2, 4, float("nan"), 0.0),
        (2, 4, float("inf"), 0.0),
        (2, 4, 0.0, -0.1),
    ], ids=["dim", "candidate_count", "nan_optimum", "inf_optimum", "noise"])
    def test_continuous_rejects(self, dim, count, optimum, noise):
        with pytest.raises(ConfigurationError):
            ContinuousInstance(_objective, dim, count, optimum, noise)

    def test_continuous_design_is_a_count(self):
        inst = ContinuousInstance(_objective, 2, 8, 0.0, 0.0)
        cfg = ucb_config(3, 8, initial_design=[[0.1, 0.2]])
        with pytest.raises(ConfigurationError):
            run_bo(inst, cfg, 0)


class TestRunBo:
    def test_singleton_domain_zero_regret(self):
        inst = FiniteInstance([[0.0]], [2.5], 0.0)
        cfg = RunConfig(kernel=se(1), horizon=1, schedule=Constant(1.0),
                        noise_variance=1e-3)
        trace = run_bo(inst, cfg, 0)
        assert trace.selected_index.tolist() == [0]
        assert trace.instantaneous_regret.tolist() == [0.0]
        assert trace.cumulative_regret.tolist() == [0.0]

    def test_zero_confidence_sequence_is_greedy_repeat(self):
        # No noise, zero exploration width: after seeing the best point once,
        # the driver repeats it and regret stays zero.
        inst = FiniteInstance([[0.0], [1.0], [2.0]], [0.0, 3.0, 1.0], 0.0)
        cfg = RunConfig(kernel=se(1, ell=0.1), horizon=5, noise_variance=1e-6,
                        schedule=Replay(np.zeros(5)), initial_design=[1])
        trace = run_bo(inst, cfg, 3)
        assert trace.selected_index.tolist() == [1] * 5
        assert trace.cumulative_regret[-1] == 0.0

    def test_counterexample_event_locks_first_point(self):
        sampler = CounterexampleSampler(rho=0.0, noise_stddev=0.0)
        inst = sampler.instance_for([3.0, 4.1])
        cfg = RunConfig(kernel=sampler.kernel, horizon=40,
                        schedule=Constant(1.0), noise_variance=1.0)
        trace = run_bo(inst, cfg, 0)
        assert np.all(trace.selected_index == 0)
        np.testing.assert_allclose(trace.instantaneous_regret, 1.1)
        assert np.all(trace.instantaneous_regret > 1.0)

    def test_bitwise_deterministic(self):
        inst = random_instance(5)
        cfg = ucb_config(30, 20, initial_design=4)
        a = run_bo(inst, cfg, 11)
        b = run_bo(inst, cfg, 11)
        for field in ("selected_index", "selected_x", "zeta_value", "observed_y",
                      "mean_at_selection", "sd_at_selection",
                      "instantaneous_regret", "cumulative_regret"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_regret_accounting_exact(self):
        inst = random_instance(8)
        trace = run_bo(inst, ucb_config(25, 20, initial_design=2), 4)
        want = inst.true_values[inst.optimum_index] - inst.true_values[trace.selected_index]
        np.testing.assert_array_equal(trace.instantaneous_regret, want)
        np.testing.assert_allclose(trace.cumulative_regret,
                                   np.cumsum(trace.instantaneous_regret), rtol=0, atol=0)

    def test_simple_regret_non_increasing(self):
        for seed in range(3):
            inst = random_instance(seed)
            trace = run_bo(inst, ucb_config(40, 20), seed)
            simple = np.minimum.accumulate(trace.instantaneous_regret)
            assert np.all(np.diff(simple) <= 0.0)

    def test_posterior_replay_through_batch_gp(self):
        # Recorded moments at iteration t must equal a batch posterior built
        # from the initial design plus the first t-1 selections.
        inst = random_instance(2, m=15)
        cfg = ucb_config(20, 15, initial_design=3)
        trace = run_bo(inst, cfg, 9)
        pts = inst.points
        for t in range(trace.horizon):
            X = np.vstack([trace.initial_x, trace.selected_x[:t]])
            y = np.concatenate([trace.initial_y, trace.observed_y[:t]])
            state = gp.batch_state(cfg.kernel, X, y, cfg.noise_variance)
            mean, var = gp.posterior_batch(state, pts)
            i = trace.selected_index[t]
            assert abs(mean[i] - trace.mean_at_selection[t]) < 1e-8
            assert abs(np.sqrt(var[i]) - trace.sd_at_selection[t]) < 1e-8

    @pytest.mark.usefixtures("fresh_prior_cache")
    def test_candidate_set_above_prior_cache_cap(self, monkeypatch):
        # Too large for the prior cache: the moment cache computes its Gram
        # rows per append. The trace must equal the cached-Gram run bit for
        # bit and replay through the batch posterior.
        inst = random_instance(2, m=15)
        cfg = ucb_config(20, 15, initial_design=3)
        cached = run_bo(inst, cfg, 9)
        monkeypatch.setattr(gp, "PRIOR_CACHE_BYTES", 15 * 15 * 8)
        gp._PRIOR_CACHE.clear()
        trace = run_bo(inst, cfg, 9)
        assert gp._PRIOR_CACHE.held_bytes == 0
        for name in ("selected_index", "mean_at_selection", "sd_at_selection"):
            np.testing.assert_array_equal(getattr(trace, name), getattr(cached, name))
        pts = inst.points
        for t in range(trace.horizon):
            X = np.vstack([trace.initial_x, trace.selected_x[:t]])
            y = np.concatenate([trace.initial_y, trace.observed_y[:t]])
            state = gp.batch_state(cfg.kernel, X, y, cfg.noise_variance)
            mean, var = gp.posterior_batch(state, pts)
            i = trace.selected_index[t]
            assert abs(mean[i] - trace.mean_at_selection[t]) < 1e-8
            assert abs(np.sqrt(var[i]) - trace.sd_at_selection[t]) < 1e-8

    def test_recorded_zeta_mean_matches_schedule(self):
        inst = random_instance(1, m=16, noise=0.2)
        cfg = RunConfig(kernel=se(2), horizon=3000, schedule=ShiftedExpFinite(16),
                        noise_variance=0.5)
        trace = run_bo(inst, cfg, 21)
        want = 2.0 + 2.0 * np.log(8.0)
        se_hat = trace.zeta_value.std(ddof=1) / np.sqrt(trace.horizon)
        assert abs(trace.zeta_value.mean() - want) < 3 * se_hat
        assert np.all(trace.zeta_value >= 2.0 * np.log(8.0))

    def test_initial_design_variants(self):
        inst = random_instance(3)
        cfg = ucb_config(4, 20, initial_design=[0, 3, 7])
        trace = run_bo(inst, cfg, 0)
        np.testing.assert_array_equal(trace.initial_indices, [0, 3, 7])
        np.testing.assert_allclose(trace.initial_x, inst.points[[0, 3, 7]])
        with pytest.raises(ConfigurationError):
            run_bo(inst, ucb_config(4, 20, initial_design=99), 0)
        with pytest.raises(ConfigurationError):
            run_bo(inst, ucb_config(4, 20, initial_design=[50]), 0)

    def test_ei_ts_pims_produce_valid_traces(self):
        inst = random_instance(4, m=12)
        for kind in ("ei", "ts", "pims"):
            cfg = RunConfig(kernel=se(2), horizon=8, noise_variance=1e-3,
                            acquisition=kind, num_features=128,
                            initial_design=2)
            trace = run_bo(inst, cfg, 6)
            assert np.all((0 <= trace.selected_index) & (trace.selected_index < 12))
            assert np.all(np.isnan(trace.zeta_value))

    def test_refit_switches_kernel(self):
        rng = np.random.default_rng(0)
        pts = rng.random((40, 1))
        truth = se(1, ell=0.1)
        vals = gp.sample_prior(truth, pts, 7)
        inst = FiniteInstance(pts, vals, 0.01)
        grid = (se(1, ell=0.1), se(1, ell=1.0))
        cfg = RunConfig(kernel=se(1, ell=1.0), horizon=12,
                        schedule=ShiftedExpFinite(40), noise_variance=1e-4,
                        initial_design=10, refit_period=5, refit_grid=grid)
        trace = run_bo(inst, cfg, 1)
        assert trace.horizon == 12  # refit path executed without error

    @pytest.mark.usefixtures("fresh_prior_cache")
    def test_refit_posterior_replay_through_batch_gp(self, monkeypatch):
        # After each refit the grid model restarts from the new kernel's
        # cached Gram, or, on a grid above the cache's cap, computes each
        # appended Gram row under the new kernel; the recorded moments must
        # still equal a batch posterior under the kernel the refit picked,
        # and the run must switch kernels on the way.
        rng = np.random.default_rng(0)
        pts = rng.random((40, 1))
        inst = FiniteInstance(pts, gp.sample_prior(se(1, ell=0.1), pts, 7), 0.01)
        grid = (se(1, ell=0.1), se(1, ell=1.0))
        cfg = RunConfig(kernel=se(1, ell=1.0), horizon=16, schedule=ShiftedExpFinite(40),
                        noise_variance=1e-4, initial_design=2, refit_period=4, refit_grid=grid)
        for cached, seed in ((True, 0), (True, 1), (False, 0), (False, 1)):
            if not cached:
                monkeypatch.setattr(gp, "PRIOR_CACHE_BYTES", 40 * 40 * 8)
                gp._PRIOR_CACHE.clear()
            trace = run_bo(inst, cfg, seed)
            used = set()
            for t in range(trace.horizon):
                X = np.vstack([trace.initial_x, trace.selected_x[:t]])
                y = np.concatenate([trace.initial_y, trace.observed_y[:t]])
                if t % cfg.refit_period == 0:
                    kernel = gp.fit_hyperparameters(X, y, list(grid), cfg.noise_variance)
                used.add(float(kernel.lengthscales[0]))
                mean, var = gp.posterior_batch(gp.batch_state(kernel, X, y, cfg.noise_variance),
                                               pts)
                i = trace.selected_index[t]
                assert abs(mean[i] - trace.mean_at_selection[t]) < 1e-8
                assert abs(np.sqrt(var[i]) - trace.sd_at_selection[t]) < 1e-8
            assert used == {0.1, 1.0}
            assert (gp._PRIOR_CACHE.held_bytes > 0) == cached

    @pytest.mark.parametrize("case", ["continuous", "grid"])
    def test_factors_once_per_fit(self, case, monkeypatch):
        # One factorization per fit, never per observation: dtrtri on the
        # fresh-candidate model, the triangular solve on the grid model.
        # With a 3-point design and refits at t = 6 and 11 of 12, the fits
        # are the design's and each refit's; without refits, the design's.
        if case == "continuous":
            inst, name = ContinuousInstance(_objective, 2, 50, 0.0, 0.0), "inverse_factor"
        else:
            inst, name = random_instance(8, m=50), "cross_solve"
        factored = []
        factor = getattr(gp, name)
        monkeypatch.setattr(gp, name, lambda state, *args: factored.append(state.n_obs)
                            or factor(state, *args))
        cfg = RunConfig(kernel=se(2), horizon=12, schedule=Constant(1.0),
                        noise_variance=1e-3, initial_design=3, refit_period=5,
                        refit_grid=(se(2, ell=0.2), se(2, ell=0.5)))
        for config, fits in ((cfg, [3, 8, 13]),
                             (dataclasses.replace(cfg, refit_period=None), [3])):
            for rep in range(2):
                factored.clear()
                run_bo(inst, config, 4, rep=rep)
                assert factored == fits

    def test_refit_requires_grid(self):
        with pytest.raises(ConfigurationError):
            RunConfig(kernel=se(1), horizon=2, schedule=Constant(1.0),
                      refit_period=5)

    def test_ucb_without_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig(kernel=se(1), horizon=2)

    @pytest.mark.parametrize("fields, message", [
        (dict(acquisition="ts", schedule=Constant(1.0)), "takes no confidence schedule"),
        (dict(acquisition="thompson"), "unknown acquisition 'thompson'"),
        (dict(acquisition="ts", num_features=0), "num_features must be >= 1"),
    ], ids=["schedule_without_ucb", "unknown_kind", "no_features"])
    def test_acquisition_checked(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            RunConfig(kernel=se(1), horizon=2, **fields)


class TestObjectiveMode:
    def test_per_iteration_candidates(self):
        inst = ContinuousInstance(_objective, 2, 64, 0.0, 0.0)
        cfg = RunConfig(kernel=se(2), horizon=10, schedule=ShiftedExpFinite(64),
                        noise_variance=1e-4, initial_design=3)
        trace = run_bo(inst, cfg, 2)
        assert np.all(trace.instantaneous_regret >= 0.0)
        assert trace.selected_x.shape == (10, 2)
        # candidate resampling: repeated coordinates across rounds are
        # vanishingly unlikely
        assert len({tuple(x) for x in trace.selected_x}) == 10


class TestFreshModelMoments:
    """The fresh-candidate model forms V as L^-1 K(X, candidates), a product
    with the inverse factor; its moments must agree with the triangular
    solve of ``gp.posterior_batch`` to rounding, even on the ill-conditioned
    states of a long lengthscale and small noise."""

    @staticmethod
    def model(state, m):
        """A model refit to ``state`` as ``run_bo`` builds one, the state
        standing in for an initial design of its own size."""
        inst = ContinuousInstance(_objective, state.dim, m, 0.0, 0.0)
        cfg = RunConfig(kernel=state.kernel, horizon=1, schedule=Constant(1.0),
                        noise_variance=state.noise_variance, initial_design=state.n_obs)
        model = engine._FreshModel(inst, cfg, None, None)
        model.initial_design(cfg.initial_design, np.random.default_rng(0))
        model.refit(state)
        return model

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("n", [0, 4, 104, 216])
    def test_moments_match_posterior_batch(self, dim, n):
        rng = np.random.default_rng(100 * dim + n)
        X, y = rng.random((n, dim)), rng.normal(scale=3.0, size=n)
        state = gp.batch_state(se(dim, ell=1.0), X, y, 1e-4)
        pts, mean, var = self.model(state, 500).moments(np.random.default_rng(7))
        np.testing.assert_array_equal(pts, np.random.default_rng(7).random((500, dim)))
        ref_mean, ref_var = gp.posterior_batch(state, pts)
        scale = 1.0 + (np.max(np.abs(y)) if n else 0.0)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-10 * scale
        assert np.max(np.abs(var - ref_var)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 5, 2000])
    @pytest.mark.parametrize("n", [0, 1, 7, 60])
    def test_triangular_product_matches_cross_solve(self, n, m):
        # V is written by BLAS trmm over the kernel block's memory; it must
        # be the solve's V to rounding at every shape, the empty state's
        # (0, m) block included, where the moments are the prior's.
        rng = np.random.default_rng(1000 * n + m)
        X, y = rng.random((n, 3)), rng.normal(size=n)
        state = gp.batch_state(se(3), X, y, 1e-4)
        model = self.model(state, m)
        pts, mean, var = model.moments(np.random.default_rng(n + m))
        ref_V = gp.cross_solve(state, pts)
        assert model.V.shape == ref_V.shape == (n, m)
        if n:
            assert np.max(np.abs(model.V - ref_V)) <= 1e-12 * np.max(np.abs(ref_V))
        ref_mean, ref_var = gp.posterior_batch(state, pts)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-12 * (1.0 + np.max(np.abs(ref_mean)))
        assert np.max(np.abs(var - ref_var)) <= 1e-12
        if n == 0:
            np.testing.assert_array_equal(mean, np.zeros(m))
            np.testing.assert_array_equal(var, gp.kernel_diag(state.kernel, pts))


class TestFreshModelInverse:
    """The fresh-candidate model holds L^-1: ``gp.inverse_factor`` at a
    fit, then one appended row per observation. It must track a fresh
    inversion of the factor (``TestRunBo.test_factors_once_per_fit``
    checks that it inverts only at fits)."""

    @staticmethod
    def grow(dim, ell, noise_variance, horizon, seed):
        """A model after ``horizon`` UCB-like observations from an empty
        start, with no refit."""
        kernel = se(dim, ell=ell)
        inst = ContinuousInstance(_objective, dim, 200, 0.0, 0.0)
        cfg = RunConfig(kernel=kernel, horizon=horizon, schedule=Constant(1.0),
                        noise_variance=noise_variance)
        model = engine._FreshModel(inst, cfg, None, None)
        rng = np.random.default_rng(seed)
        model.initial_design(0, rng)
        model.refit(gp.empty_state(kernel, noise_variance, capacity=horizon + 1))
        for _ in range(horizon):
            pts, mean, var = model.moments(rng)
            idx = int(np.argmax(mean + np.sqrt(var)))
            model.observe(idx, _objective(pts[idx]) + 0.01 * rng.standard_normal())
        return model

    def test_grown_inverse_tracks_a_fresh_inversion(self):
        # 320 observations under an ill-conditioned SE kernel (long
        # lengthscale, small noise): the appended rows must not drift from
        # dtrtri's inverse, and the moments must agree with the solve to
        # TestFreshModelMoments' tolerances.
        model = self.grow(2, 1.0, 1e-4, 320, 3)
        state = model.state
        n = state.n_obs
        assert n == 320
        ref = gp.inverse_factor(state)
        assert np.max(np.abs(model.inv[:n, :n] - ref)) <= 1e-12 * np.max(np.abs(ref))
        np.testing.assert_array_equal(np.triu(model.inv[:n, :n], 1), 0.0)
        pts, mean, var = model.moments(np.random.default_rng(7))
        ref_mean, ref_var = gp.posterior_batch(state, pts)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-10 * (1.0 + np.max(np.abs(state.outputs)))
        assert np.max(np.abs(var - ref_var)) <= 1e-12


class TestFreshModelReplay:
    """UCB and EI on a continuous instance with refits, replayed from
    scratch: each iteration's candidates regenerated from the CANDIDATES
    substream, the state rebuilt by ``gp.fit_state`` at each refit and by
    ``gp.batch_state`` under the picked kernel between refits, and the
    moments taken from ``gp.posterior_batch``."""

    @staticmethod
    def _wavy(x):
        return float(np.sin(9.0 * x[0]) * np.cos(7.0 * x[1]) - np.sum((x - 0.25) ** 2))

    @pytest.mark.parametrize("kind", ["ucb", "ei"])
    def test_refit_posterior_replay_through_batch_gp(self, kind):
        inst = ContinuousInstance(self._wavy, 2, 200, 1.0, 0.05)
        grid = (se(2, ell=0.1), se(2, ell=0.3), se(2, ell=1.0))
        cfg = RunConfig(kernel=se(2, ell=0.3), horizon=24, noise_variance=1e-3,
                        initial_design=3, acquisition=kind,
                        schedule=ShiftedExpFinite(200) if kind == "ucb" else None,
                        refit_period=4, refit_grid=grid)
        for seed in (0, 1):
            trace = run_bo(inst, cfg, seed)
            cand_rng = substream(seed, 0, CANDIDATES)
            used, decided = set(), 0
            for t in range(trace.horizon):
                X = np.vstack([trace.initial_x, trace.selected_x[:t]])
                y = np.concatenate([trace.initial_y, trace.observed_y[:t]])
                if t % cfg.refit_period == 0:
                    state = gp.fit_state(X, y, list(grid), cfg.noise_variance)
                else:
                    state = gp.batch_state(state.kernel, X, y, cfg.noise_variance)
                used.add(float(state.kernel.lengthscales[0]))
                pts = cand_rng.random((inst.candidate_count, inst.dim))
                mean, var = gp.posterior_batch(state, pts)
                i = trace.selected_index[t]
                assert abs(mean[i] - trace.mean_at_selection[t]) < 1e-8
                assert abs(np.sqrt(var[i]) - trace.sd_at_selection[t]) < 1e-8
                if kind == "ucb":
                    scores = ucb_scores(mean, var, trace.zeta_value[t])
                else:
                    scores = expected_improvement(mean, var, float(np.max(y)))
                second, first = np.sort(scores)[-2:]
                if first - second > 1e-9:
                    decided += 1
                    assert int(np.argmax(scores)) == i
            assert len(used) > 1
            assert decided >= trace.horizon // 2


class TestExplicitGridObservations:
    """A grid observation takes k(x, x) from the model's cached prior
    diagonal. Under an explicit covariance with an unequal diagonal, each
    row's own variance must be used: the recorded moments must match a
    from-scratch posterior on the same data, which they would not if one
    variance (the first row's, or a nominal signal variance) stood in for
    every row."""

    COV = np.array([[0.5, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 2.0]])

    @pytest.mark.parametrize("kind", ["ucb", "ei"])
    def test_moments_replay_from_scratch(self, kind):
        kernel = gp.ExplicitKernel(self.COV)
        inst = FiniteInstance([[0.0], [1.0], [2.0]], [0.0, 0.4, -0.3], 0.1)
        cfg = RunConfig(kernel=kernel, horizon=20, noise_variance=1e-2, initial_design=2,
                        schedule=Constant(2.0) if kind == "ucb" else None,
                        acquisition=kind)
        for seed in (1, 2, 3):
            trace = run_bo(inst, cfg, seed)
            X, y = list(trace.initial_x), list(trace.initial_y)
            for t in range(cfg.horizon):
                state = gp.batch_state(kernel, np.array(X), np.array(y), cfg.noise_variance)
                mean, var = gp.posterior_batch(state, inst.points)
                i = trace.selected_index[t]
                assert abs(trace.mean_at_selection[t] - mean[i]) <= 1e-10
                assert abs(trace.sd_at_selection[t] - math.sqrt(var[i])) <= 1e-10
                X.append(trace.selected_x[t])
                y.append(trace.observed_y[t])
            assert len(set(trace.selected_index.tolist()) | set(trace.initial_indices)) == 3


class TestSamplePathRoute:
    """run_bo's sampler inputs against ones rebuilt from scratch.

    On a grid the prior cache holds, the replay factors the grid's Gram
    itself and passes the factor as the path's features, with V from
    ``gp.cross_solve``. On a grid above the cache's cap and on a continuous
    instance it calls ``reference_sampler.ts_select`` / ``pims_select``,
    which build random features from the same FEATURES substream. Paths
    come from the same PATHS substream and the same observations; each
    selection must match the engine's. Refits and per-iteration candidate draws are mirrored, so the
    prior redrawn after each refit and the per-iteration route are checked
    too.
    """

    @staticmethod
    def replay(instance, cfg, trace, seed, exact):
        kind = cfg.acquisition
        feat_rng = substream(seed, 0, FEATURES)
        path_rng = substream(seed, 0, PATHS)
        cand_rng = substream(seed, 0, CANDIDATES)

        def prior(kernel):
            if exact:
                K = gp.kernel_matrix(kernel, instance.points)
                return gp.cholesky(K, float(np.max(np.diagonal(K))), "prior Gram")
            return build_rff(kernel, cfg.num_features, feat_rng)

        # The first state is fitted on the initial design, over the refit
        # grid when refits are configured, and each fit draws its prior.
        refits = cfg.refit_period is not None
        state = gp.fit_state(trace.initial_x, trace.initial_y,
                             list(cfg.refit_grid) if refits else [cfg.kernel],
                             cfg.noise_variance)
        features = prior(state.kernel)
        rows = [] if trace.initial_indices is None else list(trace.initial_indices)
        picks = []
        for t, (x, y) in enumerate(zip(trace.selected_x, trace.observed_y)):
            if refits and t and t % cfg.refit_period == 0:
                state = gp.fit_state(state.inputs, state.outputs, list(cfg.refit_grid),
                                     cfg.noise_variance)
                features = prior(state.kernel)
            if isinstance(instance, ContinuousInstance):
                pts = cand_rng.random((instance.candidate_count, instance.dim))
            else:
                pts = instance.points
            if not exact:
                select = ts_select if kind == "ts" else pims_select
                picks.append(select(state, features, pts, path_rng))
            else:
                f0, eps = draw_prior_paths(features, [state.n_obs], state.noise_variance,
                                           path_rng)
                path = sample_posterior_path(state, f0[0], np.array(rows, dtype=int),
                                             gp.cross_solve(state, pts), eps[0])
                if kind == "pims":
                    path = pims_scores(*gp.posterior_batch(state, pts), float(np.max(path)))
                picks.append(int(np.argmax(path)))
            rows.append(trace.selected_index[t])
            state = gp.incremental_update(state, x, y)
        return np.array(picks)

    @pytest.mark.usefixtures("fresh_prior_cache")
    @pytest.mark.parametrize("kind", ["ts", "pims"])
    @pytest.mark.parametrize("case", ["grid_design", "refit", "per_iteration",
                                      "per_iteration_refit", "above_cap"])
    def test_engine_matches_standalone_sampler(self, kind, case, monkeypatch):
        if case.startswith("per_iteration"):
            # A continuous instance: the initial design and every
            # iteration's candidates are fresh uniform points.
            inst = ContinuousInstance(_objective, 2, 30, 0.0, 0.05)
        else:
            inst = random_instance(5, m=30)
        if case == "above_cap":
            # The 30-point Gram and factor no longer fit: random features.
            monkeypatch.setattr(gp, "PRIOR_CACHE_BYTES", 30 * 30 * 8)
        refit = {}
        if case.endswith("refit"):
            refit = dict(refit_period=5, refit_grid=(se(2, ell=0.2), se(2, ell=0.4)))
        cfg = RunConfig(kernel=se(2), horizon=15, noise_variance=1e-3, initial_design=3,
                        acquisition=kind, num_features=128, **refit)
        for seed in (3, 4):
            trace = run_bo(inst, cfg, seed)
            exact = case in ("grid_design", "refit")
            np.testing.assert_array_equal(trace.selected_index,
                                          self.replay(inst, cfg, trace, seed, exact))
            assert len(set(trace.selected_index.tolist())) > 1

    @pytest.mark.parametrize("kind", ["ts", "pims", "ucb", "ei"])
    @pytest.mark.parametrize("refit", [False, True], ids=["fixed", "refit"])
    def test_cached_grid_draws_no_random_features(self, kind, refit, monkeypatch):
        # TS and PIMS on a cached grid take the prior factor. UCB and EI
        # draw no path at all, so not even a continuous instance, whose
        # paths take random features, builds features for them.
        def forbidden(*args, **kwargs):
            raise AssertionError("random features without a random-feature path")

        monkeypatch.setattr(engine, "build_rff", forbidden)
        monkeypatch.setattr(engine, "rff_features", forbidden)
        extra = dict(refit_period=4, refit_grid=(se(2, ell=0.2), se(2, ell=0.4))) if refit else {}
        cfg = RunConfig(kernel=se(2), horizon=12, noise_variance=1e-3, initial_design=2,
                        schedule=ShiftedExpFinite(25) if kind == "ucb" else None,
                        acquisition=kind, **extra)
        if kind in ("ts", "pims"):
            inst = random_instance(6, m=25)
        else:
            inst = ContinuousInstance(_objective, 2, 25, 0.0, 0.05)
        trace = run_bo(inst, cfg, 1)
        assert np.all((0 <= trace.selected_index) & (trace.selected_index < 25))

    @pytest.mark.usefixtures("fresh_prior_cache")
    @pytest.mark.parametrize("kind", ["ts", "pims"])
    def test_trace_independent_of_prior_cache(self, kind):
        # Cold, warm, and cold again after clearing: the same trace bytes.
        inst = random_instance(7, m=25)
        cfg = RunConfig(kernel=se(2), horizon=10, noise_variance=1e-3, initial_design=2,
                        acquisition=kind, refit_period=5,
                        refit_grid=(se(2, ell=0.2), se(2, ell=0.4)))
        cold = run_bo(inst, cfg, 2)
        warm = run_bo(inst, cfg, 2)
        gp._PRIOR_CACHE.clear()
        again = run_bo(inst, cfg, 2)
        for other in (warm, again):
            for name in ("selected_index", "observed_y", "mean_at_selection",
                         "sd_at_selection", "cumulative_regret"):
                np.testing.assert_array_equal(getattr(cold, name), getattr(other, name))


class TestBlockPathDraws:
    """Prior paths drawn a block at a time against one iteration at a time.

    Spies record each block the engine draws (its features and the
    observation count of each iteration in it) and each path it conditions
    (the prior path, the noise draw and the state's kernel). The reference
    draws z_t and then eps_t for t = 1..T from the same PATHS substream,
    with n_t = n_init + t - 1, and computes features_t @ z_t, where
    ``reference(kernel, block_features)`` gives features_t.
    """

    @staticmethod
    def run(inst, cfg, seed, monkeypatch, reference):
        """(engine's prior path, reference) per iteration, the block sizes and the kernels."""
        blocks, paths = [], []

        def draw(features, n_obs, *args):
            blocks.append((features, list(n_obs)))
            return draw_prior_paths(features, n_obs, *args)

        def condition(state, prior, obs_rows, V, eps):
            paths.append((prior.copy(), eps.copy(), state.kernel))
            return sample_posterior_path(state, prior, obs_rows, V, eps)

        monkeypatch.setattr(engine, "draw_prior_paths", draw)
        monkeypatch.setattr(engine, "sample_posterior_path", condition)
        trace = run_bo(inst, cfg, seed)
        n_init = trace.initial_x.shape[0]
        features = [f for f, n_obs in blocks for _ in n_obs]
        assert [n for _, n_obs in blocks for n in n_obs] == list(range(n_init, n_init + cfg.horizon))
        assert len(features) == len(paths) == cfg.horizon
        rng = substream(seed, 0, PATHS)
        pairs = []
        for t, ((prior, eps, kernel), feats) in enumerate(zip(paths, features)):
            feats = reference(kernel, feats)
            z = rng.standard_normal(feats.shape[1])
            np.testing.assert_array_equal(
                eps, rng.standard_normal(n_init + t) * math.sqrt(cfg.noise_variance))
            pairs.append((prior, feats @ z))
        return pairs, [len(n_obs) for _, n_obs in blocks], [k for _, _, k in paths]

    @pytest.mark.usefixtures("fresh_prior_cache")
    @pytest.mark.parametrize("kind", ["ts", "pims"])
    @pytest.mark.parametrize("case", ["refit", "cap", "rows", "above_cap"])
    def test_grid_blocks_equal_per_iteration_draws(self, kind, case, monkeypatch):
        inst, seed = random_instance(5, m=30), 5
        extra, design, sizes = {}, 3, [10]
        if case == "rows":
            # The 30-point factor is multiplied in row blocks of 8.
            monkeypatch.setattr(engine, "FACTOR_ROWS", 8)
        elif case == "refit":
            # Refits at t = 1, 4, 7, 10 end the blocks; the kernel changes at t = 4.
            extra = dict(refit_period=3,
                         refit_grid=(se(2, ell=0.2), se(2, ell=0.4), se(2, ell=0.8)))
            sizes = [3, 3, 3, 1]
        elif case == "cap":
            monkeypatch.setattr(engine, "PATH_BLOCK", 4)
            design, sizes = 0, [4, 4, 2]
        cfg = RunConfig(kernel=se(2), horizon=10, noise_variance=1e-3, initial_design=design,
                        acquisition=kind, num_features=128, **extra)
        if case == "above_cap":
            # The 30-point Gram and factor no longer fit: random features.
            monkeypatch.setattr(gp, "PRIOR_CACHE_BYTES", 30 * 30 * 8)
            phi = rff_features(build_rff(cfg.kernel, 128, substream(seed, 0, FEATURES)),
                               inst.points)

        def reference(kernel, _):
            if case == "above_cap":
                return phi
            return gp.prior_data(kernel, inst.points, factor=True).factor

        pairs, block_sizes, kernels = self.run(inst, cfg, seed, monkeypatch, reference)
        for prior, expected in pairs:
            np.testing.assert_allclose(prior, expected, rtol=0, atol=1e-12)
        assert block_sizes == sizes
        if case == "refit":
            assert kernels[2].lengthscales[0] != kernels[3].lengthscales[0]

    @pytest.mark.parametrize("kind", ["ts", "pims"])
    def test_continuous_instance_draws_one_path_per_block(self, kind, monkeypatch):
        inst = ContinuousInstance(_objective, 2, 30, 0.0, 0.05)
        cfg = RunConfig(kernel=se(2), horizon=6, noise_variance=1e-3, initial_design=2,
                        acquisition=kind, num_features=64)
        pairs, block_sizes, _ = self.run(inst, cfg, 4, monkeypatch,
                                         lambda kernel, features: features)
        for prior, expected in pairs:
            np.testing.assert_array_equal(prior, expected)
        assert block_sizes == [1] * 6


class TestPinnedSelections:
    """Selections recorded from a known-good engine, to catch any change of arithmetic.

    A grid with refits for every rule, and a continuous instance with
    refits for the sample-path rules. The lengthscales (0.3 to 0.6 on the
    unit square) keep far points correlated, so PIMS is not decided among
    exactly tied scores and the recorded picks do not hinge on 1-ulp
    rounding.
    """

    GRID = {
        "ucb": [7, 2, 14, 4, 22, 20, 20, 6, 26, 26, 26, 6],
        "ei": [0, 19, 14, 20, 3, 4, 26, 4, 4, 4, 22, 4],
        "ts": [6, 7, 14, 2, 6, 6, 26, 20, 20, 20, 6, 20],
        "pims": [20, 19, 7, 20, 6, 14, 20, 26, 26, 4, 26, 26],
    }
    CONTINUOUS = {
        "ts": [6, 8, 18, 13, 0, 18, 9, 17, 12, 20],
        "pims": [6, 25, 16, 25, 13, 18, 24, 23, 16, 14],
    }

    @staticmethod
    def config(kind, horizon):
        return RunConfig(kernel=se(2), horizon=horizon, noise_variance=1e-3, initial_design=2,
                         schedule=ShiftedExpFinite(30) if kind == "ucb" else None,
                         acquisition=kind, num_features=64,
                         refit_period=4, refit_grid=(se(2, ell=0.3), se(2, ell=0.6)))

    @pytest.mark.parametrize("kind", sorted(GRID))
    def test_grid_with_refits(self, kind):
        rng = np.random.default_rng(5)
        pts = rng.random((30, 2))
        inst = FiniteInstance(pts, gp.sample_prior(se(2), pts, rng), 0.05)
        trace = run_bo(inst, self.config(kind, 12), 3)
        assert trace.selected_index.tolist() == self.GRID[kind]

    @pytest.mark.parametrize("kind", sorted(CONTINUOUS))
    def test_continuous_instance(self, kind):
        inst = ContinuousInstance(_objective, 2, 30, 0.0, 0.05)
        trace = run_bo(inst, self.config(kind, 10), 3)
        assert trace.selected_index.tolist() == self.CONTINUOUS[kind]


def _nan_objective(x):
    return float("nan")


def _bad_instance(rep, rng):
    # Fails inside run_bo: the first observation is not finite.
    return ContinuousInstance(_nan_objective, 2, 4, 0.0, 0.0)


class _FailingSampler:
    """Sampler whose third replication fails."""

    def __init__(self, base):
        self.base = base

    def __call__(self, rep, rng):
        if rep == 2:
            return _bad_instance(rep, rng)
        return self.base(rep, rng)


class TestSharedInstanceSampler:
    class Counting:
        def __init__(self, fail_rep=None):
            self.calls, self.fail_rep = [], fail_rep

        def __call__(self, rep, rng):
            self.calls.append(rep)
            if rep == self.fail_rep:
                raise NumericalError("injected failure")
            return random_instance(int(rng.integers(1000)))

    def test_draws_once_per_seed_and_replication(self):
        base = self.Counting()
        shared = SharedInstanceSampler(base)
        first = [shared(rep, substream(7, rep, INSTANCE)) for rep in range(3)]
        again = [shared(rep, substream(7, rep, INSTANCE)) for rep in range(3)]
        assert all(a is b for a, b in zip(first, again))
        assert base.calls == [0, 1, 2]
        # Another base seed, or a generator already drawn from, draws anew.
        assert shared(0, substream(8, 0, INSTANCE)) is not first[0]
        used = substream(7, 0, INSTANCE)
        used.random()
        assert shared(0, used) is not first[0]
        assert base.calls == [0, 1, 2, 0, 0]

    def test_failed_draw_is_not_kept(self):
        base = self.Counting(fail_rep=1)
        shared = SharedInstanceSampler(base)
        for _ in range(2):
            with pytest.raises(NumericalError, match="injected failure"):
                shared(1, substream(7, 1, INSTANCE))
        assert base.calls == [1, 1]


class TestRunReplications:
    def test_single_rep_equals_run_bo(self):
        inst = random_instance(12)
        sampler = FixedInstanceSampler(inst)
        cfg = ucb_config(10, 20)
        [trace] = run_replications(sampler, cfg, 1, 77)
        direct = run_bo(inst, cfg, 77, rep=0)
        np.testing.assert_array_equal(trace.selected_index, direct.selected_index)
        np.testing.assert_array_equal(trace.observed_y, direct.observed_y)

    def test_same_seed_identical(self):
        sampler = FixedInstanceSampler(random_instance(1))
        cfg = ucb_config(6, 20)
        a = run_replications(sampler, cfg, 5, 3)
        b = run_replications(sampler, cfg, 5, 3)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.observed_y, tb.observed_y)

    def test_parallel_matches_serial(self):
        sampler = FixedInstanceSampler(random_instance(2))
        configs = [ucb_config(6, 20)] + [
            RunConfig(kernel=se(2), horizon=6, noise_variance=1e-3, initial_design=2,
                      acquisition=kind, num_features=64)
            for kind in ("ts", "pims")
        ]
        for cfg in configs:
            serial = run_replications(sampler, cfg, 6, 5, n_jobs=1)
            parallel = run_replications(sampler, cfg, 6, 5, n_jobs=2)
            for ta, tb in zip(serial, parallel):
                np.testing.assert_array_equal(ta.observed_y, tb.observed_y)
                np.testing.assert_array_equal(ta.selected_index, tb.selected_index)

    def test_ts_first_pick_balanced_across_replications(self):
        # Two effectively independent candidates under the prior: the first
        # selection should split about evenly across replications.
        inst = FiniteInstance([[0.0], [10.0]], [0.0, 0.0], 0.1)
        sampler = FixedInstanceSampler(inst)
        cfg = RunConfig(kernel=se(1, ell=0.5), horizon=1, noise_variance=1e-3,
                        acquisition="ts", num_features=128)
        traces = run_replications(sampler, cfg, 100, 13)
        firsts = np.array([t.selected_index[0] for t in traces])
        assert abs(firsts.mean() - 0.5) <= 0.15

    @pytest.mark.parametrize("kind", ["ts", "pims"])
    def test_sampled_rules_run_on_an_explicit_kernel(self, kind):
        # An explicit covariance has no spectral density, so random
        # features cannot draw its prior; the grid's cached factor can.
        inst = FiniteInstance([[0.0], [1.0]], [0.0, 0.5], 0.1)
        cfg = RunConfig(kernel=gp.ExplicitKernel(np.eye(2)), horizon=5, noise_variance=1e-2,
                        acquisition=kind)
        traces = run_replications(FixedInstanceSampler(inst), cfg, 100, 13)
        assert len(traces) == 100
        firsts = np.array([t.selected_index[0] for t in traces])
        if kind == "ts":
            # Two independent unit-variance points: an even split.
            assert abs(firsts.mean() - 0.5) <= 0.15
        else:
            # Equal prior moments tie the improvement scores: lowest index.
            assert np.all(firsts == 0)

    def test_failures_recorded_not_fatal(self):
        base = FixedInstanceSampler(random_instance(3))
        cfg = ucb_config(4, 20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traces = run_replications(_FailingSampler(base), cfg, 5, 1)
        assert len(traces) == 4
        assert any("replication 2 failed" in str(w.message) for w in caught)

    def test_all_failures_raise(self):
        cfg = ucb_config(4, 20)
        with pytest.raises(NumericalError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_replications(_bad_instance, cfg, 3, 0)

    def test_n_reps_validated(self):
        with pytest.raises(ConfigurationError):
            run_replications(FixedInstanceSampler(random_instance(0)),
                             ucb_config(2, 20), 0, 0)


def _conjugate_ucb(f, schedule, horizon, seed, rep):
    """UCB on the rho = 0 two-point instance by conjugate normal updates.

    With independent priors N(0, v_i) and unit observation noise, each
    point's posterior after n_i observations summing to s_i has precision
    1/v_i + n_i and mean s_i / precision. Noise and confidence draws come
    from the same keyed substreams that run_bo uses.
    """
    prior_var = np.diag(CounterexampleSampler().covariance)
    noise_rng = substream(seed, rep, NOISE)
    conf_rng = substream(seed, rep, CONFIDENCE)
    counts = np.zeros(2)
    sums = np.zeros(2)
    picks = []
    for t in range(1, horizon + 1):
        precision = 1.0 / prior_var + counts
        beta = next_confidence(schedule, t, conf_rng)
        scores = sums / precision + np.sqrt(beta / precision)
        idx = int(scores[1] > scores[0])
        counts[idx] += 1
        sums[idx] += f[idx] + noise_rng.standard_normal()
        picks.append(idx)
    return np.array(picks)


class TestCounterexampleConjugateReference:
    """On the two-point instance the GP engine is exact conjugate updating."""

    @pytest.mark.parametrize("schedule", [Constant(2.0), ShiftedExpFinite(2)],
                             ids=["constant_2", "irgp_ucb"])
    def test_selections_match_closed_form(self, schedule):
        sampler = CounterexampleSampler(rho=0.0)
        seed, horizon = 7, 150
        cfg = RunConfig(kernel=sampler.kernel, horizon=horizon, schedule=schedule,
                        noise_variance=1.0)
        traces = run_replications(sampler, cfg, 10, seed)
        switched = 0
        for rep, trace in enumerate(traces):
            f = sampler(rep, substream(seed, rep, INSTANCE)).true_values
            picks = _conjugate_ucb(f, schedule, horizon, seed, rep)
            np.testing.assert_array_equal(trace.selected_index, picks)
            np.testing.assert_array_equal(trace.instantaneous_regret,
                                          f.max() - f[picks])
            switched += len(set(picks.tolist())) == 2
        # Both points get sampled in some replication, so the match is not
        # the trivial one of always picking the first point.
        assert switched > 0
