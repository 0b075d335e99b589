"""Tests for the sequential optimization driver and replication runner."""

import warnings

import numpy as np
import pytest

from randbo import gp
from randbo.acquisition import build_rff, pims_select, ts_select
from randbo.analysis import CounterexampleSampler
from randbo.confidence import Constant, Replay, ShiftedExpFinite, next_confidence
from randbo.engine import (
    AcquisitionSpec,
    ContinuousInstance,
    FiniteInstance,
    FixedInstanceSampler,
    RunConfig,
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
                            acquisition=AcquisitionSpec(kind, num_features=128),
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

    def test_refit_posterior_replay_through_batch_gp(self):
        # After each refit the moment cache restarts from the new kernel's
        # cached Gram; the recorded moments must still equal a batch
        # posterior under the kernel the refit picked, and the run must
        # switch kernels on the way.
        rng = np.random.default_rng(0)
        pts = rng.random((40, 1))
        inst = FiniteInstance(pts, gp.sample_prior(se(1, ell=0.1), pts, 7), 0.01)
        grid = (se(1, ell=0.1), se(1, ell=1.0))
        cfg = RunConfig(kernel=se(1, ell=1.0), horizon=16, schedule=ShiftedExpFinite(40),
                        noise_variance=1e-4, initial_design=2, refit_period=4, refit_grid=grid)
        for seed in (0, 1):
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

    def test_refit_requires_grid(self):
        with pytest.raises(ConfigurationError):
            RunConfig(kernel=se(1), horizon=2, schedule=Constant(1.0),
                      refit_period=5)

    def test_ucb_without_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig(kernel=se(1), horizon=2)


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


class TestSamplePathRoute:
    """run_bo's cached grid features and moment-cache V against the plain route.

    The replay feeds ts_select / pims_select, which build every sampler
    input from scratch, the same FEATURES and PATHS substreams and the
    same observations; each selection must match the engine's. Refits
    and per-iteration candidate draws are mirrored, so the features drawn
    after each refit and the per-iteration route are checked too.
    """

    @staticmethod
    def replay(instance, cfg, trace, seed):
        select = ts_select if cfg.acquisition.kind == "ts" else pims_select
        feat_rng = substream(seed, 0, FEATURES)
        rff = build_rff(cfg.kernel, cfg.acquisition.num_features, feat_rng)
        path_rng = substream(seed, 0, PATHS)
        cand_rng = substream(seed, 0, CANDIDATES)
        state = gp.empty_state(cfg.kernel, cfg.noise_variance)
        for x, y in zip(trace.initial_x, trace.initial_y):
            state = gp.incremental_update(state, x, y)
        picks = []
        for t, (x, y) in enumerate(zip(trace.selected_x, trace.observed_y)):
            if cfg.refit_period is not None and t % cfg.refit_period == 0:
                kernel = gp.fit_hyperparameters(state.inputs, state.outputs,
                                                list(cfg.refit_grid), cfg.noise_variance)
                state = gp.batch_state(kernel, state.inputs, state.outputs, cfg.noise_variance)
                rff = build_rff(kernel, cfg.acquisition.num_features, feat_rng)
            if isinstance(instance, ContinuousInstance):
                pts = cand_rng.random((instance.candidate_count, instance.dim))
            else:
                pts = instance.points
            picks.append(select(state, rff, pts, path_rng))
            state = gp.incremental_update(state, x, y)
        return np.array(picks)

    @pytest.mark.parametrize("kind", ["ts", "pims"])
    @pytest.mark.parametrize("case", ["grid_design", "refit", "per_iteration"])
    def test_engine_matches_standalone_sampler(self, kind, case):
        if case == "per_iteration":
            # A continuous instance: the initial design and every
            # iteration's candidates are fresh uniform points.
            inst = ContinuousInstance(_objective, 2, 30, 0.0, 0.05)
        else:
            inst = random_instance(5, m=30)
        refit = {}
        if case == "refit":
            refit = dict(refit_period=5, refit_grid=(se(2, ell=0.2), se(2, ell=0.4)))
        cfg = RunConfig(kernel=se(2), horizon=15, noise_variance=1e-3, initial_design=3,
                        acquisition=AcquisitionSpec(kind, num_features=128), **refit)
        for seed in (3, 4):
            trace = run_bo(inst, cfg, seed)
            np.testing.assert_array_equal(trace.selected_index,
                                          self.replay(inst, cfg, trace, seed))
            assert len(set(trace.selected_index.tolist())) > 1


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
                      acquisition=AcquisitionSpec(kind, num_features=64))
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
                        acquisition=AcquisitionSpec("ts", num_features=128))
        traces = run_replications(sampler, cfg, 100, 13)
        firsts = np.array([t.selected_index[0] for t in traces])
        assert abs(firsts.mean() - 0.5) <= 0.15

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
