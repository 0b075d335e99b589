"""Tests for regret metrics, bound calculators, and Monte-Carlo harnesses."""

import math
import warnings

import numpy as np
import pytest

from randbo import analysis as an
from randbo import gp
from randbo.confidence import Replay, ShiftedExpFinite, shift_continuous
from randbo.engine import (
    BoTrace,
    FiniteInstance,
    FixedInstanceSampler,
    RunConfig,
    run_replications,
)
from randbo.errors import ConfigurationError, NumericalError


def se(dim, ell=0.4):
    return gp.KernelSpec.isotropic("squared_exponential", ell, dim)


def synthetic_trace(regrets):
    r = np.asarray(regrets, dtype=float)
    T = r.shape[0]
    z = np.zeros(T)
    return BoTrace(
        horizon=T, selected_index=np.zeros(T, dtype=int),
        selected_x=np.zeros((T, 1)), zeta_value=z.copy(),
        observed_y=z.copy(), mean_at_selection=z.copy(), sd_at_selection=z.copy(),
        instantaneous_regret=r, cumulative_regret=np.cumsum(r),
        initial_x=np.empty((0, 1)), initial_y=np.empty(0), initial_indices=None,
        optimum_value=0.0,
    )


class TestRegretMetrics:
    def test_zero_regret_everywhere(self):
        s = an.summarize_traces([synthetic_trace([0.0, 0.0, 0.0])])
        assert not s.mean_instantaneous_curve.any()
        assert not s.mean_cumulative_curve.any() and not s.mean_simple_curve.any()

    def test_hand_prefix_sums(self):
        s = an.summarize_traces([synthetic_trace([3.0, 1.0, 2.0])])
        assert s.mean_cumulative_curve.tolist() == [3.0, 4.0, 6.0]
        assert s.mean_simple_curve.tolist() == [3.0, 1.0, 1.0]

    def test_resummation_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = rng.uniform(0, 2, size=int(rng.integers(1, 50)))
            cum = an.summarize_traces([synthetic_trace(r)]).mean_cumulative_curve
            brute = np.array([r[: i + 1].sum() for i in range(len(r))])
            np.testing.assert_allclose(cum, brute, atol=1e-12)


class TestSummaries:
    def test_stderr_definition(self):
        traces = [synthetic_trace([1.0, 1.0]), synthetic_trace([3.0, 3.0])]
        s = an.summarize_traces(traces)
        assert s.mean_cumulative_curve.tolist() == [2.0, 4.0]
        want = np.std([2.0, 6.0], ddof=1) / math.sqrt(2)
        assert s.stderr_cumulative_curve[-1] == pytest.approx(want)

    def test_horizon_restriction(self):
        s = an.summarize_traces([synthetic_trace([1.0, 2.0, 3.0])])
        s2 = s.at_horizon(2)
        assert s2.horizon == 2
        assert s2.mean_cumulative_regret == pytest.approx(3.0)


class TestEstimateBcr:
    def test_zero_noise_singleton_domain(self):
        inst = FiniteInstance([[0.0]], [1.0], 0.0)
        cfg = RunConfig(kernel=se(1), horizon=3, schedule=ShiftedExpFinite(4),
                        noise_variance=1e-3)
        s = an.summarize_traces(run_replications(FixedInstanceSampler(inst), cfg, 5, 0))
        assert s.mean_cumulative_regret == 0.0

    def test_deterministic_given_seed(self):
        sampler = an.counterexample_instance(0.0)
        cfg = RunConfig(kernel=sampler.kernel, horizon=4,
                        schedule=ShiftedExpFinite(2), noise_variance=1.0)
        a = an.summarize_traces(run_replications(sampler, cfg, 10, 3))
        b = an.summarize_traces(run_replications(sampler, cfg, 10, 3))
        np.testing.assert_array_equal(a.mean_cumulative_curve, b.mean_cumulative_curve)

    def test_two_point_greedy_matches_quadrature(self):
        # Greedy policy (zero confidence) on the two-point instance, horizon
        # 2: the expectation is a 3-d integral over (f0, f1, first noise),
        # evaluated by tensor Gauss-Hermite with 64 nodes per dimension.
        sampler = an.counterexample_instance(0.0)
        cfg = RunConfig(kernel=sampler.kernel, horizon=2, noise_variance=1.0,
                        schedule=Replay(np.zeros(2)))
        summary = an.summarize_traces(run_replications(sampler, cfg, 600, 17))

        nodes, weights = np.polynomial.hermite_e.hermegauss(64)
        weights = weights / math.sqrt(2.0 * math.pi)
        f0 = nodes[:, None, None]
        f1 = math.sqrt(0.99) * nodes[None, :, None]
        eps = nodes[None, None, :]
        w = (weights[:, None, None] * weights[None, :, None] * weights[None, None, :])
        fmax = np.maximum(f0, np.broadcast_to(f1, (64, 64, 64)))
        greedy_second = np.where(f0 + eps >= 0.0, f0, f1)
        integrand = (fmax - f0) + (fmax - greedy_second)
        expect = float(np.sum(w * integrand))
        tol = 3 * summary.stderr_cumulative_curve[-1]
        assert abs(summary.mean_cumulative_regret - expect) < tol


class TestConditionalRegret:
    def test_sequence_shorter_than_horizon_rejected(self):
        sampler = an.counterexample_instance(0.0)
        cfg = RunConfig(kernel=sampler.kernel, horizon=4, noise_variance=1.0,
                        schedule=ShiftedExpFinite(2))
        with pytest.raises(ConfigurationError):
            an.estimate_conditional_regret(sampler, cfg, np.zeros(3), 5, 0)

    def test_zero_sequence_equals_greedy_bcr(self):
        sampler = an.counterexample_instance(0.0)
        cfg = RunConfig(kernel=sampler.kernel, horizon=3, noise_variance=1.0,
                        schedule=Replay(np.zeros(3)))
        greedy = an.summarize_traces(run_replications(sampler, cfg, 50, 5))
        base = RunConfig(kernel=sampler.kernel, horizon=3, noise_variance=1.0,
                         schedule=ShiftedExpFinite(2))
        cond = an.estimate_conditional_regret(sampler, base, np.zeros(3), 50, 5)
        np.testing.assert_array_equal(greedy.mean_cumulative_curve,
                                      cond.mean_cumulative_curve)

    def test_distinct_sequences_separate(self):
        sampler = an.counterexample_instance(0.0)
        cfg = RunConfig(kernel=sampler.kernel, horizon=10, noise_variance=1.0,
                        schedule=ShiftedExpFinite(2))
        lazy = an.estimate_conditional_regret(sampler, cfg, np.zeros(10), 200, 9)
        eager = an.estimate_conditional_regret(sampler, cfg, np.full(10, 25.0), 200, 9)
        gap = abs(lazy.mean_cumulative_regret - eager.mean_cumulative_regret)
        noise = math.hypot(lazy.stderr_cumulative_curve[-1], eager.stderr_cumulative_curve[-1])
        assert gap > 3 * noise

    def test_law_of_total_expectation(self):
        sampler = an.counterexample_instance(0.0)
        cfg = RunConfig(kernel=sampler.kernel, horizon=4, noise_variance=1.0,
                        schedule=ShiftedExpFinite(2))
        unconditional = an.summarize_traces(run_replications(sampler, cfg, 800, 101))

        rng = np.random.default_rng(7)
        cond_means = []
        for k in range(50):
            zeta = -2.0 * np.log(1.0 - rng.random(4))  # shift 0, rate 1/2
            s = an.estimate_conditional_regret(sampler, cfg, zeta, 60, 500 + k)
            cond_means.append(s.mean_cumulative_regret)
        cond_means = np.asarray(cond_means)
        avg = cond_means.mean()
        se_avg = cond_means.std(ddof=1) / math.sqrt(len(cond_means))
        combined = math.hypot(se_avg, unconditional.stderr_cumulative_curve[-1])
        assert abs(avg - unconditional.mean_cumulative_regret) < 3 * combined


class TestInformationGain:
    def test_empty_set(self):
        assert an.realized_information_gain(se(2), np.empty((0, 2)), 1.0) == 0.0

    def test_exhausted_escalation_raises(self, require_jitter):
        # I + K/sigma^2 has diagonal 2 here, so the cap is 2e-4 and a demanded
        # jitter of 10 is past it.
        require_jitter(10.0)
        with pytest.raises(NumericalError, match=r"information-gain matrix of 3 points "
                           r"not factorizable within jitter cap 2\.0e-04"):
            an.realized_information_gain(se(1), [[0.1], [0.5], [0.9]], 1.0)

    def test_single_unit_point(self):
        got = an.realized_information_gain(se(1), [[0.3]], 1.0)
        assert got == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_batch_equals_sequential(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.random((10, 2))
            kernel = se(2, ell=0.5)
            s2 = 0.5
            batch = an.realized_information_gain(kernel, pts, s2)
            state = gp.empty_state(kernel, s2)
            seq = 0.0
            for x in pts:
                _, var = gp.posterior_batch(state, x)
                seq += 0.5 * math.log(1.0 + var[0] / s2)
                state = gp.incremental_update(state, x, 0.0)
            assert abs(batch - seq) < 1e-8

    def test_greedy_upper_envelope(self):
        rng = np.random.default_rng(0)
        pts = rng.random((30, 2))
        kernel = se(2, ell=0.3)
        greedy = an.greedy_information_gain(kernel, pts, 10, 1e-2)
        arbitrary = an.realized_information_gain(kernel, pts[:10], 1e-2)
        assert greedy >= arbitrary - 1e-9

    def test_certified_gain_scales_greedy_by_one_minus_inverse_e(self):
        # Two uncorrelated unit-variance points: greedy takes both, gaining
        # 0.5 log(1 + 1/sigma^2) each.
        greedy = an.greedy_information_gain(se(1), [[0.0], [5.0]], 2, 1e-2)
        assert greedy == pytest.approx(math.log(101.0), abs=1e-12)
        certified = greedy / an.GREEDY_GAIN_FRACTION
        assert certified == pytest.approx(math.log(101.0) / (1.0 - math.exp(-1.0)), abs=1e-12)
        assert certified == pytest.approx(7.30101, abs=1e-5)


class TestBoundCalculators:
    def test_width_constants(self):
        assert an.bcr_bound_finite(1, 1000, 1.0, 0.0) == 0.0
        c1 = 2 / math.log(2.0)
        assert c1 == pytest.approx(2.88539, abs=1e-5)
        got = an.bcr_bound_finite(100, 1000, 1.0, 5.0)
        want = math.sqrt(c1 * (2 + 2 * math.log(500)) * 500)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(144.28, abs=0.01)

    def test_continuous_zero_gain_floor(self):
        assert an.bcr_bound_continuous(1, 1.0, 1.0, 1.0, 2, 1.0, 0.0) == pytest.approx(
            math.pi**2 / 6
        )

    def test_continuous_reference_value(self):
        got = an.bcr_bound_continuous(100, 1.0, 1.0, 1.0, 2, 1.0, 10.0)
        s_T = shift_continuous(1.0, 1.0, 1.0, 2, 100)
        want = math.pi**2 / 6 + math.sqrt((2 / math.log(2)) * 100 * 10 * (2 + s_T))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(351.0, abs=1.0)  # 3 significant figures

    def test_conditional_bound_continuous_offset(self):
        args = dict(T=100, delta=0.1, s_T=12.42922, noise_variance=1.0, gamma=5.0)
        diff = an.conditional_bound_U(continuous=True, **args) - an.conditional_bound_U(
            continuous=False, **args
        )
        assert diff == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_conditional_bound_reference_value(self):
        got = an.conditional_bound_U(100, 0.1, 12.42922, 1.0, 5.0)
        L = math.log(math.pi**2 * 1e4 / 0.3)
        want = 6 * math.sqrt(100 * L) + math.sqrt(
            (2 / math.log(2)) * 5 * (100 * 12.42922 + 100 + 2 * math.sqrt(100 * L) + 2 * L)
        )
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(358.0, abs=1.0)  # 3 significant figures

    def test_high_prob_bound_growth_rate(self):
        lo = an.high_prob_bound(100, 0.1, 20, 1.0, 5.0)
        hi = an.high_prob_bound(400, 0.1, 20, 1.0, 5.0)
        assert 2.0 < hi / lo < 2.5

    def test_high_prob_bound_laurent_reassembly(self):
        T, delta, m, s2, g = 50, 0.05, 30, 1.0, 4.0
        s_T = 2 * math.log(m * T * T * math.pi**2 / (6 * delta))
        delta_prime = 3 * delta / (math.pi**2 * T * T)
        envelope = T * s_T + an.laurent_bound(T, delta_prime)
        want = 2 * math.sqrt((2 / math.log(1 + 1 / s2)) * g * envelope)
        assert an.high_prob_bound(T, delta, m, s2, g) == pytest.approx(want, rel=1e-12)

    def test_monotonicity_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            T = int(rng.integers(1, 500))
            gamma = float(rng.uniform(0, 50))
            delta = float(rng.uniform(0.01, 0.95))
            s2 = float(rng.uniform(0.01, 2.0))
            m = int(rng.integers(2, 5000))
            up_T, up_g = T + int(rng.integers(1, 100)), gamma + rng.uniform(0.1, 10)
            down_d = delta * rng.uniform(0.1, 0.9)
            assert an.bcr_bound_finite(up_T, m, s2, gamma) >= an.bcr_bound_finite(T, m, s2, gamma)
            assert an.bcr_bound_finite(T, m, s2, up_g) >= an.bcr_bound_finite(T, m, s2, gamma)
            assert an.bcr_bound_continuous(up_T, 2, 1, 1, 2, s2, gamma) >= an.bcr_bound_continuous(T, 2, 1, 1, 2, s2, gamma)
            assert an.conditional_bound_U(T, down_d, 5.0, s2, gamma) >= an.conditional_bound_U(T, delta, 5.0, s2, gamma)
            assert an.conditional_bound_U(T, delta, 5.0, s2, up_g) >= an.conditional_bound_U(T, delta, 5.0, s2, gamma)
            assert an.high_prob_bound(T, down_d, m, s2, gamma) >= an.high_prob_bound(T, delta, m, s2, gamma)
            assert an.high_prob_bound(up_T, delta, m, s2, gamma) >= an.high_prob_bound(T, delta, m, s2, gamma)

    def test_laurent_unit_case(self):
        assert an.laurent_bound(1, math.exp(-1.0)) == pytest.approx(5.0, abs=1e-12)

    def test_laurent_chi_square_coverage(self):
        rng = np.random.default_rng(42)
        draws = rng.chisquare(10, size=100000)
        freq = np.mean(draws > an.laurent_bound(10, 0.05))
        assert freq <= 0.05

    def test_laurent_monotone(self):
        assert an.laurent_bound(20, 0.1) > an.laurent_bound(10, 0.1)
        assert an.laurent_bound(10, 0.01) > an.laurent_bound(10, 0.1)


class TestGaussianTail:
    def test_boundary_limit(self):
        assert an.gaussian_tail_bound(1e-12) == pytest.approx(0.5, abs=1e-9)

    def test_dominates_exact_survival(self):
        from scipy.stats import norm

        assert an.gaussian_tail_bound(2.0) == pytest.approx(0.5 * math.exp(-2.0))
        assert an.gaussian_tail_bound(2.0) >= float(norm.sf(2.0))
        for c in np.arange(0.1, 5.05, 0.1):
            assert an.gaussian_tail_bound(float(c)) >= float(norm.sf(c))


class TestValidateOptimumBound:
    def test_single_candidate_empty_data(self):
        check = an.validate_optimum_bound(se(1), [[0.0]], None,
                                          1e-4, 20000, 0)
        assert abs(check.lhs) < 3 * check.lhs_stderr
        assert check.rhs > 0.0
        assert check.holds()

    def test_twenty_point_grid_empty_data(self):
        rng = np.random.default_rng(3)
        cands = rng.random((20, 2))
        check = an.validate_optimum_bound(se(2), cands, None, 1e-4, 100000, 1)
        assert check.holds()

    def test_holds_after_observations(self):
        rng = np.random.default_rng(4)
        cands = rng.random((20, 2))
        X = rng.random((10, 2))
        y = rng.normal(size=10)
        check = an.validate_optimum_bound(se(2), cands, (X, y), 1e-2, 100000, 2)
        assert check.holds()

    def test_covariance_jitter_escalation_warns(self, require_jitter):
        pts = np.linspace(0, 1e-4, 200)[:, None]
        require_jitter(1e-8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            an.validate_optimum_bound(se(1, ell=10.0), pts, None, 1e-2, 100, 0)
        assert [str(w.message) for w in caught] == [
            "posterior covariance of 200 points needed diagonal jitter 1.0e-08 to factorize"]


class TestCounterexample:
    def test_prior_moments(self):
        sampler = an.counterexample_instance(0.0)
        rng = np.random.default_rng(42)
        draws = np.stack([
            sampler(i, rng).true_values for i in range(10000)
        ])
        var = draws.var(axis=0, ddof=1)
        cov01 = np.cov(draws.T)[0, 1]
        # 3 Monte-Carlo standard errors: var estimator se ~ v sqrt(2/n)
        assert abs(var[0] - 1.0) < 3 * 1.0 * math.sqrt(2 / 10000)
        assert abs(var[1] - 0.99) < 3 * 0.99 * math.sqrt(2 / 10000)
        assert abs(cov01) < 3 * math.sqrt(1.0 * 0.99 / 10000)

    def test_near_boundary_rho_valid(self):
        rho = math.sqrt(0.99) - 1e-9
        sampler = an.counterexample_instance(rho)
        inst = sampler(0, np.random.default_rng(0))
        assert inst.true_values.shape == (2,)

    def test_out_of_range_rho_rejected(self):
        with pytest.raises(ConfigurationError):
            an.counterexample_instance(math.sqrt(0.99))

    def test_optimum_tracks_draw(self):
        sampler = an.counterexample_instance(0.5)
        rng = np.random.default_rng(1)
        for i in range(50):
            inst = sampler(i, rng)
            assert inst.optimum_value == inst.true_values.max()


class TestNoiseEventFrequency:
    def test_single_step_matches_gaussian_cdf(self):
        n = 100000
        freq = an.noise_event_frequency(1, n, 0)
        want = 0.8413447460685429
        se_hat = math.sqrt(want * (1 - want) / n)
        assert abs(freq - want) < 3 * se_hat

    def test_curve_non_increasing(self):
        curve = an.noise_event_curve(100, 20000, 1)
        assert np.all(np.diff(curve) <= 0.0)

    def test_reasonable_long_horizon_level(self):
        freq = an.noise_event_frequency(200, 20000, 2)
        assert freq >= 0.229  # analytic lower bound holds with big margin


class TestRegretSlope:
    def _summary(self, regrets):
        return an.summarize_traces([synthetic_trace(regrets)])

    def test_constant_regret_linear(self):
        first = self._summary(np.ones(250))
        second = self._summary(np.ones(1000))
        res = an.regret_slope_test(first, second)
        assert res.ratio == pytest.approx(1.0)
        assert res.verdict == an.LINEAR_CONSISTENT

    def test_inverse_sqrt_sublinear(self):
        t1 = np.arange(1, 251)
        t2 = np.arange(1, 1001)
        first = self._summary(1 / np.sqrt(t1))
        second = self._summary(1 / np.sqrt(t2))
        res = an.regret_slope_test(first, second)
        assert res.verdict == an.SUBLINEAR_CONSISTENT
        assert res.ratio == pytest.approx(math.sqrt(250 / 1000), abs=0.02)

    def test_zero_denominator_inconclusive(self):
        res = an.regret_slope_test(self._summary(np.zeros(10)), self._summary(np.zeros(40)))
        assert res.verdict == an.INCONCLUSIVE

    def test_horizon_order_enforced(self):
        with pytest.raises(ConfigurationError):
            an.regret_slope_test(self._summary(np.ones(10)), self._summary(np.ones(10)))

    def test_late_windows_see_linear_tail_past_transient(self):
        # Exponentially decaying transient on top of a flat 0.05 per step.
        t = np.arange(1, 1001)
        summary = self._summary(0.05 + np.exp(-t / 50))
        cumulative = an.regret_slope_test(summary.at_horizon(250), summary)
        assert cumulative.verdict == an.SUBLINEAR_CONSISTENT
        late = an.late_window_slope_test(summary)
        assert late.verdict == an.LINEAR_CONSISTENT
        assert late.ratio == pytest.approx(1.0, abs=1e-3)
        assert late.per_step_first == pytest.approx(0.05, abs=1e-4)
        assert late.per_step_second == pytest.approx(0.05, abs=1e-4)

    def test_windowed_rates_are_increments(self):
        summary = self._summary(np.arange(1.0, 13.0))
        res = an.regret_slope_test(summary.at_horizon(8), summary, start=4)
        # windows (4, 8] and (8, 12] hold regrets 5..8 and 9..12
        assert res.per_step_first == pytest.approx(6.5)
        assert res.per_step_second == pytest.approx(10.5)
        assert res.ratio == pytest.approx(10.5 / 6.5)
        longer = self._summary(np.arange(1.0, 17.0))
        assert an.late_window_slope_test(longer) == an.regret_slope_test(
            longer.at_horizon(12), longer, start=8)

    def test_late_windows_read_decay_below_linear(self):
        t = np.arange(1, 1001)
        late = an.late_window_slope_test(self._summary(np.exp(-t / 200)))
        assert late.verdict == an.SUBLINEAR_CONSISTENT

    def test_window_start_validated(self):
        first, second = self._summary(np.ones(10)), self._summary(np.ones(20))
        for start in (-1, 10):
            with pytest.raises(ConfigurationError):
                an.regret_slope_test(first, second, start=start)
        with pytest.raises(ConfigurationError):
            an.late_window_slope_test(self._summary(np.ones(2)))
