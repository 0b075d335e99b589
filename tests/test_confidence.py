"""Tests for confidence-parameter schedules and samplers."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from randbo import confidence as cf
from randbo.errors import ConfigurationError


class TestSampleShiftedExponential:
    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        draws = np.array([cf.sample_shifted_exponential(0.0, 0.5, rng) for _ in range(100000)])
        assert draws.mean() == pytest.approx(2.0, abs=0.03)

    def test_support_lower_bound(self):
        rng = np.random.default_rng(1)
        draws = np.array([cf.sample_shifted_exponential(3.5, 2.0, rng) for _ in range(100000)])
        assert np.all(draws >= 3.5)

    def test_mean_is_shift_plus_two_at_half_rate(self):
        rng = np.random.default_rng(7)
        s = 12.4
        draws = np.array([cf.sample_shifted_exponential(s, 0.5, rng) for _ in range(100000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - (s + 2.0)) < 3 * se

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            cf.sample_shifted_exponential(0.0, 0.0, np.random.default_rng(0))


class TestShiftFinite:
    def test_thousand_points(self):
        assert cf.shift_finite(1000) == pytest.approx(2 * math.log(500), abs=1e-12)
        assert cf.shift_finite(1000) == pytest.approx(12.42922, abs=1e-5)

    def test_two_points_zero_shift(self):
        assert cf.shift_finite(2) == 0.0

    def test_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            cf.shift_finite(1)

    def test_mean_constant_in_iteration(self):
        sched = cf.ShiftedExpFinite(1000)
        for t in (1, 10, 100, 1000):
            assert sched.mean(t) == pytest.approx(14.42922, abs=1e-5)


class TestShiftContinuous:
    def test_closed_form_value(self):
        # independent evaluation: 4 ln(2 (sqrt(ln 2) + sqrt(pi)/2)) - 2 ln 2
        want = 4 * math.log(2 * (math.sqrt(math.log(2)) + math.sqrt(math.pi) / 2)) - 2 * math.log(2)
        assert cf.shift_continuous(1, 1, 1, 2, 1) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(3.5528, abs=1e-4)

    def test_doubling_t_increment(self):
        for a, b, r, d in [(1, 1, 1, 2), (2, 0.5, 3, 1), (1.5, 2, 1, 4)]:
            diff = cf.shift_continuous(a, b, r, d, 2) - cf.shift_continuous(a, b, r, d, 1)
            assert diff == pytest.approx(4 * d * math.log(2), rel=1e-12)

    def test_monotone_in_t(self):
        vals = [cf.shift_continuous(1, 1, 1, 2, t) for t in range(1, 101)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_ad_at_most_one_rejected(self):
        with pytest.raises(ConfigurationError):
            cf.shift_continuous(1, 1, 1, 1, 1)  # a*d = 1
        with pytest.raises(ConfigurationError):
            cf.shift_continuous(0.5, 1, 1, 1, 1)


class TestBetaDeterministic:
    def test_reference_value(self):
        want = 2 * math.log(1000 * math.pi**2 / 0.6)
        assert cf.beta_deterministic(1000, 1, 0.1) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(19.416, abs=1e-3)

    def test_doubling_t(self):
        for t in (1, 3, 10):
            diff = cf.beta_deterministic(50, 2 * t, 0.2) - cf.beta_deterministic(50, t, 0.2)
            assert diff == pytest.approx(2 * math.log(4), rel=1e-12)

    def test_delta_near_one_single_point(self):
        val = cf.beta_deterministic(1, 1, 1 - 1e-12)
        assert val == pytest.approx(2 * math.log(math.pi**2 / 6), abs=1e-6)
        assert val == pytest.approx(0.9954, abs=1e-4)


class TestGammaConfidence:
    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        draws = np.array([cf.sample_gamma_confidence(1000, 1, 1.0, rng) for _ in range(100000)])
        assert draws.mean() == pytest.approx(math.log(1000) / math.log(1.5), abs=0.2)

    def test_positivity(self):
        rng = np.random.default_rng(0)
        draws = np.array([cf.sample_gamma_confidence(10, 2, 0.5, rng) for _ in range(10000)])
        assert np.all(draws > 0)

    def test_shape_formula(self):
        for t in (1, 10, 100):
            want = (math.log(27) + 2 * math.log(t)) / math.log(1.5)
            assert cf.gamma_shape(27, t) == pytest.approx(want, rel=1e-12)

    def test_domain_one_first_iteration_rejected(self):
        with pytest.raises(ConfigurationError):
            cf.sample_gamma_confidence(1, 1, 1.0, np.random.default_rng(0))


class TestHeuristics:
    def test_values(self):
        assert cf.heuristic_beta(2, 1) == pytest.approx(0.4 * math.log(2), abs=1e-12)
        assert cf.heuristic_beta(4, 50) == pytest.approx(0.8 * math.log(100), abs=1e-12)
        assert cf.heuristic_beta(4, 50) == pytest.approx(3.684, abs=1e-3)

    def test_shifted_exp_companion_mean(self):
        sched = cf.HeuristicShiftedExp(d=3)
        assert sched.mean(17) == pytest.approx(3 / 2 + 2)


class TestDiscretizationGrid:
    def test_reference_count(self):
        assert cf.discretization_grid_size(math.e**2, 1, 1, 1, 1) == 3

    def test_coordinates_strictly_interior(self):
        for r in (1.0, 2.5):
            coords = cf.discretization_coordinates(math.e**2, 1.0, r, 2, 3.0)
            assert np.all(coords > 0) and np.all(coords < r)
            # uniform spacing r/(tau+1)
            assert np.allclose(np.diff(coords), coords[0])

    def test_linear_in_u(self):
        tau = lambda u: 1 * 2 * 1.5 * u * (math.sqrt(math.log(2 * 2)) + math.sqrt(math.pi) / 2)
        assert cf.discretization_grid_size(2, 1, 1.5, 2, 6.0) == math.ceil(tau(6.0))
        assert math.ceil(tau(6.0)) == math.ceil(2 * tau(3.0))


class TestNextConfidence:
    def test_constant(self):
        sched = cf.Constant(4.0)
        value = cf.next_confidence(sched, 9, np.random.default_rng(0))
        assert value == 4.0 and sched.shift(9) == 4.0

    def test_finite_support(self):
        sched = cf.ShiftedExpFinite(1000)
        rng = np.random.default_rng(0)
        lo = 2 * math.log(500)
        for t in (1, 7, 30):
            value = cf.next_confidence(sched, t, rng)
            assert value >= lo and sched.shift(t) == pytest.approx(lo)

    def test_high_prob_shift_value(self):
        sched = cf.ShiftedExpHighProb(1000, 0.05)
        value = cf.next_confidence(sched, 3, np.random.default_rng(0))
        want = 2 * math.log(1000 * 9 * math.pi**2 / 0.3)
        assert sched.shift(3) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(25.2, abs=0.05)
        assert value >= sched.shift(3)

    def test_deterministic_variants_ignore_rng(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        cf.next_confidence(cf.DeterministicUcb(100, 0.1), 5, rng)
        cf.next_confidence(cf.HeuristicUcb(3), 5, rng)
        cf.next_confidence(cf.Constant(1.0), 5, rng)
        assert rng.bit_generator.state == before

    def test_randomized_variants_advance_once(self):
        for sched in (cf.ShiftedExpFinite(10), cf.GammaRandomized(10, 1.0),
                      cf.HeuristicShiftedExp(2), cf.ShiftedExpHighProb(10, 0.1)):
            a = np.random.default_rng(5)
            b = np.random.default_rng(5)
            cf.next_confidence(sched, 1, a)
            second_a = cf.next_confidence(sched, 2, a)
            cf.next_confidence(sched, 1, b)
            second_b = cf.next_confidence(sched, 2, b)
            assert second_a == second_b

    def test_identical_seed_identical_sequence(self):
        for sched in (cf.ShiftedExpFinite(50), cf.GammaRandomized(50),
                      cf.ShiftedExpContinuous(2, 1, 1, 2), cf.HeuristicShiftedExp(4)):
            rng_a, rng_b = np.random.default_rng(99), np.random.default_rng(99)
            a = [cf.next_confidence(sched, t, rng_a) for t in range(1, 51)]
            b = [cf.next_confidence(sched, t, rng_b) for t in range(1, 51)]
            assert a == b


class TestScheduleDistributions:
    def test_randomized_means_within_three_stderr(self):
        n = 100000
        cases = [
            (cf.ShiftedExpFinite(1000), 4, 2 * math.log(500) + 2),
            (cf.ShiftedExpHighProb(100, 0.1), 2, cf.beta_deterministic(100, 2, 0.1) + 2),
            (cf.HeuristicShiftedExp(4), 9, 4.0),
            (cf.GammaRandomized(100, 2.0), 3, 2.0 * cf.gamma_shape(100, 3)),
        ]
        for sched, t, want in cases:
            rng = np.random.default_rng(42)
            draws = np.array([cf.next_confidence(sched, t, rng) for _ in range(n)])
            se = draws.std(ddof=1) / math.sqrt(n)
            assert abs(draws.mean() - want) < 3 * se, sched

    def test_finite_schedule_iteration_invariant_distribution(self):
        sched = cf.ShiftedExpFinite(64)
        rng = np.random.default_rng(42)
        at_t1 = np.array([cf.next_confidence(sched, 1, rng) for _ in range(20000)])
        at_t100 = np.array([cf.next_confidence(sched, 100, rng) for _ in range(20000)])
        assert ks_2samp(at_t1, at_t100).pvalue > 0.01

    def test_growing_schedules_non_decreasing(self):
        det = cf.DeterministicUcb(40, 0.2)
        cont = cf.ShiftedExpContinuous(2.0, 1.0, 1.0, 3)
        rng = np.random.default_rng(0)
        det_vals = [cf.next_confidence(det, t, rng) for t in range(1, 200)]
        cont_shifts = [cont.shift(t) for t in range(1, 200)]
        assert all(b >= a for a, b in zip(det_vals, det_vals[1:]))
        assert all(b >= a for a, b in zip(cont_shifts, cont_shifts[1:]))


class TestScheduleQuantiles:
    def test_shifted_exp_quantiles(self):
        sched = cf.ShiftedExpFinite(1000)
        q975 = sched.quantile(1, 0.975)
        assert q975 == pytest.approx(2 * math.log(500) - 2 * math.log(0.025), abs=1e-12)
        assert q975 == pytest.approx(19.807, abs=1e-3)

    def test_gamma_quantiles_bracket_mean(self):
        sched = cf.GammaRandomized(1000, 1.0)
        lo = sched.quantile(1, 0.025)
        hi = sched.quantile(1, 0.975)
        assert lo < sched.mean(1) < hi

    def test_empirical_coverage(self):
        sched = cf.ShiftedExpFinite(30)
        rng = np.random.default_rng(42)
        draws = np.array([cf.next_confidence(sched, 5, rng) for _ in range(50000)])
        lo = sched.quantile(5, 0.025)
        hi = sched.quantile(5, 0.975)
        inside = np.mean((draws >= lo) & (draws <= hi))
        assert inside == pytest.approx(0.95, abs=0.01)


def _contract_schedules():
    """Every UCB algorithm's schedule as the CLI builds it, plus a Replay."""
    from randbo import cli
    from randbo.config import ALGORITHMS, parse_text

    config = parse_text("kind = synthetic_bcr\nirgp_ucb_continuous.a = 2\n"
                        "irgp_ucb_continuous.b = 1\n")
    built = [(name, cli.build_algorithm(name, config, 50, 2)[1]) for name in ALGORITHMS]
    built = [(name, sched) for name, sched in built if sched is not None]
    return built + [("replay", cf.Replay([0.5, 3.0, 1.25, 0.0, 7.0]))]


CONTRACT = _contract_schedules()
DETERMINISTIC = [pytest.param(s, id=n) for n, s in CONTRACT if not s.randomized]
RANDOMIZED = [pytest.param(s, id=n) for n, s in CONTRACT if s.randomized]


def _one_sampler_call(sched, t, rng):
    """Iteration t's draw as one direct call of the sampler behind ``sched``."""
    if isinstance(sched, cf.GammaRandomized):
        return cf.sample_gamma_confidence(sched.domain_size, t, sched.theta, rng)
    return cf.sample_shifted_exponential(sched.shift(t), cf.RATE, rng)


class TestScheduleContract:
    def test_covers_every_ucb_algorithm(self):
        assert len(CONTRACT) == 9
        assert len(DETERMINISTIC) == 4 and len(RANDOMIZED) == 5

    @pytest.mark.parametrize("sched", DETERMINISTIC)
    def test_deterministic_is_its_shift_and_leaves_rng(self, sched):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for t in range(1, 6):
            s = sched.shift(t)
            assert cf.next_confidence(sched, t, rng) == s
            assert sched.mean(t) == s
            assert sched.quantile(t, 0.025) == s and sched.quantile(t, 0.975) == s
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("sched", RANDOMIZED)
    def test_randomized_advances_rng_once(self, sched):
        for t in (1, 4):
            rng, ref = np.random.default_rng(11), np.random.default_rng(11)
            before = rng.bit_generator.state
            value = cf.next_confidence(sched, t, rng)
            assert value == _one_sampler_call(sched, t, ref)
            assert rng.bit_generator.state == ref.bit_generator.state != before
            assert value >= sched.shift(t)

    @pytest.mark.parametrize("sched", RANDOMIZED)
    def test_randomized_monte_carlo_mean(self, sched):
        n, t = 20000, 3
        rng = np.random.default_rng(123)
        draws = np.array([cf.next_confidence(sched, t, rng) for _ in range(n)])
        assert draws.min() >= sched.shift(t)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - sched.mean(t)) < 4 * se

    def test_replay_rejects_negative_values(self):
        with pytest.raises(ConfigurationError):
            cf.Replay([1.0, -0.5, 2.0])

    def test_replay_rejects_sequence_shorter_than_horizon(self):
        from randbo import gp
        from randbo.engine import RunConfig

        sched = cf.Replay([1.0, 2.0, 3.0])
        with pytest.raises(ConfigurationError):
            cf.next_confidence(sched, 4, np.random.default_rng(0))
        kernel = gp.KernelSpec.isotropic("squared_exponential", 0.3, 1)
        RunConfig(kernel=kernel, horizon=3, schedule=sched)
        with pytest.raises(ConfigurationError):
            RunConfig(kernel=kernel, horizon=4, schedule=sched)


class TestValidation:
    def test_constructor_range_checks(self):
        with pytest.raises(ConfigurationError):
            cf.Constant(0.0)
        with pytest.raises(ConfigurationError):
            cf.DeterministicUcb(0, 0.1)
        with pytest.raises(ConfigurationError):
            cf.DeterministicUcb(10, 1.5)
        with pytest.raises(ConfigurationError):
            cf.ShiftedExpFinite(1)
        with pytest.raises(ConfigurationError):
            cf.ShiftedExpContinuous(1.0, 1.0, 1.0, 1)
        with pytest.raises(ConfigurationError):
            cf.GammaRandomized(1)
        with pytest.raises(ConfigurationError):
            cf.HeuristicUcb(0)
