"""Tests for confidence-parameter schedules and samplers."""

import itertools
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import gamma, ks_2samp

from randbo import confidence as cf
from randbo.errors import ConfigurationError


@dataclass(frozen=True)
class FixedShift(cf.Schedule):
    """A randomized schedule with any fixed shift, to test the base's draw."""

    s: float

    randomized = True

    def shift(self, t):
        return self.s


class TestSampleShiftedExponential:
    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        sched = cf.ShiftedExpFinite(2)  # shift 0
        draws = np.array([cf.next_confidence(sched, 1, rng) for _ in range(100000)])
        assert draws.mean() == pytest.approx(2.0, abs=0.03)

    def test_support_lower_bound(self):
        rng = np.random.default_rng(1)
        sched = cf.HeuristicShiftedExp(7)  # shift 3.5
        draws = np.array([cf.next_confidence(sched, 1, rng) for _ in range(100000)])
        assert np.all(draws >= 3.5)

    def test_mean_is_shift_plus_two_at_half_rate(self):
        rng = np.random.default_rng(7)
        s = 12.4
        sched = FixedShift(s)
        draws = np.array([cf.next_confidence(sched, 1, rng) for _ in range(100000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - (s + 2.0)) < 3 * se


class TestShiftFinite:
    def test_thousand_points(self):
        assert cf.ShiftedExpFinite(1000).shift(1) == pytest.approx(2 * math.log(500), abs=1e-12)
        assert cf.ShiftedExpFinite(1000).shift(1) == pytest.approx(12.42922, abs=1e-5)

    def test_two_points_zero_shift(self):
        assert cf.ShiftedExpFinite(2).shift(1) == 0.0

    def test_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            cf.ShiftedExpFinite(1)

    def test_mean_constant_in_iteration(self):
        sched = cf.ShiftedExpFinite(1000)
        for t in (1, 10, 100, 1000):
            assert sched.mean(t) == pytest.approx(14.42922, abs=1e-5)


class TestShiftContinuous:
    def test_closed_form_value(self):
        # independent evaluation: 4 ln(2 (sqrt(ln 2) + sqrt(pi)/2)) - 2 ln 2
        want = 4 * math.log(2 * (math.sqrt(math.log(2)) + math.sqrt(math.pi) / 2)) - 2 * math.log(2)
        assert cf.ShiftedExpContinuous(1, 1, 1, 2).shift(1) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(3.5528, abs=1e-4)

    def test_doubling_t_increment(self):
        for a, b, r, d in [(1, 1, 1, 2), (2, 0.5, 3, 1), (1.5, 2, 1, 4)]:
            sched = cf.ShiftedExpContinuous(a, b, r, d)
            diff = sched.shift(2) - sched.shift(1)
            assert diff == pytest.approx(4 * d * math.log(2), rel=1e-12)

    def test_monotone_in_t(self):
        sched = cf.ShiftedExpContinuous(1, 1, 1, 2)
        vals = [sched.shift(t) for t in range(1, 101)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_ad_at_most_one_rejected(self):
        with pytest.raises(ConfigurationError):
            cf.ShiftedExpContinuous(1, 1, 1, 1)  # a*d = 1
        with pytest.raises(ConfigurationError):
            cf.ShiftedExpContinuous(0.5, 1, 1, 1)


class TestBetaDeterministic:
    def test_reference_value(self):
        want = 2 * math.log(1000 * math.pi**2 / 0.6)
        assert cf.DeterministicUcb(1000, 0.1).shift(1) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(19.416, abs=1e-3)

    def test_doubling_t(self):
        sched = cf.DeterministicUcb(50, 0.2)
        for t in (1, 3, 10):
            diff = sched.shift(2 * t) - sched.shift(t)
            assert diff == pytest.approx(2 * math.log(4), rel=1e-12)

    def test_delta_near_one_single_point(self):
        val = cf.DeterministicUcb(1, 1 - 1e-12).shift(1)
        assert val == pytest.approx(2 * math.log(math.pi**2 / 6), abs=1e-6)
        assert val == pytest.approx(0.9954, abs=1e-4)


class TestGammaConfidence:
    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(42)
        sched = cf.GammaRandomized(1000, 1.0)
        draws = np.array([cf.next_confidence(sched, 1, rng) for _ in range(100000)])
        assert draws.mean() == pytest.approx(math.log(1000) / math.log(1.5), abs=0.2)

    def test_positivity(self):
        rng = np.random.default_rng(0)
        sched = cf.GammaRandomized(10, 0.5)
        draws = np.array([cf.next_confidence(sched, 2, rng) for _ in range(10000)])
        assert np.all(draws > 0)

    def test_shape_formula(self):
        for t in (1, 10, 100):
            want = (math.log(27) + 2 * math.log(t)) / math.log(1.5)
            assert cf.GammaRandomized(27).shape(t) == pytest.approx(want, rel=1e-12)

    def test_domain_one_first_iteration_rejected(self):
        with pytest.raises(ConfigurationError):
            cf.GammaRandomized(1, 1.0)


class TestHeuristics:
    def test_values(self):
        assert cf.HeuristicUcb(2).shift(1) == pytest.approx(0.4 * math.log(2), abs=1e-12)
        assert cf.HeuristicUcb(4).shift(50) == pytest.approx(0.8 * math.log(100), abs=1e-12)
        assert cf.HeuristicUcb(4).shift(50) == pytest.approx(3.684, abs=1e-3)

    def test_shifted_exp_companion_mean(self):
        sched = cf.HeuristicShiftedExp(d=3)
        assert sched.mean(17) == pytest.approx(3 / 2 + 2)


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

    def test_integer_seed_rejected(self):
        # Seeded afresh on every call, a randomized schedule would return
        # 9.786213736925397 at every t for seed 7.
        with pytest.raises(ConfigurationError, match="not int"):
            cf.next_confidence(cf.ShiftedExpFinite(100), 1, 7)

    @pytest.mark.parametrize("sched", [cf.Constant(1.0), cf.ShiftedExpFinite(100),
                                       cf.GammaRandomized(100)])
    @pytest.mark.parametrize("rng", [7, None, np.random.RandomState(7)],
                             ids=["int", "None", "RandomState"])
    def test_draw_takes_only_a_generator(self, sched, rng):
        with pytest.raises(ConfigurationError, match=type(rng).__name__):
            sched.draw(1, rng)
        with pytest.raises(ConfigurationError, match=type(rng).__name__):
            cf.next_confidence(sched, 1, rng)

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
            (cf.ShiftedExpHighProb(100, 0.1), 2, 2 * math.log(100 * 4 * math.pi**2 / 0.6) + 2),
            (cf.HeuristicShiftedExp(4), 9, 4.0),
            (cf.GammaRandomized(100, 2.0), 3, 2.0 * math.log(100 * 9) / math.log(1.5)),
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

    def test_gamma_quantile_is_the_scipy_stats_double(self):
        # The inverse regularized incomplete gamma times theta, against
        # scipy.stats' ppf, over domain sizes, iterations, levels in both
        # tails and scales, three of them seeded draws.
        thetas = [0.5, 1.0, 2.0] + np.random.default_rng(16).uniform(0.05, 20.0, 3).tolist()
        for size, t, q, theta in itertools.product(
                [2, 25, 1000, 10**6], [1, 7, 200, 10**5],
                [1e-6, 0.025, 0.5, 0.975, 1 - 1e-6], thetas):
            sched = cf.GammaRandomized(size, theta)
            want = float(gamma.ppf(q, sched.shape(t), scale=theta))
            assert sched.quantile(t, q) == want, (size, t, q, theta)

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


def _twin_draw(name, sched, t, twin):
    """Iteration t's draw rebuilt on a twin generator without the schedule's
    draw code: one Gamma variate of shape log(50 t^2)/log 1.5 and scale 1
    (the contract's |X| and default theta) for ``rgp_ucb``, and the shift
    plus an inverse-transform Exp(1/2) of one uniform for the others."""
    if name == "rgp_ucb":
        return float(twin.gamma(shape=math.log(50 * t * t) / math.log(1.5), scale=1.0))
    return sched.shift(t) - math.log(1.0 - twin.random()) / 0.5


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

    @pytest.mark.parametrize("name, sched",
                             [pytest.param(n, s, id=n) for n, s in CONTRACT if s.randomized])
    def test_randomized_advances_rng_once(self, name, sched):
        for t in (1, 4):
            rng, twin = np.random.default_rng(11), np.random.default_rng(11)
            before = rng.bit_generator.state
            value = cf.next_confidence(sched, t, rng)
            assert value == _twin_draw(name, sched, t, twin)
            assert rng.bit_generator.state == twin.bit_generator.state != before
            assert value >= sched.shift(t)

    @pytest.mark.parametrize("sched", DETERMINISTIC + RANDOMIZED)
    def test_pickle_round_trip(self, sched):
        # --jobs sends each schedule to its worker processes by pickle.
        copy = pickle.loads(pickle.dumps(sched))
        assert copy == sched and type(copy) is type(sched)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for t in range(1, 6):
            assert cf.next_confidence(copy, t, a) == cf.next_confidence(sched, t, b)

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
            cf.ShiftedExpContinuous(2.0, 1e-200, 1e-200, 1)  # b d r underflows
        with pytest.raises(ConfigurationError):
            cf.GammaRandomized(1)
        with pytest.raises(ConfigurationError):
            cf.HeuristicUcb(0)
