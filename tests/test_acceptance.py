"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantities.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria and tolerances are fixed here; Monte-Carlo checks use pinned
seeds and three-standard-error slack unless a criterion states otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from randbo import analysis, bench, cli, confidence, gp
from randbo.acquisition import build_rff, rff_features
from randbo.engine import FiniteInstance, RunConfig, run_replications
from randbo.rng import substream

SE = gp.KernelSpec.isotropic


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. Optimum-value inequality sweep (Monte Carlo)
# ---------------------------------------------------------------------------


def test_criterion_1_optimum_bound_sweep():
    """50 random configurations, n_mc = 1e5: lhs never exceeds rhs + 3 se."""
    families = ("squared_exponential", "matern52")
    worst = -math.inf
    violations = 0
    for i in range(50):
        rng = substream(2024, 1, i)
        m = int(rng.integers(2, 51))
        n_data = int(rng.integers(0, 21))
        dim = int(rng.integers(1, 4))
        kernel = SE(families[i % 2], float(rng.uniform(0.1, 1.0)), dim)
        points = rng.random((m, dim))
        if n_data:
            X = rng.random((n_data, dim))
            y = gp.sample_prior(kernel, X, rng) + rng.normal(0, 0.1, size=n_data)
            dataset = (X, y)
        else:
            dataset = None
        check = analysis.validate_optimum_bound(kernel, points, dataset, 1e-2,
                                                100000, rng)
        margin = (check.lhs - check.rhs) / check.combined_stderr
        worst = max(worst, margin)
        violations += not check.holds()
    passed = violations == 0
    report("criterion 1 (optimum-value inequality, 50 configs)", passed,
           f"violations={violations}, worst lhs-rhs margin={worst:.2f} stderr units")
    assert passed


# ---------------------------------------------------------------------------
# 2. Finite-domain expected-regret bound at desk scale
# ---------------------------------------------------------------------------


def test_criterion_2_finite_regret_bound():
    """125-point grid, T=200, 200 reps: mean regret within the closed-form bound."""
    kernel = SE("squared_exponential", 0.1, 3)
    grid = bench.GridSpec.uniform(0.0, 0.9, 5, 3)
    assert grid.size == 125
    sampler = bench.SyntheticInstanceSampler(kernel, grid, 1e-2)
    cfg = RunConfig(kernel=kernel, horizon=200,
                    schedule=confidence.ShiftedExpFinite(125),
                    noise_variance=1e-4, initial_design=1)
    traces = run_replications(sampler, cfg, 200, 42)
    summary = analysis.summarize_traces(traces)
    gain = float(np.mean([
        analysis.realized_information_gain(kernel, tr.selected_x, 1e-4)
        for tr in traces
    ]))
    bound = analysis.bcr_bound_finite(200, 125, 1e-4, gain)
    limit = bound + 3 * summary.stderr_cumulative_curve[-1]
    passed = summary.mean_cumulative_regret <= limit
    report("criterion 2 (finite-domain regret bound)", passed,
           f"mean R_T={summary.mean_cumulative_regret:.2f} "
           f"bound={bound:.2f} (+3se limit {limit:.2f}, mean gain {gain:.1f})")
    assert passed


# ---------------------------------------------------------------------------
# 3. Two-point instance: linear vs sublinear growth
# ---------------------------------------------------------------------------


@dataclass
class _SlopeOutcome:
    label: str
    ratio: float
    verdict: str
    per_step_long: float
    late_ratio: float
    late_verdict: str
    late_rate_first: float
    late_rate_second: float
    per_step_late: float


def _counterexample_slopes(n_reps: int, seed: int) -> list[_SlopeOutcome]:
    sampler = analysis.counterexample_instance(0.0)
    outcomes = []
    for label, sched in [("constant_0.5", confidence.Constant(0.5)),
                         ("constant_1", confidence.Constant(1.0)),
                         ("constant_2", confidence.Constant(2.0)),
                         ("irgp_ucb", confidence.ShiftedExpFinite(2))]:
        cfg = RunConfig(kernel=sampler.kernel, horizon=1000, schedule=sched,
                        noise_variance=1.0)
        traces = run_replications(sampler, cfg, n_reps, seed)
        summary = analysis.summarize_traces(traces)
        res = analysis.regret_slope_test(summary.at_horizon(250), summary)
        late = analysis.late_window_slope_test(summary)
        curve = summary.mean_cumulative_curve
        outcomes.append(_SlopeOutcome(label, res.ratio, res.verdict,
                                      res.per_step_second, late.ratio,
                                      late.verdict, late.per_step_first,
                                      late.per_step_second,
                                      float(curve[999] - curve[499]) / 500))
    return outcomes


@pytest.fixture(scope="module")
def counterexample_slopes():
    return _counterexample_slopes(n_reps=500, seed=7)


def test_criterion_3_counterexample_slopes(counterexample_slopes):
    """Criterion: every constant schedule keeps a flat per-step regret rate
    after the learning transient, and the randomized schedule reads
    sublinear-consistent.

    A constant schedule passes when its per-step regret over (750, 1000]
    is at least 0.8 of that over (500, 750] (``late_window_slope_test``).
    It is not judged on cumulative averages between 250 and 1000, which
    carry the early transient every schedule goes through and read well
    below 0.8 for beta = 1 and 2 even with infinitely many replications.
    Nor is it held to a per-step level: the paper promises Omega(T) growth
    with an unspecified constant, and the plateaus of a correct UCB on this
    instance are about 0.024 / 0.015 / 0.0066 for beta = 0.5 / 1 / 2. The
    randomized schedule keeps the cumulative 250 -> 1000 test; its
    late-window ratio tends to about 0.76, below 0.8, so the late-window
    check does tell a plateau from a decaying rate.
    """
    failures = []
    for oc in counterexample_slopes:
        if oc.label == "irgp_ucb":
            ok = oc.verdict == analysis.SUBLINEAR_CONSISTENT
        else:
            ok = oc.late_verdict == analysis.LINEAR_CONSISTENT
        detail = (f"{oc.label}: ratio 250->1000={oc.ratio:.3f} ({oc.verdict}), "
                  f"late ratio={oc.late_ratio:.3f} ({oc.late_verdict}; per-step "
                  f"(500,750]={oc.late_rate_first:.4f}, "
                  f"(750,1000]={oc.late_rate_second:.4f})")
        if not ok:
            failures.append(detail)
        report(f"criterion 3 [{oc.label}]", ok, detail)
    assert not failures, "; ".join(failures)


def test_criterion_3_companion_growth_contrast(counterexample_slopes):
    """Verified substance behind the two-point instance: constant schedules
    settle onto a positive per-step regret plateau (linear growth) while the
    randomized schedule keeps escaping, decaying toward zero and ending well
    below every constant schedule's plateau.

    The levels are compared over (500, 1000]: the cumulative per-step regret
    at T=1000 still carries the early transient, and there the randomized
    schedule and beta = 2 are equal in expectation."""
    by_label = {oc.label: oc for oc in counterexample_slopes}
    irgp = by_label.pop("irgp_ucb")
    slowest_constant = min(oc.per_step_late for oc in by_label.values())
    ok_level = irgp.per_step_late < slowest_constant
    ok_verdict = irgp.verdict == analysis.SUBLINEAR_CONSISTENT
    constants_stay_positive = all(oc.per_step_long > 0.004 for oc in by_label.values())
    passed = ok_level and ok_verdict and constants_stay_positive
    report("criterion 3 companion (growth contrast)", passed,
           f"irgp per-step over (500,1000]={irgp.per_step_late:.4f} vs slowest "
           f"constant {slowest_constant:.4f}; irgp verdict={irgp.verdict}")
    assert passed


# ---------------------------------------------------------------------------
# 4. Running-noise-average event frequency
# ---------------------------------------------------------------------------


def test_criterion_4_noise_event_frequency():
    curve = analysis.noise_event_curve(1000, 100000, 4)
    at_one = float(curve[0])
    at_horizon = float(curve[-1])
    level = 0.8413447460685429
    se_hat = math.sqrt(level * (1 - level) / 100000)
    ok_one = abs(at_one - level) < 3 * se_hat
    ok_lb = at_horizon >= 0.229
    passed = ok_one and ok_lb
    report("criterion 4 (noise-average event)", passed,
           f"P(T=1)={at_one:.4f} (target {level:.4f}), P(T=1000)={at_horizon:.4f} >= 0.229")
    assert passed


# ---------------------------------------------------------------------------
# 5. Chi-square quantile-bound coverage
# ---------------------------------------------------------------------------


def test_criterion_5_chi_square_coverage():
    rng = np.random.default_rng(5)
    worst = []
    passed = True
    for D in (1, 10, 100):
        for delta in (0.01, 0.05, 0.2):
            draws = rng.chisquare(D, size=100000)
            freq = float(np.mean(draws > analysis.laurent_bound(D, delta)))
            passed &= freq <= delta
            worst.append(f"D={D},delta={delta}:{freq:.4f}")
    report("criterion 5 (chi-square coverage)", passed, "; ".join(worst))
    assert passed


# ---------------------------------------------------------------------------
# 6. Normal tail dominance
# ---------------------------------------------------------------------------


def test_criterion_6_gaussian_tail_dominance():
    from scipy.stats import norm

    margins = [analysis.gaussian_tail_bound(float(c)) - float(norm.sf(c))
               for c in np.arange(0.1, 5.05, 0.1)]
    passed = all(m >= 0.0 for m in margins)
    report("criterion 6 (normal tail dominance)", passed,
           f"min margin={min(margins):.3e} over c in [0.1, 5.0]")
    assert passed


# ---------------------------------------------------------------------------
# 7. Anytime high-probability bound coverage at desk scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TwentyPointSampler:
    kernel: gp.KernelSpec
    noise_stddev: float = 0.1

    def __call__(self, rep, rng):
        pts = rng.random((20, 2))
        vals = gp.sample_prior(self.kernel, pts, rng)
        return FiniteInstance(pts, vals, self.noise_stddev)


def test_criterion_7_high_prob_coverage():
    kernel = SE("squared_exponential", 0.4, 2)
    cfg = RunConfig(kernel=kernel, horizon=200,
                    schedule=confidence.ShiftedExpHighProb(20, 0.1),
                    noise_variance=1e-2, initial_design=1)
    traces = run_replications(_TwentyPointSampler(kernel), cfg, 200, 7)
    exceed = 0
    for tr in traces:
        gain = analysis.realized_information_gain(kernel, tr.selected_x, 1e-2)
        bound = analysis.high_prob_bound(200, 0.1, 20, 1e-2, gain)
        exceed += tr.cumulative_regret[-1] > bound
    frac = exceed / len(traces)
    limit = 0.1 + 3 * math.sqrt(0.1 * 0.9 / len(traces))
    passed = frac <= limit
    report("criterion 7 (anytime bound coverage)", passed,
           f"exceedance={frac:.4f} <= {limit:.4f} over {len(traces)} reps")
    assert passed


# ---------------------------------------------------------------------------
# 8. Confidence-profile reproduction (analytic)
# ---------------------------------------------------------------------------


def test_criterion_8_confidence_profile():
    labeled = [
        ("gp_ucb", confidence.DeterministicUcb(1000, 0.1)),
        ("rgp_ucb", confidence.GammaRandomized(1000, 1.0)),
        ("irgp_ucb", confidence.ShiftedExpFinite(1000)),
    ]
    header, rows = cli.emit_confidence_profile(labeled, 200)
    col = {name: k for k, name in enumerate(header)}
    irgp = np.array([r[col["irgp_ucb_mean"]] for r in rows])
    gpucb = np.array([r[col["gp_ucb_mean"]] for r in rows])
    rgp = np.array([r[col["rgp_ucb_mean"]] for r in rows])

    want_const = 2.0 + 2.0 * math.log(500.0)
    ok_const = np.max(np.abs(irgp - want_const)) < 1e-6
    ok_gp = np.all(np.diff(gpucb) > 0) and abs(
        gpucb[0] - 2 * math.log(1000 * math.pi**2 / 0.6)) < 1e-6
    kappa = np.array([math.log(1000.0 * t * t) / math.log(1.5)
                      for t in range(1, 201)])
    ok_rgp = np.max(np.abs(rgp - kappa)) < 1e-6 and np.all(np.diff(rgp) > 0)
    ok_kappa1 = abs(rgp[0] - 17.036620761802716) < 1e-6
    passed = bool(ok_const and ok_gp and ok_rgp and ok_kappa1)
    report("criterion 8 (confidence profile)", passed,
           f"E[zeta]={irgp[0]:.5f} (want {want_const:.5f}), kappa_1={rgp[0]:.5f}")
    assert passed


# ---------------------------------------------------------------------------
# 9. Directional ordering on prior-sampled functions at paper scale
# ---------------------------------------------------------------------------


def test_criterion_9_simple_regret_ordering():
    kernel = SE("squared_exponential", 0.1, 3)
    grid = bench.GridSpec.uniform(0.0, 0.9, 10, 3)
    sampler = bench.SyntheticInstanceSampler(kernel, grid, 1e-2)
    summaries = {}
    for name, sched in [("irgp_ucb", confidence.ShiftedExpFinite(1000)),
                        ("gp_ucb", confidence.DeterministicUcb(1000, 0.1))]:
        cfg = RunConfig(kernel=kernel, horizon=200, schedule=sched,
                        noise_variance=1e-4, initial_design=1)
        traces = run_replications(sampler, cfg, 20, 99)
        summaries[name] = analysis.summarize_traces(traces)
    si, sg = summaries["irgp_ucb"], summaries["gp_ucb"]
    mi, mg = si.mean_simple_curve[-1], sg.mean_simple_curve[-1]
    ei, eg = si.stderr_simple_curve[-1], sg.stderr_simple_curve[-1]
    margin = math.hypot(ei, eg)
    passed = mi <= mg + margin
    report("criterion 9 (simple-regret ordering)", passed,
           f"irgp={mi:.4f}+-{ei:.4f} vs gp_ucb={mg:.4f}+-{eg:.4f}")
    assert passed


# ---------------------------------------------------------------------------
# 10. Numerical core agreements
# ---------------------------------------------------------------------------


def test_criterion_10_numerical_core():
    rng = np.random.default_rng(10)
    kernel = SE("squared_exponential", 0.5, 3)

    # incremental vs batch posterior over a 50-step run
    X = rng.random((50, 3))
    y = rng.normal(size=50)
    state = gp.empty_state(kernel, 1e-3)
    for i in range(50):
        state = gp.incremental_update(state, X[i], y[i])
    probes = rng.random((20, 3))
    mean_inc, var_inc = gp.posterior_batch(state, probes)
    batch = gp.batch_state(kernel, X, y, 1e-3)
    mean_b, var_b = gp.posterior_batch(batch, probes)
    inc_err = max(np.max(np.abs(mean_inc - mean_b)), np.max(np.abs(var_inc - var_b)))

    # batch vs sequential information gain
    pts = rng.random((10, 3))
    batch_gain = analysis.realized_information_gain(kernel, pts, 0.5)
    st = gp.empty_state(kernel, 0.5)
    seq_gain = 0.0
    for x in pts:
        seq_gain += 0.5 * math.log(1.0 + gp.posterior_batch(st, x)[1][0] / 0.5)
        st = gp.incremental_update(st, x, 0.0)
    gain_err = abs(batch_gain - seq_gain)

    # feature-map Gram error at the pinned seed
    kern_rff = SE("squared_exponential", 1.0, 3)
    rff = build_rff(kern_rff, 2000, seed=3)
    probes_rff = np.random.default_rng(1).uniform(-1, 1, size=(20, 3))
    feats = rff_features(rff, probes_rff)
    gram_err = float(np.max(np.abs(feats @ feats.T - gp.kernel_matrix(kern_rff, probes_rff))))

    passed = inc_err < 1e-8 and gain_err < 1e-8 and gram_err < 0.05
    report("criterion 10 (numerical core)", passed,
           f"incremental-vs-batch={inc_err:.2e}, gain identity={gain_err:.2e}, "
           f"feature Gram={gram_err:.4f}")
    assert passed
