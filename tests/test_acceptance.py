"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantities.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria 1 and 3-6 run their claim's verifier in ``analysis``, as ``randbo
check`` does, at pinned sizes and seeds. Monte-Carlo checks use pinned seeds
and three-standard-error slack unless a criterion states otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from randbo import analysis, bench, cli, confidence, gp
from randbo.acquisition import build_rff, rff_features
from randbo.engine import FiniteInstance, RunConfig, run_replications

SE = gp.KernelSpec.isotropic


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def report_all(criterion: str, verdicts) -> bool:
    """One line for a claim's ``analysis.Verdict``s; whether all pass."""
    passed = all(v.passed for v in verdicts)
    report(criterion, passed, "; ".join(v.detail for v in verdicts))
    return passed


# ---------------------------------------------------------------------------
# 1. Optimum-value inequality sweep (Monte Carlo)
# ---------------------------------------------------------------------------


def test_criterion_1_optimum_bound_sweep():
    """50 random configurations, n_mc = 1e5: lhs never exceeds rhs + 3 se."""
    sweep = analysis.optimum_bound_sweep(50, 50, 20, 100000, 1e-2, 0.1, seed=2024)
    report("criterion 1 (optimum-value inequality, 50 configs)", sweep.passed,
           f"{sweep.detail}, worst lhs-rhs margin={sweep.statistic:.2f} stderr units")
    assert sweep.passed


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
    gain = analysis.mean_realized_gain(traces, kernel, 1e-4)
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


@pytest.fixture(scope="module")
def counterexample_slopes():
    return analysis.counterexample_slopes((0.5, 1, 2), (250, 1000), 500, seed=7)


def test_criterion_3_counterexample_slopes(counterexample_slopes):
    """Criterion: every constant schedule keeps a flat per-step regret rate
    after the learning transient, and the randomized schedule reads
    sublinear-consistent, by the rule of ``analysis.judge_slopes``."""
    for res in counterexample_slopes:
        report(f"criterion 3 [{res.label}]", res.passed, res.detail)
    failures = [res.detail for res in counterexample_slopes if not res.passed]
    assert not failures, "; ".join(failures)


def test_criterion_3_companion_growth_contrast(counterexample_slopes):
    """Verified substance behind the two-point instance: constant schedules
    settle onto a positive per-step regret plateau (linear growth) while the
    randomized schedule keeps escaping, decaying toward zero and ending well
    below every constant schedule's plateau.

    The levels are compared over (500, 1000]: the cumulative per-step regret
    at T=1000 still carries the early transient, and there the randomized
    schedule and beta = 2 are equal in expectation."""
    def per_step_late(res):
        curve = res.summary.mean_cumulative_curve
        return float(curve[999] - curve[499]) / 500

    by_label = {res.label: res for res in counterexample_slopes}
    irgp = by_label.pop("irgp_ucb")
    slowest_constant = min(per_step_late(res) for res in by_label.values())
    ok_level = per_step_late(irgp) < slowest_constant
    ok_verdict = irgp.cumulative.verdict == analysis.SUBLINEAR_CONSISTENT
    constants_stay_positive = all(res.cumulative.per_step_second > 0.004
                                  for res in by_label.values())
    passed = ok_level and ok_verdict and constants_stay_positive
    report("criterion 3 companion (growth contrast)", passed,
           f"irgp per-step over (500,1000]={per_step_late(irgp):.4f} vs slowest "
           f"constant {slowest_constant:.4f}; irgp verdict={irgp.cumulative.verdict}")
    assert passed


# ---------------------------------------------------------------------------
# 4. Running-noise-average event frequency
# ---------------------------------------------------------------------------


def test_criterion_4_noise_event_frequency():
    assert report_all("criterion 4 (noise-average event)",
                      analysis.noise_event_claim(1000, 100000, seed=4))


# ---------------------------------------------------------------------------
# 5. Chi-square quantile-bound coverage
# ---------------------------------------------------------------------------


def test_criterion_5_chi_square_coverage():
    assert report_all("criterion 5 (chi-square coverage)",
                      analysis.chi_square_coverage_claim(100000, seed=5))


# ---------------------------------------------------------------------------
# 6. Normal tail dominance
# ---------------------------------------------------------------------------


def test_criterion_6_gaussian_tail_dominance():
    v = analysis.gaussian_tail_claim()
    report("criterion 6 (normal tail dominance)", v.passed,
           f"{v.detail} min margin={v.statistic:.3e}")
    assert v.passed


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
    frac = analysis.high_prob_exceedance(traces, 0.1, 20, kernel, 1e-2)
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
