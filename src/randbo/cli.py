"""Configuration-driven experiment runner.

Commands:

* ``randbo run CONFIG [--out DIR] [--seed N] [--reps N] [--jobs N]
  [--overwrite]`` parses a config, applies the flags as config keys checked
  like the file's, runs the experiment, and writes trace and summary CSVs,
  bound-report JSON where applicable, the resolved ``config.txt``, and a
  manifest; config and seed determine every output byte.
* ``randbo check {lemma42, counterexample, bounds} [--quick]`` runs the
  built-in verification suites, each through its claims' verifiers in
  ``analysis``, and exits 4 when a check fails.
* ``randbo profile-confidence CONFIG [--out DIR]`` tabulates each
  configured schedule's analytic mean and 2.5%/97.5% quantiles per
  iteration.

An algorithm's schedule comes from its ``config.ALGORITHMS`` entry. A run
builds every algorithm or schedule it needs, and checks its horizons,
before its first replication, so a parameter it cannot use fails before
any result file is written. Every CSV is written by ``_write_csv``, which
formats each column once from its dtype, and every JSON file by
``_write_json``. Exit codes: 0 success, 2 configuration error, 3 numerical
error, 4 verification-check failure.
RANDBO_OUTPUT_ROOT sets the default output root (default ``runs``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, bench, confidence, gp
from .config import (ALGORITHMS, ExperimentConfig, override, parse_config, parse_text,
                     serialize_config)
from .engine import (
    ContinuousInstance,
    FixedInstanceSampler,
    RunConfig,
    run_replications,
)
from .errors import ConfigurationError, NumericalError, RandboError
from .rng import ZETA_SEQUENCES, substream

CHECK_FAILED = 4


def _cells(column) -> list[str]:
    """One column's cells, formatted once by dtype: floats by ``repr`` (so they
    round-trip), integers plain, bools ``true``/``false``, text as it is."""
    a = np.asarray(column)
    if a.dtype.kind == "b":
        return ["true" if v else "false" for v in a.tolist()]
    return list(map(repr if a.dtype.kind == "f" else str, a.tolist()))


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """A header line, then each block's rows; a block is a list of
    equal-length columns, so a long table is written a block at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            fh.writelines(f"{row}\n" for row in map(",".join, zip(*map(_cells, columns))))


def write_trace_csv(path: Path, traces) -> None:
    """All replications' per-iteration records in one file, written one
    replication at a time."""
    dim = traces[0].selected_x.shape[1]
    header = (["rep", "t", "selected_index"] + [f"x{j}" for j in range(dim)]
              + ["zeta", "y", "mu", "sigma", "r_t", "R_t"])
    blocks = (
        [np.full(tr.horizon, rep), np.arange(1, tr.horizon + 1), tr.selected_index,
         *tr.selected_x.T, tr.zeta_value, tr.observed_y, tr.mean_at_selection,
         tr.sd_at_selection, tr.instantaneous_regret, tr.cumulative_regret]
        for rep, tr in enumerate(traces)
    )
    _write_csv(path, header, blocks)


def write_summary_csv(path: Path, summary: analysis.RegretSummary) -> None:
    _write_csv(path, ["t", "mean_Rt", "stderr_Rt", "mean_simple", "stderr_simple"],
               [[np.arange(1, summary.horizon + 1), summary.mean_cumulative_curve,
                 summary.stderr_cumulative_curve, summary.mean_simple_curve,
                 summary.stderr_simple_curve]])


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_bounds_json(path: Path, reports: list[analysis.BoundReport]) -> None:
    _write_json(path, [dataclasses.asdict(r) for r in reports])


def write_manifest(path: Path, config: ExperimentConfig, outputs: list[str]) -> None:
    _write_json(path, {
        "version": __version__,
        "kind": config.kind,
        "base_seed": config.base_seed,
        "config": {k: v for k, v in sorted(config.values.items()) if v is not None},
        "outputs": sorted(outputs),
    })


# ---------------------------------------------------------------------------
# Config -> engine objects
# ---------------------------------------------------------------------------


def build_kernel(config: ExperimentConfig, dim: int) -> gp.KernelSpec:
    ells = [float(v) for v in config["kernel.lengthscale"]]
    if len(ells) == 1:
        ells = ells * dim
    if len(ells) != dim:
        raise ConfigurationError(
            f"kernel.lengthscale has {len(ells)} entries for dimension {dim}"
        )
    return gp.KernelSpec(config["kernel.family"], np.array(ells),
                         config["kernel.signal_variance"])


def build_refit_grid(config: ExperimentConfig, dim: int):
    period = config.values.get("refit.period")
    if period is None:
        return None, None
    family = config["kernel.family"]
    grid = tuple(
        gp.KernelSpec.isotropic(family, float(ell), dim, float(sv))
        for sv in config["refit.signal_variances"]
        for ell in config["refit.lengthscales"]
    )
    return period, grid


def build_algorithm(name: str, config: ExperimentConfig, domain_size: int,
                    dim: int) -> tuple[str, object]:
    """(acquisition kind, schedule-or-None) of an algorithm, from its
    ``config.ALGORITHMS`` entry: UCB with the schedule it builds, or the
    acquisition of its own name when it has none."""
    if name not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {name!r}")
    make = ALGORITHMS[name]
    if make is None:
        return name, None
    return "ucb", make(config, domain_size, dim)


def _run_config_for(config: ExperimentConfig, name: str, domain_size: int,
                    dim: int, kernel) -> RunConfig:
    acquisition, schedule = build_algorithm(name, config, domain_size, dim)
    period, grid = build_refit_grid(config, dim)
    return RunConfig(
        kernel=kernel,
        horizon=config.horizon,
        acquisition=acquisition,
        num_features=config["acquisition.num_features"],
        schedule=schedule,
        noise_variance=config.noise_variance,
        initial_design=config["initial.count"],
        refit_period=period,
        refit_grid=grid,
    )


def _check_initial_design(config: ExperimentConfig, domain_size: int) -> None:
    """A finite domain's initial design draws distinct points, at most all of them."""
    if config["initial.count"] > domain_size:
        raise ConfigurationError(f"initial.count exceeds the {domain_size} points of the domain")


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------


def _domain(config: ExperimentConfig):
    """(candidate source, domain size, dimension) of a config's problem.

    The source is the ``ContinuousInstance`` of the benchmark kind, the
    ``FiniteInstance`` of the tabular kind, the two-point sampler of the
    counterexample kind, and the grid of every other kind. Runners and confidence profiles take the domain size and
    dimension from here, so a schedule sees the same domain in both.
    """
    if config.kind == "benchmark":
        instance = bench.make_benchmark_instance(
            config["benchmark.name"], config.values.get("benchmark.dim"),
            config.noise_stddev, config["candidates.count"])
        return instance, instance.candidate_count, instance.dim
    if config.kind == "tabular":
        instance = bench.ingest_tabular(config["tabular.path"], config["tabular.objective"])
        return instance, len(instance.points), instance.dim
    if config.kind == "counterexample":
        return analysis.CounterexampleSampler(config["counterexample.rho"],
                                              config.noise_stddev), 2, 1
    grid = bench.GridSpec.uniform(config["grid.low"], config["grid.high"],
                                  config["grid.count"], config["grid.dim"])
    return grid, grid.size, grid.dim


def _run_roster(config: ExperimentConfig, out: Path) -> tuple[list[str], int]:
    """Every configured algorithm on one instance family.

    The synthetic kind redraws its objective on the grid per replication;
    the benchmark and tabular kinds rerun one fixed instance. The
    finite-domain bound reports need |X| fixed candidates, so a continuous
    instance, whose candidates are redrawn each iteration, gets none.
    """
    source, domain_size, dim = _domain(config)
    finite = not isinstance(source, ContinuousInstance)
    if finite:
        _check_initial_design(config, domain_size)
    kernel = build_kernel(config, dim)
    if config.kind == "synthetic_bcr":
        sampler = bench.SyntheticInstanceSampler(kernel, source, config.noise_stddev)
    else:
        sampler = FixedInstanceSampler(source)
    run_cfgs = [(name, _run_config_for(config, name, domain_size, dim, kernel))
                for name in config.algorithms]
    outputs: list[str] = []
    reports: list[analysis.BoundReport] = []
    for name, run_cfg in run_cfgs:
        traces = run_replications(sampler, run_cfg, config.n_reps,
                                  config.base_seed, config.n_jobs)
        summary = analysis.summarize_traces(traces)
        trace_file, summary_file = f"traces_{name}.csv", f"summary_{name}.csv"
        write_trace_csv(out / trace_file, traces)
        write_summary_csv(out / summary_file, summary)
        outputs += [trace_file, summary_file]

        if finite and name == "irgp_ucb":
            gain = analysis.mean_realized_gain(traces, kernel, config.noise_variance)
            value = analysis.bcr_bound_finite(summary.horizon, domain_size,
                                              config.noise_variance, gain)
            reports.append(analysis.BoundReport.compare(
                "expected_regret_bound_finite",
                {"T": summary.horizon, "domain_size": domain_size,
                 "noise_variance": config.noise_variance,
                 "gamma_realized_mean": gain, "n_reps": summary.n_reps},
                value, summary.mean_cumulative_regret))
        if finite and name == "irgp_ucb_high_prob":
            delta = config["irgp_ucb_high_prob.delta"]
            frac = analysis.high_prob_exceedance(traces, delta, domain_size, kernel,
                                                 config.noise_variance)
            reports.append(analysis.BoundReport(
                "anytime_regret_bound_coverage",
                {"T": config.horizon, "delta": delta, "domain_size": domain_size,
                 "n_reps": len(traces)},
                value=float(delta), target=frac, satisfied=bool(frac <= delta),
                slack=float(delta - frac)))
    if reports:
        write_bounds_json(out / "bounds.json", reports)
        outputs.append("bounds.json")
    return outputs, 0


# Whether the conditional-regret theorem's domain is continuous, for each
# schedule it covers: the analysis's shifted exponentials, not the heuristic.
_CONDITIONAL_BOUND = {"irgp_ucb": False, "irgp_ucb_high_prob": False,
                      "irgp_ucb_continuous": True}


def _run_conditional(config: ExperimentConfig, out: Path) -> tuple[list[str], int]:
    if len(config.algorithms) != 1:
        raise ConfigurationError(
            f"conditional_regret conditions on one algorithm, got {config.algorithms}")
    grid, domain_size, dim = _domain(config)
    _check_initial_design(config, domain_size)
    kernel = build_kernel(config, dim)
    sampler = bench.SyntheticInstanceSampler(kernel, grid, config.noise_stddev)
    name = config.algorithms[0]
    run_cfg = _run_config_for(config, name, domain_size, dim, kernel)
    schedule = run_cfg.schedule
    if schedule is None or not schedule.randomized:
        raise ConfigurationError(
            "conditional_regret needs a randomized UCB algorithm to condition on"
        )

    outputs: list[str] = []
    cond_means = []
    for k in range(config["conditional.n_sequences"]):
        rng = substream(config.base_seed, k, ZETA_SEQUENCES)
        zeta = np.array([
            confidence.next_confidence(schedule, t, rng)
            for t in range(1, config.horizon + 1)
        ])
        summary = analysis.estimate_conditional_regret(
            sampler, run_cfg, zeta, config.n_reps, config.base_seed + k,
            config.n_jobs)
        cond_means.append(summary.mean_cumulative_regret)
        fname = f"summary_conditional_{k}.csv"
        write_summary_csv(out / fname, summary)
        outputs.append(fname)

    if name in _CONDITIONAL_BOUND:
        s_T = schedule.shift(config.horizon)
        delta = config["conditional.delta"]
        greedy = analysis.greedy_information_gain(kernel, grid.points(), config.horizon,
                                                  config.noise_variance)
        gamma = greedy / analysis.GREEDY_GAIN_FRACTION
        value = analysis.conditional_bound_U(
            config.horizon, delta, s_T, config.noise_variance, gamma,
            continuous=_CONDITIONAL_BOUND[name])
        report = analysis.BoundReport.compare(
            "conditional_regret_bound",
            {"T": config.horizon, "delta": delta, "s_T": s_T,
             "gamma_greedy": greedy, "gamma_certified": gamma,
             "n_sequences": len(cond_means)},
            value, float(np.max(cond_means)))
        write_bounds_json(out / "bounds.json", [report])
        outputs.append("bounds.json")
    return outputs, 0


def _counterexample(config: ExperimentConfig, out: Path) -> list[analysis.SlopeVerdict]:
    """Run and judge the two-point schedules; write their summaries and
    ``slope_verdicts.json``."""
    horizons = sorted(config["counterexample.horizons"])
    if len(set(horizons)) < 2 or horizons[-1] < 3:
        raise ConfigurationError(
            "counterexample.horizons needs two distinct horizons, the longer at least 3")
    horizons = (horizons[0], horizons[-1])
    # Through this module's run_replications, which perfbench's study runner
    # replaces to label each schedule's traces.
    results = analysis.counterexample_slopes(
        config["counterexample.constants"], horizons, config.n_reps, config.base_seed,
        config["counterexample.rho"], config.noise_variance, config.noise_stddev,
        config.n_jobs, replicate=run_replications)
    for res in results:
        write_summary_csv(out / f"summary_{res.label}.csv", res.summary)
    _write_json(out / "slope_verdicts.json", [{
        "label": res.label, "horizons": horizons,
        "ratio": res.cumulative.ratio, "verdict": res.cumulative.verdict,
        "per_step_short": res.cumulative.per_step_first,
        "per_step_long": res.cumulative.per_step_second,
        "late_ratio": res.late.ratio, "late_verdict": res.late.verdict,
        "late_per_step_first": res.late.per_step_first,
        "late_per_step_second": res.late.per_step_second,
    } for res in results])
    return results


def _run_counterexample(config: ExperimentConfig, out: Path) -> tuple[list[str], int]:
    outputs = [f"summary_{res.label}.csv" for res in _counterexample(config, out)]
    return outputs + ["slope_verdicts.json"], 0


def _lemma_sweep(config: ExperimentConfig, out: Path) -> analysis.SweepVerdict:
    """Run the optimum-bound sweep and write ``lemma_check.csv``."""
    sweep = analysis.optimum_bound_sweep(
        config["lemma.n_configs"], config["lemma.max_grid"], config["lemma.max_data"],
        config["lemma.n_mc"], config.noise_variance, config.noise_stddev, config.base_seed)
    rows = [(*row, c.lhs, c.lhs_stderr, c.rhs, c.rhs_stderr, c.holds())
            for *row, c in sweep.rows]
    _write_csv(out / "lemma_check.csv",
               ["config_id", "domain_size", "n_data", "family", "dim",
                "lhs", "lhs_stderr", "rhs", "rhs_stderr", "holds"],
               [list(zip(*rows))])
    return sweep


def _run_lemma_check(config: ExperimentConfig, out: Path) -> tuple[list[str], int]:
    return ["lemma_check.csv"], 0 if _lemma_sweep(config, out).passed else CHECK_FAILED


def _run_bound_sweep(config: ExperimentConfig, out: Path) -> tuple[list[str], int]:
    reports = [
        report for T in config["bounds.horizons"] for delta in config["bounds.deltas"]
        for report in analysis.bound_sweep_reports(
            T, float(delta), config["bounds.domain_size"], config["bounds.gamma"],
            config.noise_variance, config["bounds.a"], config["bounds.b"],
            config["bounds.r"], config["bounds.dim"])]
    write_bounds_json(out / "bounds.json", reports)
    return ["bounds.json"], 0


RUNNERS = {
    "synthetic_bcr": _run_roster,
    "conditional_regret": _run_conditional,
    "benchmark": _run_roster,
    "tabular": _run_roster,
    "counterexample": _run_counterexample,
    "lemma_check": _run_lemma_check,
    "bound_sweep": _run_bound_sweep,
}


# ---------------------------------------------------------------------------
# Confidence profiles
# ---------------------------------------------------------------------------


def emit_confidence_profile(labeled_schedules, horizon: int):
    """Rows of analytic schedule statistics per iteration.

    Each row holds, for every (label, schedule) pair, the mean confidence
    value and the 2.5%/97.5% quantiles (which collapse onto the value for
    deterministic schedules).
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    header = ["t"]
    for label, _ in labeled_schedules:
        header += [f"{label}_mean", f"{label}_q025", f"{label}_q975"]
    rows = []
    for t in range(1, horizon + 1):
        row = [t]
        for _, sched in labeled_schedules:
            row += [sched.mean(t), sched.quantile(t, 0.025), sched.quantile(t, 0.975)]
        rows.append(row)
    return header, rows


def _profile_outputs(config: ExperimentConfig, out: Path) -> list[str]:
    _, domain_size, dim = _domain(config)
    labeled = []
    for name in config.algorithms:
        _, sched = build_algorithm(name, config, domain_size, dim)
        if sched is not None:
            labeled.append((name, sched))
    if not labeled:
        raise ConfigurationError("no UCB schedules among the configured algorithms")
    header, rows = emit_confidence_profile(labeled, config.horizon)
    _write_csv(out / "confidence_profile.csv", header, [list(zip(*rows))])
    return ["confidence_profile.csv"]


# ---------------------------------------------------------------------------
# Built-in verification suites (the `check` command)
# ---------------------------------------------------------------------------

LEMMA_CHECK_CONFIG = """
kind = lemma_check
lemma.n_configs = 50
lemma.n_mc = 100000
noise_variance = 0.01
noise_stddev = 0.1
"""

LEMMA_CHECK_QUICK = """
kind = lemma_check
lemma.n_configs = 10
lemma.n_mc = 20000
noise_variance = 0.01
noise_stddev = 0.1
"""

COUNTEREXAMPLE_CONFIG = """
kind = counterexample
n_reps = 500
counterexample.constants = 0.5, 1, 2
counterexample.horizons = 250, 1000
"""

COUNTEREXAMPLE_QUICK = """
kind = counterexample
n_reps = 80
counterexample.constants = 0.5, 1, 2
counterexample.horizons = 250, 1000
"""


def _report(verdicts) -> int:
    """Print each verdict's line; the suite's exit status."""
    for v in verdicts:
        print(f"{v.detail} -> {'PASS' if v.passed else 'FAIL'}")
    return 0 if all(v.passed for v in verdicts) else CHECK_FAILED


def _check_lemma42(out: Path, quick: bool) -> int:
    config = parse_text(LEMMA_CHECK_QUICK if quick else LEMMA_CHECK_CONFIG)
    return _report([_lemma_sweep(config, out)])


def _check_counterexample(out: Path, quick: bool) -> int:
    config = parse_text(COUNTEREXAMPLE_QUICK if quick else COUNTEREXAMPLE_CONFIG)
    return _report(_counterexample(config, out))


def _check_bounds(out: Path, quick: bool) -> int:
    n_mc = 20000 if quick else 100000
    return _report([*analysis.noise_event_claim(200 if quick else 1000, n_mc, 1),
                    *analysis.chi_square_coverage_claim(n_mc, 42),
                    analysis.gaussian_tail_claim()])


CHECKS = {
    "lemma42": _check_lemma42,
    "counterexample": _check_counterexample,
    "bounds": _check_bounds,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _resolve_out_dir(config: ExperimentConfig | None, out_flag: str | None,
                     default_name: str, force_overwrite: bool = False) -> Path:
    if out_flag:
        out = Path(out_flag)
    elif config is not None and config.values.get("output"):
        out = Path(config.values["output"])
    else:
        root = os.environ.get("RANDBO_OUTPUT_ROOT", "runs")
        out = Path(root) / default_name
    overwrite = force_overwrite or bool(config is not None and config.values.get("overwrite"))
    if out.exists() and any(out.iterdir()) and not overwrite:
        raise ConfigurationError(
            f"output directory {out} is not empty; pass --overwrite to reuse it"
        )
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_experiment(config: ExperimentConfig, out_dir) -> int:
    """Execute one experiment into ``out_dir``; returns the exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs, status = RUNNERS[config.kind](config, out)
    (out / "config.txt").write_text(serialize_config(config), encoding="utf-8")
    write_manifest(out / "manifest.json", config, outputs + ["config.txt"])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="randbo",
        description="Randomized-confidence Bayesian optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--reps", type=int, default=None)
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.add_argument("--overwrite", action="store_true")

    p_check = sub.add_parser("check", help="run a built-in verification suite")
    p_check.add_argument("suite", choices=sorted(CHECKS))
    p_check.add_argument("--quick", action="store_true")
    p_check.add_argument("--out", default=None)

    p_prof = sub.add_parser("profile-confidence",
                            help="tabulate schedule means and quantiles")
    p_prof.add_argument("config", type=Path)
    p_prof.add_argument("--out", default=None)
    p_prof.add_argument("--overwrite", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = override(parse_config(args.config), base_seed=args.seed,
                              n_reps=args.reps, n_jobs=args.jobs,
                              overwrite=args.overwrite or None)
            out = _resolve_out_dir(config, args.out, args.config.stem)
            status = run_experiment(config, out)
            print(f"wrote {out} (exit {status})")
            return status
        if args.command == "check":
            out = _resolve_out_dir(None, args.out, f"check_{args.suite}",
                                   force_overwrite=True)
            status = CHECKS[args.suite](out, args.quick)
            return status
        config = override(parse_config(args.config), overwrite=args.overwrite or None)
        out = _resolve_out_dir(config, args.out, f"profile_{args.config.stem}")
        outputs = _profile_outputs(config, out)
        write_manifest(out / "manifest.json", config, outputs)
        print(f"wrote {out}")
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except RandboError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
