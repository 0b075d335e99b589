"""Closed-loop study runner: units of a workload through ``randbo.cli.run_experiment``.

One client, one process, replications back to back (``n_jobs = 1``). The
only instrumentation of an untraced unit is ``Recorder``: a timer around
each replication (``engine._run_one``: instance draw plus ``run_bo``) and
a label on each ``run_replications`` call, whose returned traces feed the
correctness gate.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from randbo import cli, engine
from randbo.config import parse_text
from randbo.errors import RandboError

from gate import check_outputs

TAIL_BEYOND = 10


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Nearest-rank definition: the value is the sample of rank ``n - beyond``
    (the ``beyond + 1``-th largest) and its percentile is ``100 (n - beyond) / n``;
    any higher percentile has a rank with fewer samples beyond it. Returns
    ``(percentile, value, n)``; with ``n <= beyond`` no percentile qualifies
    and the maximum is returned as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return 100.0, xs[-1], n
    rank = n - beyond
    return 100.0 * rank / n, xs[rank - 1], n


@dataclass
class Unit:
    """One ``run_experiment`` call, timed.

    Its traces stay in ``Recorder.traces`` only until the next unit starts,
    so a run's memory does not grow with the number of units.
    """

    ring_index: int
    seconds: float
    traced: bool
    samples: list            # (label, seconds, failed) per replication
    iterations_by_label: dict
    errors: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return sum(self.iterations_by_label.values())


class Recorder:
    """Per-replication timer and per-algorithm trace capture."""

    def __init__(self):
        self.label = None
        self.samples: list = []
        self.traces: dict = {}
        self._labels = iter(())

    def begin_unit(self, labels) -> None:
        self._labels = iter(labels)
        self.samples = []
        self.traces = {}

    @contextmanager
    def installed(self):
        run_one, run_reps = engine._run_one, cli.run_replications

        def timed_run_one(args):
            start = perf_counter()
            out = run_one(args)
            self.samples.append((self.label, perf_counter() - start, out[2] is not None))
            return out

        def labelled_run_replications(*args, **kwargs):
            self.label = next(self._labels)
            traces = run_reps(*args, **kwargs)
            self.traces[self.label] = traces
            return traces

        engine._run_one, cli.run_replications = timed_run_one, labelled_run_replications
        try:
            yield self
        finally:
            engine._run_one, cli.run_replications = run_one, run_reps


def run_unit(workload, ring_index: int, work_dir: Path, recorder: Recorder,
             tracer=None) -> Unit:
    """Run one unit into a temporary directory under ``work_dir`` and check its files.

    The unit's traces are left in ``recorder.traces`` for the gate.
    """
    recorder.begin_unit(workload.labels)
    out = Path(tempfile.mkdtemp(prefix="unit-", dir=work_dir))
    errors: list[str] = []

    def study():
        return cli.run_experiment(parse_text(workload.config_text(ring_index)), out)

    try:
        with tracer.installed() if tracer else nullcontext():
            start = perf_counter()
            try:
                status = tracer.call("cli.run_experiment", study) if tracer else study()
            except RandboError as exc:
                status = None
                errors.append(f"unit {ring_index}: {type(exc).__name__}: {exc}")
            seconds = perf_counter() - start
        if status is not None:
            errors += check_outputs(out, workload, recorder.traces, status)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    iterations = {k: sum(tr.horizon for tr in v) for k, v in recorder.traces.items()}
    return Unit(ring_index, seconds, tracer is not None, recorder.samples, iterations, errors)


def iteration_rate(units) -> float:
    """BO iterations completed per wall second over the given units."""
    seconds = math.fsum(u.seconds for u in units)
    return sum(u.iterations for u in units) / seconds if seconds else math.nan


def ms_per_iteration_by_label(units) -> dict:
    """Replication wall time (instance draw included) per iteration, by algorithm."""
    total, iters = {}, {}
    for u in units:
        for label, seconds, _ in u.samples:
            total[label] = total.get(label, 0.0) + seconds
        for label, n in u.iterations_by_label.items():
            iters[label] = iters.get(label, 0) + n
    return {k: 1e3 * total[k] / iters[k] for k in total if iters.get(k)}


def end_to_end(units, gate, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of the timed units (``setup_s`` is added by the launcher).

    Returns ``(metrics, info)``: ``metrics`` holds the values declared in
    BENCHMARK.json; ``info`` the sample counts, percentile and standard
    error printed beside them.
    """
    rep_ms = [1e3 * s for u in units for _, s, _ in u.samples]
    attempted = len(rep_ms)
    failed = sum(f for u in units for _, _, f in u.samples)
    pct, tail, n = tail_percentile(rep_ms)
    n_reg = sum(m[0] for m in gate.run_moments.values())
    s_reg = math.fsum(m[1] for m in gate.run_moments.values())
    ss_reg = math.fsum(m[2] for m in gate.run_moments.values())
    mean_reg = s_reg / n_reg if n_reg else math.nan
    se_reg = (math.sqrt(max(ss_reg / n_reg - mean_reg ** 2, 0.0) / (n_reg - 1))
              if n_reg > 1 else math.nan)
    metrics = {
        "iters_per_s": iteration_rate(units),
        "rep_ms_p50": statistics.median(rep_ms),
        "rep_ms_tail": tail,
        "peak_rss_mb": peak_rss_mb,
        "rep_ok_frac": 1.0 - failed / attempted,
        "cum_regret_rel": gate.regret_ratio(),
    }
    info = {
        "units": len(units),
        "replications": attempted,
        "failed_replications": failed,
        "failed_rep_frac": failed / attempted,
        "iterations": sum(u.iterations for u in units),
        "seconds": math.fsum(u.seconds for u in units),
        "rep_ms_tail_percentile": pct,
        "rep_ms_tail_n": n,
        "cum_regret_mean": mean_reg,
        "cum_regret_stderr": se_reg,
        "cum_regret_n": n_reg,
        "ms_per_iter_by_algorithm": ms_per_iteration_by_label(units),
    }
    return metrics, info
