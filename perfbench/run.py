"""randbo benchmark: one workload's replicated study, measured from outside ``src/``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads are defined in workloads.py.
The study itself runs in one worker process (worker.py); set-up time is the
median over that process and ``SETUP_PROBES`` fresh processes that stop
after set-up. Prints a report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. Exits 1 when the correctness gate fails and 2 when the benchmark
cannot run (for example without ``src/randbo`` beside it). Results are also
written to ``perfbench/out/``.

Stdlib only: the launcher's own start-up must not hide in set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 2
DEADLINE_S = 170.0


def _worker(args: list[str], result: Path, timeout: float) -> dict | None:
    """Start worker.py, wait for it, and return the result it wrote."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0),
           "--result", str(result)]
    # A fixed hash seed removes one source of process-to-process variation.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    try:
        if proc.returncode != 0:
            return None
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink(missing_ok=True)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report(name: str, args, res: dict, setups: list[float]) -> list[str]:
    info, m, env = res["info"], res["metrics"], res["env"]
    lines = [f"{name} seed={args.seed} trace={args.trace}: {res['attempted']} replications "
             f"({res['failed']} failed) in {info.get('units', 0)} untraced and "
             f"{info.get('traced_units', 0)} traced timed units after warm-up"]
    if "traced_units" in info:
        lines.append(f"  tracing overhead {_fmt(m['trace.overhead_pct'])} % "
                     f"({info['traced_units']} traced units at "
                     f"{_fmt(info['traced_iters_per_s'])} iters/s)")
        lines += [f"  {k:44s} {_fmt(v)}" for k, v in m.items()]
        per_iter = info["traced_run_bo_ms_per_iter_by_algorithm"]
        lines.append("  traced run_bo ms/iter: "
                     + ", ".join(f"{k} {_fmt(v)}" for k, v in per_iter.items()))
    elif m:
        lines += [
            f"  iters_per_s      {_fmt(m['iters_per_s'])} 1/s",
            f"  rep_ms_p50       {_fmt(m['rep_ms_p50'])} ms (n={info['replications']})",
            f"  rep_ms_tail      {_fmt(m['rep_ms_tail'])} ms "
            f"(p{info['rep_ms_tail_percentile']:.1f}, n={info['rep_ms_tail_n']}, 10 beyond)",
            f"  setup_s          {_fmt(statistics.median(setups))} s (median of "
            + ", ".join(f"{s:.3f}" for s in setups) + ")",
            f"  peak_rss_mb      {_fmt(m['peak_rss_mb'])} MB",
            f"  failed_rep_frac  {_fmt(info['failed_rep_frac'])} "
            f"({info['failed_replications']} of {info['replications']}; "
            f"rep_ok_frac {_fmt(m['rep_ok_frac'])})",
            f"  cum_regret_mean  {_fmt(info['cum_regret_mean'])} +- "
            f"{_fmt(info['cum_regret_stderr'])} (stderr, n={info['cum_regret_n']}; "
            f"cum_regret_rel {_fmt(m['cum_regret_rel'])} of the reference)",
            "  replication ms/iter (draw included): "
            + ", ".join(f"{k} {_fmt(v)}" for k, v in info["ms_per_iter_by_algorithm"].items()),
        ]
    lines.append("  environment: " + json.dumps(env, sort_keys=True))
    lines.append("  correctness gate: " + ("pass" if res["correct"] else
                                          "FAIL: " + "; ".join(res["errors"][:5])))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="randbo benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "randbo" / "__init__.py").is_file():
        print(f"no randbo sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}

    start = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for i in range(SETUP_PROBES):
        probe = _worker(common + ["--setup-only"], OUT_DIR / f"probe-{tag}-{i}.json", 60.0)
        if probe is None:
            return 2
        setups.append(probe["setup_s"])
    res = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                  OUT_DIR / f"worker-{tag}.json", DEADLINE_S - (time.monotonic() - start))
    if res is None:
        return 2
    setups.append(res["setup_s"])

    metrics = dict(res["metrics"])
    if not args.trace and metrics:
        metrics["setup_s"] = statistics.median(setups)
    if res["correct"] and set(metrics) != set(units):
        print(f"reported metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2
    print("\n".join(report(args.workload, args, res, setups)))
    final = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
             "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}}
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**res, "setup_samples_s": setups, "final": final}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(final), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
