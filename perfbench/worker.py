"""Benchmark worker: the single process that runs one workload's study.

Started by ``run.py`` (see there for the command line the benchmark takes).
``--setup-only`` stops after set-up, so the launcher can time set-up in
fresh processes. ``--record-reference`` rewrites the correctness references
in ``reference/`` for every ring index of the given workloads; run it only
at a commit whose outputs are known to be right.
"""

import os

# One BLAS thread: steadier timings on a small shared machine, and the
# selection digests in reference/ were recorded with this setting. Must be
# set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import solve_triangular  # noqa: E402

import randbo  # noqa: E402
from randbo import gp  # noqa: E402
from randbo.config import parse_text  # noqa: E402

from gate import Gate, load_reference, unit_record, write_reference  # noqa: E402
from study import Recorder, end_to_end, iteration_rate, run_unit  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import RING, WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"


def _openblas_threads(package, symbol: str):
    """Thread count reported by the OpenBLAS bundled with ``package``, or None."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            return int(getattr(ctypes.CDLL(str(lib)), symbol)())
        except (OSError, AttributeError):
            continue
    return None


def environment() -> dict:
    """Software and hardware facts recorded beside the results."""
    def blas(package) -> str:
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np),
        "numpy_blas_threads": _openblas_threads(np, "scipy_openblas_get_num_threads64_"),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "scipy_blas_threads": _openblas_threads(scipy, "scipy_openblas_get_num_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def set_up(workload, seed: int) -> None:
    """Everything a run does before its first replication, besides imports.

    The first LAPACK call of a process is much slower than later ones, so it
    is made here rather than inside a timed replication.
    """
    x = np.linspace(0.0, 1.0, 64)[:, None]
    K = gp.kernel_matrix(gp.KernelSpec.isotropic(gp.SQUARED_EXPONENTIAL, 0.1, 1), x)
    L = np.linalg.cholesky(K + 1e-6 * np.eye(64))
    solve_triangular(L, np.ones(64), lower=True)
    parse_text(workload.config_text(workload.ring_index(seed, 0)))


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm-up unit, then timed units until ``seconds`` have elapsed.

    Untraced runs time every unit. Traced runs alternate untraced and traced
    units, ending on a traced one, so the tracing overhead is measured
    within one process.
    """
    gate = Gate(workload, load_reference(workload))
    recorder = Recorder()
    tracer = Tracer(label_of=lambda: recorder.label) if trace else None
    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    units = []
    with recorder.installed():
        k = 0
        warm = run_unit(workload, workload.ring_index(seed, k), work_dir, recorder)
        warm_gate = Gate(workload, gate.reference)  # checked, but kept out of the pooled regret
        warm_gate.check_unit(warm.ring_index, recorder.traces)
        gate.errors += warm.errors + warm_gate.errors
        elapsed = 0.0
        while not gate.errors:
            k += 1
            traced = trace and k % 2 == 0
            unit = run_unit(workload, workload.ring_index(seed, k), work_dir, recorder,
                            tracer if traced else None)
            units.append(unit)
            gate.errors += unit.errors
            gate.check_unit(unit.ring_index, recorder.traces)
            elapsed += unit.seconds
            if elapsed >= seconds and (traced or not trace):
                break
    gate.check_bands()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [u for u in units if not u.traced]
    metrics, info = end_to_end(plain, gate, peak_rss_mb) if plain else ({}, {})
    result = {
        "attempted": sum(len(u.samples) for u in units),
        "failed": sum(f for u in units for _, _, f in u.samples),
        "correct": not gate.errors,
        "errors": gate.errors,
        "metrics": metrics,
        "info": info,
    }
    traced_units = [u for u in units if u.traced]
    if traced_units:
        rate_plain, rate_traced = iteration_rate(plain), iteration_rate(traced_units)
        overhead = 100.0 * (rate_plain / rate_traced - 1.0)
        result["metrics"] = tracer.layer_metrics(overhead)
        info["traced_units"] = len(traced_units)
        info["traced_iters_per_s"] = rate_traced
        info["traced_run_bo_ms_per_iter_by_algorithm"] = tracer.run_bo_ms_per_iter_by_label()
        tracer.dump(OUT_DIR / f"spans-{workload.name}.npz")
    return result


def record_reference(workload) -> None:
    """Record the gate's reference for every ring index of ``workload``."""
    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder()
    units = {}
    with recorder.installed():
        for j in range(RING):
            unit = run_unit(workload, j, work_dir, recorder)
            if unit.errors:
                raise SystemExit(f"{workload.name} unit {j}: {unit.errors}")
            units[j] = unit_record(recorder.traces)
            print(f"{workload.name}: recorded unit {j + 1}/{RING}", flush=True)
    write_reference(workload, units)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, default=None,
                   help="the launcher's time.monotonic() just before starting this process")
    p.add_argument("--result", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if Path(randbo.__file__).resolve().parent != ROOT / "src" / "randbo":
        print(f"randbo imported from {randbo.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        for name in args.workload:
            record_reference(WORKLOADS[name])
        return 0

    workload = WORKLOADS[args.workload[0]]
    set_up(workload, args.seed)
    result = {"setup_s": time.monotonic() - args.t0 if args.t0 is not None else None}
    if not args.setup_only:
        result.update(run(workload, args.seed, args.seconds, bool(args.trace)))
        result["env"] = environment()
    if args.result is not None:
        args.result.write_text(json.dumps(result), encoding="utf-8")
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
