"""Correctness gate: each unit's outputs against the reference for its inputs.

Deterministic-acquisition algorithms (the UCB family, EI, the two-point
constants) must reproduce every replication's exact selection-index
sequence; a digest of the sequences is compared with the one recorded for
the unit's ring index. Posterior-sample algorithms (TS, PIMS) must keep their
mean final cumulative regret, pooled over the units of a run, within
``Z_BAND`` combined standard errors of the reference's. The files a unit
writes are checked against the traces it returned.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

Z_BAND = 4.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def selection_digest(traces) -> str:
    """Digest of the selection-index sequences of replications, in order."""
    h = hashlib.sha256()
    for tr in traces:
        h.update(np.asarray(tr.selected_index, dtype="<i8").tobytes())
        h.update(b"|")
    return h.hexdigest()[:32]


def regret_moments(traces) -> list[float]:
    """[count, sum, sum of squares] of the replications' final cumulative regret."""
    final = [float(tr.cumulative_regret[-1]) for tr in traces]
    return [len(final), math.fsum(final), math.fsum(v * v for v in final)]


def unit_record(traces_by_label: dict) -> dict:
    return {
        "digest": {k: selection_digest(v) for k, v in traces_by_label.items()},
        "regret": {k: regret_moments(v) for k, v in traces_by_label.items()},
    }


def reference_path(workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload) -> dict:
    """Recorded unit records keyed by ring index; refuses a stale file."""
    data = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    if data["config"] != workload.config or list(data["labels"]) != list(workload.labels):
        raise ValueError(f"{reference_path(workload)} was recorded for another workload definition")
    return {int(k): v for k, v in data["units"].items()}


def write_reference(workload, units: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = {"workload": workload.name, "config": workload.config,
               "labels": list(workload.labels),
               "units": {str(k): units[k] for k in sorted(units)}}
    reference_path(workload).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")


def _pooled(moments) -> tuple[float, float, int]:
    """Mean, variance of the mean, and count from [n, sum, sumsq]."""
    n, s, ss = moments
    if n == 0:
        return math.nan, math.nan, 0
    mean = s / n
    var = max(ss / n - mean * mean, 0.0) * n / (n - 1) if n > 1 else 0.0
    return mean, var / n, int(n)


class Gate:
    """Accumulates the checks of one run; ``errors`` empty means correct."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.errors: list[str] = []
        self.run_moments = {label: [0, 0.0, 0.0] for label in workload.labels}
        self.ref_moments = {label: [0, 0.0, 0.0] for label in workload.labels}

    def check_unit(self, ring_index: int, traces_by_label: dict) -> None:
        ref = self.reference.get(ring_index)
        if ref is None:
            self.errors.append(f"unit {ring_index}: no reference recorded")
            return
        got = unit_record(traces_by_label)
        for label in self.workload.labels:
            if label not in got["digest"]:
                self.errors.append(f"unit {ring_index}: {label} returned no traces")
                continue
            if label not in self.workload.sampled and got["digest"][label] != ref["digest"][label]:
                self.errors.append(
                    f"unit {ring_index}: {label} selections differ from the reference")
            for acc, moments in ((self.run_moments[label], got["regret"][label]),
                                 (self.ref_moments[label], ref["regret"][label])):
                for i in range(3):
                    acc[i] += moments[i]

    def check_bands(self) -> None:
        """Monte-Carlo band on pooled mean regret for the sampled labels."""
        for label in sorted(self.workload.sampled):
            m_run, v_run, n_run = _pooled(self.run_moments[label])
            m_ref, v_ref, _ = _pooled(self.ref_moments[label])
            if n_run == 0:
                continue
            band = Z_BAND * math.sqrt(v_run + v_ref) + 1e-12 * abs(m_ref)
            if not abs(m_run - m_ref) <= band:
                self.errors.append(
                    f"{label}: mean regret {m_run:.6g} outside {m_ref:.6g} +- {band:.3g}")

    def regret_ratio(self) -> float:
        """Run's total final regret over the reference total for the same units."""
        run = math.fsum(m[1] for m in self.run_moments.values())
        ref = math.fsum(m[1] for m in self.ref_moments.values())
        return run / ref if ref else math.nan


def check_outputs(out_dir: Path, workload, traces_by_label: dict, status: int) -> list[str]:
    """The files ``run_experiment`` wrote agree with the traces it returned."""
    errors = []
    if status != 0:
        errors.append(f"run_experiment exited with status {status}")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    missing = [name for name in manifest["outputs"] if not (out_dir / name).is_file()]
    if missing:
        errors.append(f"manifest lists missing outputs {missing}")
    for label, traces in traces_by_label.items():
        with open(out_dir / f"summary_{label}.csv", newline="", encoding="utf-8") as fh:
            final = float(list(csv.DictReader(fh))[-1]["mean_Rt"])
        expected = math.fsum(float(tr.cumulative_regret[-1]) for tr in traces) / len(traces)
        if not math.isclose(final, expected, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"summary_{label}.csv final mean_Rt {final!r} != traces' {expected!r}")
    return errors
