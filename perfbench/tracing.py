"""Span tracer for the traced run, applied from outside ``src/``.

``Tracer.installed()`` replaces, for the duration of one unit, the module
attributes through which randbo actually makes its calls with wrappers that
record a span (name, start, end, parent span, replication id) and, at a few
boundaries, counts. ``engine`` binds its acquisition and confidence
functions at import, so those are replaced in ``randbo.engine``;
``rff_features`` is also replaced in ``randbo.acquisition``, where
``sample_posterior_path`` looks it up. Spans live in compact arrays until
``dump``. A counting hook runs as its own ``trace.count`` span, so its cost
lands in the ``trace`` layer rather than in the caller's self time.

Layers are named after the modules; ``config``, ``rng`` and ``errors`` are
not timed.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from randbo import acquisition, analysis, bench, cli, engine, gp

LAYERS = ("bench", "gp", "confidence", "acquisition", "engine", "analysis", "cli", "trace")


def _kernel_key(kernel) -> bytes:
    if isinstance(kernel, gp.ExplicitKernel):
        return b"explicit" + kernel.cov.tobytes()
    return (kernel.family.encode() + kernel.lengthscales.tobytes()
            + repr(kernel.signal_variance).encode())


def _digest(*parts: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p)
        h.update(b"|")
    return h.digest()


def _count_kernel_matrix(tracer, args, kwargs, out) -> None:
    kernel, X = args[0], args[1]
    X2 = args[2] if len(args) > 2 else kwargs.get("X2")
    xk = tracer.array_key(X)
    tracer.count_repeat("gp.kernel_matrix", out.size,
                        _digest(_kernel_key(kernel), xk, xk if X2 is None else tracer.array_key(X2)))


def _count_rff_features(tracer, args, kwargs, out) -> None:
    rff, X = args[0], args[1]
    tracer.count_repeat("acquisition.rff_features", out.size,
                        _digest(rff.frequencies.tobytes(), rff.phases.tobytes(),
                                tracer.array_key(X)))


def _count_refit(tracer, args, kwargs, out) -> None:
    tracer.counts["gp.fit_hyperparameters.changed"] += _kernel_key(out) != _kernel_key(tracer.kernel)
    tracer.kernel = out


def _count_written_bytes(tracer, args, kwargs, out) -> None:
    tracer.counts["cli.write_trace_csv.bytes"] += os.path.getsize(args[0])


# (owners, attribute, span name, counting hook). Each owner holds the name
# that callers resolve at call time.
TARGETS = [
    ((gp,), "kernel_matrix", "gp.kernel_matrix", _count_kernel_matrix),
    ((gp,), "sample_prior", "gp.sample_prior", None),
    ((gp,), "incremental_update", "gp.incremental_update", None),
    ((gp,), "posterior_batch", "gp.posterior_batch", None),
    ((gp,), "batch_state", "gp.batch_state", None),
    ((gp,), "fit_hyperparameters", "gp.fit_hyperparameters", _count_refit),
    ((engine,), "next_confidence", "confidence.next_confidence", None),
    ((engine,), "build_rff", "acquisition.build_rff", None),
    ((engine,), "sample_posterior_path", "acquisition.sample_posterior_path", None),
    ((engine, acquisition), "rff_features", "acquisition.rff_features", _count_rff_features),
    ((engine,), "ucb_scores", "acquisition.score", None),
    ((engine,), "expected_improvement", "acquisition.score", None),
    ((engine,), "pims_scores", "acquisition.score", None),
    ((engine,), "run_bo", "engine.run_bo", None),
    ((bench._UnitCubeObjective,), "__call__", "bench.objective", None),
    ((analysis,), "realized_information_gain", "analysis.realized_information_gain", None),
    ((analysis,), "summarize_traces", "analysis.summarize_traces", None),
    ((analysis,), "regret_slope_test", "analysis.regret_slope_test", None),
    ((cli,), "write_trace_csv", "cli.write_trace_csv", _count_written_bytes),
    ((cli,), "write_summary_csv", "cli.write_summary_csv", None),
    ((cli,), "write_bounds_json", "cli.write_bounds_json", None),
    ((cli,), "write_manifest", "cli.write_manifest", None),
]


def self_times(start, end, parent) -> tuple[np.ndarray, np.ndarray]:
    """Durations and self times: a span's duration minus its direct children's.

    Children of one span never overlap (one thread), so subtracting their
    durations removes exactly the part of the interval they cover.
    """
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    dur = end - start
    child = np.zeros(dur.shape[0])
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur, dur - child


class Tracer:
    """In-memory spans and counts for the traced units of one run."""

    def __init__(self, label_of=lambda: None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rep = array("i")
        self._stack = [-1]
        self._rep = -1
        self.reps: list = []          # (label, iterations, failed) per traced replication
        self.counts: Counter = Counter()
        self.kernel = None            # current replication's kernel, for refit changes
        self._seen: set = set()
        self._frozen: dict = {}       # id -> (array, key) for read-only arrays of this replication
        self._label_of = label_of

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.rep.append(self._rep)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        i = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def wrap(self, name: str, fn, count=None):
        nid, count_id = self._id(name), self._id("trace.count")

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                j = self._open(count_id)
                try:
                    count(self, args, kwargs, out)
                finally:
                    self._close(j)
            return out

        return traced

    def array_key(self, x) -> bytes:
        """Digest of an array's shape and values.

        Read-only arrays (candidate grids) cannot change, so their digest is
        computed once per replication; the array is held to keep its id valid.
        """
        frozen = isinstance(x, np.ndarray) and not x.flags.writeable and x.size >= 256
        if frozen:
            hit = self._frozen.get(id(x))
            if hit is not None:
                return hit[1]
        a = np.asarray(x, dtype=float)
        key = _digest(repr(a.shape).encode(), a.tobytes())
        if frozen:
            self._frozen[id(x)] = (x, key)
        return key

    def count_repeat(self, name: str, entries: int, key: bytes) -> None:
        """Count entries computed, and those already computed for the same inputs."""
        self.counts[f"{name}.entries"] += entries
        if key in self._seen:
            self.counts[f"{name}.repeat_entries"] += entries
        else:
            self._seen.add(key)

    def _wrap_replication(self, run_one):
        rep_id, draw_id = self._id("engine.replication"), self._id("bench.instance_draw")

        def traced(args):
            sampler, config = args[0], args[1]

            def timed_sampler(rep, rng):
                i = self._open(draw_id)
                try:
                    return sampler(rep, rng)
                finally:
                    self._close(i)

            self._rep, self.kernel = len(self.reps), config.kernel
            self._frozen.clear()
            i = self._open(rep_id)
            try:
                rep, trace, err = run_one((timed_sampler, *args[1:]))
            finally:
                self._close(i)
                self._rep = -1
            self.reps.append((self._label_of(), 0 if trace is None else trace.horizon,
                              err is not None))
            return rep, trace, err

        return traced

    @contextmanager
    def installed(self):
        """Replace every target with its traced wrapper; restore on exit."""
        saved = [(engine, "_run_one", engine._run_one)]
        try:
            engine._run_one = self._wrap_replication(engine._run_one)
            for owners, attr, name, count in TARGETS:
                wrapped = self.wrap(name, getattr(owners[0], attr), count)
                for owner in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
            "rep": np.frombuffer(self.rep, dtype=np.intc),
        }

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> tuple[dict, dict]:
        """Per-name call counts, total and self seconds; per-layer self seconds."""
        a = self.arrays()
        dur, own = self_times(a["start"], a["end"], a["parent"])
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_total = np.bincount(a["name_id"], weights=own, minlength=k)
        by_name = {n: (int(calls[i]), float(total[i]), float(self_total[i]))
                   for i, n in enumerate(self.names)}
        layers = dict.fromkeys(LAYERS, 0.0)
        for n, (_, _, s) in by_name.items():
            layers[n.split(".", 1)[0]] += s
        return by_name, layers

    def run_bo_ms_per_iter_by_label(self) -> dict:
        """Traced ``run_bo`` wall time per iteration, by algorithm."""
        a = self.arrays()
        if "engine.run_bo" not in self._ids:
            return {}
        mask = a["name_id"] == self._ids["engine.run_bo"]
        dur = (a["end"] - a["start"])[mask]
        total, iters = {}, {}
        for rep, d in zip(a["rep"][mask], dur):
            label, its, _ = self.reps[rep]
            total[label] = total.get(label, 0.0) + d
            iters[label] = iters.get(label, 0) + its
        return {k: 1e3 * total[k] / iters[k] for k in total if iters[k]}

    def layer_metrics(self, overhead_pct: float) -> dict:
        """The per-layer metrics declared in BENCHMARK.json."""
        by_name, layers = self.summary()
        reps = len(self.reps)
        iters = sum(its for _, its, _ in self.reps)

        def calls(name):
            return by_name.get(name, (0, 0.0, 0.0))[0]

        def per_rep(x):
            return x / reps if reps else 0.0

        def per_call(name, scale, col=1):
            entry = by_name.get(name)
            return scale * entry[col] / entry[0] if entry and entry[0] else 0.0

        def ratio(num, den):
            return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

        m = {
            "bench.instance_draw.ms": per_call("bench.instance_draw", 1e3),
            "bench.objective.calls": per_rep(calls("bench.objective")),
            "bench.objective.us": per_call("bench.objective", 1e6),
            "gp.sample_prior.ms": per_call("gp.sample_prior", 1e3),
            "gp.kernel_matrix.calls": per_rep(calls("gp.kernel_matrix")),
            "gp.kernel_matrix.entries": per_rep(self.counts["gp.kernel_matrix.entries"]),
            "gp.kernel_matrix.repeat_ratio": ratio("gp.kernel_matrix.repeat_entries",
                                                   "gp.kernel_matrix.entries"),
            "gp.incremental_update.calls": per_rep(calls("gp.incremental_update")),
            "gp.incremental_update.us": per_call("gp.incremental_update", 1e6),
            "gp.posterior_batch.calls": per_rep(calls("gp.posterior_batch")),
            "gp.posterior_batch.ms": per_call("gp.posterior_batch", 1e3),
            "gp.batch_state.calls": per_rep(calls("gp.batch_state")),
            "gp.batch_state.ms": per_call("gp.batch_state", 1e3),
            "gp.fit_hyperparameters.calls": per_rep(calls("gp.fit_hyperparameters")),
            "gp.fit_hyperparameters.ms": per_call("gp.fit_hyperparameters", 1e3),
            "gp.fit_hyperparameters.changed_ratio": (
                self.counts["gp.fit_hyperparameters.changed"] / calls("gp.fit_hyperparameters")
                if calls("gp.fit_hyperparameters") else 0.0),
            "confidence.next_confidence.calls": per_rep(calls("confidence.next_confidence")),
            "confidence.next_confidence.us": per_call("confidence.next_confidence", 1e6),
            "acquisition.sample_posterior_path.calls": per_rep(
                calls("acquisition.sample_posterior_path")),
            "acquisition.sample_posterior_path.ms": per_call(
                "acquisition.sample_posterior_path", 1e3),
            "acquisition.build_rff.calls": per_rep(calls("acquisition.build_rff")),
            "acquisition.rff_features.calls": per_rep(calls("acquisition.rff_features")),
            "acquisition.rff_features.entries": per_rep(
                self.counts["acquisition.rff_features.entries"]),
            "acquisition.rff_features.repeat_ratio": ratio(
                "acquisition.rff_features.repeat_entries", "acquisition.rff_features.entries"),
            "acquisition.score.us": per_call("acquisition.score", 1e6),
            "engine.run_bo.ms": per_call("engine.run_bo", 1e3),
            "engine.run_bo.self_ms": per_call("engine.run_bo", 1e3, col=2),
            "engine.iter_us": (1e6 * by_name["engine.run_bo"][1] / iters
                               if iters and "engine.run_bo" in by_name else 0.0),
            "engine.rep_failed": float(sum(f for _, _, f in self.reps)),
            "analysis.realized_information_gain.ms": per_call(
                "analysis.realized_information_gain", 1e3),
            "analysis.summarize_traces.ms": per_call("analysis.summarize_traces", 1e3),
            "cli.write_trace_csv.ms": per_call("cli.write_trace_csv", 1e3),
            "cli.write_trace_csv.bytes": (self.counts["cli.write_trace_csv.bytes"]
                                          / calls("cli.write_trace_csv")
                                          if calls("cli.write_trace_csv") else 0.0),
            "cli.write_summary_csv.ms": per_call("cli.write_summary_csv", 1e3),
            "trace.overhead_pct": overhead_pct,
        }
        for layer, seconds in layers.items():
            m[f"{layer}.self_us_per_iter"] = 1e6 * seconds / iters if iters else 0.0
        return m
