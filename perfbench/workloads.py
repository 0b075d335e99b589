"""The benchmark's workloads: replicated studies run through ``randbo run``'s path.

Each workload is a config text for ``randbo.cli.run_experiment``. A run
executes it as a sequence of small *units* (one ``run_experiment`` call
each, a few replications per algorithm) until its time is up. Unit ``k`` of
a run with seed ``s`` takes its ``base_seed`` from a ring of ``RING``
recorded inputs, so every unit any run executes has a correctness
reference (``reference/<workload>.json``) and the same seed always gives
the same inputs.

Stdlib only: the launcher imports this module before any numerical code.
"""

from __future__ import annotations

from dataclasses import dataclass

RING = 128
SEED_STRIDE = 29  # coprime to RING, so nearby seeds start far apart on the ring


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    # Algorithm labels in the order the runner calls run_replications; each
    # label also names the summary CSV the runner writes for it.
    labels: tuple[str, ...]
    # Labels checked by a Monte-Carlo band on mean regret rather than by an
    # exact digest of selections: their sample paths are a legitimate target
    # of optimisation.
    sampled: frozenset = frozenset()

    def ring_index(self, seed: int, unit: int) -> int:
        return (seed * SEED_STRIDE + unit) % RING

    def config_text(self, ring_index: int) -> str:
        return f"{self.config}base_seed = {ring_index}\n"


_GRID = """kind = synthetic_bcr
kernel.family = squared_exponential
kernel.lengthscale = 0.1
grid.low = 0.0
grid.high = 0.9
grid.count = 10
grid.dim = 3
initial.count = 1
noise_variance = 1e-4
"""

WORKLOADS = {
    w.name: w
    for w in [
        # The paper's main study: synthetic_full's 1000-point grid, closed-form
        # acquisitions, T = 200.
        Workload(
            "grid_closed_form",
            _GRID + "horizon = 200\nn_reps = 2\n"
            "algorithms = gp_ucb, rgp_ucb, irgp_ucb, ei\n",
            ("gp_ucb", "rgp_ucb", "irgp_ucb", "ei"),
        ),
        # Same grid and instance family with the RFF-backed posterior-sample
        # rules. T = 10 keeps a replication near one second while the
        # per-iteration feature recomputation still dominates it.
        Workload(
            "grid_sample_path",
            _GRID + "horizon = 10\nn_reps = 1\nacquisition.num_features = 2000\n"
            "algorithms = ts, pims\n",
            ("ts", "pims"),
            frozenset({"ts", "pims"}),
        ),
        # The criterion-3 two-point family with fewer replications per unit.
        Workload(
            "two_point",
            "kind = counterexample\nn_reps = 3\ncounterexample.rho = 0.0\n"
            "counterexample.constants = 0.5, 1, 2\n"
            "counterexample.horizons = 250, 1000\n",
            ("constant_0.5", "constant_1", "constant_2", "irgp_ucb"),
        ),
        # benchmark_holder's roster without TS/PIMS: fresh candidates every
        # iteration and a lengthscale refit every 5 iterations.
        Workload(
            "holder_refit",
            "kind = benchmark\nbenchmark.name = holder_table\nhorizon = 100\n"
            "n_reps = 1\ninitial.count = 4\ncandidates.count = 2000\n"
            "noise_variance = 1e-4\nkernel.lengthscale = 0.2\nrefit.period = 5\n"
            "refit.lengthscales = 0.05, 0.1, 0.2, 0.5, 1.0\n"
            "algorithms = gp_ucb_heuristic, irgp_ucb_heuristic, ei\n",
            ("gp_ucb_heuristic", "irgp_ucb_heuristic", "ei"),
        ),
    ]
}
