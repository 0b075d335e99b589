"""Tests for config parsing, the experiment runner, and CLI plumbing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from randbo import analysis, bench, cli, engine
from randbo.config import ALGORITHMS, parse_config, parse_text, serialize_config
from randbo.engine import BoTrace
from randbo.errors import ConfigurationError, NumericalError

MINIMAL_SYNTHETIC = """
# smallest useful synthetic experiment
kind = synthetic_bcr
kernel.lengthscale = 0.1
grid.count = 3
grid.dim = 2
horizon = 5
n_reps = 3
algorithms = irgp_ucb
initial.count = 2
"""

CONDITIONAL_SMALL = """
kind = conditional_regret
kernel.lengthscale = 0.3
grid.count = 3
grid.dim = 2
horizon = 10
n_reps = 2
algorithms = irgp_ucb
"""

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

COUNTEREXAMPLE_SMALL = """
kind = counterexample
n_reps = 20
counterexample.constants = 1.0
counterexample.horizons = 20, 60
"""


class TestParseConfig:
    def test_minimal_defaults_filled(self):
        cfg = parse_text(MINIMAL_SYNTHETIC)
        assert cfg.kind == "synthetic_bcr"
        assert cfg.n_reps == 3
        assert cfg.values["noise_variance"] == pytest.approx(1e-4)
        assert cfg.values["acquisition.num_features"] == 2000
        assert cfg.values["base_seed"] == 0
        assert cfg.noise_stddev == pytest.approx(math.sqrt(1e-4))

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigurationError) as err:
            parse_text("kind = synthetic_bcr\nkernel.lenghtscale = 0.1\n")
        msg = str(err.value)
        assert "kernel.lenghtscale" in msg and "kernel.lengthscale" in msg

    def test_all_errors_reported_at_once(self):
        bad = "kind = nonsense\nhorizon = 0\nn_reps = -3\nwhatever = 1\n"
        with pytest.raises(ConfigurationError) as err:
            parse_text(bad)
        msg = str(err.value)
        assert "kind" in msg and "horizon" in msg and "n_reps" in msg and "whatever" in msg

    def test_algorithm_names_validated(self):
        with pytest.raises(ConfigurationError) as err:
            parse_text("kind = synthetic_bcr\nalgorithms = irgp_ubc\n")
        assert "irgp_ucb" in str(err.value)

    def test_counterexample_noise_defaults(self):
        cfg = parse_text("kind = counterexample\n")
        assert cfg.noise_variance == 1.0
        assert cfg.noise_stddev == 1.0

    def test_required_keys_by_kind(self):
        with pytest.raises(ConfigurationError) as err:
            parse_text("kind = tabular\n")
        assert "tabular.path" in str(err.value)

    def test_continuous_schedule_requires_constants(self):
        with pytest.raises(ConfigurationError) as err:
            parse_text("kind = benchmark\nbenchmark.name = ackley\n"
                       "algorithms = irgp_ucb_continuous\n")
        assert "irgp_ucb_continuous.a" in str(err.value)

    def test_round_trip(self, tmp_path):
        cfg = parse_text(MINIMAL_SYNTHETIC)
        text = serialize_config(cfg)
        again = parse_text(text)
        assert again.values == cfg.values
        p = tmp_path / "cfg.txt"
        p.write_text(text, encoding="utf-8")
        assert parse_config(p).values == cfg.values

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            parse_text("kind = synthetic_bcr\nhorizon = 5\nhorizon = 6\n")
        assert "duplicate" in str(err.value)

    @pytest.mark.parametrize("line, entry", [
        ("kernel.lengthscale = abc", "'abc'"),
        ("bounds.deltas = 0.1, zz", "'zz'"),
        ("counterexample.horizons = 250, x", "'x'"),
        ("counterexample.horizons = 10.7, 20", "10.7"),
        ("bounds.horizons = 100, 200.5", "200.5"),
        ("algorithms = ei, 3", "3"),
        ("kernel.lengthscale = 0.1, nan", "nan"),
        ("bounds.deltas = 0.1, -inf", "-inf"),
    ], ids=["reals", "reals_second_entry", "ints_name", "ints_fraction", "ints_fraction_bounds",
            "names", "reals_nan", "reals_inf"])
    def test_list_entries_checked(self, line, entry):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigurationError) as err:
            parse_text(f"kind = bound_sweep\n{line}\n")
        assert f"{key}: expected " in str(err.value) and f"got {entry}" in str(err.value)

    @pytest.mark.parametrize("text", [
        "kind = counterexample\ncounterexample.horizons = 0, 5\n",
        "kind = bound_sweep\nbounds.horizons = 0\n",
    ], ids=["counterexample", "bounds"])
    def test_list_entries_range_checked(self, text):
        with pytest.raises(ConfigurationError, match="horizons: 0 is below the minimum 1"):
            parse_text(text)

    @pytest.mark.parametrize("text, message", [
        ("kind = benchmark\n", "benchmark.name: required by kind 'benchmark'"),
        ("kind = synthetic_bcr\nalgorithms = ei, irgp_ucb_continuous\n"
         "irgp_ucb_continuous.a = 2\n",
         "irgp_ucb_continuous.b: required by algorithm 'irgp_ucb_continuous'"),
        ("kind = synthetic_bcr\nrefit.period = 5\n",
         "refit.lengthscales: required by key 'refit.period'"),
    ], ids=["kind", "algorithm", "key"])
    def test_required_key_names_what_needs_it(self, text, message):
        with pytest.raises(ConfigurationError) as err:
            parse_text(text)
        assert message in str(err.value)

    def test_bad_list_entries_reported_with_every_other_error(self):
        with pytest.raises(ConfigurationError) as err:
            parse_text("kind = counterexample\nhorizon = 0\ncounterexample.horizons = 10.7, 20\n"
                       "counterexample.constants = 1, c\nalgorithms = 2\n")
        msg = str(err.value)
        for key in ("horizon:", "counterexample.horizons:", "counterexample.constants:",
                    "algorithms:"):
            assert key in msg, key

    def test_list_entries_kept_as_written(self):
        cfg = parse_text("kind = counterexample\ncounterexample.constants = 0.5, 1, 2\n")
        assert cfg["counterexample.constants"] == [0.5, 1, 2]
        assert [type(c) for c in cfg["counterexample.constants"]] == [float, int, int]
        assert "counterexample.constants = 0.5, 1, 2\n" in serialize_config(cfg)

    @pytest.mark.parametrize("key", ["algorithms", "counterexample.constants"])
    def test_empty_list_rejected(self, key):
        with pytest.raises(ConfigurationError, match=f"{key}: expected at least one entry"):
            parse_text(f"kind = counterexample\n{key} = ,\n")

    def test_repeated_name_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            parse_text("kind = synthetic_bcr\nalgorithms = ei, ts, ei, ei\n")
        msg = str(err.value)
        assert "algorithms: 'ei' is listed more than once" in msg and "'ts'" not in msg

    def test_repeated_reals_allowed(self):
        cfg = parse_text("kind = synthetic_bcr\ngrid.dim = 2\nkernel.lengthscale = 0.1, 0.1\n")
        assert cfg["kernel.lengthscale"] == [0.1, 0.1]


class TestBuiltinCheckConfigs:
    """The ``check`` suites embed their configs, since the installed package
    ships no ``configs/``; the embedded copies must match the files."""

    @pytest.mark.parametrize("text, name", [
        (cli.LEMMA_CHECK_CONFIG, "lemma_check.txt"),
        (cli.COUNTEREXAMPLE_CONFIG, "counterexample.txt"),
    ])
    def test_matches_shipped_file(self, text, name):
        assert parse_text(text).values == parse_config(CONFIGS / name).values


ROSTER_KINDS = ("synthetic_bcr", "conditional_regret", "benchmark", "tabular")


class TestShippedConfigs:
    """Every file in ``configs/`` parses; a config with an algorithm roster
    also builds its domain and the run config of each algorithm. Nothing
    is run."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.txt")), ids=lambda p: p.name)
    def test_builds(self, path):
        config = parse_config(path)
        assert config.kind in cli.RUNNERS
        if config.kind not in ROSTER_KINDS:
            return
        _, domain_size, dim = cli._domain(config)
        kernel = cli.build_kernel(config, dim)
        for name in config.algorithms:
            run_cfg = cli._run_config_for(config, name, domain_size, dim, kernel)
            assert run_cfg.horizon == config.horizon


class TestBuildAlgorithm:
    CFG = parse_text(MINIMAL_SYNTHETIC)

    def test_schedule_mapping(self):
        from randbo import confidence as cf

        acq, sched = cli.build_algorithm("gp_ucb", self.CFG, 9, 2)
        assert acq == "ucb" and isinstance(sched, cf.DeterministicUcb)
        _, sched = cli.build_algorithm("irgp_ucb", self.CFG, 9, 2)
        assert isinstance(sched, cf.ShiftedExpFinite) and sched.domain_size == 9
        _, sched = cli.build_algorithm("irgp_ucb_heuristic", self.CFG, 9, 2)
        assert isinstance(sched, cf.HeuristicShiftedExp) and sched.d == 2
        acq, sched = cli.build_algorithm("ts", self.CFG, 9, 2)
        assert acq == "ts" and sched is None

    def test_schedule_free_algorithms_are_the_acquisition_kinds(self):
        for name, make in ALGORITHMS.items():
            assert (make is None) == (name in engine.ACQUISITION_KINDS), name


class TestRunExperiment:
    def run_into(self, tmp_path, text, name="exp"):
        cfg = parse_text(text)
        out = tmp_path / name
        status = cli.run_experiment(cfg, out)
        return cfg, out, status

    def test_synthetic_outputs(self, tmp_path):
        cfg, out, status = self.run_into(tmp_path, MINIMAL_SYNTHETIC)
        assert status == 0
        for fname in ("traces_irgp_ucb.csv", "summary_irgp_ucb.csv",
                      "bounds.json", "manifest.json", "config.txt"):
            assert (out / fname).exists(), fname
        header = (out / "traces_irgp_ucb.csv").read_text().splitlines()[0]
        assert header == "rep,t,selected_index,x0,x1,zeta,y,mu,sigma,r_t,R_t"
        summary = (out / "summary_irgp_ucb.csv").read_text().splitlines()
        assert summary[0] == "t,mean_Rt,stderr_Rt,mean_simple,stderr_simple"
        assert len(summary) == 1 + cfg.horizon

    def test_finite_bound_report_counts_the_replications_that_succeeded(
            self, tmp_path, monkeypatch):
        # A failed replication is warned about and left out of the mean the
        # report compares against its bound; the report records how many
        # replications that mean is over.
        real = bench.SyntheticInstanceSampler

        class SecondFails(real):
            def __call__(self, rep, rng):
                if rep == 1:
                    raise NumericalError("injected failure")
                return super().__call__(rep, rng)

        _, out, _ = self.run_into(tmp_path, MINIMAL_SYNTHETIC, "all")
        monkeypatch.setattr(bench, "SyntheticInstanceSampler", SecondFails)
        with pytest.warns(UserWarning, match="replication 1 failed"):
            _, out_failed, status = self.run_into(tmp_path, MINIMAL_SYNTHETIC, "failed")
        assert status == 0
        for folder, n_reps in ((out, 3), (out_failed, 2)):
            reports = json.loads((folder / "bounds.json").read_text())
            [report] = [r for r in reports if r["name"] == "expected_regret_bound_finite"]
            assert report["inputs"]["n_reps"] == n_reps
            summary = (folder / "summary_irgp_ucb.csv").read_text().splitlines()
            assert report["target"] == pytest.approx(float(summary[-1].split(",")[1]))

    def test_summary_matches_trace_reaggregation(self, tmp_path):
        _, out, _ = self.run_into(tmp_path, MINIMAL_SYNTHETIC)
        rows = [r.split(",") for r in
                (out / "traces_irgp_ucb.csv").read_text().splitlines()[1:]]
        reps = sorted({int(r[0]) for r in rows})
        T = max(int(r[1]) for r in rows)
        cum = np.zeros((len(reps), T))
        for r in rows:
            cum[int(r[0]), int(r[1]) - 1] = float(r[-1])
        srows = [r.split(",") for r in
                 (out / "summary_irgp_ucb.csv").read_text().splitlines()[1:]]
        mean_rt = np.array([float(r[1]) for r in srows])
        np.testing.assert_allclose(cum.mean(axis=0), mean_rt, atol=1e-12)

    @pytest.mark.usefixtures("fresh_prior_cache")
    def test_prior_gram_factored_once_per_study(self, tmp_path, monkeypatch):
        # Two algorithms x three replications redraw the objective on one
        # 36-point grid; the 36 x 36 prior Gram must be factored once.
        shapes = []
        cholesky = np.linalg.cholesky

        def counting(A):
            shapes.append(np.shape(A))
            return cholesky(A)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        # TS and PIMS take their prior paths from the same cached factor.
        text = MINIMAL_SYNTHETIC.replace("grid.count = 3", "grid.count = 6").replace(
            "algorithms = irgp_ucb", "algorithms = gp_ucb, irgp_ucb, ts, pims")
        _, _, status = self.run_into(tmp_path, text)
        assert status == 0
        assert shapes.count((36, 36)) == 1

    def test_byte_determinism_synthetic(self, tmp_path):
        text = MINIMAL_SYNTHETIC.replace("algorithms = irgp_ucb",
                                         "algorithms = irgp_ucb, ts, pims")
        _, out_a, _ = self.run_into(tmp_path, text, "a")
        _, out_b, _ = self.run_into(tmp_path, text, "b")
        _, out_c, _ = self.run_into(tmp_path, text + "n_jobs = 2\n", "c")
        per_algorithm = [f"{kind}_{name}.csv" for name in ("irgp_ucb", "ts", "pims")
                         for kind in ("traces", "summary")]
        for fname in per_algorithm + ["bounds.json", "manifest.json", "config.txt"]:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname
        # The config and manifest record n_jobs; every result file is the same.
        for fname in per_algorithm + ["bounds.json"]:
            assert (out_a / fname).read_bytes() == (out_c / fname).read_bytes(), fname

    def test_byte_determinism_counterexample(self, tmp_path):
        _, out_a, _ = self.run_into(tmp_path, COUNTEREXAMPLE_SMALL, "ca")
        _, out_b, _ = self.run_into(tmp_path, COUNTEREXAMPLE_SMALL, "cb")
        for fname in ("summary_constant_1.0.csv", "summary_irgp_ucb.csv",
                      "slope_verdicts.json", "manifest.json", "config.txt"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname

    def test_counterexample_observes_the_configured_noise(self, tmp_path, monkeypatch):
        samplers = []

        def recording(sampler, *args):
            samplers.append(sampler)
            return original(sampler, *args)

        original = cli.run_replications
        monkeypatch.setattr(cli, "run_replications", recording)
        _, _, status = self.run_into(tmp_path, COUNTEREXAMPLE_SMALL + "noise_variance = 0.25\n")
        assert status == 0
        assert len(samplers) == 2
        assert all(s.noise_stddev == 0.5 for s in samplers)

    def test_counterexample_verdict_file(self, tmp_path):
        _, out, status = self.run_into(tmp_path, COUNTEREXAMPLE_SMALL)
        assert status == 0
        verdicts = json.loads((out / "slope_verdicts.json").read_text())
        labels = {v["label"] for v in verdicts}
        assert labels == {"constant_1.0", "irgp_ucb"}
        for v in verdicts:
            assert v["verdict"] in ("linear-consistent", "sublinear-consistent",
                                    "inconclusive")

    def test_lemma_check_kind(self, tmp_path):
        text = ("kind = lemma_check\nlemma.n_configs = 4\nlemma.n_mc = 4000\n"
                "noise_variance = 0.01\nnoise_stddev = 0.1\n")
        cfg, out, status = self.run_into(tmp_path, text)
        assert status == 0
        lines = (out / "lemma_check.csv").read_text().splitlines()
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

    def test_bound_sweep_kind(self, tmp_path):
        text = ("kind = bound_sweep\nbounds.horizons = 50, 100\n"
                "bounds.deltas = 0.1\nbounds.domain_size = 20\n")
        _, out, status = self.run_into(tmp_path, text)
        assert status == 0
        reports = json.loads((out / "bounds.json").read_text())
        assert len(reports) == 2 * 5
        assert all(r["value"] >= 0 for r in reports)

    def test_benchmark_kind_small(self, tmp_path):
        text = ("kind = benchmark\nbenchmark.name = holder_table\n"
                "horizon = 4\nn_reps = 2\ncandidates.count = 40\n"
                "kernel.lengthscale = 0.2\ninitial.count = 3\n"
                "algorithms = irgp_ucb_heuristic, ei\n"
                "noise_stddev = 0.01\n")
        _, out, status = self.run_into(tmp_path, text)
        assert status == 0
        assert (out / "summary_irgp_ucb_heuristic.csv").exists()
        assert (out / "summary_ei.csv").exists()

    def test_benchmark_roster_writes_no_finite_domain_bounds(self, tmp_path):
        # Candidates redrawn every iteration have no fixed |X|, so neither
        # finite-domain report applies to a benchmark.
        text = ("kind = benchmark\nbenchmark.name = holder_table\n"
                "horizon = 4\nn_reps = 2\ncandidates.count = 40\n"
                "kernel.lengthscale = 0.2\ninitial.count = 3\n"
                "algorithms = irgp_ucb, irgp_ucb_high_prob\n"
                "noise_stddev = 0.01\n")
        _, out, status = self.run_into(tmp_path, text)
        assert status == 0
        assert (out / "summary_irgp_ucb_high_prob.csv").exists()
        assert not (out / "bounds.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "bounds.json" not in manifest["outputs"]

    def test_tabular_kind(self, tmp_path):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        rows = ["f1,f2,target"]
        for _ in range(25):
            x = rng.normal(size=2)
            rows.append(f"{float(x[0])!r},{float(x[1])!r},{float(-(x**2).sum())!r}")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        text = (f"kind = tabular\ntabular.path = {data}\ntabular.objective = target\n"
                "horizon = 6\nn_reps = 2\nkernel.lengthscale = 1.0\n"
                "initial.count = 2\nnoise_stddev = 0.01\nalgorithms = irgp_ucb\n")
        _, out, status = self.run_into(tmp_path, text)
        assert status == 0
        assert (out / "summary_irgp_ucb.csv").exists()

    def test_conditional_kind(self, tmp_path):
        text = ("kind = conditional_regret\ngrid.count = 3\ngrid.dim = 1\n"
                "horizon = 5\nn_reps = 4\nconditional.n_sequences = 2\n"
                "algorithms = irgp_ucb\nkernel.lengthscale = 0.3\n")
        _, out, status = self.run_into(tmp_path, text)
        assert status == 0
        assert (out / "summary_conditional_0.csv").exists()
        assert (out / "summary_conditional_1.csv").exists()
        reports = json.loads((out / "bounds.json").read_text())
        assert reports[0]["name"] == "conditional_regret_bound"

    CONDITIONAL = ("kind = conditional_regret\ngrid.count = 3\ngrid.dim = 1\n"
                   "horizon = 5\nn_reps = 2\nkernel.lengthscale = 0.3\n"
                   "irgp_ucb_continuous.a = 2\nirgp_ucb_continuous.b = 1\n")

    def test_conditional_bound_certifies_gain_and_continuous_term(self, tmp_path):
        from randbo import analysis as an
        from randbo import confidence as cf

        cfg, out, status = self.run_into(
            tmp_path, self.CONDITIONAL + "algorithms = irgp_ucb_continuous\n")
        assert status == 0
        [report] = json.loads((out / "bounds.json").read_text())
        inputs = report["inputs"]
        assert inputs["s_T"] == cf.ShiftedExpContinuous(2.0, 1.0, 1.0, 1).shift(5)
        assert inputs["gamma_certified"] == pytest.approx(
            inputs["gamma_greedy"] / (1.0 - math.exp(-1.0)), rel=1e-12)
        finite_part = an.conditional_bound_U(5, inputs["delta"], inputs["s_T"],
                                             cfg.noise_variance, inputs["gamma_certified"])
        assert report["value"] == pytest.approx(finite_part + math.pi**2 / 6, rel=1e-12)

    def test_conditional_heuristic_writes_no_bound(self, tmp_path):
        _, out, status = self.run_into(
            tmp_path, self.CONDITIONAL + "algorithms = irgp_ucb_heuristic\n")
        assert status == 0
        assert not (out / "bounds.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "bounds.json" not in manifest["outputs"]

    def test_confidence_sequences_share_no_stream_with_a_replication(
            self, tmp_path, monkeypatch):
        # Sequence 0 replays over replications keyed (base_seed, rep, purpose);
        # 101 of them reach rep 100, a key that can collide with a sequence's.
        requested = {}
        for module in (cli, engine):
            def recording(base_seed, *key, _real=module.substream,
                          _keys=requested.setdefault(module.__name__, set())):
                _keys.add((base_seed, *key))
                return _real(base_seed, *key)

            monkeypatch.setattr(module, "substream", recording)
        text = (self.CONDITIONAL.replace("horizon = 5\nn_reps = 2", "horizon = 2\nn_reps = 101")
                + "algorithms = irgp_ucb\nconditional.n_sequences = 2\n")
        assert self.run_into(tmp_path, text)[2] == 0
        zeta, replication = requested["randbo.cli"], requested["randbo.engine"]
        assert len(zeta) == 2 and len(replication) == 2 * 101 * 7
        assert not zeta & replication


class TestConfidenceProfile:
    def test_figure_style_columns(self):
        from randbo import confidence as cf

        labeled = [
            ("gp_ucb", cf.DeterministicUcb(1000, 0.1)),
            ("rgp_ucb", cf.GammaRandomized(1000, 1.0)),
            ("irgp_ucb", cf.ShiftedExpFinite(1000)),
        ]
        header, rows = cli.emit_confidence_profile(labeled, 100)
        assert header[0] == "t" and len(header) == 1 + 3 * 3
        irgp_mean = [row[header.index("irgp_ucb_mean")] for row in rows]
        assert all(v == pytest.approx(14.429216196844383, abs=1e-9) for v in irgp_mean)
        gp_mean = [row[header.index("gp_ucb_mean")] for row in rows]
        assert all(b > a for a, b in zip(gp_mean, gp_mean[1:]))
        rgp_mean = [row[header.index("rgp_ucb_mean")] for row in rows]
        assert rgp_mean[0] == pytest.approx(math.log(1000) / math.log(1.5), abs=1e-9)
        assert all(b > a for a, b in zip(rgp_mean, rgp_mean[1:]))
        q975 = rows[0][header.index("irgp_ucb_q975")]
        assert q975 == pytest.approx(2 * math.log(500) - 2 * math.log(0.025), abs=1e-9)


class TestMainEntry:
    def test_run_command(self, tmp_path):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC, encoding="utf-8")
        out = tmp_path / "out"
        status = cli.main(["run", str(cfg_file), "--out", str(out), "--reps", "2"])
        assert status == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_reps"] == 2
        assert manifest["version"]

    def test_output_collision_refused(self, tmp_path):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 0
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 2
        assert cli.main(["run", str(cfg_file), "--out", str(out), "--overwrite"]) == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg_file = tmp_path / "bad.txt"
        cfg_file.write_text("kind = wat\n", encoding="utf-8")
        assert cli.main(["run", str(cfg_file)]) == 2

    @pytest.mark.parametrize("line, key", [
        ("noise_variance = -1", "noise_variance: -1 must be above 0.0"),
        ("noise_stddev = nan", "noise_stddev: expected finite real number, got nan"),
    ], ids=["negative_noise_variance", "nan_noise_stddev"])
    def test_unusable_noise_is_a_config_error(self, tmp_path, capsys, line, key):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC + line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.txt")]) == 2

    @pytest.mark.parametrize("flag, minimum", [
        (["--jobs", "0"], 1), (["--jobs", "-2"], 1), (["--reps", "0"], 1), (["--seed", "-1"], 0),
    ], ids=["jobs_0", "jobs_negative", "reps_0", "seed_negative"])
    def test_override_checked_like_the_file(self, tmp_path, capsys, flag, minimum):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out), *flag]) == 2
        assert f"below the minimum {minimum}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        MINIMAL_SYNTHETIC.replace("algorithms = irgp_ucb", "algorithms = ei, gp_ucb")
        + "gp_ucb.delta = 0.0\n",
        COUNTEREXAMPLE_SMALL.replace("20, 60", "5, 5"),
        COUNTEREXAMPLE_SMALL.replace("20, 60", "1, 2"),
        COUNTEREXAMPLE_SMALL.replace("constants = 1.0", "constants = 1, -1"),
        CONDITIONAL_SMALL + "conditional.delta = 0\n",
        CONDITIONAL_SMALL.replace("algorithms = irgp_ucb", "algorithms = irgp_ucb, gp_ucb"),
        CONDITIONAL_SMALL + "initial.count = 10\n",
        MINIMAL_SYNTHETIC.replace("grid.count = 3\ngrid.dim = 2", "grid.count = 2\ngrid.dim = 1")
        .replace("initial.count = 2", "initial.count = 5"),
        "kind = tabular\ntabular.path = no_such_dir/data.csv\ntabular.objective = y\n",
    ], ids=["roster_bad_delta", "equal_horizons", "short_horizons", "negative_constant",
            "conditional_zero_delta", "conditional_two_algorithms",
            "conditional_oversized_initial_design", "oversized_initial_design",
            "tabular_missing_file"])
    def test_unusable_parameter_fails_before_any_result_file(self, tmp_path, text):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("line", ["algorithms = ,", "algorithms = ei, ei"],
                             ids=["empty", "repeated"])
    def test_unusable_roster_writes_nothing(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC.replace("algorithms = irgp_ucb", line),
                            encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out)]) == 2
        assert "algorithms: " in capsys.readouterr().err
        assert not out.exists()

    def test_config_of_overridden_run_parses_back(self, tmp_path):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_file), "--out", str(out), "--seed", "7",
                         "--reps", "2", "--jobs", "2"]) == 0
        expected = {**parse_text(MINIMAL_SYNTHETIC).values,
                    "base_seed": 7, "n_reps": 2, "n_jobs": 2}
        assert parse_config(out / "config.txt").values == expected
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {k: v for k, v in expected.items() if v is not None}

    def test_profile_command(self, tmp_path):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC.replace(
            "algorithms = irgp_ucb", "algorithms = gp_ucb, irgp_ucb"), encoding="utf-8")
        out = tmp_path / "prof"
        assert cli.main(["profile-confidence", str(cfg_file), "--out", str(out)]) == 0
        header = (out / "confidence_profile.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "t"
        assert "irgp_ucb_mean" in header and "gp_ucb_q975" in header

    def test_profile_tabular_uses_the_csv_domain(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("f1,f2,target\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n", encoding="utf-8")
        cfg_file = tmp_path / "tab.txt"
        cfg_file.write_text(f"kind = tabular\ntabular.path = {data}\n"
                            "tabular.objective = target\nhorizon = 3\n"
                            "algorithms = irgp_ucb, irgp_ucb_heuristic\n", encoding="utf-8")
        out = tmp_path / "prof"
        assert cli.main(["profile-confidence", str(cfg_file), "--out", str(out)]) == 0
        lines = (out / "confidence_profile.csv").read_text().splitlines()
        header = lines[0].split(",")
        first = [float(v) for v in lines[1].split(",")]
        # 4 rows, 2 features: shift 2 log(4/2) and d/2 = 1, each plus 2.
        assert first[header.index("irgp_ucb_mean")] == pytest.approx(2 * math.log(2) + 2)
        assert first[header.index("irgp_ucb_heuristic_mean")] == pytest.approx(3.0)

    def test_check_bounds_quick(self, tmp_path, capsys):
        status = cli.main(["check", "bounds", "--quick", "--out", str(tmp_path / "c")])
        assert status == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_bounds_fails_on_a_broken_quantile_bound(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(analysis, "laurent_bound", lambda D, delta: 0.0)
        status = cli.main(["check", "bounds", "--quick", "--out", str(tmp_path / "c")])
        assert status == cli.CHECK_FAILED == 4
        out = capsys.readouterr().out
        assert out.count("exceedance 1.0000 -> FAIL") == 9
        assert "noise-event frequency T=200" in out
        assert "normal tail dominance on c in [0.1, 5]: -> PASS" in out

    def test_check_lemma42_fails_on_a_violated_inequality(self, tmp_path, capsys, monkeypatch):
        def violated(kernel, points, dataset, noise_variance, n_mc, rng):
            return analysis.InequalityCheck(2.0, 0.1, 1.0, 0.1, n_mc)

        monkeypatch.setattr(analysis, "validate_optimum_bound", violated)
        status = cli.main(["check", "lemma42", "--quick", "--out", str(tmp_path / "c")])
        assert status == cli.CHECK_FAILED == 4
        assert capsys.readouterr().out == (
            "optimum-bound sweep: 10 configurations, 10 violations -> FAIL\n")
        assert (tmp_path / "c" / "lemma_check.csv").read_text().count(",false\n") == 10


class TestFullRoster:
    def test_all_algorithms_end_to_end(self, tmp_path):
        text = ("kind = synthetic_bcr\nkernel.lengthscale = 0.2\ngrid.count = 3\n"
                "grid.dim = 2\nhorizon = 4\nn_reps = 2\ninitial.count = 2\n"
                "acquisition.num_features = 64\n"
                "algorithms = gp_ucb, rgp_ucb, irgp_ucb, ei, ts, pims\n")
        cfg = parse_text(text)
        out = tmp_path / "roster"
        assert cli.run_experiment(cfg, out) == 0
        for name in ("gp_ucb", "rgp_ucb", "irgp_ucb", "ei", "ts", "pims"):
            assert (out / f"summary_{name}.csv").exists(), name
            lines = (out / f"summary_{name}.csv").read_text().splitlines()
            assert len(lines) == 1 + cfg.horizon


class TestEnvironment:
    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDBO_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC, encoding="utf-8")
        assert cli.main(["run", str(cfg_file)]) == 0
        assert (tmp_path / "root" / "exp" / "manifest.json").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(MINIMAL_SYNTHETIC, encoding="utf-8")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(cfg_file), "--out", str(a), "--seed", "1"]) == 0
        assert cli.main(["run", str(cfg_file), "--out", str(b), "--seed", "2"]) == 0
        ta = (a / "traces_irgp_ucb.csv").read_text()
        tb = (b / "traces_irgp_ucb.csv").read_text()
        assert ta != tb

    def test_import_leaves_scipy_stats_unloaded(self):
        # A fresh process, since this suite itself imports scipy.stats.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, randbo.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_tail_check_reads_the_normal_survival_function(self):
        # ``check bounds`` compares the tail bound with ndtr(-c), which is
        # scipy.stats.norm.sf(c) to the bit on the check's grid.
        for c in np.arange(0.1, 5.05, 0.1):
            assert float(ndtr(-c)) == float(norm.sf(c))


def reference_cell(value) -> str:
    """One cell by the rules of the row-at-a-time writer that the column
    writer replaced: bools true/false, integers plain, text as it is, and
    everything else ``repr(float(value))``."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(map(reference_cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


SPECIAL = np.array([np.nan, -0.0, np.inf, -np.inf, 1e-5, 1e20, 0.1, -3.0, 123456789.0,
                    2.5e-300])


def special_trace(rng, horizon, dim) -> BoTrace:
    def column():
        return np.where(rng.random(horizon) < 0.5, rng.choice(SPECIAL, horizon),
                        rng.normal(size=horizon) * 10.0 ** rng.integers(-6, 21, horizon))

    regret = column()
    return BoTrace(
        horizon=horizon,
        selected_index=rng.integers(0, 1000, horizon),
        selected_x=np.column_stack([column() for _ in range(dim)]),
        zeta_value=np.where(rng.random(horizon) < 0.3, np.nan, column()),
        observed_y=column(), mean_at_selection=column(), sd_at_selection=column(),
        instantaneous_regret=regret, cumulative_regret=np.cumsum(regret),
        initial_x=np.empty((0, dim)), initial_y=np.empty(0), initial_indices=None,
        optimum_value=0.0)


class TestWriterBytes:
    """Every table's bytes against the reference cell rules above."""

    @pytest.mark.parametrize("dim", [1, 4])
    def test_trace_csv(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        traces = [special_trace(rng, horizon, dim) for horizon in (7, 1, 12)]
        cli.write_trace_csv(tmp_path / "t.csv", traces)
        header = (["rep", "t", "selected_index"] + [f"x{j}" for j in range(dim)]
                  + ["zeta", "y", "mu", "sigma", "r_t", "R_t"])
        rows = [[rep, i + 1, tr.selected_index[i], *tr.selected_x[i], tr.zeta_value[i],
                 tr.observed_y[i], tr.mean_at_selection[i], tr.sd_at_selection[i],
                 tr.instantaneous_regret[i], tr.cumulative_regret[i]]
                for rep, tr in enumerate(traces) for i in range(tr.horizon)]
        written = (tmp_path / "t.csv").read_bytes()
        assert written == reference_csv(header, rows)
        for token in (b",nan,", b",-0.0,", b",inf,", b",-inf,", b",1e-05,", b",1e+20,"):
            assert token in written, token

    def test_summary_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        curves = [rng.choice(SPECIAL, 9) for _ in range(5)]
        summary = analysis.RegretSummary(9, 3, *curves)
        cli.write_summary_csv(tmp_path / "s.csv", summary)
        rows = [[i + 1, *(c[i] for c in curves[:4])] for i in range(9)]
        assert (tmp_path / "s.csv").read_bytes() == reference_csv(
            ["t", "mean_Rt", "stderr_Rt", "mean_simple", "stderr_simple"], rows)

    def test_lemma_check_csv_with_a_false_row(self, tmp_path, monkeypatch, capsys):
        sides = [(0.5, 1e-5, 1.0, 0.0), (2.0, 1e-5, 1e20, -0.0), (3.0, 0.1, 1.0, 0.1)]
        rows = []

        def fake(kernel, points, dataset, noise_variance, n_mc, rng):
            check = analysis.InequalityCheck(*sides[len(rows)], n_mc=n_mc)
            n_data = 0 if dataset is None else len(dataset[0])
            rows.append([len(rows), points.shape[0], n_data, kernel.family, points.shape[1],
                         check.lhs, check.lhs_stderr, check.rhs, check.rhs_stderr,
                         check.holds()])
            return check

        monkeypatch.setattr(cli.analysis, "validate_optimum_bound", fake)
        out = tmp_path / "lemma"
        text = ("kind = lemma_check\nlemma.n_configs = 3\nlemma.n_mc = 100\n"
                "noise_variance = 0.01\nnoise_stddev = 0.1\n")
        assert cli.run_experiment(parse_text(text), out) == cli.CHECK_FAILED
        assert [r[-1] for r in rows] == [True, True, False]
        header = ["config_id", "domain_size", "n_data", "family", "dim",
                  "lhs", "lhs_stderr", "rhs", "rhs_stderr", "holds"]
        written = (out / "lemma_check.csv").read_bytes()
        assert written == reference_csv(header, rows)
        assert written.endswith(b",false\n")

    def test_confidence_profile_csv(self, tmp_path):
        text = MINIMAL_SYNTHETIC.replace(
            "algorithms = irgp_ucb",
            "algorithms = gp_ucb, rgp_ucb, irgp_ucb, irgp_ucb_heuristic, constant_ucb, ei")
        cfg_file = tmp_path / "exp.txt"
        cfg_file.write_text(text, encoding="utf-8")
        out = tmp_path / "prof"
        assert cli.main(["profile-confidence", str(cfg_file), "--out", str(out)]) == 0
        cfg = parse_text(text)
        labeled = [(name, cli.build_algorithm(name, cfg, 9, 2)[1])
                   for name in cfg.algorithms if name != "ei"]
        expected = reference_csv(*cli.emit_confidence_profile(labeled, cfg.horizon))
        assert (out / "confidence_profile.csv").read_bytes() == expected

    def test_json_payload(self, tmp_path):
        cli._write_json(tmp_path / "p.json", {"b": [1, 2.5], "a": {"d": None, "c": "x"}})
        assert (tmp_path / "p.json").read_bytes() == (
            b'{\n  "a": {\n    "c": "x",\n    "d": null\n  },\n'
            b'  "b": [\n    1,\n    2.5\n  ]\n}\n')
