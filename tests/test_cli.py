"""Tests for config parsing, the experiment runner, and CLI plumbing."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from randbo import cli
from randbo.config import parse_config, parse_text, serialize_config
from randbo.errors import ConfigurationError

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
        assert acq.kind == "ucb" and isinstance(sched, cf.DeterministicUcb)
        _, sched = cli.build_algorithm("irgp_ucb", self.CFG, 9, 2)
        assert isinstance(sched, cf.ShiftedExpFinite) and sched.domain_size == 9
        _, sched = cli.build_algorithm("irgp_ucb_heuristic", self.CFG, 9, 2)
        assert isinstance(sched, cf.HeuristicShiftedExp) and sched.d == 2
        acq, sched = cli.build_algorithm("ts", self.CFG, 9, 2)
        assert acq.kind == "ts" and sched is None


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
        text = MINIMAL_SYNTHETIC.replace("grid.count = 3", "grid.count = 6").replace(
            "algorithms = irgp_ucb", "algorithms = gp_ucb, irgp_ucb")
        _, _, status = self.run_into(tmp_path, text)
        assert status == 0
        assert shapes.count((36, 36)) == 1

    def test_byte_determinism_synthetic(self, tmp_path):
        _, out_a, _ = self.run_into(tmp_path, MINIMAL_SYNTHETIC, "a")
        _, out_b, _ = self.run_into(tmp_path, MINIMAL_SYNTHETIC, "b")
        for fname in ("traces_irgp_ucb.csv", "summary_irgp_ucb.csv",
                      "bounds.json", "manifest.json", "config.txt"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname

    def test_byte_determinism_counterexample(self, tmp_path):
        _, out_a, _ = self.run_into(tmp_path, COUNTEREXAMPLE_SMALL, "ca")
        _, out_b, _ = self.run_into(tmp_path, COUNTEREXAMPLE_SMALL, "cb")
        for fname in ("summary_constant_1.0.csv", "summary_irgp_ucb.csv",
                      "slope_verdicts.json", "manifest.json", "config.txt"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname

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
        assert inputs["s_T"] == cf.shift_continuous(2.0, 1.0, 1.0, 1, 5)
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

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.txt")]) == 2

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
