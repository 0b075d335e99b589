"""Tests for problem generators: prior-sample instances, analytic
benchmarks, and tabular ingestion."""

import warnings

import numpy as np
import pytest

from randbo import bench, gp
from randbo.engine import ContinuousInstance
from randbo.errors import ConfigurationError, DomainError, IngestionError
from randbo.rng import INSTANCE, substream


class TestGridSpec:
    def test_default_synthetic_grid(self):
        grid = bench.GridSpec.uniform(0.0, 0.9, 10, 3)
        assert grid.size == 1000 and grid.dim == 3
        pts = grid.points()
        assert pts.shape == (1000, 3)
        np.testing.assert_allclose(np.unique(pts[:, 0]), np.arange(10) * 0.1)

    def test_explicit_axes(self):
        grid = bench.GridSpec((np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0])))
        assert grid.size == 6
        assert grid.points().shape == (6, 2)

    def test_invalid_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            bench.GridSpec(())
        with pytest.raises(ConfigurationError):
            bench.GridSpec((np.array([]),))


class TestSyntheticInstance:
    KERNEL = gp.KernelSpec.isotropic("squared_exponential", 0.1, 3)

    def test_paper_scale_grid(self):
        grid = bench.GridSpec.uniform(0.0, 0.9, 10, 3)
        inst = bench.make_synthetic_instance(self.KERNEL, grid, 1e-2, 0)
        assert inst.points.shape == (1000, 3)
        assert inst.optimum_value == inst.true_values.max()
        assert inst.noise_stddev == pytest.approx(1e-2)

    def test_seed_determinism(self):
        grid = bench.GridSpec.uniform(0.0, 0.9, 5, 2)
        a = bench.make_synthetic_instance(self.KERNEL2D, grid, 0.0, 9)
        b = bench.make_synthetic_instance(self.KERNEL2D, grid, 0.0, 9)
        np.testing.assert_array_equal(a.true_values, b.true_values)

    KERNEL2D = gp.KernelSpec.isotropic("squared_exponential", 0.1, 2)

    def test_maximum_magnitude_plausible(self):
        # max of 1000 correlated standard normals: mean between 1.5 and 4
        grid = bench.GridSpec.uniform(0.0, 0.9, 10, 3)
        maxima = [
            bench.make_synthetic_instance(self.KERNEL, grid, 0.0, seed).optimum_value
            for seed in range(100)
        ]
        assert 1.5 <= float(np.mean(maxima)) <= 4.0

    @pytest.mark.parametrize("family", gp.KERNEL_FAMILIES)
    def test_sampler_draw_equals_sample_prior(self, family):
        # The sampler's cached factor must reproduce the uncached prior draw
        # bit for bit on every replication's INSTANCE substream.
        kernel = gp.KernelSpec.isotropic(family, 0.2, 2)
        grid = bench.GridSpec.uniform(0.0, 1.0, 12, 2)
        sampler = bench.SyntheticInstanceSampler(kernel, grid, 0.0)
        for rep in range(4):
            got = sampler(rep, substream(3, rep, INSTANCE)).true_values
            want = gp.sample_prior(kernel, grid.points(), substream(3, rep, INSTANCE))
            np.testing.assert_array_equal(got, want)

    def test_sampler_draw_equals_sample_prior_after_escalation(self, require_jitter):
        kernel = gp.KernelSpec.isotropic("squared_exponential", 10.0, 1)
        grid = bench.GridSpec((np.linspace(0, 1e-4, 200),))
        require_jitter(1e-8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for rep in range(3):
                got = bench.SyntheticInstanceSampler(kernel, grid, 0.0)(
                    rep, substream(3, rep, INSTANCE)).true_values
                want = gp.sample_prior(kernel, grid.points(), substream(3, rep, INSTANCE))
                np.testing.assert_array_equal(got, want)
        # Three uncached sample_prior factorizations and one cached factor.
        assert [str(w.message) for w in caught] == 4 * [
            "prior Gram of 200 points needed diagonal jitter 1.0e-08 to factorize"]

    @pytest.mark.usefixtures("fresh_prior_cache")
    def test_sampler_draw_above_cache_cap_equals_sample_prior(self, monkeypatch):
        # A grid whose Gram and factor do not fit in the cache is drawn
        # through sample_prior and leaves nothing cached.
        kernel = gp.KernelSpec.isotropic("matern52", 0.2, 2)
        grid = bench.GridSpec.uniform(0.0, 1.0, 12, 2)
        monkeypatch.setattr(gp, "PRIOR_CACHE_BYTES", 144 * 144 * 8)
        sampler = bench.SyntheticInstanceSampler(kernel, grid, 0.0)
        for rep in range(3):
            got = sampler(rep, substream(3, rep, INSTANCE)).true_values
            want = gp.sample_prior(kernel, grid.points(), substream(3, rep, INSTANCE))
            np.testing.assert_array_equal(got, want)
        assert gp._PRIOR_CACHE.held_bytes == 0

    def test_sampler_redraws_with_rng(self):
        grid = bench.GridSpec.uniform(0.0, 1.0, 4, 2)
        sampler = bench.SyntheticInstanceSampler(self.KERNEL2D, grid, 0.0)
        rng = np.random.default_rng(0)
        a = sampler(0, rng)
        b = sampler(1, rng)
        assert not np.array_equal(a.true_values, b.true_values)


def vec_holder(X):
    r = np.hypot(X[:, 0], X[:, 1])
    return np.abs(np.sin(X[:, 0]) * np.cos(X[:, 1]) * np.exp(np.abs(1 - r / np.pi)))


def vec_cross(X):
    r = np.hypot(X[:, 0], X[:, 1])
    inner = np.abs(np.sin(X[:, 0]) * np.sin(X[:, 1]) * np.exp(np.abs(100 - r / np.pi)))
    return 0.0001 * (inner + 1) ** 0.1


def vec_ackley(X):
    a, b, c = 20.0, 0.2, 2 * np.pi
    t1 = -a * np.exp(-b * np.sqrt((X * X).mean(axis=1)))
    t2 = -np.exp(np.cos(c * X).mean(axis=1))
    return -(t1 + t2 + a + np.e)


class TestBenchmarkFunctions:
    def test_ackley_optimum_at_origin(self):
        assert bench.benchmark_function("ackley", np.zeros(4)) == pytest.approx(0.0, abs=1e-12)

    def test_ackley_even_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.uniform(-30, 30, size=4)
            assert bench.benchmark_function("ackley", x) == pytest.approx(
                bench.benchmark_function("ackley", -x), abs=1e-12
            )

    def test_holder_table_published_optimum(self):
        val = bench.benchmark_function("holder_table", [8.05502, 9.66459])
        assert val == pytest.approx(19.2085, abs=1e-4)

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            bench.benchmark_function("holder_table", [11.0, 0.0])
        with pytest.raises(DomainError):
            bench.benchmark_function("ackley", [40.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            bench.benchmark_function("cross_in_tray", [0.0, 0.0, 0.0])

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            bench.benchmark_function("styblinski", [0.0])

    def test_matches_vectorized_oracle(self):
        rng = np.random.default_rng(1)
        X2 = rng.uniform(-10, 10, size=(100, 2))
        for name, oracle in (("holder_table", vec_holder), ("cross_in_tray", vec_cross)):
            got = np.array([bench.benchmark_function(name, x) for x in X2])
            np.testing.assert_allclose(got, oracle(X2), atol=1e-10)
        X4 = rng.uniform(-32, 32, size=(100, 4))
        got = np.array([bench.benchmark_function("ackley", x) for x in X4])
        np.testing.assert_allclose(got, vec_ackley(X4), atol=1e-10)

    def test_random_search_never_beats_stored_optima(self):
        rng = np.random.default_rng(42)
        X2 = rng.uniform(-10, 10, size=(1_000_000, 2))
        assert vec_holder(X2).max() <= bench.BENCHMARKS["holder_table"].optimum_value + 1e-6
        assert vec_cross(X2).max() <= bench.BENCHMARKS["cross_in_tray"].optimum_value + 1e-6
        X4 = rng.uniform(-32.768, 32.768, size=(1_000_000, 4))
        assert vec_ackley(X4).max() <= bench.BENCHMARKS["ackley"].optimum_value + 1e-6


class TestBenchmarkInstances:
    def test_unit_cube_rescaling(self):
        inst = bench.make_benchmark_instance("holder_table", candidate_count=32)
        info = bench.BENCHMARKS["holder_table"]
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.random(2)
            want = bench.benchmark_function(
                "holder_table", info.domain_low + u * (info.domain_high - info.domain_low)
            )
            assert inst.objective(u) == pytest.approx(want, abs=1e-12)

    def test_metadata_records_domain(self):
        inst = bench.make_benchmark_instance("ackley", dim=4, candidate_count=64)
        assert isinstance(inst, ContinuousInstance)
        assert inst.dim == 4 and inst.candidate_count == 64
        assert inst.objective.low == pytest.approx(-32.768)

    def test_fixed_dimension_enforced(self):
        with pytest.raises(ConfigurationError):
            bench.make_benchmark_instance("holder_table", dim=3)


class TestTabular:
    def write_csv(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_ingestion(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv",
                           "a,b,score\n0.0,1.0,1.0\n2.0,3.0,5.0\n4.0,5.0,2.0\n")
        inst = bench.ingest_tabular(p, "score")
        assert inst.points.shape == (3, 2)
        assert inst.optimum_index == 1
        assert inst.optimum_value == 5.0

    def test_standardization_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        rows = ["x,y,z,obj"]
        for _ in range(40):
            vals = rng.normal([10, -3, 500], [5, 0.1, 100])
            rows.append(",".join(repr(float(v)) for v in vals) + f",{rng.normal():.6f}")
        p = self.write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
        inst = bench.ingest_tabular(p, "obj")
        feats = inst.points
        assert np.all(np.abs(feats.mean(axis=0)) < 1e-10)
        np.testing.assert_allclose(feats.var(axis=0), 1.0, atol=1e-10)

    def test_missing_values_listed(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv",
                           "a,score\n1.0,2.0\n,3.0\n4.0,\n5.0,6.0\n")
        with pytest.raises(IngestionError) as err:
            bench.ingest_tabular(p, "score")
        assert "3" in str(err.value) and "4" in str(err.value)

    def test_non_numeric_cell_located(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv", "a,score\n1.0,2.0\nfoo,3.0\n")
        with pytest.raises(IngestionError) as err:
            bench.ingest_tabular(p, "score")
        msg = str(err.value)
        assert "line 3" in msg and "'a'" in msg and "foo" in msg

    def test_non_finite_feature_located(self, tmp_path):
        # Standardizing a column that holds nan or inf makes every point NaN.
        p = self.write_csv(tmp_path / "d.csv",
                           "a,b,score\n0.0,1.0,1.0\n1.0,nan,2.0\ninf,3.0,0.5\n2.0,1.0,1.5\n")
        with pytest.raises(IngestionError) as err:
            bench.ingest_tabular(p, "score")
        msg = str(err.value)
        assert "line 3" in msg and "'b'" in msg and "nan" in msg

    @pytest.mark.parametrize("name", ["absent.csv", ".", "latin1.csv"],
                             ids=["missing", "directory", "not_utf8"])
    def test_unreadable_path_named(self, tmp_path, name):
        (tmp_path / "latin1.csv").write_bytes("a,score\n1.0,2.0\n\xe9,3.0\n".encode("latin-1"))
        path = tmp_path / name
        with pytest.raises(IngestionError, match="cannot read") as err:
            bench.ingest_tabular(path, "score")
        assert str(path) in str(err.value)

    def test_unknown_objective_column(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv", "a,b\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(IngestionError):
            bench.ingest_tabular(p, "score")

    def test_too_few_rows(self, tmp_path):
        for text in ("a,score\n1.0,2.0\n", "a,score\n"):
            p = self.write_csv(tmp_path / "d.csv", text)
            with pytest.raises(IngestionError, match="at least 2 rows"):
                bench.ingest_tabular(p, "score")
