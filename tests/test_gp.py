"""Tests for kernels, posterior updates, prior sampling, and evidence."""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from randbo import gp
from randbo.errors import ConfigurationError, NumericalError, ObservationError


def se_kernel(dim=1, ell=1.0, sv=1.0):
    return gp.KernelSpec.isotropic("squared_exponential", ell, dim, sv)


STATE_ARRAYS = ("inputs", "outputs", "chol", "half_targets")


class TestKernelEval:
    def test_se_identity(self):
        assert gp.kernel_matrix(se_kernel(), [0.0], [0.0])[0, 0] == pytest.approx(1.0)

    def test_se_unit_distance(self):
        val = gp.kernel_matrix(se_kernel(), [0.0], [1.0])[0, 0]
        assert val == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_matern52_zero_distance(self):
        k = gp.KernelSpec.isotropic("matern52", 1.0, 1)
        assert gp.kernel_matrix(k, [0.3], [0.3])[0, 0] == pytest.approx(1.0)

    def test_symmetry_and_amplitude(self):
        rng = np.random.default_rng(42)
        for family in gp.KERNEL_FAMILIES:
            k = gp.KernelSpec.isotropic(family, 0.7, 3, signal_variance=2.5)
            x, x2 = rng.normal(size=3), rng.normal(size=3)
            assert gp.kernel_matrix(k, x, x2)[0, 0] == pytest.approx(
                gp.kernel_matrix(k, x2, x)[0, 0])
            assert gp.kernel_matrix(k, x, x)[0, 0] == pytest.approx(2.5)

    @pytest.mark.parametrize("family", gp.KERNEL_FAMILIES)
    @pytest.mark.parametrize("sv", [1.0, 2.5])
    @pytest.mark.parametrize("cross", [False, True], ids=["X2_none", "X2_given"])
    def test_block_equals_the_closed_form_bit_for_bit(self, family, sv, cross):
        # The block is built in place; it must equal the textbook
        # expression, evaluated in the same operation order, to the bit.
        rng = np.random.default_rng(3)
        kernel = gp.KernelSpec(family, [0.1, 0.3, 0.2], sv)
        X, X2 = rng.random((54, 3)), rng.random((200, 3)) if cross else None
        Xs = X / kernel.lengthscales
        X2s = Xs if X2 is None else X2 / kernel.lengthscales
        if family == "squared_exponential":
            expected = sv * np.exp(-0.5 * cdist(Xs, X2s, "sqeuclidean"))
        elif family == "matern52":
            c = math.sqrt(5.0) * cdist(Xs, X2s)
            expected = sv * (1.0 + c + c * c / 3.0) * np.exp(-c)
        else:
            c = math.sqrt(3.0) * cdist(Xs, X2s)
            expected = sv * (1.0 + c) * np.exp(-c)
        np.testing.assert_array_equal(gp.kernel_matrix(kernel, X, X2), expected)

    @pytest.mark.parametrize("family", gp.KERNEL_FAMILIES)
    @pytest.mark.parametrize("sv", [1.0, 2.5])
    def test_block_equals_scaling_on_every_pass(self, family, sv):
        # kernel_matrix skips the pass K *= sv at sv = 1; the block must
        # still equal, bit for bit, this copy of the in-place order that
        # always takes it.
        def always_scaled(kernel, X, X2):
            Xs, X2s = X / kernel.lengthscales, X2 / kernel.lengthscales
            if kernel.family == "squared_exponential":
                K = cdist(Xs, X2s, "sqeuclidean")
                K *= -0.5
                np.exp(K, out=K)
                K *= kernel.signal_variance
                return K
            K = cdist(Xs, X2s)
            K *= math.sqrt(5.0) if kernel.family == "matern52" else math.sqrt(3.0)
            decay = np.negative(K)
            np.exp(decay, out=decay)
            if kernel.family == "matern52":
                square = np.multiply(K, K)
                square /= 3.0
                K += 1.0
                K += square
            else:
                K += 1.0
            K *= kernel.signal_variance
            K *= decay
            return K

        rng = np.random.default_rng(4)
        kernel = gp.KernelSpec(family, [0.2, 0.05, 0.4], sv)
        X, X2 = rng.random((37, 3)), rng.random((151, 3))
        np.testing.assert_array_equal(gp.kernel_matrix(kernel, X, X2),
                                      always_scaled(kernel, X, X2))
        np.testing.assert_array_equal(gp.kernel_matrix(kernel, X), always_scaled(kernel, X, X))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            gp.kernel_matrix(se_kernel(dim=2), [0.0], [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            gp.kernel_matrix(se_kernel(dim=2), [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            gp.KernelSpec.isotropic("squared_exponential", -1.0, 2)
        with pytest.raises(ConfigurationError):
            gp.KernelSpec.isotropic("squared_exponential", 1.0, 2, signal_variance=0.0)
        with pytest.raises(ConfigurationError):
            gp.KernelSpec.isotropic("cubic", 1.0, 2)


class TestExplicitKernel:
    def test_matrix_lookup(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        k = gp.ExplicitKernel(cov)
        assert gp.kernel_matrix(k, [0.0], [1.0])[0, 0] == pytest.approx(0.3)
        np.testing.assert_allclose(gp.kernel_diag(k, [[0.0], [1.0]]), [1.0, 0.5])

    def test_non_psd_rejected(self):
        with pytest.raises(ConfigurationError):
            gp.ExplicitKernel(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPosterior:
    def test_prior_case(self):
        state = gp.empty_state(se_kernel(dim=2), 0.1)
        mean, var = gp.posterior_batch(state, [0.4, -1.0])
        assert mean[0] == 0.0
        assert var[0] == pytest.approx(1.0)

    def test_single_observation_scalar_formula(self):
        # k(x,x)=1, noise 1, y=1: mean 1/(1+1), variance 1 - 1/(1+1)
        state = gp.incremental_update(gp.empty_state(se_kernel(), 1.0), [0.0], 1.0)
        mean, var = gp.posterior_batch(state, [0.0])
        assert mean[0] == pytest.approx(0.5, abs=1e-12)
        assert var[0] == pytest.approx(0.5, abs=1e-12)

    def test_two_point_closed_form(self):
        # Explicit prior [[1, rho], [rho, 0.99]], repeated observation of the
        # first point: mean_t(p1) = (t/(t+1)) ybar, mean_t(p2) = rho * that.
        for rho in (0.0, 0.5):
            cov = np.array([[1.0, rho], [rho, 0.99]])
            state = gp.empty_state(gp.ExplicitKernel(cov), 1.0)
            ys = [1.3, -0.2, 0.7, 2.4]
            for t, y in enumerate(ys, start=1):
                state = gp.incremental_update(state, [0.0], y)
                ybar = float(np.mean(ys[:t]))
                shrink = t / (t + 1)
                mean, var = gp.posterior_batch(state, [[0.0], [1.0]])
                assert mean[0] == pytest.approx(shrink * ybar, abs=1e-8)
                assert mean[1] == pytest.approx(rho * shrink * ybar, abs=1e-8)
                assert var[0] == pytest.approx(1.0 / (t + 1), abs=1e-8)
                assert var[1] == pytest.approx(0.99 - rho**2 * shrink, abs=1e-8)


class TestIncrementalUpdate:
    def test_first_update_scalar_cholesky(self):
        state = gp.incremental_update(gp.empty_state(se_kernel(), 0.25), [2.0], -1.0)
        assert state.chol.shape == (1, 1)
        assert state.chol[0, 0] == pytest.approx(math.sqrt(1.25))

    def test_matches_batch_rebuild(self):
        # 50 random updates on a 3-d kernel, compared against a from-scratch
        # Cholesky on the full dataset at 20 probe points.
        rng = np.random.default_rng(42)
        kernel = se_kernel(dim=3, ell=0.6)
        state = gp.empty_state(kernel, 1e-3)
        X = rng.random((50, 3))
        y = rng.normal(size=50)
        for i in range(50):
            state = gp.incremental_update(state, X[i], y[i])
        probes = rng.random((20, 3))
        mean_inc, var_inc = gp.posterior_batch(state, probes)
        batch = gp.batch_state(kernel, X, y, 1e-3)
        mean_b, var_b = gp.posterior_batch(batch, probes)
        np.testing.assert_allclose(mean_inc, mean_b, atol=1e-8)
        np.testing.assert_allclose(var_inc, var_b, atol=1e-8)
        # invariant: factor reproduces K + sigma^2 I
        K = gp.kernel_matrix(kernel, X) + 1e-3 * np.eye(50)
        rebuilt = state.chol @ state.chol.T
        assert np.linalg.norm(rebuilt - K) / np.linalg.norm(K) < 1e-8

    def test_duplicate_inputs_keep_positive_diagonal(self):
        state = gp.empty_state(se_kernel(dim=2), 0.5)
        for y in (0.3, -0.3):
            state = gp.incremental_update(state, [0.1, 0.2], y)
        assert np.all(np.diag(state.chol) > 0)

    def test_pivot_jitter_warns(self):
        # Noise far below roundoff: re-observing x = 0 leaves a zero pivot,
        # which the jitter keeps positive, and that must not pass silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = gp.incremental_update(gp.empty_state(se_kernel(), 1e-300), [0.0], 0.0)
        with pytest.warns(RuntimeWarning, match=r"n=2 needed diagonal jitter 1\.0e-10"):
            state = gp.incremental_update(state, [0.0], 0.0)
        assert state.chol[1, 1] == pytest.approx(1e-5)

    NOISE = 1e-2

    @classmethod
    def one_observation(cls):
        return gp.incremental_update(gp.empty_state(se_kernel(), cls.NOISE), [0.0], 0.0)

    # A supplied l_row whose squared norm exceeds k(x, x) + noise by
    # ``deficit`` leaves a pivot of -deficit; the jitter may cover it only
    # up to JITTER_MAX times the signal variance, as in prior factorizations.
    def pivot_deficit_update(self, deficit, state=None):
        state = self.one_observation() if state is None else state
        l_row = np.array([math.sqrt(1.0 + self.NOISE + deficit)])
        return gp.incremental_update(state, [0.5], 0.0, l_row=l_row)

    def test_pivot_jitter_stops_at_the_cap(self):
        with pytest.warns(RuntimeWarning, match=r"n=2 needed diagonal jitter 1\.0e-04"):
            state = self.pivot_deficit_update(5e-5)
        assert state.chol[1, 1] > 0

    def test_pivot_past_the_jitter_cap_raises(self):
        with pytest.raises(NumericalError, match=r"within jitter cap 1\.0e-04"):
            self.pivot_deficit_update(5e-4)

    def test_non_finite_observation_rejected(self):
        state = gp.empty_state(se_kernel(), 1.0)
        with pytest.raises(ObservationError):
            gp.incremental_update(state, [0.0], float("nan"))
        with pytest.raises(ObservationError):
            gp.incremental_update(state, [0.0], float("inf"))

    @pytest.mark.parametrize("kernel", [
        se_kernel(dim=2, ell=0.3, sv=2.5),
        gp.ExplicitKernel(np.array([[0.5, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 2.0]])),
    ], ids=["se", "explicit"])
    def test_supplied_prior_variance_is_bit_identical(self, kernel):
        # Supplying k(x, x) as the kernel's diagonal gives it changes no bit
        # of the factor, the whitened targets or the stored data.
        rng = np.random.default_rng(8)
        if isinstance(kernel, gp.ExplicitKernel):
            X = rng.integers(0, 3, (12, 1)).astype(float)
        else:
            X = rng.random((12, 2))
        y = rng.normal(size=12)
        plain, given = gp.empty_state(kernel, 1e-3), gp.empty_state(kernel, 1e-3)
        for x, obs in zip(X, y):
            gp.incremental_update(plain, x, obs)
            gp.incremental_update(given, x, obs,
                                  prior_var=gp.kernel_diag(kernel, x[None, :])[0])
        for name in STATE_ARRAYS:
            np.testing.assert_array_equal(getattr(given, name), getattr(plain, name))

    @pytest.mark.parametrize("case", ["non_finite_y", "l_row_shape", "pivot_past_cap"])
    def test_update_that_raises_leaves_the_state_untouched(self, case):
        # Updates write into the state they are given, so one that raises
        # must raise before it writes.
        state = self.one_observation()
        before = [getattr(state, name).copy() for name in STATE_ARRAYS]
        with pytest.raises((ObservationError, ConfigurationError, NumericalError)):
            if case == "non_finite_y":
                gp.incremental_update(state, [0.3], float("nan"))
            elif case == "l_row_shape":
                gp.incremental_update(state, [0.3], 1.0, l_row=np.zeros(3))
            else:
                self.pivot_deficit_update(5e-4, state)
        assert state.n_obs == 1
        for name, want in zip(STATE_ARRAYS, before):
            np.testing.assert_array_equal(getattr(state, name), want)

    def test_growth_past_capacity_keeps_every_observation(self):
        # A state starts with rows for 8 observations and doubles when full;
        # the observations it moves must be those a from-scratch build holds.
        rng = np.random.default_rng(3)
        kernel = se_kernel(dim=2, ell=0.5)
        X, y = rng.random((20, 2)), rng.normal(size=20)
        state = gp.empty_state(kernel, 1e-2, capacity=1)
        for x, obs in zip(X, y):
            assert gp.incremental_update(state, x, obs) is state
        batch = gp.batch_state(kernel, X, y, 1e-2)
        np.testing.assert_array_equal(state.inputs, X)
        np.testing.assert_array_equal(state.outputs, y)
        np.testing.assert_allclose(state.chol, batch.chol, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.half_targets, batch.half_targets, rtol=0, atol=1e-10)


class TestPosteriorInvariants:
    def test_variance_bounds_random_states(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            dim = int(rng.integers(1, 4))
            kernel = gp.KernelSpec.isotropic(
                str(rng.choice(list(gp.KERNEL_FAMILIES))), float(rng.uniform(0.2, 2.0)), dim
            )
            n = int(rng.integers(1, 30))
            state = gp.batch_state(kernel, rng.random((n, dim)), rng.normal(size=n), 1e-4)
            _, var = gp.posterior_batch(state, rng.random((40, dim)))
            assert np.all(var >= 0.0)
            assert np.all(var <= kernel.signal_variance + 1e-8)

    def test_reobservation_strictly_shrinks_variance(self):
        rng = np.random.default_rng(7)
        kernel = se_kernel(dim=2, ell=0.5)
        for _ in range(5):
            x = rng.random(2)
            state = gp.batch_state(kernel, rng.random((8, 2)), rng.normal(size=8), 0.05)
            before = gp.posterior_batch(state, x)[1][0]
            state = gp.incremental_update(state, x, 0.0)
            after = gp.posterior_batch(state, x)[1][0]
            assert after < before


class TestCrossSolve:
    def test_solve_gives_posterior_moments(self):
        rng = np.random.default_rng(11)
        kernel = se_kernel(dim=2, ell=0.5)
        X_obs, y = rng.random((7, 2)), rng.normal(size=7)
        state = gp.batch_state(kernel, X_obs, y, 1e-3)
        X = rng.random((30, 2))
        V = gp.cross_solve(state, X)
        assert V.shape == (7, 30)
        np.testing.assert_allclose(state.chol @ V, gp.kernel_matrix(kernel, X_obs, X),
                                   atol=1e-12)
        mean, var = gp.posterior_batch(state, X)
        np.testing.assert_array_equal(mean, V.T @ state.half_targets)
        np.testing.assert_array_equal(var, np.maximum(1.0 - np.einsum("ij,ij->j", V, V), 0.0))

    def test_empty_state_solve_is_empty(self):
        state = gp.empty_state(se_kernel(dim=2), 0.1)
        assert gp.cross_solve(state, np.zeros((4, 2))).shape == (0, 4)


class TestInverseFactor:
    def test_inverts_the_factor(self):
        rng = np.random.default_rng(12)
        state = gp.batch_state(se_kernel(dim=2, ell=0.5), rng.random((30, 2)),
                               rng.normal(size=30), 1e-3)
        inv = gp.inverse_factor(state)
        np.testing.assert_allclose(inv @ state.chol, np.eye(30), atol=1e-12)
        np.testing.assert_array_equal(np.triu(inv, 1), 0.0)

    def test_empty_state_gives_empty_inverse(self):
        state = gp.empty_state(se_kernel(dim=2), 0.1)
        inv = gp.inverse_factor(state)
        assert inv.shape == (0, 0)
        assert (inv @ gp.kernel_matrix(state.kernel, state.inputs, np.zeros((4, 2)))).shape \
            == (0, 4)


class TestSamplePrior:
    def test_single_candidate_moments(self):
        draws = np.array([gp.sample_prior(se_kernel(), [[0.0]], s)[0] for s in range(10000)])
        assert abs(draws.mean()) < 3.0 / math.sqrt(10000)
        assert 0.94 <= draws.var() <= 1.06

    def test_identical_candidates_coincide(self):
        draw = gp.sample_prior(se_kernel(dim=2), [[0.3, 0.3], [0.3, 0.3]], 5)
        assert abs(draw[0] - draw[1]) < 1e-3

    def test_empirical_covariance_matches_kernel(self):
        kernel = se_kernel(dim=1, ell=0.1)
        pts = np.linspace(0.0, 1.0, 100)[:, None]
        draws = np.stack([gp.sample_prior(kernel, pts, s) for s in range(5000)])
        emp = np.cov(draws, rowvar=False)
        np.testing.assert_allclose(emp, gp.kernel_matrix(kernel, pts), atol=0.05)

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(0).random((10, 2))
        a = gp.sample_prior(se_kernel(dim=2), pts, 123)
        b = gp.sample_prior(se_kernel(dim=2), pts, 123)
        np.testing.assert_array_equal(a, b)


class TestLogMarginalLikelihood:
    def test_single_observation_closed_form(self):
        state = gp.batch_state(se_kernel(), [[0.0]], [0.0], 1.0)
        want = -0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        assert gp.log_marginal_likelihood(state) == pytest.approx(want, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(42)
        X = rng.random((12, 2))
        y = rng.normal(size=12)
        kernel = se_kernel(dim=2, ell=0.4)
        base = gp.log_marginal_likelihood(gp.batch_state(kernel, X, y, 0.01))
        perm = rng.permutation(12)
        shuffled = gp.log_marginal_likelihood(gp.batch_state(kernel, X[perm], y[perm], 0.01))
        assert shuffled == pytest.approx(base, abs=1e-9)

    def test_matches_dense_gaussian_density(self):
        rng = np.random.default_rng(3)
        X = rng.random((5, 2))
        y = rng.normal(size=5)
        kernel = se_kernel(dim=2, ell=0.7)
        cov = gp.kernel_matrix(kernel, X) + 0.3 * np.eye(5)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        dense = -0.5 * (y @ np.linalg.inv(cov) @ y) - 0.5 * logdet - 2.5 * math.log(2 * math.pi)
        state = gp.batch_state(kernel, X, y, 0.3)
        assert gp.log_marginal_likelihood(state) == pytest.approx(dense, abs=1e-8)

    def test_empty_state_rejected(self):
        with pytest.raises(ConfigurationError):
            gp.log_marginal_likelihood(gp.empty_state(se_kernel(), 1.0))


class TestFitHyperparameters:
    def test_singleton_grid(self):
        grid = [se_kernel(ell=0.5)]
        assert gp.fit_hyperparameters([[0.0]], [1.0], grid, 0.1) is grid[0]

    def test_tie_breaks_to_first(self):
        grid = [se_kernel(ell=0.5), se_kernel(ell=0.5)]
        picked = gp.fit_hyperparameters([[0.0], [1.0]], [0.5, -0.5], grid, 0.1)
        assert picked is grid[0]

    def test_empty_dataset_falls_back_to_first(self):
        grid = [se_kernel(ell=0.2), se_kernel(ell=0.9)]
        assert gp.fit_hyperparameters(np.empty((0, 1)), [], grid, 0.1) is grid[0]

    def test_state_is_the_batch_state_of_the_pick(self):
        rng = np.random.default_rng(4)
        X, y = rng.random((25, 2)), rng.normal(size=25)
        grid = [se_kernel(dim=2, ell=ell) for ell in (0.05, 0.2, 0.5, 1.0)]
        state = gp.fit_state(X, y, grid, 1e-4)
        assert state.kernel is gp.fit_hyperparameters(X, y, grid, 1e-4)
        rebuilt = gp.batch_state(state.kernel, X, y, 1e-4)
        for name in STATE_ARRAYS:
            np.testing.assert_array_equal(getattr(state, name), getattr(rebuilt, name))

    def test_capacity_lets_the_next_observation_append_in_place(self):
        rng = np.random.default_rng(6)
        X, y = rng.random((25, 2)), rng.normal(size=25)
        grid = [se_kernel(dim=2, ell=ell) for ell in (0.2, 0.5)]
        state = gp.fit_state(X, y, grid, 1e-4, capacity=40)
        held = [getattr(state, name) for name in STATE_ARRAYS]
        new = gp.incremental_update(state, rng.random(2), 0.3)
        assert new is state and new.n_obs == 26
        for name, before in zip(STATE_ARRAYS, held):
            assert np.shares_memory(getattr(new, name), before), name
        rebuilt = gp.batch_state(state.kernel, new.inputs, new.outputs, 1e-4)
        np.testing.assert_allclose(new.chol, rebuilt.chol, rtol=0, atol=1e-12)

    def test_recovers_generating_lengthscale(self):
        # Data from ell=0.1 against the grid {0.05, 0.1, 0.2, 0.5}; the true
        # value must win in at least 90% of 50 seeds.
        truth = se_kernel(ell=0.1)
        grid = [se_kernel(ell=l) for l in (0.05, 0.1, 0.2, 0.5)]
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.random((200, 1))
            f = gp.sample_prior(truth, X, rng)
            y = f + rng.normal(0, 1e-2, size=200)
            picked = gp.fit_hyperparameters(X, y, grid, 1e-4)
            hits += picked.lengthscales[0] == 0.1
        assert hits >= 45


class TestJitterEscalation:
    def test_dense_grid_still_samples(self):
        # 200 near-coincident points: raw Gram is numerically singular.
        kernel = se_kernel(ell=10.0)
        pts = np.linspace(0, 1e-4, 200)[:, None]
        draw = gp.sample_prior(kernel, pts, 0)
        assert np.all(np.isfinite(draw))

    def test_unfactorizable_raises_numerical_error(self, monkeypatch):
        # Any PSD Gram plus jitter factorizes, so trip the exhaustion branch
        # by making the factorization itself fail.
        def always_fail(_):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", always_fail)
        with pytest.raises(NumericalError):
            gp.sample_prior(se_kernel(), [[0.0]], 0)

    NEAR_COINCIDENT = np.linspace(0, 1e-4, 200)[:, None]

    def test_escalation_warns_once_per_factorization(self, require_jitter):
        kernel = se_kernel(ell=10.0)
        require_jitter(1e-8)
        for factorize in (lambda: gp.sample_prior(kernel, self.NEAR_COINCIDENT, 0),
                          lambda: gp.prior_data(kernel, self.NEAR_COINCIDENT, factor=True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                factorize()
            assert len(caught) == 1
            assert str(caught[0].message) == (
                "prior Gram of 200 points needed diagonal jitter 1.0e-08 to factorize")

    def test_observation_gram_escalates_like_a_pivot(self, require_jitter):
        # A refit on near-coincident inputs with noise far below roundoff:
        # the Gram is tried without jitter first, then escalated and reported.
        kernel, X, noise = se_kernel(ell=10.0), self.NEAR_COINCIDENT[:20], 1e-12
        cholesky = require_jitter(1e-8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = gp.batch_state(kernel, X, np.zeros(20), noise)
        assert [str(w.message) for w in caught] == [
            "observation Gram of 20 points needed diagonal jitter 1.0e-08 to factorize"]
        K = gp.kernel_matrix(kernel, X) + noise * np.eye(20)
        np.testing.assert_array_equal(state.chol, cholesky(K + 1e-8 * np.eye(20)))

    def test_observation_gram_without_jitter_is_the_plain_factor(self):
        kernel, X = se_kernel(dim=2), np.random.default_rng(1).random((15, 2))
        state = gp.batch_state(kernel, X, np.zeros(15), 1e-2)
        K = gp.kernel_matrix(kernel, X) + 1e-2 * np.eye(15)
        np.testing.assert_array_equal(state.chol, np.linalg.cholesky(K))

    @pytest.mark.usefixtures("fresh_prior_cache")
    def test_paper_grid_factorizes_silently_at_start_jitter(self):
        # Any escalation past JITTER_START warns, so silence means the
        # factor was taken at the start jitter.
        kernel = gp.KernelSpec.isotropic("squared_exponential", 0.1, 3)
        axis = np.linspace(0.0, 0.9, 10)
        pts = np.stack([m.ravel() for m in np.meshgrid(axis, axis, axis, indexing="ij")], -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gp.prior_data(kernel, pts, factor=True).factor.shape == (1000, 1000)


@pytest.mark.usefixtures("fresh_prior_cache")
class TestPriorCache:
    """Process-level prior Gram and factor per (kernel, point set)."""

    PTS = np.random.default_rng(4).random((40, 2))

    @pytest.mark.parametrize("family", gp.KERNEL_FAMILIES)
    def test_gram_rows_equal_kernel_matrix_rows(self, family):
        kernel = gp.KernelSpec.isotropic(family, 0.3, 2)
        gram = gp.prior_data(kernel, self.PTS).gram
        np.testing.assert_array_equal(gram, gp.kernel_matrix(kernel, self.PTS))
        for i in (0, 13, 39):
            np.testing.assert_array_equal(
                gram[i], gp.kernel_matrix(kernel, self.PTS[i][None, :], self.PTS)[0])

    @pytest.mark.parametrize("family, pts, jitter", [
        ("squared_exponential", PTS, gp.JITTER_START),
        ("matern52", PTS, gp.JITTER_START),
        ("matern32", PTS, gp.JITTER_START),
        ("squared_exponential", TestJitterEscalation.NEAR_COINCIDENT, 1e-7),
    ])
    def test_factor_equals_dense_jitter_reference(self, family, pts, jitter, require_jitter):
        # Reference: the factorization as written before the in-place jitter;
        # the near-coincident grid is made to escalate three times.
        kernel = gp.KernelSpec.isotropic(family, 0.3 if pts is self.PTS else 10.0, pts.shape[1])
        cholesky = require_jitter(jitter)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entry = gp.prior_data(kernel, pts, factor=True)
        assert len(caught) == (jitter > gp.JITTER_START)
        K = gp.kernel_matrix(kernel, pts)
        np.testing.assert_array_equal(entry.factor, cholesky(K + jitter * np.eye(len(pts))))
        np.testing.assert_array_equal(entry.gram, K)

    def test_same_key_returns_same_arrays(self):
        kernel = se_kernel(dim=2, ell=0.3)
        first = gp.prior_data(kernel, self.PTS, factor=True)
        again = gp.prior_data(se_kernel(dim=2, ell=0.3), self.PTS.copy())
        assert again.gram is first.gram and again.factor is first.factor
        other = gp.prior_data(se_kernel(dim=2, ell=0.31), self.PTS)
        assert other.gram is not first.gram and other.factor is None

    def test_explicit_kernel_keyed_by_covariance(self):
        pts = [[0.0], [1.0]]
        a = gp.prior_data(gp.ExplicitKernel(np.array([[1.0, 0.2], [0.2, 0.99]])), pts)
        b = gp.prior_data(gp.ExplicitKernel(np.array([[1.0, 0.3], [0.3, 0.99]])), pts)
        assert a.gram[0, 1] == 0.2 and b.gram[0, 1] == 0.3

    def test_cached_arrays_are_read_only(self):
        entry = gp.prior_data(se_kernel(dim=2), self.PTS, factor=True)
        with pytest.raises(ValueError):
            entry.gram[0, 0] = 2.0
        with pytest.raises(ValueError):
            entry.factor[1, 0] = 2.0

    def test_held_bytes_stay_under_cap(self, monkeypatch):
        # Room for two and a half 40-point Grams: every later grid evicts.
        gram_bytes = 40 * 40 * 8
        monkeypatch.setattr(gp, "PRIOR_CACHE_BYTES", int(2.5 * gram_bytes))
        rng = np.random.default_rng(0)
        for i in range(6):
            gp.prior_data(se_kernel(dim=2), rng.random((40, 2)), factor=i % 2 == 1)
            assert 0 < gp._PRIOR_CACHE.held_bytes <= gp.PRIOR_CACHE_BYTES
        # A point set whose Gram and factor would not fit together is
        # neither computed nor cached, though its Gram alone would fit.
        held = gp._PRIOR_CACHE.held_bytes
        assert gp.prior_data(se_kernel(dim=2), rng.random((50, 2))) is None
        assert gp.prior_data(se_kernel(dim=2), rng.random((50, 2)), factor=True) is None
        assert gp._PRIOR_CACHE.held_bytes == held
