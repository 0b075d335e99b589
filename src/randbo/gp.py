"""Exact Gaussian-process regression on finite point sets.

Covariance kernels (squared exponential and Matern with ARD lengthscales,
plus an explicit-matrix kernel for instances whose prior covariance is
given directly), incremental posterior updates through rank-one Cholesky
extension, joint prior sampling on a grid, and the log marginal likelihood
used for grid-search hyperparameter selection.

Every factorization that can meet a near-singular matrix goes through
``cholesky`` and escalates its diagonal jitter the same way: prior Grams,
observation Grams, a non-positive pivot of an incremental update, and in
``analysis`` the posterior covariance and the information-gain matrix.

Studies that redraw the objective on one fixed grid share one kernel and
one point set across every replication, so ``prior_data`` keeps a
process-level LRU cache of the read-only prior Gram K(grid, grid) per
(kernel, point set), plus its jitter-escalated lower Cholesky factor,
built on first use. A prior draw is then one mat-vec with the factor and a
Gram row is a lookup. Point sets whose Gram and factor would not fit in
the cache together are not cached; their callers compute rows and draws
directly. ``sample_prior`` stays uncached.

``cross_solve`` forms V = L^-1 K(inputs, X) by a triangular solve.
``inverse_factor`` gives L^-1 itself, by LAPACK ``dtrtri``: for V at
thousands of fresh points one triangular matrix product with it (BLAS
``trmm``, in place in the K(inputs, X) block) runs several times faster
than the solve and agrees with it to rounding, not bit for bit. A caller
that extends the factor one observation at a time can extend L^-1 by one
row instead of inverting again (see ``engine._FreshModel``).

A state owns its arrays and grows in place: ``incremental_update`` appends
one observation to the state it is given, in rows allocated ahead and
doubled when full, so a T-step run costs O(T^3) total instead of O(T^4).
One replication has one state, held by its engine model; a caller that
needs the state before an update keeps a copy of what it reads.
``batch_state`` and ``fit_state`` factor a whole dataset through one
helper; ``fit_state`` scores every kernel of its grid from the factor and
builds only the pick's state, with rows for the caller's ``capacity``.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri
from scipy.spatial.distance import cdist

from .errors import ConfigurationError, NumericalError, ObservationError
from .rng import as_generator

SQUARED_EXPONENTIAL = "squared_exponential"
MATERN52 = "matern52"
MATERN32 = "matern32"
KERNEL_FAMILIES = (SQUARED_EXPONENTIAL, MATERN52, MATERN32)

# Diagonal jitter of ``cholesky``, relative to the matrix's scale (the
# signal variance for a Gram): escalate x10 from 1e-10 up to 1e-4, then give
# up. Dense grids with short lengthscales produce near-singular Grams.
JITTER_START = 1e-10
JITTER_MAX = 1e-4

# Bytes of cached prior Grams and factors held per process (see prior_data);
# least recently used entries are evicted beyond it. A 1000-point grid's
# Gram and factor take 16 MB together; point sets above 2048 points are not
# cached.
PRIOR_CACHE_BYTES = 64 * 2**20


@dataclass(frozen=True)
class KernelSpec:
    """Stationary prior covariance: family, ARD lengthscales, amplitude.

    ``k(x, x) = signal_variance`` for every x. The normalized setting uses
    ``signal_variance = 1`` so that k is bounded by 1.
    """

    family: str
    lengthscales: np.ndarray
    signal_variance: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ConfigurationError(
                f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float)).copy()
        ls.setflags(write=False)
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        if ls.ndim != 1 or not np.all(np.isfinite(ls)) or not np.all(ls > 0):
            raise ConfigurationError("lengthscales must be a vector of positive reals")
        if not (math.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise ConfigurationError("signal_variance must be a positive real")

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]

    @classmethod
    def isotropic(cls, family: str, lengthscale: float, dim: int,
                  signal_variance: float = 1.0) -> "KernelSpec":
        return cls(family, np.full(dim, float(lengthscale)), signal_variance)


@dataclass(frozen=True)
class ExplicitKernel:
    """Covariance given by a fixed PSD matrix over integer-indexed points.

    Points are 1-d vectors holding an index into ``cov``. Lets problem
    instances specify an arbitrary prior covariance (possibly with unequal
    diagonal) while reusing the same posterior machinery as the stationary
    families.
    """

    cov: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cov, dtype=float).copy()
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ConfigurationError("explicit covariance must be a square matrix")
        if not np.allclose(c, c.T, atol=1e-12):
            raise ConfigurationError("explicit covariance must be symmetric")
        try:
            np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            raise ConfigurationError("explicit covariance must be positive definite")
        c.setflags(write=False)
        object.__setattr__(self, "cov", c)

    @property
    def dim(self) -> int:
        return 1

    @property
    def n_points(self) -> int:
        return self.cov.shape[0]


Kernel = KernelSpec | ExplicitKernel


def _as_points(X, dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != dim:
        raise ConfigurationError(
            f"points have dimension {X.shape[-1] if X.ndim else 0}, kernel expects {dim}"
        )
    return X


def _explicit_indices(kernel: ExplicitKernel, X) -> np.ndarray:
    X = _as_points(X, 1)
    idx = np.rint(X[:, 0]).astype(int)
    if np.any(idx < 0) or np.any(idx >= kernel.n_points):
        raise ConfigurationError("explicit-kernel point index out of range")
    return idx


def kernel_matrix(kernel: Kernel, X, X2=None) -> np.ndarray:
    """Cross-covariance matrix k(X, X2); X2 defaults to X.

    Parameters
    ----------
    kernel : KernelSpec or ExplicitKernel
    X, X2 : array_like, shape (n, d) or (d,)

    Returns
    -------
    ndarray, shape (n, m)
    """
    if isinstance(kernel, ExplicitKernel):
        i = _explicit_indices(kernel, X)
        j = i if X2 is None else _explicit_indices(kernel, X2)
        return kernel.cov[np.ix_(i, j)]

    X = _as_points(X, kernel.dim)
    Xs = X / kernel.lengthscales
    X2s = Xs if X2 is None else _as_points(X2, kernel.dim) / kernel.lengthscales
    sv = kernel.signal_variance
    # Each block is built in the cdist output, in the operation order of
    # sv * (1 + c + c^2 / 3) * exp(-c) and its siblings, so it is bit for bit
    # that expression without its temporaries. The pass scaling by sv is
    # skipped at sv = 1, where it would change no bit.
    if kernel.family == SQUARED_EXPONENTIAL:
        K = cdist(Xs, X2s, "sqeuclidean")
        K *= -0.5
        np.exp(K, out=K)
        if sv != 1.0:
            K *= sv
        return K
    K = cdist(Xs, X2s)
    K *= math.sqrt(5.0) if kernel.family == MATERN52 else math.sqrt(3.0)
    decay = np.negative(K)
    np.exp(decay, out=decay)
    if kernel.family == MATERN52:
        square = np.multiply(K, K)
        square /= 3.0
        K += 1.0
        K += square
    else:
        K += 1.0
    if sv != 1.0:
        K *= sv
    K *= decay
    return K


def kernel_diag(kernel: Kernel, X) -> np.ndarray:
    """Vector of prior variances k(x, x) for each row of X, as a new array."""
    if isinstance(kernel, ExplicitKernel):
        return np.diag(kernel.cov)[_explicit_indices(kernel, X)]
    X = _as_points(X, kernel.dim)
    return np.full(X.shape[0], kernel.signal_variance)


class GpState:
    """Posterior state after conditioning on ``n_obs`` noisy observations.

    Holds the lower Cholesky factor of (K + sigma^2 I) over the observed
    inputs together with the half-solved targets L^-1 y, which is all the
    posterior equations need. The arrays have rows for at least
    ``capacity`` observations and double when an update finds them full;
    the factor's upper triangle stays zero.
    """

    __slots__ = ("kernel", "noise_variance", "n_obs", "_x", "_y", "_chol", "_wy")

    def __init__(self, kernel: Kernel, noise_variance: float, capacity: int):
        capacity = max(capacity, 8)
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.n_obs = 0
        self._x = np.empty((capacity, kernel.dim))
        self._y = np.empty(capacity)
        self._chol = np.zeros((capacity, capacity))
        self._wy = np.empty(capacity)

    @property
    def inputs(self) -> np.ndarray:
        return self._x[: self.n_obs]

    @property
    def outputs(self) -> np.ndarray:
        return self._y[: self.n_obs]

    @property
    def chol(self) -> np.ndarray:
        return self._chol[: self.n_obs, : self.n_obs]

    @property
    def half_targets(self) -> np.ndarray:
        """L^-1 y for the current observation set."""
        return self._wy[: self.n_obs]

    @property
    def dim(self) -> int:
        return self._x.shape[1]

    def _double(self) -> None:
        """Move the observations into arrays of twice the capacity."""
        cap = self._y.shape[0]
        chol = np.zeros((2 * cap, 2 * cap))
        chol[:cap, :cap] = self._chol
        self._chol = chol
        self._x, self._y, self._wy = (np.concatenate((a, np.empty_like(a)))
                                      for a in (self._x, self._y, self._wy))


def empty_state(kernel: Kernel, noise_variance: float, capacity: int = 64) -> GpState:
    """Fresh state with no observations; posterior equals the prior."""
    if not noise_variance > 0:
        raise ConfigurationError("noise_variance must be positive")
    return GpState(kernel, noise_variance, capacity)


def _dataset(kernel: Kernel, X, y, noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """The checked (inputs, outputs) of a whole dataset under ``kernel``."""
    if not noise_variance > 0:
        raise ConfigurationError("noise_variance must be positive")
    X = _as_points(X, kernel.dim)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != X.shape[0]:
        raise ConfigurationError("inputs and outputs must have equal length")
    if not np.all(np.isfinite(y)):
        raise ObservationError("non-finite observation value")
    return X, y


def _factor(kernel: Kernel, X: np.ndarray, y: np.ndarray,
            noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """(L, L^-1 y) for L L^T = K(X, X) + noise_variance I, by one ``cholesky``
    tried without jitter first."""
    n = X.shape[0]
    if n == 0:
        return np.empty((0, 0)), np.empty(0)
    K = kernel_matrix(kernel, X)
    scale = float(np.max(np.diagonal(K)))
    K.flat[:: n + 1] += noise_variance
    L = cholesky(K, scale, f"observation Gram of {n} points", start=0.0)
    return L, solve_triangular(L, y, lower=True, check_finite=False)


def _state(kernel: Kernel, noise_variance: float, X: np.ndarray, y: np.ndarray,
           L: np.ndarray, wy: np.ndarray, capacity: int) -> GpState:
    """A state holding the dataset and its factor, with rows for at least ``capacity``."""
    n = X.shape[0]
    state = GpState(kernel, noise_variance, max(n, capacity))
    state._x[:n], state._y[:n], state._chol[:n, :n], state._wy[:n] = X, y, L, wy
    state.n_obs = n
    return state


def batch_state(kernel: Kernel, X, y, noise_variance: float) -> GpState:
    """Build a state from a whole dataset by one ``cholesky``, tried without jitter first."""
    X, y = _dataset(kernel, X, y, noise_variance)
    return _state(kernel, noise_variance, X, y, *_factor(kernel, X, y, noise_variance), 0)


def incremental_update(state: GpState, x, y: float, l_row=None,
                       prior_var: float | None = None) -> GpState:
    """Extend the state by one observation (x, y), in place, and return it.

    Equivalent to a from-scratch rebuild on the extended dataset; the new
    Cholesky row comes from one triangular solve against the existing
    factor. The observation is appended in place, into the state's next
    free row, after the arrays double if they are full. Every check and
    the new row are computed first, so an update that raises leaves the
    state as it was.

    ``l_row`` optionally supplies L^-1 k(inputs, x), which callers that
    form the columns of their candidates already hold. It becomes the new
    Cholesky row as given, so a value computed another way than the
    triangular solve (as the product of ``inverse_factor`` with the kernel
    column) matches the solve to rounding, not bit for bit; the posterior
    replay tests pin both routes.

    ``prior_var`` optionally supplies k(x, x), the prior variance at x under
    ``state.kernel``, which a caller holding the kernel's diagonal over its
    candidates already has. Passing it vouches that it is that point's own
    variance, the value ``kernel_diag(state.kernel, x)`` returns: not the
    signal variance or another point's, which differ under an
    ``ExplicitKernel`` with an unequal diagonal. It is not re-checked.
    """
    y = float(y)
    if not math.isfinite(y):
        raise ObservationError(f"non-finite observation value {y!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (state.dim,):
        raise ConfigurationError(f"input has shape {x.shape}, expected ({state.dim},)")

    n = state.n_obs
    kxx = float(kernel_diag(state.kernel, x[None, :])[0] if prior_var is None else prior_var)
    if n:
        if l_row is None:
            k_vec = kernel_matrix(state.kernel, state.inputs, x[None, :])[:, 0]
            l_row = solve_triangular(state.chol, k_vec, lower=True, check_finite=False)
        elif l_row.shape != (n,):
            raise ConfigurationError("l_row must have one entry per observation")
        wy_dot = float(l_row @ state.half_targets)
        ll = float(l_row @ l_row)
    else:
        wy_dot = 0.0
        ll = 0.0

    pivot_sq = kxx + state.noise_variance - ll
    if pivot_sq <= 0.0:
        # A 1 x 1 factorization; with a positive noise variance this is
        # nearly unreachable.
        pivot = float(cholesky(np.array([[pivot_sq]]), kxx if kxx > 0 else 1.0,
                               f"Cholesky pivot at n={n + 1}", start=0.0)[0, 0])
    else:
        pivot = math.sqrt(pivot_sq)

    if n == state._y.shape[0]:
        state._double()
    state._x[n] = x
    state._y[n] = y
    if n:
        state._chol[n, :n] = l_row
    state._chol[n, n] = pivot
    state._wy[n] = (y - wy_dot) / pivot
    state.n_obs = n + 1
    return state


def cross_solve(state: GpState, X) -> np.ndarray:
    """V = L^-1 k(inputs, X), shape (n_obs, len(X)).

    The posterior moments at X and the data update of a sample path at X
    both derive from it.
    """
    X = _as_points(X, state.dim)
    if state.n_obs == 0:
        return np.empty((0, X.shape[0]))
    return solve_triangular(state.chol, kernel_matrix(state.kernel, state.inputs, X),
                            lower=True, check_finite=False)


def inverse_factor(state: GpState) -> np.ndarray:
    """L^-1 for the state's Cholesky factor L, shape (n_obs, n_obs), lower
    triangular.

    Computed by LAPACK ``dtrtri`` at O(n^3). Its product with
    ``kernel_matrix(state.kernel, state.inputs, X)`` is ``cross_solve(state,
    X)`` as one matrix product instead of a triangular solve; the two agree
    to rounding, not bit for bit. As a triangular matrix it multiplies by
    BLAS ``trmm`` at half the cost of a dense product, in place in the
    kernel block. ``engine._FreshModel`` calls it once per refit and
    appends one row per observation after that, at O(n^2): for the factor
    extended by the row (l^T, p), the new row of L^-1 is
    (-l^T L^-1 / p, 1 / p).
    """
    if state.n_obs == 0:
        return np.empty((0, 0))
    # The factor's upper triangle is zero in the state's arrays, and dtrtri
    # leaves it so.
    inv, info = dtrtri(state.chol, lower=1)
    if info != 0:
        raise NumericalError(f"Cholesky factor of {state.n_obs} observations is singular")
    return inv


def posterior_batch(state: GpState, X) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at each row of X.

    With no observations this is the prior: zero mean, k(x, x) variance.
    Variances are clipped at zero to absorb roundoff.
    """
    X = _as_points(X, state.dim)
    return moments_from_solve(state, X, cross_solve(state, X))


def moments_from_solve(state: GpState, X, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``posterior_batch`` at X for a caller already holding V = ``cross_solve(state, X)``."""
    mean = V.T @ state.half_targets
    var = kernel_diag(state.kernel, X)
    var -= np.einsum("ij,ij->j", V, V)
    return mean, np.maximum(var, 0.0, out=var)


def cholesky(K: np.ndarray, scale: float, label: str, start: float | None = None) -> np.ndarray:
    """Lower Cholesky factor of K plus the smallest escalated diagonal jitter.

    The first attempt adds ``start`` to the diagonal, ``JITTER_START *
    scale`` when it is None. Each failed attempt raises the jitter x10
    (after a zero start, to ``JITTER_START * scale``); past ``JITTER_MAX *
    scale`` it raises NumericalError. Each attempt writes diag(K) + jitter
    onto K's diagonal in place, the same matrix as ``K + jitter * I``
    without m x m temporaries, and K's diagonal is restored before
    returning. ``label`` names the matrix in messages, as in "prior Gram of
    200 points"; a factor that needed more jitter than the first attempt
    is reported by one RuntimeWarning naming it and the jitter it ended at.
    """
    m = K.shape[0]
    diag = K.diagonal().copy()
    first = jitter = JITTER_START * scale if start is None else start
    while True:
        K.flat[:: m + 1] = diag + jitter
        try:
            L = np.linalg.cholesky(K)
            break
        except np.linalg.LinAlgError:
            jitter = jitter * 10.0 if jitter else JITTER_START * scale
            if jitter > JITTER_MAX * scale:
                raise NumericalError(
                    f"{label} not factorizable within jitter cap {JITTER_MAX * scale:.1e}"
                )
    K.flat[:: m + 1] = diag
    if jitter > first:
        warnings.warn(f"{label} needed diagonal jitter {jitter:.1e} to factorize",
                      RuntimeWarning, stacklevel=3)
    return L


def _check_candidates(kernel: Kernel, candidates) -> np.ndarray:
    X = _as_points(candidates, kernel.dim)
    if X.shape[0] == 0:
        raise ConfigurationError("candidate set must be non-empty")
    return X


def sample_prior(kernel: Kernel, candidates, seed) -> np.ndarray:
    """One joint draw of f over the candidate set from the zero-mean prior.

    Parameters
    ----------
    kernel : KernelSpec or ExplicitKernel
    candidates : array_like, shape (n, d)
    seed : int or numpy Generator

    Returns
    -------
    ndarray, shape (n,)

    Deterministic given the seed. The Gram matrix gets escalating diagonal
    jitter before factorization; exhausting the escalation raises
    NumericalError. Nothing is cached: a draw on a point set reused across
    draws is ``prior_data(kernel, points, factor=True).factor`` times
    standard normals, bit for bit the same as this.
    """
    X = _check_candidates(kernel, candidates)
    rng = as_generator(seed)
    K = kernel_matrix(kernel, X)
    L = cholesky(K, float(np.max(kernel_diag(kernel, X))), f"prior Gram of {X.shape[0]} points")
    return L @ rng.standard_normal(X.shape[0])


@dataclass
class PriorData:
    """Prior covariance data of one (kernel, point set), read-only.

    ``gram`` is K(points, points). ``factor`` is the jitter-escalated lower
    Cholesky factor of ``gram``, None until a caller asks for it.
    """

    gram: np.ndarray
    factor: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return self.gram.nbytes + (0 if self.factor is None else self.factor.nbytes)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _PriorCache:
    """LRU map from (kernel, point set) to PriorData, capped by PRIOR_CACHE_BYTES.

    Callers only pass point sets whose Gram and factor fit under the cap
    together, so a new entry never evicts itself.
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self.held_bytes = 0

    def get(self, kernel: Kernel, X: np.ndarray, factor: bool) -> PriorData:
        if isinstance(kernel, ExplicitKernel):
            key = ("explicit", kernel.cov.tobytes(), X.shape, X.tobytes())
        else:
            key = (kernel.family, kernel.lengthscales.tobytes(), kernel.signal_variance,
                   X.shape, X.tobytes())
        entry = self._entries.pop(key, None)
        if entry is None:
            entry = PriorData(kernel_matrix(kernel, X))
        else:
            self.held_bytes -= entry.nbytes
        if factor and entry.factor is None:
            # A Gram no caller holds yet is factored in place; a shared one
            # through a copy. In place keeps the held arrays contiguous in
            # memory instead of pinning a freed copy between them.
            K = entry.gram if entry.gram.flags.writeable else entry.gram.copy()
            entry.factor = _readonly(cholesky(K, float(np.max(np.diagonal(K))),
                                              f"prior Gram of {K.shape[0]} points"))
        _readonly(entry.gram)
        self._entries[key] = entry
        self.held_bytes += entry.nbytes
        while self.held_bytes > PRIOR_CACHE_BYTES:
            _, old = self._entries.popitem(last=False)
            self.held_bytes -= old.nbytes
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.held_bytes = 0


_PRIOR_CACHE = _PriorCache()


def prior_data(kernel: Kernel, points, factor: bool = False) -> PriorData | None:
    """Cached prior Gram over ``points``, with its factor when ``factor`` is set.

    Every replication of a study on one fixed grid shares the kernel and
    the points, so the m x m Gram is computed, and factored, once per
    process instead of once per replication. Entries are keyed by the
    kernel's family, lengthscales and signal variance (an explicit kernel
    by its covariance) and the points' shape and bytes. The factor uses the
    same jitter escalation as ``sample_prior`` and is bit-identical to it.

    Returns None, computing nothing, when the Gram and its factor would
    not fit in ``PRIOR_CACHE_BYTES`` together; the caller then computes the
    rows or the draw it needs directly.
    """
    X = np.ascontiguousarray(_check_candidates(kernel, points))
    if 2 * X.shape[0] ** 2 * X.itemsize > PRIOR_CACHE_BYTES:
        return None
    return _PRIOR_CACHE.get(kernel, X, factor)


def _log_evidence(L: np.ndarray, wy: np.ndarray) -> float:
    """Log evidence from the factor L and the half-solved targets L^-1 y."""
    return float(
        -0.5 * (wy @ wy)
        - np.sum(np.log(np.diag(L)))
        - 0.5 * wy.shape[0] * math.log(2.0 * math.pi)
    )


def log_marginal_likelihood(state: GpState) -> float:
    """Log evidence of the observed data under the state's kernel and noise."""
    if state.n_obs == 0:
        raise ConfigurationError("log marginal likelihood needs at least one observation")
    return _log_evidence(state.chol, state.half_targets)


def fit_state(inputs, outputs, grid: list[Kernel], noise_variance: float,
              capacity: int = 0) -> GpState:
    """The state on the data under the grid element maximizing the log
    marginal likelihood; its ``kernel`` is the pick.

    Each grid element is scored from its factor and half-solved targets,
    and only the pick's state is built: bit for bit its ``batch_state``,
    with rows for at least ``capacity`` observations, so a caller that
    sizes it to the observations still to come appends them without a
    copy. Ties break
    toward the lowest grid index; an empty dataset ties everywhere and
    falls back to the first grid element.
    """
    if not grid:
        raise ConfigurationError("hyperparameter grid must be non-empty")
    X, y = _dataset(grid[0], inputs, outputs, noise_variance)
    best = None
    for spec in grid:
        L, wy = _factor(spec, X, y, noise_variance)
        score = _log_evidence(L, wy)
        if best is None or score > best[0]:
            best = score, spec, L, wy
    _, spec, L, wy = best
    return _state(spec, noise_variance, X, y, L, wy, capacity)


def fit_hyperparameters(inputs, outputs, grid: list[KernelSpec],
                        noise_variance: float) -> KernelSpec:
    """The kernel that ``fit_state`` picks."""
    return fit_state(inputs, outputs, grid, noise_variance).kernel
