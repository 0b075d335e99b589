"""Property-based checks over randomized inputs."""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from randbo import acquisition, analysis, confidence, gp

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    ell=st.floats(0.05, 5.0),
    sv=st.floats(0.1, 10.0),
    family=st.sampled_from(list(gp.KERNEL_FAMILIES)),
    x=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    y=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
)
def test_kernel_symmetric_bounded(ell, sv, family, x, y):
    kernel = gp.KernelSpec.isotropic(family, ell, 2, sv)
    kxy = gp.kernel_matrix(kernel, x, y)[0, 0]
    assert kxy == gp.kernel_matrix(kernel, y, x)[0, 0]
    assert -1e-12 <= kxy <= sv + 1e-12
    assert gp.kernel_matrix(kernel, x, x)[0, 0] == gp.kernel_matrix(kernel, y, y)[0, 0]


@dataclass(frozen=True)
class FixedShift(confidence.Schedule):
    """A randomized schedule with any fixed shift, to test the base's draw."""

    s: float

    randomized = True

    def shift(self, t):
        return self.s


@settings(max_examples=60, deadline=None)
@given(s=st.floats(-5, 50), seed=st.integers(0, 2**31))
def test_shifted_exponential_support_and_quantile(s, seed):
    sched = FixedShift(s)
    draw = confidence.next_confidence(sched, 1, np.random.default_rng(seed))
    assert draw >= s
    # quantile of the rate-1/2 family inverts its own CDF
    q = 0.31
    sched_q = sched.quantile(1, q)
    cdf = 1.0 - math.exp(-0.5 * (sched_q - s))
    assert abs(cdf - q) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    D=st.integers(1, 500),
    delta=st.floats(1e-6, 0.99),
    shrink=st.floats(0.05, 0.95),
)
def test_laurent_bound_monotone(D, delta, shrink):
    base = analysis.laurent_bound(D, delta)
    assert analysis.laurent_bound(D + 1, delta) > base
    assert analysis.laurent_bound(D, delta * shrink) > base
    assert base > D  # always above the chi-square mean


@settings(max_examples=40, deadline=None)
@given(
    t1=st.integers(1, 200),
    extra=st.integers(1, 300),
    gamma=st.floats(0.0, 100.0),
    m=st.integers(2, 100000),
    s2=st.floats(1e-6, 10.0),
)
def test_finite_bound_monotone_in_horizon_and_gain(t1, extra, gamma, m, s2):
    lo = analysis.bcr_bound_finite(t1, m, s2, gamma)
    assert analysis.bcr_bound_finite(t1 + extra, m, s2, gamma) >= lo
    assert analysis.bcr_bound_finite(t1, m, s2, gamma + 1.0) >= lo


def _masked_ei(mean, var, incumbent):
    """Expected improvement scored through the positive-variance mask only."""
    sd = np.sqrt(var)
    gain = mean - incumbent
    out = np.maximum(gain, 0.0)
    pos = sd > 0.0
    if np.any(pos):
        z = gain[pos] / sd[pos]
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        out[pos] = gain[pos] * ndtr(z) + sd[pos] * pdf
    return out


def _masked_pims(mean, var, f_star):
    """Probability of improvement scored through the positive-variance mask only."""
    sd = np.sqrt(var)
    out = (mean >= f_star).astype(float)
    pos = sd > 0.0
    out[pos] = ndtr((mean[pos] - f_star) / sd[pos])
    return out


@settings(max_examples=80, deadline=None)
@given(
    moments=st.lists(st.tuples(st.floats(-100.0, 100.0), st.floats(1e-12, 1e3),
                               st.booleans()), min_size=1, max_size=40),
    level=st.floats(-100.0, 100.0),
    zeros=st.booleans(),
)
def test_scores_equal_the_masked_formulas(moments, level, zeros):
    # Whole arrays are scored without the mask when every variance is
    # positive; both paths must give the masked formulas' bits.
    mean = np.array([m for m, _, _ in moments])
    var = np.array([0.0 if zeros and zero else v for _, v, zero in moments])
    assert np.array_equal(acquisition.expected_improvement(mean, var, level),
                          _masked_ei(mean, var, level))
    assert np.array_equal(acquisition.pims_scores(mean, var, level),
                          _masked_pims(mean, var, level))
