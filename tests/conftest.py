"""Shared fixtures."""

import numpy as np
import pytest

from randbo import gp


@pytest.fixture
def fresh_prior_cache():
    """Start and end the test with an empty process-level prior cache."""
    gp._PRIOR_CACHE.clear()
    yield
    gp._PRIOR_CACHE.clear()


@pytest.fixture
def require_jitter(monkeypatch, fresh_prior_cache):
    """Make ``np.linalg.cholesky`` refuse matrices jittered below a level.

    A PSD Gram with unit diagonal, even the 200-point near-coincident one,
    factorizes at the start jitter on current LAPACK builds, so tests of
    the escalation branch demand it: ``require_jitter(1e-8)`` rejects any
    matrix whose smallest diagonal entry lies less than 1e-8 above 1, and
    hands the rest to the real factorization, which it returns. Nothing
    factored meanwhile stays in the prior cache.
    """
    real = np.linalg.cholesky

    def install(level):
        def picky(A):
            if np.min(np.diagonal(A)) - 1.0 < 0.5 * level:
                raise np.linalg.LinAlgError("jitter below the demanded level")
            return real(A)

        monkeypatch.setattr(np.linalg, "cholesky", picky)
        return real

    return install
