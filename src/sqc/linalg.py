"""Dense symmetric positive definite linear algebra.

All SPD inversions go through a Cholesky factorization (never explicit
inverse entries) because the downstream recursions are sensitive to
symmetry loss; results are re-symmetrized as (M + M^T)/2.
Determinants are handled as log-determinants throughout to avoid
overflow on long products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve

from .errors import NotPositiveDefinite

__all__ = [
    "symmetrize",
    "spd_cholesky",
    "spd_solve",
    "spd_inverse",
    "spd_logdet",
]

#: Relative diagonal jitter used in the single factorization retry.
JITTER = 1e-10


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T)/2."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


@lru_cache(maxsize=None)
def _eye(m: int) -> np.ndarray:
    # Shared read-only identity for the hot loops.
    out = np.eye(m)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _ones(n: int) -> np.ndarray:
    # Shared read-only summing vector for the hot loops.
    out = np.ones(n)
    out.setflags(write=False)
    return out


def spd_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    If the factorization fails, retry once with ``JITTER * trace/dim``
    added to the diagonal. The retry keeps long closed-loop runs alive
    through transient conditioning trouble; a genuinely indefinite
    matrix still raises NotPositiveDefinite.
    """
    a = symmetrize(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    bump = JITTER * np.trace(a) / a.shape[0]
    try:
        return np.linalg.cholesky(a + bump * np.eye(a.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"matrix of shape {a.shape} is not positive definite "
            f"(Cholesky failed even with diagonal jitter {bump:g})"
        ) from exc


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A."""
    low = spd_cholesky(a)
    return cho_solve((low, True), np.asarray(b, dtype=float), check_finite=False)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix via its factorization, re-symmetrized."""
    low = spd_cholesky(a)
    inv = cho_solve((low, True), np.eye(low.shape[0]), check_finite=False)
    return symmetrize(inv)


def spd_logdet(a: np.ndarray) -> float:
    """log det A for SPD A, computed from the Cholesky diagonal."""
    low = spd_cholesky(a)
    return 2.0 * float(np.sum(np.log(np.diag(low))))
