"""Dense symmetric positive definite linear algebra.

All SPD inversions go through a Cholesky factorization (never explicit
inverse entries) because the downstream recursions are sensitive to
symmetry loss; results are re-symmetrized as (M + M^T)/2.
Determinants are handled as log-determinants throughout to avoid
overflow on long products.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite

__all__ = [
    "symmetrize",
    "spd_cholesky",
    "spd_solve",
    "spd_inverse",
    "gaussian_log_density",
]

#: Relative diagonal jitter used in the single factorization retry.
JITTER = 1e-10


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T)/2 of a matrix, or of each matrix in a stack."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + (m.T if m.ndim <= 2 else m.swapaxes(-1, -2)))


def spd_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    If the factorization fails, retry once with ``JITTER * trace/dim``
    added to the diagonal. The retry keeps long closed-loop runs alive
    through transient conditioning trouble; a genuinely indefinite
    matrix still raises NotPositiveDefinite, at once if its trace is
    not positive, since no bump could then be added.

    A stack of matrices (..., n, n) is factored at once; if any of them
    fails, each is factored on its own through that retry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim <= 2:
        return _jittered_cholesky(a)[0]
    try:
        return np.linalg.cholesky(symmetrize(a))
    except np.linalg.LinAlgError:
        flat = a.reshape(-1, *a.shape[-2:])
        return np.stack([_jittered_cholesky(one)[0] for one in flat]).reshape(a.shape)


def _jittered_cholesky(a: np.ndarray) -> tuple[np.ndarray, bool]:
    # spd_cholesky's factor, and whether it took the jittered retry.
    a = symmetrize(a)
    try:
        return np.linalg.cholesky(a), False
    except np.linalg.LinAlgError:
        pass
    bump = JITTER * np.trace(a) / a.shape[0]
    if not bump > 0:
        raise NotPositiveDefinite(f"matrix of shape {a.shape} is not positive definite (trace {np.trace(a):g})")
    try:
        return np.linalg.cholesky(a + bump * np.eye(a.shape[0])), True
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"matrix of shape {a.shape} is not positive definite "
            f"(Cholesky failed even with diagonal jitter {bump:g})"
        ) from exc


# Generated source. The float forms of the linear maps and the bundled
# potentials, like the step kernel, are written out as source per
# dimension and compiled on first use.

def _dot_source(a: list, b: list) -> str:
    """Source of the dot product of the float names a and b.

    It sums left to right from 0.0, so products that are all -0.0 sum
    to 0.0, as sum(map(mul, a, b)) does up to Python 3.11; unlike sum()
    from 3.12, which compensates float sums, it rounds the same way on
    every interpreter.
    """
    return "0.0 + " + " + ".join(f"{p} * {q}" for p, q in zip(a, b))


def _compile_source(lines: list, label: str, namespace: dict, name: str):
    """Compile source lines into ``namespace`` and return its entry ``name``."""
    exec(compile("\n".join(lines) + "\n", label, "exec"), namespace)
    return namespace[name]


def _cholesky_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b from the lower Cholesky factor L; b is 1-D or 2-D.

    A stack of factors (..., n, n) takes a stack of right-hand sides
    (..., n, r); pass a single one as an (..., n, 1) column, which
    np.linalg.solve reads the same way on numpy 1.x and 2.x.
    """
    # np.linalg.solve on L, then on L^T. For a diagonal factor this gives
    # the bits of LAPACK's potrs; otherwise they may differ in the last bit.
    return np.linalg.solve(low.swapaxes(-1, -2), np.linalg.solve(low, np.asarray(b, dtype=float)))


def _strict_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, no jitter.

    Rounding can leave a singular matrix positive pivots, so ``a`` must
    also be far from singular once scaled to a unit diagonal: the 1-norm
    condition number of D^-1/2 a D^-1/2, D the diagonal of ``a``, within
    a factor n of the 2-norm one, must stay below 1 / (n eps), the rank
    tolerance of numpy's matrix_rank. The scaling leaves any positive
    diagonal matrix accepted, whatever the spread of its entries.
    Raises NotPositiveDefinite otherwise, and for an empty matrix.
    """
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        low = None
    if low is not None and a.size:
        d = 1.0 / np.sqrt(np.diag(a))
        if np.linalg.cond(a * np.outer(d, d), 1) * a.shape[0] * np.finfo(float).eps < 1.0:
            return low
    raise NotPositiveDefinite(f"matrix of shape {a.shape} is singular or not positive definite")


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A."""
    return _cholesky_solve(spd_cholesky(a), b)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix, or of each in a stack, via its factorization, re-symmetrized."""
    low = spd_cholesky(a)
    return symmetrize(_cholesky_solve(low, np.broadcast_to(np.eye(low.shape[-1]), low.shape)))


def gaussian_log_density(diff: np.ndarray, cov: np.ndarray):
    """log N(diff; 0, cov) for each row of a 2-D ``diff``, or a 1-D one, from one factor of cov."""
    low = spd_cholesky(cov)
    diff = np.asarray(diff, dtype=float)
    quad = np.sum(diff * _cholesky_solve(low, diff.T).T, axis=-1)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    return -0.5 * (quad + logdet + diff.shape[-1] * np.log(2.0 * np.pi))
