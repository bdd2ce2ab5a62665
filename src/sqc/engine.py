"""Gaussian belief recursion driven by a potential.

One full step is a prediction followed by a potential-driven update.
Prediction propagates the first two moments through the drift:

    mean' = mean + f_t(mean) dt
    cov'  = F cov F^T + g_inv dt,      F = I + (df/dx) dt.

The update multiplies the predicted Gaussian by the weight
exp(-V(x) dt), expands V to second order around the predicted mean and
renormalizes. It is computed in gain form, with
S = curvature^-1 / dt + H cov H^T:

    mean' = mean + cov H^T S^-1 curvature^-1 grad_l
    cov'  = cov - cov H^T S^-1 H cov

The inner solve lives in the usually smaller constraint dimension.
_step_core is the only implementation: update(), normalization(), the
closed loop and the observation filter all run through it. The
algebraically equivalent precision form, with
P = cov^-1 + H^T curvature H dt, is kept in the oracle as the
independent reference the validation suite checks this one against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NonFinite
from .linalg import _eye, _ones, spd_cholesky, symmetrize
from .potential import PotentialEvaluation
from .process import ItoProcessModel, transition_matrix

__all__ = [
    "GaussianBelief",
    "NormalizationDiagnostic",
    "TrajectoryRecord",
    "predict",
    "update",
    "normalization",
    "sample_posterior",
    "step",
]

PotentialFn = Callable[[np.ndarray, int], PotentialEvaluation]


@dataclass
class GaussianBelief:
    """Mean and covariance at an integer step, tagged by recursion phase."""

    mean: np.ndarray
    cov: np.ndarray
    step: int = 0
    tag: str = "predicted"

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = symmetrize(np.atleast_2d(np.asarray(self.cov, dtype=float)))
        if self.tag not in ("predicted", "updated"):
            raise ValueError(f"unknown belief tag {self.tag!r}")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov))):
            raise NonFinite(f"belief at step {self.step} has non-finite entries")

    @property
    def dim(self) -> int:
        return len(self.mean)

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray, step: int, tag: str) -> "GaussianBelief":
        # Construction bypass for the step loop, where the arrays are
        # produced internally and the finite check has already run.
        self = object.__new__(cls)
        self.mean = mean
        self.cov = cov
        self.step = step
        self.tag = tag
        return self


@dataclass
class NormalizationDiagnostic:
    """Per-step log normalization and its potential-dependent part."""

    log_n: float
    script_n: float


@dataclass
class TrajectoryRecord:
    """Everything logged for one closed-loop step."""

    step: int
    x: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    value: float
    log_n: float
    u: Optional[np.ndarray] = None


def predict(belief: GaussianBelief, model: ItoProcessModel) -> GaussianBelief:
    """Propagate the belief one step through the process model.

    The drift and its Jacobian are evaluated at the current step index,
    producing the predicted belief at step + 1.
    """
    mean, cov = _predict_moments(belief.mean, belief.cov, belief.step, model)
    return GaussianBelief._trusted(mean, cov, belief.step + 1, "predicted")


def _predict_moments(
    mean: np.ndarray, cov: np.ndarray, t: int, model: ItoProcessModel
) -> tuple[np.ndarray, np.ndarray]:
    f = model.drift(mean, t)
    trans = transition_matrix(model, mean, t)
    mean = mean + f * model.dt
    cov = trans.dot(cov).dot(trans.T) + model.noise_cov
    cov = 0.5 * (cov + cov.T)
    if not _all_finite(mean, cov):
        raise NonFinite(f"prediction to step {t + 1} has non-finite entries")
    return mean, cov


def update(belief: GaussianBelief, pot: PotentialEvaluation, dt: float) -> GaussianBelief:
    """Potential-driven update in gain form.

    ``pot`` must have been evaluated at belief.mean. The posterior
    covariance never exceeds the prior one: the subtracted term is
    positive semidefinite.
    """
    mean, cov, _, _, _ = _step_core(belief.mean, belief.cov, pot, dt)
    return GaussianBelief(mean=mean, cov=cov, step=belief.step, tag="updated")


def normalization(belief: GaussianBelief, pot: PotentialEvaluation, dt: float) -> NormalizationDiagnostic:
    """Log of the weight normalization absorbed by the update.

    With S = sigma_nu / dt + H cov H^T and k the inner dimension,

        log_n = log|S|/2 - log|sigma_nu|/2 + (k/2) log dt + script_n dt
        script_n = V - (H^T grad_l)^T P^-1 (H^T grad_l) dt / 2.

    For a quadratic potential, log_n equals minus the log mass of
    exp(-V dt) under the predicted Gaussian exactly; the quadrature
    oracle checks this.
    """
    _, _, _, log_n, script_n = _step_core(belief.mean, belief.cov, pot, dt)
    return NormalizationDiagnostic(log_n=float(log_n), script_n=float(script_n))


def sample_posterior(belief: GaussianBelief, rng: np.random.Generator) -> np.ndarray:
    """Draw one state from the belief."""
    low = spd_cholesky(belief.cov)
    return belief.mean + low @ rng.standard_normal(belief.dim)


def _all_finite(mean: np.ndarray, cov: np.ndarray) -> bool:
    # A sum is finite only if every term is (inf and nan propagate), so
    # one dot product with ones per array settles the common case; only
    # a sum that overflowed from finite entries needs the entrywise test.
    total = float(mean.dot(_ones(mean.size))) + float(cov.ravel().dot(_ones(cov.size)))
    if math.isfinite(total):
        return True
    return bool(np.isfinite(mean).all() and np.isfinite(cov).all())


def _half_logdet(low: np.ndarray) -> float:
    # log|A|/2 from the Cholesky factor of A; Python floats beat numpy
    # calls on the few diagonal entries of the hot loop.
    return sum(map(math.log, low.diagonal().tolist()))


def _chol_lower(a: np.ndarray) -> np.ndarray:
    # Hot-loop factorization: straight LAPACK first (reads the lower
    # triangle only, as np.linalg.cholesky does), the jittered reference
    # path only on failure.
    low, info = dpotrf(a, lower=1)
    if info != 0:
        return spd_cholesky(a)
    return low


def _invert_curvature(curvature: np.ndarray) -> tuple[np.ndarray, float]:
    # sigma_nu = curvature^-1 and log|curvature|/2 from one factorization.
    low = _chol_lower(curvature)
    return dpotrs(low, _eye(low.shape[0]), lower=1)[0], _half_logdet(low)


class _CurvatureCache:
    """Keeps _invert_curvature's result while the same curvature comes back.

    One instance serves one run. Only a read-only array that owns its
    data is kept, since nothing writes to it unless it is first made
    writeable again, and a hit requires it to still be read-only. The
    penalty and double-well potentials built from a scenario return one
    such weight matrix every step. A curvature that is new each step
    (the barrier's), or writeable, is factored afresh every time.
    """

    __slots__ = ("_curvature", "_inverse")

    def __init__(self):
        self._curvature = None
        self._inverse = None

    def inverse(self, curvature: np.ndarray) -> tuple[np.ndarray, float]:
        if curvature is self._curvature and not curvature.flags.writeable:
            return self._inverse
        inverse = _invert_curvature(curvature)
        if not curvature.flags.writeable and curvature.flags.owndata:
            self._curvature, self._inverse = curvature, inverse
        return inverse


def _step_core(
    mean: np.ndarray,
    cov: np.ndarray,
    pot: PotentialEvaluation,
    dt: float,
    cache: Optional[_CurvatureCache] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Update moments, mean shift and normalization in one pass.

    The one implementation of the update: S is factored once and
    solved once, and the script_n quadratic form reuses the shift,
    which equals P^-1 force dt by the matrix inversion lemma:
    force^T P^-1 force dt = force^T shift. Returns
    (posterior mean, posterior cov, shift, log_n, script_n).
    """
    h = pot.H
    if cache is None:
        sigma_nu, half_logdet_c = _invert_curvature(pot.curvature)
    else:
        sigma_nu, half_logdet_c = cache.inverse(pot.curvature)
    hs = h.dot(cov)
    # S is symmetric up to rounding, and the factorization reads only
    # its lower triangle.
    chol_s = _chol_lower(sigma_nu / dt + hs.dot(h.T))
    gain = dpotrs(chol_s, hs, lower=1)[0]
    shift = gain.T.dot(sigma_nu.dot(pot.grad_l))
    cov_post = cov - hs.T.dot(gain)
    cov_post = 0.5 * (cov_post + cov_post.T)

    script_n = pot.value - 0.5 * float(pot.grad_l.dot(h.dot(shift)))
    log_n = (
        _half_logdet(chol_s)
        + half_logdet_c
        + 0.5 * h.shape[0] * math.log(dt)
        + script_n * dt
    )
    return mean + shift, cov_post, shift, log_n, script_n


def _advance(
    mean: np.ndarray,
    cov: np.ndarray,
    t: int,
    predicted: bool,
    model: ItoProcessModel,
    potential_fn: PotentialFn,
    rng: Optional[np.random.Generator],
    mode: str,
    input_map: Optional[np.ndarray] = None,
    cache: Optional[_CurvatureCache] = None,
) -> TrajectoryRecord:
    """The recursion step on raw moments, shared by step() and the closed loop.

    Predicts (unless the incoming moments at step t are already
    predicted), evaluates the potential at the predicted mean, updates,
    and in sampled mode draws the next state with one
    standard_normal(m) call. The returned record carries the next
    recursion state as (x, cov) at record.step; with an ``input_map``
    it also carries the control input u = input_map @ shift. A loop
    passes one ``cache`` for all its steps.
    """
    if not predicted:
        mean, cov = _predict_moments(mean, cov, t, model)
        t += 1
    pot = potential_fn(mean, t)
    mean, cov, shift, log_n, _ = _step_core(mean, cov, pot, model.dt, cache)
    if not _all_finite(mean, cov):
        raise NonFinite(f"update at step {t} produced non-finite moments")
    if mode == "sampled":
        x = mean + _chol_lower(cov).dot(rng.standard_normal(len(mean)))
    else:
        x = mean.copy()
    u = None if input_map is None else input_map.dot(shift)
    return TrajectoryRecord(t, x, mean, cov, pot.value, log_n, u)


def step(
    belief: GaussianBelief,
    model: ItoProcessModel,
    potential_fn: PotentialFn,
    t: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    mode: str = "sampled",
) -> tuple[GaussianBelief, TrajectoryRecord]:
    """One full recursion step: predict, evaluate potential, update, log.

    ``t``, when given, must equal the step index of the incoming belief
    (a guard against desynchronized loops). A belief tagged "updated"
    is first predicted to step + 1; one tagged "predicted" (the initial
    belief) is updated in place. The potential is always evaluated at
    the predicted mean, never at a sampled state.

    mode="sampled" draws the next state from the posterior and hands
    the recursion a belief re-centered on that draw (keeping the
    posterior covariance). mode="belief" runs the pure moment recursion.
    """
    if mode not in ("sampled", "belief"):
        raise ValueError(f"unknown mode {mode!r}")
    if t is not None and t != belief.step:
        raise ValueError(f"t={t} does not match belief step {belief.step}")
    if mode == "sampled" and rng is None:
        raise ValueError("sampled mode needs a random generator")
    record = _advance(
        belief.mean, belief.cov, belief.step, belief.tag == "predicted",
        model, potential_fn, rng, mode,
    )
    mean = record.x if mode == "sampled" else record.mean
    return GaussianBelief._trusted(mean, record.cov, record.step, "updated"), record
