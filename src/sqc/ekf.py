"""Filtering specialization: observation-driven quadratic potential.

With the inner map l = y - h(x) and a quadratic outer function the
update becomes the extended Kalman filter. The sign convention
H = -(dl/dx) makes H the plain observation Jacobian dh/dx here, which
is the classic spot for sign bugs; a unit test pins it against the
innovation form.

Sigma_nu is a tuning matrix for the observation weight, not something
estimated from data.

filter_with_likelihood runs every observation through the engine's
update kernel with unit time weight, on raw moments as the closed loop
does, factoring the constant curvature sigma_nu_inv once per call. Its
log normalization gives the marginal likelihood:
log p(y) = -log_n - log|sigma_nu|/2 - (k/2) log 2 pi.
ekf_step and marginal_likelihood are the textbook innovation-form EKF,
kept as the independent reference the tests compare the filter with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import engine
from .errors import NonFinite, ValidationError
from .linalg import spd_inverse, spd_logdet, spd_solve, symmetrize
from .potential import PotentialEvaluation, _vector, _zero_matrix
from .process import ItoProcessModel

__all__ = [
    "ObservationModel",
    "ObservationStream",
    "observation_potential",
    "ekf_step",
    "filter_with_likelihood",
    "marginal_likelihood",
    "read_observations",
]


@dataclass
class ObservationModel:
    """Observation map h, its Jacobian and the noise weight matrix."""

    h: Callable[[np.ndarray, int], np.ndarray]
    h_jacobian: Callable[[np.ndarray, int], np.ndarray]
    sigma_nu: np.ndarray

    def __post_init__(self):
        self.sigma_nu = symmetrize(np.atleast_2d(np.asarray(self.sigma_nu, dtype=float)))
        # Read-only, so the step core factors it once per filter run.
        self.sigma_nu_inv = spd_inverse(self.sigma_nu)
        self.sigma_nu_inv.setflags(write=False)
        # log p(y) = log_density_offset - log_n for one absorbed observation.
        k = self.sigma_nu.shape[0]
        self.log_density_offset = -0.5 * (spd_logdet(self.sigma_nu) + k * math.log(2 * math.pi))


@dataclass
class ObservationStream:
    """Ordered (step, y) pairs; steps strictly increasing."""

    steps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=int)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if len(self.steps) != len(self.values):
            raise ValidationError("steps and values must have equal length")
        if len(self.steps) > 1 and np.any(np.diff(self.steps) <= 0):
            raise ValidationError("observation steps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.steps)

    def as_dict(self) -> dict:
        return {int(s): y for s, y in zip(self.steps, self.values)}


def observation_potential(obs_model: ObservationModel, y: np.ndarray, x_hat: np.ndarray, t: int) -> PotentialEvaluation:
    """Quadratic potential in the innovation l = y - h(x)."""
    x_hat = _vector(x_hat)
    l = _vector(y) - _vector(obs_model.h(x_hat, t))
    grad_l = obs_model.sigma_nu_inv.dot(l)
    jac = np.atleast_2d(np.asarray(obs_model.h_jacobian(x_hat, t), dtype=float))
    # H = -(dl/dx) = +dh/dx. A non-finite l makes the value non-finite,
    # which _trusted refuses; a non-finite Jacobian shows in the
    # updated moments, which the filter checks.
    return PotentialEvaluation._trusted(
        l, 0.5 * float(l.dot(grad_l)), grad_l, jac, obs_model.sigma_nu_inv, _zero_matrix(len(x_hat))
    )


def ekf_step(
    belief: engine.GaussianBelief,
    model: ItoProcessModel,
    obs_model: ObservationModel,
    y: np.ndarray,
    t: int,
) -> engine.GaussianBelief:
    """Predict through the process model, then the textbook EKF update.

    The update arithmetic here is the innovation form with unit time
    weighting (one observation absorbed per step), deliberately not a
    call into the engine so the two can be compared as independent
    routes.
    """
    pred = engine.predict(belief, model) if belief.tag == "updated" else belief
    x = pred.mean
    jac = np.atleast_2d(obs_model.h_jacobian(x, t))
    innovation = np.atleast_1d(np.asarray(y, dtype=float)) - np.atleast_1d(obs_model.h(x, t))
    s = symmetrize(obs_model.sigma_nu + jac @ pred.cov @ jac.T)
    gain = spd_solve(s, jac @ pred.cov).T
    mean = x + gain @ innovation
    cov = symmetrize(pred.cov - gain @ jac @ pred.cov)
    return engine.GaussianBelief(mean=mean, cov=cov, step=pred.step, tag="updated")


def marginal_likelihood(belief: engine.GaussianBelief, obs_model: ObservationModel, y: np.ndarray, t: Optional[int] = None) -> tuple[float, float]:
    """Log marginal density of y and the log weight at the predicted mean.

    The marginal is the Gaussian density of y under
    N(h(x_hat), sigma_nu + H cov H^T); the weight is the ratio of the
    observation density at x_hat to that marginal. Any common scaling
    of the two densities cancels in the weight.
    """
    t = belief.step if t is None else t
    x = belief.mean
    y = np.atleast_1d(np.asarray(y, dtype=float))
    jac = np.atleast_2d(obs_model.h_jacobian(x, t))
    innovation = y - np.atleast_1d(obs_model.h(x, t))
    k = len(innovation)

    def log_gauss(diff, cov):
        return -0.5 * (float(diff @ spd_solve(cov, diff)) + spd_logdet(cov) + k * np.log(2 * np.pi))

    s = symmetrize(obs_model.sigma_nu + jac @ belief.cov @ jac.T)
    log_marginal = log_gauss(innovation, s)
    log_at_mean = log_gauss(innovation, obs_model.sigma_nu)
    return log_marginal, log_at_mean - log_marginal


def filter_with_likelihood(
    model: ItoProcessModel,
    obs_model: ObservationModel,
    stream: ObservationStream,
    initial_belief: engine.GaussianBelief,
    horizon: Optional[int] = None,
) -> tuple[list[engine.GaussianBelief], list[float]]:
    """Filter a stream of observations starting from a predicted belief.

    Returns one belief per step from the initial step through the
    horizon (default: the last observed step), updated where an
    observation exists and the bare prediction elsewhere, and the
    per-step log marginal likelihood, nan at steps without an
    observation.
    """
    if initial_belief.tag != "predicted":
        raise ValidationError("initial belief must be tagged predicted")
    by_step = stream.as_dict()
    start = initial_belief.step
    if horizon is None:
        horizon = max(by_step) if by_step else start
    beliefs: list[engine.GaussianBelief] = []
    logliks: list[float] = []
    cache = engine._CurvatureCache()
    mean, cov = initial_belief.mean, initial_belief.cov
    for s in range(start, horizon + 1):
        if s > start:
            mean, cov = engine._predict_moments(mean, cov, s - 1, model)
        y = by_step.get(s)
        if y is None:
            logliks.append(np.nan)
            beliefs.append(engine.GaussianBelief._trusted(mean, cov, s, "predicted"))
            continue
        pot = observation_potential(obs_model, y, mean, s)
        mean, cov, _, log_n, _ = engine._step_core(mean, cov, pot, 1.0, cache)
        if not engine._all_finite(mean, cov):
            raise NonFinite(f"update at step {s} produced non-finite moments")
        logliks.append(obs_model.log_density_offset - log_n)
        beliefs.append(engine.GaussianBelief._trusted(mean, cov, s, "updated"))
    return beliefs, logliks


# Steps are stored as numpy's default integer, a C long.
_STEP_RANGE = np.iinfo(int)


def read_observations(path) -> ObservationStream:
    """Load an observation CSV with header step,y1,...,yk."""
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return ObservationStream(steps=np.empty(0, dtype=int), values=np.empty((0, 0)))
    header = [c.strip() for c in rows[0]]
    k = len(header) - 1
    if header[0] != "step" or k < 1 or header[1:] != [f"y{i}" for i in range(1, k + 1)]:
        raise ValidationError(
            f"observation header must be step,y1,...,yk; got {','.join(header)}"
        )
    steps, values = [], []
    for line, r in enumerate(rows[1:], start=2):
        if not r:
            continue
        if len(r) != k + 1:
            raise ValidationError(f"line {line}: {len(r)} fields where the header has {k + 1}")
        try:
            step = float(r[0])
            row = [float(v) for v in r[1:]]
        except ValueError as exc:
            raise ValidationError(f"line {line}: {exc}") from None
        if not step.is_integer():
            raise ValidationError(f"line {line}: step {r[0].strip()} is not a whole number")
        if not _STEP_RANGE.min <= step <= _STEP_RANGE.max:
            raise ValidationError(f"line {line}: step {r[0].strip()} is out of range")
        for v in row:
            if not math.isfinite(v):
                raise ValidationError(f"line {line}: observation value {v} is not finite")
        steps.append(int(step))
        values.append(row)
    return ObservationStream(steps=np.array(steps, dtype=int), values=np.array(values).reshape(-1, k))
