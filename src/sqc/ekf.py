"""Filtering specialization: observation-driven quadratic potential.

With the inner map l = y - h(x) and a quadratic outer function the
update becomes the extended Kalman filter. The sign convention
H = -(dl/dx) makes H the plain observation Jacobian dh/dx here, which
is the classic spot for sign bugs; a unit test pins it against the
innovation form.

Sigma_nu is a tuning matrix for the observation weight, not something
estimated from data.

filter_with_likelihood has no step loop of its own: it hands the
engine's loop its step count, with no generator and unit time weight,
and the observation potential's float form: potential._bound's penalty
at y with the target h(x), which gives l = y - h(x). That returns the
same curvature tuple sigma_nu_inv at every observed step, so the loop
factors it once per call, and None at unobserved steps, which keep the
bare prediction. Its ``k``, the observation width, tells the loop which
kernel stage to run when step 0 has no observation. h and its Jacobian enter through their float forms
when they carry one (the scenario's linear and identity maps do) and
through .tolist() otherwise. The log normalization gives the
marginal likelihood:
log p(y) = -log_n - log|sigma_nu|/2 - (k/2) log 2 pi.
It returns the loop's mean and cov columns and that likelihood as
arrays, one row per step from the initial one, and raises the
breakdown that stopped the loop, if one did.
ekf_step and marginal_likelihood are the textbook innovation-form EKF,
kept as the independent reference the tests compare the filter with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import engine
from .errors import ValidationError
from .linalg import _cholesky_solve, _strict_cholesky, gaussian_log_density, spd_solve, symmetrize
from .potential import _bound
from .process import ItoProcessModel, _LAST_STEP, _STEP, _reals, _sized, _steps, _whole

__all__ = [
    "ObservationModel",
    "ObservationStream",
    "ekf_step",
    "filter_with_likelihood",
    "marginal_likelihood",
    "read_observations",
]


@dataclass
class ObservationModel:
    """Observation map h, its Jacobian and the noise weight matrix; checked at construction."""

    h: Callable[[np.ndarray, int], np.ndarray]
    h_jacobian: Callable[[np.ndarray, int], np.ndarray]
    sigma_nu: np.ndarray

    def __post_init__(self):
        if not (callable(self.h) and callable(self.h_jacobian)):
            raise ValidationError("the observation map and its Jacobian must be callables (x, t) -> array")
        self.sigma_nu = _reals(self.sigma_nu, "sigma_nu", 2)
        if self.sigma_nu.shape[0] != self.sigma_nu.shape[1]:
            raise ValidationError(f"sigma_nu must be square, got shape {self.sigma_nu.shape}")
        self.sigma_nu = symmetrize(self.sigma_nu)
        # One strict factor, no jitter retry: a singular sigma_nu fails here.
        low, k = _strict_cholesky(self.sigma_nu), self.sigma_nu.shape[0]
        # Read-only: it is the constant curvature of every observation
        # potential, matched to log_density_offset below.
        self.sigma_nu_inv = symmetrize(_cholesky_solve(low, np.eye(k)))
        self.sigma_nu_inv.setflags(write=False)
        # log p(y) = log_density_offset - log_n for one absorbed observation.
        logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
        self.log_density_offset = -0.5 * (logdet + k * math.log(2 * math.pi))


@dataclass
class ObservationStream:
    """Ordered (step, y) pairs: whole steps, strictly increasing, and one row of numbers per step."""

    steps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.steps = _steps(self.steps, "observation steps")
        self.values = _reals(self.values, "observation values", 2)
        if len(self.steps) != len(self.values):
            raise ValidationError("steps and values must have equal length")
        if len(self.steps) > 1 and np.any(np.diff(self.steps) <= 0):
            raise ValidationError("observation steps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.steps)


def _innovation(belief: engine.GaussianBelief, obs_model: ObservationModel, y, t: int) -> tuple:
    # y - h(x), H = dh/dx (k, m) and sigma_nu + H cov H^T at the belief's
    # mean and step t; y must be k numbers and h and H have k and k * m entries.
    k, m = len(obs_model.sigma_nu), belief.dim
    y = _reals(y, "observation y", 1)
    if len(y) != k:
        raise ValidationError(f"observation y has {len(y)} entries; sigma_nu observes {k}")
    jac = _sized(obs_model.h_jacobian(belief.mean, t), "observation Jacobian", k * m).reshape(k, m)
    innovation = y - _sized(obs_model.h(belief.mean, t), "observation map", k).reshape(k)
    return innovation, jac, symmetrize(obs_model.sigma_nu + jac @ belief.cov @ jac.T)


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
    routes. y, t and the results of h and h_jacobian are checked.
    """
    pred = engine.predict(belief, model) if belief.tag == "updated" else belief
    innovation, jac, s = _innovation(pred, obs_model, y, _whole(t, "step t", *_STEP))
    gain = spd_solve(s, jac @ pred.cov).T
    mean = pred.mean + gain @ innovation
    cov = symmetrize(pred.cov - gain @ jac @ pred.cov)
    return engine.GaussianBelief(mean=mean, cov=cov, step=pred.step, tag="updated")


def marginal_likelihood(belief: engine.GaussianBelief, obs_model: ObservationModel, y: np.ndarray) -> tuple[float, float]:
    """Log marginal density of y and the log weight at the predicted mean.

    The marginal is the Gaussian density of y under
    N(h(x_hat), sigma_nu + H cov H^T), h and H taken at the belief's
    step; the weight is the ratio of the observation density at x_hat
    to that marginal. Any common scaling of the two densities cancels
    in the weight. Both densities are linalg.gaussian_log_density, which
    factors each covariance once. y, h and h_jacobian are checked.
    """
    innovation, _, s = _innovation(belief, obs_model, y, belief.step)
    log_marginal = float(gaussian_log_density(innovation, s))
    log_at_mean = float(gaussian_log_density(innovation, obs_model.sigma_nu))
    return log_marginal, log_at_mean - log_marginal


def filter_with_likelihood(
    model: ItoProcessModel,
    obs_model: ObservationModel,
    stream: ObservationStream,
    initial_belief: engine.GaussianBelief,
    horizon: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filter a stream of observations starting from a predicted belief.

    Returns the arrays (mean, cov, loglik) of shapes (n, m), (n, m, m)
    and (n,), whose row i is step initial_belief.step + i, from the
    initial step through the horizon (default: the last observed step).
    A row is the updated belief where an observation exists and the
    bare prediction elsewhere; loglik is the step's log marginal
    likelihood, and nan exactly at the rows without an observation. An
    observation of the wrong width, one before the initial step or
    beyond the horizon, or a horizon that is not a whole number or is
    before the initial step raises ValidationError; a breakdown that stops engine._run is raised.
    All the steps run in one call of the engine's loop stage for the
    observation width.
    """
    k = len(obs_model.sigma_nu)
    if len(stream) and stream.values.shape[1] != k:
        raise ValidationError(
            f"observation file has {stream.values.shape[1]} value columns; the scenario observes {k}"
        )
    steps = stream.steps.tolist()
    by_step = dict(zip(steps, stream.values.tolist()))
    start = initial_belief.step
    horizon = (steps[-1] if steps else start) if horizon is None else _whole(horizon, "horizon", *_STEP)
    if horizon < start:
        raise ValidationError(f"horizon {horizon} is before step {start}")
    outside = [s for s in steps if not start <= s <= horizon]
    if outside:
        where = f"before step {start}" if outside[0] < start else f"beyond horizon {horizon}"
        raise ValidationError(f"observation at step {outside[0]} is {where}")
    evaluate = _bound("quadratic_penalty", obs_model.sigma_nu_inv).floats
    h = engine._floats(obs_model.h, "observation map", k)
    h_jacobian = engine._floats(obs_model.h_jacobian, "observation Jacobian", k * model.dim)

    def potential(x, t):
        # The potential at step t, or None where nothing is observed.
        y = by_step.get(t)
        if y is None:
            return None
        value, grad, _, curvature = evaluate(y, h(x, t))
        return value, grad, h_jacobian(x, t), curvature

    potential.k = k  # the loop's k where step 0 has no observation
    _, mean, cov, _, log_n, _, _, failure = engine._run(model, potential, initial_belief, horizon + 1 - start, 1.0)
    if failure is not None:
        try:
            raise failure
        finally:
            del failure  # its new traceback refers to this frame
    return mean, cov, obs_model.log_density_offset - log_n


def read_observations(path) -> ObservationStream:
    """Load an observation CSV with header step,y1,...,yk.

    A file that is not CSV text, or whose header or lines do not fit
    that form, raises ValidationError.
    """
    import csv

    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"observation file is not readable CSV text: {exc}") from None
    if not rows:
        return ObservationStream(steps=np.empty(0, dtype=int), values=np.empty((0, 0)))
    header = [c.strip() for c in rows[0]]
    k = len(header) - 1
    if k < 1 or header[0] != "step" or header[1:] != [f"y{i}" for i in range(1, k + 1)]:
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
        if not -_LAST_STEP - 1 <= step <= _LAST_STEP:
            raise ValidationError(f"line {line}: step {r[0].strip()} is out of range")
        for v in row:
            if not math.isfinite(v):
                raise ValidationError(f"line {line}: observation value {v} is not finite")
        steps.append(int(step))
        values.append(row)
    return ObservationStream(steps=np.array(steps, dtype=int), values=np.array(values).reshape(-1, k))
