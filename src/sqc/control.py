"""Closed-loop constrained control.

The update's mean shift is read as B u: the potential acts on the
dynamics through a control input

    u = R^-1 B^T (B R^-1 B^T)^-1 shift,

which reproduces the shift exactly whenever it lies in the range of B
(and always when B is square and regular). The covariance is never
reset by the controller; it keeps evolving through the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import engine
from .engine import GaussianBelief
from .errors import NotPositiveDefinite, ValidationError
from .linalg import _cholesky_solve, _strict_cholesky, symmetrize
from .process import ItoProcessModel, _generator, _reals, _whole

__all__ = [
    "ControlConfig",
    "ScenarioResult",
    "run_closed_loop",
    "run_scenario",
]

MODES = ("sampled", "belief")


@dataclass
class ControlConfig:
    """Input matrix B (m, l) and effort weight R (l, l); both checked at construction."""

    B: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.B, self.R = _reals(self.B, "B", 2), _reals(self.R, "R", 2)
        if self.R.shape != (self.B.shape[1],) * 2:
            raise ValidationError(f"R dim does not match B columns: R has shape {self.R.shape}, B {self.B.shape}")
        self.R = symmetrize(self.R)
        # Strict factorizations here, no jitter retry: a singular R or a
        # rank-deficient B must fail loudly at construction, not drift
        # through the loop.
        try:
            r_chol = _strict_cholesky(self.R)
        except NotPositiveDefinite:
            raise NotPositiveDefinite("R must be symmetric positive definite") from None
        r_inv_bt = _cholesky_solve(r_chol, self.B.T)
        try:
            brb_chol = _strict_cholesky(symmetrize(self.B @ r_inv_bt))
        except NotPositiveDefinite:
            raise NotPositiveDefinite(
                f"B R^-1 B^T must be positive definite (B needs full row rank); got B = {self.B.tolist()}"
            ) from None
        # The least-effort map R^-1 B^T (B R^-1 B^T)^-1 is fixed once B and
        # R are, so it is built here and each step costs one product.
        self.shift_map = _cholesky_solve(brb_chol, r_inv_bt.T).T

    def input_for_shift(self, shift: np.ndarray) -> np.ndarray:
        """Map a mean shift to the input u with B u = shift (least effort).

        ``shift`` is one shift, (m,), or one per row, (n, m); u is then
        (l,) or (n, l). run_closed_loop maps a run's shift column here.
        """
        return shift @ self.shift_map.T


@dataclass
class TrajectoryRecord:
    """Everything logged for one closed-loop step, as ScenarioResult.records holds it."""

    step: int
    x: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    value: float
    log_n: float
    u: np.ndarray


@dataclass
class ScenarioResult:
    """A run's per-step columns plus how it ended.

    Row i of every column is step ``first_step + i``: ``x`` (the state
    the next step starts from) and ``mean`` are (n, m), ``u`` is (n, l),
    ``cov`` is (n, m, m), ``value`` (V at the predicted mean) and
    ``log_n`` are (n,). ``failure`` is the message of the breakdown
    that engine._run reported and ``jitter_retries`` the retry count it
    returned. ``records``, one TrajectoryRecord per
    step whose arrays are views of these rows, is built on first read;
    read the columns instead where a column is wanted.
    """

    first_step: int
    x: np.ndarray
    u: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    value: np.ndarray
    log_n: np.ndarray
    completed: bool
    failure: Optional[str] = None
    failed_step: Optional[int] = None
    jitter_retries: int = 0

    @cached_property
    def records(self) -> list:
        n = len(self.x)
        return list(map(
            TrajectoryRecord, range(self.first_step, self.first_step + n), self.x, self.mean, self.cov,
            self.value.tolist(), self.log_n.tolist(), self.u,
        ))


def run_closed_loop(
    model: ItoProcessModel,
    potential_fn,
    initial: GaussianBelief,
    cfg: ControlConfig,
    horizon: int,
    rng: Optional[np.random.Generator],
    mode: str = "sampled",
) -> ScenarioResult:
    """Run the recursion for ``horizon`` steps, logging one row per step.

    The initial belief must be tagged predicted and have the model's
    dimension, and B one row per state entry; the result holds
    horizon + 1 rows from the belief's step. engine._run stops the run
    at a DomainViolation (a barrier evaluated outside its domain), a
    non-finite state or a covariance that is no longer positive
    definite; the result then holds the completed rows, the failure's
    message and the step it happened at. ``mode`` is one of MODES: each
    next state is a posterior draw, taken with ``rng`` by engine._run
    after its checks ("sampled"), or the posterior mean ("belief").
    """
    horizon = _whole(horizon, "horizon", 1, "a whole number >= 1")
    if not (isinstance(mode, str) and mode in MODES):
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "sampled" or rng is not None:  # a belief run draws nothing and may take None
        _generator(rng)
    if cfg.B.shape[0] != initial.dim:
        raise ValidationError(f"B has {cfg.B.shape[0]} rows; the state has dim {initial.dim}")
    x, mean, cov, value, log_n, shift, retries, failure = engine._run(
        model, engine._potential_floats(potential_fn), initial, horizon + 1, model.dt, rng if mode == "sampled" else None
    )
    failure = None if failure is None else str(failure)  # its traceback refers to this frame
    return ScenarioResult(
        first_step=initial.step,
        x=x,
        u=cfg.input_for_shift(shift),
        mean=mean,
        cov=cov,
        value=value,
        log_n=log_n,
        completed=failure is None,
        failure=failure,
        failed_step=None if failure is None else initial.step + len(value),
        jitter_retries=retries,
    )


def run_scenario(name: str, overrides: Optional[dict] = None, seed: Optional[int] = None) -> ScenarioResult:
    """Run a bundled scenario by name ("penalty", "barrier", "doublewell").

    ``overrides`` patches top-level scenario fields (for example
    {"horizon": 200} or {"mode": "belief"}); ``seed`` overrides the
    bundled seed.
    """
    from .scenario import load_bundled

    scenario = load_bundled(name, overrides=overrides, seed=seed)
    return run_scenario_config(scenario)


def run_scenario_config(scenario) -> ScenarioResult:
    """Run a parsed Scenario object."""
    model = scenario.build_model()
    potential_fn = scenario.build_potential()
    cfg = ControlConfig(B=scenario.B, R=scenario.R)
    initial = GaussianBelief(mean=scenario.mean0, cov=scenario.cov0, step=0, tag="predicted")
    rng = np.random.default_rng(scenario.seed)
    return run_closed_loop(
        model, potential_fn, initial, cfg, scenario.horizon, rng, mode=scenario.mode
    )
