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
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve

from . import engine
from .engine import GaussianBelief, TrajectoryRecord
from .errors import DomainViolation, NonFinite, NotPositiveDefinite, ValidationError
from .linalg import spd_solve, symmetrize
from .process import ItoProcessModel

__all__ = [
    "ControlConfig",
    "TrajectoryRecord",
    "ScenarioResult",
    "run_closed_loop",
    "run_scenario",
]


@dataclass
class ControlConfig:
    """Input matrix B and effort weight R; both checked at construction."""

    B: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.R = symmetrize(np.atleast_2d(np.asarray(self.R, dtype=float)))
        # Strict factorizations here, no jitter retry: a rank-deficient B
        # must fail loudly at construction, not drift through the loop.
        try:
            np.linalg.cholesky(self.R)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("R must be symmetric positive definite") from exc
        self.r_inv_bt = spd_solve(self.R, self.B.T)
        self.brb = symmetrize(self.B @ self.r_inv_bt)
        try:
            brb_chol = np.linalg.cholesky(self.brb)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "B R^-1 B^T must be positive definite (B needs full row rank)"
            ) from exc
        # The least-effort map R^-1 B^T (B R^-1 B^T)^-1 is fixed once B and
        # R are, so it is built here and each step costs one product.
        self.shift_map = cho_solve((brb_chol, True), self.r_inv_bt.T, check_finite=False).T

    def input_for_shift(self, shift: np.ndarray) -> np.ndarray:
        """Map a mean shift to the input u with B u = shift (least effort)."""
        return self.shift_map.dot(shift)


@dataclass
class ScenarioResult:
    """Trajectory records plus how the run ended."""

    records: list
    completed: bool
    failure: Optional[str] = None
    failed_step: Optional[int] = None


def run_closed_loop(
    model: ItoProcessModel,
    potential_fn,
    initial: GaussianBelief,
    cfg: ControlConfig,
    horizon: int,
    rng: Optional[np.random.Generator],
    mode: str = "sampled",
) -> ScenarioResult:
    """Run the recursion for ``horizon`` steps, logging one record per step.

    The initial belief must be tagged predicted at step 0; the result
    then holds horizon + 1 records. A DomainViolation (a barrier
    evaluated outside its domain) or a non-finite state stops the run
    and returns the partial trajectory with the failure noted.
    """
    if initial.tag != "predicted":
        raise ValidationError("initial belief must be tagged predicted")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if mode not in ("sampled", "belief"):
        raise ValidationError(f"unknown mode {mode!r}; expected 'sampled' or 'belief'")
    if mode == "sampled" and rng is None:
        raise ValidationError("sampled mode needs a random generator")
    records = []
    cache = engine._CurvatureCache()
    x, cov, t, predicted = initial.mean, initial.cov, initial.step, True
    for s in range(initial.step, initial.step + horizon + 1):
        try:
            record = engine._advance(
                x, cov, t, predicted, model, potential_fn, rng, mode, cfg.shift_map, cache
            )
        except (DomainViolation, NonFinite) as exc:
            return ScenarioResult(
                records=records, completed=False, failure=str(exc), failed_step=s
            )
        records.append(record)
        # In belief mode record.x equals the posterior mean, so (x, cov)
        # is the next recursion state in both modes.
        x, cov, t, predicted = record.x, record.cov, record.step, False
    return ScenarioResult(records=records, completed=True)


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
