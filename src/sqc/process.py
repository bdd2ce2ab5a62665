"""Discrete-time Ito process: forward sampling and linearization.

The process is

    x_{t+dt} = x_t + f_t(x_t) dt + sqrt(dt) L z,   L L^T = g_inv,

with z a standard normal draw and g_inv the (constant) inverse noise
metric. Time is an integer step index; physical time enters only
through dt and the explicit time dependence of the drift.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Callable

import numpy as np

from .errors import NonFinite, ValidationError
from .linalg import _compile_source, _dot_source, _strict_cholesky, symmetrize

__all__ = [
    "ItoProcessModel",
    "step_sample",
    "transition_matrix",
    "simulate_open_loop",
    "make_drift",
    "DRIFT_KINDS",
]

DriftFn = Callable[[np.ndarray, int], np.ndarray]


@dataclass
class ItoProcessModel:
    """Drift, drift Jacobian, inverse noise metric and step size."""

    dim: int
    drift: DriftFn
    drift_jacobian: DriftFn
    g_inv: np.ndarray
    dt: float = 1.0
    noise_factor: np.ndarray = field(init=False, repr=False)
    noise_cov: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.g_inv = symmetrize(np.asarray(self.g_inv, dtype=float))
        if self.g_inv.shape != (self.dim, self.dim):
            raise ValidationError(
                f"g_inv shape {self.g_inv.shape} does not match dim {self.dim}"
            )
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be positive and finite; got {self.dt!r}")
        # g_inv and dt are time independent, so the noise factor and the
        # per-step noise covariance g_inv dt are computed once; the strict
        # factor refuses a singular g_inv.
        self.noise_factor = _strict_cholesky(self.g_inv)
        self.noise_cov = self.g_inv * self.dt


def step_sample(model: ItoProcessModel, x: np.ndarray, t: int, rng: np.random.Generator) -> np.ndarray:
    """One Euler step of the process from state x at step index t."""
    x = np.asarray(x, dtype=float)
    z = rng.standard_normal(model.dim)
    return x + model.drift(x, t) * model.dt + np.sqrt(model.dt) * (model.noise_factor @ z)


def transition_matrix(model: ItoProcessModel, x_hat: np.ndarray, t: int) -> np.ndarray:
    """Linearized one-step map F = I + (df/dx)(x_hat, t) dt."""
    jac = np.asarray(model.drift_jacobian(np.asarray(x_hat, dtype=float), t), dtype=float)
    return np.eye(model.dim) + jac * model.dt


def simulate_open_loop(model: ItoProcessModel, x0: np.ndarray, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Iterate step_sample for the given number of steps.

    Returns the (steps + 1, dim) array of states whose row i is step i,
    row 0 the initial state. Raises NonFinite as soon as a state leaves
    the finite range.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    states = np.empty((steps + 1, model.dim))
    states[0] = np.asarray(x0, dtype=float)
    for t in range(steps):
        states[t + 1] = step_sample(model, states[t], t, rng)
        if not np.all(np.isfinite(states[t + 1])):
            raise NonFinite(f"state became non-finite at step {t + 1}")
    return states


# ---------------------------------------------------------------------------
# Numbers read from scenario files: the drift parameters here, and every
# vector and matrix of a scenario through scenario._finite/_spd_matrix.

def _all_reals(raw) -> bool:
    # Every leaf a real number (a JSON int or float), not a bool or a string.
    if isinstance(raw, (list, tuple)):
        return all(map(_all_reals, raw))
    if isinstance(raw, np.ndarray):
        return raw.dtype.kind in "iuf"
    return isinstance(raw, numbers.Real) and not isinstance(raw, bool)


def _reals(raw, label: str, scalar: bool = False):
    """raw as a float array, or a float if ``scalar``.

    It takes JSON ints and floats, alone or in nested lists of equal
    length, and refuses strings, bools, None and ragged lists with a
    ValidationError.
    """
    try:
        values = np.asarray(raw, dtype=float) if _all_reals(raw) else None
    except (ValueError, OverflowError):  # ragged lists, or an int beyond float range
        values = None
    if values is None or (scalar and values.ndim):
        wanted = "a number" if scalar else "a number or lists of numbers of equal length"
        raise ValidationError(f"{label} must be {wanted}; got {raw!r}")
    return float(values) if scalar else values


def _finite(raw, label: str, scalar: bool = False):
    """_reals, with every entry finite."""
    values = _reals(raw, label, scalar)
    if not np.isfinite(values).all():
        raise ValidationError(f"{label} must be finite; got {np.asarray(values).tolist()}")
    return values


# ---------------------------------------------------------------------------
# Named drift builtins, selected by scenario files. Each is written once
# on Python floats (its float form, x a float sequence, the result a
# flat row-major sequence; the linear map's is generated per shape); the
# array callables are built from it and carry it as their ``floats``
# attribute for the step kernel.

def _from_floats(floats, shape) -> DriftFn:
    # The array callable (x, t) -> ndarray of ``shape`` over a float form.
    def fn(x, t):
        return np.array(floats(np.asarray(x, dtype=float).tolist(), t)).reshape(shape)

    fn.floats = floats
    return fn


@lru_cache(maxsize=None)
def _matvec_factory(rows: int, cols: int) -> Callable:
    # make(*a flat) -> (x, t) -> a x, straight-line, compiled on first
    # use per shape; a's entries are closure values.
    names = [[f"a{i}_{j}" for j in range(cols)] for i in range(rows)]
    xs = [f"x{j}" for j in range(cols)]
    lines = [
        f"def make({', '.join(chain.from_iterable(names))}):",
        "    def apply(x, t):",
        f"        {', '.join(xs)}, = x",
        f"        return ({', '.join(_dot_source(row, xs) for row in names)},)",
        "    return apply",
    ]
    return _compile_source(lines, f"<sqc linear map {rows}x{cols}>", {}, "make")


def _linear_map(a: np.ndarray) -> tuple[DriftFn, DriftFn]:
    """x, t -> a x and its constant Jacobian a: the linear drift and observation map."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    flat = tuple(a.ravel().tolist())
    return (
        _from_floats(_matvec_factory(*a.shape)(*flat), (a.shape[0],)),
        _from_floats(lambda x, t: flat, a.shape),
    )


def _vanderpol_forced_drift(scale: float, forcing: float, omega: float) -> tuple[DriftFn, DriftFn]:
    """Planar oscillator benchmark with parametric sinusoidal forcing.

    f1 = scale * x2
    f2 = scale * ((1 - x1^2 - x2^2) x2 - x1 + forcing * x2 * sin(omega t))
    """

    def drift(x, t):
        x1, x2 = x
        f1 = scale * x2
        f2 = scale * ((1.0 - x1 * x1 - x2 * x2) * x2 - x1 + forcing * x2 * math.sin(omega * t))
        return f1, f2

    def jacobian(x, t):
        x1, x2 = x
        return (
            0.0,
            scale,
            scale * (-2.0 * x1 * x2 - 1.0),
            scale * (-2.0 * x2 * x2 + (1.0 - x1 * x1 - x2 * x2) + forcing * math.sin(omega * t)),
        )

    return _from_floats(drift, (2,)), _from_floats(jacobian, (2, 2))


DRIFT_KINDS = ("zero", "linear", "vanderpol_forced")


def make_drift(kind: str, params: dict | None, dim: int) -> tuple[DriftFn, DriftFn]:
    """Build (drift, jacobian) for a named builtin.

    Kinds: "zero" (the linear map of a zero matrix); "linear" with params
    {"A": matrix}; "vanderpol_forced" with optional params {"scale":
    0.005, "forcing": 3.0, "omega": 0.005} (the benchmark values are the defaults).
    """
    if params is not None and not isinstance(params, dict):
        raise ValidationError(f"drift params must be a JSON object; got {params!r}")
    params = dict(params or {})
    if kind == "zero":
        if params:
            raise ValidationError(f"zero drift takes no parameters, got {sorted(params)}")
        return _linear_map(np.zeros((dim, dim)))
    if kind == "linear":
        if "A" not in params:
            raise ValidationError('linear drift requires parameter "A"')
        a = _finite(params.pop("A"), "drift matrix A")
        if params:
            raise ValidationError(f"unknown linear drift parameters {sorted(params)}")
        if a.shape != (dim, dim):
            raise ValidationError(f"drift matrix A has shape {a.shape}, expected {(dim, dim)}")
        return _linear_map(a)
    if kind == "vanderpol_forced":
        if dim != 2:
            raise ValidationError("vanderpol_forced drift is two dimensional")
        scale, forcing, omega = (
            _reals(params.pop(key, default), f"vanderpol_forced {key}", scalar=True)
            for key, default in (("scale", 0.005), ("forcing", 3.0), ("omega", 0.005))
        )
        if params:
            raise ValidationError(f"unknown vanderpol_forced parameters {sorted(params)}")
        if not all(map(math.isfinite, (scale, forcing, omega))):
            raise ValidationError(
                f"vanderpol_forced parameters must be finite; got scale={scale}, "
                f"forcing={forcing}, omega={omega}"
            )
        return _vanderpol_forced_drift(scale, forcing, omega)
    raise ValidationError(f"unknown drift kind {kind!r}; expected one of {DRIFT_KINDS}")
