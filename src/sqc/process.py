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
    """Drift, drift Jacobian, inverse noise metric and step size, each checked at construction."""

    dim: int
    drift: DriftFn
    drift_jacobian: DriftFn
    g_inv: np.ndarray
    dt: float = 1.0
    noise_factor: np.ndarray = field(init=False, repr=False)
    noise_cov: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.dim = _whole(self.dim, "dim", 1, "a whole number >= 1")
        if not (callable(self.drift) and callable(self.drift_jacobian)):
            raise ValidationError("the drift and its Jacobian must be callables (x, t) -> array")
        self.g_inv, self.dt = _reals(self.g_inv, "g_inv", 2), _dt(self.dt)
        if self.g_inv.shape != (self.dim, self.dim):
            raise ValidationError(f"g_inv shape {self.g_inv.shape} does not match dim {self.dim}")
        self.g_inv = symmetrize(self.g_inv)
        # g_inv and dt are time independent, so the noise factor and the
        # per-step noise covariance g_inv dt are computed once; the strict
        # factor refuses a singular g_inv.
        self.noise_factor = _strict_cholesky(self.g_inv)
        self.noise_cov = self.g_inv * self.dt


def _state(model: ItoProcessModel, x, label: str) -> np.ndarray:
    x = _reals(x, label, 1)
    if len(x) != model.dim:
        raise ValidationError(f"{label} has {len(x)} entries; the model has dim {model.dim}")
    return x


def step_sample(model: ItoProcessModel, x: np.ndarray, t: int, rng: np.random.Generator) -> np.ndarray:
    """One Euler step of the process from state x at step index t; rng, x, t and the drift's result are checked."""
    rng, t = _generator(rng), _whole(t, "step t", *_STEP)
    return _euler(model, _state(model, x, "state x"), t, rng)


def _euler(model: ItoProcessModel, x: np.ndarray, t: int, rng: np.random.Generator) -> np.ndarray:
    # step_sample's step from a checked state x, step t and generator.
    m, z = model.dim, rng.standard_normal(model.dim)
    return x + _sized(model.drift(x, t), "drift", m).reshape(m) * model.dt + np.sqrt(model.dt) * (model.noise_factor @ z)


def _sized(out, role: str, size: int) -> np.ndarray:
    """A drift's, Jacobian's or observation map's result through _reals, at
    most 2-D; ValidationError naming ``role`` unless it has ``size`` entries."""
    out = _reals(out, f"the {role}'s result", 2)
    if out.size != size:
        raise ValidationError(f"the {role} returned {out.size} entries where {size} are needed")
    return out


def transition_matrix(model: ItoProcessModel, x_hat: np.ndarray, t: int) -> np.ndarray:
    """Linearized one-step map F = I + (df/dx)(x_hat, t) dt.

    An x_hat or a Jacobian result of the wrong size raises ValidationError.
    """
    m = model.dim
    jac = _sized(model.drift_jacobian(_state(model, x_hat, "x_hat"), t), "drift Jacobian", m * m)
    return np.eye(m) + jac.reshape(m, m) * model.dt


def simulate_open_loop(model: ItoProcessModel, x0: np.ndarray, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Take step_sample's step the given number of times.

    Returns the (steps + 1, dim) array of states whose row i is step i,
    row 0 the initial state. Raises NonFinite as soon as a state leaves
    the finite range, and ValidationError for a malformed rng, x0 or
    steps, or for more steps than one array of states holds.
    """
    rng, most = _generator(rng), _MAX_ENTRIES // model.dim - 1
    steps = _whole(steps, "steps", 1, "a whole number >= 1 that one array of states holds", most)
    states = np.empty((steps + 1, model.dim))
    states[0] = _state(model, x0, "x0")
    for t in range(steps):
        states[t + 1] = _euler(model, states[t], t, rng)
        if not np.all(np.isfinite(states[t + 1])):
            raise NonFinite(f"state became non-finite at step {t + 1}")
    return states


# ---------------------------------------------------------------------------
# The readers of numbers from outside: scenario files, public entries and
# user callables. The hot path (float forms, _trusted, the loop) skips them.

def _all_reals(raw) -> bool:
    # Every leaf a real number (a JSON int or float), not a bool or a string.
    if isinstance(raw, (list, tuple)):
        return all(map(_all_reals, raw))
    if isinstance(raw, np.ndarray):
        return raw.dtype.kind in "iuf"
    return type(raw) is float or isinstance(raw, numbers.Real) and not isinstance(raw, bool)


_SHAPES = ("a number", "a flat list of numbers", "a matrix, a list of rows of numbers")


def _reals(raw, label: str, ndim: int):
    """raw as a float for ndim 0, else as np.atleast_{ndim}d of a float array.

    It takes ints and floats, alone, in nested lists of equal length or in
    numpy arrays, of at most ``ndim`` dimensions. Anything else (strings,
    bools, None, object arrays, ragged lists, ints beyond float range, more
    dimensions) raises a ValidationError naming ``label``.
    """
    try:
        values = np.asarray(raw, dtype=float) if _all_reals(raw) else None
    except (ValueError, OverflowError):  # ragged lists, or an int beyond float range
        values = None
    if values is None:
        wanted = "a number or lists of numbers of equal length" if ndim else "a number"
        raise ValidationError(f"{label} must be {wanted}; got {raw!r}")
    if values.ndim > ndim:
        raise ValidationError(f"{label} must be {_SHAPES[ndim]}; got {values.tolist()}")
    return values[(None,) * (ndim - values.ndim)] if ndim else float(values)  # leading axes, as np.atleast_{ndim}d


def _finite(raw, label: str, ndim: int):
    """_reals, with every entry finite."""
    values = _reals(raw, label, ndim)
    if not np.isfinite(values).all():
        raise ValidationError(f"{label} must be finite; got {np.asarray(values).tolist()}")
    return values


def _dt(raw) -> float:
    """dt as a float; anything but a positive finite number raises ValidationError."""
    try:
        dt = _reals(raw, "dt", 0)
    except ValidationError:
        dt = math.nan
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be positive, finite and a number; got {raw!r}")
    return dt


def _whole(raw, label: str, minimum: int, wanted: str, maximum=math.inf) -> int:
    """raw as an int, from an int or a whole float such as 3.0 (not a bool) within [minimum, maximum]."""
    whole = type(raw) is int or isinstance(raw, numbers.Integral) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not whole or not minimum <= raw <= maximum:
        raise ValidationError(f"{label} must be {wanted}; got {raw!r}")
    return int(raw)


# The most float64 entries one array can hold.
_MAX_ENTRIES = np.iinfo(np.intp).max // 8

# _whole's arguments for a step, which numpy's default integer, a C long, numbers.
_LAST_STEP = int(np.iinfo(int).max)
_STEP = (-_LAST_STEP - 1, "a whole number a C long holds", _LAST_STEP)


def _generator(rng) -> np.random.Generator:
    """rng, a numpy Generator or a wrapper with its standard_normal method; else ValidationError."""
    if not callable(getattr(rng, "standard_normal", None)):
        raise ValidationError(f"the random generator must be a numpy Generator; got {rng!r}")
    return rng


def _steps(raw, label: str) -> np.ndarray:
    """Step numbers as an int array; each entry as given through _whole, so an int stays exact."""
    _reals(raw, label, 1)
    if not (isinstance(raw, np.ndarray) and raw.dtype.kind == "i"):
        raw = [_whole(s, label, *_STEP) for s in np.atleast_1d(np.asarray(raw, dtype=object)).tolist()]
    return np.asarray(raw, dtype=int)


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
        a = _finite(params.pop("A"), "drift matrix A", 2)
        if params:
            raise ValidationError(f"unknown linear drift parameters {sorted(params)}")
        if a.shape != (dim, dim):
            raise ValidationError(f"drift matrix A has shape {a.shape}, expected {(dim, dim)}")
        return _linear_map(a)
    if kind == "vanderpol_forced":
        if dim != 2:
            raise ValidationError("vanderpol_forced drift is two dimensional")
        scale, forcing, omega = (
            _reals(params.pop(key, default), f"vanderpol_forced {key}", 0)
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
