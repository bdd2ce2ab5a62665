"""Potential functions and their one-call evaluation contract.

A potential enters the update through an inner map l(x) and an outer
function V(l). One evaluation at one point returns everything the
update needs, so the caller cannot accidentally mix evaluation points:

    l                 inner map value, k-vector
    value             V at l
    grad_l            dV/dl, k-vector
    H                 k x m matrix, H = -(dl/dx)
    curvature         d^2V/dl^2, the k x k inverse weight matrix
    counter_curvature m x m matrix with entries
                      sum_m (d^2 l^m / dx_mu dx_nu) (dV/dl^m)

The counter term exactly cancels the counter_curvature contribution in
the second-order expansion, so the update omits it; it is carried only
as a diagnostic.

The bundled potentials are also written on Python floats (their float
forms), which the step kernel evaluates without building arrays; the
eval_* functions build their arrays from the same float functions.
Like a drift's, a potential's float form is its callable's ``floats``
attribute: (x, t) -> (value, grad_l, H, curvature), H (k x m) and the
curvature (k x k) flat and row-major. The step loop refactors the
curvature only when it changes by value, so a float form returns an
immutable tuple or a fresh list, never a list it later rewrites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import sub
from typing import Callable

import numpy as np

from .errors import DomainViolation, NonFinite
from .linalg import _dot

__all__ = [
    "PotentialEvaluation",
    "eval_quadratic_penalty",
    "eval_log_barrier",
    "eval_double_well",
    "tanh_target",
    "verify_derivatives",
]


@dataclass
class PotentialEvaluation:
    """All derivative information of a potential at a single point."""

    l: np.ndarray
    value: float
    grad_l: np.ndarray
    H: np.ndarray
    curvature: np.ndarray
    counter_curvature: np.ndarray

    def __post_init__(self):
        self.l = np.atleast_1d(np.asarray(self.l, dtype=float))
        self.grad_l = np.atleast_1d(np.asarray(self.grad_l, dtype=float))
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.curvature = np.atleast_2d(np.asarray(self.curvature, dtype=float))
        self.counter_curvature = np.atleast_2d(np.asarray(self.counter_curvature, dtype=float))
        pieces = (self.l, self.value, self.grad_l, self.H, self.curvature, self.counter_curvature)
        if not all(np.all(np.isfinite(p)) for p in pieces):
            raise NonFinite("potential evaluation produced non-finite entries")

    @classmethod
    def _trusted(cls, l, value, grad_l, h, curvature, counter_curvature) -> "PotentialEvaluation":
        # Construction bypass for the builtin evaluators, whose outputs
        # are well-shaped by construction; the value is still guarded.
        if not math.isfinite(value):
            raise NonFinite("potential evaluation produced non-finite entries")
        self = object.__new__(cls)
        self.l = l
        self.value = value
        self.grad_l = grad_l
        self.H = h
        self.curvature = curvature
        self.counter_curvature = counter_curvature
        return self


@lru_cache(maxsize=None)
def _neg_eye(m: int) -> np.ndarray:
    out = -np.eye(m)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _zero_matrix(m: int) -> np.ndarray:
    out = np.zeros((m, m))
    out.setflags(write=False)
    return out


def _vector(x) -> np.ndarray:
    # np.atleast_1d(np.asarray(x, dtype=float)) minus the call overhead.
    x = np.asarray(x, dtype=float)
    return x if x.ndim else x.reshape(1)


def _entries(v, m: int) -> list:
    # v as a list of m floats; a single value stands for all m, as it
    # would under numpy broadcasting.
    v = _vector(v).tolist()
    if len(v) == 1:
        return v * m
    if len(v) != m:
        raise ValueError(f"got {len(v)} entries where {m} are needed")
    return v


def _weights(sigma_nu_inv, k: int) -> np.ndarray:
    w = np.atleast_2d(np.asarray(sigma_nu_inv, dtype=float))
    if w.shape != (k, k):
        raise ValueError(f"weight matrix has shape {w.shape}, expected {(k, k)}")
    return w


def _diag(v) -> list:
    # Flat row-major diagonal matrix with the floats v on its diagonal.
    n = len(v)
    out = [0.0] * (n * n)
    out[:: n + 1] = v
    return out


# Float forms: each formula is written once, on sequences of Python
# floats. The eval_* functions build their arrays from these, and the
# scenario's potential callables carry them for the step kernel.

def _quadratic(l, w) -> tuple[float, list]:
    """V = l^T w l / 2 and dV/dl = w l, for a float vector l and rows w."""
    grad = [_dot(row, l) for row in w]
    return 0.5 * _dot(l, grad), grad


def _penalty_floats(x, d, w) -> tuple[list, float, list, list]:
    l = list(map(sub, x, d))
    value, grad = _quadratic(l, w)
    return l, value, grad, _diag([-1.0] * len(l))


def _double_well_floats(x, d, w) -> tuple[list, float, list, list]:
    l = [xi * xi - di * di for xi, di in zip(x, d)]
    value, grad = _quadratic(l, w)
    return l, value, grad, _diag([-2.0 * xi for xi in x])


def _barrier_floats(x, a) -> tuple[float, list, list]:
    if any(xi <= 0.0 for xi in x):
        raise DomainViolation(f"barrier evaluated at non-positive point {np.array(x)}")
    value = -_dot(a, [math.log(xi) for xi in x])
    grad = [-ai / xi for ai, xi in zip(a, x)]
    # a / x / x, not a / (x * x): x * x underflows to 0 for x below
    # 1e-162, and a Python float division by 0 raises.
    return value, grad, _diag([ai / xi / xi for ai, xi in zip(a, x)])


def _tanh_level(t: float, amplitude: float, rate: float, center: float) -> float:
    return amplitude * (1.0 + math.tanh(rate * (t - center)))


def eval_quadratic_penalty(x_hat: np.ndarray, d: np.ndarray, sigma_nu_inv: np.ndarray) -> PotentialEvaluation:
    """Quadratic penalty V = l^T sigma_nu_inv l / 2 with l = x - d."""
    x_hat = _vector(x_hat)
    m = len(x_hat)
    w = _weights(sigma_nu_inv, m)
    l, value, grad, _ = _penalty_floats(x_hat.tolist(), _entries(d, m), w.tolist())
    return PotentialEvaluation._trusted(
        np.array(l), value, np.array(grad), _neg_eye(m), w, _zero_matrix(m)
    )


def eval_log_barrier(x_hat: np.ndarray, a: np.ndarray) -> PotentialEvaluation:
    """Log barrier V = -a^T ln(x), admissible only for x > 0 componentwise.

    The curvature diag(a_i / x_i^2) makes the implied weight matrix
    diag(x_i^2 / a_i), so the barrier stiffens as the boundary nears.
    """
    x_hat = _vector(x_hat)
    m = len(x_hat)
    a = _entries(a, m)
    if any(ai <= 0.0 for ai in a):
        raise DomainViolation("barrier weights a must be positive")
    value, grad, curvature = _barrier_floats(x_hat.tolist(), a)
    return PotentialEvaluation._trusted(
        x_hat.copy(), value, np.array(grad), _neg_eye(m), np.reshape(curvature, (m, m)), _zero_matrix(m)
    )


def eval_double_well(x_hat: np.ndarray, d: np.ndarray, sigma_nu_inv: np.ndarray) -> PotentialEvaluation:
    """Componentwise double well: l_i = x_i^2 - d_i^2, V = l^T sigma_nu_inv l / 2.

    V vanishes exactly at x = +-d componentwise. The inner map is
    quadratic, so the counter_curvature is nonzero away from the wells:
    d^2 l^i / dx_i^2 = 2 gives diagonal entries 2 (sigma_nu_inv l)_i.
    """
    x_hat = _vector(x_hat)
    m = len(x_hat)
    w = _weights(sigma_nu_inv, m)
    l, value, grad, h = _double_well_floats(x_hat.tolist(), _entries(d, m), w.tolist())
    return PotentialEvaluation._trusted(
        np.array(l),
        value,
        np.array(grad),
        np.reshape(h, (m, m)),
        w,
        np.reshape(_diag([2.0 * g for g in grad]), (m, m)),
    )


def _quadratic_floats(inner: Callable, target: Callable, w) -> Callable:
    """Float form of a quadratic penalty or double well with a target schedule.

    ``inner`` is _penalty_floats or _double_well_floats, ``target`` maps
    a step to the target as a float sequence and ``w`` is the constant
    weight matrix, the curvature (its rows as float sequences).
    """
    w = [list(row) for row in w]
    curvature = tuple(v for row in w for v in row)

    def evaluate(x, t):
        _, value, grad, h = inner(x, target(t), w)
        return value, grad, h, curvature

    return evaluate


def _log_barrier_floats(a) -> Callable:
    """Float form of x, t -> eval_log_barrier(x, a); its curvature moves with x."""
    a = list(a)
    h = _diag([-1.0] * len(a))

    def evaluate(x, t):
        value, grad, curvature = _barrier_floats(x, a)
        return value, grad, h, curvature

    return evaluate


def tanh_target(t: float, dim: int = 2, amplitude: float = 0.2, rate: float = 0.01, center: float = 2500.0) -> np.ndarray:
    """Smooth target schedule amplitude * (1 + tanh(rate * (t - center))).

    Every component is equal; the defaults ramp each component from 0
    to 2 * amplitude = 0.4 around step 2500.
    """
    return np.full(dim, _tanh_level(t, amplitude, rate, center))


def verify_derivatives(potential, x_hat: np.ndarray) -> dict:
    """Check a potential's reported derivatives against finite differences.

    ``potential`` is a callable x -> PotentialEvaluation. Three checks
    run at x_hat, each a central difference with step 1e-6 max(1, |x_i|)
    (3e-4 max(1, |x_i|) for the second differences):

      jacobian   dl/dx versus -H
      gradient   dV/dx versus -H^T grad_l
      hessian    d^2V/dx^2 versus H^T curvature H + counter_curvature

    Returns a dict of relative errors plus their maximum under "max".
    """
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=float))
    here = potential(x_hat)
    m = len(x_hat)
    k = len(here.l)

    def rel(err, ref):
        return float(err / max(1.0, ref))

    jac_fd = np.empty((k, m))
    grad_fd = np.empty(m)
    for i in range(m):
        h = 1e-6 * max(1.0, abs(x_hat[i]))
        e = np.zeros(m)
        e[i] = h
        plus, minus = potential(x_hat + e), potential(x_hat - e)
        jac_fd[:, i] = (plus.l - minus.l) / (2 * h)
        grad_fd[i] = (plus.value - minus.value) / (2 * h)

    jac_err = rel(np.abs(-here.H - jac_fd).max(), np.abs(jac_fd).max())
    grad_err = rel(np.abs(-here.H.T @ here.grad_l - grad_fd).max(), np.abs(grad_fd).max())

    # Second differences need a larger step to stay above roundoff.
    h2 = 3e-4
    hess_fd = np.empty((m, m))
    for i in range(m):
        hi = h2 * max(1.0, abs(x_hat[i]))
        ei = np.zeros(m)
        ei[i] = hi
        for j in range(i, m):
            hj = h2 * max(1.0, abs(x_hat[j]))
            ej = np.zeros(m)
            ej[j] = hj
            if i == j:
                val = (potential(x_hat + ei).value - 2 * here.value + potential(x_hat - ei).value) / hi**2
            else:
                val = (
                    potential(x_hat + ei + ej).value
                    - potential(x_hat + ei - ej).value
                    - potential(x_hat - ei + ej).value
                    + potential(x_hat - ei - ej).value
                ) / (4 * hi * hj)
            hess_fd[i, j] = hess_fd[j, i] = val
    hess_model = here.H.T @ here.curvature @ here.H + here.counter_curvature
    hess_err = rel(np.abs(hess_model - hess_fd).max(), np.abs(hess_fd).max())

    report = {"jacobian": jac_err, "gradient": grad_err, "hessian": hess_err}
    report["max"] = max(report.values())
    return report
