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

The bundled potentials (penalty, double well, barrier) are evaluated
through float forms: straight-line functions on Python floats that the
step kernel calls without building arrays. As with the step kernel, a
template writes out their source, here per (kind, m, target kind), with
W, the target and the barrier weights as closure constants; it is
compiled on first use and cached, and nothing is compiled at import or
when a scenario is loaded. _bound is the one builder: it alone calls
_form_factory and lays out the constants, and the eval_* functions, the
scenario's potential callables, the filter's innovation quadratic and
the quadrature oracle's integrands all come from it. Like a drift's, a
potential's float form is its callable's ``floats`` attribute: (x, t)
-> (value, grad_l, H, curvature), H (k x m) and the curvature (k x k)
flat and row-major. The step loop refactors the curvature only when it
changes by value, so a float form returns an immutable tuple or a
fresh list, never a list it later rewrites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainViolation, NonFinite, ValidationError
from .linalg import _compile_source, _dot_source
from .process import _MAX_ENTRIES, _finite, _reals, _whole

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
    """All derivative information of a potential at a single point, checked at construction."""

    l: np.ndarray
    value: float
    grad_l: np.ndarray
    H: np.ndarray
    curvature: np.ndarray
    counter_curvature: np.ndarray

    def __post_init__(self):
        self.l = _reals(self.l, "potential l", 1)
        self.value = _reals(self.value, "potential value", 0)
        self.grad_l = _reals(self.grad_l, "potential grad_l", 1)
        self.H = _reals(self.H, "potential H", 2)
        self.curvature = _reals(self.curvature, "potential curvature", 2)
        self.counter_curvature = _reals(self.counter_curvature, "potential counter_curvature", 2)
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


def _entries(v, label: str, m: int) -> list:
    # v as a list of m floats; a single value stands for all m, as it
    # would under numpy broadcasting.
    v = _reals(v, label, 1).tolist()
    if len(v) == 1:
        return v * m
    if len(v) != m:
        raise ValidationError(f"{label} has {len(v)} entries where {m} are needed")
    return v


def _weights(sigma_nu_inv, k: int) -> np.ndarray:
    w = _reals(sigma_nu_inv, "sigma_nu_inv", 2)
    if w.shape != (k, k):
        raise ValidationError(f"weight matrix has shape {w.shape}, expected {(k, k)}")
    return w


class _NonPositivePoint(DomainViolation):
    # The barrier's domain error; its point is formatted only when the
    # message is read. The quadrature oracle catches and drops thousands
    # of these, and formatting one costs several evaluations.
    def __str__(self) -> str:
        return f"barrier evaluated at non-positive point {np.array(self.args[0])}"


# ---------------------------------------------------------------------------
# The generated float forms.

def _form_source(kind: str, m: int, target) -> list:
    rm = range(m)
    xs = [f"x{i}" for i in rm]

    def diagonal(entries):
        return "(" + ", ".join(entries[i] if i == j else "0.0" for i in rm for j in rm) + ",)"

    head = [f"    {', '.join(xs)}, = x"]
    h = "h"
    if kind == "log_barrier":
        constants, ls, inner = [f"a{i}" for i in rm], xs, []
        body = [f"    if {' or '.join(f'{x} <= 0.0' for x in xs)}:", "        raise _NonPositivePoint(x)"]
        value = f"-({_dot_source(constants, [f'log({x})' for x in xs])})"
        grad = [f"-a{i} / x{i}" for i in rm]
        # a / x / x, not a / (x * x): x * x underflows to 0 for x below
        # 1e-162, and a Python float division by 0 raises.
        curvature = diagonal([f"a{i} / x{i} / x{i}" for i in rm])
    else:
        w = [[f"w{i}_{j}" for j in rm] for i in rm]
        constants, ds = [v for row in w for v in row], [f"d{i}" for i in rm]
        if target == "constant":
            constants += ds
        elif target == "tanh_ramp":
            constants += ["amp", "rate", "center"]
            ds, head = ["d"] * m, head + ["    d = amp * (1.0 + tanh(rate * (t - center)))"]
        else:  # "given": the second argument is the target vector
            head = head + [f"    {', '.join(ds)}, = t"]
        ls, grad = [f"l{i}" for i in rm], [f"g{i}" for i in rm]
        if kind == "quadratic_penalty":
            inner = [f"    l{i} = x{i} - {ds[i]}" for i in rm]
        else:
            inner = [f"    l{i} = x{i} * x{i} - {ds[i]} * {ds[i]}" for i in rm]
            h = diagonal([f"-2.0 * x{i}" for i in rm])
        body = [f"    g{i} = {_dot_source(w[i], ls)}" for i in rm]
        value = f"0.5 * ({_dot_source(ls, grad)})"
        curvature = "curvature"
    lines = [f"def make({', '.join(constants)}):"]
    if h == "h":
        lines.append(f"    h = {diagonal(['-1.0'] * m)}")
    if curvature == "curvature":
        lines.append(f"    curvature = ({', '.join(constants[: m * m])},)")
    for name, tail in (
        ("inner", [f"    return ({', '.join(ls)},)"]),
        ("evaluate", body + [f"    return {value}, ({', '.join(grad)},), {h}, {curvature}"]),
    ):
        lines.append(f"    def {name}(x, t):")
        lines += ["    " + line for line in head + inner + tail]
    lines.append("    return evaluate, inner")
    return lines


@lru_cache(maxsize=None)
def _form_factory(kind: str, m: int, target) -> Callable:
    """The float form of a bundled potential, compiled on first use per (kind, m, target).

    kind is "quadratic_penalty", "double_well" or "log_barrier"; target
    is "constant", "tanh_ramp" or "given" for the first two and None for
    the barrier. The result is a factory make(*constants) -> (evaluate,
    inner), with the constants in the order _bound documents.
    evaluate(x, t) -> (value, grad_l, H, curvature) is the float form, H
    and the curvature flat row-major tuples; inner(x, t) -> l. Every dot
    product sums left to right from 0.0 (linalg._dot_source). _bound is
    its one caller.
    """
    namespace = {"tanh": math.tanh, "log": math.log, "_NonPositivePoint": _NonPositivePoint}
    label = f"<sqc potential {kind}, m={m}, target {target}>"
    return _compile_source(_form_source(kind, m, target), label, namespace, "make")


def _bound(kind: str, weights, target: tuple = ("given",)) -> Callable:
    """Closure (x, t) -> PotentialEvaluation of a bundled potential, its float form as ``.floats``.

    The one door into the generated forms. ``weights`` is W, an (m, m)
    array, for "quadratic_penalty" and "double_well", or the barrier's
    a, an (m,) array, for "log_barrier", which ignores ``target``. The
    target is ("given",), where the second argument t of the closure and
    of its float form is the target vector itself, not the step;
    ("constant", d) with d's m entries; or ("tanh_ramp", amplitude,
    rate, center), the level amplitude * (1 + tanh(rate * (t - center)))
    at step t. The form's constants are the barrier's a, or W's entries
    row by row followed by the target's numbers in that order. The float
    form records its state dimension m as its ``dim``, which engine._run
    compares with the model's before any step; the closure itself
    refuses a state of another length with ValidationError, so a
    callable that wraps it fails the same way. The float form does not
    check.
    """
    m = len(weights)
    if not m:  # no form is written for m = 0
        raise ValidationError("a potential needs a state with entries")
    constants = np.concatenate([np.ravel(weights), np.ravel(target[1:])]).astype(float).tolist()
    evaluate, inner = _form_factory(kind, m, None if kind == "log_barrier" else target[0])(*constants)
    evaluate.dim = m

    def fn(x, t):
        x = _reals(x, "the state", 1).tolist()
        if len(x) != m:
            raise ValidationError(f"the potential is built for dim {m}; the state has dim {len(x)}")
        value, grad, h, curvature = evaluate(x, t)
        grad = np.array(grad)
        counter = np.diag(2.0 * grad) if kind == "double_well" else np.zeros((m, m))
        return PotentialEvaluation._trusted(
            np.array(inner(x, t)), value, grad, np.array(h).reshape(m, m), np.array(curvature).reshape(m, m), counter
        )

    fn.floats = evaluate
    return fn


def eval_quadratic_penalty(x_hat: np.ndarray, d: np.ndarray, sigma_nu_inv: np.ndarray) -> PotentialEvaluation:
    """Quadratic penalty V = l^T sigma_nu_inv l / 2 with l = x - d."""
    x = _reals(x_hat, "x_hat", 1)
    return _bound("quadratic_penalty", _weights(sigma_nu_inv, len(x)))(x, _entries(d, "d", len(x)))


def eval_log_barrier(x_hat: np.ndarray, a: np.ndarray) -> PotentialEvaluation:
    """Log barrier V = -a^T ln(x), admissible only for x > 0 componentwise.

    The curvature diag(a_i / x_i^2) makes the implied weight matrix
    diag(x_i^2 / a_i), so the barrier stiffens as the boundary nears.
    """
    x = _reals(x_hat, "x_hat", 1)
    a = _entries(a, "a", len(x))
    if any(ai <= 0.0 for ai in a):
        raise DomainViolation("barrier weights a must be positive")
    return _bound("log_barrier", a)(x, 0)


def eval_double_well(x_hat: np.ndarray, d: np.ndarray, sigma_nu_inv: np.ndarray) -> PotentialEvaluation:
    """Componentwise double well: l_i = x_i^2 - d_i^2, V = l^T sigma_nu_inv l / 2.

    V vanishes exactly at x = +-d componentwise. The inner map is
    quadratic, so the counter_curvature is nonzero away from the wells:
    d^2 l^i / dx_i^2 = 2 gives diagonal entries 2 (sigma_nu_inv l)_i.
    """
    x = _reals(x_hat, "x_hat", 1)
    return _bound("double_well", _weights(sigma_nu_inv, len(x)))(x, _entries(d, "d", len(x)))


def tanh_target(t: float, dim: int = 2, amplitude: float = 0.2, rate: float = 0.01, center: float = 2500.0) -> np.ndarray:
    """Smooth target schedule amplitude * (1 + tanh(rate * (t - center))).

    Every component is equal; the defaults ramp each component from 0
    to 2 * amplitude = 0.4 around step 2500. The "tanh_ramp" target of
    the generated float forms computes the same level. t and the three
    parameters are read through process._finite, as the scenario reads
    the ramp's parameters, and dim through process._whole; anything
    else raises ValidationError.
    """
    dim = _whole(dim, "dim", 1, "a whole number >= 1 that one array holds", _MAX_ENTRIES)
    t, amplitude, rate, center = (
        _finite(v, label, 0) for v, label in ((t, "t"), (amplitude, "amplitude"), (rate, "rate"), (center, "center"))
    )
    return np.full(dim, amplitude * (1.0 + math.tanh(rate * (t - center))))


def verify_derivatives(potential, x_hat: np.ndarray) -> dict:
    """Check a potential's reported derivatives against finite differences.

    ``potential`` is a callable x -> PotentialEvaluation. Three checks
    run at x_hat, each a central difference with step 1e-6 max(1, |x_i|)
    (3e-4 max(1, |x_i|) for the second differences):

      jacobian   dl/dx versus -H
      gradient   dV/dx versus -H^T grad_l
      hessian    d^2V/dx^2 versus H^T curvature H + counter_curvature

    Returns a dict of relative errors plus their maximum under "max".
    A potential that is not callable or returns anything but a
    PotentialEvaluation raises ValidationError.
    """
    x_hat = _reals(x_hat, "x_hat", 1)
    if not callable(potential):
        raise ValidationError(f"the potential must be a callable x -> PotentialEvaluation; got {potential!r}")

    def evaluate(x):
        pot = potential(x)
        if not isinstance(pot, PotentialEvaluation):
            raise ValidationError(f"the potential returned {type(pot).__name__}, not a PotentialEvaluation")
        return pot

    here = evaluate(x_hat)
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
        plus, minus = evaluate(x_hat + e), evaluate(x_hat - e)
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
                val = (evaluate(x_hat + ei).value - 2 * here.value + evaluate(x_hat - ei).value) / hi**2
            else:
                val = (
                    evaluate(x_hat + ei + ej).value
                    - evaluate(x_hat + ei - ej).value
                    - evaluate(x_hat - ei + ej).value
                    + evaluate(x_hat - ei - ej).value
                ) / (4 * hi * hj)
            hess_fd[i, j] = hess_fd[j, i] = val
    hess_model = here.H.T @ here.curvature @ here.H + here.counter_curvature
    hess_err = rel(np.abs(hess_model - hess_fd).max(), np.abs(hess_fd).max())

    report = {"jacobian": jac_err, "gradient": grad_err, "hessian": hess_err}
    report["max"] = max(report.values())
    return report
