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

The step kernel. For each state dimension m and constraint dimension k
one template writes out the source of four functions, every matrix
entry a Python float and every operation spelled out, with no loops
and no numpy calls: predict, factor (the curvature's Cholesky factor,
its inverse sigma_nu and log|curvature|/2), update (S, its Cholesky
factor, the gain by substitution, the shift, the posterior moments,
script_n and log_n) and sample (mean + chol(cov) z). Each function's
source is compiled on first use for the dimensions it depends on and
cached, as collections.namedtuple does; nothing is compiled at import
or when a scenario is loaded. At m = 2 a whole closed-loop step (drift,
potential, kernel and row) costs about 5-7 us on a 2-vCPU Xeon VM
(5001-step runs of the bundled penalty and double well, median of 21
each). The bundled potentials' float forms are generated the same way
(see potential).

A Cholesky pivot that is not > 0 hands the whole matrix to
linalg.spd_cholesky, whose jittered retry keeps a run alive through
transient conditioning trouble (and still raises NotPositiveDefinite
for an indefinite matrix); a run counts those retries. Logarithms are
math.log on each entry.

The kernel is the only update and _run the only step loop: the closed
loop and the observation filter each hand _run their initial belief,
step count and generator (or None); _run alone checks the belief's tag
and dimension, and only then draws the run's noise. update() calls the
kernel's update once for the posterior and its normalization, after
checking dt and that H and the curvature fit the belief. _compiled
hands out each stage and documents its arguments.
Drifts and potentials enter as float forms: the bundled ones carry
theirs as the ``floats`` attribute of their callables, the filter
builds its own, and _floats adapts any other callable (including one
that wraps a bundled one): it calls it with an array and reads a
PotentialEvaluation as (V, grad_l, H, curvature) and any other
result as a flat list of floats. _run factors a curvature only when
it differs by value from the one it factored last, so a constant one
is factored once per run on every path. Its rows are flat float
columns that never leave it, so no per-step tuple outlives a step for
the garbage collector to track; it returns them as arrays through
_columns. _run also owns the breakdown policy: a DomainViolation,
NonFinite or NotPositiveDefinite ends the run, and it returns the
completed rows, the retry count and that failure for the caller to
report or raise. predict() and sample_posterior() stay in numpy as the
independent references for the kernel's predict and sample stages,
and oracle.precision_form, the update and normalization through the
precision matrix, is the reference for its update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation, NonFinite, NotPositiveDefinite, ValidationError
from .linalg import _compile_source, _jittered_cholesky, spd_cholesky, symmetrize
from .potential import PotentialEvaluation
from .process import ItoProcessModel, transition_matrix

__all__ = [
    "GaussianBelief",
    "NormalizationDiagnostic",
    "predict",
    "update",
    "sample_posterior",
]


@dataclass
class GaussianBelief:
    """Mean and covariance at an integer step, tagged by recursion phase."""

    mean: np.ndarray
    cov: np.ndarray
    step: int = 0
    tag: str = "predicted"

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if self.mean.ndim != 1 or self.cov.shape != (self.dim, self.dim):
            raise ValidationError(f"belief mean has shape {self.mean.shape} and covariance {self.cov.shape}")
        self.cov = symmetrize(self.cov)
        if self.tag not in ("predicted", "updated"):
            raise ValueError(f"unknown belief tag {self.tag!r}")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov))):
            raise NonFinite(f"belief at step {self.step} has non-finite entries")

    @property
    def dim(self) -> int:
        return len(self.mean)

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray, step: int, tag: str) -> "GaussianBelief":
        # Construction bypass for moments the kernel produced and
        # already checked.
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


# ---------------------------------------------------------------------------
# The generated step kernel.

def _sum(terms: list) -> str:
    return " + ".join(terms)


def _minus(first: str, terms: list) -> str:
    return first + "".join(f" - {t}" for t in terms)


def _unpack(names: list, value: str) -> str:
    return f"    {', '.join(names)}, = {value}"


def _finite_check(names: list, message: str) -> list:
    test = " and ".join(f"isfinite({n})" for n in names)
    return [f"    if not ({test}):", f"        raise NonFinite({message})"]


def _cholesky_lines(n: int, a: Callable, low: Callable) -> list:
    # Lower Cholesky factor of the symmetric n x n matrix whose lower
    # entries are named a(i, j), into the names low(i, j). Each column
    # nests inside the test of its pivot; if a pivot is not > 0 the
    # whole factor comes from _cholesky instead.
    lines = [f"    pivot = {a(0, 0)}"]
    pad = "    "
    for j in range(n):
        lines.append(f"{pad}if pivot > 0.0:")
        pad += "    "
        lines.append(f"{pad}{low(j, j)} = sqrt(pivot)")
        for i in range(j + 1, n):
            dots = [f"{low(i, p)} * {low(j, p)}" for p in range(j)]
            lines.append(f"{pad}{low(i, j)} = ({_minus(a(i, j), dots)}) / {low(j, j)}")
        if j + 1 < n:
            dots = [f"{low(j + 1, p)} * {low(j + 1, p)}" for p in range(j + 1)]
            lines.append(f"{pad}pivot = {_minus(a(j + 1, j + 1), dots)}")
    names = [low(i, j) for i in range(n) for j in range(i + 1)]
    rows = ", ".join("(" + ", ".join(a(i, j) for j in range(i + 1)) + ",)" for i in range(n))
    lines.append("    if not pivot > 0.0:")
    lines.append(f"        {', '.join(names)}, = _cholesky(({rows},), retries)")
    return lines


def _half_logdet(n: int, low: Callable) -> str:
    return _sum([f"log({low(i, i)})" for i in range(n)])


def _predict_source(m: int) -> list:
    rm = range(m)
    lines = [
        "def predict(x, p, f, jac, q, dt, t):",
        _unpack([f"x{i}" for i in rm], "x"),
        _unpack([f"p{i}_{j}" for i in rm for j in rm], "p"),
        _unpack([f"f{i}" for i in rm], "f"),
        _unpack([f"j{i}_{j}" for i in rm for j in rm], "jac"),
        _unpack([f"q{i}_{j}" for i in rm for j in rm], "q"),
        "    # F = I + jac dt",
    ]
    lines += [
        f"    a{i}_{j} = " + (f"1.0 + j{i}_{j} * dt" if i == j else f"j{i}_{j} * dt")
        for i in rm for j in rm
    ]
    lines.append("    # B = F P, then C = B F^T + q, symmetrized")
    lines += [f"    b{i}_{j} = {_sum([f'a{i}_{l} * p{l}_{j}' for l in rm])}" for i in rm for j in rm]
    lines += [
        f"    c{i}_{j} = ({_sum([f'b{i}_{l} * a{j}_{l}' for l in rm])}) + q{i}_{j}"
        for i in rm for j in rm
    ]
    lines += [f"    c{i}_{j} = 0.5 * (c{i}_{j} + c{j}_{i})" for i in rm for j in range(i)]
    lines += [f"    m{i} = x{i} + f{i} * dt" for i in rm]
    lower = [f"c{i}_{j}" for i in rm for j in range(i + 1)]
    lines += _finite_check(
        [f"m{i}" for i in rm] + lower, 'f"prediction to step {t + 1} has non-finite entries"'
    )
    cov = ", ".join(f"c{max(i, j)}_{min(i, j)}" for i in rm for j in rm)
    lines.append(f"    return ({', '.join(f'm{i}' for i in rm)},), ({cov},)")
    return lines


def _factor_source(k: int) -> list:
    rk = range(k)
    lines = [
        "def factor(c, retries):",
        _unpack([f"c{i}_{j}" for i in rk for j in rk], "c"),
    ]
    lines += _cholesky_lines(k, lambda i, j: f"c{i}_{j}", lambda i, j: f"l{i}_{j}")
    lines.append("    # sigma_nu = c^-1: L L^T V = I, one identity column at a time")
    for col in rk:
        for i in range(col, k):
            if i == col:
                lines.append(f"    w{i}_{col} = 1.0 / l{i}_{i}")
            else:
                terms = [f"l{i}_{p} * w{p}_{col}" for p in range(col, i)]
                lines.append(f"    w{i}_{col} = (-{_minus(terms[0], terms[1:])}) / l{i}_{i}")
        for i in reversed(rk):
            terms = [f"l{p}_{i} * v{p}_{col}" for p in range(i + 1, k)]
            if i >= col:
                lines.append(f"    v{i}_{col} = ({_minus(f'w{i}_{col}', terms)}) / l{i}_{i}")
            else:
                lines.append(f"    v{i}_{col} = (-{_minus(terms[0], terms[1:])}) / l{i}_{i}")
    inverse = ", ".join(f"v{i}_{j}" for i in rk for j in rk)
    lines.append(f"    return ({inverse},), {_half_logdet(k, lambda i, j: f'l{i}_{j}')}")
    return lines


def _update_source(m: int, k: int) -> list:
    rm, rk = range(m), range(k)
    lines = [
        "def update(mean, p, value, grad, h, sig, hld, ldt, dt, t, retries):",
        "    if not isfinite(value):",
        '        raise NonFinite("potential evaluation produced non-finite entries")',
        _unpack([f"m{i}" for i in rm], "mean"),
        _unpack([f"p{i}_{j}" for i in rm for j in rm], "p"),
        _unpack([f"g{i}" for i in rk], "grad"),
        _unpack([f"h{i}_{j}" for i in rk for j in rm], "h"),
        _unpack([f"n{i}_{j}" for i in rk for j in rk], "sig"),
        "    # A = H P, then the lower triangle of S = sigma_nu / dt + A H^T",
    ]
    lines += [f"    a{i}_{j} = {_sum([f'h{i}_{l} * p{l}_{j}' for l in rm])}" for i in rk for j in rm]
    lines += [
        f"    s{i}_{j} = n{i}_{j} / dt + ({_sum([f'a{i}_{l} * h{j}_{l}' for l in rm])})"
        for i in rk for j in range(i + 1)
    ]
    lines += _cholesky_lines(k, lambda i, j: f"s{i}_{j}", lambda i, j: f"l{i}_{j}")
    lines.append("    # gain G = S^-1 A: L W = A, then L^T G = W")
    for c in rm:
        for i in rk:
            terms = [f"l{i}_{p} * w{p}_{c}" for p in range(i)]
            lines.append(f"    w{i}_{c} = ({_minus(f'a{i}_{c}', terms)}) / l{i}_{i}")
        for i in reversed(rk):
            terms = [f"l{p}_{i} * k{p}_{c}" for p in range(i + 1, k)]
            lines.append(f"    k{i}_{c} = ({_minus(f'w{i}_{c}', terms)}) / l{i}_{i}")
    lines.append("    # shift = G^T sigma_nu grad, cov' = P - A^T G symmetrized")
    lines += [f"    e{i} = {_sum([f'n{i}_{j} * g{j}' for j in rk])}" for i in rk]
    lines += [f"    d{c} = {_sum([f'k{i}_{c} * e{i}' for i in rk])}" for c in rm]
    lines += [
        f"    c{i}_{j} = p{i}_{j} - ({_sum([f'a{q}_{i} * k{q}_{j}' for q in rk])})"
        for i in rm for j in rm
    ]
    lines += [f"    c{i}_{j} = 0.5 * (c{i}_{j} + c{j}_{i})" for i in rm for j in range(i)]
    lines.append("    # script_n = V - grad^T H shift / 2; log_n from the two half log-determinants")
    lines += [f"    r{i} = {_sum([f'h{i}_{j} * d{j}' for j in rm])}" for i in rk]
    lines.append(f"    script = value - 0.5 * ({_sum([f'g{i} * r{i}' for i in rk])})")
    lines.append(
        f"    log_n = {_half_logdet(k, lambda i, j: f'l{i}_{j}')} + hld + ldt + script * dt"
    )
    lines += [f"    u{i} = m{i} + d{i}" for i in rm]
    lower = [f"c{i}_{j}" for i in rm for j in range(i + 1)]
    lines += _finite_check(
        [f"u{i}" for i in rm] + lower, 'f"update at step {t} produced non-finite moments"'
    )
    cov = ", ".join(f"c{max(i, j)}_{min(i, j)}" for i in rm for j in rm)
    lines.append(
        f"    return ({', '.join(f'u{i}' for i in rm)},), ({cov},), "
        f"({', '.join(f'd{i}' for i in rm)},), log_n, script"
    )
    return lines


def _sample_source(m: int) -> list:
    rm = range(m)
    lines = [
        "def sample(mean, p, z, retries):",
        _unpack([f"m{i}" for i in rm], "mean"),
        _unpack([f"p{i}_{j}" for i in rm for j in rm], "p"),
        _unpack([f"z{i}" for i in rm], "z"),
    ]
    lines += _cholesky_lines(m, lambda i, j: f"p{i}_{j}", lambda i, j: f"l{i}_{j}")
    draws = [f"m{i} + ({_sum([f'l{i}_{j} * z{j}' for j in range(i + 1)])})" for i in rm]
    lines.append(f"    return ({', '.join(draws)},)")
    return lines


def _cholesky(rows, retries) -> list:
    # The kernel's fallback for a pivot that is not > 0: spd_cholesky's
    # jittered retry on the symmetric matrix with these lower rows.
    n = len(rows)
    a = np.zeros((n, n))
    for i, row in enumerate(rows):
        a[i, : i + 1] = row
        a[: i + 1, i] = row
    low, jittered = _jittered_cholesky(a)
    retries[0] += jittered
    return [v for i, row in enumerate(low.tolist()) for v in row[: i + 1]]


_STAGES = {
    "predict": _predict_source,
    "factor": _factor_source,
    "update": _update_source,
    "sample": _sample_source,
}


@lru_cache(maxsize=None)
def _compiled(stage: str, *dims: int) -> Callable:
    """One stage of the step kernel, compiled on first use for its dimensions.

    predict and sample depend on the state dimension m, factor on the
    constraint dimension k, update on (m, k). Arguments and results are
    float sequences, matrices flat in row-major order: predict(x, p, f,
    jac, q, dt, t) -> (mean, cov); factor(c, retries) -> (c^-1,
    log|c|/2); update(mean, p, value, grad, h, sig, hld, ldt, dt, t,
    retries) -> (mean, cov, shift, log_n, script_n), where sig =
    curvature^-1, hld its factor's log|curvature|/2 and ldt = (k/2)
    log dt; sample(mean, p, z, retries) -> x. ``retries`` is a
    one-entry list that counts the jittered Cholesky retries.
    """
    namespace = {
        "sqrt": math.sqrt,
        "log": math.log,
        "isfinite": math.isfinite,
        "NonFinite": NonFinite,
        "_cholesky": _cholesky,
    }
    return _compile_source(_STAGES[stage](*dims), f"<sqc step kernel {stage}{dims}>", namespace, stage)


def _evaluation_floats(pot: PotentialEvaluation) -> tuple:
    # A PotentialEvaluation as its float form's result: (V, grad_l, H, curvature).
    return float(pot.value), pot.grad_l.tolist(), pot.H.ravel().tolist(), pot.curvature.ravel().tolist()


def _floats(fn: Callable) -> Callable:
    """fn's float form, or an adapter that calls fn on an array and
    turns a PotentialEvaluation into (V, grad_l, H, curvature) and any
    other result into a flat list of floats.
    """
    form = getattr(fn, "floats", None)
    if form is not None:
        return form

    def adapter(x, t):
        out = fn(np.array(x), t)
        if isinstance(out, PotentialEvaluation):
            return _evaluation_floats(out)
        return np.asarray(out, dtype=float).ravel().tolist()

    return adapter


def _check_fit(h, curv, k: int, m: int) -> None:
    if len(h) != k * m or len(curv) != k * k:
        raise ValidationError(f"potential H ({len(h)} entries) and curvature ({len(curv)}) do not fit k = {k} on dim {m}")


def _run(
    model: ItoProcessModel,
    evaluate: Callable,
    initial: GaussianBelief,
    steps: int,
    weight: float,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """The recursion loop of the closed loop and the filter.

    Runs ``steps`` steps from the ``initial`` belief, which must be
    tagged predicted and have the model's dimension, as must a float
    form that records its ``dim`` (the bundled potentials' do), or
    ValidationError is raised before anything is drawn. Only then are
    all the steps' standard normal draws taken from ``rng``. The first
    step updates the belief as given, every later one first predicts.
    Each step evaluates the potential's float form ``evaluate`` at the
    predicted mean (its first H and curvature must fit the state, or
    ValidationError is raised), updates with time weight ``weight``, and
    takes the next state from the posterior with its draw, or the
    posterior mean where ``rng`` is None. Where ``evaluate`` returns
    None the step keeps the bare prediction, with V and log_n nan and a
    zero shift.

    Returns (x, mean, cov, V, log_n, shift, jitter_retries, failure):
    the completed steps' rows as _columns gives them, the count of
    Cholesky factorizations that needed the jittered retry (plus the
    one that failed, which the kernel does not count), and the
    DomainViolation, NonFinite or NotPositiveDefinite that stopped the
    run, or None; a step that raises adds no row. The failure's
    traceback refers to the caller's frame: drop or raise it there.
    """
    if initial.tag != "predicted":
        raise ValidationError("initial belief must be tagged predicted")
    if initial.dim != model.dim:
        raise ValidationError(f"initial belief has dim {initial.dim}; the model has dim {model.dim}")
    form_dim = getattr(evaluate, "dim", model.dim)
    if form_dim != model.dim:
        raise ValidationError(f"the potential is built for dim {form_dim}; the model has dim {model.dim}")
    m, dt, t = model.dim, model.dt, initial.step
    # One block of draws: standard_normal((steps, m)) gives the same
    # numbers as steps calls of standard_normal(m).
    draws = [None] * steps if rng is None else rng.standard_normal((steps, m)).tolist()
    drift, jacobian = _floats(model.drift), _floats(model.drift_jacobian)
    predict, sample = _compiled("predict", m), _compiled("sample", m)
    # k comes from the first evaluation; (sig, hld) factor ``factored``.
    k = factored = None
    noise = model.noise_cov.ravel().tolist()
    x, p = initial.mean.tolist(), initial.cov.ravel().tolist()
    # Flat float columns, m (x, mean, shift), m * m (cov) or one (V,
    # log_n) entries per step, so only floats outlive a step.
    rows = xs, means, covs, values, log_ns, shifts = [], [], [], [], [], []
    retries = [0]
    first = True
    try:
        for z in draws:
            if first:
                first = False
                mn = x
            else:
                mn, p = predict(x, p, drift(x, t), jacobian(x, t), noise, dt, t)
                t += 1
            pot = evaluate(mn, t)
            if pot is None:
                value = log_n = math.nan
                shift = (0.0,) * m
            else:
                value, grad, h, curv = pot
                if curv != factored:
                    if len(grad) != k:
                        k = len(grad)
                        _check_fit(h, curv, k, m)
                        factor, update = _compiled("factor", k), _compiled("update", m, k)
                        ldt = 0.5 * k * math.log(weight)
                    sig, hld = factor(curv, retries)
                    factored = curv
                mn, p, shift, log_n, _ = update(mn, p, value, grad, h, sig, hld, ldt, weight, t, retries)
            x = mn if z is None else sample(mn, p, z, retries)
            xs.extend(x)
            means.extend(mn)
            covs.extend(p)
            values.append(value)
            log_ns.append(log_n)
            shifts.extend(shift)
    except (DomainViolation, NonFinite, NotPositiveDefinite) as exc:
        # Returned from here: a local naming the exception would make a
        # cycle through its traceback, which refers to this frame.
        return (*_columns(rows, m), retries[0] + isinstance(exc, NotPositiveDefinite), exc)
    return (*_columns(rows, m), retries[0], None)


def _columns(rows: tuple, m: int) -> tuple:
    """_run's flat float rows as arrays: (x, mean, cov, V, log_n, shift).

    With n the completed steps, the length of the V column, x, mean and
    shift are (n, m), cov is (n, m, m) and V and log_n are (n,). _run
    is its one caller.
    """
    xs, means, covs, values, log_ns, shifts = rows
    n = len(values)
    x, mean, shift = (np.fromiter(column, float, n * m).reshape(n, m) for column in (xs, means, shifts))
    cov = np.fromiter(covs, float, n * m * m).reshape(n, m, m)
    return x, mean, cov, np.array(values), np.array(log_ns), shift


def predict(belief: GaussianBelief, model: ItoProcessModel) -> GaussianBelief:
    """Propagate the belief one step through the process model.

    The drift and its Jacobian are evaluated at the current step index,
    producing the predicted belief at step + 1. This is the array form
    of the kernel's predict stage, kept as its reference. A belief of
    another dimension than the model's raises ValidationError.
    """
    if belief.dim != model.dim:
        raise ValidationError(f"belief has dim {belief.dim}; the model has dim {model.dim}")
    f = model.drift(belief.mean, belief.step)
    trans = transition_matrix(model, belief.mean, belief.step)
    mean = belief.mean + f * model.dt
    cov = symmetrize(trans @ belief.cov @ trans.T + model.noise_cov)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NonFinite(f"prediction to step {belief.step + 1} has non-finite entries")
    return GaussianBelief._trusted(mean, cov, belief.step + 1, "predicted")


def update(belief: GaussianBelief, pot: PotentialEvaluation, dt: float) -> tuple[GaussianBelief, NormalizationDiagnostic]:
    """Potential-driven update in gain form, and the log of the weight normalization it absorbs.

    ``pot`` must have been evaluated at belief.mean. The posterior
    covariance never exceeds the prior one: the subtracted term is
    positive semidefinite. With S = sigma_nu / dt + H cov H^T and k the
    inner dimension,

        log_n = log|S|/2 - log|sigma_nu|/2 + (k/2) log dt + script_n dt
        script_n = V - (H^T grad_l)^T P^-1 (H^T grad_l) dt / 2.

    For a quadratic potential, log_n equals minus the log mass of
    exp(-V dt) under the predicted Gaussian exactly; the quadrature
    oracle checks this. The kernel computes script_n from the shift,
    which equals P^-1 H^T grad_l dt by the matrix inversion lemma. One
    kernel call gives both results.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be positive and finite; got {dt!r}")
    value, grad, h, curvature = _evaluation_floats(pot)
    m, k = belief.dim, len(grad)
    _check_fit(h, curvature, k, m)
    if pot.grad_l.ndim != 1 or pot.H.shape != (k, m) or pot.curvature.shape != (k, k):
        raise ValidationError(
            f"potential grad_l {pot.grad_l.shape}, H {pot.H.shape} and curvature {pot.curvature.shape} "
            f"do not fit k = {k} on dim {m}"
        )
    retries = [0]
    sig, hld = _compiled("factor", k)(curvature, retries)
    mean, cov, _, log_n, script_n = _compiled("update", m, k)(
        belief.mean.tolist(), belief.cov.ravel().tolist(), value, grad, h, sig, hld,
        0.5 * k * math.log(dt), dt, belief.step, retries,
    )
    return (
        GaussianBelief._trusted(np.array(mean), np.reshape(cov, (m, m)), belief.step, "updated"),
        NormalizationDiagnostic(log_n=log_n, script_n=script_n),
    )


def sample_posterior(belief: GaussianBelief, rng: np.random.Generator) -> np.ndarray:
    """Draw one state from the belief (the array form of the kernel's sample stage)."""
    low = spd_cholesky(belief.cov)
    return belief.mean + low @ rng.standard_normal(belief.dim)

