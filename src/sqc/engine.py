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
line generators write out the algebra of a step once, every matrix
entry a Python float and every operation spelled out, with no loops
and no numpy calls: the prediction, the update (S, its Cholesky
factor, the gain by substitution, the shift, the posterior moments,
script_n and log_n) and the sample (mean + chol(cov) z). The kernel has
three stages: factor (the curvature's Cholesky factor, its inverse
sigma_nu and log|curvature|/2), update (the update lines as a function
of their own, for update()) and loop, the step loop itself per (m, k,
sampled or belief), with the prediction, update and sample lines
inline on local floats. The only functions the loop calls are the
drift, its Jacobian, the potential, factor when the curvature changes,
_cholesky when a pivot fails, math's sqrt, log and isfinite, and the
rows' list methods. Each stage's source is compiled on first use for
the dimensions it depends on and cached, as collections.namedtuple
does; nothing is compiled at import or when a scenario is loaded. At
m = 2 a whole closed-loop step (drift, potential, kernel and row) costs
about 4-5 us of CPU on a 2-vCPU Xeon VM (5001-step runs of the bundled
penalty and double well, medians of 60 each, BENCH_23.json). The
bundled potentials' float forms are generated the same way (see
potential).

A Cholesky pivot that is not > 0 hands the whole matrix to
linalg.spd_cholesky, whose jittered retry keeps a run alive through
transient conditioning trouble (and still raises NotPositiveDefinite
for an indefinite matrix); a run counts those retries. Logarithms are
math.log on each entry.

The kernel is the only update and _run the only step loop: the closed
loop and the observation filter each hand _run their initial belief,
step count and generator (or None); _run alone checks the belief's tag
and dimension, and only then draws the run's noise, as one flat block
that the loop stage reads m floats per step, all in one call for the
k of the first step; _check_fit, the one test of sizes against k,
refuses a step that does not fit it. update() calls the kernel's
update once for the posterior and its normalization, after checking dt
and the fit. _compiled hands out each stage and documents its
arguments. Drifts and potentials enter as float forms: the bundled
ones carry theirs as the ``floats`` attribute of their callables, the
filter builds its own, and any other callable (one that wraps a
bundled one too) is called with an array: _floats reads its result as
a flat list of the entry count its caller names, _potential_floats as
a PotentialEvaluation through _evaluation_floats, the one shape test,
and each refuses any other result. The loop factors a curvature only
when it differs by value from the one it factored last, so a constant
one is factored once per run on every path. Its rows are flat float
columns that never leave _run, so no per-step container outlives a
step for the garbage collector to track; _run returns them as arrays
through _columns. _run also owns the breakdown policy: a
DomainViolation, NonFinite or NotPositiveDefinite ends the run, and it
returns the completed rows, the retry count and that failure for the
caller to report or raise. predict() and sample_posterior() stay in
numpy as the independent references for the loop stage's prediction
and sample, and oracle.precision_form, the update and normalization
through the precision matrix, is the reference for its update.
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
from .process import ItoProcessModel, _STEP, _dt, _reals, _sized, _whole, transition_matrix

__all__ = [
    "GaussianBelief",
    "NormalizationDiagnostic",
    "predict",
    "update",
    "sample_posterior",
]


@dataclass
class GaussianBelief:
    """Mean and covariance at an integer step, tagged by recursion phase; checked at construction."""

    mean: np.ndarray
    cov: np.ndarray
    step: int = 0
    tag: str = "predicted"

    def __post_init__(self):
        # The mean is read as a row, so a 2-D one is refused naming both shapes.
        mean, self.cov = _reals(self.mean, "belief mean", 2), _reals(self.cov, "belief cov", 2)
        if np.ndim(self.mean) > 1 or self.cov.shape != (mean.size, mean.size):
            raise ValidationError(f"belief mean has shape {np.shape(self.mean)} and covariance {self.cov.shape}")
        self.mean, self.cov = mean[0], symmetrize(self.cov)
        self.step = _whole(self.step, "belief step", *_STEP)
        if not (isinstance(self.tag, str) and self.tag in ("predicted", "updated")):
            raise ValidationError(f"unknown belief tag {self.tag!r}")
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


def _vector(name: str, n: int) -> list:
    return [f"{name}{i}" for i in range(n)]


def _matrix(name: str, rows: int, cols: int) -> list:
    return [f"{name}{i}_{j}" for i in range(rows) for j in range(cols)]


def _symmetric(name: str, n: int) -> list:
    # The n x n matrix, row-major, read from its lower-triangle names.
    return [f"{name}{max(i, j)}_{min(i, j)}" for i in range(n) for j in range(n)]


def _tuple(names: list) -> str:
    return f"({', '.join(names)},)"


def _unpack(names: list, value: str) -> str:
    return f"{', '.join(names)}, = {value}"


def _assign(names: list, values: list) -> list:
    return [f"{n} = {v}" for n, v in zip(names, values)]


def _indent(lines: list, depth: int = 1) -> list:
    return ["    " * depth + line for line in lines]


def _finite_check(names: list, message: str) -> list:
    test = " and ".join(f"isfinite({n})" for n in names)
    return [f"if not ({test}):", f"    raise NonFinite({message})"]


def _cholesky_lines(n: int, a: Callable, low: Callable) -> list:
    # Lower Cholesky factor of the symmetric n x n matrix whose lower
    # entries are named a(i, j), into the names low(i, j). Each column
    # nests inside the test of its pivot; if a pivot is not > 0 the
    # whole factor comes from _cholesky instead.
    lines = [f"pivot = {a(0, 0)}"]
    pad = ""
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
    lines.append("if not pivot > 0.0:")
    lines.append(f"    {', '.join(names)}, = _cholesky(({rows},), retries)")
    return lines


def _half_logdet(n: int, low: Callable) -> str:
    return _sum([f"log({low(i, i)})" for i in range(n)])


# The three line generators below write the algebra of a step once.
# Each reads and writes plain local names (x0, p0_1, ...): the update
# stage and the loop stage put them in one function body.

def _predict_lines(m: int) -> list:
    # State x{i}, covariance p{i}_{j}, drift f{i}, its Jacobian j{i}_{j},
    # noise q{i}_{j}, dt and t -> predicted mean m{i} and the lower
    # triangle c{i}_{j} of its covariance.
    rm = range(m)
    lines = ["# F = I + jac dt"]
    lines += [
        f"a{i}_{j} = " + (f"1.0 + j{i}_{j} * dt" if i == j else f"j{i}_{j} * dt")
        for i in rm for j in rm
    ]
    lines.append("# B = F P, then C = B F^T + q, symmetrized")
    lines += [f"b{i}_{j} = {_sum([f'a{i}_{l} * p{l}_{j}' for l in rm])}" for i in rm for j in rm]
    lines += [
        f"c{i}_{j} = ({_sum([f'b{i}_{l} * a{j}_{l}' for l in rm])}) + q{i}_{j}"
        for i in rm for j in rm
    ]
    lines += [f"c{i}_{j} = 0.5 * (c{i}_{j} + c{j}_{i})" for i in rm for j in range(i)]
    lines += [f"m{i} = x{i} + f{i} * dt" for i in rm]
    lower = [f"c{i}_{j}" for i in rm for j in range(i + 1)]
    lines += _finite_check(
        _vector("m", m) + lower, 'f"prediction to step {t + 1} has non-finite entries"'
    )
    return lines


def _update_lines(m: int, k: int) -> list:
    # Mean m{i}, covariance p{i}_{j}, V as value, grad_l g{i}, H h{i}_{j},
    # sigma_nu n{i}_{j}, hld, ldt, the time weight and t -> posterior
    # mean u{i}, the lower triangle c{i}_{j} of its covariance, shift
    # d{i}, log_n and script.
    rm, rk = range(m), range(k)
    lines = [
        "if not isfinite(value):",
        '    raise NonFinite("potential evaluation produced non-finite entries")',
        "# A = H P, then the lower triangle of S = sigma_nu / weight + A H^T",
    ]
    lines += [f"a{i}_{j} = {_sum([f'h{i}_{l} * p{l}_{j}' for l in rm])}" for i in rk for j in rm]
    lines += [
        f"s{i}_{j} = n{i}_{j} / weight + ({_sum([f'a{i}_{l} * h{j}_{l}' for l in rm])})"
        for i in rk for j in range(i + 1)
    ]
    lines += _cholesky_lines(k, lambda i, j: f"s{i}_{j}", lambda i, j: f"l{i}_{j}")
    lines.append("# gain G = S^-1 A: L W = A, then L^T G = W")
    for c in rm:
        for i in rk:
            terms = [f"l{i}_{p} * w{p}_{c}" for p in range(i)]
            lines.append(f"w{i}_{c} = ({_minus(f'a{i}_{c}', terms)}) / l{i}_{i}")
        for i in reversed(rk):
            terms = [f"l{p}_{i} * k{p}_{c}" for p in range(i + 1, k)]
            lines.append(f"k{i}_{c} = ({_minus(f'w{i}_{c}', terms)}) / l{i}_{i}")
    lines.append("# shift = G^T sigma_nu grad, cov' = P - A^T G symmetrized")
    lines += [f"e{i} = {_sum([f'n{i}_{j} * g{j}' for j in rk])}" for i in rk]
    lines += [f"d{c} = {_sum([f'k{i}_{c} * e{i}' for i in rk])}" for c in rm]
    lines += [
        f"c{i}_{j} = p{i}_{j} - ({_sum([f'a{q}_{i} * k{q}_{j}' for q in rk])})"
        for i in rm for j in rm
    ]
    lines += [f"c{i}_{j} = 0.5 * (c{i}_{j} + c{j}_{i})" for i in rm for j in range(i)]
    lines.append("# script_n = V - grad^T H shift / 2; log_n from the two half log-determinants")
    lines += [f"r{i} = {_sum([f'h{i}_{j} * d{j}' for j in rm])}" for i in rk]
    lines.append(f"script = value - 0.5 * ({_sum([f'g{i} * r{i}' for i in rk])})")
    lines.append(f"log_n = {_half_logdet(k, lambda i, j: f'l{i}_{j}')} + hld + ldt + script * weight")
    lines += [f"u{i} = m{i} + d{i}" for i in rm]
    lower = [f"c{i}_{j}" for i in rm for j in range(i + 1)]
    lines += _finite_check(
        _vector("u", m) + lower, 'f"update at step {t} produced non-finite moments"'
    )
    return lines


def _sample_lines(m: int) -> list:
    # Mean m{i}, covariance p{i}_{j} and standard normal draws z{i} ->
    # the state x{i} = mean + chol(cov) z.
    rm = range(m)
    lines = _cholesky_lines(m, lambda i, j: f"p{i}_{j}", lambda i, j: f"l{i}_{j}")
    lines += [f"x{i} = m{i} + ({_sum([f'l{i}_{j} * z{j}' for j in range(i + 1)])})" for i in rm]
    return lines


def _factor_source(k: int) -> list:
    rk = range(k)
    lines = [_unpack(_matrix("c", k, k), "c")]
    lines += _cholesky_lines(k, lambda i, j: f"c{i}_{j}", lambda i, j: f"l{i}_{j}")
    lines.append("# sigma_nu = c^-1: L L^T V = I, one identity column at a time")
    for col in rk:
        for i in range(col, k):
            if i == col:
                lines.append(f"w{i}_{col} = 1.0 / l{i}_{i}")
            else:
                terms = [f"l{i}_{p} * w{p}_{col}" for p in range(col, i)]
                lines.append(f"w{i}_{col} = (-{_minus(terms[0], terms[1:])}) / l{i}_{i}")
        for i in reversed(rk):
            terms = [f"l{p}_{i} * v{p}_{col}" for p in range(i + 1, k)]
            if i >= col:
                lines.append(f"v{i}_{col} = ({_minus(f'w{i}_{col}', terms)}) / l{i}_{i}")
            else:
                lines.append(f"v{i}_{col} = (-{_minus(terms[0], terms[1:])}) / l{i}_{i}")
    lines.append(f"return {_tuple(_matrix('v', k, k))}, {_half_logdet(k, lambda i, j: f'l{i}_{j}')}")
    return ["def factor(c, retries):", *_indent(lines)]


def _update_source(m: int, k: int) -> list:
    lines = [
        _unpack(_vector("m", m), "mean"),
        _unpack(_matrix("p", m, m), "p"),
        _unpack(_vector("g", k), "grad"),
        _unpack(_matrix("h", k, m), "h"),
        _unpack(_matrix("n", k, k), "sig"),
        *_update_lines(m, k),
        f"return {_tuple(_vector('u', m))}, {_tuple(_symmetric('c', m))}, {_tuple(_vector('d', m))}, log_n, script",
    ]
    return ["def update(mean, p, value, grad, h, sig, hld, ldt, weight, t, retries):", *_indent(lines)]


def _loop_source(m: int, k: int, sampled: bool) -> list:
    # The step loop: each pass but the first predicts and evaluates the
    # potential (the first takes both as given); every pass updates (or
    # keeps the bare prediction where the potential is None), draws or
    # takes the mean, and extends the rows. At a step whose grad_l, H
    # or curvature does not fit k, it calls _check_fit, which raises.
    mean, cov, x, shift = _vector("m", m), _matrix("p", m, m), _vector("x", m), _vector("d", m)
    z = _vector("z", m) if sampled else ["z"]
    misfit = f"_check_fit(grad, h, curv, {k}, {m}, t)"
    step = [
        "if first:",
        "    first = False",
        "else:",
        *_indent([
            _unpack(_vector("f", m), "drift(x, t)"),
            _unpack(_matrix("j", m, m), "jacobian(x, t)"),
            *_predict_lines(m),
            *_assign(cov, _symmetric("c", m)),
            "t += 1",
            f"pot = evaluate({_tuple(mean)}, t)",
        ]),
        "if pot is None:",
        "    value = log_n = nan",
        f"    {' = '.join(shift)} = 0.0",
        "else:",
        *_indent([
            "value, grad, h, curv = pot",
            "if curv != factored:",
            f"    if len(grad) != {k} or len(curv) != {k * k}:",
            f"        {misfit}",
            "    sig, hld = factor(curv, retries)",
            f"    {_unpack(_matrix('n', k, k), 'sig')}",
            "    factored = curv",
            "try:",
            f"    {_unpack(_vector('g', k), 'grad')}",
            f"    {_unpack(_matrix('h', k, m), 'h')}",
            "except ValueError:",
            f"    {misfit}",
            *_update_lines(m, k),
            *_assign(mean, _vector("u", m)),
            *_assign(cov, _symmetric("c", m)),
        ]),
        *(_sample_lines(m) if sampled else _assign(x, mean)),
        f"x = {_tuple(x)}",
        "xs.extend(x)",
        f"means.extend({_tuple(mean)})",
        f"covs.extend({_tuple(cov)})",
        "values.append(value)",
        "log_ns.append(log_n)",
        f"shifts.extend({_tuple(shift)})",
    ]
    head = f"for {', '.join(z)}, in zip({', '.join(['draws'] * m)}):" if sampled else "for z in draws:"
    lines = [
        _unpack(mean, "mean"),
        _unpack(cov, "p"),
        _unpack(_matrix("q", m, m), "noise"),
        "xs, means, covs, values, log_ns, shifts = rows",
        "factored = None",
        "first = True",
        head,
        *_indent(step),
    ]
    signature = "def loop(draws, mean, p, pot, t, drift, jacobian, evaluate, factor, noise, dt, weight, ldt, retries, rows):"
    return [signature, *_indent(lines)]


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
    "factor": _factor_source,
    "update": _update_source,
    "loop": _loop_source,
}


@lru_cache(maxsize=None)
def _compiled(stage: str, *dims) -> Callable:
    """One stage of the step kernel, compiled on first use for its dimensions.

    factor depends on the constraint dimension k, update on (m, k) and
    loop on (m, k, sampled). Arguments and results are float sequences,
    matrices flat in row-major order, and ``retries`` is a one-entry
    list that counts the jittered Cholesky retries.

    factor(c, retries) -> (c^-1, log|c|/2).
    update(mean, p, value, grad, h, sig, hld, ldt, weight, t, retries)
    -> (mean, cov, shift, log_n, script_n), where sig = curvature^-1,
    hld its factor's log|curvature|/2 and ldt = (k/2) log weight.
    loop(draws, mean, p, pot, t, drift, jacobian, evaluate, factor,
    noise, dt, weight, ldt, retries, rows) runs all of _run's steps from
    the predicted belief (mean, p) at step t and its evaluation ``pot``,
    one step per m floats of the iterator ``draws`` (sampled) or per
    entry (belief), and extends _run's six ``rows``. It returns None; a
    step whose grad_l, H or curvature does not fit k raises
    ValidationError through _check_fit.
    """
    namespace = {
        "sqrt": math.sqrt,
        "log": math.log,
        "isfinite": math.isfinite,
        "nan": math.nan,
        "NonFinite": NonFinite,
        "_cholesky": _cholesky,
        "_check_fit": _check_fit,
    }
    return _compile_source(_STAGES[stage](*dims), f"<sqc step kernel {stage}{dims}>", namespace, stage)


def _evaluation_floats(pot, m: int, step: int) -> tuple:
    # A PotentialEvaluation at a point of dim m as a float form's result,
    # (V, grad_l, H, curvature) flat; any other result is refused. The one
    # shape test: counts that fit k = grad_l's size on dim m must come
    # shaped (k,), (k, m) and (k, k). Counts that do not fit are _check_fit's.
    if not isinstance(pot, PotentialEvaluation):
        raise ValidationError(f"the potential returned {type(pot).__name__}, not a PotentialEvaluation")
    grad, h, curv = pot.grad_l, pot.H, pot.curvature
    k = grad.size
    if (h.size, curv.size) == (k * m, k * k) and (grad.shape, h.shape, curv.shape) != ((k,), (k, m), (k, k)):
        raise ValidationError(
            f"potential grad_l {grad.shape}, H {h.shape} and curvature {curv.shape} "
            f"do not fit k = {k} on dim {m} at step {step}"
        )
    return float(pot.value), grad.ravel().tolist(), h.ravel().tolist(), curv.ravel().tolist()


def _floats(fn: Callable, role: str, size: int) -> Callable:
    """fn's float form, or an adapter that calls fn on an array and
    returns its result as a flat list of floats: the form of a drift, a
    Jacobian or an observation map. The adapter refuses a result with
    another count of entries than ``size`` with ValidationError naming
    the callable's ``role``; a float form is not checked.
    """
    form = getattr(fn, "floats", None)
    return form if form is not None else lambda x, t: _sized(fn(np.array(x), t), role, size).ravel().tolist()


def _potential_floats(fn: Callable) -> Callable:
    """A potential's float form, or an adapter that calls it on an array
    and reads its result through _evaluation_floats.
    """
    form = getattr(fn, "floats", None)
    return form if form is not None else lambda x, t: _evaluation_floats(fn(np.array(x), t), len(x), t)


def _check_fit(grad, h, curv, k: int, m: int, step: int) -> None:
    # The one fit test, against k >= 1 on dim m: update() runs it on
    # every evaluation, the loop stage only at a step that misfits.
    if not k or len(grad) != k or len(h) != k * m or len(curv) != k * k:
        tail = "" if len(grad) == k else f"; grad_l has {len(grad)} entries"
        raise ValidationError(
            f"potential H ({len(h)} entries) and curvature ({len(curv)}) do not fit k = {k} on dim {m} at step {step}{tail}"
        )


# The most float64 entries one array can hold.
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


def _run(
    model: ItoProcessModel,
    evaluate: Callable,
    initial: GaussianBelief,
    steps: int,
    weight: float,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """The recursion loop of the closed loop and the filter.

    Runs ``steps`` (>= 1) steps from the ``initial`` belief, which must
    be tagged predicted and have the model's dimension, as must a float
    form that records its ``dim`` (the bundled potentials' do), and the
    run's covariance column must fit in one array, or ValidationError is
    raised before anything is drawn. Only then are all the steps'
    standard normal draws taken from ``rng``, as one flat block. The
    first step updates the belief as given, every later one first
    predicts. Each step evaluates the potential's float form
    ``evaluate`` at the predicted mean, updates with time weight
    ``weight``, and takes the next state from the posterior with its
    draw, or the posterior mean where ``rng`` is None. Where
    ``evaluate`` returns None the step keeps the bare prediction, with V
    and log_n nan and a zero shift.

    All steps run in one call of the kernel's loop stage for the
    constraint dimension k, which is fixed for the run: it comes from
    the first evaluation, or where that is None from ``evaluate.k`` (the
    filter's observation width). A step whose grad_l, H or curvature
    does not fit k, the first one included, raises ValidationError
    naming the step and the sizes.

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
    if steps * m * m > _MAX_ENTRIES:
        raise ValidationError(f"{steps} steps are too many: the {steps} x {m} x {m} covariance column exceeds any array")
    # One flat block of draws, m per step: standard_normal((steps, m))
    # gives the same numbers as steps calls of standard_normal(m). A
    # belief run takes one None per step.
    draws = iter([None] * steps if rng is None else rng.standard_normal((steps, m)).ravel().tolist())
    drift, jacobian = _floats(model.drift, "drift", m), _floats(model.drift_jacobian, "drift Jacobian", m * m)
    noise = model.noise_cov.ravel().tolist()
    mean, p = initial.mean.tolist(), initial.cov.ravel().tolist()
    # Flat float columns, m (x, mean, shift), m * m (cov) or one (V,
    # log_n) entries per step, so only floats outlive a step.
    rows = ([], [], [], [], [], [])
    retries = [0]
    try:
        pot = evaluate(mean, t)
        k = evaluate.k if pot is None else len(pot[1])
        if not k:  # no stage is written for k = 0; _check_fit refuses it
            _check_fit(*pot[1:], k, m, t)
        _compiled("loop", m, k, rng is not None)(
            draws, mean, p, pot, t, drift, jacobian, evaluate, _compiled("factor", k), noise, dt, weight,
            0.5 * k * math.log(weight), retries, rows,
        )
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
    of the loop stage's prediction, kept as its reference. A belief of
    another dimension than the model's raises ValidationError, as does
    a drift or Jacobian result without m or m * m entries.
    """
    m = belief.dim
    if m != model.dim:
        raise ValidationError(f"belief has dim {m}; the model has dim {model.dim}")
    f = _sized(model.drift(belief.mean, belief.step), "drift", m).reshape(m)
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
    dt = _dt(dt)
    m = belief.dim
    value, grad, h, curvature = _evaluation_floats(pot, m, belief.step)
    k = len(grad)
    _check_fit(grad, h, curvature, k, m, belief.step)
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
    """Draw one state from the belief (the array form of the loop stage's sample)."""
    low = spd_cholesky(belief.cov)
    return belief.mean + low @ rng.standard_normal(belief.dim)

