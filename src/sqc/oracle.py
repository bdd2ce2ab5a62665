"""Independent verification machinery.

Three oracles gate the main recursion, each computing the same
quantities by a route that shares no code with the engine's update
kernel:

* weighted_gaussian_moments integrates x and x x^T against
  exp(-V(x) dt) N(x; mean, cov) with Gauss-Hermite quadrature. For a
  quadratic V the update must reproduce these moments exactly.
* fokker_planck_residual evolves a 1-D density one step through the
  explicit transition kernel, in bands and never as an n x n matrix,
  and measures how far the finite-time increment is from the
  continuous-limit drift-diffusion-sink operator. The residual must
  shrink linearly with dt (fp_convergence). It shares no state with the
  other two oracles, so `sqc validate --level full` runs it in a worker
  process while they run in the calling one.
* identity_suite brute-force checks the engine's update and its
  normalization against the precision form (kept here as the
  reference, with the inversion lemma and the block determinant
  identity) and gauge invariance on randomized instances. The engine
  is called per instance; the reference algebra runs on stacks of
  instances of one shape, which numpy's LAPACK and BLAS calls treat
  one matrix at a time, so every instance keeps its own bits.

The oracles ship with the library (not the test tree) so any scenario
configuration can be audited: the second-order expansion behind the
update has uncharacterized error for non-quadratic potentials. No run
calls the quadrature oracle; `sqc validate` audits fixed instances
with it (quadrature_checks), one of them a barrier point.

Like the step loop, the oracles read potentials and drifts through
their float forms: quadrature_checks builds each potential once with
potential._bound and integrates V from that closure's generated forms,
``.floats`` (the form eval_* evaluate) at one node and ``.columns``,
written from the same lines, at all of a pass's nodes in one call with
the same bits; the kernel residual reads its drift through
engine._floats. Neither is the update kernel, with which the oracles
still share no code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import engine, linalg
from .errors import DomainViolation, MassLoss, QuadratureDomain, Singular, ValidationError
from .potential import PotentialEvaluation, _bound
from .process import ItoProcessModel, _MAX_ENTRIES, _dt, _finite, _reals, _whole, make_drift

__all__ = [
    "Grid1D",
    "weighted_gaussian_moments",
    "fokker_planck_residual",
    "precision_form",
    "woodbury_inverse",
    "identity_suite",
    "quadrature_checks",
    "fp_convergence",
]


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature of weighted Gaussian moments (dims 1 and 2).

@lru_cache(maxsize=None)
def _gh_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    # sqrt(2) z and the normalized weights of the 64-point tensor-product
    # rule on m axes, computed on first use per m and read-only.
    z, w = hermgauss(64)
    if m == 1:
        zs = z[:, None]
        ws = w
    elif m == 2:
        za, zb = np.meshgrid(z, z, indexing="ij")
        zs = np.column_stack([za.ravel(), zb.ravel()])
        ws = np.outer(w, w).ravel()
    else:
        raise ValidationError("quadrature oracle supports dims 1 and 2 only")
    rule = np.sqrt(2.0) * zs, ws / np.pi ** (m / 2.0)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gh_nodes(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite nodes and weights for N(mean, cov), 64 per axis.

    Physicists' nodes z are mapped through x = mean + sqrt(2) L z with
    L the Cholesky factor, and the weights are normalized to sum to 1,
    so sum w_i f(x_i) approximates E[f(X)] under the Gaussian. The rule
    on m axes (sqrt(2) z and the weights) is computed once per m, at
    the first call, by _gh_rule; the weights it returns are read-only.
    """
    low = linalg.spd_cholesky(cov)
    zs, ws = _gh_rule(len(mean))
    return mean[None, :] + zs @ low.T, ws


def _potential_values(potential, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V at each node plus a mask of nodes outside the potential domain.

    A potential that carries a column form as ``.columns``, as
    quadrature_checks' integrands carry potential._bound's, is called
    once on the m node columns xs.T and returns V and the outside mask;
    its V equals the float form's at each node bit for bit. Any other
    potential is called node by node: one that is not callable, or a
    result that is neither a PotentialEvaluation nor a number, raises
    ValidationError; a float result is taken as it is and only other
    results go through process._reals. V is inf at the outside nodes.
    """
    if not callable(potential):
        raise ValidationError(f"the potential must be a callable x -> V; got {potential!r}")
    columns = getattr(potential, "columns", None)
    if columns is not None:
        vals, outside = columns(xs.T)
        return np.where(outside, np.inf, vals), outside
    vals = np.empty(len(xs))
    outside = np.zeros(len(xs), dtype=bool)
    for i, x in enumerate(xs):
        try:
            res = potential(x)
        except DomainViolation:
            outside[i] = True
            vals[i] = np.inf
            continue
        if isinstance(res, PotentialEvaluation):
            res = res.value
        vals[i] = res if isinstance(res, float) else _reals(res, "the potential's value", 0)
    return vals, outside


def _finite_values(potential, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _potential_values, with V finite at every node inside the domain.
    vals, outside = _potential_values(potential, xs)
    inside = vals[~outside]
    if not np.isfinite(inside).all():
        raise ValidationError(f"the potential's value must be finite; got {inside[~np.isfinite(inside)][0]}")
    return vals, outside


def _weighted_moments(xs: np.ndarray, ws: np.ndarray, log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Mean, covariance and log mass of the nodes xs under the weights ws e^log_w.

    The largest log weight is factored out before exponentiating.
    """
    shift = log_w.max()
    w = ws * np.exp(log_w - shift)
    mass = w.sum()
    mean = (w[:, None] * xs).sum(axis=0) / mass
    diff = xs - mean[None, :]
    cov = (w[:, None, None] * (diff[:, :, None] * diff[:, None, :])).sum(axis=0) / mass
    return mean, linalg.symmetrize(cov), float(np.log(mass) + shift)


def weighted_gaussian_moments(
    x_hat: np.ndarray,
    sigma: np.ndarray,
    potential,
    dt: float = 1.0,
):
    """Moments of the weighted density exp(-V(x) dt) N(x; x_hat, sigma).

    ``potential`` maps a point to a PotentialEvaluation (or directly to
    the scalar V). Returns (mean, cov, log_norm) where log_norm is the
    log of the weight mass integral. x_hat (m,) and sigma (m, m) are
    read through process._finite, dt through process._dt (a positive
    finite number); m must be 1 or 2. A potential that is not callable
    or returns anything else, or a V that is not finite at a node inside
    its domain, raises ValidationError.

    Quadrature runs twice: a first pass on the prior Gaussian locates
    the posterior, a second pass re-centered there integrates the
    near-constant ratio, which keeps the error at roundoff level while
    the first pass resolves the weighted density, that is while its
    width spans several of the prior's node spacings. A weight much
    narrower than that is not integrated: for V = 1e6 x^2 on N(0, 1)
    the result's variance is 2.2e-3 (exact 5.0e-7) and its log mass
    -2197.8 (exact -7.25). Nodes outside the potential domain are
    dropped; if they carry more than 1e-6 of the prior mass the result
    would be meaningless and QuadratureDomain is raised.
    """
    x_hat, sigma, dt = _finite(x_hat, "x_hat", 1), _finite(sigma, "sigma", 2), _dt(dt)
    if sigma.shape != (x_hat.size,) * 2:
        raise ValidationError(f"sigma has shape {sigma.shape}; x_hat has {x_hat.size} entries")

    xs, ws = _gh_nodes(x_hat, sigma)
    vals, outside = _finite_values(potential, xs)
    lost = float(np.sum(ws[outside]))
    if lost > 1e-6:
        raise QuadratureDomain(
            f"potential domain truncates {lost:.3g} of the Gaussian mass"
        )
    keep = ~outside
    mean1, cov1, _ = _weighted_moments(xs[keep], ws[keep], -vals[keep] * dt)

    # Second pass: importance quadrature centered on the first estimate.
    ref_cov = linalg.symmetrize(1.5 * cov1)
    ys, wy = _gh_nodes(mean1, ref_cov)
    vals2, outside2 = _finite_values(potential, ys)
    keep2 = ~outside2
    log_int = (
        -vals2[keep2] * dt
        + linalg.gaussian_log_density(ys[keep2] - x_hat, sigma)
        - linalg.gaussian_log_density(ys[keep2] - mean1, ref_cov)
    )
    return _weighted_moments(ys[keep2], wy[keep2], log_int)


# ---------------------------------------------------------------------------
# One-step kernel evolution versus the continuous-limit operator (1-D).

@dataclass
class Grid1D:
    """Uniform 1-D grid for the kernel-evolution check: finite bounds, n >= 64 points."""

    lower: float
    upper: float
    n: int

    def __post_init__(self):
        self.lower, self.upper = _finite(self.lower, "Grid1D lower", 0), _finite(self.upper, "Grid1D upper", 0)
        self.n = _whole(self.n, "Grid1D n", 64, "a whole number of at least 64 points")
        if not self.upper > self.lower:
            raise ValidationError("Grid1D needs upper > lower")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.n)


def _derivative(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """Fourth-order central differences, of order 1 or else 2, with zero extension at the edges.

    The densities handled here decay to ~1e-14 at the grid edges, so
    zero padding does not disturb the interior.
    """
    padded = np.pad(values, 2)
    if order == 1:
        return (-padded[4:] + 8 * padded[3:-1] - 8 * padded[1:-3] + padded[:-4]) / (12 * h)
    return (-padded[4:] + 16 * padded[3:-1] - 30 * padded[2:-2] + 16 * padded[1:-3] - padded[:-4]) / (12 * h * h)


# Rows of the target grid per kernel block and per slice of a block, an
# exponent argument a at which np.exp(-a) is already exactly 0.0 in
# double precision, and the one at which np.exp(-a) turns subnormal.
_BLOCK_ROWS = 256
_SLICE_ROWS = 64
_UNDERFLOW_ARG = 746.0
_NORMAL_ARG = 1022 * math.log(2)


def fokker_planck_residual(
    model: ItoProcessModel,
    potential,
    grid: Grid1D,
    density: np.ndarray,
    dt: float,
) -> float:
    """L2 residual between the kernel step and the continuous limit.

    The density is pushed one step of size dt through the explicit
    kernel N(x'; x + f(x) dt, g_inv dt), with f at step 0, weighted by
    exp(-U(x') dt), and the finite increment (P' - P)/dt is compared
    with

        -(f P)' + (g_inv P)'' / 2 - U P.

    Two private steps do the work: _diffuse pushes the density through
    the kernel and checks its mass, and _residual weights the result by
    exp(-U dt) and measures it against the operator; fp_convergence
    calls the same two. The kernel step walks the target grid in blocks
    of _BLOCK_ROWS rows.
    A block keeps only the source columns whose centers x + f(x) dt lie
    within cut = sqrt(2 var _UNDERFLOW_ARG) of its rows, var = g_inv dt;
    every entry left out has exp of an argument below -_UNDERFLOW_ARG,
    which is exactly 0.0. Inside the band, exp is called only where its
    result is a normal double: an entry whose argument is at or below
    -_NORMAL_ARG = -1022 ln 2 is 0.0, which skips np.exp's slow path
    (over 100 times its normal cost) for subnormal results. Those are
    below 2.3e-308 and leave fp_convergence's sums byte-identical, so
    the step equals the full n x n kernel's mat-vec up to summation
    order, except in a row far from every center whose entries are all
    subnormal or zero: it reads 0.0 where the full kernel gives at most
    a few 1e-308 (drift -200 x at dt = 5e-3 zeroes 14 entries of at
    most 2.7e-309). A block's rows are computed in slices of
    _SLICE_ROWS over its band, O(_SLICE_ROWS n) floats at a time.

    ``potential`` maps a grid point to the scalar U (or a
    PotentialEvaluation); pass None for U = 0. A potential that is
    neither, or returns anything else, raises ValidationError; a nan U
    is carried to the result. The model must be 1-D
    and the density finite and nonnegative on the grid, or
    ValidationError is raised. Raises MassLoss when the
    unweighted kernel quadrature loses more than 1e-4 of the mass,
    which signals a grid too small for the diffusion scale.
    """
    if model.dim != 1:
        raise ValidationError(f"kernel residual check needs a 1-D model, got dim {model.dim}")
    dt, density = _reals(dt, "dt", 0), _finite(density, "density", 1)
    if not 0 < dt <= 1e-2:
        raise ValidationError(f"kernel residual check expects 0 < dt <= 1e-2; got {dt}")
    if density.shape != (grid.n,):
        raise ValidationError("density must be sampled on the grid")
    if np.any(density < 0):
        raise ValidationError("density must be nonnegative")
    g_inv = float(model.g_inv[0, 0])
    drift = _drift_on_grid(model, grid)
    u = _potential_on_grid(potential, grid)
    return _residual(grid, density, _diffuse(grid, density, drift, g_inv, dt), drift, g_inv, u, dt)


def _drift_on_grid(model: ItoProcessModel, grid: Grid1D) -> np.ndarray:
    # The 1-D model's drift at step 0, read through its float form.
    drift_floats = engine._floats(model.drift, "drift", 1)
    return np.array([drift_floats([xi], 0)[0] for xi in grid.points().tolist()])


def _potential_on_grid(potential, grid: Grid1D) -> np.ndarray:
    # U on the grid; zero for None.
    if potential is None:
        return np.zeros(grid.n)
    u, outside = _potential_values(potential, grid.points()[:, None])
    if np.any(outside):
        raise ValidationError("potential undefined on part of the grid")
    return u


def _trapezoid(grid: Grid1D) -> np.ndarray:
    # Trapezoid weights; spectrally accurate for smooth decaying integrands.
    quad_w = np.full(grid.n, grid.spacing)
    quad_w[0] = quad_w[-1] = grid.spacing / 2.0
    return quad_w


def _diffuse(grid: Grid1D, density: np.ndarray, drift: np.ndarray, g_inv: float, dt: float) -> np.ndarray:
    """The density one banded kernel step later, before the potential's weight.

    fokker_planck_residual's first step: it depends on the drift and dt
    only, so cases that differ in U alone can share it. Each row slice
    keeps its block's band, so a row's dot product is the one a gemv
    over the whole block takes; a narrower band would change the
    columns, and so the bits, of some rows' sums. Raises MassLoss as
    fokker_planck_residual documents.
    """
    x = grid.points()
    quad_w = _trapezoid(grid)
    var = g_inv * dt
    centers = x + drift * dt
    weighted = quad_w * density
    # The band is a mask, not a search: a drift may fold the centers.
    # A nan center fails both comparisons and is kept, and its nan
    # argument fails arg <= -_NORMAL_ARG and is exponentiated, so a nan
    # drift still reaches the result. arg is built in place:
    # d^2 / (-2 var) is -(d^2) / (2 var) bit for bit.
    cut = np.sqrt(2 * var * _UNDERFLOW_ARG)
    norm = np.sqrt(2 * np.pi * var)
    diffused = np.empty(grid.n)
    for start in range(0, grid.n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, grid.n)
        cols = np.flatnonzero(~((centers < x[start] - cut) | (centers > x[stop - 1] + cut)))
        band, band_weights = centers[cols], weighted[cols]
        for lo in range(start, stop, _SLICE_ROWS):
            hi = min(lo + _SLICE_ROWS, stop)
            kernel = np.subtract.outer(x[lo:hi], band)
            np.square(kernel, out=kernel)
            kernel /= -2 * var
            tiny = kernel <= -_NORMAL_ARG
            np.exp(kernel, out=kernel, where=~tiny)
            kernel[tiny] = 0.0
            kernel /= norm
            diffused[lo:hi] = kernel @ band_weights

    mass_in = float(quad_w @ density)
    mass_out = float(quad_w @ diffused)
    if abs(mass_out - mass_in) > 1e-4 * max(mass_in, 1e-300):
        raise MassLoss(
            f"kernel quadrature changed the mass by {abs(mass_out - mass_in):.3g} "
            f"(relative {abs(mass_out / mass_in - 1):.3g}); enlarge the grid"
        )
    return diffused


def _residual(
    grid: Grid1D, density: np.ndarray, diffused: np.ndarray, drift: np.ndarray, g_inv: float, u: np.ndarray, dt: float
) -> float:
    # fokker_planck_residual's second step: weight _diffuse's result by
    # exp(-U dt) and take the L2 norm of the increment minus the operator.
    h = grid.spacing
    quad_w = _trapezoid(grid)
    evolved = np.exp(-u * dt) * diffused

    increment = (evolved - density) / dt
    rhs = (
        -_derivative(drift * density, h, 1)
        + 0.5 * _derivative(g_inv * density, h, 2)
        - u * density
    )
    residual = increment - rhs
    return float(np.sqrt(quad_w @ residual**2))


# ---------------------------------------------------------------------------
# Reference algebra: the update in precision form and the two identities.

def precision_form(
    belief: engine.GaussianBelief, pot: PotentialEvaluation, dt: float
) -> tuple[engine.GaussianBelief, engine.NormalizationDiagnostic]:
    """engine.update's posterior and normalization through the precision matrix; the reference form.

    With P = cov^-1 + H^T curvature H dt, the posterior covariance is
    P^-1 and the mean moves along the preconditioned force direction:
    mean' = mean - P^-1 (dV/dx) dt with dV/dx = -H^T grad_l.

    By the determinant identity log|S| - log|sigma_nu / dt| = log|cov| + log|P|, so

        log_n = (log|cov| + log|P|) / 2 + script_n dt
        script_n = V - (H^T grad_l)^T P^-1 (H^T grad_l) dt / 2.

    Every inverse, solve and log-determinant here comes from one factor
    of cov and one of P. The algebra is _precision_update's, which the
    identity suite runs on stacks of instances; this is its one-instance
    form.
    """
    mean, cov, log_n, script_n = _precision_update(
        belief.mean, belief.cov, pot.H, pot.curvature, pot.grad_l, pot.value, dt
    )
    updated = engine.GaussianBelief(mean=mean, cov=cov, step=belief.step, tag="updated")
    return updated, engine.NormalizationDiagnostic(log_n=float(log_n), script_n=float(script_n))


def _precision_update(mean, cov, h, curvature, grad_l, value, dt) -> tuple:
    """precision_form's algebra on arrays with any number of leading axes.

    mean (..., m), cov (..., m, m), h (..., k, m), curvature (..., k, k),
    grad_l (..., k), and value and dt (...). Returns the posterior mean
    and covariance, log_n and script_n, each with the same leading axes.
    Every matrix product, factorization and solve runs per instance on
    the same LAPACK or BLAS routine as for one instance, so each
    instance's result has the same bits as alone.
    """
    dt = np.asarray(dt, dtype=float)
    eye = np.broadcast_to(np.eye(cov.shape[-1]), cov.shape)
    h_t = h.swapaxes(-1, -2)
    low_cov = linalg.spd_cholesky(cov)
    cov_inv = linalg.symmetrize(linalg._cholesky_solve(low_cov, eye))
    low = linalg.spd_cholesky(linalg.symmetrize(cov_inv + h_t @ curvature @ h * dt[..., None, None]))
    post_cov = linalg.symmetrize(linalg._cholesky_solve(low, eye))
    force = h_t @ grad_l[..., None]
    post_mean = mean + (post_cov @ force)[..., 0] * dt[..., None]
    script_n = value - 0.5 * dt * (force.swapaxes(-1, -2) @ linalg._cholesky_solve(low, force))[..., 0, 0]
    log_det_cov, log_det_p = (
        2.0 * np.sum(np.log(np.diagonal(f, axis1=-2, axis2=-1)), axis=-1) for f in (low_cov, low)
    )
    log_n = 0.5 * (log_det_cov + log_det_p) + script_n * dt
    return post_mean, post_cov, log_n, script_n


def woodbury_inverse(a_inv: np.ndarray, b: np.ndarray, d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(A + B D^-1 C)^-1 from A^-1, by the matrix inversion lemma.

    Returns A^-1 - A^-1 B (D + C A^-1 B)^-1 C A^-1. The inner solve is
    done in the (usually smaller) dimension of D. A^-1 (..., n, n), B
    (..., n, k), D (..., k, k) and C (..., k, n) are read through
    process._finite, stacks of them as arrays whose leading axes
    broadcast, or ValidationError is raised; a stack gives a stack of
    inverses, each symmetrized where it is symmetric to within
    rounding. Raises Singular when an inner matrix cannot be inverted.
    """
    args = ((a_inv, "A^-1"), (b, "B"), (d, "D"), (c, "C"))
    a_inv, b, d, c = (_finite(v, label, max(v.ndim, 2) if isinstance(v, np.ndarray) else 2) for v, label in args)
    n, k = a_inv.shape[-1], d.shape[-1]
    try:
        np.broadcast_shapes(*(v.shape[:-2] for v in (a_inv, b, d, c)))
        fits = [v.shape[-2:] for v in (a_inv, b, d, c)] == [(n, n), (n, k), (k, k), (k, n)]
    except ValueError:
        fits = False
    if not fits:
        raise ValidationError(f"A^-1 {a_inv.shape}, B {b.shape}, D {d.shape} and C {c.shape} do not fit")
    inner = d + c @ a_inv @ b
    try:
        x = np.linalg.solve(inner, c @ a_inv)
    except np.linalg.LinAlgError as exc:
        raise Singular("inner matrix D + C A^-1 B is singular") from exc
    out = a_inv - a_inv @ b @ x
    symmetric = np.isclose(out, out.swapaxes(-1, -2), rtol=1e-8, atol=1e-12).all(axis=(-2, -1))
    return np.where(symmetric[..., None, None], linalg.symmetrize(out), out)


# ---------------------------------------------------------------------------
# Randomized identity suite.

def _spd_draws(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # One SPD draw's generator calls: an n x n standard normal block, then n eigenvalues.
    return rng.standard_normal((n, n)), rng.uniform(0.3, 3.0, size=n)


def _spd_from(normals: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    # Q diag(eigs) Q^T, Q from the QR of normals, for one draw or a stack.
    q, _ = np.linalg.qr(normals)
    return linalg.symmetrize(q @ (eigs[..., None] * np.eye(eigs.shape[-1])) @ q.swapaxes(-1, -2))


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - b| / max(max |a|, max |b|, 1e-30) for each instance of two stacks.

    The maxima run over all axes but the first. The scale is picked as
    Python's max() picks it, so a nan max |a| is kept and a nan max |b|
    is passed over.
    """
    axes = tuple(range(1, a.ndim))
    top_a, top_b = (np.max(np.abs(v), axis=axes) for v in (a, b))
    scale = np.where(top_b > top_a, top_b, top_a)
    scale = np.where(1e-30 > scale, 1e-30, scale)
    return np.max(np.abs(a - b), axis=axes) / scale


# identity_suite's checks, in the order of validation.json's worst values.
_CHECKS = ("forms_mean", "forms_cov", "cov_two_forms", "determinant", "gauge")


def identity_suite(
    seed: int = 0,
    trials: int = 500,
) -> dict:
    """Randomized verification of the update algebra.

    Per trial (random dims 1..6, well-conditioned SPD inputs) checks:

      a. engine.update (gain form) and the precision form's update agree,
      b. the precision form's covariance P^-1 agrees with the inversion
         lemma's,
      c. the determinant identity, through the normalization:
         engine.update takes log|S| with S = sigma_nu/dt + H cov H^T,
         the precision form log|cov| + log|P| with P = cov^-1 + H^T curv H dt,
         and the two log_n agree,
      d. adding a constant to V leaves mean and covariance unchanged
         and shifts log_n by exactly that constant times dt.

    ``seed`` must be a non-negative whole number and ``trials`` a whole
    number >= 0 (both read through process._whole), or ValidationError
    is raised. Every trial's inputs are drawn first, in trial order, and
    grouped by (m, k) as they are drawn. engine.update, the code under
    test, runs once per trial and check, its two updates of a trial kept
    side by side; the reference side (the SPD inputs' QR,
    _precision_update, woodbury_inverse and the relative errors) runs on
    one stack per (m, k), which gives each trial the bits it would get
    alone. A group's five errors are computed as arrays, one column per
    check, and written into the trial x check table at once.

    A check fails when its relative error is not <= 1e-8, so a nan
    error fails too and is kept as that check's worst. The gauge error
    is the largest of its mean, covariance and log_n parts, and nan when
    any part is nan. Failures are
    reported, never raised: the result is validation.json's identity
    section, {"trials", "failures", "worst", "passed"}, where each
    failure names its trial, check, error and dims (m, k), in trial
    order, and passed means at least one trial and no failure.
    """
    seed = _whole(seed, "seed", 0, "a non-negative whole number")
    trials = _whole(trials, "trials", 0, "a whole number >= 0 that one array of errors holds", _MAX_ENTRIES // len(_CHECKS))
    rng = np.random.default_rng(seed)
    # Each trial's draws, grouped by (m, k) as they are drawn: the trial,
    # cov's normals and eigenvalues, the curvature's, h, grad_l, value, dt and mean.
    groups, dims = {}, []
    for trial in range(trials):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        cov_draws = _spd_draws(rng, m)
        curvature_draws = _spd_draws(rng, k)
        h = rng.standard_normal((k, m))
        if trial % 50 == 1:
            h = np.zeros((k, m))  # degenerate case stays in rotation
        grad_l = rng.standard_normal(k)
        value = float(rng.normal())
        dt = float(rng.choice([0.25, 0.5, 1.0]))
        mean = rng.standard_normal(m)
        dims.append((m, k))
        groups.setdefault((m, k), []).append((trial, *cov_draws, *curvature_draws, h, grad_l, value, dt, mean))

    errors = np.empty((trials, len(_CHECKS)))  # trial x check, in _CHECKS order
    for (m, k), group in groups.items():
        members, cov_normals, cov_eigs, curv_normals, curv_eigs, h, grad_l, values, dts, mean = map(np.array, zip(*group))
        cov, curvature = _spd_from(cov_normals, cov_eigs), _spd_from(curv_normals, curv_eigs)
        # Each trial's two updates side by side: as drawn, then with V shifted by 7.25.
        updates = []
        for i, (value, dt) in enumerate(zip(values.tolist(), dts.tolist())):
            belief = engine.GaussianBelief._trusted(mean[i], cov[i], 0, "predicted")
            pot = PotentialEvaluation._trusted(np.zeros(k), value, grad_l[i], h[i], curvature[i], np.zeros((m, m)))
            moved = PotentialEvaluation._trusted(pot.l, value + 7.25, grad_l[i], h[i], curvature[i], pot.counter_curvature)
            updates.append(engine.update(belief, pot, dt) + engine.update(belief, moved, dt))
        gain, n0, shifted, n1 = zip(*updates)
        ga_mean, gb_mean = (np.array([b.mean for b in out]) for out in (gain, shifted))
        ga_cov, gb_cov = (np.array([b.cov for b in out]) for out in (gain, shifted))
        log_n0, log_n1 = (np.array([d.log_n for d in out]) for out in (n0, n1))

        pr_mean, pr_cov, pr_log_n, _ = _precision_update(mean, cov, h, curvature, grad_l, values, dts)
        wood = woodbury_inverse(cov, h.swapaxes(-1, -2), linalg.spd_inverse(curvature) / dts[:, None, None], h)
        gauge_n = np.abs((log_n1 - log_n0) - 7.25 * dts) / np.maximum(1.0, np.abs(log_n0))
        errors[members] = np.column_stack((
            _rel(ga_mean, pr_mean),
            _rel(ga_cov, pr_cov),
            _rel(pr_cov, wood),
            np.abs(log_n0 - pr_log_n) / np.maximum(1.0, np.abs(pr_log_n)),
            np.maximum(np.maximum(_rel(ga_mean, gb_mean), _rel(ga_cov, gb_cov)), gauge_n),
        ))

    failures = []
    worst = dict.fromkeys(_CHECKS, 0.0)
    for trial, errs in enumerate(errors.tolist()):
        for name, err in zip(_CHECKS, errs):
            if err > worst[name] or math.isnan(err):
                worst[name] = err
            if not err <= 1e-8:
                failures.append({"trial": trial, "check": name, "error": err, "dims": dims[trial]})
    return {"trials": trials, "failures": failures, "worst": worst, "passed": trials > 0 and not failures}


# ---------------------------------------------------------------------------
# Report sections of `sqc validate`.

def quadrature_checks() -> dict:
    """Engine moments against the quadrature oracle on fixed instances.

    Each instance's potential is built once by potential._bound: the
    engine updates with the closure's evaluation at the prior mean, and
    the oracle integrates V from the closure's float form. The integrand
    (_integrand) also carries the closure's column form, so each
    quadrature pass evaluates V at all its nodes in one call, with the
    float form's bits; calling the integrand at one node still runs the
    float form.
    """
    checks = {}

    # name: (prior mean, prior cov, target d, weights sigma_nu_inv, dt)
    quadratic = {
        "quadratic_1d": ([0.0], [[1.0]], [1.0], [[1.0]], 1.0),
        "quadratic_2d": ([0.3, -0.2], [[1.0, 0.3], [0.3, 0.7]], [1.0, 0.0], [[2.0, 0.0], [0.0, 0.5]], 0.5),
    }
    for name, (mean0, cov0, d, s_inv, dt) in quadratic.items():
        belief = engine.GaussianBelief(mean=mean0, cov=cov0, step=0, tag="predicted")
        penalty = _bound("quadratic_penalty", s_inv)
        upd, diag = engine.update(belief, penalty(belief.mean, d), dt)
        mean, cov, log_norm = weighted_gaussian_moments(belief.mean, belief.cov, _integrand(penalty, d), dt)
        checks[name] = {
            "mean_err": float(np.max(np.abs(upd.mean - mean))),
            "cov_err": float(np.max(np.abs(upd.cov - cov))),
            "log_norm_err": abs(diag.log_n + log_norm),
            "tol": 1e-8,
        }

    barrier = _bound("log_barrier", [10.0, 10.0])
    mean_b = np.array([1.0, 1.0])
    cov_b = 0.01 * np.eye(2)
    belief_b = engine.GaussianBelief(mean=mean_b, cov=cov_b, step=0, tag="predicted")
    upd_b, _ = engine.update(belief_b, barrier(mean_b, 0), 1.0)
    mean_q, _, _ = weighted_gaussian_moments(mean_b, cov_b, _integrand(barrier, 0), 1.0)
    checks["barrier_expansion"] = {
        "mean_rel_err": float(np.max(np.abs(upd_b.mean - mean_q) / np.abs(mean_q))),
        "tol": 0.05,
    }

    for entry in checks.values():
        entry["passed"] = all(
            v <= entry["tol"] for k, v in entry.items() if k.endswith("err")
        )
    return checks


def _integrand(potential, t):
    # x -> V alone from a _bound closure's float form, without building
    # its arrays, with the closure's column form at t as ``.columns``.
    integrand = lambda x: potential.floats(x.tolist(), t)[0]
    integrand.columns = lambda cols: potential.columns(cols, t)
    return integrand


def fp_convergence() -> dict:
    """Residual halving study for the three canonical 1-D cases.

    Each case's residual is fokker_planck_residual's, from its two
    steps. The drift is evaluated once per model and each (drift, dt)
    pair diffused once: constant_potential differs from free_diffusion
    in U alone, so the two share one model and its four diffusions,
    and the study makes 8 kernel passes, not 12.
    """
    grid = Grid1D(-9.0, 9.0, 2048)
    x = grid.points()
    density = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    dts = [1e-2, 5e-3, 2.5e-3, 1.25e-3]

    def model_with(kind, params):
        drift, jac = make_drift(kind, params, 1)
        return ItoProcessModel(dim=1, drift=drift, drift_jacobian=jac, g_inv=[[1.0]], dt=1.0)

    models = {"zero": model_with("zero", None), "linear": model_with("linear", {"A": [[-1.0]]})}
    cases = {
        "free_diffusion": ("zero", None),
        "linear_drift": ("linear", None),
        "constant_potential": ("zero", lambda x: 0.5),
    }
    # model: (g_inv, drift on the grid, the density diffused at each dt)
    steps = {}
    for kind, model in models.items():
        g_inv, drift = float(model.g_inv[0, 0]), _drift_on_grid(model, grid)
        steps[kind] = g_inv, drift, [_diffuse(grid, density, drift, g_inv, dt) for dt in dts]
    out = {}
    for name, (kind, potential) in cases.items():
        g_inv, drift, diffused = steps[kind]
        u = _potential_on_grid(potential, grid)
        residuals = [_residual(grid, density, d, drift, g_inv, u, dt) for d, dt in zip(diffused, dts)]
        ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
        out[name] = {
            "dts": dts,
            "residuals": residuals,
            "ratios": ratios,
            "passed": all(1.5 <= r <= 3.0 for r in ratios),
        }
    return out
