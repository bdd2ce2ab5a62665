"""Independent reference arithmetic for the benchmark's correctness checks.

Plain numpy, written from the paper's difference equations and sharing
no code with `sqc`. Every record of a run is recomputed from the
previous record's state and covariance, so the recomputations of one
run are independent of each other and run as one batch over records:

    prediction   mean' = x + f_t(x) dt,  cov' = F cov F^T + g_inv dt,
                 F = I + (df/dx) dt, forced Van der Pol drift f;
    update       S = sigma_nu / dt + H cov' H^T (gain form),
                 mean'' = mean' + cov' H^T S^-1 sigma_nu grad_l,
                 cov''  = cov' - cov' H^T S^-1 H cov';
    log_n        log|S|/2 - log|sigma_nu|/2 + (k/2) log dt + script_n dt,
                 script_n = V - (H^T grad_l)^T P^-1 (H^T grad_l) dt / 2,
                 P = cov'^-1 + H^T sigma_nu^-1 H dt (precision form);
    sample       x'' = mean'' + chol(cov'') z_t, one standard_normal(m)
                 draw per step from the run's seed;
    control      u = R^-1 B^T (B R^-1 B^T)^-1 shift.

The textbook EKF and the Gaussian log-density check `sqc filter`.
"""

from __future__ import annotations

import math

import numpy as np

# Forced Van der Pol constants of the paper's benchmark; a scenario's
# drift params override them by name.
VDP_DEFAULTS = {"scale": 0.005, "forcing": 3.0, "omega": 0.005}


def _mat(a) -> np.ndarray:
    return np.asarray(a, dtype=float)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _solve_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(a, b[..., None])[..., 0]


def vdp_drift(x: np.ndarray, t: np.ndarray, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Forced Van der Pol drift and Jacobian for a batch of states (N, 2)."""
    p = {**VDP_DEFAULTS, **params}
    scale, forcing, omega = p["scale"], p["forcing"], p["omega"]
    x1, x2 = x[:, 0], x[:, 1]
    sin = np.sin(omega * t)
    radial = 1.0 - x1 * x1 - x2 * x2
    f = np.stack([scale * x2, scale * (radial * x2 - x1 + forcing * x2 * sin)], axis=1)
    jac = np.zeros((len(x), 2, 2))
    jac[:, 0, 1] = scale
    jac[:, 1, 0] = scale * (-2.0 * x1 * x2 - 1.0)
    jac[:, 1, 1] = scale * (-2.0 * x2 * x2 + radial + forcing * sin)
    return f, jac


def predict(mean: np.ndarray, cov: np.ndarray, t: np.ndarray, process: dict) -> tuple[np.ndarray, np.ndarray]:
    """One Euler moment step from step t to t + 1 for a batch of beliefs."""
    drift = process["drift"]
    if drift["kind"] != "vanderpol_forced":
        raise ValueError(f"reference knows only the vanderpol_forced drift, got {drift['kind']!r}")
    dt = float(process.get("dt", 1.0))
    f, jac = vdp_drift(mean, t, drift.get("params") or {})
    trans = np.eye(2) + jac * dt
    cov = trans @ cov @ np.swapaxes(trans, -1, -2) + _mat(process["g_inv"]) * dt
    return mean + f * dt, _sym(cov)


def _target(target: dict, t: np.ndarray, dim: int) -> np.ndarray:
    params = target["params"]
    if target["kind"] == "constant":
        return np.broadcast_to(_mat(params["value"]), (len(t), dim))
    amp = params.get("amplitude", 0.2)
    rate = params.get("rate", 0.01)
    center = params.get("center", 2500.0)
    level = amp * (1.0 + np.tanh(rate * (t - center)))
    return np.repeat(level[:, None], dim, axis=1)


def potential(pot: dict, mean: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, grad_l, H) of the penalty or double-well potential at a batch of means."""
    w = np.linalg.inv(_mat(pot["params"]["sigma_nu"]))
    d = _target(pot["target"], t, mean.shape[1])
    if pot["kind"] == "quadratic_penalty":
        l = mean - d
        h = np.broadcast_to(-np.eye(mean.shape[1]), (len(mean),) + (mean.shape[1],) * 2)
    elif pot["kind"] == "double_well":
        l = mean * mean - d * d
        h = np.zeros((len(mean), mean.shape[1], mean.shape[1]))
        idx = np.arange(mean.shape[1])
        h[:, idx, idx] = -2.0 * mean
    else:
        raise ValueError(f"reference knows no potential kind {pot['kind']!r}")
    grad = l @ w.T
    return 0.5 * np.einsum("ni,ni->n", l, grad), grad, h


def weighted_update(mean, cov, value, grad, h, sigma_nu, dt):
    """Gain-form update, shift and log normalization for a batch of beliefs."""
    sigma_nu = _mat(sigma_nu)
    ht = np.swapaxes(h, -1, -2)
    s = _sym(sigma_nu / dt + h @ cov @ ht)
    gain = np.swapaxes(np.linalg.solve(s, h @ cov), -1, -2)  # cov H^T S^-1
    shift = np.einsum("nij,nj->ni", gain, grad @ sigma_nu.T)
    cov_post = _sym(cov - gain @ h @ cov)
    precision = np.linalg.inv(cov) + ht @ np.linalg.inv(sigma_nu) @ h * dt
    force = np.einsum("nji,nj->ni", h, grad)
    script_n = value - 0.5 * dt * np.einsum("ni,ni->n", force, _solve_vec(precision, force))
    k = h.shape[1]
    log_n = (
        0.5 * np.linalg.slogdet(s)[1]
        - 0.5 * np.linalg.slogdet(sigma_nu)[1]
        + 0.5 * k * math.log(dt)
        + script_n * dt
    )
    return mean + shift, cov_post, shift, log_n


def input_map(control: dict | None, dim: int) -> np.ndarray:
    """Least-effort map R^-1 B^T (B R^-1 B^T)^-1 from a mean shift to u."""
    b = np.eye(dim) if control is None else _mat(control["B"])
    r = np.eye(dim) if control is None else _mat(control["R"])
    r_inv_bt = np.linalg.solve(r, b.T)
    return r_inv_bt @ np.linalg.inv(b @ r_inv_bt)


def closed_loop_records(scenario: dict, seed: int, steps: np.ndarray, xs: np.ndarray, covs: np.ndarray) -> dict:
    """Recompute every record of a closed-loop run from the one before it.

    ``steps``, ``xs`` and ``covs`` are the run's logged step indices,
    states and posterior covariances. Returns the recomputed x, mean,
    cov, V, log_n and u, one row per record.
    """
    init = scenario["initial"]
    n = len(steps)
    prev_x = np.vstack([_mat(init["mean"])[None, :], xs[:-1]])
    prev_cov = np.concatenate([_mat(init["cov"])[None], covs[:-1]])
    mean, cov = predict(prev_x[1:], prev_cov[1:], steps[:-1].astype(float), scenario["process"])
    mean = np.vstack([prev_x[:1], mean])
    cov = np.concatenate([prev_cov[:1], cov])
    t = steps.astype(float)
    pot = scenario["potential"]
    value, grad, h = potential(pot, mean, t)
    dt = float(scenario["process"].get("dt", 1.0))
    post_mean, post_cov, shift, log_n = weighted_update(
        mean, cov, value, grad, h, pot["params"]["sigma_nu"], dt
    )
    if scenario.get("mode", "sampled") == "sampled":
        draws = np.random.default_rng(seed).standard_normal((n, mean.shape[1]))
        x = post_mean + np.einsum("nij,nj->ni", np.linalg.cholesky(post_cov), draws)
    else:
        x = post_mean
    u = shift @ input_map(scenario.get("control"), mean.shape[1]).T
    return {"x": x, "mean": post_mean, "cov": post_cov, "V": value, "logN": log_n, "u": u}


def ekf_rows(scenario: dict, obs: dict, steps: np.ndarray, means: np.ndarray, covs: np.ndarray) -> dict:
    """Recompute each row of a filter run from the row before it.

    A textbook EKF: predict through the process model, then, at an
    observed step, K = P C^T (sigma_nu + C P C^T)^-1 and the Gaussian
    log-density of the innovation. Unobserved steps keep the prediction
    and a nan log-likelihood. ``obs`` maps step -> observation vector.
    """
    init = scenario["initial"]
    pot = scenario["potential"]
    sigma_nu = _mat(pot["params"]["sigma_nu"])
    omap = pot["params"]["map"]
    dim = len(init["mean"])
    c = np.eye(dim) if omap["kind"] == "identity" else _mat(omap["C"])
    mean, cov = predict(means[:-1], covs[:-1], steps[:-1].astype(float), scenario["process"])
    mean = np.vstack([_mat(init["mean"])[None, :], mean])
    cov = np.concatenate([_mat(init["cov"])[None], cov])

    seen = np.array([int(s) in obs for s in steps])
    loglik = np.full(len(steps), np.nan)
    if seen.any():
        y = np.array([obs[int(s)] for s in steps[seen]])
        m, p = mean[seen], cov[seen]
        innov = y - m @ c.T
        s = _sym(sigma_nu + c @ p @ c.T)
        gain = np.swapaxes(np.linalg.solve(s, c @ p), -1, -2)
        mean[seen] = m + np.einsum("nij,nj->ni", gain, innov)
        cov[seen] = _sym(p - gain @ c @ p)
        k = c.shape[0]
        quad = np.einsum("ni,ni->n", innov, _solve_vec(s, innov))
        loglik[seen] = -0.5 * (quad + np.linalg.slogdet(s)[1] + k * math.log(2.0 * math.pi))
    return {"mean": mean, "cov": cov, "loglik": loglik}


def rel_err(a: np.ndarray, b: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """Per-row error max|a - b| / scale, rows along axis 0.

    The default scale is the row's largest reference entry, so a
    component near zero is judged against its row.
    """
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    if scale is None:
        scale = np.abs(b).max(axis=1)
    return np.abs(a - b).max(axis=1) / np.maximum(scale, 1e-300)
