"""Shared helpers for the test suite."""

import numpy as np

from sqc import engine
from sqc.potential import PotentialEvaluation, eval_quadratic_penalty


def random_spd(rng, n, eig_low=0.3, eig_high=3.0):
    """Well-conditioned random SPD matrix with eigenvalues in a band."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(eig_low, eig_high, size=n)
    return 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)


def rel_err(a, b):
    """Max absolute difference over the joint magnitude scale."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return float(np.max(np.abs(a - b)) / scale)


def counting_kernels(monkeypatch):
    """Make every kernel stage that engine._compiled hands out count its calls by its (m, k, sampled)."""
    calls = []
    compiled = engine._compiled

    def counting(*dims):
        original = compiled(*dims)

        def counted(*args):
            calls.append(dims)
            return original(*args)

        return counted

    monkeypatch.setattr(engine, "_compiled", counting)
    return calls


def counting_curvature(unpacks):
    """A tuple type for a curvature's float form that appends to ``unpacks`` each time it is unpacked.

    The kernel unpacks a curvature only to factor it; comparing two by
    value does not iterate them.
    """

    class Curvature(tuple):
        def __iter__(self):
            unpacks.append(len(self))
            return super().__iter__()

    return Curvature


def observation_potential(obs_model, y, x_hat, t):
    """Quadratic potential in the innovation l = y - h(x), through the public constructor."""
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=float))
    # The penalty at y with target h(x) has l = y - h(x), V and dV/dl,
    # and H = -(dl/dx) = +dh/dx.
    pen = eval_quadratic_penalty(y, obs_model.h(x_hat, t), obs_model.sigma_nu_inv)
    return PotentialEvaluation(
        l=pen.l, value=pen.value, grad_l=pen.grad_l, H=obs_model.h_jacobian(x_hat, t),
        curvature=obs_model.sigma_nu_inv, counter_curvature=np.zeros((len(x_hat), len(x_hat))),
    )
