"""Shared helpers for the test suite."""

import numpy as np

from sqc import engine


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


def counting_kernels(monkeypatch, stage):
    """Make every kernel stage named ``stage`` that engine._compiled hands out count its calls."""
    calls = []
    compiled = engine._compiled

    def counting(name, *dims):
        original = compiled(name, *dims)
        if name != stage:
            return original

        def counted(*args):
            calls.append(dims)
            return original(*args)

        return counted

    monkeypatch.setattr(engine, "_compiled", counting)
    return calls
