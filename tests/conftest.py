"""Shared helpers for the test suite."""

import types

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
    """Make every kernel engine._kernel hands out count calls of one stage."""
    calls = []
    compiled = engine._kernel

    def kernel(m, k):
        plain = compiled(m, k)
        original = getattr(plain, stage)

        def counted(*args):
            calls.append((m, k))
            return original(*args)

        return types.SimpleNamespace(**{**vars(plain), stage: counted})

    monkeypatch.setattr(engine, "_kernel", kernel)
    return calls
