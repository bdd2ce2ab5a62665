import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from sqc import linalg, oracle
from sqc.errors import NotPositiveDefinite, Singular


def test_symmetrize():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    out = linalg.symmetrize(m)
    np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(out, out.T)


def test_spd_cholesky_reconstructs():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        a = random_spd(rng, n)
        low = linalg.spd_cholesky(a)
        np.testing.assert_allclose(low @ low.T, a, atol=1e-12)
        assert np.allclose(np.triu(low, 1), 0.0)


def test_spd_cholesky_rejects_indefinite():
    # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        linalg.spd_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_spd_cholesky_jitter_rescues_semidefinite():
    # Rank-1 matrix: plain factorization fails, the one-shot diagonal
    # bump must bring it back.
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    low = linalg.spd_cholesky(a)
    np.testing.assert_allclose(low @ low.T, a, atol=1e-8)


def test_spd_solve_matches_dense_solve():
    rng = np.random.default_rng(1)
    a = random_spd(rng, 4)
    b = rng.standard_normal((4, 3))
    np.testing.assert_allclose(linalg.spd_solve(a, b), np.linalg.solve(a, b), atol=1e-10)


def test_spd_inverse_roundtrip():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 3)
    inv = linalg.spd_inverse(a)
    np.testing.assert_allclose(a @ inv, np.eye(3), atol=1e-12)
    assert np.array_equal(inv, inv.T)


def test_spd_logdet_matches_slogdet():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 5)
    sign, logdet = np.linalg.slogdet(a)
    assert sign == 1.0
    assert linalg.spd_logdet(a) == pytest.approx(logdet, abs=1e-12)


def test_woodbury_frozen_diagonal_case():
    # A = diag(2, 3), B = e1, C = e1^T, D = 1:
    # A + B D^-1 C = diag(3, 3), so the result is I/3.
    a_inv = np.diag([0.5, 1.0 / 3.0])
    b = np.array([[1.0], [0.0]])
    c = np.array([[1.0, 0.0]])
    d = np.array([[1.0]])
    out = oracle.woodbury_inverse(a_inv, b, d, c)
    np.testing.assert_allclose(out, np.eye(2) / 3.0, atol=1e-14)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 6), k=st.integers(1, 6))
def test_woodbury_matches_direct_inverse(seed, m, k):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, m)
    d = random_spd(rng, k)
    b = rng.standard_normal((m, k))
    direct = np.linalg.inv(a + b @ np.linalg.solve(d, b.T))
    wood = oracle.woodbury_inverse(np.linalg.inv(a), b, d, b.T)
    np.testing.assert_allclose(wood, direct, rtol=1e-8, atol=1e-10)


def test_woodbury_singular_inner_matrix():
    a_inv = np.eye(2)
    b = np.array([[1.0], [0.0]])
    c = np.array([[1.0, 0.0]])
    d = np.array([[-1.0]])  # D + C A^-1 B = 0
    with pytest.raises(Singular):
        oracle.woodbury_inverse(a_inv, b, d, c)


def test_det_identity_frozen_blocks():
    # [[2, 1], [1, 3]] has determinant 5 = (2 - 1/3) * 3 = 2 * (3 - 1/2).
    err = oracle.det_product_identity_check(
        np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[3.0]])
    )
    assert err < 1e-12


def test_det_identity_random_blocks():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, k = rng.integers(1, 6, size=2)
        a = random_spd(rng, int(m))
        d = random_spd(rng, int(k))
        b = rng.standard_normal((int(m), int(k)))
        c = rng.standard_normal((int(k), int(m)))
        assert oracle.det_product_identity_check(a, b, c, d) < 1e-8


def test_det_identity_requires_invertible_corner():
    with pytest.raises(Singular):
        oracle.det_product_identity_check(
            np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1)
        )
