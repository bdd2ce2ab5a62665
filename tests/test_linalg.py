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


@pytest.mark.parametrize("a", [np.zeros((2, 2)), -np.eye(2)], ids=["zero", "minus_identity"])
def test_spd_cholesky_skips_retry_without_positive_trace(monkeypatch, a):
    # JITTER * trace/dim would bump the diagonal by 0 or less, so the
    # retry could not help: it is not attempted.
    calls = []
    cholesky = np.linalg.cholesky

    def counting(m):
        calls.append(m)
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    with pytest.raises(NotPositiveDefinite, match="not positive definite.*trace"):
        linalg.spd_cholesky(a)
    assert len(calls) == 1


def test_spd_cholesky_jitter_rescues_semidefinite():
    # Rank-1 matrix: plain factorization fails, the one-shot diagonal
    # bump must bring it back.
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    low = linalg.spd_cholesky(a)
    np.testing.assert_allclose(low @ low.T, a, atol=1e-8)


def test_stacks_factor_and_solve_as_their_matrices_do():
    # A stack (n, m, m) gets each matrix's own bits. When one matrix
    # needs the jittered retry, the stack falls back to factoring each
    # matrix on its own; an indefinite one still raises.
    rng = np.random.default_rng(4)
    stack = np.array([random_spd(rng, 3) for _ in range(4)])
    rhs = rng.standard_normal((4, 3, 1))
    low = linalg.spd_cholesky(stack)
    solved = linalg._cholesky_solve(low, rhs)
    for i in range(4):
        assert np.array_equal(low[i], linalg.spd_cholesky(stack[i]))
        assert np.array_equal(solved[i][:, 0], linalg._cholesky_solve(low[i], rhs[i][:, 0]))
        assert np.array_equal(linalg.symmetrize(stack)[i], linalg.symmetrize(stack[i]))
    stack[2] = np.ones((3, 3))
    low = linalg.spd_cholesky(stack)
    for i in range(4):
        assert np.array_equal(low[i], linalg.spd_cholesky(stack[i]))
    stack[1] = -np.eye(3)
    with pytest.raises(NotPositiveDefinite):
        linalg.spd_cholesky(stack)


def test_spd_solve_matches_dense_solve():
    # numpy 2 reads a 1-D right-hand side of np.linalg.solve as one
    # vector and a 2-D one as a matrix; spd_solve takes both.
    rng = np.random.default_rng(1)
    a = random_spd(rng, 4)
    for shape in [(4, 3), (4,)]:
        b = rng.standard_normal(shape)
        x = linalg.spd_solve(a, b)
        assert x.shape == shape
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-10)


def test_spd_inverse_roundtrip():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 3)
    inv = linalg.spd_inverse(a)
    np.testing.assert_allclose(a @ inv, np.eye(3), atol=1e-12)
    assert np.array_equal(inv, inv.T)


def test_gaussian_log_density_matches_slogdet_and_inverse():
    # Row-wise for a 2-D diff, and a scalar for a 1-D one.
    rng = np.random.default_rng(3)
    a = random_spd(rng, 5)
    sign, logdet = np.linalg.slogdet(a)
    assert sign == 1.0
    diff = rng.standard_normal((4, 5))
    quad = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(a), diff)
    expected = -0.5 * (quad + logdet + 5 * np.log(2 * np.pi))
    out = linalg.gaussian_log_density(diff, a)
    assert out.shape == (4,)
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    assert linalg.gaussian_log_density(diff[2], a) == pytest.approx(expected[2], rel=1e-12)


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
