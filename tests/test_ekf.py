import numpy as np
import pytest
from scipy import stats

from conftest import counting_kernels, random_spd, rel_err
from sqc import ekf, engine, process
from sqc.errors import NotPositiveDefinite, ValidationError
from sqc.potential import eval_quadratic_penalty


def linear_model(a, dim, g_inv):
    drift, jac = process.make_drift("linear", {"A": a}, dim)
    return process.ItoProcessModel(dim=dim, drift=drift, drift_jacobian=jac, g_inv=g_inv)


def linear_obs_model(c, sigma_nu):
    c = np.atleast_2d(c)
    return ekf.ObservationModel(h=lambda x, t: c @ x, h_jacobian=lambda x, t: c, sigma_nu=sigma_nu)


def test_observation_potential_signs():
    obs = linear_obs_model(np.array([[2.0, 0.0]]), np.array([[0.5]]))
    pot = ekf.observation_potential(obs, np.array([3.0]), np.array([1.0, 5.0]), 0)
    np.testing.assert_allclose(pot.l, [1.0])  # y - h = 3 - 2
    np.testing.assert_allclose(pot.H, [[2.0, 0.0]])  # plain observation jacobian
    np.testing.assert_allclose(pot.grad_l, [2.0])
    assert pot.value == pytest.approx(1.0)  # l^2 / (2 * 0.5)


def test_ekf_step_equals_potential_update():
    # Two independent routes to the same posterior: the innovation
    # arithmetic and the generic update fed the observation potential.
    rng = np.random.default_rng(21)
    for _ in range(25):
        m, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c = rng.standard_normal((k, m))
        obs = ekf.ObservationModel(
            h=lambda x, t, c=c: np.tanh(c @ x),
            h_jacobian=lambda x, t, c=c: (1.0 - np.tanh(c @ x) ** 2)[:, None] * c,
            sigma_nu=random_spd(rng, k),
        )
        model = linear_model(0.1 * rng.standard_normal((m, m)), m, random_spd(rng, m))
        pred = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
        y = rng.standard_normal(k)

        a = ekf.ekf_step(pred, model, obs, y, 0)
        pot = ekf.observation_potential(obs, y, pred.mean, 0)
        b = engine.update(pred, pot, 1.0)
        assert rel_err(a.mean, b.mean) < 1e-10
        assert rel_err(a.cov, b.cov) < 1e-10


def test_ekf_step_predicts_updated_beliefs_first():
    model = linear_model(np.array([[-0.5]]), 1, np.array([[0.1]]))
    obs = linear_obs_model(np.array([[1.0]]), np.array([[0.2]]))
    updated = engine.GaussianBelief(mean=[2.0], cov=[[0.3]], step=4, tag="updated")
    out = ekf.ekf_step(updated, model, obs, np.array([1.0]), 5)
    assert out.step == 5
    pred = engine.predict(updated, model)
    ref = ekf.ekf_step(pred, model, obs, np.array([1.0]), 5)
    np.testing.assert_array_equal(out.mean, ref.mean)


def naive_kalman(f, q, c, r, mean0, cov0, ys):
    """Textbook filter in the plain inverse form, kept free of library code."""
    means, covs, eye = [], [], np.eye(len(mean0))
    mean, cov = mean0.astype(float).copy(), cov0.astype(float).copy()
    for y in ys:
        s = c @ cov @ c.T + r
        gain = cov @ c.T @ np.linalg.inv(s)
        mean = mean + gain @ (y - c @ mean)
        cov = (eye - gain @ c) @ cov
        means.append(mean.copy())
        covs.append(cov.copy())
        mean = f @ mean
        cov = f @ cov @ f.T + q
    return means, covs


def filter_fixture(T=40, seed=17):
    a = np.array([[-0.1, 0.05], [0.0, -0.2]])
    g_inv = np.diag([0.02, 0.03])
    c = np.array([[1.0, 0.0]])
    sigma_nu = np.array([[0.04]])
    rng = np.random.default_rng(seed)
    x = np.array([0.5, -0.5])
    ys = []
    for t in range(T):
        ys.append(c @ x + np.sqrt(sigma_nu[0, 0]) * rng.standard_normal(1))
        x = x + a @ x + np.linalg.cholesky(g_inv) @ rng.standard_normal(2)
    return a, g_inv, c, sigma_nu, np.array(ys)


def test_run_filter_matches_textbook_kalman():
    a, g_inv, c, sigma_nu, ys = filter_fixture()
    model = linear_model(a, 2, g_inv)
    obs = linear_obs_model(c, sigma_nu)
    stream = ekf.ObservationStream(steps=np.arange(len(ys)), values=ys)
    initial = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), step=0, tag="predicted")

    beliefs, _ = ekf.filter_with_likelihood(model, obs, stream, initial)
    means, covs = naive_kalman(np.eye(2) + a, g_inv, c, sigma_nu, np.zeros(2), np.eye(2), ys)

    assert len(beliefs) == len(ys)
    for belief, mean, cov, s in zip(beliefs, means, covs, stream.steps):
        assert belief.step == s and belief.tag == "updated"
        assert rel_err(belief.mean, mean) < 1e-10
        assert rel_err(belief.cov, cov) < 1e-10


def test_marginal_likelihood_matches_scipy():
    rng = np.random.default_rng(23)
    c = rng.standard_normal((2, 3))
    obs = linear_obs_model(c, random_spd(rng, 2))
    belief = engine.GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    y = rng.standard_normal(2)

    log_marginal, log_weight = ekf.marginal_likelihood(belief, obs, y)
    s = obs.sigma_nu + c @ belief.cov @ c.T
    ref = stats.multivariate_normal.logpdf(y, mean=c @ belief.mean, cov=s)
    assert log_marginal == pytest.approx(ref, abs=1e-10)
    ref_at_mean = stats.multivariate_normal.logpdf(y, mean=c @ belief.mean, cov=obs.sigma_nu)
    assert log_weight == pytest.approx(ref_at_mean - ref, abs=1e-10)


def test_filter_with_likelihood_sparse_observations():
    a, g_inv, c, sigma_nu, ys = filter_fixture(T=12)
    model = linear_model(a, 2, g_inv)
    obs = linear_obs_model(c, sigma_nu)
    steps = np.array([2, 5, 11])
    stream = ekf.ObservationStream(steps=steps, values=ys[steps])
    initial = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), step=0, tag="predicted")

    beliefs, logliks = ekf.filter_with_likelihood(model, obs, stream, initial)
    assert len(beliefs) == 12
    for belief, loglik in zip(beliefs, logliks):
        if belief.step in steps:
            assert belief.tag == "updated" and np.isfinite(loglik)
        else:
            assert belief.tag == "predicted" and np.isnan(loglik)


def test_filter_loglik_matches_marginal_likelihood():
    # The filter takes each step's log marginal likelihood from the
    # update kernel's normalization; the textbook marginal_likelihood
    # and ekf_step at the same predicted belief must agree with it.
    rng = np.random.default_rng(29)
    c = rng.standard_normal((2, 3))
    obs = ekf.ObservationModel(
        h=lambda x, t: np.tanh(c @ x),
        h_jacobian=lambda x, t: (1.0 - np.tanh(c @ x) ** 2)[:, None] * c,
        sigma_nu=random_spd(rng, 2),
    )
    model = linear_model(0.1 * rng.standard_normal((3, 3)), 3, 0.05 * random_spd(rng, 3))
    steps = np.array([0, 1, 4, 5, 9, 15, 16])
    stream = ekf.ObservationStream(steps=steps, values=rng.standard_normal((len(steps), 2)))
    initial = engine.GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3), step=0, tag="predicted")

    beliefs, logliks = ekf.filter_with_likelihood(model, obs, stream, initial)
    assert len(beliefs) == 17
    by_step = stream.as_dict()
    for i, (belief, loglik) in enumerate(zip(beliefs, logliks)):
        if belief.step not in by_step:
            assert np.isnan(loglik)
            continue
        pred = initial if i == 0 else engine.predict(beliefs[i - 1], model)
        y = by_step[belief.step]
        assert loglik == pytest.approx(ekf.marginal_likelihood(pred, obs, y)[0], abs=1e-10)
        ref = ekf.ekf_step(pred, model, obs, y, belief.step)
        assert rel_err(belief.mean, ref.mean) < 1e-10
        assert rel_err(belief.cov, ref.cov) < 1e-10


def test_filter_factors_curvature_once_per_call(monkeypatch):
    # sigma_nu_inv is the curvature of every observation potential; it is
    # constant, so one filter call has the generated kernel factor it
    # once however many observations it absorbs.
    calls = counting_kernels(monkeypatch, "factor")
    a, g_inv, c, sigma_nu, ys = filter_fixture(T=80)
    obs = linear_obs_model(c, sigma_nu)
    steps = np.array([s for s in range(80) if s % 7 not in (3, 4)])
    assert len(steps) >= 50 and steps[-1] == 79
    stream = ekf.ObservationStream(steps=steps, values=ys[steps])
    initial = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), step=0, tag="predicted")
    for _ in range(2):
        calls.clear()
        beliefs, _ = ekf.filter_with_likelihood(linear_model(a, 2, g_inv), obs, stream, initial)
        assert len(beliefs) == 80 and len(calls) == 1

    with pytest.raises(ValueError):
        obs.sigma_nu_inv[0, 0] = 1.0


def test_filter_requires_predicted_initial():
    a, g_inv, c, sigma_nu, ys = filter_fixture(T=3)
    stream = ekf.ObservationStream(steps=np.arange(3), values=ys)
    bad = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), tag="updated")
    with pytest.raises(ValidationError):
        ekf.filter_with_likelihood(linear_model(a, 2, g_inv), linear_obs_model(c, sigma_nu), stream, bad)


def test_observation_model_refuses_singular_sigma_nu():
    # A jittered factor of this matrix would give a sigma_nu_inv with
    # entries near 5e12; the strict factor refuses it.
    with pytest.raises(NotPositiveDefinite):
        ekf.ObservationModel(
            h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(2), sigma_nu=[[0.001, 0.001], [0.001, 0.001]]
        )


def test_observation_stream_must_increase():
    with pytest.raises(ValidationError):
        ekf.ObservationStream(steps=np.array([0, 2, 2]), values=np.zeros((3, 1)))
    with pytest.raises(ValidationError):
        ekf.ObservationStream(steps=np.array([0, 1]), values=np.zeros((3, 1)))


def test_read_observations_roundtrip(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("step,y1,y2\n0,1.5,-2.0\n3,0.25,0.125\n4.0,1e-3,-0\n")
    stream = ekf.read_observations(path)
    assert len(stream) == 3
    np.testing.assert_array_equal(stream.steps, [0, 3, 4])
    np.testing.assert_allclose(stream.values, [[1.5, -2.0], [0.25, 0.125], [1e-3, 0.0]])


def test_read_observations_rejects_bad_header(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t,y1\n0,1.0\n")
    with pytest.raises(ValidationError, match="header"):
        ekf.read_observations(path)
    path.write_text("step,y2,y1\n0,1.0,2.0\n")
    with pytest.raises(ValidationError, match="header"):
        ekf.read_observations(path)
