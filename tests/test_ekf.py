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
        b, _ = engine.update(pred, pot, 1.0)
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

    mean, cov, loglik = ekf.filter_with_likelihood(model, obs, stream, initial)
    means, covs = naive_kalman(np.eye(2) + a, g_inv, c, sigma_nu, np.zeros(2), np.eye(2), ys)

    assert len(mean) == len(ys)
    for i, (ref_mean, ref_cov, s) in enumerate(zip(means, covs, stream.steps)):
        # Row i is step initial.step + i, updated where loglik is finite.
        assert initial.step + i == s and np.isfinite(loglik[i])
        assert rel_err(mean[i], ref_mean) < 1e-10
        assert rel_err(cov[i], ref_cov) < 1e-10


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

    mean, cov, logliks = ekf.filter_with_likelihood(model, obs, stream, initial)
    assert len(mean) == len(cov) == len(logliks) == 12
    for i, loglik in enumerate(logliks):
        step = initial.step + i
        if step in steps:
            assert np.isfinite(loglik)
            continue
        # An unobserved row is the bare prediction from the row before
        # (row 0 is the initial belief itself), up to the rounding by
        # which the kernel's predict and engine.predict differ.
        assert np.isnan(loglik)
        if i == 0:
            ref = initial
        else:
            ref = engine.predict(engine.GaussianBelief(mean=mean[i - 1], cov=cov[i - 1], step=step - 1), model)
        assert rel_err(mean[i], ref.mean) < 1e-14
        assert rel_err(cov[i], ref.cov) < 1e-14


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

    mean, cov, logliks = ekf.filter_with_likelihood(model, obs, stream, initial)
    assert len(mean) == 17
    by_step = {int(s): y for s, y in zip(stream.steps, stream.values)}
    for i, loglik in enumerate(logliks):
        step = initial.step + i
        if step not in by_step:
            assert np.isnan(loglik)
            continue
        if i == 0:
            pred = initial
        else:
            pred = engine.predict(engine.GaussianBelief(mean=mean[i - 1], cov=cov[i - 1], step=step - 1), model)
        y = by_step[step]
        assert loglik == pytest.approx(ekf.marginal_likelihood(pred, obs, y)[0], abs=1e-10)
        ref = ekf.ekf_step(pred, model, obs, y, step)
        assert rel_err(mean[i], ref.mean) < 1e-10
        assert rel_err(cov[i], ref.cov) < 1e-10


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
        mean, _, _ = ekf.filter_with_likelihood(linear_model(a, 2, g_inv), obs, stream, initial)
        assert len(mean) == 80 and len(calls) == 1

    with pytest.raises(ValueError):
        obs.sigma_nu_inv[0, 0] = 1.0


def test_filter_requires_predicted_initial():
    a, g_inv, c, sigma_nu, ys = filter_fixture(T=3)
    stream = ekf.ObservationStream(steps=np.arange(3), values=ys)
    bad = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), tag="updated")
    with pytest.raises(ValidationError):
        ekf.filter_with_likelihood(linear_model(a, 2, g_inv), linear_obs_model(c, sigma_nu), stream, bad)


def test_filter_refuses_observations_outside_its_steps():
    # Initial step 2, horizon 5: observations at steps 1 and 8 lie outside
    # the filtered steps 2..5 and are refused, not dropped. So is a
    # horizon before the initial step, which would filter no step.
    a, g_inv, c, sigma_nu, ys = filter_fixture(T=3)
    model, obs = linear_model(a, 2, g_inv), linear_obs_model(c, sigma_nu)
    initial = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), step=2, tag="predicted")
    stream = ekf.ObservationStream(steps=[1, 3, 8], values=ys)
    with pytest.raises(ValidationError, match="observation at step 1 is before step 2"):
        ekf.filter_with_likelihood(model, obs, stream, initial, horizon=5)
    stream = ekf.ObservationStream(steps=[3, 8], values=ys[:2])
    with pytest.raises(ValidationError, match="observation at step 8 is beyond horizon 5"):
        ekf.filter_with_likelihood(model, obs, stream, initial, horizon=5)
    mean, _, loglik = ekf.filter_with_likelihood(model, obs, stream, initial, horizon=8)
    assert len(mean) == 7 and np.isfinite(loglik).sum() == 2
    empty = ekf.ObservationStream(steps=np.empty(0, dtype=int), values=np.empty((0, 1)))
    with pytest.raises(ValidationError, match="horizon 1 is before step 2"):
        ekf.filter_with_likelihood(model, obs, empty, initial, horizon=1)


@pytest.mark.parametrize("width", [1, 3])
def test_filter_refuses_observations_of_the_wrong_width(width):
    # A 2-D observation model refuses a stream of 1 or 3 values per
    # step with the CLI's message, not a bare unpacking ValueError.
    a, g_inv, _, _, _ = filter_fixture(T=3)
    model, obs = linear_model(a, 2, g_inv), linear_obs_model(np.eye(2), 0.5 * np.eye(2))
    initial = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), step=0, tag="predicted")
    stream = ekf.ObservationStream(steps=[0, 1], values=np.full((2, width), 0.1))
    with pytest.raises(ValidationError, match=f"has {width} value columns; the scenario observes 2"):
        ekf.filter_with_likelihood(model, obs, stream, initial)


def test_filter_builds_no_beliefs(monkeypatch):
    # The filter returns the step loop's columns as arrays; no per-step
    # GaussianBelief is built on the way.
    built = []

    class CountingBelief(engine.GaussianBelief):
        def __post_init__(self):
            built.append(self.step)
            super().__post_init__()

        @classmethod
        def _trusted(cls, mean, cov, step, tag):
            built.append(step)
            return super()._trusted(mean, cov, step, tag)

    a, g_inv, c, sigma_nu, ys = filter_fixture(T=30)
    model, obs = linear_model(a, 2, g_inv), linear_obs_model(c, sigma_nu)
    stream = ekf.ObservationStream(steps=np.arange(0, 30, 2), values=ys[::2])
    initial = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2), step=0, tag="predicted")
    monkeypatch.setattr(engine, "GaussianBelief", CountingBelief)
    filtered = ekf.filter_with_likelihood(model, obs, stream, initial)
    assert built == []
    mean, _, _ = filtered
    assert len(mean) == 29
    # The counter bites: the array-form predict builds one belief.
    engine.predict(initial, model)
    assert built == [1]


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
