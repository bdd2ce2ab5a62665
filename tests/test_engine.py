import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd, rel_err
from sqc import control, ekf, engine, oracle, process
from sqc.errors import NonFinite
from sqc.potential import PotentialEvaluation, eval_quadratic_penalty


def linear_model(a, dim, g_inv, dt=1.0):
    drift, jac = process.make_drift("linear", {"A": a}, dim)
    return process.ItoProcessModel(dim=dim, drift=drift, drift_jacobian=jac, g_inv=g_inv, dt=dt)


def random_potential(rng, m, k, h_zero=False):
    h = np.zeros((k, m)) if h_zero else rng.standard_normal((k, m))
    grad = rng.standard_normal(k)
    return PotentialEvaluation(
        l=np.zeros(k),
        value=float(rng.normal()),
        grad_l=grad,
        H=h,
        curvature=random_spd(rng, k),
        counter_curvature=np.zeros((m, m)),
    )


def test_belief_validates():
    belief = engine.GaussianBelief(mean=[1.0], cov=[[2.0]])
    assert belief.dim == 1 and belief.tag == "predicted"
    with pytest.raises(ValueError):
        engine.GaussianBelief(mean=[0.0], cov=[[1.0]], tag="posterior")
    with pytest.raises(NonFinite):
        engine.GaussianBelief(mean=[np.inf], cov=[[1.0]])


def test_predict_frozen_linear_case():
    # A = [[0,1],[0,0]], dt = 0.5, prior cov I, g_inv = 0.1 I:
    # mean (1,2) -> (2,2); F = [[1,.5],[0,1]] gives
    # F F^T + 0.05 I = [[1.3, 0.5], [0.5, 1.05]].
    model = linear_model(np.array([[0.0, 1.0], [0.0, 0.0]]), 2, 0.1 * np.eye(2), dt=0.5)
    belief = engine.GaussianBelief(mean=[1.0, 2.0], cov=np.eye(2), step=3)
    pred = engine.predict(belief, model)
    assert pred.step == 4 and pred.tag == "predicted"
    np.testing.assert_allclose(pred.mean, [2.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(pred.cov, [[1.3, 0.5], [0.5, 1.05]], atol=1e-15)


def test_update_scalar_closed_form():
    # Standard normal prior, weight exp(-(x-1)^2/2): completing the
    # square gives the posterior N(1/2, 1/2) and weight mass
    # exp(-1/4)/sqrt(2), so log_n = 1/4 + log(2)/2.
    belief = engine.GaussianBelief(mean=[0.0], cov=[[1.0]])
    pot = eval_quadratic_penalty(belief.mean, np.array([1.0]), np.array([[1.0]]))
    upd = engine.update(belief, pot, 1.0)
    assert upd.tag == "updated"
    np.testing.assert_allclose(upd.mean, [0.5], atol=1e-14)
    np.testing.assert_allclose(upd.cov, [[0.5]], atol=1e-14)
    diag = engine.normalization(belief, pot, 1.0)
    assert diag.log_n == pytest.approx(0.25 + 0.5 * np.log(2.0), abs=1e-13)


def test_update_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
        pot = random_potential(rng, m, k)
        dt = float(rng.choice([0.25, 0.5, 1.0]))
        gain = engine.update(belief, pot, dt)
        prec = oracle.update_precision_form(belief, pot, dt)
        assert rel_err(gain.mean, prec.mean) < 1e-10
        assert rel_err(gain.cov, prec.cov) < 1e-10


def test_step_core_matches_reference_pair():
    # The update kernel must stay pinned to the oracle's precision-form
    # update and normalization, which share no code with it.
    rng = np.random.default_rng(12)
    for _ in range(30):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
        pot = random_potential(rng, m, k, h_zero=rng.random() < 0.1)
        dt = float(rng.choice([0.25, 1.0]))
        ref = oracle.update_precision_form(belief, pot, dt)
        ref_diag = oracle.normalization_precision_form(belief, pot, dt)
        mean, cov, shift, log_n, script_n = engine._step_core(belief.mean, belief.cov, pot, dt)
        assert rel_err(mean, ref.mean) < 1e-11
        assert rel_err(cov, ref.cov) < 1e-11
        np.testing.assert_allclose(shift, mean - belief.mean, atol=1e-12)
        assert log_n == pytest.approx(ref_diag.log_n, rel=1e-9, abs=1e-10)
        assert script_n == pytest.approx(ref_diag.script_n, rel=1e-9, abs=1e-10)


def test_gauge_invariance():
    rng = np.random.default_rng(13)
    belief = engine.GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    pot = random_potential(rng, 3, 2)
    shifted = PotentialEvaluation(
        l=pot.l, value=pot.value + 4.5, grad_l=pot.grad_l, H=pot.H,
        curvature=pot.curvature, counter_curvature=pot.counter_curvature,
    )
    dt = 0.5
    a, b = engine.update(belief, pot, dt), engine.update(belief, shifted, dt)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.cov, b.cov)
    na, nb = engine.normalization(belief, pot, dt), engine.normalization(belief, shifted, dt)
    assert nb.log_n - na.log_n == pytest.approx(4.5 * dt, abs=1e-12)


def test_zero_h_is_inert():
    # A potential with no state coupling leaves the belief alone and
    # contributes exactly value * dt to the log normalization.
    rng = np.random.default_rng(14)
    belief = engine.GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    pot = PotentialEvaluation(
        l=np.zeros(2), value=0.7, grad_l=rng.standard_normal(2),
        H=np.zeros((2, 3)), curvature=np.eye(2), counter_curvature=np.zeros((3, 3)),
    )
    upd = engine.update(belief, pot, 0.5)
    np.testing.assert_allclose(upd.mean, belief.mean, atol=1e-15)
    np.testing.assert_allclose(upd.cov, belief.cov, atol=1e-14)
    diag = engine.normalization(belief, pot, 0.5)
    assert diag.log_n == pytest.approx(0.35, abs=1e-13)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 5), k=st.integers(1, 5))
def test_posterior_covariance_never_exceeds_prior(seed, m, k):
    rng = np.random.default_rng(seed)
    belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
    pot = random_potential(rng, m, k)
    upd = engine.update(belief, pot, float(rng.choice([0.25, 1.0])))
    gap = np.linalg.eigvalsh(belief.cov - upd.cov)
    assert gap.min() > -1e-9
    assert np.linalg.eigvalsh(upd.cov).min() > 0.0


def test_sample_posterior_deterministic_and_calibrated():
    belief = engine.GaussianBelief(mean=[1.0, -1.0], cov=[[0.5, 0.2], [0.2, 0.4]], tag="updated")
    a = engine.sample_posterior(belief, np.random.default_rng(3))
    b = engine.sample_posterior(belief, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)

    rng = np.random.default_rng(4)
    draws = np.array([engine.sample_posterior(belief, rng) for _ in range(20_000)])
    np.testing.assert_allclose(draws.mean(axis=0), belief.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), belief.cov, atol=0.02)


def test_step_belief_mode_composes_predict_and_update():
    model = linear_model(np.array([[-0.1]]), 1, np.array([[0.2]]))
    pot_fn = lambda x, t: eval_quadratic_penalty(x, np.array([1.0]), np.array([[4.0]]))
    belief = engine.GaussianBelief(mean=[0.3], cov=[[0.8]], step=2, tag="updated")
    nxt, record = engine.step(belief, model, pot_fn, mode="belief")

    pred = engine.predict(belief, model)
    ref = engine.update(pred, pot_fn(pred.mean, pred.step), model.dt)
    assert nxt.step == 3 and nxt.tag == "updated"
    np.testing.assert_allclose(nxt.mean, ref.mean, atol=1e-13)
    np.testing.assert_allclose(nxt.cov, ref.cov, atol=1e-13)
    assert record.step == 3
    np.testing.assert_array_equal(record.x, nxt.mean)


def test_step_consumes_initial_predicted_belief_in_place():
    model = linear_model(np.array([[0.0]]), 1, np.array([[1.0]]))
    pot_fn = lambda x, t: eval_quadratic_penalty(x, np.array([0.0]), np.array([[1.0]]))
    initial = engine.GaussianBelief(mean=[2.0], cov=[[1.0]], step=0, tag="predicted")
    nxt, record = engine.step(initial, model, pot_fn, mode="belief")
    assert nxt.step == 0 and record.step == 0
    np.testing.assert_allclose(nxt.mean, [1.0])  # shrunk halfway to the origin


def test_step_guards():
    model = linear_model(np.array([[0.0]]), 1, np.array([[1.0]]))
    pot_fn = lambda x, t: eval_quadratic_penalty(x, np.array([0.0]), np.array([[1.0]]))
    belief = engine.GaussianBelief(mean=[0.0], cov=[[1.0]], step=5)
    with pytest.raises(ValueError, match="does not match"):
        engine.step(belief, model, pot_fn, t=4, mode="belief")
    with pytest.raises(ValueError, match="mode"):
        engine.step(belief, model, pot_fn, mode="mean_field")
    with pytest.raises(ValueError, match="generator"):
        engine.step(belief, model, pot_fn)


def test_step_sampled_mode_reproducible():
    model = linear_model(np.array([[-0.05, 0.0], [0.0, -0.05]]), 2, 0.1 * np.eye(2))
    pot_fn = lambda x, t: eval_quadratic_penalty(x, np.zeros(2), 10.0 * np.eye(2))
    initial = engine.GaussianBelief(mean=[1.0, 1.0], cov=np.eye(2), step=0, tag="predicted")

    def run(seed):
        rng = np.random.default_rng(seed)
        belief, xs = initial, []
        for _ in range(20):
            belief, record = engine.step(belief, model, pot_fn, rng=rng, mode="sampled")
            xs.append(record.x)
        return np.array(xs)

    np.testing.assert_array_equal(run(0), run(0))
    assert not np.array_equal(run(0), run(1))


def test_update_paths_run_through_step_core(monkeypatch):
    # One update kernel: the public update and normalization, the
    # closed loop and the observation filter each call _step_core once
    # per update, so no second implementation can take over a path.
    calls = []
    kernel = engine._step_core

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(engine, "_step_core", counted)
    model = linear_model(np.array([[-0.1]]), 1, np.array([[0.2]]))
    pot_fn = lambda x, t: eval_quadratic_penalty(x, np.array([1.0]), np.array([[4.0]]))
    belief = engine.GaussianBelief(mean=[0.3], cov=[[0.8]], step=0, tag="predicted")
    pot = pot_fn(belief.mean, 0)

    engine.update(belief, pot, 1.0)
    engine.normalization(belief, pot, 1.0)
    assert len(calls) == 2

    cfg = control.ControlConfig(B=np.eye(1), R=np.eye(1))
    control.run_closed_loop(model, pot_fn, belief, cfg, 6, None, mode="belief")
    assert len(calls) == 2 + 7

    obs = ekf.ObservationModel(h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(1), sigma_nu=[[0.5]])
    stream = ekf.ObservationStream(steps=[0, 2, 3], values=[[0.1], [0.2], [0.3]])
    ekf.filter_with_likelihood(model, obs, stream, belief)
    assert len(calls) == 2 + 7 + 3
