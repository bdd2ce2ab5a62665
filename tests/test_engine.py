import gc
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_kernels, random_spd, rel_err
from sqc import control, ekf, engine, linalg, oracle, process
from sqc.errors import NonFinite, NotPositiveDefinite, ValidationError
from sqc.potential import PotentialEvaluation, eval_quadratic_penalty
from sqc.scenario import load_bundled


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
    with pytest.raises(ValidationError, match="unknown belief tag 'posterior'"):
        engine.GaussianBelief(mean=[0.0], cov=[[1.0]], tag="posterior")
    with pytest.raises(NonFinite):
        engine.GaussianBelief(mean=[np.inf], cov=[[1.0]])
    with pytest.raises(ValidationError, match=r"mean has shape \(2,\) and covariance \(3, 3\)"):
        engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(3))
    with pytest.raises(ValidationError, match=r"mean has shape \(1, 2\) and covariance \(1, 1\)"):
        engine.GaussianBelief(mean=[[0.5, 0.5]], cov=[[1.0]])


def test_step_loops_refuse_a_belief_of_another_dim():
    # A 2-D belief on a 3-D model is refused by engine._run, before any
    # step, for the closed loop and the filter alike.
    model = linear_model(-0.1 * np.eye(3), 3, np.eye(3))
    belief = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2))
    pot_fn = lambda x, t: eval_quadratic_penalty(x, np.zeros(3), np.eye(3))
    cfg = control.ControlConfig(B=np.eye(2), R=np.eye(2))
    with pytest.raises(ValidationError, match="initial belief has dim 2; the model has dim 3"):
        control.run_closed_loop(model, pot_fn, belief, cfg, 5, None, mode="belief")
    obs = ekf.ObservationModel(h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(3), sigma_nu=np.eye(3))
    stream = ekf.ObservationStream(steps=[0, 2], values=[[0.1, 0.2, 0.3], [0.0, 0.1, 0.2]])
    with pytest.raises(ValidationError, match="initial belief has dim 2; the model has dim 3"):
        ekf.filter_with_likelihood(model, obs, stream, belief)


def test_predict_refuses_a_belief_of_another_dim():
    # The public predict on the bundled double well's 2-D model: a 3-D
    # or 1-D belief used to fail inside the drift's unpacking.
    model = load_bundled("doublewell").build_model()
    for mean in ([0.5, 0.5, 0.5], [0.5]):
        belief = engine.GaussianBelief(mean=mean, cov=np.eye(len(mean)))
        with pytest.raises(ValidationError, match=f"belief has dim {len(mean)}; the model has dim 2"):
            engine.predict(belief, model)


def test_update_refuses_a_potential_of_the_right_size_and_wrong_shape():
    # H (1, 6) has the 6 entries of a (3, 2) H; read row-major it would
    # pass as one silently.
    belief = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2))
    pot = PotentialEvaluation(
        l=np.zeros(3), value=0.5, grad_l=np.ones(3), H=np.ones((1, 6)), curvature=np.eye(3), counter_curvature=np.zeros((2, 2))
    )
    with pytest.raises(ValidationError, match=r"H \(1, 6\) and curvature \(3, 3\) do not fit k = 3 on dim 2"):
        engine.update(belief, pot, 1.0)


@pytest.mark.parametrize("mode", ["sampled", "belief"])
def test_step_loop_refuses_a_potential_of_the_right_size_and_wrong_shape(mode):
    # H (1, 4) has the 4 entries of a (2, 2) H. The step loop used to
    # read it row-major and run on where update() refuses it; both now
    # refuse it through the one shape test.
    belief = engine.GaussianBelief(mean=[0.3, -0.2], cov=np.eye(2))

    def flat_h(x, t):
        p = eval_quadratic_penalty(x, np.zeros(2), np.eye(2))
        return PotentialEvaluation(
            l=p.l, value=p.value, grad_l=p.grad_l, H=p.H.reshape(1, 4), curvature=p.curvature,
            counter_curvature=p.counter_curvature,
        )

    misfit = r"potential grad_l \(2,\), H \(1, 4\) and curvature \(2, 2\) do not fit k = 2 on dim 2"
    with pytest.raises(ValidationError, match=misfit):
        engine.update(belief, flat_h(belief.mean, 0), 1.0)
    cfg = control.ControlConfig(B=np.eye(2), R=np.eye(2))
    model = linear_model(np.zeros((2, 2)), 2, np.eye(2))
    rng = np.random.default_rng(0) if mode == "sampled" else None
    with pytest.raises(ValidationError, match=misfit):
        control.run_closed_loop(model, flat_h, belief, cfg, 5, rng, mode=mode)


def test_update_and_step_loop_refuse_a_potential_that_does_not_fit():
    # A 3-D penalty on a 2-D belief, and a dt that is not positive and
    # finite, are ValidationErrors naming the sizes and dt.
    belief = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2))
    wide = lambda x, t: eval_quadratic_penalty(np.append(x, 0.0), np.zeros(3), np.eye(3))
    misfit = r"potential H \(9 entries\) and curvature \(9\) do not fit k = 3 on dim 2"
    with pytest.raises(ValidationError, match=misfit):
        engine.update(belief, wide(belief.mean, 0), 1.0)
    cfg = control.ControlConfig(B=np.eye(2), R=np.eye(2))
    with pytest.raises(ValidationError, match=misfit):
        control.run_closed_loop(linear_model(-0.1 * np.eye(2), 2, np.eye(2)), wide, belief, cfg, 5, None, mode="belief")
    fitting = eval_quadratic_penalty(belief.mean, np.zeros(2), np.eye(2))
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match=f"dt must be positive, finite and a number; got {dt}"):
            engine.update(belief, fitting, dt)


def test_update_and_step_loop_refuse_a_potential_with_no_constraint_entries():
    # k = 0 fits no update; it used to reach the kernel and fail to
    # compile its stage for k = 0 with a bare SyntaxError.
    belief = engine.GaussianBelief(mean=[0.0, 0.0], cov=np.eye(2))
    empty = PotentialEvaluation(
        l=np.zeros(0), value=0.0, grad_l=np.zeros(0), H=np.zeros((0, 2)), curvature=np.eye(0),
        counter_curvature=np.zeros((2, 2)),
    )
    misfit = r"potential H \(0 entries\) and curvature \(0\) do not fit k = 0 on dim 2 at step 0"
    with pytest.raises(ValidationError, match=misfit):
        engine.update(belief, empty, 1.0)
    cfg = control.ControlConfig(B=np.eye(2), R=np.eye(2))
    model = linear_model(-0.1 * np.eye(2), 2, np.eye(2))
    for mode, rng in (("belief", None), ("sampled", np.random.default_rng(0))):
        with pytest.raises(ValidationError, match=misfit):
            control.run_closed_loop(model, lambda x, t: empty, belief, cfg, 5, rng, mode=mode)


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
    upd, diag = engine.update(belief, pot, 1.0)
    assert upd.tag == "updated"
    np.testing.assert_allclose(upd.mean, [0.5], atol=1e-14)
    np.testing.assert_allclose(upd.cov, [[0.5]], atol=1e-14)
    assert diag.log_n == pytest.approx(0.25 + 0.5 * np.log(2.0), abs=1e-13)


def test_update_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
        pot = random_potential(rng, m, k)
        dt = float(rng.choice([0.25, 0.5, 1.0]))
        gain, _ = engine.update(belief, pot, dt)
        prec, _ = oracle.precision_form(belief, pot, dt)
        assert rel_err(gain.mean, prec.mean) < 1e-10
        assert rel_err(gain.cov, prec.cov) < 1e-10


def kernel_update(belief, pot, dt):
    """The generated kernel's factor and update stages on one belief.

    Returns (posterior mean, posterior cov, shift, log_n, script_n) as
    arrays and floats.
    """
    m, k = belief.dim, len(pot.grad_l)
    retries = [0]
    sig, hld = engine._compiled("factor", k)(pot.curvature.ravel().tolist(), retries)
    mean, cov, shift, log_n, script_n = engine._compiled("update", m, k)(
        belief.mean.tolist(), belief.cov.ravel().tolist(), pot.value, pot.grad_l.tolist(),
        pot.H.ravel().tolist(), sig, hld, 0.5 * k * math.log(dt), dt, belief.step, retries,
    )
    assert retries == [0]
    return np.array(mean), np.reshape(cov, (m, m)), np.array(shift), log_n, script_n


def test_step_core_matches_reference_pair():
    # The generated update kernel must stay pinned to the oracle's
    # precision-form update and normalization, which share no code with it.
    rng = np.random.default_rng(12)
    for _ in range(30):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
        pot = random_potential(rng, m, k, h_zero=rng.random() < 0.1)
        dt = float(rng.choice([0.25, 1.0]))
        ref, ref_diag = oracle.precision_form(belief, pot, dt)
        mean, cov, shift, log_n, script_n = kernel_update(belief, pot, dt)
        assert rel_err(mean, ref.mean) < 1e-11
        assert rel_err(cov, ref.cov) < 1e-11
        np.testing.assert_allclose(shift, mean - belief.mean, atol=1e-12)
        assert log_n == pytest.approx(ref_diag.log_n, rel=1e-9, abs=1e-10)
        assert script_n == pytest.approx(ref_diag.script_n, rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("h_zero", [False, True], ids=["dense_h", "zero_h"])
def test_kernel_matches_precision_form_for_every_shape(h_zero):
    # Every generated (m, k) kernel with m, k <= 6 against the oracle's
    # precision form, with the bounds of the reference-pair test above.
    rng = np.random.default_rng(15)
    for m in range(1, 7):
        for k in range(1, 7):
            belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
            pot = random_potential(rng, m, k, h_zero=h_zero)
            dt = float(rng.choice([0.25, 1.0]))
            ref, ref_diag = oracle.precision_form(belief, pot, dt)
            mean, cov, shift, log_n, script_n = kernel_update(belief, pot, dt)
            assert rel_err(mean, ref.mean) < 1e-11, (m, k)
            assert rel_err(cov, ref.cov) < 1e-11, (m, k)
            np.testing.assert_allclose(shift, mean - belief.mean, atol=1e-12)
            assert log_n == pytest.approx(ref_diag.log_n, rel=1e-9, abs=1e-10), (m, k)
            assert script_n == pytest.approx(ref_diag.script_n, rel=1e-9, abs=1e-10), (m, k)


def loop_step(mean, p, pot, z, retries):
    """One sampled step of the generated m = 2, k = 2 loop stage.

    The belief (mean, p) is updated with the float potential ``pot``
    and a state drawn with ``z``, as _run's first step, which is not
    predicted. Returns the stage's six row columns.
    """
    rows = ([], [], [], [], [], [])
    done = engine._compiled("loop", 2, 2, True)(
        iter(z), mean, p, pot, 0, None, None, None, engine._compiled("factor", 2),
        [0.0] * 4, 1.0, 1.0, 0.0, retries, rows,
    )
    assert done is None
    return rows


def test_kernel_cholesky_falls_back_to_jittered_factor():
    # With H = 0 the kernel factors S = sigma_nu / dt itself. An S of all
    # ones has second pivot 1 - 1 * 1 = 0, so the factor must be
    # spd_cholesky's jittered one, seen through log_n = log|S|/2 + ...,
    # and the run's count must show the retry. The loop stage's sample
    # takes the same fallback for a covariance of all ones, which an
    # update with H = 0 and unit curvature leaves as it is.
    update = engine._compiled("update", 2, 2)
    ones = np.ones((2, 2))
    low = linalg.spd_cholesky(ones)
    assert low[1, 1] > 0.0
    retries = [0]
    mean, cov, shift, log_n, _ = update(
        [0.5, -0.5], [1.0, 0.2, 0.2, 2.0], 0.3, [1.0, 2.0], [0.0] * 4, ones.ravel().tolist(),
        0.0, 0.0, 1.0, 0, retries,
    )
    assert retries == [1]
    assert log_n == pytest.approx(float(np.log(np.diag(low)).sum()) + 0.3, rel=1e-14)
    assert mean == (0.5, -0.5) and shift == (0.0, 0.0) and cov == (1.0, 0.2, 0.2, 2.0)

    z = [0.7, -1.1]
    unit = (0.3, (1.0, 2.0), (0.0,) * 4, (1.0, 0.0, 0.0, 1.0))
    x = loop_step([0.1, 0.2], ones.ravel().tolist(), unit, z, retries)[0]
    assert retries == [2]
    np.testing.assert_allclose(x, np.array([0.1, 0.2]) + low @ z, rtol=1e-14, atol=1e-14)


def test_kernel_indefinite_matrix_raises():
    indefinite = [1.0, 2.0, 2.0, 1.0]
    retries = [0]
    with pytest.raises(NotPositiveDefinite):
        engine._compiled("update", 2, 2)(
            [0.0, 0.0], [1.0, 0.0, 0.0, 1.0], 0.0, [1.0, 1.0], [0.0] * 4, indefinite, 0.0, 0.0, 1.0, 0, retries
        )
    with pytest.raises(NotPositiveDefinite):
        engine._compiled("factor", 2)(indefinite, retries)
    with pytest.raises(NotPositiveDefinite):
        loop_step([0.0, 0.0], indefinite, (0.0, (1.0, 1.0), (0.0,) * 4, (1.0, 0.0, 0.0, 1.0)), [0.1, 0.2], retries)
    assert retries == [0]


def test_import_and_scenario_load_compile_no_kernel():
    # Kernels and float forms compile on first use, so importing the
    # package and loading the scenarios (what the benchmark's set-up time
    # measures) compiles none. Building a potential compiles its float
    # form but no kernel. numpy is the only runtime dependency, so none
    # of this imports scipy.
    code = (
        "import sys\n"
        "import sqc, sqc.cli\n"
        "scenarios = [sqc.load_bundled(name) for name in sqc.scenario.BUNDLED_SCENARIOS]\n"
        "print(sqc.potential._form_factory.cache_info().currsize)\n"
        "print(sqc.process._matvec_factory.cache_info().currsize)\n"
        "for sc in scenarios:\n"
        "    sc.build_model(); sc.build_potential()\n"
        "print(sqc.engine._compiled.cache_info().currsize)\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(engine.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.split() == ["0", "0", "0", "False"]


def test_public_names_resolve():
    # Every name the package and each of its modules export exists, so
    # `from sqc.<module> import *` never meets a deleted function.
    import sqc

    modules = [importlib.import_module(f"sqc.{info.name}") for info in pkgutil.iter_modules(sqc.__path__)]
    assert len(modules) >= 9
    for module in [sqc] + modules:
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_gauge_invariance():
    rng = np.random.default_rng(13)
    belief = engine.GaussianBelief(mean=rng.standard_normal(3), cov=random_spd(rng, 3))
    pot = random_potential(rng, 3, 2)
    shifted = PotentialEvaluation(
        l=pot.l, value=pot.value + 4.5, grad_l=pot.grad_l, H=pot.H,
        curvature=pot.curvature, counter_curvature=pot.counter_curvature,
    )
    dt = 0.5
    (a, na), (b, nb) = engine.update(belief, pot, dt), engine.update(belief, shifted, dt)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.cov, b.cov)
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
    upd, diag = engine.update(belief, pot, 0.5)
    np.testing.assert_allclose(upd.mean, belief.mean, atol=1e-15)
    np.testing.assert_allclose(upd.cov, belief.cov, atol=1e-14)
    assert diag.log_n == pytest.approx(0.35, abs=1e-13)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 5), k=st.integers(1, 5))
def test_posterior_covariance_never_exceeds_prior(seed, m, k):
    rng = np.random.default_rng(seed)
    belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
    pot = random_potential(rng, m, k)
    upd, _ = engine.update(belief, pot, float(rng.choice([0.25, 1.0])))
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


def test_update_paths_run_through_step_core(monkeypatch):
    # One update kernel: the public update (posterior and normalization
    # together) calls the generated update stage once, and the closed
    # loop and the observation filter each run all their steps in one
    # call of the loop stage, whose source holds the update stage's
    # lines verbatim, so no second implementation can take over a path.
    updates = counting_kernels(monkeypatch, "update")
    loops = counting_kernels(monkeypatch, "loop")
    model = linear_model(np.array([[-0.1]]), 1, np.array([[0.2]]))
    pot_fn = lambda x, t: eval_quadratic_penalty(x, np.array([1.0]), np.array([[4.0]]))
    belief = engine.GaussianBelief(mean=[0.3], cov=[[0.8]], step=0, tag="predicted")
    pot = pot_fn(belief.mean, 0)

    engine.update(belief, pot, 1.0)
    assert updates == [(1, 1)] and loops == []

    cfg = control.ControlConfig(B=np.eye(1), R=np.eye(1))
    control.run_closed_loop(model, pot_fn, belief, cfg, 6, None, mode="belief")
    assert loops == [(1, 1, False)]

    obs = ekf.ObservationModel(h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(1), sigma_nu=[[0.5]])
    stream = ekf.ObservationStream(steps=[0, 2, 3], values=[[0.1], [0.2], [0.3]])
    ekf.filter_with_likelihood(model, obs, stream, belief)
    assert loops == [(1, 1, False)] * 2 and updates == [(1, 1)]

    # The update lines sit in the loop three levels deep (function, for,
    # else) and in the update stage one level deep; the prediction and
    # the sample are written only into the loop.
    for m, k, sampled in ((1, 1, False), (2, 2, True), (3, 2, True)):
        loop = "\n".join(engine._STAGES["loop"](m, k, sampled))
        update = "\n".join(engine._STAGES["update"](m, k))
        assert "\n".join(engine._indent(engine._update_lines(m, k), 3)) in loop
        assert "\n".join(engine._indent(engine._update_lines(m, k), 1)) in update
        assert "\n".join(engine._indent(engine._predict_lines(m), 3)) in loop
        assert ("\n".join(engine._indent(engine._sample_lines(m), 2)) in loop) == sampled


def test_step_loops_run_through_engine_run(monkeypatch):
    # One step loop: the closed loop and the observation filter each
    # hand all of their steps to a single engine._run call.
    calls = []
    run = engine._run

    def counted(*args):
        calls.append(args[3])
        return run(*args)

    monkeypatch.setattr(engine, "_run", counted)
    model = linear_model(np.array([[-0.1]]), 1, np.array([[0.2]]))
    pot_fn = lambda x, t: eval_quadratic_penalty(x, np.array([1.0]), np.array([[4.0]]))
    belief = engine.GaussianBelief(mean=[0.3], cov=[[0.8]], step=0, tag="predicted")

    cfg = control.ControlConfig(B=np.eye(1), R=np.eye(1))
    control.run_closed_loop(model, pot_fn, belief, cfg, 6, None, mode="belief")
    assert calls == [7]

    obs = ekf.ObservationModel(h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(1), sigma_nu=[[0.5]])
    stream = ekf.ObservationStream(steps=[0, 2, 3], values=[[0.1], [0.2], [0.3]])
    mean, _, _ = ekf.filter_with_likelihood(model, obs, stream, belief)
    assert calls == [7, 4] and len(mean) == 4


def test_run_extends_flat_float_columns(monkeypatch):
    # engine._run extends six flat float columns, so only floats
    # outlive a step, and hands them to engine._columns. The V column
    # counts the completed steps; x, mean and shift hold m entries per
    # step and cov m * m, so len(rows[0]) is m times too many. A run
    # that stops early must report its failed step from the V column
    # too.
    captured = []
    columns = engine._columns

    def capturing(rows, m):
        captured.append(rows)
        return columns(rows, m)

    def assert_flat(rows, m, steps):
        xs, means, covs, values, log_ns, shifts = rows
        assert all(type(v) is float for column in rows for v in column)
        assert len(values) == len(log_ns) == steps
        assert len(xs) == len(means) == len(shifts) == steps * m
        assert len(covs) == steps * m * m

    monkeypatch.setattr(engine, "_columns", capturing)
    sampled = control.run_scenario("penalty", overrides={"horizon": 300})
    assert sampled.completed and len(sampled.value) == 301
    assert_flat(captured[-1], 2, 301)

    model = linear_model(np.array([[-0.1, 0.2], [0.0, -0.3]]), 2, 0.05 * np.eye(2))
    obs = ekf.ObservationModel(h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(2), sigma_nu=0.5 * np.eye(2))
    stream = ekf.ObservationStream(steps=[0, 2, 3, 7], values=[[0.1, 0.0], [0.2, 0.1], [0.3, 0.1], [0.0, 0.4]])
    initial = engine.GaussianBelief(mean=[0.3, -0.2], cov=np.eye(2), step=0, tag="predicted")
    mean, _, loglik = ekf.filter_with_likelihood(model, obs, stream, initial)
    assert len(mean) == len(loglik) == 8 and sum(math.isnan(v) for v in loglik) == 4
    assert_flat(captured[-1], 2, 8)

    stopped = control.run_scenario("barrier", overrides={"horizon": 1000})
    assert not stopped.completed and "non-positive" in stopped.failure
    done = len(captured[-1][3])
    assert 0 < done < 1001 and stopped.failed_step == stopped.first_step + done
    assert_flat(captured[-1], 2, done)
    assert len(stopped.x) == len(stopped.value) == len(stopped.cov) == done


def test_stopped_runs_leave_no_reference_cycle():
    # engine._run returns the exception that stopped a run, and its
    # traceback refers to the callers' frames. The closed loop keeps
    # only its message and the filter raises it without keeping a
    # reference, so neither leaves the run's frames and rows to the
    # cyclic garbage collector.
    model = linear_model(np.array([[1e200]]), 1, np.array([[1.0]]))
    obs = ekf.ObservationModel(h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(1), sigma_nu=[[0.5]])
    stream = ekf.ObservationStream(steps=[0, 1, 2], values=[[0.1], [0.2], [0.3]])
    initial = engine.GaussianBelief(mean=[1e200], cov=[[1.0]], step=0, tag="predicted")

    def stop_both():
        assert not control.run_scenario("barrier", overrides={"horizon": 1000}).completed
        with np.errstate(over="ignore"), pytest.raises(NonFinite):
            ekf.filter_with_likelihood(model, obs, stream, initial, horizon=50)

    stop_both()
    gc.collect()
    gc.disable()
    try:
        stop_both()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_penalty_run_sets_off_no_garbage_collection():
    # The loop stage reads the run's draws from one flat list of floats
    # and extends flat float columns, so a 5001-step run leaves no
    # container alive past its step: started right after gc.collect(),
    # it sets off no collection of any generation.
    control.run_scenario("penalty", overrides={"horizon": 10})  # compiles the stages
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = control.run_scenario("penalty")
    finally:
        gc.callbacks.remove(count)
    assert result.completed and len(result.value) == 5001
    assert starts == []


def test_step_loop_refuses_an_h_that_changes_size_mid_run():
    # H fits (2, 2) until step 5, then has 3 columns on the 2-D state; the
    # curvature stays the same, so the loop factors nothing new there.
    # It used to fail with a bare "too many values to unpack". Likewise
    # a grad_l that grows to 3 entries at step 4 while H and the
    # curvature still fit k = 2: the message names grad_l.
    model = linear_model(-0.1 * np.eye(2), 2, 0.05 * np.eye(2))
    belief = engine.GaussianBelief(mean=[0.3, -0.2], cov=np.eye(2))

    def changing(first, **fields):
        def potential_fn(x, t):
            pot = eval_quadratic_penalty(x, np.zeros(2), np.eye(2))
            if t < first:
                return pot
            pieces = dict(
                l=pot.l, value=pot.value, grad_l=pot.grad_l, H=pot.H, curvature=pot.curvature,
                counter_curvature=pot.counter_curvature,
            )
            return PotentialEvaluation(**{**pieces, **fields})

        return potential_fn

    cfg = control.ControlConfig(B=np.eye(2), R=np.eye(2))
    for potential_fn, misfit in (
        (changing(5, H=np.ones((2, 3))), r"potential H \(6 entries\) and curvature \(4\) do not fit k = 2 on dim 2 at step 5$"),
        (changing(4, grad_l=np.ones(3)), r"H \(4 entries\) and curvature \(4\) do not fit k = 2 on dim 2 at step 4; grad_l has 3 entries$"),
    ):
        for mode, rng in (("belief", None), ("sampled", np.random.default_rng(0))):
            with pytest.raises(ValidationError, match=misfit):
                control.run_closed_loop(model, potential_fn, belief, cfg, 20, rng, mode=mode)


def test_a_horizon_no_array_can_hold_is_refused_before_any_draw():
    # 10**18 steps of a 2-D belief need a covariance column of 4e18
    # floats, beyond any array; the run is refused before anything is
    # drawn or allocated, in both modes and in the filter.
    with pytest.raises(ValidationError, match="1000000000000000001 steps are too many"):
        control.run_scenario("penalty", overrides={"horizon": 10**18})
    sc = load_bundled("penalty")
    initial = engine.GaussianBelief(mean=sc.mean0, cov=sc.cov0)
    cfg = control.ControlConfig(B=sc.B, R=sc.R)
    for mode in control.MODES:
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="covariance column exceeds any array"):
            control.run_closed_loop(sc.build_model(), sc.build_potential(), initial, cfg, 10**18, rng, mode=mode)
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
    obs = ekf.ObservationModel(h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(2), sigma_nu=np.eye(2))
    stream = ekf.ObservationStream(steps=[0], values=[[0.1, 0.2]])
    with pytest.raises(ValidationError, match="covariance column exceeds any array"):
        ekf.filter_with_likelihood(sc.build_model(), obs, stream, initial, horizon=10**18)
