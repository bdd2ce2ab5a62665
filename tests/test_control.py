import warnings

import numpy as np
import pytest

from conftest import counting_curvature, counting_kernels, random_spd, rel_err
from sqc import engine, oracle, process
from sqc.control import ControlConfig, run_closed_loop, run_scenario
from sqc.errors import DomainViolation, NonFinite, NotPositiveDefinite, ValidationError
from sqc.potential import PotentialEvaluation, eval_log_barrier, eval_quadratic_penalty
from sqc.scenario import load_bundled


def zero_model(dim, g_inv=None):
    drift, jac = process.make_drift("zero", None, dim)
    g = np.eye(dim) * 0.01 if g_inv is None else g_inv
    return process.ItoProcessModel(dim=dim, drift=drift, drift_jacobian=jac, g_inv=g)


def test_identity_config_reproduces_update_shift():
    # With B = R = I the input must be exactly the update's mean shift.
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        cfg = ControlConfig(B=np.eye(m), R=np.eye(m))
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=random_spd(rng, m))
        pot = eval_quadratic_penalty(belief.mean, rng.standard_normal(m), random_spd(rng, m))
        dt = float(rng.uniform(0.2, 1.5))
        shift = engine.update(belief, pot, dt)[0].mean - belief.mean
        u = cfg.input_for_shift(shift)
        assert rel_err(u, shift) < 1e-10


def test_wide_input_matrix_takes_least_effort_solution():
    # One state, two actuators: with R = I the minimum-norm u puts the
    # whole shift on the actuator that actually reaches the state.
    cfg = ControlConfig(B=np.array([[1.0, 0.0]]), R=np.eye(2))
    belief = engine.GaussianBelief(mean=[0.7], cov=[[0.5]])
    pot = eval_quadratic_penalty(belief.mean, [0.0], [[4.0]])
    shift = engine.update(belief, pot, 1.0)[0].mean - belief.mean
    u = cfg.input_for_shift(shift)
    assert u.shape == (2,)
    assert u[0] == pytest.approx(shift[0], rel=1e-12)
    assert u[1] == pytest.approx(0.0, abs=1e-15)


def test_nonuniform_effort_weight_still_reproduces_shift():
    rng = np.random.default_rng(33)
    b = np.array([[1.0, 0.5], [0.0, 1.0]])
    cfg = ControlConfig(B=b, R=np.diag([2.0, 0.5]))
    belief = engine.GaussianBelief(mean=rng.standard_normal(2), cov=random_spd(rng, 2))
    pot = eval_quadratic_penalty(belief.mean, [0.1, -0.3], random_spd(rng, 2))
    shift = engine.update(belief, pot, 1.0)[0].mean - belief.mean
    u = cfg.input_for_shift(shift)
    assert rel_err(b @ u, shift) < 1e-10


def test_config_rejects_indefinite_effort_weight():
    with pytest.raises(NotPositiveDefinite):
        ControlConfig(B=np.eye(2), R=np.array([[1.0, 0.0], [0.0, -1.0]]))
    # Numerically singular: both pivots are positive, R is refused all the same.
    with pytest.raises(NotPositiveDefinite, match="R must be symmetric positive definite"):
        ControlConfig(B=np.array([[1.0, 0.0]]), R=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))


def test_config_rejects_rank_deficient_input_matrix():
    # B without full row rank leaves states no input can shift.
    with pytest.raises(NotPositiveDefinite):
        ControlConfig(B=np.array([[1.0], [0.0]]), R=np.eye(1))
    # Rounding leaves B R^-1 B^T = [[2, 2], [2, 2]] a positive second pivot.
    with pytest.raises(NotPositiveDefinite, match="full row rank"):
        ControlConfig(B=np.array([[1.0, 1.0], [1.0, 1.0]]), R=np.eye(2))


def test_config_accepts_row_scaled_input_matrix():
    # Rows of very different scale still give full row rank:
    # B R^-1 B^T = diag(1e8, 1e-8) is accepted and B u reproduces the shift.
    B = np.diag([1e4, 1e-4])
    cfg = ControlConfig(B=B, R=np.eye(2))
    shift = np.array([0.3, -0.1])
    np.testing.assert_allclose(B @ cfg.input_for_shift(shift), shift, rtol=1e-15)


def test_run_closed_loop_record_layout():
    model = zero_model(2)
    cfg = ControlConfig(B=np.eye(2), R=np.eye(2))
    target = np.array([0.2, -0.1])

    def potential_fn(x_hat, t):
        return eval_quadratic_penalty(x_hat, target, np.diag([100.0, 100.0]))

    initial = engine.GaussianBelief(mean=[0.5, 0.5], cov=np.eye(2), step=0, tag="predicted")
    result = run_closed_loop(model, potential_fn, initial, cfg, 10, np.random.default_rng(0))
    assert result.completed and result.failure is None
    assert result.first_step == 0 and len(result.x) == 11
    assert result.x.shape == result.u.shape == (11, 2) and result.cov.shape == (11, 2, 2)
    assert np.all(np.isfinite(result.log_n))


def test_run_closed_loop_belief_mode_is_deterministic():
    model = zero_model(1)
    cfg = ControlConfig(B=np.eye(1), R=np.eye(1))

    def potential_fn(x_hat, t):
        return eval_quadratic_penalty(x_hat, [0.0], [[50.0]])

    initial = engine.GaussianBelief(mean=[1.0], cov=[[1.0]], step=0, tag="predicted")
    a = run_closed_loop(model, potential_fn, initial, cfg, 30, None, mode="belief")
    b = run_closed_loop(model, potential_fn, initial, cfg, 30, None, mode="belief")
    np.testing.assert_array_equal(a.x[-1], b.x[-1])
    np.testing.assert_array_equal(a.x[-1], a.mean[-1])
    # The penalty drags the belief mean toward the target.
    assert abs(a.mean[-1, 0]) < 1e-3


def test_run_closed_loop_reports_domain_failure():
    # A hard inward drift shoves the predicted mean through the barrier
    # wall; the run must stop and say where.
    drift, jac = process.make_drift("linear", {"A": [[-5.0]]}, 1)
    model = process.ItoProcessModel(dim=1, drift=drift, drift_jacobian=jac, g_inv=[[1e-6]])

    def potential_fn(x_hat, t):
        return eval_log_barrier(x_hat, [0.1])

    initial = engine.GaussianBelief(mean=[0.1], cov=[[1e-4]], step=0, tag="predicted")
    cfg = ControlConfig(B=np.eye(1), R=np.eye(1))
    result = run_closed_loop(model, potential_fn, initial, cfg, 50, None, mode="belief")
    assert not result.completed
    assert result.failed_step is not None and result.failed_step <= 5
    assert "non-positive" in result.failure
    assert len(result.x) == result.failed_step


def test_run_closed_loop_finite_guards():
    # Huge but finite moments pass the finite checks without tripping
    # an overflow warning; a drift that overflows stops the run at the
    # step whose prediction went non-finite.
    inert = PotentialEvaluation(
        l=[0.0], value=0.0, grad_l=[0.0], H=[[0.0]], curvature=[[1.0]],
        counter_curvature=[[0.0]],
    )
    cfg = ControlConfig(B=np.eye(1), R=np.eye(1))
    initial = engine.GaussianBelief(mean=[1e200], cov=[[1e200]], step=0, tag="predicted")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_closed_loop(
            zero_model(1), lambda x, t: inert, initial, cfg, 3, None, mode="belief"
        )
    assert result.completed
    assert result.mean[-1, 0] == 1e200

    drift, jac = process.make_drift("linear", {"A": [[1e200]]}, 1)
    model = process.ItoProcessModel(dim=1, drift=drift, drift_jacobian=jac, g_inv=[[1.0]])
    initial = engine.GaussianBelief(mean=[1e200], cov=[[1.0]], step=0, tag="predicted")
    with np.errstate(over="ignore"):
        result = run_closed_loop(model, lambda x, t: inert, initial, cfg, 3, None, mode="belief")
    assert not result.completed
    assert result.failed_step == 1 and len(result.x) == 1
    assert "prediction to step 1" in result.failure


def test_run_closed_loop_argument_guards():
    model = zero_model(1)
    cfg = ControlConfig(B=np.eye(1), R=np.eye(1))
    fn = lambda x, t: eval_quadratic_penalty(x, [0.0], [[1.0]])
    predicted = engine.GaussianBelief(mean=[0.0], cov=[[1.0]], step=0, tag="predicted")
    updated = engine.GaussianBelief(mean=[0.0], cov=[[1.0]], step=0, tag="updated")
    with pytest.raises(ValidationError, match="predicted"):
        run_closed_loop(model, fn, updated, cfg, 5, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="horizon"):
        run_closed_loop(model, fn, predicted, cfg, 0, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="mode"):
        run_closed_loop(model, fn, predicted, cfg, 5, np.random.default_rng(0), mode="exact")
    with pytest.raises(ValidationError, match="generator"):
        run_closed_loop(model, fn, predicted, cfg, 5, None, mode="sampled")


def test_run_closed_loop_refuses_input_matrix_of_another_dim():
    # B maps the input onto the state, so it needs one row per state
    # entry; a 3-row B on a 2-D state is refused before any draw.
    model = zero_model(2)
    cfg = ControlConfig(B=np.eye(3), R=np.eye(3))
    initial = engine.GaussianBelief(mean=[0.5, 0.5], cov=np.eye(2))
    fn = lambda x, t: eval_quadratic_penalty(x, [0.0, 0.0], np.eye(2))
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="B has 3 rows; the state has dim 2"):
        run_closed_loop(model, fn, initial, cfg, 5, rng)
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()


def test_run_closed_loop_refusals_leave_the_generator_untouched():
    # engine._run draws a run's noise only after it has checked the
    # initial belief's tag and dimension, so a refused belief takes no
    # draw from the caller's generator.
    cfg = ControlConfig(B=np.eye(2), R=np.eye(2))
    fn = lambda x, t: eval_quadratic_penalty(x, [0.0, 0.0], np.eye(2))
    updated = engine.GaussianBelief(mean=[0.5, 0.5], cov=np.eye(2), tag="updated")
    predicted = engine.GaussianBelief(mean=[0.5, 0.5], cov=np.eye(2))
    for model, initial, match in (
        (zero_model(2), updated, "initial belief must be tagged predicted"),
        (zero_model(3), predicted, "initial belief has dim 2; the model has dim 3"),
    ):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match=match):
            run_closed_loop(model, fn, initial, cfg, 5000, rng)
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()


def test_run_closed_loop_refuses_a_bundled_potential_of_another_dim():
    # A bundled float form records the state dimension it was built for,
    # and engine._run compares it with the model's before any step or
    # draw; a 2-D form on a 3-D state used to fail inside its own
    # unpacking with a bare ValueError.
    for name in ("penalty", "doublewell", "barrier"):
        potential_fn = load_bundled(name).build_potential()
        assert potential_fn.floats.dim == 2
        initial = engine.GaussianBelief(mean=[0.5, 0.5, 0.5], cov=np.eye(3))
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="the potential is built for dim 2; the model has dim 3"):
            run_closed_loop(zero_model(3), potential_fn, initial, ControlConfig(B=np.eye(3), R=np.eye(3)), 50, rng)
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()


def test_run_closed_loop_refuses_a_wrapped_bundled_potential_of_another_dim():
    # A callable that wraps a bundled potential reaches the step loop
    # through engine._potential_floats' array adapter, which records no
    # dim; the bundled closure compares the state's length with its own
    # dim, so the 2-D penalty on a 3-D state is a ValidationError, not a
    # bare ValueError from the float form's unpacking.
    fn = load_bundled("penalty").build_potential()
    wrapped = lambda x, t: fn(x, t)
    initial = engine.GaussianBelief(mean=[0.5, 0.5, 0.5], cov=np.eye(3))
    cfg = ControlConfig(B=np.eye(3), R=np.eye(3))
    with pytest.raises(ValidationError, match="the potential is built for dim 2; the state has dim 3"):
        run_closed_loop(zero_model(3), wrapped, initial, cfg, 20, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="the potential is built for dim 2; the state has dim 1"):
        fn(np.array([0.5]), 0)


def test_input_for_shift_maps_one_shift_or_a_column():
    # The one shift-to-input map takes a run's shift column as well as a
    # single shift, and each row reproduces its shift through B.
    cfg = ControlConfig(B=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]]), R=np.diag([1.0, 2.0, 3.0]))
    shifts = np.random.default_rng(8).standard_normal((5, 2))
    column = cfg.input_for_shift(shifts)
    assert column.shape == (5, 3)
    for shift, u in zip(shifts, column):
        np.testing.assert_allclose(cfg.input_for_shift(shift), u, rtol=1e-14, atol=0.0)
        assert rel_err(cfg.B @ u, shift) < 1e-12


def test_run_scenario_bundled_penalty():
    result = run_scenario("penalty", overrides={"horizon": 50}, seed=3)
    assert result.completed and len(result.x) == 51
    again = run_scenario("penalty", overrides={"horizon": 50}, seed=3)
    np.testing.assert_array_equal(result.x[-1], again.x[-1])
    other = run_scenario("penalty", overrides={"horizon": 50}, seed=4)
    assert not np.array_equal(result.x[-1], other.x[-1])


def test_run_scenario_rejects_unknown_name():
    with pytest.raises(ValidationError, match="bundled"):
        run_scenario("quadwell")


def reference_loop(model, potential_fn, initial, cfg, horizon, rng, mode):
    """The closed loop rebuilt around the oracle's precision-form update.

    Same contract as run_closed_loop: one record per step, one
    standard_normal(m) draw per step in sampled mode, and the step at
    which a DomainViolation or NonFinite stopped the run.
    """
    rows, belief = [], initial
    for s in range(initial.step, initial.step + horizon + 1):
        try:
            pred = belief if belief.tag == "predicted" else engine.predict(belief, model)
            pot = potential_fn(pred.mean, pred.step)
            post, diag = oracle.precision_form(pred, pot, model.dt)
            log_n = diag.log_n
            u = cfg.input_for_shift(post.mean - pred.mean)
        except (DomainViolation, NonFinite):
            return rows, s
        if mode == "sampled":
            x = engine.sample_posterior(post, rng)
            belief = engine.GaussianBelief(mean=x, cov=post.cov, step=post.step, tag="updated")
        else:
            x, belief = post.mean, post
        rows.append((x, post.mean, post.cov, u, log_n))
    return rows, None


def assert_loops_agree(result, rows, failed_step):
    assert result.failed_step == failed_step
    assert len(result.x) == len(rows)
    columns = {"x": result.x, "mean": result.mean, "cov": result.cov, "u": result.u, "log_n": result.log_n}
    for i, (name, got) in enumerate(columns.items()):
        want = np.array([row[i] for row in rows])
        assert rel_err(got, want) <= 1e-10, name


@pytest.mark.parametrize("mode", ["sampled", "belief"])
@pytest.mark.parametrize("name", ["penalty", "doublewell", "barrier"])
@pytest.mark.parametrize("seed", [0, 4])
def test_closed_loop_matches_reference_functions(name, mode, seed):
    # Pins the fused step (cached curvature factor, single solve of S,
    # precomputed input map) to the precision-form reference. In
    # sampled mode barrier seed 4 leaves the domain at step 141, so the
    # failure path is compared as well.
    horizon = 300
    result = run_scenario(name, overrides={"horizon": horizon, "mode": mode}, seed=seed)
    sc = load_bundled(name, overrides={"horizon": horizon, "mode": mode}, seed=seed)
    initial = engine.GaussianBelief(mean=sc.mean0, cov=sc.cov0, step=0, tag="predicted")
    rows, failed_step = reference_loop(
        sc.build_model(), sc.build_potential(), initial, ControlConfig(B=sc.B, R=sc.R),
        horizon, np.random.default_rng(seed), mode,
    )
    assert_loops_agree(result, rows, failed_step)


@pytest.mark.parametrize("mode", ["sampled", "belief"])
def test_closed_loop_refactors_changing_curvature(mode):
    # A curvature that changes between steps must be factored afresh:
    # a writeable weight matrix rewritten in place (same array, new
    # values) on most steps, and a read-only constant one on every
    # third step, so a reused factorization of either would go stale.
    sc = load_bundled("penalty")
    model = sc.build_model()
    base = np.linalg.inv(sc.potential_params["sigma_nu"])
    constant = 2.0 * base
    constant.setflags(write=False)
    moving = base.copy()
    target = np.array([0.2, -0.1])

    def potential_fn(x_hat, t):
        if t % 3 == 0:
            return eval_quadratic_penalty(x_hat, target, constant)
        moving[...] = base * np.array([[1.0 + 0.5 * np.sin(0.1 * t), 0.0],
                                       [0.0, 1.0 + 0.5 * np.cos(0.07 * t)]])
        return eval_quadratic_penalty(x_hat, target, moving)

    cfg = ControlConfig(B=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.diag([2.0, 0.5]))
    initial = engine.GaussianBelief(mean=sc.mean0, cov=sc.cov0, step=0, tag="predicted")
    result = run_closed_loop(model, potential_fn, initial, cfg, 300, np.random.default_rng(5), mode)
    rows, failed_step = reference_loop(
        model, potential_fn, initial, cfg, 300, np.random.default_rng(5), mode
    )
    assert result.completed
    assert_loops_agree(result, rows, failed_step)


@pytest.mark.parametrize("mode", ["sampled", "belief"])
def test_closed_loop_adapter_path_matches_reference(monkeypatch, mode):
    # m = 3, k = 2 through the adapter: a bundled linear drift wrapped
    # by a user callable (so its float form is not seen), a user
    # Jacobian and a user potential l = tanh(C x) - d(t) that returns a
    # PotentialEvaluation. The reference loop is built from
    # engine.predict, the oracle's precision form and sample_posterior.
    rng = np.random.default_rng(41)
    a = 0.05 * rng.standard_normal((3, 3)) - 0.02 * np.eye(3)
    drift, jacobian = process.make_drift("linear", {"A": a}, 3)
    calls = []

    def wrapped_drift(x, t):
        calls.append(t)
        return drift(x, t)

    model = process.ItoProcessModel(
        dim=3, drift=wrapped_drift, drift_jacobian=lambda x, t: a, g_inv=0.01 * random_spd(rng, 3)
    )
    c = rng.standard_normal((2, 3))
    w = 20.0 * random_spd(rng, 2)

    def potential_fn(x_hat, t):
        inner = np.tanh(c @ x_hat)
        l = inner - np.array([0.3, -0.2]) * np.sin(0.05 * t)
        grad = w @ l
        return PotentialEvaluation(
            l=l, value=0.5 * float(l @ grad), grad_l=grad, H=-(1.0 - inner**2)[:, None] * c,
            curvature=w, counter_curvature=np.zeros((3, 3)),
        )

    cfg = ControlConfig(
        B=np.array([[1.0, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.2]]),
        R=np.diag([1.0, 2.0, 1.0, 0.5]),
    )
    initial = engine.GaussianBelief(mean=[0.4, -0.3, 0.2], cov=0.5 * np.eye(3), step=0, tag="predicted")
    horizon = 200
    # Each step's curvature comes from the adapter as a new tuple whose
    # unpacking is counted.
    unpacks = []
    curvature, floats = counting_curvature(unpacks), engine._evaluation_floats
    monkeypatch.setattr(
        engine, "_evaluation_floats", lambda *args: (*floats(*args)[:3], curvature(floats(*args)[3]))
    )
    result = run_closed_loop(model, potential_fn, initial, cfg, horizon, np.random.default_rng(8), mode)
    assert result.completed and result.jitter_retries == 0
    assert calls == list(range(horizon))
    # The curvature w is constant, so the loop factors it once.
    assert unpacks == [4]
    rows, failed_step = reference_loop(
        model, potential_fn, initial, cfg, horizon, np.random.default_rng(8), mode
    )
    assert_loops_agree(result, rows, failed_step)


def tanh_potential(c, w, d):
    """l = tanh(C x) - d, V = l^T w l / 2, as a PotentialEvaluation."""

    def potential_fn(x_hat, t):
        inner = np.tanh(c @ x_hat)
        l = inner - d
        grad = w @ l
        return PotentialEvaluation(
            l=l, value=0.5 * float(l @ grad), grad_l=grad, H=-(1.0 - inner**2)[:, None] * c,
            curvature=w, counter_curvature=np.zeros((len(x_hat), len(x_hat))),
        )

    return potential_fn


@pytest.mark.parametrize("mode", ["sampled", "belief"])
def test_loop_stage_matches_reference_for_every_shape(monkeypatch, mode):
    # Every (m, k) up to 4 x 4: one run of the loop stage for its shape
    # against the reference loop, with the bounds of the adapter test.
    loops = counting_kernels(monkeypatch)
    rng = np.random.default_rng(43)
    for m in range(1, 5):
        for k in range(1, 5):
            drift, jacobian = process.make_drift("linear", {"A": 0.05 * rng.standard_normal((m, m))}, m)
            model = process.ItoProcessModel(
                dim=m, drift=drift, drift_jacobian=jacobian, g_inv=0.01 * random_spd(rng, m)
            )
            potential_fn = tanh_potential(rng.standard_normal((k, m)), 5.0 * random_spd(rng, k), rng.standard_normal(k))
            initial = engine.GaussianBelief(mean=rng.standard_normal(m), cov=0.5 * np.eye(m))
            cfg = ControlConfig(B=np.eye(m), R=np.eye(m))
            seed = int(rng.integers(1000))
            loops.clear()
            result = run_closed_loop(model, potential_fn, initial, cfg, 40, np.random.default_rng(seed), mode)
            assert result.completed and loops == [(m, k, mode == "sampled")]
            rows, failed_step = reference_loop(model, potential_fn, initial, cfg, 40, np.random.default_rng(seed), mode)
            assert_loops_agree(result, rows, failed_step)


@pytest.mark.parametrize("mode", ["sampled", "belief"])
def test_closed_loop_refuses_a_constraint_dimension_that_changes(monkeypatch, mode):
    # k = 2 until step 3, then k = 1: a run's k is fixed by its first
    # step, so the one loop stage for k = 2 refuses step 3, naming it
    # and the sizes, and no other stage runs.
    loops = counting_kernels(monkeypatch)
    rng = np.random.default_rng(47)
    drift, jacobian = process.make_drift("linear", {"A": 0.05 * rng.standard_normal((2, 2))}, 2)
    model = process.ItoProcessModel(dim=2, drift=drift, drift_jacobian=jacobian, g_inv=0.01 * np.eye(2))
    two = tanh_potential(rng.standard_normal((2, 2)), 5.0 * random_spd(rng, 2), np.array([0.2, -0.1]))
    one = tanh_potential(rng.standard_normal((1, 2)), np.array([[3.0]]), np.array([0.3]))
    potential_fn = lambda x, t: two(x, t) if t < 3 else one(x, t)
    initial = engine.GaussianBelief(mean=[0.4, -0.3], cov=0.5 * np.eye(2))
    cfg = ControlConfig(B=np.eye(2), R=np.eye(2))
    misfit = r"H \(2 entries\) and curvature \(1\) do not fit k = 2 on dim 2 at step 3; grad_l has 1 entries"
    with pytest.raises(ValidationError, match=misfit):
        run_closed_loop(model, potential_fn, initial, cfg, 30, np.random.default_rng(9), mode)
    assert loops == [(2, 2, mode == "sampled")]


def test_jitter_retries_are_counted():
    # Two constraints on x1 with a huge curvature: sigma_nu = 1e-20 I
    # vanishes next to H cov H^T, so S is exactly cov11 * ones, whose
    # second pivot is 0. Every step takes the jittered retry, and the
    # run reports it; the bundled scenarios never need one.
    h = np.array([[1.0, 0.0], [1.0, 0.0]])

    def potential_fn(x_hat, t):
        l = h @ x_hat
        curvature = 1e20 * np.eye(2)
        return PotentialEvaluation(
            l=l, value=0.0, grad_l=np.zeros(2), H=-h, curvature=curvature,
            counter_curvature=np.zeros((2, 2)),
        )

    initial = engine.GaussianBelief(mean=[0.5, 0.5], cov=np.eye(2), step=0, tag="predicted")
    cfg = ControlConfig(B=np.eye(2), R=np.eye(2))
    result = run_closed_loop(zero_model(2), potential_fn, initial, cfg, 3, None, mode="belief")
    assert result.completed
    assert result.jitter_retries >= 1
    for name in ("penalty", "doublewell", "barrier"):
        assert run_scenario(name, overrides={"horizon": 50}, seed=2).jitter_retries == 0
