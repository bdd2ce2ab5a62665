import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import sqc
from sqc import process
from sqc.errors import NonFinite, NotPositiveDefinite, ValidationError


def make_model(dim=1, kind="zero", params=None, g_inv=None, dt=1.0):
    drift, jac = process.make_drift(kind, params, dim)
    if g_inv is None:
        g_inv = np.eye(dim)
    return process.ItoProcessModel(dim=dim, drift=drift, drift_jacobian=jac, g_inv=g_inv, dt=dt)


def test_model_validates_shapes_and_dt():
    drift, jac = process.make_drift("zero", None, 2)
    with pytest.raises(ValidationError):
        process.ItoProcessModel(dim=2, drift=drift, drift_jacobian=jac, g_inv=np.eye(3))
    for dt in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=f"dt must be positive, finite and a number; got {dt}"):
            process.ItoProcessModel(dim=2, drift=drift, drift_jacobian=jac, g_inv=np.eye(2), dt=dt)


def test_zero_drift_is_positive_zero_everywhere():
    # The zero drift is the linear map of a zero matrix: 0.0 + 0.0 * x
    # is +0.0 for every finite x, negative entries included.
    drift, jac = process.make_drift("zero", None, 2)
    x = np.array([-1.5, 2.0])
    for out in (drift(x, 0), jac(x, 0), drift.floats(x.tolist(), 0), jac.floats(x.tolist(), 0)):
        assert not np.signbit(out).any() and not np.any(out)
    assert drift(x, 0).shape == (2,) and jac(x, 0).shape == (2, 2)


def test_model_refuses_singular_noise_metric():
    # Rounding leaves [[1, 1], [1, 1]] no failed pivot for a jittered
    # retry to rescue; the strict factor refuses it.
    drift, jac = process.make_drift("zero", None, 2)
    with pytest.raises(NotPositiveDefinite):
        process.ItoProcessModel(dim=2, drift=drift, drift_jacobian=jac, g_inv=[[1.0, 1.0], [1.0, 1.0]])


def test_noise_factor_factorizes_g_inv():
    g_inv = np.array([[0.5, 0.1], [0.1, 0.3]])
    model = make_model(dim=2, g_inv=g_inv)
    np.testing.assert_allclose(model.noise_factor @ model.noise_factor.T, g_inv, atol=1e-12)


def test_step_sample_zero_drift_is_pure_noise():
    model = make_model(dim=2, g_inv=0.25 * np.eye(2), dt=0.5)
    x = np.array([1.0, -2.0])
    out = process.step_sample(model, x, 0, np.random.default_rng(42))
    z = np.random.default_rng(42).standard_normal(2)
    np.testing.assert_allclose(out, x + np.sqrt(0.5) * 0.5 * z, atol=1e-15)


def test_transition_matrix_linear_drift():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    model = make_model(dim=2, kind="linear", params={"A": a}, dt=0.1)
    f = process.transition_matrix(model, np.zeros(2), 0)
    np.testing.assert_allclose(f, np.eye(2) + 0.1 * a, atol=1e-15)


def test_vanderpol_drift_frozen_values():
    # By hand at x = (0.5, 0.5), t = 0:
    #   f1 = 0.005 * 0.5                                  = 0.0025
    #   f2 = 0.005 * ((1 - 0.25 - 0.25) * 0.5 - 0.5 + 0)  = -0.00125
    drift, jac = process.make_drift("vanderpol_forced", None, 2)
    x = np.array([0.5, 0.5])
    np.testing.assert_allclose(drift(x, 0), [0.0025, -0.00125], atol=1e-18)
    j = jac(x, 0)
    # d f2 / d x1 = 0.005 (-2 x1 x2 - 1) = 0.005 * (-1.5)
    assert j[0, 0] == 0.0
    assert j[0, 1] == pytest.approx(0.005)
    assert j[1, 0] == pytest.approx(-0.0075)
    # d f2 / d x2 = 0.005 (-2 x2^2 + (1 - x1^2 - x2^2)) = 0.005 * 0 at this point
    assert j[1, 1] == pytest.approx(0.0, abs=1e-18)


def test_vanderpol_jacobian_matches_finite_difference():
    drift, jac = process.make_drift("vanderpol_forced", None, 2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        t = int(rng.integers(0, 3000))
        fd = np.empty((2, 2))
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[:, i] = (drift(x + e, t) - drift(x - e, t)) / (2 * h)
        np.testing.assert_allclose(jac(x, t), fd, atol=1e-8)


def test_simulate_open_loop_shape_and_determinism():
    model = make_model(dim=2, g_inv=0.1 * np.eye(2))
    x0 = np.zeros(2)
    states1 = process.simulate_open_loop(model, x0, 50, np.random.default_rng(5))
    states2 = process.simulate_open_loop(model, x0, 50, np.random.default_rng(5))
    # Row i is step i, row 0 the initial state.
    assert states1.shape == (51, 2)
    assert np.array_equal(states1[0], x0)
    np.testing.assert_array_equal(states1, states2)


def test_simulate_open_loop_flags_nonfinite():
    # x' = 11 x doubles past the float range within a few hundred steps.
    model = make_model(dim=1, kind="linear", params={"A": [[10.0]]})
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        process.simulate_open_loop(model, np.array([1.0]), 400, np.random.default_rng(0))


def test_simulate_open_loop_rejects_zero_steps():
    model = make_model(dim=1)
    with pytest.raises(ValidationError):
        process.simulate_open_loop(model, np.array([0.0]), 0, np.random.default_rng(0))


def test_vanderpol_open_loop_stays_bounded():
    # The benchmark oscillator at its weak scale has an attracting cycle
    # near unit radius; 5000 noisy steps must not wander off.
    model = make_model(dim=2, kind="vanderpol_forced", g_inv=0.001 * np.eye(2))
    states = process.simulate_open_loop(model, np.array([0.5, 0.5]), 5000, np.random.default_rng(0))
    assert np.max(np.abs(states)) < 10.0


def test_make_drift_rejects_unknown_kind_and_params():
    with pytest.raises(ValidationError):
        process.make_drift("spiral", None, 2)
    with pytest.raises(ValidationError):
        process.make_drift("zero", {"gain": 1.0}, 2)
    with pytest.raises(ValidationError):
        process.make_drift("linear", {}, 2)
    with pytest.raises(ValidationError):
        process.make_drift("linear", {"A": np.eye(3)}, 2)
    with pytest.raises(ValidationError):
        process.make_drift("vanderpol_forced", None, 3)
    with pytest.raises(ValidationError):
        process.make_drift("vanderpol_forced", {"omega": 0.005, "phase": 1.0}, 2)


def test_process_reals_is_the_one_reader_of_outside_numbers():
    # The readers that process._reals replaced stay gone, and no public
    # dataclass of the package converts its fields with a bare np.asarray
    # in __post_init__.
    modules = {info.name: importlib.import_module(f"sqc.{info.name}") for info in pkgutil.iter_modules(sqc.__path__)}
    for module, names in (("potential", ["_numbers", "_vector"]), ("scenario", ["_flat_vector", "_matrix"])):
        assert not [name for name in names if hasattr(modules[module], name)], module
    assert not [name for name, module in modules.items() if hasattr(module, "_check_dt")]
    constructors = [
        cls for module in modules.values() for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__ and "__post_init__" in vars(cls)
    ]
    assert {cls.__name__ for cls in constructors} >= {
        "GaussianBelief", "ControlConfig", "ItoProcessModel", "ObservationModel", "ObservationStream", "PotentialEvaluation",
    }
    assert not [cls.__name__ for cls in constructors if "np.asarray" in inspect.getsource(cls.__post_init__)]
