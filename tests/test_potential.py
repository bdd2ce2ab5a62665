import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from sqc import linalg, potential
from sqc.errors import DomainViolation, NonFinite
from sqc.scenario import scenario_from_dict


def test_quadratic_penalty_frozen_values():
    # x = (0.5, 0.5), d = (0.2, -0.1), weights diag(1000, 10000):
    # l = (0.3, 0.6), grad = (300, 6000), V = (0.3*300 + 0.6*6000)/2 = 1845.
    out = potential.eval_quadratic_penalty(
        np.array([0.5, 0.5]), np.array([0.2, -0.1]), np.diag([1000.0, 10000.0])
    )
    np.testing.assert_allclose(out.l, [0.3, 0.6], atol=1e-15)
    np.testing.assert_allclose(out.grad_l, [300.0, 6000.0], atol=1e-12)
    assert out.value == pytest.approx(1845.0)
    np.testing.assert_array_equal(out.H, -np.eye(2))
    np.testing.assert_array_equal(out.counter_curvature, np.zeros((2, 2)))


def test_penalty_vanishes_at_target():
    d = np.array([0.3, -0.7])
    out = potential.eval_quadratic_penalty(d, d, np.eye(2))
    assert out.value == 0.0
    np.testing.assert_array_equal(out.grad_l, np.zeros(2))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=4))
def test_penalty_value_nonnegative(xs):
    x = np.asarray(xs)
    out = potential.eval_quadratic_penalty(x, np.zeros_like(x), np.eye(len(x)))
    assert out.value >= 0.0


def test_log_barrier_frozen_values():
    # a = (10, 10) at x = (0.5, 2): V = -10 (ln 0.5 + ln 2) = 0 exactly.
    out = potential.eval_log_barrier(np.array([0.5, 2.0]), np.array([10.0, 10.0]))
    assert out.value == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(out.grad_l, [-20.0, -5.0])
    np.testing.assert_allclose(out.curvature, np.diag([40.0, 2.5]))
    np.testing.assert_array_equal(out.H, -np.eye(2))


def test_log_barrier_domain_violations():
    a = np.array([10.0, 10.0])
    with pytest.raises(DomainViolation):
        potential.eval_log_barrier(np.array([0.0, 1.0]), a)
    with pytest.raises(DomainViolation):
        potential.eval_log_barrier(np.array([-0.5, 1.0]), a)
    with pytest.raises(DomainViolation):
        potential.eval_log_barrier(np.array([1.0, 1.0]), np.array([10.0, 0.0]))


def test_double_well_frozen_values():
    # x = (0.5, 0.5), d = (0.2, 0.2), weights 1000 I:
    # l_i = 0.25 - 0.04 = 0.21, grad = 210, V = 2 * 0.21 * 210 / 2 = 44.1.
    out = potential.eval_double_well(
        np.array([0.5, 0.5]), np.array([0.2, 0.2]), 1000.0 * np.eye(2)
    )
    np.testing.assert_allclose(out.l, [0.21, 0.21], atol=1e-15)
    assert out.value == pytest.approx(44.1)
    np.testing.assert_allclose(out.H, np.diag([-1.0, -1.0]))
    np.testing.assert_allclose(out.counter_curvature, np.diag([420.0, 420.0]), atol=1e-10)


def test_double_well_vanishes_at_both_minima():
    d = np.array([0.4, 0.4])
    for signs in ([1, 1], [-1, -1], [1, -1]):
        out = potential.eval_double_well(np.asarray(signs) * d, d, np.eye(2))
        assert out.value == pytest.approx(0.0, abs=1e-14)


def test_tanh_target_schedule():
    np.testing.assert_allclose(potential.tanh_target(2500.0), [0.2, 0.2], atol=1e-15)
    np.testing.assert_allclose(potential.tanh_target(5000.0), [0.4, 0.4], atol=1e-12)
    assert np.all(potential.tanh_target(0.0) < 1e-20)
    out = potential.tanh_target(10.0, dim=3, amplitude=1.0, rate=0.5, center=10.0)
    np.testing.assert_allclose(out, np.ones(3))


def test_evaluation_rejects_nonfinite():
    with pytest.raises(NonFinite):
        potential.PotentialEvaluation(
            l=np.array([np.nan]),
            value=0.0,
            grad_l=np.zeros(1),
            H=np.eye(1),
            curvature=np.eye(1),
            counter_curvature=np.zeros((1, 1)),
        )


@pytest.mark.parametrize(
    "fn,point",
    [
        (lambda x: potential.eval_quadratic_penalty(x, np.array([0.2, -0.1]), np.diag([1000.0, 10000.0])), [0.5, 0.5]),
        (lambda x: potential.eval_log_barrier(x, np.array([10.0, 10.0])), [1.0, 1.3]),
        (lambda x: potential.eval_double_well(x, np.array([0.4, 0.4]), 1000.0 * np.eye(2)), [0.5, -0.3]),
    ],
    ids=["penalty", "barrier", "double_well"],
)
def test_reported_derivatives_match_finite_differences(fn, point):
    report = potential.verify_derivatives(fn, np.asarray(point))
    assert report["max"] < 1e-4, report


def test_derivative_check_catches_wrong_jacobian():
    def broken(x):
        out = potential.eval_quadratic_penalty(x, np.zeros(2), np.eye(2))
        return potential.PotentialEvaluation(
            l=out.l,
            value=out.value,
            grad_l=out.grad_l,
            H=1.05 * out.H,  # 5 percent off
            curvature=out.curvature,
            counter_curvature=out.counter_curvature,
        )

    report = potential.verify_derivatives(broken, np.array([0.7, -0.4]))
    assert report["max"] > 1e-2


# ---------------------------------------------------------------------------
# The generated float forms against the hand-written formulas they
# replaced, bit for bit. The references sum left to right from 0.0, the
# order and the start the generated forms keep.

def ref_dot(a, b):
    total = 0.0
    for p, q in zip(a, b):
        total += p * q
    return total


def ref_diag(v):
    n = len(v)
    out = [0.0] * (n * n)
    out[:: n + 1] = v
    return out


def ref_quadratic(kind, x, d, w):
    # (l, V, grad_l, H, curvature) of the penalty or the double well.
    if kind == "quadratic_penalty":
        l = [xi - di for xi, di in zip(x, d)]
        h = ref_diag([-1.0] * len(x))
    else:
        l = [xi * xi - di * di for xi, di in zip(x, d)]
        h = ref_diag([-2.0 * xi for xi in x])
    grad = [ref_dot(row, l) for row in w]
    return l, 0.5 * ref_dot(l, grad), grad, h, [v for row in w for v in row]


def ref_barrier(x, a):
    if any(xi <= 0.0 for xi in x):
        raise DomainViolation(f"barrier evaluated at non-positive point {np.array(x)}")
    value = -ref_dot(a, [math.log(xi) for xi in x])
    grad = [-ai / xi for ai, xi in zip(a, x)]
    return list(x), value, grad, ref_diag([-1.0] * len(x)), ref_diag([ai / xi / xi for ai, xi in zip(a, x)])


def assert_same_bits(got, want):
    # Equal floats, zeros of the same sign.
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, r in zip(got, want):
        assert g == r and math.copysign(1.0, g) == math.copysign(1.0, r), (got, want)


def assert_same_evaluation(got, want):
    l, value, grad, h, curvature = want
    if isinstance(got, potential.PotentialEvaluation):
        assert_same_bits(got.l, l)
        got = (got.value, got.grad_l, got.H.ravel(), got.curvature.ravel())
    assert_same_bits([got[0]], [value])
    for g, r in zip(got[1:], (grad, h, curvature)):
        assert_same_bits(g, r)


def scenario_doc(m, pot):
    return {
        "name": "forms",
        "process": {"drift": {"kind": "zero"}, "g_inv": np.eye(m).tolist()},
        "potential": pot,
        "initial": {"mean": [0.5] * m, "cov": np.eye(m).tolist()},
    }


signed = st.floats(-3.0, 3.0)
special = st.sampled_from([0.0, -0.0])


@settings(deadline=None, max_examples=200)
@given(
    st.data(),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["quadratic_penalty", "double_well"]),
    st.sampled_from(["constant", "tanh_ramp"]),
    st.integers(0, 2**32 - 1),
)
def test_generated_quadratic_forms_match_the_formulas_bit_for_bit(data, m, kind, target, seed):
    sigma_nu = random_spd(np.random.default_rng(seed), m)
    w = linalg.spd_inverse(sigma_nu).tolist()
    if target == "constant":
        d = data.draw(st.lists(st.one_of(signed, special), min_size=m, max_size=m))
        params = {"value": d}
        t = data.draw(st.integers(0, 5000))
    else:
        params = {
            "amplitude": data.draw(st.floats(-1.0, 1.0)),
            "rate": data.draw(st.floats(0.0, 0.05)),
            "center": data.draw(st.floats(0.0, 5000.0)),
        }
        t = data.draw(st.integers(0, 5000))
        d = potential.tanh_target(t, m, **params).tolist()
    # x hits d (and -d) exactly, so l has zeros of either sign.
    x = [data.draw(st.one_of(signed, special, st.sampled_from([di, -di]))) for di in d]
    check_quadratic_forms(kind, target, sigma_nu, params, d, t, x)


def check_quadratic_forms(kind, target, sigma_nu, params, d, t, x):
    # The scenario's float form and array callable and the eval_* function
    # against the reference at x.
    m = len(x)
    sc = scenario_from_dict(scenario_doc(m, {
        "kind": kind,
        "params": {"sigma_nu": sigma_nu.tolist()},
        "target": {"kind": target, "params": params},
    }))
    fn = sc.build_potential()
    w = linalg.spd_inverse(sigma_nu).tolist()
    want = ref_quadratic(kind, x, d, w)
    assert_same_evaluation(fn.floats(x, t), want)
    assert_same_evaluation(fn(np.array(x), t), want)
    array_form = potential.eval_quadratic_penalty if kind == "quadratic_penalty" else potential.eval_double_well
    assert_same_evaluation(array_form(np.array(x), np.array(d), np.array(w)), want)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["quadratic_penalty", "double_well"])
@pytest.mark.parametrize("target", ["constant", "tanh_ramp"])
def test_generated_quadratic_forms_keep_the_sign_of_zero(m, kind, target):
    # At x = -0 and d = +0 the penalty's l is -0, and with W's entries all
    # positive every product in grad_l is -0: their sum from 0.0 is +0,
    # where a sum that starts from the first product gives -0.
    sigma_nu = 1.2 * np.eye(m) - 0.2 * np.ones((m, m))
    assert (linalg.spd_inverse(sigma_nu) > 0).all()
    if target == "constant":
        params = {"value": [0.0] * m}
    else:
        params = {"amplitude": 0.0, "rate": 0.01, "center": 2500.0}
    for x in ([-0.0] * m, [0.0] * m):
        check_quadratic_forms(kind, target, sigma_nu, params, [0.0] * m, 100, x)


@settings(deadline=None, max_examples=200)
@given(
    st.data(),
    st.sampled_from([1, 2, 3]),
)
def test_generated_barrier_form_matches_the_formula_bit_for_bit(data, m):
    a = data.draw(st.lists(st.floats(0.1, 20.0), min_size=m, max_size=m))
    x = data.draw(st.lists(st.one_of(st.floats(-1.0, 3.0), special, st.just(1e-170)), min_size=m, max_size=m))
    fn = scenario_from_dict(scenario_doc(m, {"kind": "log_barrier", "params": {"a": a}})).build_potential()
    calls = [lambda: fn.floats(x, 0), lambda: fn(np.array(x), 0), lambda: potential.eval_log_barrier(np.array(x), np.array(a))]
    try:
        want = ref_barrier(x, a)
    except DomainViolation as exc:
        for call in calls:
            with pytest.raises(DomainViolation) as got:
                call()
            assert str(got.value) == str(exc)
        return
    for call in calls:
        assert_same_evaluation(call(), want)


def test_barrier_passes_nan_on_to_the_finite_check():
    # NaN <= 0 is false, so a NaN point passes the domain test; its value
    # is NaN, which the update or the array function refuses as NonFinite.
    fn = scenario_from_dict(scenario_doc(2, {"kind": "log_barrier", "params": {"a": [1.0, 2.0]}})).build_potential()
    assert math.isnan(fn.floats([math.nan, 1.0], 0)[0])
    with pytest.raises(NonFinite):
        potential.eval_log_barrier(np.array([math.nan, 1.0]), np.array([1.0, 2.0]))
