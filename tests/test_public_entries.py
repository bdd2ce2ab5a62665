"""Malformed input to a public entry raises an SqcError subclass, never a bare exception.

A fixed-seed loop replaces one or two fields of a valid scenario with
values from a fixed set and parses and runs it, writes observation
files from malformed pieces and reads them, hands the public update,
predict and sample_posterior beliefs, models and potentials of
mismatched shapes, runs the closed loop over potential callables that
return the wrong thing from a random step on, runs both modes, the
filter and predict over drifts, Jacobians and observation maps that
return the wrong number of entries, hands the bundled eval_*
functions arguments of mismatched shapes or that are not numbers, and
hands the public dataclass constructors, step_sample,
simulate_open_loop, ekf_step, marginal_likelihood and update's dt
arguments that are not numbers, ragged, of the wrong shape or count, bools
and None. Each test collects
every exception that is not an SqcError, with the input that raised
it, and fails listing them.
"""

import copy
import json
import random
import re
from importlib import resources

import numpy as np
import pytest

from sqc import control, ekf, engine, process
from sqc.errors import SqcError, ValidationError
from sqc.potential import PotentialEvaluation, eval_double_well, eval_log_barrier, eval_quadratic_penalty
from sqc.scenario import load_bundled, scenario_from_dict

# The inputs include 1e308 and 1e-300 entries whose arithmetic
# overflows or underflows by design. The property is about what is
# raised, and outside this suite a RuntimeWarning is not raised.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

VALUES = [
    0, 1, -1, 3, 0.5, 2.5, 0.0, -0.0, 1e308, -1e308, 1e-308, 5e-324, 10**30, float("nan"), float("inf"),
    True, None, "x", "sampled", "belief", "zero", "linear", "vanderpol_forced", "observation",
    "quadratic_penalty", "double_well", "log_barrier", [], [0.5], [1, 2], [1, 2, 3], ["1", "2"], [[1.0]], [[0.5]],
    [[[1]]], [[[1, 0], [0, 1]]], [[1, 2], [3]], [[1.0, 0.0], [0.0, 1.0]], [[1, 0.5], [0.5, 1]], [[1, 2], [2, 1]],
    [[-1, 0], [0, 1]], [[1, 0], [0, 0]], [[0.001, 0], [0, 0.0001]], [[1e-300, 0], [0, 1e-300]],
    [[1e300, 0], [0, 1e300]], [[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], {"a": 1},
    {"value": [1, 2]}, {"A": [[-1.0, 0], [0, -1.0]]}, {"A": [[1]]}, {"scale": "x"}, {"amplitude": 1e308},
    {"kind": "identity"}, {"kind": "linear", "C": [[1, 0]]}, {"kind": "linear", "C": [1, 0]},
    {"kind": "linear", "C": [[[1, 0]]]}, {"kind": "linear", "C": [[1], [0]]}, {"kind": "tanh_ramp", "params": {}},
    {"kind": "constant", "params": {"value": [0.1, 0.2]}}, {"sigma_nu": [[1.0]], "map": {"kind": "identity"}},
]

FIELDS = [
    ("name",), ("process",), ("process", "drift"), ("process", "drift", "kind"), ("process", "drift", "params"),
    ("process", "drift", "params", "A"), ("process", "drift", "params", "scale"), ("process", "g_inv"),
    ("process", "dt"), ("potential",), ("potential", "kind"), ("potential", "params"),
    ("potential", "params", "sigma_nu"), ("potential", "params", "a"), ("potential", "params", "map"),
    ("potential", "target"), ("potential", "target", "kind"), ("potential", "target", "params"),
    ("potential", "target", "params", "value"), ("potential", "target", "params", "amplitude"), ("initial",),
    ("initial", "mean"), ("initial", "cov"), ("control",), ("control", "B"), ("control", "R"), ("horizon",),
    ("seed",), ("mode",),
]

OTHER_SCENARIOS = [
    {
        "name": "one",
        "process": {"drift": {"kind": "linear", "params": {"A": [[-0.5]]}}, "g_inv": [[0.1]]},
        "potential": {
            "kind": "quadratic_penalty",
            "params": {"sigma_nu": [[0.01]]},
            "target": {"kind": "tanh_ramp", "params": {}},
        },
        "initial": {"mean": [0.1], "cov": [[1.0]]},
        "control": {"B": [[1.0]], "R": [[2.0]]},
    },
    {
        "name": "three",
        "process": {"drift": {"kind": "zero"}, "g_inv": np.eye(3).tolist()},
        "potential": {
            "kind": "double_well",
            "params": {"sigma_nu": np.eye(3).tolist()},
            "target": {"kind": "constant", "params": {"value": [0.1, 0.2, 0.3]}},
        },
        "initial": {"mean": [0.1, 0.2, 0.3], "cov": np.eye(3).tolist()},
        "mode": "belief",
    },
    {
        "name": "observed",
        "process": {"drift": {"kind": "linear", "params": {"A": [[-0.1, 0.0], [0.0, -0.1]]}}, "g_inv": [[0.1, 0], [0, 0.1]]},
        "potential": {"kind": "observation", "params": {"sigma_nu": [[0.1, 0], [0, 0.1]], "map": {"kind": "identity"}}},
        "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0], [0, 1.0]]},
    },
    {
        "name": "observed_by_c",
        "process": {"drift": {"kind": "zero"}, "g_inv": [[0.1, 0], [0, 0.1]]},
        "potential": {"kind": "observation", "params": {"sigma_nu": [[0.1]], "map": {"kind": "linear", "C": [[1.0, 0.5]]}}},
        "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0], [0, 1.0]]},
    },
]


def bare_exception(call, *args):
    """The bare exception ``call(*args)`` raises, as "Type: message", or None."""
    try:
        call(*args)
    except SqcError:
        return None
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def replace(doc: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        if not isinstance(doc, dict):
            return
        doc = doc.setdefault(key, {})
    if isinstance(doc, dict):
        doc[path[-1]] = value


def parse_and_run(raw: dict) -> None:
    scenario = scenario_from_dict(raw)
    if scenario.potential_kind != "observation":
        control.run_scenario_config(scenario)
        return
    obs_model = scenario.build_observation_model()
    k = obs_model.sigma_nu.shape[0]
    stream = ekf.ObservationStream(steps=list(range(0, 21, 2)), values=np.full((11, k), 0.1))
    initial = engine.GaussianBelief(mean=scenario.mean0, cov=scenario.cov0)
    ekf.filter_with_likelihood(scenario.build_model(), obs_model, stream, initial)


def test_scenarios_with_replaced_fields_raise_only_sqc_errors():
    bundled = [json.loads(resources.files("sqc").joinpath(f"scenarios/{name}.json").read_text()) for name in ("penalty", "doublewell", "barrier")]
    rnd = random.Random(6)
    found = {}
    for _ in range(2000):
        raw = copy.deepcopy(rnd.choice(bundled + OTHER_SCENARIOS))
        raw["horizon"] = 20
        for _ in range(rnd.choice((1, 2))):
            replace(raw, rnd.choice(FIELDS), copy.deepcopy(rnd.choice(VALUES)))
        crash = bare_exception(parse_and_run, raw)
        if crash is not None:
            found.setdefault(crash, json.dumps(raw))
    assert not found, found


PIECES = [
    "step", "y1", "y2", "y3", "1", "2", "-1", "1.5", "nan", "inf", "1e400", "x", "", " ", "1e19", "-1e19",
    "9223372036854775807", "0x10", "1_000", "\x00", '"', '"1', "é", "1e308", "-0", "+3",
]


def test_malformed_observation_files_raise_only_sqc_errors(tmp_path):
    rnd = random.Random(7)
    path = tmp_path / "obs.csv"
    found = {}
    for _ in range(800):
        header = rnd.choice(["step,y1", "step,y1,y2", "step", "y1,step", "step,y2", "step ,y1", ""])
        lines = [",".join(rnd.choice(PIECES) for _ in range(rnd.randint(0, 4))) for _ in range(rnd.randint(0, 4))]
        data = "\n".join([header, *lines]).encode()
        if rnd.random() < 0.1:
            data += bytes([rnd.randint(128, 255)])  # not UTF-8
        path.write_bytes(data)
        crash = bare_exception(ekf.read_observations, path)
        if crash is not None:
            found.setdefault(crash, data)
    assert not found, found


def linear_model(dim: int) -> process.ItoProcessModel:
    drift, jac = process.make_drift("linear", {"A": (-0.1 * np.eye(dim)).tolist()}, dim)
    return process.ItoProcessModel(dim=dim, drift=drift, drift_jacobian=jac, g_inv=np.eye(dim))


def test_update_predict_and_sample_with_mismatched_shapes_raise_only_sqc_errors():
    models = [linear_model(1), linear_model(2), linear_model(3), load_bundled("doublewell").build_model()]
    covs = [np.eye(2), [[1.0, 2.0], [2.0, 1.0]], [[0.0]], np.ones((3, 3)), [[1e308, 0.0], [0.0, 1e308]]]
    rnd = random.Random(8)
    rng = np.random.default_rng(8)
    found = {}
    for trial in range(500):
        m = rnd.randint(1, 3)
        belief = engine.GaussianBelief(mean=rng.standard_normal(m), cov=np.eye(m), step=rnd.randint(0, 3))
        model = rnd.choice(models)
        k, hm = rnd.randint(1, 3), rnd.randint(1, 3)
        pieces = dict(
            l=np.zeros(k),
            value=rnd.choice([0.5, 1e308, -1e308]),
            grad_l=rng.standard_normal(rnd.choice([(k,), (k, 1), (1, k)])),
            H=rng.standard_normal(rnd.choice([(k, hm), (k * hm,), (1, k * hm), (hm, k)])),
            curvature=np.eye(rnd.randint(1, 3)),
            counter_curvature=np.zeros((hm, hm)),
        )
        dt = rnd.choice([1.0, 0.5, 0.0, -1.0, float("nan"), float("inf"), 1e-300, 1e300])
        calls = [
            ("predict", engine.predict, belief, model),
            # The evaluation is built inside the call: its constructor
            # refuses a grad_l of two dimensions.
            ("update", lambda b, p, dt: engine.update(b, PotentialEvaluation(**p), dt), belief, pieces, dt),
            ("sample_posterior", engine.sample_posterior, belief, np.random.default_rng(trial)),
        ]
        try:
            other = engine.GaussianBelief(mean=rng.standard_normal(rnd.randint(1, 3)), cov=rnd.choice(covs))
        except SqcError:
            pass
        else:
            calls += [
                ("predict", engine.predict, other, model),
                ("sample_posterior", engine.sample_posterior, other, np.random.default_rng(trial)),
            ]
        for name, call, *args in calls:
            crash = bare_exception(call, *args)
            if crash is not None:
                found.setdefault((name, crash), repr(args))
    assert not found, found


def evaluation(k: int, m: int, grad_entries: int) -> PotentialEvaluation:
    return PotentialEvaluation(
        l=np.zeros(k), value=0.5, grad_l=np.full(grad_entries, 0.1), H=np.full((k, m), 0.1), curvature=np.eye(k),
        counter_curvature=np.zeros((m, m)),
    )


def malformed_potential(kind: str, first: int, k: int, m: int):
    """A potential that fits k on dim m before step ``first`` and from there returns ``kind``."""
    other = k % 3 + 1  # another k in 1..3
    late = {
        "ndarray": lambda x: x,
        "float": lambda x: float(x @ x),
        "None": lambda x: None,
        "tuple": lambda x: (0.5, [0.1] * k, [0.1] * (k * m), np.eye(k).ravel().tolist()),
        "k": lambda x: evaluation(other, m, other),
        "grad_l": lambda x: evaluation(k, m, other),
        "empty": lambda x: evaluation(0, m, 0),
    }[kind]
    return lambda x, t: evaluation(k, m, k) if t < first else late(x)


def test_closed_loop_over_malformed_potentials_raises_only_sqc_errors():
    rnd = random.Random(9)
    found = {}
    for trial in range(120):
        m, k, first = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(0, 6)
        kind = rnd.choice(["ndarray", "float", "None", "tuple", "k", "grad_l", "empty"])
        mode = rnd.choice(control.MODES)
        drift, jac = process.make_drift("zero", {}, m)
        model = process.ItoProcessModel(dim=m, drift=drift, drift_jacobian=jac, g_inv=np.eye(m))
        args = (
            model, malformed_potential(kind, first, k, m), engine.GaussianBelief(mean=np.full(m, 0.3), cov=np.eye(m)),
            control.ControlConfig(B=np.eye(m), R=np.eye(m)), 8, np.random.default_rng(trial), mode,
        )
        crash = bare_exception(control.run_closed_loop, *args)
        if crash is not None:
            found.setdefault(crash, (kind, first, k, m, mode))
    assert not found, found


def test_callables_with_wrong_entry_counts_raise_only_sqc_errors():
    # One of a drift, its Jacobian, an observation map or its Jacobian
    # returns one entry too few, one too many or twice its count from a
    # random step on; the others are right.
    rnd = random.Random(11)
    found = {}
    for trial in range(160):
        m, k, first = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(0, 4)
        c = np.full((k, m), 0.5)
        right = {
            "drift": (lambda x, t: -0.1 * x, m),
            "drift_jacobian": (lambda x, t: -0.1 * np.eye(m), m * m),
            "h": (lambda x, t: c @ x, k),
            "h_jacobian": (lambda x, t: c, k * m),
        }
        role = rnd.choice(list(right))
        fn, count = right[role]
        entries = rnd.choice([count - 1, count + 1, 2 * count])
        fns = {name: f for name, (f, _) in right.items()}
        fns[role] = lambda x, t, fn=fn, entries=entries, first=first: fn(x, t) if t < first else np.full(entries, 0.1)
        model = process.ItoProcessModel(dim=m, drift=fns["drift"], drift_jacobian=fns["drift_jacobian"], g_inv=np.eye(m))
        obs = ekf.ObservationModel(h=fns["h"], h_jacobian=fns["h_jacobian"], sigma_nu=np.eye(k))
        belief = engine.GaussianBelief(mean=np.full(m, 0.3), cov=np.eye(m))
        penalty = lambda x, t, m=m: eval_quadratic_penalty(x, np.zeros(m), np.eye(m))
        cfg = control.ControlConfig(B=np.eye(m), R=np.eye(m))
        stream = ekf.ObservationStream(steps=list(range(7)), values=np.full((7, k), 0.1))
        calls = [
            ("sampled", control.run_closed_loop, model, penalty, belief, cfg, 6, np.random.default_rng(trial), "sampled"),
            ("belief", control.run_closed_loop, model, penalty, belief, cfg, 6, None, "belief"),
            ("filter", ekf.filter_with_likelihood, model, obs, stream, belief),
            ("predict", engine.predict, engine.GaussianBelief(mean=belief.mean, cov=belief.cov, step=first), model),
        ]
        for name, call, *args in calls:
            crash = bare_exception(call, *args)
            if crash is not None:
                found.setdefault((name, role, crash), (m, k, first, entries))
    assert not found, found


def test_wrong_entry_counts_are_refused_naming_the_callable():
    zero, eye = (lambda x, t: np.zeros(2)), (lambda x, t: np.eye(2))
    belief = engine.GaussianBelief(mean=[0.3, -0.2], cov=np.eye(2))
    penalty = lambda x, t: eval_quadratic_penalty(x, np.zeros(2), np.eye(2))
    cfg = control.ControlConfig(B=np.eye(2), R=np.eye(2))
    for drift, jacobian, message in (
        (lambda x, t: np.zeros(3), eye, "the drift returned 3 entries where 2 are needed"),
        (zero, lambda x, t: np.zeros((3, 3)), "the drift Jacobian returned 9 entries where 4 are needed"),
    ):
        model = process.ItoProcessModel(dim=2, drift=drift, drift_jacobian=jacobian, g_inv=np.eye(2))
        for mode, rng in (("sampled", np.random.default_rng(0)), ("belief", None)):
            with pytest.raises(ValidationError, match=message):
                control.run_closed_loop(model, penalty, belief, cfg, 5, rng, mode)
        with pytest.raises(ValidationError, match=message):
            engine.predict(belief, model)
    model = process.ItoProcessModel(dim=2, drift=zero, drift_jacobian=lambda x, t: np.zeros((2, 2)), g_inv=np.eye(2))
    stream = ekf.ObservationStream(steps=[0, 1], values=np.full((2, 2), 0.1))
    for h, h_jacobian, message in (
        (lambda x, t: np.zeros(3), eye, "the observation map returned 3 entries where 2 are needed"),
        (lambda x, t: x, lambda x, t: np.eye(3), "the observation Jacobian returned 9 entries where 4 are needed"),
    ):
        obs = ekf.ObservationModel(h=h, h_jacobian=h_jacobian, sigma_nu=np.eye(2))
        with pytest.raises(ValidationError, match=message):
            ekf.filter_with_likelihood(model, obs, stream, belief)


def test_bundled_potentials_with_mismatched_shapes_raise_only_sqc_errors():
    # Besides arrays of mismatched shapes, arguments that are not numbers:
    # a string, a ragged list, None and a dict.
    shapes = [(), (0,), (1,), (2,), (3,), (4,), (1, 2), (2, 2), (3, 3), (2, 1), (0, 0), (2, 2, 2)]
    others = ["x", [[1.0], [2.0, 3.0]], None, {"a": 1}]
    rnd = random.Random(10)
    rng = np.random.default_rng(10)
    found = {}
    for _ in range(600):
        x, second, weights = (
            rnd.choice(others) if rnd.random() < 0.1 else rng.uniform(0.1, 1.0, rnd.choice(shapes)) for _ in range(3)
        )
        calls = [
            ("eval_quadratic_penalty", eval_quadratic_penalty, x, second, weights),
            ("eval_double_well", eval_double_well, x, second, weights),
            ("eval_log_barrier", eval_log_barrier, x, second),
        ]
        for name, call, *args in calls:
            crash = bare_exception(call, *args)
            if crash is not None:
                found.setdefault((name, crash), repr(args))
    assert not found, found


def junk(m: int) -> list:
    """Arguments that are not what a public entry of dim m takes: not numbers, ragged, of the wrong shape or count."""
    return [
        "x", None, True, False, [], {"a": 1}, [[1.0], [2.0, 3.0]], ["1", 2.0], [True, 1.0], 10**400,
        np.array(["a"]), np.array([None, 1.0]), np.array([True]), 0.5, -1.0, 0.0, float("nan"), 1.5,
        np.ones(m - 1), np.ones(m + 1), np.eye(m + 1), np.ones((m, m + 1)), np.ones((1, m)), np.ones((m, m, 1)),
        np.zeros(0), np.zeros((0, 0)),
    ]


def entry_calls(m: int, k: int) -> dict:
    """Each public constructor and textbook function, as (call, its valid keyword arguments) on dim m and k observed."""
    c = np.full((k, m), 0.5)
    if m == 2 and k == 1:
        drift, jacobian = process.make_drift("vanderpol_forced", None, 2)  # reads t as a number
    else:
        drift, jacobian = (lambda x, t: -0.1 * x), (lambda x, t: -0.1 * np.eye(m))
    callables = dict(drift=drift, drift_jacobian=jacobian, h=lambda x, t: c @ x, h_jacobian=lambda x, t: c)
    belief = dict(mean=np.full(m, 0.3), cov=np.eye(m), step=2, tag="predicted")
    pot = dict(l=np.zeros(k), value=0.5, grad_l=np.full(k, 0.1), H=np.full((k, m), 0.1), curvature=np.eye(k),
               counter_curvature=np.zeros((m, m)))

    def with_models(fn):
        # fn called with a model and an observation model built around the callables.
        def call(drift, drift_jacobian, h, h_jacobian, **rest):
            model = process.ItoProcessModel(dim=m, drift=drift, drift_jacobian=drift_jacobian, g_inv=np.eye(m), dt=0.5)
            return fn(model, ekf.ObservationModel(h=h, h_jacobian=h_jacobian, sigma_nu=np.eye(k)), **rest)

        return call

    now = engine.GaussianBelief(**belief)
    return {
        "GaussianBelief": (engine.GaussianBelief, belief),
        "ControlConfig": (control.ControlConfig, dict(B=np.eye(m), R=np.eye(m))),
        "ItoProcessModel": (process.ItoProcessModel, dict(dim=m, drift=drift, drift_jacobian=jacobian, g_inv=np.eye(m), dt=0.5)),
        "ObservationModel": (ekf.ObservationModel, dict(h=callables["h"], h_jacobian=callables["h_jacobian"], sigma_nu=np.eye(k))),
        "ObservationStream": (ekf.ObservationStream, dict(steps=[0, 2, 5], values=np.full((3, k), 0.1))),
        "PotentialEvaluation": (PotentialEvaluation, pot),
        "step_sample": (
            with_models(lambda model, obs, x, t: process.step_sample(model, x, t, np.random.default_rng(0))),
            {**callables, "x": np.full(m, 0.3), "t": 3},
        ),
        "simulate_open_loop": (
            with_models(lambda model, obs, x0, steps: process.simulate_open_loop(model, x0, steps, np.random.default_rng(0))),
            {**callables, "x0": np.full(m, 0.3), "steps": 3},
        ),
        "ekf_step": (
            with_models(lambda model, obs, y, t: ekf.ekf_step(now, model, obs, y, t)), {**callables, "y": np.full(k, 0.1), "t": 2},
        ),
        "marginal_likelihood": (
            with_models(lambda model, obs, y: ekf.marginal_likelihood(now, obs, y)), {**callables, "y": np.full(k, 0.1)},
        ),
        "update": (lambda dt: engine.update(now, PotentialEvaluation(**pot), dt), dict(dt=1.0)),
    }


def test_constructors_and_textbook_functions_raise_only_sqc_errors():
    # One or two arguments of a public constructor, of step_sample,
    # simulate_open_loop, ekf_step or marginal_likelihood, or update()'s
    # dt, replaced by a value from junk(m). A callable argument is
    # replaced by the value itself or by a callable that returns it.
    rnd = random.Random(12)
    found = {}
    for _ in range(1500):
        m, k = rnd.randint(1, 3), rnd.randint(1, 3)
        calls = entry_calls(m, k)
        name = rnd.choice(sorted(calls))
        call, kwargs = calls[name]
        kwargs = dict(kwargs)
        for key in rnd.sample(sorted(kwargs), min(len(kwargs), rnd.choice((1, 2)))):
            value = rnd.choice(junk(m))
            if callable(kwargs[key]) and rnd.random() < 0.7:
                value = lambda x, t, value=value: value
            kwargs[key] = value
        crash = bare_exception(lambda: call(**kwargs))
        if crash is not None:
            found.setdefault((name, crash), repr(kwargs)[:300])
    assert not found, found


def test_steps_are_whole_numbers_at_every_public_entry():
    # A step that is not a whole number used to pass construction: as
    # "x" or None it crashed the run later with a bare TypeError, as 1.5
    # it ran with first_step 1.5, and observation steps 1.5 or True were
    # cut to ints silently.
    for step in ("x", None, 1.5, True, 2**63):
        with pytest.raises(ValidationError, match="belief step must be a whole number"):
            engine.GaussianBelief(mean=[0.0], cov=[[1.0]], step=step)
    assert engine.GaussianBelief(mean=[0.0], cov=[[1.0]], step=3.0).step == 3
    for steps, message in (
        ([1.5, 2.7], "observation steps must be a whole number a C long holds; got 1.5"),
        ([True, 2], "observation steps must be a number or lists of numbers of equal length; got [True, 2]"),
        (["a"], "observation steps must be a number"),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)):
            ekf.ObservationStream(steps=steps, values=np.zeros((len(steps), 1)))
    assert ekf.ObservationStream(steps=[1, 2.0], values=np.zeros((2, 1))).steps.tolist() == [1, 2]
    # The filter's horizon is a step too: 2.5 and "x" used to raise a bare TypeError.
    model = process.ItoProcessModel(dim=1, drift=lambda x, t: -x, drift_jacobian=lambda x, t: -np.eye(1), g_inv=np.eye(1))
    obs = ekf.ObservationModel(h=lambda x, t: x, h_jacobian=lambda x, t: np.eye(1), sigma_nu=np.eye(1))
    stream = ekf.ObservationStream(steps=[0, 1], values=[[0.1], [0.2]])
    for horizon in (2.5, "x"):
        with pytest.raises(ValidationError, match="horizon must be a whole number"):
            ekf.filter_with_likelihood(model, obs, stream, engine.GaussianBelief(mean=[0.0], cov=[[1.0]]), horizon)
