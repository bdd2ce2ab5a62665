"""Malformed input to a public entry raises an SqcError subclass, never a bare exception.

A fixed-seed loop replaces one or two fields of a valid scenario with
values from a fixed set and parses and runs it, writes observation
files from malformed pieces and reads them, and hands the public
update, predict and sample_posterior beliefs, models and potentials
of mismatched shapes. Each test collects every exception that is not
an SqcError, with the input that raised it, and fails listing them.
"""

import copy
import json
import random
from importlib import resources

import numpy as np
import pytest

from sqc import control, ekf, engine, process
from sqc.errors import SqcError
from sqc.potential import PotentialEvaluation
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
        pot = PotentialEvaluation(
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
            ("update", engine.update, belief, pot, dt),
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
