import json
import multiprocessing

import numpy as np
import pytest

from sqc import __version__, cli, control, ekf, engine, oracle
from sqc.errors import ParseError, ValidationError
from sqc.potential import tanh_target
from sqc.scenario import (
    BUNDLED_SCENARIOS,
    load_bundled,
    parse_scenario,
    scenario_from_dict,
    write_scenario,
)


def penalty_doc(horizon=40, seed=0, mode="sampled"):
    return {
        "name": "penalty-small",
        "process": {
            "drift": {"kind": "vanderpol_forced", "params": {}},
            "g_inv": [[0.001, 0.0], [0.0, 0.001]],
            "dt": 1.0,
        },
        "potential": {
            "kind": "quadratic_penalty",
            "params": {"sigma_nu": [[0.001, 0.0], [0.0, 0.0001]]},
            "target": {"kind": "constant", "params": {"value": [0.2, -0.1]}},
        },
        "initial": {"mean": [0.5, 0.5], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "horizon": horizon,
        "seed": seed,
        "mode": mode,
    }


def observation_doc(horizon=20):
    return {
        "name": "filter-demo",
        "process": {
            "drift": {"kind": "linear", "params": {"A": [[-0.1, 0.0], [0.0, -0.2]]}},
            "g_inv": [[0.02, 0.0], [0.0, 0.03]],
        },
        "potential": {
            "kind": "observation",
            "params": {"sigma_nu": [[0.05]], "map": {"kind": "linear", "C": [[1.0, 0.0]]}},
        },
        "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "horizon": horizon,
        "seed": 1,
    }


def dying_barrier_doc():
    return {
        "name": "barrier-crash",
        "process": {
            "drift": {"kind": "linear", "params": {"A": [[-5.0]]}},
            "g_inv": [[1e-06]],
        },
        "potential": {"kind": "log_barrier", "params": {"a": [0.5]}},
        "initial": {"mean": [0.1], "cov": [[0.0001]]},
        "horizon": 30,
        "seed": 0,
        "mode": "belief",
    }


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_table(path):
    # Row one is the version comment, row two the column names.
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=1)


# ---------------------------------------------------------------------------
# Scenario parsing and the bundled benchmark frames.

def test_bundled_penalty_matches_benchmark_frame():
    sc = load_bundled("penalty")
    assert sc.drift_kind == "vanderpol_forced" and sc.mode == "sampled"
    assert sc.horizon == 5000 and sc.seed == 0 and sc.dt == 1.0
    np.testing.assert_allclose(sc.g_inv, 0.001 * np.eye(2))
    np.testing.assert_allclose(sc.potential_params["sigma_nu"], np.diag([0.001, 0.0001]))
    np.testing.assert_allclose(sc.target_params["value"], [0.2, -0.1])
    np.testing.assert_allclose(sc.mean0, [0.5, 0.5])
    np.testing.assert_allclose(sc.cov0, np.eye(2))


def target_floats(scenario):
    # The scenario's target schedule on Python floats: step -> list of m floats.
    if scenario.target_kind == "constant":
        value = np.asarray(scenario.target_params["value"], dtype=float).tolist()
        return lambda t: value
    ramp = scenario.target_params
    return lambda t: tanh_target(t, scenario.dim, ramp["amplitude"], ramp["rate"], ramp["center"]).tolist()


def test_bundled_barrier_and_doublewell_frames():
    barrier = load_bundled("barrier")
    np.testing.assert_allclose(barrier.potential_params["a"], [10.0, 10.0])
    np.testing.assert_allclose(barrier.g_inv, 0.001 * np.eye(2))

    dwell = load_bundled("doublewell")
    np.testing.assert_allclose(dwell.g_inv, 0.5 * np.eye(2))
    np.testing.assert_allclose(dwell.potential_params["sigma_nu"], 0.001 * np.eye(2))
    assert dwell.target_kind == "tanh_ramp"
    target = target_floats(dwell)
    np.testing.assert_allclose(target(2500), [0.2, 0.2], atol=1e-12)
    np.testing.assert_allclose(target(5000), [0.4, 0.4], atol=1e-10)
    assert max(target(0)) < 1e-12
    # The double well vanishes where |x| equals the target.
    potential_fn = dwell.build_potential()
    assert potential_fn(np.array([0.2, -0.2]), 2500).value == pytest.approx(0.0, abs=1e-20)
    assert potential_fn(np.array([0.4, 0.4]), 5000).value == pytest.approx(0.0, abs=1e-12)
    assert potential_fn(np.array([1e-7, 1e-7]), 0).value < 1e-20


def test_all_bundled_names_load():
    for name in BUNDLED_SCENARIOS:
        sc = load_bundled(name, overrides={"horizon": 10})
        assert sc.horizon == 10


def test_overrides_must_be_a_dict():
    # A list of pairs used to raise a bare AttributeError on .items().
    for overrides in ([("horizon", 10)], [], "horizon"):
        with pytest.raises(ValidationError, match="overrides must be a dict"):
            load_bundled("penalty", overrides=overrides)
        with pytest.raises(ValidationError, match="overrides must be a dict"):
            control.run_scenario("penalty", overrides=overrides)


def test_write_parse_roundtrip(tmp_path):
    sc = load_bundled("doublewell", seed=7)
    path = tmp_path / "copy.json"
    write_scenario(sc, path)
    back = parse_scenario(path)
    assert back.to_dict() == sc.to_dict()


def _observed(doc):
    # doc with the observation potential of observation_doc; its params.
    doc["potential"] = observation_doc()["potential"]
    return doc["potential"]["params"]


def mutate(doc_mutation):
    doc = penalty_doc()
    doc_mutation(doc)
    return doc


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d.pop("initial"), "missing required key"),
        (lambda d: d["initial"].update(cov=[[1.0, 0.0], [0.0, -1.0]]), "positive definite"),
        (lambda d: d["initial"].update(cov=[[1.0, 0.1], [0.0, 1.0]]), "not symmetric"),
        (lambda d: d["process"].update(g_inv=[[1.0]]), "does not match"),
        (lambda d: d["process"].update(dt=0.0), "dt must be positive"),
        (lambda d: d["process"]["drift"].update(kind="brownian"), "unknown drift kind"),
        (lambda d: d["process"]["drift"].update(params={"scale": 1, "x": 2}), "vanderpol_forced"),
        (lambda d: d["potential"].update(kind="cubic"), "unknown potential kind"),
        (lambda d: d["potential"].pop("target"), "requires a target"),
        (lambda d: d["potential"]["target"].update(kind="step"), "unknown target kind"),
        (lambda d: d.update(mode="exact"), "unknown mode"),
        (lambda d: d.update(horizon=0), "horizon"),
        (lambda d: d.update(control={"B": [[1.0]], "R": [[1.0]]}), "rows"),
        (lambda d: d["initial"].update(cov=[[1.0]]), "does not match mean dim 2"),
        (lambda d: d["potential"]["target"]["params"].update(value=[0.2]), "target value dim 1"),
        (lambda d: d.update(potential={"kind": "log_barrier", "params": {"a": [1.0]}}),
         "barrier weight dim 1"),
        (lambda d: d.update(potential={"kind": "log_barrier", "params": {"a": [1.0, -1.0]}}),
         "barrier weights a must be positive"),
        (lambda d: _observed(d)["map"].pop("C"), 'linear observation map requires "C"'),
        (lambda d: _observed(d)["map"].update(C=[[1.0]]), "C has 1 columns"),
        (lambda d: _observed(d).update(sigma_nu=np.eye(2).tolist()),
         "sigma_nu dim does not match observation map rows"),
        (lambda d: _observed(d)["map"].update(kind="quadratic"), "unknown observation map kind"),
        (lambda d: d["potential"].update(observation_doc()["potential"]),
         "observation potential takes no target"),
        (lambda d: d.update(control={"B": np.eye(2).tolist(), "R": [[1.0]]}), "R dim does not match B"),
        (lambda d: d["process"].update(g_inv=[[0.001, 0.0]]), "must be square"),
        (lambda d: d.update(initial=[0.5, 0.5]), "initial must be a JSON object"),
    ],
)
def test_scenario_rejects_bad_documents(mutation, message):
    with pytest.raises(ValidationError, match=message):
        scenario_from_dict(mutate(mutation))


def _with_sigma_nu(doc, sigma_nu):
    doc["potential"]["params"]["sigma_nu"] = sigma_nu
    return doc


@pytest.mark.parametrize(
    "doc, shape",
    [
        (_with_sigma_nu(penalty_doc(), 3), (1, 1)),
        (_with_sigma_nu(penalty_doc(), np.eye(3).tolist()), (3, 3)),
        (_with_sigma_nu(load_bundled("doublewell").to_dict(), [0.5]), (1, 1)),
        (_with_sigma_nu(load_bundled("doublewell").to_dict(), np.eye(3).tolist()), (3, 3)),
        (_with_sigma_nu(mutate(lambda d: _observed(d)["map"].update(kind="identity", C=None)),
                        np.eye(3).tolist()), (3, 3)),
    ],
    ids=["penalty-scalar", "penalty-3x3", "doublewell-1", "doublewell-3x3", "identity-map-3x3"],
)
def test_scenario_refuses_sigma_nu_of_another_dim(tmp_path, capsys, doc, shape):
    # A potential that weighs the whole state needs a (dim, dim) sigma_nu;
    # the penalty and double well used to crash in their float forms.
    message = rf"sigma_nu has shape \({shape[0]}, {shape[1]}\); .* on state dim 2 needs \(2, 2\)"
    with pytest.raises(ValidationError, match=message):
        scenario_from_dict(doc)
    command = "filter" if doc["potential"]["kind"] == "observation" else "simulate"
    obs = tmp_path / "obs.csv"
    obs.write_text("step,y1,y2\n1,0.1,0.2\n")
    argv = [command, "--scenario", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]
    assert cli.main(argv + (["--obs", str(obs)] if command == "filter" else [])) == 1
    assert "error: sigma_nu has shape" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_accepts_badly_scaled_regular_matrices():
    # Only singularity is refused, not a spread of scales: each matrix
    # is exactly regular once scaled to a unit diagonal.
    doc = penalty_doc()
    doc["process"]["g_inv"] = np.diag([1e-9, 1e9]).tolist()
    doc["initial"]["cov"] = [[1e-10, 1e-6], [1e-6, 1e4]]
    doc["control"] = {"B": np.diag([1e4, 1e-4]).tolist(), "R": np.eye(2).tolist()}
    sc = scenario_from_dict(doc)
    np.testing.assert_array_equal(sc.g_inv, np.diag([1e-9, 1e9]))


def test_scenario_rejects_barrier_with_target():
    doc = dying_barrier_doc()
    doc["potential"]["target"] = {"kind": "constant", "params": {"value": [0.1]}}
    with pytest.raises(ValidationError, match="takes no target"):
        scenario_from_dict(doc)


def test_scenario_rejects_identity_map_with_C():
    doc = observation_doc()
    doc["potential"]["params"]["map"] = {"kind": "identity", "C": [[1.0, 0.0]]}
    with pytest.raises(ValidationError, match="takes no C"):
        scenario_from_dict(doc)


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "oops\n}')
    with pytest.raises(ParseError, match=r"broken\.json:2:"):
        parse_scenario(path)
    empty = tmp_path / "empty.json"
    empty.write_text("  \n")
    with pytest.raises(ParseError, match="empty"):
        parse_scenario(empty)


def test_build_potential_follows_target_schedule():
    sc = scenario_from_dict(penalty_doc())
    fn = sc.build_potential()
    pot = fn(np.array([0.2, -0.1]), 0)
    assert pot.value == pytest.approx(0.0, abs=1e-20)
    pot = fn(np.array([0.3, -0.1]), 0)
    assert pot.value == pytest.approx(0.5 * 0.1**2 * 1000.0)


# ---------------------------------------------------------------------------
# CLI: simulate.

def test_simulate_writes_trajectory_and_summary(tmp_path, capsys):
    scenario = write_doc(tmp_path, penalty_doc())
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
    table = read_table(out / "trajectory.csv")
    assert len(table) == 41
    assert table.dtype.names[:4] == ("step", "x1", "x2", "u1")
    assert "V" in table.dtype.names and "logN" in table.dtype.names
    summary = json.loads((out / "run.json").read_text())
    assert summary["completed"] is True and summary["exit_code"] == 0
    assert summary["rows"] == 41 and summary["failure"] is None
    assert summary["jitter_retries"] == 0
    assert "completed" in capsys.readouterr().out


def test_simulate_is_deterministic_per_seed(tmp_path):
    scenario = write_doc(tmp_path, penalty_doc())
    outs = [tmp_path / f"run{i}" for i in range(3)]
    cli.main(["simulate", "--scenario", scenario, "--out", str(outs[0])])
    cli.main(["simulate", "--scenario", scenario, "--out", str(outs[1])])
    cli.main(["simulate", "--scenario", scenario, "--out", str(outs[2]), "--seed", "9"])
    a, b, c = (np.genfromtxt(o / "trajectory.csv", delimiter=",", skip_header=2) for o in outs)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_steps_and_mode_overrides(tmp_path):
    scenario = write_doc(tmp_path, penalty_doc())
    out = tmp_path / "belief"
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(out),
                     "--steps", "12", "--mode", "belief"]) == 0
    table = read_table(out / "trajectory.csv")
    assert len(table) == 13
    np.testing.assert_array_equal(table["x1"], table["mean1"])
    np.testing.assert_array_equal(table["x2"], table["mean2"])


def test_simulate_seed_sweep_matches_single_runs(tmp_path):
    scenario = write_doc(tmp_path, penalty_doc(horizon=30))
    for case, overrides in enumerate([[], ["--steps", "12", "--mode", "belief"]]):
        sweep = tmp_path / f"sweep{case}"
        assert cli.main(["simulate", "--scenario", scenario, "--out", str(sweep),
                         "--seeds", "0..2", *overrides]) == 0
        for seed in range(3):
            single = tmp_path / f"single{case}_{seed}"
            cli.main(["simulate", "--scenario", scenario, "--out", str(single), "--seed", str(seed),
                      *overrides])
            for name in ("trajectory.csv", "run.json"):
                assert (sweep / f"seed_{seed}" / name).read_bytes() == (single / name).read_bytes()


def test_simulate_rejects_observation_scenario(tmp_path, capsys):
    scenario = write_doc(tmp_path, observation_doc())
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "x")]) == 1
    assert "filter" in capsys.readouterr().err


def test_simulate_domain_violation_exit_code(tmp_path):
    scenario = write_doc(tmp_path, dying_barrier_doc())
    out = tmp_path / "crash"
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(out)]) == 2
    summary = json.loads((out / "run.json").read_text())
    assert summary["completed"] is False and summary["exit_code"] == 2
    assert "non-positive" in summary["failure"]
    assert summary["rows"] == summary["failed_step"]
    table = read_table(out / "trajectory.csv")
    assert len(table.shape) == 0 or len(table) == summary["rows"]


def test_simulate_stopped_at_step_zero_writes_header_only(tmp_path):
    doc = dying_barrier_doc()
    doc["initial"]["mean"] = [-0.1]  # outside the barrier's domain from the start
    out = tmp_path / "crash"
    assert cli.main(["simulate", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    assert json.loads((out / "run.json").read_text())["failed_step"] == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines == [f"# sqc {__version__}", "step,x1,u1,mean1,cov11,V,logN"]


def test_simulate_numerical_breakdown_writes_partial_output(tmp_path):
    # With sigma_nu = 1e-16 I the first posterior covariance has trace
    # 0, so the sample stage's Cholesky fallback refuses it without a
    # jittered retry and raises NotPositiveDefinite. Like a domain
    # violation, that stops the run with its partial trajectory (none
    # here) and a run.json, exit 2. jitter_retries counts the stopping
    # factorization, which engine._run adds.
    doc = load_bundled("penalty").to_dict()
    doc["potential"]["params"]["sigma_nu"] = [[1e-16, 0.0], [0.0, 1e-16]]
    doc["horizon"] = 200
    scenario = write_doc(tmp_path, doc)
    header = f"# sqc {__version__}\nstep,x1,x2,u1,u2,mean1,mean2,cov11,cov12,cov21,cov22,V,logN\n"
    out = tmp_path / "single"
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(out)]) == 2
    sweep = tmp_path / "sweep"
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(sweep), "--seeds", "0..1"]) == 2
    for run in (out, sweep / "seed_0", sweep / "seed_1"):
        summary = json.loads((run / "run.json").read_text())
        assert summary["completed"] is False and summary["exit_code"] == 2
        assert summary["failed_step"] == 0 and summary["rows"] == 0
        assert "not positive definite" in summary["failure"]
        assert summary["jitter_retries"] >= 1
        assert (run / "trajectory.csv").read_text() == header
    assert (sweep / "seed_0" / "run.json").read_bytes() == (out / "run.json").read_bytes()
    belief = tmp_path / "belief"
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(belief), "--mode", "belief"]) == 0
    assert json.loads((belief / "run.json").read_text())["rows"] == 201


def test_simulate_builds_no_records(tmp_path, monkeypatch):
    # The CLI writes trajectory.csv and run.json from the result's
    # columns; the per-step records are built only when read.
    built = []

    class CountingRecord(control.TrajectoryRecord):
        def __init__(self, *fields):
            built.append(fields[0])
            super().__init__(*fields)

    monkeypatch.setattr(control, "TrajectoryRecord", CountingRecord)
    path = tmp_path / "penalty.json"
    write_scenario(load_bundled("penalty"), path)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out), "--steps", "300"]) == 0
    assert built == []
    assert json.loads((out / "run.json").read_text())["rows"] == 301
    # The counter bites: reading the records builds one per step.
    assert len(control.run_scenario("penalty", overrides={"horizon": 300}).records) == 301
    assert built == list(range(301))


def test_records_view_matches_columns():
    result = control.run_scenario("penalty", overrides={"horizon": 300})
    records = result.records
    assert len(records) == len(result.x) == 301
    for i, rec in enumerate(records):
        assert rec.step == result.first_step + i
        for got, want in ((rec.x, result.x), (rec.u, result.u), (rec.mean, result.mean),
                          (rec.cov, result.cov), (rec.value, result.value), (rec.log_n, result.log_n)):
            assert np.asarray(got).tobytes() == want[i].tobytes()
    assert result.records is records

    doc = dying_barrier_doc()
    doc["initial"]["mean"] = [-0.1]  # outside the barrier's domain from the start
    stopped = control.run_scenario_config(scenario_from_dict(doc))
    assert stopped.failed_step == 0 and stopped.records == []
    assert stopped.x.shape == stopped.mean.shape == stopped.u.shape == (0, 1)
    assert stopped.cov.shape == (0, 1, 1) and stopped.value.shape == stopped.log_n.shape == (0,)


def rendered_per_value(step, values):
    return ",".join([str(step)] + [f"{v:.17g}" for v in values])


def test_csv_writers_render_each_value_with_17_digits(tmp_path, monkeypatch):
    # Both writers must give exactly the text of formatting every value
    # with f"{v:.17g}": signed zero, nan, inf, whole numbers, and every
    # case that falls back to Python: the smallest subnormal and values
    # near the overflow limit (outside [1e-270, 1e290]), an exact tie
    # (1 + 2**-17 has 18 digits, the last a 5), and 1e-7 and 100.0,
    # whose rounded digits are 10**16 (log10 of the double nearest 1e-7
    # reads -7, one too high), as are steps 1 and 10. Chunks of 1 and 4
    # rows put chunk boundaries between rows of both files.
    odd = [-0.0, 5e-324, 1e308, 0.0, 3.0, -2.0, 1 / 3, -1e-300,
           1 + 2**-17, 1e-7, 100.0, float("inf"), -float("inf"), float("nan")]
    fallbacks = [5e-324, 1e308, -1e-300, 1 + 2**-17, 1e-7, 100.0]
    _, _, exact = cli._significand(np.array(fallbacks))
    assert not exact.any()
    rng = np.random.default_rng(5)
    v = rng.permutation(odd * 4 + list(rng.standard_normal(11 * 13 - 4 * len(odd)))).reshape(11, 13)
    result = control.ScenarioResult(
        first_step=0, x=v[:, 0:2], mean=v[:, 2:4], cov=v[:, 4:8].reshape(11, 2, 2), value=v[:, 8],
        log_n=v[:, 9], u=v[:, 10:13], completed=True,
    )
    mean = np.array([odd[i:i + 2] for i in range(3)])
    cov = np.array([odd[i + 2:i + 6] for i in range(3)]).reshape(3, 2, 2)
    logliks = [-0.0, float("nan"), 12.0]
    for chunk_rows in (1, 4, cli._CHUNK_ROWS):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "trajectory.csv"
        cli._write_csv(path, result.first_step, {
            "x": result.x, "u": result.u, "mean": result.mean, "cov": result.cov, "V": result.value,
            "logN": result.log_n,
        })
        rows = path.read_text().splitlines()[2:]
        assert rows == [
            rendered_per_value(i, [*result.x[i], *result.u[i], *result.mean[i], *result.cov[i].ravel(),
                                   result.value[i], result.log_n[i]])
            for i in range(11)
        ]

        path = tmp_path / "beliefs.csv"
        cli._write_csv(path, 0, {"mean": mean, "cov": cov, "loglik": np.array(logliks)})
        rows = path.read_text().splitlines()
        assert rows[:2] == [f"# sqc {__version__}", "step,mean1,mean2,cov11,cov12,cov21,cov22,loglik"]
        assert rows[2:] == [
            rendered_per_value(i, [*mean[i], *cov[i].ravel(), ll]) for i, ll in enumerate(logliks)
        ]
        assert rows[3].endswith(",nan") and rows[2].startswith("0,-0,4.9406564584124654e-324,")


def test_csv_header_names_each_column_from_its_shape(tmp_path):
    # A 3-D state with a one-column u: (n,) arrays give their name,
    # (n, m) ones name1..namem and (n, m, m) ones name11..namemm, in
    # row-major order, and each row lists the arrays' entries in turn.
    rng = np.random.default_rng(3)
    columns = {
        "x": rng.standard_normal((4, 3)), "u": rng.standard_normal((4, 1)), "mean": rng.standard_normal((4, 3)),
        "cov": rng.standard_normal((4, 3, 3)), "V": rng.standard_normal(4), "logN": rng.standard_normal(4),
    }
    path = tmp_path / "trajectory.csv"
    cli._write_csv(path, 7, columns)
    lines = path.read_text().splitlines()
    assert lines[1] == ",".join(
        ["step", "x1", "x2", "x3", "u1", "mean1", "mean2", "mean3"]
        + [f"cov{i}{j}" for i in "123" for j in "123"] + ["V", "logN"]
    )
    assert lines[2:] == [
        rendered_per_value(7 + i, np.concatenate([np.ravel(col[i]) for col in columns.values()]))
        for i in range(4)
    ]


def _near_ties(rng, per_case: int) -> np.ndarray:
    # v = m * 2**(e - 38) in [10**e, 10**(e + 1)) has
    # y = v * 10**(16 - e) = m * 5**(16 - e) / 2**22. Choosing m with
    # m * 5**(16 - e) = 2**21 + r (mod 2**22) puts y's fraction at
    # 0.5 + r / 2**22: an exact tie for r = 0, within 1e-6 of one for
    # |r| <= 4 and just outside that band for 5 <= |r| <= 8.
    out = []
    for e in range(-7, 6):
        scale = 2 ** (38 - e)
        low = 10**e * scale if e >= 0 else -(-scale // 10**-e)
        count = (10 ** (e + 1) * scale if e >= 0 else scale // 10 ** (-e - 1)) - low
        inverse = pow(5 ** (16 - e), -1, 2**22)
        for r in range(-8, 9):
            m0 = (2**21 + r) * inverse % 2**22
            k = rng.integers((low - m0) // 2**22 + 1, (low + count - m0) // 2**22, size=per_case)
            out.append(np.ldexp((m0 + k * 2**22).astype(float), e - 38))
    return np.concatenate(out)


def test_csv_text_matches_percent_17g_on_a_million_values(tmp_path):
    # The writer against Python's '%.17g', row by row, on 1,000,000
    # values from a fixed seed: random bit patterns (nan and inf with
    # payloads among them), subnormals, the doubles nearest 10**k and
    # three ulps either side, whole numbers in [1e16, 1e17), exact ties
    # (odd multiples of 2**-17 in [1, 10)), near ties (_near_ties), values
    # spread over 16 decades, and zeros, nan and inf inside every chunk.
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64, size=430_000, dtype=np.uint64)
    signs = rng.integers(0, 2, size=40_000, dtype=np.uint64) << np.uint64(63)
    subnormal = rng.integers(1, 2**52, size=40_000, dtype=np.uint64) | signs
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.uint64)
    around_tens = (tens[:, None] + np.arange(-3, 4, dtype=np.int64).astype(np.uint64)).ravel()
    whole = rng.integers(10**16, 10**17, size=100_000).astype(float)
    ties = np.ldexp((rng.integers(2**16, 5 * 2**16, size=20_000) * 2 + 1).astype(float), -17)
    spread = rng.standard_normal(300_000) * 10.0 ** rng.uniform(-8, 8, size=300_000)
    values = np.concatenate([
        bits.view(float), subnormal.view(float), around_tens.view(float), -around_tens.view(float), whole,
        ties, _near_ties(rng, 300), spread,
        [0.0, -0.0, np.nan, np.inf, -np.inf] * 2_000,
    ])
    values = rng.permutation(np.resize(values, 1_000_000)).reshape(100_000, 10)
    path = tmp_path / "values.csv"
    cli._write_csv(path, 0, {"c": values})
    template = "%d," + ",".join(["%.17g"] * 10)
    expected = [template % (step, *row) for step, row in enumerate(values.tolist())]
    assert path.read_text().splitlines()[2:] == expected


def test_simulate_missing_scenario_file(tmp_path, capsys):
    assert cli.main(["simulate", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_seed_range_is_a_usage_error(tmp_path):
    scenario = write_doc(tmp_path, penalty_doc())
    for seeds in ("5..1", "5"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--scenario", scenario, "--seeds", seeds])
        assert exc.value.code == 2


@pytest.mark.parametrize("seed", [-1, 1.7, "3", True])
def test_scenario_seed_must_be_a_non_negative_whole_number(seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative whole number"):
        scenario_from_dict(penalty_doc(seed=seed))


def test_scenario_seed_accepts_whole_floats():
    assert scenario_from_dict(penalty_doc(seed=3.0)).seed == 3
    assert load_bundled("penalty", seed=np.int64(7)).seed == 7
    assert scenario_from_dict(penalty_doc(horizon=3.0)).horizon == 3


def _set_dt(doc, dt):
    doc["process"]["dt"] = dt


def _set_mean(doc, mean):
    doc["initial"]["mean"] = mean


def _set_drift(doc, kind, params):
    doc["process"]["drift"] = {"kind": kind, "params": params}


def _one_dim(doc, mean=(0.5,), value=(0.2,), a=None):
    # doc cut to one state with zero drift; a given, a barrier replaces the penalty.
    _set_drift(doc, "zero", {})
    doc["process"]["g_inv"] = [[0.001]]
    doc["initial"] = {"mean": list(mean), "cov": [[1.0]]}
    doc["potential"]["params"]["sigma_nu"] = [[0.001]]
    doc["potential"]["target"]["params"]["value"] = list(value)
    if a is not None:
        doc["potential"] = {"kind": "log_barrier", "params": {"a": a}}


_LISTS = "a number or lists of numbers of equal length"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(horizon=2.5), "horizon must be a whole number >= 1; got 2.5"),
        (lambda d: d.update(horizon=True), "horizon must be a whole number >= 1; got True"),
        (lambda d: d.update(horizon="3"), "horizon must be a whole number >= 1; got '3'"),
        (lambda d: _set_dt(d, float("nan")), "dt must be positive, finite and a number; got nan"),
        (lambda d: _set_dt(d, float("inf")), "dt must be positive, finite and a number; got inf"),
        (lambda d: _set_dt(d, "0.5"), "dt must be positive, finite and a number; got '0.5'"),
        (lambda d: _set_dt(d, True), "dt must be positive, finite and a number; got True"),
        (lambda d: _set_mean(d, [float("nan"), 0.0]), "initial mean must be finite; got [nan, 0.0]"),
        (lambda d: _set_mean(d, [True, 0.0]), f"initial mean must be {_LISTS}; got [True, 0.0]"),
        (lambda d: _set_mean(d, ["0.1", 0.0]), f"initial mean must be {_LISTS}; got ['0.1', 0.0]"),
        (lambda d: d["process"].update(g_inv=[["a", 0.0], [0.0, 0.001]]),
         f"g_inv must be {_LISTS}; got [['a', 0.0], [0.0, 0.001]]"),
        (lambda d: d.update(control={"B": [[1.0], [1.0, 0.0]], "R": [[1.0]]}),
         f"B must be {_LISTS}; got [[1.0], [1.0, 0.0]]"),
        (lambda d: d["potential"]["target"]["params"].update(value=["0.2", -0.1]),
         f"target value must be {_LISTS}; got ['0.2', -0.1]"),
        (lambda d: _set_drift(d, "linear", {"A": [["1", 0.0], [0.0, 1.0]]}),
         f"drift matrix A must be {_LISTS}; got [['1', 0.0], [0.0, 1.0]]"),
        (lambda d: _set_drift(d, "vanderpol_forced", [1]), "drift params must be a JSON object; got [1]"),
        (lambda d: _set_drift(d, "vanderpol_forced", {"scale": "0.005"}),
         "vanderpol_forced scale must be a number; got '0.005'"),
        (lambda d: _set_drift(d, "vanderpol_forced", {"scale": True}),
         "vanderpol_forced scale must be a number; got True"),
        (lambda d: _tanh_target(d, rate="0.01"), "target rate must be a number; got '0.01'"),
        (lambda d: _tanh_target(d, rate=[0.01]), "target rate must be a number; got [0.01]"),
        (lambda d: d.update(name=["x"]), "name must be a string; got ['x']"),
        # Singular matrices, and a B that cannot reproduce every shift:
        # refused before the run, not at its first factorization or never.
        (lambda d: d.update(control={"B": [[1.0, 1.0], [1.0, 1.0]], "R": np.eye(2).tolist()}),
         "(B needs full row rank); got B = [[1.0, 1.0], [1.0, 1.0]]"),
        (lambda d: d.update(control={"B": [[1.0], [0.5]], "R": [[1.0]]}),
         "(B needs full row rank); got B = [[1.0], [0.5]]"),
        (lambda d: d.update(control={"B": np.eye(2).tolist(), "R": [[1.0, 1.0], [1.0, 1.0]]}),
         "R not positive definite"),
        (lambda d: d["potential"]["params"].update(sigma_nu=[[0.001, 0.001], [0.001, 0.001]]),
         "sigma_nu not positive definite"),
        (lambda d: d["process"].update(g_inv=[[0.001, 0.001], [0.001, 0.001]]),
         "g_inv not positive definite"),
        (lambda d: d["initial"].update(cov=[[1.0, 1.0], [1.0, 1.0]]), "initial cov not positive definite"),
        # Nested lists where a flat vector belongs: refused, not a TypeError mid-run.
        (lambda d: _one_dim(d, mean=[[0.5]]), "initial mean must be a flat list of numbers; got [[0.5]]"),
        (lambda d: _one_dim(d, value=[[0.2]]), "target value must be a flat list of numbers; got [[0.2]]"),
        (lambda d: _one_dim(d, a=[[1.0]]), "barrier weights a must be a flat list of numbers; got [[1.0]]"),
    ],
    ids=["horizon_fraction", "horizon_true", "horizon_string", "dt_nan", "dt_infinity",
         "dt_string", "dt_true", "mean_nan", "mean_true", "mean_string", "g_inv_string",
         "B_ragged", "target_value_string", "drift_A_string", "drift_params_list",
         "drift_scale_string", "drift_scale_true", "tanh_rate_string", "tanh_rate_list",
         "name_list", "B_rank_deficient", "B_one_column", "R_singular", "sigma_nu_singular",
         "g_inv_singular", "cov_singular", "mean_nested", "target_value_nested", "barrier_a_nested"],
)
def test_simulate_refuses_bad_scenario_numbers(tmp_path, capsys, edit, message):
    # json.dumps writes nan and inf as NaN and Infinity, which the
    # scenario reader parses back to floats.
    doc = penalty_doc()
    edit(doc)
    out = tmp_path / "x"
    assert cli.main(["simulate", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


def _tanh_target(doc, **params):
    doc["potential"]["target"] = {"kind": "tanh_ramp", "params": params}


def _control(doc, b, r):
    doc["control"] = {"B": b, "R": r}


@pytest.mark.parametrize(
    "make_doc, edit, message",
    [
        (penalty_doc, lambda d: _control(d, [[NAN, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
         "B must be finite; got [[nan, 0.0], [0.0, 1.0]]"),
        (penalty_doc, lambda d: _control(d, [[1.0, 0.0], [0.0, 1.0]], [[INF, 0.0], [0.0, 1.0]]),
         "R must be finite; got [[inf, 0.0], [0.0, 1.0]]"),
        (penalty_doc, lambda d: d["process"].update(g_inv=[[INF, 0.0], [0.0, 0.001]]),
         "g_inv must be finite; got [[inf, 0.0], [0.0, 0.001]]"),
        (penalty_doc, lambda d: d["initial"].update(cov=[[1.0, 0.0], [0.0, INF]]),
         "initial cov must be finite; got [[1.0, 0.0], [0.0, inf]]"),
        (penalty_doc, lambda d: d["potential"]["params"].update(sigma_nu=[[INF, 0.0], [0.0, 1.0]]),
         "sigma_nu must be finite; got [[inf, 0.0], [0.0, 1.0]]"),
        (dying_barrier_doc, lambda d: d["potential"]["params"].update(a=[NAN]),
         "barrier weights a must be finite; got [nan]"),
        (dying_barrier_doc, lambda d: d["potential"]["params"].update(a=[INF]),
         "barrier weights a must be finite; got [inf]"),
        (penalty_doc, lambda d: d["potential"]["target"]["params"].update(value=[NAN, 0.0]),
         "target value must be finite; got [nan, 0.0]"),
        (penalty_doc, lambda d: d["potential"]["target"]["params"].update(value=[0.2, -INF]),
         "target value must be finite; got [0.2, -inf]"),
        (penalty_doc, lambda d: _tanh_target(d, amplitude=NAN), "target amplitude must be finite; got nan"),
        (penalty_doc, lambda d: _tanh_target(d, rate=INF), "target rate must be finite; got inf"),
        (penalty_doc, lambda d: _tanh_target(d, center=-INF), "target center must be finite; got -inf"),
        (penalty_doc, lambda d: d["process"]["drift"].update(params={"scale": NAN}),
         "vanderpol_forced parameters must be finite; got scale=nan, forcing=3.0, omega=0.005"),
        (penalty_doc, lambda d: d["process"]["drift"].update(params={"forcing": INF}),
         "vanderpol_forced parameters must be finite; got scale=0.005, forcing=inf, omega=0.005"),
        (penalty_doc, lambda d: d["process"]["drift"].update(params={"omega": -INF}),
         "vanderpol_forced parameters must be finite; got scale=0.005, forcing=3.0, omega=-inf"),
        (dying_barrier_doc, lambda d: d["process"]["drift"].update(params={"A": [[NAN]]}),
         "drift matrix A must be finite; got [[nan]]"),
        (observation_doc, lambda d: d["potential"]["params"]["map"].update(C=[[INF, 0.0]]),
         "observation map C must be finite; got [[inf, 0.0]]"),
    ],
    ids=["B_nan", "R_infinity", "g_inv_infinity", "cov_infinity", "sigma_nu_infinity",
         "barrier_a_nan", "barrier_a_infinity", "target_value_nan", "target_value_minus_infinity",
         "tanh_amplitude_nan", "tanh_rate_infinity", "tanh_center_minus_infinity", "drift_scale_nan",
         "drift_forcing_infinity", "drift_omega_minus_infinity", "drift_A_nan", "observation_C_infinity"],
)
def test_refuses_non_finite_scenario_numbers(tmp_path, capsys, make_doc, edit, message):
    # Left to the run, each of these ends in exit 0 with nan outputs or
    # in exit 2 when the run reaches the bad number. Observation
    # scenarios are driven by `sqc filter`, the others by `sqc simulate`.
    doc = make_doc()
    edit(doc)
    scenario, out = write_doc(tmp_path, doc), tmp_path / "x"
    if make_doc is observation_doc:
        argv = ["filter", "--scenario", scenario, "--obs", obs_csv(tmp_path, [0, 1], [0.1, 0.2])]
    else:
        argv = ["simulate", "--scenario", scenario]
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_simulate_refuses_seed_with_seeds(tmp_path, capsys):
    out = tmp_path / "x"
    argv = ["simulate", "--scenario", write_doc(tmp_path, penalty_doc()), "--out", str(out),
            "--seed", "5", "--seeds", "0..2"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed and --seeds cannot be combined" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc_seed, flags, message",
    [
        (-1, [], "seed must be a non-negative whole number; got -1"),
        (0, ["--seed", "-1"], "--seed must be a non-negative whole number; got -1"),
        (0, ["--seeds=-2..-1"], "--seeds must be a non-negative whole number; got -2"),
        (0, ["--steps", "0"], "--steps must be >= 1"),
    ],
    ids=["scenario_file", "seed_flag", "seeds_flag", "steps_zero"],
)
def test_simulate_refuses_negative_seeds_before_running(tmp_path, capsys, doc_seed, flags, message):
    scenario = write_doc(tmp_path, penalty_doc(seed=doc_seed))
    out = tmp_path / "x"
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "sqc" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI: filter.

def obs_csv(tmp_path, steps, values):
    path = tmp_path / "obs.csv"
    lines = ["step,y1"] + [f"{s},{v}" for s, v in zip(steps, values)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_filter_writes_beliefs(tmp_path, capsys):
    scenario_path = write_doc(tmp_path, observation_doc())
    steps = [0, 1, 2, 4, 7, 12]
    values = [0.1, -0.2, 0.15, 0.3, -0.1, 0.05]
    obs = obs_csv(tmp_path, steps, values)
    out = tmp_path / "filt"
    assert cli.main(["filter", "--scenario", scenario_path, "--obs", obs,
                     "--out", str(out)]) == 0
    table = read_table(out / "beliefs.csv")
    assert len(table) == 13  # steps 0..12, the last observed step

    sc = scenario_from_dict(observation_doc())
    stream = ekf.ObservationStream(steps=np.array(steps), values=np.array(values)[:, None])
    initial = engine.GaussianBelief(mean=sc.mean0, cov=sc.cov0, step=0, tag="predicted")
    mean, _, logliks = ekf.filter_with_likelihood(
        sc.build_model(), sc.build_observation_model(), stream, initial, 12
    )
    np.testing.assert_array_equal(table["mean1"], mean[:, 0])
    np.testing.assert_array_equal(table["mean2"], mean[:, 1])
    mask = np.isfinite(table["loglik"])
    np.testing.assert_array_equal(mask, np.isfinite(logliks))
    np.testing.assert_array_equal(table["loglik"][mask], np.asarray(logliks)[mask])

    printed = capsys.readouterr().out
    assert f"{np.nansum(logliks):.12g}" in printed


def test_filter_rejects_observations_beyond_horizon(tmp_path, capsys):
    scenario_path = write_doc(tmp_path, observation_doc(horizon=20))
    obs = obs_csv(tmp_path, [0, 25], [0.1, 0.2])
    assert cli.main(["filter", "--scenario", scenario_path, "--obs", obs,
                     "--out", str(tmp_path / "x")]) == 1
    assert "beyond horizon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "csv_text, message",
    [
        ("step,y1\n0,0.1\n1,0.2\n", "1 value columns; the scenario observes 2"),
        ("step,y1,y2,y3\n0,0.1,0.2,0.3\n", "3 value columns; the scenario observes 2"),
        ("step,y1,y2\n0,0.5\n1,0.1,0.2\n", "line 2: 2 fields where the header has 3"),
        ("step,y1,y2\n-3,0.1,0.2\n0,0.1,0.2\n", "step -3 is before step 0"),
        ("step,y1,y2\n0,0.1,0.2\n1,0.1,abc\n", "line 3: could not convert"),
        ("step,y1,y2\n0,0.1,0.2\n1.7,0.1,0.2\n", "line 3: step 1.7 is not a whole number"),
        ("step,y1,y2\n0,0.1,0.2\n1,nan,0.2\n", "line 3: observation value nan is not finite"),
        ("step,y1,y2\n0,0.1,0.2\n1,0.1,inf\n", "line 3: observation value inf is not finite"),
        ("step,y1,y2\n0,0.1,0.2\n1e20,0.1,0.2\n", "line 3: step 1e20 is out of range"),
    ],
    ids=["one_column", "three_columns", "short_row", "negative_step", "not_a_number",
         "fractional_step", "nan_value", "inf_value", "huge_step"],
)
def test_filter_rejects_observations_that_do_not_fit(tmp_path, capsys, csv_text, message):
    # The 2-D identity-observed scenario: a file with the wrong number of
    # values, a short row, a step before the start, not a whole number or
    # too large for a C long, or a value that is not a finite number is
    # refused before anything is filtered or written.
    doc = observation_doc()
    doc["potential"]["params"] = {"sigma_nu": [[0.05, 0.0], [0.0, 0.05]], "map": {"kind": "identity"}}
    scenario_path = write_doc(tmp_path, doc)
    obs = tmp_path / "obs.csv"
    obs.write_text(csv_text)
    out = tmp_path / "x"
    assert cli.main(["filter", "--scenario", scenario_path, "--obs", str(obs), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "drift_a, csv_text, code, message",
    [
        ([[-0.1, 0.0], [0.0, -0.2]], None, 1, "i/o error: "),
        ([[1e200, 0.0], [0.0, 1e200]], "step,y1\n0,0.1\n1,0.2\n", 2,
         "error: prediction to step 1 has non-finite entries"),
    ],
    ids=["missing_file", "prediction_overflow"],
)
def test_filter_fails_before_writing(tmp_path, capsys, drift_a, csv_text, code, message):
    doc = observation_doc()
    doc["process"]["drift"]["params"]["A"] = drift_a
    obs = tmp_path / "obs.csv"
    if csv_text is not None:
        obs.write_text(csv_text)
    out = tmp_path / "x"
    argv = ["filter", "--scenario", write_doc(tmp_path, doc), "--obs", str(obs), "--out", str(out)]
    assert cli.main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_filter_empty_observation_file_predicts_to_horizon(tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text("")
    out = tmp_path / "filt"
    argv = ["filter", "--scenario", write_doc(tmp_path, observation_doc(horizon=6)), "--obs", str(obs),
            "--out", str(out)]
    assert cli.main(argv) == 0
    table = read_table(out / "beliefs.csv")
    assert list(table["step"]) == list(range(7)) and np.all(np.isnan(table["loglik"]))


def test_filter_rejects_state_scenarios(tmp_path, capsys):
    scenario_path = write_doc(tmp_path, penalty_doc())
    obs = obs_csv(tmp_path, [0], [0.1])
    assert cli.main(["filter", "--scenario", scenario_path, "--obs", obs,
                     "--out", str(tmp_path / "x")]) == 1
    assert "observation" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: validate.

def test_validate_fast_passes(tmp_path, capsys):
    out = tmp_path / "val"
    assert cli.main(["validate", "--level", "fast", "--out", str(out)]) == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is True
    assert report["identity"]["failures"] == []
    assert set(report["quadrature"]) == {"quadratic_1d", "quadratic_2d", "barrier_expansion"}
    assert "validation passed" in capsys.readouterr().out


def test_validate_flags_broken_update(tmp_path, capsys, monkeypatch):
    # The oracle must notice a corrupted engine, not rubber-stamp it.
    true_update = engine.update

    def skewed(belief, pot, dt):
        out, diag = true_update(belief, pot, dt)
        return engine.GaussianBelief(
            mean=out.mean + 1e-4 * (1.0 + np.abs(out.mean)),
            cov=out.cov, step=out.step, tag=out.tag,
        ), diag

    monkeypatch.setattr(engine, "update", skewed)
    out = tmp_path / "val"
    assert cli.main(["validate", "--level", "fast", "--out", str(out)]) == 1
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is False
    assert len(report["identity"]["failures"]) > 0
    assert "FAILED" in capsys.readouterr().out


def test_validate_full_writes_the_serial_report(tmp_path, capsys):
    # The kernel-residual study runs in a worker process; its report
    # comes back exactly as the in-process call's, and the worker is
    # gone when the command returns.
    out = tmp_path / "val"
    assert cli.main(["validate", "--level", "full", "--out", str(out)]) == 0
    assert multiprocessing.active_children() == []
    report = {
        "level": "full",
        "identity": oracle.identity_suite(seed=0, trials=500),
        "quadrature": oracle.quadrature_checks(),
        "fokker_planck": oracle.fp_convergence(),
        "passed": True,
    }
    assert (out / "validation.json").read_text() == json.dumps(report, indent=2) + "\n"
    assert "kernel residual linear_drift" in capsys.readouterr().out


def test_validate_builds_a_pool_only_at_the_full_level(tmp_path, monkeypatch):
    pools = []

    class CountingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    assert cli.main(["validate", "--level", "fast", "--out", str(tmp_path / "fast")]) == 0
    assert pools == []
    assert cli.main(["validate", "--level", "full", "--out", str(tmp_path / "full")]) == 0
    assert pools == [{"max_workers": 1}]


def test_validate_joins_its_worker_when_a_section_raises(tmp_path, monkeypatch):
    def broken():
        raise RuntimeError("quadrature section failed")

    monkeypatch.setattr(oracle, "quadrature_checks", broken)
    with pytest.raises(RuntimeError, match="quadrature section failed"):
        cli.main(["validate", "--level", "full", "--out", str(tmp_path / "val")])
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "val").exists()


@pytest.mark.parametrize("mode, accepted", [("sampled", True), ("belief", True), ("exact", False)])
def test_cli_scenario_and_closed_loop_accept_the_same_modes(mode, accepted):
    scenario = scenario_from_dict(penalty_doc(horizon=3))
    model, potential_fn = scenario.build_model(), scenario.build_potential()
    cfg = control.ControlConfig(B=scenario.B, R=scenario.R)
    initial = engine.GaussianBelief(mean=scenario.mean0, cov=scenario.cov0)
    calls = [
        (SystemExit, lambda: cli.build_parser().parse_args(["simulate", "--scenario", "s.json", "--mode", mode])),
        (ValidationError, lambda: scenario_from_dict(penalty_doc(mode=mode))),
        (ValidationError, lambda: control.run_closed_loop(
            model, potential_fn, initial, cfg, 3, np.random.default_rng(0), mode=mode)),
    ]
    for refusal, call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(refusal):
                call()
