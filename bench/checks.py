"""Correctness checks on the program's outputs, made apart from the program.

Each check returns a list of problems; an empty list means the output
passed. The numbers are recomputed by `reference`, never by `sqc`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

# Recomputation from the previous record agrees to about 1e-12 today.
RTOL = 1e-9

# Bars of acceptance checks 5 and 7 on the last 500 states of each seed.
PENALTY_TARGET = np.array([0.2, -0.1])
PENALTY_TOL = 0.05
WELL_LEVEL = 0.4
WELL_TOL = 0.08
TAIL = 500
MIN_SHARE = 0.9


def trajectory_columns(m: int, ldim: int) -> list[str]:
    """The trajectory.csv header the README documents."""
    return (
        ["step"]
        + [f"x{i}" for i in range(1, m + 1)]
        + [f"u{i}" for i in range(1, ldim + 1)]
        + [f"mean{i}" for i in range(1, m + 1)]
        + [f"cov{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
        + ["V", "logN"]
    )


def belief_columns(m: int) -> list[str]:
    """The beliefs.csv header the README documents."""
    return (
        ["step"]
        + [f"mean{i}" for i in range(1, m + 1)]
        + [f"cov{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
        + ["loglik"]
    )


def records_table(records) -> dict:
    """Stack a closed-loop run's records into arrays keyed like the CSV."""
    return {
        "step": np.array([r.step for r in records]),
        "x": np.array([r.x for r in records]),
        "u": np.array([r.u for r in records]),
        "mean": np.array([r.mean for r in records]),
        "cov": np.array([r.cov for r in records]),
        "V": np.array([r.value for r in records]),
        "logN": np.array([r.log_n for r in records]),
    }


def read_csv_table(path: Path, columns: list[str]) -> tuple[dict | None, list[str]]:
    """Parse a CSV the program wrote: comment line, exact header, float rows."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        return None, [f"{path.name} unreadable: {exc}"]
    if len(lines) < 2 or not lines[0].startswith("# sqc "):
        return None, [f"{path.name}: first line is not the '# sqc <version>' comment"]
    if lines[1] != ",".join(columns):
        return None, [f"{path.name}: header {lines[1]!r} is not {','.join(columns)!r}"]
    data = np.array([[float(v) for v in row.split(",")] for row in lines[2:]])
    if data.ndim != 2 or data.shape[1] != len(columns):
        return None, [f"{path.name}: rows do not have {len(columns)} fields"]
    return {name: data[:, i] for i, name in enumerate(columns)}, []


def _gather(table: dict, prefix: str, m: int) -> np.ndarray:
    return np.column_stack([table[f"{prefix}{i}"] for i in range(1, m + 1)])


def _cov(table: dict, m: int) -> np.ndarray:
    """The cov11..covmm columns as one (rows, m, m) array."""
    return np.stack([_gather(table, f"cov{i}", m) for i in range(1, m + 1)], axis=1)


def trajectory_table(raw: dict, m: int, ldim: int) -> dict:
    """CSV columns regrouped into the arrays records_table gives."""
    return {
        "step": raw["step"].astype(int),
        "x": _gather(raw, "x", m),
        "u": _gather(raw, "u", ldim),
        "mean": _gather(raw, "mean", m),
        "cov": _cov(raw, m),
        "V": raw["V"],
        "logN": raw["logN"],
    }


def check_records(table: dict, scenario: dict, seed: int, horizon: int) -> list[str]:
    """Recompute every record from the one before it and compare.

    x, mean, cov and u are compared relative to the row's largest
    entry. V and log_n, the logs of a weight and of its normalization,
    are compared by absolute error, which is the relative error of the
    weight itself.
    """
    steps = table["step"]
    if len(steps) != horizon + 1 or not np.array_equal(steps, np.arange(horizon + 1)):
        return [f"expected steps 0..{horizon}, got {len(steps)} records"]
    want = ref.closed_loop_records(scenario, seed, steps, table["x"], table["cov"])
    errors = {
        "x": ref.rel_err(table["x"], want["x"]),
        "mean": ref.rel_err(table["mean"], want["mean"]),
        "cov": ref.rel_err(table["cov"], want["cov"]),
        "u": ref.rel_err(table["u"], want["u"]),
        "V": ref.rel_err(table["V"], want["V"], np.ones(len(steps))),
        "logN": ref.rel_err(table["logN"], want["logN"], np.ones(len(steps))),
    }
    problems = []
    for name, err in errors.items():
        worst = int(np.argmax(err)) if len(err) else 0
        if not np.all(err <= RTOL):  # also catches nan
            problems.append(f"{name} at step {worst} is off by {err[worst]:.3g} (tolerance {RTOL:g})")
    return problems


def check_run_result(result, scenario: dict, seed: int) -> list[str]:
    """A closed-loop ScenarioResult: completed, and every record recomputed."""
    if not result.completed:
        return [f"run stopped at step {result.failed_step}: {result.failure}"]
    return check_records(records_table(result.records), scenario, seed, scenario["horizon"])


def check_simulate_dir(out: Path, scenario: dict, seed: int) -> list[str]:
    """trajectory.csv and run.json of one `sqc simulate` run."""
    m = len(scenario["initial"]["mean"])
    ldim = len(scenario["control"]["B"][0]) if scenario.get("control") else m
    horizon = scenario["horizon"]
    try:
        summary = json.loads((out / "run.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"run.json unreadable: {exc}"]
    problems = []
    expect = {"seed": seed, "completed": True, "rows": horizon + 1, "exit_code": 0, "horizon": horizon}
    for key, value in expect.items():
        if summary.get(key) != value:
            problems.append(f"run.json {key} is {summary.get(key)!r}, expected {value!r}")
    raw, bad = read_csv_table(out / "trajectory.csv", trajectory_columns(m, ldim))
    if bad:
        return problems + bad
    return problems + check_records(trajectory_table(raw, m, ldim), scenario, seed, horizon)


def check_same_files(a: Path, b: Path, names=("trajectory.csv", "run.json")) -> list[str]:
    """Byte-for-byte equality of the named files in two run directories."""
    problems = []
    for name in names:
        try:
            same = (a / name).read_bytes() == (b / name).read_bytes()
        except OSError as exc:
            problems.append(f"cannot compare {name}: {exc}")
            continue
        if not same:
            problems.append(f"{b / name} differs from {a / name}")
    return problems


def check_beliefs(out: Path, scenario: dict, obs: dict, horizon: int) -> list[str]:
    """beliefs.csv of `sqc filter` against the textbook EKF, row by row."""
    m = len(scenario["initial"]["mean"])
    raw, bad = read_csv_table(out / "beliefs.csv", belief_columns(m))
    if bad:
        return bad
    steps = raw["step"].astype(int)
    if not np.array_equal(steps, np.arange(horizon + 1)):
        return [f"expected steps 0..{horizon}, got {len(steps)} rows"]
    mean = _gather(raw, "mean", m)
    cov = _cov(raw, m)
    want = ref.ekf_rows(scenario, obs, steps, mean, cov)
    gap = np.isnan(want["loglik"])
    problems = []
    if not np.array_equal(np.isnan(raw["loglik"]), gap):
        problems.append("loglik is not nan exactly at the steps without an observation")
    errors = {
        "mean": ref.rel_err(mean, want["mean"]),
        "cov": ref.rel_err(cov, want["cov"]),
        "loglik": ref.rel_err(raw["loglik"][~gap], want["loglik"][~gap], np.ones(int((~gap).sum()))),
    }
    for name, err in errors.items():
        if not np.all(err <= RTOL):
            problems.append(f"beliefs {name} off by {np.nanmax(err):.3g} (tolerance {RTOL:g})")
    return problems


def check_validation(code: int, out: Path) -> list[str]:
    """`sqc validate --level full`: exit 0, passed, first-order residual ratios."""
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        report = json.loads((out / "validation.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return problems + [f"validation.json unreadable: {exc}"]
    if report.get("passed") is not True:
        problems.append("validation.json does not say passed: true")
    cases = report.get("fokker_planck") or {}
    if not cases:
        problems.append("no kernel-residual study in the report")
    for name, case in cases.items():
        ratios = case.get("ratios") or []
        if not ratios or not all(1.5 <= r <= 3.0 for r in ratios):
            problems.append(f"kernel residual {name}: ratios {ratios} not all in [1.5, 3.0]")
    return problems


def tail_means(xs: np.ndarray) -> np.ndarray:
    return xs[-TAIL:].mean(axis=0)


def tracks_target(tail_mean: np.ndarray) -> bool:
    """Check 5's bar for one penalty seed."""
    return bool(np.all(np.abs(tail_mean - PENALTY_TARGET) <= PENALTY_TOL))


def captured(tail_mean: np.ndarray) -> bool:
    """Check 7's bar for one double-well seed: each component near +-0.4."""
    near = np.minimum(np.abs(tail_mean - WELL_LEVEL), np.abs(tail_mean + WELL_LEVEL))
    return bool(np.all(near <= WELL_TOL))


def share_problems(label: str, hits: int, total: int) -> list[str]:
    if total and hits / total >= MIN_SHARE:
        return []
    return [f"{label}: {hits}/{total} seeds meet the bar, fewer than {MIN_SHARE:.0%}"]
