"""Show that the benchmark's checks bite: python3 bench/selftest.py

Runs short versions of each workload's operations, checks that the
untouched outputs pass, then feeds every check a copy with one mean,
covariance, log-likelihood or other field perturbed by ten times the
tolerance (or otherwise broken) and requires the operation to be counted
as failed. Exits 0 when every untouched output passed and every
perturbed one failed.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

STEPS = 300
BUMP = 10 * 1e-9  # ten times checks.RTOL


def _csv_bump(path: Path, row: int, column: str, rel: float | None = None, text: str | None = None) -> None:
    """Rewrite one CSV field: scaled by 1 + rel (or by +rel for values near 0), or replaced."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    fields = lines[2 + row].split(",")
    i = header.index(column)
    if text is None:
        v = float(fields[i])
        text = f"{(v * (1 + rel) if abs(v) > 1e-3 else v + rel):.17g}"
    fields[i] = text
    lines[2 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from sqc import control

    import checks
    import inputs
    from workloads import Workload, run_sqc

    work = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clean = Workload(ROOT, work, 0)
    broken = Workload(ROOT, work, 0)
    expect_broken = 0

    def bad(label: str, problems: list[str]) -> None:
        nonlocal expect_broken
        expect_broken += 1
        broken.outcome(label, problems)
        print(f"{'caught' if problems else 'MISSED'}: {label}" + (f" ({problems[0]})" if problems else ""))

    try:
        # closed-loop: records of an in-process run.
        for name in ("penalty", "doublewell"):
            scenario = {**inputs.bundled(ROOT, name), "horizon": STEPS}
            result = control.run_scenario(name, overrides={"horizon": STEPS}, seed=7)
            clean.outcome(f"{name} run", checks.check_run_result(result, scenario, 7))
            table = checks.records_table(result.records)
            for field, index in (("x", (120, 0)), ("mean", (120, 1)), ("cov", (120, 0, 1)),
                                 ("u", (120, 0)), ("V", (120,)), ("logN", (120,))):
                perturbed = copy.deepcopy(table)
                v = perturbed[field][index]
                perturbed[field][index] = v * (1 + BUMP) if abs(v) > 1e-3 else v + BUMP
                bad(f"{name} record {field}", checks.check_records(perturbed, scenario, 7, STEPS))
            stopped = copy.copy(result)
            stopped.completed, stopped.failed_step, stopped.failure = False, 99, "stopped"
            bad(f"{name} run that did not complete", checks.check_run_result(stopped, scenario, 7))
            bad(f"{name} run with the wrong seed's draws", checks.check_run_result(result, scenario, 8))
        bad("penalty bar held by 89 of 100 seeds", checks.share_problems("penalty", 89, 100))
        clean.outcome("penalty bar held by 90 of 100 seeds", checks.share_problems("penalty", 90, 100))

        # cli: sqc simulate output files.
        penalty = {**inputs.bundled(ROOT, "penalty"), "horizon": STEPS}
        scenario_path = work / "penalty.json"
        inputs.write_json(scenario_path, penalty)
        sim = work / "sim"
        code = run_sqc(["simulate", "--scenario", str(scenario_path), "--out", str(sim), "--seed", "5"])
        clean.outcome("simulate", ([] if code == 0 else [f"exit {code}"]) + checks.check_simulate_dir(sim, penalty, 5))
        for column in ("x1", "mean2", "cov12", "u1", "V", "logN"):
            copy_dir = work / f"sim-{column}"
            shutil.copytree(sim, copy_dir)
            _csv_bump(copy_dir / "trajectory.csv", 200, column, rel=BUMP)
            bad(f"trajectory.csv {column}", checks.check_simulate_dir(copy_dir, penalty, 5))
            bad(f"sweep directory differing in {column}", checks.check_same_files(sim, copy_dir))
        short = work / "sim-short"
        shutil.copytree(sim, short)
        lines = (short / "trajectory.csv").read_text().splitlines()
        (short / "trajectory.csv").write_text("\n".join(lines[:-1]) + "\n")
        bad("trajectory.csv missing its last row", checks.check_simulate_dir(short, penalty, 5))
        renamed = work / "sim-header"
        shutil.copytree(sim, renamed)
        text = (renamed / "trajectory.csv").read_text()
        (renamed / "trajectory.csv").write_text(text.replace(",logN\n", ",log_n\n", 1))
        bad("trajectory.csv header", checks.check_simulate_dir(renamed, penalty, 5))
        stopped = work / "sim-stopped"
        shutil.copytree(sim, stopped)
        summary = json.loads((stopped / "run.json").read_text())
        summary["completed"] = False
        (stopped / "run.json").write_text(json.dumps(summary))
        bad("run.json completed false", checks.check_simulate_dir(stopped, penalty, 5))

        # cli: sqc filter over a short gapped stream.
        filter_doc = {**inputs.FILTER_SCENARIO, "horizon": STEPS}
        filter_path = work / "filter.json"
        inputs.write_json(filter_path, filter_doc)
        obs = inputs.observation_stream(np.random.default_rng(3), horizon=STEPS, gaps=STEPS // 5)
        obs_path = work / "observations.csv"
        inputs.write_observations(obs_path, obs)
        flt = work / "filter"
        code = run_sqc(["filter", "--scenario", str(filter_path), "--obs", str(obs_path), "--out", str(flt)])
        clean.outcome("filter", ([] if code == 0 else [f"exit {code}"])
                      + checks.check_beliefs(flt, filter_doc, obs, STEPS))
        observed = next(s for s in range(150, STEPS) if s in obs)
        gap = next(s for s in range(150, STEPS) if s not in obs)
        for case, (label, row, column, kwargs) in enumerate((
            ("loglik", observed, "loglik", {"rel": BUMP}),
            ("mean", observed, "mean1", {"rel": BUMP}),
            ("cov", gap, "cov22", {"rel": BUMP}),
            ("loglik at a gap step", gap, "loglik", {"text": "-1.5"}),
            ("nan loglik at an observed step", observed, "loglik", {"text": "nan"}),
        )):
            copy_dir = work / f"filter-{case}"
            shutil.copytree(flt, copy_dir)
            _csv_bump(copy_dir / "beliefs.csv", row, column, **kwargs)
            bad(f"beliefs.csv {label}", checks.check_beliefs(copy_dir, filter_doc, obs, STEPS))

        # validate: the report of one real run, then broken copies.
        val = work / "validate"
        code = run_sqc(["validate", "--level", "full", "--out", str(val)])
        clean.outcome("validate", checks.check_validation(code, val))
        report = json.loads((val / "validation.json").read_text())
        for label, change in (
            ("passed false", lambda r: r.update(passed=False)),
            ("kernel ratio 1.2", lambda r: r["fokker_planck"]["linear_drift"].update(ratios=[2.0, 1.2, 2.0])),
            ("kernel study missing", lambda r: r.pop("fokker_planck")),
        ):
            changed = copy.deepcopy(report)
            change(changed)
            copy_dir = work / f"validate-{label.replace(' ', '-')}"
            copy_dir.mkdir()
            (copy_dir / "validation.json").write_text(json.dumps(changed))
            bad(f"validation.json {label}", checks.check_validation(0, copy_dir))
        bad("validate exit code 1", checks.check_validation(1, val))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in clean.problems:
        print(f"UNEXPECTED: {line}")
    ok = clean.failed == 0 and broken.failed == expect_broken == broken.attempted
    print(f"untouched outputs: {clean.attempted} checked, {clean.failed} failed; "
          f"perturbed outputs: {broken.attempted} checked, {broken.failed} counted as failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
