"""Command-line frontend: sqc simulate | filter | validate."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, control, ekf, engine, oracle
from .errors import ParseError, SqcError, ValidationError
from .scenario import check_seed, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2


def _write_csv(path: Path, cols: list[str], steps: Iterable[int], table: np.ndarray) -> None:
    """Write the `# sqc <version>` line, the header and one row per step.

    Each row is one % operation on a template built once per file,
    applied to the table's values as Python floats; it renders the same
    text as formatting each value with f"{v:.17g}", nan, inf and -0
    included.
    """
    template = "%d," + ",".join(["%.17g"] * (len(cols) - 1)) + "\n"
    with path.open("w") as fh:
        fh.write(f"# sqc {__version__}\n{','.join(cols)}\n")
        fh.writelines(template % (step, *row) for step, row in zip(steps, table.tolist()))


def _write_trajectory_csv(path: Path, result: control.ScenarioResult) -> None:
    n, m = result.x.shape
    cols = (
        ["step"]
        + [f"x{i}" for i in range(1, m + 1)]
        + [f"u{i}" for i in range(1, result.u.shape[1] + 1)]
        + [f"mean{i}" for i in range(1, m + 1)]
        + [f"cov{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
        + ["V", "logN"]
    )
    table = np.hstack([
        result.x, result.u, result.mean, result.cov.reshape(n, m * m),
        result.value.reshape(n, 1), result.log_n.reshape(n, 1),
    ])
    _write_csv(path, cols, range(result.first_step, result.first_step + n), table)


def _write_beliefs_csv(path: Path, first_step: int, mean: np.ndarray, cov: np.ndarray, loglik: np.ndarray) -> None:
    n, m = mean.shape
    cols = (
        ["step"]
        + [f"mean{i}" for i in range(1, m + 1)]
        + [f"cov{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
        + ["loglik"]
    )
    table = np.hstack([mean, cov.reshape(n, m * m), loglik.reshape(n, 1)])
    _write_csv(path, cols, range(first_step, first_step + n), table)


def _run_one_simulation(scenario, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    result = control.run_scenario_config(scenario)
    _write_trajectory_csv(out_dir / "trajectory.csv", result)
    code = EXIT_OK if result.completed else EXIT_DOMAIN
    summary = {
        "name": scenario.name,
        "seed": scenario.seed,
        "mode": scenario.mode,
        "horizon": scenario.horizon,
        "rows": len(result.x),
        "completed": result.completed,
        "failure": result.failure,
        "failed_step": result.failed_step,
        "jitter_retries": result.jitter_retries,
        "exit_code": code,
    }
    (out_dir / "run.json").write_text(json.dumps(summary, indent=2) + "\n")
    return code


def cmd_simulate(args) -> int:
    if args.seed is not None:
        if args.seeds is not None:
            raise ValidationError("--seed and --seeds cannot be combined")
        check_seed(args.seed, "--seed")
    for seed in args.seeds or ():
        check_seed(seed, "--seeds")
    scenario = parse_scenario(args.scenario)
    if scenario.potential_kind == "observation":
        raise ValidationError("observation scenarios are driven by `sqc filter`")
    if args.steps is not None:
        if args.steps < 1:
            raise ValidationError("--steps must be >= 1")
        scenario.horizon = args.steps
    if args.mode is not None:
        scenario.mode = args.mode
    out_dir = Path(args.out)

    if args.seeds is not None:
        first, last = args.seeds
        seeds = range(first, last + 1)
        with ProcessPoolExecutor() as pool:
            codes = list(pool.map(
                _run_one_simulation,
                [dataclasses.replace(scenario, seed=seed) for seed in seeds],
                [out_dir / f"seed_{seed}" for seed in seeds],
            ))
        print(f"{len(seeds)} runs under {out_dir}, {sum(c == EXIT_OK for c in codes)} completed")
        return max(codes)

    if args.seed is not None:
        scenario.seed = args.seed
    code = _run_one_simulation(scenario, out_dir)
    status = "completed" if code == EXIT_OK else "stopped early, see run.json"
    print(f"{scenario.name}: seed {scenario.seed}, {status}; output in {out_dir}")
    return code


def cmd_filter(args) -> int:
    scenario = parse_scenario(args.scenario)
    obs_model = scenario.build_observation_model()
    stream = ekf.read_observations(args.obs)
    if len(stream) and int(stream.steps.max()) > scenario.horizon:
        raise ValidationError(
            f"observation at step {int(stream.steps.max())} is beyond horizon {scenario.horizon}"
        )
    model = scenario.build_model()
    initial = engine.GaussianBelief(
        mean=scenario.mean0, cov=scenario.cov0, step=0, tag="predicted"
    )
    horizon = scenario.horizon if len(stream) == 0 else int(stream.steps.max())
    mean, cov, loglik = ekf.filter_with_likelihood(model, obs_model, stream, initial, horizon)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_beliefs_csv(out_dir / "beliefs.csv", initial.step, mean, cov, loglik)
    total = float(np.nansum(loglik))
    print(f"cumulative log-likelihood: {total:.12g} over {len(stream)} observations")
    return EXIT_OK


def cmd_validate(args) -> int:
    """Run the oracle suites and write validation.json.

    The kernel-residual study of --level full (oracle.fp_convergence)
    shares no state with the identity suite and the quadrature checks,
    so it is submitted to a one-worker process pool before they run
    here; its report, plain floats and lists, pickles back exactly.
    Leaving the pool's block joins the worker, also when a section
    raises. --level fast builds no pool.
    """
    report: dict = {"level": args.level}
    with contextlib.ExitStack() as stack:
        if args.level == "full":
            study = stack.enter_context(ProcessPoolExecutor(max_workers=1)).submit(oracle.fp_convergence)
        ident = report["identity"] = oracle.identity_suite(seed=0, trials=500)
        report["quadrature"] = oracle.quadrature_checks()
        if args.level == "full":
            report["fokker_planck"] = study.result()

    passed = ident["passed"] and all(c["passed"] for c in report["quadrature"].values())
    if args.level == "full":
        passed = passed and all(c["passed"] for c in report["fokker_planck"].values())
    report["passed"] = passed

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "validation.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"identity suite: {ident['trials']} trials, {len(ident['failures'])} failed")
    for name, check in report["quadrature"].items():
        print(f"quadrature {name}: {'ok' if check['passed'] else 'FAILED'}")
    if args.level == "full":
        for name, case in report["fokker_planck"].items():
            ratios = ", ".join(f"{r:.2f}" for r in case["ratios"])
            print(f"kernel residual {name}: ratios [{ratios}] {'ok' if case['passed'] else 'FAILED'}")
    print(f"validation {'passed' if passed else 'FAILED'}; report in {out_dir / 'validation.json'}")
    return EXIT_OK if passed else EXIT_USAGE


def _parse_seed_range(text: str) -> tuple[int, int]:
    try:
        first, last = text.split("..")
        first, last = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a..b, for example 0..99") from None
    if last < first:
        raise argparse.ArgumentTypeError("seed range must be nondecreasing")
    return first, last


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqc",
        description="Potential-constrained belief recursion: simulate, filter, validate.",
    )
    parser.add_argument("--version", action="version", version=f"sqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write trajectory.csv")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--steps", type=int, default=None, help="override the horizon")
    sim.add_argument("--mode", choices=control.MODES, default=None)
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--seeds", type=_parse_seed_range, default=None, metavar="A..B",
                     help="run a seed sweep, one subdirectory per seed")
    sim.set_defaults(func=cmd_simulate)

    flt = sub.add_parser("filter", help="run the observation filter over a CSV stream")
    flt.add_argument("--scenario", required=True, help="scenario JSON with an observation potential")
    flt.add_argument("--obs", required=True, help="observation CSV with header step,y1,...,yk")
    flt.add_argument("--out", default=".", help="output directory")
    flt.set_defaults(func=cmd_filter)

    val = sub.add_parser("validate", help="run the oracle suites and write a JSON report")
    val.add_argument("--level", choices=["fast", "full"], default="fast")
    val.add_argument("--out", default=".", help="output directory")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
