"""The benchmark's three workloads.

Each workload runs rounds of the same operations until the run's time is
up. A round's inputs come from the workload's seed; every operation's
output is checked against `reference` after the round's timings are
taken. In a traced run each round runs twice on the same inputs, first
plain and then with spans, so the per-layer figures and the tracing
overhead come from one process.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf

import checks
import inputs
from spans import TracedGenerator, Tracer

SETUP_PROBES = 9
# speed_probe() on the reference machine (README), in seconds.
PROBE_REF_S = 0.014
SCENARIOS = ("penalty", "doublewell")
STEPS = inputs.HORIZON + 1


_PROBE_A = np.array([[1.0, 0.1], [0.2, 1.0]])
_PROBE_V = np.array([0.3, 0.4])
_PROBE_SPD = np.array([[2.0, 0.3], [0.3, 1.0]])


def speed_probe(iterations: int = 3000) -> float:
    """Seconds for a fixed mix of interpreter, small-numpy and LAPACK calls.

    Uses no `sqc` code, so only the machine's speed at the moment moves it.
    """
    start = time.perf_counter()
    x = _PROBE_V
    for i in range(iterations):
        x = _PROBE_A.dot(x) * 0.5 + _PROBE_V
        dpotrf(_PROBE_SPD, lower=1)
        math.sin(i * 0.001) * float(x[0]) + sum(x.tolist())
    return time.perf_counter() - start


def mean_round(rounds: list[dict]) -> float:
    """Seconds per round: all operation time of the rounds over their number."""
    return _per(sum(sum(r.values()) for r in rounds), len(rounds))


def _per(total: float, count: int, factor: float = 1.0) -> float:
    return total / count * factor if count else 0.0


class Workload:
    """Rounds of operations on seeded inputs; subclasses define a round."""

    name = ""
    probe_loads = ""  # statements run after `import sqc` in a set-up probe

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.speed: list[float] = []  # speed probes taken before plain operations

    def setup_seconds(self) -> tuple[list[float], list[float]]:
        """`sqc` import and input loading, each in a fresh interpreter.

        The probes run one after another and time themselves from their
        first statement, so interpreter start-up is left out. Each is
        preceded by a speed probe in this process; both lists are returned.
        """
        code = (
            "import sys, time\n"
            "t0 = time.perf_counter()\n"
            "sys.path.insert(0, 'src')\n"
            "import sqc, sqc.cli\n"
            f"{self.probe_loads}\n"
            "print(repr(time.perf_counter() - t0))\n"
        )
        out, speed = [], []
        for _ in range(SETUP_PROBES):
            speed.append(speed_probe())
            done = subprocess.run(
                [sys.executable, "-c", code], cwd=self.root, capture_output=True, text=True,
                timeout=60, check=True,
            )
            out.append(float(done.stdout.split()[-1]))
        return out, speed

    def outcome(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op}: {p}" for p in problems]

    def new_inputs(self):
        """The next round's inputs, drawn from the workload's seed."""
        raise NotImplementedError

    def round(self, inputs, tracer: Tracer | None) -> dict:
        """Run and check one round's operations; return {operation: seconds}."""
        raise NotImplementedError

    @staticmethod
    def op_metrics(plain: list[dict]) -> dict:
        """Per-operation figures from the plain rounds: {name: (value, unit)}.

        With no rounds every figure reads 0.
        """
        raise NotImplementedError

    @staticmethod
    def layer_metrics(tracer: Tracer) -> dict:
        """Per-layer figures from the traced rounds: {name: (value, unit)}.

        With no spans every figure reads 0.
        """
        raise NotImplementedError

    def run_problems(self) -> list[str]:
        """Checks on the whole run rather than on one operation."""
        return []


class ClosedLoop(Workload):
    """Seed runs of the penalty and double-well scenarios through control.run_scenario."""

    name = "closed-loop"
    probe_loads = "for name in ('penalty', 'doublewell'): sqc.load_bundled(name)"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.scenarios = {name: inputs.bundled(root, name) for name in SCENARIOS}
        self.hits = {name: 0 for name in SCENARIOS}
        self.seeds_run = {name: 0 for name in SCENARIOS}

    def new_inputs(self):
        return dict(zip(SCENARIOS, inputs.seeds(self.rng, len(SCENARIOS))))

    @staticmethod
    def _traced_run(name: str, seed: int, tracer: Tracer):
        # control.run_scenario's body, with traced callables handed to
        # run_closed_loop: the drift and its Jacobian, the potential and
        # the generator's draws.
        from sqc import control, engine, load_bundled

        def build():
            scenario = load_bundled(name, seed=seed)
            return (
                scenario,
                scenario.build_model(),
                scenario.build_potential(),
                control.ControlConfig(B=scenario.B, R=scenario.R),
            )

        scenario, model, potential_fn, cfg = tracer.wrap("scenario.build", build)()
        model.drift = tracer.wrap("process.drift", model.drift)
        model.drift_jacobian = tracer.wrap("process.jacobian", model.drift_jacobian)
        initial = engine.GaussianBelief(mean=scenario.mean0, cov=scenario.cov0, step=0, tag="predicted")
        rng = TracedGenerator(np.random.default_rng(scenario.seed), tracer)
        return tracer.wrap("control.run_closed_loop", control.run_closed_loop)(
            model, tracer.wrap("potential.eval", potential_fn), initial, cfg,
            scenario.horizon, rng, mode=scenario.mode,
        )

    def round(self, seeds, tracer):
        from sqc import control

        times = {}
        for name, seed in seeds.items():
            if tracer is None:
                self.speed.append(speed_probe())
                start = time.perf_counter()
                result = control.run_scenario(name, seed=seed)
                times[name] = time.perf_counter() - start
            else:
                with tracer.operation(f"closed_loop.{name}"):
                    start = time.perf_counter()
                    result = self._traced_run(name, seed, tracer)
                    times[name] = time.perf_counter() - start
            problems = checks.check_run_result(result, self.scenarios[name], seed)
            self.outcome(f"{name} seed {seed}", problems)
            if tracer is None and not problems:
                tail = checks.tail_means(np.array([r.x for r in result.records]))
                bar = checks.tracks_target if name == "penalty" else checks.captured
                self.hits[name] += bar(tail)
                self.seeds_run[name] += 1
        return times

    def run_problems(self):
        return checks.share_problems(
            "penalty last-500 mean within 0.05 of (0.2, -0.1)",
            self.hits["penalty"], self.seeds_run["penalty"],
        ) + checks.share_problems(
            "double-well last-500 mean within 0.08 of +-0.4 per component",
            self.hits["doublewell"], self.seeds_run["doublewell"],
        )

    @staticmethod
    def op_metrics(plain):
        return {
            f"{name}_steps_per_s": (_per(STEPS * len(plain), sum(r[name] for r in plain)), "seed-steps/s")
            for name in SCENARIOS
        }

    @staticmethod
    def layer_metrics(tracer):
        steps = tracer.count("control.run_closed_loop") * STEPS
        loop = tracer.seconds("control.run_closed_loop")
        drift = tracer.seconds("process.drift") + tracer.seconds("process.jacobian")
        pot = tracer.seconds("potential.eval")
        draw = tracer.seconds("rng.draw")
        return {
            "control.loop_us_per_step": (_per(loop, steps, 1e6), "us"),
            "engine.self_us_per_step": (_per(loop - drift - pot - draw, steps, 1e6), "us"),
            "process.drift_us_per_step": (_per(drift, steps, 1e6), "us"),
            "potential.eval_us_per_step": (_per(pot, steps, 1e6), "us"),
            "rng.draw_us_per_step": (_per(draw, steps, 1e6), "us"),
            "potential.calls_per_step": (_per(tracer.count("potential.eval"), steps), "count"),
            "process.drift_calls_per_step": (
                _per(tracer.count("process.drift") + tracer.count("process.jacobian"), steps), "count"
            ),
            "scenario.build_ms": (
                _per(tracer.seconds("scenario.build"), tracer.count("scenario.build"), 1e3), "ms"
            ),
        }


def run_sqc(argv: list[str]) -> int:
    """`sqc <argv>` in this process, as the console script runs it."""
    from sqc import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


class Cli(Workload):
    """`sqc simulate` single runs and a --seeds sweep, and `sqc filter`."""

    name = "cli"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.scenarios = {name: inputs.bundled(root, name) for name in SCENARIOS}
        self.scenarios["filter"] = inputs.FILTER_SCENARIO
        self.files = {}
        for name, doc in self.scenarios.items():
            self.files[name] = work / f"{name}.json"
            inputs.write_json(self.files[name], doc)
        self.probe_loads = f"for path in {[str(p) for p in self.files.values()]!r}: sqc.parse_scenario(path)"

    def new_inputs(self):
        base, doublewell = inputs.seeds(self.rng, 2)
        single = base + int(self.rng.integers(inputs.SWEEP_SEEDS))
        obs = inputs.observation_stream(self.rng)
        path = self.work / "observations.csv"
        inputs.write_observations(path, obs)
        return {"base": base, "single": single, "doublewell": doublewell, "obs": obs, "obs_path": path}

    def round(self, inp, tracer):
        from sqc import cli, control, ekf, engine

        out = {k: _fresh(self.work / k) for k in ("penalty", "doublewell", "sweep", "filter")}
        penalty, doublewell = str(self.files["penalty"]), str(self.files["doublewell"])
        last = inp["base"] + inputs.SWEEP_SEEDS - 1
        commands = {  # operation: (span name, argv)
            "simulate_penalty": (
                "cli.simulate",
                ["simulate", "--scenario", penalty, "--out", str(out["penalty"]), "--seed", str(inp["single"])],
            ),
            "simulate_doublewell": (
                "cli.simulate",
                ["simulate", "--scenario", doublewell, "--out", str(out["doublewell"]),
                 "--seed", str(inp["doublewell"])],
            ),
            "sweep": (
                "cli.sweep",
                ["simulate", "--scenario", penalty, "--out", str(out["sweep"]), "--seeds", f"{inp['base']}..{last}"],
            ),
            "filter": (
                "cli.filter",
                ["filter", "--scenario", str(self.files["filter"]), "--obs", str(inp["obs_path"]),
                 "--out", str(out["filter"])],
            ),
        }
        times, codes = {}, {}
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                for module, attr, span in (
                    (cli, "parse_scenario", "scenario.parse"),
                    (control, "run_scenario_config", "control.run"),
                    (ekf, "read_observations", "ekf.read"),
                    (ekf, "filter_with_likelihood", "ekf.filter"),
                    (ekf, "ekf_step", "ekf.update"),
                    (ekf, "marginal_likelihood", "ekf.likelihood"),
                    (engine, "predict", "engine.predict"),
                ):
                    stack.enter_context(tracer.patched(module, attr, span))
            for key, (op, argv) in commands.items():
                if tracer is None:
                    self.speed.append(speed_probe())
                span = tracer.operation(op) if tracer is not None else contextlib.nullcontext()
                with span:
                    start = time.perf_counter()
                    codes[key] = run_sqc(argv)
                    times[key] = time.perf_counter() - start

        exit_problems = {k: [] if c == 0 else [f"exit code {c}"] for k, c in codes.items()}
        self.outcome(
            f"simulate penalty seed {inp['single']}",
            exit_problems["simulate_penalty"]
            + checks.check_simulate_dir(out["penalty"], self.scenarios["penalty"], inp["single"]),
        )
        self.outcome(
            f"simulate doublewell seed {inp['doublewell']}",
            exit_problems["simulate_doublewell"]
            + checks.check_simulate_dir(out["doublewell"], self.scenarios["doublewell"], inp["doublewell"]),
        )
        sweep = list(exit_problems["sweep"])
        for seed in range(inp["base"], last + 1):
            sweep += checks.check_simulate_dir(out["sweep"] / f"seed_{seed}", self.scenarios["penalty"], seed)
        sweep += checks.check_same_files(out["penalty"], out["sweep"] / f"seed_{inp['single']}")
        self.outcome(f"sweep {inp['base']}..{last}", sweep)
        self.outcome(
            "filter",
            exit_problems["filter"]
            + checks.check_beliefs(out["filter"], self.scenarios["filter"], inp["obs"], inputs.HORIZON),
        )
        return times

    @staticmethod
    def op_metrics(plain):
        return {
            "simulate_s": (
                _per(sum(r["simulate_penalty"] + r["simulate_doublewell"] for r in plain), 2 * len(plain)), "s"
            ),
            "cli_sweep_s": (_per(sum(r["sweep"] for r in plain), len(plain)), "s"),
            "filter_s": (_per(sum(r["filter"] for r in plain), len(plain)), "s"),
        }

    @staticmethod
    def layer_metrics(tracer):
        sims = tracer.count("cli.simulate")
        filters = tracer.count("cli.filter")
        sim_parse = tracer.seconds("scenario.parse", "cli.simulate")
        sim_run = tracer.seconds("control.run", "cli.simulate")
        flt_inside = (
            tracer.seconds("scenario.parse", "cli.filter")
            + tracer.seconds("ekf.read", "cli.filter")
            + tracer.seconds("ekf.filter", "cli.filter")
        )
        return {
            "scenario.parse_ms": (
                _per(tracer.seconds("scenario.parse"), tracer.count("scenario.parse"), 1e3), "ms"
            ),
            "control.run_ms": (_per(sim_run, tracer.count("control.run", "cli.simulate"), 1e3), "ms"),
            "cli.write_ms": (_per(tracer.seconds("cli.simulate") - sim_parse - sim_run, sims, 1e3), "ms"),
            "ekf.read_ms": (_per(tracer.seconds("ekf.read"), tracer.count("ekf.read"), 1e3), "ms"),
            "ekf.filter_us_per_step": (_per(tracer.seconds("ekf.filter"), filters * STEPS, 1e6), "us"),
            "ekf.update_us_per_obs": (
                _per(tracer.seconds("ekf.update"), tracer.count("ekf.update"), 1e6), "us"
            ),
            "ekf.likelihood_us_per_obs": (
                _per(tracer.seconds("ekf.likelihood"), tracer.count("ekf.likelihood"), 1e6), "us"
            ),
            "engine.predict_us_per_call": (
                _per(tracer.seconds("engine.predict"), tracer.count("engine.predict"), 1e6), "us"
            ),
            "cli.filter_write_ms": (_per(tracer.seconds("cli.filter") - flt_inside, filters, 1e3), "ms"),
        }


class Validate(Workload):
    """`sqc validate --level full`: the oracle suites."""

    name = "validate"

    def new_inputs(self):
        # The suites take no input; the seed has nothing to vary here.
        return None

    def round(self, _, tracer):
        from sqc import oracle

        out = _fresh(self.work / "validate")
        argv = ["validate", "--level", "full", "--out", str(out)]
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                residual = oracle.fokker_planck_residual

                def sized_residual(model, potential, grid, *args, **kwargs):
                    # The kernel step materializes one grid.n x grid.n matrix.
                    tracer.tally("oracle.kernel_cells", grid.n * grid.n)
                    return residual(model, potential, grid, *args, **kwargs)

                stack.enter_context(tracer.patched(oracle, "identity_suite", "oracle.identity"))
                stack.enter_context(tracer.patched(oracle, "weighted_gaussian_moments", "oracle.quadrature"))
                stack.enter_context(
                    tracer.patched(oracle, "fokker_planck_residual", "oracle.kernel_residual", sized_residual)
                )
                stack.enter_context(tracer.operation("cli.validate"))
            else:
                self.speed.append(speed_probe())
            start = time.perf_counter()
            code = run_sqc(argv)
            elapsed = time.perf_counter() - start
        self.outcome("validate", checks.check_validation(code, out))
        return {"validate": elapsed}

    @staticmethod
    def op_metrics(plain):
        return {"validate_s": (_per(sum(r["validate"] for r in plain), len(plain)), "s")}

    @staticmethod
    def layer_metrics(tracer):
        runs = tracer.count("cli.validate")
        return {
            "oracle.identity_s": (_per(tracer.seconds("oracle.identity"), runs), "s"),
            "oracle.quadrature_s": (_per(tracer.seconds("oracle.quadrature"), runs), "s"),
            "oracle.kernel_residual_s": (_per(tracer.seconds("oracle.kernel_residual"), runs), "s"),
            "oracle.kernel_mb_computed": (_per(tracer.count("oracle.kernel_cells") * 8 / 2**20, runs), "MiB"),
        }


WORKLOADS = {w.name: w for w in (ClosedLoop, Cli, Validate)}
