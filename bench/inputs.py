"""Workload inputs, made from the benchmark's seed alone.

The program receives only what is made here: scenario seeds, scenario
files and an observation stream. The same seed gives the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

SEED_LIMIT = 2**31 - 1
SWEEP_SEEDS = 8

# Observation stream for `sqc filter`: the forced Van der Pol process of
# the bundled scenarios, observed through the identity with noise
# sigma_nu at steps 0..HORIZON, except GAPS steps drawn from 1..HORIZON-1.
HORIZON = 5000
GAPS = 1000
OBS_SIGMA = 0.01

FILTER_SCENARIO = {
    "name": "vdp-filter",
    "process": {
        "drift": {"kind": "vanderpol_forced", "params": {}},
        "g_inv": [[0.001, 0.0], [0.0, 0.001]],
        "dt": 1.0,
    },
    "potential": {
        "kind": "observation",
        "params": {"sigma_nu": [[OBS_SIGMA, 0.0], [0.0, OBS_SIGMA]], "map": {"kind": "identity"}},
    },
    "initial": {"mean": [0.5, 0.5], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    "horizon": HORIZON,
    "seed": 0,
    "mode": "sampled",
}


def bundled(root: Path, name: str) -> dict:
    """A bundled scenario file, read as plain JSON."""
    return json.loads((root / "src" / "sqc" / "scenarios" / f"{name}.json").read_text())


def seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, SEED_LIMIT - SWEEP_SEEDS, size=n)]


def observation_stream(rng: np.random.Generator, horizon: int = HORIZON, gaps: int = GAPS) -> dict:
    """Sample a forced Van der Pol path and observe it with gaps.

    Returns {step: y} for steps 0..horizon less ``gaps`` steps drawn from
    1..horizon-1. The path starts from a draw of the filter's prior and
    takes Euler steps with noise covariance g_inv dt.
    """
    sc = FILTER_SCENARIO
    process = sc["process"]
    dt = process["dt"]
    noise = np.linalg.cholesky(np.asarray(process["g_inv"])) * np.sqrt(dt)
    x = np.asarray(sc["initial"]["mean"]) + np.linalg.cholesky(
        np.asarray(sc["initial"]["cov"])
    ) @ rng.standard_normal(2)
    path = np.empty((horizon + 1, 2))
    path[0] = x
    steps = rng.standard_normal((horizon, 2)) @ noise.T
    for t in range(horizon):
        f, _ = ref.vdp_drift(path[t : t + 1], np.array([float(t)]), {})
        path[t + 1] = path[t] + f[0] * dt + steps[t]
    missing = rng.choice(np.arange(1, horizon), size=gaps, replace=False)
    observed = np.setdiff1d(np.arange(horizon + 1), missing)
    y = path[observed] + np.sqrt(OBS_SIGMA) * rng.standard_normal((len(observed), 2))
    return {int(s): row for s, row in zip(observed, y)}


def write_observations(path: Path, obs: dict) -> None:
    """Observation CSV with header step,y1,...,yk and 17 significant digits."""
    k = len(next(iter(obs.values())))
    lines = ["step," + ",".join(f"y{i}" for i in range(1, k + 1))]
    lines += [f"{s}," + ",".join(f"{v:.17g}" for v in y) for s, y in obs.items()]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")
