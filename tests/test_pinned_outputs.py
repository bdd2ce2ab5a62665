"""The bytes of the CLI's outputs, pinned by their sha256 digests.

Changes that should not move a single bit of a run (a faster float form,
a leaner loop) are checked here against the digests of the outputs
written before them. A digest that moves means a trajectory, a report
or a filtered belief changed, down to the last bit or the sign of a
zero. The digests hold for CPython 3.11 with glibc's libm on x86-64;
another libm may round tanh, sin or log differently.
"""

import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from sqc import cli, oracle

SIMULATE_DIGESTS = {
    ("penalty", "seed"): {
        "trajectory.csv": "2124ba88c7848b26ac96b0d8fbf37e6db85ea23cbd78781d67adc5582e38f70e",
        "run.json": "c00a3471aded16834f4dc39946990b5c75bfccd24049ee3041e1eb24e1d9b18a",
    },
    ("barrier", "seed"): {
        "trajectory.csv": "829f22c1e72bc8e297e636bde33b24601665a0603135e5212c5c7e3c8da58e3e",
        "run.json": "a729c607ee45b7582f2acdce8ce8cb5fc4506cead92f8320068fb8654c3889ce",
    },
    ("doublewell", "seed"): {
        "trajectory.csv": "b40d29a010eee4b5219dc8763d4cd34f66d549674e8d3148fa3fbd56d10a1a0a",
        "run.json": "7f5af16e9ad6b37cfb008b0d914587d768fd24be2c16c715cb43f44b8a8252f7",
    },
    ("penalty", "belief"): {
        "trajectory.csv": "7926500c90ada2591700c7785e85b0f7c79930dc8fc98f09359365d0b7678364",
        "run.json": "751a02a475ada3a86b4139edfa858cbec8dbf597a3e75eeba425b7a3aa83a06a",
    },
    ("barrier", "belief"): {
        "trajectory.csv": "e6fc6374271188bc690ece65b7dcf82ec0256d8dda26eb02d54672f5e3d4f016",
        "run.json": "8a1afa2ddb5ef6984cc5e9cf7a6762d79cbccff061db776aa6a236c3c164cde6",
    },
    ("doublewell", "belief"): {
        "trajectory.csv": "d63abee7cfee08c99922403fc866ae96062cf92e96136a16ab011ca2017ae54c",
        "run.json": "31055c352edfd43153b61da93da7fddf06ee4fef0e613af4564b9a126b0d73b5",
    },
}

FILTER_DIGEST = "fa663f6652eaaa94c2fbb915998298b59e373f24acde00aee19d58b4feddebd5"

VALIDATE_DIGESTS = {
    "full": "ebc3a5c4c67b7e54e955f293733378095b2ee233dfe3a5ef4f1a397e73a7e6a4",
    "fast": "a80fdcd611c3d5413f82e44a535aa5163ff292d51e2f603d26359a24ef4b81f4",
}

# sha256 of json.dumps(oracle.identity_suite(seed, trials)), by (seed, trials).
IDENTITY_DIGESTS = {
    (3, 137): "d2479d6e5d258a067dbf283a80123d7bd60a6652a1ed0c6cb7ede6ef0cc34b31",
    (11, 60): "f1de37a2987bffb6ceba11beea4f95266f0e7c8065c471fd14c9dc060e004a8d",
    (0, 0): "d1886db56bcc37f3604216ce63b0106e485a8e84d38b1a0905af127f59b09e74",
}

RUNS = {
    "seed": (["--seed", "5", "--steps", "300"], ""),
    "belief": (["--seeds", "3..3", "--steps", "300", "--mode", "belief"], "seed_3"),
}


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,run", sorted(SIMULATE_DIGESTS))
def test_bundled_simulate_outputs_are_pinned(tmp_path, name, run):
    flags, subdir = RUNS[run]
    scenario = resources.files("sqc").joinpath(f"scenarios/{name}.json")
    out = tmp_path / "out"
    cli.main(["simulate", "--scenario", str(scenario), "--out", str(out), *flags])
    written = {f: digest(out / subdir / f) for f in ("trajectory.csv", "run.json")}
    assert written == SIMULATE_DIGESTS[name, run]


def filter_doc() -> dict:
    # A three-state linear process seen through two linear combinations,
    # so the linear map's rows have three entries.
    return {
        "name": "filter-pin",
        "process": {
            "drift": {
                "kind": "linear",
                "params": {"A": [[-0.05, 0.02, 0.0], [0.01, -0.1, 0.03], [0.0, -0.02, -0.07]]},
            },
            "g_inv": [[0.02, 0.005, 0.0], [0.005, 0.03, 0.0], [0.0, 0.0, 0.01]],
        },
        "potential": {
            "kind": "observation",
            "params": {
                "sigma_nu": [[0.05, 0.01], [0.01, 0.08]],
                "map": {"kind": "linear", "C": [[1.0, 0.5, -0.25], [0.0, 0.3, 1.0]]},
            },
        },
        "initial": {"mean": [0.1, -0.2, 0.3], "cov": [[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 0.5]]},
        "horizon": 80,
        "seed": 1,
    }


def test_filter_beliefs_are_pinned(tmp_path):
    rng = np.random.default_rng(17)
    steps = sorted(rng.choice(80, size=50, replace=False).tolist() + [80])
    values = rng.normal(scale=0.5, size=(len(steps), 2))
    obs = tmp_path / "obs.csv"
    rows = ["step,y1,y2"] + [f"{s},{y1!r},{y2!r}" for s, (y1, y2) in zip(steps, values.tolist())]
    obs.write_text("\n".join(rows) + "\n")
    scenario = tmp_path / "filter.json"
    scenario.write_text(json.dumps(filter_doc()))
    out = tmp_path / "out"
    assert cli.main(["filter", "--scenario", str(scenario), "--obs", str(obs), "--out", str(out)]) == 0
    assert digest(out / "beliefs.csv") == FILTER_DIGEST


@pytest.mark.parametrize("level", sorted(VALIDATE_DIGESTS))
def test_validation_report_is_pinned(tmp_path, level):
    assert cli.main(["validate", "--level", level, "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "validation.json") == VALIDATE_DIGESTS[level]


@pytest.mark.parametrize("seed,trials", sorted(IDENTITY_DIGESTS))
def test_identity_suite_is_pinned(seed, trials):
    report = json.dumps(oracle.identity_suite(seed, trials))
    assert hashlib.sha256(report.encode()).hexdigest() == IDENTITY_DIGESTS[seed, trials]
