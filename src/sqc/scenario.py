"""Scenario files: parsing, validation and construction of runnable parts.

A scenario is a JSON object with the top-level keys

    name, process, potential, initial, control, horizon, seed, mode

where process = {drift: {kind, params}, g_inv, dt}, potential =
{kind, params, target: {kind, params}}, initial = {mean, cov} and
control = {B, R}. Unknown keys are rejected at every level so a typo
cannot silently fall back to a default. Defaults: dt 1, horizon 5000,
seed 0, mode "sampled", B = R = identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .control import MODES, ControlConfig
from .errors import NotPositiveDefinite, ParseError, ValidationError
from .linalg import _strict_cholesky, spd_inverse
from .potential import _bound
from .process import ItoProcessModel, _finite, _linear_map, _whole, make_drift

__all__ = [
    "Scenario",
    "parse_scenario",
    "scenario_from_dict",
    "write_scenario",
    "load_bundled",
    "BUNDLED_SCENARIOS",
]

BUNDLED_SCENARIOS = ("penalty", "barrier", "doublewell")

POTENTIAL_KINDS = ("quadratic_penalty", "log_barrier", "double_well", "observation")
TARGET_KINDS = ("constant", "tanh_ramp")

def check_seed(raw, label: str = "seed") -> int:
    """A seed as an int; it must be a non-negative whole number (3.0 reads as 3)."""
    return _whole(raw, label, 0, "a non-negative whole number")


def _take(mapping: dict, allowed: dict, context: str) -> dict:
    """Pop known keys with defaults; reject anything left over.

    ``allowed`` maps key -> default, with a default of ... marking a
    required key.
    """
    if not isinstance(mapping, dict):
        raise ValidationError(f"{context} must be a JSON object")
    mapping = dict(mapping)
    out = {}
    for key, default in allowed.items():
        if key in mapping:
            out[key] = mapping.pop(key)
        elif default is ...:
            raise ValidationError(f"{context} is missing required key {key!r}")
        else:
            out[key] = default
    if mapping:
        raise ValidationError(f"unknown keys in {context}: {sorted(mapping)}")
    return out


def _spd_matrix(raw, label: str) -> np.ndarray:
    mat = _finite(raw, label, 2)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{label} must be square, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, rtol=1e-12, atol=1e-12):
        raise ValidationError(f"{label} not symmetric")
    try:
        _strict_cholesky(mat)
    except NotPositiveDefinite:
        raise ValidationError(f"{label} not positive definite; got {mat.tolist()}") from None
    return mat


def _square_to_dim(sigma_nu: np.ndarray, dim: int, what: str) -> np.ndarray:
    # sigma_nu of a potential that weighs the whole state: (dim, dim).
    if sigma_nu.shape != (dim, dim):
        raise ValidationError(f"sigma_nu has shape {sigma_nu.shape}; {what} on state dim {dim} needs {(dim, dim)}")
    return sigma_nu


@dataclass
class Scenario:
    """Validated scenario, ready to build a model and a potential."""

    name: str
    drift_kind: str
    drift_params: dict
    g_inv: np.ndarray
    dt: float
    potential_kind: str
    potential_params: dict
    target_kind: Optional[str]
    target_params: dict
    mean0: np.ndarray
    cov0: np.ndarray
    B: np.ndarray
    R: np.ndarray
    horizon: int
    seed: int
    mode: str

    @property
    def dim(self) -> int:
        return len(self.mean0)

    def build_model(self) -> ItoProcessModel:
        drift, jac = make_drift(self.drift_kind, self.drift_params, self.dim)
        return ItoProcessModel(
            dim=self.dim, drift=drift, drift_jacobian=jac, g_inv=self.g_inv, dt=self.dt
        )

    def build_potential(self):
        """Closure (x, step) -> PotentialEvaluation, carrying its generated float form."""
        kind = self.potential_kind
        if kind in ("quadratic_penalty", "double_well"):
            keys = ("value",) if self.target_kind == "constant" else ("amplitude", "rate", "center")
            target = (self.target_kind, *(self.target_params[key] for key in keys))
            return _bound(kind, spd_inverse(self.potential_params["sigma_nu"]), target)
        if kind == "log_barrier":
            return _bound(kind, self.potential_params["a"])
        raise ValidationError(
            f"potential kind {kind!r} has no state potential (observation "
            "scenarios are for the filter command)"
        )

    def build_observation_model(self):
        """ObservationModel for potential kind "observation"."""
        from .ekf import ObservationModel

        if self.potential_kind != "observation":
            raise ValidationError(
                f'filtering needs potential kind "observation", got {self.potential_kind!r}'
            )
        sigma_nu = self.potential_params["sigma_nu"]
        omap = self.potential_params["map"]
        c = np.eye(self.dim) if omap["kind"] == "identity" else omap["C"]
        h, h_jacobian = _linear_map(c)
        return ObservationModel(h=h, h_jacobian=h_jacobian, sigma_nu=sigma_nu)

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; parsing it back reproduces the scenario."""
        pot: dict = {"kind": self.potential_kind, "params": _jsonify(self.potential_params)}
        if self.target_kind is not None:
            pot["target"] = {"kind": self.target_kind, "params": _jsonify(self.target_params)}
        return {
            "name": self.name,
            "process": {
                "drift": {"kind": self.drift_kind, "params": _jsonify(self.drift_params)},
                "g_inv": self.g_inv.tolist(),
                "dt": self.dt,
            },
            "potential": pot,
            "initial": {"mean": self.mean0.tolist(), "cov": self.cov0.tolist()},
            "control": {"B": self.B.tolist(), "R": self.R.tolist()},
            "horizon": self.horizon,
            "seed": self.seed,
            "mode": self.mode,
        }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def scenario_from_dict(raw: dict, context: str = "scenario") -> Scenario:
    top = _take(
        raw,
        {
            "name": ...,
            "process": ...,
            "potential": ...,
            "initial": ...,
            "control": None,
            "horizon": 5000,
            "seed": 0,
            "mode": "sampled",
        },
        context,
    )
    if not isinstance(top["name"], str):
        raise ValidationError(f"name must be a string; got {top['name']!r}")

    initial = _take(top["initial"], {"mean": ..., "cov": ...}, "initial")
    mean0 = _finite(initial["mean"], "initial mean", 1)
    cov0 = _spd_matrix(initial["cov"], "initial cov")
    dim = len(mean0)
    if cov0.shape != (dim, dim):
        raise ValidationError(f"initial cov shape {cov0.shape} does not match mean dim {dim}")

    proc = _take(top["process"], {"drift": ..., "g_inv": ..., "dt": 1.0}, "process")
    drift = _take(proc["drift"], {"kind": ..., "params": {}}, "process.drift")
    g_inv = _spd_matrix(proc["g_inv"], "g_inv")
    # Build the model once right here so a bad drift kind or parameter
    # set, g_inv shape or dt fails at parse time, not mid-sweep in a
    # worker process.
    dt = ItoProcessModel(dim, *make_drift(drift["kind"], drift["params"], dim), g_inv, proc["dt"]).dt

    pot = _take(top["potential"], {"kind": ..., "params": ..., "target": None}, "potential")
    kind = pot["kind"]
    if kind not in POTENTIAL_KINDS:
        raise ValidationError(f"unknown potential kind {kind!r}; expected one of {POTENTIAL_KINDS}")
    target_kind = None
    target_params: dict = {}
    if kind in ("quadratic_penalty", "double_well"):
        params = _take(pot["params"], {"sigma_nu": ...}, "potential.params")
        params["sigma_nu"] = _square_to_dim(_spd_matrix(params["sigma_nu"], "sigma_nu"), dim, kind)
        if pot["target"] is None:
            raise ValidationError(f"potential kind {kind!r} requires a target")
        tgt = _take(pot["target"], {"kind": ..., "params": ...}, "potential.target")
        target_kind = tgt["kind"]
        if target_kind == "constant":
            tp = _take(tgt["params"], {"value": ...}, "target.params")
            value = _finite(tp["value"], "target value", 1)
            if len(value) != dim:
                raise ValidationError(f"target value dim {len(value)} does not match state dim {dim}")
            target_params = {"value": value}
        elif target_kind == "tanh_ramp":
            tp = _take(
                tgt["params"], {"amplitude": 0.2, "rate": 0.01, "center": 2500.0}, "target.params"
            )
            target_params = {k: _finite(v, f"target {k}", 0) for k, v in tp.items()}
        else:
            raise ValidationError(f"unknown target kind {target_kind!r}; expected one of {TARGET_KINDS}")
    elif kind == "log_barrier":
        params = _take(pot["params"], {"a": ...}, "potential.params")
        a = _finite(params["a"], "barrier weights a", 1)
        if len(a) != dim:
            raise ValidationError(f"barrier weight dim {len(a)} does not match state dim {dim}")
        if np.any(a <= 0):
            raise ValidationError("barrier weights a must be positive")
        params = {"a": a}
        if pot["target"] is not None:
            raise ValidationError("log_barrier potential takes no target")
    else:  # observation
        params = _take(pot["params"], {"sigma_nu": ..., "map": ...}, "potential.params")
        params["sigma_nu"] = _spd_matrix(params["sigma_nu"], "sigma_nu")
        omap = _take(params["map"], {"kind": ..., "C": None}, "potential.params.map")
        if omap["kind"] == "identity":
            if omap["C"] is not None:
                raise ValidationError("identity observation map takes no C")
            _square_to_dim(params["sigma_nu"], dim, "an identity observation map")
            params["map"] = {"kind": "identity"}
        elif omap["kind"] == "linear":
            if omap["C"] is None:
                raise ValidationError('linear observation map requires "C"')
            c = _finite(omap["C"], "observation map C", 2)
            if c.shape[1] != dim:
                raise ValidationError(f"observation map C has {c.shape[1]} columns, state dim is {dim}")
            if params["sigma_nu"].shape[0] != c.shape[0]:
                raise ValidationError("sigma_nu dim does not match observation map rows")
            params["map"] = {"kind": "linear", "C": c}
        else:
            raise ValidationError(f"unknown observation map kind {omap['kind']!r}")
        if pot["target"] is not None:
            raise ValidationError("observation potential takes no target")

    control = top["control"]
    if control is None:
        b = np.eye(dim)
        r = np.eye(dim)
    else:
        ctl = _take(control, {"B": ..., "R": ...}, "control")
        b = _finite(ctl["B"], "B", 2)
        r = _spd_matrix(ctl["R"], "R")
        if b.shape[0] != dim:
            raise ValidationError(f"B has {b.shape[0]} rows, state dim is {dim}")
    # Build the control map once here, as the model above, so an R that
    # does not fit B, or a B that cannot reproduce every shift, fails
    # before any output is written.
    try:
        ControlConfig(B=b, R=r)
    except NotPositiveDefinite as exc:
        raise ValidationError(str(exc)) from None

    horizon = _whole(top["horizon"], "horizon", 1, "a whole number >= 1")
    mode = top["mode"]
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")

    return Scenario(
        name=top["name"],
        drift_kind=drift["kind"],
        drift_params=dict(drift["params"] or {}),
        g_inv=g_inv,
        dt=dt,
        potential_kind=kind,
        potential_params=params,
        target_kind=target_kind,
        target_params=target_params,
        mean0=mean0,
        cov0=cov0,
        B=b,
        R=r,
        horizon=horizon,
        seed=check_seed(top["seed"]),
        mode=mode,
    )


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise ParseError(f"{path} is empty")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(raw, context=f"scenario {path.name}")


def write_scenario(scenario: Scenario, path) -> None:
    """Serialize a scenario canonically; parse_scenario inverts this."""
    Path(path).write_text(json.dumps(scenario.to_dict(), indent=2) + "\n")


def load_bundled(name: str, overrides: Optional[dict] = None, seed: Optional[int] = None) -> Scenario:
    """Load one of the packaged scenario files, optionally patched.

    ``overrides``, a dict or None, replaces top-level keys of the JSON
    document before validation; ``seed`` overrides the seed.
    """
    if name not in BUNDLED_SCENARIOS:
        raise ValidationError(f"unknown bundled scenario {name!r}; expected one of {BUNDLED_SCENARIOS}")
    if not isinstance(overrides, (dict, type(None))):
        raise ValidationError(f"overrides must be a dict of top-level scenario keys; got {overrides!r}")
    raw = json.loads(resources.files("sqc").joinpath(f"scenarios/{name}.json").read_text())
    raw.update(overrides or {})
    if seed is not None:
        raw["seed"] = seed
    return scenario_from_dict(raw, context=f"bundled scenario {name}")
