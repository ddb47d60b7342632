"""Scenario configuration: JSON schema, strict validation, presets, hashing.

A scenario document fixes the channel profile, the frame budget, the state
truncation, optimizer settings and the simulation protocol. Unknown keys
are rejected at every level so typos fail loudly. Three presets cover the
standard fading profiles studied on this system: mild fading on both links,
heavy fading on both, and strongly polarized link quality.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .fbl import ChannelProfile, LinkParams
from .states import SystemConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A scenario document failed validation."""


_PRESET_COMMON = {
    "snr_db": {"good": -12.2, "bad": -15.2},
    "blocklength": {"N": 1000, "d": 16},
    "state": {"a_max": 5, "a_out": 3, "initial": [1, 1, 0, 0]},
    "optimizer": {"epsilon_cvg": 1e-5, "max_iter": 200, "seeds": 10},
    "simulation": {"reps": 100, "periods": 2500, "master_seed": 1},
}

PRESETS: dict[str, dict] = {}
for _name, _alpha, _seed in (
    ("scenario_a", [0.9, 0.7], 1),
    ("scenario_b", [0.6, 0.4], 2),
    ("scenario_c", [0.9, 0.2], 3),
):
    _doc = copy.deepcopy(_PRESET_COMMON)
    _doc["alpha"] = _alpha
    _doc["simulation"]["master_seed"] = _seed
    PRESETS[_name] = _doc


@dataclass(frozen=True)
class OptimizerSettings:
    max_iter: int
    seeds: int


@dataclass(frozen=True)
class SimulationSettings:
    reps: int
    periods: int
    master_seed: int


@dataclass(frozen=True)
class Scenario:
    name: str
    system: SystemConfig
    optimizer: OptimizerSettings
    simulation: SimulationSettings
    config_hash: str


def config_hash(document: dict) -> str:
    """sha256 over the canonical JSON serialization of the document."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _require(mapping, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(missing)}")


def _value(value, label: str, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    if kind is int and int(value) != value:
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return kind(value)


def _number(mapping, where: str, key: str, kind=float):
    return _value(mapping[key], f"{where}.{key}", kind)


def parse_scenario(document: dict, name: str = "custom") -> Scenario:
    """Validate a scenario document and build the typed configuration."""
    _require(
        document,
        "scenario",
        ("alpha", "snr_db", "blocklength", "state", "optimizer", "simulation"),
        ("schema_version",),
    )
    version = document.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION or isinstance(version, bool):
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")

    alpha = document["alpha"]
    if not (isinstance(alpha, list) and len(alpha) == 2):
        raise ConfigError("alpha must be a list of two probabilities")
    alpha = [_value(v, f"alpha[{i}]") for i, v in enumerate(alpha)]
    _require(document["snr_db"], "snr_db", ("good", "bad"))
    _require(document["blocklength"], "blocklength", ("N", "d"))
    _require(document["state"], "state", ("a_max", "a_out", "initial"))
    _require(document["optimizer"], "optimizer", ("epsilon_cvg", "max_iter", "seeds"))
    _require(document["simulation"], "simulation", ("reps", "periods", "master_seed"))

    initial = document["state"]["initial"]
    if not (isinstance(initial, list) and len(initial) == 4):
        raise ConfigError("state.initial must be a list of four integers")
    initial = [_value(v, f"state.initial[{i}]", int) for i, v in enumerate(initial)]

    try:
        profile = ChannelProfile(
            alpha_1=alpha[0],
            alpha_2=alpha[1],
            gamma_good_db=_number(document["snr_db"], "snr_db", "good"),
            gamma_bad_db=_number(document["snr_db"], "snr_db", "bad"),
        )
        link = LinkParams(
            blocklength_total=_number(document["blocklength"], "blocklength", "N", int),
            payload_bits=_number(document["blocklength"], "blocklength", "d", int),
        )
        system = SystemConfig(
            profile=profile,
            link=link,
            a_max=_number(document["state"], "state", "a_max", int),
            a_out=_number(document["state"], "state", "a_out", int),
            initial=tuple(initial),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    opt = OptimizerSettings(
        max_iter=_number(document["optimizer"], "optimizer", "max_iter", int),
        seeds=_number(document["optimizer"], "optimizer", "seeds", int),
    )
    if opt.max_iter < 1 or opt.seeds < 1:
        raise ConfigError("optimizer.max_iter and optimizer.seeds must be >= 1")
    # The one-sweep optimizer has no convergence tolerance; the key stays in
    # the schema so existing documents, and their hashes, stay valid.
    if _number(document["optimizer"], "optimizer", "epsilon_cvg") <= 0.0:
        raise ConfigError("optimizer.epsilon_cvg must be > 0")
    sim = SimulationSettings(
        reps=_number(document["simulation"], "simulation", "reps", int),
        periods=_number(document["simulation"], "simulation", "periods", int),
        master_seed=_number(document["simulation"], "simulation", "master_seed", int),
    )
    if sim.reps < 1 or sim.periods < 1:
        raise ConfigError("simulation.reps and simulation.periods must be >= 1")
    if sim.master_seed < 0:
        raise ConfigError(f"simulation.master_seed must be >= 0, got {sim.master_seed}")

    return Scenario(
        name=name,
        system=system,
        optimizer=opt,
        simulation=sim,
        config_hash=config_hash(document),
    )


def load_scenario(source) -> Scenario:
    """Load a scenario from a preset name, a JSON file path, or a dict."""
    if isinstance(source, dict):
        return parse_scenario(source)
    name = str(source)
    if name in PRESETS:
        return parse_scenario(PRESETS[name], name=name)
    path = Path(name)
    if not path.exists():
        raise ConfigError(
            f"no such preset or config file: {name} (presets: {', '.join(sorted(PRESETS))})"
        )
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(document, name=path.stem)
