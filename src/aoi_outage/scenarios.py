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
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fbl import ChannelProfile, LinkParams, channel_dispersion, db_to_linear
from .states import SystemConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A scenario document failed validation."""


_PRESET_COMMON = {
    "snr_db": {"good": -12.2, "bad": -15.2},
    "blocklength": {"N": 1000, "d": 16},
    "state": {"a_max": 5, "a_out": 3, "initial": [1, 1, 0, 0]},
    "optimizer": {"max_iter": 200, "seeds": 10},
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


# Each block's keys, in the order they are checked, with the kind of number
# a key holds and the least value it may take, or None where the library's
# own guard (ChannelProfile, LinkParams, SystemConfig) bounds it. A list key
# also gives its length.
_KEYS = {
    "alpha": (float, None, 2),
    "snr_db": {"good": (float, None), "bad": (float, None)},
    "blocklength": {"N": (int, None), "d": (int, None)},
    "state": {"a_max": (int, None), "a_out": (int, None), "initial": (int, None, 4)},
    "optimizer": {"max_iter": (int, 1), "seeds": (int, 1)},
    "simulation": {"reps": (int, 1), "periods": (int, 1), "master_seed": (int, 0)},
}


def _value(value, label: str, kind=float, least=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    if kind is int and int(value) != value:
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    # numpy holds every number as a float64 or an int64
    if abs(value) > (2**63 - 1 if kind is int else sys.float_info.max):
        raise ConfigError(f"{label} is out of range of a 64-bit {kind.__name__}")
    number = kind(value)
    if least is not None and number < least:
        raise ConfigError(f"{label} must be >= {least}, got {number}")
    return number


def _values(node, rule, label: str):
    """node checked against its rule in _KEYS: a block's values by key, a
    list's values, or one value."""
    if isinstance(rule, dict):
        _require(node, label, tuple(rule))
        return {key: _values(node[key], rule[key], f"{label}.{key}") for key in rule}
    kind, least, *length = rule
    if not length:
        return _value(node, label, kind, least)
    if not (isinstance(node, list) and len(node) == length[0]):
        raise ConfigError(f"{label} must be a list of {length[0]} {'integers' if kind is int else 'numbers'}")
    return [_value(v, f"{label}[{i}]", kind, least) for i, v in enumerate(node)]


def parse_scenario(document: dict, name: str = "custom") -> Scenario:
    """Validate a scenario document and build the typed configuration."""
    _require(document, "scenario", tuple(_KEYS), ("schema_version",))
    version = document.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION or isinstance(version, bool):
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    given, optimizer = document, document["optimizer"]
    # the recursive optimizer's convergence tolerance: one sweep has none, so
    # a document that still carries it loads, and keeps its hash
    if isinstance(optimizer, dict) and "epsilon_cvg" in optimizer:
        warnings.warn("optimizer.epsilon_cvg is not read and its value is ignored: the optimizer runs one sweep",
                      UserWarning, stacklevel=2)
        document = {**document, "optimizer": {k: v for k, v in optimizer.items() if k != "epsilon_cvg"}}
    values = {key: _values(document[key], rule, key) for key, rule in _KEYS.items()}
    # a level's linear value must be a positive float64, and one whose
    # dispersion does not vanish; numpy's conversion gives inf or 0.0 where a
    # float's would overflow or underflow
    for key in _KEYS["snr_db"]:
        db = document["snr_db"][key]
        with np.errstate(over="ignore", under="ignore"):
            linear = db_to_linear(np.float64(db))
        if not 0.0 < linear < math.inf:
            raise ConfigError(f"snr_db.{key} is out of range: {db!r} dB {'overflows' if linear else 'underflows'} "
                              "a 64-bit float on the linear scale")
        if channel_dispersion(linear) == 0.0:
            raise ConfigError(f"snr_db.{key} is out of range: {db!r} dB is so low that 1 + SNR rounds to 1 "
                              "and the channel dispersion vanishes")

    snr, link, state = values["snr_db"], values["blocklength"], values["state"]
    try:
        system = SystemConfig(
            profile=ChannelProfile(*values["alpha"], gamma_good_db=snr["good"], gamma_bad_db=snr["bad"]),
            link=LinkParams(blocklength_total=link["N"], payload_bits=link["d"]),
            a_max=state["a_max"],
            a_out=state["a_out"],
            initial=tuple(state["initial"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return Scenario(
        name=name,
        system=system,
        optimizer=OptimizerSettings(values["optimizer"]["max_iter"], values["optimizer"]["seeds"]),
        simulation=SimulationSettings(**values["simulation"]),
        config_hash=config_hash(given),
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
