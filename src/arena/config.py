"""Tournament configuration: schema, loading, and player construction.

Configs are YAML (hand-editable, comments allowed) validated against a JSON
schema before anything executes; unknown keys are rejected outright. The
config hash covers exactly the fields that determine match outcomes (seed,
batch size, threshold, task, players, schedule), so re-rating with different
rating knobs never invalidates a stored log.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import jsonschema
import yaml

from . import toy
from .glicko import RatingConfig
from .tournament import (PlayerSpec, RunSettings, Schedule, band,
                         explicit_schedule, round_robin, stable_seed)


class ConfigError(ValueError):
    """The configuration is malformed or internally inconsistent."""


_TOY_TRAJECTORY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "experiment"],
    "properties": {
        "kind": {"const": "toy_trajectory"},
        "experiment": {"type": "string", "minLength": 1},
        "n_checkpoints": {"type": "integer", "minimum": 2},
        "checkpoints": {"type": "array", "minItems": 1,
                        "items": {"type": "integer", "minimum": 0}},
        "mastery_fraction": {"type": "number",
                             "exclusiveMinimum": 0, "maximum": 1},
        "trajectory_seed": {"type": "integer"},
        "generators": {"type": "boolean"},
        "discriminators": {"enum": ["none", "oracle", "forgetting",
                                    "chekhov"]},
        "panel_seed": {"type": "integer"},
        "chekhov_capacity": {"type": "integer", "minimum": 1},
    },
}

_REAL_DATA_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "id"],
    "properties": {
        "kind": {"const": "real_data"},
        "id": {"type": "string", "minLength": 1},
        "experiment": {"type": "string"},
    },
}

_TRANSFORM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "id", "transform", "severity"],
    "properties": {
        "kind": {"const": "transform"},
        "id": {"type": "string", "minLength": 1},
        "transform": {"enum": list(toy.TRANSFORMS)},
        "severity": {"type": "integer", "minimum": 1, "maximum": 9},
        "experiment": {"type": "string"},
        "iteration": {"type": "integer"},
    },
}

_NOISE_ORACLE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "id", "severity"],
    "properties": {
        "kind": {"const": "noise_oracle"},
        "id": {"type": "string", "minLength": 1},
        "severity": {"type": "integer", "minimum": 1, "maximum": 9},
        "experiment": {"type": "string"},
        "iteration": {"type": "integer"},
    },
}

_CONSTANT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "id", "value"],
    "properties": {
        "kind": {"const": "constant"},
        "id": {"type": "string", "minLength": 1},
        "value": {"type": "number", "minimum": 0, "maximum": 1},
        "experiment": {"type": "string"},
    },
}

_EXTERNAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "id", "role", "command"],
    "properties": {
        "kind": {"const": "external"},
        "id": {"type": "string", "minLength": 1},
        "role": {"enum": ["generator", "discriminator"]},
        "command": {"type": "array", "minItems": 1,
                    "items": {"type": "string"}},
        "experiment": {"type": "string"},
        "iteration": {"type": "integer"},
    },
}

_RATING_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "tau": {"type": "number", "exclusiveMinimum": 0},
        "default_rating": {"type": "number"},
        "default_deviation": {"type": "number", "exclusiveMinimum": 0},
        "default_volatility": {"type": "number", "exclusiveMinimum": 0},
        "convergence_eps": {"type": "number", "exclusiveMinimum": 0},
        "max_passes": {"type": "integer", "minimum": 1},
        "pass_tolerance": {"type": "number", "exclusiveMinimum": 0},
        "damping": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "outcome_mode": {"enum": ["per-sample", "per-match"]},
    },
}

_PLAYER_SCHEMA = {
    "oneOf": [_TOY_TRAJECTORY_SCHEMA, _REAL_DATA_SCHEMA, _TRANSFORM_SCHEMA,
              _NOISE_ORACLE_SCHEMA, _CONSTANT_SCHEMA, _EXTERNAL_SCHEMA],
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed", "task", "players"],
    "properties": {
        "seed": {"type": "integer"},
        "batch_size": {"type": "integer", "minimum": 1},
        "threshold": {"type": "number",
                      "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "task": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim", "seed"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
        },
        "players": {"type": "array", "minItems": 1,
                    "items": _PLAYER_SCHEMA},
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["round_robin", "band", "explicit"]},
                "band_width": {"type": "integer", "minimum": 0},
                "repeats": {"type": "integer", "minimum": 1},
                "matches": {"type": "array",
                            "items": {"type": "array", "minItems": 2,
                                      "maxItems": 3}},
            },
        },
        "rating": _RATING_SCHEMA,
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "log": {"type": "string"},
                "summary_csv": {"type": "string"},
                "heatmap_csv": {"type": "string"},
                "heatmap_svg": {"type": "string"},
                "curve_svg": {"type": "string"},
            },
        },
    },
}

PLAYERS_FRAGMENT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["players"],
    "properties": {
        "players": {"type": "array", "minItems": 1,
                    "items": _PLAYER_SCHEMA},
    },
}


@dataclass(frozen=True)
class TournamentConfig:
    """Validated, default-filled configuration."""

    seed: int
    batch_size: int
    threshold: float
    task: dict
    players: tuple[dict, ...]
    schedule: dict
    rating: RatingConfig
    outputs: dict
    raw: dict = field(repr=False, default_factory=dict)


def _validate(payload, schema, where: str):
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{where}: at {path}: {exc.message}") from exc


def parse_config(payload: Mapping, where: str = "config"
                 ) -> TournamentConfig:
    _validate(payload, CONFIG_SCHEMA, where)
    schedule = dict(payload.get("schedule") or {})
    schedule.setdefault("kind", "round_robin")
    schedule.setdefault("repeats", 1)
    if schedule["kind"] == "band" and "band_width" not in schedule:
        raise ConfigError(f"{where}: schedule kind 'band' needs band_width")
    if schedule["kind"] != "band" and "band_width" in schedule:
        raise ConfigError(f"{where}: band_width applies only to schedule "
                          f"kind 'band', not {schedule['kind']!r} (on the "
                          "command line, add --schedule band)")
    if schedule["kind"] == "explicit" and "matches" not in schedule:
        raise ConfigError(f"{where}: schedule kind 'explicit' needs matches")
    rating = parse_rating(payload.get("rating") or {}, where)
    return TournamentConfig(
        seed=int(payload["seed"]),
        batch_size=int(payload.get("batch_size", 64)),
        threshold=float(payload.get("threshold", 0.5)),
        task=dict(payload["task"]),
        players=tuple(dict(p) for p in payload["players"]),
        schedule=schedule,
        rating=rating,
        outputs=dict(payload.get("outputs") or {}),
        raw=dict(payload),
    )


def parse_rating(section: Mapping, where: str) -> RatingConfig:
    """Validate a ``rating:`` section and build the engine's config."""
    _validate(section, _RATING_SCHEMA, where)
    return RatingConfig(**section)


def load_config(path) -> TournamentConfig:
    try:
        with open(path) as fh:
            payload = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(payload, where=str(path))


def load_players_fragment(path) -> list[dict]:
    """Load an extension file containing only new player definitions."""
    try:
        with open(path) as fh:
            payload = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"players file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    _validate(payload, PLAYERS_FRAGMENT_SCHEMA, str(path))
    return [dict(p) for p in payload["players"]]


def config_hash(config: TournamentConfig) -> str:
    """Hash of exactly the fields that determine match outcomes."""
    basis = {
        "seed": config.seed,
        "batch_size": config.batch_size,
        "threshold": config.threshold,
        "task": config.task,
        "players": list(config.players),
        "schedule": config.schedule,
    }
    canonical = json.dumps(basis, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class BuiltPlayers:
    """Everything needed to run matches for a config."""

    task: toy.GaussianTask
    data: toy.GaussianModel
    players: dict[str, object]
    specs: list[PlayerSpec]
    external: list[dict] = field(default_factory=list)


def _trajectory_players(entry: dict, task: toy.GaussianTask,
                        built: BuiltPlayers) -> None:
    experiment = entry["experiment"]
    n = int(entry.get("n_checkpoints", 20))
    checkpoints = entry.get("checkpoints")
    if checkpoints is None:
        checkpoints = list(range(n))
    bad = [k for k in checkpoints if k >= n]
    if bad:
        raise ConfigError(f"checkpoints {bad} out of range for "
                          f"n_checkpoints={n}")
    mastery = float(entry.get("mastery_fraction", 1.0))
    traj_seed = int(entry.get("trajectory_seed", task.seed))
    panel_seed = int(entry.get("panel_seed", traj_seed))
    capacity = int(entry.get("chekhov_capacity", 10))
    gens = toy.trajectory(task, n, mastery_fraction=mastery, seed=traj_seed)
    m_idx = toy.mastery_index(n, mastery)

    if entry.get("generators", True):
        for k in checkpoints:
            pid = f"{experiment}-g{k:02d}"
            _add(built, pid, gens[k],
                 PlayerSpec(pid, "generator", "toy_checkpoint", k,
                            experiment))
    panel = entry.get("discriminators", "none")
    if panel == "none":
        return
    for k in checkpoints:
        pid = f"{experiment}-d{k:02d}"
        if panel == "oracle":
            disc = toy.OracleDiscriminator(
                task.model, [gens[k].density_model(task)], checkpoint=k)
        elif panel == "forgetting":
            disc = toy.ForgettingDiscriminator(
                task.model, [gens[k].density_model(task)],
                mastered=k >= m_idx, checkpoint=k)
        else:
            disc = toy.chekhov_discriminator(
                task, gens, k, capacity=capacity,
                seed=stable_seed(panel_seed, "chk") % 2**31)
        _add(built, pid, disc,
             PlayerSpec(pid, "discriminator", "toy_checkpoint", k,
                        experiment))


def _add(built: BuiltPlayers, pid: str, player, spec: PlayerSpec) -> None:
    if pid in built.players:
        raise ConfigError(f"duplicate player id {pid!r}")
    built.players[pid] = player
    built.specs.append(spec)


def build_players(config: TournamentConfig,
                  extra: Sequence[dict] = ()) -> BuiltPlayers:
    """Construct every configured player for the config's task.

    ``extra`` holds additional player entries (the extend path); they are
    built identically and appended after the config's own players.
    """
    task = toy.make_task(int(config.task["dim"]),
                         seed=int(config.task["seed"]))
    built = BuiltPlayers(task=task, data=task.model, players={}, specs=[])
    for entry in list(config.players) + list(extra):
        kind = entry["kind"]
        if kind == "toy_trajectory":
            _trajectory_players(entry, task, built)
        elif kind == "real_data":
            _add(built, entry["id"], task.model,
                 PlayerSpec(entry["id"], "generator", "real_data", None,
                            entry.get("experiment")))
        elif kind == "transform":
            player = toy.TransformPlayer(task.model, entry["transform"],
                                         int(entry["severity"]), task.scale)
            _add(built, entry["id"], player,
                 PlayerSpec(entry["id"], "generator", "transform",
                            entry.get("iteration", int(entry["severity"])),
                            entry.get("experiment")))
        elif kind == "noise_oracle":
            _add(built, entry["id"],
                 toy.noise_oracle(task, int(entry["severity"])),
                 PlayerSpec(entry["id"], "discriminator", "custom",
                            entry.get("iteration", int(entry["severity"])),
                            entry.get("experiment")))
        elif kind == "constant":
            _add(built, entry["id"],
                 toy.ConstantDiscriminator(float(entry["value"])),
                 PlayerSpec(entry["id"], "discriminator", "custom", None,
                            entry.get("experiment")))
        elif kind == "external":
            # Construction is deferred: spawning happens at run time so that
            # rate/extend on stored logs never launches processes.
            built.external.append(dict(entry))
            _add(built, entry["id"], None,
                 PlayerSpec(entry["id"], entry["role"], "external",
                            entry.get("iteration"),
                            entry.get("experiment")))
        else:
            raise ConfigError(f"unknown player kind {kind!r}")
    return built


def build_schedule(config: TournamentConfig,
                   specs: Sequence[PlayerSpec]) -> Schedule:
    gens = [s for s in specs if s.role == "generator"]
    discs = [s for s in specs if s.role == "discriminator"]
    kind = config.schedule["kind"]
    repeats = int(config.schedule.get("repeats", 1))
    if kind == "round_robin":
        return round_robin(gens, discs, repeats=repeats)
    if kind == "band":
        return band(gens, discs, width=int(config.schedule["band_width"]),
                    repeats=repeats)
    return explicit_schedule(tuple(tuple(m)
                                   for m in config.schedule["matches"]))


def run_settings(config: TournamentConfig,
                 on_error: str = "fatal") -> RunSettings:
    return RunSettings(seed=config.seed, batch_size=config.batch_size,
                       threshold=config.threshold, on_error=on_error)
