"""Tournament configuration: schema, loading, and player construction.

Configs are YAML (hand-editable, comments allowed) checked against JSON
schemas, by an in-repo checker of the keywords they use, before anything
executes; unknown keys are rejected outright. The config hash covers
exactly the fields that determine match outcomes (seed, batch size,
threshold, task, players, schedule), so re-rating with different rating
knobs never invalidates a stored log.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .glicko import RatingConfig
from .tournament import (PlayerSpec, RunSettings, Schedule, band,
                         explicit_schedule, round_robin, stable_seed)

if TYPE_CHECKING:
    from . import toy


class ConfigError(ValueError):
    """The configuration is malformed or internally inconsistent."""


# The values of a transform entry's required ``transform:`` key. The key
# stays, with its one value, so that no config's hash changes. It is named
# here, not in ``toy``, which only the commands that build players load.
TRANSFORMS = ("additive_noise",)


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
        "transform": {"enum": list(TRANSFORMS)},
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

_KIND_SCHEMAS = [_TOY_TRAJECTORY_SCHEMA, _REAL_DATA_SCHEMA, _TRANSFORM_SCHEMA,
                 _NOISE_ORACLE_SCHEMA, _CONSTANT_SCHEMA, _EXTERNAL_SCHEMA]

# An entry's kind selects the one schema it must meet, so an error names the
# key at fault instead of listing every kind the entry is not.
_PLAYER_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": [s["properties"]["kind"]["const"]
                                     for s in _KIND_SCHEMAS]}},
    "allOf": [{"if": {"type": "object", "required": ["kind"],
                      "properties": {"kind": s["properties"]["kind"]}},
               "then": s} for s in _KIND_SCHEMAS],
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
                                      "maxItems": 3,
                                      "prefixItems": [
                                          {"type": "string"},
                                          {"type": "string"},
                                          {"type": "integer",
                                           "minimum": 0}]}},
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


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}
_SIZES = {"minLength": str, "minItems": list, "maxItems": list}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _is(value, kind: str) -> bool:
    """Strict JSON types, so `[g, d, 1.0]` cannot play `[g, d, 1]` under
    another hash, and NaN (passing every bound) is no number."""
    if isinstance(value, float):
        return kind == "number" and math.isfinite(value)
    return (isinstance(value, bool) == (kind == "boolean")
            and isinstance(value, _TYPES[kind]))


def _errors(value, schema: dict, path: tuple = ()):
    """Yield ``(path, off, message)`` per way ``value`` breaks ``schema``,
    in the order and words of the Python JSON Schema validator; ``off``:
    ``value`` is not of the schema's type, or it names none."""
    off = "type" not in schema or not _is(value, schema["type"])
    is_dict, is_list = isinstance(value, dict), isinstance(value, list)
    for key, want in schema.items():
        if key == "type" and off:
            yield path, off, f"{value!r} is not of type {want!r}"
        elif key == "const" and value != want:
            yield path, off, f"{want!r} was expected"
        elif key == "enum" and value not in want:
            yield path, off, f"{value!r} is not one of {want!r}"
        elif key in _BOUNDS and _is(value, "number") \
                and _BOUNDS[key][0](value, want):
            yield path, off, f"{value!r} is {_BOUNDS[key][1]} of {want!r}"
        elif key in _SIZES and isinstance(value, _SIZES[key]) and (
                len(value) > want if key == "maxItems" else len(value) < want):
            yield path, off, f"{value!r} " + (
                "is too long" if key == "maxItems" else
                "should be non-empty" if want == 1 else "is too short")
        elif key == "required" and is_dict:
            yield from ((path, off, f"{name!r} is a required property")
                        for name in want if name not in value)
        elif key == "additionalProperties" and want is False and is_dict:
            extra = sorted({k for k in value
                            if k not in schema.get("properties", {})}, key=str)
            if extra:
                yield path, off, "Additional properties are not allowed " \
                    f"({', '.join(map(repr, extra))} " \
                    f"{'were' if len(extra) > 1 else 'was'} unexpected)"
        elif key == "properties" and is_dict:
            for name in [name for name in want if name in value]:
                yield from _errors(value[name], want[name], path + (name,))
        elif key == "prefixItems" and is_list:
            for i, (item, sub) in enumerate(zip(value, want)):
                yield from _errors(item, sub, path + (i,))
        elif key == "items" and is_list:
            for i in range(len(schema.get("prefixItems", ())), len(value)):
                yield from _errors(value[i], want, path + (i,))
        elif key == "allOf":
            for sub in want:
                yield from _errors(value, sub, path)
        elif key == "if" and next(_errors(value, want), None) is None:
            yield from _errors(value, schema.get("then", {}), path)


def _validate(payload, schema: dict, where: str) -> None:
    """Raise the error JSON Schema's ``best_match`` would pick: the
    shallowest, the last by path, an ``off`` one, the first found."""
    best = max(_errors(payload, schema), default=None,
               key=lambda error: (-len(error[0]), error[0], error[1]))
    if best is not None:
        path = "/".join(map(str, best[0])) or "<root>"
        raise ConfigError(f"{where}: at {path}: {best[2]}")


def parse_config(payload: Mapping, where: str = "config"
                 ) -> TournamentConfig:
    _validate(payload, CONFIG_SCHEMA, where)
    schedule = dict(payload.get("schedule") or {})
    kind = schedule.setdefault("kind", "round_robin")
    band_hint = " (on the command line, add --schedule band)"
    for key, owner, hint in (("band_width", "band", band_hint),
                             ("matches", "explicit", "")):
        if kind == owner and key not in schedule:
            raise ConfigError(f"{where}: schedule kind {owner!r} needs {key}")
        if kind != owner and key in schedule:
            raise ConfigError(f"{where}: {key} applies only to schedule kind "
                              f"{owner!r}, not {kind!r}{hint}")
    if kind == "explicit" and "repeats" in schedule:
        raise ConfigError(f"{where}: repeats does not apply to schedule kind "
                          "'explicit', which plays each listed match once")
    schedule.setdefault("repeats", 1)
    # CONFIG_SCHEMA holds _RATING_SCHEMA, so the section is valid already.
    rating = RatingConfig(**(payload.get("rating") or {}))
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


def _read_yaml(path, what: str):
    import yaml

    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc


def load_config(path) -> TournamentConfig:
    payload = _read_yaml(path, "config")
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(payload, where=str(path))


def load_players_fragment(path) -> list[dict]:
    """Load an extension file containing only new player definitions."""
    payload = _read_yaml(path, "players")
    _validate(payload, PLAYERS_FRAGMENT_SCHEMA, str(path))
    return [dict(p) for p in payload["players"]]


def config_hash(config: TournamentConfig) -> str:
    """Hash of exactly the fields that determine match outcomes."""
    import hashlib  # loads OpenSSL, which re-rating a log never needs

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


def _entry_player(entry: dict, task: toy.GaussianTask):
    """The one player of an entry of any kind but a trajectory. An external
    one is spawned only at play, so rate and extend never start one."""
    from . import toy

    kind = entry["kind"]
    if kind == "real_data":
        return task.model
    if kind == "transform":
        return toy.TransformPlayer(task.model, int(entry["severity"]),
                                   task.scale)
    if kind == "noise_oracle":
        return toy.noise_oracle(task, int(entry["severity"]))
    if kind == "constant":
        return toy.ConstantDiscriminator(float(entry["value"]))
    return None


def player_specs(entries: Sequence[dict]) -> list[PlayerSpec]:
    """The players that validated config entries define, in build order: a
    trajectory's generators and then its discriminators, by checkpoint. It
    builds no player, so a log that holds its entries rates without one."""
    specs = []
    for entry in entries:
        experiment = entry.get("experiment")
        if entry["kind"] != "toy_trajectory":
            role = entry.get("role") or ("generator" if entry["kind"] in (
                "real_data", "transform") else "discriminator")
            specs.append(PlayerSpec(entry["id"], role, entry.get(
                "iteration", entry.get("severity")), experiment))
            continue
        n = entry.get("n_checkpoints", 20)
        checkpoints = entry.get("checkpoints", range(n))
        if bad := [k for k in checkpoints if k >= n]:
            raise ConfigError(f"checkpoints {bad} out of range for "
                              f"n_checkpoints={n}")
        roles = [role for role, present in (
            ("generator", entry.get("generators", True)),
            ("discriminator", entry.get("discriminators", "none") != "none"))
            if present]
        specs += [PlayerSpec(f"{experiment}-{role[0]}{k:02d}", role, k,
                             experiment)
                  for role in roles for k in checkpoints]
    seen = set()
    for spec in specs:
        if spec.id in seen:
            raise ConfigError(f"duplicate player id {spec.id!r}")
        seen.add(spec.id)
    return specs


def _trajectory_players(entry: dict, task: toy.GaussianTask) -> dict:
    from . import toy

    n = int(entry.get("n_checkpoints", 20))
    mastery = float(entry.get("mastery_fraction", 1.0))
    traj_seed = int(entry.get("trajectory_seed", task.seed))
    panel_seed = int(entry.get("panel_seed", traj_seed))
    capacity = int(entry.get("chekhov_capacity", 10))
    gens = toy.trajectory(task, n, mastery_fraction=mastery, seed=traj_seed)
    m_idx = toy.mastery_index(n, mastery)
    panel = entry.get("discriminators")

    players = {}
    for spec in player_specs([entry]):
        k = spec.iteration
        if spec.role == "generator":
            players[spec.id] = gens[k]
        elif panel == "oracle":
            players[spec.id] = toy.OracleDiscriminator(
                task.model, [gens[k].density_model(task)], checkpoint=k)
        elif panel == "forgetting":
            players[spec.id] = toy.ForgettingDiscriminator(
                task.model, [gens[k].density_model(task)],
                mastered=k >= m_idx, checkpoint=k)
        else:
            players[spec.id] = toy.chekhov_discriminator(
                task, gens, k, capacity=capacity,
                seed=stable_seed(panel_seed, "chk") % 2**31)
    return players


def build_players(config: TournamentConfig) -> BuiltPlayers:
    """Construct every configured player for the config's task."""
    from . import toy  # rate builds no player, so it never loads toy

    task = toy.make_task(int(config.task["dim"]),
                         seed=int(config.task["seed"]))
    built = BuiltPlayers(task=task, data=task.model, players={},
                         specs=player_specs(config.players),
                         external=[dict(entry) for entry in config.players
                                   if entry["kind"] == "external"])
    for entry in config.players:
        if entry["kind"] == "toy_trajectory":
            built.players.update(_trajectory_players(entry, task))
        else:
            built.players[entry["id"]] = _entry_player(entry, task)
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


def extend_matches(entries: Sequence[dict], lines: Sequence[Sequence[dict]],
                   repeats: int) -> list[tuple[str, str, int]]:
    """The matches of a tournament of ``entries`` extended by each players
    line of ``lines`` in turn: each line's players against the players
    before them, new generators first, by id, each pair ``repeats`` times."""
    by_id = operator.attrgetter("id")
    old, matches = sorted(player_specs(entries), key=by_id), []
    for new in (sorted(player_specs(line), key=by_id) for line in lines):
        for gens, discs in ((new, old), (old, new)):
            matches += [(g.id, d.id, r) for g in gens if g.role == "generator"
                        for d in discs if d.role == "discriminator"
                        for r in range(repeats)]
        old = sorted(old + new, key=by_id)
    return matches


def run_settings(config: TournamentConfig) -> RunSettings:
    return RunSettings(seed=config.seed, batch_size=config.batch_size,
                       threshold=config.threshold)
