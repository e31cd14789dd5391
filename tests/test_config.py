"""Config parsing, hashing, and player construction tests."""

from __future__ import annotations

import copy
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arena import config as cfgmod, toy
from arena.config import (ConfigError, build_players, build_schedule,
                          config_hash, load_config, load_players_fragment,
                          parse_config, player_specs, run_settings)
from arena.glicko import RatingConfig
from arena.tournament import stable_seed

from conftest import tiny_config_payload, write_yaml


def minimal_payload() -> dict:
    return {
        "seed": 7,
        "task": {"dim": 3, "seed": 11},
        "players": [
            {"kind": "constant", "id": "judge", "value": 0.25},
            {"kind": "real_data", "id": "data"},
        ],
    }


# Integer keys of the config schema, each with a setter.
INTEGER_KEYS = [
    ("seed", lambda p, v: p.update(seed=v)),
    ("batch_size", lambda p, v: p.update(batch_size=v)),
    ("task/dim", lambda p, v: p["task"].update(dim=v)),
    ("players/0/trajectory_seed",
     lambda p, v: p["players"][0].update(trajectory_seed=v)),
    ("players/0/checkpoints/1",
     lambda p, v: p["players"][0].update(checkpoints=[0, v])),
    ("schedule/repeats",
     lambda p, v: p.update(schedule={"kind": "round_robin", "repeats": v})),
    ("schedule/matches/0/2",
     lambda p, v: p.update(schedule={
         "kind": "explicit", "matches": [["tiny-g00", "tiny-d01", v]]})),
    ("rating/max_passes", lambda p, v: p.update(rating={"max_passes": v})),
]

# Number keys of the config schema, each with a setter.
NUMBER_KEYS = [
    ("threshold", lambda p, v: p.update(threshold=v)),
    ("players/0/mastery_fraction",
     lambda p, v: p["players"][0].update(mastery_fraction=v)),
    ("rating/default_rating",
     lambda p, v: p.update(rating={"default_rating": v})),
    ("rating/damping", lambda p, v: p.update(rating={"damping": v})),
]


class TestParseConfig:
    def test_defaults_are_filled(self):
        config = parse_config(minimal_payload())
        assert config.batch_size == 64
        assert config.threshold == 0.5
        assert config.schedule == {"kind": "round_robin", "repeats": 1}
        assert config.rating == RatingConfig()
        assert config.outputs == {}
        assert config.raw["seed"] == 7

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda p: p.update(extra=1), "extra"),            # unknown key
        (lambda p: p.pop("seed"), "seed"),                 # missing seed
        (lambda p: p["task"].update(shape=2), "shape"),    # unknown task key
        (lambda p: p["players"].append({"kind": "psychic", "id": "x"}),
         "players"),                                       # unknown kind
        (lambda p: p.update(batch_size=0), "batch_size"),  # zero batch
        (lambda p: p.update(threshold=1.0), "threshold"),  # open interval
    ])
    def test_schema_violations_are_config_errors(self, mutate, fragment):
        payload = minimal_payload()
        mutate(payload)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(payload)

    @pytest.mark.parametrize("value", [1.0, True])
    @pytest.mark.parametrize("where, mutate", INTEGER_KEYS,
                             ids=[where for where, _ in INTEGER_KEYS])
    def test_integers_must_be_ints(self, where, mutate, value):
        # `[g, d, 1.0]` would play the match `[g, d, 1]` under another hash.
        payload = tiny_config_payload()
        mutate(payload, value)
        with pytest.raises(ConfigError, match=f"at {where}: {value!r} is "
                                              "not of type 'integer'"):
            parse_config(payload)
        mutate(payload, 1)
        parse_config(payload)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where, mutate", NUMBER_KEYS,
                             ids=[where for where, _ in NUMBER_KEYS])
    def test_numbers_must_be_finite(self, where, mutate, value):
        # NaN passes every bound, so a NaN rating setting used to rate
        # every player NaN.
        payload = tiny_config_payload()
        mutate(payload, value)
        with pytest.raises(ConfigError, match=f"at {where}: {value!r} is "
                                              "not of type 'number'"):
            parse_config(payload)
        mutate(payload, 0.5)
        parse_config(payload)

    def test_band_schedule_requires_width(self):
        payload = minimal_payload()
        payload["schedule"] = {"kind": "band"}
        with pytest.raises(ConfigError, match="band_width"):
            parse_config(payload)

    def test_band_width_requires_band_schedule(self):
        payload = minimal_payload()
        payload["schedule"] = {"kind": "round_robin", "band_width": 4}
        with pytest.raises(ConfigError, match="band_width applies only"):
            parse_config(payload)

    def test_explicit_schedule_requires_matches(self):
        payload = minimal_payload()
        payload["schedule"] = {"kind": "explicit"}
        with pytest.raises(ConfigError, match="matches"):
            parse_config(payload)

    @pytest.mark.parametrize("kind", ["round_robin", "band"])
    def test_matches_require_explicit_schedule(self, kind):
        # The listed matches were ignored, their unknown ids unreported.
        payload = minimal_payload()
        payload["schedule"] = {"kind": kind, "band_width": 1,
                               "matches": [["data", "x"]]}
        if kind == "round_robin":
            del payload["schedule"]["band_width"]
        with pytest.raises(ConfigError, match="matches applies only to "
                           f"schedule kind 'explicit', not '{kind}'"):
            parse_config(payload)

    def test_explicit_schedule_takes_no_repeats(self):
        # The repeats were ignored: each listed match played once.
        payload = minimal_payload()
        payload["schedule"] = {"kind": "explicit", "repeats": 3,
                               "matches": [["data", "judge"]]}
        with pytest.raises(ConfigError, match="repeats does not apply"):
            parse_config(payload)

    def test_explicit_schedule_keeps_its_hash(self):
        payload = minimal_payload()
        payload["schedule"] = {"kind": "explicit",
                               "matches": [["data", "judge"]]}
        config = parse_config(payload)
        assert config.schedule["repeats"] == 1
        assert config_hash(config) == "de26c7f17e271586"

    def test_rating_section_mirrors_rating_config(self):
        payload = minimal_payload()
        payload["rating"] = {"tau": 0.3, "max_passes": 7,
                             "outcome_mode": "per-match"}
        config = parse_config(payload)
        assert config.rating.tau == 0.3
        assert config.rating.max_passes == 7
        assert config.rating.outcome_mode == "per-match"

    def test_unknown_rating_knob_rejected(self):
        payload = minimal_payload()
        payload["rating"] = {"k_factor": 32}
        with pytest.raises(ConfigError, match="k_factor"):
            parse_config(payload)


SCHEMAS = {name: value for name, value in vars(cfgmod).items()
           if name.endswith("_SCHEMA")}


class TestSchemas:
    def test_every_schema_passes_its_metaschema(self):
        assert len(SCHEMAS) == 10
        for schema in SCHEMAS.values():
            jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(extra=1, batch_size=0),
        lambda p: p.pop("task"),
        lambda p: p["players"].append({"kind": "constant", "id": "x"}),
        lambda p: p["players"][0].update(value=2),
        lambda p: p.update(rating={"tau": -1, "k": 2}),
        lambda p: p.update(schedule={"kind": "band", "band_width": -1}),
    ])
    def test_errors_are_those_of_jsonschema_validate(self, mutate):
        payload = minimal_payload()
        mutate(payload)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, cfgmod.CONFIG_SCHEMA)
        path = "/".join(map(str, expected.value.absolute_path)) or "<root>"
        with pytest.raises(ConfigError) as caught:
            parse_config(payload, where="cfg")
        assert str(caught.value) == f"cfg: at {path}: {expected.value.message}"


def _strict_integer(checker, value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _strict_number(checker, value) -> bool:
    return _strict_integer(checker, value) or (isinstance(value, float)
                                               and math.isfinite(value))


_REFERENCE_VALIDATORS: dict[int, object] = {}


def reference_validate(payload, schema, where: str) -> None:
    """The reference the in-repo checker is held to: jsonschema with strict
    integer and number types, raising the error ``best_match`` picks."""
    validator = _REFERENCE_VALIDATORS.get(id(schema))
    if validator is None:
        cls = jsonschema.validators.validator_for(schema)
        strict = cls.TYPE_CHECKER.redefine_many(
            {"integer": _strict_integer, "number": _strict_number})
        cls = jsonschema.validators.extend(cls, type_checker=strict)
        validator = _REFERENCE_VALIDATORS[id(schema)] = cls(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"{where}: at {path}: {error.message}")


def _message(validate, payload, schema):
    try:
        validate(payload, schema, "cfg")
    except ConfigError as exc:
        return str(exc)
    return None


def _every_kind_payload() -> dict:
    return tiny_config_payload(
        threshold=0.25,
        players=tiny_config_payload()["players"] + [
            {"kind": "toy_trajectory", "experiment": "b",
             "checkpoints": [0, 1], "generators": False,
             "discriminators": "chekhov", "chekhov_capacity": 2},
            {"kind": "real_data", "id": "data", "experiment": "b"},
            {"kind": "transform", "id": "t", "transform": "additive_noise",
             "severity": 3, "iteration": 1},
            {"kind": "noise_oracle", "id": "n", "severity": 2},
            {"kind": "constant", "id": "c", "value": 0.5},
            {"kind": "external", "id": "x", "role": "discriminator",
             "command": ["judge", "--dim", "3"]}],
        schedule={"kind": "explicit",
                  "matches": [["tiny-g00", "c"], ["data", "x", 2]]},
        rating={"tau": 0.5, "max_passes": 9, "damping": 0.5,
                "outcome_mode": "per-match"},
        outputs={"directory": "out", "log": "log.jsonl"})


# Valid payloads of each schema the commands validate, to mutate.
VALID_PAYLOADS = {
    "CONFIG_SCHEMA": [minimal_payload(), tiny_config_payload(),
                      tiny_config_payload(schedule={"kind": "band",
                                                    "band_width": 1,
                                                    "repeats": 2}),
                      _every_kind_payload()],
    "PLAYERS_FRAGMENT_SCHEMA": [
        {"players": _every_kind_payload()["players"]}],
    "_RATING_SCHEMA": [{}, _every_kind_payload()["rating"],
                       {"default_rating": -3, "default_deviation": 1e-9,
                        "default_volatility": 2, "convergence_eps": 1,
                        "pass_tolerance": 0.1, "outcome_mode": "per-sample"}],
}
REPLACEMENTS = [None, True, 0, -1, 1.0, 0.5, math.nan, math.inf, -math.inf,
                "", [], ["x", 0], {}, {"kind": "constant"}, {0: "x", 1: 2}]


def _slots(node) -> list:
    """Every (container, key) pair in ``node``, at any depth."""
    keys = (list(node) if isinstance(node, dict) else
            range(len(node)) if isinstance(node, list) else [])
    return [slot for key in keys
            for slot in [(node, key)] + _slots(node[key])]


@st.composite
def mutated(draw, schema_name):
    payload = copy.deepcopy(draw(st.sampled_from(VALID_PAYLOADS[schema_name])))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(payload)
        dicts = [payload] + [c[k] for c, k in slots
                             if isinstance(c[k], dict)]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "add":
            draw(st.sampled_from(dicts))[draw(st.sampled_from(
                ["extra", "0", 0, "kind", "zz"]))] = copy.deepcopy(
                    draw(st.sampled_from(REPLACEMENTS)))
        elif op == "delete" and any(isinstance(c, dict) for c, _ in slots):
            container, key = draw(st.sampled_from(
                [(c, k) for c, k in slots if isinstance(c, dict)]))
            del container[key]
        elif slots:
            container, key = draw(st.sampled_from(slots))
            container[key] = copy.deepcopy(
                draw(st.sampled_from(REPLACEMENTS)))
    return payload


class TestChecker:
    """The in-repo checker raises what jsonschema would: the same payloads
    pass, and a failing one fails with the same message."""

    def test_every_valid_payload_passes_both(self):
        for name, payloads in VALID_PAYLOADS.items():
            for payload in payloads:
                assert _message(reference_validate, payload,
                                SCHEMAS[name]) is None
                assert _message(cfgmod._validate, payload,
                                SCHEMAS[name]) is None

    @pytest.mark.parametrize("name", sorted(VALID_PAYLOADS))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payloads_get_jsonschemas_verdict(self, name, data):
        payload = data.draw(mutated(name))
        schema = SCHEMAS[name]
        assert _message(cfgmod._validate, payload, schema) == \
            _message(reference_validate, payload, schema)

    def test_the_schemas_use_only_the_checked_keywords(self):
        checked = {"type", "const", "enum", "minimum", "maximum",
                   "exclusiveMinimum", "exclusiveMaximum", "minLength",
                   "minItems", "maxItems", "required", "additionalProperties",
                   "properties", "items", "prefixItems", "allOf", "if",
                   "then"}

        def keywords(schema):
            assert schema.get("additionalProperties", False) is False
            subs = [*schema.get("properties", {}).values(),
                    *schema.get("prefixItems", []), *schema.get("allOf", []),
                    *(schema[k] for k in ("items", "if", "then")
                      if k in schema)]
            return set(schema).union(*map(keywords, subs))

        for schema in SCHEMAS.values():
            assert keywords(schema) <= checked


class TestConfigHash:
    def test_frozen_value(self):
        # Stored logs carry this hash, so it must stay stable across
        # releases; frozen from the sha256 of the canonical basis.
        assert config_hash(parse_config(minimal_payload())) == \
            "4651ad65345f22d8"

    def test_rating_and_outputs_do_not_invalidate_logs(self):
        base = config_hash(parse_config(minimal_payload()))
        payload = minimal_payload()
        payload["rating"] = {"tau": 0.9}
        payload["outputs"] = {"directory": "elsewhere"}
        assert config_hash(parse_config(payload)) == base

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(seed=8),
        lambda p: p.update(batch_size=32),
        lambda p: p.update(threshold=0.4),
        lambda p: p["task"].update(seed=12),
        lambda p: p["players"][0].update(value=0.5),
        lambda p: p.update(schedule={"kind": "band", "band_width": 1}),
    ])
    def test_outcome_determining_fields_change_the_hash(self, mutate):
        base = config_hash(parse_config(minimal_payload()))
        payload = minimal_payload()
        mutate(payload)
        assert config_hash(parse_config(payload)) != base

    def test_explicit_defaults_hash_like_omitted_ones(self):
        payload = minimal_payload()
        payload["schedule"] = {"kind": "round_robin", "repeats": 1}
        payload["batch_size"] = 64
        assert config_hash(parse_config(payload)) == \
            config_hash(parse_config(minimal_payload()))


class TestBuildPlayers:
    def test_trajectory_ids_roles_and_iterations(self):
        built = build_players(parse_config(tiny_config_payload()))
        gen_ids = [s.id for s in built.specs if s.role == "generator"]
        disc_ids = [s.id for s in built.specs if s.role == "discriminator"]
        assert gen_ids == ["tiny-g00", "tiny-g01", "tiny-g02", "tiny-g03"]
        assert disc_ids == ["tiny-d00", "tiny-d01", "tiny-d02", "tiny-d03"]
        spec = next(s for s in built.specs if s.id == "tiny-g02")
        assert (spec.iteration, spec.experiment) == (2, "tiny")

    def test_generators_flag_suppresses_generators(self):
        payload = tiny_config_payload()
        payload["players"][0]["generators"] = False
        built = build_players(parse_config(payload))
        assert all(s.role == "discriminator" for s in built.specs)

    def test_none_panel_builds_no_discriminators(self):
        payload = tiny_config_payload()
        payload["players"][0]["discriminators"] = "none"
        built = build_players(parse_config(payload))
        assert all(s.role == "generator" for s in built.specs)

    def test_checkpoint_subset_selection(self):
        payload = tiny_config_payload()
        payload["players"][0]["checkpoints"] = [0, 3]
        built = build_players(parse_config(payload))
        gens = [s.id for s in built.specs if s.role == "generator"]
        assert gens == ["tiny-g00", "tiny-g03"]

    def test_checkpoints_out_of_range_rejected(self):
        payload = tiny_config_payload()
        payload["players"][0]["checkpoints"] = [0, 4]
        with pytest.raises(ConfigError, match=r"checkpoints \[4\]"):
            build_players(parse_config(payload))

    def test_oracle_panel_uses_each_checkpoints_own_model(self):
        built = build_players(parse_config(tiny_config_payload()))
        disc = built.players["tiny-d01"]
        gen = built.players["tiny-g01"]
        assert isinstance(disc, toy.OracleDiscriminator)
        assert disc.fake_models == [gen.density_model(built.task)]

    def test_forgetting_panel_masters_past_the_mastery_index(self):
        payload = tiny_config_payload()
        payload["players"][0]["discriminators"] = "forgetting"
        payload["players"][0]["mastery_fraction"] = 0.5
        built = build_players(parse_config(payload))
        mastery = toy.mastery_index(4, 0.5)
        for k in range(4):
            disc = built.players[f"tiny-d{k:02d}"]
            assert isinstance(disc, toy.ForgettingDiscriminator)
            assert disc.mastered == (k >= mastery), f"checkpoint {k}"

    def test_chekhov_panel_reservoir_seed_derivation(self):
        payload = tiny_config_payload()
        payload["players"][0]["discriminators"] = "chekhov"
        payload["players"][0]["chekhov_capacity"] = 2
        built = build_players(parse_config(payload))
        disc = built.players["tiny-d03"]

        entry = payload["players"][0]
        task = toy.make_task(3, 13)
        gens = toy.trajectory(task, 4, seed=entry["trajectory_seed"])
        expected = toy.chekhov_discriminator(
            task, gens, 3, capacity=2,
            seed=stable_seed(entry["panel_seed"], "chk") % 2 ** 31)
        batch = task.model.sample(16, np.random.default_rng(0))
        assert np.array_equal(disc.score(batch), expected.score(batch))

    def test_duplicate_player_ids_rejected(self):
        payload = tiny_config_payload()
        payload["players"].append(dict(payload["players"][0]))
        with pytest.raises(ConfigError, match="duplicate player id"):
            build_players(parse_config(payload))

    def test_real_data_transform_and_judges(self):
        payload = tiny_config_payload()
        payload["players"] += [
            {"kind": "real_data", "id": "bench"},
            {"kind": "transform", "id": "noisy", "transform":
             "additive_noise", "severity": 2},
            {"kind": "noise_oracle", "id": "noise-judge", "severity": 2},
            {"kind": "constant", "id": "flat", "value": 0.0},
        ]
        built = build_players(parse_config(payload))
        by_id = {s.id: s for s in built.specs}
        assert built.players["bench"] is built.task.model
        assert isinstance(built.players["noisy"], toy.TransformPlayer)
        assert isinstance(built.players["noise-judge"],
                          toy.OracleDiscriminator)
        assert isinstance(built.players["flat"], toy.ConstantDiscriminator)
        assert by_id["noisy"].iteration == 2  # defaults to the severity
        assert by_id["bench"].role == "generator"
        assert by_id["flat"].role == "discriminator"

    def test_external_players_are_deferred(self):
        payload = tiny_config_payload()
        payload["players"].append({"kind": "external", "id": "ext",
                                   "role": "generator",
                                   "command": ["true"]})
        built = build_players(parse_config(payload))
        assert built.players["ext"] is None
        assert built.external == [{"kind": "external", "id": "ext",
                                   "role": "generator",
                                   "command": ["true"]}]

    def test_player_specs_are_the_built_specs_without_a_build(self):
        payload = tiny_config_payload()
        payload["players"][0]["checkpoints"] = [1, 3]
        payload["players"] += [
            {"kind": "real_data", "id": "bench", "experiment": "ref"},
            {"kind": "transform", "id": "noisy", "transform":
             "additive_noise", "severity": 2, "iteration": 7},
            {"kind": "noise_oracle", "id": "noise-judge", "severity": 2},
            {"kind": "constant", "id": "flat", "value": 0.0},
            {"kind": "external", "id": "ext", "role": "discriminator",
             "command": ["true"], "iteration": 4},
        ]
        config = parse_config(payload)
        specs = player_specs(config.players)
        assert specs == build_players(config).specs
        assert [(s.id, s.role, s.iteration, s.experiment) for s in specs] \
            == [("tiny-g01", "generator", 1, "tiny"),
                ("tiny-g03", "generator", 3, "tiny"),
                ("tiny-d01", "discriminator", 1, "tiny"),
                ("tiny-d03", "discriminator", 3, "tiny"),
                ("bench", "generator", None, "ref"),
                ("noisy", "generator", 7, None),
                ("noise-judge", "discriminator", 2, None),
                ("flat", "discriminator", None, None),
                ("ext", "discriminator", 4, None)]

    def test_player_specs_check_ids_and_checkpoints(self):
        entry = tiny_config_payload()["players"][0]
        with pytest.raises(ConfigError, match="duplicate player id"):
            player_specs([entry, {**entry, "generators": False}])
        with pytest.raises(ConfigError, match=r"checkpoints \[4\]"):
            player_specs([{**entry, "checkpoints": [4]}])


class TestBuildSchedule:
    def test_round_robin_covers_the_population(self):
        config = parse_config(tiny_config_payload())
        built = build_players(config)
        schedule = build_schedule(config, built.specs)
        assert schedule.kind == "round_robin"
        assert len(schedule.matches) == 16

    def test_band_width_flows_through(self):
        payload = tiny_config_payload(schedule={"kind": "band",
                                                "band_width": 1})
        config = parse_config(payload)
        built = build_players(config)
        schedule = build_schedule(config, built.specs)
        assert schedule.band_width == 1
        assert len(schedule.matches) == 4 + 2 * 3

    def test_explicit_matches_flow_through(self):
        payload = tiny_config_payload(
            schedule={"kind": "explicit",
                      "matches": [["tiny-g00", "tiny-d01"],
                                  ["tiny-g01", "tiny-d01", 2]]})
        config = parse_config(payload)
        schedule = build_schedule(config, build_players(config).specs)
        assert schedule.matches == (("tiny-g00", "tiny-d01", 0),
                                    ("tiny-g01", "tiny-d01", 2))

    @pytest.mark.parametrize("entry, where", [
        (["tiny-g00", "tiny-d01", 1.5], "matches/0/2"),
        (["tiny-g00", "tiny-d01", True], "matches/0/2"),
        (["tiny-g00", "tiny-d01", -1], "matches/0/2"),
        ([7, "tiny-d01"], "matches/0/0"),
        (["tiny-g00", None], "matches/0/1"),
    ])
    def test_explicit_entries_are_checked_not_coerced(self, entry, where):
        payload = tiny_config_payload(
            schedule={"kind": "explicit", "matches": [entry]})
        with pytest.raises(ConfigError, match=where):
            parse_config(payload)

    def test_run_settings_mirror_the_config(self):
        config = parse_config(tiny_config_payload())
        settings = run_settings(config)
        assert (settings.seed, settings.batch_size,
                settings.threshold) == (5, 8, 0.5)


class TestFiles:
    def test_load_config_round_trips_yaml(self, tmp_path):
        path = write_yaml(tmp_path / "run.cfg", tiny_config_payload())
        config = load_config(path)
        assert config.seed == 5
        assert config.players[0]["experiment"] == "tiny"

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match=f"^{tmp_path}: "):
            load_config(tmp_path)
        with pytest.raises(ConfigError, match=f"^{tmp_path}: "):
            load_players_fragment(tmp_path)

    def test_invalid_yaml_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("players: [unclosed")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    def test_non_mapping_top_level_rejected(self, tmp_path):
        path = tmp_path / "list.cfg"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError, match="top level"):
            load_config(path)

    def test_players_fragment_loads_and_validates(self, tmp_path):
        path = write_yaml(tmp_path / "extra.cfg",
                          {"players": [{"kind": "real_data", "id": "x"}]})
        assert load_players_fragment(path) == [{"kind": "real_data",
                                                "id": "x"}]
        bad = write_yaml(tmp_path / "bad.cfg",
                         {"players": [{"kind": "real_data"}]})
        with pytest.raises(ConfigError, match="id"):
            load_players_fragment(bad)

    def test_fragment_must_contain_only_players(self, tmp_path):
        path = write_yaml(tmp_path / "extra.cfg",
                          {"players": [{"kind": "real_data", "id": "x"}],
                           "seed": 3})
        with pytest.raises(ConfigError, match="seed"):
            load_players_fragment(path)
