"""Config parsing, hashing, and player construction tests."""

from __future__ import annotations

import numpy as np
import pytest

from arena import toy
from arena.config import (ConfigError, build_players, build_schedule,
                          config_hash, load_config, load_players_fragment,
                          parse_config, run_settings)
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
        assert (spec.kind, spec.iteration, spec.experiment) == \
            ("toy_checkpoint", 2, "tiny")

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

    def test_extra_entries_build_after_the_config(self):
        config = parse_config(tiny_config_payload())
        built = build_players(config, extra=[{"kind": "real_data",
                                              "id": "late"}])
        assert "late" in built.players
        assert built.specs[-1].id == "late"


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

    def test_run_settings_mirror_the_config(self):
        config = parse_config(tiny_config_payload())
        settings = run_settings(config, on_error="skip")
        assert (settings.seed, settings.batch_size, settings.threshold,
                settings.on_error) == (5, 8, 0.5, "skip")


class TestFiles:
    def test_load_config_round_trips_yaml(self, tmp_path):
        path = write_yaml(tmp_path / "run.cfg", tiny_config_payload())
        config = load_config(path)
        assert config.seed == 5
        assert config.players[0]["experiment"] == "tiny"

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

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
