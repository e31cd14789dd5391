"""End-to-end command-line tests, run in process via main()."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arena
from arena import store
from arena import tournament as tn
from arena.cli import build_parser, _load_with_overrides, main
from arena.config import config_hash, load_config

from conftest import tiny_config_payload, write_yaml


@pytest.fixture
def config_path(tmp_path):
    return write_yaml(tmp_path / "run.cfg", tiny_config_payload())


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestRun:
    def test_run_produces_log_and_artifacts(self, tmp_path, config_path,
                                            capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", config_path, "--out-dir", out) == 0
        stdout = capsys.readouterr().out
        assert "rating" in stdout and "win_rate" in stdout
        assert f"log: {out / 'log.jsonl'} (16 records)" in stdout
        for name in ("log.jsonl", "summary.csv", "heatmap.csv",
                     "heatmap.svg", "curves.svg"):
            assert (out / name).exists(), f"missing {name}"
        header, records, _ = store.read_log(out / "log.jsonl")
        assert header.config_hash == config_hash(load_config(config_path))
        assert header.seed == 5
        assert len(records) == 16

    def test_repeat_runs_are_byte_identical(self, tmp_path, config_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", config_path, "--out-dir",
                       first) == 0
        assert run_cli("run", "--config", config_path, "--out-dir",
                       second) == 0
        assert (first / "log.jsonl").read_bytes() == \
            (second / "log.jsonl").read_bytes()
        assert (first / "summary.csv").read_bytes() == \
            (second / "summary.csv").read_bytes()

    def test_seed_override_changes_outcomes(self, tmp_path, config_path):
        base, other = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--config", config_path, "--out-dir", base)
        run_cli("run", "--config", config_path, "--out-dir", other,
                "--seed", 6)
        header, _, _ = store.read_log(other / "log.jsonl")
        assert header.seed == 6
        assert (base / "log.jsonl").read_bytes() != \
            (other / "log.jsonl").read_bytes()

    def test_batch_and_threshold_overrides_reach_the_records(self, tmp_path,
                                                             config_path):
        out = tmp_path / "out"
        run_cli("run", "--config", config_path, "--out-dir", out,
                "--batch-size", 4, "--threshold", 0.25)
        _, records, _ = store.read_log(out / "log.jsonl")
        assert all(r.n_fake == r.n_real == 4 for r in records)
        assert all(r.threshold == 0.25 for r in records)

    def test_band_schedule_warns_about_win_rates(self, tmp_path, config_path,
                                                 capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", config_path, "--out-dir", out,
                       "--schedule", "band", "--band-width", 1) == 0
        captured = capsys.readouterr()
        assert "win rates" in captured.err
        _, records, _ = store.read_log(out / "log.jsonl")
        assert len(records) == 10  # diagonal plus adjacent pairs

    def test_missing_config_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", tmp_path / "absent.cfg") == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_is_a_usage_error(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "bad.cfg",
                          tiny_config_payload(extra_knob=1))
        assert run_cli("run", "--config", path) == 2
        assert "extra_knob" in capsys.readouterr().err

    def test_role_violations_stop_the_run(self, tmp_path, capsys):
        payload = tiny_config_payload(
            schedule={"kind": "explicit",
                      "matches": [["tiny-d00", "tiny-d01"]]})
        path = write_yaml(tmp_path / "bad.cfg", payload)
        assert run_cli("run", "--config", path, "--out-dir",
                       tmp_path / "out") == 2
        assert "scheduled as generator" in capsys.readouterr().err

    def test_unspawnable_external_player_costs_only_its_matches(
            self, tmp_path, capsys):
        trajectory = dict(tiny_config_payload()["players"][0],
                          n_checkpoints=3)
        path = write_yaml(tmp_path / "ext.cfg", tiny_config_payload(players=[
            {"kind": "real_data", "id": "real"}, trajectory,
            {"kind": "external", "id": "ext", "role": "discriminator",
             "command": ["/nonexistent/player"]}]))
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--out-dir", out) == 0
        err = capsys.readouterr().err
        assert err.count("'ext' could not be started") == 1
        assert "its 4 matches are skipped: cannot spawn" in err
        assert "NoneType" not in err
        _, records, _ = store.read_log(str(out / "log.jsonl"))
        # 4 generators x 3 in-process discriminators; the 4 matches
        # against ext are skipped.
        assert len(records) == 12
        assert "ext" not in {r.discriminator_id for r in records}
        assert run_cli("run", "--config", path, "--out-dir",
                       tmp_path / "strict", "--strict") == 1
        assert "cannot spawn" in capsys.readouterr().err


class TestRate:
    @pytest.fixture
    def log_path(self, tmp_path, config_path):
        out = tmp_path / "out"
        run_cli("run", "--config", config_path, "--out-dir", out)
        return out / "log.jsonl"

    def test_rate_prints_a_table(self, log_path, capsys):
        assert run_cli("rate", log_path) == 0
        stdout = capsys.readouterr().out
        assert "tiny-g00" in stdout and "rating" in stdout

    def test_rate_is_deterministic(self, log_path, capsys):
        run_cli("rate", log_path)
        first = capsys.readouterr().out
        run_cli("rate", log_path)
        assert capsys.readouterr().out == first

    def test_outcome_mode_changes_the_result(self, log_path, capsys):
        run_cli("rate", log_path)
        per_sample = capsys.readouterr().out
        run_cli("rate", log_path, "--outcome-mode", "per-match")
        per_match = capsys.readouterr().out
        assert per_sample != per_match

    def test_rate_can_write_artifacts(self, log_path, tmp_path):
        out = tmp_path / "rated"
        assert run_cli("rate", log_path, "--out-dir", out) == 0
        assert (out / "summary.csv").exists()

    def test_header_only_log_warns_and_succeeds(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        store.LogWriter(path, store.LogHeader("feed", 1)).close()
        assert run_cli("rate", path) == 0
        assert "no match records" in capsys.readouterr().err

    def test_corrupt_line_fails_strict_mode(self, log_path, capsys):
        with open(log_path, "a") as fh:
            fh.write("{broken\n")
        assert run_cli("rate", log_path, "--strict") == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_line_warns_in_lenient_mode(self, log_path, capsys):
        with open(log_path, "a") as fh:
            fh.write("{broken\n")
        assert run_cli("rate", log_path) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "tiny-g00" in captured.out

    def test_missing_log_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("rate", tmp_path / "absent.jsonl") == 2


@pytest.fixture
def population(tmp_path):
    """A 3-checkpoint run's config and log, plus a fragment that adds the
    missing checkpoint."""
    payload = tiny_config_payload()
    payload["players"][0]["checkpoints"] = [0, 1, 3]
    config = write_yaml(tmp_path / "population.cfg", payload)
    out = tmp_path / "out"
    run_cli("run", "--config", config, "--out-dir", out)
    fragment_entry = dict(payload["players"][0])
    fragment_entry["checkpoints"] = [2]
    fragment = write_yaml(tmp_path / "fragment.cfg",
                          {"players": [fragment_entry]})
    return config, out / "log.jsonl", fragment


class TestExtend:
    def test_extend_plays_new_against_old_only(self, population, capsys):
        config, log, fragment = population
        _, before, _ = store.read_log(log)
        old_bytes = log.read_bytes()
        assert run_cli("extend", log, "--config", config, "--add",
                       fragment) == 0
        stdout = capsys.readouterr().out
        assert "appended 6 records" in stdout
        assert log.read_bytes().startswith(old_bytes)
        _, after, _ = store.read_log(log)
        new = after[len(before):]
        assert len(new) == 6
        pairs = {(r.generator_id, r.discriminator_id) for r in new}
        assert ("tiny-g02", "tiny-d02") not in pairs  # no new-vs-new
        assert all("tiny-g02" in pair or "tiny-d02" in pair
                   for pair in pairs)

    def test_strict_failure_leaves_the_log_untouched(self, population,
                                                     monkeypatch, capsys):
        config, log, fragment = population
        before = log.read_bytes()
        real_play = tn.play_match

        def flaky(*args, **kwargs):
            if kwargs["discriminator_id"] == "tiny-d02":
                raise tn.MatchError("judge crashed")
            return real_play(*args, **kwargs)

        monkeypatch.setattr(tn, "play_match", flaky)
        assert run_cli("extend", log, "--config", config, "--add",
                       fragment, "--strict") == 1
        assert "judge crashed" in capsys.readouterr().err
        assert log.read_bytes() == before

    def test_hash_mismatch_refuses_without_force(self, population, tmp_path,
                                                 capsys):
        config, log, fragment = population
        drifted = write_yaml(tmp_path / "drifted.cfg",
                             {**load_config(config).raw, "seed": 99})
        assert run_cli("extend", log, "--config", drifted, "--add",
                       fragment) == 2
        assert "--force" in capsys.readouterr().err
        assert run_cli("extend", log, "--config", drifted, "--add",
                       fragment, "--force") == 0
        assert "config hash mismatch" in capsys.readouterr().err

    def test_fragment_without_new_players_is_an_error(self, population,
                                                      tmp_path, capsys):
        config, log, _ = population
        entry = dict(load_config(config).raw["players"][0])
        entry.update(generators=False, discriminators="none")
        empty = write_yaml(tmp_path / "empty.cfg", {"players": [entry]})
        assert run_cli("extend", log, "--config", config, "--add",
                       empty) == 2
        assert "no new players" in capsys.readouterr().err

    def test_fragment_duplicating_ids_is_an_error(self, population, tmp_path,
                                                  capsys):
        config, log, _ = population
        entry = dict(load_config(config).raw["players"][0])  # same ids
        duplicate = write_yaml(tmp_path / "dup.cfg", {"players": [entry]})
        assert run_cli("extend", log, "--config", config, "--add",
                       duplicate) == 2
        assert "duplicate player id" in capsys.readouterr().err


class TestRatingFlags:
    @pytest.mark.parametrize("command", ["rate", "extend"])
    @pytest.mark.parametrize("flag,value,key", [
        ("--tau", "0", "tau"), ("--tau", "-1", "tau"),
        ("--passes", "0", "max_passes")])
    def test_invalid_value_is_a_usage_error(self, population, command, flag,
                                            value, key, capsys):
        config, log, fragment = population
        before = log.read_bytes()
        argv = [command, log, flag, value]
        if command == "extend":
            argv += ["--config", config, "--add", fragment]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert log.read_bytes() == before


class TestSimulate:
    def test_unknown_experiment_is_a_usage_error(self, capsys):
        assert run_cli("simulate", "nonesuch") == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_exit_code_tracks_the_checks(self, monkeypatch, capsys):
        from arena import cli as climod

        def fake(name, seed, out_dir):
            return {"experiment": name,
                    "checks": {"holds": name == "within"}}

        monkeypatch.setattr(climod.experiments, "simulate", fake)
        assert run_cli("simulate", "within") == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["checks"]["holds"] is True
        assert run_cli("simulate", "banded") == 1


class TestScheduleCommand:
    def test_shows_the_shape_without_running(self, config_path, capsys):
        assert run_cli("schedule", "--config", config_path) == 0
        stdout = capsys.readouterr().out
        assert "kind: round_robin" in stdout
        assert "players: 4 generators, 4 discriminators" in stdout
        assert "matches: 16 (100% of full round robin)" in stdout
        assert "components: 1" in stdout

    def test_band_preview_and_listing(self, config_path, capsys):
        assert run_cli("schedule", "--config", config_path, "--schedule",
                       "band", "--band-width", "0", "--list") == 0
        stdout = capsys.readouterr().out
        assert "band_width: 0" in stdout
        assert "tiny-g00 vs tiny-d00 repeat 0" in stdout

    def test_band_width_without_band_kind_is_a_usage_error(self, config_path,
                                                          capsys):
        assert run_cli("schedule", "--config", config_path, "--band-width",
                       4) == 2
        captured = capsys.readouterr()
        assert "--schedule band" in captured.err
        assert "kind:" not in captured.out

    def test_role_violations_exit_nonzero(self, tmp_path, capsys):
        payload = tiny_config_payload(
            schedule={"kind": "explicit",
                      "matches": [["tiny-d00", "tiny-g00"]]})
        path = write_yaml(tmp_path / "bad.cfg", payload)
        assert run_cli("schedule", "--config", path) == 2
        assert "error:" in capsys.readouterr().err


class TestFlagPlumbing:
    def test_rating_flags_reach_the_config(self, config_path):
        args = build_parser().parse_args(
            ["run", "--config", str(config_path), "--passes", "5", "--tau",
             "0.9", "--outcome-mode", "per-match"])
        config = _load_with_overrides(args)
        assert config.rating.max_passes == 5
        assert config.rating.tau == 0.9
        assert config.rating.outcome_mode == "per-match"

    def test_schedule_flags_rewrite_the_schedule(self, config_path):
        args = build_parser().parse_args(
            ["run", "--config", str(config_path), "--schedule", "band",
             "--band-width", "2"])
        config = _load_with_overrides(args)
        assert config.schedule["kind"] == "band"
        assert config.schedule["band_width"] == 2


def test_importing_the_cli_loads_no_scipy():
    # scipy is only a test-time reference; the runtime needs numpy alone.
    src = str(Path(arena.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, arena.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
