"""End-to-end command-line tests, run in process via main()."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
import yaml

from arena import cli
from arena import config as cfgmod
from arena import store
from arena import summarize as sm
from arena import tournament as tn
from arena.cli import build_parser, _with_overrides, main
from arena.config import config_hash, load_config

from conftest import (fresh_python, round_robin_table, tiny_config_payload,
                      write_yaml)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def config_path(tmp_path):
    return write_yaml(tmp_path / "run.cfg", tiny_config_payload())


@pytest.fixture
def log_path(tmp_path, config_path):
    out = tmp_path / "out"
    run_cli("run", "--config", config_path, "--out-dir", out)
    return out / "log.jsonl"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# An external generator that answers one request and exits, and a player
# whose command cannot be started.
CRASHING_GENERATOR = {
    "kind": "external", "id": "z-ext", "role": "generator",
    "command": [sys.executable, "-m", "arena.ref_player", "--role",
                "generator", "--dim", "3", "--crash-after", "1"]}
BROKEN_DISCRIMINATOR = {"kind": "external", "id": "ext-broken",
                        "role": "discriminator",
                        "command": ["/nonexistent/player"]}


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
        # Once, on stderr: the table on stdout used to repeat it.
        assert [line for line in captured.err.splitlines()
                if line.startswith("warning:")] == [
            f"warning: {sm.WIN_RATE_WARNING}"]
        assert "warning:" not in captured.out
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
        assert "its 4 matches are skipped: player-start: cannot spawn" in err
        assert "NoneType" not in err
        _, records, _ = store.read_log(str(out / "log.jsonl"))
        # 4 generators x 3 in-process discriminators; the 4 matches
        # against ext are skipped.
        assert len(records) == 12
        assert "ext" not in {r.discriminator_id for r in records}
        assert run_cli("run", "--config", path, "--out-dir",
                       tmp_path / "strict", "--strict") == 1
        assert "error: player-start: cannot spawn" in capsys.readouterr().err


    def test_a_crashing_external_generator_costs_only_its_matches(
            self, tmp_path):
        # The external generator answers one request and exits. Its id
        # sorts last, so its matches close the schedule, after more than a
        # full window of the in-process players' matches.
        repeats = tn.WINDOW // 16 + 1
        trajectory = tiny_config_payload()["players"][0]
        path = write_yaml(tmp_path / "crash.cfg", tiny_config_payload(
            schedule={"kind": "round_robin", "repeats": repeats},
            players=[trajectory, CRASHING_GENERATOR]))
        lenient, strict = tmp_path / "lenient", tmp_path / "strict"
        result = fresh_python("-m", "arena.cli", "run", "--config", path,
                              "--out-dir", lenient)
        assert result.returncode == 0, result.stderr
        skipped = [line for line in result.stderr.splitlines()
                   if "skipping match" in line]
        assert len(skipped) == 4 * repeats - 1
        # Every match that meets the dead child fails with the same text.
        assert all(line.startswith("warning: skipping match z-ext vs tiny-d0")
                   and line.endswith("): player-error: ExternError: generate: "
                                     "player process exited (code 1)")
                   for line in skipped)
        _, records, _ = store.read_log(lenient / "log.jsonl")
        assert len(records) == 5 * 4 * repeats - len(skipped)
        assert sum(r.generator_id == "z-ext" for r in records) == 1

        result = fresh_python("-m", "arena.cli", "run", "--config", path,
                              "--out-dir", strict, "--strict")
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == (
            "error: player-error: ExternError: generate: player process "
            "exited (code 1)")
        # The strict log holds the schedule-order prefix of the whole
        # windows before the first failure: z-ext's second match.
        first_failure = 4 * 4 * repeats + 1
        done = first_failure // tn.WINDOW * tn.WINDOW
        assert done > 0
        lines = (strict / "log.jsonl").read_text().splitlines()
        assert lines == (lenient / "log.jsonl").read_text().splitlines()[
            :1 + done]

    def test_skipped_matches_are_warnings_even_where_logging_is_set_up(
            self, tmp_path, capsys, monkeypatch):
        # A host that configures logging (here every record goes to a
        # NullHandler) must still see each skipped match on stderr.
        monkeypatch.setattr(logging.root, "handlers",
                            [logging.NullHandler()])
        trajectory = tiny_config_payload()["players"][0]
        path = write_yaml(tmp_path / "crash.cfg", tiny_config_payload(
            schedule={"kind": "round_robin", "repeats": 2},
            players=[trajectory, CRASHING_GENERATOR]))
        assert run_cli("run", "--config", path, "--out-dir",
                       tmp_path / "out") == 0
        skipped = [line for line in capsys.readouterr().err.splitlines()
                   if "skipping match" in line]
        assert [line.partition(": player-error: ")[0] for line in skipped] \
            == [f"warning: skipping match z-ext vs tiny-d{d:02d} (repeat "
                f"{r})" for d in range(4) for r in range(2)][1:]
        assert all(line.partition(": player-error: ")[2].startswith(
            "ExternError: generate: player process exited")
            for line in skipped)

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["lenient", "strict"])
    def test_an_external_player_with_no_match_is_not_started(
            self, tmp_path, capsys, strict):
        players = [*tiny_config_payload()["players"], BROKEN_DISCRIMINATOR]
        path = write_yaml(tmp_path / "unused.cfg", tiny_config_payload(
            players=players, schedule={"kind": "explicit", "matches": [
                ["tiny-g00", "tiny-d00"], ["tiny-g01", "tiny-d01"]]}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--out-dir", out,
                       *["--strict"] * strict) == 0
        assert "ext-broken" not in capsys.readouterr().err
        _, records, _ = store.read_log(out / "log.jsonl")
        assert len(records) == 2


class TestRate:
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

    @pytest.mark.parametrize("command", ["rate", "run"])
    def test_a_reader_that_has_gone_ends_the_output_not_the_command(
            self, command, log_path, config_path, tmp_path, monkeypatch,
            capsys):
        # As in ``arena rate LOG | head -1`` once head has exited: every
        # write to stdout fails. The lines are dropped, the command still
        # writes its files and exits with its usual code, with no traceback.
        class Gone(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Gone())
        out = tmp_path / "again"
        source = ["rate", log_path] if command == "rate" else [
            "run", "--config", config_path]
        assert run_cli(*source, "--out-dir", out) == 0
        assert (out / "summary.csv").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_a_closed_stdout_pipe_exits_0_without_a_traceback(self,
                                                              log_path):
        # The reader end of the pipe is closed before the command starts, so
        # the flush of its buffered table at exit meets a broken pipe.
        reader, writer = os.pipe()
        os.close(reader)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "arena.cli", "rate", str(log_path)],
                stdout=writer, stderr=subprocess.PIPE, text=True, env=dict(
                    os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
        finally:
            os.close(writer)
        assert (result.returncode, result.stderr) == (0, "")

    def test_header_only_log_warns_and_succeeds(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        store.LogWriter(path, store.LogHeader("feed", 1)).close()
        assert run_cli("rate", path) == 0
        assert "no match records" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", ['"config_hash":"feed","seed":"abc"',
                                        '"config_hash":5,"seed":1.5'])
    def test_mistyped_header_is_a_corrupt_log(self, tmp_path, capsys,
                                              fields):
        path = tmp_path / "log.jsonl"
        path.write_text('{%s,"format":"arena-log/1"}\n' % fields)
        assert run_cli("rate", path) == 1
        err = capsys.readouterr().err
        assert f"{path}:1: log header field" in err
        assert "is not" in err

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

    @pytest.mark.parametrize("strict", [False, True])
    def test_a_line_that_is_not_utf8_is_a_corrupt_line(self, log_path,
                                                       capsys, strict):
        lines = log_path.read_bytes().splitlines(keepends=True)
        assert b'"generator_id":"tiny-g' in lines[3]
        lines[3] = lines[3].replace(b'"generator_id":"tiny-g',
                                    b'"generator_id":"tiny\xff', 1)
        log_path.write_bytes(b"".join(lines))
        reason = f"{log_path}:4: byte 0xff at character "
        if strict:
            assert run_cli("rate", log_path, "--strict") == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {reason}")
            assert err.endswith(" is not UTF-8\n")
            return
        assert run_cli("rate", log_path) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith(f"warning: {reason}")
        assert "tiny-g00" in captured.out
        _, records, problems = store.read_log(log_path, strict=False)
        assert len(records) == 15 and len(problems) == 1

    def test_records_without_judged_samples_leave_missing_cells(
            self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        with closing(store.LogWriter(path,
                                     store.LogHeader("feed", 1))) as sink:
            sink([tn.MatchRecord("g1", "d1", 8, 5, 8, 3, seed=1)])
            sink([tn.MatchRecord("g1", "d2", 0, 0, 0, 0, seed=2)])
            sink([tn.MatchRecord("g2", "d1", 0, 0, 0, 0, seed=3)])
        out = tmp_path / "rated"
        assert run_cli("rate", path, "--out-dir", out) == 0
        assert "Traceback" not in capsys.readouterr().err
        heatmap = (out / "heatmap.csv").read_text().splitlines()
        assert heatmap == ["discriminator\\generator,g1,g2",
                           "d1,0.500000,", "d2,,"]
        summary = {row.split(",")[0]: row.split(",")
                   for row in (out / "summary.csv").read_text().splitlines()}
        assert summary["g1"][7] == "0.500000"
        assert summary["g2"][7] == ""
        assert summary["g2"][4] == "1500.000000"  # no games, prior rating

    def test_impossible_counts_are_corrupt_lines(self, log_path, capsys):
        run_cli("rate", log_path)
        clean = capsys.readouterr().out
        payload = json.loads(log_path.read_text().splitlines()[1])
        payload.update(fake_wins=90, n_fake=4, real_wins=-7, seed=-1)
        with open(log_path, "a") as fh:
            fh.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
        assert run_cli("rate", log_path, "--strict") == 1
        assert ":18: record real_wins -7 is outside" in \
            capsys.readouterr().err
        assert run_cli("rate", log_path) == 0
        captured = capsys.readouterr()
        assert ":18: record real_wins -7 is outside" in captured.err
        assert captured.out == clean

    @pytest.mark.parametrize("records, both", [
        ([("g1", "d1"), ("d1", "g2")], "d1"),   # roles swap across records
        ([("g1", "d1"), ("x", "x")], "x"),      # one record, both sides
    ], ids=["across-records", "within-a-record"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_an_id_in_both_roles_is_a_corrupt_log(self, tmp_path, capsys,
                                                  records, both, strict):
        path = tmp_path / "log.jsonl"
        with closing(store.LogWriter(path,
                                     store.LogHeader("feed", 1))) as sink:
            for seed, (gen_id, disc_id) in enumerate(records):
                sink([tn.MatchRecord(gen_id, disc_id, 8, 5, 8, 3, seed=seed)])
        argv = ["rate", path, "--out-dir", tmp_path / "rated"]
        assert run_cli(*argv, *(["--strict"] if strict else [])) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: player {both!r} is both a generator and a "
            "discriminator\n")
        assert not (tmp_path / "rated").exists()

    def test_missing_log_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("rate", tmp_path / "absent.jsonl") == 2

    def test_directory_log_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("rate", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: ")
        assert "directory" in err and "Traceback" not in err


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


class Crashing:
    """A player whose every sample and judge raises, until ``on`` is
    cleared; then it plays as ``player``."""

    def __init__(self):
        self.on = True
        self.player = None

    def _check(self):
        if self.on:
            raise RuntimeError("crashed")

    def sample(self, *args):
        self._check()
        return self.player.sample(*args)

    def judge(self, *args):
        self._check()
        return self.player.judge(*args)

    def judge_many(self, *args):
        self._check()
        return self.player.judge_many(*args)


def crash_in_extend(monkeypatch, pid: str, crashing: Crashing) -> Crashing:
    """Make ``crashing`` stand in for player ``pid`` of every build that
    holds the fragment's players."""
    real_build = cfgmod.build_players

    def build(*args, **kwargs):
        built = real_build(*args, **kwargs)
        if "tiny-d02" in built.players:
            crashing.player = built.players[pid]
            built.players[pid] = crashing
        return built

    monkeypatch.setattr(cfgmod, "build_players", build)
    return crashing


class TestExtend:
    def test_extend_plays_new_against_old_only(self, population, capsys):
        config, log, fragment = population
        _, before, _ = store.read_log(log)
        old_bytes = log.read_bytes()
        assert run_cli("extend", log, "--add",
                       fragment) == 0
        stdout = capsys.readouterr().out
        assert "appended 6 records" in stdout
        assert log.read_bytes().startswith(old_bytes)
        _, after, _ = store.read_log(log)
        new = list(after)[len(before):]
        assert len(new) == 6
        pairs = {(r.generator_id, r.discriminator_id) for r in new}
        assert ("tiny-g02", "tiny-d02") not in pairs  # no new-vs-new
        assert all("tiny-g02" in pair or "tiny-d02" in pair
                   for pair in pairs)

    def test_an_extended_log_warns_that_its_win_rates_are_not_comparable(
            self, population, capsys):
        # The run was a round robin, but extend plays no new-vs-new pair
        # (tiny-g02 vs tiny-d02), so the extend and a later rate of the
        # extended log warn, once and on stderr.
        config, log, fragment = population
        for argv in (["extend", log, "--add", fragment], ["rate", log]):
            capsys.readouterr()
            assert run_cli(*argv) == 0
            captured = capsys.readouterr()
            assert [line for line in captured.err.splitlines()
                    if line.startswith("warning:")] == [
                f"warning: {sm.WIN_RATE_WARNING}"], argv
            assert "warning:" not in captured.out

    def test_extends_a_log_whose_last_line_has_no_newline(self, population,
                                                           capsys):
        config, log, fragment = population
        log.write_bytes(log.read_bytes().rstrip(b"\n"))
        _, before, _ = store.read_log(log, strict=True)
        assert run_cli("extend", log, "--add",
                       fragment) == 0
        _, after, _ = store.read_log(log, strict=True)
        assert list(after)[:len(before)] == list(before)
        assert len(after) == len(before) + 6

    def test_strict_failure_leaves_the_log_untouched(self, population,
                                                     monkeypatch, capsys):
        # Every new match plays in one window, so the failure stops the
        # extend before any record is written.
        config, log, fragment = population
        before = log.read_bytes()
        crash_in_extend(monkeypatch, "tiny-d02", Crashing())
        assert run_cli("extend", log, "--add",
                       fragment, "--strict") == 1
        assert ("error: player-error: RuntimeError: crashed"
                in capsys.readouterr().err)
        assert log.read_bytes() == before

    def test_a_second_run_appends_nothing(self, population, capsys):
        config, log, fragment = population
        argv = ["extend", log, "--add", fragment]
        assert run_cli(*argv) == 0
        extended = log.read_bytes()
        capsys.readouterr()
        assert run_cli(*argv) == 0
        assert f"appended 0 records to {log}" in capsys.readouterr().out
        assert log.read_bytes() == extended

    def test_a_stopped_strict_extend_finishes_when_run_again(
            self, population, monkeypatch, tmp_path, capsys):
        # Six new matches in windows of two: (g02 d00, g02 d01),
        # (g02 d03, g00 d02), (g01 d02, g03 d02). Old generator g03
        # plays only in the third. The first window's write starts with
        # the fragment's players line.
        config, log, fragment = population
        whole = tmp_path / "whole.jsonl"
        whole.write_bytes(log.read_bytes())
        before = len(log.read_bytes().splitlines())
        monkeypatch.setattr(tn, "WINDOW", 2)
        assert run_cli("extend", whole, "--add",
                       fragment) == 0
        crashing = crash_in_extend(monkeypatch, "tiny-g03", Crashing())
        assert run_cli("extend", log, "--add",
                       fragment, "--strict") == 1
        assert len(log.read_bytes().splitlines()) == before + 5
        assert log.read_bytes() == b"".join(
            whole.read_bytes().splitlines(keepends=True)[:before + 5])
        crashing.on = False
        capsys.readouterr()
        assert run_cli("extend", log, "--add",
                       fragment, "--strict") == 0
        assert "appended 2 records" in capsys.readouterr().out
        assert log.read_bytes() == whole.read_bytes()

    def test_a_rerun_plays_exactly_the_skipped_matches(
            self, population, monkeypatch, capsys):
        config, log, fragment = population
        _, before, _ = store.read_log(log)
        crashing = crash_in_extend(monkeypatch, "tiny-d02", Crashing())
        assert run_cli("extend", log, "--add",
                       fragment) == 0
        assert capsys.readouterr().err.count("skipping match") == 3
        _, first, _ = store.read_log(log)
        crashing.on = False
        assert run_cli("extend", log, "--add",
                       fragment) == 0
        assert "appended 3 records" in capsys.readouterr().out
        _, second, _ = store.read_log(log)
        rerun = list(second)[len(first):]
        assert sorted((r.generator_id, r.discriminator_id) for r in rerun) \
            == [(f"tiny-g0{i}", "tiny-d02") for i in (0, 1, 3)]
        # The header, one players line and every record once.
        lines = log.read_bytes().splitlines()
        assert len(lines) == len(set(lines)) == 2 + len(before) + 6

    def test_an_external_player_with_no_new_match_is_not_started(
            self, tmp_path, capsys):
        # The new discriminator plays the old generators only, so the old
        # external discriminator has no match to play.
        players = [*tiny_config_payload()["players"], BROKEN_DISCRIMINATOR]
        config = write_yaml(tmp_path / "unused.cfg", tiny_config_payload(
            players=players, schedule={"kind": "explicit", "matches": [
                ["tiny-g00", "tiny-d00"], ["tiny-g01", "tiny-d01"]]}))
        assert run_cli("run", "--config", config, "--out-dir",
                       tmp_path / "out") == 0
        fragment = write_yaml(tmp_path / "fragment.cfg", {"players": [
            {"kind": "constant", "id": "half", "value": 0.5}]})
        log = tmp_path / "out" / "log.jsonl"
        capsys.readouterr()
        assert run_cli("extend", log, "--add", fragment,
                       "--strict") == 0
        captured = capsys.readouterr()
        assert "ext-broken" not in captured.err
        assert "appended 4 records" in captured.out

    def test_a_line_that_is_not_utf8_stops_it_naming_the_line(
            self, population, capsys):
        config, log, fragment = population
        lines = log.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"tiny-", b"tiny\xff", 1)
        log.write_bytes(b"".join(lines))
        before = log.read_bytes()
        assert run_cli("extend", log, "--add",
                       fragment) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}:3: byte 0xff at character ")
        assert log.read_bytes() == before

    def test_config_is_a_usage_error(self, population, capsys):
        # The log's header holds the config, so extend takes none.
        config, log, fragment = population
        before = log.read_bytes()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("extend", log, "--config", config, "--add", fragment)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert log.read_bytes() == before

    def test_a_v1_log_is_refused_naming_its_format(self, population,
                                                   capsys):
        config, log, fragment = population
        header, _, _ = store.read_log(log)
        body = log.read_bytes().split(b"\n", 1)[1]
        log.write_bytes(store.header_line(
            dataclasses.replace(header, config=None)).encode() + b"\n" + body)
        before = log.read_bytes()
        assert b'"format":"arena-log/1"' in before.split(b"\n")[0]
        assert run_cli("extend", log, "--add", fragment) == 2
        assert capsys.readouterr().err == (
            f"error: {log} is an arena-log/1 log, which names no players; "
            "extend needs arena-log/2\n")
        assert log.read_bytes() == before

    @pytest.mark.parametrize("command", ["rate", "extend"])
    def test_a_header_config_that_fails_its_checks_is_a_corrupt_log(
            self, population, command, capsys):
        config, log, fragment = population
        first, body = log.read_text().split("\n", 1)
        payload = json.loads(first)
        payload["config"]["batch_size"] = 0
        log.write_text(json.dumps(payload) + "\n" + body)
        before = log.read_bytes()
        argv = [command, log] + (["--add", fragment] if command == "extend"
                                 else [])
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {log}:1: at batch_size: 0 is less than the minimum")
        assert log.read_bytes() == before

    @pytest.mark.parametrize("header", [
        {"engine": 1}, {}, {"engine": 3}])
    def test_engine_mismatch_refuses_and_leaves_the_log(self, population,
                                                        header, capsys):
        config, log, fragment = population
        first, body = log.read_text().split("\n", 1)
        payload = {k: v for k, v in json.loads(first).items()
                   if k != "engine"}
        log.write_text(json.dumps({**payload, **header}) + "\n" + body)
        engine = header.get("engine", 1)
        before = log.read_bytes()
        assert run_cli("extend", log, "--add",
                       fragment) == 2
        err = capsys.readouterr().err
        assert f"produced under engine {engine}, but this arena plays " \
            f"engine {tn.ENGINE}\n" in err
        assert log.read_bytes() == before

    def test_force_is_a_usage_error(self, population, capsys):
        config, log, fragment = population
        before = log.read_bytes()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("extend", log, "--add", fragment,
                    "--force")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err
        assert log.read_bytes() == before

    def test_fragment_without_new_players_is_an_error(self, population,
                                                      tmp_path, capsys):
        config, log, _ = population
        entry = dict(load_config(config).raw["players"][0])
        entry.update(generators=False, discriminators="none")
        empty = write_yaml(tmp_path / "empty.cfg", {"players": [entry]})
        assert run_cli("extend", log, "--add",
                       empty) == 2
        assert "no new players" in capsys.readouterr().err

    def test_fragment_duplicating_ids_is_an_error(self, population, tmp_path,
                                                  capsys):
        config, log, _ = population
        entry = dict(load_config(config).raw["players"][0])  # same ids
        duplicate = write_yaml(tmp_path / "dup.cfg", {"players": [entry]})
        assert run_cli("extend", log, "--add",
                       duplicate) == 2
        assert "duplicate player id" in capsys.readouterr().err


    def test_chained_extends_meet(self, tmp_path, capsys):
        # Checkpoint 21, then 23: each plays the 20 x 20 population and
        # every player added before it, so g23 meets d21 and g21 meets d23.
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "population.cfg",
                       "--out-dir", out) == 0
        log = out / "log.jsonl"
        fragments = {k: write_yaml(tmp_path / f"add_{k}.cfg", {"players": [
            dict(yaml.safe_load((CONFIGS / "add_pair.cfg").read_text())
                 ["players"][0], checkpoints=[k])]}) for k in (21, 23)}
        for k, appended in ((21, 40), (23, 42)):
            capsys.readouterr()
            assert run_cli("extend", log, "--add", fragments[k]) == 0
            assert f"appended {appended} records" in capsys.readouterr().out
        header, records, _ = store.read_log(log)
        pairs = {(r.generator_id, r.discriminator_id) for r in records}
        assert len(records) == len(pairs) == 482
        assert {("traj-g23", "traj-d21"), ("traj-g21", "traj-d23")} <= pairs
        assert [[entry["checkpoints"] for entry in line]
                for line in header.players] == [[[21]], [[23]]]
        extended = log.read_bytes()
        for k in (21, 23):
            capsys.readouterr()
            assert run_cli("extend", log, "--add", fragments[k]) == 0
            assert "appended 0 records" in capsys.readouterr().out
            assert log.read_bytes() == extended

    def test_each_new_pair_plays_every_repeat(self, tmp_path, capsys):
        # Under repeats: 2 a stored pair has two records, and so must each
        # new pair, or it would weigh half as much in the rating.
        payload = tiny_config_payload(schedule={"kind": "round_robin",
                                                "repeats": 2})
        payload["players"][0]["checkpoints"] = [0, 1, 3]
        config = write_yaml(tmp_path / "population.cfg", payload)
        assert run_cli("run", "--config", config, "--out-dir",
                       tmp_path / "out") == 0
        fragment = write_yaml(tmp_path / "fragment.cfg", {"players": [
            dict(payload["players"][0], checkpoints=[2])]})
        log = tmp_path / "out" / "log.jsonl"
        _, before, _ = store.read_log(log)
        capsys.readouterr()
        assert run_cli("extend", log, "--add", fragment) == 0
        assert "appended 12 records" in capsys.readouterr().out
        _, after, _ = store.read_log(log)
        new = list(after)[len(before):]
        assert sorted(r.seed for r in new) == sorted(
            tn.match_seed(5, r.generator_id, r.discriminator_id, repeat)
            for r in new[::2] for repeat in (0, 1))


def rated_columns(summary_csv) -> list[tuple[str, ...]]:
    """The id, rating, deviation, volatility and win_rate of every row."""
    with open(summary_csv, newline="") as fh:
        return [(row["id"], row["rating"], row["deviation"],
                 row["volatility"], row["win_rate"])
                for row in csv.DictReader(fh)]


class TestRerating:
    def test_rate_reproduces_run_and_extend(self, population, tmp_path):
        config, log, fragment = population
        out = log.parent
        assert run_cli("rate", log, "--out-dir", tmp_path / "rated") == 0
        assert (tmp_path / "rated" / "summary.csv").read_bytes() == \
            (out / "summary.csv").read_bytes()
        assert run_cli("extend", log, "--add", fragment,
                       "--out-dir", tmp_path / "extended") == 0
        assert run_cli("rate", log, "--out-dir",
                       tmp_path / "rated-extended") == 0
        extended = rated_columns(tmp_path / "extended" / "summary.csv")
        assert extended == rated_columns(
            tmp_path / "rated-extended" / "summary.csv")
        assert len(extended) == len(rated_columns(out / "summary.csv")) + 2

    def test_rate_and_extend_warn_as_the_run_did(self, population,
                                                 capsys):
        # A band run warns that its win rates are not comparable; the
        # re-rated log, the extend of it and the extended log must too,
        # once and on stderr. The header names the schedule's kind.
        config, log, fragment = population
        band = log.parent.parent / "band"
        assert run_cli("run", "--config", config, "--out-dir", band,
                       "--schedule", "band", "--band-width", 1) == 0
        for argv in (["rate", band / "log.jsonl"],
                     ["extend", band / "log.jsonl", "--add", fragment],
                     ["rate", band / "log.jsonl"]):
            capsys.readouterr()
            assert run_cli(*argv) == 0
            captured = capsys.readouterr()
            assert [line for line in captured.err.splitlines()
                    if line.startswith("warning:")] == [
                f"warning: {sm.WIN_RATE_WARNING}"], argv
            assert "warning:" not in captured.out

    def test_round_robin_and_v1_logs_rate_without_the_warning(
            self, population, capsys):
        # An arena-log/1 header does not say how its matches were
        # scheduled, so a v1 log stays silent as it always was. An
        # extended round robin warns; TestExtend checks that.
        config, log, fragment = population
        band = log.parent.parent / "band"
        assert run_cli("run", "--config", config, "--out-dir", band,
                       "--schedule", "band", "--band-width", 1) == 0
        v1 = band / "log.jsonl"
        header, _, _ = store.read_log(v1)
        v1.write_bytes(store.header_line(dataclasses.replace(
            header, config=None)).encode() + b"\n"
            + v1.read_bytes().split(b"\n", 1)[1])
        capsys.readouterr()
        for argv in (["rate", log], ["rate", v1]):
            assert run_cli(*argv) == 0
            assert "warning:" not in capsys.readouterr().err, argv

    def test_rate_takes_the_rating_settings_from_the_header(self, tmp_path,
                                                           capsys):
        # A per-match run re-rated per sample moved within-d00 from
        # 1476.74 (deviation 80.53) to 1475.35 (7.08).
        payload = yaml.safe_load(
            (CONFIGS / "within_trajectory.cfg").read_text())
        config = write_yaml(tmp_path / "run.cfg", {
            **payload, "rating": {"outcome_mode": "per-match"}})
        assert run_cli("run", "--config", config, "--out-dir",
                       tmp_path / "out") == 0
        table = capsys.readouterr().out.rsplit("\nlog: ", 1)[0] + "\n"
        row = next(line for line in table.splitlines()
                   if line.startswith("within-d00 "))
        assert row.split()[:5] == ["within-d00", "discriminator", "0",
                                   "1476.74", "80.53"]
        assert run_cli("rate", tmp_path / "out" / "log.jsonl") == 0
        assert capsys.readouterr().out == table
        # A flag still overrides the header's setting.
        assert run_cli("rate", tmp_path / "out" / "log.jsonl",
                       "--outcome-mode", "per-sample") == 0
        assert capsys.readouterr().out != table

    def test_rate_writes_the_run_artifacts(self, tmp_path):
        # Iteration and experiment come from the header's entries, so the
        # curves and the heatmap's checkpoint order are the run's too.
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIGS / "population.cfg",
                       "--out-dir", out) == 0
        rated = tmp_path / "rated"
        assert run_cli("rate", out / "log.jsonl", "--out-dir", rated) == 0
        names = ["summary.csv", "heatmap.csv", "heatmap.svg", "curves.svg"]
        assert sorted(p.name for p in rated.iterdir()) == sorted(names)
        for name in names:
            assert (rated / name).read_bytes() == (out / name).read_bytes()

    def test_extend_reports_a_large_table_in_bounded_memory(
            self, population, monkeypatch, capsys):
        # A stored 316x316 round robin plus one new generator's 316
        # records, from extend's join of the two through the printed
        # report. Joining the columns peaks near 186 traced bytes a
        # record; expanding both into MatchRecord objects and packing them
        # back into a table peaked at 363.
        config, log, fragment = population
        header, _, _ = store.read_log(log)
        stored = round_robin_table(316)
        rng = np.random.default_rng(1)
        n = np.full(316, 16)
        new = tn.MatchTable.from_columns(
            ["g-new", *(f"d{i}" for i in range(316))], np.zeros(316, int),
            np.arange(1, 317), n, rng.binomial(n, 0.6), n,
            rng.binomial(n, 0.4), np.zeros(316, np.uint64),
            np.full(316, 0.5))

        class NoWrites:
            def __call__(self, records):
                pass

            def close(self):
                pass

        monkeypatch.setattr(store, "read_log",
                            lambda path, strict=True: (header, stored, []))
        monkeypatch.setattr(cli, "_play", lambda *args: new)
        monkeypatch.setattr(store, "LogWriter",
                            lambda path, players: NoWrites())
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert run_cli("extend", log, "--add",
                           fragment) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert "appended 316 records" in capsys.readouterr().out
        assert peak / (len(stored) + len(new)) <= 256.0


class TestRatingFlags:
    @pytest.mark.parametrize("command", ["rate", "extend"])
    @pytest.mark.parametrize("flag,value,key", [
        ("--tau", "0", "tau"), ("--tau", "-1", "tau"),
        ("--tau", "nan", "tau"), ("--tau", "inf", "tau"),
        ("--passes", "0", "max_passes")])
    def test_invalid_value_is_a_usage_error(self, population, command, flag,
                                            value, key, capsys):
        config, log, fragment = population
        before = log.read_bytes()
        argv = [command, log, flag, value]
        if command == "extend":
            argv += ["--add", fragment]
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
        from arena import experiments

        def fake(name, seed, out_dir):
            return {"experiment": name,
                    "checks": {"holds": name == "within"}}

        monkeypatch.setattr(experiments, "simulate", fake)
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

    @pytest.mark.parametrize("schedule", [
        {"kind": "explicit", "matches": [["tiny-g00", "tiny-d00"]]},
        {"kind": "band", "band_width": 0}], ids=["explicit", "band"])
    def test_the_schedule_flag_leaves_a_band_or_explicit_schedule(
            self, tmp_path, capsys, schedule):
        # It used to keep the old kind's matches or band_width, which
        # round_robin refuses, so the flag exited 2.
        path = write_yaml(tmp_path / "from.cfg",
                          tiny_config_payload(schedule=schedule))
        assert run_cli("schedule", "--config", path, "--schedule",
                       "round_robin") == 0
        stdout = capsys.readouterr().out
        assert "kind: round_robin" in stdout
        assert "matches: 16 (100% of full round robin)" in stdout
        assert run_cli("schedule", "--config", path, "--schedule", "band",
                       "--band-width", "1") == 0
        stdout = capsys.readouterr().out
        assert "kind: band" in stdout and "band_width: 1" in stdout
        # A width given with a kind that is no band is still refused.
        assert run_cli("schedule", "--config", path, "--schedule",
                       "round_robin", "--band-width", "1") == 2
        assert "--schedule band" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "schedule"])
    def test_a_match_scheduled_twice_exits_nonzero(self, tmp_path, capsys,
                                                  command):
        payload = tiny_config_payload(
            schedule={"kind": "explicit",
                      "matches": [["tiny-g00", "tiny-d00", 1],
                                  ["tiny-g00", "tiny-d00", 1]]})
        path = write_yaml(tmp_path / "twice.cfg", payload)
        out = tmp_path / "out"
        extra = ("--out-dir", out) if command == "run" else ("--list",)
        assert run_cli(command, "--config", path, *extra) == 2
        assert "scheduled twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, error", [
        ({"batch_size": 8.0}, "at batch_size: 8.0"),
        ({"schedule": {"kind": "explicit",
                       "matches": [["tiny-g00", "tiny-d00", 1.0]]}},
         "at schedule/matches/0/2: 1.0"),
    ])
    def test_a_float_integer_exits_2_naming_the_key(self, tmp_path, capsys,
                                                    overrides, error):
        path = write_yaml(tmp_path / "float.cfg",
                          tiny_config_payload(**overrides))
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--out-dir", out) == 2
        assert f"{error} is not of type 'integer'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("transform", ["scale_shift", "coordinate_mask",
                                           "impulse"])
    def test_a_removed_transform_exits_2_naming_the_key(self, tmp_path,
                                                        capsys, transform):
        path = write_yaml(tmp_path / "transform.cfg", tiny_config_payload(
            players=[*tiny_config_payload()["players"],
                     {"kind": "transform", "id": "t", "transform": transform,
                      "severity": 3}]))
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--out-dir", out) == 2
        assert (f"at players/1/transform: '{transform}' is not one of "
                "['additive_noise']" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["damping", "default_rating"])
    def test_a_non_finite_number_exits_2_naming_the_key(self, tmp_path,
                                                        capsys, key):
        # Written as YAML `.nan`; it used to rate every player NaN.
        path = write_yaml(tmp_path / "nan.cfg",
                          tiny_config_payload(rating={key: float("nan")}))
        assert ".nan" in Path(path).read_text()
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--out-dir", out) == 2
        assert (f"at rating/{key}: nan is not of type 'number'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("schedule, key", [
        ({"kind": "round_robin", "matches": [["tiny-g00", "x"]]}, "matches"),
        ({"kind": "explicit", "matches": [["tiny-g00", "tiny-d00"]],
          "repeats": 3}, "repeats")])
    def test_a_key_the_schedule_kind_ignores_exits_2_naming_it(
            self, tmp_path, capsys, schedule, key):
        path = write_yaml(tmp_path / "ignored.cfg",
                          tiny_config_payload(schedule=schedule))
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {key} ") and "'explicit'" in err
        assert not out.exists()

    def test_directory_config_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("schedule", "--config", tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path}: ")
        assert "directory" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

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
        config = _with_overrides(load_config(config_path), args, "run")
        assert config.rating.max_passes == 5
        assert config.rating.tau == 0.9
        assert config.rating.outcome_mode == "per-match"

    def test_schedule_flags_rewrite_the_schedule(self, config_path):
        args = build_parser().parse_args(
            ["run", "--config", str(config_path), "--schedule", "band",
             "--band-width", "2"])
        config = _with_overrides(load_config(config_path), args, "run")
        assert config.schedule["kind"] == "band"
        assert config.schedule["band_width"] == 2


def test_importing_the_cli_loads_no_scipy():
    # scipy is only a test-time reference; the runtime needs numpy alone.
    probe = ("import sys, arena.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    result = fresh_python("-c", probe, check=True)
    assert result.stdout.strip() == "[]"


class TestColdStart:
    """Each process loads only what its command uses: the YAML reader only
    where a config is read, the bundled experiments only under simulate,
    and never jsonschema or its dependencies, since configs are checked
    in-repo, nor logging, since every warning is printed to stderr."""

    PROBE = ("import json, sys\n"
             "from arena import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "loaded = sorted(m for m in ('arena.experiments', 'jsonschema',"
             " 'logging', 'yaml')"
             " if m in sys.modules)\n"
             "stack = sorted(m for m in ('attrs', 'referencing', 'rpds')"
             " if m in sys.modules)\n"
             "print(json.dumps([code, loaded, stack]))\n")

    def probe(self, *argv):
        result = fresh_python("-c", self.PROBE, *argv, check=True)
        return json.loads(result.stdout.splitlines()[-1])

    def test_rate_without_flags_loads_no_validator_or_yaml(self, log_path):
        assert self.probe("rate", log_path) == [0, [], []]

    def test_a_rating_flag_is_still_validated(self, log_path):
        # Validated without jsonschema: --tau -1 still exits 2 (below).
        assert self.probe("rate", log_path, "--tau", "0.7") == [0, [], []]

    def test_config_commands_load_no_jsonschema(self, population, tmp_path):
        config, log, fragment = population
        for argv in (["run", "--config", config, "--out-dir", tmp_path / "r"],
                     ["schedule", "--config", config],
                     ["extend", log, "--add", fragment]):
            assert self.probe(*argv) == [0, ["yaml"], []], argv

    def test_an_invalid_rating_flag_still_exits_2(self, log_path):
        result = fresh_python("-m", "arena.cli", "rate", log_path, "--tau",
                              "-1")
        assert result.returncode == 2
        assert "at rating/tau:" in result.stderr and result.stdout == ""

    def test_simulate_runs_the_cli_module_once(self, tmp_path):
        # Run as __main__, cli.py must also be the arena.cli that
        # experiments imports, not a second copy executed beside it.
        result = fresh_python("-X", "importtime", "-m", "arena.cli",
                              "simulate", "within", "--out-dir", tmp_path,
                              check=True)
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in result.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "arena.experiments" in imported
        assert "arena.cli" not in imported

    def test_reference_player_does_not_import_the_engine(self):
        result = fresh_python("-X", "importtime", "-m", "arena.ref_player",
                              "--role", "generator", "--dim", "2",
                              input='{"type": "shutdown"}\n', check=True)
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in result.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "arena.extern" in imported
        assert not imported & {"arena.glicko", "arena.tournament",
                               "jsonschema", "yaml"}

    def test_reference_player_starts_without_subprocess(self):
        # extern loads subprocess, select and threading only where a session
        # is opened, which a child never does, and typing nowhere; it reads
        # replies without a reader thread or a queue. (The interpreter's own
        # start may load threading, and a site-packages .pth file typing, so
        # the probe runs without site and asks what the import added.)
        result = fresh_python(
            "-S", "-c", "import sys\nbefore = set(sys.modules)\n"
            "import arena.ref_player\n"
            "print('subprocess' in sys.modules, sorted(\n"
            "    {'threading', 'queue', 'select', 'typing'}\n"
            "    & (set(sys.modules) - before)))\n",
            check=True)
        assert result.stdout.splitlines()[-1] == "False []"

    def test_reference_discriminator_never_imports_numpy(self):
        result = fresh_python(
            "-X", "importtime", "-m", "arena.ref_player", "--role",
            "discriminator", "--dim", "2",
            # One row, [0.5, 1.0], as protocol 2's base64 float64.
            input='{"type": "judge", "data": "AAAAAAAA4D8AAAAAAADwPw=="}\n'
                  '{"type": "shutdown"}\n', check=True)
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in result.stderr.splitlines()
                    if line.startswith("import time:")}
        assert '"values":[0.5]' in result.stdout
        assert "arena.extern" in imported
        assert not {name for name in imported
                    if name.split(".")[0] == "numpy"}

    def test_the_bulk_parser_loads_on_the_first_body_chunk(self, log_path,
                                                           tmp_path):
        # A header-only log, the benchmark's set-up command, reads no body
        # chunk: the bulk parser is neither compiled nor are its tables and
        # patterns built.
        header_only = tmp_path / "header.jsonl"
        store.LogWriter(header_only, store.LogHeader("feed", 1)).close()
        probe = ("import sys\nfrom arena import cli\n"
                 "code = cli.main(sys.argv[1:])\n"
                 "print(code, 'arena.logscan' in sys.modules)\n")
        for log, loaded in ((header_only, False), (log_path, True)):
            result = fresh_python("-c", probe, "rate", log, check=True)
            assert result.stdout.splitlines()[-1] == f"0 {loaded}", log

    def test_rate_does_not_load_numpy_random(self, log_path, tmp_path):
        # Only play builds random streams, and only play and config hashes
        # use hashlib, whose _hashlib loads OpenSSL: either would cost every
        # re-rating its import time and its memory.
        for argv in ([], ["--out-dir", tmp_path / "rated"]):
            result = fresh_python(
                "-c", "import sys\nfrom arena import cli\n"
                "code = cli.main(sys.argv[1:])\n"
                "print(code, 'numpy.random' in sys.modules,"
                " '_hashlib' in sys.modules)\n",
                "rate", log_path, *argv, check=True)
            assert result.stdout.splitlines()[-1] == "0 False False", argv


def test_benchmark_tracer_still_wraps_every_layer(tmp_path):
    # perfbench/trace_cli.py patches module functions, cli.ExternalPlayer
    # and store.LogWriter by name, so a rename breaks the traced command.
    root = Path(__file__).resolve().parents[1]
    trajectory = dict(tiny_config_payload()["players"][0], n_checkpoints=3)
    config = write_yaml(tmp_path / "traced.cfg", tiny_config_payload(players=[
        trajectory,
        {"kind": "external", "id": "ext", "role": "discriminator",
         "command": [sys.executable, "-m", "arena.ref_player", "--role",
                     "discriminator", "--dim", "3"]}]))
    panels = tmp_path / "panels.json"
    panels.write_text("{}")

    def traced(name, *argv):
        result = fresh_python(root / "perfbench" / "trace_cli.py",
                              tmp_path / f"{name}.json", panels, "--", *argv)
        assert result.returncode == 0, result.stderr
        trace = json.loads((tmp_path / f"{name}.json").read_text())
        return {span[0] for span in trace["spans"]}

    plain, under = tmp_path / "plain", tmp_path / "traced"
    assert run_cli("run", "--config", config, "--out-dir", plain) == 0
    assert run_cli("rate", plain / "log.jsonl", "--out-dir",
                   plain / "rated") == 0
    spans = traced("run", "run", "--config", config, "--out-dir", under)
    assert {"tournament.play", "glicko.rate", "summarize.summarize",
            "extern.spawn"} <= spans
    spans = traced("rate", "rate", under / "log.jsonl", "--out-dir",
                   under / "rated")
    assert {"store.read", "glicko.rate", "summarize.summarize"} <= spans
    for name in ("log.jsonl", "summary.csv", "rated/summary.csv"):
        assert (under / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("config", [
    *(f"configs/{path.name}" for path in sorted(CONFIGS.glob("*.cfg"))
      if path.name != "add_pair.cfg"),
    *(f"simulate {name}" for name in cli.EXPERIMENTS)])
def test_the_header_config_hashes_to_the_header_hash(config, tmp_path):
    # The one header site writes the config it played; parsed again, that
    # config must hash as the header says. Each bundled experiment's
    # tournaments are written by the same site, run_config's.
    if config.startswith("configs/"):
        payloads = [cfgmod.load_config(CONFIGS.parent / config).raw]
    else:
        from arena import experiments as ex
        seed = ex.DEFAULT_SEED
        payloads = {
            "within": [ex.within_config(seed)],
            "banded": [ex.within_config(seed), ex.within_config(
                seed, schedule={"kind": "band",
                                "band_width": ex.BAND_WIDTH})],
            "chekhov": [ex.chekhov_config(seed, panel)
                        for panel in ("forgetting", "chekhov")],
            "distortion": [ex.distortion_config(seed)],
            "multi": [ex.multi_config(seed)],
        }[config.split()[1]]
    for payload in payloads:
        cli._new_log(cfgmod.parse_config(payload), tmp_path / "log").close()
        header, _, _ = store.read_log(tmp_path / "log")
        assert header.config == json.loads(json.dumps(payload))
        assert header.config_hash == cfgmod.config_hash(
            cfgmod.parse_config(header.config))


# The hash of the whitening matrices a config's task and generators build:
# the bits that a BLAS kernel can move.
KERNEL_PROBE = """
import hashlib, sys
from arena import config as cfgmod
built = cfgmod.build_players(cfgmod.load_config(sys.argv[1]))
digest = hashlib.sha256(built.task.model.whitening.tobytes())
for spec in built.specs:
    if spec.role == "generator":
        model = built.players[spec.id].density_model(built.task)
        digest.update(model.whitening.tobytes())
print(digest.hexdigest())
"""


def test_logs_are_byte_identical_across_blas_kernels(tmp_path,
                                                     monkeypatch):
    # Counts threshold the scores, so kernels that differ in the last bits
    # of the players still write the same log.
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    config = write_yaml(tmp_path / "run.cfg", tiny_config_payload())
    kernels = {"default": {}, "Prescott": {"OPENBLAS_CORETYPE": "Prescott"}}
    probes = {name: fresh_python("-c", KERNEL_PROBE, config, env=env,
                                 check=True).stdout
              for name, env in kernels.items()}
    if probes["default"] == probes["Prescott"]:
        pytest.skip("this machine's default BLAS kernel gives the same "
                    "whitening bits as Prescott, so there is no second "
                    "kernel to compare")
    logs = {}
    for name, env in kernels.items():
        fresh_python("-m", "arena.cli", "run", "--config", config,
                     "--out-dir", tmp_path / name, env=env, check=True)
        logs[name] = (tmp_path / name / "log.jsonl").read_bytes()
    assert logs["default"] == logs["Prescott"]
