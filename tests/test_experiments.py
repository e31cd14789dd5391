"""Bundled experiment builders, runners, and their verdicts."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from arena import cli
from arena import experiments as ex
from arena import glicko
from arena import summarize as sm
from arena.cli import main
from arena.config import parse_config
from arena.store import read_log
from arena.tournament import stable_seed

from conftest import (fresh_python, tiny_config_payload, tournament_win_rate,
                      write_yaml)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


class TestSeedDerivation:
    @pytest.mark.parametrize("seed,label", [
        (1, "task"), (1, "traj"), (7, "task"), (12345, "panel")])
    def test_derive_is_a_truncated_stable_seed(self, seed, label):
        assert ex._derive(seed, label) == stable_seed(seed, label) % 2**31

    def test_streams_are_independent_and_frozen(self):
        # The bundled .cfg files hard-code these two values; moving them
        # would silently change every shipped experiment.
        assert ex._derive(1, "task") == 1556953940
        assert ex._derive(1, "traj") == 83705277
        assert ex._derive(1, "task") != ex._derive(1, "traj")


class TestConfigBuilders:
    def test_within_config_shape(self):
        cfg = ex.within_config(3)
        assert cfg["seed"] == 3
        assert cfg["task"] == {"dim": ex.DIM, "seed": ex._derive(3, "task")}
        entry = cfg["players"][0]
        assert entry["experiment"] == "within"
        assert entry["n_checkpoints"] == ex.N_CHECKPOINTS
        assert entry["mastery_fraction"] == 1.0
        assert entry["discriminators"] == "chekhov"
        assert entry["trajectory_seed"] == ex._derive(3, "traj")
        assert entry["panel_seed"] == 3
        assert cfg["schedule"] == {"kind": "round_robin"}

    def test_within_config_takes_a_schedule_override(self):
        cfg = ex.within_config(3, schedule={"kind": "band", "band_width": 4})
        assert cfg["schedule"] == {"kind": "band", "band_width": 4}

    def test_chekhov_config_swaps_only_the_panel(self):
        forgetting = ex.chekhov_config(2, "forgetting")
        chekhov = ex.chekhov_config(2, "chekhov")
        assert forgetting["players"][0]["discriminators"] == "forgetting"
        assert chekhov["players"][0]["discriminators"] == "chekhov"
        assert forgetting["players"][0]["mastery_fraction"] == 0.5
        for key in ("seed", "task", "schedule"):
            assert forgetting[key] == chekhov[key]

    def test_distortion_config_pairs_noise_with_its_oracle(self):
        cfg = ex.distortion_config(1, severities=[2, 5])
        kinds = [(p["kind"], p["severity"]) for p in cfg["players"]]
        assert kinds == [("transform", 2), ("transform", 5),
                         ("noise_oracle", 2), ("noise_oracle", 5)]

    def test_multi_config_population(self):
        cfg = ex.multi_config(1)
        by_kind: dict[str, int] = {}
        for entry in cfg["players"]:
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        assert by_kind == {"toy_trajectory": 3, "real_data": 1,
                           "transform": 1, "noise_oracle": 1}
        stalled = cfg["players"][2]
        assert stalled["checkpoints"] == [0, 1, 2, 3, 4]
        assert stalled["discriminators"] == "none"
        seeds = {p["trajectory_seed"] for p in cfg["players"][:3]}
        assert len(seeds) == 3, "runs must not share a trajectory"

    @pytest.mark.parametrize("builder", [
        lambda: ex.within_config(1),
        lambda: ex.chekhov_config(1, "forgetting"),
        lambda: ex.distortion_config(1),
        lambda: ex.multi_config(1),
    ])
    def test_every_builder_emits_a_valid_config(self, builder):
        parse_config(builder())  # must not raise


@pytest.fixture(scope="module")
def bundle():
    return ex.run_config(tiny_config_payload())


class TestRunBundle:
    def test_records_follow_the_schedule(self, bundle):
        assert [(r.generator_id, r.discriminator_id)
                for r in bundle.records] == \
            [(gid, did) for gid, did, _ in bundle.schedule]

    def test_ratings_cover_every_player(self, bundle):
        assert bundle.outcome.converged
        assert set(bundle.outcome.ratings) == \
            {s.id for s in bundle.built.specs}

    def test_generator_series_is_sorted_by_iteration(self, bundle):
        iterations, ratings = bundle.generator_series("tiny")
        assert iterations == [0, 1, 2, 3]
        assert ratings == [bundle.outcome.ratings[f"tiny-g{k:02d}"].rating
                           for k in range(4)]
        assert bundle.generator_series() == (iterations, ratings)

    def test_summary_reuses_the_bundle_ratings(self, bundle):
        summary = bundle.summary
        rates = tournament_win_rate(bundle.records)
        for row in summary.rows:
            assert row.rating == bundle.outcome.ratings[row.id].rating
            if row.role == "generator":
                assert row.win_rate == rates[row.id]


class TestSimulate:
    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ex.simulate("nonesuch")

    def test_distortion_simulation_passes_and_writes_artifacts(self,
                                                               tmp_path):
        verdict = ex.simulate("distortion", seed=1, out_dir=str(tmp_path))
        assert verdict["checks"] == {
            "at_most_one_adjacent_inversion": True,
            "inversions_within_two_combined_deviations": True,
        }
        assert verdict["severities"] == list(range(1, 10))
        target = tmp_path / "distortion"
        for name in ("distortion.jsonl", "distortion_summary.csv",
                     "distortion_heatmap.csv", "distortion_heatmap.svg",
                     "distortion_curves.svg", "verdict.json"):
            assert (target / name).exists(), f"missing {name}"
        with open(target / "verdict.json", encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == {k: v for k, v in verdict.items() if k != "files"}

    def test_banded_simulation_writes_both_bundles(self, tmp_path):
        verdict = ex.simulate("banded", seed=1, out_dir=str(tmp_path))
        target = tmp_path / "banded"
        names = [f"{stem}{suffix}" for stem in ("full", "banded")
                 for suffix in (".jsonl", "_summary.csv", "_heatmap.csv",
                                "_heatmap.svg", "_curves.svg")]
        assert verdict["files"] == sorted(
            str(target / name) for name in [*names, "verdict.json"])
        assert sorted(p.name for p in target.iterdir()) == sorted(
            [*names, "verdict.json"])
        header, records, _ = read_log(target / "full.jsonl")
        assert list(records) == list(
            ex.run_config(ex.within_config(1)).records)
        assert header.seed == 1

    def test_within_bundle_is_what_arena_run_writes(self, tmp_path):
        ex.simulate("within", seed=1, out_dir=str(tmp_path / "sim"))
        config = write_yaml(tmp_path / "within.cfg", ex.within_config(1))
        run = tmp_path / "run"
        assert main(["run", "--config", config, "--out-dir", str(run)]) == 0
        sim = tmp_path / "sim" / "within"
        assert (sim / "within.jsonl").read_bytes() == \
            (run / "log.jsonl").read_bytes()
        for name in sm.ARTIFACT_NAMES.values():
            assert (sim / f"within_{name}").read_bytes() == \
                (run / name).read_bytes(), name

    def test_bundle_logs_are_streamed_before_rating(self, tmp_path,
                                                     monkeypatch):
        # Each bundle's log holds its header and every record by the time
        # its match set is rated, as arena run's log does.
        rate, stems, checked = glicko.rate_tournament, ["full", "banded"], []

        def rate_after_checking_the_log(table, *args, **kwargs):
            stem = stems[len(checked)]
            header, records, problems = read_log(
                tmp_path / "banded" / f"{stem}.jsonl")
            assert (header.seed, problems) == (1, [])
            assert list(records) == list(table)
            checked.append(stem)
            return rate(table, *args, **kwargs)

        monkeypatch.setattr(glicko, "rate_tournament",
                            rate_after_checking_the_log)
        ex.simulate("banded", seed=1, out_dir=str(tmp_path))
        assert checked == stems

    def test_multi_population_verdict_holds(self):
        verdict, bundles = ex.run_multi(1)
        assert all(verdict["checks"].values()), verdict
        assert verdict["rating_bench"] > verdict["rating_stalled_final"]
        assert verdict["rating_bench"] == \
            bundles["multi"].outcome.ratings["bench"].rating


class TestScripts:
    def test_run_experiments_writes_a_bundle(self, tmp_path):
        result = fresh_python(SCRIPTS / "run_experiments.py", "--experiments",
                              "within", "--out-dir", tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("within ")
        assert result.stdout.rstrip().endswith("ok")
        artifacts = [f"within_{name}" for name in sm.ARTIFACT_NAMES.values()]
        assert sorted(p.name for p in (tmp_path / "within").iterdir()) == \
            sorted(["within.jsonl", "verdict.json", *artifacts])

    def test_same_outputs_of_one_tree(self):
        src = Path(ex.__file__).resolve().parents[1]
        config = SCRIPTS.parent / "configs" / "within_trajectory.cfg"
        result = fresh_python(SCRIPTS / "same_outputs.py", src, src, config)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.splitlines()[-1] == \
            "11 outputs compared, 0 differ"

    def test_same_outputs_shows_each_config_schedule(self, tmp_path):
        # The set-up command of a benchmark run, every match listed: its
        # stdout, stderr and exit code are compared, and it is given no
        # --out-dir. A copy that lists each match in other words differs
        # at the first match, the line after the four summary lines.
        src = Path(ex.__file__).resolve().parents[1]
        shutil.copytree(src / "arena", tmp_path / "arena",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cli_py = tmp_path / "arena" / "cli.py"
        cli_py.write_text(cli_py.read_text().replace(
            '{disc_id} repeat {repeat}', '{disc_id} r{repeat}'))
        config = SCRIPTS.parent / "configs" / "within_trajectory.cfg"
        result = fresh_python(SCRIPTS / "same_outputs.py", src, tmp_path,
                              config)
        assert result.returncode == 1
        assert result.stdout.splitlines() == [
            f"differs: schedule --config {config} --list: <stdout> (first "
            "differing line 5)",
            "11 outputs compared, 1 differ"]

    def test_same_outputs_runs_a_config_then_extends_its_log(self,
                                                              tmp_path):
        # A copy that writes every window twice: the log differs, and so
        # does what extend rates from it; each is named under both steps.
        src = Path(ex.__file__).resolve().parents[1]
        shutil.copytree(src / "arena", tmp_path / "arena",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cli_py = tmp_path / "arena" / "cli.py"
        cli_py.write_text(cli_py.read_text().replace(
            "if writer is not None and records:\n            writer(records)",
            "if writer is not None and records:\n"
            "            writer(records)\n            writer(records)"))
        configs = SCRIPTS.parent / "configs"
        pair = f"{configs / 'population.cfg'}+{configs / 'add_pair.cfg'}"
        result = fresh_python(SCRIPTS / "same_outputs.py", src, src, pair)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.splitlines()[-1] == \
            "18 outputs compared, 0 differ"
        result = fresh_python(SCRIPTS / "same_outputs.py", src, tmp_path,
                              pair)
        assert result.returncode == 1
        steps = (f"run --config {configs / 'population.cfg'} then extend "
                 "{log}")
        differing = [line for line in result.stdout.splitlines()
                     if line.startswith("differs: ")]
        assert differing and all(line.startswith(f"differs: {steps}")
                                 for line in differing), differing
        # The run's 400 records follow the header, then their copies.
        assert f"differs: {steps} --add {configs / 'add_pair.cfg'}: " \
            "log.jsonl (first differing line 402)" in differing

    def test_same_outputs_rerates_a_log_in_both_outcome_modes(self,
                                                               tmp_path):
        src = Path(ex.__file__).resolve().parents[1]
        config = SCRIPTS.parent / "configs" / "within_trajectory.cfg"
        assert main(["run", "--config", str(config), "--out-dir",
                     str(tmp_path)]) == 0
        log = tmp_path / "log.jsonl"
        shutil.copytree(src / "arena", tmp_path / "arena",
                        ignore=shutil.ignore_patterns("__pycache__"))
        # A per-match game worth a little more moves per-match ratings only.
        glicko_py = tmp_path / "arena" / "glicko.py"
        glicko_py.write_text(glicko_py.read_text().replace(
            "else np.ones_like(total)", "else np.full_like(total, 1.5)"))
        result = fresh_python(SCRIPTS / "same_outputs.py", src, tmp_path,
                              log)
        assert result.returncode == 1
        differing = [line for line in result.stdout.splitlines()
                     if line.startswith("differs: ")]
        # stdout, stderr, exit code and four artifacts per command.
        assert result.stdout.splitlines()[-1] == \
            f"14 outputs compared, {len(differing)} differ"
        assert differing and all(
            line.startswith(f"differs: rate {log} --outcome-mode per-match: ")
            for line in differing)

    def test_same_outputs_names_what_differs(self, tmp_path):
        # Another engine version changes the log header and nothing else.
        src = Path(ex.__file__).resolve().parents[1]
        shutil.copytree(src / "arena", tmp_path / "arena",
                        ignore=shutil.ignore_patterns("__pycache__"))
        tournament = tmp_path / "arena" / "tournament.py"
        tournament.write_text(tournament.read_text().replace(
            "\nENGINE = 2\n", "\nENGINE = 3\n"))
        config = SCRIPTS.parent / "configs" / "within_trajectory.cfg"
        result = fresh_python(SCRIPTS / "same_outputs.py", src, tmp_path,
                              config)
        assert result.returncode == 1
        assert result.stdout.splitlines() == [
            f"differs: run --config {config}: log.jsonl (first differing "
            "line 1)",
            "11 outputs compared, 1 differ"]

    def test_same_outputs_runs_a_bundled_experiment(self, tmp_path):
        # Heavier noise moves what the distortion experiment writes.
        src = Path(ex.__file__).resolve().parents[1]
        shutil.copytree(src / "arena", tmp_path / "arena",
                        ignore=shutil.ignore_patterns("__pycache__"))
        toy_py = tmp_path / "arena" / "toy.py"
        toy_py.write_text(toy_py.read_text().replace(
            "sigma = 0.25 * self.severity", "sigma = 0.3 * self.severity"))
        result = fresh_python(SCRIPTS / "same_outputs.py", src, tmp_path,
                              "distortion")
        assert result.returncode == 1
        assert ("differs: simulate distortion: distortion/distortion.jsonl "
                "(first differing line 2)" in result.stdout.splitlines())
        result = fresh_python(SCRIPTS / "same_outputs.py", src, src,
                              "nonesuch")
        assert result.returncode == 2
        assert "nonesuch is neither a file nor one of within," in \
            result.stderr

    def test_same_outputs_knows_every_bundled_experiment(self):
        spec = importlib.util.spec_from_file_location(
            "same_outputs", SCRIPTS / "same_outputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.EXPERIMENTS == cli.EXPERIMENTS

    def test_rerate_memory_times_each_tree(self, tmp_path):
        src = Path(ex.__file__).resolve().parents[1]
        shutil.copytree(src / "arena", tmp_path / "arena",
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = fresh_python(SCRIPTS / "rerate_memory.py", "--players", "5",
                              "--runs", "2", src, tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "log: 25 records, 0.0 MiB"
        # Alternating, every other round in reverse order.
        assert [line.split(":")[0] for line in lines[1:]] == [
            f"run 1 {src}", f"run 1 {tmp_path}", f"run 2 {tmp_path}",
            f"run 2 {src}", f"median {src}", f"median {tmp_path}"]
        assert all(line.endswith(" MiB") for line in lines[1:])

    def test_rerate_memory_fails_when_the_reports_differ(self, tmp_path):
        src = Path(ex.__file__).resolve().parents[1]
        shutil.copytree(src / "arena", tmp_path / "arena",
                        ignore=shutil.ignore_patterns("__pycache__"))
        # Another prior rating moves every printed rating.
        glicko_py = tmp_path / "arena" / "glicko.py"
        glicko_py.write_text(glicko_py.read_text().replace(
            "_DEFAULT_RATING = 1500.0", "_DEFAULT_RATING = 1400.0"))
        result = fresh_python(SCRIPTS / "rerate_memory.py", "--players", "3",
                              "--runs", "1", src, tmp_path)
        assert result.returncode == 1
        assert result.stdout.splitlines()[-1] == \
            "the trees printed different reports"

    def test_seed_study_runs(self):
        result = fresh_python(SCRIPTS / "seed_study.py", "--experiments",
                              "within", "--seeds", "1")
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 2 and lines[0] == "== within =="
        assert lines[1].startswith("  seed   1: rho=")
