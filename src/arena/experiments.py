"""Bundled experiments with machine-checkable verdicts.

Each experiment builds a config, runs the tournament, and reduces the
outcome to a verdict dict whose ``checks`` entries can gate CI. The same
functions back the ``arena simulate`` command and the acceptance tests.
Every tournament is played and reported by ``arena run``'s own code in
``cli``, so a bundle written under an output directory is byte for byte
what ``arena run`` writes for the same config.

The defaults pin a geometry where the qualitative findings are strong and
fast: dimension 8, 20-checkpoint trajectories, batch 64. Seed 1 is the
bundled default for every experiment; the distortion sweep in particular
is seed-sensitive (some seeds show two adjacent inversions where its
check allows one), so its verdict is only claimed at the default seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import cli
from . import config as cfgmod
from . import glicko
from . import summarize as sm
from . import tournament as tn
from . import toy

DIM = 8
N_CHECKPOINTS = 20
BATCH_SIZE = 64
BAND_WIDTH = 4
STUDY_SEEDS = (1, 7, 8, 10, 11)
DEFAULT_SEED = 1

EXPERIMENTS = cli.EXPERIMENTS


@dataclass(frozen=True)
class RunBundle:
    """One tournament run kept whole: config through summary."""

    config: cfgmod.TournamentConfig
    built: cfgmod.BuiltPlayers
    schedule: tn.Schedule
    records: tn.MatchTable
    outcome: glicko.RatingOutcome
    summary: sm.TournamentSummary

    def generator_series(self, experiment: str | None = None
                         ) -> tuple[list[int], list[float]]:
        """Checkpoint iterations and ratings, sorted by iteration."""
        specs = [s for s in self.built.specs
                 if s.role == "generator" and s.iteration is not None
                 and (experiment is None or s.experiment == experiment)]
        specs.sort(key=lambda s: (s.iteration, s.id))
        return ([s.iteration for s in specs],
                [self.outcome.ratings[s.id].rating for s in specs])


# What every run_<name> returns: the verdict, and the bundles it was computed
# from keyed by the file stem they are written under.
Study = tuple[dict, dict[str, RunBundle]]


def _file_names(stem: str) -> dict[str, str]:
    """A bundle's file names: its log under ``log``, then its artifacts."""
    return {"log": f"{stem}.jsonl",
            **{key: f"{stem}_{name}"
               for key, name in sm.ARTIFACT_NAMES.items()}}


def run_config(raw: dict, out_dir: str | None = None,
               stem: str = "run") -> RunBundle:
    """Validate, build, play, rate and summarize one config dict. With
    ``out_dir`` the log streams to ``<stem>.jsonl`` as the matches play and
    the artifacts go to ``<stem>_*`` files, as ``arena run`` writes them."""
    config = cfgmod.parse_config(raw)
    built = cfgmod.build_players(config)
    schedule = cfgmod.build_schedule(config, built.specs)
    names, writer = {}, None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        names = _file_names(stem)
        writer = cli._new_log(config, os.path.join(out_dir, names["log"]))
    records = cli._play(config, built, schedule, strict=True, writer=writer)
    outcome, summary = cli._report(records, config.rating, built.specs,
                                   out_dir, names, schedule.kind)
    return RunBundle(config, built, schedule, records, outcome, summary)


def _derive(seed: int, label: str) -> int:
    """Independent sub-seed for one ingredient of an experiment.

    Task draw, trajectory start, and panel randomness get separate streams
    so that changing one experiment knob never silently reshuffles the
    others.
    """
    return tn.stable_seed(seed, label) % 2**31


def _trajectory_entry(experiment: str, seed: int, **overrides) -> dict:
    entry = {"kind": "toy_trajectory", "experiment": experiment,
             "n_checkpoints": N_CHECKPOINTS, "mastery_fraction": 1.0,
             "discriminators": "chekhov",
             "trajectory_seed": _derive(seed, "traj"),
             "panel_seed": seed}
    entry.update(overrides)
    return entry


def within_config(seed: int, *, schedule: dict | None = None) -> dict:
    return {
        "seed": seed,
        "batch_size": BATCH_SIZE,
        "task": {"dim": DIM, "seed": _derive(seed, "task")},
        "players": [_trajectory_entry("within", seed)],
        "schedule": schedule or {"kind": "round_robin"},
    }


def run_within(seed: int = DEFAULT_SEED, out_dir: str | None = None) -> Study:
    """Full round robin along one trajectory (skill should track progress)."""
    bundle = run_config(within_config(seed), out_dir, "within")
    rho = sm.spearman(*bundle.generator_series("within"))
    verdict = {
        "experiment": "within",
        "seed": seed,
        "n_matches": len(bundle.records),
        "spearman_iteration_vs_rating": rho,
        "checks": {"spearman_at_least_0.95": rho >= 0.95},
    }
    return verdict, {"within": bundle}


def run_banded(seed: int = DEFAULT_SEED, out_dir: str | None = None) -> Study:
    """Banded schedule vs the full round robin on the same population.

    Ratings should survive the omitted matches; the raw win rate should
    not, because each generator now faces a different opponent slice.
    """
    full = run_config(within_config(seed), out_dir, "full")
    banded = run_config(within_config(
        seed, schedule={"kind": "band", "band_width": BAND_WIDTH}), out_dir,
        "banded")
    fraction = len(banded.schedule.matches) / len(full.schedule.matches)

    gen_ids = sorted(s.id for s in full.built.specs if s.role == "generator")
    reference = [full.outcome.ratings[g].rating for g in gen_ids]
    band_ratings = [banded.outcome.ratings[g].rating for g in gen_ids]
    band_rates = banded.summary.win_rates
    rho_rating = sm.spearman(reference, band_ratings)
    rho_wr = sm.spearman(reference, [band_rates[g] for g in gen_ids])
    verdict = {
        "experiment": "banded",
        "seed": seed,
        "band_width": banded.schedule.band_width,
        "match_fraction": fraction,
        "spearman_full_vs_banded_rating": rho_rating,
        "spearman_full_vs_banded_win_rate": rho_wr,
        "checks": {
            "fraction_at_most_0.4": fraction <= 0.4,
            "rating_rho_at_least_0.9": rho_rating >= 0.9,
            "win_rate_rho_strictly_lower": rho_wr < rho_rating,
        },
    }
    return verdict, {"full": full, "banded": banded}


def chekhov_config(seed: int, panel: str) -> dict:
    return {
        "seed": seed,
        "batch_size": BATCH_SIZE,
        "task": {"dim": DIM, "seed": _derive(seed, "task")},
        "players": [_trajectory_entry("traj", seed, mastery_fraction=0.5,
                                      discriminators=panel)],
        "schedule": {"kind": "round_robin"},
    }


def _quality_correlation(bundle: RunBundle, cov_errors: list[float],
                         min_disc_iteration: int | None) -> float:
    """|Pearson| between generator rating and -cov_error.

    With ``min_disc_iteration`` the ratings are recomputed from only the
    matches judged by discriminators at or past that checkpoint: what the
    tournament would know if only late snapshots did the judging.
    """
    if min_disc_iteration is None:
        ratings = bundle.outcome.ratings
    else:
        by_id = {s.id: s for s in bundle.built.specs}
        table = bundle.records
        late = np.array([by_id[pid].role == tn.ROLE_DISCRIMINATOR
                         and by_id[pid].iteration >= min_disc_iteration
                         for pid in table.ids], dtype=bool)
        ratings = glicko.rate_tournament(table.take(late[table.disc]),
                                         bundle.config.rating).ratings
    specs = sorted((s for s in bundle.built.specs if s.role == "generator"),
                   key=lambda s: s.iteration)
    xs = [ratings[s.id].rating for s in specs]
    ys = [-cov_errors[s.iteration] for s in specs]
    return abs(sm.pearson(xs, ys))


def _cov_errors(bundle: RunBundle) -> list[float]:
    """Covariance error of each generator checkpoint, by iteration."""
    gens = sorted((s for s in bundle.built.specs if s.role == "generator"),
                  key=lambda s: s.iteration)
    return [toy.cov_error(bundle.built.players[s.id], bundle.built.task)
            for s in gens]


def run_chekhov(seed: int = DEFAULT_SEED, out_dir: str | None = None
                ) -> Study:
    """Forgetting panel vs reservoir panel on one early-mastered trajectory.

    Generators master the task halfway through. Forgetting discriminators
    decay to noise past their own mastery, so late snapshots alone cannot
    rank the early generators; reservoir discriminators keep old fake
    models around and still can.
    """
    forgetting = run_config(chekhov_config(seed, "forgetting"), out_dir,
                            "forgetting")
    chekhov = run_config(chekhov_config(seed, "chekhov"), out_dir, "chekhov")
    mastery = toy.mastery_index(N_CHECKPOINTS, 0.5)
    cov_errors = _cov_errors(chekhov)
    forgetting_post = _quality_correlation(forgetting, cov_errors, mastery)
    chekhov_post = _quality_correlation(chekhov, cov_errors, mastery)
    chekhov_full = _quality_correlation(chekhov, cov_errors, None)
    gap = chekhov_post - forgetting_post
    verdict = {
        "experiment": "chekhov",
        "seed": seed,
        "mastery_index": mastery,
        "corr_rating_vs_quality_forgetting_post_mastery": forgetting_post,
        "corr_rating_vs_quality_chekhov_post_mastery": chekhov_post,
        "corr_rating_vs_quality_chekhov_full": chekhov_full,
        "post_mastery_gap": gap,
        "checks": {
            "gap_at_least_0.2": gap >= 0.2,
            "chekhov_corr_at_least_0.9":
                min(chekhov_post, chekhov_full) >= 0.9,
        },
    }
    return verdict, {"forgetting": forgetting, "chekhov": chekhov}


def distortion_config(seed: int, severities=range(1, 10)) -> dict:
    players = [{"kind": "transform", "id": f"noise-g{s}",
                "transform": "additive_noise", "severity": s,
                "iteration": s, "experiment": "distortion"}
               for s in severities]
    players += [{"kind": "noise_oracle", "id": f"noise-d{s}", "severity": s,
                 "iteration": s, "experiment": "distortion"}
                for s in severities]
    return {
        "seed": seed,
        "batch_size": BATCH_SIZE,
        "task": {"dim": DIM, "seed": _derive(seed, "task")},
        "players": players,
        "schedule": {"kind": "round_robin"},
    }


def run_distortion(seed: int = DEFAULT_SEED, out_dir: str | None = None
                   ) -> Study:
    """Additive-noise sweep judged by the matching analytic oracle panel.

    Heavier noise should never help: ratings must be non-increasing in
    severity up to one adjacent wobble inside the uncertainty bands.
    """
    bundle = run_config(distortion_config(seed), out_dir, "distortion")
    curve = bundle.summary.curves["distortion"]
    severities = [point.iteration for point in curve]
    ratings = [point.rating for point in curve]
    deviations = [point.deviation for point in curve]
    inversions = []
    for i in range(len(severities) - 1):
        rise = ratings[i + 1] - ratings[i]
        if rise <= 0:
            continue
        allowance = 2.0 * math.hypot(deviations[i], deviations[i + 1])
        inversions.append({
            "between": [severities[i], severities[i + 1]],
            "rise": rise,
            "allowance": allowance,
            "excess": rise - allowance,
        })
    worst = max((i["excess"] for i in inversions), default=0.0)
    verdict = {
        "experiment": "distortion",
        "seed": seed,
        "severities": list(severities),
        "ratings": ratings,
        "inversions": inversions,
        "checks": {
            "at_most_one_adjacent_inversion": len(inversions) <= 1,
            "inversions_within_two_combined_deviations": worst <= 0.0,
        },
    }
    return verdict, {"distortion": bundle}


def multi_config(seed: int) -> dict:
    """Heterogeneous tournament: three runs of differing quality plus
    a real-data benchmark and a distorted copy of it."""
    return {
        "seed": seed,
        "batch_size": BATCH_SIZE,
        "task": {"dim": DIM, "seed": _derive(seed, "task")},
        "players": [
            _trajectory_entry("fast", seed, n_checkpoints=8,
                              mastery_fraction=0.5,
                              trajectory_seed=_derive(seed, "fast")),
            _trajectory_entry("slow", seed, n_checkpoints=8,
                              mastery_fraction=1.0,
                              trajectory_seed=_derive(seed, "slow")),
            _trajectory_entry("stalled", seed, n_checkpoints=8,
                              checkpoints=[0, 1, 2, 3, 4],
                              discriminators="none",
                              trajectory_seed=_derive(seed, "stalled")),
            {"kind": "real_data", "id": "bench", "experiment": "reference"},
            {"kind": "transform", "id": "noisy-bench",
             "transform": "additive_noise", "severity": 3,
             "experiment": "reference", "iteration": 3},
            {"kind": "noise_oracle", "id": "noise-ref", "severity": 3,
             "experiment": "reference", "iteration": 3},
        ],
        "schedule": {"kind": "round_robin"},
    }


def run_multi(seed: int = DEFAULT_SEED, out_dir: str | None = None) -> Study:
    """One tournament mixing players of unrelated provenance.

    Checks assert only what the construction implies. Checkpoints past
    mastery are exact quality ties, so rank tracking is demanded only up
    to each run's mastery index. Mastered checkpoints and the real-data
    benchmark all emit the identical distribution, so they must land in
    one tight rating cluster above the early-stopped run. Most of the
    panel cannot tell heavy additive noise from data (both live where its
    fake models put no mass) which is exactly why the matching noise
    oracle is on the panel; the separation check reads that one judge's
    pairwise win rates rather than the noise-dominated overall rating.
    """
    bundle = run_config(multi_config(seed), out_dir, "multi")
    rho_by_run = {}
    mastered: list[str] = []
    for run, n, mf in (("fast", 8, 0.5), ("slow", 8, 1.0),
                       ("stalled", 8, 1.0)):
        mastery = toy.mastery_index(n, mf)
        specs = sorted((s for s in bundle.built.specs
                        if s.role == "generator" and s.experiment == run),
                       key=lambda s: s.iteration)
        early = [s for s in specs if s.iteration <= mastery]
        rho_by_run[run] = sm.spearman(
            [s.iteration for s in early],
            [bundle.outcome.ratings[s.id].rating for s in early])
        mastered += [s.id for s in specs if s.iteration >= mastery]
    pair = sm.pair_win_rates(bundle.records)
    separation = (pair[("bench", "noise-ref")]
                  - pair[("noisy-bench", "noise-ref")])

    def rating(pid: str) -> float:
        return bundle.outcome.ratings[pid].rating

    cluster = [rating(pid) for pid in mastered] + [rating("bench")]
    spread = max(cluster) - min(cluster)
    stalled_final = rating("stalled-g04")
    verdict = {
        "experiment": "multi",
        "seed": seed,
        "n_matches": len(bundle.records),
        "spearman_by_run_pre_mastery": rho_by_run,
        "rating_bench": rating("bench"),
        "rating_noisy_bench": rating("noisy-bench"),
        "rating_stalled_final": stalled_final,
        "mastered_cluster_spread": spread,
        "noise_oracle_win_rate_separation": separation,
        "checks": {
            "every_run_tracks_progress_pre_mastery":
                min(rho_by_run.values()) >= 0.9,
            "mastered_players_cluster_tightly": spread <= 25.0,
            "mastered_players_beat_stalled_run": min(cluster) > stalled_final,
            "noise_oracle_separates_distorted_copy": separation >= 0.2,
        },
    }
    return verdict, {"multi": bundle}


def simulate(name: str, seed: int | None = None,
             out_dir: str | None = None) -> dict:
    """Run one bundled experiment; write its files under ``out_dir/name``
    if out_dir is given."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"expected one of {', '.join(EXPERIMENTS)}")
    seed = DEFAULT_SEED if seed is None else seed
    runner = {"within": run_within, "banded": run_banded,
              "chekhov": run_chekhov, "distortion": run_distortion,
              "multi": run_multi}[name]
    # Every runner plays through run_config, which makes the directory.
    target = None if out_dir is None else os.path.join(out_dir, name)
    verdict, bundles = runner(seed, out_dir=target)

    if target is not None:
        files = [os.path.join(target, file_name) for stem in bundles
                 for file_name in _file_names(stem).values()]
        if name == "chekhov":
            curve = os.path.join(target, "cov_error.csv")
            with open(curve, "w", encoding="utf-8") as fh:
                fh.write("checkpoint,cov_error\n")
                for k, err in enumerate(_cov_errors(bundles["chekhov"])):
                    fh.write(f"{k},{err:.12g}\n")
            files.append(curve)
        verdict_path = os.path.join(target, "verdict.json")
        with open(verdict_path, "w", encoding="utf-8") as fh:
            json.dump(verdict, fh, indent=2, sort_keys=True)
            fh.write("\n")
        files.append(verdict_path)
        verdict["files"] = sorted(files)
    return verdict
