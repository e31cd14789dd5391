"""Acceptance gate: one test and one pass/fail line per shipped guarantee.

Every criterion is recomputed here from raw tournament output rather than
trusted from the experiment verdicts, so a regression in either the engine
or the verdict code turns this file red. Run with ``-s`` to see the
scoreboard lines on passing runs too.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import pytest

from arena import experiments as ex
from arena import store
from arena import summarize as sm
from arena import toy
from arena.cli import main
from arena.config import load_config
from arena.glicko import GameResult, Rating, rate_tournament, update_player
from arena.tournament import MatchTable

from conftest import (column_means, tiny_config_payload, tournament_win_rate,
                      win_rate, write_yaml)

ROOT = Path(__file__).resolve().parents[1]


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} ({label}): "
          f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {criterion} ({label}): {detail}"


@pytest.fixture(scope="module")
def banded_study():
    """Full and banded round robins for every study seed, timed apart."""
    full, banded = {}, {}
    time_full = time_banded = 0.0
    for seed in ex.STUDY_SEEDS:
        start = time.perf_counter()
        full[seed] = ex.run_config(ex.within_config(seed))
        time_full += time.perf_counter() - start
        start = time.perf_counter()
        banded[seed] = ex.run_config(ex.within_config(
            seed, schedule={"kind": "band", "band_width": ex.BAND_WIDTH}))
        time_banded += time.perf_counter() - start
    return {"full": full, "banded": banded,
            "time_full": time_full, "time_banded": time_banded}


@pytest.fixture(scope="module")
def panel_study():
    start = time.perf_counter()
    forgetting = ex.run_config(ex.chekhov_config(1, "forgetting"))
    retentive = ex.run_config(ex.chekhov_config(1, "chekhov"))
    return {"forgetting": forgetting, "retentive": retentive,
            "time": time.perf_counter() - start}


@pytest.fixture(scope="module")
def noise_sweep():
    start = time.perf_counter()
    bundle = ex.run_config(ex.distortion_config(1))
    return {"bundle": bundle, "time": time.perf_counter() - start}


def test_criterion_1_rating_worked_example():
    player = Rating(1500.0, 200.0, 0.06)
    games = [GameResult(Rating(1400.0, 30.0), 1.0),
             GameResult(Rating(1550.0, 100.0), 0.0),
             GameResult(Rating(1700.0, 300.0), 0.0)]
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        new = update_player(player, games)
        best = min(best, time.perf_counter() - start)
    ok = (abs(new.rating - 1464.06) < 0.05
          and abs(new.deviation - 151.52) < 0.05
          and abs(new.volatility - 0.05999) < 1e-4
          and best < 1e-3)
    report(1, "rating worked example", ok,
           f"rating {new.rating:.4f} dev {new.deviation:.4f} "
           f"vol {new.volatility:.7f} in {best * 1e6:.0f}us")


def test_criterion_2_real_data_neutrality():
    start = time.perf_counter()
    base = {"seed": 2026, "batch_size": 128,
            "task": {"dim": 8, "seed": ex._derive(2026, "task")}}
    judged = ex.run_config({
        **base,
        "players": [{"kind": "real_data", "id": "bench"},
                    {"kind": "constant", "id": "all-fake", "value": 0.0}],
        "schedule": {"kind": "round_robin"},
    })
    exact = win_rate(list(judged.records)[0])

    # A panel of pre-mastery snapshot oracles; the mastered snapshot is
    # excluded because its scores tie the threshold on every sample.
    panel = ex.run_config({
        **base,
        "players": [
            {"kind": "real_data", "id": "bench"},
            {"kind": "toy_trajectory", "experiment": "panel",
             "n_checkpoints": 20, "mastery_fraction": 1.0,
             "generators": False, "discriminators": "oracle",
             "checkpoints": list(range(19)),
             "trajectory_seed": ex._derive(2026, "traj"),
             "panel_seed": 2026},
        ],
        "schedule": {"kind": "round_robin", "repeats": 13},
    })
    elapsed = time.perf_counter() - start
    rates = [win_rate(r) for r in panel.records]
    mean = sum(rates) / len(rates)
    tolerance = 3.0 * math.sqrt(0.25 / (128 * len(rates)))
    ok = (exact == 0.5 and len(rates) >= 200
          and abs(mean - 0.5) <= tolerance and elapsed < 10.0)
    report(2, "real data is a coin flip", ok,
           f"all-fake judge {exact}, mean over {len(rates)} matches "
           f"{mean:.5f} (tolerance {tolerance:.5f}), {elapsed:.1f}s")


def test_criterion_3_within_trajectory_monotonicity(banded_study):
    rhos = []
    for seed in ex.STUDY_SEEDS:
        iterations, ratings = \
            banded_study["full"][seed].generator_series("within")
        rhos.append(sm.spearman(iterations, ratings))
    elapsed = banded_study["time_full"]
    ok = all(rho >= 0.95 for rho in rhos) and elapsed < 60.0
    report(3, "rating tracks training progress", ok,
           f"min spearman {min(rhos):.4f} over seeds "
           f"{list(ex.STUDY_SEEDS)}, {elapsed:.1f}s")


def test_criterion_4_banded_schedule_rank_agreement(banded_study):
    fractions, rho_ratings, rho_rates = [], [], []
    for seed in ex.STUDY_SEEDS:
        full = banded_study["full"][seed]
        banded = banded_study["banded"][seed]
        fractions.append(len(banded.schedule) / len(full.schedule))
        gen_ids = sorted(s.id for s in full.built.specs
                         if s.role == "generator")
        reference = [full.outcome.ratings[g].rating for g in gen_ids]
        rho_ratings.append(sm.spearman(
            reference, [banded.outcome.ratings[g].rating for g in gen_ids]))
        rates = tournament_win_rate(banded.records)
        rho_rates.append(sm.spearman(reference,
                                     [rates[g] for g in gen_ids]))
    elapsed = banded_study["time_banded"]
    ok = (all(f <= 0.4 for f in fractions)
          and all(rho >= 0.9 for rho in rho_ratings)
          and all(rw < rr for rw, rr in zip(rho_rates, rho_ratings))
          and elapsed < 60.0)
    report(4, "banded schedule keeps the ranking", ok,
           f"fraction {max(fractions):.2f}, min rating rho "
           f"{min(rho_ratings):.4f}, max win-rate rho {max(rho_rates):.4f}, "
           f"{elapsed:.1f}s")


def test_criterion_5_forgetting_vs_retentive_panels(panel_study):
    retentive = panel_study["retentive"]
    mastery = toy.mastery_index(ex.N_CHECKPOINTS, 0.5)
    gens = sorted((s for s in retentive.built.specs
                   if s.role == "generator"), key=lambda s: s.iteration)
    quality = [-toy.cov_error(retentive.built.players[s.id],
                              retentive.built.task) for s in gens]

    def correlation(bundle, late_judges_only: bool) -> float:
        if late_judges_only:
            by_id = {s.id: s for s in bundle.built.specs}
            kept = [r for r in bundle.records
                    if by_id[r.discriminator_id].iteration >= mastery]
            ratings = rate_tournament(MatchTable.from_records(kept),
                                      bundle.config.rating).ratings
        else:
            ratings = bundle.outcome.ratings
        return abs(sm.pearson([ratings[s.id].rating for s in gens], quality))

    forgetting_post = correlation(panel_study["forgetting"], True)
    retentive_post = correlation(retentive, True)
    retentive_full = correlation(retentive, False)
    gap = retentive_post - forgetting_post
    elapsed = panel_study["time"]
    ok = (gap >= 0.2 and retentive_post >= 0.9 and retentive_full >= 0.9
          and elapsed < 60.0)
    report(5, "reservoir panel keeps judging the past", ok,
           f"post-mastery corr {retentive_post:.4f} vs {forgetting_post:.4f}"
           f" (gap {gap:.2f}), full {retentive_full:.4f}, {elapsed:.1f}s")


def test_criterion_6_noise_severity_ordering(noise_sweep):
    bundle = noise_sweep["bundle"]
    severities, ratings = bundle.generator_series("distortion")
    ids = {s.iteration: s.id for s in bundle.built.specs
           if s.role == "generator"}
    deviations = [bundle.outcome.ratings[ids[s]].deviation
                  for s in severities]
    inversions = []
    for i in range(len(severities) - 1):
        rise = ratings[i + 1] - ratings[i]
        if rise > 0:
            allowance = 2.0 * math.hypot(deviations[i], deviations[i + 1])
            inversions.append((severities[i], rise, allowance))
    elapsed = noise_sweep["time"]
    ok = (severities == list(range(1, 10))
          and len(inversions) <= 1
          and all(rise <= allowance for _, rise, allowance in inversions)
          and elapsed < 60.0)
    report(6, "heavier noise never rates higher", ok,
           f"{len(inversions)} adjacent inversions "
           f"{[(s, round(r, 2)) for s, r, _ in inversions]}, {elapsed:.1f}s")


def test_criterion_7_determinism_and_replay(tmp_path):
    payload = tiny_config_payload()
    config = write_yaml(tmp_path / "run.cfg", payload)
    first, second = tmp_path / "a", tmp_path / "b"
    ran = (main(["run", "--config", str(config), "--out-dir", str(first)])
           == main(["run", "--config", str(config), "--out-dir",
                    str(second)]) == 0)
    log_same = (first / "log.jsonl").read_bytes() == \
        (second / "log.jsonl").read_bytes()
    summary_same = (first / "summary.csv").read_bytes() == \
        (second / "summary.csv").read_bytes()

    bundle = ex.run_config(payload)
    _, records, _ = store.read_log(first / "log.jsonl")
    replayed = rate_tournament(records, bundle.config.rating).ratings
    replay_exact = set(replayed) == set(bundle.outcome.ratings) and all(
        (replayed[pid].rating, replayed[pid].deviation,
         replayed[pid].volatility)
        == (live.rating, live.deviation, live.volatility)
        for pid, live in bundle.outcome.ratings.items())
    ok = ran and log_same and summary_same and replay_exact
    report(7, "byte-identical reruns, bit-exact replay", ok,
           f"log identical {log_same}, summary identical {summary_same}, "
           f"replay exact {replay_exact}")


def test_criterion_8_incremental_extension(tmp_path, capsys):
    config = ROOT / "configs" / "population.cfg"
    fragment = ROOT / "configs" / "add_pair.cfg"
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir",
                 str(out)]) == 0
    log = out / "log.jsonl"
    _, before, _ = store.read_log(log)
    capsys.readouterr()

    start = time.perf_counter()
    code = main(["extend", str(log), "--add", str(fragment)])
    elapsed = time.perf_counter() - start
    stdout = capsys.readouterr().out

    _, after, _ = store.read_log(log)
    new = list(after)[len(before):]
    pairs = {(r.generator_id, r.discriminator_id) for r in new}
    only_new_vs_old = ("traj-g21", "traj-d21") not in pairs and all(
        "traj-g21" in pair or "traj-d21" in pair for pair in pairs)
    ratings = rate_tournament(after,
                              load_config(config).rating).ratings
    bracketed = (ratings["traj-g20"].rating < ratings["traj-g21"].rating
                 < ratings["traj-g22"].rating)
    ok = (code == 0 and "appended 40 records" in stdout and len(new) == 40
          and only_new_vs_old and bracketed and elapsed < 30.0)
    report(8, "extending a stored population", ok,
           f"{len(new)} new records, neighbours "
           f"{ratings['traj-g20'].rating:.1f} < "
           f"{ratings['traj-g21'].rating:.1f} < "
           f"{ratings['traj-g22'].rating:.1f}, {elapsed:.1f}s")


def test_criterion_9_win_rate_definitions(banded_study, panel_study,
                                          noise_sweep):
    full_bundles = (list(banded_study["full"].values())
                    + [panel_study["forgetting"], panel_study["retentive"],
                       noise_sweep["bundle"]])
    bundles = full_bundles + list(banded_study["banded"].values())

    worst_gap = 0.0
    for bundle in bundles:
        summary = bundle.summary
        means = column_means(summary.heatmap)
        for gen_id, rate in summary.win_rates.items():
            worst_gap = max(worst_gap, abs(rate - means[gen_id]))

    rank_checked, rank_ok = 0, True
    for bundle in full_bundles:
        rates = tournament_win_rate(bundle.records)
        gen_ids = sorted(rates)
        values = sorted(rates.values())
        if min(b - a for a, b in zip(values, values[1:])) <= 1e-9:
            continue  # ties: rank order is not well defined
        rank_checked += 1
        by_rate = sorted(gen_ids, key=lambda g: rates[g])
        by_rating = sorted(
            gen_ids, key=lambda g: bundle.outcome.ratings[g].rating)
        rank_ok = rank_ok and by_rate == by_rating
    ok = worst_gap <= 1e-12 and rank_ok and rank_checked >= 1
    report(9, "win rate equals heatmap mean, rating preserves its order",
           ok, f"worst gap {worst_gap:.2e}, rank agreement on "
           f"{rank_checked} full round robins: {rank_ok}")
