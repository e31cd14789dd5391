"""Rating engine tests.

The worked-example digits below were frozen from an independent scalar
implementation of the update procedure published at
http://www.glicko.net/glicko/glicko2.pdf (the three-opponent example), not
from this package, so they catch regressions in either direction.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arena import glicko
from arena.glicko import (_MIN_INFORMATION, GLICKO2_SCALE, ConvergenceError,
                          GameResult, Rating, RatingConfig, RatingOutcome,
                          _apply_period, _close_period, _period_sums, expected_score, from_internal, g,
                          rate_tournament, to_internal, update_player,
                          update_volatility)
from arena.tournament import MatchRecord, MatchTable

from conftest import round_robin_table


def record(gen: str, disc: str, fake_wins: int, real_wins: int,
           n: int = 16) -> MatchRecord:
    return MatchRecord(generator_id=gen, discriminator_id=disc, n_fake=n,
                       fake_wins=fake_wins, n_real=n, real_wins=real_wins,
                       seed=0)


def rate(records, config: RatingConfig | None = None) -> RatingOutcome:
    """``rate_tournament`` on the table of ``records``."""
    return rate_tournament(MatchTable.from_records(records), config)


def reference_rate(records, cfg: RatingConfig
                   ) -> tuple[dict[str, Rating], list[float]]:
    """The tournament fixed point driven through the scalar
    ``_apply_period``: per-player ``GameResult`` lists rebuilt against each
    pass's snapshot and summed with ``math.fsum``. Returns the ratings and
    the largest rating shift of each pass."""
    games: dict[str, list[tuple[str, float, float]]] = {}
    for rec in records:
        games.setdefault(rec.generator_id, [])
        games.setdefault(rec.discriminator_id, [])
    for rec in records:
        total = rec.n_fake + rec.n_real
        if total <= 0:
            continue
        s = (rec.fake_wins + rec.real_wins) / total
        weight = float(total) if cfg.outcome_mode == "per-sample" else 1.0
        games[rec.generator_id].append((rec.discriminator_id, s, weight))
        games[rec.discriminator_id].append((rec.generator_id, 1.0 - s,
                                            weight))
    start = cfg.default()
    ratings = {pid: start for pid in sorted(games)}
    shifts: list[float] = []
    while records and len(shifts) < cfg.max_passes:
        snapshot, ratings = ratings, {}
        for pid, current in snapshot.items():
            period = [GameResult(snapshot[opp], s, weight)
                      for opp, s, weight in games[pid]]
            mu_eval, _ = to_internal(current.rating, current.deviation)
            fresh = _apply_period(start, mu_eval, period, cfg)
            if fresh is start:
                ratings[pid] = current
                continue
            blended = (current.rating
                       + cfg.damping * (fresh.rating - current.rating))
            ratings[pid] = Rating(blended, fresh.deviation, fresh.volatility)
        shifts.append(max(abs(ratings[pid].rating - snapshot[pid].rating)
                          for pid in ratings))
        if shifts[-1] < cfg.pass_tolerance:
            break
    return ratings, shifts


def reference_game_table(records, mode: str):
    """The game table built record by record from MatchRecord objects."""
    ids = sorted({r.generator_id for r in records}
                 | {r.discriminator_id for r in records})
    index = {pid: i for i, pid in enumerate(ids)}
    played = [r for r in records if r.n_fake + r.n_real > 0]
    gen = np.array([index[r.generator_id] for r in played], dtype=np.intp)
    disc = np.array([index[r.discriminator_id] for r in played],
                    dtype=np.intp)
    total = np.array([r.n_fake + r.n_real for r in played], dtype=float)
    s = np.array([r.fake_wins + r.real_wins for r in played],
                 dtype=float) / total
    weight = total if mode == "per-sample" else np.ones_like(total)
    return (ids, np.column_stack((gen, disc)).ravel(),
            np.column_stack((disc, gen)).ravel(),
            np.column_stack((s, 1.0 - s)).ravel(), np.repeat(weight, 2))


def reference_period_sums(ratings, player, opponent, score, weight):
    """A pass's (v_inv, delta_sum) as one np.bincount over the interleaved
    game table, in which each player's games stay in record order.
    ``ratings`` holds the rows rating and deviation, one column a player."""
    mu = (ratings[0] - 1500.0) / GLICKO2_SCALE
    phi = ratings[1] / GLICKO2_SCALE
    g_opp = (1.0 / np.sqrt(1.0 + 3.0 * phi * phi / (math.pi * math.pi))
             )[opponent]
    x = g_opp * (mu[player] - mu[opponent])
    ex = np.exp(-np.abs(x))
    e = np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    n = len(mu)
    return (np.bincount(player, weight * (g_opp * g_opp * e * (1.0 - e)),
                        minlength=n),
            np.bincount(player, weight * (g_opp * (score - e)),
                        minlength=n))


def out_of_place_period_sums(ratings, gen, disc, score, weight):
    """``_period_sums`` written with a fresh array for every operation: the
    same expressions in the same order, so the sums must agree bit for
    bit with the engine's buffered version."""
    mu = (ratings[0] - 1500.0) / GLICKO2_SCALE
    phi = ratings[1] / GLICKO2_SCALE
    g_player = 1.0 / np.sqrt(1.0 + 3.0 * phi * phi / (math.pi * math.pi))
    n = len(mu)
    v_inv, delta_sum = np.zeros(n), np.zeros(n)
    for player, opponent, s in ((gen, disc, score),
                                (disc, gen, 1.0 - score)):
        g_opp = g_player[opponent]
        x = g_opp * (mu[player] - mu[opponent])
        ex = np.exp(-np.abs(x))
        e = np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        v_inv += np.bincount(player, weight * (g_opp * g_opp * e * (1.0 - e)),
                             minlength=n)
        delta_sum += np.bincount(player, weight * (g_opp * (s - e)),
                                 minlength=n)
    return v_inv, delta_sum


def scalar_close_period(rating: Rating, v_inv: float, delta_sum: float,
                        cfg: RatingConfig) -> tuple[float, ...] | None:
    """The Glicko2 step for one player on Python floats, each expression of
    ``_close_period`` in the same order; None where the games do not
    inform the player. The array step must agree with it bit for bit."""
    if v_inv <= _MIN_INFORMATION:
        return None
    mu, phi = to_internal(rating.rating, rating.deviation)
    v = 1.0 / v_inv
    delta = v * delta_sum
    sigma_new = update_volatility(rating.volatility, delta, phi, v, cfg.tau,
                                  cfg.convergence_eps)
    phi_star = math.sqrt(phi * phi + sigma_new * sigma_new)
    phi_cap = max(phi, cfg.default_deviation / GLICKO2_SCALE)
    phi_star = min(phi_star, phi_cap)
    phi_new = 1.0 / math.sqrt(1.0 / (phi_star * phi_star) + v_inv)
    mu_new = mu + phi_new * phi_new * delta_sum
    return (*from_internal(mu_new, phi_new), sigma_new)


# Snapshots that range from near-even games to expected scores saturated
# either way (ratings far apart, deviations from tiny to huge).
snapshots = st.lists(st.tuples(
    st.one_of(st.floats(1000.0, 2000.0), st.floats(-1e6, 1e6)),
    st.one_of(st.floats(20.0, 500.0), st.floats(1e-3, 1e7))),
    min_size=1, max_size=10)


def first_pass(records, cfg: RatingConfig):
    """The outcome of one ``rate_tournament`` pass, the ``_period_sums``
    arguments after the ratings in it and its ``(v_inv, delta_sum)``."""
    calls = []

    def spy(ratings, *games):
        sums = _period_sums(ratings, *games)
        calls.append((games, sums))
        return sums

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(glicko, "_period_sums", spy)
        outcome = rate(records, replace(cfg, max_passes=1))
    (games, sums), = calls
    return outcome, games, sums


def assert_engines_agree(records, cfg: RatingConfig) -> None:
    """rate_tournament matches the scalar reference to relative 1e-9 (the
    two sum in different orders, and the volatility solve amplifies
    last-bit differences, so the bound is relative)."""
    outcome = rate(records, cfg)
    ratings, shifts = reference_rate(records, cfg)
    assert outcome.passes == len(shifts)
    assert list(outcome.ratings) == list(ratings)
    for pid, expected in ratings.items():
        got = outcome.ratings[pid]
        for field in ("rating", "deviation", "volatility"):
            assert math.isclose(getattr(got, field), getattr(expected, field),
                                rel_tol=1e-9), (pid, field)
    # A shift is a difference of two ratings, so its error is absolute.
    for got, expected in zip(outcome.shifts, shifts):
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)


class TestWorkedExample:
    """The published three-opponent example: 1500/200/0.06 beats 1400/30,
    then loses to 1550/100 and 1700/300 in one rating period."""

    PLAYER = Rating(1500.0, 200.0, 0.06)
    GAMES = [
        GameResult(Rating(1400.0, 30.0), 1.0),
        GameResult(Rating(1550.0, 100.0), 0.0),
        GameResult(Rating(1700.0, 300.0), 0.0),
    ]

    def test_published_values(self):
        new = update_player(self.PLAYER, self.GAMES)
        assert abs(new.rating - 1464.06) < 0.05, f"rating {new.rating}"
        assert abs(new.deviation - 151.52) < 0.05, f"deviation {new.deviation}"
        assert abs(new.volatility - 0.05999) < 1e-4, f"vol {new.volatility}"

    def test_independent_oracle_digits(self):
        # Frozen from a standalone scalar run of the published algorithm.
        new = update_player(self.PLAYER, self.GAMES)
        assert abs(new.rating - 1464.050671) < 1e-3
        assert abs(new.deviation - 151.516524) < 1e-3
        assert abs(new.volatility - 0.05999598) < 1e-6

    @pytest.mark.parametrize("opponent, g_expected, e_expected", [
        (Rating(1400.0, 30.0), 0.9955, 0.639),   # strong, confident opponent
        (Rating(1550.0, 100.0), 0.9531, 0.432),  # slightly stronger
        (Rating(1700.0, 300.0), 0.7242, 0.303),  # much stronger, uncertain
    ])
    def test_published_g_and_e(self, opponent, g_expected, e_expected):
        mu_j, phi_j = to_internal(opponent.rating, opponent.deviation)
        assert abs(g(phi_j) - g_expected) < 5e-4
        assert abs(expected_score(0.0, mu_j, phi_j) - e_expected) < 5e-4

    def test_volatility_solver_on_example(self):
        # v and delta frozen from the same standalone run.
        sigma = update_volatility(sigma=0.06, delta=-0.483933,
                                  phi=200.0 / GLICKO2_SCALE, v=1.778977,
                                  tau=0.5)
        assert abs(sigma - 0.05999598) < 1e-6

    def test_runtime_under_one_millisecond(self):
        import time

        update_player(self.PLAYER, self.GAMES)  # warm caches
        start = time.perf_counter()
        update_player(self.PLAYER, self.GAMES)
        assert time.perf_counter() - start < 1e-3


class TestScaleConversion:
    def test_anchor_maps_to_origin(self):
        mu, phi = to_internal(1500.0, 350.0)
        assert mu == 0.0
        assert phi == 350.0 / GLICKO2_SCALE

    @given(st.floats(500.0, 2500.0), st.floats(10.0, 500.0))
    def test_round_trip(self, rating, deviation):
        back_rating, back_deviation = from_internal(
            *to_internal(rating, deviation))
        assert math.isclose(back_rating, rating, rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(back_deviation, deviation, rel_tol=1e-12)

    def test_g_decreases_with_uncertainty(self):
        assert g(0.0) == 1.0
        phis = [0.1, 0.5, 1.0, 2.0]
        values = [g(phi) for phi in phis]
        assert values == sorted(values, reverse=True)

    @given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
           st.floats(0.0, 3.0))
    def test_expected_score_in_unit_interval(self, mu, mu_j, phi_j):
        e = expected_score(mu, mu_j, phi_j)
        assert 0.0 <= e <= 1.0
        # Symmetry: swapping the players reflects the expectation.
        assert math.isclose(e + expected_score(mu_j, mu, phi_j), 1.0,
                            rel_tol=1e-12)


class TestUpdatePlayer:
    def test_no_games_returns_identity(self):
        player = Rating(1444.0, 88.0, 0.05)
        assert update_player(player, []) is player

    def test_saturated_opponent_is_skipped(self):
        # 50 internal units below: E is 1.0 to float precision, so the game
        # carries no information and the update must not move the player.
        player = Rating(1500.0, 200.0, 0.06)
        weak = Rating(1500.0 - 50.0 * GLICKO2_SCALE, 30.0)
        assert update_player(player, [GameResult(weak, 1.0)]) is player

    @given(st.integers(1, 5), st.floats(0.0, 1.0))
    # Running sums once left last-bit drift here that the volatility solve
    # amplified past 1e-12.
    @example(5, 0.009510548796771047)
    @settings(max_examples=30)
    def test_weight_n_equals_n_repetitions(self, n, score):
        opponent = Rating(1472.0, 120.0)
        weighted = update_player(Rating(), [GameResult(opponent, score,
                                                       weight=float(n))])
        repeated = update_player(Rating(), [GameResult(opponent, score)] * n)
        assert math.isclose(weighted.rating, repeated.rating, rel_tol=1e-12)
        assert math.isclose(weighted.deviation, repeated.deviation,
                            rel_tol=1e-12)
        assert math.isclose(weighted.volatility, repeated.volatility,
                            rel_tol=1e-12)

    @given(st.floats(1200.0, 1800.0), st.floats(30.0, 350.0),
           st.floats(0.03, 0.1), st.floats(1200.0, 1800.0),
           st.floats(30.0, 350.0), st.integers(1, 256), st.data())
    @settings(max_examples=60)
    def test_wins_and_losses_collapse_to_one_fractional_game(
            self, rating, deviation, volatility, opp_rating, opp_deviation,
            n, data):
        # The identity the rating engine relies on: w wins and n - w losses
        # against one opponent are one game scored w / n with weight n. The
        # two sums differ in their last bits and the volatility solve
        # amplifies that (to 4e-10 relative at the corners of these ranges),
        # so the tolerance is relative.
        w = data.draw(st.integers(0, n))
        player = Rating(rating, deviation, volatility)
        opponent = Rating(opp_rating, opp_deviation)
        split = update_player(player, [GameResult(opponent, 1.0, w),
                                       GameResult(opponent, 0.0, n - w)])
        collapsed = update_player(player, [GameResult(opponent, w / n, n)])
        assert math.isclose(split.rating, collapsed.rating, rel_tol=1e-9)
        assert math.isclose(split.deviation, collapsed.deviation,
                            rel_tol=1e-9)
        assert math.isclose(split.volatility, collapsed.volatility,
                            rel_tol=1e-9)

    def test_win_raises_and_loss_lowers(self):
        opponent = Rating(1500.0, 100.0)
        up = update_player(Rating(), [GameResult(opponent, 1.0)])
        down = update_player(Rating(), [GameResult(opponent, 0.0)])
        assert up.rating > 1500.0 > down.rating
        assert up.deviation < 350.0

    def test_deviation_capped_at_prior_uncertainty(self):
        # A long streak of identical losses must not inflate the deviation
        # past the uninformed default through volatility feedback.
        opponent = Rating(1500.0, 50.0)
        rating = Rating()
        for _ in range(40):
            rating = update_player(rating, [GameResult(opponent, 0.0,
                                                       weight=128.0)])
            assert rating.deviation <= 350.0 + 1e-9


class TestRateTournament:
    def test_balanced_record_keeps_everyone_at_default(self):
        # 8 wins and 8 losses against an equal opponent is exactly neutral.
        outcome = rate([record("gen", "disc", 8, 0, n=8)])
        assert outcome.converged
        assert outcome.ratings["gen"].rating == 1500.0
        assert outcome.ratings["disc"].rating == 1500.0

    def test_one_sided_record_orders_players(self):
        outcome = rate([record("gen", "disc", 16, 16)])
        assert outcome.ratings["gen"].rating > outcome.ratings["disc"].rating

    def test_record_order_never_matters(self):
        # Reversal reorders each player's accumulator sums, so agreement is
        # to floating-point accumulation order (last ulp), not bit-exact.
        records = [record("g1", "d1", 14, 12), record("g1", "d2", 3, 1),
                   record("g2", "d1", 9, 9), record("g2", "d2", 16, 15)]
        forward = rate(records)
        backward = rate(list(reversed(records)))
        assert forward.passes == backward.passes
        for pid, rating in forward.ratings.items():
            other = backward.ratings[pid]
            assert math.isclose(rating.rating, other.rating, rel_tol=1e-12)
            assert math.isclose(rating.deviation, other.deviation,
                                rel_tol=1e-12)

    def test_repeated_call_is_bit_identical(self):
        records = [record("g1", "d1", 14, 12), record("g2", "d1", 2, 5)]
        assert rate(records).ratings == rate(records).ratings

    def test_empty_records_warn_and_converge(self):
        outcome = rate([])
        assert outcome.converged
        assert outcome.passes == 0
        assert outcome.ratings == {}
        assert any("empty record set" in w for w in outcome.warnings)

    def test_pass_cap_reports_non_convergence(self):
        records = [record("g1", "d1", 14, 12), record("g1", "d2", 3, 1),
                   record("g2", "d1", 9, 9), record("g2", "d2", 16, 15)]
        outcome = rate(records, RatingConfig(max_passes=1))
        assert not outcome.converged
        assert outcome.passes == 1
        assert any("did not converge" in w for w in outcome.warnings)

    def test_per_match_mode_carries_less_information(self):
        records = [record("g1", "d1", 14, 12), record("g1", "d2", 3, 1),
                   record("g2", "d1", 9, 9), record("g2", "d2", 16, 15)]
        per_sample = rate(records)
        per_match = rate(
            records, RatingConfig(outcome_mode="per-match"))
        for pid in per_sample.ratings:
            assert per_match.ratings[pid].deviation > \
                per_sample.ratings[pid].deviation, f"player {pid}"

    def test_outcome_modes_agree_on_ordering(self):
        records = [record("g1", "d1", 30, 29, n=32),
                   record("g2", "d1", 16, 17, n=32),
                   record("g3", "d1", 2, 3, n=32)]
        by_mode = {}
        for mode in ("per-sample", "per-match"):
            outcome = rate(records, RatingConfig(outcome_mode=mode))
            by_mode[mode] = sorted(
                ["g1", "g2", "g3"],
                key=lambda pid: outcome.ratings[pid].rating)
        assert by_mode["per-sample"] == by_mode["per-match"] == \
            ["g3", "g2", "g1"]

    @pytest.mark.parametrize("mode,weight", [("per-sample", 32.0),
                                             ("per-match", 1.0)])
    def test_one_game_per_record_side(self, mode, weight):
        # The empty record indexes its players but adds no games. At the
        # default snapshot every expected score is exactly 1/2.
        outcome, _, (v_inv, delta_sum) = first_pass(
            [record("g", "d", 14, 10), record("g", "e", 0, 0, n=0)],
            RatingConfig(outcome_mode=mode))
        g0 = g(350.0 / GLICKO2_SCALE)
        assert list(outcome.ratings) == ["d", "e", "g"]
        assert v_inv.tolist() == [weight * (g0 * g0 * 0.25), 0.0,
                                  weight * (g0 * g0 * 0.25)]
        assert delta_sum.tolist() == [
            weight * (g0 * (1.0 - 24 / 32 - 0.5)), 0.0,
            weight * (g0 * (24 / 32 - 0.5))]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 40).flatmap(
                                  lambda n: st.tuples(st.just(n),
                                                      st.integers(0, n),
                                                      st.integers(0, n)))),
                    min_size=1, max_size=24),
           st.sampled_from(["per-sample", "per-match"]),
           st.lists(st.tuples(st.floats(1000.0, 2000.0),
                              st.floats(20.0, 500.0)),
                    min_size=8, max_size=8))
    @settings(deadline=None)
    def test_period_sums_equal_the_interleaved_game_table(
            self, matches, mode, snapshot):
        # Every id plays in one role, so each player's terms add in record
        # order on both paths and the sums agree bit for bit.
        records = [record(f"g{gen}", f"d{disc}", fake, real, n=n)
                   for gen, disc, (n, fake, real) in matches]
        outcome, games, _ = first_pass(records,
                                       RatingConfig(outcome_mode=mode))
        ids, player, opponent, score, weight = reference_game_table(records,
                                                                    mode)
        assert list(outcome.ratings) == ids
        for got, want in zip(games, (player[0::2], player[1::2], score[0::2],
                                     weight[0::2])):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        ratings = np.array(snapshot[:len(ids)]).T
        for got, want in zip(_period_sums(ratings, *games),
                             reference_period_sums(ratings, player, opponent,
                                                   score, weight)):
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @given(snapshots.flatmap(lambda snapshot: st.tuples(
               st.just(snapshot),
               st.lists(st.tuples(
                   st.integers(0, len(snapshot) - 1),
                   st.integers(0, len(snapshot) - 1),
                   st.one_of(st.sampled_from([0.0, 1.0]),
                             st.integers(0, 64).map(lambda k: k / 64)),
                   st.integers(1, 10 ** 6)), max_size=40))),
           st.sampled_from(["per-sample", "per-match"]))
    @example(([(1500.0, 350.0), (-1e6, 1e-3), (1e6, 1e-3)],
              [(0, 1, 1.0, 64), (1, 2, 0.0, 7), (2, 0, 0.5, 1),
               (2, 1, 1.0, 10 ** 6)]), "per-sample")
    @settings(deadline=None)
    def test_period_sums_equal_the_out_of_place_expressions(self, drawn,
                                                            mode):
        snapshot, rows = drawn
        ratings = np.array(snapshot).T
        gen, disc = (np.array([row[k] for row in rows], dtype=np.intp)
                     for k in (0, 1))
        score = np.array([row[2] for row in rows], dtype=float)
        total = np.array([row[3] for row in rows], dtype=float)
        weight = total if mode == "per-sample" else np.ones_like(total)
        got = _period_sums(ratings, gen, disc, score, weight)
        want = out_of_place_period_sums(ratings, gen, disc, score, weight)
        for g_sums, w_sums in zip(got, want):
            assert np.array_equal(g_sums, w_sums)
            # array_equal takes -0.0 for 0.0; the bit patterns must match too.
            assert np.array(g_sums).tobytes() == np.array(w_sums).tobytes()

    @given(st.lists(st.tuples(
               st.one_of(st.floats(1000.0, 2000.0), st.floats(-1e6, 1e6)),
               st.floats(1e-3, 1e7), st.floats(1e-4, 2.0),
               st.one_of(st.floats(0.0, 1e6), st.sampled_from(
                   [_MIN_INFORMATION, math.nextafter(_MIN_INFORMATION, 1.0),
                    math.nan])),
               st.floats(-1e6, 1e6)), min_size=1, max_size=12),
           st.sampled_from([0.01, 0.5, 3.0]), st.sampled_from([30.0, 350.0]))
    # Here v * delta_sum and delta_sum / v_inv differ in the last bit, and
    # the volatility solve carries that bit into sigma.
    @example([(1500.0, 350.0, 0.5, 0.005, -2.09)], 0.5, 350.0)
    @settings(deadline=None)
    def test_close_period_keeps_every_bit_of_the_scalar_step(
            self, players, tau, default_deviation):
        cfg = RatingConfig(tau=tau, default_deviation=default_deviation)
        prior, v_inv, delta_sum = (np.array(column) for column in (
            [p[:3] for p in players], [p[3] for p in players],
            [p[4] for p in players]))
        try:
            want = [scalar_close_period(Rating(*p[:3]), *p[3:], cfg)
                    for p in players]
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                _close_period(prior.T, v_inv, delta_sum, cfg)
            return
        informed, fresh = _close_period(prior.T, v_inv, delta_sum, cfg)
        assert informed.tolist() == [w is not None for w in want]
        # float.hex tells -0.0 from 0.0 and reads every NaN as "nan".
        assert [[x.hex() for x in column] for column in fresh.T.tolist()] \
            == [[x.hex() for x in w] for w in want if w is not None]

    def test_shifts_trace_every_pass(self):
        records = [record("g1", "d1", 14, 12), record("g1", "d2", 3, 1),
                   record("g2", "d1", 9, 9), record("g2", "d2", 16, 15)]
        cfg = RatingConfig()
        outcome = rate(records, cfg)
        assert outcome.converged
        assert len(outcome.shifts) == outcome.passes > 1
        assert outcome.shifts[-1] < cfg.pass_tolerance
        assert all(shift >= cfg.pass_tolerance
                   for shift in outcome.shifts[:-1])
        capped = rate(records, RatingConfig(max_passes=2))
        assert capped.shifts == outcome.shifts[:2]
        assert rate([]).shifts == ()

    def test_unknown_outcome_mode_raises(self):
        with pytest.raises(ValueError, match="unknown outcome mode"):
            rate([record("g", "d", 8, 8)],
                 RatingConfig(outcome_mode="per-game"))

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 32).flatmap(
                                  lambda n: st.tuples(st.just(n),
                                                      st.integers(0, n),
                                                      st.integers(0, n)))),
                    min_size=1, max_size=24),
           st.sampled_from(["per-sample", "per-match"]),
           st.floats(1000.0, 2000.0), st.floats(50.0, 500.0))
    # A repeated pairing and a record with no judged samples.
    @example([(0, 0, (16, 9, 12)), (0, 0, (16, 3, 15)), (1, 0, (0, 0, 0)),
              (1, 1, (8, 2, 7))], "per-sample", 1400.0, 200.0)
    # p3 is a discriminator in one record and a generator in another, and
    # p2 plays itself.
    @example([(0, 1, (16, 9, 12)), (3, 2, (16, 3, 15)), (2, 0, (8, 6, 1)),
              (1, 0, (16, 4, 4))], "per-sample", 1500.0, 350.0)
    @settings(max_examples=60, deadline=None)
    def test_array_pass_matches_the_scalar_reference(
            self, matches, mode, default_rating, default_deviation):
        # Generators are p0-p3 and discriminators p2-p5, so p2 and p3 may
        # play both roles, and against themselves.
        records = [record(f"p{gen}", f"p{disc + 2}", fake, real, n=n)
                   for gen, disc, (n, fake, real) in matches]
        assert_engines_agree(records, RatingConfig(
            outcome_mode=mode, default_rating=default_rating,
            default_deviation=default_deviation))

    def test_saturated_player_holds_and_engines_agree(self):
        # At this prior deviation one per-match game carries less than
        # _MIN_INFORMATION, so the first pass holds g2 while g1, with five
        # games, moves.
        cfg = RatingConfig(outcome_mode="per-match", default_deviation=1e7)
        records = [record("g1", f"d{i}", 12, 10) for i in range(5)]
        records.append(record("g2", "d0", 3, 2))
        first, _, (v_inv, _) = first_pass(records, cfg)
        info = dict(zip(first.ratings, v_inv))
        assert info["g2"] <= _MIN_INFORMATION < info["g1"]
        assert first.ratings["g2"] == cfg.default()
        assert first.ratings["g1"].rating != cfg.default_rating
        assert_engines_agree(records, cfg)

    def test_player_saturated_after_moving_holds_its_estimate(
            self, monkeypatch):
        # With the information floor raised to 3, d is informed on the first
        # pass (v_inv 3.58) but not on the second (2.46, once g has pulled
        # away): it must hold the estimate it reached, not fall back to its
        # prior.
        monkeypatch.setattr(glicko, "_MIN_INFORMATION", 3.0)
        records = [record("g", "d", 16, 16), record("g", "e", 12, 10)]
        first = rate(records, RatingConfig(max_passes=1))
        second = rate(records, RatingConfig(max_passes=2))
        assert second.ratings["d"] == first.ratings["d"]
        assert first.ratings["d"] != RatingConfig().default()
        assert_engines_agree(records, RatingConfig())

    def test_one_pass_holds_no_game_table(self):
        # A pass that reads one row per record peaks near 105 bytes a
        # record; one that copies the table into two rows per record, one
        # per side, peaks near 160.
        table = round_robin_table(316)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            rate_tournament(table, RatingConfig(max_passes=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (peak - start) / len(table) < 135.0

    def test_outcome_is_a_plain_result_object(self):
        outcome = rate([record("g", "d", 8, 8)])
        assert isinstance(outcome, RatingOutcome)
        assert set(outcome.ratings) == {"g", "d"}
        assert outcome.warnings == ()


class TestRatingConfig:
    def test_default_rating_object(self):
        cfg = RatingConfig(default_rating=1400.0, default_deviation=200.0,
                           default_volatility=0.04)
        assert cfg.default() == Rating(1400.0, 200.0, 0.04)

    def test_custom_defaults_seed_the_tournament(self):
        cfg = RatingConfig(default_rating=1000.0)
        outcome = rate([record("g", "d", 8, 0, n=8)], cfg)
        assert outcome.ratings["g"].rating == 1000.0
