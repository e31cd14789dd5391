"""Rating engine tests.

The worked-example digits below were frozen from an independent scalar
implementation of the update procedure published at
http://www.glicko.net/glicko/glicko2.pdf (the three-opponent example), not
from this package, so they catch regressions in either direction.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from arena.glicko import (GLICKO2_SCALE, GameResult, Rating, RatingConfig,
                          RatingOutcome, _expand_record, expected_score,
                          from_internal, g, rate_tournament, to_internal,
                          update_player, update_volatility)
from arena.tournament import MatchRecord


def record(gen: str, disc: str, fake_wins: int, real_wins: int,
           n: int = 16) -> MatchRecord:
    return MatchRecord(generator_id=gen, discriminator_id=disc, n_fake=n,
                       fake_wins=fake_wins, n_real=n, real_wins=real_wins,
                       seed=0)


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
        mu_j, phi_j = to_internal(opponent)
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
        mu, phi = to_internal(Rating(1500.0, 350.0))
        assert mu == 0.0
        assert phi == 350.0 / GLICKO2_SCALE

    @given(st.floats(500.0, 2500.0), st.floats(10.0, 500.0))
    def test_round_trip(self, rating, deviation):
        mu, phi = to_internal(Rating(rating, deviation))
        back = from_internal(mu, phi, 0.06)
        assert math.isclose(back.rating, rating, rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(back.deviation, deviation, rel_tol=1e-12)

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
        outcome = rate_tournament([record("gen", "disc", 8, 0, n=8)])
        assert outcome.converged
        assert outcome.ratings["gen"].rating == 1500.0
        assert outcome.ratings["disc"].rating == 1500.0

    def test_one_sided_record_orders_players(self):
        outcome = rate_tournament([record("gen", "disc", 16, 16)])
        assert outcome.ratings["gen"].rating > outcome.ratings["disc"].rating

    def test_record_order_never_matters(self):
        # Reversal reorders each player's accumulator sums, so agreement is
        # to floating-point accumulation order (last ulp), not bit-exact.
        records = [record("g1", "d1", 14, 12), record("g1", "d2", 3, 1),
                   record("g2", "d1", 9, 9), record("g2", "d2", 16, 15)]
        forward = rate_tournament(records)
        backward = rate_tournament(list(reversed(records)))
        assert forward.passes == backward.passes
        for pid, rating in forward.ratings.items():
            other = backward.ratings[pid]
            assert math.isclose(rating.rating, other.rating, rel_tol=1e-12)
            assert math.isclose(rating.deviation, other.deviation,
                                rel_tol=1e-12)

    def test_repeated_call_is_bit_identical(self):
        records = [record("g1", "d1", 14, 12), record("g2", "d1", 2, 5)]
        assert rate_tournament(records).ratings == \
            rate_tournament(records).ratings

    def test_empty_records_warn_and_converge(self):
        outcome = rate_tournament([])
        assert outcome.converged
        assert outcome.passes == 0
        assert outcome.ratings == {}
        assert any("empty record set" in w for w in outcome.warnings)

    def test_pass_cap_reports_non_convergence(self):
        records = [record("g1", "d1", 14, 12), record("g1", "d2", 3, 1),
                   record("g2", "d1", 9, 9), record("g2", "d2", 16, 15)]
        outcome = rate_tournament(records, RatingConfig(max_passes=1))
        assert not outcome.converged
        assert outcome.passes == 1
        assert any("did not converge" in w for w in outcome.warnings)

    def test_per_match_mode_carries_less_information(self):
        records = [record("g1", "d1", 14, 12), record("g1", "d2", 3, 1),
                   record("g2", "d1", 9, 9), record("g2", "d2", 16, 15)]
        per_sample = rate_tournament(records)
        per_match = rate_tournament(
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
            outcome = rate_tournament(records,
                                      RatingConfig(outcome_mode=mode))
            by_mode[mode] = sorted(
                ["g1", "g2", "g3"],
                key=lambda pid: outcome.ratings[pid].rating)
        assert by_mode["per-sample"] == by_mode["per-match"] == \
            ["g3", "g2", "g1"]

    @pytest.mark.parametrize("mode,weight", [("per-sample", 32.0),
                                             ("per-match", 1.0)])
    def test_one_game_per_record_side(self, mode, weight):
        games = list(_expand_record(record("g", "d", 14, 10), mode))
        assert games == [(0, "d", 24 / 32, weight),
                         (1, "g", 1.0 - 24 / 32, weight)]

    def test_unknown_outcome_mode_raises(self):
        with pytest.raises(ValueError, match="unknown outcome mode"):
            rate_tournament([record("g", "d", 8, 8)],
                            RatingConfig(outcome_mode="per-game"))

    def test_outcome_is_a_plain_result_object(self):
        outcome = rate_tournament([record("g", "d", 8, 8)])
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
        outcome = rate_tournament([record("g", "d", 8, 0, n=8)], cfg)
        assert outcome.ratings["g"].rating == 1000.0
