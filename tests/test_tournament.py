"""Scheduling, seeding, and match execution tests."""

from __future__ import annotations

import hashlib
from contextlib import closing

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from arena import config as cfgmod
from arena import seeding, store, toy
from arena import tournament as tn
from arena.config import (build_players, build_schedule, parse_config,
                          run_settings)
from arena.tournament import (MatchError, MatchRecord, MatchTable,
                              PlayerSpec, RunSettings, band, explicit_schedule,
                              match_seed, play_match,
                              round_robin, run_tournament, stable_seed,
                              validate_schedule)

from conftest import (TEXT_ALPHABET, DrawsMany, record_line,
                      tiny_config_payload, win_rate)


def spec(pid: str, role: str, iteration: int | None = None) -> PlayerSpec:
    return PlayerSpec(pid, role, iteration)


def sink_into(keep=lambda records: None, failures: list | None = None):
    """A ``run_tournament`` sink that hands each window's records to
    ``keep``. It adds the window's (match, MatchError) failures to
    ``failures``; without that list it raises the first one instead,
    before it keeps any record, as ``arena run --strict`` does."""
    def sink(records, lost):
        if failures is None and lost:
            raise lost[0][1]
        keep(records)
        if failures is not None:
            failures.extend(lost)
    return sink


class FixedGenerator(DrawsMany):
    """Emits the same constant batch regardless of the RNG."""

    def __init__(self, value: float = 0.0, dim: int = 2):
        self.value = value
        self.dim = dim

    def sample(self, count, rng):
        return np.full((count, self.dim), self.value)


class StepDiscriminator:
    """Scores the first ``high`` samples of every batch 0.9, the rest 0.1."""

    def __init__(self, high: int):
        self.high = high

    def judge(self, batch, rng=None):
        scores = np.full(len(batch), 0.1)
        scores[:self.high] = 0.9
        return scores


class BrokenPlayer:
    def sample(self, count, rng):
        raise RuntimeError("deliberately broken")

    def judge(self, batch, rng=None):
        raise RuntimeError("deliberately broken")


def oracle_stable_seed(*parts) -> int:
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


class TestStableSeed:
    @given(st.lists(st.one_of(st.integers(), st.text(TEXT_ALPHABET)),
                    max_size=5))
    @example([2 ** 32, "\u00e9", "d", 3])
    @example([2 ** 64 - 1, "g\x1fx", "\U0001f600", 2 ** 40])
    @example([7, "g", "x\x1fd", 1])
    def test_matches_independent_construction(self, parts):
        assert stable_seed(*parts) == oracle_stable_seed(*parts)

    def test_part_boundaries_are_significant(self):
        # The separator stops adjacent parts from merging.
        assert stable_seed("ab", "c") != stable_seed("a", "bc")
        assert stable_seed("ab") != stable_seed("a", "b")

    def test_is_a_64_bit_value(self):
        value = stable_seed("within-g00", "within-d07", 0)
        assert 0 <= value < 2 ** 64

    def test_match_seed_composition(self):
        assert match_seed(9, "g", "d", 2) == stable_seed(9, "g", "d", 2)

    def test_match_rngs_are_independent_substreams(self):
        seed = match_seed(3, "g", "d", 0)
        (states,) = seeding.pcg64_states([seed], 3)
        for lane in (tn.FAKE, tn.REAL, tn.JUDGE):
            expected = np.random.default_rng([seed, lane]).random(4)
            assert np.array_equal(
                seeding.stream(states[lane], seed, lane).random(4), expected)
        assert (tn.FAKE, tn.REAL, tn.JUDGE) == (0, 1, 2)


class TestPlayerSpec:
    def test_role_is_validated(self):
        with pytest.raises(ValueError, match="unknown role"):
            PlayerSpec("p", "referee")

    def test_win_rate_arithmetic(self):
        rec = MatchRecord("g", "d", n_fake=64, fake_wins=40, n_real=64,
                          real_wins=24, seed=0)
        assert win_rate(rec) == 0.5


match_records = st.lists(st.builds(
    MatchRecord,
    generator_id=st.text(alphabet=TEXT_ALPHABET, max_size=3),
    discriminator_id=st.text(alphabet=TEXT_ALPHABET, max_size=3),
    n_fake=st.integers(0, 2 ** 63 - 1), fake_wins=st.integers(0, 64),
    n_real=st.integers(0, 2 ** 63 - 1), real_wins=st.integers(0, 64),
    seed=st.integers(0, 2 ** 64 - 1), threshold=st.floats(0.0, 1.0)),
    max_size=12)


class TestMatchTable:
    @given(match_records)
    def test_iteration_gives_back_the_records(self, records):
        table = MatchTable.from_records(records)
        assert len(table) == len(records)
        assert list(table) == records
        for record, again in zip(records, table):
            assert type(again.n_fake) is int and type(again.seed) is int
            assert type(again.threshold) is float

    @given(match_records)
    def test_columns(self, records):
        table = MatchTable.from_records(records)
        assert list(table.ids) == sorted(
            {r.generator_id for r in records}
            | {r.discriminator_id for r in records})
        assert [table.ids[i] for i in table.gen] == [
            r.generator_id for r in records]
        assert [table.ids[i] for i in table.disc] == [
            r.discriminator_id for r in records]
        assert table.seed.dtype == np.uint64
        assert table.seed.tolist() == [r.seed for r in records]
        for name in ("n_fake", "fake_wins", "n_real", "real_wins"):
            column = getattr(table, name)
            assert column.dtype == np.int64
            assert column.tolist() == [getattr(r, name) for r in records]

    @given(match_records, match_records)
    def test_concat_gives_both_tables_rows_in_order(self, first, second):
        table = MatchTable.from_records(first).concat(
            MatchTable.from_records(second))
        assert list(table) == first + second
        assert table.ids == MatchTable.from_records(first + second).ids

    @given(match_records)
    def test_take_keeps_the_chosen_rows_over_every_id(self, records):
        table = MatchTable.from_records(records)
        keep = np.array([r.n_fake % 2 == 0 for r in records], dtype=bool)
        taken = table.take(keep)
        assert list(taken) == [r for r in records if r.n_fake % 2 == 0]
        assert taken.ids == table.ids

    def test_no_records_make_an_empty_table(self):
        table = MatchTable.from_records([])
        assert not table and table.ids == ()
        assert list(table) == []

    def test_intp_codes_are_recoded_in_place(self):
        gen, disc = np.array([2, 0], np.intp), np.array([1, 1], np.intp)
        table = MatchTable.from_columns(["g", "d", "g"], gen, disc,
                                        [4, 4], [1, 2], [4, 4], [3, 0],
                                        [0, 1], [0.5, 0.5])
        assert table.gen is gen and table.disc is disc
        assert gen.tolist() == [1, 1] and disc.tolist() == [0, 0]

    @pytest.mark.parametrize("code", [-1, 3])
    def test_codes_outside_the_names_are_refused(self, code):
        with pytest.raises(IndexError, match="outside"):
            MatchTable.from_columns(["g", "d", "g"], [code], [1], [4], [1],
                                    [4], [3], [0], [0.5])

    def test_judged_rows_copy_nothing_when_every_row_is_judged(self):
        records = [MatchRecord("g", "d", 4, 1, 4, 3, 0),
                   MatchRecord("g", "e", 2, 2, 0, 0, 1)]
        rows, total, score = MatchTable.from_records(records).judged()
        assert rows == slice(None)
        assert total.tolist() == [8.0, 2.0] and score.tolist() == [0.5, 1.0]
        rows, total, score = MatchTable.from_records(
            [*records, MatchRecord("h", "d", 0, 0, 0, 0, 2)]).judged()
        assert rows.tolist() == [0, 1]
        assert total.tolist() == [8.0, 2.0] and score.tolist() == [0.5, 1.0]

    def test_names_may_repeat_and_come_in_any_order(self):
        table = MatchTable.from_columns(["g", "d", "g"], [2, 0], [1, 1],
                                        [4, 4], [1, 2], [4, 4], [3, 0],
                                        [0, 1], [0.5, 0.5])
        assert table.ids == ("d", "g")
        assert [(r.generator_id, r.discriminator_id) for r in table] == [
            ("g", "d"), ("g", "d")]


class TestSchedules:
    def test_round_robin_counts_and_order(self):
        schedule = round_robin(["g2", "g1"], ["d1"], repeats=2)
        assert schedule.kind == "round_robin"
        assert schedule.matches == (("g1", "d1", 0), ("g1", "d1", 1),
                                    ("g2", "d1", 0), ("g2", "d1", 1))

    def test_round_robin_accepts_specs(self):
        schedule = round_robin([spec("g", "generator")],
                               [spec("d", "discriminator")])
        assert schedule.matches == (("g", "d", 0),)

    @pytest.mark.parametrize("gens, discs, repeats", [
        ([], ["d"], 1),       # no generators
        (["g"], [], 1),       # no discriminators
        (["g"], ["d"], 0),    # zero repeats
    ])
    def test_round_robin_rejects_degenerate_inputs(self, gens, discs,
                                                   repeats):
        with pytest.raises(ValueError):
            round_robin(gens, discs, repeats=repeats)

    def test_band_keeps_nearby_iterations_only(self):
        gens = [spec(f"g{k}", "generator", k) for k in range(4)]
        discs = [spec(f"d{k}", "discriminator", k) for k in range(4)]
        schedule = band(gens, discs, width=1)
        pairs = {(g, d) for g, d, _ in schedule.matches}
        assert ("g0", "d0") in pairs and ("g0", "d1") in pairs
        assert ("g0", "d2") not in pairs
        assert schedule.kind == "band"
        assert schedule.band_width == 1
        assert len(schedule.matches) == 4 + 2 * 3  # diagonal plus neighbours

    def test_band_requires_iterations(self):
        gens = [spec("g", "generator", None)]
        discs = [spec("d", "discriminator", 0)]
        with pytest.raises(ValueError, match="has no iteration"):
            band(gens, discs, width=1)

    def test_band_rejects_empty_result(self):
        gens = [spec("g", "generator", 0)]
        discs = [spec("d", "discriminator", 10)]
        with pytest.raises(ValueError, match="band schedule is empty"):
            band(gens, discs, width=1)

    def test_band_rejects_negative_width(self):
        with pytest.raises(ValueError, match="width must be >= 0"):
            band([spec("g", "generator", 0)],
                 [spec("d", "discriminator", 0)], width=-1)

    def test_explicit_schedule_defaults_repeat_to_zero(self):
        schedule = explicit_schedule([("g1", "d1"), ("g2", "d1", 3)])
        assert schedule.matches == (("g1", "d1", 0), ("g2", "d1", 3))
        assert schedule.kind == "explicit"


class TestValidateSchedule:
    def population(self):
        return {
            "g1": spec("g1", "generator", 0),
            "g2": spec("g2", "generator", 1),
            "d1": spec("d1", "discriminator", 0),
            "d2": spec("d2", "discriminator", 1),
        }

    def test_clean_round_robin_is_ok(self):
        specs = self.population()
        diag = validate_schedule(round_robin(["g1", "g2"], ["d1", "d2"]),
                                 specs)
        assert diag.ok
        assert diag.components == 1
        assert diag.warnings == ()

    def test_unknown_id_is_an_error(self):
        diag = validate_schedule(explicit_schedule([("ghost", "d1")]),
                                 self.population())
        assert not diag.ok
        assert any("unknown player id 'ghost'" in e for e in diag.errors)

    def test_role_violation_is_an_error(self):
        diag = validate_schedule(explicit_schedule([("d1", "g1")]),
                                 self.population())
        assert any("scheduled as generator" in e for e in diag.errors)
        assert any("scheduled as discriminator" in e for e in diag.errors)

    def test_disconnected_components_only_warn(self):
        diag = validate_schedule(
            explicit_schedule([("g1", "d1"), ("g2", "d2")]),
            self.population())
        assert diag.ok
        assert diag.components == 2
        assert any("disconnected" in w for w in diag.warnings)

    def test_a_match_scheduled_twice_is_an_error(self):
        # Both matches would get the same seed and play the same game.
        diag = validate_schedule(
            explicit_schedule([("g1", "d1"), ("g1", "d1", 1),
                               ("g1", "d1", 0), ("g1", "d1", 0)]),
            self.population())
        assert diag.errors == (
            "match 'g1' vs 'd1' repeat 0 is scheduled twice",)

    def test_duplicate_errors_are_reported_once(self):
        diag = validate_schedule(
            explicit_schedule([("ghost", "d1"), ("ghost", "d2")]),
            self.population())
        assert diag.errors.count("unknown player id 'ghost'") == 1


class TestRunSettings:
    @pytest.mark.parametrize("kwargs, message", [
        ({"batch_size": 0}, "batch_size"),          # empty batches
        ({"threshold": 0.0}, "threshold"),          # boundary excluded
        ({"threshold": 1.0}, "threshold"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunSettings(seed=1, **kwargs)


class TestPlayMatch:
    def play(self, generator, discriminator, data=None, **kwargs):
        defaults = dict(generator_id="g", discriminator_id="d",
                        tournament_seed=7, batch_size=8)
        defaults.update(kwargs)
        return play_match(generator, discriminator,
                          data if data is not None else FixedGenerator(1.0),
                          **defaults)

    def test_counts_follow_the_scores(self):
        # 3 fake samples score 0.9 (generator wins them) and the same 3
        # real samples score 0.9 (discriminator wins those).
        record = self.play(FixedGenerator(), StepDiscriminator(high=3))
        assert record.n_fake == record.n_real == 8
        assert record.fake_wins == 3
        assert record.real_wins == 5
        assert win_rate(record) == 0.5

    def test_boundary_scores_favour_the_generator(self):
        class Exactly(StepDiscriminator):
            def judge(self, batch, rng=None):
                return np.full(len(batch), 0.5)

        record = self.play(FixedGenerator(), Exactly(0))
        assert record.fake_wins == 8 and record.real_wins == 8
        assert win_rate(record) == 1.0

    def test_all_fake_verdict_gives_exactly_half(self):
        class AllFake(StepDiscriminator):
            def judge(self, batch, rng=None):
                return np.zeros(len(batch))

        record = self.play(FixedGenerator(), AllFake(0))
        assert record.fake_wins == 0 and record.real_wins == 8
        assert win_rate(record) == 0.5

    def test_custom_threshold_changes_counting(self):
        record = self.play(FixedGenerator(), StepDiscriminator(high=8),
                           threshold=0.95)
        assert record.fake_wins == 0      # 0.9 < 0.95
        assert record.real_wins == 8      # 0.9 <= 0.95

    def test_record_carries_the_match_seed(self):
        record = self.play(FixedGenerator(), StepDiscriminator(2))
        assert record.seed == match_seed(7, "g", "d", 0)

    def test_a_player_cannot_play_itself(self):
        with pytest.raises(ValueError, match="cannot play itself"):
            self.play(FixedGenerator(), StepDiscriminator(2),
                      discriminator_id="g")

    def test_is_the_record_run_tournament_logs(self):
        config, built, schedule = mixed_population()
        schedule = explicit_schedule(m for m in schedule.matches
                                     if m[0] != "bad")
        settings = run_settings(config)
        assert [play_match(built.players[g], built.players[d], built.data,
                           generator_id=g, discriminator_id=d,
                           tournament_seed=settings.seed, repeat=r,
                           batch_size=settings.batch_size,
                           threshold=settings.threshold)
                for g, d, r in schedule.matches] == list(run_tournament(
                    schedule, built.players, built.data, settings))

    def test_identical_calls_are_bit_identical(self):
        first = self.play(FixedGenerator(), StepDiscriminator(2))
        second = self.play(FixedGenerator(), StepDiscriminator(2))
        assert first == second

    @pytest.mark.parametrize("bad_batch, message", [
        (np.zeros((3, 2)), "batch shape"),            # wrong count
        (np.zeros(8), "batch shape"),                 # wrong rank
        (np.full((8, 2), np.nan), "non-finite"),      # NaNs
    ])
    def test_bad_generator_batches_raise(self, bad_batch, message):
        class Bad:
            def sample(self, count, rng):
                return bad_batch

        code = "fake-shape" if message == "batch shape" else "fake-nonfinite"
        with pytest.raises(MatchError, match=f"^{code}: .*{message}") as info:
            self.play(Bad(), StepDiscriminator(2))
        assert info.value.code == code

    def test_dimension_mismatch_raises(self):
        with pytest.raises(MatchError, match="^dim-mismatch: .*dim") as info:
            self.play(FixedGenerator(dim=3), StepDiscriminator(2),
                      data=FixedGenerator(dim=2))
        assert info.value.code == "dim-mismatch"

    @pytest.mark.parametrize("scores, message", [
        (np.full(7, 0.5), "shape"),                   # short reply
        (np.full((8, 1), 0.5), "shape"),              # wrong rank
        (np.full(8, 1.5), "outside"),                 # above 1
        (np.full(8, -0.1), "outside"),                # below 0
        (np.full(8, np.inf), "non-finite"),
    ])
    def test_bad_scores_raise(self, scores, message):
        class Bad:
            def judge(self, batch, rng=None):
                return scores

        code = "scores-shape" if message == "shape" else "scores-range"
        with pytest.raises(MatchError, match=f"^{code}: .*{message}") as info:
            self.play(FixedGenerator(), Bad())
        assert info.value.code == code


class TestRunTournament:
    def players(self):
        return {"g1": FixedGenerator(), "g2": FixedGenerator(),
                "bad": BrokenPlayer(), "d1": StepDiscriminator(2)}

    def test_records_follow_schedule_order(self):
        schedule = round_robin(["g1", "g2"], ["d1"], repeats=2)
        records = run_tournament(schedule, self.players(), FixedGenerator(),
                                 RunSettings(seed=1, batch_size=4))
        assert [(r.generator_id, r.discriminator_id) for r in records] == \
            [("g1", "d1"), ("g1", "d1"), ("g2", "d1"), ("g2", "d1")]

    def test_sink_sees_every_record_in_order(self):
        schedule = round_robin(["g1", "g2"], ["d1"])
        seen = []
        records = list(run_tournament(
            schedule, self.players(), FixedGenerator(),
            RunSettings(seed=1, batch_size=4), sink=sink_into(seen.extend)))
        assert seen == records

    def test_fatal_mode_propagates_failures(self):
        schedule = round_robin(["g1", "bad"], ["d1"])
        with pytest.raises(RuntimeError, match="deliberately broken"):
            run_tournament(schedule, self.players(), FixedGenerator(),
                           RunSettings(seed=1, batch_size=4))

    def test_skip_mode_drops_only_the_failing_matches(self):
        schedule = round_robin(["g1", "bad", "g2"], ["d1"])
        failures = []
        records = run_tournament(
            schedule, self.players(), FixedGenerator(),
            RunSettings(seed=1, batch_size=4),
            sink=sink_into(failures=failures))
        assert sorted(r.generator_id for r in records) == ["g1", "g2"]
        assert [match for match, _ in failures] == [("bad", "d1", 0)]

    def test_missing_player_is_fatal_or_skipped(self):
        schedule = explicit_schedule([("absent", "d1")])
        with pytest.raises(MatchError, match="^player-error: KeyError: "
                                             "'absent'$"):
            run_tournament(schedule, self.players(), FixedGenerator(),
                           RunSettings(seed=1, batch_size=4))
        records = list(run_tournament(
            schedule, self.players(), FixedGenerator(),
            RunSettings(seed=1, batch_size=4), sink=sink_into(failures=[])))
        assert records == []


def mixed_population(repeats: int = 1):
    """Chekhov, oracle and forgetting panels (with judge_many), a constant
    judge and a step judge (without), a real-data generator and a
    generator that always raises; the schedule is a full round robin."""
    entries = [{"kind": "toy_trajectory", "experiment": kind,
                "n_checkpoints": 4, "mastery_fraction": 0.5,
                "discriminators": kind, "trajectory_seed": 21 + i,
                "panel_seed": 5, "chekhov_capacity": 2}
               for i, kind in enumerate(["chekhov", "oracle", "forgetting"])]
    entries += [{"kind": "constant", "id": "const", "value": 0.25},
                {"kind": "real_data", "id": "data"}]
    config = parse_config(tiny_config_payload(
        players=entries, schedule={"kind": "round_robin",
                                   "repeats": repeats}))
    built = build_players(config)
    built.players["step"] = StepDiscriminator(3)
    built.players["bad"] = BrokenPlayer()
    specs = [*built.specs, spec("step", "discriminator"),
             spec("bad", "generator")]
    return config, built, build_schedule(config, specs)


def reference_match(generator, discriminator, data, gen_id, disc_id,
                    settings, repeat=0):
    """One match played batch by batch, apart from grouped play: draw the
    fake and the real batch, judge each with one ``judge`` call on the
    match's judging stream and count the wins. Batches or scores that play
    would reject fail an assertion."""
    seed = match_seed(settings.seed, gen_id, disc_id, repeat)
    size, threshold = settings.batch_size, settings.threshold
    fake, real = (np.asarray(player.sample(
        size, np.random.default_rng([seed, lane])), dtype=float)
        for player, lane in ((generator, tn.FAKE), (data, tn.REAL)))
    assert fake.ndim == 2 and fake.shape == real.shape == (size,
                                                           fake.shape[1])
    assert np.isfinite(fake).all() and np.isfinite(real).all()
    judge_rng = np.random.default_rng([seed, tn.JUDGE])
    fake_scores, real_scores = (np.asarray(discriminator.judge(
        batch, judge_rng), dtype=float) for batch in (fake, real))
    for scores in (fake_scores, real_scores):
        assert scores.shape == (size,)
        assert ((scores >= 0.0) & (scores <= 1.0)).all()
    return MatchRecord(gen_id, disc_id, size,
                       int(np.count_nonzero(fake_scores >= threshold)), size,
                       int(np.count_nonzero(real_scores <= threshold)),
                       seed, threshold)


def replayed(schedule, players, data, settings, skip=()):
    """Every match through ``reference_match``, in schedule order, except
    those whose (generator, discriminator, repeat) is in ``skip``."""
    return [reference_match(players[g], players[d], data, g, d, settings, r)
            for g, d, r in schedule.matches if (g, d, r) not in skip]


class FlakyPanel:
    """A toy panel whose judge_many fails on one call only: it raises,
    answers the wrong number of rows or rows of the wrong width, or scores
    one batch out of range or NaN."""

    def __init__(self, disc, failing_call: int, mode: str):
        self.disc = disc
        self.failing_call = failing_call
        self.mode = mode
        self.calls = 0

    def judge_many(self, batches, rngs):
        self.calls += 1
        scores = self.disc.judge_many(batches, rngs)
        if self.calls != self.failing_call:
            return scores
        if self.mode == "raise":
            raise RuntimeError("panel crashed")
        if self.mode == "rows":
            return scores[:-1]
        if self.mode == "width":
            return scores[:, :-1]
        scores[-1, 0] = 1.5 if self.mode == "range" else np.nan
        return scores


class TestGroupedPlay:
    # 182 matches a repeat: six repeats cross the first full-size window.
    @pytest.mark.parametrize("window, repeats", [(1, 1), (7, 1), (50, 1),
                                                 (tn.WINDOW, 6)])
    def test_records_are_those_of_play_match_in_schedule_order(
            self, window, repeats, monkeypatch):
        config, built, schedule = mixed_population(repeats)
        schedule = explicit_schedule(m for m in schedule.matches
                                     if m[0] != "bad")
        assert len(schedule) > window
        settings = run_settings(config)
        expected = replayed(schedule, built.players, built.data, settings)
        assert [play_match(built.players[g], built.players[d], built.data,
                           generator_id=g, discriminator_id=d,
                           tournament_seed=settings.seed, repeat=r,
                           batch_size=settings.batch_size,
                           threshold=settings.threshold)
                for g, d, r in schedule.matches] == expected
        monkeypatch.setattr(tn, "WINDOW", window)
        seen = []
        records = list(run_tournament(schedule, built.players, built.data,
                                      settings, sink=sink_into(seen.extend)))
        assert records == expected
        assert seen == expected

    def test_a_raising_generator_loses_only_its_own_matches(self,
                                                             monkeypatch):
        config, built, schedule = mixed_population()
        settings = run_settings(config)
        bad = {m for m in schedule.matches if m[0] == "bad"}
        monkeypatch.setattr(tn, "WINDOW", 40)
        failures = []
        records = list(run_tournament(schedule, built.players, built.data,
                                      settings, sink_into(failures=failures)))
        assert records == replayed(schedule, built.players, built.data,
                                   settings, skip=bad)
        assert {match for match, _ in failures} == bad
        assert len(failures) == len(bad) == 14

    @pytest.mark.parametrize("mode, lost", [("raise", "window"),
                                            ("rows", "window"),
                                            ("width", "window"),
                                            ("range", "match"),
                                            ("nan", "match")])
    def test_a_failing_judge_many_loses_only_its_window(self, mode, lost,
                                                        monkeypatch):
        reason = {"raise": "player-error: RuntimeError: panel crashed",
                  "rows": "scores-shape: scores of shape (",
                  "width": "scores-shape: scores of shape (",
                  "range": "scores-range: ",
                  "nan": "scores-range: "}[mode]
        config, built, schedule = mixed_population()
        schedule = explicit_schedule(m for m in schedule.matches
                                     if m[0] != "bad")
        settings = run_settings(config)
        reference = dict(built.players)
        built.players["oracle-d01"] = FlakyPanel(
            built.players["oracle-d01"], failing_call=2, mode=mode)
        window = 20
        monkeypatch.setattr(tn, "WINDOW", window)
        # The flaky panel's matches in the second window that has any.
        starts = sorted({i // window for i, m in enumerate(schedule.matches)
                         if m[1] == "oracle-d01"})
        victims = [m for i, m in enumerate(schedule.matches)
                   if m[1] == "oracle-d01" and i // window == starts[1]]
        if lost == "match":
            victims = victims[-1:]
        failures = []
        records = list(run_tournament(schedule, built.players, built.data,
                                      settings, sink_into(failures=failures)))
        assert len(victims) >= (1 if lost == "match" else 2)
        assert records == replayed(schedule, reference, built.data, settings,
                                   skip=set(victims))
        assert [match for match, _ in failures] == victims
        for _, error in failures:
            assert str(error).startswith(reason)

    def test_fatal_failure_leaves_a_schedule_order_prefix(self,
                                                          monkeypatch):
        config, built, schedule = mixed_population()
        settings = run_settings(config)
        first_bad = next(i for i, m in enumerate(schedule.matches)
                         if m[0] == "bad")
        window = 9
        monkeypatch.setattr(tn, "WINDOW", window)
        seen = []
        with pytest.raises(RuntimeError, match="deliberately broken"):
            run_tournament(schedule, built.players, built.data, settings,
                           sink=sink_into(seen.extend))
        done = schedule.matches[:first_bad // window * window]
        assert seen == replayed(explicit_schedule(done), built.players,
                                built.data, settings)

    def test_a_fatal_failure_in_the_second_window_logs_the_first(
            self, tmp_path, monkeypatch):
        # The log gets a window's lines only once the window is done, so a
        # killed or failed run keeps every finished window, whole.
        config, built, schedule = mixed_population()
        settings = run_settings(config)
        good = [m for m in schedule.matches if m[0] != "bad"]
        bad = next(m for m in schedule.matches if m[0] == "bad")
        window = 9
        monkeypatch.setattr(tn, "WINDOW", window)
        matches = good[:window + 4] + [bad] + good[window + 4:3 * window]
        header = store.LogHeader("feed", 1)
        path = tmp_path / "log.jsonl"
        with closing(store.LogWriter(path, header)) as sink:
            with pytest.raises(RuntimeError, match="deliberately broken"):
                run_tournament(explicit_schedule(matches), built.players,
                               built.data, settings, sink=sink_into(sink))
        first = replayed(explicit_schedule(good[:window]), built.players,
                         built.data, settings)
        assert path.read_text().splitlines(keepends=True) == [
            line + "\n" for line in (store.header_line(header),
                                     *map(record_line, first))]

    @pytest.mark.parametrize("window, solves", [(tn.WINDOW, 1), (38, 2)])
    def test_one_solve_per_window_for_a_chekhov_group(self, window, solves,
                                                      monkeypatch):
        # Play-mix sized: a dim-8 task, batch 64, a 10-reference chekhov
        # judge facing 76 generators. Engine 2 whitens where engine 1
        # solved: one pass per window over the fake and the real batch of
        # every match in it, one einsum per model of the panel.
        task = toy.make_task(dim=8, seed=13)
        gens = toy.trajectory(task, 25, seed=3)
        disc = toy.chekhov_discriminator(task, gens, 24, seed=7)
        assert len(disc.fake_models) == 11
        players = {f"g{i:02d}": gens[i % 25] for i in range(76)}
        players["chk"] = disc
        schedule = round_robin([f"g{i:02d}" for i in range(76)], ["chk"])
        settings = RunSettings(seed=3, batch_size=64)
        calls = []
        einsum = np.einsum

        def counting_einsum(*args, **kwargs):
            calls.append(args)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(tn, "WINDOW", window)
        monkeypatch.setattr(np, "einsum", counting_einsum)
        records = list(run_tournament(schedule, players, task.model, settings))
        assert len(calls) == 12 * solves
        assert sum(args[1].shape[0] for args in calls) == 12 * 2 * 76
        assert all(args[1].shape[1:] == (64, 8) for args in calls)
        monkeypatch.setattr(np, "einsum", einsum)
        assert records == replayed(schedule, players, task.model, settings)

    @pytest.mark.parametrize("window", [tn.WINDOW, 38])
    def test_no_solve_or_factorization_during_play(self, window,
                                                   monkeypatch):
        # Play-mix sized: a dim-8 task, batch 64, a 10-reference chekhov
        # judge facing 76 generators, beside every panel kind of the mixed
        # population.
        task = toy.make_task(dim=8, seed=13)
        gens = toy.trajectory(task, 25, seed=3)
        disc = toy.chekhov_discriminator(task, gens, 24, seed=7)
        assert len(disc.fake_models) == 11
        players = {f"g{i:02d}": gens[i % 25] for i in range(76)}
        players["chk"] = disc
        schedule = round_robin([f"g{i:02d}" for i in range(76)], ["chk"])
        settings = RunSettings(seed=3, batch_size=64)
        config, built, mixed = mixed_population()
        mixed = explicit_schedule(m for m in mixed.matches if m[0] != "bad")
        expected = (replayed(schedule, players, task.model, settings),
                    replayed(mixed, built.players, built.data,
                             run_settings(config)))

        def forbidden(*args, **kwargs):
            raise AssertionError("linear algebra during play")

        monkeypatch.setattr(tn, "WINDOW", window)
        for name in ("solve", "inv", "cholesky", "det", "slogdet", "qr",
                     "svd", "eigh", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        assert (list(run_tournament(schedule, players, task.model, settings)),
                list(run_tournament(mixed, built.players, built.data,
                                    run_settings(config)))) == expected


def assert_no_judging_stream_is_seeded(monkeypatch, keep):
    """Play the mixed population's matches against the discriminators that
    ``keep`` selects: each seeds only its fake and its real stream, and
    the records are the reference's."""
    config, built, schedule = mixed_population()
    kept = explicit_schedule(m for m in schedule.matches
                             if keep(m[1]) and m[0] != "bad")
    settings = run_settings(config)
    expected = replayed(kept, built.players, built.data, settings)
    lanes = []
    stream = seeding.stream

    def recording(state, seed, lane):
        lanes.append(lane)
        return stream(state, seed, lane)

    monkeypatch.setattr(seeding, "stream", recording)
    assert list(run_tournament(kept, built.players, built.data,
                               settings)) == expected
    assert sorted(set(lanes)) == [tn.FAKE, tn.REAL]
    assert len(lanes) == 2 * len(kept)


class RecordingStreams:
    """A panel that records the judging streams it is handed, and the state
    each was in when the call began."""

    def __init__(self, disc):
        self.disc = disc
        self.calls = []

    def judge(self, batch, rng):
        return self.disc.judge(batch, rng)

    def judge_many(self, batches, rngs):
        self.calls.append((rngs, [r.bit_generator.state for r in rngs]))
        return self.disc.judge_many(batches, rngs)


class TestJudgeStreams:
    def test_a_mastered_panel_gets_each_match_judging_stream_twice(self):
        config, built, schedule = mixed_population()
        panel = RecordingStreams(built.players["forgetting-d03"])
        assert panel.disc.mastered
        built.players["forgetting-d03"] = panel
        matches = [m for m in schedule.matches if m[1] == "forgetting-d03"
                   and m[0] != "bad"]
        schedule = explicit_schedule(matches)
        settings = run_settings(config)
        records = list(run_tournament(schedule, built.players, built.data,
                                      settings))
        assert records == replayed(schedule, built.players, built.data,
                                   settings)
        ((rngs, states),) = panel.calls
        assert len(rngs) == 2 * len(matches)
        for k, (gen_id, disc_id, repeat) in enumerate(matches):
            fresh = np.random.default_rng(
                [match_seed(settings.seed, gen_id, disc_id, repeat), 2])
            assert states[2 * k] == fresh.bit_generator.state
            assert rngs[2 * k] is rngs[2 * k + 1]
        assert rngs[-1] is rngs[len(rngs) - 1]
        assert rngs[::2] == [rngs[i] for i in range(0, len(rngs), 2)]
        with pytest.raises(IndexError):
            rngs[len(rngs)]

    def test_oracle_and_chekhov_groups_seed_no_judging_stream(
            self, monkeypatch):
        assert_no_judging_stream_is_seeded(
            monkeypatch, lambda d: d.startswith(("oracle-", "chekhov-")))


class RecordingJudge:
    """A discriminator without ``judge_many``. It records each batch's
    first value with the stream it is handed and that stream's state,
    draws one number from the stream, and scores a batch whose first value
    is in ``bad`` out of range."""

    def __init__(self, bad=()):
        self.bad = set(bad)
        self.calls = []

    def judge(self, batch, rng):
        self.calls.append((batch[0, 0], rng, rng.bit_generator.state))
        rng.random()
        return np.full(len(batch), 1.5 if batch[0, 0] in self.bad else 0.25)


class TestJudgeOnlyBranch:
    settings = RunSettings(seed=5, batch_size=4)
    schedule = round_robin(["g1", "g2", "g3"], ["d"])

    def play(self, judge, failures=None):
        players = {"g1": FixedGenerator(1.0), "g2": FixedGenerator(2.0),
                   "g3": FixedGenerator(3.0), "d": judge}
        sink = sink_into(failures=[] if failures is None else failures)
        return list(run_tournament(self.schedule, players, FixedGenerator(0.0),
                                   self.settings, sink))

    def test_judge_calls_go_fake_then_real_match_by_match(self):
        judge = RecordingJudge()
        records = self.play(judge)
        assert [value for value, _, _ in judge.calls] == [1, 0, 2, 0, 3, 0]
        reference = {"g1": FixedGenerator(1.0), "g2": FixedGenerator(2.0),
                     "g3": FixedGenerator(3.0), "d": RecordingJudge()}
        assert records == replayed(self.schedule, reference,
                                   FixedGenerator(0.0), self.settings)

    def test_a_failed_fake_batch_costs_its_match_and_no_real_request(self):
        judge = RecordingJudge(bad={2.0})
        failures = []
        records = self.play(judge, failures)
        assert [value for value, _, _ in judge.calls] == [1, 0, 2, 3, 0]
        assert [r.generator_id for r in records] == ["g1", "g3"]
        assert [match for match, _ in failures] == [("g2", "d", 0)]

    def test_each_match_judges_both_batches_on_its_own_stream(self):
        judge = RecordingJudge()
        self.play(judge)
        for k, (gen_id, disc_id, repeat) in enumerate(self.schedule.matches):
            (_, fake_rng, fake_state), (_, real_rng, real_state) = \
                judge.calls[2 * k:2 * k + 2]
            fresh = np.random.default_rng(
                [match_seed(self.settings.seed, gen_id, disc_id, repeat),
                 tn.JUDGE])
            assert real_rng is fake_rng
            assert fake_state == fresh.bit_generator.state
            fresh.random()
            assert real_state == fresh.bit_generator.state
        assert len({id(rng) for _, rng, _ in judge.calls}) == 3

    def test_a_constant_group_seeds_no_judging_stream(self, monkeypatch):
        assert_no_judging_stream_is_seeded(
            monkeypatch, lambda d: d == "const")


class Scripted(DrawsMany):
    """A generator, data source or discriminator whose batches and scores
    are functions of the sample count; ``judge_many`` is set only for a
    panel, and scores every batch with ``judge``."""

    def __init__(self, batch=None, scores=None, panel=False):
        self.batch = batch or (lambda count: np.zeros((count, 2)))
        self.scores = scores or (lambda count: np.full(count, 0.25))
        if panel:
            self.judge_many = lambda batches, rngs: np.stack(
                [self.judge(b, r) for b, r in zip(batches, rngs)])

    def sample(self, count, rng):
        return self.batch(count)

    def judge(self, batch, rng=None):
        return self.scores(len(batch))


def crash(count):
    raise RuntimeError("deliberately broken")


# Faults of the one match "g" vs "d", each with the code it must fail under:
# every code of FAULTS, then pairs of faults, which pin the precedence.
# "start" is an external generator command that cannot be started.
FAULT_TABLE = [
    ({"fake": lambda n: np.zeros((n - 1, 2))}, "fake-shape"),
    ({"fake": lambda n: np.full((n, 2), np.nan)}, "fake-nonfinite"),
    ({"real": lambda n: np.zeros(n)}, "real-shape"),
    ({"real": lambda n: np.full((n, 2), -np.inf)}, "real-nonfinite"),
    ({"fake": lambda n: np.zeros((n, 3))}, "dim-mismatch"),
    ({"scores": lambda n: np.full(n + 1, 0.25)}, "scores-shape"),
    ({"scores": lambda n: np.full(n, np.nan)}, "scores-range"),
    ({"start": ["/nonexistent/player"]}, "player-start"),
    ({"fake": crash}, "player-error"),
    ({"real": crash}, "player-error"),
    ({"scores": crash}, "player-error"),
    # Shapes before finiteness, and the fake batch before the real one.
    ({"fake": lambda n: np.full((n, 2), np.nan),
      "real": lambda n: np.zeros((n, 3, 1))}, "real-shape"),
    ({"fake": lambda n: np.zeros((n, 3)),
      "real": lambda n: np.full((n, 2), np.nan)}, "dim-mismatch"),
    ({"fake": lambda n: np.full((n, 2), np.nan),
      "real": lambda n: np.full((n, 2), np.nan)}, "fake-nonfinite"),
    ({"fake": lambda n: np.zeros((n + 1, 2)), "real": crash}, "fake-shape"),
]


class TestFaults:
    def test_the_table_lists_every_code(self):
        assert {code for _, code in FAULT_TABLE} == set(tn.FAULTS)

    def test_fatal_mode_raises_the_first_failure_in_schedule_order(self):
        # The d1 group is played first, but its failure is scheduled last.
        players = {"g": Scripted(), "crash": Scripted(crash),
                   "short": Scripted(lambda n: np.zeros((n - 1, 2))),
                   "d1": Scripted(), "d2": Scripted()}
        schedule = explicit_schedule([("g", "d1"), ("short", "d2"),
                                      ("crash", "d1")])
        with pytest.raises(MatchError) as info:
            run_tournament(schedule, players, Scripted(),
                           RunSettings(seed=1, batch_size=4))
        assert info.value.code == "fake-shape"

    @pytest.mark.parametrize("panel", [False, True],
                             ids=["judge", "judge_many"])
    @pytest.mark.parametrize("fault, code", FAULT_TABLE,
                             ids=[f"{'+'.join(f)}:{c}"
                                  for f, c in FAULT_TABLE])
    def test_a_fault_fails_its_match_under_its_code(self, fault, code, panel,
                                                    capsys):
        # Played through cli._play, which starts the external players and
        # then plays the schedule through run_tournament.
        from arena import cli

        config = parse_config(tiny_config_payload(batch_size=4))
        schedule = explicit_schedule([("g", "d")])

        def play(strict: bool):
            built = cfgmod.BuiltPlayers(
                task=None, data=Scripted(fault.get("real")),
                players={"g": Scripted(fault.get("fake")),
                         "d": Scripted(scores=fault.get("scores"),
                                       panel=panel)},
                specs=[])
            if "start" in fault:
                built.external.append({"id": "g", "role": "generator",
                                       "command": fault["start"]})
            return list(cli._play(config, built, schedule, strict))

        with pytest.raises(MatchError) as info:
            play(strict=True)
        assert info.value.code == code
        assert str(info.value).startswith(f"{code}: ")
        assert play(strict=False) == []
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith(
            "warning: external player 'g' could not be started, its 1 "
            f"matches are skipped: {code}: " if "start" in fault else
            f"warning: skipping match g vs d (repeat 0): {code}: ")


class ListedReals:
    """A data source whose ``sample_many`` returns a list of batches."""

    def __init__(self, model):
        self.model = model

    def sample_many(self, count, rngs):
        return list(self.model.sample_many(count, rngs))


class TestGroupDraw:
    @pytest.mark.parametrize("reals", ["array", "list"])
    @pytest.mark.parametrize("fault, code",
                             [case for case in FAULT_TABLE
                              if "start" not in case[0]],
                             ids=[f"{'+'.join(f)}:{c}" for f, c in FAULT_TABLE
                                  if "start" not in f])
    def test_a_fault_fails_under_its_code_with_one_real_draw(self, fault,
                                                              code, reals):
        data = Scripted(fault.get("real"))
        data.sample_many = lambda count, rngs: (np.stack if reals == "array"
                                                else list)(
            [data.sample(count, rng) for rng in rngs])
        players = {"g": Scripted(fault.get("fake")),
                   "d": Scripted(scores=fault.get("scores"), panel=True)}
        with pytest.raises(MatchError) as info:
            run_tournament(explicit_schedule([("g", "d")]), players, data,
                           RunSettings(seed=1, batch_size=4))
        assert info.value.code == code

    @pytest.mark.parametrize("reals", ["one array", "list"])
    def test_each_bad_fake_loses_only_its_match(self, reals):
        task = toy.make_task(dim=2, seed=13)
        gens = toy.trajectory(task, 4, seed=3)
        players = {f"g{i}": gen for i, gen in enumerate(gens)}
        players.update({"wide": FixedGenerator(dim=3),
                        "nan": FixedGenerator(np.nan),
                        "short": Scripted(lambda n: np.zeros((n - 1, 2))),
                        "bad": BrokenPlayer(),
                        "d": toy.OracleDiscriminator(
                            task.model, [gens[1].density_model(task)])})
        data = task.model if reals == "one array" else ListedReals(task.model)
        order = ["g0", "wide", "g1", "nan", "g2", "short", "g3", "bad"]
        schedule = explicit_schedule((g, "d", r) for r in range(2)
                                     for g in order)
        settings = RunSettings(seed=5, batch_size=16)
        failures = []
        records = list(run_tournament(schedule, players, data, settings,
                                      sink_into(failures=failures)))
        bad = {"wide": "dim-mismatch", "nan": "fake-nonfinite",
               "short": "fake-shape", "bad": "player-error"}
        assert records == replayed(schedule, players, task.model, settings,
                                   skip={m for m in schedule.matches
                                         if m[0] in bad})
        assert [(match, error.code) for match, error in failures] == [
            (m, bad[m[0]]) for m in schedule.matches if m[0] in bad]

    def test_a_data_source_without_sample_many_loses_its_matches(self):
        # Real batches are drawn only by sample_many; there is no fallback
        # to one sample call per match.
        class PerMatch:
            def sample(self, count, rng):
                return np.zeros((count, 2))

        players = {"g": FixedGenerator(), "d": StepDiscriminator(1)}
        failures = []
        records = run_tournament(
            explicit_schedule([("g", "d"), ("g", "d", 1)]), players,
            PerMatch(), RunSettings(seed=1, batch_size=4),
            sink_into(failures=failures))
        assert len(records) == 0
        assert [(match, error.code) for match, error in failures] == [
            (("g", "d", 0), "player-error"), (("g", "d", 1), "player-error")]
        assert "'PerMatch' object has no attribute 'sample_many'" in str(
            failures[0][1])

    def test_a_data_source_whose_dim_changes_loses_the_group(self):
        class Drifting(DrawsMany):
            calls = 0

            def sample(self, count, rng):
                self.calls += 1
                return np.zeros((count, 2 + (self.calls > 1)))

        players = {"g2": FixedGenerator(dim=2), "g3": FixedGenerator(dim=3),
                   "d": StepDiscriminator(1)}
        failures = []
        records = run_tournament(
            explicit_schedule([("g2", "d"), ("g3", "d")]), players,
            Drifting(), RunSettings(seed=1, batch_size=4),
            sink_into(failures=failures))
        assert len(records) == 0
        assert [(match, str(error)) for match, error in failures] == [
            (m, "dim-mismatch: the group's batches differ in dim")
            for m in (("g2", "d", 0), ("g3", "d", 0))]
