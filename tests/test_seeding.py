"""Window seeding, pinned to numpy's own SeedSequence and default_rng."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.random import SeedSequence

from arena import seeding
from arena import tournament as tn

LANES = (tn.FAKE, tn.REAL, tn.JUDGE)
# Both entropy lengths (one uint32 word below 2**32, two from there on) and
# their ends.
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


def assert_pinned(seeds):
    """Every seed's states are SeedSequence's, and its streams are
    ``default_rng([seed, lane])`` in state and in draws."""
    states = seeding.pcg64_states(seeds, len(LANES))
    assert states.shape == (len(seeds), len(LANES), 4)
    assert states.dtype == np.uint64
    for seed, row in zip(seeds, states):
        for lane in LANES:
            assert np.array_equal(
                row[lane], SeedSequence([seed, lane]).generate_state(
                    4, np.uint64))
            ours = seeding.stream(row[lane], seed, lane)
            theirs = np.random.default_rng([seed, lane])
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert np.array_equal(ours.random(5), theirs.random(5))
            assert np.array_equal(ours.integers(1 << 63, size=3),
                                  theirs.integers(1 << 63, size=3))


class TestStates:
    def test_edge_seeds(self):
        assert_pinned(EDGE_SEEDS)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=12))
    def test_drawn_seeds(self, seeds):
        assert_pinned(seeds)

    @given(st.lists(st.integers(0, 2 ** 32 + 5), max_size=12))
    def test_drawn_seeds_around_one_word(self, seeds):
        assert_pinned(seeds)

    def test_a_window_of_match_seeds(self):
        assert_pinned([tn.match_seed(7, f"g{i}", f"d{i % 5}", i % 3)
                       for i in range(60)])

    def test_each_lane_below_the_count(self):
        seeds = [3, 2 ** 40]
        wide = seeding.pcg64_states(seeds, 5)
        assert np.array_equal(wide[:, :3], seeding.pcg64_states(seeds, 3))
        assert np.array_equal(
            wide[1, 4], SeedSequence([2 ** 40, 4]).generate_state(4,
                                                                  np.uint64))


class TestHashedSeed:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("lane", LANES)
    def test_spawn_gives_the_children_of_default_rng(self, seed, lane):
        (row,) = seeding.pcg64_states([seed], len(LANES))
        ours = seeding.stream(row[lane], seed, lane)
        theirs = np.random.default_rng([seed, lane])
        # Repeated spawns go on numbering the children.
        for count in (2, 1, 3):
            for mine, numpys in zip(ours.spawn(count), theirs.spawn(count),
                                    strict=True):
                assert mine.bit_generator.state == \
                    numpys.bit_generator.state
                assert np.array_equal(mine.random(4), numpys.random(4))
        mine, numpys = (g.bit_generator.seed_seq.spawn(1)[0]
                        for g in (ours, theirs))
        assert (mine.entropy, mine.spawn_key) == \
            (numpys.entropy, numpys.spawn_key)

    def test_any_other_state_comes_from_the_real_sequence(self):
        (row,) = seeding.pcg64_states([2 ** 50 + 9], len(LANES))
        state = row[tn.REAL]
        hashed = seeding.HashedSeed(state, 2 ** 50 + 9, tn.REAL)
        real = SeedSequence([2 ** 50 + 9, tn.REAL])
        assert hashed.generate_state(4, np.uint64) is state
        for n_words, dtype in ((4, np.uint32), (8, np.uint64),
                               (2, np.uint64)):
            assert np.array_equal(hashed.generate_state(n_words, dtype),
                                  real.generate_state(n_words, dtype))


class TestLazyStream:
    def test_built_once_on_first_use(self, monkeypatch):
        seed = tn.match_seed(2, "g", "d", 0)
        (row,) = seeding.pcg64_states([seed], len(LANES))
        built = []
        stream = seeding.stream

        def recording(*args):
            built.append(args[1:])
            return stream(*args)

        monkeypatch.setattr(seeding, "stream", recording)
        lazy = seeding.LazyStream(row[tn.JUDGE], seed, tn.JUDGE)
        assert built == []
        reference = np.random.default_rng([seed, tn.JUDGE])
        assert np.array_equal(lazy.random(3), reference.random(3))
        assert np.array_equal(lazy.normal(size=2), reference.normal(size=2))
        assert built == [(seed, tn.JUDGE)]
