"""The random streams of a window of matches, seeded in one array pass.

A match draws from one stream per lane, and the stream of a match seeded
``seed`` on lane ``lane`` is ``numpy.random.default_rng([seed, lane])``.
Building each of those on its own spends most of its time in numpy's
``SeedSequence``, which hashes one seed at a time in numpy scalar
arithmetic. ``pcg64_states`` runs the same hash over every seed of a window
at once, on uint32 arrays, and ``stream`` turns one precomputed state into
the very Generator ``default_rng`` would give, bit for bit.

Importing this module loads ``numpy.random``; only play imports it, so a
command that does not play (``arena rate``) never pays for that import.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

# The constants of numpy's SeedSequence: the pool is four uint32 words, the
# entropy is mixed into it with the A constants and the output state is
# drawn from it with the B constants.
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = np.uint32(16)


def _hasher(const: int, mult: int):
    """SeedSequence's running hash from ``const``: each call hashes an array
    of words with the next value of the constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    return hashmix


def pcg64_states(seeds: Sequence[int], lanes: int) -> np.ndarray:
    """``SeedSequence([seed, lane]).generate_state(4, np.uint64)`` for every
    64-bit seed and every lane below ``lanes``, shape
    ``(len(seeds), lanes, 4)``.

    The entropy of ``[seed, lane]`` is the seed's uint32 words, low word
    first (one word below 2**32, two from there on), then the lane; the
    pool is that, padded with zeros, so every row runs the same steps.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    low = (seeds & np.uint64(_MASK)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    lane = np.arange(lanes, dtype=np.uint32)
    two_words = high > 0
    zero = np.zeros_like(lane)
    entropy = [np.broadcast_to(low, (len(seeds), lanes)),
               np.where(two_words, high, lane),
               np.where(two_words, lane, zero),
               np.broadcast_to(zero, (len(seeds), lanes))]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = (np.uint32(_MIX_L) * pool[dst]
                         - np.uint32(_MIX_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[i % _POOL]) for i in range(2 * _POOL)],
                     axis=-1)
    # Two words to a uint64, low word first, as SeedSequence reads them.
    return words.astype("<u4").view("<u8").astype(np.uint64, copy=False)


class HashedSeed(ISpawnableSeedSequence):
    """The ``SeedSequence([seed, lane])`` of a stream whose PCG64 state is
    already hashed. It hands that state to PCG64, and builds the real
    sequence only for anything else, such as ``spawn``, so children come
    out as ``default_rng([seed, lane]).spawn`` gives them, repeated spawns
    included."""

    __slots__ = ("_state", "_entropy", "_sequence")

    def __init__(self, state: np.ndarray, seed: int, lane: int):
        self._state = state
        self._entropy = (seed, lane)
        self._sequence: SeedSequence | None = None

    def _real(self) -> SeedSequence:
        if self._sequence is None:
            self._sequence = SeedSequence(list(self._entropy))
        return self._sequence

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:  # what PCG64 asks for
            return self._state
        return self._real().generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list[SeedSequence]:
        return self._real().spawn(n_children)


def stream(state: np.ndarray, seed: int, lane: int) -> Generator:
    """``default_rng([seed, lane])``, from its ``pcg64_states`` row. Every
    Generator of a match is built here."""
    return Generator(PCG64(HashedSeed(state, seed, lane)))


class LazyStream:
    """``stream(state, seed, lane)``, built when it is first used."""

    __slots__ = ("_args", "_rng")

    def __init__(self, state: np.ndarray, seed: int, lane: int):
        self._args = (state, seed, lane)
        self._rng: Generator | None = None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = stream(*self._args)
        return getattr(self._rng, name)
