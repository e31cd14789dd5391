"""The rating engine's exact bits, pinned.

``rating_bits.json`` holds, for each table below, the ``float.hex`` of every
player's rating, deviation and volatility, of every entry of
``RatingOutcome.shifts``, and the number of passes. ``test_glicko.py``
holds the engine to the scalar reference within relative 1e-9; this file
catches any change that moves a last bit, such as a reordered expression
in the pass.

The rule: the table is re-pinned only together with a declared change to
the ratings, named in CHANGES.md. ``python tests/test_rating_bits.py
--write`` re-pins it from the current tree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from arena.glicko import RatingConfig, rate_tournament
from arena.tournament import MatchTable

TABLE = Path(__file__).with_name("rating_bits.json")


def synthetic_table(k: int = 30) -> MatchTable:
    """k generators against k discriminators of seeded skills: about 70% of
    the pairs, each with 0 to 32 judged samples a side, so some records
    add no games."""
    rng = np.random.default_rng(2029)
    skill = rng.normal(0.0, 1.0, 2 * k)
    gen, disc = (a.ravel() for a in np.meshgrid(np.arange(k), np.arange(k),
                                                indexing="ij"))
    kept = rng.random(len(gen)) < 0.7
    gen, disc = gen[kept], disc[kept] + k
    p = 1.0 / (1.0 + np.exp(skill[disc] - skill[gen]))
    n_fake, n_real = rng.integers(0, 33, (2, len(gen)))
    return MatchTable.from_columns(
        [f"g{i:02d}" for i in range(k)] + [f"d{i:02d}" for i in range(k)],
        gen, disc, n_fake, rng.binomial(n_fake, p), n_real,
        rng.binomial(n_real, p), np.zeros(len(gen), np.uint64),
        np.full(len(gen), 0.5))


def saturated_table() -> MatchTable:
    """g1 plays five discriminators and g2 one. Under the hold config one
    per-match game carries less than the information floor, so g2 takes the
    hold branch while g1 moves."""
    gen = np.zeros(6, np.intp)
    gen[5] = 1
    disc = np.array([0, 1, 2, 3, 4, 0]) + 2
    return MatchTable.from_columns(
        ["g1", "g2"] + [f"d{i}" for i in range(5)], gen, disc,
        np.full(6, 16), [12] * 5 + [3], np.full(6, 16), [10] * 5 + [2],
        np.zeros(6, np.uint64), np.full(6, 0.5))


CASES = {
    "synthetic 30x30 per-sample": (synthetic_table,
                                   RatingConfig(outcome_mode="per-sample")),
    "synthetic 30x30 per-match": (synthetic_table,
                                  RatingConfig(outcome_mode="per-match")),
    "saturated hold": (saturated_table,
                       RatingConfig(outcome_mode="per-match",
                                    default_deviation=1e7)),
}


def bits(name: str) -> dict:
    build, cfg = CASES[name]
    outcome = rate_tournament(build(), cfg)
    return {"passes": outcome.passes,
            "shifts": [shift.hex() for shift in outcome.shifts],
            "ratings": {pid: [r.rating.hex(), r.deviation.hex(),
                              r.volatility.hex()]
                        for pid, r in outcome.ratings.items()}}


def test_the_table_pins_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_ratings_keep_their_bits(name):
    assert bits(name) == json.loads(TABLE.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    TABLE.write_text(json.dumps({name: bits(name) for name in CASES},
                                indent=1, sort_keys=True) + "\n")
