"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import arena
from arena import store, summarize, toy
from arena.tournament import MatchRecord, MatchTable


# Tolerances of the whitened densities of engine 2 against the solve-based
# reference of engine 1, fixed before the change was measured: scores
# absolute, log densities relative to max(1, |reference|).
SCORE_ATOL = 1e-12
DENSITY_RTOL = 1e-11

# Characters for hypothesis text strategies: quote, backslash, control
# characters (the seed-part separator 0x1f among them), ASCII, non-ASCII BMP
# characters and one astral character. An explicit alphabet keeps hypothesis
# from building its unicode category table while it draws, which on a fresh
# checkout is slow enough to fail the too_slow health check.
TEXT_ALPHABET = ('"\\\x00\t\n\x1f\x7f aZ09:,{}'
                 '\u00e9\u00df\u2028\u4e2d\uffff\U0001f600')


def gaussian_log_density(x: np.ndarray, mean: np.ndarray,
                         factor: np.ndarray) -> np.ndarray:
    """Log density of rows of x under N(mean, factor.T @ factor), by a
    solve: the density path of engine 1.

    factor is upper triangular with positive diagonal; the quadratic form is
    evaluated by solving against factor.T, so no inverse is ever formed.
    Stacked means (K, d) and factors (K, d, d) give (K, n) from one solve
    call, each row bit-identical to the single-model (n,) result. x may
    carry leading batch dimensions, (m, n, d) giving (K, m, n): the solve
    then loops over (K, m) items, each the same LAPACK call as one batch.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("non-finite input to gaussian_log_density")
    dim = mean.shape[-1]
    ones = (1,) * (x.ndim - 2)
    mean = mean.reshape(mean.shape[:-1] + ones + mean.shape[-1:])
    factor = factor.reshape(factor.shape[:-2] + ones + factor.shape[-2:])
    centered = np.swapaxes(x - mean[..., None, :], -1, -2)
    z = np.linalg.solve(np.swapaxes(factor, -1, -2), centered)
    quad = np.einsum("...ij,...ij->...j", z, z)
    log_det = 2.0 * np.log(np.diagonal(factor, 0, -2, -1)).sum(-1)
    return -0.5 * (quad + log_det[..., None] + dim * math.log(2.0 * math.pi))


def reference_score(data_model, fake_models, batch) -> np.ndarray:
    """The engine-1 oracle score, bit for bit: one solve-based density call
    per model, the fake densities stacked with np.stack, a max-shifted
    log-mean-exp and a saturating logistic. toy.OracleDiscriminator.score
    whitens instead of solving; it agrees to SCORE_ATOL."""
    def density(model):
        return gaussian_log_density(batch, model.mean, model.factor)

    ld_data = density(data_model)
    stacked = np.stack([density(m) for m in fake_models])
    top = stacked.max(axis=0)
    ld_fake = (top + np.log(np.exp(stacked - top).sum(axis=0))
               - math.log(len(stacked)))
    x = ld_data - ld_fake
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, ex) / (1.0 + ex)


class DrawsMany:
    """``sample_many`` for a test player that can also stand in as the
    data source: its ``sample``, once per generator."""

    def sample_many(self, count, rngs):
        return [self.sample(count, rng) for rng in rngs]


def win_rate(record) -> float:
    """Fraction of a record's judged samples the generator won."""
    return (record.fake_wins + record.real_wins) / (record.n_fake
                                                    + record.n_real)


def left_to_right_mean(values) -> float:
    """Mean with the terms summed left to right; Python 3.12's sum() uses
    compensated summation instead."""
    total = 0
    for value in values:
        total += value
    return total / len(values)


def reference_pair_win_rates(records) -> dict[tuple[str, str], float]:
    """The dict-of-lists pair means: each record with judged samples adds
    its win rate to its pair's list, in record order."""
    totals: dict[tuple[str, str], list[float]] = {}
    for record in records:
        if record.n_fake + record.n_real > 0:
            key = (record.generator_id, record.discriminator_id)
            totals.setdefault(key, []).append(win_rate(record))
    return {key: left_to_right_mean(rates) for key, rates in totals.items()}


def record_line(record: MatchRecord) -> str:
    """The record's log line, without its newline, as ``store.LogWriter``
    writes it from a table that holds the record."""
    return store._table_lines(MatchTable.from_records([record]), {})[:-1]


def tournament_win_rate(table: MatchTable) -> dict[str, float]:
    """Average win rate of each generator over the discriminators it
    played, the ``win_rate`` ``summarize`` reports: repeats of a pairing
    are averaged first, and generators without judged matches are absent.
    """
    return summarize._generator_rates(summarize._pair_rates(table))


def reference_tournament_win_rate(pairs) -> dict[str, float]:
    by_gen: dict[str, list[float]] = {}
    for (gen_id, _), rate in pairs.items():
        by_gen.setdefault(gen_id, []).append(rate)
    return {gen_id: left_to_right_mean(rates)
            for gen_id, rates in by_gen.items()}


def reference_heatmap_values(pairs, generator_ids, discriminator_ids):
    """One row per discriminator, NaN where the pair is absent."""
    return np.array([[pairs.get((gen_id, disc_id), math.nan)
                      for gen_id in generator_ids]
                     for disc_id in discriminator_ids],
                    dtype=float).reshape(len(discriminator_ids),
                                         len(generator_ids))


def round_robin_table(k: int) -> MatchTable:
    """k generators against k discriminators, 32 judged samples a record."""
    rng = np.random.default_rng(0)
    gen, disc = (a.ravel() for a in np.meshgrid(np.arange(k), np.arange(k),
                                                indexing="ij"))
    n = np.full(len(gen), 16)
    return MatchTable.from_columns(
        [f"g{i}" for i in range(k)] + [f"d{i}" for i in range(k)],
        gen, disc + k, n, rng.binomial(n, 0.6), n, rng.binomial(n, 0.4),
        np.zeros(len(gen), np.uint64), np.full(len(gen), 0.5))


def tiny_config_payload(**overrides) -> dict:
    """A small but complete tournament config that runs in well under a
    second: a 4-checkpoint trajectory with its oracle panel on a dim-3 task.
    """
    payload = {
        "seed": 5,
        "batch_size": 8,
        "task": {"dim": 3, "seed": 13},
        "players": [
            {
                "kind": "toy_trajectory",
                "experiment": "tiny",
                "n_checkpoints": 4,
                "mastery_fraction": 1.0,
                "discriminators": "oracle",
                "trajectory_seed": 21,
                "panel_seed": 5,
            },
        ],
        "schedule": {"kind": "round_robin"},
    }
    payload.update(overrides)
    return payload


def column_means(hm) -> dict[str, float]:
    """Mean of the defined cells in each generator column of a heatmap."""
    means = {}
    for j, gen_id in enumerate(hm.generator_ids):
        cells = [v for v in hm.values[:, j].tolist() if not math.isnan(v)]
        if cells:
            means[gen_id] = sum(cells) / len(cells)
    return means


def write_yaml(path, payload) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


def fresh_python(*argv, env: dict | None = None,
                 **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a new interpreter that imports this arena,
    with ``env`` added to its environment."""
    src = str(Path(arena.__file__).parents[1])
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, argv)], env=env,
                          capture_output=True, text=True, **kwargs)


@pytest.fixture
def small_task() -> toy.GaussianTask:
    return toy.make_task(dim=3, seed=13)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(99)
