"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import yaml

from arena import toy


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
        cells = [row[j] for row in hm.values if row[j] is not None]
        if cells:
            means[gen_id] = sum(cells) / len(cells)
    return means


def write_yaml(path, payload) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


@pytest.fixture
def small_task() -> toy.GaussianTask:
    return toy.make_task(dim=3, seed=13)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(99)
