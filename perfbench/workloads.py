"""Seeded inputs and closed-form ground truth for the benchmark workloads.

Every workload is derived from one integer seed. The program under test only
ever sees the generated config or log; the ground truth (checkpoint moments
for play workloads, latent skills for the synthetic log) stays here.

The trajectory and task formulas below restate the toy domain's documented
closed forms (``make_task``, ``trajectory``, ``mastery_index``) with plain
numpy, so the benchmark's correctness check does not lean on helpers the
package may later remove.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

DIM = 8
BATCH = 64
JITTER = 1e-6


@dataclass
class Workload:
    """Generated inputs of one workload run.

    ``argv`` is the arena command line of the timed command with ``{out}``
    standing for its output directory; ``setup_argv`` is the set-up command.
    ``truth`` maps generator ids to a ground-truth quality (higher is better).
    ``panels`` maps discriminator ids to their panel kind and ``evals`` to the
    component log-densities one judged sample costs.
    """

    name: str
    argv: list[str]
    setup_argv: list[str]
    scheduled: int
    truth: dict[str, float]
    log_path: str | None = None
    panels: dict[str, str] = field(default_factory=dict)
    evals: dict[str, int] = field(default_factory=dict)

    def command(self, out_dir: str) -> list[str]:
        return [a.replace("{out}", out_dir) for a in self.argv]


def _seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 0x5EED])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def _task(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, covariance, upper factor) of the toy task for ``seed``."""
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(dim)
    a = rng.standard_normal((dim, dim))
    raw = a.T @ a
    raw += JITTER * np.trace(raw) / dim * np.eye(dim)
    factor = np.linalg.cholesky(raw).T
    return mean, factor.T @ factor, factor


def _sqrtm_psd(cov: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def frechet(mean1, cov1, mean2, cov2) -> float:
    """Frechet distance between two Gaussians (covariances may be singular)."""
    root = _sqrtm_psd(cov1)
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(root @ cov2 @ root), 0.0,
                            None)).sum()
    diff = mean1 - mean2
    return max(float(diff @ diff + np.trace(cov1) + np.trace(cov2)
                     - 2.0 * cross), 0.0)


def mastery_index(n: int, fraction: float) -> int:
    return math.ceil(fraction * (n - 1))


def trajectory_truth(entry: dict, task_seed: int,
                     dim: int) -> dict[str, float]:
    """Negative Frechet distance of each checkpoint's Gaussian to the task."""
    mean, cov, factor = _task(dim, task_seed)
    n = entry["n_checkpoints"]
    fraction = entry.get("mastery_fraction", 1.0)
    rng = np.random.default_rng([entry["trajectory_seed"], task_seed])
    w0 = 0.05 * rng.standard_normal((dim, dim))
    denom = fraction * (n - 1)
    truth = {}
    for k in range(n):
        t = min(1.0, k / denom)
        weights = (1.0 - t) * w0 + t * factor
        truth[f"{entry['experiment']}-g{k:02d}"] = -frechet(
            t * mean, weights.T @ weights, mean, cov)
    return truth


def _panel_costs(entry: dict) -> tuple[dict[str, str], dict[str, int]]:
    """Panel kind and log-densities per judged sample of each discriminator.

    An oracle scores with the data model and one fake model; a chekhov
    discriminator with the data model plus a reservoir of at most
    ``chekhov_capacity`` earlier checkpoints and the current one; a mastered
    forgetting discriminator answers with noise and evaluates none.
    """
    kind = entry["discriminators"]
    n = entry["n_checkpoints"]
    capacity = entry.get("chekhov_capacity", 10)
    mastered = mastery_index(n, entry.get("mastery_fraction", 1.0))
    panels, evals = {}, {}
    for k in range(n):
        pid = f"{entry['experiment']}-d{k:02d}"
        panels[pid] = kind
        if kind == "chekhov":
            evals[pid] = min(k, capacity) + 2
        elif kind == "forgetting" and k >= mastered:
            evals[pid] = 0
        else:
            evals[pid] = 2
    return panels, evals


def _play_workload(name: str, work_dir: str, seed: int, entries: list[dict],
                   externals: list[dict] = ()) -> Workload:
    tournament_seed, task_seed = _seeds(seed, 2)
    config = {
        "seed": tournament_seed,
        "batch_size": BATCH,
        "task": {"dim": DIM, "seed": task_seed},
        "players": entries + list(externals),
        "schedule": {"kind": "round_robin"},
    }
    path = os.path.join(work_dir, f"{name}.cfg")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    truth, panels, evals = {}, {}, {}
    for entry in entries:
        truth.update(trajectory_truth(entry, task_seed, DIM))
        p, e = _panel_costs(entry)
        panels.update(p)
        evals.update(e)
    per_role = sum(e["n_checkpoints"] for e in entries)
    n_gens = per_role + sum(e["role"] == "generator" for e in externals)
    n_discs = per_role + sum(e["role"] == "discriminator" for e in externals)
    return Workload(
        name=name,
        argv=["run", "--config", path, "--out-dir", "{out}"],
        setup_argv=["schedule", "--config", path],
        scheduled=n_gens * n_discs,
        truth=truth, panels=panels, evals=evals)


def external_pair() -> list[dict]:
    """The reference external generator and discriminator, one process each."""
    return [{"kind": "external", "id": f"ref-{role[0]}", "role": role,
             "command": [sys.executable, "-m", "arena.ref_player",
                         "--role", role, "--dim", str(DIM)]}
            for role in ("generator", "discriminator")]


PLAY_CHECKPOINTS = 25


def play_mix(work_dir: str, seed: int) -> Workload:
    """Chekhov, oracle and forgetting trajectories plus the external pair.

    Every panel kind and the external protocol play in one 76 x 76 round
    robin: the chekhov panel's mixture judging is the heaviest single cost,
    and the cheap oracle and forgetting matches expose per-match engine
    overhead, log writes and the rating pass.
    """
    chk_traj, chk_panel, ora_traj, fgt_traj, fgt_panel = _seeds(seed + 1, 5)
    n = PLAY_CHECKPOINTS
    entries = [
        {"kind": "toy_trajectory", "experiment": "chk", "n_checkpoints": n,
         "discriminators": "chekhov", "trajectory_seed": chk_traj,
         "panel_seed": chk_panel},
        {"kind": "toy_trajectory", "experiment": "ora", "n_checkpoints": n,
         "discriminators": "oracle", "trajectory_seed": ora_traj},
        {"kind": "toy_trajectory", "experiment": "fgt", "n_checkpoints": n,
         "mastery_fraction": 0.5, "discriminators": "forgetting",
         "trajectory_seed": fgt_traj, "panel_seed": fgt_panel},
    ]
    return _play_workload("play-mix", work_dir, seed, entries,
                          external_pair())


def match_seed(tournament_seed: int, gen_id: str, disc_id: str,
               repeat: int) -> int:
    """The package's documented per-match seed: blake2b-64 of the parts."""
    digest = hashlib.blake2b(digest_size=8)
    for part in (tournament_seed, gen_id, disc_id, repeat):
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


RERATE_PLAYERS = 200


def rerate_200(work_dir: str, seed: int) -> Workload:
    """A 200 x 200 round-robin log drawn from a logistic skill model.

    Each judged sample is a generator win with probability
    sigmoid(skill(generator) - skill(discriminator)).
    """
    rng = np.random.default_rng([seed, 0x10C])
    tournament_seed = int(rng.integers(1, 2**31 - 1))
    n = RERATE_PLAYERS
    gens = [f"syn-g{i:03d}" for i in range(n)]
    discs = [f"syn-d{i:03d}" for i in range(n)]
    gen_skill = rng.standard_normal(n)
    disc_skill = rng.standard_normal(n)
    p = 1.0 / (1.0 + np.exp(-(gen_skill[:, None] - disc_skill[None, :])))
    fake_wins = rng.binomial(BATCH, p)
    real_wins = rng.binomial(BATCH, p)
    header = {"config_hash": hashlib.sha256(
        f"rerate-200/{seed}".encode()).hexdigest()[:16],
        "format": "arena-log/1", "seed": tournament_seed}
    log_path = os.path.join(work_dir, "rerate-200.jsonl")
    header_path = os.path.join(work_dir, "rerate-200.header.jsonl")
    dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with open(header_path, "w") as fh:
        fh.write(dump(header) + "\n")
    with open(log_path, "w") as fh:
        fh.write(dump(header) + "\n")
        for i, gen_id in enumerate(gens):
            for j, disc_id in enumerate(discs):
                fh.write(dump({
                    "discriminator_id": disc_id,
                    "fake_wins": int(fake_wins[i, j]),
                    "generator_id": gen_id,
                    "n_fake": BATCH,
                    "n_real": BATCH,
                    "real_wins": int(real_wins[i, j]),
                    "seed": match_seed(tournament_seed, gen_id, disc_id, 0),
                    "threshold": 0.5,
                }) + "\n")
    return Workload(
        name="rerate-200",
        argv=["rate", log_path, "--out-dir", "{out}"],
        setup_argv=["rate", header_path],
        scheduled=n * n,
        truth=dict(zip(gens, gen_skill.tolist())),
        log_path=log_path)


WORKLOADS = {
    "play-mix": play_mix,
    "rerate-200": rerate_200,
}
