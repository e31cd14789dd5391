#!/usr/bin/env python3
"""Time and peak memory of `arena rate` on a synthetic round-robin log.

    python3 scripts/rerate_memory.py --players N --runs K SRC [SRC ...]

Each SRC is a directory that holds an ``arena`` package (the ``src``
directory of a checkout). The script writes one N x N round-robin log
(N generators against N discriminators, one record per pair, so N**2
records): an arena-log/1 header line, which it writes itself as the
benchmark's rerate-200 log has one, then the records, through the first
tree's ``store.LogWriter``. Every judged sample is a generator win with
probability sigmoid(skill(generator) - skill(discriminator)), skills
drawn from a fixed seed, 64 fake and 64 real samples a match. It then
runs ``python -m arena.cli rate LOG`` (no ``--out-dir``) K times under
each tree, with that tree on ``PYTHONPATH`` and one BLAS thread, pinned
to one core. Runs alternate between the
trees, and every other round runs them in reverse order. Each run's wall
time (spawn to exit) and peak RSS (``ru_maxrss``) are printed, then each
tree's medians. Exits 1 if a run fails or the trees print different
reports, else 0.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import closing

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SEED = 1
BATCH = 64


def write_log(path: str, players: int, src: str) -> None:
    """The synthetic N x N log: a header line that names no players, then
    one generator's records per write, through the arena package in
    ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from arena import store, tournament

    rng = np.random.default_rng(SEED)
    tournament_seed = int(rng.integers(1, 2 ** 31 - 1))
    gens = [f"syn-g{i:04d}" for i in range(players)]
    discs = [f"syn-d{i:04d}" for i in range(players)]
    gen_skill = rng.standard_normal(players)
    disc_skill = rng.standard_normal(players)
    with open(path, "w") as fh:
        fh.write(json.dumps({"config_hash": f"{players:016x}",
                             "format": "arena-log/1", "seed": tournament_seed},
                            sort_keys=True, separators=(",", ":")) + "\n")
    with closing(store.LogWriter(path)) as writer:
        for gen_id, skill in zip(gens, gen_skill.tolist()):
            p = 1.0 / (1.0 + np.exp(disc_skill - skill))
            fake_wins = rng.binomial(BATCH, p).tolist()
            real_wins = rng.binomial(BATCH, p).tolist()
            writer([tournament.MatchRecord(
                gen_id, disc_id, BATCH, fake, BATCH, real,
                tournament.match_seed(tournament_seed, gen_id, disc_id, 0))
                for disc_id, fake, real in zip(discs, fake_wins, real_wins)])


def rate(src: str, log: str, out_path: str) -> tuple[float, float, int]:
    """One ``arena rate`` run: wall seconds, peak RSS in MiB, exit code."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p)
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "arena.cli", "rate", log], env=env,
            stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--players", type=int, required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("srcs", nargs="+", metavar="SRC")
    args = parser.parse_args(argv)
    if args.players < 1 or args.runs < 1:
        parser.error("--players and --runs must be at least 1")
    for src in args.srcs:
        if not os.path.isfile(os.path.join(src, "arena", "cli.py")):
            parser.error(f"{src} holds no arena package")
    # Every child inherits the one core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    failed = False
    samples: dict[str, list[tuple[float, float]]] = {
        src: [] for src in args.srcs}
    reports: set[bytes] = set()
    with tempfile.TemporaryDirectory(prefix="rerate-memory-") as work:
        log = os.path.join(work, "log.jsonl")
        # A child's ru_maxrss starts from the RSS of the process that
        # spawned it, so this one never imports numpy: the log is written
        # in a fresh interpreter of its own.
        writer = multiprocessing.get_context("spawn").Process(
            target=write_log, args=(log, args.players, args.srcs[0]))
        writer.start()
        writer.join()
        if writer.exitcode != 0:
            print(f"writing the log failed: exit {writer.exitcode}")
            return 1
        print(f"log: {args.players ** 2} records, "
              f"{os.path.getsize(log) / 2 ** 20:.1f} MiB")
        out_path = os.path.join(work, "stdout")
        for run in range(args.runs):
            order = args.srcs if run % 2 == 0 else args.srcs[::-1]
            for src in order:
                wall, peak, code = rate(src, log, out_path)
                with open(out_path, "rb") as fh:
                    reports.add(fh.read())
                samples[src].append((wall, peak))
                failed |= code != 0
                print(f"run {run + 1} {src}: {wall:.3f} s, {peak:.1f} MiB"
                      + (f", exit {code}" if code else ""))
    for src, runs in samples.items():
        print(f"median {src}: {statistics.median(w for w, _ in runs):.3f} s,"
              f" {statistics.median(p for _, p in runs):.1f} MiB")
    if len(reports) > 1:
        print("the trees printed different reports")
    return 1 if failed or len(reports) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
