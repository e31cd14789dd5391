"""Benchmark of the arena CLI: two workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload play-mix --seed 1 --seconds 50 \
        --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory. Every workload command runs as a user runs it, through
``python -m arena.cli`` in a fresh process with ``OPENBLAS_NUM_THREADS=1``
and ``OMP_NUM_THREADS=1``. See NOTES.md for the metrics and the checks.

The benchmark and every process it starts are pinned to one core. With
``--trace 0`` each repeat runs the speed probe, the set-up command and the
workload command, until ``--seconds`` have passed (at least two repeats);
the end-to-end metrics are medians over repeats, with times put on the
reference machine's speed through the probe. With ``--trace 1`` the
workload runs once untraced and then, until ``--seconds`` have passed,
under ``trace_cli.py``; the per-layer metrics are medians over the traced
repeats. The last line of standard output is the result object; the line
before it records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PROBE = os.path.join(HERE, "probe.py")
# Median wall time of probe.py on one core of the 2-core reference machine.
# Timings are reported at that machine speed; see NOTES.md.
PROBE_REFERENCE_S = 0.8
COMMAND_TIMEOUT = 120.0
MIN_REPEATS = 2
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A workload command failed or an output check did not hold."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log_prefix: str) -> tuple[float, float, str]:
    """Run one fresh process to completion.

    Returns (wall seconds from spawn to reap, peak RSS in MiB, stderr text).
    Standard output and error go to files so that no pipe can fill up.
    """
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(COMMAND_TIMEOUT, os.kill,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[-6:])} exited {proc.returncode}: "
                         f"{stderr[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0, stderr


def arena(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "arena.cli", *args]


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_summary(path: str) -> dict[str, dict[str, str]]:
    with open(path, newline="") as fh:
        return {row["id"]: row for row in csv.DictReader(fh)}


def ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties sharing their average rank."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    starts = np.r_[True, sorted_vals[1:] != sorted_vals[:-1]]
    group = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    last = np.r_[first[1:], len(values)] - 1
    out = np.empty(len(values))
    out[order] = (first[group] + last[group]) / 2.0 + 1.0
    return out


def spearman(xs, ys) -> float:
    rx, ry = ranks(np.asarray(xs, float)), ranks(np.asarray(ys, float))
    return float(np.corrcoef(rx, ry)[0, 1])


def rank_spearman(summary: dict, truth: dict[str, float]) -> float:
    ids = sorted(truth)
    missing = [pid for pid in ids if pid not in summary]
    if missing:
        raise BenchError(f"summary.csv lacks generators {missing[:4]}")
    return spearman([float(summary[pid]["rating"]) for pid in ids],
                    [truth[pid] for pid in ids])


def logged_records(w: workloads.Workload, out_dir: str, stderr: str) -> int:
    """Records the command produced (play) or rated (rerate)."""
    if w.log_path is None:
        with open(os.path.join(out_dir, "log.jsonl"), "rb") as fh:
            return sum(1 for _ in fh) - 1
    skipped = sum(1 for line in stderr.splitlines()
                  if line.startswith(f"warning: {w.log_path}:"))
    return w.scheduled - skipped


def output_hash(w: workloads.Workload, out_dir: str) -> str:
    """The play log, or for re-rating the ratings it produced."""
    name = "summary.csv" if w.log_path is not None else "log.jsonl"
    return sha256(os.path.join(out_dir, name))


def median(values) -> float:
    return float(statistics.median(values))


def timed_loop(seconds: float, step) -> list:
    """Call step(i) at least MIN_REPEATS times, then again while the next
    call is expected to end less than half a call past ``seconds``."""
    samples, start = [], time.perf_counter()
    while True:
        samples.append(step(len(samples)))
        elapsed = time.perf_counter() - start
        if (len(samples) >= MIN_REPEATS
                and elapsed * (1.0 + 0.5 / len(samples)) > seconds):
            return samples


def run_untraced(w: workloads.Workload, work: str, seconds: float):
    spawn(arena(w.setup_argv), os.path.join(work, "warmup"))

    def probe(i) -> float:
        return spawn([sys.executable, PROBE],
                     os.path.join(work, f"probe{i}"))[0]

    def step(i):
        probe_s = probe(i)
        setup_s, _, _ = spawn(arena(w.setup_argv),
                              os.path.join(work, f"setup{i}"))
        out = os.path.join(work, f"out{i}")
        total_s, rss, stderr = spawn(arena(w.command(out)),
                                     os.path.join(work, f"run{i}"))
        records = logged_records(w, out, stderr)
        return {"probe_s": probe_s, "setup_s": setup_s, "total_s": total_s,
                "peak_rss_mb": rss, "records": records,
                "records_per_s": records / (total_s - setup_s),
                "hash": output_hash(w, out)}

    reps = timed_loop(seconds, step)
    probes = [r["probe_s"] for r in reps] + [probe(len(reps))]
    problems = check_repeats(w, reps)
    summary = read_summary(os.path.join(work, "out0", "summary.csv"))
    if w.log_path is None:
        problems += check_replay(w, work, summary)
    raw = {name: median(r[name] for r in reps)
           for name in ("setup_s", "total_s", "records_per_s")}
    speed = PROBE_REFERENCE_S / median(probes)
    metrics = {
        "setup_s": (raw["setup_s"] * speed, "s"),
        "total_s": (raw["total_s"] * speed, "s"),
        "records_per_s": (raw["records_per_s"] / speed, "1/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in reps), "MiB"),
        "completed_ratio": (reps[0]["records"] / w.scheduled, "ratio"),
        "rank_spearman": (rank_spearman(summary, w.truth), "rho"),
    }
    detail = {"raw_medians": raw, "probe_s": probes, "speed_factor": speed,
              "repeats": reps}
    attempted = w.scheduled * len(reps)
    failed = attempted - sum(r["records"] for r in reps)
    return metrics, problems, attempted, failed, detail


def check_repeats(w: workloads.Workload, reps: list[dict]) -> list[str]:
    problems = []
    for i, r in enumerate(reps):
        if r["records"] != w.scheduled:
            problems.append(f"repeat {i}: {r['records']} records for "
                            f"{w.scheduled} scheduled matches")
    if len({r["hash"] for r in reps}) != 1:
        problems.append("output sha256 differs between repeats of one seed")
    return problems


def check_replay(w: workloads.Workload, work: str, summary: dict) -> list[str]:
    """An untimed `arena rate` of the log must reproduce the run's ratings."""
    out = os.path.join(work, "replay")
    spawn(arena(["rate", os.path.join(work, "out0", "log.jsonl"),
                 "--out-dir", out]), os.path.join(work, "replay"))
    replay = read_summary(os.path.join(out, "summary.csv"))
    fields = ("rating", "deviation", "volatility")
    project = lambda table: {pid: tuple(row[f] for f in fields)
                             for pid, row in table.items()}
    if project(replay) != project(summary):
        return ["arena rate of the run's log does not reproduce "
                "summary.csv rating/deviation/volatility"]
    return []


PLAY_CALLS = ("toy.sample", "toy.judge.", "extern.request", "store.write")
EXACT_COUNTS = ("toy.density_evals", "glicko.passes", "glicko.games",
                "store.bytes_written", "store.bytes_read", "extern.requests")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, from its spans and counts."""
    spans, counts = trace["spans"], trace["counts"]
    names = [s[0] for s in spans]

    def inside(index: int, name: str) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if names[parent] == name:
                return True
            parent = spans[parent][3]
        return False

    def durations(pred):
        return [s[2] - s[1] for s in spans if pred(s[0])]

    def busy(name: str) -> float:
        # Time in outermost spans of this name, so nested calls count once.
        return sum((s[2] - s[1] for i, s in enumerate(spans)
                    if s[0] == name
                    and not inside(i, name)), 0.0)

    def count(name: str) -> int:
        return counts.get(name, 0)

    def pct_ms(name: str, q: float) -> float:
        values = durations(lambda n: n == name)
        return float(np.percentile(values, q)) * 1e3 if values else 0.0

    play_s = busy("tournament.play")
    in_calls = sum(
        s[2] - s[1] for i, s in enumerate(spans)
        if s[0].startswith(PLAY_CALLS)
        and inside(i, "tournament.play"))
    judges = durations(lambda n: n.startswith("toy.judge."))
    played = count("tournament.matches")
    m = {
        "cli.import_s": trace["import_s"],
        "config.load_s": busy("config.load"),
        "config.build_s": busy("config.build"),
        "config.schedule_s": busy("config.schedule"),
        "config.players": count("config.players"),
        "toy.sample_s": busy("toy.sample"),
        "toy.sample_calls": names.count("toy.sample"),
        "toy.judge_calls": len(judges),
        "toy.judged_samples": count("toy.judged_samples"),
        "toy.density_evals": count("toy.density_evals"),
        "tournament.play_s": play_s,
        "tournament.self_s": play_s - in_calls,
        "tournament.matches": played,
        "tournament.failed": count("tournament.scheduled") - played,
        "tournament.match_ms.p50": pct_ms("tournament.match", 50),
        "tournament.match_ms.p99": pct_ms("tournament.match", 99),
        "store.write_s": busy("store.write"),
        "store.records_written": count("store.records_written"),
        "store.bytes_written": count("store.bytes_written"),
        "store.read_s": busy("store.read"),
        "store.records_read": count("store.records_read"),
        "store.bytes_read": count("store.bytes_read"),
        "glicko.rate_s": busy("glicko.rate"),
        "glicko.passes": count("glicko.passes"),
        "glicko.games": count("glicko.games"),
        "glicko.player_updates": count("glicko.player_updates"),
        "glicko.converged": count("glicko.converged"),
        "summarize.summarize_s": busy("summarize.summarize"),
        "summarize.write_s": busy("summarize.write"),
        "summarize.bytes_written": count("summarize.bytes_written"),
        "extern.spawn_s": busy("extern.spawn"),
        "extern.requests": names.count("extern.request"),
        "extern.request_s": busy("extern.request"),
        "extern.request_ms.p50": pct_ms("extern.request", 50),
        "extern.request_ms.p99": pct_ms("extern.request", 99),
        "extern.close_s": busy("extern.close"),
    }
    for kind in ("oracle", "chekhov", "forgetting"):
        m[f"toy.judge_s.{kind}"] = busy(f"toy.judge.{kind}")
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_ms." in name:
        return "ms"
    if name.startswith(("store.bytes", "summarize.bytes")):
        return "bytes"
    return "count"


def run_traced(w: workloads.Workload, work: str, seconds: float):
    panels_path = os.path.join(work, "panels.json")
    with open(panels_path, "w") as fh:
        json.dump({pid: [kind, w.evals[pid]]
                   for pid, kind in w.panels.items()}, fh)
    spawn(arena(w.setup_argv), os.path.join(work, "warmup"))
    plain = os.path.join(work, "plain")
    plain_s, _, stderr = spawn(arena(w.command(plain)), plain)
    plain_hash = output_hash(w, plain)
    problems = []
    if logged_records(w, plain, stderr) != w.scheduled:
        problems.append("untraced run did not log every scheduled match")

    def step(i):
        out = os.path.join(work, f"traced{i}")
        trace_path = out + ".trace.json"
        total_s, _, stderr = spawn(
            [sys.executable, os.path.join(HERE, "trace_cli.py"), trace_path,
             panels_path, "--", *w.command(out)], out)
        with open(trace_path) as fh:
            trace = json.load(fh)
        if not trace["arena_file"].startswith(SRC + os.sep):
            raise BenchError(f"traced run imported {trace['arena_file']}")
        return {"total_s": total_s, "hash": output_hash(w, out),
                "records": logged_records(w, out, stderr),
                "layers": layer_metrics(trace)}

    reps = timed_loop(seconds, step)
    problems += check_repeats(w, reps)
    if reps[0]["hash"] != plain_hash:
        problems.append("traced output differs from the untraced output")
    layers = [r["layers"] for r in reps]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if layer_unit(name) in ("s", "ms"):
            metrics[name] = (median(values), layer_unit(name))
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} drifts between repeats: "
                                f"{values} (nondeterminism)")
            metrics[name] = (values[0], layer_unit(name))
    metrics["trace.overhead_s"] = (
        median(r["total_s"] for r in reps) - plain_s, "s")
    detail = {"untraced_total_s": plain_s,
              "traced_total_s": [r["total_s"] for r in reps],
              "exact_counts": {n: metrics[n][0] for n in EXACT_COUNTS}}
    attempted = w.scheduled * len(reps)
    failed = attempted - sum(r["records"] for r in reps)
    return metrics, problems, attempted, failed, detail


def environment(nproc: int, cpu: int) -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "arena"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            digest.update(sha256(path).encode())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "pinned_cpu": cpu,
        "child_env": THREAD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arena", "cli.py")):
        print(f"error: no arena package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    # Pin this process, and with it every process it starts, to one core.
    # On the shared reference machine this cut the spread of one command's
    # repeated wall time within a run from about 9% to about 3%.
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        w = workloads.WORKLOADS[args.workload](work, args.seed)
        runner = run_traced if args.trace else run_untraced
        metrics, problems, attempted, failed, detail = runner(
            w, work, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "environment": environment(nproc, cpu),
                      "problems": problems, **detail}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
