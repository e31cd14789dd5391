#!/usr/bin/env python3
"""Check that two source trees give byte-identical `arena` outputs.

    python3 scripts/same_outputs.py BASE_SRC NEW_SRC INPUT...

BASE_SRC and NEW_SRC are directories that hold an ``arena`` package (the
``src`` directory of two checkouts). Each input is a config, a config and
a players fragment joined by ``+`` (``CONFIG+FRAGMENT``), a match log (a
``.jsonl`` file) or the name of a bundled experiment (``distortion``,
``multi``, ...). A config is run once under each tree, as
``python -m arena.cli run --config CONFIG --out-dir DIR``, and its
schedule is shown once, as ``python -m arena.cli schedule --config
CONFIG``, which writes no file; a ``CONFIG+FRAGMENT`` is so run and
shown, and its log is then extended once, as
``python -m arena.cli extend LOG --add FRAGMENT --out-dir DIR``; a log is
re-rated twice under each tree, as ``python -m arena.cli rate LOG
--out-dir DIR`` and again with ``--outcome-mode per-match``; an
experiment is run once under each tree, as ``python -m arena.cli simulate
NAME --out-dir DIR``. Every command
runs with that tree on ``PYTHONPATH`` and one BLAS thread, into a fresh
temporary directory. Every file a command writes (for an extend, the
extended log too), its stdout and stderr with the output directory
masked, and its exit code are compared byte for byte. The script lists
what differs, each with the number of its first line that differs, and
exits 1 if anything does, else 0.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MASK = b"<out-dir>"
# The experiments ``arena simulate`` bundles (``arena.cli.EXPERIMENTS``).
EXPERIMENTS = ("within", "banded", "chekhov", "distortion", "multi")


def commands(path: str) -> list[list[list[str]]]:
    """The arena commands run on one input, each a list of steps run in
    order, each step without ``--out-dir``, which every command but
    ``schedule`` takes. ``{log}`` in a step stands for the log the first
    step wrote."""
    if path in EXPERIMENTS:
        return [[["simulate", path]]]
    if path.endswith(".jsonl"):
        return [[["rate", path]],
                [["rate", path, "--outcome-mode", "per-match"]]]
    config, _, fragment = path.partition("+")
    steps = [["run", "--config", config]]
    if fragment:
        steps.append(["extend", "{log}", "--add", fragment])
    return [steps, [["schedule", "--config", config]]]


def run(src: str, steps: list[list[str]], out_dir: str) -> dict[str, bytes]:
    """The outputs of one command: each file its steps wrote, by its path
    below ``out_dir``, as the last step left it, plus the masked stdout
    and stderr and the exit code of each step. The first step writes into
    ``out_dir``, and each later one into a directory below it named after
    its command."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p)
    outputs = {}
    for k, argv in enumerate(steps):
        step_dir, of = ((out_dir, "") if k == 0 else
                        (os.path.join(out_dir, argv[0]), f" of {argv[0]}"))
        logs = glob.glob(os.path.join(glob.escape(out_dir), "*.jsonl"))
        argv = [logs[0] if arg == "{log}" and logs else arg for arg in argv]
        if argv[0] != "schedule":
            argv = [*argv, "--out-dir", step_dir]
        result = subprocess.run([sys.executable, "-m", "arena.cli", *argv],
                                env=env, capture_output=True, check=False)
        outputs.update({
            f"<stdout{of}>": result.stdout.replace(out_dir.encode(), MASK),
            f"<stderr{of}>": result.stderr.replace(out_dir.encode(), MASK),
            f"<exit code{of}>": str(result.returncode).encode()})
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                outputs[os.path.relpath(path, out_dir)] = fh.read()
    return outputs


def first_differing_line(base: bytes | None, new: bytes | None) -> int:
    """The number of the first line at which two outputs differ; a missing
    output differs from its first line."""
    pairs = zip_longest(*((data or b"").split(b"\n") for data in (base, new)))
    return next(k for k, (a, b) in enumerate(pairs, 1) if a != b)


def compare(base_src: str, new_src: str, inputs: list[str],
            work: str) -> tuple[int, list[str]]:
    """The number of outputs compared, and the ones that differ."""
    compared, differing = 0, []
    jobs = [steps for path in inputs for steps in commands(path)]
    for n, steps in enumerate(jobs):
        base, new = (run(src, steps, os.path.join(work, f"{side}{n}"))
                     for side, src in (("base", base_src), ("new", new_src)))
        for name in sorted(base.keys() | new.keys()):
            compared += 1
            if base.get(name) != new.get(name):
                line = first_differing_line(base.get(name), new.get(name))
                differing.append(" then ".join(" ".join(argv)
                                               for argv in steps)
                                 + f": {name} (first differing line {line})")
    return compared, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("new_src")
    parser.add_argument("inputs", nargs="+", metavar="INPUT")
    args = parser.parse_args(argv)
    for src in (args.base_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "arena", "cli.py")):
            parser.error(f"{src} holds no arena package")
    for path in args.inputs:
        if path not in EXPERIMENTS and not all(
                map(os.path.isfile, path.split("+"))):
            parser.error(f"{path} is neither a file nor one of "
                         f"{', '.join(EXPERIMENTS)}")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        compared, differing = compare(args.base_src, args.new_src,
                                      args.inputs, work)
    for name in differing:
        print(f"differs: {name}")
    print(f"{compared} outputs compared, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
