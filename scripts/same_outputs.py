#!/usr/bin/env python3
"""Check that two source trees give byte-identical `arena` outputs.

    python3 scripts/same_outputs.py BASE_SRC NEW_SRC INPUT...

BASE_SRC and NEW_SRC are directories that hold an ``arena`` package (the
``src`` directory of two checkouts). Each input is a config, a match log
(a ``.jsonl`` file) or the name of a bundled experiment (``distortion``,
``multi``, ...). A config is run once under each tree, as
``python -m arena.cli run --config CONFIG --out-dir DIR``; a log is
re-rated twice under each tree, as ``python -m arena.cli rate LOG
--out-dir DIR`` and again with ``--outcome-mode per-match``; an
experiment is run once under each tree, as ``python -m arena.cli
simulate NAME --out-dir DIR``. Every command
runs with that tree on ``PYTHONPATH`` and one BLAS thread, into a fresh
temporary directory. Every file a command writes, its stdout and stderr
with the output directory masked, and its exit code are compared byte for
byte. The script lists what differs and exits 1 if anything does, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MASK = b"<out-dir>"
# The experiments ``arena simulate`` bundles (``arena.cli.EXPERIMENTS``).
EXPERIMENTS = ("within", "banded", "chekhov", "distortion", "multi")


def commands(path: str) -> list[list[str]]:
    """The arena commands run on one input, each without ``--out-dir``."""
    if path in EXPERIMENTS:
        return [["simulate", path]]
    if path.endswith(".jsonl"):
        return [["rate", path], ["rate", path, "--outcome-mode", "per-match"]]
    return [["run", "--config", path]]


def run(src: str, argv: list[str], out_dir: str) -> dict[str, bytes]:
    """The outputs of one command: each written file by its path below
    ``out_dir``, plus the masked stdout and stderr and the exit code."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "arena.cli", *argv, "--out-dir", out_dir],
        env=env, capture_output=True, check=False)
    outputs = {"<stdout>": result.stdout.replace(out_dir.encode(), MASK),
               "<stderr>": result.stderr.replace(out_dir.encode(), MASK),
               "<exit code>": str(result.returncode).encode()}
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                outputs[os.path.relpath(path, out_dir)] = fh.read()
    return outputs


def compare(base_src: str, new_src: str, inputs: list[str],
            work: str) -> tuple[int, list[str]]:
    """The number of outputs compared, and the ones that differ."""
    compared, differing = 0, []
    argvs = [argv for path in inputs for argv in commands(path)]
    for n, argv in enumerate(argvs):
        base, new = (run(src, argv, os.path.join(work, f"{side}{n}"))
                     for side, src in (("base", base_src), ("new", new_src)))
        for name in sorted(base.keys() | new.keys()):
            compared += 1
            if base.get(name) != new.get(name):
                differing.append(f"{' '.join(argv)}: {name}")
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
        if path not in EXPERIMENTS and not os.path.isfile(path):
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
