#!/usr/bin/env python3
"""Check that two source trees give byte-identical `arena run` outputs.

    python3 scripts/same_outputs.py BASE_SRC NEW_SRC CONFIG...

BASE_SRC and NEW_SRC are directories that hold an ``arena`` package (the
``src`` directory of two checkouts). Each config is run once under each
tree, as ``python -m arena.cli run --config CONFIG --out-dir DIR`` with
that tree on ``PYTHONPATH`` and one BLAS thread, in a fresh temporary
directory. Every file either run writes, and its stdout with the output
directory masked and its exit code, are compared byte for byte. The
script lists what differs and exits 1 if anything does, else 0.
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


def run(src: str, config: str, out_dir: str) -> dict[str, bytes]:
    """The outputs of one run: each written file by its path below
    ``out_dir``, plus the masked stdout and the exit code."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "arena.cli", "run", "--config", config,
         "--out-dir", out_dir], env=env, capture_output=True, check=False)
    outputs = {"<stdout>": result.stdout.replace(out_dir.encode(), MASK),
               "<exit code>": str(result.returncode).encode()}
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                outputs[os.path.relpath(path, out_dir)] = fh.read()
    return outputs


def compare(base_src: str, new_src: str, configs: list[str],
            work: str) -> tuple[int, list[str]]:
    """The number of outputs compared, and the ones that differ."""
    compared, differing = 0, []
    for n, config in enumerate(configs):
        base, new = (run(src, config, os.path.join(work, f"{side}{n}"))
                     for side, src in (("base", base_src), ("new", new_src)))
        for name in sorted(base.keys() | new.keys()):
            compared += 1
            if base.get(name) != new.get(name):
                differing.append(f"{config}: {name}")
    return compared, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src")
    parser.add_argument("new_src")
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    args = parser.parse_args(argv)
    for src in (args.base_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "arena", "cli.py")):
            parser.error(f"{src} holds no arena package")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        compared, differing = compare(args.base_src, args.new_src,
                                      args.configs, work)
    for name in differing:
        print(f"differs: {name}")
    print(f"{compared} outputs compared, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
