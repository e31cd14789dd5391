"""Engine 2's outputs, pinned byte for byte.

Every file the shipped runs below write, and their stdout, must have the
sha256 that ``golden.json`` holds for the current ``tournament.ENGINE``.
A change to match outcomes that does not bump the engine fails here, and
so does any other change to what these runs print or write.

The rule: an entry may be re-pinned only together with an engine bump, or
with a declared change to an artifact's format, and CHANGES.md names
both. ``python tests/test_golden.py --write`` re-pins the current engine's
entry from the current tree.

Each output is pinned by its sha256 and by a one-byte fingerprint of each
of its lines, so that a mismatch names the first line that moved. numpy
does not promise the same random streams across versions, and BLAS kernels
can move the last bits of a product, so a mismatch also names both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import arena
from arena import cli
from arena import tournament as tn

from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("golden.json")

# Each run: its name in the table, and its arguments without --out-dir.
# ``{population}`` stands for the log of the population run, and ``{copy}``
# for a copy of it in the run's own output directory, which the run may
# change without moving what the later runs read. ``{v1}`` is such a copy
# under the header line that arena-log/1 gave the population log, which
# held no config: such a log must still rate as it did. ``{band}`` stands
# for the log of the banded within_trajectory run.
RUNS = {
    "run within_trajectory": ["run", "--config",
                              "configs/within_trajectory.cfg"],
    "run within_trajectory band": ["run", "--config",
                                   "configs/within_trajectory.cfg",
                                   "--schedule", "band", "--band-width", "2"],
    "run population": ["run", "--config", "configs/population.cfg"],
    "run external_demo": ["run", "--config", "configs/external_demo.cfg"],
    "rate population per-sample": ["rate", "{population}"],
    "rate population per-match": ["rate", "{population}",
                                  "--outcome-mode", "per-match"],
    "rate population v1": ["rate", "{v1}"],
    "rate within_trajectory band": ["rate", "{band}"],
    "extend population add_pair": ["extend", "{copy}", "--add",
                                   "configs/add_pair.cfg"],
    "simulate distortion": ["simulate", "distortion"],
}
MASK = "<tmp>"
V1_HEADER = (b'{"config_hash":"d0a263faf5ce3858","engine":2,'
             b'"format":"arena-log/1","seed":1}')


def produce(root: Path) -> dict[str, dict[str, bytes]]:
    """Every run's outputs, by run name: each file it wrote, by its path
    below its output directory, and its stdout with ``root`` masked."""
    produced = {}
    population = root / "run population" / "log.jsonl"
    band = root / "run within_trajectory band" / "log.jsonl"
    for name, argv in RUNS.items():
        out = root / name
        copy = out / "log.jsonl"
        if "{copy}" in argv:
            out.mkdir()
            shutil.copyfile(population, copy)
        if "{v1}" in argv:
            out.mkdir()
            copy.write_bytes(V1_HEADER + b"\n" + population.read_bytes()
                             .split(b"\n", 1)[1])
        argv = [arg.format(population=population, copy=copy, v1=copy,
                           band=band) for arg in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*argv, "--out-dir", str(out)])
        assert code == 0, f"{name} exited {code}"
        files = {"<stdout>": stdout.getvalue().replace(str(root),
                                                       MASK).encode()}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[path.relative_to(out).as_posix()] = path.read_bytes()
        produced[name] = files
    return produced


def fingerprint(data: bytes) -> str:
    """The first byte of each line's sha256, as two hex digits a line."""
    return "".join(hashlib.sha256(line).hexdigest()[:2]
                   for line in data.split(b"\n"))


def pin(data: bytes) -> dict[str, str]:
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "lines": fingerprint(data)}


def blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        return "an unknown BLAS"


def first_moved_line(data: bytes, pinned: dict[str, str]) -> str:
    lines = data.split(b"\n")
    now, then = fingerprint(data), pinned["lines"]
    for k in range(0, max(len(now), len(then)), 2):
        if now[k:k + 2] != then[k:k + 2]:
            line = lines[k // 2] if k // 2 < len(lines) else b"<no line>"
            return (f"line {k // 2 + 1}: "
                    f"{line[:200].decode(errors='replace').rstrip()}")
    return "no line's fingerprint moved"


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    # The external demo starts ``python3 -m arena.ref_player``, which must
    # import this arena.
    src = str(Path(arena.__file__).parents[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)
        patch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield produce(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def table():
    entries = json.loads(TABLE.read_text())
    if str(tn.ENGINE) not in entries:
        pytest.fail(f"{TABLE.name} pins no outputs for engine {tn.ENGINE}")
    return entries[str(tn.ENGINE)]


def test_the_table_pins_every_run(table):
    assert sorted(table) == sorted(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_the_table(name, produced, table):
    outputs, pinned = produced[name], table[name]
    assert sorted(outputs) == sorted(pinned), f"{name}: other output files"
    moved = [f"{name}: {path} differs at "
             f"{first_moved_line(data, pinned[path])}"
             for path, data in outputs.items()
             if hashlib.sha256(data).hexdigest() != pinned[path]["sha256"]]
    assert not moved, "\n".join(
        [*moved, f"numpy {np.__version__}, {blas()}"])


def test_fresh_processes_write_the_pinned_outputs(table, tmp_path):
    # ``produce`` calls cli.main in this process, so it never ends through
    # the exit that ``python -m arena.cli`` takes. Here the external demo
    # runs, and its log is re-rated, each in a process of its own. A v2 log
    # re-rates to the run's own table and artifacts.
    out, rated = tmp_path / "run external_demo", tmp_path / "rated"
    run, rate = (fresh_python("-m", "arena.cli", *argv, "--out-dir", where,
                              cwd=ROOT)
                 for argv, where in (
                     (RUNS["run external_demo"], out),
                     (["rate", out / "log.jsonl"], rated)))
    pinned = table["run external_demo"]
    assert (run.returncode, rate.returncode) == (0, 0), \
        run.stderr + rate.stderr
    stdout = run.stdout.replace(str(tmp_path), MASK).encode()
    assert hashlib.sha256(stdout).hexdigest() == pinned["<stdout>"]["sha256"]
    *table_lines, log_line = run.stdout.splitlines(keepends=True)
    assert rate.stdout == "".join(table_lines)
    assert log_line.startswith("log: ")
    for directory, skipped in ((out, {"<stdout>"}),
                               (rated, {"<stdout>", "log.jsonl"})):
        written = {path.relative_to(directory).as_posix(): path.read_bytes()
                   for path in directory.rglob("*") if path.is_file()}
        assert sorted(written) == sorted(pinned.keys() - skipped)
        for path, data in written.items():
            assert hashlib.sha256(data).hexdigest() == \
                pinned[path]["sha256"], f"{directory.name}/{path}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    import tempfile

    entries = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as work:
        produced = produce(Path(work))
    entries[str(tn.ENGINE)] = {
        name: {path: pin(data) for path, data in sorted(files.items())}
        for name, files in produced.items()}
    TABLE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
