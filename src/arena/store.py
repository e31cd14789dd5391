"""Append-only JSONL match logs.

A log is one header line followed by one line per match record. Lines are
serialized with sorted keys and compact separators so that write -> read ->
write round-trips byte-identically, and any line parses on its own, which
keeps partially written logs recoverable. The header carries the config
hash, the tournament seed, the version of the match engine that played the
records (none: engine 1) and, from arena-log/2 on, the config. Each extend
that adds players writes a players line, ``{"entries": [...], "type":
"players"}``, before its records, so a v2 log names its whole population.

``read_log`` returns the records as a columnar ``MatchTable``. It reads the
body in chunks of about ``_CHUNK_CHARS`` characters, each ended at a line
end, and parses a chunk whose every line has the writer's own record
layout in one vectorized pass over its bytes (``logscan``); any
other chunk goes line by line through ``parse_line``, so both paths accept,
reject and number exactly the same lines. Each column is allocated once,
for as many records as the file could hold, and every chunk is written into
its slice, so the read holds one copy of the table; pages past the last
record are never touched.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .tournament import (COLUMN_TYPES, ENGINE, MatchRecord, MatchTable,
                         PlayerSpec)

LOG_FORMAT = "arena-log/2"
V1_FORMAT = "arena-log/1"  # no config in the header; still read

# Each header and record field with the JSON types it may have: json.loads
# gives exactly str, int, float or bool, and a bool is no count or seed.
_HEADER_TYPES = {"config_hash": (str,), "engine": (int,), "seed": (int,)}
_FIELD_TYPES = {"generator_id": (str,), "discriminator_id": (str,),
                "n_fake": (int,), "fake_wins": (int,), "n_real": (int,),
                "real_wins": (int,), "seed": (int,),
                "threshold": (int, float)}
_RECORD_FIELDS = tuple(_FIELD_TYPES)
_COUNT_FIELDS = ("n_fake", "fake_wins", "n_real", "real_wins")

# Counts are stored as int64 and seeds as uint64.
_COUNT_LIMIT = 2 ** 63
_SEED_LIMIT = 2 ** 64

# Size hint, in characters, of one chunk of log lines (about 1 700 writer
# records): large enough that the bulk parser's fixed cost per chunk is
# small, small enough that a large log never sits in memory as one string,
# nor the parser's temporaries in glibc's heap. Measured on one core of a
# 2.0 GHz Xeon, Python 3.11, numpy 2.4, for 1 << 16 ... 1 << 20: read_log
# of a 40 000-record log (6.2 MB) took 56, 45, 44, 39 and 37 ms of CPU,
# and `arena rate --out-dir` on it peaked at 36.6, 36.7, 36.75, 36.7 and
# 40.4 MiB (VmHWM); on a 1M-record log (150 MiB) the read took 1.60,
# 1.46, 1.34, 1.11 and 1.04 s, and `arena rate` peaked at 156.0, 156.1,
# 157.0, 157.7 and 156.1-162.9 MiB. 1 << 18 is the largest size that keeps
# both peaks within 1 MiB of 1 << 17's.
_CHUNK_CHARS = 1 << 18


class LogError(ValueError):
    """A log file or line could not be parsed."""


@dataclass(frozen=True)
class LogHeader:
    """A log's first line. ``engine`` is the match engine that played the
    records (``tournament.ENGINE``), ``config`` the config, None in an
    arena-log/1 header; ``read_log`` adds each players line's entries."""

    config_hash: str
    seed: int
    engine: int = ENGINE
    config: dict | None = None
    players: tuple[list, ...] = ()


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def header_line(header: LogHeader) -> str:
    v2 = {} if header.config is None else {"config": header.config}
    return _dump({"format": LOG_FORMAT if v2 else V1_FORMAT,
                  "config_hash": header.config_hash, "engine": header.engine,
                  "seed": header.seed, **v2})


# A record line with its fields in sorted key order, as _dump lays it out.
# Counts and seeds are ints, whose JSON text is their str(); ids and
# thresholds are filled in as JSON text.
_RECORD_TEMPLATE = ('{"discriminator_id":%s,"fake_wins":%s,'
                    '"generator_id":%s,"n_fake":%s,"n_real":%s,'
                    '"real_wins":%s,"seed":%s,"threshold":%s}\n')


def _table_lines(table: MatchTable, texts: dict) -> str:
    """Each row's line, newline included, all joined: the bytes of
    ``_dump`` of the fields of the row's ``MatchRecord``. ``texts`` caches
    the JSON text of each id, keyed by the id, and of each threshold,
    keyed by its float's bits (-0.0 == 0.0 and NaN != NaN, but each dumps
    as its own text)."""
    def cached(keys, values) -> list[str]:
        found = []
        for key, value in zip(keys, values):
            if key not in texts:
                texts[key] = _dump(value)
            found.append(texts[key])
        return found

    ids = cached(table.ids, table.ids)
    bits = table.threshold.view(np.uint64).tolist()
    thresholds = dict(zip(bits, table.threshold.tolist()))
    cached(thresholds, thresholds.values())
    return "".join([_RECORD_TEMPLATE % (
        ids[disc], fake_wins, ids[gen], n_fake, n_real, real_wins, seed,
        texts[threshold])
        for gen, disc, n_fake, fake_wins, n_real, real_wins, seed, threshold
        in zip(table.gen.tolist(), table.disc.tolist(),
               table.n_fake.tolist(), table.fake_wins.tolist(),
               table.n_real.tolist(), table.real_wins.tolist(),
               table.seed.tolist(), bits)])


def _checked_fields(payload: dict, types: dict, what: str) -> dict:
    """The fields named in ``types``, checked, not coerced: int() would read
    64.7 and true as counts, and str() anything as a config hash."""
    try:
        values = {name: payload[name] for name in types}
    except KeyError as exc:
        raise LogError(f"{what} missing field {exc}") from exc
    for name, kinds in types.items():
        if type(values[name]) not in kinds:
            raise LogError(f"{what} field {name} has a bad value: "
                           f"{values[name]!r} is not "
                           f"{' or '.join(k.__name__ for k in kinds)}")
    return values


def _utf8(line: str) -> str:
    """The line, if the bytes it was read from are UTF-8. ``read_log``
    decodes with surrogateescape, which reads every other byte as a lone
    surrogate."""
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        byte = line[exc.start].encode(errors="surrogateescape")[0]
        raise LogError(f"byte {byte:#04x} at character {exc.start + 1} is "
                       "not UTF-8") from None
    return line


def parse_header(line: str) -> LogHeader:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogError(f"unparseable log header: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") not in (
            V1_FORMAT, LOG_FORMAT):
        raise LogError(f"not an {V1_FORMAT} or {LOG_FORMAT} log header: "
                       f"{line.strip()!r}")
    v2 = {"config": (dict,)} if payload["format"] == LOG_FORMAT else {}
    # A header written before engines were versioned has no engine key: its
    # records were played by engine 1.
    return LogHeader(**_checked_fields({"engine": 1, **payload},
                                       {**_HEADER_TYPES, **v2}, "log header"))


def parse_line(line: str) -> MatchRecord | list:
    """A body line: a match record, or the entries of a players line."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogError(f"unparseable record: {exc}") from exc
    if not isinstance(payload, dict):
        raise LogError(f"record line is not an object: {line.strip()!r}")
    if payload.get("type") == "players":
        return _checked_fields(payload, {"entries": (list,)},
                               "players line")["entries"]
    values = _checked_fields(payload, _FIELD_TYPES, "record")
    try:
        values["threshold"] = float(values["threshold"])
    except OverflowError as exc:
        raise LogError(f"record field has a bad value: {exc}") from exc
    record = MatchRecord(**values)
    for name in _COUNT_FIELDS:
        if not 0 <= getattr(record, name) < _COUNT_LIMIT:
            raise LogError(f"record {name} {getattr(record, name)} is "
                           "outside [0, 2**63)")
    for wins, trials in (("fake_wins", "n_fake"), ("real_wins", "n_real")):
        if getattr(record, wins) > getattr(record, trials):
            raise LogError(f"record {wins} {getattr(record, wins)} exceeds "
                           f"{trials} {getattr(record, trials)}")
    if not 0 <= record.seed < _SEED_LIMIT:
        raise LogError(f"record seed {record.seed} is outside [0, 2**64)")
    return record


class LogWriter:
    """The one way to write a log: ``LogWriter(path, header)`` starts a new
    log, ``LogWriter(path)`` appends to an existing one. An append's first
    batch ends the log's last line if that has no newline, so no record is
    glued onto it, and the players line of the entries in ``players``, if
    any. An append that writes nothing leaves the log as is.

    ``writer(table)`` writes the lines of the rows of a ``MatchTable``,
    such as a finished window of play, with one write and one flush, so a
    killed run keeps every batch it handed over.
    """

    def __init__(self, path, header: LogHeader | None = None,
                 players: list | None = None):
        self._fh = open(path, "wb" if header is not None else "ab+")
        self._texts: dict = {}
        self._lead = ""  # what the first batch writes before its lines
        if header is not None:
            self._write(header_line(header) + "\n")
        elif self._fh.seek(0, os.SEEK_END):
            self._fh.seek(-1, os.SEEK_END)
            self._lead = "" if self._fh.read(1) == b"\n" else "\n"
        if players:
            self._lead += _dump({"entries": players,
                                 "type": "players"}) + "\n"

    def _write(self, text: str) -> None:
        self._fh.write(text.encode())
        self._fh.flush()

    def __call__(self, table: MatchTable) -> None:
        self._write(self._lead + _table_lines(table, self._texts))
        self._lead = ""

    def close(self) -> None:
        self._fh.close()


# Characters in the shortest record parse_line accepts: every field once,
# with empty ids and one-digit numbers. A record's line takes at least that
# many bytes of the file, and one more for its newline unless it is last.
_SHORTEST_RECORD = len(_dump({**dict.fromkeys(_RECORD_FIELDS, 0),
                              "generator_id": "", "discriminator_id": ""}))


def read_log(path, strict: bool = True
             ) -> tuple[LogHeader, MatchTable, list[str]]:
    """Read a log; returns (header, records, problems).

    The records come as a ``MatchTable`` in log order, and the entries of
    the players lines as the header's ``players``. In strict mode the
    first corrupt line raises LogError (with its line number); otherwise
    corrupt lines are collected into ``problems`` and skipped. A line that
    holds a byte that is not UTF-8 is corrupt. Blank lines are ignored.

    Each column is allocated once, sized by the most records the file's
    size allows, and each chunk's rows are written into its slice; the
    table holds the first rows, as many as were read. Should the file grow
    while it is read, the columns grow with it.
    """
    problems: list[str] = []
    players: list[list] = []
    codes: dict[str, int] = {}
    raw_codes: dict[bytes, int] = {}
    with open(path, errors="surrogateescape") as fh:
        first = fh.readline()
        if not first:
            raise LogError(f"{path}: empty file, missing header")
        try:
            header = parse_header(_utf8(first))
        except LogError as exc:
            raise LogError(f"{path}:1: {exc}") from exc
        capacity = ((os.fstat(fh.fileno()).st_size + 1)
                    // (_SHORTEST_RECORD + 1))
        columns = [np.empty(capacity, dtype) for dtype in COLUMN_TYPES]
        count = 0
        number = 2
        while text := fh.read(_CHUNK_CHARS):
            from . import logscan  # compiled only once a body is read
            text += fh.readline()
            try:
                chunk = logscan.canonical_chunk(text, codes, raw_codes)
            except UnicodeEncodeError:  # a byte that is not UTF-8
                chunk = None
            if chunk is None:
                records = []
                for offset, line in enumerate(io.StringIO(text)):
                    if not line.strip():
                        continue
                    try:
                        parsed = parse_line(_utf8(line))
                        (players if type(parsed) is list
                         else records).append(parsed)
                    except LogError as exc:
                        message = f"{path}:{number + offset}: {exc}"
                        if strict:
                            raise LogError(message) from exc
                        problems.append(message)
                table = MatchTable.from_records(records)
                remap = np.array([codes.setdefault(pid, len(codes))
                                  for pid in table.ids], dtype=np.intp)
                chunk = [remap[table.gen], remap[table.disc], table.n_fake,
                         table.fake_wins, table.n_real, table.real_wins,
                         table.seed, table.threshold]
            end = count + len(chunk[0])
            if end > capacity:
                capacity = max(2 * capacity, end)
                columns = [np.resize(column, capacity) for column in columns]
            for column, part in zip(columns, chunk):
                column[count:end] = part
            count = end
            number += text.count("\n")
    return replace(header, players=tuple(players)), MatchTable.from_columns(
        list(codes), *(column[:count] for column in columns)), problems


def record_specs(table: MatchTable, log) -> list[PlayerSpec]:
    """Each id of an arena-log/1 log, which names no players, in its role."""
    gens, discs = (np.bincount(codes, minlength=len(table.ids)) > 0
                   for codes in (table.gen, table.disc))
    both = np.flatnonzero(gens & discs)
    if len(both):
        raise LogError(f"{log}: player {table.ids[both[0]]!r} is "
                       "both a generator and a discriminator")
    # The ids are sorted, so ascending indices give sorted ids.
    return ([PlayerSpec(table.ids[i], "generator")
             for i in np.flatnonzero(gens).tolist()]
            + [PlayerSpec(table.ids[i], "discriminator")
               for i in np.flatnonzero(discs).tolist()])
