"""Append-only JSONL match logs.

A log is one header line followed by one line per match record. Lines are
serialized with sorted keys and compact separators so that write -> read ->
write round-trips byte-identically, and any line parses on its own, which
keeps partially written logs recoverable. The header carries the config
hash, the tournament seed and the version of the match engine that played
the records; a header with no engine key was written by engine 1.

``read_log`` returns the records as a columnar ``MatchTable``. It reads the
body in bounded chunks and parses a chunk whose every line has the writer's
own layout in one vectorized pass over its bytes (``logscan``); any other
chunk goes line by line through ``parse_record``, so both paths accept,
reject and number exactly the same lines. Each column is allocated once,
for as many records as the file could hold, and every chunk is written into
its slice, so the read holds one copy of the table; pages past the last
record are never touched.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tournament import ENGINE, MatchRecord, MatchTable

LOG_FORMAT = "arena-log/1"

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

# Size hint, in characters, of one chunk of log lines: large enough that
# the per-chunk overhead is small, small enough that a large log never sits
# in memory as one string, nor the bulk parser's temporaries in glibc's heap.
_CHUNK_CHARS = 1 << 17

# Dtype of each record column, in _RECORD_FIELDS order.
_COLUMN_TYPES = (np.intp, np.intp, np.int64, np.int64, np.int64, np.int64,
                 np.uint64, float)


class LogError(ValueError):
    """A log file or line could not be parsed."""


@dataclass(frozen=True)
class LogHeader:
    """A log's first line. ``engine`` is the match engine that played the
    records (``tournament.ENGINE``)."""

    config_hash: str
    seed: int
    engine: int = ENGINE
    format: str = LOG_FORMAT


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def header_line(header: LogHeader) -> str:
    return _dump({"format": header.format, "config_hash": header.config_hash,
                  "engine": header.engine, "seed": header.seed})


# A record line with its fields in sorted key order, as _dump lays it out.
# Counts and seeds are ints, whose JSON text is their str(); ids and
# thresholds are filled in as JSON text.
_RECORD_TEMPLATE = ('{"discriminator_id":%s,"fake_wins":%s,'
                    '"generator_id":%s,"n_fake":%s,"n_real":%s,'
                    '"real_wins":%s,"seed":%s,"threshold":%s}\n')


def _record_lines(records, texts: dict) -> str:
    """Each record's line, newline included, all joined: the bytes of
    ``_dump`` of each record's fields. ``texts`` caches the JSON text of
    each id (keyed by the id) and threshold (keyed by type and value, as
    1 == 1.0 == True dump differently; a zero or a NaN by its text, as
    -0.0 == 0.0 and NaN != NaN)."""
    def text(key, value) -> str:
        try:
            return texts[key]
        except KeyError:
            texts[key] = found = _dump(value)
            return found

    def threshold(value) -> str:
        return text((type(value), value if value == value and value
                     else repr(value)), value)

    return "".join([_RECORD_TEMPLATE % (
        text(r.discriminator_id, r.discriminator_id), r.fake_wins,
        text(r.generator_id, r.generator_id), r.n_fake, r.n_real,
        r.real_wins, r.seed, threshold(r.threshold))
        for r in records])


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
    if not isinstance(payload, dict) or payload.get("format") != LOG_FORMAT:
        raise LogError(f"not a {LOG_FORMAT} log header: {line.strip()!r}")
    # A header written before engines were versioned has no engine key: its
    # records were played by engine 1.
    return LogHeader(**_checked_fields({"engine": 1, **payload},
                                       _HEADER_TYPES, "log header"))


def parse_record(line: str) -> MatchRecord:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogError(f"unparseable record: {exc}") from exc
    if not isinstance(payload, dict):
        raise LogError(f"record line is not an object: {line.strip()!r}")
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
    glued onto it, and an append that writes nothing leaves the log as is.

    ``writer(records)`` writes the lines of a batch of records, such as a
    finished window of play, with one write and one flush, so a killed
    run keeps every batch it handed over.
    """

    def __init__(self, path, header: LogHeader | None = None):
        self._fh = open(path, "wb" if header is not None else "ab+")
        self._texts: dict = {}
        self._lead = ""  # what the first batch writes before its lines
        if header is not None:
            self._write(header_line(header) + "\n")
        elif self._fh.seek(0, os.SEEK_END):
            self._fh.seek(-1, os.SEEK_END)
            self._lead = "" if self._fh.read(1) == b"\n" else "\n"

    def _write(self, text: str) -> None:
        self._fh.write(text.encode())
        self._fh.flush()

    def __call__(self, records: Iterable[MatchRecord]) -> None:
        self._write(self._lead + _record_lines(records, self._texts))
        self._lead = ""

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# Characters in the shortest line parse_record accepts: every field once,
# with empty ids and one-digit numbers. A record's line takes at least that
# many bytes of the file, and one more for its newline unless it is last.
_SHORTEST_RECORD = len(_dump({**dict.fromkeys(_RECORD_FIELDS, 0),
                              "generator_id": "", "discriminator_id": ""}))


def read_log(path, strict: bool = True
             ) -> tuple[LogHeader, MatchTable, list[str]]:
    """Read a log; returns (header, records, problems).

    The records come as a ``MatchTable`` in log order. In strict mode the
    first corrupt line raises LogError (with its line number); otherwise
    corrupt lines are collected into ``problems`` and skipped. A line that
    holds a byte that is not UTF-8 is corrupt. Blank lines are ignored.

    Each column is allocated once, sized by the most records the file's
    size allows, and each chunk's rows are written into its slice; the
    table holds the first rows, as many as were read. Should the file grow
    while it is read, the columns grow with it.
    """
    problems: list[str] = []
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
        columns = [np.empty(capacity, dtype) for dtype in _COLUMN_TYPES]
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
                        records.append(parse_record(_utf8(line)))
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
    return header, MatchTable.from_columns(
        list(codes), *(column[:count] for column in columns)), problems
