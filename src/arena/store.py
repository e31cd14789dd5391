"""Append-only JSONL match logs.

A log is one header line followed by one line per match record. Lines are
serialized with sorted keys and compact separators so that write -> read ->
write round-trips byte-identically, and any line parses on its own, which
keeps partially written logs recoverable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .tournament import MatchRecord

LOG_FORMAT = "arena-log/1"

_RECORD_FIELDS = ("generator_id", "discriminator_id", "n_fake", "fake_wins",
                  "n_real", "real_wins", "seed", "threshold")


class LogError(ValueError):
    """A log file or line could not be parsed."""


@dataclass(frozen=True)
class LogHeader:
    config_hash: str
    seed: int
    format: str = LOG_FORMAT


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def header_line(header: LogHeader) -> str:
    return _dump({"format": header.format, "config_hash": header.config_hash,
                  "seed": header.seed})


def record_line(record: MatchRecord) -> str:
    return _dump({name: getattr(record, name) for name in _RECORD_FIELDS})


def parse_header(line: str) -> LogHeader:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogError(f"unparseable log header: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != LOG_FORMAT:
        raise LogError(f"not a {LOG_FORMAT} log header: {line.strip()!r}")
    try:
        return LogHeader(config_hash=str(payload["config_hash"]),
                         seed=int(payload["seed"]))
    except KeyError as exc:
        raise LogError(f"log header missing field {exc}") from exc


def parse_record(line: str) -> MatchRecord:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogError(f"unparseable record: {exc}") from exc
    if not isinstance(payload, dict):
        raise LogError(f"record line is not an object: {line.strip()!r}")
    try:
        return MatchRecord(
            generator_id=str(payload["generator_id"]),
            discriminator_id=str(payload["discriminator_id"]),
            n_fake=int(payload["n_fake"]),
            fake_wins=int(payload["fake_wins"]),
            n_real=int(payload["n_real"]),
            real_wins=int(payload["real_wins"]),
            seed=int(payload["seed"]),
            threshold=float(payload["threshold"]),
        )
    except KeyError as exc:
        raise LogError(f"record missing field {exc}") from exc


class LogWriter:
    """The one way to write a log: ``LogWriter(path, header)`` starts a new
    log, ``LogWriter(path)`` appends to an existing one.

    Every line is flushed as it is written, so a killed run keeps every
    record it finished.
    """

    def __init__(self, path, header: LogHeader | None = None):
        self._fh = open(path, "w" if header is not None else "a")
        if header is not None:
            self._write(header_line(header))

    def _write(self, line: str) -> None:
        self._fh.write(line + "\n")
        self._fh.flush()

    def __call__(self, record: MatchRecord) -> None:
        self._write(record_line(record))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_log(path, strict: bool = True
             ) -> tuple[LogHeader, list[MatchRecord], list[str]]:
    """Read a log; returns (header, records, problems).

    In strict mode the first corrupt line raises LogError (with its line
    number); otherwise corrupt lines are collected into ``problems`` and
    skipped.
    """
    problems: list[str] = []
    records: list[MatchRecord] = []
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise LogError(f"{path}: empty file, missing header")
        header = parse_header(first)
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                records.append(parse_record(line))
            except LogError as exc:
                message = f"{path}:{number}: {exc}"
                if strict:
                    raise LogError(message) from exc
                problems.append(message)
    return header, records, problems
