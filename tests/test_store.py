"""Match log round-trip and recovery tests."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import tempfile
from contextlib import closing

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arena import logscan, store
from arena.store import (LOG_FORMAT, LogError, LogHeader, LogWriter,
                         header_line, parse_header, parse_line, read_log)
from arena.tournament import ENGINE, MatchRecord, MatchTable

from conftest import TEXT_ALPHABET, fresh_python, record_line

HEADER = LogHeader(config_hash="0123456789abcdef", seed=7)
RECORD_FIELDS = [field.name for field in dataclasses.fields(MatchRecord)]

ids = st.text(alphabet="".join(map(chr, range(33, 127))),
              min_size=1, max_size=12)


def write_records(path, records, header: LogHeader | None = HEADER) -> None:
    """Write records through LogWriter: a new log when a header is given,
    an append otherwise."""
    with closing(LogWriter(path, header)) as sink:
        sink(records)


def make_record(i: int = 0) -> MatchRecord:
    return MatchRecord(generator_id=f"g{i}", discriminator_id="d0",
                       n_fake=64, fake_wins=40 - i, n_real=64,
                       real_wins=20 + i, seed=1000 + i, threshold=0.5)


record_strategy = st.tuples(st.integers(1, 512), st.integers(1, 512)).flatmap(
    lambda trials: st.builds(
        MatchRecord,
        generator_id=ids, discriminator_id=ids,
        n_fake=st.just(trials[0]), fake_wins=st.integers(0, trials[0]),
        n_real=st.just(trials[1]), real_wins=st.integers(0, trials[1]),
        seed=st.integers(0, 2 ** 64 - 1),
        threshold=st.floats(0.01, 0.99),
    ))


class TestLineFormats:
    def test_header_is_compact_sorted_json(self):
        line = header_line(HEADER)
        assert line == ('{"config_hash":"0123456789abcdef","engine":2,'
                        '"format":"arena-log/1","seed":7}')
        assert parse_header(line) == HEADER

    def test_header_round_trips_its_engine(self):
        assert HEADER.engine == ENGINE == 2
        for engine in (1, 2, 3):
            header = LogHeader("feed", 7, engine=engine)
            assert parse_header(header_line(header)) == header

    def test_a_v2_header_round_trips_its_config(self):
        config = {"seed": 7, "players": [{"kind": "constant", "id": "c",
                                          "value": 0.5}]}
        header = LogHeader("feed", 7, config=config)
        line = header_line(header)
        assert line.startswith('{"config":{"players":[{"id":"c",')
        assert line.endswith('"config_hash":"feed","engine":2,'
                             '"format":"arena-log/2","seed":7}')
        assert parse_header(line) == header

    def test_header_without_an_engine_is_engine_1(self):
        header = parse_header('{"config_hash":"0123456789abcdef",'
                              '"format":"arena-log/1","seed":7}')
        assert header == LogHeader("0123456789abcdef", 7, engine=1)

    def test_record_line_round_trips(self):
        rec = make_record(3)
        assert parse_line(record_line(rec)) == rec

    @given(record_strategy)
    @settings(max_examples=50)
    def test_any_record_round_trips(self, rec):
        assert parse_line(record_line(rec)) == rec

    def test_header_rejects_other_formats(self):
        line = json.dumps({"format": "other/1", "config_hash": "x",
                           "seed": 1})
        with pytest.raises(LogError, match=LOG_FORMAT):
            parse_header(line)

    @pytest.mark.parametrize("line, message", [
        ("not json", "unparseable"),
        ("[1,2]", "not an arena-log/1 or arena-log/2 log header"),
        ('{"format":"arena-log/1","seed":3}', "missing field"),
        ('{"config_hash":"x","format":"arena-log/1","seed":"abc"}',
         "field seed has a bad value: 'abc' is not int"),
        ('{"config_hash":"x","format":"arena-log/1","seed":1.5}',
         "field seed has a bad value: 1.5 is not int"),
        ('{"config_hash":"x","format":"arena-log/1","seed":true}',
         "field seed has a bad value: True is not int"),
        ('{"config_hash":5,"format":"arena-log/1","seed":1}',
         "field config_hash has a bad value: 5 is not str"),
        ('{"config_hash":"x","engine":true,"format":"arena-log/1","seed":1}',
         "field engine has a bad value: True is not int"),
        ('{"config_hash":"x","engine":2.0,"format":"arena-log/1","seed":1}',
         "field engine has a bad value: 2.0 is not int"),
        ('{"config_hash":"x","engine":"2","format":"arena-log/1","seed":1}',
         "field engine has a bad value: '2' is not int"),
        ('{"config_hash":"x","format":"arena-log/2","seed":1}',
         "missing field 'config'"),
        ('{"config":[1],"config_hash":"x","format":"arena-log/2","seed":1}',
         r"field config has a bad value: \[1\] is not dict"),
    ])
    def test_header_parse_errors(self, line, message):
        with pytest.raises(LogError, match=message):
            parse_header(line)

    @pytest.mark.parametrize("line, message", [
        ("not json", "unparseable"),
        ("[1]", "not an object"),
        ('{"generator_id":"g"}', "missing field"),
    ])
    def test_record_parse_errors(self, line, message):
        with pytest.raises(LogError, match=message):
            parse_line(line)

    def test_a_players_line_gives_its_entries(self):
        entries = [{"id": "c", "kind": "constant", "value": 0.5}]
        assert parse_line('{"entries":[{"id":"c","kind":"constant",'
                          '"value":0.5}],"type":"players"}') == entries
        with pytest.raises(LogError, match="players line field entries "
                                           "has a bad value"):
            parse_line('{"entries":{},"type":"players"}')


    @pytest.mark.parametrize("field, value, message", [
        ("n_fake", -1, "n_fake -1 is outside"),
        ("fake_wins", -1, "fake_wins -1 is outside"),
        ("n_real", -1, "n_real -1 is outside"),
        ("real_wins", -1, "real_wins -1 is outside"),
        ("n_real", 2 ** 63, "n_real 9223372036854775808 is outside"),
        ("fake_wins", 65, "fake_wins 65 exceeds n_fake 64"),
        ("real_wins", 65, "real_wins 65 exceeds n_real 64"),
        ("seed", -1, "seed -1 is outside"),
        ("seed", 2 ** 64, "seed 18446744073709551616 is outside"),
        ("n_fake", None, "bad value"),
        ("seed", "x", "bad value"),
        # Types are checked, not coerced.
        ("n_fake", 64.7, "n_fake has a bad value: 64.7 is not int"),
        ("n_fake", 64.0, "n_fake has a bad value: 64.0 is not int"),
        ("n_real", True, "n_real has a bad value: True is not int"),
        ("real_wins", False, "real_wins has a bad value: False is not int"),
        ("seed", 1000.0, "seed has a bad value: 1000.0 is not int"),
        ("seed", True, "seed has a bad value: True is not int"),
        ("generator_id", 5, "generator_id has a bad value: 5 is not str"),
        ("discriminator_id", ["d0"], "discriminator_id has a bad value"),
        ("threshold", "0.5",
         "threshold has a bad value: '0.5' is not int or float"),
        ("threshold", True, "threshold has a bad value: True is not int"),
        ("threshold", None, "threshold has a bad value: None is not int"),
    ])
    def test_out_of_range_fields_are_corrupt(self, field, value, message,
                                             tmp_path):
        payload = json.loads(record_line(make_record(0)))
        payload[field] = value
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with pytest.raises(LogError, match=message):
            parse_line(line)
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(1)])
        with open(path, "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(LogError, match=f":3: .*{message}"):
            read_log(path)
        _, records, problems = read_log(path, strict=False)
        assert list(records) == [make_record(1)]
        assert len(problems) == 1 and ":3: " in problems[0]

    def test_largest_seed_and_counts_are_in_range(self):
        rec = MatchRecord("g", "d", n_fake=2 ** 63 - 1, fake_wins=2 ** 63 - 1,
                          n_real=0, real_wins=0, seed=2 ** 64 - 1)
        assert parse_line(record_line(rec)) == rec


class TestFileRoundTrip:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        records = [make_record(i) for i in range(5)]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(first, records)
        header, read, problems = read_log(first)
        assert (header, list(read), problems) == (HEADER, records, [])
        write_records(second, read, header)
        assert first.read_bytes() == second.read_bytes()

    @given(records=st.lists(record_strategy, max_size=8))
    @settings(max_examples=25)
    def test_round_trip_for_arbitrary_records(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("logs") / "log.jsonl"
        write_records(path, records)
        _, read, _ = read_log(path)
        assert list(read) == records

    def test_append_extends_an_existing_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        before = path.read_bytes()
        write_records(path, [make_record(1), make_record(2)], header=None)
        assert path.read_bytes().startswith(before)
        _, records, _ = read_log(path)
        assert list(records) == [make_record(0), make_record(1),
                                 make_record(2)]

    def test_append_first_ends_a_last_line_without_newline(self, tmp_path):
        # Appended straight after it, the first new record would be glued
        # onto the old last line, and both would be lost.
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        write_records(path, [make_record(1)], header=None)
        _, records, _ = read_log(path, strict=True)
        assert list(records) == [make_record(0), make_record(1)]

    def test_an_append_that_writes_nothing_leaves_the_log(self, tmp_path):
        # Not even the newline a first batch would end the last line with.
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        before = path.read_bytes()
        LogWriter(path).close()
        assert path.read_bytes() == before
        writer = LogWriter(path)
        writer([make_record(1)])
        writer([make_record(2)])
        writer.close()
        assert path.read_bytes() == before + b"".join(
            b"\n" + record_line(make_record(i)).encode() for i in (1, 2)) \
            + b"\n"

    def test_an_append_writes_its_players_line_with_its_first_batch(
            self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        before = path.read_bytes()
        first, second = ([{"id": name, "kind": "constant", "value": 0.5}]
                         for name in ("c", "e"))
        LogWriter(path, players=first).close()
        assert path.read_bytes() == before
        for players, k in ((first, 1), (second, 2), ([], 3)):
            writer = LogWriter(path, players=players)
            writer([make_record(k)])
            writer([make_record(k + 10)])
            writer.close()
        lines = path.read_text().splitlines()
        assert lines[2] == ('{"entries":[{"id":"c","kind":"constant",'
                            '"value":0.5}],"type":"players"}')
        assert [line.startswith('{"entries":') for line in lines] == [
            False, False, True, False, False, True, False, False, False,
            False]
        header, records, _ = read_log(path)
        assert header.players == (first, second)
        assert list(records) == [make_record(k)
                                 for k in (0, 1, 11, 2, 12, 3, 13)]

    def test_a_corrupt_players_line_is_a_corrupt_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        with open(path, "a") as fh:
            fh.write('{"entries":"c","type":"players"}\n')
        with pytest.raises(LogError, match=":3: players line field "
                                           "entries"):
            read_log(path)
        header, records, problems = read_log(path, strict=False)
        assert header.players == () and len(records) == 1
        assert len(problems) == 1

    def test_log_writer_streams_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with closing(LogWriter(path, HEADER)) as sink:
            sink([make_record(0)])
            sink([make_record(1)])
        lines = [header_line(HEADER), record_line(make_record(0)),
                 record_line(make_record(1))]
        assert path.read_text() == "".join(line + "\n" for line in lines)

    def test_every_record_is_on_disk_before_close(self, tmp_path):
        # A killed run must keep every match it finished.
        path = tmp_path / "log.jsonl"
        sink = LogWriter(path, HEADER)
        try:
            for i in range(3):
                sink([make_record(i)])
                _, records, _ = read_log(path)
                assert list(records) == [make_record(k)
                                         for k in range(i + 1)]
        finally:
            sink.close()


class TestRecovery:
    def corrupt_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0), make_record(1)])
        lines = path.read_text().splitlines()
        lines.insert(2, "{broken")  # second record line becomes corrupt
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_strict_mode_raises_with_the_line_number(self, tmp_path):
        path = self.corrupt_log(tmp_path)
        with pytest.raises(LogError, match=":3:"):
            read_log(path)

    def test_lenient_mode_collects_and_continues(self, tmp_path):
        path = self.corrupt_log(tmp_path)
        header, records, problems = read_log(path, strict=False)
        assert header == HEADER
        assert list(records) == [make_record(0), make_record(1)]
        assert len(problems) == 1 and ":3:" in problems[0]

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        with open(path, "a") as fh:
            fh.write("\n\n")
        write_records(path, [make_record(1)], header=None)
        _, records, problems = read_log(path)
        assert list(records) == [make_record(0), make_record(1)]
        assert problems == []

    def test_a_byte_that_is_not_utf8_costs_only_its_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0), make_record(1), make_record(2)])
        data = path.read_bytes().split(b"\n")
        data[2] = data[2].replace(b'"seed":', b'"s\xc3\x28ed":')
        path.write_bytes(b"\n".join(data))
        _, records, problems = read_log(path, strict=False)
        assert list(records) == [make_record(0), make_record(2)]
        column = data[2].index(b"\xc3") + 1
        assert problems == [f"{path}:3: byte 0xc3 at character {column} is "
                            "not UTF-8"]
        with pytest.raises(LogError, match=":3: byte 0xc3 "):
            read_log(path)
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(LogError, match=":1: byte 0xff at character 1 "):
            read_log(path, strict=False)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.touch()
        with pytest.raises(LogError, match="missing header"):
            read_log(path)

    def test_truncated_trailing_line_is_recoverable(self, tmp_path):
        # A crash mid-append leaves a partial last line; lenient mode keeps
        # everything before it.
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        with open(path, "a") as fh:
            fh.write(record_line(make_record(1))[:20])
        _, records, problems = read_log(path, strict=False)
        assert list(records) == [make_record(0)]
        assert len(problems) == 1


def reference_read_log(path, strict: bool = True):
    """The per-line reader: every line through parse_line."""
    problems, records = [], []
    with open(path) as fh:
        header = parse_header(fh.readline())
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                records.append(parse_line(line))
            except LogError as exc:
                message = f"{path}:{number}: {exc}"
                if strict:
                    raise LogError(message) from exc
                problems.append(message)
    return header, records, problems


def strict_outcome(reader, path):
    try:
        _, records, _ = reader(path)
    except LogError as exc:
        return str(exc)
    return [record_line(r) for r in records]


counts = st.one_of(st.integers(0, 512), st.integers(0, 2 ** 63 - 1)).flatmap(
    lambda trials: st.tuples(st.just(trials), st.integers(0, trials)))
wide_records = st.builds(
    lambda gen, disc, fake, real, seed, threshold: MatchRecord(
        gen, disc, fake[0], fake[1], real[0], real[1], seed, threshold),
    st.text(alphabet=TEXT_ALPHABET, max_size=4),
    st.text(alphabet=TEXT_ALPHABET, max_size=4), counts, counts,
    st.integers(0, 2 ** 64 - 1),
    st.one_of(st.floats(), st.sampled_from([1e-05, float("nan"), 0.5])))


@st.composite
def rewritten_lines(draw):
    """A valid record in another layout: reordered keys, extra whitespace,
    raw non-ASCII characters, an integer threshold."""
    payload = json.loads(record_line(draw(wide_records)))
    if draw(st.booleans()) and payload["threshold"] == 1.0:
        payload["threshold"] = 1
    keys = draw(st.permutations(sorted(payload)))
    text = json.dumps({key: payload[key] for key in keys},
                      ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from(
                          [(",", ":"), (", ", ": "), (" ,", " :")])))
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(
        st.sampled_from(["", " ", "\r"]))


@st.composite
def corrupt_lines(draw):
    """A canonical record line with one field made invalid, a truncated
    line, or plain garbage."""
    line = record_line(draw(wide_records))
    payload = json.loads(line)
    kind = draw(st.sampled_from(["field", "truncated", "garbage"]))
    if kind == "truncated":
        return line[:draw(st.integers(0, len(line) - 1))]
    if kind == "garbage":
        return draw(st.sampled_from(["{broken", "[1]", "null", "{}", "\x00"]))
    field, value = draw(st.sampled_from([
        ("n_fake", -1), ("real_wins", -5), ("seed", -1), ("seed", 2 ** 64),
        ("seed", 10 ** 20), ("n_real", 2 ** 63), ("fake_wins", 10 ** 18),
        ("real_wins", payload["n_real"] + 1), ("threshold", 10 ** 400),
        ("threshold", "0.5"), ("generator_id", None)]))
    if field == "fake_wins":
        payload["n_fake"] = 0
    payload[field] = value
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestRecordTemplate:
    @given(st.lists(st.builds(
        lambda record, threshold: dataclasses.replace(record,
                                                      threshold=threshold),
        wide_records, st.one_of(st.floats(), st.integers(-2, 2 ** 70),
                                st.booleans())), max_size=8))
    # Both zeros in one batch: 0.0 == -0.0, but each dumps differently.
    @example([MatchRecord("g", "d", 1, 0, 1, 0, 0, threshold)
              for threshold in (0.0, -0.0, 0.0)])
    @settings(max_examples=200)
    def test_lines_are_those_of_json_dumps(self, records):
        # Quotes, backslashes, control characters, non-ASCII and non-BMP
        # ids; counts and seeds up to their limits; NaN, infinite, integer
        # and boolean thresholds (1, 1.0 and True dump differently).
        expected = "".join(
            json.dumps({name: getattr(r, name) for name in RECORD_FIELDS},
                       sort_keys=True, separators=(",", ":")) + "\n"
            for r in records)
        assert "".join(record_line(r) + "\n" for r in records) == expected
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "log.jsonl")
            with closing(LogWriter(path, HEADER)) as sink:
                sink(records)
                sink(records)  # every id and threshold text now cached
            with open(path, "rb") as fh:
                assert fh.read() == (header_line(HEADER) + "\n"
                                     + 2 * expected).encode()

    def test_nan_thresholds_share_one_cached_text(self, tmp_path):
        # Each record holds its own NaN object, and NaN != NaN: keyed by
        # value, every one of them would add a cache entry never hit again.
        records = [MatchRecord("g", "d", 4, 1, 4, 2, i, float("nan"))
                   for i in range(1000)]
        path = tmp_path / "log.jsonl"
        with closing(LogWriter(path, HEADER)) as sink:
            sink(records)
            assert len(sink._texts) == 3  # "g", "d" and NaN
        expected = "".join(
            json.dumps({name: getattr(r, name) for name in RECORD_FIELDS},
                       sort_keys=True, separators=(",", ":")) + "\n"
            for r in records)
        assert '"threshold":NaN' in expected
        assert path.read_bytes() == (header_line(HEADER) + "\n"
                                     + expected).encode()


log_lines = st.lists(st.one_of(
    wide_records.map(record_line), rewritten_lines(), corrupt_lines(),
    st.sampled_from(["", "  ", "\t"])), max_size=12)

CANONICAL = record_line(make_record(0))


def with_value(field: str, text) -> str:
    """CANONICAL with one count, seed or threshold written as ``text``."""
    return re.sub(f'"{field}":[^,}}]*', f'"{field}":{text}', CANONICAL)


# An 18-digit count and win count, the longest the pattern takes.
LONG_COUNTS = with_value("fake_wins", 10 ** 18 - 2).replace(
    '"n_fake":64', f'"n_fake":{10 ** 18 - 1}')
EDGE_THRESHOLDS = ("-0.0", "1e400", "NaN", "-Infinity", "5e-324")


@st.composite
def mutated_runs(draw):
    """A run of writer lines with one byte replaced, inserted or deleted at
    any offset: a quote, backslash, colon, comma, brace, digit, line end,
    NUL, DEL or non-ASCII character."""
    text = "".join(record_line(r) + "\n" for r in draw(
        st.lists(wide_records, min_size=1, max_size=4)))
    at = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    byte = draw(st.sampled_from(
        ['"', "\\", ":", ",", "{", "}", "\n", "\r", "\x00", "\x7f",
         "\u00e9", "\U0001f600", *"0123456789"]))
    return (text[:at] + ("" if kind == "delete" else byte)
            + text[at + (kind != "insert"):])


EDGE_VALUES = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324)
# Ids of 1, 7, 8, 9 and 17 bytes, either side of the 8-byte words that the
# bulk reader keys ids by, and of 200 bytes, too wide to key every id of a
# small chunk by, so that chunk's ids are coded through a dict.
sized_ids = st.sampled_from([1, 7, 8, 9, 17, 200]).flatmap(
    lambda size: st.text("g-09", min_size=size, max_size=size))


@st.composite
def bulk_records(draw):
    """A wide record as the bulk reader takes it: ids with quotes (escaped
    by the writer as \\"), backslashes, control characters and non-BMP
    characters are kept. Counts of 19 digits, past the 18 the bulk reader
    parses, are the one kind of writer line it leaves to the line-by-line
    path; they are taken out."""
    record = draw(wide_records)
    ids = [draw(st.one_of(st.just(pid), sized_ids))
           for pid in (record.generator_id, record.discriminator_id)]
    counts = []
    for trials, wins in ((record.n_fake, record.fake_wins),
                         (record.n_real, record.real_wins)):
        trials %= 10 ** 18
        counts += [trials, wins % (trials + 1)]
    return MatchRecord(
        *ids, *counts,
        seed=draw(st.sampled_from([record.seed, 0, 2 ** 64 - 1])),
        threshold=draw(st.sampled_from([record.threshold, *EDGE_VALUES])))


class TestBulkReader:
    def assert_reads_as_the_per_line_reader(self, path, chunk):
        expected = reference_read_log(path, strict=False)
        with pytest.MonkeyPatch.context() as patch:
            # Small chunks put chunk boundaries between most lines.
            patch.setattr(store, "_CHUNK_CHARS", chunk)
            header, table, problems = read_log(path, strict=False)
            strict = strict_outcome(read_log, path)
        assert header == expected[0]
        # record_line compares NaN thresholds and int/float types too.
        assert [record_line(r) for r in table] == [
            record_line(r) for r in expected[1]]
        assert problems == expected[2]
        assert strict == strict_outcome(reference_read_log, path)

    @given(lines=log_lines, chunk=st.integers(1, 400),
           trailing_newline=st.booleans())
    # Forms json.loads rejects and a careless pattern would take: a leading
    # zero, non-ASCII digits, raw control characters in an id.
    @example(lines=[CANONICAL,
                    CANONICAL.replace('"n_fake":64', '"n_fake":064'),
                    CANONICAL], chunk=1000, trailing_newline=True)
    @example(lines=[CANONICAL, CANONICAL.replace(
        '"n_fake":64', '"n_fake":\u0666\u0664'), CANONICAL],
             chunk=1000, trailing_newline=True)
    @example(lines=[CANONICAL, CANONICAL.replace('"g0"', '"g\t0"'),
                    CANONICAL.replace('"d0"', '"d\x1f"')],
             chunk=1000, trailing_newline=False)
    # An integer threshold too large for a float: json.loads gives an int
    # that float() cannot convert, float() of the text gives inf.
    @example(lines=[CANONICAL.replace('"threshold":0.5',
                                      '"threshold":1' + "0" * 400)],
             chunk=1000, trailing_newline=True)
    # The edges of numpy's column conversions: the largest seed and count
    # the pattern and the columns take, seeds past uint64 (left to the
    # per-line reader and its message), and float texts numpy must read
    # exactly as float() does.
    @example(lines=[CANONICAL, with_value("seed", 2 ** 64 - 1), CANONICAL],
             chunk=1000, trailing_newline=True)
    @example(lines=[CANONICAL, with_value("seed", 2 ** 64), CANONICAL],
             chunk=1000, trailing_newline=True)
    @example(lines=[CANONICAL, with_value("seed", 10 ** 20 - 1), CANONICAL],
             chunk=1000, trailing_newline=True)
    @example(lines=[CANONICAL, LONG_COUNTS, CANONICAL],
             chunk=1000, trailing_newline=True)
    @example(lines=[CANONICAL, with_value("n_real", 2 ** 63), CANONICAL],
             chunk=1000, trailing_newline=True)
    @example(lines=[with_value("threshold", text) for text in EDGE_THRESHOLDS],
             chunk=1000, trailing_newline=True)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_line_reader(self, lines, chunk, trailing_newline,
                                        tmp_path_factory):
        path = tmp_path_factory.mktemp("bulk") / "log.jsonl"
        body = "\n".join([header_line(HEADER), *lines])
        path.write_text(body + ("\n" if trailing_newline else ""))
        self.assert_reads_as_the_per_line_reader(path, chunk)

    @given(body=mutated_runs(), chunk=st.integers(1, 1500))
    # CRLF and lone CR line ends, a NUL in an id or in place of a line end
    # (json.loads then finds extra data), no final newline.
    @example(body=CANONICAL + "\r\n" + CANONICAL + "\n", chunk=1500)
    @example(body=CANONICAL + "\x00" + CANONICAL + "\n", chunk=1500)
    @example(body=CANONICAL + "\r" + CANONICAL + "\n", chunk=1500)
    @example(body=CANONICAL.replace('"g0"', '"g\x000"') + "\n", chunk=1500)
    @example(body=CANONICAL + "\n" + CANONICAL, chunk=1500)
    # A one-digit count or seed deleted: an empty field.
    @example(body=with_value("fake_wins", "") + "\n", chunk=1500)
    @example(body=with_value("seed", "") + "\n", chunk=1500)
    # More wins than trials.
    @example(body=with_value("fake_wins", 90) + "\n", chunk=1500)
    @example(body=with_value("real_wins", 90) + "\n", chunk=1500)
    # A byte before a line's first brace, or in place of its last.
    @example(body="5" + CANONICAL + "\n", chunk=1500)
    @example(body=CANONICAL + "\n," + CANONICAL + "\n", chunk=1500)
    @example(body=CANONICAL[:-1] + "5\n", chunk=1500)
    # Thresholds as json.loads reads them alone: after a byte order mark
    # (taken from bytes, refused in text), between spaces, an int.
    @example(body=with_value("threshold", "\ufeff0.5") + "\n", chunk=1500)
    @example(body=with_value("threshold", " 0.5 ") + "\n", chunk=1500)
    @example(body=with_value("threshold", "1") + "\n", chunk=1500)
    @settings(max_examples=300, deadline=None)
    def test_one_byte_mutations_read_as_the_per_line_reader(
            self, body, chunk, tmp_path_factory):
        path = tmp_path_factory.mktemp("mutated") / "log.jsonl"
        path.write_text(header_line(HEADER) + "\n" + body)
        self.assert_reads_as_the_per_line_reader(path, chunk)

    @given(records=st.lists(bulk_records(), min_size=1, max_size=12),
           split=st.integers(0, 12))
    @example(records=[MatchRecord(gen, disc, 64, 3, 64, 5, seed=7,
                                  threshold=0.5)
                      for gen, disc in (("g", "d" * 7), ("g" * 8, "d" * 9),
                                        ("g" * 17, "d"), ("g" * 9, "d" * 8))],
             split=2)
    # Escaped quotes in ids, with the keyed ids and then coded through a
    # dict beside a 200-byte id.
    @example(records=[MatchRecord(gen, disc, 64, 3, 64, 5, seed=7,
                                  threshold=0.5)
                      for gen, disc in (('g"', 'd\\"'), ("g" * 8, '\\"\\'),
                                        ("g" * 200, 'd"'), ("g", "d" * 9))],
             split=2)
    @settings(max_examples=200, deadline=None)
    def test_writer_lines_take_the_bulk_path(self, records, split):
        # Written by LogWriter in two batches and read as two chunks: no
        # chunk may fall back to the line-by-line path.
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "log.jsonl")
            with closing(LogWriter(path, HEADER)) as sink:
                sink(records[:split])
                sink(records[split:])
            with open(path) as fh:
                lines = fh.readlines()[1:]
        codes: dict[str, int] = {}
        raw_codes: dict[bytes, int] = {}
        chunks = [logscan.canonical_chunk("".join(part), codes, raw_codes)
                  for part in (lines[:split], lines[split:]) if part]
        assert None not in chunks
        table = MatchTable.from_columns(
            list(codes), *map(np.concatenate, zip(*chunks)))
        # Read back as the line-by-line path reads them: the writer keeps no
        # NaN payload.
        assert table_bytes(table) == table_bytes(
            MatchTable.from_records(map(parse_line, lines)))

    def test_columns_equal_those_of_the_records(self, tmp_path):
        records = [make_record(i) for i in range(4)]
        records.append(MatchRecord("g\u00e9", "d\"0", 0, 0, 0, 0,
                                   seed=2 ** 64 - 1, threshold=1e-05))
        path = tmp_path / "log.jsonl"
        write_records(path, records)
        _, table, _ = read_log(path)
        expected = MatchTable.from_records(records)
        assert table.ids == expected.ids
        for name in ("gen", "disc", "n_fake", "fake_wins", "n_real",
                     "real_wins", "seed", "threshold"):
            column = getattr(table, name)
            assert column.dtype == getattr(expected, name).dtype
            assert column.tolist() == getattr(expected, name).tolist()

    def test_a_log_reads_the_same_at_the_old_and_the_new_chunk_size(
            self, tmp_path):
        # A writer log over more than three chunks of the size read_log
        # takes, whose ids and thresholds recur across chunk boundaries,
        # reads to the same table at 1 << 17, the earlier size, and as the
        # per-line reader reads it.
        path = tmp_path / "log.jsonl"
        write_records(path, [MatchRecord(
            f"g{i % 97}", f"d{i // 97}", 64, i % 65, 64, 64 - i % 65,
            seed=i * 2654435761, threshold=i % 7 / 8) for i in range(12000)])
        assert path.stat().st_size > 3 * store._CHUNK_CHARS
        tables = []
        for chunk in (1 << 17, store._CHUNK_CHARS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(store, "_CHUNK_CHARS", chunk)
                tables.append(table_bytes(read_log(path)[1]))
        assert tables[0] == tables[1] == table_bytes(
            MatchTable.from_records(reference_read_log(path)[1]))

    @pytest.mark.parametrize("line", [
        with_value("seed", 2 ** 64 - 1), LONG_COUNTS,
        *(with_value("threshold", text) for text in EDGE_THRESHOLDS)])
    def test_bulk_columns_read_edge_values_as_the_line_reader(self, line):
        columns = logscan.canonical_chunk(line + "\n", {}, {})
        assert columns is not None
        expected = MatchTable.from_records([parse_line(line)])
        for name, column in zip(("n_fake", "fake_wins", "n_real",
                                 "real_wins", "seed", "threshold"),
                                columns[2:]):
            assert column.dtype == getattr(expected, name).dtype
            # Bit patterns, so -0.0 and NaN compare as themselves.
            assert column.tobytes() == getattr(expected, name).tobytes()

    @pytest.mark.parametrize("seed", [2 ** 64, 10 ** 20 - 1])
    def test_bulk_columns_leave_seeds_past_uint64_to_the_line_reader(
            self, seed):
        assert logscan.canonical_chunk(
            CANONICAL + "\n" + with_value("seed", seed) + "\n", {}, {}
        ) is None


def concatenating_read_log(path, strict: bool = True):
    """read_log with each chunk parsed into columns of its own and the
    chunks' columns joined at the end: the reference for the columns that
    read_log fills in place."""
    problems: list[str] = []
    codes: dict[str, int] = {}
    raw_codes: dict[bytes, int] = {}
    chunks = []
    with open(path) as fh:
        header = parse_header(fh.readline())
        number = 2
        while text := fh.read(store._CHUNK_CHARS):
            text += fh.readline()
            chunk = logscan.canonical_chunk(text, codes, raw_codes)
            if chunk is None:
                records = []
                for offset, line in enumerate(io.StringIO(text)):
                    if not line.strip():
                        continue
                    try:
                        records.append(parse_line(line))
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
            chunks.append(chunk)
            number += text.count("\n")
    columns = [np.concatenate(parts) if parts else []
               for parts in zip(*chunks)] or [[]] * 8
    return header, MatchTable.from_columns(list(codes), *columns), problems


def table_bytes(table: MatchTable):
    """A table's ids and each column's dtype and bytes, so NaN and -0.0
    thresholds compare as themselves."""
    return table.ids, [(getattr(table, name).dtype,
                        getattr(table, name).tobytes())
                       for name in ("gen", "disc", "n_fake", "fake_wins",
                                    "n_real", "real_wins", "seed",
                                    "threshold")]


# Runs of writer-layout lines, so small chunks are often all canonical,
# between rewritten, corrupt and blank lines that send theirs line by line.
mixed_log_lines = st.lists(st.one_of(
    st.lists(wide_records.map(record_line), min_size=1, max_size=6),
    st.lists(st.one_of(rewritten_lines(), corrupt_lines(),
                       st.sampled_from(["", "  "])), max_size=2)),
    max_size=8).map(lambda runs: [line for run in runs for line in run])


class TestInPlaceColumns:
    @given(lines=mixed_log_lines, chunk=st.integers(1, 1500),
           trailing_newline=st.booleans(), grow=st.booleans())
    @example(lines=[], chunk=1, trailing_newline=False, grow=False)
    @example(lines=[], chunk=1, trailing_newline=True, grow=True)
    @example(lines=[CANONICAL, "", CANONICAL.replace('"g0"', '"g\\"0"'),
                    "{broken", CANONICAL], chunk=1, trailing_newline=False,
             grow=False)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_concatenating_reader(self, lines, chunk,
                                             trailing_newline, grow,
                                             tmp_path_factory):
        path = tmp_path_factory.mktemp("inplace") / "log.jsonl"
        body = "\n".join([header_line(HEADER), *lines])
        path.write_text(body + ("\n" if trailing_newline else ""))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(store, "_CHUNK_CHARS", chunk)
            if grow:
                # Columns sized for no record, as for a log that grows
                # while it is read: they must grow chunk by chunk.
                patch.setattr(store, "_SHORTEST_RECORD", 10 ** 9)
            expected = concatenating_read_log(path, strict=False)
            header, table, problems = read_log(path, strict=False)
            strict = strict_outcome(read_log, path)
            assert strict == strict_outcome(concatenating_read_log, path)
        assert header == expected[0]
        assert table_bytes(table) == table_bytes(expected[1])
        assert problems == expected[2]

    def test_columns_are_sized_by_the_shortest_record_line(self):
        shortest = MatchRecord("", "", 0, 0, 0, 0, 0, 0)
        assert store._SHORTEST_RECORD == len(record_line(shortest))
        for field in RECORD_FIELDS:
            # Every field is needed, so no line parse_line takes is
            # shorter.
            payload = json.loads(record_line(shortest))
            del payload[field]
            with pytest.raises(LogError, match="missing field"):
                parse_line(json.dumps(payload, separators=(",", ":")))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc")
    def test_a_read_holds_one_copy_of_the_table(self, tmp_path):
        # 100 000 writer-layout records, 64 bytes each as columns, read in
        # a fresh interpreter after a small read has paged in the code.
        # Joining per-chunk columns at the end left the freed chunk arrays
        # resident: peak RSS grew by 2.36 table sizes over the read, against
        # 1.21 with the columns filled in place (one table plus one chunk's
        # lines and matches).
        small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
        for path, n in ((small, 1000), (large, 100000)):
            write_records(path, [MatchRecord(
                f"g{i % 100}", f"d{i // 100 % 1000}", 64, i % 65, 64,
                64 - i % 65, seed=i, threshold=0.5) for i in range(n)])
        # VmHWM is the peak RSS of this process's own memory; ru_maxrss
        # would start from the peak of the process that spawned it.
        probe = ("import sys\n"
                 "from arena.store import read_log\n"
                 "def peak():\n"
                 "    with open('/proc/self/status') as fh:\n"
                 "        return next(int(line.split()[1]) for line in fh\n"
                 "                    if line.startswith('VmHWM:'))\n"
                 "read_log(sys.argv[1])\n"
                 "before = peak()\n"
                 "_, table, _ = read_log(sys.argv[2])\n"
                 "grown = peak() - before\n"
                 "print(len(table), grown * 1024 / (64 * len(table)))\n")
        result = fresh_python("-c", probe, small, large, check=True)
        records, growth = result.stdout.split()
        assert int(records) == 100000
        assert float(growth) < 1.6
