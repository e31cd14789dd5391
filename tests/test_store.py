"""Match log round-trip and recovery tests."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from arena.store import (LOG_FORMAT, LogError, LogHeader, LogWriter,
                         header_line, parse_header, parse_record, read_log,
                         record_line)
from arena.tournament import MatchRecord

HEADER = LogHeader(config_hash="0123456789abcdef", seed=7)

ids = st.text(alphabet="".join(map(chr, range(33, 127))),
              min_size=1, max_size=12)


def write_records(path, records, header: LogHeader | None = HEADER) -> None:
    """Write records through LogWriter: a new log when a header is given,
    an append otherwise."""
    with LogWriter(path, header) as sink:
        for record in records:
            sink(record)


def make_record(i: int = 0) -> MatchRecord:
    return MatchRecord(generator_id=f"g{i}", discriminator_id="d0",
                       n_fake=64, fake_wins=40 - i, n_real=64,
                       real_wins=20 + i, seed=1000 + i, threshold=0.5)


record_strategy = st.builds(
    MatchRecord,
    generator_id=ids, discriminator_id=ids,
    n_fake=st.integers(1, 512), fake_wins=st.integers(0, 512),
    n_real=st.integers(1, 512), real_wins=st.integers(0, 512),
    seed=st.integers(0, 2 ** 63 - 1),
    threshold=st.floats(0.01, 0.99),
)


class TestLineFormats:
    def test_header_is_compact_sorted_json(self):
        line = header_line(HEADER)
        assert line == ('{"config_hash":"0123456789abcdef",'
                        '"format":"arena-log/1","seed":7}')
        assert parse_header(line) == HEADER

    def test_record_line_round_trips(self):
        rec = make_record(3)
        assert parse_record(record_line(rec)) == rec

    @given(record_strategy)
    @settings(max_examples=50)
    def test_any_record_round_trips(self, rec):
        assert parse_record(record_line(rec)) == rec

    def test_header_rejects_other_formats(self):
        line = json.dumps({"format": "other/1", "config_hash": "x",
                           "seed": 1})
        with pytest.raises(LogError, match=LOG_FORMAT):
            parse_header(line)

    @pytest.mark.parametrize("line, message", [
        ("not json", "unparseable"),
        ("[1,2]", "not a arena-log/1 log header"),
        ('{"format":"arena-log/1","seed":3}', "missing field"),
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
            parse_record(line)


class TestFileRoundTrip:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        records = [make_record(i) for i in range(5)]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(first, records)
        header, read, problems = read_log(first)
        assert (header, read, problems) == (HEADER, records, [])
        write_records(second, read, header)
        assert first.read_bytes() == second.read_bytes()

    @given(records=st.lists(record_strategy, max_size=8))
    @settings(max_examples=25)
    def test_round_trip_for_arbitrary_records(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("logs") / "log.jsonl"
        write_records(path, records)
        _, read, _ = read_log(path)
        assert read == records

    def test_append_extends_an_existing_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        before = path.read_bytes()
        write_records(path, [make_record(1), make_record(2)], header=None)
        assert path.read_bytes().startswith(before)
        _, records, _ = read_log(path)
        assert records == [make_record(0), make_record(1), make_record(2)]

    def test_log_writer_streams_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with LogWriter(path, HEADER) as sink:
            sink(make_record(0))
            sink(make_record(1))
        lines = [header_line(HEADER), record_line(make_record(0)),
                 record_line(make_record(1))]
        assert path.read_text() == "".join(line + "\n" for line in lines)

    def test_every_record_is_on_disk_before_close(self, tmp_path):
        # A killed run must keep every match it finished.
        path = tmp_path / "log.jsonl"
        sink = LogWriter(path, HEADER)
        try:
            for i in range(3):
                sink(make_record(i))
                _, records, _ = read_log(path)
                assert records == [make_record(k) for k in range(i + 1)]
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
        assert records == [make_record(0), make_record(1)]
        assert len(problems) == 1 and ":3:" in problems[0]

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_records(path, [make_record(0)])
        with open(path, "a") as fh:
            fh.write("\n\n")
        write_records(path, [make_record(1)], header=None)
        _, records, problems = read_log(path)
        assert records == [make_record(0), make_record(1)]
        assert problems == []

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
        assert records == [make_record(0)]
        assert len(problems) == 1
