"""External player protocol and process-lifecycle tests.

Most tests drive the bundled reference player as a real subprocess; a few
use tiny inline children to provoke protocol violations the reference
player cannot produce.
"""

from __future__ import annotations

import base64
import json
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arena import cli, extern, store
from arena import tournament as tn
from arena.cli import main
from arena.extern import (MESSAGE_TYPES, BatchSizeMismatch, ExternError,
                          ExternalPlayer, HandshakeFailed, ProtocolError,
                          RequestTimeout, RoleMismatch, ScoreOutOfRange,
                          dump_message, parse_message)
from arena.tournament import RunSettings, explicit_schedule, run_tournament

from conftest import (TEXT_ALPHABET, DrawsMany, fresh_python,
                      tiny_config_payload, write_yaml)


def ref_player(role: str, *extra: str) -> list[str]:
    return [sys.executable, "-m", "arena.ref_player", "--role", role,
            "--dim", "3", *extra]


def inline_child(body: str, hello: bool = False, role: str = "generator",
                 dim: int = 2) -> list[str]:
    """A child that runs ``body`` after a prologue defining ``emit`` and
    ``rows``, the number of samples of a judge request, and, with
    ``hello``, after a hello declaring the current protocol."""
    prologue = textwrap.dedent(f"""
        import base64, json, sys, time
        def emit(m):
            sys.stdout.write(json.dumps(m) + "\\n")
            sys.stdout.flush()
        def rows(request):
            return len(base64.b64decode(request["data"])) // (8 * {dim})
    """)
    if hello:
        prologue += ('emit({"type": "hello", "role": "%s", "name": "t", '
                     '"dim": %d, "protocol": %d})\n'
                     % (role, dim, extern.PROTOCOL_VERSION))
    return [sys.executable, "-c", prologue + textwrap.dedent(body)]


def slow_first_judge() -> list[str]:
    """A dim-3 discriminator that answers its first request only after
    1 s."""
    return inline_child("""
        for n, line in enumerate(sys.stdin):
            request = json.loads(line)
            if request["type"] == "shutdown":
                break
            time.sleep(1.0 if n == 0 else 0.0)
            emit({"type": "scores", "values": [0.5] * rows(request)})
    """, hello=True, role="discriminator", dim=3)


def malformed_child(role: str, payload: str) -> list[str]:
    """A player that answers every request with ``payload``, a Python
    expression in the request's sample count ``n``, as its samples data
    (a generator) or its scores values (a discriminator)."""
    reply, field = (("samples", "data") if role == "generator"
                    else ("scores", "values"))
    return inline_child(f"""
        for line in sys.stdin:
            request = json.loads(line)
            if request["type"] == "shutdown":
                break
            n = request.get("count") or rows(request)
            emit({{"type": "{reply}", "{field}": {payload}}})
    """, hello=True, role=role)


def packed(rows) -> str:
    """Rows of floats as the protocol sends them."""
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode()


def malformed(role: str, payload: str, id: str,
              fragment: str = "not a list of numbers"):
    return pytest.param(role, payload, fragment, id=id)


# Samples data that is not a base64 string of whole rows, and scores that
# are not a list of numbers or that hold an integer beyond double range;
# none may be coerced into a batch. The children declare dim 2.
MALFORMED = [
    malformed("generator", "base64.b64encode(bytes(16 * n - 8)).decode()",
              "ragged-samples", "not whole rows"),
    malformed("generator", '{"a": 1}', "object-samples",
              "not a base64 string"),
    malformed("generator", '"0.5" * n', "string-samples",
              "not valid base64"),
    malformed("generator", "True", "boolean-samples", "not a base64 string"),
    malformed("discriminator", '{"a": 1}', "object-scores"),
    malformed("discriminator", '["0.5"] * n', "string-scores"),
    malformed("discriminator", "[True] * n", "boolean-scores"),
    malformed("discriminator", "[10 ** 400] * n", "huge-int-scores"),
    malformed("generator", '"%%%"', "v2-not-base64", "not valid base64"),
    malformed("generator", '"AAAA"', "v2-partial-row", "not whole rows"),
    malformed("generator", "[[0.0, 0.0]] * n", "v2-list-samples",
              "not a base64 string"),
]


class LocalData(DrawsMany):
    def sample(self, count, rng):
        return rng.standard_normal((count, 3))


class HalfJudge:
    def judge(self, batch, rng=None):
        return np.full(len(batch), 0.25)


class Replay(DrawsMany):
    """A generator or data source that always gives the same batch."""

    def __init__(self, batch):
        self.batch = batch

    def sample(self, count, rng):
        return self.batch


class TestWireFormat:
    @given(st.sampled_from(MESSAGE_TYPES),
           st.dictionaries(st.sampled_from(["count", "seed", "name"]),
                           st.one_of(st.integers(),
                                     st.text(TEXT_ALPHABET, max_size=8)),
                           max_size=3))
    def test_round_trip(self, kind, payload):
        message = {"type": kind, **payload}
        assert parse_message(dump_message(message)) == message

    def test_dump_rejects_unknown_types(self):
        with pytest.raises(ProtocolError, match="cannot serialize"):
            dump_message({"type": "gossip"})

    @pytest.mark.parametrize("line, fragment", [
        ("%%%", "undecodable"),
        ("[1, 2]", "not an object"),
        ('{"type": "gossip"}', "unknown message type"),
    ])
    def test_parse_rejects_bad_lines(self, line, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_message(line)


class TestHandshake:
    def test_reference_generator_handshake(self):
        with ExternalPlayer(ref_player("generator", "--name", "refgen"),
                            role="generator") as player:
            assert player.dim == 3
            assert player.name == "refgen"
            assert player.role == "generator"

    def test_role_mismatch_detected(self):
        with pytest.raises(RoleMismatch, match="declared role 'generator'"):
            ExternalPlayer(ref_player("generator"), role="discriminator")

    def test_invalid_role_argument(self):
        with pytest.raises(ValueError, match="role must be one of"):
            ExternalPlayer(ref_player("generator"), role="umpire")

    def test_silent_exit_fails_the_handshake(self):
        with pytest.raises(HandshakeFailed):
            ExternalPlayer(ref_player("generator", "--skip-hello"),
                           role="generator")

    def test_unspawnable_command_fails_the_handshake(self):
        with pytest.raises(HandshakeFailed, match="cannot spawn"):
            ExternalPlayer(["arena-player-that-does-not-exist"],
                           role="generator")

    def test_missing_hello_times_out(self):
        child = inline_child("time.sleep(1.0)")
        with pytest.raises(HandshakeFailed, match="no hello within"):
            ExternalPlayer(child, role="generator", handshake_timeout=0.2)

    def test_wrong_protocol_version_rejected(self):
        child = inline_child("""
            emit({"type": "hello", "role": "generator", "name": "t",
                  "dim": 2, "protocol": 99})
            time.sleep(1.0)
        """)
        with pytest.raises(HandshakeFailed, match="protocol 99 unsupported"):
            ExternalPlayer(child, role="generator")

    def test_first_message_must_be_hello(self):
        child = inline_child("""
            emit({"type": "samples", "data": []})
            time.sleep(1.0)
        """)
        with pytest.raises(HandshakeFailed, match="expected hello"):
            ExternalPlayer(child, role="generator")

    @pytest.mark.parametrize("dim", ["0", "True", "'wide'"])
    def test_invalid_dimension_rejected(self, dim):
        child = inline_child(f"""
            emit({{"type": "hello", "role": "generator", "name": "t",
                  "dim": {dim}, "protocol": 2}})
            time.sleep(1.0)
        """)
        with pytest.raises(HandshakeFailed, match="invalid sample dimension"):
            ExternalPlayer(child, role="generator")


class TestRequests:
    def test_generated_batches_have_the_declared_shape(self):
        with ExternalPlayer(ref_player("generator"),
                            role="generator") as player:
            batch = player.sample(5, np.random.default_rng(1))
            assert batch.shape == (5, 3)
            assert np.isfinite(batch).all()

    def test_generation_is_deterministic_in_the_wire_seed(self):
        with ExternalPlayer(ref_player("generator"),
                            role="generator") as one:
            first = one.sample(4, np.random.default_rng(42))
        with ExternalPlayer(ref_player("generator"),
                            role="generator") as two:
            second = two.sample(4, np.random.default_rng(42))
            third = two.sample(4, np.random.default_rng(43))
        assert np.array_equal(first, second)
        assert not np.array_equal(first, third)

    def test_judging_returns_the_constant_scores(self):
        with ExternalPlayer(ref_player("discriminator", "--value", "0.75"),
                            role="discriminator") as player:
            scores = player.judge(np.zeros((6, 3)))
            assert np.array_equal(scores, np.full(6, 0.75))

    def test_role_guards_on_the_session_side(self):
        with ExternalPlayer(ref_player("generator"),
                            role="generator") as player:
            with pytest.raises(RoleMismatch, match="judge"):
                player.judge(np.zeros((2, 3)))
        with ExternalPlayer(ref_player("discriminator"),
                            role="discriminator") as player:
            with pytest.raises(RoleMismatch, match="sample"):
                player.sample(2)

    def test_short_generator_batches_are_rejected(self):
        with ExternalPlayer(ref_player("generator", "--misbehave",
                                       "short-batch"),
                            role="generator") as player:
            with pytest.raises(BatchSizeMismatch, match="asked for 4"):
                player.sample(4)

    def test_short_score_vectors_are_rejected(self):
        with ExternalPlayer(ref_player("discriminator", "--misbehave",
                                       "short-batch"),
                            role="discriminator") as player:
            with pytest.raises(BatchSizeMismatch, match="judged 4"):
                player.judge(np.zeros((4, 3)))

    def test_out_of_range_scores_are_rejected_not_clamped(self):
        with ExternalPlayer(ref_player("discriminator", "--misbehave",
                                       "big-score"),
                            role="discriminator") as player:
            with pytest.raises(ScoreOutOfRange, match=r"1\.2"):
                player.judge(np.zeros((3, 3)))

    def test_error_replies_surface_as_protocol_errors(self):
        child = inline_child("""
            for line in sys.stdin:
                emit({"type": "error", "message": "boom"})
        """, hello=True)
        with ExternalPlayer(child, role="generator") as player:
            with pytest.raises(ProtocolError, match="player error: boom"):
                player.sample(2)

    def test_unexpected_reply_type_is_a_protocol_error(self):
        child = inline_child("""
            for line in sys.stdin:
                emit({"type": "scores", "values": []})
        """, hello=True)
        with ExternalPlayer(child, role="generator") as player:
            with pytest.raises(ProtocolError, match="generate answered"):
                player.sample(2)

    def test_slow_replies_time_out(self):
        child = inline_child("time.sleep(1.0)", hello=True)
        with ExternalPlayer(child, role="generator",
                            request_timeout=0.2) as player:
            with pytest.raises(RequestTimeout, match="no reply within"):
                player.sample(2)

    def test_an_undecodable_reply_fails_at_once_and_ends_the_session(self):
        child = inline_child("""
            reply = b'{"type": "samples", "data": "\\xff"}\\n'
            for line in sys.stdin:
                sys.stdout.buffer.write(reply)
                sys.stdout.flush()
        """, hello=True)
        with ExternalPlayer(child, role="generator",
                            request_timeout=5.0) as player:
            start = time.perf_counter()
            with pytest.raises(ProtocolError, match="undecodable message"):
                player.sample(2)
            assert time.perf_counter() - start < 2.0
            with pytest.raises(ExternError, match="not UTF-8"):
                player.sample(2)

    def test_a_timed_out_session_answers_no_later_request(self):
        with ExternalPlayer(slow_first_judge(), role="discriminator",
                            request_timeout=0.3) as player:
            with pytest.raises(RequestTimeout):
                player.judge(np.zeros((2, 3)))
            time.sleep(1.0)  # the late reply to the first request is in
            for _ in range(2):
                with pytest.raises(ExternError,
                                   match="an earlier request timed out"):
                    player.judge(np.zeros((2, 3)))

    def test_a_reply_split_across_writes_is_read_as_one_message(self):
        child = inline_child("""
            reply = json.dumps({"type": "samples", "data": base64.b64encode(
                bytes(8 * 2 * 3)).decode()}) + "\\n"
            for line in sys.stdin:
                sys.stdout.write(reply[:20])
                sys.stdout.flush()
                time.sleep(0.2)
                sys.stdout.write(reply[20:])
                sys.stdout.flush()
        """, hello=True)
        with ExternalPlayer(child, role="generator") as player:
            for _ in range(2):
                assert np.array_equal(player.sample(3), np.zeros((3, 2)))

    def test_a_last_line_without_a_newline_is_parsed_at_end_of_output(self):
        # The cut line is parsed as a message, as a line that ends with a
        # newline is, and fails as undecodable; the next request finds the
        # output ended.
        child = inline_child("""
            sys.stdin.readline()
            sys.stdout.write('{"type": "samples", "data": "AAAA')
        """, hello=True)
        with ExternalPlayer(child, role="generator") as player:
            with pytest.raises(ProtocolError, match="^undecodable message"):
                player.sample(2)
            with pytest.raises(ExternError,
                               match=r"generate: player process exited "
                                     r"\(code 0\)"):
                player.sample(2)

    def test_an_unrequested_line_is_read_as_the_next_reply(self):
        # The first request is answered twice; the extra line is the second
        # request's reply, and every later reply comes one request late.
        child = inline_child("""
            def reply(value):
                emit({"type": "samples", "data": base64.b64encode(
                    struct.pack("<2d", value, value)).decode()})
            import struct
            for n, line in enumerate(sys.stdin):
                if n == 0:
                    reply(0.0)
                reply(n + 1.0)
        """, hello=True)
        with ExternalPlayer(child, role="generator") as player:
            assert [player.sample(1)[0, 0] for _ in range(3)] == [0, 1, 2]

    def test_a_child_that_stops_reading_times_the_request_out(self):
        # A judge request too large for the pipe, to a child that reads
        # nothing after its hello, times out like a missing reply. Run in a
        # fresh interpreter, so that a hang fails the test instead of
        # stalling the suite; the child leaves once its host has gone.
        child = inline_child("""
            import os
            host = os.getppid()
            while os.getppid() == host:
                time.sleep(0.05)
        """, hello=True, role="discriminator", dim=8)
        probe = textwrap.dedent("""
            import json, sys, time
            import numpy as np
            from arena import extern
            extern.CLOSE_TIMEOUT = 0.5
            player = extern.ExternalPlayer(json.loads(sys.argv[1]),
                                           role="discriminator",
                                           request_timeout=1.0)
            start = time.monotonic()
            try:
                player.judge(np.zeros((10000, 8)))
            except extern.ExternError as exc:
                print(type(exc).__name__, exc)
            print(round(time.monotonic() - start))
            player.close()
            print(player._proc.returncode)
        """)
        result = fresh_python("-c", probe, json.dumps(child), timeout=20,
                              check=True)
        assert result.stdout.splitlines() == [
            "RequestTimeout judge: no reply within 1 s", "1",
            str(-signal.SIGKILL)]

    def test_wrong_request_kind_answered_with_an_error(self):
        # Drive the reference player manually to check its own guard rail.
        proc = subprocess.Popen(ref_player("generator"),
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True, bufsize=1)
        try:
            assert json.loads(proc.stdout.readline())["type"] == "hello"
            proc.stdin.write(json.dumps({"type": "judge", "data": []}) +
                             "\n")
            proc.stdin.flush()
            reply = json.loads(proc.stdout.readline())
            assert reply["type"] == "error"
            assert "cannot answer" in reply["message"]
        finally:
            proc.stdin.close()
            proc.wait(timeout=5)


class TestMalformedReplies:
    @pytest.mark.parametrize("role, payload, fragment", MALFORMED)
    def test_a_reply_that_is_not_numbers_is_a_protocol_error(
            self, role, payload, fragment):
        with ExternalPlayer(malformed_child(role, payload),
                            role=role) as player:
            with pytest.raises(ProtocolError, match=fragment):
                if role == "generator":
                    player.sample(4)
                else:
                    player.judge(np.zeros((4, 2)))

    def test_well_formed_replies_still_pass(self):
        row = np.array([1, 0.5], dtype="<f8").tobytes()
        with ExternalPlayer(malformed_child(
                "generator", f"base64.b64encode({row!r} * n).decode()"),
                            role="generator") as player:
            assert np.array_equal(player.sample(3), np.full((3, 2), [1, .5]))
        with ExternalPlayer(malformed_child("discriminator", "[0, 1.0] * 2"),
                            role="discriminator") as player:
            assert player.judge(np.zeros((4, 2))).tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("role, payload, fragment", MALFORMED)
    def test_strict_runs_exit_1_and_lenient_runs_skip(
            self, role, payload, fragment, tmp_path, capsys):
        trajectory = dict(tiny_config_payload()["players"][0],
                          n_checkpoints=2)
        config = write_yaml(tmp_path / "run.cfg", tiny_config_payload(
            task={"dim": 2, "seed": 13},
            players=[trajectory, {"kind": "external", "id": "ext",
                                  "role": role,
                                  "command": malformed_child(
                                      role, payload)}]))
        assert main(["run", "--config", config, "--out-dir",
                     str(tmp_path / "strict"), "--strict"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert "Traceback" not in err
        assert main(["run", "--config", config, "--out-dir",
                     str(tmp_path / "lenient")]) == 0
        # The header's config names ext, and no record does.
        log = (tmp_path / "lenient" / "log.jsonl").read_text()
        assert '"ext"' not in log.split("\n", 1)[1]
        assert log.count("\n") == 1 + 2 * 2


def relay_child(path) -> list[str]:
    """A dim-2 generator that answers every request with the JSON text in
    the file at ``path``, read anew for each request, as its samples data."""
    return [*inline_child("""
        for line in sys.stdin:
            if json.loads(line)["type"] == "shutdown":
                break
            with open(sys.argv[1]) as fh:
                data = fh.read()
            sys.stdout.write('{"type": "samples", "data": ' + data + '}\\n')
            sys.stdout.flush()
    """, hello=True), str(path)]


@pytest.fixture(scope="module")
def relay(tmp_path_factory):
    """A relay generator, and a function that sets its reply file."""
    path = tmp_path_factory.mktemp("relay") / "data.json"
    path.write_text("[]")
    session = ExternalPlayer(relay_child(path), role="generator")
    yield session, lambda payload: path.write_text(json.dumps(payload))
    session.close()


COUNT = 4
finite = st.floats(allow_nan=False, allow_infinity=False)
row = st.tuples(finite, finite)


@st.composite
def replies(draw):
    """A fault (or none), the samples data that carries it, and the
    exception class, or the rows, it must give."""
    fault = draw(st.sampled_from(["not-a-string", "not-base64",
                                  "partial-row", "row-count", "non-finite",
                                  "well-formed"]))
    if fault == "not-a-string":
        data = draw(st.one_of(st.none(), st.booleans(), st.integers(), finite,
                              st.lists(st.lists(finite, min_size=2,
                                                max_size=2), max_size=4),
                              st.dictionaries(st.just("a"), st.integers())))
        return fault, data, ProtocolError
    if fault == "not-base64":
        text = packed(draw(st.lists(row, min_size=1, max_size=4)))
        at = draw(st.integers(0, len(text)))
        bad = draw(st.sampled_from(["!", "-", "_", " ", "\n", "é", "=",
                                    "A"]))
        return fault, text[:at] + bad + text[at:], ProtocolError
    if fault == "partial-row":
        raw = draw(st.binary(max_size=80).filter(lambda b: len(b) % 16))
        return fault, base64.b64encode(raw).decode(), ProtocolError
    if fault == "row-count":
        rows = draw(st.lists(row, max_size=9).filter(
            lambda r: len(r) != COUNT))
        return fault, packed(rows), BatchSizeMismatch
    if fault == "non-finite":
        rows = draw(st.lists(st.tuples(st.floats(), st.floats()),
                             min_size=COUNT, max_size=COUNT).filter(
            lambda r: not np.isfinite(r).all()))
    else:
        rows = draw(st.lists(row, min_size=COUNT, max_size=COUNT))
    return fault, packed(rows), np.array(rows)


class TestProtocol2:
    def test_reference_player_speaks_protocol_2(self):
        for role in ("generator", "discriminator"):
            proc = subprocess.Popen(ref_player(role), stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, text=True)
            try:
                hello = json.loads(proc.stdout.readline())
            finally:
                proc.stdin.close()
                proc.wait(timeout=5)
            assert hello["protocol"] == 2 == extern.PROTOCOL_VERSION

    def test_a_protocol_1_player_is_not_started(self, tmp_path, capsys):
        # Protocol 1 sent samples as lists of decimal numbers; it is gone,
        # and a hello declaring it fails the handshake like any other.
        child = inline_child("""
            emit({"type": "hello", "role": "generator", "name": "t",
                  "dim": 3, "protocol": 1})
            for line in sys.stdin:
                pass
        """)
        path = write_yaml(tmp_path / "v1.cfg", tiny_config_payload(players=[
            *tiny_config_payload()["players"],
            {"kind": "external", "id": "ext-v1", "role": "generator",
             "command": child}]))
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out-dir", str(out)]) == 0
        assert ("warning: external player 'ext-v1' could not be started, its "
                "4 matches are skipped: player-start: protocol 1 "
                "unsupported, want 2") in capsys.readouterr().err
        _, records, _ = store.read_log(out / "log.jsonl")
        assert "ext-v1" not in records.ids
        assert main(["run", "--config", path, "--out-dir",
                     str(tmp_path / "strict"), "--strict"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: player-start: protocol 1 unsupported, want 2\n")

    @given(replies())
    def test_a_reply_fails_or_passes_by_its_fault(self, relay, reply):
        session, send = relay
        fault, data, expected = reply
        send(data)
        try:
            batch = session.sample(COUNT)
        except ExternError as exc:
            assert type(exc) is expected
            return
        assert not isinstance(expected, type)
        assert batch.shape == (COUNT, 2)
        assert batch.tobytes() == expected.tobytes()  # bit for bit
        if fault == "well-formed":
            return
        with pytest.raises(tn.MatchError) as info:
            tn.play_match(Replay(batch), HalfJudge(),
                          Replay(np.zeros((COUNT, 2))), generator_id="g",
                          discriminator_id="d", tournament_seed=0,
                          batch_size=COUNT)
        assert info.value.code == "fake-nonfinite"

    def test_a_batch_of_another_dim_is_not_sent(self):
        with ExternalPlayer(ref_player("discriminator"),
                            role="discriminator") as player:
            with pytest.raises(ProtocolError, match="player of dim 3"):
                player.judge(np.zeros((4, 2)))
            assert player.judge(np.zeros((4, 3))).tolist() == [0.5] * 4


class TestLifecycle:
    def test_close_reaps_the_child(self):
        player = ExternalPlayer(ref_player("generator"), role="generator")
        player.close()
        assert player._proc.poll() is not None
        player.close()  # idempotent
        with pytest.raises(ExternError, match="session closed"):
            player.sample(2)

    def test_child_that_ignores_shutdown_is_reaped_at_end_of_input(self):
        child = inline_child("""
            for line in sys.stdin:
                pass
        """, hello=True)
        player = ExternalPlayer(child, role="generator")
        start = time.perf_counter()
        player.close()
        assert time.perf_counter() - start < 2.0
        assert player._proc.returncode == 0  # exited on its own, not killed

    def test_child_that_ignores_shutdown_and_end_of_input_is_killed(
            self, monkeypatch):
        child = inline_child("""
            import signal
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(60)  # reads neither shutdown nor end of input
        """, hello=True)
        player = ExternalPlayer(child, role="generator")
        monkeypatch.setattr(extern, "CLOSE_TIMEOUT", 0.3)
        start = time.perf_counter()
        player.close()
        assert 0.3 <= time.perf_counter() - start < 5.0
        assert player._proc.returncode == -signal.SIGKILL
        player.close()  # idempotent once reaped

    def test_shutdown_asks_without_waiting_and_close_reaps(self):
        player = ExternalPlayer(ref_player("generator"), role="generator")
        player.shutdown()
        assert player._proc.stdin.closed
        player.shutdown()  # idempotent
        player.close()
        assert player._proc.returncode == 0

    def test_a_run_shuts_every_session_down_before_reaping_any(
            self, monkeypatch, tmp_path):
        events = []

        class Recorded(ExternalPlayer):
            def shutdown(self):
                events.append(("shutdown", self.role))
                super().shutdown()

            def close(self):
                events.append(("close", self.role))
                super().close()

        monkeypatch.setattr(cli, "ExternalPlayer", Recorded)
        config = write_yaml(tmp_path / "pair.cfg", tiny_config_payload(
            players=[
                {"kind": "toy_trajectory", "experiment": "t",
                 "n_checkpoints": 2, "discriminators": "oracle"},
                *({"kind": "external", "id": f"ext-{role[0]}", "role": role,
                   "command": ref_player(role)}
                  for role in ("generator", "discriminator"))]))
        assert main(["run", "--config", str(config), "--out-dir",
                     str(tmp_path / "out")]) == 0
        assert [kind for kind, _ in events[:2]] == ["shutdown", "shutdown"]
        assert [kind for kind, _ in events if kind == "close"] == \
            ["close", "close"]

    @pytest.mark.parametrize("role, request_", [
        ("generator", {"type": "generate", "count": 5000, "seed": 7}),
        ("discriminator", {"type": "judge", "data": packed(np.zeros((5, 3)))}),
    ])
    @pytest.mark.parametrize("ending", ["shutdown", "end of input"])
    def test_the_reference_player_exits_0_after_its_last_reply(
            self, role, request_, ending):
        # It leaves without the interpreter's teardown, and the reply sent
        # just before, here larger than a pipe holds, arrives whole.
        lines = [dump_message(request_)]
        if ending == "shutdown":
            lines.append(dump_message({"type": "shutdown"}))
        proc = subprocess.run(ref_player(role), capture_output=True,
                              input="\n".join(lines) + "\n", text=True,
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        hello, reply = map(parse_message, proc.stdout.splitlines())
        assert hello["type"] == "hello"
        if role == "generator":
            assert (len(base64.b64decode(reply["data"]))
                    == 8 * 3 * request_["count"])
        else:
            assert reply["values"] == [0.5] * 5

    def test_closing_a_reference_session_returns_at_once(self):
        player = ExternalPlayer(ref_player("generator"), role="generator")
        player.sample(2)  # numpy is loaded
        start = time.perf_counter()
        player.close()
        assert time.perf_counter() - start < 1.0
        assert player._proc.returncode == 0

    def test_crash_mid_session_fails_fast_afterwards(self):
        player = ExternalPlayer(ref_player("generator", "--crash-after",
                                           "1"), role="generator")
        try:
            assert player.sample(3).shape == (3, 3)
            with pytest.raises(ExternError, match="exited"):
                player.sample(3)
            with pytest.raises(ExternError, match="exited"):
                player.sample(3)  # no waiting on a dead child
        finally:
            player.close()

    def test_request_to_an_already_dead_child_reports_the_exit(self):
        player = ExternalPlayer(ref_player("generator", "--crash-after",
                                           "1"), role="generator")
        try:
            player.sample(3)
            player._proc.wait(timeout=10.0)
            # The write itself now fails on the broken pipe.
            with pytest.raises(ExternError, match="exited"):
                player.sample(3)
        finally:
            player.close()

    def test_crashed_player_only_loses_its_own_matches(self):
        crasher = ExternalPlayer(ref_player("generator", "--crash-after",
                                            "1"), role="generator")
        try:
            schedule = explicit_schedule(
                [("ext", "d"), ("ext", "d", 1), ("local", "d")])
            records = run_tournament(
                schedule, {"ext": crasher, "local": LocalData(),
                           "d": HalfJudge()},
                LocalData(), RunSettings(seed=3, batch_size=4),
                sink=lambda records, failures: None)
        finally:
            crasher.close()
        assert [r.generator_id for r in records] == ["ext", "local"]

    def test_matches_after_a_timeout_are_lost_not_scored_late(self):
        slow = ExternalPlayer(slow_first_judge(), role="discriminator",
                              request_timeout=0.3)
        schedule = explicit_schedule(
            [("g", "ext", r) for r in range(6)] + [("g", "local")])
        failures = []
        try:
            records = run_tournament(
                schedule, {"g": LocalData(), "ext": slow,
                           "local": HalfJudge()},
                LocalData(), RunSettings(seed=3, batch_size=4),
                sink=lambda records, lost: failures.extend(lost))
        finally:
            slow.close()
        assert [r.discriminator_id for r in records] == ["local"]
        assert [match for match, _ in failures] == [
            ("g", "ext", r) for r in range(6)]
