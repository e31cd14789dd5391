"""External player protocol and process-lifecycle tests.

Most tests drive the bundled reference player as a real subprocess; a few
use tiny inline children to provoke protocol violations the reference
player cannot produce.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arena.extern import (MESSAGE_TYPES, BatchSizeMismatch, ExternError,
                          ExternalPlayer, HandshakeFailed, ProtocolError,
                          RequestTimeout, RoleMismatch, ScoreOutOfRange,
                          dump_message, parse_message)
from arena.tournament import RunSettings, explicit_schedule, run_tournament


def ref_player(role: str, *extra: str) -> list[str]:
    return [sys.executable, "-m", "arena.ref_player", "--role", role,
            "--dim", "3", *extra]


def inline_child(body: str, hello: bool = False) -> list[str]:
    prologue = textwrap.dedent("""
        import json, sys, time
        def emit(m):
            sys.stdout.write(json.dumps(m) + "\\n")
            sys.stdout.flush()
    """)
    if hello:
        prologue += ('emit({"type": "hello", "role": "generator", '
                     '"name": "t", "dim": 2, "protocol": 1})\n')
    return [sys.executable, "-c", prologue + textwrap.dedent(body)]


class TestWireFormat:
    @given(st.sampled_from(MESSAGE_TYPES),
           st.dictionaries(st.sampled_from(["count", "seed", "name"]),
                           st.one_of(st.integers(), st.text(max_size=8)),
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
                  "dim": {dim}, "protocol": 1}})
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
        class LocalData:
            def sample(self, count, rng):
                return rng.standard_normal((count, 3))

        class HalfJudge:
            def judge(self, batch, rng=None):
                return np.full(len(batch), 0.25)

        crasher = ExternalPlayer(ref_player("generator", "--crash-after",
                                            "1"), role="generator")
        try:
            schedule = explicit_schedule(
                [("ext", "d"), ("ext", "d", 1), ("local", "d")])
            records = run_tournament(
                schedule, {"ext": crasher, "local": LocalData(),
                           "d": HalfJudge()},
                LocalData(), RunSettings(seed=3, batch_size=4,
                                         on_error="skip"))
        finally:
            crasher.close()
        assert [r.generator_id for r in records] == ["ext", "local"]
