"""Run an external process as a tournament player over JSON lines.

A child process speaks a line-delimited JSON protocol on stdin/stdout:
it opens with a ``hello`` declaring its role and sample dimension, then
answers ``generate`` or ``judge`` requests until it receives ``shutdown``.
One request is in flight at a time and all timeouts are enforced here on
the host side, so a wedged child cannot stall the tournament forever.

Payload numbers cross the boundary as decimal-serialized doubles; value
fidelity is expected, bit-exactness is not promised.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading

import numpy as np

PROTOCOL_VERSION = 1
HANDSHAKE_TIMEOUT = 30.0
REQUEST_TIMEOUT = 60.0

MESSAGE_TYPES = ("hello", "generate", "samples", "judge", "scores",
                 "error", "shutdown")
ROLES = ("generator", "discriminator")


class ExternError(RuntimeError):
    """Base failure for external player sessions."""


class HandshakeFailed(ExternError):
    """Child could not be spawned or did not complete a valid hello."""


class RoleMismatch(ExternError):
    """Child declared a different role than the tournament expects."""


class ProtocolError(ExternError):
    """Malformed, unexpected, or child-reported error message."""


class RequestTimeout(ExternError):
    """Child did not answer within the request deadline."""


class BatchSizeMismatch(ExternError):
    """Reply carried the wrong number of samples or scores."""


class ScoreOutOfRange(ExternError):
    """Judge reply contained a non-finite score or one outside [0, 1]."""


def dump_message(message: dict) -> str:
    """Serialize one protocol message to its wire line (no newline)."""
    kind = message.get("type")
    if kind not in MESSAGE_TYPES:
        raise ProtocolError(f"cannot serialize message type {kind!r}")
    return json.dumps(message, sort_keys=True, separators=(",", ":"))


def parse_message(line: str) -> dict:
    """Parse one wire line into a protocol message."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"message is not an object: {line[:80]!r}")
    if message.get("type") not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {message.get('type')!r}")
    return message


class ExternalPlayer:
    """One child process playing as a generator or discriminator.

    Presents the same sample()/judge() surface as the in-process players,
    so tournaments treat both uniformly. The session is exclusive to one
    match at a time; run several sessions for concurrent externals.
    """

    def __init__(self, command, *, role: str, env=None,
                 handshake_timeout: float = HANDSHAKE_TIMEOUT,
                 request_timeout: float = REQUEST_TIMEOUT):
        if role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {role!r}")
        self.role = role
        self.request_timeout = request_timeout
        self._lock = threading.Lock()
        self._dead: str | None = None
        try:
            self._proc = subprocess.Popen(
                list(command), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, bufsize=1, env=env)
        except OSError as exc:
            raise HandshakeFailed(f"cannot spawn {command!r}: {exc}") from None
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

        try:
            hello = self._next_message(handshake_timeout, "handshake")
        except RequestTimeout:
            self.close()
            raise HandshakeFailed(
                f"no hello within {handshake_timeout:g} s") from None
        except ExternError as exc:
            self.close()
            raise HandshakeFailed(f"handshake aborted: {exc}") from None
        if hello.get("type") != "hello":
            self.close()
            raise HandshakeFailed(f"first message was {hello.get('type')!r}, "
                                  "expected hello")
        if hello.get("protocol") != PROTOCOL_VERSION:
            self.close()
            raise HandshakeFailed(f"protocol {hello.get('protocol')!r} "
                                  f"unsupported, want {PROTOCOL_VERSION}")
        if hello.get("role") != role:
            self.close()
            raise RoleMismatch(f"child declared role {hello.get('role')!r}, "
                               f"config expects {role!r}")
        dim = hello.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            self.close()
            raise HandshakeFailed(f"invalid sample dimension {dim!r}")
        self.dim = dim
        self.name = str(hello.get("name", ""))

    def _pump(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_message(self, timeout: float, context: str) -> dict:
        if self._dead is not None:
            raise ExternError(f"{context}: {self._dead}")
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RequestTimeout(
                f"{context}: no reply within {timeout:g} s") from None
        if line is None:
            self._dead = "player process exited"
            raise ExternError(f"{context}: player process exited "
                              f"(code {self._proc.poll()})")
        message = parse_message(line)
        if message["type"] == "error":
            raise ProtocolError(
                f"{context}: player error: {message.get('message', '')}")
        return message

    def _request(self, payload: dict, context: str) -> dict:
        with self._lock:
            if self._dead is not None:
                raise ExternError(f"{context}: {self._dead}")
            try:
                self._proc.stdin.write(dump_message(payload) + "\n")
                self._proc.stdin.flush()
            except (OSError, ValueError):
                self._dead = "player process exited"
                raise ExternError(f"{context}: player process exited "
                                  "(stdin closed)") from None
            return self._next_message(self.request_timeout, context)

    def sample(self, count: int, rng: np.random.Generator | None = None
               ) -> np.ndarray:
        """Request ``count`` vectors; the RNG substream fixes the wire seed."""
        if self.role != "generator":
            raise RoleMismatch("sample() on a discriminator session")
        seed = int(rng.integers(1 << 63)) if rng is not None else 0
        reply = self._request({"type": "generate", "count": int(count),
                               "seed": seed}, "generate")
        if reply["type"] != "samples":
            raise ProtocolError(f"generate answered with {reply['type']!r}")
        data = np.asarray(reply.get("data", []), dtype=float)
        if data.size == 0:
            data = data.reshape(0, self.dim)
        if data.ndim != 2 or data.shape[0] != count:
            raise BatchSizeMismatch(f"asked for {count} samples, got "
                                    f"shape {data.shape}")
        if data.shape[1] != self.dim:
            raise ProtocolError(f"samples have dim {data.shape[1]}, "
                                f"declared {self.dim}")
        return data

    def judge(self, batch: np.ndarray, rng: np.random.Generator | None = None
              ) -> np.ndarray:
        """Score one batch; every score must already lie in [0, 1]."""
        if self.role != "discriminator":
            raise RoleMismatch("judge() on a generator session")
        batch = np.asarray(batch, dtype=float)
        reply = self._request({"type": "judge", "data": batch.tolist()},
                              "judge")
        if reply["type"] != "scores":
            raise ProtocolError(f"judge answered with {reply['type']!r}")
        values = np.asarray(reply.get("values", []), dtype=float)
        if values.shape != (len(batch),):
            raise BatchSizeMismatch(f"judged {len(batch)} samples, got "
                                    f"{values.shape} scores")
        bad = ~np.isfinite(values) | (values < 0.0) | (values > 1.0)
        if bad.any():
            raise ScoreOutOfRange(
                f"scores outside [0, 1]: {values[bad][:4].tolist()}")
        return values

    def close(self) -> None:
        """Send shutdown, close the child's stdin and reap the child,
        killing it if it is still running 5 s later; safe to call
        repeatedly."""
        proc = self._proc
        if proc.poll() is None:
            try:
                proc.stdin.write(dump_message({"type": "shutdown"}) + "\n")
                proc.stdin.flush()
            except (OSError, ValueError):
                pass
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._dead = self._dead or "session closed"
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "ExternalPlayer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
