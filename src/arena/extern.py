"""Run an external process as a tournament player over JSON lines.

A child process speaks a line-delimited JSON protocol on stdin/stdout:
it opens with a ``hello`` declaring its role, sample dimension and
protocol, then answers ``generate`` or ``judge`` requests until it
receives ``shutdown``. One request is in flight at a time and all
timeouts are enforced here on the host side, so a wedged child cannot
stall the tournament forever.

Sample arrays (a ``samples`` reply's and a ``judge`` request's ``data``)
travel as one base64 string of row-major little-endian float64, so every
double crosses bit for bit. ``encode_samples`` and ``decode_samples`` are
the one place that format is written or read. numpy and ``base64`` are
imported only where a payload is encoded or decoded, and ``subprocess``,
``threading`` and ``queue`` only where a session is opened, so the
reference player, which shares this module's wire format, starts without
any of them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

PROTOCOL_VERSION = 2
HANDSHAKE_TIMEOUT = 30.0
REQUEST_TIMEOUT = 60.0
# Seconds a child may take to exit once it has been shut down; then it is
# killed.
CLOSE_TIMEOUT = 5.0

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


def _wire(message: dict) -> bytes:
    """One message as the bytes of its line, newline included."""
    return (dump_message(message) + "\n").encode()


def _numbers(value, what: str) -> np.ndarray:
    """A reply's payload as floats, if it is a list of numbers. Anything
    else (strings, booleans, objects, integers beyond double range) is a
    ProtocolError, not coerced."""
    import numpy as np

    try:
        if (isinstance(value, list)
                and all(type(x) in (int, float) for x in value)):
            return np.array(value, dtype=float)
    except OverflowError:
        pass
    raise ProtocolError(f"{what} is not a list of numbers")


def encode_samples(batch) -> str:
    """A batch of samples as the ``data`` of a message: one base64 string
    (standard alphabet, padded) of its row-major little-endian float64s."""
    import base64

    import numpy as np

    return base64.b64encode(np.asarray(batch, dtype="<f8").tobytes()
                            ).decode("ascii")


def decode_samples(value, dim: int) -> np.ndarray:
    """The ``data`` of a message as a 2-d float array, ``dim`` columns
    wide, where the row count is the byte length over 8 * dim. A value
    that is not a string of valid base64 whole rows is a ProtocolError."""
    import base64

    import numpy as np

    if not isinstance(value, str):
        raise ProtocolError("samples data is not a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ProtocolError("samples data is not valid base64") from None
    if len(raw) % (8 * dim):
        raise ProtocolError(f"samples data holds {len(raw)} bytes, not "
                            f"whole rows of {dim} float64")
    return np.frombuffer(raw, dtype="<f8").reshape(-1, dim).astype(float)


class ExternalPlayer:
    """One child process playing as a generator or discriminator.

    Presents the same sample()/judge() surface as the in-process players,
    so tournaments treat both uniformly. The session is exclusive to one
    match at a time; run several sessions for concurrent externals.
    """

    def __init__(self, command, *, role: str, env=None,
                 handshake_timeout: float = HANDSHAKE_TIMEOUT,
                 request_timeout: float = REQUEST_TIMEOUT):
        import queue
        import subprocess
        import threading

        if role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {role!r}")
        self.role = role
        self.request_timeout = request_timeout
        self._lock = threading.Lock()
        self._dead: str | None = None
        try:
            self._proc = subprocess.Popen(
                list(command), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, env=env)
        except OSError as exc:
            raise HandshakeFailed(f"cannot spawn {command!r}: {exc}") from None
        self._lines: queue.Queue[bytes | None] = queue.Queue()
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
        protocol = hello.get("protocol")
        if protocol != PROTOCOL_VERSION:
            self.close()
            raise HandshakeFailed(f"protocol {protocol!r} unsupported, "
                                  f"want {PROTOCOL_VERSION}")
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
        import queue  # loaded when the session was opened

        if self._dead is not None:
            raise ExternError(f"{context}: {self._dead}")
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RequestTimeout(
                f"{context}: no reply within {timeout:g} s") from None
        if line is None:
            raise ExternError(f"{context}: {self._exited()}")
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Where the next reply starts can no longer be trusted.
            self._dead = "an earlier reply was not UTF-8"
            raise ProtocolError(
                f"{context}: undecodable message: {exc}") from None
        message = parse_message(text)
        if message["type"] == "error":
            raise ProtocolError(
                f"{context}: player error: {message.get('message', '')}")
        return message

    def _exited(self) -> str:
        """Mark the session dead once the child's stdout has ended or its
        stdin broke, and say why: the child is reaped first, and killed if
        it is still running ``CLOSE_TIMEOUT`` s later, so every match that
        meets the dead session fails with the same exit code."""
        import subprocess  # loaded when the session was opened

        try:
            code = self._proc.wait(timeout=CLOSE_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            code = self._proc.wait()
        self._dead = f"player process exited (code {code})"
        return self._dead

    def _request(self, payload: dict, context: str) -> dict:
        with self._lock:
            if self._dead is not None:
                raise ExternError(f"{context}: {self._dead}")
            try:
                self._proc.stdin.write(_wire(payload))
                self._proc.stdin.flush()
            except (OSError, ValueError):
                raise ExternError(f"{context}: {self._exited()}") from None
            try:
                return self._next_message(self.request_timeout, context)
            except RequestTimeout:
                # A late reply would be read as the next request's answer.
                self._dead = "an earlier request timed out"
                raise

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
        data = decode_samples(reply.get("data", []), self.dim)
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
        import numpy as np

        batch = np.asarray(batch, dtype=float)
        if batch.shape[1:] != (self.dim,):
            # The child counts rows by its declared dim.
            raise ProtocolError(f"cannot judge a batch of shape "
                                f"{batch.shape} with a player of dim "
                                f"{self.dim}")
        reply = self._request({"type": "judge",
                               "data": encode_samples(batch)}, "judge")
        if reply["type"] != "scores":
            raise ProtocolError(f"judge answered with {reply['type']!r}")
        values = _numbers(reply.get("values", []), "scores values")
        if values.shape != (len(batch),):
            raise BatchSizeMismatch(f"judged {len(batch)} samples, got "
                                    f"{values.shape} scores")
        bad = ~np.isfinite(values) | (values < 0.0) | (values > 1.0)
        if bad.any():
            raise ScoreOutOfRange(
                f"scores outside [0, 1]: {values[bad][:4].tolist()}")
        return values

    def shutdown(self) -> None:
        """Ask the child to exit: send shutdown and close its stdin, without
        waiting for it. ``close`` does this first; safe to call
        repeatedly."""
        proc = self._proc
        if proc.stdin.closed:
            return
        if proc.poll() is None:
            try:
                proc.stdin.write(_wire({"type": "shutdown"}))
                proc.stdin.flush()
            except (OSError, ValueError):
                pass
        try:
            proc.stdin.close()
        except OSError:
            pass

    def close(self) -> None:
        """Shut the child down and reap it with a blocking wait, killing it
        if it is still running ``CLOSE_TIMEOUT`` s later; safe to call
        repeatedly."""
        import threading

        self.shutdown()
        proc = self._proc
        if proc.poll() is None:
            killer = threading.Timer(CLOSE_TIMEOUT, proc.kill)
            killer.start()
            try:
                proc.wait()
            finally:
                killer.cancel()
                killer.join()
        self._dead = self._dead or "session closed"
        self._reader.join(timeout=CLOSE_TIMEOUT)
        if not self._reader.is_alive():
            proc.stdout.close()

    def __enter__(self) -> "ExternalPlayer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
