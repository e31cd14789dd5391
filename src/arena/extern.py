"""Run an external process as a tournament player over JSON lines.

A child process speaks a line-delimited JSON protocol on stdin/stdout:
it opens with a ``hello`` declaring its role, sample dimension and
protocol, then answers ``generate`` or ``judge`` requests until it
receives ``shutdown``. One request is in flight at a time and all
timeouts are enforced here on the host side, so a wedged child cannot
stall the tournament forever: one deadline covers writing a request
into the child's non-blocking stdin and reading its reply, and the host
waits on either pipe with ``select.poll`` (POSIX pipes), never on a
blocking read or write. Replies are read straight from the child's
stdout into a session buffer that keeps a partial line until its end
arrives; there is no reader thread. ``close`` waits on the same poller
for the child's output to end, reaps it, and kills it if it is still
running once ``CLOSE_TIMEOUT`` has passed.

Sample arrays (a ``samples`` reply's and a ``judge`` request's ``data``)
travel as one base64 string of row-major little-endian float64, so every
double crosses bit for bit. ``encode_samples`` and ``decode_samples`` are
the one place that format is written or read. numpy and ``base64`` are
imported only where a payload is encoded or decoded, and ``subprocess``,
``select`` and ``threading`` only where a session is opened, so the
reference player, which shares this module's wire format, starts without
any of them (nor ``typing``).
"""

from __future__ import annotations

import json
import os
import time

PROTOCOL_VERSION = 2
HANDSHAKE_TIMEOUT = 30.0
REQUEST_TIMEOUT = 60.0
# Seconds a child may take to exit once it has been shut down; then it is
# killed.
CLOSE_TIMEOUT = 5.0
# Most bytes taken from a child's stdout in one read: a pipe's capacity.
_READ_BYTES = 1 << 16

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
        import select
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
        # Requests are written without blocking, so a child that stops
        # reading meets the request deadline instead of stalling the host.
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._readable = select.poll()
        self._readable.register(self._proc.stdout, select.POLLIN)
        self._writable = select.poll()
        self._writable.register(self._proc.stdin, select.POLLOUT)
        # Output read but not yet taken: the start of the next line.
        self._pending = bytearray()
        self._ended = False

        try:
            hello = self._next_message(time.monotonic() + handshake_timeout,
                                       "handshake")
        except TimeoutError:
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

    @staticmethod
    def _ready(poller, deadline: float) -> bool:
        """Whether the pipe ``poller`` watches is ready before
        ``deadline``."""
        return bool(poller.poll(max(deadline - time.monotonic(), 0.0) * 1e3))

    def _send(self, data: bytes, deadline: float) -> bool:
        """Write ``data`` to the child's stdin; False if the pipe did not
        take all of it before ``deadline``."""
        fd = self._proc.stdin.fileno()  # ValueError once stdin is closed
        view = memoryview(data)
        while True:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                pass
            if not view:
                return True
            if not self._ready(self._writable, deadline):
                return False

    def _line(self, deadline: float) -> bytes | None:
        """The child's next output line, newline included: at the end of
        its output, whatever is left without one, and then None. Raises
        TimeoutError if no whole line is in before ``deadline``."""
        pending = self._pending
        start = 0
        while True:
            end = pending.find(b"\n", start) + 1
            if end:
                line = bytes(pending[:end])
                del pending[:end]
                return line
            if self._ended:
                line = bytes(pending)
                pending.clear()
                return line or None
            start = len(pending)
            if not self._ready(self._readable, deadline):
                raise TimeoutError
            chunk = os.read(self._proc.stdout.fileno(), _READ_BYTES)
            if chunk:
                pending += chunk
            else:
                self._ended = True

    def _next_message(self, deadline: float, context: str) -> dict:
        """The child's next message; TimeoutError if it is not in before
        ``deadline``."""
        line = self._line(deadline)
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

    def _reap(self) -> int:
        """Wait for the child to exit, killing it if it is still running
        ``CLOSE_TIMEOUT`` s later; its exit code. The end of its output,
        which comes as it exits, is awaited on the session's poller, 10 ms
        at a time, so that a child whose stdout outlives it (held by a
        process it started) is reaped too; what it still writes is
        dropped. Its exit can be reaped a moment after its output ends,
        so the checks for it then start 50 us apart and double, where
        ``Popen.wait`` first sleeps 1 ms."""
        proc = self._proc
        deadline = time.monotonic() + CLOSE_TIMEOUT
        delay = 5e-5
        while proc.poll() is None and (now := time.monotonic()) < deadline:
            if self._ended:
                time.sleep(min(delay, deadline - now))
                delay *= 2
            elif self._ready(self._readable, min(now + 0.01, deadline)):
                self._ended = not os.read(proc.stdout.fileno(), _READ_BYTES)
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        return proc.returncode

    def _exited(self) -> str:
        """Mark the session dead once the child's stdout has ended or its
        stdin broke, and say why: the child is reaped first, so every match
        that meets the dead session fails with the same exit code."""
        self._dead = f"player process exited (code {self._reap()})"
        return self._dead

    def _request(self, payload: dict, context: str) -> dict:
        wire = _wire(payload)
        with self._lock:
            if self._dead is not None:
                raise ExternError(f"{context}: {self._dead}")
            # One deadline covers writing the request and reading the reply.
            deadline = time.monotonic() + self.request_timeout
            try:
                sent = self._send(wire, deadline)
            except (OSError, ValueError):
                raise ExternError(f"{context}: {self._exited()}") from None
            try:
                if not sent:
                    raise TimeoutError
                return self._next_message(deadline, context)
            except TimeoutError:
                # A late reply would be read as the next request's answer.
                self._dead = "an earlier request timed out"
                raise RequestTimeout(f"{context}: no reply within "
                                     f"{self.request_timeout:g} s") from None

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
                # A line this short goes into a pipe whole or not at all, so
                # a child that reads no more only misses it.
                os.write(proc.stdin.fileno(), _wire({"type": "shutdown"}))
            except OSError:
                pass
        try:
            proc.stdin.close()
        except OSError:
            pass

    def close(self) -> None:
        """Shut the child down and reap it, killing it if it is still
        running ``CLOSE_TIMEOUT`` s later; safe to call repeatedly."""
        self.shutdown()
        self._reap()
        self._dead = self._dead or "session closed"
        self._proc.stdout.close()

    def __enter__(self) -> "ExternalPlayer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
