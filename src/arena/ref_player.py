"""Reference external player speaking the JSON-lines protocol.

Run as ``python -m arena.ref_player --role generator --dim 4``. The
generator answers each request with standard-normal vectors drawn from
the request seed, sent bit for bit as base64 float64; the discriminator
scores every sample with a constant and never imports numpy: it counts a
batch's rows from its decoded byte length. The fault flags exist so
adapter error paths stay testable:

* ``--crash-after N``  exit abruptly after N replies
* ``--misbehave short-batch``  drop one sample or score per reply
* ``--misbehave big-score``  return scores above 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .extern import PROTOCOL_VERSION, dump_message, encode_samples


def _emit(message: dict) -> None:
    sys.stdout.write(dump_message(message) + "\n")
    sys.stdout.flush()


def _generate(request: dict, dim: int, short: bool) -> dict:
    import numpy as np  # only a generator needs it

    rng = np.random.default_rng(request.get("seed", 0))
    count = int(request.get("count", 0))
    if short and count > 0:
        count -= 1
    return {"type": "samples",
            "data": encode_samples(rng.standard_normal((count, dim)))}


def _judge(request: dict, dim: int, value: float, short: bool,
           big: bool) -> dict:
    import base64

    n = len(base64.b64decode(request.get("data", ""))) // (8 * dim)
    if short and n > 0:
        n -= 1
    scores = [1.2 if big else value] * n
    return {"type": "scores", "values": scores}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("generator", "discriminator"),
                        required=True)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--name", default="reference")
    parser.add_argument("--value", type=float, default=0.5,
                        help="constant score emitted as discriminator")
    parser.add_argument("--crash-after", type=int, default=0, metavar="N",
                        help="exit without warning after N replies")
    parser.add_argument("--misbehave", choices=("short-batch", "big-score"),
                        default=None)
    parser.add_argument("--skip-hello", action="store_true",
                        help="exit immediately instead of handshaking")
    args = parser.parse_args(argv)

    if args.skip_hello:
        return 1
    _emit({"type": "hello", "role": args.role, "name": args.name,
           "dim": args.dim, "protocol": PROTOCOL_VERSION})

    replies = 0
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        kind = request.get("type")
        if kind == "shutdown":
            return 0
        if kind == "generate" and args.role == "generator":
            _emit(_generate(request, args.dim,
                            args.misbehave == "short-batch"))
        elif kind == "judge" and args.role == "discriminator":
            _emit(_judge(request, args.dim, args.value,
                         args.misbehave == "short-batch",
                         args.misbehave == "big-score"))
        else:
            _emit({"type": "error",
                   "message": f"cannot answer {kind!r} as {args.role}"})
            continue
        replies += 1
        if args.crash_after and replies >= args.crash_after:
            os._exit(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
