"""Bulk parse of log chunks in the writer's line layout, after simdjson's
structural index (Langdale and Lemire, VLDB J. 2019)."""

from __future__ import annotations

import json

import numpy as np

from .store import _RECORD_TEMPLATE

# The fixed piece of a line before each field, in sorted key order (ids 0
# and 2, counts 1 and 3-5, seed 6, threshold 7), with the ids' quotes. Each
# starts at one of a line's 20 quotes, less an offset, and is compared as
# its 8-byte words at offsets 0, 8, ... and len - 8.
_PIECES = [('"' if k in (1, 3) else "") + piece + ('"' if k in (0, 2) else "")
           for k, piece in enumerate(_RECORD_TEMPLATE[:-2].split("%s")[:-1])]
_ANCHORS = np.cumsum([0] + [piece.count('"') for piece in _PIECES[:-1]])
_OFFSETS = [-piece.index('"') for piece in _PIECES]
_PIECE, _AT = np.array([(k, at) for k, p in enumerate(_PIECES)
                        for at in {*range(0, len(p) - 8, 8), len(p) - 8}]).T
_EXPECTED = np.array([int.from_bytes(_PIECES[k][at:at + 8].encode(), "little")
                      for k, at in zip(_PIECE, _AT)], np.uint64)
_NUMBERS, _DIGITS = [3, 1, 4, 5, 6], [18] * 4 + [20]  # counts, then seed
_SHIFTS = np.arange(64, -1, -8, dtype=np.uint64)  # by 64 - 8 * bytes kept


def _shifts(kept) -> np.ndarray:
    """``_SHIFTS`` at each count of bytes kept, clamped to [0, 8] by two
    ufuncs: np.clip's Python wrapper costs more on a chunk's short arrays."""
    return _SHIFTS[np.minimum(np.maximum(kept, 0), 8)]


def _decimals(words, last, lengths) -> np.ndarray | None:
    """The numbers whose 1 to 20 digits end before ``last``, or None unless
    all are digits and below 2**64, by Lemire's SWAR parse of 8 digits."""
    for j in range(-(-int(lengths.max()) // 8)):
        # Word j from the end: its digits as bytes 0..9, any before them 0.
        shift = _shifts(lengths - 8 * j)
        word = (words[last - 8 * j - 8] ^ 0x3030303030303030) >> shift << shift
        if ((word + 0x7676767676767676 | word) & 0x8080808080808080).any():
            return None
        word = word * 2561 >> 8
        word = (word & 0x00FF00FF00FF00FF) * 6553601 >> 16
        word = (word & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
        if j == 2 and ((word > 1844) | (value + word * 10**16 < value)).any():
            return None  # 2**64 or more: the product or the sum wrapped
        value = value + word * 10 ** (8 * j) if j else word
    return value


def _distinct(data, words, first, last) -> tuple[np.ndarray, list]:
    """(inverse, texts): the distinct texts data[first:last], and each span's
    index among them. A text (with no NUL) is keyed by its 8-byte words less
    the bytes past it, or through a dict if such keys outgrow the chunk."""
    lengths = last - first
    width = max(1, -(-int(lengths.max()) // 8))
    if 8 * width * lengths.size > len(data):
        index: dict[bytes, int] = {}
        return np.array([index.setdefault(data[a:b], len(index)) for a, b
                         in zip(first.tolist(), last.tolist())]), list(index)
    j = np.arange(width)
    keys = (words[np.minimum(first[:, None] + 8 * j, last[:, None])]
            << _shifts(lengths[:, None] - 8 * j))
    # One word sorts fastest as an integer, more as one opaque value.
    _, span, inverse = np.unique(
        (keys if width == 1 else keys.view(f"V{8 * width}")).ravel(),
        return_index=True, return_inverse=True)
    return inverse, [data[a:b] for a, b in zip(first[span].tolist(),
                                                 last[span].tolist())]


def canonical_chunk(text: str, codes: dict[str, int],
                    raw_codes: dict[bytes, int]) -> list[np.ndarray] | None:
    """Columns of ``text``, whole lines of a log body, in read_log's order, or
    None unless all are record lines in the writer's layout. Ids are coded in
    ``codes``, and in ``raw_codes`` keyed by their text as written."""
    # 24 spare bytes: a bad line's piece words and key words read past it.
    data = (text + "\n" * (not text.endswith("\n"))).encode() + bytes(24)
    body = np.frombuffer(data, np.uint8, len(data) - 24)
    words = np.ndarray((len(body) + 17,), "<u8", data, 0, (1,))
    # Line ends, with any other control character, and quotes.
    ends, quotes = np.flatnonzero(body < 32), np.flatnonzero(body == ord('"'))
    if len(quotes) != 20 * (n := len(ends)):  # drop escaped quotes
        plain = np.frombuffer(data.replace(b"\\\\", b"__"), np.uint8)
        quotes = quotes[plain[quotes - 1] != ord("\\")]
    if len(quotes) != 20 * n or (body[ends] != ord("\n")).any():
        return None
    # Where each piece starts, the closing brace last.
    at = np.c_[quotes.reshape(n, 20)[:, _ANCHORS] + _OFFSETS, ends - 1]
    first, last = at[:, :8] + list(map(len, _PIECES)), at[:, 1:]
    digits = (last - first)[:, _NUMBERS]
    if (at[0, 0] != 0 or (at[1:, 0] != ends[:-1] + 1).any()
            or (words[at[:, _PIECE] + _AT] != _EXPECTED).any()
            or (body[ends - 1] != ord("}")).any()
            or ((digits < 1) | (digits > _DIGITS)).any()
            or ((body[first[:, _NUMBERS]] == ord("0")) & (digits > 1)).any()):
        return None
    counts = _decimals(words, last[:, _NUMBERS[:4]], digits[:, :4])
    seeds = _decimals(words, last[:, 6], digits[:, 4])
    thresholds = _distinct(data, words, first[:, 7], last[:, 7])
    inverse, raws = _distinct(data, words, first[:, [2, 0]].T.ravel(),
                              last[:, [2, 0]].T.ravel())
    try:  # ids and thresholds are what json.loads reads from their text
        new = {raw: json.loads(b'"%s"' % raw) for raw in raws
               if raw not in raw_codes}
        values = [json.loads(value.decode()) for value in thresholds[1]]
    except ValueError:
        return None
    if (counts is None or seeds is None or set(map(type, values)) != {float}
            or (counts[:, 1::2] > counts[:, ::2]).any()):
        return None
    for raw, pid in new.items():
        raw_codes[raw] = codes.setdefault(pid, len(codes))
    ids = np.array([raw_codes[raw] for raw in raws], np.intp)[inverse]
    return [*ids.reshape(2, n), *counts.T.view(np.int64), seeds,
            np.array(values)[thresholds[0]]]
