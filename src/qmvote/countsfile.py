"""Versioned JSON interchange format for shot-count tables.

Canonical document::

    {
      "schema_version": "1",
      "n": 2,
      "shots": 3,
      "counts": {"01": 2, "11": 1}
    }

Keys are bitstrings with qubit 0 as the leftmost character. The schema is
strict: unknown fields are rejected so golden files stay stable. Documents
produced by stacks that order bits right-to-left can be ingested with
``bit_order="right"``, which reverses every key on the way in.

A ``bytes`` document in the layout ``serialize_counts`` writes, with its
entries in any order, is read straight from its bytes; a ``str``, any other
layout, or a key that repeats goes through ``json``, which gives every error.
Bytes are UTF-8 with no byte-order mark, as in every JSON document qmvote reads.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import MAX_QUBITS, MAX_SHOTS, CountsTable, _exact_sum, _is_int, _pack_entries, _Rows
from .core import _expect, _json_fields, _json_load
from .errors import CountsFormatError, ValidationError

SCHEMA_VERSION = "1"

# The canonical layout, the bytes of ``json.dumps(doc, indent=2,
# sort_keys=True) + "\n"``: the head, then one line per entry,
# ``    "<key>": <count>``, the lines joined by ",\n", then the tail with n
# and shots after its first and second piece. ``serialize_counts`` writes
# it with the entries in key order, and ``parse_counts`` reads it without
# ``json`` with the entries in any order.
_HEAD = b'{\n  "counts": {\n'
_LEAD = b'    "'
_SEP = b'": '
_TAIL = (
    b'\n  },\n  "n": ',
    b',\n  "schema_version": "%s",\n  "shots": ' % SCHEMA_VERSION.encode(),
    b"\n}\n",
)
_TAIL_RE = re.compile(b"%s([1-9][0-9]{0,15})%s([1-9][0-9]{0,15})%s" % tuple(map(re.escape, _TAIL)))
# A count has at most 16 digits (2**53 has 16). Digit j of a right-aligned
# 16-digit window has place value _PLACES[j]; a count below _WIDTHS[k]
# has k + 1 digits or fewer.
_DIGITS = 16
_PLACES = 10 ** np.arange(_DIGITS - 1, -1, -1, dtype=np.int64)
_WIDTHS = _PLACES[-2::-1].copy()
# Longest entry line, with its ",\n", beyond the key.
_LINE_EXTRA = len(_LEAD) + len(_SEP) + _DIGITS + 2
# Eight key characters as one little-endian word: eight "0"s, and the
# multiplier that gathers the low bits of its bytes into the top byte, first
# character highest, as ``np.packbits`` orders them.
_CHARS_0 = np.uint64(0x3030303030303030)
_GATHER = np.uint64(0x8040201008040201)
# The lead and the separator as little-endian 64-bit words, and the masks of
# their bytes; the ",\n" that ends an entry line as a 16-bit word.
_LEAD_WORD, _SEP_WORD = (np.uint64(int.from_bytes(text, "little")) for text in (_LEAD, _SEP))
_LEAD_MASK, _SEP_MASK = (np.uint64(2 ** (8 * len(text)) - 1) for text in (_LEAD, _SEP))
_LINE_END = int.from_bytes(b",\n", "little")
_FIXED_BYTES = np.frombuffer(_LEAD + _SEP, np.uint8)
# Lines are read and written a block of about this many bytes at a time.
_BLOCK_BYTES = 1 << 20

_REQUIRED_FIELDS = ("schema_version", "n", "shots", "counts")

BIT_ORDERS = ("left", "right")


def _schema_error(message: str) -> CountsFormatError:
    return CountsFormatError(message, code="SCHEMA")


def _check_entry(key, count, n: int) -> None:
    if not isinstance(key, str) or set(key) - {"0", "1"}:
        raise _schema_error(f"counts key {key!r} is not a bitstring")
    if len(key) != n:
        raise CountsFormatError(
            f"counts key {key!r} has {len(key)} bits, field 'n' declares {n}",
            code="LENGTH_MISMATCH",
        )
    if not _is_int(count) or count < 1:
        raise _schema_error(f"count for {key!r} must be a positive integer, got {count!r}")
    if count > MAX_SHOTS:
        raise _schema_error(f"count for {key!r} is {count}, more than 2**53")


def parse_counts(data: bytes | str, bit_order: str = "left") -> CountsTable:
    """Parse and validate a counts document.

    Raises :class:`CountsFormatError` with code ``SCHEMA``,
    ``LENGTH_MISMATCH``, or ``SUM_MISMATCH`` naming the offending field.
    """
    if bit_order not in BIT_ORDERS:
        raise _schema_error(f"bit_order must be one of {BIT_ORDERS}, got {bit_order!r}")
    if isinstance(data, bytes):
        table = _read_canonical(data, reverse=bit_order == "right")
        if table is not None:
            return table
    what = "counts document"
    doc = _json_load(data, what, _schema_error)
    _json_fields(doc, what, _REQUIRED_FIELDS, _REQUIRED_FIELDS, _schema_error)
    if doc["schema_version"] != SCHEMA_VERSION:
        raise _schema_error(
            f"field 'schema_version' must be {SCHEMA_VERSION!r}, got {doc['schema_version']!r}"
        )
    n, shots = doc["n"], doc["shots"]
    for name, value in (("n", n), ("shots", shots)):
        if not _is_int(value) or value < 1:
            raise _schema_error(f"field {name!r} must be a positive integer, got {value!r}")
    if shots > MAX_SHOTS:
        raise _schema_error(f"field 'shots' is {shots}, more than 2**53")
    raw = doc["counts"]
    if not isinstance(raw, dict) or not raw:
        raise _schema_error("field 'counts' must be a non-empty object")
    if n > MAX_QUBITS:
        # Too wide for a table: reported after any fault in the entries or their
        # sum. Checking the keys first keeps the packing below smaller than them.
        for key, count in raw.items():
            _check_entry(key, count, n)
        if sum(raw.values()) == shots:
            raise ValidationError(f"bitstring has {n} qubits, maximum is {MAX_QUBITS}")
    packed, weights = _pack_entries(raw, n, _check_entry)
    if bit_order == "right":
        packed = _reverse_keys(packed, n)
    total = _exact_sum(weights)
    if total != shots:
        raise CountsFormatError(
            f"field 'shots' declares {shots} but counts sum to {total}",
            code="SUM_MISMATCH",
        )
    return CountsTable(_Rows(packed, weights), n=n)


def _reverse_keys(packed: np.ndarray, n: int) -> np.ndarray:
    """Packed rows of ``n``-bit keys with the bits of every key reversed:
    the keys of a right-to-left document in this format's order."""
    return np.packbits(np.unpackbits(packed, axis=1, count=n)[:, ::-1], axis=1)


def _read_canonical(data: bytes, reverse: bool) -> CountsTable | None:
    """The table of a document in the canonical layout, or None for any
    other input; never raises.

    Every byte is checked at its offset in its line, every count is
    1..2**53 written without a leading zero, their sum is ``shots``, and
    ``n`` is at most ``MAX_QUBITS``. Keys may come in any order, as the
    table sorts them; a key that repeats, which ``json`` would read as its
    last entry, gives None. A document that passes is one the ``json`` path
    reads to the same table, so that path, run for every other input, is the
    one source of errors.

    Lines are read a block of about ``_BLOCK_BYTES`` bytes at a time,
    so no temporary grows with the file. The first newline of a block gives
    the length of its first line. When every line of the block before the
    last entry line has that length (its ",\n" sits at every length-th
    byte), the lines are read through views of the bytes with that row
    stride (``_stride_fields``); otherwise each newline is found and the
    lines gathered from their starts (``_scan_fields``). Both give the key
    text and the count digits, which the rest of the block's checks share.
    """
    if not (data.startswith(_HEAD) and data.endswith(_TAIL[2])):
        return None
    end = data.rfind(_TAIL[0])  # the newline ending the last entry line
    tail = _TAIL_RE.fullmatch(data, end)
    if tail is None:
        return None
    n, shots = int(tail[1]), int(tail[2])
    if n > MAX_QUBITS or shots > MAX_SHOTS or end < len(_HEAD) + len(_LEAD) + n + len(_SEP) + 1:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # Keys are read as little-endian 64-bit words of eight characters; the
    # bytes past the key in its last word are masked out.
    words = (n + 7) // 8
    key_mask = np.full(words, 2**64 - 1, dtype=np.uint64)
    key_mask[-1] >>= np.uint64(8 * (-n % 8))
    final = data.rfind(b"\n", 0, end) + 1  # where the last entry line starts
    step = max(_BLOCK_BYTES, n + _LINE_EXTRA)
    rows, counts, total = [], [], 0
    lo = len(_HEAD)
    while lo <= end:
        hi = min(lo + step, end + 1)
        length = data.find(b"\n", lo, hi) + 1 - lo  # of the first line, with its newline
        lines = (min(hi, final) - lo) // length if length > 0 else 0
        if lines > 0 and np.all(_column(data, lo + length - 2, length, lines, "<u2") == _LINE_END):
            fields = _stride_fields(data, lo, length, lines, n)
        else:
            fields = _scan_fields(buf, lo, hi, end, n)
        if fields is None:
            return None
        text, digits, lo = fields
        # In place, on the block's own copy of the key text: a fresh
        # temporary of its size costs more than the arithmetic on it.
        text ^= _CHARS_0  # "0" and "1" become the bytes 0 and 1
        text &= key_mask
        if text.view(np.uint8).max() > 1:  # a byte other than "0" or "1"
            return None
        if digits.max() > 9:  # a byte below "0" wraps round to a large value
            return None
        text *= _GATHER
        text >>= np.uint64(56)
        packed = text.astype(np.uint8)
        values = digits @ _PLACES[-digits.shape[1] :]
        # Counts are positive, so a total of at most shots <= 2**53 bounds
        # every count as well.
        total += _exact_sum(values)
        if total > shots:
            return None
        if reverse:
            packed = _reverse_keys(packed, n)
        rows.append(packed)
        counts.append(values)
    if total != shots:
        return None
    try:  # the table refuses a repeated key, of which json keeps the last
        return CountsTable(_Rows(np.concatenate(rows), np.concatenate(counts)), n=n)
    except ValidationError:
        return None


def _column(data: bytes, offset: int, stride: int, lines: int, dtype: str) -> np.ndarray:
    """One ``dtype`` value at ``offset`` in each of ``lines`` lines of
    ``stride`` bytes: a view of ``data``, not a copy."""
    return np.ndarray((lines,), dtype, buffer=data, offset=offset, strides=(stride,))


def _stride_fields(data: bytes, lo: int, length: int, lines: int, n: int):
    """The key text and count digits of ``lines`` lines of ``length`` bytes
    from ``lo``, each known to end in ",\n", and the offset after them; or
    None where a line's lead, separator or first digit is wrong or its count
    is not 1 to 16 digits. Each field sits at one offset in every line, so
    it is a view with row stride ``length``; the lead and the separator are
    each compared as one masked 64-bit word, and only the key text is
    copied."""
    key_end = len(_LEAD) + n
    digits_start = key_end + len(_SEP)
    width = length - 2 - digits_start
    if not 1 <= width <= _DIGITS:
        return None
    lead = _column(data, lo, length, lines, "<u8") & _LEAD_MASK
    sep = _column(data, lo + key_end, length, lines, "<u8") & _SEP_MASK
    digits = np.ndarray((lines, width), np.uint8, data, lo + digits_start, (length, 1))
    if np.any(lead != _LEAD_WORD) or np.any(sep != _SEP_WORD) or np.any(digits[:, 0] == ord("0")):
        return None
    text = np.ndarray((lines, 8 * ((n + 7) // 8)), np.uint8, data, lo + len(_LEAD), (length, 1))
    return text.copy().view("<u8"), digits - np.uint8(ord("0")), lo + lines * length


def _scan_fields(buf: np.ndarray, lo: int, hi: int, end: int, n: int):
    """The key text and count digits (right-aligned, zero-padded) of the
    lines that end in ``buf[lo:hi]``, found by their newlines, and the
    offset after the last of them; or None where a line's lead, separator,
    first digit or comma is wrong or its count is not 1 to 16 digits."""
    key_end = len(_LEAD) + n
    digits_start = key_end + len(_SEP)
    stops = lo + np.flatnonzero(buf[lo:hi] == ord("\n"))
    if stops.size == 0:
        return None
    starts = np.concatenate(([lo], stops[:-1] + 1))
    comma = stops < end  # every line but the last ends in ","
    digits_end = stops - comma
    width = digits_end - starts - digits_start
    wide = int(width.max())
    if width.min() < 1 or wide > _DIGITS:
        return None
    # the lead and separator bytes of each line, then its first digit
    fixed = buf[starts[:, None] + np.r_[0 : len(_LEAD), key_end:digits_start, digits_start]]
    if (
        np.any(fixed[:, :-1] != _FIXED_BYTES)
        or np.any(fixed[:, -1] == ord("0"))  # a leading zero
        or np.any(buf[digits_end[comma]] != ord(","))
    ):
        return None
    text = sliding_window_view(buf, 8 * ((n + 7) // 8))[starts + len(_LEAD)].view("<u8")
    digits = sliding_window_view(buf, wide)[digits_end - wide] - np.uint8(ord("0"))
    digits[np.arange(wide) < wide - width[:, None]] = 0
    return text, digits, int(stops[-1]) + 1


def _render(table: CountsTable):
    """Yield the canonical document of a counts table as bytes-like blocks:
    what ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` gives, built
    from the table's key-ordered packed rows about ``_BLOCK_BYTES`` bytes
    at a time (bitstring keys need no escaping)."""
    n, packed, weights = table.n, table._packed, table._weights
    key_end = len(_LEAD) + n  # offsets in a line
    digits_start = key_end + len(_SEP)
    yield _HEAD
    step = max(1, _BLOCK_BYTES // (n + _LINE_EXTRA))
    for lo in range(0, len(weights), step):
        block, values = packed[lo : lo + step], weights[lo : lo + step]
        width = 1 + np.searchsorted(_WIDTHS, values, side="right")
        wide = int(width.max())
        lines = np.empty((len(values), digits_start + wide + 2), dtype=np.uint8)
        lines[:, : len(_LEAD)] = np.frombuffer(_LEAD, np.uint8)
        keys = lines[:, len(_LEAD) : key_end]
        np.add(np.unpackbits(block, axis=1, count=n), np.uint8(ord("0")), out=keys)
        lines[:, key_end:digits_start] = np.frombuffer(_SEP, np.uint8)
        # each count zero-padded to `wide` digits
        lines[:, digits_start:-2] = values[:, None] // _PLACES[-wide:] % 10 + ord("0")
        lines[:, -2:] = np.frombuffer(b",\n", np.uint8)
        if width.min() == wide:
            out = lines.ravel()
        else:  # drop the padding zeros
            keep = np.ones(lines.shape, dtype=bool)
            keep[:, digits_start:-2] = np.arange(wide) >= wide - width[:, None]
            out = lines[keep]
        yield out[:-2] if lo + step >= len(weights) else out
    yield b"%s%d%s%d%s" % (_TAIL[0], n, _TAIL[1], table.shots, _TAIL[2])


def serialize_counts(table: CountsTable) -> str:
    """Render a counts table as the canonical document."""
    return b"".join(_render(_expect(table, CountsTable))).decode("ascii")


def load_counts(path: str | Path, bit_order: str = "left") -> CountsTable:
    return parse_counts(Path(path).read_bytes(), bit_order=bit_order)


def write_counts(path: str | Path, table: CountsTable) -> None:
    """Write the canonical document to ``path`` a block at a time. Anything
    but a ``CountsTable`` is refused before ``path`` is opened."""
    _expect(table, CountsTable)
    with open(path, "wb") as file:
        file.writelines(_render(table))
