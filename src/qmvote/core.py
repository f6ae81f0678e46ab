"""Bitstrings, shot-count tables, per-qubit vote tallies, Hamming distance.

Bitstrings are Python strings over {'0', '1'} wherever they cross the API,
files or reports. Character position i (0-based, left to right) holds
qubit i. Inside a shot table the distinct keys are rows of bits packed
eight to a byte in the same order, kept in key order, and the string form
is built only when it is asked for.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError

MAX_QUBITS = 4096

_COMPLEMENT_TABLE = str.maketrans("01", "10")


def validate_bitstring(bits: str, n: int | None = None) -> str:
    """Check that ``bits`` is a well-formed bitstring and return it.

    When ``n`` is given the length must match exactly.
    """
    if not isinstance(bits, str):
        raise ValidationError(f"bitstring must be a str, got {type(bits).__name__}")
    if not bits or set(bits) - {"0", "1"}:
        raise ValidationError(f"bitstring must be a non-empty string over 0/1, got {bits!r}")
    if len(bits) > MAX_QUBITS:
        raise ValidationError(f"bitstring has {len(bits)} qubits, maximum is {MAX_QUBITS}")
    if n is not None and len(bits) != n:
        raise DimensionError(f"bitstring {bits!r} has length {len(bits)}, expected {n}")
    return bits


def _expect(value, cls):
    """Return ``value`` if it is a ``cls``; anything else, such as a plain
    mapping of counts where a ``CountsTable`` is expected, raises
    ``ValidationError``."""
    if not isinstance(value, cls):
        raise ValidationError(f"expected a {cls.__name__}, got {type(value).__name__}")
    return value


def _is_int(value) -> bool:
    """A Python or numpy integer that is not a boolean, which would pass as 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number that is not a boolean, which would pass as 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _json_load(data: bytes | str, what: str, error):
    """The JSON value of a document given as UTF-8 bytes with no byte-order
    mark, or as text; any other document raises ``error(message)``."""
    try:
        return json.loads(data if isinstance(data, str) else data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not valid UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # a byte-order mark is a JSONDecodeError
        raise error(f"{what} is not valid JSON: {exc}") from exc


def _json_fields(doc, what: str, known, required, error) -> dict:
    """``doc``, a JSON object whose fields are all ``known`` and include every
    ``required`` one; anything else raises ``error(message)``."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object")
    unknown = doc.keys() - known
    if unknown:
        raise error(f"unknown {what} fields {sorted(unknown, key=str)}")  # keys of any type
    missing = [name for name in required if name not in doc]
    if missing:
        raise error(f"missing {what} fields {missing}")
    return doc


def _probabilities(values, what: str) -> np.ndarray:
    """``values`` as a float64 copy of the same shape, for the caller to check: real
    numbers in [0, 1], never strings or booleans (a numeric ndarray is not walked)."""
    try:
        arr = np.array(values, dtype=np.float64, copy=True)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} entries must be numbers: {exc}") from None
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        for value in np.array(values, dtype=object).ravel():
            if not _is_real(value):
                raise ValidationError(f"{what} entries must be numbers, got {value!r}")
    # written so that NaN, which fails every comparison, is refused
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError(f"{what} entries must lie in [0, 1]")
    return arr


_INT64_MAX = np.iinfo(np.int64).max


def _counts(values, what: str) -> np.ndarray:
    """``values`` as an int64 copy of the same shape, for the caller to check:
    integers within int64, never floats, strings or booleans (a signed
    integer ndarray is not walked)."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "i"):
        for value in np.array(values, dtype=object).ravel():
            if not _is_int(value) or not -_INT64_MAX - 1 <= value <= _INT64_MAX:
                raise ValidationError(f"{what} entries must be int64 integers, got {value!r}")
    return np.array(values, dtype=np.int64, copy=True)


def complement(bits: str) -> str:
    """Bitwise complement of a bitstring."""
    return validate_bitstring(bits).translate(_COMPLEMENT_TABLE)


def hamming_distance(a: str, b: str) -> int:
    """Number of positions where two equal-length bitstrings differ."""
    validate_bitstring(a)
    validate_bitstring(b)
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int(a, 2) ^ int(b, 2)).bit_count()


class CountsTable:
    """Multiset of measured bitstrings with occurrence counts.

    Immutable after construction. All keys share one length ``n``, all
    counts are positive integers, and ``shots`` is their sum, at most 2**53.

    A table holds its distinct keys as rows of bits packed big-endian, eight
    qubits per byte, with an int64 count per row, always in key order
    (ascending bitstrings) whatever its source: a mapping or file is
    validated and packed in one pass, in any key order, and then sorted,
    which refuses a repeated key; the simulator's rows arrive sorted by
    their deduplication. String keys are decoded from the rows the first
    time ``counts`` or ``items()`` asks for them, and iterate in the same
    key order; a key lookup packs the one key and searches the rows for it.
    """

    __slots__ = ("n", "shots", "_counts", "_packed", "_weights")

    def __init__(self, counts: Mapping[str, int], n: int | None = None):
        if isinstance(counts, _Rows):
            packed, weights = counts
        else:
            if not counts:
                raise ValidationError("counts table must contain at least one entry")
            mapping = dict(counts)
            first = next(iter(mapping))
            if n is None:
                if not isinstance(first, str):
                    raise ValidationError("counts keys must be bitstrings")
                n = len(first)
            if not _is_int(n):
                raise ValidationError(f"n must be an integer, got {n!r}")
            n = int(n)
            if not 1 <= n <= MAX_QUBITS:
                _check_entry(first, mapping[first], n)  # raises: no key can have this length
            packed, weights = _pack_entries(mapping, n, _check_entry)
        if weights is None:  # one row per shot: deduplicate, which sorts by key
            packed, weights = _dedup_rows(packed)
        else:  # rows in the caller's order; stable is fast on sorted input
            keys = _row_keys(packed)
            order = np.argsort(keys, kind="stable")
            # an increasing permutation is the identity: the rows are in key order
            if np.any(order[1:] < order[:-1]):
                packed, weights = np.take(packed, order, axis=0), weights[order]
                keys = _row_keys(packed)
            if np.any(keys[1:] == keys[:-1]):
                raise ValidationError("counts table keys must be distinct, but one repeats")
        self.shots = _exact_sum(weights)
        if self.shots > MAX_SHOTS:
            raise ValidationError(f"counts sum to {self.shots}, more than 2**53")
        packed.setflags(write=False)
        weights.setflags(write=False)
        self.n = n
        self._counts = None
        self._packed = packed
        self._weights = weights

    @classmethod
    def _from_shots(cls, rows: np.ndarray, n: int) -> "CountsTable":
        """Trusted constructor for the simulator: one row per shot, packed
        as by ``np.packbits(bits, axis=1)``. Rows are deduplicated and
        sorted by key; nothing is re-validated."""
        return cls(_Rows(rows, None), n)

    def _decode(self, packed: np.ndarray) -> list[str]:
        """String keys of packed rows."""
        n = self.n
        chars = np.unpackbits(packed, axis=1, count=n) + np.uint8(ord("0"))
        blob = chars.tobytes().decode("ascii")
        return [blob[i * n : (i + 1) * n] for i in range(packed.shape[0])]

    @property
    def counts(self) -> Mapping[str, int]:
        if self._counts is None:
            keys = self._decode(self._packed)
            self._counts = MappingProxyType(dict(zip(keys, self._weights.tolist())))
        return self._counts

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self.counts.items())

    def _find(self, key) -> int | None:
        """Row of a string key, or None when the table does not hold it.
        The one key is packed and looked up among the key-ordered rows, so
        no other key is decoded."""
        if not isinstance(key, str) or len(key) != self.n:
            return None
        text = np.frombuffer(key.encode("ascii", "replace"), dtype=np.uint8) - np.uint8(ord("0"))
        if text.max() > 1:  # a character below '0' wraps round to a large value
            return None
        rows = _row_keys(self._packed)
        query = _row_keys(np.packbits(text)[None, :])
        at = int(np.searchsorted(rows, query[0]))
        return at if at < rows.size and rows[at] == query[0] else None

    def __getitem__(self, key: str) -> int:
        at = self._find(key)
        if at is None:
            raise KeyError(key)
        return int(self._weights[at])

    def __contains__(self, key: str) -> bool:
        return self._find(key) is not None

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountsTable):
            return NotImplemented
        if self.n != other.n or self.shots != other.shots or len(self) != len(other):
            return False
        return np.array_equal(self._packed, other._packed) and np.array_equal(
            self._weights, other._weights
        )

    def __repr__(self) -> str:
        return f"CountsTable(n={self.n}, shots={self.shots}, distinct={len(self)})"

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (bit matrix, count vector) in key order, the order of
        ``counts``: one uint8 row per distinct key, one column per qubit,
        and an int64 count per row. No string keys are built."""
        return np.unpackbits(self._packed, axis=1, count=self.n), self._weights.copy()


class _Rows(NamedTuple):
    """Packed rows handed to ``CountsTable`` unchecked: the simulator's shot
    record (no weights), or checked rows with their counts, in any order."""

    rows: np.ndarray
    weights: np.ndarray | None


# Largest shot total a table may hold: float64 is exact for integers up to
# 2**53, which ``_bit_counts`` relies on.
MAX_SHOTS = 2**53
# Entries are checked and packed in blocks of about this many key characters.
_PACK_BLOCK_CHARS = 1 << 18


def _check_entry(key, count, n: int) -> None:
    validate_bitstring(key)
    if len(key) != n:
        raise ValidationError(f"inconsistent key length: {key!r} has {len(key)} bits, expected {n}")
    if not _is_int(count) or count < 1:
        raise ValidationError(f"count for {key!r} must be a positive integer, got {count!r}")
    if count > MAX_SHOTS:
        raise ValidationError(f"count for {key!r} is {count}, more than 2**53")


def _pack_entries(entries: dict, n: int, check):
    """Check a table's entries a block at a time and pack their keys as the
    simulator packs shots. A block with a key that is not ``n`` characters
    over '0'/'1' or a count that is not an integer in 1..2**53 is walked
    with ``check(key, count, n)``, which raises the caller's error for the
    first bad entry.

    Returns the packed rows and the counts as int64.
    """
    keys, counts = list(entries), list(entries.values())
    packed = np.empty((len(keys), (n + 7) // 8), dtype=np.uint8)
    step = max(1, _PACK_BLOCK_CHARS // n)
    for lo in range(0, len(keys), step):
        block, block_counts = keys[lo : lo + step], counts[lo : lo + step]
        try:
            text = np.frombuffer("".join(block).encode("ascii"), dtype=np.uint8)
            ok = (
                set(map(len, block)) == {n}
                and ord("0") <= text.min() <= text.max() <= ord("1")
                # one count of each type stands for all counts of that type
                and all(map(_is_int, dict(zip(map(type, block_counts), block_counts)).values()))
                and 1 <= min(block_counts) <= max(block_counts) <= MAX_SHOTS
            )
        except (TypeError, UnicodeEncodeError):
            ok = False
        if not ok:
            for key, count in zip(block, block_counts):
                check(key, count, n)
            raise AssertionError("a block of entries failed its test, but none of its entries")
        bits = (text & 1).reshape(len(block), n)
        packed[lo : lo + step] = np.packbits(bits, axis=1)
    return packed, np.array(counts, dtype=np.int64)


def _exact_sum(weights: np.ndarray) -> int:
    """The exact sum of nonnegative int64 counts: their high and low 32-bit
    halves are summed apart, and neither sum wraps for fewer than 2**31 counts."""
    return (int((weights >> 32).sum()) << 32) + int((weights & 0xFFFFFFFF).sum())


def _row_keys(packed: np.ndarray) -> np.ndarray:
    """Each packed row as one opaque value; these compare byte by byte, so
    they order like the bitstrings the rows encode."""
    packed = np.ascontiguousarray(packed)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _as_order(keys: np.ndarray, dtype: str) -> np.ndarray:
    """``keys`` viewed as ``dtype``, the same unsigned type in another byte
    order, with the bytes of each value swapped in place when the two
    orders differ, so every value is kept."""
    if keys.dtype.isnative != np.dtype(dtype).isnative:
        keys.byteswap(inplace=True)
    return keys.view(dtype)


def _word_keys(packed: np.ndarray, size: int) -> np.ndarray:
    """Each row of ``packed`` (at most ``size`` bytes, ``size`` in 1, 2, 4,
    8), zero-padded on the right, as a native unsigned integer read
    big-endian: a new array whose values order like the rows' bitstrings."""
    rows, width = packed.shape
    padded = np.zeros((rows, size), dtype=np.uint8)
    padded[:, :width] = packed
    return _as_order(padded.view(f">u{size}").ravel(), f"=u{size}")


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """One flag per entry of sorted ``keys``: set where a run of equal keys
    begins, so on the first entry and wherever a key differs from the one
    before."""
    starts = np.empty(keys.size, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _run_lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """The length of each run, from where the runs begin, as int64; written
    into one new array, where ``np.diff(starts, append=total)`` would first
    copy ``starts``."""
    lengths = np.empty(starts.size, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = total - starts[-1]
    return lengths


def _dedup_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``packed`` in key order, and how often each
    occurs (int64); ``packed`` is left as it is.

    A row of at most 8 bytes is its own big-endian key, padded to 1, 2, 4
    or 8 bytes; the keys are sorted in place and split where they change.
    A wider row is ordered by its first 8-byte word, and only the rows still
    tied with a neighbour are re-sorted on the next word, and so on. Either
    way the working memory is a few integers per row.
    """
    rows, width = packed.shape
    if width <= 8:
        size = 1 << (width - 1).bit_length()
        keys = _word_keys(packed, size)
        keys.sort(kind="stable" if size == 1 else None)  # numpy radix-sorts one-byte keys
        starts = np.flatnonzero(_run_starts(keys))
        uniq = keys[starts]
        del keys
        weights = _run_lengths(starts, rows)
        del starts
        uniq = _as_order(uniq, f">u{size}").view(np.uint8).reshape(-1, size)
        return np.ascontiguousarray(uniq[:, :width]), weights
    first = _word_keys(packed[:, :8], 8)
    order = np.argsort(first)
    first = first[order]
    starts = _run_starts(first)
    del first
    for lo in range(8, width, 8):
        # the sorted rows in a run of two or more equal keys so far
        tied = ~starts
        tied[:-1] |= tied[1:]
        at = np.flatnonzero(tied)
        del tied
        if not at.size:
            break
        run = np.cumsum(starts[at], dtype=np.intp)  # runs numbered in order
        word = _word_keys(packed[order[at], lo : lo + 8], 8)
        sub = np.lexsort((word, run))
        del run
        word = word[sub]
        starts[at[1:]] |= word[1:] != word[:-1]
        del word
        order[at] = order[at][sub]
    starts = np.flatnonzero(starts)
    return packed[order[starts]], _run_lengths(starts, rows)


@dataclass(frozen=True, eq=False)
class VoteTally:
    """Per-qubit zero/one counts over a shot record.

    For every qubit i, ``zeros[i] + ones[i] == shots``.
    """

    zeros: np.ndarray
    ones: np.ndarray
    shots: int = field(init=False)

    def __post_init__(self):
        zeros, ones = _counts(self.zeros, "zeros"), _counts(self.ones, "ones")
        if zeros.ndim != 1 or zeros.shape != ones.shape:
            raise DimensionError("zeros and ones must be 1-d arrays of equal length")
        if zeros.size == 0 or zeros.size > MAX_QUBITS:
            raise ValidationError(f"qubit count must be in 1..{MAX_QUBITS}, got {zeros.size}")
        if np.any(zeros < 0) or np.any(ones < 0):
            raise ValidationError("per-qubit counts must be nonnegative")
        shots = int(zeros[0]) + int(ones[0])
        if not 1 <= shots <= _INT64_MAX:
            raise ValidationError(f"tally must cover 1 to 2**63 - 1 shots, got {shots}")
        if np.any(zeros + ones != shots):
            raise ValidationError("zeros[i] + ones[i] must equal the shot total for every qubit")
        zeros.setflags(write=False)
        ones.setflags(write=False)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "ones", ones)
        object.__setattr__(self, "shots", shots)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoteTally):
            return NotImplemented
        return (
            self.shots == other.shots
            and np.array_equal(self.zeros, other.zeros)
            and np.array_equal(self.ones, other.ones)
        )

    @property
    def n(self) -> int:
        return self.zeros.size

    @property
    def margins(self) -> np.ndarray:
        """Per-qubit vote margin |p0 - p1|."""
        return np.abs(self.zeros - self.ones) / self.shots


# Row b is the bits of byte value b, most significant first, as float64.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.float64)


def _bit_counts(packed: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``weights @ bits`` as int64 for the first ``n`` bits of packed rows:
    each byte column's 256-bin weight histogram times ``_BYTE_BITS``, in
    float64, which is exact, as every partial sum is an integer no larger
    than the shot total of at most 2**53."""
    wf = weights.astype(np.float64)
    hist = np.stack([np.bincount(column, weights=wf, minlength=256) for column in packed.T])
    return (hist @ _BYTE_BITS).ravel()[:n].astype(np.int64)


def tally(counts: CountsTable) -> VoteTally:
    """Per-qubit zero/one vote counts of a counts table, counted from its
    packed rows (no bit matrix is unpacked) in entries x row bytes work."""
    ones = _bit_counts(_expect(counts, CountsTable)._packed, counts._weights, counts.n)
    return VoteTally(zeros=counts.shots - ones, ones=ones)
