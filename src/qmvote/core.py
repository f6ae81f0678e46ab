"""Bitstrings, shot-count tables, per-qubit vote tallies, Hamming distance.

Bitstrings are Python strings over {'0', '1'} wherever they cross the API,
files or reports. Character position i (0-based, left to right) holds
qubit i. Inside a shot table the distinct keys are rows of bits packed
eight to a byte in the same order, and simulated tables never build the
string form unless it is asked for.
"""

from __future__ import annotations

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


def complement(bits: str) -> str:
    """Bitwise complement of a bitstring."""
    return bits.translate(_COMPLEMENT_TABLE)


def hamming_distance(a: str, b: str) -> int:
    """Number of positions where two equal-length bitstrings differ."""
    validate_bitstring(a)
    validate_bitstring(b)
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int(a, 2) ^ int(b, 2)).bit_count()


# Row b of this table is the 8-character bitstring of byte b, most
# significant bit first: the key text of one packed byte.
_BYTE_CHARS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) + np.uint8(ord("0"))


class CountsTable:
    """Multiset of measured bitstrings with occurrence counts.

    Immutable after construction. All keys share one length ``n``, all
    counts are positive integers, and ``shots`` is their sum.

    A table holds its distinct keys as rows of bits packed big-endian, eight
    qubits per byte, with an int64 count per row. Tables made from a mapping
    are validated key by key and keep the mapping's order; tables made by
    the simulator arrive packed, sorted and deduplicated, and build their
    string keys only when first asked for them.
    """

    __slots__ = ("n", "shots", "_counts", "_packed", "_weights", "_canonical_rows")

    def __init__(self, counts: Mapping[str, int], n: int | None = None):
        if isinstance(counts, _ShotRows):
            self._init_from_shots(counts.rows, n)
            return
        if not counts:
            raise ValidationError("counts table must contain at least one entry")
        items = dict(counts)
        first = next(iter(items))
        if n is None:
            if not isinstance(first, str):
                raise ValidationError("counts keys must be bitstrings")
            n = len(first)
        total = 0
        for key, count in items.items():
            validate_bitstring(key)
            if len(key) != n:
                raise ValidationError(
                    f"inconsistent key length: {key!r} has {len(key)} bits, expected {n}"
                )
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ValidationError(f"count for {key!r} must be a positive integer, got {count!r}")
            total += count
        self.n = n
        self.shots = total
        self._counts = MappingProxyType(items)
        self._packed = None
        self._weights = None
        self._canonical_rows = None

    @classmethod
    def _from_shots(cls, rows: np.ndarray, n: int) -> "CountsTable":
        """Trusted constructor for the simulator: one row per shot, packed
        as by ``np.packbits(bits, axis=1)``. Rows are deduplicated and
        sorted by key; nothing is re-validated."""
        return cls(_ShotRows(rows), n)

    def _init_from_shots(self, rows: np.ndarray, n: int) -> None:
        uniq, weights = np.unique(_row_keys(rows), return_counts=True)
        packed = uniq.view(np.uint8).reshape(-1, rows.shape[1])
        weights = weights.astype(np.int64, copy=False)
        packed.setflags(write=False)
        weights.setflags(write=False)
        self.n = n
        self.shots = rows.shape[0]
        self._counts = None
        self._packed = packed
        self._weights = weights
        self._canonical_rows = (packed, weights)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Packed rows and counts, in key order (the mapping's order for
        tables built from one)."""
        if self._packed is None:
            keys = list(self._counts)
            joined = "".join(keys).encode("ascii")
            bits = (np.frombuffer(joined, dtype=np.uint8) - ord("0")).reshape(len(keys), self.n)
            weights = np.fromiter(self._counts.values(), dtype=np.int64, count=len(keys))
            packed = np.packbits(bits, axis=1)
            packed.setflags(write=False)
            weights.setflags(write=False)
            self._packed, self._weights = packed, weights
        return self._packed, self._weights

    def _canonical(self) -> tuple[np.ndarray, np.ndarray]:
        """Packed rows and counts sorted by key, so reductions over the
        entries see a fixed order."""
        if self._canonical_rows is None:
            packed, weights = self._rows()
            order = np.argsort(_row_keys(packed))
            self._canonical_rows = (packed[order], weights[order])
            for arr in self._canonical_rows:
                arr.setflags(write=False)
        return self._canonical_rows

    def _bits(self, packed: np.ndarray) -> np.ndarray:
        """uint8 bit matrix of some packed rows, one column per qubit."""
        return np.unpackbits(packed, axis=1, count=self.n)

    def _decode(self, packed: np.ndarray) -> list[str]:
        """String keys of packed rows, through the byte-to-text table."""
        n = self.n
        chars = _BYTE_CHARS[packed].reshape(packed.shape[0], -1)[:, :n]
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

    def __getitem__(self, key: str) -> int:
        return self.counts[key]

    def __contains__(self, key: str) -> bool:
        return key in self.counts

    def __len__(self) -> int:
        return len(self._weights) if self._counts is None else len(self._counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountsTable):
            return NotImplemented
        if self.n != other.n or self.shots != other.shots or len(self) != len(other):
            return False
        mine, theirs = self._canonical(), other._canonical()
        return np.array_equal(mine[0], theirs[0]) and np.array_equal(mine[1], theirs[1])

    def __repr__(self) -> str:
        return f"CountsTable(n={self.n}, shots={self.shots}, distinct={len(self)})"

    def as_arrays(
        self, canonical: bool = False, *, keys: bool = True
    ) -> tuple[list[str] | None, np.ndarray, np.ndarray]:
        """Return (keys, bit matrix, count vector).

        The bit matrix has one uint8 row per distinct key; the count vector
        is int64. With ``canonical=True`` keys are sorted so downstream
        floating-point reductions see a fixed order. With ``keys=False``
        the first element is None and no string keys are built.
        """
        if canonical:
            packed, weights = self._canonical()
            names = self._decode(packed) if keys else None
        else:
            packed, weights = self._rows()
            names = list(self.counts) if keys else None
        return names, self._bits(packed), weights.copy()


class _ShotRows(NamedTuple):
    """The simulator's packed shot record, handed to ``CountsTable``
    through :meth:`CountsTable._from_shots`."""

    rows: np.ndarray


def _row_keys(packed: np.ndarray) -> np.ndarray:
    """Each packed row as one opaque value; these compare byte by byte, so
    they order like the bitstrings the rows encode."""
    packed = np.ascontiguousarray(packed)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


@dataclass(frozen=True, eq=False)
class VoteTally:
    """Per-qubit zero/one counts over a shot record.

    For every qubit i, ``zeros[i] + ones[i] == shots``.
    """

    zeros: np.ndarray
    ones: np.ndarray
    shots: int = field(default=0)

    def __post_init__(self):
        zeros = np.array(self.zeros, dtype=np.int64, copy=True)
        ones = np.array(self.ones, dtype=np.int64, copy=True)
        if zeros.ndim != 1 or zeros.shape != ones.shape:
            raise DimensionError("zeros and ones must be 1-d arrays of equal length")
        if zeros.size == 0 or zeros.size > MAX_QUBITS:
            raise ValidationError(f"qubit count must be in 1..{MAX_QUBITS}, got {zeros.size}")
        if np.any(zeros < 0) or np.any(ones < 0):
            raise ValidationError("per-qubit counts must be nonnegative")
        shots = self.shots if self.shots else int(zeros[0] + ones[0])
        if shots < 1:
            raise ValidationError("tally must cover at least one shot")
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
    def p0(self) -> np.ndarray:
        """Empirical per-qubit frequency of measuring 0."""
        return self.zeros / self.shots

    @property
    def p1(self) -> np.ndarray:
        """Empirical per-qubit frequency of measuring 1."""
        return self.ones / self.shots

    @property
    def margins(self) -> np.ndarray:
        """Per-qubit vote margin |p0 - p1|."""
        return np.abs(self.zeros - self.ones) / self.shots


# Entries are tallied in blocks of roughly this many matrix elements so the
# weighted column sums run in cache-resident chunks.
_TALLY_BLOCK_ELEMS = 1 << 18


def tally(counts: CountsTable) -> VoteTally:
    """Collapse a counts table into per-qubit zero/one vote counts.

    Cost is linear in (distinct entries) x (qubits). Partial sums use
    float64 matrix products, which are exact here because every partial
    sum is an integer bounded by the shot total (far below 2**53), and
    accumulate into 64-bit counters.
    """
    _, bits, weights = counts.as_arrays(keys=False)
    n = counts.n
    rows = max(256, _TALLY_BLOCK_ELEMS // n)
    ones = np.zeros(n, dtype=np.int64)
    wf = weights.astype(np.float64)
    for lo in range(0, bits.shape[0], rows):
        part = wf[lo : lo + rows] @ bits[lo : lo + rows].astype(np.float64)
        ones += part.astype(np.int64)
    zeros = counts.shots - ones
    return VoteTally(zeros=zeros, ones=ones, shots=counts.shots)


def merge_tallies(a: VoteTally, b: VoteTally) -> VoteTally:
    """Pool two tallies over the same qubits (shot totals add)."""
    if a.n != b.n:
        raise DimensionError(f"tally width mismatch: {a.n} vs {b.n}")
    return VoteTally(zeros=a.zeros + b.zeros, ones=a.ones + b.ones, shots=a.shots + b.shots)
