"""Seeded bit-flip measurement noise: shot simulation.

The channel flips each measured bit independently: a true 0 reads as 1 with
probability p01 and a true 1 reads as 0 with probability p10, independently
per qubit and per shot. Simulation is driven by a counter-based generator
(Philox) keyed from a 64-bit seed plus the shot-block index, so a run is a
pure function of its arguments and blocks may be produced in any order or
in parallel without changing the result. Every probability is first
rounded to a threshold T = round(Pr(read 1) * 2^32), and each shot-qubit
then reads 1 with probability exactly T / 2^32: it draws one random byte h
and reads 1 when h is below T's top byte, or when h equals it and a 24-bit
tie word is below the rest of T. So every simulated probability is exact to
within 2^-33, and a tie word is drawn for one shot-qubit in 256.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import MAX_QUBITS, CountsTable, _is_int, _probabilities, validate_bitstring
from .errors import DimensionError, InfeasibleError, ValidationError

MAX_SEED = 2**64

# Shots are generated in fixed-size blocks; block b draws from a stream
# keyed by (seed, b), so blocks can be produced out of order or on separate
# workers and still assemble into the sequential result. The block size is
# part of the output definition and must not be tuned per run.
_BLOCK_SHOTS = 1 << 15
# A block is drawn in row chunks of about this many draws, so its draws
# never exist at once. Consecutive draws from one generator continue its
# stream, so unlike the block size this is not part of the output.
_CHUNK_DRAWS = 1 << 17
# Pr(read 1) is T / 2^32 for an integer threshold T in [0, 2^32]. A draw is
# one byte, compared with T >> 24 (255 at most); a byte equal to it reads 1
# when a tie word, the low 24 bits of one 64-bit output, is below the rest
# of T, which lies in [0, 2^24].
_THRESHOLD_RANGE = 1 << 32
_TIE_BITS = 24


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Per-qubit flip probabilities p01 = Pr(read 1 | true 0) and
    p10 = Pr(read 0 | true 1)."""

    p01: np.ndarray
    p10: np.ndarray

    def __post_init__(self):
        p01 = np.atleast_1d(_probabilities(self.p01, "p01"))
        p10 = np.atleast_1d(_probabilities(self.p10, "p10"))
        if p01.shape != p10.shape or p01.ndim != 1:
            raise DimensionError("p01 and p10 must be 1-d arrays of equal length")
        if p01.size == 0 or p01.size > MAX_QUBITS:
            raise ValidationError(f"qubit count must be in 1..{MAX_QUBITS}, got {p01.size}")
        for name, arr in (("p01", p01), ("p10", p10)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls, n: int, p01: float, p10: float | None = None) -> "NoiseModel":
        """All qubits share (p01, p10); symmetric when p10 is omitted."""
        if not _is_int(n) or not 1 <= n <= MAX_QUBITS:
            raise ValidationError(f"qubit count must be in 1..{MAX_QUBITS}, got {n!r}")
        if p10 is None:
            p10 = p01
        return cls(p01=np.full(n, p01), p10=np.full(n, p10))

    @property
    def n(self) -> int:
        return self.p01.size

    @property
    def is_symmetric(self) -> bool:
        return bool(np.all(self.p01 == self.p10))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoiseModel):
            return NotImplemented
        return np.array_equal(self.p01, other.p01) and np.array_equal(self.p10, other.p10)

    def __repr__(self) -> str:
        if self.is_symmetric and np.all(self.p01 == self.p01[0]):
            return f"NoiseModel.uniform(n={self.n}, p={self.p01[0]})"
        return f"NoiseModel(n={self.n})"


def _check_seed(seed: int) -> int:
    if not _is_int(seed):
        raise ValidationError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed < MAX_SEED:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def derive_seed(seed: int, *tags) -> int:
    """Deterministically derive an independent 64-bit seed from a master
    seed and a tag path: each experiment cell's shots, and each AMS phase's
    counts ("phase1", "subset" and "top-up"), draw from their own stream."""
    seed = _check_seed(seed)
    digest = hashlib.sha256(repr((seed,) + tags).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _block_bit_gens(seed: int, block: int) -> tuple[np.random.Philox, np.random.Philox]:
    """A block's stream and its ``jumped()`` copy: the same 128-bit Philox
    key (seed in the high word, block index in the low one), the copy's
    counter 2^128 ahead."""
    key = (seed << 64) | block
    return np.random.Philox(key=key), np.random.Philox(key=key, counter=1 << 128)


def _bytes(bit_gen: np.random.BitGenerator, count: int) -> np.ndarray:
    """The next ``count`` bytes of ``bit_gen``: each 64-bit output split in
    eight, low byte first. The rest of a last, partly used output is dropped."""
    raw = bit_gen.random_raw((count + 7) // 8).astype("<u8", copy=False)
    return raw.view(np.uint8)[:count]


def _tie_words(bit_gen: np.random.BitGenerator, count: int) -> np.ndarray:
    """The low 24 bits of each of the next ``count`` 64-bit outputs."""
    return bit_gen.random_raw(count) & np.uint64((1 << _TIE_BITS) - 1)


def _read1_probabilities(truths: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Pr(read 1) for every qubit of each row of ``truths`` (uint8 bits):
    p01 where the truth is 0 and 1 - p10 where it is 1."""
    return np.where(truths == 0, noise.p01, 1.0 - noise.p10)


def _read1_thresholds(truths: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """round(Pr(read 1) * 2^32) as uint64 in [0, 2^32]; a probability below
    2^-33 rounds to 0."""
    return np.rint(_read1_probabilities(truths, noise) * _THRESHOLD_RANGE).astype(np.uint64)


def _binomial_ones(read1: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """One Binomial(shots, read1[i]) draw per entry, as int64, from a Philox
    keyed by ``seed``: the ones count of each qubit's column of a shot record,
    drawn without the record, since bit flips are independent."""
    rng = np.random.Generator(np.random.Philox(key=_check_seed(seed)))
    return rng.binomial(shots, read1).astype(np.int64, copy=False)


def _shot_block(thresholds: np.ndarray, seed: int, block: int, out: np.ndarray) -> None:
    """Fill ``out`` with the measured rows of one shot block, packed
    big-endian eight qubits per byte; they depend only on the arguments and
    the number of rows of ``out``.

    ``thresholds`` has one row from :func:`_read1_thresholds`, or two: those
    of x0 and of its complement. With threshold T, split as hi = min(T >> 24,
    255) and lo = T - (hi << 24), a shot-qubit reads 1 when its byte h < hi,
    or when h == hi and its tie word is below lo, so with probability exactly
    T / 2^32. The bytes come from the block's stream, row after row; the tie
    words, one per byte equal to its hi in the same order, come from that
    stream's ``jumped()`` copy. With two rows each shot's truth is x0 or its
    complement with equal chance: one byte per shot, drawn first, picks the
    complement when it is below 128; then the flip bytes follow as without
    them.
    """
    bit_gen, tie_gen = _block_bit_gens(seed, block)
    take, width = out.shape
    n = thresholds.shape[1]
    hi = np.minimum(thresholds >> _TIE_BITS, 255)
    lo = thresholds - (hi << _TIE_BITS)
    hi = hi.astype(np.uint8)
    # where every lo is 0 a tie reads 0 whatever its word, so none is drawn
    any_tie = bool(np.any(lo))
    branch = None
    if len(thresholds) == 2:
        branch = (_bytes(bit_gen, take) < 128).view(np.uint8)
    # A row step that is a multiple of eight keeps every chunk but the last
    # on whole 64-bit outputs, so the chunking does not show in the output.
    step = 8 * max(1, _CHUNK_DRAWS // (8 * n))
    # whole bytes per row; the pad columns stay 0, so a chunk packs flat
    bits = np.zeros((min(step, take), 8 * width), dtype=bool)
    for start in range(0, take, step):
        rows = min(step, take - start)
        pick = 0 if branch is None else branch[start : start + rows]
        draws = _bytes(bit_gen, rows * n).reshape(rows, n)
        row_hi = hi[pick]
        np.less(draws, row_hi, out=bits[:rows, :n])
        if any_tie:
            r, q = np.divmod(np.flatnonzero(draws == row_hi), n)
            sel = 0 if branch is None else branch[start + r]
            bits[r, q] = _tie_words(tie_gen, r.size) < lo[sel, q]
        out[start : start + rows] = np.packbits(bits[:rows]).reshape(rows, width)


def _simulate_rows(thresholds: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The packed shot record, allocated once and filled block by block."""
    n = thresholds.shape[1]
    _check_record_memory(n, shots)
    seed = _check_seed(seed)
    rows = np.empty((shots, (n + 7) // 8), dtype=np.uint8)
    for block, lo in enumerate(range(0, shots, _BLOCK_SHOTS)):
        _shot_block(thresholds, seed, block, rows[lo : lo + _BLOCK_SHOTS])
    return rows


# Largest simulated shot record, packed eight qubits to a byte; a larger one
# is refused before it is allocated.
MAX_RECORD_BYTES = 4 << 30


def _check_record_memory(n: int, shots: int) -> None:
    """Refuse a shot record of ``shots`` rows of ``n`` qubits, packed eight
    to a byte, that would pass ``MAX_RECORD_BYTES``."""
    need = shots * ((n + 7) // 8)
    if need > MAX_RECORD_BYTES:
        from decimal import Decimal  # exact at any size; a float overflows past 1.8e308
        raise InfeasibleError(
            f"{shots} shots of {n} qubits need {Decimal(need) / 2**30:.1f} GiB as a packed shot "
            f"record, more than the {MAX_RECORD_BYTES / 2**30:.0f} GiB allowed"
        )


def _prepare(x0: str, noise: NoiseModel, shots: int):
    validate_bitstring(x0)
    if len(x0) != noise.n:
        raise DimensionError(
            f"ground truth has {len(x0)} qubits but the noise model has {noise.n}"
        )
    if not _is_int(shots) or shots < 1:
        raise ValidationError(f"shots must be a positive integer, got {shots!r}")
    x0_bits = np.frombuffer(x0.encode("ascii"), dtype=np.uint8) - ord("0")
    return x0_bits, int(shots)


def simulate_shots(x0: str, noise: NoiseModel, shots: int, seed: int) -> CountsTable:
    """Draw ``shots`` independent noisy measurements of ``x0``.

    Deterministic: identical arguments always yield a bit-identical table.
    """
    x0_bits, shots = _prepare(x0, noise, shots)
    rows = _simulate_rows(_read1_thresholds(x0_bits[None], noise), shots, seed)
    return CountsTable._from_shots(rows, x0_bits.size)


def simulate_antipodal_shots(x0: str, noise: NoiseModel, shots: int, seed: int) -> CountsTable:
    """Like :func:`simulate_shots`, but each shot's pre-noise truth is drawn
    uniformly from the antipodal pair {x0, complement(x0)}.

    Models algorithms whose two correct outputs are bitwise complements
    (GHZ-style), with equal weight on the two branches.
    """
    x0_bits, shots = _prepare(x0, noise, shots)
    thresholds = _read1_thresholds(np.stack([x0_bits, x0_bits ^ 1]), noise)
    return CountsTable._from_shots(_simulate_rows(thresholds, shots, seed), x0_bits.size)
