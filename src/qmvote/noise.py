"""Seeded bit-flip measurement noise: shot simulation.

The channel flips each measured bit independently: a true 0 reads as 1 with
probability p01 and a true 1 reads as 0 with probability p10, independently
per qubit and per shot. Simulation is driven by a counter-based generator
(Philox) keyed from a 64-bit seed plus the shot-block index, so a run is a
pure function of its arguments and blocks may be produced in any order or
in parallel without changing the result. Each shot-qubit draws one 32-bit
word and reads 1 when the word is below round(Pr(read 1) * 2^32), so every
simulated probability is exact to within 2^-33.
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
# A block is drawn in row chunks of about this many words, so its draws
# never exist at once. Consecutive draws from one generator continue its
# stream, so unlike the block size this is not part of the output.
_CHUNK_DRAWS = 1 << 17
# One draw is a 32-bit word; a threshold of 2^32 means "always reads 1".
_WORD_RANGE = 1 << 32


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


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # 128-bit Philox key: seed in the high word, block index in the low one.
    return np.random.Generator(np.random.Philox(key=(seed << 64) | block))


def _words(bit_gen: np.random.BitGenerator, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``bit_gen``: each 64-bit output
    split in two, low half first. An odd count drops the last high half."""
    raw = bit_gen.random_raw((count + 1) // 2).astype("<u8", copy=False)
    return raw.view("<u4")[:count]


def _read1_probabilities(truths: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Pr(read 1) for every qubit of each row of ``truths`` (uint8 bits):
    p01 where the truth is 0 and 1 - p10 where it is 1."""
    return np.where(truths == 0, noise.p01, 1.0 - noise.p10)


def _read1_thresholds(truths: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """round(Pr(read 1) * 2^32) as uint64 in [0, 2^32]; a probability below
    2^-33 rounds to 0."""
    return np.rint(_read1_probabilities(truths, noise) * _WORD_RANGE).astype(np.uint64)


def _binomial_ones(read1: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """One Binomial(shots, read1[i]) draw per entry, as int64, from a Philox
    keyed by ``seed``: the ones count of each qubit's column of a shot record,
    drawn without the record, since bit flips are independent."""
    rng = np.random.Generator(np.random.Philox(key=_check_seed(seed)))
    return rng.binomial(shots, read1).astype(np.int64, copy=False)


def _shot_block(thresholds: np.ndarray, seed: int, block: int, take: int) -> np.ndarray:
    """Measured rows for one shot block, packed big-endian eight qubits per
    byte; depends only on its arguments.

    ``thresholds`` has one row from :func:`_read1_thresholds`, or two: those
    of x0 and of its complement. Each shot-qubit draws one 32-bit word and
    reads 1 when the word is below its threshold. With two rows each shot's
    truth is x0 or its complement with equal chance: one word per shot,
    drawn first, picks the complement when it is below 2^31; then the flip
    words follow, row after row as without them.
    """
    bit_gen = _block_rng(seed, block).bit_generator
    n = thresholds.shape[1]
    # 2^32 does not fit a uint32 word: those qubits read 1 whatever the word,
    # so they are set after the comparison.
    below = np.minimum(thresholds, _WORD_RANGE - 1).astype(np.uint32)
    always = thresholds == _WORD_RANGE
    any_always = bool(always.any())
    branch = None
    if len(thresholds) == 2:
        branch = (_words(bit_gen, take) < _WORD_RANGE // 2).view(np.uint8)
    out = np.empty((take, (n + 7) // 8), dtype=np.uint8)
    # An even row step keeps every chunk but the last on whole 64-bit
    # outputs, so the chunking does not show in the output.
    step = 2 * max(1, _CHUNK_DRAWS // (2 * n))
    for lo in range(0, take, step):
        rows = min(step, take - lo)
        pick = 0 if branch is None else branch[lo : lo + rows]
        bits = _words(bit_gen, rows * n).reshape(rows, n) < below[pick]
        if any_always:
            bits |= always[pick]
        out[lo : lo + rows] = np.packbits(bits, axis=1)
    return out


def _simulate_rows(thresholds: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The packed shot record, block by block."""
    _check_record_memory(thresholds.shape[1], shots)
    seed = _check_seed(seed)
    pieces = [
        _shot_block(thresholds, seed, block, min(_BLOCK_SHOTS, shots - lo))
        for block, lo in enumerate(range(0, shots, _BLOCK_SHOTS))
    ]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


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
