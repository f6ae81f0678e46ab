"""Estimators recovering a single correct bitstring from noisy shot counts.

Provided decision rules:

* ``mode_estimate``   -- most frequently measured string.
* ``ml_bruteforce``   -- exhaustive maximum-likelihood search over all 2^n
  candidate strings. Deliberately enumerative so it can serve as an
  independent oracle for the vote-based rules.
* ``map_estimate``    -- maximum a posteriori under a prior (full table or
  independent per-qubit probabilities, including hard 0/1 constraints).
* ``qmv``             -- qubit-wise majority vote, the maximum-likelihood
  rule under symmetric per-qubit flip noise below 0.5.
* ``weighted_vote``   -- per-qubit log-likelihood-ratio vote, generalizing
  the majority vote to asymmetric flip probabilities.
* ``sliding_window_antipodal`` -- reconstructs a complementary output pair
  from two-qubit window agreement votes.

Tie conventions: majority and weighted votes resolve a tied qubit to 1;
mode, ML, and MAP resolve ties to the lexicographically smallest string,
among scores as computed in float: ML, and MAP under a uniform full table,
compare the exhaustive scan's scores; other table priors compare per-qubit
sums taken in qubit order (see ``Prior``).
Zero or one flip probabilities are treated as hard evidence through an
explicit -inf log-likelihood, never clamped. The exhaustive scan scores no
candidate whose high qubits hold a bit that such evidence rules out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import CountsTable, VoteTally, _bit_counts, _is_real, _probabilities, complement
from .core import _expect, tally, validate_bitstring
from .errors import DimensionError, InfeasibleError, ValidationError
from .noise import NoiseModel

# A scan over K distinct keys does about 2^n x (K + _ENUM_CANDIDATE_PAIRS)
# candidate-key pairs of work: about 2-3 ns per pair, plus 18-28 ns per
# candidate at one key, the cost of some 8-12 pairs (2-vCPU Xeon VM, numpy
# 2.4, OpenBLAS 0.3.31). A scan of more than _ENUM_MAX_PAIRS pairs, about
# 6 minutes there, is refused before it starts.
_ENUM_CANDIDATE_PAIRS = 16
_ENUM_MAX_PAIRS = 1 << 37
# The candidate x entry matrix is built a tile of rows at a time, a tile
# holding about this many bytes so that it and the stack of fixed-qubit
# partial sums stay in cache. Tiles are powers of two of at least
# _ENUM_TILE_MIN_ROWS rows, capped at the 2^n candidates. A tile's
# matrix-vector product gives each row the bits of the same row in the
# tests' gather reference, which weights blocks of 2^16 rows in one
# product, only on BLAS's path for four or more rows (OpenBLAS 0.3.31 takes
# another path for one or two rows), so the minimum must stay >= 4.
_ENUM_TILE_BYTES = 1 << 20
_ENUM_TILE_MIN_ROWS = 64

NEG_INF = float("-inf")


@dataclass(frozen=True, eq=False)
class Estimate:
    """Result of one estimator run.

    ``margins`` carries per-qubit vote margins |N0 - N1| / shots for the
    vote-based rules; ``gap`` carries the winner-versus-runner-up score
    difference for the argmax-based rules (log-likelihood units for ml/map,
    frequency units for mode).
    """

    value: str
    method: str
    margins: np.ndarray | None = None
    gap: float | None = None

    def __post_init__(self):
        validate_bitstring(self.value)
        if self.margins is not None:
            m = np.array(self.margins, dtype=np.float64, copy=True)
            if m.shape != (len(self.value),):
                raise DimensionError("margins must have one entry per qubit")
            m.setflags(write=False)
            object.__setattr__(self, "margins", m)

    @property
    def n(self) -> int:
        return len(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Estimate):
            return NotImplemented
        return self.value == other.value and self.method == other.method


@dataclass(frozen=True)
class AntipodalPair:
    """A bitstring and its bitwise complement, canonically oriented so the
    first member starts with 0."""

    x: str
    x_complement: str

    def __post_init__(self):
        if self.x_complement != complement(self.x):  # complement refuses what is not a bitstring
            raise ValidationError("second member must be the bitwise complement of the first")

    @property
    def members(self) -> frozenset[str]:
        return frozenset((self.x, self.x_complement))


class Prior:
    """Prior belief over the correct output.

    Two forms: independent per-qubit probabilities pi_i = Pr(bit i is 1),
    which may be hard 0/1 constraints, or an explicit probability table
    over full bitstrings (normalized to 1 within 1e-9, any width).

    A table prior keeps its support, the keys of positive probability in
    key order, as a bit matrix and a log-probability vector. MAP scores
    each support entry x as ``((log pi(x) + l_0(x_0)) + l_1(x_1)) + ... +
    l_{n-1}(x_{n-1})``, summed in qubit order, where ``l_i`` is qubit i's
    tally log-likelihood, and takes the first maximum in key order, so
    ties go to the lexicographically smallest string.
    """

    __slots__ = ("n", "per_qubit", "table", "_support_bits", "_support_logs")

    def __init__(self, *, per_qubit: np.ndarray | None = None, table: Mapping[str, float] | None = None):
        if (per_qubit is None) == (table is None):
            raise ValidationError("exactly one of per_qubit or table must be given")
        if per_qubit is not None:
            arr = _probabilities(per_qubit, "per-qubit prior")
            if arr.ndim != 1 or arr.size == 0:
                raise ValidationError("per-qubit prior must be a non-empty 1-d array")
            arr.setflags(write=False)
            self.n = arr.size
            self.per_qubit = arr
            self.table = None
            self._support_bits = self._support_logs = None
        else:
            if not isinstance(table, Mapping):
                raise ValidationError(
                    f"table prior must map bitstrings to probabilities, got {type(table).__name__}"
                )
            items = dict(table)
            if not items:
                raise ValidationError("table prior must contain at least one entry")
            n = len(validate_bitstring(next(iter(items))))
            total = 0.0
            support = []
            for key, prob in items.items():
                validate_bitstring(key, n)
                # NaN fails this comparison and would also slip past the sum check
                if not _is_real(prob) or not prob >= 0.0:
                    raise ValidationError(
                        f"prior probability for {key!r} must be a non-negative number, got {prob!r}"
                    )
                total += prob
                if prob > 0.0:
                    support.append(key)
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(f"table prior sums to {total!r}, expected 1 within 1e-9")
            support.sort()
            chars = np.frombuffer("".join(support).encode("ascii"), dtype=np.uint8)
            self.n = n
            self.per_qubit = None
            self.table = items
            self._support_bits = (chars - ord("0")).reshape(len(support), n)
            self._support_logs = np.array([math.log(items[key]) for key in support])

    @classmethod
    def uniform(cls, n: int) -> "Prior":
        """Uninformative prior: every qubit independently 1 with chance 0.5."""
        return cls(per_qubit=np.full(n, 0.5))

    @property
    def is_uniform(self) -> bool:
        if self.per_qubit is not None:
            return bool(np.all(self.per_qubit == 0.5))
        return len(self.table) == 1 << self.n and len(set(self.table.values())) == 1


def mode_estimate(counts: CountsTable) -> Estimate:
    """Most frequently measured bitstring; ties pick the lexicographically
    smallest."""
    packed, weights = _expect(counts, CountsTable)._packed, counts._weights
    # rows are in key order, so the first maximum is the smallest tied key
    best = int(np.argmax(weights))
    second_count = int(np.partition(weights, -2)[-2]) if weights.size > 1 else 0
    gap = (int(weights[best]) - second_count) / counts.shots
    return Estimate(value=counts._decode(packed[best : best + 1])[0], method="mode", gap=gap)


def _per_distinct(func, values: np.ndarray) -> np.ndarray:
    """Scalar ``func`` of every entry of ``values``, one call per distinct
    value. Logs are taken with ``math``, whose last bit ``np.log`` and
    ``np.log1p`` do not always match."""
    # a 1-D input, as numpy releases differ in the shape of a 2-D inverse
    distinct, inverse = np.unique(values.ravel(), return_inverse=True)
    return np.array([func(v) for v in distinct.tolist()])[inverse].reshape(values.shape)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else NEG_INF


def _loglikelihoods(zeros, ones, p01, p10) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit log-likelihoods (ll0, ll1) of reading ``zeros`` zeros and
    ``ones`` ones under true bit 0 and true bit 1, with flip probabilities
    ``p01`` and ``p10``: ll0 = ones log(p01) + zeros log(1 - p01), and ll1
    = zeros log(p10) + ones log(1 - p10). A count of zero contributes 0,
    and log(0) is -inf."""
    if len(p01) != len(zeros):
        raise DimensionError(f"noise model covers {len(p01)} qubits, tally has {len(zeros)}")
    logs = _per_distinct(_log, np.stack([p01, 1.0 - p01, p10, 1.0 - p10]))
    counts = np.stack([ones, zeros, zeros, ones])
    terms = np.multiply(counts, logs, out=np.zeros(logs.shape), where=counts != 0)
    return terms[0] + terms[1], terms[2] + terms[3]


def _bitstring(bits: np.ndarray) -> str:
    """The bitstring of a 0/1 (or boolean) array."""
    return (bits.astype(np.uint8) + np.uint8(ord("0"))).tobytes().decode("ascii")


def qmv(vote_tally: VoteTally) -> Estimate:
    """Qubit-wise majority vote: bit i is 0 iff strictly more shots read 0
    than 1 there; ties resolve to 1."""
    t = _expect(vote_tally, VoteTally)
    return Estimate(value=_bitstring(t.zeros <= t.ones), method="qmv", margins=t.margins)


def weighted_vote(vote_tally: VoteTally, noise: NoiseModel) -> Estimate:
    """Per-qubit likelihood-ratio vote for (possibly asymmetric) flip noise.

    Bit i is declared 1 when the observations are strictly more likely
    under true 1 than under true 0, i.e. when
    p10^zeros (1-p10)^ones > p01^ones (1-p01)^zeros; ties resolve to 1.
    With p01 = p10 = p < 0.5 this reduces bit-for-bit to the majority vote.
    """
    t = _expect(vote_tally, VoteTally)
    ll0, ll1 = _loglikelihoods(t.zeros, t.ones, noise.p01, noise.p10)
    return Estimate(value=_bitstring(ll0 <= ll1), method="weighted", margins=t.margins)


def _check_scan_work(n: int, keys: int) -> None:
    """Refuse an exhaustive scan of 2^n candidates over ``keys`` distinct
    keys whose work, 2^n x (keys + ``_ENUM_CANDIDATE_PAIRS``) candidate-key
    pairs, would pass ``_ENUM_MAX_PAIRS``."""
    pairs = (keys + _ENUM_CANDIDATE_PAIRS) << n
    if pairs > _ENUM_MAX_PAIRS:
        raise InfeasibleError(
            f"exhaustive likelihood scan of 2^{n} candidates over {keys} distinct keys is "
            f"{pairs} candidate-key pairs of work (2^n x (keys + {_ENUM_CANDIDATE_PAIRS})), "
            f"more than the {_ENUM_MAX_PAIRS} allowed"
        )


def _scan_tile_rows(keys: int, total: int) -> int:
    """Rows per tile of a scan of ``total`` candidates over ``keys`` distinct
    keys: the largest power of two whose float64 rows fit in
    ``_ENUM_TILE_BYTES``, at least ``_ENUM_TILE_MIN_ROWS`` and at most
    ``total``."""
    rows = 1 << max(0, (_ENUM_TILE_BYTES // (8 * keys)).bit_length() - 1)
    return min(total, max(_ENUM_TILE_MIN_ROWS, rows))


_CONTRADICTION = "every candidate has zero posterior weight; observations contradict hard evidence"


def _enumerate_scores(counts: CountsTable, noise: NoiseModel):
    """Scan all 2^n candidate strings and return the argmax index, its
    score, and the runner-up score.

    Candidate k is the bitstring with qubit 0 as the most significant
    character, so ascending k is ascending lexicographic order. The score
    of a candidate is its shot log-likelihood. Per-entry log-likelihoods
    are accumulated over the table's entries in key order, then weighted by
    the entry counts, so the scan does not depend on how the table was
    built or on platform reduction order.

    Each candidate's per-entry log-likelihood is the qubit-ordered sum
    ``((0 + t_0) + t_1) + ... + t_{n-1}``, where ``t_i`` is the entry's term
    at qubit i under the candidate's bit there. Candidates are scored a
    tile of rows at a time, in candidate order (see ``_scan_tile_rows``).
    Within a tile the high qubits are fixed, so their partial sum is one
    row, taken from a stack of prefix sums that is recomputed only from the
    first fixed qubit whose bit differs from the previous tile's. The low qubits are then added in qubit order by
    append-doubling in one buffer: with r rows built, rows r..2r-1 become
    the first r rows plus the bit-1 term, and the first r rows then add the
    bit-0 term in place. Row j then holds the candidate whose tile offset
    is j with its low bits reversed, and every row holds exactly the
    qubit-ordered sum, so the scores do not depend on how the rows were
    built. The tile's rows are weighted by the entry counts, and its
    maximum and runner-up are merged into the scan's in candidate order:
    the best score is the first maximum in candidate order and the runner-up
    the second-largest score overall, whatever the tile size.

    A (qubit, bit) pair is dead when some entry reads that qubit with
    probability zero under that bit. Every term is <= 0 and every count
    >= 1, so a candidate holding a dead bit scores exactly -inf. When the
    stack reaches a fixed qubit whose bit is dead, no tile under that prefix
    is built: the scan moves to the next prefix. A skipped tile could only
    have merged -inf into the runner-up, so the result is bit-identical to
    a scan of every tile. Dead bits on low qubits are scored as usual. A
    qubit with both bits dead leaves every candidate at -inf, and raises
    ``ValidationError`` before any tile is built; otherwise the candidates
    holding no dead bit score finite.

    The working set is a tile of about 1 MiB, the (fixed qubits + 1) x
    entries prefix stack and the n x 2 x entries term table.
    """
    n = _expect(counts, CountsTable).n
    if noise.n != n:
        raise DimensionError(f"noise model covers {noise.n} qubits, counts have {n}")
    _check_scan_work(n, len(counts))
    ybits, weights = counts.as_arrays()
    wts = weights.astype(np.float64)
    with np.errstate(divide="ignore"):
        # log_table[t, y, i] = log Pr(read y | true t) at qubit i
        log_table = np.stack(
            [
                np.stack([np.log1p(-noise.p01), np.log(noise.p01)]),
                np.stack([np.log(noise.p10), np.log1p(-noise.p10)]),
            ]
        )
    # terms[i, t, e] = log Pr(entry e's bit at qubit i | true bit t)
    terms = np.ascontiguousarray(log_table[:, ybits, np.arange(n)].transpose(2, 0, 1))
    # dead[i][t]: some entry reads qubit i with probability zero under true bit t
    dead = (terms == NEG_INF).any(axis=2).tolist()
    if any(d0 and d1 for d0, d1 in dead):
        raise ValidationError(_CONTRADICTION)
    total = 1 << n
    entries = ybits.shape[0]
    tile = _scan_tile_rows(entries, total)
    low = tile.bit_length() - 1
    # qubits 0..fixed-1 are fixed within a tile, qubits fixed..n-1 are its low qubits
    fixed = n - low
    # prefix[d] is the qubit-ordered sum of the current tile's first d
    # fixed qubits, recomputed from the first fixed qubit whose bit changes
    # between tiles; prefix[0] stays zero
    prefix = np.zeros((fixed + 1, entries))
    # append-doubling leaves the candidate at tile offset order[j] in row j
    order = np.zeros(1, dtype=np.intp)
    for _ in range(low):
        order = np.concatenate([2 * order, 2 * order + 1])
    full = np.empty((tile, entries))
    row_scores = np.empty(tile)
    best_k = 0
    best_score = NEG_INF
    second_score = NEG_INF
    # differs from candidate 0 at every fixed qubit, so the first tile builds the whole stack
    previous = total - 1
    k = 0
    while k < total:
        dead_at = fixed
        for i in range(fixed - ((k ^ previous) >> low).bit_length(), fixed):
            bit = (k >> (n - 1 - i)) & 1
            if dead[i][bit]:
                dead_at = i
                break
            np.add(prefix[i], terms[i, bit], out=prefix[i + 1])
        previous = k
        if dead_at < fixed:
            # every candidate under this prefix scores -inf: go to the next prefix
            k = ((k >> (n - 1 - dead_at)) + 1) << (n - 1 - dead_at)
            continue
        full[0] = prefix[fixed]
        for b in range(low):
            r = 1 << b
            np.add(full[:r], terms[fixed + b, 1], out=full[r : 2 * r])
            full[:r] += terms[fixed + b, 0]
        np.matmul(full, wts, out=row_scores)
        top = float(row_scores.max())
        if top > best_score:
            # a tile has at least two rows, as n >= 1
            second_score = max(best_score, float(np.partition(row_scores, -2)[-2]))
            best_score = top
            # the smallest tied offset keeps the lexicographic rule
            best_k = k + int(order[row_scores == top].min())
        else:
            second_score = max(second_score, top)
        k += tile
    return best_k, best_score, second_score


def ml_bruteforce(counts: CountsTable, noise: NoiseModel) -> Estimate:
    """Exhaustive maximum-likelihood estimate over all 2^n bitstrings.

    Evaluates the full shot likelihood of every candidate and takes the
    argmax, breaking ties toward the lexicographically smallest string.
    Exponential in n: a scan of more than ``_ENUM_MAX_PAIRS`` candidate-key
    pairs is refused (see ``_check_scan_work``); use the vote rules for
    anything large. The limit counts all 2^n candidates, although the scan
    skips the tiles whose high qubits hold a bit ruled out by a zero or one
    flip probability (their likelihood is exactly zero), which halves the
    work for each such qubit. Kept enumerative on purpose: this is the
    oracle the vote rules are checked against, so it must not share their
    shortcut.
    """
    best_k, best, second = _enumerate_scores(counts, noise)
    return Estimate(value=format(best_k, f"0{counts.n}b"), method="ml", gap=best - second)


def map_estimate(counts: CountsTable, noise: NoiseModel, prior: Prior) -> Estimate:
    """Maximum a posteriori estimate under a prior.

    A table prior is scored over its support from one tally, in
    |support| x n work (strings absent from the table have prior zero);
    a uniform full table runs the exhaustive scan instead, as
    ``ml_bruteforce`` does. Independent per-qubit priors decide each
    qubit by adding the prior log-odds to that qubit's likelihood ratio;
    hard priors pi in {0, 1} force the bit regardless of observations.
    Wherever ``ml_bruteforce`` answers, a uniform prior of either form
    reproduces its output exactly, ties included. Where it refuses
    contradictory hard evidence, a uniform table prior refuses too, but the
    per-qubit form answers: on a qubit whose observations are impossible
    under both bits the prior decides, and a uniform one picks 0.
    """
    return _map_estimate(counts, lambda: tally(counts), noise, prior)


def _map_estimate(counts: CountsTable, votes, noise: NoiseModel, prior: Prior) -> Estimate:
    """``map_estimate`` taking the table's tally from ``votes()``, if it needs one."""
    _expect(counts, CountsTable)
    if _expect(prior, Prior).n != counts.n:
        raise DimensionError(f"prior covers {prior.n} qubits, counts have {counts.n}")
    if prior.table is not None:
        return _map_table(counts, votes, noise, prior)
    return _map_per_qubit(votes(), noise, prior)


def _map_table(counts: CountsTable, votes, noise: NoiseModel, prior: Prior) -> Estimate:
    if prior.is_uniform:
        # A constant prior cannot move the argmax; reuse the plain scan so
        # the result, ties included, is bit-identical to ml_bruteforce.
        best_k, best, second = _enumerate_scores(counts, noise)
        return Estimate(value=format(best_k, f"0{counts.n}b"), method="map", gap=best - second)
    t = votes()
    lls = np.stack(_loglikelihoods(t.zeros, t.ones, noise.p01, noise.p10))
    bits = prior._support_bits
    scores = prior._support_logs.copy()
    for i in range(counts.n):
        scores += lls[bits[:, i], i]
    # the support is in key order, so the first maximum is the smallest tied key
    best_k = int(np.argmax(scores))
    best = float(scores[best_k])
    if best == NEG_INF:
        raise ValidationError(_CONTRADICTION)
    second = float(np.partition(scores, -2)[-2]) if scores.size > 1 else NEG_INF
    return Estimate(value=_bitstring(bits[best_k]), method="map", gap=best - second)


def _map_per_qubit(t: VoteTally, noise: NoiseModel, prior: Prior) -> Estimate:
    ll0, ll1 = _loglikelihoods(t.zeros, t.ones, noise.p01, noise.p10)
    pi = prior.per_qubit
    # a hard prior pi in {0, 1} makes the posterior of the bit it rules out -inf
    post1 = ll1 + _per_distinct(_log, pi)
    post0 = ll0 + _per_distinct(lambda q: math.log1p(-q) if q < 1.0 else NEG_INF, pi)
    # where the observations are impossible under both bits the prior
    # decides; otherwise a tie resolves to 0, keeping MAP in the
    # lexicographic family
    impossible = (post1 == NEG_INF) & (post0 == NEG_INF)
    ones = np.where(impossible, pi > 0.5, post1 > post0)
    return Estimate(value=_bitstring(ones), method="map", margins=t.margins)


def sliding_window_antipodal(counts: CountsTable) -> AntipodalPair:
    """Reconstruct an antipodal output pair from adjacent-qubit agreement.

    Every window (i, i+1) votes between agreement patterns {00, 11} and
    disagreement patterns {01, 10}; ties count as agreement. Fixing the
    first bit to 0 and propagating the n-1 window relations yields one
    member of the pair, and its complement is the other. Works even when
    neither correct string was ever measured, since only pairwise
    agreement statistics enter.
    """
    n = _expect(counts, CountsTable).n
    if n < 2:
        raise ValidationError(f"antipodal windows need at least 2 qubits, got {n}")
    # rows XORed with themselves shifted one bit left, as one run of bytes: bit i
    # is b_i XOR b_(i+1); the next row's first bit lands past qubit n - 2, uncounted
    flat = counts._packed.reshape(-1)
    windows = flat << 1
    windows[:-1] |= flat[1:] >> 7
    windows ^= flat
    differ = _bit_counts(windows.reshape(counts._packed.shape), counts._weights, n - 1)
    equal = 2 * differ <= counts.shots
    out = np.zeros(n, dtype=np.uint8)
    out[1:] = ~equal
    value = _bitstring(np.bitwise_xor.accumulate(out))
    return AntipodalPair(x=value, x_complement=complement(value))
