"""Tests for the estimator zoo: mode, exhaustive ML, MAP, majority vote,
weighted vote, and the antipodal sliding window."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmvote import (
    AntipodalPair,
    CountsTable,
    InfeasibleError,
    NoiseModel,
    Prior,
    ValidationError,
    VoteTally,
    complement,
    map_estimate,
    merge_votes,
    ml_bruteforce,
    mode_estimate,
    parse_counts,
    qmv,
    simulate_antipodal_shots,
    simulate_shots,
    serialize_counts,
    sliding_window_antipodal,
    tally,
    weighted_vote,
)
from qmvote import estimators as estimators_mod
from qmvote.estimators import (
    _ENUM_CANDIDATE_PAIRS,
    _ENUM_MAX_PAIRS,
    _check_scan_work,
    _enumerate_scores,
    _scan_tile_rows,
)


def random_counts(rng, n, shots, skew=True):
    """Random shot record: either channel output of a random truth or
    uniform random strings."""
    if skew:
        truth = "".join(rng.choice(["0", "1"], size=n))
        p = float(rng.uniform(0.05, 0.45))
        return simulate_shots(truth, NoiseModel.uniform(n, p), shots, int(rng.integers(2**32)))
    words = ["".join(rng.choice(["0", "1"], size=n)) for _ in range(shots)]
    table = {}
    for w in words:
        table[w] = table.get(w, 0) + 1
    return CountsTable(table, n=n)


class TestModeEstimate:
    def test_unique_maximum(self):
        assert mode_estimate(CountsTable({"01": 5, "11": 2})).value == "01"

    def test_tie_breaks_lexicographically(self):
        assert mode_estimate(CountsTable({"00": 3, "11": 3})).value == "00"
        assert mode_estimate(CountsTable({"11": 3, "00": 3})).value == "00"
        # three tied top keys, none inserted first, among lower counts
        table = CountsTable({"110": 4, "011": 1, "101": 4, "100": 4, "111": 2})
        est = mode_estimate(table)
        assert est.value == "100" and est.gap == 0.0
        assert list(table.counts) == ["011", "100", "101", "110", "111"]

    def test_gap(self):
        est = mode_estimate(CountsTable({"01": 5, "11": 2}))
        assert est.gap == pytest.approx(3 / 7)

    def test_dominant_string_under_light_noise(self):
        counts = simulate_shots("00000", NoiseModel.uniform(5, 0.05), 10_000, 1234)
        est = mode_estimate(counts)
        assert est.value == "00000"
        # direct inspection: the reported string really is the largest bucket
        assert counts["00000"] == max(c for _, c in counts.items())


class TestQmv:
    def test_per_qubit_majority(self):
        est = qmv(VoteTally(zeros=np.array([7, 2]), ones=np.array([3, 8])))
        assert est.value == "01"
        np.testing.assert_allclose(est.margins, [0.4, 0.6])

    def test_tie_resolves_to_one(self):
        assert qmv(VoteTally(zeros=np.array([5]), ones=np.array([5]))).value == "1"

    def test_recovers_alternating_truth_under_moderate_noise(self):
        # per-qubit error at S=1000, p=0.15 is below 1e-200, so every one
        # of the 100 seeds must recover the truth exactly
        truth = ("10" * 13)[:25]
        nm = NoiseModel.uniform(25, 0.15)
        for seed in range(100):
            est = qmv(tally(simulate_shots(truth, nm, 1000, seed)))
            assert est.value == truth


class TestMlBruteforce:
    def test_single_qubit_majority(self):
        counts = CountsTable({"0": 7, "1": 3})
        est = ml_bruteforce(counts, NoiseModel.uniform(1, 0.2))
        assert est.value == "0"

    def test_unanimous_shots(self):
        for shots in (1, 5):
            counts = CountsTable({"11": shots})
            assert ml_bruteforce(counts, NoiseModel.uniform(2, 0.1)).value == "11"

    def test_uninformative_channel_gives_all_zeros(self):
        counts = CountsTable({"111": 2, "101": 1})
        est = ml_bruteforce(counts, NoiseModel.uniform(3, 0.5))
        assert est.value == "000"
        assert est.gap == 0.0

    def test_wide_scan_over_work_limit(self):
        counts = CountsTable({"0" * 40: 1})
        with pytest.raises(InfeasibleError) as info:
            ml_bruteforce(counts, NoiseModel.uniform(40, 0.1))
        assert f"is {(1 + _ENUM_CANDIDATE_PAIRS) << 40} candidate-key pairs" in str(info.value)
        assert f"more than the {_ENUM_MAX_PAIRS} allowed" in str(info.value)

    def test_impossible_evidence(self):
        counts = CountsTable({"0": 1, "1": 1})
        with pytest.raises(ValidationError):
            ml_bruteforce(counts, NoiseModel.uniform(1, 0.0, 0.0))

    def test_scan_over_work_limit_refused_before_allocating(self):
        nm = NoiseModel.uniform(24, 0.3)
        counts = simulate_shots("01" * 12, nm, 20_000, 16)
        pairs = (len(counts) + _ENUM_CANDIDATE_PAIRS) << 24
        assert pairs > _ENUM_MAX_PAIRS
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleError) as info:
                ml_bruteforce(counts, nm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"over {len(counts)} distinct keys is {pairs} candidate-key pairs" in str(info.value)
        assert f"more than the {_ENUM_MAX_PAIRS} allowed" in str(info.value)
        # one 64-row tile of this scan alone is 64 x keys float64 values, about 10 MB
        assert peak < 1 << 20

    def test_work_limit_boundary(self, monkeypatch):
        """The scan runs at exactly the limit's pairs and is refused one
        pair above it."""
        nm = NoiseModel.uniform(6, 0.2)
        counts = simulate_shots("011010", nm, 40, 3)
        pairs = (len(counts) + _ENUM_CANDIDATE_PAIRS) << 6
        monkeypatch.setattr(estimators_mod, "_ENUM_MAX_PAIRS", pairs)
        assert ml_bruteforce(counts, nm).value == qmv(tally(counts)).value
        monkeypatch.setattr(estimators_mod, "_ENUM_MAX_PAIRS", pairs - 1)
        with pytest.raises(InfeasibleError, match=f"is {pairs} candidate-key pairs.*{pairs - 1} allowed"):
            ml_bruteforce(counts, nm)

    def test_limit_admits_every_scan_of_the_qubit_and_size_caps(self):
        """The limit keeps every scan that a 24-qubit cap together with a
        4 GiB size cap on 1.5 x min(2^16, 2^n) x keys float64 values
        admitted, and its own boundary at n = 24 lies where it is set."""
        for n in range(1, 25):
            block = min(1 << 16, 1 << n)
            _check_scan_work(n, min(1 << n, (4 << 30) // (12 * block)))
        keys = (_ENUM_MAX_PAIRS >> 24) - _ENUM_CANDIDATE_PAIRS
        _check_scan_work(24, keys)
        with pytest.raises(InfeasibleError):
            _check_scan_work(24, keys + 1)

    def test_scan_past_the_old_size_cap(self):
        """7691 distinct keys at n = 16: past the old 4 GiB size cap (5461
        keys there), and about 2^16 x 7691 pairs, a second or so. The vote
        is the maximum-likelihood output under symmetric noise."""
        nm = NoiseModel.uniform(16, 0.3)
        counts = simulate_shots("10" * 8, nm, 12_000, 1)
        assert len(counts) == 7691
        tracemalloc.start()
        try:
            est = ml_bruteforce(counts, nm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.value == qmv(tally(counts)).value
        assert peak < 64 << 20

    def test_scan_works_in_tiles(self):
        """Building all 2^16 rows of this scan at once takes about 1.3 GB."""
        nm = NoiseModel.uniform(16, 0.3)
        counts = simulate_shots("01" * 8, nm, 2000, 1)
        assert len(counts) > 1700
        tracemalloc.start()
        try:
            ml_bruteforce(counts, nm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_matches_direct_scoring_oracle(self):
        """Exhaustive check against a from-scratch per-candidate scorer."""
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            counts = random_counts(rng, n, int(rng.integers(1, 20)), skew=bool(rng.integers(2)))
            p01 = rng.uniform(0.05, 0.45, n)
            p10 = rng.uniform(0.05, 0.45, n)
            nm = NoiseModel(p01=p01, p10=p10)

            def score(x):
                total = 0.0
                for y, c in counts.items():
                    for i, (xb, yb) in enumerate(zip(x, y)):
                        if xb == "0":
                            pr = p01[i] if yb == "1" else 1 - p01[i]
                        else:
                            pr = 1 - p10[i] if yb == "1" else p10[i]
                        total += c * math.log(pr)
                return total

            candidates = [format(k, f"0{n}b") for k in range(2**n)]
            scores = sorted(((score(x), x) for x in candidates), reverse=True)
            top_score, top = scores[0]
            got = ml_bruteforce(counts, nm).value
            assert score(got) == pytest.approx(top_score, abs=1e-9)
            if len(scores) == 1 or top_score - scores[1][0] > 1e-6:
                assert got == top


# candidates per block of the gather reference
_REFERENCE_BLOCK = 1 << 16


def reference_enumerate_scores(counts, noise, prior_logs):
    """Frozen copy of the original gather scan: for every qubit, gather each
    candidate's per-entry term from the log table and add it to the
    candidate-by-entry matrix, one block of ``_REFERENCE_BLOCK`` candidates
    at a time, weighted in one matrix-vector product per block."""
    n = counts.n
    ybits, weights = counts.as_arrays()
    wts = weights.astype(np.float64)
    with np.errstate(divide="ignore"):
        log_table = np.stack(
            [
                np.stack([np.log1p(-noise.p01), np.log(noise.p01)]),
                np.stack([np.log(noise.p10), np.log1p(-noise.p10)]),
            ]
        )
    best_k = 0
    best_score = -math.inf
    second_score = -math.inf
    total = 1 << n
    for lo in range(0, total, _REFERENCE_BLOCK):
        hi = min(lo + _REFERENCE_BLOCK, total)
        ks = np.arange(lo, hi, dtype=np.int64)
        shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
        xbits = ((ks[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        entry_ll = np.zeros((hi - lo, ybits.shape[0]))
        for i in range(n):
            entry_ll += log_table[xbits[:, i][:, None], ybits[None, :, i], i]
        scores = entry_ll @ wts
        if prior_logs is not None:
            scores += prior_logs[lo:hi]
        top_score = float(scores.max())
        if top_score == -math.inf:
            continue
        first_top = int(np.flatnonzero(scores == top_score)[0])
        runner = float(np.partition(scores, -2)[-2]) if scores.size > 1 else -math.inf
        if top_score > best_score:
            second_score = max(best_score, runner)
            best_score = top_score
            best_k = lo + first_top
        else:
            second_score = max(second_score, top_score)
    if best_score == -math.inf:
        raise ValidationError("observations contradict hard evidence")
    return best_k, best_score, second_score


def outcome(call, *args):
    """The call's result, or the name of the error it raised."""
    try:
        return call(*args)
    except ValidationError:
        return "ValidationError"


def hard_evidence_instances():
    """Asymmetric noise where about 40% of the qubits never flip one way."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        p01 = rng.uniform(0.05, 0.45, n)
        p10 = rng.uniform(0.05, 0.45, n)
        hard = rng.random(n) < 0.4
        p01[hard] = 0.0
        p10[hard & (rng.random(n) < 0.5)] = 0.0
        nm = NoiseModel(p01=p01, p10=p10)
        truth = "".join(rng.choice(["0", "1"], size=n))
        counts = simulate_shots(truth, nm, int(rng.integers(1, 40)), int(rng.integers(2**32)))
        yield counts, nm


def uninformative_instances():
    """Uniform random strings read through a p = 0.5 channel, under which
    every candidate has the same likelihood."""
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        counts = random_counts(rng, n, int(rng.integers(1, 40)), skew=False)
        yield counts, NoiseModel.uniform(n, 0.5)


def random_table_prior(rng, n):
    """A table prior on about half of the 2^n strings, some others listed
    with probability zero, and the reference scan's log prior for it."""
    size = 1 << n
    keep = rng.random(size) < 0.5
    keep[rng.integers(size)] = True
    probs = np.where(keep, rng.uniform(0.1, 1.0, size), 0.0)
    probs /= probs.sum()
    listed = keep | (rng.random(size) < 0.2)
    prior = Prior(table={format(k, f"0{n}b"): float(probs[k]) for k in np.flatnonzero(listed)})
    prior_logs = np.full(size, -math.inf)
    for k in np.flatnonzero(keep):
        prior_logs[k] = math.log(probs[k])
    return prior, prior_logs


def ruled_out(counts, noise):
    """Whether each of the 2^n candidates, in candidate order, reads some
    entry's bit with probability zero, so that its score is -inf."""
    n = counts.n
    x = (np.arange(1 << n)[:, None, None] >> np.arange(n - 1, -1, -1)) & 1
    y = counts.as_arrays()[0][None]
    read0 = np.where(y == 1, noise.p01, 1 - noise.p01)
    read1 = np.where(y == 0, noise.p10, 1 - noise.p10)
    p_read = np.where(x == 0, read0, read1)
    return (p_read == 0.0).any(axis=(1, 2))


class TestScanMatchesGatherReference:
    """The exhaustive scan must return exactly the tuple of the original
    gather scan: same argmax, and bit-identical best and runner-up scores.

    Table-prior MAP, scored over the prior's support from the tally, must
    pick the gather scan's argmax and report its gap to within a relative
    1e-9. The two sum the same terms in different orders, so each score
    carries rounding of the order of its own magnitude's last bits; the
    tolerance is relative to the larger of the gap and the best score."""

    @staticmethod
    def assert_identical(counts, noise):
        got = outcome(_enumerate_scores, counts, noise)
        want = outcome(reference_enumerate_scores, counts, noise, None)
        assert got == want
        if isinstance(want, tuple):
            # == treats 0.0 and -0.0 alike; the reported gap must not
            assert math.copysign(1.0, got[1] - got[2]) == math.copysign(1.0, want[1] - want[2])
        return got

    def test_asymmetric_noise(self):
        rng = np.random.default_rng(11)
        for _ in range(84):
            n = int(rng.integers(1, 15))
            counts = random_counts(rng, n, int(rng.integers(1, 40)), skew=bool(rng.integers(2)))
            nm = NoiseModel(p01=rng.uniform(0.01, 0.49, n), p10=rng.uniform(0.01, 0.49, n))
            assert isinstance(self.assert_identical(counts, nm), tuple)

    def test_hard_evidence_qubits(self):
        for counts, nm in hard_evidence_instances():
            assert isinstance(self.assert_identical(counts, nm), tuple)

    def test_uninformative_channel_ties_everywhere(self):
        for counts, nm in uninformative_instances():
            k, best, second = self.assert_identical(counts, nm)
            assert k == 0
            assert best - second == 0.0

    def test_several_blocks(self):
        """n = 17 crosses what was a block boundary at 2^16 candidates, and
        still is one of the reference's, where qubit 0's prefix changes."""
        n = 17
        assert (1 << n) > 1 << 16
        rng = np.random.default_rng(15)
        truth = "".join(rng.choice(["0", "1"], size=n))
        nm = NoiseModel(p01=rng.uniform(0.01, 0.05, n), p10=rng.uniform(0.01, 0.05, n))
        counts = simulate_shots(truth, nm, 6, 15)
        k, _, _ = self.assert_identical(counts, nm)
        assert k == int(truth, 2)

    def test_tiles_smaller_than_the_block(self):
        """Tables wide enough that a scan is built in several tiles, at
        every tile size from the smallest up to all 2^n rows: K values
        on both sides of each step of the tile size, and K of 1-2k."""
        rng = np.random.default_rng(16)
        sizes = set()
        steps = (16, 17, 32, 33, 64, 65, 128, 129, 256, 257, 512, 513, 1024, 1025, 1500)
        for n, keys in [(13, k) for k in steps] + [(12, 2000)]:
            picked = rng.choice(1 << n, size=keys, replace=False)
            counts = CountsTable(
                {format(int(k), f"0{n}b"): int(c) for k, c in zip(picked, rng.integers(1, 40, keys))}
            )
            nm = NoiseModel(p01=rng.uniform(0.01, 0.49, n), p10=rng.uniform(0.01, 0.49, n))
            sizes.add(_scan_tile_rows(len(counts), 1 << n))
            assert isinstance(self.assert_identical(counts, nm), tuple)
        assert sizes == {1 << t for t in range(6, 14)}

    def test_tiles_with_hard_evidence_qubits(self):
        rng = np.random.default_rng(17)
        n = 12
        for _ in range(3):
            p01 = rng.uniform(0.2, 0.45, n)
            p10 = rng.uniform(0.2, 0.45, n)
            p01[rng.random(n) < 0.3] = 0.0
            nm = NoiseModel(p01=p01, p10=p10)
            truth = "".join(rng.choice(["0", "1"], size=n))
            counts = simulate_shots(truth, nm, 4000, int(rng.integers(2**32)))
            assert _scan_tile_rows(len(counts), 1 << n) < 1 << n
            assert isinstance(self.assert_identical(counts, nm), tuple)

    def test_answer_does_not_depend_on_tile_size(self, monkeypatch):
        """The same tables scanned in 64-row tiles and in one tile of 2^n
        rows: p = 0.5 ties everywhere, hard evidence that leaves some tiles
        all -inf, and random asymmetric noise."""
        rng = np.random.default_rng(21)
        cases = list(uninformative_instances()) + list(hard_evidence_instances())
        for _ in range(20):
            n = int(rng.integers(7, 13))
            counts = random_counts(rng, n, int(rng.integers(1, 200)), skew=bool(rng.integers(2)))
            nm = NoiseModel(p01=rng.uniform(0.01, 0.49, n), p10=rng.uniform(0.01, 0.49, n))
            cases.append((counts, nm))
        all_inf_tiles = 0
        for counts, nm in cases:
            n = counts.n
            results = []
            for tile_bytes, rows in ((8, min(64, 1 << n)), (8 << 30, 1 << n)):
                monkeypatch.setattr(estimators_mod, "_ENUM_TILE_BYTES", tile_bytes)
                assert _scan_tile_rows(len(counts), 1 << n) == rows
                results.append(self.assert_identical(counts, nm))
            assert results[0] == results[1]
            if nm.p01.max() == 0.5:
                assert results[0][0] == 0 and math.copysign(1.0, results[0][1] - results[0][2]) == 1.0
            if n > 6 and isinstance(results[0], tuple):
                all_inf_tiles += int(ruled_out(counts, nm).reshape(-1, 64).all(axis=1).any())
        assert all_inf_tiles > 0

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        """Blocks of 2^10 candidates in the reference, so that n = 12 spans
        four of its blocks; with more than 1024 distinct keys the scan is
        sixty-four 64-row tiles, and the fixed qubits' prefix sums change at
        every tile."""
        monkeypatch.setitem(globals(), "_REFERENCE_BLOCK", 1 << 10)
        return 12

    def assert_identical_in_small_tiles(self, counts, noise):
        assert len(counts) > 1 << 10
        assert _scan_tile_rows(len(counts), 1 << 12) == 64
        return self.assert_identical(counts, noise)

    def test_small_blocks_hard_evidence_on_fixed_qubits(self, small_blocks):
        """Qubits 0-5 are fixed in a tile. Candidates with the bit that hard
        evidence rules out at qubit 1, 2 or 4 carry -inf entries from that
        prefix sum down through every later qubit."""
        n = small_blocks
        rng = np.random.default_rng(18)
        truth = "010010" + "".join(rng.choice(["0", "1"], size=n - 6))
        p01 = rng.uniform(0.3, 0.45, n)
        p10 = rng.uniform(0.3, 0.45, n)
        # the shots read both bits at qubits 1, 2 and 4, but a true 0 is
        # never read as 1 at qubits 1 and 4, nor a true 1 as 0 at qubit 2
        p01[[1, 4]] = 0.0
        p10[2] = 0.0
        nm = NoiseModel(p01=p01, p10=p10)
        counts = simulate_shots(truth, nm, 6000, 18)
        k, best, second = self.assert_identical_in_small_tiles(counts, nm)
        assert k == int(truth, 2)
        assert best > second > -math.inf

    def test_small_blocks_first_maximum_across_permuted_rows(self, small_blocks):
        """Under a p = 0.5 channel tied candidates sit in permuted rows of a
        tile; the scan must still return the smallest of them."""
        n = small_blocks
        rng = np.random.default_rng(19)
        counts = random_counts(rng, n, 3000, skew=False)
        k, best, second = self.assert_identical_in_small_tiles(counts, NoiseModel.uniform(n, 0.5))
        assert k == 0 and best - second == 0.0
        # only the three lowest qubits are uninformative: the winner ties
        # with the seven candidates that differ from it there
        p = np.append(rng.uniform(0.3, 0.45, n - 3), [0.5] * 3)
        nm = NoiseModel(p01=p, p10=p)
        counts = simulate_shots("101100111000", nm, 6000, 19)
        k, best, second = self.assert_identical_in_small_tiles(counts, nm)
        assert k & 0b111 == 0 and best - second == 0.0

    def test_small_blocks_gap_sign(self, small_blocks):
        """The gap's sign is checked by copysign in every comparison, and
        here on a gap whose sign the -0.0 terms of noiseless qubits could
        flip: with p01 = 0 and p10 = 1 both bits explain a read 0 with
        probability 1, so 16 candidates score zero."""
        n = small_blocks
        rng = np.random.default_rng(20)
        p10 = np.zeros(n)
        p10[[0, 3, 8, 10]] = 1.0
        nm = NoiseModel(p01=np.zeros(n), p10=p10)
        k, best, second = self.assert_identical(CountsTable({"0" * n: 3}), nm)
        assert (k, best, second) == (0, 0.0, 0.0)
        assert math.copysign(1.0, best - second) == 1.0
        p = rng.uniform(0.3, 0.45, n)
        nm = NoiseModel(p01=p, p10=p[::-1])
        counts = simulate_shots("100101100111", nm, 6000, 20)
        k, best, second = self.assert_identical_in_small_tiles(counts, nm)
        assert math.copysign(1.0, best - second) == 1.0

    def test_dead_bit_on_first_middle_and_last_fixed_qubit(self, monkeypatch):
        """In 64-row tiles of n = 12, qubits 0-5 are fixed. A zero or one
        flip probability there makes one bit impossible for the shots, which
        read both bits at every qubit, so the scan skips every tile under
        that bit; the tuple must still be the gather reference's."""
        monkeypatch.setattr(estimators_mod, "_ENUM_TILE_BYTES", 8)
        n = 12
        rng = np.random.default_rng(22)
        for qubit in (0, 3, 5):
            for form, value, dead_bit in (("p01", 0.0, 0), ("p10", 0.0, 1), ("p01", 1.0, 0), ("p10", 1.0, 1)):
                counts = random_counts(rng, n, 60, skew=False)
                bits = counts.as_arrays()[0]
                assert bits.min(axis=0).max() == 0 and bits.max(axis=0).min() == 1
                rates = {"p01": rng.uniform(0.05, 0.45, n), "p10": rng.uniform(0.05, 0.45, n)}
                rates[form][qubit] = value
                nm = NoiseModel(**rates)
                assert _scan_tile_rows(len(counts), 1 << n) == 64
                # axis 1 is the candidate's bit at the hard qubit
                out = ruled_out(counts, nm).reshape(1 << qubit, 2, -1)
                assert out[:, dead_bit].all() and not out[:, 1 - dead_bit].any()
                assert isinstance(self.assert_identical(counts, nm), tuple)

    def test_tiles_under_a_dead_prefix_are_not_scored(self, monkeypatch):
        """Counts the tiles weighted, one matrix-vector product each, in a
        scan of sixteen 64-row tiles: half of them when qubit 0 rules out a
        bit, all of them with no hard qubit or with a hard low qubit, and
        none when a qubit rules out both bits."""
        monkeypatch.setattr(estimators_mod, "_ENUM_TILE_BYTES", 8)
        tiles = []
        matmul = np.matmul

        def counting_matmul(a, *args, **kwargs):
            tiles.append(a.shape[0])
            return matmul(a, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting_matmul)
        n = 10
        rng = np.random.default_rng(23)
        counts = random_counts(rng, n, 60, skew=False)
        bits = counts.as_arrays()[0]
        assert bits.min(axis=0).max() == 0 and bits.max(axis=0).min() == 1

        def scored(p01, p10):
            tiles.clear()
            nm = NoiseModel(p01=p01, p10=p10)
            got = self.assert_identical(counts, nm)
            assert all(rows == 64 for rows in tiles)
            return got, len(tiles)

        p = rng.uniform(0.05, 0.45, n)
        got, count = scored(p, p)
        assert isinstance(got, tuple) and count == 16
        hard = p.copy()
        hard[0] = 0.0
        assert scored(hard, p)[1] == 8
        assert scored(p, hard)[1] == 8
        hard_low = p.copy()
        hard_low[n - 1] = 0.0
        assert scored(hard_low, p)[1] == 16
        assert scored(hard_low, hard_low) == ("ValidationError", 0)
        assert scored(hard, hard) == ("ValidationError", 0)

    def test_impossible_evidence_raises_in_both(self):
        cases = [
            (CountsTable({"0": 1, "1": 1}), NoiseModel.uniform(1, 0.0)),
            (CountsTable({"01": 2, "11": 1}), NoiseModel(p01=[0.0, 0.2], p10=[0.0, 0.2])),
        ]
        for counts, nm in cases:
            with pytest.raises(ValidationError):
                _enumerate_scores(counts, nm)
            with pytest.raises(ValidationError):
                reference_enumerate_scores(counts, nm, None)
        # the only string the channel allows has prior zero
        counts, nm = CountsTable({"10": 3}), NoiseModel.uniform(2, 0.0)
        third = 1 / 3
        prior = Prior(table={"00": third, "01": third, "10": 0.0, "11": third})
        prior_logs = np.array([math.log(third)] * 4)
        prior_logs[0b10] = -math.inf
        with pytest.raises(ValidationError, match="zero posterior weight"):
            map_estimate(counts, nm, prior)
        with pytest.raises(ValidationError):
            reference_enumerate_scores(counts, nm, prior_logs)

    @staticmethod
    def assert_map_matches(counts, noise, prior, prior_logs):
        got = outcome(map_estimate, counts, noise, prior)
        want = outcome(reference_enumerate_scores, counts, noise, prior_logs)
        if want == "ValidationError":
            assert got == want
            return
        k, best, second = want
        assert got.value == format(k, f"0{counts.n}b")
        gap = best - second
        assert got.gap == gap or abs(got.gap - gap) <= 1e-9 * max(abs(gap), abs(best))

    def test_table_prior_with_holes(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            counts = random_counts(rng, n, int(rng.integers(1, 40)), skew=bool(rng.integers(2)))
            nm = NoiseModel(p01=rng.uniform(0.05, 0.45, n), p10=rng.uniform(0.05, 0.45, n))
            self.assert_map_matches(counts, nm, *random_table_prior(rng, n))

    def test_table_map_hard_evidence_qubits(self):
        rng = np.random.default_rng(112)
        for counts, nm in hard_evidence_instances():
            self.assert_map_matches(counts, nm, *random_table_prior(rng, counts.n))

    def test_table_map_uninformative_channel_partial_tables(self):
        rng = np.random.default_rng(113)
        for counts, nm in uninformative_instances():
            self.assert_map_matches(counts, nm, *random_table_prior(rng, counts.n))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_table_map_same_argmax_wherever_the_reference_is_decided(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        key = st.integers(0, (1 << n) - 1).map(lambda k: format(k, f"0{n}b"))
        shots = data.draw(st.dictionaries(key, st.integers(1, 30), min_size=1, max_size=16))
        weights = data.draw(
            st.dictionaries(key, st.floats(0.0, 1.0), min_size=1, max_size=1 << n)
            .filter(lambda w: sum(w.values()) > 0.0)
        )
        rate = st.sampled_from([0.0, 0.5]) | st.floats(0.01, 0.49)
        p01 = data.draw(st.lists(rate, min_size=n, max_size=n))
        p10 = data.draw(st.lists(rate, min_size=n, max_size=n))
        counts, nm = CountsTable(shots, n=n), NoiseModel(p01=p01, p10=p10)
        total = sum(weights.values())
        table = {k: w / total for k, w in weights.items()}
        prior_logs = np.full(1 << n, -math.inf)
        for k, prob in table.items():
            if prob > 0.0:
                prior_logs[int(k, 2)] = math.log(prob)
        got = outcome(map_estimate, counts, nm, Prior(table=table))
        want = outcome(reference_enumerate_scores, counts, nm, prior_logs)
        if want == "ValidationError":
            assert got == want
        elif want[1] - want[2] > 1e-9 * abs(want[1]):
            assert got.value == format(want[0], f"0{n}b")


def reference_log_pow(p, k):
    """Frozen scalar k * log(p), with 0 * log(0) = 0 and log(0) = -inf."""
    if k == 0:
        return 0.0
    if p <= 0.0:
        return -math.inf
    return k * math.log(p)


def reference_loglikelihoods(zeros, ones, p01, p10):
    """Frozen scalar (ll0, ll1) of one qubit's zero/one counts."""
    ll0 = reference_log_pow(p01, ones) + reference_log_pow(1.0 - p01, zeros)
    ll1 = reference_log_pow(p10, zeros) + reference_log_pow(1.0 - p10, ones)
    return ll0, ll1


def reference_evidence(t, noise):
    columns = (t.zeros.tolist(), t.ones.tolist(), noise.p01.tolist(), noise.p10.tolist())
    return [reference_loglikelihoods(*qubit) for qubit in zip(*columns)]


# flip probabilities and prior entries: hard 0 and 1 mixed with interior values
unit_interval = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def evidence_cases(draw):
    """A counts table, some of whose qubits read one value in every shot (so
    per-qubit counts of 0 and S occur), and noise with hard 0/1 entries."""
    n = draw(st.integers(1, 10), label="n")
    key = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(key, min_size=1, max_size=20), label="rows")
    pinned, pinned_to = draw(key, label="pinned"), draw(key, label="pinned_to")
    table = {}
    for row in rows:
        word = format((row & ~pinned) | (pinned_to & pinned), f"0{n}b")
        table[word] = table.get(word, 0) + 1
    rates = st.lists(unit_interval, min_size=n, max_size=n)
    noise = NoiseModel(p01=draw(rates, label="p01"), p10=draw(rates, label="p10"))
    return CountsTable(table, n=n), noise


def float_bits(values):
    return [float.hex(v) for v in values]


class TestEvidenceArraysMatchScalarReference:
    """Every per-qubit rule reads one pair of evidence arrays (ll0, ll1).
    They and every decision built on them must equal the scalar per-qubit
    computation, bit for bit, hard 0/1 evidence and counts of 0 and S
    included."""

    @settings(max_examples=300, deadline=None)
    @given(evidence_cases())
    def test_evidence_and_weighted_vote(self, case):
        counts, nm = case
        t = tally(counts)
        ll0, ll1 = estimators_mod._loglikelihoods(t.zeros, t.ones, nm.p01, nm.p10)
        want = reference_evidence(t, nm)
        assert not np.isnan(ll0).any() and not np.isnan(ll1).any()
        assert float_bits(ll0.tolist()) == float_bits([w[0] for w in want])
        assert float_bits(ll1.tolist()) == float_bits([w[1] for w in want])
        assert weighted_vote(t, nm).value == "".join("0" if a > b else "1" for a, b in want)

    @settings(max_examples=300, deadline=None)
    @given(evidence_cases(), st.data())
    def test_per_qubit_map(self, case, data):
        counts, nm = case
        pis = data.draw(st.lists(unit_interval, min_size=counts.n, max_size=counts.n), label="pi")
        want = []
        for (ll0, ll1), pi in zip(reference_evidence(tally(counts), nm), pis):
            if pi in (0.0, 1.0):
                want.append(str(int(pi)))
                continue
            post1, post0 = ll1 + math.log(pi), ll0 + math.log1p(-pi)
            if post1 == post0 == -math.inf:
                want.append("1" if pi > 0.5 else "0")
            else:
                want.append("1" if post1 > post0 else "0")
        assert map_estimate(counts, nm, Prior(per_qubit=pis)).value == "".join(want)

    @settings(max_examples=300, deadline=None)
    @given(evidence_cases(), st.data())
    def test_merge_votes(self, case, data):
        counts, nm = case
        n = counts.n
        sub_nm = NoiseModel(
            p01=data.draw(st.lists(unit_interval, min_size=n, max_size=n), label="sub p01"),
            p10=data.draw(st.lists(unit_interval, min_size=n, max_size=n), label="sub p10"),
        )
        sub_shots = data.draw(st.integers(1, 20), label="sub shots")
        ones = st.sampled_from([0, sub_shots]) | st.integers(0, sub_shots)
        qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="qubits")
        sub_ones = data.draw(st.lists(ones, min_size=len(qubits), max_size=len(qubits)))
        subsets = None
        if qubits:
            subsets = VoteTally(zeros=[sub_shots - one for one in sub_ones], ones=sub_ones)
        by_qubit = dict(zip(qubits, sub_ones))
        t = tally(counts)
        want = []
        for i, (ll0, ll1) in enumerate(reference_evidence(t, nm)):
            if i in by_qubit:
                one = by_qubit[i]
                c0, c1 = reference_loglikelihoods(
                    sub_shots - one, one, float(sub_nm.p01[i]), float(sub_nm.p10[i])
                )
                ll0, ll1 = ll0 + c0, ll1 + c1
            want.append("0" if ll0 > ll1 else "1")
        assert merge_votes(t, nm, qubits, subsets, sub_nm) == "".join(want)

    @settings(max_examples=300, deadline=None)
    @given(evidence_cases(), st.data())
    def test_table_map_value_and_gap(self, case, data):
        counts, nm = case
        n = counts.n
        key = st.integers(0, (1 << n) - 1).map(lambda k: format(k, f"0{n}b"))
        weights = data.draw(
            st.dictionaries(key, st.floats(0.0, 1.0), min_size=1, max_size=1 << n)
            .filter(lambda w: sum(w.values()) > 0.0),
            label="weights",
        )
        total = sum(weights.values())
        prior = Prior(table={k: w / total for k, w in weights.items()})
        assume(not prior.is_uniform)
        evidence = reference_evidence(tally(counts), nm)
        scores = []
        for k in sorted(k for k, prob in prior.table.items() if prob > 0.0):
            score = math.log(prior.table[k])
            for i, bit in enumerate(k):
                score += evidence[i][int(bit)]
            scores.append((score, k))
        best = max(s for s, _ in scores)
        if best == -math.inf:
            assert outcome(map_estimate, counts, nm, prior) == "ValidationError"
            return
        value = next(k for s, k in scores if s == best)
        second = sorted(s for s, _ in scores)[-2] if len(scores) > 1 else -math.inf
        got = map_estimate(counts, nm, prior)
        assert got.value == value
        assert float.hex(got.gap) == float.hex(best - second)

    def test_flat_unique_inverse(self, monkeypatch):
        """numpy before 2.0 gives np.unique of a 2-D array a flat inverse;
        the evidence arrays must not depend on that shape."""
        t = VoteTally(zeros=np.array([0, 3, 7, 10]), ones=np.array([10, 7, 3, 0]))
        nm = NoiseModel(p01=[0.1, 0.0, 0.3, 1.0], p10=[0.2, 0.5, 0.0, 0.1])
        prior = Prior(per_qubit=[0.3, 0.0, 0.5, 0.9])
        subsets = VoteTally(zeros=[4, 9], ones=[6, 1])

        def decisions():
            counts = CountsTable({"1000": 3, "0110": 7}, n=4)
            return (
                weighted_vote(t, nm).value,
                map_estimate(counts, nm, prior).value,
                merge_votes(t, nm, [1, 2], subsets, nm),
            )

        want = decisions()
        real_unique = np.unique

        def flat_unique(values, *args, **kwargs):
            out = real_unique(values, *args, **kwargs)
            if kwargs.get("return_inverse"):
                out = (out[0], out[1].ravel(), *out[2:])
            return out

        monkeypatch.setattr(np, "unique", flat_unique)
        assert decisions() == want


class TestWeightedVote:
    def test_hard_evidence_forces_zero(self):
        # reading 1 is a coin flip for true 0, but a true 1 always reads 1,
        # so any observed 0 proves the truth was 0
        nm = NoiseModel.uniform(1, 0.5, 0.0)
        t = VoteTally(zeros=np.array([1]), ones=np.array([9]))
        assert weighted_vote(t, nm).value == "0"

    def test_hard_evidence_all_ones_reads_one(self):
        nm = NoiseModel.uniform(1, 0.5, 0.0)
        t = VoteTally(zeros=np.array([0]), ones=np.array([10]))
        assert weighted_vote(t, nm).value == "1"

    def test_symmetric_reduction_is_majority(self):
        nm = NoiseModel.uniform(1, 0.2)
        t = VoteTally(zeros=np.array([3]), ones=np.array([7]))
        assert weighted_vote(t, nm).value == "1"

    def test_asymmetric_sign_statistic(self):
        # 6 zeros, 4 ones, p01=0.4, p10=0.05:
        # 6 ln(0.05/0.6) - 4 ln(0.4/0.95) = -11.45 < 0, so vote 0
        statistic = 6 * math.log(0.05 / 0.6) - 4 * math.log(0.4 / 0.95)
        assert statistic < 0
        nm = NoiseModel.uniform(1, 0.4, 0.05)
        t = VoteTally(zeros=np.array([6]), ones=np.array([4]))
        est = weighted_vote(t, nm)
        assert est.value == "0"
        counts = CountsTable({"0": 6, "1": 4})
        assert ml_bruteforce(counts, nm).value == "0"

    def test_tie_resolves_to_one(self):
        nm = NoiseModel.uniform(1, 0.2)
        t = VoteTally(zeros=np.array([5]), ones=np.array([5]))
        assert weighted_vote(t, nm).value == "1"

    def test_matches_qmv_for_symmetric_noise(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            shots = int(rng.integers(1, 40))
            ones = rng.integers(0, shots + 1, n)
            t = VoteTally(zeros=shots - ones, ones=ones)
            p = float(rng.uniform(0.01, 0.49))
            assert weighted_vote(t, NoiseModel.uniform(n, p)).value == qmv(t).value


class TestMajorityVoteOptimality:
    def test_qmv_equals_exhaustive_ml_on_untied_qubits(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            shots = int(rng.integers(1, 31))
            counts = random_counts(rng, n, shots, skew=bool(rng.integers(2)))
            p = float(rng.choice([0.05, 0.2, 0.35, 0.45]))
            nm = NoiseModel.uniform(n, p)
            t = tally(counts)
            vote = qmv(t).value
            ml = ml_bruteforce(counts, nm).value
            for i in range(n):
                if t.zeros[i] != t.ones[i]:
                    assert vote[i] == ml[i]
                    checked += 1
        assert checked > 500


class TestAsymmetricEquivalence:
    def test_weighted_vote_equals_exhaustive_ml(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            shots = int(rng.integers(1, 31))
            counts = random_counts(rng, n, shots, skew=bool(rng.integers(2)))
            nm = NoiseModel(
                p01=rng.uniform(0.02, 0.48, n), p10=rng.uniform(0.02, 0.48, n)
            )
            assert weighted_vote(tally(counts), nm).value == ml_bruteforce(counts, nm).value


class TestMapEstimate:
    def test_uniform_table_prior_coincides_with_ml(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            counts = random_counts(rng, n, int(rng.integers(1, 25)), skew=bool(rng.integers(2)))
            nm = NoiseModel.uniform(n, float(rng.choice([0.1, 0.3, 0.45])))
            prior = Prior(table={format(k, f"0{n}b"): 2.0**-n for k in range(2**n)})
            assert map_estimate(counts, nm, prior).value == ml_bruteforce(counts, nm).value

    def test_uniform_per_qubit_prior_coincides_with_ml_when_untied(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            counts = random_counts(rng, n, int(rng.integers(1, 30)))
            t = tally(counts)
            if np.any(t.zeros == t.ones):
                continue
            nm = NoiseModel(p01=rng.uniform(0.05, 0.45, n), p10=rng.uniform(0.05, 0.45, n))
            prior = Prior.uniform(n)
            assert map_estimate(counts, nm, prior).value == ml_bruteforce(counts, nm).value

    def test_hard_prior_overrides_measurements(self):
        # qubit 0 is known to be 0; a majority of ones there is pure error
        counts = CountsTable({"11": 9, "01": 1})
        nm = NoiseModel.uniform(2, 0.2)
        prior = Prior(per_qubit=[0.0, 0.5])
        est = map_estimate(counts, nm, prior)
        assert est.value[0] == "0"
        assert est.value[1] == "1"

    def test_strong_table_prior_beats_single_shot(self):
        # two-candidate log-posterior comparison for the observed "00":
        # "11" wins iff log(3q/(1-q)) > 2 log(0.6/0.4), i.e. q > 3/7
        nm = NoiseModel.uniform(2, 0.4)
        counts = CountsTable({"00": 1})

        def table(q):
            rest = (1.0 - q) / 3
            return Prior(table={"11": q, "00": rest, "01": rest, "10": rest})

        def direct_winner(q):
            post_11 = math.log(q) + 2 * math.log(0.4)
            post_00 = math.log((1.0 - q) / 3) + 2 * math.log(0.6)
            return "11" if post_11 > post_00 else "00"

        threshold = 3 / 7
        for q in (0.999, threshold + 0.01, threshold - 0.01, 0.2):
            assert map_estimate(counts, nm, table(q)).value == direct_winner(q)
        assert direct_winner(0.999) == "11"
        assert direct_winner(threshold - 0.01) == "00"

    def test_table_prior_tie_goes_to_smallest_key(self):
        # every qubit read 0 once and 1 once, so both strings have the same
        # likelihood, term for term, and the same prior
        counts = CountsTable({"10": 1, "01": 1})
        prior = Prior(table={"10": 0.4, "01": 0.4, "11": 0.2})
        est = map_estimate(counts, NoiseModel.uniform(2, 0.2), prior)
        assert est.value == "01" and est.gap == 0.0

    def test_prior_dimension_mismatch(self):
        counts = CountsTable({"00": 1})
        nm = NoiseModel.uniform(2, 0.1)
        with pytest.raises(ValidationError):
            map_estimate(counts, nm, Prior(per_qubit=[0.5]))


class TestPrior:
    def test_unnormalized_table_rejected(self):
        with pytest.raises(ValidationError):
            Prior(table={"0": 0.7, "1": 0.4})

    def test_wide_table_prior(self):
        # no qubit cap: MAP scores the three table entries from the tally
        n = 127
        truth = ("110" * 43)[:n]
        rival = ("01" * 64)[:n]
        counts = simulate_shots(truth, NoiseModel.uniform(n, 0.3), 60, 127)
        prior = Prior(table={truth: 0.1, rival: 0.6, complement(truth): 0.3})
        est = map_estimate(counts, NoiseModel.uniform(n, 0.3), prior)
        assert est.value == truth
        # the tally decides every qubit; without noise, only the prior's
        # choice among strings the shots allow is left
        clean = CountsTable({truth: 5})
        est = map_estimate(clean, NoiseModel.uniform(n, 0.0), prior)
        assert est.value == truth and est.gap == math.inf

    def test_non_mapping_table_rejected(self):
        for table in ([1], 5, [("0", 1.0)], "01"):
            with pytest.raises(ValidationError, match="table prior must map"):
                Prior(table=table)
        with pytest.raises(ValidationError, match="bitstring must be a str"):
            Prior(table={1: 1.0})

    def test_per_qubit_range_checked(self):
        with pytest.raises(ValidationError):
            Prior(per_qubit=[0.5, 1.5])
        with pytest.raises(ValidationError):
            Prior(per_qubit=[0.5, math.nan])

    def test_nan_table_entry_rejected(self):
        with pytest.raises(ValidationError):
            Prior(table={"0": math.nan, "1": 1.0})

    def test_non_numeric_entries_rejected(self):
        with pytest.raises(ValidationError, match="'a'"):
            Prior(per_qubit=["a", 0.5])
        with pytest.raises(ValidationError, match="'01'.*'x'"):
            Prior(table={"01": "x", "11": 0.5})
        with pytest.raises(ValidationError, match="'00'"):
            Prior(table={"01": 0.5, "00": None, "11": 0.5})

    def test_strings_and_booleans_rejected(self):
        # both would convert to floats; a prior file must say what it means
        for entries, shown in (
            (["0.5", 0.5], "'0.5'"),
            ([0.5, True], "True"),
            (np.array([True, False]), "True"),
            (np.array([0.5, True], dtype=object), "True"),
            (np.array(["0.5", 0.5], dtype=object), "'0.5'"),
            (np.array(["0.5", "0.5"]), "'0.5'"),
        ):
            with pytest.raises(ValidationError, match=shown):
                Prior(per_qubit=entries)
        with pytest.raises(ValidationError, match="'0'.*'0.5'"):
            Prior(table={"0": "0.5", "1": 0.5})
        with pytest.raises(ValidationError, match="'1'.*True"):
            Prior(table={"0": 0, "1": True})
        # other real numbers stay accepted, ints and numpy scalars included
        assert Prior(per_qubit=[0, 1, np.float32(0.25), np.int64(1)]).per_qubit.tolist() == [0, 1, 0.25, 1]
        for dtype in (np.float32, np.float64, np.int64, np.uint8):
            assert Prior(per_qubit=np.array([0, 1], dtype=dtype)).per_qubit.tolist() == [0, 1]
        assert Prior(table={"0": 0, "1": np.float64(1.0)}).table["1"] == 1.0

    def test_exactly_one_form(self):
        with pytest.raises(ValidationError):
            Prior(per_qubit=[0.5], table={"0": 1.0})
        with pytest.raises(ValidationError):
            Prior()

    def test_uniform_flag(self):
        assert Prior.uniform(3).is_uniform
        assert Prior(table={"0": 0.5, "1": 0.5}).is_uniform
        assert not Prior(per_qubit=[0.4]).is_uniform


class TestSlidingWindowAntipodal:
    def test_pure_antipodal_counts(self):
        pair = sliding_window_antipodal(CountsTable({"0000": 50, "1111": 50}))
        assert pair.x == "0000"
        assert pair.x_complement == "1111"

    def test_all_windows_tied_gives_all_equal(self):
        # both windows split their agree/disagree votes 1-1
        pair = sliding_window_antipodal(CountsTable({"010": 1, "000": 1}))
        assert pair.members == {"000", "111"}

    def test_recovers_mixed_pair(self):
        pair = sliding_window_antipodal(CountsTable({"0110": 40, "1001": 45}))
        assert pair.members == {"0110", "1001"}
        assert pair.x == "0110"

    def test_needs_two_qubits(self):
        with pytest.raises(ValidationError):
            sliding_window_antipodal(CountsTable({"0": 1}))

    def test_matches_integer_agreement_reference(self):
        # the window votes as an int64 product with the agreement matrix,
        # here also on tables that span several row blocks
        rng = np.random.default_rng(12)
        tables = [
            random_counts(rng, int(rng.integers(2, 12)), int(rng.integers(1, 60)))
            for _ in range(20)
        ]
        for shots in (2000, 9000):
            truth = "".join(rng.choice(["0", "1"], size=127))
            noise = NoiseModel.uniform(127, 0.45)
            tables.append(simulate_antipodal_shots(truth, noise, shots, shots))
        tables.append(CountsTable({"0110": 2**52, "1001": 2**52 - 1, "0101": 1}))
        # widths on either side of a byte boundary, each also with a shot total of exactly 2**53
        for n in (2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 200):
            keys = sorted({"".join(rng.choice(["0", "1"], size=n)) for _ in range(300)})
            tables.append(CountsTable({k: int(rng.integers(1, 50)) for k in keys}, n=n))
            tables.append(CountsTable(dict(zip(keys, [2**53 - len(keys) + 1] + [1] * len(keys))), n=n))
        assert tables[-1].shots == 2**53
        for counts in tables:
            bits, weights = counts.as_arrays()
            agree = weights @ (bits[:, :-1] == bits[:, 1:])
            value = "".join("0" if 2 * a >= counts.shots else "1" for a in agree)
            x = np.bitwise_xor.accumulate(np.array([0] + [int(c) for c in value]))
            expected = "".join(str(b) for b in x)
            assert sliding_window_antipodal(counts).x == expected

    def test_complementing_every_shot_leaves_pair_unchanged(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            counts = random_counts(rng, n, int(rng.integers(1, 40)), skew=bool(rng.integers(2)))
            flipped = CountsTable({complement(k): c for k, c in counts.items()}, n=n)
            assert (
                sliding_window_antipodal(counts).members
                == sliding_window_antipodal(flipped).members
            )


class TestAntipodalPair:
    def test_rejects_non_complement(self):
        with pytest.raises(ValidationError):
            AntipodalPair(x="00", x_complement="01")


class TestSharedInvariances:
    def test_votes_unpack_no_bit_matrix(self, monkeypatch):
        """The tally and every vote count bits from the packed rows; only
        the exhaustive scan reads ``as_arrays``."""
        truth = "1011001110" * 3
        noise = NoiseModel.uniform(30, 0.2)
        counts = simulate_shots(truth, noise, 400, 3)

        def refuse(self):
            raise AssertionError("as_arrays called")

        monkeypatch.setattr(CountsTable, "as_arrays", refuse)
        t = tally(counts)
        assert qmv(t).value == weighted_vote(t, noise).value == truth
        assert map_estimate(counts, noise, Prior.uniform(30)).value == truth
        assert truth in sliding_window_antipodal(counts).members
        narrow = CountsTable({"011": 5, "010": 2, "111": 1})
        prior = Prior(table={"011": 0.5, "001": 0.5})
        assert map_estimate(narrow, NoiseModel.uniform(3, 0.1), prior).value == "011"
        with pytest.raises(AssertionError, match="as_arrays called"):
            ml_bruteforce(narrow, NoiseModel.uniform(3, 0.1))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            counts = random_counts(rng, n, int(rng.integers(1, 30)), skew=bool(rng.integers(2)))
            perm = rng.permutation(n)
            permuted = CountsTable(
                {"".join(k[perm[i]] for i in range(n)): c for k, c in counts.items()}, n=n
            )
            nm = NoiseModel(p01=rng.uniform(0.05, 0.45, n), p10=rng.uniform(0.05, 0.45, n))
            nm_perm = NoiseModel(p01=nm.p01[perm], p10=nm.p10[perm])

            base = qmv(tally(counts)).value
            assert qmv(tally(permuted)).value == "".join(base[perm[i]] for i in range(n))
            basew = weighted_vote(tally(counts), nm).value
            assert weighted_vote(tally(permuted), nm_perm).value == "".join(
                basew[perm[i]] for i in range(n)
            )

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 200])
    def test_relations_at_packed_widths(self, n):
        """At widths on either side of a byte boundary of the packed rows:
        permuting every key's qubits permutes the tally and the vote;
        complementing every key swaps zeros and ones and keeps the window
        pair; and the table rebuilt from its own entries, from its document,
        or from the key-reversed document read right to left is the same
        table with the same tally."""
        rng = np.random.default_rng(n)
        truth = "".join(rng.choice(["0", "1"], size=n))
        noise = NoiseModel(p01=rng.uniform(0.05, 0.45, n), p10=rng.uniform(0.05, 0.45, n))
        table = simulate_shots(truth, noise, 300, seed=n)
        t = tally(table)

        perm = rng.permutation(n)
        permuted = tally(
            CountsTable({"".join(k[i] for i in perm): c for k, c in table.items()}, n=n)
        )
        assert permuted.zeros.tolist() == t.zeros[perm].tolist()
        assert permuted.ones.tolist() == t.ones[perm].tolist()
        vote = qmv(t).value
        assert qmv(permuted).value == "".join(vote[i] for i in perm)

        flipped = CountsTable({complement(k): c for k, c in table.items()}, n=n)
        assert tally(flipped) == VoteTally(zeros=t.ones, ones=t.zeros)
        if n >= 2:
            pair = sliding_window_antipodal(table)
            assert sliding_window_antipodal(flipped) == pair

        reversed_keys = CountsTable({k[::-1]: c for k, c in table.items()}, n=n)
        rebuilt = [
            CountsTable(dict(table.items())),
            parse_counts(serialize_counts(table)),
            parse_counts(serialize_counts(reversed_keys), bit_order="right"),
        ]
        for other in rebuilt:
            assert other == table
            assert tally(other) == t

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 200])
    def test_split_and_scaled_tables_at_packed_widths(self, n):
        """At the same widths: the tallies of two tables that split a shot
        multiset add up to the whole table's tally, and scaling every count
        by an integer leaves mode, qmv and the window pair unchanged."""
        rng = np.random.default_rng(1000 + n)
        truth = "".join(rng.choice(["0", "1"], size=n))
        noise = NoiseModel(p01=rng.uniform(0.05, 0.45, n), p10=rng.uniform(0.05, 0.45, n))
        table = simulate_shots(truth, noise, 300, seed=n)
        t = tally(table)

        first, second = {}, {}
        for key, count in table.items():
            part = int(rng.integers(0, count + 1))
            for side, c in ((first, part), (second, count - part)):
                if c:
                    side[key] = c
        t1, t2 = tally(CountsTable(first, n=n)), tally(CountsTable(second, n=n))
        assert t1.shots + t2.shots == 300 and min(t1.shots, t2.shots) > 0
        assert VoteTally(zeros=t1.zeros + t2.zeros, ones=t1.ones + t2.ones) == t

        for factor in (3, 2**40):
            scaled = CountsTable({k: factor * c for k, c in table.items()}, n=n)
            assert tally(scaled) == VoteTally(zeros=factor * t.zeros, ones=factor * t.ones)
            assert mode_estimate(scaled).value == mode_estimate(table).value
            assert qmv(tally(scaled)).value == qmv(t).value
            if n >= 2:
                assert sliding_window_antipodal(scaled) == sliding_window_antipodal(table)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 200])
    def test_complement_and_permutation_at_packed_widths(self, n):
        """At the same widths: complementing every key and swapping p01 with
        p10 complements qmv and weighted_vote on every untied qubit, and a
        tied qubit stays 1; permuting every key's qubits, with the noise
        model and a per-qubit prior, permutes weighted_vote and
        map_estimate."""
        rng = np.random.default_rng(2000 + n)
        truth = "".join(rng.choice(["0", "1"], size=n))
        p01, p10 = rng.uniform(0.05, 0.45, n), rng.uniform(0.05, 0.45, n)
        p10[0] = p01[0]
        noise = NoiseModel(p01=p01, p10=p10)
        # every shot again with qubit 0 flipped, so qubit 0 ties under both votes
        entries = {}
        for key, count in simulate_shots(truth, noise, 300, seed=n).items():
            for k in (key, complement(key[0]) + key[1:]):
                entries[k] = entries.get(k, 0) + count
        table = CountsTable(entries, n=n)
        t = tally(table)

        flipped = tally(CountsTable({complement(k): c for k, c in table.items()}, n=n))
        swapped = NoiseModel(p01=p10, p10=p01)
        ll0 = t.ones * np.log(p01) + t.zeros * np.log(1.0 - p01)
        ll1 = t.zeros * np.log(p10) + t.ones * np.log(1.0 - p10)
        for got, base, untied in (
            (qmv(flipped), qmv(t), t.zeros != t.ones),
            (weighted_vote(flipped, swapped), weighted_vote(t, noise), ll0 != ll1),
        ):
            assert not untied[0] and untied.sum() >= 0.9 * (n - 1)
            assert got.value == "".join(
                complement(bit) if u else "1" for bit, u in zip(base.value, untied)
            )
            assert got.margins.tolist() == base.margins.tolist()

        perm = rng.permutation(n)
        permuted = CountsTable({"".join(k[i] for i in perm): c for k, c in table.items()}, n=n)
        noise_perm = NoiseModel(p01=p01[perm], p10=p10[perm])
        pi = rng.uniform(0.05, 0.95, n)
        pi[rng.permutation(n)[: n // 4]] = rng.integers(0, 2, n // 4)  # some hard priors
        for got, base in (
            (weighted_vote(tally(permuted), noise_perm), weighted_vote(t, noise)),
            (
                map_estimate(permuted, noise_perm, Prior(per_qubit=pi[perm])),
                map_estimate(table, noise, Prior(per_qubit=pi)),
            ),
        ):
            assert got.value == "".join(base.value[i] for i in perm)
            assert got.margins.tolist() == base.margins[perm].tolist()

    def test_count_scaling_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            counts = random_counts(rng, n, int(rng.integers(1, 25)), skew=bool(rng.integers(2)))
            scaled = CountsTable({k: 7 * c for k, c in counts.items()}, n=n)
            nm = NoiseModel(p01=rng.uniform(0.05, 0.45, n), p10=rng.uniform(0.05, 0.45, n))
            assert mode_estimate(scaled).value == mode_estimate(counts).value
            assert qmv(tally(scaled)).value == qmv(tally(counts)).value
            assert (
                weighted_vote(tally(scaled), nm).value == weighted_vote(tally(counts), nm).value
            )
