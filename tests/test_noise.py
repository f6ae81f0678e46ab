"""Tests for the bit-flip shot simulator and the exact binomial error tail."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest

import qmvote.noise as noise_mod
from qmvote import (
    CountsTable,
    DimensionError,
    InfeasibleError,
    NoiseModel,
    ValidationError,
    derive_seed,
    mode_estimate,
    serialize_counts,
    shot_error_probability_exact,
    simulate_antipodal_shots,
    simulate_shots,
    sliding_window_antipodal,
    tally,
)


class TestNoiseModel:
    def test_uniform_symmetric(self):
        nm = NoiseModel.uniform(3, 0.2)
        assert nm.n == 3
        assert nm.is_symmetric
        assert nm.p01.tolist() == nm.p10.tolist() == [0.2, 0.2, 0.2]

    def test_uniform_asymmetric(self):
        nm = NoiseModel.uniform(2, 0.1, 0.3)
        assert not nm.is_symmetric
        assert (nm.p01[1], nm.p10[1]) == (0.1, 0.3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            NoiseModel.uniform(2, 1.2)
        with pytest.raises(ValidationError):
            NoiseModel(p01=[0.1, -0.1], p10=[0.1, 0.1])
        with pytest.raises(ValidationError):
            NoiseModel.uniform(2, float("nan"))
        with pytest.raises(ValidationError):
            NoiseModel(p01=[0.1, 0.1], p10=[0.1, float("nan")])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionError):
            NoiseModel(p01=[0.1], p10=[0.1, 0.2])


class TestSimulateShots:
    def test_noiseless_channel(self):
        counts = simulate_shots("000", NoiseModel.uniform(3, 0.0), 100, 42)
        assert dict(counts.counts) == {"000": 100}

    def test_deterministic_full_flip(self):
        counts = simulate_shots("111", NoiseModel.uniform(3, 1.0), 10, 42)
        assert dict(counts.counts) == {"000": 10}

    def test_single_qubit_rate_within_five_sigma(self):
        # binomial sd at p=0.2, S=1e6 is 4e-4, so the band is +-0.002
        shots = 10**6
        counts = simulate_shots("0", NoiseModel.uniform(1, 0.2), shots, 2024)
        rate = counts.counts.get("1", 0) / shots
        assert abs(rate - 0.2) < 0.002

    def test_is_pure_function_of_inputs(self):
        nm = NoiseModel.uniform(4, 0.3)
        a = simulate_shots("0101", nm, 5000, 7)
        b = simulate_shots("0101", nm, 5000, 7)
        assert a == b
        c = simulate_shots("0101", nm, 5000, 8)
        assert a != c

    def test_out_of_order_block_assembly_matches_sequential(self, monkeypatch):
        """Each shot block is an independent keyed stream, so producing the
        blocks in any order (as parallel workers would) assembles into the
        sequential record."""
        monkeypatch.setattr(noise_mod, "_BLOCK_SHOTS", 128)
        nm = NoiseModel.uniform(3, 0.25)
        thresholds = noise_mod._read1_thresholds(np.array([[0, 1, 0]], dtype=np.uint8), nm)
        shots = 1000
        sequential = noise_mod._simulate_rows(thresholds, shots, 11)
        plan = [(b, min(128, shots - lo)) for b, lo in enumerate(range(0, shots, 128))]
        scrambled = {}
        for b, take in reversed(plan):
            scrambled[b] = np.empty((take, 1), dtype=np.uint8)
            noise_mod._shot_block(thresholds, 11, b, scrambled[b])
        assembled = np.concatenate([scrambled[b] for b, _ in plan])
        assert np.array_equal(assembled, sequential)
        # and the aggregated table is reproducible end to end
        assert simulate_shots("010", nm, shots, 11) == simulate_shots("010", nm, shots, 11)

    def test_per_qubit_marginals_within_five_sigma(self):
        shots = 10**6
        nm = NoiseModel(p01=[0.05, 0.3, 0.5], p10=[0.2, 0.1, 0.4])
        t = tally(simulate_shots("010", nm, shots, 99))
        # truth 0 flips with p01, truth 1 with p10
        expected = np.array([0.05, 1 - 0.1, 0.5])
        sigma = np.sqrt(expected * (1 - expected) / shots)
        np.testing.assert_array_less(np.abs(t.ones / t.shots - expected), 5 * sigma + 1e-12)

    def test_pairwise_flip_independence(self):
        shots = 10**6
        p = 0.3
        counts = simulate_shots("000", NoiseModel.uniform(3, p), shots, 31)
        bits, weights = counts.as_arrays()
        flips = bits.astype(np.float64)
        mean = (weights @ flips) / shots
        for i in range(3):
            for j in range(i + 1, 3):
                joint = float(weights @ (flips[:, i] * flips[:, j])) / shots
                cov = joint - mean[i] * mean[j]
                # sd of the empirical covariance of two independent Bernoullis
                sigma = math.sqrt((p * (1 - p)) ** 2 / shots)
                assert abs(cov) < 5 * sigma

    @pytest.mark.parametrize(
        "byte, word, reads",
        [
            (0, 0, [0, 1, 1, 1, 1, 1, 1, 1]),
            (0, 2**24 - 1, [0, 0, 0, 1, 1, 1, 1, 1]),
            (255, 0, [0, 0, 0, 0, 0, 0, 1, 1]),
            (255, 2**24 - 1, [0, 0, 0, 0, 0, 0, 0, 1]),
        ],
    )
    def test_extreme_draws(self, monkeypatch, byte, word, reads):
        """Thresholds 0, 1, 2^24 - 1, 2^24, 2^30, 2^31, 2^32 - 1 and 2^32
        under the bytes and tie words at the ends of their ranges: a byte
        below T >> 24 (255 at most) reads 1, and a byte equal to it reads 1
        when the tie word is below the rest of T. So T = 0 never reads 1
        and T = 2^32 always does."""
        monkeypatch.setattr(noise_mod, "_bytes", lambda bit_gen, count: np.full(count, byte, np.uint8))
        monkeypatch.setattr(
            noise_mod, "_tie_words", lambda bit_gen, count: np.full(count, word, np.uint64)
        )
        levels = [0, 1, 2**24 - 1, 2**24, 2**30, 2**31, 2**32 - 1, 2**32]
        out = np.empty((7, 1), dtype=np.uint8)
        noise_mod._shot_block(np.array([levels], dtype=np.uint64), 0, 0, out)
        assert np.unpackbits(out, axis=1).tolist() == [reads] * 7
        # bytes below 128 pick the complement branch, the second row
        both = np.array([levels, levels[::-1]], dtype=np.uint64)
        noise_mod._shot_block(both, 0, 0, out)
        assert np.unpackbits(out, axis=1).tolist() == [reads[::-1] if byte < 128 else reads] * 7
        certain = NoiseModel(p01=[0.0, 1.0, 0.0, 1.0], p10=[0.0, 0.0, 1.0, 1.0])
        assert dict(simulate_shots("0011", certain, 7, 0).counts) == {"0100": 7}
        assert dict(simulate_shots("1100", certain, 7, 0).counts) == {"1101": 7}
        both = simulate_antipodal_shots("0011", certain, 7, 0)
        assert dict(both.counts) == {"1101" if byte < 128 else "0100": 7}

    @pytest.mark.parametrize("antipodal", [False, True])
    def test_read1_frequencies_within_five_sigma(self, antipodal):
        """Each shot-qubit reads 1 with probability T / 2^32 for its rounded
        threshold T: exactly never at T = 0 (p = 0, and p = 2^-33, which
        rounds to 0) and always at T = 2^32."""
        ps = [0.0, 2.0**-33, 0.02, 0.4, 1.0]
        noise = NoiseModel(p01=ps + ps, p10=ps + ps)
        x0 = "0" * 5 + "1" * 5
        shots = 200_000
        x0_bits = noise_mod._prepare(x0, noise, 1)[0]
        if antipodal:
            t = tally(simulate_antipodal_shots(x0, noise, shots, 4))
            thresholds = noise_mod._read1_thresholds(np.stack([x0_bits, 1 - x0_bits]), noise)
            expected = thresholds.astype(np.float64).mean(axis=0) / 2**32
        else:
            t = tally(simulate_shots(x0, noise, shots, 4))
            expected = noise_mod._read1_thresholds(x0_bits[None], noise)[0] / 2**32
            assert expected[1] == 0.0 and expected[6] == 1.0
        sigma = np.sqrt(expected * (1 - expected) / shots)
        assert np.all(np.abs(t.ones / shots - expected) <= 5 * sigma)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            simulate_shots("01", NoiseModel.uniform(3, 0.1), 10, 0)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            simulate_shots("01", NoiseModel.uniform(2, 0.1), 0, 0)

    def test_oversized_record_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a shot block was drawn")

        monkeypatch.setattr(noise_mod, "_shot_block", no_draw)
        # a shot of two qubits packs to one byte and one of nine to two, so
        # 4 GiB holds 2**32 and 2**31 shots
        for simulate in (simulate_shots, simulate_antipodal_shots):
            with pytest.raises(InfeasibleError, match="packed shot record.*4 GiB allowed"):
                simulate("01", NoiseModel.uniform(2, 0.1), 2**32 + 1, 0)
            with pytest.raises(InfeasibleError, match="4.0 GiB"):
                simulate("0" * 9, NoiseModel.uniform(9, 0.1), 2**31 + 1, 0)
        noise_mod._check_record_memory(2, 2**32)
        noise_mod._check_record_memory(9, 2**31)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValidationError):
            simulate_shots("01", NoiseModel.uniform(2, 0.1), 10, -1)
        with pytest.raises(ValidationError):
            simulate_shots("01", NoiseModel.uniform(2, 0.1), 10, 2**64)


# Frozen reference: the string-keyed table build that simulated tables used
# before they were packed (unique rows, string dict, validating constructor),
# and the unpacked shot blocks it was fed. The packed path must reproduce
# every table, key order and estimate it gave.
#
# The shot blocks are an unchunked copy of the draw: all bytes of a block at
# once (each 64-bit Philox output split in eight, low byte first), one byte h
# per shot-qubit. With threshold T = round(Pr(read 1) * 2^32), hi = min(T >>
# 24, 255) and lo = T - (hi << 24), a shot-qubit reads 1 when h < hi, or when
# h == hi and its tie word is below lo. Tie words are the low 24 bits of the
# outputs of the block stream's jumped() copy, one per tie in row-major order.


def reference_rows_to_counts(rows):
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    chars = (uniq + ord("0")).astype(np.uint8)
    n = rows.shape[1]
    blob = chars.tobytes().decode("ascii")
    table = {blob[i * n : (i + 1) * n]: int(c) for i, c in enumerate(counts)}
    return CountsTable(table, n=n)


def reference_bytes(bit_gen, count):
    raw = bit_gen.random_raw((count + 7) // 8)
    return np.stack([(raw >> (8 * i)) & 0xFF for i in range(8)], axis=1).reshape(-1)[:count]


def reference_thresholds(truth_bits, noise):
    read1 = [p01 if t == 0 else 1 - p10 for t, p01, p10 in zip(truth_bits, noise.p01, noise.p10)]
    return np.array([round(p * 2**32) for p in read1], dtype=np.uint64)


def reference_read(draws, tie_gen, thresholds):
    """Bits of a block's (shots, n) bytes, each against its own threshold."""
    hi = np.minimum(thresholds >> 24, 255)
    lo = thresholds - (hi << 24)
    bits = draws < hi
    tie = np.flatnonzero(draws == hi)
    words = tie_gen.random_raw(tie.size) & (2**24 - 1)
    bits.flat[tie] = words < lo.flat[tie]
    return bits.astype(np.uint8)


def reference_rows(x0, noise, shots, seed, block_shots):
    x0_bits = np.frombuffer(x0.encode("ascii"), dtype=np.uint8) - ord("0")
    thresholds = reference_thresholds(x0_bits, noise)
    pieces = []
    for block, lo in enumerate(range(0, shots, block_shots)):
        take = min(block_shots, shots - lo)
        bit_gen = noise_mod._block_bit_gens(seed, block)[0]
        tie_gen = bit_gen.jumped()
        draws = reference_bytes(bit_gen, take * x0_bits.size).reshape(take, x0_bits.size)
        pieces.append(reference_read(draws, tie_gen, np.broadcast_to(thresholds, draws.shape)))
    return np.concatenate(pieces)


def reference_antipodal_rows(x0, noise, shots, seed, block_shots):
    x0_bits = np.frombuffer(x0.encode("ascii"), dtype=np.uint8) - ord("0")
    plain = reference_thresholds(x0_bits, noise)
    comp = reference_thresholds(1 - x0_bits, noise)
    pieces = []
    for block, lo in enumerate(range(0, shots, block_shots)):
        take = min(block_shots, shots - lo)
        bit_gen = noise_mod._block_bit_gens(seed, block)[0]
        tie_gen = bit_gen.jumped()
        other = reference_bytes(bit_gen, take) < 128
        draws = reference_bytes(bit_gen, take * x0_bits.size).reshape(take, x0_bits.size)
        pieces.append(reference_read(draws, tie_gen, np.where(other[:, None], comp, plain)))
    return np.concatenate(pieces)


def reference_mode(table):
    best_key, best_count = min(table.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    second = max((c for k, c in table.counts.items() if k != best_key), default=0)
    return best_key, (best_count - second) / table.shots


def assert_tables_identical(new, ref, rows):
    """Everything observable about ``new`` matches the reference table
    ``ref`` built from the unpacked ``rows``."""
    n = rows.shape[1]
    assert (new.n, new.shots, len(new)) == (ref.n, ref.shots, len(ref))
    assert list(new.counts.items()) == list(ref.counts.items())
    assert list(new.items()) == list(ref.items())
    keys = list(ref.counts)
    ref_bits = (np.frombuffer("".join(keys).encode("ascii"), dtype=np.uint8) - ord("0")).reshape(
        len(keys), n
    )
    ref_weights = np.array(list(ref.counts.values()), dtype=np.int64)
    assert keys == sorted(keys)
    new_bits, new_weights = new.as_arrays()
    assert new_bits.dtype == np.uint8 and np.array_equal(new_bits, ref_bits)
    assert new_weights.dtype == np.int64 and np.array_equal(new_weights, ref_weights)
    t = tally(new)
    assert np.array_equal(t.ones, rows.sum(axis=0)) and t == tally(ref)
    estimate = mode_estimate(new)
    assert (estimate.value, estimate.gap) == reference_mode(ref)
    if n >= 2:
        assert sliding_window_antipodal(new) == sliding_window_antipodal(ref)
    assert new == ref and ref == new
    assert new == CountsTable(dict(ref.counts))
    assert serialize_counts(new).encode() == serialize_counts(ref).encode()


def random_rows(rng, shots, n):
    """Rows drawn from a small pool, so keys repeat and counts tie."""
    pool = (rng.random((max(1, shots // 3), n)) < 0.5).astype(np.uint8)
    return pool[rng.integers(0, pool.shape[0], size=shots)]


class TestPackedTablesMatchReference:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 200, 4096])
    def test_random_rows(self, n):
        rng = np.random.default_rng(n)
        shots = 40 if n == 4096 else 300
        for rows in (
            random_rows(rng, shots, n),
            (rng.random((shots, n)) < 0.5).astype(np.uint8),
            np.repeat(random_rows(rng, 1, n), shots, axis=0),
            random_rows(rng, 1, n),
        ):
            new = CountsTable._from_shots(np.packbits(rows, axis=1), n)
            assert_tables_identical(new, reference_rows_to_counts(rows), rows)

    def test_tied_top_keys(self):
        rows = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1], [0, 1, 1], [0, 0, 0]], dtype=np.uint8)
        new = CountsTable._from_shots(np.packbits(rows, axis=1), 3)
        assert mode_estimate(new).value == "011" and mode_estimate(new).gap == 0.0
        assert_tables_identical(new, reference_rows_to_counts(rows), rows)

    @pytest.mark.parametrize("n", [5, 9, 70])
    def test_multi_block_records(self, monkeypatch, n):
        monkeypatch.setattr(noise_mod, "_BLOCK_SHOTS", 64)
        x0 = ("110" * n)[:n]
        noise = NoiseModel(p01=np.linspace(0.05, 0.45, n), p10=np.linspace(0.4, 0.1, n))
        for seed in (0, 3):
            rows = reference_rows(x0, noise, 1000, seed, 64)
            new = simulate_shots(x0, noise, 1000, seed)
            assert_tables_identical(new, reference_rows_to_counts(rows), rows)
            rows = reference_antipodal_rows(x0, noise, 1000, seed, 64)
            new = simulate_antipodal_shots(x0, noise, 1000, seed)
            assert_tables_identical(new, reference_rows_to_counts(rows), rows)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("n", [1, 5, 9, 13])
    def test_chunked_draws(self, monkeypatch, chunk, n):
        """A block drawn in row chunks continues its one stream, also when a
        chunk ends inside a Philox counter step of four outputs (odd n, odd
        block lengths)."""
        monkeypatch.setattr(noise_mod, "_CHUNK_DRAWS", chunk)
        monkeypatch.setattr(noise_mod, "_BLOCK_SHOTS", 65)
        x0 = ("1101" * n)[:n]
        noise = NoiseModel(p01=np.linspace(0.05, 0.45, n), p10=np.linspace(0.4, 0.1, n))
        x0_bits = noise_mod._prepare(x0, noise, 1)[0]
        plain = noise_mod._read1_thresholds(x0_bits[None], noise)
        both = noise_mod._read1_thresholds(np.stack([x0_bits, 1 - x0_bits]), noise)
        for shots in (1, 97, 301):
            rows = reference_rows(x0, noise, shots, 3, 65)
            record = noise_mod._simulate_rows(plain, shots, 3)
            assert np.array_equal(record, np.packbits(rows, axis=1))
            assert_tables_identical(simulate_shots(x0, noise, shots, 3), reference_rows_to_counts(rows), rows)
            rows = reference_antipodal_rows(x0, noise, shots, 3, 65)
            record = noise_mod._simulate_rows(both, shots, 3)
            assert np.array_equal(record, np.packbits(rows, axis=1))
            new = simulate_antipodal_shots(x0, noise, shots, 3)
            assert_tables_identical(new, reference_rows_to_counts(rows), rows)

    def test_default_block_size(self):
        noise = NoiseModel.uniform(13, 0.3)
        rows = reference_rows("1" * 13, noise, 70_000, 5, noise_mod._BLOCK_SHOTS)
        new = simulate_shots("1" * 13, noise, 70_000, 5)
        assert_tables_identical(new, reference_rows_to_counts(rows), rows)

    @pytest.mark.parametrize("chunk", [3, noise_mod._CHUNK_DRAWS])
    def test_edge_probabilities(self, monkeypatch, chunk):
        """p = 0, p = 1 and p below 2^-33 (which rounds to no flip) on both
        truths, next to mixed p01/p10 columns, in plain and antipodal draws."""
        monkeypatch.setattr(noise_mod, "_CHUNK_DRAWS", chunk)
        tiny = 2.0**-34
        p01 = np.array([0.0, 1.0, tiny, 0.0, 1.0, tiny, 0.05, 0.3, 0.45, 0.0, 1 - tiny])
        p10 = np.array([0.0, 1.0, tiny, 0.0, 1.0, tiny, 0.35, 0.02, 0.45, 1.0, 0.0])
        x0 = "00011101011"
        noise = NoiseModel(p01=p01, p10=p10)
        x0_bits = np.frombuffer(x0.encode("ascii"), dtype=np.uint8) - ord("0")
        for shots in (1, 50, 301):
            rows = reference_rows(x0, noise, shots, 9, noise_mod._BLOCK_SHOTS)
            new = simulate_shots(x0, noise, shots, 9)
            assert_tables_identical(new, reference_rows_to_counts(rows), rows)
            # certain columns: truth 0 with p01 = 0 or tiny, truth 1 with p10 = 0 or tiny
            # never flip; p = 1 always flips
            for q in (0, 2, 3, 5, 10):
                assert np.all(rows[:, q] == x0_bits[q])
            for q in (1, 4, 9):
                assert np.all(rows[:, q] == 1 - x0_bits[q])
            rows = reference_antipodal_rows(x0, noise, shots, 9, noise_mod._BLOCK_SHOTS)
            new = simulate_antipodal_shots(x0, noise, shots, 9)
            assert_tables_identical(new, reference_rows_to_counts(rows), rows)


def traced_peak(call):
    """Peak bytes traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecordMemory:
    @pytest.mark.parametrize("shots", [200_000, 1_000_000])
    @pytest.mark.parametrize("antipodal", [False, True])
    def test_record_is_allocated_once(self, shots, antipodal):
        """The packed record is allocated once and filled block by block, so
        the peak is the record plus one chunk's working set (its bytes, their
        Philox outputs, the compare and tie masks and the branch's threshold
        rows, each about _CHUNK_DRAWS bytes), not the record twice over."""
        n = 127
        x0_bits = (np.arange(n) % 2).astype(np.uint8)
        truths = np.stack([x0_bits, 1 - x0_bits]) if antipodal else x0_bits[None]
        thresholds = noise_mod._read1_thresholds(truths, NoiseModel.uniform(n, 0.3))
        noise_mod._simulate_rows(thresholds, 10, 1)  # first-call allocations stay out of the peak
        record = shots * ((n + 7) // 8)
        peak = traced_peak(lambda: noise_mod._simulate_rows(thresholds, shots, 1))
        assert peak < 1.2 * record + 6 * noise_mod._CHUNK_DRAWS

    @pytest.mark.parametrize("p", [0.001, 0.3])
    @pytest.mark.parametrize("n", [8, 40, 65, 127, 200])
    def test_simulated_table_peak(self, n, p):
        """Simulating an 8 MiB record and deduplicating it peaks at no more
        than 7 times the record, with many distinct rows (p = 0.3) or few."""
        width = (n + 7) // 8
        shots = -(-(8 << 20) // width)
        x0 = ("10" * n)[:n]
        noise = NoiseModel.uniform(n, p)
        simulate_shots(x0, noise, 10, 0)
        assert traced_peak(lambda: simulate_shots(x0, noise, shots, 1)) <= 7 * shots * width


class TestSimulateAntipodalShots:
    def test_deterministic(self):
        nm = NoiseModel.uniform(4, 0.2)
        a = simulate_antipodal_shots("0000", nm, 2000, 5)
        b = simulate_antipodal_shots("0000", nm, 2000, 5)
        assert a == b

    def test_even_truth_mixture(self):
        # each qubit reads 1 with chance 0.5*p + 0.5*(1-p) = 0.5 exactly
        shots = 200_000
        counts = simulate_antipodal_shots("000", NoiseModel.uniform(3, 0.2), shots, 17)
        t = tally(counts)
        sigma = math.sqrt(0.25 / shots)
        assert np.all(np.abs(t.ones / t.shots - 0.5) < 5 * sigma)

    def test_noiseless_mixture_is_pure_pair(self):
        counts = simulate_antipodal_shots("0101", NoiseModel.uniform(4, 0.0), 500, 23)
        assert set(counts.counts) == {"0101", "1010"}
        assert counts.shots == 500


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "phase1") == derive_seed(1, "phase1")
        assert derive_seed(1, "phase1") != derive_seed(2, "phase1")
        assert derive_seed(1, "subset", 0) != derive_seed(1, "subset", 1)

    def test_range(self):
        s = derive_seed(2**64 - 1, "x", 123)
        assert 0 <= s < 2**64


class TestShotErrorProbabilityExact:
    def test_example_value(self):
        # S=10, p=0.2: sum_{f=5..10} C(10,f) 0.2^f 0.8^(10-f) = 0.032793...
        assert shot_error_probability_exact(10, 0.2) == pytest.approx(0.0328, abs=5e-5)

    def test_no_flips(self):
        assert shot_error_probability_exact(10, 0.0) == 0.0

    def test_four_shot_hand_enumeration(self):
        # S=4, p=0.5: (C(4,2)+C(4,3)+C(4,4)) / 16 = 11/16
        assert shot_error_probability_exact(4, 0.5) == pytest.approx(11 / 16, rel=1e-12)

    def test_certain_flip(self):
        assert shot_error_probability_exact(10, 1.0) == 1.0

    def test_matches_direct_summation(self):
        """Within 1e-12 of the tail summed term by term in 60-digit decimal
        arithmetic, an exact tie counted as an error, for every S up to 200.
        Far out in p the float sum drifts further (about 1.2e-11 at p = 1e-9,
        as does a sum of scipy's gammaln terms), so the grid stops at p = 0.01."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for shots in range(1, 201):
                lo = (shots + 1) // 2  # ceil(S/2): the tie term too, for even S
                for p in (0.01, 0.1, 0.2, 0.3, 0.45, 0.5, 0.7, 0.99):
                    q = decimal.Decimal(p)
                    direct = sum(
                        math.comb(shots, f) * q**f * (1 - q) ** (shots - f)
                        for f in range(lo, shots + 1)
                    )
                    got = shot_error_probability_exact(shots, p)
                    assert got == pytest.approx(float(direct), rel=1e-12), (shots, p)

    def test_large_shot_count_is_stable(self):
        value = shot_error_probability_exact(10**6, 0.49)
        assert 0.0 < value < 1e-80

    def test_monotone_in_p(self):
        values = [shot_error_probability_exact(50, p) for p in np.linspace(0.01, 0.5, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            shot_error_probability_exact(0, 0.2)
        with pytest.raises(ValidationError):
            shot_error_probability_exact(10, 1.2)
