"""Tests for bitstrings, counts tables, tallies, and Hamming distance."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmvote import (
    CountsTable,
    DimensionError,
    NoiseModel,
    ValidationError,
    VoteTally,
    Prior,
    complement,
    hamming_distance,
    map_estimate,
    ml_bruteforce,
    mode_estimate,
    serialize_counts,
    simulate_shots,
    sliding_window_antipodal,
    tally,
    write_counts,
)
from qmvote import core

bitstrings = st.text(alphabet="01", min_size=1, max_size=64)


def charwise_distance(a, b):
    """Independent reference: compare character by character."""
    return sum(1 for x, y in zip(a, b) if x != y)


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance("0000", "0000") == 0

    def test_full_complement(self):
        assert hamming_distance("10101", "01010") == 5

    def test_twenty_bit_pair_matches_charwise_oracle(self):
        a = "10101010101010101010"
        b = "01010101010101010111"
        assert hamming_distance(a, b) == charwise_distance(a, b)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance("00", "000")

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            hamming_distance("0a", "00")

    @given(a=bitstrings)
    def test_matches_charwise_oracle(self, a):
        rng = np.random.default_rng(len(a))
        b = "".join(rng.choice(["0", "1"], size=len(a)))
        assert hamming_distance(a, b) == charwise_distance(a, b)

    @given(a=bitstrings)
    def test_complement_distance_is_n(self, a):
        assert hamming_distance(a, complement(a)) == len(a)

    @given(n=st.integers(min_value=1, max_value=64), seed=st.integers(0, 2**16))
    def test_triangle_inequality(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b, c = ("".join(rng.choice(["0", "1"], size=n)) for _ in range(3))
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    @given(a=bitstrings)
    def test_symmetric(self, a):
        rng = np.random.default_rng(1 + len(a))
        b = "".join(rng.choice(["0", "1"], size=len(a)))
        assert hamming_distance(a, b) == hamming_distance(b, a)


class TestCountsTable:
    def test_basic(self):
        ct = CountsTable({"01": 2, "11": 1})
        assert ct.n == 2
        assert ct.shots == 3
        assert ct["01"] == 2
        assert "10" not in ct

    def test_rejects_inconsistent_key_lengths(self):
        with pytest.raises(ValidationError):
            CountsTable({"01": 1, "011": 1})

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            CountsTable({})

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            CountsTable({"0": 0})
        with pytest.raises(ValidationError):
            CountsTable({"0": -1})
        with pytest.raises(ValidationError):
            CountsTable({"0": True})
        with pytest.raises(ValidationError):
            CountsTable({"0": 1.5})

    def test_rejects_non_integer_n(self):
        for n in (3.0, 2.0, 2.5, "2", True):
            with pytest.raises(ValidationError, match="n must be an integer"):
                CountsTable({"01": 1}, n=n)
        assert CountsTable({"01": 1}, n=np.int64(2)).n == 2

    def test_rejects_non_binary_keys(self):
        with pytest.raises(ValidationError):
            CountsTable({"0x": 1})

    def test_counts_are_read_only(self):
        ct = CountsTable({"0": 1})
        with pytest.raises(TypeError):
            ct.counts["0"] = 5

    def test_as_arrays_orders(self):
        # a table is held in key order, whatever order its mapping gave
        ct = CountsTable({"110": 1, "001": 4, "100": 2})
        assert list(ct.counts) == ["001", "100", "110"]
        assert list(ct.items()) == [("001", 4), ("100", 2), ("110", 1)]
        bits, weights = ct.as_arrays()
        assert bits.dtype == np.uint8 and bits.tolist() == [[0, 0, 1], [1, 0, 0], [1, 1, 0]]
        assert weights.dtype == np.int64 and weights.tolist() == [4, 2, 1]
        weights[0] = 99  # a copy: the table is unchanged
        assert ct.as_arrays()[1].tolist() == [4, 2, 1] and ct["001"] == 4

    def test_lookups_decode_no_keys(self):
        n = 13
        table = simulate_shots("0110100111010", NoiseModel.uniform(n, 0.3), 3000, 4)
        # the same seed gives the same table; decode the keys of that copy
        items = dict(simulate_shots("0110100111010", NoiseModel.uniform(n, 0.3), 3000, 4).items())
        assert len(items) == len(table) > 1000
        rng = np.random.default_rng(5)
        absent = [k for k in (format(int(v), f"0{n}b") for v in rng.integers(0, 1 << n, 300)) if k not in items]
        assert absent
        for key, count in items.items():
            assert key in table and table[key] == count
        for key in absent + ["0" * n, "1" * n]:
            assert (key in table) == (key in items)
            if key not in items:
                with pytest.raises(KeyError):
                    table[key]
        # wrong types and lengths, and characters above '1', below '0' and outside ASCII
        malformed = [5, None, b"0" * n, ["0"] * n, "", "0" * (n - 1), "0" * (n + 1)]
        malformed += [c + "0" * (n - 1) for c in ("2", "/", " ", "\x00", "é", "x")]
        # a stored key with one '1' swapped for another character
        malformed += [k.replace("1", c, 1) for k in list(items)[:50] for c in ("2", "/", "é")]
        for key in malformed:
            assert key not in table
            with pytest.raises(KeyError):
                table[key]
        assert table._counts is None

    def test_lookups_in_padded_and_single_row_tables(self):
        for keys in (["0"], ["1"], ["101"], ["00000000"], ["111111111", "000000001", "100000000"]):
            table = CountsTable({k: i + 1 for i, k in enumerate(keys)})
            for i, k in enumerate(keys):
                assert k in table and table[k] == i + 1
            n = len(keys[0])
            for v in range(min(1 << n, 600)):
                other = format(v, f"0{n}b")
                assert (other in table) == (other in keys)
            assert table._counts is None

    def test_sorted_and_shuffled_mappings_build_equal_tables(self):
        table = simulate_shots("1011001110", NoiseModel.uniform(10, 0.3), 2000, 9)
        ordered = dict(table.items())
        assert list(ordered) == sorted(ordered)
        keys = list(ordered)
        np.random.default_rng(3).shuffle(keys)
        shuffled = {k: ordered[k] for k in keys}
        assert list(shuffled) != list(ordered)
        a, b = CountsTable(ordered), CountsTable(shuffled)
        assert a == b == table
        for x, y in zip(a.as_arrays(), b.as_arrays()):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert list(a.items()) == list(b.items()) == list(ordered.items())

    @pytest.mark.parametrize("n", [3, 8, 127])
    def test_repeated_row_refused(self, n):
        values = np.random.default_rng(n).choice(2 ** min(n, 16), size=6, replace=False)
        keys = [format(int(v), f"0{n}b") for v in values]
        rows = np.packbits(np.array([list(k) for k in keys], dtype=np.uint8), axis=1)
        weights = np.arange(1, 7, dtype=np.int64)
        table = CountsTable(core._Rows(rows.copy(), weights.copy()), n=n)
        assert table == CountsTable(dict(zip(keys, range(1, 7))))
        rows[4] = rows[1]  # adjacent to its twin only once the rows are sorted
        with pytest.raises(ValidationError, match="repeats"):
            CountsTable(core._Rows(rows, weights), n=n)
        # one row per shot: a repeat is counted, not refused
        assert CountsTable._from_shots(rows, n)[keys[1]] == 2


def reference_dedup(packed):
    """Frozen reference: np.unique over each row as one numpy void scalar,
    the dedup that simulated tables used before word keys."""
    keys = np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1]))).ravel()
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq.view(np.uint8).reshape(-1, packed.shape[1]), counts


def dedup_records(n, rng, shots=600):
    """Bit matrices of four kinds: all rows distinct, one row repeated,
    rows drawn from a small pool, and rows that share their first 64 bits
    (all but the last bit when n <= 64) and differ after them."""
    if 2**n <= shots:
        distinct = np.unpackbits(
            np.arange(2**n, dtype=">u2").view(np.uint8).reshape(-1, 2), axis=1
        )[:, 16 - n :]
        distinct = distinct[rng.permutation(2**n)]
    else:  # random rows whose last 10 bits number them
        distinct = rng.integers(0, 2, (shots, n), dtype=np.uint8)
        index = rng.permutation(shots).astype(">u2").view(np.uint8).reshape(-1, 2)
        distinct[:, n - 10 :] = np.unpackbits(index, axis=1)[:, 6:]
    repeated = np.repeat(rng.integers(0, 2, (1, n), dtype=np.uint8), shots, axis=0)
    pool = rng.integers(0, 2, (7, n), dtype=np.uint8)
    pooled = pool[rng.integers(0, len(pool), shots)]
    shared = min(64, n - 1)
    tails = rng.integers(0, 2, (9, n), dtype=np.uint8)
    tails[:, :shared] = tails[0, :shared]
    late = tails[rng.integers(0, len(tails), shots)]
    return {"distinct": distinct, "repeated": repeated, "pooled": pooled, "late": late}


class TestDedup:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 200])
    def test_matches_void_reference(self, n):
        rng = np.random.default_rng(n)
        for kind, bits in dedup_records(n, rng).items():
            packed = np.packbits(bits, axis=1)
            before = packed.copy()
            table = CountsTable._from_shots(packed, n)
            rows, counts = reference_dedup(before)
            assert np.array_equal(packed, before), kind  # the record is not changed
            assert table._packed.dtype == np.uint8 and table._packed.flags.c_contiguous, kind
            assert np.array_equal(table._packed, rows), kind
            assert table._weights.dtype == np.int64, kind
            assert np.array_equal(table._weights, counts), kind
            if kind == "distinct":
                assert len(table) == len(bits), kind
            if kind == "repeated":
                assert table._weights.tolist() == [len(bits)], kind

    def test_low_entropy_record_peak(self):
        """Deduplicating 8 MiB of rows drawn from a pool of 16, so every row
        ties on its first word and is re-sorted on the next one, peaks at no
        more than 7 times the record, the record included."""
        n = 65
        rng = np.random.default_rng(1)
        pool = np.packbits(rng.integers(0, 2, (16, n), dtype=np.uint8), axis=1)
        record = pool[rng.integers(0, len(pool), -(-(8 << 20) // pool.shape[1]))]
        CountsTable._from_shots(record[:10], n)
        tracemalloc.start()
        try:
            table = CountsTable._from_shots(record, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 16
        assert record.nbytes + peak <= 7 * record.nbytes


class TestTally:
    def test_all_zero_shots(self):
        t = tally(CountsTable({"00": 3}))
        assert t.zeros.tolist() == [3, 3]
        assert t.ones.tolist() == [0, 0]
        assert t.shots == 3

    def test_hand_count(self):
        t = tally(CountsTable({"01": 2, "11": 1}))
        assert t.zeros.tolist() == [2, 0]
        assert t.ones.tolist() == [1, 3]
        assert t.shots == 3

    def test_symmetric_tie(self):
        t = tally(CountsTable({"1": 5, "0": 5}))
        assert t.zeros.tolist() == [5]
        assert t.ones.tolist() == [5]
        assert t.shots == 10

    def test_counts_sum_per_qubit(self):
        rng = np.random.default_rng(5)
        keys = {"".join(rng.choice(["0", "1"], size=8)): int(c) for c in rng.integers(1, 9, 40)}
        t = tally(CountsTable(keys))
        assert np.all(t.zeros + t.ones == t.shots)

    def test_matches_integer_reference(self):
        """Tallies equal the int64 product of the counts with the bit
        matrix, up to a 2**53 shot total."""
        rng = np.random.default_rng(6)
        for n in (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 200):
            keys = {"".join(rng.choice(["0", "1"], size=n)) for _ in range(300)}
            tables = [
                CountsTable({k: int(rng.integers(1, 50)) for k in keys}, n=n),
                CountsTable(dict(zip(sorted(keys), [2**53 - len(keys) + 1] + [1] * len(keys))), n=n),
            ]
            for table in tables:
                bits, weights = table.as_arrays()
                t = tally(table)
                assert t.ones.tolist() == (weights @ bits.astype(np.int64)).tolist()
                assert t.zeros.tolist() == (table.shots - weights @ bits.astype(np.int64)).tolist()

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_regrouping_invariance(self, seed):
        """Splitting the shot multiset across two tables and adding the
        tallies must reproduce the single-table tally exactly."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        words = ["".join(rng.choice(["0", "1"], size=n)) for _ in range(6)]
        counts = {w: int(rng.integers(2, 10)) for w in set(words)}
        whole = tally(CountsTable(counts))
        first = {w: 1 for w in counts}
        rest = {w: c - 1 for w, c in counts.items() if c > 1}
        a, b = tally(CountsTable(first)), tally(CountsTable(rest))
        merged = VoteTally(zeros=a.zeros + b.zeros, ones=a.ones + b.ones)
        assert merged == whole


class TestVoteTally:
    def test_inconsistent_totals_rejected(self):
        with pytest.raises(ValidationError):
            VoteTally(zeros=np.array([3, 2]), ones=np.array([1, 1]))

    def test_frequencies(self):
        t = VoteTally(zeros=np.array([7, 2]), ones=np.array([3, 8]))
        np.testing.assert_allclose(t.margins, [0.4, 0.6])

    def test_arrays_read_only(self):
        t = VoteTally(zeros=np.array([1]), ones=np.array([0]))
        with pytest.raises(ValueError):
            t.zeros[0] = 9


def test_complement_roundtrip():
    assert complement("0110") == "1001"
    assert complement(complement("0110")) == "0110"


@pytest.mark.parametrize("bits", ["012", "", "01 ", 5, None, b"01"])
def test_complement_refuses_what_is_not_a_bitstring(bits):
    with pytest.raises(ValidationError):
        complement(bits)


@pytest.mark.parametrize(
    "use",
    [
        tally,
        mode_estimate,
        lambda counts: ml_bruteforce(counts, NoiseModel.uniform(2, 0.1)),
        lambda counts: map_estimate(counts, NoiseModel.uniform(2, 0.1), Prior.uniform(2)),
        sliding_window_antipodal,
        serialize_counts,
    ],
)
def test_a_mapping_is_refused_where_a_counts_table_is_expected(use):
    with pytest.raises(ValidationError, match="expected a CountsTable, got dict"):
        use({"01": 3})


def test_write_counts_refuses_a_mapping_before_opening_the_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"kept")
    with pytest.raises(ValidationError, match="expected a CountsTable, got dict"):
        write_counts(path, {"01": 3})
    assert path.read_bytes() == b"kept"
