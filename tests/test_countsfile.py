"""Tests for the counts-file schema: strict parsing, error codes, round trips."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmvote import (
    CountsFormatError,
    CountsTable,
    NoiseModel,
    ValidationError,
    complement,
    parse_counts,
    serialize_counts,
    simulate_shots,
    tally,
)
from qmvote import core, countsfile
from qmvote.countsfile import load_counts, write_counts


def doc(**overrides):
    base = {
        "schema_version": "1",
        "n": 2,
        "shots": 3,
        "counts": {"01": 2, "11": 1},
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseCounts:
    def test_minimal_valid_file(self):
        table = parse_counts(doc())
        assert table.n == 2
        assert table.shots == 3
        assert table["01"] == 2

    def test_accepts_bytes(self):
        assert parse_counts(doc().encode()) == parse_counts(doc())

    def test_sum_mismatch_code(self):
        with pytest.raises(CountsFormatError) as err:
            parse_counts(doc(shots=5))
        assert err.value.code == "SUM_MISMATCH"
        assert "shots" in str(err.value)

    def test_length_mismatch_code(self):
        with pytest.raises(CountsFormatError) as err:
            parse_counts(doc(counts={"011": 3}))
        assert err.value.code == "LENGTH_MISMATCH"

    def test_unknown_field_rejected(self):
        with pytest.raises(CountsFormatError) as err:
            parse_counts(doc(comment="hello"))
        assert err.value.code == "SCHEMA"
        assert "comment" in str(err.value)

    def test_missing_field_rejected(self):
        raw = json.loads(doc())
        del raw["shots"]
        with pytest.raises(CountsFormatError) as err:
            parse_counts(json.dumps(raw))
        assert err.value.code == "SCHEMA"

    def test_wrong_version_rejected(self):
        with pytest.raises(CountsFormatError) as err:
            parse_counts(doc(schema_version="2"))
        assert err.value.code == "SCHEMA"

    def test_bad_documents_rejected(self):
        for bad in ["not json", "[1,2]", doc(n=0), doc(n="2"), doc(shots=True)]:
            with pytest.raises(CountsFormatError):
                parse_counts(bad)

    def test_deeply_nested_document_rejected(self):
        with pytest.raises(CountsFormatError) as err:
            parse_counts("[" * 200_000)
        assert err.value.code == "SCHEMA"

    def test_bad_counts_rejected(self):
        for counts in [{"01": 0}, {"01": -2}, {"01": 1.5}, {"01": True}, {"0b": 1}, {}]:
            with pytest.raises(CountsFormatError):
                parse_counts(doc(counts=counts, shots=1))

    def test_right_bit_order_reverses_keys(self):
        table = parse_counts(doc(counts={"01": 2, "11": 1}), bit_order="right")
        assert table["10"] == 2
        assert table["11"] == 1

    def test_bad_bit_order(self):
        with pytest.raises(CountsFormatError):
            parse_counts(doc(), bit_order="middle")


class TestSerializeCounts:
    def test_canonical_output_sorted(self):
        text = serialize_counts(CountsTable({"11": 1, "01": 2}))
        parsed = json.loads(text)
        assert list(parsed["counts"]) == ["01", "11"]
        assert parsed["schema_version"] == "1"

    def test_roundtrip_identity_random_tables(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            distinct = int(rng.integers(1, 8))
            entries = {}
            for _ in range(distinct):
                key = "".join(rng.choice(["0", "1"], size=n))
                entries[key] = int(rng.integers(1, 1000))
            table = CountsTable(entries, n=n)
            assert parse_counts(serialize_counts(table)) == table

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127])
    def test_matches_json_dumps(self, n):
        """The document is written by hand; it must be the bytes json.dumps
        gives for the same table."""
        rng = np.random.default_rng(n)
        truth = ("10" * n)[:n]
        simulated = simulate_shots(truth, NoiseModel.uniform(n, 0.3), 600, n)
        shuffled = list(simulated.items())
        rng.shuffle(shuffled)
        tables = [
            simulated,
            CountsTable(dict(shuffled)),
            CountsTable({truth: 5}),
            CountsTable({complement(truth): 1, truth: 2**53 - 1}),
        ]
        for table in tables:
            expected = reference_serialize(dict(table.counts), table.n, table.shots)
            assert serialize_counts(table).encode() == expected

    def test_file_roundtrip(self, tmp_path):
        table = CountsTable({"010": 4, "111": 1})
        path = tmp_path / "counts.json"
        write_counts(path, table)
        assert load_counts(path) == table


# --- Reference: entry-by-entry validation -----------------------------------
# Frozen copies of the entry loop of parse_counts and of the validating
# CountsTable constructor as they were before both shared one block-vectorised
# pass: every entry is checked in Python, in document order, and the parsed
# entries are checked a second time by the constructor. The tests below
# require the same tables and the same errors (class, code and message) from
# the vectorised pass.

REF_MAX_QUBITS = 4096


def reference_validate_bitstring(bits):
    if not isinstance(bits, str):
        raise ValidationError(f"bitstring must be a str, got {type(bits).__name__}")
    if not bits or set(bits) - {"0", "1"}:
        raise ValidationError(f"bitstring must be a non-empty string over 0/1, got {bits!r}")
    if len(bits) > REF_MAX_QUBITS:
        raise ValidationError(f"bitstring has {len(bits)} qubits, maximum is {REF_MAX_QUBITS}")


def reference_table(counts, n=None):
    """The constructor's checks; returns (entries, n, shots)."""
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
        reference_validate_bitstring(key)
        if len(key) != n:
            raise ValidationError(
                f"inconsistent key length: {key!r} has {len(key)} bits, expected {n}"
            )
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValidationError(f"count for {key!r} must be a positive integer, got {count!r}")
        total += count
    return items, n, total


def reference_parse(data, bit_order="left"):
    def schema(message):
        return CountsFormatError(message, code="SCHEMA")

    if bit_order not in ("left", "right"):
        raise schema(f"bit_order must be one of ('left', 'right'), got {bit_order!r}")
    doc = json.loads(data)
    n, shots, raw = doc["n"], doc["shots"], doc["counts"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise schema(f"field 'n' must be a positive integer, got {n!r}")
    if not isinstance(shots, int) or isinstance(shots, bool) or shots < 1:
        raise schema(f"field 'shots' must be a positive integer, got {shots!r}")
    if not isinstance(raw, dict) or not raw:
        raise schema("field 'counts' must be a non-empty object")
    entries = {}
    total = 0
    for key, count in raw.items():
        if not isinstance(key, str) or set(key) - {"0", "1"}:
            raise schema(f"counts key {key!r} is not a bitstring")
        if len(key) != n:
            raise CountsFormatError(
                f"counts key {key!r} has {len(key)} bits, field 'n' declares {n}",
                code="LENGTH_MISMATCH",
            )
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise schema(f"count for {key!r} must be a positive integer, got {count!r}")
        entries[key if bit_order == "left" else key[::-1]] = count
        total += count
    if total != shots:
        raise CountsFormatError(
            f"field 'shots' declares {shots} but counts sum to {total}", code="SUM_MISMATCH"
        )
    return reference_table(entries, n=n)


def reference_serialize(entries, n, shots):
    doc = {
        "schema_version": "1",
        "n": n,
        "shots": shots,
        "counts": {k: entries[k] for k in sorted(entries)},
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def outcome(fn, *args, **kwargs):
    """The value returned, or (class, code, message) of the error raised."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        return type(exc), exc.code, str(exc)


def key_bits(keys, n):
    return np.array([[int(c) for c in k] for k in keys], dtype=np.uint8).reshape(len(keys), n)


def assert_table_matches(table, entries, n, shots):
    """``table`` holds ``entries`` (in any order) in key order."""
    keys = sorted(entries)
    counts = [entries[k] for k in keys]
    assert (table.n, table.shots, len(table)) == (n, shots, len(entries))
    assert list(table.counts) == keys
    assert list(table.items()) == list(zip(keys, counts))
    bits, weights = table.as_arrays()
    assert np.array_equal(bits, key_bits(keys, n))
    assert weights.dtype == np.int64 and weights.tolist() == counts
    if shots <= 100_000:  # the simulator's path builds it from one row per shot
        shots_rows = np.packbits(np.repeat(key_bits(keys, n), counts, axis=0), axis=1)
        assert table == CountsTable._from_shots(shots_rows, n)
        assert CountsTable._from_shots(shots_rows, n) == table
    assert table == CountsTable(entries, n=n)
    bumped = dict(entries, **{keys[-1]: counts[-1] + 1})
    assert table != CountsTable(bumped, n=n)
    assert serialize_counts(table).encode() == reference_serialize(entries, n, shots)


def random_entries(rng, n, distinct):
    keys = {"".join(rng.choice(["0", "1"], size=n)) for _ in range(distinct)}
    return {k: int(rng.integers(1, 6)) for k in sorted(keys, key=lambda _: rng.random())}


def counts_doc(entries, n, shots=None):
    shots = sum(entries.values()) if shots is None else shots
    return json.dumps({"schema_version": "1", "n": n, "shots": shots, "counts": entries})


def place(entries, position, key, count):
    """entries with (key, count) inserted first, in the middle or last."""
    items = list(entries.items())
    at = {"first": 0, "middle": len(items) // 2, "last": len(items)}[position]
    items.insert(at, (key, count))
    return items


def items_doc(items, n, shots):
    body = ", ".join(f"{json.dumps(k)}: {json.dumps(c)}" for k, c in items)
    return (
        f'{{"schema_version": "1", "n": {n}, "shots": {shots}, "counts": {{{body}}}}}'
    )


# Entries are checked in blocks of about this many key characters, and
# canonical files read and written in blocks of about this many bytes; None
# keeps the defaults. 600 puts a few lines in each block, so the lines of a
# block before the last entry line are read by stride where they share one
# length. 20 puts every few entries in a block of their own, and writes
# every entry line as a block of its own.
BLOCK_CHARS = [None, 600, 20]


@pytest.fixture(params=BLOCK_CHARS, ids=["default-blocks", "line-blocks", "small-blocks"])
def block_chars(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(core, "_PACK_BLOCK_CHARS", request.param)
        monkeypatch.setattr(countsfile, "_BLOCK_BYTES", request.param)
    return request.param


class TestDifferentialAgainstEntryLoop:
    @pytest.mark.parametrize("bit_order", ["left", "right"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127])
    def test_valid_documents(self, block_chars, n, bit_order):
        rng = np.random.default_rng(n)
        for distinct in (1, 5, 40, 2500 if n == 127 else 60):
            entries = random_entries(rng, n, distinct)
            for big in (False, True):
                if big:  # a count beyond 32 bits
                    entries[next(iter(entries))] = 2**40 + 3
                data = counts_doc(entries, n)
                ref_entries, ref_n, ref_shots = reference_parse(data, bit_order)
                table = parse_counts(data, bit_order=bit_order)
                assert_table_matches(table, ref_entries, ref_n, ref_shots)

    BAD_COUNTS = [0, -3, 1.5, True, False, "4", None, [1]]

    @staticmethod
    def bad_keys(n):
        return [
            "x" + "0" * (n - 1),
            "0" * (n + 1),
            "0" * (n - 1),
            "é" + "1" * (n - 1),
            "0é",
            " " + "1" * (n - 1),
            "\u0000" + "1" * (n - 1),
        ]

    @pytest.mark.parametrize("bit_order", ["left", "right"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127])
    def test_one_bad_entry(self, block_chars, n, position, bit_order):
        entries = random_entries(np.random.default_rng(n), n, 12)
        good_key = "1" * n
        cases = [(key, 2) for key in self.bad_keys(n)] + [(good_key, c) for c in self.BAD_COUNTS]
        for key, count in cases:
            items = place({k: c for k, c in entries.items() if k != key}, position, key, count)
            data = items_doc(items, n, sum(entries.values()) + 2)
            expected = outcome(reference_parse, data, bit_order)
            assert isinstance(expected, tuple), (key, count)
            assert outcome(parse_counts, data, bit_order=bit_order) == expected

    @pytest.mark.parametrize("key_fault_first", [True, False])
    def test_first_of_two_faults_is_reported(self, block_chars, key_fault_first):
        n = 9
        entries = list(random_entries(np.random.default_rng(2), n, 30).items())
        for key_fault in ["0" * 8, "01a" + "0" * 6, "1" * 10]:
            for count in (0, 1.5, "3", True):
                bad_key, bad_count = (key_fault, 1), ("1" * 9, count)
                lo, hi = (bad_key, bad_count) if key_fault_first else (bad_count, bad_key)
                items = [e for e in entries if e[0] not in (key_fault, "1" * 9)]
                items.insert(len(items) // 3, lo)
                items.insert(2 * len(items) // 3, hi)
                data = items_doc(items, n, 10**6)
                expected = outcome(reference_parse, data)
                assert outcome(parse_counts, data) == expected
                message = expected[2]
                assert (key_fault in message) == key_fault_first

    def test_faults_in_every_position_of_a_long_document(self, block_chars):
        n = 127
        entries = list(random_entries(np.random.default_rng(3), n, 3000).items())
        for at in (0, 1, 1500, 2063, 2064, 2999):
            for fault in [("2" + "0" * 126, 1), ("0" * 126, 1), (entries[at][0], 0)]:
                items = list(entries)
                items[at] = fault
                data = items_doc(items, n, 10**6)
                assert outcome(parse_counts, data) == outcome(reference_parse, data)

    def test_mixed_lengths(self, block_chars):
        for keys in (["01", "011", "0"], ["011", "01"], ["10", "1", "11"]):
            items = [(k, 1) for k in keys]
            data = items_doc(items, 2, len(keys))
            expected = outcome(reference_parse, data)
            assert expected[1] == "LENGTH_MISMATCH"
            assert outcome(parse_counts, data) == expected

    def test_sum_mismatch(self, block_chars):
        data = counts_doc({"01": 2, "11": 1}, 2, shots=4)
        expected = outcome(reference_parse, data)
        assert expected[1] == "SUM_MISMATCH"
        assert outcome(parse_counts, data) == expected

    def test_more_qubits_than_supported(self, block_chars):
        n = REF_MAX_QUBITS + 1
        key = "01" * (n // 2) + "1"
        docs = [
            counts_doc({key: 3}, n),  # well formed: only too wide
            counts_doc({key: 3}, n, shots=4),  # and a wrong sum
            items_doc([(key, 3), (key[:-1] + "x", 1)], n, 4),  # and a bad key
            items_doc([(key, 0)], n, 1),  # and a bad count
            counts_doc({"01": 3}, n),  # keys shorter than n
            counts_doc({"01": 3}, 10**15),  # far too wide for any key
        ]
        for data in docs:
            expected = outcome(reference_parse, data)
            assert isinstance(expected, tuple)
            assert outcome(parse_counts, data) == expected
            assert outcome(parse_counts, data, bit_order="right") == expected
        assert outcome(parse_counts, docs[0])[0] is ValidationError

    def test_mapping_constructor(self, block_chars):
        class Count(int):
            pass

        good = {"0110": 3, "1011": Count(2), "0000": 2**53 - 10}
        valid = [(good, None), (good, 4), ({"1": 1}, None)]
        bad = [
            ({"01": 1, "011": 1}, None),
            ({"01": 1, "0x": 1}, None),
            ({"01": 1, 5: 1}, None),
            ({"01": 1, b"01": 1}, None),
            ({"01": 1, "": 1}, None),
            ({"01": 1, "0é": 1}, None),
            ({"01": 1, "10": 0}, None),
            ({"01": 1, "10": 1.5}, None),
            ({"01": True}, None),
            ({"01": "3"}, None),
            ({"01": 1}, 3),
            ({"01": 1}, 0),
            ({"01": 1}, -2),
            ({"01": 1}, REF_MAX_QUBITS + 1),
            ({"0" * (REF_MAX_QUBITS + 1): 1}, None),
            ({"": 1}, None),
            ({5: 1}, None),
            ({}, None),
            ({"01": 1, "10x": 0, "11": "x"}, None),
            ({"01": 1, "11": "x", "10x": 0}, None),
        ]
        for mapping, n in valid:
            entries, ref_n, shots = reference_table(mapping, n)
            assert_table_matches(CountsTable(mapping, n=n), entries, ref_n, shots)
        for mapping, n in bad:
            expected = outcome(reference_table, mapping, n)
            assert isinstance(expected, tuple), mapping
            assert outcome(CountsTable, mapping, n) == expected


class TestOneKeyOrder:
    """Entry order carries no information, so every source of the same
    multiset gives the same table, held in key order."""

    @pytest.mark.parametrize("n", [1, 11, 127])
    def test_every_source_gives_one_table(self, n):
        rng = np.random.default_rng(n)
        entries = random_entries(rng, n, 300)
        ordered = dict(sorted(entries.items()))
        if list(entries) == list(ordered):  # keep the mapping out of key order
            entries = dict(reversed(entries.items()))
        assert list(entries) != list(ordered)
        keys, counts = list(entries), list(entries.values())
        rows = np.packbits(np.repeat(key_bits(keys, n), counts, axis=0), axis=1)
        tables = [
            CountsTable(entries, n=n),
            CountsTable(ordered, n=n),
            parse_counts(counts_doc(entries, n)),
            parse_counts(counts_doc({k[::-1]: c for k, c in entries.items()}, n), bit_order="right"),
            CountsTable._from_shots(rows[rng.permutation(len(rows))], n),
        ]
        text = serialize_counts(tables[0])
        assert text.encode() == reference_serialize(entries, n, sum(counts))
        for table in tables:
            assert list(table.items()) == list(ordered.items())
            bits, weights = table.as_arrays()
            assert np.array_equal(bits, key_bits(list(ordered), n))
            assert weights.tolist() == list(ordered.values())
            assert all(table == other for other in tables)
            assert serialize_counts(table) == text


class TestShotLimit:
    """Tallies sum counts exactly in float64, so a table holds at most 2**53 shots."""

    def test_file_counts_beyond_limit_rejected(self):
        for counts, shots in [
            ({"01": 2**63}, 2**63),
            ({"01": 2**53 + 1}, 2**53 + 1),
            ({"01": 2**62, "11": 2**62}, 2**53),
            ({"01": 2**53 + 1, "11": 1}, 2**53),
        ]:
            with pytest.raises(CountsFormatError) as err:
                parse_counts(counts_doc(counts, 2, shots))
            assert err.value.code == "SCHEMA"
            assert "2**53" in str(err.value)

    def test_mapping_counts_beyond_limit_rejected(self):
        for counts in [
            {"01": 2**53 + 1},
            {"01": 2**63},
            {"01": 2**53, "11": 1},
            {"0": 2**52, "1": 2**52 + 1},
            {"0": 2**53, "1": 2**53},
        ]:
            with pytest.raises(ValidationError, match=r"2\*\*53"):
                CountsTable(counts)

    def test_limit_itself_is_tallied_exactly(self):
        for table in [
            parse_counts(counts_doc({"01": 2**53 - 1, "11": 1}, 2)),
            CountsTable({"01": 2**53 - 1, "11": 1}),
        ]:
            assert table.shots == 2**53
            votes = tally(table)
            assert votes.ones.tolist() == [1, 2**53]
            assert votes.zeros.tolist() == [2**53 - 1, 0]


# --- The canonical reader ----------------------------------------------------
# parse_counts reads the layout serialize_counts writes straight from its
# bytes and hands every other document to json. The tests below compare it
# with the json path alone, and with the frozen entry loop above.


def json_path(data, bit_order="left"):
    """parse_counts with the canonical reader switched off."""
    with mock.patch.object(countsfile, "_read_canonical", lambda data, reverse: None):
        return parse_counts(data, bit_order=bit_order)


def reads_canonical(data, bit_order="left"):
    return countsfile._read_canonical(data, reverse=bit_order == "right") is not None


def random_keys(rng, n, distinct):
    keys = set()
    while len(keys) < min(distinct, 2**n):
        keys.add("".join(rng.choice(["0", "1"], size=n)))
    return sorted(keys, key=lambda _: rng.random())


def width_tables(rng, n):
    """Tables whose counts all have w digits, for w = 1..16; one with a count
    of each width; one whose only count is 2**53."""
    tables = []
    for width in range(1, 17):
        keys = random_keys(rng, n, 5)
        high = min(10**width - 1, core.MAX_SHOTS // len(keys))
        tables.append({k: int(rng.integers(10 ** (width - 1), high + 1)) for k in keys})
    if 2**n >= 16:
        tables.append({k: 10**w for w, k in enumerate(random_keys(rng, n, 16))})
    tables.append({random_keys(rng, n, 1)[0]: core.MAX_SHOTS})
    return [CountsTable(t, n=n) for t in tables]


class TestCanonicalReader:
    @pytest.mark.parametrize("bit_order", ["left", "right"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 127, 4096])
    def test_canonical_documents_read_as_json_reads_them(self, block_chars, n, bit_order):
        rng = np.random.default_rng(n)
        for table in width_tables(rng, n):
            data = serialize_counts(table).encode()
            assert reads_canonical(data, bit_order)
            got = parse_counts(data, bit_order=bit_order)
            assert got == json_path(data, bit_order)
            assert got == parse_counts(data.decode(), bit_order=bit_order)
            entries, ref_n, shots = reference_parse(data, bit_order)
            assert got == CountsTable(entries, n=ref_n) and got.shots == shots
            if bit_order == "left":
                assert got == table

    @pytest.mark.parametrize("bit_order", ["left", "right"])
    def test_one_entry_and_100k_entries(self, bit_order):
        n = 127
        truth = ("10" * n)[:n]
        tables = [
            CountsTable({truth: 5}),
            simulate_shots(truth, NoiseModel.uniform(n, 0.3), 100_000, 3),
        ]
        assert len(tables[1]) > 99_000
        for table in tables:
            data = serialize_counts(table).encode()
            assert reads_canonical(data, bit_order)
            got = parse_counts(data, bit_order=bit_order)
            assert got == json_path(data, bit_order)
            if bit_order == "left":
                assert got == table

    @pytest.mark.parametrize("bit_order", ["left", "right"])
    def test_every_one_byte_edit(self, bit_order):
        data = serialize_counts(CountsTable({"001": 7, "010": 30, "110": 1})).encode()
        alphabet = sorted(set(data) | set(b"\r\t\x00\x7f\xff29-+.eE\\/ab"))
        edits = set()
        for i in range(len(data) + 1):
            edits.update(data[:i] + bytes([c]) + data[i:] for c in alphabet)
            if i < len(data):
                edits.update(data[:i] + bytes([c]) + data[i + 1 :] for c in alphabet)
                edits.add(data[:i] + data[i + 1 :])
        edits.discard(data)
        read = 0
        for edit in edits:
            got = outcome(parse_counts, edit, bit_order=bit_order)
            assert got == outcome(json_path, edit, bit_order), edit
            read += reads_canonical(edit, bit_order)
            try:
                expected = outcome(reference_parse, edit, bit_order)
            except (ValueError, KeyError, TypeError, AttributeError):
                continue  # json cannot read it, or a field the reference reads is missing
            if isinstance(expected[0], dict):  # a table; parse_counts also checks the version
                entries, n, _ = expected
                assert got == CountsTable(entries, n=n) or got[1] == "SCHEMA", edit
            else:
                assert got == expected, edit
        # edits that keep the layout: a key bit, a count digit with shots, ...
        assert 0 < read < len(edits) // 10

    def test_named_deviations(self, block_chars):
        table = CountsTable({"010": 3, "011": 12, "110": 1})
        data = serialize_counts(table).encode()
        cases = {
            "leading zero": (data.replace(b'"010": 3,', b'"010": 03,'), "SCHEMA"),
            # ":" follows "9"; read as a digit, "1:" would be 20, which the shots match
            "colon in a count": (
                data.replace(b'"010": 3,', b'"010": 1:,').replace(b": 16\n", b": 33\n"),
                "SCHEMA",
            ),
            "count 0": (reference_serialize({"010": 0, "011": 12}, 3, 12), "SCHEMA"),
            "count 2**53 + 1": (
                reference_serialize({"010": 2**53 + 1, "011": 1}, 3, 2**53),
                "SCHEMA",
            ),
            # a line longer than any canonical line, and than a small block
            "17-digit count": (reference_serialize({"010": 10**16, "011": 1}, 3, 5), "SCHEMA"),
            # json keeps the last of two equal keys, so the counts no longer add up
            "duplicate key": (data.replace(b'"011"', b'"010"'), "SUM_MISMATCH"),
            # read from its bytes: the table sorts its keys
            "unsorted keys": (
                data.replace(b'"010": 3,\n    "011": 12', b'"011": 12,\n    "010": 3'),
                table,
            ),
            "CRLF line ends": (data.replace(b"\n", b"\r\n"), table),
            "BOM": (b"\xef\xbb\xbf" + data, "SCHEMA"),
            "BOM in text": ("\ufeff" + data.decode(), "SCHEMA"),
            "stray 0xff": (b"\xff" + data, "SCHEMA"),
            "UTF-16": (data.decode().encode("utf-16"), "SCHEMA"),
            "UTF-16 without BOM": (data.decode().encode("utf-16-le"), "SCHEMA"),
            "no final newline": (data[:-1], table),
            "non-ASCII text": (data.decode().replace("{", "{\u00a0", 1), "SCHEMA"),
        }
        for name, (document, expected) in cases.items():
            raw = document.encode() if isinstance(document, str) else document
            assert raw != data and reads_canonical(raw) == (name == "unsorted keys"), name
            got = outcome(parse_counts, document)
            assert got == outcome(json_path, document), name
            if isinstance(expected, CountsTable):
                assert got == expected, name
            else:
                assert got[:2] == (CountsFormatError, expected), (name, got)
        assert "more than 2**53" in outcome(parse_counts, cases["count 2**53 + 1"][0])[2]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_entry_lines_in_any_order_read_as_json_reads_them(self, draw):
        n = draw.draw(st.integers(1, 70), label="n")
        values = draw.draw(st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=min(40, 2**n)))
        # counts of every width from 1 to 8 digits
        count = st.integers(0, 7).flatmap(lambda e: st.integers(10**e, min(10 ** (e + 1) - 1, 10**7)))
        entries = {format(v, f"0{n}b"): draw.draw(count) for v in sorted(values)}
        data = serialize_counts(CountsTable(entries, n=n)).encode()
        end = data.rindex(countsfile._TAIL[0])
        lines = data[len(countsfile._HEAD) : end].split(b",\n")
        lines = draw.draw(st.permutations(lines), label="lines")
        shots = sum(entries.values())
        repeat = draw.draw(st.booleans(), label="repeat")
        if repeat:  # one key again, anywhere, with a count of its own
            key = lines[draw.draw(st.integers(0, len(lines) - 1))].split(b'": ')[0]
            extra = draw.draw(count)
            lines.insert(draw.draw(st.integers(0, len(lines))), b'%s": %d' % (key, extra))
            # the sum of every line, which the bytes reader checks, or the sum
            # of json's entries, the last of the two equal keys kept
            last = int([line for line in lines if line.startswith(key + b'"')][-1].split(b": ")[1])
            shots += draw.draw(st.sampled_from([extra, last - entries[key[5:].decode()]]))
        document = b"%s%s%s%d%s%d%s" % (
            countsfile._HEAD, b",\n".join(lines), countsfile._TAIL[0], n, countsfile._TAIL[1],
            shots, countsfile._TAIL[2],
        )
        block = draw.draw(st.sampled_from([20, 64, 600]), label="block bytes")
        with mock.patch.object(countsfile, "_BLOCK_BYTES", block):
            for bit_order in ["left", "right"]:
                got = outcome(parse_counts, document, bit_order=bit_order)
                assert got == outcome(json_path, document, bit_order)
                assert got == outcome(parse_counts, document.decode(), bit_order=bit_order)
                assert reads_canonical(document, bit_order) == (not repeat)
                if not repeat:
                    flip = (lambda k: k[::-1]) if bit_order == "right" else (lambda k: k)
                    assert got == CountsTable({flip(k): c for k, c in entries.items()}, n=n)

    def test_no_temporary_grows_with_the_file(self):
        n = 127
        table = simulate_shots(("10" * n)[:n], NoiseModel.uniform(n, 0.3), 100_000, 4)
        data = serialize_counts(table).encode()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            parsed = parse_counts(data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert parsed == table
        # the table's rows and counts take 2.4 MB; one byte per file byte is 13.8 MB
        assert peak < 10e6, peak
        assert len(data) > 13e6

    def test_text_in_another_layout_is_not_copied(self):
        """A str document in another layout reaches json with no copy of it
        made on the way."""
        n = 127
        table = simulate_shots(("10" * n)[:n], NoiseModel.uniform(n, 0.3), 20_000, 4)
        text = json.dumps(json.loads(serialize_counts(table)))
        peaks, json_loads = [], json.loads

        def loads(data):
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return json_loads(data)

        with mock.patch.object(core.json, "loads", loads):  # where the shared reader calls it
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                parsed = parse_counts(text)
            finally:
                tracemalloc.stop()
        assert parsed == table
        assert len(text) > 2e6 and peaks[0] < 1e5, peaks

    @pytest.mark.parametrize("n", [1, 9, 127])
    def test_serialize_matches_json_dumps_for_every_width(self, block_chars, n):
        rng = np.random.default_rng(n + 1)
        tables = width_tables(rng, n)
        if n > 4:  # widths mixed at random inside and across blocks
            keys = random_keys(rng, n, 300)
            counts = 10 ** rng.uniform(0, 12, size=len(keys))
            tables.append(CountsTable({k: int(c) for k, c in zip(keys, counts)}, n=n))
        for table in tables:
            expected = reference_serialize(dict(table.counts), table.n, table.shots)
            assert serialize_counts(table).encode() == expected


PACKED_WIDTHS = [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 200]


def mixed_widths_table(rng, n):
    """Up to 300 keys whose counts have from 1 to 13 digits, mixed at random
    inside and across blocks."""
    keys = random_keys(rng, n, 300)
    counts = 10 ** rng.uniform(0, 12, size=len(keys))
    return CountsTable({k: int(c) for k, c in zip(keys, counts)}, n=n)


class TestWriteCounts:
    """write_counts writes the blocks that serialize_counts joins, one at a
    time."""

    @pytest.mark.parametrize("n", PACKED_WIDTHS)
    def test_written_bytes_are_the_canonical_document(self, block_chars, tmp_path, n):
        rng = np.random.default_rng(3000 + n)
        path = tmp_path / "counts.json"
        for table in [*width_tables(rng, n), mixed_widths_table(rng, n)]:
            write_counts(path, table)
            written = path.read_bytes()
            assert written == reference_serialize(dict(table.counts), table.n, table.shots)
            assert written == serialize_counts(table).encode("ascii")

    def test_write_holds_no_copy_of_the_document(self, tmp_path):
        n = 127
        table = simulate_shots(("10" * n)[:n], NoiseModel.uniform(n, 0.3), 100_000, 4)
        path = tmp_path / "counts.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_counts(path, table)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the document is 13.8 MB; one block of lines is about 1 MB
        assert path.stat().st_size > 13e6
        assert peak < 8e6, peak
        assert path.read_bytes() == serialize_counts(table).encode("ascii")

    def test_a_partial_file_is_refused(self):
        """A write that fails partway leaves a prefix of the document; every
        prefix short of the final newline is refused."""
        keys = random_keys(np.random.default_rng(5), 9, 12)
        data = serialize_counts(CountsTable({k: 10**i for i, k in enumerate(keys)})).encode()
        for end in range(len(data) - 1):
            assert outcome(parse_counts, data[:end])[:2] == (CountsFormatError, "SCHEMA"), end

    @pytest.mark.parametrize("bit_order", ["left", "right"])
    @pytest.mark.parametrize("n", PACKED_WIDTHS)
    def test_canonical_and_compact_files_read_to_one_table(self, tmp_path, n, bit_order):
        """A file in the canonical layout and one in a compact layout, with
        the entries shuffled, read as bytes or as text, give one table; only
        canonical bytes take the byte reader."""
        rng = np.random.default_rng(4000 + n)
        table = mixed_widths_table(rng, n)
        canonical, compact = tmp_path / "canonical.json", tmp_path / "compact.json"
        write_counts(canonical, table)
        doc = json.loads(canonical.read_bytes())
        doc["counts"] = dict(sorted(doc["counts"].items(), key=lambda _: rng.random()))
        compact.write_text(json.dumps(doc, separators=(",", ":")))
        flip = (lambda k: k[::-1]) if bit_order == "right" else (lambda k: k)
        expected = CountsTable({flip(k): c for k, c in table.items()}, n=n)
        for path in (canonical, compact):
            assert reads_canonical(path.read_bytes(), bit_order) == (path == canonical)
            assert load_counts(path, bit_order=bit_order) == expected
            assert parse_counts(path.read_text(), bit_order=bit_order) == expected


def spy(monkeypatch, name):
    """Wrap countsfile.<name>, recording each call's arguments and whether it
    returned None."""
    calls, real = [], getattr(countsfile, name)

    def wrapper(*args):
        result = real(*args)
        calls.append((args, result is None))
        return result

    monkeypatch.setattr(countsfile, name, wrapper)
    return calls


def line_length(n, width):
    """Bytes of an entry line with a ``width``-digit count, with its ",\\n"."""
    return len('    "') + n + len('": ') + width + 2


class TestStrideLines:
    """Blocks whose lines share one length are read through strided views;
    every other block by its newlines. Both must accept and refuse exactly
    what json does."""

    def test_every_one_byte_edit(self, monkeypatch):
        n, block = 4, 64
        monkeypatch.setattr(countsfile, "_BLOCK_BYTES", block)
        entries = {format(k, "04b"): 1 + k % 9 for k in range(1, 10)}
        data = serialize_counts(CountsTable(entries)).encode()
        per_block = block // line_length(n, 1)
        stride = spy(monkeypatch, "_stride_fields")
        assert reads_canonical(data)
        # every line but the last is read by stride, a block at a time
        assert [args[3] for args, _ in stride] == [per_block, per_block]
        # edits at every offset: its lead, key, separator, first digit, comma
        # and newline, in lines read by stride and in the last line
        alphabet = sorted(set(data) | set(b"\r\t\x00\x7f\xff29-+.eE\\/ab"))
        edits = set()
        for i in range(len(data) + 1):
            edits.update(data[:i] + bytes([c]) + data[i:] for c in alphabet)
            if i < len(data):
                edits.update(data[:i] + bytes([c]) + data[i + 1 :] for c in alphabet)
                edits.add(data[:i] + data[i + 1 :])
        edits.discard(data)
        stride.clear()
        read = 0
        for edit in edits:
            got = outcome(parse_counts, edit)
            assert got == outcome(json_path, edit), edit
            read += isinstance(got, CountsTable) and reads_canonical(edit)
        # some edits keep the layout (a key bit, a digit with the shots to
        # match); the stride path refused some and read others
        assert 0 < read < len(edits) // 10
        refused = [args for args, none in stride if none]
        assert refused and len(refused) < len(stride)

    @pytest.mark.parametrize("bit_order", ["left", "right"])
    def test_count_widths_change_mid_block_and_at_a_block_boundary(self, monkeypatch, bit_order):
        n, block = 9, 600
        monkeypatch.setattr(countsfile, "_BLOCK_BYTES", block)
        per_block = block // line_length(n, 1)
        # one-digit counts fill the first block exactly, so the widths change
        # at its end; later they change inside blocks
        widths = [1] * per_block + [2] * 15 + [3] * 40 + [1] * 20 + [5] * 3
        keys = random_keys(np.random.default_rng(9), n, len(widths))
        entries = {k: 10 ** (w - 1) + i % 9 for i, (k, w) in enumerate(zip(sorted(keys), widths))}
        data = serialize_counts(CountsTable(entries, n=n)).encode()
        stride, scan = spy(monkeypatch, "_stride_fields"), spy(monkeypatch, "_scan_fields")
        got = parse_counts(data, bit_order=bit_order)
        assert got == json_path(data, bit_order)
        ref_entries, ref_n, shots = reference_parse(data, bit_order)
        assert got == CountsTable(ref_entries, n=ref_n) and got.shots == shots
        assert stride[0][0][1:4] == (len(countsfile._HEAD), line_length(n, 1), per_block)
        assert len(stride) >= 2 and len(scan) >= 2
        assert not any(none for _, none in stride + scan)
