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
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import MAX_QUBITS, MAX_SHOTS, CountsTable, _pack_entries, _Rows
from .errors import CountsFormatError, ValidationError

SCHEMA_VERSION = "1"

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
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
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
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _schema_error(f"counts document is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise _schema_error(f"counts document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _schema_error("counts document must be a JSON object")
    unknown = set(doc) - set(_REQUIRED_FIELDS)
    if unknown:
        raise _schema_error(f"unknown fields {sorted(unknown)} are not allowed")
    missing = [f for f in _REQUIRED_FIELDS if f not in doc]
    if missing:
        raise _schema_error(f"missing required fields {missing}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise _schema_error(
            f"field 'schema_version' must be {SCHEMA_VERSION!r}, got {doc['schema_version']!r}"
        )
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise _schema_error(f"field 'n' must be a positive integer, got {n!r}")
    shots = doc["shots"]
    if not isinstance(shots, int) or isinstance(shots, bool) or shots < 1:
        raise _schema_error(f"field 'shots' must be a positive integer, got {shots!r}")
    if shots > MAX_SHOTS:
        raise _schema_error(f"field 'shots' is {shots}, more than 2**53")
    raw = doc["counts"]
    if not isinstance(raw, dict) or not raw:
        raise _schema_error("field 'counts' must be a non-empty object")
    keys, values = list(raw), list(raw.values())
    if n > MAX_QUBITS:
        # Too wide for a table: reported after any fault in the entries or their
        # sum. Checking the keys first keeps the packing below smaller than them.
        for key, count in zip(keys, values):
            _check_entry(key, count, n)
        if sum(values) == shots:
            raise ValidationError(f"bitstring has {n} qubits, maximum is {MAX_QUBITS}")
    right = bit_order == "right"
    packed, weights, total = _pack_entries(keys, values, n, _check_entry, reverse=right)
    if total != shots:
        raise CountsFormatError(
            f"field 'shots' declares {shots} but counts sum to {total}",
            code="SUM_MISMATCH",
        )
    return CountsTable(_Rows(packed, weights), n=n)


def serialize_counts(table: CountsTable) -> str:
    """Render a counts table as the canonical document: what
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` gives, written
    straight from the table's key-ordered entries (bitstring keys need no
    escaping)."""
    entries = zip(table._decode(table._packed), table._weights.tolist())
    counts = ",\n".join(f'    "{key}": {count}' for key, count in entries)
    return (
        f'{{\n  "counts": {{\n{counts}\n  }},\n  "n": {table.n},\n'
        f'  "schema_version": "{SCHEMA_VERSION}",\n  "shots": {table.shots}\n}}\n'
    )


def load_counts(path: str | Path, bit_order: str = "left") -> CountsTable:
    return parse_counts(Path(path).read_bytes(), bit_order=bit_order)


def write_counts(path: str | Path, table: CountsTable) -> None:
    Path(path).write_text(serialize_counts(table), encoding="utf-8")
