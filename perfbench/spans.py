"""Spans recorded from outside qmvote, and the per-layer metrics built from them.

The tracer replaces qmvote's public entry points with timing wrappers. A
function is bound under several module attributes (``experiment``, ``ams``,
``cli`` and ``estimators`` each do ``from .core import tally``; the package
``__init__`` re-exports everything), so every attribute of every loaded
``qmvote`` module that holds the original is swapped, and swapped back on
``uninstall``. Methods are wrapped on their class. Nothing under ``src/``
changes.

Only the entry points named in the metric table are wrapped. Per-key helpers
such as ``validate_bitstring`` run tens of thousands of times per op, and a
wrapper there would cost more than the call it measures.

Every work count below is computed by the benchmark from argument and result
sizes (for example ``entry_candidate_pairs`` = 2^n x distinct keys per
scan); none is read from inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# A span is [name, start, end, parent index, op index, counts or None].
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _table_init(args, kwargs, result):
    table = args[0]
    return {"distinct": len(table), "shots": table.shots}


def _scan_counts(counts):
    return {"candidates": 1 << counts.n, "pairs": (1 << counts.n) * len(counts)}


def _bound(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _ml_counts(fn):
    arguments = _bound(fn)
    return lambda args, kwargs, result: _scan_counts(arguments(args, kwargs)["counts"])


def _map_counts(fn):
    arguments = _bound(fn)

    def count(args, kwargs, result):
        bound = arguments(args, kwargs)
        # Per-qubit priors are decided qubit by qubit; only table priors scan.
        return _scan_counts(bound["counts"]) if bound["prior"].table is not None else None

    return count


def _adaptive_counts(fn):
    arguments = _bound(fn)
    return lambda args, kwargs, result: {"budget": arguments(args, kwargs)["total_shots"]}


def _plan_counts(fn):
    return lambda args, kwargs, result: {"close": len(result.close_qubits)}


def _execute_counts(fn):
    arguments = _bound(fn)
    return lambda args, kwargs, result: {"subsets": arguments(args, kwargs)["plan"].subset_count}


def _parse_counts(fn):
    arguments = _bound(fn)
    return lambda args, kwargs, result: {"bytes": len(arguments(args, kwargs)["data"])}


def _serialize_counts(fn):
    return lambda args, kwargs, result: {"bytes": len(result.encode("utf-8"))}


def _experiment_counts(fn):
    arguments = _bound(fn)

    def count(args, kwargs, result):
        config = arguments(args, kwargs)["config"]
        return {"cells": len(config.shots) * len(config.seeds)}

    return count


def _shots_counts(fn):
    return lambda args, kwargs, result: {"shots": result.shots}


# (module, function, counter factory taking the original function)
FUNCTIONS = (
    ("noise", "simulate_shots", _shots_counts),
    ("noise", "simulate_antipodal_shots", _shots_counts),
    ("core", "tally", None),
    ("estimators", "qmv", None),
    ("estimators", "weighted_vote", None),
    ("estimators", "mode_estimate", None),
    ("estimators", "sliding_window_antipodal", None),
    ("estimators", "ml_bruteforce", _ml_counts),
    ("estimators", "map_estimate", _map_counts),
    ("ams", "adaptive_vote", _adaptive_counts),
    ("ams", "ams_plan", _plan_counts),
    ("ams", "ams_execute", _execute_counts),
    ("countsfile", "parse_counts", _parse_counts),
    ("countsfile", "serialize_counts", _serialize_counts),
    ("experiment", "run_experiment", _experiment_counts),
    ("cli", "main", None),
)

# (module, class, method, span name, counter)
METHODS = (
    ("core", "CountsTable", "__init__", "core.CountsTable", _table_init),
    ("core", "CountsTable", "as_arrays", "core.as_arrays", None),
    ("experiment", "Report", "to_json", "experiment.report", None),
    ("experiment", "Report", "to_csv", "experiment.report", None),
)


class Tracer:
    """Records spans while installed; ``op`` tags every new span."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNTS] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module in {entry[0] for entry in FUNCTIONS + METHODS}:
            importlib.import_module(f"qmvote.{module}")
        modules = [
            m for key, m in list(sys.modules.items()) if key == "qmvote" or key.startswith("qmvote.")
        ]
        for module, attr, counter in FUNCTIONS:
            orig = getattr(sys.modules[f"qmvote.{module}"], attr)
            wrapper = self.wrap(f"{module}.{attr}", orig, counter(orig) if counter else None)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        for module, cls_name, method, name, counter in METHODS:
            cls = getattr(sys.modules[f"qmvote.{module}"], cls_name)
            orig = cls.__dict__[method]
            self._undo.append((cls, method, orig))
            setattr(cls, method, self.wrap(name, orig, counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start = max(start, end)
        stop = min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [
        (rec[END] - rec[START]) - covered(kids, rec[START], rec[END])
        for rec, kids in zip(spans, children)
    ]


# Per-layer metric names and units, in print order. Every value is a mean
# per traced op.
LAYER_METRICS = (
    ("noise.simulate_shots.s", "s"),
    ("noise.simulate_shots.self_s", "s"),
    ("noise.simulate_shots.calls", "count"),
    ("noise.simulate_antipodal_shots.s", "s"),
    ("noise.simulate_antipodal_shots.calls", "count"),
    ("noise.shots", "count"),
    ("noise.shots_per_s", "1/s"),
    ("core.CountsTable.s", "s"),
    ("core.CountsTable.calls", "count"),
    ("core.distinct_keys", "count"),
    ("core.distinct_per_shot", "ratio"),
    ("core.tally.s", "s"),
    ("core.tally.calls", "count"),
    ("core.as_arrays.s", "s"),
    ("core.as_arrays.calls", "count"),
    ("estimators.qmv.s", "s"),
    ("estimators.weighted_vote.s", "s"),
    ("estimators.mode_estimate.s", "s"),
    ("estimators.sliding_window_antipodal.s", "s"),
    ("estimators.ml_bruteforce.s", "s"),
    ("estimators.ml_bruteforce.calls", "count"),
    ("estimators.map_estimate.s", "s"),
    ("estimators.map_estimate.calls", "count"),
    ("estimators.candidates_scanned", "count"),
    ("estimators.entry_candidate_pairs", "count"),
    ("estimators.pairs_per_s", "1/s"),
    ("ams.adaptive_vote.s", "s"),
    ("ams.adaptive_vote.self_s", "s"),
    ("ams.ams_plan.s", "s"),
    ("ams.ams_execute.s", "s"),
    ("ams.close_qubits", "count"),
    ("ams.subset_circuits", "count"),
    ("ams.simulated_shots", "count"),
    ("ams.useful_shot_ratio", "ratio"),
    ("countsfile.parse_counts.s", "s"),
    ("countsfile.bytes_read", "B"),
    ("countsfile.read_MB_per_s", "MB/s"),
    ("countsfile.serialize_counts.s", "s"),
    ("countsfile.bytes_written", "B"),
    ("experiment.run_experiment.s", "s"),
    ("experiment.run_experiment.self_s", "s"),
    ("experiment.cells", "count"),
    ("experiment.report.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class _Totals:
    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], ops: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics, as means per traced op, from the spans of ``ops`` ops."""
    selfs = self_times(spans)
    totals: dict[str, _Totals] = {}
    ams_shots = 0
    for rec, self_s in zip(spans, selfs):
        t = totals.setdefault(rec[NAME], _Totals())
        t.s += rec[END] - rec[START]
        t.self_s += self_s
        t.calls += 1
        for key, value in (rec[COUNTS] or {}).items():
            t.counts[key] = t.counts.get(key, 0) + value
        if rec[NAME].startswith("noise.simulate"):
            parent = rec[PARENT]
            while parent >= 0 and not spans[parent][NAME].startswith("ams."):
                parent = spans[parent][PARENT]
            if parent >= 0:
                ams_shots += rec[COUNTS]["shots"]

    def get(name: str) -> _Totals:
        return totals.get(name, _Totals())

    def count(name: str, key: str) -> int:
        return get(name).counts.get(key, 0)

    sim, anti = get("noise.simulate_shots"), get("noise.simulate_antipodal_shots")
    table = get("core.CountsTable")
    ml, map_ = get("estimators.ml_bruteforce"), get("estimators.map_estimate")
    parse, serialize = get("countsfile.parse_counts"), get("countsfile.serialize_counts")
    noise_shots = count("noise.simulate_shots", "shots") + count("noise.simulate_antipodal_shots", "shots")
    pairs = count("estimators.ml_bruteforce", "pairs") + count("estimators.map_estimate", "pairs")
    raw = {
        "noise.simulate_shots.s": sim.s,
        "noise.simulate_shots.self_s": sim.self_s,
        "noise.simulate_shots.calls": sim.calls,
        "noise.simulate_antipodal_shots.s": anti.s,
        "noise.simulate_antipodal_shots.calls": anti.calls,
        "noise.shots": noise_shots,
        "core.CountsTable.s": table.s,
        "core.CountsTable.calls": table.calls,
        "core.distinct_keys": count("core.CountsTable", "distinct"),
        "core.tally.s": get("core.tally").s,
        "core.tally.calls": get("core.tally").calls,
        "core.as_arrays.s": get("core.as_arrays").s,
        "core.as_arrays.calls": get("core.as_arrays").calls,
        "estimators.qmv.s": get("estimators.qmv").s,
        "estimators.weighted_vote.s": get("estimators.weighted_vote").s,
        "estimators.mode_estimate.s": get("estimators.mode_estimate").s,
        "estimators.sliding_window_antipodal.s": get("estimators.sliding_window_antipodal").s,
        "estimators.ml_bruteforce.s": ml.s,
        "estimators.ml_bruteforce.calls": ml.calls,
        "estimators.map_estimate.s": map_.s,
        "estimators.map_estimate.calls": map_.calls,
        "estimators.candidates_scanned": count("estimators.ml_bruteforce", "candidates")
        + count("estimators.map_estimate", "candidates"),
        "estimators.entry_candidate_pairs": pairs,
        "ams.adaptive_vote.s": get("ams.adaptive_vote").s,
        "ams.adaptive_vote.self_s": get("ams.adaptive_vote").self_s,
        "ams.ams_plan.s": get("ams.ams_plan").s,
        "ams.ams_execute.s": get("ams.ams_execute").s,
        "ams.close_qubits": count("ams.ams_plan", "close"),
        "ams.subset_circuits": count("ams.ams_execute", "subsets"),
        "ams.simulated_shots": ams_shots,
        "countsfile.parse_counts.s": parse.s,
        "countsfile.bytes_read": count("countsfile.parse_counts", "bytes"),
        "countsfile.serialize_counts.s": serialize.s,
        "countsfile.bytes_written": count("countsfile.serialize_counts", "bytes"),
        "experiment.run_experiment.s": get("experiment.run_experiment").s,
        "experiment.run_experiment.self_s": get("experiment.run_experiment").self_s,
        "experiment.cells": count("experiment.run_experiment", "cells"),
        "experiment.report.s": get("experiment.report").s,
        "cli.main.s": get("cli.main").s,
        "cli.main.self_s": get("cli.main").self_s,
        "cli.main.calls": get("cli.main").calls,
    }
    metrics = {name: value / ops for name, value in raw.items()}
    # Rates and shares are ratios of totals, so they need no per-op scaling.
    metrics["noise.shots_per_s"] = _ratio(noise_shots, sim.s + anti.s)
    metrics["core.distinct_per_shot"] = _ratio(
        count("core.CountsTable", "distinct"), count("core.CountsTable", "shots")
    )
    metrics["estimators.pairs_per_s"] = _ratio(pairs, ml.s + map_.s)
    metrics["ams.useful_shot_ratio"] = _ratio(count("ams.adaptive_vote", "budget"), ams_shots)
    metrics["countsfile.read_MB_per_s"] = _ratio(count("countsfile.parse_counts", "bytes") / 1e6, parse.s)
    metrics["trace.overhead_ratio"] = overhead_ratio
    return {name: metrics[name] for name, _ in LAYER_METRICS}
