"""Experiment harness: run configured estimators over simulated shot data
and report Hamming distances to the ground truth.

A configuration names a ground truth (explicit bitstring or a generator
pattern), a noise model, shot counts, estimators, and seeds, all checked
when the config is built. A config file is a JSON object in UTF-8 with no
byte-order mark. The (shots, seed) cells run one after another in cell
order, in the calling thread. Every cell simulates one shot record and
feeds it to each estimator; ams draws its own per-qubit counts, so a cell
whose only estimator is ams simulates no record, and only configs naming
another estimator are held to the record's memory limit. Rows record the
Hamming distance of the estimate from the truth. Reports come in two
forms: canonical JSON (byte-stable across reruns, so wall times are kept
out of it) and CSV (which carries a runtime_ms column, each estimator's
own wall time). The numeric content shared by the two forms is identical.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .ams import adaptive_vote
from .budget import _figures, qmv_error_bound
from .core import _INT64_MAX, MAX_QUBITS, CountsTable, _is_int, _is_real, hamming_distance, tally
from .core import _expect, _json_fields, _json_load, validate_bitstring
from .errors import InfeasibleError, ValidationError
from .estimators import (
    AntipodalPair,
    Prior,
    _check_scan_work,
    _map_estimate,
    ml_bruteforce,
    mode_estimate,
    qmv,
    sliding_window_antipodal,
    weighted_vote,
)
from .noise import (
    NoiseModel,
    _check_record_memory,
    _check_seed,
    derive_seed,
    simulate_antipodal_shots,
    simulate_shots,
)

# name -> (needs noise, takes a prior, rule(counts, votes, noise, prior)), where
# votes() returns the table's tally. Each rule looks its estimator up by
# module-level name at call time, so a wrapper bound over that name (a tracer,
# a test spy) sees every call.
ESTIMATORS = {
    "mode": (False, False, lambda counts, votes, noise, prior: mode_estimate(counts)),
    "ml": (True, False, lambda counts, votes, noise, prior: ml_bruteforce(counts, noise)),
    "map": (True, True, lambda counts, votes, noise, prior: _map_estimate(counts, votes, noise, prior)),
    "qmv": (False, False, lambda counts, votes, noise, prior: qmv(votes())),
    "weighted": (True, False, lambda counts, votes, noise, prior: weighted_vote(votes(), noise)),
    "window": (False, False, lambda counts, votes, noise, prior: sliding_window_antipodal(counts)),
}

# ams is harness-only: it draws its own per-qubit counts from the truth.
ESTIMATOR_NAMES = (*ESTIMATORS, "ams")

GROUND_TRUTH_PATTERNS = ("alternating", "all-zeros", "ghz-antipodal")


def ground_truth_pattern(name: str, n: int) -> str:
    """Expand a named ground-truth pattern to n qubits."""
    if not _is_int(n) or not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"pattern length must be an integer in 1..{MAX_QUBITS}, got {n!r}")
    if name == "alternating":
        return ("10" * ((n + 1) // 2))[:n]
    if name in ("all-zeros", "ghz-antipodal"):
        return "0" * n
    raise ValidationError(
        f"unknown ground-truth pattern {name!r}, expected one of {GROUND_TRUTH_PATTERNS}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    ground_truth: str
    noise: NoiseModel
    shots: tuple[int, ...]
    estimators: tuple[str, ...]
    seeds: tuple[int, ...]
    antipodal: bool = False
    ams_tau: float | None = None
    ams_factor: float | None = None

    def __post_init__(self):
        validate_bitstring(self.ground_truth)
        _expect(self.noise, NoiseModel)
        for name in ("shots", "seeds", "estimators"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValidationError(f"field {name!r} must be a list, got {type(values).__name__}")
            object.__setattr__(self, name, tuple(values))
        for name in ("ams_tau", "ams_factor"):  # kept as Python floats: they go in reports
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _number(value, name.replace("_", ".")))
        for name in ("shots", "seeds"):  # kept as Python ints: they name streams and go in reports
            if not all(map(_is_int, getattr(self, name))):
                raise ValidationError(f"field {name!r} must be a list of integers")
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        n = len(self.ground_truth)
        if self.noise.n != n:
            raise ValidationError(
                f"field 'noise' covers {self.noise.n} qubits, ground truth has {n}"
            )
        if not self.estimators:
            raise ValidationError("field 'estimators' must name at least one estimator")
        for est in self.estimators:
            if est not in ESTIMATOR_NAMES:
                raise ValidationError(
                    f"field 'estimators' contains {est!r}, expected one of {ESTIMATOR_NAMES}"
                )
        if not self.shots or any(s < 1 for s in self.shots):
            raise ValidationError("field 'shots' must list positive shot counts")
        if self._simulates:
            _check_record_memory(n, max(self.shots))
        if not self.seeds:
            raise ValidationError("field 'seeds' must list at least one seed")
        for seed in self.seeds:  # refused here, not when its cell runs after the others
            _check_seed(seed)
        for name in ("shots", "seeds", "estimators"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValidationError(f"field {name!r} must not repeat entries, got {list(values)}")
        if "ml" in self.estimators:
            # a cell's table has at most min(shots, 2^n) distinct keys
            _check_scan_work(n, min(max(self.shots), 1 << n))
        if "window" in self.estimators and n < 2:
            raise InfeasibleError("estimator 'window' needs at least 2 qubits")
        # NaN fails both range tests
        if self.ams_tau is not None and not 0.0 < self.ams_tau < 1.0:
            raise ValidationError(f"field 'ams.tau' must lie in (0, 1), got {self.ams_tau}")
        if self.ams_factor is not None and not 0.0 < self.ams_factor <= 1.0:
            raise ValidationError(f"field 'ams.factor' must lie in (0, 1], got {self.ams_factor}")
        if "ams" in self.estimators:
            if self.ams_tau is None or self.ams_factor is None:
                raise ValidationError(
                    "field 'ams' with tau and factor is required when the ams estimator is enabled"
                )
            if any(s % 2 for s in self.shots):
                raise InfeasibleError("estimator 'ams' splits the budget in half; shots must be even")
            if max(self.shots) > _INT64_MAX:  # no shot record bounds an ams-only budget
                raise ValidationError("estimator 'ams' takes at most 2**63 - 1 shots")
            if self.antipodal:
                # an equal mixture of x0 and its complement reads 0 and 1 equally on every qubit
                raise InfeasibleError(
                    "estimator 'ams' votes qubit by qubit, which has no answer on the "
                    "ghz-antipodal pattern"
                )

    @property
    def n(self) -> int:
        return len(self.ground_truth)

    @property
    def _simulates(self) -> bool:
        """Whether cells simulate a shot record: ams draws its own counts, and
        every other estimator reads the record."""
        return any(est != "ams" for est in self.estimators)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        required = ("ground_truth", "noise", "shots", "estimators", "seeds")
        _json_fields(doc, "experiment config", {*required, "ams"}, required, ValidationError)

        truth_spec = doc["ground_truth"]
        antipodal = False
        if isinstance(truth_spec, str):
            truth = truth_spec
        elif isinstance(truth_spec, dict):
            fields = ("pattern", "n")
            _json_fields(truth_spec, "'ground_truth'", fields, fields, ValidationError)
            truth = ground_truth_pattern(truth_spec["pattern"], truth_spec["n"])
            antipodal = truth_spec["pattern"] == "ghz-antipodal"
        else:
            raise ValidationError("field 'ground_truth' must be a bitstring or a pattern object")

        noise = _noise_from_dict(doc["noise"], len(truth))

        ams_tau = ams_factor = None
        if "ams" in doc:
            fields = ("tau", "factor")
            ams = _json_fields(doc["ams"], "'ams'", fields, fields, ValidationError)
            ams_tau, ams_factor = ams["tau"], ams["factor"]

        return cls(
            ground_truth=truth,
            noise=noise,
            shots=doc["shots"],
            estimators=doc["estimators"],
            seeds=doc["seeds"],
            antipodal=antipodal,
            ams_tau=ams_tau,
            ams_factor=ams_factor,
        )

    @classmethod
    def from_json(cls, data: bytes | str) -> "ExperimentConfig":
        return cls.from_dict(_json_load(data, "experiment config", ValidationError))


def _number(value: Any, name: str) -> float:
    try:
        if _is_real(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValidationError(f"field {name!r} must be a number, got {value!r}")


def _noise_from_dict(spec: Any, n: int) -> NoiseModel:
    if not isinstance(spec, dict):
        raise ValidationError("field 'noise' must be an object")
    if "p" in spec:
        if set(spec) != {"p"}:
            raise ValidationError("field 'noise' with 'p' must not carry other keys")
        return NoiseModel.uniform(n, _number(spec["p"], "noise.p"))
    if set(spec) == {"p01", "p10"}:
        p01, p10 = spec["p01"], spec["p10"]
        if isinstance(p01, list) != isinstance(p10, list):
            raise ValidationError("field 'noise' p01/p10 must both be scalars or both lists")
        if isinstance(p01, list):
            if len(p01) != n or len(p10) != n:
                raise ValidationError(f"field 'noise' per-qubit lists must have length {n}")
            return NoiseModel(
                p01=[_number(v, "noise.p01") for v in p01],
                p10=[_number(v, "noise.p10") for v in p10],
            )
        return NoiseModel.uniform(n, _number(p01, "noise.p01"), _number(p10, "noise.p10"))
    raise ValidationError("field 'noise' must carry 'p' or both 'p01' and 'p10'")


@dataclass
class Report:
    """Experiment results: per-cell rows plus per-(estimator, shots)
    aggregates and the analytic budget figures when they apply."""

    config: dict
    rows: list[dict]
    aggregates: list[dict]
    budget: dict | None

    def to_json(self) -> str:
        """Canonical JSON form: sorted keys, no wall times, trailing newline.

        Byte-identical across reruns with the same config and seeds.
        """
        doc = {
            "schema_version": "1",
            "config": self.config,
            "rows": [{k: v for k, v in row.items() if k != "runtime_ms"} for row in self.rows],
            "aggregates": self.aggregates,
            "budget": self.budget,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        """Tabular form, one row per (estimator, S, seed) cell."""
        lines = ["estimator,S,seed,distance,runtime_ms"]
        for row in self.rows:
            lines.append(
                f"{row['estimator']},{row['shots']},{row['seed']},"
                f"{row['distance']},{row['runtime_ms']:.3f}"
            )
        return "\n".join(lines) + "\n"


def _pair_distance(value: str, truth: str) -> int:
    d = hamming_distance(value, truth)
    return min(d, len(truth) - d)


def _estimate_distance(result, truth: str, antipodal: bool) -> tuple[Any, int]:
    if isinstance(result, AntipodalPair):
        return [result.x, result.x_complement], _pair_distance(result.x, truth)
    if antipodal:
        return result.value, _pair_distance(result.value, truth)
    return result.value, hamming_distance(result.value, truth)


def _run_estimator(
    name: str, config: ExperimentConfig, counts: CountsTable | None, votes, shots: int, seed: int
):
    if name == "ams":
        _, estimate = adaptive_vote(
            config.ground_truth, config.noise, config.ams_tau, shots, config.ams_factor, seed
        )
        return estimate
    _, takes_prior, rule = ESTIMATORS[name]
    return rule(counts, votes, config.noise, Prior.uniform(config.n) if takes_prior else None)


def _budget_section(config: ExperimentConfig) -> dict | None:
    noise = config.noise
    if config.n < 2 or not noise.is_symmetric:
        return None
    p = float(noise.p01[0])
    if not bool((noise.p01 == p).all()) or not p < 0.5:
        return None
    figures = _figures(config.n, p)
    keep = ("p", "epsilon", "required_shots", "per_qubit_target", "m3_shots_estimate")
    return {key: figures[key] for key in keep} | {
        "qmv_error_bound": {
            str(s): (qmv_error_bound(s, p) if s % 2 == 0 and p > 0.0 else None)
            for s in config.shots
        },
    }


def _run_cell(config: ExperimentConfig, shots: int, seed: int) -> list[dict]:
    """Rows of one (shots, seed) cell: one simulated table, unless ams is the
    only estimator, and every estimator."""
    truth = config.ground_truth
    cell_seed = derive_seed(seed, "cell", shots)
    counts = None
    if config._simulates:
        simulate = simulate_antipodal_shots if config.antipodal else simulate_shots
        counts = simulate(truth, config.noise, shots, cell_seed)
    votes = functools.cache(lambda: tally(counts))  # timed with the first rule to vote
    rows = []
    for name in config.estimators:
        start = time.perf_counter()
        result = _run_estimator(name, config, counts, votes, shots, cell_seed)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        estimate, distance = _estimate_distance(result, truth, config.antipodal)
        rows.append(
            {
                "estimator": name,
                "shots": shots,
                "seed": seed,
                "estimate": estimate,
                "distance": distance,
                "runtime_ms": elapsed_ms,
            }
        )
    return rows


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute every (shots, seed, estimator) cell of a configuration.

    Deterministic given the config: each cell derives its stream from
    (seed, shots), every estimator in the cell sees the same simulated
    counts, and the ams estimator spends the same total budget on its own
    two-phase schedule.

    Cells run one after another in cell order (shots, then seed), in the
    calling thread, and a failing cell's exception is raised before any
    later cell starts.
    """
    truth = config.ground_truth
    rows = []
    for shots in config.shots:
        for seed in config.seeds:
            rows += _run_cell(config, shots, seed)
    rows.sort(key=lambda r: (r["estimator"], r["shots"], r["seed"]))

    aggregates = []
    for name in sorted(set(config.estimators)):
        for shots in config.shots:
            dists = [r["distance"] for r in rows if r["estimator"] == name and r["shots"] == shots]
            aggregates.append(
                {
                    "estimator": name,
                    "shots": shots,
                    "mean_distance": sum(dists) / len(dists),
                    "min_distance": min(dists),
                    "max_distance": max(dists),
                }
            )

    config_echo = {
        "ground_truth": truth,
        "antipodal": config.antipodal,
        "noise": {"p01": config.noise.p01.tolist(), "p10": config.noise.p10.tolist()},
        "shots": list(config.shots),
        "estimators": list(config.estimators),
        "seeds": list(config.seeds),
        "ams": (
            {"tau": config.ams_tau, "factor": config.ams_factor}
            if config.ams_tau is not None
            else None
        ),
    }
    return Report(
        config=config_echo,
        rows=rows,
        aggregates=aggregates,
        budget=_budget_section(config),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    return ExperimentConfig.from_json(Path(path).read_bytes())
