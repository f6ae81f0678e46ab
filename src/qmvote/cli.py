"""Command-line interface.

Subcommands: simulate, mitigate, bound, ams, experiment, distance.
Exit codes: 0 success, 1 validation error, 2 infeasible request (also
when memory runs out).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .ams import ams_execute, ams_plan
from .budget import _figures, _finite_or_none, required_shots
from .core import hamming_distance, tally
from .countsfile import BIT_ORDERS, load_counts, serialize_counts, write_counts
from .errors import InfeasibleError, MitigationError, ValidationError
from .estimators import AntipodalPair, Prior, qmv, weighted_vote
from .experiment import (
    ESTIMATORS,
    GROUND_TRUTH_PATTERNS,
    _refuse_unknown,
    ground_truth_pattern,
    load_config,
    run_experiment,
)
from .noise import NoiseModel, simulate_antipodal_shots, simulate_shots


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # validation path instead so exit codes stay as documented.
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmvote", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qmvote {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format where tabular"
    )
    parser.add_argument(
        "--bit-order",
        choices=BIT_ORDERS,
        default="left",
        help="bit order of ingested counts files (right reverses keys)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate noisy shots of a known bitstring")
    truth = sim.add_mutually_exclusive_group(required=True)
    truth.add_argument("--truth", help="ground-truth bitstring")
    truth.add_argument("--pattern", choices=GROUND_TRUTH_PATTERNS, help="generated truth")
    sim.add_argument("--n", type=int, help="qubit count (with --pattern)")
    _noise_flags(sim)
    sim.add_argument("--shots", type=int, required=True)
    sim.add_argument("--out", "-o", help="counts file path (default stdout)")

    mit = sub.add_parser("mitigate", help="estimate the correct output from a counts file")
    mit.add_argument("counts", help="counts file (JSON)")
    mit.add_argument("--method", required=True, choices=tuple(ESTIMATORS))
    _noise_flags(mit)
    mit.add_argument("--prior-file", help="JSON prior for map: {\"per_qubit\": [...]} or {\"table\": {...}}")

    bnd = sub.add_parser("bound", help="shot-budget figures for the majority vote")
    bnd.add_argument("--n", type=int, required=True)
    margin = bnd.add_mutually_exclusive_group(required=True)
    margin.add_argument("--epsilon", type=float, help="vote margin 0.5 - p")
    margin.add_argument("--p", type=float, help="symmetric flip probability")
    bnd.add_argument("--shots", type=int, help="evaluate the bound at this even shot count")

    ams = sub.add_parser("ams", help="plan (and optionally execute) measurement subsetting")
    ams.add_argument("counts", help="phase-1 counts file (half the budget)")
    ams.add_argument("--tau", type=float, required=True, help="close-vote margin threshold")
    ams.add_argument("--factor", type=float, default=0.5, help="subset noise scale in (0, 1]")
    ams.add_argument("--total-shots", type=int, help="full budget (default: twice the counts)")
    ams.add_argument("--truth", help="ground truth; enables simulated execution")
    _noise_flags(ams)

    exp = sub.add_parser("experiment", help="run a configured estimator comparison")
    exp.add_argument("config", help="experiment config file (JSON)")
    exp.add_argument("--out", "-o", help="report path (default stdout)")
    exp.add_argument("--csv-out", help="also write the CSV form here")

    dist = sub.add_parser("distance", help="Hamming distance between two bitstrings")
    dist.add_argument("a")
    dist.add_argument("b")

    return parser


def _noise_flags(sub):
    sub.add_argument("--p", type=float, help="symmetric flip probability for all qubits")
    sub.add_argument("--p01", type=float, help="Pr(read 1 | true 0) for all qubits")
    sub.add_argument("--p10", type=float, help="Pr(read 0 | true 1) for all qubits")


def _noise_from_args(args, n: int, required: bool) -> NoiseModel | None:
    if args.p is not None:
        if args.p01 is not None or args.p10 is not None:
            raise ValidationError("give either --p or the --p01/--p10 pair, not both")
        return NoiseModel.uniform(n, args.p)
    if args.p01 is not None or args.p10 is not None:
        if args.p01 is None or args.p10 is None:
            raise ValidationError("--p01 and --p10 must be given together")
        return NoiseModel.uniform(n, args.p01, args.p10)
    if required:
        raise ValidationError("a noise model is required: --p or --p01/--p10")
    return None


def _emit(args, payload: dict):
    out = sys.stdout
    if args.format == "csv":
        flat = _flatten(payload)
        out.write(",".join(flat) + "\n")
        out.write(",".join("" if v is None else str(v) for v in flat.values()) + "\n")
    else:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = "|".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def _cmd_simulate(args) -> int:
    if (args.pattern is None) != (args.n is None):
        raise ValidationError("--pattern requires --n" if args.pattern else "--n goes with --pattern")
    truth = ground_truth_pattern(args.pattern, args.n) if args.pattern else args.truth
    noise = _noise_from_args(args, len(truth), required=True)
    seed = args.seed if args.seed is not None else 0
    simulate = simulate_antipodal_shots if args.pattern == "ghz-antipodal" else simulate_shots
    counts = simulate(truth, noise, args.shots, seed)
    if args.out:
        write_counts(args.out, counts)
    else:
        sys.stdout.write(serialize_counts(counts))
    return 0


def _cmd_mitigate(args) -> int:
    needs_noise, takes_prior, rule = ESTIMATORS[args.method]
    if args.prior_file and not takes_prior:
        raise ValidationError(f"--prior-file is not used by --method {args.method}")
    counts = load_counts(args.counts, bit_order=args.bit_order)
    noise = _noise_from_args(args, counts.n, required=needs_noise)
    est = rule(counts, noise, _load_prior(args, counts.n) if takes_prior else None)
    if isinstance(est, AntipodalPair):
        _emit(args, {"method": args.method, "estimate": [est.x, est.x_complement]})
        return 0
    payload = {"method": est.method, "estimate": est.value}
    if est.margins is not None:
        payload["margins"] = [round(m, 12) for m in est.margins.tolist()]
    if est.gap is not None:
        # infinite when no runner-up has non-zero likelihood
        payload["gap"] = _finite_or_none(est.gap)
    _emit(args, payload)
    return 0


def _load_prior(args, n: int) -> Prior:
    if not args.prior_file:
        return Prior.uniform(n)
    try:
        doc = json.loads(Path(args.prior_file).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise ValidationError(f"prior file {args.prior_file} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or ("per_qubit" in doc) == ("table" in doc):
        raise ValidationError("prior file must carry exactly one of 'per_qubit' or 'table'")
    _refuse_unknown(doc, {"per_qubit", "table"}, "prior file")
    return Prior(**doc)


def _cmd_bound(args) -> int:
    p, shots, epsilon = args.p, args.shots, args.epsilon
    if epsilon is not None:
        if not 0.0 < epsilon <= 0.5:  # NaN fails too
            raise ValidationError(f"epsilon must lie in (0, 0.5], got {epsilon}")
        if shots is None:  # before the next check: a margin too small for float range exits 2
            shots = required_shots(args.n, epsilon)
        if 0.5 - epsilon == 0.5:
            raise ValidationError(
                f"epsilon={epsilon} is too small to tell p = 0.5 - epsilon from 0.5 in float64"
            )
        p = 0.5 - epsilon
    _emit(args, _figures(args.n, p, shots))
    return 0


def _cmd_ams(args) -> int:
    counts = load_counts(args.counts, bit_order=args.bit_order)
    total = args.total_shots if args.total_shots is not None else 2 * counts.shots
    phase1 = tally(counts)
    plan = ams_plan(phase1, args.tau, total)
    payload = {"plan": {k: v for k, v in dataclasses.asdict(plan).items() if k != "n"}}
    noise = _noise_from_args(args, counts.n, required=args.truth is not None)
    if args.truth is not None:
        seed = args.seed if args.seed is not None else 0
        est = ams_execute(args.truth, noise, plan, args.factor, seed)
        payload["estimate"] = est.value
        payload["margins"] = [round(m, 12) for m in est.margins.tolist()]
    else:
        est = weighted_vote(phase1, noise) if noise is not None else qmv(phase1)
        payload["estimate"] = est.value
        payload["note"] = "phase-1 vote only; pass --truth to simulate the subset phase"
    _emit(args, payload)
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    report = run_experiment(config)
    primary = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        Path(args.out).write_text(primary, encoding="utf-8")
    else:
        sys.stdout.write(primary)
    if args.csv_out:
        Path(args.csv_out).write_text(report.to_csv(), encoding="utf-8")
    return 0


def _cmd_distance(args) -> int:
    sys.stdout.write(f"{hamming_distance(args.a, args.b)}\n")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "mitigate": _cmd_mitigate,
    "bound": _cmd_bound,
    "ams": _cmd_ams,
    "experiment": _cmd_experiment,
    "distance": _cmd_distance,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, MitigationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
