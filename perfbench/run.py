"""Benchmark of qmvote's simulate -> table -> vote -> report pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-scan --seed 1 --seconds 30 --trace 0

``--workload all`` runs the four workloads one after another. With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the workload, op count,
``error_rate``, ``cold_op_s``, output digest and machine. The exit code is 0 when every
process ran to the end, whether or not the checks passed, and non-zero with
no result printed when the benchmark could not run.

Per workload this script writes the input files (in this process, so they
do not count towards the workload's memory or set-up), then starts a
set-up-only workload process, the measured workload process and another
set-up-only process, and waits for each. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# All processes of one workload must end within this.
DEADLINE_S = 170.0

END_TO_END = (
    ("shots_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-tests")
    return parser.parse_args(argv)


def _worker(argv: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + argv
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process ran past the deadline: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, deadline: float):
    """Run one workload; return (summary, result) as printed."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workloads.WORKLOADS[name](seed, tiny, workdir).write_inputs()
        common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
        if tiny:
            common.append("--tiny")
        spans_out = WORK / f"spans-{name}-seed{seed}.jsonl"
        measured = ["--seconds", str(seconds), "--trace", str(int(trace)), "--spans-out", str(spans_out)]
        # Untraced, setup_s is the median over three fresh processes spread
        # over the run, so a slow stretch of the machine during one of them
        # does not set it.
        before = [] if trace else [_worker(common + ["--setup-only"], deadline)]
        out = _worker(common + measured, deadline)
        after = [] if trace else [_worker(common + ["--setup-only"], deadline)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = out["failures"]
    if trace:
        metrics = {key: {"value": out["layers"][key], "unit": unit} for key, unit in LAYER_METRICS}
    else:
        times = out["op_times"]
        values = {
            "shots_per_s": out["shots"] / sum(times) if times else 0.0,
            "op_s.p50": statistics.median(times) if times else 0.0,
            "setup_s": statistics.median(run["setup_s"] for run in before + [out] + after),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "ops": len(out["op_times"]),
        "error_rate": {"value": len(failures) / out["attempted"], "unit": "ratio"},
        "cold_op_s": {"value": out["cold_op_s"], "unit": "s"},
        "output_digest": out["output_digest"],
        "failures": failures[:10],
        "machine": out["machine"],
    }
    if trace:
        summary["spans"] = out["spans"]
        summary["spans_file"] = str(spans_out.relative_to(ROOT))
    result = {
        "correct": not failures,
        "attempted": out["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }
    return summary, result


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "qmvote" / "__init__.py").is_file():
        print(f"error: no qmvote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for summary, result in results:
        print(json.dumps(summary))
        if len(results) > 1:
            print(json.dumps(result))
    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{s['workload']}.{key}": value for s, r in results for key, value in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
