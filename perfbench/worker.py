"""One workload process: import qmvote, build the program-side inputs, run
the cold op and then whole cycles of timed ops for about ``--seconds``, and
print one JSON line.

``run.py`` starts this script; it takes the same workload arguments plus the
directory holding the input files. With ``--setup-only`` it stops after
set-up and reports only ``setup_s``.

With ``--trace 1`` cycles alternate between traced and untraced, starting
traced, and the tracer is installed only around each traced op, never
around its check. The per-layer metrics come from the traced ops and
``trace.overhead_ratio`` compares the two kinds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# Every run completes at least this many cycles, so the output digest (the
# cold op plus the first two cycles) covers the same ops in every run, and a
# traced run has both a traced and an untraced cycle.
MIN_CYCLES = 2


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


class _Runner:
    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.digest = hashlib.sha256()
        self.digest_ops = 1 + MIN_CYCLES * workload.cycle
        self.failures: list[str] = []

    def attempt(self, index: int, traced: bool):
        """Run and check one op; return (shots, seconds), or None if it raised."""
        if traced:
            self.tracer.op = index
            self.tracer.install()
        try:
            start = time.perf_counter()
            shots, outputs = self.workload.op(index)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a failing op is counted, not fatal
            return self._fail(index, f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        try:
            problems, part = self.workload.check(index, outputs)
        except Exception as exc:
            return self._fail(index, f"check raised {type(exc).__name__}: {exc}")
        if index < self.digest_ops:
            self.digest.update(hashlib.sha256(part).digest())
        if problems:
            self.failures.append(f"op {index}: " + "; ".join(problems))
        return shots, elapsed

    def _fail(self, index, message):
        if index < self.digest_ops:
            self.digest.update(b"failed")
        self.failures.append(f"op {index}: {message}")
        return None


def machine() -> dict:
    """What a reader needs to tell whether two results are comparable."""
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)

    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start

    import qmvote

    if SRC.resolve() not in Path(qmvote.__file__).resolve().parents:
        print(f"error: qmvote was imported from {qmvote.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    runner = _Runner(workload, tracer)
    cold = runner.attempt(0, traced=False)
    times, traced_times, shots = [], [], 0
    index, cycles = 1, 0
    loop_start = time.perf_counter()
    while True:
        # Stop at the cycle boundary nearest to --seconds, so a run measures
        # about --seconds on average whatever the cycle length.
        elapsed = time.perf_counter() - loop_start
        if cycles >= MIN_CYCLES and elapsed + 0.5 * elapsed / cycles >= args.seconds:
            break
        traced = bool(args.trace) and cycles % 2 == 0
        for _ in range(workload.cycle):
            done = runner.attempt(index, traced)
            index += 1
            if done is None:
                continue
            if traced:
                traced_times.append(done[1])
            else:
                times.append(done[1])
                shots += done[0]
        cycles += 1

    result = {
        "setup_s": setup_s,
        "cold_op_s": cold[1] if cold else None,
        "op_times": times,
        "shots": shots,
        "attempted": index,
        "failures": runner.failures,
        "output_digest": runner.digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine(),
    }
    if tracer is not None:
        overhead = statistics.median(traced_times) / statistics.median(times) - 1 if traced_times and times else 0.0
        result["layers"] = spans.layer_metrics(tracer.spans, max(1, len(traced_times)), overhead)
        result["spans"] = len(tracer.spans)
        if args.spans_out is not None:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for rec in tracer.spans:
                    fh.write(json.dumps(rec) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
