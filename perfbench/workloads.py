"""The four benchmark workloads.

Each workload builds its program-side inputs in ``setup`` (this is what
``setup_s`` times, together with importing qmvote), runs one op per call to
``op`` (this is what the op timings cover), and checks an op's outputs in
``check``, outside the timed region. ``check`` returns the problems it found
and the bytes that go into the run's output digest.

Op ``i`` draws its inputs from ``op_seed(workload seed, name, i)``, so the same
workload seed gives the same inputs in every run, traced or not. Ops run in
cycles of ``cycle`` ops; any ``cycle`` consecutive op indices cover every case
of the workload once.

``tiny=True`` shrinks every size for the self-tests; the checks stay the same.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import random
from dataclasses import replace
from pathlib import Path


def op_seed(seed: int, name: str, index: int) -> int:
    """64-bit seed for one op, derived from the workload seed."""
    digest = hashlib.sha256(f"{name}:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def alternating(n: int) -> str:
    return ("10" * ((n + 1) // 2))[:n]


def counts_document(truth: str, p: float, shots: int, antipodal: bool, rng) -> str:
    """A counts file of ``shots`` bit-flip shots of ``truth``, made by the
    benchmark's own generator so the program never produces its own inputs.
    With ``antipodal`` each shot's truth is ``truth`` or its complement."""
    import numpy as np

    n = len(truth)
    x0 = np.frombuffer(truth.encode("ascii"), dtype=np.uint8) - ord("0")
    counter = collections.Counter()
    for lo in range(0, shots, 1 << 14):
        m = min(1 << 14, shots - lo)
        base = np.broadcast_to(x0, (m, n))
        if antipodal:
            base = base ^ (rng.random(m) < 0.5)[:, None]
        rows = base ^ (rng.random((m, n)) < p)
        blob = (rows + ord("0")).astype(np.uint8).tobytes().decode("ascii")
        counter.update(blob[i * n : (i + 1) * n] for i in range(m))
    doc = {"schema_version": "1", "n": n, "shots": shots, "counts": dict(sorted(counter.items()))}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Workload:
    name = ""
    cycle = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path | None = None):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def write_inputs(self) -> None:
        """Write the benchmark's own input files into ``workdir``. Runs in
        the parent process, before the workload process starts."""

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        """Run op ``index``; return (shots carried, outputs)."""
        raise NotImplementedError

    def check(self, index: int, outputs) -> tuple[list[str], bytes]:
        raise NotImplementedError


class VoteWide(Workload):
    """Wide, all-distinct shot record through every vote estimator."""

    name = "vote-wide"

    def setup(self):
        import qmvote

        self.qm = qmvote
        n, self.shots = (40, 3000) if self.tiny else (1000, 40000)
        self.truth = alternating(n)
        self.noise = qmvote.NoiseModel.uniform(n, 0.3)

    def op(self, index):
        qm = self.qm
        counts = qm.simulate_shots(self.truth, self.noise, self.shots, op_seed(self.seed, self.name, index))
        t = qm.tally(counts)
        outputs = (
            counts,
            qm.qmv(t),
            qm.weighted_vote(t, self.noise),
            qm.mode_estimate(counts),
            qm.sliding_window_antipodal(counts),
        )
        return self.shots, outputs

    def check(self, index, outputs):
        counts, majority, weighted, mode, pair = outputs
        problems = []
        if majority.value != self.truth:
            problems.append("qmv differs from the truth")
        if weighted.value != self.truth:
            problems.append("weighted vote differs from the truth")
        if self.truth not in pair.members:
            problems.append("window pair does not contain the truth")
        if mode.value not in counts:
            problems.append("mode is not a key of the table")
        digest = "|".join((majority.value, weighted.value, mode.value, pair.x))
        return problems, digest.encode("ascii")


class OracleScan(Workload):
    """Exhaustive ML and MAP scans over all 2^n candidates."""

    name = "oracle-scan"
    cycle = 3

    def setup(self):
        import numpy as np

        import qmvote

        self.qm = qmvote
        n, self.shots = (8, 300) if self.tiny else (14, 2000)
        self.truth = alternating(n)
        self.uniform = qmvote.NoiseModel.uniform(n, 0.3)
        p = np.full(n, 0.3)
        p[0] = 0.0
        # Qubit 0 is noiseless, so every candidate with the wrong bit 0 has
        # likelihood zero: the hard-evidence path of the scan.
        self.hard = qmvote.NoiseModel(p01=p, p10=p.copy())
        rng = random.Random(op_seed(self.seed, self.name, -1))
        others = [k for k in range(1 << n) if format(k, f"0{n}b") != self.truth]
        support = [self.truth] + [format(k, f"0{n}b") for k in rng.sample(others, (1 << n) // 2 - 1)]
        weights = [rng.uniform(1.0, 2.0) for _ in support]
        total = sum(weights)
        self.prior = qmvote.Prior(table={key: w / total for key, w in zip(support, weights)})

    def op(self, index):
        qm = self.qm
        case = index % 3
        noise = self.hard if case == 1 else self.uniform
        counts = qm.simulate_shots(self.truth, noise, self.shots, op_seed(self.seed, self.name, index))
        if case == 2:
            estimate = qm.map_estimate(counts, noise, self.prior)
        else:
            estimate = qm.ml_bruteforce(counts, noise)
        return self.shots, (case, counts, estimate)

    def check(self, index, outputs):
        case, counts, estimate = outputs
        problems = []
        if estimate.value != self.truth:
            problems.append(f"case {case}: {estimate.method} estimate differs from the truth")
        if case == 0 and estimate.value != self.qm.qmv(self.qm.tally(counts)).value:
            problems.append("uniform-noise ML differs from qmv on the same table")
        # The estimate is the truth whatever the stream, so the table goes in too.
        table = json.dumps(sorted(counts.items()))
        return problems, f"{estimate.method}|{estimate.value}|{table}".encode("ascii")


# Estimators and noise of the two experiment configs; seeds come per op.
_CONFIG_A = {
    "ground_truth": {"pattern": "alternating", "n": 200},
    "noise": {"p": 0.4},
    "shots": [2000, 4000],
    "estimators": ["mode", "qmv", "weighted", "ams"],
    "ams": {"tau": 0.16, "factor": 0.5},
}
_CONFIG_B = {
    "ground_truth": {"pattern": "ghz-antipodal", "n": 200},
    "noise": {"p": 0.3},
    "shots": [2000, 4000],
    "estimators": ["mode", "qmv", "window"],
}
_TINY = {"ground_truth_n": 24, "shots": [400, 800], "seeds": 2}


class ExperimentAms(Workload):
    """Two experiment configs per op: AMS over many small tables, and GHZ windows."""

    name = "experiment-ams"

    def setup(self):
        import qmvote

        self.qm = qmvote
        self.seed_count = _TINY["seeds"] if self.tiny else 8
        configs = []
        for doc in (_CONFIG_A, _CONFIG_B):
            doc = dict(doc, seeds=list(range(self.seed_count)))
            if self.tiny:
                doc["ground_truth"] = dict(doc["ground_truth"], n=_TINY["ground_truth_n"])
                doc["shots"] = _TINY["shots"]
                doc["noise"] = {"p": doc["noise"]["p"] - 0.15}
            configs.append(qmvote.ExperimentConfig.from_dict(doc))
        self.configs = configs
        self.shots_per_op = sum(sum(c.shots) * len(c.seeds) for c in configs)

    def op(self, index):
        base = op_seed(self.seed, self.name, index)
        seeds = tuple(op_seed(base, "cell", k) for k in range(self.seed_count))
        outputs = []
        for config in self.configs:
            report = self.qm.run_experiment(replace(config, seeds=seeds))
            outputs.append((report, report.to_json(), report.to_csv()))
        return self.shots_per_op, outputs

    def check(self, index, outputs):
        (report_a, json_a, _), (report_b, json_b, _) = outputs
        problems = []
        for row in report_a.rows:
            if row["estimator"] in ("qmv", "weighted", "ams") and row["distance"]:
                problems.append(f"config A: {row['estimator']} at S={row['shots']} has distance {row['distance']}")
        for row in report_b.rows:
            if row["estimator"] == "window" and row["distance"]:
                problems.append(f"config B: window at S={row['shots']} has distance {row['distance']}")
        if report_a.to_json() != json_a or report_b.to_json() != json_b:
            problems.append("JSON report is not byte-identical when regenerated")
        return problems, (json_a + json_b).encode("utf-8")


class CliRoundtrip(Workload):
    """In-process CLI: one counts-file write and five reads per cycle."""

    name = "cli-roundtrip"
    cycle = 6

    def __init__(self, seed, tiny, workdir=None):
        super().__init__(seed, tiny, workdir)
        wide_n, narrow_n, shots = (27, 9, 3000) if tiny else (127, 27, 100000)
        self.wide_n = wide_n
        self.sim_shots = shots
        self.inputs = {
            "wide": (alternating(wide_n), 0.3, shots, False),
            "narrow": (alternating(narrow_n), 0.05, shots, False),
            "ghz": ("0" * wide_n, 0.2, shots, True),
        }
        self.prior = [0.5] * wide_n
        # Two hard entries, both set to the true bit.
        self.prior[0] = float(alternating(wide_n)[0])
        self.prior[3] = float(alternating(wide_n)[3])

    def setup(self):
        from qmvote import cli

        self.cli = cli
        d = self.workdir
        self.out_path = d / "written.json"
        wide, narrow, ghz = (str(d / f"{stem}.json") for stem in ("wide", "narrow", "ghz"))
        prior = str(d / "prior.json")
        self.argvs = [
            ["simulate", "--pattern", "alternating", "--n", str(self.wide_n), "--p", "0.3",
             "--shots", str(self.sim_shots), "--out", str(self.out_path)],
            ["mitigate", wide, "--method", "qmv"],
            ["mitigate", wide, "--method", "weighted", "--p01", "0.35", "--p10", "0.25"],
            ["mitigate", wide, "--method", "map", "--p", "0.3", "--prior-file", prior],
            ["mitigate", narrow, "--method", "mode"],
            ["mitigate", ghz, "--method", "window"],
        ]
        self.truths = [alternating(self.wide_n)] * 4 + [self.inputs["narrow"][0], self.inputs["ghz"][0]]
        self.shots = [self.sim_shots] + [self.inputs[s][2] for s in ("wide", "wide", "wide", "narrow", "ghz")]

    def write_inputs(self):
        import numpy as np

        rng = np.random.default_rng(op_seed(self.seed, self.name, -1))
        for stem, (truth, p, shots, antipodal) in self.inputs.items():
            text = counts_document(truth, p, shots, antipodal, rng)
            (self.workdir / f"{stem}.json").write_text(text, encoding="utf-8")
        (self.workdir / "prior.json").write_text(json.dumps({"per_qubit": self.prior}), encoding="utf-8")

    def op(self, index):
        case = index % 6
        argv = self.argvs[case]
        if case == 0:
            argv = ["--seed", str(op_seed(self.seed, self.name, index))] + argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return self.shots[case], (case, code, out.getvalue(), err.getvalue())

    def check(self, index, outputs):
        case, code, out, err = outputs
        if code != 0:
            return [f"case {case}: exit code {code}: {err.strip()}"], f"exit {code}".encode("ascii")
        truth = self.truths[case]
        if case == 0:
            data = self.out_path.read_bytes()
            doc = json.loads(data)
            total = sum(doc["counts"].values())
            if doc["n"] != len(truth) or doc["shots"] != self.sim_shots or total != self.sim_shots:
                return [f"written file has n={doc['n']}, shots={doc['shots']}, sum={total}"], data
            return [], hashlib.sha256(data).digest()
        estimate = json.loads(out)["estimate"]
        if case == 5:
            ok = truth in estimate
        else:
            ok = estimate == truth
        problems = [] if ok else [f"case {case}: estimate differs from the truth"]
        return problems, out.encode("utf-8")


WORKLOADS = {w.name: w for w in (VoteWide, OracleScan, ExperimentAms, CliRoundtrip)}
