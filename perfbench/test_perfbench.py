"""Self-tests of the benchmark: span arithmetic, tracer bindings, metric
names, and a tiny-size run of every workload.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(name, start, end, parent=-1, counts=None):
    return [name, start, end, parent, 0, counts]


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6)
    assert spans.covered([(2, 3), (1, 4)], 0, 10) == pytest.approx(3)
    assert spans.covered([], 0, 10) == 0


def test_self_time_subtracts_child_coverage():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a
        _span("a.child", 1.5, 2.5, parent=1),
        _span("c", 8.0, 12.0, parent=0),  # runs past the end of root
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 3.0, 1.0, 4.0])


def test_layer_metrics_on_synthetic_tree():
    tree = [
        _span("ams.adaptive_vote", 0.0, 4.0, counts={"budget": 200}),
        _span("noise.simulate_shots", 0.5, 1.5, parent=0, counts={"shots": 100}),
        _span("core.CountsTable", 1.0, 1.4, parent=1, counts={"distinct": 50, "shots": 100}),
        _span("ams.ams_execute", 2.0, 3.5, parent=0, counts={"subsets": 2}),
        _span("noise.simulate_shots", 2.0, 3.0, parent=3, counts={"shots": 150}),
        _span("noise.simulate_shots", 5.0, 6.0, counts={"shots": 100}),
    ]
    m = spans.layer_metrics(tree, ops=2, overhead_ratio=0.01)
    assert [name for name, _ in spans.LAYER_METRICS] == list(m)
    assert m["noise.simulate_shots.calls"] == pytest.approx(1.5)
    assert m["noise.simulate_shots.s"] == pytest.approx(1.5)
    assert m["noise.simulate_shots.self_s"] == pytest.approx((0.6 + 1.0 + 1.0) / 2)
    assert m["noise.shots"] == pytest.approx(175)
    assert m["noise.shots_per_s"] == pytest.approx(350 / 3.0)
    assert m["ams.simulated_shots"] == pytest.approx(125)
    assert m["ams.useful_shot_ratio"] == pytest.approx(200 / 250)
    assert m["ams.adaptive_vote.self_s"] == pytest.approx((4.0 - 1.0 - 1.5) / 2)
    assert m["core.distinct_per_shot"] == pytest.approx(0.5)
    assert m["trace.overhead_ratio"] == 0.01


def _qmvote():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import qmvote
    import qmvote.cli

    return qmvote


def test_tracer_wraps_every_binding_and_restores_it():
    qm = _qmvote()
    modules = [sys.modules[f"qmvote.{m}"] for m in ("core", "ams", "cli", "estimators", "experiment")]
    original = qm.core.tally
    init = qm.CountsTable.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(m.tally is not original for m in modules + [qm])
        counts = qm.simulate_shots("1010", qm.NoiseModel.uniform(4, 0.1), 100, 1)
        qm.qmv(qm.tally(counts))
    finally:
        tracer.uninstall()
    assert all(m.tally is original for m in modules + [qm])
    assert qm.CountsTable.__init__ is init
    names = [rec[spans.NAME] for rec in tracer.spans]
    assert names == [
        "noise.simulate_shots", "core.CountsTable", "core.tally", "core.as_arrays", "estimators.qmv"
    ]
    parents = [rec[spans.PARENT] for rec in tracer.spans]
    assert parents == [-1, 0, -1, 2, -1]
    assert tracer.spans[1][spans.COUNTS]["shots"] == 100


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(spans.LAYER_METRICS)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    names = [n for n, _ in end_to_end + per_layer] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for _, u in end_to_end + per_layer)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(workload):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = []
    for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
        proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--tiny")
        assert proc.returncode == 0, proc.stderr
        *_, summary, result = proc.stdout.splitlines()
        summary, result = json.loads(summary), json.loads(result)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert summary["error_rate"] == {"value": 0, "unit": "ratio"}, summary["failures"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in expected]
        assert all(v["unit"] == m["unit"] for v, m in zip(result["metrics"].values(), expected))
        digests.append(summary["output_digest"])
    assert digests[0] == digests[1], "the traced run changed the outputs"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "vote-wide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
