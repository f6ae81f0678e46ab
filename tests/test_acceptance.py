"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np

from qmvote import (
    NoiseModel,
    Prior,
    VoteTally,
    adaptive_vote,
    CountsTable,
    derive_seed,
    map_estimate,
    ml_bruteforce,
    mode_estimate,
    per_qubit_target_bound,
    qmv,
    qmv_error_bound,
    required_shots,
    run_experiment,
    shot_error_probability_exact,
    simulate_antipodal_shots,
    simulate_shots,
    sliding_window_antipodal,
    tally,
    weighted_vote,
)
from qmvote.ams import ams_plan
from qmvote.experiment import ExperimentConfig

P_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)


def _random_instance(rng, n_max, shots_max):
    n = int(rng.integers(1, n_max + 1))
    shots = int(rng.integers(1, shots_max + 1))
    if rng.integers(2):
        truth = "".join(rng.choice(["0", "1"], size=n))
        p = float(rng.uniform(0.05, 0.45))
        counts = simulate_shots(truth, NoiseModel.uniform(n, p), shots, int(rng.integers(2**32)))
    else:
        table = {}
        for word in ("".join(rng.choice(["0", "1"], size=n)) for _ in range(shots)):
            table[word] = table.get(word, 0) + 1
        counts = CountsTable(table, n=n)
    return n, counts


def test_criterion_01_reference_error_value_and_speed():
    """shot_error_probability_exact(10, 0.2) = 0.0328 within 5e-5, < 1 ms."""
    value = shot_error_probability_exact(10, 0.2)
    assert abs(value - 0.0328) <= 5e-5
    shot_error_probability_exact(10, 0.2)  # warm caches before timing
    best = min(
        _timed(lambda: shot_error_probability_exact(10, 0.2)) for _ in range(10)
    )
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    print(f"\nCRITERION 1 PASS: exact tail {value:.6f} (|Δ|<=5e-5), {best * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_majority_vote_equals_exhaustive_ml():
    """qmv == ml_bruteforce on every untied qubit over >= 5000 random
    symmetric instances (n <= 12, S <= 50); zero violations; < 2 min."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240201)
    instances = 5000
    violations = 0
    compared = 0
    for k in range(instances):
        n, counts = _random_instance(rng, 12, 50)
        p = float(rng.choice(P_GRID))
        nm = NoiseModel.uniform(n, p)
        t = tally(counts)
        vote = qmv(t).value
        ml = ml_bruteforce(counts, nm).value
        for i in range(n):
            if t.zeros[i] != t.ones[i]:
                compared += 1
                violations += vote[i] != ml[i]
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert compared > 10_000
    assert elapsed < 120, f"took {elapsed:.1f} s"
    print(
        f"\nCRITERION 2 PASS: {instances} instances, {compared} untied qubits, "
        f"0 violations, {elapsed:.1f} s"
    )


def test_criterion_03_weighted_vote_equals_exhaustive_ml():
    """weighted_vote == ml_bruteforce over >= 5000 random asymmetric
    instances, and weighted_vote == qmv whenever p01 == p10; < 2 min."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240302)
    instances = 5000
    asym_violations = 0
    sym_violations = 0
    for k in range(instances):
        n, counts = _random_instance(rng, 12, 50)
        nm = NoiseModel(p01=rng.uniform(0.02, 0.48, n), p10=rng.uniform(0.02, 0.48, n))
        t = tally(counts)
        asym_violations += weighted_vote(t, nm).value != ml_bruteforce(counts, nm).value
        p = float(rng.uniform(0.01, 0.49))
        sym = NoiseModel.uniform(n, p)
        sym_violations += weighted_vote(t, sym).value != qmv(t).value
    elapsed = time.perf_counter() - start
    assert asym_violations == 0
    assert sym_violations == 0
    assert elapsed < 120, f"took {elapsed:.1f} s"
    print(f"\nCRITERION 3 PASS: {instances} asymmetric + symmetric instances, {elapsed:.1f} s")


def test_criterion_04_bound_dominates_exact_tail_on_grid():
    """qmv_error_bound >= exact binomial tail for S in {10,...,500} even,
    p in {0.05,...,0.45}; spot value bound(10, 0.2) ~ 0.0361 >= 0.0328."""
    spot = qmv_error_bound(10, 0.2)
    assert abs(spot - 0.0361) <= 5e-5
    assert spot >= shot_error_probability_exact(10, 0.2)
    cells = 0
    for shots in range(10, 501, 10):
        for p in P_GRID:
            assert qmv_error_bound(shots, p) >= shot_error_probability_exact(shots, p), (
                f"dominance violated at S={shots}, p={p}"
            )
            cells += 1
    print(f"\nCRITERION 4 PASS: dominance on all {cells} grid cells, spot {spot:.4f} >= 0.0328")


def test_criterion_05_shot_rule_reaches_target_error():
    """At S = required_shots(n, eps), Monte Carlo per-qubit vote error stays
    within 5 sigma of the per-qubit target for n in {16, 64, 256},
    eps in {0.1, 0.2}; >= 10^4 trials per cell; < 5 min."""
    start = time.perf_counter()
    trials = 20_000
    lines = []
    for n in (16, 64, 256):
        for eps in (0.1, 0.2):
            shots = required_shots(n, eps)
            p = 0.5 - eps
            target = per_qubit_target_bound(n, eps)
            rng = np.random.default_rng(derive_seed(50, "cell", n, shots))
            # ground truth all-zeros: per-qubit one-counts over S shots are
            # Binomial(S, p) draws, fed through the real vote rule
            wrong = 0
            ones = rng.binomial(shots, p, size=(trials, n))
            for row in ones:
                t = VoteTally(zeros=shots - row, ones=row)
                wrong += qmv(t).value.count("1")
            observed = wrong / (trials * n)
            sigma = math.sqrt(target * (1 - target) / (trials * n))
            assert observed <= target + 5 * sigma, (
                f"n={n} eps={eps}: observed {observed:.3e} > target {target:.3e} + 5s"
            )
            lines.append(f"n={n} eps={eps}: {observed:.2e} <= {target:.2e}+5s")
    # full-pipeline spot check, simulator included
    n, eps = 16, 0.1
    shots = required_shots(n, eps)
    nm = NoiseModel.uniform(n, 0.5 - eps)
    target = per_qubit_target_bound(n, eps)
    wrong = 0
    pipeline_trials = 2000
    for k in range(pipeline_trials):
        est = qmv(tally(simulate_shots("0" * n, nm, shots, derive_seed(51, "trial", k))))
        wrong += est.value.count("1")
    observed = wrong / (pipeline_trials * n)
    sigma = math.sqrt(target * (1 - target) / (pipeline_trials * n))
    assert observed <= target + 5 * sigma
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"took {elapsed:.1f} s"
    print(f"\nCRITERION 5 PASS: {'; '.join(lines)}; pipeline spot ok; {elapsed:.1f} s")


def test_criterion_06_ghz_window_recovers_pair_mode_does_not():
    """n=20, p=0.35, S=4000, seeds 0..999: the sliding window recovers the
    antipodal pair in >= 95% of seeds while the mode lands on either
    correct string in < 5%; < 1 min.

    1000 seeds (tenfold the required minimum) pin the mode-success rate,
    which sits near 4.4% and would otherwise be at the mercy of small-
    sample noise: either correct string shows up about 0.7 times per run,
    and the mode only finds one through a freak repeat measurement.
    """
    start = time.perf_counter()
    n, p, shots = 20, 0.35, 4000
    nm = NoiseModel.uniform(n, p)
    truth_pair = {"0" * n, "1" * n}
    seeds = range(1000)
    window_hits = 0
    mode_hits = 0
    for seed in seeds:
        counts = simulate_antipodal_shots("0" * n, nm, shots, seed)
        window_hits += sliding_window_antipodal(counts).members == truth_pair
        mode_hits += mode_estimate(counts).value in truth_pair
    elapsed = time.perf_counter() - start
    total = len(seeds)
    assert window_hits >= 0.95 * total, f"window recovered the pair in {window_hits}/{total}"
    assert mode_hits < 0.05 * total, f"mode recovered a correct string in {mode_hits}/{total}"
    assert elapsed < 60, f"took {elapsed:.1f} s"
    print(
        f"\nCRITERION 6 PASS: window {window_hits}/{total}, mode {mode_hits}/{total}, "
        f"{elapsed:.1f} s"
    )


def test_criterion_07_ams_plan_arithmetic_and_distance():
    """Plan construction reproduces the reference shot arithmetic exactly,
    and under measurement-dominated noise (n=25, factor 0.25, 100 seeds)
    the adaptive schedule's mean Hamming distance does not exceed the plain
    vote's at equal total shots."""

    def margins_tally(margins, shots):
        zeros = np.array([(shots + round(m * shots)) // 2 for m in margins])
        return VoteTally(zeros=zeros, ones=shots - zeros)

    # 1536-shot budget: half to phase 1, then k/m shots per close qubit
    plan = ams_plan(margins_tally([0.001] * 12 + [0.9] * 13, 768), 0.05)
    assert plan.phase1_shots == 768
    assert plan.per_subset_shots == 64
    assert plan.insufficient
    plan = ams_plan(margins_tally([0.001] + [0.9] * 24, 768), 0.01)
    assert plan.per_subset_shots == 768
    assert not plan.insufficient
    for total, close, per_circuit in ((2048, 3, 341), (6144, 2, 1536), (24576, 2, 6144)):
        plan = ams_plan(margins_tally([0.0] * close + [0.9] * (25 - close), total // 2), 0.01)
        assert plan.per_subset_shots == per_circuit

    # Monte Carlo comparison: three near-coin-flip qubits dominate the error
    n, total, factor, tau = 25, 1536, 0.25, 0.1
    p = np.full(n, 0.12)
    p[[5, 12, 18]] = 0.495
    noise = NoiseModel(p01=p, p10=p)
    truth = ("10" * 13)[:n]
    qmv_dist = []
    ams_dist = []
    for seed in range(100):
        counts = simulate_shots(truth, noise, total, derive_seed(seed, "plain"))
        qmv_dist.append(sum(a != b for a, b in zip(qmv(tally(counts)).value, truth)))
        _, est = adaptive_vote(truth, noise, tau, total, factor, seed=seed)
        ams_dist.append(sum(a != b for a, b in zip(est.value, truth)))
    qmv_mean = float(np.mean(qmv_dist))
    ams_mean = float(np.mean(ams_dist))
    assert ams_mean <= qmv_mean, f"ams {ams_mean:.2f} > qmv {qmv_mean:.2f}"
    print(f"\nCRITERION 7 PASS: plan arithmetic exact; ams {ams_mean:.2f} <= qmv {qmv_mean:.2f}")


def test_criterion_08_vote_runtime_scales_linearly():
    """tally + qmv runtime fits c * (n * S) within a factor-2 band across
    (n, S) in {(100, 1e4), (1000, 1e4), (100, 1e5)}."""

    def synthetic_counts(n, shots):
        # distinct keys so the table really holds `shots` entries
        keys = [format(i, "b").zfill(n) for i in range(shots)]
        return CountsTable(dict.fromkeys(keys, 1), n=n)

    cells = [(100, 10_000), (1000, 10_000), (100, 100_000)]
    times = []
    for n, shots in cells:
        counts = synthetic_counts(n, shots)
        qmv(tally(counts))  # warm up
        best = min(_timed(lambda: qmv(tally(counts))) for _ in range(5))
        times.append(best)
    units = [n * s for n, s in cells]
    slope = sum(t * u for t, u in zip(times, units)) / sum(u * u for u in units)
    for (n, shots), t, u in zip(cells, times, units):
        predicted = slope * u
        assert predicted / 2 <= t <= predicted * 2, (
            f"(n={n}, S={shots}): {t * 1e3:.1f} ms vs fit {predicted * 1e3:.1f} ms"
        )
    per_unit = [t / u * 1e9 for t, u in zip(times, units)]
    print(
        "\nCRITERION 8 PASS: ns per qubit-shot = "
        + ", ".join(f"{v:.2f}" for v in per_unit)
    )


def test_criterion_09_reports_are_byte_identical():
    """Identical config and seeds give byte-identical JSON reports."""
    config = ExperimentConfig.from_dict(
        {
            "ground_truth": {"pattern": "alternating", "n": 10},
            "noise": {"p": 0.15},
            "shots": [64, 128],
            "estimators": ["mode", "ml", "map", "qmv", "weighted", "window", "ams"],
            "seeds": [0, 1, 2],
            "ams": {"tau": 0.05, "factor": 0.5},
        }
    )
    first = run_experiment(config).to_json()
    second = run_experiment(config).to_json()
    assert first.encode() == second.encode()
    print(f"\nCRITERION 9 PASS: {len(first)} byte report reproduced exactly")


def test_criterion_10_hard_prior_always_wins():
    """With the first qubit pinned to 0 by the prior, map_estimate returns 0
    there on 100% of random instances, whatever the observations."""
    rng = np.random.default_rng(20241001)
    instances = 200
    for _ in range(instances):
        n, counts = _random_instance(rng, 10, 40)
        nm = NoiseModel(p01=rng.uniform(0.0, 0.5, n), p10=rng.uniform(0.0, 0.5, n))
        pins = rng.uniform(0.0, 1.0, n)
        pins[0] = 0.0
        est = map_estimate(counts, nm, Prior(per_qubit=pins))
        assert est.value[0] == "0"
        # and the mirror-image hard prior pins the bit to 1
        pins[0] = 1.0
        est = map_estimate(counts, nm, Prior(per_qubit=pins))
        assert est.value[0] == "1"
    print(f"\nCRITERION 10 PASS: hard prior honored on {instances}/{instances} instances")
