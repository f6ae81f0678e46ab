"""Tests for adaptive measurement subsetting: planning, execution, merging."""

import math
import tracemalloc

import numpy as np
import pytest

import qmvote.ams as ams_mod
from qmvote import (
    AmsPlan,
    CountsTable,
    DimensionError,
    InfeasibleError,
    NoiseModel,
    ValidationError,
    VoteTally,
    adaptive_vote,
    ams_execute,
    ams_plan,
    derive_seed,
    merge_votes,
    qmv,
    simulate_shots,
    tally,
    weighted_vote,
)


def tally_with_margins(margins, shots):
    """Build a tally whose per-qubit |N0-N1|/shots is close to the given
    margins (rounded to representable counts)."""
    zeros = []
    for m in margins:
        diff = round(m * shots)
        zeros.append((shots + diff) // 2)
    zeros = np.array(zeros)
    return VoteTally(zeros=zeros, ones=shots - zeros)


class TestAmsPlan:
    def test_single_close_qubit(self):
        t = tally_with_margins([0.4, 0.004, 0.3], 1024)
        plan = ams_plan(t, 0.01)
        assert plan.phase1_shots == 1024
        assert plan.total_shots == 2048
        assert plan.close_qubits == (1,)
        assert plan.per_subset_shots == 1024
        assert plan.subset_count == 1
        assert not plan.insufficient

    def test_no_close_votes_degenerates(self):
        t = tally_with_margins([0.4, 0.2, 0.3], 512)
        plan = ams_plan(t, 0.01)
        assert plan.close_qubits == ()
        assert plan.per_subset_shots == 0
        assert not plan.insufficient

    def test_twelve_close_qubits_insufficient(self):
        # 1536-shot budget: 768 phase-1 shots, 12 close qubits -> 64 each
        margins = [0.001] * 12 + [0.5] * 13
        plan = ams_plan(tally_with_margins(margins, 768), 0.05)
        assert plan.phase1_shots == 768
        assert len(plan.close_qubits) == 12
        assert plan.per_subset_shots == 64
        assert plan.insufficient

    @pytest.mark.parametrize(
        "total,close,expected_per_circuit",
        [(1536, 1, 768), (2048, 3, 341), (6144, 2, 1536), (24576, 2, 6144)],
    )
    def test_per_circuit_shot_arithmetic(self, total, close, expected_per_circuit):
        margins = [0.0] * close + [0.9] * (25 - close)
        plan = ams_plan(tally_with_margins(margins, total // 2), 0.01)
        assert plan.per_subset_shots == expected_per_circuit

    def test_insufficient_fires_exactly_below_hundred(self):
        margins = [0.0] * 5 + [0.9] * 5
        plan = ams_plan(tally_with_margins(margins, 500), 0.01)
        assert plan.per_subset_shots == 100
        assert not plan.insufficient
        plan = ams_plan(tally_with_margins(margins, 498), 0.01)
        assert plan.per_subset_shots == 99
        assert plan.insufficient

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            shots = int(rng.integers(1, 200)) * 2
            ones = rng.integers(0, shots + 1, 10)
            t = VoteTally(zeros=shots - ones, ones=ones)
            tau1, tau2 = sorted(rng.uniform(0.01, 0.99, 2))
            small = ams_plan(t, tau1).close_qubits
            large = ams_plan(t, tau2).close_qubits
            assert set(small) <= set(large)

    def test_budget_conservation(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            shots = int(rng.integers(1, 300)) * 2
            ones = rng.integers(0, shots + 1, 12)
            t = VoteTally(zeros=shots - ones, ones=ones)
            plan = ams_plan(t, float(rng.uniform(0.01, 0.99)))
            used = plan.phase1_shots + len(plan.close_qubits) * plan.per_subset_shots
            assert used <= plan.total_shots

    def test_validation(self):
        t = tally_with_margins([0.1], 8)
        with pytest.raises(ValidationError):
            ams_plan(t, 0.0)
        with pytest.raises(ValidationError):
            ams_plan(t, 1.0)
        with pytest.raises(ValidationError, match="VoteTally"):
            AmsPlan([[4, 4]], 0.5)

    def test_plan_is_its_tally_and_tau(self):
        t = tally_with_margins([0.4, 0.004, 0.3], 1024)
        plan = AmsPlan(t, 0.01)
        assert plan == ams_plan(t, 0.01)
        assert plan.phase1 is t and plan.n == 3
        # every other field is derived, so no plan can disagree with its tally
        derived = (
            "n", "total_shots", "phase1_shots", "close_qubits", "per_subset_shots", "insufficient"
        )
        for name in derived:
            with pytest.raises(TypeError):
                AmsPlan(t, 0.01, **{name: getattr(plan, name)})


class TestMergeVotes:
    def test_pooled_decision_matches_two_hypothesis_oracle(self):
        """Fusing phase-1 and subset evidence must pick whichever bit has
        the larger total log-likelihood, computed independently here."""
        rng = np.random.default_rng(15)
        for _ in range(200):
            k = int(rng.integers(1, 60))
            sub_shots = int(rng.integers(1, 60))
            ones1 = int(rng.integers(0, k + 1))
            ones2 = int(rng.integers(0, sub_shots + 1))
            p = float(rng.uniform(0.05, 0.45))
            factor = float(rng.uniform(0.1, 1.0))
            noise = NoiseModel.uniform(1, p)
            sub_noise = NoiseModel.uniform(1, p * factor)
            t = VoteTally(zeros=np.array([k - ones1]), ones=np.array([ones1]))
            subset = VoteTally(zeros=[sub_shots - ones2], ones=[ones2])

            def loglik(bit, zeros, ones, q):
                flip = ones if bit == 0 else zeros
                keep = zeros if bit == 0 else ones
                return flip * math.log(q) + keep * math.log(1 - q)

            ll0 = loglik(0, k - ones1, ones1, p) + loglik(0, sub_shots - ones2, ones2, p * factor)
            ll1 = loglik(1, k - ones1, ones1, p) + loglik(1, sub_shots - ones2, ones2, p * factor)
            expected = "0" if ll0 > ll1 else "1"
            got = merge_votes(t, noise, [0], subset, sub_noise)
            assert got == expected

    def test_phase1_tie_decided_by_subset(self):
        noise = NoiseModel.uniform(1, 0.3)
        sub_noise = NoiseModel.uniform(1, 0.15)
        t = VoteTally(zeros=np.array([50]), ones=np.array([50]))
        strong_zero = VoteTally(zeros=[150], ones=[50])
        assert merge_votes(t, noise, [0], strong_zero, sub_noise) == "0"
        strong_one = VoteTally(zeros=[50], ones=[150])
        assert merge_votes(t, noise, [0], strong_one, sub_noise) == "1"

    @pytest.mark.parametrize("qubit", [-1, 2, 2**63, 2**70, np.uint64(2**63), -(2**70)])
    def test_subset_qubit_out_of_range_rejected(self, qubit):
        noise = NoiseModel.uniform(2, 0.2)
        t = VoteTally(zeros=np.array([70, 30]), ones=np.array([30, 70]))
        with pytest.raises(DimensionError):
            merge_votes(t, noise, [qubit], VoteTally(zeros=[0], ones=[10]), noise)

    def test_repeated_subset_qubit_rejected(self):
        noise = NoiseModel.uniform(2, 0.2)
        t = VoteTally(zeros=np.array([70, 30]), ones=np.array([30, 70]))
        subsets = VoteTally(zeros=[0, 10], ones=[10, 0])
        with pytest.raises(DimensionError):
            merge_votes(t, noise, [1, 1], subsets, noise)

    @pytest.mark.parametrize("qubits,circuits", [([0], 0), ([], 1), ([0, 1], 1)])
    def test_qubit_count_must_match_subset_counts(self, qubits, circuits):
        noise = NoiseModel.uniform(2, 0.2)
        t = VoteTally(zeros=np.array([70, 30]), ones=np.array([30, 70]))
        subsets = VoteTally(zeros=[0] * circuits, ones=[10] * circuits) if circuits else None
        with pytest.raises(DimensionError):
            merge_votes(t, noise, qubits, subsets, noise)

    @pytest.mark.parametrize("qubits", [[0.0], [True], ["0"]])
    def test_non_integer_subset_qubit_rejected(self, qubits):
        noise = NoiseModel.uniform(2, 0.2)
        t = VoteTally(zeros=np.array([70, 30]), ones=np.array([30, 70]))
        with pytest.raises(ValidationError):
            merge_votes(t, noise, qubits, VoteTally(zeros=[0], ones=[10]), noise)

    def test_subsets_must_be_a_tally(self):
        noise = NoiseModel.uniform(2, 0.2)
        t = VoteTally(zeros=np.array([70, 30]), ones=np.array([30, 70]))
        with pytest.raises(ValidationError):
            merge_votes(t, noise, [0], [(0, 10)], noise)

    def test_qubits_without_subset_use_phase1_weighted_vote(self):
        noise = NoiseModel.uniform(2, 0.2)
        t = VoteTally(zeros=np.array([70, 30]), ones=np.array([30, 70]))
        assert merge_votes(t, noise, [], None, noise) == weighted_vote(t, noise).value == "01"

    def test_factor_one_pooling_equals_weighted_vote_on_pooled_tally(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            k = int(rng.integers(10, 80))
            sub = int(rng.integers(10, 80))
            ones1 = int(rng.integers(0, k + 1))
            ones2 = int(rng.integers(0, sub + 1))
            p = float(rng.uniform(0.05, 0.45))
            noise = NoiseModel.uniform(1, p)
            t = VoteTally(zeros=np.array([k - ones1]), ones=np.array([ones1]))
            pooled = VoteTally(
                zeros=np.array([k - ones1 + sub - ones2]), ones=np.array([ones1 + ones2])
            )
            got = merge_votes(t, noise, [0], VoteTally(zeros=[sub - ones2], ones=[ones2]), noise)
            assert got == weighted_vote(pooled, noise).value


def binomial_ones(truth, noise, qubits, shots, stream):
    """The reference draw: for each listed qubit in order, how many of
    ``shots`` reads give 1, one Binomial(shots, Pr(read 1)) draw each from a
    Philox keyed by ``stream``."""
    read1 = [noise.p01[q] if truth[q] == "0" else 1.0 - noise.p10[q] for q in qubits]
    return np.random.Generator(np.random.Philox(key=stream)).binomial(shots, read1)


def reference_execute(x0, noise, plan, factor, seed):
    """The second half of the budget drawn qubit by qubit: the subset
    circuits from the "subset" stream, or with no close qubit every qubit
    again from the "top-up" stream, added to the plan's phase-1 tally."""
    scaled = NoiseModel(p01=noise.p01 * factor, p10=noise.p10 * factor)
    k = plan.phase1_shots
    zeros, ones = plan.phase1.zeros.copy(), plan.phase1.ones.copy()
    if plan.subset_count == 0:
        extra = binomial_ones(x0, noise, range(plan.n), k, derive_seed(seed, "top-up"))
        pooled = VoteTally(zeros=zeros + k - extra, ones=ones + extra)
        return merge_votes(pooled, noise, [], None, scaled), pooled.margins
    close, s = list(plan.close_qubits), plan.per_subset_shots
    sub_ones = binomial_ones(x0, scaled, close, s, derive_seed(seed, "subset"))
    subsets = VoteTally(zeros=s - sub_ones, ones=sub_ones)
    value = merge_votes(plan.phase1, noise, close, subsets, scaled)
    zeros[close] += s - sub_ones
    ones[close] += sub_ones
    return value, np.abs(zeros - ones) / (zeros + ones)


class TestAmsExecute:
    @pytest.mark.parametrize(
        "truth,p01,p10,tau,total,factor",
        [
            ("1010101", 0.4, 0.4, 0.2, 400, 0.5),
            ("110010111010", 0.3, 0.15, 0.25, 1000, 0.3),
            ("0" * 40, 0.45, 0.45, 0.1, 2000, 1.0),
            ("10110", 0.05, 0.05, 0.01, 200, 0.5),  # no close qubit
        ],
    )
    def test_adaptive_vote_matches_plan_then_execute(self, truth, p01, p10, tau, total, factor):
        noise = NoiseModel.uniform(len(truth), p01, p10)
        for seed in range(4):
            plan, est = adaptive_vote(truth, noise, tau, total, factor, seed=seed)
            k = total // 2
            ones = binomial_ones(truth, noise, range(len(truth)), k, derive_seed(seed, "phase1"))
            ref_plan = ams_plan(VoteTally(zeros=k - ones, ones=ones), tau)
            ref = ams_execute(truth, noise, ref_plan, factor, seed)
            assert plan == ref_plan
            assert est.value == ref.value
            assert np.array_equal(est.margins, ref.margins)
            value, margins = reference_execute(truth, noise, plan, factor, seed)
            assert est.value == value
            assert np.array_equal(est.margins, margins)

    def test_budget_too_small_for_subset_circuits(self):
        plan = ams_plan(tally_with_margins([0.0] * 5, 2), 0.5)
        assert plan.subset_count == 5 and plan.per_subset_shots == 0
        with pytest.raises(ValidationError):
            ams_execute("10101", NoiseModel.uniform(5, 0.2), plan)

    def test_degenerate_plan_tops_up_its_own_tally(self):
        truth = "10110"
        noise = NoiseModel.uniform(5, 0.2)
        t = tally_with_margins([0.5] * 5, 100)
        plan = ams_plan(t, 0.01)
        assert plan.close_qubits == ()
        est = ams_execute(truth, noise, plan, subset_noise_factor=1.0, seed=9)
        # the other 100 shots of the budget measure every qubit again
        extra = binomial_ones(truth, noise, range(5), 100, derive_seed(9, "top-up"))
        pooled = VoteTally(zeros=t.zeros + 100 - extra, ones=t.ones + extra)
        assert pooled.shots == plan.total_shots
        assert est.value == weighted_vote(pooled, noise).value
        assert np.array_equal(est.margins, pooled.margins)

    def test_phase1_evidence_is_the_plans_tally(self):
        # qubit 0 read 1 on all 100 phase-1 shots; no fresh draw of the truth 00 overturns it
        plan = ams_plan(VoteTally(zeros=[0, 50], ones=[100, 50]), 0.05)
        assert plan.close_qubits == (1,)
        for seed in range(5):
            est = ams_execute("00", NoiseModel.uniform(2, 0.1), plan, seed=seed)
            assert est.value[0] == "1"
            assert est.margins[0] == 1.0

    def test_deterministic(self):
        truth = "1010101"
        noise = NoiseModel.uniform(7, 0.4)
        plan, est = adaptive_vote(truth, noise, 0.2, 400, 0.5, seed=21)
        plan2, est2 = adaptive_vote(truth, noise, 0.2, 400, 0.5, seed=21)
        assert plan == plan2
        assert est.value == est2.value

    def test_validation(self):
        noise = NoiseModel.uniform(3, 0.2)
        plan = ams_plan(tally_with_margins([0.5, 0.5, 0.5], 50), 0.1)
        with pytest.raises(ValidationError):
            ams_execute("101", noise, plan, subset_noise_factor=0.0)
        with pytest.raises(ValidationError):
            ams_execute("101", noise, plan, subset_noise_factor=1.5)
        with pytest.raises(DimensionError):
            ams_execute("101", NoiseModel.uniform(4, 0.2), plan)
        with pytest.raises(ValidationError):
            adaptive_vote("101", noise, 0.1, 101)

    def test_subset_rescue_of_noisy_qubit(self):
        """A near-coin-flip qubit that defeats the plain vote is fixed by
        the cleaner subset measurement."""
        n = 9
        p = np.full(n, 0.1)
        p[4] = 0.495
        noise = NoiseModel(p01=p, p10=p)
        truth = "101010101"
        total = 1024
        rescued = 0
        plain = 0
        for seed in range(40):
            plan, est = adaptive_vote(truth, noise, 0.1, total, 0.2, seed=seed)
            rescued += est.value[4] == truth[4]
            counts = simulate_shots(truth, noise, total, derive_seed(seed, "plain"))
            plain += qmv(tally(counts)).value[4] == truth[4]
        assert rescued >= 38  # subset shots at p=0.099 almost never miss
        assert rescued >= plain

    def test_uniform_low_noise_sanity(self):
        # easy regime: both schedules recover the truth outright
        truth = ("10" * 13)[:25]
        noise = NoiseModel.uniform(25, 0.12)
        plan, est = adaptive_vote(truth, noise, 0.01, 6144, 0.25, seed=3)
        assert est.value == truth
        counts = simulate_shots(truth, noise, 6144, derive_seed(3, "plain"))
        assert qmv(tally(counts)).value == truth


class TestAmsDraws:
    """Each AMS phase is one binomial draw of ones per measured qubit."""

    # (truth, noise, tau, budget, factor, seed) -> (phase-1 ones, close qubits,
    # estimate, |N0 - N1| and shots behind each margin)
    PINNED = [
        (
            ("1010101", NoiseModel.uniform(7, 0.4), 0.2, 400, 0.5, 21),
            (
                [113, 75, 116, 80, 115, 97, 109],
                (0, 2, 4, 5, 6),
                "1010101",
                [52, 50, 64, 40, 50, 34, 44],
                [240, 200, 240, 200, 240, 240, 240],
            ),
        ),
        (
            (
                "110010",
                NoiseModel(
                    p01=[0.3, 0.1, 0.45, 0.2, 0.05, 0.4], p10=[0.15, 0.2, 0.4, 0.1, 0.3, 0.35]
                ),
                0.25,
                1000,
                0.3,
                5,
            ),
            (
                [417, 390, 226, 84, 356, 210],
                (2, 5),
                "110010",
                [334, 280, 242, 332, 212, 260],
                [500, 500, 750, 500, 500, 750],
            ),
        ),
        (  # no close qubit: the top-up measures every qubit 100 more times
            ("10110", NoiseModel.uniform(5, 0.05), 0.01, 200, 0.5, 2),
            ([94, 7, 95, 95, 9], (), "10110", [180, 168, 182, 184, 168], [200] * 5),
        ),
    ]

    @pytest.mark.parametrize("args,want", PINNED)
    def test_pinned_draws(self, args, want):
        # numpy does not promise Generator.binomial's stream across releases;
        # a release that changes it fails here rather than moving results silently
        ones, close, value, diffs, shots = want
        plan, est = adaptive_vote(*args[:5], seed=args[5])
        assert plan.phase1.ones.tolist() == ones
        assert plan.close_qubits == close
        assert est.value == value
        assert est.margins.tolist() == [d / s for d, s in zip(diffs, shots)]

    @pytest.mark.parametrize("p", [0.0, 0.02, 0.4, 1.0])
    def test_counts_follow_the_binomial(self, monkeypatch, p):
        """Over many seeds each qubit's ones count in each phase has the mean
        and variance of Binomial(shots, Pr(read 1)), within 5 sigma."""
        truth, factor, k, runs = "011010", 0.5, 120, 1500
        n = len(truth)
        noise = NoiseModel.uniform(n, p)
        bits = np.array([int(b) for b in truth])
        # every qubit close: each subset circuit gets k // n shots
        close_plan = ams_plan(VoteTally(zeros=[k // 2] * n, ones=[k // 2] * n), 0.5)
        far_plan = ams_plan(VoteTally(zeros=[k] * n, ones=[0] * n), 0.5)
        assert close_plan.subset_count == n and far_plan.subset_count == 0
        draws = {"phase1": [], "subset": [], "top-up": []}
        real = ams_mod._binomial_ones
        recorded = {}  # the stream whose draws the current call records

        def record(read1, shots, seed):
            ones = real(read1, shots, seed)
            if seed in recorded:
                draws[recorded[seed]].append(ones)
            return ones

        monkeypatch.setattr(ams_mod, "_binomial_ones", record)
        for seed in range(runs):
            recorded = {derive_seed(seed, "phase1"): "phase1"}
            adaptive_vote(truth, noise, 0.01, 2 * k, factor, seed=seed)
            recorded = {derive_seed(seed, "subset"): "subset"}
            ams_execute(truth, noise, close_plan, factor, seed)
            recorded = {derive_seed(seed, "top-up"): "top-up"}
            ams_execute(truth, noise, far_plan, factor, seed)

        def read1(p):
            return np.where(bits == 0, p, 1.0 - p)

        expected = {
            "phase1": (k, read1(p)),
            "subset": (k // n, read1(p * factor)),
            "top-up": (k, read1(p)),
        }
        for phase, (shots, q) in expected.items():
            ones = np.array(draws[phase], dtype=float)
            assert ones.shape == (runs, n), phase
            var = shots * q * (1 - q)
            mean_sd = np.sqrt(var / runs)
            # the sample variance's spread, from the binomial's fourth central moment
            mu4 = var * (1 + 3 * (shots - 2) * q * (1 - q))
            var_sd = np.sqrt(np.maximum(mu4 - var**2 * (runs - 3) / (runs - 1), 0) / runs)
            assert np.all(np.abs(ones.mean(axis=0) - shots * q) <= 5 * mean_sd + 1e-9), phase
            assert np.all(np.abs(ones.var(axis=0, ddof=1) - var) <= 5 * var_sd + 1e-9), phase

    @pytest.mark.parametrize("close", [0, 20])
    def test_memory_does_not_grow_with_the_budget(self, close):
        # a shot record of 2**40 shots of 200 qubits would take 25 TiB; margins
        # come out near 0.1 at p = 0.45, below tau, and near 0.2 at p = 0.4
        p = np.where(np.arange(200) < close, 0.45, 0.4)
        noise = NoiseModel(p01=p, p10=p)
        tracemalloc.start()
        try:
            plan, est = adaptive_vote("10" * 100, noise, 0.16, 2**40, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert plan.phase1_shots == 2**39 and plan.subset_count == close
        assert est.value == "10" * 100

    def test_budget_past_int64_refused_before_a_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew counts for a refused budget")

        monkeypatch.setattr(ams_mod, "_binomial_ones", no_draw)
        noise = NoiseModel.uniform(2, 0.1)
        for total in (2**63, 2**64, 10**30):
            with pytest.raises(ValidationError, match="2\\*\\*63 - 1"):
                adaptive_vote("01", noise, 0.3, total)
        # a tally of 2**62 shots plans a budget of 2**63, whose pooled counts would wrap
        for zeros in ([2**62, 0], [2**61, 2**62]):
            plan = ams_plan(VoteTally(zeros=zeros, ones=[2**62 - z for z in zeros]), 0.3)
            assert plan.total_shots == 2**63
            with pytest.raises(InfeasibleError, match="2\\*\\*63 - 1"):
                ams_execute("01", noise, plan)

    def test_largest_budget_answers(self):
        noise = NoiseModel.uniform(3, 0.1)
        plan, est = adaptive_vote("011", noise, 0.3, 2**63 - 2, seed=1)
        assert plan.total_shots == 2**63 - 2 and est.value == "011"
        # pooled phase 1 and top-up reach the int64 limit without wrapping
        assert np.all(est.margins > 0.7)
        plan = ams_plan(VoteTally(zeros=[2**62 - 1, 0], ones=[0, 2**62 - 1]), 0.3)
        assert ams_execute("01", NoiseModel.uniform(2, 0.1), plan).value == "01"

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 200])
    def test_permuting_qubits_permutes_plan_and_merge(self, n):
        rng = np.random.default_rng(n)
        table = simulate_shots(
            "".join(rng.choice(["0", "1"], size=n)), NoiseModel.uniform(n, 0.42), 300, seed=n
        )
        t = tally(table)
        perm = rng.permutation(n)
        inverse = np.argsort(perm)
        permuted = tally(
            CountsTable({"".join(k[i] for i in perm): c for k, c in table.items()}, n=n)
        )
        # margins are multiples of 1/300: a tau 1/600 above their median makes
        # at least half the qubits, so always at least one, close
        tau = float(np.median(t.margins)) + 1 / 600
        plan, plan_p = ams_plan(t, tau), ams_plan(permuted, tau)
        assert 0 < plan.subset_count
        assert set(plan_p.close_qubits) == {int(inverse[q]) for q in plan.close_qubits}

        noise = NoiseModel(p01=rng.uniform(0.05, 0.45, n), p10=rng.uniform(0.05, 0.45, n))
        sub_noise = NoiseModel(p01=noise.p01 / 2, p10=noise.p10 / 2)
        close = list(plan.close_qubits)
        sub_ones = rng.integers(0, 31, len(close))
        subsets = VoteTally(zeros=30 - sub_ones, ones=sub_ones) if close else None
        value = merge_votes(t, noise, close, subsets, sub_noise)
        value_p = merge_votes(
            permuted,
            NoiseModel(p01=noise.p01[perm], p10=noise.p10[perm]),
            [int(inverse[q]) for q in close],
            subsets,
            NoiseModel(p01=sub_noise.p01[perm], p10=sub_noise.p10[perm]),
        )
        assert value_p == "".join(value[i] for i in perm)
