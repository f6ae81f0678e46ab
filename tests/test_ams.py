"""Tests for adaptive measurement subsetting: planning, execution, merging."""

import math

import numpy as np
import pytest

import qmvote.noise as noise_mod
from qmvote import (
    AmsPlan,
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

    @pytest.mark.parametrize("qubit", [-1, 2])
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


def reference_execute(x0, noise, plan, factor, seed):
    """The two-phase execution with every stream drawn through the public
    simulator: phase 1 as a full table, each subset circuit as a one-qubit
    table."""
    scaled = NoiseModel(p01=noise.p01 * factor, p10=noise.p10 * factor)
    if plan.subset_count == 0:
        pooled = tally(simulate_shots(x0, noise, plan.total_shots, derive_seed(seed, "phase1")))
        return merge_votes(pooled, noise, [], None, scaled), pooled.margins
    phase1 = tally(simulate_shots(x0, noise, plan.phase1_shots, derive_seed(seed, "phase1")))
    sub_zeros, sub_ones = [], []
    zeros, ones = phase1.zeros.copy(), phase1.ones.copy()
    shots = np.full(plan.n, phase1.shots)
    for q in plan.close_qubits:
        circuit = NoiseModel(p01=scaled.p01[q : q + 1], p10=scaled.p10[q : q + 1])
        stream = derive_seed(seed, "subset", q)
        counts = simulate_shots(x0[q], circuit, plan.per_subset_shots, stream)
        one = counts.counts.get("1", 0)
        sub_zeros.append(counts.shots - one)
        sub_ones.append(one)
        zeros[q] += counts.shots - one
        ones[q] += one
        shots[q] += counts.shots
    subsets = VoteTally(zeros=sub_zeros, ones=sub_ones)
    value = merge_votes(phase1, noise, plan.close_qubits, subsets, scaled)
    return value, np.abs(zeros - ones) / shots


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
            phase1 = simulate_shots(truth, noise, total // 2, derive_seed(seed, "phase1"))
            ref_plan = ams_plan(tally(phase1), tau)
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

    def test_degenerate_plan_equals_vote_on_single_full_run(self):
        truth = "10110"
        noise = NoiseModel.uniform(5, 0.2)
        t = tally_with_margins([0.5] * 5, 100)
        plan = ams_plan(t, 0.01)
        assert plan.close_qubits == ()
        est = ams_execute(truth, noise, plan, subset_noise_factor=1.0, seed=9)
        single = qmv(tally(simulate_shots(truth, noise, 200, derive_seed(9, "phase1"))))
        assert est.value == single.value

    def test_phase1_evidence_is_the_plans_tally(self):
        # qubit 0 read 1 on all 100 phase-1 shots; no fresh draw of the truth 00 overturns it
        plan = ams_plan(VoteTally(zeros=[0, 50], ones=[100, 50]), 0.05)
        assert plan.close_qubits == (1,)
        for seed in range(5):
            est = ams_execute("00", NoiseModel.uniform(2, 0.1), plan, seed=seed)
            assert est.value[0] == "1"
            assert est.margins[0] == 1.0

    def test_subset_records_checked_at_one_byte_per_shot(self, monkeypatch):
        # 16 qubits pack to 2 bytes a shot; a one-qubit subset record takes 1
        plan = ams_plan(VoteTally(zeros=[300] + [0] * 15, ones=[300] + [600] * 15), 0.05)
        assert plan.close_qubits == (0,) and plan.per_subset_shots == 600
        noise = NoiseModel.uniform(16, 0.1)
        monkeypatch.setattr(noise_mod, "MAX_RECORD_BYTES", 600)
        assert ams_execute("0" * 16, noise, plan, seed=2).value == "0" + "1" * 15
        monkeypatch.setattr(noise_mod, "MAX_RECORD_BYTES", 599)
        with pytest.raises(InfeasibleError, match="600 shots of 1 qubits"):
            ams_execute("0" * 16, noise, plan, seed=2)

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
