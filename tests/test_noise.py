"""Tests for the bit-flip shot simulator and the exact binomial error tail."""

import math

import numpy as np
import pytest

import qmvote.noise as noise_mod
from qmvote import (
    DimensionError,
    NoiseModel,
    ValidationError,
    derive_seed,
    shot_error_probability_exact,
    simulate_antipodal_shots,
    simulate_shots,
    tally,
)


class TestNoiseModel:
    def test_uniform_symmetric(self):
        nm = NoiseModel.uniform(3, 0.2)
        assert nm.n == 3
        assert nm.is_symmetric
        assert nm.symmetric(1)
        assert nm.for_qubit(0) == (0.2, 0.2)

    def test_uniform_asymmetric(self):
        nm = NoiseModel.uniform(2, 0.1, 0.3)
        assert not nm.is_symmetric
        assert nm.for_qubit(1) == (0.1, 0.3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            NoiseModel.uniform(2, 1.2)
        with pytest.raises(ValidationError):
            NoiseModel(p01=[0.1, -0.1], p10=[0.1, 0.1])
        with pytest.raises(ValidationError):
            NoiseModel.uniform(2, float("nan"))
        with pytest.raises(ValidationError):
            NoiseModel(p01=[0.1, 0.1], p10=[0.1, float("nan")])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionError):
            NoiseModel(p01=[0.1], p10=[0.1, 0.2])


class TestSimulateShots:
    def test_noiseless_channel(self):
        counts = simulate_shots("000", NoiseModel.uniform(3, 0.0), 100, 42)
        assert dict(counts.counts) == {"000": 100}

    def test_deterministic_full_flip(self):
        counts = simulate_shots("111", NoiseModel.uniform(3, 1.0), 10, 42)
        assert dict(counts.counts) == {"000": 10}

    def test_single_qubit_rate_within_five_sigma(self):
        # binomial sd at p=0.2, S=1e6 is 4e-4, so the band is +-0.002
        shots = 10**6
        counts = simulate_shots("0", NoiseModel.uniform(1, 0.2), shots, 2024)
        rate = counts.counts.get("1", 0) / shots
        assert abs(rate - 0.2) < 0.002

    def test_is_pure_function_of_inputs(self):
        nm = NoiseModel.uniform(4, 0.3)
        a = simulate_shots("0101", nm, 5000, 7)
        b = simulate_shots("0101", nm, 5000, 7)
        assert a == b
        c = simulate_shots("0101", nm, 5000, 8)
        assert a != c

    def test_out_of_order_block_assembly_matches_sequential(self, monkeypatch):
        """Each shot block is an independent keyed stream, so producing the
        blocks in any order (as parallel workers would) assembles into the
        sequential record."""
        monkeypatch.setattr(noise_mod, "_BLOCK_SHOTS", 128)
        nm = NoiseModel.uniform(3, 0.25)
        x0_bits = np.array([0, 1, 0], dtype=np.uint8)
        flip_p = np.where(x0_bits == 0, nm.p01, nm.p10)
        shots = 1000
        sequential = noise_mod._simulate_rows(x0_bits, flip_p, shots, 11)
        plan = list(noise_mod._block_bounds(shots))
        scrambled = {
            b: noise_mod._shot_block(x0_bits, flip_p, 11, b, take) for b, take in reversed(plan)
        }
        assembled = np.concatenate([scrambled[b] for b, _ in plan])
        assert np.array_equal(assembled, sequential)
        # and the aggregated table is reproducible end to end
        assert simulate_shots("010", nm, shots, 11) == simulate_shots("010", nm, shots, 11)

    def test_per_qubit_marginals_within_five_sigma(self):
        shots = 10**6
        nm = NoiseModel(p01=[0.05, 0.3, 0.5], p10=[0.2, 0.1, 0.4])
        t = tally(simulate_shots("010", nm, shots, 99))
        # truth 0 flips with p01, truth 1 with p10
        expected = np.array([0.05, 1 - 0.1, 0.5])
        sigma = np.sqrt(expected * (1 - expected) / shots)
        np.testing.assert_array_less(np.abs(t.p1 - expected), 5 * sigma + 1e-12)

    def test_pairwise_flip_independence(self):
        shots = 10**6
        p = 0.3
        counts = simulate_shots("000", NoiseModel.uniform(3, p), shots, 31)
        _, bits, weights = counts.as_arrays()
        flips = bits.astype(np.float64)
        mean = (weights @ flips) / shots
        for i in range(3):
            for j in range(i + 1, 3):
                joint = float(weights @ (flips[:, i] * flips[:, j])) / shots
                cov = joint - mean[i] * mean[j]
                # sd of the empirical covariance of two independent Bernoullis
                sigma = math.sqrt((p * (1 - p)) ** 2 / shots)
                assert abs(cov) < 5 * sigma

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            simulate_shots("01", NoiseModel.uniform(3, 0.1), 10, 0)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            simulate_shots("01", NoiseModel.uniform(2, 0.1), 0, 0)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValidationError):
            simulate_shots("01", NoiseModel.uniform(2, 0.1), 10, -1)
        with pytest.raises(ValidationError):
            simulate_shots("01", NoiseModel.uniform(2, 0.1), 10, 2**64)


class TestSimulateAntipodalShots:
    def test_deterministic(self):
        nm = NoiseModel.uniform(4, 0.2)
        a = simulate_antipodal_shots("0000", nm, 2000, 5)
        b = simulate_antipodal_shots("0000", nm, 2000, 5)
        assert a == b

    def test_even_truth_mixture(self):
        # each qubit reads 1 with chance 0.5*p + 0.5*(1-p) = 0.5 exactly
        shots = 200_000
        counts = simulate_antipodal_shots("000", NoiseModel.uniform(3, 0.2), shots, 17)
        t = tally(counts)
        sigma = math.sqrt(0.25 / shots)
        assert np.all(np.abs(t.p1 - 0.5) < 5 * sigma)

    def test_noiseless_mixture_is_pure_pair(self):
        counts = simulate_antipodal_shots("0101", NoiseModel.uniform(4, 0.0), 500, 23)
        assert set(counts.counts) == {"0101", "1010"}
        assert counts.shots == 500


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "phase1") == derive_seed(1, "phase1")
        assert derive_seed(1, "phase1") != derive_seed(2, "phase1")
        assert derive_seed(1, "subset", 0) != derive_seed(1, "subset", 1)

    def test_range(self):
        s = derive_seed(2**64 - 1, "x", 123)
        assert 0 <= s < 2**64


class TestShotErrorProbabilityExact:
    def test_example_value(self):
        # S=10, p=0.2: sum_{f=5..10} C(10,f) 0.2^f 0.8^(10-f) = 0.032793...
        assert shot_error_probability_exact(10, 0.2) == pytest.approx(0.0328, abs=5e-5)

    def test_no_flips(self):
        assert shot_error_probability_exact(10, 0.0) == 0.0

    def test_four_shot_hand_enumeration(self):
        # S=4, p=0.5: (C(4,2)+C(4,3)+C(4,4)) / 16 = 11/16
        assert shot_error_probability_exact(4, 0.5) == pytest.approx(11 / 16, rel=1e-12)

    def test_tie_counted_as_success_variant(self):
        # S=4, p=0.5 excluding the tie term: (C(4,3)+C(4,4)) / 16 = 5/16
        value = shot_error_probability_exact(4, 0.5, ties="success")
        assert value == pytest.approx(5 / 16, rel=1e-12)

    def test_odd_shots_have_no_tie(self):
        a = shot_error_probability_exact(9, 0.3)
        b = shot_error_probability_exact(9, 0.3, ties="success")
        assert a == b

    def test_certain_flip(self):
        assert shot_error_probability_exact(10, 1.0) == 1.0

    def test_matches_direct_summation(self):
        for shots, p in [(6, 0.1), (11, 0.45), (20, 0.3)]:
            lo = (shots + 1) // 2
            direct = sum(
                math.comb(shots, f) * p**f * (1 - p) ** (shots - f) for f in range(lo, shots + 1)
            )
            assert shot_error_probability_exact(shots, p) == pytest.approx(direct, rel=1e-12)

    def test_large_shot_count_is_stable(self):
        value = shot_error_probability_exact(10**6, 0.49)
        assert 0.0 < value < 1e-80

    def test_monotone_in_p(self):
        values = [shot_error_probability_exact(50, p) for p in np.linspace(0.01, 0.5, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            shot_error_probability_exact(0, 0.2)
        with pytest.raises(ValidationError):
            shot_error_probability_exact(10, 1.2)
        with pytest.raises(ValidationError):
            shot_error_probability_exact(10, 0.2, ties="maybe")
