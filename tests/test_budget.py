"""Tests for the shot-budget bounds and the shot-count rule."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from qmvote import (
    ExperimentConfig,
    InvalidRegimeError,
    ValidationError,
    m3_shot_requirement,
    per_qubit_target_bound,
    qmv_error_bound,
    required_shots,
    run_experiment,
    shot_error_probability_exact,
)
from qmvote.budget import _figures
from qmvote.cli import main

P_GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]


class TestQmvErrorBound:
    def test_reference_value(self):
        # 0.64^5 * sqrt(2/(10 pi)) * (0.8/0.6)
        expected = 0.64**5 * math.sqrt(2 / (10 * math.pi)) * (0.8 / 0.6)
        assert qmv_error_bound(10, 0.2) == pytest.approx(expected, rel=1e-12)
        assert qmv_error_bound(10, 0.2) == pytest.approx(0.0361, abs=5e-5)
        assert qmv_error_bound(10, 0.2) >= shot_error_probability_exact(10, 0.2)

    def test_noiseless(self):
        assert qmv_error_bound(2, 0.0) == 0.0

    def test_rejects_odd_shots(self):
        with pytest.raises(ValidationError):
            qmv_error_bound(11, 0.2)

    def test_rejects_half_and_above(self):
        with pytest.raises(InvalidRegimeError):
            qmv_error_bound(10, 0.5)
        with pytest.raises(InvalidRegimeError):
            qmv_error_bound(10, 0.7)

    def test_dominates_exact_tail_on_grid(self):
        for shots in range(10, 501, 10):
            for p in P_GRID:
                assert qmv_error_bound(shots, p) >= shot_error_probability_exact(shots, p)

    def test_monotone_in_p_and_shots(self):
        for shots in (10, 50, 200):
            values = [qmv_error_bound(shots, p) for p in P_GRID]
            assert all(a <= b for a, b in zip(values, values[1:]))
        for p in (0.1, 0.3, 0.45):
            values = [qmv_error_bound(s, p) for s in range(10, 400, 10)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_derivation_steps_each_dominate(self):
        """The tail is bounded first by its largest term times a geometric
        series, then by a Stirling estimate; both inequalities must hold
        on their own so a dominance failure can be localized."""
        for shots in range(10, 201, 10):
            for p in P_GRID:
                exact = shot_error_probability_exact(shots, p)
                largest = math.comb(shots, shots // 2) * (p * (1 - p)) ** (shots // 2)
                geometric_step = largest * (1 - p) / (1 - 2 * p)
                assert exact <= geometric_step * (1 + 1e-12)
                assert geometric_step <= qmv_error_bound(shots, p) * (1 + 1e-12)


class TestRequiredShots:
    def test_reference_value(self):
        # 0.5 ln(1000) / 0.01 = 345.39 -> 346, already even
        assert required_shots(1000, 0.1) == 346

    def test_minimal_case(self):
        # 0.5 ln(2) / 0.25 = 1.386 -> 2
        assert required_shots(2, 0.5) == 2

    def test_log_cancellation(self):
        # ln(e^2) = 2 cancels the 0.5, leaving 1/eps^2 (evenized)
        n = math.e**2
        assert required_shots(n, 0.1) == 100
        assert required_shots(n, 0.3) == math.ceil(1 / 0.09) + (math.ceil(1 / 0.09) % 2)

    def test_always_even(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 10_000))
            eps = float(rng.uniform(0.01, 0.5))
            assert required_shots(n, eps) % 2 == 0

    def test_monotone_in_n_and_margin(self):
        values = [required_shots(n, 0.1) for n in (2, 10, 100, 1000, 10_000)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        values = [required_shots(100, eps) for eps in (0.4, 0.2, 0.1, 0.05)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            required_shots(1, 0.1)
        with pytest.raises(ValidationError):
            required_shots(10, 0.0)
        with pytest.raises(ValidationError):
            required_shots(10, 0.6)

    def test_float32_margin_computes_in_python_floats(self):
        # in float32, epsilon**2 underflows and the quotient overflows with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert required_shots(10, np.float32(1e-20)) == required_shots(10, float(np.float32(1e-20)))
        assert required_shots(10, 1e-20) == 11512925464970230224810542075664427646976


class TestPerQubitTargetBound:
    def test_reference_value(self):
        expected = 0.6 / math.sqrt(math.pi * math.log(1000)) / 1000
        assert per_qubit_target_bound(1000, 0.1) == pytest.approx(expected, rel=1e-12)
        assert per_qubit_target_bound(1000, 0.1) == pytest.approx(1.288e-4, rel=1e-3)

    def test_monotone_decreasing_in_n(self):
        values = [per_qubit_target_bound(n, 0.1) for n in (2, 4, 16, 256, 4096)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dominates_closed_form_at_recommended_shots(self):
        # at S = required_shots(n, eps) the closed form must sit below the
        # asymptotic target, which is what makes the shot rule sufficient
        for n in (16, 64, 256, 1024):
            for eps in (0.05, 0.1, 0.2, 0.4):
                shots = required_shots(n, eps)
                assert qmv_error_bound(shots, 0.5 - eps) <= per_qubit_target_bound(n, eps)


class TestM3ShotRequirement:
    def test_reference_value(self):
        assert m3_shot_requirement(20, 0.35) == pytest.approx(0.65**-20, rel=1e-12)
        assert m3_shot_requirement(20, 0.35) == pytest.approx(5.5e3, rel=0.01)

    def test_trivial_case(self):
        assert m3_shot_requirement(1, 0.0) == 1.0

    @pytest.mark.parametrize("n", [10**400, 2**1100, math.inf], ids=["10**400", "2**1100", "inf"])
    def test_noiseless_is_one_past_float_range(self, n):
        # (1 - 0)^(-n) is 1 for every n, even one the float power cannot take
        assert m3_shot_requirement(n, 0.0) == 1.0

    def test_rejects_certain_flip(self):
        with pytest.raises(ValidationError):
            m3_shot_requirement(10, 1.0)

    @pytest.mark.parametrize("n, p", [(100_000, 0.4), (3000, 0.45), (1 << 40, 0.01)])
    def test_past_float_range_is_infinite(self, n, p):
        assert m3_shot_requirement(n, p) == math.inf

    def test_infinite_estimate_reported_as_none(self):
        assert m3_shot_requirement(100_000, 0.4) == math.inf
        assert _figures(100_000, 0.4)["m3_shots_estimate"] is None

    def test_largest_finite_value_kept(self):
        # 0.5^-1023 = 2^1023 is in range, 2^1024 is not
        assert m3_shot_requirement(1023, 0.5) == 2.0**1023
        assert m3_shot_requirement(1024, 0.5) == math.inf

    def test_ratio_to_vote_rule_grows_in_n(self):
        p = 0.2
        ratios = [
            m3_shot_requirement(n, p) / required_shots(n, 0.5 - p) for n in (4, 16, 64, 256)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestEndToEndShotRule:
    def test_full_bitstring_error_within_union_bound(self):
        """Running the vote at the recommended shot count keeps the chance
        of any wrong bit below n times the per-qubit target (5 sigma)."""
        from qmvote import VoteTally, derive_seed, qmv

        trials = 20_000
        for n in (16, 64, 256):
            for eps in (0.1, 0.2):
                shots = required_shots(n, eps)
                p = 0.5 - eps
                union_target = min(1.0, n * per_qubit_target_bound(n, eps))
                rng = np.random.default_rng(derive_seed(52, "union", n, shots))
                ones = rng.binomial(shots, p, size=(trials, n))
                bad = 0
                for row in ones:
                    t = VoteTally(zeros=shots - row, ones=row)
                    bad += "1" in qmv(t).value
                observed = bad / trials
                sigma = math.sqrt(union_target * (1 - union_target) / trials)
                assert observed <= union_target + 5 * sigma


FIGURE_KEYS = {
    "n", "p", "epsilon", "shots", "required_shots", "bound_per_qubit",
    "bound_any_qubit", "per_qubit_target", "m3_shots_estimate",
}


def bound(*argv):
    """``qmvote bound`` output as a dict, for a query it answers."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bound", *argv]) == 0
    return json.loads(out.getvalue())


class TestFigures:
    def test_epsilon_derived_exactly(self):
        figures = _figures(100, 0.3)
        assert figures["epsilon"] == 0.5 - 0.3
        printed = bound("--n", "100", "--epsilon", "0.2")
        assert printed["p"] == 0.5 - 0.2
        assert printed["epsilon"] == 0.5 - printed["p"]

    def test_default_shots_follow_rule(self):
        assert _figures(1000, 0.4)["shots"] == 346
        assert bound("--n", "1000", "--epsilon", "0.1")["shots"] == 346

    def test_report_fields(self):
        figures = _figures(64, 0.3)
        assert set(figures) == FIGURE_KEYS
        assert figures["n"] == 64
        assert figures["required_shots"] == required_shots(64, 0.5 - 0.3)
        assert figures["shots"] == figures["required_shots"]
        assert 0.0 <= figures["bound_per_qubit"] <= 1.0
        assert figures["bound_any_qubit"] == pytest.approx(min(1.0, 64 * figures["bound_per_qubit"]))
        assert figures["per_qubit_target"] == per_qubit_target_bound(64, 0.5 - 0.3)
        assert figures["m3_shots_estimate"] == pytest.approx(m3_shot_requirement(64, 0.3))
        assert bound("--n", "64", "--p", "0.3") == figures

    @pytest.mark.parametrize("n, p, shots", [(10, 0.2, None), (np.int64(10), np.float32(0.25), np.int64(40))])
    def test_values_are_python_numbers(self, n, p, shots):
        for key, value in _figures(n, p, shots).items():
            assert type(value) in (int, float), (key, type(value))

    def test_rejects_odd_shots(self):
        with pytest.raises(ValidationError):
            _figures(10, 0.2, shots=11)

    def test_experiment_budget_matches_bound(self):
        config = ExperimentConfig.from_dict(
            {
                "ground_truth": {"pattern": "alternating", "n": 12},
                "noise": {"p": 0.2},
                "shots": [40],
                "estimators": ["qmv"],
                "seeds": [0],
            }
        )
        budget = run_experiment(config).budget
        printed = bound("--n", "12", "--p", "0.2")
        for key in ("p", "epsilon", "required_shots", "per_qubit_target", "m3_shots_estimate"):
            assert budget[key] == printed[key], key
