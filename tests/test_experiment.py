"""Tests for the experiment harness and its reports."""

import csv
import io

import pytest

from qmvote import (
    ExperimentConfig,
    InfeasibleError,
    ValidationError,
    ground_truth_pattern,
    run_experiment,
)


def make_config(**overrides):
    base = {
        "ground_truth": "101010",
        "noise": {"p": 0.1},
        "shots": [64, 128],
        "estimators": ["mode", "qmv"],
        "seeds": [0, 1, 2],
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_pattern_expansion(self):
        assert ground_truth_pattern("alternating", 5) == "10101"
        assert ground_truth_pattern("alternating", 25) == "1010101010101010101010101"
        assert ground_truth_pattern("all-zeros", 3) == "000"
        assert ground_truth_pattern("ghz-antipodal", 4) == "0000"

    def test_pattern_object_form(self):
        cfg = make_config(ground_truth={"pattern": "ghz-antipodal", "n": 6}, estimators=["window"])
        assert cfg.ground_truth == "000000"
        assert cfg.antipodal

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValidationError):
            make_config(estimators=["qmv", "oracle"])

    def test_needs_estimators_and_seeds(self):
        with pytest.raises(ValidationError):
            make_config(estimators=[])
        with pytest.raises(ValidationError):
            make_config(seeds=[])

    def test_ml_too_wide_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            make_config(ground_truth="1" * 21, noise={"p": 0.1}, estimators=["ml"])

    def test_ams_needs_settings_and_even_shots(self):
        with pytest.raises(ValidationError):
            make_config(estimators=["ams"])
        with pytest.raises(InfeasibleError):
            make_config(estimators=["ams"], ams={"tau": 0.05, "factor": 0.5}, shots=[65])
        cfg = make_config(estimators=["ams"], ams={"tau": 0.05, "factor": 0.5})
        assert cfg.ams_tau == 0.05

    def test_noise_forms(self):
        asym = make_config(noise={"p01": 0.1, "p10": 0.3})
        assert not asym.noise.is_symmetric
        per_qubit = make_config(noise={"p01": [0.1] * 6, "p10": [0.2] * 6})
        assert per_qubit.noise.n == 6
        with pytest.raises(ValidationError):
            make_config(noise={"p01": [0.1] * 3, "p10": [0.2] * 3})
        with pytest.raises(ValidationError):
            make_config(noise={"p": 0.1, "p01": 0.1, "p10": 0.1})

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"noise": {"p": "abc"}}, "noise.p"),
            ({"noise": {"p": None}}, "noise.p"),
            ({"noise": {"p01": "x", "p10": 0.1}}, "noise.p01"),
            ({"noise": {"p01": 0.1, "p10": "y"}}, "noise.p10"),
            ({"noise": {"p01": [0.1] * 5 + ["x"], "p10": [0.1] * 6}}, "noise.p01"),
            ({"estimators": ["ams"], "ams": {"tau": "x", "factor": 0.5}}, "ams.tau"),
            ({"estimators": ["ams"], "ams": {"tau": 0.05, "factor": "x"}}, "ams.factor"),
            ({"estimators": ["ams"], "ams": {"tau": [0.05], "factor": 0.5}}, "ams.tau"),
        ],
    )
    def test_non_numeric_fields_rejected(self, overrides, field):
        with pytest.raises(ValidationError, match=field):
            make_config(**overrides)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(
                {
                    "ground_truth": "01",
                    "noise": {"p": 0.1},
                    "shots": [4],
                    "estimators": ["qmv"],
                    "seeds": [0],
                    "extra": 1,
                }
            )


class TestRunExperiment:
    def test_noiseless_runs_recover_truth_everywhere(self):
        cfg = make_config(
            noise={"p": 0.0},
            estimators=["mode", "ml", "map", "qmv", "weighted", "window"],
            shots=[16],
            seeds=[0, 1],
        )
        report = run_experiment(cfg)
        assert all(row["distance"] == 0 for row in report.rows)

    def test_majority_vote_beats_mode_when_truth_is_never_measured(self):
        # p=0.3 over 25 qubits: the exact truth shows up once per ~7500
        # shots, so the mode hugs noise while the vote stays clean
        cfg = ExperimentConfig.from_dict(
            {
                "ground_truth": {"pattern": "alternating", "n": 25},
                "noise": {"p": 0.3},
                "shots": [1024, 2048],
                "estimators": ["mode", "qmv"],
                "seeds": list(range(100)),
            }
        )
        report = run_experiment(cfg)
        for shots in cfg.shots:
            means = {
                agg["estimator"]: agg["mean_distance"]
                for agg in report.aggregates
                if agg["shots"] == shots
            }
            assert means["qmv"] < means["mode"]

    def test_rows_cover_every_cell(self):
        cfg = make_config()
        report = run_experiment(cfg)
        assert len(report.rows) == len(cfg.shots) * len(cfg.seeds) * len(cfg.estimators)
        keys = {(r["estimator"], r["shots"], r["seed"]) for r in report.rows}
        assert len(keys) == len(report.rows)

    def test_report_json_deterministic_and_runtime_free(self):
        cfg = make_config(
            estimators=["mode", "ml", "map", "qmv", "weighted", "window", "ams"],
            ams={"tau": 0.1, "factor": 0.5},
            shots=[32],
            seeds=[0, 1],
        )
        first = run_experiment(cfg).to_json()
        second = run_experiment(cfg).to_json()
        assert first == second
        assert "runtime_ms" not in first

    def test_csv_and_json_agree_on_distances(self):
        cfg = make_config()
        report = run_experiment(cfg)
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert [r["estimator"] for r in rows] == [r["estimator"] for r in report.rows]
        assert [int(r["S"]) for r in rows] == [r["shots"] for r in report.rows]
        assert [int(r["seed"]) for r in rows] == [r["seed"] for r in report.rows]
        assert [int(r["distance"]) for r in rows] == [r["distance"] for r in report.rows]
        assert all(float(r["runtime_ms"]) >= 0 for r in rows)

    def test_csv_header_shape(self):
        report = run_experiment(make_config(shots=[8], seeds=[0]))
        lines = report.to_csv().splitlines()
        assert lines[0] == "estimator,S,seed,distance,runtime_ms"

    def test_budget_section_for_uniform_symmetric_noise(self):
        report = run_experiment(make_config(shots=[64, 65]))
        budget = report.budget
        assert budget is not None
        assert budget["required_shots"] > 0
        assert budget["qmv_error_bound"]["64"] is not None
        assert budget["qmv_error_bound"]["65"] is None  # bound needs even shots

    def test_no_budget_for_asymmetric_noise(self):
        report = run_experiment(make_config(noise={"p01": 0.1, "p10": 0.3}, shots=[16]))
        assert report.budget is None

    def test_window_rows_report_pair_distance(self):
        cfg = make_config(
            ground_truth={"pattern": "ghz-antipodal", "n": 8},
            noise={"p": 0.05},
            estimators=["window"],
            shots=[256],
            seeds=[0],
        )
        report = run_experiment(cfg)
        row = report.rows[0]
        assert row["distance"] == 0
        assert sorted(row["estimate"]) == ["00000000", "11111111"]

    def test_ghz_window_config_recovers_pair_under_heavy_noise(self):
        # the correct strings are essentially never measured at p=0.35, yet
        # the window reconstruction lands on them
        cfg = ExperimentConfig.from_dict(
            {
                "ground_truth": {"pattern": "ghz-antipodal", "n": 20},
                "noise": {"p": 0.35},
                "shots": [4000],
                "estimators": ["window"],
                "seeds": list(range(10)),
            }
        )
        report = run_experiment(cfg)
        assert all(row["distance"] == 0 for row in report.rows)

    def test_antipodal_distance_uses_closest_member(self):
        # with the antipodal flag even single-string estimators score
        # against the nearer of the two correct outputs
        cfg = make_config(
            ground_truth={"pattern": "ghz-antipodal", "n": 6},
            noise={"p": 0.0},
            estimators=["qmv"],
            shots=[33],
            seeds=[4],
        )
        report = run_experiment(cfg)
        assert report.rows[0]["distance"] == 0
