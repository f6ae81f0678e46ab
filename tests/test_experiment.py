"""Tests for the experiment harness and its reports."""

import csv
import io
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmvote.estimators as estimators_mod
import qmvote.experiment as experiment_mod
from qmvote import (
    ExperimentConfig,
    InfeasibleError,
    NoiseModel,
    ValidationError,
    derive_seed,
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

    def test_pattern_length_bounded(self):
        assert len(ground_truth_pattern("alternating", 4096)) == 4096
        for n in (0, -3, 4097, 10**30):
            with pytest.raises(ValidationError, match="1..4096"):
                ground_truth_pattern("all-zeros", n)
        with pytest.raises(ValidationError, match="1..4096"):
            make_config(ground_truth={"pattern": "alternating", "n": 10**30})

    def test_pattern_object_form(self):
        cfg = make_config(ground_truth={"pattern": "ghz-antipodal", "n": 6}, estimators=["window"])
        assert cfg.ground_truth == "000000"
        assert cfg.antipodal

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            ExperimentConfig.from_json("[" * 200_000)

    def test_config_is_utf8_without_a_byte_order_mark(self):
        text = '{"ground_truth": "01", "noise": {"p": 0.1}, "shots": [4], "estimators": ["qmv"], "seeds": [0]}'
        assert ExperimentConfig.from_json(text.encode()).ground_truth == "01"
        for data, message in [
            (b"\xff" + text.encode(), "not valid UTF-8"),
            (text.encode("utf-16"), "not valid UTF-8"),
            (text.encode("utf-16-le"), "not valid JSON"),
            (text.encode("utf-8-sig"), "not valid JSON"),
            ("\ufeff" + text, "not valid JSON"),
        ]:
            with pytest.raises(ValidationError, match=f"experiment config is {message}"):
                ExperimentConfig.from_json(data)

    @pytest.mark.parametrize(
        "truth,message",
        [(5, "must be a str"), ("0a1", "over 0/1"), ("", "over 0/1"), (None, "must be a str")],
    )
    def test_ground_truth_checked_when_built(self, truth, message):
        noise = NoiseModel.uniform(3, 0.1)
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(ground_truth=truth, noise=noise, shots=(4,), estimators=("qmv",), seeds=(0,))
        if truth == "0a1":  # the other values are refused by the file reader's own checks
            with pytest.raises(ValidationError, match=message):
                make_config(ground_truth=truth, noise={"p": 0.1})

    @pytest.mark.parametrize("field", ["shots", "seeds", "estimators"])
    @pytest.mark.parametrize("value", [5, "qmv", None, {"qmv": 1}])
    def test_sequence_fields_must_be_lists(self, field, value):
        fields = {"shots": (4,), "estimators": ("qmv",), "seeds": (0,), field: value}
        with pytest.raises(ValidationError, match=f"field '{field}' must be a list"):
            ExperimentConfig(ground_truth="01", noise=NoiseModel.uniform(2, 0.1), **fields)
        with pytest.raises(ValidationError, match=f"field '{field}' must be a list"):
            make_config(**{field: value})

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValidationError):
            make_config(estimators=["qmv", "oracle"])

    def test_needs_estimators_and_seeds(self):
        with pytest.raises(ValidationError):
            make_config(estimators=[])
        with pytest.raises(ValidationError):
            make_config(seeds=[])

    def test_ml_wide_over_work_limit_is_infeasible(self):
        # 2^40 candidates x (8 keys + 16)
        with pytest.raises(InfeasibleError, match=f"is {24 << 40} candidate-key pairs"):
            make_config(ground_truth="1" * 40, noise={"p": 0.1}, shots=[8], estimators=["ml"])

    def test_ml_over_work_limit_refused_at_config_time(self):
        """A table has at most min(shots, 2^n) distinct keys; at n = 24 the
        scan's 2^24 x (K + 16) pairs stay within 2^37 up to K = 8176."""
        n24 = {"pattern": "alternating", "n": 24}
        for shots in (8177, 20_000):
            message = f"over {shots} distinct keys is {(shots + 16) << 24} .*{1 << 37} allowed"
            with pytest.raises(InfeasibleError, match=message):
                make_config(ground_truth=n24, shots=[64, shots], estimators=["qmv", "ml"])
        assert make_config(ground_truth=n24, shots=[8176], estimators=["ml"]).shots == (8176,)
        # at n = 10 a table has at most 1024 keys, however many shots
        make_config(ground_truth="1" * 10, shots=[10**6], estimators=["ml"])
        # map with the harness's per-qubit prior does not scan
        make_config(ground_truth=n24, shots=[20_000], estimators=["map"])

    def test_oversized_shot_record_refused_at_config_time(self):
        # 16 qubits pack to two bytes per shot, and deduplicating takes 24
        # more, so 4 GiB holds 165160802 shots
        alternating = {"pattern": "alternating", "n": 16}
        with pytest.raises(InfeasibleError, match="packed shot record.*4 GiB allowed"):
            make_config(ground_truth=alternating, shots=[64, 165160803])
        assert make_config(ground_truth=alternating, shots=[165160802]).shots == (165160802,)

    def test_ams_only_config_builds_no_shot_record(self, monkeypatch):
        """ams draws its own per-qubit counts, so the record rule and the
        simulator apply only when another estimator is named."""
        truth, ams = {"pattern": "alternating", "n": 200}, {"tau": 0.16, "factor": 0.5}
        with pytest.raises(InfeasibleError, match="packed shot record"):
            make_config(ground_truth=truth, shots=[2**40], estimators=["qmv", "ams"], ams=ams)
        cfg = make_config(
            ground_truth=truth, noise={"p": 0.4}, shots=[2**40], estimators=["ams"], seeds=[1], ams=ams
        )

        def refuse(*args):
            raise AssertionError("an ams-only cell simulated a shot record")

        monkeypatch.setattr(experiment_mod, "simulate_shots", refuse)
        (row,) = run_experiment(cfg).rows
        assert (row["estimator"], row["shots"], row["distance"]) == ("ams", 2**40, 0)
        # the largest budget a count holds is the limit, and it is checked at config time
        with pytest.raises(ValidationError, match="at most 2\\*\\*63 - 1 shots"):
            make_config(ground_truth=truth, shots=[2**40, 2**64], estimators=["ams"], ams=ams)

    def test_ams_needs_settings_and_even_shots(self):
        with pytest.raises(ValidationError):
            make_config(estimators=["ams"])
        with pytest.raises(InfeasibleError):
            make_config(estimators=["ams"], ams={"tau": 0.05, "factor": 0.5}, shots=[65])
        cfg = make_config(estimators=["ams"], ams={"tau": 0.05, "factor": 0.5})
        assert cfg.ams_tau == 0.05
        assert make_config(ams={"tau": 0.99, "factor": 1.0}).ams_factor == 1.0

    def test_ams_refused_on_antipodal_pattern(self):
        """Every qubit of an equal x0/complement mixture reads 0 and 1
        equally often, so a per-qubit vote has no answer there."""
        ghz = {"pattern": "ghz-antipodal", "n": 20}
        ams = {"tau": 0.1, "factor": 0.5}
        with pytest.raises(InfeasibleError, match="'ams'.*ghz-antipodal"):
            make_config(ground_truth=ghz, estimators=["qmv", "ams"], ams=ams)
        # the same truth as a plain bitstring is an ordinary all-zeros run
        make_config(ground_truth="0" * 20, estimators=["qmv", "ams"], ams=ams)
        assert make_config(ground_truth=ghz, estimators=["qmv", "window"]).antipodal

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
            # ranges are checked whenever the field is given
            ({"ams": {"tau": 5, "factor": 0.5}}, "ams.tau"),
            ({"ams": {"tau": 0.0, "factor": 0.5}}, "ams.tau"),
            ({"ams": {"tau": 1.0, "factor": 0.5}}, "ams.tau"),
            ({"ams": {"tau": "nan", "factor": 0.5}}, "ams.tau"),
            ({"ams": {"tau": 0.05, "factor": -1}}, "ams.factor"),
            ({"ams": {"tau": 0.05, "factor": 0.0}}, "ams.factor"),
            ({"ams": {"tau": 0.05, "factor": 1.5}}, "ams.factor"),
            ({"estimators": ["ams"], "ams": {"tau": 0.05, "factor": "nan"}}, "ams.factor"),
            # booleans and numeric strings are not numbers
            ({"noise": {"p": True}}, "noise.p"),
            ({"noise": {"p": "0.1"}}, "noise.p"),
            ({"noise": {"p01": False, "p10": 0.1}}, "noise.p01"),
            ({"noise": {"p01": 0.1, "p10": "0.2"}}, "noise.p10"),
            ({"noise": {"p01": [True] + [0.1] * 5, "p10": [0.1] * 6}}, "noise.p01"),
            ({"noise": {"p01": [0.1] * 6, "p10": [0.1] * 5 + ["0.1"]}}, "noise.p10"),
            ({"estimators": ["ams"], "ams": {"tau": "0.5", "factor": 0.5}}, "ams.tau"),
            ({"estimators": ["ams"], "ams": {"tau": 0.05, "factor": True}}, "ams.factor"),
            ({"noise": {"p": 10**400}}, "noise.p"),
            ({"ams": {"tau": 0.05, "factor": -(10**400)}}, "ams.factor"),
        ],
    )
    def test_non_numeric_fields_rejected(self, overrides, field):
        with pytest.raises(ValidationError, match=field):
            make_config(**overrides)

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"shots": [16, 16]}, "shots"),
            ({"seeds": [0, 0, 1]}, "seeds"),
            ({"estimators": ["qmv", "mode", "qmv"]}, "estimators"),
        ],
    )
    def test_repeated_entries_rejected(self, overrides, field):
        with pytest.raises(ValidationError, match=f"'{field}' must not repeat"):
            make_config(**overrides)

    @pytest.mark.parametrize("seeds", [[1, -1, 2], [1, 2**64], [2**64 + 5]])
    def test_out_of_range_seed_refused_when_built(self, seeds):
        # not only when that seed's cell runs, after the other cells' work
        with pytest.raises(ValidationError, match="64-bit unsigned"):
            make_config(seeds=seeds)
        assert make_config(seeds=[0, 2**64 - 1]).seeds == (0, 2**64 - 1)

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
        # keys that do not sort together, which only a Python caller can pass
        with pytest.raises(ValidationError, match=r"unknown experiment config fields \[1, 'x'\]"):
            ExperimentConfig.from_dict({1: 0, "x": 0})

    @pytest.mark.parametrize(
        "overrides,where,field",
        [
            ({"ams": {"tau": 0.1, "factor": 0.5, "merge": "replace"}}, "'ams'", "merge"),
            (
                {"ground_truth": {"pattern": "alternating", "n": 6, "seed": 1}},
                "'ground_truth'",
                "seed",
            ),
        ],
    )
    def test_unknown_nested_field_rejected(self, overrides, where, field):
        with pytest.raises(ValidationError, match=f"unknown {where} fields \\['{field}'\\]"):
            make_config(**overrides)
        # the same objects without the extra field are accepted
        make_config(**{k: {f: v for f, v in obj.items() if f != field} for k, obj in overrides.items()})


# Any JSON value, for a field that holds the wrong kind of thing.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _mostly(good, bad=_json):
    """``good``, now and then ``bad`` (Hypothesis favours the ends of a
    range, so the middle value picks it)."""
    return st.integers(0, 10).flatmap(lambda i: bad if i == 5 else good)


_probability = _mostly(st.floats(0.0, 0.5), st.floats(-0.5, 1.5) | _json)
_truth = _mostly(
    st.text("01", min_size=1, max_size=12)
    | st.fixed_dictionaries(
        {
            "pattern": _mostly(
                st.sampled_from(experiment_mod.GROUND_TRUTH_PATTERNS), st.just("ghz")
            ),
            "n": _mostly(st.integers(1, 64), st.integers(-2, 5000) | _json),
        }
    )
)


def _noise(n):
    per_qubit = _mostly(
        st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n), st.lists(_probability)
    )
    return _mostly(
        st.fixed_dictionaries({"p": _probability})
        | st.fixed_dictionaries({"p01": _probability, "p10": _probability})
        | st.fixed_dictionaries({"p01": per_qubit, "p10": per_qubit})
    )


def _distinct(values):
    return _mostly(
        st.lists(values, min_size=1, max_size=3, unique=True), st.lists(values, max_size=3)
    )


_fields = {
    "shots": _mostly(
        _distinct(_mostly(st.integers(1, 200).map(lambda s: 2 * s), st.integers(-2, 2**40)))
    ),
    "estimators": _mostly(_distinct(st.sampled_from([*experiment_mod.ESTIMATOR_NAMES, "x"]))),
    "seeds": _mostly(_distinct(_mostly(st.integers(0, 9), st.integers(-5, 2**70)))),
    "ams": _mostly(st.fixed_dictionaries({"tau": _probability, "factor": _probability})),
    "extra": _json,
}


@st.composite
def config_documents(draw):
    """Experiment config documents: mostly every field present and of its
    kind, with wrong kinds, wrong values and missing or extra fields mixed in."""
    truth = draw(_truth)
    n = len(truth) if isinstance(truth, str) else truth.get("n") if isinstance(truth, dict) else 1
    n = n if isinstance(n, int) and 1 <= n <= 64 else 1
    doc = {"ground_truth": truth, "noise": draw(_noise(n))}
    doc |= {name: draw(values) for name, values in _fields.items()}
    # 'ams' is mostly given just when the ams estimator is, 'extra' mostly not;
    # a required field is left out now and then
    for name in ("ams", "extra"):
        estimators = doc["estimators"]
        wanted = name == "ams" and isinstance(estimators, list) and "ams" in estimators
        if wanted == (draw(st.integers(0, 10)) == 5):
            del doc[name]
    if draw(st.integers(0, 10)) == 5:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return draw(_mostly(st.just(doc)))


@settings(max_examples=500, deadline=None)
@given(config_documents())
def test_from_dict_gives_a_config_or_refuses(doc):
    """Nothing is run: a document is taken or refused with ValidationError
    or InfeasibleError, never another error."""
    try:
        config = ExperimentConfig.from_dict(doc)
    except (ValidationError, InfeasibleError):
        return
    assert config.noise.n == config.n >= 1
    assert all(0 <= seed < 2**64 for seed in config.seeds)
    assert not ("ams" in config.estimators and config.antipodal)


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

    def test_ml_at_twenty_one_qubits_runs(self):
        """2^21 x (8 keys + 16) pairs, well under a second."""
        cfg = make_config(
            ground_truth={"pattern": "alternating", "n": 21},
            shots=[8],
            estimators=["ml", "qmv"],
            seeds=[0],
        )
        report = run_experiment(cfg)
        ml, vote = report.rows
        assert (ml["estimator"], vote["estimator"]) == ("ml", "qmv")
        assert len(ml["estimate"]) == 21
        assert ml["runtime_ms"] < 10_000

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


# Configs whose reports must repeat byte for byte across runs.
SCHEDULE_CONFIGS = {
    "ams": {
        "ground_truth": {"pattern": "alternating", "n": 24},
        "noise": {"p": 0.3},
        "shots": [200, 400],
        "estimators": ["mode", "qmv", "weighted", "ams"],
        "seeds": [0, 1, 2, 3, 4],
        "ams": {"tau": 0.2, "factor": 0.5},
    },
    "antipodal": {
        "ground_truth": {"pattern": "ghz-antipodal", "n": 24},
        "noise": {"p": 0.2},
        "shots": [300, 501],
        "estimators": ["mode", "qmv", "window"],
        "seeds": [0, 1, 2],
    },
    "map": {
        "ground_truth": "101101",
        "noise": {"p01": 0.2, "p10": 0.1},
        "shots": [40, 80],
        "estimators": ["map", "qmv"],
        "seeds": [0, 1, 2],
    },
}

# An exhaustive-scan config.
ML_CONFIG = {**SCHEDULE_CONFIGS["map"], "estimators": ["ml", "map", "qmv"]}


def timeless(rows):
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


class TestCellSchedule:
    @pytest.mark.parametrize("name", [*SCHEDULE_CONFIGS, "ml"])
    def test_reports_repeat_across_runs(self, name):
        cfg = make_config(**{**SCHEDULE_CONFIGS, "ml": ML_CONFIG}[name])
        first, second = run_experiment(cfg), run_experiment(cfg)
        assert second.to_json() == first.to_json()
        assert timeless(second.rows) == timeless(first.rows)
        assert all(row["runtime_ms"] >= 0 for row in first.rows + second.rows)

    def test_importing_the_package_loads_no_pool(self):
        """No part of the package runs a thread pool, so a fresh interpreter
        that imports the package and its CLI has not paid for loading
        concurrent.futures and the logging it pulls in."""
        src = str(Path(experiment_mod.__file__).parents[1])
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); import qmvote, qmvote.cli; "
            "print('concurrent.futures' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, src], capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "estimators,calls",
        [
            (["mode", "qmv", "weighted"], 6),
            (["weighted", "ams", "qmv"], 6),
            (["mode", "ams"], 0),
            (["map", "qmv"], 6),
        ],
    )
    def test_each_cell_tallies_its_table_at_most_once(self, monkeypatch, estimators, calls):
        tallied = []
        real = experiment_mod.tally

        def spy(counts):
            tallied.append(counts)
            return real(counts)

        # the estimators' own binding too, which map_estimate tallies through
        monkeypatch.setattr(experiment_mod, "tally", spy)
        monkeypatch.setattr(estimators_mod, "tally", spy)
        cfg = make_config(estimators=estimators, ams={"tau": 0.1, "factor": 0.5})
        report = run_experiment(cfg)
        assert len(tallied) == calls == len(set(map(id, tallied)))
        monkeypatch.undo()
        assert report.to_json() == run_experiment(cfg).to_json()

    def patch_cells(self, monkeypatch, cfg, behaviour):
        """Make every cell call ``behaviour((shots, seed))`` before it
        simulates; return the list of cells started."""
        cells = {derive_seed(seed, "cell", shots): (shots, seed) for shots in cfg.shots for seed in cfg.seeds}
        started = []
        real = experiment_mod.simulate_shots

        def simulate(x0, noise, shots, seed):
            started.append(cells[seed])
            behaviour(cells[seed])
            return real(x0, noise, shots, seed)

        monkeypatch.setattr(experiment_mod, "simulate_shots", simulate)
        return started

    def test_cells_run_on_the_calling_thread_in_cell_order(self, monkeypatch):
        cfg = make_config(shots=[128, 64], seeds=[2, 0, 1])
        threads = []
        started = self.patch_cells(monkeypatch, cfg, lambda cell: threads.append(threading.get_ident()))
        run_experiment(cfg)
        assert started == [(128, 2), (128, 0), (128, 1), (64, 2), (64, 0), (64, 1)]
        assert threads == [threading.get_ident()] * len(started)

    @pytest.mark.parametrize(
        "failing,started_cells",
        [
            ({(64, 1), (64, 2), (128, 0)}, [(64, 0), (64, 1)]),
            ({(64, 0), (128, 2)}, [(64, 0)]),
            ({(128, 2)}, [(64, 0), (64, 1), (64, 2), (128, 0), (128, 1), (128, 2)]),
        ],
    )
    def test_first_failing_cell_raises_and_no_later_cell_starts(self, monkeypatch, failing, started_cells):
        cfg = make_config(shots=[64, 128], seeds=[0, 1, 2])

        def behaviour(cell):
            if cell in failing:
                raise RuntimeError(f"cell {cell}")

        started = self.patch_cells(monkeypatch, cfg, behaviour)
        first = started_cells[-1]
        with pytest.raises(RuntimeError, match=rf"^cell \({first[0]}, {first[1]}\)$"):
            run_experiment(cfg)
        assert started == started_cells
