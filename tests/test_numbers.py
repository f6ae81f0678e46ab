"""One number rule at every public numeric entry point: a numpy number is
taken as the equal Python number and stored or returned as one, and a string
or boolean is refused with ValidationError rather than read as a number."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmvote import (
    AmsPlan,
    CountsTable,
    Estimate,
    ExperimentConfig,
    InfeasibleError,
    MitigationError,
    NoiseModel,
    Prior,
    Report,
    ValidationError,
    VoteTally,
    adaptive_vote,
    ams_execute,
    ams_plan,
    m3_shot_requirement,
    per_qubit_target_bound,
    qmv_error_bound,
    required_shots,
    run_experiment,
    shot_error_probability_exact,
    simulate_shots,
)
from qmvote.budget import _figures
from qmvote.core import _is_int

TALLY = VoteTally(zeros=[3, 1, 2, 0], ones=[1, 3, 2, 4])
NOISE = NoiseModel.uniform(4, 0.2)
PLAN = ams_plan(TALLY, 0.6, 8)
CONFIG = ExperimentConfig.from_dict(
    {
        "ground_truth": "0110",
        "noise": {"p": 0.2},
        "shots": [40],
        "estimators": ["qmv", "ams"],
        "seeds": [3],
        "ams": {"tau": 0.25, "factor": 0.5},
    }
)

# entry point -> (call with the value under test in one argument, a valid
# Python value for that argument)
CASES = {
    "NoiseModel p01 entry": (lambda v: NoiseModel(p01=[v, 0.1], p10=[0.1, 0.1]), 0),
    "NoiseModel p10 entry": (lambda v: NoiseModel(p01=[0.1, 0.1], p10=[0.1, v]), 1),
    "NoiseModel.uniform n": (lambda v: NoiseModel.uniform(v, 0.1), 3),
    "NoiseModel.uniform p01": (lambda v: NoiseModel.uniform(3, v), 0.25),
    "NoiseModel.uniform p10": (lambda v: NoiseModel.uniform(3, 0.1, v), 1),
    "Prior per_qubit entry": (lambda v: Prior(per_qubit=[v, 0.5]), 1),
    "ams_plan tau": (lambda v: ams_plan(TALLY, v, 8), 0.6),
    "ams_plan total_shots": (lambda v: ams_plan(TALLY, 0.6, v), 8),
    "adaptive_vote tau": (lambda v: adaptive_vote("0101", NOISE, v, 400, seed=1), 0.3),
    "adaptive_vote total_shots": (lambda v: adaptive_vote("0101", NOISE, 0.3, v, seed=1), 400),
    "ams_execute subset_noise_factor": (lambda v: ams_execute("0101", NOISE, PLAN, v, 1), 1),
    "qmv_error_bound shots": (lambda v: qmv_error_bound(v, 0.1), 10),
    "qmv_error_bound p": (lambda v: qmv_error_bound(10, v), 0.25),
    "shot_error_probability_exact shots": (lambda v: shot_error_probability_exact(v, 0.2), 9),
    "shot_error_probability_exact p": (lambda v: shot_error_probability_exact(9, v), 1),
    "per_qubit_target_bound n": (lambda v: per_qubit_target_bound(v, 0.1), 10),
    "per_qubit_target_bound epsilon": (lambda v: per_qubit_target_bound(10, v), 0.25),
    "required_shots n": (lambda v: required_shots(v, 0.1), 10),
    "required_shots epsilon": (lambda v: required_shots(10, v), 0.25),
    "m3_shot_requirement n": (lambda v: m3_shot_requirement(v, 0.45), 3000),
    "m3_shot_requirement p": (lambda v: m3_shot_requirement(3000, v), 0.5),
    "budget figures n": (lambda v: _figures(v, 0.1), 10),
    "budget figures p": (lambda v: _figures(10, v), 0.25),
    "budget figures p as an integer": (lambda v: _figures(10, v), 0),
    "budget figures shots": (lambda v: _figures(10, 0.1, v), 20),
    "ExperimentConfig ams tau": (lambda v: run_experiment(dataclasses.replace(CONFIG, ams_tau=v)), 0.25),
    "ExperimentConfig ams factor": (
        lambda v: run_experiment(dataclasses.replace(CONFIG, ams_factor=v)),
        0.5,
    ),
    "CountsTable count": (lambda v: CountsTable({"01": v, "11": 1}), 2),
    "CountsTable n": (lambda v: CountsTable({"01": 2}, n=v), 2),
    "simulate_shots shots": (lambda v: simulate_shots("0101", NOISE, v, 3), 50),
    "simulate_shots seed": (lambda v: simulate_shots("0101", NOISE, 50, v), 7),
}


def portable(result):
    """A result as plain JSON: numpy scalars left in it fail to dump."""
    if isinstance(result, tuple):
        return [portable(r) for r in result]
    if isinstance(result, AmsPlan):
        return dataclasses.asdict(result)
    if isinstance(result, Report):
        return json.loads(result.to_json())
    if isinstance(result, Estimate):
        return [result.value, result.method, result.margins.tolist(), result.gap]
    if isinstance(result, NoiseModel):
        return [result.p01.tolist(), result.p10.tolist()]
    if isinstance(result, Prior):
        return result.per_qubit.tolist()
    if isinstance(result, CountsTable):
        return [result.n, result.shots, dict(result.counts)]
    return result


def numpy_twins(value):
    if isinstance(value, int):
        types = (np.int64, np.uint16, np.int8)
        return [t(value) for t in types if np.iinfo(t).min <= value <= np.iinfo(t).max]
    twins = [np.float64(value)]
    return twins + [np.float32(value)] if float(np.float32(value)) == value else twins


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numpy_number_gives_the_python_result(case):
    call, good = CASES[case]
    want = json.dumps(portable(call(good)))
    for twin in numpy_twins(good):
        assert json.dumps(portable(call(twin))) == want, twin


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("bad", ["str", True, False, np.True_])
def test_string_or_boolean_refused(case, bad):
    call, good = CASES[case]
    with pytest.raises(ValidationError):
        call(str(good) if bad == "str" else bad)


def test_numpy_counts_total_does_not_wrap():
    # 1024 counts of 2**53 sum to 2**63, one past the int64 range
    counts = {format(i, "010b"): np.int64(2**53) for i in range(1024)}
    with pytest.raises(ValidationError, match="more than 2\\*\\*53"):
        CountsTable(counts)
    fine = {format(i, "010b"): np.uint64(2**43) for i in range(1024)}
    assert CountsTable(fine).shots == 2**53


def test_counts_from_numpy_unique():
    shots = np.array(["01", "11", "01", "00", "01"])
    keys, counts = np.unique(shots, return_counts=True)
    table = CountsTable(dict(zip(keys.tolist(), counts)))
    assert table == CountsTable({"00": 1, "01": 3, "11": 1})
    assert json.dumps(dict(table.counts)) == '{"00": 1, "01": 3, "11": 1}'


def test_numpy_integers_in_a_config_give_the_same_report():
    doc = {
        "ground_truth": {"pattern": "alternating", "n": 12},
        "noise": {"p": 0.2},
        "shots": [40, 80],
        "estimators": ["qmv", "ams"],
        "seeds": [0, 5],
        "ams": {"tau": 0.3, "factor": 0.5},
    }
    want = run_experiment(ExperimentConfig.from_dict(doc)).to_json()
    doc["ground_truth"]["n"] = np.int64(12)
    doc["shots"] = [np.int64(40), np.uint32(80)]
    doc["seeds"] = [np.int16(0), np.int64(5)]
    assert run_experiment(ExperimentConfig.from_dict(doc)).to_json() == want
    # built directly, too: shots and seeds name the simulated streams
    config = ExperimentConfig.from_dict(doc)
    config = dataclasses.replace(config, shots=(np.int64(40), 80), seeds=(0, np.uint8(5)))
    assert run_experiment(config).to_json() == want
    for field in ("shots", "seeds"):
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(config, **{field: (40, "80")})


@pytest.mark.parametrize(
    "make",
    [
        lambda: NoiseModel(p01=["0.1", True], p10=[0.1, 0.1]),
        lambda: NoiseModel(p01=np.array(["0.1", "0.2"]), p10=[0.1, 0.1]),
        lambda: NoiseModel(p01=[10**400, 0.1], p10=[0.1, 0.1]),
        lambda: Prior(per_qubit=[10**400, 0.5]),
    ],
)
def test_probability_vectors_refuse_what_would_convert(make):
    with pytest.raises(ValidationError, match="entries must be numbers"):
        make()


# the exact tail's two float64 arrays of about shots / 2 entries reach 1 GiB here
TAIL_SHOT_CAP = 2**27


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: per_qubit_target_bound(10**400, 0.1), ValidationError, "float range"),
        (lambda: shot_error_probability_exact(10**400, 0.2), InfeasibleError, "1073741824 allowed"),
        (lambda: shot_error_probability_exact(np.int64(2**62), 0.2), InfeasibleError, "allowed"),
        (lambda: shot_error_probability_exact(TAIL_SHOT_CAP, 0.0), InfeasibleError, "allowed"),
        (
            lambda: shot_error_probability_exact(2 * TAIL_SHOT_CAP, 0.3, "success"),
            InfeasibleError,
            "allowed",
        ),
    ],
)
def test_numbers_past_a_formula_range_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_tail_cap_admits_the_shot_count_below_it():
    # p of 0 or 1 answers before any array is built
    assert shot_error_probability_exact(TAIL_SHOT_CAP - 1, 0.0) == 0.0
    assert shot_error_probability_exact(TAIL_SHOT_CAP - 1, 1.0) == 1.0


_ints = st.integers(-3, 10**5)
_anything = st.one_of(
    _ints,
    _ints.map(np.int64),
    st.integers(10**5, 10**400),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
    st.none(),
)


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), value=_anything)
def test_numeric_entry_points_answer_or_refuse(case, value):
    """Any value gives a result or a MitigationError, never another error."""
    call, _ = CASES[case]
    # below its cap the exact tail allocates arrays of about `shots` floats
    tail_shots = case == "shot_error_probability_exact shots" and _is_int(value)
    assume(not tail_shots or value <= 10**5 or value >= TAIL_SHOT_CAP)
    try:
        call(value)
    except MitigationError:
        pass
