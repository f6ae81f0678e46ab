"""End-to-end tests of the command-line surface and its exit codes."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmvote
from qmvote import NoiseModel, complement, simulate_shots
from qmvote import cli as cli_mod
from qmvote.cli import main
from qmvote.experiment import ESTIMATORS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def write_counts_file(tmp_path, counts, n):
    shots = sum(counts.values())
    path = tmp_path / "counts.json"
    path.write_text(
        json.dumps({"schema_version": "1", "n": n, "shots": shots, "counts": counts})
    )
    return str(path)


class TestDistance:
    def test_zero(self, capsys):
        code, out, _ = run(capsys, "distance", "0000", "0000")
        assert code == 0
        assert out.strip() == "0"

    def test_mismatched_lengths_exit_one(self, capsys):
        code, _, err = run(capsys, "distance", "00", "000")
        assert code == 1
        assert "length" in err


class TestBound:
    def test_reference_query(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "1000", "--epsilon", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["required_shots"] == 346
        assert payload["shots"] == 346
        assert 0 < payload["bound_per_qubit"] < 1

    def test_invalid_regime_exit_one(self, capsys):
        code, _, err = run(capsys, "bound", "--n", "10", "--p", "0.6")
        assert code == 1
        assert "p" in err

    @pytest.mark.parametrize("query", [("--n", "100000", "--epsilon", "0.1"), ("--n", "3000", "--p", "0.45")])
    def test_m3_estimate_past_float_range_is_null(self, capsys, query):
        code, out, err = run(capsys, "bound", *query)
        assert code == 0 and err == ""
        assert json.loads(out, parse_constant=reject_constant)["m3_shots_estimate"] is None
        code, out, _ = run(capsys, "--format", "csv", "bound", *query)
        header, values = out.strip("\n").split("\n")
        assert code == 0
        assert dict(zip(header.split(","), values.split(",")))["m3_shots_estimate"] == ""

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "bound", "--n", "16", "--p", "0.2")
        assert code == 0
        header, values = out.strip().splitlines()
        assert "required_shots" in header
        assert len(header.split(",")) == len(values.split(","))

    @pytest.mark.parametrize(
        "query, want, text",
        [
            # epsilon**2 underflows to zero, or to a subnormal that makes the rule infinite
            (("--n", "10", "--epsilon", "1e-300"), 2, "shot rule needs more shots"),
            (("--n", "10", "--epsilon", "1e-155"), 2, "shot rule needs more shots"),
            # 0.5 - epsilon rounds to 0.5
            (("--n", "10", "--epsilon", "1e-17"), 1, "epsilon=1e-17 is too small"),
            (("--n", "10", "--epsilon", "2e-17"), 1, "epsilon=2e-17 is too small"),
            (("--n", str(10**400), "--p", "0.1"), 1, "qubit count must lie within float range"),
            (("--n", "10", "--p", "0.1", "--shots", str(10**330)), 1, "shots must lie within float range"),
        ],
    )
    def test_numbers_past_float_range_fail_cleanly(self, capsys, query, want, text):
        code, out, err = run(capsys, "bound", *query)
        assert code == want
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert text in err

    def test_p_next_to_one_half(self, capsys):
        code, out, err = run(capsys, "bound", "--n", "10", "--p", "0.4999999999")
        assert code == 0 and err == ""
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["required_shots"] == payload["shots"] == 115129235598030176256
        assert payload["bound_any_qubit"] == 1.0


# ints from negative through past float range (about 1.8e308), and floats of
# every class: subnormal, signed zero, nan and infinities
_BOUND_INTS = st.one_of(
    st.integers(-3, 10**6),
    st.integers(10**300, 10**400),
    st.sampled_from([2**1024 - 2**971, 2**1024 - 2**970]),
)
_BOUND_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(0.0, 0.5),
    st.floats(0.0, 1e-150),
)


@settings(max_examples=300, deadline=None)
@given(
    n=_BOUND_INTS,
    flag=st.sampled_from(["--p", "--epsilon"]),
    value=_BOUND_FLOATS,
    shots=st.none() | _BOUND_INTS,
)
def test_bound_fuzz_answers_or_fails_cleanly(n, flag, value, shots):
    """``bound`` prints strict JSON, or exits 1 or 2 with one error line."""
    argv = ["bound", f"--n={n}", f"{flag}={value!r}"]
    if shots is not None:
        argv.append(f"--shots={shots}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        assert code in (1, 2)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=9), inner, max_size=4),
    max_leaves=12,
)
_PRIOR_VALUES = st.one_of(
    st.floats(0, 1), st.floats(), st.integers(-2, 2), st.booleans(), st.text(max_size=3), st.none()
)
_KEYS = ["00", "01", "10", "11"]
_PRIOR_DOCS = st.one_of(
    _JSON,
    st.fixed_dictionaries({"per_qubit": st.lists(_PRIOR_VALUES, max_size=3)}),
    st.fixed_dictionaries({"table": st.dictionaries(st.sampled_from([*_KEYS, "0", "2x"]), _PRIOR_VALUES)}),
    # tables that sum to 1
    st.lists(st.floats(0, 1), min_size=1, max_size=4)
    .filter(lambda weights: sum(weights) > 0)
    .map(lambda weights: {"table": {k: w / sum(weights) for k, w in zip(_KEYS, weights)}}),
    st.fixed_dictionaries({"per_qubit": st.just([0.5, 0.5]), "table": _JSON}),
)


@settings(max_examples=300, deadline=None)
@given(doc=_PRIOR_DOCS)
def test_prior_file_fuzz_answers_or_fails_cleanly(tmp_path_factory, doc):
    """``mitigate --prior-file`` with any JSON document prints strict JSON,
    or exits 1 or 2 with one error line."""
    folder = tmp_path_factory.mktemp("prior")
    counts = write_counts_file(folder, {"01": 8, "11": 2}, 2)
    prior = folder / "prior.json"
    prior.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mitigate", counts, "--method", "map", "--p", "0.2", "--prior-file", str(prior)])
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        assert code in (1, 2)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# (exit code, argv); "{dir}" names the folder of the fuzz_files fixture
CLI_CASES = [
    (0, "simulate --truth 0101 --p 0.1 --shots 20"),
    (0, "--seed 5 simulate --pattern ghz-antipodal --n 6 --p 0.2 --shots 30"),
    (1, "simulate --truth 01x --p 0.1 --shots 5"),
    (1, "simulate --truth 01 --p 0.1 --shots 0"),
    (1, "simulate --truth 01 --p nan --shots 5"),
    (1, "--seed -1 simulate --truth 01 --p 0.1 --shots 5"),
    (2, "simulate --truth 01 --p 0.1 --shots 10000000000000"),
    (0, "mitigate {dir}/good.json --method qmv"),
    (0, "mitigate {dir}/good.json --method ml --p 0.1"),
    (0, "--format csv mitigate {dir}/good.json --method window"),
    (1, "mitigate {dir}/bad-key.json --method qmv"),
    (1, "mitigate {dir}/good.json --method weighted"),
    (1, "mitigate {dir}/good.json --method qmv --prior-file {dir}/good.json"),
    (1, "mitigate {dir}/good.json --method qmv --p 0.1"),
    (1, "mitigate {dir}/good.json --method mode --p01 0.1 --p10 0.2"),
    (1, "mitigate {dir}/good.json --method window --p 0.1"),
    (1, "mitigate {dir}/missing.json --method qmv"),
    (0, "bound --n 100 --p 0.1"),
    (0, "--format csv bound --n 10 --epsilon 0.2 --shots 50"),
    (1, "bound --n 10 --epsilon 0.7"),
    (1, "bound --n 10 --p 0.1 --epsilon 0.2"),
    (0, "ams {dir}/good.json --tau 0.5"),
    (0, "--seed 3 ams {dir}/phase1.json --tau 0.05 --truth 00 --p 0.1"),
    (0, "--format csv ams {dir}/phase1.json --tau 0.05 --truth 00 --p 0.1 --factor 0.3"),
    (1, "ams {dir}/good.json --tau 0.5 --factor 0"),
    (1, "ams {dir}/good.json --tau 0.5 --factor nan"),
    (1, "ams {dir}/good.json --tau 0.5 --truth 01 --p 0.1 --factor nan"),
    (1, "ams {dir}/good.json --tau 0.5 --truth 01 --p 0.1 --factor 0"),
    (1, "ams {dir}/good.json --tau 1.5"),
    (1, "ams {dir}/good.json --tau 0.5 --truth 011 --p 0.1"),
    (1, "ams {dir}/good.json --tau 0.5 --truth 01"),
    (0, "distance 0101 0110"),
    (1, "distance 01 011"),
    (0, "experiment {dir}/small.json"),
    (0, "--format csv experiment {dir}/small.json"),
    (1, "--seed -1 experiment {dir}/small.json"),
    (1, "experiment {dir}/bad-seeds.json"),
    (1, "experiment {dir}/thin-ams.json"),
    (2, "experiment {dir}/ghz-ams.json"),
    # every document is UTF-8 with no byte-order mark
    (1, "experiment {dir}/stray-ff.json"),
    (1, "experiment {dir}/utf16.json"),
    (1, "experiment {dir}/bom.json"),
    (1, "mitigate {dir}/good.json --method map --p 0.1 --prior-file {dir}/stray-ff-prior.json"),
    (1, "mitigate {dir}/stray-ff-counts.json --method qmv"),
    # ams draws its own counts, so no shot record of 2**40 rows is built
    (0, "experiment {dir}/huge-ams.json"),
]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    write_counts_file(folder, {"01": 2, "11": 1}, 2)
    (folder / "counts.json").rename(folder / "good.json")
    write_counts_file(folder, {"10": 50, "11": 50}, 2)
    (folder / "counts.json").rename(folder / "phase1.json")
    (folder / "bad-key.json").write_text(
        json.dumps({"schema_version": "1", "n": 2, "shots": 1, "counts": {"0x": 1}})
    )
    small = {
        "ground_truth": {"pattern": "alternating", "n": 6},
        "noise": {"p": 0.1},
        "shots": [40],
        "estimators": ["qmv", "ams"],
        "seeds": [1, 2],
        "ams": {"tau": 0.2, "factor": 0.5},
    }
    configs = {
        "small": small,
        "bad-seeds": {**small, "seeds": [1, -1, 2**64]},
        # 2 phase-1 shots for 50 close qubits leave each subset circuit no shots
        "thin-ams": {**small, "ground_truth": {"pattern": "alternating", "n": 50}, "shots": [4]},
        "ghz-ams": {**small, "ground_truth": {"pattern": "ghz-antipodal", "n": 20}},
    }
    configs["huge-ams"] = {**small, "estimators": ["ams"], "shots": [2**40]}
    for name, doc in configs.items():
        (folder / f"{name}.json").write_text(json.dumps(doc))
    (folder / "stray-ff.json").write_bytes(b"\xff" + json.dumps(small).encode())
    (folder / "utf16.json").write_bytes(json.dumps(small).encode("utf-16"))
    (folder / "bom.json").write_bytes(b"\xef\xbb\xbf" + json.dumps(small).encode())
    (folder / "stray-ff-prior.json").write_bytes(b"\xff" + json.dumps({"per_qubit": [0.5, 0.5]}).encode())
    (folder / "stray-ff-counts.json").write_bytes(b"\xff" + (folder / "good.json").read_bytes())
    return folder


@pytest.mark.parametrize("want,argv", CLI_CASES, ids=[argv for _, argv in CLI_CASES])
def test_cli_answers_or_fails_cleanly(capsys, fuzz_files, want, argv):
    """Every subcommand exits 0 with output, or exits 1 or 2 with nothing on
    stdout and one error line on stderr."""
    code, out, err = run(capsys, *argv.format(dir=fuzz_files).split())
    assert code == want, err
    if code == 0:
        assert out and err == ""
    else:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestMitigate:
    def test_qmv_majority_with_margin(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"0": 7, "1": 3}, 1)
        code, out, _ = run(capsys, "mitigate", path, "--method", "qmv")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == "0"
        assert payload["margins"] == [0.4]

    def test_weighted_requires_noise(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"0": 7, "1": 3}, 1)
        code, _, err = run(capsys, "mitigate", path, "--method", "weighted")
        assert code == 1
        assert "noise" in err

    @pytest.mark.parametrize("method", ["mode", "qmv", "window"])
    @pytest.mark.parametrize("flags", [["--p", "0.1"], ["--p01", "0.4", "--p10", "0.05"], ["--p10", "0.05"]])
    def test_noise_flags_refused_where_unread(self, capsys, tmp_path, method, flags):
        """A noise model the method would drop is refused, not ignored."""
        path = write_counts_file(tmp_path, {"0": 7, "1": 3}, 1)
        code, out, err = run(capsys, "mitigate", path, "--method", method, *flags)
        assert (code, out) == (1, "")
        assert err == f"error: {flags[0]} is not used by --method {method}\n"

    def test_ml_and_map(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"01": 8, "11": 2}, 2)
        code, out, _ = run(capsys, "mitigate", path, "--method", "ml", "--p", "0.2")
        assert code == 0
        assert json.loads(out)["estimate"] == "01"
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"per_qubit": [1.0, 0.5]}))
        code, out, _ = run(
            capsys, "mitigate", path, "--method", "map", "--p", "0.2",
            "--prior-file", str(prior),
        )
        assert code == 0
        assert json.loads(out)["estimate"] == "11"

    @pytest.mark.parametrize(
        "text",
        [
            '{"per_qubit": [0.5,',
            b"\xff\xfe{}",
            '{"per_qubit": ["a", 0.5]}',
            '{"table": {"01": "x", "11": 0.5}}',
            '{"table": [1]}',
            '{"table": 5}',
            '{"per_qubit": [0.5, 0.5], "x": 1}',
        ],
    )
    def test_malformed_prior_file_exit_one(self, capsys, tmp_path, text):
        path = write_counts_file(tmp_path, {"01": 8, "11": 2}, 2)
        prior = tmp_path / "prior.json"
        if isinstance(text, bytes):
            prior.write_bytes(text)
        else:
            prior.write_text(text)
        code, out, err = run(
            capsys, "mitigate", path, "--method", "map", "--p", "0.2",
            "--prior-file", str(prior),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "prior" in err

    @pytest.mark.parametrize("method", ["mode", "ml", "qmv", "weighted", "window"])
    def test_prior_file_only_for_map_exit_one(self, capsys, tmp_path, method):
        path = write_counts_file(tmp_path, {"01": 8, "11": 2}, 2)
        code, out, err = run(
            capsys, "mitigate", path, "--method", method, "--p", "0.2",
            "--prior-file", str(tmp_path / "nonexist.json"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--prior-file" in err

    def test_wide_table_prior_map(self, capsys, tmp_path):
        # table priors have no qubit cap: 127 qubits, three entries
        n = 127
        truth = ("110" * 43)[:n]
        rival = ("01" * 64)[:n]
        noise = NoiseModel.uniform(n, 0.3)
        counts = simulate_shots(truth, noise, 60, 127)
        path = write_counts_file(tmp_path, dict(counts.items()), n)
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"table": {truth: 0.1, rival: 0.6, complement(truth): 0.3}}))
        code, out, err = run(
            capsys, "mitigate", path, "--method", "map", "--p", "0.3",
            "--prior-file", str(prior),
        )
        assert code == 0, err
        assert json.loads(out)["estimate"] == truth

    def test_ml_scan_over_work_limit_exit_two(self, capsys, tmp_path):
        counts = simulate_shots("01" * 12, NoiseModel.uniform(24, 0.3), 20_000, 16)
        path = write_counts_file(tmp_path, dict(counts.items()), 24)
        code, out, err = run(capsys, "mitigate", path, "--method", "ml", "--p", "0.3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        pairs = (len(counts) + 16) << 24
        assert f"is {pairs} candidate-key pairs" in err and f"more than the {1 << 37} allowed" in err

    @pytest.mark.parametrize(
        "exc", [MemoryError(), MemoryError("Unable to allocate 890. MiB for an array")]
    )
    def test_out_of_memory_exit_two(self, capsys, tmp_path, monkeypatch, exc):
        def rule(counts, votes, noise, prior):
            raise exc

        monkeypatch.setitem(cli_mod.ESTIMATORS, "ml", (True, False, rule))
        path = write_counts_file(tmp_path, {"01": 3, "11": 1}, 2)
        code, out, err = run(capsys, "mitigate", path, "--method", "ml", "--p", "0.3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert str(exc) in err

    def test_ml_too_wide_exit_two(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"0" * 40: 4}, 40)
        code, out, err = run(capsys, "mitigate", path, "--method", "ml", "--p", "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"2^40 candidates over 1 distinct keys is {17 << 40} candidate-key pairs" in err

    def test_nan_noise_exit_one(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"01": 8, "11": 2}, 2)
        code, out, err = run(capsys, "mitigate", path, "--method", "ml", "--p", "nan")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "p01" in err

    def test_window(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"0011": 6, "1100": 5}, 4)
        code, out, _ = run(capsys, "mitigate", path, "--method", "window")
        assert code == 0
        assert json.loads(out)["estimate"] == ["0011", "1100"]

    @pytest.mark.parametrize("method", ["qmv", "mode"])
    @pytest.mark.parametrize(
        "counts,shots", [({"01": 2**63}, 2**63), ({"01": 2**62, "11": 2**62}, 2**53)]
    )
    def test_counts_beyond_shot_limit_exit_one(self, capsys, tmp_path, method, counts, shots):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps({"schema_version": "1", "n": 2, "shots": shots, "counts": counts})
        )
        code, out, err = run(capsys, "mitigate", str(path), "--method", method)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2**53" in err

    def test_bad_counts_file_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": "1", "n": 1, "shots": 9, "counts": {"0": 3}}))
        code, _, err = run(capsys, "mitigate", str(path), "--method", "qmv")
        assert code == 1
        assert "shots" in err

    def test_right_bit_order(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"10": 9, "01": 1}, 2)
        code, out, _ = run(
            capsys, "--bit-order", "right", "mitigate", path, "--method", "mode"
        )
        assert code == 0
        assert json.loads(out)["estimate"] == "01"

    def test_gap_without_runner_up_is_null(self, capsys, tmp_path):
        """Noiseless shots of one string, or a one-entry table prior, leave
        no runner-up of non-zero weight, so the gap is infinite; stdout must
        still be strict JSON."""

        def strict(name):
            raise ValueError(f"stdout holds {name}, which is not JSON")

        path = write_counts_file(tmp_path, {"01": 3}, 2)
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"table": {"01": 1.0}}))
        for method in (["ml", "--p", "0"], ["map", "--p", "0.1", "--prior-file", str(prior)]):
            code, out, err = run(capsys, "mitigate", path, "--method", *method)
            assert code == 0, err
            payload = json.loads(out, parse_constant=strict)
            assert payload["estimate"] == "01"
            assert payload["gap"] is None
        code, out, err = run(
            capsys, "--format", "csv", "mitigate", path, "--method", "ml", "--p", "0"
        )
        assert code == 0, err
        assert out == "method,estimate,gap\nml,01,\n"


# stdout of `mitigate` on FROZEN_COUNTS, with --p01 0.2 --p10 0.1 for the
# methods that read a noise model, frozen from the release before the
# estimators moved into one table.
FROZEN_COUNTS = {"0011": 5, "1100": 3, "0111": 2, "0001": 1}
FROZEN_TABLE_PRIOR = {"table": {"0011": 0.25, "0111": 0.5, "1100": 0.25}}
_MARGINS_JSON = (
    '  "margins": [\n    0.454545454545,\n    0.090909090909,\n'
    '    0.272727272727,\n    0.454545454545\n  ],\n'
)
_MARGINS_CSV = "0.454545454545|0.090909090909|0.272727272727|0.454545454545"
FROZEN_MITIGATE = {
    ("mode", "json"): '{\n  "estimate": "0011",\n  "gap": 0.18181818181818182,\n  "method": "mode"\n}\n',
    ("ml", "json"): '{\n  "estimate": "0011",\n  "gap": 2.2107756107145846,\n  "method": "ml"\n}\n',
    ("map", "json"): '{\n  "estimate": "0011",\n' + _MARGINS_JSON + '  "method": "map"\n}\n',
    ("qmv", "json"): '{\n  "estimate": "0011",\n' + _MARGINS_JSON + '  "method": "qmv"\n}\n',
    ("weighted", "json"): '{\n  "estimate": "0011",\n' + _MARGINS_JSON + '  "method": "weighted"\n}\n',
    ("window", "json"): '{\n  "estimate": [\n    "0011",\n    "1100"\n  ],\n  "method": "window"\n}\n',
    ("mode", "csv"): "method,estimate,gap\nmode,0011,0.18181818181818182\n",
    ("ml", "csv"): "method,estimate,gap\nml,0011,2.2107756107145846\n",
    ("map", "csv"): f"method,estimate,margins\nmap,0011,{_MARGINS_CSV}\n",
    ("qmv", "csv"): f"method,estimate,margins\nqmv,0011,{_MARGINS_CSV}\n",
    ("weighted", "csv"): f"method,estimate,margins\nweighted,0011,{_MARGINS_CSV}\n",
    ("window", "csv"): "method,estimate\nwindow,0011|1100\n",
    ("map-table", "json"): '{\n  "estimate": "0011",\n  "gap": 4.263115085637693,\n  "method": "map"\n}\n',
    ("map-table", "csv"): "method,estimate,gap\nmap,0011,4.263115085637693\n",
}


@pytest.mark.parametrize("method,fmt", list(FROZEN_MITIGATE))
def test_mitigate_output_is_frozen(capsys, tmp_path, method, fmt):
    path = write_counts_file(tmp_path, FROZEN_COUNTS, 4)
    name = "map" if method == "map-table" else method
    argv = ["--format", fmt, "mitigate", path, "--method", name]
    if ESTIMATORS[name][0]:  # the methods that read a noise model
        argv += ["--p01", "0.2", "--p10", "0.1"]
    if method == "map-table":
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps(FROZEN_TABLE_PRIOR))
        argv += ["--prior-file", str(prior)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == FROZEN_MITIGATE[method, fmt]


class TestSimulate:
    def test_roundtrip_into_mitigate(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        code, _, _ = run(
            capsys, "--seed", "5", "simulate", "--truth", "0101", "--p", "0.05",
            "--shots", "400", "--out", str(out_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "mitigate", str(out_path), "--method", "qmv")
        assert code == 0
        assert json.loads(out)["estimate"] == "0101"

    def test_deterministic_given_seed(self, capsys):
        code, first, _ = run(
            capsys, "--seed", "9", "simulate", "--pattern", "alternating", "--n", "6",
            "--p", "0.2", "--shots", "100",
        )
        assert code == 0
        code, second, _ = run(
            capsys, "--seed", "9", "simulate", "--pattern", "alternating", "--n", "6",
            "--p", "0.2", "--shots", "100",
        )
        assert first == second

    def test_oversized_shot_record_exit_two_before_drawing(self, capsys, monkeypatch):
        import qmvote.noise as noise_mod

        def no_draw(*args):
            raise AssertionError("a shot block was drawn")

        monkeypatch.setattr(noise_mod, "_shot_block", no_draw)
        # 2**32 shots of two qubits pack to 4 GiB, but deduplicating them takes 100 GiB
        code, out, err = run(
            capsys, "simulate", "--truth", "01", "--p", "0.1", "--shots", str(2**32)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "packed shot record" in err and "4 GiB allowed" in err

    def test_requires_noise(self, capsys):
        code, _, err = run(capsys, "simulate", "--truth", "01", "--shots", "10")
        assert code == 1
        assert "noise" in err

    def test_nan_noise_exit_one(self, capsys):
        code, out, err = run(capsys, "simulate", "--truth", "0101", "--p", "nan", "--shots", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "p01" in err

    @pytest.mark.parametrize("n", ["0", "4097", str(10**30)])
    def test_pattern_length_out_of_range_exit_one(self, capsys, n):
        code, out, err = run(
            capsys, "simulate", "--pattern", "all-zeros", "--n", n, "--p", "0.1", "--shots", "4"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1..4096" in err

    def test_pattern_requires_n(self, capsys):
        code, _, err = run(capsys, "simulate", "--pattern", "alternating", "--p", "0.1", "--shots", "4")
        assert code == 1
        assert "--n" in err

    def test_n_with_truth_exit_one(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--truth", "0101", "--n", "7", "--p", "0.1", "--shots", "4"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--n" in err and "--pattern" in err


class TestAms:
    def test_plan_only(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"00": 26, "01": 25, "10": 26, "11": 25}, 2)
        code, out, _ = run(capsys, "ams", path, "--tau", "0.05")
        assert code == 0
        payload = json.loads(out)
        assert payload["plan"]["phase1_shots"] == 102
        assert payload["plan"]["total_shots"] == 204
        assert "estimate" in payload

    def test_executed_with_truth(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"00": 26, "01": 25, "10": 26, "11": 25}, 2)
        code, out, _ = run(
            capsys, "--seed", "3", "ams", path, "--tau", "0.05", "--factor", "0.5",
            "--truth", "01", "--p", "0.4",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"plan", "estimate", "margins"}
        assert len(payload["estimate"]) == 2

    def test_truth_run_fuses_the_files_phase1_counts(self, capsys, tmp_path):
        # qubit 0 read 1 on all 100 phase-1 shots: the file decides it, whatever the truth
        path = write_counts_file(tmp_path, {"10": 50, "11": 50}, 2)
        code, out, _ = run(
            capsys, "--seed", "3", "ams", path, "--tau", "0.05", "--truth", "00", "--p", "0.1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["plan"]["close_qubits"] == [1]
        assert payload["estimate"][0] == "1"
        assert payload["margins"][0] == 1.0

    def test_truth_run_without_close_qubits_keeps_the_files_counts(self, capsys, tmp_path):
        # no close qubit: the other half of the budget is added to the file's
        # 100 shots, which read 1 on qubit 0 every time
        path = write_counts_file(tmp_path, {"10": 100}, 2)
        argv = ("--seed", "3", "ams", path, "--tau", "0.5", "--truth", "00", "--p", "0.1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["plan"]["close_qubits"] == [] and payload["plan"]["total_shots"] == 200
        assert payload["estimate"] == "10"
        # 100 ones from the file and at most 100 from the top-up, out of 200
        assert 0.0 <= payload["margins"][0] < 1.0 and payload["margins"][1] > 0.5
        assert run(capsys, *argv)[1] == out

    def test_plan_keys(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"10": 50, "11": 50}, 2)
        code, out, _ = run(capsys, "--format", "csv", "ams", path, "--tau", "0.05")
        assert code == 0
        assert out.splitlines()[0] == (
            "plan.tau,plan.total_shots,plan.phase1_shots,plan.close_qubits,"
            "plan.per_subset_shots,plan.insufficient,estimate,note"
        )

    def test_factor_without_truth_refused(self, capsys, tmp_path):
        # --factor scales only simulated subset circuits, which run only with --truth
        path = write_counts_file(tmp_path, {"01": 2, "11": 1}, 2)
        code, out, err = run(capsys, "ams", path, "--tau", "0.5", "--factor", "0.3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--truth" in err

    def test_bad_tau_exit_one(self, capsys, tmp_path):
        path = write_counts_file(tmp_path, {"0": 8}, 1)
        code, _, err = run(capsys, "ams", path, "--tau", "2.0")
        assert code == 1
        assert "tau" in err

    # one fusion rule, and a budget of twice the counts' shots: no flag for either
    @pytest.mark.parametrize("flag,value", [("--merge", "replace"), ("--total-shots", "204")])
    def test_removed_flags_are_refused(self, capsys, tmp_path, flag, value):
        path = write_counts_file(tmp_path, {"00": 26, "01": 25, "10": 26, "11": 25}, 2)
        code, out, err = run(capsys, "ams", path, "--tau", "0.5", flag, value)
        assert code == 1
        assert out == ""
        assert err == f"error: unrecognized arguments: {flag} {value}\n"


class TestExperiment:
    def test_end_to_end_files(self, capsys, tmp_path):
        config = {
            "ground_truth": "1010",
            "noise": {"p": 0.1},
            "shots": [32],
            "estimators": ["mode", "qmv"],
            "seeds": [0, 1],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "experiment", str(cfg_path), "--out", str(report_path),
            "--csv-out", str(csv_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert len(payload["rows"]) == 4
        assert csv_path.read_text().splitlines()[0] == "estimator,S,seed,distance,runtime_ms"

    def test_m3_estimate_past_float_range_is_null(self, capsys, tmp_path):
        config = {
            "ground_truth": {"pattern": "alternating", "n": 3000},
            "noise": {"p": 0.45},
            "shots": [20],
            "estimators": ["qmv"],
            "seeds": [0],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", str(cfg_path))
        assert code == 0 and err == ""
        assert json.loads(out, parse_constant=reject_constant)["budget"]["m3_shots_estimate"] is None
        out_path = tmp_path / "report.json"
        code, _, err = run(capsys, "experiment", str(cfg_path), "--out", str(out_path))
        assert code == 0 and err == ""
        assert json.loads(out_path.read_text(), parse_constant=reject_constant) == json.loads(out)

    def test_bad_config_exit_one(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"ground_truth": "01"}))
        code, _, err = run(capsys, "experiment", str(cfg_path))
        assert code == 1
        assert "missing" in err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"noise": {"p": "abc"}}, "noise.p"),
            ({"noise": {"p01": "x", "p10": 0.1}}, "noise.p01"),
            ({"noise": {"p01": 0.1, "p10": "y"}}, "noise.p10"),
            ({"estimators": ["ams"], "ams": {"tau": "x", "factor": 0.5}}, "ams.tau"),
            ({"estimators": ["ams"], "ams": {"tau": 0.05, "factor": "x"}}, "ams.factor"),
            ({"noise": {"p": True}}, "noise.p"),
            ({"noise": {"p": 10**400}}, "noise.p"),
        ],
    )
    def test_non_numeric_config_field_exit_one(self, capsys, tmp_path, overrides, field):
        config = {
            "ground_truth": "1010",
            "noise": {"p": 0.1},
            "shots": [32],
            "estimators": ["qmv"],
            "seeds": [0],
        }
        config.update(overrides)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (
                {"estimators": ["ams"], "ams": {"tau": 0.1, "factor": 0.5, "merge": "replace"}},
                "'merge'",
            ),
            ({"ground_truth": {"pattern": "alternating", "n": 4, "seed": 1}}, "'seed'"),
        ],
    )
    def test_unknown_nested_config_field_exit_one(self, capsys, tmp_path, overrides, field):
        config = {
            "ground_truth": "1010",
            "noise": {"p": 0.1},
            "shots": [32],
            "estimators": ["qmv"],
            "seeds": [0],
        }
        config.update(overrides)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "unknown" in err and field in err

    def test_ams_budget_too_small_for_subset_circuits_exit_one(self, capsys, tmp_path):
        # 2 phase-1 shots of 50 qubits: every qubit's vote is close, and each
        # subset circuit would get no shots
        config = {
            "ground_truth": {"pattern": "alternating", "n": 50},
            "noise": {"p": 0.3},
            "shots": [4],
            "estimators": ["qmv", "ams"],
            "seeds": [1, 2],
            "ams": {"tau": 0.1, "factor": 0.5},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2 phase-1 shots" in err and "per_subset_shots = 0" in err

    def test_seed_flag_overrides_config_seeds(self, capsys, tmp_path):
        config = {
            "ground_truth": "1010",
            "noise": {"p": 0.1},
            "shots": [32],
            "estimators": ["qmv"],
            "seeds": [0, 1, 2],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "--seed", "5", "experiment", str(cfg_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["seeds"] == [5]
        assert [row["seed"] for row in payload["rows"]] == [5]

    def test_infeasible_config_exit_two(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "ground_truth": "1" * 40,
                    "noise": {"p": 0.1},
                    "shots": [8],
                    "estimators": ["ml"],
                    "seeds": [0],
                }
            )
        )
        code, out, err = run(capsys, "experiment", str(cfg_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_ams_on_antipodal_pattern_exit_two(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "ground_truth": {"pattern": "ghz-antipodal", "n": 20},
                    "noise": {"p": 0.2},
                    "shots": [400],
                    "estimators": ["qmv", "ams"],
                    "seeds": [1, 2, 3],
                    "ams": {"tau": 0.1, "factor": 0.5},
                }
            )
        )
        code, out, err = run(capsys, "experiment", str(cfg_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'ams'" in err and "ghz-antipodal" in err

    def test_ml_over_work_limit_exit_two_before_simulating(self, capsys, tmp_path, monkeypatch):
        import qmvote.experiment as experiment_mod

        def no_draw(*args):
            raise AssertionError("shots were simulated")

        monkeypatch.setattr(experiment_mod, "simulate_shots", no_draw)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "ground_truth": {"pattern": "alternating", "n": 24},
                    "noise": {"p": 0.3},
                    "shots": [20000],
                    "estimators": ["qmv", "ml"],
                    "seeds": [0],
                }
            )
        )
        code, out, err = run(capsys, "experiment", str(cfg_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"is {20016 << 24} candidate-key pairs" in err and f"more than the {1 << 37} allowed" in err

    def test_pattern_length_out_of_range_exit_one(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "ground_truth": {"pattern": "alternating", "n": 10**30},
                    "noise": {"p": 0.3},
                    "shots": [10],
                    "estimators": ["qmv"],
                    "seeds": [0],
                }
            )
        )
        code, out, err = run(capsys, "experiment", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1..4096" in err


class TestParsing:
    def test_unknown_flag_exit_one(self, capsys):
        code, _, err = run(capsys, "distance", "--frobnicate", "0", "1")
        assert code == 1

    def test_unknown_command_exit_one(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 1

    @pytest.mark.parametrize("role", ["counts", "config", "prior"])
    def test_deeply_nested_json_exit_one(self, capsys, tmp_path, role):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        good = write_counts_file(tmp_path, {"01": 2, "11": 1}, 2)
        argv = {
            "counts": ["mitigate", str(deep), "--method", "qmv"],
            "config": ["experiment", str(deep)],
            "prior": ["mitigate", good, "--method", "map", "--p", "0.1", "--prior-file", str(deep)],
        }[role]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "mitigate", "/nonexistent/counts.json", "--method", "qmv")
        assert code == 1


def test_package_imports_without_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that imports
    the package and its CLI has loaded no scipy module."""
    src = str(Path(qmvote.__file__).parents[1])
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qmvote, qmvote.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, src], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
