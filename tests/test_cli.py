"""Problem parsing, task execution, report serialization, exit codes."""

import csv
import dataclasses
import json
import math
import os
import pathlib
import warnings

import numpy as np
import pytest

from liprec import (
    LabeledSet,
    MatrixOperator,
    MwetHypothesis,
    cli,
    core,
    cover_pipeline,
    tight_omega,
)
from liprec.covering import unit_box
from liprec.rip import rip_delta, spectral_balance

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def _run_main(argv):
    return cli.main(argv)


def _strip_clock(report):
    out = json.loads(json.dumps(cli.to_jsonable(report)))
    out["metadata"].pop("runtime_ms")
    out["metadata"].pop("timestamp")
    return out


# --------------------------------------------------------------------------
# Serialization


def test_to_jsonable_floats_and_specials():
    assert cli.to_jsonable(1.5) == 1.5
    assert cli.to_jsonable(float("inf")) == "Infinity"
    assert cli.to_jsonable(float("-inf")) == "-Infinity"
    assert cli.to_jsonable(float("nan")) == "NaN"
    assert cli.to_jsonable(np.float64(0.1)) == 0.1
    assert cli.to_jsonable(np.int32(7)) == 7
    assert cli.to_jsonable(True) is True


def test_to_jsonable_containers():
    assert cli.to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert cli.to_jsonable((1, 2)) == [1, 2]
    assert cli.to_jsonable({1: "a"}) == {"1": "a"}

    @dataclasses.dataclass
    class Payload:
        value: float
        items: tuple

    assert cli.to_jsonable(Payload(np.float64(2.0), (1,))) == {
        "value": 2.0, "items": [1]}
    with pytest.raises(TypeError):
        cli.to_jsonable(object())


def test_write_json_round_trip(tmp_path):
    path = tmp_path / "report.json"
    payload = {"b": 0.1, "a": [float("nan"), 3.0]}
    cli.write_json(payload, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    # keys sorted, shortest-round-trip float spelling
    assert text.index('"a"') < text.index('"b"')
    assert "0.1" in text
    loaded = json.loads(text)
    assert loaded["a"] == ["NaN", 3.0]
    assert loaded["b"] == 0.1
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    cli.write_trace({"err": np.array([0.25, 1e-17])}, str(path))
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["series", "index", "value"]
    assert rows[1] == ["err", "0", "0.25"]
    assert float(rows[2][2]) == 1e-17


# --------------------------------------------------------------------------
# Problem parsing


def test_build_operator_matrix():
    op = cli.build_operator({"type": "matrix", "data": [[1.0, 2.0]]})
    assert op.obs_dim == 1 and op.signal_dim == 2
    op = cli.build_operator({"type": "matrix", "data": [[1.0, 2.0]],
                             "rows": 1, "cols": 2})
    assert op.signal_dim == 2


def test_build_operator_rejections():
    with pytest.raises(cli.ProblemError):
        cli.build_operator("matrix")
    with pytest.raises(cli.ProblemError):
        cli.build_operator({"type": "matrix"})
    with pytest.raises(cli.ProblemError):
        cli.build_operator({"type": "matrix", "data": [[1.0], [2.0]]})  # tall
    with pytest.raises(cli.ProblemError):
        cli.build_operator({"type": "matrix", "data": [[1.0, 2.0]], "rows": 2})
    with pytest.raises(cli.ProblemError):
        cli.build_operator({"type": "fourier"})


def test_build_signals_list_variants():
    op = cli.build_operator({"type": "piecewise_example"})
    flat = cli.build_signals({"type": "list", "data": [0.1, 0.2]}, op, 0)
    assert flat.shape == (2, 1)
    with pytest.raises(cli.ProblemError, match=r"^unknown signals\.type 'finite_list' "
                                                r"\(expected 'list', "):
        cli.build_signals({"type": "finite_list", "data": [[0.3]]}, op, 0)
    with pytest.raises(cli.ProblemError):
        cli.build_signals({"type": "list", "data": [[0.1, 0.2]]}, op, 0)


def test_build_signals_affine_segment():
    op = cli.build_operator({"type": "matrix", "data": [[1.0, 0.0], [0.0, 1.0]]})
    seg = cli.build_signals({"type": "affine_segment", "start": [0.0, 0.0],
                             "end": [1.0, 2.0], "count": 5}, op, 0)
    assert seg.shape == (5, 2)
    assert np.allclose(seg[0], [0.0, 0.0])
    assert np.allclose(seg[-1], [1.0, 2.0])
    assert np.allclose(seg[2], [0.5, 1.0])
    with pytest.raises(cli.ProblemError):
        cli.build_signals({"type": "affine_segment", "start": [0.0],
                           "end": [1.0, 2.0], "count": 5}, op, 0)


def test_build_signals_sparse_random():
    op = cli.build_operator({"type": "matrix", "data": np.eye(6).tolist()})
    x = cli.build_signals({"type": "sparse_random", "count": 40, "S": 2}, op, 3)
    assert x.shape == (40, 6)
    assert np.all(np.count_nonzero(x, axis=1) <= 2)
    again = cli.build_signals({"type": "sparse_random", "count": 40, "S": 2}, op, 3)
    assert np.array_equal(x, again)
    with pytest.raises(cli.ProblemError):
        cli.build_signals({"type": "sparse_random", "count": 1, "S": 9}, op, 0)
    with pytest.raises(cli.ProblemError):
        cli.build_signals({"type": "grid"}, op, 0)


def test_thread_budget(monkeypatch):
    monkeypatch.setenv("LIPREC_THREADS", "4")
    assert cli.thread_budget() == core.thread_budget() == 4
    for raw, message in [("abc", "LIPREC_THREADS must be an integer, got 'abc'"),
                         ("0", "LIPREC_THREADS must be positive, got 0")]:
        monkeypatch.setenv("LIPREC_THREADS", raw)
        with pytest.raises(cli.ProblemError, match=f"^{message}$"):
            cli.thread_budget()
        # the one reader behind the CLI and the rip kernel
        with pytest.raises(core.ParameterError, match=f"^{message}$"):
            core.thread_budget()
    monkeypatch.delenv("LIPREC_THREADS")
    assert cli.thread_budget() == core.thread_budget() >= 1


@pytest.mark.parametrize("command", [
    ["run", "rip_balanced.json"],
    ["run", "certify_segment.json"],
    ["selftest", "--filter", "rip"],
])
def test_main_rejects_invalid_thread_budget(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("LIPREC_THREADS", "abc")
    out = tmp_path / "report.json"
    if command[0] == "run":
        problem = PROBLEMS / command[1]
        command = ["run", str(problem), "--out", str(out)]
    assert _run_main(command) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: LIPREC_THREADS must be an integer, got 'abc'\n"
    assert not out.exists()


# --------------------------------------------------------------------------
# Task execution through execute()


CERTIFY_PROBLEM = {
    "task": "certify",
    "operator": {"type": "matrix", "data": [[1.0, 0.5]]},
    "signals": {"type": "affine_segment", "start": [0.0, 0.0],
                "end": [1.0, 0.6], "count": 20},
    "params": {"omega": 0.9},
}


def test_execute_certify_pass():
    report, traces = cli.execute(json.loads(json.dumps(CERTIFY_PROBLEM)))
    assert report["task"] == "certify"
    names = [a["name"] for a in report["assertions"]]
    assert names == ["certified_at_omega"]
    assert report["assertions"][0]["passed"]
    assert report["results"]["verdict"] == "certified"
    assert report["results"]["tight_omega"] <= 0.9
    assert not report["metadata"]["sample_surrogate"]
    assert traces == {}


def test_execute_certify_fail_keeps_report():
    problem = json.loads(json.dumps(CERTIFY_PROBLEM))
    problem["params"]["omega"] = 0.1
    report, _ = cli.execute(problem)
    assert not report["assertions"][0]["passed"]
    assert report["results"]["verdict"] == "violated"
    assert report["results"]["witness"] is not None


def test_execute_certify_without_omega_checks_injectivity():
    problem = json.loads(json.dumps(CERTIFY_PROBLEM))
    del problem["params"]["omega"]
    report, _ = cli.execute(problem)
    assert [a["name"] for a in report["assertions"]] == ["observations_injective"]
    assert report["assertions"][0]["passed"]
    assert report["results"]["collision"] is None


def test_execute_certify_collision_reported():
    problem = {
        "task": "certify",
        "operator": {"type": "piecewise_example"},
        "signals": {"type": "list", "data": [1.0, 2.0]},
        "params": {},
    }
    report, _ = cli.execute(problem)
    assert not report["assertions"][0]["passed"]
    assert tuple(report["results"]["collision"]) == (0, 1)
    assert report["results"]["tight_omega"] is None


def test_execute_mwet():
    problem = {
        "task": "mwet",
        "operator": {"type": "matrix", "data": [[1.0, 0.0, 1.0, 0.0],
                                                [0.0, 1.0, 0.0, 1.0]]},
        "signals": {"type": "affine_segment",
                    "start": [0.0, 0.0, 0.0, 0.0],
                    "end": [1.0, 0.5, -0.25, 0.75], "count": 25},
        "params": {"num_pairs": 500, "seed": 7},
    }
    report, traces = cli.execute(problem)
    by_name = {a["name"]: a for a in report["assertions"]}
    assert by_name["training_interpolation"]["passed"]
    assert by_name["audit_within_global_bound"]["passed"]
    assert report["results"]["omega_global"] == pytest.approx(
        report["results"]["omega1"] * 2.0)  # sqrt(4)
    assert len(traces["training_residual"]) == 25


def test_execute_mwet_rejects_too_small_omega():
    problem = {
        "task": "mwet",
        "operator": {"type": "matrix", "data": [[1.0, 0.0], [0.0, 1.0]]},
        "signals": {"type": "list", "data": [[0.0, 0.0], [1.0, 1.0]]},
        "params": {"omega": 1e-6},
    }
    with pytest.raises(cli.ProblemError):
        cli.execute(problem)


def test_execute_mwet_audit_fails_on_non_finite_ratio(monkeypatch):
    # fit now refuses this constant; built directly, its bound omega1 * 2 is
    # inf, and an infinite audit ratio must not pass as inf <= inf
    monkeypatch.setattr(cli, "_fit", lambda sample, omega1, tight: MwetHypothesis(
        training=sample, omega1=1e308))
    problem = json.loads((PROBLEMS / "mwet_segment.json").read_text())
    with np.errstate(over="ignore"):
        report, _ = cli.execute(problem)
    by_name = {a["name"]: a for a in report["assertions"]}
    assert report["results"]["audit_ratio"] == math.inf
    assert report["results"]["omega_global"] == math.inf
    assert not by_name["audit_within_global_bound"]["passed"]


THEOREM1_PROBLEM = {
    "task": "theorem1",
    "operator": {"type": "piecewise_example"},
    "signals": {"type": "affine_segment", "start": [0.0], "end": [1.0],
                "count": 201},
    "params": {"omega": 1.0, "epsilon": 0.2},
}


def test_execute_theorem1():
    report, traces = cli.execute(json.loads(json.dumps(THEOREM1_PROBLEM)))
    by_name = {a["name"]: a for a in report["assertions"]}
    assert set(by_name) == {"sample_certified", "training_interpolation",
                            "recovery_within_epsilon", "cover_within_cell_bound"}
    assert all(a["passed"] for a in report["assertions"])
    assert report["results"]["max_recovery_error"] <= 0.2
    assert report["results"]["cells_occupied"] <= report["results"]["cells_bound"]
    assert report["metadata"]["sample_surrogate"]
    assert len(traces["recovery_error"]) == 201


def test_execute_theorem1_uncertified_stops_early():
    problem = json.loads(json.dumps(THEOREM1_PROBLEM))
    problem["params"]["omega"] = 0.5
    report, _ = cli.execute(problem)
    assert [a["name"] for a in report["assertions"]] == ["sample_certified"]
    assert not report["assertions"][0]["passed"]
    assert report["results"]["witness"] is not None


def test_execute_theorem3_reduced():
    problem = {
        "task": "theorem3",
        "operator": {"type": "matrix", "data": [[1.0, 0.0, 0.0],
                                                [0.0, 1.0, 0.0]]},
        "signals": {"type": "affine_segment", "start": [0.0, 0.0, 0.0],
                    "end": [1.0, 1.0, 1.0], "count": 100},
        "params": {"omega": 1.3, "epsilon": 0.3, "seed": 11, "num_pairs": 200},
    }
    report, _ = cli.execute(problem)
    by_name = {a["name"]: a for a in report["assertions"]}
    assert all(a["passed"] for a in report["assertions"])
    assert "reduced_grid_no_coarser" in by_name
    assert report["results"]["exact_inversion"] is False
    assert report["results"]["t_reduced"] <= report["results"]["t_full"]
    assert report["results"]["effective_rank"] == 2


def test_execute_theorem3_square_exact():
    problem = {
        "task": "theorem3",
        "operator": {"type": "matrix", "data": [[2.0, 1.0], [1.0, 3.0]]},
        "signals": {"type": "affine_segment", "start": [0.0, 0.0],
                    "end": [1.0, 0.5], "count": 10},
        "params": {"omega": 0.5, "epsilon": 0.1, "seed": 3, "num_pairs": 100},
    }
    report, _ = cli.execute(problem)
    assert all(a["passed"] for a in report["assertions"])
    assert report["results"]["exact_inversion"] is True
    assert report["results"]["t_reduced"] is None
    names = [a["name"] for a in report["assertions"]]
    assert "reduced_grid_no_coarser" not in names


def test_execute_theorem3_needs_matrix():
    problem = {
        "task": "theorem3",
        "operator": {"type": "piecewise_example"},
        "signals": {"type": "list", "data": [0.0, 0.5]},
        "params": {"omega": 1.0, "epsilon": 0.1},
    }
    with pytest.raises(cli.ProblemError):
        cli.execute(problem)


def _near_pair_problem(task, pair, others):
    return {"task": task, "operator": {"type": "matrix", "data": [[1.0, 0.0]]},
            "signals": {"type": "list", "data": pair + [[i / 100, 0.0] for i in others]},
            "params": {"omega": 1.0, "epsilon": 0.5}}


NEAR_PAIRS = {
    # The pair straddles a cell face (t = 5 for theorem1, t_reduced = 4 for
    # theorem3), so both of its rows are representatives. Its ratio is far
    # above omega = 1, but its signals are within TOL_CERT, so the sample
    # certifies; the pipeline used to re-scan the representatives and abort.
    "collision": _near_pair_problem(
        "theorem1", [[0.4 - 1e-14, 0.0], [0.4, 1e-10]], [i for i in range(101) if i != 40]),
    "collision_theorem3": _near_pair_problem(
        "theorem3", [[0.5 - 1e-14, 0.0], [0.5, 1e-10]], [i for i in range(101) if i != 50]),
    "ratio_50": _near_pair_problem(
        "theorem1", [[0.4 - 1e-11, 0.0], [0.4, 5e-10]], [i for i in range(101) if i != 40]),
    # Sample rows 0-60 fill cells 0, 3 and 4 only, so the pair (rows 61, 62)
    # are representatives 3 and 4.
    "collision_last": _near_pair_problem(
        "theorem1", [], [i for i in range(101) if not 20 <= i < 60]),
}
NEAR_PAIRS["collision_last"]["signals"]["data"] += [[0.4 - 1e-14, 0.0], [0.4, 1e-10]]


@pytest.mark.parametrize("case", sorted(NEAR_PAIRS))
def test_a_certified_sample_with_a_near_pair_is_recovered(case):
    report, _ = cli.execute(NEAR_PAIRS[case])
    assert report["results"]["max_ratio"] > 50.0
    assert [a["name"] for a in report["assertions"]][:3] == [
        "sample_certified", "training_interpolation", "recovery_within_epsilon"]
    assert all(a["passed"] for a in report["assertions"])


def test_execute_rip_pass():
    report, _ = cli.execute(json.loads((PROBLEMS / "rip_balanced.json").read_text()))
    by_name = {a["name"]: a for a in report["assertions"]}
    assert by_name["derived_constant_applicable"]["passed"]
    assert by_name["sparse_pairs_within_derived_constant"]["passed"]
    assert by_name["delta_monotone"]["passed"]
    assert report["results"]["delta"] <= report["results"]["delta_2s"]
    assert report["results"]["derived_omega"] == pytest.approx(
        1.0 / math.sqrt(1.0 - report["results"]["delta_2s"]))


def test_execute_rip_degenerate_reports_failed_assertion():
    # duplicate columns: delta_2 = 1, so the derived constant does not exist
    problem = {
        "task": "rip",
        "operator": {"type": "matrix", "data": [[1.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]]},
        "params": {"S": 1, "num_pairs": 50},
    }
    report, _ = cli.execute(problem)
    assert [a["name"] for a in report["assertions"]] == ["derived_constant_applicable"]
    assert not report["assertions"][0]["passed"]
    assert report["results"]["derived_omega"] is None


def test_execute_example3():
    report, _ = cli.execute({"task": "example3"})
    names = [a["name"] for a in report["assertions"]]
    assert names == ["unit_interval_certified_at_1", "plateau_pair_collides",
                     "union_certified_at_2", "union_violated_at_1p99"]
    assert all(a["passed"] for a in report["assertions"])


def test_execute_rejects_unknown_task_and_bad_shapes():
    with pytest.raises(cli.ProblemError):
        cli.execute({"task": "theorem9"})
    with pytest.raises(cli.ProblemError):
        cli.execute([1, 2, 3])
    with pytest.raises(cli.ProblemError):
        cli.execute({"task": "certify", "operator": {"type": "matrix",
                                                     "data": [[1.0]]},
                     "signals": {"type": "list", "data": [0.0]},
                     "params": "omega"})


def test_execute_deterministic_modulo_clock():
    problem = json.dumps(THEOREM1_PROBLEM)
    first = _strip_clock(cli.execute(json.loads(problem))[0])
    second = _strip_clock(cli.execute(json.loads(problem))[0])
    assert first == second


def test_report_metadata_fields():
    report, _ = cli.execute({"task": "example3", "params": {"seed": 5}})
    meta = report["metadata"]
    assert meta["seed"] == 5
    assert meta["threads"] >= 1
    assert isinstance(meta["runtime_ms"], float)
    assert meta["version"]
    assert meta["timestamp"].endswith("+00:00")


# --------------------------------------------------------------------------
# Command line entry points


def _write_problem(tmp_path, problem, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(problem))
    return str(path)


def test_main_run_success(tmp_path, capsys):
    path = _write_problem(tmp_path, CERTIFY_PROBLEM)
    out = tmp_path / "report.json"
    code = _run_main(["run", path, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["task"] == "certify"
    assert "certified_at_omega" in capsys.readouterr().out


def test_main_run_assertion_failure_still_writes_report(tmp_path):
    problem = json.loads(json.dumps(CERTIFY_PROBLEM))
    problem["params"]["omega"] = 0.01
    path = _write_problem(tmp_path, problem)
    out = tmp_path / "report.json"
    code = _run_main(["run", path, "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert not report["assertions"][0]["passed"]


def test_main_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"task": "certify",')
    out = tmp_path / "report.json"
    code = _run_main(["run", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    assert not out.exists()


def test_main_run_missing_file(tmp_path):
    code = _run_main(["run", str(tmp_path / "absent.json"),
                      "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_main_run_non_object_root_with_overrides(tmp_path, capsys):
    path = _write_problem(tmp_path, [1, 2])
    out = tmp_path / "report.json"
    code = _run_main(["run", path, "--out", str(out), "--set", "a=1"])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: problem file must contain a JSON object\n"
    assert not out.exists()


def test_main_run_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"task": "certify\xe9"}')
    out = tmp_path / "report.json"
    assert _run_main(["run", str(path), "--out", str(out)]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8 text: invalid continuation byte")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run", "--out", "missing/report.json"],
    ["run", "--out", "report.json", "--trace", "missing/trace.csv"],
    ["selftest", "--filter", "example3", "--out", "missing/report.json"],
])
def test_main_output_into_missing_directory(tmp_path, capsys, command):
    args = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in command]
    if args[0] == "run":
        args.insert(1, str(PROBLEMS / "example3.json"))
    assert _run_main(args) == cli.EXIT_INPUT_ERROR
    missing = tmp_path / "missing"
    err = capsys.readouterr().err
    assert f"error: cannot write {missing}/" in err and err.endswith(": No such file or directory\n")
    assert list(tmp_path.iterdir()) == []  # no report, and no stray temp file


def test_main_run_input_error_for_bad_dimensions(tmp_path):
    problem = {
        "task": "certify",
        "operator": {"type": "matrix", "data": [[1.0, 0.0]]},
        "signals": {"type": "list", "data": [[1.0, 2.0, 3.0]]},
        "params": {},
    }
    path = _write_problem(tmp_path, problem)
    code = _run_main(["run", path, "--out", str(tmp_path / "r.json")])
    assert code == 1


@pytest.mark.parametrize("problem_file", ["mwet_segment.json", "theorem3_projection.json",
                                          "rip_balanced.json"])
@pytest.mark.parametrize("value", [0, -3])
def test_main_run_rejects_nonpositive_num_pairs(tmp_path, capsys, problem_file, value):
    problem = PROBLEMS / problem_file
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out),
                      "--set", f"params.num_pairs={value}"])
    assert code == cli.EXIT_INPUT_ERROR
    assert f"params.num_pairs must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem_file", ["mwet_segment.json", "theorem3_projection.json",
                                          "rip_balanced.json"])
def test_main_run_rejects_negative_seed(tmp_path, capsys, problem_file):
    problem = PROBLEMS / problem_file
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out), "--set", "params.seed=-1"])
    assert code == cli.EXIT_INPUT_ERROR
    assert "params.seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_main_run_rejects_negative_signals_seed(tmp_path, capsys):
    problem = PROBLEMS / "mwet_segment.json"
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out), "--set",
                      'signals={"type": "sparse_random", "count": 20, "S": 2, "seed": -4}'])
    assert code == cli.EXIT_INPUT_ERROR
    assert "signals.seed must be >= 0, got -4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override,field", [
    ('signals={"type": "list", "data": [[1, 2, 3, 4], [1, 2]]}', "signals.data"),
    ('signals.start=["a", 0, 0, 0]', "signals.start"),
    ('signals.end={"x": 1}', "signals.end"),
    ("operator.data=[[1, 2], [3]]", "operator.data"),
    ('operator.data=[["x"]]', "operator.data"),
])
def test_main_run_rejects_ragged_or_non_numeric_arrays(tmp_path, capsys, override, field):
    problem = PROBLEMS / "mwet_segment.json"
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out), "--set", override])
    assert code == cli.EXIT_INPUT_ERROR
    assert f"field '{field}' must be a numeric array" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["[]", "0", '""', "false", "null", "[1]"])
def test_main_run_rejects_params_that_are_not_an_object(tmp_path, capsys, value):
    # A falsy params value used to run the task with default parameters.
    problem = PROBLEMS / "certify_segment.json"
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out), "--set", f"params={value}"])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: field 'params' must be an object\n"
    assert not out.exists()


def test_main_run_reads_a_missing_params_as_empty(tmp_path):
    problem = json.loads((PROBLEMS / "certify_segment.json").read_text())
    del problem["params"]
    assert _main_on(tmp_path, problem) == cli.EXIT_OK


@pytest.mark.parametrize("problem_file,name", [
    ("certify_segment.json", "certified_at_omega"),
    ("theorem1_ramp.json", "sample_certified"),
    ("theorem3_projection.json", "sample_certified"),
    ("theorem3_square.json", "sample_certified"),
])
def test_main_run_certification_over_zero_pairs_fails(tmp_path, problem_file, name):
    problem = PROBLEMS / problem_file
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out), "--set", "signals.count=1"])
    assert code == cli.EXIT_ASSERTION_FAILURE
    report = json.loads(out.read_text())
    failed = [a["name"] for a in report["assertions"] if not a["passed"]]
    assert failed == [name]
    assert report["results"]["sample_size"] == 1
    assert report["results"]["max_ratio"] == 0.0
    # Two signals give one pair, which is enough.
    code = _run_main(["run", str(problem), "--out", str(out), "--set", "signals.count=2"])
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("problem_file,overrides,name", [
    ("certify_segment.json", ["params.omega=null"], "observations_injective"),
    ("mwet_segment.json", [], "audit_within_global_bound"),
])
def test_main_run_zero_pair_checks_fail(tmp_path, problem_file, overrides, name):
    # One signal leaves no pair for the injectivity check or the audit to examine.
    problem = PROBLEMS / problem_file
    out = tmp_path / "report.json"
    sets = [arg for item in overrides for arg in ("--set", item)]
    code = _run_main(["run", str(problem), "--out", str(out), *sets,
                      "--set", "signals.count=1"])
    assert code == cli.EXIT_ASSERTION_FAILURE
    report = json.loads(out.read_text())
    assert [a["name"] for a in report["assertions"] if not a["passed"]] == [name]
    assert report["results"]["sample_size"] == 1
    code = _run_main(["run", str(problem), "--out", str(out), *sets,
                      "--set", "signals.count=2"])
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("task", ["certify", "theorem1", "mwet"])
def test_main_run_overflowing_distances_exit_1(tmp_path, capsys, task):
    # Every pair's distances overflow to inf; certify used to pass with
    # max_ratio -Infinity, theorem1 to report max_ratio Infinity.
    problem = {
        "task": task,
        "operator": {"type": "matrix", "data": [[1.0, 0.0], [0.0, 1e-300]]},
        "signals": {"type": "list", "data": [[0.0, 0.0], [1e200, 1.0], [2e200, -1.0]]},
        "params": {"omega": 1.0, "epsilon": 0.2},
    }
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    code = _run_main(["run", str(path), "--out", str(out)])
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "overflow float64" in err and "Traceback" not in err
    assert not out.exists()


def _main_on(tmp_path, problem):
    """cli.main on one problem: exit code, and the RuntimeWarnings it let out."""
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run_main(["run", str(path), "--out", str(out)])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert out.exists() == (code != cli.EXIT_INPUT_ERROR)
    return code


@pytest.mark.parametrize("task", ["certify", "mwet", "theorem1", "theorem3"])
def test_main_run_names_a_duplicate_past_overflowing_observations(tmp_path, capsys, task):
    # Rows 0 and 1 repeat, and the observation norms and distances overflow
    # when squared. Labeling goes first, so every task names the duplicate;
    # certify and theorem3 used to exit with the overflow's DomainError.
    problem = {"task": task, "operator": {"type": "matrix", "data": [[1e155, 0.0]]},
               "signals": {"type": "list", "data": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
               "params": {"omega": 1.0, "epsilon": 0.5}}
    assert _main_on(tmp_path, problem) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "error: labeling the sample failed: duplicate signals at indices 0 and 1\n")


@pytest.mark.parametrize("omega,message", [
    ('"x"', "field 'params.omega' must be a number, got 'x'"),
    ("-1", "ParameterError: omega must be a positive finite number, got -1.0"),
])
@pytest.mark.parametrize("signals,duplicate", [
    ([[0.0, 0.0], [1.0, 0.0]], False), ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], True)])
def test_main_run_certify_reports_labeling_then_omega_then_overflow(tmp_path, capsys, omega,
                                                                    message, signals,
                                                                    duplicate):
    # The observation norms overflow: a duplicate goes first, a bad omega
    # next, as in the mwet task; the overflow used to go ahead of a bad omega.
    problem = {"task": "certify", "operator": {"type": "matrix", "data": [[1e155, 0.0]]},
               "signals": {"type": "list", "data": signals},
               "params": {"omega": json.loads(omega)}}
    assert _main_on(tmp_path, problem) == cli.EXIT_INPUT_ERROR
    if duplicate:
        message = "labeling the sample failed: duplicate signals at indices 0 and 2"
    assert capsys.readouterr().err == f"error: {message}\n"
    problem["params"] = {}
    assert _main_on(tmp_path, problem) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: " + (
        "labeling the sample failed: duplicate signals at indices 0 and 2" if duplicate else
        "DomainError: observations: their norms overflow float64, so the injectivity "
        "tolerance is not finite") + "\n"


@pytest.mark.parametrize("task", ["certify", "mwet", "theorem1"])
@pytest.mark.parametrize("signals,message", [
    ([[0.0], [1.0], [3.5]], "input outside the operator domain [0, 3]"),
    ([], "signals: expected a non-empty 2-D array, got shape (0, 1)"),
], ids=["out_of_domain", "empty"])
def test_main_run_every_task_labels_the_same_way(tmp_path, capsys, task, signals, message):
    # theorem1 used to apply a normalized operator before labeling, so it
    # reported "DomainError: input outside ..." and, for an empty list,
    # "CalibrationError: normalization needs at least one calibration signal".
    problem = {"task": task, "operator": {"type": "piecewise_example"},
               "signals": {"type": "list", "data": signals},
               "params": {"omega": 1.0, "epsilon": 0.5}}
    assert _main_on(tmp_path, problem) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: labeling the sample failed: {message}\n"


@pytest.mark.parametrize("signals,message", [
    ([[1.0, 0.0], [0.0, 1.0]], "DomainError: observations: pairwise distances overflow "
                               "float64 (the squared diagonal of their bounding box is not finite)"),
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
     "labeling the sample failed: duplicate signals at indices 0 and 2"),
])
def test_main_run_theorem1_rejects_observations_whose_span_overflows(tmp_path, capsys, signals,
                                                                     message):
    # Observations 1e308 and -1e308 have no finite unit box. theorem1 used to
    # warn of an overflow in subtract and exit with "DomainError: scale must
    # be a positive finite number, got inf", a duplicate or not.
    problem = {"task": "theorem1", "operator": {"type": "matrix", "data": [[1e308, -1e308]]},
               "signals": {"type": "list", "data": signals},
               "params": {"omega": 1.0, "epsilon": 0.5}}
    assert _main_on(tmp_path, problem) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("task,operator,signals,scale", [
    ("theorem1", [[1e150, 0.0], [0.0, 1e150]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "1e+150"),
    ("theorem3", [[1e150, 0.0]], [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], "2e+150"),
])
@pytest.mark.parametrize("duplicate", [False, True])
def test_main_run_names_omega_and_the_scale_whose_product_overflows(tmp_path, capsys, task,
                                                                    operator, signals, scale,
                                                                    duplicate):
    # omega = 1e160 is finite and the sample certifies, but omega times the
    # box scale overflows. theorem1 used to exit with "omega must be a
    # positive finite number, got inf", theorem3 with "omega must be
    # positive, got inf". A duplicate is still reported first.
    problem = {"task": task, "operator": {"type": "matrix", "data": operator},
               "signals": {"type": "list", "data": signals + [signals[0]] * duplicate},
               "params": {"omega": 1e160, "epsilon": 1.0}}
    assert _main_on(tmp_path, problem) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "inf" not in err
    if duplicate:
        assert err == "error: labeling the sample failed: duplicate signals at indices 0 and 3\n"
    else:
        assert err.startswith("error: ") and f"omega = 1e+160 times the box scale {scale} " in err


@pytest.mark.parametrize("problem_file", ["theorem1_segment.json", "theorem1_ramp.json"])
@pytest.mark.parametrize("omega", [-1.0, 0.0])
@pytest.mark.parametrize("duplicate", [False, True])
def test_main_run_names_an_invalid_theorem1_omega_as_given(tmp_path, capsys, problem_file, omega,
                                                          duplicate):
    # theorem1 certifies its boxed sample at omega times the box scale, and
    # an invalid omega used to be named so multiplied: "got
    # -0.2749999999999997" for the segment's scale 0.275. The ramp's scale
    # is 1.0, which hid it. A duplicate is still reported first, and every
    # case exits 1.
    problem = json.loads((PROBLEMS / problem_file).read_text())
    problem["params"]["omega"] = omega
    spec = problem["signals"]
    if duplicate:
        points = np.linspace(spec["start"], spec["end"], spec["count"]).tolist()
        problem["signals"] = {"type": "list", "data": points + points[:1]}
    assert _main_on(tmp_path, problem) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    if duplicate:
        assert err == ("error: labeling the sample failed: duplicate signals at indices 0 and "
                       f"{spec['count']}\n")
    else:
        assert err == f"error: ParameterError: omega must be a positive finite number, got {omega}\n"


@pytest.mark.parametrize("problem_file", ["theorem1_ramp.json", "theorem3_projection.json"])
def test_main_run_recovers_at_a_huge_omega(tmp_path, problem_file):
    # At omega = epsilon = 1e155 the hypothesis recovers some sample points
    # with errors whose squares overflow: their norms used to read inf, with
    # a RuntimeWarning, and recovery_within_epsilon failed (exit 2).
    problem = json.loads((PROBLEMS / problem_file).read_text())
    problem["params"].update(omega=1e155, epsilon=1e155)
    assert _main_on(tmp_path, problem) == cli.EXIT_OK
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert 0.0 < results["max_recovery_error"] <= 1e155


@pytest.mark.parametrize("seed", range(5))
def test_theorem1_boxes_its_labeled_observations(seed):
    # theorem1 labels under the operator itself, then boxes the labeled
    # observations and certifies them at omega * scale.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3))
    x = rng.standard_normal((80, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
    raw = LabeledSet.from_operator(MatrixOperator(a), x)
    lo, scale = unit_box(raw.observations)
    sample = LabeledSet(x, (raw.observations - lo) / scale)
    omega = 1.01 * tight_omega(raw).omega
    epsilon = float(np.ptp(x, axis=0).max()) / 4.0
    report, traces = cli.execute({
        "task": "theorem1", "operator": {"type": "matrix", "data": a.tolist()},
        "signals": {"type": "list", "data": x.tolist()},
        "params": {"omega": omega, "epsilon": epsilon}})
    expected = cover_pipeline(sample, omega * scale, epsilon)
    results = report["results"]
    assert all(entry["passed"] for entry in report["assertions"])
    assert (results["scale"], results["omega_normalized"]) == (scale, omega * scale)
    assert {key: results[key] for key in dataclasses.asdict(expected.report)} == \
        dataclasses.asdict(expected.report)
    assert traces["recovery_error"].tobytes() == expected.recovery_errors.tobytes()


def test_main_run_theorem3_consistency_on_an_operator_with_huge_entries(tmp_path):
    # The map is consistent, but ||A x|| and the residuals of the probes
    # overflow when squared: the check used to read NaN and exit 2, with
    # RuntimeWarnings. The null coordinate keeps the signals apart.
    problem = {"task": "theorem3",
               "operator": {"type": "matrix", "data": [[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]]},
               "signals": {"type": "list", "data": [[0.0, 0.0, 0.0], [1e-200, 0.0, 0.5],
                                                    [0.0, 1e-200, 0.25],
                                                    [1e-200, 1e-200, 1.0]]},
               "params": {"omega": 10.0, "epsilon": 0.5, "num_pairs": 50}}
    assert _main_on(tmp_path, problem) == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    consistency = {a["name"]: a for a in report["assertions"]}["observation_consistency"]
    assert 0.0 <= consistency["observed"] <= 1e-15


def test_main_run_theorem3_rejects_consistency_probes_that_overflow(tmp_path, capsys):
    # The sample's observations are finite, but a standard normal probe
    # times 1e308 is not: one error line, where numpy used to warn twice
    # ahead of "DomainError: observations: entries must be finite".
    problem = {"task": "theorem3",
               "operator": {"type": "matrix", "data": [[1e308, 0.0, 0.0], [0.0, 1.0, 0.0]]},
               "signals": {"type": "list", "data": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.5],
                                                    [0.0, 2.0, 0.25], [0.0, 3.0, 1.0]]},
               "params": {"omega": 10.0, "epsilon": 0.5, "num_pairs": 50}}
    assert _main_on(tmp_path, problem) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "error: the observations of the consistency probes overflow float64\n")


@pytest.mark.parametrize("omega,message", [
    ("0", "ParameterError: omega must be a positive finite number, got 0.0"),
    ("-1.5", "ParameterError: omega must be a positive finite number, got -1.5"),
    ('"x"', "field 'params.omega' must be a number, got 'x'"),
])
def test_main_run_certify_rejects_bad_omega(tmp_path, capsys, omega, message):
    problem = PROBLEMS / "certify_segment.json"
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out), "--set", f"params.omega={omega}"])
    assert code == cli.EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon,shown", [("-1", "-1.0"), ("0", "0.0"), ("NaN", "nan")])
def test_main_run_theorem3_square_rejects_bad_epsilon(tmp_path, capsys, epsilon, shown):
    # the exact-inversion path checks epsilon like the covering path does
    problem = PROBLEMS / "theorem3_square.json"
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out),
                      "--set", f"params.epsilon={epsilon}"])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"error: ParameterError: epsilon must be positive, got {shown}\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["theorem1_ramp.json", "theorem3_projection.json"])
def test_main_run_rejects_epsilon_that_overflows_the_grid(tmp_path, capsys, name):
    out = tmp_path / "report.json"
    code = _run_main(["run", str(PROBLEMS / name), "--out", str(out),
                      "--set", "params.epsilon=1e-320"])
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: epsilon = 1e-320 is too small")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name,side", [("theorem1_ramp.json", "2e+200"),
                                       ("theorem3_projection.json", "3.68e+200")])
def test_main_run_rejects_a_grid_side_past_int64(tmp_path, capsys, name, side):
    # A finite side of 2^63 or more used to be cast to int64 with a numpy
    # warning, put every point in cell 0 and report one occupied cell.
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run_main(["run", str(PROBLEMS / name), "--out", str(out),
                          "--set", "params.epsilon=1e-200"])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"error: ParameterError: epsilon = 1e-200 is too small: the grid side "
        f"t = {side} overflows the int64 cell digits\n")
    assert not out.exists()


@pytest.mark.parametrize("name,points", [("theorem1_ramp.json", 201),
                                         ("theorem3_projection.json", 120)])
def test_main_run_covers_at_a_grid_side_near_int64(tmp_path, name, points):
    # t is about 2e18 (5e18 for the full grid theorem3 reports): every point
    # keeps a cell of its own
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run_main(["run", str(PROBLEMS / name), "--out", str(out),
                          "--set", "params.epsilon=1e-18"])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text())["results"]["cells_occupied"] == points


def test_main_run_reports_a_cell_bound_past_float64_as_infinite(tmp_path):
    # t is about 1.9e18, so t^17 passes the float64 range; the bound used
    # to end in an OverflowError traceback.
    signals = core.seeded_rng(5).uniform(size=(5, 17))
    problem = {"task": "theorem1", "operator": {"type": "matrix", "data": np.eye(17).tolist()},
               "signals": {"type": "list", "data": signals.tolist()},
               "params": {"omega": 1.0, "epsilon": 1e-17}}
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    assert _run_main(["run", str(path), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    results = report["results"]
    assert results["cells_bound"] == results["t"] ** 17 > 2 ** 1024
    assert report["assertions"][-1] == {"name": "cover_within_cell_bound", "passed": True,
                                        "observed": 5.0, "bound": "Infinity"}


@pytest.mark.parametrize("name,key,width", [
    ("mwet_segment.json", "params.num_pairs", 4),  # both ends of each audit pair, in R^2
    ("theorem3_square.json", "params.num_pairs", 2),
    ("rip_balanced.json", "params.num_pairs", 8),
    ("rip_balanced.json", "signals.count", 8),  # sparse_random
    ("certify_segment.json", "signals.count", 2),  # affine_segment
])
def test_main_run_rejects_a_draw_count_too_large_to_allocate(tmp_path, capsys, name, key, width):
    # numpy used to refuse the draw array with a 20-line traceback
    # (ValueError: array is too big); the count is checked where it is read
    out = tmp_path / "report.json"
    code = _run_main(["run", str(PROBLEMS / name), "--out", str(out),
                      "--set", f"{key}={10 ** 18}"])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"error: {key} = {10 ** 18} is too large: {10 ** 18} x {width} float64 draws "
        "exceed the largest array numpy can allocate\n")
    assert not out.exists()


def test_main_run_reports_a_draw_that_outruns_memory(tmp_path, capsys):
    # 10^18 signals in R^1 are within numpy's array limit, but 8 * 10^18
    # bytes are past any address space: the allocation fails at once, and
    # its MemoryError used to end in a traceback
    out = tmp_path / "report.json"
    code = _run_main(["run", str(PROBLEMS / "theorem1_ramp.json"), "--out", str(out),
                      "--set", f"signals.count={10 ** 18}"])
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError: Unable to allocate"), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_main_run_mwet_rejects_omega_whose_global_bound_overflows(tmp_path, capsys):
    # omega1 * sqrt(4) overflows float64; the task used to print two numpy
    # overflow warnings and pass its audit as inf <= inf
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run_main(["run", str(PROBLEMS / "mwet_segment.json"), "--out", str(out),
                          "--set", "params.omega=1e308"])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "error: fit failed: omega1 * sqrt(4) overflows float64 (omega1 = 1e+308)\n")
    assert not out.exists()


def test_main_run_mwet_audits_a_huge_finite_constant(tmp_path, capsys):
    # omega_global = 1e308 is finite and the map stays within it, but the
    # squares of its output differences overflow: the audit used to warn,
    # report Infinity and fail
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run_main(["run", str(PROBLEMS / "mwet_segment.json"), "--out", str(out),
                          "--set", "params.omega=5e307"])
    assert code == cli.EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert results["omega_global"] == 1e308
    assert 0.0 < results["audit_ratio"] <= results["omega_global"]
    assert "warning" not in capsys.readouterr().err.lower()


def test_main_run_mwet_rejects_recovered_values_that_overflow(tmp_path, capsys):
    # omega_global = 1e308 is finite, but on a segment ten times as long the
    # audit box reaches queries where omega1 times the distance to the
    # training data overflows: evaluate used to warn and return inf, and the
    # audit to warn again and report NaN with exit 2. The error names the
    # audit's sampling box, not a query of the audit's internal batch.
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run_main(["run", str(PROBLEMS / "mwet_segment.json"), "--out", str(out),
                          "--set", "params.omega=5e307",
                          "--set", "signals.end=[10, 5, -2.5, 7.5]"])
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err == ("error: DomainError: the audit's sampling box (the training observations' "
                   "bounding box, inflated by 50%) holds a point whose recovered value "
                   "overflows float64 at omega1 = 5e+307\n")
    assert not out.exists()


def test_main_run_rejects_an_operator_whose_observations_overflow(tmp_path, capsys):
    # a finite matrix and finite signals whose product overflows: numpy used
    # to print an overflow warning ahead of the error line
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run_main(["run", str(PROBLEMS / "certify_segment.json"), "--out", str(out),
                          "--set", "operator.data=[[1e308,1e308]]",
                          "--set", "signals.start=[1,1]", "--set", "signals.end=[2,3]"])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        "error: labeling the sample failed: observations overflow float64\n")
    assert not out.exists()


@pytest.mark.parametrize("override,field", [
    ("signals.start=[Infinity, 0]", "signals.start"),
    ("signals.start=[0, NaN]", "signals.start"),
    ("signals.end=[1, -Infinity]", "signals.end"),
])
def test_main_run_rejects_non_finite_segment_endpoints(tmp_path, capsys, override, field):
    # checked before the segment is computed, so numpy never warns
    problem = PROBLEMS / "certify_segment.json"
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run_main(["run", str(problem), "--out", str(out), "--set", override])
    assert code == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{field}' must be finite, got [")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("override,message", [
    ("signals.seed=-1", "signals.seed must be >= 0, got -1"),
    ('signals.count="x"', "field 'signals.count' must be an integer, got 'x'"),
    ('signals.type="bogus"', "unknown signals.type 'bogus'"),
    ("signals=3", "field 'signals' must be an object"),
])
def test_main_run_rip_validates_its_signals_block(tmp_path, capsys, override, message):
    problem = PROBLEMS / "rip_balanced.json"
    out = tmp_path / "report.json"
    code = _run_main(["run", str(problem), "--out", str(out), "--set", override])
    assert code == cli.EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_main_run_with_trace_and_overrides(tmp_path):
    path = _write_problem(tmp_path, THEOREM1_PROBLEM)
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    code = _run_main(["run", path, "--out", str(out), "--trace", str(trace),
                      "--set", "params.epsilon=0.25",
                      "--set", "signals.count=101"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["epsilon"] == 0.25
    assert report["results"]["sample_size"] == 101
    with open(trace) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["series", "index", "value"]
    assert len(rows) == 102  # header plus one recovery error per point


def test_apply_overrides_paths():
    problem = {"params": {"omega": 1.0}}
    cli.apply_overrides(problem, ["params.omega=2.5", "params.tag=fast",
                                  "extra.deep.key=[1,2]"])
    assert problem["params"]["omega"] == 2.5
    assert problem["params"]["tag"] == "fast"  # unquoted strings stay raw
    assert problem["extra"]["deep"]["key"] == [1, 2]
    with pytest.raises(cli.ProblemError):
        cli.apply_overrides(problem, ["no-equals-sign"])
    with pytest.raises(cli.ProblemError):
        cli.apply_overrides(problem, ["params.omega.inner=1"])


def test_main_run_rip_over_enumeration_cap(tmp_path, capsys):
    problem = {
        "task": "rip",
        "operator": {"type": "matrix", "data": np.eye(40).tolist()},
        "params": {"S": 8},
    }
    path = _write_problem(tmp_path, problem)
    out = tmp_path / "report.json"
    code = _run_main(["run", path, "--out", str(out)])
    assert code == 1
    assert "TooLargeError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(path.name for path in PROBLEMS.glob("*.json")))
def test_sample_problems_all_pass(name):
    report, _ = cli.execute(json.loads((PROBLEMS / name).read_text()))
    assert report["assertions"]
    assert all(entry["passed"] for entry in report["assertions"])


def _rip_fixture_matrix():
    """First seed whose balanced 6x8 unit-column Gaussian keeps delta_4 below 1.

    Wide unit-column Gaussians at desk scale overshoot delta = 1 on the
    lambda_max side, so the optimal uniform rescaling is applied first;
    that qualifies whenever no 4-column subset is singular.
    """
    for seed in range(100):
        a = core.seeded_rng(seed).standard_normal((6, 8))
        a /= np.linalg.norm(a, axis=0)
        a *= spectral_balance(a, 4).scale
        if rip_delta(a, 4).delta < 1.0:
            return a, seed
    raise AssertionError("no qualifying restricted-isometry fixture in 100 seeds")


def test_sample_problems_match_files_on_disk():
    # problems/ is the only copy of the sample problems; the one derived
    # fixture, rip_balanced.json, must equal its derivation bit for bit.
    problem = json.loads((PROBLEMS / "rip_balanced.json").read_text())
    matrix, seed = _rip_fixture_matrix()
    on_disk = np.array(problem["operator"]["data"])
    assert on_disk.shape == matrix.shape == (6, 8)
    assert np.array_equal(on_disk.view(np.uint64), matrix.view(np.uint64))
    assert problem["signals"]["seed"] == problem["params"]["seed"] == seed


def test_selftest_runs_all_criteria(capsys, cached_criteria):
    code = _run_main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    for number in range(1, 9):
        assert f"criterion {number}" in out
    assert "selftest: 8/8 criteria passed" in out


def test_selftest_negative_control_fails(tmp_path, cached_criteria):
    out = tmp_path / "selftest.json"
    code = _run_main(["selftest", "--debug-corrupt-tolerance",
                      "--out", str(out)])
    assert code == 2
    combined = json.loads(out.read_text())
    assert combined["passed"] is False
    assert len(combined["criteria"]) == 8
    flipped = [check for entry in combined["criteria"]
               for check in entry["checks"]
               if check["kind"] == "atmost" and not check["passed"]]
    assert flipped  # shrunken bounds must actually fail somewhere


def test_selftest_filter(capsys):
    code = _run_main(["selftest", "--filter", "example3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "criterion 7" in out
    assert "criterion 3" not in out
    assert _run_main(["selftest", "--filter", "nosuch"]) == 1


def test_selftest_mwet_audits_on_worker_processes(tmp_path, monkeypatch, process_log,
                                                  no_child_left):
    # Criterion 2's 100 audits are the blocks of one core._map_blocks call,
    # run on LIPREC_THREADS worker processes (each process that runs the
    # call's worker() logs its pid). The report is the same for 1 and 2,
    # runtimes aside, and no child is left after either run.
    map_blocks = core._map_blocks

    def spy(worker, starts, count, shape):
        if len(starts) != 100:  # an audit's own evaluate call
            return map_blocks(worker, starts, count, shape)

        def logged(out):
            process_log.append("audits", os.getpid())
            return worker(out)

        return map_blocks(logged, starts, count, shape)

    monkeypatch.setattr(core, "_map_blocks", spy)
    payloads = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LIPREC_THREADS", threads)
        process_log.path.unlink(missing_ok=True)
        out = tmp_path / f"selftest-{threads}.json"
        assert _run_main(["selftest", "--filter", "mwet", "--out", str(out)]) == 0
        no_child_left()
        assert len(set(process_log.read("audits"))) == int(threads)
        payload = json.loads(out.read_text())
        for entry in payload["criteria"]:
            entry.pop("runtime_s")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_selftest_report_deterministic_modulo_runtime(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert _run_main(["selftest", "--filter", "example3",
                      "--out", str(first)]) == 0
    assert _run_main(["selftest", "--filter", "example3",
                      "--out", str(second)]) == 0
    payloads = []
    for path in (first, second):
        payload = json.loads(path.read_text())
        for entry in payload["criteria"]:
            entry.pop("runtime_s")
        payloads.append(payload)
    assert payloads[0] == payloads[1]
