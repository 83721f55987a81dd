"""Smoke tests of the benchmark itself: the gate catches tampered payloads
and the tracer reaches every binding.

    python3 -m pytest -q perfbench/test_gate.py

Problems here are small versions of the workloads, so the tests run in
seconds; the gate and the reference code are the ones the benchmark uses.
"""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from liprec import cli  # noqa: E402

SMALL = {
    "theorem3_sheet": lambda seed: workloads.theorem3_sheet(seed, n=300, num_pairs=200),
    "mwet_dense": lambda seed: workloads.mwet_dense(seed, n=120, num_pairs=500),
    "rip_exhaust": lambda seed: workloads.rip_exhaust(seed, shape=(6, 10), s=2, num_pairs=500),
}


def _run(problem, tmp_path):
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    path.write_text(json.dumps(problem))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(path), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module", params=sorted(SMALL))
def case(request, tmp_path_factory):
    problem = SMALL[request.param](3)
    code, report = _run(problem, tmp_path_factory.mktemp(request.param))
    return request.param, code, report, workloads.reference(request.param, problem)


def test_untouched_report_passes(case):
    workload, code, report, ref = case
    assert code == 0
    assert workloads.check_report(workload, report, ref) == []


TAMPER = {
    "theorem3_sheet": ("max_ratio", "cells_occupied", "t_reduced"),
    "mwet_dense": ("omega1", "omega_global"),
    "rip_exhaust": ("delta", "delta_2s", "extremal_subset", "subsets_examined"),
}


def _nudged(value):
    if isinstance(value, list):  # a witness subset: move its last column
        return value[:-1] + [value[-1] + 1]
    if isinstance(value, int):
        return value + 1
    return math.nextafter(value, math.inf)


def test_tampered_constant_or_witness_fails(case):
    workload, _, report, ref = case
    for key in TAMPER[workload]:
        bad = copy.deepcopy(report)
        bad["results"][key] = _nudged(bad["results"][key])
        problems = workloads.check_report(workload, bad, ref)
        assert any(f"results.{key}" in p for p in problems), key


def test_failed_assertion_or_loosened_bound_fails(case):
    workload, _, report, ref = case
    bad = copy.deepcopy(report)
    bad["assertions"][0]["passed"] = False
    assert workloads.check_report(workload, bad, ref)
    bad = copy.deepcopy(report)
    bad["assertions"][-1]["bound"] *= 2.0
    assert workloads.check_report(workload, bad, ref)
    bad = copy.deepcopy(report)
    del bad["assertions"][-1]
    assert workloads.check_report(workload, bad, ref)


def test_nonzero_exit_or_malformed_report_counts_as_failure(tmp_path):
    report = tmp_path / "report.json"
    report.write_text("{}")
    record = {"exit_code": 2, "report": str(report)}
    assert run.gate("theorem3_sheet", record, {}) == ["liprec exited with 2"]
    assert run.gate("theorem3_sheet", {"error": "worker exited with 1"}, {})
    report.write_text(json.dumps({"assertions": [{}]}))
    record = {"exit_code": 0, "report": str(report)}
    ref = {"bounds": {}, "results": {}}
    assert run.gate("theorem3_sheet", record, ref)[0].startswith("malformed report")


def _selftest_report(ref):
    """A report shaped like `liprec selftest --out`, built from the reference."""
    report = copy.deepcopy(ref)
    for entry in report["criteria"]:
        entry["runtime_s"], entry["summary"] = 0.5, "ok"
        for check in entry["checks"]:
            check.setdefault("observed", 0.0)
    return report


def test_selftest_gate():
    ref = workloads.load_selftest_reference()
    report = _selftest_report(ref)
    assert workloads.check_selftest_report(report, ref) == []

    chain = copy.deepcopy(report)
    six = next(e for e in chain["criteria"] if e["number"] == 6)
    six["details"]["delta_chain"][-1] = _nudged(six["details"]["delta_chain"][-1])
    assert workloads.check_selftest_report(chain, ref)

    subsets = copy.deepcopy(report)
    six = next(e for e in subsets["criteria"] if e["number"] == 6)
    fact = next(c for c in six["checks"] if c["name"] == "subsets_exhausted")
    fact["observed"] += 1.0
    assert workloads.check_selftest_report(subsets, ref)

    over = copy.deepcopy(report)
    over["criteria"][1]["checks"][0]["observed"] = 1.0
    assert workloads.check_selftest_report(over, ref)


TRACED = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import spans
from liprec import acceptance, cli, core, covering, lipschitz, mwet, svdrec
tracer = spans.Tracer()
spans.install(tracer)
wrapped = lambda f: hasattr(f, "__wrapped_label__")
assert all(wrapped(m.verify_lipschitz) for m in (lipschitz, covering, svdrec, cli, acceptance))
assert all(wrapped(m.fit) for m in (mwet, covering, svdrec, cli, acceptance))
assert all(wrapped(f) for _, f in acceptance.ALL_CRITERIA)
assert wrapped(mwet.MwetHypothesis.evaluate)
assert mwet.MwetHypothesis.__call__ is mwet.MwetHypothesis.evaluate
assert isinstance(core.LabeledSet.__dict__["from_arrays"], classmethod)
code = cli.main(["run", {problem!r}, "--out", {report!r}])
print(json.dumps(tracer.summary()))
sys.exit(code)
"""


def test_tracer_reaches_every_binding(tmp_path):
    problem = SMALL["theorem3_sheet"](5)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    script = TRACED.format(src=SRC, here=HERE, problem=str(path),
                           report=str(tmp_path / "report.json"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    n = len(problem["signals"]["data"])
    assert summary["lipschitz.verify_lipschitz.calls"] == 2  # cli, then fit_reduced
    assert summary["core.dup_pairs"] == 2 * n * (n - 1) // 2  # labeling, validation
    assert summary["covering.points"] == n
    assert summary["cli.execute.calls"] == 1
    assert summary["svdrec.SvdRecoveryMap.recover.calls"] >= 2
