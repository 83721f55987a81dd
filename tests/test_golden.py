"""Every sample problem's report matches its stored copy in tests/golden/,
and the selftest payload matches the benchmark's reference.

A golden file is the report of one ``problems/*.json`` run through
``cli.execute``, without the fields that vary between runs (``runtime_ms``,
``timestamp``, ``threads``), plus ``trace_sha256``: the sha256 of each
trace's float64 bytes. It is written as ``liprec run`` writes a report,
so a float matches only if its bits do. A change meant to keep every
output bit-identical must pass this test unchanged; one that changes a
report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says so.

``perfbench/workloads.py`` holds the selftest reference and its check; it
is loaded by path and not modified.
"""

import hashlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from liprec import acceptance, cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = ROOT / "tests" / "golden"
NAMES = sorted(path.name for path in PROBLEMS.glob("*.json"))
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def golden_text(name: str) -> str:
    """The golden file text for problems/<name>, computed now."""
    report, traces = cli.execute(json.loads((PROBLEMS / name).read_text()))
    for key in ("runtime_ms", "timestamp", "threads"):
        del report["metadata"][key]
    report["trace_sha256"] = {
        series: hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        .hexdigest() for series, values in traces.items()}
    return json.dumps(cli.to_jsonable(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def test_every_problem_has_a_golden_report():
    assert sorted(path.name for path in GOLDEN.glob("*.json")) == NAMES


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name, threads, monkeypatch):
    monkeypatch.setenv("LIPREC_THREADS", threads)
    assert golden_text(name) == (GOLDEN / name).read_text()


def test_selftest_payload_matches_the_benchmark_reference(criterion_result):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    entries = [cli._criterion_entry(criterion_result(runner))
               for _, runner in acceptance.ALL_CRITERIA]
    # As ``liprec selftest --out`` writes it, read back.
    report = {"task": "selftest", "passed": all(e["passed"] for e in entries),
              "criteria": entries}
    report = json.loads(json.dumps(cli.to_jsonable(report), allow_nan=False))
    assert workloads.check_selftest_report(report, workloads.load_selftest_reference()) == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in NAMES:
        (GOLDEN / name).write_text(golden_text(name))
