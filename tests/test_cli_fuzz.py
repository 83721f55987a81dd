"""The command line under mutated problems and random --set strings.

Each problem in problems/ is cut to a small sample (count <= 20, num_pairs
<= 50), then mutated: fields dropped or replaced by wrong JSON types, 0,
negative numbers, NaN, inf, or numbers whose squares (1e155) or whose
products with almost anything (1e308) overflow float64. Whatever the
input, ``cli.main`` returns 0, 1 or 2 and raises nothing, and no numpy
RuntimeWarning escapes it. Exit 1 prints one ``error:`` diagnostic and
writes no report; exit 0 means every assertion in the report passed; and
on a one-signal sample no certification, injectivity or audit assertion
passes, since no pair was examined.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from liprec import cli

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"

# Assertions that examine pairs of signals: over one signal they checked nothing.
PAIR_CHECKS = {"certified_at_omega", "sample_certified", "observations_injective",
               "audit_within_global_bound"}


def _small(problem):
    signals = problem.get("signals", {})
    if "count" in signals:
        signals["count"] = min(signals["count"], 20)
    params = problem.get("params", {})
    if "num_pairs" in params:
        params["num_pairs"] = min(params["num_pairs"], 50)
    return problem


BASES = {path.name: _small(json.loads(path.read_text()))
         for path in sorted(PROBLEMS.glob("*.json"))}

# A vacuous one-signal certificate lets theorem3 reach its consistency
# probes, whose observation norms overflow when squared: they used to read
# NaN, with RuntimeWarnings.
HUGE_PROBES = copy.deepcopy(BASES["theorem3_square.json"])
HUGE_PROBES["operator"]["data"][0][0] = 1e155
HUGE_PROBES["signals"]["count"] = 1

# theorem3 on the balanced matrix times 1e200: the one signal's trained null
# component is huge, A R(A x) overflows float64, and the product used to
# let out a RuntimeWarning before observation_consistency failed.
HUGE_RECOVERY = dict(copy.deepcopy(BASES["rip_balanced.json"]), task="theorem3",
                     params={"omega": 1, "epsilon": 0.5, "num_pairs": 50})
HUGE_RECOVERY["operator"]["data"] = [[value * 1e200 for value in row]
                                     for row in HUGE_RECOVERY["operator"]["data"]]

# Deep copies, so that no two mutations share (and grow) one list or dict.
VALUES = st.sampled_from([0, 1, -1, -0.5, math.nan, math.inf, -math.inf, 1e155, 1e308,
                          None, True, "x", [], {}, [0.0], *cli.TASKS]).map(copy.deepcopy)


def _paths(node, prefix=()):
    """Paths to every dict entry and the first two items of every list."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node[:2]) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


# Override keys: dot paths to the dict entries of any sample problem.
KEYS = sorted({".".join(path) for problem in BASES.values() for path in _paths(problem)
               if all(isinstance(part, str) for part in path)})


@st.composite
def problems(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(VALUES)  # a root that is not an object
    problem = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    signals = problem.get("signals", {})
    if "count" in signals:  # one or two signals leave one pair or none
        signals["count"] = draw(st.sampled_from([1, 2, signals["count"]]))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(problem))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = problem
        for part in path[:-1]:
            parent = parent[part]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return problem


# Known keys take only values from VALUES, so no override can ask for a
# large sample; free text goes to free keys.
OVERRIDES = st.lists(
    st.builds("{}={}".format, st.sampled_from(KEYS), VALUES.map(json.dumps))
    | st.builds("{}={}".format, st.text(max_size=6), st.text(max_size=6)),
    max_size=2)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems(), sets=OVERRIDES,
       missing=st.sampled_from([None, None, None, None, "out", "trace"]))
@example(problem=[1, 2], sets=["a=1"], missing=None)
@example(problem=b'{"task": "certify\xe9"}', sets=[], missing=None)
@example(problem=BASES["example3.json"], sets=[], missing="out")
@example(problem=BASES["certify_segment.json"], sets=[], missing="trace")
@example(problem=HUGE_PROBES, sets=[], missing=None)
@example(problem=HUGE_RECOVERY, sets=[], missing=None)
# The exact-inversion bound reads the norm of a 1e155 signal.
@example(problem=BASES["theorem3_square.json"], sets=["signals.start=[1e155, 0]",
                                                      "signals.count=1"], missing=None)
def test_cli_survives_mutated_problems(problem, sets, missing):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        path = tmp / "problem.json"
        path.write_bytes(problem if isinstance(problem, bytes) else json.dumps(problem).encode())
        out = tmp / ("missing" if missing == "out" else "") / "report.json"
        trace = tmp / ("missing" if missing == "trace" else "") / "trace.csv"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", str(path), "--out", str(out), "--trace", str(trace),
                             *[f"--set={item}" for item in sets]])
        # pytest captures warnings, so the stderr check below never sees one.
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR, cli.EXIT_ASSERTION_FAILURE)
        if code == cli.EXIT_INPUT_ERROR or missing:
            assert code == cli.EXIT_INPUT_ERROR
            assert stderr.getvalue().startswith("error: ")
            assert stderr.getvalue().count("\n") == 1
            assert not out.exists()
            return
        report = json.loads(out.read_text())
        passed = {entry["name"]: entry["passed"] for entry in report["assertions"]}
        assert passed
        assert (code == cli.EXIT_OK) == all(passed.values())
        if report["results"].get("sample_size") == 1:
            assert not any(passed[name] for name in PAIR_CHECKS & set(passed))
