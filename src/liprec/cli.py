"""Batch experiment runner: problem JSON in, report JSON out.

A problem file names an operator, a signal sample (explicit list or
generator), a task, and task parameters. ``liprec run problem.json --out
report.json`` executes the task and writes a report with one entry per
assertion; the exit code is 0 when every assertion passed, 2 when some
failed (the report is still written), and 1, with one ``error:`` line and
no report, for malformed or inconsistent input: a problem file that cannot
be read, is not UTF-8 JSON or is not a JSON object, a bad field or
override, or an output path that cannot be written. ``liprec selftest``
runs the bundled acceptance suite (the eight fixed-seed criteria in
liprec.acceptance) and prints a pass/fail table.

The repository's problems/ directory holds one sample problem per task.
Those files are the only copy of the sample problems; the tests run each
of them and re-derive the balanced matrix of rip_balanced.json.

Tasks:
  certify    pairwise Lipschitz certification of the labeled sample
  mwet       fit the min-form extension, check interpolation and the
             global expansion bound empirically
  theorem1   grid-cover recovery with a full-dimension hypothesis
             (labeled observations box-normalized; the grid constant
             rescales by the normalization factor)
  theorem3   SVD-reduced recovery for a matrix operator, including the
             observation-consistency check on random signals
  rip        exact restricted isometry constants plus the sparse-pair
             Lipschitz probe at the derived constant, delta_S and
             delta_2S both read from one subset-spectra pass at 2S
  example3   built-in one-dimensional ramp fixture: a certified interval,
             a colliding pair, and a union set certified at 2 but not 1.99

Errors come in one order: labeling ("labeling the sample failed: ..."),
including duplicates even where distances overflow, then parameters, then
the sample's own faults (overflow; mwet's collisions). theorem1 and
theorem3 keep one exception: they read omega and epsilon (theorem3 also
its operator and num_pairs) before labeling, and check their values after
the sample's pass.

Reports serialize floats through Python's repr (shortest round-trip for
64-bit values), so parse-and-reserialize is lossless; non-finite values
become the strings "Infinity"/"-Infinity"/"NaN" since strict JSON has no
spelling for them. Output is written atomically (temp file, then rename).
Same problem and seed give identical reports except for the wall-clock
metadata fields (runtime_ms, timestamp).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import math
import os
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__, acceptance, rip
from .core import (
    TOL_CERT,
    TOL_EVAL,
    DomainError,
    LabeledSet,
    LabelingError,
    LiprecError,
    NotApplicableError,
    NotInjectiveError,
    NotLipschitzError,
    ParameterError,
    seeded_rng,
)
from .core import thread_budget as core_thread_budget
from .covering import cover_pipeline, unit_box
from .lipschitz import _check_omega, _scan_sample, _tight
from .mwet import _fit, _row_norms
from .operators import MatrixOperator, Operator, PiecewiseExampleOperator
from .svdrec import fit_reduced

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_ASSERTION_FAILURE = 2

# Consistency tolerance for recovered observations, relative to 1 + |y|.
CONSISTENCY_RTOL = 1e-8


class ProblemError(ValueError):
    """Malformed or inconsistent problem input; maps to exit code 1."""


def thread_budget() -> int:
    """Worker-thread cap from LIPREC_THREADS, hardware count by default.

    ``core.thread_budget`` is the one reader: the same value caps the BLAS
    pool (set as an environment default at import time, see the package
    __init__) and the threads of MWET evaluation (at most four), and
    nothing else; it is recorded in report metadata. An invalid value is
    a ProblemError.
    """
    try:
        return core_thread_budget()
    except ParameterError as exc:
        raise ProblemError(str(exc)) from None


def to_jsonable(obj: Any) -> Any:
    """Recursively convert reports to strict-JSON-safe structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        if math.isnan(obj):
            return "NaN"
        return "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def write_json(payload: Dict[str, Any], path: str) -> None:
    """Serialize atomically: write a sibling temp file, then rename over."""
    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".liprec-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def assertion(name: str, passed: bool, observed: Optional[float] = None,
              bound: Optional[float] = None) -> Dict[str, Any]:
    return {
        "name": name,
        "passed": bool(passed),
        "observed": None if observed is None else float(observed),
        "bound": None if bound is None else float(bound),
    }


# --------------------------------------------------------------------------
# Problem parsing


def _require(mapping: Dict[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ProblemError(f"missing field '{where}.{key}'")
    return mapping[key]


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemError(f"field '{where}' must be a number, got {value!r}")
    return float(value)


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemError(f"field '{where}' must be an integer, got {value!r}")
    return value


def _at_least(value: Any, where: str, low: int) -> int:
    number = _integer(value, where)
    if number < low:
        raise ProblemError(f"{where} must be >= {low}, got {number}")
    return number


def _draw_count(value: Any, where: str, width: int) -> int:
    """A count of at least 1 whose draws, count x width float64, numpy can allocate.

    numpy refuses an array of more than its largest index in bytes with a
    ValueError; a count that fits but outruns memory raises MemoryError,
    which ``main`` reports.
    """
    count = _at_least(value, where, 1)
    if count * width * 8 > np.iinfo(np.intp).max:
        raise ProblemError(f"{where} = {count} is too large: {count} x {width} float64 draws "
                           "exceed the largest array numpy can allocate")
    return count


def _float_array(value: Any, where: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ProblemError(f"field '{where}' must be a numeric array") from None


def build_operator(spec: Any) -> Operator:
    if not isinstance(spec, dict):
        raise ProblemError("field 'operator' must be an object")
    kind = _require(spec, "type", "operator")
    if kind == "matrix":
        data = _float_array(_require(spec, "data", "operator"), "operator.data")
        try:
            op = MatrixOperator(data)
        except LiprecError as exc:
            raise ProblemError(f"operator.data: {exc}")
        rows = spec.get("rows")
        cols = spec.get("cols")
        if rows is not None and _integer(rows, "operator.rows") != op.obs_dim:
            raise ProblemError(
                f"operator.rows = {rows} disagrees with data ({op.obs_dim} rows)")
        if cols is not None and _integer(cols, "operator.cols") != op.signal_dim:
            raise ProblemError(
                f"operator.cols = {cols} disagrees with data ({op.signal_dim} columns)")
        return op
    if kind == "piecewise_example":
        return PiecewiseExampleOperator()
    raise ProblemError(f"unknown operator.type {kind!r} "
                       "(expected 'matrix' or 'piecewise_example')")


def build_signals(spec: Any, operator: Operator, default_seed: int) -> np.ndarray:
    if not isinstance(spec, dict):
        raise ProblemError("field 'signals' must be an object")
    kind = _require(spec, "type", "signals")
    if kind == "list":
        data = _float_array(_require(spec, "data", "signals"), "signals.data")
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2 or data.shape[1] != operator.signal_dim:
            raise ProblemError(
                f"signals.data must be rows of length {operator.signal_dim}, "
                f"got shape {data.shape}")
        return data
    if kind == "affine_segment":
        start = _float_array(_require(spec, "start", "signals"), "signals.start").ravel()
        end = _float_array(_require(spec, "end", "signals"), "signals.end").ravel()
        count = _draw_count(_require(spec, "count", "signals"), "signals.count",
                            operator.signal_dim)
        if start.shape != (operator.signal_dim,) or end.shape != (operator.signal_dim,):
            raise ProblemError(
                f"signals.start/end must have length {operator.signal_dim}")
        for where, point in (("signals.start", start), ("signals.end", end)):
            if not np.all(np.isfinite(point)):
                raise ProblemError(f"field '{where}' must be finite, got {point.tolist()}")
        steps = np.linspace(0.0, 1.0, count)[:, None]
        return start[None, :] + steps * (end - start)[None, :]
    if kind == "sparse_random":
        count = _draw_count(_require(spec, "count", "signals"), "signals.count",
                            operator.signal_dim)
        sparsity = _integer(_require(spec, "S", "signals"), "signals.S")
        seed = _at_least(spec.get("seed", default_seed), "signals.seed", 0)
        n = operator.signal_dim
        if not 1 <= sparsity <= n:
            raise ProblemError(f"signals.S must be in [1, {n}], got {sparsity}")
        return rip.sparse_signals(n, sparsity, count, seeded_rng(seed))
    raise ProblemError(f"unknown signals.type {kind!r} (expected 'list', "
                       "'affine_segment', or 'sparse_random')")


def _labeled(operator: Operator, signals: np.ndarray) -> LabeledSet:
    """Label the sample; each task searches it for duplicates in its pass."""
    try:
        return LabeledSet(signals, operator.apply(signals))
    except LiprecError as exc:
        raise LabelingError(str(exc)) from None


# --------------------------------------------------------------------------
# Task runners. Each takes (operator, signals, params, seed), with operator
# None for example3 and signals None for example3 and for rip without a
# signals block, and returns (assertions, results, traces); traces map a
# name to a 1-D array for the optional CSV output. The two recovery tasks
# report through ``_recovery``.

TaskOutput = Tuple[List[Dict[str, Any]], Dict[str, Any], Dict[str, np.ndarray]]


def run_certify(operator: Operator, signals: np.ndarray,
                params: Dict[str, Any], seed: int) -> TaskOutput:
    sample = _labeled(operator, signals)
    omega = params.get("omega")
    bad_omega = None
    if omega is not None:
        try:
            omega = _check_omega(_number(omega, "params.omega"))
        except (ProblemError, ParameterError) as exc:
            omega, bad_omega = None, exc
    # One pass over the pairs finds duplicate signals, the first observation
    # collision and the verdict at omega. Without a collision its maximum
    # ratio is the tight constant. A duplicate is a labeling error, so it is
    # reported ahead of a bad omega, and a bad omega ahead of overflow.
    try:
        scan = _scan_sample(sample, omega, collisions=True, duplicates=True)
    except DomainError:
        if bad_omega is None:
            raise
    if bad_omega is not None:
        raise bad_omega
    results: Dict[str, Any] = {
        "sample_size": len(sample),
        "tight_omega": None if scan.collision is not None else scan.max_ratio,
        "collision": scan.collision,
        "pairs_examined": scan.pairs_examined,
    }
    # Over fewer than two signals no pair was checked: that certifies nothing.
    if omega is None:
        return ([assertion("observations_injective",
                           scan.collision is None and len(sample) > 1)],
                results, {})
    cert = scan.certificate(omega)
    results["verdict"] = cert.verdict
    results["max_ratio"] = cert.max_ratio
    results["witness"] = cert.witness
    return ([assertion("certified_at_omega", cert.passed and len(sample) > 1,
                       cert.max_ratio, omega)],
            results, {})


def run_mwet(operator: Operator, signals: np.ndarray,
             params: Dict[str, Any], seed: int) -> TaskOutput:
    sample = _labeled(operator, signals)
    # One pass: a duplicate fails the labeling, ahead of a bad parameter, and
    # the rest the fit, after one.
    unfit = None
    try:
        tight = _tight(sample, duplicates=True).omega
    except (DomainError, NotInjectiveError) as exc:
        unfit = exc
    omega1 = params.get("omega")
    if omega1 is not None:
        omega1 = _number(omega1, "params.omega")
    # the audit draws both ends of each pair at once
    num_pairs = _draw_count(params.get("num_pairs", 1000), "params.num_pairs",
                            2 * operator.obs_dim)
    try:
        if unfit is not None:
            raise unfit
        hypothesis = _fit(sample, omega1, tight)
    except LiprecError as exc:
        raise ProblemError(f"fit failed: {exc}")
    residuals = hypothesis.training_residuals()
    audit = hypothesis.lipschitz_audit(num_pairs, seed)
    results = {
        "sample_size": len(sample),
        "omega1": hypothesis.omega1,
        "omega_global": hypothesis.omega_global,
        "max_training_residual": float(residuals.max()),
        "audit_ratio": audit,
        "audit_pairs": num_pairs,
    }
    assertions = [
        assertion("training_interpolation", residuals.max() <= TOL_EVAL,
                  float(residuals.max()), TOL_EVAL),
        # A one-signal sample has a zero-size audit box, so the audit drew no
        # pair and its 0.0 measures nothing. Two or more signals have distinct
        # observations (fit rejects collisions), so the box has a positive size.
        # A non-finite ratio fails even against an infinite bound.
        assertion("audit_within_global_bound",
                  audit <= hypothesis.omega_global + TOL_EVAL and len(sample) > 1
                  and math.isfinite(audit),
                  audit, hypothesis.omega_global + TOL_EVAL),
    ]
    return assertions, results, {"training_residual": residuals}


def _recovery(pipeline: Callable[[], Any], results: Dict[str, Any],
              error_bound: Callable[[Any], float]) -> Tuple[Any, List[Dict[str, Any]]]:
    """Run a recovery pipeline and assert on its report.

    Returns the outcome, None when the sample did not certify, and the
    sample_certified, training_interpolation and recovery_within_epsilon
    assertions (only the first on that early stop). Records max_ratio, the
    pairs the pipeline's one scan examined, the witness on failure and the
    report's fields. error_bound(report) is the task's bound on the
    recovery error. A sample of fewer than two signals has no pair to
    check, so its vacuous certificate does not pass.
    """
    try:
        outcome = pipeline()
        cert = outcome.certificate
    except NotLipschitzError as exc:
        outcome, cert = None, exc.certificate
    results["max_ratio"] = cert.max_ratio
    results["pairs_examined"] = cert._pairs_examined
    if not cert.passed:
        results["witness"] = cert.witness
    assertions = [assertion("sample_certified", cert.passed and results["sample_size"] > 1,
                            cert.max_ratio, cert.omega)]
    if outcome is None:
        return None, assertions
    report = outcome.report
    results.update(dataclasses.asdict(report))
    bound = error_bound(report)
    assertions += [
        assertion("training_interpolation", report.max_training_residual <= TOL_EVAL,
                  report.max_training_residual, TOL_EVAL),
        assertion("recovery_within_epsilon", report.max_recovery_error <= bound,
                  report.max_recovery_error, bound),
    ]
    return outcome, assertions


def run_theorem1(operator: Operator, signals: np.ndarray,
                 params: Dict[str, Any], seed: int) -> TaskOutput:
    omega = _number(_require(params, "omega", "params"), "params.omega")
    epsilon = _number(_require(params, "epsilon", "params"), "params.epsilon")
    sample = _labeled(operator, signals)
    lo, scale = unit_box(sample.observations)
    if not math.isfinite(scale):  # the distances overflow too: raise, a duplicate first
        _scan_sample(sample, None, duplicates=True)
    boxed = LabeledSet(sample.signals, (sample.observations - lo) / scale)
    omega_n = omega * scale
    results: Dict[str, Any] = {
        "sample_size": len(sample),
        "scale": scale,
        "omega_normalized": omega_n,
    }
    outcome, assertions = _recovery(lambda: cover_pipeline(boxed, omega_n, epsilon),
                                    results, lambda report: epsilon + TOL_CERT)
    if outcome is None:
        return assertions, results, {}
    # t^M may pass the float64 range; the report then shows an infinite bound.
    cells = outcome.report.cells_bound
    assertions.append(assertion(
        "cover_within_cell_bound", outcome.report.cells_occupied <= cells,
        outcome.report.cells_occupied, cells if cells <= sys.float_info.max else math.inf))
    return assertions, results, {"recovery_error": outcome.recovery_errors}


def run_theorem3(operator: Operator, signals: np.ndarray,
                 params: Dict[str, Any], seed: int) -> TaskOutput:
    omega = _number(_require(params, "omega", "params"), "params.omega")
    epsilon = _number(_require(params, "epsilon", "params"), "params.epsilon")
    if not isinstance(operator, MatrixOperator):
        raise ProblemError("task 'theorem3' needs a matrix operator")
    num_draws = _draw_count(params.get("num_pairs", 1000), "params.num_pairs",
                            max(operator.signal_dim, operator.obs_dim))
    sample = _labeled(operator, signals)
    results: Dict[str, Any] = {"sample_size": len(sample)}

    def error_bound(report) -> float:
        if report.exact_inversion:
            # Square full-rank operator: Psi inverts exactly, no trained part.
            return CONSISTENCY_RTOL * (1.0 + float(_row_norms(sample.signals).max()))
        return epsilon + TOL_CERT

    outcome, assertions = _recovery(lambda: fit_reduced(sample, operator, omega, epsilon),
                                    results, error_bound)
    if outcome is None:
        return assertions, results, {}
    report = outcome.report
    rng = seeded_rng(seed)
    probes = rng.standard_normal((num_draws, operator.signal_dim))
    try:
        observations = operator.apply(probes)
    except DomainError:
        raise ProblemError("the observations of the consistency probes overflow float64") from None
    residuals = outcome.recovery.consistency_residuals(probes)
    rel = residuals / (1.0 + _row_norms(observations))
    assertions.append(assertion("observation_consistency",
                                float(rel.max()) <= CONSISTENCY_RTOL,
                                float(rel.max()), CONSISTENCY_RTOL))
    if not report.exact_inversion:
        assertions.append(assertion(
            "reduced_grid_no_coarser", report.t_reduced <= report.t_full,
            float(report.t_reduced), float(report.t_full)))
    results["consistency_draws"] = num_draws
    return assertions, results, {"recovery_error": outcome.recovery_errors}


def run_rip(operator: Operator, signals: Optional[np.ndarray],
            params: Dict[str, Any], seed: int) -> TaskOutput:
    """delta_S and the sparse probe at delta_2S, both from one pass at 2S."""
    if not isinstance(operator, MatrixOperator):
        raise ProblemError("task 'rip' needs a matrix operator")
    sparsity = _integer(_require(params, "S", "params"), "params.S")
    num_pairs = _draw_count(params.get("num_pairs", 1000), "params.num_pairs",
                            operator.signal_dim)
    a = operator.matrix
    rip._check_enumeration(a, sparsity)  # a bad or over-cap S is reported first
    records = rip._probe_spectra(a, sparsity, num_pairs)
    report = rip._rip_report(records, a.shape[1], sparsity)
    results = dict(S=sparsity, delta=report.delta, subsets_examined=report.subsets_examined,
                   extremal_subset=report.extremal_subset)
    try:
        check = rip._sparse_probe(a, records, sparsity, num_pairs, seed)
    except NotApplicableError:
        # delta_2S >= 1: a data property discovered by computation, reported
        # as a failed assertion rather than rejected as bad input.
        results["derived_omega"] = None
        return [assertion("derived_constant_applicable", False)], results, {}
    results.update(delta_2s=check.delta_2s, derived_omega=check.derived_omega,
                   max_ratio=check.max_ratio, num_pairs=num_pairs)
    assertions = [
        assertion("derived_constant_applicable", True, check.delta_2s, 1.0),
        assertion("sparse_pairs_within_derived_constant", check.passed,
                  check.max_ratio, check.derived_omega),
        assertion("delta_monotone", report.delta <= check.delta_2s,
                  report.delta, check.delta_2s),
    ]
    return assertions, results, {}


def run_example3(operator: None, signals: None,
                 params: Dict[str, Any], seed: int) -> TaskOutput:
    """Built-in ramp fixture: the three certification facts in one report."""
    checks, results = acceptance.ramp_fixture()
    return ([assertion(c.name, c.passed, c.observed, c.bound) for c in checks],
            results, {})


TASKS = {"certify": run_certify, "mwet": run_mwet, "theorem1": run_theorem1,
         "theorem3": run_theorem3, "rip": run_rip, "example3": run_example3}


# --------------------------------------------------------------------------
# Dispatch and I/O


def execute(problem: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Run one problem dict; returns (report, traces)."""
    if not isinstance(problem, dict):
        raise ProblemError("problem file must contain a JSON object")
    task = _require(problem, "task", "problem")
    if not isinstance(task, str) or task not in TASKS:
        raise ProblemError(f"unknown task {task!r} (expected one of {', '.join(TASKS)})")
    params = problem.get("params", {})
    if not isinstance(params, dict):
        raise ProblemError("field 'params' must be an object")
    seed = _at_least(params.get("seed", 0), "params.seed", 0)
    threads = thread_budget()  # an invalid LIPREC_THREADS fails before any work
    start = time.perf_counter()

    operator = signals = None
    if task != "example3":
        operator = build_operator(_require(problem, "operator", "problem"))
        # rip draws its own probes, but a malformed block is still bad input.
        if task != "rip" or "signals" in problem:
            signals = build_signals(_require(problem, "signals", "problem"), operator, seed)
    try:
        assertions, results, traces = TASKS[task](operator, signals, params, seed)
    except LabelingError as exc:  # from _labeled, or a duplicate found by the task's pass
        raise ProblemError(f"labeling the sample failed: {exc}") from None

    runtime_ms = (time.perf_counter() - start) * 1000.0
    report = {
        "task": task,
        "assertions": assertions,
        "results": results,
        "metadata": {
            "seed": seed,
            "runtime_ms": runtime_ms,
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
                         .isoformat(timespec="seconds"),
            "version": __version__,
            "threads": threads,
            # Continuous signal sets are represented by their finite samples;
            # every quantified claim in the report ranges over the sample.
            "sample_surrogate": task in ("theorem1", "theorem3"),
        },
    }
    return report, traces


def write_trace(traces: Dict[str, np.ndarray], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["series", "index", "value"])
        for name in sorted(traces):
            for i, value in enumerate(np.asarray(traces[name]).ravel()):
                writer.writerow([name, i, repr(float(value))])


def load_problem(path: str) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            problem = json.load(handle)
    except OSError as exc:
        raise ProblemError(f"cannot read problem file: {exc}")
    except UnicodeDecodeError as exc:
        raise ProblemError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ProblemError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    # Checked here as well as in execute, so that --set never meets a non-object.
    if not isinstance(problem, dict):
        raise ProblemError("problem file must contain a JSON object")
    return problem


def apply_overrides(problem: Dict[str, Any], overrides: List[str]) -> None:
    """Apply --set key=value pairs; keys are dot paths, values JSON or raw."""
    for item in overrides:
        if "=" not in item:
            raise ProblemError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = problem
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                raise ProblemError(f"--set cannot descend into '{part}' in {key!r}")
            node = nxt
        node[parts[-1]] = value


def _report_passed(report: Dict[str, Any]) -> bool:
    return all(entry["passed"] for entry in report["assertions"])


def _write(writer, payload, path: str) -> None:
    """Call writer(payload, path); an OS error, such as a missing directory,
    is reported as bad input."""
    try:
        writer(payload, path)
    except OSError as exc:
        raise ProblemError(f"cannot write {path}: {exc.strerror or exc}") from None


def run_command(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    apply_overrides(problem, args.set or [])
    report, traces = execute(problem)
    # The trace goes first: a run that exits 1 leaves no report behind.
    if args.trace:
        _write(write_trace, traces, args.trace)
    _write(write_json, report, args.out)
    for entry in report["assertions"]:
        status = "pass" if entry["passed"] else "FAIL"
        print(f"{report['task']:<10} {entry['name']:<40} {status}")
    return EXIT_OK if _report_passed(report) else EXIT_ASSERTION_FAILURE


# --------------------------------------------------------------------------
# Selftest: the bundled acceptance suite as a command.


def _criterion_entry(result: acceptance.CriterionResult) -> Dict[str, Any]:
    """Serialize one criterion. runtime_s is wall-clock metadata: it is
    the only field that differs between repeated runs (budgets carry wide
    margins, so within_budget stays put)."""
    return dict(dataclasses.asdict(result), passed=result.passed,
                within_budget=result.within_budget)


def _corrupt(entry: Dict[str, Any], factor: float) -> None:
    """Shrink every upper bound; a healthy suite must then fail overall."""
    for check in entry["checks"]:
        if check["kind"] == "atmost":
            check["bound"] = check["bound"] * factor
            check["passed"] = check["observed"] <= check["bound"]
    entry["passed"] = (all(c["passed"] for c in entry["checks"])
                       and entry["within_budget"])


def selftest_command(args: argparse.Namespace) -> int:
    thread_budget()  # an invalid LIPREC_THREADS fails before any criterion runs
    selected = [runner for task, runner in acceptance.ALL_CRITERIA
                if args.filter is None or task == args.filter]
    if not selected:
        raise ProblemError(f"--filter {args.filter!r} matches no criterion task")
    entries = []
    for runner in selected:
        entry = _criterion_entry(runner())
        if args.debug_corrupt_tolerance:
            _corrupt(entry, 1e-6)
        entries.append(entry)
        status = "pass" if entry["passed"] else "FAIL"
        print(f"criterion {entry['number']}  {entry['task']:<9} "
              f"{entry['label']:<28} {status}  "
              f"[{entry['runtime_s']:5.2f}s / {entry['budget_s']:.0f}s]  "
              f"{entry['summary']}")
    all_passed = all(e["passed"] for e in entries)
    marks = sum(1 for e in entries if e["passed"])
    print(f"selftest: {marks}/{len(entries)} criteria passed")
    if args.out:
        _write(write_json, {"task": "selftest", "passed": all_passed,
                            "criteria": entries}, args.out)
    return EXIT_OK if all_passed else EXIT_ASSERTION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liprec",
        description="Lipschitz-recovery experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    runner = sub.add_parser("run", help="execute one problem file")
    runner.add_argument("problem", help="path to the problem JSON")
    runner.add_argument("--out", required=True, help="path for the report JSON")
    runner.add_argument("--trace", help="optional CSV with per-item series")
    runner.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a problem field (dot-path key, JSON value)")
    runner.set_defaults(handler=run_command)

    selftest = sub.add_parser("selftest", help="run the bundled acceptance suite")
    selftest.add_argument("--filter", help="only run criteria for this task")
    selftest.add_argument("--out", help="optional combined report JSON")
    selftest.add_argument("--debug-corrupt-tolerance", action="store_true",
                          help="negative control: shrink bounds so checks fail")
    selftest.set_defaults(handler=selftest_command)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except LiprecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
