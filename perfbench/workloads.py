"""Seeded workload inputs, plain reference results and the correctness gate.

Each ``run`` workload is a problem dict built from ``--seed`` alone, with an
analytic guarantee that makes every seed give an all-pass report:

* ``theorem3_sheet``: signals lie on a 2-D affine sheet with orthonormal
  basis Q, so every pair ratio is at most 1/sigma_min(A Q); omega is that
  bound times 1.0001, and epsilon is solved for so the reduced grid side
  is exactly ``SHEET_T`` whatever the draw.
* ``mwet_dense``: Gaussian signals under a Gaussian square operator; fit at
  the set's own tight constant, which always certifies.
* ``rip_exhaust``: a Gaussian matrix divided by its spectral norm has every
  subset Gram eigenvalue at most 1, so delta_2S = 1 - min lambda_min < 1
  unless some 2S columns are exactly dependent (probability zero).

The reference for a seed is computed here, independently of the package,
by the plain row-by-row pair scan and the plain subset enumeration. The
gate compares a report against it: certified constants, witnesses, counts
and grid sizes must match exactly; residuals and errors are held to the
bounds of their assertions, which are pinned too. ``selftest`` has fixed
inputs, so its reference is the committed ``selftest_reference.json``,
which is ``selftest_payload`` applied to the report of the package as it
was when this benchmark was added.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from typing import Any, Dict, List, Tuple

import numpy as np

WORKLOADS = ("theorem3_sheet", "mwet_dense", "rip_exhaust", "selftest")

# Tolerances the package's assertions are pinned to (liprec.core, liprec.cli).
TOL_EVAL = 1e-9
TOL_CERT = 1e-9
CONSISTENCY_RTOL = 1e-8

SHEET_N = 4000
SHEET_T = 40
SHEET_PAIRS = 2000
# A Q for the sheet workload: singular values 1.29 and 0.13, a long thin
# patch that occupies about 390 of the 40^3 reduced grid cells.
SHEET_IMAGE = np.array([[1.0, 0.05], [0.7, -0.1], [-0.4, 0.08]])
DENSE_N = 1500
DENSE_PAIRS = 10 ** 4
RIP_SHAPE = (12, 28)
RIP_S = 3
RIP_PAIRS = 10 ** 4

_HERE = os.path.dirname(os.path.abspath(__file__))
SELFTEST_REFERENCE = os.path.join(_HERE, "selftest_reference.json")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# --------------------------------------------------------------------------
# Generators: one problem dict from a seed.


def theorem3_sheet(seed: int, n: int = SHEET_N,
                   num_pairs: int = SHEET_PAIRS) -> Dict[str, Any]:
    """3x6 operator, n signals uniform on a random 2-D sheet in R^6.

    The operator is Gaussian off the sheet and maps the sheet's basis Q
    onto the fixed SHEET_IMAGE, so the observations always fill the same
    parallelogram: the number of occupied grid cells, and with it the
    fit and evaluation work, does not depend on the seed.
    """
    rng = _rng("theorem3_sheet", seed)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    off_sheet = rng.standard_normal((3, 6)) @ (np.eye(6) - basis @ basis.T)
    a = SHEET_IMAGE @ basis.T + off_sheet
    x = rng.standard_normal(6) + rng.uniform(-1.0, 1.0, size=(n, 2)) @ basis.T
    # |x1 - x2| = |d| and |A (x1 - x2)| = |A Q d| >= sigma_min(A Q) |d|.
    omega = 1.0001 / float(np.linalg.svd(a @ basis, compute_uv=False)[-1])
    y = x @ a.T
    scale = float((y.max(axis=0) - y.min(axis=0)).max())
    m, big_n = a.shape
    # t_reduced = ceil((1 + sqrt(N - M)) * omega * scale * sqrt(M) / epsilon);
    # aiming at SHEET_T - 0.5 keeps the ceiling at SHEET_T under any rounding.
    reach = (1.0 + math.sqrt(big_n - m)) * omega * scale * math.sqrt(m)
    epsilon = reach / (SHEET_T - 0.5)
    return {
        "task": "theorem3",
        "operator": {"type": "matrix", "data": a.tolist()},
        "signals": {"type": "list", "data": x.tolist()},
        "params": {"omega": omega, "epsilon": epsilon, "seed": seed,
                   "num_pairs": num_pairs},
    }


def mwet_dense(seed: int, n: int = DENSE_N, num_pairs: int = DENSE_PAIRS) -> Dict[str, Any]:
    """8x8 Gaussian operator and n Gaussian signals; omega1 defaults to tight."""
    rng = _rng("mwet_dense", seed)
    a = rng.standard_normal((8, 8))
    x = rng.standard_normal((n, 8))
    return {
        "task": "mwet",
        "operator": {"type": "matrix", "data": a.tolist()},
        "signals": {"type": "list", "data": x.tolist()},
        "params": {"num_pairs": num_pairs, "seed": seed},
    }


def rip_exhaust(seed: int, shape: Tuple[int, int] = RIP_SHAPE, s: int = RIP_S,
                num_pairs: int = RIP_PAIRS) -> Dict[str, Any]:
    """Gaussian operator over its spectral norm; exact delta_S and delta_2S."""
    rng = _rng("rip_exhaust", seed)
    a = rng.standard_normal(shape)
    a = a / np.linalg.norm(a, 2)
    return {
        "task": "rip",
        "operator": {"type": "matrix", "data": a.tolist()},
        "params": {"S": s, "num_pairs": num_pairs, "seed": seed},
    }


GENERATORS = {
    "theorem3_sheet": theorem3_sheet,
    "mwet_dense": mwet_dense,
    "rip_exhaust": rip_exhaust,
}


def problem_for(workload: str, seed: int) -> Dict[str, Any]:
    return GENERATORS[workload](seed)


# --------------------------------------------------------------------------
# Plain reference kernels.


def pair_scan(x: np.ndarray, y: np.ndarray) -> Tuple[float, Tuple[int, int], float]:
    """Max of |x_i - x_j| / |y_i - y_j| over i < j, its first pair in
    row-major order, and the smallest observation distance."""
    best, witness, min_dy = -math.inf, (0, 1), math.inf
    for i in range(x.shape[0] - 1):
        dx = np.linalg.norm(x[i + 1:] - x[i], axis=1)
        dy = np.linalg.norm(y[i + 1:] - y[i], axis=1)
        min_dy = min(min_dy, float(dy.min()))
        ratios = dx / dy
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best, witness = float(ratios[k]), (i, i + 1 + k)
    return best, witness, min_dy


def calibration_scan(rows: int = 1500, repeats: int = 2) -> float:
    """Mean seconds per pair scan of a fixed random set: a yardstick for how
    fast the machine runs numpy-and-interpreter code at this moment."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((rows, 6)), rng.standard_normal((rows, 3))
    start = time.perf_counter()
    for _ in range(repeats):
        pair_scan(x, y)
    return (time.perf_counter() - start) / repeats


def rip_reference(a: np.ndarray, s: int) -> Tuple[float, Tuple[int, ...], int]:
    """Exact delta_s over every column subset of size 1..s.

    Returns (delta, first extremal subset in size-then-colex order, count).
    """
    n = a.shape[1]
    gram = a.T @ a
    diag = np.diag(gram)
    dev = np.maximum(1.0 - diag, diag - 1.0)
    best, subset = float(dev.max()), (int(np.argmax(dev)),)
    count = n
    for k in range(2, s + 1):
        subs = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
        count += subs.shape[0]
        devs = np.empty(subs.shape[0])
        for start in range(0, subs.shape[0], 1 << 15):
            block = subs[start:start + (1 << 15)]
            lam = np.linalg.eigvalsh(gram[block[:, :, None], block[:, None, :]])
            devs[start:start + block.shape[0]] = np.maximum(1.0 - lam[:, 0], lam[:, -1] - 1.0)
        top = float(devs.max())
        if top > best:
            ties = [tuple(int(i) for i in row) for row in subs[devs == top]]
            best, subset = top, min(ties, key=lambda t: t[::-1])
    return max(best, 0.0), subset, count


def _sparse_signals(n: int, s: int, count: int, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros((count, n))
    support = np.argsort(rng.random((count, n)), axis=1)[:, :s]
    x[np.arange(count)[:, None], support] = rng.standard_normal((count, s))
    return x


def _matrix(problem: Dict[str, Any]) -> np.ndarray:
    return np.array(problem["operator"]["data"], dtype=np.float64)


def reference(workload: str, problem: Dict[str, Any]) -> Dict[str, Any]:
    """Exact results and pinned assertion bounds for one generated problem."""
    params = problem["params"]
    a = _matrix(problem)
    if workload in ("theorem3_sheet", "mwet_dense"):
        x = np.array(problem["signals"]["data"], dtype=np.float64)
        y = x @ a.T
        max_ratio, _, min_dy = pair_scan(x, y)
        if min_dy <= 1e-12 * (1.0 + float(np.linalg.norm(y, axis=1).max())):
            raise RuntimeError(f"{workload}: generated observations collide")
    if workload == "theorem3_sheet":
        omega, epsilon = params["omega"], params["epsilon"]
        m, n = a.shape
        scale_lo = y.min(axis=0)
        scale = float((y.max(axis=0) - scale_lo).max())
        unit = (y - scale_lo) / scale

        def side(factor: float) -> int:
            return math.ceil((1.0 + factor) * (omega * scale) * math.sqrt(m) / epsilon)

        t_reduced, t_full = side(math.sqrt(n - m)), side(math.sqrt(n))
        cells = np.clip(np.floor(unit * t_reduced).astype(np.int64), 0, t_reduced - 1)
        results = {
            "sample_size": x.shape[0],
            "max_ratio": max_ratio,
            "t_reduced": t_reduced,
            "t_full": t_full,
            "cells_occupied": int(np.unique(cells, axis=0).shape[0]),
            "cells_bound": t_reduced ** m,
            "epsilon": epsilon,
            "effective_rank": m,
            "exact_inversion": False,
            "consistency_draws": params["num_pairs"],
        }
        bounds = {
            "sample_certified": omega,
            "training_interpolation": TOL_EVAL,
            "recovery_within_epsilon": epsilon + TOL_CERT,
            "observation_consistency": CONSISTENCY_RTOL,
            "reduced_grid_no_coarser": float(t_full),
        }
    elif workload == "mwet_dense":
        omega_global = max_ratio * math.sqrt(a.shape[1])
        results = {
            "sample_size": x.shape[0],
            "omega1": max_ratio,
            "omega_global": omega_global,
            "audit_pairs": params["num_pairs"],
        }
        bounds = {
            "training_interpolation": TOL_EVAL,
            "audit_within_global_bound": omega_global + TOL_EVAL,
        }
    elif workload == "rip_exhaust":
        s, num_pairs = params["S"], params["num_pairs"]
        delta, subset, count = rip_reference(a, s)
        delta_2s, _, _ = rip_reference(a, 2 * s)
        derived = 1.0 / math.sqrt(1.0 - delta_2s)
        rng = np.random.default_rng(params["seed"])
        diff = (_sparse_signals(a.shape[1], s, num_pairs, rng)
                - _sparse_signals(a.shape[1], s, num_pairs, rng))
        dx = np.linalg.norm(diff, axis=1)
        dy = np.linalg.norm(diff @ a.T, axis=1)
        pos = dy > 0.0
        results = {
            "S": s,
            "delta": delta,
            "subsets_examined": count,
            "extremal_subset": list(subset),
            "delta_2s": delta_2s,
            "derived_omega": derived,
            "max_ratio": float((dx[pos] / dy[pos]).max()),
            "num_pairs": num_pairs,
        }
        bounds = {
            "derived_constant_applicable": 1.0,
            "sparse_pairs_within_derived_constant": derived,
            "delta_monotone": delta_2s,
        }
    else:
        raise ValueError(f"no generated reference for workload {workload!r}")
    return {"results": results, "bounds": bounds}


# --------------------------------------------------------------------------
# The gate: every reason a report is wrong, empty when it is right.


def check_run_report(report: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
    problems = []
    names = [entry["name"] for entry in report.get("assertions", [])]
    if names != list(ref["bounds"]):
        problems.append(f"assertions {names} != reference {list(ref['bounds'])}")
    for entry in report.get("assertions", []):
        if not entry["passed"]:
            problems.append(f"assertion {entry['name']} failed")
        want = ref["bounds"].get(entry["name"])
        if want is not None and entry["bound"] != want:
            problems.append(f"assertion {entry['name']} bound {entry['bound']!r} "
                            f"!= reference {want!r}")
    results = report.get("results", {})
    for key, want in ref["results"].items():
        if key not in results:
            problems.append(f"results.{key} missing")
        elif results[key] != want:
            problems.append(f"results.{key} = {results[key]!r} != reference {want!r}")
    return problems


def selftest_payload(report: Dict[str, Any]) -> Dict[str, Any]:
    """The part of a selftest report that must repeat exactly.

    Drops wall-clock fields and summaries (which print residuals); keeps
    every fact check whole and every upper-bound check without its
    observed value, which the gate holds to the bound instead.
    """
    criteria = []
    for entry in report["criteria"]:
        checks = []
        for check in entry["checks"]:
            kept = dict(check)
            if check["kind"] == "atmost":
                kept.pop("observed")
            checks.append(kept)
        criteria.append({key: entry[key] for key in
                         ("number", "label", "task", "passed", "within_budget",
                          "budget_s", "details")} | {"checks": checks})
    return {"task": report["task"], "passed": report["passed"], "criteria": criteria}


def load_selftest_reference() -> Dict[str, Any]:
    with open(SELFTEST_REFERENCE) as handle:
        return json.load(handle)


def check_selftest_report(report: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
    problems = []
    for entry in report.get("criteria", []):
        for check in entry["checks"]:
            if check["kind"] == "atmost" and not check["observed"] <= check["bound"]:
                problems.append(f"criterion {entry['number']} {check['name']}: "
                                f"{check['observed']!r} > {check['bound']!r}")
    payload = selftest_payload(report)
    if payload != ref:
        for got, want in itertools.zip_longest(payload["criteria"], ref["criteria"]):
            if got != want:
                number = (want or got)["number"]
                problems.append(f"criterion {number}: {got!r} != reference {want!r}")
        if payload["passed"] != ref["passed"] or payload["task"] != ref["task"]:
            problems.append("selftest verdict differs from reference")
    return problems


def check_report(workload: str, report: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
    if workload == "selftest":
        return check_selftest_report(report, ref)
    return check_run_report(report, ref)
