"""Acceptance suite: the eight quantitative guarantees at desk scale.

The measurements live in liprec.acceptance so that ``liprec selftest``
runs the identical suite. Each test here re-asserts the stated bound of
every tolerance (the package module cannot loosen one without failing
here), re-checks the structural facts, and enforces the runtime budget.
A verbose run shows one pass/fail line per criterion; -s also shows the
measured numbers. Each criterion runs once per session (the
``criterion_result`` fixture in conftest.py); the full ``liprec selftest``
tests in test_cli.py reuse the same results.
"""

import math

from liprec import acceptance


def _run(result, budget_s):
    print(f"criterion {result.number} ({result.label}): "
          f"{'PASS' if result.passed else 'FAIL'} - {result.summary}, "
          f"{result.runtime_s:.2f}s < {result.budget_s:.0f}s")
    assert result.budget_s == budget_s
    assert result.runtime_s < budget_s
    for check in result.checks:
        assert check.passed, (check.name, check.observed, check.bound)
    assert result.passed
    return {c.name: c for c in result.checks}, result


def test_criterion_1_mwet_interpolation(criterion_result):
    checks, _ = _run(criterion_result(acceptance.criterion_1), 5.0)
    assert checks["max_training_residual"].bound == 1e-9


def test_criterion_2_mwet_global_bound(criterion_result):
    checks, _ = _run(criterion_result(acceptance.criterion_2), 30.0)
    assert checks["max_ratio_excess"].bound == 1e-9


def test_criterion_3_covering_recovery(criterion_result):
    checks, _ = _run(criterion_result(acceptance.criterion_3), 10.0)
    assert checks["ramp_recovery_error"].bound == 0.2
    assert checks["segment_recovery_error"].bound == 0.25
    # occupied cells stay within t^M, with t straight from the formula
    assert checks["segment_cells_match_formula"].passed
    assert checks["ramp_cover_within_cell_bound"].passed
    assert checks["segment_cover_within_cell_bound"].passed


def test_criterion_4_reduced_recovery(criterion_result):
    checks, _ = _run(criterion_result(acceptance.criterion_4), 30.0)
    assert checks["max_training_residual"].bound == 1e-9
    assert checks["max_recovery_error"].bound == 0.25
    assert checks["max_relative_consistency"].bound == 1e-8
    assert checks["reduced_grid_no_coarser"].observed <= 0.0


def test_criterion_5_svd_identity(criterion_result):
    checks, _ = _run(criterion_result(acceptance.criterion_5), 5.0)
    assert checks["max_relative_residual"].bound == 1e-8


def test_criterion_6_rip_sparse_lipschitz(criterion_result):
    checks, result = _run(criterion_result(acceptance.criterion_6), 20.0)
    assert checks["delta4_below_one"].observed < 1.0
    assert checks["raw_unit_columns_disqualified"].observed >= 1.0
    assert (checks["subsets_exhausted"].observed
            == sum(math.comb(16, k) for k in range(1, 5)) == 2516)
    assert result.details["seed"] is not None  # recorded qualifying seed
    chain = result.details["delta_chain"]
    assert all(d1 <= d2 + 1e-15 for d1, d2 in zip(chain, chain[1:]))


def test_criterion_7_example_fixture(criterion_result):
    checks, _ = _run(criterion_result(acceptance.criterion_7), 1.0)
    assert set(checks) == {
        "unit_interval_certified_at_1",
        "plateau_pair_collides",
        "union_certified_at_2",
        "union_violated_at_1p99",
    }


def test_criterion_8_affine_invariance(criterion_result):
    checks, _ = _run(criterion_result(acceptance.criterion_8), 5.0)
    assert checks["max_relative_constant_drift"].bound == 1e-9
    assert checks["relaxed_check_at_exact_constant"].passed
