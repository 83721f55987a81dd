"""Certification: tight constants, verification, affine moves, relaxed check.

The tight constant has an obvious if slow oracle (a double loop over all
pairs); the blocked implementation must agree with it exactly. Invariance
under scaling and shifting is checked against freshly relabeled sets.
"""

import warnings

import numpy as np
import pytest

from liprec import (
    AffineTransform,
    DegenerateScaleError,
    DegenerateSetError,
    DimensionError,
    DomainError,
    LabeledSet,
    MatrixOperator,
    NotInjectiveError,
    OperatorClassError,
    ParameterError,
    PiecewiseExampleOperator,
    affine_transform,
    check_relaxed_lipschitz,
    core,
    tight_omega,
    verify_lipschitz,
)
from liprec.core import seeded_rng
from liprec.lipschitz import injectivity_tolerance


def _naive_tight(ls):
    """Double-loop oracle for the maximum pairwise ratio and its pair."""
    best, pair = -np.inf, None
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            dx = np.linalg.norm(ls.signals[i] - ls.signals[j])
            dy = np.linalg.norm(ls.observations[i] - ls.observations[j])
            r = dx / dy
            if r > best:
                best, pair = r, (i, j)
    return best, pair


def _random_set(rng, n, sig_dim, obs_dim):
    op = MatrixOperator(rng.standard_normal((obs_dim, sig_dim)))
    x = rng.standard_normal((n, sig_dim))
    return LabeledSet.from_operator(op, x), op


def test_tight_omega_matches_naive_oracle():
    rng = seeded_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        sig_dim = int(rng.integers(2, 6))
        ls, _ = _random_set(rng, n, sig_dim, int(rng.integers(1, sig_dim + 1)))
        cert = tight_omega(ls)
        oracle, pair = _naive_tight(ls)
        assert cert.omega == pytest.approx(oracle, rel=1e-12)
        assert cert.max_ratio == cert.omega
        assert cert.verdict == "certified"
        # the witness attains the maximum (pairs may tie in the last ulp)
        i, j = cert.witness
        dx = np.linalg.norm(ls.signals[i] - ls.signals[j])
        dy = np.linalg.norm(ls.observations[i] - ls.observations[j])
        assert dx / dy == pytest.approx(oracle, rel=1e-12)


def test_tight_omega_known_value():
    # two points: dx = 2, dy = 1, so the constant is exactly 2
    ls = LabeledSet.from_arrays([[0.0, 0.0], [2.0, 0.0]], [[0.0], [1.0]])
    assert tight_omega(ls).omega == 2.0


def test_tight_omega_needs_two_points():
    ls = LabeledSet.from_arrays([[1.0]], [[1.0]])
    with pytest.raises(DegenerateSetError):
        tight_omega(ls)


def test_tight_omega_detects_observation_collision():
    ls = LabeledSet.from_arrays([[0.0], [1.0], [2.0]], [[0.0], [0.5], [0.5]])
    with pytest.raises(NotInjectiveError) as exc:
        tight_omega(ls)
    assert exc.value.pair == (1, 2)


def test_injectivity_tolerance_scales_with_magnitude():
    small = injectivity_tolerance(np.array([[0.0, 0.0]]))
    big = injectivity_tolerance(np.array([[1e6, 0.0]]))
    assert big > small
    assert small == pytest.approx(1e-12)


def test_verify_lipschitz_certifies_at_tight_constant():
    rng = seeded_rng(12)
    ls, _ = _random_set(rng, 15, 4, 2)
    omega = tight_omega(ls).omega
    cert = verify_lipschitz(ls, omega)
    assert cert.passed
    assert cert.max_ratio == pytest.approx(omega)


def test_verify_lipschitz_flags_too_small_constant():
    rng = seeded_rng(13)
    ls, _ = _random_set(rng, 15, 4, 2)
    omega = tight_omega(ls).omega
    cert = verify_lipschitz(ls, omega * 0.9)
    assert not cert.passed
    assert cert.verdict == "violated"
    # the witness pair really does violate the supplied constant
    i, j = cert.witness
    dx = np.linalg.norm(ls.signals[i] - ls.signals[j])
    dy = np.linalg.norm(ls.observations[i] - ls.observations[j])
    assert dx > 0.9 * omega * dy


def test_verify_lipschitz_tolerance_absorbs_rounding():
    ls = LabeledSet.from_arrays([[0.0], [1.0]], [[0.0], [1.0]])
    cert = verify_lipschitz(ls, 1.0 - 1e-10)
    assert cert.passed


def test_verify_lipschitz_collision_counts_as_violation():
    ls = LabeledSet.from_arrays([[0.0], [1.0]], [[0.5], [0.5]])
    cert = verify_lipschitz(ls, 100.0)
    assert not cert.passed
    assert cert.max_ratio == np.inf


def test_verify_lipschitz_vacuous_small_sets():
    ls = LabeledSet.from_arrays([[1.0]], [[2.0]])
    cert = verify_lipschitz(ls, 0.5)
    assert cert.passed
    assert cert.witness is None


def test_verify_lipschitz_rejects_bad_omega():
    ls = LabeledSet.from_arrays([[0.0], [1.0]], [[0.0], [1.0]])
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ParameterError):
            verify_lipschitz(ls, bad)


def test_affine_transform_relabels_under_operator():
    rng = seeded_rng(14)
    ls, op = _random_set(rng, 10, 3, 2)
    t = AffineTransform(scale=2.5, shift=np.array([1.0, -2.0, 0.5]))
    moved = affine_transform(ls, op, t)
    expected = 2.5 * ls.signals + t.shift
    assert np.allclose(moved.signals, expected)
    assert np.allclose(moved.observations, op.apply(expected))


def test_affine_transform_preserves_tight_constant():
    rng = seeded_rng(15)
    for _ in range(10):
        ls, op = _random_set(rng, 12, 4, 2)
        scale = float(rng.uniform(0.1, 3.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
        shift = rng.standard_normal(4)
        moved = affine_transform(ls, op, AffineTransform(scale, shift))
        before = tight_omega(ls).omega
        after = tight_omega(moved).omega
        assert after == pytest.approx(before, rel=1e-12)


def test_affine_transform_guards():
    rng = seeded_rng(16)
    ls, op = _random_set(rng, 5, 3, 2)
    with pytest.raises(DegenerateScaleError):
        affine_transform(ls, op, AffineTransform(0.0, np.zeros(3)))
    with pytest.raises(DimensionError):
        affine_transform(ls, op, AffineTransform(1.0, np.zeros(2)))
    ramp = PiecewiseExampleOperator()
    ramp_set = LabeledSet.from_operator(ramp, [[0.1], [0.2]])
    with pytest.raises(OperatorClassError):
        affine_transform(ramp_set, ramp, AffineTransform(1.0, np.zeros(1)))


def test_affine_transform_rejects_nonfinite_scale():
    with pytest.raises(ParameterError):
        AffineTransform(np.inf, np.zeros(2))


def test_relaxed_check_exact_constant_zero_epsilon():
    rng = seeded_rng(17)
    ls, _ = _random_set(rng, 12, 3, 2)
    omega = tight_omega(ls).omega
    res = check_relaxed_lipschitz(ls, omega, 0.0)
    assert res.passed
    # the binding pair is the one attaining the tight constant
    assert res.min_slack == pytest.approx(0.0, abs=1e-9)


def test_relaxed_check_epsilon_buys_slack():
    ls = LabeledSet.from_arrays([[0.0], [2.0]], [[0.0], [1.0]])
    # constant 1 alone fails (ratio is 2) but epsilon = 0.5 closes the gap
    res = check_relaxed_lipschitz(ls, 1.0, 0.5)
    assert res.passed
    assert res.min_slack == pytest.approx(0.0)
    res = check_relaxed_lipschitz(ls, 1.0, 0.4)
    assert not res.passed
    assert res.worst_pair == (0, 1)


def test_relaxed_check_min_slack_oracle():
    rng = seeded_rng(18)
    ls, _ = _random_set(rng, 14, 3, 2)
    omega, eps = 0.7, 0.3
    res = check_relaxed_lipschitz(ls, omega, eps)
    slacks = []
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            dx = np.linalg.norm(ls.signals[i] - ls.signals[j])
            dy = np.linalg.norm(ls.observations[i] - ls.observations[j])
            slacks.append(2 * eps + omega * dy - dx)
    assert res.min_slack == pytest.approx(min(slacks), rel=1e-12)


def test_relaxed_check_parameter_guards():
    ls = LabeledSet.from_arrays([[0.0], [1.0]], [[0.0], [1.0]])
    with pytest.raises(ParameterError):
        check_relaxed_lipschitz(ls, -1.0, 0.0)
    with pytest.raises(ParameterError):
        check_relaxed_lipschitz(ls, 1.0, -0.1)
    with pytest.raises(DegenerateSetError):
        check_relaxed_lipschitz(ls.subset([0]), 1.0, 0.0)


def test_overflowing_distances_raise_before_any_pair():
    # Every ratio would be inf/inf = NaN: nothing could be violated, and
    # the sample used to certify with max_ratio -inf.
    x = np.array([[0.0, 0.0], [1e200, 1.0], [2e200, -1.0]])
    y = x * [1.0, 1e-300]
    with pytest.raises(DomainError, match="signals: pairwise distances overflow"):
        LabeledSet.from_arrays(x, y)
    ls = LabeledSet(x, y)
    for check in (tight_omega, lambda s: verify_lipschitz(s, 1.0),
                  lambda s: check_relaxed_lipschitz(s, 1.0, 0.0)):
        with pytest.raises(DomainError):
            check(ls)
    with pytest.raises(DomainError, match="injectivity tolerance is not finite"):
        injectivity_tolerance(y)
    # Finite norms, but the observations' span overflows when squared.
    far = LabeledSet.from_arrays([[0.0], [1.0]], [[-1e154], [1e154]])
    assert np.isfinite(injectivity_tolerance(far.observations))
    with pytest.raises(DomainError, match="observations: pairwise distances overflow"):
        tight_omega(far)
    # Just inside the range every check still runs.
    near = LabeledSet.from_arrays([[0.0], [1.0]], [[0.0], [1e154]])
    assert tight_omega(near).omega == 1e-154


def test_pruned_scan_checks_overflow_before_its_first_block(monkeypatch):
    monkeypatch.setattr(core, "_scan_tiled", lambda n, obs_dim, kept: False)
    x = np.array([[0.0, 0.0], [1e200, 1.0], [2e200, -1.0]])
    ls = LabeledSet(x, x * [1.0, 1e-300])
    for check in (lambda s: verify_lipschitz(s, 1.0), lambda s: check_relaxed_lipschitz(s, 1.0, 0.0)):
        with pytest.raises(DomainError, match="signals: pairwise distances overflow"):
            check(ls)


@pytest.mark.parametrize("path", ["tiled", "pruned"])
def test_a_constant_whose_products_overflow_reads_inf_silently(monkeypatch, path):
    # omega * dy passes float64 for every pair but the closest ones: the
    # violation test and the relaxed slack read inf there, and numpy used to
    # warn from the tiles of either scan.
    if path == "pruned":
        monkeypatch.setattr(core, "_scan_tiled", lambda n, obs_dim, kept: False)
    x = np.arange(40.0)[:, None]
    ls = LabeledSet(x, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = verify_lipschitz(ls, 1e308)
        relaxed = check_relaxed_lipschitz(ls, 1e308, 0.0)
    assert cert.passed and cert.max_ratio == 1.0
    assert relaxed.passed and relaxed.min_slack == 1e308 - 1.0 and relaxed.worst_pair == (0, 1)
