"""SVD factorization, the exact reconstruction identity, reduced recovery.

The factor structure is checked against first principles (orthogonality,
Psi A = V1^T, A V2 = 0) rather than against another SVD call, so a wrong
factorization cannot agree with the oracle by construction.
"""

import numpy as np
import pytest

from liprec import (
    DimensionError,
    DomainError,
    LabeledSet,
    LabelingError,
    MatrixOperator,
    NotLipschitzError,
    OperatorClassError,
    ParameterError,
    PiecewiseExampleOperator,
    RankZeroError,
    fit_reduced,
    identity_check,
    svd_factor,
    tight_omega,
)
from liprec import core
from liprec.core import seeded_rng


def _random_operator(rng, m, n):
    return MatrixOperator(rng.standard_normal((m, n)))


def test_factor_shapes_and_structure():
    rng = seeded_rng(50)
    for m, n in [(1, 1), (2, 5), (4, 4), (3, 8)]:
        f = svd_factor(_random_operator(rng, m, n))
        assert f.matrix.shape == (m, n)
        assert f.u.shape == (m, m)
        assert f.sigma.shape == (m,)
        assert f.v1.shape == (n, m)
        assert f.v2.shape == (n, n - m)
        assert f.psi.shape == (m, m)
        assert not f.reduced
        assert f.rank == m
        # descending positive spectrum
        assert np.all(f.sigma > 0)
        assert np.all(np.diff(f.sigma) <= 0)
        # orthogonality of the factors
        assert np.allclose(f.u.T @ f.u, np.eye(m), atol=1e-12)
        assert np.allclose(f.v.T @ f.v, np.eye(n), atol=1e-12)
        # Psi is a left inverse composed with V1: Psi A = V1^T
        assert np.allclose(f.psi @ f.matrix, f.v1.T, atol=1e-10)
        # V2 spans the null space
        assert np.allclose(f.matrix @ f.v2, 0.0, atol=1e-10)


def test_factor_accepts_raw_arrays():
    f = svd_factor(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert f.signal_dim == 3
    assert np.allclose(sorted(f.sigma), [1.0, 2.0])


def test_factor_rejects_tall_and_zero():
    with pytest.raises(DimensionError):
        svd_factor(np.zeros((4, 2)) + 1.0)
    with pytest.raises(RankZeroError):
        svd_factor(np.zeros((2, 3)))


def test_identity_exact_for_random_matrices():
    rng = seeded_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        f = svd_factor(_random_operator(rng, m, n))
        x = rng.standard_normal((50, n)) * 10.0
        res = identity_check(f, x)
        assert res.max() <= 1e-8 * (1.0 + np.linalg.norm(x, axis=1).max())


def test_identity_single_vector_returns_scalar():
    rng = seeded_rng(52)
    f = svd_factor(_random_operator(rng, 2, 4))
    res = identity_check(f, rng.standard_normal(4))
    assert isinstance(res, float)
    assert res <= 1e-10


def test_identity_check_rejects_wrong_width():
    rng = seeded_rng(53)
    f = svd_factor(_random_operator(rng, 2, 4))
    with pytest.raises(DimensionError, match=r"^expected signals of length 4, got shape \(3,\)$"):
        identity_check(f, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises_domain_error(bad):
    # svd_factor used to raise numpy's LinAlgError, identity_check to return NaN.
    with pytest.raises(DomainError, match="^matrix: entries must be finite$"):
        svd_factor(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, bad]]))
    f = svd_factor(np.eye(2, 3))
    for x in ([1.0, bad, 0.0], [[0.0, 0.0, 0.0], [bad, 0.0, 1.0]]):
        with pytest.raises(DomainError, match="^signals: entries must be finite$"):
            identity_check(f, x)


def test_rank_deficient_factorization():
    rng = seeded_rng(54)
    base = rng.standard_normal((2, 5))
    a = np.vstack([base, base[0] + base[1]])  # 3x5, rank 2
    f = svd_factor(a)
    assert f.reduced
    assert f.rank == 2
    assert f.obs_dim == 2
    assert f.source_obs_dim == 3
    assert f.v2.shape == (5, 3)
    # the projector is an isometry on the range of A
    x = rng.standard_normal((40, 5))
    y = x @ a.T
    gaps_before = np.linalg.norm(y[:20] - y[20:], axis=1)
    gaps_after = np.linalg.norm(f.project(y[:20]) - f.project(y[20:]), axis=1)
    assert np.allclose(gaps_before, gaps_after, rtol=1e-10)
    # the effective matrix agrees with A after projection
    assert np.allclose(f.project(y), x @ f.matrix.T, atol=1e-10)
    # identity still exact with the (N - r)-dimensional null part
    assert identity_check(f, x).max() <= 1e-9 * (1 + np.abs(x).max())


def test_exact_inversion_square_operator():
    rng = seeded_rng(55)
    op = _random_operator(rng, 3, 3)
    x = rng.standard_normal((30, 3))
    sample = LabeledSet.from_operator(op, x)
    omega = tight_omega(sample).omega
    result = fit_reduced(sample, op, omega, epsilon=0.1)
    assert result.report.exact_inversion
    assert result.recovery.exact_inversion
    assert result.representatives is None
    assert result.report.t_reduced is None
    assert result.report.effective_rank == 3
    assert result.recovery_errors.max() <= 1e-9
    fresh = rng.standard_normal((20, 3))
    assert np.allclose(result.recovery.recover(op.apply(fresh)), fresh, atol=1e-9)


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, float("nan")])
def test_exact_inversion_rejects_nonpositive_epsilon(epsilon):
    # The square path trains no grid, yet checks epsilon as the covering
    # path does, and only after certifying the sample.
    rng = seeded_rng(55)
    op = _random_operator(rng, 3, 3)
    sample = LabeledSet.from_operator(op, rng.standard_normal((30, 3)))
    omega = tight_omega(sample).omega
    with pytest.raises(ParameterError, match=f"^epsilon must be positive, got {epsilon}$"):
        fit_reduced(sample, op, omega, epsilon)
    with pytest.raises(NotLipschitzError):
        fit_reduced(sample, op, 0.5 * omega, epsilon)


def test_fit_reduced_interpolates_and_recovers():
    rng = seeded_rng(56)
    op = _random_operator(rng, 2, 4)
    x = rng.standard_normal((40, 4))
    sample = LabeledSet.from_operator(op, x)
    omega = tight_omega(sample).omega
    result = fit_reduced(sample, op, omega, epsilon=0.5)
    assert result.certificate.passed and result.certificate.max_ratio == omega
    assert not result.report.exact_inversion
    assert result.report.max_training_residual <= 1e-9
    assert result.report.max_recovery_error <= 0.5
    assert result.report.t_reduced <= result.report.t_full
    assert result.report.cells_occupied <= len(sample)
    assert result.recovery.hypothesis.output_dim == 2  # N - M null components


def test_fit_reduced_consistency_on_arbitrary_signals():
    rng = seeded_rng(57)
    op = _random_operator(rng, 3, 5)
    x = rng.standard_normal((25, 5))
    sample = LabeledSet.from_operator(op, x)
    omega = tight_omega(sample).omega
    result = fit_reduced(sample, op, omega, epsilon=1.0)
    probes = rng.standard_normal((500, 5)) * 20.0
    res = result.recovery.consistency_residuals(probes)
    norms = np.linalg.norm(probes @ op.matrix.T, axis=1)
    assert np.all(res <= 1e-8 * (1.0 + norms))


def test_consistency_holds_even_with_untrained_hypothesis():
    # two training points only: the null-part prediction is bad, yet the
    # observation fed back through A is still reproduced exactly
    rng = seeded_rng(58)
    op = _random_operator(rng, 2, 4)
    x = rng.standard_normal((2, 4))
    sample = LabeledSet.from_operator(op, x)
    omega = tight_omega(sample).omega
    result = fit_reduced(sample, op, omega, epsilon=100.0)
    probes = rng.standard_normal((200, 4)) * 50.0
    res = result.recovery.consistency_residuals(probes)
    norms = np.linalg.norm(probes @ op.matrix.T, axis=1)
    assert np.all(res <= 1e-8 * (1.0 + norms))


def test_fit_reduced_rank_deficient_operator():
    rng = seeded_rng(59)
    base = rng.standard_normal((2, 4))
    op = MatrixOperator(np.vstack([base, base[0] - 2.0 * base[1]]))  # rank 2
    x = rng.standard_normal((30, 4))
    sample = LabeledSet.from_operator(op, x)
    omega = tight_omega(sample).omega
    result = fit_reduced(sample, op, omega, epsilon=0.75)
    assert result.report.effective_rank == 2
    assert result.report.max_recovery_error <= 0.75
    # recover still takes the original 3-dimensional observations
    y = op.apply(rng.standard_normal(4))
    assert result.recovery.recover(y).shape == (4,)
    probes = rng.standard_normal((200, 4))
    res = result.recovery.consistency_residuals(probes)
    norms = np.linalg.norm(probes @ op.matrix.T, axis=1)
    assert np.all(res <= 1e-8 * (1.0 + norms))


def test_fit_reduced_guards():
    rng = seeded_rng(60)
    op = _random_operator(rng, 2, 3)
    x = rng.standard_normal((10, 3))
    sample = LabeledSet.from_operator(op, x)
    omega = tight_omega(sample).omega
    with pytest.raises(OperatorClassError):
        fit_reduced(sample, PiecewiseExampleOperator(), omega, 0.5)
    with pytest.raises(NotLipschitzError) as exc:
        fit_reduced(sample, op, omega * 0.5, 0.5)
    assert exc.value.certificate.verdict == "violated"
    assert exc.value.certificate.max_ratio == omega
    assert exc.value.witness == tight_omega(sample).witness


def test_fit_reduced_checks_labels_and_duplicates_in_one_scan(monkeypatch):
    rng = seeded_rng(63)
    op = _random_operator(rng, 2, 3)
    x = rng.standard_normal((12, 3))
    x[9] = x[4]
    sample = LabeledSet(x, op.apply(x))
    omega = 2.0 * tight_omega(LabeledSet.from_operator(op, x[:9])).omega
    scans = []
    original = core._pair_tiles
    monkeypatch.setattr(core, "_pair_tiles",
                        lambda x, y: scans.append(len(x)) or original(x, y))
    # The duplicate wins over an uncertified sample and over a bad omega.
    for w in (omega, 1e-6 * omega, 0.0):
        scans.clear()
        with pytest.raises(LabelingError, match="duplicate signals at indices 4 and 9") as exc:
            fit_reduced(sample, op, w, 0.5)
        assert exc.value.index == 9
        assert scans == [12]
    distinct = LabeledSet.from_operator(op, x[:9])
    with pytest.raises(ParameterError):
        fit_reduced(distinct, op, 0.0, 0.5)
    # The O(n) residual check stays ahead of the pair scan.
    scans.clear()
    off = LabeledSet(x, sample.observations + 1e-6)
    with pytest.raises(LabelingError, match="pair 0: observation is off"):
        fit_reduced(off, op, omega, 0.5)
    assert scans == []


def test_recover_rejects_wrong_observation_width():
    rng = seeded_rng(61)
    op = _random_operator(rng, 2, 4)
    x = rng.standard_normal((10, 4))
    sample = LabeledSet.from_operator(op, x)
    result = fit_reduced(sample, op, tight_omega(sample).omega, epsilon=1.0)
    with pytest.raises(DimensionError):
        result.recovery.recover(np.zeros(3))


def test_recover_rejects_non_finite_observations():
    rng = seeded_rng(62)
    for m, n in ((2, 4), (2, 2)):  # trained hypothesis, exact inversion
        op = _random_operator(rng, m, n)
        sample = LabeledSet.from_operator(op, rng.standard_normal((10, n)))
        result = fit_reduced(sample, op, tight_omega(sample).omega, epsilon=1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                result.recovery.recover(np.array([bad] + [0.0] * (m - 1)))
