"""Operator implementations: matrix, piecewise ramp, normalization."""

import warnings

import numpy as np
import pytest

from liprec import (
    CalibrationError,
    DimensionError,
    DomainError,
    MatrixOperator,
    NormalizedOperator,
    PiecewiseExampleOperator,
    normalize,
)
from liprec.core import seeded_rng


def test_matrix_operator_single_and_batch():
    op = MatrixOperator([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    y = op.apply([1.0, 1.0, 1.0])
    assert y.shape == (2,)
    assert np.allclose(y, [3.0, 3.0])
    batch = op.apply(np.eye(3))
    assert batch.shape == (3, 2)
    assert np.allclose(batch, np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]]).T)


def test_matrix_operator_is_callable():
    op = MatrixOperator.identity(2)
    assert np.array_equal(op([3.0, 4.0]), [3.0, 4.0])


def test_matrix_operator_rejects_tall_matrices():
    with pytest.raises(DimensionError):
        MatrixOperator(np.zeros((3, 2)))


def test_matrix_operator_matrix_is_readonly():
    op = MatrixOperator([[1.0, 0.0]])
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0


def test_operator_rejects_wrong_length_and_nonfinite():
    op = MatrixOperator.identity(3)
    with pytest.raises(DimensionError):
        op.apply([1.0, 2.0])
    with pytest.raises(DomainError):
        op.apply([1.0, np.nan, 0.0])


@pytest.mark.parametrize("op,x", [
    (MatrixOperator([[1e308, 1e308]]), [1.0, 1.0]),
    (MatrixOperator([[1e308, -1e308]]), [2.0, 2.0]),  # inf - inf
    (NormalizedOperator(MatrixOperator([[1.0]]), [-1e308], 1.0), [1e308]),
])
def test_operator_rejects_observations_that_overflow(op, x):
    # finite inputs and a finite matrix whose product overflows: numpy used
    # to warn and return inf or nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^observations overflow float64$"):
            op.apply(x)


def test_piecewise_ramp_values():
    op = PiecewiseExampleOperator()
    x = np.array([[0.0], [0.5], [0.999], [1.0], [1.5], [2.0], [2.5], [3.0]])
    y = op.apply(x)
    assert np.allclose(y[:, 0], [0.0, 0.5, 0.999, 1.0, 1.0, 1.0, 1.5, 2.0])


def test_piecewise_ramp_plateau_collides():
    op = PiecewiseExampleOperator()
    assert op.apply([1.2])[0] == op.apply([1.9])[0] == 1.0


def test_piecewise_ramp_domain():
    op = PiecewiseExampleOperator()
    with pytest.raises(DomainError):
        op.apply([-0.01])
    with pytest.raises(DomainError):
        op.apply([3.01])


def test_normalized_operator_formula():
    inner = MatrixOperator.identity(2)
    wrapped = NormalizedOperator(inner, shift=[1.0, 2.0], scale=4.0)
    out = wrapped.apply([5.0, 6.0])
    assert np.allclose(out, [1.0, 1.0])


def test_normalized_operator_validation():
    inner = MatrixOperator.identity(2)
    with pytest.raises(DimensionError):
        NormalizedOperator(inner, shift=[1.0], scale=1.0)
    with pytest.raises(DomainError):
        NormalizedOperator(inner, shift=[0.0, 0.0], scale=0.0)
    with pytest.raises(DomainError):
        NormalizedOperator(inner, shift=[0.0, 0.0], scale=-1.0)


def test_normalize_maps_calibration_into_unit_box():
    rng = seeded_rng(3)
    op = MatrixOperator(rng.standard_normal((2, 4)))
    cal = rng.standard_normal((50, 4))
    wrapped, scale = normalize(op, cal)
    out = wrapped.apply(cal)
    assert out.min() >= -1e-12
    assert out.max() <= 1.0 + 1e-12
    # the scale is the widest coordinate range of the raw outputs
    raw = op.apply(cal)
    assert scale == pytest.approx((raw.max(axis=0) - raw.min(axis=0)).max())


def test_normalize_divides_distances_by_scale():
    rng = seeded_rng(4)
    op = MatrixOperator(rng.standard_normal((3, 5)))
    cal = rng.standard_normal((20, 5))
    wrapped, scale = normalize(op, cal)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    raw_gap = np.linalg.norm(op.apply(a) - op.apply(b))
    new_gap = np.linalg.norm(wrapped.apply(a) - wrapped.apply(b))
    assert new_gap == pytest.approx(raw_gap / scale, rel=1e-12)


def test_normalize_degenerate_outputs_get_unit_scale():
    op = MatrixOperator([[0.0, 0.0]])
    wrapped, scale = normalize(op, [[1.0, 2.0], [3.0, 4.0]])
    assert scale == 1.0
    assert np.array_equal(wrapped.apply([9.0, 9.0]), [0.0])


def test_normalize_needs_calibration():
    op = MatrixOperator.identity(2)
    with pytest.raises(CalibrationError):
        normalize(op, np.zeros((0, 2)))
