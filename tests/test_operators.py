"""Operator implementations: matrix and piecewise ramp; the unit box."""

import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from liprec import DimensionError, DomainError, MatrixOperator, PiecewiseExampleOperator
from liprec.core import seeded_rng
from liprec.covering import unit_box


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


def test_unit_box_maps_points_into_the_unit_box():
    rng = seeded_rng(3)
    raw = MatrixOperator(rng.standard_normal((2, 4))).apply(rng.standard_normal((50, 4)))
    lo, scale = unit_box(raw)
    boxed = (raw - lo) / scale
    assert boxed.min() == 0.0
    assert boxed.max() == 1.0  # the widest coordinate touches both faces
    # the scale is the widest coordinate range of the raw points
    assert scale == (raw.max(axis=0) - raw.min(axis=0)).max()


def test_unit_box_divides_distances_by_scale():
    rng = seeded_rng(4)
    raw = rng.standard_normal((20, 3)) * 7.0 + 5.0
    lo, scale = unit_box(raw)
    boxed = (raw - lo) / scale
    for i in range(1, len(raw)):
        raw_gap = np.linalg.norm(raw[i] - raw[0])
        assert np.linalg.norm(boxed[i] - boxed[0]) == pytest.approx(raw_gap / scale, rel=1e-12)


def test_unit_box_of_coincident_points_has_unit_scale():
    lo, scale = unit_box(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert scale == 1.0
    assert np.array_equal(lo, [1.0, 2.0])


@st.composite
def _point_stacks(draw):
    """One row or more, tied or constant columns, spans 1e-150 to 1e150."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    span = 10.0 ** draw(st.integers(-150, 150))
    centre = draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.integers(-150, 150))
    unit = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-1.0, 1.0)
    points = np.array([[centre + span * draw(unit) for _ in range(cols)]
                       for _ in range(rows)])
    for c in range(cols):
        if draw(st.booleans()):  # a constant column
            points[:, c] = points[0, c]
    return points


@settings(max_examples=300, deadline=None)
@given(_point_stacks())
def test_unit_box_is_idempotent_on_its_own_output(points):
    # Boxing an already boxed stack shifts by zero and scales by exactly 1,
    # so a pipeline that boxes a boxed sample changes no bit.
    lo, scale = unit_box(points)
    boxed = (points - lo) / scale
    lo2, scale2 = unit_box(boxed)
    assert scale2 == 1.0
    assert not lo2.any()
    assert ((boxed - lo2) / scale2).tobytes() == boxed.tobytes()
