"""Hypercube grids, representative selection, and the covering pipeline."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liprec import (
    DegenerateSetError,
    DimensionError,
    LabeledSet,
    LabelingError,
    MatrixOperator,
    NoNullSpaceError,
    NotLipschitzError,
    OutOfBoxError,
    ParameterError,
    PiecewiseExampleOperator,
    TOL_CERT,
    build_cover,
    cover_pipeline,
    fit_reduced,
    grid_spec,
    svd_factor,
    tight_omega,
)
from liprec import covering, svdrec
from liprec.core import seeded_rng
from liprec.covering import unit_box


def test_grid_spec_full_mode_hand_value():
    # N=3, M=2, omega=1, eps=0.5: ceil((1 + sqrt(3)) * sqrt(2) / 0.5) = 8
    spec = grid_spec(3, 2, 1.0, 0.5, "full")
    assert spec.t == 8
    assert spec.cell_bound == 64
    assert spec.cell_side == pytest.approx(1.0 / 8.0)


def test_grid_spec_reduced_mode_hand_value():
    # same parameters with dim factor sqrt(3 - 2) = 1: ceil(2 * sqrt(2) / 0.5) = 6
    spec = grid_spec(3, 2, 1.0, 0.5, "reduced")
    assert spec.t == 6
    assert spec.dim_factor == 1.0


def test_grid_spec_reduced_never_coarser_than_full():
    rng = seeded_rng(40)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n))
        omega = float(rng.uniform(0.1, 5.0))
        eps = float(rng.uniform(0.05, 2.0))
        full = grid_spec(n, m, omega, eps, "full")
        red = grid_spec(n, m, omega, eps, "reduced")
        assert red.t <= full.t


def test_grid_spec_single_cell_for_loose_epsilon():
    n = 4
    spec = grid_spec(n, 1, 1.0, 1.0 + math.sqrt(n), "full")
    assert spec.t == 1
    assert spec.cell_bound == 1


def test_grid_spec_cell_diameter_bound():
    spec = grid_spec(5, 3, 2.0, 0.7, "full")
    # sqrt(M)/t <= eps / (omega * (1 + dim_factor))
    assert math.sqrt(spec.obs_dim) / spec.t <= (
        spec.epsilon / (spec.omega * (1.0 + spec.dim_factor)) + 1e-12)


def test_grid_spec_guards():
    with pytest.raises(ParameterError):
        grid_spec(3, 2, 0.0, 0.5, "full")
    with pytest.raises(ParameterError):
        grid_spec(3, 2, 1.0, 0.0, "full")
    with pytest.raises(ParameterError):
        grid_spec(3, 2, 1.0, 0.5, "diagonal")
    with pytest.raises(DimensionError):
        grid_spec(2, 3, 1.0, 0.5, "full")
    with pytest.raises(NoNullSpaceError):
        grid_spec(3, 3, 1.0, 0.5, "reduced")


@pytest.mark.parametrize("omega,epsilon,mode", [
    (1.0, 1e-320, "full"), (1.0, 1e-320, "reduced"), (1e308, 0.5, "full")])
def test_grid_spec_rejects_a_side_that_overflows(omega, epsilon, mode):
    # the quotient is inf, which math.ceil cannot turn into an integer
    with pytest.raises(ParameterError, match="grid side t overflows"):
        grid_spec(3, 2, omega, epsilon, mode)
    # a tiny epsilon with a finite quotient still gives an exact grid
    assert grid_spec(3, 2, 1.0, 1e-300, mode).t > 10 ** 300


def _digits(spec, *rows):
    """Cell digits of each observation row, as tuples."""
    return list(map(tuple, covering._cell_indices(spec, np.array(rows)).tolist()))


def test_cell_digits_fit_int64_up_to_the_largest_grid_side():
    # y is clamped into [0, 1] before the floor, so at the largest side
    # below 2^63 a point TOL_CERT above the top face joins the last cell
    # without an invalid cast; from 2^63 on the digits cannot hold the grid.
    spec = dataclasses.replace(grid_spec(3, 1, 1.0, 0.5, "full"), t=2 ** 63 - 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        digits = _digits(spec, [-TOL_CERT], [0.0], [0.5], [1.0], [1.0 + TOL_CERT])
    last = 2 ** 63 - 1025
    assert digits == [(0,), (0,), (2 ** 62 - 512,), (last,), (last,)]
    with pytest.raises(ParameterError, match="^epsilon = 0.5 is too small: the grid side "
                                             r"t = 9.22e\+18 overflows the int64 cell digits$"):
        _digits(dataclasses.replace(spec, t=2 ** 63), [0.5])


def test_cell_index_hand_values():
    spec = grid_spec(3, 2, 1.0, 0.5, "full")
    assert spec.t == 8
    # the top face belongs to the last cell
    assert _digits(spec, [0.0, 0.0], [0.5, 0.99], [1.0, 1.0]) == [(0, 0), (4, 7), (7, 7)]


def test_cell_index_tolerance_and_out_of_box(monkeypatch):
    spec = grid_spec(3, 2, 1.0, 0.5, "full")
    assert _digits(spec, [-1e-10, 0.5], [1.0 + 1e-10, 0.5]) == [(0, 4), (7, 4)]
    for outside in ([-0.01, 0.5], [0.5, 1.01]):
        with pytest.raises(OutOfBoxError, match="observation 1 lies outside"):
            _digits(spec, [0.5, 0.5], outside)
    # The box check reads TOL_CERT at call time.
    monkeypatch.setattr(covering, "TOL_CERT", 0.01)
    assert _digits(spec, [-0.005, 1.005]) == [(0, 7)]
    with pytest.raises(OutOfBoxError, match=r"\[0, 1\]\^M \+ 1.0e-02"):
        _digits(spec, [-0.02, 0.5])
    with pytest.raises(DimensionError):
        build_cover(np.array([[0.5]]), spec)


def test_cell_index_consistent_with_side():
    spec = grid_spec(2, 1, 1.0, 0.4, "full")
    y = seeded_rng(41).uniform(0.0, 1.0, size=200)
    digits = [digit for (digit,) in _digits(spec, *y[:, None])]
    assert digits == [min(int(v * spec.t), spec.t - 1) for v in y]


def test_same_cell_observations_are_close():
    spec = grid_spec(4, 2, 1.5, 0.8, "full")
    rng = seeded_rng(42)
    obs = rng.uniform(0.0, 1.0, size=(400, 2))
    cells = {}
    for row, cell in enumerate(_digits(spec, *obs)):
        cells.setdefault(cell, []).append(row)
    bound = math.sqrt(2) / spec.t
    for rows in cells.values():
        for a in rows:
            for b in rows:
                assert np.linalg.norm(obs[a] - obs[b]) <= bound + 1e-12


def test_build_cover_first_wins():
    spec = grid_spec(2, 1, 1.0, 3.0, "full")
    assert spec.t == 1
    ls = LabeledSet.from_arrays([[0.0, 0.0], [1.0, 1.0]], [[0.2], [0.8]])
    reps = build_cover(ls.observations, spec)
    assert reps.tolist() == [0]
    assert _digits(spec, *ls.observations[reps]) == [(0,)]
    assert np.array_equal(ls.subset(reps).signals, [[0.0, 0.0]])


def test_build_cover_every_sampled_cell_occupied():
    op = PiecewiseExampleOperator()
    rng = seeded_rng(43)
    x = np.sort(rng.uniform(0.0, 1.0, size=1000))[:, None]
    ls = LabeledSet.from_operator(op, x)
    spec = grid_spec(1, 1, 1.0, 0.2, "full")
    reps = build_cover(ls.observations, spec)
    assert len(reps) <= spec.t
    cells = _digits(spec, *ls.observations)
    # one representative per occupied cell, each the first row in its cell
    assert len({cells[row] for row in reps}) == len(reps)
    assert {cells[row] for row in reps} == set(cells)
    for row in reps:
        assert cells.index(cells[row]) == row


def _oracle_representatives(digits):
    # The per-row dict loop build_cover used before np.unique, verbatim.
    reps = {}
    for row in range(digits.shape[0]):
        key = tuple(int(d) for d in digits[row])
        if key not in reps:
            reps[key] = row
    return reps


@settings(max_examples=200, deadline=None)
@given(data=st.data(), t=st.integers(1, 5), m=st.integers(1, 4), n=st.integers(1, 60))
def test_build_cover_matches_dict_loop(data, t, m, n):
    # Few cells, with cell edges and the clamped top face among the values.
    edges = [k / t for k in range(t + 1)]
    elements = st.sampled_from(edges) | st.floats(0.0, 1.0)
    obs = data.draw(arrays(np.float64, (n, m), elements=elements))
    spec = covering.GridSpec(t=t, obs_dim=m, signal_dim=1, omega=1.0, epsilon=1.0,
                             dim_factor=1.0)
    expected = _oracle_representatives(covering._cell_indices(spec, obs))
    got = build_cover(obs, spec)
    assert got.tolist() == list(expected.values())
    assert isinstance(got, np.ndarray) and got.dtype == np.int64


def test_build_cover_guards():
    spec = grid_spec(2, 2, 1.0, 0.5, "full")
    with pytest.raises(DegenerateSetError, match="^cannot cover an empty sample$"):
        build_cover(np.empty((0, 2)), spec)
    with pytest.raises(DimensionError, match=r"^sample obs dim 1 != grid dim 2$"):
        build_cover(np.array([[0.5]]), spec)
    with pytest.raises(OutOfBoxError):
        build_cover(np.array([[0.5, 1.7]]), spec)


def test_representative_set_order_matches_first_occurrence():
    spec = grid_spec(2, 1, 1.0, 1.6, "full")
    assert spec.t == 2
    ls = LabeledSet.from_arrays([[0.9, 0.0], [0.1, 0.0], [0.95, 0.0]],
                                [[0.9], [0.1], [0.95]])
    reps = build_cover(ls.observations, spec)
    assert reps.tolist() == [0, 1]
    assert np.array_equal(ls.subset(reps).observations[:, 0], [0.9, 0.1])


def test_cover_pipeline_ramp_recovery():
    op = PiecewiseExampleOperator()
    x = np.linspace(0.0, 1.0, 301)[:, None]
    sample = LabeledSet.from_operator(op, x)
    result = cover_pipeline(sample, omega=1.0, epsilon=0.2)
    assert result.report.max_training_residual <= 1e-9
    assert result.report.max_recovery_error <= 0.2
    assert result.report.cells_occupied <= result.report.cells_bound
    assert len(result.recovery_errors) == len(sample)
    assert result.hypothesis.omega1 == 1.0
    assert result.certificate.passed and result.certificate.omega == 1.0


def test_cover_pipeline_rejects_uncertified_sample():
    op = PiecewiseExampleOperator()
    x = np.linspace(0.0, 1.0, 50)[:, None]
    sample = LabeledSet.from_operator(op, x)
    with pytest.raises(NotLipschitzError) as exc:
        cover_pipeline(sample, omega=0.5, epsilon=0.2)
    assert exc.value.witness is not None
    assert exc.value.witness == exc.value.certificate.witness
    assert exc.value.certificate.verdict == "violated"
    assert exc.value.certificate.max_ratio > 0.5


def test_cover_pipeline_rejects_duplicate_signals_first():
    op = PiecewiseExampleOperator()
    x = np.linspace(0.0, 1.0, 50)[:, None]
    x[30] = x[12]
    sample = LabeledSet(x, op.apply(x))
    for omega in (1.0, 0.5, 0.0):  # certified, uncertified, invalid
        with pytest.raises(LabelingError, match="duplicate signals at indices 12 and 30"):
            cover_pipeline(sample, omega=omega, epsilon=0.2)


def test_cover_pipeline_linear_segment():
    rng = seeded_rng(44)
    a = MatrixOperator(rng.standard_normal((2, 3)))
    start, end = rng.standard_normal(3), rng.standard_normal(3)
    x = start + np.linspace(0.0, 1.0, 400)[:, None] * (end - start)
    raw = LabeledSet.from_operator(a, x)
    # box-normalize observations by hand; distances shrink by the scale
    lo = raw.observations.min(axis=0)
    scale = float((raw.observations.max(axis=0) - lo).max())
    unit_obs = (raw.observations - lo) / scale
    sample = LabeledSet.from_arrays(raw.signals, unit_obs)
    omega = np.linalg.norm(end - start) / np.linalg.norm(a.apply(end) - a.apply(start))
    result = cover_pipeline(sample, omega=omega * scale, epsilon=0.3)
    assert result.report.max_recovery_error <= 0.3
    assert result.report.max_training_residual <= 1e-9


def _readme_sample():
    """The README's library example: a line under a Gaussian 2 x 3 operator."""
    rng = np.random.default_rng(3)
    op = MatrixOperator(rng.standard_normal((2, 3)))
    line = rng.standard_normal(3) + np.linspace(0.0, 1.0, 400)[:, None] * rng.standard_normal(3)
    return LabeledSet.from_operator(op, line)


def test_cover_pipeline_boxes_a_raw_sample():
    # The pipeline certifies and fits the sample as given, at omega, and
    # covers it as if it had been boxed and certified at omega * scale.
    raw = _readme_sample()
    assert raw.observations.min() < 0.0  # outside [0, 1]^2
    omega, epsilon = tight_omega(raw).omega, 0.25
    lo, scale = unit_box(raw.observations)
    boxed = LabeledSet(raw.signals, (raw.observations - lo) / scale)
    result = cover_pipeline(raw, omega, epsilon)
    expected = cover_pipeline(boxed, omega * scale, epsilon)
    assert np.array_equal(result.representatives, expected.representatives)
    assert (result.report.t, result.report.cells_occupied) == \
        (expected.report.t, expected.report.cells_occupied) == (50, 63)
    assert result.certificate.omega == omega
    assert result.report.max_recovery_error <= epsilon
    # The hypothesis takes raw observations.
    assert np.array_equal(result.hypothesis.training.observations,
                          raw.observations[result.representatives])
    errors = np.linalg.norm(result.hypothesis.evaluate(raw.observations) - raw.signals, axis=1)
    assert errors.max() <= epsilon
    assert np.array_equal(errors, result.recovery_errors)
    # build_cover itself still covers only the unit box.
    with pytest.raises(OutOfBoxError):
        build_cover(raw.observations, grid_spec(3, 2, omega * scale, epsilon, "full"))


def test_both_pipelines_take_their_rows_from_the_unit_cover(monkeypatch):
    rng = seeded_rng(46)
    op = MatrixOperator(rng.standard_normal((2, 4)))
    raw = LabeledSet.from_operator(op, 5.0 * rng.standard_normal((60, 4)))
    omega = tight_omega(raw).omega
    calls = []
    unit_cover = covering._unit_cover

    def spy(observations, signal_dim, omega, epsilon, mode):
        out = unit_cover(observations, signal_dim, omega, epsilon, mode)
        calls.append((mode, out[0]))
        return out

    monkeypatch.setattr(covering, "_unit_cover", spy)
    monkeypatch.setattr(svdrec, "_unit_cover", spy)
    full = cover_pipeline(raw, omega, 1.0)
    reduced = fit_reduced(raw, op, omega, 1.0)
    assert [mode for mode, _ in calls] == ["full", "reduced"]
    assert calls[0][1] is full.representatives
    assert calls[1][1] is reduced.representatives


def test_pipelines_train_on_the_cover_rows():
    # Both pipelines train on exactly the rows build_cover picks: the full
    # one on its sample's observations, the reduced one on the unit-boxed
    # effective observations of a rank-2 operator. The grid side is 8.
    rng = seeded_rng(45)
    op = MatrixOperator(rng.standard_normal((3, 2)) @ rng.standard_normal((2, 4)))
    raw = LabeledSet.from_operator(op, rng.standard_normal((300, 4)))
    omega = tight_omega(raw).omega

    lo, scale = unit_box(raw.observations)
    sample = LabeledSet.from_arrays(raw.signals, (raw.observations - lo) / scale)
    epsilon = (1.0 + math.sqrt(4)) * omega * scale * math.sqrt(3) / 7.5
    full = cover_pipeline(sample, omega * scale, epsilon)
    reps = build_cover(sample.observations, grid_spec(4, 3, omega * scale, epsilon, "full"))
    assert 1 < len(reps) < len(sample) and full.report.t == 8
    assert np.array_equal(full.representatives, reps)
    assert np.array_equal(full.hypothesis.training.signals, sample.signals[reps])
    assert np.array_equal(full.hypothesis.training.observations, sample.observations[reps])
    assert full.report.cells_occupied == len(reps)
    assert full.report.max_training_residual == full.recovery_errors[reps].max()

    factors = svd_factor(op)
    eff_obs = factors.project(raw.observations)
    lo, scale = unit_box(eff_obs)
    epsilon = (1.0 + math.sqrt(2)) * omega * scale * math.sqrt(2) / 7.5
    reduced = fit_reduced(raw, op, omega, epsilon)
    spec = grid_spec(4, 2, omega * scale, epsilon, "reduced")
    reps = build_cover((eff_obs - lo) / scale, spec)
    assert 1 < len(reps) < len(raw) and reduced.report.t_reduced == 8
    assert np.array_equal(reduced.representatives, reps)
    training = reduced.recovery.hypothesis.training
    assert np.array_equal(training.observations, eff_obs[reps])
    assert np.array_equal(training.signals, raw.signals[reps] @ factors.v2)
    assert reduced.report.cells_occupied == len(reps)
    assert reduced.report.max_training_residual == reduced.recovery_errors[reps].max()


def test_grid_spec_value_survives_roundtrip():
    spec = grid_spec(6, 2, 0.8, 0.33, "reduced")
    manual = math.ceil((1.0 + math.sqrt(4)) * 0.8 * math.sqrt(2) / 0.33)
    assert spec.t == manual
