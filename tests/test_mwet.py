"""The min-form extension: interpolation, expansion bounds, fitting guards.

Evaluation is compared against a transparent per-point oracle and,
bit for bit, against the fixed 4096-row blocking it replaced, and the
two Lipschitz properties (per-coordinate omega1, stacked omega1 * sqrt(d))
are exercised on random query pairs well outside the training data.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liprec import (
    ConstantTooSmallError,
    DimensionError,
    DomainError,
    LabeledSet,
    MatrixOperator,
    MwetHypothesis,
    NotInjectiveError,
    ParameterError,
    fit,
    mwet,
    tight_omega,
)
from liprec.core import seeded_rng


def _naive_eval(hyp, y):
    """Literal min-form formula, one training point at a time."""
    out = np.empty(hyp.output_dim)
    for i in range(hyp.output_dim):
        vals = [hyp.training.signals[j, i]
                + hyp.omega1 * np.linalg.norm(y - hyp.training.observations[j])
                for j in range(len(hyp.training))]
        out[i] = min(vals)
    return out


def _random_instance(rng, n=20, sig_dim=4, obs_dim=2):
    op = MatrixOperator(rng.standard_normal((obs_dim, sig_dim)))
    x = rng.standard_normal((n, sig_dim))
    return LabeledSet.from_operator(op, x)


def test_fit_defaults_to_tight_constant():
    rng = seeded_rng(20)
    ls = _random_instance(rng)
    hyp = fit(ls)
    assert hyp.omega1 == tight_omega(ls).omega
    assert hyp.omega_global == pytest.approx(hyp.omega1 * math.sqrt(ls.signal_dim))


def test_fit_interpolates_training_data():
    rng = seeded_rng(21)
    for _ in range(5):
        ls = _random_instance(rng, n=int(rng.integers(2, 40)))
        hyp = fit(ls)
        assert hyp.training_residuals().max() <= 1e-9


def test_evaluate_matches_naive_formula():
    rng = seeded_rng(22)
    ls = _random_instance(rng, n=15)
    hyp = fit(ls, omega1=tight_omega(ls).omega * 1.3)
    for _ in range(10):
        y = rng.standard_normal(2) * 3.0
        assert np.allclose(hyp.evaluate(y), _naive_eval(hyp, y), rtol=0, atol=1e-12)


def test_evaluate_batch_agrees_with_single():
    rng = seeded_rng(23)
    ls = _random_instance(rng)
    hyp = fit(ls)
    queries = rng.standard_normal((7, 2))
    batch = hyp.evaluate(queries)
    singles = np.stack([hyp.evaluate(q) for q in queries])
    assert np.array_equal(batch, singles)


def test_evaluate_blocking_boundary():
    # 200 x 2 training points: the tile takes its 256-row floor and the
    # training set splits into two chunks, so both seams are crossed
    rng = seeded_rng(24)
    ls = _random_instance(rng, n=200)
    hyp = fit(ls)
    tile = max(mwet._MIN_ROWS, mwet._TILE_ELEMENTS // len(ls))
    assert mwet._TILE_ELEMENTS // tile < len(ls)
    queries = rng.standard_normal((tile + 10, 2))
    batch = hyp.evaluate(queries)
    seam = slice(tile - 5, tile + 5)
    assert np.allclose(batch[seam], np.stack(
        [_naive_eval(hyp, q) for q in queries[seam]]), atol=1e-12)


def _blocked_4096_eval(self, y):
    """MwetHypothesis.evaluate as it was with fixed 4096-row query blocks."""
    q, single = mwet.as_batch(y, self.input_dim, "observations")
    obs = self.training.observations
    sig = self.training.signals
    out = np.empty((q.shape[0], self.output_dim))
    for start in range(0, q.shape[0], 4096):
        block = q[start:start + 4096]
        diffs = block[:, None, :] - obs[None, :, :]
        base = self.omega1 * np.sqrt(np.einsum("kjm,kjm->kj", diffs, diffs))
        for i in range(self.output_dim):
            out[start:start + 4096, i] = (base + sig[:, i]).min(axis=1)
    return out[0] if single else out


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.sampled_from([1, 2, 50, 300]), obs_dim=st.integers(1, 20),
       sig_dim=st.integers(1, 8),
       count=st.sampled_from(["single", "0", "tile-1", "tile", "tile+1", "3*tile+2"]),
       tile_rows=st.sampled_from([None, 1, 7]),
       chunk=st.sampled_from([None, 1, 7, "n"]),
       omega1=st.sampled_from([0.0, 1.0, 1.5, 3.0]),
       grid=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_tiled_evaluate_bit_identical_to_4096_blocks(n, obs_dim, sig_dim, count, tile_rows,
                                                     chunk, omega1, grid, seed):
    # Integer-grid data makes distances and minima tie and lets training
    # observations coincide; its sums are exact, so Gaussian data is drawn
    # too, to catch any change of summation order; obs_dim reaches one and
    # two full blocks of eight coordinates, with and without a tail. The
    # row tile is the default one, or 1 or 7 rows; the training chunk is
    # the default one for that tile, 1 or 7 points, or all n. Both module
    # constants are patched so that evaluate tiles exactly so.
    rng = np.random.default_rng(seed)

    def draw(shape):
        if grid:
            return rng.integers(-3, 4, size=shape).astype(float)
        return rng.standard_normal(shape) * 3.0

    training = LabeledSet(draw((n, sig_dim)), draw((n, obs_dim)))
    hyp = MwetHypothesis(training=training, omega1=omega1)
    tile = tile_rows or max(mwet._MIN_ROWS, mwet._TILE_ELEMENTS // n)
    points = {None: mwet._TILE_ELEMENTS // tile, "n": n}.get(chunk, chunk)
    points = min(n, max(1, points))
    k = {"0": 0, "tile-1": tile - 1, "tile": tile, "tile+1": tile + 1,
         "3*tile+2": 3 * tile + 2}.get(count, 1)
    queries = draw((k, obs_dim))
    if count == "single":
        queries = queries[0]
    with mock.patch.object(mwet, "_TILE_ELEMENTS", points * tile), \
            mock.patch.object(mwet, "_MIN_ROWS", tile):
        got = hyp.evaluate(queries)
    expected = _blocked_4096_eval(hyp, queries)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


LANE_DIMS = list(range(1, 41)) + [127, 128, 129, 200, 256, 300]


@pytest.mark.parametrize("m", LANE_DIMS)
def test_observation_major_einsum_matches_query_major(m):
    # evaluate sums the squared differences over m one coordinate at a
    # time, on observation-major (chunk, rows) blocks, into the two lanes
    # of mwet._einsum_lanes, each a partial view of its buffer; the
    # 4096-row blocking summed the same squares as "kjm,kjm->kj" on the
    # query-major block. Entries spread over scales 1e-3..1e3, so any
    # change in the order of the sums shows in the bits. The lanes are
    # those of numpy's two-lane (SSE, no FMA) einsum loop; a numpy build
    # that sums in another order fails here, as it should, since evaluate
    # would then differ from the einsum oracle.
    rng = np.random.default_rng(m)
    lanes = mwet._einsum_lanes(m)
    assert sorted(lanes[0] + lanes[1]) == list(range(m))
    for chunk, rows in [(1, 1), (1, 9), (7, 1), (5, 12), (40, 3)]:
        block = rng.standard_normal((rows, chunk, m)) * 10.0 ** rng.uniform(-3, 3, (rows, chunk, m))
        expected = np.einsum("kjm,kjm->kj", block, block)
        columns = block.transpose(2, 1, 0)
        for spare in (0, 3):
            acc = np.empty((2, chunk + spare, rows + spare))
            square = np.empty((chunk + spare, rows + spare))[:chunk, :rows]
            for lane, coords in zip(acc[:, :chunk, :rows], lanes):
                for pos, t in enumerate(coords):
                    d = square if pos else lane
                    np.multiply(columns[t], columns[t], out=d)
                    if pos:
                        lane += square
            got = acc[0, :chunk, :rows]
            if lanes[1]:
                got += acc[1, :chunk, :rows]
            assert got.T.tobytes() == expected.tobytes(), (chunk, rows, spare)


def test_evaluate_accepts_any_query_layout():
    rng = seeded_rng(33)
    hyp = fit(_random_instance(rng, n=40, obs_dim=3))
    queries = rng.standard_normal((700, 3))
    expected = hyp.evaluate(queries)
    assert expected.flags.c_contiguous
    wide = rng.standard_normal((1400, 7))
    wide[::2, 1:7:2] = queries
    fortran = np.asfortranarray(queries)
    for view, want in [(fortran, expected), (wide[::2, 1:7:2], expected),
                       (queries[::-1], expected[::-1]), (fortran[::-3], expected[::-3]),
                       (fortran[5], expected[5])]:
        got = hyp.evaluate(view)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_evaluate_peak_memory_is_bounded_by_the_tile():
    # 10^4 queries against 1500 x 8 training points: the fixed 4096-row
    # blocking peaked near 800 MB of traced allocations here.
    rng = seeded_rng(26)
    training = LabeledSet(rng.standard_normal((1500, 8)), rng.standard_normal((1500, 8)))
    hyp = MwetHypothesis(training=training, omega1=2.0)
    queries = rng.standard_normal((10 ** 4, 8))
    tracemalloc.start()
    try:
        hyp.evaluate(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_evaluate_rejects_wrong_width():
    rng = seeded_rng(25)
    hyp = fit(_random_instance(rng))
    with pytest.raises(DimensionError):
        hyp.evaluate(np.zeros(3))


def test_evaluate_rejects_non_finite_queries():
    hyp = fit(_random_instance(seeded_rng(25)))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            hyp.evaluate([bad, 0.0])


def test_coordinate_lipschitz_bound():
    rng = seeded_rng(26)
    ls = _random_instance(rng)
    hyp = fit(ls)
    y1 = rng.standard_normal((500, 2)) * 4.0
    y2 = rng.standard_normal((500, 2)) * 4.0
    g1, g2 = hyp.evaluate(y1), hyp.evaluate(y2)
    gaps = np.linalg.norm(y1 - y2, axis=1)
    keep = gaps > 1e-8
    for i in range(hyp.output_dim):
        ratios = np.abs(g1[keep, i] - g2[keep, i]) / gaps[keep]
        assert ratios.max() <= hyp.omega1 + 1e-9


def test_global_lipschitz_bound_random_pairs():
    rng = seeded_rng(27)
    ls = _random_instance(rng)
    hyp = fit(ls)
    y1 = rng.standard_normal((2000, 2)) * 5.0
    y2 = rng.standard_normal((2000, 2)) * 5.0
    num = np.linalg.norm(hyp.evaluate(y1) - hyp.evaluate(y2), axis=1)
    den = np.linalg.norm(y1 - y2, axis=1)
    keep = den > 1e-8
    assert (num[keep] / den[keep]).max() <= hyp.omega_global + 1e-9


def test_lipschitz_audit_within_global_bound_and_deterministic():
    rng = seeded_rng(28)
    ls = _random_instance(rng)
    hyp = fit(ls)
    r1 = hyp.lipschitz_audit(3000, seed=5)
    r2 = hyp.lipschitz_audit(3000, seed=5)
    assert r1 == r2
    assert 0.0 < r1 <= hyp.omega_global + 1e-9
    with pytest.raises(ParameterError):
        hyp.lipschitz_audit(0, seed=1)


def test_lipschitz_audit_measures_a_huge_finite_constant():
    # omega1 * sqrt(4) = 1e308 is finite and the outputs stay below it, but
    # their squared differences overflow inside the norm
    signals = np.linspace(0.0, 1.0, 30)[:, None] * np.array([1.0, 0.5, -0.25, 0.75])
    ls = LabeledSet.from_arrays(signals, signals[:, :2] + signals[:, 2:])
    hyp = fit(ls, omega1=5e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio = hyp.lipschitz_audit(2000, seed=7)
    assert 0.0 < ratio <= hyp.omega_global
    # rows whose squares stay in range keep every bit of the plain norm
    rng = seeded_rng(31)
    d = rng.standard_normal((500, 7)) * 10.0 ** rng.uniform(-100.0, 100.0, (500, 1))
    d[::7] *= 1e200  # rows whose squares overflow, rescaled exactly
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(d, axis=1)
    scaled = np.linalg.norm(d * 2.0 ** -700, axis=1) * 2.0 ** 700
    expected = np.where(np.isfinite(plain), plain, scaled)
    assert mwet._row_norms(d).tobytes() == expected.tobytes()


def test_audit_degenerate_observations():
    # every training observation identical: sampling box collapses
    ls = LabeledSet.from_arrays([[0.0], [1.0]], [[2.0], [2.0]],
                                check_duplicates=False)
    hyp = MwetHypothesis(training=ls, omega1=1.0)
    assert hyp.lipschitz_audit(100, seed=0) == 0.0


def test_fit_accepts_larger_constant():
    rng = seeded_rng(29)
    ls = _random_instance(rng)
    omega = tight_omega(ls).omega
    hyp = fit(ls, omega1=omega * 2.0)
    assert hyp.omega1 == omega * 2.0
    assert hyp.training_residuals().max() <= 1e-9


def test_fit_rejects_constant_below_tight():
    rng = seeded_rng(30)
    ls = _random_instance(rng)
    omega = tight_omega(ls).omega
    with pytest.raises(ConstantTooSmallError):
        fit(ls, omega1=omega * 0.5)
    # equality within rounding is allowed
    hyp = fit(ls, omega1=omega * (1 - 1e-12))
    assert hyp.training_residuals().max() <= 1e-9


def test_fit_rejects_constant_whose_global_bound_overflows():
    # omega1 is finite, but omega1 * sqrt(4) is inf, a bound any audit passes
    ls = _random_instance(seeded_rng(34))
    with pytest.raises(ParameterError, match="overflows float64"):
        fit(ls, omega1=1e308)
    assert fit(ls, omega1=1e307).omega_global == 1e307 * 2.0


def test_fit_singleton_is_constant_map():
    ls = LabeledSet.from_arrays([[3.0, -1.0]], [[0.5]])
    hyp = fit(ls)
    assert hyp.omega1 == 0.0
    assert np.array_equal(hyp.evaluate([100.0]), [3.0, -1.0])
    assert np.array_equal(hyp.evaluate([-7.0]), [3.0, -1.0])


def test_fit_guards():
    rng = seeded_rng(31)
    ls = _random_instance(rng)
    with pytest.raises(ParameterError):
        fit(ls, omega1=-1.0)
    colliding = LabeledSet.from_arrays([[0.0], [1.0]], [[0.0], [0.0]],
                                       check_duplicates=False)
    with pytest.raises(NotInjectiveError):
        fit(colliding)


def test_interpolation_with_inflated_constant_still_exact():
    # the guarantee only needs omega1 >= tight; make it much larger
    rng = seeded_rng(32)
    ls = _random_instance(rng, n=30)
    hyp = fit(ls, omega1=tight_omega(ls).omega * 50.0)
    assert hyp.training_residuals().max() <= 1e-9
