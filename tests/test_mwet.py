"""The min-form extension: interpolation, expansion bounds, fitting guards.

Evaluation is compared against a transparent per-point oracle and,
bit for bit, against the fixed 4096-row blocking it replaced, and the
two Lipschitz properties (per-coordinate omega1, stacked omega1 * sqrt(d))
are exercised on random query pairs well outside the training data.
"""

import json
import math
import os
import pathlib
import threading
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
    cli,
    core,
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
    # 200 x 2 training points: the tile takes its _MIN_ROWS floor and the
    # training set splits into chunks of _TILE_ELEMENTS // tile points (12
    # chunks of 16 and one of 8 at 2048 rows), so the seam between the
    # first two tiles is checked across every chunk seam
    rng = seeded_rng(24)
    ls = _random_instance(rng, n=200)
    hyp = fit(ls)
    tile = max(mwet._MIN_ROWS, mwet._TILE_ELEMENTS // len(ls))
    assert 1 < mwet._TILE_ELEMENTS // tile < len(ls)
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
       count=st.sampled_from(["single", "0", "tile-1", "tile", "tile+1", "2*tile-1",
                              "2*tile", "3*tile", "3*tile+2", "4*tile+1"]),
       tile=st.sampled_from([1, 7, 300]),
       chunk=st.sampled_from([None, 1, 7, "n"]),
       omega1=st.sampled_from([0.0, 1.0, 1.5, 3.0]),
       threads=st.sampled_from(["1", "2", "3"]),
       grid=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_tiled_evaluate_bit_identical_to_4096_blocks(n, obs_dim, sig_dim, count, tile,
                                                     chunk, omega1, threads, grid, seed):
    # Integer-grid data makes distances and minima tie and lets training
    # observations coincide; its sums are exact, so Gaussian data is drawn
    # too, to catch any change of summation order; obs_dim reaches one and
    # two full blocks of eight coordinates, with and without a tail. The
    # row tile is 1, 7 or 300 rows; the training chunk is the default one
    # for that tile, 1 or 7 points, or all n. Both module constants are
    # patched so that evaluate tiles exactly so. (The default 8192-row
    # tile is checked on its own below: here its oracle blocks would reach
    # 200 MB.) The tiles run on 1, 2 or 3 threads, with the size cutoff
    # for threading patched away; 2, 3 and 5 tiles hand threads whole and
    # partial last tiles, and more tiles than threads.
    rng = np.random.default_rng(seed)

    def draw(shape):
        if grid:
            return rng.integers(-3, 4, size=shape).astype(float)
        return rng.standard_normal(shape) * 3.0

    training = LabeledSet(draw((n, sig_dim)), draw((n, obs_dim)))
    hyp = MwetHypothesis(training=training, omega1=omega1)
    points = {None: mwet._TILE_ELEMENTS // tile, "n": n}.get(chunk, chunk)
    points = min(n, max(1, points))
    k = {"0": 0, "tile-1": tile - 1, "tile": tile, "tile+1": tile + 1,
         "2*tile-1": 2 * tile - 1, "2*tile": 2 * tile, "3*tile": 3 * tile,
         "3*tile+2": 3 * tile + 2, "4*tile+1": 4 * tile + 1}.get(count, 1)
    queries = draw((k, obs_dim))
    if count == "single":
        queries = queries[0]
    with mock.patch.object(mwet, "_TILE_ELEMENTS", points * tile), \
            mock.patch.object(mwet, "_MIN_ROWS", tile), \
            mock.patch.object(mwet, "_THREAD_PAIRS", 0), \
            mock.patch.dict(os.environ, {"LIPREC_THREADS": threads}):
        got = hyp.evaluate(queries)
    expected = _blocked_4096_eval(hyp, queries)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n, obs_dim, sig_dim", [(52, 4, 8), (1500, 3, 2)])
def test_default_tiles_bit_identical_to_4096_blocks(monkeypatch, n, obs_dim, sig_dim):
    # The default tile and chunk, nothing patched, on the benchmark's call
    # shapes: 20000 queries against 52 training points, as in criterion
    # 2's audits (ten tiles on the calling thread, under the threading
    # cutoff), and against 1500, as in mwet_dense's audit (the same tiles,
    # threaded). The dimensions stay small at n = 1500 for the oracle's
    # sake: its (4096, n, M) block is 147 MB at M = 3, and its einsum and
    # per-output mins take seconds.
    rng = np.random.default_rng(n)
    training = LabeledSet(rng.standard_normal((n, sig_dim)),
                          rng.standard_normal((n, obs_dim)))
    hyp = MwetHypothesis(training=training, omega1=1.5)
    queries = rng.standard_normal((20000, obs_dim)) * 3.0
    expected = _blocked_4096_eval(hyp, queries)
    calls = _spy_map_blocks(monkeypatch)
    for threads in ("1", "2"):
        monkeypatch.setenv("LIPREC_THREADS", threads)
        calls.clear()
        assert np.array_equal(hyp.evaluate(queries), expected)
        assert calls == [(10, 1 if n == 52 else int(threads))]


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


def _segment_instance():
    signals = np.linspace(0.0, 1.0, 30)[:, None] * np.array([10.0, 5.0, -2.5, 7.5])
    return LabeledSet.from_arrays(signals, signals[:, :2] + signals[:, 2:])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_evaluate_rejects_outputs_that_overflow(monkeypatch, threads):
    # omega_global = 5e307 * sqrt(4) = 1e308 is finite, but omega1 times the
    # distance of a query a few units off the training segment is not, so
    # the recovered value is not either; evaluate used to warn and return
    # inf. Tiles of 7 rows over two threads: the first bad query, row 450,
    # is named whichever thread computed it, after every tile has finished
    # (the size cutoff for threading is patched away).
    monkeypatch.setenv("LIPREC_THREADS", threads)
    monkeypatch.setattr(mwet, "_MIN_ROWS", 7)
    monkeypatch.setattr(mwet, "_TILE_ELEMENTS", 7 * 30)
    monkeypatch.setattr(mwet, "_THREAD_PAIRS", 0)
    ls = _segment_instance()
    queries = ls.observations[np.arange(600) % 30]
    hyp = fit(ls, omega1=5e307)
    assert np.isfinite(hyp.evaluate(queries)).all()
    bad = queries.copy()
    bad[[450, 599]] = [100.0, 100.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^the recovered value of query 450 "
                                              "overflows float64"):
            hyp.evaluate(bad)
        with pytest.raises(DomainError, match="query 0 "):
            hyp.evaluate([100.0, 100.0])


def _min_form_by_hypot(hyp, y, scale):
    """The min-form value of one query in Python floats, math.hypot's distance."""
    best = []
    for i in range(hyp.output_dim):
        terms = [x[i] + hyp.omega1 * scale * math.hypot(*(y / scale - obs / scale))
                 for x, obs in zip(hyp.training.signals, hyp.training.observations)]
        best.append(min(terms))
    return np.array(best)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_evaluate_recovers_values_whose_terms_overflow(monkeypatch, threads):
    # Values that fit float64 although a step of their terms overflows:
    # squares of a query 1e155 away at omega1 = 1e-151, where the value is
    # about 1e4 and the signals decide the min; squares at 1e200, omega1 = 1;
    # the gap and the distance of a query near +-1.5e308 at omega1 = 0.25.
    # The far rows of a multi-tile call (threaded, with the size cutoff
    # patched away) match a math.hypot oracle, the other rows keep their
    # bits, and no numpy warning is printed.
    monkeypatch.setenv("LIPREC_THREADS", threads)
    monkeypatch.setattr(mwet, "_MIN_ROWS", 7)
    monkeypatch.setattr(mwet, "_TILE_ELEMENTS", 7 * 30)
    monkeypatch.setattr(mwet, "_THREAD_PAIRS", 0)
    ls = _segment_instance()
    queries = ls.observations[np.arange(600) % 30]
    for omega1, far, scale in [(1e-151, [1e155, -3e154], 1.0), (1.0, [1e200, 0.0], 1.0),
                               (0.25, [1.5e308, -1.5e308], 4.0)]:
        hyp = MwetHypothesis(training=ls, omega1=omega1)
        near = hyp.evaluate(queries)
        mixed = queries.copy()
        mixed[[450, 599]] = far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hyp.evaluate(mixed)
            single = hyp.evaluate(far)
        keep = np.ones(600, bool)
        keep[[450, 599]] = False
        assert np.array_equal(got[keep], near[keep])
        want = _min_form_by_hypot(hyp, np.array(far), scale)
        for row in (got[450], got[599], single):
            np.testing.assert_allclose(row, want, rtol=1e-14, atol=0)
        if omega1 == 1e-151:
            assert 1e4 < want.min() < want.max() < 2e4


def test_evaluate_recovers_a_value_whose_distance_overflows():
    # Four coordinates about 2e308 apart: the distance, about 4e308, does
    # not fit float64 even halved, but a quarter of it plus a signal does:
    # the second point wins, at about 6.4e307.
    obs = np.full((2, 4), -1e308)
    obs[1, 3] = -5e307
    hyp = MwetHypothesis(training=LabeledSet(np.array([[1.0], [-3e307]]), obs), omega1=0.25)
    query = np.full(4, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hyp.evaluate(query)
    want = _min_form_by_hypot(hyp, query, 16.0)
    assert 6e307 < want[0] < 7e307
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_evaluate_recovers_an_overflowed_entry_next_to_a_finite_one():
    # omega1 = 1e150. The near training point is 1e143 away: its term is
    # 1e293 in column 0, and overflows in column 1 on top of the largest
    # float64. The far one is 2e154 away, so its squares overflow, but its
    # column-1 term, -1e308 + 2e304, fits float64 and is the min. Column 0
    # keeps its bits; column 1 is recomputed instead of rejected.
    training = LabeledSet(np.array([[0.0, np.finfo(float).max], [0.0, -1e308]]),
                          np.array([[1e143, 0.0], [2e154, 0.0]]))
    hyp = MwetHypothesis(training=training, omega1=1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hyp.evaluate([0.0, 0.0])
    assert got[0] == 1e150 * 1e143
    assert got[1] == pytest.approx(-1e308 + 1e150 * 2e154, rel=1e-15)


def test_evaluate_at_omega_zero_recovers_the_signal_minima():
    # Every term is 0 * distance + signal: even a query whose squares
    # overflow recovers the column minima, where 0 * inf used to give NaN
    ls = _segment_instance()
    hyp = MwetHypothesis(training=ls, omega1=0.0)
    queries = np.array([[1e200, 0.0], [0.0, 0.0], [-1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hyp.evaluate(queries)
    assert np.array_equal(got, np.broadcast_to(ls.signals.min(axis=0), got.shape))
    assert np.array_equal(hyp.evaluate(queries[0]), ls.signals.min(axis=0))


def _spy_map_blocks(monkeypatch):
    """Record (blocks, workers) of each core._map_blocks call."""
    calls = []
    map_blocks = core._map_blocks

    def spy(fn, starts, count):
        calls.append((len(starts), count))
        return map_blocks(fn, starts, count)

    monkeypatch.setattr(core, "_map_blocks", spy)
    return calls


def test_evaluate_threads_only_calls_of_the_cutoff_size(monkeypatch):
    # 8 training points: tiles of 4096 rows in one chunk of 8, and 2^19
    # queries are 2^22 distances, the cutoff. One query fewer runs on the
    # calling thread; at the cutoff the 128 tiles run on LIPREC_THREADS
    # threads, at most four.
    rng = seeded_rng(43)
    hyp = MwetHypothesis(training=LabeledSet(rng.standard_normal((8, 3)),
                                             rng.standard_normal((8, 2))), omega1=2.0)
    queries = rng.standard_normal((2 ** 19, 2))
    assert 2 ** 19 * 8 == mwet._THREAD_PAIRS
    calls = _spy_map_blocks(monkeypatch)
    for threads, workers in [("1", 1), ("2", 2), ("3", 3), ("16", 4)]:
        monkeypatch.setenv("LIPREC_THREADS", threads)
        calls.clear()
        below = hyp.evaluate(queries[:-1])
        assert np.array_equal(hyp.evaluate(queries)[:-1], below)
        assert calls == [(128, 1), (128, workers)]


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_evaluate_reads_the_thread_budget_at_any_size(monkeypatch, raw):
    # LIPREC_THREADS is read on every call, as rip_delta reads it: an
    # invalid value fails a 10-query call as it fails one of 2^19 queries
    # against 8 training points (the threading cutoff), and the omega1 = 0
    # shortcut and the audit as well.
    rng = seeded_rng(43)
    training = LabeledSet(rng.standard_normal((8, 3)), rng.standard_normal((8, 2)))
    queries = rng.standard_normal((2 ** 19, 2))
    monkeypatch.setenv("LIPREC_THREADS", raw)
    for omega1 in (2.0, 0.0):
        hyp = MwetHypothesis(training=training, omega1=omega1)
        for call in (lambda: hyp.evaluate(queries[:10]), lambda: hyp.evaluate(queries),
                     lambda: hyp.lipschitz_audit(10, seed=1)):
            with pytest.raises(ParameterError, match="^LIPREC_THREADS must be"):
                call()


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_tiles_around_the_ufunc_buffer_bit_identical_to_4096_blocks(monkeypatch, shift,
                                                                    threads, grid):
    # Tiles of one row fewer than the ufunc buffer that evaluate's blocks
    # run under, as many rows, and one more: each block's broadcast calls
    # have inner loops just below, at and just above the buffer, and a
    # short last tile of 3 rows far below it. The training chunk is the
    # default one for the tile, 32 points of 50. Integer-grid data ties
    # distances and minima; Gaussian data shows any change of summation
    # order.
    rows = core._UFUNC_BUFFER + shift
    monkeypatch.setattr(mwet, "_MIN_ROWS", rows)
    monkeypatch.setattr(mwet, "_THREAD_PAIRS", 0)
    monkeypatch.setenv("LIPREC_THREADS", threads)
    rng = np.random.default_rng(rows)

    def draw(shape):
        if grid:
            return rng.integers(-3, 4, size=shape).astype(float)
        return rng.standard_normal(shape) * 3.0

    hyp = MwetHypothesis(training=LabeledSet(draw((50, 4)), draw((50, 11))), omega1=1.5)
    queries = draw((2 * rows + 3, 11))
    calls = _spy_map_blocks(monkeypatch)
    got = hyp.evaluate(queries)
    assert calls == [(3, int(threads))]
    assert got.tobytes() == _blocked_4096_eval(hyp, queries).tobytes()


def _numpy_state():
    return np.getbufsize(), np.geterr()


CALLER_STATES = [(16, {"all": "ignore"}), (8192, {"all": "warn"}),
                 (1 << 16, {"divide": "ignore", "over": "warn", "under": "print",
                            "invalid": "ignore"})]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("bufsize, err", CALLER_STATES)
def test_public_calls_keep_the_callers_numpy_state(monkeypatch, threads, bufsize, err):
    # evaluate's blocks and the tiled pair scan set numpy's ufunc buffer
    # on each thread that runs them. After evaluate, the audit and
    # tight_omega (30 points: the tiled scan), the caller's buffer size
    # and error settings are as it set them, whether the call returned,
    # raised DomainError (the overflow fixtures above), or failed inside
    # a block. Tiles of 7 rows, with the threading cutoff patched away,
    # hand blocks to every thread.
    monkeypatch.setenv("LIPREC_THREADS", threads)
    monkeypatch.setattr(mwet, "_MIN_ROWS", 7)
    monkeypatch.setattr(mwet, "_TILE_ELEMENTS", 7 * 30)
    monkeypatch.setattr(mwet, "_THREAD_PAIRS", 0)
    ls = _segment_instance()
    hyp, huge = fit(ls, omega1=2.0), fit(ls, omega1=5e307)
    far = LabeledSet.from_arrays([[0.0], [1.0]], [[-1e154], [1e154]])
    queries = ls.observations[np.arange(600) % 30]

    def in_block(dx, dy):
        raise DomainError("raised inside a tile")

    returning = [lambda: hyp.evaluate(queries), lambda: hyp.lipschitz_audit(300, seed=1),
                 lambda: tight_omega(ls)]
    raising = [lambda: huge.evaluate(np.vstack([queries, [100.0, 100.0]])),
               lambda: huge.lipschitz_audit(100, seed=3), lambda: tight_omega(far),
               lambda: core._first_max_pair(ls.signals, ls.observations, in_block)]
    old_err = np.seterr(**err)
    old_size = np.setbufsize(bufsize)
    try:
        state = _numpy_state()
        for call in returning:
            call()
            assert _numpy_state() == state
        for call in raising:
            with pytest.raises(DomainError):
                call()
            assert _numpy_state() == state
        with mock.patch.object(mwet, "_einsum_lanes", lambda m: ([m], [])):
            with pytest.raises(IndexError):  # coordinate m is out of range
                hyp.evaluate(queries)
        assert _numpy_state() == state
    finally:
        np.setbufsize(old_size)
        np.seterr(**old_err)


def test_each_block_sets_the_ufunc_buffer_on_its_own_thread(monkeypatch):
    # evaluate sets the small buffer once per tile, on the thread that
    # runs the tile, and gives that thread's own size back after it (a
    # worker thread starts at numpy's default); the tiled scan does so
    # once per scan. 600 queries in tiles of 7 rows are 86 tiles.
    ls = _segment_instance()  # its duplicate check is a tiled scan too
    sizes = {}
    setbufsize = np.setbufsize

    def spy(size):
        sizes.setdefault(threading.get_ident(), []).append(size)
        return setbufsize(size)

    monkeypatch.setattr(np, "setbufsize", spy)
    monkeypatch.setenv("LIPREC_THREADS", "2")
    monkeypatch.setattr(mwet, "_MIN_ROWS", 7)
    monkeypatch.setattr(mwet, "_TILE_ELEMENTS", 7 * 30)
    monkeypatch.setattr(mwet, "_THREAD_PAIRS", 0)
    MwetHypothesis(training=ls, omega1=2.0).evaluate(ls.observations[np.arange(600) % 30])
    assert sum(len(seen) for seen in sizes.values()) == 2 * 86
    for seen in sizes.values():
        assert seen == [core._UFUNC_BUFFER, 8192] * (len(seen) // 2)
    sizes.clear()
    tight_omega(ls)
    assert sizes == {threading.get_ident(): [core._UFUNC_BUFFER, 8192]}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_results_do_not_depend_on_the_callers_buffer_size(monkeypatch, threads):
    # A caller's ufunc buffer of 16 elements, numpy's default 8192 or 2^16
    # changes no bit of evaluate, the audit or the tiled scan's
    # certificate. 5000 queries against 300 training points run as three
    # default tiles, threaded with the cutoff patched away; 300 points
    # take the tiled scan. The expected values are computed first, at
    # numpy's default buffer.
    monkeypatch.setenv("LIPREC_THREADS", threads)
    monkeypatch.setattr(mwet, "_THREAD_PAIRS", 0)
    rng = seeded_rng(44)
    training = LabeledSet(rng.standard_normal((300, 5)), rng.standard_normal((300, 9)))
    hyp = MwetHypothesis(training=training, omega1=1.5)
    queries = rng.standard_normal((5000, 9)) * 3.0
    expected = _blocked_4096_eval(hyp, queries).tobytes()
    audit = _evaluate_audit(hyp, 700, seed=5).hex()
    cert = tight_omega(training)
    for size in (16, 8192, 1 << 16):
        old = np.setbufsize(size)
        try:
            got, ratio, again = (hyp.evaluate(queries), hyp.lipschitz_audit(700, seed=5),
                                 tight_omega(training))
        finally:
            np.setbufsize(old)
        assert got.tobytes() == expected
        assert ratio.hex() == audit
        assert (again.omega.hex(), again.witness, again._pairs_examined) == (
            cert.omega.hex(), cert.witness, 300 * 299 // 2)


def test_evaluate_peak_memory_stays_bounded_on_many_threads(monkeypatch):
    # 64 tiles of 2048 queries against 100 x 8 training points, with
    # LIPREC_THREADS = 16: four threads run, each with one buffer set of
    # about 0.9 MiB, so the traced peak (with the 1 MiB output) stays under
    # the tile-bound test's bound; sixteen sets would pass it.
    rng = seeded_rng(26)
    training = LabeledSet(rng.standard_normal((100, 1)), rng.standard_normal((100, 8)))
    hyp = MwetHypothesis(training=training, omega1=2.0)
    queries = rng.standard_normal((16 * 8192, 8))
    monkeypatch.setenv("LIPREC_THREADS", "16")
    calls = _spy_map_blocks(monkeypatch)
    tracemalloc.start()
    try:
        hyp.evaluate(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [(64, mwet._MAX_THREADS)]
    assert peak < 8 * 2 ** 20


def test_cli_mwet_reports_identical_for_one_and_two_threads(tmp_path, monkeypatch):
    # mwet_segment.json on 200 signals audits 41000 pairs in one evaluate
    # call: 82000 queries against 200 training points are 16.4M distances,
    # above the cutoff, in 40 tiles of 2048 rows and one of 80
    problem = pathlib.Path(__file__).resolve().parent.parent / "problems" / "mwet_segment.json"
    workers = _spy_map_blocks(monkeypatch)
    reports = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("LIPREC_THREADS", threads)
        workers.clear()
        out = tmp_path / f"report-{threads}.json"
        assert cli.main(["run", str(problem), "--out", str(out),
                         "--set", "signals.count=200",
                         "--set", "params.num_pairs=41000"]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert report["metadata"].pop("threads") == int(threads)
        for clock in ("runtime_ms", "timestamp"):
            report["metadata"].pop(clock)
        reports[threads] = json.dumps(report, sort_keys=True)
        # the training residuals (one tile), then the audit
        assert workers == [(1, 1), (41, int(threads))]
    assert reports["1"] == reports["2"]


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


def _audit_box(hyp):
    """lipschitz_audit's sampling box (lo, hi) and its redraw floor."""
    obs = hyp.training.observations
    lo, hi = obs.min(axis=0), obs.max(axis=0)
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    lo, hi = center - 1.5 * half, center + 1.5 * half
    return lo, hi, mwet._AUDIT_FLOOR * float(np.linalg.norm(hi - lo))


def _two_draw_audit(hyp, num_pairs, seed):
    """lipschitz_audit as it was with one draw and one evaluate call per endpoint."""
    lo, hi, floor = _audit_box(hyp)
    rng = seeded_rng(seed)
    y1 = rng.uniform(lo, hi, size=(num_pairs, hyp.input_dim))
    y2 = rng.uniform(lo, hi, size=(num_pairs, hyp.input_dim))
    redrawn = 0
    for _ in range(64):
        close = np.flatnonzero(np.linalg.norm(y1 - y2, axis=1) < floor)
        if close.size == 0:
            break
        redrawn += close.size
        y2[close] = rng.uniform(lo, hi, size=(close.size, hyp.input_dim))
    num = mwet._row_norms(hyp.evaluate(y1) - hyp.evaluate(y2))
    den = mwet._row_norms(y1 - y2)
    valid = den >= floor
    return float((num[valid] / den[valid]).max()), redrawn


@pytest.mark.parametrize("obs_dim,num_pairs,threads", [(2, 3000, "2"), (1, 20000, "1"),
                                                       (1, 20000, "2")])
def test_lipschitz_audit_bit_identical_to_two_draws(monkeypatch, obs_dim, num_pairs, threads):
    # One (2, k, M) draw takes the stream of two (k, M) draws, redraws go
    # into the second endpoints, and one evaluate call gives each query the
    # bits of its own call. In one dimension 20000 pairs redraw some close
    # pairs, so the redraw stream is pinned too.
    monkeypatch.setenv("LIPREC_THREADS", threads)
    hyp = fit(_random_instance(seeded_rng(29), n=40, obs_dim=obs_dim))
    expected, redrawn = _two_draw_audit(hyp, num_pairs, seed=11)
    assert redrawn > 0 or obs_dim > 1
    assert hyp.lipschitz_audit(num_pairs, seed=11) == expected


def _evaluate_audit(hyp, num_pairs, seed):
    """lipschitz_audit as it was before its output-major rows: one draw, the
    public evaluate on both endpoints, and _row_norms of (pairs, d) rows."""
    lo, hi, floor = _audit_box(hyp)
    rng = seeded_rng(seed)
    ends = rng.uniform(lo, hi, size=(2, num_pairs, hyp.input_dim))
    y1, y2 = ends
    for _ in range(64):
        close = np.flatnonzero(np.linalg.norm(y1 - y2, axis=1) < floor)
        if close.size == 0:
            break
        y2[close] = rng.uniform(lo, hi, size=(close.size, hyp.input_dim))
    recovered = hyp.evaluate(ends.reshape(2 * num_pairs, hyp.input_dim))
    g1, g2 = recovered.reshape(2, num_pairs, hyp.output_dim)
    num = mwet._row_norms(g1 - g2)
    den = mwet._row_norms(y1 - y2)
    valid = den >= floor
    return float((num[valid] / den[valid]).max()) if valid.any() else 0.0


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sig_dim=st.sampled_from([1, 7, 8, 9, 16]), obs_dim=st.integers(1, 3),
       n=st.sampled_from([2, 5, 30]), num_pairs=st.sampled_from([1, 6, 700]),
       tile=st.sampled_from([None, 7, 64]), threads=st.sampled_from(["1", "2"]),
       omega1=st.sampled_from([0.5, 3.0, 1e160]), seed=st.integers(0, 2 ** 16))
def test_lipschitz_audit_equals_the_evaluate_and_row_norms_audit(
        sig_dim, obs_dim, n, num_pairs, tile, threads, omega1, seed):
    # The audit reads G(y1) - G(y2) and the gaps from (d, pairs) rows and
    # keeps the gaps of its last redraw round as the denominators; the
    # ratio must keep the bits of the public evaluate's (pairs, d) outputs
    # under np.linalg.norm's pairwise sums, which differ from a sequential
    # sum from d = 8 up. One-dimensional observations can redraw pairs;
    # omega1 = 1e160 makes the differences' squares overflow, so both
    # sides rescale. Tiles of 7 or 64 rows split the audit's one call into
    # up to 200 tiles, on one thread or two (the size cutoff patched away).
    rng = np.random.default_rng(seed)
    training = LabeledSet(rng.standard_normal((n, sig_dim)),
                          rng.standard_normal((n, obs_dim)))
    hyp = MwetHypothesis(training=training, omega1=omega1)
    rows = tile or mwet._MIN_ROWS
    with mock.patch.object(mwet, "_TILE_ELEMENTS", rows * 3 if tile else mwet._TILE_ELEMENTS), \
            mock.patch.object(mwet, "_MIN_ROWS", rows), \
            mock.patch.object(mwet, "_THREAD_PAIRS", 0), \
            mock.patch.dict(os.environ, {"LIPREC_THREADS": threads}):
        got = hyp.lipschitz_audit(num_pairs, seed=seed)
        expected = _evaluate_audit(hyp, num_pairs, seed)
    assert got.hex() == expected.hex()


def test_lipschitz_audit_measures_a_redrawn_pair_by_its_new_gap():
    # Seed 3073 draws the one pair's endpoints closer than the floor, so
    # the audit redraws the second one; the ratio is that of the new pair,
    # whose gap must replace the old one among the kept denominators.
    hyp = fit(_random_instance(seeded_rng(29), n=40, obs_dim=1))
    lo, hi, floor = _audit_box(hyp)
    y1, y2 = seeded_rng(3073).uniform(lo, hi, size=(2, 1))
    assert abs(y1 - y2)[0] < floor
    ratio = hyp.lipschitz_audit(1, seed=3073)
    assert ratio > 0.0
    assert ratio == _evaluate_audit(hyp, 1, seed=3073)


@settings(max_examples=150, deadline=None)
@given(width=st.sampled_from(list(range(1, 21)) + [127, 128, 129, 130]),
       count=st.integers(1, 30), overflow=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_row_norms_equal_the_norms_of_c_order_rows(width, count, overflow, seed):
    # _row_norms(a) sums each row's squares in add.reduce's order over a
    # contiguous axis, as np.linalg.norm(a, axis=1) does on C-order rows,
    # whether a is C-order or the transpose of C-order (width, count) rows:
    # in sequence below 8, in eight accumulators up to 128, by halving
    # above. Magnitudes spread over 1e-3..1e3 within a row and 1e-100..1e100
    # across rows, so any other order shows in the bits. Rows scaled to a
    # largest magnitude of 1e160..1e300 overflow in their squares and are
    # rescaled, exactly.
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((count, width)) * 10.0 ** rng.uniform(-3, 3, (count, width))
         * 10.0 ** rng.uniform(-100, 100, (count, 1)))
    if overflow:
        big = a[::2]
        big /= np.abs(big).max(axis=1, keepdims=True)
        big *= 10.0 ** rng.uniform(160, 300, (len(big), 1))
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(a, axis=1)
    scaled = np.linalg.norm(a * 2.0 ** -700, axis=1) * 2.0 ** 700
    expected = np.where(np.isfinite(plain), plain, scaled)
    assert np.isinf(plain).any() == overflow
    for rows in (np.ascontiguousarray(a.T), a.T):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mwet._row_norms(rows.T).tobytes() == expected.tobytes()


def test_lipschitz_audit_names_its_box_when_a_value_overflows():
    # The audit box of the 10-unit segment reaches points where omega1 =
    # 5e307 times the distance overflows. The error names the box and
    # omega1; evaluate's error, which numbers a query of the audit's own
    # batch, is kept as the cause.
    hyp = fit(_segment_instance(), omega1=5e307)
    with pytest.raises(DomainError, match=r"^the audit's sampling box \(the training "
                                          r"observations' bounding box, inflated by 50%\) "
                                          r"holds a point whose recovered value overflows "
                                          r"float64 at omega1 = 5e\+307$") as caught:
        hyp.lipschitz_audit(100, seed=3)
    assert isinstance(caught.value.__cause__, DomainError)
    assert str(caught.value.__cause__).startswith("the recovered value of query ")


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
    ls = LabeledSet([[0.0], [1.0]], [[2.0], [2.0]])
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
    colliding = LabeledSet([[0.0], [1.0]], [[0.0], [0.0]])
    with pytest.raises(NotInjectiveError):
        fit(colliding)


def test_interpolation_with_inflated_constant_still_exact():
    # the guarantee only needs omega1 >= tight; make it much larger
    rng = seeded_rng(32)
    ls = _random_instance(rng, n=30)
    hyp = fit(ls, omega1=tight_omega(ls).omega * 50.0)
    assert hyp.training_residuals().max() <= 1e-9
