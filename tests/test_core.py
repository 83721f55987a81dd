"""Container, coercion, and validation behavior in liprec.core."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from liprec import (
    TOL_DUP,
    TOL_EVAL,
    DimensionError,
    DomainError,
    LabeledSet,
    LabelingError,
    LipschitzCertificate,
    MatrixOperator,
    MwetHypothesis,
    ParameterError,
    core,
    validate_labeled_set,
)
from liprec.core import as_matrix, as_vector, readonly, seeded_rng


def test_as_vector_accepts_lists_and_arrays():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)


def test_as_vector_rejects_bad_shapes_and_values():
    with pytest.raises(DimensionError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(DimensionError):
        as_vector(np.zeros(0))
    with pytest.raises(DomainError):
        as_vector([1.0, np.nan])
    with pytest.raises(DomainError):
        as_vector([np.inf, 0.0])


def test_as_matrix_rejects_vectors_and_nonfinite():
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DomainError):
        as_matrix([[1.0, np.inf]])


def test_readonly_blocks_writes():
    a = readonly(np.ones((2, 2)))
    with pytest.raises(ValueError):
        a[0, 0] = 5.0


def test_readonly_copies_input():
    src = np.ones(3)
    out = readonly(src)
    src[0] = 7.0
    assert out[0] == 1.0


def test_seeded_rng_reproducible():
    a = seeded_rng(42).standard_normal(5)
    b = seeded_rng(42).standard_normal(5)
    assert np.array_equal(a, b)


def test_seeded_rng_rejects_non_integers():
    with pytest.raises(ParameterError):
        seeded_rng(1.5)
    with pytest.raises(ParameterError):
        seeded_rng("7")


def test_seeded_rng_rejects_negative_seeds():
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        seeded_rng(-1)
    with pytest.raises(ParameterError):
        seeded_rng(np.int64(-2))


def test_labeled_set_shapes():
    sig = np.arange(12.0).reshape(4, 3)
    obs = np.arange(8.0).reshape(4, 2)
    ls = LabeledSet.from_arrays(sig, obs)
    assert len(ls) == 4
    assert ls.signal_dim == 3
    assert ls.obs_dim == 2
    assert np.array_equal(ls.signals, sig)
    assert np.array_equal(ls.observations, obs)


def test_labeled_set_arrays_are_readonly():
    ls = LabeledSet.from_arrays([[0.0], [1.0]], [[0.0], [2.0]])
    with pytest.raises(ValueError):
        ls.signals[0, 0] = 9.0
    with pytest.raises(ValueError):
        ls.observations[0, 0] = 9.0


def test_labeled_set_count_mismatch():
    with pytest.raises(DimensionError):
        LabeledSet.from_arrays(np.zeros((3, 2)), np.zeros((2, 1)))


def test_duplicate_signals_rejected_with_index():
    sig = [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]
    obs = [[0.0], [1.0], [2.0]]
    with pytest.raises(LabelingError) as exc:
        LabeledSet.from_arrays(sig, obs)
    assert exc.value.index == 2


def test_duplicate_check_uses_tolerance():
    assert TOL_DUP == 1e-12
    sig = [[0.0], [1e-13]]
    obs = [[0.0], [1.0]]
    with pytest.raises(LabelingError):
        LabeledSet.from_arrays(sig, obs)
    # the constructor does not search, so it keeps both rows
    ls = LabeledSet(sig, obs)
    assert len(ls) == 2
    # signals just beyond TOL_DUP apart are distinct
    ls = LabeledSet.from_arrays([[0.0], [2e-12]], obs)
    assert len(ls) == 2


def test_from_operator_labels_by_applying():
    op = MatrixOperator([[1.0, 2.0]])
    ls = LabeledSet.from_operator(op, [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(ls.observations, [[1.0], [2.0]])


def test_subset_preserves_order_and_allows_repeats():
    ls = LabeledSet.from_arrays(np.eye(3), np.arange(3.0)[:, None])
    sub = ls.subset([2, 0])
    assert np.array_equal(sub.signals, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    rep = ls.subset([1, 1])
    assert len(rep) == 2


def test_validate_labeled_set_catches_wrong_observation():
    op = MatrixOperator([[1.0, 0.0], [0.0, 1.0]])
    good = LabeledSet.from_operator(op, [[1.0, 2.0], [3.0, 4.0]])
    validate_labeled_set(good, op)
    bad = LabeledSet.from_arrays([[1.0, 2.0]], [[1.0, 2.5]])
    with pytest.raises(LabelingError) as exc:
        validate_labeled_set(bad, op)
    assert exc.value.index == 0


def test_validate_labeled_set_respects_tol_eval():
    assert TOL_EVAL == 1e-9
    op = MatrixOperator([[1.0]])
    ls = LabeledSet.from_arrays([[1.0]], [[1.0 + 5e-10]])
    validate_labeled_set(ls, op)  # within TOL_EVAL
    off = LabeledSet.from_arrays([[1.0]], [[1.0 + 2e-9]])
    with pytest.raises(LabelingError, match=r"^pair 0: observation is off by 2\.000e-09"):
        validate_labeled_set(off, op)


def test_validate_labeled_set_dimension_mismatch():
    op = MatrixOperator([[1.0, 0.0]])
    ls = LabeledSet.from_arrays([[1.0]], [[1.0]])
    with pytest.raises(DimensionError):
        validate_labeled_set(ls, op)


def test_certificate_passed_property():
    ok = LipschitzCertificate(omega=1.0, verdict="certified", witness=(0, 1), max_ratio=0.5)
    bad = LipschitzCertificate(omega=1.0, verdict="violated", witness=(0, 1), max_ratio=2.0)
    assert ok.passed
    assert not bad.passed


@pytest.mark.parametrize("raw,blas,budget", [
    ("2", "2", "2"),
    (" +2 ", "2", "2"),
    ("1_0", "10", "10"),
    ("0", None, "ParameterError: LIPREC_THREADS must be positive, got 0"),
    ("\u00b2", None, "ParameterError: LIPREC_THREADS must be an integer, got '\u00b2'"),
])
def test_import_applies_the_thread_budget_rule_to_blas(raw, blas, budget):
    # The import-time BLAS default and core.thread_budget accept the same
    # values; any other value is left alone at import and rejected later.
    code = ("import os, liprec\n"
            "from liprec import core\n"
            "try:\n"
            "    budget = str(core.thread_budget())\n"
            "except core.ParameterError as exc:\n"
            "    budget = f'ParameterError: {exc}'\n"
            "print(repr((os.environ.get('OPENBLAS_NUM_THREADS'), budget)))")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["LIPREC_THREADS"] = raw
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == repr((blas, budget))


def test_map_blocks_runs_each_block_once():
    # every start exactly once on 1, 2 and 3 workers, one worker() per
    # thread, the calling thread among them; the call returns nothing
    made, seen = [], []

    def worker():
        made.append(threading.current_thread())

        def block(start):
            seen.append((start, threading.current_thread()))

        return block

    starts = range(0, 40, 2)
    for workers in (1, 2, 3):
        made.clear()
        seen.clear()
        assert core._map_blocks(worker, starts, workers) is None
        assert sorted(start for start, _ in seen) == list(starts), workers
        assert len(made) == workers and len({id(thread) for thread in made}) == workers
        assert threading.current_thread() in made
        assert {id(thread) for _, thread in seen} <= set(map(id, made))
    made.clear()
    assert core._map_blocks(worker, range(0), 0) is None
    assert made == [threading.current_thread()]

    def failing():
        def block(start):
            if start == 3:
                raise ValueError("block 3 failed")
            return start

        return block

    # an error on any thread reaches the caller, and no thread outlives the call
    before = threading.active_count()
    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match="^block 3 failed$"):
            core._map_blocks(failing, range(8), workers)
    assert threading.active_count() == before


def test_threaded_kernels_join_their_threads(monkeypatch):
    # evaluate's tiles over three threads: no started thread outlives the call
    workers = []
    map_blocks = core._map_blocks

    def spy(fn, starts, count):
        workers.append(count)
        map_blocks(fn, starts, count)

    monkeypatch.setattr(core, "_map_blocks", spy)
    monkeypatch.setenv("LIPREC_THREADS", "3")
    rng = seeded_rng(41)
    before = threading.active_count()
    training = LabeledSet(rng.standard_normal((200, 3)), rng.standard_normal((200, 2)))
    # 21000 queries against 200 training points: 4.2M distances, above the
    # cutoff for threading, in 11 tiles of 2048 rows
    MwetHypothesis(training=training, omega1=2.0).evaluate(rng.standard_normal((21000, 2)))
    assert workers == [3]
    assert threading.active_count() == before
