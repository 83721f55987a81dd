"""Container, coercion, and validation behavior in liprec.core."""

import os
import signal
import subprocess
import sys
import time

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


def test_map_blocks_runs_each_block_once(process_log, no_child_left):
    # every start exactly once on 1, 2 and 3 workers, one worker() per
    # worker process, the calling process among them; the blocks fill the
    # returned array, shared with the children
    def worker(out):
        process_log.append("worker", os.getpid())

        def block(start):
            process_log.append("block", start, os.getpid())
            out[start // 2] = start

        return block

    starts = range(0, 40, 2)
    for workers in (1, 2, 3):
        process_log.path.unlink(missing_ok=True)
        out = core._map_blocks(worker, starts, workers, (20,))
        assert out.tolist() == list(starts), workers
        made = [pid for pid, in process_log.read("worker")]
        seen = process_log.read("block")
        assert sorted(int(start) for start, _ in seen) == list(starts)
        assert len(made) == workers and len(set(made)) == workers
        assert str(os.getpid()) in made
        assert {pid for _, pid in seen} <= set(made)
    process_log.path.unlink()
    assert core._map_blocks(worker, range(0), 0, (0,)).shape == (0,)
    assert process_log.read("worker") == [(str(os.getpid()),)]
    # more workers than cores, and more starts than claim records, so
    # that a claim holds a run of three starts
    process_log.path.unlink()
    starts = range(0, 2 * 3 * core._CLAIMS - 2, 2)
    out = core._map_blocks(worker, starts, 4, (len(starts),))
    assert out.tolist() == list(starts)
    assert sorted(int(start) for start, _ in process_log.read("block")) == list(starts)
    assert len(set(process_log.read("worker"))) == 4

    def failing(out):
        def block(start):
            if start == 3:
                raise ValueError("block 3 failed")

        return block

    # an error in any worker reaches the caller, and no child outlives the call
    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match="^block 3 failed$"):
            core._map_blocks(failing, range(8), workers, (8,))
    no_child_left()


def _log_workers(monkeypatch, process_log):
    """Make each process that runs a core._map_blocks call's worker()
    log its pid under "worker"."""
    map_blocks = core._map_blocks

    def spy(worker, starts, count, shape):
        def logged(out):
            process_log.append("worker", os.getpid())
            return worker(out)

        return map_blocks(logged, starts, count, shape)

    monkeypatch.setattr(core, "_map_blocks", spy)


def test_forked_kernels_reap_their_children(monkeypatch, process_log, no_child_left):
    # evaluate's tiles over three worker processes: no child outlives the call
    _log_workers(monkeypatch, process_log)
    monkeypatch.setenv("LIPREC_THREADS", "3")
    rng = seeded_rng(41)
    training = LabeledSet(rng.standard_normal((200, 3)), rng.standard_normal((200, 2)))
    # 21000 queries against 200 training points: 4.2M distances, above the
    # cutoff for worker processes, in 11 tiles of 2048 rows
    MwetHypothesis(training=training, omega1=2.0).evaluate(rng.standard_normal((21000, 2)))
    assert len(set(process_log.read("worker"))) == 3
    no_child_left()


def _fails_in_children(error):
    """A worker whose blocks sleep, so that the child claims some, and
    raise ``error`` (a callable of the start) in a child only."""
    caller = os.getpid()

    def worker(out):
        def block(start):
            time.sleep(0.01)
            if os.getpid() != caller:
                raise error(start)

        return block

    return worker


class _TwoArgumentError(Exception):
    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


def test_map_blocks_raises_a_childs_error_in_the_caller(no_child_left):
    # A child's exception reaches the caller with its type and message,
    # pickled through its pipe; one that does not unpickle (a class whose
    # constructor takes two arguments, pickled with one) or does not pickle
    # (a local class) becomes a RuntimeError naming its type and message.
    class LocalError(Exception):
        pass

    for error, expected, message in [
            (lambda s: ValueError(f"block {s} failed"), ValueError, r"^block \d+ failed$"),
            (lambda s: DomainError(f"block {s} is out"), DomainError, r"^block \d+ is out$"),
            (lambda s: _TwoArgumentError(f"block {s}", 2), RuntimeError,
             r"^a worker process raised _TwoArgumentError: block \d+$"),
            (lambda s: LocalError(f"block {s}"), RuntimeError,
             r"^a worker process raised LocalError: block \d+$")]:
        with pytest.raises(expected, match=message):
            core._map_blocks(_fails_in_children(error), range(20), 2, (20,))
        no_child_left()


def test_map_blocks_stops_every_worker_after_a_failure(process_log, no_child_left):
    # Block 0 fails at once; the other worker is inside a 0.2 s block by
    # then, and finds no claim left after it, so at most two of the eight
    # blocks run.
    def worker(out):
        def block(start):
            process_log.append("block", start)
            if start == 0:
                raise ValueError("block 0 failed")
            time.sleep(0.2)

        return block

    with pytest.raises(ValueError, match="^block 0 failed$"):
        core._map_blocks(worker, range(8), 2, (8,))
    assert len(process_log.read("block")) <= 2
    no_child_left()


def test_map_blocks_reaps_its_children_on_interrupt_and_crash(no_child_left):
    # A KeyboardInterrupt in the caller's block, and a child killed by a
    # signal, whose blocks are lost: both reach the caller once every
    # child is reaped.
    caller = os.getpid()

    def interrupted(out):
        def block(start):
            time.sleep(0.01)
            if os.getpid() == caller:
                raise KeyboardInterrupt

        return block

    def crashing(out):
        def block(start):
            time.sleep(0.01)
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)

        return block

    with pytest.raises(KeyboardInterrupt):
        core._map_blocks(interrupted, range(20), 3, (20,))
    no_child_left()
    with pytest.raises(RuntimeError, match=f"^a worker process ended with exit code "
                                           f"-{int(signal.SIGKILL)}$"):
        core._map_blocks(crashing, range(20), 2, (20,))
    no_child_left()


def test_map_blocks_runs_serially_when_fork_fails(monkeypatch, process_log, no_child_left):
    # Where os.fork raises OSError, the caller runs every block, and MWET
    # evaluation above the cutoff gives the same bits.
    rng = seeded_rng(42)
    hyp = MwetHypothesis(training=LabeledSet(rng.standard_normal((8, 3)),
                                             rng.standard_normal((8, 2))), omega1=2.0)
    queries = rng.standard_normal((2 ** 19, 2))
    monkeypatch.setenv("LIPREC_THREADS", "2")
    expected = hyp.evaluate(queries)

    def fork():
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", fork)
    _log_workers(monkeypatch, process_log)
    assert hyp.evaluate(queries).tobytes() == expected.tobytes()
    assert process_log.read("worker") == [(str(os.getpid()),)]
    no_child_left()


def test_map_blocks_inside_a_worker_starts_no_process(monkeypatch, no_child_left):
    # A nested call runs serially in the worker that made it: the inner
    # blocks all run in that process, and no process but the caller forks.
    caller, fork = os.getpid(), os.fork

    def guarded_fork():
        assert os.getpid() == caller, "a worker process forked"
        return fork()

    monkeypatch.setattr(os, "fork", guarded_fork)

    def inner(out):
        def block(start):
            out[start] = os.getpid()

        return block

    def outer(out):
        def block(start):
            time.sleep(0.01)
            pids = core._map_blocks(inner, range(4), 4, (4,))
            out[start] = os.getpid() if (pids == os.getpid()).all() else -1

        return block

    pids = core._map_blocks(outer, range(12), 2, (12,))
    assert (pids > 0).all()
    no_child_left()
