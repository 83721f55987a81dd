"""Shared numeric vocabulary: vectors, labeled signal/observation sets,
Lipschitz certificates, the error taxonomy, deterministic RNG seeding, the
worker budget read from LIPREC_THREADS, and the one parallel helper,
which spreads MWET evaluation's tiles and criterion 2's audits over
forked worker processes.

Everything is float64. Containers are frozen dataclasses whose arrays are
marked read-only after construction, so objects may be shared freely across
threads and forked processes; all operations on them are pure functions of
their inputs.

The distance used throughout the package is the Euclidean norm. The
tolerances are fixed package constants:

* ``TOL_EVAL``  (1e-9)  slack when checking that a stored observation really
  is the operator applied to its signal;
* ``TOL_DUP``   (1e-12) radius below which two signals count as duplicates;
* ``TOL_CERT``  (1e-9)  absolute slack in every certification inequality.

All are far above double rounding and far below any experiment's target
precision. Every operation reads them directly; none takes an override.

Every pair question is one reduction, ``_first_max_pair``: the maximum
of an optional score over all pairs, the first pair in row-major index
order that attains it, and the first pair passing each of a few tests
(collision, duplicate, violation). The Lipschitz checks ask it, and so
does the labeling duplicate search, a question with one test and no
score that reads only the signals. One fold, ``_Fold``, takes the tiles
of either of two tile sources, which give the same bits.

* The tiled scan, ``_pair_tiles``, yields tiles of consecutive rows
  against every later row, each bounded by the ``_PAIR_TILE_ELEMENTS``
  budget, so memory stays O(n + budget). Its tiles are a few rows by
  up to n - 1 columns, and it runs under a small numpy ufunc buffer
  (``_ufunc_buffer``), so that the broadcast subtractions of tiles at
  least that wide skip numpy's buffered loop.
* The pruned scan (``_pruned_max_pair``) cuts the rows into leaf blocks
  of ``_LEAF_ROWS`` rows by a k-d tree over their observations (over
  their signals for a question that reads no observations). Every node
  keeps its signal box and observation box, whose gaps and far-corner
  distances bound every computed pair distance below it exactly, since
  they are formed with the scan's own operations and rounding is
  monotone. Node pairs are bounded from the top of the tree down, and
  only those where a test may hold or whose score bound can reach the
  running maximum are refined, so a skipped pair can neither be nor tie
  the witness. Every node also keeps its least row, and a test counts as
  unable to hold in a node pair once the test's first pair so far
  precedes all of its rows. Memory stays O(n + budget) here too.
* A fixed rule, ``_scan_tiled``, picks the tiled scan before any pair of
  leaves is bounded: when all pairs fit eight tiles, when the leaves are
  too few to halve every coordinate of the split array once
  (full-dimensional data), or when the bounds on the node pairs above the
  leaves keep more than half of the pairs.

Distances are computed coordinate by coordinate, with the squares summed
in the order ``np.add.reduce`` uses; every distance is therefore
bit-identical to ``np.linalg.norm(a[i + 1:] - a[i], axis=1)``, for any
budget, block size and path. A question's tests see signal distances
too, so a pipeline that certifies a sample finds its first duplicate
signal pair in the same pass.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
from dataclasses import dataclass, field
from typing import Iterator, Literal, Optional, Tuple

import numpy as np

TOL_EVAL = 1e-9
TOL_DUP = 1e-12
TOL_CERT = 1e-9


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class LiprecError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LiprecError):
    """Vector or matrix dimensions do not match."""


class LabelingError(LiprecError):
    """A labeled set fails validation; carries the offending pair index."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class DomainError(LiprecError):
    """Input lies outside an operator's domain."""


class NotInjectiveError(LiprecError):
    """Two distinct signals share an observation; carries their indices."""

    def __init__(self, message: str, pair: Optional[Tuple[int, int]] = None):
        super().__init__(message)
        self.pair = pair


class DegenerateSetError(LiprecError):
    """The set is too small for the requested operation."""


class DegenerateScaleError(LiprecError):
    """A scale factor of zero would collapse the set."""


class OperatorClassError(LiprecError):
    """The operation requires a different operator class (e.g. linear)."""


class ConstantTooSmallError(LiprecError):
    """A supplied Lipschitz constant is below the tight constant of the data."""


class ParameterError(LiprecError):
    """A numeric parameter is out of range."""


class OutOfBoxError(LiprecError):
    """An observation lies outside the unit hypercube (plus tolerance)."""


class NotLipschitzError(LiprecError):
    """A sample failed certification; carries the certificate and its witness."""

    def __init__(self, message: str, certificate: Optional[LipschitzCertificate] = None):
        super().__init__(message)
        self.certificate = certificate
        self.witness = None if certificate is None else certificate.witness


class RankZeroError(LiprecError):
    """The matrix is identically zero."""


class NoNullSpaceError(LiprecError):
    """The reduced-output construction needs a nontrivial null space (M < N)."""


class TooLargeError(LiprecError):
    """Exhaustive enumeration would exceed ``rip.ENUMERATION_CAP``."""


class NotApplicableError(LiprecError):
    """A derivation's hypothesis fails (e.g. an isometry constant >= 1)."""


# ---------------------------------------------------------------------------
# Vector / matrix coercion
# ---------------------------------------------------------------------------

def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array of length >= 1."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionError(f"{name}: expected a 1-D array of length >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name}: entries must be finite")
    return v


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size < 1:
        raise DimensionError(f"{name}: expected a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name}: entries must be finite")
    return m


def as_batch(x, width: int, name: str) -> Tuple[np.ndarray, bool]:
    """Coerce one finite vector (width,) or a stack (k, width) to a 2-D batch.

    Returns the batch and whether the input was a single vector.
    """
    batch = np.asarray(x, dtype=np.float64)
    single = batch.ndim == 1
    if single:
        batch = batch[None, :]
    if batch.ndim != 2 or batch.shape[1] != width:
        raise DimensionError(f"expected {name} of length {width}, got shape {np.shape(x)}")
    if not np.all(np.isfinite(batch)):
        raise DomainError(f"{name}: entries must be finite")
    return batch, single


def readonly(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous copy with the writeable flag cleared."""
    out = np.array(a, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator from an explicit nonnegative integer seed."""
    if not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(int(seed))


def thread_budget() -> int:
    """Worker cap from LIPREC_THREADS, the hardware count by default.

    It caps the worker processes of ``_map_blocks`` (MWET evaluation's
    tiles, criterion 2's audits), the caller included, and the package
    __init__ passes the value to the BLAS pool as an environment default
    before numpy loads; it caps nothing else. Raises ParameterError for a
    value that is not a positive integer.
    """
    raw = os.environ.get("LIPREC_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"LIPREC_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParameterError(f"LIPREC_THREADS must be positive, got {value}")
    return value


# Claim records of one ``_map_blocks`` call: at most this many 4-byte
# indices, written in one call before any fork. 4096 bytes fit the
# smallest buffer a Linux pipe is given, one page, so the write never
# waits for a reader.
_CLAIMS = 1024

_in_worker = False  # set while a process runs the blocks of a forking ``_map_blocks``


def _map_blocks(worker, starts: range, workers: int, shape: Tuple[int, ...]) -> np.ndarray:
    """Run block(start) once for each start, on up to `workers` processes,
    and return the float64 array of `shape` that the blocks filled.

    The package's one parallel helper: MWET evaluation's tiles and
    criterion 2's audits run on it. worker(out) runs once in each worker
    process and returns that process's block function, so a process sets
    up its buffers once; each block writes its own part of ``out`` and
    returns nothing. The calling process is one of the workers and forks
    workers - 1 more, so they share no GIL; ``out`` then lives in an
    anonymous shared mmap made before the forks. The workers claim the
    starts in order from a pipe pre-filled with claim records (runs of
    consecutive starts beyond ``_CLAIMS`` of them), so a worker slowed by
    other work on its core takes fewer blocks. A worker that fails drains
    the pipe, so the others stop at their next claim; its error is
    pickled back through a pipe of its own, and the caller raises an
    interrupt first, else the error of the earliest failing start, or a
    RuntimeError naming an error that does not survive pickling. A child runs only the block
    functions and always ends with ``os._exit``, so it never returns into
    the caller's frames nor flushes stdio; every child is reaped with
    waitpid before the call returns, on errors and KeyboardInterrupt too.
    With workers <= 1, inside a worker (so workers never nest), or
    without ``os.fork``, no process starts and the caller runs every
    block; a fork that fails with OSError starts no further worker.
    """
    global _in_worker
    if workers <= 1 or _in_worker or not hasattr(os, "fork"):
        out = np.empty(shape)
        block = worker(out)
        for start in starts:
            block(start)
        return out
    size = math.prod(shape)
    out = np.frombuffer(mmap.mmap(-1, max(8 * size, 1)), count=size).reshape(shape)
    group = -(-len(starts) // _CLAIMS)
    claims, fill = os.pipe()
    os.write(fill, np.arange(-(-len(starts) // group), dtype="<u4").tobytes())
    os.close(fill)  # an empty pipe now reads as the end of the claims
    children, errors = [], []
    try:
        for _ in range(workers - 1):
            report, send = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(report)
                os.close(send)
                break
            if pid == 0:
                _work_in_child(worker, out, starts, claims, group, report, send)
            os.close(send)
            children.append((pid, report))
        _in_worker = True
        failure = _run_claims(worker, out, starts, claims, group)
        if failure is not None:
            errors.append(failure)
    finally:
        _in_worker = False
        for pid, report in children:
            errors += _reap(pid, report)
        os.close(claims)
    if errors:
        # An interrupt first, then the earliest failing start.
        raise min(errors, key=lambda e: (isinstance(e[1], Exception), e[0]))[1]
    return out


def _run_claims(worker, out: np.ndarray, starts: range, claims: int, group: int):
    """One worker's share of a ``_map_blocks`` call: build its block
    function, then run the blocks of each claim read from the pipe until
    the pipe is empty.

    Returns None, or (start, error) for the block that raised (start -1
    for worker itself), after draining the pipe so that every other
    worker stops at its next claim.
    """
    start = -1
    try:
        block = worker(out)
        while True:
            record = os.read(claims, 4)
            if not record:
                return None
            k = int.from_bytes(record, "little")
            for start in starts[k * group:(k + 1) * group]:
                block(start)
    except BaseException as exc:
        while os.read(claims, 4096):
            pass
        return start, exc


def _work_in_child(worker, out, starts, claims, group, report, send):
    """A forked worker: run its claims, send its error, if any, through
    ``send``, and end the process; never returns."""
    global _in_worker
    status = 1
    try:
        _in_worker = True
        os.close(report)
        failure = _run_claims(worker, out, starts, claims, group)
        if failure is None:
            status = 0
        else:
            start, exc = failure
            try:
                pickled = pickle.dumps(exc)
            except Exception:
                pickled = None
            record = memoryview(pickle.dumps((start, type(exc).__name__, str(exc), pickled)))
            while record:
                record = record[os.write(send, record):]
    finally:
        os._exit(status)


def _reap(pid: int, report: int) -> list:
    """Read a child's error pipe to its end, wait for the child, and
    return [(start, error)] if it failed, else []."""
    chunks = []
    try:
        while chunk := os.read(report, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(report)
        _, status = os.waitpid(pid, 0)
    if chunks:
        start, name, message, pickled = pickle.loads(b"".join(chunks))
        try:
            return [(start, pickle.loads(pickled))]
        except Exception:  # None, or an error whose class cannot rebuild it
            return [(start, RuntimeError(f"a worker process raised {name}: {message}"))]
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return [(-1, RuntimeError(f"a worker process ended with exit code {code}"))]
    return []


# numpy's ufunc buffer, in elements, inside the kernels' broadcast blocks:
# the MWET evaluation tiles and the tiled pair scan. A ufunc whose operands
# broadcast (a row against a column) and whose rows are shorter than the
# buffer, 8192 elements by default, can run through numpy's buffered
# iterator, at 3-4x the cost per element. Broadcast subtractions in ns
# per element (2-vCPU Xeon, numpy 2.4.6; BENCH_26.json, op_sweep):
#
#   (rows, columns)                 buffer 8192   buffer 1024
#   (21, 1500)  MWET tile           0.85          0.21
#   (10, 1499)  pair-scan tile      1.10          0.29
#
# Elementwise ufuncs, min/max and integer reductions give the same bits at
# every buffer size, and no float sum runs in these blocks, so only speed
# changes. The pruned scan's leaf tiles, 16 columns wide, and the rip
# kernel keep numpy's buffer: under 1024 or 512 elements they ran at most
# 5% faster, inside the host's noise (BENCH_26.json, out_of_scope).
_UFUNC_BUFFER = 1 << 10


@contextlib.contextmanager
def _ufunc_buffer():
    """Run the body with numpy's ufunc buffer at ``_UFUNC_BUFFER`` elements.

    The size is numpy's per-thread state, which a worker process of
    ``_map_blocks`` copies from its caller at the fork, so each block
    sets it in the process that runs it. The caller's size is restored
    on every exit, errors included; ``np.errstate`` restores it only on
    numpy 2.
    """
    old = np.setbufsize(_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


# Element budget of one pair-scan tile: rows * width distances per array,
# 2**14 float64s (128 KiB), so a tile and its few temporaries stay in a
# core's L2 cache. A tile holds max(1, budget // width) rows, or
# max(1, budget // _LEAF_ROWS**2) block pairs. Every distance is computed
# by the same per-pair arithmetic whatever the tile shape, so constants and
# witnesses are bit-identical for every budget; only speed and memory
# change.
_PAIR_TILE_ELEMENTS = 1 << 14

# Rows per leaf block of the pruned scan (see ``_first_max_pair``).
_LEAF_ROWS = 16

# numpy's PW_BLOCKSIZE: add.reduce sums at most this many contiguous
# elements with eight accumulators before it splits the range in two.
_PAIRWISE_BLOCK = 128


def _pairwise_sum(term, start: int, stop: int) -> np.ndarray:
    """term(start) + ... + term(stop - 1), added in numpy's pairwise order.

    This is the order in which ``np.add.reduce`` sums a contiguous axis of
    stop - start elements (Higham 1993): in sequence below eight elements;
    up to ``_PAIRWISE_BLOCK``, into eight accumulators r_k = t_k + t_{k+8}
    + ..., combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    with the terms past the last multiple of eight added in sequence; and
    by halving, rounded to a multiple of eight, above it. Each accumulator
    is completed before the next is started, which adds the same terms in
    the same order while keeping at most four partial sums alive. The
    helpers are not recursive: a recursive closure is a reference cycle,
    which would hold each scan's arrays until the cyclic garbage
    collector ran. numpy
    starts each sum from 0.0; every term here is a fresh array of
    nonnegative entries, so 0.0 + x is exactly x and that step is skipped,
    and terms are accumulated in place.
    """
    count = stop - start
    if count < 8:
        total = term(start)
        for m in range(start + 1, stop):
            total += term(m)
        return total
    if count <= _PAIRWISE_BLOCK:
        blocked = stop - count % 8

        def accumulator(k: int) -> np.ndarray:
            acc = term(start + k)
            for m in range(start + k + 8, blocked, 8):
                acc += term(m)
            return acc

        def quad(k: int) -> np.ndarray:
            left = accumulator(k)
            left += accumulator(k + 1)
            right = accumulator(k + 2)
            right += accumulator(k + 3)
            left += right
            return left

        total = quad(0)
        total += quad(4)
        for m in range(blocked, stop):
            total += term(m)
        return total
    half = count // 2
    half -= half % 8
    total = _pairwise_sum(term, start, start + half)
    total += _pairwise_sum(term, start + half, stop)
    return total


def _norms(square, width: int) -> np.ndarray:
    """sqrt(square(0) + ... + square(width - 1)), summed in add.reduce's order."""
    out = _pairwise_sum(square, 0, width)
    return np.sqrt(out, out=out)


def _distances(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """||later - earlier|| over the coordinates on axis 0, broadcast over
    the other axes: one subtraction per coordinate, with the squares summed
    in ``_norms``' order."""
    def square(m):
        d = later[m] - earlier[m]
        return np.multiply(d, d, out=d)

    return _norms(square, later.shape[0])


def _tile_distances(columns: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """out[r, c] = ||a[i0 + 1 + c] - a[i0 + r]|| for rows i0 <= i0 + r < i1.

    ``columns`` is a.T, C-contiguous, so each coordinate's differences are
    one broadcast subtraction. Row r from c = r on is bit-identical to
    ``np.linalg.norm(a[i0 + r + 1:] - a[i0 + r], axis=1)``. Entries with
    c < r are not pairs (j <= i); ``_Fold.tile``'s ``valid`` mask leaves
    them out.
    """
    return _distances(columns[:, i0 + 1:], columns[:, i0:i1, None])


def _check_spans(arrays) -> None:
    """Raise DomainError when some array's squared bounding-box diagonal
    overflows: its distances would be inf, and inf/inf ratios certify
    nothing."""
    for name, a in arrays.items():
        with np.errstate(over="ignore"):
            span = a.max(axis=0) - a.min(axis=0)
            diagonal2 = np.sum(span * span)
        if not np.isfinite(diagonal2):
            raise DomainError(f"{name}: pairwise distances overflow float64 (the squared "
                              "diagonal of their bounding box is not finite)")


def _pair_tiles(x: np.ndarray, y: Optional[np.ndarray]) -> Iterator[tuple]:
    """The row-tile source: yield (i0, dx, dy) tile by tile.

    Tiles cover rows [i0, i1) in order, i1 - i0 = max(1,
    _PAIR_TILE_ELEMENTS // (n - 1 - i0)) capped at the rows left, against
    every later row (``_tile_distances``); dy is None when y is.
    """
    columns = [None if a is None else np.ascontiguousarray(a.T) for a in (x, y)]
    n = x.shape[0]
    i0 = 0
    while i0 < n - 1:
        width = n - 1 - i0
        i1 = i0 + min(width, max(1, _PAIR_TILE_ELEMENTS // width))
        yield (i0, *[None if c is None else _tile_distances(c, i0, i1) for c in columns])
        i0 = i1


def _first_max_pair(x: np.ndarray, y: Optional[np.ndarray], score=None, tests=()) -> _Fold:
    """One pair question over the rows of x (signals) and y (observations).

    A question reads the signals, and the observations unless y is None.
    Its optional ``score`` maps arrays of signal and observation distances
    (dx, dy; dy is None without observations) to a new array of values,
    never NaN; each of its ``tests`` maps them to a boolean mask. The
    returned ``_Fold`` holds the maximum score over pairs i < j, the first
    pair in row-major order that attains it, the first pair passing each
    test and how many pairs were examined. DomainError is raised, before
    any pair, when distances would overflow; a score or test that itself
    overflows (omega * dy) reads inf, silently.

    Pruning rests on one contract: the score and every test are evaluated
    elementwise with rounded (so monotone) float operations, the score is
    nondecreasing in dx and nonincreasing in dy, and every test is monotone
    in dx and holds more readily as dy shrinks. A node pair's bounds on dx
    and dy (see ``_LeafBlocks``) therefore bound the computed value of every
    pair below it, and a node pair is skipped only when its score bound is
    below the running maximum and no test can hold in it ahead of that
    test's first pair so far. A skipped pair scores strictly less than the
    maximum, so it cannot be or tie the witness, and the pairs examined
    give the same maximum, witness and first passing pairs as the
    exhaustive row-major scan, bit for bit. The
    k-d tree splits the observations, or the signals for a question
    without observations; the order of the rows in the tree decides only
    which rows share a block. The tiled scan runs instead whenever
    ``_scan_tiled`` says so, before any pair of leaves is bounded.
    """
    n = x.shape[0]
    fold = _Fold(score, tests)
    if n > 1:
        _check_spans({"signals": x} if y is None else {"signals": x, "observations": y})
        dim = (x if y is None else y).shape[1]
        with np.errstate(over="ignore"):
            if _scan_tiled(n, dim, 0) or not _pruned_max_pair(x, y, fold, dim):
                fold = _Fold(score, tests)  # a pruned attempt fed it the diagonal
                _tiled_max_pair(x, y, fold)
    return fold


class _Fold:
    """One pair question's answer so far, fed tile by tile by either tile
    source; pairs (i, j) compare as tuples, in row-major order. Without a
    score ``best`` is inf, which no bound reaches, so only tests refine."""

    def __init__(self, score, tests):
        self.score, self.tests = score, tests
        self.best, self.witness = np.inf if score is None else -np.inf, (0, 1)
        self.firsts = [None] * len(tests)  # per test, its first passing pair
        self.pairs_examined = 0

    def tile(self, dx, dy, valid: np.ndarray, first, which) -> None:
        """Fold in a tile: ``valid`` marks its entries that are pairs, and
        first(hits) gives the first pair set in a mask and its tile index,
        or None. Only the tests numbered in ``which`` are evaluated."""
        self.pairs_examined += int(np.count_nonzero(valid))
        for t in which:
            found = first(self.tests[t](dx, dy) & valid)
            if found is not None and (self.firsts[t] is None or found[0] < self.firsts[t]):
                self.firsts[t] = found[0]
        if self.score is None:
            return
        values = self.score(dx, dy)
        values[~valid] = -np.inf
        top = values.max()
        if top > self.best or (top == self.best and top > -np.inf):
            pair, at = first(values == top)
            if top > self.best or pair < self.witness:  # the witness's own value: 0.0 or -0.0
                self.best, self.witness = float(values[at]), pair

    def bound(self, near, far, gap, least):
        """The score bound of node pairs whose dx lie in [near, far], whose
        dy are at least gap and whose rows are at least ``least``, and a bit
        per test that may hold in one of them. A test's bit is clear where
        ``least`` is past the row of its first pair so far: every pair
        there comes later in row-major order."""
        value = np.full(far.shape, -np.inf) if self.score is None else self.score(far, gap)
        may = np.zeros(far.shape, dtype=np.int64)
        for t, test in enumerate(self.tests):
            hold = test(far, gap) | test(near, gap)
            if self.firsts[t] is not None:
                hold &= least <= self.firsts[t][0]
            may |= hold.astype(np.int64) << t
        return value, may


def _scan_tiled(n: int, dim: int, kept: int) -> bool:
    """The fixed fallback rule for n rows whose k-d tree splits dim
    coordinates: scan every pair when all of them fit eight tiles, when the
    leaves are too few to halve every coordinate once (full-dimensional
    data), or when ``kept`` exceeds half of the pairs.

    ``kept`` counts the pairs that the bounds on node pairs above the
    leaves cannot rule out (see ``_pruned_max_pair``); it is 0 before any
    bound. On a plane the tree pays only from about 450 rows, and on a
    curve of 200 to 500 rows, where no pair can be ruled out, building it
    and bounding its upper node pairs cost more than scanning every pair,
    so the cutoff sits at eight tiles (n <= 512) (``BENCH_18.json``,
    ``small_sample_cutoff``).
    """
    pairs = n * (n - 1) // 2
    return (pairs <= 8 * _PAIR_TILE_ELEMENTS or -(-n // _LEAF_ROWS) < 2 ** dim
            or 2 * kept > pairs)


@_ufunc_buffer()
def _tiled_max_pair(x: np.ndarray, y: Optional[np.ndarray], fold: _Fold) -> None:
    """Feed ``fold`` every pair, tile by tile in row-major order. A test's
    first passing pair is the first one met, so a test is evaluated only
    until it passes, and a question without a score stops there. The
    tiles are computed and folded under ``_ufunc_buffer``."""
    for i0, dx, dy in _pair_tiles(x, y):
        rows, width = dx.shape

        def first(hits):
            k = int(np.argmax(hits))
            if not hits.flat[k]:
                return None
            r, c = divmod(k, width)
            return (i0 + r, i0 + 1 + c), (r, c)

        which = [t for t, found in enumerate(fold.firsts) if found is None]
        fold.tile(dx, dy, np.arange(width) >= np.arange(rows)[:, None], first, which)
        if fold.score is None and None not in fold.firsts:
            return


def _kd_order(y: np.ndarray, count: int):
    """Rows of y in the leaf order of a k-d tree with ``count`` leaves, and
    the tree's internal nodes, level by level from the root.

    A node of m >= 2 leaves orders its rows along its widest coordinate
    of y (the first of equally wide ones) and gives its first
    ceil(m / 2) leaves of ``_LEAF_ROWS`` rows to its left child, the rest
    to its right. Each coordinate is ranked once (equal values in row
    order); a level then orders the rows of all its nodes by one sort of
    the unique keys (node, rank along the node's coordinate). Only the
    grouping into leaves depends on this order, never a result.

    Returns the order and, per level, (ids, left, right): the split nodes'
    ids, numbered from ``count`` down the levels, and their children's,
    where a child of one leaf is that leaf's index.
    """
    n, b = y.shape[0], _LEAF_ROWS
    # The rank of row i along coordinate a is at a * n + i.
    ranks = np.empty(y.size, dtype=np.int64)
    for a, column in enumerate(y.T):
        by = np.argsort(column)
        ordered = column[by]
        if (ordered[1:] == ordered[:-1]).any():  # ties: keep them in row order
            by = np.argsort(column, kind="stable")
        ranks[a * n + by] = np.arange(n)
    order = np.arange(n)
    first, ids = np.array([0]), np.array([count])  # this level's nodes
    levels, made = [], count + 1
    while True:
        leaves = np.diff(np.append(first, count))
        split = np.flatnonzero(leaves > 1)
        if split.size == 0:
            return order, levels
        starts = first * b
        sizes = np.diff(np.append(starts, n))
        rows = np.take(y, order, axis=0)
        widest = np.argmax(np.maximum.reduceat(rows, starts) - np.minimum.reduceat(rows, starts),
                           axis=1)
        del rows  # the level's largest array, freed before the keys are built
        key = np.repeat(widest * n, sizes)
        key += order
        key = ranks[key]
        key += np.repeat(np.arange(first.size) * n, sizes)
        order = order[np.argsort(key)]
        # Each split node makes way for its two children.
        parents = ids[split]
        first = np.insert(first, split + 1, first[split] + (leaves[split] + 1) // 2)
        ids = np.insert(ids, split + 1, 0)
        left = split + np.arange(split.size)
        kids = np.concatenate([left, left + 1])
        ids[kids] = first[kids]
        inner = kids[np.diff(np.append(first, count))[kids] > 1]
        ids[inner] = made + np.arange(inner.size)
        made += inner.size
        levels.append((parents, ids[left], ids[left + 1]))


def _box_gaps(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray,
              hi_b: np.ndarray) -> np.ndarray:
    """Computed lower bounds on the distance between boxes a[k] and b[k].

    The arguments are (width, k) corners. Entry k is the norm of the
    per-coordinate gaps between the two boxes, formed with the pair scan's
    own operations in its order. Rounding is monotone, so this never
    exceeds the computed distance of any two points drawn from those boxes.
    """
    def square(m):
        g = np.maximum(lo_b[m] - hi_a[m], lo_a[m] - hi_b[m])
        np.maximum(g, 0.0, out=g)
        return np.multiply(g, g, out=g)

    return _norms(square, lo_a.shape[0])


def _box_reaches(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray,
                 hi_b: np.ndarray) -> np.ndarray:
    """Computed upper bounds on the distance between boxes a[k] and b[k],
    from the far corners; never below a computed pair distance (see
    ``_box_gaps``)."""
    def square(m):
        g = np.maximum(hi_b[m] - lo_a[m], hi_a[m] - lo_b[m])
        return np.multiply(g, g, out=g)

    return _norms(square, lo_a.shape[0])


class _LeafBlocks:
    """The rows of a sample cut into leaf blocks of ``_LEAF_ROWS`` rows by a
    k-d tree (``_kd_order``) over their observations, or over their signals
    when y is None, with each node's signal box and observation box.

    Nodes 0 to count - 1 are the leaves, in order; the others are internal
    and hold a run of whole leaves. An internal node's boxes are the union
    of its children's, and its least row the least of theirs, so its
    bounds hold for every pair below it. The last leaf is padded with
    copies of its last row, which leave its boxes and least row unchanged
    and form no pair.
    """

    def __init__(self, x: np.ndarray, y: Optional[np.ndarray]):
        n, b = x.shape[0], _LEAF_ROWS
        self.n, self.count = n, -(-n // b)
        order, levels = _kd_order(x if y is None else y, self.count)
        padded = np.concatenate([order, np.full(self.count * b - n, order[-1])])
        self.rows = padded.reshape(self.count, b)
        self.real = (np.arange(self.count * b) < n).reshape(self.count, b)
        self.upper = np.triu(np.ones((b, b), dtype=bool), 1)
        # (width, blocks, rows) columns: one coordinate of one block is a row.
        self.x, self.y = [None if a is None else np.take(a.T, self.rows, axis=1) for a in (x, y)]
        nodes = 2 * self.count - 1
        # Node k's two children, or (k, -1) for a leaf.
        self.halves = np.stack([np.arange(nodes), np.full(nodes, -1)])
        self.sizes = np.empty(nodes, dtype=np.int64)
        self.sizes[:self.count] = self.real.sum(axis=1)
        self.least = np.empty(nodes, dtype=np.int64)
        self.least[:self.count] = self.rows.min(axis=1)
        # Box corners of every node: signal coordinates, then observation ones.
        leaves = np.concatenate([a for a in (self.x, self.y) if a is not None])
        self.lo = np.empty((leaves.shape[0], nodes))
        self.hi = np.empty_like(self.lo)
        self.lo[:, :self.count], self.hi[:, :self.count] = leaves.min(axis=2), leaves.max(axis=2)
        for ids, left, right in reversed(levels):
            self.halves[:, ids] = left, right
            self.sizes[ids] = self.sizes[left] + self.sizes[right]
            self.least[ids] = np.minimum(self.least[left], self.least[right])
            self.lo[:, ids] = np.minimum(self.lo[:, left], self.lo[:, right])
            self.hi[:, ids] = np.maximum(self.hi[:, left], self.hi[:, right])
        # Every pair of distinct leaves lies below exactly one of these
        # children pairs; the root's comes last, so a descent starts there.
        self.cross = self.halves[:, :self.count - 1:-1]

    def bounds(self, a: np.ndarray, b: np.ndarray):
        """Bounds for node pairs (a[k], b[k]): dx between the signal boxes'
        gap and reach, dy at least the observation boxes' gap (or None),
        and every row at least the pair's least row."""
        w = self.x.shape[0]
        lo_a, hi_a, lo_b, hi_b = self.lo[:, a], self.hi[:, a], self.lo[:, b], self.hi[:, b]
        x = lo_a[:w], hi_a[:w], lo_b[:w], hi_b[:w]
        gap = None if self.y is None else _box_gaps(lo_a[w:], hi_a[w:], lo_b[w:], hi_b[w:])
        return _box_gaps(*x), _box_reaches(*x), gap, np.minimum(self.least[a], self.least[b])

    def children(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The node pairs one level below pairs (a[k], b[k]), as a (2, m)
        array: each internal side is replaced by its two children."""
        (a0, a1), (b0, b1) = self.halves[:, a], self.halves[:, b]
        split_a, split_b = a1 >= 0, b1 >= 0
        both = split_a & split_b
        return np.stack([np.concatenate([a0, a0[split_b], a1[split_a], a1[both]]),
                         np.concatenate([b0, b1[split_b], b0[split_a], b1[both]])])

    def descend(self, visit, per_batch: int) -> None:
        """Visit the node pairs below ``cross`` depth first, in batches of
        at most ``per_batch`` pairs, so at most one pending batch of
        children per level is held. visit(a, b) returns the mask of the
        batch's pairs to refine, or None to stop."""
        stack = [self.cross]
        while stack:
            top = stack.pop()
            if top.shape[1] == 0:
                continue
            if top.shape[1] > per_batch:
                stack.append(top[:, :-per_batch])
                top = top[:, -per_batch:]
            refine = visit(*top)
            if refine is None:
                return
            if refine.any():
                stack.append(self.children(top[0, refine], top[1, refine]))

    def tile(self, p: np.ndarray, q: np.ndarray):
        """dx and dy (or None) of rows of blocks p[k] against rows of blocks
        q[k], as (k, b, b) arrays, and the mask of entries that are pairs."""
        def distances(columns):
            return _distances(columns[:, q, None, :], columns[:, p, :, None])

        valid = self.real[p][:, :, None] & self.real[q][:, None, :]
        same = p == q
        if same.any():
            valid[same] &= self.upper
        return distances(self.x), None if self.y is None else distances(self.y), valid

    def first(self, p: np.ndarray, q: np.ndarray, hits: np.ndarray):
        """The first pair (i, j), i < j, set in a tile's mask, and its index
        in the tile; None when no entry is set."""
        if not hits.any():
            return None
        k, r, s = np.nonzero(hits)
        a, b = self.rows[p[k], r], self.rows[q[k], s]
        i, j = np.minimum(a, b), np.maximum(a, b)
        m = int(np.argmin(i * self.n + j))
        return (int(i[m]), int(j[m])), (k[m], r[m], s[m])


def _pruned_max_pair(x: np.ndarray, y: Optional[np.ndarray], fold: _Fold, dim: int) -> bool:
    """Feed ``fold`` the leaf pairs that its bounds cannot rule out.

    The diagonal leaf pairs go first and seed the maximum. A first descent
    then bounds the node pairs with an internal side, never a pair of
    leaves, and subtracts the pairs below every one it can skip from the
    count of pairs kept; it stops as soon as ``_scan_tiled`` accepts that
    count, and when it never does the function returns False, having fed
    only the diagonal. The second descent bounds node pairs from the top of
    the tree down and refines only those where a test may hold or whose
    score bound reaches the running maximum. In both, a test counts as
    unable to hold in a node pair once its first pair so far precedes all
    of the node pair's rows (``_Fold.bound``), so a failing verification
    soon stops refining for violations. In each batch the leaf pairs where
    a test may hold are examined first, then the rest in decreasing
    order of their score bound (touching blocks, with an infinite ratio
    bound, first) until a bound falls below the running maximum. Memory
    stays O(n + budget).
    """
    blocks = _LeafBlocks(x, y)
    c, n = blocks.count, blocks.n
    per_tile = max(1, _PAIR_TILE_ELEMENTS // _LEAF_ROWS ** 2)
    # Node pairs per descent batch: each gathers 4 box corners per coordinate.
    # At least a quarter of the leaves keeps a large tree's batches few, in O(n).
    per_batch = max(c // 4, _PAIR_TILE_ELEMENTS // 16, 1)

    def examine(p, q, which):
        fold.tile(*blocks.tile(p, q), lambda hits: blocks.first(p, q, hits), which)

    every = range(len(fold.tests))
    diagonal = np.arange(c)
    for k0 in range(0, c, per_tile):
        examine(diagonal[k0:k0 + per_tile], diagonal[k0:k0 + per_tile], every)

    kept = n * (n - 1) // 2

    def count(a, b):
        nonlocal kept
        if not _scan_tiled(n, dim, kept):
            return None
        inner = (a >= c) | (b >= c)
        value, may = fold.bound(*blocks.bounds(a[inner], b[inner]))
        cut = (may == 0) & (value < fold.best)
        kept -= int(blocks.sizes[a[inner][cut]] @ blocks.sizes[b[inner][cut]])
        inner[inner] = ~cut
        return inner

    blocks.descend(count, per_batch)
    if _scan_tiled(n, dim, kept):
        return False

    def visit(a, b):
        value, may = fold.bound(*blocks.bounds(a, b))
        leaf = (a < c) & (b < c)
        p, q, value_pq, may_pq = a[leaf], b[leaf], value[leaf], may[leaf]
        order = np.lexsort((-value_pq, may_pq == 0))
        forced = int(np.count_nonzero(may_pq))
        for k0 in range(0, forced, per_tile):
            sel = order[k0:min(k0 + per_tile, forced)]
            flags = np.bitwise_or.reduce(may_pq[sel])
            examine(p[sel], q[sel], [t for t in every if flags >> t & 1])
        k0 = forced
        while k0 < order.size:
            sel = order[k0:k0 + per_tile]
            sel = sel[value_pq[sel] >= fold.best]  # bounds descend: a prefix
            if sel.size == 0:
                break
            examine(p[sel], q[sel], ())
            k0 += sel.size
        return ~leaf & ((may != 0) | (value >= fold.best))

    blocks.descend(visit, per_batch)
    return True


def _duplicate_error(pair: Tuple[int, int]) -> LabelingError:
    return LabelingError(f"duplicate signals at indices {pair[0]} and {pair[1]}", index=pair[1])


# ---------------------------------------------------------------------------
# Labeled data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledSet:
    """A finite list of (signal, observation) pairs from one operator.

    Stored column-wise as two read-only arrays: ``signals`` with shape
    (count, signal_dim) and ``observations`` with shape (count, obs_dim).
    ``from_arrays`` and ``from_operator`` reject duplicate signals (closer
    than ``TOL_DUP``) with a LabelingError; the constructor does not search,
    for derived sets whose rows may coincide and for samples whose one pass
    searches them (``lipschitz._scan_sample``). A duplicate is a labeling
    fault, reported ahead of a bad parameter and of the sample's own faults,
    even past overflowing distances. The search reads only the signals, so
    on low-dimensional signals it examines little beyond its leaf blocks.
    """

    signals: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        sig = as_matrix(self.signals, "signals")
        obs = as_matrix(self.observations, "observations")
        if sig.shape[0] != obs.shape[0]:
            raise DimensionError(
                f"signal count {sig.shape[0]} != observation count {obs.shape[0]}")
        object.__setattr__(self, "signals", readonly(sig))
        object.__setattr__(self, "observations", readonly(obs))

    @classmethod
    def from_arrays(cls, signals, observations) -> "LabeledSet":
        out = cls(np.atleast_2d(np.asarray(signals, dtype=np.float64)),
                  np.atleast_2d(np.asarray(observations, dtype=np.float64)))
        dup = out._find_duplicate()
        if dup is not None:
            raise _duplicate_error(dup)
        return out

    @classmethod
    def from_operator(cls, operator, signals) -> "LabeledSet":
        """Label the given signals by applying the operator to each."""
        sig = np.atleast_2d(np.asarray(signals, dtype=np.float64))
        return cls.from_arrays(sig, operator.apply(sig))

    def _find_duplicate(self) -> Optional[Tuple[int, int]]:
        """The first pair of signals closer than ``TOL_DUP``, or None."""
        return _first_max_pair(self.signals, None, tests=(lambda dx, dy: dx < TOL_DUP,)).firsts[0]

    @property
    def signal_dim(self) -> int:
        return self.signals.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.observations.shape[1]

    def __len__(self) -> int:
        return self.signals.shape[0]

    def subset(self, indices) -> "LabeledSet":
        """Rows selected by index, in the given order (no duplicate re-check)."""
        idx = np.asarray(indices, dtype=int)
        return LabeledSet(self.signals[idx], self.observations[idx])


def validate_labeled_set(labeled_set: LabeledSet, operator) -> None:
    """Check that every stored observation matches the operator's output.

    Raises LabelingError (carrying the offending index) if some pair is off
    by more than ``TOL_EVAL`` or two signals are closer than ``TOL_DUP``.
    """
    _check_observations(labeled_set, operator)
    dup = labeled_set._find_duplicate()
    if dup is not None:
        raise _duplicate_error(dup)


def _check_observations(labeled_set: LabeledSet, operator) -> None:
    """The O(n) half of ``validate_labeled_set``: dimensions and residuals."""
    if labeled_set.signal_dim != operator.signal_dim or labeled_set.obs_dim != operator.obs_dim:
        raise DimensionError(
            f"set dims ({labeled_set.signal_dim}, {labeled_set.obs_dim}) do not match "
            f"operator dims ({operator.signal_dim}, {operator.obs_dim})")
    expected = operator.apply(labeled_set.signals)
    residual = np.linalg.norm(expected - labeled_set.observations, axis=1)
    bad = np.flatnonzero(residual > TOL_EVAL)
    if bad.size:
        i = int(bad[0])
        raise LabelingError(
            f"pair {i}: observation is off by {residual[i]:.3e} (> {TOL_EVAL:.1e})", index=i)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

Verdict = Literal["certified", "violated"]


@dataclass(frozen=True)
class LipschitzCertificate:
    """Outcome of checking a finite set against a Lipschitz constant.

    ``omega`` is the constant in force (either supplied by the caller or,
    for the tight certificate, the exact maximum pairwise ratio).
    ``witness`` is the index pair attaining ``max_ratio`` (first such pair
    in row-major order); for a violated verdict its ratio exceeds omega.
    ``_pairs_examined`` records the work of the scan that made it, not a
    property of the set, and takes no part in comparisons.
    """

    omega: float
    verdict: Verdict
    witness: Optional[Tuple[int, int]]
    max_ratio: float
    _pairs_examined: Optional[int] = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "certified"
