"""Shared numeric vocabulary: vectors, labeled signal/observation sets,
Lipschitz certificates, the error taxonomy, deterministic RNG seeding, the
worker-thread budget read from LIPREC_THREADS, and the one thread helper
that spreads a kernel's blocks over it.

Everything is float64. Containers are frozen dataclasses whose arrays are
marked read-only after construction, so objects may be shared freely across
threads; all operations on them are pure functions of their inputs.

The distance used throughout the package is the Euclidean norm. The
tolerances are fixed package constants:

* ``TOL_EVAL``  (1e-9)  slack when checking that a stored observation really
  is the operator applied to its signal;
* ``TOL_DUP``   (1e-12) radius below which two signals count as duplicates;
* ``TOL_CERT``  (1e-9)  absolute slack in every certification inequality.

All are far above double rounding and far below any experiment's target
precision. Every operation reads them directly; none takes an override.

Every Lipschitz check is one reduction, ``_first_max_pair``: the maximum
of a score over all pairs, the first pair in row-major index order that
attains it, and the first pair passing each of a few tests (collision,
duplicate, violation). It takes one of two paths with the same bits.

* The tiled scan, ``_pair_tiles``, yields tiles of consecutive rows
  against every later row, each bounded by the ``_PAIR_TILE_ELEMENTS``
  budget, so memory stays O(n + budget).
* The pruned scan sorts the rows along a Morton (Z-order) curve of their
  observations and cuts leaf blocks of ``_LEAF_ROWS`` rows, keeping each
  block's signal box and observation box. The boxes' gaps and far-corner
  distances are formed with the pair scan's own operations in its order,
  and rounding is monotone, so they bound every computed pair distance
  exactly: no slack is needed. A block pair is examined only when its
  score bound can reach the running maximum or some test may hold in it.
  Diagonal blocks go first and seed the maximum. The other block pairs
  are bounded in chunks of block rows within the tile budget, twice:
  once to count the pairs the bounds keep, once to examine them. In each
  chunk the block pairs where a test may hold come first, then the rest
  in decreasing order of bound (touching blocks, with an infinite ratio
  bound, first) until a bound falls below the maximum. A skipped pair
  scores strictly less than the maximum, so it can neither be nor tie
  the witness. No list of block pairs outlives its chunk, so memory
  stays O(n + budget) here too.
* A fixed rule, ``_scan_tiled``, picks the tiled scan when all pairs fit
  one tile, or when the bounds would leave more than half of the pairs
  to examine, as on full-dimensional observations.

Distances are computed coordinate by coordinate, with the squares summed
in the order ``np.add.reduce`` uses; every distance is therefore
bit-identical to ``np.linalg.norm(a[i + 1:] - a[i], axis=1)``, for any
budget, block size and path. ``score`` sees signal distances too, so the
certification pass also finds the first duplicate signal pair, and a
pipeline that certifies a sample checks it for duplicates without a
second scan.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Iterator, Literal, NamedTuple, Optional, Tuple

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


class CalibrationError(LiprecError):
    """Normalization was requested without calibration samples."""


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
    """Worker-thread cap from LIPREC_THREADS, the hardware count by default.

    The package __init__ also passes the value to the BLAS pool as an
    environment default before numpy loads. Raises ParameterError for a
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


def _map_blocks(worker, starts: range, workers: int) -> list:
    """[block(start) for start in starts] on up to `workers` threads, in order.

    The package's one thread helper. worker() runs once on each thread
    and returns that thread's block function, so a thread sets up its
    buffers once. The threads claim the starts one at a time, in order,
    so a thread slowed by other work on its core takes fewer blocks
    instead of holding up the call. The calling thread is one of them
    and starts workers - 1 more (numpy releases the GIL inside its
    kernels). Every thread is joined before the call returns, and the
    first error raised on any of them is raised again here. With
    workers <= 1 no thread starts. Plain threads need no module beyond
    ``threading``, which numpy has loaded already: a pool module would
    cost every threaded run its import time.
    """
    if workers <= 1:
        block = worker()
        return [block(start) for start in starts]
    results = [None] * len(starts)
    claims = iter(range(len(starts)))
    lock = threading.Lock()
    errors = []

    def run() -> None:
        try:
            block = worker()
            while True:
                with lock:
                    index = next(claims, None)
                if index is None:
                    return
                results[index] = block(starts[index])
        except BaseException as exc:  # raised again on the calling thread
            with lock:
                errors.append(exc)
                for _ in claims:  # the other threads stop at their next claim
                    pass

    threads = [threading.Thread(target=run) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


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


def _tile_distances(columns: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """out[r, c] = ||a[i0 + 1 + c] - a[i0 + r]|| for rows i0 <= i0 + r < i1.

    ``columns`` is a.T, C-contiguous, so each coordinate's differences are
    one broadcast subtraction. The squares are summed over coordinates in
    ``np.add.reduce``'s order, which makes every entry bit-identical to
    ``np.linalg.norm(a[i + 1:] - a[i], axis=1)``. Entries with c < r are
    not pairs (j <= i) and are set to NaN, so every comparison with one
    is False.
    """
    rows = i1 - i0

    def square(m):
        d = columns[m, i0 + 1:] - columns[m, i0:i1, None]
        return np.multiply(d, d, out=d)

    out = _norms(square, columns.shape[0])
    out[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.nan
    return out


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


def _pair_tiles(**arrays: np.ndarray) -> Iterator[tuple]:
    """The exhaustive pair scan: yield (i0, d_1, ...) tile by tile.

    Each keyword names an (n, width_a) array. Tiles cover rows [i0, i1) in
    order, i1 - i0 = max(1, _PAIR_TILE_ELEMENTS // (n - 1 - i0)) capped at
    the rows left, and d_a[r, c] = ||a[i0 + 1 + c] - a[i0 + r]|| for every
    later row; entries with c < r are NaN (see ``_tile_distances``).
    Raises DomainError, before any tile, when some array's distances
    overflow (see ``_check_spans``).
    """
    _check_spans(arrays)
    columns = [np.ascontiguousarray(a.T) for a in arrays.values()]
    n = columns[0].shape[1]
    i0 = 0
    while i0 < n - 1:
        width = n - 1 - i0
        i1 = i0 + min(width, max(1, _PAIR_TILE_ELEMENTS // width))
        yield (i0, *[_tile_distances(c, i0, i1) for c in columns])
        i0 = i1


def _first_pair(i0: int, hits: np.ndarray) -> Optional[Tuple[int, int]]:
    """The first pair, in row-major order, whose entry of a tile's mask is set."""
    k = int(np.argmax(hits))
    if not hits.flat[k]:
        return None
    r, c = divmod(k, hits.shape[1])
    return (i0 + r, i0 + 1 + c)


class _PairScan(NamedTuple):
    """What one pass of ``_first_max_pair`` found."""

    best: float
    witness: Tuple[int, int]
    firsts: Tuple[Optional[Tuple[int, int]], ...]  # per test, its first passing pair
    pairs_examined: int


def _first_max_pair(labeled_set: LabeledSet, score, tests=()) -> _PairScan:
    """Maximum over pairs i < j of score(dx, dy), and the first pair attaining it.

    ``score`` maps arrays of signal and observation distances to a new
    array of values, never NaN; each test maps them to a boolean mask.
    The reduction reports the maximum, the first pair in row-major order
    that attains it, the first pair passing each test, and how many pairs
    it examined. Needs at least two rows; raises DomainError, before any
    pair, when distances would overflow.

    Pruning rests on one contract: the score and every test are evaluated
    elementwise with rounded (so monotone) float operations, the score is
    nondecreasing in dx and nonincreasing in dy, and every test is monotone
    in dx and holds more readily as dy shrinks. A block pair's bounds on dx
    and dy (see ``_LeafBlocks``) therefore bound the computed value of every
    pair in it, and a block pair is skipped only when its score bound is
    below the running maximum and no test can hold in it. A skipped pair
    scores strictly less than the maximum, so it cannot be or tie the
    witness, and the pairs examined give the same maximum, witness and
    first passing pairs as the exhaustive row-major scan, bit for bit.

    The tiled scan (``_pair_tiles``) runs instead whenever ``_scan_tiled``
    says so: when all pairs fit one tile, or when, after the diagonal
    blocks have seeded the maximum, the bounds would leave more than half
    of the pairs to examine.
    """
    x, y = labeled_set.signals, labeled_set.observations
    n = x.shape[0]
    pairs = n * (n - 1) // 2
    if not _scan_tiled(pairs, 0):
        pruned = _pruned_max_pair(x, y, score, tests, pairs)
        if pruned is not None:
            return pruned
    return _tiled_max_pair(x, y, score, tests, pairs)


def _scan_tiled(pairs: int, kept: int) -> bool:
    """The fixed fallback rule: scan every pair when all of them fit one
    tile or when the block bounds keep more than half of them, as on
    full-dimensional data, where bounding costs more than it saves."""
    return pairs <= _PAIR_TILE_ELEMENTS or 2 * kept > pairs


def _tiled_max_pair(x: np.ndarray, y: np.ndarray, score, tests, pairs: int) -> _PairScan:
    """``_first_max_pair`` over every pair, tile by tile in row-major order.

    Each tile row's first maximum is folded in row order with a strict
    comparison, so ties go to the first pair in row-major order, exactly
    as in a row-by-row scan; a test's first passing pair is the first one
    met.
    """
    best = -np.inf
    witness = (0, 1)
    firsts = [None] * len(tests)
    for i0, dx, dy in _pair_tiles(signals=x, observations=y):
        for t, test in enumerate(tests):
            if firsts[t] is None:
                firsts[t] = _first_pair(i0, test(dx, dy))
        values = score(dx, dy)
        rows = values.shape[0]
        values[:, :rows][np.tri(rows, k=-1, dtype=bool)] = -np.inf
        cols = np.argmax(values, axis=1)
        maxima = values[np.arange(rows), cols]
        r = int(np.argmax(maxima))
        if maxima[r] > best:
            best = float(maxima[r])
            witness = (i0 + r, i0 + 1 + int(cols[r]))
    return _PairScan(best, witness, tuple(firsts), pairs)


def _morton_order(a: np.ndarray) -> np.ndarray:
    """Row order along a Z-order (Morton) curve through a's bounding box.

    Each of the first 63 coordinates is quantised to max(1, min(20, 63 //
    width)) bits and the bits are interleaved into one code; ties keep
    their row order. Only the grouping into blocks depends on this order,
    never a result.
    """
    dims = min(a.shape[1], 63)
    bits = max(1, min(20, 63 // dims))
    lo = a[:, :dims].min(axis=0)
    span = a[:, :dims].max(axis=0) - lo
    span[span == 0.0] = 1.0
    levels = np.clip((a[:, :dims] - lo) / span * (1 << bits), 0, (1 << bits) - 1)
    q = levels.astype(np.uint64)
    code = np.zeros(a.shape[0], dtype=np.uint64)
    for bit in range(bits):
        for d in range(dims):
            code |= ((q[:, d] >> np.uint64(bit)) & np.uint64(1)) << np.uint64(bit * dims + d)
    return np.argsort(code, kind="stable")


def _box_gaps(lo: np.ndarray, hi: np.ndarray, p: slice, q: slice) -> np.ndarray:
    """Computed lower bounds on the distance between boxes p and boxes q.

    Entry [r, s] is the norm of the per-coordinate gaps between box
    p.start + r and box q.start + s, formed with the pair scan's own
    operations in its order. Rounding is monotone, so this never exceeds
    the computed distance of any two points drawn from those boxes.
    """
    def square(m):
        g = np.maximum(lo[m, q] - hi[m, p, None], lo[m, p, None] - hi[m, q])
        np.maximum(g, 0.0, out=g)
        return np.multiply(g, g, out=g)

    return _norms(square, lo.shape[0])


def _box_reaches(lo: np.ndarray, hi: np.ndarray, p: slice, q: slice) -> np.ndarray:
    """Computed upper bounds on the distance between boxes p and boxes q,
    from the far corners; never below a computed pair distance (see
    ``_box_gaps``)."""
    def square(m):
        g = np.maximum(hi[m, q] - lo[m, p, None], hi[m, p, None] - lo[m, q])
        return np.multiply(g, g, out=g)

    return _norms(square, lo.shape[0])


class _LeafBlocks:
    """The rows of a sample in Morton order of their observations, cut into
    blocks of ``_LEAF_ROWS``, with each block's signal and observation box.

    The last block is padded with copies of its last row, which leave its
    boxes unchanged and form no pair.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n, b = x.shape[0], _LEAF_ROWS
        self.n, self.count = n, -(-n // b)
        order = _morton_order(y)
        padded = np.concatenate([order, np.full(self.count * b - n, order[-1])])
        self.rows = padded.reshape(self.count, b)
        self.real = (np.arange(self.count * b) < n).reshape(self.count, b)
        self.sizes = self.real.sum(axis=1)
        self.upper = np.triu(np.ones((b, b), dtype=bool), 1)
        # (width, blocks, rows) columns: one coordinate of one block is a row.
        self.x = np.ascontiguousarray(x[self.rows].transpose(2, 0, 1))
        self.y = np.ascontiguousarray(y[self.rows].transpose(2, 0, 1))
        self.x_lo, self.x_hi = self.x.min(axis=2), self.x.max(axis=2)
        self.y_lo, self.y_hi = self.y.min(axis=2), self.y.max(axis=2)

    def bounds(self, p: slice, q: slice):
        """Bounds for block pairs (p, q): dx between the signal boxes' gap
        and reach, dy at least the observation boxes' gap."""
        return (_box_gaps(self.x_lo, self.x_hi, p, q), _box_reaches(self.x_lo, self.x_hi, p, q),
                _box_gaps(self.y_lo, self.y_hi, p, q))

    def tile(self, p: np.ndarray, q: np.ndarray):
        """dx and dy of rows of blocks p[k] against rows of blocks q[k], as
        (k, b, b) arrays, and the mask of entries that are pairs."""
        def distances(columns):
            later, earlier = columns[:, q, None, :], columns[:, p, :, None]

            def square(m):
                d = later[m] - earlier[m]
                return np.multiply(d, d, out=d)
            return _norms(square, columns.shape[0])

        valid = self.real[p][:, :, None] & self.real[q][:, None, :]
        same = p == q
        if same.any():
            valid[same] &= self.upper
        return distances(self.x), distances(self.y), valid

    def first(self, p: np.ndarray, q: np.ndarray, hits: np.ndarray):
        """i * n + j of the first pair (i < j) set in a tile's mask, and its
        index in the tile; None when no entry is set."""
        if not hits.any():
            return None
        k, r, s = np.nonzero(hits)
        i, j = self.rows[p[k], r], self.rows[q[k], s]
        keys = np.minimum(i, j) * self.n + np.maximum(i, j)
        m = int(np.argmin(keys))
        return int(keys[m]), (k[m], r[m], s[m])


def _pruned_max_pair(x: np.ndarray, y: np.ndarray, score, tests,
                     pairs: int) -> Optional[_PairScan]:
    """``_first_max_pair`` over the block pairs that its bounds cannot rule out.

    Diagonal blocks go first and seed the maximum. The other block pairs
    are bounded in chunks of block rows within the tile budget, in two
    passes, so memory stays O(n + budget). The first pass counts the
    pairs the bounds keep; when ``_scan_tiled`` prefers the tiled scan it
    returns None, having examined only the diagonal blocks. The second
    examines, chunk by chunk, every block pair where a test may hold, then
    the rest in decreasing order of their score bound (touching blocks,
    with an infinite ratio bound, first) until a bound falls below the
    running maximum.
    """
    _check_spans({"signals": x, "observations": y})
    blocks = _LeafBlocks(x, y)
    c, n = blocks.count, blocks.n
    per_tile = max(1, _PAIR_TILE_ELEMENTS // _LEAF_ROWS ** 2)
    best, best_key = -np.inf, None
    firsts = [None] * len(tests)
    examined = 0

    def examine(p, q, which):
        nonlocal best, best_key, examined
        dx, dy, valid = blocks.tile(p, q)
        examined += int(np.count_nonzero(valid))
        for t in which:
            found = blocks.first(p, q, tests[t](dx, dy) & valid)
            if found is not None and (firsts[t] is None or found[0] < firsts[t]):
                firsts[t] = found[0]
        values = score(dx, dy)
        values[~valid] = -np.inf
        top = values.max()
        if top > best or (top == best and top > -np.inf):
            key, at = blocks.first(p, q, values == top)
            if top > best or key < best_key:  # the witness's own value: 0.0 or -0.0
                best, best_key = float(values[at]), key

    every = range(len(tests))
    diagonal = np.arange(c)
    for k0 in range(0, c, per_tile):
        examine(diagonal[k0:k0 + per_tile], diagonal[k0:k0 + per_tile], every)

    step = max(1, _PAIR_TILE_ELEMENTS // c)

    def chunks():
        """Block pairs (p, q > p) for rows p of one chunk: p, q, the score
        bound, and a bit per test that may hold."""
        for p0 in range(0, c - 1, step):
            p, q = slice(p0, min(p0 + step, c - 1)), slice(p0 + 1, c)
            near, far, gap = blocks.bounds(p, q)
            with np.errstate(over="ignore"):
                bound = score(far, gap)
                may = np.zeros(bound.shape, dtype=np.int64)
                for t in every:
                    may |= (tests[t](far, gap) | tests[t](near, gap)).astype(np.int64) << t
            # Entry [r, s] is block pair (p0 + r, p0 + 1 + s), a pair of blocks when s >= r.
            r, s = np.nonzero(np.triu(np.ones(bound.shape, dtype=bool)))
            yield p0 + r, p0 + 1 + s, bound[r, s], may[r, s]

    kept = examined
    for p, q, bound, may in chunks():
        keep = (may != 0) | (bound >= best)
        kept += int(blocks.sizes[p[keep]] @ blocks.sizes[q[keep]])
        if _scan_tiled(pairs, kept):
            return None

    for p, q, bound, may in chunks():
        order = np.lexsort((-bound, may == 0))
        forced = int(np.count_nonzero(may))
        for k0 in range(0, forced, per_tile):
            sel = order[k0:min(k0 + per_tile, forced)]
            flags = np.bitwise_or.reduce(may[sel])
            examine(p[sel], q[sel], [t for t in every if flags >> t & 1])
        k0 = forced
        while k0 < order.size:
            sel = order[k0:k0 + per_tile]
            sel = sel[bound[sel] >= best]  # bounds descend: a prefix
            if sel.size == 0:
                break
            examine(p[sel], q[sel], ())
            k0 += sel.size

    def pair(key):
        return None if key is None else divmod(key, n)

    return _PairScan(best, pair(best_key) or (0, 1), tuple(pair(k) for k in firsts), examined)


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
    Duplicate signals (closer than ``TOL_DUP``) are rejected at
    construction unless explicitly waived, e.g. for derived training data
    whose targets may legitimately coincide, or for a sample whose
    certification pass checks for duplicates itself.
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
    def from_arrays(cls, signals, observations, *, check_duplicates: bool = True) -> "LabeledSet":
        out = cls(np.atleast_2d(np.asarray(signals, dtype=np.float64)),
                  np.atleast_2d(np.asarray(observations, dtype=np.float64)))
        if check_duplicates:
            dup = out._find_duplicate()
            if dup is not None:
                raise _duplicate_error(dup)
        return out

    @classmethod
    def from_operator(cls, operator, signals, *, check_duplicates: bool = True) -> "LabeledSet":
        """Label the given signals by applying the operator to each."""
        sig = np.atleast_2d(np.asarray(signals, dtype=np.float64))
        obs = operator.apply(sig)
        return cls.from_arrays(sig, obs, check_duplicates=check_duplicates)

    def _find_duplicate(self) -> Optional[Tuple[int, int]]:
        for i0, d in _pair_tiles(signals=self.signals):
            dup = _first_pair(i0, d < TOL_DUP)
            if dup is not None:
                return dup
        return None

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
