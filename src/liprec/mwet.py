"""The constructive recovery learner: a McShane-Whitney min-form extension.

Given a finite labeled set with injective observations and a per-coordinate
constant omega1 at least the set's tight Lipschitz constant, the hypothesis

    g_i(y) = min over training pairs (x, y_x) of  x_i + omega1 * ||y - y_x||

interpolates the training data exactly, each coordinate is omega1-Lipschitz
on all of observation space, and the stacked map G = (g_1, ..., g_d) is
omega1 * sqrt(d)-Lipschitz, where d is the output dimension. Fitting stores
nothing beyond the training data and omega1; evaluation is the exact min,
scanned over every training point, because any nearest-neighbor shortcut
would void the interpolation guarantee.

Evaluation is coordinate-major. Query tiles are the outer loop: each
tile of up to rows queries is copied once, transposed, into an (m, rows)
buffer. Training chunks are the inner loop. For one chunk and one tile,
each observation coordinate costs one broadcast subtract, a query row
minus a training column, into a (chunk, rows) block, squared in place and
added into one of two lane accumulators, in the order numpy's einsum dot
loop sums a contiguous axis (see ``_einsum_lanes``). The squared distances
are therefore bit-identical to ``np.einsum("kjm,kjm->kj", d, d)`` on the
(queries, training, m) difference block. The result is held
output-major, as a (d, queries) array, so each output coordinate's
running min across chunks is a contiguous row: the first chunk's min
over the chunk axis goes straight into it, and each later chunk's goes
into a spare row and is folded in from there. ``evaluate`` returns one
transposed, C-contiguous copy; ``lipschitz_audit`` reads the rows as
they are and sums their squares row by row (``_row_norms``). Tiles are long
(thousands of queries) and chunks short (a few training points), and each
tile runs under a small numpy ufunc buffer (``core._ufunc_buffer``), so
that the broadcast numpy calls of a full tile run on rows longer than
the buffer and skip numpy's buffered loop; see ``_MIN_ROWS``. Every
buffer is bounded by an element count, so evaluation memory is O(tile)
whatever the number of queries, and the result is the same exact min
over every training point for any tile or chunk size.

A call of at least ``_THREAD_PAIRS`` query-training distances runs its
tiles on up to ``core.thread_budget()`` threads (LIPREC_THREADS), at most
``_MAX_THREADS`` and at most one per tile, the calling thread included;
they claim the tiles in order through ``core._map_blocks``. Each thread
keeps its own buffer set, and with at most ``_MAX_THREADS`` sets
evaluation memory stays O(tile) on any host. Each tile writes only its
own columns of the result. A query's arithmetic does not depend on its tile
or thread, so the output is bit-identical for any thread count. Smaller
calls run on the calling thread alone. Once every tile has finished, an
entry that overflowed on the way is recomputed at a power-of-two scale;
only a recovered value that itself exceeds float64 raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import core
from .core import (
    TOL_CERT,
    ConstantTooSmallError,
    DegenerateSetError,
    DomainError,
    LabeledSet,
    ParameterError,
    as_batch,
    seeded_rng,
    thread_budget,
)
from .lipschitz import tight_omega

# Element budget for one (chunk, rows) float64 block: 2**15 elements is
# 256 KiB, and the distance pass keeps three such blocks (two lanes and
# one square) live, which stays in a core's L2 cache. The coordinates are
# walked one at a time, so no block has an m axis and the budget does not
# scale with m. A query tile holds rows = max(_MIN_ROWS, budget // n)
# queries, capped at the query count, and a training chunk holds
# max(1, budget // rows) points, capped at n: 16 points at the floor.
#
# The floor is set by the cost of numpy's broadcast calls, and that cost
# is set by numpy's ufunc buffer, not by the row count: a broadcast call
# whose rows are shorter than the buffer (8192 elements by default) can
# run through numpy's buffered iterator, at 3-4x the cost per element, as
# the add below does at every row length under 8192. Each block therefore
# runs under core._ufunc_buffer (1024 elements), where rows of 1024 and
# up cost what 8192-row ones do. In ns per element on a
# 2**15-element block, at buffer 8192 and at 1024 (2-vCPU Xeon,
# numpy 2.4.6; BENCH_26.json, op_sweep):
#
#   rows                               256    1024   2048   4096   8192
#   subtract, row - column    8192     0.76   0.98   1.00   0.25   0.27
#                             1024     0.55   0.26   0.23   0.24   0.28
#   add, block + column       8192     0.83   0.83   0.81   0.82   0.24
#                             1024     0.82   0.30   0.25   0.28   0.24
#   min over axis 0           8192     0.25   0.20   0.23   0.23   0.29
#     (contiguous out)        1024     0.24   0.21   0.24   0.25   0.29
#
# So a tile holds at least 2048 rows (a call's last may hold fewer), and
# the result is output-major, so that every per-output min and fold
# writes a contiguous row. Of floors 1024, 2048 and 4096 under buffers
# of 512, 1024 and 2048 elements, 2048 rows ran mwet_dense's and
# criterion 2's calls fastest, with buffers of 512 and 1024 level
# (BENCH_26.json, floor_buffer_sweep); a 20000-query call is ten tiles,
# which two threads share evenly. A
# 2**16 budget (more points per chunk) raised mwet_dense's peak memory by
# 4.5% (measured under the default buffer). The lanes sum over m alone,
# in an order that depends on m only, and the min is exact, so the output
# is bit-identical for every budget, floor and buffer size; only speed
# and memory change. Each evaluation thread holds one tile, lane, square
# and min-row set, about 0.9 MiB at m = 8; the (m, rows) tile takes
# 16 KiB of it per observation coordinate.
_TILE_ELEMENTS = 1 << 15
_MIN_ROWS = 2048

# A call runs its tiles on more than one thread only when it computes at
# least this many query-training distances. Below it a second thread
# does not pay reliably: on a 2-core host, calls of 0.8M-2M distances
# (selftest's audits, theorem3_sheet's) ran 0.72-1.27x their serial time
# on two threads, median 0.91-1.03x, and up to 1.32x with the other core
# busy, so selftest's run_s spread several times wider than serially.
# mwet_dense's call of 3e7 distances ran 0.83x (median of 3; 0.79-1.10x)
# and 0.88-0.93x with the other core busy.
# At most _MAX_THREADS threads take part, whatever LIPREC_THREADS allows,
# so the (chunk, rows) blocks of a call stay within 12 blocks, 3 MiB.
# Smaller blocks would bound memory too, but each numpy call then does
# less work per GIL hand-off: halving the blocks on two threads took away
# most of the gain (mwet_dense's evaluate went from 0.67 to 0.88 of the
# serial time).
_THREAD_PAIRS = 1 << 22
_MAX_THREADS = 4

# Drawn audit pairs closer than this fraction of the sampling box are
# redrawn: their ratio measures rounding noise, not the map's expansion.
_AUDIT_FLOOR = 1e-4


def _einsum_lanes(m: int) -> tuple[list[int], list[int]]:
    """The coordinates each of einsum's two float64 lanes adds, in order.

    This is the order in which numpy's einsum dot loop (SSE baseline: two
    lanes, separate multiply and add) sums the products over a contiguous
    axis of m elements: each full block of eight is four two-lane vectors,
    added into the accumulator last to first, so lane 0 takes b + 6, b + 4,
    b + 2, b and lane 1 takes b + 7, b + 5, b + 3, b + 1; the m % 8 tail
    coordinates then alternate between the lanes in increasing order, and
    the result is lane 0 + lane 1. numpy starts each lane from 0.0; the
    terms are nonnegative squares, so 0.0 + x is exactly x and that step is
    skipped. The pair scan's counterpart is ``core._pairwise_sum``, which
    holds ``np.add.reduce``'s order instead.
    """
    full = m - m % 8
    lanes = ([], [])
    for b in range(0, full, 8):
        lanes[0].extend((b + 6, b + 4, b + 2, b))
        lanes[1].extend((b + 7, b + 5, b + 3, b + 1))
    for t in range(full, m):
        lanes[(t - full) % 2].append(t)
    return lanes


@dataclass(frozen=True)
class MwetHypothesis:
    """A fitted min-form extension: training data plus the two constants.

    ``omega1`` bounds every coordinate's expansion; ``omega_global``
    (omega1 * sqrt(output_dim)) bounds the stacked map's. Immutable after
    fitting; ``evaluate`` is pure and safe for concurrent callers.
    """

    training: LabeledSet
    omega1: float
    omega_global: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "omega_global", self.omega1 * math.sqrt(self.training.signal_dim))

    @property
    def input_dim(self) -> int:
        return self.training.obs_dim

    @property
    def output_dim(self) -> int:
        return self.training.signal_dim

    def evaluate(self, y) -> np.ndarray:
        """Recover signals for one observation (m,) or a stack (k, m).

        A value whose terms overflow on the way (a far query's squares,
        or omega1 times its distance) is recomputed at a power-of-two
        scale, so DomainError is raised only for a recovered value that
        itself exceeds float64. With omega1 = 0 every query recovers the
        signals' column minima. The result is C-contiguous.
        """
        q, single = as_batch(y, self.input_dim, "observations")
        # A copy, not the .T view: np.linalg.norm(axis=1) sums the rows of
        # an F-order array in sequence and of a C-order one pairwise, so
        # callers' norms would change bits from d = 8 up.
        out = self._evaluate_rows(q).T.copy()
        return out[0] if single else out

    def _evaluate_rows(self, q: np.ndarray) -> np.ndarray:
        """evaluate(q).T for a (count, m) batch, as a C-contiguous (d, count) array."""
        sig = self.training.signals
        (count, m), n = q.shape, len(self.training)
        out = np.empty((self.output_dim, count))
        threads = thread_budget()  # an invalid LIPREC_THREADS fails at any size
        if self.omega1 == 0.0:
            # Every term is 0 * distance + signal, so each query recovers
            # the same column minima, without the distance pass whose
            # squares could overflow.
            out[:] = np.add(0.0, sig).min(axis=0)[:, None]
            return out
        columns = np.ascontiguousarray(self.training.observations.T)
        signals = np.ascontiguousarray(sig.T)
        rows = max(1, min(count, max(_MIN_ROWS, _TILE_ELEMENTS // n)))
        chunk = min(n, max(1, _TILE_ELEMENTS // rows))
        lanes = _einsum_lanes(m)
        starts = range(0, count, rows)
        workers = 1
        if count * n >= _THREAD_PAIRS:
            workers = min(threads, len(starts), _MAX_THREADS)

        def worker():
            # One buffer set per thread; each tile writes only its own
            # columns of out. errstate and the ufunc buffer size are per
            # thread, so each tile sets both.
            tile = np.empty((m, rows))
            acc = np.empty((2, chunk, rows))
            scratch = np.empty((chunk, rows))
            low = np.empty(rows)

            @np.errstate(over="ignore")
            @core._ufunc_buffer()
            def block(start: int) -> None:
                k = min(rows, count - start)
                tile[:, :k] = q[start:start + k].T
                for j0 in range(0, n, chunk):
                    c = min(chunk, n - j0)
                    square = scratch[:c, :k]
                    for lane, coords in zip(acc[:, :c, :k], lanes):
                        for pos, t in enumerate(coords):
                            d = square if pos else lane
                            np.subtract(tile[t, :k], columns[t, j0:j0 + c, None], out=d)
                            np.multiply(d, d, out=d)
                            if pos:
                                lane += square
                    base = acc[0, :c, :k]
                    if lanes[1]:
                        base += acc[1, :c, :k]
                    np.sqrt(base, out=base)
                    np.multiply(self.omega1, base, out=base)
                    for i in range(self.output_dim):
                        row = out[i, start:start + k]
                        np.add(base, signals[i, j0:j0 + c, None], out=square)
                        if j0 == 0:
                            square.min(axis=0, out=row)
                        else:
                            square.min(axis=0, out=low[:k])
                            np.minimum(row, low[:k], out=row)

            return block

        core._map_blocks(worker, starts, workers)
        self._rescale_overflows(q, out.T)
        return out

    __call__ = evaluate

    def _rescale_overflows(self, q: np.ndarray, out: np.ndarray) -> None:
        """Recompute the entries of out that overflowed; raise if one must.

        With omega1 > 0 an entry is inf, never NaN, and only when every
        training pair's term overflowed on the way: a coordinate gap, the
        sum of squares, omega1 times the distance, or the signal added.
        Here the query, the observations and the signals are divided by
        a power of two of at least 2 * sqrt(m), so no gap or distance
        overflows (``_row_norms`` rescales squares that do), and the
        value is multiplied back. Scaling by a power of two is exact short
        of underflow, so an entry is inf afterwards only when the min-form
        value itself exceeds float64, and then the first such query is
        named. Entries that came out finite keep their bits.
        """
        # A whole-array test first: the per-row one costs about ten times
        # as much, and almost every call has nothing to recompute.
        if not np.isinf(out).any():
            return
        wide = np.flatnonzero(np.isinf(out).any(axis=1))
        scale = float(2 ** (self.input_dim.bit_length() + 1))
        obs = self.training.observations / scale
        sig = self.training.signals / scale
        with np.errstate(over="ignore"):
            for r in wide:
                dist = _row_norms(q[r] / scale - obs)
                value = np.add(self.omega1 * dist[:, None], sig).min(axis=0) * scale
                inf = np.isinf(out[r])
                out[r, inf] = value[inf]
                if np.isinf(value[inf]).any():
                    raise DomainError(
                        f"the recovered value of query {r} overflows float64: for "
                        f"every training pair, a signal plus omega1 = {self.omega1:.6g} "
                        "times the pair's distance to the query exceeds the float64 range")

    def training_residuals(self) -> np.ndarray:
        """Per-pair norm of evaluate(observation) - signal; ~0 by construction."""
        recovered = self.evaluate(self.training.observations)
        return np.linalg.norm(recovered - self.training.signals, axis=1)

    def lipschitz_audit(self, num_pairs: int, seed: int) -> float:
        """Empirical expansion ratio over random observation pairs.

        Pairs are drawn uniformly from the bounding box of the training
        observations inflated by 50% around its center. The returned
        maximum of ||G(y1) - G(y2)|| / ||y1 - y2|| never exceeds
        omega_global beyond rounding. Degenerate boxes (every training
        observation identical) give 0. A box that holds a point whose
        recovered value overflows float64 raises DomainError.
        """
        if num_pairs < 1:
            raise ParameterError("num_pairs must be >= 1")
        obs = self.training.observations
        lo, hi = obs.min(axis=0), obs.max(axis=0)
        center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        lo, hi = center - 1.5 * half, center + 1.5 * half
        diameter = float(np.linalg.norm(hi - lo))
        if diameter == 0.0:
            return 0.0
        floor = _AUDIT_FLOOR * diameter
        rng = seeded_rng(seed)
        # One draw of both endpoints takes the same stream as two draws of
        # one each, and one evaluate call covers both halves.
        ends = rng.uniform(lo, hi, size=(2, num_pairs, self.input_dim))
        y1, y2 = ends
        gaps = _row_norms(y1 - y2)
        for _ in range(64):
            close = np.flatnonzero(gaps < floor)
            if close.size == 0:
                break
            y2[close] = rng.uniform(lo, hi, size=(close.size, self.input_dim))
            gaps[close] = _row_norms(y1[close] - y2[close])
        try:
            recovered = self._evaluate_rows(ends.reshape(2 * num_pairs, self.input_dim))
        except DomainError as exc:
            raise DomainError(
                "the audit's sampling box (the training observations' bounding box, "
                "inflated by 50%) holds a point whose recovered value overflows float64 "
                f"at omega1 = {self.omega1:.6g}") from exc
        num = _row_norms((recovered[:, :num_pairs] - recovered[:, num_pairs:]).T)
        valid = gaps >= floor
        if not np.any(valid):
            return 0.0
        return float((num[valid] / gaps[valid]).max())


def _row_norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each C-order row of d, without overflow in the squares.

    The squares of columns d[:, t] are summed in ``np.add.reduce``'s order
    over a contiguous axis (``core._norms``), so every norm is
    bit-identical to ``np.linalg.norm`` of a C-contiguous copy of d,
    whatever its layout: output-major rows are read as they are through
    their transpose. ``_pairwise_sum`` adds into its terms, so each square
    is a fresh array. A row whose norm is not finite is divided by the
    power of two at or just below its largest magnitude, which is finite,
    and its norm multiplied back. Both steps are exact short of underflow,
    so the result is inf only where the norm itself exceeds float64.
    """
    def norms(a):
        return core._norms(lambda t: np.multiply(a[:, t], a[:, t]), a.shape[1])

    with np.errstate(over="ignore"):
        out = norms(d)
        big = np.flatnonzero(~np.isfinite(out))
        if big.size:
            rows = d[big]
            largest = np.maximum(rows.max(axis=1), -rows.min(axis=1))
            scale = np.ldexp(1.0, np.frexp(largest)[1] - 1)
            out[big] = norms(rows / scale[:, None]) * scale
    return out


def fit(training: LabeledSet, omega1: Optional[float] = None) -> MwetHypothesis:
    """Fit the min-form extension on a labeled set.

    When omega1 is omitted it defaults to the set's tight Lipschitz
    constant (0 for a singleton, which degenerates the extension to the
    constant map). A supplied omega1 may be larger, e.g. the constant of an
    enclosing certified set, but one below the tight constant voids the
    interpolation guarantee and raises ConstantTooSmallError. An omega1
    whose global constant omega1 * sqrt(d) overflows raises ParameterError:
    an infinite bound would pass any audit. Injectivity of the observations
    is required and checked.
    """
    if len(training) == 0:
        raise DegenerateSetError("cannot fit on an empty labeled set")
    return _fit(training, omega1, 0.0 if len(training) == 1 else tight_omega(training).omega)


def _fit(training: LabeledSet, omega1: Optional[float], tight: float) -> MwetHypothesis:
    """``fit`` on a non-empty set whose tight constant is already known.

    The covering pipelines pass tight = 0.0 with omega1 = the omega their
    sample certified at: their training set is drawn from the certified
    sample, so that certificate stands in for the tight constant and no
    pass over the training pairs runs. The min-form extension at any
    omega1 is omega1-Lipschitz per coordinate, and it interpolates
    wherever the certificate holds. The overflow check on omega1 * sqrt(d)
    runs either way.
    """
    if omega1 is None:
        omega1 = tight
    else:
        omega1 = float(omega1)
        if not (np.isfinite(omega1) and omega1 >= 0.0):
            raise ParameterError(f"omega1 must be a nonnegative finite number, got {omega1}")
        if omega1 < tight and not np.isclose(omega1, tight, rtol=1e-9, atol=TOL_CERT):
            raise ConstantTooSmallError(
                f"omega1 = {omega1:.6g} is below the tight constant {tight:.6g}")
    if not math.isfinite(omega1 * math.sqrt(training.signal_dim)):
        raise ParameterError(
            f"omega1 * sqrt({training.signal_dim}) overflows float64 (omega1 = {omega1:.6g})")
    return MwetHypothesis(training=training, omega1=float(omega1))
