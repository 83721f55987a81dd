"""Shared numeric vocabulary: vectors, labeled signal/observation sets,
Lipschitz certificates, the error taxonomy, deterministic RNG seeding, and
the worker-thread budget read from LIPREC_THREADS.

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

Every pairwise check runs on one O(n^2) scan, ``_pair_tiles``. It yields
tiles of consecutive rows against every later row, each bounded by the
``_PAIR_TILE_ELEMENTS`` budget, so memory stays O(n + budget). A tile is
computed coordinate by coordinate, with the squares summed in the order
``np.add.reduce`` uses; every distance is therefore bit-identical to
``np.linalg.norm(a[i + 1:] - a[i], axis=1)``, for any budget.
``_first_max_pair`` breaks ties to the first pair in row-major index order,
so witnesses never depend on the tiling. ``score`` sees each tile's signal
distances, so the certification pass also finds the first duplicate signal
pair, and a pipeline that certifies a sample checks it for duplicates
without a second scan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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


# Element budget of one pair-scan tile: rows * width distances per array,
# 2**14 float64s (128 KiB), so a tile and its few temporaries stay in a
# core's L2 cache. A tile holds max(1, budget // width) rows. Every distance
# is computed by the same per-pair arithmetic whatever the tile shape, so
# constants and witnesses are bit-identical for every budget; only speed
# and memory change.
_PAIR_TILE_ELEMENTS = 1 << 14

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

    out = _pairwise_sum(square, 0, columns.shape[0])
    np.sqrt(out, out=out)
    out[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.nan
    return out


def _pair_tiles(**arrays: np.ndarray) -> Iterator[tuple]:
    """The package's one pair scan: yield (i0, d_1, ...) tile by tile.

    Each keyword names an (n, width_a) array. Tiles cover rows [i0, i1) in
    order, i1 - i0 = max(1, _PAIR_TILE_ELEMENTS // (n - 1 - i0)) capped at
    the rows left, and d_a[r, c] = ||a[i0 + 1 + c] - a[i0 + r]|| for every
    later row; entries with c < r are NaN (see ``_tile_distances``).
    Raises DomainError, before any tile, when some array's squared
    bounding-box diagonal overflows: its distances would be inf, and
    inf/inf ratios certify nothing.
    """
    for name, a in arrays.items():
        with np.errstate(over="ignore"):
            span = a.max(axis=0) - a.min(axis=0)
            diagonal2 = np.sum(span * span)
        if not np.isfinite(diagonal2):
            raise DomainError(f"{name}: pairwise distances overflow float64 (the squared "
                              "diagonal of their bounding box is not finite)")
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


def _first_max_pair(labeled_set: LabeledSet, score) -> Tuple[float, Tuple[int, int]]:
    """Maximum over pairs i < j of score(i0, dx, dy), and the first pair attaining it.

    ``score`` maps a tile's signal and observation distances (see
    ``_pair_tiles``) to a new array of one value per entry; its non-pair
    entries are overwritten. Each tile row's first maximum is folded in
    row order with a strict comparison, so ties go to the first pair in
    row-major order and a row whose maximum is NaN never wins, exactly as
    in a row-by-row scan. Needs at least two rows.
    """
    best = -np.inf
    witness = (0, 1)
    for i0, dx, dy in _pair_tiles(signals=labeled_set.signals,
                                  observations=labeled_set.observations):
        values = score(i0, dx, dy)
        rows = values.shape[0]
        values[:, :rows][np.tri(rows, k=-1, dtype=bool)] = -np.inf
        cols = np.argmax(values, axis=1)
        maxima = values[np.arange(rows), cols]
        r = int(np.argmax(np.where(np.isnan(maxima), -np.inf, maxima)))
        if maxima[r] > best:
            best = float(maxima[r])
            witness = (i0 + r, i0 + 1 + int(cols[r]))
    return best, witness


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
    """

    omega: float
    verdict: Verdict
    witness: Optional[Tuple[int, int]]
    max_ratio: float

    @property
    def passed(self) -> bool:
        return self.verdict == "certified"
