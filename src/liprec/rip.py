"""Exact restricted isometry constants and the sparse-pair Lipschitz bridge.

delta_S is the smallest d such that every submatrix of at most S columns
satisfies (1 - d)|c|^2 <= |A_T c|^2 <= (1 + d)|c|^2, computed here by
exhaustive enumeration of column subsets and the spectra of their Gram
matrices. No sampling: estimates would defeat the point of comparing
against the exact constant. The classical sparse-recovery condition is
delta_2S + delta_3S < 1.

Every constant comes from one kernel, ``_subset_spectra``. It names each
subset by its colex rank in the combinatorial number system: the
k-subset c_1 < ... < c_k has rank sum_j C(c_j, j), so every subset of
range(t) comes before any whose top column is t. No size is held as an
index array; each eigvalsh block unranks its own rows (``_unranked``).
Each size is decided once. It goes to ``np.linalg.eigvalsh`` whole when
it has at most a quarter block of subsets, or when the previous size's
extremes lo and hi leave no room to prove a spectrum inside them (hi -
lo within the test's margin, as for the identity). Every other size is
tested in full: a float Cholesky test on the calling thread proves most
spectra inside (lo, hi) by a margin. lo and hi bound this size's
extremes by Cauchy interlacing, so a subset the test rules out has a
deviation strictly below its size's best and cannot change a record. The
test reads only the last row of each subset's shifted Cholesky factor,
and builds those rows one size at a time at the tested size's shifts: a
subset whose two largest columns are p < t takes the row of the subset
without p, one new entry from the rows of the subsets without p and
without t, and a last pivot. Those are the float operations, in the same
order, that factoring the subset's Gram applies to its last row, so the
test certifies exactly the subsets a full factorisation would, at one
dot product of length k - 2 per subset of the tested size k. Memory is
those rows of size S - 1 on both sides, O(C(N, S - 1) S) floats, plus a
few blocks. The size's ranks, one range or one sorted array of the
subsets the test kept, go to eigvalsh in colex order in fixed blocks
that up to ``core.thread_budget()`` threads claim in order (numpy
releases the GIL inside the eigensolver). Block results are reduced in
block order with a strict comparison, so the constants and the extremal
subset (the first in size-then-colex order) are bit-identical for every
block size and thread count. A Gram matrix that overflows float64 is
rejected with DomainError before any size.

The kernel returns one record per size, and a size's record depends on
the smaller sizes alone, so a pass at S serves every size up to S. Each
caller makes one pass per matrix and folds its records: ``_rip_report``
gives delta_S, ``_balance`` the optimal uniform rescaling and
``_sparse_probe`` the sparse-pair check. ``rip_delta``,
``spectral_balance`` and ``verify_sparse_lipschitz`` are a pass plus one
fold; ``check_recoverability_condition`` reads delta_2S and delta_3S
from a pass at 3S, the cli's ``rip`` task delta_S and delta_2S from a
pass at 2S, and acceptance criterion 6 every constant from one pass on
its raw matrix and one on the rescaled matrix.

Differences of S-sparse signals are 2S-sparse, so delta_2S < 1 makes any
set of S-sparse signals Lipschitz-recoverable with constant
1/sqrt(1 - delta_2S); verify_sparse_lipschitz probes that bound with
random sparse pairs, at least one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from . import core
from .core import (
    TOL_CERT,
    DomainError,
    NotApplicableError,
    ParameterError,
    TooLargeError,
    as_matrix,
    seeded_rng,
    thread_budget,
)
from .operators import MatrixOperator

ENUMERATION_CAP = 10 ** 7

# Subsets per eigvalsh call, and rows per chunk of the pruning test (a chunk
# holds whole p-blocks, see _chunks). Each worker thread holds one block's
# Gram stack and spectra at a time, and the test one chunk's operands, so a
# small block keeps peak memory level; the results do not depend on the
# block size.
_EIG_BLOCK = 1 << 12

# Margin of the pruning test, in units of 2^e >= max(1, max |G|) for the
# Gram matrix G. It is far above the backward errors of the test and of
# eigvalsh, O(k^2 eps) in these units, and above the rounding of 1 - lambda
# and lambda - 1, so a subset that the test rules out cannot tie the best
# deviation. Relative to max |G| alone it would fall below that rounding
# where lambda << 1, and 1 - lambda rounds alike for distinct lambda.
_MARGIN = 2.0 ** -30


def _as_matrix_array(operator) -> np.ndarray:
    if isinstance(operator, MatrixOperator):
        return operator.matrix
    return as_matrix(operator, "matrix")


def _unranked(ranks: np.ndarray, pascal: np.ndarray) -> np.ndarray:
    """The k-subsets of colex ranks ``ranks``, one ascending row each.

    pascal[j - 1, t] = C(t, j) for j = 1..k over t in range(N). The subset
    c_1 < ... < c_k of range(N) has colex rank sum_j C(c_j, j) (the
    combinatorial number system), so c_k is the last t with C(t, k) <= rank,
    c_1..c_{k-1} is the (k - 1)-subset of rank rank - C(c_k, k), and c_1 is
    what remains.
    """
    sub = np.empty((pascal.shape[0], len(ranks)), dtype=np.intp)
    rest = sub[0]
    rest[:] = ranks
    for j in range(pascal.shape[0] - 1, 0, -1):
        np.subtract(pascal[j].searchsorted(rest, side="right"), 1, out=sub[j])
        rest -= pascal[j].take(sub[j])
    return sub.T


def _check_enumeration(a: np.ndarray, S: int) -> None:
    """Rejects an S out of range, or more than ENUMERATION_CAP subsets of size 1..S."""
    m, n = a.shape
    if not 1 <= S <= min(m, n):
        raise ParameterError(f"need 1 <= S <= min(M, N) = {min(m, n)}, got S = {S}")
    total = sum(math.comb(n, k) for k in range(1, S + 1))
    if total > ENUMERATION_CAP:
        raise TooLargeError(
            f"{total} subsets exceed the enumeration cap {ENUMERATION_CAP}; "
            "exact computation at this size is off the table")


@dataclass(frozen=True)
class _SizeSpectra:
    """Extremes of the Gram spectra over every column subset of one size."""

    lambda_min: float
    lambda_max: float
    deviation: float  # largest max(1 - lambda_min, lambda_max - 1)
    subset: Tuple[int, ...]  # first subset in colex order attaining it


def _extremes(low: np.ndarray, high: np.ndarray) -> Tuple[float, float, float, int]:
    """Smallest low, largest high, largest deviation and its first index."""
    dev = np.maximum(1.0 - low, high - 1.0)
    j = int(np.argmax(dev))
    return float(low.min()), float(high.max()), float(dev[j]), j


def _spectra(gram: np.ndarray, sub: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest and largest Gram eigenvalue of each subset in the rows of sub."""
    lam = np.linalg.eigvalsh(gram[sub[:, :, None], sub[:, None, :]])
    return lam[:, 0], lam[:, -1]


def _fold(acc: tuple, part: tuple) -> tuple:
    """Folds one block's extremes into a level's; a later block must beat the deviation."""
    lo, hi, best, where = acc
    b_lo, b_hi, b_dev, j = part
    if b_dev > best:
        best, where = b_dev, j
    return min(lo, b_lo), max(hi, b_hi), best, where


def _chunks(n: int, k: int) -> Iterator[Tuple[int, List[Tuple[int, int, int]]]]:
    """(first row, chunk) for each chunk of colex level k >= 2, in row order.

    The subsets whose two largest columns are p < t fill rows C(t, k) +
    C(p, k - 1) up to C(t, k) + C(p + 1, k - 1), a p-block of C(p, k - 2)
    rows. A chunk is a run of whole p-blocks, at most _EIG_BLOCK rows, or
    one p-block alone where it is longer, listed as (t, p0, p1) for the
    p-blocks of top t from p0 to p1 - 1.
    """
    first, chunk, rows = 0, [], 0
    for t in range(k - 1, n):
        p0 = k - 2
        for p in range(k - 2, t):
            size = math.comb(p, k - 2)
            if rows and rows + size > _EIG_BLOCK:
                if p > p0:
                    chunk.append((t, p0, p))
                yield first, chunk
                first, chunk, rows, p0 = first + rows, [], 0, p
            rows += size
        chunk.append((t, p0, t))
    yield first, chunk


def _extension(signed: np.ndarray, below: np.ndarray, chunk: List[Tuple[int, int, int]]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of level k's factor rows (see _chunks), from level k - 1 = below.

    Returns (rows of Q + {t}, x, pivot, certified) over the chunk's subsets
    T = Q + {p, t}, p < t its two largest columns. For Q row r of level
    k - 2, Q + {p} is row C(p, k - 1) + r of level k - 1 and Q + {t} row
    C(t, k - 1) + r: the former rows are one slice per top, the latter a
    prefix of the t-block per p-block. T's last factor row is Q + {t}'s row
    and x = (G[t, p] - sum_i row_i(Q + {t}) row_i(Q + {p})) /
    sqrt(pivot(Q + {p})), the products subtracted in i order, and T's pivot
    is pivot(Q + {t}) - x x (see _factor_level for the layout and for the
    subsets that fail).
    """
    k = below.shape[0] + 1
    blocks = [(t, p) for t, p0, p1 in chunk for p in range(p0, p1)]
    counts = [math.comb(p, k - 2) for _, p in blocks]
    with_t = np.concatenate([below[:, :, math.comb(t, k - 1):math.comb(t, k - 1) + count]
                             for (t, _), count in zip(blocks, counts)], axis=2)
    with_p = [below[:, :, math.comb(p0, k - 1):math.comb(p1, k - 1)] for _, p0, p1 in chunk]
    with_p = with_p[0] if len(with_p) == 1 else np.concatenate(with_p, axis=2)
    x = np.repeat(np.concatenate([signed[t, :, p0:p1] for t, p0, p1 in chunk], axis=1),
                  counts, axis=1)
    for i in range(k - 2):
        x -= with_t[i] * with_p[i]
    x /= np.sqrt(with_p[-1])
    pivot = with_t[-1] - x * x
    return with_t, x, pivot, (with_p[-1] > _MARGIN) & (pivot > _MARGIN)


def _diagonal_level(scaled: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Level 1 of the factor rows (see _factor_level): each column's pivot alone.

    scaled is the Gram matrix G times 2^-exp, with 2^exp >= max(1, max |G|);
    sigma holds the two sides' shifts in the same units.
    """
    diag = np.diag(scaled)
    pivot = np.stack([diag, -diag]) - (sigma + _MARGIN)[:, None]
    return np.maximum(pivot, _MARGIN)[None]


def _factor_level(signed: np.ndarray, below: np.ndarray) -> np.ndarray:
    """The last row of every k-subset's shifted Cholesky factor, from level k - 1.

    Level j is a (j, 2, C(N, j)) array over colex level j: [:j - 1, s, r]
    is the last row, below the diagonal, of the float Cholesky factor of
    subset r's scaled Gram on side s, and [j - 1, s, r] its last pivot.
    Side 0 factors G - (sigma[0] + _MARGIN) I and side 1 -G - (sigma[1] +
    _MARGIN) I, for G and sigma as in _diagonal_level; signed[:, s] is G on
    side s. Each step (_extension) applies the float operations, in the
    same order, that the right-looking factorisation of the j x j matrix
    applies to its last row, and its other rows are the factor of the
    subset without its top column. So a subset is certified on a side, its
    pivots all above _MARGIN, exactly where the full factorisation of its
    shifted Gram has every pivot above _MARGIN.

    A certificate is sound: in these units the backward errors of the
    factorisation and of eigvalsh are O(k^2 eps), far below _MARGIN, so
    a subset certified on side 0 has a computed lambda_min above sigma[0]
    by more than _MARGIN / 2, and one certified on side 1 a computed
    lambda_max below -sigma[1] by as much.

    A subset that fails on a side stores pivot _MARGIN and last entry 0,
    where the full factorisation replaces the matrix by the identity. Its
    extensions then fail too (a pivot only falls as squares are subtracted
    from it), no square root sees a pivot below _MARGIN, and every stored
    entry stays bounded.
    """
    n, k = signed.shape[0], below.shape[0] + 1
    level = np.empty((k, 2, math.comb(n, k)))
    for first, chunk in _chunks(n, k):
        with_t, x, pivot, certified = _extension(signed, below, chunk)
        rows = level[:, :, first:first + x.shape[1]]
        rows[:-2] = with_t[:-1]
        rows[-2] = x * certified
        rows[-1] = np.where(certified, pivot, _MARGIN)
    return level


def _tested_rows(scaled: np.ndarray, k: int, sigma: np.ndarray) -> np.ndarray:
    """The rows of level k that the pruning test leaves for eigvalsh, in colex order.

    scaled is the Gram matrix times 2^-exp, sigma the shifts of the two
    sides (see _factor_level). Levels 1..k - 1 are built at sigma, level k
    one chunk at a time, and a row is left unless both sides certify it.
    """
    n = scaled.shape[0]
    signed = np.stack([scaled, -scaled], axis=1)
    below = _diagonal_level(scaled, sigma)
    for _ in range(2, k):
        below = _factor_level(signed, below)
    kept = []
    for first, chunk in _chunks(n, k):
        *_, certified = _extension(signed, below, chunk)
        kept.append(first + np.flatnonzero(~(certified[0] & certified[1])))
    return np.concatenate(kept)


def _level_extremes(gram: np.ndarray, k: int, exp: int, threads: int,
                    smaller: Tuple[float, float]) -> tuple:
    """(lambda_min, lambda_max, deviation, first extremal subset) over size k >= 2.

    A size of at most _EIG_BLOCK / 4 subsets goes to eigvalsh whole, and so
    does one whose ``smaller`` extremes are at most _MARGIN apart in the
    test's units, where the test can rule out nothing. Otherwise
    _tested_rows rules out the subsets whose spectrum the shifted-Cholesky
    test proves to lie within (lo, hi) = ``smaller``, the previous size's
    (lambda_min, lambda_max). By Cauchy interlacing this size's extremes
    lie beyond those, up to rounding far below _MARGIN. So a subset proved
    to lie within is at least _MARGIN / 2 inside the size's extremes: it
    moves neither, and its deviation stays strictly below the size's best,
    however 1 - lambda and lambda - 1 round. It changes no field of the
    record. The ranks left, one range or one sorted array in colex order,
    are cut into blocks of _EIG_BLOCK subsets that up to ``threads``
    threads unrank (_unranked) and send to eigvalsh; the blocks are folded
    in order with a strict comparison. 2^exp >= max(1, max |G|) is the unit
    of the test (see _factor_level). Memory is the test's factor rows of
    size k - 1 on both sides, 2 (k - 1) C(N, k - 1) floats, one chunk of
    its operands, one eigvalsh block per thread, and one rank per kept
    subset of a tested size; no size's subsets are ever held as indices.
    """
    n = gram.shape[0]
    lo, hi = (math.ldexp(bound, -exp) for bound in smaller)
    # Timed in-process (2 cores, unit-norm Gaussian 12 x 16 and 12 x 28,
    # seeds 0-2): at 560 subsets the tested level took 0.97-0.99x the
    # untested time, at 1820 subsets 0.28-0.29x, at 3276 0.37-0.43x. A
    # spectrum the test proves inside (lo, hi) lies more than _MARGIN / 2
    # inside each end (see _factor_level), so where hi - lo <= _MARGIN, as
    # for the identity or orthonormal columns, it can rule out nothing.
    if math.comb(n, k) <= _EIG_BLOCK // 4 or hi - lo <= _MARGIN:
        rows = range(math.comb(n, k))
    else:
        rows = _tested_rows(np.ldexp(gram, -exp), k, np.array([lo, -hi]))
    pascal = np.array([[math.comb(t, j) for t in range(n)] for j in range(1, k + 1)])

    def block(start: int) -> tuple:
        ranks = rows[start:start + _EIG_BLOCK]
        if isinstance(ranks, range):
            ranks = np.arange(ranks.start, ranks.stop)
        sub = _unranked(ranks, pascal)
        b_lo, b_hi, dev, j = _extremes(*_spectra(gram, sub))
        return b_lo, b_hi, dev, tuple(int(i) for i in sub[j])

    starts = range(0, len(rows), _EIG_BLOCK)
    acc = (math.inf, -math.inf, -math.inf, None)
    for part in core._map_blocks(lambda: block, starts, min(threads, len(starts))):
        acc = _fold(acc, part)
    return acc


def _subset_spectra(a: np.ndarray, S: int) -> List[_SizeSpectra]:
    """One record per subset size 1..S: the one enumeration pass of this module.

    Above ``ENUMERATION_CAP`` subsets the call refuses with TooLargeError
    rather than falling back to an estimate. A Gram matrix that overflows
    float64 raises DomainError before any size: its spectra would be inf
    or nan, and no constant read from them means anything. Size 1 is read
    from the Gram diagonal and each size k >= 2 from _level_extremes,
    given the extremes of size k - 1.
    """
    _check_enumeration(a, S)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
    if not np.isfinite(gram).all():
        raise DomainError("matrix: Gram entries overflow float64 (A^T A is not finite)")
    threads = thread_budget()
    exp = math.frexp(max(float(np.abs(gram).max()), 1.0))[1]
    # 1x1 Grams are the squared column norms; no eigensolver needed.
    diag = np.diag(gram)
    lo, hi, best, where = _extremes(diag, diag)
    records = [_SizeSpectra(lo, hi, best, (where,))]
    for k in range(2, S + 1):
        # lo and hi still hold the previous size's extremes
        lo, hi, best, subset = _level_extremes(gram, k, exp, threads, (lo, hi))
        records.append(_SizeSpectra(lo, hi, best, subset))
    return records


@dataclass(frozen=True)
class RipReport:
    """Exact restricted isometry constant at one sparsity level."""

    S: int
    delta: float
    subsets_examined: int
    extremal_subset: Tuple[int, ...]


@dataclass(frozen=True)
class BalanceResult:
    """Uniform rescaling that centers the subset spectra around 1."""

    scale: float
    lambda_min: float
    lambda_max: float
    delta: float


@dataclass(frozen=True)
class SparseLipschitzCheck:
    """Empirical check that sparse pairs obey the derived constant."""

    S: int
    passed: bool
    max_ratio: float
    derived_omega: float
    delta_2s: float
    num_pairs: int
    seed: int


def _rip_report(records: List[_SizeSpectra], n: int, S: int) -> RipReport:
    """delta_S from the kernel's records of sizes 1..S; ties go to the smaller size."""
    best, subset = -math.inf, ()
    for record in records[:S]:
        if record.deviation > best:
            best, subset = record.deviation, record.subset
    return RipReport(S=S, delta=max(best, 0.0),
                     subsets_examined=sum(math.comb(n, k) for k in range(1, S + 1)),
                     extremal_subset=subset)


def _balance(records: List[_SizeSpectra]) -> BalanceResult:
    """The optimal uniform rescaling (see ``spectral_balance``) from the records of sizes 1..S."""
    lo = max(min(record.lambda_min for record in records), 0.0)
    hi = max(0.0, *(record.lambda_max for record in records))
    if hi <= 0.0:
        raise ParameterError("cannot balance a zero matrix")
    return BalanceResult(
        scale=math.sqrt(2.0 / (lo + hi)),
        lambda_min=lo,
        lambda_max=hi,
        delta=(hi - lo) / (hi + lo),
    )


def _probe_spectra(a: np.ndarray, S: int, num_pairs: int) -> List[_SizeSpectra]:
    """The records of sizes 1..2S that the sparse probe reads, after its own checks."""
    if 2 * S > min(a.shape):
        raise ParameterError(f"need 2S <= min(M, N) = {min(a.shape)}, got S = {S}")
    _check_enumeration(a, 2 * S)  # a bad or over-cap 2S is reported first
    if num_pairs < 1:
        raise ParameterError("num_pairs must be >= 1")
    return _subset_spectra(a, 2 * S)


def _sparse_probe(a: np.ndarray, records: List[_SizeSpectra], S: int, num_pairs: int,
                  seed: int) -> SparseLipschitzCheck:
    """The probe of ``verify_sparse_lipschitz`` at delta_2S from the records of sizes 1..2S."""
    delta = _rip_report(records, a.shape[1], 2 * S).delta
    omega = rip_to_omega(delta)
    rng = seeded_rng(seed)
    diff = (sparse_signals(a.shape[1], S, num_pairs, rng)
            - sparse_signals(a.shape[1], S, num_pairs, rng))
    dx = np.linalg.norm(diff, axis=1)
    dy = np.linalg.norm(diff @ a.T, axis=1)
    pos = dy > 0.0
    max_ratio = float((dx[pos] / dy[pos]).max()) if np.any(pos) else 0.0
    return SparseLipschitzCheck(S=S, passed=bool(np.all(dx <= omega * dy + TOL_CERT)),
                                max_ratio=max_ratio, derived_omega=omega, delta_2s=delta,
                                num_pairs=num_pairs, seed=seed)


def rip_delta(operator, S: int) -> RipReport:
    """Exact delta_S by exhausting all column subsets of size 1..S.

    Work is sum(C(N, k) for k <= S) Gram spectra; above
    ``ENUMERATION_CAP`` subsets the call refuses with TooLargeError rather
    than falling back to an estimate. The extremal subset is the first one
    attaining delta, in order of increasing size then colex.
    """
    a = _as_matrix_array(operator)
    return _rip_report(_subset_spectra(a, S), a.shape[1], S)


def spectral_balance(operator, S: int) -> BalanceResult:
    """Optimal uniform column rescaling for the isometry constant.

    delta_S depends on the overall scale of A: with lam_min and lam_max
    the extreme Gram eigenvalues over all subsets of size <= S, scaling A
    by sqrt(2 / (lam_min + lam_max)) balances both deviations and yields
    delta_S = (lam_max - lam_min) / (lam_max + lam_min), the minimum any
    uniform rescaling can reach. That is below 1 exactly when no subset
    is singular, however badly the unscaled constant overshoots. The
    returned delta is the predicted constant of scale * A.
    """
    return _balance(_subset_spectra(_as_matrix_array(operator), S))


@dataclass(frozen=True)
class RecoverabilityCheck:
    """Outcome of the delta_2S + delta_3S < 1 condition."""

    S: int
    passed: bool
    report_2s: RipReport
    report_3s: RipReport

    @property
    def total(self) -> float:
        return self.report_2s.delta + self.report_3s.delta


def check_recoverability_condition(operator, S: int) -> RecoverabilityCheck:
    """Evaluate delta_2S + delta_3S < 1 with exact constants from one pass at 3S."""
    a = _as_matrix_array(operator)
    n = a.shape[1]
    if 3 * S > min(a.shape):
        raise ParameterError(f"need 3S <= min(M, N) = {min(a.shape)}, got S = {S}")
    _check_enumeration(a, 2 * S)  # a bad or over-cap 2S is reported first
    records = _subset_spectra(a, 3 * S)
    r2 = _rip_report(records, n, 2 * S)
    r3 = _rip_report(records, n, 3 * S)
    return RecoverabilityCheck(S=S, passed=r2.delta + r3.delta < 1.0,
                               report_2s=r2, report_3s=r3)


def rip_to_omega(delta_2s: float) -> float:
    """Lipschitz constant 1/sqrt(1 - delta_2S) for sets of S-sparse signals."""
    d = float(delta_2s)
    if not (np.isfinite(d) and d >= 0.0):
        raise ParameterError(f"delta must be a nonnegative real, got {delta_2s}")
    if d >= 1.0:
        raise NotApplicableError(
            f"delta_2S = {d:g} >= 1; the sparse-recovery argument needs delta_2S < 1")
    return 1.0 / math.sqrt(1.0 - d)


def sparse_signals(n: int, S: int, count: int, rng) -> np.ndarray:
    """Random S-sparse signals: uniform supports, standard normal values."""
    x = np.zeros((count, n))
    support = np.argsort(rng.random((count, n)), axis=1)[:, :S]
    x[np.arange(count)[:, None], support] = rng.standard_normal((count, S))
    return x


def verify_sparse_lipschitz(operator, S: int, num_pairs: int, seed: int) -> SparseLipschitzCheck:
    """Probe |x1 - x2| <= omega |A x1 - A x2| + TOL_CERT on random S-sparse pairs.

    omega is the exact 1/sqrt(1 - delta_2S); a difference of S-sparse
    signals is 2S-sparse, so no probe can exceed it (the check exists to
    catch implementation faults, not mathematical ones). A probe of no
    pairs examines nothing, so num_pairs < 1 raises ParameterError.
    """
    a = _as_matrix_array(operator)
    return _sparse_probe(a, _probe_spectra(a, S, num_pairs), S, num_pairs, seed)
