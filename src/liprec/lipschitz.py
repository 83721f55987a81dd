"""Certification and manipulation of Lipschitz sets.

A finite labeled set is (inverse, omega)-Lipschitz when every signal pair
satisfies ||x1 - x2|| <= omega * ||y1 - y2|| for its observations y. This
module computes the tight constant of a finite set (the exact maximum
pairwise ratio), verifies a supplied constant with a violating witness on
failure, rebuilds a set under scaling and shifting for linear operators,
and checks the relaxed inequality ||x1 - x2|| <= 2*eps + omega*||y1 - y2||
that an omega-Lipschitz recovery map with error eps forces on any set it
recovers.

All three checks are questions to the package's one pair reduction
(``core._first_max_pair``, which prunes where it can), exact over the
O(n^2) unordered pairs and bit-identical to the row-by-row
``np.linalg.norm`` scan: maxima tie-break to the first pair in row-major
index order, and the relaxed check's minimum slack is the exact negation
of the maximum of -slack. Samples whose pairwise distances would
overflow float64 raise DomainError before any pair is examined: an
inf/inf ratio certifies nothing.

The verification pass (``_scan_sample``) can also report the first
observation collision and raise for the first duplicate signal pair, and
it counts the pairs it examined. ``tight_omega`` asks through it, the
pipelines certify with it (``_certify_sample``), and the ``certify`` and
``mwet`` tasks read everything they need from its one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import core
from .core import (
    TOL_CERT,
    DegenerateScaleError,
    DegenerateSetError,
    DimensionError,
    DomainError,
    LabeledSet,
    LipschitzCertificate,
    NotInjectiveError,
    NotLipschitzError,
    OperatorClassError,
    ParameterError,
    _duplicate_error,
    _first_max_pair,
    as_vector,
    readonly,
)
from .operators import MatrixOperator


@dataclass(frozen=True)
class AffineTransform:
    """Signal-space map x -> scale * x + shift."""

    scale: float
    shift: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.scale):
            raise ParameterError("scale must be finite")
        object.__setattr__(self, "shift", readonly(as_vector(self.shift, "shift")))


@dataclass(frozen=True)
class RelaxedLipschitzResult:
    """Outcome of the relaxed pairwise check, with the tightest pair's slack."""

    passed: bool
    min_slack: float
    worst_pair: Tuple[int, int]


def injectivity_tolerance(observations: np.ndarray) -> float:
    """Observation distances at or below this level count as collisions.

    Raises DomainError when an observation's norm overflows: an infinite
    tolerance would make every pair a collision.
    """
    with np.errstate(over="ignore"):
        tol = 1e-12 * (1.0 + float(np.linalg.norm(observations, axis=1).max()))
    if not np.isfinite(tol):
        raise DomainError("observations: their norms overflow float64, so the "
                          "injectivity tolerance is not finite")
    return tol


def _ratios(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx / dy, with a collision (dy = 0) an infinite ratio, or 0 for equal
    signals: fmax turns 0 / 0 = NaN into 0 and leaves every other quotient
    of nonnegative distances as it is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = dx / dy
    return np.fmax(ratios, 0.0, out=ratios)


def tight_omega(labeled_set: LabeledSet) -> LipschitzCertificate:
    """Exact Lipschitz constant of a finite labeled set.

    Returns a certified certificate whose omega is the maximum over all
    distinct pairs of ||x1 - x2|| / ||y1 - y2||, with the maximizing pair as
    witness. Any pair whose observations are within ``injectivity_tolerance``
    makes the ratio meaningless and raises NotInjectiveError.
    """
    if len(labeled_set) < 2:
        raise DegenerateSetError("the tight constant needs at least two pairs")
    return _tight(labeled_set)


def _tight(labeled_set: LabeledSet, *, duplicates: bool = False) -> LipschitzCertificate:
    """``tight_omega``'s pass; with ``duplicates``, a LabelingError for
    duplicate signals goes ahead of everything else (see ``_scan_sample``)."""
    scan = _scan_sample(labeled_set, None, collisions=True, duplicates=duplicates)
    if scan.collision is not None:
        i, j = scan.collision
        y = labeled_set.observations
        distance = np.linalg.norm((y[j] - y[i])[None], axis=1)[0]
        raise NotInjectiveError(f"signals {i} and {j} share an observation (distance {distance:.3e}"
                                f" <= {injectivity_tolerance(y):.3e})", pair=scan.collision)
    return scan.certificate(scan.max_ratio)


def _check_omega(omega: float) -> float:
    if not (np.isfinite(omega) and omega > 0.0):
        raise ParameterError(f"omega must be a positive finite number, got {omega}")
    return omega


class _SampleScan(NamedTuple):
    """What one verification pass saw; pairs are first in row-major order."""

    max_ratio: float
    witness: Optional[Tuple[int, int]]
    violated: bool
    collision: Optional[Tuple[int, int]]
    pairs_examined: int  # n(n - 1) / 2 unless block bounds skipped some

    def certificate(self, omega: float) -> LipschitzCertificate:
        return LipschitzCertificate(
            omega=float(omega),
            verdict="violated" if self.violated else "certified",
            witness=self.witness,
            max_ratio=self.max_ratio,
            _pairs_examined=self.pairs_examined,
        )


def _scan_sample(labeled_set: LabeledSet, omega: Optional[float], *,
                 collisions: bool = False, duplicates: bool = False) -> _SampleScan:
    """The verification pass of ``verify_lipschitz``, with what else it sees.

    Reports the maximum ratio and its first pair (an observation collision
    between distinct signals counts as an infinite ratio), whether some
    pair breaks ||x1 - x2|| <= omega * ||y1 - y2|| + TOL_CERT (never, for
    omega None), with ``collisions`` the first pair whose observations are
    within ``injectivity_tolerance``, and the number of pairs examined.
    Where no pair collides, the maximum ratio is bit-identical to
    ``tight_omega``'s constant. With ``duplicates``, the first pair of
    signals closer than ``TOL_DUP`` raises LabelingError ahead of all else,
    even where norms or distances overflow before the first pair (the
    signals alone are then searched). Fewer than two rows give the vacuous
    scan: ratio 0 and no pairs.
    """
    tests = {}
    if omega is not None:
        tests["violation"] = lambda dx, dy: dx > omega * dy + TOL_CERT
    try:
        if collisions:
            radius = injectivity_tolerance(labeled_set.observations)
            tests["collision"] = lambda dx, dy: dy <= radius
        if duplicates:
            tests["duplicate"] = lambda dx, dy: dx < core.TOL_DUP
        if len(labeled_set) < 2:
            return _SampleScan(0.0, None, False, None, 0)
        scan = _first_max_pair(labeled_set.signals, labeled_set.observations, _ratios,
                               tuple(tests.values()))
    except DomainError:
        duplicate = labeled_set._find_duplicate() if duplicates else None
        if duplicate is not None:
            raise _duplicate_error(duplicate) from None
        raise
    found = dict(zip(tests, scan.firsts))
    if found.get("duplicate") is not None:
        raise _duplicate_error(found["duplicate"])
    return _SampleScan(scan.best, scan.witness, found.get("violation") is not None,
                       found.get("collision"), scan.pairs_examined)


def verify_lipschitz(labeled_set: LabeledSet, omega: float) -> LipschitzCertificate:
    """Check ||x1 - x2|| <= omega * ||y1 - y2|| + TOL_CERT on every pair.

    Certifies vacuously for fewer than two pairs. On failure the witness is
    the first pair attaining the maximum ratio; observation collisions
    between distinct signals simply show up as violations (infinite ratio).
    """
    _check_omega(omega)
    return _scan_sample(labeled_set, omega).certificate(omega)


def _certify_sample(sample: LabeledSet, omega: float) -> LipschitzCertificate:
    """A pipeline's one pass over its sample: reject duplicates, then certify.

    Raises LabelingError for the first pair of signals closer than
    ``TOL_DUP``, ahead of any other complaint about the sample or omega,
    and NotLipschitzError, carrying the certificate, when the sample is
    not omega-certified. Returns the certificate otherwise.
    """
    valid = bool(np.isfinite(omega) and omega > 0.0)
    cert = _scan_sample(sample, omega if valid else None,
                        duplicates=True).certificate(_check_omega(omega))
    if not cert.passed:
        raise NotLipschitzError(
            f"sample is not {omega:g}-certified: pair {cert.witness} has ratio "
            f"{cert.max_ratio:.6g}", certificate=cert)
    return cert


def affine_transform(labeled_set: LabeledSet, operator: MatrixOperator,
                     transform: AffineTransform) -> LabeledSet:
    """Scale and shift every signal, relabeling observations under the operator.

    Only linear (matrix) operators qualify: linearity is what keeps the
    pairwise ratios, and hence the tight constant, invariant. A zero scale
    would collapse the set to a single point and is rejected.
    """
    if not isinstance(operator, MatrixOperator):
        raise OperatorClassError("affine transforms preserve certification only for "
                                 "linear operators; got " + type(operator).__name__)
    if transform.scale == 0.0:
        raise DegenerateScaleError("scale 0 collapses the set to a singleton")
    if transform.shift.shape[0] != labeled_set.signal_dim:
        raise DimensionError(
            f"shift length {transform.shift.shape[0]} != signal dim {labeled_set.signal_dim}")
    moved = transform.scale * labeled_set.signals + transform.shift
    return LabeledSet.from_operator(operator, moved)


def check_relaxed_lipschitz(labeled_set: LabeledSet, omega: float,
                            epsilon: float) -> RelaxedLipschitzResult:
    """Check ||x1 - x2|| <= 2*epsilon + omega*||y1 - y2|| on every pair.

    ``omega`` is the Lipschitz constant of some external recovery map and
    ``epsilon`` its measured worst-case recovery error on this set; any set
    recovered that well by that map must satisfy the inequality. Reports
    the minimum slack 2*epsilon + omega*||y1 - y2|| - ||x1 - x2|| and the
    pair attaining it; passes when that slack is >= -TOL_CERT.
    """
    _check_omega(omega)
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ParameterError(f"epsilon must be a nonnegative finite number, got {epsilon}")
    if len(labeled_set) < 2:
        raise DegenerateSetError("the relaxed check needs at least two pairs")
    scan = _first_max_pair(labeled_set.signals, labeled_set.observations,
                           lambda dx, dy: -(2.0 * epsilon + omega * dy - dx))
    worst = -scan.best
    return RelaxedLipschitzResult(passed=bool(worst >= -TOL_CERT),
                                  min_slack=worst, worst_pair=scan.witness)
