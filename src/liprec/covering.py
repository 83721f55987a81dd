"""Covering-based training-set construction and end-to-end recovery.

Both recovery pipelines box their own observations: ``unit_box`` shifts
and uniformly rescales them into the unit hypercube, which divides every
observation distance by the box's scale, so the grid is built at omega
times that scale (``_unit_cover``). The pipelines certify and fit in the
observations' own units, at omega; the box only assigns cells.

The unit observation hypercube [0,1]^M is partitioned into t^M axis-aligned
cells of side 1/t, with

    t = ceil((1 + dim_factor) * omega * sqrt(M) / epsilon),

where dim_factor is sqrt(N) when the hypothesis must output whole signals
("full" mode) and sqrt(N - M) when it only outputs the null-space component
of a linear operator ("reduced" mode). Any two observations in one cell are
within sqrt(M)/t <= epsilon / (omega * (1 + dim_factor)) of each other, so
training one representative per occupied cell and fitting the min-form
extension with per-coordinate constant omega recovers every certified
sample point to within epsilon.

Cells are half-open with the top face clamped into the last cell, making
the partition disjoint and the representatives deterministic (first
sample point per cell, in input order). A cover is just those sample
rows, ascending (``build_cover``): both pipelines train on
``sample.subset(rows)``, and no cell table is kept. Only occupied cells
are touched; t^M is a bound, never a work estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Tuple

import numpy as np

from .core import (
    TOL_CERT,
    DegenerateSetError,
    DimensionError,
    LabeledSet,
    LipschitzCertificate,
    NoNullSpaceError,
    OutOfBoxError,
    ParameterError,
)
from .lipschitz import _certify_sample
from .mwet import MwetHypothesis, _fit, _row_norms

GridMode = Literal["full", "reduced"]


@dataclass(frozen=True)
class GridSpec:
    """Geometry of one hypercube partition of [0,1]^obs_dim."""

    t: int
    obs_dim: int
    signal_dim: int
    omega: float
    epsilon: float
    dim_factor: float

    @property
    def cell_side(self) -> float:
        return 1.0 / self.t

    @property
    def cell_bound(self) -> int:
        """Total cell count t^M (exact integer; may be astronomically large)."""
        return self.t ** self.obs_dim


def _check_epsilon(epsilon: float) -> None:
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ParameterError(f"epsilon must be positive, got {epsilon}")


def grid_spec(signal_dim: int, obs_dim: int, omega: float, epsilon: float,
              mode: GridMode) -> GridSpec:
    """Cell count and geometry for the chosen hypothesis output mode.

    "full" uses dim_factor sqrt(N); "reduced" uses sqrt(N - M) and needs a
    nontrivial null space (M < N).
    """
    if not 1 <= obs_dim <= signal_dim:
        raise DimensionError(f"need 1 <= M <= N, got M={obs_dim}, N={signal_dim}")
    if mode == "full":
        factor = math.sqrt(signal_dim)
    elif mode == "reduced":
        if obs_dim == signal_dim:
            raise NoNullSpaceError(
                "reduced mode needs M < N; a square full-rank operator inverts exactly")
        factor = math.sqrt(signal_dim - obs_dim)
    else:
        raise ParameterError(f"unknown grid mode {mode!r}")
    if not (np.isfinite(omega) and omega > 0.0):
        raise ParameterError(f"omega must be positive, got {omega}")
    _check_epsilon(epsilon)
    side = (1.0 + factor) * omega * math.sqrt(obs_dim) / epsilon
    if not math.isfinite(side):
        raise ParameterError(
            f"epsilon = {epsilon!r} is too small for omega = {omega!r}: "
            f"the grid side t overflows")
    return GridSpec(t=max(math.ceil(side), 1), obs_dim=obs_dim, signal_dim=signal_dim,
                    omega=float(omega), epsilon=float(epsilon), dim_factor=float(factor))


def _cell_indices(spec: GridSpec, observations: np.ndarray) -> np.ndarray:
    """Cell digits of each observation row in [0,1]^M (within TOL_CERT per coordinate).

    Digit k is floor(y_k * t) clamped into [0, t-1], which assigns the
    closed top face to the last cell. y is clamped into [0, 1] first, so
    floor(y_k * t) <= t fits int64 for every t < 2^63; a larger t is
    rejected, since the cast would put every point in cell 0.
    """
    if spec.t >= 2 ** 63:
        raise ParameterError(
            f"epsilon = {spec.epsilon!r} is too small: "
            f"the grid side t = {spec.t:.3g} overflows the int64 cell digits")
    outside = np.any((observations < -TOL_CERT) | (observations > 1.0 + TOL_CERT), axis=1)
    if outside.any():
        raise OutOfBoxError(f"observation {outside.argmax()} lies outside [0, 1]^M + {TOL_CERT:.1e}")
    unit = np.clip(observations, 0.0, 1.0)
    return np.clip(np.floor(unit * spec.t).astype(np.int64), 0, spec.t - 1)


def unit_box(points: np.ndarray) -> Tuple[np.ndarray, float]:
    """Shift (coordinate-wise minimum) and scale (largest coordinate range,
    1 if all points coincide) that map a (k, M) point stack into [0, 1]^M."""
    lo = points.min(axis=0)
    with np.errstate(over="ignore"):  # a span past float64 is an infinite scale
        span = float((points.max(axis=0) - lo).max())
    return lo, span if span > 0.0 else 1.0


def build_cover(observations: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The cover's sample rows: the first row, in input order, of each
    occupied cell, as an ascending int64 array."""
    if len(observations) == 0:
        raise DegenerateSetError("cannot cover an empty sample")
    if observations.shape[1] != spec.obs_dim:
        raise DimensionError(
            f"sample obs dim {observations.shape[1]} != grid dim {spec.obs_dim}")
    digits = _cell_indices(spec, observations)
    # One stable sort groups each cell's rows in input order.
    order = np.lexsort(digits.T)
    return np.sort(order[np.r_[True, (np.diff(digits[order], axis=0) != 0).any(axis=1)]])


def _unit_cover(observations: np.ndarray, signal_dim: int, omega: float, epsilon: float,
                mode: GridMode) -> Tuple[np.ndarray, GridSpec, float]:
    """The cover's rows of observations in any units, with its grid and
    the box scale: the observations are boxed by ``unit_box`` and covered
    by the grid at omega * scale."""
    lo, scale = unit_box(observations)
    spec = grid_spec(signal_dim, observations.shape[1], omega * scale, epsilon, mode)
    return build_cover((observations - lo) / scale, spec), spec, scale


@dataclass(frozen=True)
class CoverReport:
    """Bookkeeping from one covering pipeline run."""

    t: int
    cells_occupied: int
    cells_bound: int
    max_training_residual: float
    max_recovery_error: float
    epsilon: float


@dataclass(frozen=True)
class CoverPipelineResult:
    representatives: np.ndarray  # the cover's rows of the sample, ascending
    hypothesis: MwetHypothesis
    report: CoverReport
    recovery_errors: np.ndarray  # per sample point, in input order
    certificate: LipschitzCertificate  # the sample's certification at omega


def cover_pipeline(sample: LabeledSet, omega: float, epsilon: float) -> CoverPipelineResult:
    """Certify the sample, then cover, fit, and verify its recovery.

    The sample stands in for the (possibly uncountable) Lipschitz set: it
    must certify at ``omega``. Its observations may be in any units: the
    cover boxes them itself (``_unit_cover``), and ``t`` is the side of that
    boxed grid. This is the sample's one pass over its pairs. It rejects
    duplicate signals (closer than ``TOL_DUP``) with a LabelingError before
    anything else, and it certifies: the result carries the certificate, and
    so does the NotLipschitzError raised when certification fails. The
    representatives belong to the certified sample, so the hypothesis is
    fitted at omega with no pass over their pairs (see ``mwet._fit``): its
    training residuals are ~0 and every sample point is recovered to within
    epsilon. Each sample point is evaluated once, and the representatives'
    errors are the training residuals; both maxima are reported for
    assertion by the caller.
    """
    cert = _certify_sample(sample, omega)
    reps, spec, _ = _unit_cover(sample.observations, sample.signal_dim, omega, epsilon, "full")
    hypothesis = _fit(sample.subset(reps), omega, 0.0)
    errors = _row_norms(hypothesis.evaluate(sample.observations) - sample.signals)
    report = CoverReport(
        t=spec.t,
        cells_occupied=len(reps),
        cells_bound=spec.cell_bound,
        max_training_residual=float(errors[reps].max()),
        max_recovery_error=float(errors.max()),
        epsilon=float(epsilon),
    )
    return CoverPipelineResult(representatives=reps, hypothesis=hypothesis, report=report,
                               recovery_errors=errors, certificate=cert)
