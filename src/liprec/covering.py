"""Covering-based training-set construction and end-to-end recovery.

Both recovery pipelines, ``cover_pipeline`` and ``svdrec.fit_reduced``,
certify their sample and then run one body, ``_recover``. It boxes the
observations with ``unit_box``, which divides every observation distance
by the box's scale, so the grid is built at omega times that scale; the
fit runs at omega in the observations' own units.

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
rows, ascending (``build_cover``); no cell table is kept. Only occupied
cells are touched; t^M is a bound, never a work estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Tuple

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


def _recover(signals: np.ndarray, observations: np.ndarray, omega: float, epsilon: float,
             null_basis: Optional[np.ndarray] = None
             ) -> Tuple[np.ndarray, GridSpec, float, MwetHypothesis]:
    """The pipelines' common body: (rows, grid, box scale, hypothesis).

    The cover's rows of the boxed observations are fitted at omega, each
    row's observation mapped to its signal ("full" mode) or, given an
    (N, N - r) ``null_basis``, to its null component
    ``signals[rows] @ null_basis`` ("reduced" mode). The rows belong to a
    sample certified at omega, and null components are no farther apart
    than their signals, so the certificate covers the rows: the fit runs
    with no pass over their pairs (``mwet._fit``), and the training
    residuals are the representatives' errors in the caller's one
    evaluation of the sample.
    """
    lo, scale = unit_box(observations)
    if math.isfinite(omega) and omega * scale == math.inf:
        raise ParameterError(
            f"omega = {omega!r} times the box scale {scale!r} overflows float64: "
            f"no grid for epsilon = {epsilon!r}")
    mode: GridMode = "full" if null_basis is None else "reduced"
    spec = grid_spec(signals.shape[1], observations.shape[1], omega * scale, epsilon, mode)
    rows = build_cover((observations - lo) / scale, spec)
    targets = signals[rows] if null_basis is None else signals[rows] @ null_basis
    return rows, spec, scale, _fit(LabeledSet(targets, observations[rows]), omega, 0.0)


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
    """Certify the sample at omega, then recover it through ``_recover``.

    The sample stands in for the (possibly uncountable) Lipschitz set, in
    any units; ``t`` is the side of its boxed grid. Its one pass over its
    pairs (``lipschitz._certify_sample``) rejects a duplicate signal
    first and certifies: the result carries the certificate, and so does
    the NotLipschitzError raised when certification fails. Each sample
    point is evaluated once, and both error maxima are reported for
    assertion by the caller.
    """
    cert = _certify_sample(sample, omega)
    reps, spec, _, hypothesis = _recover(sample.signals, sample.observations, omega, epsilon)
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
