"""Recovery through the SVD of a linear operator.

For full-rank A in R^(M x N) with M <= N, the full SVD A = U [S 0] V^T
splits signal space into an observed part and a null part: with
Psi = S^-1 U^T and V = [V1 V2],

    V [Psi A x ; V2^T x] = x   for every x.

The first block is exact linear algebra; only the (N - M)-dimensional
null component V2^T x has to be learned. The recovery map

    R(y) = V [Psi y ; G(y)]

therefore needs a hypothesis G of output dimension N - M instead of N,
which shrinks the covering grid (dim_factor sqrt(N - M) instead of
sqrt(N)), and satisfies A R(A x) = A x for every x in R^N regardless of
how well G was trained, because A V1 Psi = projection onto range(A) and
A V2 = 0.

Rank-deficient operators are handled by dropping the null observation
directions: observations are projected onto the leading r left singular
vectors and the factors describe the resulting full-rank r x N operator.
The projection is an isometry on range(A), so Lipschitz certificates
carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    LabeledSet,
    LipschitzCertificate,
    OperatorClassError,
    RankZeroError,
    _check_observations,
    as_batch,
    readonly,
)
from .covering import _check_epsilon, _recover, grid_spec
from .lipschitz import _certify_sample
from .mwet import MwetHypothesis, _row_norms
from .operators import MatrixOperator

RANK_TOL = 1e-10


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD of a full-rank wide matrix, in recovery-ready form.

    ``matrix`` is the effective operator: the input itself when it has
    full row rank, otherwise its projection onto the ``rank`` leading
    left singular directions (``projector`` holds the orthonormal basis;
    ``source`` keeps the unprojected original). All factor shapes refer
    to the effective row count.
    """

    matrix: np.ndarray      # (r, N) effective operator
    source: np.ndarray      # (M, N) original operator (same object when r == M)
    u: np.ndarray           # (r, r) orthogonal
    sigma: np.ndarray       # (r,) positive, descending
    v1: np.ndarray          # (N, r)
    v2: np.ndarray          # (N, N - r)
    psi: np.ndarray         # (r, r) = diag(1/sigma) @ u.T
    projector: Optional[np.ndarray]  # (M, r) or None when no reduction

    @property
    def signal_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def obs_dim(self) -> int:
        """Effective observation dimension (the numerical rank)."""
        return self.matrix.shape[0]

    @property
    def source_obs_dim(self) -> int:
        return self.source.shape[0]

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]

    @property
    def reduced(self) -> bool:
        return self.projector is not None

    @property
    def v(self) -> np.ndarray:
        return np.hstack([self.v1, self.v2])

    def project(self, y: np.ndarray) -> np.ndarray:
        """Map original observations onto the effective observation space."""
        if self.projector is None:
            return y
        return y @ self.projector


def svd_factor(operator) -> SvdFactors:
    """Factor a matrix operator for reduced recovery.

    Accepts a MatrixOperator or a raw (M, N) array, coerced as one (finite
    entries, M <= N). Singular values at or below ``RANK_TOL`` (relative to the
    largest) are treated as zero; if any are dropped the factors describe
    the projected rank-r operator instead (see the class docstring).
    """
    if not isinstance(operator, MatrixOperator):
        operator = MatrixOperator(operator)
    a = operator.matrix
    m, n = a.shape
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    if s[0] <= 0.0:
        raise RankZeroError("cannot factor the zero matrix")
    r = int(np.sum(s > RANK_TOL * s[0]))
    v = vh.T
    if r == m:
        source = effective = readonly(np.array(a, dtype=np.float64))
        u_eff = u
        projector = None
    else:
        source = readonly(np.array(a, dtype=np.float64))
        # Exact rank-r factorization: U_r^T A = S_r V1^T up to rounding.
        effective = readonly(s[:r, None] * vh[:r])
        u_eff = np.eye(r)
        projector = readonly(np.ascontiguousarray(u[:, :r]))
    psi = u_eff.T / s[:r, None]
    return SvdFactors(
        matrix=effective,
        source=source,
        u=readonly(np.ascontiguousarray(u_eff)),
        sigma=readonly(s[:r].copy()),
        v1=readonly(np.ascontiguousarray(v[:, :r])),
        v2=readonly(np.ascontiguousarray(v[:, r:])),
        psi=readonly(np.ascontiguousarray(psi)),
        projector=projector,
    )


def identity_check(factors: SvdFactors, x) -> np.ndarray:
    """Residual of V [Psi A x ; V2^T x] = x for one signal or a stack.

    Returns a scalar for a single (N,) input, a vector of residual norms
    for a (k, N) stack. Stays at roundoff (<= 1e-8 relative) for any
    finite x; non-finite entries raise DomainError.
    """
    q, single = as_batch(x, factors.signal_dim, "signals")
    head = (q @ factors.matrix.T) @ factors.psi.T
    tail = q @ factors.v2
    rebuilt = head @ factors.v1.T + tail @ factors.v2.T
    res = np.linalg.norm(rebuilt - q, axis=1)
    return float(res[0]) if single else res


@dataclass(frozen=True)
class SvdRecoveryMap:
    """Composed recovery R(y) = V [Psi y ; G(y)].

    ``hypothesis`` predicts the null component V2^T x from the effective
    observation; it is None for a square full-rank operator, where Psi
    alone inverts exactly. ``recover`` accepts observations of the
    original operator and projects internally if the factors were
    rank-reduced.
    """

    factors: SvdFactors
    hypothesis: Optional[MwetHypothesis]

    @property
    def exact_inversion(self) -> bool:
        return self.hypothesis is None

    def recover(self, y) -> np.ndarray:
        q, single = as_batch(y, self.factors.source_obs_dim, "observations")
        q = self.factors.project(q)
        head = q @ self.factors.psi.T
        out = head @ self.factors.v1.T
        if self.hypothesis is not None:
            out = out + self.hypothesis.evaluate(q) @ self.factors.v2.T
        return out[0] if single else out

    def consistency_residuals(self, signals) -> np.ndarray:
        """Per-signal norm of A R(A x) - A x under the original operator.

        Stays at roundoff for every x in R^N, trained or not, because the
        recovery feeds back only range(A) components. Where A R(A x) does
        not fit float64, as for a huge trained null component, its row
        reads inf or nan, silently.
        """
        xs = np.atleast_2d(np.asarray(signals, dtype=np.float64))
        y = xs @ self.factors.source.T
        with np.errstate(over="ignore", invalid="ignore"):
            back = self.recover(y) @ self.factors.source.T
        return _row_norms(back - y)


@dataclass(frozen=True)
class ReducedReport:
    """Bookkeeping from one reduced-recovery fit.

    Grid fields are None on the exact-inversion path (square full-rank
    operator), where no hypothesis is trained.
    """

    t_reduced: Optional[int]
    t_full: Optional[int]
    cells_occupied: int
    cells_bound: Optional[int]
    max_training_residual: float
    max_recovery_error: float
    epsilon: float
    effective_rank: int
    exact_inversion: bool


@dataclass(frozen=True)
class FitReducedResult:
    recovery: SvdRecoveryMap
    representatives: Optional[np.ndarray]  # the cover's rows of the sample; None if exact
    report: ReducedReport
    recovery_errors: np.ndarray  # per sample point, in input order
    certificate: LipschitzCertificate  # the sample's certification at omega


def fit_reduced(sample: LabeledSet, operator: MatrixOperator, omega: float,
                epsilon: float) -> FitReducedResult:
    """The reduced recovery map of a sample labeled by a linear operator.

    The sample must be labeled by ``operator`` (an O(n) residual check,
    LabelingError otherwise) and is then certified at omega as in
    ``cover_pipeline``. ``covering._recover`` learns only the null
    components V2^T x of the cover's rows, from their effective
    observations; effective observations are as far apart as their
    observations, so the certificate carries over, and Psi inverts the
    observed part. Each sample point is recovered once.

    A square full-rank operator short-circuits to exact inversion with no
    hypothesis, no grid, and a report whose grid fields are None; epsilon
    must still be positive, as on the covering path.
    """
    if not isinstance(operator, MatrixOperator):
        raise OperatorClassError(
            f"reduced recovery needs a matrix operator, got {type(operator).__name__}")
    _check_observations(sample, operator)
    cert = _certify_sample(sample, omega)
    factors = svd_factor(operator)
    eff_obs = factors.project(sample.observations)
    n, r = factors.signal_dim, factors.rank

    if r == n:
        _check_epsilon(epsilon)
        recovery = SvdRecoveryMap(factors=factors, hypothesis=None)
        errors = _row_norms(recovery.recover(sample.observations) - sample.signals)
        report = ReducedReport(
            t_reduced=None, t_full=None, cells_occupied=0, cells_bound=None,
            max_training_residual=0.0, max_recovery_error=float(errors.max()),
            epsilon=float(epsilon), effective_rank=r, exact_inversion=True)
        return FitReducedResult(recovery=recovery, representatives=None, report=report,
                                recovery_errors=errors, certificate=cert)

    reps, spec, scale, hypothesis = _recover(sample.signals, eff_obs, omega, epsilon,
                                             factors.v2)
    recovery = SvdRecoveryMap(factors=factors, hypothesis=hypothesis)
    errors = _row_norms(recovery.recover(sample.observations) - sample.signals)
    report = ReducedReport(
        t_reduced=spec.t,
        t_full=grid_spec(n, r, omega * scale, epsilon, "full").t,
        cells_occupied=len(reps),
        cells_bound=spec.cell_bound,
        max_training_residual=float(errors[reps].max()),
        max_recovery_error=float(errors.max()),
        epsilon=float(epsilon),
        effective_rank=r,
        exact_inversion=False)
    return FitReducedResult(recovery=recovery, representatives=reps, report=report,
                            recovery_errors=errors, certificate=cert)
