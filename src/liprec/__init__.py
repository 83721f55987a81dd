"""Robust signal recovery from transformed observations.

A set of signals is recoverable from its observations under an operator A
exactly when pairwise signal distances are bounded by omega times pairwise
observation distances; this package certifies that property on finite
sets, fits the min-form Lipschitz extension as the recovery map, builds
covering grids that guarantee a target precision, exploits the SVD of
linear operators to shrink the learned part to the null-space component,
and connects restricted isometry constants of sparse models to the same
Lipschitz picture.
"""

import os as _os

__version__ = "0.1.0"

# Honor LIPREC_THREADS before numpy loads its BLAS, which sizes its thread
# pool from these variables at library-load time. Only defaults are set;
# explicit user settings win. The same value caps MWET evaluation's tile
# threads and nothing else. It counts when int() accepts it and it is >= 1,
# the rule of core.thread_budget, which MWET evaluation and the
# command-line layer read and which rejects other values; it cannot run
# here because core loads numpy.
_raw = _os.environ.get("LIPREC_THREADS", "").strip()
try:
    _count = int(_raw)
except ValueError:
    _count = 0
if _count >= 1:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_count))
del _os, _raw, _count

from .core import (
    TOL_CERT,
    TOL_DUP,
    TOL_EVAL,
    ConstantTooSmallError,
    DegenerateScaleError,
    DegenerateSetError,
    DimensionError,
    DomainError,
    LabeledSet,
    LabelingError,
    LipschitzCertificate,
    LiprecError,
    NoNullSpaceError,
    NotApplicableError,
    NotInjectiveError,
    NotLipschitzError,
    OperatorClassError,
    OutOfBoxError,
    ParameterError,
    RankZeroError,
    TooLargeError,
    seeded_rng,
    validate_labeled_set,
)
from .operators import MatrixOperator, Operator, PiecewiseExampleOperator
from .lipschitz import (
    AffineTransform,
    RelaxedLipschitzResult,
    affine_transform,
    check_relaxed_lipschitz,
    injectivity_tolerance,
    tight_omega,
    verify_lipschitz,
)
from .mwet import MwetHypothesis, fit
from .covering import (
    CoverPipelineResult,
    CoverReport,
    GridSpec,
    build_cover,
    cover_pipeline,
    grid_spec,
)
from .svdrec import (
    FitReducedResult,
    ReducedReport,
    SvdFactors,
    SvdRecoveryMap,
    fit_reduced,
    identity_check,
    svd_factor,
)
from .rip import (
    BalanceResult,
    RecoverabilityCheck,
    RipReport,
    SparseLipschitzCheck,
    check_recoverability_condition,
    rip_delta,
    rip_to_omega,
    sparse_signals,
    spectral_balance,
    verify_sparse_lipschitz,
)

__all__ = [
    "__version__",
    "TOL_CERT",
    "TOL_DUP",
    "TOL_EVAL",
    "AffineTransform",
    "BalanceResult",
    "ConstantTooSmallError",
    "CoverPipelineResult",
    "CoverReport",
    "DegenerateScaleError",
    "DegenerateSetError",
    "DimensionError",
    "DomainError",
    "FitReducedResult",
    "GridSpec",
    "LabeledSet",
    "LabelingError",
    "LipschitzCertificate",
    "LiprecError",
    "MatrixOperator",
    "MwetHypothesis",
    "NoNullSpaceError",
    "NotApplicableError",
    "NotInjectiveError",
    "NotLipschitzError",
    "Operator",
    "OperatorClassError",
    "OutOfBoxError",
    "ParameterError",
    "PiecewiseExampleOperator",
    "RankZeroError",
    "RecoverabilityCheck",
    "ReducedReport",
    "RelaxedLipschitzResult",
    "RipReport",
    "SparseLipschitzCheck",
    "SvdFactors",
    "SvdRecoveryMap",
    "TooLargeError",
    "affine_transform",
    "build_cover",
    "check_recoverability_condition",
    "check_relaxed_lipschitz",
    "cover_pipeline",
    "fit",
    "fit_reduced",
    "grid_spec",
    "identity_check",
    "injectivity_tolerance",
    "rip_delta",
    "rip_to_omega",
    "seeded_rng",
    "sparse_signals",
    "spectral_balance",
    "svd_factor",
    "tight_omega",
    "validate_labeled_set",
    "verify_lipschitz",
    "verify_sparse_lipschitz",
]
