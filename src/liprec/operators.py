"""Concrete signal-to-observation transforms.

An operator maps signal space R^N into observation space R^M with M <= N.
Three realizations are provided: a dense linear matrix, a fixed piecewise
1-D ramp that is continuous but not injective on its whole domain, and a
normalization wrapper that shifts and uniformly rescales another operator's
outputs into the unit hypercube.

Operators are immutable and ``apply`` is pure, so they are safe for
unrestricted concurrent use. ``apply`` accepts a single vector of length N
or a stack of shape (k, N) and returns the matching shape.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .core import (
    CalibrationError,
    DimensionError,
    DomainError,
    as_batch,
    as_matrix,
    readonly,
)


class Operator:
    """Deterministic map from R^N to R^M; subclasses implement ``_apply``."""

    signal_dim: int
    obs_dim: int

    def apply(self, x) -> np.ndarray:
        """The observations of x; finite inputs whose outputs overflow raise DomainError."""
        batch, single = as_batch(x, self.signal_dim, "input")
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._apply(batch)
        if not np.isfinite(out).all():
            raise DomainError("observations overflow float64")
        return out[0] if single else out

    __call__ = apply

    def _apply(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MatrixOperator(Operator):
    """Dense linear operator given by an M x N matrix (row-major)."""

    def __init__(self, matrix):
        m = as_matrix(matrix, "matrix")
        if m.shape[0] > m.shape[1]:
            raise DimensionError(
                f"observation dim {m.shape[0]} exceeds signal dim {m.shape[1]}")
        self.matrix = readonly(m)
        self.obs_dim, self.signal_dim = m.shape

    def _apply(self, batch):
        return batch @ self.matrix.T

    @classmethod
    def identity(cls, n: int) -> "MatrixOperator":
        return cls(np.eye(n))

    def __repr__(self):
        return f"MatrixOperator({self.obs_dim}x{self.signal_dim})"


class PiecewiseExampleOperator(Operator):
    """Fixed 1-D ramp on [0, 3]: x on [0,1), constant 1 on [1,2], x-1 on (2,3].

    Continuous on its domain but not injective: the middle plateau maps
    [1, 2] to the single value 1. Inputs outside [0, 3] raise DomainError.
    """

    signal_dim = 1
    obs_dim = 1

    def _apply(self, batch):
        u = batch[:, 0]
        if np.any(u < 0.0) or np.any(u > 3.0):
            raise DomainError("input outside the operator domain [0, 3]")
        y = np.where(u < 1.0, u, np.where(u <= 2.0, 1.0, u - 1.0))
        return y[:, None]

    def __repr__(self):
        return "PiecewiseExampleOperator()"


class NormalizedOperator(Operator):
    """Wrapper applying (inner(x) - shift) / scale coordinate-wise.

    The single uniform scale keeps all pairwise observation distances
    divided by exactly ``scale``, so a Lipschitz constant omega under the
    inner operator becomes omega * scale under the wrapper.
    """

    def __init__(self, inner: Operator, shift, scale: float):
        shift = np.asarray(shift, dtype=np.float64)
        if shift.shape != (inner.obs_dim,):
            raise DimensionError(
                f"shift must have length {inner.obs_dim}, got shape {shift.shape}")
        if not (np.isfinite(scale) and scale > 0.0):
            raise DomainError(f"scale must be a positive finite number, got {scale}")
        self.inner = inner
        self.shift = readonly(shift)
        self.scale = float(scale)
        self.signal_dim = inner.signal_dim
        self.obs_dim = inner.obs_dim

    def _apply(self, batch):
        return (self.inner._apply(batch) - self.shift) / self.scale

    def __repr__(self):
        return f"NormalizedOperator({self.inner!r}, scale={self.scale:g})"


def normalize(operator: Operator, calibration) -> Tuple[NormalizedOperator, float]:
    """Fit a unit-box normalization of ``operator`` on calibration signals.

    The shift and scale are the ``unit_box`` of the calibration outputs,
    so every calibration output lands in [0, 1]^M. Returns the wrapper and
    the scale, which is the factor by which any Lipschitz constant measured
    under the inner operator must be multiplied to apply to the wrapper.
    """
    cal = np.atleast_2d(np.asarray(calibration, dtype=np.float64))
    if cal.size == 0:
        raise CalibrationError("normalization needs at least one calibration signal")
    lo, scale = unit_box(operator.apply(cal))
    return NormalizedOperator(operator, lo, scale), scale


def unit_box(points: np.ndarray) -> Tuple[np.ndarray, float]:
    """Shift (coordinate-wise minimum) and scale (largest coordinate range,
    1 if all points coincide) that map a (k, M) point stack into [0, 1]^M."""
    lo = points.min(axis=0)
    with np.errstate(over="ignore"):  # a span past float64 is an infinite scale
        span = float((points.max(axis=0) - lo).max())
    return lo, span if span > 0.0 else 1.0
