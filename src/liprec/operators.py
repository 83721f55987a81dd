"""Concrete signal-to-observation transforms.

An operator maps signal space R^N into observation space R^M with M <= N.
Two realizations are provided: a dense linear matrix and a fixed piecewise
1-D ramp that is continuous but not injective on its whole domain.
Operators label signals in their own units; the recovery pipelines box
the observations themselves (``covering.unit_box``).

Operators are immutable and ``apply`` is pure, so they are safe for
unrestricted concurrent use. ``apply`` accepts a single vector of length N
or a stack of shape (k, N) and returns the matching shape.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionError, DomainError, as_batch, as_matrix, readonly


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
