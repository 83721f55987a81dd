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

Evaluation is observation-major: the training points are the outer axis.
They are taken in chunks; each chunk is laid out once as (chunk, rows, m),
the training point repeated along the rows, and every query tile of up to
rows queries is then one contiguous subtract against it, one einsum over
m, and per output coordinate one min over the chunk axis, folded into a
running min across chunks. Every buffer is bounded by an element count, so
evaluation memory is O(tile) whatever the number of queries, and the
result is the same exact min over every training point for any tile or
chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    TOL_CERT,
    ConstantTooSmallError,
    DegenerateSetError,
    LabeledSet,
    ParameterError,
    as_batch,
    seeded_rng,
)
from .lipschitz import tight_omega

# Element budget for one (chunk, rows, m) float64 difference block: 2**16
# elements is 512 KiB, which stays in a core's L2 cache. A query tile holds
# rows = max(_MIN_ROWS, budget // (n * m)) queries, capped at the query
# count, and a training chunk holds max(1, budget // (rows * m)) points,
# capped at n. The min over a chunk runs along axis 0, one elementwise
# minimum per training point across a row of `rows` values, so the floor
# keeps that row long enough to vectorize even when n * m is large; the
# chunks then keep the block inside the budget. The einsum sums over m
# alone, in an order that does not depend on rows or chunk, and the min is
# exact, so the output is bit-identical for every budget and floor; only
# speed and memory change.
_TILE_ELEMENTS = 1 << 16
_MIN_ROWS = 256

# Drawn audit pairs closer than this fraction of the sampling box are
# redrawn: their ratio measures rounding noise, not the map's expansion.
_AUDIT_FLOOR = 1e-4


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
        """Recover signals for one observation (m,) or a stack (k, m)."""
        q, single = as_batch(y, self.input_dim, "observations")
        obs = self.training.observations
        sig = self.training.signals
        (count, m), n = q.shape, obs.shape[0]
        rows = max(1, min(count, max(_MIN_ROWS, _TILE_ELEMENTS // (n * m))))
        chunk = min(n, max(1, _TILE_ELEMENTS // (rows * m)))
        out = np.empty((count, self.output_dim))
        tiled = np.empty((chunk, rows, m))
        diffs = np.empty((chunk, rows, m))
        dist = np.empty((chunk, rows))
        shifted = np.empty((chunk, rows))
        low = np.empty(rows)
        for j0 in range(0, n, chunk):
            c = min(chunk, n - j0)
            tiled[:c] = obs[j0:j0 + c, None, :]
            for start in range(0, count, rows):
                k = min(rows, count - start)
                d = diffs[:c, :k]
                np.subtract(q[start:start + k], tiled[:c, :k], out=d)
                base = dist[:c, :k]
                np.einsum("jkm,jkm->jk", d, d, out=base)
                np.sqrt(base, out=base)
                np.multiply(self.omega1, base, out=base)
                for i in range(self.output_dim):
                    col = out[start:start + k, i]
                    np.add(base, sig[j0:j0 + c, i, None], out=shifted[:c, :k])
                    if j0 == 0:
                        shifted[:c, :k].min(axis=0, out=col)
                    else:
                        shifted[:c, :k].min(axis=0, out=low[:k])
                        np.minimum(col, low[:k], out=col)
        return out[0] if single else out

    __call__ = evaluate

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
        observation identical) give 0.
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
        y1 = rng.uniform(lo, hi, size=(num_pairs, self.input_dim))
        y2 = rng.uniform(lo, hi, size=(num_pairs, self.input_dim))
        for _ in range(64):
            gaps = np.linalg.norm(y1 - y2, axis=1)
            close = np.flatnonzero(gaps < floor)
            if close.size == 0:
                break
            y2[close] = rng.uniform(lo, hi, size=(close.size, self.input_dim))
        num = np.linalg.norm(self.evaluate(y1) - self.evaluate(y2), axis=1)
        den = np.linalg.norm(y1 - y2, axis=1)
        valid = den >= floor
        if not np.any(valid):
            return 0.0
        return float((num[valid] / den[valid]).max())


def fit(training: LabeledSet, omega1: Optional[float] = None) -> MwetHypothesis:
    """Fit the min-form extension on a labeled set.

    When omega1 is omitted it defaults to the set's tight Lipschitz
    constant (0 for a singleton, which degenerates the extension to the
    constant map). A supplied omega1 may be larger, e.g. the constant of an
    enclosing certified set, but one below the tight constant voids the
    interpolation guarantee and raises ConstantTooSmallError. Injectivity
    of the observations is required and checked.
    """
    if len(training) == 0:
        raise DegenerateSetError("cannot fit on an empty labeled set")
    if len(training) == 1:
        tight = 0.0
    else:
        tight = tight_omega(training).omega
    if omega1 is None:
        omega1 = tight
    else:
        omega1 = float(omega1)
        if not (np.isfinite(omega1) and omega1 >= 0.0):
            raise ParameterError(f"omega1 must be a nonnegative finite number, got {omega1}")
        if omega1 < tight and not np.isclose(omega1, tight, rtol=1e-9, atol=TOL_CERT):
            raise ConstantTooSmallError(
                f"omega1 = {omega1:.6g} is below the tight constant {tight:.6g}")
    return MwetHypothesis(training=training, omega1=float(omega1))
