"""Online regularized least squares over arm features.

EstimatorState holds the arrays a trial loop updates: the design matrix
lam*I + sum N_a x_a x_a^T with its inverse, the cumulative response vector,
per-arm counts and the update counters.  Each pull goes through
kernels.record_pull, the update kernels.trial_chunk makes, and the state
exposes the empirical means and deviation norms the gap indices are built
from.  Every trial's estimator is built here: the engine constructs one per
trial and runs the feature-blind initialization pass through its update.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import ConfigError, DimensionMismatch


class EstimatorState:
    """One estimator per trial; single-threaded mutation.

    lam = 0 is allowed only for canonical (identity) features and defers the
    inverse until every arm has been pulled at least once, which is exactly
    what the mandatory initialization pass guarantees.  Until then minv is
    None and the pulls only accumulate the design.
    """

    def __init__(self, features, sigma: float, lam: float,
                 recompute_every: int = 1000):
        x = np.array(features, dtype=np.float64)
        if x.ndim != 2:
            raise DimensionMismatch("features must be a 2-D (N, K) matrix")
        self.features = x
        self._xt = np.ascontiguousarray(x.T)
        n, k = x.shape
        self.sigma = float(sigma)
        self.lam = float(lam)
        self.recompute_every = int(recompute_every)
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if self.lam == 0 and not (n == k and np.array_equal(x, np.eye(k))):
            raise ConfigError(
                "lambda = 0 is only supported for canonical features with a "
                "full initialization pass"
            )
        self.amat = self.lam * np.eye(n)
        self.minv = np.eye(n) / self.lam if self.lam > 0 else None
        self.response = np.zeros(n)
        self.counts = np.zeros(k, dtype=np.int64)
        self.istate = np.zeros(kernels.ISTATE_LEN, np.int64)

    @property
    def K(self) -> int:
        return self.features.shape[1]

    @property
    def round(self) -> int:
        return int(self.istate[kernels.IS_T])

    def update(self, arm: int, reward: float) -> "EstimatorState":
        """Record one pull of ``arm`` with the observed reward.  Returns self."""
        if not 0 <= arm < self.K:
            raise DimensionMismatch(f"arm {arm} out of range [0, {self.K})")
        r = float(reward)
        if self.minv is not None:
            kernels.record_pull(arm, r, self._xt, self.amat, self.minv,
                                self.response, self.counts, self.istate,
                                self.recompute_every)
            return self
        x = self._xt[arm]
        self.counts[arm] += 1
        self.istate[kernels.IS_T] += 1
        self.response += r * x
        self.amat += x.reshape(-1, 1) * x.reshape(1, -1)
        if np.all(self.counts >= 1):
            self.minv = np.linalg.inv(self.amat)
            kernels.symmetrize(self.minv)
        return self

    def _require_design(self) -> np.ndarray:
        if self.minv is None:
            raise ConfigError(
                "design not yet invertible: lam = 0 requires one pull of every "
                "arm before estimates are defined"
            )
        return self.minv

    @property
    def theta_hat(self) -> np.ndarray:
        return self._require_design() @ self.response

    def empirical_mean(self, arm: int) -> float:
        if not 0 <= arm < self.K:
            raise DimensionMismatch(f"arm {arm} out of range [0, {self.K})")
        return float(self._xt[arm] @ self.theta_hat)

    def deviation(self, y) -> float:
        """sigma * ||y|| in the inverse-design norm (the width factor)."""
        minv = self._require_design()
        y = np.ascontiguousarray(y, dtype=np.float64)
        if y.shape != (minv.shape[0],):
            raise DimensionMismatch(
                f"vector has shape {y.shape}, expected ({minv.shape[0]},)"
            )
        q = kernels.quad_form_inv(minv, y)
        return self.sigma * math.sqrt(q if q > 0.0 else 0.0)
