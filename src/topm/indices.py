"""Gap indices B_{i,j}(t) and the confidence threshold functions C_{delta,t}.

B_{i,j}(t) upper-bounds mu_i - mu_j: empirical gap plus a width.  Paired
widths measure ||x_i - x_j|| in the inverse design norm; individual widths add
the two per-arm norms, which is never smaller (triangle inequality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import ConfigError
from .estimator import EstimatorState

HEURISTIC = "heuristic"
THEORETICAL = "theoretical"
CLASSICAL = "classical"

_KIND_ALIASES = {
    "heuristic": HEURISTIC,
    "theoretical": THEORETICAL,
    "theoretical-linear": THEORETICAL,
    "classical": CLASSICAL,
    "classical-lucb": CLASSICAL,
}

_KIND_CODES = {
    HEURISTIC: kernels.THR_HEURISTIC,
    THEORETICAL: kernels.THR_THEORETICAL,
    CLASSICAL: kernels.THR_CLASSICAL,
}

PAIRED = "paired"
INDIVIDUAL = "individual"


def normalize_threshold_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind.strip().lower()]
    except KeyError:
        raise ConfigError(f"unknown threshold kind {kind!r}") from None


@dataclass(frozen=True)
class ThresholdSpec:
    """Which C_{delta,t} to use, with the constants the chosen kind needs.

    heuristic needs only delta.  theoretical needs the feature dimension N,
    the feature norm bound L, the parameter bound S, lambda and sigma.
    classical (LUCB1 exploration rate) needs K and sigma; its value carries a
    1/sigma factor so that width C*sigma/sqrt(N_a) is sqrt(beta(t)/(2 N_a)).
    """

    kind: str
    delta: float
    n_dim: Optional[int] = None
    feature_bound: Optional[float] = None
    param_bound: Optional[float] = None
    lam: Optional[float] = None
    sigma: Optional[float] = None
    k_arms: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_threshold_kind(self.kind))
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0,1), got {self.delta}")
        if self.kind == THEORETICAL:
            for field in ("n_dim", "feature_bound", "param_bound", "lam", "sigma"):
                v = getattr(self, field)
                if v is None or v <= 0:
                    raise ConfigError(
                        f"theoretical threshold needs {field} > 0, got {v}"
                    )
        elif self.kind == CLASSICAL:
            if self.k_arms is None or self.k_arms < 2:
                raise ConfigError("classical threshold needs k_arms >= 2")
            if self.sigma is None or self.sigma <= 0:
                raise ConfigError("classical threshold needs sigma > 0")

    def kernel_args(self) -> tuple:
        """The positional constants threshold_value expects after (kind, t).

        None means "not needed by this kind" and becomes 0.0; kinds whose
        formula divides by a constant validate it positive at construction.
        """
        def _f(v):
            return 0.0 if v is None else float(v)

        return (
            float(self.delta),
            _f(self.n_dim),
            _f(self.feature_bound),
            _f(self.param_bound),
            _f(self.lam),
            _f(self.sigma),
            _f(self.k_arms),
        )

    @property
    def code(self) -> int:
        return _KIND_CODES[self.kind]


def threshold(spec: ThresholdSpec, t) -> float:
    """C_{delta,t}; non-decreasing in t, non-increasing in delta."""
    if t < 1:
        raise ConfigError(f"threshold defined for rounds t >= 1, got {t}")
    return float(kernels.threshold_value(spec.code, int(t), *spec.kernel_args()))


@dataclass(frozen=True)
class IndexConfig:
    """Index kind (paired/individual) plus the threshold choice.

    threshold is the bound ThresholdSpec index_components evaluates.  An
    algorithm's IndexConfig leaves it None, since the engine binds the
    threshold per trial from the instance constants and delta;
    threshold_kind then names the default kind to bind (heuristic when that
    is None too).
    """

    kind: str
    threshold: Optional[ThresholdSpec] = None
    threshold_kind: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (PAIRED, INDIVIDUAL):
            raise ConfigError(f"index kind must be paired or individual, got {self.kind!r}")
        if self.threshold_kind is not None:
            object.__setattr__(self, "threshold_kind",
                               normalize_threshold_kind(self.threshold_kind))

    @property
    def paired_code(self) -> int:
        return 1 if self.kind == PAIRED else 0


def _require_threshold(config: IndexConfig) -> ThresholdSpec:
    if config.threshold is None:
        raise ConfigError("IndexConfig has no bound ThresholdSpec")
    return config.threshold


def index_components(estimator: EstimatorState, config: IndexConfig, t):
    """(means, widths, B) for the estimator's current state, from
    kernels.round_quantities, the call both trial loops make each round."""
    level = threshold(_require_threshold(config), t)
    minv = estimator._require_design()
    xt = estimator._xt
    xmat = np.ascontiguousarray(estimator.features)
    mu, w, b, _, _ = kernels.round_quantities(
        xt, xmat, minv, estimator.response, level,
        estimator.sigma, config.paired_code,
    )
    return mu, w, b
