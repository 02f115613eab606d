"""Sample-complexity constants, minimum-L1 design weights, and the
fixed-point bound on the stopping time.

The H constant of an algorithm is a sum over arms of inverse squared
(epsilon-regularized) gaps; the bound T is the smallest integer u exceeding
1 + H * C_{delta,u}^2 plus the initialization cost.  The design weights
w*(i, j) reproduce x_i - x_j from the arm features with minimal L1 norm and
drive both the optimized selection rule and the design-based H constant.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import BoundOverflow, ConfigError, InfeasibleDesign
from .indices import ThresholdSpec, threshold
from .instances import gap_profile, make_random_unit_instance

H_LUCB = "lucb"
H_UGAPE = "ugape"
H_MLINGAPE_1 = "m-lingape-1"
H_MLINGAPE_2 = "m-lingape-2"
H_KINDS = (H_LUCB, H_UGAPE, H_MLINGAPE_1, H_MLINGAPE_2)

_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class DesignWeights:
    """Minimum-L1 weights with X @ weights = x_i - x_j."""

    pair: tuple
    weights: np.ndarray
    l1: float

    @property
    def support(self) -> tuple:
        return tuple(int(a) for a in np.nonzero(self.weights)[0])


def solve_l1_design(features, i: int, j: int, tol: float = 1e-9) -> DesignWeights:
    """Minimum-L1 w with X w = x_i - x_j, via the split LP (w = u - v).

    The L1 value is unique; the weight vector need not be.  i == j returns
    zero weights.
    """
    xmat = np.ascontiguousarray(features, dtype=np.float64)
    k = xmat.shape[1]
    if not (0 <= i < k and 0 <= j < k):
        raise ConfigError(f"arm ids must lie in [0, {k}), got ({i}, {j})")
    if i == j:
        return DesignWeights(pair=(i, j), weights=np.zeros(k), l1=0.0)
    target = np.ascontiguousarray(xmat[:, i] - xmat[:, j])
    status, w, l1 = kernels.simplex_l1(xmat, target, tol)
    if status == kernels.SIMPLEX_INFEASIBLE:
        raise InfeasibleDesign(
            f"x_{i} - x_{j} is not in the span of the feature columns"
        )
    if status != kernels.SIMPLEX_OK:
        raise InfeasibleDesign(
            f"design solve for pair ({i}, {j}) failed numerically"
        )
    resid = float(np.max(np.abs(xmat @ w - target)))
    if resid > _RESIDUAL_TOL:
        raise InfeasibleDesign(
            f"design residual {resid:.3e} exceeds {_RESIDUAL_TOL} for pair ({i}, {j})"
        )
    return DesignWeights(pair=(int(i), int(j)), weights=w, l1=float(l1))


@dataclass(frozen=True)
class ComplexityReport:
    """H constant with its per-arm decomposition and optional time bound."""

    kind: str
    H: float
    per_arm_terms: np.ndarray
    T: Optional[int] = None


def _guard_gaps(gaps, epsilon: float) -> None:
    # every denominator is positive once epsilon > 0 or all gaps are
    if epsilon > 0.0:
        return
    for a in range(gaps.shape[0]):
        if gaps[a] <= 0.0:
            raise ConfigError(
                f"zero complexity denominator: arm {a} has gap 0 and "
                f"epsilon = 0"
            )


def _design_maxima(xmat, gaps, epsilon: float, by_denominator: bool = False):
    """Running per-arm maxima of |w*(i, j)_a| / d_ij^2 over the arm pairs.

    Solves one design LP per pair and yields the maxima after each solve (the
    same array, updated in place).  |w*| and d_ij are symmetric in (i, j), so
    the pairs i < j cover both orders.  Pairs go in (i, j) order, or smallest
    d_ij first (ties in (i, j) order) when by_denominator is set.
    """
    k = gaps.shape[0]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    den = {(i, j): max(epsilon, (epsilon + gaps[i]) / 3.0,
                       (epsilon + gaps[j]) / 3.0) for i, j in pairs}
    if by_denominator:
        pairs.sort(key=den.__getitem__)
    best = np.zeros(k)
    for i, j in pairs:
        status, w, _ = kernels.simplex_l1(xmat, xmat[:, i] - xmat[:, j], 1e-9)
        if status != kernels.SIMPLEX_OK:
            raise InfeasibleDesign(
                f"design system for pair ({i}, {j}) is infeasible"
            )
        # fmax, like a strict scalar max, passes over NaN entries
        np.fmax(best, np.abs(w) / den[i, j]**2, out=best)
        yield best


def h_constant(kind: str, instance, m: int, epsilon: float = 0.0,
               sigma: Optional[float] = None, *,
               threshold_spec: Optional[ThresholdSpec] = None,
               init_term: int = 0) -> ComplexityReport:
    """One of the four complexity constants, per-arm terms included.

    The lucb and ugape constants are evaluated literally and carry no sigma
    factor; the design-based kinds multiply by sigma squared.  Passing
    threshold_spec also fills the fixed-point bound T.
    """
    kind = kind.strip().lower()
    if kind not in H_KINDS:
        raise ConfigError(f"unknown H kind {kind!r}; choose from {H_KINDS}")
    profile = gap_profile(instance, m)
    gaps = profile.gaps
    k = gaps.shape[0]
    if sigma is None:
        sigma = getattr(instance, "sigma", None)
        if sigma is None:
            raise ConfigError("sigma is required when the instance has none")
    sigma = float(sigma)
    _guard_gaps(gaps, epsilon)
    terms = np.zeros(k)

    if kind == H_LUCB:
        for a in range(k):
            d = max(epsilon / 2.0, gaps[a])
            terms[a] = 2.0 / d**2
    elif kind == H_UGAPE:
        for a in range(k):
            d = max(epsilon, (epsilon + gaps[a]) / 2.0)
            terms[a] = 2.0 / d**2
    elif kind == H_MLINGAPE_1:
        for a in range(k):
            d = max(epsilon, (epsilon + gaps[a]) / 3.0)
            terms[a] = 4.0 * sigma**2 / d**2
    else:
        features = getattr(instance, "features", None)
        if features is None:
            raise ConfigError(
                "the design-based constant needs an instance with features"
            )
        xmat = np.ascontiguousarray(features, dtype=np.float64)
        *_, best = _design_maxima(xmat, gaps, epsilon)  # all pairs solved
        terms = sigma**2 * best
    h = float(terms @ np.ones(k))
    bound = None
    if threshold_spec is not None:
        bound = sample_complexity_bound(h, threshold_spec, init_term)
    return ComplexityReport(kind=kind, H=h, per_arm_terms=terms, T=bound)


_BOUND_CAP = 2**63 - 1


def sample_complexity_bound(H: float, threshold_spec: ThresholdSpec,
                            init_term: int = 0) -> int:
    """Smallest integer u with u > 1 + H * C_{delta,u}^2 + init_term.

    Exponential doubling finds a satisfying u, bisection narrows to the first
    one (the right side is concave in u for every threshold kind, so the
    predicate flips once), and a final walk-down guards the boundary.
    """
    if H < 0:
        raise ConfigError("H must be >= 0")
    if init_term < 0:
        raise ConfigError("init_term must be >= 0")

    def ok(u: int) -> bool:
        c = threshold(threshold_spec, u)
        return u > 1.0 + H * c * c + init_term

    hi = 1
    while not ok(hi):
        if hi >= _BOUND_CAP:
            raise BoundOverflow(
                f"no integer below 2^63 satisfies the fixed-point condition "
                f"(H = {H})"
            )
        hi = min(hi * 2, _BOUND_CAP)
    lo = hi // 2  # ok(lo) is False unless hi == 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    while hi > 1 and ok(hi - 1):
        hi -= 1
    return int(hi)


# relative margin that keeps the early loss decision clear of the rounding
# in the partial sums; inside it the rep is decided on the full constant
_CUT_SLACK = 1e-9


@dataclass(frozen=True)
class FractionResult:
    """Outcome of the random-instance constant comparison.

    lps counts the design LPs solved, summed over reps.
    """

    fraction: float
    wins: int
    skips: int
    reps: int
    lps: int


def _fraction_outcome(instance, m: int) -> tuple:
    """(outcome, design LPs solved) of H(m-lingape-2) <= H(ugape) at
    epsilon = 0 and sigma = 1; outcome 1 is a win, 0 a loss, -1 a skip."""
    solved = 0
    try:
        hu = h_constant(H_UGAPE, instance, m, 0.0, 1.0).H
        cut = hu * (1.0 + _CUT_SLACK)
        xmat = np.ascontiguousarray(instance.features, dtype=np.float64)
        for best in _design_maxima(xmat, gap_profile(instance, m).gaps, 0.0,
                                   by_denominator=True):
            solved += 1
            if best.sum() > cut:
                return 0, solved
    except ConfigError:
        return -1, solved
    except InfeasibleDesign:
        return -1, solved + 1
    h2 = float(best @ np.ones(best.shape[0]))  # sigma = 1, as in h_constant
    return (1 if h2 <= hu else 0), solved


def complexity_fraction_experiment(K: int, N: int, D: float, reps: int,
                                   seed, workers: int = 1) -> FractionResult:
    """Fraction of random unit instances where the design-based constant
    beats the ugape constant.

    Each rep draws an instance from seed (seed, rep), sets m = floor(K/3)+1,
    epsilon = 0, and compares H(m-lingape-2) <= H(ugape).  Both constants
    are evaluated on the common unit-variance scale (sigma = 1): the ugape
    constant carries no sigma factor because its sigma lives inside the
    classical confidence width, so scaling the design constant by any other
    sigma^2 would just shift the comparison by that factor.

    Each per-arm term of H(m-lingape-2) is a max over pairs, so after any
    subset of the design LPs the sum of the running maxima bounds it from
    below.  The LPs go smallest denominator first, and a rep stops as a
    loss once that bound exceeds H(ugape) (1 + 1e-9); a rep that never
    crosses solves every pair and compares the full constant.  Instances
    with a degenerate gap or a design LP that fails are skipped and
    tallied; since x_i - x_j always lies in the feature span, only a
    numerical failure of the simplex fails a design LP, and one among the
    pairs an early loss never reaches leaves the rep a loss, not a skip.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    m = K // 3 + 1

    def one(rep: int) -> tuple:
        inst = make_random_unit_instance(K, N, D, seed=(seed, rep), sigma=0.5)
        return _fraction_outcome(inst, m)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, range(reps)))
    else:
        outcomes = [one(rep) for rep in range(reps)]
    decided = [o for o, _ in outcomes]
    wins = decided.count(1)
    skips = decided.count(-1)
    valid = reps - skips
    fraction = wins / valid if valid > 0 else 0.0
    return FractionResult(fraction=fraction, wins=wins, skips=skips, reps=reps,
                          lps=sum(n for _, n in outcomes))
