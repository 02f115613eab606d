"""Sample-complexity constants, minimum-L1 design weights, and the
fixed-point bound on the stopping time.

The H constant of an algorithm is a sum over arms of inverse squared
(epsilon-regularized) gaps; the bound T is the smallest integer u exceeding
1 + H * C_{delta,u}^2 plus the initialization cost.  The design weights
w*(i, j) reproduce x_i - x_j from the arm features with minimal L1 norm and
drive both the optimized selection rule and the design-based H constant.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DesignWeights:
    """Minimum-L1 weights with X @ weights = x_i - x_j."""

    pair: tuple
    weights: np.ndarray
    l1: float

    @property
    def support(self) -> tuple:
        return tuple(int(a) for a in np.nonzero(self.weights)[0])


def solve_l1_design(features, i: int, j: int,
                    tol: float = kernels.DESIGN_TOL) -> DesignWeights:
    """Minimum-L1 w with X w = x_i - x_j, via the split LP (w = u - v),
    started at w = e_i - e_j (kernels.simplex_l1's pair form).

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
    status, w, l1 = kernels.simplex_l1(xmat, target, tol, i, j)
    if status == kernels.SIMPLEX_INFEASIBLE:
        raise InfeasibleDesign(
            f"x_{i} - x_{j} is not in the span of the feature columns"
        )
    if status != kernels.SIMPLEX_OK:
        raise InfeasibleDesign(
            f"design solve for pair ({i}, {j}) failed numerically"
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


def _pair_order(gaps, epsilon: float, by_denominator: bool = False) -> tuple:
    """Arrays (i, j, d_ij) over the arm pairs i < j, in (i, j) order, or
    smallest d_ij first (ties in (i, j) order) when by_denominator is set.
    |w*| and d_ij are symmetric in (i, j), so these pairs cover both
    orders."""
    first, second = np.triu_indices(gaps.shape[0], 1)
    den = np.array([max(epsilon, (epsilon + gaps[i]) / 3.0,
                        (epsilon + gaps[j]) / 3.0)
                    for i, j in zip(first, second)], dtype=np.float64)
    if by_denominator:
        order = np.argsort(den, kind="stable")
        return first[order], second[order], den[order]
    return first, second, den


def _design_maxima(pairs, k: int, design):
    """Running per-arm maxima of |w*(i, j)_a| / d_ij^2 over pairs, as given
    by _pair_order.

    design(i, j) returns w*(i, j), or None when its LP failed, which raises
    InfeasibleDesign.  Yields the maxima after each pair (the same array,
    updated in place).
    """
    best = np.zeros(k)
    for i, j, d in zip(*pairs):
        w = design(i, j)
        if w is None:
            raise InfeasibleDesign(
                f"design system for pair ({i}, {j}) is infeasible"
            )
        # fmax, like a strict scalar max, passes over NaN entries
        np.fmax(best, np.abs(w) / d**2, out=best)
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
        wstar, _, wok = kernels.all_pair_designs(xmat, kernels.DESIGN_TOL)
        *_, best = _design_maxima(  # all pairs, in (i, j) order
            _pair_order(gaps, epsilon), k,
            lambda i, j: wstar[i, j] if wok[i, j] else None)
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

    lps counts the design LPs the decisions used, summed over reps: a rep's
    LPs up to its crossing or failing LP, or all its pairs.  lps_solved
    counts the LPs actually solved, which is at least lps and below twice
    it, since a rep's last block can run past the LP that decided it.
    """

    fraction: float
    wins: int
    skips: int
    reps: int
    lps: int
    lps_solved: int


class _RepDecision:
    """One rep's early-exit comparison of H(m-lingape-2) <= H(ugape) at
    epsilon = 0 and sigma = 1, fed its design LPs block by block.

    outcome is None while undecided, then 1 for a win, 0 for a loss and -1
    for a skip.  The pairs go smallest denominator first in blocks of 1, 2,
    4, ... LPs; read() takes them in that order and stops at the first LP
    whose running bound crosses the cut or whose solve failed.
    """

    def __init__(self, instance, m: int):
        self.outcome = None
        self.lps = self.solved = 0
        try:
            self.hu = h_constant(H_UGAPE, instance, m, 0.0, 1.0).H
        except ConfigError:  # a degenerate gap
            self.outcome = -1
            return
        self.cut = self.hu * (1.0 + _CUT_SLACK)
        self.xmat = np.ascontiguousarray(instance.features, dtype=np.float64)
        self.pairs = _pair_order(gap_profile(instance, m).gaps, 0.0,
                                 by_denominator=True)
        # the design source holds the dict, not self: a rep that referred to
        # itself through its generator would stay alive until a cyclic
        # garbage collection
        self.weights = weights = {}
        self.maxima = _design_maxima(self.pairs, self.xmat.shape[1],
                                     lambda i, j: weights.pop((i, j)))

    def next_block(self) -> tuple:
        """The arm ids (i, j) of the next block's pairs.  Blocks hold 1, 2,
        4, ... pairs: after 2^s - 1 LPs the next block holds 2^s."""
        return tuple(a[self.solved:2 * self.solved + 1] for a in self.pairs[:2])

    def read(self, block, status, w) -> None:
        self.solved += block[0].size
        for pair, s, wq in zip(zip(*block), status, w):
            self.weights[pair] = wq if s == kernels.SIMPLEX_OK else None
        try:
            for _ in status:
                best = next(self.maxima)
                self.lps += 1
                if best.sum() > self.cut:
                    self.outcome = 0
                    return
        except InfeasibleDesign:
            self.lps += 1
            self.outcome = -1
            return
        if self.solved == self.pairs[0].size:
            h2 = float(best @ np.ones(best.shape[0]))  # as in h_constant
            self.outcome = 1 if h2 <= self.hu else 0


def _fraction_outcomes(instances, m: int) -> list:
    """(outcome, lps, lps_solved) of each instance's _RepDecision.

    The instances, any iterable of them, share one feature shape; each is
    dropped once its rep holds what the decision needs, and each rep once
    it is decided, so only undecided reps hold features and weights.  Each
    step takes the next block of every undecided rep and solves all of them
    in one kernels.simplex_l1_many call, so the step count, not the rep
    count, sets the number of lockstep solves.
    """
    out, live = [], []
    for inst in instances:
        live.append((len(out), _RepDecision(inst, m)))
        out.append(None)
    while True:
        for slot, r in live:
            if r.outcome is not None:
                out[slot] = (r.outcome, r.lps, r.solved)
        live = [(slot, r) for slot, r in live if r.outcome is None]
        if not live:
            return out
        blocks = [r.next_block() for _, r in live]
        sizes = [i.size for i, _ in blocks]
        xmats = np.stack([r.xmat for _, r in live]).repeat(sizes, axis=0)
        targets = np.concatenate([(r.xmat[:, i] - r.xmat[:, j]).T
                                  for (_, r), (i, j) in zip(live, blocks)])
        status, w, _ = kernels.simplex_l1_many(
            xmats, targets, kernels.DESIGN_TOL, np.hstack(blocks))
        at = np.cumsum(sizes)[:-1]
        for (_, r), b, s, wb in zip(live, blocks, np.split(status, at),
                                    np.split(w, at)):
            r.read(b, s, wb)


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

    All reps run together in the calling thread: each step solves the next
    block of LPs of every undecided rep in one lockstep batch, and each rep
    reads its block in its own order, so wins, skips and lps are those of
    deciding the reps one LP at a time.  workers is accepted for
    compatibility and ignored.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    m = K // 3 + 1
    outcomes = _fraction_outcomes(
        (make_random_unit_instance(K, N, D, seed=(seed, rep), sigma=0.5)
         for rep in range(reps)), m)
    decided = [o for o, _, _ in outcomes]
    wins = decided.count(1)
    skips = decided.count(-1)
    valid = reps - skips
    fraction = wins / valid if valid > 0 else 0.0
    return FractionResult(fraction=fraction, wins=wins, skips=skips, reps=reps,
                          lps=sum(n for _, n, _ in outcomes),
                          lps_solved=sum(n for _, _, n in outcomes))
