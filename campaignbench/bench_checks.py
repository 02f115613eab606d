"""Output checks computed apart from the program under test.

Each check recomputes what it needs from the benchmark's own inputs or
formulas (closed-form means, table row means, gap definitions, exploration
rates, an external LP solver) and returns a list of problems found; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np


def classic_means(K: int, m: int, omega: float) -> list:
    """Closed-form means of the omega-instance: 1 for the first m arms,
    cos(omega) for arm m, 0 beyond."""
    return [1.0] * m + [math.cos(omega)] + [0.0] * (K - m - 1)


def top_set(mu, m: int, epsilon: float = 0.0) -> frozenset:
    """Arms whose mean is within epsilon of the m-th largest mean."""
    mu = [float(v) for v in mu]
    mth = sorted(mu, reverse=True)[m - 1]
    return frozenset(a for a, v in enumerate(mu) if v >= mth - epsilon)


def trial_problems(result, m: int, k: int, ok_set) -> list:
    """Per-trial output checks against the independently computed top set."""
    problems = []
    rec = tuple(int(a) for a in result.recommendation)
    if result.truncated:
        problems.append("truncated at max_rounds")
    if len(rec) != m or len(set(rec)) != m or any(not 0 <= a < k for a in rec):
        problems.append("recommendation is not m distinct arms")
    if int(np.sum(result.counts)) != int(result.tau):
        problems.append("arm counts do not sum to tau")
    right = set(rec) <= ok_set
    if bool(result.correct) != right:
        problems.append("correct flag disagrees with the independent top set")
    if result.event_E_held and not right:
        problems.append("monitor held but the recommendation is wrong")
    return problems


def error_frequency(results, ok_set) -> float:
    """Share of results whose recommendation leaves the allowed set."""
    if not results:
        raise ValueError("error frequency of no results")
    wrong = sum(1 for r in results if not set(r.recommendation) <= ok_set)
    return wrong / len(results)


def same_trial(a, b) -> bool:
    """Two trial results agree exactly (seed, stopping time, output, counts)."""
    return (a.seed == b.seed and a.tau == b.tau
            and tuple(a.recommendation) == tuple(b.recommendation)
            and a.truncated == b.truncated and a.correct == b.correct
            and a.stat == b.stat and a.event_E_held == b.event_E_held
            and np.array_equal(a.counts, b.counts))


def linprog_l1(xmat, target):
    """Minimum L1 norm of w with X w = target, by scipy's HiGHS solver.

    Returns None when the solver finds no feasible point.
    """
    from scipy.optimize import linprog

    xmat = np.asarray(xmat, dtype=np.float64)
    k = xmat.shape[1]
    res = linprog(np.ones(2 * k), A_eq=np.hstack([xmat, -xmat]),
                  b_eq=np.asarray(target, dtype=np.float64),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        return None
    return float(res.fun)


def design_problems(xmat, i: int, j: int, w, l1: float, lp_l1) -> list:
    """Design weights w for pair (i, j) reproduce x_i - x_j to 1e-8, carry
    the reported L1 norm, and that norm is the LP optimum."""
    xmat = np.asarray(xmat, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    problems = []
    resid = float(np.max(np.abs(xmat @ w - (xmat[:, i] - xmat[:, j]))))
    if not resid <= 1e-8:
        problems.append(f"design ({i},{j}) residual {resid:.2e} above 1e-8")
    if not abs(float(np.abs(w).sum()) - l1) <= 1e-8 * max(1.0, l1):
        problems.append(f"design ({i},{j}) weights do not have the reported L1 norm")
    if lp_l1 is None:
        problems.append(f"design ({i},{j}) is infeasible for linprog")
    elif not abs(l1 - lp_l1) <= 1e-6 * max(1.0, lp_l1):
        problems.append(f"design ({i},{j}) L1 {l1:.9g} is not the linprog optimum {lp_l1:.9g}")
    return problems


def gaps(mu, m: int) -> list:
    """Delta_a = mu_a - mu_(m+1) inside the top m, mu_(m) - mu_a outside."""
    mu = [float(v) for v in mu]
    order = sorted(range(len(mu)), key=lambda a: -mu[a])
    top = set(order[:m])
    mu_m, mu_m1 = mu[order[m - 1]], mu[order[m]]
    return [mu[a] - mu_m1 if a in top else mu_m - mu[a] for a in range(len(mu))]


def h_reference(kind: str, mu, m: int, epsilon: float, sigma: float) -> float:
    """The lucb, ugape and m-lingape-1 constants from the gap definitions."""
    total = 0.0
    for d in gaps(mu, m):
        if kind == "lucb":
            total += 2.0 / max(epsilon / 2.0, d) ** 2
        elif kind == "ugape":
            total += 2.0 / max(epsilon, (epsilon + d) / 2.0) ** 2
        elif kind == "m-lingape-1":
            total += 4.0 * sigma ** 2 / max(epsilon, (epsilon + d) / 3.0) ** 2
        else:
            raise ValueError(f"no reference formula for {kind!r}")
    return total


def heuristic_rate(t: int, delta: float) -> float:
    """C_{delta,t} = sqrt(2 ln((ln t + 1) / delta)), clamped at 0."""
    return math.sqrt(max(0.0, 2.0 * math.log((math.log(t) + 1.0) / delta)))


def theoretical_rate(t: int, delta: float, n_dim: int, feat_bound: float,
                     param_bound: float, lam: float, sigma: float) -> float:
    """C_{delta,t} = sqrt(2 ln(1/delta) + N ln(1 + t L^2 / (lam N)))
    + sqrt(lam) S / sigma."""
    core = 2.0 * math.log(1.0 / delta) + n_dim * math.log(
        1.0 + t * feat_bound ** 2 / (lam * n_dim))
    return math.sqrt(core) + math.sqrt(lam) * param_bound / sigma


def bound_problems(u: int, H: float, rate, init_term: int = 0) -> list:
    """u is the first integer with u > 1 + H C_u^2 + init_term."""
    def holds(v):
        c = rate(v)
        return v > 1.0 + H * c * c + init_term

    problems = []
    if not holds(u):
        problems.append(f"bound {u} does not satisfy the fixed-point condition")
    if u > 1 and holds(u - 1):
        problems.append(f"bound {u} is not the smallest: {u - 1} satisfies it")
    return problems


def fraction_problems(result) -> list:
    """Tallies of the fraction experiment are consistent with each other."""
    problems = []
    if min(result.wins, result.skips) < 0 or result.wins + result.skips > result.reps:
        problems.append("wins + skips exceed reps")
    valid = result.reps - result.skips
    expect = result.wins / valid if valid > 0 else 0.0
    if result.fraction != expect:
        problems.append("fraction is not wins / (reps - skips)")
    return problems
