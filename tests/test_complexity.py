"""Complexity constants, the minimum-L1 design LP, and the fixed-point
sample-size bound, each checked against an independent recomputation."""

import itertools
import math

import numpy as np
import pytest

from topm.complexity import (_CUT_SLACK, H_KINDS, H_LUCB, H_MLINGAPE_1,
                             H_MLINGAPE_2, H_UGAPE, _fraction_outcome,
                             complexity_fraction_experiment, h_constant,
                             sample_complexity_bound, solve_l1_design)
from topm.engine import pair_designs
from topm.errors import BoundOverflow, ConfigError
from topm.indices import ThresholdSpec, threshold
from topm.instances import (Instance, gap_profile, make_canonical_instance,
                            make_classic_instance, make_random_unit_instance)

COS = math.cos(math.pi / 6.0)


# ---------------------------------------------------------------------------
# H constants
# ---------------------------------------------------------------------------


def test_gap_based_constants_match_closed_forms(classic42):
    """classic(4, 2, pi/6): three arms at gap 1 - cos(pi/6), one at gap 1."""
    d = 1.0 - COS
    lucb = h_constant(H_LUCB, classic42, 2)
    assert lucb.H == pytest.approx(2.0 * (3.0 / d**2 + 1.0), rel=1e-12)
    assert lucb.H == pytest.approx(336.27687752661257, rel=1e-13)
    assert lucb.per_arm_terms.sum() == pytest.approx(lucb.H, rel=1e-13)

    ugape = h_constant(H_UGAPE, classic42, 2)
    assert ugape.H == pytest.approx(4.0 * lucb.H, rel=1e-12)
    assert ugape.H == pytest.approx(1345.1075101064503, rel=1e-13)

    ml1 = h_constant(H_MLINGAPE_1, classic42, 2)
    assert ml1.H == pytest.approx(36.0 * 0.25 * (3.0 / d**2 + 1.0), rel=1e-12)
    assert ml1.H == pytest.approx(1513.2459488697566, rel=1e-13)

    ml2 = h_constant(H_MLINGAPE_2, classic42, 2)
    assert ml2.H == pytest.approx(438.738401753679, rel=1e-13)


def test_design_constant_canonical_closed_form():
    """Identity features make w* = e_i - e_j, so the per-arm maxima reduce
    to 9 sigma^2 / min-over-pairs max(gap_i, gap_j)^2: H = 81 sigma^2 here."""
    inst = make_canonical_instance([1.0, 0.5, 0.0], sigma=0.5)
    rep = h_constant(H_MLINGAPE_2, inst, 1)
    assert rep.H == pytest.approx(81.0 * 0.25, rel=1e-12)
    assert rep.per_arm_terms == pytest.approx([9.0, 9.0, 2.25], rel=1e-12)


def test_design_constant_matches_pairwise_recomputation(classic42):
    """Reassemble the design-based constant from single-pair LP solves."""
    gaps = gap_profile(classic42, 2).gaps
    k = classic42.K
    sigma = 0.5
    terms = np.zeros(k)
    for i, j in itertools.combinations(range(k), 2):
        w = solve_l1_design(classic42.features, i, j).weights
        d = max(gaps[i], gaps[j]) / 3.0
        for a in range(k):
            terms[a] = max(terms[a], sigma**2 * abs(w[a]) / d**2)
    rep = h_constant(H_MLINGAPE_2, classic42, 2)
    assert rep.per_arm_terms == pytest.approx(terms, rel=1e-10)


def test_epsilon_regularizes_denominators(classic42):
    d = 1.0 - COS
    eps = 0.3
    lucb = h_constant(H_LUCB, classic42, 2, eps)
    expect = 2.0 * (3.0 / max(eps / 2.0, d) ** 2 + 1.0 / max(eps / 2.0, 1.0) ** 2)
    assert lucb.H == pytest.approx(expect, rel=1e-12)
    assert lucb.H < h_constant(H_LUCB, classic42, 2, 0.0).H


def test_zero_gap_requires_epsilon():
    inst = make_canonical_instance([1.0, 1.0, 0.0], sigma=0.5)
    with pytest.raises(ConfigError, match="gap 0"):
        h_constant(H_LUCB, inst, 1)
    assert h_constant(H_LUCB, inst, 1, epsilon=0.1).H > 0


def test_sigma_defaults_to_instance_and_scales(classic42):
    base = h_constant(H_MLINGAPE_1, classic42, 2).H
    assert base == h_constant(H_MLINGAPE_1, classic42, 2, sigma=0.5).H
    assert h_constant(H_MLINGAPE_1, classic42, 2, sigma=1.0).H == pytest.approx(
        4.0 * base, rel=1e-12
    )
    # gap-only kinds ignore sigma entirely
    assert (h_constant(H_UGAPE, classic42, 2, sigma=1.0).H
            == h_constant(H_UGAPE, classic42, 2, sigma=0.5).H)


def test_h_constant_rejects_unknown_kind(classic42):
    with pytest.raises(ConfigError):
        h_constant("bogus", classic42, 2)
    assert set(H_KINDS) == {"lucb", "ugape", "m-lingape-1", "m-lingape-2"}


# ---------------------------------------------------------------------------
# minimum-L1 design weights
# ---------------------------------------------------------------------------


def test_classic_design_values_in_closed_form(classic42):
    """Hand-solvable systems: the hard pair routes through arms 1 and 4."""
    x = classic42.features
    s = math.sin(math.pi / 6.0)
    assert solve_l1_design(x, 0, 1).l1 == pytest.approx(2.0, rel=1e-12)
    assert solve_l1_design(x, 0, 2).l1 == pytest.approx(1.0 - COS + s, rel=1e-10)
    assert solve_l1_design(x, 2, 3).l1 == pytest.approx(COS + s, rel=1e-10)
    dw = solve_l1_design(x, 0, 2)
    assert dw.support == (0, 3)
    assert x @ dw.weights == pytest.approx(x[:, 0] - x[:, 2], abs=1e-12)


def test_difference_targets_are_always_feasible_with_l1_at_most_2():
    """w = e_i - e_j reproduces x_i - x_j for any features, so the optimum
    never exceeds 2; identity features attain exactly 2."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        x = rng.standard_normal((n, k))
        i, j = rng.choice(k, size=2, replace=False)
        dw = solve_l1_design(x, int(i), int(j))
        assert dw.l1 <= 2.0 + 1e-9
        assert x @ dw.weights == pytest.approx(x[:, i] - x[:, j], abs=1e-8)
    eye = np.eye(4)
    dw = solve_l1_design(eye, 1, 3)
    assert dw.l1 == pytest.approx(2.0, abs=1e-12)
    assert dw.weights == pytest.approx(eye[:, 1] - eye[:, 3], abs=1e-12)


def test_degenerate_pair_and_bad_ids():
    x = np.eye(3)
    dw = solve_l1_design(x, 2, 2)
    assert dw.l1 == 0.0 and not dw.weights.any()
    with pytest.raises(ConfigError):
        solve_l1_design(x, 0, 3)
    with pytest.raises(ConfigError):
        solve_l1_design(x, -1, 0)


def enumerate_l1_optimum(x, y, tol=1e-9):
    """Brute-force LP oracle: min 1'z over [X|-X] z = y, z >= 0, by checking
    every basis of N columns.  Valid because X has full row rank."""
    n, k = x.shape
    cols = np.hstack([x, -x])
    best = math.inf
    for subset in itertools.combinations(range(2 * k), n):
        sub = cols[:, subset]
        try:
            z = np.linalg.solve(sub, y)
        except np.linalg.LinAlgError:
            continue
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        if np.all(z >= -tol):
            best = min(best, float(np.sum(np.maximum(z, 0.0))))
    return best


def test_l1_solver_matches_basis_enumeration():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(max(2, n), 6))
        x = rng.standard_normal((n, k))
        i, j = rng.choice(k, size=2, replace=False)
        dw = solve_l1_design(x, int(i), int(j))
        oracle = enumerate_l1_optimum(x, x[:, i] - x[:, j])
        assert math.isfinite(oracle)
        assert dw.l1 == pytest.approx(oracle, rel=1e-8, abs=1e-8)
        checked += 1
    assert checked == 200


def test_batch_pair_designs_match_single_solves():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((3, 5))
    wstar, wl1, wok = pair_designs(x)
    for i, j in itertools.combinations(range(5), 2):
        assert wok[i, j] == 1
        dw = solve_l1_design(x, i, j)
        assert wl1[i, j] == pytest.approx(dw.l1, rel=1e-10)
        assert x @ wstar[i, j] == pytest.approx(x[:, i] - x[:, j], abs=1e-8)


# ---------------------------------------------------------------------------
# fixed-point bound
# ---------------------------------------------------------------------------


def scan_bound(H, spec, init_term=0, limit=2_000_000):
    u = 1
    while not u > 1.0 + H * threshold(spec, u) ** 2 + init_term:
        u += 1
        assert u <= limit, "scan oracle exhausted"
    return u


def test_bound_matches_linear_scan():
    heur = ThresholdSpec(kind="heuristic", delta=0.05)
    assert sample_complexity_bound(0.0, heur) == 2
    assert sample_complexity_bound(100.0, heur) == 1015
    rng = np.random.default_rng(5)
    for _ in range(12):
        H = float(rng.uniform(0.0, 400.0))
        delta = float(rng.choice([0.3, 0.05, 0.01]))
        spec = ThresholdSpec(kind="heuristic", delta=delta)
        assert sample_complexity_bound(H, spec) == scan_bound(H, spec)
    cls = ThresholdSpec(kind="classical", delta=0.05, sigma=0.5, k_arms=4)
    for H in (0.0, 7.3, 50.0):
        assert sample_complexity_bound(H, cls, 4) == scan_bound(H, cls, 4)


def test_bound_frozen_values(classic42):
    cls = ThresholdSpec(kind="classical", delta=0.05, sigma=0.5, k_arms=4)
    H = h_constant(H_LUCB, classic42, 2).H
    assert sample_complexity_bound(H, cls, init_term=4) == 30917
    theo = ThresholdSpec(kind="theoretical", delta=0.05, n_dim=3,
                         feature_bound=math.sqrt(2.0), param_bound=1.0,
                         lam=0.025, sigma=0.5)
    H1 = h_constant(H_MLINGAPE_1, classic42, 2).H
    assert sample_complexity_bound(H1, theo) == 82258


def test_bound_monotone_and_guarded():
    heur = ThresholdSpec(kind="heuristic", delta=0.05)
    tight = ThresholdSpec(kind="heuristic", delta=0.01)
    assert (sample_complexity_bound(50.0, heur)
            <= sample_complexity_bound(150.0, heur))
    assert (sample_complexity_bound(100.0, heur)
            <= sample_complexity_bound(100.0, tight))
    assert sample_complexity_bound(100.0, heur, init_term=50) >= 50
    with pytest.raises(ConfigError):
        sample_complexity_bound(-1.0, heur)
    with pytest.raises(ConfigError):
        sample_complexity_bound(1.0, heur, init_term=-2)
    with pytest.raises(BoundOverflow):
        sample_complexity_bound(1e19, heur)


def test_h_constant_fills_bound_when_given_threshold(classic42):
    theo = ThresholdSpec(kind="theoretical", delta=0.05, n_dim=3,
                         feature_bound=math.sqrt(2.0), param_bound=1.0,
                         lam=0.025, sigma=0.5)
    rep = h_constant(H_MLINGAPE_1, classic42, 2, threshold_spec=theo)
    assert rep.T == 82258
    assert h_constant(H_MLINGAPE_1, classic42, 2).T is None


# ---------------------------------------------------------------------------
# random-instance fraction experiment
# ---------------------------------------------------------------------------


def test_fraction_experiment_is_deterministic_across_workers():
    serial = complexity_fraction_experiment(6, 2, 0.3, reps=24, seed=3)
    threaded = complexity_fraction_experiment(6, 2, 0.3, reps=24, seed=3,
                                              workers=4)
    assert serial == threaded
    assert 0.0 <= serial.fraction <= 1.0
    assert serial.wins <= serial.reps - serial.skips
    with pytest.raises(ConfigError):
        complexity_fraction_experiment(6, 2, 0.3, reps=0, seed=3)


def test_fraction_lp_count_is_deterministic_and_bounded():
    serial = complexity_fraction_experiment(10, 5, 0.25, reps=24, seed=3)
    threaded = complexity_fraction_experiment(10, 5, 0.25, reps=24, seed=3,
                                              workers=4)
    assert serial.lps == threaded.lps
    assert 24 <= serial.lps <= 24 * 45


def _full_comparison(inst, m):
    h2 = h_constant(H_MLINGAPE_2, inst, m, 0.0, 1.0).H
    hu = h_constant(H_UGAPE, inst, m, 0.0, 1.0).H
    return h2, hu


@pytest.mark.parametrize("K,N,reps", [(10, 5, 200), (10, 10, 200), (20, 10, 20)])
def test_fraction_decision_equals_full_comparison(K, N, reps):
    """Each rep's early-exit decision is H(m-lingape-2) <= H(ugape) computed
    in full, on the reps of the acceptance cells."""
    m = K // 3 + 1
    pairs = K * (K - 1) // 2
    lps = 0
    for rep in range(reps):
        inst = make_random_unit_instance(K, N, 0.25, seed=(0, rep), sigma=0.5)
        h2, hu = _full_comparison(inst, m)
        outcome, solved = _fraction_outcome(inst, m)
        assert outcome == int(h2 <= hu), rep
        assert 1 <= solved <= pairs
        if h2 <= hu:
            assert solved == pairs
        lps += solved
    assert lps < reps * pairs  # the early exit was taken


def test_fraction_decision_exact_at_near_ties():
    """Explicit means let the worst arm's mean move both constants while the
    designs stay fixed, so bisecting it brackets H(m-lingape-2) =
    H(ugape) * (1 + rel) to the last bit.  At rel = 0 the running bound never
    crosses the cut and the full constants decide; at rel = 2e-9, just past
    the cut, it crosses only at the last pair, which on this instance
    (seed 46) raises a per-arm maximum."""
    k, n, m = 5, 2, 2
    rng = np.random.default_rng(46)
    features = rng.normal(size=(n, k))
    features /= np.linalg.norm(features, axis=0)
    mu_top = np.sort(rng.uniform(0.5, 1.0, size=k - 1))[::-1]

    def make(worst):
        return Instance(features, 0.5, mu=np.append(mu_top, worst))

    def bracket(rel):
        lo, hi = mu_top[-1] - 3.0, mu_top[-1] - 1e-3
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            h2, hu = _full_comparison(make(mid), m)
            if h2 <= hu * (1.0 + rel):
                lo = mid
            else:
                hi = mid
        return make(lo), make(hi)

    tie_below, tie_above = bracket(0.0)
    cut_below, cut_above = bracket(2e-9)
    for inst in (tie_below, tie_above, cut_below, cut_above):
        h2, hu = _full_comparison(inst, m)
        assert _fraction_outcome(inst, m) == (int(h2 <= hu), 10)
    assert _fraction_outcome(tie_below, m)[0] == 1
    assert _fraction_outcome(tie_above, m)[0] == 0
    h2, hu = _full_comparison(cut_above, m)
    assert h2 > hu * (1.0 + _CUT_SLACK)  # so the bound crossed, at pair 10
