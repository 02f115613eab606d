"""Complexity constants, the minimum-L1 design LP, and the fixed-point
sample-size bound, each checked against an independent recomputation."""

import itertools
import math
import re

import numpy as np
import pytest

from topm import kernels
from topm._jit import NUMBA_ENABLED
from topm.complexity import (_CUT_SLACK, H_KINDS, H_LUCB, H_MLINGAPE_1,
                             H_MLINGAPE_2, H_UGAPE, FractionResult,
                             _fraction_outcomes,
                             _pair_order, complexity_fraction_experiment,
                             h_constant, sample_complexity_bound,
                             solve_l1_design)
from topm.engine import pair_designs
from topm.errors import BoundOverflow, ConfigError, InfeasibleDesign
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


def test_pair_designs_match_basis_enumeration():
    """Every pair of the batched all-pair solve against the brute-force
    oracle, on random systems drawn as in the scalar test above."""
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(max(2, n), 6))
        x = rng.standard_normal((n, k))
        wstar, wl1, wok = pair_designs(x)
        for i, j in itertools.combinations(range(k), 2):
            oracle = enumerate_l1_optimum(x, x[:, i] - x[:, j])
            assert wok[i, j] == 1
            assert wl1[i, j] == pytest.approx(oracle, rel=1e-8, abs=1e-8)
            assert np.abs(wstar[i, j]).sum() == pytest.approx(oracle, rel=1e-8, abs=1e-8)
            checked += 1
    assert checked > 200


def _pair_targets(x):
    return np.array([x[:, i] - x[:, j]
                     for i, j in itertools.combinations(range(x.shape[1]), 2)])


def _batch_systems():
    rng = np.random.default_rng(40)
    systems = [(f"random K={k} N={n}", make_random_unit_instance(
        k, n, 0.25, seed=(40, k * n), sigma=0.5).features)
        for k, n in [(10, 5), (10, 10), (20, 10)]]
    systems.append(("classic", make_classic_instance(4, 2, math.pi / 6, 0.5).features))
    x = rng.standard_normal((4, 8))
    x[:, 5] = x[:, 2]
    systems.append(("duplicated column", x))
    x = rng.standard_normal((4, 8))
    x[:, 3] = 0.0
    systems.append(("zero column", x))
    x = rng.standard_normal((5, 9))
    x[4] = x[0] + x[1]  # a redundant row: the drive-out deactivates it
    systems.append(("rank-deficient", x))
    x = rng.standard_normal((4, 7))
    x[2, 3] = np.nan
    systems.append(("NaN entry", x))
    x = rng.standard_normal((4, 7))
    x[2, 3] = 1e200  # overflows some pairs' pivots into SIMPLEX_NUMERICAL
    systems.append(("huge entry", x))
    cases = [(label, x, _pair_targets(x)) for label, x in systems]
    x = rng.standard_normal((4, 6))
    x[3] = x[0]
    cases.append(("outside the span", x, rng.standard_normal((10, 4))))
    x = rng.standard_normal((5, 10))
    cases.append(("P=1", x, _pair_targets(x)[3:4]))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("label,x,targets", _batch_systems())
def test_batch_simplex_equals_scalar_simplex(monkeypatch, label, x, targets):
    """simplex_l1_batch takes the pivots of simplex_l1 and returns its bytes:
    status, w, l1 and the number of _pivot calls, LP by LP."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    targets = np.ascontiguousarray(targets)
    status, w, l1, pivots = kernels.simplex_l1_batch(x, targets, 1e-9)
    calls = []
    pivot = kernels._pivot
    monkeypatch.setattr(kernels, "_pivot",
                        lambda *args: calls.append(1) or pivot(*args))
    for p, target in enumerate(targets):
        calls.clear()
        s, ws, ls = kernels.simplex_l1(x, target, 1e-9)
        assert status[p] == s, p
        assert w[p].tobytes() == ws.tobytes(), p
        assert np.float64(l1[p]).tobytes() == np.float64(ls).tobytes(), p
        if not NUMBA_ENABLED:  # a jitted simplex_l1 does not call the wrapper
            assert pivots[p] == len(calls), p
    if label == "outside the span":
        assert (status == kernels.SIMPLEX_INFEASIBLE).all()
    elif label == "huge entry":
        assert (status == kernels.SIMPLEX_NUMERICAL).any()
    elif label == "NaN entry":
        # a NaN in X leaves every row residual NaN: no answer passes
        assert (status == kernels.SIMPLEX_NUMERICAL).all()
    else:
        assert (status == kernels.SIMPLEX_OK).all()
    assert not np.isnan(w).any()


def _mixed_systems(n):
    """K=10 feature matrices of N=n rows: two random unit instances, a
    rank-deficient X, a NaN entry and a 1e200 entry."""
    rng = np.random.default_rng(43)
    systems = [make_random_unit_instance(10, n, 0.25, seed=(43, s),
                                         sigma=0.5).features for s in (0, 1)]
    x = rng.standard_normal((n, 10))
    x[n - 1] = x[0] + x[1]
    systems.append(x)
    x = rng.standard_normal((n, 10))
    x[2, 3] = np.nan
    systems.append(x)
    x = rng.standard_normal((n, 10))
    x[2, 3] = 1e200
    systems.append(x)
    return systems


@pytest.mark.parametrize("n", [5, 10])
def test_batch_simplex_with_per_lp_matrices(monkeypatch, n):
    """One batch whose LPs bring their own X: each LP returns simplex_l1's
    status, bytes of w and l1 and pivot count for its X, and
    simplex_l1_many returns the same bytes in small chunks and on the
    one-LP-at-a-time branch the numba backend takes."""
    systems = _mixed_systems(n)
    xs = np.array([x for x in systems for _ in range(45)])
    targets = np.concatenate([_pair_targets(x) for x in systems])
    status, w, l1, pivots = kernels.simplex_l1_batch(xs, targets, 1e-9)
    calls = []
    pivot = kernels._pivot
    monkeypatch.setattr(kernels, "_pivot",
                        lambda *args: calls.append(1) or pivot(*args))
    for p, (x, target) in enumerate(zip(xs, targets)):
        calls.clear()
        s, ws, ls = kernels.simplex_l1(x, target, 1e-9)
        assert status[p] == s, p
        assert w[p].tobytes() == ws.tobytes(), p
        assert np.float64(l1[p]).tobytes() == np.float64(ls).tobytes(), p
        if not NUMBA_ENABLED:  # a jitted simplex_l1 does not call the wrapper
            assert pivots[p] == len(calls), p
    # 45 pairs per system: the first three solve, the NaN entry fails the
    # residual check on every LP and the 1e200 entry fails some LPs
    assert (status[:135] == kernels.SIMPLEX_OK).all()
    assert (status[135:180] == kernels.SIMPLEX_NUMERICAL).all()
    assert (status[180:] == kernels.SIMPLEX_NUMERICAL).any()
    assert not np.isnan(w).any()
    monkeypatch.setattr(kernels, "_BATCH_TABLEAU_BYTES", 20000)
    chunked = kernels.simplex_l1_many(xs, targets, 1e-9)
    monkeypatch.setattr(kernels, "NUMBA_ENABLED", True)
    looped = kernels.simplex_l1_many(xs, targets, 1e-9)
    for whole, a, b in zip((status, w, l1), chunked, looped):
        assert whole.tobytes() == a.tobytes() == b.tobytes()


def _pair_lp_systems():
    """Feature matrices for the crash start: random unit instances, and
    matrices where some pairs' crash pivot entry vanishes or misbehaves."""
    rng = np.random.default_rng(45)
    systems = [(f"random K={k} N={n}", make_random_unit_instance(
        k, n, 0.25, seed=(45, k * n), sigma=0.5).features)
        for k, n in [(10, 5), (20, 10), (50, 10)]]
    systems.append(("N=1", rng.standard_normal((1, 6))))
    x = rng.standard_normal((4, 8))
    x[:, 5] = x[:, 2]
    x[:, 6] = -2.0 * x[:, 1]
    systems.append(("duplicated and parallel columns", x))
    x = rng.standard_normal((4, 8))
    x[:, 3] = 0.0
    systems.append(("zero column", x))
    x = rng.standard_normal((5, 9))
    x[4] = x[0] + x[1]
    systems.append(("rank-deficient", x))
    x = rng.standard_normal((4, 7))
    x[2, 3] = np.nan
    systems.append(("NaN entry", x))
    x = rng.standard_normal((4, 7))
    x[2, 3] = 1e200
    systems.append(("huge entry", x))
    return [pytest.param(label, x, id=label) for label, x in systems]


@pytest.mark.parametrize("label,x", _pair_lp_systems())
def test_pair_lps_batch_equals_scalar(monkeypatch, label, x):
    """Pair LPs start at w = e_i - e_j in simplex_l1 and in
    simplex_l1_batch alike: status, bytes of w and l1 and pivot count agree
    LP by LP, phase 1 runs exactly where the crash pivot entry is at most
    tol or i == j, and simplex_l1_many returns the same bytes in small
    chunks and on the one-LP-at-a-time branch the numba backend takes."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    k = x.shape[1]
    pairs = np.array(list(itertools.combinations(range(k), 2))
                     + [(a, a) for a in range(0, k, 3)]).T
    if k == 50:  # the scalar solver runs un-jitted: check a sample of pairs
        pairs = pairs[:, ::9]
    targets = np.ascontiguousarray((x[:, pairs[0]] - x[:, pairs[1]]).T)
    with np.errstate(all="ignore"):
        status, w, l1, pivots = kernels.simplex_l1_batch(x, targets, 1e-9,
                                                         pairs)
    calls, phases = [], []
    pivot, iterate = kernels._pivot, kernels._simplex_iterate
    monkeypatch.setattr(kernels, "_pivot",
                        lambda *args: calls.append(1) or pivot(*args))
    monkeypatch.setattr(kernels, "_simplex_iterate",
                        lambda *args: phases.append(1) or iterate(*args))
    phase1 = []
    for p, (i, j) in enumerate(pairs.T):
        calls.clear()
        phases.clear()
        with np.errstate(all="ignore"):
            s, ws, ls = kernels.simplex_l1(x, targets[p], 1e-9, i, j)
        assert status[p] == s, p
        assert w[p].tobytes() == ws.tobytes(), p
        assert np.float64(l1[p]).tobytes() == np.float64(ls).tobytes(), p
        if not NUMBA_ENABLED:  # a jitted simplex_l1 does not call the wrappers
            assert pivots[p] == len(calls), p
            phase1.append(len(phases) == 2)  # phase 2 follows phase 1
    if label == "NaN entry":
        assert (status == kernels.SIMPLEX_NUMERICAL).all()
    else:
        assert (status == kernels.SIMPLEX_OK).all()
    assert not np.isnan(w).any()
    if not NUMBA_ENABLED:
        # x_5 = x_2 and x_6 = -2 x_1: the crash pivot on v_j vanishes for
        # those pairs; a zero column's v_j has no entry at all; at N = 1
        # one row cannot hold both u_i and v_j
        expect = {"N=1": pairs[0] >= 0,
                  "duplicated and parallel columns": np.array(
                      [(i, j) in ((2, 5), (1, 6)) for i, j in pairs.T]),
                  "zero column": (pairs == 3).any(axis=0)}.get(label,
                                                              pairs[0] < 0)
        assert (np.array(phase1) == (expect | (pairs[0] == pairs[1]))).all()
    monkeypatch.setattr(kernels, "_BATCH_TABLEAU_BYTES", 2000)
    with np.errstate(all="ignore"):
        chunked = kernels.simplex_l1_many(x, targets, 1e-9, pairs)
        monkeypatch.setattr(kernels, "NUMBA_ENABLED", True)
        looped = kernels.simplex_l1_many(x, targets, 1e-9, pairs)
    for whole, a, b in zip((status, w, l1), chunked, looped):
        assert whole.tobytes() == a.tobytes() == b.tobytes()


def test_ok_answers_are_feasible_on_a_badly_scaled_system():
    """x[2, 3] = 1e200 makes the pivots round, and an optimal basis can
    hold a w that misses X w = y on the well-scaled rows 0, 1 and 3, where
    e_i - e_j meets them exactly.  The residual check turns such answers
    into SIMPLEX_NUMERICAL in the scalar and batch solvers alike, started
    cold or at e_i - e_j: every OK answer is feasible on those rows."""
    pairs = np.array(list(itertools.permutations(range(7), 2))).T
    solved = {"cold": 0, "pair": 0}
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal((4, 7))
        x[2, 3] = 1e200
        targets = np.ascontiguousarray((x[:, pairs[0]] - x[:, pairs[1]]).T)
        for form, given in (("cold", None), ("pair", pairs)):
            with np.errstate(all="ignore"):
                status, w, l1, _ = kernels.simplex_l1_batch(x, targets, 1e-9,
                                                            given)
            for p, (i, j) in enumerate(pairs.T):
                ij = (i, j) if form == "pair" else (-1, -1)
                with np.errstate(all="ignore"):
                    s, ws, ls = kernels.simplex_l1(x, targets[p], 1e-9, *ij)
                assert status[p] == s and w[p].tobytes() == ws.tobytes()
                if s == kernels.SIMPLEX_OK:
                    miss = (x @ ws - targets[p])[[0, 1, 3]]
                    assert np.abs(miss).max() <= 1e-6, (seed, form, i, j)
                    solved[form] += 1
    # the check refuses only the answers that miss: most LPs still solve
    assert solved["cold"] > 600 and solved["pair"] > 800


def test_pair_lps_match_basis_enumeration():
    """Started at w = e_i - e_j or, where the crash pivot vanishes, by
    phase 1, every pair LP reaches the brute-force optimum: random small
    systems with a duplicated, a parallel or a zero column, or N = 1."""
    rng = np.random.default_rng(23)
    checked = 0
    for rep in range(60):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(max(3, n + 1), 7))  # full row rank, for the oracle
        x = rng.standard_normal((n, k))
        kind = rep % 4
        if kind == 1:
            x[:, 2] = x[:, 0]
        elif kind == 2:
            x[:, 2] = -3.0 * x[:, 1]
        elif kind == 3:
            x[:, 1] = 0.0
        pairs = np.array(list(itertools.combinations(range(k), 2))).T
        targets = np.ascontiguousarray((x[:, pairs[0]] - x[:, pairs[1]]).T)
        status, w, l1, _ = kernels.simplex_l1_batch(x, targets, 1e-9, pairs)
        for p, (i, j) in enumerate(pairs.T):
            oracle = enumerate_l1_optimum(x, targets[p])
            assert status[p] == kernels.SIMPLEX_OK
            assert l1[p] == pytest.approx(oracle, rel=1e-8, abs=1e-8)
            assert x @ w[p] == pytest.approx(targets[p], abs=1e-8)
            s, ws, ls = kernels.simplex_l1(x, targets[p], 1e-9, i, j)
            assert ws.tobytes() == w[p].tobytes()
            checked += 1
    assert checked > 500


def test_arbitrary_targets_keep_their_pivots():
    """A target given without its pair takes phase 1 from the
    all-artificial basis, with the pivot counts it had before pair LPs
    started at e_i - e_j; with its pair, the same LP pivots less."""
    x = make_random_unit_instance(10, 5, 0.25, seed=(40, 50), sigma=0.5).features
    pairs = np.array(list(itertools.combinations(range(10), 2))).T
    targets = np.ascontiguousarray((x[:, pairs[0]] - x[:, pairs[1]]).T)
    cold = kernels.simplex_l1_batch(x, targets, 1e-9)[3]
    assert cold.tolist() == [
        11, 10, 9, 16, 23, 15, 13, 14, 30, 11, 14, 16, 18, 21, 20, 18, 26, 10,
        9, 17, 21, 17, 19, 29, 16, 19, 23, 8, 11, 25, 21, 25, 10, 12, 29, 15,
        17, 14, 26, 13, 21, 19, 19, 26, 26]
    assert (kernels.simplex_l1_batch(x, targets, 1e-9, np.full((2, 45), -1))[3]
            == cold).all()
    warm = kernels.simplex_l1_batch(x, targets, 1e-9, pairs)[3]
    assert warm.sum() < cold.sum()
    rng = np.random.default_rng(44)
    status, _, _, pivots = kernels.simplex_l1_batch(
        x, rng.standard_normal((10, 5)), 1e-9)
    assert pivots.tolist() == [13, 12, 8, 23, 16, 11, 25, 14, 14, 9]
    assert (status == kernels.SIMPLEX_OK).all()


def test_all_pair_designs_chunks_give_the_same_bytes(monkeypatch):
    """The tableau budget only splits the pairs into batches: one LP per
    batch returns the bytes of one batch for all 45 pairs."""
    x = make_random_unit_instance(10, 5, 0.25, seed=(42, 0), sigma=0.5).features
    whole = kernels.all_pair_designs(x, 1e-9)
    monkeypatch.setattr(kernels, "_BATCH_TABLEAU_BYTES", 1)
    for a, b in zip(whole, kernels.all_pair_designs(x, 1e-9)):
        assert a.tobytes() == b.tobytes()


def test_h_constant_raises_for_the_first_failing_pair():
    """With a huge feature some design LPs fail; h_constant names the first
    failing pair in (i, j) order, as the one-by-one solve did.  Here two of
    the 21 pair LPs fail."""
    rng = np.random.default_rng(55)
    x = rng.standard_normal((4, 7))
    x[2, 3] = 1e308
    with np.errstate(over="ignore"):  # the feature norm overflows
        inst = Instance(x, 0.5, mu=np.linspace(1.0, 0.0, 7))
    with np.errstate(all="ignore"):
        failing = [(i, j) for i, j in itertools.combinations(range(7), 2)
                   if kernels.simplex_l1(x, x[:, i] - x[:, j], 1e-9, i, j)[0]]
    assert len(failing) == 2
    first = failing[0]
    with np.errstate(all="ignore"), pytest.raises(
            InfeasibleDesign, match=re.escape(f"pair {first}")):
        h_constant(H_MLINGAPE_2, inst, 2)


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
    # pinned from the one-LP-at-a-time decision (lps_solved from the blocks)
    assert serial == FractionResult(13 / 24, 13, 0, 24, 239, 254)
    assert 0.0 <= serial.fraction <= 1.0
    assert serial.wins <= serial.reps - serial.skips
    with pytest.raises(ConfigError):
        complexity_fraction_experiment(6, 2, 0.3, reps=0, seed=3)


def test_fraction_lp_count_is_deterministic_and_bounded():
    serial = complexity_fraction_experiment(10, 5, 0.25, reps=24, seed=3)
    threaded = complexity_fraction_experiment(10, 5, 0.25, reps=24, seed=3,
                                              workers=4)
    assert serial == threaded
    assert serial == FractionResult(0.0, 0, 0, 24, 86, 124)
    assert 24 <= serial.lps <= serial.lps_solved <= 2 * serial.lps
    assert serial.lps_solved <= 24 * 45


def test_fraction_decision_is_exact_under_blocks(monkeypatch):
    """A rep reads its blocks of 1, 2, 4, ... LPs in pair order and stops at
    the first crossing or failing LP.  On this rep the bound crosses at
    LP 5, inside the third block (LPs 4 to 7)."""
    m = 4
    inst = make_random_unit_instance(10, 5, 0.25, seed=(0, 20), sigma=0.5)
    win = make_random_unit_instance(10, 5, 0.25, seed=(0, 13), sigma=0.5)
    assert _fraction_outcomes([inst, win], m) == [(0, 5, 7), (1, 45, 45)]
    first, second, _ = _pair_order(gap_profile(inst, m).gaps, 0.0,
                                   by_denominator=True)
    many = kernels.simplex_l1_many

    def fail_at(pos):
        """Make the solve of LP pos (1-based, in pair order) fail."""
        i, j = first[pos - 1], second[pos - 1]
        bad = inst.features[:, i] - inst.features[:, j]

        def solve(xmats, targets, tol, pairs):
            status, w, l1 = many(xmats, targets, tol, pairs)
            hit = (targets == bad).all(axis=1)
            status[hit] = kernels.SIMPLEX_NUMERICAL
            w[hit] = 0.0
            return status, w, l1

        monkeypatch.setattr(kernels, "simplex_l1_many", solve)

    fail_at(6)  # after the crossing, in the same block: still a loss
    assert _fraction_outcomes([inst, win], m) == [(0, 5, 7), (1, 45, 45)]
    fail_at(2)  # before the crossing: a skip that counts the failing LP
    assert _fraction_outcomes([inst, win], m) == [(-1, 2, 3), (1, 45, 45)]
    # a degenerate gap (the m-th and (m+1)-th means tie) is a skip, 0 LPs
    mu = np.sort(inst.mu)[::-1]
    mu[m] = mu[m - 1]
    degenerate = Instance(inst.features, 0.5, mu=mu)
    assert _fraction_outcomes([degenerate, win], m) == [(-1, 0, 0), (1, 45, 45)]


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
    insts = [make_random_unit_instance(K, N, 0.25, seed=(0, rep), sigma=0.5)
             for rep in range(reps)]
    for rep, (inst, (outcome, solved, _)) in enumerate(
            zip(insts, _fraction_outcomes(insts, m))):
        h2, hu = _full_comparison(inst, m)
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
        assert _fraction_outcomes([inst], m)[0][:2] == (int(h2 <= hu), 10)
    assert _fraction_outcomes([tie_below], m)[0][0] == 1
    assert _fraction_outcomes([tie_above], m)[0][0] == 0
    h2, hu = _full_comparison(cut_above, m)
    assert h2 > hu * (1.0 + _CUT_SLACK)  # so the bound crossed, at pair 10
