"""The gap-index loop: rule operations against brute force, preset wiring,
and bit-identity between the compiled kernel and the reference loop."""

import itertools
import math

import numpy as np
import pytest

from topm import engine
from topm.engine import (B_MAX_OVER_MTH, B_MAX_OVER_OUTSIDE, J_MIN_MAX_INDEX,
                         J_TOP_M_EMPIRICAL, PRESET_NAMES, SEL_BOTH_ARMS,
                         SEL_GREEDY, SEL_LARGEST_VARIANCE, SEL_OPTIMIZED,
                         STOP_LUCB, STOP_UGAPE, AlgorithmSpec, compute_Jt,
                         compute_bt, compute_ct, pair_designs, preset,
                         run_trial, select_arm, stopping_stat)
from topm.errors import ConfigError, DimensionMismatch
from topm.estimator import EstimatorState
from topm.indices import IndexConfig, ThresholdSpec
from topm.instances import (make_canonical_instance, make_classic_instance,
                            make_table_instance)


def mth_largest(values, m):
    return sorted(values, reverse=True)[m - 1]


def random_state(rng, k):
    means = rng.standard_normal(k)
    w = np.abs(rng.standard_normal((k, k)))
    np.fill_diagonal(w, 0.0)
    w = (w + w.T) / 2.0
    b = means.reshape(-1, 1) - means.reshape(1, -1) + w
    return means, b


# ---------------------------------------------------------------------------
# rule operations vs brute force
# ---------------------------------------------------------------------------


def test_jt_top_m_empirical_matches_argsort():
    rng = np.random.default_rng(0)
    for _ in range(40):
        k = int(rng.integers(3, 9))
        means, b = random_state(rng, k)
        for m in range(1, k):
            J = compute_Jt(J_TOP_M_EMPIRICAL, means, b, m)
            expect = np.sort(np.argsort(-means, kind="stable")[:m])
            assert np.array_equal(J, expect)


def test_jt_min_max_index_matches_brute_force():
    """J = the m arms whose m-th largest incoming index is smallest."""
    rng = np.random.default_rng(1)
    for _ in range(40):
        k = int(rng.integers(3, 9))
        means, b = random_state(rng, k)
        for m in range(1, k):
            scores = [mth_largest(np.delete(b[:, j], j), m) for j in range(k)]
            expect = np.sort(np.argsort(scores, kind="stable")[:m])
            J = compute_Jt(J_MIN_MAX_INDEX, means, b, m)
            assert np.array_equal(J, expect)


def test_jt_tie_break_uses_perm():
    means = np.array([1.0, 1.0, 0.0])
    b = np.zeros((3, 3))
    assert compute_Jt(J_TOP_M_EMPIRICAL, means, b, 1, perm=[2, 0, 1])[0] == 1
    assert compute_Jt(J_TOP_M_EMPIRICAL, means, b, 1, perm=[0, 2, 1])[0] == 0


def test_bt_ct_and_stats_match_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(40):
        k = int(rng.integers(3, 9))
        means, b = random_state(rng, k)
        m = int(rng.integers(1, k))
        J = compute_Jt(J_TOP_M_EMPIRICAL, means, b, m)
        out = [i for i in range(k) if i not in set(J.tolist())]
        b_arm = compute_bt(B_MAX_OVER_OUTSIDE, J, b)
        expect_scores = {j: max(b[i, j] for i in out) for j in J}
        assert b_arm == max(J, key=lambda j: (expect_scores[j], -j))
        c_arm = compute_ct(J, b_arm, b)
        assert c_arm == max(out, key=lambda i: (b[i, b_arm], -i))
        assert stopping_stat(STOP_LUCB, J, b_arm, c_arm, b) == b[c_arm, b_arm]
        expect_ugape = max(
            mth_largest(np.delete(b[:, j], j), m) for j in J
        )
        assert stopping_stat(STOP_UGAPE, J, b_arm, c_arm, b, m=m) == pytest.approx(
            expect_ugape, abs=0.0
        )
        b_mth = compute_bt(B_MAX_OVER_MTH, J, b, m=m)
        mth_scores = {j: mth_largest(np.delete(b[:, j], j), m) for j in J}
        assert b_mth == max(J, key=lambda j: (mth_scores[j], -j))


def test_lucb_stat_equals_max_over_pairs():
    """For the top-m/max-over-outside rules, B[c,b] is the largest index
    from outside J into J, so the stopping statistic is that max."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(3, 9))
        means, b = random_state(rng, k)
        m = int(rng.integers(1, k))
        J = compute_Jt(J_TOP_M_EMPIRICAL, means, b, m)
        out = [i for i in range(k) if i not in set(J.tolist())]
        b_arm = compute_bt(B_MAX_OVER_OUTSIDE, J, b)
        c_arm = compute_ct(J, b_arm, b)
        assert b[c_arm, b_arm] == max(b[i, j] for j in J for i in out)


def test_rule_validation_errors():
    means = np.zeros(3)
    b = np.zeros((3, 3))
    with pytest.raises(ConfigError):
        compute_Jt("bogus", means, b, 1)
    with pytest.raises(ConfigError):
        compute_Jt(J_TOP_M_EMPIRICAL, means, b, 3)
    with pytest.raises(ConfigError):
        compute_bt(B_MAX_OVER_OUTSIDE, [0, 1, 2], b)
    with pytest.raises(ConfigError):
        compute_bt(B_MAX_OVER_MTH, [0], b)  # needs m
    with pytest.raises(ConfigError):
        stopping_stat(STOP_UGAPE, [0], 0, 1, b)  # needs m
    with pytest.raises(ConfigError):
        select_arm("bogus", 0, 1, EstimatorState(np.eye(3), sigma=0.5, lam=0.1))
    # m must lie in [1, K-1], where the m-th largest off-diagonal entry of a
    # column exists
    b5 = np.arange(9.0).reshape(3, 3)
    for m in (0, 3, 4):
        with pytest.raises(ConfigError):
            stopping_stat(STOP_UGAPE, [0], 0, 1, b5, m=m)
        with pytest.raises(ConfigError):
            compute_Jt(J_MIN_MAX_INDEX, means, b5, m)
        with pytest.raises(ConfigError):
            compute_bt(B_MAX_OVER_MTH, [0], b5, m=m)
    # anchor and challenger are arm ids in [0, K)
    est = EstimatorState(np.eye(3), sigma=0.5, lam=0.1)
    for b_arm, c_arm in ((0, -1), (-1, 0), (3, 1), (1, 3)):
        with pytest.raises(DimensionMismatch):
            select_arm(SEL_LARGEST_VARIANCE, b_arm, c_arm, est)
    # so are J's entries, b and c in the other rule functions, which would
    # otherwise wrap a negative id as a numpy index
    for bad in (-1, 3):
        with pytest.raises(DimensionMismatch):
            compute_ct([0], bad, b5)
        with pytest.raises(DimensionMismatch):
            compute_ct([bad], 1, b5)
        for rule in (B_MAX_OVER_OUTSIDE, B_MAX_OVER_MTH):
            with pytest.raises(DimensionMismatch):
                compute_bt(rule, [bad], b5, m=1)
        for rule in (STOP_LUCB, STOP_UGAPE):
            with pytest.raises(DimensionMismatch):
                stopping_stat(rule, [0], 0, bad, b5, m=1)
            with pytest.raises(DimensionMismatch):
                stopping_stat(rule, [0], bad, 1, b5, m=1)
            with pytest.raises(DimensionMismatch):
                stopping_stat(rule, [bad], 0, 1, b5, m=1)


def test_ugape_stat_skips_nan_scores_like_the_kernel():
    """Arm 0's incoming indices are NaN, so its m-th largest is NaN; the
    kernel's strict > scan from -inf never takes it, in any order of J."""
    nan = np.nan
    b = np.array([[0.0, 1.0, 2.0], [nan, 0.0, 3.0], [nan, 0.5, 0.0]])
    assert stopping_stat(STOP_UGAPE, [0, 1], 0, 2, b, m=1) == 1.0
    assert stopping_stat(STOP_UGAPE, [1, 0], 0, 2, b, m=1) == 1.0


def greedy_oracle(est, b_arm, c_arm):
    y = est.features[:, b_arm] - est.features[:, c_arm]
    vals = []
    for a in range(est.K):
        mat = est.amat + np.outer(est.features[:, a], est.features[:, a])
        vals.append(float(y @ np.linalg.inv(mat) @ y))
    return int(np.argmin(vals))


def test_select_arm_rules():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5))
    x /= np.linalg.norm(x, axis=0)
    est = EstimatorState(x, sigma=0.5, lam=0.1)
    for _ in range(30):
        est.update(int(rng.integers(5)), float(rng.standard_normal()))
    dinv = np.linalg.inv(est.amat)

    lv = select_arm(SEL_LARGEST_VARIANCE, 1, 3, est)
    q1 = float(x[:, 1] @ dinv @ x[:, 1])
    q3 = float(x[:, 3] @ dinv @ x[:, 3])
    assert lv == (1 if q1 > q3 else 3)

    assert select_arm(SEL_BOTH_ARMS, 1, 3, est) == (1, 3)
    assert select_arm(SEL_GREEDY, 1, 3, est) == greedy_oracle(est, 1, 3)

    wstar, wl1, wok = pair_designs(x)

    def solver(i, j):
        from topm.complexity import DesignWeights
        lo, hi = (i, j) if i < j else (j, i)
        return DesignWeights(pair=(lo, hi), weights=wstar[lo, hi],
                             l1=float(wl1[lo, hi]))

    a = select_arm(SEL_OPTIMIZED, 1, 3, est, design_solver=solver)
    w = wstar[1, 3]
    cand = [(est.counts[i] * wl1[1, 3] / abs(w[i]), i)
            for i in range(5) if w[i] != 0.0]
    assert a == min(cand)[1]

    with pytest.raises(ConfigError):
        select_arm(SEL_OPTIMIZED, 1, 3, est)  # no solver
    with pytest.raises(ConfigError):
        select_arm(SEL_GREEDY, 2, 2, est)


def memo_bytes():
    return sum(map(engine._memo_entry_bytes, engine._PAIR_DESIGN_MEMO.items()))


def test_pair_design_memo_stays_under_its_bound(monkeypatch):
    monkeypatch.setattr(engine, "_PAIR_DESIGN_MEMO", {})
    bound = 8 * 1024  # about three K=6 entries of 2.2 KB
    monkeypatch.setattr(engine, "_PAIR_DESIGN_MEMO_BYTES", bound)
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((3, 6)) for _ in range(40)]
    first = pair_designs(mats[0])
    kept = tuple(a.copy() for a in first)
    for i, x in enumerate(mats[1:], 1):
        pair_designs(x)
        pair_designs(mats[i - 1])  # a hit makes its matrix the most recent
        assert 1 < len(engine._PAIR_DESIGN_MEMO) <= 3
        assert memo_bytes() <= bound
    assert pair_designs(mats[-2]) is pair_designs(mats[-2])  # still held
    again = pair_designs(mats[0])  # evicted long ago: solved again
    assert again is not first
    for a, b in zip(again, kept):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    # an entry larger than the whole bound is still kept, alone
    monkeypatch.setattr(engine, "_PAIR_DESIGN_MEMO_BYTES", 1)
    newest = pair_designs(mats[5])
    assert len(engine._PAIR_DESIGN_MEMO) == 1
    assert next(iter(engine._PAIR_DESIGN_MEMO.values())) is newest
    assert pair_designs(mats[5]) is newest


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_wiring():
    lucb = preset("lucb")
    assert (lucb.j_rule, lucb.stopping) == (J_TOP_M_EMPIRICAL, STOP_LUCB)
    assert lucb.selection == SEL_LARGEST_VARIANCE
    assert not lucb.use_features and lucb.init_pass
    assert lucb.index.kind == "individual"
    assert lucb.index.threshold_kind == "classical"

    ugape = preset("ugape")
    assert (ugape.j_rule, ugape.stopping) == (J_MIN_MAX_INDEX, STOP_UGAPE)
    assert ugape.b_rule == B_MAX_OVER_OUTSIDE

    mlg = preset("m-lingape")
    assert mlg.selection == SEL_GREEDY
    assert mlg.use_features and not mlg.init_pass
    assert mlg.index.kind == "paired"
    assert mlg.index.threshold_kind == "heuristic"

    lgf = preset("lingifa")
    assert (lgf.j_rule, lgf.b_rule) == (J_MIN_MAX_INDEX, B_MAX_OVER_MTH)
    assert lgf.stopping == STOP_UGAPE
    assert lgf.selection == SEL_LARGEST_VARIANCE

    custom = preset("lingifa", selection=SEL_GREEDY, index_kind="individual",
                    label="lingifa-greedy-ind")
    assert custom.selection == SEL_GREEDY
    assert custom.index.kind == "individual"
    assert custom.name == "lingifa-greedy-ind"

    with pytest.raises(ConfigError):
        preset("nope")
    with pytest.raises(TypeError):
        preset("m-lingape", paper_literal_optimized=True)

    # every row in full: (J, b, selection, stopping, index kind, threshold
    # kind, use_features)
    rows = {
        "lucb": (J_TOP_M_EMPIRICAL, B_MAX_OVER_OUTSIDE, SEL_LARGEST_VARIANCE,
                 STOP_LUCB, "individual", "classical", False),
        "ugape": (J_MIN_MAX_INDEX, B_MAX_OVER_OUTSIDE, SEL_LARGEST_VARIANCE,
                  STOP_UGAPE, "individual", "classical", False),
        "lingape": (J_TOP_M_EMPIRICAL, B_MAX_OVER_OUTSIDE, SEL_GREEDY,
                    STOP_LUCB, "paired", "heuristic", True),
        "m-lingape": (J_TOP_M_EMPIRICAL, B_MAX_OVER_OUTSIDE, SEL_GREEDY,
                      STOP_LUCB, "paired", "heuristic", True),
        "lingifa": (J_MIN_MAX_INDEX, B_MAX_OVER_MTH, SEL_LARGEST_VARIANCE,
                    STOP_UGAPE, "paired", "heuristic", True),
    }
    assert tuple(rows) == PRESET_NAMES
    for name, row in rows.items():
        spec = preset(name)
        assert spec.name == name
        assert (spec.j_rule, spec.b_rule, spec.selection, spec.stopping,
                spec.index.kind, spec.index.threshold_kind,
                spec.use_features) == row
        assert spec.index.threshold is None
        # the init pass runs exactly where lambda = 0, the feature-blind case
        assert spec.init_pass == (not spec.use_features)
        # an override of None keeps the preset's value
        assert preset(name, selection=None, j_rule=None, b_rule=None,
                      stopping=None, index_kind=None, label=None) == spec

    # a bound threshold on an algorithm is refused: the engine binds it per
    # trial from the instance constants and delta
    with pytest.raises(ConfigError):
        AlgorithmSpec("bound", J_TOP_M_EMPIRICAL, B_MAX_OVER_OUTSIDE,
                      SEL_GREEDY, STOP_LUCB,
                      IndexConfig("paired", threshold=ThresholdSpec("heuristic", 0.05)))
    with pytest.raises(ConfigError):
        preset("lucb", selection="bogus")


# ---------------------------------------------------------------------------
# trials: exact small cases, validation, and kernel/reference identity
# ---------------------------------------------------------------------------


def test_noiseless_two_arm_trial_is_exact(canonical2):
    """sigma=0: widths vanish, means are exact, stop at the first check."""
    inst = canonical2.with_sigma(0.0)
    res = run_trial(preset("lucb"), inst, 1, 0.0, 0.05, seed=9,
                    threshold_kind="heuristic")
    assert res.tau == 2  # the initialization pass
    assert res.recommendation == (0,)
    assert res.correct and not res.truncated
    assert res.stat <= 0.0
    assert res.event_E_held is True


def test_trial_validations(classic42):
    spec = preset("m-lingape")
    with pytest.raises(ConfigError):
        run_trial(spec, classic42, 0, 0.0, 0.05, seed=0)
    with pytest.raises(ConfigError):
        run_trial(spec, classic42, 4, 0.0, 0.05, seed=0)
    with pytest.raises(ConfigError):
        run_trial(spec, classic42, 2, 0.0, 1.5, seed=0)
    with pytest.raises(ConfigError):
        run_trial(spec, classic42, 2, -0.1, 0.05, seed=0)
    with pytest.raises(ConfigError):
        run_trial(spec, classic42, 2, 0.0, 0.05, seed=0, max_rounds=2)
    with pytest.raises(ConfigError):
        run_trial(preset("lingape"), classic42, 2, 0.0, 0.05, seed=0)
    with pytest.raises(ConfigError):  # feature-blind preset rejects lambda
        run_trial(preset("lucb"), classic42, 2, 0.0, 0.05, seed=0, lam=0.1)
    with pytest.raises(ConfigError):  # theoretical threshold needs features
        run_trial(preset("lucb"), classic42, 2, 0.0, 0.05, seed=0,
                  threshold_kind="theoretical")
    flat = make_canonical_instance([1.0, 1.0], sigma=0.5)
    with pytest.raises(ConfigError):  # epsilon=0 needs a positive gap
        run_trial(preset("lucb"), flat, 1, 0.0, 0.05, seed=0)


def test_truncation_reports_current_guess(classic42):
    res = run_trial(preset("m-lingape"), classic42, 2, 0.0, 0.05, seed=3,
                    max_rounds=6, lam=0.025)
    assert res.truncated and res.tau == 6
    assert len(res.recommendation) == 2


def test_monitor_flag(classic42):
    spec = preset("m-lingape")
    on = run_trial(spec, classic42, 2, 0.0, 0.05, seed=1, lam=0.025)
    off = run_trial(spec, classic42, 2, 0.0, 0.05, seed=1, lam=0.025,
                    monitor=False)
    assert isinstance(on.event_E_held, bool)
    assert off.event_E_held is None and off.violation is None
    assert on.tau == off.tau and on.recommendation == off.recommendation


def test_same_seed_reproduces(classic42):
    spec = preset("lingifa")
    a = run_trial(spec, classic42, 2, 0.0, 0.05, seed=(5, 1), lam=0.025)
    b = run_trial(spec, classic42, 2, 0.0, 0.05, seed=(5, 1), lam=0.025)
    assert a.tau == b.tau and a.recommendation == b.recommendation
    assert np.array_equal(a.counts, b.counts)


ALGO_VARIANTS = [
    ("lucb", {}),
    ("ugape", {}),
    ("m-lingape", {}),
    ("m-lingape", {"selection": SEL_OPTIMIZED}),
    ("m-lingape", {"selection": SEL_LARGEST_VARIANCE}),
    ("m-lingape", {"selection": SEL_BOTH_ARMS}),
    ("m-lingape", {"selection": SEL_OPTIMIZED, "index_kind": "individual"}),
    ("lingifa", {}),
    ("lingifa", {"selection": SEL_GREEDY}),
    ("lingifa", {"index_kind": "individual"}),
]


TRACE_FIELDS = ("t", "J", "b", "c", "a1", "a2", "stat", "threshold", "means",
                "widths")


def assert_engines_agree(spec, inst, seed, **kw):
    """The compiled chunked kernel and the reference loop over the library
    rule functions agree bit for bit: tau, recommendation, counts,
    statistic, and every trace field.

    Every trial here stops well inside its cap, which keeps a trial that no
    longer stops from filling memory with its trace.
    """
    kw = dict(kw, trace=True, max_rounds=20_000)
    a = run_trial(spec, inst, 2, 0.0, 0.05, seed=seed, engine="kernel", **kw)
    b = run_trial(spec, inst, 2, 0.0, 0.05, seed=seed, engine="reference", **kw)
    label = spec.describe()
    assert not a.truncated, label
    assert a.tau == b.tau, label
    assert a.recommendation == b.recommendation, label
    assert a.truncated == b.truncated, label
    assert a.stat == b.stat and a.threshold_final == b.threshold_final, label
    assert a.violation == b.violation and a.event_E_held == b.event_E_held, label
    assert np.array_equal(a.counts, b.counts), label
    for field in TRACE_FIELDS:
        va, vb = getattr(a.trace, field), getattr(b.trace, field)
        assert va.tobytes() == vb.tobytes(), f"{label}: trace field {field} differs"
    return a


@pytest.mark.parametrize("name,over", ALGO_VARIANTS)
def test_kernel_matches_reference_loop(name, over):
    inst = make_classic_instance(5, 2, 0.9, sigma=0.5)
    spec = preset(name, **over)
    lam = 0.025 if spec.use_features else None
    for seed in (0, 1):
        assert_engines_agree(spec, inst, (seed, 7), lam=lam)


def test_kernel_matches_reference_on_every_rule_combination():
    """Every (J, b, selection, stop) rule with both width kinds."""
    inst = make_classic_instance(5, 2, 0.9, sigma=0.5)
    for j_rule, b_rule, selection, stopping, kind in itertools.product(
            (J_TOP_M_EMPIRICAL, J_MIN_MAX_INDEX),
            (B_MAX_OVER_OUTSIDE, B_MAX_OVER_MTH),
            (SEL_LARGEST_VARIANCE, SEL_GREEDY, SEL_OPTIMIZED, SEL_BOTH_ARMS),
            (STOP_LUCB, STOP_UGAPE), ("paired", "individual")):
        spec = preset("m-lingape", j_rule=j_rule, b_rule=b_rule,
                      selection=selection, stopping=stopping, index_kind=kind)
        assert_engines_agree(spec, inst, (0, 7), lam=0.025)


def test_kernel_matches_reference_past_a_dense_recompute(classic42):
    res = assert_engines_agree(preset("m-lingape"), classic42, (0, 7), lam=0.025,
                               recompute_every=37)
    assert res.tau > 2 * 37


def test_kernel_matches_reference_on_the_first_violation():
    """Pairs (0, 3) and (1, 2) are both violated in the first round that
    has a violation; both scans report the first one row by row."""
    inst = make_canonical_instance([0.5, 1.0, -0.2, -1.0], sigma=0.05)
    res = assert_engines_agree(preset("m-lingape"), inst, (0, 7), lam=0.025)
    assert res.violation == (0, 0, 3)


def test_kernel_matches_reference_on_table_law():
    """Table rewards; the feature-blind presets also draw their init pass
    through kernels.reward."""
    rows = [[0.9, 0.7, 0.8], [0.6, 0.5, 0.7], [0.35, 0.2], [0.1, 0.0, 0.2]]
    inst = make_table_instance(rows, sigma=0.5)
    for name in ("m-lingape", "lucb", "ugape"):
        assert_engines_agree(preset(name), inst, 11)


def test_trace_contents_are_consistent(classic42):
    """Logged stat equals the statistic recomputed from the logged matrix."""
    res = run_trial(preset("m-lingape"), classic42, 2, 0.0, 0.05, seed=2,
                    lam=0.025, trace=True)
    tr = res.trace
    assert len(tr) >= 1
    assert np.all(np.diff(tr.t) > 0)
    assert tr.t[-1] == res.tau
    for r in (0, len(tr) // 2, len(tr) - 1):
        B = tr.index_matrix(r)
        assert tr.stat[r] == pytest.approx(B[tr.c[r], tr.b[r]], abs=0.0)
        assert set(tr.J[r].tolist()).isdisjoint({tr.c[r]})
    assert tr.round_hash(0) == tr.round_hash(0)
    assert tr.round_hash(0) != tr.round_hash(len(tr) - 1)


def test_classical_preset_uses_classical_threshold(classic42):
    """lucb defaults to the classical exploration rate; overriding to the
    heuristic changes the threshold actually applied."""
    default = run_trial(preset("lucb"), classic42, 2, 0.0, 0.05, seed=0)
    heur = run_trial(preset("lucb"), classic42, 2, 0.0, 0.05, seed=0,
                     threshold_kind="heuristic")
    beta = math.log(5.0 * 4 * default.tau ** 4 / (4.0 * 0.05))
    assert default.threshold_final == pytest.approx(math.sqrt(beta / 2.0) / 0.5)
    expect_h = math.sqrt(2.0 * math.log((math.log(heur.tau) + 1.0) / 0.05))
    assert heur.threshold_final == pytest.approx(expect_h)
    assert default.tau > heur.tau  # classical rate is far more conservative
