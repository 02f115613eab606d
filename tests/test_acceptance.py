"""Release acceptance gate.

Every shipped claim is verified here at its stated tolerance, one printed
PASS/FAIL line per check (run with -rA or -s to see them).  The fraction
experiment's first cell documents a known miss: the measured fraction sits
well below the target band; the band is asserted anyway so the gap stays
visible instead of silently passing.
"""

import itertools
import math

import numpy as np
import pytest

from test_complexity import enumerate_l1_optimum
from test_engine import random_state

from topm import kernels
from topm.complexity import (H_MLINGAPE_1, complexity_fraction_experiment,
                             h_constant, sample_complexity_bound,
                             solve_l1_design)
from topm.engine import (B_MAX_OVER_MTH, B_MAX_OVER_OUTSIDE, J_MIN_MAX_INDEX,
                         J_TOP_M_EMPIRICAL, SEL_GREEDY, SEL_LARGEST_VARIANCE,
                         SEL_OPTIMIZED, STOP_LUCB, STOP_UGAPE, compute_Jt,
                         compute_bt, compute_ct, preset, stopping_stat)
from topm.estimator import EstimatorState
from topm.harness import CampaignConfig, run_trials, summarize
from topm.indices import IndexConfig, ThresholdSpec, index_components
from topm.instances import (gap_profile, make_classic_instance,
                            make_table_instance)

DELTA = 0.05
SIGMA = 0.5
LAM = SIGMA / 20.0


def check(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def campaign(spec, instance, m=2, runs=500, seed=0, **kw):
    cfg = CampaignConfig(algorithm=spec, instance=instance, m=m, runs=runs,
                         seed=seed, delta=DELTA, workers=2, **kw)
    results = run_trials(cfg)
    return results, summarize(results, spec.name)


CAMPAIGN_SPECS = {
    "m-lingape-greedy": ("m-lingape", {}),
    "m-lingape-optimized": ("m-lingape", {"selection": SEL_OPTIMIZED}),
    "lingifa-largest-variance": ("lingifa", {}),
    "lingifa-greedy": ("lingifa", {"selection": SEL_GREEDY}),
    "lucb": ("lucb", {}),
    "ugape": ("ugape", {}),
}


@pytest.fixture(scope="module")
def campaigns(classic42):
    """Six 500-trial campaigns on classic(4, 2, pi/6): delta 0.05, epsilon 0,
    sigma 0.5, lambda sigma/20, heuristic widths, event monitoring on."""
    out = {}
    for label, (name, over) in CAMPAIGN_SPECS.items():
        spec = preset(name, label=label, **over)
        lam = LAM if spec.use_features else None
        out[label] = campaign(spec, classic42, lam=lam,
                              threshold_kind="heuristic")
    return out


@pytest.fixture(scope="module")
def theoretical_campaign(classic42):
    spec = preset("m-lingape", selection=SEL_LARGEST_VARIANCE)
    return campaign(spec, classic42, lam=LAM, threshold_kind="theoretical")


def test_criterion_1_instance_fidelity():
    g1 = gap_profile(make_classic_instance(4, 2, math.pi / 6), 2).gaps.min()
    g2 = gap_profile(make_classic_instance(3, 1, 0.1), 1).gaps.min()
    check("criterion-1 instance fidelity",
          abs(g1 - 0.1340) <= 1e-4 and abs(g2 - 0.004996) <= 1e-6,
          f"classic(4,2,pi/6) min gap {g1:.6f} (target 0.1340 +/- 1e-4), "
          f"classic(3,1,0.1) min gap {g2:.6f} (target 0.004996 +/- 1e-6)")


def test_criterion_2_error_control(campaigns):
    """All six algorithms keep the empirical error within the PAC budget."""
    lines = []
    ok = True
    for label, (_, summary) in campaigns.items():
        err = summary.error_frequency
        ok = ok and err <= 0.05
        grade = "reproduction" if err <= 0.01 else "pac-only"
        lines.append(f"{label}={err:.4f}[{grade}]")
    check("criterion-2 error control (<= 0.05, 500 trials each)",
          ok, ", ".join(lines))


def test_criterion_3_feature_advantage(campaigns):
    """Feature-driven algorithms need fewer samples than the canonical
    embeddings of the same gap-index loop."""
    med = {label: s.quantiles[50] for label, (_, s) in campaigns.items()}
    linear = ("m-lingape-greedy", "lingifa-largest-variance", "lingifa-greedy")
    classical = ("lucb", "ugape")
    ok = all(med[a] < med[b] for a in linear for b in classical)
    check("criterion-3 feature advantage (strict median ordering)", ok,
          ", ".join(f"{k}={v}" for k, v in med.items()))


def test_criterion_4_paired_index_dominance(classic42, campaigns):
    paired = campaigns["lingifa-largest-variance"][1].quantiles[50]
    spec = preset("lingifa", index_kind="individual", label="lingifa-individual")
    _, s = campaign(spec, classic42, lam=LAM, threshold_kind="heuristic")
    check("criterion-4 paired vs individual indices",
          paired <= s.quantiles[50],
          f"median tau paired={paired} <= individual={s.quantiles[50]}")


FRACTION_CELLS = [
    ("criterion-5a", 10, 5, lambda f: 0.241 <= f <= 0.341,
     "in [0.241, 0.341] (known miss: measured ~0.10; see README)", 8561),
    ("criterion-5b", 10, 10, lambda f: f <= 0.02, "<= 0.02", 6604),
    ("criterion-5c", 20, 10, lambda f: f <= 0.03, "<= 0.03", 13090),
]


@pytest.mark.parametrize("label,K,N,accept,band,lps", FRACTION_CELLS,
                         ids=[c[0] for c in FRACTION_CELLS])
def test_criterion_5_design_constant_fraction(label, K, N, accept, band, lps):
    """Fraction of random unit instances whose design-based constant beats
    the gap-based ugape constant, 1000 reps per cell.  The LP count of the
    early-exit decision is checked first, so the known miss of 5a cannot
    hide a change in it."""
    res = complexity_fraction_experiment(K, N, 0.25, 1000, seed=0, workers=4)
    check(f"{label} design LPs of the early-exit decision", res.lps == lps,
          f"lps={res.lps}, expected {lps}")
    check(f"{label} fraction (K={K}, N={N}, D=0.25)", accept(res.fraction),
          f"fraction={res.fraction:.4f}, target {band}, "
          f"wins={res.wins}, skips={res.skips}")


def test_criterion_6a_counting_and_stopping_dominance():
    """On any index matrix, each candidate arm's m-th largest incoming index
    is at most the largest index from outside the candidate set; hence the
    ugape statistic never exceeds the lucb statistic on the same state."""
    rng = np.random.default_rng(2026)
    counting_checks = 0
    dominance_checks = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 9))
        means, B = random_state(rng, k)
        order = np.argsort(-B, axis=0)
        cols = [np.sort(np.delete(B[:, j], j))[::-1] for j in range(k)]
        for m in range(1, k):
            for J in itertools.combinations(range(k), m):
                sJ = set(J)
                for j in J:
                    for i in order[:, j]:
                        if i not in sJ:
                            out_max = B[i, j]
                            break
                    assert cols[j][m - 1] <= out_max
                    counting_checks += 1
            Ju = compute_Jt(J_MIN_MAX_INDEX, means, B, m)
            bu = compute_bt(B_MAX_OVER_MTH, Ju, B, m=m)
            cu = compute_ct(Ju, bu, B)
            ugape = stopping_stat(STOP_UGAPE, Ju, bu, cu, B, m=m)
            Jl = compute_Jt(J_TOP_M_EMPIRICAL, means, B, m)
            bl = compute_bt(B_MAX_OVER_OUTSIDE, Jl, B)
            cl = compute_ct(Jl, bl, B)
            lucb = stopping_stat(STOP_LUCB, Jl, bl, cl, B)
            assert ugape <= lucb
            dominance_checks += 1
    check("criterion-6a counting + stopping dominance", True,
          f"{counting_checks} counting checks, {dominance_checks} dominance "
          f"checks, zero violations")


def test_criterion_6b_width_shrink_and_paired_bound():
    """Per-arm width never exceeds sigma ||x_a|| / sqrt(N_a ||x_a||^2 + lam),
    and paired widths never exceed the individual sums."""
    rng = np.random.default_rng(7)
    thr = ThresholdSpec(kind="heuristic", delta=DELTA)
    shrink_checks = 0
    pair_checks = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 8))
        lam = float(10.0 ** rng.uniform(-2.0, 0.0))
        x = rng.standard_normal((n, k))
        est = EstimatorState(x, sigma=SIGMA, lam=lam)
        pulls = rng.integers(0, 6, size=k)
        arms = np.repeat(np.arange(k), pulls)
        rng.shuffle(arms)
        for a in arms:
            est.update(int(a), float(rng.standard_normal()))
        for a in range(k):
            norm = float(np.linalg.norm(x[:, a]))
            bound = SIGMA * norm / math.sqrt(pulls[a] * norm**2 + lam)
            assert est.deviation(x[:, a]) <= bound * (1.0 + 1e-9) + 1e-12
            shrink_checks += 1
        t = max(1, int(pulls.sum()))
        _, wp, _ = index_components(est, IndexConfig("paired", thr), t)
        _, wi, _ = index_components(est, IndexConfig("individual", thr), t)
        assert np.all(wp <= wi + 1e-12)
        pair_checks += wp.size
    check("criterion-6b width shrink + paired <= individual", True,
          f"{shrink_checks} shrink checks, {pair_checks} pair checks, "
          f"zero violations")


def test_criterion_6c_sherman_morrison_agreement():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        lam = float(10.0 ** rng.uniform(-2.0, 1.0))
        minv = np.eye(n) / lam
        dense = lam * np.eye(n)
        for _ in range(int(rng.integers(10, 60))):
            v = rng.standard_normal(n)
            kernels.sm_update(minv, v)
            dense += np.outer(v, v)
        err = float(np.max(np.abs(minv - np.linalg.inv(dense))))
        worst = max(worst, err)
    check("criterion-6c incremental vs batch inverse", worst <= 1e-8,
          f"1000 sequences, worst entry error {worst:.2e} (tolerance 1e-8)")


def test_criterion_6d_l1_design_optimality():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(max(2, n), 6))
        x = rng.standard_normal((n, k))
        i, j = rng.choice(k, size=2, replace=False)
        got = solve_l1_design(x, int(i), int(j)).l1
        oracle = enumerate_l1_optimum(x, x[:, i] - x[:, j])
        rel = abs(got - oracle) / max(oracle, 1e-12)
        worst = max(worst, rel)
    check("criterion-6d minimum-L1 design vs basis enumeration",
          worst <= 1e-8,
          f"200 systems, worst relative error {worst:.2e} (tolerance 1e-8)")


def test_criterion_6e_conditional_correctness(campaigns):
    """Whenever the width event held for a whole run, the recommendation is
    the true top-m set: errors only ever ride on width violations."""
    held = 0
    wrong = 0
    for _, (results, _) in campaigns.items():
        for r in results:
            if r.event_E_held:
                held += 1
                wrong += 0 if r.correct else 1
    check("criterion-6e conditional correctness", held > 0 and wrong == 0,
          f"{held} event-holding trials across 3000, {wrong} incorrect")


def test_criterion_6f_conditional_sample_bound(classic42, theoretical_campaign):
    """With the theoretical threshold, every event-holding run stops within
    the fixed-point bound computed from the per-arm design constant."""
    results, summary = theoretical_campaign
    thr = ThresholdSpec(kind="theoretical", delta=DELTA, n_dim=classic42.N,
                        feature_bound=classic42.feature_bound,
                        param_bound=classic42.param_bound, lam=LAM, sigma=SIGMA)
    H = h_constant(H_MLINGAPE_1, classic42, 2).H
    T = sample_complexity_bound(H, thr, init_term=0)
    held_taus = [r.tau for r in results if r.event_E_held]
    ok = len(held_taus) > 0 and max(held_taus) <= T and T == 82258
    check("criterion-6f conditional sample bound",
          ok,
          f"{len(held_taus)}/500 event-holding runs, max tau "
          f"{max(held_taus) if held_taus else 'n/a'} <= bound {T}, "
          f"violations={summary.violation_count}")


def test_criterion_7_bounded_reward_law():
    """The empirical-table reward law under the same PAC budget: rewards in
    [0, 1] are sigma = 1/2 subgaussian, so the usual widths stay valid.
    Out of desk scale and exercised nowhere: the game-based saddle-point
    sampler comparison and the drug-repurposing data pipeline."""
    rows = [[1.0, 0.9, 0.8, 0.95], [0.8, 0.7, 0.75], [0.5, 0.4, 0.6, 0.45],
            [0.2, 0.1, 0.3], [0.05, 0.0, 0.1]]
    assert all(0.0 <= v <= 1.0 for row in rows for v in row)
    inst = make_table_instance(rows, sigma=SIGMA)
    results, s = campaign(preset("m-lingape"), inst, lam=LAM)
    held_wrong = sum(1 for r in results if r.event_E_held and not r.correct)
    check("criterion-7 bounded-reward table law",
          s.error_frequency <= 0.05 and held_wrong == 0,
          f"error={s.error_frequency:.4f} (<= 0.05) over 500 trials, "
          f"monitored={s.monitored_runs}, event-holding errors={held_wrong}; "
          f"excluded as out of scope: saddle-point sampler comparison, "
          f"drug-repurposing pipeline")
