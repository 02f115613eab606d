"""Tests of the benchmark's own metric and check code.

    PYTHONPATH=src python3 -m pytest -q campaignbench/test_bench.py

The checks must reject deliberately corrupted outputs; the tests that need
the program itself skip when it cannot be imported.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from bench_checks import (bound_problems, classic_means, design_problems,
                          error_frequency, fraction_problems, gaps, h_reference,
                          heuristic_rate, top_set, trial_problems)
from bench_stats import OpLedger, nearest_rank, tail_level
from bench_trace import Span, layer_metrics


def trial(rec=(0, 1), tau=10, counts=(3, 3, 2, 2), correct=True, truncated=False,
          held=True):
    return SimpleNamespace(recommendation=rec, tau=tau, counts=np.array(counts),
                           correct=correct, truncated=truncated, event_E_held=held)


def test_nearest_rank_matches_definition():
    vals = list(range(1, 101))
    assert nearest_rank(vals, 50) == 50
    assert nearest_rank(vals, 90) == 90
    assert nearest_rank(vals, 100) == 100
    assert nearest_rank([5.0, 1.0, 3.0], 50) == 3.0   # rank ceil(1.5) = 2
    assert nearest_rank([7], 99) == 7
    with pytest.raises(ValueError):
        nearest_rank([], 50)


@pytest.mark.parametrize("n,expect", [(10, None), (39, None), (40, 75), (99, 75),
                                      (100, 90), (199, 90), (200, 95), (1000, 99)])
def test_tail_level_leaves_ten_beyond(n, expect):
    p = tail_level(n)
    assert p == expect
    if p is not None:
        assert n - math.ceil(p / 100 * n) >= 10


def test_ledger_counts_failed_operations():
    ledger = OpLedger()
    ledger.record([])
    ledger.record(["truncated at max_rounds"])
    ledger.record_many(3, ["raised ValueError"])
    ledger.record_many(2, [])
    assert (ledger.attempted, ledger.failed) == (7, 4)
    assert ledger.reasons == {"truncated at max_rounds": 1, "raised ValueError": 3}


def test_classic_closed_form_top_set():
    mu = classic_means(4, 2, math.pi / 6)
    assert mu == [1.0, 1.0, math.cos(math.pi / 6), 0.0]
    assert top_set(mu, 2) == {0, 1}
    assert top_set(mu, 2, epsilon=0.2) == {0, 1, 2}


def test_trial_checks_pass_a_sound_result():
    assert trial_problems(trial(), 2, 4, top_set([1, 1, 0.8, 0], 2)) == []


@pytest.mark.parametrize("corrupt,needle", [
    (dict(rec=(0, 2)), "correct flag"),                   # wrong top set, flag says right
    (dict(rec=(1, 1)), "distinct"),
    (dict(rec=(0,)), "distinct"),
    (dict(rec=(0, 7)), "distinct"),
    (dict(counts=(3, 3, 2, 1)), "sum to tau"),
    (dict(truncated=True), "truncated"),
    (dict(rec=(0, 2), correct=False), "monitor held"),
])
def test_trial_checks_reject_corrupted_results(corrupt, needle):
    problems = trial_problems(trial(**corrupt), 2, 4, frozenset({0, 1}))
    assert any(needle in p for p in problems), problems


def test_error_frequency_counts_wrong_recommendations():
    results = [trial(rec=(0, 1)), trial(rec=(0, 2)), trial(rec=(1, 0)), trial(rec=(2, 3))]
    assert error_frequency(results, frozenset({0, 1})) == 0.5


def test_design_check_rejects_weights_off_by_1e_3():
    x = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    w = np.array([1.0, -1.0, 0.0])          # x_0 - x_1 exactly, L1 = 2
    assert design_problems(x, 0, 1, w, 2.0, 2.0) == []
    bad = w + np.array([1e-3, 0.0, 0.0])
    assert any("residual" in p for p in design_problems(x, 0, 1, bad, 2.001, 2.0))
    assert any("reported L1" in p for p in design_problems(x, 0, 1, w, 2.001, 2.0))
    assert any("linprog optimum" in p for p in design_problems(x, 0, 1, w, 2.0, 1.5))
    assert any("infeasible" in p for p in design_problems(x, 0, 1, w, 2.0, None))


def test_gap_formulas():
    mu = [0.9, 0.5, 0.4, 0.1]
    assert gaps(mu, 2) == pytest.approx([0.5, 0.1, 0.1, 0.4])
    expect = sum(2.0 / d ** 2 for d in (0.5, 0.1, 0.1, 0.4))
    assert h_reference("lucb", mu, 2, 0.0, 1.0) == pytest.approx(expect)
    assert h_reference("ugape", mu, 2, 0.0, 1.0) == pytest.approx(4 * expect)
    assert h_reference("m-lingape-1", mu, 2, 0.0, 0.5) == pytest.approx(4.5 * expect)


def test_bound_check_rejects_off_by_one():
    H = 50.0

    def rate(t):
        return heuristic_rate(t, 0.05)

    u = next(v for v in range(2, 10 ** 6) if v > 1 + H * rate(v) ** 2)
    assert bound_problems(u, H, rate) == []
    assert any("not the smallest" in p for p in bound_problems(u + 1, H, rate))
    assert any("does not satisfy" in p for p in bound_problems(u - 1, H, rate))


def test_fraction_check_rejects_inconsistent_tallies():
    ok = SimpleNamespace(fraction=0.25, wins=2, skips=2, reps=10)
    assert fraction_problems(ok) == []
    assert fraction_problems(SimpleNamespace(fraction=0.5, wins=6, skips=5, reps=10))
    assert fraction_problems(SimpleNamespace(fraction=0.3, wins=2, skips=2, reps=10))


def test_layer_metrics_self_time_and_overhead():
    spans = [
        Span(1, 0, "harness.run_campaign", 0.0, 1.0, {}),
        Span(2, 1, "harness.run_trials", 0.0, 0.9, {}),
        Span(3, 2, "engine.run_trial", 0.0, 0.4, {"tau": 100}),
        Span(4, 3, "kernels.trial_chunk", 0.1, 0.3, {}),
        Span(5, 3, "kernels.trial_chunk", 0.3, 0.35, {}),
        Span(6, 2, "engine.run_trial", 0.4, 0.8, {"tau": 300}),
        Span(7, 6, "kernels.trial_chunk", 0.4, 0.7, {}),
    ]
    m = layer_metrics(spans)
    assert m["engine.chunk_calls_per_trial"] == 1.5
    assert m["engine.trial_self_ms"] == pytest.approx(1e3 * (0.15 + 0.1) / 2)
    assert m["kernels.trial_chunk_us_per_round"] == pytest.approx(1e6 * 0.55 / 400)
    assert m["harness.overhead_ms_per_trial"] == pytest.approx(1e3 * 0.2 / 2)


def test_checks_accept_the_program_and_reject_its_corrupted_output():
    topm = pytest.importorskip("topm")
    inst = topm.make_classic_instance(4, 2, math.pi / 6, sigma=0.5)
    ok = top_set(classic_means(4, 2, math.pi / 6), 2)
    r = topm.run_trial(topm.preset("m-lingape"), inst, 2, 0.0, 0.05, (0, 0), lam=0.025)
    assert trial_problems(r, 2, 4, ok) == []
    wrong = SimpleNamespace(**{**r.__dict__, "recommendation": (0, 2)})
    assert trial_problems(wrong, 2, 4, ok)

    x = np.ascontiguousarray(inst.features)
    wstar, wl1, _ = topm.pair_designs(x)
    assert design_problems(x, 0, 2, wstar[0, 2], float(wl1[0, 2]),
                           float(wl1[0, 2])) == []
    assert design_problems(x, 0, 2, wstar[0, 2] + 1e-3, float(wl1[0, 2]),
                           float(wl1[0, 2]))
