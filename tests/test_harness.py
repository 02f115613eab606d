"""Campaign harness: worker-count determinism, forked workers, summary
math, trace replay, and file outputs."""

import dataclasses
import json
import os
import threading

import numpy as np
import pytest

from topm import harness
from topm.engine import RunResult, Trace, preset, run_trial
from topm.errors import ConfigError, DimensionMismatch
from topm.harness import (CSV_HEADER, CampaignConfig, emit_outputs,
                          format_seed, load_run_csv, nearest_rank_quantiles,
                          parse_seed, run_campaign, run_trials, summarize,
                          validate_trace)
from topm.instances import make_canonical_instance, save_instance


def fake_result(tau, correct=True, truncated=False, held=True, seed=0):
    return RunResult(tau=tau, recommendation=(0,), correct=correct,
                     truncated=truncated, event_E_held=held, stat=-1.0,
                     threshold_final=1.0, violation=None,
                     counts=np.array([tau]), seed=seed)


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------


def test_nearest_rank_quantiles_by_hand():
    q = nearest_rank_quantiles([40, 10, 30, 20])
    assert q == {5: 10, 25: 10, 50: 20, 75: 30, 95: 40}
    assert all(isinstance(v, int) for v in q.values())
    assert nearest_rank_quantiles([7]) == {5: 7, 25: 7, 50: 7, 75: 7, 95: 7}
    assert nearest_rank_quantiles(range(1, 101), levels=(50,)) == {50: 50}
    with pytest.raises(ConfigError):
        nearest_rank_quantiles([])
    with pytest.raises(ConfigError):
        nearest_rank_quantiles([1, 2], levels=(0,))
    with pytest.raises(ConfigError):
        nearest_rank_quantiles([1, 2], levels=(101,))


def test_summarize_counts_by_hand():
    results = [
        fake_result(10, correct=True, held=True),
        fake_result(30, correct=True, held=False),
        fake_result(20, correct=False, held=None),
        fake_result(50, correct=True, truncated=True, held=True),
        fake_result(40, correct=True, held=False),
    ]
    s = summarize(results, "demo")
    assert s.algorithm == "demo" and s.runs == 5
    assert s.error_frequency == pytest.approx(0.2)
    assert s.mean_tau == pytest.approx(30.0)
    assert s.quantiles == {5: 10, 25: 20, 50: 30, 75: 40, 95: 50}
    assert s.truncation_count == 1
    assert s.violation_count == 2  # None is unmonitored, not a violation
    assert s.monitored_runs == 4
    with pytest.raises(ConfigError):
        summarize([], "demo")


# ---------------------------------------------------------------------------
# campaign execution
# ---------------------------------------------------------------------------


def test_campaign_outputs_identical_across_worker_counts(classic42, tmp_path):
    def outputs(tag, workers, runs=16):
        cfg = CampaignConfig(
            algorithm=preset("m-lingape"), instance=classic42, m=2, runs=runs,
            seed=11, lam=0.025, workers=workers,
            out_csv=tmp_path / f"{tag}.csv",
            summary_json=tmp_path / f"{tag}.json",
            quantiles_csv=tmp_path / f"{tag}_q.csv",
        )
        return run_campaign(cfg), cfg

    def same_files(a, b):
        for suffix in (".csv", ".json", "_q.csv"):
            assert (tmp_path / f"{a}{suffix}").read_bytes() == \
                (tmp_path / f"{b}{suffix}").read_bytes(), (a, b, suffix)

    s1, c1 = outputs("w1", 1)
    for workers in (2, 3, 4):
        s, _ = outputs(f"w{workers}", workers)
        assert s == s1
        same_files("w1", f"w{workers}")
    # more workers than runs: 3 runs at 4 workers fork 2 children
    small1, _ = outputs("small1", 1, runs=3)
    small4, _ = outputs("small4", 4, runs=3)
    assert small1 == small4
    same_files("small1", "small4")

    rows = load_run_csv(c1.out_csv)
    assert [r.seed for r in rows] == [(11, i) for i in range(16)]
    assert s1.error_frequency == pytest.approx(
        sum(1 for r in rows if not r.correct) / 16
    )
    assert s1.quantiles == nearest_rank_quantiles([r.tau for r in rows])
    assert s1.monitored_runs == 16  # known means: monitor defaults on

    payload = json.loads((tmp_path / "w1.json").read_text())
    assert list(payload["quantiles"].keys()) == ["5", "25", "50", "75", "95"]
    assert payload["runs"] == 16
    qlines = (tmp_path / "w1_q.csv").read_text().splitlines()
    assert qlines[0] == "percent,tau" and len(qlines) == 6


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_results(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.tau, x.recommendation, x.correct, x.truncated, x.seed,
                x.event_E_held, x.violation) == \
            (y.tau, y.recommendation, y.correct, y.truncated, y.seed,
             y.event_E_held, y.violation)
        assert np.float64(x.stat).tobytes() == np.float64(y.stat).tobytes()
        assert np.float64(x.threshold_final).tobytes() == \
            np.float64(y.threshold_final).tobytes()
        assert x.counts.tobytes() == y.counts.tobytes()
        assert (x.trace is None) == (y.trace is None)
        if x.trace is not None:
            for f in dataclasses.fields(x.trace):
                u, v = getattr(x.trace, f.name), getattr(y.trace, f.name)
                assert u.dtype == v.dtype and u.shape == v.shape, f.name
                assert u.tobytes() == v.tobytes(), f.name


def test_traced_campaign_identical_across_worker_counts(classic42):
    cfg = CampaignConfig(algorithm=preset("lingifa"), instance=classic42, m=2,
                         runs=5, seed=3, lam=0.025, trace=True)
    serial = run_trials(cfg)
    assert all(r.trace is not None and len(r.trace) > 0 for r in serial)
    for workers in (2, 4):
        assert_same_results(serial, run_trials(dataclasses.replace(cfg, workers=workers)))
    assert_no_child_left()


def test_forked_trials_reraise_a_worker_error_and_reap_every_child(
        classic42, monkeypatch):
    cfg = CampaignConfig(algorithm=preset("lucb"), instance=classic42, m=2,
                         runs=6, seed=2, workers=2)
    run_trials(cfg)
    assert_no_child_left()

    plain = harness.run_trial

    def refuse(trial_ids):
        def wrapped(*args, **kwargs):
            i = args[5][1]  # the seed (master, i)
            if i in trial_ids:
                raise ConfigError(f"trial {i} refused")
            return plain(*args, **kwargs)
        return wrapped

    # odd trials are share 1, run by the forked child
    monkeypatch.setattr(harness, "run_trial", refuse({1, 3, 5}))
    with pytest.raises(ConfigError, match="trial 1 refused"):
        run_trials(cfg)
    assert_no_child_left()
    # the caller's own share raises: the child is killed, then reaped
    monkeypatch.setattr(harness, "run_trial", refuse({0}))
    with pytest.raises(ConfigError, match="trial 0 refused"):
        run_trials(cfg)
    assert_no_child_left()


def test_trials_run_serially_without_fork_or_beside_threads(classic42, monkeypatch):
    cfg = CampaignConfig(algorithm=preset("m-lingape"), instance=classic42,
                         m=2, runs=4, seed=9, lam=0.025, workers=2)
    forked = run_trials(cfg)
    calls = []
    plain = harness.run_trial

    def counted(*args, **kwargs):
        calls.append(args[5])
        return plain(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", counted)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        beside_thread = run_trials(cfg)
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert calls == [(9, i) for i in range(4)]  # all in this process, in order
    assert_same_results(forked, beside_thread)

    calls.clear()
    monkeypatch.delattr(os, "fork")
    serial = run_trials(cfg)
    assert calls == [(9, i) for i in range(4)]
    assert_same_results(forked, serial)


def test_campaign_sigma_override_and_monitor_off(canonical2):
    cfg = CampaignConfig(algorithm=preset("lucb"), instance=canonical2, m=1,
                        runs=3, seed=5, sigma=0.0, monitor=False,
                        threshold_kind="heuristic")
    results = run_trials(cfg)
    assert [r.tau for r in results] == [2, 2, 2]  # noiseless: stop at init
    s = summarize(results, "lucb")
    assert s.monitored_runs == 0 and s.violation_count == 0


def test_campaign_config_validation(classic42):
    good = dict(algorithm=preset("lucb"), instance=classic42, m=2)
    CampaignConfig(**good)
    with pytest.raises(ConfigError):
        CampaignConfig(**{**good, "algorithm": "lucb"})
    with pytest.raises(ConfigError):
        CampaignConfig(**{**good, "runs": 0})
    with pytest.raises(ConfigError):
        CampaignConfig(**{**good, "delta": 1.0})
    with pytest.raises(ConfigError):
        CampaignConfig(**{**good, "epsilon": -1.0})
    with pytest.raises(ConfigError):
        CampaignConfig(**{**good, "workers": 0})


def test_campaign_loads_instance_from_path(classic42, tmp_path):
    path = tmp_path / "inst.csv"
    save_instance(classic42, path)
    cfg = CampaignConfig(algorithm=preset("m-lingape"), instance=str(path),
                        m=2, runs=2, seed=1, lam=0.025)
    direct = CampaignConfig(algorithm=preset("m-lingape"), instance=classic42,
                           m=2, runs=2, seed=1, lam=0.025)
    a = [r.tau for r in run_trials(cfg)]
    b = [r.tau for r in run_trials(direct)]
    assert a == b


# ---------------------------------------------------------------------------
# trace replay
# ---------------------------------------------------------------------------


def make_trace(means_rows, widths, m=1):
    r, k = np.asarray(means_rows).shape
    return Trace(
        t=np.arange(1, r + 1, dtype=np.int64),
        J=np.zeros((r, m), dtype=np.int64),
        b=np.zeros(r, dtype=np.int64),
        c=np.ones(r, dtype=np.int64),
        a1=np.zeros(r, dtype=np.int64),
        a2=np.full(r, -1, dtype=np.int64),
        stat=np.zeros(r), threshold=np.zeros(r),
        means=np.asarray(means_rows, dtype=np.float64),
        widths=np.asarray(widths, dtype=np.float64),
    )


def test_validate_trace_flags_synthetic_violation():
    inst = make_canonical_instance([1.0, 0.5, 0.0], sigma=0.5)
    # zero widths and a wrong empirical ordering: B_01 = -0.9 < mu_0 - mu_1
    tr = make_trace([[0.0, 0.9, 0.0]], np.zeros((1, 3, 3)))
    rep = validate_trace(tr, inst, 1)
    assert not rep.held
    assert rep.first_violation == (1, 0, 1)
    assert rep.min_margin == pytest.approx(-1.4)
    assert rep.rounds_checked == 1

    wide = np.full((1, 3, 3), 2.0)
    for a in range(3):
        wide[0, a, a] = 0.0
    rep2 = validate_trace(make_trace([[0.0, 0.9, 0.0]], wide), inst, 1)
    assert rep2.held and rep2.first_violation is None
    assert rep2.min_margin == pytest.approx(0.6)  # pair (0, 1): 2 - 1.4


def test_validate_trace_agrees_with_in_run_monitor(classic42):
    """The replay and the in-run monitor must agree on held/violated and on
    the first violating triple, for every seed tried."""
    spec = preset("m-lingape")
    seen_violation = False
    for s in range(30):
        res = run_trial(spec, classic42, 2, 0.0, 0.05, seed=(s, 0),
                        lam=0.025, trace=True)
        rep = validate_trace(res.trace, classic42, 2)
        assert rep.held == res.event_E_held
        assert rep.first_violation == res.violation
        seen_violation = seen_violation or not rep.held
    assert seen_violation, "expected at least one heuristic-width violation"


def test_validate_trace_input_errors(classic42, canonical2):
    res = run_trial(preset("m-lingape"), classic42, 2, 0.0, 0.05, seed=0,
                    lam=0.025, trace=True)
    with pytest.raises(ConfigError):
        validate_trace(None, classic42, 2)
    with pytest.raises(ConfigError):  # J rows have size 2, not 3
        validate_trace(res.trace, classic42, 3)
    with pytest.raises(DimensionMismatch):
        validate_trace(res.trace, canonical2, 2)
    no_trace = run_trial(preset("m-lingape"), classic42, 2, 0.0, 0.05, seed=0,
                         lam=0.025)
    with pytest.raises(ConfigError):
        validate_trace(no_trace.trace, classic42, 2)


def test_validate_trace_rejects_malformed_candidate_set():
    inst = make_canonical_instance([1.0, 0.5, 0.0], sigma=0.5)
    tr = make_trace([[1.0, 0.5, 0.0]], np.zeros((1, 3, 3)), m=2)
    tr.J[0] = [1, 1]  # duplicate arm
    with pytest.raises(ConfigError):
        validate_trace(tr, inst, 2)
    tr.J[0] = [0, 5]  # out of range
    with pytest.raises(ConfigError):
        validate_trace(tr, inst, 2)


# ---------------------------------------------------------------------------
# file outputs
# ---------------------------------------------------------------------------


def test_seed_text_round_trip():
    assert format_seed((3, 7)) == "3:7" and parse_seed("3:7") == (3, 7)
    assert format_seed(5) == "5" and parse_seed("5") == 5


def test_emit_outputs_round_trip(tmp_path):
    results = [fake_result(12, seed=(9, 0)),
               fake_result(34, correct=False, seed=(9, 1))]
    s = summarize(results, "demo")
    paths = emit_outputs(s, results, out_csv=tmp_path / "r.csv",
                         summary_json=tmp_path / "s.json",
                         quantiles_csv=tmp_path / "q.csv")
    assert len(paths) == 3
    rows = load_run_csv(tmp_path / "r.csv")
    assert rows[0].seed == (9, 0) and rows[0].tau == 12 and rows[0].correct
    assert rows[1].seed == (9, 1) and not rows[1].correct
    assert rows[0].recommendation == (0,)
    assert json.loads((tmp_path / "s.json").read_text())["error_frequency"] == 0.5


def test_emit_outputs_edge_cases(tmp_path):
    assert emit_outputs(None, [], out_csv=tmp_path / "empty.csv") != []
    assert (tmp_path / "empty.csv").read_text() == CSV_HEADER + "\n"
    assert load_run_csv(tmp_path / "empty.csv") == []
    with pytest.raises(ConfigError):
        emit_outputs(None, [], quantiles_csv=tmp_path / "q.csv")
    assert emit_outputs(None, []) == []


def test_load_run_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ConfigError):
        load_run_csv(bad)
    bad.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ConfigError):
        load_run_csv(bad)
