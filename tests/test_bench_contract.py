"""The campaign benchmark's contract with the library.

campaignbench/worker.py imports a fixed set of topm modules, wraps their
public entry points for the traced run and times single library calls.  A
name it reads that the library drops makes every benchmark run fail at
import or at set-up, so it is checked here on the module namespace the
worker builds.  The benchmark's own files are only read, never changed.
"""

import dataclasses
import inspect
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "campaignbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from topm import (complexity, engine, estimator, harness, indices,
                      instances, kernels)
    import bench_trace
    import bench_workloads
    mods = SimpleNamespace(complexity=complexity, engine=engine,
                           estimator=estimator, harness=harness,
                           indices=indices, instances=instances,
                           kernels=kernels)
    return mods, bench_trace, bench_workloads


def test_trace_install_wraps_existing_entry_points(bench):
    mods, bench_trace, _ = bench
    before = {name: dict(vars(mod)) for name, mod in vars(mods).items()}
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer, mods)
    wrapped = sum(vars(mod)[attr] is not before[name][attr]
                  for name, mod in vars(mods).items() for attr in before[name])
    tracer.uninstall()
    assert wrapped > 0
    for name, mod in vars(mods).items():
        for attr, value in before[name].items():
            assert vars(mod)[attr] is value, f"{name}.{attr} not restored"


def test_micro_probes_run_on_the_library(bench, classic42):
    import topm
    mods, _, bench_workloads = bench
    assert topm.active_backend() in ("numba", "numpy")
    probes = bench_workloads.micro_probes(mods, classic42, calls=3)
    assert {"estimator.update_us", "indices.index_components_us",
            "kernels.sm_update_us", "kernels.round_quantities_us",
            "kernels.simplex_l1_us"} <= set(probes)
    for key, value in probes.items():
        assert math.isfinite(value), key


def test_workload_setup_and_keyword_calls(bench, tmp_path):
    """The gated workloads build their inputs on the library, and the
    keyword calls they make later in a run still bind, so that dropping an
    option the benchmark passes fails here rather than in every run."""
    mods, _, bench_workloads = bench
    for name in ("classic-campaign", "complexity-sweep"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        wl = bench_workloads.WORKLOADS[name](0, run_dir, mods)
        wl.setup()
        assert wl.problems == [], name
        if name == "classic-campaign":
            cfg = wl.cfgs[0]
            inspect.signature(mods.engine.run_trial).bind(
                cfg.algorithm, wl.instance, cfg.m, cfg.epsilon, cfg.delta,
                (cfg.seed, 0), cfg.max_rounds, engine="reference", trace=True,
                lam=cfg.lam, threshold_kind=cfg.threshold_kind)
            assert dataclasses.replace(cfg, workers=2).workers == 2
        else:
            inspect.signature(
                mods.complexity.complexity_fraction_experiment).bind(
                wl.K, wl.N, wl.D, wl.SLICE, wl.seed, workers=2)


def test_serial_campaign_calls_run_trial_once_per_trial(bench, tmp_path):
    """The benchmark times a campaign's trials by wrapping the module
    attribute harness.run_trial (TrialRecorder) and expects one call per
    trial, in trial order, at workers=1.  A serial path that batched or
    forked its trials would make every benchmark campaign fail as "ran 0 of
    N trials"; it fails here instead."""
    mods, _, bench_workloads = bench
    wl = bench_workloads.WORKLOADS["classic-campaign"](0, tmp_path, mods)
    wl.setup()
    recorder = bench_workloads.TrialRecorder(mods.harness)
    try:
        for cfg in wl.cfgs:
            assert cfg.workers == 1
            summary = mods.harness.run_campaign(cfg)
            log = recorder.take()
            assert summary.runs == cfg.runs
            assert [r.seed for _, r in log] == [(cfg.seed, i) for i in range(cfg.runs)]
    finally:
        recorder.close()
    assert mods.harness.run_trial is mods.engine.run_trial
