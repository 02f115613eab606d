"""The campaign benchmark's contract with the library.

campaignbench/worker.py imports a fixed set of topm modules, wraps their
public entry points for the traced run and times single library calls.  A
name it reads that the library drops makes every benchmark run fail at
import or at set-up, so it is checked here on the module namespace the
worker builds.  The benchmark's own files are only read, never changed.
"""

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
