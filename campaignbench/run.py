"""Campaign benchmark for topm: one workload per call, in fresh interpreters.

    python3 campaignbench/run.py --workload classic-campaign --seed 0 \
        --seconds 40 --trace 0

Runs from the root of a source checkout (the package is imported from
src/).  With --trace 0 it prints every end-to-end metric; with --trace 1 a
traced run prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See campaignbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classic-campaign", "wide-screen", "complexity-sweep")
SETUP_PROBES = 2          # setup-only interpreters besides the measured one
DEADLINE_S = 170.0        # whole run, set-up probes included

UNITS = {
    "setup_s": "s", "work_per_s": "1/s", "unit_us_p50": "us", "unit_us_tail": "us",
    "peak_rss_mb": "MB", "parallel_speedup": "x",
    "cli.import_s": "s", "instances.make_ms": "ms", "instances.save_load_ms": "ms",
    "engine.pair_designs_s": "s", "engine.trial_self_ms": "ms",
    "engine.chunk_calls_per_trial": "count", "kernels.trial_chunk_us_per_round": "us",
    "kernels.round_quantities_us": "us", "kernels.sm_update_us": "us",
    "kernels.round_flops": "flop", "kernels.round_bytes": "bytes",
    "kernels.simplex_l1_us": "us", "complexity.h_mlingape2_ms": "ms",
    "complexity.h_ugape_ms": "ms", "complexity.bound_us": "us",
    "complexity.skips": "count", "complexity.reps": "count",
    "harness.overhead_ms_per_trial": "ms", "harness.emit_outputs_ms": "ms",
    "estimator.update_us": "us", "indices.index_components_us": "us",
    "bench.trace_overhead_pct": "%",
}


def spawn(args, run_dir: Path, extra, deadline: float) -> dict:
    """One worker interpreter; returns the JSON object it printed last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir),
           "--spawned", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "topm" / "__init__.py").is_file():
        print(f"campaignbench: no topm source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = ROOT / ".campaignbench_runs"
    run_dir = runs / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, run_dir, ["--setup-only"], deadline)["setup_s"])
        spans = runs / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out = spawn(args, run_dir, ["--spans", str(spans)] if args.trace else [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"campaignbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = dict(out["metrics"])
    if not args.trace:
        setups.append(out["setup_s"])
        setups.sort()
        metrics["setup_s"] = setups[len(setups) // 2]
    print(f"workload {args.workload}  seed {args.seed}  backend {out['backend']}  "
          f"rounds {out['rounds']}")
    if out.get("tail_percentile"):
        print(f"unit_us_tail is the nearest-rank p{out['tail_percentile']}")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:14.6g} {UNITS[name]}")
    print(f"attempted {out['attempted']}  failed {out['failed']}  "
          f"correct {out['correct']}")
    for problem in out["problems"]:
        print(f"  check failed: {problem}")
    for reason, count in sorted(out["failures"].items()):
        print(f"  failed op x{count}: {reason}")
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
