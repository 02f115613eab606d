"""One workload in a fresh interpreter; started by run.py, not by hand.

Prints one JSON line: the setup time, and unless --setup-only the
operation counts, the checks' verdict and the metrics of the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from statistics import median
from pathlib import Path
from types import SimpleNamespace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import topm
    from topm import complexity, engine, estimator, harness, indices, instances, kernels
    import_s = time.perf_counter() - start
    mods = SimpleNamespace(complexity=complexity, engine=engine, estimator=estimator,
                           harness=harness, indices=indices, instances=instances,
                           kernels=kernels)

    import bench_trace
    from bench_stats import OpLedger, nearest_rank, tail_level
    from bench_workloads import WORKLOADS, TrialRecorder, micro_probes

    wl = WORKLOADS[args.workload](args.seed, Path(args.run_dir), mods)
    tracer = None
    if args.trace:
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer, mods)
    wl.setup()
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s, "backend": topm.active_backend()}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    if tracer:
        tracer.uninstall()

    ledger = OpLedger()
    wl.recorder = TrialRecorder(harness)
    if tracer:
        plain = wl.run_pass(ledger, args.seconds / 2)
        bench_trace.install(tracer, mods)
        stats = wl.run_pass(ledger, args.seconds / 2)
        wl.probe()
        tracer.uninstall()
    else:
        stats = wl.run_pass(ledger, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = wl.problems + wl.final_problems()
    wl.recorder.close()

    if tracer:
        metrics = bench_trace.layer_metrics(tracer.spans)
        metrics.update(micro_probes(mods, wl.instance))
        metrics["cli.import_s"] = import_s
        per_round = stats.main_s / stats.rounds
        plain_per_round = plain.main_s / plain.rounds
        metrics["bench.trace_overhead_pct"] = 100.0 * (per_round / plain_per_round - 1.0)
        if args.spans:
            tracer.write(args.spans)
    else:
        # each operation's mean over its repeats, so that a burst of host
        # speed moves every operation alike instead of flipping the median
        per_op = [sum(v) / len(v) for v in stats.unit_us.values()]
        p = tail_level(len(per_op))
        metrics = {
            "work_per_s": stats.work / stats.main_s,
            "unit_us_p50": median(per_op),
            "unit_us_tail": nearest_rank(per_op, p) if p else median(per_op),
            "peak_rss_mb": peak_rss_mb,
            "parallel_speedup": stats.slice_s[1] / stats.slice_s[2],
        }
        out["tail_percentile"] = p
    out.update(correct=not problems, attempted=ledger.attempted, failed=ledger.failed,
               metrics=metrics, rounds=stats.rounds, problems=problems,
               failures=dict(ledger.reasons))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
