"""Command-line interface.

Subcommands: gen-instance (write an instance file), run (Monte-Carlo
campaign), complexity (constants for an instance), bound (fixed-point
sample-size bound), table3 (random-instance constant comparison).

Exit codes: 0 success, 1 usage error, 2 runtime or infeasibility error.
"""

from __future__ import annotations

import argparse
import sys

from .complexity import (H_KINDS, complexity_fraction_experiment, h_constant,
                         sample_complexity_bound)
from .engine import (B_MAX_OVER_MTH, B_MAX_OVER_OUTSIDE, J_MIN_MAX_INDEX,
                     J_TOP_M_EMPIRICAL, PRESET_NAMES, SEL_BOTH_ARMS,
                     SEL_GREEDY, SEL_LARGEST_VARIANCE, SEL_OPTIMIZED,
                     STOP_LUCB, STOP_UGAPE, preset)
from .errors import TopmError
from .harness import CampaignConfig, run_campaign
from .indices import CLASSICAL, HEURISTIC, INDIVIDUAL, PAIRED, THEORETICAL, ThresholdSpec
from .instances import (load_instance, make_canonical_instance,
                        make_classic_instance, make_random_unit_instance,
                        save_instance)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

_THRESHOLD_CHOICES = (HEURISTIC, THEORETICAL, CLASSICAL)


class _UsageError(Exception):
    """Bad flag combination detected after argparse."""


def _require(args, pairs, context):
    missing = [flag for attr, flag in pairs if getattr(args, attr) is None]
    if missing:
        raise _UsageError(f"{context} requires {', '.join(missing)}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="topm",
        description="Fixed-confidence top-m identification in linear bandits.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-instance", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=("classic", "random", "canonical"))
    g.add_argument("--K", type=int, help="number of arms (classic, random)")
    g.add_argument("--m", type=int, help="answer size shaping the classic geometry")
    g.add_argument("--omega", type=float, help="classic instance angle in (0, pi/2)")
    g.add_argument("--N", type=int, help="feature dimension (random)")
    g.add_argument("--D", type=float, help="feature entry variance (random)")
    g.add_argument("--mu", type=float, nargs="+", help="mean vector (canonical)")
    g.add_argument("--sigma", type=float, default=0.5, help="noise scale (default 0.5)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True, help="output CSV path")

    r = sub.add_parser("run", help="run a Monte-Carlo campaign")
    r.add_argument("--instance", required=True, help="instance CSV path")
    r.add_argument("--algo", required=True, choices=PRESET_NAMES)
    r.add_argument("--jrule", choices=(J_TOP_M_EMPIRICAL, J_MIN_MAX_INDEX),
                   help="override the candidate-set rule")
    r.add_argument("--brule", choices=(B_MAX_OVER_OUTSIDE, B_MAX_OVER_MTH),
                   help="override the anchor rule")
    r.add_argument("--selection",
                   choices=(SEL_LARGEST_VARIANCE, SEL_GREEDY, SEL_OPTIMIZED, SEL_BOTH_ARMS),
                   help="override the sampling rule")
    r.add_argument("--stopping", choices=(STOP_LUCB, STOP_UGAPE),
                   help="override the stopping statistic")
    r.add_argument("--index", choices=(PAIRED, INDIVIDUAL),
                   help="override the confidence-width form")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--epsilon", type=float, default=0.0)
    r.add_argument("--delta", type=float, default=0.05)
    r.add_argument("--runs", type=int, default=500)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", help="per-run CSV path")
    r.add_argument("--summary", help="summary JSON path")
    r.add_argument("--quantiles", help="quantile table CSV path")
    r.add_argument("--max-rounds", type=int, default=10_000_000)
    r.add_argument("--threshold", choices=_THRESHOLD_CHOICES,
                   help="exploration-rate kind (presets pick their own default)")
    r.add_argument("--lambda", dest="lam", type=float,
                   help="ridge regularization (default sigma/20 for feature presets)")
    r.add_argument("--sigma", type=float, help="override the instance noise scale")
    r.add_argument("--workers", type=int, default=1,
                   help="processes running the trials: this one plus "
                        "workers - 1 forked children, trial i in share "
                        "i mod workers; outputs are the same at any count")

    c = sub.add_parser("complexity", help="complexity constants for an instance")
    c.add_argument("--instance", required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--epsilon", type=float, default=0.0)
    c.add_argument("--sigma", type=float, help="scale for the sigma-bearing constants "
                                               "(default: instance sigma)")
    c.add_argument("--kind", default="all", choices=H_KINDS + ("all",))

    b = sub.add_parser("bound", help="fixed-point sample-size bound for a constant")
    b.add_argument("--H", type=float, required=True)
    b.add_argument("--threshold", required=True, choices=_THRESHOLD_CHOICES)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--init-K", dest="init_k", type=int, default=0,
                   help="initialization samples added to the bound")
    b.add_argument("--N", type=int, help="feature dimension (theoretical)")
    b.add_argument("--L", type=float, help="feature norm bound (theoretical)")
    b.add_argument("--S", type=float, help="parameter norm bound (theoretical)")
    b.add_argument("--lambda", dest="lam", type=float, help="ridge weight (theoretical)")
    b.add_argument("--sigma", type=float, help="noise scale (theoretical, classical)")
    b.add_argument("--K", type=int, help="arm count (classical)")

    t = sub.add_parser("table3", help="fraction of random instances where the "
                                      "design-based constant beats the ugape constant")
    t.add_argument("--K", type=int, required=True)
    t.add_argument("--N", type=int, required=True)
    t.add_argument("--D", type=float, required=True)
    t.add_argument("--reps", type=int, required=True)
    t.add_argument("--seed", type=int, default=0)

    return top


def _cmd_gen_instance(args) -> int:
    if args.kind == "classic":
        _require(args, (("K", "--K"), ("m", "--m"), ("omega", "--omega")),
                 "gen-instance --kind classic")
        inst = make_classic_instance(args.K, args.m, args.omega, sigma=args.sigma)
    elif args.kind == "random":
        _require(args, (("K", "--K"), ("N", "--N"), ("D", "--D")),
                 "gen-instance --kind random")
        inst = make_random_unit_instance(args.K, args.N, args.D, args.seed,
                                         sigma=args.sigma)
    else:
        _require(args, (("mu", "--mu"),), "gen-instance --kind canonical")
        inst = make_canonical_instance(args.mu, sigma=args.sigma)
    path = save_instance(inst, args.out)
    print(f"wrote {inst!r} to {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    spec = preset(args.algo, selection=args.selection, j_rule=args.jrule,
                  b_rule=args.brule, stopping=args.stopping,
                  index_kind=args.index)
    config = CampaignConfig(
        algorithm=spec, instance=args.instance, m=args.m, epsilon=args.epsilon,
        delta=args.delta, runs=args.runs, seed=args.seed, sigma=args.sigma,
        lam=args.lam, threshold_kind=args.threshold, max_rounds=args.max_rounds,
        workers=args.workers, out_csv=args.out,
        summary_json=args.summary, quantiles_csv=args.quantiles,
    )
    s = run_campaign(config)
    print(f"algorithm:        {s.algorithm}")
    print(f"runs:             {s.runs}")
    print(f"error frequency:  {s.error_frequency:.4f}")
    print(f"mean tau:         {s.mean_tau:.2f}")
    qtext = ", ".join(f"p{p}={v}" for p, v in sorted(s.quantiles.items()))
    print(f"tau quantiles:    {qtext}")
    print(f"truncated:        {s.truncation_count}")
    if s.monitored_runs:
        print(f"width violations: {s.violation_count} of {s.monitored_runs} monitored")
    return EXIT_OK


def _cmd_complexity(args) -> int:
    inst = load_instance(args.instance)
    kinds = H_KINDS if args.kind == "all" else (args.kind,)
    for kind in kinds:
        report = h_constant(kind, inst, args.m, args.epsilon, args.sigma)
        print(f"H[{kind}] = {report.H:.6g}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    if args.threshold == THEORETICAL:
        _require(args, (("N", "--N"), ("L", "--L"), ("S", "--S"),
                        ("lam", "--lambda"), ("sigma", "--sigma")),
                 "--threshold theoretical")
        thr = ThresholdSpec(kind=THEORETICAL, delta=args.delta, n_dim=args.N,
                            feature_bound=args.L, param_bound=args.S,
                            lam=args.lam, sigma=args.sigma)
    elif args.threshold == CLASSICAL:
        _require(args, (("K", "--K"), ("sigma", "--sigma")), "--threshold classical")
        thr = ThresholdSpec(kind=CLASSICAL, delta=args.delta, sigma=args.sigma,
                            k_arms=args.K)
    else:
        thr = ThresholdSpec(kind=HEURISTIC, delta=args.delta)
    print(sample_complexity_bound(args.H, thr, init_term=args.init_k))
    return EXIT_OK


def _cmd_table3(args) -> int:
    res = complexity_fraction_experiment(args.K, args.N, args.D, args.reps,
                                         args.seed)
    print(f"fraction = {res.fraction:.4f} ({res.wins} wins, "
          f"{res.skips} skips, {res.reps} reps, {res.lps} design LPs, "
          f"{res.lps_solved} solved)")
    return EXIT_OK


_HANDLERS = {
    "gen-instance": _cmd_gen_instance,
    "run": _cmd_run,
    "complexity": _cmd_complexity,
    "bound": _cmd_bound,
    "table3": _cmd_table3,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract reserves 2 for
        # runtime errors, so remap (help/version exit 0 passes through)
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TopmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
