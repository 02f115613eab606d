"""Monte-Carlo campaign execution: configuration, parallel trial dispatch,
summary statistics, trace validation, and file outputs.

Reproducibility contract: trial i of a campaign is seeded (master, i), so
the per-run results are a pure function of the configuration, independent
of the worker count.  With w = min(workers, runs) > 1 the trials are split
into w strided shares, share k holding trials k, k + w, k + 2w, ...; the
caller runs share 0 and each other share runs in its own forked process
(threads would hold the interpreter lock).  Results come back in trial
order and the per-run CSV is written in that order, which makes campaign
outputs byte-identical across parallelism degrees.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engine import SEL_OPTIMIZED, AlgorithmSpec, RunResult, Trace, pair_designs, run_trial
from .errors import ConfigError, DimensionMismatch
from .instances import Instance, load_instance

QUANTILE_LEVELS = (5, 25, 50, 75, 95)
CSV_HEADER = "run_seed,tau,correct,truncated,recommended"


@dataclass
class CampaignConfig:
    """Everything one campaign needs; validated at construction.

    instance may be an Instance or a path to one.  sigma, when given,
    overrides the instance noise scale; lam and threshold_kind are passed
    through to every trial.  workers counts the caller plus the forked
    processes that run the trials; see run_trials.  Output paths are
    optional; emit_outputs writes whichever ones are set.
    """

    algorithm: AlgorithmSpec
    instance: object
    m: int
    epsilon: float = 0.0
    delta: float = 0.05
    runs: int = 500
    seed: int = 0
    sigma: Optional[float] = None
    lam: Optional[float] = None
    threshold_kind: Optional[str] = None
    max_rounds: int = 10_000_000
    trace: bool = False
    monitor: Optional[bool] = None
    workers: int = 1
    out_csv: Optional[object] = None
    summary_json: Optional[object] = None
    quantiles_csv: Optional[object] = None

    def __post_init__(self):
        if not isinstance(self.algorithm, AlgorithmSpec):
            raise ConfigError("algorithm must be an AlgorithmSpec (see preset())")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.epsilon < 0.0:
            raise ConfigError("epsilon must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def resolve_instance(self) -> Instance:
        inst = self.instance
        if not isinstance(inst, Instance):
            inst = load_instance(inst)
        if self.sigma is not None and self.sigma != inst.sigma:
            inst = inst.with_sigma(self.sigma)
        return inst


@dataclass(frozen=True)
class RunSummary:
    """Per-algorithm campaign aggregate."""

    algorithm: str
    runs: int
    error_frequency: float
    mean_tau: float
    quantiles: dict
    truncation_count: int
    violation_count: int
    monitored_runs: int


def nearest_rank_quantiles(values, levels: Sequence[int] = QUANTILE_LEVELS) -> dict:
    """Nearest-rank quantiles: the value at 1-based rank ceil(p/100 * n).

    Exact and implementation-independent; every quantile is an element of
    the sample, so integer inputs stay integers.
    """
    vals = np.sort(np.asarray(values))
    n = vals.shape[0]
    if n == 0:
        raise ConfigError("quantiles need at least one value")
    out = {}
    for p in levels:
        if not 0 < p <= 100:
            raise ConfigError(f"quantile level {p} outside (0, 100]")
        rank = max(1, math.ceil(p / 100.0 * n))
        out[int(p)] = vals[rank - 1].item()
    return out


def summarize(results: Sequence[RunResult], algorithm: str) -> RunSummary:
    """Aggregate per-trial results; recomputable bit-for-bit from the CSV."""
    if not results:
        raise ConfigError("cannot summarize an empty campaign")
    taus = [r.tau for r in results]
    n = len(results)
    return RunSummary(
        algorithm=algorithm,
        runs=n,
        error_frequency=sum(1 for r in results if not r.correct) / n,
        mean_tau=float(np.mean(taus)),
        quantiles=nearest_rank_quantiles(taus),
        truncation_count=sum(1 for r in results if r.truncated),
        violation_count=sum(1 for r in results if r.event_E_held is False),
        monitored_runs=sum(1 for r in results if r.event_E_held is not None),
    )


def _child_share(fn, share, rfd: int, wfd: int) -> None:
    """In a forked child: run fn over share, pickle (ok, results or the
    exception) into the pipe and leave without running any exit handler."""
    status = 1
    try:
        os.close(rfd)
        try:
            payload = (True, [fn(i) for i in share])
        except BaseException as exc:
            payload = (False, exc)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, RuntimeError(
                f"worker result cannot be pickled: {exc!r}")))
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _forked_map(fn, n: int, w: int) -> list:
    """[fn(i) for i in range(n)], share k = range(k, n, w) run by the k-th of
    w - 1 forked children and share 0 by the caller.  A child's exception is
    re-raised here; every child is reaped before this returns or raises."""
    out = [None] * n
    children = []  # [pid, read end of its pipe, or None once read]
    try:
        for k in range(1, w):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                _child_share(fn, range(k, n, w), rfd, wfd)
            os.close(wfd)
            children.append([pid, rfd])
        out[0::w] = [fn(i) for i in range(0, n, w)]
        for k, child in enumerate(children, 1):
            with os.fdopen(child[1], "rb") as pipe:
                child[1] = None
                data = pipe.read()
            if not data:
                raise RuntimeError(f"trial worker {child[0]} died without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out[k::w] = value
        return out
    except BaseException:
        import signal
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, rfd in children:
            if rfd is not None:
                os.close(rfd)
            os.waitpid(pid, 0)


def run_trials(config: CampaignConfig) -> list:
    """Every trial of the campaign, in trial order.

    One worker runs the trials in the caller, one run_trial call each.  With
    w = min(workers, runs) > 1, trial i belongs to share i mod w: the caller
    runs share 0 and w - 1 forked processes run the others, so the split
    depends on runs and w alone.  Where os.fork does not exist, or other
    threads run in this process (a child would inherit any lock they hold),
    the trials run in the caller.  The results are the same at every worker
    count.
    """
    inst = config.resolve_instance()
    spec = config.algorithm
    if spec.selection == SEL_OPTIMIZED:
        # warm the design memo once so that every forked worker inherits it
        xmat = inst.features if spec.use_features else np.eye(inst.K)
        pair_designs(xmat)

    def one(i: int) -> RunResult:
        return run_trial(spec, inst, config.m, config.epsilon, config.delta,
                         (config.seed, i), config.max_rounds, lam=config.lam,
                         threshold_kind=config.threshold_kind,
                         trace=config.trace, monitor=config.monitor)

    w = min(config.workers, config.runs)
    if w > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        return _forked_map(one, config.runs, w)
    return [one(i) for i in range(config.runs)]


def run_campaign(config: CampaignConfig) -> RunSummary:
    """Run all trials, aggregate, and write any configured outputs."""
    results = run_trials(config)
    summary = summarize(results, config.algorithm.name)
    emit_outputs(summary, results, out_csv=config.out_csv,
                 summary_json=config.summary_json,
                 quantiles_csv=config.quantiles_csv)
    return summary


# ---------------------------------------------------------------------------
# trace validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventReport:
    """Outcome of replaying the concentration event over a logged trace."""

    held: bool
    rounds_checked: int
    first_violation: Optional[tuple]
    min_margin: float


def validate_trace(trace: Trace, instance: Instance, m: int) -> EventReport:
    """Replay the concentration event over every logged round.

    The event at round t asks mu_i - mu_j <= B_ij(t) for every ordered pair
    (i, j), with B rebuilt from the logged means and widths; that is the
    same arithmetic the in-run monitor uses, so both routes agree exactly
    on the logged rounds.  Also checks each logged candidate set has size m.
    Returns the first violating (t, i, j) in scan order when the event fails.
    """
    if trace is None or len(trace) == 0:
        raise ConfigError("trace validation needs a recorded trace; run with trace=True")
    mu = np.asarray(instance.mu, dtype=np.float64)
    k = mu.shape[0]
    if trace.means.shape[1] != k:
        raise DimensionMismatch(
            f"trace logs {trace.means.shape[1]} arms, instance has {k}"
        )
    if trace.J.shape[1] != m:
        raise ConfigError(f"trace candidate sets have size {trace.J.shape[1]}, expected m={m}")
    diff = mu.reshape(-1, 1) - mu.reshape(1, -1)
    held = True
    first = None
    margin = math.inf
    for r in range(len(trace)):
        row = trace.J[r]
        if len(set(int(a) for a in row)) != m or row.min() < 0 or row.max() >= k:
            raise ConfigError(f"malformed candidate set at logged round {int(trace.t[r])}")
        slack = trace.index_matrix(r) - diff
        np.fill_diagonal(slack, math.inf)
        rmin = float(slack.min())
        if rmin < margin:
            margin = rmin
        if rmin < 0.0 and first is None:
            held = False
            i, j = np.argwhere(slack < 0.0)[0]  # row-major = scan order
            first = (int(trace.t[r]), int(i), int(j))
    return EventReport(held=held, rounds_checked=len(trace),
                       first_violation=first, min_margin=margin)


# ---------------------------------------------------------------------------
# file outputs
# ---------------------------------------------------------------------------


class RunRow(NamedTuple):
    """One parsed line of a per-run CSV."""

    seed: object
    tau: int
    correct: bool
    truncated: bool
    recommendation: tuple


def format_seed(seed) -> str:
    if isinstance(seed, tuple):
        return ":".join(str(s) for s in seed)
    return str(seed)


def parse_seed(text: str):
    if ":" in text:
        return tuple(int(p) for p in text.split(":"))
    return int(text)


def emit_outputs(summary: Optional[RunSummary], results: Sequence[RunResult],
                 out_csv=None, summary_json=None, quantiles_csv=None) -> list:
    """Write whichever outputs have paths; returns the written paths.

    Per-run CSV columns: run_seed,tau,correct,truncated,recommended with
    the recommended arm ids joined by ';'.  An empty result list yields a
    header-only CSV.  Summary outputs need a summary.
    """
    if summary is None and (summary_json is not None or quantiles_csv is not None):
        raise ConfigError("summary outputs need a summary; pass summarize(results, name)")
    written = []
    if out_csv is not None:
        path = Path(out_csv)
        lines = [CSV_HEADER]
        for r in results:
            rec = ";".join(str(a) for a in r.recommendation)
            lines.append(
                f"{format_seed(r.seed)},{r.tau},{int(r.correct)},{int(r.truncated)},{rec}"
            )
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    if summary_json is not None:
        path = Path(summary_json)
        payload = {
            "algorithm": summary.algorithm,
            "runs": summary.runs,
            "error_frequency": summary.error_frequency,
            "mean_tau": summary.mean_tau,
            "quantiles": {str(p): v for p, v in sorted(summary.quantiles.items())},
            "truncation_count": summary.truncation_count,
            "violation_count": summary.violation_count,
            "monitored_runs": summary.monitored_runs,
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
        written.append(path)
    if quantiles_csv is not None:
        path = Path(quantiles_csv)
        lines = ["percent,tau"]
        lines += [f"{p},{v}" for p, v in sorted(summary.quantiles.items())]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def load_run_csv(path) -> list:
    """Parse a per-run CSV back into RunRow tuples."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"not a campaign CSV: {path}")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 5:
            raise ConfigError(f"malformed campaign CSV row: {ln!r}")
        rec = tuple(int(a) for a in cells[4].split(";")) if cells[4] else ()
        rows.append(RunRow(seed=parse_seed(cells[0]), tau=int(cells[1]),
                           correct=bool(int(cells[2])), truncated=bool(int(cells[3])),
                           recommendation=rec))
    return rows
