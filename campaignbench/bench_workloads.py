"""The three benchmark workloads and the per-layer probes they share.

A workload builds its inputs from the seed in ``setup`` (everything
``setup_s`` covers after import), then repeats one fixed round of
operations.  Every round runs the same operations on the same seeds, so a
repeat must reproduce the first round exactly; that is checked per
operation.  Timed regions hold only calls into the program; the output
checks run outside them.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import time
from collections import defaultdict
from statistics import median

import numpy as np

from bench_checks import (bound_problems, classic_means, design_problems,
                          error_frequency, fraction_problems, gaps,
                          h_reference, heuristic_rate, linprog_l1, same_trial,
                          theoretical_rate, top_set, trial_problems)

DELTA = 0.05
SIGMA = 0.5
LAM = SIGMA / 20.0


class TrialRecorder:
    """Times every ``run_trial`` the harness makes and keeps its result."""

    def __init__(self, harness):
        self._harness = harness
        self._original = harness.run_trial
        self.log = []

        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = self._original(*args, **kwargs)
            self.log.append((time.perf_counter() - start, out))
            return out

        harness.run_trial = timed

    def take(self) -> list:
        out, self.log = self.log, []
        return out

    def close(self) -> None:
        self._harness.run_trial = self._original


@dataclasses.dataclass
class PassStats:
    """What one pass of rounds measured."""

    rounds: int = 0
    main_s: float = 0.0          # wall time of the timed operations
    work: int = 0                # bandit rounds or design systems inside main_s
    # operation key -> its time per unit of work, one entry per repeat
    unit_us: dict = dataclasses.field(default_factory=lambda: defaultdict(list))
    slice_s: dict = dataclasses.field(default_factory=lambda: {1: 0.0, 2: 0.0})


class Workload:
    name = ""

    def __init__(self, seed: int, run_dir, mods):
        self.seed = int(seed)
        self.run_dir = run_dir
        self.mods = mods
        self.problems = []        # failed aggregate checks
        self._first = {}          # operation key -> first-round result

    def round_trip(self, inst, stem: str):
        """Save the instance and load it back, as a user's run would."""
        instances = self.mods.instances
        path = instances.save_instance(inst, self.run_dir / f"{stem}.csv")
        back = instances.load_instance(path)
        if not (np.array_equal(back.features, inst.features)
                and np.array_equal(back.mu, inst.mu)):
            self.problems.append("instance file round trip changed the instance")
        return back

    def repeat_problems(self, key, result, same) -> list:
        """A repeated operation must reproduce its first-round result."""
        first = self._first.setdefault(key, result)
        if first is not result and not same(first, result):
            return ["repeat differs from the first round"]
        return []

    def run_slice(self, stats: PassStats, call, check) -> None:
        """The parallel slice at one and at two workers, SLICE_REPEATS times a
        round; which side goes first alternates, so that swings in host
        speed fall on both sides alike."""
        for rep in range(self.SLICE_REPEATS):
            first = 1 if (stats.rounds + rep) % 2 == 0 else 2
            for workers in (first, 3 - first):
                start = time.perf_counter()
                out = call(workers)
                stats.slice_s[workers] += time.perf_counter() - start
                check(workers, out)

    def run_pass(self, ledger, seconds: float) -> PassStats:
        """Whole rounds until ``seconds`` of wall time have passed."""
        stats = PassStats()
        deadline = time.perf_counter() + seconds
        while True:
            self.round(stats, ledger)
            stats.rounds += 1
            if time.perf_counter() >= deadline:
                return stats

    # subclasses: setup, round, final_problems, probe


class CampaignWorkload(Workload):
    """Campaigns of several presets at one worker, then a slice of one
    preset's trials at one and at two workers."""

    M = 2
    EPSILON = 0.0
    TRIALS = 10
    SLICE = 4
    SLICE_REPEATS = 3
    MAX_ROUNDS = 1_000_000

    def configs(self, specs):
        harness = self.mods.harness
        self.cfgs = []
        for spec in specs:
            out = self.run_dir / spec.name
            self.cfgs.append(harness.CampaignConfig(
                algorithm=spec, instance=self.instance, m=self.M,
                epsilon=self.EPSILON, delta=DELTA, runs=self.TRIALS,
                seed=self.seed, lam=LAM if spec.use_features else None,
                threshold_kind="heuristic", max_rounds=self.MAX_ROUNDS,
                out_csv=f"{out}.csv", summary_json=f"{out}.json",
                quantiles_csv=f"{out}_quantiles.csv"))
        self.slice_cfg = dataclasses.replace(
            self.cfgs[0], runs=self.SLICE, out_csv=None, summary_json=None,
            quantiles_csv=None)
        self.results = {cfg.algorithm.name: [] for cfg in self.cfgs}

    def round(self, stats: PassStats, ledger) -> None:
        harness = self.mods.harness
        k = self.instance.K
        for cfg in self.cfgs:
            name = cfg.algorithm.name
            self.recorder.take()
            start = time.perf_counter()
            try:
                summary = harness.run_campaign(cfg)
            except Exception as exc:  # a campaign that raises fails all its trials
                stats.main_s += time.perf_counter() - start
                self.recorder.take()
                ledger.record_many(cfg.runs, [f"{name}: raised {type(exc).__name__}"])
                continue
            stats.main_s += time.perf_counter() - start
            log = self.recorder.take()
            if len(log) != cfg.runs or summary.runs != cfg.runs:
                self.problems.append(f"{name}: campaign ran {len(log)} of {cfg.runs} trials")
            for i, (dur, r) in enumerate(log):
                stats.unit_us[(name, i)].append(1e6 * dur / r.tau)
                stats.work += int(r.tau)
                problems = trial_problems(r, self.M, k, self.ok_set)
                problems += self.repeat_problems((name, i), r, same_trial)
                ledger.record(problems)
            results = [r for _, r in log]
            if not self.results[name]:
                self.results[name] = results
            if summary.mean_tau != float(np.mean([r.tau for r in results])):
                self.problems.append(f"{name}: summary mean tau disagrees with its trials")
        main = self.results[self.slice_cfg.algorithm.name]

        def call(workers):
            return harness.run_trials(dataclasses.replace(self.slice_cfg, workers=workers))

        def check(workers, out):
            self.recorder.take()
            for i, r in enumerate(out):
                problems = trial_problems(r, self.M, k, self.ok_set)
                if i >= len(main) or not same_trial(r, main[i]):
                    problems.append(f"{workers}-worker slice differs from the campaign")
                ledger.record(problems)

        self.run_slice(stats, call, check)

    def final_problems(self) -> list:
        problems = []
        for name, results in self.results.items():
            err = error_frequency(results, self.ok_set)
            if err > DELTA:
                problems.append(f"{name}: error frequency {err:.3f} above delta {DELTA}")
        return problems

    def probe(self) -> None:
        """Per-layer coverage the campaign itself does not reach."""
        complexity, indices = self.mods.complexity, self.mods.indices
        self.mods.engine.pair_designs(self.instance.features)
        h = complexity.h_constant("m-lingape-2", self.instance, self.M, self.EPSILON).H
        complexity.h_constant("ugape", self.instance, self.M, self.EPSILON)
        complexity.sample_complexity_bound(h, indices.ThresholdSpec("heuristic", DELTA))


class ClassicCampaign(CampaignWorkload):
    name = "classic-campaign"
    K = 4
    OMEGA = math.pi / 6
    PRESETS = ("m-lingape", "lingifa", "lucb", "ugape")

    def setup(self) -> None:
        instances, engine = self.mods.instances, self.mods.engine
        inst = instances.make_classic_instance(self.K, self.M, self.OMEGA, sigma=SIGMA)
        self.instance = self.round_trip(inst, "classic")
        closed = classic_means(self.K, self.M, self.OMEGA)
        if not np.allclose(self.instance.mu, closed, rtol=0.0, atol=1e-12):
            self.problems.append("classic means differ from the closed form")
        self.ok_set = top_set(closed, self.M)
        self.configs([engine.preset(name) for name in self.PRESETS])

    def final_problems(self) -> list:
        engine, harness = self.mods.engine, self.mods.harness
        problems = super().final_problems()
        # one sampled trial per preset: the reference loop agrees with the
        # kernel, and a traced rerun validates offline like the monitor said
        pick = self.seed % self.TRIALS
        for cfg in self.cfgs:
            r = self.results[cfg.algorithm.name][pick]
            kw = dict(lam=cfg.lam, threshold_kind=cfg.threshold_kind)
            args = (cfg.algorithm, self.instance, cfg.m, cfg.epsilon, cfg.delta,
                    (cfg.seed, pick), cfg.max_rounds)
            ref = engine.run_trial(*args, engine="reference", **kw)
            if not same_trial(ref, r):
                problems.append(f"{cfg.algorithm.name}: reference engine disagrees with the kernel")
            traced = engine.run_trial(*args, trace=True, **kw)
            report = harness.validate_trace(traced.trace, self.instance, cfg.m)
            if not same_trial(traced, r) or report.held != traced.event_E_held:
                problems.append(f"{cfg.algorithm.name}: trace validation disagrees with the monitor")
        return problems


class WideScreen(CampaignWorkload):
    name = "wide-screen"
    K = 50
    N = 10
    M = 5
    EPSILON = 0.5
    TABLE_LEN = 64
    TRIALS = 20
    SLICE = 2
    PRESETS = ("lingifa", "m-lingape")
    DESIGN_SAMPLES = 12
    # the screen is one fixed dataset, as the real one would be; --seed
    # drives the trials run on it and the design pairs checked
    DATASET_SEED = 2021

    def setup(self) -> None:
        instances, engine = self.mods.instances, self.mods.engine
        rng = np.random.default_rng(self.DATASET_SEED)
        x = rng.standard_normal((self.N, self.K))
        x /= np.linalg.norm(x, axis=0)
        theta = rng.standard_normal(self.N)
        theta /= np.linalg.norm(theta)
        means = x.T @ theta
        # bounded rows centred on the linear means: symmetric pairs
        # mu +/- u/2 with u in [0, 1), so every reward lies within 1/2 of
        # its mean and sigma = 1/2 holds
        rows = []
        for a in range(self.K):
            u = 0.5 * rng.random(self.TABLE_LEN // 2)
            row = np.concatenate([means[a] + u, means[a] - u])
            rng.shuffle(row)
            rows.append(row)
        inst = instances.make_table_instance(rows, features=x, sigma=SIGMA)
        self.instance = self.round_trip(inst, "wide")
        self.designs = engine.pair_designs(self.instance.features)
        self.ok_set = top_set([math.fsum(r) / len(r) for r in rows], self.M, self.EPSILON)
        self.configs([engine.preset(name, selection="optimized") for name in self.PRESETS])

    def final_problems(self) -> list:
        problems = super().final_problems()
        wstar, wl1, wok = self.designs
        xmat = self.instance.features
        rng = np.random.default_rng([self.seed, 51])
        for _ in range(self.DESIGN_SAMPLES):
            i, j = sorted(int(a) for a in rng.choice(self.K, size=2, replace=False))
            if wok[i, j] != 1:
                problems.append(f"design ({i},{j}) reported infeasible")
                continue
            target = xmat[:, i] - xmat[:, j]
            problems += design_problems(xmat, i, j, wstar[i, j], float(wl1[i, j]),
                                        linprog_l1(xmat, target))
        return problems


class ComplexitySweep(Workload):
    name = "complexity-sweep"
    K = 10
    N = 5
    D = 0.25
    M = K // 3 + 1
    REPS = 40           # fraction-experiment reps per round
    INSTANCES = 40      # instances whose constants and bounds are checked
    SLICE = 4           # fraction reps repeated at one and at two workers
    SLICE_REPEATS = 3

    def setup(self) -> None:
        instances, indices = self.mods.instances, self.mods.indices
        self.instances = [
            instances.make_random_unit_instance(self.K, self.N, self.D,
                                                seed=(self.seed, 1 + q), sigma=SIGMA)
            for q in range(self.INSTANCES)]
        self.instances[0] = self.round_trip(self.instances[0], "sweep")
        self.instance = self.instances[0]
        self.heuristic = indices.ThresholdSpec("heuristic", DELTA)
        self.theoretical = [
            indices.ThresholdSpec("theoretical", DELTA, n_dim=self.N,
                                  feature_bound=inst.feature_bound,
                                  param_bound=inst.param_bound, lam=LAM, sigma=SIGMA)
            for inst in self.instances]
        self.lps_per_h = self.K * (self.K - 1) // 2

    def _rep(self, q: int):
        complexity = self.mods.complexity
        inst = self.instances[q]
        hs = {kind: complexity.h_constant(kind, inst, self.M, 0.0).H
              for kind in complexity.H_KINDS}
        h2 = hs["m-lingape-2"]
        return (hs, complexity.sample_complexity_bound(h2, self.heuristic),
                complexity.sample_complexity_bound(h2, self.theoretical[q]))

    def _rep_problems(self, q: int, out) -> list:
        hs, t_heur, t_theo = out
        inst = self.instances[q]
        problems = []
        for kind in ("lucb", "ugape", "m-lingape-1"):
            ref = h_reference(kind, inst.mu, self.M, 0.0, SIGMA)
            if not abs(hs[kind] - ref) <= 1e-9 * ref:
                problems.append(f"{kind} constant differs from the gap formula")
        h2 = hs["m-lingape-2"]
        if not (math.isfinite(h2) and h2 > 0):
            problems.append("m-lingape-2 constant is not positive and finite")
        spec = self.theoretical[q]
        problems += bound_problems(t_heur, h2, lambda t: heuristic_rate(t, DELTA))
        problems += bound_problems(t_theo, h2, lambda t: theoretical_rate(
            t, DELTA, spec.n_dim, spec.feature_bound, spec.param_bound, spec.lam,
            spec.sigma))
        return problems

    def round(self, stats: PassStats, ledger) -> None:
        complexity = self.mods.complexity
        start = time.perf_counter()
        frac = complexity.complexity_fraction_experiment(
            self.K, self.N, self.D, self.REPS, self.seed)
        stats.main_s += time.perf_counter() - start
        stats.work += self.REPS * self.lps_per_h
        problems = fraction_problems(frac) + self.repeat_problems("fraction", frac, operator.eq)
        if frac.reps != self.REPS:
            problems.append("fraction experiment ran the wrong number of reps")
        ledger.record_many(self.REPS, problems)
        for q in range(self.INSTANCES):
            start = time.perf_counter()
            try:
                out = self._rep(q)
            except Exception as exc:  # an operation that raises counts as failed
                dur = time.perf_counter() - start
                out, problems = None, [f"raised {type(exc).__name__}"]
            else:
                dur = time.perf_counter() - start
                problems = self._rep_problems(q, out)
                problems += self.repeat_problems(("rep", q), out, operator.eq)
            stats.main_s += dur
            stats.unit_us[q].append(1e6 * dur / self.lps_per_h)
            stats.work += self.lps_per_h
            ledger.record(problems)

        def call(workers):
            return complexity.complexity_fraction_experiment(
                self.K, self.N, self.D, self.SLICE, self.seed, workers=workers)

        def check(workers, out):
            problems = fraction_problems(out) + self.repeat_problems("slice", out, operator.eq)
            ledger.record_many(self.SLICE, problems)

        self.run_slice(stats, call, check)

    def final_problems(self) -> list:
        # the program's gap profile matches the definition the reference
        # constants are computed from
        prof = self.mods.instances.gap_profile(self.instance, self.M)
        if not np.allclose(prof.gaps, gaps(self.instance.mu, self.M), rtol=0, atol=1e-15):
            return ["gap profile differs from the gap definition"]
        return []

    def probe(self) -> None:
        """Engine and harness coverage: a short campaign on the first instance."""
        harness, engine = self.mods.harness, self.mods.engine
        engine.pair_designs(self.instance.features)
        harness.run_campaign(harness.CampaignConfig(
            algorithm=engine.preset("m-lingape"), instance=self.instance, m=self.M,
            epsilon=0.2, delta=DELTA, runs=8, seed=self.seed, lam=LAM,
            threshold_kind="heuristic", max_rounds=200_000,
            summary_json=str(self.run_dir / "probe.json")))


WORKLOADS = {w.name: w for w in (ClassicCampaign, WideScreen, ComplexitySweep)}


def micro_probes(mods, inst, calls: int = 200) -> dict:
    """Single kernels and library calls timed alone at the instance's K and N
    (median microseconds per call), plus the computed cost of one round."""
    kernels, estimator, indices = mods.kernels, mods.estimator, mods.indices
    x = np.ascontiguousarray(inst.features, dtype=np.float64)
    xt = np.ascontiguousarray(x.T)
    n, k = x.shape
    minv = np.eye(n) / LAM
    for a in range(k):
        kernels.sm_update(minv, xt[a])
    bvec = np.random.default_rng(0).standard_normal(n)
    target = np.ascontiguousarray(x[:, 0] - x[:, 1])
    est = estimator.EstimatorState(x, SIGMA, LAM)
    cfg = indices.IndexConfig("paired", threshold=indices.ThresholdSpec("heuristic", DELTA))
    scratch = minv.copy()

    def per_call(fn, reps):
        fn()  # first call outside: jit cache load, allocations
        times = []
        for i in range(reps):
            start = time.perf_counter()
            fn(i)
            times.append(time.perf_counter() - start)
        return 1e6 * median(times)

    return {
        "kernels.round_quantities_us": per_call(
            lambda i=0: kernels.round_quantities(xt, x, minv, bvec, 2.0, SIGMA, 1), calls),
        "kernels.sm_update_us": per_call(
            lambda i=0: kernels.sm_update(scratch, xt[i % k]), calls),
        "kernels.simplex_l1_us": per_call(
            lambda i=0: kernels.simplex_l1(x, target, 1e-9), max(10, calls // 10)),
        "estimator.update_us": per_call(lambda i=0: est.update(i % k, 0.25), calls),
        "indices.index_components_us": per_call(
            lambda i=0: indices.index_components(est, cfg, 100), calls),
        # computed, not measured: t1 = X^T A^-1, G = t1 X, mu = t1 b, widths, B
        "kernels.round_flops": float(2 * k * n * n + 2 * k * k * n + 2 * k * n + 8 * k * k),
        "kernels.round_bytes": float(8 * (3 * k * n + n * n + n + 3 * k * k + k)),
    }
