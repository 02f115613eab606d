"""In-memory timing spans around the program's public entry points.

The tracer replaces module attributes with thin wrappers, so calls that go
through the module (``kernels.trial_chunk`` inside the engine, ``run_trial``
inside the harness) are recorded with their caller as parent.  Spans stay in
memory until ``write`` dumps them as JSON lines; ``uninstall`` restores
every original attribute.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start, end, attrs):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``annotate(args, kwargs, result)`` may return a dict of attributes
        kept on the span (a stopping time, a constant's kind).
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            out = None
            try:
                out = original(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = annotate(args, kwargs, out) if annotate and out is not None else {}
                tracer.spans.append(Span(sid, parent, name, start, end, attrs))

        functools.update_wrapper(traced, original, updated=())
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "attrs": s.attrs}) + "\n")


def install(tracer: Tracer, modules) -> None:
    """Wrap every public entry point the per-layer metrics read."""
    complexity, engine, harness, instances, kernels = (
        modules.complexity, modules.engine, modules.harness, modules.instances,
        modules.kernels)

    def tau(args, kwargs, out):
        return {"tau": int(out.tau)}

    def h_kind(args, kwargs, out):
        return {"kind": out.kind}

    def fraction(args, kwargs, out):
        return {"reps": out.reps, "skips": out.skips}

    for name in ("make_classic_instance", "make_random_unit_instance",
                 "make_table_instance"):
        tracer.wrap(instances, name, "instances.make")
    tracer.wrap(complexity, "make_random_unit_instance", "instances.make")
    tracer.wrap(instances, "save_instance", "instances.save")
    tracer.wrap(instances, "load_instance", "instances.load")
    tracer.wrap(engine, "run_trial", "engine.run_trial", tau)
    tracer.wrap(harness, "run_trial", "engine.run_trial", tau)
    tracer.wrap(engine, "_TrialSetup", "engine.trial_setup")
    tracer.wrap(engine, "pair_designs", "engine.pair_designs")
    tracer.wrap(harness, "pair_designs", "engine.pair_designs")
    tracer.wrap(kernels, "trial_chunk", "kernels.trial_chunk")
    tracer.wrap(kernels, "all_pair_designs", "kernels.all_pair_designs")
    tracer.wrap(complexity, "h_constant", "complexity.h_constant", h_kind)
    tracer.wrap(complexity, "sample_complexity_bound", "complexity.bound")
    tracer.wrap(complexity, "complexity_fraction_experiment",
                "complexity.fraction_experiment", fraction)
    tracer.wrap(harness, "run_campaign", "harness.run_campaign")
    tracer.wrap(harness, "run_trials", "harness.run_trials")
    tracer.wrap(harness, "emit_outputs", "harness.emit_outputs")


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures derived from the recorded spans (unit-scaled)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
        by_id[s.sid] = s

    def inside(s, name):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == name:
                return True
            p = by_id.get(p.parent)
        return False

    trials = by_name["engine.run_trial"]
    chunks = by_name["kernels.trial_chunk"]
    self_ms = [1e3 * (t.dur - sum(c.dur for c in children[t.sid]
                                  if c.name == "kernels.trial_chunk"))
               for t in trials]
    rounds = sum(t.attrs.get("tau", 0) for t in trials)
    campaigns = by_name["harness.run_campaign"]
    campaign_trials = [t for t in trials if inside(t, "harness.run_campaign")]
    # a cold design solve is a pair_designs call that reached the LP kernel
    cold = [s for s in by_name["engine.pair_designs"]
            if any(c.name == "kernels.all_pair_designs" for c in children[s.sid])]
    h = defaultdict(list)
    for s in by_name["complexity.h_constant"]:
        h[s.attrs.get("kind")].append(s.dur)
    fractions = by_name["complexity.fraction_experiment"]
    return {
        "instances.make_ms": 1e3 * _mean([s.dur for s in by_name["instances.make"]]),
        "instances.save_load_ms": 1e3 * (_mean([s.dur for s in by_name["instances.save"]])
                                         + _mean([s.dur for s in by_name["instances.load"]])),
        "engine.pair_designs_s": _mean([s.dur for s in cold]),
        "engine.trial_self_ms": _mean(self_ms),
        "engine.chunk_calls_per_trial": len(chunks) / len(trials) if trials else 0.0,
        "kernels.trial_chunk_us_per_round": (1e6 * sum(c.dur for c in chunks) / rounds
                                             if rounds else 0.0),
        "complexity.h_mlingape2_ms": 1e3 * _mean(h["m-lingape-2"]),
        "complexity.h_ugape_ms": 1e3 * _mean(h["ugape"]),
        "complexity.bound_us": 1e6 * _mean([s.dur for s in by_name["complexity.bound"]]),
        "complexity.skips": sum(s.attrs.get("skips", 0) for s in fractions),
        "complexity.reps": sum(s.attrs.get("reps", 0) for s in fractions),
        "harness.overhead_ms_per_trial": (
            1e3 * (sum(c.dur for c in campaigns) - sum(t.dur for t in campaign_trials))
            / len(campaign_trials) if campaign_trials else 0.0),
        "harness.emit_outputs_ms": 1e3 * _mean([s.dur for s in by_name["harness.emit_outputs"]]),
    }
