"""Span recorder for the traced benchmark run.

`Tracer.install` replaces every module binding of each public function of
the rscycle modules with a timing wrapper (including names re-exported by
the package and imported with `from .x import y`, and the CLI's command
table), plus `FeedbackSpec.__call__`, `FeedbackSpec.__init__` and
`Population.__init__`.  Spans are kept in memory as
(span id, parent id, name, start, end) and written out by the caller.  A
layer's self time is its span time minus the time covered by its child
spans.  Very hot leaf calls are aggregated into a count and a total time
instead of a span each, so the tracer does not dominate the run.
"""

import importlib
import inspect
import os
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("model", "simulate", "clusters", "returnmap", "cyclic", "pde", "cli")

# Leaf calls made tens of thousands of times per repetition.
HOT = frozenset({"model.feedback_eval", "model.max_isolated_clusters"})

CLASS_HOOKS = (("FeedbackSpec", "__call__", "model.feedback_eval"),
               ("FeedbackSpec", "__init__", "model.FeedbackSpec"),
               ("Population", "__init__", "model.Population"))


class Tracer:
    def __init__(self):
        self.spans = []          # (span id, parent id, name, start, end)
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()  # derived counts such as events and bytes
        self.active = Counter()  # open spans per name
        self.distinct_specs = set()
        self.root_covered = 0.0
        self.root_s = 0.0
        self._stack = []         # open frames: [span id, child time]
        self._next_id = 0
        self._restore = []

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _wrap(self, name, fn):
        stack, perf, agg = self._stack, time.perf_counter, self._stat(name)
        if name in HOT:
            def hot(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    if stack:
                        stack[-1][1] += dur
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur
            return hot

        observe = _OBSERVERS.get(name)
        spans, active = self.spans, self.active

        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                spans.append((frame[0], parent[0] if parent else None, name, t0, t1))
            if observe is not None:
                observe(self, fn, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, name):
        """The one root span of a traced repetition."""
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((frame[0], None, name, t0, t1))
            self.root_s += t1 - t0
            self.root_covered += frame[1]

    def install(self):
        import rscycle
        mods = {short: importlib.import_module(f"rscycle.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for mod in (rscycle, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod.__dict__, name, wrappers[id(obj)])
        table = mods["cli"]._COMMANDS
        for name, obj in list(table.items()):
            if id(obj) in wrappers:
                self._patch(table, name, wrappers[id(obj)])
        for cls_name, attr, name in CLASS_HOOKS:
            cls = getattr(mods["model"], cls_name)
            self._patch(None, (cls, attr), self._wrap(name, cls.__dict__[attr]))

    def _patch(self, namespace, key, wrapper):
        if namespace is None:
            cls, attr = key
            self._restore.append((None, key, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
        else:
            self._restore.append((namespace, key, namespace[key]))
            namespace[key] = wrapper

    def uninstall(self):
        for namespace, key, orig in reversed(self._restore):
            if namespace is None:
                setattr(key[0], key[1], orig)
            else:
                namespace[key] = orig
        self._restore.clear()

    def roots(self):
        return [span for span in self.spans if span[1] is None]

    def write_spans(self, path):
        """One span per line: id, parent id, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")

    def layer_metrics(self):
        """Per-layer numbers named <module>.<function>.<stat>."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        c = self.counts

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        exact = self.stats.get("simulate.simulate_exact", [0, 0.0, 0.0])
        sde = self.stats.get("simulate.simulate_sde", [0, 0.0, 0.0])
        feval = self.stats.get("model.feedback_eval", [0, 0.0, 0.0])
        spec = self.stats.get("model.FeedbackSpec", [0, 0.0, 0.0])
        advance = self.stats.get("returnmap.advance_to_section", [0, 0.0, 0.0])
        classify = self.stats.get("cyclic.classify_case", [0, 0.0, 0.0])
        for key in ("simulate.simulate_exact.events", "simulate.simulate_exact.batches",
                    "simulate.simulate_sde.steps", "simulate.write_trajectory_csv.bytes",
                    "simulate.write_events_csv.bytes", "returnmap.compose.segments_out"):
            out[key] = c[key]
        out.update({
            "simulate.simulate_exact.us_per_event": ratio(exact[1], c["simulate.simulate_exact.events"], 1e6),
            "simulate.simulate_sde.us_per_step": ratio(sde[1], c["simulate.simulate_sde.steps"], 1e6),
            "model.feedback_eval.us_per_call": ratio(feval[1], feval[0], 1e6),
            "model.FeedbackSpec.distinct_ratio": ratio(len(self.distinct_specs), spec[0]),
            "returnmap.advance_to_section.hits_per_call": ratio(c["returnmap.advance_to_section.hits"], advance[0]),
            "returnmap.advance_to_section.us_per_call": ratio(advance[1], advance[0], 1e6),
            "cyclic.classify_case.replays_per_call": ratio(c["cyclic.classify_case.replays"], classify[0]),
            "trace.coverage": ratio(self.root_covered, self.root_s),
        })
        return out


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _observe_exact(tracer, fn, traj, args, kwargs):
    times = [ev.time for ev in traj.events]
    tracer.counts["simulate.simulate_exact.events"] += len(times)
    tracer.counts["simulate.simulate_exact.batches"] += sum(
        1 for i, t in enumerate(times) if i == 0 or t != times[i - 1])


def _observe_sde(tracer, fn, traj, args, kwargs):
    bound = _bound(fn, args, kwargs)
    tracer.counts["simulate.simulate_sde.steps"] += int(round(bound["duration"] / bound["noise"].dt))


def _observe_bytes(key):
    def observe(tracer, fn, result, args, kwargs):
        tracer.counts[key] += os.path.getsize(_bound(fn, args, kwargs)["path"])
    return observe


def _observe_advance(tracer, fn, result, args, kwargs):
    tracer.counts["returnmap.advance_to_section.hits"] += len(result[2])
    if tracer.active["cyclic.classify_case"]:
        tracer.counts["cyclic.classify_case.replays"] += 1


def _observe_compose(tracer, fn, result, args, kwargs):
    tracer.counts["returnmap.compose.segments_out"] += result.n_segments


def _observe_spec(tracer, fn, result, args, kwargs):
    spec = args[0]
    tracer.distinct_specs.add((spec.kind, spec.gamma, spec.theta, spec.h, spec.table,
                               spec.v_min, spec.v_max))


_OBSERVERS = {
    "simulate.simulate_exact": _observe_exact,
    "simulate.simulate_sde": _observe_sde,
    "simulate.write_trajectory_csv": _observe_bytes("simulate.write_trajectory_csv.bytes"),
    "simulate.write_events_csv": _observe_bytes("simulate.write_events_csv.bytes"),
    "returnmap.advance_to_section": _observe_advance,
    "returnmap.compose": _observe_compose,
    "model.FeedbackSpec": _observe_spec,
}
