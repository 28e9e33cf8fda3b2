"""Outside-in tracing of evosignal's layer boundaries.

``installed`` replaces the public entry points of each layer with wrappers
that count calls and accumulate self time (duration minus the time spent
in traced children). Coarse spans - run, workload, episode - are kept in
memory as records with their parent, and everything is written out once
the benchmark ends. Nothing inside ``src/`` knows about the tracer.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[dict] = []
        # Time already spent in finished children of each open frame;
        # the bottom entry collects time outside every frame.
        self._child_ns = [0]
        self._open_spans: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper around ``fn`` that books its calls and self time
        under ``name``; ``on_result(counts, result)`` may add counters."""
        calls, self_ns, child_ns, counts = self.calls, self.self_ns, self._child_ns, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self_ns[name] += elapsed - child_ns.pop()
                child_ns[-1] += elapsed
                calls[name] += 1
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, **attrs):
        """A coarse span (run, workload, episode) recorded as its own
        record; the layer calls inside it count as its children."""
        record = {"id": len(self.spans), "parent": self._open_spans[-1] if self._open_spans else None,
                  "name": name, **attrs}
        self.spans.append(record)
        self._open_spans.append(record["id"])
        self._child_ns.append(0)
        start = _clock()
        try:
            yield record
        finally:
            elapsed = _clock() - start
            record["start_s"] = start / 1e9
            record["duration_s"] = elapsed / 1e9
            record["self_s"] = (elapsed - self._child_ns.pop()) / 1e9
            self._child_ns[-1] += elapsed
            self._open_spans.pop()

    def mark(self, name: str, start_s: float, duration_s: float, **attrs) -> None:
        """Record a span whose edges were observed elsewhere (a
        generation ends at its checkpoint write)."""
        self.spans.append({"id": len(self.spans), "parent": self._open_spans[-1] if self._open_spans else None,
                           "name": name, "start_s": start_s, "duration_s": duration_s, **attrs})

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9


def _count_episode(counts, result) -> None:
    counts["sim.vehicles_entered"] += result.metrics.vehicles_entered
    counts["control.faults"] += result.controller_faults


def _count_detect_hit(counts, events) -> None:
    if events:
        counts["events.detect.hits"] += 1


def _boundaries():
    """(owner, attribute, boundary name, result hook) for every traced
    entry point. Names are the per-layer metric prefixes."""
    from evosignal import control, dsl, events, evolution, generator, metrics, store
    from evosignal.dsl import interpreter
    from evosignal.sim import engine

    controllers = [obj for obj in vars(control).values()
                   if isinstance(obj, type) and "decide" in vars(obj)]
    return [
        (engine.Episode, "__init__", "sim.episode_init", None),
        (engine.Episode, "observe", "sim.observe", None),
        (engine.Episode, "step", "sim.step", None),
        (engine.Episode, "finish", "sim.finish", _count_episode),
        (control, "run_episode", "sim.run_episode", None),
        (control.ControllerSpec, "build", "control.build", None),
        *[(cls, "decide", "control.decide", None) for cls in controllers],
        (control, "score_phases", "control.score_phases", None),
        (interpreter.CompiledBody, "run", "dsl.body_run", None),
        (control, "compile_body", "dsl.compile", None),
        (interpreter, "compile_body", "dsl.compile", None),
        (dsl, "sandbox_check", "dsl.sandbox_check", None),
        (events, "detect", "events.detect", _count_detect_hit),
        (metrics, "routine_fitness", "metrics.fitness", None),
        (metrics, "event_fitness", "metrics.fitness", None),
        (evolution, "evaluate_generation", "evolution.evaluate_generation", None),
        (generator, "generate", "generator.generate", None),
        (generator.ScriptedBackend, "propose", "generator.propose", None),
        (store.RunStore, "append", "store.append", None),
        (store.RunStore, "write_checkpoint", "store.checkpoint", None),
        (store.RunStore, "_read_file", "store.read", None),
        (store.RunStore, "read_checkpoint", "store.read", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Trace every boundary while the block runs, then put the original
    entry points back."""
    saved = []
    try:
        for owner, attr, name, on_result in _boundaries():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
