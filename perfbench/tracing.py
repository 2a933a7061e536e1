"""In-memory spans around calls into jrsched's public functions.

The tracer never edits the program.  It replaces module attributes with
timing wrappers, so every caller that looks a function up through its module
goes through a span: the benchmark itself, and ``jrsched.adversaries`` for
the three names it imports.  Spans stay in memory and are written out once,
when the run ends.

A span records its name, its parent span, the unit (request) it belongs to,
its start and end, and how much of its interval its children covered.  A
span's self time is its duration minus that covered time; a layer's self
time is the sum over the spans whose name starts with the layer.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable

# (module, attribute, span name, root kind).  A wrapper records a span only
# while the outermost open span is of its root kind: the program's layers
# inside timed units, the verifier's feasibility check inside "verify", the
# generator inside "setup".  Other calls run through unrecorded, so the
# verifier's own DP cross-checks never count as program work.
WRAPPED = (
    ("oracle", "exact_solve", "oracle.exact_solve", "unit"),
    ("adversaries", "exact_solve", "oracle.exact_solve", "unit"),
    ("offline_dp", "dp_wjcj_unit", "offline_dp.dp_wjcj_unit", "unit"),
    ("offline_dp", "dp_equalp", "offline_dp.dp_equalp", "unit"),
    ("offline_dp", "dp_fmax_s1", "offline_dp.dp_fmax_s1", "unit"),
    ("adversaries", "dp_fmax_s1", "offline_dp.dp_fmax_s1", "unit"),
    ("offline_dp", "fmax_unit_distinct", "offline_dp.fmax_unit_distinct", "unit"),
    ("online", "run_online", "online.run_online", "unit"),
    ("adversaries", "simulate", "online.simulate", "unit"),
    ("adversaries", "adversary_run", "adversaries.adversary_run", "unit"),
    ("bounds", "lb_ceiling", "bounds.lb_ceiling", "unit"),
    ("model", "check_feasible", "model.check_feasible", "verify"),
    ("generate", "gen_instance", "generate.gen_instance", "setup"),
)


class Span:
    __slots__ = ("sid", "parent", "unit", "root", "name", "start", "end", "covered")

    def __init__(self, sid: int, parent: "Span | None", unit: int, root: str, name: str):
        self.sid = sid
        self.parent = parent
        self.unit = unit
        self.root = root
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.covered = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Tracer:
    """Span stack plus the counters that spans cannot carry."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def recording(self, root: str) -> bool:
        return bool(self.stack) and self.stack[0].root == root

    @contextmanager
    def span(self, name: str, root: str | None = None, unit: int | None = None):
        """Open a span; without ``root`` it nests inside the open root."""
        parent = self.stack[-1] if self.stack else None
        if root is None:
            root, unit = self.stack[0].root, self.stack[0].unit
        span = Span(len(self.spans), parent, unit, root, name)
        self.spans.append(span)
        self.stack.append(span)
        try:
            yield span
        except Exception as exc:
            self.count(f"{name}.errors.{type(exc).__name__}")
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.covered += span.duration

    def charge_child(self, seconds: float) -> None:
        """Count an unrecorded child's time (a policy call) as covered."""
        self.stack[-1].covered += seconds

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.sid,
                    "parent": span.parent.sid if span.parent is not None else None,
                    "unit": span.unit,
                    "root": span.root,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "self": span.self_time,
                }
                handle.write(json.dumps(record) + "\n")


def _counting_policy_class(base: type) -> type:
    """A delegating OnlinePolicy that counts and times every decide() call.

    ``decide`` runs once per simulator iteration, so its call count is the
    number of ticks.  Per-call spans would swamp memory on idle streams, so
    the calls are aggregated and only their time is charged to the open span.
    """

    class CountingPolicy(base):
        def __init__(self, inner, tracer: Tracer):
            self.inner = inner
            self.tracer = tracer
            self.name = inner.name
            self.objective = inner.objective
            self.requires_single_resource = inner.requires_single_resource
            self.requires_unit_jobs = inner.requires_unit_jobs
            self.calls = 0
            self.busy = 0.0

        def reset(self) -> None:
            self.inner.reset()

        def decide(self, obs):
            start = time.perf_counter()
            decision = self.inner.decide(obs)
            elapsed = time.perf_counter() - start
            self.tracer.charge_child(elapsed)
            self.calls += 1
            self.busy += elapsed
            return decision

        def flush(self, trace) -> None:
            self.tracer.count("online.policy.calls", self.calls)
            self.tracer.count("online.policy.busy_s", self.busy)
            self.tracer.count("online.decisions", len(trace.records))
            self.tracer.count("online.orders", len(trace.blocks))

    return CountingPolicy


def _wrapper(tracer: Tracer, lib, counting: type, name: str, root: str, fn: Callable) -> Callable:
    if name == "online.run_online":

        def wrapped(instance, policy, *args, **kwargs):
            if not tracer.recording(root):
                return fn(instance, policy, *args, **kwargs)
            policy = counting(policy, tracer)
            with tracer.span(name):
                solution, trace = fn(instance, policy, *args, **kwargs)
            policy.flush(trace)
            return solution, trace

    elif name == "adversaries.adversary_run":

        def wrapped(spec, policy=None):
            if not tracer.recording(root):
                return fn(spec, policy)
            policy = counting(policy or lib.adversaries.default_policy(spec), tracer)
            with tracer.span(name):
                outcome = fn(spec, policy)
            policy.flush(outcome.trace)
            tracer.count("adversaries.adversary_run.jobs_revealed", len(outcome.instance.jobs))
            return outcome

    elif name == "offline_dp.dp_wjcj_unit":

        def wrapped(instance, stats=None):
            if not tracer.recording(root):
                return fn(instance, stats)
            stats = {} if stats is None else stats
            with tracer.span(name):
                solution = fn(instance, stats)
            layers = stats.get("states_per_layer") or [0]
            key = "offline_dp.dp_wjcj_unit.states_peak"
            tracer.counters[key] = max(tracer.counters.get(key, 0), max(layers))
            tracer.count("offline_dp.dp_wjcj_unit.states_total", sum(layers))
            return solution

    else:

        def wrapped(*args, **kwargs):
            if not tracer.recording(root):
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def install(tracer: Tracer, lib) -> Callable[[], None]:
    """Wrap every function in WRAPPED inside ``lib``; returns the undo."""
    counting = _counting_policy_class(lib.online.OnlinePolicy)
    saved = []
    for module_name, attribute, name, root in WRAPPED:
        module = getattr(lib, module_name)
        original = getattr(module, attribute)
        saved.append((module, attribute, original))
        setattr(module, attribute, _wrapper(tracer, lib, counting, name, root, original))

    def uninstall() -> None:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)

    return uninstall
