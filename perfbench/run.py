"""Benchmark for jrsched: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload ratio_sum --seed 1 --seconds 25 --trace 0

The benchmark is one process with one thread: a closed loop of a single
caller that sends the next unit only after the previous one returned.  It
imports jrsched from ``src/`` next to this directory and fails (exit 2,
no result) when that source tree is missing.

A run sets up (imports jrsched afresh and generates the seed's pool of
units) and passes over the whole pool, and repeats both until ``--seconds``
have passed.  The first pass is always whole, so a run measures every unit
of its pool whatever the host's speed; a later pass stops at the deadline.

Times are *reference-scaled* (see ``clock.py``): every timed call, a unit
or a set-up, runs next to a fixed reference kernel, and its wall time is
scaled by the kernel's speed around and during it.  A unit's latency is the
median of its scaled times over the passes that reached it.  A change to jrsched moves the
scaled times as it moves the wall times; a change in the host's load moves
the call and the kernel alike and cancels out.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
passes untraced for half the time, then makes one traced pass over a fresh
pool of the same seed, prints the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from clock import ELASTICITY, REFERENCE_S, ScaledClock
from tracing import Tracer, install
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXPECTATIONS = HERE / "expectations.json"

LAYERS = ("model", "generate", "oracle", "offline_dp", "online", "adversaries", "bounds")
SETUP_REPEATS = 5
# latency_tail_ms is p90 (every pool holds over 100 units, so well over 10
# lie beyond it).  The highest percentile with just 10 beyond, p99 on a
# 1000-unit pool, is a single extreme instance and moved by a third between
# seeds; the report line still prints it.
TAIL_PERCENTILE = 90

END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)

# (public function, the statistics reported for it)
FUNCTIONS = (
    ("oracle.exact_solve", ("calls", "busy_s", "p50_ms", "tail_ms", "limit_errors")),
    ("offline_dp.dp_wjcj_unit", ("calls", "busy_s", "p50_ms", "states_peak", "states_total")),
    ("offline_dp.dp_equalp", ("calls", "busy_s", "p50_ms")),
    ("offline_dp.dp_fmax_s1", ("calls", "busy_s", "p50_ms")),
    ("offline_dp.fmax_unit_distinct", ("calls", "busy_s", "p50_ms")),
    ("online.run_online", ("calls", "busy_s")),
    ("online.simulate", ("calls", "busy_s")),
    ("online.policy", ("calls", "busy_s")),
    ("adversaries.adversary_run", ("calls", "busy_s", "jobs_revealed")),
    ("bounds.lb_ceiling", ("calls", "busy_s")),
    ("model.check_feasible", ("calls", "busy_s")),
    ("generate.gen_instance", ("calls", "busy_s")),
)
SELF_LAYERS = ("oracle", "offline_dp", "online", "adversaries", "bounds", "bench")
STAT_UNITS = {
    "calls": "count",
    "busy_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "limit_errors": "count",
    "states_peak": "count",
    "states_total": "count",
    "jobs_revealed": "count",
}
PER_LAYER = (
    tuple((f"{fn}.{stat}", STAT_UNITS[stat]) for fn, stats in FUNCTIONS for stat in stats)
    + (
        ("online.sim_self_s", "s"),
        ("online.decisions", "count"),
        ("online.orders", "count"),
        ("online.acted_share", "share"),
    )
    + tuple(
        (f"{layer}.{stat}", unit)
        for layer in SELF_LAYERS
        for stat, unit in (("self_s", "s"), ("self_share", "share"))
    )
    + (
        ("trace.units", "count"),
        ("trace.unit_s", "s"),
        ("trace.untraced_unit_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "share"),
    )
)


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def import_program() -> SimpleNamespace:
    """Import jrsched afresh from the checkout's ``src/`` and return its modules."""
    for name in [m for m in sys.modules if m == "jrsched" or m.startswith("jrsched.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("jrsched")
    except ImportError as exc:
        raise SetupError(f"cannot import jrsched: {exc}") from None
    if Path(package.__file__).resolve().parent != SRC / "jrsched":
        raise SetupError(f"jrsched imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"jrsched.{m}") for m in LAYERS})


def build_pool(lib, workload: str, seed: int) -> list[list]:
    factory, rounds, _ = WORKLOADS[workload]
    rng = random.Random(seed)
    return [factory(lib, rng, index, rounds) for index in range(rounds)]


@dataclass
class Tally:
    """What the passes over a pool measured, per unit and in total.

    A unit is keyed by its (round, position) in the pool, which is the same
    in every pass.  Its latency is the median of its scaled times; a unit
    with any failed execution has no latency at all.
    """

    times: dict[tuple[int, int], list[float]] = field(default_factory=dict)  # scaled s
    failed_units: set[tuple[int, int]] = field(default_factory=set)
    busy: float = 0.0  # wall seconds inside every attempted execution
    pass_busy: list[float] = field(default_factory=list)  # busy of each whole pass
    attempted: int = 0  # executions
    failed: int = 0  # failed executions
    problems: list[str] = field(default_factory=list)

    def record(self, key: tuple[int, int], seconds: float) -> None:
        self.times.setdefault(key, []).append(seconds)

    def fail(self, key: tuple[int, int], kind: str, problems: list[str]) -> None:
        self.failed += 1
        self.failed_units.add(key)
        self.problems += [f"{kind}: {p}" for p in problems]

    @property
    def latencies(self) -> list[float]:
        """Each passed unit's median scaled time, ascending."""
        return sorted(
            statistics.median(times)
            for key, times in self.times.items()
            if key not in self.failed_units
        )


def _traced(tracer: Tracer, unit, uid: int):
    def call():
        with tracer.span("unit", root="unit", unit=uid):
            return unit.run()

    return call


def run_units(units, tally: Tally, tracer: Tracer | None = None, round_index: int = 0,
              elasticity: float = ELASTICITY) -> None:
    """Run the units as timed requests, one after another, then gate the results."""
    done = []
    # traced runs sample the kernel only around units, never inside spans
    with ScaledClock(sampling=tracer is None, elasticity=elasticity) as clock:
        for position, unit in enumerate(units):
            key = (round_index, position)
            uid = tally.attempted
            tally.attempted += 1
            call = unit.run if tracer is None else _traced(tracer, unit, uid)
            try:
                result = clock.call(call)
            except Exception as exc:  # a unit that raises is a failed unit
                tally.busy += clock.elapsed
                tally.fail(key, unit.kind, [f"raised {exc!r}"])
                continue
            tally.busy += clock.elapsed
            done.append((uid, unit, result, clock.scaled, key))
    for (_, unit, _, elapsed, key), problems in zip(done, verify(done, tracer)):
        if problems:
            tally.fail(key, unit.kind, problems)
        else:
            tally.record(key, elapsed)


def _check(unit, result) -> list[str]:
    try:
        return unit.check(result)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def verify(done: list, tracer: Tracer | None) -> list[list[str]]:
    """The gate's verdict on each (uid, unit, result, elapsed, key) in ``done``.

    Untraced runs verify in a forked child, so that the reference DPs the
    gate runs never count in this process's peak memory.  Traced runs verify
    in process, inside "verify" spans, to count the feasibility checks.
    """
    if tracer is not None:
        verdicts = []
        for uid, unit, result, _, _ in done:
            with tracer.span("verify", root="verify", unit=uid):
                verdicts.append(_check(unit, result))
        return verdicts
    if not done:
        return []
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps([_check(unit, result) for _, unit, result, _, _ in done])
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status or not payload:
        return [["the verifier process failed"]] * len(done)
    return json.loads(payload)


def run_pass(pool, tally: Tally, tracer: Tracer | None = None,
             deadline: float = math.inf, elasticity: float = ELASTICITY) -> int:
    """The pool's rounds in order until the deadline passes; returns how
    many rounds ran."""
    for index, units in enumerate(pool):
        if time.perf_counter() >= deadline:
            return index
        run_units(units, tally, tracer, index, elasticity)
    return len(pool)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int, preferred: int = 99) -> int:
    """``preferred`` when at least 10 samples lie beyond it, else the highest
    whole percentile below it that has 10 beyond (50 at the least)."""
    for q in range(preferred, 49, -1):
        if count - math.ceil(q / 100 * count) >= 10:
            return q
    return 50


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload: str, seed: int, warm: Tally):
    """Import, generate the pool and run the warm-up round into ``warm``."""
    lib = import_program()
    pool = build_pool(lib, workload, seed)
    factory, rounds, _ = WORKLOADS[workload]
    run_units(factory(lib, random.Random(seed), 0, rounds, small=True), warm, round_index=-1)
    return lib, pool


def settle() -> None:
    """Collect garbage, then freeze every survivor (the modules, the pool).

    The collector then leaves the benchmark's own objects alone: a
    collection inside a unit traverses only what that unit allocated, as in
    a one-shot jrsched run, instead of the whole pool.
    """
    gc.collect()
    gc.freeze()


def timed_set_up(workload: str, seed: int, warm: Tally, setup_times: list[float]):
    """``set_up``, with its scaled time appended to ``setup_times``."""
    with ScaledClock(elasticity=WORKLOADS[workload][2]) as clock:
        lib, pool = clock.call(lambda: set_up(workload, seed, warm))
    setup_times.append(clock.scaled)
    return lib, pool


def run_passes(workload: str, seed: int, seconds: float, tally: Tally, warm: Tally,
               setup_times: list[float]):
    """Set up and pass over the pool until ``seconds`` have passed; the
    first pass is always whole, so every unit of the pool is measured, and
    a later one stops at the first round boundary past the deadline.
    Returns the last (lib, pool) and the number of passes, a fraction when
    the last one was cut.  Each set-up's time goes into ``setup_times``;
    ``tally.pass_busy`` gets the wall time inside units of each whole pass.
    """
    lib, pool = timed_set_up(workload, seed, warm, setup_times)
    settle()
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        busy = tally.busy
        rounds = run_pass(pool, tally, deadline=deadline if passes else math.inf,
                          elasticity=WORKLOADS[workload][2])
        if rounds < len(pool):
            return lib, pool, passes + rounds / len(pool)
        passes += 1
        tally.pass_busy.append(tally.busy - busy)
        if time.perf_counter() >= deadline:
            return lib, pool, passes
        # the next set-up replaces this pool: free it first, so that no pass
        # pays for collecting the last one's cycles
        del lib, pool
        gc.unfreeze()
        gc.collect()
        lib, pool = timed_set_up(workload, seed, warm, setup_times)
        settle()


def end_to_end(setup_times: list[float], tally: Tally) -> tuple[dict[str, float], int]:
    """The end-to-end metrics plus the tail percentile they used."""
    # failed units carry no latency; with none passed the run is incorrect
    # anyway and the latencies read 0
    passed = tally.latencies
    latencies = passed or [0.0]
    q = tail_percentile(len(passed), TAIL_PERCENTILE)
    return {
        "setup_s": statistics.median(setup_times),
        "units_per_s": len(passed) / sum(latencies) if passed else 0.0,
        "latency_p50_ms": 1000 * percentile(latencies, 50),
        "latency_tail_ms": 1000 * percentile(latencies, q),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1 - tally.failed / tally.attempted,
    }, q


def _stat(values: list[float], stat: str) -> float:
    if not values:
        return 0.0
    if stat == "calls":
        return float(len(values))
    if stat == "busy_s":
        return sum(values)
    ordered = sorted(values)
    if stat == "p50_ms":
        return 1000 * percentile(ordered, 50)
    return 1000 * percentile(ordered, tail_percentile(len(ordered)))


def per_layer(tracer: Tracer, traced: Tally, untraced: Tally) -> dict[str, float]:
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {layer: 0.0 for layer in SELF_LAYERS}
    sim_self = 0.0
    for span in tracer.spans:
        durations.setdefault(span.name, []).append(span.duration)
        if span.root != "unit":
            continue
        layer = "bench" if span.name == "unit" else span.name.split(".")[0]
        self_time[layer] += span.self_time
        if span.name in ("online.run_online", "online.simulate"):
            sim_self += span.self_time
    counters = tracer.counters
    policy_calls = counters.get("online.policy.calls", 0)
    policy_busy = counters.get("online.policy.busy_s", 0.0)
    self_time["online"] += policy_busy
    metrics: dict[str, float] = {}
    for fn, stats in FUNCTIONS:
        for stat in stats:
            key = f"{fn}.{stat}"
            if fn == "online.policy":
                metrics[key] = policy_calls if stat == "calls" else policy_busy
            elif stat == "limit_errors":
                metrics[key] = counters.get(f"{fn}.errors.OracleLimitError", 0)
            elif stat in ("states_peak", "states_total", "jobs_revealed"):
                metrics[key] = counters.get(key, 0)
            else:
                metrics[key] = _stat(durations.get(fn, []), stat)
    decisions = counters.get("online.decisions", 0)
    metrics["online.sim_self_s"] = sim_self
    metrics["online.decisions"] = decisions
    metrics["online.orders"] = counters.get("online.orders", 0)
    metrics["online.acted_share"] = decisions / policy_calls if policy_calls else 0.0
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
        metrics[f"{layer}.self_share"] = self_time[layer] / traced.busy
    metrics["trace.units"] = traced.attempted
    metrics["trace.unit_s"] = traced.busy
    # the traced pass against the first untraced one, over the same units
    plain = untraced.pass_busy[0] if untraced.pass_busy else untraced.busy
    metrics["trace.untraced_unit_s"] = plain
    metrics["trace.overhead_s"] = traced.busy - plain
    metrics["trace.overhead_share"] = (traced.busy - plain) / plain
    return {name: float(metrics[name]) for name, _ in PER_LAYER}


def split_report(workload: str, metrics: dict[str, float]) -> list[str]:
    """Compare the traced shares with the predictions in expectations.json."""
    predictions = json.loads(EXPECTATIONS.read_text())["predicted_split"].get(workload, [])
    lines = []
    for rule in predictions:
        value = sum(metrics[name] for name in rule["metrics"])
        holds = rule["min"] <= value <= rule["max"]
        lines.append(
            f"split {'holds' if holds else 'MISSED'}: {' + '.join(rule['metrics'])}"
            f" = {value:.4f}, predicted [{rule['min']}, {rule['max']}]"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "jrsched" / "__init__.py").is_file():
        print(f"error: no jrsched source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    warm = Tally()
    tally = Tally()
    setup_times: list[float] = []
    began = time.perf_counter()
    try:
        if not args.trace:
            lib, pool, passes = run_passes(
                args.workload, args.seed, args.seconds, tally, warm, setup_times
            )
        else:
            lib, pool, passes = run_passes(
                args.workload, args.seed, args.seconds / 2, tally, warm, setup_times
            )
        while len(setup_times) < SETUP_REPEATS:
            timed_set_up(args.workload, args.seed, warm, setup_times)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    elapsed = time.perf_counter() - began
    pool_units = sum(len(units) for units in pool)
    if not args.trace:
        metrics, q = end_to_end(setup_times, tally)
        far = tail_percentile(len(tally.latencies))
        units = dict(END_TO_END)
        report = [
            f"{args.workload} seed {args.seed}: {passes:.2f} passes over {pool_units} units"
            f" in {elapsed:.1f} s, {tally.attempted} executions attempted, {tally.failed} failed"
            f" (failed_share {tally.failed / tally.attempted:.4f}),"
            f" {len(setup_times)} set-ups",
            f"latency tail is p{q} over {len(tally.latencies)} samples"
            f" (each unit's median over the passes that reached it);"
            f" p{far} = {1000 * percentile(tally.latencies or [0.0], far):.6g} ms is the"
            f" highest percentile with 10 samples beyond it",
            f"wall time inside units {tally.busy:.3f} s; scaled times assume the"
            f" reference kernel takes {1000 * REFERENCE_S:g} ms",
        ]
    else:
        tracer = Tracer()
        uninstall = install(tracer, lib)
        try:
            with tracer.span("setup", root="setup", unit=-1):
                traced_pool = build_pool(lib, args.workload, args.seed)
            settle()
            traced = Tally()
            run_pass(traced_pool, traced, tracer)
        finally:
            uninstall()
        metrics = per_layer(tracer, traced, tally)
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        report = [
            f"{args.workload} seed {args.seed}: {passes:.2f} passes over {pool_units} units"
            f" untraced, then one traced, {len(tracer.spans)} spans written to"
            f" {spans_file.relative_to(HERE.parent)}",
        ] + split_report(args.workload, metrics)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.problems += traced.problems

    tally.attempted += warm.attempted
    tally.failed += warm.failed
    tally.problems = warm.problems + tally.problems
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
