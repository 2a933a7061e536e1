"""Discrete-event online simulator with irrevocable decisions, plus policies.

Time is integer.  Whenever the machine is idle the policy receives an
observation (newly arrived jobs, the pending backlog, and an end-of-stream
flag) and answers with a decision: optionally order a resource subset now,
and start an ordered list of jobs back to back from now.  Started jobs and
placed orders are permanent.  While a block of jobs runs, the clock jumps to
its completion and arrivals accumulate silently.  Each order opens a block,
the jobs started from it until the next order; the simulator records it as
the run goes, and traces and trigger certificates read it from there.

The clock advances to the next event, not to the next integer.  After a
decision that neither orders nor starts, the policy names the first time its
decision can change if nothing arrives (:meth:`OnlinePolicy.wake`) and the
source the time of its next arrival or of the end of the stream
(:meth:`JobSource.next_event`); the clock jumps to the earlier of the two.
Both hooks default to the next integer, so a policy or source without them
is visited at every step, as before.  The run is the same either way: a
skipped step is one at which nothing arrives and the policy would wait.
Every run has a horizon, past which a run with work left fails, so a
policy that never acts cannot stall it forever.

Shipped policies (single resource, unit jobs):

- :class:`SumCompletionPolicy` -- orders once the backlog's completion cost
  from now on reaches the order cost.
- :class:`SumFlowPolicy` -- same with accumulated waiting plus backlog cost.
- :class:`MaxFlowGridPolicy` -- orders on a precomputed quadratic time grid;
  on one-job-per-step inputs it also flushes the backlog when the stream
  ends.
- :class:`ImmediatePolicy` -- orders and starts every arrival at once.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter, lt
from typing import Any, Callable, Iterable, NamedTuple

from .model import (
    Instance,
    Job,
    Objective,
    ReplenishmentStructure,
    Schedule,
    Solution,
    SolutionError,
    SolverError,
    _dump_json,
    evaluate_solution,
)


class SimulationError(RuntimeError):
    """An illegal decision or a stalled policy aborted the simulation."""


def triangular(a: int) -> int:
    """Cost of a unit jobs started back to back, measured from their start epoch."""
    return a * (a + 1) // 2


_RELEASE = attrgetter("release")
_ARRIVAL_ORDER = attrgetter("release", "id")


class PendingView(Sequence):
    """The backlog as a policy sees it: pending jobs in (release, id) order.

    Policies may take its length, index it and iterate over it, and read
    ``release_sum``, the sum of the pending release dates, in O(1).  The
    simulator updates it in place, so it is valid only during the ``decide``
    and ``wake`` calls of the observation that carries it.
    """

    __slots__ = ("_jobs", "_release_sum")

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        self._release_sum = 0

    def __len__(self) -> int:
        return len(self._jobs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._jobs[index])
        return self._jobs[index]

    def __iter__(self):
        return iter(self._jobs)

    def __repr__(self) -> str:
        return f"PendingView({self._jobs!r})"

    @property
    def release_sum(self) -> int:
        return self._release_sum

    def _drop_started(self, count: int, started: dict[int, int]) -> None:
        """Remove the ``count`` jobs just put into ``started``."""
        jobs = self._jobs
        dropped = jobs[:count]
        if all([job.id in started for job in dropped]):
            del jobs[:count]
        else:
            dropped = [job for job in jobs if job.id in started]
            jobs[:] = [job for job in jobs if job.id not in started]
        self._release_sum -= sum(map(_RELEASE, dropped))


class Observation(NamedTuple):
    """What a policy sees at one idle decision point.

    ``pending`` is a live view of the backlog; see :class:`PendingView`.
    A named tuple: immutable, built by position or by keyword.
    """

    now: int
    arrivals: tuple[Job, ...]
    machine_busy_until: int
    pending: PendingView
    stream_over: bool


@dataclass(frozen=True, slots=True)
class Decision:
    """Order a resource subset (or None) and start jobs back to back from now."""

    replenish: frozenset[int] | None = None
    start: tuple[int, ...] = ()


WAIT = Decision()


@dataclass(frozen=True, slots=True)
class TraceRecord:
    t: int
    replenish: tuple[int, ...] | None
    start: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Block:
    """One order and the jobs started from it until the next order, in start
    order, as the simulator recorded them; ``idle_before`` tells whether the
    machine was idle over [time - 1, time).  Its statistics are the paper's
    t_i, b_i, y_i, z_i."""

    time: int
    jobs: tuple[Job, ...]
    idle_before: bool

    @property
    def size(self) -> int:
        return len(self.jobs)

    @property
    def arrived_at(self) -> int:
        """Jobs of the block released exactly at its order."""
        time = self.time
        return sum(1 for job in self.jobs if job.release == time)

    @property
    def arrived_before(self) -> int:
        """Jobs of the block released before its order."""
        return len(self.jobs) - self.arrived_at


@dataclass(frozen=True)
class Trace:
    """Time-ordered log of the acted decisions plus the run's blocks, one
    per order, as the simulator recorded them."""

    records: tuple[TraceRecord, ...]
    blocks: tuple[Block, ...]


class OnlinePolicy:
    """Base class: per-run state lives in the instance, reset() clears it."""

    name = "policy"
    objective = Objective.TOTAL_COMPLETION
    requires_single_resource = True
    requires_unit_jobs = True

    def reset(self) -> None:
        pass

    def decide(self, obs: Observation) -> Decision:
        raise NotImplementedError

    def wake(self, obs: Observation) -> int | None:
        """When ``decide(obs)`` has waited: the first time at which it can act
        if no job arrives, or None if it never can.  Times up to that one are
        skipped, so it must not be later than the truth.  The default visits
        the next integer."""
        return obs.now + 1


_RESOURCE_ONE = frozenset({1})


class _SumPolicy(OnlinePolicy):
    """Order and flush the backlog once its cost from now on reaches K.

    A subclass defines the static ``backlog_cost(now, size, release_sum)``
    of a backlog started at ``now``; it grows by ``size`` per step.
    """

    def __init__(self, order_cost: int):
        if order_cost < 1:
            raise ValueError("order cost must be >= 1")
        self.order_cost = order_cost

    def decide(self, obs: Observation) -> Decision:
        pending = obs.pending
        backlog = len(pending)
        if backlog and self.backlog_cost(obs.now, backlog, pending.release_sum) >= self.order_cost:
            return Decision(_RESOURCE_ONE, tuple([job.id for job in pending]))
        return WAIT

    def wake(self, obs: Observation) -> int | None:
        """The smallest t with backlog_cost(t, b, sum(r)) >= K for the backlog."""
        backlog = len(obs.pending)
        if not backlog:
            return None
        at_zero = self.backlog_cost(0, backlog, obs.pending.release_sum)
        return -((at_zero - self.order_cost) // backlog)


class SumCompletionPolicy(_SumPolicy):
    """Order and flush the backlog once its completion cost reaches K."""

    name = "sum-cj"
    objective = Objective.TOTAL_COMPLETION

    @staticmethod
    def backlog_cost(now: int, size: int, release_sum: int) -> int:
        """Completion cost from now on: now*b + b(b+1)/2."""
        return now * size + triangular(size)


class SumFlowPolicy(_SumPolicy):
    """Order once accumulated waiting plus the backlog cost reaches K."""

    name = "sum-fj"
    objective = Objective.TOTAL_FLOW

    @staticmethod
    def backlog_cost(now: int, size: int, release_sum: int) -> int:
        """Waiting so far plus the completion cost from now on: now*b - sum(r) + b(b+1)/2."""
        return now * size - release_sum + triangular(size)


class MaxFlowGridPolicy(OnlinePolicy):
    """Order at quadratically spaced times; flush when the stream ends.

    Designed for inputs where one unit job arrives per time step, so the
    only unknown is how many there are.  The grid is i(i+1)/2 for unit
    order cost and K(i^2+3i)/2 otherwise.
    """

    name = "max-flow"
    objective = Objective.MAX_FLOW

    def __init__(self, order_cost: int):
        if order_cost < 1:
            raise ValueError("order cost must be >= 1")
        self.order_cost = order_cost
        self.grid_index = 1

    def reset(self) -> None:
        self.grid_index = 1

    def _grid_time(self) -> int:
        i = self.grid_index
        if self.order_cost == 1:
            return i * (i + 1) // 2
        return self.order_cost * (i * i + 3 * i) // 2

    def decide(self, obs: Observation) -> Decision:
        if not obs.pending:
            return WAIT
        if obs.now >= self._grid_time() or obs.stream_over:
            while obs.now >= self._grid_time():
                self.grid_index += 1
            return Decision(_RESOURCE_ONE, tuple([job.id for job in obs.pending]))
        return WAIT

    def wake(self, obs: Observation) -> int | None:
        """The next grid time; the end of the stream comes with its own event."""
        return self._grid_time() if obs.pending else None


class ImmediatePolicy(OnlinePolicy):
    """Order and start every pending job as soon as it is seen."""

    name = "immediate"
    objective = Objective.MAX_FLOW

    def decide(self, obs: Observation) -> Decision:
        if obs.pending:
            return Decision(_RESOURCE_ONE, tuple([job.id for job in obs.pending]))
        return WAIT

    def wake(self, obs: Observation) -> int | None:
        """It waits only on an empty backlog, which only an arrival changes."""
        return None


# ---------------------------------------------------------------------------
# Simulation engine


@dataclass
class SimView:
    """Read-only view of the evolving run, offered to adaptive job sources."""

    started: dict[int, int]
    events: list[tuple[int, frozenset[int]]]
    busy_until: int


class JobSource:
    """Where arrivals come from; adaptive sources may watch the view."""

    def reveal(self, t: int, view: SimView) -> list[Job]:
        """All not-yet-delivered jobs with release <= t."""
        raise NotImplementedError

    def finished(self, t: int, view: SimView) -> bool:
        """True when no arrival can occur at any time after t."""
        raise NotImplementedError

    def next_event(self, t: int, view: SimView) -> int | None:
        """The first time after t at which ``reveal`` may deliver a job or
        ``finished`` may change, or None if neither can.  Times up to that one
        are skipped, so it must not be later than the truth.  The default
        visits the next integer."""
        return t + 1


class StaticSource(JobSource):
    def __init__(self, jobs: Iterable[Job]):
        self.jobs = list(jobs)
        self.releases = [job.release for job in self.jobs]
        # jobs with strictly increasing releases are already in (release, id) order
        if not all(map(lt, self.releases, islice(self.releases, 1, None))):
            self.jobs.sort(key=_ARRIVAL_ORDER)
            self.releases = [job.release for job in self.jobs]
        self.cursor = 0

    def reveal(self, t: int, view: SimView) -> list[Job]:
        first = self.cursor
        if first < len(self.jobs) and self.releases[first] <= t:
            self.cursor = bisect_right(self.releases, t, lo=first)
        return self.jobs[first:self.cursor]

    def finished(self, t: int, view: SimView) -> bool:
        return self.cursor >= len(self.jobs)

    def next_event(self, t: int, view: SimView) -> int | None:
        """The next release; the stream ends with the last arrival."""
        return self.releases[self.cursor] if self.cursor < len(self.jobs) else None


@dataclass
class SimResult:
    jobs: tuple[Job, ...]
    starts: dict[int, int]
    events: tuple[tuple[int, frozenset[int]], ...]
    records: tuple[TraceRecord, ...]
    blocks: tuple[Block, ...]


def simulate(
    source: JobSource,
    policy: OnlinePolicy,
    num_resources: int = 1,
    end_signal: bool = True,
    *,
    max_time: int,
) -> SimResult:
    """Drive the policy over the arrival stream until every job has started.

    Decisions are validated before they take effect: orders must name a
    non-empty known resource subset, started jobs must be pending (seen and
    not started) and ready under the orders placed so far, and blocks run
    back to back from now, after some order.  Rejected decisions raise
    :class:`SimulationError`; nothing is revised.  Each order opens a block,
    which records the jobs started until the next order and whether the
    machine was idle over the step before the order.

    The clock advances by next-event time advance, one rule per decision.
    After a start it jumps to the block's completion.  After an order, or
    at a step where jobs arrived (where ``stream_over`` can turn true), it
    moves one step.  Otherwise it jumps to the earlier of
    ``policy.wake(obs)`` and ``source.next_event(t, view)``, at least one
    step and at most to ``max_time + 1``.  The horizon is required: a run
    that reaches a time past ``max_time`` with work left fails there.  The
    observation's ``pending`` view is valid only during that step's
    ``decide`` and ``wake`` calls.
    """
    policy.reset()
    started: dict[int, int] = {}
    events: list[tuple[int, frozenset[int]]] = []
    records: list[TraceRecord] = []
    # per order: its time, the jobs started from it, idle over [t - 1, t)
    orders: list[tuple[int, list[Job], bool]] = []
    pending = PendingView()
    backlog = pending._jobs  # kept in (release, id) order, updated in place
    # the largest (release, id) ever added: a later job goes to the end of
    # the backlog, any other is inserted in order
    last_release = last_id = _NEVER
    seen: dict[int, Job] = {}
    last_order: dict[int, int] = {}  # resource -> time of its latest order
    view = SimView(started, events, 0)
    horizon = max_time + 1
    t = 0
    while True:
        arrived = source.reveal(t, view)
        if arrived:
            # one pass: check each job, add it to the backlog and the
            # release sum, and collect the jobs released now
            fresh = []
            release_sum = 0
            for job in arrived:
                job_id = job.id
                if job_id in seen:
                    raise SimulationError(f"source delivered job {job_id} twice")
                release = job.release
                if release > t:
                    raise SimulationError(f"source delivered job {job_id} before its release")
                seen[job_id] = job
                release_sum += release
                if release == t:
                    fresh.append(job)
                if release > last_release or (release == last_release and job_id > last_id):
                    backlog.append(job)
                    last_release, last_id = release, job_id
                else:
                    insort(backlog, job, key=_ARRIVAL_ORDER)
            pending._release_sum += release_sum
            arrivals_now = tuple(fresh)
        else:
            arrivals_now = ()
        stream_done = source.finished(t, view)
        if not backlog and stream_done:
            break
        if t > max_time:
            raise SimulationError(f"policy made no progress by time {max_time}")
        observation = Observation(
            t, arrivals_now, view.busy_until, pending, end_signal and stream_done and not arrivals_now
        )
        decision = policy.decide(observation)
        replenish = decision.replenish
        start = decision.start

        if replenish is not None:
            subset = frozenset(replenish)
            if not subset:
                raise SimulationError(f"t={t}: order names an empty resource subset")
            for r in subset:
                if not 1 <= r <= num_resources:
                    raise SimulationError(f"t={t}: order names unknown resource {r}")
            events.append((t, subset))
            for r in subset:
                last_order[r] = t
            orders.append((t, [], t >= 1 and view.busy_until <= t - 1))

        if start:
            block = orders[-1][1] if orders else []
            clock = t
            # a job is ready iff each resource it needs was last ordered at
            # or after its release (no order lies after t); the least last
            # order over the resource set checked last serves every later
            # job with that set and a release at or before it
            ready_set = None
            ready_until = _NEVER
            for job_id in start:
                job = seen.get(job_id)
                if job is None or job_id in started:
                    raise SimulationError(
                        f"t={t}: job {job_id} is not pending (unknown, unreleased or already started)"
                    )
                if job.release > ready_until or job.resources != ready_set:
                    ready_set = job.resources
                    ready_until = min(
                        (last_order.get(r, _NEVER) for r in ready_set), default=math.inf
                    )
                    if ready_until < job.release:
                        raise SimulationError(
                            f"t={t}: job {job_id} is not ready, a required resource"
                            " was not ordered within its window"
                        )
                started[job_id] = clock
                clock += job.processing
                block.append(job)
            if not orders:  # only jobs that need no resource pass the checks
                raise SimulationError(f"t={t}: job {start[0]} starts before any order")
            pending._drop_started(len(start), started)
            view.busy_until = clock

        if replenish is not None or start:
            records.append(
                TraceRecord(
                    t,
                    tuple(sorted(replenish)) if replenish is not None else None,
                    tuple(start),
                )
            )
        if start:
            t = view.busy_until
        elif replenish is not None or arrivals_now:
            t += 1
        else:
            times = (policy.wake(observation), source.next_event(t, view))
            nearest = min((x for x in times if x is not None), default=horizon)
            t = min(max(t + 1, nearest), horizon)

    return SimResult(
        jobs=tuple(map(seen.__getitem__, sorted(seen))),
        starts=started,
        events=tuple(events),
        records=tuple(records),
        blocks=tuple(Block(time, tuple(jobs), idle) for time, jobs, idle in orders),
    )


_NEVER = -math.inf  # the last order time of a resource never ordered


def run_online(
    instance: Instance,
    policy: OnlinePolicy,
    end_signal: bool = True,
    max_time: int | None = None,
) -> tuple[Solution, Trace]:
    """Simulate the policy on a fixed instance and price the realized run."""
    if policy.requires_single_resource and instance.num_resources != 1:
        raise SolverError(f"policy {policy.name} requires a single resource type")
    # every processing time is at least 1, so the total is the job count
    # only when all are 1
    if policy.requires_unit_jobs and instance.total_processing != len(instance.jobs):
        raise SolverError(f"policy {policy.name} requires unit processing times")
    source = StaticSource(instance.jobs)
    if max_time is None:
        last_release = source.releases[-1] if source.releases else -1
        max_time = last_release + instance.total_processing + 2_000_000
    result = simulate(
        source,
        policy,
        num_resources=instance.num_resources,
        end_signal=end_signal,
        max_time=max_time,
    )
    return price_run(instance, result, policy.objective)


def price_run(
    instance: Instance, result: SimResult, objective: Objective
) -> tuple[Solution, Trace]:
    """Price a simulated run on the instance it realized, with its trace:
    the run's decision records and the blocks the simulator recorded."""
    solution = evaluate_solution(
        instance,
        Schedule(result.starts),
        ReplenishmentStructure(result.events),
        objective,
    )
    return solution, Trace(result.records, result.blocks)


def delay_releases(instance: Instance, shift: int = 1) -> Instance:
    """Shift every release date; models ordering decided before seeing arrivals."""
    return Instance(
        instance.num_resources,
        instance.joint_cost,
        instance.item_costs,
        tuple(
            Job(job.id, job.release + shift, job.processing, job.resources, job.weight)
            for job in instance.jobs
        ),
    )


# ---------------------------------------------------------------------------
# Trigger certificates

def _trigger_violations(
    trace: Trace, order_cost: int,
    backlog_cost: Callable[[int, int, int], int], message: str,
) -> list[str]:
    """Orders after an idle step whose backlog then had met the trigger.

    For a block of the trace ordered at t with [t - 1, t) idle, the backlog
    at t - 1 is the block's jobs released before t; its
    ``backlog_cost(t - 1, size, release_sum)`` must be below K.  ``message``
    is formatted with t, y (the backlog's size) and prev = t - 1.
    """
    out = []
    for block in trace.blocks:
        if not block.idle_before:
            continue
        t = block.time
        backlog = [job.release for job in block.jobs if job.release < t]
        if backlog_cost(t - 1, len(backlog), sum(backlog)) >= order_cost:
            out.append(message.format(t=t, y=len(backlog), prev=t - 1))
    return out


def completion_trigger_violations(
    instance: Instance, solution: Solution, trace: Trace, order_cost: int
) -> list[str]:
    """Check the completion policy's idle certificate on every block.

    Blocks are the trace's, as the simulator recorded them.  Whenever the
    machine was idle just before an order at t, the backlog then pending
    (the block's jobs released before t) must have failed the trigger:
    y*(t-1) + y(y+1)/2 < K.  Exact integer check.  ``instance`` and
    ``solution`` are not read; the trace's blocks hold the run.
    """
    return _trigger_violations(
        trace, order_cost, SumCompletionPolicy.backlog_cost,
        "order at {t}: backlog of {y} already met the completion trigger at {prev}",
    )


def flow_trigger_violations(
    instance: Instance, solution: Solution, trace: Trace, order_cost: int
) -> list[str]:
    """Flow-policy analogue, on the trace's recorded blocks: accumulated
    waiting at t-1 plus backlog cost < K.  Only the trace is read."""
    return _trigger_violations(
        trace, order_cost, SumFlowPolicy.backlog_cost,
        "order at {t}: waiting backlog already met the flow trigger at {prev}",
    )


# ---------------------------------------------------------------------------
# Trace file format (JSON lines)

def blocks_to_document(blocks: Iterable[Block]) -> list[dict[str, Any]]:
    """Per-order block stats as JSON objects {"t", "b", "y", "z"}."""
    return [{"t": b.time, "b": b.size, "y": b.arrived_before, "z": b.arrived_at} for b in blocks]


def trace_to_jsonl(trace: Trace, solution: Solution) -> str:
    """One record per acted decision, then a summary with blocks and totals."""
    lines = []
    for record in trace.records:
        lines.append(
            _dump_json(
                {
                    "t": record.t,
                    "replenish": list(record.replenish) if record.replenish is not None else None,
                    "start": list(record.start),
                },
                "trace", SolutionError, indent=None,
            )
        )
    summary = {
        "blocks": blocks_to_document(trace.blocks),
        "scheduling_cost": solution.scheduling_cost,
        "replenishment_cost": solution.replenishment_cost,
        "total": solution.total,
    }
    lines.append(_dump_json(summary, "trace", SolutionError, indent=None))
    return "\n".join(lines) + "\n"
