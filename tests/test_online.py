import hashlib
import inspect
import random

import pytest

from jrsched import (
    Decision,
    ImmediatePolicy,
    Instance,
    Job,
    MaxFlowGridPolicy,
    Objective,
    OnlinePolicy,
    SimulationError,
    SolverError,
    SumCompletionPolicy,
    SumFlowPolicy,
    check_feasible,
    delay_releases,
    emit_solution,
    exact_solve,
    run_online,
    triangular,
)
from jrsched import adversaries
from jrsched.adversaries import (
    KINDS,
    SUM_CJ_3_2,
    SUM_FJ_3_2,
    WEIGHTED_GOLDEN,
    AdversarySpec,
    adversary_run,
)
from jrsched.model import job_ready
from jrsched.online import (
    WAIT,
    Block,
    JobSource,
    Observation,
    SimResult,
    StaticSource,
    Trace,
    TraceRecord,
    completion_trigger_violations,
    flow_trigger_violations,
    simulate,
    trace_to_jsonl,
)
from conftest import R1, regular_instance, single_job_instance


def unit_jobs_at(releases, order_cost):
    jobs = tuple(Job(i + 1, r, 1, R1) for i, r in enumerate(releases))
    return Instance(1, order_cost, (0,), jobs)


class TestSumCompletionPolicy:
    def test_single_job_waits_until_trigger(self):
        solution, trace = run_online(single_job_instance(5), SumCompletionPolicy(5))
        assert solution.total == 10
        assert trace.records[0].t == 4
        assert trace.records[0].replenish == (1,)
        assert trace.records[0].start == (1,)

    def test_two_jobs_trigger_together(self):
        solution, trace = run_online(unit_jobs_at((0, 0), 5), SumCompletionPolicy(5))
        assert solution.total == 10
        assert trace.records[0].t == 1
        assert solution.schedule.starts == {1: 1, 2: 2}

    def test_cheap_order_fires_immediately(self):
        solution, _ = run_online(single_job_instance(1), SumCompletionPolicy(1))
        assert solution.total == 2

    def test_tight_single_job_ratio(self):
        for order_cost in (10, 100, 1000):
            inst = single_job_instance(order_cost)
            online, _ = run_online(inst, SumCompletionPolicy(order_cost))
            offline = exact_solve(inst, Objective.TOTAL_COMPLETION)
            assert online.total == 2 * order_cost
            assert offline.total == order_cost + 1

    def test_rejects_order_cost_zero(self):
        with pytest.raises(ValueError):
            SumCompletionPolicy(0)


class TestSumFlowPolicy:
    def test_single_job(self):
        solution, trace = run_online(single_job_instance(5), SumFlowPolicy(5))
        assert solution.total == 10
        assert trace.records[0].t == 4

    def test_two_jobs(self):
        solution, _ = run_online(unit_jobs_at((0, 0), 5), SumFlowPolicy(5))
        assert solution.total == 10

    def test_cheap_order(self):
        assert run_online(single_job_instance(1), SumFlowPolicy(1))[0].total == 2


class TestMaxFlowGridPolicy:
    def test_unit_cost_six_jobs(self):
        solution, trace = run_online(regular_instance(6, 1), MaxFlowGridPolicy(1))
        assert solution.total == 6
        assert solution.replenishments.times() == (1, 3, 6)
        assert [b.size for b in trace.blocks] == [1, 2, 3]
        assert solution.scheduling_cost == 3

    def test_cost_two_four_jobs(self):
        solution, _ = run_online(regular_instance(4, 2), MaxFlowGridPolicy(2))
        assert solution.total == 6
        assert solution.replenishments.times() == (4,)

    def test_end_of_stream_flush(self):
        solution, _ = run_online(regular_instance(2, 1), MaxFlowGridPolicy(1))
        assert solution.total == 4
        assert solution.replenishments.times() == (1, 3)

    def test_requires_single_resource(self):
        inst = Instance(2, 1, (0, 0), (Job(1, 1, 1, R1),))
        with pytest.raises(SolverError, match="single resource"):
            run_online(inst, MaxFlowGridPolicy(1))

    def test_requires_unit_jobs(self):
        inst = Instance(1, 1, (0,), (Job(1, 1, 2, R1),))
        with pytest.raises(SolverError, match="unit"):
            run_online(inst, MaxFlowGridPolicy(1))


class TestSimulator:
    def test_rejects_start_of_unready_job(self):
        class Bad(OnlinePolicy):
            def decide(self, obs):
                return Decision(None, (obs.pending[0].id,)) if obs.pending else WAIT

        with pytest.raises(SimulationError, match="not ready"):
            run_online(single_job_instance(5), Bad())

    def test_rejects_unknown_job(self):
        class Bad(OnlinePolicy):
            def decide(self, obs):
                return Decision(frozenset({1}), (99,)) if obs.pending else WAIT

        with pytest.raises(SimulationError, match="not pending"):
            run_online(single_job_instance(5), Bad())

    def test_rejects_empty_order(self):
        class Bad(OnlinePolicy):
            def decide(self, obs):
                return Decision(frozenset(), ())

        with pytest.raises(SimulationError, match="empty resource subset"):
            run_online(single_job_instance(5), Bad())

    def test_rejects_double_start(self):
        class Bad(OnlinePolicy):
            def decide(self, obs):
                if obs.pending:
                    job = obs.pending[0].id
                    return Decision(frozenset({1}), (job, job))
                return WAIT

        with pytest.raises(SimulationError, match="not pending"):
            run_online(unit_jobs_at((0, 0), 1), Bad())

    def test_rejects_restart_in_a_later_decision(self):
        class Bad(OnlinePolicy):
            # starts job 1 at 0, and again once job 2 is pending
            def decide(self, obs):
                return Decision(frozenset({1}), (1,)) if obs.pending else WAIT

        with pytest.raises(SimulationError, match="t=3: job 1 is not pending"):
            run_online(unit_jobs_at((0, 3), 1), Bad())

    def test_rejects_start_before_release(self):
        class Bad(OnlinePolicy):
            # names job 2, released at 5, before the source delivered it
            def decide(self, obs):
                return Decision(frozenset({1}), (1, 2)) if obs.pending else WAIT

        with pytest.raises(SimulationError, match="t=0: job 2 is not pending"):
            run_online(unit_jobs_at((0, 5), 1), Bad())

    def test_horizon_is_required(self):
        parameter = inspect.signature(simulate).parameters["max_time"]
        assert parameter.default is inspect.Parameter.empty

    def test_never_acting_policy_with_default_hooks_stops_at_the_horizon(self):
        class Sleeper(OnlinePolicy):
            def decide(self, obs):
                return WAIT

        source = StaticSource([Job(1, 0, 1, R1)])
        with pytest.raises(SimulationError, match="no progress by time 50"):
            simulate(source, Sleeper(), max_time=50)

    def test_rejects_unknown_resource(self):
        class Bad(OnlinePolicy):
            def decide(self, obs):
                return Decision(frozenset({2}), ())

        with pytest.raises(SimulationError, match="t=0: order names unknown resource 2"):
            run_online(single_job_instance(5), Bad())

    def test_rejects_job_delivered_twice(self):
        class Repeating(JobSource):
            # delivers every released job again at every visit
            def reveal(self, t, view):
                return [job for job in single_job_instance(5).jobs if job.release <= t]

            def finished(self, t, view):
                return False

        with pytest.raises(SimulationError, match="source delivered job 1 twice"):
            simulate(Repeating(), SumCompletionPolicy(5), max_time=50)

    def test_rejects_job_delivered_before_release(self):
        class Early(StaticSource):
            def reveal(self, t, view):
                return list(self.jobs) if t == 0 else []

        with pytest.raises(SimulationError, match="source delivered job 1 before its release"):
            simulate(Early(unit_jobs_at((3,), 5).jobs), SumCompletionPolicy(5), max_time=50)

    @pytest.mark.parametrize("first, rest", [((2,), [1, 3]), ((3, 1), [2])])
    def test_start_that_is_not_a_backlog_prefix(self, first, rest):
        seen = []

        class OutOfOrder(OnlinePolicy):
            def decide(self, obs):
                if len(obs.pending) == 3:
                    return Decision(frozenset({1}), first)
                if obs.pending and not obs.arrivals:
                    seen.append(([job.id for job in obs.pending], obs.pending.release_sum))
                    return Decision(None, tuple(job.id for job in obs.pending))
                return WAIT

        result = simulate(StaticSource(unit_jobs_at((1, 2, 3), 1).jobs), OutOfOrder(),
                          max_time=50)
        # each job's id is its release date, all three ready from the order at 3
        assert seen == [(rest, sum(rest))]
        assert list(result.starts) == [*first, *rest]
        assert sorted(result.starts.values()) == [3, 4, 5]

    def test_stalled_policy_detected(self):
        class Sleeper(OnlinePolicy):
            def decide(self, obs):
                return WAIT

        with pytest.raises(SimulationError, match="no progress"):
            run_online(single_job_instance(5), Sleeper(), max_time=50)

    def test_deterministic_trace(self):
        a = run_online(regular_instance(9, 2), MaxFlowGridPolicy(2))
        b = run_online(regular_instance(9, 2), MaxFlowGridPolicy(2))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_final_solution_always_feasible(self, rng):
        for _ in range(30):
            inst = unit_jobs_at([rng.randint(0, 7) for _ in range(rng.randint(1, 7))],
                                rng.choice((1, 2, 5, 10)))
            for policy in (
                SumCompletionPolicy(inst.joint_cost),
                SumFlowPolicy(inst.joint_cost),
                ImmediatePolicy(),
            ):
                solution, _ = run_online(inst, policy)
                assert check_feasible(inst, solution).ok

    def test_delay_releases(self):
        inst = unit_jobs_at((0, 3), 2)
        shifted = delay_releases(inst, 1)
        assert [job.release for job in shifted.jobs] == [1, 4]
        solution, _ = run_online(shifted, SumCompletionPolicy(2))
        assert check_feasible(shifted, solution).ok


class TestTriggerCertificates:
    def test_completion_certificate_on_random_runs(self, rng):
        for _ in range(30):
            order_cost = rng.choice((1, 2, 5, 10))
            inst = unit_jobs_at(
                [rng.randint(0, 9) for _ in range(rng.randint(1, 8))], order_cost
            )
            solution, trace = run_online(inst, SumCompletionPolicy(order_cost))
            assert completion_trigger_violations(inst, solution, trace, order_cost) == []

    def test_flow_certificate_on_random_runs(self, rng):
        for _ in range(30):
            order_cost = rng.choice((1, 2, 5, 10))
            inst = unit_jobs_at(
                [rng.randint(0, 9) for _ in range(rng.randint(1, 8))], order_cost
            )
            solution, trace = run_online(inst, SumFlowPolicy(order_cost))
            assert flow_trigger_violations(inst, solution, trace, order_cost) == []

    def test_certificate_flags_premature_order(self):
        # an immediate policy orders long before the trigger would allow it
        inst = unit_jobs_at((0,), 10)
        solution, trace = run_online(inst, SumCompletionPolicy(1))
        assert completion_trigger_violations(inst, solution, trace, 10) == []
        # same run judged against a tiny threshold must be flagged
        solution, trace = run_online(inst, SumCompletionPolicy(10))
        assert completion_trigger_violations(inst, solution, trace, 2) != []


    def test_flow_certificate_flags_order_at_the_trigger(self):
        # the flow policy at K = 10 orders its one job at 9: 8 waited + 1 < 10
        inst = unit_jobs_at((0,), 10)
        solution, trace = run_online(inst, SumFlowPolicy(10))
        assert [block.time for block in trace.blocks] == [9]
        assert flow_trigger_violations(inst, solution, trace, 10) == []
        # at K = 9 the same backlog had met the trigger one step earlier
        assert flow_trigger_violations(inst, solution, trace, 9) == [
            "order at 9: waiting backlog already met the flow trigger at 8"
        ]


class TestTraceFormat:
    def test_jsonl_layout(self):
        solution, trace = run_online(regular_instance(3, 1), MaxFlowGridPolicy(1))
        text = trace_to_jsonl(trace, solution)
        lines = text.strip().split("\n")
        import json

        records = [json.loads(line) for line in lines]
        assert all({"t", "replenish", "start"} <= set(r) for r in records[:-1])
        summary = records[-1]
        assert summary["total"] == solution.total
        assert {"t", "b", "y", "z"} <= set(summary["blocks"][0])

    def test_triangular(self):
        assert [triangular(a) for a in range(5)] == [0, 1, 3, 6, 10]


# ---------------------------------------------------------------------------
# Next-event advance against the tick-by-tick loop it replaced


class _TuplePending(tuple):
    """The tick loop's backlog: a tuple, plus the release sum policies read."""

    @property
    def release_sum(self):
        return sum(job.release for job in self)


class _TickSource(JobSource):
    """A static stream without ``next_event``, as sources were before it."""

    def __init__(self, jobs):
        self.jobs = sorted(jobs, key=lambda job: (job.release, job.id))
        self.cursor = 0

    def reveal(self, t, view):
        out = []
        while self.cursor < len(self.jobs) and self.jobs[self.cursor].release <= t:
            out.append(self.jobs[self.cursor])
            self.cursor += 1
        return out

    def finished(self, t, view):
        return self.cursor >= len(self.jobs)


def _tick_simulate(source, policy, num_resources=1, end_signal=True, max_time=None):
    """The simulator as it was before next-event advance: one step at a time,
    the backlog re-sorted and readiness re-scanned at every step."""
    policy.reset()
    started = {}
    events = []
    records = []
    pending = []
    seen = {}
    view = adversaries.SimView(started, events, 0)
    t = 0
    while True:
        if view.busy_until > t:
            t = view.busy_until
        arrived = source.reveal(t, view)
        for job in arrived:
            if job.id in seen:
                raise SimulationError(f"source delivered job {job.id} twice")
            if job.release > t:
                raise SimulationError(f"source delivered job {job.id} before its release")
            seen[job.id] = job
            pending.append(job)
        pending.sort(key=lambda job: (job.release, job.id))
        stream_done = source.finished(t, view)
        if not pending and stream_done:
            break
        if max_time is not None and t > max_time:
            raise SimulationError(f"policy made no progress by time {max_time}")
        arrivals_now = tuple(job for job in arrived if job.release == t)
        observation = Observation(
            now=t,
            arrivals=arrivals_now,
            machine_busy_until=view.busy_until,
            pending=_TuplePending(pending),
            stream_over=end_signal and stream_done and not arrivals_now,
        )
        decision = policy.decide(observation)

        if decision.replenish is not None:
            subset = frozenset(decision.replenish)
            if not subset:
                raise SimulationError(f"t={t}: order names an empty resource subset")
            for r in subset:
                if not 1 <= r <= num_resources:
                    raise SimulationError(f"t={t}: order names unknown resource {r}")
            events.append((t, subset))

        if decision.start:
            pending_ids = {job.id for job in pending}
            clock = t
            for job_id in decision.start:
                if job_id not in pending_ids:
                    raise SimulationError(
                        f"t={t}: job {job_id} is not pending (unknown, unreleased or already started)"
                    )
                pending_ids.discard(job_id)
                job = seen[job_id]
                if not job_ready(job, events, t):
                    raise SimulationError(
                        f"t={t}: job {job_id} is not ready, a required resource"
                        " was not ordered within its window"
                    )
                started[job_id] = clock
                clock += job.processing
            if not events:
                raise SimulationError(f"t={t}: job {decision.start[0]} starts before any order")
            started_set = set(decision.start)
            pending = [job for job in pending if job.id not in started_set]
            view.busy_until = clock

        if decision.replenish is not None or decision.start:
            records.append(
                TraceRecord(
                    t,
                    tuple(sorted(decision.replenish)) if decision.replenish is not None else None,
                    tuple(decision.start),
                )
            )
        if not decision.start:
            t += 1

    return SimResult(
        jobs=tuple(sorted(seen.values(), key=lambda job: job.id)),
        starts=started,
        events=tuple(events),
        records=tuple(records),
        blocks=_record_blocks(seen.values(), records),
    )


def _record_blocks(jobs, records):
    """The blocks of a run read back from its decision records, in one pass.

    A decision's starts join the latest order, and each block runs back to
    back from its decision, so the machine is busy until the end of the
    latest one."""
    by_id = {job.id: job for job in jobs}
    orders = []
    busy_until = 0
    for record in records:
        t = record.t
        if record.replenish is not None:
            orders.append((t, [], t >= 1 and busy_until <= t - 1))
        if record.start:
            started = [by_id[job_id] for job_id in record.start]
            orders[-1][1].extend(started)
            busy_until = t + sum(job.processing for job in started)
    return tuple(Block(t, tuple(group), idle) for t, group, idle in orders)


class _Counting(OnlinePolicy):
    """Forwards to a policy and counts its ``decide`` calls; forwards
    ``wake`` only when asked to, otherwise it keeps the ticking default."""

    def __init__(self, inner, forward_wake=True):
        self.inner = inner
        self.name = inner.name
        self.objective = inner.objective
        self.calls = 0
        if forward_wake:
            self.wake = inner.wake

    def reset(self):
        self.inner.reset()

    def decide(self, obs):
        self.calls += 1
        return self.inner.decide(obs)


SHIPPED = (
    SumCompletionPolicy,
    SumFlowPolicy,
    MaxFlowGridPolicy,
    lambda order_cost: ImmediatePolicy(),
)


def stream_releases(rng, style, n):
    """Release dates of one seeded stream: dense, sparse, duplicate or all zero."""
    if style == "dense":
        return [rng.randint(0, n) for _ in range(n)]
    if style == "sparse":
        releases, t = [], 0
        for _ in range(n):
            t += rng.randint(0, rng.choice((10, 300, 10_000)))
            releases.append(t)
        return releases
    if style == "duplicate":
        dates = [rng.randint(0, 3 * n) for _ in range(rng.randint(1, 3))]
        return [rng.choice(dates) for _ in range(n)]
    return [0] * n


def _streams(seed, per_style, max_n):
    rng = random.Random(seed)
    for style in ("dense", "sparse", "duplicate", "zero"):
        for _ in range(per_style):
            releases = stream_releases(rng, style, rng.randint(1, max_n))
            yield unit_jobs_at(releases, rng.choice((1, 2, 5, 10, 100)))


def test_event_driven_matches_tick_loop():
    runs = 0
    for inst in _streams(606, per_style=6, max_n=7):
        for make in SHIPPED:
            for end_signal in (True, False):
                fast = simulate(StaticSource(inst.jobs), make(inst.joint_cost),
                                end_signal=end_signal, max_time=10**6)
                slow = _tick_simulate(_TickSource(inst.jobs), make(inst.joint_cost),
                                      end_signal=end_signal, max_time=10**6)
                assert fast == slow, (inst, make, end_signal)
                runs += 1
    assert runs == 24 * 8


def test_adversary_runs_match_tick_loop(monkeypatch):
    results = []

    def recording(simulator):
        def run(*args, **kwargs):
            results.append(simulator(*args, **kwargs))
            return results[-1]
        return run

    for kind in KINDS:
        for order_cost in (1, 3, 10):
            spec = AdversarySpec(kind, order_cost, 2 if kind == WEIGHTED_GOLDEN else None)
            for make in SHIPPED:
                monkeypatch.setattr(adversaries, "simulate", recording(simulate))
                fast = adversary_run(spec, make(order_cost))
                monkeypatch.setattr(adversaries, "simulate", recording(_tick_simulate))
                slow = adversary_run(spec, make(order_cost))
                assert results[-2] == results[-1], (spec, make)
                assert fast == slow
    assert len(results) == 2 * 5 * 3 * 4


def test_policy_without_wake_ticks_as_before():
    for inst in _streams(607, per_style=3, max_n=6):
        for make in SHIPPED:
            fast_policy = _Counting(make(inst.joint_cost), forward_wake=False)
            slow_policy = _Counting(make(inst.joint_cost), forward_wake=False)
            fast = simulate(StaticSource(inst.jobs), fast_policy, max_time=10**6)
            slow = _tick_simulate(_TickSource(inst.jobs), slow_policy, max_time=10**6)
            assert fast == slow
            assert fast_policy.calls == slow_policy.calls


def test_source_without_next_event_ticks_as_before():
    for inst in _streams(608, per_style=3, max_n=6):
        for make in SHIPPED:
            fast_policy = _Counting(make(inst.joint_cost))
            slow_policy = _Counting(make(inst.joint_cost))
            fast = simulate(_TickSource(inst.jobs), fast_policy, max_time=10**6)
            slow = _tick_simulate(_TickSource(inst.jobs), slow_policy, max_time=10**6)
            assert fast == slow
            assert fast_policy.calls == slow_policy.calls


def test_waking_policy_that_never_acts_stalls():
    class NeverActs(SumCompletionPolicy):
        def decide(self, obs):
            return WAIT

    class NeverWakes(OnlinePolicy):
        def decide(self, obs):
            return WAIT

        def wake(self, obs):
            return None

    class Recording(StaticSource):
        def reveal(self, t, view):
            visits.append(t)
            return super().reveal(t, view)

    for policy in (NeverActs(5), NeverWakes()):
        with pytest.raises(SimulationError, match="no progress by time 50"):
            run_online(single_job_instance(5), policy, max_time=50)
        visits = []
        with pytest.raises(SimulationError, match="no progress by time 50"):
            simulate(Recording(unit_jobs_at((40, 45, 70), 5).jobs), policy, max_time=50)
        assert max(visits) == 51


@pytest.mark.parametrize("make", SHIPPED[:3])
def test_idle_time_costs_few_decisions(make):
    for order_cost in (1, 5, 1000):
        policy = _Counting(make(order_cost))
        solution, _ = run_online(unit_jobs_at((10**6,), order_cost), policy)
        assert policy.calls <= 4, (order_cost, policy.calls)
        assert solution.schedule.starts[1] >= 10**6


@pytest.mark.parametrize("kind", (SUM_CJ_3_2, SUM_FJ_3_2))
def test_adversary_idle_time_costs_few_decisions(kind):
    # the source waits for the first start and then for its payload's
    # release, so the clock jumps to the policy's wake times
    spec = AdversarySpec(kind, 10**6)
    policy = _Counting(adversaries.default_policy(spec))
    outcome = adversary_run(spec, policy)
    assert len(outcome.instance.jobs) == 2
    assert policy.calls <= 6, policy.calls


def test_online_traces_are_pinned():
    # digest of the tick-by-tick simulator's outputs; any change in a
    # decision, a tie-break or the pricing moves it
    digest = hashlib.sha256()
    rng = random.Random(6006)
    instances = [
        unit_jobs_at(range(1, n + 1), k) for n in (1, 2, 6, 13, 40, 200) for k in (1, 2, 5, 10)
    ]
    for style in ("dense", "sparse", "duplicate", "zero"):
        for _ in range(8):
            releases = stream_releases(rng, style, rng.randint(1, 12))
            instances.append(unit_jobs_at(releases, rng.choice((1, 2, 5, 10, 100))))
    for inst in instances:
        for make in SHIPPED:
            for end_signal in (True, False):
                solution, trace = run_online(inst, make(inst.joint_cost), end_signal=end_signal)
                digest.update(trace_to_jsonl(trace, solution).encode())
                digest.update(emit_solution(solution).encode())
    assert digest.hexdigest() == (
        "142cb9fca9066438f9405e79ab86381856883330d4af7c4735411f06efdaaaea"
    )


def test_backlog_view():
    seen = []

    class Peek(OnlinePolicy):
        def decide(self, obs):
            pending = obs.pending
            if not pending:
                return WAIT
            seen.append((len(pending), [job.id for job in pending], pending[-1:],
                         pending.release_sum, pending[0] in pending))
            return Decision(frozenset({1}), tuple(job.id for job in pending))

    class Shuffled(_TickSource):
        def reveal(self, t, view):
            return list(reversed(super().reveal(t, view)))

    inst = unit_jobs_at((3, 3, 1, 3), 1)
    simulate(Shuffled(inst.jobs), Peek(), max_time=50)
    assert seen == [(1, [3], (inst.jobs[2],), 1, True),
                    (3, [1, 2, 4], (inst.jobs[3],), 9, True)]


class _OrderThenStart(OnlinePolicy):
    """Orders when a pending job came after its last order, and starts the
    backlog at the next step without ordering again."""

    def reset(self):
        self.ordered_at = None

    def decide(self, obs):
        if not obs.pending:
            return WAIT
        if self.ordered_at is None or obs.pending[-1].release > self.ordered_at:
            self.ordered_at = obs.now
            return Decision(frozenset({1}), ())
        return Decision(None, tuple(job.id for job in obs.pending))


class _NonPrefixStarts(OnlinePolicy):
    """Waits, orders or starts at random; what it starts is a shuffled
    random subset of the ready backlog, rarely a prefix of it."""

    def __init__(self, seed):
        self.seed = seed

    def reset(self):
        self.rng = random.Random(self.seed)
        self.ordered_at = None

    def decide(self, obs):
        rng = self.rng
        if not obs.pending or rng.random() < 0.3:
            return WAIT
        order = None
        if self.ordered_at is None or rng.random() < 0.3:
            order, self.ordered_at = frozenset({1}), obs.now
        ready = [job.id for job in obs.pending if job.release <= self.ordered_at]
        start = rng.sample(ready, rng.randint(0, len(ready)))
        if order is None and not start:
            return WAIT
        return Decision(order, tuple(start))


def _bisect_blocks(inst, solution):
    """Block stats from first principles: each started job belongs to the
    last order at or before its start."""
    from bisect import bisect_right

    times = list(solution.replenishments.times())
    groups = [[] for _ in times]
    for job in inst.jobs:
        groups[bisect_right(times, solution.schedule.starts[job.id]) - 1].append(job)
    blocks = []
    for t, group in zip(times, groups):
        fresh = sum(1 for job in group if job.release == t)
        blocks.append((t, len(group), len(group) - fresh, fresh))
    return blocks


def test_blocks_match_bisect_over_starts():
    makers = [*SHIPPED, lambda order_cost: _OrderThenStart()]
    makers += [lambda order_cost, seed=seed: _NonPrefixStarts(seed) for seed in range(3)]
    runs = empty_blocks = out_of_order = 0
    for inst in _streams(623, per_style=5, max_n=9):
        for make in makers:
            solution, trace = run_online(inst, make(inst.joint_cost), max_time=10**6)
            got = [(b.time, b.size, b.arrived_before, b.arrived_at) for b in trace.blocks]
            assert got == _bisect_blocks(inst, solution), (inst, make)
            runs += 1
            empty_blocks += sum(1 for b in trace.blocks if b.size == 0)
            arrival = {job.id: (job.release, job.id) for job in inst.jobs}
            out_of_order += sum(1 for r in trace.records
                                if list(r.start) != sorted(r.start, key=arrival.get))
    assert runs == 20 * len(makers)
    assert empty_blocks  # some order is followed by another before any start
    assert out_of_order  # and some decision starts jobs out of backlog order


def _reference_trigger_violations(inst, solution, order_cost, flow):
    """The certificates from the instance and the starts alone: at an order
    at t after an idle [t - 1, t), the backlog at t - 1 (released by t - 1,
    not started before t) must have cost less than K at t - 1."""
    starts = solution.schedule.starts
    out = []
    for t in solution.replenishments.times():
        if any(starts[job.id] <= t - 1 < starts[job.id] + job.processing for job in inst.jobs):
            continue
        backlog = [job for job in inst.jobs if job.release <= t - 1 and starts[job.id] >= t]
        y = len(backlog)
        if flow:
            cost = sum(t - 1 - job.release for job in backlog) + y * (y + 1) // 2
            message = f"order at {t}: waiting backlog already met the flow trigger at {t - 1}"
        else:
            cost = sum(t - 1 + k for k in range(1, y + 1))
            message = f"order at {t}: backlog of {y} already met the completion trigger at {t - 1}"
        if cost >= order_cost:
            out.append(message)
    return out


def test_certificates_match_first_principles():
    flagged = 0
    for inst in _streams(624, per_style=30, max_n=20):
        for make, certify, flow in (
            (SumCompletionPolicy, completion_trigger_violations, False),
            (SumFlowPolicy, flow_trigger_violations, True),
        ):
            order_cost = inst.joint_cost
            solution, trace = run_online(inst, make(order_cost))
            for judged in range(1, 2 * order_cost + 1):
                got = certify(inst, solution, trace, judged)
                assert got == _reference_trigger_violations(inst, solution, judged, flow), (
                    inst, make, judged
                )
                assert judged < order_cost or got == []
                flagged += bool(got)
    assert flagged


def test_certificates_match_blocks_read_from_the_records():
    makers = [*SHIPPED, lambda order_cost: _OrderThenStart()]
    makers += [lambda order_cost, seed=seed: _NonPrefixStarts(seed) for seed in range(3)]
    flagged = 0
    for inst in _streams(626, per_style=5, max_n=9):
        for make in makers:
            solution, trace = run_online(inst, make(inst.joint_cost), max_time=10**6)
            from_records = Trace(trace.records, _record_blocks(inst.jobs, trace.records))
            assert trace == from_records, (inst, make)
            for certify in (completion_trigger_violations, flow_trigger_violations):
                for judged in (1, 2, 5, 10, 100):
                    got = certify(inst, solution, trace, judged)
                    assert got == certify(inst, solution, from_records, judged)
                    flagged += bool(got)
    assert flagged


def test_recorded_blocks_cover_empty_and_out_of_order_blocks():
    # an order at 0 with no start, an order at 1 whose jobs start out of
    # backlog order, a start at 3 with no new order, an order at 4 while the
    # machine was busy over [3, 4), and an order at 6 after an idle step
    script = [(0, [_job(1, 0), _job(2, 0)]), (1, [_job(3, 1)]), (5, [_job(4, 5)])]
    decisions = {
        0: Decision(frozenset({1}), ()),
        1: Decision(frozenset({1}), (3, 1)),
        3: Decision(None, (2,)),
        4: Decision(frozenset({1}), ()),
        6: Decision(frozenset({1}), (4,)),
    }
    result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions))
    assert [(b.time, [job.id for job in b.jobs], b.idle_before) for b in result.blocks] == [
        (0, [], False), (1, [3, 1, 2], True), (4, [], False), (6, [4], True)
    ]
    assert [(b.size, b.arrived_before, b.arrived_at) for b in result.blocks] == [
        (0, 0, 0), (3, 2, 1), (0, 0, 0), (1, 1, 0)
    ]


def test_start_before_any_order_is_refused():
    # a job that needs no resource passes every readiness check, but a start
    # must follow some order to belong to a block
    script = [(0, [Job(1, 0, 1, frozenset()), Job(2, 0, 1, frozenset())])]
    decisions = {0: Decision(None, (2, 1))}
    result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions))
    assert result == "SimulationError: t=0: job 2 starts before any order"
    decisions[0] = Decision(frozenset({1}), (2, 1))
    result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions))
    assert result.starts == {2: 0, 1: 1}
    assert [(b.time, b.size) for b in result.blocks] == [(0, 2)]


# ---------------------------------------------------------------------------
# The simulator's fast paths against the tick loop, on inputs that take
# their fallbacks: each run gives the same SimResult or the same error


def _outcome(simulator, source, policy, **options):
    try:
        return simulator(source, policy, max_time=100, **options)
    except SimulationError as exc:
        return f"SimulationError: {exc}"


def _same_outcome(make_source, make_policy, **options):
    fast = _outcome(simulate, make_source(), make_policy(), **options)
    slow = _outcome(_tick_simulate, make_source(), make_policy(), **options)
    assert fast == slow
    return fast


class _ScriptedSource(JobSource):
    """Delivers each batch of ``script`` ((time, jobs) pairs in time order)
    at the first visit at or after its time, jobs in the order given."""

    def __init__(self, script):
        self.script = list(script)

    def reveal(self, t, view):
        out = []
        while self.script and self.script[0][0] <= t:
            out += self.script.pop(0)[1]
        return out

    def finished(self, t, view):
        return not self.script


class _LateSource(JobSource):
    """Delivers every third job ``delay`` steps after its release, and each
    batch in reverse (release, id) order."""

    def __init__(self, jobs, delay):
        self.due = sorted(((job.release + delay * (job.id % 3 == 0), job) for job in jobs),
                          key=lambda pair: (pair[0], pair[1].release, pair[1].id))

    def reveal(self, t, view):
        out = []
        while self.due and self.due[0][0] <= t:
            out.append(self.due.pop(0)[1])
        return out[::-1]

    def finished(self, t, view):
        return not self.due


class _Scripted(OnlinePolicy):
    """Takes the decision ``decisions`` names for the time, else waits."""

    def __init__(self, decisions):
        self.decisions = decisions

    def decide(self, obs):
        return self.decisions.get(obs.now, WAIT)


def _job(job_id, release, resources=R1):
    return Job(job_id, release, 1, frozenset(resources))


def test_out_of_order_sources_match_tick_loop():
    makers = [*SHIPPED, lambda order_cost: _OrderThenStart()]
    makers += [lambda order_cost, seed=seed: _NonPrefixStarts(seed) for seed in range(3)]
    rng = random.Random(625)
    inserted = 0
    for style in ("dense", "duplicate", "zero"):
        for _ in range(4):
            inst = unit_jobs_at(stream_releases(rng, style, rng.randint(2, 9)),
                                rng.choice((1, 2, 5, 10)))
            for make in makers:
                for delay in (0, 1, 4):
                    result = _same_outcome(lambda: _LateSource(inst.jobs, delay),
                                           lambda: make(inst.joint_cost))
                    assert isinstance(result, SimResult), result
            due = _LateSource(inst.jobs, 4).due
            inserted += any(a[1].release > b[1].release for a, b in zip(due, due[1:]))
    assert inserted  # some stream delivers a job after a later-released one


@pytest.mark.parametrize("batch, error", [
    ([_job(1, 0), _job(1, 0)], "source delivered job 1 twice"),
    ([_job(1, 0), _job(2, 3)], "source delivered job 2 before its release"),
    ([_job(2, 3), _job(1, 0), _job(1, 0)], "source delivered job 2 before its release"),
    ([_job(1, 0), _job(1, 0), _job(2, 3)], "source delivered job 1 twice"),
    ([_job(2, 0), _job(1, 0), _job(2, 0)], "source delivered job 2 twice"),
    ([_job(2, 0), _job(2, 5)], "source delivered job 2 twice"),
])
def test_bad_deliveries_in_one_batch_match_tick_loop(batch, error):
    result = _same_outcome(lambda: _ScriptedSource([(0, batch)]), lambda: _Scripted({}))
    assert result == f"SimulationError: {error}"


@pytest.mark.parametrize("start", [(2, 1, 3), (3, 1, 2), (1, 3), (3,), (2, 3, 1)])
def test_starts_that_are_not_backlog_prefixes_match_tick_loop(start):
    # one order at 3 covers all three; what is left starts at 9
    script = [(0, [_job(1, 0)]), (1, [_job(2, 1)]), (2, [_job(3, 2)])]
    rest = tuple(j for j in (1, 2, 3) if j not in start)
    decisions = {3: Decision(frozenset({1}), start)}
    if rest:
        decisions[9] = Decision(None, (*rest, start[0]))
        result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions))
        assert result.startswith(f"SimulationError: t=9: job {start[0]} is not pending")
        decisions[9] = Decision(None, rest)
    result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions))
    assert list(result.starts) == [*start, *rest]


@pytest.mark.parametrize("start, unready", [
    ((1, 3), 3), ((2, 4), 4), ((1, 2, 3, 4), 3), ((2, 1, 4, 3), 4), ((1, 4, 3), 4),
    ((3, 1, 2), 3), ((1, 2, 4, 9), 4), ((1, 2, 9, 4), 9),
])
def test_unready_job_after_a_checked_resource_set_is_named(start, unready):
    # jobs 1 and 3 need resource 1, jobs 2 and 4 resource 2; the order at 1
    # covers jobs 1 and 2 only, and jobs 3 and 4 share a set with a ready job
    script = [(0, [_job(1, 0), _job(2, 0, {2})]), (2, [_job(3, 2), _job(4, 2, {2})])]
    decisions = {1: Decision(frozenset({1, 2}), ()), 2: Decision(None, start)}
    result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions),
                           num_resources=2)
    reason = "is not ready" if unready != 9 else "is not pending"
    assert result.startswith(f"SimulationError: t=2: job {unready} {reason}")


@pytest.mark.parametrize("start", [(1, 2), (3, 1, 2), (1, 3, 2)])
def test_unready_resource_set_released_before_a_checked_one_is_named(start):
    # job 2 needs resource 2, which is never ordered; its release lies
    # before the last order of the set checked for jobs 1 and 3
    script = [(0, [_job(1, 0), _job(2, 0, {2}), _job(3, 0)])]
    decisions = {1: Decision(frozenset({1}), start)}
    result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions),
                           num_resources=2)
    assert result.startswith("SimulationError: t=1: job 2 is not ready")


def test_order_between_decisions_readies_a_checked_resource_set():
    # the start at 1 finds both resources last ordered at 1; jobs 3 and 4,
    # released at 2, need the orders at 3 and 4 before they start
    script = [(0, [_job(1, 0)]), (1, [_job(2, 1, {1, 2})]), (2, [_job(3, 2), _job(4, 2, {1, 2})])]
    decisions = {
        1: Decision(frozenset({1, 2}), (1, 2)),
        3: Decision(frozenset({1}), (3,)),
        4: Decision(frozenset({2}), ()),
        5: Decision(None, (4,)),
    }
    result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions),
                           num_resources=2)
    assert result.starts == {1: 1, 2: 2, 3: 3, 4: 5}
    decisions[3] = Decision(None, (3,))  # without that order, job 3 is not ready
    result = _same_outcome(lambda: _ScriptedSource(script), lambda: _Scripted(decisions),
                           num_resources=2)
    assert result == "SimulationError: t=3: job 3 is not ready, a required resource" \
                     " was not ordered within its window"


def test_observation_keeps_its_interface():
    pending = ()
    fields = ("now", "arrivals", "machine_busy_until", "pending", "stream_over")
    assert tuple(inspect.signature(Observation).parameters) == fields
    values = (7, (Job(1, 7, 1, R1),), 9, pending, False)
    by_keyword = Observation(**dict(zip(fields, values)))
    by_position = Observation(*values)
    for obs in (by_keyword, by_position):
        assert tuple(getattr(obs, name) for name in fields) == values
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obs, name, 0)
    assert by_keyword == by_position
