"""Adaptive adversaries realizing the lower-bound games as concrete runs.

Each adversary watches the policy's actual decisions through the simulator
and reveals further jobs in response, then the realized instance is solved
offline and the run's competitive ratio is reported.

Kinds:

- ``sum_cj_3_2`` / ``sum_fj_3_2``: one job at time 0; when the policy starts
  it at t, a second job arrives at t+1.
- ``weighted_golden``: same shape, the second job carries weight w2.
- ``fmax_regular_4_3``: one job per time step; when the policy first orders
  at t, exactly one more job arrives (t+1 jobs in total).
- ``fmax_general_golden``: one job at time 0; when started at t, t further
  jobs arrive at t+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .bounds import (
    FMAX_GENERAL_GOLDEN,
    FMAX_REGULAR_4_3,
    KINDS,
    SUM_CJ_3_2,
    SUM_FJ_3_2,
    W2_MISPLACED,
    WEIGHTED_GOLDEN,
)
from .model import Instance, Job, Objective, Solution
from .offline_dp import dp_fmax_s1
from .online import (
    ImmediatePolicy,
    JobSource,
    MaxFlowGridPolicy,
    OnlinePolicy,
    SimView,
    SumCompletionPolicy,
    SumFlowPolicy,
    Trace,
    price_run,
    simulate,
)
from .oracle import exact_solve

@dataclass(frozen=True)
class AdversarySpec:
    """Which lower-bound game to play and its parameters."""

    kind: str
    order_cost: int
    w2: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.order_cost < 1:
            raise ValueError("order cost must be >= 1")
        if self.kind == WEIGHTED_GOLDEN:
            if self.w2 is None or self.w2 < 1:
                raise ValueError("the weighted adversary needs an integer weight w2 >= 1")
        elif self.w2 is not None:
            raise ValueError(W2_MISPLACED.format(self.kind))


@dataclass(frozen=True)
class AdversaryOutcome:
    instance: Instance
    online: Solution
    offline: Solution
    ratio: float
    trace: Trace


class _ReactiveSource(JobSource):
    """One job at time 0; a payload keyed to when the policy starts it."""

    def __init__(self, payload_weight: int | None, payload_grows: bool = False):
        self.payload_weight = payload_weight
        self.payload_grows = payload_grows
        self.first = Job(1, 0, 1, frozenset({1}), 1)
        self.first_delivered = False
        self.payload: list[Job] | None = None

    def _build_payload(self, started_at: int) -> list[Job]:
        release = started_at + 1
        if self.payload_grows:
            return [
                Job(2 + i, release, 1, frozenset({1}), 1) for i in range(started_at)
            ]
        return [Job(2, release, 1, frozenset({1}), self.payload_weight or 1)]

    def reveal(self, t: int, view: SimView) -> list[Job]:
        out = []
        if not self.first_delivered and t >= 0:
            self.first_delivered = True
            out.append(self.first)
        if self.payload is None and 1 in view.started:
            self.payload = self._build_payload(view.started[1])
        if self.payload:
            due = [job for job in self.payload if job.release <= t]
            self.payload = [job for job in self.payload if job.release > t]
            out.extend(due)
        return out

    def finished(self, t: int, view: SimView) -> bool:
        if 1 not in view.started:
            return False
        if self.payload is None:
            # the payload release lies at start+1, strictly after the start
            return False
        return not self.payload

    def next_event(self, t: int, view: SimView) -> int | None:
        """The payload's release while it is pending.  Before the first start
        nothing can arrive; the start itself is a decision, after which the
        clock never skips."""
        return self.payload[0].release if self.payload else None


class _RegularStreamSource(JobSource):
    """One job per step until the first order; then exactly one more job."""

    def __init__(self) -> None:
        self.next_release = 1
        self.cap: int | None = None

    def reveal(self, t: int, view: SimView) -> list[Job]:
        if self.cap is None and view.events:
            self.cap = view.events[0][0] + 1
        out = []
        while self.next_release <= t and (self.cap is None or self.next_release <= self.cap):
            out.append(Job(self.next_release, self.next_release, 1, frozenset({1}), 1))
            self.next_release += 1
        return out

    def finished(self, t: int, view: SimView) -> bool:
        return self.cap is not None and self.next_release > self.cap

    def next_event(self, t: int, view: SimView) -> int | None:
        """The next step while the stream still emits a job per step."""
        return None if self.finished(t, view) else t + 1


# Per kind: the objective both sides are priced under, the default policy
# for an order cost and the job source for the spec's w2.
_GAMES: dict[str, tuple[Objective, Callable[[int], OnlinePolicy], Callable[..., JobSource]]] = {
    SUM_CJ_3_2: (Objective.TOTAL_COMPLETION, SumCompletionPolicy, _ReactiveSource),
    WEIGHTED_GOLDEN: (Objective.WEIGHTED_COMPLETION, SumCompletionPolicy, _ReactiveSource),
    SUM_FJ_3_2: (Objective.TOTAL_FLOW, SumFlowPolicy, _ReactiveSource),
    FMAX_REGULAR_4_3: (Objective.MAX_FLOW, MaxFlowGridPolicy, lambda w2: _RegularStreamSource()),
    FMAX_GENERAL_GOLDEN: (
        Objective.MAX_FLOW,
        lambda order_cost: ImmediatePolicy(),
        partial(_ReactiveSource, payload_grows=True),
    ),
}


def default_policy(spec: AdversarySpec) -> OnlinePolicy:
    return _GAMES[spec.kind][1](spec.order_cost)


def adversary_run(
    spec: AdversarySpec, policy: OnlinePolicy | None = None
) -> AdversaryOutcome:
    """Play the adversary against the policy and price both sides exactly.

    The realized instance is finalized once the adversary commits, the
    online run is priced under the kind's objective, the offline optimum is
    computed by the enumeration oracle (min-sum kinds) or the max-flow
    dynamic program, and the realized ratio is returned.
    """
    objective, _, source = _GAMES[spec.kind]
    if policy is None:
        policy = default_policy(spec)
    result = simulate(
        source(spec.w2),
        policy,
        num_resources=1,
        end_signal=True,
        max_time=200 * spec.order_cost + 10_000,
    )
    instance = Instance(
        num_resources=1,
        joint_cost=spec.order_cost,
        item_costs=(0,),
        jobs=result.jobs,
    )
    online, trace = price_run(instance, result, objective)
    if objective is Objective.MAX_FLOW:
        offline = dp_fmax_s1(instance)
    else:
        offline = exact_solve(instance, objective)
    return AdversaryOutcome(instance, online, offline, online.total / offline.total, trace)
