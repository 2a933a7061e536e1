"""Adaptive adversaries realizing the lower-bound games, and their curves.

Each adversary watches the policy's actual decisions through the simulator
and reveals further jobs in response, then the realized instance is solved
offline and the run's competitive ratio is reported (the adversary method
of Borodin & El-Yaniv, *Online Computation and Competitive Analysis*, 1998).

Kinds:

- ``sum_cj_3_2`` / ``sum_fj_3_2``: one job at time 0; when the policy starts
  it at t, a second job arrives at t+1.
- ``weighted_golden``: same shape, the second job carries weight w2.
- ``fmax_regular_4_3``: one job per time step; when the policy first orders
  at t, exactly one more job arrives (t+1 jobs in total).
- ``fmax_general_golden``: one job at time 0; when started at t, t further
  jobs arrive at t+1.

One record per kind in ``_GAMES`` holds everything the kind decides: the
objective both sides are priced under, the default policy, the job source,
the offline solver and the closed-form ratio curve, if the game has one.

The ratio curves evaluate the two-branch games over integer wait times t:
c1 is the ratio when no further job arrives after the policy waits until t,
c2 the ratio when the adversary strikes.  The reported bound is the best
ratio the adversary can force, min over t of max(c1, c2).  Curve values are
floating point with a documented 1e-9 evaluation tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .model import Instance, Job, Objective, Solution, SolverError
from .offline_dp import dp_fmax_s1, fmax_unit_distinct
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

SUM_CJ_3_2 = "sum_cj_3_2"
WEIGHTED_GOLDEN = "weighted_golden"
SUM_FJ_3_2 = "sum_fj_3_2"
FMAX_REGULAR_4_3 = "fmax_regular_4_3"
FMAX_GENERAL_GOLDEN = "fmax_general_golden"

# The refusal of a w2 given where it is not read; format with what was given.
W2_MISPLACED = f"w2 applies only to {WEIGHTED_GOLDEN}, not to {{}}"

_R1 = frozenset({1})


@dataclass(frozen=True)
class AdversarySpec:
    """Which lower-bound game to play and its parameters."""

    kind: str
    order_cost: int
    w2: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _GAMES:
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
    """One job at time 0; a payload built from the time the policy starts it."""

    def __init__(self, build_payload: Callable[[int], list[Job]]):
        self.build_payload = build_payload
        self.first_delivered = False
        self.payload: list[Job] | None = None

    def reveal(self, t: int, view: SimView) -> list[Job]:
        out = []
        if not self.first_delivered:
            self.first_delivered = True
            out.append(Job(1, 0, 1, _R1, 1))
        if self.payload is None and 1 in view.started:
            self.payload = self.build_payload(view.started[1])
        if self.payload:
            due = [job for job in self.payload if job.release <= t]
            self.payload = [job for job in self.payload if job.release > t]
            out.extend(due)
        return out

    def finished(self, t: int, view: SimView) -> bool:
        # the payload is built at the start and released at start+1, strictly after it
        return self.payload is not None and not self.payload

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
            out.append(Job(self.next_release, self.next_release, 1, _R1, 1))
            self.next_release += 1
        return out

    def finished(self, t: int, view: SimView) -> bool:
        return self.cap is not None and self.next_release > self.cap

    def next_event(self, t: int, view: SimView) -> int | None:
        """The next step while the stream still emits a job per step."""
        return None if self.finished(t, view) else t + 1


def _second_job(spec: AdversarySpec) -> JobSource:
    return _ReactiveSource(lambda start: [Job(2, start + 1, 1, _R1, spec.w2 or 1)])


def _start_many(spec: AdversarySpec) -> JobSource:
    return _ReactiveSource(lambda start: [Job(2 + i, start + 1, 1, _R1, 1) for i in range(start)])


# The solvers are read from the module's globals at each call, so a patched
# module attribute (the benchmark's tracer) sees every game's offline side.
def _oracle(instance: Instance, objective: Objective) -> Solution:
    return exact_solve(instance, objective)


# A curve maps (K, w2) to its branches c1(t) and c2(t) and its limit.
def _no_strike(K: int) -> Callable[[int], float]:
    return lambda t: (K + t + 1) / (K + 1)


def _sum_cj_curve(K: int, w2: float | None):
    return _no_strike(K), lambda t: (2 * K + 2 * t + 3) / (K + 2 * t + 5), 1.5


def _weighted_curve(K: int, w2: float | None):
    if w2 is None or not math.isfinite(w2) or w2 <= 0:
        raise SolverError(f"the weighted curve needs a finite w2 > 0, got {w2}")

    def c2(t: int) -> float:
        return (2 * K + t + 1 + (t + 2) * w2) / (K + t + 2 + (t + 3) * w2)

    limit = (math.sqrt(4 * w2 + 5) + 2 * w2 + 1) / (2 * (w2 + 1))
    return _no_strike(K), c2, limit


def _sum_fj_curve(K: int, w2: float | None):
    # this game's adversary always releases the second job, so only the
    # strike branch constrains the policy
    return lambda t: 1.0, lambda t: (2 * K + t + 2) / min(2 * K + 2, K + t + 2), 1.5


def _general_curve(K: int, w2: float | None):
    return _no_strike(K), lambda t: (2 * K + t + 1) / (K + t + 2), (math.sqrt(5) + 1) / 2


class _Game(NamedTuple):
    objective: Objective  # both sides are priced under it
    policy: Callable[[int], OnlinePolicy]  # the default, for an order cost
    source: Callable[[AdversarySpec], JobSource]
    solve: Callable[[Instance, Objective], Solution]  # the realized instance's optimum
    curve: Callable[..., tuple] | None  # the closed-form ratio curve, if any


_GAMES = {
    SUM_CJ_3_2: _Game(
        Objective.TOTAL_COMPLETION, SumCompletionPolicy, _second_job, _oracle, _sum_cj_curve
    ),
    WEIGHTED_GOLDEN: _Game(
        Objective.WEIGHTED_COMPLETION, SumCompletionPolicy, _second_job, _oracle, _weighted_curve
    ),
    SUM_FJ_3_2: _Game(Objective.TOTAL_FLOW, SumFlowPolicy, _second_job, _oracle, _sum_fj_curve),
    # its realized instance is unit jobs at distinct releases
    FMAX_REGULAR_4_3: _Game(
        Objective.MAX_FLOW, MaxFlowGridPolicy, lambda spec: _RegularStreamSource(),
        lambda instance, objective: fmax_unit_distinct(instance), None,
    ),
    FMAX_GENERAL_GOLDEN: _Game(
        Objective.MAX_FLOW, lambda order_cost: ImmediatePolicy(), _start_many,
        lambda instance, objective: dp_fmax_s1(instance), _general_curve,
    ),
}
KINDS = tuple(_GAMES)
# The games with a closed-form ratio curve (see :func:`ratio_curve`).
CURVE_KINDS = tuple(kind for kind, game in _GAMES.items() if game.curve)


def default_policy(spec: AdversarySpec) -> OnlinePolicy:
    return _GAMES[spec.kind].policy(spec.order_cost)


def adversary_run(
    spec: AdversarySpec, policy: OnlinePolicy | None = None
) -> AdversaryOutcome:
    """Play the adversary against the policy and price both sides exactly.

    The realized instance is finalized once the adversary commits, the
    online run is priced under the kind's objective, the offline optimum is
    computed by the kind's solver (the enumeration oracle for the min-sum
    kinds, ``fmax_unit_distinct`` for the regular max-flow game's unit jobs
    at distinct releases, ``dp_fmax_s1`` for the general one), and the
    realized ratio is returned.
    """
    game = _GAMES[spec.kind]
    if policy is None:
        policy = default_policy(spec)
    result = simulate(
        game.source(spec),
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
    online, trace = price_run(instance, result, game.objective)
    offline = game.solve(instance, game.objective)
    return AdversaryOutcome(instance, online, offline, online.total / offline.total, trace)


@dataclass(frozen=True)
class RatioCurvePoint:
    """Minimax point of one adversary game's ratio curves."""

    order_cost: int
    t: int
    c1: float
    c2: float
    bound: float
    limit: float


def ratio_curve(kind: str, order_cost: int, w2: float | None = None) -> RatioCurvePoint:
    """Sweep integer wait times and return the adversary's best forced ratio.

    ``limit`` carries the curve's closed-form asymptote (for the weighted
    game as a function of w2, which no other game takes).  The sweep stops
    once the no-strike branch alone already exceeds the incumbent, or at a
    generous cap.
    """
    if order_cost < 1:
        raise SolverError("order cost must be >= 1")
    game = _GAMES.get(kind)
    if game is None or game.curve is None:
        raise SolverError(f"no closed-form ratio curve for kind {kind!r}")
    c1, c2, limit = game.curve(order_cost, w2)
    if w2 is not None and kind != WEIGHTED_GOLDEN:
        raise SolverError(W2_MISPLACED.format(kind))
    best: tuple[float, int, float, float] | None = None
    cap = 3 * order_cost + 30
    for t in range(cap + 1):
        v1 = c1(t)
        if best is not None and v1 >= best[0]:
            break
        v2 = c2(t)
        value = v1 if v1 > v2 else v2
        if best is None or value < best[0]:
            best = (value, t, v1, v2)
        elif kind == SUM_FJ_3_2 and t > order_cost + 2 and v2 >= best[0]:
            break
    value, t, v1, v2 = best
    return RatioCurvePoint(order_cost, t, v1, v2, value, limit)
