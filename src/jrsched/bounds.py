"""Offline lower bounds and closed-form competitive-ratio curves.

The instance bounds work for a single resource type: any solution whose
largest flow time is F needs at least ceil(total processing / F) orders, so
min over F of (K * ceil(p_sum / F) + F) bounds the max-flow optimum from
below; dropping the ceiling and minimizing over real F relaxes this to
2*sqrt(K * p_sum).

The ratio curves evaluate the two-branch adversary games over integer wait
times t: c1 is the ratio when no further job arrives after the policy waits
until t, c2 the ratio when the adversary strikes.  The reported bound is
the best ratio the adversary can force, min over t of max(c1, c2).  Curve
values are floating point with a documented 1e-9 evaluation tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Instance, SolverError

# The adversary games (see :mod:`jrsched.adversaries`, which plays them).
# They are named here so that this module imports nothing but the model.
SUM_CJ_3_2 = "sum_cj_3_2"
WEIGHTED_GOLDEN = "weighted_golden"
SUM_FJ_3_2 = "sum_fj_3_2"
FMAX_REGULAR_4_3 = "fmax_regular_4_3"
FMAX_GENERAL_GOLDEN = "fmax_general_golden"

KINDS = (SUM_CJ_3_2, WEIGHTED_GOLDEN, SUM_FJ_3_2, FMAX_REGULAR_4_3, FMAX_GENERAL_GOLDEN)
# The games with a closed-form ratio curve (see :func:`ratio_curve`).
CURVE_KINDS = (SUM_CJ_3_2, WEIGHTED_GOLDEN, SUM_FJ_3_2, FMAX_GENERAL_GOLDEN)
# The refusal of a w2 given where it is not read; format with what was given.
W2_MISPLACED = f"w2 applies only to {WEIGHTED_GOLDEN}, not to {{}}"


def lb_ceiling(instance: Instance) -> int:
    """Exact integer bound min over F of (K * ceil(p_sum / F) + F).

    Equals the max-flow offline optimum on one-job-per-step inputs; a lower
    bound in general.  Requires a single resource type.
    """
    if instance.num_resources != 1:
        raise SolverError("lower bounds require a single resource type")
    p_sum = instance.total_processing
    if p_sum == 0:
        return 0
    order_cost = instance.single_resource_order_cost
    # For each count ceil(p_sum / F) only its smallest F can be the minimum,
    # so the walk visits one F per distinct count, O(sqrt(p_sum)) of them.
    best = order_cost * p_sum + 1
    count = p_sum
    while count > 1:
        flow = -(-p_sum // (count - 1))
        count = -(-p_sum // flow)
        best = min(best, order_cost * count + flow)
    return best


def lb_sqrt(instance: Instance) -> float:
    """Relaxation 2*sqrt(K * p_sum); never exceeds :func:`lb_ceiling`."""
    if instance.num_resources != 1:
        raise SolverError("lower bounds require a single resource type")
    return 2.0 * math.sqrt(instance.single_resource_order_cost * instance.total_processing)


@dataclass(frozen=True)
class RatioCurvePoint:
    """Minimax point of one adversary game's ratio curves."""

    order_cost: int
    t: int
    c1: float
    c2: float
    bound: float
    limit: float


def _curves(kind: str, order_cost: int, w2: float | None):
    K = order_cost

    def c1(t: int) -> float:
        return (K + t + 1) / (K + 1)

    if kind == SUM_CJ_3_2:

        def c2(t: int) -> float:
            return (2 * K + 2 * t + 3) / (K + 2 * t + 5)

        return c1, c2, 1.5
    if kind == WEIGHTED_GOLDEN:
        if w2 is None or not math.isfinite(w2) or w2 <= 0:
            raise SolverError(f"the weighted curve needs a finite w2 > 0, got {w2}")

        def c2(t: int) -> float:
            return (2 * K + t + 1 + (t + 2) * w2) / (K + t + 2 + (t + 3) * w2)

        limit = (math.sqrt(4 * w2 + 5) + 2 * w2 + 1) / (2 * (w2 + 1))
        return c1, c2, limit
    if kind == SUM_FJ_3_2:
        # this game's adversary always releases the second job, so only the
        # strike branch constrains the policy
        def flat(t: int) -> float:
            return 1.0

        def c2(t: int) -> float:
            return (2 * K + t + 2) / min(2 * K + 2, K + t + 2)

        return flat, c2, 1.5
    if kind == FMAX_GENERAL_GOLDEN:

        def c2(t: int) -> float:
            return (2 * K + t + 1) / (K + t + 2)

        return c1, c2, (math.sqrt(5) + 1) / 2
    raise SolverError(f"no closed-form ratio curve for kind {kind!r}")


def ratio_curve(kind: str, order_cost: int, w2: float | None = None) -> RatioCurvePoint:
    """Sweep integer wait times and return the adversary's best forced ratio.

    ``limit`` carries the curve's closed-form asymptote (for the weighted
    game as a function of w2, which no other game takes).  The sweep stops
    once the no-strike branch alone already exceeds the incumbent, or at a
    generous cap.
    """
    if order_cost < 1:
        raise SolverError("order cost must be >= 1")
    c1, c2, limit = _curves(kind, order_cost, w2)
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
