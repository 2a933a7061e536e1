"""Offline lower bounds on the max-flow optimum of a single resource type.

Any solution whose largest flow time is F needs at least ceil(total
processing / F) orders, so min over F of (K * ceil(p_sum / F) + F) bounds the
max-flow optimum from below; dropping the ceiling and minimizing over real F
relaxes this to 2*sqrt(K * p_sum).

The closed-form ratio curves of the adversary games live with the games, in
:mod:`jrsched.adversaries`; this module imports nothing but the model.
"""

from __future__ import annotations

import math

from .model import Instance, SolverError


def lb_ceiling(instance: Instance) -> int:
    """Exact integer bound min over F of (K * ceil(p_sum / F) + F).

    Equals the max-flow offline optimum on one-job-per-step inputs; a lower
    bound in general.  Requires a single resource type.
    """
    order_cost = instance.single_resource_order_cost
    p_sum = instance.total_processing
    if p_sum == 0:
        return 0
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
    try:
        return 2.0 * math.sqrt(instance.single_resource_order_cost * instance.total_processing)
    except OverflowError:
        raise SolverError("2*sqrt(K * p_sum) exceeds the float range") from None
