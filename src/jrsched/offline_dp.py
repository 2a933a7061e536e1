"""Polynomial-time offline solvers based on layered dynamic programs.

Four solvers, each exact within its stated problem class:

- :func:`dp_wjcj_unit` -- weighted total completion time, unit jobs, any
  fixed number of resource types (jobs may require several resources).
- :func:`dp_equalp` -- total completion time or maximum flow time when all
  processing times are equal.
- :func:`dp_fmax_s1` -- maximum flow time with a single resource type and
  arbitrary processing times.
- :func:`fmax_unit_distinct` -- fast special case of the above for unit
  jobs with pairwise distinct release dates.

States are deduplicated by a key tuple that holds only what later layers
read:

- :func:`dp_wjcj_unit` keys on (last order time per resource, scheduled
  set); costs add up, so the value is the weighted completion time plus the
  ordering cost so far.
- :func:`dp_equalp` keys on (scheduled count per class, last order's
  release anchor per resource).  When all jobs form one class, its
  max-flow Pareto pass also drops the pairs of a state dominated by a
  state of the same count whose last orders are at the same or later
  anchors.
- :func:`dp_fmax_s1` keys on the time the machine becomes free; its order
  count is part of the order cost.  Its Pareto pass also drops the pairs
  of a state dominated by a state that frees the machine earlier.

A partial solution is three ints: value, start code and order code.  In
the start code, sorted-id position k owns the w-bit field at shift
(n - 1 - k) * w, w the horizon's bit length; it holds the job's start,
never above the horizon, or 0 until the job is placed.  In the order
code, layer i owns the s-bit field at shift (layers - 1 - i) * s, which
holds its order mask.  Fields never overlap and the first is the most
significant, so codes compare as ints as their vectors do as tuples.
All three layered DPs run on :func:`_least`, an exact pass that keeps
per key the smallest (value, start code, order code).  The max-flow DPs
first find the optimum and every optimal final flow F by a Pareto pass
over (worst flow, order cost), then one exact pass per F, capped at F.

Both max-flow passes are a branch and bound over the layered graph
(Morin & Marsten, 1976).  Each max-flow graph bounds the jobs a key has
not placed: a least final flow, a least further order cost C(F) that
depends on the final flow F and does not increase with it, and one
complete path from the key, whose value is an incumbent; a graph may also
start from the value of any feasible solution as its incumbent.  The
Pareto pass drops a pair (f, c) when c plus the least F + C(F) over F at
least f and the least flow exceeds the incumbent, and the capped pass at
F skips a key whose value plus C(F) exceeds the budget or whose least
flow exceeds F.  Only paths of no optimal value are cut, so every optimal
path and every optimal F survive, and the tie rule below is decided
among the same survivors.

In :func:`dp_equalp`, C(F) counts orders.  A job released after the
anchor of the last i-order of a key needs a later i-order at a time from
its release r up to r + F - p, or its flow exceeds F.  The fewest points
that stab these windows, u_i(F), is what the greedy from the back of
:func:`equal_flow_cover` gives, so every completion of flow at most F
places at least u_i(F) i-orders, at distinct times.  Each order event
pays the joint cost K once and each i-order its item cost c_i, so it
pays at least C(F) = K max_i u_i(F) + sum_i c_i u_i(F).  Its incumbent
is the best piercing schedule (:func:`_piercing`).

One tie rule holds for every solver: it returns the smallest (total, start
vector, order vector) over the solutions its graph represents.  Two
partial solutions that meet at one key have placed the same jobs and share
every continuation, so their partial vectors compare exactly as the full
ones will.  The rule is decided there, so neither the order in which
states are reached nor a pruning that keeps that smallest solution can
change the output.  :func:`fmax_unit_distinct` follows the same rule over
its equal-flow candidates: a smaller F gives a smaller start vector.

Every solver returns a full :class:`~jrsched.model.Solution` with
recomputed costs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Hashable, Iterable
from itertools import accumulate
from operator import add, ge
from typing import NamedTuple

from .model import (
    CRITERIA,
    Instance,
    Objective,
    ReplenishmentStructure,
    Schedule,
    Solution,
    SolverError,
    empty_solution,
    evaluate_solution,
    normalize_replenishments,
    release_anchor,
)


def _order_table(instance: Instance) -> list[tuple[frozenset[int], int]]:
    """Per resource bit mask: the resources one order covers and its cost."""
    s = instance.num_resources
    table = [(frozenset(), 0)]
    for mask in range(1, 1 << s):
        resources = frozenset(i + 1 for i in range(s) if mask >> i & 1)
        table.append((resources, instance.order_cost(resources)))
    return table


def _start_shifts(instance: Instance) -> dict[int, int]:
    """Per job id, in id order, the shift of its field in a start code."""
    width = instance.horizon.bit_length()
    ids = sorted(job.id for job in instance.jobs)
    return {job_id: (len(ids) - 1 - k) * width for k, job_id in enumerate(ids)}


def _decode_starts(instance: Instance, shifts: dict[int, int], code: int) -> Schedule:
    """The schedule whose start code is ``code``."""
    field = (1 << instance.horizon.bit_length()) - 1
    return Schedule({job_id: code >> shift & field for job_id, shift in shifts.items()})


# ---------------------------------------------------------------------------
# Layered graphs


class _Cost:
    """A least further order cost C(F) that does not increase with the
    final flow F, as steps: ``costs[j]`` from ``flows[j]`` up to
    ``flows[j + 1]``, flows rising from 0 to a last one that is infinite
    and costs falling.  ``values[j]`` is the least F + C(F) over F >=
    ``flows[j]``, infinite at the last flow; ``most`` and ``least`` are the
    first cost and the last."""

    __slots__ = ("flows", "costs", "values", "most", "least")

    def __init__(self, flows: list[int], costs: list[int]) -> None:
        """The steps of the costs ``costs`` at the rising ``flows``, the
        first 0, less every step that does not fall."""
        self.flows: list[float] = []
        self.costs: list[int] = []
        for flow, cost in zip(flows, costs):
            if not self.costs or cost < self.costs[-1]:
                self.flows.append(flow)
                self.costs.append(cost)
        values = [math.inf]
        for flow, cost in zip(reversed(self.flows), reversed(self.costs)):
            values.append(min(values[-1], flow + cost))
        self.flows.append(math.inf)
        self.values = values[::-1]
        self.most = self.costs[0]
        self.least = self.costs[-1]

    def at(self, flow: float) -> int:
        """C(``flow``)."""
        return self.costs[bisect_right(self.flows, flow) - 1]


_FREE = _Cost([0], [0])


class _Graph(NamedTuple):
    """A layered graph whose complete paths are the solutions of one DP.

    ``edges(idx, exact)`` maps (key, order mask, cap) at layer ``idx`` to
    the blocks that may follow, as (target key, target layer or None when
    complete, value, start code), less those of worst flow above ``cap``.
    In an exact pass the value is what the block adds to the path's value
    and the code, added to the path's, holds the block's starts in their
    fields (0 if it is empty); otherwise the value is its worst flow and the
    code is not read.  The largest mask of ``orders`` sets the field width.

    A max-flow graph also has ``bounds(idx)``, which maps a key at layer
    ``idx`` to four things about the jobs its paths have not placed: a
    least final flow; a :class:`_Cost` C, where C(F) is at most the order
    cost of every way to place them with no flow above F; and the flow and
    further order cost of one way to place them.  ``incumbent`` is the
    value of a feasible solution, or infinite: it need not be a path.
    """

    layers: int
    start: Hashable  # the key of layer 0
    orders: list[tuple[int, int]]  # (mask, cost) of each order a layer may place
    edges: Callable[[int, bool], Callable[[Hashable, int, float], list[tuple]]]
    bounds: Callable[[int], Callable[[Hashable], tuple[int, _Cost, int, int]]] | None = None
    incumbent: float = math.inf


def _least(graph: _Graph, cap: float, budget: float, sizes: list | None = None) -> tuple:
    """Smallest (value, start code, order code) over the complete paths of
    ``graph`` with blocks under ``cap`` and value at most ``budget``, the
    order code decoded into its masks.  A path's value is its order costs
    plus what its blocks add; ``sizes`` receives each layer's state count.
    With bounds, a key whose least flow exceeds ``cap``, or whose value
    plus least cost C(``cap``) exceeds ``budget``, is not expanded: none of
    its complete paths is counted, so the smallest one is the same."""
    width = max(mask for mask, _ in graph.orders).bit_length()
    layers: list[dict | None] = [dict() for _ in range(graph.layers)]
    layers[0][graph.start] = (0, 0, 0)
    best = None
    for idx in range(graph.layers):
        if sizes is not None:
            sizes.append(len(layers[idx]))
        blocks_for = graph.edges(idx, True)
        shift = (graph.layers - 1 - idx) * width
        states = layers[idx].items()
        if graph.bounds:
            states = _within(states, graph.bounds(idx), cap, budget)
        for key, (value, starts, masks) in states:
            for mask, order_cost in graph.orders:
                value_after = value + order_cost
                if value_after > budget:
                    continue
                masks_after = masks | mask << shift
                for target_key, target, added, placed in blocks_for(key, mask, cap):
                    new_value = value_after + added
                    kept = best if target is None else layers[target].get(target_key)
                    if kept is not None and new_value > kept[0]:
                        continue
                    state = (new_value, starts + placed, masks_after)
                    if kept is None or state < kept:
                        if target is None:
                            best = state
                        else:
                            layers[target][target_key] = state
        layers[idx] = None
    value, starts, masks = best
    fields = range((graph.layers - 1) * width, -1, -width)
    return value, starts, [masks >> shift & (1 << width) - 1 for shift in fields]


def _within(states: Iterable[tuple], bound_for: Callable, cap: float, budget: float):
    """The (key, state) pairs of ``states`` that some complete path under
    ``cap`` and ``budget`` may pass, by the keys' bounds."""
    last = None
    for key, state in states:
        least_flow, further, _, _ = bound_for(key)
        # keys share least further costs, so C(cap) is read once per run
        if further is not last:
            last, room = further, budget - further.at(cap)
        if least_flow <= cap and state[0] <= room:
            yield key, state


def _pareto(
    bucket: list[tuple], optimum: float, least_flow: int = 0, further: _Cost = _FREE
) -> list[tuple]:
    """The undominated (flow, cost) pairs of ``bucket``, flows rising and
    costs strictly falling, less those whose every completion exceeds
    ``optimum``: a path completing a pair (f, c) ends with a flow F of at
    least max(f, ``least_flow``) and pays at least c + C(F) in all, C the
    least further cost ``further``."""
    # sorted, a pair is undominated when its cost is below every earlier one's
    entries = []
    lowest = math.inf
    # C lies between its least cost and its most, so most pairs are decided
    # by their least final flow plus cost alone
    kept_below = optimum - further.most
    dropped_above = optimum - further.least
    for flow, cost in sorted(bucket):
        if cost >= lowest:
            continue
        reach = (flow if flow > least_flow else least_flow) + cost
        if reach > kept_below:
            if reach > dropped_above:
                continue
            # the least F + C(F) over F >= final: on its step, or where a
            # later one starts
            final = reach - cost
            step = bisect_right(further.flows, final)
            value = final + further.costs[step - 1]
            if further.values[step] < value:
                value = further.values[step]
            if value + cost > optimum:
                continue
        entries.append((flow, cost))
        lowest = cost
    return entries


def _dominated(entry: tuple, frontier: list[tuple]) -> bool:
    """Whether a pair of the Pareto list ``frontier`` is no worse than
    ``entry`` in flow and cost."""
    # the pair with the largest flow at most the entry's has the least cost
    at = bisect_right(frontier, (entry[0], math.inf))
    return at > 0 and frontier[at - 1][1] <= entry[1]


def _optimal_flows(graph: _Graph, undominated: Callable[[list], list]) -> tuple[float, set[int]]:
    """The max-flow optimum of ``graph`` and every final flow of an optimal
    path, from per-key Pareto lists of (worst flow so far, order cost so far).

    What arrives at a key is reduced to its Pareto list once, by one sort,
    when the key's layer is expanded; ``undominated`` then filters the
    layer's (key, Pareto list) pairs, dropping a pair only where a kept one
    completes its every path at no more flow and cost.

    The incumbent ``optimum`` is the least value of a solution found so
    far: the graph's incumbent, a complete path, or the completion that the
    graph's bounds give each reduced pair; ``flows`` holds the final flows
    of the complete paths found at that value, and empties when a path or
    a completion lowers it.  A pair is dropped when the least value of its
    completions, from the key's least flow and least further cost, exceeds
    the incumbent.  The comparison is strict and the incumbent is never
    below the optimum, so every optimal path and final flow survives.
    """
    layers: list[dict | None] = [dict() for _ in range(graph.layers)]
    layers[0][graph.start] = [(0, 0)]
    optimum = graph.incumbent
    flows: set[int] = set()
    for idx in range(graph.layers):
        blocks_for = graph.edges(idx, False)
        bound_for = graph.bounds(idx)
        reduced = []
        for key, bucket in layers[idx].items():
            least_flow, further, flow_after, cost_after = bound_for(key)
            then = optimum
            entries = _pareto(bucket, then, least_flow, further)
            for crit, cost in entries:
                value = (crit if crit > flow_after else flow_after) + cost + cost_after
                if value < optimum:
                    optimum, flows = value, set()
            if entries:
                reduced.append((key, entries, least_flow, further, then))
        layers[idx] = None
        # a list reduced at the present incumbent is already filtered
        states = undominated([
            (key, kept) for key, entries, least_flow, further, then in reduced
            if (kept := entries if then == optimum
                else _pareto(entries, optimum, least_flow, further))
        ])
        for key, entries in states:
            for mask, order_cost in graph.orders:
                for target_key, target, block_flow, _ in blocks_for(key, mask, optimum):
                    if target is None:
                        for crit, cost in entries:
                            flow = crit if crit > block_flow else block_flow
                            value = flow + cost + order_cost
                            if value < optimum:
                                optimum, flows = value, {flow}
                            elif value == optimum:
                                flows.add(flow)
                        continue
                    bucket = layers[target].setdefault(target_key, [])
                    # flows falling and costs rising: once a flow is at most
                    # the block's, the rest reach it at higher cost
                    for crit, cost in reversed(entries):
                        if crit < block_flow:
                            crit = block_flow
                        cost += order_cost
                        if crit + cost <= optimum:
                            bucket.append((crit, cost))
                        if crit == block_flow:
                            break
    return optimum, flows


def _least_max_flow(graph: _Graph, undominated: Callable[[list], list]) -> tuple:
    """Smallest (order cost, start code, orders) over the max-flow optima of
    ``graph``: one exact pass per optimal final flow F, blocks capped at F.
    Its least cost is the optimum minus F, reached only by paths of flow F,
    so the passes' answers differ in their codes alone."""
    optimum, flows = _optimal_flows(graph, undominated)
    return min((_least(graph, flow, optimum - flow) for flow in flows), key=lambda run: run[1:])


# ---------------------------------------------------------------------------
# Weighted completion time, unit jobs


def dp_wjcj_unit(instance: Instance, stats: dict | None = None) -> Solution:
    """Optimal weighted total completion time plus ordering cost, unit jobs.

    The layers are the distinct release dates.  A state is keyed on the last
    ordering time per resource and the set of scheduled jobs, which is all
    that later layers read; its value is the weighted completion time plus
    the ordering cost so far, both of which add up.  Each order mask at the
    layer date leads to one block: the largest-weight ready jobs, as many as
    fit before the next date, or the horizon after the last.  There the block
    completes the path if it schedules every job, and otherwise it has no
    edge.  One exact pass of the shared driver keeps the module's tie rule.

    The key holds the scheduled set itself, not just how many jobs of each
    class (jobs sharing a required resource subset) are done.  Counts alone
    are not a sound dominance key: two histories can reach equal counts having
    scheduled different weight profiles, and the cheaper prefix may have the
    worse continuation, so merging on counts can lose the optimum.

    ``stats``, when given, receives ``states_per_layer``, the number of
    states at each release date, for bound checks.
    """
    objective = Objective.WEIGHTED_COMPLETION
    for job in instance.jobs:
        if job.processing != 1:
            raise SolverError(f"job {job.id} has processing {job.processing}; unit jobs required")
    if not instance.jobs:
        return empty_solution(objective)

    s = instance.num_resources
    n = len(instance.jobs)
    layer_times = instance.release_grid + (instance.horizon,)
    orders = _order_table(instance)
    shifts = _start_shifts(instance)
    # (weight, start-code shift, release, 0-based resource indices),
    # heaviest first, ties to the smaller id
    by_weight = [
        (job.weight, shifts[job.id], job.release, tuple(r - 1 for r in sorted(job.resources)))
        for job in sorted(instance.jobs, key=lambda job: (-job.weight, job.id))
    ]

    def edges(idx: int, exact: bool):
        """The one block of each (key, mask) at layer ``idx`` (see
        :class:`_Graph`); every pass is exact."""
        tau = layer_times[idx]
        window = layer_times[idx + 1] - tau
        target = None if idx + 2 == len(layer_times) else idx + 1

        def blocks_for(key: tuple, mask: int, cap: float) -> list[tuple]:
            betas, scheduled = key
            if mask:
                betas = tuple(tau if mask >> i & 1 else betas[i] for i in range(s))
            chosen: list = []
            for weight, shift, release, needs in by_weight:
                if shift in scheduled:
                    continue
                for i in needs:
                    if release > betas[i]:
                        break
                else:
                    chosen.append((weight, shift))
                    if len(chosen) == window:
                        break
            done = scheduled.union(shift for _, shift in chosen)
            if target is None and len(done) < n:
                return []
            added = placed = 0
            for offset, (weight, shift) in enumerate(chosen):
                added += weight * (tau + offset + 1)
                placed += (tau + offset) << shift
            return [((betas, done), target, added, placed)]

        return blocks_for

    # key: (last order time per resource, -1 if never, scheduled shifts)
    graph = _Graph(
        len(layer_times) - 1, ((-1,) * s, frozenset()),
        [(mask, cost) for mask, (_, cost) in enumerate(orders)], edges,
    )
    sizes = None
    if stats is not None:
        sizes = stats["states_per_layer"] = []
    _, starts, masks = _least(graph, math.inf, math.inf, sizes)
    schedule = _decode_starts(instance, shifts, starts)
    events = tuple((layer_times[idx], orders[mask][0]) for idx, mask in enumerate(masks) if mask)
    return evaluate_solution(instance, schedule, ReplenishmentStructure(events), objective)


# ---------------------------------------------------------------------------
# Equal processing times


def _stab_widths(needed: list[list[int]]) -> list[int]:
    """Ascending, every window width w at which the fewest points stabbing
    the windows [r, r + w - 1] of one list of ``needed`` releases may fall:
    1, and each positive difference of two releases of one list plus 1."""
    return sorted({1}.union(*(
        {later - release + 1 for release in releases for later in releases if later > release}
        for releases in needed
    )))


def _suffix_stabs(releases: list[int], widths: list[int]) -> list[list[int]]:
    """Per start k from 0 to len(``releases``), the releases sorted, and
    per width w of ``widths``: the fewest points stabbing the windows [r,
    r + w - 1] of releases[k:].  For each w one greedy from the back, as in
    :func:`equal_flow_cover`, counts every suffix: on releases[k:] it
    takes the same points until the one that serves the k-th."""
    counts = [[0] * len(widths) for _ in range(len(releases) + 1)]
    for column, width in enumerate(widths):
        idx = len(releases) - 1
        points = 0
        while idx >= 0:
            points += 1
            first = releases[idx] - width + 1
            while idx >= 0 and releases[idx] >= first:
                counts[idx][column] = points
                idx -= 1
    return counts


def _piercing(
    instance: Instance, needed: list[list[int]], widths: list[int], orders: list[tuple]
) -> tuple[int, int, dict[int, int], tuple]:
    """The least (flow, order cost) of the piercing schedules of
    ``instance``, whose jobs share one processing time: per width w of
    ``widths``, each resource is ordered at the fewest points that stab the
    windows [r, r + w - 1] of its ``needed`` releases
    (:func:`equal_flow_cover`), then the jobs run in (release, id) order,
    each as early as the machine and its orders allow.  Returns the flow,
    order cost, starts by job id and order events of the first least one.
    Each job has an order of each resource it needs at or after its
    release, so the schedule is feasible and its value is at least the
    optimum, though it need not be a path of :func:`dp_equalp`'s graph."""
    p = instance.jobs[0].processing
    by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    jobs = [(job.release, tuple(r - 1 for r in job.resources)) for job in by_release]
    best = None
    last = None
    for width in widths:
        covers = [equal_flow_cover(releases, width) for releases in needed]
        if covers == last:
            continue
        last = covers
        masks: dict[int, int] = {}
        for i, times in enumerate(covers):
            for t in times:
                masks[t] = masks.get(t, 0) | 1 << i
        cost = sum(orders[mask][1] for mask in masks.values())
        free = flow = 0
        starts = []
        for release, needs in jobs:
            start = free
            for i in needs:
                ordered = covers[i][bisect_left(covers[i], release)]
                if ordered > start:
                    start = ordered
            starts.append(start)
            free = start + p
            if free - release > flow:
                flow = free - release
        if best is None or flow + cost < best[0]:
            best = (flow + cost, flow, cost, starts, masks)
    _, flow, cost, starts, masks = best
    events = tuple((t, orders[masks[t]][0]) for t in sorted(masks))
    return flow, cost, {job.id: start for job, start in zip(by_release, starts)}, events


def dp_equalp(instance: Instance, objective: Objective) -> Solution:
    """Optimal total completion time or maximum flow time for equal-length jobs.

    The layer times are every release date shifted by whole multiples of the
    common processing time, which covers all start and completion times of
    schedules without unnecessary idling.  Expanding a state may order any
    resource subset at the layer time and then starts ready unscheduled jobs
    as one block in non-decreasing release order.  A state is keyed on the
    scheduled count per class (jobs sharing one resource set) and the
    release anchor of each resource's last order.

    For the completion-time criterion the block always takes every ready
    job: idling while something could run only pushes completions later.
    For the max-flow criterion every block length is tried, because holding
    a ready job back can keep the machine free for a more urgent job that a
    later order unlocks; a release-ordered prefix is always among the
    optimal choices by an exchange argument.  The final structure is pulled
    back onto the release grid, which preserves feasibility and cost.

    The answer is the smallest (total, start vector, order vector) over the
    solutions the layered graph represents: one pass for total completion,
    each key keeping its smallest (total, start code, order code), and the
    module's two shared passes for max flow.  Blocks above the cap, or
    above the Pareto pass's incumbent, are not built.

    The max-flow passes bound each key by the jobs it has not placed, all
    of which start at the layer time tau or later:

    - Least flow: tau + max_k(k p - r_(k)), k the rank from 1 in release
      order, cached per count vector.  With a common start, release order
      minimizes max(C - r) (Jackson's rule), and no job starts before tau.
    - Least further cost: C(F) = K max_i u_i(F) + sum_i c_i u_i(F), cached
      per last-order anchors.  A placed job was released by the anchor of
      every resource it needs, so the jobs released after resource i's
      anchor are all unplaced, and each needs an i-order in [r, r + F - p]
      for a flow of at most F.  The greedy from the back puts a point at
      the latest release not yet served, the leftmost point of the window
      that starts last: any stabbing set has a point in that window, and
      the greedy's serves every window that one serves, so by induction no
      set has fewer points (u_i(F)).  Each order event pays K once and each
      i-order c_i, and C(F) does not increase with F, since wider windows
      need no more points.  The counts of every suffix of each resource's
      releases at every width where one can fall are built once per call,
      only under max flow.  For large F, C is one order of the short
      resources, those with a job released after their anchor.
    - Completion: that order at T, the later of tau and the last unplaced
      release, then every unplaced job back to back from T in release
      order, for a flow of T + max_k(k p - r_(k)) at C's least value.  It
      starts at T even when orders are free, because the jobs released
      after tau are only covered there.
    - Incumbent, before layer 0: the best piercing schedule over every
      width where a count can fall (:func:`_piercing`).  It is feasible,
      so its value is never below the optimum, though it need not be a
      path of the graph: an order may fall while the machine is busy,
      where no layer places one.  Only its value is read, and only keys
      and pairs whose every completion exceeds it are cut, ties kept, so
      every optimal path and final flow survives and the output is the
      same.

    When all jobs form one class, the Pareto pass also compares the states
    of one layer across anchors.  Take two states with the same count,
    where the last orders of the first are at the same or later anchors
    than the second's on every resource.  The first's ready list extends
    the second's with the same release-ordered prefixes, so it can run
    every block the second can, after the same orders, with the same flows
    and costs into keys that compare the same way.  A pair of the second
    is therefore dropped when a pair of the first is no worse in (worst
    flow, order cost).  The capped passes do not compare across anchors;
    measured, it saved them under 1 %.  With several classes, later anchors
    can put a job of one class between two of another, so the prefixes
    differ and the comparison would change tied outputs; it is not made.

    An empty block waits for the next layer whose time is a release date.
    Between two release dates every order covers the same jobs, so a block
    started after idling onto another layer could start, with its order,
    on the layer the idling left, and the blocks after it could move
    earlier with it.  That costs no more, raises no flow or completion time
    and makes the start vector smaller, so the skip never removes the
    smallest solution.  The tests compare the answer with a walk over every
    path of the graph without the skip.
    """
    if objective not in (Objective.TOTAL_COMPLETION, Objective.MAX_FLOW):
        raise SolverError(f"unsupported objective {objective.value} for the equal-length solver")
    if not instance.jobs:
        return empty_solution(objective)
    p = instance.jobs[0].processing
    for job in instance.jobs:
        if job.processing != p:
            raise SolverError(
                f"job {job.id} has processing {job.processing}, expected common value {p}"
            )
        if objective is Objective.TOTAL_COMPLETION and job.weight != 1:
            raise SolverError(
                f"job {job.id} has weight {job.weight}; the total-completion variant"
                " handles unit weights only"
            )

    s = instance.num_resources
    n = len(instance.jobs)
    grid = instance.release_grid
    layer_times = sorted({tau + lam * p for tau in grid for lam in range(n + 1)})
    num_layers = len(layer_times)
    use_max_flow = objective is Objective.MAX_FLOW
    job_value, combine = CRITERIA[objective]
    # the first layer after each layer whose time is a release date, or None
    release_dates = set(grid)
    next_release: list[int | None] = [None] * num_layers
    for idx in range(num_layers - 2, -1, -1):
        later = idx + 1
        next_release[idx] = later if layer_times[later] in release_dates else next_release[later]

    orders = _order_table(instance)
    shifts = _start_shifts(instance)
    # a class is the jobs sharing one resource set; per class, in release
    # order: (rank in the release order of all jobs, start-code shift,
    # job, class), plus the releases and the 0-based resources
    class_keys = sorted({tuple(sorted(job.resources)) for job in instance.jobs})
    class_index = {key: idx for idx, key in enumerate(class_keys)}
    class_jobs: list[list[tuple]] = [[] for _ in class_keys]
    by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    for rank, job in enumerate(by_release):
        ell = class_index[tuple(sorted(job.resources))]
        class_jobs[ell].append((rank, shifts[job.id], job, ell))
    class_releases = [[job.release for _, _, job, _ in jobs] for jobs in class_jobs]
    class_needs = [tuple(r - 1 for r in key) for key in class_keys]
    anchors = [release_anchor(grid, tau) for tau in layer_times]

    def edges(idx: int, exact: bool):
        """The blocks of layer ``idx`` (see :class:`_Graph`), built once per
        (scheduled counts, last orders) for all the states and masks that
        reach the pair: the empty block first, then by size, so the flows
        never fall.  A cap that falls within the layer may still get blocks
        above it."""
        built: dict[tuple, list[tuple]] = {}
        anchor = anchors[idx]
        # an exact max-flow pass minimizes the order cost alone
        weigh = not (exact and use_max_flow)

        def blocks_for(key: tuple, mask: int, cap: float) -> list[tuple]:
            alphas, betas = key
            if mask:
                betas = tuple(anchor if mask >> i & 1 else betas[i] for i in range(s))
            blocks = built.get((alphas, betas))
            if blocks is not None:
                return blocks
            blocks = built[alphas, betas] = []
            # per-class scheduled jobs are always a release-ordered prefix, so
            # the counts identify them exactly; the ready ones follow it up to
            # the last job released by the class's earliest last order
            ready: list[tuple] = []
            classes = 0
            for ell, needs in enumerate(class_needs):
                limit = betas[needs[0]]
                for i in needs:
                    if betas[i] < limit:
                        limit = betas[i]
                upto = bisect_right(class_releases[ell], limit)
                if upto > alphas[ell]:
                    ready += class_jobs[ell][alphas[ell]:upto]
                    classes += 1
            if classes > 1:
                ready.sort()
            # the empty block waits for the next release date
            if (use_max_flow or not ready) and next_release[idx] is not None:
                blocks.append(((alphas, betas), next_release[idx], 0, 0))
            new_alphas = list(alphas)
            placed = block_value = 0
            start = layer_times[idx]
            remaining = n - sum(alphas)
            for size, (_, shift, job, ell) in enumerate(ready, start=1):
                new_alphas[ell] += 1
                placed += start << shift
                start += p
                block_value = combine(block_value, job_value(job.weight, job.release, start))
                if not use_max_flow and size < len(ready):
                    continue
                if block_value > cap:
                    break
                if size == remaining:
                    target = None
                else:
                    # next decision point: first layer at or after the completion
                    target = bisect_left(layer_times, start)
                    if target >= num_layers:
                        continue
                blocks.append(
                    ((tuple(new_alphas), betas), target, block_value if weigh else 0, placed)
                )
            return blocks

        return blocks_for

    def undominated(states: list[tuple]) -> list[tuple]:
        """One layer's (key, Pareto list) ``states``, less the pairs that a
        pair kept at the same counts and the same or later anchors is no
        worse than.  Later anchors are taken first, so they are kept."""
        result = []
        group = None
        kept: list[tuple] = []
        for (alphas, betas), entries in sorted(states, reverse=True):
            if alphas != group:
                group, kept = alphas, []
            for other_betas, other in kept:
                if all(map(ge, other_betas, betas)):
                    entries = [entry for entry in entries if not _dominated(entry, other)]
                    if not entries:
                        break
            else:
                kept.append((betas, entries))
                result.append(((alphas, betas), entries))
        return result

    # a resource never ordered has anchor -1, before every release
    graph = _Graph(
        num_layers, ((0,) * len(class_keys), (-1,) * s),
        [(mask, cost) for mask, (_, cost) in enumerate(orders)], edges,
    )
    if not use_max_flow:
        _, starts, masks = _least(graph, math.inf, math.inf)
    else:
        # per resource, the sorted releases of the jobs that need it, and
        # per start k of those and per width: the fewest stabbing points
        needed = [
            sorted(job.release for job in instance.jobs if i + 1 in job.resources)
            for i in range(s)
        ]
        widths = _stab_widths(needed)
        stabs = [_suffix_stabs(releases, widths) for releases in needed]
        step_flows = [0] + [width + p - 1 for width in widths[1:]]
        # per count vector: max_k(k p - r_(k)) over the unplaced jobs, k
        # their rank in release order from 1, and their last release
        tails: dict[tuple, tuple[int, int]] = {}
        # per last-order anchors: the least further order cost
        furthers: dict[tuple, _Cost] = {}

        def further_for(betas: tuple) -> _Cost:
            """C(F) = K max_i u_i(F) + sum_i c_i u_i(F), u_i(F) the fewest
            i-orders that serve the jobs released after ``betas[i]``."""
            most = items = None
            for i, beta in enumerate(betas):
                counts = stabs[i][bisect_right(needed[i], beta)]
                if counts[0]:
                    paid = [instance.item_costs[i] * u for u in counts]
                    if most is None:
                        most, items = counts, paid
                    else:
                        most, items = list(map(max, most, counts)), list(map(add, items, paid))
            if most is None:
                return _FREE
            joint = instance.joint_cost
            return _Cost(step_flows, [joint * u + paid for u, paid in zip(most, items)])

        def bounds(idx: int):
            """The four things of a key at layer ``idx`` (see :class:`_Graph`)."""
            tau = layer_times[idx]

            def bound_for(key: tuple) -> tuple[int, _Cost, int, int]:
                alphas, betas = key
                tail = tails.get(alphas)
                if tail is None:
                    rest = sorted(
                        release for ell, done in enumerate(alphas)
                        for release in class_releases[ell][done:]
                    )
                    tail = tails[alphas] = (
                        max(k * p - release for k, release in enumerate(rest, start=1)), rest[-1]
                    )
                jackson, last = tail
                further = furthers.get(betas)
                if further is None:
                    further = furthers[betas] = further_for(betas)
                completion = (last if last > tau else tau) + jackson
                return tau + jackson, further, completion, further.least

            return bound_for

        flow, cost, _, _ = _piercing(instance, needed, widths, orders)
        # states compare across anchors with one class only (see above)
        filtered = undominated if len(class_keys) == 1 else lambda states: states
        _, starts, masks = _least_max_flow(
            graph._replace(bounds=bounds, incumbent=flow + cost), filtered
        )

    schedule = _decode_starts(instance, shifts, starts)
    events = tuple((layer_times[idx], orders[mask][0]) for idx, mask in enumerate(masks) if mask)
    solution = evaluate_solution(instance, schedule, ReplenishmentStructure(events), objective)
    return normalize_replenishments(instance, solution)


# ---------------------------------------------------------------------------
# Maximum flow time, one resource, arbitrary processing times


def dp_fmax_s1(instance: Instance) -> Solution:
    """Optimal maximum flow time plus ordering cost for a single resource.

    Jobs run in non-decreasing release order, which is optimal here; jobs
    sharing a release date form one group, in id order.  Layer i means: the
    orders so far serve the first i groups.  A state is keyed on the time
    the machine becomes free, which is all that later layers read.  The edge
    from layer i to a later layer j is one order at the j-th release date,
    serving groups i+1 to j as one back-to-back block, started once both
    the machine and the order are ready.

    The DP runs on the max-flow passes shared with :func:`dp_equalp` and
    returns the smallest (total, start vector, order vector) over its
    graph.  The order vector marks each layer a solution leaves; every
    solution leaves layer 0 and orders at the last release date, so these
    marks compare as the marks of the order dates do.

    The max-flow passes bound a free time at layer i by the jobs after
    its first i groups.  Each later block starts at the free time or
    later, so the least flow is free - prefix_p[lo] plus the largest tail
    of the later groups; at least one more order is placed, so the least
    further cost is its order cost at every final flow; and the completion
    is the one block to the last layer, ordered at the last release date.
    """
    objective = Objective.MAX_FLOW
    order_cost = instance.single_resource_order_cost
    if not instance.jobs:
        return empty_solution(objective)

    ordered = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    shifts = _start_shifts(instance)
    dates = instance.release_grid
    m = len(dates)
    # group_end[g] = index in ``ordered`` one past group g (1-based)
    releases = [job.release for job in ordered]
    group_end = [0] + [bisect_right(releases, date) for date in dates]
    prefix_p = [0, *accumulate(job.processing for job in ordered)]
    # A block started at b after the first lo jobs completes job k at
    # b - prefix_p[lo] + prefix_p[k + 1], so its worst flow is b - prefix_p[lo]
    # plus the largest tail prefix_p[k + 1] - release_k over the block.
    group_tail = [0] + [
        max(prefix_p[k + 1] - releases[k] for k in range(lo, hi))
        for lo, hi in zip(group_end, group_end[1:])
    ]
    # It starts job k at offset + prefix_p[k], offset = b - prefix_p[lo], so its
    # start code is cum_p[hi] - cum_p[lo] + offset * (cum_u[hi] - cum_u[lo]).
    cum_p = [0, *accumulate(prefix_p[k] << shifts[job.id] for k, job in enumerate(ordered))]
    cum_u = [0, *accumulate(1 << shifts[job.id] for job in ordered)]

    def edges(i: int, exact: bool):
        """The blocks leaving layer ``i`` (see :class:`_Graph`), one per
        later layer, whose flows never fall."""
        lo = group_end[i]

        def blocks_for(free: int, mask: int, cap: float) -> list[tuple]:
            blocks = []
            tail = group_tail[i + 1]
            for j in range(i + 1, m + 1):
                if group_tail[j] > tail:
                    tail = group_tail[j]
                order_time = dates[j - 1]
                offset = (free if free > order_time else order_time) - prefix_p[lo]
                worst = offset + tail
                if worst > cap:
                    break
                hi = group_end[j]
                if exact:
                    placed = cum_p[hi] - cum_p[lo] + offset * (cum_u[hi] - cum_u[lo])
                    blocks.append((offset + prefix_p[hi], j if j < m else None, 0, placed))
                else:
                    blocks.append((offset + prefix_p[hi], j if j < m else None, worst, 0))
            return blocks

        return blocks_for

    def undominated(states: list[tuple]) -> list[tuple]:
        """One layer's (free time, Pareto list) ``states``, less the pairs
        that a pair kept at an earlier free time is no worse than: after
        it, every block starts no later."""
        result = []
        frontier: list[tuple] = []
        for free, entries in sorted(states):
            entries = [entry for entry in entries if not _dominated(entry, frontier)]
            if entries:
                result.append((free, entries))
                frontier = _pareto(frontier + entries, math.inf)
        return result

    # rest_tail[i]: the largest tail of groups i + 1 to m
    rest_tail = list(accumulate(reversed(group_tail[1:]), max))[::-1]
    further = _Cost([0], [order_cost])

    def bounds(i: int):
        """The four numbers of a free time at layer ``i`` (see
        :class:`_Graph`): every later block starts at ``free`` or later, and one
        order at the last release date completes the path."""
        lo = group_end[i]
        tail = rest_tail[i]

        def bound_for(free: int) -> tuple[int, _Cost, int, int]:
            last = free if free > dates[-1] else dates[-1]
            return free - prefix_p[lo] + tail, further, last - prefix_p[lo] + tail, order_cost

        return bound_for

    graph = _Graph(m, 0, [(1, order_cost)], edges, bounds)
    _, starts, masks = _least_max_flow(graph, undominated)
    left = [i for i, mask in enumerate(masks) if mask]
    events = tuple((dates[j - 1], frozenset({1})) for j in left[1:] + [m])
    schedule = _decode_starts(instance, shifts, starts)
    return evaluate_solution(instance, schedule, ReplenishmentStructure(events), objective)


# ---------------------------------------------------------------------------
# Unit jobs, distinct release dates


def equal_flow_cover(releases: list[int], flow: int) -> list[int]:
    """Order times covering the equal-flow schedule, greedily from the back.

    Every job starts at release + flow - 1, so an order at the release of
    the last unserved job serves exactly the jobs released within the
    flow-window ending there.  The returned count is the minimum possible
    for this flow value.  ``releases`` must be sorted ascending.
    """
    times: list[int] = []
    idx = len(releases) - 1
    while idx >= 0:
        anchor = releases[idx]
        times.append(anchor)
        while idx >= 0 and releases[idx] >= anchor - flow + 1:
            idx -= 1
    times.reverse()
    return times


def fmax_unit_distinct(instance: Instance) -> Solution:
    """Fast solver for unit jobs with distinct releases and one resource.

    Some optimal solution gives every job the same flow time F, so the
    problem reduces to minimizing F plus the order cost times the greedy
    cover count u(F).  u(F) is non-increasing in F, and for a fixed cover
    count the smallest F is cheapest, so it suffices to evaluate, for every
    possible count, the smallest F attaining it (found by binary search; F
    can exceed the number of jobs when releases are sparse).  Ties go to
    the smaller F, whose start vector is smaller, as the module's one tie
    rule asks of the candidates.

    The counts are tried in ascending order, so their F falls, and each
    search starts below the last F.  A count c prices every F not yet
    tried at K c + 1 or more, so the search stops once that exceeds the
    best total; the stop is strict, so a tie at a smaller F is still found.
    """
    objective = Objective.MAX_FLOW
    order_cost = instance.single_resource_order_cost
    for job in instance.jobs:
        if job.processing != 1:
            raise SolverError(f"job {job.id} has processing {job.processing}; unit jobs required")
    n = len(instance.jobs)
    if n == 0:
        return empty_solution(objective)
    releases = sorted(job.release for job in instance.jobs)
    if len(set(releases)) != n:
        raise SolverError("release dates must be pairwise distinct")

    best = None
    hi = releases[-1] - releases[0] + 1  # one order suffices from here on
    for target in range(1, len(equal_flow_cover(releases, 1)) + 1):
        # every F not yet tried needs at least ``target`` orders
        if best is not None and order_cost * target + 1 > best[0]:
            break
        # the smallest F needing at most ``target`` orders, at most the last one
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            if len(equal_flow_cover(releases, mid)) <= target:
                hi = mid
            else:
                lo = mid + 1
        candidate = (hi + order_cost * len(equal_flow_cover(releases, hi)), hi)
        if best is None or candidate < best:
            best = candidate
    _, flow = best
    starts = {job.id: job.release + flow - 1 for job in instance.jobs}
    events = tuple((t, frozenset({1})) for t in equal_flow_cover(releases, flow))
    return evaluate_solution(
        instance, Schedule(starts), ReplenishmentStructure(events), objective
    )
