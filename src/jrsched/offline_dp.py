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
  release anchor per resource).
- :func:`dp_fmax_s1` keys on the time the machine becomes free; its order
  count is part of the order cost.

A partial solution is three ints: value, start code and order code.  In
the start code, sorted-id position k owns the w-bit field at shift
(n - 1 - k) * w, w the horizon's bit length; it holds the job's start,
never above the horizon, or 0 until the job is placed.  In the order
code, layer i owns the s-bit field at shift (layers - 1 - i) * s, which
holds its order mask.  Fields never overlap and the first is the most
significant, so codes compare as ints as their vectors do as tuples.
All three layered DPs run on :func:`_least`, an exact pass that keeps
per key the smallest (value, start code, order code).  The max-flow DPs
run it capped, with blocks of flow at most a cap F and the order cost as
the value, and :func:`_least_max_flow` scans the caps.

The capped passes are a branch and bound over the layered graph (Morin &
Marsten, 1976).  Each max-flow graph bounds the jobs a key has not
placed by a least final flow and a least further order cost C(F) that
depends on the final flow F and does not increase with it, and starts
from the value of a feasible solution as its incumbent.  The pass at F
skips a key whose value plus C(F) exceeds the budget or whose least flow
exceeds F; the scan runs passes only where F + C(F) at the start key can
reach the best total.  Only paths of no optimal value are cut, so every
optimal path survives, and the tie rule below is decided among the same
survivors.

C(F) counts orders.  Each graph fixes an order of the jobs it runs: all
of them by release in :func:`dp_fmax_s1`, each class by release in
:func:`dp_equalp`.  Under flow F a job completes by r + F and before the
next job of that order starts, so it starts by d + F, d = min(r, next
d) - p (:func:`_dues`), and it needs an order of each resource it uses
in [r, d + F].  The fewest points that stab the windows of the jobs a
key has not served, u_i(F) per resource i, is what the greedy from the
back (:func:`_stab`) gives, so every completion of flow at most F places
at least u_i(F) i-orders, at distinct times.  Each order event pays the
joint cost K once and each i-order its item cost c_i, so it pays at
least C(F) = K max_i u_i(F) + sum_i c_i u_i(F).  The incumbent is the
best piercing schedule (:func:`_piercing`), which orders at one F's
stabbing points.

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
from collections.abc import Callable, Hashable, Iterable, Iterator
from functools import partial
from itertools import accumulate
from operator import add
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


def _flow_of(instance: Instance, shifts: dict[int, int]) -> Callable[[int], int]:
    """The maximum flow of the schedule of a start code."""
    field = (1 << instance.horizon.bit_length()) - 1
    tails = [(shifts[job.id], job.processing - job.release) for job in instance.jobs]
    return lambda code: max((code >> shift & field) + tail for shift, tail in tails)


# ---------------------------------------------------------------------------
# Layered graphs


class _Cost:
    """A least further order cost C(F) that does not increase with the
    final flow F, as steps: ``costs[j]`` from ``flows[j]`` up to
    ``flows[j + 1]``, flows rising to a last one that is infinite and costs
    falling.  Below ``flows[0]`` it is ``costs[0]``, which a least cost
    that does not increase with F is at least there."""

    __slots__ = ("flows", "costs")

    def __init__(self, flows: list[int], costs: list[int]) -> None:
        """The steps of the costs ``costs`` at the rising ``flows``, less
        every step that does not fall."""
        self.flows: list[float] = []
        self.costs: list[int] = []
        for flow, cost in zip(flows, costs):
            if not self.costs or cost < self.costs[-1]:
                self.flows.append(flow)
                self.costs.append(cost)
        self.flows.append(math.inf)

    def __call__(self, flow: float) -> int:
        """C(``flow``)."""
        step = bisect_right(self.flows, flow)
        return self.costs[step - 1 if step else 0]


_FREE = _Cost([0], [0])


class _Graph(NamedTuple):
    """A layered graph whose complete paths are the solutions of one DP.

    ``edges(idx)`` maps (key, order mask, cap) at layer ``idx`` to the
    blocks that may follow, as (target key, target layer or None when
    complete, value, start code), less those of worst flow above ``cap``.
    The value is what the block adds to the path's value, 0 under max flow,
    and the code, added to the path's, holds the block's starts in their
    fields (0 if it is empty).  The largest mask of ``orders`` sets the
    field width.

    A max-flow graph also has ``bounds(idx)``, which maps a key at layer
    ``idx`` to two things about the jobs its paths have not placed: a least
    final flow, and a callable C, where C(F) is at most the order cost of
    every way to place them with no flow above F.  The start key's C is a
    :class:`_Cost` whose first flow no path's flow is below.  ``incumbent``
    is the value of a feasible solution, or infinite: it need not be a path.
    """

    layers: int
    start: Hashable  # the key of layer 0
    orders: list[tuple[int, int]]  # (mask, cost) of each order a layer may place
    edges: Callable[[int], Callable[[Hashable, int, float], list[tuple]]]
    bounds: Callable[[int], Callable[[Hashable], tuple[int, Callable[[float], int]]]] | None = None
    incumbent: float = math.inf


def _least(graph: _Graph, cap: float, budget: float, sizes: list | None = None) -> tuple | None:
    """Smallest (value, start code, order code) over the complete paths of
    ``graph`` with blocks under ``cap`` and value at most ``budget``, the
    order code decoded into its masks, or None if there is none.  A path's
    value is its order costs plus what its blocks add; ``sizes`` receives
    each layer's state count.  With bounds, a key whose least flow exceeds
    ``cap``, or whose value plus least cost C(``cap``) exceeds ``budget``,
    is not expanded: none of its complete paths is counted, so the smallest
    one is the same."""
    width = max(mask for mask, _ in graph.orders).bit_length()
    layers: list[dict | None] = [dict() for _ in range(graph.layers)]
    layers[0][graph.start] = (0, 0, 0)
    best = None
    for idx in range(graph.layers):
        if sizes is not None:
            sizes.append(len(layers[idx]))
        blocks_for = graph.edges(idx)
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
    if best is None:
        return None
    value, starts, masks = best
    fields = range((graph.layers - 1) * width, -1, -width)
    return value, starts, [masks >> shift & (1 << width) - 1 for shift in fields]


def _within(states: Iterable[tuple], bound_for: Callable, cap: float, budget: float):
    """The (key, state) pairs of ``states`` that some complete path under
    ``cap`` and ``budget`` may pass, by the keys' bounds."""
    last = None
    for key, state in states:
        least_flow, further = bound_for(key)
        # keys share least further costs, so C(cap) is read once per run
        if further is not last:
            last, room = further, budget - further(cap)
        if least_flow <= cap and state[0] <= room:
            yield key, state


def _least_max_flow(graph: _Graph, flow_of: Callable[[int], int]) -> tuple:
    """Smallest (total, start code, orders) over the complete paths of the
    max-flow graph ``graph``, a path's total its order cost plus its flow,
    which ``flow_of`` decodes from its start code.

    The scan walks the final flow F up C's steps at the start key, from
    its least flow, in rising F + C(F), and stops once that exceeds the
    best total found; the graph's incumbent is the first best.  Within a
    step, from its lowest flow ``low``, a pass of :func:`_least` at cap
    ``low + w - 1`` gives the least order cost c of the paths of flow at
    most the cap, and every path above the budget best - ``low`` totals
    more than the best.  No path: w doubles and the scan goes on above the
    cap.  A path of flow f: a path of flow in (f, cap] costs at least c, so
    totals more, and the passes go down at cap f - 1, while ``low`` + c can
    still reach the best (an epsilon-constraint scan, Haimes, Lasdon &
    Wismer, 1971).  Each optimal F is some step's, and that step's passes
    reach a cap at or above F whose least path has flow at most F: its cost
    is the optimum less F, so it is the smallest optimal path of flow F,
    and the scan keeps the smallest (total, start code, orders) it sees."""
    least_flow, curve = graph.bounds(0)(graph.start)
    best = (graph.incumbent, math.inf, None)
    steps = sorted(
        (max(flow, least_flow) + cost, max(flow, least_flow), end - 1, cost)
        for flow, end, cost in zip(curve.flows, curve.flows[1:], curve.costs)
        if end > least_flow
    )
    for reach, low, high, cost in steps:
        if reach > best[0]:
            break
        width = 1
        while low <= high and low + cost <= best[0]:
            cap = min(low + width - 1, high)
            found = _least(graph, cap, best[0] - low)
            if found is None:
                width *= 2
            while found is not None:
                flow = flow_of(found[1])
                best = min(best, (flow + found[0], *found[1:]))
                if flow <= low or low + found[0] > best[0]:
                    break
                found = _least(graph, flow - 1, best[0] - low)
            low = cap + 1
    return best


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

    def edges(idx: int):
        """The one block of each (key, mask) at layer ``idx`` (see
        :class:`_Graph`)."""
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


def _dues(jobs: list) -> list[int]:
    """Per job of ``jobs``, which run in this order, its d: a schedule of
    maximum flow at most F starts it by d + F.  It completes by r + F and
    before the next job starts, so d = min(r, next d) - p."""
    dues = []
    due = math.inf
    for job in reversed(jobs):
        due = min(job.release, due) - job.processing
        dues.append(due)
    return dues[::-1]


def _stab(windows: list[tuple[int, int]], flow: float) -> list[int]:
    """Ascending, the fewest points that stab the windows [r, d + ``flow``]
    of the (r, d) pairs ``windows``, sorted by r, greedily from the back: a
    point at the latest release whose window no point stabs yet.  It is
    the leftmost point of the window that starts last, which any stabbing
    set needs a point in, and it stabs every window that point would, so
    by induction no set has fewer (the mirror of the interval-stabbing
    greedy, Kleinberg & Tardos, Algorithm Design, 2005, ch. 4).  A suffix's
    windows come first, so the points at or after a release are the cover
    of the windows from that release on."""
    points = []
    last = math.inf
    for release, due in reversed(windows):
        if last > due + flow:
            last = release
            points.append(release)
    points.reverse()
    return points


def _count_steps(
    count_at: Callable[[int], int], low: int, high: int, worth: Callable[[int], bool]
) -> Iterator[tuple[int, int]]:
    """For each count c = 1, 2, ... while ``worth(c)``: the least flow F in
    [``low``, ``high``] whose ``count_at(F)`` is at most c, and that count.
    ``count_at`` must not increase with F and be 1 at ``high``, so the
    flows fall, and each binary search starts below the last flow."""
    for target in range(1, count_at(low) + 1):
        if not worth(target):
            return
        lo = low
        while lo < high:
            mid = (lo + high) // 2
            if count_at(mid) <= target:
                high = mid
            else:
                lo = mid + 1
        yield high, count_at(high)


def _piercing(jobs: list, points: tuple, orders: list[tuple]) -> tuple[int, int, dict, tuple]:
    """The flow, order cost, starts by job id and order events of the
    piercing schedule that orders each resource i at ``points[i]``, at
    least one at or after each release of a job that needs it, and runs
    ``jobs`` in their (release, id) order, each as early as the machine and
    its orders allow.  It is feasible, so its value is at least the
    optimum, though it need not be a path of a DP's graph."""
    masks: dict[int, int] = {}
    for i, times in enumerate(points):
        for t in times:
            masks[t] = masks.get(t, 0) | 1 << i
    free = flow = 0
    starts = {}
    for job in jobs:
        start = free
        for r in job.resources:
            ordered = points[r - 1][bisect_left(points[r - 1], job.release)]
            if ordered > start:
                start = ordered
        starts[job.id] = start
        free = start + job.processing
        if free - job.release > flow:
            flow = free - job.release
    cost = sum(orders[mask][1] for mask in masks.values())
    return flow, cost, starts, tuple((t, orders[masks[t]][0]) for t in sorted(masks))


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
    module's max-flow scan (:func:`_least_max_flow`) for max flow.  Blocks
    above the cap are not built.

    The max-flow passes bound each key by the jobs it has not placed, all
    of which start at the layer time tau or later:

    - Least flow: tau + max_k(k p - r_(k)), k the rank from 1 in release
      order, cached per count vector.  With a common start, release order
      minimizes max(C - r) (Jackson's rule), and no job starts before tau.
    - Least further cost: C(F) = K max_i u_i(F) + sum_i c_i u_i(F), cached
      per last-order anchors.  A placed job was released by the anchor of
      every resource it needs, so the jobs released after resource i's
      anchor are all unplaced, and each needs an i-order in its window
      [r, d + F], d chained along its class's release order (not across
      classes, whose jobs the blocks may interleave in any order).  One
      cover per resource and per flow where a count can fall, each r - d
      from the largest up, is built once per call, only under max flow,
      and each suffix's count is read off it.
    - Incumbent, before layer 0: the best piercing schedule over those
      flows (:func:`_piercing`).  It need not be a path of the graph: an
      order may fall while the machine is busy, where no layer places one.

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

    def edges(idx: int):
        """The blocks of layer ``idx`` (see :class:`_Graph`), built once per
        (scheduled counts, last orders) for all the states and masks that
        reach the pair: the empty block first, then by size, so the flows
        never fall.  A cap that falls within the layer may still get blocks
        above it."""
        built: dict[tuple, list[tuple]] = {}
        anchor = anchors[idx]

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
                # a max-flow path's value is its order cost alone
                added = 0 if use_max_flow else block_value
                blocks.append(((tuple(new_alphas), betas), target, added, placed))
            return blocks

        return blocks_for

    # a resource never ordered has anchor -1, before every release
    graph = _Graph(
        num_layers, ((0,) * len(class_keys), (-1,) * s),
        [(mask, cost) for mask, (_, cost) in enumerate(orders)], edges,
    )
    if not use_max_flow:
        _, starts, masks = _least(graph, math.inf, math.inf)
    else:
        # per resource, the (release, d) windows of the jobs that need it,
        # sorted, d chained along each class's release order (see _dues);
        # per flow F where a count can fall, their fewest stabbing points;
        # and per start k the count for windows[k:]: on these the greedy
        # from the back takes the same points, from releases[k] onward
        dues: dict[int, int] = {}
        for jobs in class_jobs:
            chain = [job for _, _, job, _ in jobs]
            dues.update(zip((job.id for job in chain), _dues(chain)))
        windows = [
            sorted((job.release, dues[job.id]) for job in instance.jobs if i + 1 in job.resources)
            for i in range(s)
        ]
        needed = [[release for release, _ in per] for per in windows]
        # a count can fall only where a release meets some d + F; below the
        # largest r - d some window is empty, so no path has that flow
        breaks = {release - due for per in windows for release, _ in per for _, due in per}
        least = max(release - due for per in windows for release, due in per)
        step_flows = sorted(flow for flow in breaks if flow >= least)
        covers = [[_stab(per, flow) for flow in step_flows] for per in windows]
        stabs = [
            [[len(points) - bisect_left(points, release) for points in per_flow]
             for release in releases] + [[0] * len(step_flows)]
            for releases, per_flow in zip(needed, covers)
        ]
        # per count vector: max_k(k p - r_(k)) over the unplaced jobs, k
        # their rank in release order from 1
        tails: dict[tuple, int] = {}
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
            """The least flow and C of a key at layer ``idx`` (see :class:`_Graph`)."""
            tau = layer_times[idx]

            def bound_for(key: tuple) -> tuple[int, _Cost]:
                alphas, betas = key
                jackson = tails.get(alphas)
                if jackson is None:
                    rest = sorted(
                        release for ell, done in enumerate(alphas)
                        for release in class_releases[ell][done:]
                    )
                    jackson = tails[alphas] = max(
                        k * p - release for k, release in enumerate(rest, start=1)
                    )
                further = furthers.get(betas)
                if further is None:
                    further = furthers[betas] = further_for(betas)
                return tau + jackson, further

            return bound_for

        incumbent = min(
            flow + cost for flow, cost, _, _ in (
                _piercing(by_release, points, orders) for points in zip(*covers)
            )
        )
        _, starts, masks = _least_max_flow(
            graph._replace(bounds=bounds, incumbent=incumbent), _flow_of(instance, shifts)
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

    The DP runs on the max-flow scan shared with :func:`dp_equalp` and
    returns the smallest (total, start vector, order vector) over its
    graph.  The order vector marks each layer a solution leaves; every
    solution leaves layer 0 and orders at the last release date, so these
    marks compare as the marks of the order dates do.

    The max-flow passes bound a free time at layer i by the jobs after
    its first i groups.  Each later block starts at the free time or
    later, so the least flow is free - prefix_p[lo] plus the largest tail
    of the later groups, and no job starts before its release, so it is
    at least the largest r - d of those jobs.  C(F) is the order cost
    times the fewest points stabbing their windows [r, d + F]: one greedy
    per cap gives every layer's count.  At the start key C is built by
    count thresholds (:func:`_count_steps`), and each step's piercing
    schedule (:func:`_piercing`) is an incumbent; the thresholds stop once
    K times the count plus the least flow exceeds the incumbent.
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

    def edges(i: int):
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
                if offset + tail > cap:
                    break
                hi = group_end[j]
                placed = cum_p[hi] - cum_p[lo] + offset * (cum_u[hi] - cum_u[lo])
                blocks.append((offset + prefix_p[hi], j if j < m else None, 0, placed))
            return blocks

        return blocks_for

    # every job runs in release order, so under flow F it starts, after
    # an order, within its window [r, d + F] (see _dues)
    windows = list(zip(releases, _dues(ordered)))
    # rest_tail[i]: the largest tail of groups i + 1 to m; rest_floor[k]: the
    # largest r - d of jobs k on, below which a window of theirs is empty
    rest_tail = list(accumulate(reversed(group_tail[1:]), max))[::-1]
    rest_floor = list(accumulate((release - due for release, due in reversed(windows)), max))[::-1]
    least = rest_floor[0]

    # the start key's C by count thresholds; each step's piercing schedule
    # is an incumbent, which cuts the counts that cannot reach it
    orders = _order_table(instance)
    incumbent = math.inf
    steps = []
    for flow, count in _count_steps(
        lambda flow: len(_stab(windows, flow)), least, releases[-1] - windows[0][1],
        lambda target: order_cost * target + least <= incumbent,
    ):
        steps.append((flow, order_cost * count))
        pierced, cost, _, _ = _piercing(ordered, (_stab(windows, flow),), orders)
        incumbent = min(incumbent, pierced + cost)
    # below the last step's flow every count is above the last target
    steps.append((least, order_cost * (len(steps) + 1)))
    curve = _Cost(*zip(*reversed(steps)))
    # per cap, each layer's fewest orders, from one greedy over every job
    counts: dict[float, list[int]] = {}

    def further(i: int, cap: float) -> int:
        per_layer = counts.get(cap)
        if per_layer is None:
            points = _stab(windows, cap)
            per_layer = counts[cap] = [
                len(points) - bisect_left(points, releases[lo]) for lo in group_end[:m]
            ]
        return order_cost * per_layer[i]

    def bounds(i: int):
        """The least flow and C of a free time at layer ``i`` (see
        :class:`_Graph`): every later block starts at ``free`` or later,
        and no later job starts before its release."""
        lo = group_end[i]
        tail = rest_tail[i]
        floor = rest_floor[lo]
        cost = curve if i == 0 else partial(further, i)

        def bound_for(free: int) -> tuple[int, Callable[[float], int]]:
            flow = free - prefix_p[lo] + tail
            return (flow if flow > floor else floor), cost

        return bound_for

    graph = _Graph(m, 0, [(1, order_cost)], edges, bounds, incumbent)
    _, starts, masks = _least_max_flow(graph, _flow_of(instance, shifts))
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
    return _stab([(release, release - 1) for release in releases], flow)


def fmax_unit_distinct(instance: Instance) -> Solution:
    """Fast solver for unit jobs with distinct releases and one resource.

    Some optimal solution gives every job the same flow time F, so the
    problem reduces to minimizing F plus the order cost times the greedy
    cover count u(F).  u(F) is non-increasing in F, and for a fixed cover
    count the smallest F is cheapest, so it suffices to evaluate, for every
    possible count, the smallest F attaining it (:func:`_count_steps`; F
    can exceed the number of jobs when releases are sparse).  Ties go to
    the smaller F, whose start vector is smaller, as the module's one tie
    rule asks of the candidates.

    A count c prices every F not yet tried at K c + 1 or more, so the
    search stops once that exceeds the best total; the stop is strict, so
    a tie at a smaller F is still found.
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

    windows = [(release, release - 1) for release in releases]
    best = None
    for flow, count in _count_steps(
        lambda flow: len(_stab(windows, flow)), 1, releases[-1] - releases[0] + 1,
        lambda target: best is None or order_cost * target + 1 <= best[0],
    ):
        candidate = (flow + order_cost * count, flow)
        if best is None or candidate < best:
            best = candidate
    _, flow = best
    starts = {job.id: job.release + flow - 1 for job in instance.jobs}
    events = tuple((t, frozenset({1})) for t in _stab(windows, flow))
    return evaluate_solution(
        instance, Schedule(starts), ReplenishmentStructure(events), objective
    )
