"""Exact brute-force optimum for desk-scale instances.

The solver enumerates, for every resource type, the set of time points at
which that resource is ordered.  Enumerating one time set per resource is in
bijection with assigning a resource subset to every candidate time point, and
covers every replenishment structure over those points.  A structure matters
to the schedule only through the jobs' effective releases (the first moment
all their resources are covered), and the residual one-machine problem is
solved exactly by a subset DP over (jobs sequenced, time the machine becomes
free) with earliest-start placement, which is optimal among active schedules
for every supported criterion.  Among the optimal orders the DP returns the
lexicographically smallest start vector (see :func:`_subset_dp`).  It places
twins in index order only: jobs of the same effective release, processing
time and value function, the latter up to a constant under a sum, so a
job's release matters only under max flow and its weight only under the
weighted sums.  On unit jobs under an unweighted sum, the jobs that one
order covers form one chain.

The evaluation runs in three steps:

1. A time set holding an order that covers no job first is dropped where
   that order costs something: the same set without it has the same cover
   code and is strictly cheaper (see :func:`_resource_candidates`).
2. One pass over the structures keeps, for each distinct effective-release
   vector, its cheapest structure, ties going to the smallest
   (order times, resource subsets).  Each time set carries a cover code in
   which every job owns a field of bits, and a job whose first order at or
   after its release is at point index b has the low b + 1 bits of its
   field set.  The points are ascending, so OR on two fields keeps the
   later covering point: OR on the codes is the per-job maximum, and a
   structure's effective releases are the OR of its time sets' codes, one
   int.  On one resource each time set also carries its cover vector,
   which is then the structure's effective releases; on several, only the
   codes are kept and each held code is decoded once, at the end.  The pass
   walks the product of every resource but the last, folds each prefix once
   into (union of masks, code, item cost), and then spends a few int
   operations and one dict lookup on each time set of the last resource
   (see :func:`_cheapest_structures`).  A tie in cost is decided
   from the masks and their unions alone, in O(s) int operations (see
   :func:`_key_precedes`); the (order times, resource subsets) key is built
   only for a structure whose residual is solved and can win.
3. The vectors are solved in ascending order of ordering cost plus a lower
   bound on the scheduling cost, until a bound exceeds the best total.  Two
   bounds are used (see :func:`_residual_bounds`): a cheap one that
   completes every job at its effective release plus its processing time,
   and a tight one, read off one preemptive loop
   (:func:`_preemptive_runs`): the job-splitting bound of the split-WSPT
   schedule for the weighted sums, and the optimal preemptive schedule for
   the others (SRPT for the unweighted sums, preemptive EDD for max flow).
   Both are exact integers.  Every vector enters a heap under its cheap
   bound; when it first reaches the top it goes back under its tight bound,
   computed then, and it is solved only when popped under the tight one.
   A vector no earlier anywhere than a solved one of strictly smaller
   ordering cost is skipped: the residual cost never falls as releases get
   later, so it costs strictly more.  Each vector is solved at most once.
   Both bounds are at most the residual cost and the stop is strict, so
   every vector that ties the optimum is still solved.

Each structure left out either costs strictly more than another one or has
the same effective releases and cost and a larger (order times, resource
subsets), so the result is the smallest (total, order times, start times,
resource subsets) over all structures, exactly as a full enumeration finds.

Two enumeration grids are offered: the release dates of the jobs (sufficient
for optimality, used by :func:`exact_solve`) and every integer time up to the
horizon (:func:`exact_solve_fine_grid`, a validation variant whose value must
agree with the coarse grid).  Both go through the same steps.  Each
resource's time sets are enumerated by size, up to a cap: every set on the
release grid, and on the fine grid at most one point per job that needs the
resource.  The enumeration order does not matter, because ties are broken
on (order times, resource subsets), which identifies a structure.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Sequence

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
)


@dataclass(frozen=True)
class OracleLimits:
    """Hard caps keeping the enumeration at desk scale."""

    max_jobs: int = 8
    max_grid_subsets: int = 2**20

    def __post_init__(self) -> None:
        if self.max_jobs < 0:
            raise ValueError(f"oracle limits: max_jobs must be >= 0, got {self.max_jobs}")
        if self.max_grid_subsets < 1:
            raise ValueError(
                f"oracle limits: max_grid_subsets must be >= 1, got {self.max_grid_subsets}"
            )


class OracleLimitError(SolverError):
    """The instance exceeds the configured enumeration caps."""


def _sequence_exact(
    effective: tuple[int, ...],
    jobs_data: tuple[tuple[int, int, int], ...],
    objective: Objective,
) -> tuple[int, tuple[int, ...]]:
    """Best order of all jobs with starts at max(previous completion, effective).

    Returns the exact optimum cost and, among equal-cost orders, the
    lexicographically smallest start vector.  Under a sum criterion one pass
    of :func:`_subset_dp` finds both.  Under max flow a prefix with a higher
    maximum can still tie at the end, so the first pass finds only the cost
    and a second pass, carrying no cost and dropping every step whose flow
    exceeds it, picks the smallest start vector among the optimal orders.
    """
    job_value, combine = CRITERIA[objective]
    if combine is operator.add:
        return _subset_dp(effective, jobs_data, job_value, combine)
    optimum, _ = _subset_dp(effective, jobs_data, job_value, combine)
    _, starts = _subset_dp(effective, jobs_data, job_value, _no_cost, optimum)
    return optimum, starts


def _no_cost(total: int, value: int) -> int:
    return 0


def _subset_dp(
    effective: tuple[int, ...],
    jobs_data: tuple[tuple[int, int, int], ...],
    job_value: Callable[[int, int, int], int],
    combine: Callable[[int, int], int],
    cap: int | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Smallest (cost, starts) over all job orders, by a forward subset DP.

    As in Held and Karp's DP, the jobs are placed one by one; a state is the
    set of jobs placed and the time the machine becomes free.  All orders
    through a state share the same continuations, so a state keeps only its
    smallest (cost, starts).  It holds them as one int: the cost above a
    start code in which job j owns the ``width``-bit field at shift
    (n - 1 - j) * width.  No start reaches 2**width, so int order is
    (cost, starts) order, and placing a job adds its start to its field.
    Unplaced jobs hold start 0, so partial start vectors compare as the full
    ones will.  The winner is decoded once, at the end.

    A state is not expanded when a state of the same set that is free
    earlier holds a smaller (cost, starts).  Continued by the same jobs,
    that state starts each of them no later, so it ends no dearer and with
    the smaller start vector; under max it ends no dearer, which is all the
    cost-finding pass needs.

    Twins are placed in index order only.  Two jobs are twins when they
    share the effective release, the processing time and the value
    function, the latter up to a constant when ``combine`` adds.  Every job
    value in ``CRITERIA`` is affine in the completion time C, so a value
    function is its slope and intercept, and up to a constant its slope
    alone: w for the weighted sums and 1 for the others, whatever the
    release.  Swap two twins in any order (Smith's interchange): they
    start at the same two times and every other job keeps its start.  Under
    a sum the two values are slope * C plus a constant of the job, so their
    sum is slope * (C1 + C2) plus both constants either way; otherwise each
    completion goes to the same value function, so every value, and each
    test against ``cap``, is kept.  The lower index takes the earlier
    start, so the start vector gets smaller, and the smallest
    (cost, starts) has its twins in index order.  Each group of twins is
    one chain, so the DP visits about the product of (group size + 1) sets
    instead of 2**n.  With ``cap`` set, steps whose job value exceeds it
    are dropped.
    """
    n = len(effective)
    width = (max(effective) + sum(proc for _, proc, _ in jobs_data)).bit_length()
    cost_shift = n * width
    steps = []
    last_twin: dict[tuple[int, ...], int] = {}
    for j, (release, proc, weight) in enumerate(jobs_data):
        intercept = job_value(weight, release, 0)
        slope = job_value(weight, release, 1) - intercept
        if combine is operator.add:
            key = (effective[j], proc, slope)
        else:
            key = (effective[j], proc, slope, intercept)
        shift = (n - 1 - j) * width
        steps.append((1 << j, last_twin.get(key, 0), shift, effective[j], release, proc, weight))
        last_twin[key] = 1 << j
    layer: dict[int, dict[int, int]] = {0: {0: 0}}
    for _ in range(n):
        successors: dict[int, dict[int, int]] = {}
        for mask, states in layer.items():
            least = None
            for now, held in sorted(states.items()):
                if least is not None and least < held:
                    continue
                least = held
                cost = held >> cost_shift
                code = held - (cost << cost_shift)
                for bit, twin, shift, eff, release, proc, weight in steps:
                    if mask & bit or mask & twin != twin:
                        continue
                    start = now if now > eff else eff
                    done = start + proc
                    value = job_value(weight, release, done)
                    if cap is not None and value > cap:
                        continue
                    state = (combine(cost, value) << cost_shift) + code + (start << shift)
                    bucket = successors.get(mask | bit)
                    if bucket is None:
                        successors[mask | bit] = {done: state}
                    else:
                        kept = bucket.get(done)
                        if kept is None or state < kept:
                            bucket[done] = state
        layer = successors
    best = min(layer[(1 << n) - 1].values())
    field = (1 << width) - 1
    starts = tuple(best >> (n - 1 - j) * width & field for j in range(n))
    return best >> cost_shift, starts


def _preemptive_runs(
    effective: tuple[int, ...], procs: tuple[int, ...], rank: tuple[int, ...], ties_split: bool
) -> Iterator[tuple[int, int, int]]:
    """The runs (job, run length, end) of the schedule that always runs the
    released job of least (rank, time left, index), releases being the
    effective ones.

    An arrival splits the running job when its rank is smaller, and with
    ``ties_split`` also when its (rank, time left, index) is smaller.  With
    ranks all 0 and ties split this is SRPT, optimal for 1|r_j,pmtn|sum C_j
    (Schrage, 1968); with the release dates as ranks and ties split it is
    preemptive EDD, optimal for 1|r_j,pmtn|L_max (Horn, 1974), and so for
    the largest flow time; with ranks -w_j / p_j and ties kept whole it is
    split-WSPT (Belouadah, Posner and Potts, 1992).
    """
    n = len(effective)
    arrivals = sorted(range(n), key=effective.__getitem__)
    ready: list[tuple[int, int, int]] = []
    now = 0
    i = 0
    while i < n or ready:
        if not ready and effective[arrivals[i]] > now:
            now = effective[arrivals[i]]
        while i < n and effective[arrivals[i]] <= now:
            j = arrivals[i]
            heapq.heappush(ready, (rank[j], procs[j], j))
            i += 1
        key, left, j = heapq.heappop(ready)
        end = now + left
        while i < n and effective[arrivals[i]] < end:  # arrivals before j ends
            k = arrivals[i]
            split = effective[k]
            arrival = (rank[k], procs[k], k)
            if arrival[0] < key or ties_split and arrival < (key, end - split, j):
                yield j, split - now, split
                heapq.heappush(ready, (key, end - split, j))
                now = split
                break
            heapq.heappush(ready, arrival)
            i += 1
        else:
            yield j, left, end
            now = end


def _residual_bounds(
    jobs_data: tuple[tuple[int, int, int], ...], objective: Objective
) -> tuple[Callable[[tuple[int, ...]], int], Callable[[tuple[int, ...]], int]]:
    """A cheap and a tight lower bound on the residual cost of an
    effective-release vector.

    The cheap bound completes every job at its effective release plus its
    processing time, folded through ``CRITERIA``.  No job completes earlier,
    so it is at most the residual cost.

    For the weighted sums the tight bound is the larger of the cheap one and
    the job-splitting bound, rounded up, where a job costs its weight times
    its completion minus its offset: 0 for weighted completion, its release
    for weighted flow.  Each run of length q of job j ending at C in the
    split-WSPT schedule counts as a job of weight w_j * q / p_j completing
    then, so costs (w_j / p_j) * q * (C - offset_j), which is w_j / p_j
    times the integral of t - offset_j over the run, plus
    (w_j / p_j) * q**2 / 2.  Over any schedule the first parts add up to its
    weighted busy time, which by an exchange argument is least for a
    schedule that never idles while a job is ready and always runs the
    largest ratio ready, as split-WSPT does.  The second parts add up to at
    most sum(w_j * p_j) / 2, reached when no job is split, as in every
    order the residual DP places.  So no such order costs less than
    split-WSPT.  Scaled by L, the lcm of the processing times, every ratio
    is an int.

    For the other criteria the tight bound folds through ``CRITERIA`` the
    completions of the preemptive schedule that is optimal for the
    criterion: SRPT for the sums, preemptive EDD for max flow.  Every order
    the residual DP places is also a preemptive schedule, no better than
    the optimal one.

    All three schedules come from :func:`_preemptive_runs`.  So cheap <=
    tight <= the cost :func:`_sequence_exact` returns, all in ints.
    """
    releases, procs, weights = (tuple(column) for column in zip(*jobs_data))
    job_value, combine = CRITERIA[objective]

    def cheap(effective: tuple[int, ...]) -> int:
        completions = map(operator.add, effective, procs)
        return reduce(combine, map(job_value, weights, releases, completions), 0)

    if objective in (Objective.WEIGHTED_COMPLETION, Objective.WEIGHTED_FLOW):
        scale = math.lcm(*procs)
        ratios = tuple(w * (scale // p) for w, p in zip(weights, procs))
        ranks = tuple(-ratio for ratio in ratios)
        offsets = releases if objective is Objective.WEIGHTED_FLOW else (0,) * len(procs)

        def tight(effective: tuple[int, ...]) -> int:
            runs = _preemptive_runs(effective, procs, ranks, False)
            split = sum(ratios[j] * q * (end - offsets[j]) for j, q, end in runs)
            return max(cheap(effective), -(-split // scale))

        return cheap, tight

    due = (0,) * len(jobs_data) if combine is operator.add else releases

    def tight(effective: tuple[int, ...]) -> int:
        completions = [0] * len(procs)
        for j, _, end in _preemptive_runs(effective, procs, due, True):
            completions[j] = end
        return reduce(combine, map(job_value, weights, releases, completions), 0)

    return cheap, tight


def _resource_candidates(
    points: Sequence[int],
    needing: list[tuple[int, list[int], int]],
    item_cost: int,
    size_cap: int,
    idle_order_costs: bool,
    lone: bool,
) -> list[tuple[int, int, int, tuple[int, ...] | None]]:
    """All usable ordering-time sets of at most ``size_cap`` of the
    ``points`` for one resource, by size.

    ``needing`` holds (index of the first point at or after its release, row
    of cover codes, job index) for every job needing the resource, in order
    of that point; ``row[b - first]`` codes the job covered at point b.
    Each entry is (bitmask over points, item-cost term, cover code, cover
    vector), where the cover code ORs the needing jobs' codes; sets that
    leave a needing job uncovered are skipped.  With ``lone`` set the
    resource is the only one, so every job needs it, and the cover vector
    holds each job's covering point, stored as its code is ORed: it is the
    effective-release vector of the set's structure.  Otherwise the cover
    vector is None.  Orders that cover no job can always be dropped without
    raising the cost, so capping at the number of jobs needing the resource
    loses nothing.  With ``idle_order_costs`` set, an order that
    covers no job first costs something, so a set holding one is strictly
    dearer than the same set without it, which has the same cover code;
    such sets are dropped.  Without it they stay, since a free order can
    win the tie on the key.
    """
    m = len(points)
    last_first = needing[-1][0] if needing else -1
    cover = [0] * len(needing) if lone else None
    out = []
    for k in range(min(size_cap, m) + 1):
        for combo in itertools.combinations(range(m), k):
            if needing and (not combo or combo[-1] < last_first):
                continue
            code = 0
            used = 0  # points that cover some job first
            previous = -1
            # needing is in order of first point, so each job's covering
            # point is no earlier than the one before it
            for first, row, j in needing:
                for b in combo:
                    if b >= first:
                        break
                code |= row[b - first]
                if lone:
                    cover[j] = points[b]
                if b != previous:
                    used += 1
                    previous = b
            if idle_order_costs and used < k:
                continue
            entry_cover = tuple(cover) if lone else None
            out.append((sum(1 << b for b in combo), item_cost * k, code, entry_cover))
    return out


def _enumeration_size(points: int, caps: list[int]) -> int:
    """How many structures the time sets of at most ``caps[i]`` of
    ``points`` points per resource make."""
    return math.prod(
        sum(math.comb(points, k) for k in range(min(cap, points) + 1)) for cap in caps
    )


def _structure_key(
    points: Sequence[int], masks: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(order times, resource subset per time) of the structure that orders
    resource i at the points of ``masks[i - 1]``, walking only the points
    some resource is ordered at."""
    union = reduce(operator.or_, masks)
    times = []
    subsets = []
    while union:
        low = union & -union
        times.append(points[low.bit_length() - 1])
        subsets.append(tuple([i for i, mask in enumerate(masks, 1) if mask & low]))
        union ^= low
    return tuple(times), tuple(subsets)


def _key_precedes(
    union: int, masks: tuple[int, ...], other_union: int, other_masks: tuple[int, ...]
) -> bool:
    """Whether ``_structure_key(points, masks) < _structure_key(points,
    other_masks)``, decided from the masks and their unions in O(s) int
    operations, whatever the ascending ``points``.

    Two ascending lists of distinct ints first differ at the least int d
    that only one of them holds.  The list holding d is the smaller exactly
    when the other one goes on past d; otherwise the other one is a prefix
    of it.  Applied to the bits of the unions, this orders the order times.
    With equal unions the first subset that differs is at the lowest point
    where any mask differs, and the same rule orders the sets of resources
    ordered there.
    """
    if union == other_union:
        differ = 0
        for mask, other in zip(masks, other_masks):
            differ |= mask ^ other
        if not differ:
            return False
        point = differ & -differ
        union = other_union = 0
        for i, (mask, other) in enumerate(zip(masks, other_masks)):
            if mask & point:
                union |= 1 << i
            if other & point:
                other_union |= 1 << i
    differ = union ^ other_union
    low = differ & -differ
    return other_union > low if union & low else union < low


def _cheapest_structures(
    instance: Instance, points: Sequence[int], caps: list[int]
) -> dict[tuple[int, ...], tuple[int, tuple[int, ...]]]:
    """Step 2 of the module docstring: each distinct effective-release
    vector's cheapest structure, as (ordering cost, time-set mask per
    resource), ties going to the smallest :func:`_structure_key`.

    Resource i's time sets are those of at most ``caps[i]`` points.  With
    m = ``len(points)``, job j's field in a cover code is bits j*m to
    j*m + m - 1; ``rows[j]`` holds its codes from the first point at or
    after its release on.  The pass holds (ordering cost, masks, union of
    masks, cover vector) per code.  On one resource there is no prefix, and
    the held time set's cover vector is the effective-release vector.
    Otherwise each held code is decoded once, when the pass is over: job
    j's effective release is the point of the highest set bit of its field.
    A tie in cost is decided from the masks alone by :func:`_key_precedes`,
    so no key is built here.
    """
    jobs = instance.jobs
    m = len(points)
    s = instance.num_resources
    joint = instance.joint_cost
    firsts = [bisect.bisect_left(points, job.release) for job in jobs]
    rows = [
        [((2 << b) - 1) << (j * m) for b in range(first, m)] for j, first in enumerate(firsts)
    ]
    candidates = []
    for i in range(s):
        needing = sorted(
            ((firsts[j], rows[j], j) for j, job in enumerate(jobs) if i + 1 in job.resources),
            key=operator.itemgetter(0),
        )
        item_cost = instance.item_costs[i]
        idle_order_costs = item_cost > 0 or (s == 1 and joint > 0)
        candidates.append(
            _resource_candidates(points, needing, item_cost, caps[i], idle_order_costs, s == 1)
        )

    # code -> (ordering cost, masks, union of masks, cover vector or None)
    cheapest: dict[int, tuple[int, tuple[int, ...], int, tuple[int, ...] | None]] = {}
    get = cheapest.get
    for prefix in itertools.product(*candidates[:-1]):
        prefix_union = prefix_code = prefix_cost = 0
        for mask, cost_term, code, _ in prefix:
            prefix_union |= mask
            prefix_code |= code
            prefix_cost += cost_term
        prefix_masks = tuple([entry[0] for entry in prefix])
        for mask, cost_term, code, cover in candidates[-1]:
            eff_code = prefix_code | code
            union = prefix_union | mask
            repl = prefix_cost + cost_term + joint * union.bit_count()
            held = get(eff_code)
            if held is None or repl < held[0]:
                cheapest[eff_code] = (repl, prefix_masks + (mask,), union, cover)
            elif repl == held[0]:
                masks = prefix_masks + (mask,)
                if _key_precedes(union, masks, held[2], held[1]):
                    cheapest[eff_code] = (repl, masks, union, cover)

    field = (1 << m) - 1
    shifts = range(0, len(jobs) * m, m)
    structures = {}
    for code, (repl, masks, _, eff) in cheapest.items():
        if eff is None:
            eff = tuple([points[(code >> shift & field).bit_length() - 1] for shift in shifts])
        structures[eff] = (repl, masks)
    return structures


def _solve_over_points(
    instance: Instance,
    objective: Objective,
    limits: OracleLimits | None,
    points: Sequence[int],
    size_capped: bool,
) -> Solution:
    if limits is None:
        limits = OracleLimits()
    jobs = instance.jobs
    n = len(jobs)
    if n == 0:
        return empty_solution(objective)
    if n > limits.max_jobs:
        raise OracleLimitError(f"instance has {n} jobs, limit is {limits.max_jobs}")
    if not points:
        raise SolverError("no candidate replenishment times for a non-empty job set")
    s = instance.num_resources

    caps = [
        sum(i in job.resources for job in jobs) if size_capped else len(points)
        for i in range(1, s + 1)
    ]
    size = _enumeration_size(len(points), caps)
    if size > limits.max_grid_subsets:
        raise OracleLimitError(
            f"{size} replenishment structures exceed the cap {limits.max_grid_subsets}"
        )
    structures = _cheapest_structures(instance, points, caps)
    if not structures:
        raise SolverError("no feasible replenishment structure exists")

    jobs_data = tuple((job.release, job.processing, job.weight) for job in jobs)
    cheap_bound, tight_bound = _residual_bounds(jobs_data, objective)

    # Step 3 of the module docstring.  The stop is strict, so every vector
    # that ties the best total is still solved.
    heap = [(repl + cheap_bound(eff), repl, eff, False) for eff, (repl, _) in structures.items()]
    heapq.heapify(heap)
    best: tuple | None = None  # (total, times, starts, subsets)
    solved: list[tuple[int, tuple[int, ...]]] = []
    while heap:
        bound, repl, eff, tight = heapq.heappop(heap)
        if best is not None and bound > best[0]:
            break
        if not tight:
            heapq.heappush(heap, (repl + tight_bound(eff), repl, eff, True))
            continue
        if any(
            done_repl < repl and all(map(operator.le, done_eff, eff))
            for done_repl, done_eff in solved
        ):
            continue
        sched_cost, starts = _sequence_exact(eff, jobs_data, objective)
        solved.append((repl, eff))
        total = repl + sched_cost
        if best is None or total <= best[0]:
            times, subsets = _structure_key(points, structures[eff][1])
            candidate = (total, times, starts, subsets)
            if best is None or candidate < best:
                best = candidate

    _, times, best_starts, subsets = best
    events = tuple((t, frozenset(rs)) for t, rs in zip(times, subsets))
    schedule = Schedule({job.id: start for job, start in zip(jobs, best_starts)})
    return evaluate_solution(instance, schedule, ReplenishmentStructure(events), objective)


def exact_solve(
    instance: Instance, objective: Objective, limits: OracleLimits | None = None
) -> Solution:
    """Globally optimal solution with orders restricted to the release dates.

    Restricting orders to release dates loses no optimality: moving an order
    back to the latest release at or before it keeps every served job ready.
    Ties between equal-cost optima are broken toward the lexicographically
    smallest (order times, start times by job, resource subset per order
    time) triple for reproducible results.

    Which residuals get sequenced is step 3 of the module docstring.
    """
    return _solve_over_points(instance, objective, limits, instance.release_grid, False)


def exact_solve_fine_grid(
    instance: Instance, objective: Objective, limits: OracleLimits | None = None
) -> Solution:
    """Optimum with orders allowed at every integer time up to the horizon.

    Validation variant: its value must equal :func:`exact_solve` on every
    instance where both run.  Meant for very small instances only; the
    enumeration cap guards against blow-up, and is checked before anything
    is built over the grid.
    """
    return _solve_over_points(instance, objective, limits, range(instance.horizon + 1), True)
