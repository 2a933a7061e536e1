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
read, and per key only undominated partial solutions survive:

- :func:`dp_wjcj_unit` keys on (last order time per resource, scheduled
  set); costs add up, so the value is the weighted completion time plus the
  ordering cost so far.
- :func:`dp_equalp` keys on (scheduled count per class, last order's
  release anchor per resource).
- :func:`dp_fmax_s1` keys on (time the machine becomes free, order count).

Ties go to the partial solution found first: a later one replaces the kept
one only when strictly better, and the answer is the first final state of
least total, in the order the states were reached.  Every solver returns a
full :class:`~jrsched.model.Solution` with recomputed costs.
"""

from __future__ import annotations

from bisect import bisect_left

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


# ---------------------------------------------------------------------------
# Weighted completion time, unit jobs


def dp_wjcj_unit(instance: Instance, stats: dict | None = None) -> Solution:
    """Optimal weighted total completion time plus ordering cost, unit jobs.

    Layers run over the distinct release dates plus one horizon layer.  A
    state is keyed on the last ordering time per resource and the set of
    scheduled jobs, which is all that later layers read; its value is the
    weighted completion time plus the ordering cost so far, both of which
    add up.  Expanding a state orders any resource subset at the layer date,
    then greedily starts the largest-weight ready jobs, as many as fit before
    the next layer.

    The key holds the scheduled set itself, not just how many jobs of each
    class (jobs sharing a required resource subset) are done.  Counts alone
    are not a sound dominance key: two histories can reach equal counts having
    scheduled different weight profiles, and the cheaper prefix may have the
    worse continuation, so merging on counts can lose the optimum.

    Ties go to the state found first: per key the first state with the
    smallest value is kept, and the answer is the first complete state with
    the smallest value, where states are expanded layer by layer, each layer
    in the order its keys were first reached, resource masks ascending.

    ``stats``, when given, receives ``states_per_layer`` for bound checks.
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
    # heaviest first, ties to the smaller id, with the 0-based resource indices
    by_weight = [
        (job, tuple(r - 1 for r in sorted(job.resources)))
        for job in sorted(instance.jobs, key=lambda job: (-job.weight, job.id))
    ]

    # key: (last order time per resource, -1 if never, scheduled job ids)
    # value: (weighted completion plus order cost, schedule, events)
    layer: dict[tuple, tuple] = {((-1,) * s, frozenset()): (0, (), ())}
    if stats is not None:
        stats["states_per_layer"] = [len(layer)]

    for k, tau in enumerate(layer_times[:-1]):
        window = layer_times[k + 1] - tau
        nxt: dict[tuple, tuple] = {}
        for (betas, scheduled), (value, schedule, events) in layer.items():
            for mask, (resources, order_cost) in enumerate(orders):
                new_betas = tuple(tau if mask >> i & 1 else betas[i] for i in range(s))
                chosen: list = []
                for job, needs in by_weight:
                    if job.id in scheduled:
                        continue
                    for i in needs:
                        if job.release > new_betas[i]:
                            break
                    else:
                        chosen.append(job)
                        if len(chosen) == window:
                            break

                new_value = value + order_cost
                for offset, job in enumerate(chosen):
                    new_value += job.weight * (tau + offset + 1)
                key = (new_betas, scheduled.union(job.id for job in chosen))
                incumbent = nxt.get(key)
                if incumbent is None or new_value < incumbent[0]:
                    placed = tuple((job.id, tau + offset) for offset, job in enumerate(chosen))
                    nxt[key] = (
                        new_value,
                        schedule + placed,
                        events + ((tau, resources),) if mask else events,
                    )
        layer = nxt
        if stats is not None:
            stats["states_per_layer"].append(len(layer))

    # ordering every resource at the last release always leaves a complete state
    _, schedule, events = min(
        (state for (_, scheduled), state in layer.items() if len(scheduled) == n),
        key=lambda state: state[0],
    )
    return evaluate_solution(
        instance, Schedule(dict(schedule)), ReplenishmentStructure(events), objective
    )


# ---------------------------------------------------------------------------
# Equal processing times


def dp_equalp(instance: Instance, objective: Objective) -> Solution:
    """Optimal total completion time or maximum flow time for equal-length jobs.

    The layer times are every release date shifted by whole multiples of the
    common processing time, which covers all start and completion times of
    schedules without unnecessary idling.  Expanding a state may order any
    resource subset at the layer time and then starts ready unscheduled jobs
    as one block in non-decreasing release order.

    For the completion-time criterion the block always takes every ready
    job: idling while something could run only pushes completions later.
    For the max-flow criterion every block length is tried, because holding
    a ready job back can keep the machine free for a more urgent job that a
    later order unlocks; a release-ordered prefix is always among the
    optimal choices by an exchange argument.  The final structure is pulled
    back onto the release grid, which preserves feasibility and cost.
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
    use_max_flow = objective is Objective.MAX_FLOW
    job_value, combine = CRITERIA[objective]

    orders = _order_table(instance)
    jobs_by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    class_keys = sorted({tuple(sorted(job.resources)) for job in instance.jobs})
    class_index = {key: idx for idx, key in enumerate(class_keys)}

    # key: (scheduled count per class, last-order release anchor per resource)
    # entries: Pareto list of (criterion, order cost so far, schedule, events);
    # one entry suffices for the completion criterion, where both parts add
    start_key = ((0,) * len(class_keys), (None,) * s)
    layers: list[dict[tuple, list[tuple]]] = [dict() for _ in layer_times]
    layers[0][start_key] = [(0, 0, (), ())]

    def insert(bucket: dict, key: tuple, entry: tuple) -> None:
        entries = bucket.get(key)
        if entries is None:
            bucket[key] = [entry]
            return
        if use_max_flow:
            for crit, cost, _, _ in entries:
                if crit <= entry[0] and cost <= entry[1]:
                    return
            entries[:] = [
                kept for kept in entries if not (entry[0] <= kept[0] and entry[1] <= kept[1])
            ]
            entries.append(entry)
        else:
            if entry[0] + entry[1] < entries[0][0] + entries[0][1]:
                entries[0] = entry

    best: tuple[int, tuple, tuple] | None = None  # value, schedule, events

    def consider_complete(entry: tuple) -> None:
        nonlocal best
        value = entry[0] + entry[1]
        if best is None or value < best[0]:
            best = (value, entry[2], entry[3])

    for idx, tau in enumerate(layer_times):
        anchor = release_anchor(grid, tau)
        for (alphas, betas), entries in layers[idx].items():
            scheduled_count = sum(alphas)
            if scheduled_count == n:
                for entry in entries:
                    consider_complete(entry)
                continue
            # per-class scheduled jobs are always a release-ordered prefix,
            # so the counts identify them exactly
            ready_if: dict[tuple, list] = {}
            for mask, (resources, order_cost) in enumerate(orders):
                new_betas = tuple(anchor if mask >> i & 1 else betas[i] for i in range(s))

                cache_key = new_betas
                ready = ready_if.get(cache_key)
                if ready is None:
                    ready = []
                    taken = [0] * len(class_keys)
                    counts = list(alphas)
                    for job in jobs_by_release:
                        ell = class_index[tuple(sorted(job.resources))]
                        if taken[ell] < counts[ell]:
                            taken[ell] += 1  # already scheduled prefix
                            continue
                        covered = True
                        for r in job.resources:
                            beta = new_betas[r - 1]
                            if beta is None or job.release > beta:
                                covered = False
                                break
                        if covered:
                            ready.append((job, ell))
                    ready_if[cache_key] = ready

                block_sizes = range(len(ready) + 1) if use_max_flow else (len(ready),)
                for size in block_sizes:
                    block = ready[:size]
                    new_alphas = list(alphas)
                    for _, ell in block:
                        new_alphas[ell] += 1
                    key = (tuple(new_alphas), new_betas)
                    if block:
                        target_time = tau + size * p
                        complete = scheduled_count + size == n
                        if not complete:
                            # next decision point: first layer at or after
                            # the block's completion
                            target = bisect_left(layer_times, target_time)
                            if target >= len(layer_times):
                                continue
                    else:
                        complete = False
                        target = idx + 1
                        if target >= len(layer_times):
                            continue
                    # the block's starts and criterion value do not depend on the entry
                    block_starts = []
                    block_value = 0
                    for k, (job, _) in enumerate(block):
                        start = tau + k * p
                        block_starts.append((job.id, start))
                        block_value = combine(
                            block_value, job_value(job.weight, job.release, start + p)
                        )
                    pairs = tuple(block_starts)
                    for crit, cost, schedule, events in entries:
                        new_entry = (
                            combine(crit, block_value),
                            cost + order_cost,
                            schedule + pairs,
                            events + ((tau, resources),) if mask else events,
                        )
                        if complete:
                            consider_complete(new_entry)
                        else:
                            insert(layers[target], key, new_entry)

    if best is None:
        raise SolverError("dynamic program found no complete schedule")
    _, schedule_pairs, events = best
    solution = evaluate_solution(
        instance,
        Schedule(dict(schedule_pairs)),
        ReplenishmentStructure(events),
        objective,
    )
    return normalize_replenishments(instance, solution)


# ---------------------------------------------------------------------------
# Maximum flow time, one resource, arbitrary processing times


def dp_fmax_s1(instance: Instance) -> Solution:
    """Optimal maximum flow time plus ordering cost for a single resource.

    Jobs are handled in non-decreasing release order, which is optimal here.
    Layer j means: the orders so far serve every job released up to the j-th
    distinct release date, the last of them placed at that date.  A state is
    keyed on the time the machine becomes free and the number of orders,
    which is all that later layers read; its value is the worst flow time so
    far.  An order at a later date serves the jobs released since as one
    back-to-back block, started once both the machine and the order are
    ready.  Jobs sharing a release date are grouped into one layer and
    sequenced consecutively in id order.

    Ties go to the state found first: per key the first state with the
    smallest worst flow is kept, and the answer is the first final state with
    the smallest total, where states are expanded from each layer in turn, in
    the order their keys were first reached, target layers ascending.
    """
    objective = Objective.MAX_FLOW
    if instance.num_resources != 1:
        raise SolverError("single-resource solver applied to a multi-resource instance")
    if not instance.jobs:
        return empty_solution(objective)

    ordered = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    dates = instance.release_grid
    date_index = {d: g for g, d in enumerate(dates, start=1)}
    m = len(dates)
    group_end = [0] * (m + 1)  # group_end[g] = flat index one past group g (1-based)
    prefix_p = [0]
    for idx, job in enumerate(ordered):
        group_end[date_index[job.release]] = idx + 1
        prefix_p.append(prefix_p[-1] + job.processing)
    # A block started at b after the first lo jobs completes job k at
    # b - prefix_p[lo] + prefix_p[k + 1], so its worst flow is b - prefix_p[lo]
    # plus the largest tail prefix_p[k + 1] - release_k over the block.
    group_tail = [0] + [
        max(prefix_p[k + 1] - ordered[k].release for k in range(group_end[g - 1], group_end[g]))
        for g in range(1, m + 1)
    ]

    # state key: (time the machine becomes free, order count)
    # value: (worst flow so far, parent key, parent layer, start of the block
    #         served by the order at this layer's date)
    layers: list[dict[tuple, tuple]] = [dict() for _ in range(m + 1)]
    layers[0][(0, 0)] = (0, None, 0, None)

    for i in range(m):
        lo = group_end[i]
        for key, entry in layers[i].items():
            free, count = key
            fmax = entry[0]
            tail = group_tail[i + 1]
            for j in range(i + 1, m + 1):
                if group_tail[j] > tail:
                    tail = group_tail[j]
                order_time = dates[j - 1]
                block_start = free if free > order_time else order_time
                worst = block_start - prefix_p[lo] + tail
                if worst < fmax:
                    worst = fmax
                new_key = (block_start + prefix_p[group_end[j]] - prefix_p[lo], count + 1)
                incumbent = layers[j].get(new_key)
                if incumbent is None or worst < incumbent[0]:
                    layers[j][new_key] = (worst, key, i, block_start)

    order_cost = instance.single_resource_order_cost
    final = layers[m]
    key = min(final, key=lambda key: final[key][0] + order_cost * key[1])

    starts: dict[int, int] = {}
    times: list[int] = []
    layer = m
    while layer > 0:
        _, parent_key, parent_layer, t = layers[layer][key]
        times.append(dates[layer - 1])
        for job in ordered[group_end[parent_layer]:group_end[layer]]:
            starts[job.id] = t
            t += job.processing
        key, layer = parent_key, parent_layer
    events = tuple((t, frozenset({1})) for t in sorted(times))
    return evaluate_solution(
        instance, Schedule(starts), ReplenishmentStructure(events), objective
    )


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
    can exceed the number of jobs when releases are sparse).  Ties between
    equal-cost flow values go to the smaller F.
    """
    objective = Objective.MAX_FLOW
    if instance.num_resources != 1:
        raise SolverError("single-resource solver applied to a multi-resource instance")
    for job in instance.jobs:
        if job.processing != 1:
            raise SolverError(f"job {job.id} has processing {job.processing}; unit jobs required")
    n = len(instance.jobs)
    if n == 0:
        return empty_solution(objective)
    releases = sorted(job.release for job in instance.jobs)
    if len(set(releases)) != n:
        raise SolverError("release dates must be pairwise distinct")

    span = releases[-1] - releases[0] + 1  # one order suffices from here on
    candidates = set()
    max_count = len(equal_flow_cover(releases, 1))
    for target in range(1, max_count + 1):
        lo, hi = 1, span
        while lo < hi:
            mid = (lo + hi) // 2
            if len(equal_flow_cover(releases, mid)) <= target:
                hi = mid
            else:
                lo = mid + 1
        candidates.add(lo)

    order_cost = instance.single_resource_order_cost
    best: tuple[int, int, list[int]] | None = None  # (value, F, order times)
    for flow in sorted(candidates):
        times = equal_flow_cover(releases, flow)
        value = flow + order_cost * len(times)
        if best is None or value < best[0]:
            best = (value, flow, times)

    _, flow, times = best
    starts = {job.id: job.release + flow - 1 for job in instance.jobs}
    events = tuple((t, frozenset({1})) for t in sorted(times))
    return evaluate_solution(
        instance, Schedule(starts), ReplenishmentStructure(events), objective
    )
