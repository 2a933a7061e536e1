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

A partial solution does not carry its history.  In :func:`dp_wjcj_unit` and
:func:`dp_equalp` it holds a link (parent link, (job id, start) pairs placed
by the last step, order event or None), and in :func:`dp_fmax_s1` its parent
key and layer; the winner's schedule and orders are read back once, at the
end.  A step that places nothing and orders nothing keeps its parent's link.

Ties go to the partial solution found first: a later one replaces the kept
one only when strictly better, and the answer is the first final state of
least total, in the order the states were reached.  Links change what a
partial solution stores, not which one wins.  Every solver returns a full
:class:`~jrsched.model.Solution` with recomputed costs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

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


def _unwind(link: tuple | None) -> tuple[Schedule, ReplenishmentStructure]:
    """The schedule and orders along a chain of (parent link, (job id, start)
    pairs, order event or None) links, in the order they were added."""
    blocks: list[tuple] = []
    events: list[tuple] = []
    while link is not None:
        link, pairs, event = link
        blocks.append(pairs)
        if event is not None:
            events.append(event)
    starts = {job_id: start for pairs in reversed(blocks) for job_id, start in pairs}
    return Schedule(starts), ReplenishmentStructure(tuple(reversed(events)))


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
    # value: (weighted completion plus order cost, link), where a link is
    # (parent link, placed (job id, start) pairs, order event or None)
    layer: dict[tuple, tuple] = {((-1,) * s, frozenset()): (0, None)}
    if stats is not None:
        stats["states_per_layer"] = [len(layer)]

    for k, tau in enumerate(layer_times[:-1]):
        window = layer_times[k + 1] - tau
        nxt: dict[tuple, tuple] = {}
        for (betas, scheduled), (value, link) in layer.items():
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
                    if chosen or mask:
                        placed = tuple((job.id, tau + offset) for offset, job in enumerate(chosen))
                        nxt[key] = (new_value, (link, placed, (tau, resources) if mask else None))
                    else:
                        nxt[key] = (new_value, link)
        layer = nxt
        if stats is not None:
            stats["states_per_layer"].append(len(layer))

    # ordering every resource at the last release always leaves a complete state
    _, link = min(
        (state for (_, scheduled), state in layer.items() if len(scheduled) == n),
        key=lambda state: state[0],
    )
    schedule, events = _unwind(link)
    return evaluate_solution(instance, schedule, events, objective)


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

    Each state keeps a Pareto list of (criterion, order cost so far, link)
    entries; the completion criterion adds both parts, so one entry
    suffices there.  The link points to the entry it was extended from and
    holds only the block's starts and the order placed, so extending an
    entry copies no history; the winner's schedule and orders are read back
    from its links once.  The blocks are built once per layer for each
    (scheduled counts, last orders) pair that some state and order reach,
    each size extending the one before.  Ties go to the entry found first: a
    new entry is dropped when a kept one is no worse in both parts, it
    drops the kept ones it is no worse than, and the answer is the first
    complete entry of least total.  The links leave every tie as it was.
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

    orders = _order_table(instance)
    # a class is the jobs sharing one resource set; per class, in release
    # order: (rank in the release order of all jobs, job, class), plus the
    # releases and the 0-based resources
    class_keys = sorted({tuple(sorted(job.resources)) for job in instance.jobs})
    class_index = {key: idx for idx, key in enumerate(class_keys)}
    class_jobs: list[list[tuple]] = [[] for _ in class_keys]
    by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    for rank, job in enumerate(by_release):
        ell = class_index[tuple(sorted(job.resources))]
        class_jobs[ell].append((rank, job, ell))
    class_releases = [[job.release for _, job, _ in jobs] for jobs in class_jobs]
    class_needs = [tuple(r - 1 for r in key) for key in class_keys]

    def blocks_after(idx: int, tau: int, alphas: tuple, new_betas: tuple) -> list[tuple]:
        """(target key, target layer or None if complete, criterion value,
        (job id, start) pairs) of each block started at ``tau``."""
        # per-class scheduled jobs are always a release-ordered prefix, so
        # the counts identify them exactly; the ready ones follow it up to
        # the last job released by the class's earliest last order
        ready: list[tuple] = []
        classes = 0
        for ell, needs in enumerate(class_needs):
            limit = None
            for i in needs:
                beta = new_betas[i]
                if beta is None:
                    break
                if limit is None or beta < limit:
                    limit = beta
            else:
                upto = bisect_right(class_releases[ell], limit)
                if upto > alphas[ell]:
                    ready += class_jobs[ell][alphas[ell]:upto]
                    classes += 1
        if classes > 1:
            ready.sort()
        blocks = []
        # the empty block waits for the next layer
        if (use_max_flow or not ready) and idx + 1 < num_layers:
            blocks.append(((alphas, new_betas), idx + 1, 0, ()))
        if not ready:
            return blocks
        new_alphas = list(alphas)
        pairs = []
        block_value = 0
        start = tau
        remaining = n - sum(alphas)
        for size, (_, job, ell) in enumerate(ready, start=1):
            new_alphas[ell] += 1
            pairs.append((job.id, start))
            start += p
            block_value = combine(block_value, job_value(job.weight, job.release, start))
            if not use_max_flow and size < len(ready):
                continue
            if size == remaining:
                target = None
            else:
                # next decision point: first layer at or after the completion
                target = bisect_left(layer_times, start)
                if target >= num_layers:
                    continue
            blocks.append(((tuple(new_alphas), new_betas), target, block_value, tuple(pairs)))
        return blocks

    # key: (scheduled count per class, last-order release anchor per resource)
    # entries: Pareto list of (criterion, order cost so far, link), where a
    # link is (parent link, block's (job id, start) pairs, order event or None)
    start_key = ((0,) * len(class_keys), (None,) * s)
    layers: list[dict[tuple, list[tuple]]] = [dict() for _ in layer_times]
    layers[0][start_key] = [(0, 0, None)]
    best: tuple[int, tuple] | None = None  # value, link

    for idx, tau in enumerate(layer_times):
        anchor = release_anchor(grid, tau)
        # blocks per (scheduled counts, last orders), shared by the states
        # and masks of this layer that reach the same pair
        blocks_if: dict[tuple, list[tuple]] = {}
        for (alphas, betas), entries in layers[idx].items():
            for mask, (resources, order_cost) in enumerate(orders):
                new_betas = tuple(anchor if mask >> i & 1 else betas[i] for i in range(s))
                blocks = blocks_if.get((alphas, new_betas))
                if blocks is None:
                    blocks = blocks_if[alphas, new_betas] = blocks_after(
                        idx, tau, alphas, new_betas
                    )
                event = (tau, resources) if mask else None
                for key, target, block_value, pairs in blocks:
                    reuse_link = event is None and not pairs
                    if target is None:
                        for crit, cost, link in entries:
                            value = combine(crit, block_value) + cost + order_cost
                            if best is None or value < best[0]:
                                best = (value, (link, pairs, event))
                        continue
                    bucket = layers[target]
                    kept = bucket.get(key)
                    if use_max_flow:
                        if kept is None:
                            kept = bucket[key] = []
                        for crit, cost, link in entries:
                            if crit < block_value:
                                crit = block_value
                            cost += order_cost
                            for kept_crit, kept_cost, _ in kept:
                                if kept_crit <= crit and kept_cost <= cost:
                                    break
                            else:
                                kept[:] = [
                                    other for other in kept
                                    if not (crit <= other[0] and cost <= other[1])
                                ]
                                kept.append(
                                    (crit, cost, link if reuse_link else (link, pairs, event))
                                )
                    else:
                        ((crit, cost, link),) = entries
                        crit += block_value
                        cost += order_cost
                        if kept is None or crit + cost < kept[0][0] + kept[0][1]:
                            bucket[key] = [
                                (crit, cost, link if reuse_link else (link, pairs, event))
                            ]

    if best is None:
        raise SolverError("dynamic program found no complete schedule")
    schedule, events = _unwind(best[1])
    solution = evaluate_solution(instance, schedule, events, objective)
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
