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

States are deduplicated by a key tuple that determines everything the
future depends on; per key only undominated partial solutions survive.
Every solver returns a full :class:`~jrsched.model.Solution` with
recomputed costs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

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
)


def _mask_to_resources(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


# ---------------------------------------------------------------------------
# Weighted completion time, unit jobs


@dataclass
class _SumState:
    """Partial solution behind one state key of the min-sum programs."""

    weighted_sum: int
    schedule: tuple[tuple[int, int], ...]  # (job id, start)
    events: tuple[tuple[int, frozenset[int]], ...]


def dp_wjcj_unit(instance: Instance, stats: dict | None = None) -> Solution:
    """Optimal weighted total completion time plus ordering cost, unit jobs.

    Layers run over the distinct release dates plus one horizon layer.  A
    state records the set of scheduled jobs, the last ordering time and
    ordering count per resource, and the total number of orders.  Expanding a
    state orders any resource subset at the layer date, then greedily starts
    the largest-weight ready jobs, as many as fit before the next layer.

    The key holds the scheduled set itself, not just how many jobs of each
    class (jobs sharing a required resource subset) are done.  Counts alone
    are not a sound dominance key: two histories can reach equal counts having
    scheduled different weight profiles, and the cheaper prefix may have the
    worse continuation, so merging on counts can lose the optimum.

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
    # heaviest first, ties to the smaller id, with the 0-based resource indices
    by_weight = [
        (job, tuple(r - 1 for r in sorted(job.resources)))
        for job in sorted(instance.jobs, key=lambda job: (-job.weight, job.id))
    ]

    start_key = ((None,) * s, (0,) * s, 0, frozenset())
    layers: dict[tuple, _SumState] = {start_key: _SumState(0, (), ())}
    if stats is not None:
        stats["states_per_layer"] = [len(layers)]

    for k, tau in enumerate(layer_times[:-1]):
        window = layer_times[k + 1] - tau
        nxt: dict[tuple, _SumState] = {}
        for (betas, gammas, delta, scheduled), state in layers.items():
            for mask in range(1 << s):
                if mask:
                    new_betas = tuple(
                        tau if mask >> i & 1 else betas[i] for i in range(s)
                    )
                    new_gammas = tuple(
                        gammas[i] + 1 if mask >> i & 1 else gammas[i] for i in range(s)
                    )
                    new_delta = delta + 1
                    new_events = state.events + ((tau, _mask_to_resources(mask)),)
                else:
                    new_betas = betas
                    new_gammas = gammas
                    new_delta = delta
                    new_events = state.events

                chosen: list = []
                for job, needs in by_weight:
                    if job.id in scheduled:
                        continue
                    for i in needs:
                        beta = new_betas[i]
                        if beta is None or job.release > beta:
                            break
                    else:
                        chosen.append(job)
                        if len(chosen) == window:
                            break

                new_schedule = list(state.schedule)
                new_sum = state.weighted_sum
                for offset, job in enumerate(chosen):
                    start = tau + offset
                    new_schedule.append((job.id, start))
                    new_sum += job.weight * (start + 1)

                new_scheduled = scheduled | {job.id for job in chosen}
                key = (new_betas, new_gammas, new_delta, new_scheduled)
                incumbent = nxt.get(key)
                if incumbent is None or new_sum < incumbent.weighted_sum:
                    nxt[key] = _SumState(new_sum, tuple(new_schedule), new_events)
        layers = nxt
        if stats is not None:
            stats["states_per_layer"].append(len(layers))

    best: tuple[int, _SumState] | None = None
    for (betas, gammas, delta, scheduled), state in layers.items():
        if len(scheduled) != n:
            continue
        repl = instance.joint_cost * delta + sum(
            instance.item_costs[i] * gammas[i] for i in range(s)
        )
        value = state.weighted_sum + repl
        if best is None or value < best[0]:
            best = (value, state)
    if best is None:
        raise SolverError("dynamic program found no complete schedule")
    _, state = best
    schedule = Schedule(dict(state.schedule))
    return evaluate_solution(
        instance, schedule, ReplenishmentStructure(state.events), objective
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

    jobs_by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    class_keys = sorted({tuple(sorted(job.resources)) for job in instance.jobs})
    class_index = {key: idx for idx, key in enumerate(class_keys)}

    def anchor(t: int | None) -> int | None:
        # readiness only depends on the last release at or before the order
        if t is None:
            return None
        pos = bisect_left(grid, t + 1) - 1
        return None if pos < 0 else grid[pos]

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
        for (alphas, betas), entries in layers[idx].items():
            scheduled_count = sum(alphas)
            if scheduled_count == n:
                for entry in entries:
                    consider_complete(entry)
                continue
            # per-class scheduled jobs are always a release-ordered prefix,
            # so the counts identify them exactly
            ready_if: dict[tuple, list] = {}
            for mask in range(1 << s):
                if mask:
                    new_betas = tuple(
                        anchor(tau) if mask >> i & 1 else betas[i] for i in range(s)
                    )
                    order_cost = instance.joint_cost + sum(
                        instance.item_costs[i] for i in range(s) if mask >> i & 1
                    )
                    order = ((tau, _mask_to_resources(mask)),)
                else:
                    new_betas = betas
                    order_cost = 0

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
                            events + order if mask else events,
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
    Layer j means: the order placed at the j-th distinct release date serves
    every job released since the previous order.  A state keeps the previous
    order's date, the start of the current back-to-back run, the first job
    of that run and the number of orders; only the best flow time survives
    per such key.  Jobs sharing a release date are grouped into one layer
    and sequenced consecutively in id order.
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
    for idx, job in enumerate(ordered):
        group_end[date_index[job.release]] = idx + 1
    prefix_p = [0]
    for job in ordered:
        prefix_p.append(prefix_p[-1] + job.processing)

    # state key: (previous order date, run start, first job of run, order count)
    # value: (best flow so far, parent key, parent layer,
    #         (order time, flat span lo/hi, block start))
    layers: list[dict[tuple, tuple]] = [dict() for _ in range(m + 1)]
    layers[0][(0, 0, 0, 0)] = (0, None, 0, None)

    for i in range(m):
        end_i = group_end[i]
        for key, entry in layers[i].items():
            alpha, beta, gamma, count = key
            fmax = entry[0]
            run_finish = beta + prefix_p[end_i] - prefix_p[gamma]
            for j in range(i + 1, m + 1):
                order_time = dates[j - 1]
                end_j = group_end[j]
                block_start = run_finish if run_finish > order_time else order_time
                t = block_start
                worst = fmax
                for idx in range(end_i, end_j):
                    t += ordered[idx].processing
                    flow = t - ordered[idx].release
                    if flow > worst:
                        worst = flow
                if block_start > run_finish:
                    new_beta, new_gamma = block_start, end_i
                else:
                    new_beta, new_gamma = beta, gamma
                new_key = (dates[i - 1] if i > 0 else 0, new_beta, new_gamma, count + 1)
                incumbent = layers[j].get(new_key)
                if incumbent is None or worst < incumbent[0]:
                    layers[j][new_key] = (
                        worst,
                        key,
                        i,
                        (order_time, end_i, end_j, block_start),
                    )

    order_cost = instance.single_resource_order_cost
    best_key = None
    best_value = None
    for key, entry in layers[m].items():
        value = entry[0] + order_cost * key[3]
        if best_value is None or value < best_value:
            best_value = value
            best_key = key
    if best_key is None:
        raise SolverError("dynamic program found no complete schedule")

    starts: dict[int, int] = {}
    times: list[int] = []
    key = best_key
    layer = m
    while layer > 0:
        entry = layers[layer][key]
        _, parent_key, parent_layer, transition = entry
        order_time, lo, hi, block_start = transition
        times.append(order_time)
        t = block_start
        for idx in range(lo, hi):
            starts[ordered[idx].id] = t
            t += ordered[idx].processing
        key = parent_key
        layer = parent_layer
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
