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
  release anchor per resource).  When all jobs form one class, its
  max-flow Pareto pass also drops the pairs of a state dominated by a
  state of the same count whose last orders are at the same or later
  anchors.
- :func:`dp_fmax_s1` keys on (time the machine becomes free, order count).

A partial solution of :func:`dp_wjcj_unit` or :func:`dp_equalp` carries
its start vector, indexed by sorted job id with 0 for a job not yet placed,
and its order vector, one resource mask per layer; the winner's schedule
and orders are read from them.  :func:`dp_equalp`'s tie rule compares the
vectors, and :func:`dp_wjcj_unit` already holds all that a lexicographic
tie rule would compare.  A partial solution of :func:`dp_fmax_s1` holds
only its parent key and layer, and the winner's blocks are read back once,
at the end: its states are many and each is cheap to expand, and copying
the vectors into every state that replaces another made it 1.8 to 2 times
slower when tried (one resource, n = 20 to 101).

The tie rule depends on the solver:

- :func:`dp_equalp` returns the smallest (total, start vector, order
  vector) over the solutions its layered graph represents.  The rule is
  decided where two partial solutions meet at one key, so neither the
  order in which states are reached nor a pruning that keeps that
  smallest solution can change the output.
- :func:`dp_wjcj_unit` and :func:`dp_fmax_s1` go to the partial solution
  found first: a later one replaces the kept one only when strictly better,
  and the answer is the first final state of least total, in the order the
  states were reached.  What a partial solution stores, vectors or a
  parent pointer, does not change which one wins.
- :func:`fmax_unit_distinct` goes to the smallest equal flow time among
  those of least total.

Every solver returns a full :class:`~jrsched.model.Solution` with
recomputed costs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import add, ge

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

    A partial solution carries its start vector, indexed by sorted job id
    with 0 for a job not yet placed, and its order vector, one resource mask
    per layer, as in :func:`dp_equalp`.  Ties go to the state found first:
    per key the first state with the smallest value is kept, and the answer
    is the first complete state with the smallest value, where states are
    expanded layer by layer, each layer in the order its keys were first
    reached, resource masks ascending.  The vectors are not compared.

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
    ids = sorted(job.id for job in instance.jobs)
    position = {job_id: pos for pos, job_id in enumerate(ids)}
    # (weight, start-vector position, release, 0-based resource indices),
    # heaviest first, ties to the smaller id
    by_weight = [
        (job.weight, position[job.id], job.release, tuple(r - 1 for r in sorted(job.resources)))
        for job in sorted(instance.jobs, key=lambda job: (-job.weight, job.id))
    ]

    # key: (last order time per resource, -1 if never, scheduled positions)
    # value: (weighted completion plus order cost, start per position or 0
    # while unplaced, order mask per layer)
    layer: dict[tuple, tuple] = {
        ((-1,) * s, frozenset()): (0, (0,) * n, (0,) * (len(layer_times) - 1))
    }
    if stats is not None:
        stats["states_per_layer"] = [len(layer)]

    for k, tau in enumerate(layer_times[:-1]):
        window = layer_times[k + 1] - tau
        nxt: dict[tuple, tuple] = {}
        for (betas, scheduled), (value, starts, masks) in layer.items():
            for mask, (_, order_cost) in enumerate(orders):
                new_betas = tuple(tau if mask >> i & 1 else betas[i] for i in range(s))
                chosen: list = []
                for weight, pos, release, needs in by_weight:
                    if pos in scheduled:
                        continue
                    for i in needs:
                        if release > new_betas[i]:
                            break
                    else:
                        chosen.append((weight, pos))
                        if len(chosen) == window:
                            break

                new_value = value + order_cost
                for offset, (weight, _) in enumerate(chosen):
                    new_value += weight * (tau + offset + 1)
                key = (new_betas, scheduled.union(pos for _, pos in chosen))
                incumbent = nxt.get(key)
                if incumbent is None or new_value < incumbent[0]:
                    new_starts = starts
                    if chosen:
                        placed = list(starts)
                        for offset, (_, pos) in enumerate(chosen):
                            placed[pos] = tau + offset
                        new_starts = tuple(placed)
                    new_masks = masks[:k] + (mask,) + masks[k + 1:] if mask else masks
                    nxt[key] = (new_value, new_starts, new_masks)
        layer = nxt
        if stats is not None:
            stats["states_per_layer"].append(len(layer))

    # ordering every resource at the last release always leaves a complete state
    _, starts, masks = min(
        (state for (_, scheduled), state in layer.items() if len(scheduled) == n),
        key=lambda state: state[0],
    )
    schedule = Schedule(dict(zip(ids, starts)))
    events = tuple((layer_times[idx], orders[mask][0]) for idx, mask in enumerate(masks) if mask)
    return evaluate_solution(instance, schedule, ReplenishmentStructure(events), objective)


# ---------------------------------------------------------------------------
# Equal processing times


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
    solutions the layered graph represents.  The start vector is indexed by
    job id, with 0 for a job not yet placed, and the order vector holds one
    resource mask per layer.  Two partial solutions that meet at one key
    have placed the same jobs and share every continuation, so their
    partial vectors compare exactly as the full ones will:

    - Total completion: one pass, in which each key keeps its smallest
      (total, starts, orders).
    - Max flow: a first pass keeps, per key, the Pareto list of (worst flow,
      order cost) and finds the optimum and every final flow F that attains
      it.  A second pass per such F caps each block's flow at F, takes the
      order cost as the value and keeps per key the smallest (cost, starts,
      orders); its least cost is the optimum minus F, reached only by
      solutions of flow F.  The answer is the smallest (starts, orders)
      over the second passes.  The first pass appends what arrives at a
      key and reduces it to its Pareto list once, by one sort, when the
      key's layer is expanded.  Of the pairs one block carries there, the
      block's flow raises all those below it to one flow, so only the
      cheapest of them is appended.

    Two bounds prune the max-flow passes without removing an optimal
    solution, because flow and cost never fall along a path.  The first
    pass drops a pair whose flow plus cost exceeds the best complete value
    found so far; the comparison is strict, so every optimal F survives.
    The pass capped at F drops a state whose cost exceeds the optimum minus
    F.  Blocks above the cap, or above the incumbent in the first pass, are
    not built.

    When all jobs form one class, the Pareto pass also compares the states
    of one layer across anchors.  Take two states with the same count,
    where the last orders of the first are at the same or later anchors
    than the second's on every resource.  Every job ready for the second
    is ready for the first, so the first's ready list extends the second's
    with the same release-ordered prefixes.  The first can then run every
    block the second can, after the same orders: the same jobs at the same
    starts with the same flows, into keys that compare the same way.  So
    any completion of the second completes the first with the same flows
    and costs added, and a pair of the second is dropped when a pair of
    the first is no worse in (worst flow, order cost).  Layers are
    expanded with the later anchors first, so the first state is already
    kept.  The capped passes do not compare across anchors; measured,
    the comparison saved them under 1 %.
    With several classes the ready jobs of all classes merge in release
    order, and later anchors can put a job of one class between two of
    another, so the prefixes differ; there the comparison would change
    tied outputs, and it is not made.

    An empty block waits for the next layer whose time is a release date,
    not for the next layer.  Between two release dates every order has the
    same release anchor and so covers the same jobs.  A block started after
    idling onto a layer that is not a release date could therefore start,
    with its order, on the layer the idling left, and the blocks that
    follow it back to back could move earlier with it.  The move costs no
    more, raises no flow or completion time and makes the start vector
    smaller, so the skip never removes the smallest solution.  The tests
    compare the answer with a walk over every path of the graph without the
    skip.
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
    ids = sorted(job.id for job in instance.jobs)
    position = {job_id: k for k, job_id in enumerate(ids)}
    # a class is the jobs sharing one resource set; per class, in release
    # order: (rank in the release order of all jobs, start-vector position,
    # job, class), plus the releases and the 0-based resources
    class_keys = sorted({tuple(sorted(job.resources)) for job in instance.jobs})
    class_index = {key: idx for idx, key in enumerate(class_keys)}
    class_jobs: list[list[tuple]] = [[] for _ in class_keys]
    by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    for rank, job in enumerate(by_release):
        ell = class_index[tuple(sorted(job.resources))]
        class_jobs[ell].append((rank, position[job.id], job, ell))
    class_releases = [[job.release for _, _, job, _ in jobs] for jobs in class_jobs]
    class_needs = [tuple(r - 1 for r in key) for key in class_keys]
    # a resource never ordered has anchor -1, before every release
    start_key = ((0,) * len(class_keys), (-1,) * s)

    anchors = [release_anchor(grid, tau) for tau in layer_times]
    # blocks of the layer being expanded per (scheduled counts, last
    # orders), built once for all the states and masks that reach the pair
    built: dict[tuple, list[tuple]] = {}
    # with one class, a state whose last orders are all at the same or later
    # anchors than another's of the same count can run every block it can
    across_anchors = len(class_keys) == 1

    def blocks_for(idx: int, alphas: tuple, betas: tuple, mask: int, cap: int | float,
                   with_starts: bool) -> list[tuple]:
        """(target key, target layer or None if complete, criterion value,
        start per vector position, or () if empty or not ``with_starts``)
        of each block started at layer ``idx`` after ordering ``mask`` whose
        criterion value is at most ``cap``: the empty block first, then by
        size, so the criterion values never fall.  The blocks are built once
        per layer, so ``with_starts`` must not change within a layer, and a
        ``cap`` that falls within it may still get blocks above it."""
        if mask:
            anchor = anchors[idx]
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
            blocks.append(((alphas, betas), next_release[idx], 0, ()))
        new_alphas = list(alphas)
        placed = [0] * n
        block_value = 0
        start = layer_times[idx]
        remaining = n - sum(alphas)
        for size, (_, k, job, ell) in enumerate(ready, start=1):
            new_alphas[ell] += 1
            placed[k] = start
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
                ((tuple(new_alphas), betas), target, block_value,
                 tuple(placed) if with_starts else ())
            )
        return blocks

    def least(cap: int | float, budget: int | None) -> tuple | None:
        """Smallest (value, starts, orders) over the complete solutions whose
        blocks have criterion values of at most ``cap`` and whose value is
        at most ``budget``, if given.  The value is the total for total
        completion and the order cost for max flow."""
        # key: (scheduled count per class, last-order release anchor per resource)
        # value: (value, start per vector position, order mask per layer)
        layers: list[dict[tuple, tuple] | None] = [dict() for _ in layer_times]
        layers[0][start_key] = (0, (0,) * n, (0,) * num_layers)
        best = None
        for idx in range(num_layers):
            built.clear()
            for (alphas, betas), (value, starts, masks) in layers[idx].items():
                for mask, (_, order_cost) in enumerate(orders):
                    if budget is not None and value + order_cost > budget:
                        continue
                    if mask:
                        masks_after = masks[:idx] + (mask,) + masks[idx + 1:]
                    else:
                        masks_after = masks
                    for key, target, block_value, placed in blocks_for(
                        idx, alphas, betas, mask, cap, True
                    ):
                        new_value = value + order_cost
                        if not use_max_flow:
                            new_value += block_value
                        kept = best if target is None else layers[target].get(key)
                        if kept is not None and new_value > kept[0]:
                            continue
                        state = (
                            new_value,
                            tuple(map(add, starts, placed)) if placed else starts,
                            masks_after,
                        )
                        if kept is None or state < kept:
                            if target is None:
                                best = state
                            else:
                                layers[target][key] = state
            layers[idx] = None
        return best

    def pareto(bucket: list[tuple], optimum: int | float) -> list[tuple]:
        """The undominated (flow, cost) pairs of ``bucket`` whose sum is at
        most ``optimum``, flows rising and costs strictly falling."""
        # sorted, a pair is undominated when its cost is below every
        # earlier one's
        entries = []
        least_cost = math.inf
        for flow, cost in sorted(bucket):
            if cost < least_cost and flow + cost <= optimum:
                entries.append((flow, cost))
                least_cost = cost
        return entries

    def dominated(entry: tuple, frontier: list[tuple]) -> bool:
        """Whether a pair of the Pareto list ``frontier`` is no worse than
        ``entry`` in flow and cost."""
        # the pair with the largest flow at most the entry's has the least cost
        at = bisect_right(frontier, (entry[0], math.inf))
        return at > 0 and frontier[at - 1][1] <= entry[1]

    def undominated(states: list[tuple]) -> list[tuple]:
        """The (key, Pareto list) pairs of one layer's ``states``, each list
        less its pairs that are ``dominated`` by the list kept at a key of
        the same counts whose last orders are all at the same or later
        anchors.  Keys are taken with the later anchors first, so those are
        already kept; a key with nothing left is dropped."""
        result = []
        group = None
        kept: list[tuple] = []
        for (alphas, betas), entries in sorted(states, reverse=True):
            if alphas != group:
                group, kept = alphas, []
            for other_betas, other in kept:
                if all(map(ge, other_betas, betas)):
                    entries = [entry for entry in entries if not dominated(entry, other)]
                    if not entries:
                        break
            else:
                kept.append((betas, entries))
                result.append(((alphas, betas), entries))
        return result

    def optimal_flows() -> tuple[int | float, set[int]]:
        """The optimum and every final flow of an optimal solution, from
        per-key Pareto lists of (worst flow so far, order cost so far)."""
        # key: (scheduled count per class, last-order release anchor per resource)
        # value: the (worst flow, order cost) pairs that arrived, filtered
        # to a Pareto list when the layer is expanded
        layers: list[dict[tuple, list[tuple]] | None] = [dict() for _ in layer_times]
        layers[0][start_key] = [(0, 0)]
        optimum = math.inf
        flows: set[int] = set()
        for idx in range(num_layers):
            built.clear()
            states = [
                (key, entries) for key, bucket in layers[idx].items()
                if (entries := pareto(bucket, optimum))
            ]
            if across_anchors:
                states = undominated(states)
            for (alphas, betas), entries in states:
                for mask, (_, order_cost) in enumerate(orders):
                    for key, target, block_value, _ in blocks_for(
                        idx, alphas, betas, mask, optimum, False
                    ):
                        if target is None:
                            for crit, cost in entries:
                                flow = crit if crit > block_value else block_value
                                value = flow + cost + order_cost
                                if value < optimum:
                                    optimum, flows = value, {flow}
                                elif value == optimum:
                                    flows.add(flow)
                            continue
                        bucket = layers[target].get(key)
                        if bucket is None:
                            bucket = layers[target][key] = []
                        # flows falling and costs rising: once a flow is at
                        # most the block's, the rest reach it at higher cost
                        for crit, cost in reversed(entries):
                            if crit < block_value:
                                crit = block_value
                            cost += order_cost
                            if crit + cost <= optimum:
                                bucket.append((crit, cost))
                            if crit == block_value:
                                break
            layers[idx] = None
        return optimum, flows

    if use_max_flow:
        # the least cost of the pass capped at flow F is the optimum minus F
        optimum, flows = optimal_flows()
        found = min(
            (least(flow, optimum - flow) for flow in flows),
            key=lambda state: state[1:],
            default=None,
        )
    else:
        found = least(math.inf, None)
    if found is None:
        raise SolverError("dynamic program found no complete schedule")
    _, starts, masks = found

    schedule = Schedule(dict(zip(ids, starts)))
    events = tuple(
        (layer_times[idx], orders[mask][0]) for idx, mask in enumerate(masks) if mask
    )
    solution = evaluate_solution(instance, schedule, ReplenishmentStructure(events), objective)
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
