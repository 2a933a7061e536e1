"""The four benchmark workloads and the correctness gate of every unit.

A workload is a pool of rounds; a round is a fixed mix of units, so every
round costs about the same.  The seed draws the instances; it never changes
the mix.  Sizes are stratified over the pool: round ``index`` of ``rounds``
draws each size from the index-th of ``rounds`` equal slices of its range,
so every seed's pool covers the range evenly and the pool's latency
quantiles move little between seeds.  A unit is one caller request: ``run``
is the timed call into jrsched, ``check`` verifies its result afterwards,
outside the timed region, and returns the problems it found (empty when
correct).

Every function takes ``lib``, a namespace holding the jrsched modules
(``lib.oracle``, ``lib.online``, ...).  Calls go through the module
attributes so that the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from clock import ELASTICITY

ORDER_COSTS = (1, 2, 5, 10)

# Sizes are chosen so that a pool of units that fits one 25-second pass
# still holds enough of them for its throughput and latencies to vary little
# between seeds.  The oracle at n = 8 (about 1 s a solve,
# coefficient of variation 0.3-0.4), the oracle on 2-3 resources at n = 7
# (up to 2 s, variation above 1), dp_wjcj_unit at n >= 11 (up to 7 s) and
# dp_fmax_s1 at n = 30 would put a few heavy units into each pool that swing
# its throughput by tens of percent between seeds, so they are left out.

# The solvers' time grows steeply with the number of distinct release dates
# (the oracle on ratio_sum: about 75 ms at 4 dates, 185 ms at 7;
# dp_wjcj_unit at n = 10: 15 ms at 5, 115 ms at 7, 530 ms at 9).  So the
# generated instances are stratified by it: every unit slot of a workload
# asks, over the rounds of the pool, for each stratum of the generator's own
# distribution of that count once (see date_strata), and the generator is
# drawn until it matches.

# ratio_sum: the path of `jrsched ratio --policy sum-cj|sum-fj` at n = 7.
# Each round covers every (order cost, policy) cell once.
RATIO_POLICIES = ("sum-cj", "sum-fj")
RATIO_N = 7
RATIO_MAX_RELEASE = 9

# oracle_multi: exact_solve alone on 2-3 resources; cells are (resources, n,
# largest processing time), each played under all five objectives.  Three
# resources use releases 0..5: at most six distinct dates keep the structure
# count (2^6)^3 under OracleLimits' default cap, so no unit raises.  The
# unit-processing cells let the DPs cross-check the optimum; they use two
# resources because dp_equalp's max-flow check on three costs about ten
# times the unit it checks.
MULTI_CELLS = ((2, 5, 1), (2, 6, 1), (2, 6, 3), (3, 5, 3), (3, 6, 2))
MULTI_MAX_RELEASE = {2: 9, 3: 5}

# online_stream: dense one-job-per-step streams, idle-heavy sparse streams
# and the five adversary games.  Dense sizes take one draw from each of 16
# equal bands of 1..2000 and sparse gaps one log-uniform draw from each third
# of 10^3..10^4 (both stratified over the pool), so every round has the same
# cost profile while latencies still spread continuously.
DENSE_PER_ROUND = 16
DENSE_MAX_N = 2000
SPARSE_GAP_EXPONENTS = (3.0, 10 / 3, 11 / 3, 4.0)
SPARSE_JOBS = 20
ADVERSARY_MAX_K = 5

# dp_scale: the dynamic programs past the oracle's job cap.  dp_fmax_s1 gets
# pairwise distinct releases, so its layer count is n, the DP's worst case
# for that n.  Size ranges are (lowest, highest) and stratified over the
# pool.  The second dp_fmax_s1 slot is always n = 25: its state tables
# (8-16 MB) set the workload's peak memory, and the largest of a pool's 14
# of them varies far less between seeds than the largest of a few.
FMAX_SIZES = ((20, 22), (25, 25))
FMAX_MAX_P = 5
WJCJ_SIZES = ((10, 10),)
WJCJ_MAX_RELEASE = 10
# dp_equalp's total-completion units (a few ms each) are the middle cost
# band of a round: as many units cost less (fmax_unit_distinct, well under
# a millisecond) as cost more (the other DPs, 10-400 ms), so the median
# latency falls in the middle of that band.  The max-flow units get unit
# jobs with distinct releases, where fmax_unit_distinct and dp_fmax_s1 must
# agree with it.
EQUALP_TC_SIZES = (10, 11, 12, 13, 14)
EQUALP_TC_MAX_RELEASE = 10
EQUALP_MF_SIZES = ((10, 11), (12, 13), (14, 14))
DISTINCT_SIZES = (10, 11, 12, 13, 14, 15)


def stratified(rng: random.Random, index: int, rounds: int, lo: float, hi: float) -> float:
    """A uniform draw from the index-th of ``rounds`` equal slices of [lo, hi)."""
    return lo + (index + rng.random()) / rounds * (hi - lo)


def stratified_int(rng: random.Random, index: int, rounds: int, lo: int, hi: int) -> int:
    """An integer of lo..hi from the index-th of ``rounds`` equal slices."""
    return min(hi, int(stratified(rng, index, rounds, lo, hi + 1)))


def date_strata(n: int, max_release: int, rounds: int) -> list[int]:
    """The number of distinct values among ``n`` uniform draws from
    0..max_release at the middle of each of ``rounds`` equal slices of its
    distribution, ascending: the strata of the generator's release dates."""
    m = max_release + 1
    # Stirling numbers of the second kind, S(n, d)
    stirling = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for i in range(1, n + 1):
        for d in range(1, i + 1):
            stirling[i][d] = d * stirling[i - 1][d] + stirling[i - 1][d - 1]
    strata, d, cumulative = [], 0, 0.0
    for i in range(rounds):
        while cumulative < (i + 0.5) / rounds:
            d += 1
            cumulative += math.perm(m, d) * stirling[n][d] / m**n
        strata.append(d)
    return strata


def stratum(n: int, max_release: int, index: int, rounds: int, slot: int) -> int:
    """Slot ``slot``'s date count in round ``index``: each slot meets every
    stratum once over the pool, the slots in different orders."""
    return date_strata(n, max_release, rounds)[(index + 7 * slot) % rounds]


def generated(lib, rng: random.Random, dates: int | None, **spec):
    """A "random"-family instance from ``spec`` on fresh seeds, drawn until
    it has ``dates`` distinct release dates (the first one when None)."""
    while True:
        instance = lib.generate.gen_instance(
            lib.generate.GeneratorSpec(family="random", seed=rng.getrandbits(32), **spec)
        )
        if dates is None or len({job.release for job in instance.jobs}) == dates:
            return instance


@dataclass
class Unit:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    instance: Any = None  # the instance ``run`` solves, when it is fixed up front


# ---------------------------------------------------------------------------
# Gate helpers


def solution_problems(lib, instance, solution, label: str) -> list[str]:
    """Feasibility plus the cost breakdown recomputed from scratch."""
    report = lib.model.check_feasible(instance, solution)
    problems = [f"{label}: {v.kind}: {v.detail}" for v in report.violations]
    if problems:
        return problems
    again = lib.model.evaluate_solution(
        instance, solution.schedule, solution.replenishments, solution.objective
    )
    claimed = (solution.scheduling_cost, solution.replenishment_cost, solution.total)
    recomputed = (again.scheduling_cost, again.replenishment_cost, again.total)
    if claimed != recomputed:
        problems.append(f"{label}: cost breakdown {claimed} != recomputed {recomputed}")
    return problems


def _unit_weights(lib, instance):
    jobs = tuple(
        lib.model.Job(job.id, job.release, job.processing, job.resources, 1)
        for job in instance.jobs
    )
    return lib.model.Instance(
        instance.num_resources, instance.joint_cost, instance.item_costs, jobs
    )


def reference_values(lib, instance, objective, names) -> dict[str, int]:
    """Optimum of every named DP whose problem class covers the instance.

    Flow objectives reuse the completion DPs: total (weighted) flow is total
    (weighted) completion minus the constant sum of (weighted) releases.
    """
    O = lib.model.Objective
    dp = lib.offline_dp
    jobs = instance.jobs
    procs = {job.processing for job in jobs}
    unit = procs == {1}
    equal = len(procs) == 1
    unit_weight = all(job.weight == 1 for job in jobs)
    single = instance.num_resources == 1
    shift = {
        O.TOTAL_COMPLETION: 0,
        O.WEIGHTED_COMPLETION: 0,
        O.TOTAL_FLOW: sum(job.release for job in jobs),
        O.WEIGHTED_FLOW: sum(job.weight * job.release for job in jobs),
    }
    weighted = objective in (O.WEIGHTED_COMPLETION, O.WEIGHTED_FLOW) and not unit_weight
    out = {}
    for name in names:
        if name == "dp_wjcj_unit" and unit and objective in shift:
            base = instance if weighted else _unit_weights(lib, instance)
            out[name] = dp.dp_wjcj_unit(base).total - shift[objective]
        elif name == "dp_equalp" and equal and objective is O.MAX_FLOW:
            out[name] = dp.dp_equalp(instance, O.MAX_FLOW).total
        elif name == "dp_equalp" and equal and objective in shift and not weighted:
            base = _unit_weights(lib, instance)
            out[name] = dp.dp_equalp(base, O.TOTAL_COMPLETION).total - shift[objective]
        elif name == "dp_fmax_s1" and single and objective is O.MAX_FLOW:
            out[name] = dp.dp_fmax_s1(instance).total
        elif (
            name == "fmax_unit_distinct"
            and single
            and unit
            and objective is O.MAX_FLOW
            and len({job.release for job in jobs}) == len(jobs)
        ):
            out[name] = dp.fmax_unit_distinct(instance).total
    return out


def reference_problems(lib, instance, objective, value: int, names, label: str) -> list[str]:
    return [
        f"{label}: value {value} != {name} optimum {ref}"
        for name, ref in reference_values(lib, instance, objective, names).items()
        if ref != value
    ]


def _policy(lib, name: str, order_cost: int):
    online = lib.online
    policies = {
        "sum-cj": online.SumCompletionPolicy,
        "sum-fj": online.SumFlowPolicy,
        "max-flow": online.MaxFlowGridPolicy,
    }
    return policies[name](order_cost)


def _sum_policy_problems(lib, instance, policy_name, order_cost, online, trace, optimum) -> list[str]:
    """The 2-competitive guarantee and the trigger certificates of a sum policy."""
    problems = []
    if not optimum <= online.total <= 2 * optimum:
        problems.append(f"online {online.total} outside [opt, 2*opt] with opt {optimum}")
    certify = (
        lib.online.completion_trigger_violations
        if policy_name == "sum-cj"
        else lib.online.flow_trigger_violations
    )
    problems += certify(instance, online, trace, order_cost)
    return problems


def _objective_of(lib, policy_name: str):
    O = lib.model.Objective
    return O.TOTAL_COMPLETION if policy_name == "sum-cj" else O.TOTAL_FLOW


# ---------------------------------------------------------------------------
# ratio_sum


def ratio_unit(lib, instance, policy_name: str) -> Unit:
    order_cost = instance.joint_cost
    objective = _objective_of(lib, policy_name)

    def run():
        online, trace = lib.online.run_online(instance, _policy(lib, policy_name, order_cost))
        optimum = lib.oracle.exact_solve(instance, objective)
        return online, trace, optimum

    def check(result):
        online, trace, optimum = result
        problems = solution_problems(lib, instance, online, "online")
        problems += solution_problems(lib, instance, optimum, "optimum")
        problems += reference_problems(
            lib, instance, objective, optimum.total, ("dp_equalp",), "optimum"
        )
        problems += _sum_policy_problems(
            lib, instance, policy_name, order_cost, online, trace, optimum.total
        )
        return problems

    return Unit(f"ratio.{policy_name}", run, check, instance)


def ratio_round(lib, rng: random.Random, index: int, rounds: int, small: bool = False) -> list[Unit]:
    units = []
    cells = [(k, p) for k in ORDER_COSTS for p in RATIO_POLICIES]
    for cell, (order_cost, policy_name) in enumerate(cells):
        instance = generated(
            lib,
            rng,
            None if small else stratum(RATIO_N, RATIO_MAX_RELEASE, index, rounds, cell),
            n=3 if small else RATIO_N,
            num_resources=1,
            joint_cost=order_cost,
            item_cost_max=0,
            max_release=RATIO_MAX_RELEASE,
            max_processing=1,
            max_weight=1,
        )
        units.append(ratio_unit(lib, instance, policy_name))
    return units[:4] if small else units


# ---------------------------------------------------------------------------
# oracle_multi


def oracle_unit(lib, instance, objective) -> Unit:
    def run():
        return lib.oracle.exact_solve(instance, objective)

    def check(optimum):
        problems = solution_problems(lib, instance, optimum, "optimum")
        references = (
            ("dp_equalp",) if objective is lib.model.Objective.MAX_FLOW else ("dp_wjcj_unit",)
        )
        problems += reference_problems(
            lib, instance, objective, optimum.total, references, "optimum"
        )
        return problems

    return Unit(f"oracle.s{instance.num_resources}", run, check, instance)


def oracle_round(lib, rng: random.Random, index: int, rounds: int, small: bool = False) -> list[Unit]:
    units = []
    for cell, (s, n, max_p) in enumerate(MULTI_CELLS):
        for k, objective in enumerate(lib.model.Objective):
            max_release = MULTI_MAX_RELEASE[s]
            slot = cell * len(lib.model.Objective) + k
            instance = generated(
                lib,
                rng,
                None if small else stratum(n, max_release, index, rounds, slot),
                n=3 if small else n,
                num_resources=s,
                joint_cost=ORDER_COSTS[(index + k) % len(ORDER_COSTS)],
                item_cost_max=3,
                max_release=max_release,
                max_processing=max_p,
                max_weight=3,
            )
            units.append(oracle_unit(lib, instance, objective))
    return units[::5] if small else units


# ---------------------------------------------------------------------------
# online_stream


def _exceeds_root_two(online_total: int, offline: int) -> bool:
    """online > sqrt(2) * offline + 1, decided in exact integer arithmetic."""
    slack = online_total - 1
    return slack > 0 and slack * slack > 2 * offline * offline


def dense_unit(lib, instance, expect: tuple[int, int] | None = None) -> Unit:
    order_cost = instance.joint_cost

    def run():
        online, _ = lib.online.run_online(instance, _policy(lib, "max-flow", order_cost))
        return online, lib.bounds.lb_ceiling(instance)

    def check(result):
        online, offline = result
        problems = solution_problems(lib, instance, online, "online")
        if not offline <= online.total:
            problems.append(f"online {online.total} below the lower bound {offline}")
        if _exceeds_root_two(online.total, offline):
            problems.append(f"online {online.total} > sqrt(2)*{offline}+1")
        if expect is not None and (online.total, offline) != expect:
            problems.append(f"got {online.total}/{offline}, expected {expect[0]}/{expect[1]}")
        return problems

    return Unit("online.dense", run, check, instance)


def sparse_unit(lib, instance, policy_name: str) -> Unit:
    order_cost = instance.joint_cost
    objective = _objective_of(lib, policy_name)

    def run():
        return lib.online.run_online(instance, _policy(lib, policy_name, order_cost))

    def check(result):
        online, trace = result
        problems = solution_problems(lib, instance, online, "online")
        if problems:
            return problems
        optimum = reference_values(lib, instance, objective, ("dp_wjcj_unit",))["dp_wjcj_unit"]
        return _sum_policy_problems(
            lib, instance, policy_name, order_cost, online, trace, optimum
        )

    return Unit("online.sparse", run, check, instance)


def adversary_unit(lib, spec, expect: tuple[int, int] | None = None) -> Unit:
    def run():
        return lib.adversaries.adversary_run(spec)

    def check(outcome):
        instance = outcome.instance
        problems = solution_problems(lib, instance, outcome.online, "online")
        problems += solution_problems(lib, instance, outcome.offline, "offline")
        problems += reference_problems(
            lib,
            instance,
            outcome.offline.objective,
            outcome.offline.total,
            ("dp_wjcj_unit", "dp_equalp", "fmax_unit_distinct"),
            "offline",
        )
        if outcome.online.total < outcome.offline.total:
            problems.append("online beats the offline optimum")
        if outcome.ratio != outcome.online.total / outcome.offline.total:
            problems.append(f"ratio {outcome.ratio} does not match the totals")
        got = (outcome.online.total, outcome.offline.total)
        if expect is not None and got != expect:
            problems.append(f"got {got[0]}/{got[1]}, expected {expect[0]}/{expect[1]}")
        return problems

    return Unit(f"adversary.{spec.kind}", run, check)


def _sparse_instance(lib, rng: random.Random, gap: int, jobs: int):
    resource = frozenset({1})
    releases, t = [], 0
    for _ in range(jobs):
        t += gap + rng.randint(0, gap // 10)
        releases.append(t)
    return lib.model.Instance(
        1,
        rng.choice(ORDER_COSTS),
        (0,),
        tuple(lib.model.Job(j, r, 1, resource) for j, r in enumerate(releases, start=1)),
    )


def online_round(lib, rng: random.Random, index: int, rounds: int, small: bool = False) -> list[Unit]:
    gen = lib.generate
    units = []
    dense = 4 if small else DENSE_PER_ROUND
    width = (50 if small else DENSE_MAX_N) // dense
    for i in range(dense):
        n = stratified_int(rng, index, rounds, i * width + 1, (i + 1) * width)
        spec = gen.GeneratorSpec(family="regular", n=n, joint_cost=ORDER_COSTS[i % 4])
        units.append(dense_unit(lib, gen.gen_instance(spec)))
    # criterion 5's pinned case
    spec = gen.GeneratorSpec(family="regular", n=1275, joint_cost=1)
    units.append(dense_unit(lib, gen.gen_instance(spec), expect=(100, 72)))
    bands = zip(SPARSE_GAP_EXPONENTS, SPARSE_GAP_EXPONENTS[1:])
    for i, (lo, hi) in enumerate(((1.0, 1.0),) if small else bands):
        gap = round(10 ** stratified(rng, index, rounds, lo, hi))
        policy_name = RATIO_POLICIES[(index + i) % 2]
        units.append(sparse_unit(lib, _sparse_instance(lib, rng, gap, SPARSE_JOBS), policy_name))
    adv = lib.adversaries
    for k, kind in enumerate(adv.KINDS):
        w2 = 1 + index % 3 if kind == adv.WEIGHTED_GOLDEN else None
        spec = adv.AdversarySpec(kind, 1 + (index + k) % ADVERSARY_MAX_K, w2)
        units.append(adversary_unit(lib, spec))
    # criterion 7's pinned case
    units.append(adversary_unit(lib, adv.AdversarySpec(adv.SUM_CJ_3_2, 100), expect=(401, 302)))
    return units


# ---------------------------------------------------------------------------
# dp_scale


def dp_unit(lib, instance, solver: str, objective, references) -> Unit:
    dp = lib.offline_dp

    def run():
        if solver == "dp_equalp":
            return dp.dp_equalp(instance, objective)
        return getattr(dp, solver)(instance)

    def check(solution):
        problems = solution_problems(lib, instance, solution, solver)
        problems += reference_problems(
            lib, instance, objective, solution.total, references, solver
        )
        if objective is lib.model.Objective.MAX_FLOW:
            bound = lib.bounds.lb_ceiling(instance)
            if solution.total < bound:
                problems.append(f"{solver}: {solution.total} below the lower bound {bound}")
        return problems

    return Unit(f"dp.{solver}", run, check, instance)


def _jobs_instance(lib, rng: random.Random, s: int, releases, processing: int = 1,
                   max_processing: int | None = None):
    """Jobs at the given releases; processing times are all ``processing``,
    or drawn from 1..max_processing when that is given."""
    model = lib.model
    jobs = []
    for job_id, release in enumerate(releases, start=1):
        size = rng.randint(1, s)
        resources = frozenset(rng.sample(range(1, s + 1), size))
        p = processing if max_processing is None else rng.randint(1, max_processing)
        jobs.append(model.Job(job_id, release, p, resources))
    items = tuple(rng.randint(0, 3) for _ in range(s))
    return model.Instance(s, rng.choice(ORDER_COSTS), items, tuple(jobs))


def dp_round(lib, rng: random.Random, index: int, rounds: int, small: bool = False) -> list[Unit]:
    O = lib.model.Objective

    def sizes(ranges):
        return [stratified_int(rng, index, rounds, lo, hi) for lo, hi in ranges]

    units = []
    for n in (8,) if small else sizes(FMAX_SIZES):
        releases = rng.sample(range(2 * n), n)
        instance = _jobs_instance(lib, rng, 1, releases, max_processing=FMAX_MAX_P)
        units.append(dp_unit(lib, instance, "dp_fmax_s1", O.MAX_FLOW, ()))
    for n in (5,) if small else sizes(WJCJ_SIZES):
        instance = generated(
            lib,
            rng,
            None if small else stratum(n, WJCJ_MAX_RELEASE, index, rounds, 0),
            n=n,
            num_resources=2,
            joint_cost=rng.choice(ORDER_COSTS),
            item_cost_max=3,
            max_release=WJCJ_MAX_RELEASE,
            max_processing=1,
        )
        units.append(
            dp_unit(lib, instance, "dp_wjcj_unit", O.WEIGHTED_COMPLETION, ("dp_equalp",))
        )
    for i, n in enumerate((5,) if small else EQUALP_TC_SIZES):
        processing = 1 + (index + i) % 3
        dates = None if small else stratum(n, EQUALP_TC_MAX_RELEASE, index, rounds, i)
        while True:
            releases = [rng.randint(0, EQUALP_TC_MAX_RELEASE) for _ in range(n)]
            if dates is None or len(set(releases)) == dates:
                break
        instance = _jobs_instance(lib, rng, 1, releases, processing)
        units.append(
            dp_unit(lib, instance, "dp_equalp", O.TOTAL_COMPLETION, ("dp_wjcj_unit",))
        )
    for n in (5,) if small else sizes(EQUALP_MF_SIZES):
        instance = _jobs_instance(lib, rng, 1, rng.sample(range(2 * n), n))
        units.append(
            dp_unit(lib, instance, "dp_equalp", O.MAX_FLOW, ("dp_fmax_s1", "fmax_unit_distinct"))
        )
    for n in (5,) if small else DISTINCT_SIZES:
        instance = _jobs_instance(lib, rng, 1, rng.sample(range(2 * n), n))
        units.append(dp_unit(lib, instance, "fmax_unit_distinct", O.MAX_FLOW, ("dp_fmax_s1",)))
    return units


# name -> (round factory, rounds in the pool, elasticity of the clock's
# scaling; see clock.py).  A pass over each pool takes 15-23 seconds at the
# seed commit on a 2-CPU machine, so a 25-second run measures the whole pool
# once and part of it twice.
WORKLOADS = {
    "ratio_sum": (ratio_round, 20, ELASTICITY),
    "oracle_multi": (oracle_round, 30, ELASTICITY),
    "online_stream": (online_round, 16, 1.0),
    "dp_scale": (dp_round, 14, ELASTICITY),
}
