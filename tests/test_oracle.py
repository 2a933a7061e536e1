import hashlib
import itertools
import math
import operator
import random
import tracemalloc
from functools import reduce

import pytest

from jrsched import (
    Instance,
    Job,
    Objective,
    OracleLimitError,
    OracleLimits,
    check_feasible,
    emit_solution,
    exact_solve,
    exact_solve_fine_grid,
    replenishment_cost,
    scheduling_cost,
)
from jrsched import oracle
from jrsched.generate import GeneratorSpec, gen_instance
from jrsched.model import (
    CRITERIA,
    ReplenishmentStructure,
    Schedule,
    empty_solution,
    evaluate_solution,
)
from jrsched.oracle import (
    _cheapest_structures,
    _key_precedes,
    _preemptive_runs,
    _residual_bounds,
    _sequence_exact,
    _structure_key,
)
from conftest import R1, random_instance, single_job_instance, walkthrough_instance


class TestKnownOptima:
    def test_walkthrough_with_order_cost_ten(self):
        # One order at t=7 and short jobs first beats every two-order
        # structure: completions 8, 9, 13 plus a single order of cost 10.
        inst = walkthrough_instance(joint_cost=5, item_cost=5)
        sol = exact_solve(inst, Objective.TOTAL_COMPLETION)
        assert sol.total == 40
        assert sol.replenishments.times() == (7,)
        assert sol.schedule.starts == {1: 9, 2: 7, 3: 8}
        assert sol.scheduling_cost == 30
        assert sol.replenishment_cost == 10

    def test_single_job(self):
        sol = exact_solve(single_job_instance(5), Objective.TOTAL_COMPLETION)
        assert sol.total == 6  # order cost plus one time unit
        assert sol.schedule.starts == {1: 0}

    def test_empty_instance(self):
        inst = Instance(1, 3, (2,), ())
        sol = exact_solve(inst, Objective.TOTAL_COMPLETION)
        assert sol.total == 0
        assert len(sol.replenishments) == 0

    def test_walkthrough_max_flow(self):
        sol = exact_solve(walkthrough_instance(1, 1), Objective.MAX_FLOW)
        assert sol.total == 9
        assert sol.replenishments.times() == (0, 7)


class TestFineGrid:
    def test_walkthrough_matches(self):
        inst = walkthrough_instance(joint_cost=5, item_cost=5)
        assert exact_solve_fine_grid(inst, Objective.TOTAL_COMPLETION).total == 40

    def test_single_job(self):
        assert exact_solve_fine_grid(single_job_instance(5), Objective.TOTAL_COMPLETION).total == 6

    def test_empty(self):
        assert exact_solve_fine_grid(Instance(1, 1, (1,), ()), Objective.MAX_FLOW).total == 0

    def test_far_released_job(self):
        # 300,002 points, one of them used: the structure key walks only the
        # points some resource is ordered at
        release = 300_000
        inst = Instance(1, 3, (2,), (Job(1, release, 1, R1),))
        sol = exact_solve_fine_grid(inst, Objective.TOTAL_COMPLETION)
        assert sol.total == 5 + release + 1
        assert sol.replenishments.times() == (release,)
        assert sol.schedule.starts == {1: release}
        assert emit_solution(sol) == emit_solution(exact_solve(inst, Objective.TOTAL_COMPLETION))

    def test_cap_refuses_before_the_grid_is_built(self):
        # 10**7 + 2 points exceed the default cap; a tuple of them alone
        # would take about 400 MB
        inst = Instance(1, 3, (2,), (Job(1, 10**7, 1, R1),))
        tracemalloc.start()
        try:
            with pytest.raises(OracleLimitError, match="exceed the cap"):
                exact_solve_fine_grid(inst, Objective.TOTAL_COMPLETION)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_agrees_with_release_grid(self, rng):
        for trial in range(30):
            s = 2 if trial % 5 == 0 else 1
            inst = random_instance(
                rng, rng.randint(1, 4), s=s,
                max_processing=2 if s == 1 else 1,
                max_release=6 if s == 1 else 3,
                max_weight=2,
            )
            objective = rng.choice(list(Objective))
            assert (
                exact_solve(inst, objective).total
                == exact_solve_fine_grid(inst, objective).total
            )


class TestLimits:
    def test_too_many_jobs(self):
        inst = Instance(1, 1, (0,), tuple(Job(i, 0, 1, R1) for i in range(1, 10)))
        with pytest.raises(OracleLimitError, match="jobs"):
            exact_solve(inst, Objective.TOTAL_COMPLETION, OracleLimits(max_jobs=8))

    def test_enumeration_cap(self):
        inst = Instance(1, 1, (0,), tuple(Job(i, i, 1, R1) for i in range(1, 7)))
        with pytest.raises(OracleLimitError, match="cap"):
            exact_solve(inst, Objective.TOTAL_COMPLETION, OracleLimits(max_grid_subsets=8))

    def test_caps_count_the_full_enumeration(self):
        # one resource, releases 0-4: 2**5 time sets on the release grid;
        # on the fine grid (0-9) every set of at most five of ten points.
        # Most of them are dropped or pruned before any residual is solved,
        # yet the caps count every one, at exactly the same boundary.
        inst = Instance(1, 1, (1,), tuple(Job(i, i - 1, 1, R1) for i in range(1, 6)))
        assert inst.horizon == 9
        fine_sets = sum(math.comb(10, k) for k in range(6))
        for solve, sets in ((exact_solve, 2**5), (exact_solve_fine_grid, fine_sets)):
            expected = emit_solution(solve(inst, Objective.TOTAL_COMPLETION))
            at_cap = solve(inst, Objective.TOTAL_COMPLETION, OracleLimits(max_grid_subsets=sets))
            assert emit_solution(at_cap) == expected
            with pytest.raises(OracleLimitError, match=f"^{sets} replenishment structures exceed"):
                solve(inst, Objective.TOTAL_COMPLETION, OracleLimits(max_grid_subsets=sets - 1))
            at_cap = solve(inst, Objective.TOTAL_COMPLETION, OracleLimits(max_jobs=5))
            assert emit_solution(at_cap) == expected
            with pytest.raises(OracleLimitError, match="^instance has 5 jobs, limit is 4$"):
                solve(inst, Objective.TOTAL_COMPLETION, OracleLimits(max_jobs=4))

    @pytest.mark.parametrize("fine", (False, True), ids=("release_grid", "fine_grid"))
    def test_caps_count_the_full_product_over_several_resources(self, fine):
        # The structure pass walks only the last resource's time sets per
        # prefix and never the full product, yet the cap counts all of it.
        # s = 2: releases 0-2 (3 points) and horizon 5 (6 points), each
        # resource needed by two jobs; s = 3: releases 0-2 and horizon 6.
        two = Instance(2, 1, (1, 0), (
            Job(1, 0, 1, frozenset({1})), Job(2, 1, 1, frozenset({2})),
            Job(3, 2, 1, frozenset({1, 2})),
        ))
        three = Instance(3, 1, (0, 1, 0), (
            Job(1, 0, 1, frozenset({1})), Job(2, 1, 1, frozenset({2})),
            Job(3, 1, 1, frozenset({3})), Job(4, 2, 1, frozenset({1, 2, 3})),
        ))
        if fine:
            cases = ((two, (1 + 6 + 15) ** 2), (three, (1 + 7 + 21) ** 3))
        else:
            cases = ((two, (2**3) ** 2), (three, (2**3) ** 3))
        solve = exact_solve_fine_grid if fine else exact_solve
        for inst, structures in cases:
            for objective in (Objective.WEIGHTED_FLOW, Objective.MAX_FLOW):
                expected = emit_solution(solve(inst, objective))
                at_cap = solve(inst, objective, OracleLimits(max_grid_subsets=structures))
                assert emit_solution(at_cap) == expected
                message = (
                    f"^{structures} replenishment structures exceed the cap {structures - 1}$"
                )
                with pytest.raises(OracleLimitError, match=message):
                    solve(inst, objective, OracleLimits(max_grid_subsets=structures - 1))

    def test_bad_limits(self):
        with pytest.raises(ValueError, match="max_jobs must be >= 0, got -1"):
            OracleLimits(max_jobs=-1)
        with pytest.raises(ValueError, match="max_grid_subsets must be >= 1, got 0"):
            OracleLimits(max_grid_subsets=0)


class TestStructuralInvariants:
    def test_relabeling_invariance(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 5), s=2, max_processing=2, max_weight=3)
            objective = rng.choice(list(Objective))
            base = exact_solve(inst, objective).total

            permuted_ids = {job.id: 100 + job.id * 7 for job in inst.jobs}
            relabeled = Instance(
                2,
                inst.joint_cost,
                (inst.item_costs[1], inst.item_costs[0]),
                tuple(
                    Job(
                        permuted_ids[job.id],
                        job.release,
                        job.processing,
                        frozenset(3 - r for r in job.resources),
                        job.weight,
                    )
                    for job in inst.jobs
                ),
            )
            assert exact_solve(relabeled, objective).total == base

    def test_removing_a_job_never_costs_more(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(2, 5), s=1, max_processing=3, max_weight=2)
            objective = rng.choice(list(Objective))
            full = exact_solve(inst, objective).total
            drop = rng.choice(inst.jobs).id
            smaller = Instance(
                1, inst.joint_cost, inst.item_costs,
                tuple(job for job in inst.jobs if job.id != drop),
            )
            assert exact_solve(smaller, objective).total <= full

    def test_solution_feasible_with_matching_breakdown(self, rng):
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 5), s=2, max_processing=2, max_weight=3)
            objective = rng.choice(list(Objective))
            sol = exact_solve(inst, objective)
            assert check_feasible(inst, sol).ok
            assert sol.scheduling_cost == scheduling_cost(inst, sol.schedule, objective)
            assert sol.replenishment_cost == replenishment_cost(inst, sol.replenishments)
            assert sol.total == sol.scheduling_cost + sol.replenishment_cost


class TestResidualSequencing:
    def test_sequencing_tie_break_prefers_smallest_starts(self):
        effective = (0, 0)
        jobs_data = ((0, 1, 1), (0, 1, 1))
        cost, starts = _sequence_exact(effective, jobs_data, Objective.TOTAL_COMPLETION)
        assert cost == 3
        assert starts == (0, 1)

    def test_one_resource_max_flow_takes_the_smallest_starts(self):
        # among the optimal orders the smallest start vector, as for every
        # other criterion: release order (1, 3, 2) ties at 16 but starts
        # job 2 at 14
        inst = gen_instance(GeneratorSpec(seed=2, n=3, num_resources=1, joint_cost=3,
                                          item_cost_max=3, max_release=9, max_processing=3))
        sol = exact_solve(inst, Objective.MAX_FLOW)
        assert dict(sol.schedule.starts) == {1: 9, 2: 11, 3: 12}
        assert sol.total == 16
        assert check_feasible(inst, sol).ok

    def test_matches_brute_force_over_all_orders(self):
        rng = random.Random(2024)
        for trial in range(320):
            n = 1 + trial % 7
            # every other residual draws from small ranges, so that identical
            # jobs and equal-cost orders are common
            small = trial % 2 == 0
            releases = [rng.randint(0, 3 if small else 8) for _ in range(n)]
            # effective releases trail the releases by uneven delays, so they
            # need not be monotone in them
            effective = tuple(r + rng.choice((0, 0, rng.randint(1, 5))) for r in releases)
            jobs_data = tuple(
                (r, rng.randint(1, 2 if small else 4), rng.randint(1, 2 if small else 3))
                for r in releases
            )
            expected = brute_force_sequence(effective, jobs_data)
            for objective in Objective:
                assert _sequence_exact(effective, jobs_data, objective) == expected[objective], (
                    effective, jobs_data, objective
                )

    def test_twins_by_value_function_match_brute_force(self):
        # the jobs fall into a few (effective release, processing time)
        # groups and differ inside a group in release and weight, so only
        # the value function decides which of them are twins: the release
        # under max flow, the weight under the weighted sums, neither under
        # the unweighted sums
        rng = random.Random(2626)
        for trial in range(150):
            n = 2 + trial % 6
            groups = [(rng.randint(2, 6), rng.randint(1, 2)) for _ in range(1 + trial % 3)]
            effective, jobs_data = [], []
            for _ in range(n):
                eff, proc = rng.choice(groups)
                effective.append(eff)
                jobs_data.append((rng.randint(0, eff), proc, rng.randint(1, 2)))
            effective, jobs_data = tuple(effective), tuple(jobs_data)
            expected = brute_force_sequence(effective, jobs_data)
            for objective in Objective:
                assert _sequence_exact(effective, jobs_data, objective) == expected[objective], (
                    effective, jobs_data, objective
                )


WEIGHTED = (Objective.WEIGHTED_COMPLETION, Objective.WEIGHTED_FLOW)


class TestResidualBounds:
    def test_cheap_below_tight_below_residual(self):
        rng = random.Random(4242)
        for trial in range(400):
            n = 1 + trial % 6
            releases = [rng.randint(0, 6) for _ in range(n)]
            effective = tuple(r + rng.choice((0, 0, rng.randint(1, 5))) for r in releases)
            jobs_data = tuple((r, rng.randint(1, 4), rng.randint(1, 4)) for r in releases)
            for objective in Objective:
                cheap, tight = _residual_bounds(jobs_data, objective)
                residual = _sequence_exact(effective, jobs_data, objective)[0]
                assert cheap(effective) <= tight(effective) <= residual, (
                    effective, jobs_data, objective
                )

    def test_weighted_bounds_against_brute_force(self):
        # uneven processing times and weights, so that the job-splitting
        # bound splits often, and effective releases past the releases, so
        # that weighted flow's offsets differ from them
        rng = random.Random(5151)
        for trial in range(600):
            n = 1 + trial % 7
            releases = [rng.randint(0, 8) for _ in range(n)]
            effective = tuple(r + rng.choice((0, rng.randint(1, 6))) for r in releases)
            jobs_data = tuple((r, rng.randint(1, 5), rng.randint(1, 6)) for r in releases)
            expected = brute_force_sequence(effective, jobs_data) if n <= 5 else None
            for objective in WEIGHTED:
                cheap, tight = _residual_bounds(jobs_data, objective)
                residual = _sequence_exact(effective, jobs_data, objective)
                if expected is not None:
                    assert residual == expected[objective], (effective, jobs_data, objective)
                assert cheap(effective) <= tight(effective) <= residual[0], (
                    effective, jobs_data, objective
                )

    def test_weighted_bound_is_exact_on_one_effective_release(self):
        # with every job ready at once the split-WSPT schedule never splits:
        # it is Smith's rule, optimal for the weighted sums
        rng = random.Random(77)
        for trial in range(200):
            n = 1 + trial % 6
            ready = rng.randint(0, 6)
            jobs_data = tuple(
                (rng.randint(0, ready), rng.randint(1, 5), rng.randint(1, 6)) for _ in range(n)
            )
            effective = (ready,) * n
            for objective in WEIGHTED:
                _, tight = _residual_bounds(jobs_data, objective)
                residual = _sequence_exact(effective, jobs_data, objective)[0]
                assert tight(effective) == residual, (effective, jobs_data, objective)

    def test_split_runs_are_priced_by_their_share_of_the_weight(self):
        # job 0 (p = 2, w = 1, ratio 1 at L = 2) runs 0-1 and is split by job
        # 1 (p = 2, w = 3, ratio 3), which runs 1-3; job 0 ends 3-4.  The
        # runs add 1*1*1 + 3*2*3 + 1*1*4 = 23, so the bound is 12, against
        # the cheap 2 + 9 and the residual 14 of either order
        jobs_data = ((0, 2, 1), (1, 2, 3))
        cheap, tight = _residual_bounds(jobs_data, Objective.WEIGHTED_COMPLETION)
        assert list(_preemptive_runs((0, 1), (2, 2), (-1, -3), False)) == [
            (0, 1, 1), (1, 2, 3), (0, 1, 4)
        ]
        assert cheap((0, 1)) == 11
        assert tight((0, 1)) == 12
        assert _sequence_exact((0, 1), jobs_data, Objective.WEIGHTED_COMPLETION)[0] == 14
        # under weighted flow each run counts from its job's release, so
        # the runs add 23 - 3*2*1 = 17 and the bound is 9
        _, tight = _residual_bounds(jobs_data, Objective.WEIGHTED_FLOW)
        assert tight((0, 1)) == 9

    def test_shared_loop_splits_ties_for_srpt_only(self):
        # job 0 (p = 3) runs from 0; job 1 (p = 1) arrives at 1 with the
        # same rank.  SRPT splits job 0, since job 1 has less time left, so
        # the total completion bound is 2 + 4 = 6 against the residual 7.
        # Split-WSPT keeps job 0 whole on an equal ratio: at L = 3 both
        # ratios are 3, the runs add 3*3*3 + 3*1*4 = 39, and the bound is
        # 13, the residual itself; with job 0 split it would be 33 / 3 = 11
        assert list(_preemptive_runs((0, 1), (3, 1), (0, 0), True)) == [
            (0, 1, 1), (1, 1, 2), (0, 2, 4)
        ]
        runs = list(_preemptive_runs((0, 1), (3, 1), (-1, -1), False))
        assert runs == [(0, 3, 3), (1, 1, 4)]
        assert sum(q * end for _, q, end in runs) == 13
        _, tight = _residual_bounds(((0, 3, 1), (1, 1, 1)), Objective.TOTAL_COMPLETION)
        assert tight((0, 1)) == 6
        jobs_data = ((0, 3, 3), (1, 1, 1))
        _, tight = _residual_bounds(jobs_data, Objective.WEIGHTED_COMPLETION)
        assert tight((0, 1)) == 13
        assert _sequence_exact((0, 1), jobs_data, Objective.WEIGHTED_COMPLETION)[0] == 13

    def test_tight_on_unit_jobs(self):
        # with unit jobs and integer releases the preemptive schedules never
        # preempt, so the bound is the residual itself for every criterion
        # that ignores the weights
        rng = random.Random(99)
        for trial in range(200):
            n = 1 + trial % 7
            releases = [rng.randint(0, 5) for _ in range(n)]
            effective = tuple(r + rng.choice((0, rng.randint(1, 3))) for r in releases)
            jobs_data = tuple((r, 1, rng.randint(1, 3)) for r in releases)
            for objective in (Objective.TOTAL_COMPLETION, Objective.TOTAL_FLOW,
                              Objective.MAX_FLOW):
                _, tight = _residual_bounds(jobs_data, objective)
                residual = _sequence_exact(effective, jobs_data, objective)[0]
                assert tight(effective) == residual, (effective, jobs_data, objective)


def brute_force_sequence(effective, jobs_data):
    """Per objective, the smallest (cost, starts) over every order, each job
    started as early as the machine and its effective release allow."""
    best = {}
    for order in itertools.permutations(range(len(effective))):
        now, starts, completions = 0, [0] * len(effective), []
        for j in order:
            release, processing, weight = jobs_data[j]
            starts[j] = max(now, effective[j])
            now = starts[j] + processing
            completions.append((weight, release, now))
        for objective, (job_value, combine) in CRITERIA.items():
            cost = 0
            for weight, release, completion in completions:
                cost = combine(cost, job_value(weight, release, completion))
            candidate = (cost, tuple(starts))
            if objective not in best or candidate < best[objective]:
                best[objective] = candidate
    return best


def golden_specs():
    """100 seeded instances: s = 1-3, n = 1-6, p up to 1-4, w up to 3."""
    for seed in range(100):
        s = 1 + seed % 3
        yield GeneratorSpec(
            seed=seed,
            n=1 + seed // 3 % 6,
            num_resources=s,
            joint_cost=seed % 4,
            item_cost_max=3,
            max_release=(9, 6, 4)[s - 1],
            max_processing=1 + seed % 4,
            max_weight=3,
        )


# sha256 of the emitted exact_solve solutions below, each the smallest
# (total, order times, start times, resource subsets) over all structures.
# Every oracle change must keep every byte, tie-breaks included, unless it
# states a tie-rule change.
GOLDEN_DIGEST = "b4001188d22d4bf2f4d346811b2fa104085b1f42c3d47bccbde241b9269865b2"


def test_exact_solve_outputs_are_pinned():
    digest = hashlib.sha256()
    for spec in golden_specs():
        instance = gen_instance(spec)
        for objective in Objective:
            digest.update(emit_solution(exact_solve(instance, objective)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def oracle_pool_specs():
    """60 seeded instances shaped like the multi-resource oracle workload:
    s = 2-3, n = 5-6, p up to 1-3, w up to 3, order costs 1, 2, 5, 10."""
    for seed in range(60):
        s = 2 + seed % 2
        yield GeneratorSpec(
            seed=1000 + seed,
            n=5 + seed // 2 % 2,
            num_resources=s,
            joint_cost=(1, 2, 5, 10)[seed // 4 % 4],
            item_cost_max=3,
            max_release={2: 9, 3: 5}[s],
            max_processing=1 + seed % 3,
            max_weight=3,
        )


def test_residuals_sequenced_are_pinned(monkeypatch):
    # How many residuals each criterion sequences over a fixed pool.  Every
    # valid bound gives the same outputs, so only these counts show a weaker
    # bound or a lost dominance skip.  The two weighted criteria differ by
    # the constant sum of w_j r_j, in the residuals and in both bounds, so
    # they sequence the same vectors.
    calls = {objective: 0 for objective in Objective}
    sequence = oracle._sequence_exact

    def counting(effective, jobs_data, objective):
        calls[objective] += 1
        return sequence(effective, jobs_data, objective)

    monkeypatch.setattr(oracle, "_sequence_exact", counting)
    for spec in oracle_pool_specs():
        instance = gen_instance(spec)
        for objective in Objective:
            exact_solve(instance, objective)
    assert calls == {
        Objective.WEIGHTED_COMPLETION: 87,
        Objective.TOTAL_COMPLETION: 83,
        Objective.TOTAL_FLOW: 83,
        Objective.WEIGHTED_FLOW: 87,
        Objective.MAX_FLOW: 76,
    }


class TestAgainstFullEnumeration:
    """The oracle against its earlier loop, which enumerated every structure
    and kept the smallest (total, times, starts, subsets) outright."""

    @pytest.mark.parametrize("fine", (False, True), ids=("release_grid", "fine_grid"))
    def test_outputs_match_on_tie_heavy_instances(self, fine):
        solve = exact_solve_fine_grid if fine else exact_solve
        for spec in tie_heavy_specs(fine):
            instance = gen_instance(spec)
            for objective in Objective:
                expected = emit_solution(full_enumeration(instance, objective, fine))
                assert emit_solution(solve(instance, objective)) == expected, (spec, objective)

    def test_residual_never_falls_as_releases_rise(self):
        # the property the dominance skip relies on
        rng = random.Random(7007)
        for trial in range(300):
            n = 1 + trial % 6
            releases = [rng.randint(0, 5) for _ in range(n)]
            jobs_data = tuple((r, rng.randint(1, 3), rng.randint(1, 3)) for r in releases)
            early = tuple(r + rng.randint(0, 2) for r in releases)
            late = tuple(e + rng.choice((0, 0, 1, rng.randint(1, 4))) for e in early)
            for objective in Objective:
                assert (
                    _sequence_exact(early, jobs_data, objective)[0]
                    <= _sequence_exact(late, jobs_data, objective)[0]
                ), (early, late, jobs_data, objective)


class TestStructurePass:
    """The structure pass against a product over tuple cover vectors."""

    @pytest.mark.parametrize("fine", (False, True), ids=("release_grid", "fine_grid"))
    def test_matches_tuple_cover_product(self, fine):
        rng = random.Random(1919 + fine)
        for trial in range(120):
            s = 1 + trial % 4
            costs = ((0,), (0, 1))[trial // 4 % 2]
            # from s = 2 on, every other instance has a resource that no job
            # needs, so all of its time sets stay on the release grid
            idle = s > 1 and trial // 8 % 2 == 1
            needed = s - idle
            if fine:
                n, max_release, max_processing = ((4, 3, 2), (3, 2, 1), (2, 2, 1), (2, 1, 1))[s - 1]
            else:
                n, max_release, max_processing = ((6, 6, 2), (5, 4, 2), (4, 3, 2), (4, 2, 2))[s - 1]
            inst = random_instance(
                rng, rng.randint(1, n), s=needed, max_processing=max_processing,
                max_weight=2, max_release=max_release, cost_choices=costs,
            )
            if idle:
                inst = Instance(
                    s, inst.joint_cost, inst.item_costs + (rng.choice(costs),), inst.jobs
                )
            points = tuple(range(inst.horizon + 1)) if fine else inst.release_grid
            caps = [
                sum(i in job.resources for job in inst.jobs) if fine else len(points)
                for i in range(1, s + 1)
            ]
            expected = tuple_cover_structures(inst, points, caps)
            assert _cheapest_structures(inst, points, caps) == expected, (trial, inst)


class TestKeyPrecedes:
    """The tie compare of the structure pass against the key it stands for."""

    def test_matches_structure_key_order(self):
        rng = random.Random(3131)
        for trial in range(6000):
            s = 1 + trial % 3
            m = rng.randint(1, 6)
            points = tuple(sorted(rng.sample(range(3 * m), m)))
            masks = tuple(0 if rng.random() < 0.2 else rng.randrange(1 << m) for _ in range(s))
            union = reduce(operator.or_, masks)
            shape = trial // 3 % 3
            if shape == 0:  # independent, zero masks included
                other = tuple(
                    0 if rng.random() < 0.2 else rng.randrange(1 << m) for _ in range(s)
                )
            elif shape == 1:  # the same union, resources reshuffled over it
                other = [0] * s
                for b in range(m):
                    if union >> b & 1:
                        for i in rng.sample(range(s), rng.randint(1, s)):
                            other[i] |= 1 << b
                other = tuple(other)
            else:  # one point toggled in one resource
                i = rng.randrange(s)
                other = masks[:i] + (masks[i] ^ 1 << rng.randrange(m),) + masks[i + 1 :]
            other_union = reduce(operator.or_, other)
            key = _structure_key(points, masks)
            other_key = _structure_key(points, other)
            assert _key_precedes(union, masks, other_union, other) == (key < other_key), (
                points, masks, other
            )
            assert _key_precedes(other_union, other, union, masks) == (other_key < key), (
                points, masks, other
            )
            assert not _key_precedes(union, masks, union, masks)

    def test_prefix_and_subset_rules(self):
        # point indices (0,) come before (0, 1), and (0, 1) before (0, 2);
        # at equal times the subset (1,) comes before (1, 2), (1, 2) before
        # (1, 3), and (2,) after (1, 2)
        assert _key_precedes(0b001, (0b001,), 0b011, (0b011,))
        assert _key_precedes(0b011, (0b011,), 0b101, (0b101,))
        assert not _key_precedes(0b101, (0b101,), 0b011, (0b011,))
        assert _key_precedes(0b1, (0b1, 0b0), 0b1, (0b1, 0b1))
        assert _key_precedes(0b1, (0b1, 0b1, 0b0), 0b1, (0b1, 0b0, 0b1))
        assert not _key_precedes(0b1, (0b0, 0b1), 0b1, (0b1, 0b1))


def _cover_vector(times, needing, n):
    """First ordering time at/after each needing job's release, 0 elsewhere;
    None when some needing job is never covered."""
    cover = [0] * n
    for idx, release in needing:
        for t in times:
            if t >= release:
                cover[idx] = t
                break
        else:
            return None
    return tuple(cover)


def tuple_cover_structures(instance, points, caps):
    """{effective releases: (ordering cost, time-set mask per resource)} of
    the smallest (ordering cost, order times, resource subsets) per vector,
    over the product of every resource's time sets of at most ``caps[i]``
    points, each with its cover vector as a tuple.  No time set is dropped."""
    jobs = instance.jobs
    n = len(jobs)
    s = instance.num_resources
    options = []
    for i in range(1, s + 1):
        needing = tuple((idx, job.release) for idx, job in enumerate(jobs) if i in job.resources)
        sets = []
        for k in range(min(caps[i - 1], len(points)) + 1):
            for combo in itertools.combinations(range(len(points)), k):
                cover = _cover_vector(tuple(points[b] for b in combo), needing, n)
                if cover is not None:
                    sets.append((sum(1 << b for b in combo), instance.item_costs[i - 1] * k, cover))
        options.append(sets)
    best = {}
    for combo in itertools.product(*options):
        masks = tuple(mask for mask, _, _ in combo)
        union = reduce(operator.or_, masks)
        used = [b for b in range(len(points)) if union >> b & 1]
        repl = sum(term for _, term, _ in combo) + instance.joint_cost * len(used)
        eff = tuple(max(column) for column in zip(*(cover for _, _, cover in combo)))
        times = tuple(points[b] for b in used)
        subsets = tuple(tuple(i + 1 for i in range(s) if masks[i] >> b & 1) for b in used)
        candidate = (repl, times, subsets, masks)
        if eff not in best or candidate < best[eff]:
            best[eff] = candidate
    return {eff: (repl, masks) for eff, (repl, _, _, masks) in best.items()}


def tie_heavy_specs(fine):
    """Seeded instances with every cost 0, or every cost drawn from {0, 1},
    and short release ranges, so that optima tie often; s = 1-3."""
    for seed in range(60 if fine else 150):
        s = 1 + seed % 3
        if fine:  # the fine grid enumerates every time up to the horizon
            n, max_release, max_processing = ((4, 3, 2), (3, 2, 1), (3, 1, 1))[s - 1]
        else:
            n, max_release, max_processing = 6, (5, 3, 2)[s - 1], 2
        costs = seed // 3 % 2
        yield GeneratorSpec(
            seed=seed,
            n=1 + seed // 6 % n,
            num_resources=s,
            joint_cost=costs * (seed // 2 % 2),
            item_cost_max=costs,
            max_release=max_release,
            max_processing=max_processing,
            max_weight=2,
        )


def full_enumeration(instance, objective, fine):
    """The oracle's enumeration before effective-release grouping: every
    structure in product order, residuals memoised by effective releases,
    pruned only when a lower bound exceeds the incumbent."""
    jobs = instance.jobs
    n = len(jobs)
    if n == 0:
        return empty_solution(objective)
    points = tuple(range(instance.horizon + 1)) if fine else instance.release_grid
    s = instance.num_resources
    needing = [
        tuple((idx, job.release) for idx, job in enumerate(jobs) if i in job.resources)
        for i in range(1, s + 1)
    ]
    candidates = []
    for i in range(s):
        m = len(points)
        sets = []
        for k in range(0, min(len(needing[i]), m) + 1 if fine else m + 1):
            sets.extend(itertools.combinations(range(m), k))
        options = []
        for combo in sets:
            cover = _cover_vector(tuple(points[b] for b in combo), needing[i], n)
            if cover is not None:
                options.append((sum(1 << b for b in combo), instance.item_costs[i] * len(combo), cover))
        candidates.append(options)

    jobs_data = tuple((job.release, job.processing, job.weight) for job in jobs)
    releases = tuple(job.release for job in jobs)
    procs = tuple(job.processing for job in jobs)
    weights = tuple(job.weight for job in jobs)
    joint = instance.joint_cost
    job_value, combine = CRITERIA[objective]

    def sched_lower_bound(eff):
        completions = map(operator.add, eff, procs)
        return reduce(combine, map(job_value, weights, releases, completions), 0)

    residual_memo = {}

    def residual(eff):
        hit = residual_memo.get(eff)
        if hit is None:
            hit = _sequence_exact(eff, jobs_data, objective)
            residual_memo[eff] = hit
        return hit

    best_total = best_key = best_combo = best_starts = None

    def combo_key(combo, starts):
        union = 0
        for mask, _, _ in combo:
            union |= mask
        times = tuple(points[b] for b in range(len(points)) if union >> b & 1)
        subsets = tuple(
            tuple(i + 1 for i in range(s) if combo[i][0] >> b & 1)
            for b in range(len(points))
            if union >> b & 1
        )
        return (times, starts, subsets)

    for combo in itertools.product(*candidates):
        union = 0
        repl = 0
        for mask, cost_term, _ in combo:
            union |= mask
            repl += cost_term
        repl += joint * union.bit_count()
        eff = combo[0][2]
        for entry in combo[1:]:
            eff = tuple(map(max, eff, entry[2]))
        if best_total is not None and repl + sched_lower_bound(eff) > best_total:
            continue
        sched_cost, starts = residual(eff)
        total = repl + sched_cost
        if best_total is None or total < best_total:
            best_total = total
            best_key = combo_key(combo, starts)
            best_combo = combo
            best_starts = starts
        elif total == best_total:
            key = combo_key(combo, starts)
            if key < best_key:
                best_key = key
                best_combo = combo
                best_starts = starts

    times, _, subsets = combo_key(best_combo, best_starts)
    events = tuple((t, frozenset(rs)) for t, rs in zip(times, subsets))
    schedule = Schedule({job.id: start for job, start in zip(jobs, best_starts)})
    return evaluate_solution(instance, schedule, ReplenishmentStructure(events), objective)
