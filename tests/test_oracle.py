import hashlib
import itertools
import random

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
from jrsched.generate import GeneratorSpec, gen_instance
from jrsched.model import CRITERIA
from jrsched.oracle import _sequence_exact, _sequence_release_order
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
    def test_release_order_matches_full_search_for_max_flow(self):
        # the one-resource max-flow shortcut must agree with exhaustive
        # sequencing whenever effective releases are monotone in releases
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 6)
            releases = sorted(rng.randint(0, 8) for _ in range(n))
            bump = rng.randint(0, 3)
            effective = tuple(r + rng.randint(0, bump) for r in releases)
            effective = tuple(max(effective[: i + 1]) for i in range(n))  # keep monotone
            jobs_data = tuple((releases[i], rng.randint(1, 4), 1) for i in range(n))
            fast = _sequence_release_order(effective, jobs_data)
            full = _sequence_exact(effective, jobs_data, Objective.MAX_FLOW)
            assert fast[0] == full[0]

    def test_sequencing_tie_break_prefers_smallest_starts(self):
        effective = (0, 0)
        jobs_data = ((0, 1, 1), (0, 1, 1))
        cost, starts = _sequence_exact(effective, jobs_data, Objective.TOTAL_COMPLETION)
        assert cost == 3
        assert starts == (0, 1)

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


# sha256 of the emitted exact_solve solutions below, computed with the
# permutation branch-and-bound that sequenced the residuals before the subset
# DP.  Every oracle change must keep every byte, tie-breaks included.
GOLDEN_DIGEST = "ea021017ff145d1dd3a94569a9b8423811b7d3f7867b0ff1c0b7d2d27c0b4158"


def test_exact_solve_outputs_are_pinned():
    digest = hashlib.sha256()
    for spec in golden_specs():
        instance = gen_instance(spec)
        for objective in Objective:
            digest.update(emit_solution(exact_solve(instance, objective)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
