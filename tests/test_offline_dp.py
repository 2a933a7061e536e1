import hashlib
import math
import random
from bisect import bisect_left
from functools import partial

import pytest

from jrsched import (
    Instance,
    Job,
    Objective,
    ReplenishmentStructure,
    Schedule,
    SolverError,
    check_feasible,
    dp_equalp,
    dp_fmax_s1,
    dp_wjcj_unit,
    emit_solution,
    evaluate_solution,
    exact_solve,
    fmax_unit_distinct,
    normalize_replenishments,
    replenishment_cost,
    scheduling_cost,
)
from jrsched.adversaries import AdversarySpec, adversary_run
from jrsched.model import CRITERIA, release_anchor
from jrsched import offline_dp
from jrsched.offline_dp import equal_flow_cover
from conftest import R1, random_instance, walkthrough_instance


def assert_well_formed(inst, sol):
    assert check_feasible(inst, sol).ok
    assert sol.scheduling_cost == scheduling_cost(inst, sol.schedule, sol.objective)
    assert sol.replenishment_cost == replenishment_cost(inst, sol.replenishments)
    assert all(t in inst.release_grid for t in sol.replenishments.times())


class TestWeightedUnit:
    def test_two_jobs_heavier_first(self):
        inst = Instance(1, 0, (2,), (Job(1, 0, 1, R1, 3), Job(2, 0, 1, R1, 1)))
        sol = dp_wjcj_unit(inst)
        assert sol.total == 7
        assert sol.schedule.starts == {1: 0, 2: 1}
        assert sol.replenishments.times() == (0,)

    def test_empty(self):
        assert dp_wjcj_unit(Instance(1, 1, (1,), ())).total == 0

    def test_rejects_long_jobs(self):
        inst = Instance(1, 1, (1,), (Job(1, 0, 2, R1),))
        with pytest.raises(SolverError, match="unit"):
            dp_wjcj_unit(inst)

    def test_multi_resource_jobs(self):
        both = frozenset({1, 2})
        inst = Instance(
            2, 1, (1, 3),
            (Job(1, 0, 1, both, 2), Job(2, 1, 1, frozenset({2}), 1), Job(3, 0, 1, R1, 1)),
        )
        sol = dp_wjcj_unit(inst)
        assert sol.total == exact_solve(inst, Objective.WEIGHTED_COMPLETION).total
        assert_well_formed(inst, sol)

    def test_matches_oracle(self, rng):
        for trial in range(60):
            inst = random_instance(
                rng, rng.randint(1, 7), s=rng.randint(1, 2), max_weight=3
            )
            sol = dp_wjcj_unit(inst)
            assert sol.total == exact_solve(inst, Objective.WEIGHTED_COMPLETION).total
            assert_well_formed(inst, sol)

    def test_state_count_within_polynomial_bound(self, rng):
        for _ in range(20):
            n = rng.randint(2, 7)
            s = rng.randint(1, 2)
            inst = random_instance(rng, n, s=s, max_weight=3)
            stats = {}
            dp_wjcj_unit(inst, stats)
            bound = n ** (3 * s + 2)
            assert len(stats["states_per_layer"]) == len(inst.release_grid)
            assert all(count <= bound for count in stats["states_per_layer"])
        stats = {}
        dp_wjcj_unit(random_instance(random.Random(7), 7, s=2, max_weight=3), stats)
        assert stats["states_per_layer"] == [1, 4, 9, 20, 45, 66]


class TestEqualProcessing:
    def test_two_jobs_single_order(self):
        inst = Instance(1, 3, (0,), (Job(1, 0, 2, R1), Job(2, 1, 2, R1)))
        sol = dp_equalp(inst, Objective.TOTAL_COMPLETION)
        assert sol.total == 11
        assert sol.replenishments.times() == (1,)
        assert sol.schedule.starts == {1: 1, 2: 3}

    def test_single_job_max_flow(self):
        inst = Instance(1, 4, (0,), (Job(1, 0, 2, R1),))
        sol = dp_equalp(inst, Objective.MAX_FLOW)
        assert sol.total == 6
        assert sol.schedule.starts == {1: 0}

    def test_block_may_need_order_at_run_end(self):
        # an order between release dates (at a block completion) is the only
        # way to reach the optimum here; the returned structure is still
        # reported on the release grid
        inst = Instance(1, 1, (0,), (Job(1, 0, 2, R1), Job(2, 1, 2, R1)))
        sol = dp_equalp(inst, Objective.TOTAL_COMPLETION)
        assert sol.total == 8
        assert_well_formed(inst, sol)

    def test_rejects_mixed_processing(self):
        inst = Instance(1, 1, (1,), (Job(1, 0, 2, R1), Job(2, 0, 3, R1)))
        with pytest.raises(SolverError, match="common"):
            dp_equalp(inst, Objective.TOTAL_COMPLETION)

    def test_rejects_weights_for_completion(self):
        inst = Instance(1, 1, (1,), (Job(1, 0, 2, R1, 2),))
        with pytest.raises(SolverError, match="unit weights"):
            dp_equalp(inst, Objective.TOTAL_COMPLETION)

    def test_rejects_unsupported_objective(self):
        inst = Instance(1, 1, (1,), (Job(1, 0, 2, R1),))
        with pytest.raises(SolverError, match="objective"):
            dp_equalp(inst, Objective.WEIGHTED_COMPLETION)

    def test_empty(self):
        assert dp_equalp(Instance(1, 1, (1,), ()), Objective.MAX_FLOW).total == 0

    @pytest.mark.parametrize("objective", [Objective.TOTAL_COMPLETION, Objective.MAX_FLOW])
    def test_matches_oracle(self, rng, objective):
        for trial in range(25):
            inst = random_instance(
                rng, rng.randint(1, 6), s=rng.randint(1, 2),
                equal_processing=rng.randint(1, 3),
            )
            sol = dp_equalp(inst, objective)
            assert sol.total == exact_solve(inst, objective).total
            assert_well_formed(inst, sol)


class TestMaxFlowSingleResource:
    def test_walkthrough(self):
        sol = dp_fmax_s1(walkthrough_instance(1, 1))
        assert sol.total == 9
        assert sol.replenishments.times() == (0, 7)
        assert sol.schedule.starts == {1: 0, 2: 7, 3: 8}
        assert sol.scheduling_cost == 5

    def test_single_job(self):
        inst = Instance(1, 5, (0,), (Job(1, 0, 3, R1),))
        assert dp_fmax_s1(inst).total == 8

    def test_equal_release_dates_grouped(self):
        inst = Instance(1, 2, (0,), (Job(1, 0, 2, R1), Job(2, 0, 1, R1), Job(3, 4, 1, R1)))
        sol = dp_fmax_s1(inst)
        assert sol.total == exact_solve(inst, Objective.MAX_FLOW).total
        assert_well_formed(inst, sol)

    def test_rejects_multi_resource(self):
        # an empty instance too: the resource count is checked before the jobs
        for jobs in ((Job(1, 0, 1, R1),), ()):
            for solver in (dp_fmax_s1, fmax_unit_distinct):
                with pytest.raises(SolverError, match="single-resource"):
                    solver(Instance(2, 1, (1, 1), jobs))

    def test_empty(self):
        assert dp_fmax_s1(Instance(1, 9, (1,), ())).total == 0

    def test_matches_oracle(self, rng):
        for trial in range(60):
            inst = random_instance(rng, rng.randint(1, 7), s=1, max_processing=5)
            sol = dp_fmax_s1(inst)
            assert sol.total == exact_solve(inst, Objective.MAX_FLOW).total
            assert_well_formed(inst, sol)


class TestUnitDistinct:
    def test_cover_for_fixed_flow(self):
        assert equal_flow_cover([1, 2, 3, 5, 7, 8], 3) == [2, 5, 8]

    def test_six_jobs(self):
        inst = Instance(
            1, 1, (1,), tuple(Job(i + 1, r, 1, R1) for i, r in enumerate((1, 2, 3, 5, 7, 8)))
        )
        sol = fmax_unit_distinct(inst)
        assert sol.total == 8
        assert sol.replenishments.times() == (3, 8)
        assert sol.scheduling_cost == 4

    def test_single_job(self):
        inst = Instance(1, 4, (2,), (Job(1, 5, 1, R1),))
        sol = fmax_unit_distinct(inst)
        assert sol.total == 7  # order cost 6 plus flow 1
        assert sol.schedule.starts == {1: 5}

    def test_sparse_releases_need_wide_flow(self):
        # the best equal flow (10) exceeds the job count here
        inst = Instance(
            1, 2, (5,), tuple(Job(i + 1, r, 1, R1) for i, r in enumerate((8, 9, 3, 5, 12)))
        )
        sol = fmax_unit_distinct(inst)
        assert sol.total == 17
        assert len(sol.replenishments) == 1

    def test_rejects_duplicate_releases(self):
        inst = Instance(1, 1, (1,), (Job(1, 0, 1, R1), Job(2, 0, 1, R1)))
        with pytest.raises(SolverError, match="distinct"):
            fmax_unit_distinct(inst)

    def test_rejects_long_jobs(self):
        inst = Instance(1, 1, (1,), (Job(1, 0, 2, R1),))
        with pytest.raises(SolverError, match="unit"):
            fmax_unit_distinct(inst)

    def test_empty(self):
        assert fmax_unit_distinct(Instance(1, 1, (1,), ())).total == 0

    def test_matches_reference_solvers(self, rng):
        for trial in range(60):
            inst = random_instance(
                rng, rng.randint(1, 7), s=1, max_release=14, distinct_releases=True
            )
            fast = fmax_unit_distinct(inst)
            assert fast.total == dp_fmax_s1(inst).total
            assert fast.total == exact_solve(inst, Objective.MAX_FLOW).total
            assert_well_formed(inst, fast)


class TestPastOracleCap:
    """The DPs against each other on sizes the oracle refuses, where states merge."""

    def test_fmax_matches_equalp_on_equal_lengths(self, rng):
        for n in (9, 10, 11, 12) * 4:
            inst = random_instance(
                rng, n, s=1, max_release=10, equal_processing=rng.randint(1, 3)
            )
            sol = dp_fmax_s1(inst)
            assert sol.total == dp_equalp(inst, Objective.MAX_FLOW).total
            assert_well_formed(inst, sol)

    def test_fmax_matches_unit_distinct(self, rng):
        for n in range(10, 41, 3):
            for _ in range(3):
                inst = random_instance(
                    rng, n, s=1, max_release=2 * n, distinct_releases=True
                )
                sol = dp_fmax_s1(inst)
                assert sol.total == fmax_unit_distinct(inst).total
                assert_well_formed(inst, sol)

    @pytest.mark.parametrize("order_cost", [100, 200, 300])
    def test_fmax_matches_unit_distinct_on_the_4_3_game(self, order_cost):
        """The instances the 4/3 max-flow game realizes, 2K + 1 jobs, which
        the game prices with fmax_unit_distinct."""
        outcome = adversary_run(AdversarySpec("fmax_regular_4_3", order_cost))
        assert len(outcome.instance.jobs) == 2 * order_cost + 1
        assert outcome.offline.total == dp_fmax_s1(outcome.instance).total
        assert outcome.offline.total == 3 * order_cost + 1
        assert_well_formed(outcome.instance, outcome.offline)

    def test_wjcj_matches_equalp_on_unit_weights(self, rng):
        for n in (9, 10, 11) * 4:
            inst = random_instance(rng, n, s=rng.randint(1, 2))
            sol = dp_wjcj_unit(inst)
            assert sol.total == dp_equalp(inst, Objective.TOTAL_COMPLETION).total
            assert_well_formed(inst, sol)


def golden_cases(seed):
    """(solver, instance) pairs in each DP's class, s = 1-3 and n up to 5
    (equal lengths), 8 (weighted unit jobs) or 12 (one resource)."""
    rng = random.Random(seed)
    equal = random_instance(
        rng, 1 + seed % 5, s=1 + seed % 2, equal_processing=1 + seed % 3
    )
    return (
        (dp_wjcj_unit, random_instance(
            rng, 1 + seed % 8, s=1 + seed % 3, max_weight=3, max_release=6
        )),
        (partial(dp_equalp, objective=Objective.TOTAL_COMPLETION), equal),
        (partial(dp_equalp, objective=Objective.MAX_FLOW), equal),
        (dp_fmax_s1, random_instance(rng, 1 + seed % 12, s=1, max_processing=5)),
        (fmax_unit_distinct, random_instance(
            rng, 1 + seed % 12, s=1, max_release=15, distinct_releases=True
        )),
    )


# sha256 of the emitted DP solutions below, computed after every layered DP
# came to return the smallest (total, starts, orders) over its graph.  When
# dp_equalp took that rule, 12 of these 500 outputs changed (5 of its 100
# total-completion and 7 of its 100 max-flow outputs).  When dp_wjcj_unit
# and dp_fmax_s1 took it, 25 more changed (16 of dp_wjcj_unit's 100 and 9 of
# dp_fmax_s1's 100).  Every change kept the total.  Every later DP change
# must keep every byte, tie-breaks included.
GOLDEN_DP_DIGEST = "c718bd641ccba049c0b026c3007e7dce63d1d9d6be48bdbd60142b75156fe185"


# sha256 of the 300 emitted solutions of golden_cases from dp_wjcj_unit,
# dp_fmax_s1 and fmax_unit_distinct, recomputed when dp_wjcj_unit and
# dp_fmax_s1 took the smallest-vector tie rule: 25 of them changed (16 of
# dp_wjcj_unit's and 9 of dp_fmax_s1's), each with the same total, and none
# of fmax_unit_distinct's.
GOLDEN_OTHER_DP_DIGEST = "bab1a8b3d96f285cb45996c09bc1c3d516bfdc3d2622ff726ac6f332cb528514"


def test_dp_outputs_are_pinned():
    digest = hashlib.sha256()
    others = hashlib.sha256()
    for seed in range(100):
        for solve, instance in golden_cases(seed):
            text = emit_solution(solve(instance)).encode()
            digest.update(text)
            if getattr(solve, "func", None) is not dp_equalp:
                others.update(text)
    assert others.hexdigest() == GOLDEN_OTHER_DP_DIGEST
    assert digest.hexdigest() == GOLDEN_DP_DIGEST


def wjcj_tie_heavy_cases():
    """Weighted unit-job instances where optima often tie: s = 1-3,
    n = 1-9, weights up to 3, releases up to 2, 4 or 6 and every cost drawn
    from {0} or from {0, 1}."""
    rng = random.Random(1414)
    for _ in range(300):
        s = rng.randint(1, 3)
        n = rng.randint(1, 9)
        yield random_instance(
            rng, n, s=s, max_weight=3, max_release=rng.choice((2, 4, 6)),
            cost_choices=rng.choice(((0,), (0, 1))),
        )


# sha256 of the emitted dp_wjcj_unit solutions of wjcj_tie_heavy_cases,
# recomputed when dp_wjcj_unit came to return the smallest (total, starts,
# orders) instead of the first state found: 70 of these 300 outputs
# changed, each with the same total.  The digest pins which optimum wins,
# not just the total.
GOLDEN_WJCJ_TIE_DIGEST = "f5598926c37c5ba7978888ce38abad198d8d03b1d12dcf87103a58b4631a4275"


def test_dp_wjcj_unit_tie_heavy_outputs_are_pinned():
    digest = hashlib.sha256()
    for instance in wjcj_tie_heavy_cases():
        digest.update(emit_solution(dp_wjcj_unit(instance)).encode())
    assert digest.hexdigest() == GOLDEN_WJCJ_TIE_DIGEST


def equalp_pin_cases():
    """(instance, objective) pairs for dp_equalp past the small golden cases:
    n = 6-10, s = 1-3, common p = 1-3, every cost from {0}, from {0, 1} or
    from the default choices, so that optima often tie.  Max flow on three
    resources stays at n = 6, where it already takes most of the time; ten
    completion-time instances on two resources with releases up to 8 meet
    equal totals at one key."""
    cost_sets = ((0,), (0, 1), (0, 1, 2, 5, 10))
    both = (Objective.TOTAL_COMPLETION, Objective.MAX_FLOW)
    # (resources, jobs, latest release, objectives)
    specs = [(1, n, 6, both) for n in range(6, 11) for _ in cost_sets]
    specs += [(2, n, 3, both) for n in range(6, 11)]
    specs += [(3, 6, 2, both), (3, 8, 2, both[:1]), (3, 10, 2, both[:1])]
    specs += [(2, n, 8, both[:1]) for n in range(6, 11) for _ in range(2)]
    rng = random.Random(2026)
    for k, (s, n, max_release, objectives) in enumerate(specs):
        instance = random_instance(
            rng, n, s=s, max_release=max_release,
            equal_processing=1 + k % 3, cost_choices=cost_sets[k % 3],
        )
        for objective in objectives:
            yield instance, objective
    # two Pareto entries of one key lead to tied optima here, so the tie
    # rule, not the order of a key's entries, must pick the output
    both_resources = frozenset({1, 2})
    jobs = tuple(
        Job(job_id, release, 1, resources)
        for job_id, (release, resources) in enumerate(
            [(7, both_resources), (0, both_resources), (3, both_resources),
             (5, frozenset({2})), (2, frozenset({2})), (2, both_resources),
             (1, both_resources)],
            start=1,
        )
    )
    yield Instance(2, 0, (1, 0), jobs), Objective.MAX_FLOW


# sha256 of the emitted solutions of equalp_pin_cases, computed after
# dp_equalp came to return the smallest (total, starts, orders) over its
# layered graph.  Of these 55 outputs, 10 (5 of the 33 total-completion and
# 5 of the 22 max-flow ones) differ from those of the earlier "first state
# found" rule, each with the same total.  Every byte must stay, tie-breaks
# included.
GOLDEN_EQUALP_DIGEST = "b7990a50010fe9bc0fb95e4e72eb088109a8e72b9ae7395189740bc60c242792"


def test_dp_equalp_outputs_are_pinned():
    digest = hashlib.sha256()
    for instance, objective in equalp_pin_cases():
        digest.update(emit_solution(dp_equalp(instance, objective)).encode())
    assert digest.hexdigest() == GOLDEN_EQUALP_DIGEST


# sha256 of the totals alone, one line each, of every golden_cases solver
# and of dp_equalp on equalp_pin_cases, computed before dp_equalp's tie rule
# changed.  A change of tie rule may move solutions but never a total.
GOLDEN_TOTALS_DIGEST = "38bc1e1678f02efe6a0a52928af7bfae90ba9d99b5d8810bce20af5c7537e101"


def test_dp_totals_are_pinned():
    digest = hashlib.sha256()
    for seed in range(100):
        for solve, instance in golden_cases(seed):
            digest.update(f"{solve(instance).total}\n".encode())
    for instance, objective in equalp_pin_cases():
        digest.update(f"{dp_equalp(instance, objective).total}\n".encode())
    assert digest.hexdigest() == GOLDEN_TOTALS_DIGEST


def multi_class_max_flow_cases():
    """Max-flow instances on two or three resources, n = 3-8, p <= 2,
    releases up to 3, 6 or 10 and tie-heavy costs, where jobs usually fall
    into several classes.  Seeds 28, 191, 302, 368, 759, 824, 994 and 1197
    are ones where comparing states across anchors, as dp_equalp does with
    one class, would change the output, first at n = 6."""
    for seed in (*range(32), 191, 302, 368, 759, 824, 994, 1197):
        rng = random.Random(seed)
        s = rng.randint(2, 3)
        n = rng.randint(3, 8)
        yield random_instance(
            rng, n, s=s, max_release=rng.choice([3, 6, 10]),
            equal_processing=rng.randint(1, 2),
            cost_choices=rng.choice([(0,), (0, 1), (1, 2, 5)]),
        )


# sha256 of the emitted max-flow solutions of multi_class_max_flow_cases,
# computed before dp_equalp compared states across anchors.
GOLDEN_EQUALP_MULTI_CLASS_DIGEST = "4815406b9417478f7ac8db8866c8b9abb51c07e1458d18689c374654c57b0c5f"


def test_dp_equalp_multi_class_max_flow_is_pinned():
    digest = hashlib.sha256()
    for instance in multi_class_max_flow_cases():
        digest.update(emit_solution(dp_equalp(instance, Objective.MAX_FLOW)).encode())
    assert digest.hexdigest() == GOLDEN_EQUALP_MULTI_CLASS_DIGEST


def one_class_max_flow_cases():
    """Max-flow instances of one resource and unit jobs with distinct
    releases in [0, 2n), four at each n = 11-14: one class, where
    dp_equalp drops the most states across anchors."""
    rng = random.Random(2014)
    for n in range(11, 15):
        for _ in range(4):
            yield random_instance(rng, n, max_release=2 * n - 1, distinct_releases=True)


# sha256 of the emitted max-flow solutions of one_class_max_flow_cases,
# computed before dp_equalp compared states across anchors.
GOLDEN_EQUALP_ONE_CLASS_DIGEST = "a32660e2c4105b045cef91d184de7c04c9fab0304d07f0bc8928d6775c82a7f8"


def test_dp_equalp_one_class_max_flow_is_pinned():
    digest = hashlib.sha256()
    for instance in one_class_max_flow_cases():
        digest.update(emit_solution(dp_equalp(instance, Objective.MAX_FLOW)).encode())
    assert digest.hexdigest() == GOLDEN_EQUALP_ONE_CLASS_DIGEST


def multi_class_sweep_cases():
    """Max-flow instances on two or three resources, n = 9-13, common p =
    1-3, where the bounds of the max-flow passes cut the most: the Pareto
    pass over them took 11-14 s on 2 vCPUs before it had bounds."""
    rng = random.Random(2027)
    for _ in range(40):
        s = rng.randint(2, 3)
        n = rng.randint(9, 13)
        yield random_instance(
            rng, n, s=s, max_release=rng.choice([4, 8, 12]),
            equal_processing=rng.randint(1, 3),
            cost_choices=rng.choice([(0, 1), (1, 2, 5), (0, 2, 4, 8)]),
        )


# sha256 of the emitted max-flow solutions of multi_class_sweep_cases,
# computed before the max-flow passes had bounds.
GOLDEN_EQUALP_MULTI_CLASS_SWEEP_DIGEST = (
    "6f99ef13cb841c7c0391d57d710903ac0b44f61cdc06a6270b1aeecf3882ba9b"
)


def test_dp_equalp_multi_class_sweep_is_pinned():
    digest = hashlib.sha256()
    for instance in multi_class_sweep_cases():
        digest.update(emit_solution(dp_equalp(instance, Objective.MAX_FLOW)).encode())
    assert digest.hexdigest() == GOLDEN_EQUALP_MULTI_CLASS_SWEEP_DIGEST


def one_class_sweep_cases():
    """Max-flow instances of one resource, n = 1-12, common p = 1-3,
    releases up to n / 2, n or 2n with repeats, joint cost 0-30 and item
    cost 0-3: where the order-count bound of the max-flow passes and their
    piercing incumbent cut the most."""
    rng = random.Random(2029)
    for _ in range(600):
        n = rng.randint(1, 12)
        p = rng.randint(1, 3)
        top = rng.choice([max(1, n // 2), n, 2 * n])
        jobs = tuple(Job(job_id, rng.randint(0, top), p, R1) for job_id in range(1, n + 1))
        yield Instance(1, rng.randint(0, 30), (rng.randint(0, 3),), jobs)


# sha256 of the emitted max-flow solutions of one_class_sweep_cases,
# computed before the max-flow passes had the order-count bound.
GOLDEN_EQUALP_ONE_CLASS_SWEEP_DIGEST = (
    "43e895881366cce429bb2cef21aefce357961596f28900182526ef4ab46309c3"
)


def test_dp_equalp_one_class_max_flow_sweep_is_pinned():
    digest = hashlib.sha256()
    for instance in one_class_sweep_cases():
        digest.update(emit_solution(dp_equalp(instance, Objective.MAX_FLOW)).encode())
    assert digest.hexdigest() == GOLDEN_EQUALP_ONE_CLASS_SWEEP_DIGEST


def asked_bounds(monkeypatch, solve, instance):
    """Per (layer, key) that the max-flow passes reach while ``solve``
    runs on ``instance``, in either pass, the four things of its bounds;
    and the incumbent of the graph the passes were given."""
    asked = {}
    incumbents = []
    passes = offline_dp._least_max_flow

    def recorded(graph):
        def bounds(idx):
            bound_for = graph.bounds(idx)

            def record(key):
                asked[idx, key] = bound_for(key)
                return asked[idx, key]

            return record

        incumbents.append(graph.incumbent)
        return passes(graph._replace(bounds=bounds))

    with monkeypatch.context() as patch:
        patch.setattr(offline_dp, "_least_max_flow", recorded)
        solve(instance)
    (incumbent,) = incumbents
    return asked, incumbent


def completion(instance, unplaced, start, orders):
    """The rest of a schedule: the ``unplaced`` jobs alone, back to back
    from ``start`` in release order, under the order events ``orders``."""
    rest = Instance(instance.num_resources, instance.joint_cost, instance.item_costs, unplaced)
    starts = {}
    for job in sorted(unplaced, key=lambda job: (job.release, job.id)):
        starts[job.id] = start
        start += job.processing
    events = ReplenishmentStructure(tuple(sorted(orders.items())))
    return rest, evaluate_solution(rest, Schedule(starts), events, Objective.MAX_FLOW)


def frontier(pairs):
    """The (flow, cost) pairs of ``pairs`` that no other is no worse than
    in both, flows rising."""
    kept = []
    for flow, cost in sorted(set(pairs)):
        if not kept or cost < kept[-1][1]:
            kept.append((flow, cost))
    return kept


def equalp_rest(instance, times, idx, unplaced, betas, memo):
    """The (final flow, order cost) frontier of the jobs whose ids are in
    ``unplaced`` over every way dp_equalp's graph, less its skip, can
    place them from layer ``idx`` on, each resource's last order at
    release anchor ``betas`` (-1 if none): an order of any resource subset,
    then an empty block waiting one layer or a release-ordered prefix of
    the ready jobs."""
    state = (idx, unplaced, betas)
    if state in memo:
        return memo[state]
    p = instance.jobs[0].processing
    s = instance.num_resources
    tau = times[idx]
    anchor = release_anchor(instance.release_grid, tau)
    waiting = sorted(
        (job for job in instance.jobs if job.id in unplaced), key=lambda job: (job.release, job.id)
    )
    pairs = []
    for mask in range(1 << s):
        resources = frozenset(i + 1 for i in range(s) if mask >> i & 1)
        order_cost = instance.order_cost(resources) if mask else 0
        after = tuple(anchor if mask >> i & 1 else beta for i, beta in enumerate(betas))
        ready = [
            job for job in waiting if all(job.release <= after[r - 1] for r in job.resources)
        ]
        blocks = [(0, idx + 1, unplaced)] if idx + 1 < len(times) else []
        flow = 0
        for size, job in enumerate(ready, start=1):
            flow = max(flow, tau + size * p - job.release)
            left = unplaced - {placed.id for placed in ready[:size]}
            later = [k for k, t in enumerate(times) if t >= tau + size * p]
            if not left or later:
                blocks.append((flow, later[0] if left else None, left))
        for flow, target, left in blocks:
            rest = [(0, 0)] if target is None else equalp_rest(
                instance, times, target, left, after, memo
            )
            pairs += [(max(flow, rest_flow), order_cost + cost) for rest_flow, cost in rest]
    memo[state] = frontier(pairs)
    return memo[state]


def test_suffix_stab_counts_read_off_one_cover():
    """dp_equalp counts the fewest points stabbing the windows of a suffix
    releases[k:] as the points of the whole list's cover at or after
    releases[k]; that is the size of the suffix's own cover, at every width
    where a count can fall, repeated releases included."""
    rng = random.Random(30)
    for _ in range(300):
        releases = sorted(rng.randint(0, rng.choice((3, 8, 20))) for _ in range(rng.randint(1, 12)))
        for width in offline_dp._stab_widths([releases]):
            points = equal_flow_cover(releases, width)
            for k, release in enumerate(releases):
                count = len(points) - bisect_left(points, release)
                assert count == len(equal_flow_cover(releases[k:], width)), (releases, width, k)


def test_dp_equalp_bounds_are_sound(monkeypatch):
    """At every key the max-flow passes reach, on tiny instances:

    - the least flow is at most every final flow of a way to place the
      rest, and at every F the least further cost C(F) is at most the
      order cost of every way whose final flow is at most F;
    - the Pareto pass keeps a pair of flow x and cost 0 at the incumbent
      that the least completion of the rest reaches from x;
    - the completion, built as its own solution, is feasible at the flow
      and order cost claimed: the short resources ordered once at the later
      of the layer time and the last unplaced release, then every unplaced
      job back to back in release order;
    - the incumbent the passes start from, the piercing schedule, is
      feasible at the flow and order cost it claims, and their sum."""
    rng = random.Random(2718)
    checked = 0
    for _ in range(60):
        instance = random_instance(
            rng, rng.randint(1, 5), s=rng.randint(1, 2), max_release=4,
            equal_processing=rng.randint(1, 2), cost_choices=rng.choice([(0,), (0, 1), (1, 2, 5)]),
        )
        solve = partial(dp_equalp, objective=Objective.MAX_FLOW)
        pierced = []
        piercing = offline_dp._piercing

        def recorded(*args):
            pierced.append(piercing(*args))
            return pierced[-1]

        with monkeypatch.context() as patch:
            patch.setattr(offline_dp, "_piercing", recorded)
            asked, incumbent = asked_bounds(monkeypatch, solve, instance)
        ((flow, cost, starts, events),) = pierced
        solution = evaluate_solution(
            instance, Schedule(starts), ReplenishmentStructure(events), Objective.MAX_FLOW
        )
        assert check_feasible(instance, solution).ok
        assert (solution.scheduling_cost, solution.replenishment_cost) == (flow, cost)
        assert incumbent == flow + cost
        p = instance.jobs[0].processing
        times = sorted(
            {r + k * p for r in instance.release_grid for k in range(len(instance.jobs) + 1)}
        )
        class_keys = sorted({tuple(sorted(job.resources)) for job in instance.jobs})
        classes = [
            sorted(
                (job for job in instance.jobs if tuple(sorted(job.resources)) == key),
                key=lambda job: (job.release, job.id),
            )
            for key in class_keys
        ]
        memo = {}
        for (idx, (alphas, betas)), (least_flow, further, flow, cost) in asked.items():
            unplaced = tuple(job for jobs, done in zip(classes, alphas) for job in jobs[done:])
            rest = equalp_rest(
                instance, times, idx, frozenset(job.id for job in unplaced), betas, memo
            )
            assert least_flow <= rest[0][0]
            for final in range(max(rest[-1][0], further.flows[-2]) + 2):
                paid = [rest_cost for rest_flow, rest_cost in rest if rest_flow <= final]
                assert not paid or further.at(final) <= min(paid)
                reached = min(max(final, rest_flow) + rest_cost for rest_flow, rest_cost in rest)
                assert offline_dp._pareto([(final, 0)], reached, least_flow, further)
            short = frozenset(
                r for job in unplaced for r in job.resources if betas[r - 1] < job.release
            )
            start = max(times[idx], *(job.release for job in unplaced))
            orders = {}
            for i, beta in enumerate(betas):
                if beta >= 0:
                    orders[beta] = orders.get(beta, frozenset()) | {i + 1}
            if short:
                orders[start] = orders.get(start, frozenset()) | short
            rest, solution = completion(instance, unplaced, start, orders)
            assert check_feasible(rest, solution).ok
            assert solution.scheduling_cost == flow
            assert (instance.order_cost(short) if short else 0) == cost
            checked += 1
    assert checked > 500


def fmax_rest(instance, i, free):
    """(least flow, least order cost) of the jobs after dp_fmax_s1's first
    ``i`` groups, the machine free at ``free``, over every set of later
    order dates that holds the last one, each order serving the jobs
    released since the previous one as one block in (release, id) order."""
    dates = instance.release_grid
    by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    least_flow = least_cost = math.inf
    for subset in range(1 << (len(dates) - 1 - i)):
        chosen = [date for k, date in enumerate(dates[i:-1]) if subset >> k & 1] + [dates[-1]]
        served = dates[i - 1] if i else -1
        end = free
        flow = 0
        for date in chosen:
            end = max(end, date)
            for job in by_release:
                if served < job.release <= date:
                    end += job.processing
                    flow = max(flow, end - job.release)
            served = date
        least_flow = min(least_flow, flow)
        least_cost = min(least_cost, instance.single_resource_order_cost * len(chosen))
    return least_flow, least_cost


def test_dp_fmax_s1_bounds_are_sound(monkeypatch):
    """dp_fmax_s1's bounds at every key its max-flow passes reach, as for
    dp_equalp above; the completion orders once at the last release date
    and runs every unplaced job from then, or from the free time if later."""
    rng = random.Random(1828)
    checked = 0
    for _ in range(60):
        instance = random_instance(
            rng, rng.randint(1, 6), max_processing=rng.randint(1, 3), max_release=6,
            cost_choices=rng.choice([(0,), (0, 1), (1, 2, 5)]),
        )
        dates = instance.release_grid
        asked, incumbent = asked_bounds(monkeypatch, dp_fmax_s1, instance)
        assert incumbent == math.inf
        for (i, free), (least_flow, further, flow, cost) in asked.items():
            rest_flow, rest_cost = fmax_rest(instance, i, free)
            # the least further cost is one order at every final flow
            assert further.costs == [instance.single_resource_order_cost]
            assert least_flow <= rest_flow and further.costs[0] <= rest_cost
            unplaced = tuple(job for job in instance.jobs if not i or job.release > dates[i - 1])
            rest, solution = completion(instance, unplaced, max(free, dates[-1]), {dates[-1]: R1})
            assert check_feasible(rest, solution).ok
            assert solution.scheduling_cost == flow
            assert instance.single_resource_order_cost == cost
            checked += 1
    assert checked > 200


def least_graph_path(instance, objective):
    """dp_equalp's answer found by walking every path of its layered graph.

    The graph is dp_equalp's: per layer an order of any resource subset,
    then an empty block or a release-ordered block of ready jobs (every
    ready job for total completion; an empty block only when none is
    ready).  No two paths are merged, and an empty block waits one layer,
    not until the next release date.  The answer is the path with the
    smallest (total, start vector by job id, order mask per layer), with
    its orders pulled back onto the release grid.

    Two kinds of path are cut, neither of which can be that smallest one:
    a path ordering a resource that no job needs or whose last order has
    the same release anchor (without that resource it starts the same jobs
    at no more cost, with a smaller mask), and a path whose cost so far and
    least possible criterion already exceed a complete path's total.
    """
    p = instance.jobs[0].processing
    n = len(instance.jobs)
    s = instance.num_resources
    grid = instance.release_grid
    times = sorted({release + k * p for release in grid for k in range(n + 1)})
    job_value, combine = CRITERIA[objective]
    max_flow = objective is Objective.MAX_FLOW
    ids = sorted(job.id for job in instance.jobs)
    by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    needed = frozenset().union(*(job.resources for job in instance.jobs))
    best = None

    def walk(idx, betas, starts, crit, cost, masks):
        nonlocal best
        tau = times[idx]
        waiting = [job for job in by_release if job.id not in starts]
        least = crit
        for job in waiting:
            least = combine(least, job_value(job.weight, job.release, max(tau, job.release) + p))
        if best is not None and least + cost > best[0]:
            return
        anchor = release_anchor(grid, tau)
        for mask in range(1 << s):
            resources = frozenset(i + 1 for i in range(s) if mask >> i & 1)
            if any(r not in needed or betas[r - 1] == anchor for r in resources):
                continue
            new_betas = tuple(
                anchor if i + 1 in resources else beta for i, beta in enumerate(betas)
            )
            new_cost = cost + instance.order_cost(resources) if mask else cost
            new_masks = {**masks, idx: mask} if mask else masks
            ready = [
                job for job in waiting
                if all(
                    new_betas[r - 1] is not None and job.release <= new_betas[r - 1]
                    for r in job.resources
                )
            ]
            if (max_flow or not ready) and idx + 1 < len(times):
                walk(idx + 1, new_betas, starts, crit, new_cost, new_masks)
            block = dict(starts)
            block_crit = crit
            for size, job in enumerate(ready, start=1):
                block[job.id] = tau + (size - 1) * p
                end = tau + size * p
                block_crit = combine(block_crit, job_value(job.weight, job.release, end))
                if not max_flow and size < len(ready):
                    continue
                if len(block) == n:
                    path = (
                        block_crit + new_cost,
                        tuple(block[job_id] for job_id in ids),
                        tuple(new_masks.get(k, 0) for k in range(len(times))),
                    )
                    if best is None or path < best:
                        best = path
                    continue
                later = [k for k, t in enumerate(times) if t >= end]
                if later:
                    walk(later[0], new_betas, dict(block), block_crit, new_cost, new_masks)

    walk(0, (None,) * s, {}, 0, 0, {})
    total, starts, masks = best
    events = tuple(
        (times[k], frozenset(i + 1 for i in range(s) if mask >> i & 1))
        for k, mask in enumerate(masks) if mask
    )
    solution = evaluate_solution(
        instance, Schedule(dict(zip(ids, starts))), ReplenishmentStructure(events), objective
    )
    assert solution.total == total
    return normalize_replenishments(instance, solution)


@pytest.mark.parametrize("objective", [Objective.TOTAL_COMPLETION, Objective.MAX_FLOW])
def test_dp_equalp_is_the_least_path_of_its_graph(objective):
    """Byte for byte, on tiny instances where optima often tie: every cost
    from {0} or from {0, 1}, releases up to 3, n <= 5, s <= 2, p <= 2."""
    rng = random.Random(1969)
    for s in (1, 2):
        for n in range(1, 6):
            for p in (1, 2):
                for costs in ((0,), (0, 1)):
                    instance = random_instance(
                        rng, n, s=s, max_release=3, equal_processing=p, cost_choices=costs
                    )
                    expected = emit_solution(least_graph_path(instance, objective))
                    assert emit_solution(dp_equalp(instance, objective)) == expected


def least_fmax_path(instance):
    """dp_fmax_s1's answer found by trying every set of order dates.

    Every set of release dates that holds the last one is tried.  Each
    order serves the jobs released since the previous order, as one
    back-to-back block in (release, id) order, started once both the
    machine and the order are ready.  The answer is the smallest (total,
    start vector by job id, order mask per release date).
    """
    dates = instance.release_grid
    ids = sorted(job.id for job in instance.jobs)
    by_release = sorted(instance.jobs, key=lambda job: (job.release, job.id))
    best = None
    for subset in range(1 << (len(dates) - 1)):
        chosen = [date for k, date in enumerate(dates[:-1]) if subset >> k & 1] + [dates[-1]]
        starts = {}
        free = 0
        served = -1
        for date in chosen:
            free = max(free, date)
            for job in by_release:
                if served < job.release <= date:
                    starts[job.id] = free
                    free += job.processing
            served = date
        flow = max(starts[job.id] + job.processing - job.release for job in instance.jobs)
        path = (
            flow + instance.single_resource_order_cost * len(chosen),
            tuple(starts[job_id] for job_id in ids),
            tuple(int(date in chosen) for date in dates),
        )
        if best is None or path < best:
            best = path
    total, starts, mask = best
    events = tuple((date, R1) for date, ordered in zip(dates, mask) if ordered)
    solution = evaluate_solution(
        instance, Schedule(dict(zip(ids, starts))), ReplenishmentStructure(events),
        Objective.MAX_FLOW,
    )
    assert solution.total == total
    return solution


def test_dp_fmax_s1_is_the_least_path_of_its_graph():
    """Byte for byte, on tiny instances where optima often tie: every cost
    from {0} or from {0, 1}, releases up to 6, n <= 7, p <= 3."""
    rng = random.Random(1975)
    for n in range(1, 8):
        for max_processing in (1, 2, 3):
            for costs in ((0,), (0, 1)):
                for _ in range(4):
                    instance = random_instance(
                        rng, n, max_processing=max_processing, max_release=6,
                        cost_choices=costs,
                    )
                    expected = emit_solution(least_fmax_path(instance))
                    assert emit_solution(dp_fmax_s1(instance)) == expected


def horizon_edge_cases(s, max_processing, max_weight, max_jobs):
    """Instances with horizon 2^k - 1, 2^k or 2^k + 1 (k = 3-5).  A start
    code field has the horizon's bit length, so the largest start possible,
    horizon - 1, fills its field at 2^k - 1 and 2^k + 1 and all but its top
    bit at 2^k.  The highest id is a unit job released last, at the horizon
    less the total processing; every other job is released at 0, 1 or just
    before it.  The joint cost runs from 0 to the horizon, so some optima
    start that unit job at horizon - 1."""
    rng = random.Random(2021)
    for k in (3, 4, 5):
        for horizon in (2**k - 1, 2**k, 2**k + 1):
            for n in range(1, max_jobs + 1):
                for joint_cost in (0, 1, horizon):
                    lengths = [rng.randint(1, max_processing) for _ in range(n - 1)] + [1]
                    last = horizon - sum(lengths)
                    releases = [rng.choice((0, 1, last - 1, last)) for _ in range(n - 1)]
                    jobs = tuple(
                        Job(job_id, release, length,
                            frozenset(rng.sample(range(1, s + 1), rng.randint(1, s))),
                            rng.randint(1, max_weight))
                        for job_id, (release, length) in enumerate(
                            zip(releases + [last], lengths), start=1)
                    )
                    items = tuple(rng.choice((0, 1)) for _ in range(s))
                    instance = Instance(s, joint_cost, items, jobs)
                    assert instance.horizon == horizon
                    yield instance


def assert_largest_starts_reach_the_top(solved):
    """Per horizon, the largest start over the (instance, solution) pairs
    ``solved`` has the bit length of horizon - 1: some start sits in the
    top bit its field can hold."""
    top: dict[int, int] = {}
    for instance, solution in solved:
        largest = max(solution.schedule.starts.values())
        top[instance.horizon] = max(top.get(instance.horizon, 0), largest)
    assert len(top) == 9
    assert {h: t.bit_length() for h, t in top.items()} == {h: (h - 1).bit_length() for h in top}


class TestStartCodeFieldWidth:
    """The DPs where the largest start fills its start-code field: a field
    one bit too narrow would carry into the next job's field and silently
    reorder ties, so each answer is compared byte for byte with a reference
    that keeps its vectors as tuples."""

    @pytest.mark.parametrize("objective", [Objective.TOTAL_COMPLETION, Objective.MAX_FLOW])
    def test_dp_equalp(self, objective):
        solved = []
        for s in (1, 2):
            for instance in horizon_edge_cases(s, max_processing=1, max_weight=1, max_jobs=4):
                solution = dp_equalp(instance, objective)
                expected = emit_solution(least_graph_path(instance, objective))
                assert emit_solution(solution) == expected
                solved.append((instance, solution))
        assert_largest_starts_reach_the_top(solved)

    def test_dp_fmax_s1(self):
        solved = []
        for instance in horizon_edge_cases(1, max_processing=2, max_weight=1, max_jobs=3):
            solution = dp_fmax_s1(instance)
            assert emit_solution(solution) == emit_solution(least_fmax_path(instance))
            solved.append((instance, solution))
        assert_largest_starts_reach_the_top(solved)

    def test_dp_wjcj_unit(self):
        solved = []
        for s in (1, 2):
            for instance in horizon_edge_cases(s, max_processing=1, max_weight=3, max_jobs=4):
                solution = dp_wjcj_unit(instance)
                expected = exact_solve(instance, Objective.WEIGHTED_COMPLETION)
                assert solution.total == expected.total
                assert_well_formed(instance, solution)
                solved.append((instance, solution))
        assert_largest_starts_reach_the_top(solved)
