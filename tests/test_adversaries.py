import pytest

from jrsched import (
    AdversarySpec,
    ImmediatePolicy,
    MaxFlowGridPolicy,
    SumCompletionPolicy,
    SumFlowPolicy,
    adversaries,
    adversary_run,
    check_feasible,
    lb_ceiling,
)
from jrsched.adversaries import (
    FMAX_GENERAL_GOLDEN,
    FMAX_REGULAR_4_3,
    SUM_CJ_3_2,
    SUM_FJ_3_2,
    WEIGHTED_GOLDEN,
    default_policy,
)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            AdversarySpec("nope", 5)

    def test_weighted_needs_w2(self):
        with pytest.raises(ValueError, match="w2"):
            AdversarySpec(WEIGHTED_GOLDEN, 5)

    @pytest.mark.parametrize(
        "kind", [SUM_CJ_3_2, SUM_FJ_3_2, FMAX_REGULAR_4_3, FMAX_GENERAL_GOLDEN]
    )
    def test_w2_only_for_weighted(self, kind):
        with pytest.raises(ValueError, match="w2 applies only to weighted_golden"):
            AdversarySpec(kind, 5, w2=2)

    def test_order_cost_positive(self):
        with pytest.raises(ValueError, match="order cost"):
            AdversarySpec(SUM_CJ_3_2, 0)


class TestSumCompletionGame:
    def test_realized_run_at_cost_100(self):
        outcome = adversary_run(AdversarySpec(SUM_CJ_3_2, 100), SumCompletionPolicy(100))
        assert outcome.online.total == 401
        assert outcome.offline.total == 302
        assert abs(outcome.ratio - 401 / 302) < 1e-9
        assert len(outcome.instance.jobs) == 2
        # the second job lands one step after the first start
        starts = outcome.online.schedule.starts
        assert outcome.instance.jobs[1].release == starts[1] + 1

    def test_both_sides_feasible(self):
        outcome = adversary_run(AdversarySpec(SUM_CJ_3_2, 10))
        assert check_feasible(outcome.instance, outcome.online).ok
        assert check_feasible(outcome.instance, outcome.offline).ok
        assert 1.0 <= outcome.ratio <= 2.0


class TestFlowGame:
    def test_ratio_within_guarantee(self):
        outcome = adversary_run(AdversarySpec(SUM_FJ_3_2, 10), SumFlowPolicy(10))
        assert 1.0 <= outcome.ratio <= 2.0
        assert len(outcome.instance.jobs) == 2


class TestWeightedGame:
    def test_realizes_weighted_second_job(self):
        outcome = adversary_run(AdversarySpec(WEIGHTED_GOLDEN, 50, w2=3))
        assert outcome.instance.jobs[1].weight == 3
        assert outcome.ratio >= 1.0
        assert check_feasible(outcome.instance, outcome.online).ok


class TestMaxFlowGames:
    def test_immediate_policy_escapes_general_adversary(self):
        outcome = adversary_run(AdversarySpec(FMAX_GENERAL_GOLDEN, 100), ImmediatePolicy())
        assert len(outcome.instance.jobs) == 1
        assert outcome.ratio == 1.0

    def test_general_adversary_floods_late_starter(self):
        # a policy that waits sees its wait time in further jobs one step later
        outcome = adversary_run(AdversarySpec(FMAX_GENERAL_GOLDEN, 30), SumCompletionPolicy(30))
        started_at = outcome.online.schedule.starts[1]
        assert len(outcome.instance.jobs) == started_at + 1
        assert outcome.ratio > 1.0
        assert check_feasible(outcome.instance, outcome.online).ok

    @pytest.mark.parametrize("order_cost", [3, 100])
    def test_regular_adversary_stops_after_first_order(self, order_cost):
        outcome = adversary_run(
            AdversarySpec(FMAX_REGULAR_4_3, order_cost), MaxFlowGridPolicy(order_cost)
        )
        first_order = outcome.online.replenishments.times()[0]
        assert len(outcome.instance.jobs) == first_order + 1
        assert [job.release for job in outcome.instance.jobs] == list(
            range(1, first_order + 2)
        )
        # on one-job-per-step inputs the ceiling bound is the exact optimum
        assert outcome.offline.total == lb_ceiling(outcome.instance)
        assert outcome.ratio >= 1.0
        if order_cost == 100:
            assert len(outcome.instance.jobs) == 201
            assert outcome.offline.total == 301

    def test_regular_game_at_ten_thousand(self):
        # 2K + 1 unit jobs at distinct releases, priced by fmax_unit_distinct
        outcome = adversary_run(AdversarySpec(FMAX_REGULAR_4_3, 10**4))
        assert len(outcome.instance.jobs) == 20_001
        assert (outcome.online.total, outcome.offline.total) == (40_000, 30_001)
        assert outcome.ratio == 40_000 / 30_001


class TestOfflineSolvers:
    EXPECTED = {
        SUM_CJ_3_2: "exact_solve",
        WEIGHTED_GOLDEN: "exact_solve",
        SUM_FJ_3_2: "exact_solve",
        FMAX_REGULAR_4_3: "fmax_unit_distinct",
        FMAX_GENERAL_GOLDEN: "dp_fmax_s1",
    }

    def test_each_kind_calls_its_solver_through_the_module(self, monkeypatch):
        # the benchmark's tracer replaces these module attributes; a game
        # that held the function object would hide its offline side from it
        calls = []

        def counted(name, solver):
            def run(*args):
                calls.append(name)
                return solver(*args)
            return run

        for name in ("exact_solve", "dp_fmax_s1", "fmax_unit_distinct"):
            monkeypatch.setattr(adversaries, name, counted(name, getattr(adversaries, name)))
        assert set(self.EXPECTED) == set(adversaries.KINDS)
        for kind, name in self.EXPECTED.items():
            calls.clear()
            adversary_run(AdversarySpec(kind, 3, 2 if kind == WEIGHTED_GOLDEN else None))
            assert calls == [name], kind


class TestDefaults:
    def test_default_policies_match_kinds(self):
        assert isinstance(default_policy(AdversarySpec(SUM_CJ_3_2, 5)), SumCompletionPolicy)
        assert isinstance(default_policy(AdversarySpec(SUM_FJ_3_2, 5)), SumFlowPolicy)
        assert isinstance(default_policy(AdversarySpec(WEIGHTED_GOLDEN, 5, 1)), SumCompletionPolicy)
        assert isinstance(default_policy(AdversarySpec(FMAX_REGULAR_4_3, 5)), MaxFlowGridPolicy)
        assert isinstance(default_policy(AdversarySpec(FMAX_GENERAL_GOLDEN, 5)), ImmediatePolicy)
