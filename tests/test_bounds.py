import math
import subprocess
import sys
from pathlib import Path

import pytest

import jrsched
from jrsched import (
    Instance,
    Job,
    Objective,
    SolverError,
    adversaries,
    bounds,
    exact_solve,
    lb_ceiling,
    lb_sqrt,
    ratio_curve,
)
from jrsched.adversaries import (
    FMAX_GENERAL_GOLDEN,
    FMAX_REGULAR_4_3,
    SUM_CJ_3_2,
    SUM_FJ_3_2,
    WEIGHTED_GOLDEN,
)
from conftest import R1, random_instance, regular_instance

GOLDEN = (math.sqrt(5) + 1) / 2


def unit_block_instance(p_sum, order_cost):
    return Instance(1, order_cost, (0,), tuple(Job(i + 1, 0, 1, R1) for i in range(p_sum)))


class TestInstanceBounds:
    def test_ceiling_ten_units(self):
        assert lb_ceiling(unit_block_instance(10, 1)) == 7

    def test_ceiling_single_unit(self):
        for order_cost in (1, 4, 9):
            assert lb_ceiling(unit_block_instance(1, order_cost)) == order_cost + 1

    def test_ceiling_matches_the_minimum_over_every_flow(self):
        # one job of processing p_sum: only the sum and the order cost matter
        for order_cost in (0, 1, 2, 5, 13):
            for p_sum in range(1, 401):
                inst = Instance(1, order_cost, (0,), (Job(1, 0, p_sum, R1),))
                brute = min(order_cost * ((p_sum + f - 1) // f) + f for f in range(1, p_sum + 1))
                assert lb_ceiling(inst) == brute, (p_sum, order_cost)

    def test_ceiling_empty(self):
        assert lb_ceiling(Instance(1, 5, (0,), ())) == 0

    def test_sqrt_examples(self):
        assert abs(lb_sqrt(unit_block_instance(10, 1)) - 2 * math.sqrt(10)) < 1e-9
        assert lb_sqrt(Instance(1, 5, (0,), ())) == 0.0
        inst = Instance(1, 4, (0,), (Job(1, 0, 9, R1),))
        assert lb_sqrt(inst) == 12.0

    def test_sqrt_below_ceiling(self, rng):
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 7), s=1, max_processing=4)
            assert lb_sqrt(inst) <= lb_ceiling(inst) + 1e-9

    def test_bounds_below_optimum(self, rng):
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 6), s=1, max_processing=3)
            optimum = exact_solve(inst, Objective.MAX_FLOW).total
            assert lb_ceiling(inst) <= optimum
            assert lb_sqrt(inst) <= optimum + 1e-9

    def test_exact_on_one_job_per_step(self):
        from jrsched import dp_fmax_s1

        # n = 41 is the size the fmax_regular_4_3 game reaches at K = 20
        for n in (1, 3, 6, 10, 15, 20, 41):
            for order_cost in (1, 3):
                inst = regular_instance(n, order_cost)
                assert lb_ceiling(inst) == dp_fmax_s1(inst).total

    def test_requires_single_resource(self):
        inst = Instance(2, 1, (0, 0), (Job(1, 0, 1, R1),))
        with pytest.raises(SolverError):
            lb_ceiling(inst)
        with pytest.raises(SolverError):
            lb_sqrt(inst)


class TestRatioCurves:
    def test_completion_game_at_100(self):
        point = ratio_curve(SUM_CJ_3_2, 100)
        assert point.t in (48, 49)
        assert point.bound >= (1.5 * 100 - 0.25) / 101 - 1e-9
        assert point.bound < 1.5

    def test_completion_game_monotone_below_three_halves(self):
        previous = 1.0
        for order_cost in (2, 5, 10, 100, 1000, 10000):
            bound = ratio_curve(SUM_CJ_3_2, order_cost).bound
            assert previous <= bound + 1e-9
            assert bound < 1.5
            previous = bound

    def test_general_max_flow_approaches_golden(self):
        point = ratio_curve(FMAX_GENERAL_GOLDEN, 10**5)
        assert abs(point.bound - GOLDEN) < 0.01
        for order_cost in (10, 100, 1000):
            assert ratio_curve(FMAX_GENERAL_GOLDEN, order_cost).bound < GOLDEN

    def test_weighted_limit_approaches_golden_for_small_w2(self):
        point = ratio_curve(WEIGHTED_GOLDEN, 10**4, w2=1e-3)
        assert abs(point.limit - GOLDEN) < 0.002
        exact = (math.sqrt(4 * 2 + 5) + 2 * 2 + 1) / (2 * (2 + 1))
        assert abs(ratio_curve(WEIGHTED_GOLDEN, 100, w2=2).limit - exact) < 1e-12

    def test_weighted_needs_w2(self):
        with pytest.raises(SolverError, match="w2"):
            ratio_curve(WEIGHTED_GOLDEN, 10)

    @pytest.mark.parametrize("kind", [SUM_CJ_3_2, SUM_FJ_3_2, FMAX_GENERAL_GOLDEN])
    def test_w2_only_for_weighted(self, kind):
        with pytest.raises(SolverError, match="w2 applies only to weighted_golden"):
            ratio_curve(kind, 5, 0.5)

    @pytest.mark.parametrize("w2", [math.nan, math.inf])
    def test_weighted_rejects_w2_not_finite(self, w2):
        with pytest.raises(SolverError, match="finite w2"):
            ratio_curve(WEIGHTED_GOLDEN, 5, w2)

    def test_flow_game_approaches_three_halves(self):
        for order_cost, tolerance in ((10, 0.06), (1000, 0.001)):
            bound = ratio_curve(SUM_FJ_3_2, order_cost).bound
            assert bound <= 1.5
            assert 1.5 - bound < tolerance

    def test_bound_at_least_one(self):
        for kind in (SUM_CJ_3_2, SUM_FJ_3_2, FMAX_GENERAL_GOLDEN):
            for order_cost in (1, 2, 7):
                assert ratio_curve(kind, order_cost).bound >= 1.0

    def test_regular_max_flow_game_has_no_curve(self):
        with pytest.raises(SolverError, match="curve"):
            ratio_curve(FMAX_REGULAR_4_3, 10)

    @pytest.mark.parametrize("kind", bounds.KINDS + ("no_such_game",))
    def test_curve_kinds_are_the_kinds_with_a_curve(self, kind):
        w2 = 0.5 if kind == WEIGHTED_GOLDEN else None
        if kind in bounds.CURVE_KINDS:
            point = ratio_curve(kind, 10, w2)
            assert point.bound >= 1.0
        else:
            with pytest.raises(SolverError, match="no closed-form ratio curve"):
                ratio_curve(kind, 10, w2)

    def test_curve_shape(self):
        point = ratio_curve(SUM_CJ_3_2, 50)
        # c1 rises and c2 falls around the crossing, so both pin the bound
        assert point.bound == max(point.c1, point.c2)
        assert point.limit == 1.5


class TestLeafImport:
    def test_bounds_imports_no_solver(self):
        src = str(Path(jrsched.__file__).resolve().parents[1])
        probe = "import sys, jrsched.bounds; print(' '.join(sorted(sys.modules)))"
        loaded = subprocess.run(
            [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
        ).stdout.split()
        assert "jrsched.bounds" in loaded
        for solver in ("oracle", "offline_dp", "online", "adversaries"):
            assert f"jrsched.{solver}" not in loaded

    def test_adversaries_reexports_the_kinds(self):
        assert adversaries.KINDS is bounds.KINDS is jrsched.KINDS
        for name in ("SUM_CJ_3_2", "WEIGHTED_GOLDEN", "SUM_FJ_3_2",
                     "FMAX_REGULAR_4_3", "FMAX_GENERAL_GOLDEN"):
            assert getattr(adversaries, name) == getattr(bounds, name)
