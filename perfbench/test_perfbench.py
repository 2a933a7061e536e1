"""Tests of the benchmark itself.

They check that the correctness gate turns corrupted results into failed
units (so ``failed_share`` rises), that the tracer's self-time arithmetic
and the clock's scaling hold, that pools are stratified as documented, and
that BENCHMARK.json lists exactly the metrics the runner prints.
Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import clock  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture()
def lib():
    return bench.import_program()


def small_tally(lib, workload: str, tracer=None) -> bench.Tally:
    factory, rounds, _ = WORKLOADS[workload]
    tally = bench.Tally()
    bench.run_units(factory(lib, random.Random(7), 0, rounds, small=True), tally, tracer)
    return tally


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_round_passes_its_gate(lib, workload):
    tally = small_tally(lib, workload)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems


def _corrupt(lib, kind: str, solution, instance):
    model = lib.model
    if kind == "breakdown":
        return model.Solution(
            solution.schedule,
            solution.replenishments,
            solution.objective,
            solution.scheduling_cost + 1,
            solution.replenishment_cost,
            solution.total + 1,
        )
    if kind == "infeasible":
        structure = model.ReplenishmentStructure(())
        return model.evaluate_solution(instance, solution.schedule, structure, solution.objective)
    # "late": feasible, but every job starts one step later than returned
    starts = {job_id: start + 1 for job_id, start in solution.schedule.starts.items()}
    return model.evaluate_solution(
        instance, model.Schedule(starts), solution.replenishments, solution.objective
    )


def _patch(lib, module: str, name: str, kind: str) -> None:
    original = getattr(getattr(lib, module), name)

    def corrupted(instance, *args, **kwargs):
        result = original(instance, *args, **kwargs)
        if isinstance(result, tuple):
            return (_corrupt(lib, kind, result[0], instance),) + result[1:]
        return _corrupt(lib, kind, result, instance)

    setattr(getattr(lib, module), name, corrupted)


@pytest.mark.parametrize("kind", ("breakdown", "infeasible", "late"))
@pytest.mark.parametrize(
    "workload, module, name",
    (
        ("ratio_sum", "oracle", "exact_solve"),
        ("oracle_multi", "oracle", "exact_solve"),
        ("online_stream", "online", "run_online"),
        ("dp_scale", "offline_dp", "dp_wjcj_unit"),
        ("dp_scale", "offline_dp", "dp_fmax_s1"),
    ),
)
def test_corrupted_results_raise_failed_share(lib, workload, module, name, kind):
    _patch(lib, module, name, kind)
    tally = small_tally(lib, workload)
    metrics, _ = bench.end_to_end([1.0], tally)
    assert tally.failed > 0
    assert metrics["ok_share"] < 1


def test_raising_unit_counts_as_failed(lib):
    def broken(*args, **kwargs):
        raise lib.oracle.OracleLimitError("over the cap")

    lib.oracle.exact_solve = broken
    tally = small_tally(lib, "ratio_sum")
    assert tally.failed == tally.attempted
    assert not tally.latencies


def test_unit_latency_is_median_of_passes_and_failures_drop_the_unit():
    tally = bench.Tally(attempted=7)
    for seconds in (0.3, 0.1, 0.2):
        tally.record((0, 0), seconds)
    tally.record((0, 1), 0.5)
    tally.record((1, 0), 0.05)
    tally.fail((1, 0), "kind", ["wrong value"])
    assert tally.latencies == [0.2, 0.5]
    metrics, q = bench.end_to_end([0.2, 0.1, 0.3], tally)
    assert metrics["setup_s"] == 0.2
    assert metrics["units_per_s"] == pytest.approx(2 / 0.7)
    assert metrics["ok_share"] == pytest.approx(6 / 7)


def test_later_pass_stops_at_the_deadline(lib):
    factory, rounds, _ = WORKLOADS["dp_scale"]
    pool = [factory(lib, random.Random(3), 0, rounds, small=True)] * 3
    tally = bench.Tally()
    assert bench.run_pass(pool, tally, deadline=0.0) == 0
    assert tally.attempted == 0
    assert bench.run_pass(pool, tally) == 3
    assert tally.failed == 0, tally.problems


def test_clock_scales_by_the_reference_kernel(monkeypatch):
    kernel = iter([0.0006, 0.0006])  # the host runs at half the reference speed
    monkeypatch.setattr(clock, "reference_time", lambda: next(kernel))
    ticks = iter([10.0, 10.5])
    monkeypatch.setattr(clock.time, "perf_counter", lambda: next(ticks))
    with clock.ScaledClock(sampling=False) as timer:
        assert timer.call(lambda: "done") == "done"
    assert timer.elapsed == 0.5
    assert timer.scaled == pytest.approx(0.5 * 0.5**clock.ELASTICITY)


def test_clock_passes_exceptions_and_disarms(monkeypatch):
    def boom():
        raise ValueError("no")

    with clock.ScaledClock() as timer:
        with pytest.raises(ValueError):
            timer.call(boom)
        assert not timer.armed
        assert timer.elapsed >= 0
        assert timer.call(lambda: sum(range(100_000))) == 4_999_950_000
    assert clock.signal.getitimer(clock.signal.ITIMER_REAL) == (0.0, 0.0)


def test_date_strata_follow_the_generator():
    # 7 draws from 0..9: P(at most 4 distinct) = 0.2, P(7 distinct) = 0.06
    strata = workloads.date_strata(7, 9, 50)
    assert strata == sorted(strata)
    assert strata.count(4) + strata.count(3) == 10
    assert strata.count(7) == 3
    rng = random.Random(1)
    counts = [len({rng.randint(0, 9) for _ in range(7)}) for _ in range(20_000)]
    for d in range(3, 8):
        assert counts.count(d) / len(counts) == pytest.approx(strata.count(d) / 50, abs=0.02)


def test_pool_sizes_are_stratified(lib):
    pool = bench.build_pool(lib, "ratio_sum", 5)
    by_slot = [[len({job.release for job in unit.instance.jobs}) for unit in units]
               for units in pool]
    rounds = len(pool)
    for slot in range(len(pool[0])):
        seen = sorted(units[slot] for units in by_slot)
        assert seen == workloads.date_strata(workloads.RATIO_N, workloads.RATIO_MAX_RELEASE, rounds)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(100) == 90
    assert bench.tail_percentile(1000) == 99
    assert bench.tail_percentile(15) == 50
    assert bench.tail_percentile(1000, 95) == 95
    assert bench.tail_percentile(150, 95) == 93
    for preferred in (90, 95, 99):
        for count in range(20, 400):
            q = bench.tail_percentile(count, preferred)
            beyond = count - -(-q * count // 100)
            assert q <= preferred
            assert beyond >= 10
            assert q == preferred or count - -(-(q + 1) * count // 100) < 10


def test_self_time_subtracts_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    with tracer.span("unit", root="unit", unit=0):  # 0 .. 7
        with tracer.span("oracle.exact_solve"):  # 1 .. 4
            with tracer.span("offline_dp.dp_equalp"):  # 2 .. 3
                pass
        with tracer.span("online.run_online"):  # 5 .. 6
            pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["unit"].duration == 7
    assert by_name["unit"].self_time == 7 - 3 - 1
    assert by_name["oracle.exact_solve"].self_time == 3 - 1
    assert by_name["offline_dp.dp_equalp"].self_time == 1
    assert sum(span.self_time for span in tracer.spans) == by_name["unit"].duration


def test_traced_pass_counts_layers_and_restores(lib):
    originals = {(m, a): getattr(getattr(lib, m), a) for m, a, _, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, lib)
    try:
        traced = small_tally(lib, "ratio_sum", tracer)
        online = small_tally(lib, "online_stream", tracer)
    finally:
        uninstall()
    for (module, attribute), fn in originals.items():
        assert getattr(getattr(lib, module), attribute) is fn
    assert traced.failed == online.failed == 0
    total = bench.Tally(busy=traced.busy + online.busy, attempted=traced.attempted + online.attempted)
    metrics = bench.per_layer(tracer, total, total)
    ratio_units = traced.attempted
    assert metrics["oracle.exact_solve.calls"] >= ratio_units
    assert metrics["online.run_online.calls"] >= ratio_units
    assert metrics["online.policy.calls"] >= metrics["online.decisions"] > 0
    assert metrics["adversaries.adversary_run.calls"] == 6
    assert metrics["online.simulate.calls"] == 6
    assert metrics["model.check_feasible.calls"] > 0
    assert metrics["generate.gen_instance.calls"] == 0  # no set-up span was opened
    shares = sum(metrics[f"{layer}.self_share"] for layer in bench.SELF_LAYERS)
    # the unit root span sits just inside the runner's own timing
    assert shares == pytest.approx(1.0, rel=0.05)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_missing_source_tree_exits_without_result(monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", HERE / "no-such-src")
    code = bench.main(["--workload", "ratio_sum", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
