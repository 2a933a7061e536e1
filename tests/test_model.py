import json
import math
from dataclasses import replace

import pytest

from jrsched import (
    Instance,
    InstanceError,
    Job,
    Objective,
    ReplenishmentStructure,
    Schedule,
    Solution,
    SolutionError,
    check_feasible,
    emit_instance,
    emit_solution,
    evaluate_solution,
    normalize_replenishments,
    parse_instance,
    parse_solution,
    ready_at,
    replenishment_cost,
    scheduling_cost,
)
from jrsched.model import _dump_json, job_ready, solution_from_document
from conftest import R1, random_instance, walkthrough_instance


def events(*pairs):
    return ReplenishmentStructure(tuple((t, frozenset(rs)) for t, rs in pairs))


# JSON that ``json.loads`` cannot take: nesting past the recursion limit and
# an int literal past the digit limit
PAST_PARSER_LIMITS = pytest.mark.parametrize(
    "text, cause",
    [("[" * 200_000, "maximum recursion depth"),
     ('{"total": ' + "9" * 5000 + "}", "Exceeds the limit")],
    ids=("deep_nesting", "long_int"),
)


WALKTHROUGH_DOC = json.dumps(
    {
        "s": 1,
        "joint_cost": 1,
        "item_costs": [1],
        "jobs": [
            {"id": 1, "release": 0, "processing": 4, "resources": [1]},
            {"id": 2, "release": 3, "processing": 1, "resources": [1]},
            {"id": 3, "release": 7, "processing": 1, "resources": [1]},
        ],
    }
)


class TestParseInstance:
    def test_walkthrough_document(self):
        inst = parse_instance(WALKTHROUGH_DOC)
        assert len(inst.jobs) == 3
        assert inst.release_grid == (0, 3, 7)
        assert inst.horizon == 7 + 6
        assert inst.jobs[0].weight == 1  # default

    def test_empty_job_list(self):
        inst = parse_instance('{"s": 1, "joint_cost": 2, "item_costs": [3], "jobs": []}')
        assert inst.release_grid == ()

    def test_empty_resource_set(self):
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0],
               "jobs": [{"id": 7, "release": 0, "processing": 1, "resources": []}]}
        with pytest.raises(InstanceError, match="job 7.*empty resource set"):
            parse_instance(json.dumps(doc))

    def test_negative_release(self):
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0],
               "jobs": [{"id": 1, "release": -2, "processing": 1, "resources": [1]}]}
        with pytest.raises(InstanceError, match="job 1.*release"):
            parse_instance(json.dumps(doc))

    def test_zero_processing(self):
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0],
               "jobs": [{"id": 1, "release": 0, "processing": 0, "resources": [1]}]}
        with pytest.raises(InstanceError, match="job 1.*processing"):
            parse_instance(json.dumps(doc))

    def test_resource_out_of_range(self):
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0],
               "jobs": [{"id": 4, "release": 0, "processing": 1, "resources": [2]}]}
        with pytest.raises(InstanceError, match="job 4.*resource index 2"):
            parse_instance(json.dumps(doc))

    def test_duplicate_ids(self):
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0],
               "jobs": [{"id": 1, "release": 0, "processing": 1, "resources": [1]},
                        {"id": 1, "release": 1, "processing": 1, "resources": [1]}]}
        with pytest.raises(InstanceError, match="duplicate"):
            parse_instance(json.dumps(doc))

    def test_item_costs_length(self):
        with pytest.raises(InstanceError, match="item_costs"):
            parse_instance('{"s": 2, "joint_cost": 0, "item_costs": [0], "jobs": []}')

    def test_malformed_json(self):
        with pytest.raises(InstanceError, match="malformed"):
            parse_instance("{nope")

    @PAST_PARSER_LIMITS
    def test_json_past_the_parser_limits_is_malformed(self, text, cause):
        with pytest.raises(InstanceError, match=f"^malformed instance document: {cause}"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            # plain JSON parsing keeps the last value, so this job would
            # silently be released at 0
            ('{"s": 1, "joint_cost": 0, "item_costs": [0], "jobs": [{"id": 1,'
             ' "release": 9, "release": 0, "processing": 1, "resources": [1]}]}', "release"),
            ('{"s": 1, "s": 1, "joint_cost": 0, "item_costs": [0], "jobs": []}', "s"),
        ],
        ids=("job_field", "instance_field"),
    )
    def test_repeated_key_is_refused(self, text, key):
        with pytest.raises(InstanceError, match=f"repeats the key '{key}'"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("release", 2.9),
            ("release", "2"),
            ("processing", True),
            ("weight", 1.0),
            ("resources", "1"),
            ("resources", [1.0]),
            ("id", "1"),
        ],
    )
    def test_job_field_must_be_integer(self, field, value):
        job = {"id": 1, "release": 0, "processing": 1, "resources": [1], field: value}
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0], "jobs": [job]}
        with pytest.raises(InstanceError, match=f"field '{field}'"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [("s", 1.5), ("joint_cost", "1"), ("item_costs", [False]), ("item_costs", "0"),
         ("jobs", [5]), ("jobs", "ab")],
    )
    def test_instance_field_types(self, field, value):
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0], "jobs": [], field: value}
        with pytest.raises(InstanceError, match=f"field '{field}'"):
            parse_instance(json.dumps(doc))

    def test_roundtrip(self, rng):
        for _ in range(25):
            inst = random_instance(rng, rng.randint(0, 6), s=2, max_processing=3, max_weight=4)
            assert parse_instance(emit_instance(inst)) == inst

    @pytest.mark.parametrize(
        "field, where, message",
        [
            ("wieght", "job", "job 1: unknown field 'wieght'"),
            ("weights", "job", "job 1: unknown field 'weights'"),
            ("items_costs", "instance", "instance: unknown field 'items_costs'"),
            ("", "instance", "instance: unknown field ''"),
        ],
    )
    def test_unknown_field_is_refused(self, field, where, message):
        # a job with "wieght": 7 used to parse with weight 1
        job = {"id": 1, "release": 0, "processing": 1, "resources": [1]}
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0], "jobs": [job]}
        (job if where == "job" else doc)[field] = 7
        with pytest.raises(InstanceError) as exc:
            parse_instance(json.dumps(doc))
        assert str(exc.value) == message

    def test_unknown_field_in_a_later_job_is_named(self):
        jobs = [{"id": j, "release": 0, "processing": 1, "resources": [1]} for j in (4, 2, 7)]
        jobs[2]["note"] = "late"
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0], "jobs": jobs}
        with pytest.raises(InstanceError, match="^job 7: unknown field 'note'$"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"release": 2.9}, "job 2: field 'release' must be an integer, got 2.9"),
            ({"processing": 0}, "job 2: processing must be >= 1, got 0"),
            ({"id": 1}, "job 1: duplicate id"),
        ],
    )
    def test_known_fields_are_checked_before_unknown_ones(self, changes, message):
        first = {"id": 1, "release": 0, "processing": 1, "resources": [1]}
        second = {"id": 2, "release": 0, "processing": 1, "resources": [1], "wieght": 7}
        second.update(changes)
        doc = {"s": 1, "joint_cost": 0, "item_costs": [0], "jobs": [first, second], "x": 0}
        with pytest.raises(InstanceError) as exc:
            parse_instance(json.dumps(doc))
        assert str(exc.value) == message


def _first_bad_job(jobs, num_resources):
    """The error a check per job raises, in job order: duplicate id first,
    then the job's own fields; None when every job is valid."""
    seen = set()
    for job in jobs:
        if job.id in seen:
            return f"job {job.id}: duplicate id"
        seen.add(job.id)
        try:
            job.validate(num_resources)
        except InstanceError as exc:
            return str(exc)
    return None


# each field rule as (the field values that break it, the error for job 3)
BAD_FIELDS = {
    "release": ({"release": -1}, "job 3: negative release -1"),
    "processing": ({"processing": 0}, "job 3: processing must be >= 1, got 0"),
    "weight": ({"weight": 0}, "job 3: weight must be >= 1, got 0"),
    "empty": ({"resources": frozenset()}, "job 3: empty resource set"),
    "range_high": ({"resources": frozenset({1, 3})}, "job 3: resource index 3 out of range 1..2"),
    "range_low": ({"resources": frozenset({0})}, "job 3: resource index 0 out of range 1..2"),
}


def _valid_jobs(n):
    return [Job(j, j % 3, 1 + j % 2, frozenset({1 + j % 2}), 1 + j % 3) for j in range(1, n + 1)]


class TestInstanceValidation:
    @pytest.mark.parametrize("rule", sorted(BAD_FIELDS))
    def test_bad_field_in_a_later_job_is_named(self, rule):
        changes, message = BAD_FIELDS[rule]
        jobs = _valid_jobs(5)
        jobs[2] = replace(jobs[2], **changes)
        with pytest.raises(InstanceError) as caught:
            Instance(2, 1, (1, 1), tuple(jobs))
        assert str(caught.value) == message

    def test_duplicate_id_in_a_later_job_is_named(self):
        jobs = _valid_jobs(5)
        jobs[3] = Job(2, 0, 1, R1)
        with pytest.raises(InstanceError) as caught:
            Instance(2, 1, (1, 1), tuple(jobs))
        assert str(caught.value) == "job 2: duplicate id"

    def test_first_bad_job_wins_over_rule_order(self):
        # job 2 breaks a rule checked after job 4's, and still comes first
        jobs = _valid_jobs(5)
        jobs[1] = Job(2, 0, 1, frozenset({5}))
        jobs[3] = Job(4, -3, 1, R1)
        with pytest.raises(InstanceError) as caught:
            Instance(2, 1, (1, 1), tuple(jobs))
        assert str(caught.value) == "job 2: resource index 5 out of range 1..2"

    def test_matches_a_check_per_job(self, rng):
        rules = [changes for changes, _ in BAD_FIELDS.values()]
        for _ in range(300):
            jobs = _valid_jobs(rng.randint(1, 8))
            for _ in range(rng.randint(0, 3)):
                at = rng.randrange(len(jobs))
                if rng.random() < 0.2:
                    changes = {"id": jobs[rng.randrange(len(jobs))].id}
                else:
                    changes = rng.choice(rules)
                jobs[at] = replace(jobs[at], **changes)
            expected = _first_bad_job(jobs, 2)
            if expected is None:
                assert Instance(2, 1, (1, 1), tuple(jobs)).jobs == tuple(jobs)
            else:
                with pytest.raises(InstanceError) as caught:
                    Instance(2, 1, (1, 1), tuple(jobs))
                assert str(caught.value) == expected


class TestReadyAt:
    def test_walkthrough_late_structure(self):
        inst = walkthrough_instance()
        q = events((3, {1}), (7, {1}))
        assert ready_at(inst, q, 1, 3)
        assert not ready_at(inst, q, 1, 2)

    def test_order_before_release_does_not_serve(self):
        inst = Instance(1, 0, (0,), (Job(1, 5, 1, R1),))
        q = events((3, {1}))
        assert not ready_at(inst, q, 1, 10)

    def test_before_release_never_ready(self):
        inst = walkthrough_instance()
        q = events((0, {1}), (3, {1}), (7, {1}))
        assert not ready_at(inst, q, 3, 6)

    def test_unknown_job(self):
        with pytest.raises(InstanceError, match="unknown job"):
            ready_at(walkthrough_instance(), events(), 99, 0)

    def test_unknown_job_id_text_and_no_cached_map(self):
        inst = walkthrough_instance()
        kept = dict(vars(inst))
        assert inst.job(3) is inst.jobs[2]
        with pytest.raises(InstanceError) as exc:
            inst.job(99)
        assert str(exc.value) == "unknown job id 99"
        with pytest.raises(InstanceError) as exc:
            ready_at(inst, events(), 0, 0)
        assert str(exc.value) == "unknown job id 0"
        sol = Solution(Schedule({1: 0, 9: 5}), events((0, {1})), Objective.MAX_FLOW, 4, 2, 6)
        report = check_feasible(inst, sol)
        assert [(v.kind, v.detail) for v in report.violations][:1] == [
            ("unknown-job", "job 9 is not in the instance")
        ]
        assert vars(inst) == kept  # lookups leave no id map on the instance

    def test_monotone_in_time(self, rng):
        for _ in range(40):
            inst = random_instance(rng, 4, s=2, max_processing=2)
            grid = inst.release_grid or (0,)
            q = events(*(((t, set(rng.sample(range(1, 3), rng.randint(1, 2))))
                          for t in grid)))
            job = rng.choice(inst.jobs)
            became_ready = None
            for t in range(0, inst.horizon + 2):
                if ready_at(inst, q, job.id, t):
                    became_ready = t
                    break
            if became_ready is not None:
                assert all(
                    ready_at(inst, q, job.id, t)
                    for t in range(became_ready, inst.horizon + 2)
                )

    def test_bisect_matches_linear_scan(self, rng):
        def linear(job, evs, t):
            if t < job.release:
                return False
            missing = set(job.resources)
            for event_time, resources in evs:
                if job.release <= event_time <= t:
                    missing -= resources
            return not missing

        job = Job(1, 5, 1, R1)
        assert job_ready(job, ((5, R1),), 5)  # t == release, order at t
        assert job_ready(job, ((4, R1), (7, R1)), 7)  # order exactly at t
        assert not job_ready(job, ((4, R1), (7, R1)), 6)
        assert not job_ready(job, ((5, R1),), 4)
        boundary = 0
        for _ in range(400):
            s = rng.randint(1, 3)
            times = sorted(rng.sample(range(0, 30), rng.randint(0, 8)))
            evs = tuple(
                (t, frozenset(rng.sample(range(1, s + 1), rng.randint(1, s)))) for t in times
            )
            job = Job(1, rng.randint(0, 25), 1, frozenset(rng.sample(range(1, s + 1), rng.randint(1, s))))
            # every t around the release and every order time, so the cases
            # t == release and an order exactly at t come up many times
            for t in {job.release - 1, job.release, job.release + 1, 31, *times}:
                boundary += t == job.release or t in times
                assert job_ready(job, evs, t) == linear(job, evs, t), (job, evs, t)
        assert boundary > 1000


class TestCosts:
    def test_replenishment_cost_three_orders(self):
        inst = Instance(1, 1, (2,), (Job(1, 0, 1, R1),))
        q = events((0, {1}), (3, {1}), (7, {1}))
        assert replenishment_cost(inst, q) == 9

    def test_replenishment_cost_empty(self):
        assert replenishment_cost(walkthrough_instance(), events()) == 0

    def test_replenishment_cost_joint_subset(self):
        inst = Instance(2, 2, (3, 4), (Job(1, 0, 1, frozenset({1, 2})),))
        assert replenishment_cost(inst, events((5, {1, 2}))) == 9

    def test_replenishment_cost_bad_resource(self):
        with pytest.raises(InstanceError, match="out of range"):
            replenishment_cost(walkthrough_instance(), events((0, {2})))

    def test_walkthrough_completion_sums(self):
        inst = walkthrough_instance()
        assert scheduling_cost(inst, Schedule({1: 0, 2: 4, 3: 7}), Objective.TOTAL_COMPLETION) == 17
        assert scheduling_cost(inst, Schedule({1: 3, 2: 7, 3: 8}), Objective.TOTAL_COMPLETION) == 24

    def test_walkthrough_max_flow(self):
        inst = walkthrough_instance()
        assert scheduling_cost(inst, Schedule({1: 3, 2: 7, 3: 8}), Objective.MAX_FLOW) == 7

    def test_max_flow_floored_at_zero(self):
        # every job starts more than its processing time before its release
        inst = walkthrough_instance()
        early = Schedule({1: -5, 2: 0, 3: 2})
        assert scheduling_cost(inst, early, Objective.MAX_FLOW) == 0
        assert scheduling_cost(inst, early, Objective.TOTAL_FLOW) == -1 - 2 - 4

    def test_unscheduled_job_rejected(self):
        with pytest.raises(SolutionError, match="job 3"):
            scheduling_cost(walkthrough_instance(), Schedule({1: 0, 2: 4}), Objective.TOTAL_FLOW)

    def test_flow_equals_completion_minus_release(self, rng):
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 6), s=2, max_processing=3, max_weight=4)
            t = 0
            starts = {}
            for job in inst.jobs:
                starts[job.id] = max(t, job.release)
                t = starts[job.id] + job.processing
            sched = Schedule(starts)
            shift = sum(job.weight * job.release for job in inst.jobs)
            assert (
                scheduling_cost(inst, sched, Objective.WEIGHTED_FLOW)
                == scheduling_cost(inst, sched, Objective.WEIGHTED_COMPLETION) - shift
            )
            shift1 = sum(job.release for job in inst.jobs)
            assert (
                scheduling_cost(inst, sched, Objective.TOTAL_FLOW)
                == scheduling_cost(inst, sched, Objective.TOTAL_COMPLETION) - shift1
            )


class TestSolution:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_writer_refuses_a_float_that_is_not_finite(self, value):
        """JSON has no text for NaN or infinity, so the one writer refuses
        it and names the field rather than print what no reader parses."""
        with pytest.raises(SolutionError) as exc:
            _dump_json({"bound": 1.5, "rows": [{"limit": value}]}, "document", SolutionError)
        assert str(exc.value) == (
            f"document: field 'rows[0][limit]' is {value}, not a finite number,"
            " and cannot be written"
        )

    def test_total_must_add_up(self):
        with pytest.raises(SolutionError, match="total"):
            Solution(Schedule({}), events(), Objective.TOTAL_COMPLETION, 3, 4, 8)

    def test_structure_requires_increasing_times(self):
        with pytest.raises(SolutionError, match="strictly increasing"):
            events((3, {1}), (3, {1}))

    def test_structure_rejects_empty_subset(self):
        with pytest.raises(SolutionError, match="empty resource set"):
            events((3, set()))

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("starts", [1], "starts"),
            ("starts", {"x": 0}, "starts"),
            ("starts", {"1": 0.5}, "starts[1]"),
            ("replenishments", [5], "replenishments"),
            ("replenishments", [{"time": "0", "resources": [1]}], "time"),
            ("replenishments", [{"time": 0, "resources": "1"}], "resources"),
            ("total", True, "total"),
            ("starts", {"1": 5, " 1": 0}, "starts"),
            ("starts", {"01": 0}, "starts"),
            ("starts", {"1_0": 0}, "starts"),
        ],
    )
    def test_document_field_types(self, field, value, named):
        doc = {"objective": "max_flow", "starts": {"1": 0},
               "replenishments": [{"time": 0, "resources": [1]}],
               "scheduling_cost": 1, "replenishment_cost": 1, "total": 2, field: value}
        with pytest.raises(SolutionError) as exc:
            parse_solution(json.dumps(doc))
        assert f"field '{named}'" in str(exc.value)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"totl": 2}, "solution: unknown field 'totl'"),
            ({"replenishments": [{"time": 0, "resources": [1], "resorces": [2]}]},
             "replenishment at 0: unknown field 'resorces'"),
            ({"replenishments": [{"time": 0, "resources": [1]}, {"time": 4, "resources": [1],
                                                                  "at": 4}]},
             "replenishment at 4: unknown field 'at'"),
        ],
    )
    def test_document_refuses_an_unknown_field(self, change, message):
        doc = {"objective": "max_flow", "starts": {"1": 0},
               "replenishments": [{"time": 0, "resources": [1]}],
               "scheduling_cost": 1, "replenishment_cost": 1, "total": 2, **change}
        with pytest.raises(SolutionError) as exc:
            parse_solution(json.dumps(doc))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"total": 3}, "total 3 != scheduling 1 + replenishment 1"),
            ({"replenishments": [{"time": 0, "resources": "1", "resorces": [2]}]},
             "replenishment at 0: field 'resources' must be a list of integers, got '1'"),
            ({"replenishments": [{"time": 4, "resources": [1], "x": 0},
                                 {"time": 0, "resources": [1]}]},
             "replenishment times must be strictly increasing"),
        ],
    )
    def test_document_checks_known_fields_before_unknown_ones(self, change, message):
        doc = {"objective": "max_flow", "starts": {"1": 0},
               "replenishments": [{"time": 0, "resources": [1]}],
               "scheduling_cost": 1, "replenishment_cost": 1, "total": 2, "note": "", **change}
        with pytest.raises(SolutionError) as exc:
            parse_solution(json.dumps(doc))
        assert str(exc.value) == message

    def test_document_refuses_a_second_key_for_one_job(self):
        doc = {"objective": "max_flow", "starts": {1: 0, "1": 5}, "replenishments": [],
               "scheduling_cost": 0, "replenishment_cost": 0, "total": 0}
        with pytest.raises(SolutionError, match="field 'starts' names job 1 twice"):
            solution_from_document(doc)

    @pytest.mark.parametrize(
        "starts, key",
        [('{"1": 99, "1": 0}', "1"), ('{"1": 0}, "starts": {"1": 99}', "starts")],
        ids=("job_id", "field"),
    )
    def test_document_refuses_a_repeated_key(self, starts, key):
        text = ('{"objective": "max_flow", "starts": ' + starts + ', "replenishments": [],'
                ' "scheduling_cost": 0, "replenishment_cost": 0, "total": 0}')
        with pytest.raises(SolutionError, match=f"repeats the key '{key}'"):
            parse_solution(text)

    @PAST_PARSER_LIMITS
    def test_json_past_the_parser_limits_is_malformed(self, text, cause):
        with pytest.raises(SolutionError, match=f"^malformed solution document: {cause}"):
            parse_solution(text)

    def test_schedule_starts_are_read_only(self):
        with pytest.raises(TypeError):
            Schedule({1: 0}).starts[1] = 5

    def test_schedule_copies_the_callers_starts(self):
        starts = {1: 0, 2: 4}
        schedule = Schedule(starts)
        starts[1] = 9
        del starts[2]
        assert schedule.starts == {1: 0, 2: 4}

    def test_solution_roundtrip(self):
        inst = walkthrough_instance()
        sol = evaluate_solution(
            inst, Schedule({1: 0, 2: 4, 3: 7}), events((0, {1}), (3, {1}), (7, {1})),
            Objective.TOTAL_COMPLETION,
        )
        assert parse_solution(emit_solution(sol)) == sol


class TestCheckFeasible:
    def test_walkthrough_feasible(self):
        inst = walkthrough_instance()
        sol = evaluate_solution(
            inst, Schedule({1: 0, 2: 4, 3: 7}), events((0, {1}), (3, {1}), (7, {1})),
            Objective.TOTAL_COMPLETION,
        )
        assert check_feasible(inst, sol).ok

    def test_not_ready(self):
        inst = Instance(1, 0, (0,), (Job(2, 3, 1, R1),))
        sol = evaluate_solution(inst, Schedule({2: 2}), events((3, {1})), Objective.TOTAL_FLOW)
        report = check_feasible(inst, sol)
        assert [v.kind for v in report.violations] == ["not-ready"]
        assert report.violations[0].jobs == (2,)

    def test_overlap(self):
        inst = Instance(1, 0, (0,), (Job(1, 0, 1, R1), Job(2, 0, 1, R1)))
        sol = evaluate_solution(
            inst, Schedule({1: 0, 2: 0}), events((0, {1})), Objective.TOTAL_COMPLETION
        )
        report = check_feasible(inst, sol)
        assert any(v.kind == "overlap" and v.jobs == (1, 2) for v in report.violations)

    def test_unscheduled_reported(self):
        inst = walkthrough_instance()
        sol = Solution(Schedule({1: 0}), events((0, {1})), Objective.MAX_FLOW, 4, 2, 6)
        kinds = {v.kind for v in check_feasible(inst, sol).violations}
        assert "unscheduled" in kinds


class TestNormalize:
    def test_event_moved_to_grid(self):
        inst = walkthrough_instance()
        sol = evaluate_solution(
            inst, Schedule({1: 5, 2: 9, 3: 10}), events((5, {1}), (7, {1})),
            Objective.TOTAL_COMPLETION,
        )
        normalized = normalize_replenishments(inst, sol)
        assert normalized.replenishments.times() == (3, 7)
        assert check_feasible(inst, normalized).ok

    def test_event_before_first_release_dropped(self):
        inst = Instance(1, 1, (1,), (Job(1, 3, 1, R1),))
        sol = evaluate_solution(
            inst, Schedule({1: 3}), events((2, {1}), (3, {1})), Objective.TOTAL_FLOW
        )
        normalized = normalize_replenishments(inst, sol)
        assert normalized.replenishments.times() == (3,)
        assert normalized.replenishment_cost < sol.replenishment_cost

    def test_on_grid_unchanged(self):
        inst = walkthrough_instance()
        sol = evaluate_solution(
            inst, Schedule({1: 0, 2: 4, 3: 7}), events((0, {1}), (3, {1}), (7, {1})),
            Objective.TOTAL_COMPLETION,
        )
        assert normalize_replenishments(inst, sol) == sol

    def test_infeasible_rejected(self):
        inst = walkthrough_instance()
        sol = evaluate_solution(inst, Schedule({1: 0, 2: 4, 3: 7}), events(), Objective.MAX_FLOW)
        with pytest.raises(SolutionError, match="infeasible"):
            normalize_replenishments(inst, sol)

    def test_never_costs_more_and_stays_feasible(self, rng):
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 5), s=2, max_processing=3)
            # schedule everything after a full order at the last release
            t = max(job.release for job in inst.jobs)
            starts = {}
            clock = t
            for job in sorted(inst.jobs, key=lambda j: j.id):
                starts[job.id] = clock
                clock += job.processing
            extra = tuple(
                (t + 1 + i, frozenset({rng.randint(1, 2)})) for i in range(rng.randint(0, 2))
            )
            sol = evaluate_solution(
                inst,
                Schedule(starts),
                ReplenishmentStructure(((t, frozenset({1, 2})),) + extra),
                Objective.TOTAL_FLOW,
            )
            assert check_feasible(inst, sol).ok
            normalized = normalize_replenishments(inst, sol)
            assert normalized.replenishment_cost <= sol.replenishment_cost
            assert check_feasible(inst, normalized).ok
            assert all(t in inst.release_grid for t in normalized.replenishments.times())
