import hashlib
import io
import json

import pytest

from jrsched import Objective, cli, oracle, parse_instance, parse_solution
from jrsched.cli import main
from jrsched.generate import GeneratorSpec, gen_instance
from jrsched.offline_dp import dp_wjcj_unit


def run_cli(capsys, argv, expect=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, f"argv={argv} stderr={captured.err}"
    return captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


WALKTHROUGH = {
    "s": 1,
    "joint_cost": 1,
    "item_costs": [1],
    "jobs": [
        {"id": 1, "release": 0, "processing": 4, "resources": [1]},
        {"id": 2, "release": 3, "processing": 1, "resources": [1]},
        {"id": 3, "release": 7, "processing": 1, "resources": [1]},
    ],
}


class TestGen:
    def test_deterministic(self, capsys):
        argv = ["gen", "--family", "random", "--seed", "42", "--n", "5", "--s", "2"]
        first, _ = run_cli(capsys, argv)
        second, _ = run_cli(capsys, argv)
        assert first == second

    def test_regular_family(self, capsys):
        out, _ = run_cli(capsys, ["gen", "--family", "regular", "--n", "6"])
        inst = parse_instance(out)
        assert [job.release for job in inst.jobs] == [1, 2, 3, 4, 5, 6]
        assert all(job.processing == 1 for job in inst.jobs)

    def test_tight_single_job(self, capsys):
        out, _ = run_cli(capsys, ["gen", "--family", "tight", "--tight-name", "single-job",
                                  "--joint-cost", "5"])
        inst = parse_instance(out)
        assert len(inst.jobs) == 1
        assert inst.jobs[0].release == 0
        assert inst.jobs[0].processing == 1

    def test_roundtrip_parse(self, capsys):
        out, _ = run_cli(capsys, ["gen", "--seed", "7", "--n", "4"])
        inst = parse_instance(out)
        assert parse_instance(out) == inst


class TestSolve:
    def test_max_flow_dp_on_walkthrough(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        out, _ = run_cli(capsys, ["solve", "--algo", "dp-fmax-s1", "--input", path])
        solution = parse_solution(out)
        assert solution.total == 9

    def test_oracle_needs_objective(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        _, err = run_cli(capsys, ["solve", "--algo", "oracle", "--input", path], expect=1)
        assert "objective" in err

    def test_oracle_solves(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        out, _ = run_cli(capsys, ["solve", "--algo", "oracle", "--objective",
                                  "total_completion", "--input", path])
        # orders at every release date: completions 17 plus three orders of 2
        assert parse_solution(out).total == 23

    def test_solver_precondition_reported(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        _, err = run_cli(capsys, ["solve", "--algo", "dp-wjcj-unit", "--input", path], expect=1)
        assert "unit" in err

    def test_missing_file(self, capsys):
        _, err = run_cli(capsys, ["solve", "--algo", "oracle", "--objective",
                                  "max_flow", "--input", "/nope/missing.json"], expect=1)
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "jobs, field",
        [
            ([{"id": 1, "release": 2.9, "processing": 1, "resources": [1]}], "release"),
            ([{"id": 1, "release": 2, "processing": 1, "resources": "1"}], "resources"),
            ([5], "jobs"),
        ],
    )
    def test_malformed_instance_names_field(self, capsys, tmp_path, jobs, field):
        path = write(tmp_path, "bad.json", json.dumps({**WALKTHROUGH, "jobs": jobs}))
        _, err = run_cli(capsys, ["solve", "--algo", "dp-fmax-s1", "--input", path], expect=1)
        assert f"field '{field}'" in err

    def test_bad_oracle_limits_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        _, err = run_cli(capsys, ["solve", "--algo", "oracle", "--objective", "max_flow",
                                  "--input", path, "--max-jobs", "-1"], expect=1)
        assert "oracle limits" in error_line(err)

    def test_oracle_job_cap_reported(self, capsys, tmp_path):
        out, _ = run_cli(capsys, ["gen", "--seed", "1", "--n", "9"])
        path = write(tmp_path, "nine.json", out)
        out, err = run_cli(capsys, ["solve", "--algo", "oracle", "--objective",
                                    "total_completion", "--input", path], expect=1)
        assert out == ""
        assert "9 jobs, limit is 8" in error_line(err)

    def test_unknown_algo_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--algo", "nope", "--input", "x"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestOnline:
    def test_single_job_with_trace(self, capsys, tmp_path):
        single = {"s": 1, "joint_cost": 5, "item_costs": [0],
                  "jobs": [{"id": 1, "release": 0, "processing": 1, "resources": [1]}]}
        path = write(tmp_path, "single.json", json.dumps(single))
        trace_path = str(tmp_path / "trace.jsonl")
        out, _ = run_cli(capsys, ["online", "--policy", "sum-cj", "--K", "5",
                                  "--input", path, "--trace", trace_path])
        document = json.loads(out)
        assert document["solution"]["total"] == 10
        lines = [json.loads(line) for line in open(trace_path)]
        assert lines[0] == {"t": 4, "replenish": [1], "start": [1]}
        assert lines[-1]["total"] == 10

    def test_blocks_match_trace_summary(self, capsys, tmp_path):
        unit = {"s": 1, "joint_cost": 3, "item_costs": [0],
                "jobs": [{"id": i, "release": r, "processing": 1, "resources": [1]}
                         for i, r in enumerate([0, 0, 1, 5, 6, 6], start=1)]}
        path = write(tmp_path, "unit.json", json.dumps(unit))
        trace_path = str(tmp_path / "trace.jsonl")
        out, _ = run_cli(capsys, ["online", "--policy", "sum-fj", "--K", "3",
                                  "--input", path, "--trace", trace_path])
        summary = json.loads(open(trace_path).read().splitlines()[-1])
        blocks = json.loads(out)["blocks"]
        assert blocks == [{"t": 0, "b": 2, "y": 0, "z": 2}, {"t": 3, "b": 1, "y": 1, "z": 0},
                          {"t": 6, "b": 3, "y": 1, "z": 2}]
        assert blocks == summary["blocks"]

    def test_lead_one_shifts_releases(self, capsys, tmp_path):
        single = {"s": 1, "joint_cost": 1, "item_costs": [0],
                  "jobs": [{"id": 1, "release": 0, "processing": 1, "resources": [1]}]}
        path = write(tmp_path, "single.json", json.dumps(single))
        out, _ = run_cli(capsys, ["online", "--policy", "sum-cj", "--K", "1", "--input", path,
                                  "--lead-one"])
        document = json.loads(out)
        assert document["solution"]["starts"]["1"] == 1


class TestAdversary:
    def test_completion_game(self, capsys):
        out, _ = run_cli(capsys, ["adversary", "--kind", "sum_cj_3_2", "--K", "100"])
        document = json.loads(out)
        assert document["online"]["total"] == 401
        assert document["offline"]["total"] == 302
        assert abs(document["ratio"] - 401 / 302) < 1e-9


class TestBounds:
    def test_instance_bounds(self, capsys, tmp_path):
        ten = {"s": 1, "joint_cost": 1, "item_costs": [0],
               "jobs": [{"id": i, "release": 0, "processing": 1, "resources": [1]}
                        for i in range(1, 11)]}
        path = write(tmp_path, "ten.json", json.dumps(ten))
        out, _ = run_cli(capsys, ["bounds", "--input", path])
        document = json.loads(out)
        assert document["lb_ceiling"] == 7
        assert abs(document["lb_sqrt"] - 6.324555320336759) < 1e-9

    def test_curve(self, capsys):
        out, _ = run_cli(capsys, ["bounds", "--curve", "sum_cj_3_2", "--K", "100"])
        document = json.loads(out)
        assert document["t"] in (48, 49)
        assert document["bound"] < 1.5

    def test_curve_order_cost_defaults_to_one(self, capsys):
        out, _ = run_cli(capsys, ["bounds", "--curve", "sum_cj_3_2"])
        assert out == run_cli(capsys, ["bounds", "--curve", "sum_cj_3_2", "--K", "1"])[0]
        assert json.loads(out)["K"] == 1

    def test_needs_input_or_curve(self, capsys):
        _, err = run_cli(capsys, ["bounds"], expect=1)
        assert "--input or --curve" in err

    @pytest.mark.parametrize("w2", ["nan", "inf"])
    def test_curve_rejects_w2_not_finite(self, capsys, w2):
        out, err = run_cli(capsys, ["bounds", "--curve", "weighted_golden", "--K", "5",
                                    "--w2", w2], expect=1)
        assert out == ""
        assert "finite w2" in error_line(err)


class TestRatio:
    def test_csv_recomputes(self, capsys):
        out, _ = run_cli(capsys, ["ratio", "--policy", "sum-cj", "--K", "5", "--n", "5",
                                  "--seeds", "0:6", "--csv"])
        lines = out.strip().split("\n")
        assert lines[0] == "seed,n,K,online,offline,ratio"
        assert len(lines) == 7
        for line in lines[1:]:
            seed, n, k, online, offline, ratio = line.split(",")
            assert abs(float(ratio) - int(online) / int(offline)) < 1e-9
            assert 1.0 <= float(ratio) <= 2.0

    def test_regular_max_flow_sweep(self, capsys):
        out, _ = run_cli(capsys, ["ratio", "--policy", "max-flow", "--K", "2",
                                  "--family", "regular", "--n", "12", "--seeds", "0:1"])
        rows = json.loads(out)
        assert rows[0]["ratio"] <= 2 ** 0.5 + 1e-9 + 1 / rows[0]["offline"]

    @pytest.mark.parametrize("policy", ["sum-cj", "sum-fj"])
    def test_sum_policies_run_past_the_oracle_cap(self, capsys, policy):
        out, _ = run_cli(capsys, ["ratio", "--policy", policy, "--K", "5", "--n", "12",
                                  "--seeds", "0:3"])
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [12, 12, 12]
        for row in rows:
            spec = GeneratorSpec(seed=row["seed"], n=12, joint_cost=5, item_cost_max=0,
                                 max_release=8, max_processing=1)
            instance = gen_instance(spec)
            expected = dp_wjcj_unit(instance).total
            if policy == "sum-fj":
                expected -= sum(job.release for job in instance.jobs)
            assert row["offline"] == expected

    @pytest.mark.parametrize("policy", ["sum-cj", "sum-fj"])
    def test_sum_policies_never_reach_the_oracle(self, capsys, monkeypatch, policy):
        def refuse(*args):
            raise AssertionError("ratio called the oracle")

        monkeypatch.setattr(cli, "exact_solve", refuse)
        monkeypatch.setattr(oracle, "_solve_over_points", refuse)
        out, _ = run_cli(capsys, ["ratio", "--policy", policy, "--K", "3", "--n", "6",
                                  "--seeds", "0:4", "--csv"])
        assert len(out.splitlines()) == 5

    def test_n_below_one_rejected(self, capsys):
        _, err = run_cli(capsys, ["ratio", "--policy", "sum-cj", "--K", "5", "--n", "0"],
                         expect=1)
        assert "--n" in err

    @pytest.mark.parametrize(
        "extra, message",
        [(["--K", "0"], "order cost")],
    )
    def test_bad_parameters_rejected(self, capsys, extra, message):
        _, err = run_cli(capsys, ["ratio", "--policy", "sum-cj", "--n", "3", "--seeds", "0:1",
                                  *extra], expect=1)
        assert message in err

    def test_max_flow_requires_regular(self, capsys):
        _, err = run_cli(capsys, ["ratio", "--policy", "max-flow", "--K", "2"], expect=1)
        assert "regular" in err

    def test_order_cost_past_the_default_horizon(self, capsys):
        # the policy waits about K steps, past 2,000,000 plus the jobs' span
        out, _ = run_cli(capsys, ["ratio", "--policy", "sum-cj", "--K", "10000000",
                                  "--seeds", "0:1", "--n", "2"])
        [row] = json.loads(out)
        assert (row["online"], row["offline"]) == (20_000_001, 10_000_017)


class TestValidate:
    def test_feasible_document(self, capsys, tmp_path):
        document = {
            "instance": WALKTHROUGH,
            "solution": {
                "objective": "total_completion",
                "starts": {"1": 0, "2": 4, "3": 7},
                "replenishments": [{"time": t, "resources": [1]} for t in (0, 3, 7)],
                "scheduling_cost": 17,
                "replenishment_cost": 6,
                "total": 23,
            },
        }
        path = write(tmp_path, "combined.json", json.dumps(document))
        out, _ = run_cli(capsys, ["validate", "--input", path])
        assert json.loads(out)["feasible"] is True

    def test_overlap_fails_with_exit_1(self, capsys, tmp_path):
        document = {
            "instance": {"s": 1, "joint_cost": 5, "item_costs": [0],
                         "jobs": [{"id": 1, "release": 0, "processing": 1, "resources": [1]},
                                  {"id": 2, "release": 0, "processing": 1, "resources": [1]}]},
            "solution": {"objective": "total_completion", "starts": {"1": 0, "2": 0},
                         "replenishments": [{"time": 0, "resources": [1]}],
                         "scheduling_cost": 2, "replenishment_cost": 5, "total": 7},
        }
        path = write(tmp_path, "bad.json", json.dumps(document))
        out, _ = run_cli(capsys, ["validate", "--input", path], expect=1)
        report = json.loads(out)
        assert report["feasible"] is False
        assert any(v["kind"] == "overlap" for v in report["violations"])

    def test_starts_must_be_an_object(self, capsys, tmp_path):
        document = {
            "instance": WALKTHROUGH,
            "solution": {"objective": "total_completion", "starts": [1],
                         "replenishments": [], "scheduling_cost": 0,
                         "replenishment_cost": 0, "total": 0},
        }
        path = write(tmp_path, "starts.json", json.dumps(document))
        _, err = run_cli(capsys, ["validate", "--input", path], expect=1)
        assert "field 'starts'" in err

    def test_cost_mismatch_detected(self, capsys, tmp_path):
        document = {
            "instance": WALKTHROUGH,
            "solution": {
                "objective": "total_completion",
                "starts": {"1": 0, "2": 4, "3": 7},
                "replenishments": [{"time": t, "resources": [1]} for t in (0, 3, 7)],
                "scheduling_cost": 16,
                "replenishment_cost": 7,
                "total": 23,
            },
        }
        path = write(tmp_path, "drift.json", json.dumps(document))
        out, _ = run_cli(capsys, ["validate", "--input", path], expect=1)
        kinds = {v["kind"] for v in json.loads(out)["violations"]}
        assert kinds == {"cost-mismatch"}


TWO_RESOURCES = {
    "s": 2,
    "joint_cost": 1,
    "item_costs": [1, 1],
    "jobs": [{"id": 1, "release": 0, "processing": 1, "resources": [1, 2]}],
}


# one job released at 10**7: its fine grid is far past the default cap
FAR_RELEASED = {
    "s": 1,
    "joint_cost": 1,
    "item_costs": [1],
    "jobs": [{"id": 1, "release": 10**7, "processing": 1, "resources": [1]}],
}


def error_line(err):
    """The one ``error:`` line a failed command prints on stderr."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestInputErrors:
    def test_bad_generator_spec(self, capsys):
        out, err = run_cli(capsys, ["gen", "--n", "-1"], expect=1)
        assert out == ""
        assert error_line(err) == "error: n must be >= 0, got -1"

    def test_validate_orders_unknown_resource(self, capsys, tmp_path):
        document = {
            "instance": WALKTHROUGH,
            "solution": {
                "objective": "total_completion",
                "starts": {"1": 0, "2": 4, "3": 7},
                "replenishments": [{"time": 0, "resources": [5]}],
                "scheduling_cost": 17,
                "replenishment_cost": 2,
                "total": 19,
            },
        }
        path = write(tmp_path, "unknown.json", json.dumps(document))
        out, err = run_cli(capsys, ["validate", "--input", path], expect=1)
        assert out == ""
        assert "resource index 5" in error_line(err)

    def test_validate_refuses_a_padded_job_id(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        out, _ = run_cli(capsys, ["solve", "--algo", "oracle", "--objective",
                                  "total_completion", "--input", path])
        solution = json.loads(out)
        # " 1" is not a job id; read as 1 it would silently replace the bad "1"
        starts = solution["starts"]
        solution["starts"] = {**starts, "1": starts["1"] + 100, " 1": starts["1"]}
        path = write(tmp_path, "padded.json", json.dumps({"instance": WALKTHROUGH,
                                                          "solution": solution}))
        out, err = run_cli(capsys, ["validate", "--input", path], expect=1)
        assert out == ""
        assert "field 'starts'" in error_line(err) and "' 1'" in error_line(err)

    def test_repeated_key_is_refused(self, capsys, tmp_path):
        # plain JSON parsing keeps the last value: job 1 would start at 0 and
        # the solution would pass as feasible
        solution = ('{"objective": "total_completion", "starts": {"1": 99, "1": 0, "2": 4,'
                    ' "3": 7}, "replenishments": [{"time": 0, "resources": [1]}, {"time": 3,'
                    ' "resources": [1]}, {"time": 7, "resources": [1]}], "scheduling_cost": 17,'
                    ' "replenishment_cost": 6, "total": 23}')
        path = write(tmp_path, "twice.json", '{"instance": ' + json.dumps(WALKTHROUGH)
                     + ', "solution": ' + solution + '}')
        out, err = run_cli(capsys, ["validate", "--input", path], expect=1)
        assert out == ""
        assert error_line(err) == "error: document repeats the key '1' in one object"
        instance = json.dumps(WALKTHROUGH).replace('"release": 3', '"release": 9, "release": 3')
        path = write(tmp_path, "release_twice.json", instance)
        out, err = run_cli(capsys, ["solve", "--algo", "oracle", "--objective",
                                    "total_completion", "--input", path], expect=1)
        assert out == ""
        assert error_line(err) == "error: instance document repeats the key 'release' in one object"

    def test_unknown_field_is_refused(self, capsys, tmp_path):
        # a misspelt weight used to solve with weight 1 and exit 0
        instance = json.loads(json.dumps(WALKTHROUGH))
        instance["jobs"][1]["wieght"] = 7
        path = write(tmp_path, "misspelt.json", json.dumps(instance))
        out, err = run_cli(capsys, ["solve", "--algo", "oracle", "--objective",
                                    "total_weighted_completion", "--input", path], expect=1)
        assert out == ""
        assert error_line(err) == "error: job 2: unknown field 'wieght'"
        # a misspelt resource list used to be dropped from the order
        solution = {
            "objective": "total_completion",
            "starts": {"1": 0, "2": 4, "3": 7},
            "replenishments": [{"time": t, "resources": [1]} for t in (0, 3, 7)],
            "scheduling_cost": 17,
            "replenishment_cost": 6,
            "total": 23,
        }
        solution["replenishments"][1]["resorces"] = [2]
        path = write(tmp_path, "dropped.json", json.dumps({"instance": WALKTHROUGH,
                                                           "solution": solution}))
        out, err = run_cli(capsys, ["validate", "--input", path], expect=1)
        assert out == ""
        assert error_line(err) == "error: replenishment at 3: unknown field 'resorces'"
        del solution["replenishments"][1]["resorces"]
        path = write(tmp_path, "fixed.json", json.dumps({"instance": WALKTHROUGH,
                                                         "solution": solution}))
        out, _ = run_cli(capsys, ["validate", "--input", path])
        assert json.loads(out)["feasible"] is True
        # a stray key next to a valid pair used to validate as feasible
        path = write(tmp_path, "stray.json", json.dumps({"instance": WALKTHROUGH,
                                                         "solution": solution,
                                                         "soluton": {"starts": {"1": 99}}}))
        out, err = run_cli(capsys, ["validate", "--input", path], expect=1)
        assert out == ""
        assert error_line(err) == "error: document: unknown field 'soluton'"

    def test_bounds_input_and_curve_together_is_usage_error(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--input", path, "--curve", "sum_cj_3_2"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_objective_the_solver_does_not_solve(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        out, err = run_cli(capsys, ["solve", "--algo", "dp-fmax-s1", "--objective",
                                    "total_completion", "--input", path], expect=1)
        assert out == ""
        line = error_line(err)
        assert "dp-fmax-s1" in line and "total_completion" in line

    def test_objective_required_when_several(self, capsys, tmp_path):
        path = write(tmp_path, "ex1.json", json.dumps(WALKTHROUGH))
        out, err = run_cli(capsys, ["solve", "--algo", "dp-equalp", "--input", path], expect=1)
        assert out == ""
        assert error_line(err) == "error: --objective is required for --algo dp-equalp"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--max-processing", "0"], "max_processing must be >= 1, got 0"),
            (["online", "--policy", "sum-cj", "--K", "2", "--input", "{two}"],
             "single resource type"),
            (["bounds"], "--input or --curve"),
            (["bounds", "--input", "{two}"], "single resource type"),
            (["bounds", "--curve", "sum_cj_3_2", "--K", "0"], "order cost must be >= 1"),
            (["ratio", "--policy", "sum-cj", "--K", "2", "--seeds", "5"], "bad --seeds range"),
            (["adversary", "--kind", "weighted_golden", "--K", "5"], "w2"),
            (["validate", "--input", "{not_json}"], "malformed document"),
            (["validate", "--input", "{no_solution}"], "validate expects"),
            (["bounds", "--curve", "sum_cj_3_2", "--K", "5", "--w2", "0.5"],
             "w2 applies only to weighted_golden, not to sum_cj_3_2"),
            (["bounds", "--input", "{one}", "--w2", "0.5"],
             "w2 applies only to weighted_golden, not to --input"),
            (["bounds", "--input", "{one}", "--K", "7"], "--K applies only to --curve"),
            (["solve", "--algo", "dp-equalp", "--objective", "max_flow", "--input", "{one}",
              "--max-jobs", "1"], "--algo dp-equalp reads no --max-jobs or --max-grid-subsets"),
            (["solve", "--algo", "oracle-fine", "--objective", "total_completion", "--input",
              "{far}"], "replenishment structures exceed the cap"),
            (["online", "--policy", "immediate", "--K", "-5", "--input", "{one}"],
             "order cost must be >= 1"),
            (["online", "--policy", "immediate", "--K", "0", "--input", "{one}"],
             "order cost must be >= 1"),
            # JSON past json.loads's limits used to end in a traceback
            (["solve", "--algo", "oracle", "--objective", "total_completion", "--input",
              "{deep}"], "malformed instance document: maximum recursion depth"),
            (["solve", "--algo", "oracle", "--objective", "total_completion", "--input",
              "{long_int}"], "malformed instance document: Exceeds the limit"),
            (["validate", "--input", "{deep}"], "malformed document: maximum recursion depth"),
            (["validate", "--input", "{long_int}"], "malformed document: Exceeds the limit"),
            # a cost past the digit limit used to end in a traceback from json.dumps
            (["solve", "--algo", "oracle", "--objective", "total_weighted_completion", "--input",
              "{huge_weight}"], "solution: field 'scheduling_cost' has more than"),
            # every command writes through one writer, which refuses such an int
            (["online", "--policy", "sum-cj", "--K", "2", "--input", "{far_pair}"],
             "document: field 'solution[scheduling_cost]' has more than"),
            (["online", "--policy", "sum-cj", "--K", "2", "--input", "{far_pair}",
              "--trace", "{trace}"], "document: field 'solution[scheduling_cost]' has more than"),
            (["adversary", "--kind", "sum_cj_3_2", "--K", "9" * 4300],
             "document: field 'offline[replenishment_cost]' has more than"),
            # a declared cost checked against one of about 8,001 digits
            (["validate", "--input", "{huge_declared}"],
             "recomputed scheduling cost has more than"),
            # an empty seed range used to print no rows and exit 0
            (["ratio", "--policy", "sum-cj", "--K", "1", "--n", "3", "--seeds", "5:2"],
             "empty --seeds range '5:2'"),
            (["ratio", "--policy", "sum-cj", "--K", "1", "--n", "3", "--seeds", "2:2"],
             "empty --seeds range '2:2'"),
            # a curve past the float range used to print NaN, which is not JSON, and exit 0
            (["bounds", "--curve", "weighted_golden", "--w2", "1e308", "--K", "1"],
             "document: field 'bound' is nan, not a finite number, and cannot be written"),
            # a square root past the float range used to end in a traceback
            (["bounds", "--input", "{huge_order_cost}"],
             "2*sqrt(K * p_sum) exceeds the float range"),
        ],
    )
    def test_failure_is_one_error_line(self, capsys, tmp_path, argv, message):
        paths = {
            "one": write(tmp_path, "one.json", json.dumps(WALKTHROUGH)),
            "far": write(tmp_path, "far.json", json.dumps(FAR_RELEASED)),
            "two": write(tmp_path, "two.json", json.dumps(TWO_RESOURCES)),
            "not_json": write(tmp_path, "not.json", "{not json"),
            "no_solution": write(tmp_path, "half.json", json.dumps({"instance": WALKTHROUGH})),
            "deep": write(tmp_path, "deep.json", "[" * 200_000),
            "long_int": write(tmp_path, "long_int.json", '{"s": ' + "9" * 5000 + "}"),
            # release and weight of 4,001 digits each, so w * C has about 8,001
            "huge_weight": write(tmp_path, "huge_weight.json", json.dumps(
                {"s": 1, "joint_cost": 1, "item_costs": [0], "jobs": [
                    {"id": 1, "release": 10**4000, "processing": 1, "resources": [1],
                     "weight": 10**4000}]})),
            # two unit jobs released at the largest release of 4,300 digits
            "far_pair": write(tmp_path, "far_pair.json", json.dumps(
                {"s": 1, "joint_cost": 1, "item_costs": [0], "jobs": [
                    {"id": job_id, "release": 10**4300 - 1, "processing": 1, "resources": [1]}
                    for job_id in (1, 2)]})),
            "huge_declared": write(tmp_path, "huge_declared.json", json.dumps({
                "instance": {"s": 1, "joint_cost": 1, "item_costs": [0], "jobs": [
                    {"id": 1, "release": 10**4000, "processing": 1, "resources": [1],
                     "weight": 10**4000}]},
                "solution": {"objective": "total_weighted_completion",
                             "starts": {"1": 10**4000},
                             "replenishments": [{"time": 10**4000, "resources": [1]}],
                             "scheduling_cost": 0, "replenishment_cost": 1, "total": 1}})),
            "huge_order_cost": write(tmp_path, "huge_order_cost.json", json.dumps(
                {"s": 1, "joint_cost": 10**400, "item_costs": [0], "jobs": [
                    {"id": 1, "release": 0, "processing": 1, "resources": [1]}]})),
            "trace": str(tmp_path / "trace.jsonl"),
        }
        out, err = run_cli(capsys, [arg.format(**paths) for arg in argv], expect=1)
        assert out == ""
        assert message in error_line(err)
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--family", "regular", "--n", "2", "--s", "3", "--max-weight", "9"],
             "error: --family regular reads no --s"),
            (["--family", "regular", "--seed", "4"], "error: --family regular reads no --seed"),
            (["--family", "regular", "--tight-name", "three-jobs"],
             "error: --family regular reads no --tight-name"),
            (["--family", "tight", "--n", "3"],
             "error: --family tight --tight-name single-job reads no --n"),
            (["--family", "tight", "--item-cost-max", "4"],
             "error: --family tight --tight-name single-job reads no --item-cost-max"),
            (["--family", "tight", "--tight-name", "three-jobs", "--max-release", "4"],
             "error: --family tight --tight-name three-jobs reads no --max-release"),
            (["--tight-name", "single-job"], "error: --family random reads no --tight-name"),
        ],
    )
    def test_gen_refuses_an_option_its_family_does_not_read(self, capsys, argv, line):
        out, err = run_cli(capsys, ["gen", *argv], expect=1)
        assert out == ""
        assert error_line(err) == line

    def test_gen_reads_the_options_of_its_family(self, capsys):
        out, _ = run_cli(capsys, ["gen", "--family", "tight", "--tight-name", "three-jobs",
                                  "--item-cost-max", "4", "--joint-cost", "3"])
        instance = parse_instance(out)
        assert (instance.joint_cost, instance.item_costs) == (3, (4,))
        out, _ = run_cli(capsys, ["gen", "--family", "regular", "--n", "3", "--joint-cost", "0"])
        instance = parse_instance(out)
        assert (len(instance.jobs), instance.joint_cost) == (3, 0)

    @pytest.mark.parametrize(
        "kind", ["sum_cj_3_2", "sum_fj_3_2", "fmax_regular_4_3", "fmax_general_golden"]
    )
    def test_adversary_refuses_w2_outside_weighted_golden(self, capsys, kind):
        out, err = run_cli(capsys, ["adversary", "--kind", kind, "--K", "3", "--w2", "50"],
                           expect=1)
        assert out == ""
        assert "w2" in error_line(err)

    def test_undecodable_input_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe")
        out, err = run_cli(capsys, ["solve", "--algo", "oracle", "--objective", "max_flow",
                                    "--input", str(path)], expect=1)
        assert out == ""
        assert error_line(err).startswith(f"error: cannot read {path}: ")

    def test_output_to_missing_directory_names_the_path(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x.json")
        out, err = run_cli(capsys, ["gen", "-o", target], expect=1)
        assert out == ""
        assert error_line(err).startswith(f"error: cannot write {target}: ")

    def test_trace_to_missing_directory_names_the_path(self, capsys, tmp_path):
        single = {"s": 1, "joint_cost": 2, "item_costs": [0],
                  "jobs": [{"id": 1, "release": 0, "processing": 1, "resources": [1]}]}
        path = write(tmp_path, "single.json", json.dumps(single))
        target = str(tmp_path / "missing" / "t.jsonl")
        out, err = run_cli(capsys, ["online", "--policy", "sum-cj", "--K", "2", "--input", path,
                                    "--trace", target], expect=1)
        assert out == ""
        assert error_line(err).startswith(f"error: cannot write {target}: ")

    def test_instance_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WALKTHROUGH)))
        out, _ = run_cli(capsys, ["solve", "--algo", "dp-fmax-s1", "--input", "-"])
        assert parse_solution(out).total == 9


# gen arguments of the instances the pinned commands read
PIN_INSTANCES = {
    "multi": ["--seed", "3", "--n", "5", "--s", "2"],
    "single": ["--seed", "5", "--n", "6", "--max-processing", "2", "--joint-cost", "3"],
    "unit": ["--seed", "7", "--n", "7", "--s", "2", "--max-processing", "1"],
    "weighted": ["--seed", "8", "--n", "7", "--s", "2", "--max-processing", "1",
                 "--max-weight", "4"],
    "stream": ["--seed", "9", "--n", "8", "--max-processing", "1"],
    "regular": ["--family", "regular", "--n", "7", "--joint-cost", "2"],
    "three": ["--family", "tight", "--tight-name", "three-jobs", "--joint-cost", "2"],
}


def pinned_commands(paths):
    """Successful invocations of every command; each --algo on its class."""
    commands = []
    for name, objectives in (
        ("multi", [obj.value for obj in Objective]),
        ("three", ["total_completion", "max_flow"]),
    ):
        commands += [["solve", "--algo", "oracle", "--objective", obj, "--input", paths[name]]
                     for obj in objectives]
    commands += [["solve", "--algo", "oracle-fine", "--objective", obj, "--input", paths["three"]]
                 for obj in ("total_completion", "total_flow", "max_flow")]
    commands += [["solve", "--algo", "dp-equalp", "--objective", obj, "--input", paths["unit"]]
                 for obj in ("total_completion", "max_flow")]
    for algo, objective, names in (
        ("dp-wjcj-unit", "total_weighted_completion", ("weighted", "unit")),
        ("dp-fmax-s1", "max_flow", ("single", "three", "regular")),
        ("fmax-unit-distinct", "max_flow", ("regular",)),
    ):
        for name in names:
            commands.append(["solve", "--algo", algo, "--input", paths[name]])
            commands.append(["solve", "--algo", algo, "--objective", objective,
                             "--input", paths[name]])
    for policy in ("sum-cj", "sum-fj", "max-flow", "immediate"):
        for name in ("stream", "regular"):
            commands.append(["online", "--policy", policy, "--K", "3", "--input", paths[name],
                             "--trace", "-"])
    commands.append(["online", "--policy", "sum-cj", "--K", "2", "--input", paths["stream"],
                     "--lead-one", "--no-end-signal"])
    for kind in ("sum_cj_3_2", "weighted_golden", "sum_fj_3_2", "fmax_regular_4_3",
                 "fmax_general_golden"):
        w2 = ["--w2", "2"] if kind == "weighted_golden" else []
        commands.append(["adversary", "--kind", kind, "--K", "5", *w2])
    commands.append(["adversary", "--kind", "sum_cj_3_2", "--K", "5", "--policy", "immediate"])
    commands += [["bounds", "--input", paths[name]] for name in ("single", "stream")]
    for kind in ("sum_cj_3_2", "weighted_golden", "sum_fj_3_2", "fmax_general_golden"):
        w2 = ["--w2", "0.5"] if kind == "weighted_golden" else []
        commands.append(["bounds", "--curve", kind, "--K", "5", *w2])
    for policy, extra in (
        ("sum-cj", ["--n", "5", "--seeds", "0:3"]),
        ("sum-fj", ["--n", "5", "--seeds", "2:5"]),
        ("max-flow", ["--family", "regular", "--n", "6", "--seeds", "0:2"]),
    ):
        commands.append(["ratio", "--policy", policy, "--K", "3", *extra])
        commands.append(["ratio", "--policy", policy, "--K", "3", *extra, "--csv"])
    commands.append(["validate", "--input", paths["combined"]])
    return commands


# sha256 of the stdout of pinned_commands, gen outputs first, computed before
# the CLI converted library errors in one place and knew each solver's
# objectives.  Every successful output must keep every byte.  It was
# recomputed three times.  First, when the adversaries began refusing w2
# outside weighted_golden: the sum_cj_3_2 and sum_fj_3_2 commands lost --w2 2,
# so their payload job went from weight 2 to weight 1, and no other output
# moved.  Second, when dp_wjcj_unit and dp_fmax_s1 took the smallest-vector
# tie rule: 3 of the 59 outputs changed, each with the same totals (the two
# dp-wjcj-unit commands on the weighted instance and the fmax_regular_4_3
# adversary, whose offline side was dp_fmax_s1).  The three bounds curves
# that lost --w2 0.5 then, now refused there, kept every byte.  Third, when
# the fmax_regular_4_3 game's offline side became fmax_unit_distinct: only
# that adversary's output moved, its offline starts of jobs 1-5 one step
# later, with the same orders and totals.
GOLDEN_CLI_DIGEST = "070563b5cf256a079bb116a6702cd09a3c25e27d021f79567088db3097ca4cc4"


def test_cli_outputs_are_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    paths = {}
    for name, argv in PIN_INSTANCES.items():
        out, _ = run_cli(capsys, ["gen", *argv])
        digest.update(out.encode())
        paths[name] = write(tmp_path, f"{name}.json", out)
    solved, _ = run_cli(capsys, ["solve", "--algo", "oracle", "--objective", "total_flow",
                                 "--input", paths["three"]])
    combined = {"instance": json.loads(open(paths["three"]).read()),
                "solution": json.loads(solved)}
    paths["combined"] = write(tmp_path, "combined.json", json.dumps(combined))
    for argv in pinned_commands(paths):
        out, _ = run_cli(capsys, argv)
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_CLI_DIGEST
