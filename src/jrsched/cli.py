"""Command-line front-end.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 infeasible input or failed validation, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from typing import Callable

from . import adversaries, bounds
from .adversaries import KINDS, AdversarySpec, adversary_run, default_policy
from .generate import FAMILIES, TIGHT_NAMES, GeneratorSpec, gen_instance
from .model import (
    Instance,
    InstanceError,
    Objective,
    Solution,
    SolutionError,
    SolverError,
    _dump_json,
    _load_json,
    _refuse_unknown,
    check_feasible,
    emit_instance,
    emit_solution,
    instance_from_document,
    instance_to_document,
    parse_instance,
    replenishment_cost,
    scheduling_cost,
    solution_from_document,
    solution_to_document,
)
from .offline_dp import dp_equalp, dp_fmax_s1, dp_wjcj_unit, fmax_unit_distinct
from .online import (
    ImmediatePolicy,
    MaxFlowGridPolicy,
    OnlinePolicy,
    SumCompletionPolicy,
    SumFlowPolicy,
    blocks_to_document,
    delay_releases,
    run_online,
    trace_to_jsonl,
)
from .oracle import OracleLimits, exact_solve, exact_solve_fine_grid

# --algo name -> (solver called as f(instance, objective, limits or None), its objectives)
_SOLVERS: dict[str, tuple[
    Callable[[Instance, Objective, OracleLimits | None], Solution], tuple[Objective, ...]
]] = {
    "oracle": (exact_solve, tuple(Objective)),
    "oracle-fine": (exact_solve_fine_grid, tuple(Objective)),
    "dp-wjcj-unit": (
        lambda instance, _, __: dp_wjcj_unit(instance),
        (Objective.WEIGHTED_COMPLETION,),
    ),
    "dp-equalp": (
        lambda instance, objective, _: dp_equalp(instance, objective),
        (Objective.TOTAL_COMPLETION, Objective.MAX_FLOW),
    ),
    "dp-fmax-s1": (lambda instance, _, __: dp_fmax_s1(instance), (Objective.MAX_FLOW,)),
    "fmax-unit-distinct": (
        lambda instance, _, __: fmax_unit_distinct(instance),
        (Objective.MAX_FLOW,),
    ),
}

_POLICIES: dict[str, Callable[[int], OnlinePolicy]] = {
    "sum-cj": SumCompletionPolicy,
    "sum-fj": SumFlowPolicy,
    "max-flow": MaxFlowGridPolicy,
    "immediate": lambda order_cost: ImmediatePolicy(),
}


# gen option -> the GeneratorSpec field it sets
_GEN_FIELDS = {
    "--seed": "seed",
    "--n": "n",
    "--s": "num_resources",
    "--joint-cost": "joint_cost",
    "--item-cost-max": "item_cost_max",
    "--max-release": "max_release",
    "--max-processing": "max_processing",
    "--max-weight": "max_weight",
    "--tight-name": "tight_name",
}


class _CliError(Exception):
    """Data-level failure: reported on stderr, exit status 1."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None


def _write_document(document: object, path: str | None) -> None:
    _write_output(_dump_json(document, "document", _CliError), path)


def _write_output(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from None


def _make_policy(name: str, order_cost: int) -> OnlinePolicy:
    # checked here for every policy: the immediate one reads no order cost
    if order_cost < 1:
        raise _CliError("order cost must be >= 1")
    return _POLICIES[name](order_cost)


def _oracle_limits(args: argparse.Namespace) -> OracleLimits | None:
    """The caps for an oracle; None for the other solvers, which refuse them."""
    given = {name: value for name in ("max_jobs", "max_grid_subsets")
             if (value := getattr(args, name)) is not None}
    if args.algo not in ("oracle", "oracle-fine"):
        if given:
            raise _CliError(f"--algo {args.algo} reads no --max-jobs or --max-grid-subsets")
        return None
    try:
        return OracleLimits(**given)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _cmd_gen(args: argparse.Namespace) -> int:
    # what reads the options: the family, and for tight the instance name
    reader = f"--family {args.family}"
    if args.family == "random":
        reads = set(_GEN_FIELDS) - {"--tight-name"}
    elif args.family == "regular":
        reads = {"--n", "--joint-cost"}
    else:
        tight_name = args.tight_name or GeneratorSpec.tight_name
        reader += f" --tight-name {tight_name}"
        reads = {"--tight-name", "--joint-cost"}
        if tight_name == "three-jobs":
            reads.add("--item-cost-max")
    given = {field: value for field in _GEN_FIELDS.values()
             if (value := getattr(args, field)) is not None}
    for option, field in _GEN_FIELDS.items():
        if field in given and option not in reads:
            raise _CliError(f"{reader} reads no {option}")
    spec = GeneratorSpec(family=args.family, **given)
    _write_output(emit_instance(gen_instance(spec)), args.output)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_text(args.input))
    limits = _oracle_limits(args)
    solver, objectives = _SOLVERS[args.algo]
    if args.objective is None:
        if len(objectives) > 1:
            raise _CliError(f"--objective is required for --algo {args.algo}")
        (objective,) = objectives
    else:
        objective = Objective(args.objective)
        if objective not in objectives:
            solved = ", ".join(obj.value for obj in objectives)
            raise _CliError(f"--algo {args.algo} solves {solved}, not {objective.value}")
    _write_output(emit_solution(solver(instance, objective, limits)), args.output)
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_text(args.input))
    if args.lead_one:
        instance = delay_releases(instance, 1)
    policy = _make_policy(args.policy, args.order_cost)
    solution, trace = run_online(instance, policy, end_signal=not args.no_end_signal)
    document = {
        "policy": args.policy,
        "K": args.order_cost,
        "solution": solution_to_document(solution),
        "blocks": blocks_to_document(trace.blocks),
    }
    # both texts are made before either is written, so a refused one writes nothing
    text = _dump_json(document, "document", _CliError)
    if args.trace:
        _write_output(trace_to_jsonl(trace, solution), args.trace)
    _write_output(text, args.output)
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    try:
        spec = AdversarySpec(args.kind, args.order_cost, args.w2)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    policy = _make_policy(args.policy, args.order_cost) if args.policy else default_policy(spec)
    outcome = adversary_run(spec, policy)
    document = {
        "kind": args.kind,
        "K": args.order_cost,
        "policy": policy.name,
        "instance": instance_to_document(outcome.instance),
        "online": solution_to_document(outcome.online),
        "offline": solution_to_document(outcome.offline),
        "ratio": outcome.ratio,
    }
    _write_document(document, args.output)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.curve:
        order_cost = 1 if args.order_cost is None else args.order_cost
        point = adversaries.ratio_curve(args.curve, order_cost, args.w2)
        document = {
            "kind": args.curve,
            "K": point.order_cost,
            "t": point.t,
            "c1": point.c1,
            "c2": point.c2,
            "bound": point.bound,
            "limit": point.limit,
        }
    else:
        if not args.input:
            raise _CliError("bounds needs --input or --curve")
        if args.w2 is not None:
            raise _CliError(adversaries.W2_MISPLACED.format("--input"))
        if args.order_cost is not None:
            raise _CliError("--K applies only to --curve; an --input instance has its own costs")
        instance = parse_instance(_read_text(args.input))
        document = {
            "lb_ceiling": bounds.lb_ceiling(instance),
            "lb_sqrt": bounds.lb_sqrt(instance),
        }
    _write_document(document, args.output)
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    lo, _, hi = args.seeds.partition(":")
    try:
        seed_range = range(int(lo), int(hi))
    except ValueError:
        raise _CliError(f"bad --seeds range {args.seeds!r}, expected LO:HI") from None
    if not seed_range:
        raise _CliError(f"empty --seeds range {args.seeds!r}, expected LO below HI")
    if args.n < 1:
        raise _CliError(f"--n must be >= 1, got {args.n}")
    if args.policy == "max-flow" and args.family != "regular":
        raise _CliError("ratio sweeps for max-flow support the regular family only")
    base = GeneratorSpec(
        family=args.family,
        n=args.n,
        num_resources=1,
        joint_cost=args.order_cost,
        item_cost_max=0,
        max_release=args.max_release,
        max_processing=1,
        max_weight=1,
    )
    rows = []
    for seed in seed_range:
        try:
            instance = gen_instance(replace(base, seed=seed))
            policy = _make_policy(args.policy, args.order_cost)
            solution, _ = run_online(instance, policy)
            # the policy sets the objective; max flow is judged against a bound.
            # The sum instances have unit jobs, so the equal-length DP solves
            # them, and a total flow is the total completion less the releases.
            if solution.objective is Objective.MAX_FLOW:
                offline = bounds.lb_ceiling(instance)
            else:
                offline = dp_equalp(instance, Objective.TOTAL_COMPLETION).total
                if solution.objective is Objective.TOTAL_FLOW:
                    offline -= sum(job.release for job in instance.jobs)
        except (InstanceError, SolverError) as exc:
            raise _CliError(f"seed {seed}: {exc}") from None
        rows.append(
            {
                "seed": seed,
                "n": len(instance.jobs),
                "K": args.order_cost,
                "online": solution.total,
                "offline": offline,
                "ratio": solution.total / offline,
            }
        )
    # written as JSON first, so an int too long for either format is refused
    text = _dump_json(rows, "document", _CliError)
    if args.csv:
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer,
            fieldnames=["seed", "n", "K", "online", "offline", "ratio"],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(rows)
        _write_output(buffer.getvalue(), args.output)
    else:
        _write_output(text, args.output)
    return 0


_VALIDATE_FIELDS = frozenset({"instance", "solution"})


def _cmd_validate(args: argparse.Namespace) -> int:
    document = _load_json(_read_text(args.input), "document", _CliError)
    if not isinstance(document, dict) or "instance" not in document or "solution" not in document:
        raise _CliError('validate expects {"instance": ..., "solution": ...}')
    instance = instance_from_document(document["instance"])
    solution = solution_from_document(document["solution"])
    _refuse_unknown(document, _VALIDATE_FIELDS, "document", _CliError)
    report = check_feasible(instance, solution)
    problems = [
        {"kind": v.kind, "jobs": list(v.jobs), "detail": v.detail} for v in report.violations
    ]
    costs = []
    if not any(v.kind == "unscheduled" for v in report.violations):
        recomputed = scheduling_cost(instance, solution.schedule, solution.objective)
        costs.append(("scheduling", solution.scheduling_cost, recomputed))
    recomputed = replenishment_cost(instance, solution.replenishments)
    costs.append(("replenishment", solution.replenishment_cost, recomputed))
    for name, declared, recomputed in costs:
        if recomputed == declared:
            continue
        try:
            detail = f"declared {name} cost {declared}, recomputed {recomputed}"
        except ValueError:
            # a parsed int is writable, so the recomputed one is too long
            raise _CliError(
                f"recomputed {name} cost has more than {sys.get_int_max_str_digits()} digits"
                " and cannot be written"
            ) from None
        problems.append({"kind": "cost-mismatch", "jobs": [], "detail": detail})
    _write_document({"feasible": not problems, "violations": problems}, args.output)
    return 0 if not problems else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrsched",
        description="Solvers for single-machine scheduling with jointly replenished resources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("gen", help="generate an instance document")
    p.add_argument("--family", choices=FAMILIES, default="random")
    # no defaults here: an option left out keeps the GeneratorSpec default
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", dest="num_resources", metavar="S", type=int)
    p.add_argument("--joint-cost", type=int)
    p.add_argument("--item-cost-max", type=int)
    p.add_argument("--max-release", type=int)
    p.add_argument("--max-processing", type=int)
    p.add_argument("--max-weight", type=int)
    p.add_argument("--tight-name", choices=TIGHT_NAMES)
    add_output(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve an instance offline")
    p.add_argument("--algo", required=True, choices=list(_SOLVERS))
    p.add_argument("--objective", choices=sorted(obj.value for obj in Objective), default=None)
    p.add_argument("--input", required=True, help="instance document path, - for stdin")
    p.add_argument("--max-jobs", type=int, help=f"oracle cap (default {OracleLimits.max_jobs})")
    p.add_argument("--max-grid-subsets", type=int,
                   help=f"oracle cap (default {OracleLimits.max_grid_subsets})")
    add_output(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("online", help="simulate an online policy")
    p.add_argument("--policy", required=True, choices=sorted(_POLICIES))
    p.add_argument("--K", dest="order_cost", type=int, required=True, help="order cost")
    p.add_argument("--input", required=True)
    p.add_argument("--lead-one", action="store_true", help="shift releases by one (ordering lead time)")
    p.add_argument("--no-end-signal", action="store_true", help="hide the end-of-stream signal")
    p.add_argument("--trace", default=None, help="write the decision trace here (JSON lines)")
    add_output(p)
    p.set_defaults(func=_cmd_online)

    p = sub.add_parser("adversary", help="play a lower-bound adversary against a policy")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--K", dest="order_cost", type=int, required=True)
    p.add_argument("--w2", type=int, default=None)
    p.add_argument("--policy", choices=sorted(_POLICIES), default=None)
    add_output(p)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("bounds", help="instance lower bounds or ratio curves")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", default=None)
    source.add_argument("--curve", choices=adversaries.CURVE_KINDS, default=None)
    p.add_argument("--K", dest="order_cost", type=int, help="order cost of --curve (default 1)")
    p.add_argument("--w2", type=float, default=None)
    add_output(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("ratio", help="online/offline ratio sweep over seeded instances")
    p.add_argument("--policy", required=True, choices=["sum-cj", "sum-fj", "max-flow"])
    p.add_argument("--K", dest="order_cost", type=int, required=True)
    p.add_argument("--family", choices=FAMILIES, default="random")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seeds", default="0:20", help="seed range LO:HI")
    p.add_argument("--max-release", type=int, default=8)
    p.add_argument("--csv", action="store_true")
    add_output(p)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("validate", help="check a solution document against its instance")
    p.add_argument("--input", required=True, help='combined {"instance":..., "solution":...} document')
    add_output(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the library's input errors end here; a plain ValueError or a
    # SimulationError is a program fault and keeps its traceback
    try:
        return args.func(args)
    except (_CliError, InstanceError, SolutionError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
