"""Solvers for single-machine scheduling with jointly replenished resources.

Offline: an exact enumeration oracle plus four polynomial dynamic programs.
Online: a discrete-event simulator that enforces irrevocable decisions, three
shipped policies, adaptive adversaries, and lower-bound evaluators.

The names below are loaded on first use, so importing one submodule (say
``jrsched.bounds``) loads only what that submodule imports.
"""

from importlib import import_module

_EXPORTS = {
    "adversaries": ("AdversaryOutcome", "AdversarySpec", "KINDS", "RatioCurvePoint",
                    "adversary_run", "ratio_curve"),
    "bounds": ("lb_ceiling", "lb_sqrt"),
    "generate": ("GeneratorSpec", "gen_instance"),
    "model": (
        "FeasibilityReport",
        "Instance",
        "InstanceError",
        "Job",
        "Objective",
        "ReplenishmentStructure",
        "Schedule",
        "Solution",
        "SolutionError",
        "SolverError",
        "Violation",
        "check_feasible",
        "emit_instance",
        "emit_solution",
        "evaluate_solution",
        "normalize_replenishments",
        "parse_instance",
        "parse_solution",
        "ready_at",
        "replenishment_cost",
        "scheduling_cost",
    ),
    "offline_dp": ("dp_equalp", "dp_fmax_s1", "dp_wjcj_unit", "fmax_unit_distinct"),
    "online": (
        "Decision",
        "ImmediatePolicy",
        "MaxFlowGridPolicy",
        "Observation",
        "OnlinePolicy",
        "PendingView",
        "SimulationError",
        "SumCompletionPolicy",
        "SumFlowPolicy",
        "Trace",
        "delay_releases",
        "run_online",
        "triangular",
    ),
    "oracle": ("OracleLimitError", "OracleLimits", "exact_solve", "exact_solve_fine_grid"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
