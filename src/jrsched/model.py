"""Problem model for single-machine scheduling with jointly replenished resources.

A job has a release date, a processing time, a weight, and a non-empty set of
required resource types.  It may start at time t only if every required
resource was ordered at some moment between its release date and t.  Each
order (replenishment) of a resource subset costs the joint cost plus one item
cost per resource in the subset, independent of quantity.  A solution pairs a
schedule with a replenishment structure; its cost is the scheduling criterion
plus the total ordering cost.

All quantities are integers and all cost arithmetic is exact.  Every value in
this module is immutable after construction and every operation is a pure
function, so concurrent use on shared inputs is safe.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence


class InstanceError(ValueError):
    """Malformed or inconsistent problem instance."""


class SolutionError(ValueError):
    """Malformed or internally inconsistent solution."""


class SolverError(RuntimeError):
    """A solver was applied outside its supported problem class."""


class Objective(Enum):
    """Scheduling criterion added to the replenishment cost."""

    WEIGHTED_COMPLETION = "total_weighted_completion"
    TOTAL_COMPLETION = "total_completion"
    TOTAL_FLOW = "total_flow"
    WEIGHTED_FLOW = "total_weighted_flow"
    MAX_FLOW = "max_flow"

    @classmethod
    def from_name(cls, name: str) -> "Objective":
        for obj in cls:
            if obj.value == name:
                return obj
        raise SolutionError(f"unknown objective {name!r}")


# Each criterion as (per-job value f(weight, release, completion), how the
# values combine).  Folding from 0 gives 0 for no jobs and floors the max flow
# at 0, which only shows when every job completes by its release.
CRITERIA: dict[Objective, tuple[Callable[[int, int, int], int], Callable[[int, int], int]]] = {
    Objective.WEIGHTED_COMPLETION: (lambda w, r, c: w * c, operator.add),
    Objective.TOTAL_COMPLETION: (lambda w, r, c: c, operator.add),
    Objective.TOTAL_FLOW: (lambda w, r, c: c - r, operator.add),
    Objective.WEIGHTED_FLOW: (lambda w, r, c: w * (c - r), operator.add),
    Objective.MAX_FLOW: (lambda w, r, c: c - r, max),
}


@dataclass(frozen=True, slots=True)
class Job:
    """One job: identifier, release date, processing time, weight, resources."""

    id: int
    release: int
    processing: int
    resources: frozenset[int]
    weight: int = 1

    def validate(self, num_resources: int) -> None:
        if self.release < 0:
            raise InstanceError(f"job {self.id}: negative release {self.release}")
        if self.processing < 1:
            raise InstanceError(f"job {self.id}: processing must be >= 1, got {self.processing}")
        if self.weight < 1:
            raise InstanceError(f"job {self.id}: weight must be >= 1, got {self.weight}")
        if not self.resources:
            raise InstanceError(f"job {self.id}: empty resource set")
        for r in self.resources:
            if not 1 <= r <= num_resources:
                raise InstanceError(
                    f"job {self.id}: resource index {r} out of range 1..{num_resources}"
                )


def _jobs_pass(jobs: tuple[Job, ...], num_resources: int) -> bool:
    """True when no job fails :meth:`Job.validate` or repeats an id, decided
    in one pass with the resource range as a subset test.  False means some
    job may fail; only a check per job can then name the first one."""
    allowed = frozenset(range(1, num_resources + 1))
    for job in jobs:
        if (
            job.release < 0
            or job.processing < 1
            or job.weight < 1
            or not job.resources
            or not job.resources <= allowed
        ):
            return False
    return len({job.id for job in jobs}) == len(jobs)


@dataclass(frozen=True)
class Instance:
    """A problem instance: resource costs plus the job list.

    ``item_costs[i-1]`` is the per-order cost of resource i; ``joint_cost``
    is paid once per order regardless of the subset ordered.
    """

    num_resources: int
    joint_cost: int
    item_costs: tuple[int, ...]
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "item_costs", tuple(self.item_costs))
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if self.num_resources < 1:
            raise InstanceError(f"num_resources must be >= 1, got {self.num_resources}")
        if self.joint_cost < 0:
            raise InstanceError(f"joint_cost must be >= 0, got {self.joint_cost}")
        if len(self.item_costs) != self.num_resources:
            raise InstanceError(
                f"item_costs has length {len(self.item_costs)}, expected {self.num_resources}"
            )
        for i, cost in enumerate(self.item_costs, start=1):
            if cost < 0:
                raise InstanceError(f"item cost for resource {i} is negative")
        if _jobs_pass(self.jobs, self.num_resources):
            return
        # some job is bad: name the first one, as a check per job does
        seen: set[int] = set()
        for job in self.jobs:
            if job.id in seen:
                raise InstanceError(f"job {job.id}: duplicate id")
            seen.add(job.id)
            job.validate(self.num_resources)

    def job(self, job_id: int) -> Job:
        """The job with this id, found by a linear scan; nothing is cached.

        A caller that looks up many jobs should build its own id map once.
        """
        for job in self.jobs:
            if job.id == job_id:
                return job
        raise InstanceError(f"unknown job id {job_id}")

    @cached_property
    def release_grid(self) -> tuple[int, ...]:
        """Sorted distinct release dates."""
        return tuple(sorted({job.release for job in self.jobs}))

    @cached_property
    def total_processing(self) -> int:
        return sum(job.processing for job in self.jobs)

    @cached_property
    def horizon(self) -> int:
        """Last grid point extended by the total processing time."""
        if not self.jobs:
            return 0
        return self.release_grid[-1] + self.total_processing

    def order_cost(self, resources: Iterable[int]) -> int:
        """Cost of one order of the given resource subset."""
        cost = self.joint_cost
        for r in resources:
            if not 1 <= r <= self.num_resources:
                raise InstanceError(f"resource index {r} out of range 1..{self.num_resources}")
            cost += self.item_costs[r - 1]
        return cost

    @property
    def single_resource_order_cost(self) -> int:
        """Joint plus item cost when there is exactly one resource type."""
        if self.num_resources != 1:
            raise SolverError("single-resource solvers and bounds need a single resource type")
        return self.joint_cost + self.item_costs[0]


@dataclass(frozen=True)
class ReplenishmentStructure:
    """Time-ordered replenishment events, each a (time, resource subset) pair."""

    events: tuple[tuple[int, frozenset[int]], ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple((t, frozenset(rs)) for t, rs in self.events)
        object.__setattr__(self, "events", normalized)
        prev = None
        for t, rs in normalized:
            if t < 0:
                raise SolutionError(f"replenishment at negative time {t}")
            if not rs:
                raise SolutionError(f"replenishment at {t} orders an empty resource set")
            if prev is not None and t <= prev:
                raise SolutionError("replenishment times must be strictly increasing")
            prev = t

    def times(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.events)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class Schedule:
    """Start time per job id.  Overlap checks live in :func:`check_feasible`.

    ``starts`` is a read-only copy of the mapping passed in.
    """

    starts: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", MappingProxyType(dict(self.starts)))


@dataclass(frozen=True)
class Solution:
    """Schedule plus replenishment structure with an exact cost breakdown."""

    schedule: Schedule
    replenishments: ReplenishmentStructure
    objective: Objective
    scheduling_cost: int
    replenishment_cost: int
    total: int

    def __post_init__(self) -> None:
        if self.total != self.scheduling_cost + self.replenishment_cost:
            raise SolutionError(
                f"total {self.total} != scheduling {self.scheduling_cost}"
                f" + replenishment {self.replenishment_cost}"
            )


def empty_solution(objective: Objective) -> Solution:
    """The solution of an instance without jobs: nothing scheduled or ordered."""
    return Solution(Schedule({}), ReplenishmentStructure(()), objective, 0, 0, 0)


_event_time = operator.itemgetter(0)


def job_ready(job: Job, events: Sequence[tuple[int, frozenset[int]]], t: int) -> bool:
    """True iff every resource the job needs was ordered in [release, t].

    ``events`` is in strictly increasing time order, as in a
    :class:`ReplenishmentStructure`; only the orders in the window are read.
    """
    if t < job.release:
        return False
    missing = set(job.resources)
    for index in range(bisect_left(events, job.release, key=_event_time), len(events)):
        event_time, resources = events[index]
        if event_time > t:
            break
        missing -= resources
        if not missing:
            return True
    return not missing


def ready_at(
    instance: Instance, structure: ReplenishmentStructure, job_id: int, t: int
) -> bool:
    """True iff every resource the job needs was ordered in [release, t].

    The job is found by `Instance.job`, a linear scan; a caller checking many
    jobs should pass each `Job` to `job_ready` through its own id map.
    """
    return job_ready(instance.job(job_id), structure.events, t)


def replenishment_cost(instance: Instance, structure: ReplenishmentStructure) -> int:
    """Total ordering cost of the structure; empty structure costs 0."""
    return sum(instance.order_cost(rs) for _, rs in structure.events)


def scheduling_cost(instance: Instance, schedule: Schedule, objective: Objective) -> int:
    """Exact value of the selected criterion; every job must be scheduled."""
    job_value, combine = CRITERIA[objective]
    starts = schedule.starts
    try:
        values = [
            job_value(job.weight, job.release, starts[job.id] + job.processing)
            for job in instance.jobs
        ]
    except KeyError as missing:
        raise SolutionError(f"job {missing.args[0]} has no start time") from None
    return reduce(combine, values, 0)


def evaluate_solution(
    instance: Instance,
    schedule: Schedule,
    replenishments: ReplenishmentStructure,
    objective: Objective,
) -> Solution:
    """Assemble a Solution with its cost breakdown recomputed from scratch."""
    sched = scheduling_cost(instance, schedule, objective)
    repl = replenishment_cost(instance, replenishments)
    return Solution(schedule, replenishments, objective, sched, repl, sched + repl)


@dataclass(frozen=True)
class Violation:
    kind: str
    jobs: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_feasible(instance: Instance, solution: Solution) -> FeasibilityReport:
    """List every feasibility violation; an empty list means feasible.

    Checks that each job is scheduled at a non-negative start, that job
    intervals are pairwise disjoint, and that each job is ready at its start
    under the replenishment structure.
    """
    violations: list[Violation] = []
    starts = solution.schedule.starts
    ids = {job.id for job in instance.jobs}
    for job_id in starts:
        if job_id not in ids:
            violations.append(
                Violation("unknown-job", (job_id,), f"job {job_id} is not in the instance")
            )
    intervals: list[tuple[int, int, int]] = []
    for job in instance.jobs:
        if job.id not in starts:
            violations.append(
                Violation("unscheduled", (job.id,), f"job {job.id} has no start time")
            )
            continue
        start = starts[job.id]
        if start < 0:
            violations.append(
                Violation("negative-start", (job.id,), f"job {job.id} starts at {start}")
            )
        intervals.append((start, start + job.processing, job.id))
        if not job_ready(job, solution.replenishments.events, start):
            violations.append(
                Violation(
                    "not-ready",
                    (job.id,),
                    f"job {job.id} starts at {start} before all required resources"
                    f" are ordered in [{job.release}, {start}]",
                )
            )
    intervals.sort()
    for (s1, e1, j1), (s2, e2, j2) in zip(intervals, intervals[1:]):
        if s2 < e1:
            violations.append(
                Violation(
                    "overlap",
                    (j1, j2),
                    f"jobs {j1} and {j2} overlap in [{s2}, {min(e1, e2)})",
                )
            )
    return FeasibilityReport(tuple(violations))


def release_anchor(grid: tuple[int, ...], t: int) -> int | None:
    """The latest date of the sorted ``grid`` at or before ``t``, or None.

    No job is released strictly between the anchor and ``t``, so an order at
    ``t`` covers the same jobs as an order at its anchor.
    """
    pos = bisect_right(grid, t)
    return grid[pos - 1] if pos else None


def normalize_replenishments(instance: Instance, solution: Solution) -> Solution:
    """Pull every order back to the latest release date at or before it.

    Orders with no release date at or before them serve no job and are
    dropped; orders landing on the same date are merged.  The input solution
    must be feasible; the result is feasible for the same schedule and never
    costs more.
    """
    report = check_feasible(instance, solution)
    if not report.ok:
        raise SolutionError(
            "cannot normalize an infeasible solution: " + report.violations[0].detail
        )
    grid = instance.release_grid
    merged: dict[int, set[int]] = {}
    for event_time, resources in solution.replenishments.events:
        anchor = release_anchor(grid, event_time)
        if anchor is None:
            continue
        merged.setdefault(anchor, set()).update(resources)
    events = tuple((t, frozenset(rs)) for t, rs in sorted(merged.items()))
    return evaluate_solution(
        instance, solution.schedule, ReplenishmentStructure(events), solution.objective
    )


# ---------------------------------------------------------------------------
# Document formats (JSON)

def instance_to_document(instance: Instance) -> dict[str, Any]:
    jobs = []
    for job in instance.jobs:
        entry: dict[str, Any] = {
            "id": job.id,
            "release": job.release,
            "processing": job.processing,
            "resources": sorted(job.resources),
        }
        if job.weight != 1:
            entry["weight"] = job.weight
        jobs.append(entry)
    return {
        "s": instance.num_resources,
        "joint_cost": instance.joint_cost,
        "item_costs": list(instance.item_costs),
        "jobs": jobs,
    }


def emit_instance(instance: Instance) -> str:
    return _dump_json(instance_to_document(instance), "instance", InstanceError)


def _require(
    document: Mapping[str, Any], key: str, context: str, error: type[ValueError] = InstanceError
) -> Any:
    if key not in document:
        raise error(f"{context}: missing field {key!r}")
    return document[key]


def _is_int(value: Any) -> bool:
    # bool is an int subclass; floats and numeric strings are refused, not truncated
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int(value: Any, key: str, context: str, error: type[ValueError] = InstanceError) -> int:
    if not _is_int(value):
        raise error(f"{context}: field {key!r} must be an integer, got {value!r}")
    return value


def _int_field(
    document: Mapping[str, Any], key: str, context: str, error: type[ValueError] = InstanceError
) -> int:
    return _as_int(_require(document, key, context, error), key, context, error)


def _list_field(
    document: Mapping[str, Any],
    key: str,
    context: str,
    error: type[ValueError] = InstanceError,
    objects: bool = False,
) -> list:
    """The list under ``key``, of integers or, with ``objects``, of JSON objects."""
    values = _require(document, key, context, error)
    kind = "objects" if objects else "integers"
    if not isinstance(values, list):
        raise error(f"{context}: field {key!r} must be a list of {kind}, got {values!r}")
    for value in values:
        if not (isinstance(value, Mapping) if objects else _is_int(value)):
            raise error(f"{context}: field {key!r} must be a list of {kind}, got entry {value!r}")
    return values


def _refuse_unknown(
    document: Mapping[str, Any],
    fields: frozenset[str],
    context: str,
    error: type[ValueError] = InstanceError,
) -> None:
    for key in document:
        if key not in fields:
            raise error(f"{context}: unknown field {key!r}")


_INSTANCE_FIELDS = frozenset({"s", "joint_cost", "item_costs", "jobs"})
_JOB_FIELDS = frozenset({"id", "release", "processing", "resources", "weight"})
_SOLUTION_FIELDS = frozenset(
    {"objective", "starts", "replenishments", "scheduling_cost", "replenishment_cost", "total"}
)
_REPLENISHMENT_FIELDS = frozenset({"time", "resources"})


def instance_from_document(document: Mapping[str, Any]) -> Instance:
    """The instance a document describes.  A key outside an object's fields
    is refused, after every check on the fields it has."""
    if not isinstance(document, Mapping):
        raise InstanceError("instance document must be a JSON object")
    s = _int_field(document, "s", "instance")
    joint = _int_field(document, "joint_cost", "instance")
    item_costs = _list_field(document, "item_costs", "instance")
    jobs = []
    raw_jobs = _list_field(document, "jobs", "instance", objects=True)
    for raw in raw_jobs:
        job_id = _int_field(raw, "id", "job")
        context = f"job {job_id}"
        jobs.append(
            Job(
                id=job_id,
                release=_int_field(raw, "release", context),
                processing=_int_field(raw, "processing", context),
                resources=frozenset(_list_field(raw, "resources", context)),
                weight=_as_int(raw.get("weight", 1), "weight", context),
            )
        )
    instance = Instance(
        num_resources=s, joint_cost=joint, item_costs=tuple(item_costs), jobs=tuple(jobs)
    )
    _refuse_unknown(document, _INSTANCE_FIELDS, "instance")
    for raw, job in zip(raw_jobs, jobs):
        _refuse_unknown(raw, _JOB_FIELDS, f"job {job.id}")
    return instance


def _load_json(text: str, what: str, error: type[Exception]) -> Any:
    """``text`` parsed as JSON.  Malformed JSON, nesting past the recursion
    limit, an int literal past the digit limit, and an object that repeats a
    key (plain parsing keeps only the last value), raise ``error``."""

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        document = {}
        for key, value in pairs:
            if key in document:
                raise error(f"{what} repeats the key {key!r} in one object")
            document[key] = value
        return document

    try:
        return json.loads(text, object_pairs_hook=unique)
    except error:
        raise
    except (RecursionError, ValueError) as exc:  # ValueError holds JSONDecodeError
        raise error(f"malformed {what}: {exc}") from None


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document; errors name the job and field."""
    return instance_from_document(_load_json(text, "instance document", InstanceError))


def solution_to_document(solution: Solution) -> dict[str, Any]:
    return {
        "objective": solution.objective.value,
        "starts": {str(job_id): start for job_id, start in sorted(solution.schedule.starts.items())},
        "replenishments": [
            {"time": t, "resources": sorted(rs)} for t, rs in solution.replenishments.events
        ],
        "scheduling_cost": solution.scheduling_cost,
        "replenishment_cost": solution.replenishment_cost,
        "total": solution.total,
    }


def emit_solution(solution: Solution) -> str:
    return _dump_json(solution_to_document(solution), "solution", SolutionError)


def _dump_json(document: Any, what: str, error: type[Exception], indent: int | None = 2) -> str:
    """``document`` as JSON text with sorted keys, the one writer of every
    document.  An int with more digits than Python writes out
    (``sys.get_int_max_str_digits``), or a float that is not finite, which
    JSON has no text for, raises ``error`` naming its field."""
    try:
        return json.dumps(document, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:
        found = _unwritable_field(document, "")
        if found is None:
            raise
        field, why = found
        raise error(f"{what}: field {field!r} {why} and cannot be written") from None


def _unwritable_field(value: Any, path: str) -> tuple[str, str] | None:
    """The path of the first number under ``value``, in the order
    ``json.dumps`` with sorted keys writes it, that cannot be written, and
    why: an int with too many digits or a float that is not finite."""
    if isinstance(value, Mapping):
        items = sorted(value.items())
    elif isinstance(value, list):
        items = enumerate(value)
    elif isinstance(value, float) and not math.isfinite(value):
        return path, f"is {value}, not a finite number,"
    else:
        try:
            str(value)
        except ValueError:
            return path, f"has more than {sys.get_int_max_str_digits()} digits"
        return None
    for key, item in items:
        label = key if isinstance(key, str) and not path else f"{path}[{key}]"
        field = _unwritable_field(item, label)
        if field is not None:
            return field
    return None


def solution_from_document(document: Mapping[str, Any]) -> Solution:
    """The solution a document describes.  A key outside an object's fields
    is refused, after every check on the fields it has."""
    if not isinstance(document, Mapping):
        raise SolutionError("solution document must be a JSON object")
    context = "solution"
    objective = Objective.from_name(str(_require(document, "objective", context, SolutionError)))
    raw_starts = _require(document, "starts", context, SolutionError)
    if not isinstance(raw_starts, Mapping):
        raise SolutionError(
            f"{context}: field 'starts' must be an object of job id to start, got {raw_starts!r}"
        )
    starts = {}
    for job_id, start in raw_starts.items():
        key = job_id
        if isinstance(job_id, str):  # JSON object keys are strings
            try:
                key = int(job_id)
            except ValueError:
                pass
            if str(key) != job_id:  # "01", " 1" and "1_0" are not job ids
                key = job_id
        if not _is_int(key):
            raise SolutionError(
                f"{context}: field 'starts' has job id {job_id!r}, not an integer in canonical form"
            )
        if key in starts:
            raise SolutionError(f"{context}: field 'starts' names job {key} twice")
        starts[key] = _as_int(start, f"starts[{job_id}]", context, SolutionError)
    events = []
    entries = _list_field(document, "replenishments", context, SolutionError, objects=True)
    for entry in entries:
        time = _int_field(entry, "time", "replenishment", SolutionError)
        resources = _list_field(entry, "resources", f"replenishment at {time}", SolutionError)
        events.append((time, frozenset(resources)))
    solution = Solution(
        Schedule(starts),
        ReplenishmentStructure(tuple(events)),
        objective,
        _int_field(document, "scheduling_cost", context, SolutionError),
        _int_field(document, "replenishment_cost", context, SolutionError),
        _int_field(document, "total", context, SolutionError),
    )
    _refuse_unknown(document, _SOLUTION_FIELDS, context, SolutionError)
    for entry, (time, _) in zip(entries, events):
        _refuse_unknown(entry, _REPLENISHMENT_FIELDS, f"replenishment at {time}", SolutionError)
    return solution


def parse_solution(text: str) -> Solution:
    return solution_from_document(_load_json(text, "solution document", SolutionError))
