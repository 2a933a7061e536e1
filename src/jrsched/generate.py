"""Deterministic instance generators for experiments and tests."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import Instance, InstanceError, Job

FAMILIES = ("random", "regular", "tight")
TIGHT_NAMES = ("single-job", "three-jobs")


@dataclass(frozen=True)
class GeneratorSpec:
    """Fully determines one instance; equal specs yield identical documents."""

    family: str = "random"
    seed: int = 0
    n: int = 5
    num_resources: int = 1
    joint_cost: int = 1
    item_cost_max: int = 2
    max_release: int = 10
    max_processing: int = 3
    max_weight: int = 1
    tight_name: str = "single-job"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InstanceError(f"unknown family {self.family!r}")
        if self.family == "tight" and self.tight_name not in TIGHT_NAMES:
            raise InstanceError(f"unknown tight_name {self.tight_name!r}")
        minimums = dict(n=0, num_resources=1, joint_cost=0, item_cost_max=0, max_release=0)
        if self.family == "random" and self.n:
            minimums.update(max_processing=1, max_weight=1)
        for name, minimum in minimums.items():
            value = getattr(self, name)
            if value < minimum:
                raise InstanceError(f"{name} must be >= {minimum}, got {value}")


def _random_instance(spec: GeneratorSpec) -> Instance:
    rng = random.Random(spec.seed)
    s = spec.num_resources
    jobs = []
    for job_id in range(1, spec.n + 1):
        size = rng.randint(1, s)
        resources = frozenset(rng.sample(range(1, s + 1), size))
        jobs.append(
            Job(
                id=job_id,
                release=rng.randint(0, spec.max_release),
                processing=rng.randint(1, spec.max_processing),
                resources=resources,
                weight=rng.randint(1, spec.max_weight),
            )
        )
    item_costs = tuple(rng.randint(0, spec.item_cost_max) for _ in range(s))
    return Instance(s, spec.joint_cost, item_costs, tuple(jobs))


def _regular_instance(spec: GeneratorSpec) -> Instance:
    """One unit job per time step starting at 1; only the count varies."""
    resource = frozenset({1})
    jobs = tuple(Job(j, j, 1, resource) for j in range(1, spec.n + 1))
    return Instance(1, spec.joint_cost, (0,), jobs)


def _tight_instance(spec: GeneratorSpec) -> Instance:
    resource = frozenset({1})
    if spec.tight_name == "single-job":
        return Instance(1, spec.joint_cost, (0,), (Job(1, 0, 1, resource),))
    # three-jobs: the long-job walkthrough instance
    return Instance(
        1,
        spec.joint_cost,
        (spec.item_cost_max,),
        (Job(1, 0, 4, resource), Job(2, 3, 1, resource), Job(3, 7, 1, resource)),
    )


def gen_instance(spec: GeneratorSpec) -> Instance:
    if spec.family == "random":
        return _random_instance(spec)
    if spec.family == "regular":
        return _regular_instance(spec)
    return _tight_instance(spec)
