import pytest

from jrsched import InstanceError, emit_instance
from jrsched.generate import GeneratorSpec, gen_instance


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("family", "grid", "unknown family 'grid'"),
        ("n", -1, "n must be >= 0, got -1"),
        ("num_resources", 0, "num_resources must be >= 1, got 0"),
        ("joint_cost", -2, "joint_cost must be >= 0, got -2"),
        ("item_cost_max", -1, "item_cost_max must be >= 0, got -1"),
        ("max_release", -3, "max_release must be >= 0, got -3"),
        ("max_processing", 0, "max_processing must be >= 1, got 0"),
        ("max_weight", 0, "max_weight must be >= 1, got 0"),
    ],
)
def test_each_rejection_names_one_field(field, value, message):
    with pytest.raises(InstanceError) as info:
        GeneratorSpec(**{field: value})
    assert str(info.value) == message


def test_unknown_tight_name():
    with pytest.raises(InstanceError) as info:
        GeneratorSpec(family="tight", tight_name="four-jobs")
    assert str(info.value) == "unknown tight_name 'four-jobs'"


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec(n=0, max_processing=0, max_weight=0),
        GeneratorSpec(family="regular", max_processing=0),
        GeneratorSpec(family="tight", max_weight=0),
    ],
)
def test_ranges_unread_by_the_family_are_not_checked(spec):
    gen_instance(spec)


def test_tight_three_jobs_is_the_walkthrough():
    instance = gen_instance(
        GeneratorSpec(family="tight", tight_name="three-jobs", joint_cost=2, item_cost_max=3)
    )
    assert (instance.num_resources, instance.joint_cost, instance.item_costs) == (1, 2, (3,))
    assert [(job.id, job.release, job.processing, job.weight, sorted(job.resources))
            for job in instance.jobs] == [(1, 0, 4, 1, [1]), (2, 3, 1, 1, [1]), (3, 7, 1, 1, [1])]
    assert emit_instance(instance) == emit_instance(
        gen_instance(GeneratorSpec(family="tight", tight_name="three-jobs", joint_cost=2,
                                   item_cost_max=3, seed=99))
    )
