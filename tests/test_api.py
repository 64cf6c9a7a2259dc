"""The package's public names."""
import robust_assortment
from robust_assortment import (
    ChoiceDistribution,
    DualEvaluation,
    OfflineDataset,
    PlanResult,
    RankBreakingEstimate,
)
from robust_assortment import learning, model, robust

#: Functions the package no longer has: only tests called them.
REMOVED = {
    model: ("choice_probabilities", "expected_revenue", "sample_choice"),
    robust: ("dual_objective",),
    learning: ("pessimistic_value",),
}


def test_every_exported_name_resolves():
    assert len(set(robust_assortment.__all__)) == len(robust_assortment.__all__)
    for name in robust_assortment.__all__:
        assert hasattr(robust_assortment, name), name
    namespace = {}
    exec("from robust_assortment import *", namespace)
    assert set(robust_assortment.__all__) <= set(namespace)


def test_no_removed_name_is_exported():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in robust_assortment.__all__
            assert not hasattr(robust_assortment, name)
            assert not hasattr(module, name)
    assert not hasattr(OfflineDataset, "to_csv")
    assert not hasattr(DualEvaluation, "to_dict")
    assert not hasattr(ChoiceDistribution, "to_dict")
    assert "v_cap" not in RankBreakingEstimate.__dataclass_fields__


def test_certified_level_is_the_value():
    result = PlanResult(assortment=(1,), value=0.25)
    assert result.certified_level == 0.25
    assert "certified_level" not in PlanResult.__dataclass_fields__
    assert result.to_dict()["certified_level"] == 0.25
