"""Distributionally robust assortment planning and offline learning for MNL models."""

from .base import (
    ConfigError,
    DataValidationError,
    InvalidAssortmentError,
    ModelFormatError,
    NumericRangeError,
    RadiusInfeasibleError,
    RobustAssortmentError,
)
from .estimation import (
    OfflineDataset,
    RankBreakingCounts,
    RankBreakingEstimate,
    load_dataset,
    point_and_lcb,
    rank_breaking,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    default_config,
    run_exp_cardinality,
    run_exp_robustness,
    run_exp_sample_efficiency,
    run_experiment,
)
from .learning import (
    LearnConfig,
    learn_robust_assortment,
    suboptimality,
)
from .model import (
    ChoiceDistribution,
    MnlModel,
    as_assortment,
    load_model,
    nominal_expected_revenue,
    save_model,
)
from .planning import (
    PlanResult,
    evaluate_level_slack,
    intersection_points,
    plan,
    plan_bruteforce,
    plan_general,
    plan_unconstrained,
    plan_uniform_revenue,
)
from .radius import ConstantRadius, RadiusSpec, VaryingRadius, radius
from .robust import (
    DualEvaluation,
    kl_divergence,
    primal_robust_revenue_oracle,
    robust_revenue,
)
from .simulate import (
    generate_dataset,
    instance_cardinality,
    instance_sample_efficiency,
    lcb_validity_rate,
    perturb_prior,
    random_schedule,
    shift_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiceDistribution",
    "ConfigError",
    "ConstantRadius",
    "DataValidationError",
    "DualEvaluation",
    "ExperimentConfig",
    "InvalidAssortmentError",
    "LearnConfig",
    "MnlModel",
    "ModelFormatError",
    "NumericRangeError",
    "OfflineDataset",
    "PlanResult",
    "RadiusInfeasibleError",
    "RadiusSpec",
    "RankBreakingCounts",
    "RankBreakingEstimate",
    "ResultTable",
    "RobustAssortmentError",
    "VaryingRadius",
    "as_assortment",
    "default_config",
    "evaluate_level_slack",
    "generate_dataset",
    "instance_cardinality",
    "instance_sample_efficiency",
    "intersection_points",
    "kl_divergence",
    "lcb_validity_rate",
    "learn_robust_assortment",
    "load_dataset",
    "load_model",
    "nominal_expected_revenue",
    "perturb_prior",
    "plan",
    "plan_bruteforce",
    "plan_general",
    "plan_unconstrained",
    "plan_uniform_revenue",
    "point_and_lcb",
    "primal_robust_revenue_oracle",
    "radius",
    "random_schedule",
    "rank_breaking",
    "robust_revenue",
    "run_exp_cardinality",
    "run_exp_robustness",
    "run_exp_sample_efficiency",
    "run_experiment",
    "save_model",
    "shift_metrics",
    "suboptimality",
]
