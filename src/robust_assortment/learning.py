"""Data-driven robust assortment learning.

``learn_robust_assortment(dataset, n_items, LearnConfig(...))`` is the one
learning entry point.  It estimates attractions by rank breaking, replaces
them with lower confidence bounds (or plug-in point estimates for the
non-pessimistic baseline), and hands the resulting parameters to the robust
planner.  Under the varying-radius rule the slack target keeps the *true*
total attraction, which is assumed known, while the curves use the estimated
attractions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ConfigError
from .estimation import point_and_lcb, rank_breaking
from .model import MnlModel, as_assortment
from .planning import PlanResult, plan
from .radius import RadiusSpec
from .robust import robust_revenue


@dataclass(frozen=True)
class LearnConfig:
    """Inputs of one learning run.

    Revenues are treated as known alongside the radius rule; only the
    attractions are learned.  A varying-radius spec must carry the true total
    attraction of the data-generating environment.  ``r_max`` defaults to
    ``max(revenues)``.
    """

    k: int
    delta: float
    spec: RadiusSpec
    revenues: tuple[float, ...]
    r_max: float | None = None
    eps_plan: float | None = None
    pessimism: bool = True

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and not isinstance(self.k, bool)
                and self.k >= 1):
            raise ConfigError(f"k must be an integer >= 1, got {self.k!r}")
        revenues = np.asarray(self.revenues, dtype=float)
        if revenues.ndim != 1 or revenues.size == 0:
            raise ConfigError("revenues must be a nonempty list of numbers")
        r_max = float(max(self.revenues) if self.r_max is None else self.r_max)
        if not (np.all(np.isfinite(revenues)) and np.all(revenues >= 0.0)
                and np.all(revenues <= r_max)):
            raise ConfigError(f"every revenue must be finite and lie in [0, r_max = {r_max}], "
                              f"got {list(self.revenues)}")
        if not (self.eps_plan is None or self.eps_plan > 0.0):
            raise ConfigError(f"eps_plan must be positive, got {self.eps_plan!r}")


def _plan_on_estimate(v_est: np.ndarray, cfg: LearnConfig) -> tuple[tuple[int, ...], PlanResult | None]:
    """Plan on estimated attractions, skipping zero-attraction items.

    Items with a zero estimate can never raise any objective, so they are
    dropped before planning; with nothing left the convention is the empty
    assortment (every candidate scores zero).
    """
    keep = np.nonzero(v_est > 0.0)[0]
    if keep.size == 0:
        return (), None
    sub = MnlModel(
        attractions=v_est[keep],
        revenues=np.asarray(cfg.revenues, dtype=float)[keep],
        r_max=cfg.r_max if cfg.r_max is not None else max(cfg.revenues),
    )
    k_sub = min(cfg.k, keep.size)
    result = plan(sub, k_sub, cfg.spec, eps=cfg.eps_plan)
    items = tuple(sorted(int(keep[i - 1]) + 1 for i in result.assortment))
    return items, result


def learn_robust_assortment(dataset, n_items: int, cfg: LearnConfig):
    """Learn an assortment from offline data; returns (assortment, diagnostics).

    With ``cfg.pessimism`` the planner sees the lower-confidence-bound
    attractions (robust to both estimation error and choice shift); without
    it, the plug-in point estimates (single pessimism, the baseline).
    """
    if len(cfg.revenues) != n_items:
        raise ValueError("cfg.revenues must have one entry per item")
    counts = rank_breaking(dataset, n_items)
    estimate = point_and_lcb(counts, cfg.delta)
    v_used = estimate.v_lcb if cfg.pessimism else estimate.v_hat
    items, result = _plan_on_estimate(np.asarray(v_used, dtype=float), cfg)
    diagnostics = {
        "estimate": estimate,
        "counts": counts,
        "plan": result,
        "pessimistic_value": result.value if result is not None else 0.0,
        "n_offered": counts.offered,
    }
    return items, diagnostics


def suboptimality(true_model: MnlModel, spec: RadiusSpec, s_hat, k: int,
                  eps: float | None = None, star_value: float | None = None) -> float:
    """Robust-revenue gap of ``s_hat`` against the optimal robust assortment.

    ``star_value`` short-circuits re-planning when the optimum is already
    known (experiments score many replications against one instance).
    """
    s_hat = as_assortment(s_hat, true_model.n_items)
    if star_value is None:
        star_value = plan(true_model, k, spec, eps=eps).value
    hat_value = robust_revenue(true_model, s_hat, spec).value if s_hat else 0.0
    return star_value - hat_value
