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
    attraction of the data-generating environment.
    """

    k: int
    delta: float
    spec: RadiusSpec
    revenues: tuple[float, ...]
    r_max: float | None = None
    eps_plan: float | None = None
    pessimism: bool = True

    def resolved_r_max(self) -> float:
        if self.r_max is not None:
            return float(self.r_max)
        return float(max(self.revenues))

    def resolved_eps(self) -> float:
        if self.eps_plan is not None:
            return float(self.eps_plan)
        return 1e-5 * self.resolved_r_max()


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
        r_max=cfg.resolved_r_max(),
    )
    k_sub = min(cfg.k, keep.size)
    result = plan(sub, k_sub, cfg.spec, eps=cfg.resolved_eps())
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


def pessimistic_value(v_est, cfg: LearnConfig, items) -> float:
    """Value the learner's objective assigns to ``items`` under estimates ``v_est``.

    This is the robust dual evaluated on the estimated model with the
    configured radius rule (whose varying form keeps the true total
    attraction), i.e. exactly what the planner maximized.
    """
    v_est = np.asarray(v_est, dtype=float)
    items = as_assortment(items, v_est.size)
    if any(v_est[i - 1] <= 0.0 for i in items):
        return 0.0
    keep = np.nonzero(v_est > 0.0)[0]
    sub = MnlModel(
        attractions=v_est[keep],
        revenues=np.asarray(cfg.revenues, dtype=float)[keep],
        r_max=cfg.resolved_r_max(),
    )
    remap = {int(orig) + 1: pos + 1 for pos, orig in enumerate(keep)}
    sub_items = tuple(sorted(remap[i] for i in items))
    return robust_revenue(sub, sub_items, cfg.spec, allow_degenerate=True).value


def suboptimality(true_model: MnlModel, spec: RadiusSpec, s_hat, k: int,
                  eps: float, star_value: float | None = None) -> float:
    """Robust-revenue gap of ``s_hat`` against the optimal robust assortment.

    ``star_value`` short-circuits re-planning when the optimum is already
    known (experiments score many replications against one instance).
    """
    s_hat = as_assortment(s_hat, true_model.n_items)
    if star_value is None:
        star_value = plan(true_model, k, spec, eps=eps).value
    hat_value = robust_revenue(true_model, s_hat, spec).value if s_hat else 0.0
    return star_value - hat_value
