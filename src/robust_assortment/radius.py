"""Radius rules for the KL uncertainty ball attached to each assortment."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .base import RadiusInfeasibleError
from .model import MnlModel, as_assortment

#: Radii below this are treated as exactly zero (nominal revenue, no dual cap).
ZERO_RADIUS = 1e-12


class _RadiusRule:
    """What both rules share; each rule supplies ``radii_from_weights`` and ``is_zero``."""

    def radius(self, model: MnlModel, items) -> float:
        items = as_assortment(items, model.n_items)
        weight_s = model.assortment_weight(items)
        rho = float(self.radii_from_weights(weight_s))
        if rho == math.inf:
            raise RadiusInfeasibleError(
                f"radius undefined for {items}: total attraction {weight_s} leaves no "
                "conditional mass", items=items)
        return rho


@dataclass(frozen=True)
class ConstantRadius(_RadiusRule):
    """One KL radius shared by every assortment."""

    rho: float
    is_varying = False

    def __post_init__(self):
        if not (self.rho >= 0.0 and math.isfinite(self.rho)):
            raise ValueError("rho must be a finite nonnegative real")

    @property
    def is_zero(self) -> bool:
        return self.rho < ZERO_RADIUS

    def radii_from_weights(self, weights: np.ndarray) -> np.ndarray:
        return np.full(np.shape(weights), self.rho)


def varying_radius_primary(rho0: float, weight_all: float, weight_s: float) -> float:
    """Assortment radius in its original form: rho0 - log(e^rho0 - (e^rho0-1)*c)."""
    arg = math.exp(rho0) - math.expm1(rho0) * weight_all / weight_s
    if arg <= 0.0:
        raise RadiusInfeasibleError(
            f"radius undefined: log argument {arg} <= 0 (weight ratio {weight_all / weight_s})"
        )
    return rho0 - math.log(arg)


def varying_radius_conditional(rho0: float, weight_all: float, weight_s):
    """Equivalent conditional-prior form: -log(1 - (1 - e^-rho0) * c), elementwise
    over an array of set weights ``weight_s``.

    Returns inf where the conditional mass 1 - (1 - e^-rho0) * c is not positive.
    """
    shrink = -math.expm1(-rho0) * weight_all / np.asarray(weight_s, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(shrink < 1.0, -np.log1p(-np.minimum(shrink, 1.0)), math.inf)[()]


@dataclass(frozen=True)
class VaryingRadius(_RadiusRule):
    """Assortment-dependent radius induced by a global prior-level budget.

    ``v_tot`` is the total item attraction of the environment the budget
    refers to.  When learning from data it must be the *true* total
    (assumed known), which may differ from the totals of an estimated model.
    """

    rho0: float
    v_tot: float
    is_varying = True

    def __post_init__(self):
        if not (self.v_tot > 0.0 and math.isfinite(self.v_tot)):
            raise ValueError("v_tot must be a positive finite real")
        bound = math.log1p(1.0 / self.v_tot)
        if not (0.0 <= self.rho0 < bound):
            raise ValueError(
                f"rho0 must satisfy 0 <= rho0 < log(1 + 1/v_tot) = {bound:.6g}, got {self.rho0}"
            )

    @property
    def is_zero(self) -> bool:
        return self.rho0 < ZERO_RADIUS

    @property
    def weight_all(self) -> float:
        """Total attraction including no-purchase: 1 + v_tot."""
        return 1.0 + self.v_tot

    def radii_from_weights(self, weights: np.ndarray) -> np.ndarray:
        """Radii of sets whose attraction plus no-purchase totals ``weights``; inf
        where the formula has no finite value."""
        if self.is_zero:
            return np.zeros(np.shape(weights))
        return varying_radius_conditional(self.rho0, self.weight_all, weights)


RadiusSpec = Union[ConstantRadius, VaryingRadius]


def radius(spec: RadiusSpec, model: MnlModel, items) -> float:
    """Instantiated KL radius of the ball attached to ``items``."""
    return spec.radius(model, items)
