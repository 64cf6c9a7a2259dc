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
    """What both rules share; each rule supplies ``radius_from_weight`` (and its array
    form ``radii_from_weights``) and ``is_zero``."""

    def radius(self, model: MnlModel, items) -> float:
        items = as_assortment(items, model.n_items)
        weight_s = model.assortment_weight(items)
        rho = self.radius_from_weight(weight_s)
        if rho == math.inf:
            raise RadiusInfeasibleError(
                f"radius undefined for {items}: total attraction {weight_s} leaves no "
                "conditional mass", items=items)
        return rho

    def dual_cap(self, model: MnlModel, items) -> float:
        rho = self.radius(model, items)
        return math.inf if rho < ZERO_RADIUS else model.r_max / rho


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

    def radius_from_weight(self, weight_s: float) -> float:
        return self.rho

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


def varying_radius_conditional(rho0: float, weight_all: float, weight_s: float) -> float:
    """Equivalent conditional-prior form: -log(1 - (1 - e^-rho0) * c).

    Returns inf where the conditional mass 1 - (1 - e^-rho0) * c is not positive.
    """
    shrink = -math.expm1(-rho0) * weight_all / weight_s
    return math.inf if shrink >= 1.0 else -math.log1p(-shrink)


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

    def radius_from_weight(self, weight_s: float) -> float:
        """Radius of a set whose attraction plus no-purchase totals ``weight_s``; inf
        where the formula has no finite value."""
        if self.is_zero:
            return 0.0
        return varying_radius_conditional(self.rho0, self.weight_all, weight_s)

    def radii_from_weights(self, weights: np.ndarray) -> np.ndarray:
        """``radius_from_weight`` over an array of weights, equal to it within a few
        ulps (numpy's log1p is not libm's)."""
        if self.is_zero:
            return np.zeros(np.shape(weights))
        shrink = -math.expm1(-self.rho0) * self.weight_all / np.asarray(weights, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(shrink < 1.0, -np.log1p(-np.minimum(shrink, 1.0)), math.inf)


RadiusSpec = Union[ConstantRadius, VaryingRadius]


def radius(spec: RadiusSpec, model: MnlModel, items) -> float:
    """Instantiated KL radius of the ball attached to ``items``."""
    return spec.radius(model, items)
