"""MNL choice models: parameters, probabilities, revenue, sampling, file I/O."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .base import InvalidAssortmentError, NumericRangeError

#: Attraction of the no-purchase option, fixed by the usual normalization.
V0 = 1.0


def total_weight(attractions) -> float:
    """No-purchase attraction plus the exactly rounded sum of ``attractions``."""
    try:
        total = V0 + math.fsum(attractions)
    except OverflowError as exc:
        raise NumericRangeError("total attraction overflowed the float range") from exc
    if not math.isfinite(total):
        raise NumericRangeError("total attraction overflowed the float range")
    return total


def as_assortment(items, n_items: int) -> tuple[int, ...]:
    """Validate an assortment and canonicalize it to a sorted tuple of 1-based ids.

    The empty assortment is allowed and models offering nothing.
    """
    out = tuple(int(i) for i in items)
    for i in out:
        if not 1 <= i <= n_items:
            raise InvalidAssortmentError(f"item {i} outside 1..{n_items}")
    if len(set(out)) != len(out):
        raise InvalidAssortmentError(f"duplicate items in {out}")
    return tuple(sorted(out))


@dataclass(frozen=True)
class MnlModel:
    """An MNL choice environment: positive attractions and bounded revenues.

    Item ids are 1-based; the no-purchase option has id 0, attraction 1 and
    revenue 0 and is never stored.  ``r_max`` defaults to ``max(revenues)``.
    """

    attractions: np.ndarray
    revenues: np.ndarray
    r_max: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        v = np.asarray(self.attractions, dtype=float)
        r = np.asarray(self.revenues, dtype=float)
        if v.ndim != 1 or r.ndim != 1 or v.shape != r.shape or v.size < 1:
            raise ValueError("attractions and revenues must be equal-length 1-D vectors")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValueError("attractions must be finite and strictly positive")
        r_max = float(np.max(r)) if self.r_max is None else float(self.r_max)
        if not (r_max > 0.0 and math.isfinite(r_max)):
            raise ValueError("r_max must be a positive finite real")
        if not np.all(np.isfinite(r)) or np.any(r < 0.0) or np.any(r > r_max):
            raise ValueError(f"revenues must lie in [0, r_max={r_max}]")
        v = v.copy()
        r = r.copy()
        v.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "attractions", v)
        object.__setattr__(self, "revenues", r)
        object.__setattr__(self, "r_max", r_max)

    @property
    def n_items(self) -> int:
        return self.attractions.size

    @property
    def v_tot(self) -> float:
        """Total item attraction, excluding the no-purchase option."""
        return float(np.sum(self.attractions))

    def assortment_weight(self, items) -> float:
        """Total attraction of ``items`` plus the no-purchase option."""
        return total_weight(self.attractions[i - 1] for i in items)

    def to_dict(self) -> dict:
        return {
            "attractions": self.attractions.tolist(),
            "revenues": self.revenues.tolist(),
            "r_max": self.r_max,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MnlModel":
        return cls(
            attractions=np.asarray(payload["attractions"], dtype=float),
            revenues=np.asarray(payload["revenues"], dtype=float),
            r_max=payload.get("r_max"),
        )


def load_model(path) -> MnlModel:
    with open(path, "r", encoding="utf-8") as fh:
        return MnlModel.from_dict(json.load(fh))


def save_model(model: MnlModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class ChoiceDistribution:
    """A probability mass function over an assortment plus no-purchase.

    ``support`` always starts with 0 (no purchase) followed by the offered
    items in increasing order; ``probs`` aligns with ``support``.
    """

    support: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.support),):
            raise ValueError("probs must align with support")
        if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
        if self.support[0] != 0 or list(self.support[1:]) != sorted(set(self.support[1:])):
            raise ValueError("support must be (0, sorted distinct items)")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))

    def prob_of(self, choice: int) -> float:
        try:
            return float(self.probs[self.support.index(choice)])
        except ValueError:
            return 0.0

    def to_dict(self) -> dict:
        return {"support": list(self.support), "probs": self.probs.tolist()}


def choice_probabilities(model: MnlModel, items) -> ChoiceDistribution:
    """Conditional MNL choice distribution over ``items`` plus no-purchase."""
    items = as_assortment(items, model.n_items)
    weights = [V0] + [float(model.attractions[i - 1]) for i in items]
    total = model.assortment_weight(items)
    probs = np.array([w / total for w in weights])
    return ChoiceDistribution(support=(0, *items), probs=probs)


def expected_revenue(items, dist: ChoiceDistribution, model: MnlModel) -> float:
    """Expected revenue of ``items`` under choice distribution ``dist``."""
    items = as_assortment(items, model.n_items)
    if dist.support != (0, *items):
        raise ValueError(f"distribution support {dist.support} does not match S_+ of {items}")
    return float(math.fsum(
        p * (model.revenues[i - 1] if i else 0.0)
        for i, p in zip(dist.support, dist.probs)
    ))


def nominal_expected_revenue(model: MnlModel, items) -> float:
    """Expected revenue of ``items`` under the model's own choice probabilities."""
    items = as_assortment(items, model.n_items)
    total = model.assortment_weight(items)
    return float(math.fsum(model.attractions[i - 1] * model.revenues[i - 1] for i in items) / total)


def sample_choice(model: MnlModel, items, rng: np.random.Generator) -> int:
    """Draw one choice from the MNL conditional distribution; 0 means no purchase."""
    items = as_assortment(items, model.n_items)
    if not items:
        return 0
    total = model.assortment_weight(items)
    u = rng.random() * total
    acc = V0
    if u < acc:
        return 0
    for i in items:
        acc += model.attractions[i - 1]
        if u < acc:
            return i
    return items[-1]
