"""Synthetic environments: hard instances, schedules, datasets, prior shifts."""
from __future__ import annotations

import math

import numpy as np

from .base import RobustAssortmentError
from .estimation import OfflineDataset
from .model import MnlModel, as_assortment, nominal_expected_revenue
from .robust import kl_divergence


def generate_dataset(model: MnlModel, schedule, rng: np.random.Generator) -> OfflineDataset:
    """Sample one choice per scheduled assortment from the nominal model.

    Records are grouped by distinct assortment (in first-appearance order)
    and each group's choices are drawn in one vectorized pass, so the output
    is reproducible from the generator state and fast for long schedules.
    """
    plan = [as_assortment(s, model.n_items) for s in schedule]
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, items in enumerate(plan):
        groups.setdefault(items, []).append(pos)

    choices = np.zeros(len(plan), dtype=np.int64)
    for items, positions in groups.items():
        support = np.array((0, *items), dtype=np.int64)
        weights = np.concatenate(([1.0], model.attractions[np.array(items, dtype=np.int64) - 1])) \
            if items else np.array([1.0])
        cum = np.cumsum(weights / weights.sum())
        u = rng.random(len(positions))
        drawn = support[np.searchsorted(cum, u, side="right")]
        choices[np.array(positions)] = drawn
    return OfflineDataset([(plan[i], int(choices[i])) for i in range(len(plan))])


def instance_sample_efficiency() -> tuple[MnlModel, callable]:
    """The 15-item / top-3 hard instance with its partial-coverage schedule.

    Three items get an attraction boost of 0.01 above the common value 1/3
    and revenues are uniform, so the optimal robust assortment is the boosted
    triple under either radius rule.  The schedule factory replaces one
    uniformly chosen optimal item with a uniformly chosen outside item,
    independently per record, so the optimum never appears whole.
    """
    n_items, k, eps = 15, 3, 0.01
    v = np.full(n_items, 1.0 / k)
    v[:k] += eps
    model = MnlModel(attractions=v, revenues=np.ones(n_items), r_max=1.0)
    star = tuple(range(1, k + 1))
    outside = np.arange(k + 1, n_items + 1)

    def schedule_factory(n: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
        drop = rng.integers(0, k, size=n)
        sub = outside[rng.integers(0, outside.size, size=n)]
        out = []
        for d, s in zip(drop.tolist(), sub.tolist()):
            kept = [item for j, item in enumerate(star) if j != d]
            kept.append(int(s))
            out.append(tuple(sorted(kept)))
        return out

    return model, schedule_factory


def instance_cardinality(k: int, n_effect: int, uniform: bool,
                         n_items: int = 50) -> tuple[MnlModel, list[tuple[int, ...]]]:
    """Hard instances probing how the cardinality cap drives the learning rate.

    Uniform mode boosts k items by 1/sqrt(n_effect*k) over the common 1/k with
    unit revenues everywhere.  Non-uniform mode boosts by 1/sqrt(n_effect),
    keeps attraction 1/k up to item 4k, then attraction 1 with zero revenue
    beyond.  The deterministic schedule shows item ceil(j/n_effect) alongside
    the fixed block {4k+2..5k}, so every revenue-bearing item is offered in
    exactly n_effect records.
    """
    if not (k >= 1 and 5 * k <= n_items):
        raise ValueError(f"need 1 <= k and 5k <= {n_items}")
    if n_effect < 1:
        raise ValueError("n_effect must be >= 1")
    v = np.full(n_items, 1.0 / k)
    if uniform:
        v[:k] += 1.0 / math.sqrt(n_effect * k)
        r = np.ones(n_items)
    else:
        v[:k] += 1.0 / math.sqrt(n_effect)
        v[4 * k:] = 1.0
        r = np.zeros(n_items)
        r[: 4 * k] = 1.0
    model = MnlModel(attractions=v, revenues=r, r_max=1.0)

    block = tuple(range(4 * k + 2, 5 * k + 1))
    schedule = []
    for rec in range(1, 4 * k * n_effect + 1):
        rotating = math.ceil(rec / n_effect)
        schedule.append(tuple(sorted((rotating, *block))))
    return model, schedule


def prior_of(model: MnlModel) -> np.ndarray:
    """Prior over all choices (no purchase first) induced by the attractions."""
    return np.concatenate(([1.0], model.attractions)) / (1.0 + model.v_tot)


def model_from_prior(prior: np.ndarray, revenues, r_max: float) -> MnlModel:
    """Invert a full-support prior back to attraction parameters."""
    prior = np.asarray(prior, dtype=float)
    return MnlModel(attractions=prior[1:] / prior[0], revenues=revenues, r_max=r_max)


def perturb_prior(model: MnlModel, kl_bucket: tuple[float, float],
                  rng: np.random.Generator) -> tuple[MnlModel, float]:
    """Random perturbed environment whose prior shift lands in a KL bucket.

    Draws Dirichlet proposals centered on the model's prior with a
    log-uniform concentration sweep, rejecting until the KL divergence of the
    proposal from the nominal prior falls in ``kl_bucket = (lo, hi)``.
    Returns the perturbed model and the realized KL value.
    """
    lo, hi = float(kl_bucket[0]), float(kl_bucket[1])
    if not 0.0 <= lo < hi:
        raise ValueError("kl_bucket must be an interval (lo, hi) with 0 <= lo < hi")
    p0 = prior_of(model)
    dim = p0.size
    # concentration scales inversely with the KL shift one wants to realize
    anchor = max(lo, 0.02)
    c_lo = max(0.3, 0.1 * dim / anchor) if math.isfinite(hi) else max(0.2, 0.02 * dim)
    c_hi = (4.0 * dim / max(anchor, 1e-3)) if math.isfinite(hi) else 2.0 * dim / max(lo, 0.05)
    budget = 10 ** 5
    while budget > 0:
        budget -= 1
        conc = math.exp(rng.uniform(math.log(c_lo), math.log(c_hi)))
        prior = rng.dirichlet(conc * p0 * dim)
        if prior[0] < 1e-12 or np.any(prior < 1e-300):
            continue
        kl = kl_divergence(prior, p0)
        if lo <= kl < hi:
            perturbed = model_from_prior(prior, model.revenues, model.r_max)
            return perturbed, kl
    raise RobustAssortmentError(
        f"rejection budget exhausted while targeting KL bucket [{lo}, {hi})"
    )


def random_schedule(n: int, n_items: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Uniform-random assortment sizes, then uniform-random item subsets."""
    out = []
    for _ in range(n):
        size = int(rng.integers(1, n_items + 1))
        items = rng.choice(n_items, size=size, replace=False) + 1
        out.append(tuple(sorted(int(i) for i in items)))
    return out


def shift_metrics(assortments_by_rho: dict[float, tuple[int, ...]],
                  perturbed_models, rho_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Robustness gains of radius-indexed assortments under shifted environments.

    For each perturbed model, evaluates the nominal expected revenue of every
    learned assortment; the gain is the best improvement over the zero-radius
    assortment, the relative gain divides by its revenue (NaN when that
    revenue is zero), and the best radius is the smallest argmax.
    """
    grid = [float(r) for r in rho_grid]
    if 0.0 not in grid:
        raise ValueError("rho_grid must contain 0 (the non-robust anchor)")
    gains, rel_gains, best_radii = [], [], []
    for shifted in perturbed_models:
        revenue = {
            rho: nominal_expected_revenue(shifted, assortments_by_rho[rho]) for rho in grid
        }
        base = revenue[0.0]
        best_rho, best_rev = 0.0, base
        for rho in sorted(grid):
            if revenue[rho] > best_rev:
                best_rev, best_rho = revenue[rho], rho
        gain = best_rev - base
        gains.append(gain)
        rel_gains.append(gain / base if base > 0.0 else math.nan)
        best_radii.append(best_rho)
    return np.array(gains), np.array(rel_gains), np.array(best_radii)
