"""Synthetic environments: hard instances, schedules, datasets, prior shifts."""
from __future__ import annotations

import math

import numpy as np

from .base import RobustAssortmentError
from .estimation import OfflineDataset, _csr, _validated
from .model import MnlModel, _draw_choices, as_assortment, nominal_expected_revenue
from .robust import _tilt_to_kl, kl_divergence

#: A prior shift tilts by at most beta*(max d - min d) = _TILT_SPAN, so no probability
#: falls below exp(-_TILT_SPAN) times its nominal one; its KL target stays a relative
#: _REACH_MARGIN below that tilt's, where bisection can still place it.
_TILT_SPAN, _REACH_MARGIN = 600.0, 1e-12


def generate_dataset(model: MnlModel, schedule, rng: np.random.Generator) -> OfflineDataset:
    """Sample one choice per scheduled assortment from the nominal model.

    ``schedule`` is a sequence of assortments or a 2-D int array with one per
    row; each record keeps its assortment sorted.  Record i turns the i-th
    draw of one ``rng.random(n)`` call into its choice, so the output is
    reproducible from the generator state.
    """
    offsets, given = _csr(schedule)
    _, items, bad = _validated(offsets, given, model.n_items)
    if bad is not None:  # as_assortment raises the first bad record's error
        as_assortment(given[offsets[bad]:offsets[bad + 1]].tolist(), model.n_items)
    sizes = np.diff(offsets)
    uniforms = rng.random(sizes.size)
    choices = np.empty(sizes.size, dtype=np.int64)
    for k in np.unique(sizes).tolist():
        rec = np.flatnonzero(sizes == k)
        sets = items[offsets[rec, None] + np.arange(k)]  # row j: record rec[j]'s set
        choices[rec] = _draw_choices(model, sets, uniforms[rec])
    return OfflineDataset.from_arrays(offsets, items, choices)


def instance_sample_efficiency() -> tuple[MnlModel, callable]:
    """The 15-item / top-3 hard instance with its partial-coverage schedule.

    Three items get an attraction boost of 0.01 above the common value 1/3
    and revenues are uniform, so the optimal robust assortment is the boosted
    triple under either radius rule.  The schedule factory replaces one
    uniformly chosen optimal item with a uniformly chosen outside item,
    independently per record, so the optimum never appears whole; its
    ``(n, rng)`` call returns the n sorted assortments as an (n, 3) int64 array.
    """
    n_items, k, eps = 15, 3, 0.01
    v = np.full(n_items, 1.0 / k)
    v[:k] += eps
    model = MnlModel(attractions=v, revenues=np.ones(n_items), r_max=1.0)
    star = np.arange(1, k + 1)
    outside = np.arange(k + 1, n_items + 1)

    def schedule_factory(n: int, rng: np.random.Generator) -> np.ndarray:
        drop = rng.integers(0, k, size=n)
        sub = outside[rng.integers(0, outside.size, size=n)]
        rows = np.tile(star, (n, 1))
        rows[np.arange(n), drop] = sub
        return np.sort(rows, axis=1)

    return model, schedule_factory


def instance_cardinality(k: int, n_effect: int, uniform: bool,
                         n_items: int = 50) -> tuple[MnlModel, np.ndarray]:
    """Hard instances probing how the cardinality cap drives the learning rate.

    Uniform mode boosts k items by 1/sqrt(n_effect*k) over the common 1/k with
    unit revenues everywhere.  Non-uniform mode boosts by 1/sqrt(n_effect),
    keeps attraction 1/k up to item 4k, then attraction 1 with zero revenue
    beyond.  The deterministic schedule, a (4k*n_effect, k) int64 array,
    shows item ceil(j/n_effect) alongside the fixed block {4k+2..5k} in row j,
    so every revenue-bearing item is offered in exactly n_effect records.
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

    # record r shows item ceil(r / n_effect), which sorts before every block item
    schedule = np.empty((4 * k * n_effect, k), dtype=np.int64)
    schedule[:, 0] = np.repeat(np.arange(1, 4 * k + 1), n_effect)
    schedule[:, 1:] = np.arange(4 * k + 2, 5 * k + 1)
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

    Tilts the prior p0 (no purchase first) along a Gaussian logit direction d
    to q ~ p0*exp(beta*d), bisecting beta to a KL(q || p0) drawn uniformly
    from ``kl_bucket = (lo, hi)`` below the direction's reach.  A direction
    that cannot reach ``lo`` gives way to the tilt toward the least likely
    choice; a bucket beyond that tilt's reach raises before any draw.
    Returns the perturbed model and the realized KL value.
    """
    lo, hi = float(kl_bucket[0]), float(kl_bucket[1])
    if not 0.0 <= lo < hi:
        raise ValueError("kl_bucket must be an interval (lo, hi) with 0 <= lo < hi")
    p0 = prior_of(model)
    far = (np.arange(p0.size) == np.argmin(p0)).astype(float)
    top = _reach(p0, far)  # just below the KL of the least likely choice's point mass
    if top <= lo:
        raise RobustAssortmentError(f"KL bucket [{lo}, {hi}) is unreachable: shifts reach KL {top}")
    d = rng.standard_normal(p0.size)
    reach = _reach(p0, d)
    if reach <= lo:
        d, reach = far, top
    q, _ = _tilt_to_kl(p0.tolist(), (d.max() - d).tolist(), rng.uniform(lo, min(hi, reach)))
    perturbed = model_from_prior(q, model.revenues, model.r_max)
    return perturbed, kl_divergence(prior_of(perturbed), p0)


def _reach(p0: np.ndarray, d: np.ndarray) -> float:
    """KL(q || p0) at the tilt beta*(max d - min d) = _TILT_SPAN, less _REACH_MARGIN."""
    q = p0 * np.exp(_TILT_SPAN * (d - d.max()) / (d.max() - d.min()))
    return kl_divergence(q / q.sum(), p0) * (1.0 - _REACH_MARGIN)


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
    learned assortment.  Returns per model the gain, the best improvement over
    the zero-radius assortment; the base, that assortment's own revenue; and
    the best radius, the smallest argmax.
    """
    grid = [float(r) for r in rho_grid]
    if 0.0 not in grid:
        raise ValueError("rho_grid must contain 0 (the non-robust anchor)")
    gains, bases, best_radii = [], [], []
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
        bases.append(base)
        best_radii.append(best_rho)
    return np.array(gains), np.array(bases), np.array(best_radii)
