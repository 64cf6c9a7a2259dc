"""Synthetic environments: hard instances, schedules, datasets, prior shifts."""
from __future__ import annotations

import math

import numpy as np

from .base import RobustAssortmentError
from .estimation import (OfflineDataset, RankBreakingCounts, _csr, _validated, point_and_lcb,
                         rank_breaking)
from .model import (MnlModel, _draw_choices, _support_columns, as_assortment, choice_columns,
                    nominal_revenues)
from .robust import _dual_batch, kl_divergence

#: A prior shift tilts by at most beta*(max d - min d) = _TILT_SPAN, so no probability
#: falls below exp(-_TILT_SPAN) times its nominal one; its KL target stays a relative
#: _REACH_MARGIN below that tilt's, where the dual kernel can still place it.
_TILT_SPAN, _REACH_MARGIN = 600.0, 1e-12
#: Revenues within this share of r_max of the best tie for exp2's best radius.
_TIE = 1e-12
#: Shifted environments that shift_scores scores in one nominal_revenues call.
_SCORE_ROWS = 1024
#: Catalogue size of instance_cardinality.
_CARDINALITY_ITEMS = 50


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
    counts = np.bincount(sizes)
    for k in np.flatnonzero(counts).tolist():
        if counts[k] == sizes.size:  # one width: the records are the rows of items
            rec, sets = slice(None), items.reshape(sizes.size, k)
        else:
            rec = np.flatnonzero(sizes == k)
            sets = items[offsets[rec, None] + np.arange(k)]  # row j: record rec[j]'s set
        choices[rec] = _draw_choices(model, sets, uniforms[rec])
    return OfflineDataset.from_arrays(offsets, items, choices)


def sample_counts(model: MnlModel, sets, multiplicities,
                  rng: np.random.Generator) -> RankBreakingCounts:
    """Rank-breaking counts of a dataset that offers row i of ``sets``, a valid
    assortment padded with 0 as ``choice_columns`` takes it, ``multiplicities[i]``
    times, in the law of ``rank_breaking(generate_dataset(...))`` but without a
    record: set i's choices are one ``rng.multinomial`` draw over its S_+, in row order."""
    support, P, _ = _support_columns(model, sets)
    offers = np.asarray(multiplicities, dtype=np.int64)
    chosen = np.zeros(P.shape, dtype=np.int64)  # entry (r, i): set i's picks of support row r
    for i, size in enumerate((support <= model.n_items).sum(axis=0).tolist()):  # padding last
        chosen[:size, i] = rng.multinomial(offers[i], P[:size, i])

    def per_item(weights):  # slot i: item i, after no purchase (0), before padding (n + 1)
        return np.bincount(support.ravel(), np.broadcast_to(weights, P.shape).ravel(),
                           model.n_items + 2)[1:-1].astype(np.int64)

    # a duel: the item or no purchase (row 0) chosen while the item is offered
    return RankBreakingCounts(wins=per_item(chosen), duels=per_item(chosen + chosen[0]),
                              offered=per_item(offers), n=int(offers.sum()))


def lcb_validity_rate(model: MnlModel, schedule, n: int, delta: float,
                      replications: int, rng: np.random.Generator) -> float:
    """Monte-Carlo frequency of the event {v_lcb <= v for every item}.

    ``schedule`` is either a fixed sequence of assortments or a factory
    ``(n, rng) -> sequence`` drawn fresh each replication.
    """
    hits = 0
    for _ in range(replications):
        plan = schedule(n, rng) if callable(schedule) else list(schedule)[:n]
        counts = rank_breaking(generate_dataset(model, plan, rng), model.n_items)
        hits += bool(np.all(point_and_lcb(counts, delta).v_lcb <= model.attractions + 1e-12))
    return hits / replications


def instance_sample_efficiency() -> tuple[MnlModel, callable]:
    """The 15-item / top-3 hard instance with its partial-coverage schedule.

    Three items get an attraction boost of 0.01 above the common value 1/3
    and revenues are uniform, so the optimal robust assortment is the boosted
    triple under either radius rule.  The schedule factory replaces one
    uniformly chosen optimal item with a uniformly chosen outside item,
    independently per record, so the optimum never appears whole; its
    ``(n, rng)`` call returns the n sorted assortments as an (n, 3) int64 array,
    each a row of its ``sets`` attribute: the 36 distinct ones, equally likely.
    """
    n_items, k, eps = 15, 3, 0.01
    v = np.full(n_items, 1.0 / k)
    v[:k] += eps
    model = MnlModel(attractions=v, revenues=np.ones(n_items), r_max=1.0)
    star = np.arange(1, k + 1)
    outside = np.arange(k + 1, n_items + 1)
    # row d * outside.size + j: the star ids but d + 1, in order, then outside id j,
    # which exceeds every star id, so each row is sorted
    kept = [np.delete(star, d) for d in range(k)]
    sets = np.column_stack((np.repeat(kept, outside.size, axis=0), np.tile(outside, k)))

    def schedule_factory(n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError(f"n must be a nonnegative record count, got {n}")
        drop = rng.integers(0, k, size=n)
        return np.take(sets, drop * outside.size + rng.integers(0, outside.size, size=n), axis=0)

    schedule_factory.sets = sets
    return model, schedule_factory


def instance_cardinality(k: int, n_effect: int, uniform: bool) -> tuple[MnlModel, np.ndarray]:
    """Hard instances probing how the cardinality cap drives the learning rate.

    Uniform mode boosts k items by 1/sqrt(n_effect*k) over the common 1/k with
    unit revenues everywhere.  Non-uniform mode boosts by 1/sqrt(n_effect),
    keeps attraction 1/k up to item 4k, then attraction 1 with zero revenue
    beyond.  The deterministic schedule, a (4k*n_effect, k) int64 array,
    shows item ceil(j/n_effect) alongside the fixed block {4k+2..5k} in row j,
    so every revenue-bearing item is offered in exactly n_effect records.
    """
    n_items = _CARDINALITY_ITEMS
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
    return _priors(model.attractions[None])[0]


def _priors(attractions: np.ndarray) -> np.ndarray:
    """``prior_of`` of each row of a C-ordered stack of attraction vectors: numpy
    sums a row of it as it sums the row alone."""
    return np.concatenate((np.ones((len(attractions), 1)), attractions), axis=1) / (
        1.0 + attractions.sum(axis=1, keepdims=True))


def model_from_prior(prior: np.ndarray, revenues, r_max: float) -> MnlModel:
    """Invert a full-support prior back to attraction parameters."""
    prior = np.asarray(prior, dtype=float)
    return MnlModel(attractions=prior[1:] / prior[0], revenues=revenues, r_max=r_max)


def perturb_prior(model: MnlModel, kl_bucket: tuple[float, float],
                  rng: np.random.Generator) -> tuple[MnlModel, float]:
    """Random perturbed environment whose prior shift lands in a KL bucket.

    The one-generator case of ``perturb_priors``: returns the perturbed model
    and the realized KL value.
    """
    attractions, kl = perturb_priors(model, kl_bucket, [rng])
    return MnlModel(attractions[0], model.revenues, model.r_max), float(kl[0])


def perturb_priors(model: MnlModel, kl_bucket: tuple[float, float],
                   rngs) -> tuple[np.ndarray, np.ndarray]:
    """Random perturbed environments whose prior shifts land in a KL bucket, one
    per generator in ``rngs``.

    Tilts the prior p0 (no purchase first) along a Gaussian logit direction d
    to q ~ p0*exp(beta*d), with beta set by the dual kernel so that KL(q || p0)
    is a target drawn uniformly from ``kl_bucket = (lo, hi)`` below the
    direction's reach; a target below ``ZERO_RADIUS`` leaves p0 as it is.  A
    direction that cannot reach ``lo`` gives way to the tilt toward the least
    likely choice; a bucket beyond that tilt's reach raises before any draw.
    Each generator draws its direction, then its target.  The directions are
    reached and tilted in one batch, where each keeps the bits it has alone.
    Returns the shifted attractions, one row per generator, which keep the
    model's revenues and r_max, and the realized KL values.
    """
    lo, hi = float(kl_bucket[0]), float(kl_bucket[1])
    if not 0.0 <= lo < hi:
        raise ValueError("kl_bucket must be an interval (lo, hi) with 0 <= lo < hi")
    p0 = prior_of(model)
    far = (np.arange(p0.size) == np.argmin(p0)).astype(float)
    top = float(_reach(p0, far[None])[0])  # just below the KL of the rarest choice's point mass
    if top <= lo:
        raise RobustAssortmentError(f"KL bucket [{lo}, {hi}) is unreachable: shifts reach KL {top}")
    rngs = list(rngs)
    d = np.array([rng.standard_normal(p0.size) for rng in rngs])
    reach = _reach(p0, d)
    short = reach <= lo
    d[short], reach[short] = far, top
    target = np.array([rng.uniform(lo, min(hi, r)) for rng, r in zip(rngs, reach.tolist())])
    # the kernel's worst-case tilt of revenues max d - d; p0 itself below ZERO_RADIUS
    tilt = _dual_batch(np.repeat(p0[:, None], len(rngs), axis=1), d.max(axis=1) - d.T, target,
                       np.ptp(d, axis=1))[2]
    q = np.ascontiguousarray(tilt.T)  # C order, which _priors needs
    attractions = q[:, 1:] / q[:, :1]
    return attractions, _kl_rows(_priors(attractions), p0)


def _reach(p0: np.ndarray, d: np.ndarray) -> np.ndarray:
    """KL(q || p0) at the tilt beta*(max d - min d) = _TILT_SPAN, less _REACH_MARGIN,
    of each direction d, a row of ``d``."""
    top, span = d.max(axis=1, keepdims=True), np.ptp(d, axis=1, keepdims=True)
    q = p0 * np.exp(_TILT_SPAN * (d - top) / span)
    return _kl_rows(q / q.sum(axis=1, keepdims=True), p0) * (1.0 - _REACH_MARGIN)


def _kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``kl_divergence(row, p)`` of each row of ``q``, with its bits: numpy sums
    a row of a C-ordered array as it sums the row alone."""
    full = (q > 0.0).all(axis=1)
    kl = np.empty(len(q))
    kl[full] = (q[full] * np.log(q[full] / p)).sum(axis=1)
    kl[~full] = [kl_divergence(row, p) for row in q[~full]]
    return kl


def random_schedule(n: int, n_items: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Uniform-random assortment sizes, then uniform-random item subsets.

    Record i offers the items whose uniform keys rank below its size among
    row i of one ``rng.random((n, n_items))`` draw.
    """
    sizes = rng.integers(1, n_items + 1, size=n)
    order = rng.random((n, n_items)).argsort(axis=1)
    offered = np.empty(order.shape, dtype=bool)
    np.put_along_axis(offered, order, np.arange(n_items) < sizes[:, None], axis=1)
    items = (np.nonzero(offered)[1] + 1).tolist()  # row-major: each record's come sorted
    ends = np.cumsum(sizes).tolist()
    return [tuple(items[start:end]) for start, end in zip([0] + ends[:-1], ends)]


def shift_metrics(assortments_by_rho: dict[float, tuple[int, ...]],
                  perturbed_models, rho_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``shift_scores`` of each perturbed model in turn, under its own revenues
    and r_max; one (gain, base, best radius) triple per model."""
    models = list(perturbed_models)
    scores = np.empty((3, len(models)))
    for j, shifted in enumerate(models):
        scores[:, j:j + 1] = shift_scores(assortments_by_rho, shifted, shifted.attractions[None],
                                          rho_grid)
    return scores[0], scores[1], scores[2]


def shift_scores(assortments_by_rho: dict[float, tuple[int, ...]], model: MnlModel,
                 attractions, rho_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Robustness gains of radius-indexed assortments under shifted environments.

    Each row of ``attractions`` is one shifted environment with ``model``'s
    revenues and r_max.  One ``choice_columns`` and one ``nominal_revenues``
    call score every learned assortment (an empty one scores 0) in a block of
    up to ``_SCORE_ROWS`` environments, which bounds the memory.  Returns per
    environment the gain, the best improvement over the zero-radius
    assortment; the base, that assortment's own revenue; and the best radius,
    the smallest radius whose revenue is within ``_TIE * r_max`` of the best,
    so that rounding does not decide it.
    """
    grid = sorted(float(r) for r in rho_grid)
    if 0.0 not in grid:
        raise ValueError("rho_grid must contain 0 (the non-robust anchor)")
    learned = [assortments_by_rho[rho] for rho in grid]
    rows = np.zeros((len(grid), max(map(len, learned))), dtype=np.intp)
    for row, items in zip(rows, learned):
        row[:len(items)] = items
    # row j: environment j's revenue per radius
    revenue = np.concatenate([
        nominal_revenues(*choice_columns(model, rows, block)[:2]).reshape(len(grid), -1).T
        for block in (attractions[start:start + _SCORE_ROWS]
                      for start in range(0, len(attractions), _SCORE_ROWS))])
    best = revenue.max(axis=1)
    base = revenue[:, grid.index(0.0)]
    tied = revenue >= (best - _TIE * model.r_max)[:, None]
    return best - base, base, np.array(grid)[np.argmax(tied, axis=1)]
