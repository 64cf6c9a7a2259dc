"""Optimal robust assortment planning.

The general planner searches the revenue level ``t``.  A level is feasible
exactly when some assortment has robust revenue >= t, and every probed level
yields a witness set whose own robust revenue certifies a level too: a
feasible probe lifts the search to its witness's value (Dinkelbach's step) and
checks just above it next, an infeasible one halves the bracket.  The search
starts from the best of the classic candidate sets of the
cardinality-constrained MNL problem (Rusmevichientong, Shen & Shmoys, 2010),
scored in one batch: the revenue-ordered prefixes of size <= k, the top-k set
by attraction, and the zero-radius probe's set at eight levels.  So most plans
take one or two levels.  The plan is the best witness, so its certified level
is its value.  At the zero radius a probe is the nominal top-k
rule.  Otherwise a level is feasible when a sum of per-item level-slack
curves in the dual variable lam falls below a target.
At a fixed lam the best sets of size <= k take the k lowest negative curves,
so a level test is a branch and bound over lam: it bounds each interval
between evaluated points from below, and splits those whose bound undercuts
the best attained value by more than a tolerance.  Under the varying radius
rule each set counts only up to its own dual cap.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import MnlModel, set_weights
from .radius import RadiusSpec
from .robust import robust_values

# evaluate_level_slack's tolerance, relative to max(1, |best value|)
_REL_TOL = 1e-12
# an interval (0, b] splits at b / _ZERO_SPLIT, any other into _PARTS parts
_ZERO_SPLIT = 1024.0
_PARTS = 16
# intervals narrower than this share of their right end are not split again
_LEAST_WIDTH = 1e-15
# a search opens on this many points, a factor of 4 apart and ending at hi
_GRID = 16
# plan_general's seed holds the zero-radius probe's set at this many levels
_PROBES = 8
_BRUTE_SETS = 1 << 16  # plan_bruteforce's sets per kernel call, bounding its scratch memory
# plan_general's default eps, relative to r_max
_EPS_REL = 1e-5
# _dedup_sorted drops a point within this share of max(1, x) of the last one kept
_DEDUP = 1e-12


@dataclass(frozen=True)
class PlanResult:
    """An (eps-)optimal assortment and its robust revenue.

    ``evaluations`` counts the planner's work: scored sets for the exact
    planners; for the general one, one per probed level plus, at a nonzero
    radius, one per curve row (all of a search's curves at one lam)
    evaluated; the sets it scores, the seed's candidate sets and the
    witnesses, are not counted.
    """

    assortment: tuple[int, ...]
    value: float
    evaluations: int = 0
    best_effort: bool = False

    @property
    def certified_level(self) -> float:
        """The revenue level the assortment certifies: its own robust revenue."""
        return self.value

    def to_dict(self) -> dict:
        return {
            "assortment": list(self.assortment),
            "value": self.value,
            "certified_level": self.certified_level,
            "evaluations": self.evaluations,
            "best_effort": self.best_effort,
        }


class _EvalCounter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


class _CurveFamily:
    """Level-slack curves v_i * (exp((t - r_i)/lam + shift) - 1) for one spec.

    The constant-radius rule folds its radius into an exponent shift with
    target 0; the varying rule keeps a zero shift and moves the radius into a
    negative target derived from the global attraction budget.
    """

    def __init__(self, attractions, revenues, r_max: float, spec: RadiusSpec):
        if spec.is_zero:
            raise ValueError("the radius must exceed the zero-radius cutoff here")
        self.v = np.asarray(attractions, dtype=float)
        self.r = np.asarray(revenues, dtype=float)
        self.r_max = float(r_max)
        self.spec = spec
        self.varying = spec.is_varying
        self.shift = 0.0 if self.varying else float(spec.rho)
        # the varying rule's feasibility target is -(1 - e^{-rho0}) * (1 + v_tot)
        self.target = math.expm1(-spec.rho0) * spec.weight_all if self.varying else 0.0

    def caps(self, weights: np.ndarray) -> np.ndarray:
        """Dual upper bounds B(S) = r_max / radius from the sets' ``set_weights``;
        0 where the radius is infeasible."""
        with np.errstate(divide="ignore"):
            return self.r_max / self.spec.radii_from_weights(weights)

    def active_items(self, level: float) -> np.ndarray:
        """0-based indices of items whose revenue clears the level."""
        return np.nonzero(self.r >= level)[0]

    def curves(self, idx: np.ndarray, level: float, lam):
        """Curves ``idx`` at ``lam`` and their slopes in u = 1/lam; a column of lam
        values gives one row per value.  Float warnings are silenced: lam = 0
        gives -v where r > level, NaN where equal."""
        gap = level - self.r[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = gap / lam + self.shift
            return self.v[idx] * np.expm1(x), gap * (self.v[idx] * np.exp(x))

    def no_purchase(self, level: float, lam):
        """The no-purchase term expm1(t/lam + shift) and its slope in u = 1/lam;
        inf where they overflow."""
        with np.errstate(divide="ignore", over="ignore"):
            x = level / lam + self.shift
            return np.expm1(x), level * np.exp(x)


# brackets of subnormal gaps halve to 0, and a/lam overflows at subnormal lam
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _pair_crossings(v: np.ndarray, r: np.ndarray, t: float, shift: float) -> np.ndarray:
    """Positive crossing abscissas among the active curves, one per pair at most.

    With u = 1/lam and revenue gaps a = ar - t, b = br - t, the more attractive
    curve (av, ar) meets (bv, br) where psi(u) = av*exp(-a*u) - tail(u)
    vanishes, with tail(u) = bv*exp(-b*u) + (av - bv)*exp(-shift).  A pair has
    a root when psi is negative as lam -> 0 (psi0) and positive at its peak or
    as lam -> inf (psi_inf).  The root is bracketed by doubling and halving
    lam, then found by Newton's method in u on h(u) = -a*u - log(tail(u) / av),
    which has psi's sign and is concave in u: started at the bracket's
    small-lam end, where h < 0, it falls monotonically onto the root.  The
    iterate is kept as lam, so a subnormal lam cannot overflow u.
    log(tail / av) is taken as log1p of tail / av - 1, a sum of terms <= 0
    built from expm1, unless that sum is below -1/2, so no regime loses h to
    cancellation.  The whole pair population is processed vectorized.
    """
    m = v.size
    if m < 2:
        return np.empty(0)
    iu, ju = np.triu_indices(m, k=1)
    vi, vj = v[iu], v[ju]
    ri, rj = r[iu], r[ju]
    swap = vj > vi
    av = np.where(swap, vj, vi)
    ar = np.where(swap, rj, ri)
    bv = np.where(swap, vi, vj)
    br = np.where(swap, ri, rj)

    keep = av > bv  # equal attractions cross only at lam = 0
    av, ar, bv, br = av[keep], ar[keep], bv[keep], br[keep]
    if av.size == 0:
        return np.empty(0)
    cs = (av - bv) * math.exp(-shift)
    offset = (av - bv) * math.expm1(-shift)  # cs - (av - bv)
    a, b = ar - t, br - t

    def h(lam):
        """h and u * h'(u) at u = 1/lam, exponents formed as a/lam so that
        subnormal lam does not overflow u."""
        ua, ub = a / lam, b / lam
        near = bv * np.exp(-ub)
        tail = near + cs
        shortfall = (bv * np.expm1(-ub) + offset) / av  # tail / av - 1
        log_share = np.where(shortfall > -0.5, np.log1p(shortfall), np.log(tail / av))
        return -ua - log_share, ub * near / tail - ua

    psi0 = np.where(ar == t, av, 0.0) - np.where(br == t, bv, 0.0) - cs
    psi_inf = -offset
    big_a = av * a
    big_b = bv * b
    log_ratio = np.log(big_b) - np.log(big_a)
    lam_crit = (br - ar) / log_ratio
    has_crit = (big_a > 0) & (big_b > 0) & (ar != br) & (lam_crit > 0) & np.isfinite(lam_crit)
    peak_val = np.full(av.shape, -np.inf)
    if np.any(has_crit):
        lc = np.where(has_crit, lam_crit, 1.0)
        peak_val = np.where(has_crit & (ar < br), h(lc)[0], -np.inf)

    has_root = (psi0 < 0.0) & ((peak_val > 0.0) | (psi_inf > 0.0))
    if not np.any(has_root):
        return np.empty(0)
    av, a, bv, b, cs, offset = (
        av[has_root], a[has_root], bv[has_root], b[has_root], cs[has_root], offset[has_root])
    start = np.where(has_crit[has_root], np.where(has_crit, lam_crit, 1.0)[has_root],
                     np.maximum(a, b))

    hi = start.copy()
    for _ in range(2100):  # enough doublings or halvings to cross the float range
        low_side = h(hi)[0] <= 0.0
        if not np.any(low_side):
            break
        hi[low_side] *= 2.0
    bracketed = h(hi)[0] > 0.0
    av, a, bv, b, cs, offset, hi = (
        av[bracketed], a[bracketed], bv[bracketed], b[bracketed], cs[bracketed],
        offset[bracketed], hi[bracketed],
    )
    if av.size == 0:
        return np.empty(0)
    lo = hi.copy()
    for _ in range(2100):
        high_side = h(lo)[0] >= 0.0
        if not np.any(high_side):
            break
        lo[high_side] *= 0.5
    lam = lo
    for _ in range(100):
        value, slope = h(lam)
        step = value / slope  # the Newton step h / h'(u) >= 0 in units of u
        moving = step > 4e-16
        if not np.any(moving):
            break
        lam = np.where(moving, lam / (1.0 - step), lam)  # u falls to u * (1 - step)
    return np.sort(lam[lam > 0.0])  # lo halves to 0 below the least subnormal


def _dedup_sorted(xs: np.ndarray) -> list[float]:
    """Drop each point within ``_DEDUP * max(1, x)`` of the last point kept."""
    out: list[float] = []
    for x in xs:
        if not out or x - out[-1] > _DEDUP * max(1.0, x):
            out.append(float(x))
    return out


def intersection_points(level: float, model: MnlModel, spec: RadiusSpec) -> list[float]:
    """Sorted positive crossing abscissas among the active level-slack curves."""
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    idx = fam.active_items(level)
    xs = _pair_crossings(fam.v[idx], fam.r[idx], level, fam.shift)
    return _dedup_sorted(xs)


class _Best:
    """The least attained value of a level search and its set.  Bounds at or
    above ``threshold()`` cannot improve it by more than the tolerance: ``tol``,
    or 1e-12 * max(1, |value|) without one."""

    def __init__(self, value: float, stop_below: float | None, tol: float | None):
        self.value, self.items, self.stop_below, self.tol = value, (), stop_below, tol

    def offer(self, value: float, items: np.ndarray) -> None:
        if value < self.value:
            self.value, self.items = value, tuple(sorted((items + 1).tolist()))

    @property
    def achieved(self) -> bool:
        return self.stop_below is not None and self.value < self.stop_below

    def threshold(self) -> float:
        tol = self.tol if self.tol is not None else _REL_TOL * max(1.0, abs(self.value))
        return self.value - tol if math.isfinite(self.value) else math.inf


# A point of a level search is one row: lam, the no-purchase term and its slope
# in u = 1/lam, the sum of the k lowest negative curves, the curves, their slopes.
_LAM, _NO_BUY, _NO_BUY_S, _LOW, _CURVES = range(5)


def _points(fam: _CurveFamily, t: float, items: np.ndarray, k: int, lam: np.ndarray):
    """The points at ``lam`` for the curves ``items``, and a mask of each one's
    selection: its k lowest curves (a stable sort, so ties break by position)
    where those are negative."""
    g, s = fam.curves(items, t, lam[:, None])
    rows, order = np.arange(lam.size)[:, None], np.argsort(g, axis=1, kind="stable")[:, :k]
    selected = np.zeros(g.shape, dtype=bool)
    selected[rows, order] = g[rows, order] < 0.0
    low = np.where(selected, g, 0.0).sum(axis=1)
    return np.column_stack((lam, *fam.no_purchase(t, lam), low, g, s)), selected


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _bounds(lo: np.ndarray, hi: np.ndarray, k: int) -> np.ndarray:
    """Lower bounds of the no-purchase term plus the k lowest negative curves
    between the points ``lo`` and ``hi``: the larger of (i) the no-purchase term
    at ``hi`` plus the k lowest negative curves at ``lo``, and (ii) the least
    end value of the tangents, in u = 1/lam, taken at either end."""
    m = (lo.shape[1] - _CURVES) // 2
    bound = hi[:, _NO_BUY] + lo[:, _LOW]
    du = 1.0 / hi[:, _LAM] - 1.0 / lo[:, _LAM]  # u overflows below lam ~ 5.6e-309
    ok = np.isfinite(du)
    du = np.where(ok, du, 0.0)
    for end, step in ((lo, du), (hi, -du)):
        low = np.minimum(end[:, _CURVES:_CURVES + m] + end[:, _CURVES + m:] * step[:, None], 0.0)
        if k < m:
            low = np.partition(low, k - 1, axis=1)[:, :k]
        # NaN where an overflowed no-purchase term has no tangent
        tangents = end[:, _NO_BUY] + end[:, _NO_BUY_S] * step + low.sum(axis=1)
        bound = np.fmax(bound, np.where(ok, np.minimum(end[:, _NO_BUY] + end[:, _LOW], tangents),
                                        -np.inf))
    return bound


def _search(fam: _CurveFamily, t: float, items: np.ndarray, k: int, lo: float, hi: float,
            floor: float, best: _Best, counter: _EvalCounter) -> float:
    """Branch and bound over lam in (lo, hi] for the k lowest negative curves
    among ``items``, each selection counted only up to its dual cap (at least
    ``floor``).  Returns ``hi``, or the lam beyond which no selection is in cap.

    The search opens on 16 points, hi * 4^-j for j = 15..0 (geometric from lo
    to hi when lo > 0), so its first pass spans nine decades of lam.  The
    evaluated points cut (0, hi] into intervals.  One whose bound (see
    ``_bounds``) undercuts the best attained value by more than the tolerance
    is split: (0, b] at b/1024, any other into 16 parts, geometric while it
    spans more than a factor of two.  A pass costs a fixed run of small numpy
    calls whatever its width, so few wide passes beat many narrow ones.  Under
    the varying rule a selection's weight never rises with lam (the curves are
    ordered by -v as lam -> 0+, and each pair crosses at most once), so its cap
    falls: the least evaluated lam at or above its selection's cap ends the
    search, and if above, that cap is evaluated too.
    """
    v, k = fam.v[items], min(k, items.size)
    low_at_zero = np.sort(np.where(fam.r[items] > t, -v, 0.0))[:k].sum()  # lam -> 0+ limits
    cut = math.inf

    def visit(lam: np.ndarray) -> np.ndarray:
        """The points at the sorted ``lam``; each attained value is offered to
        ``best``, and the caps move the cut."""
        nonlocal cut
        counter.n += lam.size
        pts, selected = _points(fam, t, items, k, lam)
        value, caps = pts[:, _NO_BUY] + pts[:, _LOW], np.full(lam.size, math.inf)
        above = lam > floor
        if above.any():
            caps[above] = fam.caps(set_weights(np.where(selected[above].T, v[:, None], 0.0)))
        value[lam > caps] = math.inf
        i = int(np.argmin(value))
        best.offer(float(value[i]), items[selected[i]])
        ends = np.flatnonzero(lam >= caps)
        if ends.size and lam[ends[0]] < cut:
            cut = float(lam[ends[0]])
            if cut > caps[ends[0]]:
                pts = np.concatenate((pts, visit(caps[ends[:1]])))
        return pts

    def settle(nodes: np.ndarray, candidate: np.ndarray):
        """The nodes in order up to the cut, and which of the intervals ending at
        them stay open: the candidates whose bound undercuts the threshold."""
        order = np.argsort(nodes[:, _LAM], kind="stable")
        order = order[nodes[order, _LAM] <= cut]
        nodes, is_open, threshold = nodes[order], candidate[order], best.threshold()
        is_open[0] &= nodes[0, _NO_BUY] + low_at_zero < threshold and nodes[0, _LAM] / _ZERO_SPLIT > 0.0
        ends = np.flatnonzero(is_open[1:]) + 1
        a, b = nodes[ends - 1], nodes[ends]
        is_open[ends] = (b[:, _LAM] - a[:, _LAM] > _LEAST_WIDTH * b[:, _LAM]) & (
            _bounds(a, b, k) < threshold)
        return nodes, is_open

    grid = (np.geomspace(lo, hi, _GRID) if lo > 0.0
            else hi * 4.0 ** -np.arange(_GRID - 1.0, -1.0, -1.0))
    first = visit(grid[grid > 0.0])  # hi * 4^-15 underflows below hi ~ 5e-315
    nodes, is_open = settle(first, first[:, _LAM] > lo)  # interval 0 is (0, node 0]
    fractions = np.arange(1, _PARTS) / _PARTS
    while not best.achieved and is_open.any():
        lam = nodes[:, _LAM]
        ends = np.flatnonzero(is_open[1:]) + 1
        a, b = lam[ends - 1, None], lam[ends, None]
        inner = np.where(b > 2.0 * a, np.exp(np.log(a) + fractions * (np.log(b) - np.log(a))),
                         a + fractions * (b - a))
        new = visit(np.concatenate((lam[:1][is_open[:1]] / _ZERO_SPLIT, inner.ravel())))
        # each new point lies in the interval that ends at the next node
        nodes, is_open = settle(np.concatenate((nodes, new)), np.concatenate(
            (is_open, is_open[np.searchsorted(lam, new[:, _LAM])])))
    return min(cut, hi)


def _min_level_slack(fam: _CurveFamily, t: float, k: int, counter: _EvalCounter,
                     stop_below: float | None = None, tol: float | None = None):
    """Approximate min over (assortment, lam) of the selected curve sum at level t.

    Returns (value, items_1based, achieved), ``achieved`` when an attained value
    dipped below ``stop_below``.  The value is attained by the set (at level 0
    as its lam -> 0+ limit); without an early exit no candidate undercuts it by
    more than the tolerance of ``_Best``.  The candidates at each lam are its k
    lowest negative curves and, under the varying rule, the k heaviest ones.
    """
    idx = fam.active_items(t)
    # the weights of all active items and of the empty set, as masked columns
    cap_full, cap_empty = fam.caps(set_weights(
        np.stack((fam.v[idx], np.zeros(idx.size)), axis=1))).tolist()
    if not cap_empty > 0.0:
        return math.inf, (), False
    counter.n += 1
    best = _Best(float(fam.no_purchase(t, cap_empty)[0]), stop_below, tol)
    if t == 0.0:
        # the no-purchase term is constant and no curve falls as lam grows, so the
        # infimum is the lam -> 0+ limit, where each curve with r > 0 is -v
        limits = np.where(fam.r[idx] > 0.0, -fam.v[idx], 0.0)
        take = np.argsort(limits, kind="stable")[:k]
        take = take[limits[take] < 0.0]
        best.offer(math.expm1(fam.shift) + float(limits[take].sum()), idx[take])
    elif idx.size and not best.achieved:
        # every set weighs at least the empty set, so its cap is at least cap_empty
        end = _search(fam, t, idx, k, 0.0, cap_full if cap_full > 0.0 else cap_empty, cap_empty,
                      best, counter)
        if not best.achieved and fam.varying and idx.size > k:
            # the k heaviest negative curves (at the zero shift, those with r > t),
            # ties broken by position, beyond ``end``: up to it every set is bounded
            by_weight = idx[np.lexsort((idx, -fam.v[idx]))]
            heavy = np.sort(by_weight[fam.r[by_weight] > t][:k])
            cap = float(fam.caps(set_weights(fam.v[heavy][:, None]))[0])
            if heavy.size and cap > end:
                _search(fam, t, heavy, k, end, cap, cap, best, counter)
    return best.value, best.items, best.achieved


def evaluate_level_slack(model: MnlModel, k: int, spec: RadiusSpec, level: float):
    """Minimal total level slack at ``level`` and an assortment attaining it.

    An active item whose revenue equals the level is never selected: its curve
    is zero.  So under the varying rule the value is the least over sets of items
    with r > level, and it can lie above the least over all sets of active items,
    since such an item raises a set's weight and with it the set's dual cap.
    Whether the level is feasible does not change: a zero curve leaves the slack
    at each lam as it is, and the cap only prunes.
    """
    if not 0.0 <= level <= model.r_max:
        raise ValueError("level must lie in [0, r_max]")
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    return _min_level_slack(fam, level, k, _EvalCounter())[:2]


def plan_general(model: MnlModel, k: int, spec: RadiusSpec,
                 eps: float | None = None) -> PlanResult:
    """eps-optimal robust assortment by a witness-driven search over revenue levels.

    The best of k + 9 candidate sets seeds the search with its value from their
    one ``robust_values`` batch, which is its own robust revenue bit for bit:
    the first lower end, with the first probe eps/2 above it (r_max/2 when no
    candidate scores above 0).  The candidates are the revenue-ordered prefixes
    of size <= k, the top-k set by attraction and the zero-radius probe's set at
    t = j * r_max / 8 for j = 0..7; ties go to the first, so a prefix wins a
    tie.  A probe at level t returns whether t is feasible, whether its slack
    misses the target by at most the inner tolerance ("near", which ends the
    search), and a witness set.  The best set seen is returned.  The search
    ends when the bracket is at most eps/2 wide; eps defaults to 1e-5 * r_max (``_EPS_REL``).
    """
    if not 1 <= k <= model.n_items:
        raise ValueError(f"k must lie in 1..{model.n_items}")
    if eps is None:
        eps = _EPS_REL * model.r_max
    if not eps > 0.0:
        raise ValueError("eps must be positive")

    counter = _EvalCounter()
    if spec.is_zero:
        def probe(t: float):
            counter.n += 1
            sets, gains = _nominal_sets(model, k, np.array([t]))
            gain = float(gains[0, gains[0] > 0.0].sum())  # in order, largest first
            return gain >= t, False, _items(sets[0])
    else:
        fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
        eps_inner = eps / (4.0 * float(fam.caps(set_weights(np.empty((0, 1))))[0]))

        def probe(t: float):
            slack, items, achieved = _min_level_slack(fam, t, k, counter, stop_below=fam.target,
                                                      tol=eps_inner)
            return achieved, not achieved and slack <= fam.target + eps_inner, items

    seeds = np.concatenate((_prefixes(_top(model.revenues, k)), _top(model.attractions, k)[None],
                            _nominal_sets(model, k, model.r_max / _PROBES * np.arange(_PROBES))[0]))
    best_items, best_val = _best_row(model, seeds, spec)
    t_lo, t_hi = best_val, model.r_max
    mid = 0.5 * (t_lo + t_hi)
    t = min(t_lo + eps / 2.0, mid) if t_lo > 0.0 else mid
    while True:
        feasible, near, items = probe(t)
        if items and items != best_items:
            val = float(robust_values(model, [items], spec)[0])
            if val > best_val:
                best_items, best_val = items, val
        if feasible:
            t_lo = max(t, best_val)
        else:
            t_hi = t
        if near or t_hi <= t_lo + eps / 2.0:
            break
        mid = 0.5 * (t_lo + t_hi)
        # after a jump past t, test just above the new lower end
        t = min(t_lo + eps / 2.0, mid) if t_lo > t else mid
    return PlanResult(assortment=best_items, value=best_val, evaluations=counter.n,
                      best_effort=not eps < best_val / 2.0)


def _top(key: np.ndarray, k: int) -> np.ndarray:
    """1-based ids of the k largest entries of ``key``, largest first, ties
    broken by position."""
    return np.lexsort((np.arange(key.size), -key))[:k].astype(np.int32) + 1


def _prefixes(order: np.ndarray) -> np.ndarray:
    """The prefixes of ``order``, shortest first, as rows padded with 0."""
    return np.where(np.tri(order.size, dtype=bool), order, 0)


def _nominal_sets(model: MnlModel, k: int, levels: np.ndarray):
    """The zero-radius probe's set at each level t of ``levels`` (the k largest
    gains v_i (r_i - t) > 0, ties broken by position) as rows of 1-based ids
    padded with 0, and the k largest gains in the same order."""
    gains = model.attractions * (model.revenues - levels[:, None])
    order = np.argsort(-gains, axis=1, kind="stable")[:, :k]
    gains = np.take_along_axis(gains, order, axis=1)
    return np.where(gains > 0.0, order + 1, 0), gains


def _items(row: np.ndarray) -> tuple[int, ...]:
    """The sorted item ids of a row padded with 0."""
    return tuple(sorted(row[row > 0].tolist()))


def _best_row(model: MnlModel, rows: np.ndarray, spec: RadiusSpec):
    """The best of the sets ``rows`` (ties to the first row) and its value, from one
    ``robust_values`` batch; the empty set and 0 when none scores above 0."""
    values = robust_values(model, rows, spec)
    best = int(np.argmax(values))
    if not values[best] > 0.0:
        return (), 0.0
    return _items(rows[best]), float(values[best])


def plan_unconstrained(model: MnlModel, spec: RadiusSpec) -> PlanResult:
    """Exact unconstrained planner: the optimum is a revenue-ordered prefix."""
    items, value = _best_row(model, _prefixes(_top(model.revenues, model.n_items)), spec)
    return PlanResult(assortment=items, value=value, evaluations=model.n_items)


def plan_uniform_revenue(model: MnlModel, k: int, spec: RadiusSpec) -> PlanResult:
    """Exact planner for uniform revenues: take the k largest attractions."""
    if not 1 <= k <= model.n_items:
        raise ValueError(f"k must lie in 1..{model.n_items}")
    if np.ptp(model.revenues) > 1e-12 * model.r_max:
        raise ValueError("plan_uniform_revenue requires (near-)uniform revenues")
    items, value = _best_row(model, _top(model.attractions, k)[None], spec)
    return PlanResult(assortment=items, value=value, evaluations=1)


def plan_bruteforce(model: MnlModel, k: int, spec: RadiusSpec) -> PlanResult:
    """Exhaustive oracle: scores every assortment of size <= k in one kernel call
    per ``_BRUTE_SETS`` sets, each value the set's own robust revenue bit for bit.
    Ties within a hair of the maximum break to the lexicographically smallest
    sorted item tuple (so the empty set, which scores 0, wins exact ties)."""
    n = model.n_items
    if n > 22:
        raise ValueError("plan_bruteforce is limited to n_items <= 22")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")
    # rows by size from the empty set up, lexicographic within a size, zero-padded to k
    sizes = np.repeat(np.arange(k + 1), [math.comb(n, size) for size in range(k + 1)])
    sets = np.zeros((sizes.size, k), dtype=np.intp)
    for size in range(1, k + 1):
        sets[sizes == size, :size] = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), size)),
            dtype=np.intp).reshape(-1, size)
    values = np.concatenate([robust_values(model, sets[i:i + _BRUTE_SETS], spec)
                             for i in range(0, len(sets), _BRUTE_SETS)])
    # the lexicographically smallest tied set: the first tied row of each size, then min
    tied = np.nonzero(values >= values.max() - 1e-10 * model.r_max)[0]
    firsts = tied[np.unique(sizes[tied], return_index=True)[1]]
    winner, best_val = min((tuple(sets[i, :sizes[i]].tolist()), float(values[i])) for i in firsts)
    return PlanResult(assortment=winner, value=best_val, evaluations=values.size)


def plan(model: MnlModel, k: int, spec: RadiusSpec, eps: float | None = None) -> PlanResult:
    """Dispatch to the cheapest exact planner that applies, else ``plan_general``;
    a given ``eps`` must be positive on every path."""
    if not (eps is None or eps > 0.0):
        raise ValueError("eps must be positive")
    k = min(k, model.n_items)  # a larger k plans the unconstrained optimum on every path
    if np.ptp(model.revenues) <= 1e-12 * model.r_max:
        return plan_uniform_revenue(model, k, spec)
    if k >= model.n_items:
        return plan_unconstrained(model, spec)
    return plan_general(model, k, spec, eps)
