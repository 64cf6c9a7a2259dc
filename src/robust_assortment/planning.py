"""Optimal robust assortment planning.

The general planner searches the revenue level ``t``.  A level is feasible
exactly when some assortment has robust revenue >= t, and every probed level
yields a witness set whose own robust revenue certifies a level too: a
feasible probe lifts the search to its witness's value (Dinkelbach's step) and
checks just above it next, an infeasible one halves the bracket.  The plan is
the best witness, so its certified level is its value.  At the zero radius a
probe is the nominal top-k rule.  Otherwise, whether a level is feasible
reduces to driving a sum of per-item level-slack curves below a target
constant.  Curve pairs cross at most once for positive dual values; each
crossing is bracketed, then found by a monotone Newton iteration in 1/lam.
Between consecutive crossing abscissas the best-K selection is constant, and
it changes only where a swap crosses the K-th place, so consecutive intervals
that select the same set form a run.  A fixed set's curve sum is
quasi-convex on all lam > 0, so one exact step per run, bisecting on the
derivative sign over the whole run, finds its minimum there.  Each level
screens its runs in bulk, a block at a time, against a conservative lower
bound, and runs the exact step only on the runs the bound cannot rule out,
each up to its own dual cap.  The varying-radius rule also tries its k
heaviest negative curves, one set per level, screened as one run over the
whole level.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import MnlModel, set_weights
from .radius import RadiusSpec
from .robust import robust_values

_EXP_CAP = 700.0  # exp argument clip; saturated values are never minimizers
_LEAST_LAM = math.ulp(0.0)  # the least positive float
# Curve values per bulk block of intervals or runs.  A level has up to m^2/2
# intervals; blocks keep its scratch arrays at tens of kB.  Blocks of 2^14
# entries ran no faster and raised the peak RSS of the plan bench by 3.5%.
_BLOCK_ENTRIES = 1 << 12
# A bulk lower bound is loosened by this share of its terms' magnitudes, far
# above the rounding that separates it from the exact fsum bound.
_SCREEN_REL = 1e-9


@dataclass(frozen=True)
class PlanResult:
    """An (eps-)optimal assortment and its robust revenue.

    ``certified_level`` is the revenue level the assortment certifies; it
    equals ``value`` for every planner here.  ``evaluations`` counts the
    planner's work: scored sets for the exact planners; for the general one,
    one per probed level, and at a nonzero radius also one per crossing
    interval's selection and one per curve-sum or slope evaluation of the
    exact steps.
    """

    assortment: tuple[int, ...]
    value: float
    certified_level: float
    evaluations: int = 0
    best_effort: bool = False

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

    def curve_values(self, idx: np.ndarray, level: float, lam) -> np.ndarray:
        """Curves ``idx`` at ``lam``; a column of lam values gives one row per value.
        Float warnings are silenced: lam = 0 gives -v where r > level, NaN where equal."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self.v[idx] * np.expm1((level - self.r[idx]) / lam + self.shift)


def _sum_curves(vs, rs, t: float, shift: float, lam: float) -> float:
    """Selected-curve sum including the mandatory no-purchase term."""
    acc = math.exp(min(t / lam + shift, _EXP_CAP)) - 1.0
    for v, r in zip(vs, rs):
        acc += v * (math.exp(min((t - r) / lam + shift, _EXP_CAP)) - 1.0)
    return acc


def _sum_slopes(vs, rs, t: float, shift: float, lam: float) -> float:
    """Sign-of-derivative helper; increasing in lam so one sign change at most."""
    acc = -t * math.exp(min(t / lam + shift, _EXP_CAP))
    for v, r in zip(vs, rs):
        acc += v * (r - t) * math.exp(min((t - r) / lam + shift, _EXP_CAP))
    return acc


def _limit_at_zero(vs, rs, shift: float) -> float:
    """lam -> 0+ limit of the curve sum at level t == 0."""
    acc = math.expm1(shift)
    for v, r in zip(vs, rs):
        acc += v * math.expm1(shift) if r == 0.0 else -v
    return acc


def _minimize_on(vs, rs, t, shift, lo, hi, counter: _EvalCounter):
    """Minimize the quasi-convex curve sum over [lo, hi] by slope-sign bisection,
    on log(lam) while the bracket spans decades."""
    if lo <= 0.0:
        if t == 0.0:
            slope_hi = _sum_slopes(vs, rs, t, shift, hi)
            counter.n += 1
            if slope_hi <= 0.0:
                counter.n += 1
                return hi, _sum_curves(vs, rs, t, shift, hi)
            # slope is nonnegative throughout at t == 0: minimum at the origin
            return 0.0, _limit_at_zero(vs, rs, shift)
        # the slope diverges to -inf as lam -> 0+ when t > 0: step lo down by
        # factors 2, 4, 16, ... to the least subnormal, and keep the step above
        lo = hi
        step = 0.5
        for _ in range(12):
            above, lo = lo, max(lo * step, _LEAST_LAM)
            step *= step
            counter.n += 1
            if _sum_slopes(vs, rs, t, shift, lo) < 0.0:
                hi = above
                break
    else:
        counter.n += 1
        slope_lo = _sum_slopes(vs, rs, t, shift, lo)
        if slope_lo >= 0.0:
            counter.n += 1
            return lo, _sum_curves(vs, rs, t, shift, lo)
    counter.n += 1
    if _sum_slopes(vs, rs, t, shift, hi) <= 0.0:
        counter.n += 1
        return hi, _sum_curves(vs, rs, t, shift, hi)
    for _ in range(110):
        if hi - lo <= 1e-15 * hi:
            break
        # geometric midpoints while [lo, hi] spans more than a factor of 2
        mid = math.sqrt(lo) * math.sqrt(hi) if 0.0 < 2.0 * lo < hi else 0.5 * (lo + hi)
        counter.n += 1
        if _sum_slopes(vs, rs, t, shift, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    counter.n += 1
    return lam, _sum_curves(vs, rs, t, shift, lam)


@functools.lru_cache(maxsize=16)
def _pair_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of the pairs i < j among m curves."""
    pairs = np.triu_indices(m, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


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
    iu, ju = _pair_index(m)
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


def _dedup_sorted(xs: np.ndarray, rel: float = 1e-12) -> list[float]:
    """Drop each point within ``rel * max(1, x)`` of the last point kept."""
    if np.all(np.diff(xs) > rel * np.maximum(1.0, xs[1:])):
        return xs.tolist()  # every gap clears: all points are kept
    out: list[float] = []
    for x in xs:
        if not out or x - out[-1] > rel * max(1.0, x):
            out.append(float(x))
    return out


def intersection_points(level: float, model: MnlModel, spec: RadiusSpec) -> list[float]:
    """Sorted positive crossing abscissas among the active level-slack curves."""
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    idx = fam.active_items(level)
    xs = _pair_crossings(fam.v[idx], fam.r[idx], level, fam.shift)
    return _dedup_sorted(xs)


def _min_level_slack(fam: _CurveFamily, t: float, k: int, counter: _EvalCounter,
                     stop_below: float | None = None):
    """Approximate min over (assortment, lam) of the selected curve sum at level t.

    Returns (value, items_1based, achieved) where ``achieved`` reports an early
    exit because a candidate dipped below ``stop_below``.  The reported value
    is always attained by the reported candidate, so it upper-bounds the true
    minimum; pruned runs are provably no better than the result.
    """
    idx = fam.active_items(t)
    # the weights of all active items and of the empty set, as masked rows
    cap_full, cap_empty = fam.caps(set_weights([fam.v[idx], np.zeros(idx.size)])).tolist()
    if not cap_empty > 0.0:
        return math.inf, (), False
    lam_cap = cap_full if cap_full > 0.0 else cap_empty

    counter.n += 1
    best_val = _sum_curves([], [], t, fam.shift, cap_empty)
    best_items: tuple[int, ...] = ()
    if stop_below is not None and best_val < stop_below:
        return best_val, best_items, True

    def screened_steps(lefts, rights, chosen) -> bool:
        """The exact step of each run whose bound undercuts the running best, over
        (left, hi]; True on an early exit."""
        nonlocal best_val, best_items
        bound, his = _screen_runs(fam, idx, t, lefts, rights, chosen)
        low, his = bound.tolist(), his.tolist()
        for i in np.flatnonzero(bound < best_val).tolist():
            if low[i] >= best_val:  # the best has dropped below it since
                continue
            cand = idx[chosen[i]]
            _, val = _minimize_on(fam.v[cand].tolist(), fam.r[cand].tolist(), t, fam.shift,
                                  float(lefts[i]), his[i], counter)
            if val < best_val:
                best_val, best_items = val, tuple((cand + 1).tolist())
                if stop_below is not None and best_val < stop_below:
                    return True
        return False

    lefts, rights = _level_intervals(fam, idx, t, k, lam_cap)
    counter.n += rights.size  # one selection per interval
    edges, chosen = _level_runs(fam, idx, t, k, lefts, rights)
    run_lefts, run_rights = lefts[edges[:-1]], rights[edges[1:] - 1]
    rows = max(1, _BLOCK_ENTRIES // max(1, idx.size))
    for start in range(0, run_lefts.size, rows):
        block = slice(start, start + rows)
        if screened_steps(run_lefts[block], run_rights[block], chosen[block]):
            return best_val, best_items, True
    if fam.varying and idx.size > k:
        # the varying rule's heavy set is one run over all the intervals: it is
        # one set per level, and its curve sum is quasi-convex
        heavy = np.zeros((1, idx.size), dtype=bool)
        heavy[0, _heavy_set(fam, idx, t, k)] = True
        if heavy.any() and screened_steps(lefts[:1], rights[-1:], heavy):
            return best_val, best_items, True
    return best_val, best_items, False


def _level_intervals(fam: _CurveFamily, idx: np.ndarray, t: float, k: int, lam_cap: float):
    """(lefts, rights) of the intervals of (0, lam_cap] between the crossings and,
    for a constant radius, the points (r - t) / rho where a curve changes sign."""
    breakpoints: list[np.ndarray] = []
    if idx.size > k:
        breakpoints.append(_pair_crossings(fam.v[idx], fam.r[idx], t, fam.shift))
    if fam.shift > 0.0 and idx.size > 0:
        gaps = fam.r[idx] - t
        breakpoints.append(gaps[gaps > 0.0] / fam.shift)
    pts = np.concatenate(breakpoints) if breakpoints else np.empty(0)
    pts = pts[(pts > 0.0) & (pts < lam_cap)]
    rights = np.array(_dedup_sorted(np.sort(pts)) + [lam_cap])
    return np.concatenate(([0.0], rights[:-1])), rights


def _heavy_set(fam: _CurveFamily, idx: np.ndarray, t: float, k: int) -> np.ndarray:
    """The varying rule's second candidate: the sorted positions of its k
    heaviest negative curves, ties broken by position.  At the rule's zero
    shift a curve is negative for every lam exactly where r > t, so this is
    one set per level."""
    by_weight = np.lexsort((idx, -fam.v[idx]))
    return np.sort(by_weight[fam.r[idx[by_weight]] > t][:k])


def _level_runs(fam: _CurveFamily, idx: np.ndarray, t: float, k: int,
                lefts: np.ndarray, rights: np.ndarray):
    """Group the intervals (lefts[i], rights[i]) into runs of consecutive ones
    that select the same set: the k lowest negative curves at the interval's
    midpoint, ties broken by position.

    Returns ``edges``, run j being intervals edges[j] to edges[j + 1] - 1, and
    ``chosen``, whose row j masks run j's set over the active curves.
    """
    m = idx.size
    rows = max(1, _BLOCK_ENTRIES // max(1, m))
    firsts, keys = [np.empty(0, dtype=np.intp)], [np.empty((0, m), dtype=bool)]
    last = None  # the selection of the last block's last interval
    for start in range(0, rights.size, rows):
        block = slice(start, start + rows)
        gm = fam.curve_values(idx, t, (0.5 * (lefts[block] + rights[block]))[:, None])
        # the k lowest negative curves; lexsort((idx, gm)) is this stable sort
        order = np.argsort(gm, axis=1, kind="stable")
        key = order.argsort(axis=1) < np.minimum((gm < 0.0).sum(axis=1), k)[:, None]
        new = np.ones(key.shape[0], dtype=bool)
        new[1:] = (key[1:] != key[:-1]).any(axis=1)
        new[0] = last is None or bool((key[0] != last).any())
        firsts.append(start + np.flatnonzero(new))
        keys.append(key[new])
        last = key[-1]
    return np.append(np.concatenate(firsts), rights.size), np.concatenate(keys)


def _screen_runs(fam: _CurveFamily, idx: np.ndarray, t: float,
                 lefts: np.ndarray, rights: np.ndarray, chosen: np.ndarray):
    """Bound the sets of the runs (lefts[j], rights[j]) from below.

    Row j of ``chosen`` masks run j's set over the active curves; its dual cap
    ends the run at hi[j] = min(rights[j], cap).  Returns ``bound``, below the
    exact fsum lower bound of run j's set on (lefts[j], hi[j]], or inf where
    the cap is at or below the left end (0, an infeasible radius, included),
    and ``hi``.  A set's curves do not decrease in lam and its no-purchase
    term does not rise, so the bound holds on the whole of (lefts[j], hi[j]].
    """
    v = fam.v[idx]
    left_vals = fam.curve_values(idx, t, lefts[:, None])
    left_vals[lefts == 0.0] = -v  # the lam -> 0+ limit of every active curve
    cap = fam.caps(set_weights(np.where(chosen, v, 0.0)))
    hi = np.minimum(rights, cap)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        no_purchase = np.exp(np.minimum(t / hi + fam.shift, _EXP_CAP)) - 1.0
    selected = np.where(chosen, left_vals, 0.0)
    lower = no_purchase + selected.sum(axis=1) - _SCREEN_REL * (
        no_purchase + np.abs(selected).sum(axis=1))  # no_purchase >= 0: t, shift >= 0
    return np.where(cap > lefts, lower, np.inf), hi


def evaluate_level_slack(model: MnlModel, k: int, spec: RadiusSpec, level: float):
    """Minimal total level slack at ``level`` and an assortment attaining it."""
    if not 0.0 <= level <= model.r_max:
        raise ValueError("level must lie in [0, r_max]")
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    counter = _EvalCounter()
    value, items, _ = _min_level_slack(fam, level, k, counter)
    return value, items


def plan_general(model: MnlModel, k: int, spec: RadiusSpec, eps: float) -> PlanResult:
    """eps-optimal robust assortment by a witness-driven search over revenue levels.

    A probe at level t returns whether t is feasible, whether its slack misses
    the target by at most the inner tolerance ("near", which ends the search),
    and a witness set.  The best witness seen is returned; ``certified_level``
    is its value.  The search ends when the bracket is at most eps/2 wide.
    """
    n = model.n_items
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    if not eps > 0.0:
        raise ValueError("eps must be positive")

    counter = _EvalCounter()
    if spec.is_zero:
        v, r = model.attractions, model.revenues

        def probe(t: float):
            counter.n += 1
            scores = v * (r - t)
            pos = np.nonzero(scores > 0.0)[0]
            take = pos[np.lexsort((pos, -scores[pos]))][:k]
            return float(scores[take].sum()) >= t, False, tuple(sorted(int(i) + 1 for i in take))
    else:
        fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
        eps_inner = eps / (4.0 * float(fam.caps(set_weights(np.empty((1, 0))))[0]))

        def probe(t: float):
            slack, items, achieved = _min_level_slack(fam, t, k, counter, stop_below=fam.target)
            return achieved, not achieved and slack <= fam.target + eps_inner, items

    best_items, best_val = (), 0.0
    t_lo, t_hi = 0.0, model.r_max
    t = 0.5 * t_hi
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
    return PlanResult(assortment=best_items, value=best_val, certified_level=best_val,
                      evaluations=counter.n, best_effort=not eps < best_val / 2.0)


def plan_unconstrained(model: MnlModel, spec: RadiusSpec) -> PlanResult:
    """Exact unconstrained planner: the optimum is a revenue-ordered prefix."""
    n = model.n_items
    order = np.lexsort((np.arange(n), -model.revenues)).astype(np.int32) + 1  # by (-r_i, i)
    values = robust_values(model, np.where(np.tri(n, dtype=bool), order, 0), spec)
    depth = int(np.argmax(values))  # the shortest of the best prefixes
    if not values[depth] > 0.0:
        return PlanResult(assortment=(), value=0.0, certified_level=0.0, evaluations=n)
    best_val = float(values[depth])
    return PlanResult(assortment=tuple(sorted(order[:depth + 1].tolist())), value=best_val,
                      certified_level=best_val, evaluations=n)


def plan_uniform_revenue(model: MnlModel, k: int, spec: RadiusSpec) -> PlanResult:
    """Exact planner for uniform revenues: take the k largest attractions."""
    if not 1 <= k <= model.n_items:
        raise ValueError(f"k must lie in 1..{model.n_items}")
    r = model.revenues
    if float(np.max(r) - np.min(r)) > 1e-12 * model.r_max:
        raise ValueError("plan_uniform_revenue requires (near-)uniform revenues")
    order = sorted(range(1, model.n_items + 1), key=lambda i: (-model.attractions[i - 1], i))
    items = tuple(sorted(order[:k]))
    val = float(robust_values(model, [items], spec)[0])
    if val <= 0.0:
        return PlanResult(assortment=(), value=0.0, certified_level=0.0, evaluations=1)
    return PlanResult(assortment=items, value=val, certified_level=val, evaluations=1)


def plan_bruteforce(model: MnlModel, k: int, spec: RadiusSpec) -> PlanResult:
    """Exhaustive oracle: evaluates every assortment of size <= k.

    Ties within a hair of the maximum break to the lexicographically smallest
    sorted item tuple (so the empty set wins exact ties).
    """
    n = model.n_items
    if n > 22:
        raise ValueError("plan_bruteforce is limited to n_items <= 22")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}")
    # one kernel call per set size; combinations come in lexicographic order
    by_size = [(np.zeros((1, 0), dtype=np.intp), np.zeros(1))]  # the empty set scores 0
    for size in range(1, k + 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), size)),
            dtype=np.intp).reshape(-1, size)
        by_size.append((combos, robust_values(model, combos, spec)))
    best_val = max(float(values.max()) for _, values in by_size)
    tie = 1e-10 * model.r_max
    # the lexicographically smallest tied set: the first tied row of each size, then min
    tied = []
    for combos, values in by_size:
        rows = np.nonzero(values >= best_val - tie)[0]
        if rows.size:
            tied.append((tuple(combos[rows[0]].tolist()), float(values[rows[0]])))
    winner, best_val = min(tied)
    return PlanResult(assortment=winner, value=best_val, certified_level=best_val,
                      evaluations=sum(values.size for _, values in by_size))


def plan(model: MnlModel, k: int, spec: RadiusSpec, eps: float | None = None) -> PlanResult:
    """Dispatch to the cheapest exact planner that applies, else the general one."""
    if eps is None:
        eps = 1e-6 * model.r_max
    r = model.revenues
    if float(np.max(r) - np.min(r)) <= 1e-12 * model.r_max:
        return plan_uniform_revenue(model, k, spec)
    if k >= model.n_items:
        return plan_unconstrained(model, spec)
    return plan_general(model, k, spec, eps)
