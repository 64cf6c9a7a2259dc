"""Optimal robust assortment planning.

The general planner runs an outer bisection on the revenue level ``t``.  For
a fixed level, whether some assortment attains robust revenue >= t reduces to
driving a sum of per-item level-slack curves below a target constant.  Curve
pairs cross at most once for positive dual values, so between consecutive
crossing abscissas the best-K selection is constant and the selected sum is
quasi-convex, minimized by bisecting on its derivative sign.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import MnlModel, nominal_expected_revenue
from .radius import RadiusSpec
from .robust import robust_revenue, robust_values

_EXP_CAP = 700.0  # exp argument clip; saturated values are never minimizers


@dataclass(frozen=True)
class PlanResult:
    """An (eps-)optimal assortment with its re-evaluated robust revenue."""

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

    def cap(self, weight_s: float) -> float | None:
        """Dual upper bound B(S) from the total attraction of S_+ (None if infeasible)."""
        rho = self.spec.radius_from_weight(weight_s)
        return None if rho == math.inf else self.r_max / rho

    def active_items(self, level: float) -> np.ndarray:
        """0-based indices of items whose revenue clears the level."""
        return np.nonzero(self.r >= level)[0]

    def curve_values(self, idx: np.ndarray, level: float, lam: float) -> np.ndarray:
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


def _limit_at_zero(vs, rs, t: float, shift: float) -> float:
    """lam -> 0+ limit of the curve sum; finite only when t == 0."""
    if t > 0.0:
        return math.inf
    acc = math.expm1(shift)
    for v, r in zip(vs, rs):
        acc += v * math.expm1(shift) if r == 0.0 else -v
    return acc


def _minimize_on(vs, rs, t, shift, lo, hi, counter: _EvalCounter):
    """Minimize the quasi-convex curve sum over [lo, hi] by slope-sign bisection."""
    if lo <= 0.0:
        if t == 0.0:
            slope_hi = _sum_slopes(vs, rs, t, shift, hi)
            counter.n += 1
            if slope_hi <= 0.0:
                counter.n += 1
                return hi, _sum_curves(vs, rs, t, shift, hi)
            # slope is nonnegative throughout at t == 0: minimum at the origin
            return 0.0, _limit_at_zero(vs, rs, t, shift)
        slope_lo = -1.0  # diverges to -inf as lam -> 0+ when t > 0
        lo = hi
        for _ in range(200):
            lo *= 0.5
            counter.n += 1
            if _sum_slopes(vs, rs, t, shift, lo) < 0.0:
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
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * hi:
            break
        counter.n += 1
        if _sum_slopes(vs, rs, t, shift, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    counter.n += 1
    return lam, _sum_curves(vs, rs, t, shift, lam)


def _pair_crossings(v: np.ndarray, r: np.ndarray, t: float, shift: float) -> np.ndarray:
    """Positive crossing abscissas among the active curves, one per pair at most.

    The crossing equation reduces to driving a rise-then-fall (or monotone)
    function through a fixed level from below, so each root is bracketed and
    bisected; the whole pair population is processed vectorized.
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

    def psi(lam):
        return av * np.exp((t - ar) / lam) - bv * np.exp((t - br) / lam) - cs

    psi0 = np.where(ar == t, av, 0.0) - np.where(br == t, bv, 0.0) - cs
    psi_inf = (av - bv) * (-math.expm1(-shift))
    big_a = av * (ar - t)
    big_b = bv * (br - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(big_b) - np.log(big_a)
        lam_crit = (br - ar) / log_ratio
    has_crit = (big_a > 0) & (big_b > 0) & (ar != br) & (lam_crit > 0) & np.isfinite(lam_crit)
    peak_val = np.full(av.shape, -np.inf)
    if np.any(has_crit):
        lc = np.where(has_crit, lam_crit, 1.0)
        peak_val = np.where(has_crit & (ar < br), psi(lc), -np.inf)

    has_root = (psi0 < 0.0) & ((peak_val > 0.0) | (psi_inf > 0.0))
    if not np.any(has_root):
        return np.empty(0)
    av, ar, bv, br, cs = av[has_root], ar[has_root], bv[has_root], br[has_root], cs[has_root]
    start = np.where(
        has_crit[has_root], np.where(has_crit, lam_crit, 1.0)[has_root],
        np.maximum(ar - t, br - t),
    )

    hi = start.copy()
    for _ in range(300):
        low_side = psi(hi) <= 0.0
        if not np.any(low_side):
            break
        hi[low_side] *= 2.0
    bracketed = psi(hi) > 0.0
    av, ar, bv, br, cs, hi = (
        av[bracketed], ar[bracketed], bv[bracketed], br[bracketed], cs[bracketed], hi[bracketed],
    )
    if av.size == 0:
        return np.empty(0)
    lo = hi.copy()
    for _ in range(300):
        high_side = psi(lo) >= 0.0
        if not np.any(high_side):
            break
        lo[high_side] *= 0.5
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        pos = psi(mid) >= 0.0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
        if np.all(hi - lo <= 1e-15 * hi):
            break
    return np.sort(0.5 * (lo + hi))


def _dedup_sorted(xs: np.ndarray, rel: float = 1e-12) -> list[float]:
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
    minimum; pruned intervals are provably no better than the result.
    """
    idx = fam.active_items(t)
    weight_full = 1.0 + float(fam.v[idx].sum())
    cap_full = fam.cap(weight_full)
    cap_empty = fam.cap(1.0)
    if cap_empty is None:
        return math.inf, (), False
    lam_cap = cap_full if cap_full is not None else cap_empty

    counter.n += 1
    best_val = _sum_curves([], [], t, fam.shift, cap_empty)
    best_items: tuple[int, ...] = ()
    if stop_below is not None and best_val < stop_below:
        return best_val, best_items, True

    breakpoints: list[np.ndarray] = []
    if idx.size > k:
        breakpoints.append(_pair_crossings(fam.v[idx], fam.r[idx], t, fam.shift))
    if fam.shift > 0.0 and idx.size > 0:
        gaps = fam.r[idx] - t
        breakpoints.append(gaps[gaps > 0.0] / fam.shift)
    pts = np.concatenate(breakpoints) if breakpoints else np.empty(0)
    pts = pts[(pts > 0.0) & (pts < lam_cap)]
    grid = _dedup_sorted(np.sort(pts))
    grid.append(lam_cap)

    item_ids = idx + 1
    prev = 0.0
    for right in grid:
        if right - prev < 1e-14:
            prev = right
            continue
        mid = 0.5 * (prev + right)
        gm = fam.curve_values(idx, t, mid)
        counter.n += 1
        order = np.lexsort((idx, gm))
        chosen = [j for j in order if gm[j] < 0.0][:k]
        candidates = [chosen]
        if fam.varying and idx.size > k:
            by_weight = np.lexsort((idx, -fam.v[idx]))
            heavy = [j for j in by_weight if gm[j] < 0.0][:k]
            if sorted(heavy) != sorted(chosen):
                candidates.append(heavy)
        for cand in candidates:
            weight_s = 1.0 + float(fam.v[idx[cand]].sum()) if cand else 1.0
            cap_s = fam.cap(weight_s)
            if cap_s is None or cap_s < prev:
                continue
            hi = min(right, cap_s)
            if hi <= prev and prev > 0.0:
                continue
            vs = fam.v[idx[cand]].tolist()
            rs = fam.r[idx[cand]].tolist()
            left_vals = [-v0 for v0 in vs] if prev == 0.0 else fam.curve_values(
                idx[cand], t, prev).tolist()
            counter.n += 1
            lower_bound = _sum_curves([], [], t, fam.shift, hi) + math.fsum(left_vals)
            if lower_bound >= best_val:
                continue
            _, val = _minimize_on(vs, rs, t, fam.shift, prev, hi, counter)
            if val < best_val:
                best_val = val
                best_items = tuple(sorted(int(item_ids[j]) for j in cand))
                if stop_below is not None and best_val < stop_below:
                    return best_val, best_items, True
        prev = right
    return best_val, best_items, False


def evaluate_level_slack(model: MnlModel, k: int, spec: RadiusSpec, level: float):
    """Minimal total level slack at ``level`` and an assortment attaining it."""
    if not 0.0 <= level <= model.r_max:
        raise ValueError("level must lie in [0, r_max]")
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    counter = _EvalCounter()
    value, items, _ = _min_level_slack(fam, level, k, counter)
    return value, items


def _plan_nominal(model: MnlModel, k: int, eps: float) -> PlanResult:
    """Exact-feasibility bisection planner for the zero-radius (nominal) case."""
    v, r = model.attractions, model.revenues
    counter = 0

    def best_set_at(t: float) -> tuple[tuple[int, ...], float]:
        scores = v * (r - t)
        pos = np.nonzero(scores > 0.0)[0]
        take = pos[np.lexsort((pos, -scores[pos]))][:k]
        return tuple(sorted(int(i) + 1 for i in take)), float(scores[take].sum())

    t_lo, t_hi = 0.0, model.r_max
    steps = max(1, math.ceil(math.log2(4.0 * model.r_max / eps)))
    for _ in range(steps):
        t_mid = 0.5 * (t_lo + t_hi)
        counter += 1
        _, gain = best_set_at(t_mid)
        if gain >= t_mid:
            t_lo = t_mid
        else:
            t_hi = t_mid
    items, _ = best_set_at(t_lo)
    value = nominal_expected_revenue(model, items)
    if value <= 0.0:
        items, value = (), 0.0
    return PlanResult(assortment=items, value=value, certified_level=min(t_lo, value),
                      evaluations=counter, best_effort=not eps < value / 2.0)


def plan_general(model: MnlModel, k: int, spec: RadiusSpec, eps: float) -> PlanResult:
    """eps-optimal robust assortment via level bisection against the slack target."""
    n = model.n_items
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if spec.is_zero:
        return _plan_nominal(model, k, eps)

    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    counter = _EvalCounter()
    cap_empty = fam.cap(1.0)
    eps_inner = eps / (4.0 * cap_empty)
    steps = max(1, math.ceil(math.log2(4.0 * model.r_max / eps)))

    t_lo, t_hi = 0.0, model.r_max
    t_mid = 0.0
    for _ in range(steps):
        t_mid = 0.5 * (t_lo + t_hi)
        slack, _, achieved = _min_level_slack(fam, t_mid, k, counter, stop_below=fam.target)
        if achieved:
            t_lo = t_mid
        elif slack > fam.target + eps_inner:
            t_hi = t_mid
        else:
            break

    level = t_mid - eps / 2.0
    items: tuple[int, ...] = ()
    certified = 0.0
    if level > 0.0:
        slack, cand, achieved = _min_level_slack(fam, level, k, counter, stop_below=fam.target)
        tol = 1e-12 * max(1.0, abs(fam.target))
        witnessed = achieved or slack <= fam.target + tol
        if cand and (witnessed or robust_revenue(
                model, cand, spec, allow_degenerate=True).value > 0.0):
            items = cand
            certified = level if witnessed else 0.0

    value = robust_revenue(model, items, spec, allow_degenerate=True).value if items else 0.0
    if value <= 0.0:
        items, value, certified = (), 0.0, 0.0
    return PlanResult(assortment=items, value=value, certified_level=certified,
                      evaluations=counter.n, best_effort=not eps < value / 2.0)


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


def plan_uniform_revenue(model: MnlModel, k: int, spec: RadiusSpec,
                         tol: float = 1e-9) -> PlanResult:
    """Exact planner for uniform revenues: take the k largest attractions."""
    if not 1 <= k <= model.n_items:
        raise ValueError(f"k must lie in 1..{model.n_items}")
    r = model.revenues
    if float(np.max(r) - np.min(r)) > 1e-12 * model.r_max:
        raise ValueError("plan_uniform_revenue requires (near-)uniform revenues")
    order = sorted(range(1, model.n_items + 1), key=lambda i: (-model.attractions[i - 1], i))
    items = tuple(sorted(order[:k]))
    val = robust_revenue(model, items, spec, tol=tol, allow_degenerate=True).value
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
