import decimal
import itertools
import math
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robust_assortment import (
    ConstantRadius,
    MnlModel,
    RadiusInfeasibleError,
    VaryingRadius,
    evaluate_level_slack,
    intersection_points,
    plan,
    plan_bruteforce,
    plan_general,
    plan_unconstrained,
    plan_uniform_revenue,
    primal_robust_revenue_oracle,
    robust_revenue,
)

from robust_assortment import planning
from robust_assortment.model import set_weights
from robust_assortment.radius import ZERO_RADIUS
from robust_assortment.planning import (
    _Best,
    _bounds,
    _CurveFamily,
    _dedup_sorted,
    _EvalCounter,
    _min_level_slack,
    _pair_crossings,
    _points,
    _search,
)

from conftest import choice_probs, random_model, random_spec

TIED_REVENUES = (0.0, 0.25, 0.5, 1.0)


# The reference walk's helpers: one exact step of a fixed set's quasi-convex
# curve sum over an interval, by bisection on the sign of its slope.

_EXP_CAP = 700.0  # exp argument clip; saturated values are never minimizers
_LEAST_LAM = math.ulp(0.0)  # the least positive float


def _sum_curves(vs, rs, t, shift, lam):
    """Selected-curve sum including the mandatory no-purchase term."""
    acc = math.expm1(min(t / lam + shift, _EXP_CAP))
    for v, r in zip(vs, rs):
        acc += v * math.expm1(min((t - r) / lam + shift, _EXP_CAP))
    return acc


def _sum_slopes(vs, rs, t, shift, lam):
    """Sign-of-derivative helper; increasing in lam so one sign change at most."""
    acc = -t * math.exp(min(t / lam + shift, _EXP_CAP))
    for v, r in zip(vs, rs):
        acc += v * (r - t) * math.exp(min((t - r) / lam + shift, _EXP_CAP))
    return acc


def _limit_at_zero(vs, rs, shift):
    """lam -> 0+ limit of the curve sum at level t == 0."""
    acc = math.expm1(shift)
    for v, r in zip(vs, rs):
        acc += v * math.expm1(shift) if r == 0.0 else -v
    return acc


def _minimize_on(vs, rs, t, shift, lo, hi, counter):
    """Minimize the quasi-convex curve sum over [lo, hi] by slope-sign bisection,
    on log(lam) while the bracket spans decades."""
    if lo <= 0.0:
        if t == 0.0:
            # every slope term v * r * exp(...) is >= 0 at t == 0, so the sum does not
            # fall as lam grows and its infimum is the lam -> 0+ limit (a flat sum,
            # where every r is 0, has that value everywhere).  Testing the slope's sign
            # instead fails at a subnormal r, whose v * r underflows to 0
            counter.n += 1
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


def _curve(v, r, t, lam, shift):
    return v * (math.exp((t - r) / lam + shift) - 1.0)


def test_intersections_equal_attractions_only_at_origin():
    m = MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.array([0.9, 0.4]), r_max=1.0)
    spec = VaryingRadius(0.05, m.v_tot)
    assert intersection_points(0.1, m, spec) == []


def test_intersections_dominated_pair_has_none():
    # larger attraction with larger revenue dominates pointwise (varying curves)
    m = MnlModel(attractions=np.array([2.0, 1.0]), revenues=np.array([0.9, 0.5]), r_max=1.0)
    spec = VaryingRadius(0.05, m.v_tot)
    assert intersection_points(0.2, m, spec) == []


def test_intersections_single_root_case():
    # v_i = 2, v_j = 1, r_i < r_j with v_i*(r_i - t) < v_j*(r_j - t)
    t = 0.1
    vi, ri, vj, rj = 2.0, 0.3, 1.0, 0.9
    assert vi * (ri - t) < vj * (rj - t)
    m = MnlModel(attractions=np.array([vi, vj]), revenues=np.array([ri, rj]), r_max=1.0)
    spec = VaryingRadius(0.05, m.v_tot)
    xs = intersection_points(t, m, spec)
    assert len(xs) == 1
    lam = xs[0]
    gi = _curve(vi, ri, t, lam, 0.0)
    gj = _curve(vj, rj, t, lam, 0.0)
    assert abs(gi - gj) <= 1e-9 * (1.0 + abs(gi))


def test_intersections_constant_family_equal_revenues():
    # same revenue, different attraction: crossing at (r - t)/rho for the shifted curves
    rho, t, r = 0.5, 0.2, 0.8
    m = MnlModel(attractions=np.array([2.0, 1.0]), revenues=np.array([r, r]), r_max=1.0)
    xs = intersection_points(t, m, ConstantRadius(rho))
    assert len(xs) == 1
    assert xs[0] == pytest.approx((r - t) / rho, rel=1e-10)


def test_intersection_invariants_random(rng):
    for _ in range(150):
        m = random_model(rng, n_min=2, n_max=12, r_max=1.0)
        spec = random_spec(rng, m)
        t = float(rng.uniform(0.0, 1.0))
        xs = intersection_points(t, m, spec)
        active = [i for i in range(1, m.n_items + 1) if m.revenues[i - 1] >= t]
        assert len(xs) <= len(active) * (len(active) - 1) // 2
        shift = spec.rho if isinstance(spec, ConstantRadius) else 0.0
        for lam in xs:
            vals = sorted(
                _curve(m.attractions[i - 1], m.revenues[i - 1], t, lam, shift) for i in active
            )
            gaps = [abs(a - b) for a, b in zip(vals, vals[1:])]
            scale = 1.0 + max(abs(x) for x in vals)
            assert min(gaps) <= 1e-9 * scale


@np.errstate(divide="ignore", invalid="ignore")
def _bisected_pair_crossings(v, r, t, shift):
    """Reference roots: the planner's former bracketing and 110-step bisection."""
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

    keep = av > bv
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


def _decimal_crossing(v, r, t, shift, lam):
    """The crossing of the two curves (v, r) near ``lam``, to 50 digits: Newton's
    method on av*exp((t - ar)/x) - bv*exp((t - br)/x) - (av - bv)*exp(-shift)
    from ``lam``, accepted only where that function changes sign within 1e-30
    of the result (else None)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        (av, bv), (ar, br) = (map(decimal.Decimal, pair) for pair in (v.tolist(), r.tolist()))
        t, x = decimal.Decimal(t), decimal.Decimal(lam)
        cs = (av - bv) * (-decimal.Decimal(shift)).exp()

        def f(x):
            return av * ((t - ar) / x).exp() - bv * ((t - br) / x).exp() - cs

        for _ in range(30):
            ea, eb = av * ((t - ar) / x).exp(), bv * ((t - br) / x).exp()
            step = (ea - eb - cs) / ((ea * (ar - t) - eb * (br - t)) / (x * x))
            x -= step
            if not x > 0 or abs(step) <= x * decimal.Decimal("1e-45"):
                break
        width = x * decimal.Decimal("1e-30")
        if x > 0 and (f(x - width) < 0) != (f(x + width) < 0):
            return x
        return None


def test_pair_roots_match_decimal_solutions():
    rng = np.random.default_rng(1234)
    roots = 0
    for _ in range(2400):
        t = float(rng.choice([0.0, 0.25, rng.uniform(0.0, 0.9)]))
        r = np.array([max(t, float(rng.choice([*TIED_REVENUES, t, rng.uniform(t, 1.0)])))
                      for _ in range(2)])
        v = 10.0 ** rng.uniform(-4.0, 4.0, 2)
        shift = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-11.0, math.log10(30.0))
        xs = _pair_crossings(v, r, t, shift)
        assert xs.size == _bisected_pair_crossings(v, r, t, shift).size
        for lam in xs.tolist():
            exact = _decimal_crossing(v, r, t, shift, lam)
            assert exact is not None, (v, r, t, shift, lam)
            assert abs(decimal.Decimal(lam) - exact) <= decimal.Decimal(1e-9) * exact
            roots += 1
    assert roots >= 500


def test_level_slack_single_item_against_grid():
    m = MnlModel(attractions=np.array([1.5]), revenues=np.array([1.0]), r_max=1.0)
    spec = ConstantRadius(0.2)
    t = 0.4
    value, items = evaluate_level_slack(m, 1, spec, t)
    cap = m.r_max / 0.2
    lams = np.linspace(cap / 10 ** 6, cap, 10 ** 6)
    with np.errstate(over="ignore"):
        both = (np.exp(t / lams + 0.2) - 1.0) + 1.5 * (np.exp((t - 1.0) / lams + 0.2) - 1.0)
        alone = np.exp(t / lams + 0.2) - 1.0
    grid_min = min(float(np.nanmin(both)), float(np.nanmin(alone)))
    assert value <= grid_min + 1e-9
    assert grid_min - value <= 1e-6


def test_level_slack_keeps_the_first_interval_at_level_zero():
    # item 5's curve sum tends to -1 only as lam -> 0+: its first crossing lies
    # near 1e-91, so the first interval (0, x] is far narrower than 1e-14
    m = MnlModel(attractions=np.array([1.0, 1.0, 1.0, 0.1, 1.0]),
                 revenues=np.array([0.0, 0.0, 0.0, 0.25, 1.16609094e-92]), r_max=1.0)
    value, items = evaluate_level_slack(m, 1, VaryingRadius(0.109126783010009, 4.1), 0.0)
    assert (value, items) == (-1.0, (5,))


def test_level_slack_monotone_in_level(rng):
    m = random_model(rng, n_min=3, n_max=8, r_max=1.0)
    spec = random_spec(rng, m)
    k = 2
    pairs = sorted(rng.uniform(0.0, 1.0, size=(1000, 2)).tolist())
    for t1, t2 in pairs:
        lo, hi = min(t1, t2), max(t1, t2)
        v_lo, _ = evaluate_level_slack(m, k, spec, lo)
        v_hi, _ = evaluate_level_slack(m, k, spec, hi)
        assert v_lo <= v_hi + 1e-9


def test_plan_unconstrained_single_item_threshold():
    m = MnlModel(attractions=np.array([1.0]), revenues=np.array([1.0]), r_max=1.0)
    p0 = choice_probs(m, (1,))[0]
    inside = ConstantRadius(-math.log(p0) * 0.9)
    outside = ConstantRadius(-math.log(p0) * 1.1)
    assert plan_unconstrained(m, inside).assortment == (1,)
    assert plan_unconstrained(m, outside).assortment == ()


def test_plan_unconstrained_matches_bruteforce(rng):
    for _ in range(40):
        m = random_model(rng, n_min=2, n_max=9, r_max=1.0)
        spec = random_spec(rng, m)
        exact = plan_unconstrained(m, spec)
        brute = plan_bruteforce(m, m.n_items, spec)
        assert abs(exact.value - brute.value) <= 1e-8


def test_plan_uniform_revenue_examples():
    m = MnlModel(attractions=np.array([3.0, 1.0, 2.0]), revenues=np.ones(3))
    spec = ConstantRadius(0.1)
    assert plan_uniform_revenue(m, 2, spec).assortment == (1, 3)
    ties = MnlModel(attractions=np.ones(3), revenues=np.ones(3))
    assert plan_uniform_revenue(ties, 2, spec).assortment == (1, 2)
    bad = MnlModel(attractions=np.ones(2), revenues=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        plan_uniform_revenue(bad, 1, spec)


def test_plan_uniform_revenue_matches_bruteforce(rng):
    for _ in range(40):
        m = random_model(rng, n_min=2, n_max=9, r_max=1.0, uniform_revenue=True)
        spec = random_spec(rng, m)
        k = int(rng.integers(1, min(5, m.n_items) + 1))
        fast = plan_uniform_revenue(m, k, spec)
        brute = plan_bruteforce(m, k, spec)
        assert abs(fast.value - brute.value) <= 1e-8


def test_plan_general_special_case_consistency(rng):
    for _ in range(15):
        m = random_model(rng, n_min=2, n_max=8, r_max=1.0, uniform_revenue=True)
        spec = random_spec(rng, m)
        k = int(rng.integers(1, m.n_items + 1))
        fast = plan_uniform_revenue(m, k, spec)
        general = plan_general(m, k, spec, eps=1e-5)
        assert abs(fast.value - general.value) <= 1e-5
    for _ in range(15):
        m = random_model(rng, n_min=2, n_max=8, r_max=1.0)
        spec = random_spec(rng, m)
        exact = plan_unconstrained(m, spec)
        general = plan_general(m, m.n_items, spec, eps=1e-5)
        assert abs(exact.value - general.value) <= 1e-5


def test_plan_general_matches_bruteforce(rng):
    for _ in range(40):
        m = random_model(rng, n_min=2, n_max=10, r_max=1.0)
        spec = random_spec(rng, m)
        k = int(rng.integers(1, min(5, m.n_items) + 1))
        brute = plan_bruteforce(m, k, spec)
        general = plan_general(m, k, spec, eps=1e-4)
        assert brute.value - general.value <= 1e-4
        assert general.value <= brute.value + 1e-7


def test_plan_general_zero_radius_matches_nominal_bruteforce(rng):
    for _ in range(20):
        m = random_model(rng, n_min=2, n_max=9, r_max=1.0)
        k = int(rng.integers(1, m.n_items + 1))
        brute = plan_bruteforce(m, k, ConstantRadius(0.0))
        general = plan_general(m, k, ConstantRadius(0.0), eps=1e-6)
        assert abs(brute.value - general.value) <= 1e-6


def test_certified_level_soundness(rng):
    for _ in range(40):
        m = random_model(rng, n_min=2, n_max=9, r_max=1.0)
        spec = random_spec(rng, m)
        k = int(rng.integers(1, m.n_items + 1))
        result = plan_general(m, k, spec, eps=1e-4)
        check = robust_revenue(m, result.assortment, spec).value if result.assortment else 0.0
        assert check >= result.certified_level - 1e-9


def test_plan_bruteforce_tie_breaks_lexicographically():
    # two identical items: {1} and {2} tie; the lexicographically smaller wins
    m = MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.array([1.0, 1.0]))
    res = plan_bruteforce(m, 1, ConstantRadius(0.1))
    assert res.assortment == (1,)


def test_plan_bruteforce_guard():
    m = MnlModel(attractions=np.ones(23), revenues=np.ones(23))
    with pytest.raises(ValueError):
        plan_bruteforce(m, 2, ConstantRadius(0.1))


def test_plan_dispatch(rng):
    m = random_model(rng, n_min=3, n_max=6, r_max=1.0)
    spec = random_spec(rng, m)
    res = plan(m, m.n_items, spec)
    brute = plan_bruteforce(m, m.n_items, spec)
    assert abs(res.value - brute.value) <= 1e-6


@pytest.mark.parametrize("revenues", [[0.5, 0.5, 0.5], [0.9, 0.5, 0.2]])
def test_plan_caps_k_at_the_item_count(revenues):
    # every path plans the unconstrained optimum, uniform revenues included
    m = MnlModel(attractions=np.array([1.0, 2.0, 0.5]), revenues=np.array(revenues), r_max=1.0)
    spec = ConstantRadius(0.1)
    assert plan(m, 5, spec) == plan(m, 3, spec)


@pytest.mark.parametrize("r_max", [1e-3, 1.0, 1e3])
def test_plan_without_eps_is_plan_general_at_its_default_eps(r_max):
    # the one default tolerance is relative: 1e-5 * r_max, whoever plans
    m = MnlModel(attractions=np.array([1.0, 0.4, 2.0, 0.7]),
                 revenues=r_max * np.array([1.0, 0.8, 0.3, 0.55]), r_max=r_max)
    spec = ConstantRadius(0.1)
    default = plan_general(m, 2, spec, eps=1e-5 * r_max)
    assert plan(m, 2, spec) == plan_general(m, 2, spec) == default


def test_plan_general_k_validation():
    m = MnlModel(attractions=np.ones(3), revenues=np.ones(3))
    with pytest.raises(ValueError):
        plan_general(m, 0, ConstantRadius(0.1), eps=1e-4)
    with pytest.raises(ValueError):
        plan_general(m, 4, ConstantRadius(0.1), eps=1e-4)


def test_complexity_scaling(rng):
    # curve-sum evaluations should grow no faster than ~quadratically in n
    sizes = (10, 20, 40)
    means = []
    for n in sizes:
        counts = []
        for _ in range(3):
            m = random_model(rng, n_min=n, n_max=n, r_max=1.0)
            spec = random_spec(rng, m)
            res = plan_general(m, 5, spec, eps=1e-4)
            counts.append(res.evaluations)
        means.append(np.mean(counts))
    slope, _ = np.polyfit(np.log(sizes), np.log(means), 1)
    assert slope <= 2.3


def _primal_value(model, items, spec):
    if not items:
        return 0.0
    try:
        rho = spec.radius(model, items)
    except RadiusInfeasibleError:
        rho = math.inf
    return primal_robust_revenue_oracle(model, items, rho)


def _oracle_bruteforce(model, k, spec):
    """Every set of size <= k scored on the primal side, under plan_bruteforce's tie rule."""
    scored = [(_primal_value(model, combo, spec), combo)
              for size in range(k + 1)
              for combo in itertools.combinations(range(1, model.n_items + 1), size)]
    best = max(value for value, _ in scored)
    return min((items, value) for value, items in scored if value >= best - 1e-10 * model.r_max)


def _oracle_unconstrained(model, spec):
    """The first revenue-ordered prefix of largest primal value (empty if none is positive)."""
    order = sorted(range(1, model.n_items + 1), key=lambda i: (-model.revenues[i - 1], i))
    best_items, best_value = (), 0.0
    for depth in range(1, model.n_items + 1):
        items = tuple(sorted(order[:depth]))
        value = _primal_value(model, items, spec)
        if value > best_value:
            best_items, best_value = items, value
    return best_items, best_value


@pytest.mark.parametrize("inputs", ["ties", "zero"])
def test_exact_planners_match_primal_oracle_on_ties_and_zero_revenues(inputs):
    rng = np.random.default_rng(2718 if inputs == "ties" else 3141)
    for trial in range(25):
        n = int(rng.integers(2, 11))
        r = rng.uniform(0.1, 1.0, n)
        if inputs == "ties":
            r = np.ceil(r * 4.0) / 4.0
        else:
            r[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
        m = MnlModel(attractions=rng.uniform(0.05, 3.0, n), revenues=r, r_max=1.0)
        spec = random_spec(rng, m, varying=bool(trial % 2))
        k = int(rng.integers(1, min(4, n) + 1))
        brute = plan_bruteforce(m, k, spec)
        items, value = _oracle_bruteforce(m, k, spec)
        assert brute.assortment == items
        assert abs(brute.value - value) <= 1e-9
        exact = plan_unconstrained(m, spec)
        items, value = _oracle_unconstrained(m, spec)
        assert exact.assortment == items
        assert abs(exact.value - value) <= 1e-9


def _cap(fam, weight):
    """The dual cap of one set weight (no-purchase included); 0 where infeasible."""
    return float(fam.caps(np.array([weight]))[0])


def _reference_min_level_slack(fam, t, k, counter, stop_below=None):
    """Reference walk: every interval between pair crossings selects by lexsort,
    bounds by fsum and runs the exact step in turn.  ``_check_slack_contract``
    holds the branch and bound to it."""
    idx = fam.active_items(t)
    weight_full = set_weights(fam.v[idx][:, None])[0]
    cap_full = _cap(fam, weight_full)
    cap_empty = _cap(fam, 1.0)
    if cap_empty == 0.0:
        return math.inf, (), False
    lam_cap = cap_full or cap_empty

    counter.n += 1
    best_val = _sum_curves([], [], t, fam.shift, cap_empty)
    best_items = ()
    if stop_below is not None and best_val < stop_below:
        return best_val, best_items, True

    breakpoints = []
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
        mid = 0.5 * (prev + right)
        gm = fam.curves(idx, t, mid)[0]
        if t == 0.0:
            # each curve falls to its lam -> 0+ limit, -v where r > 0, which is the one
            # that matters at t == 0; at mid a subnormal r underflows the curve to 0
            gm = np.where(fam.r[idx] > 0.0, -fam.v[idx], fam.v[idx] * math.expm1(fam.shift))
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
            weight_s = set_weights(fam.v[idx[sorted(cand)]][:, None])[0]
            cap_s = _cap(fam, weight_s)
            if cap_s == 0.0 or cap_s < prev:
                continue
            hi = min(right, cap_s)
            if hi <= prev and prev > 0.0:
                continue
            vs = fam.v[idx[cand]].tolist()
            rs = fam.r[idx[cand]].tolist()
            left_vals = [-v0 for v0 in vs] if prev == 0.0 else fam.curves(
                idx[cand], t, prev)[0].tolist()
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


@st.composite
def planning_instances(draw, max_items=10, zero_radius=False):
    """(model, spec, k): attractions 1e-4..1e4, zero and tied revenues, radii 1e-11..30;
    with ``zero_radius``, also radii of 0 and below ZERO_RADIUS (the nominal path)."""
    n = draw(st.integers(1, max_items))
    v = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    revenue = st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0))
    r = np.array(draw(st.lists(revenue, min_size=n, max_size=n)))
    model = MnlModel(attractions=v, revenues=r, r_max=1.0)
    tiny = st.floats(0.0, ZERO_RADIUS, exclude_max=True)
    if zero_radius and draw(st.booleans()):
        spec = draw(st.one_of(st.just(ConstantRadius(0.0)), st.builds(ConstantRadius, tiny),
                              st.builds(VaryingRadius, tiny, st.just(model.v_tot))))
    elif draw(st.booleans()):
        share = draw(st.floats(1e-6, 0.999))
        spec = VaryingRadius(share * math.log1p(1.0 / model.v_tot), model.v_tot)
    else:
        spec = ConstantRadius(10.0 ** draw(st.floats(-11.0, math.log10(30.0))))
    return model, spec, draw(st.integers(1, n))


def _check_slack_contract(fam, t, k, stop_below):
    """The branch and bound against the reference walk: ``achieved`` is equal;
    without an early exit the value is no higher; and the returned set attains
    the value: it is no lower than the set's exact step over (0, cap].  Returns
    the branch and bound's result."""
    result = _min_level_slack(fam, t, k, _EvalCounter(), stop_below=stop_below)
    value, items, achieved = result
    ref_value, _, ref_achieved = _reference_min_level_slack(fam, t, k, _EvalCounter(),
                                                            stop_below=stop_below)
    assert achieved == ref_achieved
    if not achieved:
        assert value <= ref_value + 1e-12 * max(1.0, abs(ref_value))
    if value == math.inf:
        assert items == () and ref_value == math.inf
        return result
    assert len(items) <= k and all(fam.r[i - 1] >= t for i in items)
    positions = [i - 1 for i in items]
    vs, rs = fam.v[positions].tolist(), fam.r[positions].tolist()
    cap_s = _cap(fam, set_weights(np.reshape(vs, (-1, 1)))[0])
    assert cap_s > 0.0
    _, attained = _minimize_on(vs, rs, t, fam.shift, 0.0, cap_s, _EvalCounter())
    assert attained <= value + 1e-12 * max(1.0, abs(value))
    return result


@settings(max_examples=300, deadline=None)
@given(planning_instances(),
       st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0)),
       st.one_of(st.none(), st.just("target"), st.floats(-2.0, 2.0)))
@example(case=(MnlModel(attractions=np.array([1.0] * 7 + [100.0, 10.0]),
                        revenues=np.array([0.0] * 6 + [0.25, 1.17549435e-38, 0.25]), r_max=1.0),
               VaryingRadius(0.004255344833954321, 117.0), 2),
         level=1.401298464324817e-45, stop_below=None)
@example(case=(MnlModel(attractions=np.array([1.0] * 5 + [0.1, 1.0]),
                        revenues=np.array([0.25] * 6 + [2.33548458e-74]), r_max=1.0),
               VaryingRadius(0.0759030064340021, 6.1), 6),
         level=1.389889991480131e-162, stop_below=None)
@example(case=(MnlModel(attractions=np.array([1.0, 1.0, 1.0, 0.1, 1.0]),
                        revenues=np.array([0.0, 0.0, 0.0, 0.25, 1.16609094e-92]), r_max=1.0),
               VaryingRadius(0.109126783010009, 4.1), 1),
         level=0.0, stop_below="target")
# the no-purchase term expm1(2.4e-195 / cap) is below stop_below; exp(x) - 1 rounds it to 0
@example(case=(MnlModel(attractions=np.array([0.1]), revenues=np.array([0.0]), r_max=1.0),
               VaryingRadius(1.1989476363991853, 0.1), 1),
         level=2.3974093353255042e-195, stop_below=2.3974093353255042e-195)
# a subnormal revenue at level 0: the curve's lam -> 0+ limit is -v, which the reference's
# exact step read as attained nowhere while the slope v * r * exp(...) underflowed to 0
@example(case=(MnlModel(attractions=np.array([1.0, 0.1]), revenues=np.array([0.0, 5e-324]),
                        r_max=1.0), ConstantRadius(1.0), 1),
         level=0.0, stop_below=None)
# the same revenue under the varying rule, down to the target: the reference's midpoint
# selection read the curve, underflowed to 0, as not negative and never took the item
@example(case=(MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.array([0.0, 5e-324]),
                        r_max=1.0), VaryingRadius(0.2027325540540822, 2.0), 1),
         level=0.0, stop_below="target")
def test_bulk_screen_matches_the_reference_loop(case, level, stop_below):
    model, spec, k = case
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    if stop_below == "target":
        stop_below = fam.target
    _check_slack_contract(fam, level, k, stop_below)


def _exhaustive_min_level_slack(fam, t, k):
    """The least curve sum over every set of at most k active items with negative
    curves, each minimized by the exact step over (0, its cap]; sets with an
    infeasible radius are skipped.  (An item at r = t has a zero curve: it would
    only raise a set's cap, and no selection takes it.)"""
    idx = fam.active_items(t)
    idx = idx[fam.r[idx] > t]
    best = math.inf
    for size in range(min(k, idx.size) + 1):
        for cand in itertools.combinations(idx.tolist(), size):
            vs, rs = fam.v[list(cand)].tolist(), fam.r[list(cand)].tolist()
            cap = _cap(fam, set_weights(np.reshape(vs, (-1, 1)))[0])
            if cap > 0.0:
                best = min(best, _minimize_on(vs, rs, t, fam.shift, 0.0, cap, _EvalCounter())[1])
    return best


@settings(max_examples=100, deadline=None)
@given(planning_instances(max_items=6),
       st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0)))
# the optimum {2, 3} is neither set of the k lowest curves at any lam within its cap:
# only the search over the k heaviest items beyond the main search's end finds it
@example(case=(MnlModel(attractions=np.array([0.01124757817886618, 0.014622216468946311,
                                              0.12019977624491095]),
                        revenues=np.array([1.0, 0.5787094537042473, 0.6600649889809077]),
                        r_max=1.0),
               VaryingRadius(1.5610784764065158, 0.14606957089272343), 2),
         level=0.48135448453676133)
def test_varying_level_slack_matches_the_exhaustive_minimum(case, level):
    model, spec, k = case
    assume(spec.is_varying)
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    value, _ = evaluate_level_slack(model, k, spec, level)
    least = _exhaustive_min_level_slack(fam, level, k)
    assert abs(value - least) <= 1e-12 * max(1.0, abs(least))


def test_exact_step_is_accurate_across_many_decades():
    # the set's curve sum nears its infimum (about -110) only for lam near 1e-40
    vs, rs, t = [100.0, 10.0], [1.17549435e-38, 0.25], 1.401298464324817e-45
    for lo in (0.0, 1e-300, 1e-45):
        lam, value = _minimize_on(vs, rs, t, 0.0, lo, 221.0, _EvalCounter())
        assert value == _sum_curves(vs, rs, t, 0.0, lam)
        assert value < -109.9999


def _duplicated_instance(rng, n_distinct, copies):
    """Each item repeated ``copies`` times, so curve values tie exactly."""
    v = np.repeat(10.0 ** rng.uniform(-1.0, 1.0, n_distinct), copies)
    r = np.repeat(rng.uniform(0.0, 1.0, n_distinct), copies)
    return MnlModel(attractions=v, revenues=r, r_max=1.0)


def _selection_weights(fam, t, k, lams):
    """Total attraction of the k lowest negative curves at each of ``lams``."""
    idx = fam.active_items(t)
    _, selected = _points(fam, t, idx, k, lams)
    return set_weights(np.where(selected, fam.v[idx], 0.0).T)


@settings(max_examples=200, deadline=None)
@given(planning_instances(), st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0)))
def test_varying_selection_weight_never_rises_with_lam(case, level):
    # the search ends at the first lam above its selection's cap, which is
    # sound only if the k lowest curves trade heavier items for lighter ones
    model, spec, k = case
    assume(spec.is_varying)
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    weights = _selection_weights(fam, level, k, np.geomspace(1e-8, 1e8, 4000))
    assert np.all(np.diff(weights) <= 0.0)


@settings(max_examples=300, deadline=None)
@given(planning_instances(), st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0)),
       st.floats(-8.0, 3.0), st.floats(1e-9, 4.0))
def test_interval_bounds_stay_below_the_k_lowest_sum(case, level, log_left, log_width):
    model, spec, k = case
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    idx = fam.active_items(level)
    left = 10.0 ** log_left
    grid = np.unique(np.concatenate((
        np.geomspace(left, left * 10.0 ** log_width, 400),
        left + np.linspace(0.0, 1.0, 400) * (left * 10.0 ** log_width - left))))
    pts, _ = _points(fam, level, idx, k, grid)
    with np.errstate(invalid="ignore"):
        sums = pts[:, planning._NO_BUY] + pts[:, planning._LOW]
    bound = float(_bounds(pts[:1], pts[-1:], k)[0])
    slack = 1e-12 * (1.0 + abs(float(pts[0, planning._NO_BUY])) + float(fam.v[idx].sum()))
    assert bound <= float(np.min(sums)) + slack


@pytest.mark.parametrize("varying", [False, True])
def test_screen_breaks_exact_ties_by_position(varying):
    # each item repeated three times, so curve values tie exactly: the branch
    # and bound returns the reference walk's set
    rng = np.random.default_rng(99)
    for _ in range(6):
        model = _duplicated_instance(rng, n_distinct=7, copies=3)
        spec = random_spec(rng, model, varying=varying)
        fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
        for level in (0.0, 0.2):
            k = int(rng.integers(2, 6))
            _, items, _ = _check_slack_contract(fam, level, k, None)
            assert items == _reference_min_level_slack(fam, level, k, _EvalCounter())[1]


def test_screen_cap_checks_at_float_neighbours_of_the_cap(monkeypatch):
    # a search starting a few ulps either side of the dual cap of the selected
    # set evaluates that cap, and ends there, exactly when it starts above it
    rng = np.random.default_rng(4242)
    steps = np.arange(-4, 5) * np.finfo(float).eps
    evaluated = []
    points = planning._points
    monkeypatch.setattr(planning, "_points", lambda fam, t, items, k, lam: (
        evaluated.extend(lam.tolist()) or points(fam, t, items, k, lam)))
    for _ in range(200):
        n = 8
        model = MnlModel(attractions=10.0 ** rng.uniform(-4.0, 4.0, n),
                         revenues=rng.uniform(0.1, 1.0, n), r_max=1.0)
        spec = VaryingRadius(float(rng.uniform(0.01, 0.99)) * math.log1p(1.0 / model.v_tot),
                             model.v_tot)
        fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
        # at a level below every revenue with k = n, every item is selected at every lam
        cap = _cap(fam, set_weights(fam.v[:, None])[0])
        for start in cap * (1.0 + steps):
            evaluated.clear()
            best = _Best(math.inf, math.inf, None)  # stop after the first points
            end = _search(fam, 0.05, np.arange(n), n, 0.0, float(start), 1.0, best, _EvalCounter())
            assert end == min(start, cap)
            grid = [start * 4.0 ** -j for j in range(15, -1, -1)]  # the first visit's points
            assert evaluated == (grid + [cap] if start > cap else grid)
            assert best.items == tuple(range(1, n + 1))


def _stratified_instance(n, scale, rng):
    """The plan benchmark's instances: revenues spread evenly over [0.1, 1], one
    draw per n-th of the range, and attractions in scale*[0.5, 1.5] that fall as
    revenue rises, jittered within the same n-th; labels are shuffled."""
    rank = rng.permutation(n)
    r = 0.1 + 0.9 * (rank + rng.random(n)) / n
    v = scale * (1.5 - (rank + rng.random(n)) / n)
    return MnlModel(attractions=v, revenues=r, r_max=1.0)


def _benchmark_spec(model, varying):
    if varying:
        return VaryingRadius(0.5 * math.log1p(1.0 / model.v_tot), model.v_tot)
    return ConstantRadius(0.2)


def test_search_ends_at_the_first_lam_above_a_cap():
    # the plan benchmark's cell (n = 20, scale 1, varying) at seed 1 and its first
    # level: without the cut at a selection's cap, its open intervals grew to
    # millions
    rng = np.random.default_rng(np.random.SeedSequence([1, zlib.crc32(b"plan"), 6]))
    model = _stratified_instance(20, 1.0, rng)
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max,
                       _benchmark_spec(model, varying=True))
    counter = _EvalCounter()
    value, items, _ = _min_level_slack(fam, 0.5, 2, counter)
    assert counter.n < 100
    _check_slack_contract(fam, 0.5, 2, None)
    ref_value, ref_items, _ = _reference_min_level_slack(fam, 0.5, 2, _EvalCounter())
    assert items == ref_items and abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))


@pytest.mark.parametrize("varying", [False, True])
def test_plan_general_at_200_items_is_cheap(varying):
    # most items are active at the planned level; the pair-crossing walk this
    # search replaced needed about 201,000 evaluations here
    model = _stratified_instance(200, 0.02, np.random.default_rng(1))
    spec = _benchmark_spec(model, varying)
    result = plan_general(model, 20, spec, eps=1e-5)
    assert result.evaluations < 5000
    for key in (model.revenues, model.attractions):
        top = tuple(sorted((np.lexsort((np.arange(200), -key))[:20] + 1).tolist()))
        assert result.value >= robust_revenue(model, top, spec).value


def test_plan_general_at_1000_items_is_cheap():
    # most items are active at the planned level; the pair-crossing walk took
    # about 300 s on one such plan
    model = _stratified_instance(1000, 0.02, np.random.default_rng(1))
    for varying in (False, True):
        spec = _benchmark_spec(model, varying)
        result = plan_general(model, 50, spec, eps=1e-5)
        assert result.evaluations < 2000
        for key in (model.revenues, model.attractions):
            top = tuple(sorted((np.lexsort((np.arange(1000), -key))[:50] + 1).tolist()))
            assert result.value >= robust_revenue(model, top, spec).value


# the plan benchmark's cells: (items, attraction scale, varying rule)
_BENCH_PLAN_CELLS = (
    (20, 3.0, False), (30, 3.0, False), (20, 3.0, True), (50, 3.0, True), (20, 1.0, False),
    (40, 3.0, True), (20, 1.0, True), (30, 1.0, False), (30, 0.3, False), (30, 1.0, True),
    (100, 3.0, True), (40, 1.0, False), (30, 0.3, True), (200, 30.0, True), (50, 1.0, False),
    (40, 1.0, True), (100, 3.0, False), (150, 10.0, False), (50, 0.1, False), (60, 0.1, False),
)


def _benchmark_plans():
    """(model, k, spec) of the plan benchmark's 20 cells at seeds 1-5, drawn as it draws them."""
    for seed in range(1, 6):
        for index, (n, scale, varying) in enumerate(_BENCH_PLAN_CELLS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"plan"), index]))
            model = _stratified_instance(n, scale, rng)
            yield model, max(2, round(n / 10)), _benchmark_spec(model, varying)


def test_plan_general_levels_on_the_benchmark_cells(monkeypatch):
    # seeded from the revenue-ordered prefixes alone, these 100 plans took 219
    # levels, 6 in the worst plan: when no prefix scores above 0 the search
    # halves down from r_max/2, and a weak prefix makes Dinkelbach's step creep
    levels = []
    min_level_slack = planning._min_level_slack

    def spy(*args, **kwargs):
        levels[-1] += 1
        return min_level_slack(*args, **kwargs)

    monkeypatch.setattr(planning, "_min_level_slack", spy)
    for model, k, spec in _benchmark_plans():
        levels.append(0)
        plan_general(model, k, spec, eps=1e-5)
    assert sum(levels) <= 150 and max(levels) <= 4


def test_plan_general_passes_on_the_benchmark_cells(monkeypatch):
    # a branch-and-bound pass is a fixed run of small numpy calls, so passes set a
    # level's cost; splitting each open interval into 4 parts took 782 passes here
    passes = 0
    points = planning._points

    def spy(*args, **kwargs):
        nonlocal passes
        passes += 1
        return points(*args, **kwargs)

    monkeypatch.setattr(planning, "_points", spy)
    for model, k, spec in _benchmark_plans():
        plan_general(model, k, spec, eps=1e-5)
    assert passes <= 600


@settings(max_examples=300, deadline=None)
@given(planning_instances(), st.sampled_from((1e-3, 1e-6)))
def test_plan_general_beats_every_revenue_ordered_prefix(case, eps):
    # the level search starts from the best prefix of size <= k, not merely within eps of it
    model, spec, k = case
    general = plan_general(model, k, spec, eps=eps)
    order = np.lexsort((np.arange(model.n_items), -model.revenues)) + 1
    for depth in range(1, k + 1):
        prefix = tuple(sorted(order[:depth].tolist()))
        assert general.value >= robust_revenue(model, prefix, spec, allow_degenerate=True).value


@settings(max_examples=80, deadline=None)
@given(planning_instances(max_items=9, zero_radius=True), st.sampled_from((1e-3, 1e-5)))
def test_plan_general_matches_bruteforce_at_extremes(case, eps):
    model, spec, k = case
    brute = plan_bruteforce(model, k, spec)
    general = plan_general(model, k, spec, eps=eps)
    assert brute.value - eps <= general.value <= brute.value + 1e-9
    assert general.certified_level == general.value
    assert general.value == (robust_revenue(model, general.assortment, spec,
                                            allow_degenerate=True).value
                             if general.assortment else 0.0)
