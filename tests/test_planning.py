import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_assortment import (
    ConstantRadius,
    MnlModel,
    RadiusInfeasibleError,
    VaryingRadius,
    choice_probabilities,
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
from robust_assortment.radius import ZERO_RADIUS
from robust_assortment.planning import (
    _CurveFamily,
    _dedup_sorted,
    _EvalCounter,
    _min_level_slack,
    _minimize_on,
    _pair_crossings,
    _sum_curves,
)

from conftest import random_model, random_spec

TIED_REVENUES = (0.0, 0.25, 0.5, 1.0)


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
    p0 = choice_probabilities(m, (1,)).probs[0]
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


def _reference_min_level_slack(fam, t, k, counter, stop_below=None):
    """Reference walk: every interval selects by lexsort and bounds by fsum in turn.
    ``_min_level_slack`` must return what it returns, and count the same, bit for bit."""
    idx = fam.active_items(t)
    weight_full = 1.0 + float(fam.v[idx].sum())
    cap_full = fam.cap(weight_full)
    cap_empty = fam.cap(1.0)
    if cap_empty is None:
        return math.inf, (), False
    lam_cap = cap_full if cap_full is not None else cap_empty

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


def _both_slack_walks(fam, t, k, stop_below):
    """(bulk result, its counter, reference result, its counter), values as bit strings."""
    runs = []
    for walk in (_min_level_slack, _reference_min_level_slack):
        counter = _EvalCounter()
        value, items, achieved = walk(fam, t, k, counter, stop_below=stop_below)
        runs.append(((value.hex(), items, achieved), counter.n))
    return runs


@settings(max_examples=300, deadline=None)
@given(planning_instances(),
       st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0)),
       st.one_of(st.none(), st.just("target"), st.floats(-2.0, 2.0)))
def test_bulk_screen_matches_the_reference_loop(case, level, stop_below):
    model, spec, k = case
    fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
    if stop_below == "target":
        stop_below = fam.target
    bulk, reference = _both_slack_walks(fam, level, k, stop_below)
    assert bulk == reference


def test_bulk_screen_matches_the_reference_loop_across_blocks(monkeypatch):
    rng = np.random.default_rng(515)
    blocks = []
    screen = planning._screen_block
    monkeypatch.setattr(planning, "_screen_block", lambda *args: blocks.append(1) or screen(*args))
    later_block_exits = 0
    for trial in range(60):
        model = random_model(rng, n_min=6, n_max=14, r_max=1.0)
        spec = random_spec(rng, model, varying=bool(trial % 2))
        fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
        k = int(rng.integers(1, 4))
        level = float(rng.uniform(0.0, 0.6))
        for entries in (1, 3 * model.n_items, 1 << 14):
            monkeypatch.setattr(planning, "_BLOCK_ENTRIES", entries)
            for stop_below in (None, fam.target):
                blocks.clear()
                bulk, reference = _both_slack_walks(fam, level, k, stop_below)
                assert bulk == reference
                later_block_exits += bulk[0][2] and len(blocks) > 1
    assert later_block_exits > 0


def _duplicated_instance(rng, n_distinct, copies):
    """Each item repeated ``copies`` times, so curve values tie exactly."""
    v = np.repeat(10.0 ** rng.uniform(-1.0, 1.0, n_distinct), copies)
    r = np.repeat(rng.uniform(0.0, 1.0, n_distinct), copies)
    return MnlModel(attractions=v, revenues=r, r_max=1.0)


def _check_screen(fam, t, k, lefts=None, rights=None):
    """Selections equal the lexsort ones; each bound is below the exact fsum bound
    of every candidate that passes its cap check; visits count those candidates."""
    idx = fam.active_items(t)
    if lefts is None:
        lam_cap = fam.cap(1.0 + float(fam.v[idx].sum())) or fam.cap(1.0)
        lefts, rights = planning._level_intervals(fam, idx, t, k, lam_cap)
    by_weight = np.lexsort((idx, -fam.v[idx])) if fam.varying and idx.size > k else None
    bound, visits, select, left_vals = planning._screen_block(
        fam, idx, by_weight, t, k, lefts, rights)
    for i, (prev, right) in enumerate(zip(lefts.tolist(), rights.tolist())):
        if right - prev < 1e-14:
            assert bound[i] == math.inf and visits[i] == 0
            continue
        gm = fam.curve_values(idx, t, 0.5 * (prev + right))
        chosen = [j for j in np.lexsort((idx, gm)) if gm[j] < 0.0][:k]
        expected = [chosen]
        if by_weight is not None:
            heavy = [j for j in by_weight if gm[j] < 0.0][:k]
            if sorted(heavy) != sorted(chosen):
                expected.append(heavy)
        assert select(i) == [[int(j) for j in cand] for cand in expected]
        exact = []
        for cand in expected:
            cap_s = fam.cap(1.0 + float(fam.v[idx[cand]].sum()) if cand else 1.0)
            if cap_s is not None and cap_s > prev:
                left = [-x for x in fam.v[idx[cand]]] if prev == 0.0 else fam.curve_values(
                    idx[cand], t, prev)
                assert np.array_equal(left_vals[i, cand], left)
                exact.append(_sum_curves([], [], t, fam.shift, min(right, cap_s))
                             + math.fsum(left))
        if bound[i] != -math.inf:
            assert visits[i] == 1 + len(exact)
            assert bound[i] <= min(exact, default=math.inf)


@settings(max_examples=200, deadline=None)
@given(planning_instances(), st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0)))
def test_screen_bounds_every_exact_bound(case, level):
    model, spec, k = case
    _check_screen(_CurveFamily(model.attractions, model.revenues, model.r_max, spec), level, k)


@pytest.mark.parametrize("varying", [False, True])
def test_screen_breaks_exact_ties_by_position(varying):
    rng = np.random.default_rng(99)
    for _ in range(6):
        model = _duplicated_instance(rng, n_distinct=7, copies=3)
        spec = random_spec(rng, model, varying=varying)
        fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
        for level in (0.0, 0.2):
            _check_screen(fam, level, k=int(rng.integers(2, 6)))


def test_screen_cap_checks_at_float_neighbours_of_the_cap():
    # left ends a few ulps either side of the exact dual cap of the selected set
    rng = np.random.default_rng(4242)
    steps = np.arange(-4, 5) * np.finfo(float).eps
    for _ in range(200):
        n = 8
        model = MnlModel(attractions=10.0 ** rng.uniform(-4.0, 4.0, n),
                         revenues=rng.uniform(0.1, 1.0, n), r_max=1.0)
        spec = VaryingRadius(float(rng.uniform(0.01, 0.99)) * math.log1p(1.0 / model.v_tot),
                             model.v_tot)
        fam = _CurveFamily(model.attractions, model.revenues, model.r_max, spec)
        # at level 0 with k = n, every item is selected on every interval
        cap = fam.cap(1.0 + float(fam.v.sum()))
        lefts = cap * (1.0 + steps)
        _check_screen(fam, 0.0, n, lefts, 2.0 * lefts)


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
