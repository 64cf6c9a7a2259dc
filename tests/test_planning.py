import itertools
import math

import numpy as np
import pytest

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

from conftest import random_model, random_spec


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
