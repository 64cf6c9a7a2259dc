import math

import numpy as np
import pytest

from robust_assortment import (
    ConstantRadius,
    MnlModel,
    VaryingRadius,
    choice_probabilities,
    dual_objective,
    expected_revenue,
    kl_divergence,
    nominal_expected_revenue,
    primal_robust_revenue_oracle,
    radius,
    robust_revenue,
)
from robust_assortment.radius import ZERO_RADIUS

from conftest import random_assortment, random_model, random_spec


def test_dual_objective_zero_radius_large_lambda():
    m = MnlModel(attractions=np.array([0.7, 1.5]), revenues=np.array([0.9, 0.3]), r_max=1.0)
    items = (1, 2)
    lam = 1e8 * m.r_max
    assert dual_objective(m, items, lam, 0.0) == pytest.approx(
        nominal_expected_revenue(m, items), abs=1e-6 * m.r_max
    )


def test_dual_objective_uniform_revenue_closed_form():
    m = MnlModel(attractions=np.array([1.2, 0.4]), revenues=np.array([2.0, 2.0]), r_max=2.0)
    items = (1, 2)
    p0 = choice_probabilities(m, items).probs[0]
    for lam in (0.3, 1.0, 5.0):
        expected = -lam * math.log(p0 + (1 - p0) * math.exp(-m.r_max / lam)) - lam * 0.25
        assert dual_objective(m, items, lam, 0.25) == pytest.approx(expected, abs=1e-14)


def test_dual_objective_single_item_worked_example():
    r_max = 2.0
    m = MnlModel(attractions=np.array([1.0]), revenues=np.array([r_max]), r_max=r_max)
    value = dual_objective(m, (1,), r_max, 0.1)
    expected = -r_max * math.log((1 + math.exp(-1)) / 2) - 0.1 * r_max
    assert value == pytest.approx(expected, abs=1e-14)


def test_dual_objective_vanishing_lambda_limit():
    m = MnlModel(attractions=np.array([1.0, 2.0]), revenues=np.array([1.0, 0.5]), r_max=1.0)
    assert abs(dual_objective(m, (1, 2), 1e-14, 0.3)) <= 1e-12


def test_robust_revenue_zero_radius_is_nominal():
    m = MnlModel(attractions=np.array([1.0, 0.5]), revenues=np.array([0.8, 0.2]), r_max=1.0)
    ev = robust_revenue(m, (1, 2), ConstantRadius(0.0))
    assert ev.value == nominal_expected_revenue(m, (1, 2))
    assert math.isinf(ev.lambda_star)


def test_robust_revenue_huge_radius_collapses_to_zero():
    gen = np.random.default_rng(3)
    m = MnlModel(attractions=gen.uniform(0.1, 2.0, 4), revenues=gen.uniform(0.1, 1.0, 4),
                 r_max=1.0)
    ev = robust_revenue(m, (1, 2, 3, 4), ConstantRadius(50.0))
    assert 0.0 <= ev.value <= 1e-6 * m.r_max


def test_robust_revenue_empty_assortment():
    m = MnlModel(attractions=np.array([1.0]), revenues=np.array([1.0]))
    for spec in (ConstantRadius(0.4), VaryingRadius(0.1, m.v_tot)):
        ev = robust_revenue(m, (), spec)
        assert ev.value == 0.0


def test_dual_matches_primal_oracle(rng):
    # random instances around the illustrative six-item scale
    for _ in range(200):
        m = random_model(rng, n_min=1, n_max=6, r_max=1.0)
        items = random_assortment(rng, m.n_items, allow_empty=False)
        rho = float(rng.uniform(0.01, 1.0))
        dual = robust_revenue(m, items, ConstantRadius(rho)).value
        primal = primal_robust_revenue_oracle(m, items, rho)
        assert abs(dual - primal) <= 1e-6


def test_dual_concavity_midpoint(rng):
    for _ in range(20):
        m = random_model(rng, n_min=1, n_max=8)
        items = random_assortment(rng, m.n_items, allow_empty=False)
        spec = random_spec(rng, m)
        rho_val = radius(spec, m, items)
        if rho_val <= 0:
            continue
        cap = m.r_max / rho_val
        for _ in range(500):
            a = float(rng.uniform(1e-6 * cap, cap))
            b = float(rng.uniform(1e-6 * cap, cap))
            fa = dual_objective(m, items, a, rho_val)
            fb = dual_objective(m, items, b, rho_val)
            fm = dual_objective(m, items, 0.5 * (a + b), rho_val)
            assert fm >= 0.5 * (fa + fb) - 1e-9


def test_monotone_in_radius(rng):
    for _ in range(60):
        m = random_model(rng, n_min=1, n_max=8)
        items = random_assortment(rng, m.n_items, allow_empty=False)
        r1 = float(rng.uniform(0.01, 1.0))
        r2 = r1 + float(rng.uniform(0.0, 1.0))
        v1 = robust_revenue(m, items, ConstantRadius(r1)).value
        v2 = robust_revenue(m, items, ConstantRadius(r2)).value
        assert v1 >= v2 - 1e-9


def test_certificate_validity(rng):
    for _ in range(120):
        m = random_model(rng, n_min=1, n_max=8)
        items = random_assortment(rng, m.n_items, allow_empty=False)
        spec = random_spec(rng, m)
        ev = robust_revenue(m, items, spec, tol=1e-9)
        probs = choice_probabilities(m, items).probs
        assert kl_divergence(ev.worst_case.probs, probs) <= ev.radius + 1e-8
        attained = expected_revenue(items, ev.worst_case, m)
        assert attained <= ev.value + 1e-6
        assert ev.value <= nominal_expected_revenue(m, items) + 1e-12
        assert 0.0 <= ev.lambda_star <= m.r_max / ev.radius + 1e-9 or math.isinf(ev.lambda_star)


def test_primal_oracle_trivial_cases():
    m = MnlModel(attractions=np.array([2.0, 1.0]), revenues=np.array([1.0, 0.4]), r_max=1.0)
    items = (1, 2)
    assert primal_robust_revenue_oracle(m, items, 0.0) == pytest.approx(
        nominal_expected_revenue(m, items), abs=1e-12
    )
    p0 = choice_probabilities(m, items).probs[0]
    assert primal_robust_revenue_oracle(m, items, -math.log(p0) + 0.01) == 0.0


def _tilt_grid_min(probs, revs, rho, betas):
    weights = probs[None, :] * np.exp(-np.outer(betas, revs))
    q = weights / weights.sum(axis=1, keepdims=True)
    kls = np.sum(np.where(q > 0, q * np.log(q / probs[None, :]), 0.0), axis=1)
    values = q @ revs
    feasible = kls <= rho
    best = int(np.argmin(np.where(feasible, values, np.inf)))
    return float(values[best]), float(betas[best])


def test_primal_oracle_against_dense_grid():
    # single item, unit attraction and revenue, ball radius 0.1; the value is
    # boundary-attained, so a coarse sweep locates the bracket and a dense
    # million-point grid inside it pins the value to 1e-6
    m = MnlModel(attractions=np.array([1.0]), revenues=np.array([1.0]), r_max=1.0)
    probs = choice_probabilities(m, (1,)).probs
    revs = np.array([0.0, 1.0])
    _, beta_coarse = _tilt_grid_min(probs, revs, 0.1, np.linspace(0.0, 50.0, 10 ** 4))
    width = 2 * 50.0 / 10 ** 4
    fine = np.linspace(max(0.0, beta_coarse - width), beta_coarse + width, 10 ** 6)
    grid_min, _ = _tilt_grid_min(probs, revs, 0.1, fine)
    assert primal_robust_revenue_oracle(m, (1,), 0.1) == pytest.approx(grid_min, abs=1e-6)


def robust_revenue_varying_primal_check(model, items, rho0: float, samples: int, rng) -> float:
    """Monte-Carlo one-sided check of the varying-radius robust revenue.

    Samples priors within KL distance ``rho0`` of the prior induced by the
    model (Dirichlet proposals, rejection on the KL constraint) and returns
    the smallest conditional expected revenue seen.  The dual value can never
    exceed this minimum by more than solver tolerance.
    """
    if rho0 < ZERO_RADIUS:
        return nominal_expected_revenue(model, items)
    n_plus = model.n_items + 1
    p0 = np.concatenate(([1.0], model.attractions)) / (1.0 + model.v_tot)
    member = np.zeros(n_plus, dtype=bool)
    member[0] = True
    for i in items:
        member[i] = True
    revs = np.concatenate(([0.0], model.revenues))

    def conditional_revenue(prior: np.ndarray) -> float:
        mass = float(prior[member].sum())
        return float((prior[member] * revs[member]).sum() / mass)

    best = conditional_revenue(p0)
    accepted = 0
    budget = 10 ** 5
    c_lo = max(2.0, 0.25 * n_plus / rho0)
    c_hi = 100.0 * c_lo
    while accepted < samples and budget > 0:
        batch = min(512, budget)
        budget -= batch
        for _ in range(batch):
            conc = math.exp(rng.uniform(math.log(c_lo), math.log(c_hi)))
            prior = rng.dirichlet(conc * p0 * n_plus)
            if np.any(prior <= 0.0):
                continue
            kl = float(np.sum(prior * np.log(prior / p0)))
            if kl > rho0:
                continue
            accepted += 1
            rev = conditional_revenue(prior)
            if rev < best:
                best = rev
            if accepted >= samples:
                break
    return best


def test_varying_primal_check_zero_budget(rng):
    m = MnlModel(attractions=np.array([1.0, 0.5]), revenues=np.array([1.0, 0.3]), r_max=1.0)
    out = robust_revenue_varying_primal_check(m, (1, 2), 0.0, 100, rng)
    assert out == pytest.approx(nominal_expected_revenue(m, (1, 2)), abs=1e-12)


def test_varying_primal_check_bounds_dual(rng):
    m = MnlModel(attractions=np.array([0.8, 1.1, 0.6]), revenues=np.array([1.0, 0.5, 0.2]),
                 r_max=1.0)
    spec = VaryingRadius(0.05, m.v_tot)
    for items in [(1,), (1, 2), (1, 2, 3)]:
        dual = robust_revenue(m, items, spec).value
        sampled = robust_revenue_varying_primal_check(m, items, 0.05, 10 ** 5, rng)
        assert sampled >= dual - 1e-6


def test_varying_primal_check_full_set_matches_oracle(rng):
    # at the full set the varying radius equals the budget itself
    m = MnlModel(attractions=np.array([0.9, 0.7, 1.2]), revenues=np.array([1.0, 0.6, 0.3]),
                 r_max=1.0)
    rho0 = 0.05
    items = (1, 2, 3)
    oracle = primal_robust_revenue_oracle(m, items, rho0)
    sampled = robust_revenue_varying_primal_check(m, items, rho0, 10 ** 5, rng)
    assert sampled >= oracle - 1e-6
    assert sampled <= oracle + 0.05 * m.r_max  # Monte-Carlo approach from above
