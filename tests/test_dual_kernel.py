"""Property tests of the batched KL-dual kernel at extreme scales.

Attractions span 1e-4 to 1e4, radii 1e-11 to 30, and revenues include zeros
and ties.  The reference is the primal tilt-bisection oracle.
"""
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
    kl_divergence,
    primal_robust_revenue_oracle,
    robust_revenue,
)
from robust_assortment import robust
from robust_assortment.robust import _dual_batch, robust_values

TIED_REVENUES = (0.0, 0.25, 0.5, 1.0)


@st.composite
def instances(draw, max_items=8):
    """(model, items, rho): extreme attractions, zero and tied revenues, extreme radius."""
    n = draw(st.integers(1, max_items))
    v = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    revenue = st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0))
    r = np.array(draw(st.lists(revenue, min_size=n, max_size=n)))
    model = MnlModel(attractions=v, revenues=r, r_max=1.0)
    items = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
    rho = 10.0 ** draw(st.floats(-11.0, math.log10(30.0)))
    return model, items, rho


def _rows(cases):
    """Zero-padded P, R and radii for a list of (model, items, rho) cases."""
    width = 1 + max(len(items) for _, items, _ in cases)
    P = np.zeros((len(cases), width))
    R = np.zeros((len(cases), width))
    for row, (model, items, _) in enumerate(cases):
        P[row, : len(items) + 1] = choice_probabilities(model, items).probs
        R[row, 1: len(items) + 1] = model.revenues[np.array(items) - 1]
    return P, R, np.array([rho for _, _, rho in cases])


@given(st.lists(instances(), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_batch_values_match_primal_oracle(cases):
    P, R, rho = _rows(cases)
    values, _, _ = _dual_batch(P, R, rho, 1.0)
    for value, (model, items, rad) in zip(values, cases):
        assert abs(value - primal_robust_revenue_oracle(model, items, rad)) <= 1e-9


@given(st.lists(instances(), min_size=8, max_size=20))
@settings(max_examples=40, deadline=None)
def test_multi_block_batch_equals_batches_of_one(cases):
    P, R, rho = _rows(cases)
    with pytest.MonkeyPatch.context() as mp:
        # a few rows per block, so the batch spans several blocks
        mp.setattr(robust, "_BLOCK_ENTRIES", 6 * P.shape[1])
        values, lam, tilt = _dual_batch(P, R, rho, 1.0)
        for row in range(rho.size):
            one = _dual_batch(P[row:row + 1], R[row:row + 1], rho[row:row + 1], 1.0)
            assert one[0][0] == values[row]
            assert one[1][0] == lam[row]
            assert np.array_equal(one[2][0], tilt[row])


def test_batch_beyond_the_default_block_equals_batches_of_one():
    rng = np.random.default_rng(7)
    n = 12
    model = MnlModel(attractions=10.0 ** rng.uniform(-4.0, 4.0, n),
                     revenues=rng.choice(TIED_REVENUES, n), r_max=1.0)
    sets = np.array([np.sort(rng.choice(n, 6, replace=False)) + 1 for _ in range(1500)])
    cases = [(model, tuple(row.tolist()), float(10.0 ** rng.uniform(-11.0, 1.4)))
             for row in sets]
    P, R, rho = _rows(cases)
    assert rho.size > robust._BLOCK_ENTRIES // (2 * P.shape[1])
    values, lam, tilt = _dual_batch(P, R, rho, 1.0)
    for row in range(0, rho.size, 7):
        one = _dual_batch(P[row:row + 1], R[row:row + 1], rho[row:row + 1], 1.0)
        assert (one[0][0], one[1][0]) == (values[row], lam[row])
        assert np.array_equal(one[2][0], tilt[row])


@given(instances(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_certificate_stays_inside_the_ball(case, varying):
    model, items, rho = case
    spec = ConstantRadius(rho)
    if varying:
        bound = math.log1p(1.0 / model.v_tot)
        spec = VaryingRadius(min(rho, 0.5 * bound), model.v_tot)
    ev = robust_revenue(model, items, spec, allow_degenerate=True)
    probs = choice_probabilities(model, items).probs
    assert kl_divergence(ev.worst_case.probs, probs) <= ev.radius + 1e-8


def _infeasible_on_tiny_pair(model):
    """A varying rule one ulp inside its bound that rejects the set {1, 2}."""
    for step in range(4096):
        v_tot = model.v_tot * (1.0 + step / 1024.0)
        spec = VaryingRadius(float(np.nextafter(math.log1p(1.0 / v_tot), 0.0)), v_tot)
        try:
            spec.radius(model, (1, 2))
        except RadiusInfeasibleError:
            return spec
    raise AssertionError("no infeasible varying radius found")


def test_zero_and_infeasible_rows():
    model = MnlModel(attractions=np.array([1e-17, 1e-17, 2.0]),
                     revenues=np.array([1.0, 1.0, 0.5]), r_max=1.0)
    spec = _infeasible_on_tiny_pair(model)
    values = robust_values(model, np.array([[1, 2], [3, 0]]), spec)
    assert values[0] == 0.0
    assert values[1] == pytest.approx(robust_revenue(model, (3,), spec).value, abs=1e-15)
    ev = robust_revenue(model, (1, 2), spec, allow_degenerate=True)
    assert (ev.value, ev.lambda_star, ev.radius) == (0.0, 0.0, math.inf)
    assert ev.worst_case.probs.tolist() == [1.0, 0.0, 0.0]
    nominal = robust_values(model, np.array([[3, 0], [1, 3]]), ConstantRadius(0.0))
    probs = choice_probabilities(model, (1, 3)).probs
    assert nominal[1] == pytest.approx(probs[1] * 1.0 + probs[2] * 0.5, abs=1e-15)


def test_batch_scores_zero_exactly_where_the_radius_rule_rejects():
    # a budget one ulp inside its bound: whether a set is feasible turns on
    # the last bit of its total attraction, which the batch must reproduce
    rng = np.random.default_rng(11)
    v = np.concatenate((np.full(4, 1.1e-16), rng.uniform(0.5, 1.5, 4)))
    model = MnlModel(attractions=v, revenues=rng.uniform(0.1, 1.0, 8), r_max=1.0)
    spec = _infeasible_on_tiny_pair(model)
    # total attraction 1 + 3.3e-16 rounds to 1 + 1 ulp, 1 + 4.4e-16 to 1 + 2 ulps
    sets = [(1, 2, 3), (1, 2, 3, 4)] + [
        tuple(sorted(rng.choice(8, int(rng.integers(1, 5)), replace=False) + 1))
        for _ in range(60)]
    padded = np.zeros((len(sets), 4), dtype=np.intp)
    for row, items in enumerate(sets):
        padded[row, : len(items)] = items
    values = robust_values(model, padded, spec)
    for items, value in zip(sets, values):
        try:
            expected = robust_revenue(model, items, spec).value
        except RadiusInfeasibleError:
            assert value == 0.0
        else:
            assert value == pytest.approx(expected, abs=1e-12)
