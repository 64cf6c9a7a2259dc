"""Property tests of the batched KL-dual kernel at extreme scales.

Attractions span 1e-4 to 1e4, radii 1e-11 to 30, and revenues include zeros
and ties.  The reference is the primal tilt-bisection oracle.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_assortment import (
    ConstantRadius,
    MnlModel,
    NumericRangeError,
    RadiusInfeasibleError,
    VaryingRadius,
    kl_divergence,
    nominal_expected_revenue,
    primal_robust_revenue_oracle,
    robust_revenue,
)
from robust_assortment import robust
from robust_assortment.model import choice_columns, set_weights
from robust_assortment.planning import _CurveFamily
from robust_assortment.radius import ZERO_RADIUS
from robust_assortment.robust import _dual_batch, robust_values

from conftest import choice_probs

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


def _columns(cases):
    """Zero-padded P, R (one column per case) and radii for a list of (model, items, rho) cases."""
    width = 1 + max(len(items) for _, items, _ in cases)
    P = np.zeros((width, len(cases)))
    R = np.zeros((width, len(cases)))
    for col, (model, items, _) in enumerate(cases):
        P[: len(items) + 1, col] = choice_probs(model, items)
        R[1: len(items) + 1, col] = model.revenues[np.array(items) - 1]
    return P, R, np.array([rho for _, _, rho in cases])


@given(st.lists(instances(), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_batch_values_match_primal_oracle(cases):
    P, R, rho = _columns(cases)
    values, _, _ = _dual_batch(P, R, rho, 1.0)
    for value, (model, items, rad) in zip(values, cases):
        assert abs(value - primal_robust_revenue_oracle(model, items, rad)) <= 1e-9


@given(st.lists(instances(), min_size=8, max_size=20))
@settings(max_examples=40, deadline=None)
def test_multi_block_batch_equals_batches_of_one(cases):
    P, R, rho = _columns(cases)
    with pytest.MonkeyPatch.context() as mp:
        # a few columns per block, so the batch spans several blocks
        mp.setattr(robust, "_BLOCK_ENTRIES", 6 * P.shape[0])
        values, lam, tilt = _dual_batch(P, R, rho, 1.0)
        for col in range(rho.size):
            one = _dual_batch(P[:, col:col + 1], R[:, col:col + 1], rho[col:col + 1], 1.0)
            assert one[0][0] == values[col]
            assert one[1][0] == lam[col]
            assert np.array_equal(one[2][:, 0], tilt[:, col])


def test_batch_beyond_the_default_block_equals_batches_of_one():
    rng = np.random.default_rng(7)
    n = 12
    model = MnlModel(attractions=10.0 ** rng.uniform(-4.0, 4.0, n),
                     revenues=rng.choice(TIED_REVENUES, n), r_max=1.0)
    sets = np.array([np.sort(rng.choice(n, 6, replace=False)) + 1 for _ in range(1500)])
    cases = [(model, tuple(row.tolist()), float(10.0 ** rng.uniform(-11.0, 1.4)))
             for row in sets]
    P, R, rho = _columns(cases)
    assert rho.size > robust._BLOCK_ENTRIES // (2 * P.shape[0])
    values, lam, tilt = _dual_batch(P, R, rho, 1.0)
    for col in range(0, rho.size, 7):
        one = _dual_batch(P[:, col:col + 1], R[:, col:col + 1], rho[col:col + 1], 1.0)
        assert (one[0][0], one[1][0]) == (values[col], lam[col])
        assert np.array_equal(one[2][:, 0], tilt[:, col])


@pytest.mark.parametrize("per_block", [None, 2])
def test_a_straggler_leaves_the_stopped_columns_of_its_batch_as_they_stopped(per_block):
    # column 0 sits near saturation (its zero-revenue mass is 0.81) and takes
    # 10 Newton rounds; the others stop sooner, at the floor, at once, or never
    # enter the kernel, and must keep the bits they stopped with
    saturation = -math.log(0.81)
    P = np.array([[0.5, 0.5, 0.6, 0.5, 0.5, 0.5, 0.5],
                  [0.31, 0.31, 0.4, 0.31, 0.31, 0.31, 0.31],
                  [0.1, 0.1, 0.0, 0.1, 0.1, 0.1, 0.1],
                  [0.09, 0.09, 0.0, 0.09, 0.09, 0.09, 0.09]])
    R = np.array([[0.0] * 7, [0.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0], [0.6] * 7, [0.9] * 7])
    R[2:, 2] = 0.0
    rho = np.array([0.995 * saturation, 0.05, 0.05, 1e-3, 1.5 * saturation, math.inf, 0.0])
    with pytest.MonkeyPatch.context() as mp:
        if per_block is not None:
            mp.setattr(robust, "_BLOCK_ENTRIES", 2 * per_block * P.shape[0])
        values, lam, tilt = _dual_batch(P, R, rho, 1.0)
        for col in range(rho.size):
            one = _dual_batch(P[:, col:col + 1], R[:, col:col + 1], rho[col:col + 1], 1.0)
            assert (one[0][0], one[1][0]) == (values[col], lam[col])
            assert np.array_equal(one[2][:, 0], tilt[:, col])
    assert 0.0 < values[0] < values[3] and values[4] == values[5] == 0.0 and lam[6] == math.inf


# the value is floored at 0 (lambda_star 0) in both.  The one item that earns is
# light, so at rho = 30 the ball holds P restricted to the zero-revenue choices;
# a heavy item of revenue 1e-153 keeps most of the mass in any ball of radius 1,
# so there the certificate is the kernel's tilt at its lambda floor
_LIGHT_EARNER = MnlModel(attractions=np.array([1e-4, 1.0]), revenues=np.array([1.0, 0.0]),
                         r_max=1.0)
_TINY_EARNER = MnlModel(attractions=np.array([10.0]), revenues=np.array([1e-153]), r_max=1.0)


@given(instances(), st.booleans())
@settings(max_examples=150, deadline=None)
@example(case=(_LIGHT_EARNER, (1, 2), 30.0), varying=False)
@example(case=(_TINY_EARNER, (1,), 1.0), varying=False)
def test_certificate_stays_inside_the_ball(case, varying):
    model, items, rho = case
    spec = ConstantRadius(rho)
    if varying:
        bound = math.log1p(1.0 / model.v_tot)
        spec = VaryingRadius(min(rho, 0.5 * bound), model.v_tot)
    ev = robust_revenue(model, items, spec, allow_degenerate=True)
    P, R, _ = choice_columns(model, [items])
    q = ev.worst_case.probs
    assert kl_divergence(q, P[:, 0]) <= ev.radius + 1e-8
    assert math.fsum(q * R[:, 0]) <= ev.value + 1e-9
    if ev.lambda_star == 0.0:
        assert ev.value == 0.0


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
    probs = choice_probs(model, (1, 3))
    assert nominal[1] == pytest.approx(probs[1] * 1.0 + probs[2] * 0.5, abs=1e-15)


def test_batch_scores_zero_exactly_where_the_radius_rule_rejects():
    # a budget one ulp inside its bound rejects a total attraction of exactly 1
    # and accepts 1 + 1 ulp, so whether a set is feasible turns on the last bit
    # of its weight, which the batch must reproduce
    rng = np.random.default_rng(11)
    v = np.concatenate(([1.0e-16, 1.0e-16, 1.3e-16, 1.0e-16], rng.uniform(0.5, 1.5, 4)))
    model = MnlModel(attractions=v, revenues=rng.uniform(0.1, 1.0, 8), r_max=1.0)
    spec = _infeasible_on_tiny_pair(model)
    # items 1, 2 and 4 add 0.45 ulp of 1 and item 3 adds 0.59 ulp: summed left
    # to right from 1, {1, 2} and {1, 2, 4} stay at 1 while {1, 2, 3} and
    # {1, 2, 3, 4} round to 1 + 1 ulp (summing the attractions before adding 1
    # would give {1, 2} and {1, 2, 4} 1 + 1 ulp as well)
    tiny = [(1, 2), (1, 2, 4), (1, 2, 3), (1, 2, 3, 4)]
    ulp = np.spacing(1.0)
    weights = [model.assortment_weight(items) for items in tiny]
    assert weights == [1.0, 1.0, 1 + ulp, 1 + ulp]
    rejected = np.isinf(spec.radii_from_weights(np.array(weights)))
    assert rejected.tolist() == [True, True, False, False]
    sets = tiny + [
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


@st.composite
def single_sets(draw):
    """(model, items, spec): up to 10 items, extreme attractions, zero and tied
    revenues, both radius rules, radii from below ZERO_RADIUS up to 30."""
    n = draw(st.integers(1, 10))
    v = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    revenue = st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0))
    r = np.array(draw(st.lists(revenue, min_size=n, max_size=n)))
    model = MnlModel(attractions=v, revenues=r, r_max=1.0)
    items = tuple(sorted(draw(st.sets(st.integers(1, n)))))
    tiny = st.floats(0.0, ZERO_RADIUS, exclude_max=True)
    bound = math.log1p(1.0 / model.v_tot)
    spec = draw(st.one_of(
        st.builds(ConstantRadius, tiny),
        st.floats(-11.0, math.log10(30.0)).map(lambda e: ConstantRadius(10.0 ** e)),
        st.builds(VaryingRadius, tiny, st.just(model.v_tot)),
        st.floats(1e-6, 0.999).map(lambda share: VaryingRadius(share * bound, model.v_tot)),
    ))
    return model, items, spec


# 1 + 1.1e-16 rounds back to 1 and 1 + 1.2e-16 up one ulp: summed left to right,
# {1, 2} weighs exactly 1 (fsum would round it up one ulp) and {3} weighs 1 + 1 ulp,
# and a budget one ulp inside its bound rejects the first only
_LAST_BIT = MnlModel(attractions=np.array([1.1e-16, 1.1e-16, 1.2e-16, 0.7, 1.3]),
                     revenues=np.linspace(0.2, 1.0, 5), r_max=1.0)


@given(single_sets())
@settings(max_examples=300, deadline=None)
@example(case=(_LAST_BIT, (1, 2), None))
@example(case=(_LAST_BIT, (3,), None))
def test_one_set_scores_the_same_bits_on_every_path(case):
    # one choice-row builder and one set-weight rule: the certificate path, the
    # batch path, the nominal formula and the planner's dual cap agree bit for bit
    model, items, spec = case
    if spec is None:
        # the last-bit examples; found here, not at import, so that a change to
        # the weight rule fails this test and not the collection of the file
        spec = _infeasible_on_tiny_pair(model)
    value = robust_values(model, [items], spec)[0]
    assert robust_revenue(model, items, spec, allow_degenerate=True).value == value
    try:
        rho = spec.radius(model, items)
    except RadiusInfeasibleError:
        rho = math.inf
    if rho < ZERO_RADIUS:
        assert value == nominal_expected_revenue(model, items)
    if not spec.is_zero:
        offered = np.isin(np.arange(1, model.n_items + 1), items)
        weight = set_weights(np.where(offered, model.attractions, 0.0)[:, None])
        cap = _CurveFamily(model.attractions, model.revenues, model.r_max, spec).caps(weight)[0]
        assert cap == (0.0 if rho == math.inf else model.r_max / rho)


def test_overflowing_set_weight_is_a_typed_error():
    model = MnlModel(attractions=np.array([1e308, 1e308]), revenues=np.array([1.0, 1.0]))
    for spec in (ConstantRadius(0.1), VaryingRadius(0.1, 1.0)):
        with pytest.raises(NumericRangeError):
            spec.radius(model, (1, 2))
        with pytest.raises(NumericRangeError):
            robust_values(model, [(1, 2)], spec)
        assert robust_values(model, [(1, 0)], spec)[0] >= 0.0  # one item alone fits
    with pytest.raises(NumericRangeError):
        choice_columns(model, [(1, 2)])

