"""A set scores the same bits alone, zero-padded, or anywhere in any batch.

The dual kernel holds one set per column and sums down it in choice order, so
padding adds exact zeros and no per-set result depends on its neighbours.
Models span attractions 1e-4 to 1e4, radii 1e-11 to 30 under both radius
rules, and zero and tied revenues.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_assortment import ConstantRadius, MnlModel, VaryingRadius, planning, robust_revenue
from robust_assortment import robust
from robust_assortment.model import choice_columns, column_sums
from robust_assortment.radius import ZERO_RADIUS
from robust_assortment.robust import _dual_batch, robust_values

TIED_REVENUES = (0.0, 0.25, 0.5, 1.0)


@st.composite
def batches(draw):
    """(model, sets, spec, extra zero columns, rows per block)."""
    n = draw(st.integers(1, 12))
    v = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    revenue = st.one_of(st.sampled_from(TIED_REVENUES), st.floats(0.0, 1.0))
    r = np.array(draw(st.lists(revenue, min_size=n, max_size=n)))
    model = MnlModel(attractions=v, revenues=r, r_max=1.0)
    sets = draw(st.lists(st.sets(st.integers(1, n)).map(lambda s: tuple(sorted(s))),
                         min_size=1, max_size=24))
    bound = math.log1p(1.0 / model.v_tot)
    spec = draw(st.one_of(
        st.builds(ConstantRadius, st.floats(0.0, ZERO_RADIUS, exclude_max=True)),
        st.floats(-11.0, math.log10(30.0)).map(lambda e: ConstantRadius(10.0 ** e)),
        st.floats(1e-6, 0.999).map(lambda share: VaryingRadius(share * bound, model.v_tot)),
    ))
    return model, sets, spec, draw(st.integers(0, 6)), draw(st.integers(1, 5))


@given(batches())
@settings(max_examples=150, deadline=None)
def test_padded_mixed_multi_block_rows_equal_each_set_alone(case):
    model, sets, spec, extra, per_block = case
    padded = np.zeros((len(sets), max(map(len, sets)) + extra), dtype=np.intp)
    for row, items in enumerate(sets):
        padded[row, :len(items)] = items
    P, R, weights = choice_columns(model, padded)
    rho = spec.radii_from_weights(weights)
    with pytest.MonkeyPatch.context() as mp:
        # a few sets per block at the full width, so the batch spans several blocks
        mp.setattr(robust, "_BLOCK_ENTRIES", 2 * per_block * P.shape[0])
        values, lam, tilt = _dual_batch(P, R, rho, model.r_max)
    for row, items in enumerate(sets):
        assert values[row] == robust_values(model, [items], spec)[0]
        own_P, own_R, own_weight = choice_columns(model, [items])
        own = _dual_batch(own_P, own_R, spec.radii_from_weights(own_weight), model.r_max)
        assert lam[row] == own[1][0]
        assert np.array_equal(tilt[:len(items) + 1, row], own[2][:, 0])
        assert not tilt[len(items) + 1:, row].any()


def test_bruteforce_scores_every_set_as_robust_revenue_does():
    rng = np.random.default_rng(5)
    model = MnlModel(attractions=10.0 ** rng.uniform(-2.0, 2.0, 9),
                     revenues=rng.choice(TIED_REVENUES + (0.3, 0.7), 9), r_max=1.0)
    for spec in (ConstantRadius(0.3), VaryingRadius(0.5 * math.log1p(1.0 / model.v_tot),
                                                    model.v_tot)):
        calls = []

        def spy(model, sets, spec):
            values = robust_values(model, sets, spec)
            calls.append((np.array(sets), values))
            return values

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planning, "robust_values", spy)
            result = planning.plan_bruteforce(model, 4, spec)
        assert len(calls) == 1
        sets, values = calls[0]
        assert values.size == result.evaluations == sum(math.comb(9, s) for s in range(5))
        for row, value in zip(sets, values):
            items = tuple(int(i) for i in row if i > 0)
            assert robust_revenue(model, items, spec, allow_degenerate=True).value == value
        if result.assortment:
            assert result.value == robust_revenue(model, result.assortment, spec).value


# the widest block _dual_batch builds: columns of two choices, stacked twice by _solve_block
@pytest.mark.parametrize("columns", [1, 2, 3, 40, 300, robust._BLOCK_ENTRIES // 2])
def test_column_sums_add_each_column_in_row_order(columns):
    rng = np.random.default_rng(columns)
    for rows in (1, 2, 9, 130, 300):
        x = rng.standard_normal((rows, columns)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, columns))
        in_order = np.zeros(columns)
        for line in x:
            in_order += line
        assert np.array_equal(column_sums(x), in_order)
        padded = np.concatenate((x, np.zeros((rows % 7, columns))))
        assert np.array_equal(column_sums(padded), in_order)
        # numpy sums an F-ordered array down its columns pairwise
        assert np.array_equal(column_sums(np.asfortranarray(x)), in_order)
        strided = np.zeros((2 * rows, 3 * columns))
        strided[::2, ::3] = x
        assert np.array_equal(column_sums(strided[::2, ::3]), in_order)
        assert np.array_equal(column_sums(strided.T[::3, ::2].T), in_order)


@pytest.mark.parametrize("columns", [0, 1, 3])
def test_column_sums_of_no_rows_are_zero(columns):
    assert np.array_equal(column_sums(np.empty((0, columns))), np.zeros(columns))
