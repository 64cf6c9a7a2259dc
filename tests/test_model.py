import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from robust_assortment import (
    ConstantRadius,
    InvalidAssortmentError,
    MnlModel,
    ModelFormatError,
    NumericRangeError,
    as_assortment,
    generate_dataset,
    load_model,
    nominal_expected_revenue,
    plan,
    robust_revenue,
    save_model,
)
from robust_assortment.model import LAMBDA_FLOOR, choice_columns, nominal_revenues

from conftest import choice_probs


def test_choice_probabilities_equal_attractions():
    m = MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.array([1.0, 0.5]))
    P, R, weights = choice_columns(m, [(2, 1)])
    np.testing.assert_allclose(P[:, 0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert R[:, 0].tolist() == [0.0, 1.0, 0.5]  # no purchase first, then ascending ids
    assert weights.tolist() == [3.0]


def test_choice_probabilities_single_item():
    m = MnlModel(attractions=np.array([3.0]), revenues=np.array([1.0]))
    np.testing.assert_allclose(choice_probs(m, (1,)), [0.25, 0.75], atol=1e-15)


def test_choice_probabilities_boosted_instance():
    # 15 items, three boosted by 0.01 over 1/3; offering the boosted triple
    v = np.full(15, 1 / 3)
    v[:3] += 0.01
    m = MnlModel(attractions=v, revenues=np.ones(15))
    assert choice_probs(m, (1, 2, 3))[0] == pytest.approx(1 / 2.03, abs=1e-12)


def test_expected_revenue_point_mass_on_no_purchase():
    m = MnlModel(attractions=np.array([1.0, 2.0]), revenues=np.array([1.0, 1.0]))
    R = choice_columns(m, [(1, 2)])[1]
    assert nominal_revenues(np.array([[1.0], [0.0], [0.0]]), R)[0] == 0.0


def test_expected_revenue_uniform():
    m = MnlModel(attractions=np.array([1.0, 2.0]), revenues=np.array([1.0, 1.0]))
    R = choice_columns(m, [(1, 2)])[1]
    assert nominal_revenues(np.full((3, 1), 1 / 3), R)[0] == pytest.approx(2 / 3, abs=1e-15)


def test_expected_revenue_mnl_conditional():
    m = MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.array([1.0, 0.5]))
    assert nominal_expected_revenue(m, (1, 2)) == pytest.approx(0.5, abs=1e-15)


def test_nominal_expected_revenue_cases():
    m = MnlModel(attractions=np.array([1.0]), revenues=np.array([2.0]), r_max=2.0)
    assert nominal_expected_revenue(m, ()) == 0.0
    assert nominal_expected_revenue(m, (1,)) == pytest.approx(1.0, abs=1e-15)  # r_max / 2
    m2 = MnlModel(attractions=np.array([2.0, 1.0]), revenues=np.array([1.0, 1.0]))
    assert nominal_expected_revenue(m2, (1, 2)) == pytest.approx(3 / 4, abs=1e-15)


def test_sample_choice_empty_assortment(rng):
    m = MnlModel(attractions=np.array([1.0]), revenues=np.array([1.0]))
    assert np.all(_draws(m, (), 10, rng) == 0)


def _draws(model, items, n, rng):
    """n choices from ``items``, drawn in one ``generate_dataset`` call."""
    return generate_dataset(model, np.tile(np.array(items, dtype=np.int64), (n, 1)), rng).choices


def test_sample_choice_dominant_item(rng):
    m = MnlModel(attractions=np.array([1e9]), revenues=np.array([1.0]))
    draws = _draws(m, (1,), 10 ** 5, rng)
    assert np.mean(draws == 1) >= 0.999


def test_sample_choice_frequencies(rng):
    m = MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.array([1.0, 1.0]))
    n = 10 ** 5
    draws = _draws(m, (1, 2), n, rng)
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    for outcome in (0, 1, 2):
        assert abs(np.mean(draws == outcome) - 1 / 3) <= 3 * sigma


def test_sampling_chi_square(rng):
    m = MnlModel(attractions=np.array([0.5, 2.0, 1.0]), revenues=np.array([1.0, 1.0, 1.0]))
    items = (1, 2, 3)
    n = 10 ** 5
    draws = _draws(m, items, n, rng)
    observed = np.array([np.sum(draws == c) for c in (0, *items)])
    _, p_value = stats.chisquare(observed, n * choice_probs(m, items))
    assert p_value > 0.001


@given(st.integers(1, 6), st.integers(0, 2 ** 20 - 1))
@settings(max_examples=60, deadline=None)
def test_probability_invariants(n, seed):
    gen = np.random.default_rng(seed)
    m = MnlModel(attractions=gen.uniform(0.01, 50.0, size=n),
                 revenues=gen.uniform(0.0, 1.0, size=n), r_max=1.0)
    size = int(gen.integers(0, n + 1))
    items = tuple(sorted(gen.choice(n, size=size, replace=False) + 1)) if size else ()
    probs = choice_probs(m, items)
    assert np.all(probs >= 0.0)
    assert abs(float(probs.sum()) - 1.0) <= 1e-12
    assert 0.0 <= nominal_expected_revenue(m, items) <= m.r_max + 1e-12


def test_doubling_attractions_shifts_mass():
    gen = np.random.default_rng(7)
    m = MnlModel(attractions=gen.uniform(0.1, 2.0, size=5),
                 revenues=np.ones(5))
    doubled = MnlModel(attractions=2 * m.attractions, revenues=m.revenues)
    items = (1, 3, 5)
    before = choice_probs(m, items)
    after = choice_probs(doubled, items)
    assert after[0] < before[0]
    assert np.all(after[1:] > before[1:])


def test_model_json_roundtrip(tmp_path):
    m = MnlModel(attractions=np.array([1.0, 2.5]), revenues=np.array([0.4, 1.0]), r_max=1.0)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.attractions, m.attractions)
    np.testing.assert_array_equal(loaded.revenues, m.revenues)
    assert loaded.r_max == m.r_max


def test_model_validation_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        MnlModel(attractions=np.array([0.0]), revenues=np.array([1.0]))
    with pytest.raises(ValueError):
        MnlModel(attractions=np.array([1.0]), revenues=np.array([2.0]), r_max=1.0)
    with pytest.raises(ValueError):
        MnlModel(attractions=np.array([1.0]), revenues=np.array([-0.1]))
    with pytest.raises(ValueError):
        MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.array([1.0]))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"attractions": [1.0, -1.0], "revenues": [1.0, 1.0]}))
    with pytest.raises(ValueError):
        load_model(path)


def test_model_payload_without_field_names_it():
    with pytest.raises(ModelFormatError, match="'revenues'"):
        MnlModel.from_dict({"attractions": [1.0]})
    with pytest.raises(ModelFormatError, match="'attractions' or 'revenues'"):
        MnlModel.from_dict({"r_max": 1.0})
    with pytest.raises(ModelFormatError):
        MnlModel.from_dict([1.0, 2.0])


def test_model_payload_with_unknown_fields_names_them():
    payload = {"attractions": [1.0], "revenues": [0.5], "rmax": 2.0, "Revenues": [1.0]}
    with pytest.raises(ModelFormatError, match="'Revenues', 'rmax'"):
        MnlModel.from_dict(payload)
    model = MnlModel(attractions=np.array([1.0, 2.0]), revenues=np.array([0.5, 0.2]), r_max=3.0)
    assert MnlModel.from_dict(model.to_dict()).to_dict() == model.to_dict()


def test_overflow_guard():
    m = MnlModel(attractions=np.array([1e308, 1e308]), revenues=np.array([1.0, 1.0]))
    with pytest.raises(NumericRangeError):
        choice_columns(m, [(1, 2)])


def test_subnormal_revenue_scale_is_a_typed_error():
    # the dual kernel brackets lambda from LAMBDA_FLOOR * r_max up, so that
    # product must be a normal float
    with pytest.raises(NumericRangeError, match="r_max"):
        MnlModel(attractions=np.array([1.0, 2.0, 0.5, 1.5]),
                 revenues=np.array([1e-318, 5e-319, 8e-319, 2e-319]))
    with pytest.raises(NumericRangeError, match="r_max"):
        MnlModel(attractions=np.ones(2), revenues=np.array([0.0, 1e-300]), r_max=1e-297)
    r_max = 2.0 * np.finfo(float).tiny / LAMBDA_FLOOR  # the smallest scales accepted
    m = MnlModel(attractions=np.array([1.0, 2.0, 0.5]), revenues=r_max * np.array([1.0, 0.5, 0.8]))
    assert 0.0 < robust_revenue(m, (1, 2), ConstantRadius(0.1)).value < r_max
    assert plan(m, 2, ConstantRadius(0.1)).value > 0.0


def test_as_assortment_validation():
    assert as_assortment((3, 1), 5) == (1, 3)
    assert as_assortment((), 5) == ()
    with pytest.raises(InvalidAssortmentError):
        as_assortment((0,), 5)
    with pytest.raises(InvalidAssortmentError):
        as_assortment((6,), 5)
    with pytest.raises(InvalidAssortmentError):
        as_assortment((2, 2), 5)
