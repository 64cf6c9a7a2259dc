import math

import numpy as np
import pytest

from robust_assortment import (
    ConstantRadius,
    MnlModel,
    choice_probabilities,
    generate_dataset,
    instance_cardinality,
    instance_sample_efficiency,
    kl_divergence,
    perturb_prior,
    plan,
    random_schedule,
    rank_breaking,
    shift_metrics,
)
from robust_assortment.simulate import model_from_prior, prior_of


def test_instance_sample_efficiency_model_values():
    model, _ = instance_sample_efficiency()
    assert model.n_items == 15
    assert model.attractions[0] == pytest.approx(1 / 3 + 0.01, abs=1e-15)
    assert model.attractions[14] == pytest.approx(1 / 3, abs=1e-15)
    assert np.all(model.revenues == 1.0)
    # uniform revenues: the optimum is the boosted triple under either rule
    assert plan(model, 3, ConstantRadius(0.1)).assortment == (1, 2, 3)


def test_instance_sample_efficiency_schedule_properties(rng):
    model, factory = instance_sample_efficiency()
    n = 30000
    schedule = factory(n, rng)
    star = {1, 2, 3}
    assert all(len(s) == 3 for s in schedule)
    assert all(set(s) != star for s in schedule)
    member_rate = np.mean([1 in s for s in schedule])
    sigma = math.sqrt((2 / 3) * (1 / 3) / n)
    assert abs(member_rate - 2 / 3) <= 4 * sigma
    outsiders = [tuple(sorted(set(s) - star)) for s in schedule]
    assert all(len(o) == 1 and 4 <= o[0] <= 15 for o in outsiders)


def test_instance_cardinality_values():
    model, _ = instance_cardinality(1, 1000, uniform=True)
    assert model.attractions[0] == pytest.approx(1.0 + 1.0 / math.sqrt(1000), abs=1e-15)
    model2, schedule2 = instance_cardinality(2, 3, uniform=False)
    assert schedule2[3] == (2, 10)  # record 4: ceil(4/3) = 2 alongside {4K+2..5K} = {10}
    assert model2.attractions[1] == pytest.approx(0.5 + 1.0 / math.sqrt(3), abs=1e-15)
    assert model2.revenues[7] == 1.0 and model2.revenues[8] == 0.0
    with pytest.raises(ValueError):
        instance_cardinality(11, 10, uniform=True)  # 5k exceeds the catalogue


def test_instance_cardinality_coverage_counts(rng):
    k, n_effect = 3, 50
    model, schedule = instance_cardinality(k, n_effect, uniform=True)
    ds = generate_dataset(model, schedule, rng)
    counts = rank_breaking(ds, model.n_items)
    np.testing.assert_array_equal(counts.offered[: 4 * k], n_effect)
    assert counts.offered[4 * k] == 0
    np.testing.assert_array_equal(counts.offered[4 * k + 1: 5 * k], len(schedule))


def test_generate_dataset_trivial_cases(rng):
    m = MnlModel(attractions=np.array([1e12]), revenues=np.ones(1))
    assert generate_dataset(m, [], rng).n == 0
    ds = generate_dataset(m, [(1,)] * 200, rng)
    assert all(c == 1 for _, c in ds)


def test_generate_dataset_frequencies(rng):
    m = MnlModel(attractions=np.array([1.0, 2.0, 0.5]), revenues=np.ones(3))
    schedule = [(1, 2)] * 50000 + [(1, 2, 3)] * 50000
    ds = generate_dataset(m, schedule, rng)
    counts = rank_breaking(ds, 3)
    expected_wins_1 = 50000 * choice_probabilities(m, (1, 2)).probs[1] + \
        50000 * choice_probabilities(m, (1, 2, 3)).probs[1]
    sigma = math.sqrt(expected_wins_1)  # binomial mixture, conservative scale
    assert abs(counts.wins[0] - expected_wins_1) <= 4 * sigma


def test_generate_dataset_seed_determinism():
    m = MnlModel(attractions=np.array([1.0, 2.0]), revenues=np.ones(2))
    schedule = [(1,), (1, 2), (2,)] * 100
    a = generate_dataset(m, schedule, np.random.default_rng(42))
    b = generate_dataset(m, schedule, np.random.default_rng(42))
    assert a == b


def test_perturb_prior_round_trip_and_bucket(rng):
    m = MnlModel(attractions=np.array([0.5, 1.5, 1.0]), revenues=np.ones(3))
    for bucket in ((0.0, 1.0), (1.0, math.inf)):
        shifted, kl = perturb_prior(m, bucket, rng)
        recomputed = kl_divergence(prior_of(shifted), prior_of(m))
        assert recomputed == pytest.approx(kl, rel=1e-9)
        assert bucket[0] <= recomputed < bucket[1]
    prior = prior_of(m)
    rebuilt = model_from_prior(prior, m.revenues, m.r_max)
    np.testing.assert_allclose(rebuilt.attractions, m.attractions, atol=1e-12)


def test_perturb_prior_determinism():
    m = MnlModel(attractions=np.array([0.5, 1.5]), revenues=np.ones(2))
    a = perturb_prior(m, (0.0, 1.0), np.random.default_rng(5))
    b = perturb_prior(m, (0.0, 1.0), np.random.default_rng(5))
    np.testing.assert_array_equal(a[0].attractions, b[0].attractions)
    assert a[1] == b[1]


def test_random_schedule_validity(rng):
    schedule = random_schedule(200, 6, rng)
    assert len(schedule) == 200
    for s in schedule:
        assert 1 <= len(s) <= 6
        assert len(set(s)) == len(s)
        assert all(1 <= i <= 6 for i in s)


def test_shift_metrics_trivial_grid(rng):
    m = MnlModel(attractions=np.array([1.0, 0.7]), revenues=np.array([1.0, 0.5]), r_max=1.0)
    assortments = {0.0: (1, 2)}
    shifted = [perturb_prior(m, (0.0, 1.0), rng)[0] for _ in range(20)]
    gains, rels, radii = shift_metrics(assortments, shifted, [0.0])
    assert np.all(gains == 0.0)
    assert np.all(radii == 0.0)
    assert np.all(rels[~np.isnan(rels)] == 0.0)


def test_shift_metrics_gain_nonnegative(rng):
    m = MnlModel(attractions=np.array([1.0, 0.7, 0.2]),
                 revenues=np.array([1.0, 0.5, 0.9]), r_max=1.0)
    assortments = {0.0: (1, 2, 3), 0.5: (1,), 1.0: ()}
    shifted = [perturb_prior(m, (0.0, 1.0), rng)[0] for _ in range(50)]
    gains, _, radii = shift_metrics(assortments, shifted, [0.0, 0.5, 1.0])
    assert np.all(gains >= 0.0)
    assert set(np.unique(radii)).issubset({0.0, 0.5, 1.0})


def test_shift_metrics_requires_anchor():
    m = MnlModel(attractions=np.array([1.0]), revenues=np.ones(1))
    with pytest.raises(ValueError):
        shift_metrics({0.5: (1,)}, [m], [0.5])
