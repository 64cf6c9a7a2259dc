import math

import numpy as np
import pytest

from robust_assortment import (
    DataValidationError,
    MnlModel,
    NotFittedError,
    OfflineDataset,
    RankBreakingEstimator,
    generate_dataset,
    lcb_validity_rate,
    load_dataset,
    point_and_lcb,
    rank_breaking,
)


def test_rank_breaking_empty_dataset():
    counts = rank_breaking(OfflineDataset([]), 4)
    assert counts.n == 0
    assert np.all(counts.wins == 0)
    assert np.all(counts.duels == 0)
    assert np.all(counts.offered == 0)


def test_rank_breaking_single_purchase_record():
    # item 2's duel count is untouched because the choice was neither 0 nor 2
    counts = rank_breaking(OfflineDataset([((1, 2), 1)]), 3)
    assert counts.wins.tolist() == [1, 0, 0]
    assert counts.duels.tolist() == [1, 0, 0]
    assert counts.offered.tolist() == [1, 1, 0]


def test_rank_breaking_no_purchase_counts_both():
    counts = rank_breaking(OfflineDataset([((1, 2), 0)]), 3)
    assert counts.wins.tolist() == [0, 0, 0]
    assert counts.duels.tolist() == [1, 1, 0]


def test_rank_breaking_validates_choice():
    with pytest.raises(DataValidationError) as err:
        rank_breaking(OfflineDataset([((1, 2), 1), ((1, 2), 3)]), 3)
    assert err.value.record_index == 1


def test_loaders_set_record_index_and_file_line(tmp_path):
    jsonl = tmp_path / "d.jsonl"
    jsonl.write_text('{"assortment": [1], "choice": 1}\n\n{"assortment": [2]}\n')
    with pytest.raises(DataValidationError, match="line 3") as err:
        load_dataset(jsonl)
    assert err.value.record_index == 1
    table = tmp_path / "d.csv"
    table.write_text("assortment,choice\n1,1\n2,0\n1;2,one\n")
    with pytest.raises(DataValidationError, match="line 4") as err:
        load_dataset(table)
    assert err.value.record_index == 2


def test_point_and_lcb_uncovered_item():
    counts = rank_breaking(OfflineDataset([((1,), 1)]), 2)
    est = point_and_lcb(counts, delta=0.1)
    assert math.isnan(est.p_hat[1])
    assert est.p_lcb[1] == 0.0
    assert est.v_lcb[1] == 0.0
    assert est.v_hat[1] == 0.0


def test_point_and_lcb_saturated_win_rate():
    n = 10 ** 6
    counts = rank_breaking(OfflineDataset([((1,), 1)] * n), 1)
    est = point_and_lcb(counts, delta=0.1)
    assert est.p_hat[0] == 1.0
    assert est.v_hat[0] == est.v_cap
    expected_lcb = 1.0 - math.log(10.0) / n
    assert est.p_lcb[0] == pytest.approx(expected_lcb, abs=1e-12)
    assert est.v_lcb[0] == pytest.approx(n / math.log(10.0), rel=1e-5)


def test_point_and_lcb_formula():
    records = [((1,), 1)] * 500 + [((1,), 0)] * 500
    est = point_and_lcb(rank_breaking(OfflineDataset(records), 1), delta=1 / 15)
    expected = 0.5 - math.sqrt(2 * 0.25 * math.log(15.0) / 1000) - math.log(15.0) / 1000
    assert est.p_hat[0] == 0.5
    assert est.p_lcb[0] == pytest.approx(expected, abs=1e-15)
    assert est.v_lcb[0] == pytest.approx(expected / (1 - expected), abs=1e-15)


def test_lcb_below_point_estimate(rng):
    m = MnlModel(attractions=rng.uniform(0.2, 2.0, 5), revenues=np.ones(5))
    schedule = [tuple(sorted(rng.choice(5, size=3, replace=False) + 1)) for _ in range(2000)]
    est = point_and_lcb(rank_breaking(generate_dataset(m, schedule, rng), 5), delta=0.05)
    defined = ~np.isnan(est.p_hat)
    assert np.all(est.p_lcb[defined] <= est.p_hat[defined] + 1e-15)
    assert np.all(est.v_lcb[defined] <= est.v_hat[defined] + 1e-12)


def test_determinism_and_item_decoupling(rng):
    m = MnlModel(attractions=np.array([1.0, 0.5, 2.0]), revenues=np.ones(3))
    schedule = [(1, 2), (1, 3), (2, 3), (1, 2, 3)] * 200
    ds = generate_dataset(m, schedule, rng)
    est1 = point_and_lcb(rank_breaking(ds, 3), delta=0.1)
    est2 = point_and_lcb(rank_breaking(ds, 3), delta=0.1)
    np.testing.assert_array_equal(est1.v_lcb, est2.v_lcb)

    # item 1's estimate depends only on records offering item 1
    keep = [(s, c) for s, c in ds if 1 in s]
    drop_others = OfflineDataset(keep)
    est3 = point_and_lcb(rank_breaking(drop_others, 3), delta=0.1)
    assert est3.v_lcb[0] == est1.v_lcb[0]
    assert est3.v_hat[0] == est1.v_hat[0]

    # reordering the complement leaves item 1 untouched as well
    reordered = OfflineDataset(keep[::-1] + [(s, c) for s, c in ds if 1 not in s])
    est4 = point_and_lcb(rank_breaking(reordered, 3), delta=0.1)
    assert est4.v_lcb[0] == est1.v_lcb[0]


def test_consistency_with_sample_size(rng):
    m = MnlModel(attractions=np.array([0.8, 1.6]), revenues=np.ones(2))
    gaps = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        schedule = [(1, 2)] * n
        ds = generate_dataset(m, schedule, rng)
        est = point_and_lcb(rank_breaking(ds, 2), delta=0.05)
        gaps.append(float(np.max(m.attractions - est.v_lcb)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert np.all(np.abs(point_and_lcb(rank_breaking(ds, 2), 0.05).v_hat - m.attractions) < 0.1)


def test_dataset_file_roundtrips(tmp_path, rng):
    m = MnlModel(attractions=np.array([1.0, 2.0, 0.3]), revenues=np.ones(3))
    schedule = [(1, 2), (3,), (1, 2, 3)] * 5
    ds = generate_dataset(m, schedule, rng)
    jpath = tmp_path / "data.jsonl"
    ds.to_jsonl(jpath)
    assert load_dataset(jpath) == ds
    cpath = tmp_path / "data.csv"
    ds.to_csv(cpath)
    assert load_dataset(cpath) == ds


def test_lcb_validity_rate_no_data(rng):
    m = MnlModel(attractions=np.array([1.0]), revenues=np.ones(1))
    assert lcb_validity_rate(m, [(1,)], 0, 0.1, 5, rng) == 1.0


def test_lcb_validity_rate_single_item(rng):
    m = MnlModel(attractions=np.array([1.0]), revenues=np.ones(1))
    n = 10 ** 5
    rate = lcb_validity_rate(m, [(1,)] * n, n, 0.01, 30, rng)
    assert rate >= 0.97
    ds = generate_dataset(m, [(1,)] * n, rng)
    est = point_and_lcb(rank_breaking(ds, 1), delta=0.01)
    assert m.attractions[0] - est.v_lcb[0] <= 0.05


def test_estimator_class_api(rng):
    m = MnlModel(attractions=np.array([1.0, 0.4]), revenues=np.ones(2))
    ds = generate_dataset(m, [(1, 2)] * 500, rng)
    est = RankBreakingEstimator(n_items=2, delta=0.05)
    assert est.get_params() == {"n_items": 2, "delta": 0.05, "v_cap": 1e9}
    with pytest.raises(NotFittedError):
        est.transform()
    est.fit(ds)
    assert est.v_lcb_.shape == (2,)
    np.testing.assert_array_equal(est.transform(), est.v_lcb_)
    est.set_params(delta=0.2)
    assert est.get_params()["delta"] == 0.2
    with pytest.raises(ValueError):
        est.set_params(bogus=1)
