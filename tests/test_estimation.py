import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_assortment import (
    DataValidationError,
    MnlModel,
    OfflineDataset,
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


def _reference_counts(records, n_items):
    """Rank-breaking counts walked one record and one offered item at a time."""
    wins, duels, offered = ([0] * n_items for _ in range(3))
    for items, choice in records:
        for j in items:
            offered[j - 1] += 1
            duels[j - 1] += choice in (0, j)
        if choice:
            wins[choice - 1] += 1
    return wins, duels, offered


@st.composite
def _records(draw):
    """Unsorted sets drawn from a small pool (so sets repeat), empty sets included,
    each with a choice from its S_+."""
    n_items = draw(st.integers(1, 60))
    pool = draw(st.lists(st.lists(st.integers(1, n_items), unique=True, max_size=n_items),
                         min_size=1, max_size=8))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(0, 60)),
                          max_size=60))
    return n_items, [(pool[i], [0, *pool[i]][c % (len(pool[i]) + 1)]) for i, c in picks]


@given(_records())
@settings(max_examples=200, deadline=None)
def test_rank_breaking_matches_per_record_counts(case):
    n_items, records = case
    counts = rank_breaking(OfflineDataset(records), n_items)
    wins, duels, offered = _reference_counts(records, n_items)
    assert counts.wins.tolist() == wins
    assert counts.duels.tolist() == duels
    assert counts.offered.tolist() == offered
    assert counts.n == len(records)


@pytest.mark.parametrize("bad, message", [
    (((1, 4), 1), r"record 2: invalid assortment \(1, 4\): item 4 outside 1..3"),
    (((0, 1), 1), r"record 2: invalid assortment \(0, 1\): item 0 outside 1..3"),
    (((2, 1, 2), 0), r"record 2: invalid assortment \(2, 1, 2\): duplicate items"),
    (((2, 1), 3), r"record 2: choice 3 outside S_\+ of \(1, 2\)"),
])
def test_rank_breaking_reports_first_bad_record(bad, message):
    # later records hold each kind of fault, one of them in a set first seen at record 0
    records = [((1, 2), 1), ((3,), 0), bad, ((1, 2), 3), ((9, 1), 0), ((3, 3), 3)]
    with pytest.raises(DataValidationError, match=message) as err:
        rank_breaking(OfflineDataset(records), 3)
    assert err.value.record_index == 2


def test_dataset_from_arrays():
    ds = OfflineDataset.from_arrays([0, 2, 2, 3], [2, 1, 3], [1, 0, 0])
    assert ds.records == [((2, 1), 1), ((), 0), ((3,), 0)]
    assert ds == OfflineDataset(ds.records) and len(ds) == ds.n == 3
    assert ds.items.dtype == np.int64 and not ds.items.flags.writeable
    with pytest.raises(DataValidationError, match="offsets"):
        OfflineDataset.from_arrays([0, 2], [1], [1])
    for items in ([1.5], np.array([2 ** 63], dtype=np.uint64)):
        with pytest.raises(DataValidationError, match="items"):
            OfflineDataset.from_arrays([0, 1], items, [0])


def test_dataset_files_keep_record_order(tmp_path):
    ds = OfflineDataset([((2, 1), 1), ((), 0), ((3,), 0)])
    ds.to_jsonl(tmp_path / "d.jsonl")
    assert (tmp_path / "d.jsonl").read_text() == (
        '{"assortment": [2, 1], "choice": 1}\n{"assortment": [], "choice": 0}\n'
        '{"assortment": [3], "choice": 0}\n')
    ds.to_csv(tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == b"assortment,choice\r\n2;1,1\r\n,0\r\n3,0\r\n"
    assert load_dataset(tmp_path / "d.jsonl") == ds == load_dataset(tmp_path / "d.csv")


@pytest.mark.parametrize("line, message", [
    ('{"assortment": [1, true], "choice": 1}', "True is not an integer id"),
    ('{"assortment": [1], "choice": true}', "True is not an integer id"),
    ('{"assortment": [1.7], "choice": 0}', "1.7 is not an integer id"),
    ('{"assortment": [1], "choice": "1"}', "'1' is not an integer id"),
    ('{"assortment": "12", "choice": 0}', "assortment '12' is not a list"),
    ('[[1], 1]', "not a JSON object"),
    ('{"assortment": [1, 9223372036854775808], "choice": 0}', "an id does not fit in 64 bits"),
])
def test_jsonl_refuses_non_integer_ids(tmp_path, line, message):
    path = tmp_path / "d.jsonl"
    path.write_text('{"assortment": [2.0], "choice": 0}\n' + line + "\n")
    with pytest.raises(DataValidationError, match=f"line 2: malformed record: {message}") as err:
        load_dataset(path)
    assert err.value.record_index == 1
    path.write_text('{"assortment": [2.0], "choice": 0}\n')
    assert load_dataset(path).records == [((2,), 0)]


@pytest.mark.parametrize("row, message", [
    ("1;2", "record has no 'choice' field"),
    ("1;2,0,5", "malformed record: 1 field\\(s\\) beyond the header"),
    ("1,-9223372036854775809", "malformed record: an id does not fit in 64 bits"),
])
def test_csv_rows_must_fit_the_header(tmp_path, row, message):
    path = tmp_path / "d.csv"
    path.write_text(f"assortment,choice\n3,3\n{row}\n")
    with pytest.raises(DataValidationError, match=f"line 3: {message}") as err:
        load_dataset(path)
    assert err.value.record_index == 1


@pytest.mark.parametrize("records", [
    [((1,), 0), ((2 ** 63,), 0)],
    [((1,), 0), ((1,), 2 ** 64)],
    [((1,), 0), ((1, -2 ** 63 - 1), 0)],
])
def test_in_memory_ids_must_fit_in_64_bits(records):
    for build in (OfflineDataset, lambda recs: rank_breaking(recs, 2)):
        with pytest.raises(DataValidationError, match="record 1: an id does not fit") as err:
            build(records)
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
