import math

import numpy as np
import pytest

from robust_assortment import (
    ConstantRadius,
    LearnConfig,
    MnlModel,
    OfflineDataset,
    VaryingRadius,
    generate_dataset,
    learn_robust_assortment,
    plan,
    plan_bruteforce,
    point_and_lcb,
    rank_breaking,
    robust_revenue,
    suboptimality,
)
from robust_assortment.robust import robust_values
from robust_assortment.simulate import instance_sample_efficiency

from conftest import random_model


def _full_coverage_dataset(model, n, rng):
    full = tuple(range(1, model.n_items + 1))
    return generate_dataset(model, [full] * n, rng)


def test_consistency_at_large_n(rng):
    m = MnlModel(attractions=np.array([0.8, 1.4, 0.3, 2.0, 0.6, 1.0]),
                 revenues=np.array([1.0, 0.4, 0.9, 0.2, 0.7, 0.5]), r_max=1.0)
    ds = _full_coverage_dataset(m, 10 ** 6, rng)
    for spec in (ConstantRadius(0.2), VaryingRadius(0.05, m.v_tot)):
        cfg = LearnConfig(k=3, delta=0.1, spec=spec, revenues=tuple(m.revenues))
        items, _ = learn_robust_assortment(ds, 6, cfg)
        truth = plan(m, 3, spec, eps=1e-6)
        assert items == truth.assortment


def test_empty_dataset_returns_empty():
    cfg = LearnConfig(k=2, delta=0.1, spec=ConstantRadius(0.3), revenues=(1.0, 1.0),
                      r_max=1.0)
    items, diag = learn_robust_assortment(OfflineDataset([]), 2, cfg)
    assert items == ()
    assert diag["pessimistic_value"] == 0.0


def test_uncovered_items_never_selected(rng):
    # item 3 never offered: its plug-in and pessimistic estimates are both 0
    m = MnlModel(attractions=np.array([1.0, 1.5, 5.0]), revenues=np.ones(3))
    ds = generate_dataset(m, [(1, 2)] * 3000, rng)
    for pessimism in (True, False):
        cfg = LearnConfig(k=2, delta=0.1, spec=ConstantRadius(0.1),
                          revenues=(1.0, 1.0, 1.0), pessimism=pessimism)
        items, _ = learn_robust_assortment(ds, 3, cfg)
        assert 3 not in items


def test_zero_budget_varying_reduces_to_nominal_learner(rng):
    m = random_model(rng, n_min=5, n_max=5, r_max=1.0)
    ds = _full_coverage_dataset(m, 20000, rng)
    cfg_v = LearnConfig(k=3, delta=0.1, spec=VaryingRadius(0.0, m.v_tot),
                        revenues=tuple(m.revenues))
    cfg_c = LearnConfig(k=3, delta=0.1, spec=ConstantRadius(0.0),
                        revenues=tuple(m.revenues))
    items_v, _ = learn_robust_assortment(ds, 5, cfg_v)
    items_c, _ = learn_robust_assortment(ds, 5, cfg_c)
    assert items_v == items_c


def test_suboptimality_cases(rng):
    m = random_model(rng, n_min=4, n_max=7, r_max=1.0)
    spec = ConstantRadius(0.15)
    star = plan(m, 2, spec, eps=1e-6)
    assert suboptimality(m, spec, star.assortment, 2, eps=1e-6) <= 1e-6
    assert suboptimality(m, spec, (), 2, eps=1e-6) == pytest.approx(star.value, abs=1e-9)
    # dropping an optimal item leaves a recomputable positive gap
    if star.assortment:
        shrunk = star.assortment[:-1]
        gap = suboptimality(m, spec, shrunk, 2, eps=1e-6)
        direct = star.value - robust_revenue(m, shrunk, spec).value if shrunk else star.value
        assert gap == pytest.approx(direct, abs=1e-9)
        assert gap >= -2e-6


def test_monotone_value_under_componentwise_increase(rng):
    # the optimum under smaller attractions is pessimistic for larger ones
    for _ in range(60):
        n = int(rng.integers(2, 6))
        v_hi = rng.uniform(0.05, 2.0, size=n)
        v_lo = v_hi * rng.uniform(0.3, 1.0, size=n)
        mask = rng.random(n) < 0.3
        v_lo[mask] = v_hi[mask]
        revenues = rng.uniform(0.0, 1.0, size=n)
        k = int(rng.integers(1, n + 1))
        m_lo = MnlModel(attractions=v_lo, revenues=revenues, r_max=1.0)
        m_hi = MnlModel(attractions=v_hi, revenues=revenues, r_max=1.0)
        if rng.integers(0, 2):
            spec = ConstantRadius(float(rng.uniform(0.01, 1.0)))
        else:
            v_tot = float(v_hi.sum())
            spec = VaryingRadius(float(rng.uniform(0.0, 0.9) * math.log1p(1 / v_tot)), v_tot)
        star_lo = plan_bruteforce(m_lo, k, spec).assortment
        val_lo = robust_revenue(m_lo, star_lo, spec).value if star_lo else 0.0
        val_hi = robust_revenue(m_hi, star_lo, spec).value if star_lo else 0.0
        assert val_lo <= val_hi + 1e-9


def test_pessimistic_value_lower_bounds_truth(rng):
    # whenever the confidence bounds hold, the learner's objective value at
    # its own output never exceeds the true robust revenue of that output
    m = MnlModel(attractions=np.array([0.9, 1.8, 0.5, 1.2]),
                 revenues=np.array([1.0, 0.55, 0.8, 0.35]), r_max=1.0)
    spec = VaryingRadius(0.04, m.v_tot)
    cfg = LearnConfig(k=2, delta=0.1, spec=spec, revenues=tuple(m.revenues), r_max=1.0)
    checked = 0
    for _ in range(30):
        ds = _full_coverage_dataset(m, 4000, rng)
        est = point_and_lcb(rank_breaking(ds, 4), delta=0.1)
        if not np.all(est.v_lcb <= m.attractions):
            continue
        checked += 1
        items, diag = learn_robust_assortment(ds, 4, cfg)
        if not items:
            continue
        truth = robust_revenue(m, items, spec).value
        assert diag["pessimistic_value"] <= truth + 1e-8
        # the learner's value is the robust revenue on the model of its positive bounds
        keep = np.flatnonzero(est.v_lcb > 0.0)
        sub = MnlModel(attractions=est.v_lcb[keep], revenues=m.revenues[keep], r_max=1.0)
        sub_items = [int(np.searchsorted(keep, i - 1)) + 1 for i in items]
        assert robust_values(sub, [sub_items], spec)[0] == pytest.approx(
            diag["pessimistic_value"], abs=1e-9
        )
    assert checked >= 20


def test_determinism(rng):
    m = random_model(rng, n_min=5, n_max=5, r_max=1.0)
    ds = _full_coverage_dataset(m, 5000, rng)
    cfg = LearnConfig(k=2, delta=0.05, spec=ConstantRadius(0.2), revenues=tuple(m.revenues))
    out1 = learn_robust_assortment(ds, 5, cfg)[0]
    out2 = learn_robust_assortment(ds, 5, cfg)[0]
    assert out1 == out2


def test_pessimism_beats_plugin_on_partial_coverage(rng):
    m, factory = instance_sample_efficiency()
    spec = ConstantRadius(0.1)
    star = plan(m, 3, spec).value
    gaps = {"pessimistic": [], "plugin": []}
    for _ in range(3):
        ds = generate_dataset(m, factory(20000, rng), rng)
        for name, pessimism in (("pessimistic", True), ("plugin", False)):
            cfg = LearnConfig(k=3, delta=0.1 / 15, spec=spec, revenues=tuple(m.revenues),
                              pessimism=pessimism)
            items, _ = learn_robust_assortment(ds, 15, cfg)
            gaps[name].append(suboptimality(m, spec, items, 3, 1e-6, star_value=star))
    assert np.mean(gaps["pessimistic"]) <= np.mean(gaps["plugin"])


def test_learns_on_one_dataset_count_it_once(rng, monkeypatch):
    # exp2 learns 22 radii on one dataset: one rank breaking, the sets of fresh datasets.
    # generate_dataset hands its dataset over counted, so the learns count nothing
    from robust_assortment import estimation
    m = MnlModel(attractions=np.array([0.8, 1.4, 0.3, 2.0, 0.6, 1.0]),
                 revenues=np.array([1.0, 0.4, 0.9, 0.2, 0.7, 0.5]), r_max=1.0)
    ds = _full_coverage_dataset(m, 3000, rng)
    specs = [ConstantRadius(0.05 * i) for i in range(11)]
    specs += [VaryingRadius(0.01 * i, m.v_tot) for i in range(11)]
    cfgs = [LearnConfig(k=3, delta=0.05, spec=spec, revenues=tuple(m.revenues)) for spec in specs]
    fresh = [learn_robust_assortment(OfflineDataset.from_arrays(ds.offsets, ds.items, ds.choices),
                                     6, cfg)[0] for cfg in cfgs]
    calls = []
    count = estimation._count
    monkeypatch.setattr(estimation, "_count", lambda *args: calls.append(1) or count(*args))
    shared = [learn_robust_assortment(ds, 6, cfg)[0] for cfg in cfgs]
    assert not calls
    counts = rank_breaking(ds, 6)
    recounted = count(OfflineDataset.from_arrays(ds.offsets, ds.items, ds.choices), 6)
    for name in ("wins", "duels", "offered", "n"):
        assert np.array_equal(getattr(counts, name), getattr(recounted, name))
    assert shared == fresh
