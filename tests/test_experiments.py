import itertools
import math

import numpy as np
import pytest

from robust_assortment import (
    ConstantRadius,
    MnlModel,
    VaryingRadius,
    evaluate_level_slack,
    kl_divergence,
    plan_bruteforce,
)
from robust_assortment.experiments import (
    _FIG1_MODEL,
    _fig1_shift,
    default_config,
    run_exp_cardinality,
    run_exp_robustness,
    run_exp_sample_efficiency,
    run_fig1_demo,
)
from robust_assortment.planning import _CurveFamily
from robust_assortment.simulate import prior_of


def test_summary_rows_match_detail_aggregates():
    cfg = default_config("exp3", seed=17, replications=2, k_grid=(2, 3), n_effect=40)
    table = run_exp_cardinality(cfg)
    for mode, family, k, mean, count, _ in table.summary_rows:
        vals = [r[4] for r in table.detail_rows if r[:3] == (mode, family, k)]
        assert count == len(vals)
        assert mean == pytest.approx(float(np.mean(vals)), abs=1e-15)

    cfg1 = default_config("exp1", seed=18, replications=2, n_grid=(2000,),
                          rho_grid=(0.1,), rho0_grid=(0.05,))
    table1 = run_exp_sample_efficiency(cfg1)
    for method, family, rho, n, mean, count in table1.summary_rows:
        vals = [r[5] for r in table1.detail_rows if r[:4] == (method, family, rho, n)]
        assert count == len(vals)
        assert mean == pytest.approx(float(np.mean(vals)), abs=1e-15)


def test_boosted_instance_bruteforce_recovers_boosted_triple():
    # 15 items, 3 boosted, uniform revenue: exhaustive search returns the
    # boosted triple for both radius rules across the sweep used in practice
    v = np.full(15, 1 / 3)
    v[:3] += 0.01
    m = MnlModel(attractions=v, revenues=np.ones(15), r_max=1.0)
    for spec in (ConstantRadius(0.1), ConstantRadius(0.5),
                 VaryingRadius(0.05, m.v_tot), VaryingRadius(0.175, m.v_tot)):
        assert plan_bruteforce(m, 3, spec).assortment == (1, 2, 3)


def test_level_slack_at_zero_clears_target_when_optimum_positive(rng):
    # whenever the optimum is strictly positive, level 0 must be feasible
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = MnlModel(attractions=rng.uniform(0.2, 2.0, n),
                     revenues=rng.uniform(0.1, 1.0, n), r_max=1.0)
        if rng.integers(0, 2):
            spec = ConstantRadius(float(rng.uniform(0.01, 0.8)))
        else:
            bound = math.log1p(1.0 / m.v_tot)
            spec = VaryingRadius(float(rng.uniform(0.01, 0.9) * bound), m.v_tot)
        k = int(rng.integers(1, n + 1))
        best = plan_bruteforce(m, k, spec)
        if best.value <= 1e-6:
            continue
        fam = _CurveFamily(m.attractions, m.revenues, m.r_max, spec)
        value, _ = evaluate_level_slack(m, k, spec, 0.0)
        assert value <= fam.target + 1e-9


def test_fig1_demo_robust_plan_has_better_worst_case():
    table = run_fig1_demo(default_config("fig1-demo", seed=1))
    worst_nominal, worst_robust, _ = table.summary_rows[0]
    assert worst_robust >= worst_nominal


def test_fig1_demo_corner_shift_stays_within_kl_limit():
    corner = _fig1_shift(_FIG1_MODEL, 1.0, 1.0)
    assert kl_divergence(prior_of(corner), prior_of(_FIG1_MODEL)) <= 0.1


def test_exp2_relative_gain_is_a_ratio_of_means(monkeypatch):
    # the zero-radius set is (1,) and the robust one (2,); item 1's shifted
    # attraction sets the base, and one draw per bucket leaves it near 1e-12,
    # where the mean of the per-draw ratios reads about 1e11
    from robust_assortment import experiments
    monkeypatch.setattr(experiments, "learn_robust_assortment",
                        lambda dataset, n, cfg: ((1,) if cfg.spec.is_zero else (2,), None))
    # the shifts keep the nominal revenues, so the instance sets them
    nominal = MnlModel(attractions=np.ones(3), revenues=np.array([1.0, 0.5, 0.2]), r_max=1.0)
    monkeypatch.setattr(experiments, "_exp2_instance",
                        lambda cfg: (nominal, math.log1p(1.0 / nominal.v_tot)))
    v1 = np.array([1e-12, 0.2, 0.4, 0.6])
    draws = itertools.cycle(v1.tolist())
    monkeypatch.setattr(experiments, "perturb_priors", lambda model, bucket, rngs: (
        np.array([[next(draws), 3.0, 1.0] for _ in rngs]), np.full(len(rngs), bucket[0])))
    cfg = default_config("exp2", seed=4, n_items_exp2=3, n_dataset_exp2=200,
                         perturbations_per_bucket=v1.size, rho_grid_exp2=(0.0, 0.5),
                         rho0_grid_exp2=(0.0,))
    table = run_exp_robustness(cfg)
    bases = v1 / (1.0 + v1)
    gains = np.maximum(0.375 - bases, 0.0)  # item 2 alone earns 0.5 * 3 / 4
    for family, _, _, mean_gain, ratio, _ in table.summary_rows:
        if family == "constant":
            assert mean_gain == pytest.approx(gains.mean())
            assert ratio < gains.max() / bases.mean()
        else:  # the varying grid holds only the zero radius
            assert ratio == 0.0


def test_exp2_runs_at_its_default_catalogue_size():
    cfg = default_config("exp2", seed=3, perturbations_per_bucket=20, n_dataset_exp2=2000)
    assert cfg.n_items_exp2 == 50
    table = run_exp_robustness(cfg)
    buckets = {"small": (0.0, 1.0), "large": (1.0, math.inf)}
    assert len(table.detail_rows) == 2 * 2 * 20
    for _, bucket, _, kl, gain, _, _ in table.detail_rows:
        lo, hi = buckets[bucket]
        assert lo <= kl < hi
        assert gain >= 0.0
