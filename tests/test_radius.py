import math

import numpy as np
import pytest

from robust_assortment import ConstantRadius, MnlModel, VaryingRadius, radius
from robust_assortment.planning import _CurveFamily
from robust_assortment.radius import varying_radius_conditional, varying_radius_primary

from conftest import random_assortment, random_model


def test_constant_radius_is_constant():
    m = MnlModel(attractions=np.array([1.0, 2.0, 0.5]), revenues=np.ones(3))
    spec = ConstantRadius(0.3)
    for items in [(), (1,), (1, 2), (1, 2, 3)]:
        assert radius(spec, m, items) == 0.3


def test_constant_radius_rejects_negative():
    with pytest.raises(ValueError):
        ConstantRadius(-0.1)


def test_varying_radius_full_set_equals_budget():
    m = MnlModel(attractions=np.array([0.4, 0.8, 1.3]), revenues=np.ones(3))
    spec = VaryingRadius(0.05, m.v_tot)
    assert radius(spec, m, (1, 2, 3)) == pytest.approx(0.05, abs=1e-15)


def test_varying_radius_worked_example():
    # three unit attractions, budget 0.05, offering one item
    m = MnlModel(attractions=np.ones(3), revenues=np.ones(3))
    spec = VaryingRadius(0.05, 3.0)
    expected = -math.log(1.0 - (1.0 - math.exp(-0.05)) * 4.0 / 2.0)
    assert radius(spec, m, (1,)) == pytest.approx(expected, abs=1e-15)


def test_both_algebraic_forms_agree(rng):
    for _ in range(300):
        rho0 = float(rng.uniform(1e-4, 0.5))
        weight_all = float(rng.uniform(1.1, 30.0))
        # admissible only when weight_s keeps the log argument positive
        smallest = (1.0 - math.exp(-rho0)) * weight_all
        weight_s = float(rng.uniform(max(1.0, smallest * 1.01), weight_all))
        a = varying_radius_primary(rho0, weight_all, weight_s)
        b = varying_radius_conditional(rho0, weight_all, weight_s)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_varying_radius_dominates_budget(rng):
    for _ in range(100):
        m = random_model(rng, n_min=2, n_max=8)
        bound = math.log1p(1.0 / m.v_tot)
        spec = VaryingRadius(float(rng.uniform(1e-3, 0.95 * bound)), m.v_tot)
        items = random_assortment(rng, m.n_items)
        rad = radius(spec, m, items)
        assert rad >= spec.rho0 - 1e-12
        if len(items) < m.n_items:
            assert rad > spec.rho0


def test_varying_at_least_constant_when_matched(rng):
    for _ in range(50):
        m = random_model(rng, n_min=2, n_max=8)
        rho0 = float(rng.uniform(1e-3, 0.9 * math.log1p(1.0 / m.v_tot)))
        const, vary = ConstantRadius(rho0), VaryingRadius(rho0, m.v_tot)
        items = random_assortment(rng, m.n_items)
        assert radius(vary, m, items) >= radius(const, m, items) - 1e-15


def test_admissibility_enforced():
    with pytest.raises(ValueError):
        VaryingRadius(math.log1p(1.0 / 3.0), 3.0)  # boundary is excluded
    with pytest.raises(ValueError):
        VaryingRadius(-0.01, 3.0)
    VaryingRadius(0.0, 3.0)  # zero budget is allowed


def test_dual_cap():
    # the planner's dual caps r_max / radius, 0 where the radius is infeasible
    m = MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.array([2.0, 1.0]), r_max=2.0)
    weights = np.array([m.assortment_weight((1, 2)), m.assortment_weight((1,))])
    fam = _CurveFamily(m.attractions, m.revenues, m.r_max, ConstantRadius(0.5))
    assert fam.caps(weights).tolist() == [4.0, 4.0]
    with pytest.raises(ValueError):
        _CurveFamily(m.attractions, m.revenues, m.r_max, ConstantRadius(0.0))
    spec = VaryingRadius(0.1, m.v_tot)
    fam = _CurveFamily(m.attractions, m.revenues, m.r_max, spec)
    # below (1 - e^-rho0) * (1 + v_tot) no set weight leaves conditional mass
    infeasible = 0.5 * -math.expm1(-spec.rho0) * spec.weight_all
    caps = fam.caps(np.append(weights, infeasible))
    assert caps[0] == m.r_max / radius(spec, m, (1, 2))
    assert caps[1] == m.r_max / radius(spec, m, (1,))
    assert caps[2] == 0.0
