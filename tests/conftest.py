import math

import numpy as np
import pytest

from robust_assortment import ConstantRadius, MnlModel, VaryingRadius, as_assortment
from robust_assortment.model import choice_columns


def random_model(rng, n_min=2, n_max=10, r_max=None, uniform_revenue=False):
    n = int(rng.integers(n_min, n_max + 1))
    r_max = float(rng.uniform(0.5, 2.0)) if r_max is None else r_max
    v = rng.uniform(0.05, 3.0, size=n)
    if uniform_revenue:
        r = np.full(n, r_max * float(rng.uniform(0.2, 1.0)))
    else:
        r = rng.uniform(0.0, r_max, size=n)
    return MnlModel(attractions=v, revenues=r, r_max=r_max)


def random_spec(rng, model, varying=None):
    """A valid radius rule for the model; varying=None alternates randomly."""
    if varying is None:
        varying = bool(rng.integers(0, 2))
    if varying:
        bound = math.log1p(1.0 / model.v_tot)
        return VaryingRadius(float(rng.uniform(1e-3, 0.95 * bound)), model.v_tot)
    return ConstantRadius(float(rng.uniform(1e-3, 2.0)))


def random_assortment(rng, n, allow_empty=True):
    lo = 0 if allow_empty else 1
    size = int(rng.integers(lo, n + 1))
    if size == 0:
        return ()
    items = rng.choice(n, size=size, replace=False) + 1
    return tuple(sorted(int(i) for i in items))


def choice_probs(model, items):
    """The conditional MNL choice probabilities of ``items``, no purchase first."""
    return choice_columns(model, [as_assortment(items, model.n_items)])[0][:, 0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
