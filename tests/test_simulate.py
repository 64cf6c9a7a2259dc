import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_assortment import (
    ConstantRadius,
    InvalidAssortmentError,
    MnlModel,
    RobustAssortmentError,
    generate_dataset,
    instance_cardinality,
    instance_sample_efficiency,
    kl_divergence,
    nominal_expected_revenue,
    perturb_prior,
    plan,
    random_schedule,
    rank_breaking,
    shift_metrics,
)
from robust_assortment import estimation, robust
from robust_assortment.estimation import OfflineDataset, _csr
from robust_assortment.model import _draw_choices, choice_columns
from robust_assortment.simulate import (_SCORE_ROWS, _reach, perturb_priors, prior_of,
                                        sample_counts, shift_scores)

from conftest import choice_probs


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


def test_instance_sample_efficiency_schedule_rows(rng):
    _, factory = instance_sample_efficiency()
    ref = np.random.default_rng()
    ref.bit_generator.state = rng.bit_generator.state
    rows = factory(500, rng)
    assert rows.dtype == np.int64 and rows.shape == (500, 3)
    # the per-record form: drop one of the optimal items, add the outsider, sort
    drop = ref.integers(0, 3, size=500)
    sub = np.arange(4, 16)[ref.integers(0, 12, size=500)]
    expected = [tuple(sorted([i for j, i in enumerate((1, 2, 3)) if j != d] + [s]))
                for d, s in zip(drop.tolist(), sub.tolist())]
    assert [tuple(row) for row in rows.tolist()] == expected
    assert ref.bit_generator.state == rng.bit_generator.state


def test_instance_sample_efficiency_sets_are_its_schedule_rows(rng):
    _, factory = instance_sample_efficiency()
    assert factory.sets.dtype == np.int64 and factory.sets.shape == (36, 3)
    assert len(np.unique(factory.sets, axis=0)) == 36
    rows = factory(3000, rng)
    match = (rows[:, None, :] == factory.sets[None]).all(axis=2)
    assert np.all(match.sum(axis=1) == 1) and np.all(match.any(axis=0))


def _distinct(schedule) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a schedule array and how often each appears."""
    return np.unique(schedule, axis=0, return_counts=True)


def _exp1_case():
    model, factory = instance_sample_efficiency()
    return model, factory.sets, np.random.default_rng(11).multinomial(3000, [1 / 36] * 36)


#: (model, sets, multiplicities): exp1's sets, exp3's instances, and attractions
#: from 1e-4 to 1e4 over sets of mixed sizes, padded with 0
_COUNT_CASES = [
    _exp1_case(),
    (instance_cardinality(4, 200, uniform=True)[0],
     *_distinct(instance_cardinality(4, 200, uniform=True)[1])),
    (instance_cardinality(6, 200, uniform=False)[0],
     *_distinct(instance_cardinality(6, 200, uniform=False)[1])),
    (MnlModel(attractions=np.geomspace(1e-4, 1e4, 6), revenues=np.ones(6)),
     np.array([[1, 6, 0], [2, 3, 4], [5, 0, 0], [1, 2, 6], [3, 1, 5]]),
     np.array([40, 120, 70, 90, 60])),
]


def _records(sets, multiplicities) -> list[tuple[int, ...]]:
    """The schedule that offers each set, without its padding, as often as it says."""
    return [tuple(row[row > 0].tolist()) for row, m in zip(sets, multiplicities)
            for _ in range(m)]


@pytest.mark.parametrize("case", range(len(_COUNT_CASES)))
def test_sample_counts_offer_what_the_records_path_offers(case):
    model, sets, multiplicities = _COUNT_CASES[case]
    drawn = sample_counts(model, sets, multiplicities, np.random.default_rng(5))
    counted = rank_breaking(generate_dataset(model, _records(sets, multiplicities),
                                             np.random.default_rng(5)), model.n_items)
    np.testing.assert_array_equal(drawn.offered, counted.offered)
    assert drawn.n == counted.n == multiplicities.sum()
    for name in ("wins", "duels", "offered"):
        assert getattr(drawn, name).dtype == getattr(counted, name).dtype
    assert np.all(drawn.wins <= drawn.duels) and np.all(drawn.duels <= drawn.offered)
    assert drawn.wins.sum() <= drawn.n


@pytest.mark.parametrize("case", range(len(_COUNT_CASES)))
def test_sample_counts_follow_the_law_of_the_records_path(case):
    # the mean and variance of every win and duel count, over 400 seeds a side
    model, sets, multiplicities = _COUNT_CASES[case]
    schedule, seeds = _records(sets, multiplicities), 400

    def wins_and_duels(counts):
        return np.concatenate((counts.wins, counts.duels))

    records = np.array([wins_and_duels(rank_breaking(generate_dataset(
        model, schedule, np.random.default_rng(seed)), model.n_items)) for seed in range(seeds)])
    drawn = np.array([wins_and_duels(sample_counts(
        model, sets, multiplicities, np.random.default_rng(seeds + seed)))
        for seed in range(seeds)])
    var_records, var_drawn = records.var(axis=0, ddof=1), drawn.var(axis=0, ddof=1)
    varying = (var_records > 0.0) | (var_drawn > 0.0)
    np.testing.assert_array_equal(records[0, ~varying], drawn[0, ~varying])
    z = (records.mean(axis=0) - drawn.mean(axis=0))[varying] / np.sqrt(
        (var_records + var_drawn)[varying] / seeds)
    assert np.abs(z).max() <= 4.5, z
    # the variances too, where a count spreads wide enough that no rare pick rules it
    wide = np.minimum(var_records, var_drawn) >= 1.0
    ratio = var_drawn[wide] / var_records[wide]
    assert wide.any() and np.all((0.5 <= ratio) & (ratio <= 2.0)), ratio


def test_sample_counts_of_an_unoffered_set_are_zero():
    model, sets, _ = _COUNT_CASES[-1]
    drawn = sample_counts(model, sets, [0, 30, 0, 0, 0], np.random.default_rng(3))
    assert drawn.n == 30
    np.testing.assert_array_equal(drawn.offered, [0, 30, 30, 30, 0, 0])
    for name in ("wins", "duels"):
        assert np.all(getattr(drawn, name)[[0, 4, 5]] == 0)  # offered only in the unoffered sets
    nothing = sample_counts(model, sets, [0] * 5, np.random.default_rng(3))
    assert nothing.n == 0
    for name in ("wins", "duels", "offered"):
        np.testing.assert_array_equal(getattr(nothing, name), np.zeros(6, dtype=np.int64))


def test_instance_cardinality_values():
    model, _ = instance_cardinality(1, 1000, uniform=True)
    assert model.attractions[0] == pytest.approx(1.0 + 1.0 / math.sqrt(1000), abs=1e-15)
    model2, schedule2 = instance_cardinality(2, 3, uniform=False)
    assert tuple(schedule2[3]) == (2, 10)  # record 4: ceil(4/3) = 2 alongside {4K+2..5K} = {10}
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
    expected_wins_1 = 50000 * (choice_probs(m, (1, 2))[1] + choice_probs(m, (1, 2, 3))[1])
    sigma = math.sqrt(expected_wins_1)  # binomial mixture, conservative scale
    assert abs(counts.wins[0] - expected_wins_1) <= 4 * sigma


def test_generate_dataset_seed_determinism():
    m = MnlModel(attractions=np.array([1.0, 2.0]), revenues=np.ones(2))
    schedule = [(1,), (1, 2), (2,)] * 100
    a = generate_dataset(m, schedule, np.random.default_rng(42))
    b = generate_dataset(m, schedule, np.random.default_rng(42))
    assert a == b


def _per_group_dataset(model, schedule, rng):
    """Reference sampler: one rng.random call per distinct sorted assortment, in order
    of first appearance, each drawing by searchsorted on that set's own CDF, the
    cumsum of its ``choice_columns`` probabilities."""
    plan = [tuple(sorted(int(i) for i in s)) for s in schedule]
    groups = {}
    for pos, items in enumerate(plan):
        groups.setdefault(items, []).append(pos)
    choices = [0] * len(plan)
    for items, positions in groups.items():
        support = np.array((0, *items))
        cdf = np.cumsum(choice_columns(model, [items])[0][:, 0])
        drawn = np.searchsorted(cdf, rng.random(len(positions)), side="right")
        for pos, d in zip(positions, np.minimum(drawn, len(items)).tolist()):
            choices[pos] = int(support[d])
    return list(zip(plan, choices))


def _per_record_dataset(model, schedule, rng):
    """Reference sampler in record order: each record is a group of its own, so it
    draws one uniform, in record order, by searchsorted on its own set's CDF."""
    return [record for items in schedule for record in _per_group_dataset(model, [items], rng)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_generate_dataset_matches_per_record_sampler(data):
    n_items = data.draw(st.integers(1, 60))
    logs = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n_items, max_size=n_items))
    model = MnlModel(attractions=10.0 ** np.array(logs), revenues=np.ones(n_items))
    as_array = data.draw(st.booleans())
    size = data.draw(st.integers(1, n_items))
    sets = st.lists(st.integers(1, n_items), unique=True,
                    min_size=size if as_array else 1, max_size=size if as_array else n_items)
    pool = data.draw(st.lists(sets, min_size=1, max_size=6))
    schedule = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1),
                                                    max_size=80))]
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    given_schedule = np.array(schedule, dtype=np.int64).reshape(-1, size) if as_array \
        else schedule
    assert generate_dataset(model, given_schedule, rng).records == \
        _per_record_dataset(model, schedule, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_generate_dataset_draws_at_cdf_knots():
    # a uniform at a knot of its set's CDF, or one ulp below it, draws a different
    # choice if the sampler's CDF differs from the set's own by one ulp either way;
    # a set's own CDF sums its choice_columns probabilities, whose total attraction
    # is summed in ascending item order (a pairwise sum differs on some of these 60 sets)
    rng = np.random.default_rng(11)
    model = MnlModel(attractions=10.0 ** rng.uniform(-4, 4, 60), revenues=np.ones(60))
    schedule = [tuple(rng.choice(60, size=k, replace=False) + 1) for k in range(1, 61)]
    knots = []
    for s in schedule:
        knot = np.cumsum(choice_columns(model, [np.sort(s)])[0][:, 0])[rng.integers(len(s) + 1)]
        knots.append(np.nextafter(knot, 0.0) if rng.integers(2) else knot)

    class Knots:  # distinct sets: one draw per set, in record order
        def __init__(self):
            self.draws = iter(knots)

        def random(self, size=None):
            return np.array([next(self.draws) for _ in range(size)])

    assert generate_dataset(model, schedule, Knots()).records == \
        _per_group_dataset(model, schedule, Knots())


def test_generate_dataset_rejects_before_drawing(rng):
    m = MnlModel(attractions=np.ones(3), revenues=np.ones(3))
    state = rng.bit_generator.state
    with pytest.raises(InvalidAssortmentError, match="item 4 outside 1..3"):
        generate_dataset(m, [(1, 2), (3, 4), (2, 2)], rng)
    with pytest.raises(InvalidAssortmentError, match="duplicate"):
        generate_dataset(m, np.array([[1, 2], [2, 2], [3, 0]]), rng)
    assert rng.bit_generator.state == state


def test_generate_dataset_keeps_no_view_of_the_schedule(rng):
    # a sorted int64 schedule passes validation as it is, so the dataset must copy
    # it: the caller's array stays writable, and writing to it changes nothing
    m = MnlModel(attractions=np.ones(3), revenues=np.ones(3))
    schedule = np.array([[1, 2], [2, 3]], dtype=np.int64)
    dataset = generate_dataset(m, schedule, rng)
    schedule[:] = 3
    assert dataset.items.tolist() == [1, 2, 2, 3] and not dataset.items.flags.writeable


def _drawn_by_width(model, schedule, rng):
    """(offsets, items, choices) of a schedule of sorted sets, each width's records
    drawn by one ``_draw_choices`` call over all of them, from one ``rng.random(n)``."""
    offsets, items = _csr(schedule)
    sizes = np.diff(offsets)
    uniforms = rng.random(sizes.size)
    choices = np.empty(sizes.size, dtype=np.int64)
    for k in np.unique(sizes).tolist():
        rec = np.flatnonzero(sizes == k)
        choices[rec] = _draw_choices(model, items[offsets[rec, None] + np.arange(k)],
                                     uniforms[rec])
    return offsets, items, choices


@pytest.mark.parametrize("case", ["exp1", "mixed widths"])
def test_generate_dataset_across_draw_blocks(case, monkeypatch):
    # a block draws _BLOCK_ENTRIES // (k + 1) records of width k: the records of
    # each case's most common width span several blocks
    rng = np.random.default_rng(29)
    if case == "exp1":
        model, factory = instance_sample_efficiency()
        schedule = factory(20011, rng)
        widths = [3] * len(schedule)
    else:  # widths 1..60, with 700 records of width 60 and 2000 of width 20,
        # over attractions from 1e-4 to 1e4
        model = MnlModel(attractions=np.geomspace(1e-4, 1e4, 60)[rng.permutation(60)],
                         revenues=np.ones(60))
        widths = rng.permutation([*range(1, 61), *[60] * 700, *[20] * 2000]).tolist()
        schedule = [np.sort(rng.choice(60, size=k, replace=False) + 1) for k in widths]
    k = max(set(widths), key=widths.count)
    assert widths.count(k) > 2 * robust._BLOCK_ENTRIES // (k + 1)
    ref = np.random.default_rng()
    ref.bit_generator.state = rng.bit_generator.state
    calls = []
    count = estimation._count
    monkeypatch.setattr(estimation, "_count", lambda *args: calls.append(1) or count(*args))
    dataset = generate_dataset(model, schedule, rng)
    counts = rank_breaking(dataset, model.n_items)
    assert not calls  # the dataset came counted
    offsets, items, choices = _drawn_by_width(model, schedule, ref)
    for name, expected in (("offsets", offsets), ("items", items), ("choices", choices)):
        assert np.array_equal(getattr(dataset, name), expected)
    assert rng.bit_generator.state == ref.bit_generator.state
    recounted = count(OfflineDataset.from_arrays(offsets, items, choices), model.n_items)
    for name in ("wins", "duels", "offered", "n"):
        assert np.array_equal(getattr(counts, name), getattr(recounted, name))


def test_perturb_prior_round_trip_and_bucket(rng):
    m = MnlModel(attractions=np.array([0.5, 1.5, 1.0]), revenues=np.ones(3))
    for bucket in ((0.0, 1.0), (1.0, math.inf)):
        shifted, kl = perturb_prior(m, bucket, rng)
        recomputed = kl_divergence(prior_of(shifted), prior_of(m))
        assert recomputed == pytest.approx(kl, rel=1e-9)
        assert bucket[0] <= recomputed < bucket[1]


def test_perturb_prior_determinism():
    m = MnlModel(attractions=np.array([0.5, 1.5]), revenues=np.ones(2))
    a = perturb_prior(m, (0.0, 1.0), np.random.default_rng(5))
    b = perturb_prior(m, (0.0, 1.0), np.random.default_rng(5))
    np.testing.assert_array_equal(a[0].attractions, b[0].attractions)
    assert a[1] == b[1]


@given(
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=20),
    st.one_of(st.floats(0.0, 0.999), st.floats(1.0, 3.0)),
    st.one_of(st.floats(1e-3, 10.0), st.just(math.inf)),
    st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(log_attractions=[0.1171875, 4.0, 0.0, 0.0, 0.0], lo_share=0.0, width=2.046875,
         seed=926)
def test_perturb_prior_lands_in_bucket(log_attractions, lo_share, width, seed):
    m = MnlModel(attractions=10.0 ** np.array(log_attractions),
                 revenues=np.ones(len(log_attractions)))
    limit = -math.log(prior_of(m).min())  # KL of the least likely choice's point mass
    lo = lo_share * limit
    bucket = (lo, lo + width)
    rng = np.random.default_rng(seed)
    if limit <= lo:
        with pytest.raises(RobustAssortmentError, match="unreachable"):
            perturb_prior(m, bucket, rng)
        return
    twin = copy.deepcopy(rng)
    shifted, kl = perturb_prior(m, bucket, rng)
    assert np.all(shifted.attractions > 0.0) and np.all(np.isfinite(shifted.attractions))
    recomputed = kl_divergence(prior_of(shifted), prior_of(m))
    assert recomputed == kl
    assert bucket[0] <= recomputed < bucket[1]
    # the target the generator drew, from its twin: the direction, then the draw
    p0 = prior_of(m)
    reach = _reach(p0, twin.standard_normal(p0.size)[None])[0]
    if reach <= lo:
        reach = _reach(p0, (np.arange(p0.size) == np.argmin(p0)).astype(float)[None])[0]
    target = twin.uniform(lo, min(bucket[1], reach))
    assert abs(kl - target) <= 1e-8 * target


class _ZeroTarget:
    """A generator stand-in whose target is the bucket's low end."""

    def standard_normal(self, size):
        return np.linspace(-1.0, 1.0, size)

    def uniform(self, low, high):
        return low


def test_perturb_prior_zero_target_returns_the_nominal_model():
    m = MnlModel(attractions=np.array([0.5, 1.5, 1.0]), revenues=np.ones(3))
    shifted, kl = perturb_prior(m, (0.0, 1.0), _ZeroTarget())
    np.testing.assert_allclose(shifted.attractions, m.attractions, rtol=1e-15)
    assert kl == pytest.approx(0.0, abs=1e-15)


def test_perturb_prior_unreachable_bucket_draws_nothing():
    m = MnlModel(attractions=np.array([1.0, 1.0]), revenues=np.ones(2))  # limit log 3
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(RobustAssortmentError, match="unreachable"):
        perturb_prior(m, (math.log(3.0), math.inf), rng)
    assert rng.bit_generator.state == state
    _, kl = perturb_prior(m, (0.99 * math.log(3.0), math.inf), rng)
    assert 0.99 * math.log(3.0) <= kl < math.log(3.0)


@pytest.mark.parametrize("bucket", [(0.0, 1.0), (1.0, math.inf)])
def test_perturb_priors_draws_the_bits_of_perturb_prior(bucket):
    # the most likely choice, no purchase, cannot take KL 1: a direction toward it
    # falls back to the least likely choice's
    m = MnlModel(attractions=np.geomspace(1e-3, 0.1, 20), revenues=np.ones(20))
    rngs = [np.random.default_rng(seed) for seed in range(60)] + [_ZeroTarget()]
    attractions, kls = perturb_priors(m, bucket, rngs)
    p0 = prior_of(m)
    far = 0
    for seed, row, kl in zip(range(61), attractions, kls):
        rng = np.random.default_rng(seed) if seed < 60 else _ZeroTarget()
        shifted, one_kl = perturb_prior(m, bucket, rng)
        np.testing.assert_array_equal(row, shifted.attractions)
        assert kl == one_kl
        if seed < 60:
            d = np.random.default_rng(seed).standard_normal(p0.size)
            far += _reach(p0, d[None])[0] <= bucket[0]
    assert (far > 0) == (bucket[0] > 0.0)
    if bucket[0] == 0.0:  # the stand-in's zero target leaves the prior as it is
        np.testing.assert_allclose(attractions[-1], m.attractions, rtol=1e-15)


def test_shift_scores_are_the_bits_of_shift_metrics():
    m = MnlModel(attractions=np.array([1.0, 0.7, 0.2, 0.05]),
                 revenues=np.array([1.0, 0.5, 0.9, 0.3]), r_max=1.0)
    learned = {0.0: (1, 2, 3, 4), 0.5: (1, 3), 1.0: (1,), 2.0: ()}
    rngs = [np.random.default_rng(seed) for seed in range(_SCORE_ROWS + 76)]
    attractions, _ = perturb_priors(m, (0.0, 1.0), rngs)
    batch = shift_scores(learned, m, attractions, list(learned))
    models = [MnlModel(row, m.revenues, m.r_max) for row in attractions]
    one_by_one = [shift_metrics(learned, [shifted], list(learned)) for shifted in models]
    for got, want in zip(batch, zip(*one_by_one)):
        np.testing.assert_array_equal(got, np.concatenate(want))
    for got, want in zip(batch, shift_metrics(learned, models, list(learned))):
        np.testing.assert_array_equal(got, want)
    # the base is the zero-radius set's revenue, scored alone in its own model
    assert batch[1].tolist() == [nominal_expected_revenue(shifted, learned[0.0])
                                 for shifted in models]


def test_generate_dataset_draw_at_top_of_unit_interval():
    # the rounded CDF of these weights ends below 1, so a uniform draw of
    # nextafter(1, 0) lies beyond it and must still pick the last item
    m = MnlModel(attractions=np.array([0.1, 0.2]), revenues=np.ones(2))
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(np.array([1.0, 0.1, 0.2]) / 1.3)[-1] <= top

    class TopDraw:
        def random(self, size=None):
            return np.full(size, top)

    assert generate_dataset(m, [(1, 2)] * 3, TopDraw()).records == [((1, 2), 2)] * 3


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
    gains, bases, radii = shift_metrics(assortments, shifted, [0.0])
    rels = gains / bases
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


def test_shift_metrics_best_radius_ignores_rounding_gains():
    # item 3 lifts the radius-0.5 set's revenue by about 3e-15, far below 1e-12 * r_max
    shifted = MnlModel(attractions=np.array([1.0, 1.0, 1e-14]),
                       revenues=np.array([0.5, 0.5, 1.0]), r_max=1.0)
    gains, bases, best_radii = shift_metrics({0.0: (1, 2), 0.5: (1, 2, 3)}, [shifted],
                                             (0.0, 0.5))
    assert 0.0 < gains[0] < 1e-12
    assert bases[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert best_radii[0] == 0.0
