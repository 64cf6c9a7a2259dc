"""Reproducible experiment suites with CSV outputs.

Each experiment writes one detail CSV and one summary CSV.  Replication
streams are derived from (seed, experiment, cell, replication) so results are
byte-identical across reruns; the only non-deterministic output line is the
generated-at header comment, which consumers are expected to ignore when
comparing files.
"""
from __future__ import annotations

import csv
import datetime
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .base import ConfigError
from .estimation import point_and_lcb
from .learning import LearnConfig, _plan_on_estimate, learn_robust_assortment, suboptimality
from .model import MnlModel, nominal_expected_revenue
from .planning import plan, plan_unconstrained
from .radius import ConstantRadius, VaryingRadius
from .simulate import (
    generate_dataset,
    instance_cardinality,
    instance_sample_efficiency,
    perturb_priors,
    random_schedule,
    sample_counts,
    shift_scores,
)

SCHEMA = "robust-assort/1"

EXPERIMENT_NAMES = ("exp1", "exp2", "exp3", "fig1-demo", "fig2-demo")

#: exp3's radius of each family: the constant KL radius and the varying rule's budget
EXP3_RADII = {"constant": 0.1, "varying": 0.005}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment inputs; defaults follow the study protocols."""

    name: str
    seed: int
    replications: int = 25
    n_grid: tuple[int, ...] = (12000, 60000, 180000)
    rho_grid: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
    rho0_grid: tuple[float, ...] = (0.05, 0.075, 0.1, 0.125, 0.15, 0.175)
    k_grid: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    n_effect: int = 1000
    n_items_exp2: int = 50
    n_dataset_exp2: int = 20000
    perturbations_per_bucket: int = 10000
    rho_grid_exp2: tuple[float, ...] = tuple(round(0.1 * i, 2) for i in range(11))
    rho0_grid_exp2: tuple[float, ...] = tuple(round(0.02 * i, 2) for i in range(11))
    out_dir: str = "."

    def __post_init__(self):
        def check(key, ok, what):
            value = getattr(self, key)
            if not ok(value):
                raise ConfigError(f"{key} must be {what}, got {value!r}")

        def integer(least):
            return lambda x: isinstance(x, (int, np.integer)) and not isinstance(x, bool) and (
                x >= least)

        count = integer(1)

        def radius(x):
            # compared, not converted: an integer beyond the float range fails
            return isinstance(x, (int, float, np.number)) and not isinstance(x, bool) and (
                0.0 <= x <= sys.float_info.max)

        def grid(of):
            return lambda xs: isinstance(xs, tuple) and len(xs) > 0 and all(map(of, xs))

        check("name", lambda x: x in EXPERIMENT_NAMES, f"one of {EXPERIMENT_NAMES}")
        check("seed", integer(0), "a nonnegative integer")
        for key in ("replications", "n_effect", "n_items_exp2", "n_dataset_exp2",
                    "perturbations_per_bucket"):
            check(key, count, "a positive integer")
        for key in ("n_grid", "k_grid"):
            check(key, grid(count), "a nonempty list of positive integers")
        for key in ("rho_grid", "rho0_grid", "rho_grid_exp2", "rho0_grid_exp2"):
            check(key, grid(radius), "a nonempty list of finite nonnegative numbers")
        check("out_dir", lambda x: isinstance(x, (str, os.PathLike)), "a path")

    def rng_for(self, *path) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, hash_path(path))))


def hash_path(path) -> int:
    """Stable small integer from a tuple of strings/ints (for seed spawning)."""
    acc = 0
    for part in path:
        for ch in str(part):
            acc = (acc * 131 + ord(ch)) % (2 ** 61 - 1)
        acc = (acc * 131 + 7) % (2 ** 61 - 1)
    return acc


def default_config(name: str, seed: int, out_dir: str = ".", **overrides) -> ExperimentConfig:
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    unknown = sorted(set(overrides) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ConfigError(f"unknown experiment config keys: {', '.join(unknown)}")
    base = ExperimentConfig(name=name, seed=seed, out_dir=out_dir)
    return replace(base, **overrides) if overrides else base


@dataclass
class ResultTable:
    """Detail and summary rows plus their column names, CSV-serializable."""

    detail_columns: tuple[str, ...]
    detail_rows: list[tuple]
    summary_columns: tuple[str, ...]
    summary_rows: list[tuple]

    def write(self, out_dir, name: str, config: ExperimentConfig) -> list[str]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for kind, cols, rows in (
            ("detail", self.detail_columns, self.detail_rows),
            ("summary", self.summary_columns, self.summary_rows),
        ):
            path = out / f"{name}_{kind}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(f"# schema: {SCHEMA}\n")
                fh.write(f"# experiment: {name} seed: {config.seed}\n")
                fh.write(f"# generated: {datetime.datetime.now().isoformat()}\n")
                writer = csv.writer(fh)
                writer.writerow(cols)
                for row in sorted(rows, key=lambda r: tuple(str(x) for x in r)):
                    writer.writerow(row)
            written.append(str(path))
        return written


def _spec(family: str, rho: float, model: MnlModel):
    """The constant radius ``rho``, or the varying radius of budget ``rho`` over ``model``."""
    return ConstantRadius(rho) if family == "constant" else VaryingRadius(rho, model.v_tot)


# ---------------------------------------------------------------------------
# Experiment 1: sample efficiency of double pessimism vs the plug-in baseline
# ---------------------------------------------------------------------------

def _exp1_cell(cfg: ExperimentConfig, family: str, rho: float, star: float, n: int,
               rep: int) -> list[tuple]:
    model, schedule_factory = instance_sample_efficiency()
    spec = _spec(family, rho, model)
    delta = 0.1 / model.n_items
    rng = cfg.rng_for("exp1", family, rho, n, rep)
    sets = schedule_factory.sets  # equally likely: draw how often each is offered, then choices
    multiplicities = rng.multinomial(n, [1.0 / len(sets)] * len(sets))
    estimate = point_and_lcb(sample_counts(model, sets, multiplicities, rng), delta)
    learn_cfg = LearnConfig(
        k=3, delta=delta, spec=spec, revenues=tuple(model.revenues), r_max=model.r_max,
    )
    rows = []
    for method, v_used in (("pessimistic", estimate.v_lcb), ("plugin", estimate.v_hat)):
        items, _ = _plan_on_estimate(np.asarray(v_used, dtype=float), learn_cfg)
        gap = suboptimality(model, spec, items, 3, star_value=star)
        rows.append((method, family, rho, n, rep, gap))
    return rows


def run_exp_sample_efficiency(cfg: ExperimentConfig) -> ResultTable:
    """Suboptimality of the pessimistic learner vs the plug-in baseline."""
    model, _ = instance_sample_efficiency()
    detail = []
    for family, grid in (("constant", cfg.rho_grid), ("varying", cfg.rho0_grid)):
        for rho in grid:
            star = plan(model, 3, _spec(family, rho, model)).value  # one optimum per radius
            for n in cfg.n_grid:
                for rep in range(cfg.replications):
                    detail += _exp1_cell(cfg, family, rho, star, n, rep)
    summary = _summarize(detail, key=lambda r: (r[0], r[1], r[2], r[3]), value_index=5)
    return ResultTable(
        detail_columns=("method", "family", "rho", "n", "replication", "suboptimality"),
        detail_rows=detail,
        summary_columns=("method", "family", "rho", "n", "mean_suboptimality", "replications"),
        summary_rows=summary,
    )


# ---------------------------------------------------------------------------
# Experiment 2: robustness of the learned assortments under prior shifts
# ---------------------------------------------------------------------------

def _exp2_instance(cfg: ExperimentConfig) -> tuple[MnlModel, float]:
    rng = cfg.rng_for("exp2", "instance")
    n = cfg.n_items_exp2
    # keep the total attraction moderate so the full prior-budget grid is valid
    v = rng.uniform(0.5, 1.5, size=n) * (2.0 / n)
    r = rng.uniform(0.1, 1.0, size=n)
    model = MnlModel(attractions=v, revenues=r, r_max=1.0)
    rho0_bound = math.log1p(1.0 / model.v_tot)
    return model, rho0_bound


def run_exp_robustness(cfg: ExperimentConfig) -> ResultTable:
    """Revenue gains of radius-indexed assortments under random prior shifts."""
    model, rho0_bound = _exp2_instance(cfg)
    n_items = model.n_items
    delta = 0.1 / n_items
    rng = cfg.rng_for("exp2", "dataset")
    schedule = random_schedule(cfg.n_dataset_exp2, n_items, rng)
    dataset = generate_dataset(model, schedule, rng)

    grids = {
        "constant": [float(r) for r in cfg.rho_grid_exp2],
        "varying": [float(r) for r in cfg.rho0_grid_exp2 if r < 0.95 * rho0_bound],
    }
    learned: dict[str, dict[float, tuple[int, ...]]] = {}
    for family, grid in grids.items():
        learned[family] = {}
        for rho in grid:
            learn_cfg = LearnConfig(k=n_items, delta=delta, spec=_spec(family, rho, model),
                                    revenues=tuple(model.revenues), r_max=model.r_max)
            items, _ = learn_robust_assortment(dataset, n_items, learn_cfg)
            learned[family][rho] = items

    buckets = (("small", (0.0, 1.0)), ("large", (1.0, math.inf)))
    detail = []
    group_stats = {}
    for bucket_name, bucket in buckets:
        # one stream per draw, all tilted in one batch: rows of shifted attractions
        rngs = [cfg.rng_for("exp2", "perturb", bucket_name, sample)
                for sample in range(cfg.perturbations_per_bucket)]
        shifted, kls = perturb_priors(model, bucket, rngs)
        for family, grid in grids.items():
            gains, bases, best_radii = shift_scores(learned[family], model, shifted, grid)
            for sample, (kl, gain, base, rho_star) in enumerate(
                    zip(kls.tolist(), gains, bases, best_radii)):
                rel = gain / base if base > 0.0 else math.nan
                detail.append((sample, bucket_name, family, kl, gain, rel, rho_star))
            # a ratio of means: near-zero bases cannot dominate it as they do a
            # mean of per-draw ratios
            base_total = float(bases.sum())
            group_stats[family, bucket_name] = (
                len(rngs), float(gains.mean()),
                float(gains.sum()) / base_total if base_total > 0.0 else math.nan,
                float(best_radii.mean()),
            )

    summary = [(family, bucket_name, *group_stats[family, bucket_name])
               for family in grids for bucket_name, _ in buckets]
    return ResultTable(
        detail_columns=("sample_id", "bucket", "family", "kl", "delta", "delta_rel", "rho_star"),
        detail_rows=detail,
        summary_columns=("family", "bucket", "samples", "mean_delta", "delta_rel_of_means",
                         "mean_rho_star"),
        summary_rows=summary,
    )


# ---------------------------------------------------------------------------
# Experiment 3: cardinality constraints and the learning rate
# ---------------------------------------------------------------------------

def _exp3_cell(cfg: ExperimentConfig, mode: str, family: str, k: int) -> list[tuple]:
    """Detail rows of one exp3 cell, one per replication."""
    model, schedule = instance_cardinality(k, cfg.n_effect, mode == "uniform")
    spec = _spec(family, EXP3_RADII[family], model)
    star = plan(model, k, spec).value  # one optimum per cell
    # per-item budget without the 1/N union scaling: these instances pin the
    # per-item duel counts near n_effect, where a scaled budget floors every
    # lower confidence bound at zero and nothing can be learned
    learn_cfg = LearnConfig(k=k, delta=0.1, spec=spec, revenues=tuple(model.revenues),
                            r_max=model.r_max)
    rows = []
    for rep in range(cfg.replications):
        dataset = generate_dataset(model, schedule, cfg.rng_for("exp3", mode, family, k, rep))
        items, _ = learn_robust_assortment(dataset, model.n_items, learn_cfg)
        rows.append((mode, family, k, rep, suboptimality(model, spec, items, k, star_value=star)))
    return rows


def run_exp_cardinality(cfg: ExperimentConfig) -> ResultTable:
    """Log-log slope of mean suboptimality against the cardinality cap."""
    detail = []
    for mode in ("uniform", "nonuniform"):
        for family in ("constant", "varying"):
            for k in cfg.k_grid:
                detail += _exp3_cell(cfg, mode, family, k)
    means = _summarize(detail, key=lambda r: (r[0], r[1], r[2]), value_index=4)
    slopes = {}
    for mode in ("uniform", "nonuniform"):
        for family in ("constant", "varying"):
            pts = [(row[2], row[3]) for row in means
                   if row[0] == mode and row[1] == family and row[2] >= 2 and row[3] > 0.0]
            slopes[(mode, family)] = _loglog_slope(pts)
    summary = [
        (row[0], row[1], row[2], row[3], row[4], slopes[(row[0], row[1])])
        for row in means
    ]
    return ResultTable(
        detail_columns=("mode", "family", "k", "replication", "suboptimality"),
        detail_rows=detail,
        summary_columns=("mode", "family", "k", "mean_suboptimality", "replications",
                         "loglog_slope"),
        summary_rows=summary,
    )


def _loglog_slope(points: list[tuple[float, float]]) -> float:
    """OLS slope of log(mean) on log(k); NaN with fewer than two points."""
    if len(points) < 2:
        return math.nan
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def _summarize(detail, key, value_index: int) -> list[tuple]:
    groups: dict[tuple, list[float]] = {}
    for row in detail:
        groups.setdefault(key(row), []).append(float(row[value_index]))
    return [
        (*group_key, float(np.mean(vals)), len(vals))
        for group_key, vals in sorted(groups.items(), key=lambda kv: tuple(map(str, kv[0])))
    ]


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------

def run_fig2_demo(cfg: ExperimentConfig) -> ResultTable:
    """Optimal-assortment cardinality under matched constant vs varying budgets."""
    detail = []
    for instance in range(5):
        rng = cfg.rng_for("fig2", instance)
        n = 8
        model = MnlModel(
            attractions=rng.uniform(0.05, 0.35, size=n),
            revenues=rng.uniform(0.2, 1.0, size=n),
            r_max=1.0,
        )
        bound = math.log1p(1.0 / model.v_tot)
        for frac in (0.1, 0.25, 0.4, 0.55, 0.7):
            rho = frac * bound
            size_const = len(plan_unconstrained(model, ConstantRadius(rho)).assortment)
            size_vary = len(
                plan_unconstrained(model, VaryingRadius(rho, model.v_tot)).assortment
            )
            detail.append((instance, rho, size_const, size_vary))
    mean_const = float(np.mean([r[2] for r in detail]))
    mean_vary = float(np.mean([r[3] for r in detail]))
    return ResultTable(
        detail_columns=("instance", "rho", "size_constant", "size_varying"),
        detail_rows=detail,
        summary_columns=("mean_size_constant", "mean_size_varying", "cells"),
        summary_rows=[(mean_const, mean_vary, len(detail))],
    )


#: fig1's environment: risky high-revenue low-attraction items beside safe
#: low-revenue ones, so the robust and nominal plans genuinely differ.
_FIG1_MODEL = MnlModel(
    attractions=np.array([0.15, 0.2, 0.25, 0.8, 1.0, 1.2]),
    revenues=np.array([1.0, 0.95, 0.9, 0.45, 0.4, 0.35]),
    r_max=1.0,
)


def _fig1_shift(model: MnlModel, a1: float, a2: float) -> MnlModel:
    """``model`` with its prior's logits tilted by a1 toward no purchase and by
    a2 * (r_max - r) toward low revenue, in closed form: each attraction scales by
    exp(a2 * (r_max - r) - a1).  The corner (1, 1) of _FIG1_MODEL lies within KL
    0.1 of it."""
    tilt = np.exp(a2 * (model.r_max - model.revenues) - a1)
    return MnlModel(model.attractions * tilt, model.revenues, model.r_max)


def run_fig1_demo(cfg: ExperimentConfig) -> ResultTable:
    """Revenue surface of robust vs non-robust assortments under two shift axes."""
    model = _FIG1_MODEL
    bound = math.log1p(1.0 / model.v_tot)
    spec = VaryingRadius(0.5 * bound, model.v_tot)
    s_robust = plan_unconstrained(model, spec).assortment
    s_nominal = plan(model, model.n_items, ConstantRadius(0.0)).assortment
    detail = []
    grid = np.linspace(0.0, 1.0, 11)
    for a1 in grid:
        for a2 in grid:
            shifted = _fig1_shift(model, a1, a2)
            detail.append((
                round(float(a1), 3), round(float(a2), 3),
                nominal_expected_revenue(shifted, s_nominal),
                nominal_expected_revenue(shifted, s_robust),
            ))
    worst_nominal = min(r[2] for r in detail)
    worst_robust = min(r[3] for r in detail)
    return ResultTable(
        detail_columns=("alpha1", "alpha2", "revenue_nominal_plan", "revenue_robust_plan"),
        detail_rows=detail,
        summary_columns=("worst_revenue_nominal_plan", "worst_revenue_robust_plan", "cells"),
        summary_rows=[(worst_nominal, worst_robust, len(detail))],
    )


RUNNERS = {
    "exp1": run_exp_sample_efficiency,
    "exp2": run_exp_robustness,
    "exp3": run_exp_cardinality,
    "fig1-demo": run_fig1_demo,
    "fig2-demo": run_fig2_demo,
}


def run_experiment(cfg: ExperimentConfig) -> list[str]:
    """Run one experiment and write its CSVs; returns the written paths."""
    table = RUNNERS[cfg.name](cfg)
    return table.write(cfg.out_dir, cfg.name.replace("-", "_"), cfg)
