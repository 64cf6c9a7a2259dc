"""Command-line interface: plan, learn, simulate, exp, demo."""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .base import ConfigError, RobustAssortmentError
from .estimation import load_dataset
from .experiments import EXPERIMENT_NAMES, default_config, run_experiment
from .learning import LearnConfig, learn_robust_assortment
from .model import MnlModel, load_model, save_model
from .planning import plan, plan_bruteforce, plan_general
from .radius import ConstantRadius, VaryingRadius
from .simulate import generate_dataset, instance_cardinality, instance_sample_efficiency


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=float, help="constant KL radius")
    group.add_argument("--rho0", type=float, help="global prior budget (varying radius)")
    parser.add_argument("--vtot", type=float, default=None,
                        help="true total attraction for --rho0 (defaults to the model's)")


def _spec_from_args(args, model: MnlModel | None):
    if args.rho is not None:
        return ConstantRadius(args.rho)
    v_tot = args.vtot
    if v_tot is None:
        if model is None:
            raise RobustAssortmentError("--vtot is required when no model file is given")
        v_tot = model.v_tot
    return VaryingRadius(args.rho0, v_tot)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_plan(args) -> int:
    model = load_model(args.model)
    spec = _spec_from_args(args, model)
    k = args.k if args.k is not None else model.n_items
    if args.method == "bruteforce":
        result = plan_bruteforce(model, k, spec)
    elif args.method == "general":
        result = plan_general(model, k, spec, eps=args.eps)
    else:
        result = plan(model, k, spec, eps=args.eps)
    _emit(result.to_dict(), args.out)
    return 0


def _cmd_learn(args) -> int:
    model = load_model(args.model) if args.model else None
    spec = _spec_from_args(args, model)
    dataset = load_dataset(args.data)
    if args.revenues:
        revenues = tuple(float(x) for x in args.revenues.split(","))
    elif model is not None:
        revenues = tuple(model.revenues)
    else:
        raise RobustAssortmentError("provide --revenues or --model for the item revenues")
    n_items = args.n_items if args.n_items is not None else len(revenues)
    cfg = LearnConfig(
        k=args.k, delta=args.delta, spec=spec, revenues=revenues,
        r_max=None if model is None else model.r_max,
        eps_plan=args.eps, pessimism=not args.baseline,
    )
    items, diag = learn_robust_assortment(dataset, n_items, cfg)
    estimate = diag["estimate"]
    _emit({
        "assortment": list(items),
        "pessimistic_value": diag["pessimistic_value"],
        "method": "plugin" if args.baseline else "pessimistic",
        "n_offered": diag["n_offered"].tolist(),
        "v_lcb": estimate.v_lcb.tolist(),
        "v_hat": np.nan_to_num(estimate.v_hat, nan=0.0).tolist(),
    }, args.out)
    return 0


def _cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.instance == "exp1":
        model, factory = instance_sample_efficiency()
        schedule = factory(args.n, rng)
    elif args.instance in ("exp3-uniform", "exp3-nonuniform"):
        if args.k is None:
            raise RobustAssortmentError(f"--k is required for instance {args.instance}")
        model, schedule = instance_cardinality(
            args.k, args.n_effect, uniform=args.instance.endswith("-uniform")
        )
    else:
        raise RobustAssortmentError(f"unknown instance {args.instance!r}")
    dataset = generate_dataset(model, schedule, rng)
    dataset.to_jsonl(args.out)
    if args.dump_model:
        save_model(model, args.dump_model)
    sys.stdout.write(json.dumps({
        "records": dataset.n, "n_items": model.n_items, "out": args.out,
    }, sort_keys=True) + "\n")
    return 0


def _cmd_exp(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: the config must be a JSON object")
        flagged = sorted({"name", "seed", "out_dir"} & set(raw))
        if flagged:
            raise ConfigError(f"{args.config}: {', '.join(flagged)} are set by command-line flags")
        for key, value in raw.items():
            overrides[key] = tuple(value) if isinstance(value, list) else value
    if args.replications is not None:
        overrides["replications"] = args.replications
    cfg = default_config(args.name, seed=args.seed, out_dir=args.out, **overrides)
    written = run_experiment(cfg)
    sys.stdout.write(json.dumps({"written": written}, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-assort",
        description="Distributionally robust assortment planning and learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve an optimal robust assortment")
    p_plan.add_argument("--model", required=True, help="model JSON path")
    p_plan.add_argument("--k", type=int, default=None, help="cardinality cap (default: all)")
    p_plan.add_argument("--eps", type=float, default=None, help="tolerance (default 1e-5 r_max)")
    p_plan.add_argument("--method", choices=("auto", "general", "bruteforce"), default="auto")
    p_plan.add_argument("--out", default=None)
    _add_spec_flags(p_plan)
    p_plan.set_defaults(fn=_cmd_plan)

    p_learn = sub.add_parser("learn", help="learn an assortment from offline data")
    p_learn.add_argument("--data", required=True, help="dataset path (.jsonl or .csv)")
    p_learn.add_argument("--n-items", type=int, default=None)
    p_learn.add_argument("--k", type=int, required=True)
    p_learn.add_argument("--delta", type=float, default=0.01)
    p_learn.add_argument("--eps", type=float, default=None, help="tolerance (default 1e-5 r_max)")
    p_learn.add_argument("--baseline", action="store_true",
                         help="plug-in baseline instead of the pessimistic learner")
    p_learn.add_argument("--model", default=None, help="model JSON for revenues")
    p_learn.add_argument("--revenues", default=None, help="comma-separated revenues")
    p_learn.add_argument("--out", default=None)
    _add_spec_flags(p_learn)
    p_learn.set_defaults(fn=_cmd_learn)

    p_sim = sub.add_parser("simulate", help="generate an offline dataset")
    p_sim.add_argument("--instance", required=True,
                       choices=("exp1", "exp3-uniform", "exp3-nonuniform"))
    p_sim.add_argument("--n", type=int, default=10000, help="records (exp1)")
    p_sim.add_argument("--k", type=int, default=None, help="cardinality (exp3)")
    p_sim.add_argument("--n-effect", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--dump-model", default=None)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_exp = sub.add_parser("exp", help="run an experiment suite")
    p_exp.add_argument("--name", required=True, choices=EXPERIMENT_NAMES)
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--replications", type=int, default=None)
    p_exp.add_argument("--config", default=None, help="JSON file of config overrides")
    p_exp.set_defaults(fn=_cmd_exp)

    p_demo = sub.add_parser("demo", help="run a demo (alias of exp for fig demos)")
    p_demo.add_argument("--name", required=True, choices=("fig1-demo", "fig2-demo"))
    p_demo.add_argument("--seed", type=int, required=True)
    p_demo.add_argument("--out", required=True)
    p_demo.add_argument("--replications", type=int, default=None)
    p_demo.add_argument("--config", default=None)
    p_demo.set_defaults(fn=_cmd_exp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RobustAssortmentError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
