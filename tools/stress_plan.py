"""Stress mix: ``plan`` against the exhaustive oracle on seeded extreme instances.

    python3 tools/stress_plan.py --instances N --seed S

Each instance draws n <= 22 items with attractions from 1e-4 to 1e4, tied,
zero or continuous revenues, a constant radius from 1e-11 to 30 or a varying
budget up to its bound, a cardinality k and eps from 1e-6 to 1e-3, with
r_max = 1.  A quarter of the instances are anti-correlated, as in the plan
benchmark: revenues spread over [0.1, 1] and attractions in scale * [0.5, 1.5]
that fall as revenue rises, the shape for which ``plan_general`` seeds its
search with more than the revenue-ordered prefixes.  For each instance it
checks that

- ``plan`` falls short of ``plan_bruteforce`` by at most eps;
- ``plan`` exceeds it by at most the oracle's tie tolerance, 1e-10 * r_max;
- both plans' values equal ``robust_revenue`` of their own assortments bit for bit.

It checks plan values only.  Every witness the level search finds is scored
exactly, so a flaw inside one level test (``planning._min_level_slack``) can
leave every plan value intact.  The level test itself is covered by tier-1:
``tests/test_planning.py`` holds it to a reference walk, an exhaustive
minimum and a fine grid (``test_bulk_screen_matches_the_reference_loop``,
``test_varying_level_slack_matches_the_exhaustive_minimum``,
``test_level_slack_single_item_against_grid``).

It prints one summary line, every violation on standard error, and exits 1
if there was any.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from robust_assortment import (  # noqa: E402
    ConstantRadius,
    MnlModel,
    VaryingRadius,
    plan,
    plan_bruteforce,
    robust_revenue,
)

TIED_REVENUES = (0.0, 0.25, 0.5, 1.0)
#: plan_bruteforce breaks ties within this share of r_max
TIE = 1e-10
#: the most sets one instance's exhaustive oracle scores
MAX_SETS = 6000


def instance(rng: np.random.Generator):
    """(model, k, spec, eps) of one seeded draw."""
    n = int(rng.integers(2, 23))
    v = 10.0 ** rng.uniform(-4.0, 4.0, n)
    kind = rng.integers(4)
    if kind == 3:  # anti-correlated: the dearer item is the less attractive
        rank = rng.permutation(n)
        r = 0.1 + 0.9 * (rank + rng.random(n)) / n
        v = v[0] * (1.5 - (rank + rng.random(n)) / n)  # v[0]: a log-uniform scale
    elif kind == 0:  # ties and zeros only
        r = rng.choice(TIED_REVENUES, n)
    elif kind == 1:  # some zeros among continuous revenues
        r = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.0, n))
    else:
        r = np.where(rng.random(n) < 0.3, rng.choice(TIED_REVENUES, n), rng.uniform(0.0, 1.0, n))
    if not r.max() > 0.0:
        r[rng.integers(n)] = 1.0
    model = MnlModel(attractions=v, revenues=r, r_max=1.0)
    ks = [k for k in range(1, n + 1) if sum(math.comb(n, s) for s in range(k + 1)) <= MAX_SETS]
    k = int(rng.choice(ks))
    if rng.random() < 0.5:
        spec = ConstantRadius(10.0 ** rng.uniform(-11.0, math.log10(30.0)))
    else:
        bound = math.log1p(1.0 / model.v_tot)
        spec = VaryingRadius(bound * 10.0 ** rng.uniform(-6.0, math.log10(0.999)), model.v_tot)
    return model, k, spec, 10.0 ** rng.uniform(-6.0, -3.0)


def check(model, k, spec, eps) -> tuple[float, float, list[str]]:
    """(shortfall in eps units, excess in r_max units, violations) of one instance."""
    got = plan(model, k, spec, eps=eps)
    brute = plan_bruteforce(model, k, spec)
    shortfall = (brute.value - got.value) / eps
    excess = (got.value - brute.value) / model.r_max
    problems = []
    if shortfall > 1.0:
        problems.append(f"plan {got.value!r} falls {shortfall:.3g} eps below {brute.value!r}")
    if excess > TIE:
        problems.append(f"plan {got.value!r} exceeds plan_bruteforce {brute.value!r}")
    for name, result in (("plan", got), ("plan_bruteforce", brute)):
        own = robust_revenue(model, result.assortment, spec, allow_degenerate=True).value
        if result.value != own:
            problems.append(f"{name} value {result.value!r} != robust_revenue {own!r} "
                            f"of {result.assortment}")
    return shortfall, excess, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    worst_short, worst_excess, failed = -math.inf, -math.inf, 0
    for index in range(args.instances):
        model, k, spec, eps = instance(np.random.default_rng((args.seed, index)))
        shortfall, excess, problems = check(model, k, spec, eps)
        worst_short, worst_excess = max(worst_short, shortfall), max(worst_excess, excess)
        failed += bool(problems)
        for problem in problems:
            print(f"instance {index} (n={model.n_items}, k={k}, {spec}, eps={eps:.3g}): {problem}",
                  file=sys.stderr)
    print(f"stress_plan: {args.instances} instances, seed {args.seed}: largest shortfall below "
          f"plan_bruteforce {worst_short:.3g} eps, largest excess {worst_excess:.3g} r_max, "
          f"{failed} violating, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
