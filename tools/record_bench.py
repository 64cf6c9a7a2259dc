"""Record one checkout's performance in ``BENCH_<name>.json`` at its root.

    python3 tools/record_bench.py --name NAME [--root CHECKOUT]

Runs, one after another in child processes of the checkout at ``--root``
(default: the one holding this script):

- ``bench/run.py --workload all --seed 3001 --seconds 25``, keeping its last JSON line;
- ``exp --name exp1|exp2|exp3 --seed 1`` at their shipped defaults, three rounds of
  the three in turn, keeping every wall time and each experiment's median;
- the tier-1 test suite, keeping its pass count and wall time.

The record also holds the checkout's commit (and whether tracked files differ
from it), ``bench/run.py``'s ``machine()`` and its ``src_lines`` count.
The bench seed and duration are fixed, so records differ only in the checkout
and the machine; they are comparable only when taken on the same machine.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

EXPERIMENTS = ("exp1", "exp2", "exp3")
#: Timed runs of each experiment: one run cannot tell a change from this host's noise.
EXP_RUNS = 3
#: ``bench/run.py``'s seed and seconds in every record.
SEED, SECONDS = 3001, 25.0


def _bench_module(root: Path):
    """``bench/run.py`` of the checkout, loaded for its ``machine`` and ``src_lines``."""
    spec = importlib.util.spec_from_file_location("bench_run", root / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(args, root: Path, **kwargs) -> tuple[subprocess.CompletedProcess, float]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=root, env=env, text=True, stdout=subprocess.PIPE, **kwargs)
    return proc, time.perf_counter() - start


def _git(root: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=root, text=True, check=True,
                          stdout=subprocess.PIPE).stdout.strip()


def record(root: Path) -> dict:
    bench = _bench_module(root)
    import numpy

    proc, _ = _run([sys.executable, "bench/run.py", "--workload", "all", "--seed", str(SEED),
                    "--seconds", str(SECONDS)], root, check=True)
    exp_runs_s = {name: [] for name in EXPERIMENTS}
    with tempfile.TemporaryDirectory() as out:
        for _ in range(EXP_RUNS):  # in turn, so a slow spell of the host hits each one alike
            for name in EXPERIMENTS:
                _, seconds = _run([sys.executable, "-m", "robust_assortment.cli", "exp",
                                   "--name", name, "--seed", "1", "--out", out], root,
                                  check=True, stderr=subprocess.DEVNULL)
                exp_runs_s[name].append(seconds)
    tests, tier1_s = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], root)
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)",
                                                    tests.stdout.splitlines()[-1])}
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "tracked_changes": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "machine": bench.machine(numpy),
        "bench_args": {"seed": SEED, "seconds": SECONDS},
        "bench": json.loads(proc.stdout.strip().splitlines()[-1]),
        "exp_s": {name: statistics.median(runs) for name, runs in exp_runs_s.items()},
        "exp_runs_s": exp_runs_s,
        "tier1": {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
                  "errors": counts.get("error", 0), "wall_s": tier1_s},
        "src_lines": bench.src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True, help="the record is BENCH_<name>.json")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    result = record(root)
    path = root / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
