"""Compare a change with its parent in alternating runs, pair by pair.

    python3 tools/pair_bench.py --parent REF --workload W --pairs N --seed S [--name NAME]
    python3 tools/pair_bench.py --parent REF --exp NAME --pairs N [--seed S] [--name NAME]

The parent is the commit REF, exported from the local repository with
``git archive`` into a temporary directory; the change is the working tree
that holds this script, or the commit ``--change REF``, exported the same way.
Pair i runs both sides one after the other, the parent first in even pairs and
the change first in odd ones, so a slow spell of the host hits each side alike:

- ``--workload W`` runs ``bench/run.py --workload W --seed S+i --seconds T`` of
  each side and reads the end-to-end metrics that BENCHMARK.json names from
  its last output line;
- ``--exp NAME`` times ``exp --name NAME --seed S`` of each side, wall time
  in seconds, at the experiment's shipped defaults.

For each metric it prints both medians, the parent's quartiles, the pairs the
change won and a verdict.  A gain needs the change ahead in at least
``WIN_SHARE`` of the pairs and a median gap beyond the parent's quartile
spread; a loss is the same with the sides swapped, or a median worse than
the parent's by more than the metric's bound in BENCHMARK.json.  With
``--name`` the runs of both sides go into ``BENCH_<NAME>.json`` at the
repository root, one block per workload or experiment beside any already there.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Share of the pairs a side must win for a gain (or a loss): 9 of 10.
WIN_SHARE = 0.9


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, text=True, check=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(ref: str, into: Path) -> str:
    """Unpack the files of commit ``ref`` into ``into``; returns its full hash."""
    commit = _git("rev-parse", "--verify", f"{ref}^{{commit}}")
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def src_lines(root: Path) -> int:
    """Lines of the package source, by ``bench/run.py``'s ``src_lines`` rule."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((root / "src").rglob("*.py")))


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metric values of one ``bench/run.py`` run of the checkout."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, text=True, stdout=subprocess.PIPE, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["correct"] = result["correct"]
    return values


def run_exp(root: Path, name: str, seed: int) -> dict:
    """The wall time of one ``exp`` run of the checkout at its shipped defaults."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "robust_assortment.cli", "exp", "--name", name,
                        "--seed", str(seed), "--out", out], cwd=root, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return {"wall_s": time.perf_counter() - start}


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Medians, the parent's quartiles, pairs won and the verdict of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = sign * (med_c - med_p)
    needed = WIN_SHARE * len(parent)
    if wins >= needed and gap > q3 - q1:
        call = "gain"
    elif (losses >= needed and -gap > q3 - q1) or (
            bound is not None and -gap > bound * abs(med_p)):
        call = "loss"
    else:
        call = "none"
    return {"parent_median": med_p, "change_median": med_c, "parent_q1": q1, "parent_q3": q3,
            "pairs_won": wins, "pairs_lost": losses, "pairs": len(parent), "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", help="a commit to compare (default: the working tree)")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="a bench workload (see BENCHMARK.json)")
    what.add_argument("--exp", help="an experiment, timed at its shipped defaults")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="bench seed of pair 0 (pair i runs S+i); the seed of every exp run")
    parser.add_argument("--seconds", type=float, default=25.0, help="bench seconds per run")
    parser.add_argument("--name", help="merge the runs into BENCH_<NAME>.json at the root")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
        key = args.workload
    else:
        metrics = {"wall_s": ("lower", None)}
        key = f"exp:{args.exp}"

    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp) / "parent"}
        commits = {"parent": export(args.parent, roots["parent"])}
        if args.change:
            roots["change"] = Path(tmp) / "change"
            commits["change"] = export(args.change, roots["change"])
        else:
            roots["change"] = ROOT
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
            commits["change"] = _git("rev-parse", "HEAD") + ("+working-tree" if dirty else "")
        lines = {side: src_lines(root) for side, root in roots.items()}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                if args.workload:
                    values = run_bench(roots[side], args.workload, args.seed + i, args.seconds)
                else:
                    values = run_exp(roots[side], args.exp, args.seed)
                runs[side].append(values)
            print(f"pair {i}: " + "  ".join(
                f"{side} " + " ".join(f"{m}={runs[side][-1][m]:.6g}" for m in metrics)
                for side in order), flush=True)

    table = {m: verdict([r[m] for r in runs["parent"]], [r[m] for r in runs["change"]],
                        better, bound)
             for m, (better, bound) in metrics.items()}
    short = {side: commit[:12] + commit[40:] for side, commit in commits.items()}
    print(f"{key}: {args.pairs} pairs, parent {short['parent']}, change {short['change']}")
    print(f"{'metric':12s} {'parent med':>12s} {'change med':>12s} {'parent q1':>12s} "
          f"{'parent q3':>12s} {'won':>7s}  verdict")
    for m, row in table.items():
        print(f"{m:12s} {row['parent_median']:12.6g} {row['change_median']:12.6g} "
              f"{row['parent_q1']:12.6g} {row['parent_q3']:12.6g} "
              f"{row['pairs_won']:3d}/{row['pairs']:<3d}  {row['verdict']}")
    if args.workload:
        print("correct: parent " + " ".join(str(r["correct"]) for r in runs["parent"])
              + "; change " + " ".join(str(r["correct"]) for r in runs["change"]))

    if args.name:
        path = ROOT / f"BENCH_{args.name}.json"
        record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        record.setdefault("pairs", {})[key] = {
            "args": {"pairs": args.pairs, "seed": args.seed,
                     "seconds": args.seconds if args.workload else None},
            "commits": commits, "src_lines": lines, "runs": runs, "metrics": table,
            "machine": {"nproc": os.cpu_count(), "loadavg": os.getloadavg()},
        }
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
