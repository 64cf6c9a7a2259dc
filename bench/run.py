"""Benchmark of the robust_assortment package on four seeded workloads.

    python3 bench/run.py --workload {plan,evaluate,learn,shift,all} --seed N \
        --seconds S --trace {0,1}

Each workload is a fixed list of ops generated from the seed and run closed
loop, one op at a time, from one process and one thread pinned to one CPU, in
at least two whole passes and in more while they fit in ``--seconds``.
Outputs are checked against the package's own oracles outside the timed
regions.  Op and set-up times are wall times rescaled to one fixed host speed
by a reference loop that a separate process, which never imports the
package, runs between ops (see ``harness.NOMINAL_REFERENCE_S``); the raw wall
times are printed and kept in the run record.  ``--trace 0`` reports the
end-to-end metrics that BENCHMARK.json names; ``--trace 1`` alternates
untraced and traced passes and reports its per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object; a run
record with machine metadata, every op's input properties and timings, and
the spans is written under ``bench/out/``.

Notes on the choice of workloads:
- ``shift`` fails every perturbation draw from the KL bucket [1, inf) at the
  default 50-item catalogue, because the rejection sampler exhausts its
  budget; its failed share is that known defect, not a benchmark fault.
  Only that failure leaves the run ``correct``: any other op that raises, or
  any output that fails its check, makes it incorrect.
- ``failed_share`` is 0 on the other workloads, so the gated metric is its
  complement ``ok_share``; ``failed_share`` is printed beside it.
- The tier-1 test suite's wall time (about 106-226 s) is not a workload: it
  is too long to repeat for every run the benchmark needs.
"""
from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: pin the BLAS pools before numpy loads and leave the
# package's own replication pool at one worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ROBUST_ASSORT_THREADS", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("plan", "evaluate", "learn", "shift")


class BenchError(Exception):
    """The benchmark cannot run here (missing package or BENCHMARK.json)."""


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def import_package():
    """Put ``src/`` first on the path and import the package and the workloads."""
    if not (SRC / "robust_assortment" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import robust_assortment  # noqa: F401
    import workloads

    return numpy, workloads


def child_import() -> None:
    """Start a fresh interpreter that imports the package, as a CLI run does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import robust_assortment"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted(SRC.rglob("*.py")))


def machine(numpy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 small: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, measure and summarize one workload; returns the run record."""
    numpy, workloads = import_package()
    import harness

    meta = machine(numpy)
    OUT_DIR.mkdir(exist_ok=True)
    make_ops = workloads.OP_LISTS[name]

    with harness.Metronome() as metronome:
        # set-up: fresh-interpreter import + workload generation + one uncounted
        # warm-up op, rescaled like the op times by the reference loop around it
        raw_setup = []
        references = [metronome()]
        for _ in range(setup_repeats):
            start = time.perf_counter()
            child_import()
            ops = make_ops(seed, OUT_DIR, small=small)
            harness.execute(ops[0], 0, harness.NullTracer())
            raw_setup.append(time.perf_counter() - start)
            references.append(metronome())
        setup_samples = [harness.rescale(raw, references) for raw in raw_setup]
        setup_s = statistics.median(setup_samples)
        process_to_first_op_s = time.perf_counter() - _PROCESS_START

        result = harness.measure(ops, seconds, trace, metronome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = harness.end_to_end(result, setup_s, peak_rss_mb)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = harness.per_layer(result, [m["name"] for m in wanted])
    else:
        values = summary
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    rescaled = result.per_op(traced=False)
    raw = result.per_op(traced=False, raw=True)
    raw_traced = result.per_op(traced=True, raw=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": meta,
        "src_lines": src_lines(),
        "process_to_first_op_s": process_to_first_op_s,
        "setup_s_samples": setup_samples,
        "passes": result.passes,
        "traced_passes": result.traced_passes,
        "summary": summary,
        "ops": [
            {"kind": op.kind, "props": op.props, "error": result.errors[i],
             "ms": [1e3 * d for d in rescaled[i]],
             "raw_ms": [1e3 * d for d in raw[i]],
             "raw_ms_traced": [1e3 * d for d in raw_traced[i]]}
            for i, op in enumerate(ops)
        ],
        "reference_ms": [1e3 * r for r in result.references],
        "result": {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        },
    }
    if trace:
        record["counts"] = result.tracer.counts
        record["spans"] = result.tracer.export()
    path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_report(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["result"]["metrics"].items():
        print(f"{name:9s} {metric:48s} {entry['value']:14.6g} {entry['unit']}")
    summary = record["summary"]
    if not record["trace"]:
        print(f"{name:9s} {'failed_share':48s} {summary['failed_share']:14.6g} ratio")
        for key, unit in (("raw_ops_per_s", "1/s"), ("raw_op_ms_p50", "ms"),
                          ("raw_op_ms_tail", "ms"), ("reference_ms_p50", "ms")):
            print(f"{name:9s} {key:48s} {summary[key]:14.6g} {unit}  (wall time, not rescaled)")
        print(f"{name:9s} op_ms_tail is p{summary['tail_percentile']:g} of "
              f"{summary['timed_ops']} timed ops in {record['passes']} passes")
    errors = sorted({op["error"] for op in record["ops"] if op["error"]})
    for error in errors:
        print(f"{name:9s} failure: {error}")
    print(f"{name:9s} src_lines {record['src_lines']}  machine {json.dumps(record['machine'])}")
    print(f"{name:9s} record: {record['path']}")


def run_all(args) -> int:
    """Each workload in its own child process, one after another, so that
    peak memory and set-up are per workload; prints every report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The benchmark and the processes it starts (the metronome among them)
    # share one CPU, so the metronome sees the contention the ops see: of two
    # vCPUs on a shared host, one can slow down while the other speeds up.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        spec = load_spec()
        if args.workload == "all":
            return run_all(args)
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
