"""Closed-loop op runner, span tracer and metric summaries for the benchmark.

A workload is a fixed list of ``Op`` objects built from the seed.  The runner
executes the whole list in passes, one op at a time in one thread, until the
time budget is spent; every op's wall time is measured on its own, and
checks, descriptions, probes and the reference loop run outside those timed
regions.
"""
from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Candidate tail percentiles; the highest with at least TAIL_BEYOND ops beyond it is used.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
#: Every run makes at least this many passes over its op list.
MIN_PASSES = 2

#: The shared host's speed drifts by +-20% within seconds and switches
#: between levels about 50% apart over minutes.  The metronome process runs
#: a fixed reference loop after every op, and each op's wall time is rescaled
#: by NOMINAL_REFERENCE_S over the median reference time of the surrounding
#: ops: the reported op times are wall times at one fixed host speed.  The
#: loop runs in a separate process that never imports the package, so a
#: slowdown the package causes in its own process is not rescaled away.  Raw
#: wall times stay in the run record.  NOMINAL_REFERENCE_S is about the
#: loop's time on the 2-vCPU x86-64 VM with CPython 3.11 and numpy 2.4 where
#: the benchmark was defined.
NOMINAL_REFERENCE_S = 0.003
REFERENCE_WINDOW = 5
METRONOME = Path(__file__).resolve().with_name("metronome.py")


class KnownDefect(Exception):
    """An op failure the package is known to have at the commit that defined
    the benchmark: counted in the failed share, but not an incorrect run."""


class Metronome:
    """The reference loop of ``metronome.py`` in a child process; calling an
    instance runs the loop once and returns its wall time in seconds."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(METRONOME)], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"metronome exited with code {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class Op:
    """One closed-loop operation: calls into the package made through a tracer.

    ``run(tracer)`` is the timed region.  ``describe(output)`` returns input
    properties only known after the op ran (such as the active-item count at
    the planned level), ``check(output)`` returns an error message when an
    oracle disagrees, and ``probe(output, tracer)`` makes the extra traced
    calls that time layers reached only inside the op.
    """

    kind: str
    props: dict
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None] = lambda output: None
    describe: Callable[[Any], dict] = lambda output: {}
    probe: Callable[[Any, Any], None] | None = None


class NullTracer:
    """Tracer for untraced passes: a direct call that records nothing."""

    enabled = False

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Records a span around each call and named counts, all kept in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op index, error]
        self.counts: dict[str, float] = {}
        self.op_index: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.op_index, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    def span_stats(self) -> dict[str, list[float]]:
        """Durations in seconds per span name."""
        out: dict[str, list[float]] = {}
        for name, start, end, *_ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def export(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op, "error": error}
            for name, start, end, parent, op, error in self.spans
        ]


@dataclass
class Execution:
    """One timed execution of an op."""

    index: int
    traced: bool
    raw_s: float
    failed: bool
    seconds: float = 0.0  # raw_s at the nominal host speed


@dataclass
class RunResult:
    """Per-execution records of one measured run."""

    ops: list[Op]
    executions: list[Execution] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)   # first failure per op
    check_failed: list[bool] = field(default_factory=list)
    unexpected: list[bool] = field(default_factory=list)      # raised other than a KnownDefect
    passes: int = 0
    traced_passes: int = 0
    tracer: Tracer | None = None

    @property
    def attempted(self) -> int:
        return len(self.executions)

    @property
    def failed(self) -> int:
        return sum(e.failed for e in self.executions)

    @property
    def correct(self) -> bool:
        """No output failed its check and no op raised, known defects aside."""
        return not any(self.check_failed) and not any(self.unexpected)

    def selected(self, traced: bool) -> list[Execution]:
        return [e for e in self.executions if e.traced == traced]

    def per_op(self, traced: bool, raw: bool = False) -> list[list[float]]:
        out: list[list[float]] = [[] for _ in self.ops]
        for e in self.selected(traced):
            out[e.index].append(e.raw_s if raw else e.seconds)
        return out


def rescale(raw_s: float, references: list[float]) -> float:
    """``raw_s`` at the nominal host speed, given nearby reference times."""
    return raw_s * NOMINAL_REFERENCE_S / statistics.median(references)


def execute(op: Op, index: int, tracer) -> tuple[float, Any, str | None, bool]:
    """Run one op in its timed region; an exception is a failed op, not an abort.

    Returns the wall time, the output, the error message or None, and whether
    the op raised an exception other than a KnownDefect.
    """
    if tracer.enabled:
        tracer.op_index = index
    start = time.perf_counter()
    output, error, unexpected = None, None, False
    try:
        output = op.run(tracer)
    except KnownDefect as exc:
        error = f"known defect: {exc}"
    except Exception as exc:  # every failure mode of an op is counted, never fatal
        error = f"{type(exc).__name__}: {exc}"
        unexpected = True
    elapsed = time.perf_counter() - start
    if tracer.enabled:
        tracer.op_index = None
    return elapsed, output, error, unexpected


def measure(ops: list[Op], seconds: float, trace: bool, reference: Callable[[], float]) -> RunResult:
    """Run at least MIN_PASSES whole passes over ``ops``, and more while another
    pass of average length still ends within ``seconds`` of wall time.
    ``reference()`` runs after every op and returns the time that rescales it
    (a Metronome).

    Each op is described and checked on its first execution; the package is
    deterministic, so that verdict holds for its repeats, which are counted
    failed too when it failed.  With ``trace`` the passes alternate between
    untraced and traced, so the end-to-end numbers and the tracing overhead
    come from the same run; probes follow each traced op, outside its timing.
    """
    result = RunResult(ops=ops)
    result.errors = [None] * len(ops)
    result.check_failed = [False] * len(ops)
    result.unexpected = [False] * len(ops)
    checked = [False] * len(ops)
    null = NullTracer()
    tracer = Tracer() if trace else None
    result.tracer = tracer

    start = time.perf_counter()
    result.references.append(reference())
    total_passes = 0
    while True:
        traced_pass = trace and total_passes % 2 == 1
        active = tracer if traced_pass else null
        for index, op in enumerate(ops):
            elapsed, output, error, unexpected = execute(op, index, active)
            result.references.append(reference())
            result.unexpected[index] |= unexpected
            if not checked[index]:
                checked[index] = True
                if error is None:
                    op.props.update(op.describe(output))
                    message = op.check(output)
                    if message is not None:
                        result.check_failed[index] = True
                        error = f"check: {message}"
                if error is not None:
                    result.errors[index] = error
                gc.collect()  # leave no collection debt from the check to the next op
            elif error is not None and result.errors[index] is None:
                result.errors[index] = error
            failed = error is not None or result.check_failed[index]
            result.executions.append(Execution(index, traced_pass, elapsed, failed))
            if traced_pass and error is None and op.probe is not None:
                tracer.op_index = index
                tracer.call("probe", op.probe, output, tracer)
                tracer.op_index = None
        total_passes += 1
        if traced_pass:
            result.traced_passes += 1
        else:
            result.passes += 1
        spent = time.perf_counter() - start
        if total_passes >= MIN_PASSES and spent + spent / total_passes > seconds:
            break

    # execution j ran between references j and j + 1
    refs = result.references
    for j, e in enumerate(result.executions):
        window = refs[max(0, j + 1 - REFERENCE_WINDOW):j + 1 + REFERENCE_WINDOW]
        e.seconds = rescale(e.raw_s, window)
    return result


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if count * (1000 - round(10 * p)) >= 1000 * TAIL_BEYOND:  # exact in tenths of a percent
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def throughput(result: RunResult, traced: bool) -> float:
    """Successful ops per second of timed op time (failed ops' time counts)."""
    executions = result.selected(traced)
    return sum(not e.failed for e in executions) / math.fsum(e.seconds for e in executions)


def end_to_end(result: RunResult, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end figures from the untraced passes.

    The tail percentile is fixed by the op-list length: the highest ladder
    percentile with TAIL_BEYOND ops beyond it in a run of MIN_PASSES passes.
    Passes repeat the same ops, so more passes do not move it.
    """
    executions = result.selected(traced=False)
    durations = [e.seconds for e in executions]
    p = tail_percentile(min(len(durations), MIN_PASSES * len(result.ops)))
    failed = sum(e.failed for e in executions)
    raw = [e.raw_s for e in executions]
    return {
        "setup_s": setup_s,
        "ops_per_s": throughput(result, traced=False),
        "op_ms_p50": 1e3 * statistics.median(durations),
        "op_ms_tail": 1e3 * percentile(durations, p),
        "ok_share": 1.0 - failed / len(durations),
        "peak_rss_mb": peak_rss_mb,
        # recorded beside the gated metrics, not gated themselves
        "failed_share": failed / len(durations),
        "tail_percentile": p,
        "timed_ops": len(durations),
        "raw_ops_per_s": sum(not e.failed for e in executions) / math.fsum(raw),
        "raw_op_ms_p50": 1e3 * statistics.median(raw),
        "raw_op_ms_tail": 1e3 * percentile(raw, p),
        "reference_ms_p50": 1e3 * statistics.median(result.references),
    }


def per_layer(result: RunResult, names: list[str]) -> dict:
    """Per-layer figures from the traced passes, as totals per pass of the op list.

    A name ``X.calls``/``X.ms_total``/``X.ms_p50`` comes from the spans named
    ``X``; ``X.records_per_s`` divides the count ``X.records`` by the spans'
    time; ``X.floored_share`` divides ``X.floored`` by ``X.items``;
    ``trace_overhead_share`` compares untraced with traced throughput; any
    other name is a count.  Names a workload never reaches read 0.  Span
    times are raw wall times.
    """
    tracer = result.tracer
    spans = tracer.span_stats()
    per_pass = 1.0 / result.traced_passes
    counts = tracer.counts
    out = {}
    for name in names:
        stem, _, stat = name.rpartition(".")
        durations = spans.get(stem, [])
        if name == "trace_overhead_share":
            value = throughput(result, traced=False) / throughput(result, traced=True) - 1.0
        elif stat == "calls":
            value = len(durations) * per_pass
        elif stat == "ms_total":
            value = 1e3 * math.fsum(durations) * per_pass
        elif stat == "ms_p50":
            value = 1e3 * statistics.median(durations) if durations else 0.0
        elif stat == "records_per_s":
            seconds = math.fsum(durations)
            value = counts.get(stem + ".records", 0.0) / seconds if seconds > 0.0 else 0.0
        elif stat == "floored_share":
            items = counts.get(stem + ".items", 0.0)
            value = counts.get(stem + ".floored", 0.0) / items if items else 0.0
        else:
            value = counts.get(name, 0.0) * per_pass
        out[name] = value
    return out
