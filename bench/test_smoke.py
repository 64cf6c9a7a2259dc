"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_named_metric_is_emitted(spec, workload, trace):
    record = run.run_workload(workload, seed=3, seconds=0.0, trace=trace, spec=spec,
                              small=True, setup_repeats=1)
    result = record["result"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    assert result["correct"]
    assert result["attempted"] >= 1
    if workload == "shift":
        # every [1, inf) perturbation draw fails in the package as it stands
        failed_buckets = {op["props"]["kl_bucket"] for op in record["ops"] if op["error"]}
        assert result["failed"] == 0 or failed_buckets == {"kl_1_inf"}
    else:
        assert result["failed"] == 0


def constant_reference():
    return harness.NOMINAL_REFERENCE_S


def test_metronome_times_the_reference_loop_in_its_own_process():
    with harness.Metronome() as metronome:
        times = [metronome() for _ in range(3)]
    assert all(t > 0.0 for t in times)
    assert metronome._proc.returncode == 0


def test_raising_op_counts_as_failed_and_the_run_continues():
    calls = []

    def ok(tracer):
        calls.append("ok")
        return tracer.call("demo.ok", sum, [1, 2])

    def boom(tracer):
        calls.append("boom")
        return tracer.call("demo.boom", lambda: 1 / 0)

    ops = [harness.Op("ok", {}, ok), harness.Op("boom", {}, boom), harness.Op("ok", {}, ok)]
    result = harness.measure(ops, seconds=0.0, trace=True, reference=constant_reference)
    assert calls == ["ok", "boom", "ok"] * 2  # one untraced and one traced pass
    assert (result.attempted, result.failed) == (6, 2)
    assert not result.correct
    summary = harness.end_to_end(result, setup_s=1.0, peak_rss_mb=1.0)
    assert summary["failed_share"] == pytest.approx(1 / 3)
    assert summary["ok_share"] == pytest.approx(2 / 3)
    assert result.errors[1].startswith("ZeroDivisionError")
    assert len(result.references) == result.attempted + 1
    errors = [span["error"] for span in result.tracer.export() if span["name"] == "demo.boom"]
    assert errors == ["ZeroDivisionError"]


def test_known_defect_counts_as_failed_but_keeps_the_run_correct():
    def known(tracer):
        raise harness.KnownDefect("sampler budget exhausted")

    ops = [harness.Op("ok", {}, lambda tracer: 1), harness.Op("known", {}, known)]
    result = harness.measure(ops, seconds=0.0, trace=False, reference=constant_reference)
    assert (result.attempted, result.failed) == (4, 2)
    assert result.correct
    assert result.errors[1] == "known defect: sampler budget exhausted"


def test_one_raising_op_makes_a_workload_run_incorrect(spec, monkeypatch):
    """One op that starts raising makes the run incorrect, whatever ok_share reads."""
    _, workloads = run.import_package()

    def with_one_raising(seed, work_dir, small=False):
        ops = workloads.evaluate_ops(seed, work_dir, small=small)

        def boom(tracer):
            raise ValueError("op broke")

        ops[-1] = harness.Op(ops[-1].kind, ops[-1].props, boom)
        return ops

    monkeypatch.setitem(workloads.OP_LISTS, "evaluate", with_one_raising)
    record = run.run_workload("evaluate", seed=3, seconds=0.0, trace=False, spec=spec,
                              small=True, setup_repeats=1)
    assert record["result"]["correct"] is False
    assert record["result"]["failed"] == record["result"]["attempted"] // 2


def test_ok_share_bound_catches_one_more_failed_op(spec):
    """ok_share's bound is below the drop one more failing op causes on any workload."""
    _, workloads = run.import_package()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ok_share")
    for name in run.WORKLOAD_NAMES:
        n_ops = len(workloads.OP_LISTS[name](3, run.OUT_DIR))
        known = 1 if name == "shift" else 0  # the [1, inf) draw fails today
        drop = 1.0 - (n_ops - known - 1) / (n_ops - known)
        assert drop > bound, name


def test_failed_check_counts_every_execution():
    op = harness.Op("wrong", {}, lambda tracer: 1, check=lambda output: "wrong answer")
    result = harness.measure([op], seconds=0.0, trace=True, reference=constant_reference)
    assert result.check_failed == [True]
    assert result.failed == result.attempted == 2
    assert not result.correct


def test_tail_percentile_keeps_ten_ops_beyond():
    assert harness.tail_percentile(15) == 50.0
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(10_000) == 99.9
