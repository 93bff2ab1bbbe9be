"""Tests of the benchmark's own arithmetic, plus a tiny smoke run of each
workload.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from benchlib import (
    PROBE_REFERENCE_S,
    Checker,
    HostClock,
    covered,
    fail_frac,
    self_time,
    tail,
)
from tracing import Tracer, summarize

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_tail_is_p99_at_one_thousand_samples():
    values = list(range(1000, 0, -1))          # order must not matter
    assert tail(values) == (99.0, 990)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 38)]
    pct, value = tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 27 / 37)


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) is None
    assert tail([1.0] * 11) == (100.0 / 11, 1.0)


# ----------------------------------------------------------------------
# failure counting
# ----------------------------------------------------------------------
def test_fail_frac_counts_against_attempts():
    assert fail_frac(0, 5) == 0.0
    assert fail_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        fail_frac(0, 0)
    with pytest.raises(ValueError):
        fail_frac(3, 2)


def test_checker_counts_errors_mismatches_and_unrecorded_keys():
    checker = Checker({"a": "x", "b": "y"})
    assert checker.check("a", "x")
    assert not checker.check("b", "other")      # mismatch
    assert not checker.check("a", None)         # the operation raised
    assert not checker.check("c", "z")          # nothing recorded
    checker.fail("identity")
    assert (checker.attempted, checker.failed) == (5, 4)
    assert fail_frac(checker.failed, checker.attempted) == 0.8


def test_recording_checker_flags_nondeterminism():
    checker = Checker({}, record=True)
    assert checker.check("a", "x")
    assert checker.check("a", "x")
    assert not checker.check("a", "y")
    assert checker.seen == {"a": "x"}


# ----------------------------------------------------------------------
# host speed correction
# ----------------------------------------------------------------------
def test_host_clock_removes_probe_time_and_rescales():
    """Probes every 100 ms taking twice the reference: the host runs at
    half speed, so an operation's probe-free time halves."""
    clock = HostClock()
    probe = 2 * PROBE_REFERENCE_S
    clock.samples = [(t / 10, probe) for t in range(100)]
    stall = 20 * probe                      # the probes at 1.0 .. 2.9 s
    assert clock.stall(1.0, 3.0) == pytest.approx(stall)
    assert clock.normalize(1.0, 3.0) == pytest.approx((2.0 - stall) / 2)
    # a short interval borrows the probes around it
    assert clock.normalize(5.01, 5.02) == pytest.approx(0.01 / 2)


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_counts_overlapping_children_once():
    # parent [0, 10]; children on two threads overlap on [3, 4].
    assert self_time(0, 10, [(1, 4), (3, 6)]) == 5
    assert self_time(0, 10, [(0, 10), (2, 3)]) == 0


def _sleepy(seconds):
    time.sleep(seconds)
    return threading.get_ident()


def test_spans_nest_across_executor_threads():
    """Children submitted to two executor threads overlap in time; the
    parent's self time excludes their union, not their sum."""
    tracer = Tracer()
    traced = tracer._wrapper(_sleepy, "layer.child")
    tracer.carry_context_into_threads()
    try:
        op = tracer.begin_op("read")
        token = tracer.activate(op)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(traced, 0.05), pool.submit(traced, 0.05)]
            threads = {f.result() for f in futures}
        tracer.deactivate(token)
        tracer.end_op(op)
    finally:
        tracer.uninstall()
    children = [s for s in tracer.spans if s.name == "layer.child"]
    assert len(threads) == 2
    assert {s.parent for s in children} == {op.id}
    assert {s.op for s in children} == {op.id}
    assert len({s.thread for s in children}) == 2
    kind, duration, own = summarize(tracer.spans)[1][op.id]
    union = covered([(s.start, s.end) for s in children], op.start, op.end)
    summed = sum(s.end - s.start for s in children)
    assert union < summed
    assert own == pytest.approx(duration - union)


def test_unparented_server_span_joins_the_operation_in_flight():
    tracer = Tracer()
    traced = tracer._wrapper(lambda: None, "service.request", attach=True)
    op = tracer.begin_op("read")
    worker = threading.Thread(target=traced)     # no context carried
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    tracer.end_op(op)
    span = next(s for s in tracer.spans if s.name == "service.request")
    assert span.parent == op.id and span.op == op.id
    assert tracer.inflight is None


def test_recursion_through_same_name_counts_once():
    tracer = Tracer()

    def outer(depth):
        return inner(depth)

    inner = tracer._wrapper(
        lambda depth: outer(depth - 1) if depth else None, "advisor.run")
    op = tracer.begin_op("tune")
    token = tracer.activate(op)
    inner(2)
    tracer.deactivate(token)
    tracer.end_op(op)
    rows, _ = summarize(tracer.spans)
    runs = [r for r in rows if r.name == "advisor.run"]
    assert len(runs) == 3
    assert sum(not r.nested for r in runs) == 1


# ----------------------------------------------------------------------
# smoke: every metric prints with its unit
# ----------------------------------------------------------------------
#: the end-to-end figures each workload prints on its report lines.
REPORTED = {
    "tune-tpch": ("tune_select_s", "tune_insert_s", "tune_cpu_s",
                  "improvement_pct"),
    "estimate-tpch": ("estimate_s", "estimate_cpu_s", "size_error_pct"),
    "serve-sales": ("read_p50_ms", "reads_per_s", "job_s",
                    "improvement_pct", "read_miss_share"),
}
UNIT = {"tune_select_s": "s", "tune_insert_s": "s", "tune_cpu_s": "s",
        "improvement_pct": "%", "estimate_s": "s", "estimate_cpu_s": "s",
        "size_error_pct": "%", "read_p50_ms": "ms", "reads_per_s": "1/s",
        "job_s": "s", "read_miss_share": "ratio", "fail_frac": "ratio"}


@pytest.mark.parametrize("workload", sorted(REPORTED))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--quick"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for spec in section:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, spec["name"]
    report = "\n".join(lines[:-1])
    if trace:
        for name in ("op.unattributed_s", "trace.overhead_pct"):
            assert f"{name} = " in report
    else:
        for name in REPORTED[workload] + ("fail_frac",):
            assert f"{name} = " in report, name
            line = next(x for x in lines if f"{name} = " in x)
            assert f" {UNIT[name]}" in line, line


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails
    without printing a result."""
    (tmp_path / "perfbench").mkdir()
    for item in HERE.iterdir():
        if item.is_file():
            (tmp_path / "perfbench" / item.name).write_bytes(
                item.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-tpch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
