"""Runs one workload: set-up, the measured closed loop, checks, metrics.

A workload class supplies the requests and the correctness checks; the
harness owns timing (every interval corrected by :class:`HostClock`),
the optional traced half, fingerprint checking and the result line.
"""

from __future__ import annotations

import gc
import resource
import time
from collections import Counter, defaultdict
from pathlib import Path

from benchlib import Checker, HostClock, PROBE_REFERENCE_S, fail_frac
from benchlib import median, trimmed_mean
from tracing import Tracer, install_layers, summarize

ROOT = Path(__file__).resolve().parent.parent
#: where a traced run leaves its spans (one file per workload, replaced
#: by each traced run).
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
#: operations of each kind an untraced window runs at least, however
#: long they take (each traced half runs at least one).
MIN_PER_KIND = 2


class Op:
    __slots__ = ("kind", "t0", "t1", "cpu", "traced", "ok", "norm")

    def __init__(self, kind, t0, t1, cpu, traced, ok):
        self.kind = kind
        self.t0 = t0
        self.t1 = t1
        self.cpu = cpu
        self.traced = traced
        self.ok = ok
        self.norm = None


class Harness:
    def __init__(self, *, workload_cls, seed, seconds, trace, recorded,
                 record, quick, t_process) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.t_process = t_process
        self.checker = Checker(recorded, record=record or quick)
        self.clock = HostClock().start()
        self.tracer: Tracer | None = None
        self.ops: list[Op] = []
        self.setup_steps: dict[str, float] = {}
        self.setup_s = None
        self.setup_samples: list[float] = []
        self.peak_rss_kb = 0
        self.workload = workload_cls(self)

    # ------------------------------------------------------------------
    # helpers the workloads call
    # ------------------------------------------------------------------
    def step(self, name: str):
        """Time one set-up step (``setup.<name>.s``)."""
        harness = self

        class _Step:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                harness.setup_steps[name] = harness.setup_steps.get(
                    name, 0.0) + time.perf_counter() - self.t0

        return _Step()

    def _begin(self, kind):
        tracer = self.tracer
        if tracer is None:
            return None, None
        span = tracer.begin_op(kind)
        return span, tracer.activate(span)

    def _end(self, span, token):
        if span is not None:
            self.tracer.deactivate(token)
            self.tracer.end_op(span)

    def timed(self, kind: str, fn):
        """Run one operation; returns its output (None if it raised —
        the failure is counted by the caller's fingerprint check).
        Garbage left by the previous operation is collected first, so
        each one starts from the same collector state."""
        gc.collect()
        span, token = self._begin(kind)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - counted as failed op
            out = None
            self.checker.problems.append(f"{kind}: {exc!r}")
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
        self._end(span, token)
        self.ops.append(Op(kind, t0, t1, cpu, span is not None,
                           out is not None))
        return out

    async def timed_async(self, kind: str, coro_fn):
        span, token = self._begin(kind)
        t0 = time.perf_counter()
        try:
            out = await coro_fn()
        except Exception as exc:  # noqa: BLE001 - counted as failed op
            out = None
            self.checker.problems.append(f"{kind}: {exc!r}")
        t1 = time.perf_counter()
        self._end(span, token)
        self.ops.append(Op(kind, t0, t1, None, span is not None,
                           out is not None))
        return out

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _set_up(self) -> None:
        self.workload.setup()
        with self.step("warmup"):
            self.workload.warmup()
        self.setup_s = self.clock.normalize(self.t_process,
                                            time.perf_counter())

    def setup_only(self) -> float:
        try:
            self._set_up()
        finally:
            self.workload.close()
            self.clock.stop()
        return self.setup_s

    def run(self) -> "Harness":
        try:
            self._set_up()
            if self.trace:
                half = self.seconds / 2.0
                self.workload.measure(time.perf_counter() + half, 1)
                self.tracer = Tracer()
                install_layers(self.tracer)
                try:
                    self.workload.measure(time.perf_counter() + half, 1)
                finally:
                    self.tracer.uninstall()
            else:
                self.workload.measure(time.perf_counter() + self.seconds,
                                      MIN_PER_KIND)
            self.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            for op in self.ops:
                op.norm = self.clock.normalize(op.t0, op.t1)
            self.workload.after()
        finally:
            self.workload.close()
            self.clock.stop()
        if self.tracer is not None:
            SPAN_DIR.mkdir(parents=True, exist_ok=True)
            self.tracer.write(
                SPAN_DIR / f"spans-{self.workload.NAME}.jsonl.gz"
            )
        return self

    def record_all(self) -> dict:
        """Fingerprint every request the workload can send."""
        try:
            self.workload.setup()
            for key, fn in self.workload.all_requests():
                self.checker.check(key, fn())
        finally:
            self.workload.close()
            self.clock.stop()
        if self.checker.failed:
            raise RuntimeError("; ".join(self.checker.problems))
        return dict(self.checker.seen)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def samples(self, kind: str, traced: bool = False) -> list[float]:
        """Normalized seconds of the successful ``kind`` operations."""
        return [op.norm for op in self.ops
                if op.kind == kind and op.ok and op.traced == traced]

    def raw_samples(self, kind: str, traced: bool = False) -> list[float]:
        return [op.t1 - op.t0 for op in self.ops
                if op.kind == kind and op.ok and op.traced == traced]

    def latency_lines(self, kind: str, label: str) -> list[str]:
        """Report lines for one operation kind: the corrected median
        with the raw wall median beside it, and the median CPU time."""
        norm = self.samples(kind)
        if not norm:
            return []
        cpu = [op.cpu for op in self.ops
               if op.kind == kind and op.ok and not op.traced]
        return [f"{label}_s = {median(norm):.4f} s normalized "
                f"({median(self.raw_samples(kind)):.4f} s wall, "
                f"n={len(norm)})",
                f"{label}_cpu_s = {median(cpu):.4f} s"]

    def host_slowdown(self) -> float:
        """Mean probe duration over the reference (1.0 = reference)."""
        return trimmed_mean([w for _, w in self.clock.samples]) \
            / PROBE_REFERENCE_S

    def end_to_end(self) -> dict:
        primary, secondary = self.workload.KINDS
        setups = self.setup_samples or [self.setup_s]
        return {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
            "primary_ms": (1000 * self.workload.latency(primary), "ms"),
            "secondary_ms": (1000 * self.workload.latency(secondary), "ms"),
            "quality_pct": (self.workload.quality(), "%"),
        }

    def per_layer(self) -> dict:
        """Per-layer figures from the traced half, per round (one
        operation of each kind), plus counters from the program's own
        result surfaces."""
        rows, ops = summarize(self.tracer.spans)
        self.traced_ops = ops
        per_round = PerRound(rows, ops)
        out = {}
        for name in LAYER_SPANS:
            out[f"{name}.s"] = (per_round.time(name), "s")
        for name in LAYER_CALLS:
            out[f"{name}.n"] = (per_round.calls(name), "count")
        out["sampling.mv_sample.n"] = (
            per_round.calls("sampling", tag="mv_sample"), "count")
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = (per_round.self_time(layer), "s")
        out["op.unattributed_s"] = (per_round.unattributed(), "s")
        total = sum(duration for _, duration, _ in ops.values())
        out["op.unattributed_share"] = (
            sum(own for _, _, own in ops.values()) / total
            if total else 0.0, "ratio")
        primary = self.workload.KINDS[0]
        plain = median(self.samples(primary))
        traced = median(self.samples(primary, traced=True))
        out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
        out["host.slowdown"] = (self.host_slowdown(), "ratio")
        out["host.primary_raw_ms"] = (
            1000 * median(self.raw_samples(primary)), "ms")
        for step in ("datagen", "stats", "warmup"):
            out[f"setup.{step}.s"] = (self.setup_steps.get(step, 0.0), "s")
        out.update(self.workload.layer_figures())
        return out

    def result(self, names: list[dict]) -> dict:
        figures = self.per_layer() if self.trace else self.end_to_end()
        metrics = {}
        self.absent = []
        for spec in names:
            value, unit = figures.get(spec["name"], (None, spec["unit"]))
            if value is None:
                self.absent.append(spec["name"])
                value = 0.0
            metrics[spec["name"]] = {"value": float(value),
                                     "unit": spec["unit"]}
        self.figures = figures
        return {
            "correct": self.checker.failed == 0,
            "attempted": self.checker.attempted,
            "failed": self.checker.failed,
            "metrics": metrics,
        }

    def report_lines(self) -> list[str]:
        """Human-readable lines printed before the result line."""
        lines = [f"workload {self.workload.NAME} seed {self.seed} "
                 f"window {self.seconds:g}s "
                 f"{'traced' if self.trace else 'untraced'}"]
        lines.append(
            f"  fail_frac = "
            f"{fail_frac(self.checker.failed, self.checker.attempted):.4f} "
            f"ratio (failed {self.checker.failed} of "
            f"{self.checker.attempted})")
        for problem in self.checker.problems[:10]:
            lines.append(f"  FAIL {problem}")
        for name, (value, unit) in sorted(self.figures.items()):
            lines.append(f"  {name} = {value:.6g} {unit}")
        if self.trace:
            by_kind = defaultdict(list)
            for kind, duration, own in self.traced_ops.values():
                by_kind[kind].append((own, duration))
            for kind, pairs in sorted(by_kind.items()):
                lines.append(
                    f"  unattributed per {kind} = "
                    f"{median([own for own, _ in pairs]):.6g} s median of "
                    f"{median([d for _, d in pairs]):.6g} s (n={len(pairs)})")
            for name in self.absent:
                lines.append(f"  {name}: absent — "
                             f"{self.workload.absent_reason(name)}")
        lines.extend(f"  {line}" for line in self.workload.report())
        return lines


#: span names whose inclusive time the traced run reports as ``<name>.s``.
LAYER_SPANS = (
    "advisor.candidates", "advisor.selection", "advisor.merging",
    "advisor.enumeration", "advisor.retune", "optimizer.delta",
    "optimizer.whatif_cost", "sizeest.estimate_many", "sizeest.plan",
    "sizeest.samplecf", "sizeest.deduce", "sampling", "storage.build",
    "service.execute", "service.serialize",
)
#: span names whose call counts it reports as ``<name>.n``.
LAYER_CALLS = (
    "optimizer.delta", "optimizer.whatif_cost", "sizeest.estimate_many",
    "sizeest.samplecf", "sampling", "storage.build",
)
LAYERS = ("advisor", "optimizer", "sizeest", "sampling", "storage",
          "service")


class PerRound:
    """Span totals per round: for each operation kind, the total over
    that kind's operations divided by how many there were, summed over
    kinds.  Spans outside every operation (set-up, journal appends the
    event loop makes on a job's behalf) do not count here."""

    def __init__(self, rows, ops) -> None:
        self.kind = {op: kind for op, (kind, _, _) in ops.items()}
        self.count = Counter(self.kind.values())
        self.rows = [r for r in rows if r.op in self.kind]
        self.ops = ops

    def _per_round(self, pairs) -> float:
        totals = defaultdict(float)
        for op, value in pairs:
            totals[self.kind[op]] += value
        return sum(v / self.count[k] for k, v in totals.items())

    def time(self, name) -> float:
        return self._per_round((r.op, r.duration) for r in self.rows
                               if r.name == name and not r.nested)

    def calls(self, name, tag=None) -> float:
        return self._per_round(
            (r.op, 1) for r in self.rows
            if r.name == name and not r.nested
            and (tag is None or r.tag == tag))

    def self_time(self, layer) -> float:
        return self._per_round(
            (r.op, r.own) for r in self.rows
            if r.name.split(".", 1)[0] == layer)

    def unattributed(self) -> float:
        return self._per_round((op, own)
                               for op, (_, _, own) in self.ops.items())
