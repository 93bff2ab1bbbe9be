"""Span tracing of the program's layers, wrapped from outside the source.

The traced run wraps public functions and methods of each layer (see
:func:`install_layers`) so that every call records a span: name, start, end,
parent, thread and operation id.  Parents follow a context variable,
which asyncio tasks inherit and which the tracer carries into executor
threads, so spans nest across the service's lane threads and its async
request path.  Server-side entry points that start without a parent
(an HTTP connection handler, a job's lane thread) attach to the client
operation in flight — each workload is one closed-loop caller, so there
is at most one.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

from benchlib import self_time


class Span:
    __slots__ = ("id", "name", "tag", "start", "end", "parent", "thread",
                 "op", "nested")

    def __init__(self, sid, name, tag, parent, op, nested):
        self.id = sid
        self.name = name
        self.tag = tag
        self.start = time.perf_counter()
        self.end = None
        self.parent = parent
        self.thread = threading.get_ident()
        self.op = op
        self.nested = nested

    def as_row(self) -> list:
        return [self.id, self.name, self.tag, self.start, self.end,
                self.parent, self.thread, self.op]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._by_id: dict[int, Span] = {}
        #: the client operation in flight (one caller, so at most one).
        self.inflight: Span | None = None
        self._undo: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str, tag=None, attach: bool = False) -> Span:
        parent = self._current.get()
        if parent is not None and parent.end is not None:
            parent = None  # submitted work outliving its submitter
        if parent is None and attach:
            parent = self.inflight
        nested = False
        probe = parent
        while probe is not None:
            if probe.name == name:
                nested = True
                break
            probe = self._by_id.get(probe.parent)
        span = Span(next(self._ids), name, tag,
                    parent.id if parent is not None else None,
                    parent.op if parent is not None else None, nested)
        self._by_id[span.id] = span
        self.spans.append(span)
        return span

    def begin_op(self, kind: str) -> Span:
        """Root span of one benchmark operation (its id is the op id)."""
        span = Span(next(self._ids), "op", kind, None, None, False)
        span.op = span.id
        self._by_id[span.id] = span
        self.spans.append(span)
        self.inflight = span
        return span

    def end_op(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.inflight is span:
            self.inflight = None

    def activate(self, span: Span):
        """Make ``span`` the parent of spans opened in this context."""
        return self._current.set(span)

    def deactivate(self, token) -> None:
        self._current.reset(token)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _wrapper(self, fn, name, tag_of=None, attach=False):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                span = tracer._open(
                    name, tag_of(args, kwargs) if tag_of else None, attach)
                token = tracer._current.set(span)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                    span.end = time.perf_counter()
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer._open(
                    name, tag_of(args, kwargs) if tag_of else None, attach)
                token = tracer._current.set(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                    span.end = time.perf_counter()
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr, name, tag_of=None, attach=False):
        """``attach``: a call with no parent span is a server entry
        point, and joins the operation in flight."""
        self._patch(cls, attr, self._wrapper(
            cls.__dict__[attr], name, tag_of, attach))

    def wrap_function(self, fn, name, tag_of=None):
        """Wrap a module-level function in every loaded module of the
        program that bound it by name."""
        traced = self._wrapper(fn, name, tag_of)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "") or ""
            if not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, traced)

    def carry_context_into_threads(self) -> None:
        """Executor threads run submitted work in the submitter's
        context, as ``asyncio.to_thread`` does, so lane-thread spans
        nest under the request that queued them."""
        original = ThreadPoolExecutor.__dict__["submit"]

        def submit(executor, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()
            return original(executor, ctx.run, fn, *args, **kwargs)

        self._patch(ThreadPoolExecutor, "submit", submit)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(["id", "name", "tag", "start", "end",
                                  "parent", "thread", "op"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span.as_row()) + "\n")


# ----------------------------------------------------------------------
# layer report
# ----------------------------------------------------------------------
class Row(NamedTuple):
    """One closed layer span, reduced to what the report needs."""
    op: int | None
    name: str
    tag: object
    nested: bool
    duration: float
    own: float        # duration minus what its children cover


def summarize(spans) -> "tuple[list[Row], dict]":
    """``(rows, ops)``: a :class:`Row` per closed layer span, and per
    operation ``{op id: (kind, duration, unattributed)}`` where the
    unattributed part is the operation's time no child span covers.
    ``nested`` marks a span inside another of the same name (recursion
    through a subclass's ``super()``), which totals count once."""
    closed = [s for s in spans if s.end is not None]
    children = defaultdict(list)
    for s in closed:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    rows, ops = [], {}
    for s in closed:
        own = self_time(s.start, s.end, children.get(s.id, ()))
        if s.name == "op":
            ops[s.id] = (s.tag, s.end - s.start, own)
        else:
            rows.append(Row(s.op, s.name, s.tag, s.nested,
                            s.end - s.start, own))
    return rows, ops


# ----------------------------------------------------------------------
# what the traced run wraps
# ----------------------------------------------------------------------
def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (imports the program)."""
    from repro.advisor import advisor as advisor_mod
    from repro.advisor import retune as retune_mod
    from repro.advisor.algorithms.base import SelectionAlgorithm
    from repro.optimizer.delta import DeltaWorkloadCoster
    from repro.optimizer.statement_cost import StatementCoster
    from repro.sampling.sample_manager import SampleManager
    from repro.service import context as context_mod
    from repro.service.journal import JobJournal
    from repro.service.service import AdvisorService
    from repro.sizeest import planner as planner_mod
    from repro.sizeest.deduction import DeductionEngine
    from repro.sizeest.estimator import SizeEstimator
    from repro.sizeest.samplecf import SampleCFRunner
    from repro.storage import index_build as build_mod

    # advisor
    tracer.wrap_function(advisor_mod.candidate_indexes, "advisor.candidates")
    tracer.wrap_function(advisor_mod.expand_compression_variants,
                         "advisor.candidates")
    tracer.wrap_function(advisor_mod.evaluate_candidates_batch,
                         "advisor.selection")
    tracer.wrap_function(advisor_mod.generate_merged_candidates,
                         "advisor.merging")
    tracer.wrap_function(advisor_mod.compression_aware_variants,
                         "advisor.merging")
    for cls in _subclasses(SelectionAlgorithm):
        if "run" in cls.__dict__:
            tracer.wrap_method(cls, "run", "advisor.enumeration")
    tracer.wrap_function(retune_mod.retune_run, "advisor.retune")
    # optimizer
    for attr in ("workload_cost", "batch", "statement_cost"):
        tracer.wrap_method(DeltaWorkloadCoster, attr, "optimizer.delta")
    tracer.wrap_method(StatementCoster, "cost", "optimizer.whatif_cost")
    # size estimation, sampling, storage
    tracer.wrap_method(SizeEstimator, "estimate_many",
                       "sizeest.estimate_many")
    tracer.wrap_function(planner_mod.choose_plan, "sizeest.plan")
    tracer.wrap_method(SampleCFRunner, "run", "sizeest.samplecf")
    for attr in ("colset", "colext"):
        tracer.wrap_method(DeductionEngine, attr, "sizeest.deduce")
    for attr in ("table_sample", "filtered_sample", "join_synopsis",
                 "mv_sample"):
        tracer.wrap_method(SampleManager, attr, "sampling",
                           tag_of=lambda a, k, attr=attr: attr)
    tracer.wrap_function(build_mod.measure_structure, "storage.build")
    # service
    tracer.wrap_method(AdvisorService, "request", "service.request",
                       tag_of=lambda a, k: a[1], attach=True)
    for attr in ("run_tune", "run_retune", "run_sweep",
                 "run_estimate_size", "run_whatif_cost"):
        tracer.wrap_method(context_mod.ServiceContext, attr,
                           "service.execute",
                           tag_of=lambda a, k, attr=attr: attr,
                           attach=True)
    for attr in ("append_submit", "append_state", "append_event",
                 "append_result", "append_mode"):
        tracer.wrap_method(JobJournal, attr, "service.journal.append")
    tracer.wrap_function(context_mod.serialize_result, "service.serialize")
    tracer.carry_context_into_threads()
