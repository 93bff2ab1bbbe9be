"""The what-if optimizer API (Section 3 / Figure 1).

Physical design tools ask "what would this query cost under that
hypothetical configuration?".  This facade answers from the
compression-aware cost model, caches per (statement, relevant-structures)
signature — a query's cost only depends on the structures of the tables
it touches — and totals weighted workload costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.catalog.schema import Database
from repro.parallel.signature import index_identity
from repro.optimizer.constants import DEFAULT_COST_CONSTANTS, CostConstants
from repro.optimizer.statement_cost import (
    CostBreakdown,
    SizeLookup,
    StatementCoster,
)
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import SelectQuery, Statement
from repro.workload.query import Workload

#: fault-injection hook (see :mod:`repro.service.faults`): rebound to
#: that module's ``fire`` when a plan is installed, None otherwise —
#: declared here so the optimizer never imports the service package.
FAULT_HOOK = None

if TYPE_CHECKING:  # pragma: no cover - import cycle with delta
    from repro.optimizer.delta import DeltaWorkloadCoster


class WhatIfOptimizer:
    """Costs statements/workloads under hypothetical configurations.

    Args:
        database: catalog.
        stats: database statistics.
        sizes: callable ``IndexDef -> (est_bytes, est_rows)``; the advisor
            wires in its size-estimation framework here, which is exactly
            the paper's integration point between DTA and size estimation.
        constants: cost-model constants.
        kernel: costing-kernel backend name (``auto``/``numpy``/
            ``python``, see :mod:`repro.optimizer.kernels`) or an
            already-resolved :class:`~repro.optimizer.kernels.CostKernel`.
            Backends are float-identical by contract; the choice only
            affects throughput.
    """

    def __init__(
        self,
        database: Database,
        stats: DatabaseStats | None = None,
        sizes: SizeLookup | None = None,
        constants: CostConstants = DEFAULT_COST_CONSTANTS,
        kernel="auto",
    ) -> None:
        from repro.optimizer.kernels import CostKernel, resolve_backend

        self.database = database
        self.stats = stats or DatabaseStats(database)
        self._sizes = sizes or self._default_sizes
        if not isinstance(kernel, CostKernel):
            kernel = resolve_backend(kernel or "auto")
        self.kernel = kernel
        self.coster = StatementCoster(
            database, self.stats, self._lookup_size, constants,
            kernel=self.kernel,
        )
        self._cache: dict[tuple, CostBreakdown] = {}
        self.optimizer_calls = 0

    # ------------------------------------------------------------------
    def _default_sizes(self, index: IndexDef) -> tuple[float, float]:
        """Fallback sizing when no estimator is wired in: uncompressed
        analytic size (compression fractions need the framework)."""
        from repro.sizeest.analytic import AnalyticSizer
        from repro.sampling.sample_manager import SampleManager

        if not hasattr(self, "_fallback_sizer"):
            self._fallback_sizer = AnalyticSizer(
                self.database, self.stats, SampleManager(self.database)
            )
        sizer = self._fallback_sizer
        return (
            sizer.uncompressed_bytes(index),
            sizer.estimated_rows(index),
        )

    def _lookup_size(self, index: IndexDef) -> tuple[float, float]:
        return self._sizes(index)

    # ------------------------------------------------------------------
    @staticmethod
    def _index_cache_key(index: IndexDef) -> tuple:
        """Explicit structure identity for cost-cache signatures.

        Delegates to the canonical :func:`index_identity`, which spells
        out every field the cost model can observe — notably the
        **compression method** — so hypothetical configurations that
        differ only in method can never alias to the same cached cost
        entry, regardless of how :class:`IndexDef` equality evolves.
        """
        return index_identity(index)

    def _relevant_structures(
        self, statement: Statement, config: Configuration
    ) -> list[IndexDef]:
        """The structures a statement's cost can depend on: those on the
        tables it touches (MV indexes count when their MV overlaps)."""
        if isinstance(statement, SelectQuery):
            tables = set(statement.tables)
        else:
            tables = {statement.table}
        relevant = []
        for index in config:
            if index.is_mv_index:
                if tables & set(index.mv.tables):
                    relevant.append(index)
            elif index.table in tables:
                relevant.append(index)
        return relevant

    def _signature(self, statement: Statement,
                   config: Configuration) -> tuple:
        """Cache key: the statement plus the structures on its tables."""
        return (
            statement,
            frozenset(
                self._index_cache_key(ix)
                for ix in self._relevant_structures(statement, config)
            ),
        )

    def cost(self, statement: Statement,
             config: Configuration) -> CostBreakdown:
        """Optimizer-estimated cost of one statement."""
        return self.cost_with_plans(statement, config)[0]

    def cost_with_plans(
        self, statement: Statement, config: Configuration
    ) -> "tuple[CostBreakdown, tuple[float, ...] | None]":
        """One statement's cost plus its chosen per-table access-plan
        costs (aligned with ``statement.tables``), or None for an
        INSERT/UPDATE/DELETE.  A SELECT answered by an MV scan still
        reports the plans it would use without MVs.  The delta coster's
        access-path probes compare against these."""
        key = self._signature(statement, config)
        breakdown = self._cache.get(key)
        if breakdown is None:
            self.optimizer_calls += 1
            breakdown = self.coster.cost(statement, config)
            self._cache[key] = breakdown
        if breakdown.plans:
            return breakdown, tuple(plan.cost for plan in breakdown.plans)
        return breakdown, None

    def delta_coster(self, workload: Workload) -> "DeltaWorkloadCoster":
        """A :class:`~repro.optimizer.delta.DeltaWorkloadCoster` bound
        to this optimizer and ``workload`` (fresh per call: the delta
        memo is per-run state and must not outlive this optimizer's
        size lookup)."""
        from repro.optimizer.delta import DeltaWorkloadCoster

        return DeltaWorkloadCoster(self, workload)

    # ------------------------------------------------------------------
    def cost_batch(
        self,
        statement: Statement,
        configs: Sequence[Configuration],
    ) -> list[CostBreakdown]:
        """Costs of one statement under a *set* of candidate
        configurations, in input order (cost-cache aware).  Fresh
        evaluations run through the costing kernel wired into the coster
        (see :mod:`repro.optimizer.kernels`), so full-recost sweeps
        batch their per-table access-path arithmetic."""
        return [self.cost(statement, config) for config in configs]

    def workload_cost(self, workload: Workload,
                      config: Configuration) -> float:
        """Weighted total workload cost (the advisor's objective)."""
        return sum(
            ws.weight * self.cost(ws.statement, config).total
            for ws in workload
        )

    def workload_cost_batch(
        self,
        workload: Workload,
        configs: Sequence[Configuration],
        delta: "DeltaWorkloadCoster | None" = None,
    ) -> list[float]:
        """Weighted workload cost of each candidate configuration, in
        input order.  This is the unit the advisor fans out per worker:
        one task = one configuration's full workload cost, so the
        per-configuration float is identical arithmetic either way.

        ``delta`` routes the batch through a
        :class:`~repro.optimizer.delta.DeltaWorkloadCoster` bound to the
        same workload: only statements whose relevant-structure set
        changed get re-evaluated, with bit-identical totals."""
        if FAULT_HOOK is not None:
            FAULT_HOOK("coster.batch", configs=len(configs))
        if delta is not None and delta.workload is workload:
            return delta.batch(configs)
        return [self.workload_cost(workload, config) for config in configs]

    @property
    def cache_entries(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()
