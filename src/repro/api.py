"""`repro.api` — the one public entry point for tuning.

:class:`Session` owns a tuning context once — database, workload,
variant + option defaults, shared :class:`DatabaseStats`, a persistent
(or in-memory) estimate cache, and the previous configuration — and
exposes every tuning mode as a method:

* :meth:`Session.tune` — one cold advisor run.
* :meth:`Session.retune` — incremental continuous-tuning run from the
  previous configuration (drop decayed structures, greedy re-fill).
* :meth:`Session.tune_decoupled` — the paper's staged
  select-then-compress strawman (Example 1/2).
* :meth:`Session.sweep` — sharded budget sweep / seed ablation.

For callers that want the one-shot functional form (explicit
estimators, ad-hoc engines — mostly tests and benchmarks), this module
also exports ``tune`` / ``tune_decoupled`` / ``run_sweep``.

Example::

    from repro.api import Session
    from repro import sales_database, sales_workload

    db = sales_database(scale=0.1)
    session = Session(db, sales_workload(db), budget_fraction=0.25)
    cold = session.tune()
    ...                      # workload drifts
    delta = session.retune(workload=new_workload)
    print(delta.dropped, delta.added)
"""

from __future__ import annotations

from repro.advisor.advisor import (
    AdvisorResult,
    ProgressHook,
    get_variant,
    tune,
    tune_decoupled,
)
from repro.advisor.retune import RetuneResult, advisor_run, report_diff
from repro.advisor.sweep import SweepResult, run_sweep
from repro.catalog.schema import Database
from repro.compression.base import CompressionMethod
from repro.errors import AdvisorError
from repro.parallel.cache import EstimationCache
from repro.physical.configuration import Configuration
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import Workload

__all__ = [
    "Session",
    "RetuneResult",
    "SweepResult",
    "run_sweep",
    "tune",
    "tune_decoupled",
]


class Session:
    """Session state for (continuous) tuning: one database + workload
    whose recommendation is carried forward run over run.

    The session owns what repeated runs can safely share — the
    :class:`DatabaseStats` and one :class:`EstimationCache` (persistent
    under ``cache_dir``, in-memory otherwise) — and every run goes
    through :func:`~repro.advisor.retune.advisor_run`, which hands it a
    *fresh* seeded estimator over that cache.  ``tune()`` runs cold;
    ``retune()`` runs the incremental drop-then-refill search from the
    previous result and returns the configuration diff.  Pass
    ``workload=`` to either call to move the session onto a new drift
    phase.
    """

    def __init__(
        self,
        database: Database,
        workload: Workload | None = None,
        *,
        budget_bytes: float | None = None,
        budget_fraction: float | None = None,
        variant: str = "dtac-both",
        seed: int = DEFAULT_SAMPLE_SEED,
        cache_dir: str | None = None,
        stats: DatabaseStats | None = None,
        progress: ProgressHook | None = None,
        configuration: Configuration | None = None,
        **options_extra,
    ) -> None:
        self.database = database
        self.workload = workload
        self.variant = get_variant(variant).name
        self.seed = seed
        self.cache_dir = cache_dir
        self.stats = stats or DatabaseStats(database)
        self.progress = progress
        self.options_extra = dict(options_extra)
        self._default_budget = None
        self._default_budget = self._resolve_budget(
            budget_bytes, budget_fraction, required=False
        )
        #: the previous recommendation — the next retune's input.  May
        #: be seeded directly (e.g. from a persisted result) to retune
        #: without a cold ``tune()`` first.
        self.configuration = configuration
        #: completed runs (tune + retune) in this session.
        self.generation = 0
        self.estimates = EstimationCache(cache_dir)

    # ------------------------------------------------------------------
    def _resolve_budget(
        self,
        budget_bytes: float | None,
        budget_fraction: float | None,
        required: bool = True,
    ) -> float | None:
        if budget_bytes is not None and budget_fraction is not None:
            raise AdvisorError(
                "pass budget_bytes or budget_fraction, not both"
            )
        if budget_fraction is not None:
            return self.database.total_data_bytes() * budget_fraction
        if budget_bytes is not None:
            return float(budget_bytes)
        if self._default_budget is None and required:
            raise AdvisorError(
                "no budget: pass budget_bytes/budget_fraction to the "
                "session or to the call"
            )
        return self._default_budget

    def _resolve_workload(self, workload: Workload | None) -> Workload:
        if workload is not None:
            self.workload = workload
        if self.workload is None:
            raise AdvisorError(
                "no workload: pass one to the session or to the call"
            )
        return self.workload

    def _run(self, budget_bytes, budget_fraction, workload, extra: dict,
             previous: Configuration | None = None) -> AdvisorResult:
        """One :func:`advisor_run` under the session's context; the
        result becomes the configuration the next retune carries."""
        workload = self._resolve_workload(workload)
        budget = self._resolve_budget(budget_bytes, budget_fraction)
        options = get_variant(self.variant).advisor_options(
            budget, **{**self.options_extra, **extra}
        )
        result = advisor_run(
            self.database, workload, options,
            stats=self.stats, seed=self.seed, estimates=self.estimates,
            previous=previous, progress=self.progress,
        )
        self.configuration = result.configuration
        self.generation += 1
        return result

    # ------------------------------------------------------------------
    def tune(
        self,
        budget_bytes: float | None = None,
        *,
        budget_fraction: float | None = None,
        workload: Workload | None = None,
        **extra,
    ) -> AdvisorResult:
        """One cold tuning run (no previous-configuration seeding);
        establishes the configuration later ``retune()`` calls carry
        forward."""
        return self._run(budget_bytes, budget_fraction, workload, extra)

    def retune(
        self,
        budget_bytes: float | None = None,
        *,
        budget_fraction: float | None = None,
        workload: Workload | None = None,
        **extra,
    ) -> RetuneResult:
        """One incremental retune from the session's previous
        configuration (drop decayed structures, greedy re-fill), under
        the current — typically drifted — workload."""
        previous = self.configuration
        if previous is None:
            raise AdvisorError(
                "retune needs a previous configuration: run tune() "
                "first, or seed the session with configuration=..."
            )
        result = self._run(budget_bytes, budget_fraction, workload, extra,
                           previous=previous)
        dropped, added, kept = report_diff(
            previous, result.configuration, self.generation, self.progress
        )
        return RetuneResult(
            result=result,
            generation=self.generation,
            previous_configuration=previous,
            dropped=dropped,
            added=added,
            kept=kept,
        )

    def tune_decoupled(
        self,
        budget_bytes: float | None = None,
        *,
        budget_fraction: float | None = None,
        workload: Workload | None = None,
        method: CompressionMethod = CompressionMethod.PAGE,
        **extra,
    ) -> AdvisorResult:
        """The staged strawman of Example 1/2: select indexes without
        considering compression, then blindly compress everything
        selected.  Does not advance the session's configuration — it is
        a comparison arm, not a deployable recommendation."""
        workload = self._resolve_workload(workload)
        budget = self._resolve_budget(budget_bytes, budget_fraction)
        return tune_decoupled(
            self.database,
            workload,
            budget,
            stats=self.stats,
            method=method,
            **{**self.options_extra, **extra},
        )

    def sweep(
        self,
        budgets,
        *,
        seeds=None,
        workers: int = 1,
        workload: Workload | None = None,
        **extra,
    ) -> SweepResult:
        """Sharded budget sweep / seed ablation over this session's
        context (database, variant, stats, cache directory).  Does not
        advance the session's configuration — a sweep is many
        hypothetical runs, not one deployment decision."""
        workload = self._resolve_workload(workload)
        return run_sweep(
            self.database,
            workload,
            budgets,
            seeds=seeds,
            variant=self.variant,
            workers=workers,
            cache_dir=self.cache_dir,
            stats=self.stats,
            progress=self.progress,
            **{**self.options_extra, **extra},
        )
