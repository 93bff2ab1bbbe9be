"""``tune-tpch``: one caller making cold ``Session.tune`` calls.

Each call gets a fresh ``Session`` (no warm estimator, no cache dir)
over one shared TPC-H database and its ``DatabaseStats``, as a service
context would hold them.  Variant ``dtac-both`` with partial and MV
indexes on (the Fig 11 setting), ``workers=1``.  Requests alternate
between the SELECT-intensive (select:insert weight 10:1) and
INSERT-intensive (1:10) workloads, each at two budgets; the seed picks
which kind comes first and the order of each kind's budgets.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

from benchlib import median, tune_fingerprint
from surfaces import advisor_stats, fold

SCALE = 0.2
QUICK_SCALE = 0.02
#: queries kept (plus the bulk loads) in ``--quick`` smoke runs.
QUICK_QUERIES = 4
#: budgets as fractions of the raw data.  Compression frees more space
#: than the tuned indexes take, so on TPC-H 0.2 the budget binds only
#: for SELECT-intensive tunes: 0.0 (the tightest point of the Figs
#: 12-17 grids) and 0.15 give different configurations, and every
#: budget from 0.0 to 0.15 gives an INSERT-intensive tune the same one.
BUDGETS = (0.0, 0.15)
#: untimed warm-up: an INSERT-intensive tune at a budget no timed
#: request uses.  It pays the lazy row serialization and statistics the
#: first tune of a process would otherwise carry.
WARMUP_BUDGET = 0.5
WEIGHTS = {"select": (10.0, 1.0), "insert": (1.0, 10.0)}


class TuneTPCH:
    NAME = "tune-tpch"
    KINDS = ("select", "insert")

    def __init__(self, harness) -> None:
        self.h = harness
        rng = random.Random(harness.seed)
        self.order = {}
        for kind in self.KINDS:
            budgets = list(BUDGETS)
            rng.shuffle(budgets)
            self.order[kind] = budgets
        self.turn = dict.fromkeys(self.KINDS, 0)
        self.next_kind = rng.choice(self.KINDS)
        #: (kind, budget) -> [(traced, normalized seconds, result)]
        self.results = defaultdict(list)

    def setup(self) -> None:
        from repro.datasets import tpch_database, tpch_workload
        from repro.stats.column_stats import DatabaseStats
        from repro.workload.query import Workload

        scale = QUICK_SCALE if self.h.quick else SCALE
        with self.h.step("datagen"):
            self.db = tpch_database(scale=scale)
            self.workloads = {}
            for kind, (sw, iw) in WEIGHTS.items():
                workload = tpch_workload(self.db, select_weight=sw,
                                         insert_weight=iw)
                if self.h.quick:
                    workload = Workload(workload.queries[:QUICK_QUERIES]
                                        + workload.updates)
                self.workloads[kind] = workload
        with self.h.step("stats"):
            self.stats = DatabaseStats(self.db)
            for table in self.db.tables:
                self.stats.table(table.name)

    def _tune(self, kind: str, budget: float):
        from repro.api import Session

        session = Session(self.db, self.workloads[kind], stats=self.stats,
                          variant="dtac-both", enable_partial=True,
                          enable_mv=True, workers=1)
        return session.tune(budget_fraction=budget)

    def warmup(self) -> None:
        self._tune("insert", WARMUP_BUDGET)

    @staticmethod
    def fingerprint(result) -> str:
        return tune_fingerprint(
            [ix.display_name() for ix in result.configuration],
            result.final_cost,
        )

    def measure(self, deadline: float, min_per_kind: int) -> None:
        """Alternate kinds, each cycling through its budgets, until the
        deadline; an untraced window also runs every request once (so
        ``quality_pct`` always averages the same requests)."""
        done = dict.fromkeys(self.KINDS, 0)
        todo = ({(k, b) for k in self.KINDS for b in BUDGETS}
                if min_per_kind > 1 else set())
        while (time.perf_counter() < deadline or todo
               or min(done.values()) < min_per_kind):
            kind = self.next_kind
            self.next_kind = self.KINDS[1 - self.KINDS.index(kind)]
            budget = self.order[kind][self.turn[kind] % len(BUDGETS)]
            self.turn[kind] += 1
            result = self.h.timed(kind, lambda: self._tune(kind, budget))
            fp = self.fingerprint(result) if result is not None else None
            self.h.checker.check(f"{kind}:{budget}", fp)
            if result is not None:
                self.results[(kind, budget)].append(
                    (self.h.tracer is not None, self.h.ops[-1], result))
            done[kind] += 1
            todo.discard((kind, budget))

    def after(self) -> None:
        pass

    def all_requests(self):
        for kind in self.KINDS:
            for budget in BUDGETS:
                yield (f"{kind}:{budget}",
                       lambda k=kind, b=budget: self.fingerprint(
                           self._tune(k, b)))

    def latency(self, kind: str) -> float:
        """The median per budget, averaged over the budgets, so the
        window's mix of budgets does not move it."""
        medians = [median([op.norm for traced, op, _ in runs if not traced])
                   for (k, _), runs in self.results.items()
                   if k == kind and any(not t for t, _, _ in runs)]
        return sum(medians) / len(medians)

    def quality(self) -> float:
        """Mean improvement % over the distinct requests run untraced
        (each is deterministic)."""
        values = []
        for runs in self.results.values():
            untraced = [r for traced, _, r in runs if not traced]
            if untraced:
                values.append(untraced[0].improvement_pct)
        return sum(values) / len(values)

    def layer_figures(self) -> dict:
        by_kind = defaultdict(list)
        for (kind, _), runs in self.results.items():
            by_kind[kind].extend(advisor_stats(r)
                                 for traced, _, r in runs if traced)
        return fold(by_kind)

    def absent_reason(self, name: str) -> str:
        if name.startswith("sizeest."):
            return ("AdvisorResult does not expose its estimates' sources, "
                    "and this workload makes no estimate_size reads")
        return "this workload makes no service requests or jobs"

    def report(self) -> list[str]:
        h = self.h
        lines = []
        for kind in self.KINDS:
            cpu = [op.cpu for op in h.ops
                   if op.kind == kind and op.ok and not op.traced]
            if not cpu:
                continue
            lines.append(f"tune_{kind}_s = {self.latency(kind):.4f} s "
                         "normalized (mean of the per-budget medians)")
            lines.append(f"tune_{kind}_cpu_s = {median(cpu):.4f} s")
            for (k, budget), runs in sorted(self.results.items()):
                norm = [op.norm for traced, op, _ in runs if not traced]
                if k == kind and norm:
                    lines.append(f"tune_{kind}_s at budget {budget} = "
                                 f"{median(norm):.4f} s normalized "
                                 f"(n={len(norm)})")
        cpu_all = [op.cpu for op in h.ops if op.ok and not op.traced]
        if cpu_all:
            lines.append(f"tune_cpu_s = {median(cpu_all):.4f} s "
                         f"(n={len(cpu_all)})")
        lines.append(f"improvement_pct = {self.quality():.4f} %")
        return lines

    def close(self) -> None:
        pass
