"""``estimate-tpch``: one caller estimating compressed index sizes.

Each operation builds a fresh ``SizeEstimator`` (fresh ``SampleManager``)
and calls ``estimate_many`` on TPC-H's full compressed candidate
population — the table, partial and MV index candidates the advisor
generates for the 22 queries with partial and MV indexes on, under both
compression packages (420 at any scale) — at (e, q) = (0.5, 0.9).
Requests alternate between DTAc's estimator (SampleCF plus deduction)
and the Fig 11 baseline without deduction (SampleCF on every index).
The seed orders the four sampling seeds each kind cycles through.  The
advisor and optimizer are not involved.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter, defaultdict
from pathlib import Path

from benchlib import digest, median

SCALE = 0.5
QUICK_SCALE = 0.05
#: offsets from the program's default sampling seed the requests use.
SEED_OFFSETS = (0, 1, 2, 3)
#: untimed warm-up batch: a sampling seed no timed request uses.  It
#: pays the lazy row serialization the first batch of a process carries
#: (about twice a later batch's time).
WARMUP_OFFSET = 99
DEDUCED = ("colset", "colext")
#: per-checkout cache of the ground-truth sizes (they take about 30 s
#: at scale 0.5 and change only with the program's source).
TRUTH_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"


class EstimateTPCH:
    NAME = "estimate-tpch"
    KINDS = ("dtac", "nodeduction")

    def __init__(self, harness) -> None:
        self.h = harness
        rng = random.Random(harness.seed)
        self.order = {}
        for kind in self.KINDS:
            offsets = list(SEED_OFFSETS)
            rng.shuffle(offsets)
            self.order[kind] = offsets
        self.turn = {kind: 0 for kind in self.KINDS}
        self.next_kind = rng.choice(self.KINDS)
        #: (kind, offset) -> estimated bytes per population member.
        self.estimates: dict[tuple, list[float]] = {}
        self.sources = defaultdict(Counter)   # kind -> traced sources
        self.truth: list[float] | None = None

    def setup(self) -> None:
        from repro.advisor.candidates import (
            CandidateOptions,
            candidate_indexes,
            expand_compression_variants,
        )
        from repro.datasets import tpch_database, tpch_workload
        from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED
        from repro.stats.column_stats import DatabaseStats

        self.base_seed = DEFAULT_SAMPLE_SEED
        scale = QUICK_SCALE if self.h.quick else SCALE
        with self.h.step("datagen"):
            self.db = tpch_database(scale=scale)
            options = CandidateOptions(enable_compression=True,
                                       enable_partial=True, enable_mv=True)
            population = []
            for ws in tpch_workload(self.db).queries:
                population.extend(expand_compression_variants(
                    candidate_indexes(self.db, ws.statement, options), True))
            self.population = [ix for ix in dict.fromkeys(population)
                               if ix.method.is_compressed]
        with self.h.step("stats"):
            self.stats = DatabaseStats(self.db)
            for table in self.db.tables:
                self.stats.table(table.name)

    def _estimate(self, kind: str, offset: int):
        from repro.sampling.sample_manager import SampleManager
        from repro.sizeest.estimator import SizeEstimator

        estimator = SizeEstimator(
            self.db, stats=self.stats,
            manager=SampleManager(self.db, seed=self.base_seed + offset),
            e=0.5, q=0.9, use_deduction=(kind == "dtac"),
        )
        return estimator.estimate_many(self.population)

    def warmup(self) -> None:
        self._estimate("dtac", WARMUP_OFFSET)

    def fingerprint(self, estimates) -> str:
        return digest([repr(estimates[ix].est_bytes)
                       for ix in self.population])

    def measure(self, deadline: float, min_per_kind: int) -> None:
        """Alternate kinds until the deadline, and until every sampling
        seed ran once per kind (so ``quality_pct`` always averages the
        same seeds)."""
        todo = {(k, o) for k in self.KINDS for o in SEED_OFFSETS}
        while time.perf_counter() < deadline or todo:
            kind = self.next_kind
            self.next_kind = self.KINDS[1 - self.KINDS.index(kind)]
            offset = self.order[kind][self.turn[kind] % len(SEED_OFFSETS)]
            self.turn[kind] += 1
            out = self.h.timed(kind, lambda: self._estimate(kind, offset))
            fp = self.fingerprint(out) if out is not None else None
            self.h.checker.check(f"{kind}:{offset}", fp)
            if out is not None:
                self.estimates[(kind, offset)] = [
                    out[ix].est_bytes for ix in self.population]
                if self.h.tracer is not None:
                    self.sources[kind].update(
                        out[ix].source for ix in self.population)
            todo.discard((kind, offset))

    def after(self) -> None:
        """Ground truth for ``size_error_pct``: every candidate built on
        the full data, outside every timer — once per checkout, since
        the result is a function of the source and the data."""
        if self.h.trace:
            return
        from repro.sizeest.estimator import SizeEstimator

        path = TRUTH_DIR / f"truth-{self._truth_key()}.json"
        if path.is_file():
            self.truth = json.loads(path.read_text())
            return
        full = SizeEstimator(self.db, stats=self.stats)
        self.truth = [full.true_size(ix) for ix in self.population]
        TRUTH_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.truth))

    def _truth_key(self) -> str:
        """True sizes depend only on the program's source, the data and
        the population: key the per-checkout cache by all three."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        sources = sorted(
            (str(p.relative_to(src)), p.read_bytes().hex())
            for p in src.rglob("*.py"))
        return digest([sources, self.db.name,
                       [ix.display_name() for ix in self.population]])

    def all_requests(self):
        for kind in self.KINDS:
            for offset in SEED_OFFSETS:
                yield (f"{kind}:{offset}",
                       lambda k=kind, o=offset: self.fingerprint(
                           self._estimate(k, o)))

    def size_error_pct(self) -> float:
        """Mean absolute relative error of DTAc's estimates against the
        true compressed sizes, averaged over the sampling seeds run.
        Candidates whose true size is zero (a partial index no row
        qualifies for, at small scales) have no relative error."""
        errors = []
        for (kind, _), est in self.estimates.items():
            if kind != "dtac":
                continue
            pairs = [(e, t) for e, t in zip(est, self.truth) if t > 0]
            errors.append(100.0 * sum(
                abs(e / t - 1.0) for e, t in pairs) / len(pairs))
        return sum(errors) / len(errors)

    def latency(self, kind: str) -> float:
        return median(self.h.samples(kind))

    def quality(self) -> float:
        return 100.0 - self.size_error_pct()

    def layer_figures(self) -> dict:
        counts = self.sources["dtac"]
        total = sum(counts.values())
        runs = sum(1 for op in self.h.ops if op.traced and op.kind == "dtac")
        return {
            "sizeest.deduced_share": (
                sum(counts[s] for s in DEDUCED) / total if total else 0.0,
                "ratio"),
            "sizeest.estimates.n": (total / runs if runs else 0.0, "count"),
        }

    def absent_reason(self, name: str) -> str:
        if name.startswith("sizeest."):
            return "this workload makes no estimate_size reads"
        return ("this workload runs the size estimator alone: no advisor, "
                "optimizer, service or persistent caches")

    def report(self) -> list[str]:
        lines = (self.h.latency_lines("dtac", "estimate")
                 + self.h.latency_lines("nodeduction",
                                        "estimate_nodeduction"))
        if self.truth is not None:
            lines.append(f"size_error_pct = {self.size_error_pct():.4f} % "
                         f"over {len(self.population)} candidates")
        return lines

    def close(self) -> None:
        pass
