"""``serve-sales``: an in-process ``AdvisorService`` behind its HTTP server.

The service keeps its journal and persistent caches in a temporary
``cache_dir`` inside the checkout, with its default flush policy, and
executes with ``workers=1``.  The load comes from one closed-loop
caller in this process over one ``AdvisorClient`` connection, on two
Sales contexts (scale 0.1, two dataset seeds).  The client shares the
server's event loop: a client thread of its own would add interpreter
lock handoffs to every request that a remote client never causes.

The caller takes turns between two request streams:

* a burst of reads: ``estimate_size`` and ``whatif_cost`` requests drawn
  from a Zipf-skewed population of compressed index specs on context
  ``sales-a``.  The hot head is answered from the shared estimator's
  memory; the first request for a spec runs SampleCF.
* one job on ``sales-b``, awaited to the end: a fixed cycle of a cold
  ``tune``, then ``retune`` jobs stepping through drift phases 1..3
  whose update weights alternate.

Reads and jobs address different contexts, so read latency measures
the serving path, not queueing behind a job on the same lane.  After
the window every job result is checked byte-identical to an in-process
``Session.tune``/``retune`` of the same request.

Traffic parameters (recorded with their basis in ``workloads.json``):
``READ_BURST`` is derived from the p99 rule; ``ZIPF_S`` and
``WHATIF_SHARE`` are assumptions — no traffic source for the advisor
exists to fit them to.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from benchlib import median, tail, tune_fingerprint
from surfaces import fold, job_stats

SCALE = 0.1
QUICK_SCALE = 0.02
SEEDS = {"sales-a": 20090101, "sales-b": 20090102}
READ_CONTEXT, JOB_CONTEXT = "sales-a", "sales-b"
#: Zipf exponent of the read stream (an assumption), and the seed of
#: its fixed ranking.
ZIPF_S = 1.2
RANKING_SEED = 0
#: reads an untraced window completes at least: p99 needs ten samples
#: beyond it.
MIN_READS = 1000
#: reads between two jobs: the smallest burst that reaches MIN_READS
#: within the window, ceil(MIN_READS * job_s / (run_seconds - MIN_READS
#: * read_s)), from the measured mean job (1.37 s) and read (3.1 ms) at
#: run_seconds 20.
READ_BURST = 82
#: share of reads that are ``whatif_cost`` (an assumption).
WHATIF_SHARE = 0.3
BUDGET = 0.15
#: untimed warm-up job (a budget the cycle never uses).
WARMUP_BUDGET = 0.3
DRIFT = {"seed": 7, "hot_fraction": 0.2, "hot_weight": 20.0,
         "cold_weight": 0.01, "update_weights": [1.0, 6.0]}
#: job cycle: position 0 is a cold tune, positions 1..3 retune through
#: drift phases 1..3 carrying the previous configuration forward.
CYCLE = 4
TMP_ROOT = Path(__file__).resolve().parent.parent / ".bench_build"


def _job_payload(position: int) -> tuple[str, dict]:
    if position == 0:
        return "tune", {"budget_fraction": BUDGET}
    return "retune", {"budget_fraction": BUDGET,
                      "drift": {"phase": position, **DRIFT}}


class ServeSales:
    NAME = "serve-sales"
    KINDS = ("read", "job")

    def __init__(self, harness) -> None:
        self.h = harness
        self.rng = random.Random(harness.seed)
        self.loop = None
        self.http = None
        self.tmp = None
        self.position = 0
        self.jobs = []          # (position, traced, snapshot, op)
        self.read_log = []      # (traced, kind, miss, op)
        self.traced_stats = None  # AdvisorService.stats() around the traced half
        self.estimated = set()  # spec names the shared estimator has seen

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.datasets.sales import sales_database, sales_workload
        from repro.stats.column_stats import DatabaseStats

        scale = QUICK_SCALE if self.h.quick else SCALE
        with self.h.step("datagen"):
            self.dbs = {name: sales_database(scale=scale, seed=seed)
                        for name, seed in SEEDS.items()}
            self.workloads = {name: sales_workload(db)
                              for name, db in self.dbs.items()}
            self.population = self._population()
        with self.h.step("stats"):
            self.stats = {}
            for name, db in self.dbs.items():
                stats = DatabaseStats(db)
                for table in db.tables:
                    stats.table(table.name)
                self.stats[name] = stats
        TMP_ROOT.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT)
        self.loop = asyncio.new_event_loop()
        self.port = self.loop.run_until_complete(self._start_server())
        self.stream = self._read_stream()

    async def _start_server(self) -> int:
        from repro.service import AdvisorService
        from repro.service.http import ServiceHTTPServer

        self.service = AdvisorService(workers=1, cache_dir=self.tmp)
        for name, db in self.dbs.items():
            self.service.register(name, db, self.workloads[name],
                                  stats=self.stats[name])
        self.http = ServiceHTTPServer(self.service, port=0)
        await self.http.start()
        return self.http.port

    def _population(self) -> list[tuple]:
        """Read requests: ``(key, kind, spec name, payload)``."""
        from repro.advisor.candidates import (
            CandidateOptions,
            candidate_indexes,
            expand_compression_variants,
        )
        from repro.service.context import index_to_spec

        db = self.dbs[READ_CONTEXT]
        workload = self.workloads[READ_CONTEXT]
        options = CandidateOptions(enable_compression=True)
        estimates, whatifs = {}, []
        for si, ws in enumerate(workload.statements):
            if not ws.statement.is_select:
                continue
            found = [ix for ix in expand_compression_variants(
                candidate_indexes(db, ws.statement, options), True)
                if ix.method.is_compressed]
            for ix in found:
                spec = index_to_spec(ix)
                name = spec.pop("display_name")
                estimates.setdefault(name, spec)
            for ix in found[:2]:
                spec = index_to_spec(ix)
                name = spec.pop("display_name")
                whatifs.append((si, name, spec))
        population = [(f"estimate:{name}", "estimate_size", name,
                       {"index": spec})
                      for name, spec in sorted(estimates.items())]
        population += [(f"whatif:{si}:{name}", "whatif_cost", name,
                        {"statement_index": si, "indexes": [spec]})
                       for si, name, spec in whatifs]
        return population

    def _read_stream(self):
        """Seeded Zipf draws: ``WHATIF_SHARE`` of them over the
        ``whatif_cost`` requests, the rest over ``estimate_size``.  The
        popularity ranking is one fixed shuffle, so every seed has the
        same hot head (the seed drives the draws, not which requests
        are hot: a hot head of costlier statements would move the
        median by itself)."""
        by_kind = defaultdict(list)
        for item in self.population:
            by_kind[item[1]].append(item)
        ranked = {}
        for kind, items in sorted(by_kind.items()):
            items = list(items)
            random.Random(RANKING_SEED).shuffle(items)
            weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(items))]
            ranked[kind] = (items, weights)
        while True:
            kind = ("whatif_cost" if self.rng.random() < WHATIF_SHARE
                    else "estimate_size")
            items, weights = ranked[kind]
            yield self.rng.choices(items, weights)[0]

    def warmup(self) -> None:
        """One read and one job, untimed: lazily serialized rows and
        statistics of both contexts, and the first HTTP round trips."""
        self.loop.run_until_complete(self._warmup())

    async def _warmup(self) -> None:
        from repro.service.client import AdvisorClient

        client = AdvisorClient(port=self.port, retries=0)
        key, kind, name, payload = self.population[0]
        await self._read(client, kind, payload)
        self.estimated.add(name)
        record = await client.submit_job(JOB_CONTEXT, kind="tune",
                                         budget_fraction=WARMUP_BUDGET)
        done = await client.wait_job(record["id"])
        if done["state"] != "done":
            raise RuntimeError(f"warm-up job {done['state']}: "
                               f"{done.get('error')}")

    # ------------------------------------------------------------------
    # the measured window
    # ------------------------------------------------------------------
    @staticmethod
    async def _read(client, kind, payload) -> dict:
        if kind == "estimate_size":
            return await client.estimate_size(READ_CONTEXT, **payload)
        return await client.whatif_cost(READ_CONTEXT, **payload)

    @staticmethod
    def read_fingerprint(kind: str, answer: dict) -> str:
        field = "est_bytes" if kind == "estimate_size" else "total"
        return repr(answer[field])

    @staticmethod
    def job_fingerprint(snapshot: dict) -> str:
        result = snapshot["result"]["result"]
        return tune_fingerprint(result["configuration"],
                                result["final_cost"])

    def measure(self, deadline: float, min_per_kind: int) -> None:
        """Until the deadline; an untraced window also completes at
        least one whole job cycle (so ``quality_pct`` always averages
        the same jobs) and ``MIN_READS`` reads (so p99 exists)."""
        full = min_per_kind > 1
        traced = self.h.tracer is not None
        before = self.service.stats() if traced else None
        self.loop.run_until_complete(self._window(
            deadline, CYCLE if full else 1, MIN_READS if full else 1))
        if traced:
            self.traced_stats = (before, self.service.stats())

    async def _window(self, deadline: float, min_jobs: int,
                      min_reads: int) -> None:
        """The caller takes turns: a burst of reads, then one job.
        Reads sent while a job runs would wait on the interpreter lock
        the job's lane thread holds at every await of the HTTP path;
        their median then swung between 12 ms and 200 ms from run to
        run, which no bound can gate."""
        from repro.service.client import AdvisorClient

        client = AdvisorClient(port=self.port, retries=0)
        jobs = reads = 0
        while (time.perf_counter() < deadline or jobs < min_jobs
               or reads < min_reads):
            for _ in range(READ_BURST):
                await self._one_read(client)
            reads += READ_BURST
            await self._one_job(client)
            jobs += 1

    async def _one_read(self, client) -> None:
        h = self.h
        key, kind, name, payload = next(self.stream)
        miss = name not in self.estimated
        answer = await h.timed_async(
            "read", lambda: self._read(client, kind, payload))
        fp = (self.read_fingerprint(kind, answer)
              if answer is not None else None)
        h.checker.check(key, fp)
        self.estimated.add(name)
        self.read_log.append((h.tracer is not None, kind, miss, h.ops[-1]))

    async def _one_job(self, client) -> None:
        h = self.h
        position = self.position
        self.position = (position + 1) % CYCLE
        kind, payload = _job_payload(position)

        async def run_job():
            record = await client.submit_job(JOB_CONTEXT, kind=kind,
                                             **payload)
            return await client.wait_job(record["id"])

        snapshot = await h.timed_async("job", run_job)
        ok = snapshot is not None and snapshot["state"] == "done"
        if snapshot is not None and not ok:
            h.checker.problems.append(
                f"job {position}: {snapshot['state']} "
                f"{snapshot.get('error')}")
        h.checker.check(f"job:{position}",
                        self.job_fingerprint(snapshot) if ok else None)
        if ok:
            self.jobs.append((position, h.tracer is not None, snapshot,
                              h.ops[-1]))

    # ------------------------------------------------------------------
    # after the window
    # ------------------------------------------------------------------
    def after(self) -> None:
        """Byte identity of every job result with an in-process
        ``Session`` run of the same request (untimed)."""
        references = {}
        for position, _, snapshot, _ in self.jobs:
            expected = json.dumps(snapshot["result"]["result"],
                                  sort_keys=True)
            key = (position, json.dumps(snapshot["payload"],
                                        sort_keys=True))
            if key not in references:
                references[key] = json.dumps(
                    self._reference(snapshot["payload"], position),
                    sort_keys=True)
            if references[key] != expected:
                self.h.checker.fail(
                    f"job {snapshot['id']} (cycle position {position}) "
                    "differs from the in-process Session run")

    def _reference(self, payload: dict, position: int) -> dict:
        from repro.advisor.advisor import default_base_configuration
        from repro.api import Session
        from repro.service.context import parse_index_spec, serialize_result
        from repro.workload.drift import DriftSpec, drift_phase

        db = self.dbs[JOB_CONTEXT]
        workload = self.workloads[JOB_CONTEXT]
        stats = self.stats[JOB_CONTEXT]
        if position == 0:
            result = Session(db, workload, stats=stats).tune(
                budget_fraction=payload["budget_fraction"])
            return serialize_result(result)["result"]
        drift = dict(payload["drift"])
        phase = drift.pop("phase")
        previous = default_base_configuration(db)
        for spec in payload["from_config"]:
            previous = previous.add(parse_index_spec(db, spec))
        session = Session(db, drift_phase(workload,
                                          DriftSpec.from_dict(drift), phase),
                          stats=stats, configuration=previous)
        out = session.retune(budget_fraction=payload["budget_fraction"])
        return serialize_result(out.result)["result"]

    def all_requests(self):
        for key, kind, name, payload in self.population:
            yield key, (lambda k=kind, p=payload: self._direct_read(k, p))
        for position in range(CYCLE):
            yield (f"job:{position}",
                   lambda pos=position: self._direct_job(pos))

    def _direct_read(self, kind: str, payload: dict) -> str:
        context = self.service.contexts[READ_CONTEXT]
        if kind == "estimate_size":
            return self.read_fingerprint(
                kind, context.run_estimate_size(payload))
        return self.read_fingerprint(kind, context.run_whatif_cost(payload))

    def _direct_job(self, position: int) -> str:
        kind, payload = _job_payload(position)
        if position:
            payload["from_config"] = self._carried
        result = self._reference(payload, position)
        configured = result["configuration"]
        self._carried = result["indexes"]
        return tune_fingerprint(configured, result["final_cost"])

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------
    def latency(self, kind: str) -> float:
        """Reads: the median.  Jobs: the median per cycle position,
        averaged over the cycle — a cold tune and the retunes differ in
        cost, so a plain median would move with how many of each the
        window happened to hold."""
        if kind == "read":
            return median(self.h.samples("read"))
        by_position = defaultdict(list)
        for position, traced, _, op in self.jobs:
            if not traced:
                by_position[position].append(op.norm)
        return sum(median(v) for v in by_position.values()) / len(by_position)

    def quality(self) -> float:
        by_position = defaultdict(list)
        for position, traced, snapshot, _ in self.jobs:
            if not traced:
                by_position[position].append(
                    100.0 * snapshot["result"]["result"]["improvement"])
        means = [sum(v) / len(v) for v in by_position.values()]
        return sum(means) / len(means)

    def miss_share(self) -> float:
        """Untraced ``estimate_size`` reads that were the first request
        for their spec (and so ran SampleCF)."""
        reads = [miss for traced, kind, miss, _ in self.read_log
                 if not traced and kind == "estimate_size"]
        return sum(reads) / len(reads) if reads else 0.0

    def layer_figures(self) -> dict:
        tracer = self.h.tracer
        spans = [s for s in tracer.spans if s.end is not None]
        ops = {s.id: s for s in spans if s.name == "op"}
        request = {}
        for s in spans:
            if s.name == "service.request" and s.parent in ops:
                request[s.parent] = s
        by_kind = defaultdict(list)
        http = []
        for op_id, s in request.items():
            by_kind[s.tag].append(s.end - s.start)
            op = ops[op_id]
            http.append((op.end - op.start) - (s.end - s.start))
        samplecf_ops = {s.op for s in spans if s.name == "sizeest.samplecf"}
        size_reads = [op_id for op_id, s in request.items()
                      if s.tag == "estimate_size"]
        missed = sum(1 for op_id in size_reads if op_id in samplecf_ops)
        traced_jobs = [snap for _, traced, snap, _ in self.jobs if traced]
        journal = [s for s in spans if s.name == "service.journal.append"
                   and not s.nested]
        n_jobs = max(1, len(traced_jobs))
        out = {
            "service.request.estimate_size.s": (
                _mean(by_kind["estimate_size"]), "s"),
            "service.request.whatif_cost.s": (
                _mean(by_kind["whatif_cost"]), "s"),
            "service.http.s": (_mean(http), "s"),
            "service.job.queue_s": (_mean(
                [j["started"] - j["created"] for j in traced_jobs]), "s"),
            "service.job.exec_s": (_mean(
                [j["finished"] - j["started"] for j in traced_jobs]), "s"),
            "service.journal.append.s": (
                sum(s.end - s.start for s in journal) / n_jobs, "s"),
            "service.journal.append.n": (len(journal) / n_jobs, "count"),
            "sizeest.read_miss_share": (
                missed / len(size_reads) if size_reads else 0.0, "ratio"),
            "sizeest.size_reads.n": (len(size_reads), "count"),
        }
        before, after = self.traced_stats
        requests = sum(after["requests"].values()) - sum(
            before["requests"].values())
        coalesced = sum(after["coalesced"].values()) - sum(
            before["coalesced"].values())
        out["service.requests.n"] = (requests, "count")
        out["service.coalesced_share"] = (
            coalesced / requests if requests else 0.0, "ratio")
        out["service.rejected.n"] = (
            after["rejected"] - before["rejected"], "count")
        folded = fold({"job": [job_stats(snap["result"])
                               for snap in traced_jobs]})
        for name in ("optimizer.recosts.n", "optimizer.kernel.batches.n",
                     "optimizer.kernel.numpy_batch_share"):
            folded.pop(name)   # not on the service's result surface
        out.update(folded)
        return out

    def absent_reason(self, name: str) -> str:
        if name.startswith(("optimizer.recosts", "optimizer.kernel")):
            return ("job results do not carry optimizer_calls or "
                    "kernel_stats")
        return ("job results do not expose their estimates' sources; "
                "see estimate-tpch")

    def report(self) -> list[str]:
        h = self.h
        reads = h.samples("read")
        lines = []
        if reads:
            lines.append(f"read_p50_ms = {1000 * median(reads):.4f} ms "
                         f"normalized ({1000 * median(h.raw_samples('read')):.4f}"
                         f" ms wall, n={len(reads)})")
            found = tail(reads)
            if found is not None:
                lines.append(f"read_p{found[0]:.2f}_ms = "
                             f"{1000 * found[1]:.4f} ms normalized "
                             f"(p99 needs >= 1000 reads)")
            untraced = [op for op in h.ops if not op.traced]
            window = untraced[-1].t1 - untraced[0].t0
            lines.append(f"reads_per_s = {len(reads) / window:.2f} 1/s "
                         "(over the window, the jobs' turns included)")
            lines.append(f"read_miss_share = {self.miss_share():.4f} "
                         "ratio (estimate_size reads that were first "
                         "requests for their spec)")
            for label, want in (("hit", False), ("miss", True)):
                norm = [op.norm for traced, _, miss, op in self.read_log
                        if not traced and miss == want and op.ok]
                if norm:
                    lines.append(f"read_{label}_p50_ms = "
                                 f"{1000 * median(norm):.4f} ms (n={len(norm)})")
        jobs = h.samples("job")
        if jobs:
            lines.append(f"job_s = {self.latency('job'):.4f} s normalized "
                         f"(n={len(jobs)})")
        if any(not traced for _, traced, _, _ in self.jobs):
            lines.append(f"improvement_pct = {self.quality():.4f} %")
        return lines

    def close(self) -> None:
        if self.loop is not None:
            try:
                if self.http is not None:
                    self.loop.run_until_complete(self.http.stop())
            finally:
                self.loop.close()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
