"""Counters the program already exposes on its result surfaces, folded
into per-layer figures: ``AdvisorResult`` (``delta_stats``,
``kernel_stats``, ``engine_stats``, ``optimizer_calls``, ``cache_stats``,
``cost_cache_stats``, ``pool_size``) and the ``meta`` section of a
service job's result.  Every ratio comes with its base."""

from __future__ import annotations

from collections import defaultdict


def advisor_stats(result) -> dict:
    """The counter sections of an ``AdvisorResult`` as one dict."""
    return {
        "delta_stats": result.delta_stats,
        "kernel_stats": result.kernel_stats,
        "engine_stats": result.engine_stats,
        "cache_stats": result.cache_stats,
        "cost_cache_stats": result.cost_cache_stats,
        "optimizer_calls": result.optimizer_calls,
        "pool_size": result.pool_size,
    }


def job_stats(job_result: dict) -> dict:
    """The same sections from a serialized job result (the service
    exposes no kernel counters or optimizer-call count)."""
    meta = job_result.get("meta", {})
    return {
        "delta_stats": meta.get("delta_stats", {}),
        "engine_stats": meta.get("engine_stats", {}),
        "cache_stats": meta.get("cache_stats", {}),
        "cost_cache_stats": meta.get("cost_cache_stats", {}),
        "pool_size": job_result.get("result", {}).get("pool_size"),
    }


def _ratio(hits: float, base: float) -> float:
    return hits / base if base else 0.0


def fold(runs_by_kind: dict) -> dict:
    """Per-layer figures from ``{kind: [stats dict, ...]}``.

    Counts are per round (the mean per run of each kind, summed over
    kinds); ratios pool every run and report their base (per round
    too)."""
    per_round = defaultdict(float)
    pooled = defaultdict(float)
    for runs in runs_by_kind.values():
        if not runs:
            continue
        sums = defaultdict(float)
        for stats in runs:
            delta = stats.get("delta_stats") or {}
            kernel = stats.get("kernel_stats") or {}
            engine = stats.get("engine_stats") or {}
            est = stats.get("cache_stats") or {}
            cost = stats.get("cost_cache_stats") or {}
            lookups = sum(delta.get(k, 0) for k in (
                "memo_hits", "reused_terms", "patched_terms",
                "patched_maintenance", "full_recosts"))
            batches = (kernel.get("batches_numpy", 0)
                       + kernel.get("batches_scalar", 0))
            values = {
                "recosts": stats.get("optimizer_calls") or 0,
                "pool": stats.get("pool_size") or 0,
                "memo_hits": delta.get("memo_hits", 0),
                "term_lookups": lookups,
                "numpy_batches": kernel.get("batches_numpy", 0),
                "batches": batches,
                "pools_forked": engine.get("pools_forked", 0),
                "est_hits": est.get("hits", 0),
                "est_lookups": est.get("hits", 0) + est.get("misses", 0),
                "cost_hits": cost.get("hits", 0),
                "cost_lookups": cost.get("hits", 0) + cost.get("misses", 0),
            }
            for key, value in values.items():
                sums[key] += value
                pooled[key] += value
        for key, value in sums.items():
            per_round[key] += value / len(runs)
    return {
        "optimizer.recosts.n": (per_round["recosts"], "count"),
        "advisor.pool.n": (per_round["pool"], "count"),
        "optimizer.delta.memo_hit_ratio": (
            _ratio(pooled["memo_hits"], pooled["term_lookups"]), "ratio"),
        "optimizer.delta.term_lookups.n": (
            per_round["term_lookups"], "count"),
        "optimizer.kernel.numpy_batch_share": (
            _ratio(pooled["numpy_batches"], pooled["batches"]), "ratio"),
        "optimizer.kernel.batches.n": (per_round["batches"], "count"),
        "parallel.pools_forked.n": (per_round["pools_forked"], "count"),
        "cache.estimates.hit_ratio": (
            _ratio(pooled["est_hits"], pooled["est_lookups"]), "ratio"),
        "cache.estimates.lookups.n": (per_round["est_lookups"], "count"),
        "cache.costs.hit_ratio": (
            _ratio(pooled["cost_hits"], pooled["cost_lookups"]), "ratio"),
        "cache.costs.lookups.n": (per_round["cost_lookups"], "count"),
    }
