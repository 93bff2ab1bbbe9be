"""Regression tests for the what-if cost cache signature.

The cache key must distinguish hypothetical configurations that differ
*only* in compression method — aliasing them would let e.g. a PAGE
variant replay a NONE variant's cached cost, silently hiding the
decompression CPU and compressed-size I/O differences the whole paper
is about.  Also covers the batched costing APIs.
"""

import pytest

from repro.compression import CompressionMethod
from repro.optimizer import WhatIfOptimizer
from repro.physical import Configuration, IndexDef
from repro.storage import IndexKind
from repro.workload import parse_query


@pytest.fixture()
def query():
    q = parse_query(
        "SELECT f_qty FROM fact WHERE f_cat = 'CAT_3'"
    )
    return q


@pytest.fixture()
def whatif(small_db, small_stats):
    # Wire sizes that shrink with compression so method changes move
    # both I/O and CPU terms.
    fractions = {
        CompressionMethod.NONE: 1.0,
        CompressionMethod.ROW: 0.6,
        CompressionMethod.PAGE: 0.35,
    }

    def sizes(index):
        rows = small_db.table(index.table).num_rows
        width = 8 * max(1, len(index.column_sequence))
        return (rows * width * fractions[index.method], float(rows))

    return WhatIfOptimizer(small_db, small_stats, sizes=sizes)


def _base(db):
    return Configuration(
        IndexDef(t.name, (), kind=IndexKind.HEAP) for t in db.tables
    )


class TestMethodNeverAliases:
    def test_distinct_cache_entries_per_method(self, small_db, whatif, query):
        base = _base(small_db)
        configs = [
            base.add(
                IndexDef(
                    "fact", ("f_cat",), included_columns=("f_qty",),
                    method=method,
                )
            )
            for method in (CompressionMethod.NONE, CompressionMethod.ROW,
                           CompressionMethod.PAGE)
        ]
        signatures = {whatif._signature(query, c) for c in configs}
        assert len(signatures) == len(configs)

        costs = [whatif.cost(query, c).total for c in configs]
        # One fresh computation (and one fresh entry) per method.
        assert whatif.optimizer_calls == len(configs)
        assert whatif.cache_entries == len(configs)
        # Covering-index scan: smaller compressed footprint, extra
        # decompression CPU — the totals must genuinely differ.
        assert len(set(costs)) == len(costs)

    def test_base_structure_method_not_aliased(self, small_db, whatif, query):
        heap = IndexDef("fact", (), kind=IndexKind.HEAP)
        for method in (CompressionMethod.NONE, CompressionMethod.ROW,
                       CompressionMethod.PAGE):
            whatif.cost(query, _base(small_db).add(heap.with_method(method)))
        assert whatif.optimizer_calls == 3

    def test_repeat_lookup_hits(self, small_db, whatif, query):
        config = _base(small_db).add(
            IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE)
        )
        first = whatif.cost(query, config)
        again = whatif.cost(query, config)
        assert again is first
        assert whatif.optimizer_calls == 1


class TestBatchedAPIs:
    def test_cost_batch_matches_singles(self, small_db, whatif, query):
        base = _base(small_db)
        configs = [
            base,
            base.add(IndexDef("fact", ("f_cat",),
                              method=CompressionMethod.ROW)),
            base.add(IndexDef("fact", ("f_cat",),
                              method=CompressionMethod.PAGE)),
        ]
        batched = whatif.cost_batch(query, configs)
        assert [b.total for b in batched] == [
            whatif.cost(query, c).total for c in configs
        ]

    def test_workload_cost_batch_matches_singles(self, small_db, small_stats):
        from repro.workload import Workload

        wl = Workload()
        wl.add(parse_query("SELECT f_qty FROM fact WHERE f_cat = 'CAT_1'"))
        wl.add(parse_query("SELECT f_price FROM fact WHERE f_day > 100"))
        whatif = WhatIfOptimizer(small_db, small_stats)
        base = _base(small_db)
        configs = [
            base,
            base.add(IndexDef("fact", ("f_day",),
                              method=CompressionMethod.ROW)),
        ]
        batch = whatif.workload_cost_batch(wl, configs)
        assert batch == [whatif.workload_cost(wl, c) for c in configs]
