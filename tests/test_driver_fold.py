"""The one guarded driver fold (``aggregates.merge_partials``) and the one
row collect (``functions.util.collect_table_under``), driven with
in-memory batches — no Ray session."""

import pyarrow as pa
import pyarrow.compute as pc

from timberjack_ray import aggregates as agg
from timberjack_ray.functions.util import collect_table_under


class _Batches:
    """The Dataset methods the fold and the collect use, over tables."""

    def __init__(self, tables, schema=None):
        self.tables = tables
        self._schema = schema

    def iter_batches(self, batch_size=None, batch_format="pyarrow"):
        return iter(self.tables)

    def schema(self):
        return self._schema


def _kv(keys, *cols):
    return pa.table({"k": pa.array(keys, pa.string()),
                     **{f"c{i}": pa.array(c, pa.int64())
                        for i, c in enumerate(cols)}})


def _rows(t):
    return sorted(zip(*t.to_pydict().values()))


def test_fold_ops_sum_min_max_across_compactions():
    # more than COMPACT_EVERY batches, so the fold re-compacts mid-stream
    batches = [_kv(["a", "b"], [1, 2], [10 - i, 5], [i, 0])
               for i in range(agg.COMPACT_EVERY + 6)]
    out = agg.merge_partials(_Batches(batches), ["k"], ["c0", "c1", "c2"],
                             ops=["sum", "min", "max"])
    n = len(batches)
    assert _rows(out) == [("a", n, 10 - (n - 1), n - 1), ("b", 2 * n, 5, 0)]


def test_fold_line_order_kind_merges_with_min():
    b1 = pa.table({"kind": ["line", "line@", "line@"], "key": ["x", "x", "y"],
                   "n": pa.array([2, 7, 3], pa.int64())})
    b2 = pa.table({"kind": ["line", "line@"], "key": ["x", "x"],
                   "n": pa.array([1, 4], pa.int64())})
    out = agg.merge_partials(_Batches([b1, b2]), ["kind", "key"], "n")
    assert _rows(out) == [("line", "x", 3), ("line@", "x", 4),
                          ("line@", "y", 3)]


def test_fold_hook_keeps_rows_in_the_exact_fold():
    """Past the limit the hook sees the compacted table once, then every
    later batch; the rows it returns stay exact."""
    seen = []

    def drop_b(t):
        seen.append(t.num_rows)
        return t.filter(pc.not_equal(t["k"], "b"))

    batches = [_kv(["a", "b", f"u{i}"], [1, 1, 1])
               for i in range(agg.COMPACT_EVERY + 2)]
    out = agg.merge_partials(_Batches(batches), ["k"], "c0",
                             limit=10, degrade=drop_b)
    # the first compaction (66 keys) trips the limit; two batches follow
    assert seen == [agg.COMPACT_EVERY + 2, 3, 3]
    got = dict(zip(out["k"].to_pylist(), out["c0"].to_pylist()))
    assert "b" not in got
    assert got["a"] == agg.COMPACT_EVERY + 2
    assert len(got) == 1 + agg.COMPACT_EVERY + 2


def test_fold_hook_stops_the_fold():
    calls = []

    def stop(t):
        calls.append(t.num_rows)
        return None

    batches = [_kv([f"u{i}"], [1]) for i in range(5)]
    assert agg.merge_partials(_Batches(batches), ["k"], "c0",
                              limit=4, degrade=stop) is None
    assert calls == [5]
    # at the limit the fold stays exact and never calls the hook
    out = agg.merge_partials(_Batches(batches), ["k"], "c0",
                             limit=5, degrade=stop)
    assert out.num_rows == 5 and calls == [5]


def test_fold_msg_guard_degrades_one_kind():
    msg = pa.table({"kind": ["msg#"] * 3 + ["level"],
                    "key": [format(i, "016x") for i in range(3)] + ["INFO"],
                    "n": pa.array([1, 1, 1, 4], pa.int64())})
    out = agg.merge_partials(_Batches([msg]), ["kind", "key"], "n",
                             guard=(agg.KIND_MSG_HASH, 2))
    assert out.column_names == ["kind", "key", "n"]
    kinds = out["kind"].to_pylist()
    assert sorted(kinds) == ["level", agg.KIND_MSG_SKETCH]
    exact = agg.merge_partials(_Batches([msg]), ["kind", "key"], "n",
                               guard=(agg.KIND_MSG_HASH, 3))
    assert exact.num_rows == 4


def test_fold_typed_empty_result():
    # no batches at all: string keys, int64 values
    out = agg.merge_partials(_Batches([]), ["k"], ["c0", "c1"],
                             ops=["sum", "min"])
    assert out.num_rows == 0
    assert out.schema == pa.schema([("k", pa.string()), ("c0", pa.int64()),
                                    ("c1", pa.int64())])
    # only empty batches: their schema, sum promoted like a real fold
    empty = pa.table({"k": pa.array([], pa.int32()),
                      "v": pa.array([], pa.int32())})
    out = agg.merge_partials(_Batches([empty]), ["k"], "v")
    assert out.num_rows == 0
    assert out.schema == pa.schema([("k", pa.int32()), ("v", pa.int64())])
    # the distinct fold (no value columns)
    out = agg.merge_partials(_Batches([]), ["k", "d"], [])
    assert out.column_names == ["k", "d"] and out.num_rows == 0


def test_merge_counts_guarded_degrades_through_the_hook():
    batches = [_kv([f"w{i}" for i in range(40)] + ["hot"], [1] * 40 + [9])
               for _ in range(3)]
    exact = agg.merge_counts_guarded(_Batches(batches), "k", "c0")
    assert exact.mode == "exact"
    assert exact.top_k(1)["c0"].tolist() == [27]
    cms = agg.merge_counts_guarded(_Batches(batches), "k", "c0", limit=20)
    assert cms.mode == "cms" and cms.table is None
    top = cms.top_k(1)
    assert top["k"].tolist() == ["hot"] and top["c0"].tolist()[0] >= 27


def test_collect_table_under_contract():
    schema = pa.schema([("k", pa.string()), ("v", pa.int64())])
    # empty: the Dataset schema, else zero columns
    out = collect_table_under(_Batches([], schema=schema), 0)
    assert out.num_rows == 0 and out.schema == schema
    assert collect_table_under(_Batches([]), 10).num_columns == 0
    # empty batches carry their own schema
    out = collect_table_under(_Batches([schema.empty_table()]), 0)
    assert out.schema == schema
    # limit rows fit; limit + 1 rows are None
    t = pa.table({"k": ["a", "b", "c"], "v": pa.array([1, 2, 3], pa.int64())})
    assert collect_table_under(_Batches([t.slice(0, 2), t.slice(2)]), 3) \
        .equals(t)
    assert collect_table_under(_Batches([t.slice(0, 2), t.slice(2)]), 2) \
        is None
