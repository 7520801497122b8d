"""Driver-side aggregates — the reference's AnalysisResult monoid, re-expressed
as partial counts per batch plus one streaming driver fold.

The reference computes per-chunk hashmap counters merged at the end
(src/analyzer.rs:292-359, merge :510-549).  A naive
``ds.groupby(key).count()`` would shuffle every row, and even a Ray
aggregate over the tiny partials pays a multi-second all-to-all.  Instead:

1. ``map_batches`` emits ONE partial-count table per batch covering ALL
   aggregate families at once — rows ``(kind, key, n)`` where ``kind`` ∈
   {total, level, trend, error, msg, line} (pyarrow ``Table.group_by`` per
   batch, pure C).
2. ``merge_partials`` — the one guarded driver fold — streams the partials
   to the driver and re-compacts them with pyarrow ``group_by`` every
   ``COMPACT_EVERY`` tables, so driver memory is ~O(distinct keys).

So the full report costs ONE pass over the data and a driver merge whose
volume is ~(distinct keys × batches), not rows.  Only the ``line``/``msg``
families have high cardinality; they are skipped unless requested, and the
msg# family degrades to a HyperLogLog past ``MSG_GUARD_LIMIT``.  Results
whose key count is not bounded by construction use the fold's limit and
degrade hook (``merge_partials_or_ds``, ``merge_counts_guarded``); past the
limit they move to the bucket exchange (``grouped_aggregate_ds``) or a
sketch.

Per-key results that cannot be partially merged (sessions, joins,
co-groups) go through the one bucket exchange, ``bucket_exchange``: each
row gets the bucket ``bucket_ids`` of its key tuple (splitmix64 on integer
keys with one null hash, ``pd.util.hash_array`` on any other type), and
one sort on that bucket co-locates every row of a key, the way the
reference's merge brings every occurrence of a key together.  The exchange
function then runs once per shuffled block on whole buckets, so its
per-call cost is paid per block, not per bucket (the vectorized-UDF
argument of *Accelerating Python UDFs in Vectorized Query Execution*,
CIDR 2022).  Inputs of different schemas (the two sides of a join)
co-group through ``bucket_cogroup``, which carries each bucket's rows as
typed Arrow slices over that same exchange.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

KIND_TOTAL = "total"
KIND_LEVEL = "level"
KIND_TREND = "trend"
KIND_ERROR = "error"
KIND_MSG = "msg"
KIND_MSG_HASH = "msg#"
KIND_MSG_SKETCH = "msg~"  # degraded family: key = base64 HLL registers, n = 0
KIND_LINE = "line"
KIND_LINE_ORDER = "line@"  # n = MIN global row order of the line (first-seen);
                           # merged with min, not sum

# Distinct msg# keys the driver fold will hold exactly before auto-degrading
# to a HyperLogLog sketch (VERDICT r01 #4: with mostly-unique messages the
# partial volume approaches 16 B x rows; the guard bounds driver memory at
# ~limit x 16 B and the count becomes approximate past it).
MSG_GUARD_LIMIT = 5_000_000

# Distinct keys any OTHER driver fold (word counts, doc frequency, distinct
# pairs, per-key session rows) holds exactly before auto-degrading to its
# sketch / distributed path (VERDICT r02 #2: on web text these families are
# billions of keys — URLs, typos, numbers — and an unguarded fold is a
# driver OOM).
FOLD_GUARD_LIMIT = 5_000_000

# Partial tables a driver fold buffers before re-compacting them into one,
# so its memory stays ~O(distinct keys).
COMPACT_EVERY = 64


def _hex_to_u64(keys: list[str]):
    """Vectorized parse of 16-hex-char msg# keys to uint64 (big-endian)."""

    if not keys:
        return np.zeros(0, dtype=np.uint64)
    return np.frombuffer(bytes.fromhex("".join(keys)), dtype=">u8").astype(np.uint64)


def _count_keys(col: pa.ChunkedArray, drop_null: bool) -> tuple[list, list]:
    """(keys, counts) of a string column, vectorized via pa group_by."""
    t = pa.table({"k": col})
    if drop_null:
        t = t.filter(pc.is_valid(t["k"]))
    if t.num_rows == 0:
        return [], []
    g = t.group_by("k").aggregate([([], "count_all")])
    return g["k"].to_pylist(), g["count_all"].to_pylist()


def _hash_keys(keys: list) -> list[str]:
    """64-bit stable hashes (hex) of distinct keys.  The unique-message
    family only feeds a COUNT (A6) unless --show-unique: shipping every
    distinct message string through the partials merge moved ~70 B/key where
    16 B/key suffices, and at bench scale the msg family IS the partial
    volume.  Collision odds at 1M keys are ~3e-8 — and the distinct count is
    the only consumer."""
    import pandas as pd

    arr = np.array(["\0" if k is None else k for k in keys], dtype=object)
    return [format(h, "016x") for h in pd.util.hash_array(arr)]


class PartialCounts:
    """Per-batch partial aggregation; emits (kind, key, n) rows."""

    def __init__(
        self,
        want_trend: bool = False,
        want_stats: bool = False,
        want_lines: bool = False,
        extra_cols: list[str] | None = None,
        hash_msgs: bool = True,
        order_from: str | None = None,
    ):
        self.want_trend = want_trend
        self.want_stats = want_stats
        self.want_lines = want_lines
        self.extra_cols = extra_cols or []  # e.g. ["source", "severity"] → kind "col:source"
        self.hash_msgs = hash_msgs  # False when the real keys are needed (--show-unique)
        # column whose trailing digits define global row order (first-seen
        # matched-line display, e.g. "doc_id" of the sequences table);
        # emits KIND_LINE_ORDER min-rows alongside the line counts
        self.order_from = order_from

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds: list[str] = []
        keys: list = []
        ns: list[int] = []

        def emit(kind: str, k: list, n: list) -> None:
            kinds.extend([kind] * len(k))
            keys.extend(k)
            ns.extend(n)

        emit(KIND_TOTAL, [""], [batch.num_rows])
        if self.want_stats:
            k, n = _count_keys(batch["level"], drop_null=False)
            emit(KIND_LEVEL, k, n)
            k, n = _count_keys(batch["error_type"], drop_null=True)
            emit(KIND_ERROR, k, n)
            k, n = _count_keys(batch["message_key"], drop_null=False)
            if self.hash_msgs:
                emit(KIND_MSG_HASH, _hash_keys(k), n)
            else:
                emit(KIND_MSG, k, n)
        if self.want_trend:
            k, n = _count_keys(batch["ts_hour"], drop_null=True)
            emit(KIND_TREND, k, n)
        if self.want_lines:
            k, n = _count_keys(batch["line"], drop_null=False)
            emit(KIND_LINE, k, n)
            if self.order_from and self.order_from in batch.column_names:
                order = pc.struct_field(
                    pc.extract_regex(batch[self.order_from], r"(?P<d>\d+)$"), "d"
                ).cast(pa.int64())
                t = pa.table({"k": batch["line"], "o": order})
                t = t.filter(pc.is_valid(t["o"]))
                if t.num_rows:
                    g = t.group_by("k").aggregate([("o", "min")])
                    emit(KIND_LINE_ORDER, g["k"].to_pylist(), g["o_min"].to_pylist())
        for col in self.extra_cols:
            k, n = _count_keys(batch[col], drop_null=False)
            emit(f"col:{col}", k, n)

        return pa.table(
            {
                "kind": pa.array(kinds, type=pa.string()),
                "key": pa.array(keys, type=pa.string()),
                "n": pa.array(ns, type=pa.int64()),
            }
        )


def _remerge_min_kinds(raw: pa.Table, summed: pa.Table, keys: list[str],
                       n_col: str) -> pa.Table:
    """Kinds whose n is an ORDER statistic (KIND_LINE_ORDER) merge with min,
    not sum — re-derive those rows from the raw concat when present."""
    is_min_raw = pc.equal(raw["kind"], KIND_LINE_ORDER)
    if not pc.any(is_min_raw).as_py():
        return summed
    mins = raw.filter(is_min_raw).group_by(keys).aggregate([(n_col, "min")])
    mins = mins.rename_columns(keys + [n_col])
    rest = summed.filter(pc.invert(pc.equal(summed["kind"], KIND_LINE_ORDER)))
    return pa.concat_tables([rest.select(keys + [n_col]), mins.select(keys + [n_col])])


class _KindSketch:
    """Degrade hook of the msg# guard: moves the rows of one kind (16-hex
    hashed keys) into a mergeable HyperLogLog and keeps the rest exact."""

    def __init__(self, kind: str):
        self.kind = kind
        self.hll = None

    def size(self, t: pa.Table) -> int:
        return pc.sum(pc.cast(pc.equal(t["kind"], self.kind), "int64")).as_py() or 0

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.hll is None:
            from timberjack_ray.functions.sketch import HyperLogLog

            self.hll = HyperLogLog(p=14)
        is_k = pc.equal(t["kind"], self.kind)
        if not pc.any(is_k).as_py():
            return t
        self.hll.add_hashed(_hex_to_u64(t.filter(is_k)["key"].to_pylist()))
        return t.filter(pc.invert(is_k))


def merge_partials(partials_ds, keys: list[str], n_col: str | list[str],
                   guard: tuple[str, int] | None = None,
                   ops: list[str] | None = None, limit: int | None = None,
                   degrade=None) -> pa.Table | None:
    """The one guarded driver fold of partial batches.

    Partial tables (already collapsed per batch upstream) stream to the
    driver and are folded with pyarrow ``group_by`` (C kernels),
    re-compacting every ``COMPACT_EVERY`` tables so driver memory stays
    ~O(distinct keys).  Ray's all-to-all Aggregate op has a multi-second
    fixed cost that dwarfs these tiny merges; the reference's own model is
    partial-per-chunk + final merge (src/analyzer.rs:510-549).

    ``n_col``: one value column or a list of them (``[]`` folds distinct
    keys).  ``ops``: per-column combine, parallel to the value columns —
    "sum" (default), "min" or "max".  With ``keys == ["kind", "key"]`` and
    one value column, ``line@`` rows merge with min.

    ``limit``/``degrade``: once a compacted table holds more than
    ``limit`` rows, ``degrade(table)`` is called, and from then on every
    later batch goes through ``degrade`` too.  It returns the rows that
    stay in the exact fold, or None to stop the fold — ``merge_partials``
    then returns None.

    ``guard``: ``(kind_value, limit)``, the msg# cardinality guard
    (``keys == ["kind", "key"]``, 16-hex-digit hashed keys).  Past
    ``limit`` distinct keys of that kind the kind's keys are absorbed into
    a HyperLogLog, and the result carries one ``msg~`` row whose key is
    the base64 register array (persistable in wave sidecars;
    estimate/merge via ``_merge_counts``).  Driver memory is then bounded
    by ~limit x 16 B regardless of input cardinality.

    An empty input returns a typed empty table: the streamed batches'
    schema, else string keys and int64 values.
    """
    n_cols = [n_col] if isinstance(n_col, str) else list(n_col)
    ops = list(ops) if ops is not None else ["sum"] * len(n_cols)
    cols = keys + n_cols
    size = len
    if guard is not None:
        degrade = _KindSketch(guard[0])
        limit, size = guard[1], degrade.size
    schema = None
    hooked = False
    pending: list[pa.Table] = []

    def fold(tables: list[pa.Table]) -> pa.Table | None:
        nonlocal hooked
        t = pa.concat_tables(tables)
        g = t.group_by(keys).aggregate(list(zip(n_cols, ops)))
        g = g.rename_columns(cols)
        if "kind" in keys and len(n_cols) == 1:
            g = _remerge_min_kinds(t, g, keys, n_cols[0])
        if not hooked and limit is not None and size(g) > limit:
            hooked = True
            return degrade(g)
        return g

    for batch in partials_ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        batch = batch.select(cols)
        if schema is None:
            schema = batch.schema
        if hooked and batch.num_rows:
            batch = degrade(batch)
            if batch is None:
                return None
        if batch.num_rows:
            pending.append(batch)
        if len(pending) >= COMPACT_EVERY:
            folded = fold(pending)
            if folded is None:
                return None
            pending = [folded]
    if not pending:
        if schema is None:
            schema = pa.schema([(k, pa.string()) for k in keys]
                               + [(c, pa.int64()) for c in n_cols])
        pending = [schema.empty_table()]
    out = fold(pending)
    if guard is not None and degrade.hll is not None:
        import base64

        sentinel = pa.table({
            "kind": pa.array([KIND_MSG_SKETCH], pa.string()),
            "key": pa.array([base64.b64encode(degrade.hll.registers.tobytes()).decode()],
                            pa.string()),
            **{c: pa.array([0], pa.int64()) for c in n_cols},
        })
        out = pa.concat_tables([out, sentinel])
    return out


class GuardedCounts:
    """Result of ``merge_counts_guarded``: exact (key, n) table under the
    guard, Count-Min sketch + candidate keys past it.

    ``mode`` is "exact" or "cms"; ``top_k(k)`` works in both modes (exact
    counts, or CMS estimates over the candidate set — any key whose true
    count beats the k-th by > ~2N/width is guaranteed among some batch's
    top candidates, Cormode & Muthukrishnan 2005); ``to_pandas()`` returns
    the full exact table or the estimated candidate table."""

    def __init__(self, key_col: str, n_col: str):
        self.key_col, self.n_col = key_col, n_col
        self.mode = "exact"
        self.table: pa.Table | None = None
        self.cms = None
        self.candidates: set = set()

    def _estimates(self):
        import pandas as pd

        from timberjack_ray.functions.sketch import _hash_strings

        cand = sorted(self.candidates)
        est = self.cms.query_hashed(_hash_strings(cand))
        return pd.DataFrame({self.key_col: cand, self.n_col: est})

    def to_pandas(self):
        if self.mode == "exact":
            df = self.table.to_pandas()
        else:
            df = self._estimates()
        df.attrs["mode"] = self.mode
        return df

    def top_k(self, k: int):
        df = self.to_pandas()
        out = df.sort_values([self.n_col, self.key_col],
                             ascending=[False, True]).head(k) \
            .reset_index(drop=True)
        out.attrs["mode"] = self.mode
        return out


# Count-Min degrade of ``merge_counts_guarded``: each batch's top
# CMS_CANDIDATES_PER_BATCH keys join the candidate set, which is re-pruned
# to half of CMS_MAX_CANDIDATES by estimate when full.
CMS_CANDIDATES_PER_BATCH = 256
CMS_MAX_CANDIDATES = 8192
CMS_DEPTH, CMS_WIDTH = 4, 1 << 16


def merge_counts_guarded(partials_ds, key_col: str, n_col: str,
                         limit: int | None = None) -> GuardedCounts:
    """Driver fold of (key, n) partial-count batches with a CARDINALITY
    GUARD: ``merge_partials`` while distinct keys stay under ``limit``
    (default FOLD_GUARD_LIMIT); past it the degrade hook moves the folded
    table and every later batch into a mergeable Count-Min sketch plus a
    bounded candidate set.  Driver memory is then bounded by
    ~limit × key-size + CMS_DEPTH × CMS_WIDTH × 8 B regardless of input
    cardinality — the msg#-guard pattern (VERDICT r02 #2) for the open
    count families (words, n-grams, doc frequency)."""

    out = GuardedCounts(key_col, n_col)

    def to_cms(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.sketch import (CountMinSketch,
                                                     _hash_strings)

        if out.cms is None:
            out.mode = "cms"
            out.cms = CountMinSketch(depth=CMS_DEPTH, width=CMS_WIDTH)
        keys = t[key_col].to_pylist()
        ns = t[n_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out.cms.add_hashed(_hash_strings(keys), ns)
        if len(keys) > CMS_CANDIDATES_PER_BATCH:
            top = np.argpartition(-ns, CMS_CANDIDATES_PER_BATCH - 1)[
                :CMS_CANDIDATES_PER_BATCH]
            out.candidates.update(keys[i] for i in top)
        else:
            out.candidates.update(keys)
        if len(out.candidates) > CMS_MAX_CANDIDATES:
            pruned = out._estimates().sort_values(
                [n_col, key_col], ascending=[False, True]) \
                .head(CMS_MAX_CANDIDATES // 2)
            out.candidates = set(pruned[key_col])
        return t.slice(0, 0)

    folded = merge_partials(
        partials_ds, [key_col], n_col, degrade=to_cms,
        limit=FOLD_GUARD_LIMIT if limit is None else limit)
    if out.mode == "exact":
        out.table = folded
    return out


def report_counts(ds, want_trend=False, want_stats=False, want_lines=False,
                  extra_cols=None, hash_msgs=True, as_table=False,
                  order_from=None):
    """Final (kind, key, n) totals (small; driver-merged).  ``as_table``
    returns the Arrow table so callers can split out high-cardinality
    families before any pandas conversion."""
    partials = ds.map_batches(
        PartialCounts(
            want_trend=want_trend,
            want_stats=want_stats,
            want_lines=want_lines,
            extra_cols=extra_cols,
            hash_msgs=hash_msgs,
            order_from=order_from,
        ),
        batch_format="pyarrow",
    )
    guard = (KIND_MSG_HASH, MSG_GUARD_LIMIT) if (want_stats and hash_msgs) else None
    out = merge_partials(partials, ["kind", "key"], "n", guard=guard)
    return out if as_table else out.to_pandas()


def counts_by(ds, keys, name: str = "n"):
    """Generic pre-aggregated groupby-count: partial per batch (pyarrow
    group_by, in C), final merge streamed to the driver.  Returns pandas."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + [name])

    p = ds.map_batches(partial, batch_format="pyarrow")
    return merge_partials(p, keys, name).to_pandas()


def top_k(counts_df, key_col: str, n_col: str, k: int):
    """Deterministic top-K: count desc, key asc (the reference's tie order is
    hashmap iteration — nondeterministic; we define it, SURVEY.md §2.6 K1)."""
    import pandas as pd

    if not isinstance(counts_df, pd.DataFrame):
        counts_df = counts_df.to_pandas()
    return counts_df.sort_values([n_col, key_col], ascending=[False, True]).head(k)


_SPLITMIX_NULL = 0xD6E8FEB86659FD93  # hash of a null integer key


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: full-width avalanche, so strided key domains
    (multiples of 2^k) spread over all buckets instead of aliasing into
    one under a multiply-only hash."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bucket_ids(table: pa.Table, keys: list[str], n_buckets: int) -> np.ndarray:
    """The one key-partitioning hash: int64 bucket id in ``[0, n_buckets)``
    of each row's key tuple.  Equal key tuples get the same bucket in every
    batch of every input, whatever the batch's null pattern.

    Integer columns go through splitmix64 of the value, with a fixed hash
    for null; every other type through ``pd.util.hash_array``.
    The per-column hashes combine as ``h * 1000003 + hk``.
    """
    import pandas as pd

    h = np.zeros(table.num_rows, dtype=np.uint64)
    for k in keys:
        col = table[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # branch on the ARROW type, not the numpy dtype: an int64 column
        # WITH nulls converts to float64 and would otherwise hash apart
        # from the same values in null-free batches
        if pa.types.is_integer(col.type):
            hk = _mix64(pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
                        .astype(np.uint64))
            if col.null_count:
                hk[pc.is_null(col).to_numpy(zero_copy_only=False)] = \
                    np.uint64(_SPLITMIX_NULL)
        else:
            raw = col.to_numpy(zero_copy_only=False)
            try:
                hk = pd.util.hash_array(raw).astype(np.uint64)
            except TypeError:  # pragma: no cover - exotic dtypes
                hk = pd.util.hash_array(raw.astype(object)).astype(np.uint64)
        h = h * np.uint64(1000003) + hk
    return (h % np.uint64(n_buckets)).astype(np.int64)


def bucket_exchange(inputs, keys: list[str], fn, n_buckets: int = 256):
    """The one bucket exchange: co-locate every row of a key tuple, then
    call ``fn(pa.Table)`` on whole buckets, once per shuffled block.

    Each input gets a ``bucket_ids`` column in a map that fuses into its
    upstream map; one sort on the bucket moves the rows, and ``fn`` sees
    the rows of one or more whole buckets without the bucket column.
    ``inputs`` is one Dataset or a list of same-schema Datasets (the sides
    of a co-group), each bucketed before the union.  A key's rows all
    share a bucket and a bucket never spans two calls, so a per-key ``fn``
    gives complete results; exchanging buckets instead of raw keys turns
    one call per key into at most ``n_buckets`` vectorized calls (measured
    49.6 s → 1.6 s vs the sort-based Ray groupby on a 12M-distinct-key
    dedup).  Returns the Dataset of ``fn``'s outputs.
    """

    def add_bucket(t: pa.Table) -> pa.Table:
        b = bucket_ids(t, keys, n_buckets)
        return t.append_column("__kb", pa.array(b))

    return _group_buckets(
        [ds.map_batches(add_bucket, batch_format="pyarrow")
         for ds in (inputs if isinstance(inputs, list) else [inputs])], fn)


def _group_buckets(sides: list, fn):
    """The exchange step itself: union the sides, which carry a bucket id
    in ``__kb``, sort on it, and call ``fn`` once per shuffled block
    without that column.

    The sort range-partitions on ``__kb``, so every bucket lands whole in
    one output block, and ``batch_size=None`` hands ``fn`` whole blocks:
    the guarantee Ray's own ``map_groups`` relies on, without its
    per-group split.  A call per bucket cost a Python call and an Arrow
    slice each (256 by default): ``grouped_aggregate_ds`` over 100 k rows
    and 1 500 keys in a ``num_cpus=1`` session took 0.26 s at 8 buckets,
    0.55 s at 256 and 1.37 s at 1 024, and takes 0.23-0.26 s at each of
    these counts once called per block.  Empty blocks are skipped.  The
    step is named after ``fn``.
    """
    ds = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]

    @functools.wraps(fn)  # plans and stats show MapBatches(<fn's name>)
    def per_block(t: pa.Table) -> pa.Table:
        return fn(t.drop_columns(["__kb"]))

    return ds.sort("__kb").map_batches(per_block, batch_size=None,
                                       batch_format="pyarrow")


def bucket_cogroup(sides, fn, n_buckets: int = 256):
    """Co-group Datasets of different schemas through ``bucket_exchange``:
    ``fn(*tables)`` runs on whole buckets, once per shuffled block, with
    one typed table per side (empty when the block's buckets hold no row
    of that side; None for a side that had no blocks at all).

    ``sides``: ``(Dataset, key_cols)`` pairs whose keys hash alike under
    ``bucket_ids``.  Each side's map sorts a block by bucket and emits one
    row ``(__kb, __side, __slice)`` per bucket, ``__slice`` holding that
    bucket's rows (zero rows too, so every bucket sees each side's schema)
    as an Arrow IPC stream: the sides share one schema without knowing
    each other's payload types.  ``__kb`` is already the bucket id, so the
    rows go straight to the exchange's sort, and every slice of a bucket
    reaches the same call.
    """

    def carry(side: int, keys: list[str]):
        def f(t: pa.Table) -> pa.Table:
            b = bucket_ids(t, keys, n_buckets)
            order = np.argsort(b, kind="stable")
            t = t.take(pa.array(order))
            bounds = np.searchsorted(b[order], np.arange(n_buckets + 1))
            # one IPC stream per slice, back to back in one buffer
            sink = pa.BufferOutputStream()
            offsets = [0]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                with pa.ipc.new_stream(sink, t.schema) as w:
                    w.write_table(t.slice(lo, hi - lo))
                offsets.append(sink.tell())
            slices = pa.LargeBinaryArray.from_buffers(
                pa.large_binary(), n_buckets,
                [None, pa.py_buffer(np.array(offsets, np.int64)),
                 sink.getvalue()])
            return pa.table({
                "__kb": pa.array(np.arange(n_buckets)),
                "__side": pa.array(np.full(n_buckets, side, np.int8)),
                "__slice": slices})
        return f

    n_sides = len(sides)  # the closure ships to workers: no Datasets in it

    @functools.wraps(fn)
    def per_block(t: pa.Table):
        parts: list[list[pa.Table]] = [[] for _ in range(n_sides)]
        for side, buf in zip(t["__side"].to_numpy(), t["__slice"]):
            parts[side].append(pa.ipc.open_stream(buf.as_buffer()).read_all())
        return fn(*[pa.concat_tables(p, promote_options="permissive")
                    if p else None for p in parts])

    carried = [ds.map_batches(carry(i, list(keys)), batch_format="pyarrow")
               for i, (ds, keys) in enumerate(sides)]
    return _group_buckets(carried, per_block)


def grouped_aggregate_ds(ds, keys: list[str],
                         aggs: list[tuple[str, str, str]],
                         n_buckets: int = 256):
    """Distributed grouped aggregate — the scale replacement for
    ``ds.groupby(keys).aggregate(...)``: ``bucket_exchange`` on the key
    tuple, then pyarrow's C ``group_by`` inside each bucket.

    ``aggs``: (src_col, op, out_name) with op ∈ {sum, min, max, count,
    count_all} (count_all ignores src_col and counts rows).  Returns a
    Dataset with columns keys + out_names (unsorted).
    """
    out_names = [a[2] for a in aggs]

    def per_block(t: pa.Table) -> pa.Table:
        # empty groups flow through the SAME aggregate call: arrow's
        # group_by on a 0-row table emits the exact promoted output
        # schema (e.g. int32 sum -> int64), so empty blocks can never
        # carry a schema the non-empty blocks don't
        g = t.group_by(keys).aggregate(
            [(([], "count_all") if op == "count_all" else (c, op))
             for c, op, _ in aggs])
        return g.rename_columns(keys + out_names)

    return bucket_exchange(ds, keys, per_block, n_buckets)


def merge_partials_or_ds(partials_ds, keys: list[str], n_cols: list[str],
                         driver_limit: int | None = None,
                         ops: list[str] | None = None):
    """GUARDED variant of ``merge_partials`` for result cardinalities that
    are usually small but not bounded by construction (rollup combos,
    per-group stats): the driver fold stops past ``driver_limit`` distinct
    keys (default FOLD_GUARD_LIMIT), and the partials then go through the
    bucket exchange (``grouped_aggregate_ds``), returned as a DATASET for
    the caller to stream/write (the VERDICT r02 auto-degrade pattern —
    driver memory stays bounded at any key cardinality, at the cost of one
    wasted partial pass bounded by driver_limit rows).

    ``ops``: per-column combine, parallel to ``n_cols`` — "sum" (default),
    "min" or "max"; all are commutative monoids so the driver fold and
    the distributed degrade agree exactly.

    Returns ``(pa.Table, "driver")`` or ``(Dataset, "distributed")``.
    """
    n_cols = list(n_cols)
    ops = list(ops) if ops is not None else ["sum"] * len(n_cols)
    folded = merge_partials(
        partials_ds, keys, n_cols, ops=ops, degrade=lambda _: None,
        limit=FOLD_GUARD_LIMIT if driver_limit is None else driver_limit)
    if folded is not None:
        return folded, "driver"
    return grouped_aggregate_ds(
        partials_ds, keys, [(c, op, c) for c, op in zip(n_cols, ops)],
    ), "distributed"


def distinct_values_guarded(ds, key: str, driver_limit: int | None = None):
    """Distinct values of one column via the GUARDED fold: per-batch
    (key, n) count partials → ``merge_partials_or_ds``.  Returns the same
    ``(pa.Table | Dataset, mode)`` contract — the shared partial for set
    ops (union / intersect / distinct) that must not pay the Ray
    all-to-all at small cardinalities nor OOM the driver at large ones."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([([], "count_all")])
        return g.rename_columns([key, "n"])

    return merge_partials_or_ds(
        ds.map_batches(partial, batch_format="pyarrow"),
        [key], ["n"], driver_limit=driver_limit)
