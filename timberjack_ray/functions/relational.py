"""Generic relational building blocks the reference lacks but a standalone
engine needs: broadcast hash join, partial top-K, grouped distinct counts.

The reference has no joins (SURVEY.md §2.4) — its closest operation is the
per-row key lookup (src/parser/json.rs:8-15).  These follow the same
Ray-Data-first rules as the analyze pipeline:

* small build sides are broadcast (``ray.put`` once, pyarrow C hash join
  inside ``map_batches``) — never a shuffle;
* top-K keeps K rows per batch, merges K×batches rows driver-side — never a
  full distributed sort;
* grouped distinct counts pre-collapse (group, key) pairs per batch so the
  merge handles distinct pairs, not rows.  For billion-key cardinality swap
  the driver merge for ``ds.groupby`` (documented scale path).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.aggregates import (bucket_cogroup, bucket_exchange,
                                       merge_partials)
from timberjack_ray.functions.util import fetch_broadcast


def broadcast_join(ds, right: pa.Table, keys, right_keys=None, join_type: str = "inner"):
    """Map-side hash join against a broadcast right table.

    ``right`` is shipped to the object store once; every task fetches it once
    per worker (module cache) and joins each batch with pyarrow's C hash
    join.  Correct tool whenever the right side fits in worker memory —
    at 100 TB that covers dimension/lookup tables; for two large sides,
    hash-partition both on the key (groupby/map_groups) instead.
    """
    import ray

    keys = [keys] if isinstance(keys, str) else list(keys)
    right_keys = right_keys or keys
    right_keys = [right_keys] if isinstance(right_keys, str) else list(right_keys)
    ref = ray.put(right)

    def join_batch(batch: pa.Table) -> pa.Table:
        r = fetch_broadcast(ref)
        return batch.join(r, keys=keys, right_keys=right_keys, join_type=join_type)

    return ds.map_batches(join_batch, batch_format="pyarrow")


def sorted_topk(ds, sort_keys, k: int, descending=True) -> pd.DataFrame:
    """Global top-K without a distributed sort: each batch keeps its own top
    K (Arrow C sort over the batch), the driver merges ≤ K×num_batches rows."""
    sort_keys = [sort_keys] if isinstance(sort_keys, str) else list(sort_keys)
    desc = [descending] * len(sort_keys) if isinstance(descending, bool) else list(descending)
    order = [(c, "descending" if d else "ascending") for c, d in zip(sort_keys, desc)]

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch.sort_by(order)
        return batch.sort_by(order).slice(0, k)

    tops = ds.map_batches(partial, batch_format="pyarrow")
    frames = [b for b in tops.iter_batches(batch_size=None, batch_format="pyarrow")
              if b.num_rows]
    if not frames:
        return pd.DataFrame()
    merged = pa.concat_tables(frames).sort_by(order).slice(0, k)
    return merged.to_pandas()


class AsofJoiner:
    """map_batches stage: per-row 'latest right row with ts ≤ left ts'
    within the same ``by`` key — the classic as-of join, which Ray Data has
    no operator for (SURVEY custom-op case (b): broadcast state + searchsorted).

    The right side is broadcast once and indexed per worker in ``__init__``:
    {by_key → (sorted ts int64[], right row index[])}.  Each batch dict-encodes
    its ``by`` column and runs ONE vectorized ``np.searchsorted`` per distinct
    key present — no per-row Python.
    """

    def __init__(self, right_ref, on: str, by: str, value_cols: list[str],
                 suffix: str = "_r"):
        right = fetch_broadcast(right_ref)
        self.on = on
        self.by = by
        self.value_cols = value_cols
        self.suffix = suffix
        df = right.select([by, on] + value_cols).to_pandas()
        # normalize the ordering column to int64 ns so left and right agree
        # regardless of source timestamp unit (us-parquet vs ns-pandas)
        df["__ts"] = df[on].to_numpy().astype("datetime64[ns]").astype("int64") \
            if np.issubdtype(df[on].to_numpy().dtype, np.datetime64) \
            else df[on].to_numpy().astype("int64")
        df = df.sort_values([by, "__ts"], kind="stable").reset_index(drop=True)
        self.index: dict = {}
        for key, sub in df.groupby(by, sort=False):
            self.index[key] = (sub["__ts"].to_numpy(), sub.index.to_numpy())
        self.right_values = {c: df[c].to_numpy() for c in value_cols}

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ts_np = np.asarray(batch[self.on].combine_chunks()
                           if isinstance(batch[self.on], pa.ChunkedArray)
                           else batch[self.on])
        ts = (ts_np.astype("datetime64[ns]")
              if np.issubdtype(ts_np.dtype, np.datetime64) else ts_np).astype("int64")
        by_col = batch[self.by]
        enc = (by_col.combine_chunks() if isinstance(by_col, pa.ChunkedArray)
               else by_col).dictionary_encode()
        keys = enc.dictionary.to_pylist()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        match = np.full(n, -1, dtype=np.int64)
        for ki, key in enumerate(keys):
            ent = self.index.get(key)
            if ent is None:
                continue
            rts, rrows = ent
            sel = np.flatnonzero(idx == ki)
            pos = np.searchsorted(rts, ts[sel], side="right") - 1
            ok = pos >= 0
            match[sel[ok]] = rrows[pos[ok]]
        got = match >= 0
        out = batch
        for c in self.value_cols:
            vals = np.where(got, self.right_values[c][np.maximum(match, 0)], None)
            out = out.append_column(f"{c}{self.suffix}", pa.array(vals.tolist()))
        return out.append_column("__matched", pa.array(got))


def asof_join(ds, right: pa.Table, on: str, by: str, value_cols: list[str],
              suffix: str = "_r", inner: bool = True):
    """Broadcast as-of join (backward: latest right ts ≤ left ts per key).

    Right side must fit in worker memory (broadcast); for two large sides,
    hash-partition both by ``by`` and run this joiner per partition
    (groupby/map_groups) — documented scale path.
    """
    import ray

    ref = ray.put(right)

    def join_batch(batch: pa.Table) -> pa.Table:
        joiner_key = (ref.hex(), on, by, tuple(value_cols), suffix)
        j = _ASOF_CACHE.get(joiner_key)
        if j is None:
            j = AsofJoiner(ref, on, by, value_cols, suffix)
            _ASOF_CACHE[joiner_key] = j
        out = j(batch)
        if inner:
            out = out.filter(out["__matched"])
        return out.drop_columns(["__matched"])

    return ds.map_batches(join_batch, batch_format="pyarrow")


_ASOF_CACHE: dict = {}


def distinct_count_by(ds, group_col: str, distinct_col: str,
                      name: str = "n_distinct", limit: int | None = None,
                      hll_p: int = 14) -> pd.DataFrame:
    """COUNT(DISTINCT distinct_col) GROUP BY group_col — EXACT while the
    distinct-pair count stays under the cardinality guard.

    Two-level: per-batch dedup of (group, key) pairs (Arrow group_by), then
    a driver merge of distinct pairs, then a count per group.  Merge volume
    is the number of distinct pairs, not rows.

    GUARD (VERDICT r02 #2): past ``limit`` distinct pairs (default
    FOLD_GUARD_LIMIT — billions on open-domain keys) the fold degrades to
    one mergeable HyperLogLog PER GROUP (group cardinality is assumed
    bounded — event types, langs, sources): folded pairs are absorbed, and
    each further partial batch adds its hashed keys directly.  Driver
    memory is then ~limit × pair-size + groups × 2^p B.  The returned
    frame records ``.attrs["mode"]`` ("exact"/"hll")."""
    from timberjack_ray.aggregates import FOLD_GUARD_LIMIT

    def pairs(batch: pa.Table) -> pa.Table:
        return batch.select([group_col, distinct_col]).group_by(
            [group_col, distinct_col]).aggregate([])

    hlls: dict = {}

    def to_hll(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.sketch import (HyperLogLog,
                                                     _hash_strings)

        vals = _hash_strings(t[distinct_col].to_pylist())
        groups = t[group_col].to_numpy(zero_copy_only=False)
        for g in pd.unique(groups):
            h = hlls.get(g)
            if h is None:
                h = hlls[g] = HyperLogLog(p=hll_p)
            h.add_hashed(vals[groups == g])
        return t.slice(0, 0)

    folded = merge_partials(
        ds.map_batches(pairs, batch_format="pyarrow"),
        [group_col, distinct_col], [], degrade=to_hll,
        limit=FOLD_GUARD_LIMIT if limit is None else limit)
    if not hlls:
        out = folded.group_by(group_col).aggregate([([], "count_all")])
        df = out.rename_columns([group_col, name]).to_pandas()
        df.attrs["mode"] = "exact"
        return df
    keys = sorted(hlls)
    df = pd.DataFrame({group_col: keys,
                       name: [int(round(hlls[g].estimate())) for g in keys]})
    df.attrs["mode"] = "hll"
    return df


class RangeJoiner:
    """map_batches stage: per left row, ALL right rows of the same ``by``
    key whose ``on`` value lies in ``[left.on + lo, left.on + hi]``
    (inclusive) — a banded range/interval join, which Ray Data has no
    operator for (SURVEY custom-op case (b): broadcast index + two
    ``searchsorted`` bounds + ragged expand; same pattern as AsofJoiner but
    1:N).

    The right side is broadcast once and indexed per worker in ``__init__``:
    {by_key → (sorted on int64[], right row index[])}.  Each batch
    dict-encodes its ``by`` column and runs two vectorized searchsorted
    calls per distinct key present; matches expand via one ragged arange —
    no per-row Python.
    """

    def __init__(self, right_ref, on: str, by: str, value_cols: list[str],
                 lo: int, hi: int, suffix: str = "_r"):
        right = fetch_broadcast(right_ref)
        self.on, self.by, self.value_cols, self.suffix = on, by, value_cols, suffix
        self.lo, self.hi = int(lo), int(hi)
        df = right.select([by, on] + [c for c in value_cols if c not in (by, on)]).to_pandas()
        df["__ts"] = _to_int64_ns(df[on].to_numpy())
        df = df.sort_values([by, "__ts"], kind="stable").reset_index(drop=True)
        self.index: dict = {}
        for key, sub in df.groupby(by, sort=False):
            self.index[key] = (sub["__ts"].to_numpy(), sub.index.to_numpy())
        self.right_values = {c: df[c].to_numpy() for c in value_cols}
        self.right_types = {c: right.schema.field(c).type for c in value_cols}

    def __call__(self, batch: pa.Table) -> pa.Table:
        ts = _to_int64_ns(np.asarray(
            batch[self.on].combine_chunks() if isinstance(batch[self.on], pa.ChunkedArray)
            else batch[self.on]))
        by_col = batch[self.by]
        enc = (by_col.combine_chunks() if isinstance(by_col, pa.ChunkedArray)
               else by_col).dictionary_encode()
        keys = enc.dictionary.to_pylist()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        left_parts, right_parts = [], []
        for ki, key in enumerate(keys):
            ent = self.index.get(key)
            if ent is None:
                continue
            rts, rrows = ent
            sel = np.flatnonzero(idx == ki)
            lo_pos = np.searchsorted(rts, ts[sel] + self.lo, side="left")
            hi_pos = np.searchsorted(rts, ts[sel] + self.hi, side="right")
            cnt = hi_pos - lo_pos
            total = int(cnt.sum())
            if not total:
                continue
            left_parts.append(np.repeat(sel, cnt))
            # ragged arange: for row j, rrows[lo_pos[j] : hi_pos[j]]
            base = np.repeat(np.cumsum(cnt) - cnt, cnt)
            ragged = np.arange(total, dtype=np.int64) - base + np.repeat(lo_pos, cnt)
            right_parts.append(rrows[ragged])
        if not left_parts:
            out = batch.slice(0, 0)
            for c in self.value_cols:
                out = out.append_column(
                    f"{c}{self.suffix}",
                    pa.array(self.right_values[c][:0], type=self.right_types[c]))
            return out
        lidx = np.concatenate(left_parts)
        ridx = np.concatenate(right_parts)
        out = batch.take(pa.array(lidx))
        for c in self.value_cols:
            out = out.append_column(f"{c}{self.suffix}",
                                    pa.array(self.right_values[c][ridx],
                                             type=self.right_types[c]))
        return out


def _to_int64_ns(arr: np.ndarray) -> np.ndarray:
    """Normalize an ordering column to int64 (ns for datetimes) so left and
    right sides agree regardless of source unit (us-parquet vs ns-pandas)."""
    if np.issubdtype(arr.dtype, np.datetime64):
        return arr.astype("datetime64[ns]").astype("int64")
    return arr.astype("int64")


def range_join(ds, right: pa.Table, on: str, by: str, value_cols: list[str],
               lo: int, hi: int, suffix: str = "_r"):
    """Broadcast banded range join: left row × every right row of the same
    ``by`` key with ``on`` in [left.on+lo, left.on+hi] (inclusive; lo/hi in
    int64 units of the ordering column — ns for timestamps).

    Right side must fit in worker memory (broadcast).  For two LARGE sides
    hash-partition both on ``by`` (groupby/map_groups) and run the joiner
    per partition — documented scale path; fan-out is bounded by the band
    width, so size ``hi - lo`` to the data's per-key density.
    """
    import ray

    ref = ray.put(right)

    def join_batch(batch: pa.Table) -> pa.Table:
        key = (ref.hex(), on, by, tuple(value_cols), lo, hi, suffix)
        j = _RANGE_CACHE.get(key)
        if j is None:
            j = RangeJoiner(ref, on, by, value_cols, lo, hi, suffix)
            _RANGE_CACHE[key] = j
        return j(batch)

    return ds.map_batches(join_batch, batch_format="pyarrow")


_RANGE_CACHE: dict = {}


def _topk_prune(t: pa.Table, group_col: str, sort_col: str, tie_col: str,
                k: int, descending: bool) -> pa.Table:
    """Keep ≤ k rows per group: one lexsort (group asc, sort_col desc/asc,
    tie asc) + boundary-scan rank, no per-group Python."""
    if t.num_rows == 0:
        return t
    g = t[group_col].combine_chunks().to_numpy(zero_copy_only=False)
    v = t[sort_col].combine_chunks().to_numpy(zero_copy_only=False)
    tie = t[tie_col].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.lexsort((tie, -v if descending else v, g))
    gs = g[order]
    starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
    sizes = np.diff(np.r_[starts, len(gs)])
    rank = np.arange(len(gs), dtype=np.int64) - np.repeat(starts, sizes)
    return t.take(pa.array(order[rank < k]))


def grouped_topk(ds, group_col: str, sort_col: str, k: int, tie_col: str,
                 descending: bool = True, driver_limit: int = 2_000_000):
    """Top-K rows per group with a DEFINED order (sort_col desc/asc, then
    tie_col asc) — SQL ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY v, id)
    <= k``.

    Per-batch vectorized prune to ≤ k rows per group first, so the exchange
    carries at most k × (groups present in batch) rows, never raw rows.
    Pruned rows fold on the driver under ``driver_limit`` (one more prune
    over the concatenation) → pandas DataFrame sorted (group asc, rank
    order).  Above it the result is k × #groups rows — TOO BIG for the
    driver at high group cardinality (VERDICT r02 #4) — so the distributed
    re-prune DATASET is returned instead (exact k-per-group rows; caller
    streams/writes or aggregates it; no global sort is imposed).
    """
    pruned = ds.map_batches(
        lambda t: _topk_prune(t, group_col, sort_col, tie_col, k, descending),
        batch_format="pyarrow")

    from timberjack_ray.functions.util import collect_table_under

    small = collect_table_under(pruned, driver_limit)
    if small is not None and not small.num_rows:
        # an empty map_batches output carries no schema
        return pd.DataFrame(columns=ds.schema().names if ds.schema() else
                            [group_col, sort_col, tie_col])
    if small is not None:
        final = _topk_prune(small, group_col, sort_col, tie_col, k, descending)
        return final.to_pandas().sort_values(
            [group_col, sort_col, tie_col],
            ascending=[True, not descending, True]).reset_index(drop=True)
    # bucket the groups so the exchange has ~256 coarse partitions and
    # each call prunes MANY groups in one vectorized lexsort (one call per
    # group would be per-key Python at high cardinality)
    return bucket_exchange(
        pruned, [group_col],
        lambda t: _topk_prune(t, group_col, sort_col, tie_col, k, descending),
        256)


_BLOOM_KEY_MIX = np.uint64(0x9E3779B97F4A7C15)


def key_bloom(ds, key_col: str, m_bits: int = 1 << 22,
              n_hashes: int = 4) -> np.ndarray:
    """Distributed Bloom filter over an integer KEY column: each batch
    collapses to one packed-uint64 bitmap row (vectorized bit set), the
    driver OR-folds — bitmap size is FIXED (512 KB default) regardless
    of key cardinality.  Keys mix through a 64-bit multiplicative hash
    first so dense integer domains spread."""
    import pyarrow.compute as pc

    from timberjack_ray.functions.dedup import _bloom_coords

    n_words = (m_bits + 63) // 64

    def partial(t: pa.Table) -> pa.Table:
        bm = np.zeros(n_words, dtype=np.uint64)
        k = pc.cast(t[key_col], pa.int64()).to_numpy(zero_copy_only=False)
        if len(k):
            h = np.unique(k.astype(np.uint64) * _BLOOM_KEY_MIX)
            for pos in _bloom_coords(h, m_bits, n_hashes):
                np.bitwise_or.at(
                    bm, pos >> 6,
                    np.uint64(1) << (pos & np.int64(63)).astype(np.uint64))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    acc = np.zeros(n_words, dtype=np.uint64)
    for b in ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in b["bm"].to_pylist():
            acc |= np.frombuffer(buf, dtype=np.uint64)
    return acc


def key_bloom_mask(keys: np.ndarray, bm: np.ndarray, m_bits: int = 1 << 22,
                   n_hashes: int = 4) -> np.ndarray:
    """Membership mask of integer keys against a ``key_bloom`` bitmap —
    NO false negatives (every inserted key passes); false positives at
    the bitmap's FP rate only cost wasted exchange rows downstream."""
    from timberjack_ray.functions.dedup import _bloom_coords

    h = keys.astype(np.uint64) * _BLOOM_KEY_MIX
    mask = np.ones(len(h), dtype=bool)
    for pos in _bloom_coords(h, m_bits, n_hashes):
        bit = (bm[pos >> 6] >> (pos & np.int64(63)).astype(np.uint64)) \
            & np.uint64(1)
        mask &= bit.astype(bool)
    return mask


def bucket_hash_join(left_ds, right_ds, left_key: str, right_key: str,
                     left_cols: list[str], right_cols: list[str],
                     n_buckets: int = 64, join_type: str = "inner",
                     bucket_fn=None, bloom_prefilter: bool = False,
                     bloom_m_bits: int = 1 << 22):
    """Shuffle hash join for two LARGE sides (neither fits a broadcast).

    ``bloom_prefilter=True`` (INNER joins only — outer joins must keep
    non-matching left rows): a fixed-size Bloom filter over the right
    keys broadcasts first and prunes left rows that cannot match BEFORE
    they cross the exchange — the classic shuffle-volume reduction for
    selective joins; false positives only add wasted exchange rows, the
    per-bucket C join removes them exactly.

    Plan: one ``bucket_cogroup`` on the int64-cast join key: each side's
    map carries its own columns per bucket as typed Arrow slices, and each
    bucket runs pyarrow's C hash join (``Table.join``) on its left and
    right tables.  No side's schema is probed, so the join is one Ray Data
    execution, and a bucket without right rows still has typed right
    columns.  The exchange moves each row exactly once (classic
    GRACE/partitioned hash join), and per-bucket memory is ~|input| /
    n_buckets — size ``n_buckets`` so a bucket fits a worker heap (at
    100 TB: thousands of buckets; bucket count only changes group
    granularity, not total traffic).

    Keys must be integers and NON-NULL (null keys never match in SQL;
    prep raises a clear ValueError instead — filter nulls upstream if the
    domain allows them).  ``left_cols``/``right_cols`` are the
    non-key payload columns to carry (must not overlap, and must not reuse
    the left key's name).  Returns a Dataset of joined rows with columns
    ``[left_key] + left_cols + right_cols``, so downstream aggregation
    keeps streaming — the join result is never materialized on the driver.

    ``bucket_fn``: optional per-bucket post-join transform (pa.Table →
    pa.Table) applied while the bucket is still in hand.  Because the
    exchange co-locates every occurrence of a key in one bucket, per-key
    aggregates computed inside ``bucket_fn`` are COMPLETE, so a grouped
    sum + per-bucket top-k here shrinks the join output to k × n_buckets
    rows before anything else sees it (the TPC-H Q3 tail).
    """
    import pyarrow.compute as pc

    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"payload column collision: {overlap}")
    if left_key in set(left_cols) | set(right_cols):
        raise ValueError(f"left key {left_key!r} collides with a payload column")

    bloom_ref = None
    if bloom_prefilter:
        if join_type != "inner":
            raise ValueError("bucket_hash_join: bloom_prefilter requires an "
                             "inner join (outer joins keep non-matching rows)")
        import ray
        bloom_ref = ray.put(key_bloom(right_ds, right_key, bloom_m_bits))

    def prep(key_col: str, cols: list[str], bloom=None):
        def f(t: pa.Table) -> pa.Table:
            key = pc.cast(t[key_col], pa.int64())
            if key.null_count:
                raise ValueError(
                    f"bucket_hash_join: null join keys in {key_col!r} "
                    "(filter nulls upstream; null keys never match in SQL)")
            if bloom is not None:
                m = key_bloom_mask(key.to_numpy(zero_copy_only=False),
                                   fetch_broadcast(bloom), bloom_m_bits)
                if not m.all():
                    t = t.filter(pa.array(m))
                    key = pc.cast(t[key_col], pa.int64())
            return pa.table([key] + [t[c] for c in cols],
                            names=["__key"] + cols)
        return f

    def join_bucket(lt: pa.Table | None, rt: pa.Table | None) -> pa.Table:
        # a side with no blocks at all sends no slice: join on its key
        # alone, and its columns come out as nulls
        key_only = pa.table({"__key": pa.array([], pa.int64())})
        # co-partitioning makes per-bucket outer joins globally correct: a
        # left row's matches, if any exist, are all in its bucket
        out = (key_only if lt is None else lt).join(
            key_only if rt is None else rt, keys="__key", join_type=join_type)
        names = ["__key"] + left_cols \
            + ([] if join_type in ("left semi", "left anti") else right_cols)
        out = pa.table([out[c] if c in out.column_names
                        else pa.nulls(out.num_rows) for c in names],
                       names=[left_key] + names[1:])
        return bucket_fn(out) if bucket_fn is not None else out

    return bucket_cogroup(
        [(left_ds.map_batches(prep(left_key, left_cols, bloom_ref),
                              batch_format="pyarrow"), ["__key"]),
         (right_ds.map_batches(prep(right_key, right_cols),
                               batch_format="pyarrow"), ["__key"])],
        join_bucket, n_buckets)


def winsorized_group_sums(ds, group_col: str, col: str,
                          q_lo: float = 0.05, q_hi: float = 0.95,
                          scale: int = 100) -> pd.DataFrame:
    """Feature preprocessing: per-group (n, sum of values clamped to the
    group's [q_lo, q_hi] discrete quantiles), on the scaled-int domain so
    every term is exact (no float-summation-order dependence — the oracle
    replays the sum bit for bit).

    Two streaming passes: (1) ``grouped_quantiles`` — histogram-sized
    partials, never row-sized; (2) the (group → lo, hi) map rides the
    clamp closure (#groups entries), each batch clamps vectorized and
    collapses to one row per group.  Returns
    (group, n, sum_wins_scaled)."""
    from timberjack_ray.aggregates import merge_partials
    from timberjack_ray.functions.util import scale_to_int

    qt = grouped_quantiles(ds, group_col, col, [q_lo, q_hi], scale=scale)
    lo = dict(qt[qt["q"] == q_lo][[group_col, "value_scaled"]].to_numpy())
    hi = dict(qt[qt["q"] == q_hi][[group_col, "value_scaled"]].to_numpy())
    groups = sorted(lo)
    lo_a = np.array([lo[g] for g in groups], dtype=np.int64)
    hi_a = np.array([hi[g] for g in groups], dtype=np.int64)
    gidx = {g: i for i, g in enumerate(groups)}

    def partial(t: pa.Table) -> pa.Table:
        v = scale_to_int(t[col], scale).to_numpy(zero_copy_only=False)
        g = t[group_col].to_pandas().map(gidx).to_numpy()
        w = np.clip(v, lo_a[g], hi_a[g])
        n = np.bincount(g, minlength=len(groups)).astype(np.int64)
        # int64 accumulator (np.add.at), NOT bincount(weights=...): bincount
        # accumulates in float64 and silently rounds past 2^53, breaking the
        # bit-exact-sum contract the scaled-int domain exists to provide
        s = np.zeros(len(groups), dtype=np.int64)
        np.add.at(s, g, w)
        return pa.table({group_col: pa.array(groups, pa.string()),
                         "n": pa.array(n), "sum_wins_scaled": pa.array(s)})

    p = ds.map_batches(partial, batch_format="pyarrow")
    out = merge_partials(p, [group_col], ["n", "sum_wins_scaled"]).to_pandas()
    return out.sort_values(group_col).reset_index(drop=True)


def grouped_quantiles(ds, group_col: str, col: str, qs: list[float],
                      scale: int = 1) -> pd.DataFrame:
    """Exact per-group discrete quantiles (type-1, DuckDB ``quantile_disc``
    semantics): per-batch (group, scaled value) counts collapse each batch
    to its distinct pairs, the merged pair table is tiny (groups × distinct
    values), and the cumulative walk per group runs on the driver.

    Same plan as ``sessions.exact_quantiles`` widened with a group key —
    shuffle traffic is value-histogram-sized, never row-sized.
    """
    from timberjack_ray.functions.util import scale_to_int

    def partial(t: pa.Table) -> pa.Table:
        v = scale_to_int(t[col], scale)
        g = pa.table({group_col: t[group_col], "v": v}) \
            .group_by([group_col, "v"]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, "v", "n"])

    counts = merge_partials(ds.map_batches(partial, batch_format="pyarrow"),
                            [group_col, "v"], "n").to_pandas() \
        .sort_values([group_col, "v"])
    rows = []
    for gname, gdf in counts.groupby(group_col, sort=True):
        cum = gdf["n"].cumsum().to_numpy()
        vals = gdf["v"].to_numpy()
        total = int(cum[-1])
        for q in qs:
            rank = max(int(np.ceil(q * total)), 1)
            idx = int(np.searchsorted(cum, rank))
            rows.append((gname, q, int(vals[min(idx, len(vals) - 1)])))
    return pd.DataFrame(rows, columns=[group_col, "q", "value_scaled"])


def rolling_sum_per_key_ds(ds, key_col: str, ts_col: str, id_col: str,
                           val_col: str, window: int, scale: int = 1,
                           n_buckets: int = 256):
    """Per-key rolling sum over the last ``window`` rows ordered by
    (ts, id): SQL ``SUM(v) OVER (PARTITION BY key ORDER BY ts, id ROWS
    BETWEEN window-1 PRECEDING AND CURRENT ROW)``.

    Scale shape: keys hash-bucket into ``n_buckets`` co-partitions (one
    groupby exchange); inside a bucket ALL keys are processed in one
    vectorized pass — a single lexsort (key, ts, id), one prefix-sum, and
    a per-segment window clamp (``lo = max(i - w + 1, segment_start)``) —
    never per-key Python.  Values scale to integers so partial order can't
    drift from the oracle.  Output: (id, roll_sum) for every input row.
    """
    from timberjack_ray.functions.corpus import _segments

    def per_bucket(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import scale_to_int_np

        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        v = scale_to_int_np(t[val_col].to_numpy(zero_copy_only=False), scale)
        order = np.lexsort((ids, ts, k))
        ks, vs = k[order], v[order]
        starts, sizes = _segments(ks)
        csum = np.concatenate([[0], np.cumsum(vs)])
        n = len(vs)
        seg_start = np.repeat(starts, sizes)
        lo = np.maximum(np.arange(n) - window + 1, seg_start)
        roll = csum[1:] - csum[lo]
        return pa.table({id_col: pa.array(ids[order]),
                         "roll_sum": pa.array(roll)})

    return bucket_exchange(ds, [key_col], per_bucket, n_buckets)


def range_window_sum_per_key_ds(ds, key_col: str, ts_col: str, id_col: str,
                                val_col: str, width_us: int, scale: int = 1,
                                n_buckets: int = 256):
    """Per-key TIME-RANGE windowed sum: SQL ``SUM(v) OVER (PARTITION BY
    key ORDER BY ts RANGE BETWEEN width PRECEDING AND CURRENT ROW)``.

    RANGE-frame semantics (not ROWS): the frame is every row of the key
    with ``ts in [t − width, t]`` — equal-ts peers AFTER the current row
    are in the frame too, so the result is a pure function of (key, ts)
    and deterministic under any partitioning or tie order.

    Scale shape: ONE groupby exchange on ``hash(key) % n_buckets``; inside
    a bucket all keys resolve in one vectorized pass — a single lexsort
    (key, ts, id), one prefix-sum, and BOTH frame bounds found by global
    ``np.searchsorted`` on a composite ``segment·OFF + (ts − base)`` key
    (OFF > bucket time-span + width keeps segments disjoint, so the probe
    can never cross a key boundary).  Never per-key Python; if the
    composite would overflow int64 (≳2^62 / time-span keys in ONE bucket)
    a per-segment probe loop takes over — raise ``n_buckets`` long before
    that.  Values scale to ints (``floor(x·s + .5)`` = SQL ROUND on
    non-negative input) so sums are exact.  Output: (id, win_sum) per
    input row, streaming."""
    from timberjack_ray.functions.corpus import _segments

    w = int(width_us)

    def per_bucket(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import scale_to_int_np

        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "win_sum": pa.array([], pa.int64())})
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        v = scale_to_int_np(t[val_col].to_numpy(zero_copy_only=False), scale)
        order = np.lexsort((ids, ts, k))
        ks, ts_s, vs = k[order], ts[order], v[order]
        starts, sizes = _segments(ks)
        n = len(ks)
        code = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        base = int(ts_s.min())
        rel = ts_s - base
        off = int(rel.max()) + w + 2
        csum = np.concatenate([[0], np.cumsum(vs)])
        if len(starts) * off < 2**62:
            comp = code * np.int64(off) + rel
            target = code * np.int64(off) + np.maximum(rel - w, 0)
            lo = np.searchsorted(comp, target, side="left")
            hi = np.searchsorted(comp, comp, side="right")
        else:  # pragma: no cover - composite overflow guard
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            for s, z in zip(starts, sizes):
                seg = ts_s[s:s + z]
                lo[s:s + z] = s + np.searchsorted(seg, seg - w, side="left")
                hi[s:s + z] = s + np.searchsorted(seg, seg, side="right")
        out = csum[hi] - csum[lo]
        return pa.table({id_col: pa.array(ids[order]),
                         "win_sum": pa.array(out)})

    return bucket_exchange(ds, [key_col], per_bucket, n_buckets)


def rolling_sum_per_key(ds, key_col: str, ts_col: str, id_col: str,
                        val_col: str, window: int, scale: int = 1,
                        n_buckets: int = 256) -> pd.DataFrame:
    """Driver-collected convenience over ``rolling_sum_per_key_ds`` —
    output is one row per INPUT row; at scale consume the Dataset
    (write / further map_batches) instead of collecting."""
    out = rolling_sum_per_key_ds(ds, key_col, ts_col, id_col, val_col,
                                 window, scale, n_buckets)
    frames = [b.to_pandas() for b in
              out.iter_batches(batch_size=None, batch_format="pyarrow")]
    frames = [f for f in frames if len(f)]
    if not frames:
        return pd.DataFrame({id_col: [], "roll_sum": []})
    return pd.concat(frames, ignore_index=True).sort_values(id_col) \
        .reset_index(drop=True)


def grouping_sets_sums(ds, keys: list[str], sets, val_col: str,
                       scale: int = 1, total_label: str = "ALL",
                       driver_limit: int | None = None):
    """SQL ``GROUP BY GROUPING SETS`` sums: one result row per (set,
    combo), with the keys OUTSIDE a set folded to ``total_label`` (the
    COALESCE('ALL') convention, so the oracle can replay it without NULL
    plumbing).  ``ROLLUP`` = the prefix sets, ``CUBE`` = the power set —
    both are thin wrappers.  Columns: ``keys + [f"sum_{val_col}_scaled",
    "n"]``.

    Scale shape: the EXPANSION happens inside ``map_batches`` — each
    batch collapses to (finest-grain combos × len(sets)) partial rows
    before anything crosses the exchange, so the merge volume is bounded
    by the distinct-combo count, never row count, and every grouping set
    comes out of ONE pass (no per-set re-scan of the input).  Sums run on
    the scaled-int domain (util.scale_to_int) so the reduction is
    order-independent and an oracle replays it exactly.

    GUARDED driver fold: the distinct-combo count is not bounded by
    construction (sets over a high-cardinality key are result-unbounded),
    so past ``driver_limit`` combos the fold degrades to a distributed
    multi-key ``groupby().Sum`` and returns that DATASET for the caller
    to stream (``merge_partials_or_ds``); pandas under the limit.
    """
    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.util import scale_to_int

    keys = list(keys)
    sets = [tuple(s) for s in sets]
    if len({frozenset(s) for s in sets}) != len(sets):
        # SQL emits duplicate rows for duplicate sets; the keyed merge
        # would silently SUM them together instead — refuse.  Compare as
        # frozensets: ('a','b') and ('b','a') expand to identical groups.
        raise ValueError("grouping_sets_sums: duplicate grouping sets")
    for s in sets:
        unknown = set(s) - set(keys)
        if unknown:
            raise ValueError(f"grouping_sets_sums: unknown keys {unknown}")
    sum_col = f"sum_{val_col}_scaled"

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        for k in keys:
            col = t[k]
            if col.null_count:
                # the oracle's COALESCE(k,'ALL') would fold data NULLs into
                # the set-total rows — refuse instead of silently
                # diverging (filter or fill nulls upstream)
                raise ValueError(f"grouping_sets_sums: null values in key {k!r}")
            if pc.any(pc.equal(col.cast(pa.string()), total_label)).as_py():
                raise ValueError(
                    f"grouping_sets_sums: key {k!r} contains the total "
                    f"sentinel {total_label!r} — pick a different total_label")
        base = pa.table(
            {k: t[k].cast(pa.string()) for k in keys}
            | {"__v": scale_to_int(t[val_col], scale)})
        outs = []
        for s in sets:
            lt = base
            for k in keys:
                if k not in s:
                    lt = lt.set_column(lt.schema.get_field_index(k), k,
                                       pa.array([total_label] * len(lt),
                                                type=pa.string()))
            g = lt.group_by(keys).aggregate([("__v", "sum"),
                                             ([], "count_all")])
            outs.append(g.rename_columns(keys + [sum_col, "n"]))
        return pa.concat_tables(outs)

    p = ds.map_batches(partial, batch_format="pyarrow")
    merged, mode = merge_partials_or_ds(p, keys, [sum_col, "n"],
                                        driver_limit)
    if mode == "distributed":
        return merged
    out = merged.to_pandas().sort_values(keys).reset_index(drop=True)
    out.attrs["mode"] = "driver"
    return out.astype({sum_col: "int64", "n": "int64"})


def rollup_sums(ds, keys: list[str], val_col: str, scale: int = 1,
                total_label: str = "ALL", driver_limit: int | None = None):
    """SQL ``GROUP BY ROLLUP(keys)`` sums — the key-prefix grouping sets;
    see :func:`grouping_sets_sums` for the shared one-pass plan."""
    keys = list(keys)
    sets = [tuple(keys[:i]) for i in range(len(keys), -1, -1)]
    return grouping_sets_sums(ds, keys, sets, val_col, scale=scale,
                              total_label=total_label,
                              driver_limit=driver_limit)


def cube_sums(ds, keys: list[str], val_col: str, scale: int = 1,
              total_label: str = "ALL", driver_limit: int | None = None):
    """SQL ``GROUP BY CUBE(keys)`` sums — every subset of ``keys`` as a
    grouping set (2^k sets, still ONE input pass); see
    :func:`grouping_sets_sums` for the shared plan."""
    keys = list(keys)
    sets = []
    for mask in range(2 ** len(keys) - 1, -1, -1):
        sets.append(tuple(k for i, k in enumerate(keys)
                          if mask & (1 << i)))
    return grouping_sets_sums(ds, keys, sets, val_col, scale=scale,
                              total_label=total_label,
                              driver_limit=driver_limit)


def grouped_comoment_sums(ds, group_col: str, x_col: str, y_col: str,
                          x_scale: int = 1, y_scale: int = 1,
                          driver_limit: int | None = None):
    """Per-group co-moment sums (n, Σx, Σy, Σxy) on the scaled-int domain —
    the sufficient statistics for covariance / Pearson r, computed exactly:
    integer sums are order-independent, so any engine (the SQL oracle)
    replays them bit-for-bit, unlike float covariance whose value depends
    on summation order.  cov = (Σxy − ΣxΣy/n)/n on the caller's side.

    One streaming pass; partial volume = #groups per batch; int64 Σxy
    bounds the domain to |x·scale|·|y·scale|·rows < 2⁶³ (fine for
    price×quantity at any realistic scale; re-bucket the group key and
    sum per bucket if a single group would overflow).

    GUARDED driver fold (one row per group is unbounded at high group
    cardinality): past ``driver_limit`` groups the fold degrades to a
    distributed ``groupby().Sum`` Dataset (``merge_partials_or_ds``)."""
    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.util import scale_to_int

    def partial(t: pa.Table) -> pa.Table:
        x = scale_to_int(t[x_col], x_scale).to_numpy()
        y = scale_to_int(t[y_col], y_scale).to_numpy()
        g = pa.table({group_col: t[group_col], "sum_x": pa.array(x),
                      "sum_y": pa.array(y), "sum_xy": pa.array(x * y)}) \
            .group_by(group_col).aggregate(
                [("sum_x", "sum"), ("sum_y", "sum"), ("sum_xy", "sum"),
                 ([], "count_all")])
        return g.rename_columns([group_col, "sum_x", "sum_y", "sum_xy", "n"])

    merged, mode = merge_partials_or_ds(
        ds.map_batches(partial, batch_format="pyarrow"),
        [group_col], ["sum_x", "sum_y", "sum_xy", "n"], driver_limit)
    if mode == "distributed":
        return merged
    out = merged.to_pandas().sort_values(group_col).reset_index(drop=True)
    out.attrs["mode"] = "driver"
    return out


def grouped_rank_ds(ds, group_col: str, val_col: str, id_col: str,
                    scale: int = 1, n_buckets: int = 256):
    """Per-group ordinal rank — SQL ``ROW_NUMBER() OVER (PARTITION BY g
    ORDER BY scaled(val), id)`` (the id tiebreak makes row_number and rank
    coincide and the result deterministic).  The rank/percent-rank feature
    normalization step: callers divide by the group count for a [0,1]
    score.

    Scale shape: same one-exchange bucket co-partition as
    ``rolling_sum_per_key_ds`` — inside a bucket ALL groups rank in one
    lexsort + segmented arange; output rows stream (one per input row),
    never the driver.  Returns a Dataset of (id, group, rank, n_group).
    """
    from timberjack_ray.functions.corpus import _segments
    from timberjack_ray.functions.util import scale_to_int

    proj = ds.select_columns([group_col, val_col, id_col])

    def per_bucket(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = scale_to_int(t[val_col], scale).to_numpy()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, v, g))
        gs = g[order]
        starts, sizes = _segments(gs)
        rank = np.arange(len(gs), dtype=np.int64) \
            - np.repeat(starts.astype(np.int64), sizes) + 1
        ng = np.repeat(sizes.astype(np.int64), sizes)
        return pa.table({id_col: pa.array(ids[order]),
                         group_col: pa.array(gs),
                         "rank": pa.array(rank),
                         "n_group": pa.array(ng)})

    return bucket_exchange(proj, [group_col], per_bucket, n_buckets)


def grouped_mad(ds, group_col: str, col: str, scale: int = 1) -> pd.DataFrame:
    """Per-group median absolute deviation on the scaled-int domain —
    robust spread for outlier-heavy telemetry (stddev is dominated by the
    tail this is meant to detect).  Two streaming histogram passes, both
    value-histogram-sized, never row-sized:

    1. per-group median via ``grouped_quantiles`` (exact, type-1);
    2. broadcast the (group → median) map, re-scan computing
       |scaled(x) − median| per row, and take that column's per-group
       median through the same histogram machinery.

    Output: (group, median_scaled, mad_scaled) — all exact int64, so the
    SQL oracle (nested quantile_disc) replays it bit-for-bit.
    """
    from timberjack_ray.functions.util import scale_to_int

    med = grouped_quantiles(ds, group_col, col, [0.5], scale)
    med_map = dict(zip(med[group_col], med["value_scaled"]))

    def add_dev(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = scale_to_int(t[col], scale).to_numpy()
        m = pd.Series(g).map(med_map).to_numpy(dtype=np.int64)
        return pa.table({group_col: pa.array(g),
                         "dev": pa.array(np.abs(v - m))})

    # pass 2 IS a grouped median again — reuse grouped_quantiles so the
    # oracle-critical type-1 rank walk exists in exactly one place
    dev_ds = ds.map_batches(add_dev, batch_format="pyarrow")
    mad = grouped_quantiles(dev_ds, group_col, "dev", [0.5], scale=1)
    out = mad.rename(columns={"value_scaled": "mad_scaled"}) \
        .drop(columns=["q"])
    out["median_scaled"] = out[group_col].map(med_map).astype("int64")
    return out[[group_col, "median_scaled", "mad_scaled"]] \
        .sort_values(group_col).reset_index(drop=True)


def range_partition_stats(ds, col: str, n_ranges: int = 8,
                          scale: int = 100) -> pd.DataFrame:
    """RANGE partitioning (the sort-exchange primitive hash partitioning
    can't provide): boundaries = exact type-1 quantiles at i/n_ranges from
    the per-distinct-value count histogram (one counting pass, never a
    sort), then every row assigns range_id = #boundaries < value in a
    second streaming pass; per-range (n, min, max) partials prove the
    ranges tile the domain in order.  This is the planning pass of a
    global sorted export: each range is an independently sortable,
    independently writable shard — at 100 TB the boundaries come from the
    same histogram (or a sampled one) and the per-range groupby is the
    only exchange.

    Returns (range_id, n, min_scaled, max_scaled) rows, range_id asc.
    """
    from timberjack_ray.functions.sessions import exact_quantiles
    from timberjack_ray.functions.util import scale_to_int

    qs = [i / n_ranges for i in range(1, n_ranges)]
    bounds = exact_quantiles(ds, col, qs, scale=scale)["value_scaled"] \
        .to_numpy().astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        v = scale_to_int(t[col], scale).to_numpy()
        rid = np.searchsorted(bounds, v, side="left").astype(np.int64)
        g = pa.table({"range_id": pa.array(rid), "v": pa.array(v)}) \
            .group_by("range_id").aggregate(
                [([], "count_all"), ("v", "min"), ("v", "max")])
        return g.rename_columns(["range_id", "n", "mn", "mx"])

    t = merge_partials(ds.map_batches(partial, batch_format="pyarrow"),
                       ["range_id"], ["n", "mn", "mx"],
                       ops=["sum", "min", "max"])
    out = t.rename_columns(["range_id", "n", "min_scaled", "max_scaled"]) \
        .to_pandas().sort_values("range_id").reset_index(drop=True)
    return out.astype({"range_id": "int64", "n": "int64",
                       "min_scaled": "int64", "max_scaled": "int64"})


def export_sorted(ds, col: str, out_dir: str, n_ranges: int = 8,
                  scale: int = 100, cols: list[str] | None = None) -> pd.DataFrame:
    """Global sorted export — the EXECUTION of ``range_partition_stats``'s
    plan: boundaries from the exact value histogram (one counting pass, no
    sort), every row assigned range_id = #boundaries < value, then ONE
    groupby(range_id) exchange co-locates each range and a per-range
    vectorized sort writes ``range=<id>/part.parquet`` atomically
    (tmp → rename): file k's values all ≤ file k+1's, each file internally
    sorted — a reader concatenating range dirs in id order streams the
    corpus globally sorted.  Per-range output is its own resume unit
    (re-runs skip ranges whose file already exists), VALIDATED by a
    config+boundary fingerprint in ``_export_manifest.json``: a resume
    against different parameters or boundaries (i.e. changed input) raises
    instead of silently mixing stale files with a fresh manifest — the
    same fingerprint-gated resume as the routing sinks.  Returns the
    manifest (range_id, n, min_scaled, max_scaled, path), range_id asc.

    At 100 TB: boundaries from the same (or a sampled) histogram; the one
    exchange moves each row once; range count sized so a range fits a
    worker's heap for the in-memory sort (or recurses on a second split).
    """
    import os

    from timberjack_ray.functions.sessions import exact_quantiles
    from timberjack_ray.functions.util import scale_to_int

    import json

    os.makedirs(out_dir, exist_ok=True)
    qs = [i / n_ranges for i in range(1, n_ranges)]
    bounds = exact_quantiles(ds, col, qs, scale=scale)["value_scaled"] \
        .to_numpy().astype(np.int64)
    fp = {"col": col, "n_ranges": n_ranges, "scale": scale,
          "cols": cols, "bounds": [int(b) for b in bounds]}
    fp_path = os.path.join(out_dir, "_export_manifest.json")
    if os.path.exists(fp_path):
        with open(fp_path) as f:
            prev = json.load(f)
        if prev != fp:
            raise ValueError(
                f"{out_dir} holds a previous export with different "
                "parameters or boundaries (input changed?) — clean it or "
                "pick a new out_dir; refusing a mixed-stale resume")
    else:
        tmp = fp_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(fp, f)
        os.replace(tmp, fp_path)

    def assign(t: pa.Table) -> pa.Table:
        if cols:
            t = t.select(cols)
        v = scale_to_int(t[col], scale).to_numpy()
        rid = np.searchsorted(bounds, v, side="left").astype(np.int64)
        return t.append_column("__rid", pa.array(rid)) \
            .append_column("__v", pa.array(v))

    def write_range(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        rid = int(t["__rid"][0].as_py())
        vs = t["__v"].to_numpy(zero_copy_only=False)
        order = np.argsort(vs, kind="stable")
        body = t.drop_columns(["__rid", "__v"]).take(pa.array(order))
        d = os.path.join(out_dir, f"range={rid}")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, "part.parquet")
        if not os.path.exists(path):  # resume: finished ranges skip
            tmp = path + ".tmp"
            pq.write_table(body, tmp)
            os.replace(tmp, path)
        return pa.table({
            "range_id": pa.array([rid], pa.int64()),
            "n": pa.array([t.num_rows], pa.int64()),
            "min_scaled": pa.array([int(vs.min())], pa.int64()),
            "max_scaled": pa.array([int(vs.max())], pa.int64()),
            "path": pa.array([path], pa.string()),
        })

    manifest = ds.map_batches(assign, batch_format="pyarrow") \
        .groupby("__rid") \
        .map_groups(write_range, batch_format="pyarrow") \
        .to_pandas()
    return manifest.sort_values("range_id").reset_index(drop=True)


def grouped_outlier_counts(ds, group_col: str, col: str, k: int = 3,
                           scale: int = 100) -> pd.DataFrame:
    """Robust per-group anomaly counts: events where |scaled(x) − median|
    > k · MAD — the modified-z-score outlier rule with an exact INTEGER
    inequality (no float threshold to disagree over).  Three streaming
    passes, the first two histogram-sized (``grouped_mad``), the third a
    broadcast (group → median, mad) map + per-batch counter partials;
    merge volume = #groups.  Output (group, n_total, n_outliers)."""
    from timberjack_ray.aggregates import merge_partials
    from timberjack_ray.functions.util import scale_to_int

    mad = grouped_mad(ds, group_col, col, scale)
    med_map = dict(zip(mad[group_col], mad["median_scaled"]))
    mad_map = dict(zip(mad[group_col], mad["mad_scaled"]))

    def partial(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False)
        v = scale_to_int(t[col], scale).to_numpy()
        m = pd.Series(g).map(med_map).to_numpy(dtype=np.int64)
        d = pd.Series(g).map(mad_map).to_numpy(dtype=np.int64)
        out = (np.abs(v - m) > k * d).astype(np.int64)
        tbl = pa.table({group_col: pa.array(g),
                        "n_total": pa.array(np.ones(len(g), np.int64)),
                        "n_outliers": pa.array(out)})
        gby = tbl.group_by([group_col]).aggregate(
            [("n_total", "sum"), ("n_outliers", "sum")])
        return gby.rename_columns([group_col, "n_total", "n_outliers"])

    folded = merge_partials(ds.map_batches(partial, batch_format="pyarrow"),
                            [group_col], ["n_total", "n_outliers"])
    return folded.to_pandas().sort_values(group_col) \
        .reset_index(drop=True) \
        .astype({"n_total": "int64", "n_outliers": "int64"})


def _skyline_scan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean skyline mask for MAXIMIZE-x / MINIMIZE-y dominance:
    keep rows no other row beats on both dims (strictly on at least one);
    exact ties on both dims all survive.  Fully vectorized: one lexsort
    (x desc, y asc), per-equal-x-group minima, and a running min over
    strictly-higher-x groups — a row survives iff it matches its group's
    min y AND that min is strictly below every higher-x row's y."""
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((y, -x))
    xs, ys = x[order], y[order]
    new_grp = np.r_[True, xs[1:] != xs[:-1]]
    gid = np.cumsum(new_grp) - 1
    gmin = ys[new_grp]  # ys ascending within a group => first is the min
    sentinel = np.iinfo(np.int64).max
    prev_best = np.r_[sentinel, np.minimum.accumulate(gmin)[:-1]]
    keep_sorted = (ys == gmin[gid]) & (ys < prev_best[gid])
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def pareto_skyline(ds, max_col: str, min_col: str, scale_max: int = 1,
                   scale_min: int = 1, driver_limit: int = 2_000_000
                   ) -> pd.DataFrame:
    """2-D Pareto skyline (the SKYLINE / maximal-vector operator): rows
    not dominated by any other row — maximize ``max_col``, minimize
    ``min_col``; dominance is >= / <= with strict on at least one dim;
    exact ties on both dims all survive.

    Scale shape: the skyline DISTRIBUTES over union — skyline(A ∪ B) ⊆
    skyline(A) ∪ skyline(B) — so each batch reduces to its local skyline
    (one lexsort + running-min scan) and the driver re-runs the same
    scan over the concatenated local skylines (guarded; skylines of
    random data are ~O(log²) of batch size).  Values are scaled to
    int64 so dominance ties are exact and the SQL NOT-EXISTS oracle
    replays them bit-for-bit.
    """
    import pyarrow.compute as pc

    from timberjack_ray.functions.util import scale_to_int

    def as_int(col, scale):
        # timestamps compare as epoch microseconds (exact); numerics
        # scale to ints so dominance ties are exact
        if pa.types.is_timestamp(col.type):
            return pc.cast(col, pa.int64())
        return scale_to_int(col, scale)

    def local(t: pa.Table) -> pa.Table:
        x = as_int(t[max_col].combine_chunks(), scale_max).to_numpy()
        y = as_int(t[min_col].combine_chunks(), scale_min).to_numpy()
        keep = _skyline_scan(x, y)
        return pa.table({max_col: pa.array(x[keep]),
                         min_col: pa.array(y[keep])})

    rows = []
    total = 0
    for b in ds.map_batches(local, batch_format="pyarrow") \
               .iter_batches(batch_size=None, batch_format="pyarrow"):
        if b.num_rows:
            rows.append(b)
            total += b.num_rows
            if total > driver_limit:
                raise ValueError(
                    "pareto_skyline: local skylines exceed driver_limit "
                    "— re-reduce via a second distributed pass")
    if not rows:
        return pd.DataFrame({max_col: pd.Series([], dtype="int64"),
                             min_col: pd.Series([], dtype="int64")})
    t = pa.concat_tables(rows)
    x = t[max_col].to_numpy(zero_copy_only=False)
    y = t[min_col].to_numpy(zero_copy_only=False)
    keep = _skyline_scan(x, y)
    out = pd.DataFrame({max_col: x[keep], min_col: y[keep]})
    return out.sort_values([max_col, min_col]).reset_index(drop=True) \
        .astype({max_col: "int64", min_col: "int64"})


def asof_join_bucketed(left_ds, right_ds, left_by: str, left_on: str,
                       right_by: str, right_on: str, left_cols: list[str],
                       n_buckets: int = 64, direction: str = "backward"):
    """Backward (default) or forward as-of join for two LARGE sides
    (neither fits a broadcast)
    — the documented scale path of :func:`asof_join`: co-partition both
    inputs on ``by`` with one ``bucket_cogroup`` of typed Arrow slices
    (same GRACE shape as :func:`bucket_hash_join`, one Ray Data execution,
    no schema probe), then resolve each bucket with a fully vectorized
    sort-merge: one lexsort of the combined rows by (key, time, side) and
    a segment-reset running max (the ``code·(n+1) + pos`` cummax trick —
    no per-key Python) finds, for every left row, the latest right row
    with the same key and ``right_on <= left_on``.

    Returns a Dataset (inner join) with columns ``[left_by,
    left_on, *left_cols, f"{right_on}_matched"]``; the two time columns
    are int64 epoch microseconds so downstream arithmetic is exact.  Only
    the matched right TIME is emitted — it is tie-unambiguous (the max
    right time ≤ t) regardless of duplicate right rows, so the operator
    stays deterministic under any partitioning; carry right payloads by
    joining back on (key, matched time) with a defined tie rule.

    Scale shape: each row crosses the exchange exactly once; per-bucket
    memory is ~(|L|+|R|)/n_buckets — size ``n_buckets`` so a bucket fits a
    worker heap.  Keys must be non-null integers (raises otherwise).

    ``direction="forward"`` matches the EARLIEST right row with
    ``right_on >= left_on`` instead — implemented by negating the time
    axis on the way in and back out, so both directions share one kernel
    (forward-inclusive ties hold because backward is inclusive).
    """
    import pyarrow.compute as pc

    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be backward|forward, got {direction!r}")
    sign = np.int64(-1 if direction == "forward" else 1)
    matched_col = f"{right_on}_matched"

    def _as_us(col):
        out = pc.cast(col, pa.int64())
        return pc.multiply(out, pa.scalar(int(sign), pa.int64())) \
            if sign < 0 else out

    def prep(by: str, on: str, cols: list[str]):
        def f(t: pa.Table) -> pa.Table:
            k = t[by]
            if k.null_count:
                raise ValueError(f"asof_join_bucketed: null {by} keys")
            return pa.table([pc.cast(k, pa.int64()),
                             _as_us(t[on].combine_chunks())]
                            + [t[c] for c in cols],
                            names=["__k", "__t"] + cols)
        return f

    def bucket_join(lt: pa.Table | None, rt: pa.Table | None) -> pa.Table:
        # a side with no blocks at all sends no slice (None)
        nr = rt.num_rows if rt is not None else 0
        nl = lt.num_rows if lt is not None else 0
        if nl == 0:
            return pa.table({left_by: pa.array([], pa.int64()),
                             left_on: pa.array([], pa.int64()),
                             **{c: pa.nulls(0) if lt is None else lt[c]
                                for c in left_cols},
                             matched_col: pa.array([], pa.int64())})
        # right rows first, then left rows: ``side`` is 0 for right, 1 for
        # left, and a left row's position in ``lt`` is its index minus nr
        parts = [rt, lt] if nr else [lt]
        k = np.concatenate([p["__k"].to_numpy() for p in parts])
        ts = np.concatenate([p["__t"].to_numpy() for p in parts])
        side = np.r_[np.zeros(nr, np.int8), np.ones(nl, np.int8)]
        n = nr + nl
        # right rows sort before left rows on equal (key, time): backward
        # as-of is INCLUSIVE of right_on == left_on
        order = np.lexsort((side, ts, k))
        ks, ts_s, side_s = k[order], ts[order], side[order]
        code = np.cumsum(np.r_[True, ks[1:] != ks[:-1]]) - 1
        pos = np.arange(n, dtype=np.int64)
        val = np.where(side_s == 0, pos + 1, 0)
        cm = np.maximum.accumulate(code * np.int64(n + 1) + val)
        ptr = cm - code * np.int64(n + 1) - 1  # sorted-pos of latest right
        is_left = side_s == 1
        hit = is_left & (ptr >= 0)
        matched = ts_s[np.where(hit, ptr, 0)]
        keep_sorted = np.flatnonzero(hit)
        orig = order[keep_sorted] - nr
        out = {left_by: pa.array(ks[keep_sorted]),
               left_on: pa.array(sign * ts_s[keep_sorted])}
        for c in left_cols:
            out[c] = lt[c].take(pa.array(orig))
        out[matched_col] = pa.array(sign * matched[keep_sorted])
        return pa.table(out)

    return bucket_cogroup(
        [(left_ds.map_batches(prep(left_by, left_on, left_cols),
                              batch_format="pyarrow"), ["__k"]),
         (right_ds.map_batches(prep(right_by, right_on, []),
                               batch_format="pyarrow"), ["__k"])],
        bucket_join, n_buckets)


def range_join_bucketed(left_ds, right_ds, left_by: str, left_on: str,
                        left_id: str, right_by: str, right_on: str,
                        right_id: str, lo_us: int, hi_us: int,
                        n_buckets: int = 64):
    """Banded range join for two LARGE sides — the documented scale path
    of :func:`range_join` (whose right side broadcasts): co-partition
    both inputs by ``hash(by) % n_buckets`` with ONE tagged-union GRACE
    exchange (same shape as :func:`asof_join_bucketed`), then resolve
    each bucket fully vectorized: right rows sort once by (key, time)
    and BOTH band bounds ``[t + lo_us, t + hi_us]`` (inclusive) come
    from global ``np.searchsorted`` over a composite ``segment·OFF +
    (ts − base)`` key — OFF > bucket-span + 2 keeps segments disjoint
    and the clip into [0, span+1] keeps every probe inside its own key's
    run, so no per-key Python at any cardinality.  Matches emit by a
    ragged arange expand.

    Returns a streaming Dataset of (``a_id``, ``b_id``) pairs (left id,
    matched right id) — fan-out is band-width-bounded per row.  Keys
    must be non-null integers."""
    import pyarrow.compute as pc

    lo_us, hi_us = int(lo_us), int(hi_us)

    def prep(by_col: str, on_col: str, id_col: str, side: int):
        def f(t: pa.Table) -> pa.Table:
            k = t[by_col]
            if k.null_count:
                raise ValueError(f"range_join_bucketed: null {by_col} keys")
            return pa.table({
                "__side": pa.array(np.full(t.num_rows, side, np.int8)),
                "__k": pc.cast(k, pa.int64()),
                "__t": pc.cast(t[on_col], pa.int64()),
                "__id": pc.cast(t[id_col], pa.int64())})
        return f

    tagged = [left_ds.map_batches(prep(left_by, left_on, left_id, 1),
                                  batch_format="pyarrow"),
              right_ds.map_batches(prep(right_by, right_on, right_id, 0),
                                   batch_format="pyarrow")]

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"a_id": pa.array([], pa.int64()),
                          "b_id": pa.array([], pa.int64())})
        side = t["__side"].to_numpy(zero_copy_only=False)
        if len(side) == 0 or not (side == 1).any() or not (side == 0).any():
            return empty
        k = t["__k"].to_numpy(zero_copy_only=False)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        rid = t["__id"].to_numpy(zero_copy_only=False)
        is_r = side == 0
        rk, rt, rv = k[is_r], ts[is_r], rid[is_r]
        lk, lt, lv = k[~is_r], ts[~is_r], rid[~is_r]
        ro = np.lexsort((rt, rk))
        rk, rt, rv = rk[ro], rt[ro], rv[ro]
        # right keys → dense codes; left keys map in via searchsorted
        rstarts = np.flatnonzero(np.r_[True, rk[1:] != rk[:-1]])
        rkeys = rk[rstarts]
        lcode = np.searchsorted(rkeys, lk)
        has_key = (lcode < len(rkeys))
        lcode_c = np.minimum(lcode, len(rkeys) - 1)
        has_key &= rkeys[lcode_c] == lk
        rcode = np.cumsum(np.r_[True, rk[1:] != rk[:-1]]) - 1
        base = int(min(rt.min(), lt.min()))
        span = int(max(rt.max(), lt.max())) - base
        off = span + 2
        if len(rkeys) * off >= 2**62:  # pragma: no cover - overflow guard
            raise ValueError("range_join_bucketed: composite overflow — "
                             "raise n_buckets")
        comp_r = rcode * np.int64(off) + (rt - base)
        lrel = lt - base
        tlo = np.clip(lrel + lo_us, 0, span + 1)
        thi = np.clip(lrel + hi_us + 1, 0, span + 1)
        lo_i = np.searchsorted(comp_r, lcode_c * np.int64(off) + tlo, "left")
        hi_i = np.searchsorted(comp_r, lcode_c * np.int64(off) + thi, "left")
        n = np.where(has_key, hi_i - lo_i, 0)
        total = int(n.sum())
        if total == 0:
            return empty
        cum = np.cumsum(n)
        flat = (np.arange(total, dtype=np.int64)
                - np.repeat(cum - n, n) + np.repeat(lo_i, n))
        return pa.table({"a_id": pa.array(np.repeat(lv, n)),
                         "b_id": pa.array(rv[flat])})

    return bucket_exchange(tagged, ["__k"], per_bucket, n_buckets)


def cogroup_counts(left_ds, right_ds, left_key: str, right_key: str,
                   n_buckets: int = 64):
    """FULL OUTER join of per-key COUNTS from two large sides as a
    COGROUP: per-batch (key, n) partials from each side are tagged and
    union'd through ONE ``hash(key) % n_buckets`` exchange; inside a
    bucket each side's partials complete with a C ``group_by`` and a
    vectorized searchsorted pivot scatters them into (key, n_left,
    n_right) — keys missing from a side get 0, which is exactly FULL
    OUTER semantics, by construction rather than by a join algorithm.

    Scale shape: the exchange carries partial-count rows (≤ distinct
    keys per batch per side), never raw rows; output is one streaming
    row per distinct key.  Keys must be non-null integers (raises)."""
    import pyarrow.compute as pc

    def prep(key_col: str, side: int):
        def f(t: pa.Table) -> pa.Table:
            k = t[key_col]
            if k.null_count:
                raise ValueError(f"cogroup_counts: null keys in {key_col!r}")
            g = pa.table({"__k": pc.cast(k, pa.int64())}) \
                .group_by(["__k"]).aggregate([([], "count_all")]) \
                .rename_columns(["__k", "n"])
            return g.append_column(
                "__side", pa.array(np.full(len(g), side, np.int8)))
        return f

    tagged = [left_ds.map_batches(prep(left_key, 0), batch_format="pyarrow"),
              right_ds.map_batches(prep(right_key, 1), batch_format="pyarrow")]

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"key": pa.array([], pa.int64()),
                          "n_left": pa.array([], pa.int64()),
                          "n_right": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        g = t.group_by(["__k", "__side"]).aggregate([("n", "sum")])
        k = g["__k"].to_numpy(zero_copy_only=False)
        s = g["__side"].to_numpy(zero_copy_only=False)
        n = g["n_sum"].to_numpy(zero_copy_only=False)
        uniq = np.unique(k)
        pos = np.searchsorted(uniq, k)
        a = np.zeros(len(uniq), np.int64)
        b = np.zeros(len(uniq), np.int64)
        a[pos[s == 0]] = n[s == 0]
        b[pos[s == 1]] = n[s == 1]
        return pa.table({"key": pa.array(uniq),
                         "n_left": pa.array(a), "n_right": pa.array(b)})

    return bucket_exchange(tagged, ["__k"], per_bucket, n_buckets)


def skew_join(left_ds, right_ds, left_key: str, right_key: str,
              left_cols: list[str], right_cols: list[str],
              hot_limit: int = 64, n_buckets: int = 64,
              join_type: str = "inner", bucket_fn=None,
              hot_right_limit: int = 2_000_000, n_salts: int = 8):
    """Skew-aware large×large hash join — the hot-key hybrid the brief's
    "salt hot keys" guidance asks for: a GRACE bucket join collapses
    under key skew because every occurrence of a key lands in ONE bucket
    (one straggler task holds the whole hot key), so the hottest keys
    take the BROADCAST path instead and only the cold remainder crosses
    the GRACE exchange.

    Plan: (1) one streaming count pass over the LEFT (probe) side's key
    partials — merge volume = distinct keys per batch, top ``hot_limit``
    keys by count are "hot"; (2) the RIGHT rows carrying hot keys fold
    to the driver and broadcast — GUARDED by ``hot_right_limit``
    (``collect_table_under``): a skewed fact join's hot right slice is
    dimension-like and small, but if the right side is ALSO skew-heavy
    on the same keys the fold would be unbounded, so past the limit the
    hot rows take a SALTED GRACE join instead (dense hot-key index ×
    ``n_salts``; right hot rows replicate ``n_salts`` ways, left hot
    rows spread round-robin — each hot key fans across ``n_salts``
    buckets instead of collapsing into one straggler); (3) hot left
    rows join map-side against the broadcast slice inside the SAME
    filter pass that routes cold rows into the GRACE exchange — the hot
    rows never shuffle at all (broadcast path).  Output = union of both
    paths (same schema as :func:`bucket_hash_join`); ``bucket_fn``
    (per-bucket post-join transform) applies to BOTH paths so
    grouped-aggregate tails stay correct — except under the salted
    fallback, where a key's rows span salts and per-key aggregates
    inside ``bucket_fn`` would be partial: that combination raises.

    INNER only: the hot path joins each left batch against the right
    slice independently, which would emit unmatched right rows once per
    batch (or drop them) for right/full outer semantics.
    """
    if join_type != "inner":
        raise ValueError(
            f"skew_join: join_type={join_type!r} unsupported — the hot "
            "broadcast path is per-left-batch and only inner semantics "
            "survive that; use bucket_hash_join for outer joins")
    import pyarrow.compute as pc

    from timberjack_ray.aggregates import merge_partials

    def key_counts(t: pa.Table) -> pa.Table:
        g = pa.table({"k": pc.cast(t[left_key], pa.int64())}) \
            .group_by(["k"]).aggregate([([], "count_all")])
        return g.rename_columns(["k", "n"])

    counts = merge_partials(
        left_ds.map_batches(key_counts, batch_format="pyarrow"),
        ["k"], "n").to_pandas()
    hot = counts.nlargest(hot_limit, "n")["k"].to_numpy(np.int64)
    hot_sorted = np.sort(hot)

    def split(key_col: str, keep_hot: bool):
        def f(t: pa.Table) -> pa.Table:
            k = pc.cast(t[key_col], pa.int64()).to_numpy(zero_copy_only=False)
            idx = np.searchsorted(hot_sorted, k)
            idx_c = np.minimum(idx, max(len(hot_sorted) - 1, 0))
            is_hot = (len(hot_sorted) > 0) & (hot_sorted[idx_c] == k) \
                if len(hot_sorted) else np.zeros(len(k), bool)
            return t.filter(pa.array(is_hot if keep_hot else ~is_hot))
        return f

    # hot slice of the right side: GUARDED driver fold + broadcast
    import ray

    from timberjack_ray.functions.util import collect_table_under

    # one map, so a right side with no hot key still collects typed
    hot_right_ds = right_ds.select_columns([right_key] + right_cols) \
        .map_batches(split(right_key, True), batch_format="pyarrow")
    hot_right = collect_table_under(hot_right_ds, hot_right_limit)

    hot_left_ds = left_ds.map_batches(split(left_key, True),
                                      batch_format="pyarrow")

    if hot_right is not None:
        hot_ref = ray.put(hot_right)

        def hot_join(t: pa.Table) -> pa.Table:
            r = fetch_broadcast(hot_ref)
            lt = t.select([left_key] + left_cols)
            out = lt.join(r, keys=left_key, right_keys=right_key,
                          join_type=join_type)
            out = out.select([left_key] + left_cols + right_cols)
            return bucket_fn(out) if bucket_fn is not None else out

        hot_out = hot_left_ds.map_batches(hot_join, batch_format="pyarrow")
    else:
        # Both sides hot: salted replication.  Hot keys are few (dense
        # index via hot_sorted), so the composite __skewk = didx*S + salt
        # stays tiny and collision-free while fanning each hot key over
        # n_salts GRACE buckets.
        if bucket_fn is not None:
            raise ValueError(
                "skew_join: hot right slice exceeds hot_right_limit and "
                "bucket_fn is set — per-key aggregates would be partial "
                "across salts; pre-aggregate the right side or raise "
                "hot_right_limit")

        def salt_left(t: pa.Table) -> pa.Table:
            k = pc.cast(t[left_key], pa.int64()).to_numpy(
                zero_copy_only=False)
            didx = np.searchsorted(hot_sorted, k).astype(np.int64)
            salt = np.arange(len(k), dtype=np.int64) % n_salts
            return t.select([left_key] + left_cols).append_column(
                "__skewk", pa.array(didx * n_salts + salt))

        def salt_right(t: pa.Table) -> pa.Table:
            k = pc.cast(t[right_key], pa.int64()).to_numpy(
                zero_copy_only=False)
            didx = np.searchsorted(hot_sorted, k).astype(np.int64)
            reps = []
            for s in range(n_salts):
                reps.append(t.select(right_cols).append_column(
                    "__skewk", pa.array(didx * n_salts + s)))
            return pa.concat_tables(reps)

        salted = bucket_hash_join(
            hot_left_ds.map_batches(salt_left, batch_format="pyarrow"),
            hot_right_ds.map_batches(salt_right, batch_format="pyarrow"),
            "__skewk", "__skewk", [left_key] + left_cols, right_cols,
            n_buckets=n_buckets, join_type="inner")
        hot_out = salted.map_batches(
            lambda t: t.select([left_key] + left_cols + right_cols),
            batch_format="pyarrow")

    cold_out = bucket_hash_join(
        left_ds.map_batches(split(left_key, False), batch_format="pyarrow"),
        right_ds.map_batches(split(right_key, False), batch_format="pyarrow"),
        left_key, right_key, left_cols, right_cols,
        n_buckets=n_buckets, join_type=join_type, bucket_fn=bucket_fn)
    return hot_out.union(cold_out)


def _morton_spread16(v: np.ndarray) -> np.ndarray:
    """Spread each of the low 16 bits of ``v`` to the even bit positions
    (classic magic-mask interleave), vectorized int64."""
    v = v.astype(np.int64)
    v = (v | (v << 8)) & np.int64(0x00FF00FF)
    v = (v | (v << 4)) & np.int64(0x0F0F0F0F)
    v = (v | (v << 2)) & np.int64(0x33333333)
    v = (v | (v << 1)) & np.int64(0x55555555)
    return v


def zorder_layout_stats(ds, x_col: str, y_col: str, n_ranges: int = 16,
                        bits: int = 16) -> pd.DataFrame:
    """Z-ORDER (Morton-curve) clustering layout — the lakehouse
    multi-dimension data-skipping optimization: interleaving the bits of
    two columns orders rows so that CONTIGUOUS curve ranges have small
    bounding boxes in BOTH dimensions, letting min/max zone maps prune
    scans filtered on either column (a single-column sort can only ever
    prune one).  This op plans the layout and PROVES the property:
    per-range (n, min/max of both dims).  ``bits`` must be ≤ 16 — the
    spread kernel interleaves the low 16 bits only.

    Three streaming passes, no sort: (1) global minima (one tiny partial
    per batch) rebase both dims to ≥0; (2) the exact Morton-value
    histogram (domain-product-bounded — guard: values must fit ``bits``)
    yields equi-depth type-1 quantile boundaries; (3) every row assigns
    range_id = #boundaries < morton and folds per-range stats.  All
    integers; the oracle replays the interleave as a 2·bits-term SQL
    bit expression.  The execution twin is ``export_sorted`` keyed on
    the morton column."""
    import pyarrow.compute as pc

    from timberjack_ray.functions.sessions import exact_quantiles

    if not 1 <= bits <= 16:
        raise ValueError(
            f"zorder_layout_stats: bits={bits} out of range — the magic-mask "
            "spread interleaves the low 16 bits only; coarsen (bucket) the "
            "dimensions instead of raising bits")

    def mins(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy(zero_copy_only=False)
        y = t[y_col].to_numpy(zero_copy_only=False)
        if len(x) == 0:
            return pa.table({"mx": pa.array([], pa.int64()),
                             "my": pa.array([], pa.int64())})
        return pa.table({"mx": pa.array([int(x.min())]),
                         "my": pa.array([int(y.min())])})

    m = ds.map_batches(mins, batch_format="pyarrow").to_pandas()
    if not len(m):  # empty input: no ranges
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in
                             ["range_id", "n", "min_x", "max_x", "min_y",
                              "max_y"]})
    x0, y0 = int(m["mx"].min()), int(m["my"].min())

    def morton_of(t: pa.Table) -> np.ndarray:
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64) - x0
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64) - y0
        if len(x) and (int(x.max()) >= 2**bits or int(y.max()) >= 2**bits):
            raise ValueError(
                f"zorder_layout_stats: rebased dim exceeds {bits} bits — "
                "coarsen the dimension (bucket it) first")
        return _morton_spread16(x) | (_morton_spread16(y) << 1)

    def mtbl(t: pa.Table) -> pa.Table:
        return pa.table({"m": pa.array(morton_of(t))})

    qs = [i / n_ranges for i in range(1, n_ranges)]
    bounds = exact_quantiles(ds.map_batches(mtbl, batch_format="pyarrow"),
                             "m", qs, scale=1)["value_scaled"] \
        .to_numpy().astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({c: pa.array([], pa.int64()) for c in
                             ["range_id", "n", "min_x", "max_x",
                              "min_y", "max_y"]})
        mm = morton_of(t)
        rid = np.searchsorted(bounds, mm, side="left").astype(np.int64)
        g = pa.table({
            "range_id": pa.array(rid),
            "x": pc.cast(t[x_col], pa.int64()),
            "y": pc.cast(t[y_col], pa.int64())}) \
            .group_by("range_id").aggregate(
                [([], "count_all"), ("x", "min"), ("x", "max"),
                 ("y", "min"), ("y", "max")])
        return g.rename_columns(["range_id", "n", "min_x", "max_x",
                                 "min_y", "max_y"])

    out = merge_partials(
        ds.map_batches(partial, batch_format="pyarrow"), ["range_id"],
        ["n", "min_x", "max_x", "min_y", "max_y"],
        ops=["sum", "min", "max", "min", "max"]).to_pandas() \
        .sort_values("range_id").reset_index(drop=True)
    return out.astype({c: "int64" for c in out.columns})


def auto_join(left_ds, right_ds, left_key: str, right_key: str,
              left_cols: list[str], right_cols: list[str],
              broadcast_limit: int = 500_000, hot_limit: int = 64,
              hot_frac: float = 0.05, n_buckets: int = 64,
              bucket_fn=None):
    """Cost-based INNER-join planner over the three physical join
    operators — the decision every query engine makes, made explicit:

    1. the RIGHT side streams to the driver; at most ``broadcast_limit``
       rows (an empty side included) are broadcast
       (:func:`broadcast_join` — no exchange at all);
    2. otherwise a LEFT key-count pre-pass (distinct-key partials) looks
       for skew: if the hottest key carries more than ``hot_frac`` of
       the rows, :func:`skew_join` routes the hot keys around the
       exchange;
    3. otherwise the plain GRACE :func:`bucket_hash_join`.

    Results are PLAN-INVARIANT (the point: the same query hash-checks
    whichever path the data's scale/skew selects — at sf0.001 a
    dimension side broadcasts, at sf0.1 the same query takes the GRACE
    exchange).  Returns (Dataset, plan) with plan ∈ {"broadcast",
    "skew", "grace"}.  ``bucket_fn`` applies under every plan (for the
    broadcast path it runs per joined batch)."""
    import pyarrow.compute as pc

    from timberjack_ray.functions.util import collect_table_under

    right = collect_table_under(
        right_ds.select_columns([right_key] + right_cols), broadcast_limit)
    if right is not None:
        # the inner join of the two projections yields exactly
        # [left_key] + left_cols + right_cols (right key coalesced)
        joined = broadcast_join(left_ds.select_columns(
            [left_key] + left_cols), right, keys=left_key,
            right_keys=right_key, join_type="inner")
        if bucket_fn is not None:
            joined = joined.map_batches(bucket_fn, batch_format="pyarrow")
        return joined, "broadcast"

    def key_counts(t: pa.Table) -> pa.Table:
        g = pa.table({"k": pc.cast(t[left_key], pa.int64())}) \
            .group_by(["k"]).aggregate([([], "count_all")])
        return g.rename_columns(["k", "n"])

    counts = merge_partials(
        left_ds.map_batches(key_counts, batch_format="pyarrow"),
        ["k"], "n").to_pandas()
    l_n = int(counts["n"].sum())
    hottest = int(counts["n"].max()) if len(counts) else 0

    if l_n and hottest > hot_frac * l_n:
        return skew_join(left_ds, right_ds, left_key, right_key,
                         left_cols, right_cols, hot_limit=hot_limit,
                         n_buckets=n_buckets,
                         bucket_fn=bucket_fn), "skew"
    return bucket_hash_join(left_ds, right_ds, left_key, right_key,
                            left_cols, right_cols, n_buckets=n_buckets,
                            bucket_fn=bucket_fn), "grace"


def grouped_regression_sums(ds, group_col: str, x_col: str, y_col: str,
                            driver_limit: int | None = None):
    """Per-group OLS sufficient statistics (n, Σx, Σy, Σxy, Σx²) over
    ALREADY-INTEGER x/y columns — everything downstream (slope, intercept,
    Pearson r) is a RATIONAL in these five integers, so callers can rank
    and emit exact scaled values that any engine replays bit-for-bit
    (``slope = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²)``); no float summation
    order ever enters.

    One streaming pass; partial volume = #groups per batch.  int64 bounds
    the per-batch sums (|x·y| · batch_rows < 2⁶³ — rebase x to a small
    epoch, e.g. hours since the corpus start, before calling); the DRIVER
    merge accumulates in Python ints via pandas object fallback only in
    the caller.  GUARDED fold like ``grouped_comoment_sums``: past
    ``driver_limit`` groups it degrades to a distributed groupby Dataset.
    """
    import pyarrow.compute as pc

    from timberjack_ray.aggregates import merge_partials_or_ds

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(t[x_col], pa.int64()).to_numpy()
        y = pc.cast(t[y_col], pa.int64()).to_numpy()
        g = pa.table({group_col: t[group_col], "sum_x": pa.array(x),
                      "sum_y": pa.array(y), "sum_xy": pa.array(x * y),
                      "sum_xx": pa.array(x * x)}) \
            .group_by(group_col).aggregate(
                [("sum_x", "sum"), ("sum_y", "sum"), ("sum_xy", "sum"),
                 ("sum_xx", "sum"), ([], "count_all")])
        return g.rename_columns([group_col, "sum_x", "sum_y", "sum_xy",
                                 "sum_xx", "n"])

    merged, mode = merge_partials_or_ds(
        ds.map_batches(partial, batch_format="pyarrow"),
        [group_col], ["sum_x", "sum_y", "sum_xy", "sum_xx", "n"],
        driver_limit)
    if mode == "distributed":
        return merged
    out = merged.to_pandas().sort_values(group_col).reset_index(drop=True)
    out.attrs["mode"] = "driver"
    return out


def _ratio_ppm(num: int, den: int, scale: int = 1_000_000) -> int:
    """Exact sign·(|num|·scale // den) — the floor-of-magnitude scaled
    rational both Python and the DuckDB oracle compute identically
    (DuckDB ``//`` truncates toward zero, so both sides divide
    NON-NEGATIVE magnitudes; den must be > 0)."""
    if den <= 0:
        raise ValueError("_ratio_ppm: denominator must be positive")
    mag = (abs(int(num)) * scale) // int(den)
    return -mag if num < 0 else mag


def grouped_hhi_ds(ds, key_col: str, cat_col: str, n_buckets: int = 256):
    """Per-key Herfindahl–Hirschman concentration of a category column in
    PARTS-PER-MILLION: ``hhi_ppm = floor(Σc_i² · 10⁶ / (Σc_i)²)`` where
    c_i counts category i's rows for that key — 10⁶ = single-category,
    10⁶/k = uniform over k.  Integer-exact end to end (replayable in SQL).

    Scale shape: per-batch (key, cat) count partials collapse each batch
    to its distinct pairs; ONE bucket exchange on hash(key) co-locates
    every partial of a key; per bucket a lexsort + two segmented
    reductions (inner (key,cat) sums, then per-key Σc and Σc²) emit one
    row per key.  Output streams — one row per key, never a driver fold.
    Returns a Dataset of (key, n_rows, hhi_ppm)."""
    from timberjack_ray.functions.corpus import _segments

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key_col, cat_col]).group_by([key_col, cat_col]) \
            .aggregate([([], "count_all")])
        return g.rename_columns([key_col, cat_col, "pc_"])

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], t.schema.field(key_col).type),
                          "n_rows": pa.array([], pa.int64()),
                          "hhi_ppm": pa.array([], pa.int64())})
        if not t.num_rows:
            return empty
        # collapse cross-batch partials for the same (key, cat)
        g = t.group_by([key_col, cat_col]).aggregate([("pc_", "sum")]) \
            .rename_columns([key_col, cat_col, "c"])
        keys = g[key_col].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        keys, c = keys[order], c[order]
        starts, sizes = _segments(keys)
        tot = np.add.reduceat(c, starts)
        sq = np.add.reduceat(c * c, starts)
        # Σc² ≤ (Σc)² ≤ 2⁶³/10⁶ ⇒ per-key rows < ~3e6 for int64 ppm math;
        # object (Python int) path keeps it exact past that
        if tot.max(initial=0) >= 3_000_000:
            hhi = np.array([(int(s) * 1_000_000) // (int(n) * int(n))
                            for s, n in zip(sq, tot)], dtype=np.int64)
        else:
            hhi = (sq * 1_000_000) // (tot * tot)
        return pa.table({key_col: pa.array(keys[starts]),
                         "n_rows": pa.array(tot.astype(np.int64)),
                         "hhi_ppm": pa.array(hhi.astype(np.int64))})

    return bucket_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                           [key_col], per_bucket, n_buckets)


def rolling_quantile_per_key_ds(ds, key_col: str, ts_col: str, id_col: str,
                                val_col: str, window: int, q: float = 0.5,
                                scale: int = 1, n_buckets: int = 256):
    """Per-key EXACT rolling discrete quantile over the last ``window``
    rows ordered by (ts, id): SQL ``quantile_disc(v, q) OVER (PARTITION
    BY key ORDER BY ts, id ROWS window-1 PRECEDING)`` — the ROBUST
    sibling of ``rolling_sum_per_key_ds`` (a rolling median shrugs off
    the spikes a rolling mean chases; the anomaly-baseline smoother).

    Same ONE-exchange shape as the rolling sum; inside a bucket every
    key resolves in one vectorized pass: lexsort (key, ts, id), a
    (n × window) shifted-column matrix with +INF sentinels where the
    frame crosses a segment start, one row-wise sort (windows are small
    by design), and the type-1 rank pick ``ceil(q·L)`` per row against
    each row's true frame length L.  O(n·W log W), never per-key Python.
    Values scale to integers so the pick is bit-exact vs the oracle.
    """
    from timberjack_ray.functions.corpus import _segments

    if not 0 < q <= 1:
        raise ValueError(f"rolling_quantile_per_key_ds: q={q} outside (0, 1]")

    SENT = np.iinfo(np.int64).max  # sorts after every real value

    def per_bucket(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import scale_to_int_np

        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "roll_q": pa.array([], pa.int64())})
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        v = scale_to_int_np(t[val_col].to_numpy(zero_copy_only=False),
                            scale)
        order = np.lexsort((ids, ts, k))
        ks, vs = k[order], v[order]
        starts, sizes = _segments(ks)
        n = len(vs)
        seg_start = np.repeat(starts, sizes)
        idx = np.arange(n)
        frame_len = np.minimum(idx - seg_start + 1, window)
        cols = []
        for d in range(window):
            shifted = np.full(n, SENT, dtype=np.int64)
            if d == 0:
                shifted = vs.copy()
            elif d < n:
                shifted[d:] = vs[:-d]
            shifted[idx - d < seg_start] = SENT
            cols.append(shifted)
        mat = np.sort(np.column_stack(cols), axis=1)
        rank = np.ceil(q * frame_len).astype(np.int64)
        out = mat[idx, np.maximum(rank, 1) - 1]
        return pa.table({id_col: pa.array(ids[order]),
                         "roll_q": pa.array(out)})

    return bucket_exchange(ds, [key_col], per_bucket, n_buckets)


_LIMB = 100_000            # limb base for c^2 = a*LIMB + b
_SPLIT = 10**18            # output hi/lo split base


def grouped_moment_stats(ds, group_col: str, val_col: str,
                         scale: int = 100,
                         max_abs_scaled: int = 100_000) -> pd.DataFrame:
    """EXACT per-group central-moment sufficient statistics up to order
    4 over a scaled-integer value column: per group returns

        (n, s1, s2, s3_hi, s3_lo, s4_hi, s4_lo)

    where s_k = SUM(c^k) on c = round(value*scale), and the order-3/4
    sums — which overflow int64 long before any realistic row count —
    are computed EXACTLY via limb arithmetic (c^2 = a*1e5 + b; c^3 =
    (c*a)*1e5 + c*b; c^4 = a^2*1e10 + 2ab*1e5 + b^2; each limb sum
    stays < 2^63 per partial, the recombination happens in PYTHON ints
    on the type-bounded driver fold) and emitted as a base-1e18
    (hi, lo) pair with lo >= 0 — the same non-negative-remainder split
    the SQL oracle replays from HUGEINT sums.  Skewness and kurtosis
    are the consumer's floats; these ints are their exact inputs (the
    distribution-shape profiler: outlier tails show in kurtosis before
    they show in the mean).

    Magnitude contract: |c| <= ``max_abs_scaled`` (default 1e5 = $1000
    at cents) keeps every limb partial safe below ~1e9 rows per batch;
    violated rows raise rather than silently wrap.  s1/s2 stay plain
    int64 (exact below ~4e8 rows per group at that magnitude — past
    that, widen them to the same hi/lo scheme).
    One streaming pass; partials are |groups| rows per batch; no
    shuffle."""
    from timberjack_ray.functions.util import scale_to_int_np

    def partial(t: pa.Table) -> pa.Table:
        g = t[group_col].combine_chunks()
        c = scale_to_int_np(t[val_col].to_numpy(zero_copy_only=False),
                            scale)
        if len(c) and int(np.abs(c).max()) > max_abs_scaled:
            raise ValueError(
                f"grouped_moment_stats: |scaled value| "
                f"{int(np.abs(c).max())} exceeds max_abs_scaled="
                f"{max_abs_scaled}; raise scale-aware limbs first")
        c2 = c * c
        a, b = c2 // _LIMB, c2 % _LIMB
        tbl = pa.table({
            group_col: g,
            "s1": pa.array(c), "s2": pa.array(c2),
            "s3a": pa.array(c * a), "s3b": pa.array(c * b),
            "s4a": pa.array(a * a), "s4b": pa.array(a * b),
            "s4c": pa.array(b * b)})
        out = tbl.group_by([group_col]).aggregate(
            [([], "count_all")] + [(x, "sum") for x in
                                   ["s1", "s2", "s3a", "s3b",
                                    "s4a", "s4b", "s4c"]])
        return out.rename_columns([group_col, "n", "s1", "s2", "s3a",
                                   "s3b", "s4a", "s4b", "s4c"])

    acc: dict = {}
    for t in ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        d = t.to_pydict()
        for i in range(len(d[group_col])):
            k = d[group_col][i]
            row = acc.setdefault(k, [0] * 8)
            for j, col in enumerate(["n", "s1", "s2", "s3a", "s3b",
                                     "s4a", "s4b", "s4c"]):
                row[j] += int(d[col][i])
    rows = []
    for k in sorted(acc):
        n, s1, s2, s3a, s3b, s4a, s4b, s4c = acc[k]
        s3 = s3a * _LIMB + s3b
        s4 = s4a * _LIMB * _LIMB + 2 * s4b * _LIMB + s4c
        s3_hi, s3_lo = divmod(s3, _SPLIT)
        s4_hi, s4_lo = divmod(s4, _SPLIT)
        rows.append((k, n, s1, s2, s3_hi, s3_lo, s4_hi, s4_lo))
    return pd.DataFrame(rows, columns=[
        group_col, "n", "s1", "s2", "s3_hi", "s3_lo",
        "s4_hi", "s4_lo"]).astype({c: "int64" for c in
                                   ["n", "s1", "s2", "s3_hi", "s3_lo",
                                    "s4_hi", "s4_lo"]})


def skyline_2d(ds, x_col: str, y_col: str, driver_limit: int = 2_000_000,
               coarse_shift: int = 16):
    """Pareto frontier (skyline) of int64 points, minimizing ``x_col``
    and maximizing ``y_col`` under STRICT dominance: a row survives iff
    no other row has x' <= x AND y' >= y with at least one strict.  The
    multi-criteria "best tradeoffs" operator (Borzsony/Kossmann/Stocker
    2001) Ray Data has no primitive for; equal points all survive.

    Scale shape: the 2-D frontier only needs each distinct x's MAX y —
    per-batch (x, max y) partials collapse rows batch-locally, one
    groupby(x) exchange bounded by DISTINCT x merges them, a driver
    strict-prefix cummax extracts the frontier, and the frontier
    (xs, required y) is broadcast for a streaming filter pass over the
    full input.  If distinct x exceeds ``driver_limit``, one coarse
    round first: max-y per (x >> coarse_shift) block is cummaxed so any
    x whose y is dominated by a STRICTLY EARLIER block is dropped before
    the driver sees it (those x' are < x, so dominance is strict); a
    still-oversized frontier candidate set (pathological anti-correlated
    dims) raises rather than OOMs the driver.
    """
    import ray

    from timberjack_ray.functions.util import collect_table_under

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"x": t[x_col], "y": t[y_col]}) \
            .group_by("x").aggregate([("y", "max")])
        return g.rename_columns(["x", "my"])

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by("x").aggregate([("my", "max")])
        return g.rename_columns(["x", "my"])

    gmax = ds.map_batches(partial, batch_format="pyarrow") \
        .map_batches(merge, batch_format="pyarrow") \
        .groupby("x").max("my")   # -> columns (x, max(my))

    def norm(t: pa.Table) -> pa.Table:
        return t.rename_columns(["x", "my"])

    gmax = gmax.map_batches(norm, batch_format="pyarrow")
    small = collect_table_under(gmax, driver_limit)
    if small is not None and not small.num_rows:
        return ds.limit(0)   # empty input: nothing dominates nothing
    if small is None:
        # coarse prefilter: strict-earlier-block dominance
        def coarse(t: pa.Table) -> pa.Table:
            c = t["x"].to_numpy(zero_copy_only=False) >> coarse_shift
            g = pa.table({"c": pa.array(c), "my": t["my"]}) \
                .group_by("c").aggregate([("my", "max")])
            return g.rename_columns(["c", "cmy"])

        ct = collect_table_under(
            gmax.map_batches(coarse, batch_format="pyarrow")
                .groupby("c").max("cmy"), driver_limit)
        if ct is None:
            raise ValueError(
                "skyline_2d: even the coarse block table exceeds "
                "driver_limit; raise coarse_shift")
        cd = ct.sort_by("c")
        cs = cd["c"].to_numpy(zero_copy_only=False)
        cm = cd["max(cmy)"].to_numpy(zero_copy_only=False)
        pmx = np.r_[np.iinfo(np.int64).min, np.maximum.accumulate(cm)[:-1]]
        ref_c = ray.put((cs, pmx))

        def prefilter(t: pa.Table) -> pa.Table:
            carr, parr = fetch_broadcast(ref_c)
            c = t["x"].to_numpy(zero_copy_only=False) >> coarse_shift
            idx = np.searchsorted(carr, c)
            return t.filter(pa.array(
                t["my"].to_numpy(zero_copy_only=False) > parr[idx]))

        small = collect_table_under(
            gmax.map_batches(prefilter, batch_format="pyarrow"),
            driver_limit)
        if small is None:
            raise ValueError(
                "skyline_2d: frontier candidates exceed driver_limit "
                "(anti-correlated dimensions) — this operator assumes a "
                "broadcastable frontier")
    st = small.sort_by("x")
    xs = st["x"].to_numpy(zero_copy_only=False)
    ys = st["my"].to_numpy(zero_copy_only=False)
    pmx = np.r_[np.iinfo(np.int64).min, np.maximum.accumulate(ys)[:-1]]
    keep = ys > pmx
    fx, fy = xs[keep], ys[keep]
    ref = ray.put((fx, fy))

    def filter_pass(t: pa.Table) -> pa.Table:
        fxs, fys = fetch_broadcast(ref)
        x = t[x_col].to_numpy(zero_copy_only=False)
        y = t[y_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(fxs, x)
        hit = idx < len(fxs)
        idc = np.minimum(idx, max(len(fxs) - 1, 0))
        m = hit & (fxs[idc] == x) & (fys[idc] == y) if len(fxs) \
            else np.zeros(len(x), bool)
        return t.filter(pa.array(m))

    return ds.map_batches(filter_pass, batch_format="pyarrow")


def share_within_group(ds, part_col: str, sub_col: str,
                       val_col: str) -> pd.DataFrame:
    """Ratio-to-report window: each (partition, sub-key)'s share of its
    partition total, in exact parts-per-million (v * 10^6 // part_total
    — no float division anywhere, so the SQL window replay is
    bit-identical; requires v * 10^6 < 2^63, i.e. partition value sums
    under ~9.2e12, which cent-scaled revenue satisfies by orders of
    magnitude).  Returns (part, sub, v, share_ppm) sorted.

    Scale shape: per-batch (part, sub) sum partials collapse rows
    batch-locally; the driver merge handles |parts x subs| rows, never
    data rows; partition totals fold from the same merged frame."""
    proj = ds.select_columns([part_col, sub_col, val_col])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by([part_col, sub_col]).aggregate([(val_col, "sum")])
        return g.rename_columns([part_col, sub_col, "v"])

    parts = proj.map_batches(partial, batch_format="pyarrow")
    out = merge_partials(parts, [part_col, sub_col], ["v"]).to_pandas()
    tot = out.groupby(part_col)["v"].transform("sum")
    big = max(int(out["v"].abs().max()), int(tot.abs().max())) if len(out) else 0
    if big >= 2**63 // 1_000_000:
        # the documented precondition, enforced (ADVICE r4): int64
        # v * 10^6 wraps silently past ~9.2e12
        raise ValueError(
            "share_within_group: value * 10^6 would overflow int64 "
            f"(max |sum| = {big}); rescale val_col upstream")
    out["share_ppm"] = (out["v"] * 1_000_000) // tot
    return out.sort_values([part_col, sub_col]).reset_index(drop=True) \
        .astype({"v": "int64", "share_ppm": "int64"})


def pivot_counts(ds, row_col: str, col_col: str,
                 categories: list[str]) -> pd.DataFrame:
    """PIVOT / crosstab with a FIXED category list: one output row per
    ``row_col`` value, one ``n_<cat>`` column per category (wide form of
    the contingency census — the reshape surface op itself).  Rows whose
    ``col_col`` value is not in ``categories`` are ignored; a category
    with no rows yields zeros.  Returns the wide frame sorted by
    ``row_col``.

    Scale shape: per-batch (row, cat) count partials collapse data rows
    batch-locally; the driver merge and the reshape handle
    |rows x categories| cells, never data rows."""
    proj = ds.select_columns([row_col, col_col])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by([row_col, col_col]).aggregate([([], "count_all")])
        return g.rename_columns([row_col, col_col, "n"])

    long = merge_partials(proj.map_batches(partial, batch_format="pyarrow"),
                          [row_col, col_col], ["n"]).to_pandas()
    # row index from ALL distinct row_col values BEFORE the category
    # filter (ADVICE r4): a row value whose every occurrence carries an
    # out-of-list category must still emit an all-zero row, matching the
    # SQL oracle's unfiltered GROUP BY
    all_rows = sorted(long[row_col].unique())
    long = long[long[col_col].isin(categories)]
    wide = long.pivot_table(index=row_col, columns=col_col, values="n",
                            aggfunc="sum", fill_value=0)
    wide = wide.reindex(all_rows, fill_value=0)
    for c in categories:
        if c not in wide.columns:
            wide[c] = 0
    wide = wide[categories].astype("int64")
    wide.index.name = row_col
    wide.columns = [f"n_{c}" for c in categories]
    return wide.reset_index().sort_values(row_col).reset_index(drop=True)


def chi2_scaled(ds, a_col: str, b_col: str,
                scale: int = 10 ** 9) -> pd.DataFrame:
    """Exact-integer chi-square independence statistic over two
    categorical columns: with observed counts O_ij, row totals R_i,
    column totals C_j and N rows, returns
    ``sum_ij scale * (N*O_ij - R_i*C_j)^2 // (N * R_i * C_j)`` — the
    chi-square sufficient statistic made hash-stable the same way the
    decision stump is: the per-cell rational is replaced by one floor
    division BOTH engines apply identically (python big ints here,
    HUGEINT in SQL), summed over the DENSE R x C grid (structural zeros
    contribute scale * R_i * C_j // N exactly).  Output one row
    (chi2_scaled, n, df) where df = (R-1)(C-1).

    Scale shape: only the (a, b) contingency counts leave the workers
    (|A x B| cells); the big-int grid scan runs once on the driver."""
    proj = ds.select_columns([a_col, b_col])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by([a_col, b_col]).aggregate([([], "count_all")])
        return g.rename_columns(["a", "b", "n"])

    h = merge_partials(proj.map_batches(partial, batch_format="pyarrow"),
                       ["a", "b"], ["n"]).to_pandas()
    if h.empty:
        return pd.DataFrame({"chi2_scaled": pd.Series([], dtype="int64"),
                             "n": pd.Series([], dtype="int64"),
                             "df": pd.Series([], dtype="int64")})
    grid = h.pivot_table(index="a", columns="b", values="n",
                         aggfunc="sum", fill_value=0).sort_index()
    grid = grid[sorted(grid.columns)]
    obs = grid.to_numpy().astype(object)
    rt = obs.sum(axis=1)
    ct = obs.sum(axis=0)
    n = int(obs.sum())
    stat = 0
    for i in range(obs.shape[0]):
        ri = int(rt[i])
        for j in range(obs.shape[1]):
            cj = int(ct[j])
            d = n * int(obs[i, j]) - ri * cj
            stat += scale * d * d // (n * ri * cj)
    return pd.DataFrame({
        "chi2_scaled": [stat], "n": [n],
        "df": [(obs.shape[0] - 1) * (obs.shape[1] - 1)]}).astype("int64")


def survivorship_merge(ds, key_col: str, ts_col: str, id_col: str,
                       value_cols: list[str], n_buckets: int = 64):
    """MDM survivorship / golden-record merge: one output row per key
    where EACH column independently takes its latest NON-NULL value by
    (ts, id) order — the cross-row field coalesce that keep-latest-ROW
    upsert (``orders_upsert_latest``) cannot express: a newer record
    with a missing field must not erase an older record's value.
    Columns with no non-null value stay null.

    Scale shape: one hash(key) bucket exchange; per bucket one lexsort
    by (key, ts, id), then per column a masked ``maximum.reduceat`` over
    positional indices picks the last non-null row per key segment — a
    gather per column, no per-key Python.  Returns a streaming Dataset
    (one row per key per bucket)."""
    import pyarrow.compute as pc

    cols = [key_col, ts_col, id_col] + list(value_cols)

    def per_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.select([key_col] + list(value_cols))
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False) \
            if pa.types.is_timestamp(t[ts_col].type) \
            else t[ts_col].to_numpy(zero_copy_only=False)
        ev = t[id_col].to_numpy(zero_copy_only=False)
        lo = np.lexsort((ev, ts, k))
        ks = k[lo]
        new = np.r_[True, ks[1:] != ks[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        out = {key_col: pa.array(ks[starts])}
        pos = np.arange(len(ks), dtype=np.int64)
        for c in value_cols:
            col = t[c].take(pa.array(lo)).combine_chunks()
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            cand = np.where(valid, pos, -1)
            best = np.maximum.reduceat(cand, starts)
            idx = np.maximum(best, 0)
            vals = col.take(pa.array(idx))
            if (best < 0).any():   # keys with no non-null value -> null
                mask = pa.array(best < 0)
                vals = pc.if_else(mask, pa.nulls(len(starts), col.type),
                                  vals)
            out[c] = vals
        return pa.table(out)

    return bucket_exchange(ds.select_columns(cols), [key_col], per_bucket,
                           n_buckets)


def ecdf_percentile_census(ref_ds, ref_col: str, target_ds, t_col: str,
                           group_col: str) -> pd.DataFrame:
    """Cross-population ECDF calibration: score every target row by its
    percentile within the REFERENCE population — ppm = #{ref <= v} *
    10^6 // N_ref, a pure integer function of the reference histogram —
    and census per group: (group, n, ppm_sum).  "Where does this batch
    sit against the reference corpus?" — the two-table sibling of
    ``percentile_ranks`` (within-table) and ``quantile_normalize_ds``
    (rank remap).

    Scale shape: the reference folds once to a count-per-value histogram
    (value-DOMAIN-bounded — same contract as the KS/CvM drift family),
    broadcasts as (sorted values, cumulative counts); the target side is
    one streaming searchsorted pass emitting |groups|-sized partials."""
    import ray

    from timberjack_ray.aggregates import merge_partials

    def ref_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"v": t[ref_col]}).group_by("v").aggregate(
            [([], "count_all")])
        return g.rename_columns(["v", "c"])

    h = merge_partials(
        ref_ds.select_columns([ref_col]).map_batches(
            ref_partial, batch_format="pyarrow"), ["v"], ["c"]) \
        .to_pandas().sort_values("v")
    vals = h["v"].to_numpy(np.int64)
    cums = h["c"].to_numpy(np.int64).cumsum()
    n_ref = int(cums[-1]) if len(cums) else 0
    if n_ref == 0:
        raise ValueError("ecdf_percentile_census: empty reference")
    ref = ray.put((vals, cums))

    def score(t: pa.Table) -> pa.Table:
        rv, rc = fetch_broadcast(ref)
        v = t[t_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(rv, v, side="right")
        cum = np.where(idx > 0, rc[np.maximum(idx - 1, 0)], 0)
        ppm = cum.astype(np.int64) * 1_000_000 // n_ref
        g = pa.table({group_col: t[group_col], "ppm": pa.array(ppm)}) \
            .group_by([group_col]).aggregate([([], "count_all"),
                                              ("ppm", "sum")])
        return g.rename_columns([group_col, "n", "ppm_sum"])

    out = merge_partials(
        target_ds.select_columns([group_col, t_col]).map_batches(
            score, batch_format="pyarrow"),
        [group_col], ["n", "ppm_sum"]).to_pandas()
    return out.sort_values(group_col).reset_index(drop=True) \
        .astype({"n": "int64", "ppm_sum": "int64"})


def _skyline_insert(pts: np.ndarray, sky: np.ndarray) -> np.ndarray:
    """Incremental skyline maintenance on ALL-MINIMIZE int64 points:
    returns the skyline of ``sky ∪ pts`` (strict dominance; duplicates
    survive).  Each chunk is screened against the current skyline with
    one broadcast comparison — O(|chunk| x |sky|) per call, cheap while
    the skyline stays small (the non-adversarial case this op serves)."""
    for chunk in np.array_split(pts, max(len(pts) // 2048, 1)):
        if not len(chunk):
            continue
        if not len(sky):
            sky = _skyline_self(chunk)
            continue
        # drop chunk points dominated by the skyline
        le = (sky[None, :, :] <= chunk[:, None, :]).all(axis=2)
        lt = (sky[None, :, :] < chunk[:, None, :]).any(axis=2)
        dominated = (le & lt).any(axis=1)
        cand = chunk[~dominated]
        if not len(cand):
            continue
        cand = _skyline_self(cand)
        # drop skyline points dominated by the surviving candidates
        le2 = (cand[None, :, :] <= sky[:, None, :]).all(axis=2)
        lt2 = (cand[None, :, :] < sky[:, None, :]).any(axis=2)
        keep = ~(le2 & lt2).any(axis=1)
        sky = np.concatenate([sky[keep], cand])
    return sky


def _skyline_self(pts: np.ndarray) -> np.ndarray:
    """Skyline of one small point set (pairwise, strict dominance)."""
    if len(pts) <= 1:
        return pts
    le = (pts[None, :, :] <= pts[:, None, :]).all(axis=2)
    lt = (pts[None, :, :] < pts[:, None, :]).any(axis=2)
    dominated = (le & lt).any(axis=1)
    return pts[~dominated]


def skyline_nd(ds, cols: list[tuple[str, str]],
               driver_limit: int = 2_000_000):
    """N-dimensional Pareto frontier under strict dominance — the
    general-dimension sibling of ``skyline_2d`` (whose distinct-x/max-y
    trick is 2-D only).  ``cols`` = [(col, "min"|"max"), ...]; "max"
    dims are negated into the all-minimize canonical form.  Equal points
    all survive.

    Scale shape: the skyline operator distributes because skyline(union)
    = skyline(union of per-block skylines): each batch reduces to its
    LOCAL skyline (incremental screen, cheap while frontiers are small),
    the guarded driver merge folds local skylines with the same kernel,
    and a pathological anti-correlated frontier (local skylines
    exceeding ``driver_limit``) raises rather than OOMs.  Returns a
    pandas DataFrame of the frontier rows' canonical columns (original
    orientation restored), sorted."""
    names = [c for c, _ in cols]
    signs = np.array([1 if d == "min" else -1 for _, d in cols],
                     dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.select(names)
        m = np.stack([t[c].to_numpy(zero_copy_only=False)
                      .astype(np.int64) for c in names], axis=1) * signs
        sky = _skyline_insert(m, np.zeros((0, len(names)), np.int64))
        back = sky * signs
        return pa.table({c: pa.array(back[:, i])
                         for i, c in enumerate(names)})

    from timberjack_ray.functions.util import collect_table_under

    locs = ds.select_columns(names).map_batches(partial,
                                                batch_format="pyarrow")
    small = collect_table_under(locs, driver_limit)
    if small is None:
        raise ValueError("skyline_nd: local skylines exceed driver_limit "
                         "(anti-correlated dimensions)")
    if not small.num_rows:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in names})
    m = np.stack([small[c].to_numpy(zero_copy_only=False)
                  .astype(np.int64) for c in names], axis=1) * signs
    sky = _skyline_insert(m, np.zeros((0, len(names)), np.int64))
    back = sky * signs
    out = pd.DataFrame({c: back[:, i] for i, c in enumerate(names)})
    return out.sort_values(names).reset_index(drop=True).astype("int64")


def grouped_skyline_nd(ds, group_col: str, cols: list[tuple[str, str]],
                       driver_limit: int = 2_000_000) -> pd.DataFrame:
    """Per-GROUP Pareto frontier: ``skyline_nd`` independently within
    each group (the group-wise skyline SQL surface — "best tradeoffs
    per segment").  Same distribution law per group; per-batch partials
    hold each present group's local skyline, the guarded driver merge
    folds them per group.  Returns (group, dims...) sorted."""
    names = [c for c, _ in cols]
    signs = np.array([1 if d == "min" else -1 for _, d in cols],
                     dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.select([group_col] + names)
        g = t[group_col].to_numpy(zero_copy_only=False)
        m = np.stack([t[c].to_numpy(zero_copy_only=False)
                      .astype(np.int64) for c in names], axis=1) * signs
        outs_g, outs_m = [], []
        for gv in pd.unique(g):
            pts = m[g == gv]
            sky = _skyline_insert(pts, np.zeros((0, len(names)),
                                                np.int64))
            outs_g.append(np.repeat(np.array([gv], dtype=object),
                                    len(sky)))
            outs_m.append(sky)
        sk = np.concatenate(outs_m) * signs
        tbl = {group_col: pa.array(np.concatenate(outs_g))}
        for i, c in enumerate(names):
            tbl[c] = pa.array(sk[:, i])
        return pa.table(tbl)

    from timberjack_ray.functions.util import collect_table_under

    locs = ds.select_columns([group_col] + names) \
        .map_batches(partial, batch_format="pyarrow")
    small = collect_table_under(locs, driver_limit)
    if small is None:
        raise ValueError("grouped_skyline_nd: local skylines exceed "
                         "driver_limit")
    if not small.num_rows:
        return pd.DataFrame({group_col: pd.Series([], dtype=object),
                             **{c: pd.Series([], dtype="int64")
                                for c in names}})
    df = small.to_pandas()
    rows = []
    for gv, sub in df.groupby(group_col, sort=True):
        pts = sub[names].to_numpy().astype(np.int64) * signs
        sky = _skyline_insert(pts, np.zeros((0, len(names)), np.int64))
        back = sky * signs
        for r in back:
            rows.append((gv, *r))
    out = pd.DataFrame(rows, columns=[group_col] + names)
    return out.sort_values([group_col] + names).reset_index(drop=True) \
        .astype({c: "int64" for c in names})
