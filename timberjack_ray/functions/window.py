"""Windowed aggregates over a timestamp column — tumbling and sliding.

The reference's only time bucketing is the string-sliced hour trend
(src/analyzer.rs:326-336); real telemetry pipelines need proper windows.
Both forms stay shuffle-light:

* tumbling — window id is a vectorized ``floor(ts / width)`` per batch →
  partial counts → small merge.  One window per row.
* sliding — each row belongs to ``width / slide`` windows; the membership
  fan-out happens INSIDE the batch (np.repeat on the int64 timestamp
  array, never materializing duplicated full rows), then partial counts
  per (window, key) → small merge.

Event-time semantics, arrival-order independent (windows are pure key
functions of the timestamp), matching the engine's bounded-streaming model
(SURVEY.md §2.9): results are exact at end-of-stream with no watermarks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from timberjack_ray.aggregates import bucket_exchange, merge_partials


def _ts_seconds(col) -> np.ndarray:
    arr = np.asarray(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    if np.issubdtype(arr.dtype, np.datetime64):
        return arr.astype("datetime64[s]").astype("int64")
    return arr.astype("int64")


def tumbling_counts(ds, ts_col: str, width_s: int, by: str | None = None,
                    name: str = "n") -> pd.DataFrame:
    """COUNT per [k·width, (k+1)·width) window (and optional key)."""
    keys = ["window_start"] + ([by] if by else [])

    def partial(t: pa.Table) -> pa.Table:
        secs = _ts_seconds(t[ts_col])
        ws = (secs // width_s) * width_s
        cols = {"window_start": pa.array(ws, pa.int64())}
        if by:
            cols[by] = t[by]
        g = pa.table(cols).group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + [name])

    p = ds.map_batches(partial, batch_format="pyarrow")
    return merge_partials(p, keys, name).to_pandas()


def rate_anomalies(ds, ts_col: str, width_s: int = 3600,
                   factor: float = 1.5, name: str = "n") -> pd.DataFrame:
    """Burst detection: tumbling windows whose count exceeds ``factor ×``
    the mean count over OBSERVED windows (empty windows don't vote — the
    baseline is active traffic).  The merged count table is bounded by the
    time range (one row per window: a year of hours is 8 760 rows), so the
    mean + threshold filter run driver-side over the partials; the events
    themselves never leave the workers.  The mean is an exact int sum /
    count in float64, so any engine replays the cut identically — no
    variance term whose summation order could flip a borderline window.
    """
    counts = tumbling_counts(ds, ts_col, width_s, name=name)
    mu = counts[name].to_numpy().sum() / len(counts) if len(counts) else 0.0
    out = counts[counts[name] > factor * mu]
    return out.sort_values("window_start").reset_index(drop=True)


def sliding_counts(ds, ts_col: str, width_s: int, slide_s: int,
                   by: str | None = None, name: str = "n") -> pd.DataFrame:
    """COUNT per sliding window [k·slide, k·slide + width); width must be a
    multiple of slide.  A row at t lands in windows k ∈
    [floor(t/slide) − width/slide + 1, floor(t/slide)]."""
    assert width_s % slide_s == 0, "width must be a multiple of slide"
    fanout = width_s // slide_s
    keys = ["window_start"] + ([by] if by else [])

    def partial(t: pa.Table) -> pa.Table:
        secs = _ts_seconds(t[ts_col])
        base = secs // slide_s
        # membership fan-out on the int64 array only
        ks = np.repeat(base, fanout) - np.tile(np.arange(fanout, dtype=np.int64),
                                               len(base))
        cols = {"window_start": pa.array(ks * slide_s, pa.int64())}
        if by:
            by_arr = (t[by].combine_chunks() if isinstance(t[by], pa.ChunkedArray)
                      else t[by])
            idx = np.repeat(np.arange(len(base), dtype=np.int64), fanout)
            cols[by] = by_arr.take(pa.array(idx))
        g = pa.table(cols).group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + [name])

    p = ds.map_batches(partial, batch_format="pyarrow")
    return merge_partials(p, keys, name).to_pandas()


class EventTimeWindower:
    """Watermark-based tumbling-window counter for out-of-order streams —
    the unbounded-streaming semantics the bounded model above (and the
    reference's stdin path) cannot express.

    Per arriving event (vectorized per chunk via an exclusive running
    ``np.maximum.accumulate`` carried across chunks):

    * watermark = (max event time over all PRIOR arrivals) − ``lateness_s``
    * the event's window [w, w+width) is FINAL once watermark ≥ w+width;
      an event arriving for a finalized window is dropped (``late_dropped``)
    * otherwise it counts toward its window.

    The accept/drop rule depends only on arrival order, so an offline
    engine can replay it exactly (prefix-max window function) — that is
    what makes ``stream_windowed_counts`` oracle-checkable rather than
    rows-only.  The OPEN-window dict is bounded by the lateness horizon;
    finalized windows accumulate only until the consumer calls
    ``drain_finalized()`` (emit downstream, clear) — an unbounded stream
    drains after every chunk and total state stays O(open windows).  The
    ``result()`` convenience keeps everything for end-of-stream reports.

    Single-process ingest tail like ``stream.analyze_stream``; for a
    distributed stream, co-partition by key hash and run one instance per
    partition inside an actor — watermarks are then per-partition, which
    is the standard per-shard watermark model.
    """

    def __init__(self, width_s: int, lateness_s: int):
        self.width = int(width_s)
        self.lateness = int(lateness_s)
        self._prior_max = np.iinfo(np.int64).min  # μs
        self._open: dict[int, int] = {}           # window start μs → count
        self._final: dict[int, int] = {}
        self.late_dropped = 0

    def feed(self, ts_us: np.ndarray) -> None:
        """Consume one arrival-ordered chunk of event times (int64 μs)."""
        ts = np.asarray(ts_us, dtype=np.int64)
        if not len(ts):
            return
        width = self.width * 1_000_000
        # exclusive prefix max, seeded with the carry from prior chunks
        prior = np.empty(len(ts), dtype=np.int64)
        prior[0] = self._prior_max
        if len(ts) > 1:
            np.maximum.accumulate(ts[:-1], out=prior[1:])
            np.maximum(prior[1:], self._prior_max, out=prior[1:])
        self._prior_max = max(self._prior_max, int(ts.max()))
        w = (ts // width) * width
        # watermark test rearranged as prior >= end + lateness so the
        # int64.min seed never overflows on subtraction
        late = prior >= w + width + self.lateness * 1_000_000
        self.late_dropped += int(late.sum())
        keep = w[~late]
        if len(keep):
            for ws, n in zip(*np.unique(keep, return_counts=True)):
                self._open[int(ws)] = self._open.get(int(ws), 0) + int(n)
        # finalize windows the new watermark has passed (bounds open state)
        wm = self._prior_max - self.lateness * 1_000_000
        for ws in [ws for ws in self._open if ws + width <= wm]:
            self._final[ws] = self._open.pop(ws)

    def drain_finalized(self) -> dict[int, int]:
        """Hand over (and clear) the finalized windows — the emit hook an
        unbounded-stream consumer calls after each chunk so total state
        stays O(open windows).  A finalized window can never change again
        (any further event for it is late-dropped by construction)."""
        out, self._final = self._final, {}
        return out

    def result(self) -> pd.DataFrame:
        """End-of-stream flush → (window_start μs, n) for every window
        still held (finalized-but-undrained + open)."""
        allw = dict(self._final)
        for ws, n in self._open.items():
            allw[ws] = allw.get(ws, 0) + n
        out = pd.DataFrame({
            "window_start": np.array(sorted(allw), dtype="datetime64[us]"),
            "n": np.array([allw[k] for k in sorted(allw)], dtype=np.int64),
        })
        return out


def windowed_counts_sharded(ds, shard_col: str, arrival_col: str,
                            id_col: str, ts_us_col: str,
                            width_s: int, lateness_s: int,
                            fold_limit: int = 2_000_000,
                            _fault_hook=None) -> pd.DataFrame:
    """Distributed watermark windower — the sharded form of
    :class:`EventTimeWindower` (VERDICT r4 #1: the single-instance driver
    concat was the last whole-dataset materialization in the surface).

    Standard per-shard watermark model: the input carries a deterministic
    ``shard_col`` (key hash mod n_shards) and an ``arrival_col`` arrival
    key; ``groupby(shard).map_groups`` runs ONE windower instance per
    shard inside a worker task — the shard is arrival-ordered there
    (lexsort by (arrival, id), vectorized), fed through the same
    prefix-max accept/drop kernel, and reduced to (window_start, n)
    partials bounded by the shard's window count.  The full table never
    touches the driver; each worker holds only its slim 4-column shard.
    Watermarks are per-shard, so an event is late only relative to its
    OWN shard's prior arrivals — exactly replayable in SQL with
    ``MAX(ts) OVER (PARTITION BY shard ORDER BY arrival ...)``, which is
    what keeps ``stream_windowed_counts`` oracle-checked rather than
    rows-only.

    Fold: partials are O(windows × shards); merged driver-side under
    ``fold_limit`` rows, else through a distributed groupby Sum
    (``merge_partials_or_ds`` degrade pattern).

    Sizing: a shard materializes in ONE map_groups task (arrival-order
    lexsort needs the whole shard), so pick the shard count like a GRACE
    bucket count — rows/n_shards must fit a worker heap; at 100 TB that
    is thousands of shards, and the SQL replay partitions by the same
    ``key % n_shards``.
    """
    from timberjack_ray.aggregates import merge_partials_or_ds

    width = int(width_s)
    lateness = int(lateness_s)

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        if _fault_hook is not None:
            # test-only: fault-injection point INSIDE the shard task, so
            # a worker kill here exercises Ray's task retry on the
            # windower exchange (tests/test_fault_injection.py)
            _fault_hook()
        arr = df[arrival_col].to_numpy()
        ids = df[id_col].to_numpy()
        order = np.lexsort((ids, arr))
        win = EventTimeWindower(width_s=width, lateness_s=lateness)
        win.feed(df[ts_us_col].to_numpy()[order])
        out = win.result()
        out["window_start"] = out["window_start"].to_numpy() \
            .astype("datetime64[us]").astype("int64")
        return out

    parts = ds.groupby(shard_col).map_groups(per_shard, batch_format="pandas")
    merged, mode = merge_partials_or_ds(parts, ["window_start"], ["n"],
                                        driver_limit=fold_limit)
    if mode == "distributed":
        # post-aggregate cardinality is the distinct-window count — the
        # time-range/width bound, far below the partial fold that bailed
        merged = merged.to_pandas()
    elif not isinstance(merged, pd.DataFrame):
        merged = merged.to_pandas()
    merged = merged.sort_values("window_start").reset_index(drop=True)
    return pd.DataFrame({
        "window_start": merged["window_start"].to_numpy()
            .astype("datetime64[us]"),
        "n": merged["n"].to_numpy().astype(np.int64),
    })


def top_key_per_window(ds, ts_col: str, key_col: str, width_s: int,
                       k: int = 1, max_rows: int = 5_000_000) -> pd.DataFrame:
    """Top-K keys by count per tumbling window (count desc, key asc tie) —
    "the dominant error type each hour", the windowed argmax every log
    pipeline wants next to its trend counts.

    Partials are (window, key) count rows (bounded by windows × distinct
    keys per batch, never raw rows); the merged table is time-range ×
    key-cardinality sized.  GUARDED fold (the VERDICT r02 auto-degrade
    pattern): under ``max_rows`` merged rows the rank prune runs
    driver-side; past it the fold bails to a distributed
    groupby(window, key) Sum and the prune runs through
    ``grouped_topk``'s bucketed path — driver memory stays bounded at any
    key cardinality.  Returns (window_start, key, n, rank), rank ∈ [1, k]."""
    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.relational import grouped_topk

    keys = ["window_start", key_col]

    def partial(t: pa.Table) -> pa.Table:
        secs = _ts_seconds(t[ts_col])
        ws = (secs // width_s) * width_s
        g = pa.table({"window_start": pa.array(ws, pa.int64()),
                      key_col: t[key_col]}) \
            .group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + ["n"])

    p = ds.map_batches(partial, batch_format="pyarrow")
    folded, mode = merge_partials_or_ds(p, keys, ["n"],
                                        driver_limit=max_rows)
    if mode == "distributed":
        counts = grouped_topk(folded, "window_start", "n", k, key_col,
                              descending=True)
        if not isinstance(counts, pd.DataFrame):
            # k × #windows itself exceeds grouped_topk's driver limit: the
            # result is driver-unboundable — deliver the SAME contract
            # (rank column, k rows per window) as a Dataset via one more
            # bucketed pass (vectorized lexsort rank per bucket, no
            # per-window Python) for the caller to stream/write
            def rank_bucket(t: pa.Table) -> pa.Table:
                ws = t["window_start"].to_numpy(zero_copy_only=False)
                nn = t["n"].to_numpy(zero_copy_only=False)
                kk = t[key_col].to_numpy(zero_copy_only=False)
                order = np.lexsort((kk, -nn, ws))
                wss = ws[order]
                starts = np.flatnonzero(np.r_[True, wss[1:] != wss[:-1]])
                sizes = np.diff(np.r_[starts, len(wss)])
                rank = np.arange(len(wss), dtype=np.int64) \
                    - np.repeat(starts, sizes) + 1
                out = t.take(pa.array(order)) \
                    .append_column("rank", pa.array(rank))
                return out.filter(pc.less_equal(out["rank"], k))

            return bucket_exchange(counts, ["window_start"], rank_bucket, 256)
        counts = counts[keys + ["n"]]
    else:
        counts = folded.to_pandas()
    counts = counts.sort_values(["window_start", "n", key_col],
                                ascending=[True, False, True])
    counts["rank"] = counts.groupby("window_start").cumcount() + 1
    out = counts[counts["rank"] <= k].reset_index(drop=True)
    return out.astype({"window_start": "int64", "n": "int64",
                       "rank": "int64"})


def max_concurrent(ds, ts_col: str, dur_col: str, width_s: int = 3600,
                   dur_scale: float = 1.0) -> pd.DataFrame:
    """Max CONCURRENT intervals per tumbling window — the sweep-line
    "peak concurrent sessions" statistic, distributed as a two-phase scan:

    1. each interval emits two points, (+1 at ts, −1 at ts + dur) with
       dur = value·dur_scale seconds, half-open ([s, e): at equal time the
       −1 applies first); per batch the points collapse to per-(window,
       time, delta) partials;
    2. the points co-locate per window (ONE groupby exchange on the small
       window id) and each window resolves DISTRIBUTED — one lexsort
       (t, d) per window group (d=−1 sorts before +1 at time ties) →
       exactly one (window, net delta, max running prefix) row out;
    3. the driver chains the #windows-sized summaries in time order,
       prefix-summing the nets to get each window's CARRY-IN; answer =
       carry + local_max.  The classic scan decomposition (local reduce →
       exclusive prefix → rescan): point volume crosses the exchange once
       and never lands on the driver.

    Returns (window_start, max_concurrent) for windows containing ≥1
    point, window order.  Exact integers end to end (durations scale to
    whole seconds via floor(x·scale + ½))."""
    from timberjack_ray.functions.util import scale_to_int

    def points(t: pa.Table) -> pa.Table:
        secs = _ts_seconds(t[ts_col])
        dur = scale_to_int(t[dur_col], dur_scale).to_numpy()
        pt = np.concatenate([secs, secs + dur])
        delta = np.concatenate([np.ones(len(secs), np.int64),
                                -np.ones(len(secs), np.int64)])
        ws = (pt // width_s) * width_s
        # collapse duplicate (t, d) points per batch: with second-resolution
        # times a window carries at most 2·width_s distinct point rows
        g = pa.table({"ws": pa.array(ws), "t": pa.array(pt),
                      "d": pa.array(delta)}) \
            .group_by(["ws", "t", "d"]).aggregate([("d", "sum")])
        return g.rename_columns(["ws", "t", "d", "dsum"]) \
            .select(["ws", "t", "d", "dsum"])

    def resolve(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby(["ws", "t", "d"], as_index=False)["dsum"] \
            .sum().sort_values(["t", "d"])
        dsum = df["dsum"].to_numpy().astype(np.int64)
        run = np.cumsum(dsum)
        return pa.table({
            "window_start": pa.array([int(df["ws"].iloc[0])], pa.int64()),
            "net": pa.array([int(dsum.sum())], pa.int64()),
            "local_max": pa.array([int(run.max())], pa.int64())})

    summaries = ds.map_batches(points, batch_format="pyarrow") \
        .groupby("ws").map_groups(resolve, batch_format="pyarrow") \
        .to_pandas()
    if not len(summaries):
        return pd.DataFrame({"window_start": pd.Series([], dtype="int64"),
                             "max_concurrent": pd.Series([], dtype="int64")})
    summaries = summaries.sort_values("window_start").reset_index(drop=True)
    net = summaries["net"].to_numpy()
    carry = np.concatenate([[0], np.cumsum(net)[:-1]])
    return pd.DataFrame({
        "window_start": summaries["window_start"].astype("int64"),
        "max_concurrent": (carry + summaries["local_max"].to_numpy())
        .astype("int64")})


def multiline_stitch_stats(ds, id_col: str, type_col: str,
                           start_col: str) -> pd.DataFrame:
    """Multiline log stitching (stack traces, wrapped payloads): every
    line where ``start_col`` is false is a CONTINUATION of the nearest
    earlier start line; records are the stitched groups.  Returns per
    start-line type: (n_records, total_lines, max_lines).  Leading
    continuations before the first start of the whole stream are dropped
    (headless lines, the reference-grade convention).

    Distributed as the scan decomposition every global stitch needs:

    1. per batch (vectorized): records INTERIOR to the batch collapse to
       per-type (n, total, max) partials; the lines before the batch's
       first start and the open record after its last start become ONE
       boundary row ``(first_id, head_lines, has_start, tail_type,
       tail_lines)``;
    2. the driver chains boundary rows in ``first_id`` order — O(#blocks)
       work: head lines join the open record carried from the left,
       batches with no start extend it, each new start closes it;
    3. chained records merge into the interior partials (types × blocks
       volume, never line volume).

    PARTITIONING ASSUMPTION: batches must be contiguous, non-overlapping
    ranges of the ``id_col`` order — true for ``read_parquet`` over
    row-sorted files (Ray blocks preserve file row order).  An unsorted
    source needs a range repartition on ``id_col`` first.
    """
    def partial(t: pa.Table) -> pa.Table:
        n = t.num_rows
        out_schema = pa.schema([("kind", pa.string()),
                                ("first_id", pa.int64()),
                                ("rtype", pa.string()),
                                ("n_records", pa.int64()),
                                ("total_lines", pa.int64()),
                                ("max_lines", pa.int64()),
                                ("head_lines", pa.int64()),
                                ("has_start", pa.int64()),
                                ("tail_lines", pa.int64())])
        if n == 0:
            return out_schema.empty_table()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        is_start = t[start_col].to_numpy(zero_copy_only=False).astype(bool)
        types = t[type_col].to_numpy(zero_copy_only=False)
        sidx = np.flatnonzero(is_start)
        first_id = int(ids[0])
        if len(sidx) == 0:
            b = pa.table({"kind": ["b"], "first_id": [first_id],
                          "rtype": [""], "n_records": [0],
                          "total_lines": [0], "max_lines": [0],
                          "head_lines": [n], "has_start": [0],
                          "tail_lines": [0]})
            return b.cast(out_schema)
        head = int(sidx[0])
        tail_type = str(types[sidx[-1]])
        tail_lines = int(n - sidx[-1])
        rows = [pa.table({"kind": ["b"], "first_id": [first_id],
                          "rtype": [tail_type], "n_records": [0],
                          "total_lines": [0], "max_lines": [0],
                          "head_lines": [head], "has_start": [1],
                          "tail_lines": [tail_lines]}).cast(out_schema)]
        if len(sidx) > 1:
            rec_len = np.diff(sidx)
            rec_type = types[sidx[:-1]]
            g = pa.table({"rtype": pa.array(rec_type),
                          "len": pa.array(rec_len.astype(np.int64))}) \
                .group_by("rtype").aggregate([("len", "count"),
                                              ("len", "sum"),
                                              ("len", "max")])
            g = g.rename_columns(["rtype", "n_records", "total_lines",
                                  "max_lines"])
            g = g.append_column("kind", pa.array(["i"] * g.num_rows))
            g = g.append_column("first_id",
                                pa.array([first_id] * g.num_rows,
                                         pa.int64()))
            g = g.append_column("head_lines",
                                pa.array([0] * g.num_rows, pa.int64()))
            g = g.append_column("has_start",
                                pa.array([0] * g.num_rows, pa.int64()))
            g = g.append_column("tail_lines",
                                pa.array([0] * g.num_rows, pa.int64()))
            rows.append(g.select(out_schema.names).cast(out_schema))
        return pa.concat_tables(rows)

    parts = [b for b in ds.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow")
             if b.num_rows]
    if not parts:
        return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                             "n_records": pd.Series([], dtype="int64"),
                             "total_lines": pd.Series([], dtype="int64"),
                             "max_lines": pd.Series([], dtype="int64")})
    allp = pa.concat_tables(parts).to_pandas()
    interior = allp[allp["kind"] == "i"]
    bounds = allp[allp["kind"] == "b"].sort_values("first_id")
    # chain the open record across block boundaries
    chained: list[tuple[str, int]] = []
    open_type, open_n = None, 0
    for r in bounds.itertuples(index=False):
        if open_type is not None:
            open_n += int(r.head_lines)
        # headless lines before the stream's first start: dropped
        if r.has_start:
            if open_type is not None:
                chained.append((open_type, open_n))
            open_type, open_n = r.rtype, int(r.tail_lines)
        # no start: head_lines == whole block, already absorbed above
    if open_type is not None:
        chained.append((open_type, open_n))
    ch = pd.DataFrame(chained, columns=["rtype", "len"])
    ch = ch.groupby("rtype").agg(n_records=("len", "size"),
                                 total_lines=("len", "sum"),
                                 max_lines=("len", "max")).reset_index() \
        if len(ch) else pd.DataFrame(
            columns=["rtype", "n_records", "total_lines", "max_lines"])
    merged = pd.concat([interior[["rtype", "n_records", "total_lines",
                                  "max_lines"]], ch], ignore_index=True)
    out = merged.groupby("rtype").agg(
        n_records=("n_records", "sum"), total_lines=("total_lines", "sum"),
        max_lines=("max_lines", "max")).reset_index() \
        .rename(columns={"rtype": "event_type"})
    return out.sort_values("event_type").reset_index(drop=True) \
        .astype({"n_records": "int64", "total_lines": "int64",
                 "max_lines": "int64"})


def rolling_zscore_breach_counts(ds, key_col: str, ts_col: str, id_col: str,
                                 val_col: str, by_col: str, window: int = 15,
                                 k_sigma: int = 3, scale: int = 100,
                                 n_buckets: int = 256) -> pd.DataFrame:
    """Rolling z-score control-chart census: per key, order rows by
    (ts, id) and over each FULL trailing window of ``window`` rows
    (current row included) flag a breach when the current value sits
    more than ``k_sigma`` population standard deviations from the window
    mean — evaluated as the PURE-INTEGER inequality

        (n*x - S)^2  >  k^2 * (n*Q - S^2)        (n = window,
                                                  S = sum, Q = sum of squares,
                                                  x scaled to ints by ``scale``)

    which is z^2 > k^2 cleared of denominators, so the census is
    bit-exact and the SQL oracle replays it with window SUMs.  Returns
    per ``by_col`` group: rows evaluated (full windows only) and breach
    count — the streaming anomaly-rate profile (CUSUM detects level
    SHIFTS; this counts point outliers against a local baseline).

    Scale shape: ONE key-bucket exchange; inside a bucket every key
    resolves in one vectorized pass (lexsort, padded segmented cumsums
    of x and x^2, full-window mask) — never per-key Python; partials are
    |by_col| rows per bucket and the merge is group-domain-bounded.
    Int64 headroom: the x^2 running cumsum caps at rows_per_bucket *
    (scale*max_val)^2, fine below ~1e9 rows/bucket at cents magnitude.
    """
    from timberjack_ray.functions.corpus import _segments

    k2 = int(k_sigma) * int(k_sigma)
    W = int(window)

    def per_bucket(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import scale_to_int_np

        empty = pa.table({by_col: pa.array([], pa.string()),
                          "n_eval": pa.array([], pa.int64()),
                          "n_breach": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        key = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        x = scale_to_int_np(t[val_col].to_numpy(zero_copy_only=False),
                            scale)
        by = t[by_col].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, ts, key))
        ks, xs, bys = key[order], x[order], by[order]
        starts, sizes = _segments(ks)
        n = len(xs)
        seg_start = np.repeat(starts, sizes)
        idx = np.arange(n)
        full = idx - seg_start + 1 >= W
        if not full.any():
            return empty
        cs = np.r_[0, np.cumsum(xs)]
        cq = np.r_[0, np.cumsum(xs * xs)]
        # full-window sums: window = rows (i-W+1 .. i), all inside the
        # segment exactly when full[i]
        S = cs[idx + 1] - cs[idx + 1 - W]
        Q = cq[idx + 1] - cq[idx + 1 - W]
        lhs = (W * xs - S) ** 2
        rhs = k2 * (W * Q - S * S)
        breach = full & (lhs > rhs)
        g = pa.table({by_col: pa.array(bys[full]),
                      "b": pa.array(breach[full].astype(np.int64))}) \
            .group_by([by_col]).aggregate([([], "count_all"), ("b", "sum")])
        return g.rename_columns([by_col, "n_eval", "n_breach"])

    partials = bucket_exchange(ds, [key_col], per_bucket, n_buckets)
    out = merge_partials(partials, [by_col], ["n_eval", "n_breach"]) \
        .to_pandas().sort_values(by_col).reset_index(drop=True)
    return out.astype({"n_eval": "int64", "n_breach": "int64"})
