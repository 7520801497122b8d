"""Sessionization and distribution statistics.

* sessionize — gap-based sessions per key (the classic telemetry op the
  reference lacks): ``aggregates.bucket_exchange`` on the key, then
  per-key vectorized diff/cumsum to assign session ids.  One all-to-all of
  (key, ts, carried cols); per-group work is numpy, not per-row Python.
* exact_quantiles — exact quantiles of a column whose DISTINCT cardinality
  is bounded (prices in cents, latencies in ms, sizes in bytes): per-batch
  value counts → small merge → driver-side cumulative walk.  Never sorts
  the data; merge volume is the number of distinct values.  For unbounded
  reals, bin first (value_histogram) or use a sketch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.aggregates import bucket_exchange, merge_partials


def _ts_to_int(ts: np.ndarray) -> np.ndarray:
    """datetime64 → int64 microseconds (exact for us-precision parquet
    timestamps); integer inputs pass through as int64."""
    if np.issubdtype(ts.dtype, np.datetime64):
        return ts.astype("datetime64[us]").astype("int64")
    return ts.astype("int64")


def sessionize(ds, key_col: str, ts_col: str, gap_s: int,
               session_col: str = "session_id", n_buckets: int = 256):
    """Append ``session_col``: per-key session index (0-based) where a new
    session starts when the gap since the previous event exceeds ``gap_s``
    seconds.  Returns a Dataset (shuffled by key-hash bucket).

    Scale shape (round 2): keys hash-bucket into ``n_buckets`` coarse
    co-partitions; inside a bucket EVERY key is assigned in one vectorized
    pass — stable lexsort (key, ts), gap flags forced False at segment
    starts, segmented cumsum — so per-key Python never happens regardless
    of key cardinality."""
    from timberjack_ray.functions.corpus import _segments

    def per_bucket(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
        # microsecond-exact gap test (ADVICE r02): truncating to whole
        # seconds misclassified fractional gaps in (gap_s, gap_s+1) vs the
        # epoch-diff oracle; integer-us comparison is exact for us-precision
        # timestamps.  Non-datetime inputs compare raw int values to gap_s.
        tvals = _ts_to_int(ts)
        gap = (int(gap_s) * 1_000_000
               if np.issubdtype(ts.dtype, np.datetime64) else int(gap_s))
        order = np.lexsort((tvals, k))  # stable: ties keep original order
        ks, ss = k[order], tvals[order]
        starts, sizes = _segments(ks)
        flags = np.r_[False, np.diff(ss) > gap]
        flags[starts] = False
        cum = np.cumsum(flags)
        sess = cum - np.repeat(cum[starts], sizes)
        return t.take(pa.array(order)).append_column(
            session_col, pa.array(sess.astype(np.int64)))

    return bucket_exchange(ds, [key_col], per_bucket, n_buckets)


def _session_count_partials(ds, key_col: str, ts_col: str, gap_s: int):
    """sessionize → per-batch (key, n) partials (n = max session_id + 1;
    merged with MAX downstream in case a key's rows span block splits)."""
    sessioned = sessionize(ds, key_col, ts_col, gap_s)

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = t.select([key_col, "session_id"]).group_by(key_col).aggregate(
            [("session_id", "max")])
        out = g.rename_columns([key_col, "n"])
        return out.set_column(1, "n", pc.add(out["n"].cast(pa.int64()), 1))

    return sessioned.map_batches(partial, batch_format="pyarrow")


def session_stats_ds(ds, key_col: str, ts_col: str, gap_s: int):
    """Distributed per-key session counts: the scale path — one row per key
    comes out of a Ray groupby(Max), never folded on the driver.  Consume
    the returned Dataset (write / further aggregate) at high key counts."""
    from timberjack_ray.aggregates import grouped_aggregate_ds

    p = _session_count_partials(ds, key_col, ts_col, gap_s)
    return grouped_aggregate_ds(p, [key_col],
                                [("n", "max", "n_sessions")])


def session_stats(ds, key_col: str, ts_col: str, gap_s: int,
                  driver_limit: int | None = None):
    """Per-key session count (distinct sessions after gap splitting).

    GUARDED driver fold (VERDICT r02 #2): the output is one row per key,
    so past ``driver_limit`` distinct keys (default FOLD_GUARD_LIMIT) the
    fold bails to the distributed ``session_stats_ds`` plan and returns its
    DATASET (caller streams/writes it) instead of a pandas frame — the
    per-key result must not land on the driver at web-scale key counts.
    Returns pd.DataFrame (``.attrs["mode"] = "driver"``) under the limit."""
    from timberjack_ray.aggregates import FOLD_GUARD_LIMIT

    # past driver_limit keys: one wasted partial pass (bounded by
    # driver_limit rows), then the distributed plan recomputes from the
    # source
    folded = merge_partials(
        _session_count_partials(ds, key_col, ts_col, gap_s), [key_col], "n",
        ops=["max"], degrade=lambda _: None,
        limit=FOLD_GUARD_LIMIT if driver_limit is None else driver_limit)
    if folded is None:
        return session_stats_ds(ds, key_col, ts_col, gap_s)
    out = folded.rename_columns([key_col, "n_sessions"]).to_pandas() \
        .sort_values(key_col).reset_index(drop=True)
    out.attrs["mode"] = "driver"
    return out


def funnel_counts(ds, key_col: str, ts_col: str, type_col: str,
                  steps: list[str], n_buckets: int = 256,
                  window_s: int | None = None) -> pd.DataFrame:
    """Ordered-funnel conversion counts: for each prefix of ``steps``, the
    number of distinct keys whose events contain those step types in strict
    temporal order (each step's timestamp strictly after the previous
    step's FIRST qualifying timestamp — the classic product-analytics
    funnel the reference has no counterpart for).

    ``window_s``: optional CONVERSION WINDOW — step j (j ≥ 2) must also
    land within ``window_s`` seconds of step j−1's first qualifying
    time (the "converted within the hour" refinement); the first step
    is unconstrained.

    Scale shape: one all-to-all of the (key, ts, type) projection into
    ``n_buckets`` hash co-partitions (same exchange as sessionize); inside
    a bucket every key is resolved in one vectorized pass per step —
    lexsort (key, ts), then per step j a masked segmented ``minimum.reduceat``
    finds each key's first ts of type steps[j] strictly after its step-j-1
    time.  Only ``len(steps)`` partial-count rows leave each bucket, so the
    merge is steps-sized regardless of key cardinality.
    """
    from timberjack_ray.functions.corpus import _segments

    proj = ds.select_columns([key_col, ts_col, type_col])
    steps = list(steps)

    def per_bucket(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
        ty = t[type_col].to_numpy(zero_copy_only=False)
        tvals = _ts_to_int(ts)
        order = np.lexsort((tvals, k))
        ks, ss, tys = k[order], tvals[order], ty[order]
        starts, sizes = _segments(ks)
        big = np.iinfo(np.int64).max
        # prev[i] = per-segment first-ts of the previous step (row-expanded)
        prev = np.full(len(ks), np.iinfo(np.int64).min, dtype=np.int64)
        w_us = None if window_s is None else np.int64(
            int(window_s) * (1_000_000 if np.issubdtype(ts.dtype,
                                                        np.datetime64)
                             else 1))
        counts = []
        for j, step in enumerate(steps):
            cond = (tys == step) & (ss > prev)
            if w_us is not None and j > 0:
                # prev can hold the ±int64 sentinels — add the window only
                # where a real previous-step time exists (failed keys'
                # cond is already False via ss > prev)
                valid = (prev > np.iinfo(np.int64).min) & (prev < big)
                upper = np.where(valid, prev + np.where(valid, w_us, 0),
                                 np.iinfo(np.int64).min)
                cond &= ss <= upper
            masked = np.where(cond, ss, big)
            if len(starts):
                seg_min = np.minimum.reduceat(masked, starts)
            else:
                seg_min = np.empty(0, dtype=np.int64)
            counts.append(int((seg_min < big).sum()))
            # keys that never reached this step stay at +inf, so no later
            # step can qualify for them (ss > big is never true)
            prev = np.repeat(seg_min, sizes)
        return pa.table({
            "step": pa.array(np.arange(1, len(steps) + 1, dtype=np.int64)),
            "step_type": pa.array(steps, type=pa.string()),
            "n_users": pa.array(np.asarray(counts, dtype=np.int64)),
        })

    partials = bucket_exchange(proj, [key_col], per_bucket, n_buckets)
    merged = merge_partials(partials, ["step", "step_type"], "n_users")
    out = merged.to_pandas().sort_values("step").reset_index(drop=True)
    return out.astype({"step": "int64", "n_users": "int64"})


def exact_quantiles(ds, col: str, qs: list[float], scale: int = 1) -> pd.DataFrame:
    """Exact discrete quantiles (type-1 / lower-value semantics, DuckDB's
    ``quantile_disc``): count per distinct scaled value, tiny merge,
    cumulative walk.  ``scale`` discretizes floats (e.g. 100 → cents).
    An empty input has no quantiles: 0 rows."""

    def partial(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import scale_to_int

        v = scale_to_int(t[col], scale)
        g = pa.table({"v": v}).group_by("v").aggregate([([], "count_all")])
        return g.rename_columns(["v", "n"])

    counts = merge_partials(ds.map_batches(partial, batch_format="pyarrow"),
                            ["v"], "n").to_pandas().sort_values("v")
    total = int(counts["n"].sum())
    cum = counts["n"].cumsum().to_numpy()
    vals = counts["v"].to_numpy()
    out_q, out_v = [], []
    for q in (qs if total else []):
        rank = max(int(np.ceil(q * total)), 1)
        idx = int(np.searchsorted(cum, rank))
        out_q.append(q)
        out_v.append(int(vals[min(idx, len(vals) - 1)]))
    return pd.DataFrame({"q": pd.Series(out_q, dtype="float64"),
                         "value_scaled": pd.Series(out_v, dtype="int64")})


def transition_counts(ds, key_col: str, ts_col: str, type_col: str,
                      id_col: str, n_buckets: int = 256,
                      with_latency: bool = False) -> pd.DataFrame:
    """Per-key next-event transition counts — the Markov-chain sufficient
    statistics: for each ordered pair (cur_type, next_type), how many times
    an event of cur_type is IMMEDIATELY followed (same key, (ts, id) order
    — the explicit id tiebreak makes timestamp ties deterministic on both
    engines) by next_type.  SQL's ``LEAD(type) OVER (PARTITION BY key
    ORDER BY ts, id)`` aggregated.

    Scale shape: the sessionize exchange — (key, ts, type) projection into
    key-hash buckets, one stable lexsort per bucket, a vectorized shift
    with segment-boundary masking, then (cur, next) partial counts; only
    |type_alphabet|² rows per bucket reach the merge.

    ``with_latency=True`` additionally folds the SOJOURN time — exact
    ``sum_gap_us`` per transition (the Markov chain with holding times;
    the mean is the consumer's division, so everything stays int).
    """

    proj = ds.select_columns([key_col, ts_col, type_col, id_col])

    def per_bucket(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
        ty = t[type_col].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        tvals = _ts_to_int(ts)
        order = np.lexsort((ids, tvals, k))
        ks, tys, ss = k[order], ty[order], tvals[order]
        same = ks[1:] == ks[:-1]
        cur, nxt = tys[:-1][same], tys[1:][same]
        if with_latency:
            gap = (ss[1:] - ss[:-1])[same]
            g = pa.table({"cur_type": pa.array(cur),
                          "next_type": pa.array(nxt),
                          "g": pa.array(gap)}) \
                .group_by(["cur_type", "next_type"]).aggregate(
                    [([], "count_all"), ("g", "sum")])
            return g.rename_columns(["cur_type", "next_type", "n",
                                     "sum_gap_us"])
        g = pa.table({"cur_type": pa.array(cur), "next_type": pa.array(nxt)}) \
            .group_by(["cur_type", "next_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["cur_type", "next_type", "n"])

    partials = bucket_exchange(proj, [key_col], per_bucket, n_buckets)
    n_cols = ["n", "sum_gap_us"] if with_latency else "n"
    merged = merge_partials(partials, ["cur_type", "next_type"], n_cols)
    out = merged.to_pandas().sort_values(["cur_type", "next_type"]) \
        .reset_index(drop=True)
    casts = {"n": "int64"} | ({"sum_gap_us": "int64"} if with_latency else {})
    return out.astype(casts)


def retention_cohorts(ds, key_col: str, ts_col: str, type_col: str,
                      signup_type: str = "signup",
                      bucket_us: int = 7 * 86_400 * 1_000_000) -> pd.DataFrame:
    """Cohort retention matrix — the product-analytics staple: cohort =
    bucket (default week) of a key's FIRST ``signup_type`` event;
    ``n_users`` = distinct keys of that cohort active in cohort+k.

    Plan: (1) per-batch (key, min signup bucket) partials → small min-merge
    → broadcast {key → cohort} (dimension-sized: one entry per signed-up
    key; at billions of keys swap for a groupby(Min) + GRACE join — the
    documented scale path); (2) one scan over ALL events computing k =
    bucket − cohort, collapsing each batch to distinct (cohort, k, key)
    triples; (3) merge distinct triples (bounded by keys × buckets) and
    count per (cohort, k).  Output: (cohort_week, k, n_users).
    """
    import pyarrow.compute as pc

    proj = ds.select_columns([key_col, ts_col, type_col])

    def signup_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t[type_col], signup_type))
        b = _ts_to_int(t[ts_col].combine_chunks()
                       .to_numpy(zero_copy_only=False)) // bucket_us
        g = pa.table({key_col: t[key_col], "cw": pa.array(b)}) \
            .group_by(key_col).aggregate([("cw", "min")])
        return g.rename_columns([key_col, "cw"])

    fold = merge_partials(
        proj.map_batches(signup_partial, batch_format="pyarrow"),
        [key_col], "cw", ops=["min"])
    if not fold.num_rows:
        return pd.DataFrame({"cohort_week": pd.array([], dtype="int64"),
                             "k": pd.array([], dtype="int64"),
                             "n_users": pd.array([], dtype="int64")})
    firsts = dict(zip(fold[key_col].to_pylist(), fold["cw"].to_pylist()))
    import ray

    ref = ray.put(firsts)

    def triple_partial(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.dedup import _fetch_bench

        fm = _fetch_bench(ref)
        keys = t[key_col].to_numpy(zero_copy_only=False)
        b = _ts_to_int(t[ts_col].combine_chunks()
                       .to_numpy(zero_copy_only=False)) // bucket_us
        cw = pd.Series(keys).map(fm).to_numpy(dtype=np.float64)
        ok = ~np.isnan(cw)
        k_off = b[ok] - cw[ok].astype(np.int64)
        keep = k_off >= 0
        g = pa.table({
            "cohort_week": pa.array(cw[ok][keep].astype(np.int64)),
            "k": pa.array(k_off[keep]),
            key_col: pa.array(keys[ok][keep]),
        }).group_by(["cohort_week", "k", key_col]).aggregate([])
        return g.append_column("one", pa.array(np.ones(g.num_rows, np.int64)))

    triples = merge_partials(
        proj.map_batches(triple_partial, batch_format="pyarrow"),
        ["cohort_week", "k", key_col], "one")
    out = triples.group_by(["cohort_week", "k"]).aggregate([([], "count_all")]) \
        .rename_columns(["cohort_week", "k", "n_users"]).to_pandas() \
        .sort_values(["cohort_week", "k"]).reset_index(drop=True)
    return out.astype({"cohort_week": "int64", "k": "int64",
                       "n_users": "int64"})


def exact_quantiles_cont(ds, col: str, qs: list[float], scale: int = 1) -> pd.DataFrame:
    """Linear-interpolated quantiles (DuckDB ``quantile_cont`` / numpy
    type-7) from the same per-distinct-value count histogram as
    ``exact_quantiles`` — no distributed sort, merge volume = distinct
    values.

    Bit-exact vs SQL for DYADIC q (k/2^m, e.g. 0.25/0.5/0.75): with integer
    scaled values v < 2^51, h = (n-1)·q, frac = h-⌊h⌋ and
    lo + (hi-lo)·frac are all exact in binary floating point, so ANY
    algebraically-equivalent interpolation order produces the identical
    double.  Non-dyadic q (0.95, …) may differ in the last ulp between
    engines — use exact_quantiles (discrete) for those.
    """

    def partial(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import scale_to_int

        v = scale_to_int(t[col], scale)
        g = pa.table({"v": v}).group_by("v").aggregate([([], "count_all")])
        return g.rename_columns(["v", "n"])

    from timberjack_ray.aggregates import merge_partials

    counts = merge_partials(ds.map_batches(partial, batch_format="pyarrow"),
                            ["v"], "n").to_pandas().sort_values("v")
    total = int(counts["n"].sum())
    cum = counts["n"].cumsum().to_numpy()
    vals = counts["v"].to_numpy()

    def value_at(rank0: int) -> int:  # 0-based rank in the sorted multiset
        idx = int(np.searchsorted(cum, rank0 + 1))
        return int(vals[min(idx, len(vals) - 1)])

    out_q, out_v = [], []
    for q in qs:
        h = (total - 1) * float(q)
        lo_i, hi_i = int(np.floor(h)), int(np.ceil(h))
        lo, hi = value_at(lo_i), value_at(hi_i)
        out_q.append(float(q))
        out_v.append(lo + (hi - lo) * (h - lo_i))
    return pd.DataFrame({"q": out_q, "value_scaled": out_v})


def debounce(ds, key_col: str, sub_col: str, ts_col: str, id_col: str,
             window_s: int, n_buckets: int = 256):
    """Windowed event dedup ("debounce"): keep a row iff it is the FIRST
    event of its (key, sub) stream or arrived more than ``window_s``
    seconds after the previous kept-or-dropped event of that stream —
    SQL's ``LAG(ts) OVER (PARTITION BY key, sub ORDER BY ts, id)`` gap
    test, the standard repeated-telemetry suppressor.

    Scale shape: the sessionize exchange — hash-bucket on ``key_col``
    (all of a key's substreams co-locate), ONE stable lexsort per bucket
    on (key, sub, ts, id), segment-boundary flags, gap test on INTEGER
    MICROSECONDS (fractional-second exactness — the ADVICE r02 rule).
    Returns the surviving rows as a Dataset (input schema preserved).
    """

    gap_us = int(window_s) * 1_000_000

    def per_bucket(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        s = t[sub_col].to_numpy(zero_copy_only=False)
        i = t[id_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
        tv = _ts_to_int(ts)
        order = np.lexsort((i, tv, s, k))
        ks, ss, tvs = k[order], s[order], tv[order]
        new_seg = np.r_[True, (ks[1:] != ks[:-1]) | (ss[1:] != ss[:-1])]
        gap_ok = np.r_[True, np.diff(tvs) > gap_us]
        keep = new_seg | gap_ok
        return t.take(pa.array(np.sort(order[keep])))

    return bucket_exchange(ds, [key_col], per_bucket, n_buckets)


def first_event_per_key(ds, key_col: str, ts_col: str, id_col: str,
                        n_buckets: int = 256):
    """Per-key FIRST row under (ts, id) order — SQL ``FIRST_VALUE`` /
    ``ROW_NUMBER() = 1`` (first-touch attribution, signup-event pick,
    argmin-by-time).  Same one-exchange bucket co-partition as
    ``sessionize``: inside a bucket one stable lexsort + segment starts
    select every key's first row vectorized; output (one row per key)
    streams as a Dataset, never the driver.
    """
    from timberjack_ray.functions.corpus import _segments

    def per_bucket(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        i = t[id_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((i, _ts_to_int(ts), k))
        starts, _sizes = _segments(k[order])
        return t.take(pa.array(order[starts]))

    return bucket_exchange(ds, [key_col], per_bucket, n_buckets)


def session_type_pairs(ds, key_col: str, ts_col: str, type_col: str,
                       gap_s: int, n_buckets: int = 256) -> "pd.DataFrame":
    """Within-session co-occurrence counts: for every session (gap_s
    splitting, as ``sessionize``), the DISTINCT unordered pairs of event
    types seen together — market-basket sufficient statistics over
    sessions.  Counts one per (session, pair).

    Scale shape: the sessionize bucket exchange, then INSIDE the same
    per-bucket pass — session assignment (lexsort + segmented cumsum),
    (session, type) dedup, and a d-offset pair expansion whose trip count
    is bounded by the TYPE ALPHABET (distinct types per session), not the
    session length.  Only |alphabet|² count rows leave each bucket.
    """
    import pandas as pd

    from timberjack_ray.aggregates import merge_partials
    from timberjack_ray.functions.corpus import _segments

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"type_a": pa.array([], pa.string()),
                          "type_b": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        k = t[key_col].to_numpy(zero_copy_only=False)
        ty = t[type_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
        tv = _ts_to_int(ts)
        gap = (int(gap_s) * 1_000_000
               if np.issubdtype(ts.dtype, np.datetime64) else int(gap_s))
        order = np.lexsort((tv, k))
        ks, ss, tys = k[order], tv[order], ty[order]
        starts, sizes = _segments(ks)
        flags = np.r_[False, np.diff(ss) > gap]
        flags[starts] = False
        new_key = np.r_[True, ks[1:] != ks[:-1]]
        sess_gid = np.cumsum(flags | new_key)  # globally unique session id
        # distinct (session, type): sort by (session, type), drop dup runs
        o2 = np.lexsort((tys, sess_gid))
        sg, tg = sess_gid[o2], tys[o2]
        first = np.r_[True, (sg[1:] != sg[:-1]) | (tg[1:] != tg[:-1])]
        sg, tg = sg[first], tg[first]
        s2, z2 = _segments(sg)
        if len(sg) < 2:
            return empty
        # offset pair expansion: d bounded by the per-session alphabet
        seg_of = np.repeat(np.arange(len(s2)), z2)
        out_a, out_b = [], []
        for d in range(1, int(z2.max())):
            left = np.arange(len(sg) - d)
            same = seg_of[left] == seg_of[left + d]
            out_a.append(tg[left[same]])
            out_b.append(tg[left[same] + d])
        if not out_a:
            return empty
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        g = pa.table({"type_a": pa.array(a), "type_b": pa.array(b)}) \
            .group_by(["type_a", "type_b"]).aggregate([([], "count_all")])
        return g.rename_columns(["type_a", "type_b", "n"])

    partials = bucket_exchange(ds, [key_col], per_bucket, n_buckets)
    out = merge_partials(partials, ["type_a", "type_b"], "n").to_pandas()
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True) \
        .astype({"n": "int64"})


def path_trigram_counts(ds, key_col: str, ts_col: str, type_col: str,
                        id_col: str, k: int = 10,
                        n_buckets: int = 256) -> "pd.DataFrame":
    """Top-K per-key event-type TRIGRAM paths (a → b → c on three
    consecutive events of one key, (ts, id) order) — the order-3 extension
    of ``transition_counts``: the path-mining / next-event-model
    sufficient statistics.  Same one-exchange bucket shape; two vectorized
    shifts with double segment-boundary masking; merge rows bounded by
    alphabet³.
    """
    import pandas as pd

    from timberjack_ray.aggregates import merge_partials

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"t1": pa.array([], pa.string()),
                          "t2": pa.array([], pa.string()),
                          "t3": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows < 3:
            return empty
        kk = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
        ty = t[type_col].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, _ts_to_int(ts), kk))
        ks, tys = kk[order], ty[order]
        same2 = (ks[2:] == ks[1:-1]) & (ks[1:-1] == ks[:-2])
        if not same2.any():
            return empty
        g = pa.table({"t1": pa.array(tys[:-2][same2]),
                      "t2": pa.array(tys[1:-1][same2]),
                      "t3": pa.array(tys[2:][same2])}) \
            .group_by(["t1", "t2", "t3"]).aggregate([([], "count_all")])
        return g.rename_columns(["t1", "t2", "t3", "n"])

    partials = bucket_exchange(ds, [key_col], per_bucket, n_buckets)
    out = merge_partials(partials, ["t1", "t2", "t3"], "n").to_pandas()
    out = out.sort_values(["n", "t1", "t2", "t3"],
                          ascending=[False, True, True, True]).head(k)
    return out.reset_index(drop=True).astype({"n": "int64"})


def percentile_ranks(ds, col: str, id_col: str, scale: int = 100,
                     max_hist: int = 5_000_000):
    """Empirical-CDF feature transform: for every row, (id, n_less, n_eq)
    — how many values in the whole column are strictly below / equal to
    this row's scaled value.  The exact-integer percentile rank (the
    standard rank-normalization step before model features; PERCENT_RANK
    = n_less / (n_total − 1) is the consumer's division).

    Plan: ONE counting pass builds the per-distinct-scaled-value histogram
    (value-domain-sized — the exact_quantiles shape, never a sort); the
    cumulative table broadcasts (``ray.put`` once); a second streaming
    pass assigns each row's (n_less, n_eq) via one vectorized searchsorted.
    The histogram fold is GUARDED DURING the fold (merge_partials_or_ds):
    past ``max_hist`` distinct values it bails with bounded driver memory
    and raises — open float domains need a coarser ``scale``; the
    discretization IS the contract, matching the SQL oracle's ROUND.
    Returns a Dataset (streams; row-volume output).
    """
    import ray

    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.util import fetch_broadcast, scale_to_int

    def partial(t: pa.Table) -> pa.Table:
        v = scale_to_int(t[col], scale)
        g = pa.table({"v": v}).group_by("v").aggregate([([], "count_all")])
        return g.rename_columns(["v", "n"])

    folded, mode = merge_partials_or_ds(
        ds.map_batches(partial, batch_format="pyarrow"), ["v"], ["n"],
        driver_limit=max_hist)
    if mode == "distributed":
        raise ValueError(
            f"distinct scaled-value domain exceeds max_hist={max_hist}; "
            "coarsen `scale` (the cumulative table must broadcast)")
    counts = folded.to_pandas().sort_values("v")
    vals = counts["v"].to_numpy().astype(np.int64)
    ns = counts["n"].to_numpy().astype(np.int64)
    n_less = np.concatenate([[0], np.cumsum(ns)[:-1]])
    ref = ray.put((vals, ns, n_less))

    def assign(t: pa.Table) -> pa.Table:
        vv, nn, nl = fetch_broadcast(ref)
        v = scale_to_int(t[col], scale).to_numpy()
        idx = np.searchsorted(vv, v)  # exact: every v is in the histogram
        return pa.table({id_col: t[id_col],
                         "n_less": pa.array(nl[idx]),
                         "n_eq": pa.array(nn[idx])})

    return ds.map_batches(assign, batch_format="pyarrow")


def grouped_cumsum(ds, key_col: str, ts_col: str, id_col: str,
                   val_col: str, scale: int = 100, n_buckets: int = 256):
    """Per-key RUNNING TOTAL in event order — SQL ``SUM(v) OVER (PARTITION
    BY key ORDER BY ts, id ROWS UNBOUNDED PRECEDING)`` on the scaled-int
    domain (exact; no float summation-order dependence).  The cumulative
    feature-engineering op (lifetime spend so far, bytes so far).

    Scale shape: the sessionize exchange — key-hash buckets, ONE lexsort
    (key, ts, id) per bucket, then a vectorized SEGMENTED cumsum
    (prefix sums minus each segment's base).  Output is row-volume and
    streams (a Dataset of (id, cum_scaled))."""
    from timberjack_ray.functions.corpus import _segments
    from timberjack_ray.functions.util import scale_to_int

    proj = ds.select_columns([key_col, ts_col, id_col, val_col])

    def per_bucket(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = _ts_to_int(t[ts_col].combine_chunks()
                        .to_numpy(zero_copy_only=False))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        v = scale_to_int(t[val_col], scale).to_numpy()
        order = np.lexsort((ids, ts, k))
        ks, vs = k[order], v[order]
        c = np.cumsum(vs)
        starts, sizes = _segments(ks)
        base = (c[starts] - vs[starts])
        cum = c - np.repeat(base, sizes)
        return pa.table({id_col: pa.array(ids[order]),
                         "cum_scaled": pa.array(cum.astype(np.int64))})

    return bucket_exchange(proj, [key_col], per_bucket, n_buckets)


def grouped_decayed_sum(ds, key_col: str, ts_col: str, id_col: str,
                        val_col: str, window: int = 16, scale: int = 100,
                        n_buckets: int = 256):
    """Per-key EXPONENTIALLY-DECAYED activity score in event order,
    truncated at ``window`` events so the arithmetic stays EXACT int64:

        decayed_i = Σ_{j=0..W-1} cents(v_{i−j}) · 2^(W−1−j)

    (half-life = one event; older events shift one bit down; terms beyond
    W, or across a key boundary, drop).  The truncation is what makes the
    op hash-checkable — true float EWMA accumulates rounding that depends
    on evaluation ORDER, so a vectorized engine and a sequential SQL
    window can legitimately disagree; the W-term form is a plain linear
    combination both replay bit-identically (SQL: W LAG terms).

    Scale shape: the sessionize exchange (key-hash buckets, ONE lexsort
    (key, ts, id) per bucket), then W−1 shifted segment-masked adds —
    trip count = W, independent of key cardinality and row count.  Output
    is row-volume and streams."""
    from timberjack_ray.functions.corpus import _segments
    from timberjack_ray.functions.util import scale_to_int

    proj = ds.select_columns([key_col, ts_col, id_col, val_col])
    w = int(window)

    def per_bucket(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = _ts_to_int(t[ts_col].combine_chunks()
                        .to_numpy(zero_copy_only=False))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        v = scale_to_int(t[val_col], scale).to_numpy()
        order = np.lexsort((ids, ts, k))
        ks, vs = k[order], v[order]
        seg_id = np.cumsum(np.r_[True, ks[1:] != ks[:-1]])
        dec = vs * (1 << (w - 1))
        for j in range(1, w):
            if j >= len(vs):
                break
            same = seg_id[j:] == seg_id[:-j]
            add = vs[:-j] * (1 << (w - 1 - j))
            dec[j:] += np.where(same, add, 0)
        return pa.table({id_col: pa.array(ids[order]),
                         "decayed": pa.array(dec.astype(np.int64))})

    return bucket_exchange(proj, [key_col], per_bucket, n_buckets)


def exact_quantile_bisect(ds, col: str, qs: list[float], scale: int = 100,
                          n_pivots: int = 255, max_passes: int = 12):
    """EXACT type-1 quantiles on an UNBOUNDED scaled-int domain by
    distributed selection — the missing tier of the quantile family:
    ``exact_quantiles`` needs bounded DISTINCT cardinality (histogram
    fold), the HDR sketch trades exactness for one pass; this trades a
    few passes for exactness at ANY cardinality with O(n_pivots) driver
    state.

    Each pass streams ONE `searchsorted`-bincount of every row against a
    SHARED pivot grid covering every unresolved rank's bracket (≈
    ``n_pivots // n_unresolved`` integer-spaced pivots per bracket,
    endpoints included), so all ranks narrow from the same passes.
    Pivots use integer arithmetic ``a + (span·i)//(m−1)`` — float
    linspace loses integer resolution above ~2^53 and can stall the
    bracket.  Raises RuntimeError if any bracket fails to close within
    ``max_passes`` (never returns an inexact value).

    Returns DataFrame (q, value_scaled) — identical to SQL
    ``quantile_disc`` on the cent domain.
    """
    from timberjack_ray.functions.util import scale_to_int

    qs = sorted(qs)

    # pass 0: global n, min, max
    def minmax_partial(t: pa.Table) -> pa.Table:
        v = scale_to_int(t[col], scale).to_numpy()
        if not len(v):
            return pa.table({"n": pa.array([], pa.int64()),
                             "lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        return pa.table({"n": [len(v)], "lo": [int(v.min())],
                         "hi": [int(v.max())]})

    n_total, lo, hi = 0, None, None
    for b in ds.map_batches(minmax_partial, batch_format="pyarrow") \
               .iter_batches(batch_size=None, batch_format="pyarrow"):
        for i in range(b.num_rows):
            n_total += b["n"][i].as_py()
            blo, bhi = b["lo"][i].as_py(), b["hi"][i].as_py()
            lo = blo if lo is None else min(lo, blo)
            hi = bhi if hi is None else max(hi, bhi)
    if n_total == 0:
        return pd.DataFrame({"q": qs, "value_scaled": [0] * len(qs)})
    # type-1 target ranks (1-based): ceil(q * n)
    ranks = [max(1, int(np.ceil(q * n_total))) for q in qs]
    lo_b, hi_b = int(lo), int(hi)

    def counts_below(pivots: np.ndarray) -> np.ndarray:
        """One streaming pass: for each pivot p, #rows with v <= p."""
        piv = pivots.astype(np.int64)

        def partial(t: pa.Table) -> pa.Table:
            v = np.sort(scale_to_int(t[col], scale).to_numpy())
            c = np.searchsorted(v, piv, side="right")
            return pa.table({"i": pa.array(np.arange(len(piv))),
                             "c": pa.array(c.astype(np.int64))})

        acc = np.zeros(len(piv), dtype=np.int64)
        for b in ds.map_batches(partial, batch_format="pyarrow") \
                   .iter_batches(batch_size=None, batch_format="pyarrow"):
            if b.num_rows:
                acc[b["i"].to_numpy(zero_copy_only=False)] += \
                    b["c"].to_numpy(zero_copy_only=False)
        return acc

    # one bracket per target rank; ALL unresolved brackets narrow from
    # each shared streaming pass
    lo_by = {r: lo_b for r in set(ranks)}
    hi_by = {r: hi_b for r in set(ranks)}
    for _ in range(max_passes):
        open_ranks = [r for r in lo_by if lo_by[r] < hi_by[r]]
        if not open_ranks:
            break
        m = max(3, n_pivots // len(open_ranks))
        grid: list[int] = []
        for r in open_ranks:
            a, b_hi = lo_by[r], hi_by[r]
            span = b_hi - a
            # integer pivot arithmetic — exact on the full int64 domain
            grid.extend(a + (span * i) // (m - 1) for i in range(m))
        piv = np.unique(np.array(grid, dtype=np.int64))
        cle = counts_below(piv)
        for r in open_ranks:
            # smallest pivot with count(<= pivot) >= rank bounds the
            # answer above; the previous pivot (count < rank) + 1 below.
            # cle is monotone in pivot value, and r's own bracket top is
            # in the grid with count >= rank, so j always resolves.
            j = int(np.searchsorted(cle, r, side="left"))
            hi_by[r] = min(hi_by[r], int(piv[j]))
            if j > 0:
                lo_by[r] = max(lo_by[r], int(piv[j - 1]) + 1)
    unresolved = [r for r in lo_by if lo_by[r] < hi_by[r]]
    if unresolved:
        raise RuntimeError(
            f"exact_quantile_bisect: {len(unresolved)} rank bracket(s) did "
            f"not close in {max_passes} passes — raise max_passes/n_pivots")
    return pd.DataFrame({"q": qs,
                         "value_scaled": np.array(
                             [hi_by[r] for r in ranks], dtype=np.int64)})


def run_length_stats(ds, key_col: str, ts_col: str, type_col: str,
                     id_col: str, n_buckets: int = 256) -> pd.DataFrame:
    """Run-length-encoding stats of per-key event streams (round 4): for
    each type, how many RUNS (maximal same-type stretches in (ts, id)
    order within a key) and how many events total — the gaps-and-islands
    compression census, SQL-replayable via ``LAG(type)`` run starts.

    Scale shape: the sessionize exchange (key-hash buckets, one lexsort
    per bucket, vectorized run-start mask); only |alphabet| partials per
    bucket reach the merge."""

    proj = ds.select_columns([key_col, ts_col, type_col, id_col])

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({type_col: pa.array([], pa.string()),
                          "n_events": pa.array([], pa.int64()),
                          "n_runs": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = t[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
        ty = t[type_col].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, _ts_to_int(ts), k))
        ks, tys = k[order], ty[order]
        start = np.r_[True, (ks[1:] != ks[:-1]) | (tys[1:] != tys[:-1])]
        g = pa.table({type_col: pa.array(tys),
                      "s": pa.array(start.astype(np.int64))}) \
            .group_by(type_col).aggregate([([], "count_all"), ("s", "sum")])
        return g.rename_columns([type_col, "n_events", "n_runs"])

    partials = bucket_exchange(proj, [key_col], per_bucket, n_buckets)
    out = merge_partials(partials, [type_col], ["n_events", "n_runs"]) \
        .to_pandas()
    return out.sort_values(type_col).reset_index(drop=True) \
        .astype({"n_events": "int64", "n_runs": "int64"})


def longest_streak_histogram(ds, key_col: str, ts_col: str,
                             day_us: int = 86_400_000_000,
                             n_buckets: int = 256) -> pd.DataFrame:
    """Gaps-and-islands: per-key longest run of CONSECUTIVE active days,
    folded to a (streak_days, n_keys) histogram — the classic SQL-hard
    streak analysis (retention / habit metrics), replayable via the
    ``day − ROW_NUMBER()`` island identity.

    Scale shape: per-batch DISTINCT (key, day) pairs shrink the exchange
    to active-day volume; ONE key-hash bucket exchange co-locates each
    key; inside a bucket every key resolves in one vectorized pass —
    lexsort, global pair dedup, island id = day − within-key rank
    (constant exactly on consecutive runs), run lengths by diff over run
    starts, per-key max by ``maximum.reduceat`` (runs are contiguous per
    key after the sort).  Only the (streak → count) histogram leaves a
    bucket, bounded by the longest streak, never key cardinality."""
    import pyarrow.compute as pc

    from timberjack_ray.aggregates import merge_partials
    from timberjack_ray.functions.corpus import _segments

    def pre(t: pa.Table) -> pa.Table:
        d = pc.divide(pc.cast(t[ts_col], pa.int64()),
                      pa.scalar(int(day_us), pa.int64()))
        return pa.table({"k": t[key_col], "d": d}) \
            .group_by(["k", "d"]).aggregate([])

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"streak_days": pa.array([], pa.int64()),
                          "n_keys": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        k = t["k"].to_numpy(zero_copy_only=False)
        d = t["d"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, k))
        ks, days = k[order], d[order]
        # global (key, day) dedup: every row of a key is in this bucket
        keep = np.r_[True, (ks[1:] != ks[:-1]) | (days[1:] != days[:-1])]
        ks, days = ks[keep], days[keep]
        starts, sizes = _segments(ks)
        rank = np.arange(len(ks), dtype=np.int64) - np.repeat(starts, sizes)
        isl = days - rank
        run_start = np.flatnonzero(
            np.r_[True, (ks[1:] != ks[:-1]) | (isl[1:] != isl[:-1])])
        run_len = np.diff(np.r_[run_start, len(ks)])
        key_run_starts, _ = _segments(ks[run_start])
        longest = np.maximum.reduceat(run_len, key_run_starts)
        vals, cnts = np.unique(longest, return_counts=True)
        return pa.table({"streak_days": pa.array(vals.astype(np.int64)),
                         "n_keys": pa.array(cnts.astype(np.int64))})

    p = bucket_exchange(ds.map_batches(pre, batch_format="pyarrow"), ["k"],
                        per_bucket, n_buckets)
    out = merge_partials(p, ["streak_days"], "n_keys").to_pandas()
    return out.sort_values("streak_days").reset_index(drop=True) \
        .astype({"streak_days": "int64", "n_keys": "int64"})


def interval_union_per_key(ds, key_col: str, start_col: str, end_col: str,
                           n_buckets: int = 256):
    """Per-key UNION LENGTH of (possibly overlapping) intervals — dwell /
    active-time accounting: merge each key's overlapping intervals into
    islands and sum the covered microseconds.  SQL-replayable via the
    classic running-MAX(end)-over-preceding island rule, which this
    kernel reproduces exactly on the integer domain.

    Scale shape: ONE key-bucket exchange; per bucket ALL keys resolve in
    one vectorized pass — lexsort (key, start, end), a segment-reset
    running max of END via the ``code·OFF + (end − base)`` composite
    (OFF > bucket span keeps the accumulate from crossing keys), island
    starts where ``start > prev running max``, island extents by
    ``maximum.reduceat``, per-key sums by ``add.reduceat``.  Output
    streams one (key, covered_us) row per key."""
    import pyarrow.compute as pc

    from timberjack_ray.functions.corpus import _segments

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({key_col: pa.array([], pa.int64()),
                          "covered_us": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        k = t[key_col].to_numpy(zero_copy_only=False)
        s = t[start_col].to_numpy(zero_copy_only=False)
        e = t[end_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, s, k))
        ks, ss, es = k[order], s[order], e[order]
        starts, sizes = _segments(ks)
        n = len(ks)
        code = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        base = int(min(ss.min(), es.min()))
        span = int(max(ss.max(), es.max())) - base
        off = span + 2
        if len(starts) * off >= 2**62:  # pragma: no cover - overflow guard
            raise ValueError("interval_union_per_key: composite overflow — "
                             "raise n_buckets")
        comp = np.maximum.accumulate(code * np.int64(off) + (es - base))
        run_end = comp - code * np.int64(off) + base  # per-key cummax(end)
        seg_first = np.zeros(n, bool)
        seg_first[starts] = True
        prev = np.empty(n, np.int64)
        prev[1:] = run_end[:-1]
        prev[0] = 0
        new_isl = seg_first | (~seg_first & (ss > prev))
        isl_starts = np.flatnonzero(new_isl)
        isl_end = np.maximum.reduceat(es, isl_starts)
        isl_len = isl_end - ss[isl_starts]
        isl_key = ks[isl_starts]
        kstarts, _ = _segments(isl_key)
        covered = np.add.reduceat(isl_len, kstarts)
        return pa.table({key_col: pa.array(isl_key[kstarts]),
                         "covered_us": pa.array(covered.astype(np.int64))})

    return bucket_exchange(ds, [key_col], per_bucket, n_buckets)


def survival_day_histogram(ds, key_col: str, ts_col: str, type_col: str,
                           start_type: str, event_type: str,
                           day_us: int = 86_400_000_000,
                           n_buckets: int = 256) -> pd.DataFrame:
    """Survival-analysis input statistics: per key, the whole-day
    duration from its FIRST ``start_type`` event to its first
    ``event_type`` at-or-after it; keys that never convert are CENSORED
    at the corpus max timestamp.  Returns the (day, n_event,
    n_censored) histogram — the exact-integer Kaplan-Meier input (the
    estimator itself is the consumer's float product).

    Scale shape: one corpus-max pre-pass (one tiny partial per batch);
    ONE key-bucket exchange; per bucket every key resolves in one
    vectorized pass (lexsort + two masked segmented ``minimum.reduceat``
    — the funnel kernel emitting TIMES instead of counts); only the
    day-bounded histogram leaves a bucket."""
    import pyarrow.compute as pc

    from timberjack_ray.functions.corpus import _segments

    def maxp(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"mx": pa.array([], pa.int64())})
        ts = pc.cast(t[ts_col], pa.int64())
        return pa.table({"mx": pa.array([int(pc.max(ts).as_py())])})

    t_max = int(ds.map_batches(maxp, batch_format="pyarrow")
                .to_pandas()["mx"].max())

    proj = ds.select_columns([key_col, ts_col, type_col])
    big = np.iinfo(np.int64).max

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"day": pa.array([], pa.int64()),
                          "n_event": pa.array([], pa.int64()),
                          "n_censored": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        k = t[key_col].to_numpy(zero_copy_only=False)
        ts = pc.cast(t[ts_col].combine_chunks(), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ty = t[type_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, k))
        ks, ss, tys = k[order], ts[order], ty[order]
        starts, sizes = _segments(ks)
        s0 = np.minimum.reduceat(np.where(tys == start_type, ss, big),
                                 starts)
        prev = np.repeat(s0, sizes)
        p0 = np.minimum.reduceat(
            np.where((tys == event_type) & (ss >= prev), ss, big), starts)
        has_start = s0 < big
        converted = has_start & (p0 < big)
        censored = has_start & ~converted
        days_e = (p0[converted] - s0[converted]) // day_us
        days_c = (t_max - s0[censored]) // day_us
        ve, ne = np.unique(days_e, return_counts=True)
        vc, nc = np.unique(days_c, return_counts=True)
        bins = np.union1d(ve, vc)
        oe = np.zeros(len(bins), np.int64)
        oc = np.zeros(len(bins), np.int64)
        oe[np.searchsorted(bins, ve)] = ne
        oc[np.searchsorted(bins, vc)] = nc
        return pa.table({"day": pa.array(bins.astype(np.int64)),
                         "n_event": pa.array(oe),
                         "n_censored": pa.array(oc)})

    p = bucket_exchange(proj, [key_col], per_bucket, n_buckets)
    out = merge_partials(p, ["day"], ["n_event", "n_censored"]).to_pandas()
    return out.sort_values("day").reset_index(drop=True) \
        .astype({"day": "int64", "n_event": "int64", "n_censored": "int64"})


def concurrent_span_pairs(ds, key_col: str, ts_col: str, gap_s: int,
                          bucket_us: int = 86_400_000_000) -> pd.DataFrame:
    """Interval-OVERLAP self-join, counting form: sessionize per key, then
    count pairs of sessions from DIFFERENT keys whose closed time spans
    [first_ts, last_ts] intersect — the "how many concurrent sessions"
    join the point-in-time ``max_concurrent_values`` op can't answer.
    Output: (day, n_pairs) where a pair is charged to the day of its
    LATER start (ties broken by (key, session)), so every pair counts
    exactly once and the assignment replays in SQL.

    Plan — no all-pairs: spans flat-map to one replica per ``bucket_us``
    window they touch (sessions are gap-bounded, so the replication
    factor is ~1); inside a bucket one lexsort + two searchsorteds run
    the classic sweep: a pair is counted when its later interval starts
    while the earlier one is still active, i.e.
    ``active_before(i) = rank(i) − #{ends < start_i}`` — O(B log B) per
    bucket, only (start, end, key, session) ints ever shuffle.  Same-key
    sessions can never overlap (successive sessions are > gap apart), so
    no same-key exclusion term is needed.
    """
    from ray.data.aggregate import Max, Min

    sess = sessionize(ds, key_col, ts_col, gap_s)

    def spans_partial(t: pa.Table) -> pa.Table:
        us = _ts_to_int(t[ts_col].to_numpy(zero_copy_only=False))
        g = pa.table({key_col: t[key_col],
                      "session_id": t["session_id"],
                      "us": pa.array(us)}) \
            .group_by([key_col, "session_id"]) \
            .aggregate([("us", "min"), ("us", "max")])
        return g.rename_columns([key_col, "session_id", "s", "e"])

    spans = sess.map_batches(spans_partial, batch_format="pyarrow") \
        .groupby([key_col, "session_id"]) \
        .aggregate(Min("s", alias_name="s"), Max("e", alias_name="e"))

    B = int(bucket_us)

    def replicate(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = t["e"].to_numpy(zero_copy_only=False).astype(np.int64)
        kk = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sid = t["session_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d0, d1 = s // B, e // B
        reps = (d1 - d0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(s), dtype=np.int64), reps)
        off = np.arange(int(reps.sum()), dtype=np.int64) \
            - np.repeat(np.concatenate([[0], np.cumsum(reps)[:-1]]), reps)
        return pa.table({"day": pa.array(d0[idx] + off),
                         "s": pa.array(s[idx]), "e": pa.array(e[idx]),
                         "k": pa.array(kk[idx]), "sid": pa.array(sid[idx])})

    def sweep(t: pa.Table) -> pa.Table:
        day = int(t["day"][0].as_py())
        s = t["s"].to_numpy(zero_copy_only=False)
        e = t["e"].to_numpy(zero_copy_only=False)
        kk = t["k"].to_numpy(zero_copy_only=False)
        sid = t["sid"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sid, kk, s))
        s, e = s[order], e[order]
        in_bucket = (s // B) == day
        if not in_bucket.any():
            return pa.table({"day": pa.array([], pa.int64()),
                             "n_pairs": pa.array([], pa.int64())})
        ranks = np.arange(len(s), dtype=np.int64)
        ended = np.searchsorted(np.sort(e), s, side="left")
        n = int((ranks - ended)[in_bucket].sum())
        if n == 0:
            return pa.table({"day": pa.array([], pa.int64()),
                             "n_pairs": pa.array([], pa.int64())})
        return pa.table({"day": pa.array([day], pa.int64()),
                         "n_pairs": pa.array([n], pa.int64())})

    p = spans.map_batches(replicate, batch_format="pyarrow") \
        .groupby("day").map_groups(sweep, batch_format="pyarrow")
    out = merge_partials(p, ["day"], "n_pairs").to_pandas()
    return out.sort_values("day").reset_index(drop=True) \
        .astype({"day": "int64", "n_pairs": "int64"})


def session_path_topk(ds, key_col: str, ts_col: str, id_col: str,
                      type_col: str, gap_s: int, k: int = 20,
                      sep: str = ">", n_buckets: int = 256,
                      path_driver_limit: int = 2_000_000):
    """Top-k SESSION PATHS: sessionize per key (new session when the gap
    since the previous event exceeds ``gap_s`` seconds), render each
    session as the ``sep``-joined sequence of ``type_col`` values in
    (ts, id) order, and return the ``k`` most frequent paths by
    (n desc, path asc) — clickstream path mining, the sequence-census
    big sibling of event_path_trigrams (trigrams census local windows;
    this censuses WHOLE journeys, the "what do converting sessions look
    like" query).

    Scale shape: ONE key-bucket exchange (events for one key land in one
    task); inside a bucket all keys resolve in a single vectorized pass
    — lexsort (key, ts, id), µs-exact gap flags forced False at segment
    starts, segmented cumsum for session ids — and path strings fold to
    per-bucket (path, n) partials immediately, so full paths never
    re-shuffle.  The partial merge is path-vocabulary-sized, guarded by
    ``path_driver_limit``: past it the SAME partials degrade to a
    distributed groupby-sum + ``sorted_topk`` and nothing unbounded
    touches the driver."""
    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.corpus import _segments
    from timberjack_ray.functions.relational import sorted_topk

    gap_us = int(gap_s) * 1_000_000

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"path": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        key = t[key_col].to_numpy(zero_copy_only=False)
        ts = _ts_to_int(t[ts_col].combine_chunks()
                        .to_numpy(zero_copy_only=False))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        ets = t[type_col].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, ts, key))
        ks, ss, es = key[order], ts[order], ets[order]
        starts, sizes = _segments(ks)
        # new session at every key-segment start or gap break; the cumsum
        # gives bucket-unique session labels (keys never split buckets)
        brk = np.r_[False, np.diff(ss) > gap_us]
        brk[starts] = True
        sid = np.cumsum(brk)
        paths = pd.Series(es).groupby(sid, sort=False).agg(sep.join)
        g = pa.table({"path": pa.array(paths.to_numpy(), pa.string())}) \
            .group_by(["path"]).aggregate([([], "count_all")])
        return g.rename_columns(["path", "n"])

    partials = bucket_exchange(
        ds.select_columns([key_col, ts_col, id_col, type_col]), [key_col],
        per_bucket, n_buckets)
    merged, mode = merge_partials_or_ds(partials, ["path"], ["n"],
                                        path_driver_limit)
    if mode == "driver":
        out = merged.to_pandas().sort_values(
            ["n", "path"], ascending=[False, True]).head(k) \
            .reset_index(drop=True)
    else:
        out = sorted_topk(merged, ["n", "path"], k,
                          descending=[True, False]).reset_index(drop=True)
    if out.empty:
        return pd.DataFrame({"path": pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    return out[["path", "n"]].astype({"n": "int64"})


def session_window_overlap_counts(events_ds, key_col: str, ts_col: str,
                                  gap_s: int, right_ds, r_key: str,
                                  r_start: str, r_end_offset_us: int,
                                  r_group: str, n_buckets: int = 64
                                  ) -> pd.DataFrame:
    """Keyed interval-OVERLAP join between per-key sessions and a second
    table of time windows, counting form: sessionize ``events_ds`` per
    ``key_col`` (gap rule), give each session its closed span
    [first_ts, last_ts], and for every right row with window
    [start, start + r_end_offset_us] on the SAME key count the sessions
    whose span intersects it (closed intersection: s <= b AND a <= e).
    Returns per ``r_group``: total overlapping pairs and the number of
    right rows with at least one overlap — the two-table sibling of
    concurrent_session_pairs' self-join ("was the user mid-session when
    the order landed?" — attribution's interval join).

    Scale shape: session spans fold once ((key, session) -> min/max —
    one groupby over slim int rows); spans and right rows then share ONE
    tagged-union hash(key) exchange; inside a bucket a per-key DISJOINT
    property of sessions makes the count a pair of composite-key
    ``searchsorted``s (spans sorted by (key, start) have end sorted too,
    so overlaps(a, b) = #{s <= b} − #{e < a}) — no pair expansion, no
    per-key Python; partials are |groups| rows per bucket."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min

    sess = sessionize(events_ds.select_columns([key_col, ts_col]),
                      key_col, ts_col, gap_s)

    def spans_partial(t: pa.Table) -> pa.Table:
        us = _ts_to_int(t[ts_col].combine_chunks()
                        .to_numpy(zero_copy_only=False))
        g = pa.table({key_col: t[key_col],
                      "session_id": t["session_id"],
                      "us": pa.array(us)}) \
            .group_by([key_col, "session_id"]) \
            .aggregate([("us", "min"), ("us", "max")])
        return g.rename_columns([key_col, "session_id", "s", "e"])

    spans = sess.map_batches(spans_partial, batch_format="pyarrow") \
        .groupby([key_col, "session_id"]) \
        .aggregate(Min("s", alias_name="s"), Max("e", alias_name="e"))

    def prep_spans(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "__side": pa.array(np.ones(len(k), np.int8)),
            "__k": pa.array(k),
            "__s": pc.cast(t["s"], pa.int64()),
            "__e": pc.cast(t["e"], pa.int64()),
            "__g": pa.array(np.full(len(k), "", dtype=object),
                            pa.string())})

    off_us = int(r_end_offset_us)

    def prep_right(t: pa.Table) -> pa.Table:
        k = t[r_key].to_numpy(zero_copy_only=False).astype(np.int64)
        a = _ts_to_int(t[r_start].combine_chunks()
                       .to_numpy(zero_copy_only=False))
        return pa.table({
            "__side": pa.array(np.zeros(len(k), np.int8)),
            "__k": pa.array(k),
            "__s": pa.array(a),             # window start
            "__e": pa.array(a + off_us),    # window end
            "__g": t[r_group]})

    tagged = [spans.map_batches(prep_spans, batch_format="pyarrow"),
              right_ds.select_columns([r_key, r_start, r_group])
              .map_batches(prep_right, batch_format="pyarrow")]

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({r_group: pa.array([], pa.string()),
                          "n_pairs": pa.array([], pa.int64()),
                          "n_hit": pa.array([], pa.int64()),
                          "n_right": pa.array([], pa.int64())})
        side = t["__side"].to_numpy(zero_copy_only=False)
        if len(side) == 0 or not (side == 0).any():
            return empty
        k = t["__k"].to_numpy(zero_copy_only=False)
        s = t["__s"].to_numpy(zero_copy_only=False)
        e = t["__e"].to_numpy(zero_copy_only=False)
        is_l = side == 1
        lk, ls, le = k[is_l], s[is_l], e[is_l]
        rk, ra, rb = k[~is_l], s[~is_l], e[~is_l]
        grp = t["__g"].filter(pa.array(~is_l))
        if len(lk):
            lo = np.lexsort((ls, lk))
            lk, ls, le = lk[lo], ls[lo], le[lo]
            lstarts = np.flatnonzero(np.r_[True, lk[1:] != lk[:-1]])
            lkeys = lk[lstarts]
            lcode = np.cumsum(np.r_[True, lk[1:] != lk[:-1]]) - 1
            base = int(min(ls.min(), le.min(), ra.min(), rb.min()))
            span = int(max(ls.max(), le.max(), ra.max(), rb.max())) - base
            off = span + 2
            if len(lkeys) * off >= 2**62:  # pragma: no cover
                raise ValueError("session_window_overlap_counts: "
                                 "composite overflow — raise n_buckets")
            comp_s = lcode * np.int64(off) + (ls - base)
            comp_e = lcode * np.int64(off) + (le - base)  # e sorted per key
            rc = np.searchsorted(lkeys, rk)
            has = (rc < len(lkeys))
            rc_c = np.minimum(rc, max(len(lkeys) - 1, 0))
            has &= lkeys[rc_c] == rk
            b_rel = np.clip(rb - base + 1, 0, span + 1)
            a_rel = np.clip(ra - base, 0, span + 1)
            n_start = np.searchsorted(comp_s, rc_c * np.int64(off) + b_rel,
                                      "left")
            n_ended = np.searchsorted(comp_e, rc_c * np.int64(off) + a_rel,
                                      "left")
            cnt = np.where(has, n_start - n_ended, 0)
        else:
            cnt = np.zeros(len(rk), dtype=np.int64)
        g = pa.table({r_group: grp, "p": pa.array(cnt.astype(np.int64)),
                      "h": pa.array((cnt > 0).astype(np.int64))}) \
            .group_by([r_group]).aggregate(
                [("p", "sum"), ("h", "sum"), ([], "count_all")])
        return g.rename_columns([r_group, "n_pairs", "n_hit", "n_right"])

    p = bucket_exchange(tagged, ["__k"], per_bucket, n_buckets)
    out = merge_partials(p, [r_group], ["n_pairs", "n_hit", "n_right"]) \
        .to_pandas().sort_values(r_group).reset_index(drop=True)
    return out.astype({"n_pairs": "int64", "n_hit": "int64",
                       "n_right": "int64"})


def anchored_prepost_sums(events_ds, key_col: str, ts_col: str,
                          val_col: str, anchors_ds, a_key: str, a_ts: str,
                          a_group: str, window_us: int,
                          n_buckets: int = 64) -> pd.DataFrame:
    """Event-anchored pre/post window aggregate (interrupted-time-series
    census): for every anchor row (key, t) sum ``val_col`` over the SAME
    key's events strictly before t within [t-W, t) and strictly after t
    within (t, t+W], then roll up per ``a_group``: (grp, n_anchors,
    pre_cents, post_cents).  "Did the metric move after the marker?" —
    the banded AGGREGATE join: a pair-expanding range join + groupby
    would materialize every (anchor, event) pair; here the band sum is
    two prefix-sum differences, so no pair ever exists.

    Scale shape: events and anchors share ONE tagged-union hash(key)
    exchange; inside a bucket one lexsort orders events by (key, ts),
    one cumsum builds the value prefix, and each anchor resolves with
    FOUR composite-key searchsorteds (same-key bounds enforced by the
    code*span+rel encoding).  Partials are |groups| rows per bucket;
    events with ts == t (including the anchor's own row) land in
    neither window.
    """
    import pyarrow.compute as pc

    w_us = int(window_us)

    def prep_events(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _ts_to_int(t[ts_col].combine_chunks()
                        .to_numpy(zero_copy_only=False))
        return pa.table({
            "__side": pa.array(np.ones(len(k), np.int8)),
            "__k": pa.array(k),
            "__t": pa.array(ts),
            "__v": pc.cast(t[val_col], pa.int64()),
            "__g": pa.array(np.full(len(k), "", dtype=object), pa.string())})

    def prep_anchors(t: pa.Table) -> pa.Table:
        k = t[a_key].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _ts_to_int(t[a_ts].combine_chunks()
                        .to_numpy(zero_copy_only=False))
        return pa.table({
            "__side": pa.array(np.zeros(len(k), np.int8)),
            "__k": pa.array(k),
            "__t": pa.array(ts),
            "__v": pa.array(np.zeros(len(k), np.int64)),
            "__g": t[a_group]})

    tagged = [events_ds.select_columns([key_col, ts_col, val_col])
              .map_batches(prep_events, batch_format="pyarrow"),
              anchors_ds.select_columns([a_key, a_ts, a_group])
              .map_batches(prep_anchors, batch_format="pyarrow")]

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({a_group: pa.array([], pa.string()),
                          "n_anchors": pa.array([], pa.int64()),
                          "pre": pa.array([], pa.int64()),
                          "post": pa.array([], pa.int64())})
        side = t["__side"].to_numpy(zero_copy_only=False)
        if len(side) == 0 or not (side == 0).any():
            return empty
        k = t["__k"].to_numpy(zero_copy_only=False)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        v = t["__v"].to_numpy(zero_copy_only=False)
        is_e = side == 1
        ek, et, ev = k[is_e], ts[is_e], v[is_e]
        ak, at = k[~is_e], ts[~is_e]
        grp = t["__g"].filter(pa.array(~is_e))
        if len(ek):
            lo = np.lexsort((et, ek))
            ek, et, ev = ek[lo], et[lo], ev[lo]
            new = np.r_[True, ek[1:] != ek[:-1]]
            ekeys = ek[np.flatnonzero(new)]
            ecode = np.cumsum(new) - 1
            base = int(min(et.min(), at.min() - w_us))
            span = int(max(et.max(), at.max() + w_us)) - base
            off = span + 2
            if len(ekeys) * off >= 2**62:  # pragma: no cover
                raise ValueError("anchored_prepost_sums: composite "
                                 "overflow — raise n_buckets")
            comp = ecode * np.int64(off) + (et - base)
            cs = np.r_[0, np.cumsum(ev)]
            ac = np.searchsorted(ekeys, ak)
            has = ac < len(ekeys)
            ac_c = np.minimum(ac, max(len(ekeys) - 1, 0))
            has &= ekeys[ac_c] == ak
            kbase = ac_c * np.int64(off)
            i0 = np.searchsorted(comp, kbase + (at - w_us - base), "left")
            i1 = np.searchsorted(comp, kbase + (at - base), "left")
            i2 = np.searchsorted(comp, kbase + (at - base), "right")
            i3 = np.searchsorted(comp, kbase + (at + w_us - base), "right")
            pre = np.where(has, cs[i1] - cs[i0], 0)
            post = np.where(has, cs[i3] - cs[i2], 0)
        else:
            pre = np.zeros(len(ak), np.int64)
            post = np.zeros(len(ak), np.int64)
        g = pa.table({a_group: grp, "pre": pa.array(pre.astype(np.int64)),
                      "post": pa.array(post.astype(np.int64))}) \
            .group_by([a_group]).aggregate(
                [([], "count_all"), ("pre", "sum"), ("post", "sum")])
        return g.rename_columns([a_group, "n_anchors", "pre", "post"])

    p = bucket_exchange(tagged, ["__k"], per_bucket, n_buckets)
    out = merge_partials(p, [a_group], ["n_anchors", "pre", "post"]) \
        .to_pandas().sort_values(a_group).reset_index(drop=True)
    return out.astype({"n_anchors": "int64", "pre": "int64",
                       "post": "int64"})


def ushape_attribution(ds, key_col: str, ts_col: str, id_col: str,
                       type_col: str, convert_type: str,
                       n_buckets: int = 64) -> pd.DataFrame:
    """Position-based (U-shaped 40/20/40) multi-touch attribution in
    exact basis points: for every key with a conversion, the touches are
    its events STRICTLY before the first ``convert_type`` event, ordered
    by (ts, id); credit per conversion totals exactly 10000 bp — one
    touch takes all 10000, two take 5000/5000, otherwise first and last
    take 4000 each and the middles split 2000 by integer division with
    the remainder going to the LAST touch.  Returns per touch type:
    (type, n_touches, credit_bp) — the multi-touch generalization of
    ``first_event_per_key``'s first-touch model.

    Scale shape: one hash(key) bucket exchange; per bucket one lexsort
    orders (key, ts, id), ``minimum.reduceat`` finds each key's first
    conversion instant, a masked segmented cumsum ranks the touches, and
    the credit formula is a pure vectorized function of (rank, n) —
    per-key Python never happens.  Partials are |types| rows per
    bucket."""
    import pyarrow.compute as pc

    def prep(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"__k": pa.array(k),
                         "__t": pa.array(_ts_to_int(
                             t[ts_col].combine_chunks()
                             .to_numpy(zero_copy_only=False))),
                         "__i": t[id_col], "__y": t[type_col]})

    tagged = ds.select_columns([key_col, ts_col, id_col, type_col]) \
        .map_batches(prep, batch_format="pyarrow")

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({type_col: pa.array([], pa.string()),
                          "n_touches": pa.array([], pa.int64()),
                          "credit_bp": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        k = t["__k"].to_numpy(zero_copy_only=False)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        ev = t["__i"].to_numpy(zero_copy_only=False)
        isc = pc.equal(t["__y"], convert_type).to_numpy(
            zero_copy_only=False)
        lo = np.lexsort((ev, ts, k))
        k, ts, ev, isc = k[lo], ts[lo], ev[lo], isc[lo]
        y = t["__y"].take(pa.array(lo))
        new = np.r_[True, k[1:] != k[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        big = np.iinfo(np.int64).max
        ct = np.where(isc, ts, big)
        first_c = np.minimum.reduceat(ct, starts)   # per segment
        # keys with no conversion (first_c == sentinel) have no touches
        touch = (first_c[seg] != big) & (ts < first_c[seg])
        if not touch.any():
            return empty
        cum = np.cumsum(touch)
        r = cum - np.r_[0, cum][starts][seg]        # 1-based touch rank
        n = np.add.reduceat(touch, starts).astype(np.int64)[seg]
        mid = np.maximum(n - 2, 1)
        share = 2000 // mid
        credit = np.where(
            n == 1, 10000,
            np.where(n == 2, 5000,
                     np.where(r == 1, 4000,
                              np.where(r == n,
                                       4000 + 2000 - (n - 2) * share,
                                       share))))
        g = pa.table({type_col: y.filter(pa.array(touch)),
                      "c": pa.array(credit[touch].astype(np.int64))}) \
            .group_by([type_col]).aggregate([([], "count_all"),
                                             ("c", "sum")])
        return g.rename_columns([type_col, "n_touches", "credit_bp"])

    p = bucket_exchange(tagged, ["__k"], per_bucket, n_buckets)
    out = merge_partials(p, [type_col], ["n_touches", "credit_bp"]) \
        .to_pandas().sort_values(type_col).reset_index(drop=True)
    return out.astype({"n_touches": "int64", "credit_bp": "int64"})


def sax_motif_census(ds, key_col: str, ts_col: str, id_col: str,
                     val_col: str, frame: int = 4, word: int = 3,
                     n_buckets: int = 64) -> pd.DataFrame:
    """SAX (Symbolic Aggregate approXimation, Lin et al. 2003 — public)
    motif census over per-key event-value series: order each key's
    events by (ts, id), aggregate consecutive runs of ``frame`` events
    into frame SUMS (the integer PAA — sums, not means, so no division
    ever rounds), map each full frame onto a 4-letter alphabet by the
    GLOBAL exact type-1 quartiles of the frame-sum population, and count
    every within-key ``word``-gram of consecutive frame symbols.
    Returns (motif, n) sorted by motif — the recurring-shape census
    ("which local patterns does this metric repeat?") behind time-series
    indexing/anomaly work, alphabet^word <= 64 output rows.

    Scale shape: TWO streaming passes over the same slim projection
    (recompute beats materializing a data-sized frame table).  Pass A
    folds frame sums through ``exact_quantile_bisect`` (distributed
    selection, exact at any cardinality); pass B re-derives frames and
    bincounts word codes per bucket — partials are <= 4^word rows.  Both
    passes: one hash(key) exchange, one lexsort + reduceat per bucket;
    only each key's LAST frame can be partial and is dropped (rank //
    frame), so surviving fids are contiguous and word-grams never span a
    gap."""
    import pyarrow.compute as pc  # noqa: F401  (kept for parity with peers)

    if not (2 <= 4 ** word <= 4096):
        raise ValueError("word must be in [1, 6]")

    def prep(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"__k": pa.array(k),
                         "__t": pa.array(_ts_to_int(
                             t[ts_col].combine_chunks()
                             .to_numpy(zero_copy_only=False))),
                         "__i": pa.array(t[id_col].to_numpy(
                             zero_copy_only=False).astype(np.int64)),
                         "__v": pa.array(t[val_col].to_numpy(
                             zero_copy_only=False).astype(np.int64))})

    tagged = ds.select_columns([key_col, ts_col, id_col, val_col]) \
        .map_batches(prep, batch_format="pyarrow")

    def frames_of(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(per-frame key segment id, frame sums) for FULL frames, in
        (key, fid) order."""
        k = t["__k"].to_numpy(zero_copy_only=False)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        ev = t["__i"].to_numpy(zero_copy_only=False)
        v = t["__v"].to_numpy(zero_copy_only=False)
        lo = np.lexsort((ev, ts, k))
        k, v = k[lo], v[lo]
        new = np.r_[True, k[1:] != k[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        r = np.arange(len(k)) - starts[seg]          # intra-key 0-based
        fid = r // frame
        fnew = np.r_[True, (seg[1:] != seg[:-1]) | (fid[1:] != fid[:-1])]
        fstarts = np.flatnonzero(fnew)
        fsum = np.add.reduceat(v, fstarts)
        fcnt = np.diff(np.r_[fstarts, len(k)])
        fseg = seg[fstarts]
        full = fcnt == frame
        return fseg[full], fsum[full]

    def pass_a(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"fsum": pa.array([], pa.int64())})
        _, fs = frames_of(t)
        return pa.table({"fsum": pa.array(fs.astype(np.int64))})

    frames_ds = bucket_exchange(tagged, ["__k"], pass_a, n_buckets)
    qdf = exact_quantile_bisect(frames_ds, "fsum", [0.25, 0.5, 0.75],
                                scale=1)
    bps = np.sort(qdf["value_scaled"].to_numpy().astype(np.int64))

    n_codes = 4 ** word

    def pass_b(t: pa.Table) -> pa.Table:
        empty = pa.table({"code": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        fseg, fs = frames_of(t)
        if len(fs) < word:
            return empty
        sym = np.searchsorted(bps, fs, side="left")  # CASE v<=b ladder
        code = np.zeros(len(fs) - word + 1, np.int64)
        ok = np.ones(len(fs) - word + 1, bool)
        for j in range(word):
            code = code * 4 + sym[j:len(sym) - word + 1 + j]
            ok &= fseg[j:len(fseg) - word + 1 + j] == \
                fseg[:len(fseg) - word + 1]
        cnt = np.bincount(code[ok], minlength=n_codes)
        nz = np.flatnonzero(cnt)
        return pa.table({"code": pa.array(nz.astype(np.int64)),
                         "n": pa.array(cnt[nz].astype(np.int64))})

    p = bucket_exchange(tagged, ["__k"], pass_b, n_buckets)
    out = merge_partials(p, ["code"], ["n"]).to_pandas()
    letters = np.array(list("abcd"))

    def decode(c: int) -> str:
        return "".join(letters[(c // 4 ** (word - 1 - j)) % 4]
                       for j in range(word))

    out["motif"] = out["code"].map(decode)
    return out[["motif", "n"]].sort_values("motif") \
        .reset_index(drop=True).astype({"n": "int64"})


def decay_attribution(ds, key_col: str, ts_col: str, type_col: str,
                      convert_type: str, halflife_us: int,
                      base: int = 1_000_000, n_buckets: int = 64
                      ) -> pd.DataFrame:
    """Time-DECAY multi-touch attribution (the recency-weighted sibling
    of ``ushape_attribution``), exact integers: every touch strictly
    before its key's first conversion earns ``base >> min(age //
    halflife_us, 62)`` credit — halving per elapsed half-life, a pure
    integer function of the touch age, so the SQL replay (integer shift)
    is bit-identical.  Returns per touch type: (type, n_touches,
    credit).  Same one-exchange plan as ushape: lexsort + sentinel-
    guarded minimum.reduceat; no rank pass is needed because the credit
    depends only on age."""
    import pyarrow.compute as pc

    def prep(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"__k": pa.array(k),
                         "__t": pa.array(_ts_to_int(
                             t[ts_col].combine_chunks()
                             .to_numpy(zero_copy_only=False))),
                         "__y": t[type_col]})

    tagged = ds.select_columns([key_col, ts_col, type_col]) \
        .map_batches(prep, batch_format="pyarrow")

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({type_col: pa.array([], pa.string()),
                          "n_touches": pa.array([], pa.int64()),
                          "credit": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        k = t["__k"].to_numpy(zero_copy_only=False)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        isc = pc.equal(t["__y"], convert_type).to_numpy(
            zero_copy_only=False)
        lo = np.lexsort((ts, k))
        k, ts, isc = k[lo], ts[lo], isc[lo]
        y = t["__y"].take(pa.array(lo))
        new = np.r_[True, k[1:] != k[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        big = np.iinfo(np.int64).max
        ct = np.where(isc, ts, big)
        first_c = np.minimum.reduceat(ct, starts)
        touch = (first_c[seg] != big) & (ts < first_c[seg])
        if not touch.any():
            return empty
        age = first_c[seg][touch] - ts[touch]
        k_ = np.minimum(age // halflife_us, 62)
        credit = (base >> k_.astype(np.int64))
        g = pa.table({type_col: y.filter(pa.array(touch)),
                      "c": pa.array(credit.astype(np.int64))}) \
            .group_by([type_col]).aggregate([([], "count_all"),
                                             ("c", "sum")])
        return g.rename_columns([type_col, "n_touches", "credit"])

    p = bucket_exchange(tagged, ["__k"], per_bucket, n_buckets)
    out = merge_partials(p, [type_col], ["n_touches", "credit"]) \
        .to_pandas().sort_values(type_col).reset_index(drop=True)
    return out.astype({"n_touches": "int64", "credit": "int64"})


def absent_followup_census(ds, key_col: str, ts_col: str, type_col: str,
                           a_type: str, b_type: str, window_us: int,
                           group_fmt: str = "%m",
                           n_buckets: int = 64) -> pd.DataFrame:
    """NEGATION-window join (abandonment census): for every ``a_type``
    event, did the same key produce NO ``b_type`` event strictly within
    (t, t+W]?  Returns per anchor group (strftime of the anchor ts):
    (grp, n_anchors, n_abandoned) — the absence-of-event operator the
    funnel family lacks (funnels count presence; churn/abandonment
    analysis needs the complement, and an anti-join after a pair-
    expanding range join would materialize exactly the pairs whose
    absence is the answer).

    Scale shape: same tagged-union hash(key) exchange as
    ``anchored_prepost_sums``; per bucket one lexsort over the b-events
    and TWO composite searchsorteds per anchor decide presence — the
    count in the window is an index difference, no pair ever exists."""
    import pyarrow.compute as pc

    w_us = int(window_us)

    def prep(t: pa.Table) -> pa.Table:
        m = pc.is_in(t[type_col], value_set=pa.array([a_type, b_type]))
        t = t.filter(m)
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _ts_to_int(t[ts_col].combine_chunks()
                        .to_numpy(zero_copy_only=False))
        is_a = pc.equal(t[type_col], a_type).to_numpy(
            zero_copy_only=False)
        grp = pc.strftime(t[ts_col].combine_chunks().cast(
            pa.timestamp("us")), format=group_fmt)
        return pa.table({"__k": pa.array(k),
                         "__t": pa.array(ts),
                         "__a": pa.array(is_a.astype(np.int8)),
                         "__g": grp})

    tagged = ds.select_columns([key_col, ts_col, type_col]) \
        .map_batches(prep, batch_format="pyarrow")

    def per_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"grp": pa.array([], pa.string()),
                          "n_anchors": pa.array([], pa.int64()),
                          "n_abandoned": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        isa = t["__a"].to_numpy(zero_copy_only=False) == 1
        if not isa.any():
            return empty
        k = t["__k"].to_numpy(zero_copy_only=False)
        ts = t["__t"].to_numpy(zero_copy_only=False)
        ak, at = k[isa], ts[isa]
        grp = t["__g"].filter(pa.array(isa))
        bk, bt = k[~isa], ts[~isa]
        if len(bk):
            lo = np.lexsort((bt, bk))
            bk, bt = bk[lo], bt[lo]
            new = np.r_[True, bk[1:] != bk[:-1]]
            bkeys = bk[np.flatnonzero(new)]
            bcode = np.cumsum(new) - 1
            base = int(min(bt.min(), at.min()))
            span = int(max(bt.max(), at.max() + w_us)) - base
            off = span + 2
            if len(bkeys) * off >= 2**62:  # pragma: no cover
                raise ValueError("absent_followup_census: composite "
                                 "overflow — raise n_buckets")
            comp = bcode * np.int64(off) + (bt - base)
            ac = np.searchsorted(bkeys, ak)
            has = ac < len(bkeys)
            ac_c = np.minimum(ac, max(len(bkeys) - 1, 0))
            has &= bkeys[ac_c] == ak
            kb = ac_c * np.int64(off)
            i2 = np.searchsorted(comp, kb + (at - base), "right")
            i3 = np.searchsorted(comp, kb + (at + w_us - base), "right")
            absent = ~has | (i3 - i2 == 0)
        else:
            absent = np.ones(len(ak), bool)
        g = pa.table({"grp": grp,
                      "ab": pa.array(absent.astype(np.int64))}) \
            .group_by(["grp"]).aggregate([([], "count_all"),
                                          ("ab", "sum")])
        return g.rename_columns(["grp", "n_anchors", "n_abandoned"])

    p = bucket_exchange(tagged, ["__k"], per_bucket, n_buckets)
    out = merge_partials(p, ["grp"], ["n_anchors", "n_abandoned"]) \
        .to_pandas().sort_values("grp").reset_index(drop=True)
    return out.astype({"n_anchors": "int64", "n_abandoned": "int64"})
