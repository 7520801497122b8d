"""Similarity search over an embedding column (``list<float>``).

* brute-force cosine top-k — baseline: numpy matmul per batch against the
  query matrix (shipped inside the pickled stage), partial top-k per batch,
  tiny global merge.  One pass, no shuffle.
* IVF top-k — scale path: coarse centroids from a driver-side sample,
  per-batch cell assignment, query probes only the nearest cells.
* embedding near-dup — random-hyperplane LSH buckets → within-bucket cosine.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.aggregates import bucket_exchange


def _to_matrix(col) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = np.asarray(arr.flatten(), dtype=np.float32)
    n = len(arr)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-12)


def _rank_merge(partial: pd.DataFrame, id_col: str, score_col: str,
                k: int) -> pd.DataFrame:
    """Driver merge shared by the float and quantized top-k paths:
    per-query (score desc, id asc) sort of the batch partials, head(k),
    1-based rank."""
    out = []
    for qi, g in partial.groupby("query_idx"):
        g = g.sort_values([score_col, id_col], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1))
        out.append(g)
    return pd.concat(out, ignore_index=True) if out else partial.assign(rank=[])


def _topk_rows_tiesafe(scores: np.ndarray, ids: np.ndarray, k: int):
    """Per-query batch-local top-k row indices under the documented
    (score desc, id asc) order, TIE-SAFE at the k boundary: a plain
    argpartition keeps arbitrary rows among equal scores, which silently
    drops the id-asc winners from the batch partial and corrupts the
    global merge (confirmed with duplicate vectors).  Two stages: a
    vectorized k-th-score threshold per query, then an exact lexsort over
    only the >= threshold candidates (k + boundary ties rows — degenerate
    all-tie batches pay the full sort they genuinely require)."""
    n, nq = scores.shape
    k = min(k, n)
    rows = np.empty(k * nq, dtype=np.int64)
    thresh = -np.partition(-scores, k - 1, axis=0)[k - 1]
    for q in range(nq):
        cand = np.flatnonzero(scores[:, q] >= thresh[q])
        order = np.lexsort((ids[cand], -scores[cand, q]))[:k]
        rows[q * k:(q + 1) * k] = cand[order]
    qidx = np.repeat(np.arange(nq, dtype=np.int32), k)
    return rows, qidx


class BruteForceTopK:
    """Per-batch stage: cosine vs the query matrix, emits the batch-local
    top-k (id, query_idx, score) rows."""

    def __init__(self, queries: np.ndarray, k: int, id_col: str = "vec_id",
                 vec_col: str = "embedding"):
        self.q = _normalize(np.asarray(queries, dtype=np.float32))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_to_matrix(batch[self.vec_col]))
        if m.shape[0] == 0:
            return pa.table({self.id_col: pa.array([], pa.int64()),
                             "query_idx": pa.array([], pa.int32()),
                             "score": pa.array([], pa.float64())})
        scores = m @ self.q.T  # (batch, n_queries)
        ids = np.asarray(batch[self.id_col]).astype(np.int64)
        rows, qidx = _topk_rows_tiesafe(scores, ids, self.k)
        out_s = scores[rows, qidx].astype(np.float64)
        return pa.table({self.id_col: pa.array(ids[rows]),
                         "query_idx": pa.array(qidx),
                         "score": pa.array(out_s)})


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     id_col: str = "vec_id",
                     vec_col: str = "embedding") -> pd.DataFrame:
    """Global cosine top-k per query → pandas (query_idx, vec_id, score, rank).

    Deterministic tie-break: score desc, then id asc.  Runs as stateless
    tasks: the normalized query matrix ships once inside the pickled stage,
    with no pool start-up.
    """
    partial = ds.map_batches(
        BruteForceTopK(queries, k=k, id_col=id_col, vec_col=vec_col),
        batch_format="pyarrow",
    ).to_pandas()
    return _rank_merge(partial, id_col, "score", k)


def grouped_centroid_sums(ds, group_col: str = "label",
                          vec_col: str = "embedding",
                          scale: float = 1e6) -> pd.DataFrame:
    """Per-group embedding centroid numerators on the SCALED-INT domain:
    long-form (group, dim, sum_scaled, n) where ``sum_scaled =
    Σ floor(e·scale + ½)`` over the group's vectors at 1-based ``dim``.

    Integer element sums make the reduction order-independent — any
    engine (the DuckDB oracle included) replays it bit for bit, unlike a
    float centroid whose value depends on summation order.  Callers get
    the centroid as ``sum_scaled / (n·scale)``.  Per batch: one
    float64 scale + floor, a group argsort, and ``add.reduceat`` per
    contiguous run — the partial is #groups×dim rows, independent of
    batch size, and the driver merge is centroid-volume, never
    row-volume."""
    from timberjack_ray.aggregates import merge_partials
    from timberjack_ray.functions.util import scale_to_int_np

    def partial(t: pa.Table) -> pa.Table:
        m = _to_matrix(t[vec_col]).astype(np.float64)
        if m.size == 0:
            return pa.table({group_col: pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "sum_scaled": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        # scale_to_int_np = floor(x·s + ½): the oracle replays FLOOR(..+0.5)
        # literally, so the rule holds for negative embedding values too
        v = scale_to_int_np(m, scale)
        g = t[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(g, kind="stable")
        gs, vs = g[order], v[order]
        starts = np.nonzero(np.r_[True, gs[1:] != gs[:-1]])[0]
        sums = np.add.reduceat(vs, starts, axis=0)
        counts = np.diff(np.r_[starts, len(gs)])
        n_grp, dim = sums.shape
        return pa.table({
            group_col: pa.array(np.repeat(gs[starts], dim)),
            "dim": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64),
                                    n_grp)),
            "sum_scaled": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(counts.astype(np.int64), dim)),
        })

    p = ds.map_batches(partial, batch_format="pyarrow")
    out = merge_partials(p, [group_col, "dim"], ["sum_scaled", "n"]) \
        .to_pandas()
    return out.sort_values([group_col, "dim"]).reset_index(drop=True)


def sample_centroids(ds, n_centroids: int, vec_col: str = "embedding",
                     sample_rows: int = 2048, iters: int = 5, seed: int = 13) -> np.ndarray:
    """Driver-side mini-kmeans on a seeded UNIFORM sample (deterministic).

    Uses ``ds.random_sample`` so every fragment contributes — a head
    ``limit().take()`` would train centroids on the first shard only and
    silently skew recall at scale.  The ``count()`` is metadata-only for
    parquet-backed datasets.
    """
    n = ds.count()
    if n > sample_rows:
        # 4x oversample so the post-sample limit() still fills sample_rows
        # with high probability, then cap.
        frac = min(1.0, (4.0 * sample_rows) / n)
        sampled = ds.random_sample(frac, seed=seed)
        rows = sampled.limit(sample_rows).take(sample_rows)
        if len(rows) < min(sample_rows, n) // 4:  # pathological under-sample
            rows = ds.limit(sample_rows).take(sample_rows)
    else:
        rows = ds.take(n)
    m = _normalize(np.array([r[vec_col] for r in rows], dtype=np.float32))
    rng = np.random.RandomState(seed)
    cent = m[rng.choice(len(m), size=min(n_centroids, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(cent.shape[0]):
            members = m[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def kmeans_refine(ds, centroids: np.ndarray, iters: int = 2,
                  vec_col: str = "embedding") -> np.ndarray:
    """Distributed Lloyd iterations over the FULL dataset (spherical
    k-means: centroids re-normalized each step).

    The idiomatic Ray Data iterative-algorithm shape: per iteration the
    current centroids broadcast via ``ray.put``, each batch assigns its
    vectors (one matmul + argmax) and emits a (k × d sum, k counts)
    partial — a few KB regardless of batch size — and the driver folds the
    partials and updates.  Each iteration is one streaming pass; nothing
    but the fixed-size partials ever leaves the workers.  Empty cells keep
    their previous centroid.
    """
    import ray

    cent = np.asarray(centroids, dtype=np.float32)
    k, d = cent.shape
    for _ in range(max(0, iters)):
        cent_ref = ray.put(cent)

        def partial_sums(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            m = _normalize(_to_matrix(batch[vec_col]))
            if m.shape[0] == 0:
                return pa.table({"cell": pa.array([], pa.int32()),
                                 "vsum": pa.array([], pa.large_list(pa.float64())),
                                 "n": pa.array([], pa.int64())})
            assign = np.argmax(m @ c.T, axis=1)
            sums = np.zeros((k, d), dtype=np.float64)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=k)
            nz = np.flatnonzero(counts)
            return pa.table({
                "cell": pa.array(nz.astype(np.int32)),
                "vsum": pa.array(list(sums[nz]), pa.large_list(pa.float64())),
                "n": pa.array(counts[nz].astype(np.int64)),
            })

        acc = np.zeros((k, d), dtype=np.float64)
        cnt = np.zeros(k, dtype=np.int64)
        for b in ds.map_batches(partial_sums, batch_format="pyarrow") \
                   .iter_batches(batch_size=None, batch_format="pyarrow"):
            if not b.num_rows:
                continue
            cells = b["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
            vs = np.asarray(b["vsum"].to_pylist(), dtype=np.float64)
            np.add.at(acc, cells, vs)
            np.add.at(cnt, cells, b["n"].to_numpy(zero_copy_only=False))
        nz = cnt > 0
        cent = cent.copy()
        cent[nz] = (acc[nz] / cnt[nz, None]).astype(np.float32)
        cent = _normalize(cent)
    return cent


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_centroids: int = 16, n_probe: int = 4,
             id_col: str = "vec_id", vec_col: str = "embedding",
             refine_iters: int = 2) -> pd.DataFrame:
    """IVF approximate top-k: only rows whose nearest centroid is among the
    query's ``n_probe`` closest cells are scored.  Same output shape as
    ``brute_force_topk``; recall < 1 by design (scale path).  Centroids:
    seeded-uniform-sample mini-kmeans, then ``refine_iters`` distributed
    Lloyd passes over the full corpus (kmeans_refine) so cells reflect the
    whole distribution, not the sample."""
    import ray

    from timberjack_ray.functions.util import fetch_broadcast

    cent = sample_centroids(ds, n_centroids, vec_col=vec_col)
    if refine_iters:
        cent = kmeans_refine(ds, cent, iters=refine_iters, vec_col=vec_col)
    q = _normalize(np.asarray(queries, dtype=np.float32))
    probes = np.argsort(-(q @ cent.T), axis=1)[:, :n_probe]  # (nq, n_probe)
    # (n_centroids × nq) probe-membership matrix, built ONCE (VERDICT r3
    # #5 — the per-batch per-query np.isin loop was quadratic-ish waste)
    probe_mat = np.zeros((cent.shape[0], q.shape[0]), dtype=bool)
    probe_mat[probes.ravel(),
              np.repeat(np.arange(q.shape[0]), probes.shape[1])] = True
    state_ref = ray.put((cent, q, probe_mat))

    def ivf_stage(batch: pa.Table) -> pa.Table:
        cent, q, probe_mat = fetch_broadcast(state_ref)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "query_idx": pa.array([], pa.int32()),
                          "score": pa.array([], pa.float64())})
        m = _normalize(_to_matrix(batch[vec_col]))
        if m.shape[0] == 0:
            return empty
        cells = np.argmax(m @ cent.T, axis=1)
        probed = probe_mat[cells]               # (n, nq) bool
        any_q = probed.any(axis=1)              # rows ANY query probes
        if not any_q.any():
            return empty
        sub = m[any_q]
        scores = sub @ q.T                      # (n_sub, nq)
        scores[~probed[any_q]] = -np.inf        # mask un-probed cells
        ids = np.asarray(batch[id_col]).astype(np.int64)[any_q]
        rows, qidx = _topk_rows_tiesafe(scores, ids, k)
        out_s = scores[rows, qidx].astype(np.float64)
        keep = np.isfinite(out_s)               # short candidate lists
        return pa.table({id_col: pa.array(ids[rows[keep]]),
                         "query_idx": pa.array(qidx[keep]),
                         "score": pa.array(out_s[keep])})

    partial = ds.map_batches(ivf_stage, batch_format="pyarrow").to_pandas()
    return _rank_merge(partial, id_col, "score", k)


def _cosine_pairs_segmented(t: pa.Table, threshold: float, id_col: str,
                            vec_col: str) -> pa.Table:
    """Cosine-verified pairs over MANY LSH buckets in one vectorized pass
    (the segmented-offset kernel shared with the dedup family): lexsort by
    (bucket, id), adjacent dedup, then per-offset row-wise dot products of
    the normalized matrix across all buckets at once — total work equals
    the sum of per-bucket pair counts, with zero per-bucket Python."""
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
    if t.num_rows < 2:
        return empty
    bucket = t["bucket"].to_numpy(zero_copy_only=False).astype(np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    m = _normalize(_to_matrix(t[vec_col]))
    order = np.lexsort((ids, bucket))
    bucket, ids, m = bucket[order], ids[order], m[order]
    dup = np.r_[False, (bucket[1:] == bucket[:-1]) & (ids[1:] == ids[:-1])]
    if dup.any():
        keep = ~dup
        bucket, ids, m = bucket[keep], ids[keep], m[keep]
    seg_id = np.cumsum(np.r_[True, bucket[1:] != bucket[:-1]])
    n = len(ids)
    if n < 2:
        return empty
    max_size = int(np.bincount(seg_id).max())
    A, B, C = [], [], []
    for d in range(1, max_size):
        idx = np.arange(n - d)
        ii = idx[seg_id[idx] == seg_id[idx + d]]
        if not len(ii):
            continue
        sim = np.einsum("ij,ij->i", m[ii], m[ii + d])
        hit = sim >= threshold
        if hit.any():
            x, y = ids[ii[hit]], ids[ii[hit] + d]
            A.append(np.minimum(x, y))
            B.append(np.maximum(x, y))
            C.append(sim[hit].astype(np.float64))
    if not A:
        return empty
    return pa.table({"a": pa.array(np.concatenate(A).astype(np.int64)),
                     "b": pa.array(np.concatenate(B).astype(np.int64)),
                     "cosine": pa.array(np.concatenate(C))})


def embedding_near_dup(ds, threshold: float = 0.95, n_planes: int = 8, n_tables: int = 8,
                       seed: int = 17, id_col: str = "vec_id", vec_col: str = "embedding",
                       driver_limit: int = 500_000):
    """Multi-table random-hyperplane LSH → within-bucket cosine ≥ threshold pairs.

    OR-amplification: ``n_tables`` independent tables of ``n_planes``
    hyperplanes each.  A true pair is a candidate if it co-buckets in ANY
    table — at cosine 0.95 (bit-agree prob ≈ 0.9) one 8-plane table catches
    ≈ 0.43 of pairs; eight tables catch ≈ 1 − 0.57⁸ ≈ 0.99.  A single
    12-plane table (the old design) caught only ≈ 0.28.

    Scale notes: each vector ships ``n_tables`` (bucket, id, vec) rows into
    ONE groupby shuffle; pairs found in several tables are deduped by a
    second groupby on a packed (a,b) int key, never on the driver.  Bucket
    width is 2^n_planes per table — raise ``n_planes`` as corpus size grows
    to keep within-bucket O(s²) verification bounded (s ≈ n / 2^n_planes).
    """
    import ray
    import ray.data as rd

    from timberjack_ray.functions.util import collect_table_under, fetch_broadcast

    first = ds.limit(1).take(1)
    if not first:  # empty input: the typed empty pair table
        return rd.from_arrow(
            _cosine_pairs_segmented(pa.table({}), threshold, id_col, vec_col))
    rng = np.random.RandomState(seed)
    planes = rng.randn(len(first[0][vec_col]),
                       n_tables * n_planes).astype(np.float32)
    planes_ref = ray.put(planes)
    pow2 = (1 << np.arange(n_planes - 1, -1, -1)).astype(np.int64)

    def bucketer(batch: pa.Table) -> pa.Table:
        """Emits n_tables rows per vector: bucket = (table << 32) | packed bits."""
        m = _normalize(_to_matrix(batch[vec_col]))
        n = len(m)
        if n == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             vec_col: batch[vec_col]})
        bits = (m @ fetch_broadcast(planes_ref)) > 0    # (n, T*p)
        bits = bits.reshape(n, n_tables, n_planes)
        packed = bits @ pow2                    # (n, T) int64
        key = (np.arange(n_tables, dtype=np.int64) << 32)[None, :] | packed
        idx = pa.array(np.repeat(np.arange(n), n_tables))
        return pa.table({"bucket": pa.array(key.reshape(-1)),
                         id_col: batch[id_col].take(idx),
                         vec_col: batch[vec_col].take(idx)})

    bucketed = ds.map_batches(bucketer, batch_format="pyarrow")

    # small-intermediate fast path: one streamed pass + a segmented fold
    # beats two Ray all-to-all groupbys (multi-second fixed cost each)
    # whenever the bucketed rows (n_tables x vectors) fit on the driver;
    # bail out to the distributed plan past driver_limit rows
    small = collect_table_under(bucketed, driver_limit)
    if small is not None:
        out = _cosine_pairs_segmented(small, threshold, id_col, vec_col) \
            .to_pandas().drop_duplicates(["a", "b"])
        return rd.from_pandas(out.reset_index(drop=True))

    # distributed: coarse-bucket the LSH bucket keys so each exchange call
    # (one shuffled block of whole buckets) verifies MANY buckets in one
    # segmented vectorized pass (per-raw-bucket grouping would be
    # per-bucket Python at LSH cardinality)
    pairs = bucket_exchange(
        bucketed, ["bucket"],
        lambda t: _cosine_pairs_segmented(t, threshold, id_col, vec_col), 256)
    # Distributed dedup of pairs seen in multiple tables: pack (a,b) into one
    # int64 key (ids < 2^31 by contract of this helper); values per pair are
    # identical so a C-side Min aggregate keeps exactly one.

    keyed = pairs.map_batches(
        lambda t: t.append_column(
            "pair_key",
            pa.array((np.asarray(t["a"], dtype=np.int64) << 31)
                     | np.asarray(t["b"], dtype=np.int64))),
        batch_format="pyarrow",
    )
    from timberjack_ray.aggregates import grouped_aggregate_ds

    return grouped_aggregate_ds(
        keyed, ["pair_key"],
        [("a", "min", "a"), ("b", "min", "b"),
         ("cosine", "min", "cosine")]).drop_columns(["pair_key"])


# -- int8-quantized ANN ------------------------------------------------------

def _quantize_flat(flat: np.ndarray, scale: int) -> np.ndarray:
    """q = clamp(floor(x·scale + ½), ±127) on the float64 domain — per-
    element, no accumulation, so any engine (the DuckDB oracle, which
    applies the same LEAST/GREATEST clamp) replays it bit-exact.  The
    clamp makes out-of-range inputs safe: without it an element past the
    documented |x|·scale ≤ 127 precondition would WRAP in int8 and flip
    its sign in every dot product with no error raised."""
    q = np.floor(flat.astype(np.float64) * scale + 0.5)
    return np.clip(q, -127, 127).astype(np.int8)


def quantize_embeddings(ds, vec_col: str = "embedding",
                        id_col: str = "vec_id", scale: int = 127):
    """Symmetric int8 quantization of a unit-norm embedding column →
    (id, ``qvec``: list<int8>).  The 100-TB lever: the quantized column is
    4× smaller in the object store / shuffle / Parquet than float32, and
    integer dot products rank within ~1 % of float cosine for unit
    vectors — quantize ONCE, search many times.  ``scale`` must keep
    |x|·scale ≤ 127 (127 is always safe for unit-norm inputs)."""

    def f(t: pa.Table) -> pa.Table:
        arr = t[vec_col].combine_chunks() if isinstance(t[vec_col], pa.ChunkedArray) else t[vec_col]
        flat = np.asarray(arr.flatten(), dtype=np.float64)
        q = _quantize_flat(flat, scale)
        offs = arr.offsets if hasattr(arr, "offsets") else None
        if offs is not None:
            qv = pa.ListArray.from_arrays(offs, pa.array(q, pa.int8()))
        else:  # fixed-size list input
            qv = pa.FixedSizeListArray.from_arrays(pa.array(q, pa.int8()),
                                                   arr.type.list_size)
        return pa.table({id_col: t[id_col], "qvec": qv})

    return ds.map_batches(f, batch_format="pyarrow")


class QuantizedTopK:
    """Per-batch stage: integer dot products of the int8 batch against the
    int8 query matrix (int64 accumulation — exact), batch-local top-k out.
    Same shape as BruteForceTopK; scores are deterministic integers, so the
    global merge is bit-reproducible."""

    def __init__(self, queries: np.ndarray, k: int, id_col: str = "vec_id",
                 vec_col: str = "qvec"):
        self.q = np.asarray(queries, dtype=np.int64)
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        arr = batch[self.vec_col]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        flat = np.asarray(arr.flatten(), dtype=np.int64)
        n = len(arr)
        if n == 0:
            return pa.table({self.id_col: pa.array([], pa.int64()),
                             "query_idx": pa.array([], pa.int32()),
                             "score_q": pa.array([], pa.int64())})
        m = flat.reshape(n, -1)
        scores = m @ self.q.T                                   # (n, nq) int64
        ids = np.asarray(batch[self.id_col]).astype(np.int64)
        rows, qidx = _topk_rows_tiesafe(scores, ids, self.k)
        return pa.table({self.id_col: pa.array(ids[rows]),
                         "query_idx": pa.array(qidx),
                         "score_q": pa.array(scores[rows, qidx])})


def brute_force_topk_q8(ds, queries: np.ndarray, k: int = 10,
                        id_col: str = "vec_id", vec_col: str = "embedding",
                        scale: int = 127) -> pd.DataFrame:
    """Quantize → integer brute-force top-k → tiny driver merge.
    Deterministic: integer scores, tie-break (score desc, id asc)."""
    from timberjack_ray.functions.util import scale_to_int_np

    qq = np.clip(scale_to_int_np(np.asarray(queries, dtype=np.float64),
                                 scale), -127, 127)
    qds = quantize_embeddings(ds, vec_col=vec_col, id_col=id_col, scale=scale)
    partial = qds.map_batches(
        QuantizedTopK(qq, k=k, id_col=id_col),
        batch_format="pyarrow").to_pandas()
    return _rank_merge(partial, id_col, "score_q", k)


def knn_join_q8(ds, k: int = 3, id_col: str = "vec_id",
                vec_col: str = "embedding", scale: int = 127,
                max_rows: int = 2_000_000) -> pd.DataFrame:
    """Exact int8-quantized kNN SELF-join: every vector's top-``k``
    neighbors (self excluded) by integer dot product, tie-break
    (score desc, neighbor id asc) — fully deterministic, so the whole
    result replays in SQL (the oracle-checked exact twin of the
    IVF-bucketed ``embedding_knn_join``; use that one past ``max_rows``,
    this one is the baseline and its recall yardstick).

    Plan: quantize once (4× smaller), gather the quantized matrix to the
    driver under a row guard, ``ray.put`` it ONCE, then one streaming
    ``map_batches`` of int32 matmuls — each batch row scores against the
    broadcast matrix, n·d ints cross the wire once.  Raises past the
    guard instead of silently materializing an unbounded matrix."""
    import ray

    from timberjack_ray.functions.util import collect_table_under

    qds = quantize_embeddings(ds, vec_col=vec_col, id_col=id_col,
                              scale=scale).materialize()
    tbl = collect_table_under(qds, max_rows)
    if tbl is None:
        raise ValueError(
            "knn_join_q8: corpus exceeds max_rows — the exact self-join "
            "broadcasts the full quantized matrix; use the IVF-bucketed "
            "embedding_knn_join at this scale")
    if not tbl.num_rows:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in
                             [id_col, "neighbor_id", "score_q", "rank"]})
    all_ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    M = _to_matrix(tbl["qvec"]).astype(np.int32)
    ref = ray.put((all_ids, M))

    def score(t: pa.Table) -> pa.Table:
        ids_all, mat = ray.get(ref)
        b_ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(b_ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "score_q": pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int64())})
        B = _to_matrix(t["qvec"]).astype(np.int32)
        s = (mat @ B.T).astype(np.int64)          # (n_corpus, n_batch)
        # self-exclusion: sink the matching id below any reachable score.
        # NOT int64.min — the tie-safe top-k negates scores and −int64.min
        # overflows back to itself, corrupting the threshold.
        self_mask = ids_all[:, None] == b_ids[None, :]
        s_excl = np.where(self_mask, np.int64(-(1 << 62)), s)
        rows, qidx = _topk_rows_tiesafe(s_excl, ids_all, k)
        return pa.table({
            id_col: pa.array(b_ids[qidx]),
            "neighbor_id": pa.array(ids_all[rows]),
            "score_q": pa.array(s[rows, qidx]),
            "rank": pa.array((np.arange(len(rows), dtype=np.int64) % k) + 1)})

    out = pa.concat_tables(list(
        qds.map_batches(score, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow"))).to_pandas()
    return out.sort_values([id_col, "rank"]).reset_index(drop=True).astype(
        {id_col: "int64", "neighbor_id": "int64", "score_q": "int64",
         "rank": "int64"})


def embedding_dispersion(ds, group_col: str, vec_col: str = "embedding",
                         scale: int = 1000) -> pd.DataFrame:
    """Per-group embedding dispersion moments on the scaled-int domain:
    (group, n, sumsq_scaled) with ``sumsq_scaled = Σ_rows Σ_dims q(e)²``,
    q = floor(e·scale + ½).  Together with ``grouped_centroid_sums`` this
    gives the exact per-group variance E‖x‖² − ‖Ex‖² (cluster-diversity /
    mode-collapse signal) without any float accumulation — the oracle
    replays every term bit for bit.  Partials are one row per group per
    batch.  Precondition: (scale·|e|)²·dim·rows_per_group < 2^63 — at the
    default 1e3 scale and unit-norm embeddings that is ~10^10 rows per
    group; raise ``scale`` only with that budget in mind."""
    from timberjack_ray.aggregates import merge_partials
    from timberjack_ray.functions.util import scale_to_int_np

    def partial(t: pa.Table) -> pa.Table:
        m = _to_matrix(t[vec_col]).astype(np.float64)
        if m.size == 0:
            return pa.table({group_col: pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "sumsq_scaled": pa.array([], pa.int64())})
        q = scale_to_int_np(m, scale)
        row_sq = (q * q).sum(axis=1)
        g = t[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(g, kind="stable")
        gs = g[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        n = np.diff(np.r_[starts, len(gs)])
        ssq = np.add.reduceat(row_sq[order], starts)
        return pa.table({group_col: pa.array(gs[starts]),
                         "n": pa.array(n.astype(np.int64)),
                         "sumsq_scaled": pa.array(ssq.astype(np.int64))})

    p = ds.map_batches(partial, batch_format="pyarrow")
    out = merge_partials(p, [group_col], ["n", "sumsq_scaled"]).to_pandas()
    return out.sort_values(group_col).reset_index(drop=True)


def top_principal_component(ds, vec_col: str = "embedding",
                            iters: int = 30):
    """Distributed PCA, top component only, by POWER ITERATION: the
    embedding-drift / dominant-direction diagnostic (is the corpus
    collapsing onto one axis?) without ever materializing the data or a
    tall matrix.

    Plan: ONE streaming pass folds the three Gram partials per batch —
    Σ xxᵀ (dim × dim), Σ x, n — so the exchange volume is dim²·8 B per
    batch regardless of row count; the driver assembles the covariance
    C = Σxxᵀ/n − μμᵀ (exact given float64 partials) and runs power
    iteration (O(dim²·iters), microseconds at embedding dims).
    Deterministic: fixed ones/√dim init, fixed iteration count, and a
    sign convention (first nonzero loading ≥ 0).

    Returns (eigenvalue, loadings ndarray, n_rows).  Like every float
    reduction, partial-merge order can perturb the last bits — callers
    compare with tolerance (rows-only evidence class).
    """
    dim_holder = {}

    def partial(t: pa.Table) -> pa.Table:
        emb = t[vec_col].combine_chunks()
        flat = np.asarray(emb.flatten(), dtype=np.float64)
        n = t.num_rows
        d = flat.size // max(n, 1)
        x = flat.reshape(n, d)
        g = x.T @ x
        return pa.table({"n": pa.array([n]),
                         "d": pa.array([d]),
                         "g": pa.array([g.reshape(-1).tolist()]),
                         "s": pa.array([x.sum(axis=0).tolist()])})

    g_sum = None
    s_sum = None
    n_tot = 0
    for b in ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        for i in range(b.num_rows):
            n = b["n"][i].as_py()
            d = b["d"][i].as_py()
            g = np.array(b["g"][i].as_py()).reshape(d, d)
            s = np.array(b["s"][i].as_py())
            if g_sum is None:
                g_sum = np.zeros((d, d))
                s_sum = np.zeros(d)
                dim_holder["d"] = d
            g_sum += g
            s_sum += s
            n_tot += n
    if not n_tot:
        return 0.0, np.zeros(0), 0
    d = dim_holder["d"]
    mu = s_sum / n_tot
    cov = g_sum / n_tot - np.outer(mu, mu)
    v = np.ones(d) / np.sqrt(d)
    for _ in range(iters):
        w = cov @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            break
        v = w / nrm
    lam = float(v @ cov @ v)
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if len(nz) and v[nz[0]] < 0:
        v = -v
    return lam, v, n_tot


def semantic_dedup(ds, threshold: float = 0.95, n_centroids: int = 16,
                   id_col: str = "vec_id", vec_col: str = "embedding",
                   seed: int = 13, refine_iters: int = 1,
                   max_cluster: int = 8192):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023, public
    method): spherical k-means clusters the embedding space, then EXACT
    pairwise-cosine dup groups are resolved WITHIN each cluster — pairs
    crossing cluster boundaries are ignored by design (the method's
    recall/cost trade; the LSH path ``embedding_near_dup`` is the
    alternative when cross-cluster recall matters).

    Keep rule: min id per connected dup group (deterministic; the paper
    keeps the lowest-centroid-similarity member — swap the representative
    choice downstream if needed).

    Scale shape: centroids train on a seeded uniform sample + distributed
    Lloyd refinement (existing IVF machinery), broadcast once; ONE
    cluster-exchange co-locates each cluster; within a cluster the s×s
    cosine matrix is exact — ``max_cluster`` bounds s (raise
    ``n_centroids`` with corpus size so clusters stay bounded; SemDeDup's
    own recipe).  Dup-group resolution is a vectorized min-label
    propagation over the adjacency matrix — no per-edge Python.

    Returns a row-volume Dataset of (cluster, id, keep) that streams.
    """
    import ray

    cents = kmeans_refine(
        ds, sample_centroids(ds, n_centroids, vec_col, seed=seed),
        iters=refine_iters, vec_col=vec_col)
    cent_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import fetch_broadcast

        c = fetch_broadcast(cent_ref)
        m = _normalize(_to_matrix(t[vec_col]))
        cl = (np.argmax(m @ c.T, axis=1).astype(np.int64)
              if len(m) else np.zeros(0, np.int64))
        return pa.table({"cluster": pa.array(cl),
                         id_col: t[id_col], vec_col: t[vec_col]})

    def per_cluster(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = len(ids)
        if s > max_cluster:
            raise ValueError(
                f"semantic_dedup: cluster size {s} exceeds max_cluster="
                f"{max_cluster}; raise n_centroids so the s² in-cluster "
                f"verification stays bounded")
        cl = t["cluster"].to_numpy(zero_copy_only=False)[:1]
        order = np.argsort(ids)
        ids = ids[order]
        m = _normalize(_to_matrix(t[vec_col]))[order]
        adj = (m @ m.T) >= threshold
        np.fill_diagonal(adj, True)
        labels = np.arange(s, dtype=np.int64)
        # min-label propagation + pointer jumping (labels[labels]): the
        # same recipe as graph.connected_components, O(log diameter)
        # rounds; run to stability so long chains close exactly
        while True:
            nbr = np.where(adj, labels[None, :], s).min(axis=1)
            new = np.minimum(labels, nbr)
            new = np.minimum(new, new[new])
            if np.array_equal(new, labels):
                break
            labels = new
        keep = labels == np.arange(s)
        return pa.table({"cluster": pa.array(np.repeat(cl, s)),
                         id_col: pa.array(ids),
                         "keep": pa.array(keep)})

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    return assigned.groupby("cluster").map_groups(
        per_cluster, batch_format="pyarrow")


def knn_join(ds, k: int = 3, n_centroids: int = 16,
             id_col: str = "vec_id", vec_col: str = "embedding",
             seed: int = 13, refine_iters: int = 1,
             max_cluster: int = 8192, q_scale: int = 16384):
    """Approximate k-NN SELF-join: every vector's top-k most-similar
    neighbors, IVF-style — spherical k-means partitions the space, ONE
    cluster exchange co-locates each cell, and neighbors are resolved
    EXACTLY within the cell (cross-cell neighbors are missed by design,
    the IVF recall/cost trade; raise ``n_centroids`` with corpus size to
    keep the in-cell s×k work bounded, cap enforced at ``max_cluster``).

    Determinism: normalized vectors quantize to ints (``floor(x·q_scale)``)
    and similarity is the INT dot product, so scores and the
    (score desc, id asc) ranking are bit-stable across runs, partitions
    and engines — float cosine would tie-break unpredictably.  int64
    bound: dim · q_scale² ≪ 2⁶³ (dim ≤ ~2^35/q_scale²).

    Returns a streaming Dataset (id, nbr_id, rank, score_q): k rows per
    vector (fewer in cells smaller than k+1)."""
    import ray

    cents = kmeans_refine(
        ds, sample_centroids(ds, n_centroids, vec_col, seed=seed),
        iters=refine_iters, vec_col=vec_col)
    cent_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import fetch_broadcast

        c = fetch_broadcast(cent_ref)
        m = _normalize(_to_matrix(t[vec_col]))
        cl = (np.argmax(m @ c.T, axis=1).astype(np.int64)
              if len(m) else np.zeros(0, np.int64))
        return pa.table({"cluster": pa.array(cl),
                         id_col: t[id_col], vec_col: t[vec_col]})

    def per_cluster(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "nbr_id": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64()),
                          "score_q": pa.array([], pa.int64())})
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = len(ids)
        if s < 2:
            return empty
        if s > max_cluster:
            raise ValueError(
                f"knn_join: cluster size {s} exceeds max_cluster="
                f"{max_cluster}; raise n_centroids")
        order = np.argsort(ids)
        ids = ids[order]
        m = _normalize(_to_matrix(t[vec_col]))[order]
        q = np.floor(m.astype(np.float64) * q_scale).astype(np.int64)
        neg = -(q @ q.T)
        # exclude self AFTER negation (negating int64.min would overflow
        # back to the minimum and make every row match itself)
        np.fill_diagonal(neg, np.iinfo(np.int64).max)
        kk = min(k, s - 1)
        # ids ascend along columns, so a STABLE argsort of -sim gives the
        # (score desc, id asc) tie rule with no composite key
        nbr = np.argsort(neg, axis=1, kind="stable")[:, :kk]
        rows = np.repeat(ids, kk)
        cols = ids[nbr.ravel()]
        scores = -np.take_along_axis(neg, nbr, axis=1).ravel()
        ranks = np.tile(np.arange(1, kk + 1, dtype=np.int64), s)
        return pa.table({id_col: pa.array(rows),
                         "nbr_id": pa.array(cols),
                         "rank": pa.array(ranks),
                         "score_q": pa.array(scores)})

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    return assigned.groupby("cluster").map_groups(
        per_cluster, batch_format="pyarrow")


def embedding_dim_stats(ds, vec_col: str = "embedding",
                        scale: int = 1000) -> pd.DataFrame:
    """Per-DIMENSION (min, max, sum, n) over a vector column on the
    scaled-int domain — the feature-normalization planning pass every
    embedding pipeline needs before quantization / whitening / clipping
    (pick per-dim clip ranges and offsets from exact corpus extrema).

    One streaming pass; each batch collapses to dim rows (min/max/sum
    per column of the matrix), merged on the driver by min/min, max/max,
    sum/sum — partial volume is dim-bounded, independent of row count.
    ``floor(x·scale + ½)`` applies to NEGATIVE coordinates too (plain
    floor, not round-half-away) and the oracle replays the same rule, so
    results are exact ints."""
    from timberjack_ray.functions.util import scale_to_int_np

    def partial(t: pa.Table) -> pa.Table:
        m = _to_matrix(t[vec_col]).astype(np.float64)
        if m.size == 0:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "min_q": pa.array([], pa.int64()),
                             "max_q": pa.array([], pa.int64()),
                             "sum_q": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        q = scale_to_int_np(m, scale)
        dim = np.arange(1, m.shape[1] + 1, dtype=np.int64)
        return pa.table({"dim": pa.array(dim),
                         "min_q": pa.array(q.min(axis=0)),
                         "max_q": pa.array(q.max(axis=0)),
                         "sum_q": pa.array(q.sum(axis=0)),
                         "n": pa.array(np.full(m.shape[1], m.shape[0],
                                               np.int64))})

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = p.groupby("dim", as_index=False).agg(
        min_q=("min_q", "min"), max_q=("max_q", "max"),
        sum_q=("sum_q", "sum"), n=("n", "sum"))
    return out.sort_values("dim").reset_index(drop=True) \
        .astype({c: "int64" for c in out.columns})


def mmr_select(ds, query: np.ndarray, k: int = 10, lam_num: int = 7,
               lam_den: int = 10, m: int = 256,
               id_col: str = "vec_id", vec_col: str = "embedding",
               q_scale: int = 16384) -> pd.DataFrame:
    """Maximal-Marginal-Relevance diverse top-k — the retrieve-then-rerank
    pattern: stage 1 streams ONE pass of int-quantized query similarities
    keeping the per-batch top-m (partial volume = m rows + vectors per
    batch); the driver merges to the global top-m candidate pool; stage 2
    runs the greedy MMR loop over that m-sized pool only.

    MMR argmax uses the λ-rational integer form
    ``lam_num·qsim − (lam_den−lam_num)·max_sel_sim`` (monotone in the
    real-valued score for λ = lam_num/lam_den), so with int-quantized
    similarities and an id-ascending tie rule the selection is
    bit-deterministic across runs and partitionings.  Pinned against a
    brute-force greedy reference in tests.

    At scale m bounds BOTH the driver pool (m × dim ints) and the greedy
    cost (k·m dots); recall of the diverse tail beyond the top-m
    relevance pool is the documented trade (raise m, not k)."""
    from timberjack_ray.functions.util import scale_to_int_np

    qv = np.asarray(query, dtype=np.float64).reshape(-1)
    qn = qv / max(np.linalg.norm(qv), 1e-12)
    qq = np.floor(qn * q_scale).astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "qsim": pa.array([], pa.int64()),
                          "q": pa.array([], pa.list_(pa.int64()))})
        mx = _to_matrix(t[vec_col])
        if mx.shape[0] == 0:
            return empty
        mn = _normalize(mx).astype(np.float64)
        qm = np.floor(mn * q_scale).astype(np.int64)
        sims = qm @ qq
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # top-m by (sim desc, id asc): ids ascend after this argsort chain
        order = np.lexsort((ids, -sims))[:m]
        return pa.table({id_col: pa.array(ids[order]),
                         "qsim": pa.array(sims[order]),
                         "q": pa.array(list(qm[order]),
                                       pa.list_(pa.int64()))})

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(p) == 0:
        return pd.DataFrame({id_col: [], "rank": [], "mmr_num": []})
    p = p.sort_values(["qsim", id_col], ascending=[False, True]).head(m)
    ids = p[id_col].to_numpy(np.int64)
    qsim = p["qsim"].to_numpy(np.int64)
    vecs = np.array(p["q"].tolist(), dtype=np.int64)

    sel: list[int] = []
    sel_mask = np.zeros(len(ids), bool)
    max_sel = np.full(len(ids), np.iinfo(np.int64).min)
    out_rows = []
    for rank in range(1, min(k, len(ids)) + 1):
        if not sel:
            score = lam_num * qsim
        else:
            score = lam_num * qsim - (lam_den - lam_num) * max_sel
        score = np.where(sel_mask, np.iinfo(np.int64).min, score)
        # argmax with id-asc tie rule: ids are sorted only by qsim, so
        # resolve ties explicitly
        best = np.flatnonzero(score == score.max())
        j = best[np.argmin(ids[best])]
        sel.append(j)
        sel_mask[j] = True
        out_rows.append((int(ids[j]), rank, int(score[j])))
        sims_j = vecs @ vecs[j]
        max_sel = np.maximum(max_sel, sims_j)
    return pd.DataFrame(out_rows, columns=[id_col, "rank", "mmr_num"]) \
        .astype({id_col: "int64", "rank": "int64", "mmr_num": "int64"})


def top_pc_q8(ds, vec_col: str = "embedding", rounds: int = 8,
              v_scale: int = 1_000_000, q_scale: int = 127) -> pd.DataFrame:
    """Dominant principal direction of the UNCENTERED int8-quantized
    Gram matrix by DETERMINISTIC INTEGER power iteration — the
    hash-checkable twin of ``top_principal_component`` (float, rows-only):
    quantize each vector with the shared floor(x*127+0.5) rule, fold
    G = Σ q qᵀ as exact int64 partials (d² values — nothing but the tiny
    Gram crosses the exchange), then ``rounds`` fixed iterations on the
    driver in PYTHON ints: w = G·v; m = max|w|; v ← sign(w)·((|w|·v_scale)
    // m).  The abs-based floor division is truncation-safe, so DuckDB
    replays every round bit-for-bit with HUGEINT arithmetic (rounds are
    SEMANTICS, like kcore_peel — the oracle unrolls them as CTE stages).

    Exactness domain: Gram entries ≤ n_rows·127² (int64-safe to n≈5·10¹⁴
    rows); the driver iteration itself is arbitrary-precision.  Returns
    (component, v_scaled) — sign follows the all-positive start vector
    deterministically.  Mode-collapse / drift diagnostic at any corpus
    size.  Convergence is spectral-gap-dependent (classic power
    iteration): on a near-degenerate spectrum the 8-round vector may not
    align with ONE eigenvector, but its RAYLEIGH QUOTIENT — the variance
    it captures, the quantity the diagnostic needs — is already within
    ~1 % of the maximum; both properties are pinned in tests (planted
    dominant direction → cosine ≥ 0.999; isotropic corpus → Rayleigh
    ratio ≥ 0.98)."""
    from timberjack_ray.aggregates import merge_partials

    def gram_partial(t: pa.Table) -> pa.Table:
        arr = t[vec_col]
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) \
            else arr
        n = len(arr)
        if n == 0:
            return pa.table({"ij": pa.array([], pa.int64()),
                             "g": pa.array([], pa.int64())})
        if hasattr(arr, "flatten"):  # list / fixed-size-list storage
            flat = np.asarray(arr.flatten(), dtype=np.float64)
        else:  # Ray tensor-extension storage
            flat = np.asarray(arr.to_numpy(zero_copy_only=False),
                              dtype=np.float64).ravel()
        q = _quantize_flat(flat, q_scale).astype(np.int64)
        m = q.reshape(n, -1)
        d = m.shape[1]
        g = m.T @ m
        return pa.table({"ij": pa.array(np.arange(d * d, dtype=np.int64)),
                         "g": pa.array(g.ravel())})

    gt = merge_partials(ds.map_batches(gram_partial, batch_format="pyarrow"),
                        ["ij"], "g").to_pandas().sort_values("ij")
    d = int(round(len(gt) ** 0.5))
    G = [[int(x) for x in row] for row in
         np.asarray(gt["g"], dtype=object).reshape(d, d)]
    v = [int(v_scale)] * d
    for _ in range(rounds):
        w = [sum(G[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in w)
        if m == 0:
            break
        v = [(1 if x >= 0 else -1) * ((abs(x) * v_scale) // m) for x in w]
    return pd.DataFrame({"component": np.arange(d, dtype=np.int64),
                         "v_scaled": np.array(v, dtype=np.int64)})


def mmr_select_q8(ds, query_id: int = 0, k: int = 5, m: int = 64,
                  lam_num: int = 7, lam_den: int = 10,
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  q_scale: int = 127) -> pd.DataFrame:
    """MMR diverse top-k, the hash-checkable twin of ``mmr_select``:
    inputs must be unit-norm (the embeddings-table contract), so
    quantization is the SHARED floor(x*127+0.5) clamp with NO float
    normalization — the one mmr_select step whose summation order SQL
    could not replay bit-for-bit.  The query is the corpus vector
    ``query_id``, so the oracle reads it from the same table.

    Plan: (1) a tiny filtered gather fetches + quantizes the query row
    and broadcasts it; (2) ONE streaming pass keeps each batch's integer
    top-m (qsim desc, id asc) WITH its quantized vectors — driver pool
    is m rows per batch, merged to the global m; (3) the λ-rational
    integer greedy of mmr_select (first pick maximizes relevance; then
    argmax of lam_num·qsim − (lam_den−lam_num)·max_sel_sim, id-asc tie
    rule).  Every comparison is int64, so the whole selection unrolls in
    SQL: pool = ROW_NUMBER window, each greedy round one
    (max-sel-sim join, argmax LIMIT 1) CTE stage."""
    import ray

    import pyarrow.compute as pc

    qrow_t = ds.map_batches(
        lambda t: t.filter(pc.equal(t[id_col], query_id)),
        batch_format="pyarrow").take(1)
    if not qrow_t:
        raise ValueError(f"mmr_select_q8: query_id={query_id} not found")
    qv = np.asarray(qrow_t[0][vec_col], dtype=np.float64)
    qq = np.clip(np.floor(qv * q_scale + 0.5), -q_scale,
                 q_scale).astype(np.int64)
    qref = ray.put(qq)

    def partial(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import fetch_broadcast

        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "qsim": pa.array([], pa.int64()),
                          "q": pa.array([], pa.list_(pa.int64()))})
        mx = _to_matrix(t[vec_col])
        if mx.shape[0] == 0:
            return empty
        qv_ = fetch_broadcast(qref)
        qm = np.clip(np.floor(mx.astype(np.float64) * q_scale + 0.5),
                     -q_scale, q_scale).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = qm @ qv_
        order = np.lexsort((ids, -sims))[:m]
        return pa.table({id_col: pa.array(ids[order]),
                         "qsim": pa.array(sims[order]),
                         "q": pa.array(list(qm[order]),
                                       pa.list_(pa.int64()))})

    pool = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if pool.empty:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64"),
                             "mmr_num": pd.Series([], dtype="int64")})
    pool = pool.sort_values(["qsim", id_col],
                            ascending=[False, True]).head(m)
    ids = pool[id_col].to_numpy(np.int64)
    qsim = pool["qsim"].to_numpy(np.int64)
    vecs = np.array(pool["q"].tolist(), dtype=np.int64)

    sel: list[int] = []
    sel_mask = np.zeros(len(ids), bool)
    max_sel = None  # true MAX over selected sims — no zero clamp, the
    out_rows = []   # SQL MAX() must see negative sims identically
    for rank in range(1, min(k, len(ids)) + 1):
        if max_sel is None:
            score = lam_num * qsim
        else:
            score = lam_num * qsim - (lam_den - lam_num) * max_sel
        score = np.where(sel_mask, np.iinfo(np.int64).min, score)
        best = np.flatnonzero(score == score.max())
        j = best[np.argmin(ids[best])]
        sel.append(j)
        sel_mask[j] = True
        out_rows.append((int(ids[j]), rank, int(score[j])))
        sims_j = vecs @ vecs[j]
        max_sel = sims_j if max_sel is None \
            else np.maximum(max_sel, sims_j)
    return pd.DataFrame(out_rows, columns=[id_col, "rank", "mmr_num"]) \
        .astype({id_col: "int64", "rank": "int64", "mmr_num": "int64"})
