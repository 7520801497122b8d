"""Streaming MinHash-LSH index — near-dup detection at INGEST time.

The batch near-dup path (`functions/dedup.minhash_dedup`) is a groupby over
all band rows: it needs the corpus before it can bucket.  An incremental
crawl instead asks, for every arriving doc, "is this a near-duplicate of
ANYTHING already ingested?" — a bucket index that grows as the stream
flows.

The index holds two maps:

* ``buckets``: band key → capped int64 id array.  A probe inserts the new
  id and returns the PRIOR occupants — the LSH candidates.  Degenerate
  buckets (e.g. every empty doc) are capped at ``max_bucket`` occupants,
  the same guard as the batch path's ``_pairs_segmented``.
* ``sigs``: doc id → full MinHash signature, read only to verify
  candidates.

Verification is exact on signatures: the emitted ``n_eq`` is the integer
count of equal components (estimated Jaccard = n_eq / num_perm — the
division is the consumer's).  Pair semantics: each doc is compared
against everything seen EARLIER in arrival order — prior batches AND
earlier rows of the same batch (rows insert one by one, so row i probes
against rows < i; tests pin both cases).  Every bucket's state depends
only on its own band key, so ``near_dup_pairs`` runs the index per band
key bucket over a Dataset (``state.arrival_fold``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.aggregates import merge_partials
from timberjack_ray.functions.dedup import (_MERSENNE, _minhash_params,
                                            gram_hashes_batch)
from timberjack_ray.state import arrival_fold

_FNV = np.uint64(1099511628211)


def _band_keys(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, num_perm) signatures → (n, bands) folded band keys, the same
    FNV fold as functions/dedup.minhash_bands (band collisions match the
    batch path bit-for-bit)."""
    n, num_perm = sigs.shape
    rows_per_band = num_perm // bands
    seg = sigs.reshape(n, bands, rows_per_band)
    bh = np.zeros((n, bands), dtype=np.uint64)
    for j in range(rows_per_band):
        bh = bh * _FNV + seg[:, :, j]
    # mix the band index in so band b's buckets never collide with band c's
    return bh ^ (np.arange(bands, dtype=np.uint64)[None, :] * _FNV)


class _LshShardState:
    """The band-key buckets and the signature store."""

    def __init__(self, max_bucket: int = 64):
        self.buckets: dict[int, np.ndarray] = {}
        self.sigs: dict[int, np.ndarray] = {}
        self.max_bucket = max_bucket

    def probe_insert_buckets(self, keys: np.ndarray, ids: np.ndarray):
        """For each (key, id): return prior occupants of the bucket, then
        insert the id.  Returns (cand_new, cand_seen) id arrays."""
        out_new, out_seen = [], []
        for k, i in zip(keys.tolist(), ids.tolist()):
            occ = self.buckets.get(k)
            if occ is not None and len(occ):
                out_new.append(np.full(len(occ), i, np.int64))
                out_seen.append(occ)
            if occ is None:
                self.buckets[k] = np.array([i], np.int64)
            elif len(occ) < self.max_bucket and i not in occ:
                self.buckets[k] = np.append(occ, i)
        if not out_new:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.concatenate(out_new), np.concatenate(out_seen)

    def put_sigs(self, ids: np.ndarray, sigs: np.ndarray) -> None:
        for j, i in enumerate(ids.tolist()):
            self.sigs.setdefault(i, sigs[j])

    def get_sigs(self, ids: np.ndarray) -> np.ndarray:
        return np.stack([self.sigs[i] for i in ids.tolist()]) \
            if len(ids) else np.zeros((0, 0), np.uint64)

    def n_docs(self) -> int:
        return len(self.sigs)


class StreamingNearDup(_LshShardState):
    """Feed Arrow batches, get back the verified near-dup pairs (new doc
    vs anything ingested earlier — prior batches or earlier rows of the
    same batch).

    Usage::

        idx = StreamingNearDup(num_perm=64, bands=16,
                               min_eq=32)          # ≈ Jaccard ≥ 0.5
        for batch in arriving_batches:
            pairs = idx.process_batch(batch)       # (new_id, seen_id, n_eq)
            ...
    """

    def __init__(self, num_perm: int = 64, bands: int = 16,
                 shingle_k: int = 3, min_eq: int = 32,
                 max_bucket: int = 64, seed: int = 7):
        assert num_perm % bands == 0
        super().__init__(max_bucket)
        self.num_perm = num_perm
        self.bands = bands
        self.k = shingle_k
        self.min_eq = min_eq
        self.a, self.b = _minhash_params(num_perm, seed)

    def _signatures(self, texts) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.num_perm), np.uint64)
        flat, offsets = gram_hashes_batch(texts, self.k)
        vals = (self.a[:, None] * flat[None, :] + self.b[:, None]) \
            % _MERSENNE
        return np.ascontiguousarray(
            np.minimum.reduceat(vals, offsets[:-1], axis=1).T)

    def probe_pairs(self, keys: np.ndarray,
                    ids: np.ndarray) -> pd.DataFrame:
        """Probe+insert each (band key, id) row in order and verify the
        candidates against the stored signatures: the distinct
        ``(new_id, seen_id, n_eq)`` pairs with ``n_eq >= min_eq``."""
        new_ids, seen_ids = np.unique(
            np.stack(self.probe_insert_buckets(keys, ids)), axis=1)
        n_eq = (self.get_sigs(new_ids) == self.get_sigs(seen_ids)) \
            .sum(axis=1).astype(np.int64) if len(new_ids) \
            else np.zeros(0, np.int64)
        keep = n_eq >= self.min_eq
        return pd.DataFrame({"new_id": new_ids[keep],
                             "seen_id": seen_ids[keep],
                             "n_eq": n_eq[keep]}).astype("int64")

    def process_batch(self, t: pa.Table, col: str = "text",
                      id_col: str = "doc_id") -> pd.DataFrame:
        ids = t[id_col].to_numpy().astype(np.int64)
        sigs = self._signatures(t[col].to_pylist())
        self.put_sigs(ids, sigs)
        keys = _band_keys(sigs, self.bands).reshape(-1).view(np.int64)
        # doc-major, matching the keys: row i probes against rows < i
        return self.probe_pairs(keys, np.repeat(ids, self.bands))


def near_dup_pairs(ds, col: str, id_col: str,
                   order: list[str]) -> pa.Table:
    """Verified near-dup pairs ``(new_id, seen_id, n_eq)`` of the ``col``
    texts of a document stream arriving in ``order``: each doc against
    every earlier doc sharing a band key (``StreamingNearDup`` defaults).
    One exchange on the band key carries ``(band key, id, order,
    signature)`` rows; each call runs the LSH index over its buckets in
    arrival order, and the guarded driver fold keeps each pair once across
    bands."""
    idx = StreamingNearDup()
    cols = list(dict.fromkeys([id_col, *order]))

    def banded(t: pa.Table) -> pa.Table:
        sigs = idx._signatures(t[col].to_pylist())
        rows = pa.array(np.repeat(np.arange(t.num_rows), idx.bands))
        return t.select(cols).take(rows).append_column(
            "__band", pa.array(_band_keys(sigs, idx.bands).reshape(-1)
                               .view(np.int64))).append_column(
            "__sig", pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.reshape(-1), pa.uint64()),
                idx.num_perm).take(rows))

    def pairs(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        st = StreamingNearDup()
        st.put_sigs(ids, t["__sig"].combine_chunks().flatten().to_numpy()
                    .reshape(-1, idx.num_perm))
        return pa.Table.from_pandas(
            st.probe_pairs(t["__band"].to_numpy(), ids),
            preserve_index=False)

    parts = arrival_fold(ds.map_batches(banded, batch_format="pyarrow"),
                         ["__band"], order, pairs)
    out = merge_partials(parts, ["new_id", "seen_id"], "n_eq", ops=["max"])
    return out if out.num_rows else pa.table(
        {c: pa.array([], pa.int64()) for c in ("new_id", "seen_id", "n_eq")})
