"""Sharded streaming MinHash-LSH index — near-dup detection at INGEST time.

The batch near-dup path (`functions/dedup.minhash_dedup`) is a groupby over
all band rows: it needs the corpus before it can bucket.  An incremental
crawl instead asks, for every arriving micro-batch, "which of these docs is
a near-duplicate of ANYTHING already ingested?" — a shared mutable bucket
index, the same actor-tier case as `state/dedup_index` (Dataset operators
are pure; an index that grows as the stream flows is not).

Sharding
--------
Each shard actor owns two maps:

* ``buckets``: (band, band-hash) → capped int64 id array; ownership by
  ``bucket_key % n_shards``.  A batch probe inserts the new ids and
  returns the PRIOR occupants — the LSH candidates.  Degenerate buckets
  (e.g. every empty doc) are capped at ``max_bucket`` occupants, the same
  guard as the batch path's ``_pairs_segmented``.
* ``sigs``: doc id → full MinHash signature; ownership by
  ``id % n_shards``.  Fetched only for candidate verification, so traffic
  is O(candidates), not O(docs).

A batch costs TWO parallel actor round-trips (bucket probe+insert, then
sig fetch+insert).  Memory per shard: its buckets plus num_perm × 8 B per
owned doc; at cluster scale, hundreds of shards spread the index, and a
coarser num_perm (or uint32 truncation) halves the sig store.

Verification is exact on signatures: the emitted ``n_eq`` is the integer
count of equal components (estimated Jaccard = n_eq / num_perm — the
division is the consumer's).  Pair semantics: each doc is compared
against everything seen EARLIER in arrival order — prior batches AND
earlier rows of the same batch/call (within a call the shard inserts
row-by-row, so row i probes against rows < i; tests pin both cases).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.functions.dedup import (_MERSENNE, _minhash_params,
                                            gram_hashes_batch)
from timberjack_ray.state import ShardPool

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
    """Actor-free shard logic (tests fuzz it directly)."""

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


def _make_shard_actor():
    import ray

    @ray.remote(num_cpus=0)
    class LshShard:
        def __init__(self, max_bucket: int):
            self._s = _LshShardState(max_bucket)

        def probe_insert_buckets(self, keys, ids):
            return self._s.probe_insert_buckets(keys, ids)

        def put_sigs(self, ids, sigs):
            return self._s.put_sigs(ids, sigs)

        def get_sigs(self, ids):
            return self._s.get_sigs(ids)

        def n_docs(self):
            return self._s.n_docs()

    return LshShard


class StreamingNearDup(ShardPool):
    """Actor-pool front-end: feed Arrow batches, get back the verified
    near-dup pairs (new doc vs anything ingested earlier — prior batches
    or earlier rows of the same batch).

    Usage::

        idx = StreamingNearDup(n_shards=8, num_perm=64, bands=16,
                               min_eq=32)          # ≈ Jaccard ≥ 0.5
        for batch in arriving_batches:
            pairs = idx.process_batch(batch)       # (new_id, seen_id, n_eq)
            ...
        idx.close()
    """

    def __init__(self, n_shards: int = 8, num_perm: int = 64,
                 bands: int = 16, shingle_k: int = 3, min_eq: int = 32,
                 max_bucket: int = 64, seed: int = 7):
        assert num_perm % bands == 0
        cls = _make_shard_actor()
        super().__init__([cls.remote(max_bucket)
                          for _ in range(n_shards)])
        self.num_perm = num_perm
        self.bands = bands
        self.k = shingle_k
        self.min_eq = min_eq
        self.a, self.b = _minhash_params(num_perm, seed)

    def _signatures(self, texts) -> np.ndarray:
        flat, offsets = gram_hashes_batch(texts, self.k)
        vals = (self.a[:, None] * flat[None, :] + self.b[:, None]) \
            % _MERSENNE
        return np.ascontiguousarray(
            np.minimum.reduceat(vals, offsets[:-1], axis=1).T)

    def process_batch(self, t: pa.Table, col: str = "text",
                      id_col: str = "doc_id") -> pd.DataFrame:
        empty = pd.DataFrame({"new_id": pd.Series([], dtype="int64"),
                              "seen_id": pd.Series([], dtype="int64"),
                              "n_eq": pd.Series([], dtype="int64")})
        texts = t[col].to_pylist()
        if not texts:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sigs = self._signatures(texts)
        keys = _band_keys(sigs, self.bands)

        # round 1: bucket probe+insert, sharded by bucket key
        flat_keys = keys.reshape(-1).view(np.int64)
        flat_ids = np.repeat(ids, self.bands)  # doc-major, matches keys
        owner = (flat_keys.view(np.uint64)
                 % np.uint64(self.n_shards)).astype(np.int64)
        parts = self._split(owner)
        refs = [self.shards[s].probe_insert_buckets
                .remote(flat_keys[idx], flat_ids[idx])
                for s, idx in parts]
        cn, cs = [], []
        for r in self._ray.get(refs):
            cn.append(r[0])
            cs.append(r[1])
        cand = np.unique(np.stack([np.concatenate(cn),
                                   np.concatenate(cs)]), axis=1) \
            if cn and len(np.concatenate(cn)) else np.zeros((2, 0),
                                                            np.int64)

        # round 2 (parallel halves): store new sigs; fetch seen sigs
        # NOTE ordering: put_sigs is submitted to each shard BEFORE any
        # get_sigs below; Ray actors execute a caller's messages in
        # submission order, so an in-batch candidate's signature is
        # always stored before the verification fetch reads it.
        id_owner = (ids.view(np.uint64)
                    % np.uint64(self.n_shards)).astype(np.int64)
        put_refs = [self.shards[s].put_sigs.remote(ids[idx], sigs[idx])
                    for s, idx in self._split(id_owner)]
        new_ids, seen_ids = cand
        verified = empty
        if len(new_ids):
            seen_owner = (seen_ids.view(np.uint64)
                          % np.uint64(self.n_shards)).astype(np.int64)
            g_parts = self._split(seen_owner)
            g_refs = [self.shards[s].get_sigs.remote(seen_ids[idx])
                      for s, idx in g_parts]
            seen_sigs = np.zeros((len(seen_ids), self.num_perm),
                                 np.uint64)
            for (s, idx), sg in zip(g_parts, self._ray.get(g_refs)):
                seen_sigs[idx] = sg
            pos = {int(i): j for j, i in enumerate(ids)}
            new_sigs = sigs[[pos[int(i)] for i in new_ids]]
            n_eq = (new_sigs == seen_sigs).sum(axis=1).astype(np.int64)
            keep = n_eq >= self.min_eq
            verified = pd.DataFrame({"new_id": new_ids[keep],
                                     "seen_id": seen_ids[keep],
                                     "n_eq": n_eq[keep]}) \
                .astype({"new_id": "int64", "seen_id": "int64",
                         "n_eq": "int64"})
        self._ray.get(put_refs)
        return verified

    def index_docs(self) -> int:
        return sum(self._ray.get([s.n_docs.remote()
                                  for s in self.shards]))
