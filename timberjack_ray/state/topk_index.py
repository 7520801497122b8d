"""Sharded streaming heavy-hitters index — Misra-Gries summaries as actors.

The batch path already has a Count-Min heavy-hitter query
(`functions/sketch.py`): one pass over a CLOSED dataset.  An INGEST
pipeline needs the running top-K over everything seen SO FAR — e.g. "which
error templates are exploding right now" while the crawl streams in — and
that running summary is shared mutable state, the actor-tier case.

Design
------
* Keys are SHARDED by stable hash: each shard runs an independent
  Misra-Gries(k) summary over ITS key subset, so summaries never overlap
  and shard capacity adds up.  Memory per shard: ≤ k (key, count) slots
  regardless of stream cardinality.
* Each batch folds to exact per-key counts first (np.unique — one message
  per (batch, shard) carrying distinct keys, not instances), then merges
  into the shard summary by the MERGEABLE-SUMMARIES rule (Agarwal et al.
  2012, public): sum counts, and past k slots subtract the (k+1)-th
  largest count from all and drop non-positives, accumulating the
  subtraction into the shard's error budget.
* Guarantees (tested): a key with true shard-stream frequency
  > err_budget is always present; estimates UNDER-count by at most the
  shard's err_budget, and err_budget ≤ N_shard / (k+1).
* Deterministic given batch arrival order (the subtraction depends only
  on fold state, not on within-batch order).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.state import ShardPool


class _ShardState:
    """Misra-Gries(k) over this shard's key subset; actor-free for fuzz."""

    def __init__(self, k: int) -> None:
        self.k = int(k)
        self.counts = pd.Series(np.zeros(0, np.int64),
                                index=pd.Index([], dtype=object))
        self.err = 0
        self.n_seen = 0

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        add = pd.Series(counts.astype(np.int64),
                        index=pd.Index(keys, dtype=object))
        self.n_seen += int(counts.sum())
        s = self.counts.add(add, fill_value=0).astype(np.int64)
        if len(s) > self.k:
            vals = s.to_numpy()
            d = int(np.partition(vals, len(vals) - self.k - 1)
                    [len(vals) - self.k - 1])
            s = s - d
            s = s[s > 0]
            self.err += d
        self.counts = s

    def summary(self) -> tuple[list, np.ndarray, int, int]:
        return (self.counts.index.tolist(),
                self.counts.to_numpy(np.int64), self.err, self.n_seen)


def _make_shard_actor():
    import ray

    @ray.remote(num_cpus=0)
    class TopKShard:
        def __init__(self, k: int) -> None:
            self._s = _ShardState(k)

        def add(self, keys, counts) -> None:
            self._s.add(keys, counts)

        def summary(self):
            return self._s.summary()

    return TopKShard


class StreamingTopK(ShardPool):
    """Actor-pool front-end: feed batches of string keys, read the running
    heavy-hitter table at any point.

    Usage::

        hh = StreamingTopK(n_shards=8, k_per_shard=64)
        for batch in arriving_batches:
            hh.add_keys(word_array)          # np object array / pa.Array
        top = hh.topk(10)                    # (key, n_lo, err) DataFrame
        hh.close()

    ``n_lo`` is the Misra-Gries lower bound; the true count lies in
    [n_lo, n_lo + err] where err is the owning shard's error budget.
    """

    def __init__(self, n_shards: int = 8, k_per_shard: int = 64):
        cls = _make_shard_actor()
        super().__init__([cls.remote(k_per_shard) for _ in range(n_shards)])

    def add_keys(self, keys) -> None:
        if isinstance(keys, (pa.Array, pa.ChunkedArray)):
            keys = keys.to_numpy(zero_copy_only=False)
        keys = np.asarray(keys, dtype=object)
        if not len(keys):
            return
        uk, cnt = np.unique(keys, return_counts=True)
        owner = (pd.util.hash_array(uk).astype(np.uint64)
                 % np.uint64(self.n_shards)).astype(np.int64)
        refs = [self.shards[s].add.remote(uk[idx], cnt[idx])
                for s, idx in self._split(owner)]
        self._ray.get(refs)

    def topk(self, k: int) -> pd.DataFrame:
        """Top-k by lower-bound count, (n_lo desc, key asc) tie-break; the
        per-key ``err`` column is the owning shard's error budget."""
        frames = []
        for keys, counts, err, _n in self._ray.get(
                [s.summary.remote() for s in self.shards]):
            if len(keys):
                frames.append(pd.DataFrame(
                    {"key": keys, "n_lo": counts, "err": err}))
        if not frames:
            return pd.DataFrame({"key": pd.Series([], dtype=object),
                                 "n_lo": pd.Series([], dtype="int64"),
                                 "err": pd.Series([], dtype="int64")})
        allf = pd.concat(frames, ignore_index=True)
        return allf.sort_values(["n_lo", "key"],
                                ascending=[False, True]).head(k) \
            .reset_index(drop=True).astype({"n_lo": "int64", "err": "int64"})
