"""Sharded first-seen dedup index — streaming exact dedup as raw Ray actors.

Batch dedup (`functions/dedup.exact_dedup`) is a groupby: it needs the whole
input before it can pick winners.  An INGEST pipeline can't wait — each
arriving micro-batch must be filtered against everything seen SO FAR, and
the "seen" set mutates as the stream flows.  That shared mutable index is
exactly what `ray.data.Dataset` cannot express (its operators are pure
functions of their input), so this module drops to `@ray.remote` actors —
the documented last-resort tier of the build brief.

Design
------
* The index is SHARDED by hash range: shard i owns hashes with
  ``hash % n_shards == i``.  Each shard's memory is its own distinct-hash
  count × 8 B; capacity scales horizontally by adding shards (at 100 TB:
  hundreds of shards spread over the cluster, placement by Ray).
* ``probe_insert`` is one message per (batch, shard): the caller splits a
  batch's hashes by owner, every shard answers "which of these are NEW"
  and atomically claims them.  Per-shard state is a sorted uint64 array —
  probes are one ``searchsorted`` (vectorized, no Python loop), inserts an
  O(new log new) merge.  Actor serialization makes claim-then-answer
  atomic without locks.
* First-seen semantics: within a call, the FIRST occurrence (arrival
  order) of a new hash wins; across calls, whichever call the actor
  serializes first wins.  Feeding batches in a deterministic order makes
  the result deterministic end-to-end (the oracle below exploits this).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from timberjack_ray.functions.util import sorted_member_mask
from timberjack_ray.state import ShardPool


def _first_occurrence_mask(h: np.ndarray) -> np.ndarray:
    """True at the first (arrival-order) occurrence of each value."""
    _, first_idx = np.unique(h, return_index=True)
    m = np.zeros(len(h), dtype=bool)
    m[first_idx] = True
    return m


class _ShardState:
    """The actual index logic, actor-free so tests fuzz it directly."""

    def __init__(self) -> None:
        self.sorted = np.zeros(0, np.uint64)

    def probe_insert(self, h: np.ndarray) -> np.ndarray:
        h = np.ascontiguousarray(h, np.uint64)
        new_mask = ~sorted_member_mask(self.sorted, h) \
            & _first_occurrence_mask(h)
        fresh = h[new_mask]
        if len(fresh):
            self.sorted = np.union1d(self.sorted, fresh)
        return new_mask

    def size(self) -> int:
        return int(len(self.sorted))


def _make_shard_actor():
    import ray

    # a shard only answers probes: it reserves no CPU, so n_shards actors
    # never crowd out the tasks that feed them on a small session
    @ray.remote(num_cpus=0)
    class DedupShard:
        def __init__(self) -> None:
            self._s = _ShardState()

        def probe_insert(self, h: np.ndarray) -> np.ndarray:
            return self._s.probe_insert(h)

        def size(self) -> int:
            return self._s.size()

    return DedupShard


class StreamingDeduper(ShardPool):
    """Actor-pool front-end: filter each arriving Arrow batch down to the
    rows whose content was never seen before (first-seen wins).

    Usage::

        d = StreamingDeduper(n_shards=8)
        for batch in arriving_batches:
            fresh = d.filter_batch(batch, col="text")
            ...                      # fresh rows flow on downstream
        d.close()

    One round-trip per (batch, owning shard), probes fan out in parallel
    (``ray.get`` on all shards at once).  ``close()`` kills the actors —
    callers own the lifetime (or use it as a context manager).
    """

    def __init__(self, n_shards: int = 8):
        cls = _make_shard_actor()
        super().__init__([cls.remote() for _ in range(n_shards)])

    def filter_batch(self, t: pa.Table, col: str = "text",
                     hashes: np.ndarray | None = None) -> pa.Table:
        if hashes is None:
            # the same 64-bit stable hash family as the batch exact_dedup
            # path — all dedup tiers must agree for oracle replay
            from timberjack_ray.functions.dedup import _stable_hash_strings

            texts = t[col].to_pandas().astype(str).to_numpy(dtype=object)
            hashes = _stable_hash_strings(texts)
        owner = (hashes % np.uint64(self.n_shards)).astype(np.int64)
        keep = np.zeros(len(hashes), dtype=bool)
        parts = self._split(owner)
        refs = [self.shards[s].probe_insert.remote(hashes[idx])
                for s, idx in parts]
        for (s, idx), mask in zip(parts, self._ray.get(refs)):
            keep[idx] = mask
        return t.filter(pa.array(keep))

    def index_size(self) -> int:
        return sum(self._ray.get([s.size.remote() for s in self.shards]))
