"""Sharded streaming RATE LIMITER — admit at most ``k`` rows per
(key, tumbling window) in ARRIVAL order.

The quota tier (`state/quota`) enforces a lifetime budget; telemetry
ingest wants the windowed form — "keep the first k events per user per
hour, drop the flood" — whose per-key (window, count) state RESETS every
window, so memory is one live counter per key regardless of stream
length.  Same ShardPool contract as the other state actors: each shard
owns ``hash(key) % n_shards``, applies its rows atomically in order, and
a deterministic arrival order makes admission SQL-replayable
(``ROW_NUMBER() OVER (PARTITION BY key, window ORDER BY arrival) <= k``
— the oracle-checked contract).

Precondition: per-key timestamps arrive nondecreasing (global
(ts, id) arrival order gives this); a regressed window would reset its
counter.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.state import ShardPool


class _RateShardState:
    """Actor-free logic: per-key (current window, admitted count)."""

    def __init__(self, k: int, window_us: int):
        self.k = int(k)
        self.w = int(window_us)
        self.state: dict = {}  # key -> [window_id, count]

    def admit(self, keys: list, ts: np.ndarray) -> np.ndarray:
        keep = np.zeros(len(keys), dtype=bool)
        for i, (g, t) in enumerate(zip(keys, ts.tolist())):
            wid = t // self.w
            st = self.state.get(g)
            if st is None or st[0] != wid:
                st = [wid, 0]
                self.state[g] = st
            if st[1] < self.k:
                st[1] += 1
                keep[i] = True
        return keep

    def n_keys(self) -> int:
        return len(self.state)


def _make_shard_actor():
    import ray

    @ray.remote(num_cpus=0)
    class RateShard:
        def __init__(self, k: int, window_us: int):
            self._s = _RateShardState(k, window_us)

        def admit(self, keys, ts):
            return self._s.admit(keys, ts)

        def n_keys(self):
            return self._s.n_keys()

    return RateShard


class RateLimiter(ShardPool):
    """Actor-pool front-end: keep each arriving batch's rows that are
    within the first ``k`` of their (key, window)."""

    def __init__(self, k: int, window_s: int, n_shards: int = 4):
        cls = _make_shard_actor()
        super().__init__([cls.remote(k, int(window_s) * 1_000_000)
                          for _ in range(n_shards)])

    def filter_batch(self, t: pa.Table, key_col: str,
                     ts_col: str) -> pa.Table:
        import pyarrow.compute as pc

        keys = t[key_col].to_pylist()
        if not keys:
            return t
        ts = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        owner = (pd.util.hash_array(np.asarray(keys, dtype=object))
                 .astype(np.uint64)
                 % np.uint64(self.n_shards)).astype(np.int64)
        keep = np.zeros(len(keys), dtype=bool)
        parts = self._split(owner)
        refs = [self.shards[s].admit.remote([keys[i] for i in idx],
                                            ts[idx])
                for s, idx in parts]
        for (s, idx), mask in zip(parts, self._ray.get(refs)):
            keep[idx] = mask
        return t.filter(pa.array(keep))
