"""Streaming RATE LIMITER — admit at most ``k`` rows per (key, tumbling
window) in ARRIVAL order.

The quota policy (`state/quota`) enforces a lifetime budget; telemetry
ingest wants the windowed form — "keep the first k events per user per
hour, drop the flood" — whose per-key (window, count) state RESETS every
window, so memory is one live counter per key regardless of stream
length.  Rows apply in order, so a deterministic arrival order makes
admission SQL-replayable
(``ROW_NUMBER() OVER (PARTITION BY key, window ORDER BY arrival) <= k``
— the oracle-checked contract).  ``rate_limit`` runs the same state per
key bucket over a Dataset (``state.arrival_fold``).

Precondition: per-key timestamps arrive nondecreasing (global
(ts, id) arrival order gives this); a regressed window would reset its
counter.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from timberjack_ray.state import arrival_fold


class _RateShardState:
    """Per-key (current window, admitted count)."""

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


class RateLimiter(_RateShardState):
    """Keep each arriving batch's rows that are within the first ``k`` of
    their (key, window)."""

    def __init__(self, k: int, window_s: int):
        super().__init__(k, int(window_s) * 1_000_000)

    def filter_batch(self, t: pa.Table, key_col: str,
                     ts_col: str) -> pa.Table:
        ts = pc.cast(t[ts_col], pa.int64()).to_numpy()
        return t.filter(pa.array(self.admit(t[key_col].to_pylist(), ts)))


def rate_limit(ds, key_col: str, ts_col: str, order: list[str], k: int,
               window_s: int):
    """The Dataset of the rows of ``ds`` within the first ``k`` of their
    (``key_col``, ``window_s`` window of ``ts_col``) in ``order`` arrival.
    The exchange keys on ``key_col`` alone: each key's windows reach one
    call whole, and the limiter resets its counter per window."""

    def admit(t: pa.Table) -> pa.Table:
        return RateLimiter(k, window_s).filter_batch(t, key_col, ts_col)

    return arrival_fold(ds, [key_col], order, admit)
