"""Sharded quota-admission state — streaming per-group budget enforcement.

`functions/corpus.budget_sample` fills each source's quota after seeing the
whole corpus (it picks WHICH docs by scrambled-hash order).  At ingest time
the policy is simpler and harsher: admit arriving docs until their group's
budget is spent, in ARRIVAL order — a mutable per-group running total that
must be consistent across concurrent feeders, i.e. actor state (same tier
as `state/dedup_index`).

Each shard owns the totals for groups with ``hash(group) % n_shards == s``;
a batch costs one parallel round-trip over the owning shards.  Within a
call the shard applies its updates atomically and in row order, so a fixed
arrival order makes admission deterministic and SQL-replayable (an
inclusive running-sum window) — the oracle-checked contract.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.state import ShardPool


class _QuotaShardState:
    """Actor-free logic: per-group spent totals, PREFIX admission — the
    first doc that would overflow CLOSES its group (later smaller docs
    are rejected too), which is exactly the monotone inclusive
    running-sum-≤-budget window the SQL oracle replays."""

    def __init__(self, budget: int):
        self.budget = budget
        self.spent: dict[str, int] = {}
        self.closed: set = set()

    def admit(self, groups: list, weights: np.ndarray) -> np.ndarray:
        keep = np.zeros(len(groups), dtype=bool)
        for i, (g, w) in enumerate(zip(groups, weights.tolist())):
            if g in self.closed:
                continue
            cur = self.spent.get(g, 0)
            if cur + w <= self.budget:
                self.spent[g] = cur + w
                keep[i] = True
            else:
                self.closed.add(g)
        return keep

    def totals(self) -> dict:
        return dict(self.spent)


def _make_shard_actor():
    import ray

    @ray.remote(num_cpus=0)
    class QuotaShard:
        def __init__(self, budget: int):
            self._s = _QuotaShardState(budget)

        def admit(self, groups, weights):
            return self._s.admit(groups, weights)

        def totals(self):
            return self._s.totals()

    return QuotaShard


class QuotaAdmitter(ShardPool):
    """Actor-pool front-end: keep each arriving batch's rows whose group
    budget is not yet exhausted (inclusive: a doc that exactly fills the
    budget is admitted; the next one is not — docs are never split)."""

    def __init__(self, budget: int, n_shards: int = 4):
        cls = _make_shard_actor()
        super().__init__([cls.remote(budget) for _ in range(n_shards)])

    def filter_batch(self, t: pa.Table, group_col: str,
                     weight_col: str) -> pa.Table:
        groups = t[group_col].to_pylist()
        if not groups:
            return t
        w = t[weight_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        owner = (pd.util.hash_array(np.asarray(groups, dtype=object))
                 .astype(np.uint64)
                 % np.uint64(self.n_shards)).astype(np.int64)
        keep = np.zeros(len(groups), dtype=bool)
        parts = self._split(owner)
        refs = [self.shards[s].admit.remote([groups[i] for i in idx],
                                            w[idx])
                for s, idx in parts]
        for (s, idx), mask in zip(parts, self._ray.get(refs)):
            keep[idx] = mask
        return t.filter(pa.array(keep))

    def totals(self) -> dict:
        out: dict = {}
        for d in self._ray.get([s.totals.remote() for s in self.shards]):
            out.update(d)
        return out
