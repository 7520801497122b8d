"""Streaming quota admission — per-group budget enforcement in arrival
order.

`functions/corpus.budget_sample` fills each source's quota after seeing the
whole corpus (it picks WHICH docs by scrambled-hash order).  At ingest time
the policy is simpler and harsher: admit arriving docs until their group's
budget is spent, in ARRIVAL order — a running total per group.

Updates apply in row order, so a fixed arrival order makes admission
deterministic and SQL-replayable (an inclusive running-sum window) — the
oracle-checked contract.  ``quota_admit`` runs the same state per group
bucket over a Dataset (``state.arrival_fold``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from timberjack_ray.state import fold_rows


class _QuotaShardState:
    """Per-group spent totals, PREFIX admission — the first doc that
    would overflow CLOSES its group (later smaller docs are rejected
    too), which is exactly the monotone inclusive running-sum-≤-budget
    window the SQL oracle replays."""

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


class QuotaAdmitter(_QuotaShardState):
    """Keep each arriving batch's rows whose group budget is not yet
    exhausted (inclusive: a doc that exactly fills the budget is admitted;
    the next one is not — docs are never split)."""

    def filter_batch(self, t: pa.Table, group_col: str,
                     weight_col: str) -> pa.Table:
        w = t[weight_col].to_numpy().astype(np.int64)
        return t.filter(pa.array(self.admit(t[group_col].to_pylist(), w)))


def quota_admit(ds, group_col: str, weight_col: str, order: list[str],
                budget: int) -> pa.Table:
    """The rows of ``ds`` admitted by a ``budget`` per ``group_col`` in
    ``order`` arrival."""

    def admit(t: pa.Table) -> pa.Table:
        return QuotaAdmitter(budget).filter_batch(t, group_col, weight_col)

    return fold_rows(ds, None, [group_col], order, admit)
