"""Streaming heavy hitters — Misra-Gries summaries.

The batch path already has a Count-Min heavy-hitter query
(`functions/sketch.py`): one pass over a CLOSED dataset.  An ingest
pipeline needs the running top-K over everything seen SO FAR — e.g. "which
error templates are exploding right now" while the crawl streams in.

Design
------
* A Misra-Gries(k) summary holds ≤ k (key, count) slots regardless of
  stream cardinality.
* Each batch folds to exact per-key counts first, then merges into the
  summary by the MERGEABLE-SUMMARIES rule (Agarwal et al. 2012, public):
  sum counts, and past k slots subtract the (k+1)-th largest count from
  all and drop non-positives, accumulating the subtraction into the error
  budget.
* Guarantees (tested): a key with true frequency > err is always present;
  estimates UNDER-count by at most err, and err ≤ N / (k+1).
* Deterministic given batch arrival order (the subtraction depends only
  on fold state, not on within-batch order).

``heavy_hitters`` keeps one summary per key bucket of a Dataset: buckets
partition the keys, so their summaries never overlap and add up.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.state import fold_rows


class _ShardState:
    """Misra-Gries(k) over a key stream."""

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


class StreamingTopK(_ShardState):
    """Feed batches of string keys, read the running heavy-hitter table at
    any point.

    Usage::

        hh = StreamingTopK(k=64)
        for batch in arriving_batches:
            hh.add_keys(word_array)          # np object array / pa.Array
        top = hh.topk(10)                    # (key, n_lo, err) DataFrame

    ``n_lo`` is the Misra-Gries lower bound; the true count lies in
    [n_lo, n_lo + err].
    """

    def __init__(self, k: int = 64):
        super().__init__(k)

    def add_keys(self, keys) -> None:
        if isinstance(keys, (pa.Array, pa.ChunkedArray)):
            keys = keys.to_numpy(zero_copy_only=False)
        keys = np.asarray(keys, dtype=object)
        if len(keys):
            self.add(*np.unique(keys, return_counts=True))

    def topk(self, k: int) -> pd.DataFrame:
        """Top-k by lower-bound count, (n_lo desc, key asc) tie-break."""
        top = pd.DataFrame({"key": pd.Series(self.counts.index, dtype=object),
                            "n_lo": self.counts.to_numpy(np.int64),
                            "err": np.full(len(self.counts), self.err,
                                           np.int64)})
        return _top(top, k)


def _top(df: pd.DataFrame, k: int) -> pd.DataFrame:
    return df.sort_values(["n_lo", "key"], ascending=[False, True]).head(k) \
        .reset_index(drop=True).astype({"n_lo": "int64", "err": "int64"})


def heavy_hitters(ds, col: str, k: int) -> pd.DataFrame:
    """Top-``k`` values of the string column ``col``: ``(key, n_lo, err)``,
    one ``StreamingTopK`` per exchange call over the exact counts of its
    buckets' keys (one add, so arrival order does not matter), ``err``
    being that call's error budget."""

    def counted(t: pa.Table) -> pa.Table:
        g = t.group_by(col).aggregate([([], "count_all")])
        return g.rename_columns(["key", "n"])

    def summarize(t: pa.Table) -> pa.Table:
        g = t.group_by("key").aggregate([("n", "sum")])
        hh = StreamingTopK()
        hh.add(g["key"].to_numpy(zero_copy_only=False),
               g["n_sum"].to_numpy())
        return pa.Table.from_pandas(hh.topk(k), preserve_index=False)

    return _top(fold_rows(ds, counted, ["key"], ["key"], summarize)
                .to_pandas(), k)
