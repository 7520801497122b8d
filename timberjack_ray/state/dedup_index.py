"""First-seen exact dedup over an arriving stream.

Batch dedup (`functions/dedup.exact_dedup`) is a groupby: it needs the whole
input before it can pick winners.  An ingest stream instead filters each
arriving row against everything seen SO FAR: the first arrival of a
content hash survives, later copies drop.

The seen set is a sorted uint64 array of content hashes (8 B per distinct
hash): a probe is one ``searchsorted``, an insert an O(new log new) merge.
Within one probe the first occurrence (arrival order) of a new hash wins,
so a deterministic arrival order gives deterministic survivors: with
``doc_id`` arrival, the survivor of each text is its min ``doc_id``, which
the SQL oracle replays.  ``first_seen`` runs the same index per hash
bucket over a Dataset (``state.arrival_fold``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from timberjack_ray.functions.util import sorted_member_mask
from timberjack_ray.state import fold_rows


def _first_occurrence_mask(h: np.ndarray) -> np.ndarray:
    """True at the first (arrival-order) occurrence of each value."""
    _, first_idx = np.unique(h, return_index=True)
    m = np.zeros(len(h), dtype=bool)
    m[first_idx] = True
    return m


def _content_hashes(t: pa.Table, col: str) -> np.ndarray:
    """The 64-bit stable hash of each value of ``col``: the same family as
    the batch ``exact_dedup`` path, so every dedup tier agrees."""
    from timberjack_ray.functions.dedup import _stable_hash_strings

    return _stable_hash_strings(
        t[col].to_pandas().astype(str).to_numpy(dtype=object))


class _ShardState:
    """The first-seen index over uint64 hashes."""

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


class StreamingDeduper(_ShardState):
    """Filter each arriving Arrow batch down to the rows whose content was
    never seen before (first-seen wins).

    Usage::

        d = StreamingDeduper()
        for batch in arriving_batches:
            fresh = d.filter_batch(batch, col="text")
            ...                      # fresh rows flow on downstream
    """

    def filter_batch(self, t: pa.Table, col: str = "text",
                     hashes: np.ndarray | None = None) -> pa.Table:
        if hashes is None:
            hashes = _content_hashes(t, col)
        return t.filter(pa.array(self.probe_insert(hashes)))


def first_seen(ds, col: str, order: list[str]) -> pa.Table:
    """The ``order`` columns of the first arrival of each distinct ``col``
    value, arrival being ``order``.  Only (hash, ``order``) rows cross the
    exchange, keyed on the content hash."""

    def hashed(t: pa.Table) -> pa.Table:
        return t.select(order).append_column(
            "__h", pa.array(_content_hashes(t, col)))

    def keep_first(t: pa.Table) -> pa.Table:
        return StreamingDeduper().filter_batch(
            t, hashes=t["__h"].to_numpy()).select(order)

    return fold_rows(ds, hashed, ["__h"], order, keep_first)
