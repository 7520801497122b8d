"""Streaming CHUNK-level dedup — incremental-crawl storage/novelty
accounting over the content-defined chunking family.

Doc-level streaming dedup (`state/dedup_index.StreamingDeduper`) only
catches EXACT re-crawls; real crawls mostly deliver *edited* pages, where
whole-doc hashes never repeat but most content chars do.  CDC boundaries
(`functions/corpus.cdc_chunk_batch`) realign within one window of an edit,
so chunk hashes make "how much of this batch is genuinely new?" answerable
incrementally: each arriving batch is chunked, the chunk hashes probe the
first-seen index (`dedup_index._ShardState`), and each doc gets its
novelty against everything seen so far.

Memory = distinct chunks × 8 B (hashes only — chunk BYTES never reach the
index).  Determinism: a fixed arrival order makes every count
reproducible (first occurrence wins inside a batch).  ``chunk_novelty``
runs the same index per chunk-hash bucket over a Dataset, in
(doc, chunk) arrival order (``state.arrival_fold``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from timberjack_ray.aggregates import merge_partials
from timberjack_ray.state import arrival_fold
from timberjack_ray.state.dedup_index import _ShardState

_SUMS = ["n_chunks", "n_new_chunks", "new_chars", "dup_chars"]


def _chunk_rows(t: pa.Table, col: str, id_col: str) -> pa.Table:
    """``cdc_chunk_batch`` rows of ``t``, plus one zero-length chunk with a
    null hash per doc that has no chunks (empty text), so every doc keeps
    a row."""
    from timberjack_ray.functions.corpus import cdc_chunk_batch

    chunks = cdc_chunk_batch(t, col=col, id_col=id_col)
    miss = pc.filter(t[id_col], pc.invert(pc.is_in(
        t[id_col], value_set=chunks[id_col].combine_chunks())))
    if len(miss) == 0:
        return chunks
    z = pa.array(np.zeros(len(miss), np.int64))
    return pa.concat_tables([chunks, pa.table({
        id_col: miss, "chunk_idx": z, "chunk_len": z,
        "chunk_hash": pa.nulls(len(miss), pa.int64())})])


def _tally(chunks: pa.Table, new: np.ndarray, by: str) -> pa.Table:
    """Per-``by`` sums of n_chunks, n_new_chunks, new_chars, dup_chars."""
    ln = chunks["chunk_len"].to_numpy()
    g = pa.table({
        by: chunks[by],
        "n_chunks": pa.array((ln > 0).astype(np.int64)),
        "n_new_chunks": pa.array(new.astype(np.int64)),
        "new_chars": pa.array(np.where(new, ln, 0).astype(np.int64)),
        "dup_chars": pa.array(np.where(new, 0, ln).astype(np.int64)),
    }).group_by(by).aggregate([(c, "sum") for c in _SUMS])
    return g.rename_columns([by, *_SUMS])


class StreamingChunkDeduper(_ShardState):
    """Per-doc chunk-novelty accounting against everything seen so far.

    ``account_batch`` CDC-chunks the batch, probes + claims the chunk
    hashes, and returns one row per input doc:
    ``(id_col, n_chunks, n_new_chunks, new_chars, dup_chars)`` —
    ``dup_chars`` is the storage a chunk-dedup ingest would save on this
    doc given the CURRENT index state.
    """

    def claim(self, chunks: pa.Table) -> np.ndarray:
        """True at each chunk whose hash is new; zero-length chunks
        claim nothing."""
        real = pc.is_valid(chunks["chunk_hash"]).to_numpy(
            zero_copy_only=False)
        new = np.zeros(chunks.num_rows, dtype=bool)
        h = chunks["chunk_hash"].filter(pa.array(real)).to_numpy()
        new[real] = self.probe_insert(h.view(np.uint64))
        return new

    def account_batch(self, t: pa.Table, col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
        chunks = _chunk_rows(t, col, id_col)
        return _tally(chunks, self.claim(chunks), id_col).sort_by(id_col)


def chunk_novelty(ds, col: str, id_col: str, source_col: str) -> pa.Table:
    """Per-source ``(n_chunks, new_chars, dup_chars)`` of the ``col`` texts
    of a document stream arriving in ``id_col`` order: one exchange on the
    chunk hash over ``(id, chunk_idx, chunk_len, chunk_hash, source)`` rows,
    first arrival in (id, chunk_idx) order, per-source partials folded by
    ``merge_partials``.  A source whose docs are all empty keeps a zero
    row."""

    def chunked(t: pa.Table) -> pa.Table:
        chunks = _chunk_rows(t, col, id_col)
        ids = t[id_col].to_numpy()
        order = np.argsort(ids)
        pos = order[np.searchsorted(ids[order], chunks[id_col].to_numpy())]
        return chunks.append_column(source_col, t[source_col].take(pos))

    def account(t: pa.Table) -> pa.Table:
        return _tally(t, StreamingChunkDeduper().claim(t), source_col)

    parts = arrival_fold(ds.map_batches(chunked, batch_format="pyarrow"),
                         ["chunk_hash"], [id_col, "chunk_idx"], account)
    return merge_partials(parts, [source_col],
                          ["n_chunks", "new_chars", "dup_chars"])
