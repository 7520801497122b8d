"""Broadcast-lookup enrich stage.

The north_star mandates a stateful enrich stage joining a broadcast
source→(severity, service) lookup dictionary (SURVEY.md §2.3 ST6, §2.4).
The build side is tiny, so this is a broadcast map-join — never a shuffle:
``ray.put`` the dict ONCE on the driver and fetch it once per worker
process (``functions.util.fetch_broadcast``).

The per-batch lookup is vectorized via dictionary encoding: only the batch's
DISTINCT sources (≤ a few hundred) touch the Python dict; rows are filled by
an Arrow ``take``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from timberjack_ray.functions.util import fetch_broadcast

UNKNOWN = ("unknown", "unknown")


class EnrichStage:
    """Stateless per-batch enrich over the ``source`` column.
    ``lookup_ref`` is a ``ray.put`` ObjectRef of the lookup dict (fetched
    once per worker process, so the stage stays a stateless task that fuses
    with its neighbours) or the dict itself."""

    def __init__(self, lookup_ref):
        self.lookup_ref = lookup_ref
        self.lookup: dict[str, tuple[str, str]] | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.lookup is None:
            self.lookup = fetch_broadcast(self.lookup_ref)
        enc = pc.dictionary_encode(batch["source"])
        if isinstance(enc, pa.ChunkedArray):
            sev_chunks, svc_chunks = [], []
            for chunk in enc.chunks:
                sev, svc = self._map_chunk(chunk)
                sev_chunks.append(sev)
                svc_chunks.append(svc)
            severity = pa.chunked_array(sev_chunks)
            service = pa.chunked_array(svc_chunks)
        else:
            severity, service = self._map_chunk(enc)
        return batch.append_column("severity", severity).append_column("service", service)

    def _map_chunk(self, chunk: pa.DictionaryArray):
        dictionary = chunk.dictionary.to_pylist()
        sev_d = pa.array([self.lookup.get(s, UNKNOWN)[0] for s in dictionary], type=pa.string())
        svc_d = pa.array([self.lookup.get(s, UNKNOWN)[1] for s in dictionary], type=pa.string())
        idx = chunk.indices
        return pc.take(sev_d, idx), pc.take(svc_d, idx)


def enrich(ds, lookup: dict[str, tuple[str, str]]):
    """Attach severity/service columns via the broadcast lookup, as
    stateless tasks over whole blocks so the stage fuses with the adjacent
    parse/route stages and scales to every core."""
    import ray

    return ds.map_batches(EnrichStage(lookup_ref=ray.put(lookup)),
                          batch_format="pyarrow", batch_size=None)
