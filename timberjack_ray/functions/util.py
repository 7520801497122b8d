"""Shared helpers for the training-data operators."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def scale_to_int(col, scale: float) -> pa.Array:
    """``floor(x*scale + 0.5)`` as int64 — the cent-scaling step every
    value-exact oracle query shares.  SQL ROUND is half-AWAY-FROM-ZERO
    while numpy/Arrow round() is half-to-even; on NON-NEGATIVE values
    (prices, latencies, sizes — the only inputs here) floor(x·s + 0.5)
    reproduces the SQL tie rule exactly, so data with values landing on
    .5 after scaling can't flip the gate (ADVICE r02).

    scale=1 on an already-integer column is an exact identity cast —
    the float round-trip would corrupt |v| > 2^53 (full-int64-domain
    callers like ``exact_quantile_bisect`` rely on this)."""
    typ = col.type if hasattr(col, "type") else None
    if float(scale) == 1.0 and typ is not None and pa.types.is_integer(typ):
        return pc.cast(col, pa.int64())
    return pc.cast(pc.floor(pc.add(pc.multiply(col, float(scale)), 0.5)),
                   pa.int64())


def scale_to_int_np(v: np.ndarray, scale: float) -> np.ndarray:
    """numpy twin of ``scale_to_int`` (same non-negative precondition,
    same scale=1 integer identity)."""
    v = np.asarray(v)
    if float(scale) == 1.0 and v.dtype.kind in "iu":
        return v.astype(np.int64)
    return np.floor(v.astype(np.float64) * float(scale) + 0.5) \
        .astype(np.int64)


def sorted_lookup(sorted_arr: np.ndarray, values: np.ndarray):
    """Vectorized membership probe returning ``(hit_mask, clamped_idx)`` —
    use ``idx`` to gather companion arrays aligned with ``sorted_arr``
    (only meaningful where ``hit``)."""
    hit = np.zeros(len(values), dtype=bool)
    idx = np.zeros(len(values), dtype=np.int64)
    if len(sorted_arr) and len(values):
        idx = np.searchsorted(sorted_arr, values)
        inb = idx < len(sorted_arr)
        hit[inb] = sorted_arr[idx[inb]] == values[inb]
        idx = np.minimum(idx, len(sorted_arr) - 1)
    return hit, idx


def sorted_member_mask(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorized membership probe: ``values ∈ sorted_arr`` as a bool mask.

    One searchsorted + bounds-guarded equality — the broadcast-side probe
    every anti-join / decontamination / span-hit pass shares (r03 review:
    the block had been copy-pasted five times)."""
    return sorted_lookup(sorted_arr, values)[0]


_REF_CACHE: dict = {}


def fetch_broadcast(ref):
    """Per-worker-process cache for ``ray.put`` broadcast objects: one
    ``ray.get`` per (process, ref) instead of one per batch.  Non-ObjectRef
    inputs pass through (lets local tests call the same closures without a
    Ray session).  Canonical home of the pattern — dedup's ``_fetch_bench``
    and the entry module's join/broadcast closures all route here (r03
    review: two parallel copies had grown)."""
    import ray

    if not isinstance(ref, ray.ObjectRef):
        return ref
    key = ref.hex()
    if key not in _REF_CACHE:
        _REF_CACHE[key] = ray.get(ref)
    return _REF_CACHE[key]


def collect_table_under(ds, limit_rows: int) -> pa.Table | None:
    """Stream a Dataset to one driver-side Arrow table — the one guarded
    row collect.

    Returns None if and only if the Dataset has more than ``limit_rows``
    rows: the stream stops at the first batch past the limit and callers
    fall back to their distributed plan (one wasted partial pass, bounded
    by ``limit_rows``).  An empty Dataset returns a typed empty table: the
    schema of the streamed batches, else the Dataset schema, else a
    zero-column table.  Ray's all-to-all groupby has a multi-second fixed
    cost that dwarfs a driver fold whenever the intermediate fits on the
    driver, while the bail-out keeps the op safe at any scale.
    """
    frames: list[pa.Table] = []
    total = 0
    schema = None
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        total += b.num_rows
        if total > limit_rows:
            return None
        if schema is None:
            schema = b.schema
        if b.num_rows:
            frames.append(b)
    if frames:
        return pa.concat_tables(frames)
    if schema is None:
        sch = ds.schema()
        if sch is None:
            return pa.table({})
        schema = pa.schema([(n, t if isinstance(t, pa.DataType) else pa.null())
                            for n, t in zip(sch.names, sch.types)])
    return schema.empty_table()
