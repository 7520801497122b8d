"""Stream policies that decide each row from what arrived before it:
first-seen dedup, chunk novelty, MinHash-LSH near-dups, per-group quota,
per-key rate limit and Misra-Gries heavy hitters.

Every policy is key-local (a row's fate depends only on earlier arrivals
of its own key) and every stream here carries its arrival order as a
column.  So a stream runs as one ``aggregates.bucket_exchange`` on the
key: each call gets whole key buckets, sorts them by arrival and folds the
policy's in-process state over them (``arrival_fold``).  The same state
classes filter a driver-ordered loop one batch at a time
(``jobs/ingest_job.py``).  No output leaves before the input ends, which
suits the finite tables the queries read.
"""

from __future__ import annotations

import functools

import pyarrow as pa

from timberjack_ray.aggregates import bucket_exchange

N_BUCKETS = 32


def arrival_fold(ds, keys: list[str], order: list[str], fold):
    """The Dataset of ``fold(pa.Table)`` over whole buckets of ``keys``,
    each call's rows sorted by the ``order`` columns.  Every row of a key
    reaches one call, so a fold whose state is per key sees each of its
    keys' streams complete and in arrival order."""

    @functools.wraps(fold)
    def in_arrival_order(t: pa.Table) -> pa.Table:
        return fold(t.sort_by([(c, "ascending") for c in order]))

    return bucket_exchange(ds, keys, in_arrival_order, N_BUCKETS)


def fold_rows(ds, prepare, keys: list[str], order: list[str],
              fold) -> pa.Table:
    """``arrival_fold`` of ``ds`` mapped through ``prepare`` (None for
    none), collected on the driver.  A 0-row result is ``fold`` of the
    prepared 0-row input, typed like a non-empty one."""
    src = ds if prepare is None \
        else ds.map_batches(prepare, batch_format="pyarrow")
    out = [t for t in arrival_fold(src, keys, order, fold).iter_batches(
        batch_size=None, batch_format="pyarrow") if t.num_rows]
    if out:
        return pa.concat_tables(out)
    s = ds.schema()
    empty = pa.schema(list(zip(s.names, s.types))).empty_table()
    return fold(empty if prepare is None else prepare(empty))
