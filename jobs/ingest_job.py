"""Incremental-crawl ingest job — the stream policies end-to-end, in one
process (no Ray session; ``ray job submit --working-dir`` runs it as is):

    python jobs/ingest_job.py --input '/data/crawl/*.parquet' \
        --out-dir /data/clean --budget 500000000 --near-dup-log /data/nd.parquet

Shards of an arriving crawl are read IN ORDER on the driver as
micro-batches; each batch flows through

    exact first-seen dedup   (state/dedup_index.StreamingDeduper)
  → near-dup detection       (state/lsh_index.StreamingNearDup — pairs are
                              LOGGED, not dropped: near-dup policy is a
                              downstream decision)
  → (optional, --min-new-frac) CDC chunk-novelty policy
                             (state/cdc_index.StreamingChunkDeduper —
                              edited re-crawls sharing most chunks with
                              the corpus drop before spending quota)
  → per-source quota admission (state/quota.QuotaAdmitter, prefix rule)

and survivors append to partitioned parquet under --out-dir (one file per
input shard — a crashed run re-submitted with the same --out-dir skips
shards whose output file already exists, the same resume contract as the
flagship job).  Output: ONE JSON line of metrics.

Every filter depends on state accumulated over everything ingested so
far, and this loop already reads every row in one process, so each policy
holds its index in-process: one front-end per policy, the same classes the
stream queries fold per key bucket.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

# standalone `python jobs/ingest_job.py` puts jobs/ (not the repo root)
# on sys.path; under `ray job submit --working-dir` the root is there
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="timberjack_ray ingest job")
    ap.add_argument("--input", required=True,
                    help="parquet path/glob of arriving document shards")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--budget", type=int, default=1_000_000_000,
                    help="per-source char budget (prefix rule)")
    ap.add_argument("--near-dup-log", default=None,
                    help="parquet file for detected near-dup pairs")
    ap.add_argument("--batch-size", type=int, default=4096)
    ap.add_argument("--min-eq", type=int, default=32)
    ap.add_argument("--min-new-frac", type=float, default=None,
                    help="drop docs whose CDC chunk-level new-char "
                         "fraction vs everything ingested so far is below "
                         "this (edited re-crawl policy); chunk accounting "
                         "runs only when set")
    args = ap.parse_args(argv)

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from timberjack_ray.state.cdc_index import StreamingChunkDeduper
    from timberjack_ray.state.dedup_index import StreamingDeduper
    from timberjack_ray.state.lsh_index import StreamingNearDup
    from timberjack_ray.state.quota import QuotaAdmitter

    files = sorted(glob.glob(args.input))
    if not files:
        print(json.dumps({"error": "no input files"}))
        return 1
    os.makedirs(args.out_dir, exist_ok=True)

    t0 = time.perf_counter()
    n_in = n_exact = n_quota = n_out = n_skipped = 0
    n_stale = new_chars = dup_chars = 0
    nd_pairs = []
    dedup = StreamingDeduper()
    near = StreamingNearDup(min_eq=args.min_eq)
    quota = QuotaAdmitter(budget=args.budget)
    chunky = StreamingChunkDeduper()
    for f in files:
        out_f = os.path.join(
            args.out_dir,
            os.path.basename(f).replace(".parquet", "") + ".clean.parquet")
        done_already = os.path.exists(out_f)
        pf = pq.ParquetFile(f)
        out_batches = []
        for rb in pf.iter_batches(batch_size=args.batch_size):
            t = pa.Table.from_batches([rb])
            n_in += t.num_rows
            fresh = dedup.filter_batch(t, col="text")
            n_exact += t.num_rows - fresh.num_rows
            if fresh.num_rows and args.min_new_frac is not None:
                # chunk-level novelty vs everything ingested so far:
                # edited re-crawls share most chunks and get dropped
                # BEFORE they spend quota.  The index claims chunks of
                # dropped docs too (seen content stays seen).
                acct = chunky.account_batch(fresh).to_pandas() \
                    .set_index("doc_id")
                a = acct.loc[fresh["doc_id"].to_pylist()]
                tot = (a["new_chars"] + a["dup_chars"]).to_numpy()
                frac = a["new_chars"].to_numpy() / np.maximum(tot, 1)
                keep = frac >= args.min_new_frac
                new_chars += int(a["new_chars"].sum())
                dup_chars += int(a["dup_chars"].sum())
                n_stale += int((~keep).sum())
                fresh = fresh.filter(pa.array(keep))
            if fresh.num_rows:
                p = near.process_batch(fresh)
                if len(p):
                    nd_pairs.append(p)
                admitted = quota.filter_batch(fresh, "source",
                                              "n_chars")
                n_quota += fresh.num_rows - admitted.num_rows
                if admitted.num_rows and not done_already:
                    out_batches.append(admitted)
                n_out += admitted.num_rows
        if done_already:
            n_skipped += 1       # resume: output exists, but the
            # stream STILL flowed through the indexes so later
            # shards dedup/quota against it — state, not files,
            # carries the semantics
        elif out_batches:
            pq.write_table(pa.concat_tables(out_batches), out_f)
        else:
            # zero survivors still gets a (schema-only) output file —
            # the resume marker must not depend on the filter outcome
            pq.write_table(pf.schema_arrow.empty_table(), out_f)
    if args.near_dup_log and nd_pairs:
        pq.write_table(
            pa.Table.from_pandas(pd.concat(nd_pairs),
                                 preserve_index=False),
            args.near_dup_log)
    metrics = {
        "files": len(files), "skipped_existing": n_skipped,
        "rows_in": n_in, "exact_dups_dropped": n_exact,
        "near_dup_pairs": int(sum(len(p) for p in nd_pairs)),
        "quota_rejected": n_quota, "rows_out": n_out,
        "sec": round(time.perf_counter() - t0, 3),
    }
    if args.min_new_frac is not None:
        metrics.update({"stale_dropped": n_stale, "new_chars": new_chars,
                        "dup_chars": dup_chars})
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
