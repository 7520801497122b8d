"""Cluster entry point for the flagship pipeline — the `ray job submit` path:

    ray job submit --working-dir /path/to/repo -- \
        python jobs/flagship_job.py --input 's3://bucket/seqs/*.parquet' \
        --out-dir s3://bucket/routed --num-partitions 4096 --wave-files 256

On a cluster the Job Runner sets RAY_ADDRESS and this script connects to the
existing session (ray.init() with no args); standalone it starts a local one.
Output: ONE JSON line of metrics (rows, wall sec, seq/s, partitions written,
skipped-on-resume counts) — machine-parseable for job orchestration.  Re-run
with the same --out-dir to resume: finished waves are skipped via their
lineage manifests (config fingerprint + input list validated).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="timberjack_ray flagship job")
    ap.add_argument("--input", required=True, help="parquet path/glob of pre-tokenized sequences")
    ap.add_argument("--out-dir", default=None, help="routed sink root (omit for aggregate-only)")
    ap.add_argument("--num-partitions", type=int, default=None)
    ap.add_argument("--wave-files", type=int, default=None, help="files per resumable wave")
    ap.add_argument("--no-trend", action="store_true")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init()  # cluster: RAY_ADDRESS from the job runner; local: new session

    from timberjack_ray import AnalyzeConfig
    from timberjack_ray.data import synth
    from timberjack_ray.pipelines.analyze import analyze_parquet

    paths = sorted(glob.glob(args.input)) or [args.input]
    cfg = AnalyzeConfig(stats=True, trend=not args.no_trend, collect_lines=False)
    kwargs = {}
    if args.out_dir:
        kwargs["out_dir"] = args.out_dir
        kwargs["lookup"] = synth.source_lookup_dict()
    if args.num_partitions:
        kwargs["num_partitions"] = args.num_partitions
    if args.wave_files:
        kwargs["wave_files"] = args.wave_files

    t0 = time.perf_counter()
    res = analyze_parquet(paths, cfg, **kwargs)
    wall = time.perf_counter() - t0
    total = int(res.report.get("total_count", 0))
    print(json.dumps({
        "rows": total,
        "wall_sec": round(wall, 3),
        "rows_per_sec": round(total / wall, 1) if wall else None,
        "levels": {d["level"]: d["count"]
                   for d in res.report.get("stats", {}).get("log_levels", [])},
        "skipped_waves": res.skipped_waves,
        "out_dir": args.out_dir,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
