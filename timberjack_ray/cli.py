"""CLI mirroring the reference ``timber`` flags (/root/reference/src/cli.rs:7-59),
re-targeted at Parquet sequence tables.

    python -m timberjack_ray.cli INPUT.parquet [--chop P] [--level L] [--trend]
        [--stats] [--json] [--top-errors N] [--show-unique] [--count]
        [--format auto|json|generic] [-f k=v ...] [--route-dir DIR]

Owns its Ray session (scripts/CLI only — library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="timber-ray", description="Timberjack-on-Ray: fell your logs fast")
    p.add_argument("input", help="Parquet file/glob/dir of pre-tokenized sequences, "
                                 "a raw text log file/glob (.log/.txt/anything "
                                 "non-parquet — the reference's primary input), "
                                 "or '-' to stream text lines from stdin "
                                 "(the reference's `cat log | timber` path)")
    p.add_argument("-c", "--chop", default=None, help="pattern to search for")
    p.add_argument("-l", "--level", default=None, help="filter by log level")
    p.add_argument("--trend", action="store_true", help="show time-based trends")
    p.add_argument("--stats", action="store_true", help="show summary statistics")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--top-errors", type=int, default=5)
    p.add_argument("--show-unique", action="store_true")
    p.add_argument("--count", action="store_true", help="fast count-only mode")
    p.add_argument("--first-seen", action="store_true",
                   help="order matched lines by first global occurrence "
                        "(the reference's sequential display order; needs a "
                        "doc_id-style numeric row suffix in the input)")
    p.add_argument("--format", default="auto", choices=["auto", "json", "generic", "apache", "syslog"])
    p.add_argument("-f", "--field", action="append", default=[], help="field=value filter (repeatable)")
    p.add_argument("--route-dir", default=None, help="fan rows out to per-level Parquet sinks here")
    p.add_argument("--ingest-out", default=None, metavar="DIR",
                   help="convert raw text logs to the pre-tokenized "
                        "sequences table under DIR (one parquet per input "
                        "file; resume unit = file) and exit")
    p.add_argument("--compact", action="store_true",
                   help="compact sink files after routing (terminal step)")
    p.add_argument("--wave-files", type=int, default=None,
                   help="process input in resumable waves of N files")
    p.add_argument("--num-partitions", type=int, default=64)
    p.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    return p


def resolve_paths(spec: str) -> list[str]:
    if os.path.isdir(spec):
        hits = sorted(glob.glob(os.path.join(spec, "*.parquet")))
        # a directory of raw logs (no parquet): take every regular file
        return hits or sorted(
            p for p in glob.glob(os.path.join(spec, "*")) if os.path.isfile(p)
        )
    hits = sorted(glob.glob(spec))
    if not hits:
        raise FileNotFoundError(spec)
    return hits


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.num_cpus,
            include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR",
        )
    from timberjack_ray.rayctx import tune_for_cluster

    tune_for_cluster()

    from timberjack_ray import AnalyzeConfig, render_text
    from timberjack_ray.pipelines.analyze import analyze_parquet, analyze_text

    cfg = AnalyzeConfig(
        fmt=args.format, pattern=args.chop, level=args.level, fields=args.field,
        trend=args.trend, stats=args.stats, top_errors=args.top_errors,
        show_unique=args.show_unique, count=args.count,
        first_seen=args.first_seen,
    )

    if args.ingest_out and args.input == "-":
        print("error: --ingest-out needs file inputs (stdin is the "
              "bounded-streaming analysis path)", file=sys.stderr)
        ray.shutdown()
        return 2

    if args.input == "-":
        # stdin path: bounded streaming over text lines, no Ray needed
        # (src/main.rs:218-297)
        from timberjack_ray.stream import analyze_stream

        report = analyze_stream((ln.rstrip("\n") for ln in sys.stdin), cfg)
        if args.count:
            print(report["total_count"])
        elif args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_text(report))
        ray.shutdown()
        return 0

    paths = resolve_paths(args.input)

    if args.ingest_out:
        if any(p.endswith(".parquet") for p in paths):
            print("error: --ingest-out converts RAW text logs; these "
                  "inputs are already parquet sequence tables",
                  file=sys.stderr)
            ray.shutdown()
            return 2
        from timberjack_ray.pipelines.ingest import ingest_text

        stats = ingest_text(paths, args.ingest_out)
        print(json.dumps(stats))
        ray.shutdown()
        return 0

    if not args.json and not args.count:
        print(f"\nWaking LumberJacks...Timberjack is chopping: {args.input}\n")

    if all(p.endswith(".parquet") for p in paths):
        out = analyze_parquet(
            paths, cfg, out_dir=args.route_dir, num_partitions=args.num_partitions,
            wave_files=args.wave_files,
        )
    else:
        # raw text log files — the reference's own input shape
        out = analyze_text(
            paths, cfg, out_dir=args.route_dir, num_partitions=args.num_partitions,
        )
    if args.compact and args.route_dir:
        from timberjack_ray.stages.route import compact_routed

        compact_routed(args.route_dir)

    if args.count:
        print(out.report["total_count"])
    elif args.json:
        print(json.dumps(out.report, indent=2))
    else:
        if cfg.fmt == "auto":
            print(f"Detected format: {out.fmt.capitalize()}")
        print(render_text(out.report))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
