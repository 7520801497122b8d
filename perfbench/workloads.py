"""Workload, input and metric definitions of the benchmark.

Every run uses a Ray session with ``num_cpus`` = the CPUs this process may
run on (``nproc``).  One client issues one operation at a time (a closed
loop).  Inputs are generated from ``--seed`` by ``perfbench.gen``; the seed
moves the generator's row range, so two seeds give equally shaped, distinct
inputs.
"""

from __future__ import annotations

import os
import shutil
import subprocess

# bump when generated inputs or oracles change shape (invalidates the cache)
GEN_VERSION = 6

# rows of seed n start at n * SEED_STRIDE (synth rows are a pure function of
# their index, so the offset is the whole seed dependence)
SEED_STRIDE = 10_000_000

NUM_PARTITIONS = 64  # routed_mixed; the flagship's partition count at 1-16 CPUs


def nproc() -> int:
    """What ``nproc`` prints: it honours OMP_NUM_THREADS/OMP_THREAD_LIMIT
    before the CPU affinity mask."""
    if shutil.which("nproc"):
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    return len(os.sched_getaffinity(0))


# sequences inputs (data.synth.make_batch); ``files`` parquet files each
SEQ_INPUTS = {
    "mixed": {"rows": 30_000, "json_frac": 0.3, "files": 4},
    "generic": {"rows": 60_000, "json_frac": 0.0, "files": 4},
    "json": {"rows": 30_000, "json_frac": 1.0, "files": 4},
}

# unchecked runs of the operation that warm a session, by workload kind.  The
# first run of a session starts the workers and imports every module there.
# The second run of an analyze operation still spends ~0.6 s in the driver
# before its execution starts, and the third does not (agg_generic over
# 100 000 rows at 1 CPU: 2.4 s, 1.3 s, then 0.4-0.6 s).  An entry
# operation's second run is ~9 % slower than its third; a second warm-up
# run would cost ~5 s per run.
WARM_RUNS = {"analyze": 2, "entry": 1}

# entry_exchange tables (perfbench.gen.make_tables) at a TPC-H scale
# factor, in the shape of the sf0.1 test tables
TABLE_INPUTS = {"tables": {"sf": 0.005}}

# __ray_entry__ queries of one entry_exchange operation, in order
ENTRY_QUERIES = ["dedup_exact_docs", "revenue_by_priority",
                 "remove_dup_spans", "session_path_top20"]

# run once after the measured loop under STALL_PROBE_TIMEOUT_S: at
# num_cpus=1 the query stalls (bigram_lm_scores asks for a 2-actor pool,
# functions/text.py), so it is recorded as a known failure instead of
# stalling the measured loop.  A stall that is fixed shows up as a probe
# that passes its oracle.
STALL_PROBES = ["curation_pipeline_v2"]
STALL_PROBE_TIMEOUT_S = 6.0

ANALYZE_CFG = {"trend": True, "stats": True, "collect_lines": False,
               "top_errors": 1000}

WORKLOADS = {
    "routed_mixed": {
        "kind": "analyze", "input": "mixed", "routed": True,
        "cfg": dict(ANALYZE_CFG, fmt="json"),
        "why": "flagship: analyze_parquet with out_dir + lookup over 30 % "
               "JSON rows; the only workload running enrich, "
               "AssignPartition, WriteAndCount and finalize_wave",
    },
    "agg_generic": {
        "kind": "analyze", "input": "generic", "routed": False,
        "cfg": dict(ANALYZE_CFG, fmt="generic"),
        "why": "aggregate-only over generic rows: detokenize, the regex "
               "kernels and partial/merge counts, with no enrich, route or "
               "JSON parse",
    },
    "json_filter": {
        "kind": "analyze", "input": "json", "routed": False,
        "cfg": dict(ANALYZE_CFG, fmt="json", fields=["level=ERROR"]),
        "why": "pure-JSON rows with -f level=ERROR (the reference's "
               "headline); JSON parse and field mask dominate, ~2/3 of rows "
               "dropped before aggregation",
    },
    "entry_exchange": {
        "kind": "entry", "input": "tables",
        "why": "hash-checked __ray_entry__ queries over the bucket "
               "exchange, GRACE join and driver folds",
    },
}

# The formats are pinned: auto-detection samples the first 10 lines, which
# at 30 % JSON flips between generic and json with the seed.

# layer metric -> (end-to-end metric, workloads) it should move
LAYER_MAP = {
    "stages.route.assign.s": ("wall_s", ["routed_mixed"]),
    "stages.route.write.s": ("wall_s", ["routed_mixed"]),
    "stages.route.files": ("wall_s", ["routed_mixed"]),
    "stages.route.mb_written": ("wall_s", ["routed_mixed"]),
    "stages.route.finalize.s": ("wall_s", ["routed_mixed"]),
    "stages.enrich.s": ("wall_s", ["routed_mixed"]),
    "stages.parse.s": ("rows_per_s", ["agg_generic", "json_filter",
                                      "routed_mixed"]),
    "stages.parse.rows_in": ("rows_per_s", ["agg_generic", "json_filter",
                                            "routed_mixed"]),
    "stages.parse.rows_out": ("rows_per_s", ["agg_generic", "json_filter",
                                             "routed_mixed"]),
    # parse glue: parse time outside the spans below
    "stages.parse.self.s": ("rows_per_s", ["agg_generic", "json_filter",
                                           "routed_mixed"]),
    # the JSON parse with the field-filter mask it computes inline
    "stages.parse.json.s": ("rows_per_s", ["json_filter", "routed_mixed"]),
    "vocab.detokenize.s": ("rows_per_s", ["agg_generic", "json_filter",
                                          "routed_mixed"]),
    "kernels.extract_level.s": ("rows_per_s", ["agg_generic",
                                               "routed_mixed"]),
    "kernels.timestamp.s": ("rows_per_s", ["agg_generic", "routed_mixed"]),
    "kernels.message_key.s": ("rows_per_s", ["agg_generic",
                                             "routed_mixed"]),
    "kernels.extract_error_type.s": ("rows_per_s", ["agg_generic",
                                                    "routed_mixed"]),
    # the kernel masks; no workload sets a level or pattern filter, and
    # json_filter's field mask is inline in stages.parse.json
    "kernels.filter_mask.s": ("rows_per_s", []),
    "aggregates.partial.s": ("wall_s", ["agg_generic", "routed_mixed"]),
    "aggregates.partial.rows_out": ("wall_s", ["agg_generic",
                                               "routed_mixed"]),
    "aggregates.partial.ratio": ("wall_s", ["agg_generic", "routed_mixed"]),
    "aggregates.merge.s": ("driver_peak_rss_mb", ["agg_generic"]),
    "aggregates.merge.keys": ("driver_peak_rss_mb", ["agg_generic"]),
    "report.s": ("wall_s", ["routed_mixed", "agg_generic", "json_filter"]),
    "read.s": ("wall_s", ["routed_mixed", "agg_generic", "json_filter"]),
    "read.mb": ("wall_s", ["routed_mixed", "agg_generic", "json_filter"]),
    "layers.sum.s": ("wall_s", ["routed_mixed", "agg_generic",
                                "json_filter"]),
    "op.wall.s": ("wall_s", ["routed_mixed", "agg_generic", "json_filter",
                             "entry_exchange"]),
    "op.traced_wall.s": ("wall_s", ["routed_mixed", "agg_generic",
                                    "json_filter", "entry_exchange"]),
    "pipeline.overhead.s": ("wall_s", ["json_filter", "agg_generic",
                                       "routed_mixed"]),
    **{f"entry.{q}.{m}": ("wall_s", ["entry_exchange"])
       for q in ENTRY_QUERIES for m in ("s", "rows")},
    "ray.object_store_peak_mb": ("driver_peak_rss_mb", ["routed_mixed",
                                                        "entry_exchange"]),
    "trace.overhead_s": ("wall_s", ["routed_mixed", "agg_generic",
                                    "json_filter", "entry_exchange"]),
}

LAYER_UNITS = {"files": "count", "rows_in": "count", "rows_out": "count",
               "rows": "count", "keys": "count", "ratio": "ratio",
               "mb": "MB", "mb_written": "MB", "object_store_peak_mb": "MB"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "1/s",
    "driver_peak_rss_mb": "MB",
    "setup_s": "s",
}
