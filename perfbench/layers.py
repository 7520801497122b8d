"""In-process layer pass of the traced run.

Calls each layer's public callable on the workload's input batches, in
pipeline order, outside Ray.  The routed pipeline (``routed_mixed``) is

    read → stages.route.assign → stages.parse (vocab/kernels inside)
         → stages.enrich → stages.route.write → aggregates.partial
         → aggregates.merge → stages.route.finalize → report

and the aggregate-only one (``agg_generic``, ``json_filter``) is what
``analyze_parquet`` runs without ``out_dir``: a column-pruned read, parse
without tokens, partial counts, merge and report.  ``pipeline_layers``
names the layers a workload's own pipeline runs; their sum is compared with
its Ray wall time.  The routed-only layers of an aggregate-only workload come
from a separate routed pass over the same input, so every layer metric
exists in every traced run.
"""

from __future__ import annotations

import glob
import os
import shutil
from contextlib import contextmanager

from perfbench import workloads as W

# spans inside stages.parse: span name → (owner, attribute) it wraps
INNER_SPANS = {
    "vocab.detokenize": [("vocab", "detokenize")],
    # the whole JSON parse, with the field-filter mask it computes inline
    "stages.parse.json": [("ParseStage", "_parse_json_any")],
    "kernels.extract_level": [("kernels", "extract_level")],
    "kernels.timestamp": [("kernels", "extract_timestamp_raw"),
                          ("kernels", "hour_bucket")],
    "kernels.message_key": [("kernels", "message_key")],
    "kernels.extract_error_type": [("kernels", "extract_error_type")],
    "kernels.filter_mask": [("kernels", "fallback_filter_mask"),
                            ("kernels", "level_mask"),
                            ("kernels", "pattern_mask")],
}

ROUTED_LAYERS = ["read", "stages.route.assign", "stages.parse",
                 "stages.enrich", "stages.route.write", "aggregates.partial",
                 "aggregates.merge", "stages.route.finalize", "report"]
AGG_LAYERS = ["read", "stages.parse", "aggregates.partial",
              "aggregates.merge", "report"]
# metrics only the routed pipeline has
ROUTED_ONLY = ["stages.route.assign.s", "stages.enrich.s",
               "stages.route.write.s", "stages.route.files",
               "stages.route.mb_written", "stages.route.finalize.s"]


def pipeline_layers(workload: str) -> list[str]:
    return ROUTED_LAYERS if W.WORKLOADS[workload].get("routed") \
        else AGG_LAYERS


@contextmanager
def inner_spans(tr):
    """Wrap the callables of ``INNER_SPANS`` in spans while the block runs
    (the parse stage looks them up as attributes at call time)."""
    from timberjack_ray import kernels, vocab
    from timberjack_ray.stages.parse import ParseStage

    owners = {"kernels": kernels, "vocab": vocab, "ParseStage": ParseStage}
    saved = []
    for span_name, targets in INNER_SPANS.items():
        for owner, attr in targets:
            fn = getattr(owners[owner], attr)
            saved.append((owners[owner], attr, fn))
            setattr(owners[owner], attr, tr.wrap(span_name, fn))
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


class _Partials:
    """The one Dataset method merge_partials uses, over in-memory tables."""

    def __init__(self, tables):
        self.tables = tables

    def iter_batches(self, batch_size=None, batch_format="pyarrow"):
        return iter(self.tables)


def analyze_pass(tr, paths: list[str], cfg, routed: bool, out_dir: str):
    """One traced pass over ``paths``, routed or aggregate-only; → (root
    span id, report, route counts).  Route counts are the per-level rows
    WriteAndCount wrote (None without routing)."""
    import pyarrow.parquet as pq

    from timberjack_ray import aggregates as agg
    from timberjack_ray.data import synth
    from timberjack_ray.pipelines.analyze import (
        _agg_read_columns, _counts_to_pandas, _merge_counts)
    from timberjack_ray.report import assemble_report
    from timberjack_ray.stages.enrich import EnrichStage
    from timberjack_ray.stages.parse import ParseStage
    from timberjack_ray.stages.route import (
        PID_COL, AssignPartition, WriteAndCount, build_salt_map,
        finalize_wave, source_shares)

    shutil.rmtree(out_dir, ignore_errors=True)
    tmp_dir = os.path.join(out_dir, "_tmp", "w000")
    fmt = cfg.resolve_format([])
    hash_msgs = not cfg.show_unique
    sinks = []
    with tr.span("layers", routed=routed) as root:
        with tr.span("read") as sp:
            columns = None if routed else _agg_read_columns(paths, cfg)
            batches = [pq.read_table(p, columns=columns) for p in paths]
            sp["attrs"]["mb"] = sum(os.path.getsize(p) for p in paths) / 2**20
        extra = ["source"] if "source" in batches[0].column_names else []
        if routed:
            with tr.span("stages.route.assign"):
                salt = build_salt_map(source_shares(paths),
                                      W.NUM_PARTITIONS, 0.05)
                assign = AssignPartition(W.NUM_PARTITIONS, salt)
                batches = [assign(b) for b in batches]
        with tr.span("stages.parse") as sp, inner_spans(tr):
            parse = ParseStage(cfg=cfg, fmt=fmt, keep_tokens=routed)
            sp["attrs"]["rows_in"] = sum(b.num_rows for b in batches)
            batches = [parse(b) for b in batches]
            sp["attrs"]["rows_out"] = sum(b.num_rows for b in batches)
        if routed:
            extra = ["severity", "service"] + extra
            with tr.span("stages.enrich"):
                enrich = EnrichStage(lookup_ref=synth.source_lookup_dict())
                batches = [enrich(b) for b in batches]
            with tr.span("stages.route.write") as sp:
                write = WriteAndCount(tmp_dir, counter=None)
                sinks = [write(b) for b in batches]
                files = glob.glob(os.path.join(tmp_dir, "*.parquet"))
                sp["attrs"]["files"] = len(files)
                sp["attrs"]["mb_written"] = sum(
                    os.path.getsize(f) for f in files) / 2**20
            batches = [b.drop_columns([PID_COL]) for b in batches]
        with tr.span("aggregates.partial") as sp:
            counter = agg.PartialCounts(
                want_trend=cfg.trend, want_stats=cfg.stats,
                want_lines=cfg.collect_lines, extra_cols=extra,
                hash_msgs=hash_msgs)
            partials = [counter(b) for b in batches]
            sp["attrs"]["rows_out"] = sum(p.num_rows for p in partials)
        with tr.span("aggregates.merge") as sp:
            guard = ((agg.KIND_MSG_HASH, agg.MSG_GUARD_LIMIT)
                     if cfg.stats and hash_msgs else None)
            merged = agg.merge_partials(_Partials(partials + sinks),
                                        ["kind", "key"], "n", guard=guard)
            sp["attrs"]["keys"] = merged.num_rows
        if routed:
            with tr.span("stages.route.finalize"):
                finalize_wave(out_dir, 0, tmp_dir, merged, input_files=paths)
        with tr.span("report"):
            counts, unique, approx = _merge_counts([merged], cfg)
            counts = _counts_to_pandas(counts)
            report = assemble_report(counts, cfg, unique_count=unique,
                                     unique_approx=approx)
    shutil.rmtree(out_dir, ignore_errors=True)
    if not routed:
        return root["id"], report, None
    sink = counts[counts["kind"] == "sink"]
    return root["id"], report, dict(zip(sink["key"], sink["n"]))


def layer_metrics(tr, root: int) -> dict[str, float]:
    """Per-layer values of one pass (span durations and counts); the layers
    the pass did not run are 0."""
    by_name = {s["name"]: s for s in tr.spans if s["parent"] == root}
    out = {f"{n}.s": tr.durations(n, root) for n in ROUTED_LAYERS}
    for name in INNER_SPANS:
        out[f"{name}.s"] = tr.durations(name, root)
    out["stages.parse.self.s"] = tr.self_time("stages.parse", root)
    out["stages.route.files"] = out["stages.route.mb_written"] = 0
    for layer in ("read", "stages.parse", "stages.route.write",
                  "aggregates.partial", "aggregates.merge"):
        for k, v in by_name.get(layer, {"attrs": {}})["attrs"].items():
            out[f"{layer}.{k}"] = v
    if "stages.route.write.files" in out:
        out["stages.route.files"] = out.pop("stages.route.write.files")
        out["stages.route.mb_written"] = out.pop(
            "stages.route.write.mb_written")
    out["aggregates.partial.ratio"] = (out["aggregates.partial.rows_out"]
                                       / max(out["stages.parse.rows_out"], 1))
    return out
