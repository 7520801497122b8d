"""Flagship pipeline: read → parse → enrich → route → aggregate.

The Ray-Data-native equivalent of the reference's whole CLI lifecycle
(src/main.rs:21-213), laid out per SURVEY.md §3.4.  With ``out_dir`` the
physical plan is ONE streaming pass per wave:

    read_parquet(wave files)                      # streaming blocks
      → map_batches(AssignPartition)              # pid = hash(source)+salt
      → map_batches(ParseStage)                   # detok + parse + filters (vectorized)
      → map_batches(EnrichStage)                  # broadcast source lookup (per-worker cache)
      → map_batches(WriteAndCount)                # per-(pid, level) sink files
                                                  #   + partial aggregate counts, fused
      → merge_partials                            # streamed driver fold of the partials
    finalize wave (rename, per-pid lineage, wave manifest)  # driver-side

Routing data never crosses an all-to-all exchange — only the tiny (kind,
key, n) partials reach the driver.  A run without ``wave_files`` is one
wave of every input file.  Completed waves are skipped on rerun using their
stored counts (recomputed from the routed files if a rerun needs aggregate
kinds the stored counts lack).

Never calls ray.init()/shutdown() — session ownership stays with the caller
(driver contract in /root/repo/__ray_entry__.py).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pandas as pd
import pyarrow.compute as pc

from timberjack_ray import aggregates as agg
from timberjack_ray import vocab
from timberjack_ray.aggregates import PartialCounts, report_counts
from timberjack_ray.config import AnalyzeConfig
from timberjack_ray.report import assemble_report
from timberjack_ray.stages.enrich import enrich
from timberjack_ray.stages.parse import CountStage, ParseStage
from timberjack_ray.stages.route import (
    AssignPartition,
    WriteAndCount,
    build_salt_map,
    cleanup_incomplete_wave,
    completed_waves,
    finalize_wave,
    lineage_metrics,
    read_routed,
    run_fingerprint,
    source_shares,
    validate_stored_wave,
    wave_counts,
)

EMPTY_COUNTS = {"kind": [], "key": [], "n": []}


@dataclass
class AnalyzeOutput:
    report: dict
    counts: pd.DataFrame            # (kind, key, n) totals incl. sink metrics
    fmt: str
    route_metrics: pd.DataFrame | None = None
    skipped_waves: int = 0


def sample_decoded_lines(ds, k: int = 10) -> list[str]:
    """Driver-side head sample for format detection (src/main.rs:52-89
    samples the first ≤10 non-empty lines of the file)."""
    rows = ds.limit(k).take(k)
    out = []
    for r in rows:
        if "line" in r:
            out.append(r["line"])
        elif "text" in r:
            out.append(r["text"])
        elif "tokens" in r:
            out.append(vocab.decode(r["tokens"]))
    return out


def sample_text_lines(paths, k: int = 10, max_bytes: int = 4096) -> list[str]:
    """Head sample of a raw text log for format detection — the reference
    reads ≤4 KB of the file head (src/main.rs:52-89)."""
    first = paths[0] if not isinstance(paths, str) else paths
    if first.endswith(".gz"):
        import gzip

        with gzip.open(first, "rb") as f:
            head = f.read(max_bytes)
    else:
        with open(first, "rb") as f:
            head = f.read(max_bytes)
    lines = head.decode("utf-8", errors="replace").splitlines()
    if len(lines) > 1 and len(head) == max_bytes:
        lines = lines[:-1]  # last line may be truncated mid-way
    return [ln for ln in lines if ln.strip()][:k]


def sample_lines_from_paths(paths, k: int = 10) -> list[str]:
    """Head sample straight from the first NON-EMPTY Parquet file with
    pyarrow — the reference reads ≤4 KB of the file head
    (src/main.rs:52-89); launching a whole Dataset execution for 10 rows
    would cost seconds of fixed overhead at any scale, so this stays a
    bounded driver-side read.  Zero-row leading files (an ingested empty
    log, an empty routed shard) are skipped instead of crashing the
    format probe."""
    import pyarrow.parquet as pq

    candidates = [paths] if isinstance(paths, str) else list(paths)
    for path in candidates:
        pf = pq.ParquetFile(path)
        names = set(pf.schema_arrow.names)
        col = next((c for c in ("line", "text", "tokens") if c in names),
                   None)
        if col is None:
            return []
        head = next(pf.iter_batches(batch_size=k, columns=[col]), None)
        if head is None or head.num_rows == 0:
            continue
        if col == "tokens":
            return [vocab.decode(t) for t in head[col].to_pylist()[:k]]
        return head[col].to_pylist()[:k]
    return []


def _needed_kinds(cfg: AnalyzeConfig, extra_cols: list[str]) -> set[str]:
    kinds = {"total"}
    if cfg.stats:
        kinds |= {"level", "error", "msg" if cfg.show_unique else "msg#"}
    if cfg.trend:
        kinds.add("trend")
    if cfg.collect_lines:
        kinds.add("line")
        if cfg.first_seen:
            kinds.add("line@")
    kinds |= {f"col:{c}" for c in extra_cols}
    return kinds


def _counts_satisfy(stored_kinds: set[str], needed: set[str]) -> bool:
    """Stored real message keys ("msg") also satisfy a hashed-count need
    ("msg#") — the count is derivable; the reverse is not true.  A stored
    sketch ("msg~", a guard-degraded wave) satisfies "msg#" too: the count
    is then approximate, surfaced via unique_approx."""
    for k in needed:
        if k in stored_kinds:
            continue
        if k == "msg#" and ("msg" in stored_kinds or "msg~" in stored_kinds):
            continue
        return False
    return True


def _normalize_msg_family(tbl, want_hash: bool):
    """Stored wave counts may carry real message keys ("msg", written by a
    --show-unique run) while the current run merges hashed keys ("msg#") —
    mixing the two families across waves would double-count distinct
    messages.  Re-hash the stored keys so every frame merges in the same
    key space (hashing is deterministic, so cross-wave dedup stays exact)."""
    import pyarrow as pa

    if not want_hash:
        return tbl
    is_msg = pc.equal(tbl["kind"], "msg")
    n_msg = int(pc.sum(pc.cast(is_msg, "int64")).as_py() or 0)
    if n_msg == 0:
        return tbl
    from timberjack_ray.aggregates import _hash_keys

    msg_rows = tbl.filter(is_msg)
    rest = tbl.filter(pc.invert(is_msg))
    hashed = pa.table({
        "kind": pa.array(["msg#"] * n_msg, pa.string()),
        "key": pa.array(_hash_keys(msg_rows["key"].to_pylist()), pa.string()),
        "n": msg_rows["n"],
    })
    return pa.concat_tables([rest.select(["kind", "key", "n"]), hashed])


def _as_table(frame) -> "pa.Table":
    import pyarrow as pa

    if isinstance(frame, pd.DataFrame):
        return pa.Table.from_pandas(frame, preserve_index=False)
    return frame


def _merge_counts(frames: list, cfg: AnalyzeConfig | None = None):
    """Merge per-wave (kind, key, n) tables.  Stays in Arrow: the ``msg``
    family carries every distinct message key (millions of rows at bench
    scale), and a pandas object-dtype pass over it costs seconds where the
    Arrow C kernel costs ~0.1 s.

    → (counts_df, unique_count|None, unique_approx).  When ``cfg`` wants
    stats without --show-unique, the ``msg#`` hash family — which only feeds
    the distinct COUNT — is counted and stripped IN ARROW before the pandas
    conversion, so report assembly and AnalyzeOutput.counts stay small.

    ``msg~`` sketch rows (a fold that auto-degraded past
    ``aggregates.MSG_GUARD_LIMIT``) are register arrays: they max-merge with
    each other and absorb any exact msg#/msg keys from non-degraded waves
    (same pd.util.hash_array space), and the distinct count becomes the HLL
    estimate with ``unique_approx=True``."""
    import pyarrow as pa

    frames = [_as_table(f) for f in frames if f is not None and len(f)]
    if not frames:
        return pd.DataFrame(EMPTY_COUNTS), None, False
    if len(frames) == 1:
        tbl = frames[0]  # already key-merged per wave
    else:
        cat = pa.concat_tables(f.select(["kind", "key", "n"]) for f in frames)
        g = cat.group_by(["kind", "key"]).aggregate([("n", "sum")])
        tbl = agg._remerge_min_kinds(cat, g.rename_columns(["kind", "key", "n"]),
                                     ["kind", "key"], "n")
    unique = None
    approx = False
    is_sketch = pc.equal(tbl["kind"], agg.KIND_MSG_SKETCH)
    if pc.any(is_sketch).as_py():
        import base64

        import numpy as np

        from timberjack_ray.functions.sketch import HyperLogLog

        hll = HyperLogLog(p=14)
        for reg_b64 in tbl.filter(is_sketch)["key"].to_pylist():
            hll.merge_registers(np.frombuffer(base64.b64decode(reg_b64), dtype=np.uint8))
        is_hash = pc.equal(tbl["kind"], agg.KIND_MSG_HASH)
        hash_keys = tbl.filter(is_hash)["key"].to_pylist()
        if hash_keys:
            hll.add_hashed(agg._hex_to_u64(hash_keys))
        is_msg = pc.equal(tbl["kind"], agg.KIND_MSG)
        msg_keys = tbl.filter(is_msg)["key"].to_pylist()
        if msg_keys:
            hll.add_strings(msg_keys)
        unique = int(round(hll.estimate()))
        approx = True
        tbl = tbl.filter(pc.invert(pc.or_(pc.or_(is_sketch, is_hash), is_msg)))
    elif cfg is not None and cfg.stats and not cfg.show_unique:
        is_hash = pc.equal(tbl["kind"], agg.KIND_MSG_HASH)
        n_hash = int(pc.sum(pc.cast(is_hash, "int64")).as_py() or 0)
        if n_hash:
            unique = n_hash
            tbl = tbl.filter(pc.invert(is_hash))
    return tbl.to_pandas(), unique, approx


def _counts_to_pandas(counts) -> pd.DataFrame:
    df = counts if isinstance(counts, pd.DataFrame) else counts.to_pandas()
    if df.empty or "kind" not in df.columns:
        return pd.DataFrame(EMPTY_COUNTS)
    return df


def _transform(ds, cfg: AnalyzeConfig, fmt: str, lookup, assign=None):
    """Parse (+ enrich) ``ds``; a routed run first appends the partition id
    (``assign``) and keeps the token payload for the sinks."""
    if assign is not None:
        ds = ds.map_batches(assign, batch_format="pyarrow")
    parsed = ds.map_batches(
        ParseStage(cfg=cfg, fmt=fmt, keep_tokens=assign is not None),
        batch_format="pyarrow",
    )
    if lookup is not None:
        parsed = enrich(parsed, lookup)
    return parsed


def analyze_dataset(
    ds,
    cfg: AnalyzeConfig,
    out_dir: str | None = None,
    lookup: dict | None = None,
    num_partitions: int = 64,
    input_paths=None,
    fmt: str | None = None,
) -> AnalyzeOutput:
    """Run the analysis DAG over a sequences Dataset; with ``out_dir`` it
    is routed as one wave.  ``input_paths`` (the Parquet files ``ds`` was
    read from) feed the format probe and the skew pre-pass, and the wave
    manifest records them so a resume over other inputs raises.  Callers
    without a path list (``analyze_text``, in-memory Datasets) resume
    without that input check — only the filter/format/partition
    fingerprint is compared."""
    return _analyze([(ds, input_paths)], cfg, out_dir, lookup, num_partitions, fmt)


def _analyze(waves, cfg: AnalyzeConfig, out_dir, lookup, num_partitions,
             fmt=None) -> AnalyzeOutput:
    """The one analysis path.  ``waves`` is ``[(Dataset, input paths or
    None)]``: a single entry unless ``out_dir`` routes several waves."""
    ds = waves[0][0]
    paths = [p for _, wpaths in waves for p in wpaths or ()] or None
    if fmt is None:
        if cfg.fmt != "auto":
            fmt = cfg.resolve_format([])
        elif paths:
            fmt = cfg.resolve_format(sample_lines_from_paths(paths))
        else:
            fmt = cfg.resolve_format(sample_decoded_lines(ds))

    if cfg.count:
        partials = ds.map_batches(CountStage(cfg.pattern, cfg.level), batch_format="pyarrow")
        n = int(partials.sum("n") or 0)
        counts = pd.DataFrame({"kind": ["total"], "key": [""], "n": [n]})
        report = {"matched_lines": [], "total_count": n, "time_trends": None,
                  "stats": None, "deduplicated": True}
        return AnalyzeOutput(report=report, counts=counts, fmt=fmt)

    extra_cols: list[str] = []
    if lookup is not None:
        extra_cols = ["severity", "service"]
    schema = ds.schema()  # None for a zero-row text read
    if schema is not None and "source" in schema.names:
        extra_cols.append("source")

    if out_dir is None:
        parsed = _transform(ds, cfg, fmt, lookup)
        tbl = report_counts(
            parsed, want_trend=cfg.trend, want_stats=cfg.stats,
            want_lines=cfg.collect_lines, extra_cols=extra_cols,
            hash_msgs=not cfg.show_unique,
            order_from=("doc_id" if cfg.first_seen else None), as_table=True,
        )
        counts, unique, uapprox = _merge_counts([tbl], cfg)
        counts = _counts_to_pandas(counts)
        return AnalyzeOutput(report=assemble_report(counts, cfg, unique_count=unique,
                                                    unique_approx=uapprox),
                             counts=counts, fmt=fmt)

    salt_map = (build_salt_map(source_shares(paths), num_partitions)
                if paths else None)
    counts, unique, uapprox, skipped = _run_waves(waves, cfg, fmt, out_dir, lookup,
                                                  num_partitions, salt_map, extra_cols)
    return AnalyzeOutput(
        report=assemble_report(counts, cfg, unique_count=unique, unique_approx=uapprox),
        counts=counts,
        fmt=fmt, route_metrics=lineage_metrics(out_dir), skipped_waves=skipped,
    )


def analyze_text(
    paths,
    cfg: AnalyzeConfig,
    out_dir: str | None = None,
    **kwargs,
) -> AnalyzeOutput:
    """Run over raw text log files (the reference's primary input,
    src/main.rs:368-413 mmap + chunked scan) — ``ray.data.read_text`` →
    the same ParseStage/aggregate DAG as the tokenized path; ParseStage
    already consumes a ``text`` column.  Format detection samples the first
    ≤4 KB of the first file driver-side, mirroring src/main.rs:52-89.

    Scale notes: read_text fans out one task per file (a 100 TB corpus is
    many files); routing falls back to a content-hash partition id since raw
    logs carry no source column, and sinks persist the line column (there is
    no token payload to re-derive it from)."""
    import ray.data as rd

    paths = [paths] if isinstance(paths, str) else list(paths)
    fmt = (cfg.resolve_format(sample_text_lines(paths))
           if cfg.fmt == "auto" else cfg.resolve_format([]))
    # gzip-compressed logs stream-decompress inside each read task (the
    # standard rotated-log shape); .gz is not splittable, so parallelism =
    # file count — fine at scale where the corpus is many rotated files
    if any(p.endswith(".gz") for p in paths):
        ds = rd.read_text(paths,
                          arrow_open_stream_args={"compression": "gzip"})
    else:
        ds = rd.read_text(paths)
    return analyze_dataset(ds, cfg, out_dir=out_dir, input_paths=None, fmt=fmt, **kwargs)


def _agg_read_columns(paths, cfg: AnalyzeConfig) -> list[str] | None:
    """Column pruning for the aggregate-only path: an analysis that never
    routes needs only the line-source column (+ ``source`` for the per-sink
    family, + ``doc_id`` for --first-seen order).  Reading doc_id strings
    and n_tok for a counts-only query wastes ~20 % of the scan."""
    import pyarrow.parquet as pq

    try:
        names = set(pq.ParquetFile(paths[0]).schema_arrow.names)
    except Exception:
        return None
    col = next((c for c in ("line", "tokens", "text") if c in names), None)
    if col is None:
        return None
    if cfg.count:
        return [col]  # CountStage ignores parser fields entirely
    cols = {col}
    if "source" in names:
        cols.add("source")
    if cfg.first_seen and "doc_id" in names:
        cols.add("doc_id")
    return sorted(cols)


def analyze_parquet(
    paths,
    cfg: AnalyzeConfig,
    out_dir: str | None = None,
    wave_files: int | None = None,
    lookup: dict | None = None,
    num_partitions: int = 64,
) -> AnalyzeOutput:
    """Run over Parquet inputs.  With ``out_dir`` the input is routed in
    resumable waves of ``wave_files`` files (one wave of every file when
    unset); each wave manifest records its input files, and a resume over
    other inputs raises.  A count-only run (``cfg.count``) never routes."""
    import ray.data as rd

    paths = [paths] if isinstance(paths, str) else list(paths)
    if out_dir is None or cfg.count:
        columns = _agg_read_columns(paths, cfg)
        read_kw = {}
        # Aggregate-only reads are driver-overhead-bound on small-to-mid
        # inputs: Ray's block floor (4×cores via tune_for_cluster, 200
        # stock) pays ~10 ms/block of scheduling for this short fused
        # read→parse chain.  Block count scales with input BYTES between
        # 2×cores (small reads: the 2 M-seq bench measures 0.92 s vs
        # 1.30 s at 4×) and 4×cores (mid reads: the 8 M-seq stats+trend
        # bench measures 5.4 s at 4× vs 6.4-8.1 s at 2× — parse-heavy
        # chains need the finer load-balancing granularity once there
        # is enough data to amortize scheduling).  Only applied while
        # blocks stay under the 128 MiB target — at 100 TB the condition
        # fails and the default size-based splitting takes over.
        from timberjack_ray.rayctx import cluster_cpus

        cpus = cluster_cpus()
        try:
            total = sum(os.path.getsize(p) for p in paths)
        except OSError:
            total = None
        if total is not None:
            n_blocks = int(min(max(total // (2 << 20), 2 * cpus),
                               4 * cpus))
            if total <= n_blocks * (128 << 20):
                read_kw["override_num_blocks"] = n_blocks
        waves = [(rd.read_parquet(paths, columns=columns, **read_kw), paths)]
    else:
        step = wave_files or len(paths)
        waves = [(rd.read_parquet(paths[i:i + step]), paths[i:i + step])
                 for i in range(0, len(paths), step)]
    return _analyze(waves, cfg, out_dir, lookup, num_partitions)


def _run_waves(waves, cfg, fmt, out_dir, lookup, num_partitions, salt_map,
               extra_cols):
    """Execute each incomplete wave; merge counts across all waves."""
    os.makedirs(out_dir, exist_ok=True)
    done = completed_waves(out_dir)
    needed = _needed_kinds(cfg, extra_cols)
    frames: list[pd.DataFrame] = []
    skipped = 0
    cfg_fp = run_fingerprint(cfg, fmt, num_partitions)
    counter = PartialCounts(
        want_trend=cfg.trend, want_stats=cfg.stats,
        want_lines=cfg.collect_lines, extra_cols=extra_cols,
        hash_msgs=not cfg.show_unique,
        order_from=("doc_id" if cfg.first_seen else None),
    )
    assign = AssignPartition(num_partitions, salt_map)
    for w, (ds, wpaths) in enumerate(waves):
        tmp_dir = os.path.join(out_dir, "_tmp", f"w{w:03d}")
        if w in done:
            validate_stored_wave(out_dir, w, cfg_fp, wpaths)
            stored = wave_counts(out_dir, w)
            skipped += 1
            if stored is not None and _counts_satisfy(
                set(pc.unique(stored["kind"]).to_pylist()), needed
            ):
                frames.append(_normalize_msg_family(stored, want_hash=not cfg.show_unique))
            else:
                # stored counts lack kinds this run needs → recompute from
                # the wave's routed files (complete, column-pruned read).
                # After compaction the per-wave files no longer exist; the
                # whole compacted output is recounted ONCE instead (waves
                # only ever merge, so attribution is not needed).
                import glob as _glob

                has_wave_files = bool(_glob.glob(
                    os.path.join(out_dir, "*=*", f"part-w{w:03d}-*.parquet")))
                if has_wave_files:
                    frames.append(_recompute_wave_counts(out_dir, w, cfg, fmt, extra_cols))
                elif not any(f is _COMPACTED for f in frames):
                    frames.append(_COMPACTED)
            continue
        cleanup_incomplete_wave(out_dir, w, tmp_dir)
        parsed = _transform(ds, cfg, fmt, lookup, assign)
        writer = WriteAndCount(tmp_dir, counter=counter)
        # 64k-row writer batches: swept interleaved at 8 CPUs / 8M rows —
        # 16k batches produce ~3400 sink files and a 3.5s driver-side
        # finalize; whole-block batches (None) stall the executor; 64k is
        # ~4× fewer files at identical exec time (finalize ~1s)
        partials = parsed.map_batches(writer, batch_format="pyarrow",
                                      batch_size=65536)
        guard = (agg.KIND_MSG_HASH, agg.MSG_GUARD_LIMIT) \
            if (cfg.stats and not cfg.show_unique) else None
        wtbl = agg.merge_partials(partials, ["kind", "key"], "n", guard=guard)
        finalize_wave(out_dir, w, tmp_dir, wtbl, input_files=wpaths, cfg_fp=cfg_fp)
        frames.append(wtbl)
    if any(f is _COMPACTED for f in frames):
        # the whole-output recount covers every wave on disk (compacted AND
        # fresh) — it REPLACES the per-wave frames rather than joining them
        frames = [_recompute_compacted_counts(out_dir, cfg, fmt, extra_cols)]
    counts, unique, uapprox = _merge_counts(frames, cfg)
    return counts, unique, uapprox, skipped


_COMPACTED = object()  # sentinel: recount must run over the compacted output


def _recompute_compacted_counts(out_dir, cfg, fmt, extra_cols) -> pd.DataFrame:
    """Recount a compacted output in one pass (wave attribution is gone but
    waves only merge, so a single whole-output recount is equivalent)."""
    ds = read_routed(out_dir)
    ds = ds.map_batches(ParseStage(cfg=cfg, fmt=fmt, keep_tokens=False),
                        batch_format="pyarrow")
    return _counts_to_pandas(report_counts(
        ds, want_trend=cfg.trend, want_stats=cfg.stats,
        want_lines=cfg.collect_lines, extra_cols=extra_cols,
        hash_msgs=not cfg.show_unique,
        order_from=("doc_id" if cfg.first_seen else None),
    ))


def _recompute_wave_counts(out_dir, wave, cfg, fmt, extra_cols) -> pd.DataFrame:
    """Recount a completed wave from its routed files.  Sink files are slim
    (derived string columns are not persisted — route.WriteAndCount), so the
    derived columns are re-parsed from the token payload; rows already passed
    the cfg filters at write time, re-applying them is idempotent."""
    import glob as _glob

    import pyarrow.parquet as _pq
    import ray.data as rd

    files = sorted(_glob.glob(os.path.join(out_dir, "*=*", f"part-w{wave:03d}-*.parquet")))
    ds = rd.read_parquet(files)
    have = set(_pq.ParquetFile(files[0]).schema_arrow.names) if files else set()
    needed = {"level"}
    if cfg.trend:
        needed.add("ts_hour")
    if cfg.stats:
        needed |= {"message_key", "error_type"}
    if cfg.collect_lines:
        needed.add("line")
    if not needed.issubset(have):
        ds = ds.map_batches(ParseStage(cfg=cfg, fmt=fmt, keep_tokens=False),
                            batch_format="pyarrow")
    return _counts_to_pandas(report_counts(
        ds, want_trend=cfg.trend, want_stats=cfg.stats,
        want_lines=cfg.collect_lines, extra_cols=extra_cols,
        hash_msgs=not cfg.show_unique,
        order_from=("doc_id" if cfg.first_seen else None),
    ))
