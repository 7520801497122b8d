"""Router / fan-out sinks with explicit partitioning, lineage and resume.

North_rule requirements (BASELINE.json): fan rows out to per-level Parquet
sinks; partitioning explicit — hash(source) with SALTED keys for hot-source
skew; every partition emits lineage + metrics records enabling
resume-from-checkpoint without reprocessing completed work.

The exchange has NO all-to-all step: every parse task writes its batch's
rows directly into per-(pid, level) files (the "exchange" is the shared
filesystem / object store, exactly how production engines do partitioned
writes at scale), and emits partial aggregate counts in the same pass, so
the whole flagship pipeline is ONE streaming pass + one tiny counts merge.
Input files are processed in WAVES; each wave finalizes atomically (tmp →
rename, per-pid lineage, wave manifest with the wave's aggregate counts),
so a rerun skips completed waves without reprocessing and a crashed wave is
cleaned up and redone.

Partition id: ``pid = (stable_hash(source) + salt) % P`` with
``salt = stable_hash(doc_id) % n_salts(source)``; hot sources (share ≥
threshold, measured by a cheap single-column pre-pass) get enough salts to
spread across the cluster, cold sources stay co-located.  All hashes are
process-stable (crc32 / siphash), never Python's randomized ``hash()``.

Output layout:
    out_dir/level=ERROR/part-w000-p00007-3f2a.parquet
    out_dir/_lineage/w000-p00007.json        # per-(wave, pid) lineage
    out_dir/_lineage/wave-000.json           # wave manifest (atomic last)
    out_dir/_lineage/wave-000-counts.parquet # the wave's aggregate counts
"""

from __future__ import annotations

import glob
import json
import os
import urllib.parse
import uuid
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

PID_COL = "__pid"


def stable_str_hash(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized process-stable uint64 hash of a string column (pandas
    siphash with its fixed default key — not Python's salted hash())."""
    s = col.to_pandas().astype("string").fillna("")
    return pd.util.hash_array(s.to_numpy(dtype=object)).astype(np.uint64)


def source_shares(input_paths, sample_files: int = 16):
    """Cheap skew pre-pass: estimate {source: share} from the first row group
    of at most ``sample_files`` evenly-strided input files, read driver-side
    with pyarrow.  Bounded work regardless of input size (a Dataset execution
    for this kilobyte-sized answer costs ~1s of fixed overhead per run); hot
    sources only need to be detected approximately, so a row-group sample is
    the right tool at 100 TB exactly as at 1 GB."""
    paths = list(input_paths) if isinstance(input_paths, (list, tuple)) else [input_paths]
    if len(paths) > sample_files:
        stride = max(len(paths) // sample_files, 1)
        paths = paths[::stride][:sample_files]
    tables = []
    for p in paths:
        pf = pq.ParquetFile(p)
        if pf.metadata.num_row_groups == 0 or "source" not in pf.schema_arrow.names:
            continue
        tables.append(pf.read_row_group(0, columns=["source"]))
    if not tables:
        return {}
    col = pa.concat_tables(tables)
    g = col.group_by("source").aggregate([([], "count_all")])
    counts = g["count_all"].to_numpy()
    total = max(int(counts.sum()), 1)
    return {s: int(n) / total for s, n in zip(g["source"].to_pylist(), counts)}


def build_salt_map(shares: dict[str, float], num_partitions: int, hot_threshold: float = 0.05):
    """Sources above the threshold get ceil(share × P × 1.5) salts."""
    salts = {}
    for src, share in shares.items():
        if share >= hot_threshold:
            salts[src] = max(2, int(np.ceil(share * num_partitions * 1.5)))
    return salts


class AssignPartition:
    """map_batches stage: append the deterministic partition id column."""

    def __init__(self, num_partitions: int, salt_map: dict[str, int] | None = None):
        self.num_partitions = num_partitions
        self.salt_map = salt_map or {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "source" not in batch.column_names:
            # raw-text ingestion has no source column: deterministic hash of
            # the best identifying column; uniform spread, no salting needed
            col = next(c for c in ("doc_id", "line", "text") if c in batch.column_names)
            arr = (batch[col].combine_chunks()
                   if isinstance(batch[col], pa.ChunkedArray) else batch[col])
            pid = (stable_str_hash(arr) % np.uint64(self.num_partitions)).astype(np.int32)
            return batch.append_column(PID_COL, pa.array(pid))
        src = batch["source"]
        enc = (
            src.combine_chunks().dictionary_encode()
            if isinstance(src, pa.ChunkedArray)
            else src.dictionary_encode()
        )
        dictionary = enc.dictionary.to_pylist()
        base = np.array([zlib.crc32(s.encode()) for s in dictionary], dtype=np.uint64)
        nsalt = np.array([self.salt_map.get(s, 1) for s in dictionary], dtype=np.uint64)
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        per_row_nsalt = nsalt[idx]
        salt = np.zeros(len(idx), dtype=np.uint64)
        hot = per_row_nsalt > 1
        if hot.any():
            # doc_id hashing only for rows of salted (hot) sources — cold
            # sources take salt 0 without touching the doc_id column
            hot_ids = pc.array_filter(
                batch["doc_id"].combine_chunks()
                if isinstance(batch["doc_id"], pa.ChunkedArray)
                else batch["doc_id"],
                pa.array(hot),
            )
            salt[hot] = stable_str_hash(hot_ids) % per_row_nsalt[hot]
        pid = ((base[idx] + salt) % np.uint64(self.num_partitions)).astype(np.int32)
        return batch.append_column(PID_COL, pa.array(pid))


def _sanitize(value: str) -> str:
    return urllib.parse.quote(value, safe="") if value else "_EMPTY_"


def _unsanitize(value: str) -> str:
    return "" if value == "_EMPTY_" else urllib.parse.unquote(value)


def _lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def _atomic_json(path: str, obj) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _segment_token_sums(tokens_col, seg_starts: np.ndarray) -> np.ndarray:
    """Token-value sums per row segment [seg_starts[i], seg_starts[i+1]) in a
    single ``np.add.reduceat`` pass — no per-row cumsum materialization (the
    per-row variant dominated the write stage's profile)."""
    arr = tokens_col.combine_chunks() if isinstance(tokens_col, pa.ChunkedArray) else tokens_col
    values = np.asarray(arr.flatten(), dtype=np.int64)
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    offsets = offsets - offsets[0]
    if len(values) == 0:
        return np.zeros(len(seg_starts), dtype=np.int64)
    vstarts = offsets[seg_starts]
    # A zero sentinel (not index clamping) keeps vstarts == len(values) legal:
    # clamping to len-1 would shrink the PRECEDING segment's reduceat range
    # and silently drop the last token value when the batch ends with an
    # all-empty-token segment.
    values_p = np.append(values, 0)
    # reduceat quirk: equal consecutive indices yield values[i], not 0 —
    # mask out empty segments afterwards
    sums = np.add.reduceat(values_p, vstarts)
    seg_ends = np.concatenate([seg_starts[1:], [len(offsets) - 1]])
    empty = offsets[seg_ends] == vstarts
    sums[empty] = 0
    return sums


class WriteAndCount:
    """map_batches stage: write the batch's rows into per-level sink files
    (sorted by partition id, with per-pid stats in a sidecar) AND return the
    batch's partial aggregate counts — routing and aggregation fused into one
    streaming pass, no all-to-all exchange.

    One file per (level, batch): rows inside are sorted by ``__pid`` so
    Parquet row-group stats support pid predicate pushdown downstream, and
    per-pid row/token-checksum stats are recorded in the sidecar for the
    per-partition lineage records written at finalize.

    Sink metric rows ride along in the counts table:
        kind="sink"        key=level → routed rows
        kind="sink_tokens" key=level → token checksum

    Sink files are SLIM: derived string columns (line, ts_hour,
    message_key, error_type) are counted but not persisted — they re-derive
    from the token payload (ParseStage over the routed files), and at 100 TB
    the detokenized line column alone would roughly double the output bytes.
    """

    DERIVED_COLS = ("line", "ts_hour", "message_key", "error_type")

    def __init__(self, tmp_dir: str, counter=None):
        self.tmp_dir = tmp_dir
        self.counter = counter  # aggregates.PartialCounts or None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"kind": pa.array([], pa.string()),
                             "key": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        # ONE composite (level, pid) sort + take, then zero-copy slices per
        # level — a filter-per-level re-scans the whole batch (incl. the wide
        # tokens column) once per level, which dominated this stage's profile
        lv_col = batch["level"]
        enc = (lv_col.combine_chunks() if isinstance(lv_col, pa.ChunkedArray)
               else lv_col).dictionary_encode()
        levels = enc.dictionary.to_pylist()
        lvl_idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        pids = np.asarray(batch[PID_COL].to_numpy(zero_copy_only=False), dtype=np.int64)
        n = len(pids)
        npart = int(pids.max()) + 1 if n else 1
        skey = lvl_idx * npart + pids
        order = np.argsort(skey, kind="stable")
        # "line" only re-derives from a tokens payload — raw-text inputs
        # must persist it or the sinks would lose the row content
        has_tokens = "tokens" in batch.column_names
        drop = [c for c in self.DERIVED_COLS
                if c in batch.column_names and (c != "line" or has_tokens)]
        sorted_batch = batch.drop_columns(drop).take(pa.array(order))
        skey = skey[order]
        slvl = lvl_idx[order]
        spid = pids[order]

        # (level, pid) run boundaries in the sorted batch → one reduceat pass
        # for all per-pid token checksums, zero-copy level slices for writes
        seg_starts = np.concatenate([[0], np.flatnonzero(np.diff(skey)) + 1])
        seg_ends = np.concatenate([seg_starts[1:], [n]])
        if "tokens" in batch.column_names:
            seg_tok = _segment_token_sums(sorted_batch["tokens"], seg_starts)
        else:
            seg_tok = np.zeros(len(seg_starts), dtype=np.int64)
        seg_lvl = slvl[seg_starts]
        seg_pid = spid[seg_starts]
        seg_rows = seg_ends - seg_starts

        os.makedirs(self.tmp_dir, exist_ok=True)
        uid = uuid.uuid4().hex[:12]
        sink_rows: dict[str, int] = {}
        sink_tokens: dict[str, int] = {}
        lv_seg_bounds = np.flatnonzero(np.diff(seg_lvl)) + 1
        lv_seg_starts = np.concatenate([[0], lv_seg_bounds])
        lv_seg_ends = np.concatenate([lv_seg_bounds, [len(seg_starts)]])
        for ss, se in zip(lv_seg_starts, lv_seg_ends):
            lv = levels[seg_lvl[ss]]
            ls, le = int(seg_starts[ss]), int(seg_ends[se - 1])
            part = sorted_batch.slice(ls, le - ls)
            # compact sidecar: parallel [pids, rows, token_sums] arrays
            # (nested per-pid dicts were a visible json.dump cost)
            meta = {
                "level": lv,
                "pid": seg_pid[ss:se].tolist(),
                "rows": seg_rows[ss:se].tolist(),
                "token_sum": seg_tok[ss:se].tolist(),
            }
            fname = f"{_sanitize(lv)}__{uid}.parquet"
            fpath = os.path.join(self.tmp_dir, fname)
            pq.write_table(part, fpath + ".tmp")
            os.replace(fpath + ".tmp", fpath)
            _atomic_json(fpath + ".meta.json", meta)
            sink_rows[lv] = part.num_rows
            sink_tokens[lv] = int(seg_tok[ss:se].sum())

        kinds, keys, ns = [], [], []
        if self.counter is not None:
            partial = self.counter(batch.drop_columns([PID_COL]))
            kinds = partial["kind"].to_pylist()
            keys = partial["key"].to_pylist()
            ns = partial["n"].to_pylist()
        for lv, r in sink_rows.items():
            kinds.append("sink")
            keys.append(lv)
            ns.append(r)
        for lv, t in sink_tokens.items():
            kinds.append("sink_tokens")
            keys.append(lv)
            ns.append(t)
        return pa.table({"kind": pa.array(kinds, pa.string()),
                         "key": pa.array(keys, pa.string()),
                         "n": pa.array(ns, pa.int64())})


def completed_waves(out_dir: str) -> set[int]:
    d = _lineage_dir(out_dir)
    if not os.path.isdir(d):
        return set()
    out = set()
    for f in os.listdir(d):
        if f.startswith("wave-") and f.endswith(".json"):
            out.add(int(f[5:-5]))
    return out


def wave_counts(out_dir: str, wave: int) -> pa.Table | None:
    path = os.path.join(_lineage_dir(out_dir), f"wave-{wave:03d}-counts.parquet")
    if not os.path.exists(path):
        return None
    return pq.read_table(path)


def wave_manifest(out_dir: str, wave: int) -> dict | None:
    path = os.path.join(_lineage_dir(out_dir), f"wave-{wave:03d}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_fingerprint(cfg, fmt: str, num_partitions: int) -> str:
    """Stable fingerprint of every config knob that changes WHICH ROWS a
    run routes/counts (filters, format, partitioning).  Stored in wave
    manifests so a resume into the same out_dir with a different job fails
    loudly instead of silently reusing mismatched stored counts (a resume
    with narrower filters would otherwise yield the INTERSECTION of the two
    runs' filters over already-filtered rows)."""
    import hashlib

    payload = json.dumps(
        {
            "pattern": cfg.pattern,
            "level": cfg.level,
            "fields": sorted(cfg.field_filters().items()),
            "fmt": fmt,
            "num_partitions": num_partitions,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def validate_stored_wave(out_dir: str, wave: int, cfg_fp: str,
                         wpaths: list[str] | None) -> None:
    """Raise if a completed wave's manifest was produced by a DIFFERENT run
    (other input files or other filter config).  Manifests written before
    fingerprints existed fail too — fail-safe over silent reuse."""
    man = wave_manifest(out_dir, wave)
    if man is None:
        return  # completed_waves saw it, but it vanished: wave will re-run
    stored_fp = man.get("cfg_fp")
    if stored_fp != cfg_fp:
        raise ValueError(
            f"resume mismatch: {out_dir} wave {wave} was produced with a "
            f"different filter/format/partition config (stored fingerprint "
            f"{stored_fp!r}, this run {cfg_fp!r}). Use a fresh --route-dir "
            f"or rerun with the original flags."
        )
    stored_inputs = man.get("input_files") or []
    if wpaths and stored_inputs and list(stored_inputs) != list(wpaths):
        raise ValueError(
            f"resume mismatch: {out_dir} wave {wave} stored counts for "
            f"{len(stored_inputs)} input file(s) that differ from this "
            f"run's wave inputs. Use a fresh --route-dir."
        )


def cleanup_incomplete_wave(out_dir: str, wave: int, tmp_dir: str) -> None:
    """Remove any leftovers of a wave that never finalized (crash mid-run)."""
    import shutil

    shutil.rmtree(tmp_dir, ignore_errors=True)
    for f in glob.glob(os.path.join(out_dir, "*=*", f"part-w{wave:03d}-*.parquet")):
        os.remove(f)
    for f in glob.glob(os.path.join(_lineage_dir(out_dir), f"w{wave:03d}-p*.json")):
        os.remove(f)


def finalize_wave(out_dir: str, wave: int, tmp_dir: str, counts: pd.DataFrame,
                  input_files: list[str] | None = None,
                  cfg_fp: str | None = None) -> None:
    """Move tmp files into the final layout, write per-partition lineage
    records (accumulated from the writer sidecars), then the wave manifest
    ATOMICALLY LAST (its presence == wave complete)."""
    from concurrent.futures import ThreadPoolExecutor

    ldir = _lineage_dir(out_dir)
    os.makedirs(ldir, exist_ok=True)
    per_pid: dict[int, dict] = {}  # pid → {"per_level": {...}, "files": set}
    seq: dict[str, int] = {}
    metas = []
    with ThreadPoolExecutor(max_workers=16) as pool:
        def load(p):
            with open(p) as f:
                return p, json.load(f)
        metas = list(pool.map(load, sorted(glob.glob(os.path.join(tmp_dir, "*.meta.json")))))
    moves = []
    for meta_path, meta in metas:
        data_path = meta_path[: -len(".meta.json")]
        lv = meta["level"]
        sdir = os.path.join(out_dir, f"level={_sanitize(lv)}")
        os.makedirs(sdir, exist_ok=True)
        k = seq.get(lv, 0)
        seq[lv] = k + 1
        final = os.path.join(sdir, f"part-w{wave:03d}-{k:04d}.parquet")
        moves.append((data_path, meta_path, final))
        rel = os.path.relpath(final, out_dir)
        for pid, rows, tok in zip(meta["pid"], meta["rows"], meta["token_sum"]):
            pid = int(pid)
            rec = per_pid.setdefault(pid, {"per_level": {}, "files": set()})
            agg = rec["per_level"].setdefault(lv, {"rows": 0, "token_sum": 0})
            agg["rows"] += rows
            agg["token_sum"] += tok
            rec["files"].add(rel)
    with ThreadPoolExecutor(max_workers=16) as pool:
        def move(m):
            data_path, meta_path, final = m
            os.replace(data_path, final)
            os.remove(meta_path)
        list(pool.map(move, moves))

        def write_pid(item):
            pid, rec = item
            _atomic_json(
                os.path.join(ldir, f"w{wave:03d}-p{pid:05d}.json"),
                {"wave": wave, "pid": pid, "per_level": rec["per_level"],
                 "files": sorted(rec["files"]),
                 "rows": sum(v["rows"] for v in rec["per_level"].values())},
            )
        list(pool.map(write_pid, per_pid.items()))
    counts_path = os.path.join(ldir, f"wave-{wave:03d}-counts.parquet")
    ctbl = counts if isinstance(counts, pa.Table) else pa.Table.from_pandas(
        counts, preserve_index=False)
    pq.write_table(ctbl, counts_path + ".tmp")
    os.replace(counts_path + ".tmp", counts_path)
    _atomic_json(
        os.path.join(ldir, f"wave-{wave:03d}.json"),
        {"wave": wave, "input_files": input_files or [], "partitions": len(per_pid),
         "cfg_fp": cfg_fp},
    )
    import shutil

    shutil.rmtree(tmp_dir, ignore_errors=True)


def lineage_metrics(out_dir: str) -> pd.DataFrame:
    """Per-(wave, pid, level) metrics rows assembled from lineage records."""
    rows = []
    for f in sorted(glob.glob(os.path.join(_lineage_dir(out_dir), "w*-p*.json"))):
        with open(f) as fh:
            lin = json.load(fh)
        for lv, meta in lin["per_level"].items():
            rows.append((lin["wave"], lin["pid"], lv, meta["rows"], meta["token_sum"]))
    return pd.DataFrame(rows, columns=["wave", "pid", "level", "rows", "token_sum"])


def compact_routed(out_dir: str, target_rows: int = 512_000) -> pd.DataFrame:
    """Compact each sink's small part files into ~``target_rows``-row files.

    Real pipelines accrete small files (one per writer batch per wave);
    readers want fewer, bigger ones.  Each sink directory compacts as ONE
    Ray task (sinks are independent → task-parallel, no exchange: rows never
    change partition).  Idempotent and crash-safe: compacted files land via
    tmp+rename as ``compact-*.parquet`` before the originals are removed, and
    a rerun skips sinks that contain no ``part-*`` files.  Lineage records
    stay valid at the (wave, pid) count level; their file lists refer to
    pre-compaction names, so compaction rewrites them per sink.

    Returns a summary frame (sink, files_before, files_after, rows).

    Compaction is a TERMINAL step: run it after every wave is complete —
    wave-granular resume (and kind-recompute from per-wave files) no longer
    applies once waves are merged; the stored wave counts and per-pid
    lineage totals remain the aggregate record.
    """
    import ray

    sinks = sorted(
        d for d in glob.glob(os.path.join(out_dir, "level=*")) if os.path.isdir(d)
    )

    @ray.remote(num_cpus=1)
    def compact_sink(sink: str):
        files = sorted(glob.glob(os.path.join(sink, "part-*.parquet")))
        if not files:
            return (os.path.basename(sink), 0, 0, 0)
        tables = [pq.read_table(f) for f in files]
        total = sum(t.num_rows for t in tables)
        out_files = 0
        buf, buf_rows = [], 0
        idx = 0

        def flush():
            nonlocal buf, buf_rows, idx, out_files
            if not buf:
                return
            t = pa.concat_tables(buf)
            path = os.path.join(sink, f"compact-{idx:04d}.parquet")
            pq.write_table(t, path + ".tmp")
            os.replace(path + ".tmp", path)
            idx += 1
            out_files += 1
            buf, buf_rows = [], 0

        for t in tables:
            buf.append(t)
            buf_rows += t.num_rows
            if buf_rows >= target_rows:
                flush()
        flush()
        for f in files:
            os.remove(f)
        return (os.path.basename(sink), len(files), out_files, total)

    rows = ray.get([compact_sink.remote(s) for s in sinks])
    # lineage file lists referenced the pre-compaction names → rewrite them
    for lf in glob.glob(os.path.join(_lineage_dir(out_dir), "w*-p*.json")):
        with open(lf) as f:
            lin = json.load(f)
        new_files = sorted({
            os.path.join(os.path.dirname(rel), "") for rel in lin.get("files", [])
        })
        lin["files"] = [d.rstrip(os.sep) for d in new_files]  # sink-dir granularity
        _atomic_json(lf, lin)
    return pd.DataFrame(rows, columns=["sink", "files_before", "files_after", "rows"])


def read_routed(out_dir: str, columns=None):
    """Read the routed output back as a Dataset (column-pruned)."""
    import ray.data as rd

    files = sorted(
        glob.glob(os.path.join(out_dir, "*=*", "part-*.parquet"))
        + glob.glob(os.path.join(out_dir, "*=*", "compact-*.parquet"))
    )
    return rd.read_parquet(files, columns=columns)
