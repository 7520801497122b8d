"""Router / lineage / resume invariants (north_rule):
per-sink aggregate-count equality, routed-row token equality,
resume-from-checkpoint without reprocessing completed work (wave
checkpoints)."""

import glob
import json
import os
import shutil

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from timberjack_ray import AnalyzeConfig, oracle
from timberjack_ray.data import synth
from timberjack_ray.pipelines.analyze import analyze_parquet
from timberjack_ray.stages.route import (
    AssignPartition,
    build_salt_map,
    completed_waves,
)

N = 8000
SEQ = "/tmp/tj_test_seq"
OUT = "/tmp/tj_test_routed"
CFG = dict(trend=True, stats=True)


@pytest.fixture(scope="module")
def seq_paths(ray_session):
    shutil.rmtree(SEQ, ignore_errors=True)
    synth.generate_sequences(N, SEQ, json_frac=0.0, rows_per_file=1000)
    return sorted(glob.glob(SEQ + "/part-*.parquet"))


@pytest.fixture(scope="module")
def routed(seq_paths):
    shutil.rmtree(OUT, ignore_errors=True)
    return analyze_parquet(
        seq_paths, AnalyzeConfig(**CFG), out_dir=OUT, wave_files=2,
        lookup=synth.source_lookup_dict(), num_partitions=12,
    )


@pytest.fixture(scope="module")
def oracle_result():
    return oracle.analyze_lines(
        [synth.line_for(i) for i in range(N)], fmt="generic",
        collect_trends=True, collect_stats=True,
    )


def test_per_sink_counts_match_levels(routed, oracle_result):
    sink = routed.counts[routed.counts["kind"] == "sink"].set_index("key")["n"].to_dict()
    assert sink == oracle_result.levels_count
    got = {d["level"]: d["count"] for d in routed.report["stats"]["log_levels"]}
    assert got == oracle_result.levels_count
    per_level = routed.route_metrics.groupby("level")["rows"].sum().to_dict()
    assert per_level == oracle_result.levels_count


def test_report_matches_oracle(routed, oracle_result):
    assert routed.report["total_count"] == oracle_result.count
    trends = {d["timestamp"]: d["count"] for d in routed.report["time_trends"]}
    assert trends == oracle_result.time_trends
    lines = {d["line"]: d["count"] for d in routed.report["matched_lines"]}
    assert lines == oracle_result.line_counts


def test_wave_lineage_complete(routed, seq_paths):
    waves = completed_waves(OUT)
    assert waves == {0, 1, 2, 3}  # 8 files / wave_files=2
    for w in waves:
        with open(os.path.join(OUT, "_lineage", f"wave-{w:03d}.json")) as f:
            man = json.load(f)
        assert man["wave"] == w
        assert len(man["input_files"]) == 2
    # per-pid lineage records agree with the files on disk
    for lf in sorted(glob.glob(OUT + "/_lineage/w*-p*.json")):
        with open(lf) as f:
            lin = json.load(f)
        for rel_list in [lin["files"]]:
            for rel in rel_list:
                assert os.path.exists(os.path.join(OUT, rel)), rel
        assert lin["rows"] == sum(v["rows"] for v in lin["per_level"].values())


def test_token_checksum_in_lineage(routed):
    """Per-partition lineage stats match a recount of the pid's rows in the
    referenced sink files."""
    from timberjack_ray.stages.route import _sanitize

    for lf in sorted(glob.glob(OUT + "/_lineage/w*-p*.json"))[:5]:
        with open(lf) as f:
            lin = json.load(f)
        pid = lin["pid"]
        for lv, meta in lin["per_level"].items():
            lv_dir = f"level={_sanitize(lv)}"
            tok = rows = 0
            for rel in lin["files"]:
                if rel.split(os.sep)[0] != lv_dir:
                    continue
                t = pq.read_table(os.path.join(OUT, rel))
                sub = t.filter(pc.equal(t["__pid"], pid))
                tok += int(pc.sum(pc.list_flatten(sub["tokens"])).as_py() or 0)
                rows += sub.num_rows
            assert rows == meta["rows"], (lf, lv)
            assert tok == meta["token_sum"], (lf, lv)


def test_routed_rows_token_equality(routed):
    """Per-row invariant vs the reference input: routed rows carry the exact
    original token arrays (BASELINE.json input_hint)."""
    f = sorted(glob.glob(OUT + "/level=ERROR/part-*.parquet"))[0]
    t = pq.read_table(f)
    for row in t.slice(0, 200).to_pylist():
        i = int(row["doc_id"].split("-")[1])
        assert row["tokens"] == synth.make_batch(i, i + 1)["tokens"][0].as_py()
        assert row["level"] == "ERROR"


def test_resume_skips_completed_waves(seq_paths, routed, oracle_result):
    # simulate a crash: wave 2 never finalized
    os.remove(os.path.join(OUT, "_lineage", "wave-002.json"))
    for f in glob.glob(OUT + "/level=*/part-w002-*.parquet"):
        os.remove(f)
    for f in glob.glob(OUT + "/_lineage/w002-p*.json"):
        os.remove(f)
    out2 = analyze_parquet(
        seq_paths, AnalyzeConfig(**CFG), out_dir=OUT, wave_files=2,
        lookup=synth.source_lookup_dict(), num_partitions=12,
    )
    assert out2.skipped_waves == 3
    assert completed_waves(OUT) == {0, 1, 2, 3}
    assert out2.report["total_count"] == oracle_result.count
    assert {d["level"]: d["count"] for d in out2.report["stats"]["log_levels"]} == oracle_result.levels_count


def test_resume_recomputes_missing_kinds(seq_paths, routed):
    """A rerun needing aggregate kinds the stored wave counts lack falls back
    to recomputing from the routed files."""
    cfg = AnalyzeConfig(trend=True, stats=True, show_unique=True)
    out3 = analyze_parquet(
        seq_paths, cfg, out_dir=OUT, wave_files=2,
        lookup=synth.source_lookup_dict(), num_partitions=12,
    )
    assert out3.skipped_waves == 4  # nothing reprocessed
    o = oracle.analyze_lines([synth.line_for(i) for i in range(N)], fmt="generic",
                             collect_trends=True, collect_stats=True)
    assert out3.report["stats"]["unique_messages"] == sorted(o.unique_messages)


def test_salted_partitioning_spreads_hot_source(ray_session):
    t = synth.sequences_table(4000)
    shares = {"app-0": 0.3, "app-1": 0.04}
    salt_map = build_salt_map(shares, num_partitions=16, hot_threshold=0.05)
    assert salt_map["app-0"] >= 2 and "app-1" not in salt_map
    stage = AssignPartition(16, salt_map)
    out = stage(t)
    hot = out.filter(pc.equal(out["source"], "app-0"))
    hot_pids = set(hot["__pid"].to_pylist())
    assert len(hot_pids) >= salt_map["app-0"] // 2  # spread over several partitions
    cold = out.filter(pc.equal(out["source"], "app-3"))
    assert len(set(cold["__pid"].to_pylist())) == 1  # cold sources stay co-located
    out2 = AssignPartition(16, salt_map)(t)
    assert out["__pid"].to_pylist() == out2["__pid"].to_pylist()


def test_compact_routed(seq_paths, oracle_result):
    """Compaction merges small sink files without losing rows; re-running is
    a no-op; reads see the compacted layout."""
    import pandas as pd

    from timberjack_ray.stages.route import compact_routed, read_routed

    out = "/tmp/tj_test_compact"
    shutil.rmtree(out, ignore_errors=True)
    analyze_parquet(seq_paths, AnalyzeConfig(**CFG), out_dir=out, wave_files=2,
                    lookup=synth.source_lookup_dict(), num_partitions=12)
    before = {d["level"]: d["count"] for d in pd.DataFrame(
        [(lv, pq.read_metadata(f).num_rows)
         for lv_dir in glob.glob(out + "/level=*")
         for lv in [os.path.basename(lv_dir).split("=", 1)[1]]
         for f in glob.glob(lv_dir + "/*.parquet")],
        columns=["level", "count"]).groupby("level", as_index=False).sum()
        .to_dict("records")}
    summary = compact_routed(out, target_rows=100_000)
    assert (summary["files_after"] <= summary["files_before"]).all()
    assert int(summary["rows"].sum()) == sum(before.values())
    # rerun is a no-op (no part-* files left)
    summary2 = compact_routed(out, target_rows=100_000)
    assert int(summary2["files_before"].sum()) == 0
    # routed reads still see every row per level
    t = read_routed(out, columns=["level"]).to_pandas()
    got = t.groupby("level").size().to_dict()
    assert {k: v for k, v in got.items() if k in oracle_result.levels_count} \
        == oracle_result.levels_count


def test_rerun_after_compaction_with_new_kinds(seq_paths, oracle_result):
    """A rerun needing kinds the stored counts lack, AFTER compaction,
    recounts the whole compacted output instead of per-wave files."""
    from timberjack_ray.stages.route import compact_routed

    out = "/tmp/tj_test_compact2"
    shutil.rmtree(out, ignore_errors=True)
    analyze_parquet(seq_paths, AnalyzeConfig(trend=True, stats=True), out_dir=out,
                    wave_files=2, lookup=synth.source_lookup_dict(), num_partitions=12)
    compact_routed(out, target_rows=100_000)
    cfg = AnalyzeConfig(trend=True, stats=True, show_unique=True)
    res = analyze_parquet(seq_paths, cfg, out_dir=out, wave_files=2,
                          lookup=synth.source_lookup_dict(), num_partitions=12)
    assert res.skipped_waves == 4
    assert res.report["total_count"] == oracle_result.count
    assert res.report["stats"]["unique_messages"] == sorted(oracle_result.unique_messages)


def _write_lines(path, lines, first_row):
    import pyarrow as pa

    from timberjack_ray import vocab

    idx = range(first_row, first_row + len(lines))
    tokens = vocab.encode_batch(lines)
    pq.write_table(pa.table({
        "doc_id": [f"doc-{i:010d}" for i in idx],
        "tokens": tokens,
        "n_tok": pa.array(tokens.value_lengths(), type=pa.int32()),
        "source": [synth.source_for(i) for i in idx],
    }), path)


def test_wave_mixed_msg_families_resume(seq_paths):
    """Stored wave counts written with real message keys (--show-unique)
    merge correctly with hashed-key counts from a later run's fresh wave
    (re-hashed at merge; no double counting).  Wave 1 repeats wave 0's
    messages and adds messages found nowhere else, so dropping either
    family or counting both miscounts the distinct messages."""
    out = "/tmp/tj_test_wave_mixed"
    extra_dir = "/tmp/tj_test_wave_mixed_in"
    for d in (out, extra_dir):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(extra_dir)
    lines = [synth.line_for(i) for i in range(2000)]
    paths = list(seq_paths[:2])
    for k in range(2):
        extra = [synth.line_for(i) for i in range(500)] + [
            f"2025-03-01 00:00:{j:02d},000 [ERROR] wave-one failure {k}-{j}"
            for j in range(7)]
        paths.append(os.path.join(extra_dir, f"part-{k}.parquet"))
        _write_lines(paths[-1], extra, len(lines))
        lines += extra
    expected = oracle.analyze_lines(lines, fmt="generic", collect_trends=True,
                                    collect_stats=True)
    assert len(expected.unique_messages) > 20 + 14  # 14 only in wave 1

    analyze_parquet(paths, AnalyzeConfig(trend=True, stats=True, show_unique=True),
                    out_dir=out, wave_files=2, num_partitions=8)
    # damage wave 0, rerun WITHOUT show_unique: stored wave 1 carries "msg"
    # keys, the recomputed wave 0 carries "msg#" hashes
    os.remove(os.path.join(out, "_lineage", "wave-000.json"))
    for f in glob.glob(out + "/level=*/part-w000-*.parquet"):
        os.remove(f)
    for f in glob.glob(out + "/_lineage/w000-p*.json"):
        os.remove(f)
    res = analyze_parquet(paths, AnalyzeConfig(trend=True, stats=True),
                          out_dir=out, wave_files=2, num_partitions=8)
    assert res.skipped_waves == 1
    assert res.report["total_count"] == expected.count
    assert res.report["stats"]["unique_messages_count"] == len(expected.unique_messages)


def test_segment_token_sums_trailing_empty_segment():
    """Regression: a batch ending with an all-empty-token segment must not
    drop the preceding segment's last token value (the old index clamp did)."""
    import numpy as np
    import pyarrow as pa

    from timberjack_ray.stages.route import _segment_token_sums

    # segment 0: rows 0-1 (tokens 1+2+3+4), segment 1: rows 2-3 (all empty)
    tokens = pa.array([[1, 2], [3, 4], [], []], type=pa.list_(pa.int64()))
    sums = _segment_token_sums(tokens, np.array([0, 2], dtype=np.int64))
    assert sums.tolist() == [10, 0]
    # single all-empty segment
    empty_only = pa.array([[], []], type=pa.list_(pa.int64()))
    assert _segment_token_sums(empty_only, np.array([0], dtype=np.int64)).tolist() == [0]
    # empty segment in the middle
    mid = pa.array([[5], [], [7]], type=pa.list_(pa.int64()))
    sums = _segment_token_sums(mid, np.array([0, 1, 2], dtype=np.int64))
    assert sums.tolist() == [5, 0, 7]


def test_wave_resume_mismatch_raises(seq_paths):
    """A rerun into the same out_dir with different filters must fail loudly
    (the stored wave counts were produced by different row filters), and the
    original flags must still resume."""
    out = "/tmp/tj_test_fp_wave"
    shutil.rmtree(out, ignore_errors=True)
    analyze_parquet(seq_paths[:4], AnalyzeConfig(stats=True), out_dir=out,
                    wave_files=2, num_partitions=8)
    with pytest.raises(ValueError, match="resume mismatch"):
        analyze_parquet(seq_paths[:4], AnalyzeConfig(stats=True, level="ERROR"),
                        out_dir=out, wave_files=2, num_partitions=8)
    with pytest.raises(ValueError, match="resume mismatch"):
        analyze_parquet(seq_paths[:4], AnalyzeConfig(stats=True), out_dir=out,
                        wave_files=2, num_partitions=16)  # repartitioned layout
    with pytest.raises(ValueError, match="resume mismatch"):
        # same flags, different input files for the same wave index
        analyze_parquet(seq_paths[2:6], AnalyzeConfig(stats=True), out_dir=out,
                        wave_files=2, num_partitions=8)
    res = analyze_parquet(seq_paths[:4], AnalyzeConfig(stats=True), out_dir=out,
                          wave_files=2, num_partitions=8)
    assert res.skipped_waves == 2  # clean resume with the original flags


def test_single_wave_resume_mismatch_raises(seq_paths):
    """A run without wave_files is one wave of every input file: a rerun
    into the same out_dir over other inputs must fail loudly instead of
    returning the stored counts of the first run."""
    out = "/tmp/tj_test_fp_single"
    shutil.rmtree(out, ignore_errors=True)
    analyze_parquet(seq_paths[:2], AnalyzeConfig(stats=True), out_dir=out,
                    num_partitions=8)
    with pytest.raises(ValueError, match="resume mismatch"):
        analyze_parquet(seq_paths[2:7], AnalyzeConfig(stats=True), out_dir=out,
                        num_partitions=8)
    res = analyze_parquet(seq_paths[:2], AnalyzeConfig(stats=True), out_dir=out,
                          num_partitions=8)
    assert res.skipped_waves == 1
    assert res.report["total_count"] == 2000


def test_first_seen_matched_line_order(seq_paths, oracle_result):
    """--first-seen reproduces the reference's sequential display order:
    distinct matched lines by first global occurrence (min row index),
    which a distributed run cannot get from scan order alone."""
    res = analyze_parquet(
        seq_paths, AnalyzeConfig(first_seen=True),  # collect_lines on by default
    )
    got = [ml["line"] for ml in res.report["matched_lines"]]
    # oracle scans rows in order and appends every hit; dedup preserving
    # first occurrence gives the expected display order
    expected = list(dict.fromkeys(
        synth.line_for(i) for i in range(N) if synth.line_for(i)
    ))[: len(got)]
    assert got == expected
    counts = {ml["line"]: ml["count"] for ml in res.report["matched_lines"]}
    assert counts == oracle_result.line_counts
