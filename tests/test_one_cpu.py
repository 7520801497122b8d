"""One-CPU liveness of the per-batch stages.

Every per-batch stage runs as tasks: a function, or a pickled stage
instance that fetches any broadcast state once per worker.  A fixed
actor pool (or shard actors that reserve CPU) held the only CPU of a
one-CPU session, its upstream read never ran, and the queries built on it
hung.  The suite's own session has 4 CPUs, so each query group runs in
its own one-CPU session in a subprocess: oracle-checked queries are
compared with DuckDB, the rest must return a non-empty result.

A read over fewer files than the block floor is split, and a task whose
output buffer fills pauses while holding its CPU; at one CPU that stalls
every executor step for a 100 ms ``ray.wait`` timeout, so the context
must buffer a whole split read.
"""

import os
import subprocess
import sys
import textwrap

from tests.test_entry_queries import SF_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERIES = ["curation_pipeline_v2", "rare_bigram_counts", "doc_top_term"]
TASK_STAGE_QUERIES = ["langid", "enrich_customers", "quality_scores",
                      "best_doc_per_lang", "stream_dedup_docs",
                      "stream_quota_admit", "stream_rate_limit"]
LIVENESS_QUERIES = ["ann_ivf", "embedding_near_dup", "stream_chunk_novelty",
                    "stream_near_dup_pairs", "stream_heavy_hitters"]
TIMEOUT_S = 60

CHILD = textwrap.dedent("""
    import glob
    import os
    import signal
    import sys

    root, sf_dir, checked, live = sys.argv[1:5]
    sys.path.insert(0, root)
    import duckdb
    import ray


    def stalled(*_):
        raise TimeoutError("one-CPU run stalled")


    def normalize(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)


    def run(name):
        out = em.queries()[name](sf_dir)
        return out if hasattr(out, "columns") else out.to_pandas()


    signal.signal(signal.SIGALRM, stalled)
    signal.alarm({alarm})
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    try:
        import __ray_entry__ as em

        con = duckdb.connect()
        for path in sorted(glob.glob(os.path.join(sf_dir, "*.parquet"))):
            table = os.path.basename(path)[:-len(".parquet")]
            con.execute(f"CREATE VIEW {{table}} AS SELECT * FROM "
                        f"read_parquet('{{path}}')")
        for name in filter(None, checked.split(",")):
            got = normalize(run(name))
            want = normalize(con.execute(em.oracle_sql()[name]).df())
            assert list(got.columns) == list(want.columns), name
            assert len(got) == len(want) > 0, (name, len(got), len(want))
            for c in got.columns:
                assert got[c].astype(str).tolist() \\
                    == want[c].astype(str).tolist(), (name, c)
            print("ok", name, flush=True)
        for name in filter(None, live.split(",")):
            assert len(run(name)) > 0, name
            print("ok", name, flush=True)
    finally:
        ray.shutdown()
""")


def test_split_read_fits_task_output_buffer(ray_session, tmp_path,
                                            monkeypatch):
    """At one CPU, 4 Parquet files are split to reach the block floor; the
    task-output buffer holds more blocks than that split and than the
    floor, so no split read task pauses on its last block."""
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data import DataContext

    from timberjack_ray.rayctx import tune_for_cluster

    ctx = DataContext.get_current()
    for attr in ("read_op_min_num_blocks", "min_parallelism",
                 "default_hash_shuffle_parallelism",
                 "_max_num_blocks_in_streaming_gen_buffer"):
        monkeypatch.setattr(ctx, attr, getattr(ctx, attr))
    tune_for_cluster(1)
    for i in range(4):
        pq.write_table(pa.table({"x": list(range(100 * i, 100 * i + 100))}),
                       tmp_path / f"part-{i}.parquet")
    ds = rd.read_parquet(str(tmp_path)).materialize()
    splits = [int(k) for k in re.findall(r"SplitBlocks\((\d+)\)",
                                         ds.stats())]
    assert splits and max(splits) > 1, ds.stats()
    buffer = ctx._max_num_blocks_in_streaming_gen_buffer
    assert buffer > max(splits), (buffer, splits)
    assert buffer > ctx.read_op_min_num_blocks, buffer


def run_one_cpu(checked: list[str], live: list[str]) -> None:
    # the child's own alarm fires first so it can shut its session down;
    # the subprocess timeout is the backstop
    child = CHILD.format(alarm=TIMEOUT_S - 8)
    proc = subprocess.run(
        [sys.executable, "-c", child, ROOT, SF_DIR, ",".join(checked),
         ",".join(live)],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-3000:]
    done = [line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith("ok ")]
    assert done == checked + live, proc.stdout


def test_broadcast_scoring_stages_finish_on_one_cpu():
    run_one_cpu(QUERIES, [])


def test_task_stages_finish_on_one_cpu():
    run_one_cpu(TASK_STAGE_QUERIES, LIVENESS_QUERIES)
