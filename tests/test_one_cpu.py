"""One-CPU liveness of the broadcast-scoring stages.

``text.bigram_lm_scores``, ``corpus.top_discriminative_term`` and
``corpus.rare_bigram_counts`` run as task maps that fetch their model once
per worker.  As fixed two-actor pools they held the only CPU of a one-CPU
session, their upstream read never ran, and the queries built on them
hung.  The suite's own session has 4 CPUs, so the check runs a one-CPU
session in a subprocess and compares each query with its DuckDB oracle.
"""

import os
import subprocess
import sys
import textwrap

from tests.test_entry_queries import SF_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERIES = ["curation_pipeline_v2", "rare_bigram_counts", "doc_top_term"]
TIMEOUT_S = 60

CHILD = textwrap.dedent("""
    import signal
    import sys

    root, sf_dir, names = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, root)
    import duckdb
    import ray


    def stalled(*_):
        raise TimeoutError("one-CPU run stalled")


    def normalize(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)


    signal.signal(signal.SIGALRM, stalled)
    signal.alarm({alarm})
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    try:
        import __ray_entry__ as em

        con = duckdb.connect()
        con.execute("CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{{sf_dir}}/documents.parquet')")
        for name in names:
            got = normalize(em.queries()[name](sf_dir))
            want = normalize(con.execute(em.oracle_sql()[name]).df())
            assert list(got.columns) == list(want.columns), name
            assert len(got) == len(want) > 0, (name, len(got), len(want))
            for c in got.columns:
                assert got[c].astype(str).tolist() \\
                    == want[c].astype(str).tolist(), (name, c)
            print("ok", name, flush=True)
    finally:
        ray.shutdown()
""")


def test_broadcast_scoring_stages_finish_on_one_cpu():
    # the child's own alarm fires first so it can shut its session down;
    # the subprocess timeout is the backstop
    child = CHILD.format(alarm=TIMEOUT_S - 8)
    proc = subprocess.run(
        [sys.executable, "-c", child, ROOT, SF_DIR, *QUERIES],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-3000:]
    done = [line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith("ok ")]
    assert done == QUERIES, proc.stdout
