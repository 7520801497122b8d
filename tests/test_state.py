"""Stream policies (state/): state fuzz against Python references, the
in-process front-ends on planted cross-batch cases, the ingest job, and
the exchange form against the sequential replay."""
import numpy as np
import pyarrow as pa


def test_shard_state_vs_set_reference():
    """_ShardState.probe_insert must claim exactly the first arrival of
    every hash across any call sequence."""
    from timberjack_ray.state.dedup_index import _ShardState

    rng = np.random.RandomState(83)
    for trial in range(5):
        st = _ShardState()
        seen: set = set()
        for _call in range(rng.randint(1, 8)):
            h = rng.randint(0, 40, size=rng.randint(0, 30)) \
                .astype(np.uint64)
            got = st.probe_insert(h)
            expect = np.zeros(len(h), dtype=bool)
            local = set()
            for i, x in enumerate(h.tolist()):
                if x not in seen and x not in local:
                    expect[i] = True
                    local.add(x)
            seen |= local
            assert got.tolist() == expect.tolist(), (trial, h, got, expect)
        assert st.size() == len(seen)


def test_streaming_deduper_cross_batch():
    """Planted dups across micro-batches: first arrival survives, later
    copies are dropped, index size = distinct texts."""
    from timberjack_ray.state.dedup_index import StreamingDeduper

    batches = [
        pa.table({"doc_id": [1, 2, 3], "text": ["aa", "bb", "aa"]}),
        pa.table({"doc_id": [4, 5], "text": ["bb", "cc"]}),
        pa.table({"doc_id": [6], "text": ["aa"]}),
        pa.table({"doc_id": [], "text": []}),
    ]
    d = StreamingDeduper()
    out = [d.filter_batch(b, col="text") for b in batches]
    assert out[0]["doc_id"].to_pylist() == [1, 2]   # in-batch dup 3
    assert out[1]["doc_id"].to_pylist() == [5]       # 4 dups batch-0
    assert out[2].num_rows == 0
    assert out[3].num_rows == 0
    assert d.size() == 3


def test_streaming_deduper_matches_batch_dedup():
    """Feeding sorted arrivals must reproduce batch exact_dedup's min-id
    winners on a random corpus with heavy duplication."""
    from timberjack_ray.state.dedup_index import StreamingDeduper

    rng = np.random.RandomState(89)
    texts = [f"t{rng.randint(0, 12)}" for _ in range(60)]
    ids = list(range(60))
    expect = {}
    for i, t in zip(ids, texts):
        expect.setdefault(t, i)
    want = sorted(expect.values())

    got = []
    d = StreamingDeduper()
    for lo in range(0, 60, 7):
        b = pa.table({"doc_id": ids[lo:lo + 7],
                      "text": texts[lo:lo + 7]})
        got += d.filter_batch(b, col="text")["doc_id"].to_pylist()
    assert sorted(got) == want


def test_lsh_shard_state_reference():
    """Bucket probe+insert returns exactly the prior occupants and caps
    degenerate buckets."""
    import numpy as np

    from timberjack_ray.state.lsh_index import _LshShardState

    st = _LshShardState(max_bucket=2)
    k = np.array([7, 7, 9], np.int64)
    i = np.array([1, 2, 3], np.int64)
    n, s = st.probe_insert_buckets(k, i)
    assert n.tolist() == [2] and s.tolist() == [1]   # 2 saw 1 in bucket 7
    n, s = st.probe_insert_buckets(np.array([7], np.int64),
                                   np.array([4], np.int64))
    assert sorted(s.tolist()) == [1, 2]               # cap=2: 4 not stored
    n, s = st.probe_insert_buckets(np.array([7], np.int64),
                                   np.array([5], np.int64))
    assert sorted(s.tolist()) == [1, 2]


def test_streaming_near_dup_planted():
    """Planted cross-batch near-dups are found with high n_eq; unrelated
    docs produce no pairs; exact copies score n_eq = num_perm."""
    import numpy as np
    import pyarrow as pa

    from timberjack_ray.state.lsh_index import StreamingNearDup

    rng = np.random.RandomState(97)
    base = " ".join(f"w{rng.randint(0, 50)}" for _ in range(40))
    near = base.rsplit(" ", 2)[0] + " zz1 zz2"        # ~95% shingle overlap
    other = " ".join(f"q{j}" for j in range(40))

    b1 = pa.table({"doc_id": [1, 2], "text": [base, other]})
    b2 = pa.table({"doc_id": [3, 4, 5],
                   "text": [near, base, " ".join(f"r{j}" for j in range(30))]})
    idx = StreamingNearDup(num_perm=64, bands=16, min_eq=32)
    p1 = idx.process_batch(b1)
    assert len(p1) == 0
    p2 = idx.process_batch(b2)
    got = {(r.new_id, r.seen_id): r.n_eq
           for r in p2.itertuples(index=False)}
    assert (4, 1) in got and got[(4, 1)] == 64    # exact copy
    assert (3, 1) in got and got[(3, 1)] >= 32    # planted near-dup
    assert all(new in (3, 4) for new, _ in got)   # no false pairs for 5
    assert idx.n_docs() == 5


def test_quota_shard_prefix_rule():
    """The first overflowing doc closes its group — later smaller docs are
    rejected (the monotone running-sum-window contract)."""
    import numpy as np

    from timberjack_ray.state.quota import _QuotaShardState

    st = _QuotaShardState(budget=10)
    keep = st.admit(["a", "a", "a", "b"],
                    np.array([6, 5, 1, 10], np.int64))
    # a: 6 ok; 6+5 overflows -> closed; the 1 would fit but group closed
    assert keep.tolist() == [True, False, False, True]
    assert st.totals() == {"a": 6, "b": 10}


def test_quota_admitter_vs_window_oracle():
    """Random arrivals in id order through the admitter must equal the
    running-sum-window replay."""
    import numpy as np
    import pyarrow as pa

    from timberjack_ray.state.quota import QuotaAdmitter

    rng = np.random.RandomState(101)
    n = 80
    ids = np.arange(n)
    grp = [f"g{rng.randint(0, 4)}" for _ in range(n)]
    w = rng.randint(1, 30, n).astype(np.int64)

    cum: dict = {}
    expect = []
    for i in range(n):
        c = cum.get(grp[i], 0) + int(w[i])
        cum[grp[i]] = c
        if c <= 50:
            expect.append(i)

    got = []
    q = QuotaAdmitter(budget=50)
    for lo in range(0, n, 13):
        b = pa.table({"doc_id": ids[lo:lo + 13],
                      "g": grp[lo:lo + 13],
                      "w": w[lo:lo + 13]})
        got += q.filter_batch(b, "g", "w")["doc_id"].to_pylist()
    assert got == expect


def test_ingest_job_end_to_end(ray_session, tmp_path):
    """jobs/ingest_job.py over two shards with planted cross-shard dups:
    exact dups dropped, quota enforced, resume skips existing output
    while still feeding the indexes."""
    import json
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    sys.path.insert(0, "/root/repo")
    from jobs.ingest_job import main

    d_in = tmp_path / "in"
    d_out = tmp_path / "out"
    d_in.mkdir()
    pq.write_table(pa.table({
        "doc_id": [1, 2, 3],
        "source": ["a", "a", "b"],
        "text": ["one one one one", "two two two two",
                 "three three x y"],
        "n_chars": [15, 15, 15]}), str(d_in / "s0.parquet"))
    pq.write_table(pa.table({
        "doc_id": [4, 5],
        "source": ["a", "b"],
        "text": ["one one one one",          # exact dup of doc 1
                 "five six seven eight"],
        "n_chars": [15, 20]}), str(d_in / "s1.parquet"))

    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["--input", str(d_in / "*.parquet"),
                   "--out-dir", str(d_out), "--budget", "30"])
    assert rc == 0
    m = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert m["rows_in"] == 5 and m["exact_dups_dropped"] == 1
    # budget 30: a admits 1+2 (15+15 = 30 exactly); b admits 3 (15)
    # and rejects 5 (15+20 > 30, prefix rule)
    assert m["quota_rejected"] == 1 and m["rows_out"] == 3
    import duckdb
    assert duckdb.sql(
        f"SELECT COUNT(*) FROM '{d_out}/*.parquet'").fetchone()[0] == 3

    # resume: both outputs exist -> skipped, stream still flows
    buf2 = io.StringIO()
    with contextlib.redirect_stdout(buf2):
        rc = main(["--input", str(d_in / "*.parquet"),
                   "--out-dir", str(d_out), "--budget", "30"])
    m2 = json.loads(buf2.getvalue().strip().splitlines()[-1])
    # s1 had zero survivors but still wrote a schema-only marker file,
    # so BOTH shards skip on resume
    assert m2["skipped_existing"] == 2 and m2["rows_out"] == 3


def test_streaming_chunk_deduper_planted():
    """StreamingChunkDeduper: an exact re-crawl is 100% dup chars; an
    edited re-crawl is mostly dup (boundary resync) with new chars near
    the edit; batch order determines which copy pays the novelty."""
    import numpy as np
    import pyarrow as pa

    from timberjack_ray.state.cdc_index import StreamingChunkDeduper

    rng = np.random.RandomState(31)
    words = [f"s{i}" for i in range(3000)]
    base = " ".join(rng.choice(words, 700))
    edited = base[:1000] + " EDITWORD " + base[1000:]
    b1 = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                   "text": [base, "unrelated fresh text " * 20]})
    b2 = pa.table({"doc_id": pa.array([3, 4, 5], pa.int64()),
                   "text": [base, edited, ""]})
    d = StreamingChunkDeduper()
    r1 = d.account_batch(b1).to_pandas().set_index("doc_id")
    r2 = d.account_batch(b2).to_pandas().set_index("doc_id")
    size_after = d.size()
    # first sight of base: all chunks new
    assert r1.loc[1, "dup_chars"] == 0
    assert r1.loc[1, "new_chars"] == len(base)
    # exact re-crawl: zero new chars
    assert r2.loc[3, "new_chars"] == 0
    assert r2.loc[3, "dup_chars"] == len(base)
    # edited re-crawl: mostly dup, some new near the edit
    assert r2.loc[4, "dup_chars"] > 0.8 * len(edited)
    assert r2.loc[4, "n_new_chunks"] >= 1
    # empty doc: zero row present
    assert r2.loc[5].sum() == 0
    # index holds each distinct chunk once
    assert size_after == int(r1["n_new_chunks"].sum()
                             + r2["n_new_chunks"].sum())


def test_ingest_job_chunk_novelty_policy(ray_session, tmp_path):
    """--min-new-frac drops an edited re-crawl (mostly-shared chunks)
    while genuinely new docs pass; metrics carry the char accounting."""
    import contextlib
    import io
    import json
    import sys

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    sys.path.insert(0, "/root/repo")
    from jobs.ingest_job import main

    rng = np.random.RandomState(41)
    words = [f"n{i}" for i in range(3000)]
    base = " ".join(rng.choice(words, 600))
    edited = base[:500] + " NEWBIT " + base[500:]
    other = " ".join(rng.choice(words, 600))
    d_in = tmp_path / "in"
    d_out = tmp_path / "out"
    d_in.mkdir()
    pq.write_table(pa.table({
        "doc_id": [1, 2], "source": ["a", "b"],
        "text": [base, other],
        "n_chars": [len(base), len(other)]}), str(d_in / "s0.parquet"))
    pq.write_table(pa.table({
        "doc_id": [3], "source": ["a"],
        "text": [edited],                    # near-total chunk overlap
        "n_chars": [len(edited)]}), str(d_in / "s1.parquet"))

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["--input", str(d_in / "*.parquet"),
                   "--out-dir", str(d_out), "--min-new-frac", "0.5"])
    assert rc == 0
    m = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert m["rows_in"] == 3 and m["exact_dups_dropped"] == 0
    assert m["stale_dropped"] == 1            # the edited re-crawl
    assert m["rows_out"] == 2
    assert m["dup_chars"] > 0.8 * len(edited)
    assert m["new_chars"] >= len(base) + len(other)


def test_topk_shard_state_mg_guarantees():
    """Misra-Gries invariants under a random stream: err <= n/(k+1);
    every key with true count > err survives; estimates under-count by
    at most err."""
    from timberjack_ray.state.topk_index import _ShardState

    rng = np.random.RandomState(3)
    k = 16
    s = _ShardState(k)
    truth = {}
    # zipf-ish stream: a few hot keys + a long uniform tail, many batches
    for _ in range(30):
        hot = np.repeat(np.array(["h1", "h2", "h3"], dtype=object),
                        rng.randint(5, 25, 3))
        tail = np.array([f"t{v}" for v in rng.randint(0, 500, 80)],
                        dtype=object)
        batch = np.concatenate([hot, tail])
        uk, cnt = np.unique(batch, return_counts=True)
        s.add(uk, cnt)
        for x, c in zip(uk.tolist(), cnt.tolist()):
            truth[x] = truth.get(x, 0) + int(c)
    n = sum(truth.values())
    assert s.n_seen == n
    assert s.err <= n // (k + 1)
    est = dict(zip(s.counts.index.tolist(), s.counts.to_numpy().tolist()))
    for x, c in truth.items():
        if c > s.err:
            assert x in est, (x, c, s.err)
        if x in est:
            assert c - s.err <= est[x] <= c, (x, c, est[x], s.err)


def test_streaming_topk_planted_heavy_hitters():
    from timberjack_ray.state.topk_index import StreamingTopK

    rng = np.random.RandomState(9)
    truth = {}
    hh = StreamingTopK(k=32)
    for _ in range(20):
        hot = np.repeat(np.array(["alpha", "beta"], dtype=object),
                        [40, 25])
        tail = np.array([f"w{v}" for v in rng.randint(0, 2000, 100)],
                        dtype=object)
        batch = np.concatenate([hot, tail])
        rng.shuffle(batch)
        hh.add_keys(batch)
        for x in batch.tolist():
            truth[x] = truth.get(x, 0) + 1
    top = hh.topk(5)
    assert top.loc[0, "key"] == "alpha" and top.loc[1, "key"] == "beta"
    for _, r in top.iterrows():
        true = truth[r["key"]]
        assert true - r["err"] <= r["n_lo"] <= true


def test_rate_shard_window_reset():
    from timberjack_ray.state.rate_limit import _RateShardState

    s = _RateShardState(k=2, window_us=100)
    #          t:   0   10  20  120 130 140 210
    keep = s.admit(["u"] * 7,
                   np.array([0, 10, 20, 120, 130, 140, 210], np.int64))
    # window 0: first 2 admitted; window 1: resets, first 2; window 2: 1
    assert keep.tolist() == [True, True, False, True, True, False, True]
    assert s.n_keys() == 1  # one live counter, not one per window


def test_rate_limiter_vs_window_oracle():
    import duckdb
    import pandas as pd

    from timberjack_ray.state.rate_limit import RateLimiter

    rng = np.random.default_rng(8)
    n = 4000
    df = pd.DataFrame({
        "id": np.arange(n, dtype="int64"),
        "k": rng.integers(0, 30, n).astype("int64"),
        "t": np.sort(rng.integers(0, 3_000_000, n)).astype("int64"),
    })
    kept = []
    arrivals = pa.Table.from_pandas(df.sort_values(["t", "id"]),
                                    preserve_index=False)
    rl = RateLimiter(k=3, window_s=1)  # 1s windows (us ts)
    for lo in range(0, n, 300):
        f = rl.filter_batch(arrivals.slice(lo, 300), "k", "t")
        if f.num_rows:
            kept.append(f.to_pandas())
    got = pd.concat(kept).sort_values("id")["id"].tolist()

    con = duckdb.connect()
    con.register("ev", df)
    exp = con.execute("""
        SELECT id FROM (
          SELECT id, ROW_NUMBER() OVER (
            PARTITION BY k, t // 1000000 ORDER BY t, id) AS rn
          FROM ev) WHERE rn <= 3 ORDER BY id""").df()["id"].tolist()
    assert got == exp


def test_chunk_novelty_stage_distributed_invariants(ray_session):
    """``chunk_novelty`` (one exchange on the chunk hash, first arrival in
    (doc_id, chunk_idx) order) must equal the sequential replay exactly:
    per-source n_chunks and new/dup split, so also the GLOBAL new_chars
    (a hash is claimed exactly once; same hash ⇒ same len).  Re-crawls
    are planted within a source and across sources, and a source whose
    only doc is empty keeps a zero row."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from timberjack_ray.state.cdc_index import (StreamingChunkDeduper,
                                                chunk_novelty)

    rng = np.random.RandomState(7)
    words = [f"w{i}" for i in range(2000)]
    docs, srcs = [], []
    for i in range(120):
        docs.append(" ".join(rng.choice(words, 150)))
        srcs.append(f"src{i % 3}")
    # exact re-crawls within one source, then across sources
    for i in range(20):
        docs.append(docs[i])
        srcs.append(srcs[i])
    for i in range(20, 30):
        docs.append(docs[i])
        srcs.append(f"src{(i + 1) % 3}")
    docs.append("")
    srcs.append("src_empty")
    t = pa.table({"doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
                  "text": docs, "source": srcs})

    # sequential reference
    ref = StreamingChunkDeduper().account_batch(
        t.select(["doc_id", "text"])).to_pandas()
    ref["source"] = ref["doc_id"].map(dict(zip(range(len(srcs)), srcs)))
    want = ref.groupby("source")[["n_chunks", "new_chars", "dup_chars"]] \
        .sum().reset_index()

    got = chunk_novelty(rd.from_arrow(t).repartition(6), "text", "doc_id",
                        "source").to_pandas()
    got = got.sort_values("source").reset_index(drop=True)
    want = want.sort_values("source").reset_index(drop=True)
    assert got.loc[got["source"] == "src_empty",
                   ["n_chunks", "new_chars", "dup_chars"]] \
        .to_numpy().tolist() == [[0, 0, 0]]
    # re-crawled chunks count as dup, not new
    assert int(got["dup_chars"].sum()) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
