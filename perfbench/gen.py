"""Input generator and oracle: one process, no Ray, at most nproc threads.

    python3 -m perfbench.gen '{"seed": 3, "scale": 1, "inputs": ["mixed"], "work": ".pbrun"}'

For each named input (``workloads.SEQ_INPUTS`` / ``workloads.TABLE_INPUTS``)
it writes the parquet files and the expected outputs into
``<work>/in/<input>-s<seed>-x<scale>-v<GEN_VERSION>/`` and finishes with
``_DONE.json``; an input whose ``_DONE.json`` exists is reused.  Expected
outputs are the single-process ``oracle.analyze_lines`` summary over the
decoded lines (sequences inputs) and the DuckDB ``oracle_sql()`` result of
every entry query (table inputs).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from perfbench import workloads as W


def input_dir(work: str, name: str, seed: int, scale: float) -> str:
    return os.path.join(work, "in",
                        f"{name}-s{seed}-x{scale:g}-v{W.GEN_VERSION}")


def scaled(n: int, scale: float) -> int:
    return max(int(n * scale), 100)


def oracle_summary(lines, cfg: dict) -> dict:
    """The report fields the benchmark checks, from the per-line oracle."""
    from timberjack_ray import kernels, oracle

    o = oracle.analyze_lines(
        lines, fmt=cfg["fmt"],
        field_filters=kernels.parse_field_filter_args(cfg.get("fields", [])),
        collect_trends=cfg["trend"], collect_stats=cfg["stats"])
    return {"total": o.count, "levels": o.levels_count,
            "errors": o.error_types, "trends": o.time_trends,
            "unique": len(o.unique_messages)}


def make_sequences(out: str, name: str, seed: int, scale: float) -> dict:
    import pyarrow.parquet as pq

    from timberjack_ray import vocab
    from timberjack_ray.data import synth

    spec = W.SEQ_INPUTS[name]
    rows, files = scaled(spec["rows"], scale), spec["files"]
    start = seed * W.SEED_STRIDE
    bounds = [start + rows * k // files for k in range(files + 1)]
    lines: list[str] = []
    for k in range(files):
        t = synth.make_batch(bounds[k], bounds[k + 1], spec["json_frac"])
        pq.write_table(t, os.path.join(out, f"part-{k:03d}.parquet"),
                       row_group_size=32_768)
        lines += vocab.detokenize(t["tokens"]).to_pylist()
    oracles = {wl: oracle_summary(lines, w["cfg"])
               for wl, w in W.WORKLOADS.items() if w.get("input") == name}
    nbytes = sum(os.path.getsize(os.path.join(out, f))
                 for f in os.listdir(out))
    return {"rows": rows, "mb": nbytes / 2**20, "oracles": oracles}


# the documents' vocabulary in the test tables; "dup" only ends near-copies
WORDS = ("a agg batch big column customer data fast filter group hash join key "
         "line merge order part query row scan slow small sort spark stream "
         "table the value vector window").split()
DAY_US = 86_400 * 10**6


def table_rows(sf: float) -> dict:
    """Row counts at scale factor ``sf``, in the ratios of the sf0.1 test
    tables (which floor documents at 500 below sf 0.01; this does not)."""
    orders = max(round(1_500_000 * sf), 100)
    return {"docs": max(round(50_000 * sf), 100),
            "events": max(round(1_000_000 * sf), 100),
            "users": max(round(15_000 * sf), 2),
            "customers": max(round(150_000 * sf), 10),
            "orders": orders, "lineitem": 4 * orders}


def make_tables(out: str, name: str, seed: int, scale: float) -> dict:
    """Documents, events, orders and lineitem in the shape of the
    repository's sf0.1 test tables (``perfbench.shape.SF01``), at the
    scale factor of ``TABLE_INPUTS[name]`` times ``scale``.

    Documents are 10–99 words drawn uniformly from a 30-word vocabulary;
    5 % of them are then replaced by a copy of a random document with
    " dup" appended, which makes ~10 % of documents share an 8-word span
    and a few exact duplicates.  Events spread 66.7 per user uniformly
    over 30 days; orders have 4 lineitems each on average, on uniformly
    drawn order keys."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    spec = table_rows(W.TABLE_INPUTS[name]["sf"] * scale)
    rng = np.random.default_rng(seed)
    nd = spec["docs"]
    vocab = np.array(WORDS)
    texts = [" ".join(vocab[rng.integers(0, len(vocab), int(k))])
             for k in rng.integers(10, 100, nd)]
    for i in rng.choice(nd, size=round(0.05 * nd), replace=False):
        texts[i] = texts[int(rng.integers(0, nd))] + " dup"
    langs = np.array(["en", "zh", "es", "fr", "de"])
    docs = pa.table({
        "doc_id": pa.array(np.arange(nd), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs[rng.choice(5, nd, p=[.4, .15, .15, .15,
                                                     .15])]),
        "source": pa.array([f"src{i % 20}" for i in range(nd)]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })

    ne = spec["events"]
    ts = np.sort(rng.integers(0, 30 * DAY_US, ne)) + 1_704_067_200 * 10**6
    types = np.array(["view", "click", "purchase", "signup", "error"])
    events = pa.table({
        "event_id": pa.array(np.arange(ne), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, spec["users"], ne), pa.int64()),
        "event_type": pa.array(types[rng.integers(0, 5, ne)]),
        "value": pa.array(np.round(rng.exponential(50.0, ne), 2)),
        "props": pa.array([f'{{"k": {k}}}'
                           for k in rng.integers(0, 100, ne)]),
    })

    no, nl = spec["orders"], spec["lineitem"]
    prios = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                      "5-LOW"])
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(no), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, spec["customers"], no),
                              pa.int64()),
        "o_orderpriority": pa.array(prios[rng.integers(0, 5, no)]),
        "o_totalprice": pa.array(np.round(rng.uniform(1e3, 5e5, no), 2)),
    })
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, no, nl), pa.int64()),
        "l_quantity": pa.array(rng.integers(1, 51, nl).astype(np.float64)),
        "l_extendedprice": pa.array(np.round(rng.uniform(900, 105_000, nl),
                                             2)),
    })
    counts = {}
    for tname, t in (("documents", docs), ("events", events),
                     ("orders", orders), ("lineitem", lineitem)):
        pq.write_table(t, os.path.join(out, f"{tname}.parquet"))
        counts[tname] = t.num_rows
    return {"rows": counts, "oracles": entry_oracles(out)}


def entry_oracles(sf_dir: str) -> list[str]:
    """DuckDB ``oracle_sql()`` result of every entry query, written as
    ``oracle-<query>.parquet`` next to the tables."""
    import duckdb

    import __ray_entry__ as em

    sql = em.oracle_sql()
    con = duckdb.connect()
    con.execute(f"SET threads TO {W.nproc()}")
    for t in ("documents", "events", "orders", "lineitem"):
        path = os.path.join(sf_dir, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    names = W.ENTRY_QUERIES + W.STALL_PROBES
    for q in names:
        con.execute(sql[q]).arrow().to_pandas().to_parquet(
            os.path.join(sf_dir, f"oracle-{q}.parquet"), index=False)
    con.close()
    return names


def ensure(work: str, name: str, seed: int, scale: float) -> dict:
    """Generate input ``name`` for ``seed`` unless cached; → its record."""
    final = input_dir(work, name, seed, scale)
    done = os.path.join(final, "_DONE.json")
    if os.path.exists(done):
        with open(done) as f:
            return dict(json.load(f), cached=True)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    t0 = time.perf_counter()
    if name in W.SEQ_INPUTS:
        rec = make_sequences(tmp, name, seed, scale)
    else:
        rec = make_tables(tmp, name, seed, scale)
    rec["gen_s"] = time.perf_counter() - t0
    with open(os.path.join(tmp, "_DONE.json"), "w") as f:
        json.dump(rec, f)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return dict(rec, cached=False)


def main() -> None:
    plan = json.loads(sys.argv[1])
    import pyarrow as pa

    pa.set_cpu_count(W.nproc())
    pa.set_io_thread_count(W.nproc())
    recs = {n: ensure(plan["work"], n, plan["seed"], plan["scale"])
            for n in plan["inputs"]}
    print(json.dumps({n: {"gen_s": r["gen_s"], "cached": r["cached"],
                          "rows": r["rows"]} for n, r in recs.items()}))


if __name__ == "__main__":
    main()
