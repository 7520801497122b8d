"""Round-5 operator regressions: the distributed copurchase-lift degrade
(per-block top-k prune instead of a whole-edge-set driver concat) and the
windowed_counts_sharded fold degrade."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_copurchase_lift_degrade_matches_driver(ray_session, monkeypatch):
    """Force the edge fold past the guard: the distributed per-block
    lift+top-20 path must produce the same 20 rows as the driver path."""
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as em
    import timberjack_ray.aggregates as agg

    want = em.q_copurchase_lift_top20(SF)
    monkeypatch.setattr(agg, "FOLD_GUARD_LIMIT", 10)
    got = em.q_copurchase_lift_top20(SF)
    pd.testing.assert_frame_equal(want, got)
    assert len(got) >= 1  # sf0.001 has few pairs at min-support >= 5


def test_grouped_aggregate_ds_matches_pandas(ray_session):
    """The bucket-exchange grouped aggregate must equal a pandas groupby
    for every op, including duplicate source columns and string keys."""
    import ray.data as rd

    from timberjack_ray.aggregates import grouped_aggregate_ds

    rng = np.random.default_rng(3)
    n = 5000
    df = pd.DataFrame({
        "k1": rng.integers(0, 700, n),
        "k2": rng.choice(list("abcdef"), n),
        "v": rng.integers(-50, 50, n),
    })
    got = grouped_aggregate_ds(
        rd.from_pandas(df).repartition(7), ["k1", "k2"],
        [("v", "sum", "s"), ("v", "min", "lo"), ("v", "max", "hi"),
         ("v", "count_all", "n")], n_buckets=16).to_pandas() \
        .sort_values(["k1", "k2"]).reset_index(drop=True)
    exp = df.groupby(["k1", "k2"], as_index=False).agg(
        s=("v", "sum"), lo=("v", "min"), hi=("v", "max"), n=("v", "size")) \
        .sort_values(["k1", "k2"]).reset_index(drop=True)
    got = got.astype({"s": "int64", "lo": "int64", "hi": "int64",
                      "n": "int64", "k1": "int64"})
    exp = exp.astype({"s": "int64", "lo": "int64", "hi": "int64",
                      "n": "int64", "k1": "int64"})
    pd.testing.assert_frame_equal(got, exp)


def _exchange_grouped_sum(ds, n_buckets):
    from timberjack_ray.aggregates import grouped_aggregate_ds

    return grouped_aggregate_ds(ds, ["k"], [("v", "sum", "s")],
                                n_buckets=n_buckets)


def _exchange_interarrival(ds, n_buckets):
    from timberjack_ray.functions.corpus import interarrival_stats_ds

    return interarrival_stats_ds(ds, "k", "v", n_buckets)


def _exchange_grace_join(ds, n_buckets):
    """GRACE join of ``ds`` with one right row per key; the bucket hook
    keeps one row per key, so each output batch lists one bucket's keys."""
    from timberjack_ray.functions.relational import bucket_hash_join

    right = ds.map_batches(
        lambda t: t.group_by("k").aggregate([]).rename_columns(["rk"]),
        batch_format="pyarrow")
    return bucket_hash_join(
        ds, right, "k", "rk", ["v"], [], n_buckets=n_buckets,
        bucket_fn=lambda t: t.group_by("k").aggregate([]))


@pytest.mark.parametrize("exchange, col, want", [
    (_exchange_grouped_sum, "s", {5: 15, 7: 22, 9: 30, None: 3}),
    # keys with fewer than two events have no gap and no row
    (_exchange_interarrival, "n_gaps", {5: 2, 7: 1}),
], ids=["grouped_aggregate_ds", "interarrival_stats_ds"])
def test_grouped_aggregate_ds_null_keys_consistent(ray_session, exchange,
                                                   col, want):
    """Round-5 review fix, for every bucket exchange: an int key column
    with nulls in SOME batches must bucket identically to null-free
    batches — one output row per key, and null keys form one group."""
    import ray.data as rd

    a = pd.DataFrame({"k": pd.array([5, 7, None, 5], dtype="Int64"),
                      "v": [1, 2, 3, 4]})
    b = pd.DataFrame({"k": pd.array([5, 7, 9], dtype="Int64"),
                      "v": [10, 20, 30]})
    ds = rd.from_pandas(a).union(rd.from_pandas(b))
    got = exchange(ds, 8).to_pandas()
    assert len(got) == len(want), got  # no split keys
    for k, v in want.items():
        rows = got[got["k"].isna()] if k is None else got[got["k"] == k]
        assert rows[col].tolist() == [v], (k, got)


@pytest.mark.parametrize("exchange", [
    _exchange_grouped_sum, _exchange_interarrival, _exchange_grace_join,
], ids=["grouped_aggregate_ds", "interarrival_stats_ds", "bucket_hash_join"])
def test_grouped_aggregate_ds_strided_keys_spread(ray_session, exchange):
    """Round-5 review fix, for every bucket exchange: keys that are
    multiples of 256 (hourly µs window starts) must spread over buckets,
    not alias into bucket 0."""
    import ray.data as rd

    ks = np.arange(64, dtype=np.int64) * 3_600_000_000
    df = pd.DataFrame({"k": np.repeat(ks, 3), "v": np.arange(3 * 64)})
    got = exchange(rd.from_pandas(df).repartition(4), 16) \
        .map_batches(lambda t: pa.table(
            {"n": pa.array([t.num_rows], pa.int64())}),
            batch_format="pyarrow").to_pandas()
    # avalanche check: no single bucket holds more than half the keys
    assert got["n"].max() <= 32, got["n"].tolist()
    assert got["n"].sum() == 64


def test_grouped_aggregate_ds_fuzz_vs_pandas(ray_session):
    """Hypothesis-style fuzz (deterministic seeds): random key domains —
    including strided ints, negatives and nulls — must always match a
    pandas groupby, for any bucket count and partitioning."""
    import ray.data as rd

    from timberjack_ray.aggregates import grouped_aggregate_ds

    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 2000))
        stride = int(rng.choice([1, 2, 256, 4096, 3_600_000_000]))
        k = rng.integers(-20, 20, n) * stride
        null_mask = rng.random(n) < 0.1
        kk = pd.array(k, dtype="Int64")
        kk[null_mask] = None
        df = pd.DataFrame({"k": kk, "v": rng.integers(-9, 9, n)})
        got = grouped_aggregate_ds(
            rd.from_pandas(df).repartition(int(rng.integers(1, 6))),
            ["k"], [("v", "sum", "s"), ("v", "max", "hi")],
            n_buckets=int(rng.choice([2, 16, 256]))).to_pandas()
        exp = df.groupby("k", dropna=False, as_index=False) \
            .agg(s=("v", "sum"), hi=("v", "max"))
        got = got.sort_values("k", na_position="last") \
            .reset_index(drop=True)
        exp = exp.sort_values("k", na_position="last") \
            .reset_index(drop=True)
        assert len(got) == len(exp), (seed, len(got), len(exp))
        assert got["s"].astype("int64").tolist() \
            == exp["s"].astype("int64").tolist(), seed
        assert got["hi"].astype("int64").tolist() \
            == exp["hi"].astype("int64").tolist(), seed


def test_widest_bf_seed_absent_parity(ray_session):
    """Round-5 review fix: an explicit seed absent from the edge set
    yields the same (empty) result on the driver and distributed paths."""
    import ray.data as rd

    from timberjack_ray.functions.graph import (bellman_ford_bounded,
                                                widest_path_bounded)

    ed = pd.DataFrame({"u": [1, 2], "v": [2, 3], "w": [4, 5]})
    for fn, val in ((widest_path_bounded, "width"),
                    (bellman_ford_bounded, "dist")):
        drv = fn(ed, seed=99, rounds=3)
        dst = fn(rd.from_pandas(ed).repartition(2), seed=99, rounds=3,
                 driver_limit=0)
        pd.testing.assert_frame_equal(drv, dst)
        assert len(drv) == 0


def _random_weighted_graph(n_edges=400, n_nodes=60, seed=5):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    v = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    m = u != v
    w = rng.integers(1, 50, n_edges).astype(np.int64)
    return pd.DataFrame({"u": u[m], "v": v[m], "w": w[m]})


def test_widest_path_distributed_matches_driver(ray_session):
    """Round 5: the (max, min)-semiring broadcast-map degrade must equal
    the driver numpy relaxation on the same bounded-round semantics."""
    import ray.data as rd

    from timberjack_ray.functions.graph import widest_path_bounded

    ed = _random_weighted_graph()
    a = widest_path_bounded(ed, rounds=4)
    b = widest_path_bounded(rd.from_pandas(ed).repartition(5), rounds=4,
                            driver_limit=0)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 1


def test_bellman_ford_distributed_matches_driver(ray_session):
    import ray.data as rd

    from timberjack_ray.functions.graph import bellman_ford_bounded

    ed = _random_weighted_graph(seed=9)
    a = bellman_ford_bounded(ed, rounds=4)
    b = bellman_ford_bounded(rd.from_pandas(ed).repartition(5), rounds=4,
                             driver_limit=0)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 1


def test_windower_sharded_fold_degrade(ray_session, monkeypatch):
    """Past fold_limit partial rows the windower merge degrades to a
    distributed groupby Sum; the result must not change."""
    import ray.data as rd

    from timberjack_ray.functions.window import windowed_counts_sharded

    ids = np.arange(3000, dtype=np.uint64)
    ts = (ids.astype(np.int64) * 3_607_000_000) % (24 * 3600 * 1_000_000)
    t = pa.table({
        "shard": (ids % np.uint64(4)).astype(np.int64),
        "ak": ts,  # in-order arrival
        "event_id": ids.astype(np.int64),
        "ts_us": ts,
    })
    kw = dict(shard_col="shard", arrival_col="ak", id_col="event_id",
              ts_us_col="ts_us", width_s=3600, lateness_s=1800)
    a = windowed_counts_sharded(rd.from_arrow(t).repartition(3), **kw)
    b = windowed_counts_sharded(rd.from_arrow(t).repartition(3),
                                fold_limit=1, **kw)
    pd.testing.assert_frame_equal(a, b)
    assert a["n"].sum() == 3000
