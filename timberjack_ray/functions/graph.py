"""Distributed connected components over a pair-edge Dataset.

The dedup family (MinHash/SimHash/embedding near-dup) produces verified
candidate PAIRS; grouping them into duplicate clusters is a connected-
components problem.  Rounds 1-2 ran union-find on the driver under the
documented assumption |pairs| ≪ |docs| — this module removes that driver
assumption: past ``driver_limit`` edges the components are computed by
ITERATIVE MIN-LABEL PROPAGATION entirely inside Ray Data:

    labels ← (node, node)                      # init: every node labels itself
    repeat:
        prop   = edges  ⋈ labels on src        # neighbours' labels
        jump   = labels ⋈ labels on label=node # pointer jumping: l(l(n))
        labels = (labels ∪ prop ∪ jump).groupby(node).Min(label)
        stop when sum(label) is unchanged      # labels only ever decrease

i.e. l'(n) = min(l(n), min_{v∈N(n)} l(v), l(l(n))).  Both GRACE bucket
joins and the Min fold fuse into ONE streaming execution per round over
(node, label) pairs — never the raw documents.  The pointer-jumping term
halves the remaining label-chain depth every round, so convergence is
O(log diameter) rounds instead of O(diameter), and the shallow clusters
near-dup actually produces converge in 2-3.  The label table is
repartitioned to a fixed block count before each materialize — without
that, every round's union(+join fan-out) compounds the block count and
round N pays O(N) scheduling overhead for the same data.  The label is
the MIN node id of the component — the same canonical representative the
driver union-find produces, so both paths are interchangeable and
equality-tested.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from timberjack_ray.aggregates import (bucket_exchange, grouped_aggregate_ds,
                                       merge_partials)


def _union_find_components(a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Driver path: classic union-find with min-id representatives."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
    nodes = sorted(set(a.tolist()) | set(b.tolist()))
    return pd.DataFrame({"node": nodes,
                         "component": [find(n) for n in nodes]})


def connected_components(pairs_ds, a_col: str = "a", b_col: str = "b",
                         max_iters: int = 50,
                         driver_limit: int = 2_000_000,
                         n_buckets: int = 64, n_blocks: int = 32):
    """(node, component) for the undirected graph of (a, b) edges;
    ``component`` = min node id in the component.  Node ids must be int64.

    Under ``driver_limit`` edges the fold is driver-side union-find (the
    |pairs| ≪ |docs| near-dup case); past it the distributed min-label
    propagation above runs — the 100 TB path, where neither the edge list
    nor the label table ever lands on the driver (only the scalar
    fixpoint aggregate does).  ``n_buckets`` sizes the GRACE joins so a
    bucket fits a worker heap; ``n_blocks`` is the fixed label-table
    block count (≈ cluster cores).  Returns pandas under the limit, a
    Dataset of (node, component) above it.
    """
    import pyarrow.compute as pc
    import ray.data as rd

    from timberjack_ray.functions.relational import bucket_hash_join
    from timberjack_ray.functions.util import collect_table_under

    small = collect_table_under(pairs_ds, driver_limit)
    if small is not None:
        a = small[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = small[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out = _union_find_components(a, b)
        out.attrs["mode"] = "driver"
        return out

    # distributed: materialize both edge directions once (consumed every
    # round), labels start as (node, node)
    def both_dirs(t: pa.Table) -> pa.Table:
        a = pc.cast(t[a_col], pa.int64())
        b = pc.cast(t[b_col], pa.int64())
        return pa.table({
            "src": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a,
                                     b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b]),
            "dst": pa.concat_arrays([b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b,
                                     a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a]),
        })

    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow") \
        .repartition(n_blocks).materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["src"], "label": t["src"]})

    labels = grouped_aggregate_ds(
        edges.map_batches(init_labels, batch_format="pyarrow"),
        ["node"], [("label", "min", "label")]) \
        .repartition(n_blocks).materialize()

    def as_nl(node_col: str, label_col: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"node": t[node_col], "label": t[label_col]})
        return f

    prev_sum = None
    for _ in range(max_iters):
        # propagate: every edge carries its src's label to dst
        prop = bucket_hash_join(
            edges, labels, "src", "node",
            left_cols=["dst"], right_cols=["label"], n_buckets=n_buckets) \
            .map_batches(as_nl("dst", "label"), batch_format="pyarrow")
        # pointer jumping on the CURRENT labels: l(l(n)) — still halves
        # chain depth at the fixpoint and lets prop+jump+Min fuse into one
        # streaming execution per round
        lhs = labels.map_batches(
            lambda t: pa.table({"lbl": t["label"], "child": t["node"]}),
            batch_format="pyarrow")
        rhs = labels.map_batches(
            lambda t: pa.table({"node2": t["node"], "lbl2": t["label"]}),
            batch_format="pyarrow")
        jump = bucket_hash_join(lhs, rhs, "lbl", "node2",
                                left_cols=["child"], right_cols=["lbl2"],
                                n_buckets=n_buckets) \
            .map_batches(as_nl("child", "lbl2"), batch_format="pyarrow")
        labels = grouped_aggregate_ds(
            labels.union(prop).union(jump),
            ["node"], [("label", "min", "label")]) \
            .repartition(n_blocks).materialize()
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    return labels.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "component": t["label"]}),
        batch_format="pyarrow")


# -- deterministic integer PageRank -----------------------------------------

PAGERANK_TOTAL = 10**12  # fixed-point rank budget (1.0 == 10^12)


def _pagerank_driver(u: np.ndarray, v: np.ndarray, n_iter: int,
                     total: int = PAGERANK_TOTAL) -> pd.DataFrame:
    """Driver path: exact integer PageRank (numpy bincount loop)."""
    if len(u) == 0:
        return pd.DataFrame({"node": np.array([], np.int64),
                             "rank_fp": np.array([], np.int64)})
    nodes = np.unique(np.concatenate([u, v]))
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    deg = np.bincount(ui, minlength=len(nodes)).astype(np.int64)
    r0 = total // len(nodes)
    base = (15 * r0) // 100
    r = np.full(len(nodes), r0, dtype=np.int64)
    for _ in range(n_iter):
        contrib = r[ui] // deg[ui]
        inflow = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(inflow, vi, contrib)
        r = base + (85 * inflow) // 100
    return pd.DataFrame({"node": nodes, "rank_fp": r})


def pagerank_int(edges_ds, u_col: str = "u", v_col: str = "v",
                 n_iter: int = 3, driver_limit: int = 2_000_000,
                 n_buckets: int = 64, n_blocks: int = 32,
                 total: int = PAGERANK_TOTAL):
    """PageRank on the INTEGER fixed-point domain (rank in ``total`` units,
    damping 0.85 as ``85·x // 100``, per-edge contribution ``r // outdeg``)
    — every operation is an int64 sum or floor-division, so the result is
    order-independent, bit-reproducible across both execution paths, and
    replayable by a SQL oracle with unrolled iterations.  Dangling nodes
    simply leak their mass (standard simplification; deterministic).

    Under ``driver_limit`` edges: one numpy loop.  Past it, the 100-TB
    path mirrors ``connected_components``: edges materialized once; per
    round (a) GRACE join edges ⋈ state on the src to emit per-edge
    integer contributions, (b) groupby-sum inflow per dst, (c) GRACE
    LEFT-OUTER join state ⋈ inflow to apply base + damped inflow (nodes
    with no in-edges keep the base term).  State is (node, rank, outdeg)
    — node-volume, never the driver's.  Returns pandas under the limit,
    a Dataset of (node, rank_fp) above it.
    """
    import pyarrow.compute as pc

    from timberjack_ray.functions.relational import bucket_hash_join
    from timberjack_ray.functions.util import collect_table_under

    small = collect_table_under(edges_ds, driver_limit)
    if small is not None:
        u = small[u_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = small[v_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out = _pagerank_driver(u, v, n_iter, total)
        out.attrs["mode"] = "driver"
        return out

    edges = edges_ds.map_batches(
        lambda t: pa.table({"u": pc.cast(t[u_col], pa.int64()),
                            "v": pc.cast(t[v_col], pa.int64())}),
        batch_format="pyarrow").repartition(n_blocks).materialize()

    # node table with outdeg (0 for sink-only nodes)
    def nodes_of(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays([t["u"].combine_chunks(),
                                 t["v"].combine_chunks()])
        return pa.table({"node": both.unique()})

    nodes = grouped_aggregate_ds(
        edges.map_batches(nodes_of, batch_format="pyarrow"),
        ["node"], [("node", "count_all", "_c")]) \
        .map_batches(lambda t: pa.table({"node": t["node"]}),
                     batch_format="pyarrow")
    degs = grouped_aggregate_ds(
        edges.map_batches(
            lambda t: pa.table({"node": t["u"]}), batch_format="pyarrow"),
        ["node"], [("node", "count_all", "outdeg")])
    n = nodes.count()
    r0 = total // n
    base = (15 * r0) // 100

    state = bucket_hash_join(
        nodes, degs, "node", "node", left_cols=[], right_cols=["outdeg"],
        n_buckets=n_buckets, join_type="left outer") \
        .map_batches(
            lambda t: pa.table({
                "node": t["node"],
                "rank_fp": pa.array(np.full(t.num_rows, r0, np.int64)),
                "outdeg": pc.coalesce(pc.cast(t["outdeg"], pa.int64()), 0)}),
            batch_format="pyarrow").repartition(n_blocks).materialize()

    def contribs(t: pa.Table) -> pa.Table:
        r = t["rank_fp"].to_numpy(zero_copy_only=False)
        d = t["outdeg"].to_numpy(zero_copy_only=False)
        return pa.table({"node": t["v"],
                         "c": pa.array(r // np.maximum(d, 1))})

    for _ in range(n_iter):
        inflow = bucket_hash_join(
            edges, state, "u", "node",
            left_cols=["v"], right_cols=["rank_fp", "outdeg"],
            n_buckets=n_buckets) \
            .map_batches(contribs, batch_format="pyarrow")
        inflow = grouped_aggregate_ds(inflow, ["node"],
                                      [("c", "sum", "inflow")])

        def apply_rank(t: pa.Table) -> pa.Table:
            s = pc.coalesce(pc.cast(t["inflow"], pa.int64()), 0) \
                .to_numpy(zero_copy_only=False)
            return pa.table({"node": t["node"],
                             "rank_fp": pa.array(base + (85 * s) // 100),
                             "outdeg": t["outdeg"]})

        state = bucket_hash_join(
            state, inflow, "node", "node",
            left_cols=["rank_fp", "outdeg"], right_cols=["inflow"],
            n_buckets=n_buckets, join_type="left outer") \
            .map_batches(apply_rank, batch_format="pyarrow") \
            .repartition(n_blocks).materialize()

    return state.map_batches(
        lambda t: pa.table({"node": t["node"], "rank_fp": t["rank_fp"]}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Triangle census of a co-occurrence graph
# ---------------------------------------------------------------------------

def _pair_segments(keys_sorted: np.ndarray):
    starts = np.r_[0, np.flatnonzero(keys_sorted[1:] != keys_sorted[:-1]) + 1]
    sizes = np.diff(np.r_[starts, len(keys_sorted)])
    return starts, sizes


def _offset_pairs(seg_keys: np.ndarray, values: np.ndarray):
    """All within-segment ordered pairs (values[i], values[j]), i<j, via the
    d-offset expansion (trip count = max segment size, each trip one
    vectorized mask).  ``seg_keys`` must be sorted; ``values`` aligned."""
    starts, sizes = _pair_segments(seg_keys)
    if len(values) < 2 or sizes.max() < 2:
        e = np.array([], dtype=values.dtype)
        return e, e
    seg_of = np.repeat(np.arange(len(starts)), sizes)
    outs_a, outs_b = [], []
    for d in range(1, int(sizes.max())):
        left = np.arange(len(values) - d)
        same = seg_of[left] == seg_of[left + d]
        outs_a.append(values[left[same]])
        outs_b.append(values[left[same] + d])
    return np.concatenate(outs_a), np.concatenate(outs_b)


def _triangle_census_driver(u: np.ndarray, v: np.ndarray) -> pd.DataFrame:
    """Exact (nodes, edges, wedges, triangles) of an undirected simple graph
    given its distinct edge list.  Degree-ordered orientation bounds the
    out-degree by sqrt(2E), so the wedge d-offset expansion does
    O(E^1.5) total work — the classic sequential bound, fully vectorized."""
    if len(u) == 0:
        return pd.DataFrame({"n_nodes": [0], "n_edges": [0],
                             "n_wedges": [0], "n_triangles": [0]})
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    n, e = len(nodes), len(u)
    ui, vi = inv[:e], inv[e:]
    deg = (np.bincount(ui, minlength=n)
           + np.bincount(vi, minlength=n)).astype(np.int64)
    wedges = int((deg * (deg - 1) // 2).sum())
    # rank nodes by (degree, id); orient every edge low-rank -> high-rank
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    ru, rv = rank[ui], rank[vi]
    s = np.minimum(ru, rv)
    d = np.maximum(ru, rv)
    keys = np.sort(s * n + d)  # probe set, rank-space packed
    order = np.lexsort((d, s))
    ss, dd = s[order], d[order]
    wa, wb = _offset_pairs(ss, dd)
    tri = 0
    if len(wa):
        wk = wa * n + wb
        idx = np.searchsorted(keys, wk)
        inb = idx < len(keys)
        tri = int((keys[np.minimum(idx, len(keys) - 1)][inb]
                   == wk[inb]).sum())
    return pd.DataFrame({"n_nodes": [n], "n_edges": [e],
                         "n_wedges": [wedges], "n_triangles": [tri]})


def cooccurrence_triangles(ds, group_col: str, item_col: str,
                           n_buckets: int = 64,
                           edge_driver_limit: int = 300_000,
                           node_limit: int = 2_000_000) -> pd.DataFrame:
    """Exact triangle census of the ITEM CO-OCCURRENCE graph: items are
    vertices; two items are adjacent iff some group contains both (e.g.
    parts co-purchased in one order, tags co-occurring on one document).
    Returns one row (n_nodes, n_edges, n_wedges, n_triangles) — exact
    integers; the global clustering coefficient is the consumer's
    3*n_triangles / n_wedges.

    Scale shape: per-batch distinct (group, item) projection -> ONE
    group-bucket exchange -> per-bucket segmented d-offset pair expansion
    (fan-out bounded by the per-group item alphabet) -> guarded distinct-
    edge fold.  Under ``edge_driver_limit`` the census runs vectorized on
    the driver (degree orientation caps the wedge work at O(E^1.5);
    measured crossover vs the distributed plan on this host is ~0.5-1M
    edges, hence the 300k default); past it the SAME oriented-wedge
    plan runs distributed: the distinct-edge
    Dataset is MATERIALIZED once (slim (u, v) rows — every census stage
    re-reads it, so without this each consumer re-executes the whole
    upstream exchange), then a broadcast (node -> rank) map
    (precondition: item vocabulary under ``node_limit``), per-bucket
    wedge expansion, and ONE GRACE co-partitioning join probing wedge
    keys against oriented edge keys.  Driver and distributed paths are
    equality-tested.

    Keys must be integers (the within-segment sort is what yields u < v).
    """
    import pyarrow.compute as pc

    from timberjack_ray.aggregates import merge_partials_or_ds

    empty = pa.table({"u": pa.array([], pa.int64()),
                      "v": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64())})

    def batch_distinct(t: pa.Table) -> pa.Table:
        return (t.select([group_col, item_col])
                .group_by([group_col, item_col]).aggregate([]))

    def per_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        g = t[group_col].to_numpy(zero_copy_only=False)
        i = (t[item_col].combine_chunks()
             .to_numpy(zero_copy_only=False).astype(np.int64))
        order = np.lexsort((i, g))
        gs, it = g[order], i[order]
        keep = np.r_[True, (gs[1:] != gs[:-1]) | (it[1:] != it[:-1])]
        gs, it = gs[keep], it[keep]
        a, b = _offset_pairs(gs, it)
        if not len(a):
            return empty
        tbl = pa.table({"u": pa.array(a), "v": pa.array(b)})
        gby = tbl.group_by(["u", "v"]).aggregate([([], "count_all")])
        return gby.rename_columns(["u", "v", "n"])

    proj = ds.map_batches(batch_distinct, batch_format="pyarrow")
    partials = bucket_exchange(proj, [group_col], per_bucket, n_buckets)
    edges, mode = merge_partials_or_ds(partials, ["u", "v"], ["n"],
                                       edge_driver_limit)
    if mode == "driver":
        return _triangle_census_driver(
            edges["u"].to_numpy(zero_copy_only=False),
            edges["v"].to_numpy(zero_copy_only=False))
    return _triangle_census_distributed(edges, n_buckets, node_limit)


def _triangle_census_distributed(edges_ds, n_buckets: int,
                                 node_limit: int) -> pd.DataFrame:
    """Distributed tail of ``cooccurrence_triangles``: edges_ds is the
    DISTINCT (u, v, n) Dataset.  Degrees fold to a node-vocabulary-sized
    table (guarded; raises past ``node_limit`` — coarsen the item domain),
    the rank map broadcasts once, wedges expand per s-bucket, and wedge
    keys probe oriented edge keys through one GRACE join."""
    import ray

    edges_ds = edges_ds.materialize()

    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.relational import bucket_hash_join
    from timberjack_ray.functions.util import fetch_broadcast, sorted_lookup

    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t["u"].to_numpy(zero_copy_only=False),
            t["v"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        g = pa.table({"node": pa.array(both)}) \
            .group_by(["node"]).aggregate([([], "count_all")])
        return g.rename_columns(["node", "d"])

    deg_tbl, deg_mode = merge_partials_or_ds(
        edges_ds.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"], ["d"], node_limit)
    if deg_mode != "driver":
        raise ValueError(
            f"cooccurrence_triangles: item vocabulary exceeds node_limit="
            f"{node_limit}; the rank map no longer broadcasts")
    nodes = deg_tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    deg = deg_tbl["d"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes)
    nodes, deg = nodes[order], deg[order]
    n = len(nodes)
    n_edges = int(deg.sum()) // 2
    n_wedges = int((deg * (deg - 1) // 2).sum())
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    ref = ray.put((nodes, rank, n))

    def orient(t: pa.Table) -> pa.Table:
        nd, rk, nn = fetch_broadcast(ref)
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        _, iu = sorted_lookup(nd, u)
        _, iv = sorted_lookup(nd, v)
        ru, rv = rk[iu], rk[iv]
        s = np.minimum(ru, rv)
        d = np.maximum(ru, rv)
        return pa.table({"s": pa.array(s), "d": pa.array(d),
                         "ekey": pa.array(s * nn + d)})

    oriented = edges_ds.map_batches(orient, batch_format="pyarrow")

    def wedge_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"wkey": pa.array([], pa.int64()),
                          "m": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        s = t["s"].to_numpy(zero_copy_only=False)
        d = t["d"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, s))
        ss, dd = s[order], d[order]
        wa, wb = _offset_pairs(ss, dd)
        if not len(wa):
            return empty
        g = pa.table({"wkey": pa.array(wa * n + wb)}) \
            .group_by(["wkey"]).aggregate([([], "count_all")])
        return g.rename_columns(["wkey", "m"])

    wedges = bucket_exchange(oriented, ["s"], wedge_bucket, n_buckets)
    ekeys = oriented.map_batches(
        lambda t: pa.table({"ekey": t["ekey"],
                            "one": pa.array(np.ones(t.num_rows,
                                                    dtype=np.int64))}),
        batch_format="pyarrow")
    joined = bucket_hash_join(wedges, ekeys, "wkey", "ekey",
                              left_cols=["m"], right_cols=["one"],
                              n_buckets=n_buckets)
    tri = 0
    for b in joined.iter_batches(batch_size=None, batch_format="pyarrow"):
        if b.num_rows:
            tri += int(np.sum(b["m"].to_numpy(zero_copy_only=False)))
    return pd.DataFrame({"n_nodes": [n], "n_edges": [n_edges],
                         "n_wedges": [n_wedges], "n_triangles": [tri]})


def cooccurrence_edges(ds, group_col: str, item_col: str,
                       n_buckets: int = 64,
                       edge_driver_limit: int = 300_000):
    """Distinct item co-occurrence edge list (u < v), the shared front end
    of the census/peeling family: per-batch distinct (group, item) →
    ONE group-bucket exchange → segmented d-offset pair expansion →
    guarded distinct-edge fold.  Returns ``(edges, mode)`` from
    ``merge_partials_or_ds``: a pyarrow-backed pandas frame under
    ``edge_driver_limit``, else a Dataset of (u, v, n)."""
    import pyarrow.compute as pc

    from timberjack_ray.aggregates import merge_partials_or_ds

    empty = pa.table({"u": pa.array([], pa.int64()),
                      "v": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64())})

    def batch_distinct(t: pa.Table) -> pa.Table:
        return (t.select([group_col, item_col])
                .group_by([group_col, item_col]).aggregate([]))

    def per_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        g = t[group_col].to_numpy(zero_copy_only=False)
        i = (t[item_col].combine_chunks()
             .to_numpy(zero_copy_only=False).astype(np.int64))
        order = np.lexsort((i, g))
        gs, it = g[order], i[order]
        keep = np.r_[True, (gs[1:] != gs[:-1]) | (it[1:] != it[:-1])]
        gs, it = gs[keep], it[keep]
        a, b = _offset_pairs(gs, it)
        if not len(a):
            return empty
        tbl = pa.table({"u": pa.array(a), "v": pa.array(b)})
        gby = tbl.group_by(["u", "v"]).aggregate([([], "count_all")])
        return gby.rename_columns(["u", "v", "n"])

    proj = ds.map_batches(batch_distinct, batch_format="pyarrow")
    partials = bucket_exchange(proj, [group_col], per_bucket, n_buckets)
    return merge_partials_or_ds(partials, ["u", "v"], ["n"],
                                edge_driver_limit)


def _kcore_driver(u: np.ndarray, v: np.ndarray, k: int,
                  rounds: int) -> pd.DataFrame:
    for _ in range(rounds):
        if len(u) == 0:
            break
        nodes, deg = np.unique(np.concatenate([u, v]), return_counts=True)
        keep = nodes[deg >= k]
        m = np.isin(u, keep) & np.isin(v, keep)
        if m.all():
            break   # fixpoint: every further round is a no-op
        u, v = u[m], v[m]
    nodes, deg = np.unique(np.concatenate([u, v]), return_counts=True)
    return pd.DataFrame({"node": nodes.astype(np.int64),
                         "degree": deg.astype(np.int64)})


def kcore_peel(edges, k: int = 3, rounds: int = 8,
               driver_limit: int = 2_000_000,
               node_limit: int = 2_000_000) -> pd.DataFrame:
    """Bounded-round k-core peeling: ``rounds`` iterations of "drop every
    node with degree < k, restrict edges to survivors", then the degree
    table of the surviving edge set.  With ``rounds`` large enough to hit
    the fixpoint this IS the k-core; bounding the rounds makes the
    semantics exactly unrollable (the SQL oracle replays each round as a
    CTE stage — an open-ended recursive peel is not expressible in
    vanilla SQL because the recursive term may not aggregate over the
    accumulated working table).

    ``edges`` is a (u, v) pandas frame or Dataset (``cooccurrence_edges``
    output).  Under ``driver_limit`` edges: one numpy loop with fixpoint
    early-exit.  Past it: per round ONE degree groupby exchange + a
    broadcast survivor filter pass (survivor vocabulary must fit
    ``node_limit`` — the same precondition the triangle census broadcast
    documents); edge rows only ever stream, never fold."""
    import pyarrow.compute as pc

    if isinstance(edges, pa.Table):
        return _kcore_driver(
            edges["u"].to_numpy(zero_copy_only=False).astype(np.int64),
            edges["v"].to_numpy(zero_copy_only=False).astype(np.int64),
            k, rounds)
    if isinstance(edges, pd.DataFrame):
        return _kcore_driver(
            edges["u"].to_numpy().astype(np.int64),
            edges["v"].to_numpy().astype(np.int64), k, rounds)

    import ray

    from timberjack_ray.functions.util import collect_table_under

    small = collect_table_under(edges, driver_limit)
    if small is not None:
        out = _kcore_driver(
            small["u"].to_numpy(zero_copy_only=False).astype(np.int64),
            small["v"].to_numpy(zero_copy_only=False).astype(np.int64),
            k, rounds)
        out.attrs["mode"] = "driver"
        return out

    cur = edges.select_columns(["u", "v"]).materialize()

    def degrees(eds):
        flat = eds.map_batches(
            lambda t: pa.table({"node": pa.concat_arrays(
                [t["u"].combine_chunks(), t["v"].combine_chunks()])}),
            batch_format="pyarrow")
        return grouped_aggregate_ds(flat, ["node"],
                                    [("node", "count_all", "degree")])

    for r in range(rounds + 1):
        deg = collect_table_under(degrees(cur), node_limit)
        if deg is None:
            raise ValueError(
                "kcore_peel: surviving node vocabulary exceeds node_limit "
                "— shard the broadcast (GRACE semi-join per round) before "
                "raising the limit")
        if not deg.num_rows:
            break   # everything peeled: the empty fixpoint
        d = deg["degree"].to_numpy(zero_copy_only=False)
        keep = np.sort(deg["node"].to_numpy(zero_copy_only=False)[d >= k])
        if len(keep) == len(deg) or r == rounds:
            break
        ref = ray.put(keep)

        def filt(t: pa.Table, _r=ref) -> pa.Table:
            kp = ray.get(_r)
            uu = t["u"].to_numpy(zero_copy_only=False)
            vv = t["v"].to_numpy(zero_copy_only=False)
            iu = np.searchsorted(kp, uu)
            iv = np.searchsorted(kp, vv)
            mu = (iu < len(kp)) & (kp[np.minimum(iu, len(kp) - 1)] == uu)
            mv = (iv < len(kp)) & (kp[np.minimum(iv, len(kp) - 1)] == vv)
            return t.filter(pa.array(mu & mv))

        cur = cur.map_batches(filt, batch_format="pyarrow").materialize()

    out = deg.to_pandas().sort_values("node").reset_index(drop=True) \
        .astype({"node": "int64", "degree": "int64"}) \
        if deg.num_rows else pd.DataFrame(
            {"node": pd.Series([], dtype="int64"),
             "degree": pd.Series([], dtype="int64")})
    out.attrs["mode"] = "distributed"
    return out


def _common_neighbors_driver(u: np.ndarray, v: np.ndarray, k: int,
                             degree_cap: int) -> pd.DataFrame:
    """Driver tail of ``common_neighbors_topk``: vectorized numpy over a
    distinct (u < v) edge array that already fits the driver."""
    empty = pd.DataFrame({"x": pd.Series([], dtype="int64"),
                          "y": pd.Series([], dtype="int64"),
                          "cn": pd.Series([], dtype="int64")})
    if not len(u):
        return empty
    nodes, deg = np.unique(np.concatenate([u, v]), return_counts=True)
    centers = nodes[deg <= degree_cap]
    m = int(nodes.max()) + 1
    c = np.concatenate([u, v])
    nbr = np.concatenate([v, u])
    idx = np.searchsorted(centers, c)
    ok = (idx < len(centers)) & (centers[np.minimum(idx, max(len(centers) - 1, 0))] == c) \
        if len(centers) else np.zeros(len(c), dtype=bool)
    c, nbr = c[ok], nbr[ok]
    if len(c) < 2:
        return empty
    order = np.lexsort((nbr, c))
    x, y = _offset_pairs(c[order], nbr[order])
    if not len(x):
        return empty
    pkey, cn = np.unique(x * m + y, return_counts=True)
    ekey = np.sort(u.astype(np.int64) * m + v)
    j = np.searchsorted(ekey, pkey)
    adjacent = (j < len(ekey)) & (ekey[np.minimum(j, len(ekey) - 1)] == pkey)
    pkey, cn = pkey[~adjacent], cn[~adjacent]
    if not len(pkey):
        return empty
    top = np.lexsort((pkey, -cn))[:k]
    pkey, cn = pkey[top], cn[top]
    return pd.DataFrame({"x": (pkey // m).astype(np.int64),
                         "y": (pkey % m).astype(np.int64),
                         "cn": cn.astype(np.int64)})


def common_neighbors_topk(edges, k: int = 20, degree_cap: int = 48,
                          n_buckets: int = 64,
                          node_limit: int = 2_000_000,
                          pair_driver_limit: int = 2_000_000,
                          edge_driver_limit: int = 2_000_000):
    """Common-neighbor link prediction over a DISTINCT undirected edge set
    (u < v, ``cooccurrence_edges`` output): for every NON-adjacent pair
    (x, y), cn(x, y) = number of shared neighbors reachable through hub-
    damped centers (degree <= ``degree_cap``); returns the global top-k
    by (cn desc, x asc, y asc) — "items never bought together that share
    the most co-purchase context", the classic neighborhood recommender
    (triangles/kcore's forward-looking sibling: those census EXISTING
    closure, this ranks MISSING links).

    The degree cap is part of the SEMANTICS, not a tuning knob: hub
    damping is standard in common-neighbor predictors (a hub shares
    neighbors with everything, adding noise), and it bounds per-center
    wedge fan-out at cap^2/2 so total pair work is O(nodes * cap^2) at
    ANY scale — the SQL oracle replays the identical restriction.

    Scale shape: degrees fold to a node-vocabulary-sized table (guarded
    by ``node_limit``, same precondition as the triangle census); the
    center set broadcasts once; wedge pairs expand per center-bucket
    (ONE exchange) into (pair-key, count) partials whose merge is guarded
    by ``pair_driver_limit`` — past it the SAME plan degrades to a
    distributed groupby + a ``bucket_hash_join(join_type='left anti')``
    against the edge keys + ``sorted_topk``, so no stage ever folds the
    unbounded pair domain on the driver.
    """
    if isinstance(edges, pa.Table):
        edges = edges.to_pandas()
    if isinstance(edges, pd.DataFrame):
        return _common_neighbors_driver(
            edges["u"].to_numpy().astype(np.int64),
            edges["v"].to_numpy().astype(np.int64), k, degree_cap)

    import ray

    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.relational import (bucket_hash_join,
                                                     sorted_topk)
    from timberjack_ray.functions.util import collect_table_under

    edges = edges.select_columns(["u", "v"]).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t["u"].to_numpy(zero_copy_only=False),
            t["v"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        g = pa.table({"node": pa.array(both)}) \
            .group_by(["node"]).aggregate([([], "count_all")])
        return g.rename_columns(["node", "d"])

    deg_tbl, deg_mode = merge_partials_or_ds(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"], ["d"], node_limit)
    if deg_mode != "driver":
        raise ValueError(
            f"common_neighbors_topk: node vocabulary exceeds node_limit="
            f"{node_limit}; the center set no longer broadcasts")
    nodes = deg_tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = deg_tbl["d"].to_numpy(zero_copy_only=False)
    order = np.argsort(nodes)
    nodes, d = nodes[order], d[order]
    m = int(nodes.max()) + 1 if len(nodes) else 1
    centers_ref = ray.put(nodes[d <= degree_cap])

    def sym_center(t: pa.Table) -> pa.Table:
        from timberjack_ray.functions.util import fetch_broadcast

        cset = fetch_broadcast(centers_ref)
        c = np.concatenate([t["u"].to_numpy(zero_copy_only=False),
                            t["v"].to_numpy(zero_copy_only=False)]) \
            .astype(np.int64)
        nbr = np.concatenate([t["v"].to_numpy(zero_copy_only=False),
                              t["u"].to_numpy(zero_copy_only=False)]) \
            .astype(np.int64)
        if len(cset):
            i = np.searchsorted(cset, c)
            ok = (i < len(cset)) & (cset[np.minimum(i, len(cset) - 1)] == c)
        else:
            ok = np.zeros(len(c), dtype=bool)
        return pa.table({"c": pa.array(c[ok]), "nbr": pa.array(nbr[ok])})

    def pair_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"pkey": pa.array([], pa.int64()),
                          "cn": pa.array([], pa.int64())})
        if t.num_rows < 2:
            return empty
        c = t["c"].to_numpy(zero_copy_only=False)
        nbr = t["nbr"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nbr, c))
        x, y = _offset_pairs(c[order], nbr[order])
        if not len(x):
            return empty
        g = pa.table({"pkey": pa.array(x * m + y)}) \
            .group_by(["pkey"]).aggregate([([], "count_all")])
        return g.rename_columns(["pkey", "cn"])

    sym = edges.map_batches(sym_center, batch_format="pyarrow")
    partials = bucket_exchange(sym, ["c"], pair_bucket, n_buckets)
    pairs, mode = merge_partials_or_ds(partials, ["pkey"], ["cn"],
                                       pair_driver_limit)
    if mode == "driver":
        ekeys_tbl = collect_table_under(
            edges.map_batches(
                lambda t: pa.table({"ekey": pa.array(
                    t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
                    * m + t["v"].to_numpy(zero_copy_only=False))}),
                batch_format="pyarrow"), edge_driver_limit)
        pkey = pairs["pkey"].to_numpy(zero_copy_only=False)
        cn = pairs["cn"].to_numpy(zero_copy_only=False)
        if ekeys_tbl is not None:
            # (an empty edge set collects with no schema)
            ekey = np.sort(ekeys_tbl["ekey"].to_numpy(zero_copy_only=False)) \
                if ekeys_tbl.num_rows else np.empty(0, np.int64)
            j = np.searchsorted(ekey, pkey)
            adj = (j < len(ekey)) & \
                (ekey[np.minimum(j, max(len(ekey) - 1, 0))] == pkey)
            pkey, cn = pkey[~adj], cn[~adj]
        else:
            # pairs fit the driver but the edge set does not: distributed anti
            pairs_ds = _one_block_ds(pkey, cn)
            return _cn_distributed_tail(pairs_ds, edges, m, k, n_buckets)
        top = np.lexsort((pkey, -cn))[:k]
        pkey, cn = pkey[top], cn[top]
        return pd.DataFrame({"x": (pkey // m).astype(np.int64),
                             "y": (pkey % m).astype(np.int64),
                             "cn": cn.astype(np.int64)})
    return _cn_distributed_tail(pairs, edges, m, k, n_buckets)


def _one_block_ds(pkey: np.ndarray, cn: np.ndarray):
    import ray.data as rd

    return rd.from_arrow(pa.table({"pkey": pa.array(pkey.astype(np.int64)),
                                   "cn": pa.array(cn.astype(np.int64))}))


def _cn_distributed_tail(pairs_ds, edges, m: int, k: int, n_buckets: int):
    """Distributed anti + top-k tail of ``common_neighbors_topk``."""
    from timberjack_ray.functions.relational import (bucket_hash_join,
                                                     sorted_topk)

    ekeys = edges.map_batches(
        lambda t: pa.table({"ekey": pa.array(
            t["u"].to_numpy(zero_copy_only=False).astype(np.int64) * m
            + t["v"].to_numpy(zero_copy_only=False))}),
        batch_format="pyarrow")
    anti = bucket_hash_join(pairs_ds, ekeys, "pkey", "ekey",
                            left_cols=["cn"], right_cols=[],
                            n_buckets=n_buckets, join_type="left anti")
    named = anti.map_batches(
        lambda t: pa.table({
            "x": pa.array(t["pkey"].to_numpy(zero_copy_only=False) // m),
            "y": pa.array(t["pkey"].to_numpy(zero_copy_only=False) % m),
            "cn": t["cn"]}),
        batch_format="pyarrow")
    out = sorted_topk(named, ["cn", "x", "y"], k,
                      descending=[True, False, False])
    if out.empty:
        return pd.DataFrame({"x": pd.Series([], dtype="int64"),
                             "y": pd.Series([], dtype="int64"),
                             "cn": pd.Series([], dtype="int64")})
    return out.reset_index(drop=True).astype(
        {"x": "int64", "y": "int64", "cn": "int64"})


def _bfs_driver(u: np.ndarray, v: np.ndarray, seed: int,
                rounds: int) -> pd.DataFrame:
    """Driver tail of ``bfs_hops``: numpy frontier expansion over a
    symmetrized CSR-ish sorted edge array."""
    c = np.concatenate([u, v])
    nbr = np.concatenate([v, u])
    order = np.argsort(c, kind="stable")
    c, nbr = c[order], nbr[order]
    dist: dict[int, int] = {int(seed): 0}
    frontier = np.array([seed], dtype=np.int64)
    for hop in range(1, rounds + 1):
        if not len(frontier):
            break
        lo = np.searchsorted(c, frontier, side="left")
        hi = np.searchsorted(c, frontier, side="right")
        if not (hi > lo).any():
            break
        idx = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)
                              if b > a])
        cand = np.unique(nbr[idx])
        new = np.array([x for x in cand if int(x) not in dist],
                       dtype=np.int64)
        for x in new:
            dist[int(x)] = hop
        frontier = new
    out = pd.DataFrame(sorted(dist.items()), columns=["node", "hop"])
    return out.astype({"node": "int64", "hop": "int64"})


def _min_node(edges_ds) -> int:
    """Smallest node id of a non-empty edge Dataset (the default seed of
    the bounded-round walks)."""
    from ray.data.aggregate import Min

    mu = edges_ds.aggregate(Min("u"), Min("v"))
    return int(min(mu["min(u)"], mu["min(v)"]))


def _empty_node_frame(value_col: str) -> pd.DataFrame:
    """Typed empty (node, value_col) result, as the driver paths return
    for an empty edge set."""
    return pd.DataFrame({"node": pd.Series([], dtype="int64"),
                         value_col: pd.Series([], dtype="int64")})


def bfs_hops(edges, seed: int | None = None, rounds: int = 6,
             driver_limit: int = 2_000_000,
             node_limit: int = 2_000_000) -> pd.DataFrame:
    """Bounded-round BFS distances from one seed over an undirected
    DISTINCT edge set (u < v): (node, hop) for every node within
    ``rounds`` hops, hop = exact shortest distance (0 at the seed).
    ``seed=None`` uses the minimum node id (deterministic).  Like
    ``kcore_peel``, the round bound is part of the SEMANTICS so the SQL
    oracle unrolls each frontier expansion as a CTE stage — completes
    the graph family with per-node DISTANCE (components answer "same
    cluster?", pagerank "how central?", this "how far?").

    Under ``driver_limit`` edges: one numpy frontier walk.  Past it: per
    round ONE streaming semi-join pass over the edge Dataset against the
    broadcast frontier (distinct-neighbor fold guarded by ``node_limit``
    — the reached set must fit the driver, the same precondition every
    broadcast-label graph op here documents); edge rows only ever
    stream."""
    if isinstance(edges, pa.Table):
        edges = edges.to_pandas()
    if isinstance(edges, pd.DataFrame):
        u = edges["u"].to_numpy().astype(np.int64)
        v = edges["v"].to_numpy().astype(np.int64)
        if not len(u):
            return _empty_node_frame("hop")
        s = int(min(u.min(), v.min())) if seed is None else int(seed)
        return _bfs_driver(u, v, s, rounds)

    import ray

    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.util import collect_table_under

    small = collect_table_under(edges.select_columns(["u", "v"]),
                                driver_limit)
    if small is not None:
        return bfs_hops(small, seed=seed, rounds=rounds)

    edges = edges.select_columns(["u", "v"]).materialize()
    if seed is None:
        seed = _min_node(edges)
    dist: dict[int, int] = {int(seed): 0}
    frontier = np.array([seed], dtype=np.int64)
    for hop in range(1, rounds + 1):
        if not len(frontier):
            break
        ref = ray.put(np.sort(frontier))

        def nbrs(t: pa.Table, _r=ref) -> pa.Table:
            fr = ray.get(_r)
            c = np.concatenate([t["u"].to_numpy(zero_copy_only=False),
                                t["v"].to_numpy(zero_copy_only=False)]) \
                .astype(np.int64)
            nb = np.concatenate([t["v"].to_numpy(zero_copy_only=False),
                                 t["u"].to_numpy(zero_copy_only=False)]) \
                .astype(np.int64)
            i = np.searchsorted(fr, c)
            ok = (i < len(fr)) & (fr[np.minimum(i, len(fr) - 1)] == c)
            g = pa.table({"node": pa.array(np.unique(nb[ok]))})
            return g.append_column("one", pa.array(
                np.ones(g.num_rows, dtype=np.int64)))

        cand, mode = merge_partials_or_ds(
            edges.map_batches(nbrs, batch_format="pyarrow"),
            ["node"], ["one"], node_limit)
        if mode != "driver":
            raise ValueError(
                "bfs_hops: reached-node set exceeds node_limit — shard "
                "the frontier (GRACE semi-join per round) before raising")
        cand_nodes = cand["node"].to_numpy(zero_copy_only=False)
        new = np.array([x for x in cand_nodes if int(x) not in dist],
                       dtype=np.int64)
        for x in new:
            dist[int(x)] = hop
        frontier = new
    out = pd.DataFrame(sorted(dist.items()), columns=["node", "hop"])
    return out.astype({"node": "int64", "hop": "int64"})


def degree_assortativity_stats(edges, node_limit: int = 2_000_000
                               ) -> pd.DataFrame:
    """EXACT degree-assortativity sufficient statistics over a DISTINCT
    undirected edge set (u < v, ``cooccurrence_edges`` output): over the
    SYMMETRIZED directed edge list (2m rows — each edge once per
    direction, the standard convention) returns ONE row

        (m2, sxy, sx, sx2)   with dx = degree of the source endpoint:
        m2 = 2m,  sxy = SUM dx*dy,  sx = SUM dx,  sx2 = SUM dx*dx

    Pearson degree assortativity r = (m2*sxy - sx^2)/(m2*sx2 - sx^2) is
    the consumer's float — these four ints are its exact sufficient
    statistics (hub-attracts-hub vs hub-attracts-leaf structure, the
    graph-family companion of lineitem_corr_stats' moment census).

    Scale shape: degrees fold to a node-vocabulary-sized table (guarded
    by ``node_limit``, the same broadcast precondition as the triangle /
    common-neighbor census) and broadcast ONCE via ``ray.put``; edges
    then stream through one ``map_batches`` pass emitting 4-int partials
    (per-batch sums stay < 2^63 for degree <= node_limit and batch rows
    <= ~1e5); the driver folds #blocks tiny rows in PYTHON ints."""
    if isinstance(edges, pa.Table):
        edges = edges.to_pandas()
    if isinstance(edges, pd.DataFrame):
        u = edges["u"].to_numpy().astype(np.int64)
        v = edges["v"].to_numpy().astype(np.int64)
        return _assortativity_driver(u, v)

    import ray

    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.util import fetch_broadcast

    edges = edges.select_columns(["u", "v"]).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t["u"].to_numpy(zero_copy_only=False),
            t["v"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        g = pa.table({"node": pa.array(both)}) \
            .group_by(["node"]).aggregate([([], "count_all")])
        return g.rename_columns(["node", "d"])

    deg_tbl, deg_mode = merge_partials_or_ds(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"], ["d"], node_limit)
    if deg_mode != "driver":
        raise ValueError(
            f"degree_assortativity_stats: node vocabulary exceeds "
            f"node_limit={node_limit}; the degree map no longer broadcasts")
    nodes = deg_tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = deg_tbl["d"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes)
    deg_ref = ray.put((nodes[order], d[order]))

    def partial(t: pa.Table) -> pa.Table:
        nsort, dsort = fetch_broadcast(deg_ref)
        x = np.concatenate([t["u"].to_numpy(zero_copy_only=False),
                            t["v"].to_numpy(zero_copy_only=False)]) \
            .astype(np.int64)
        y = np.concatenate([t["v"].to_numpy(zero_copy_only=False),
                            t["u"].to_numpy(zero_copy_only=False)]) \
            .astype(np.int64)
        dx = dsort[np.searchsorted(nsort, x)]
        dy = dsort[np.searchsorted(nsort, y)]
        return pa.table({
            "m2": pa.array([int(len(x))], pa.int64()),
            "sxy": pa.array([int(np.sum(dx * dy))], pa.int64()),
            "sx": pa.array([int(np.sum(dx))], pa.int64()),
            "sx2": pa.array([int(np.sum(dx * dx))], pa.int64())})

    tot = {"m2": 0, "sxy": 0, "sx": 0, "sx2": 0}
    return _assort_fold(edges.map_batches(partial, batch_format="pyarrow"),
                        tot)


def _assort_fold(partials_ds, tot: dict) -> pd.DataFrame:
    for b in partials_ds.iter_batches(batch_size=None,
                                      batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) \
            else b
        for k in tot:
            tot[k] += int(pa.compute.sum(t[k]).as_py() or 0)
    return pd.DataFrame({k: [v] for k, v in tot.items()}).astype("int64")


def _assortativity_driver(u: np.ndarray, v: np.ndarray) -> pd.DataFrame:
    empty = pd.DataFrame({"m2": [0], "sxy": [0], "sx": [0],
                          "sx2": [0]}).astype("int64")
    if not len(u):
        return empty
    nodes, d = np.unique(np.concatenate([u, v]), return_counts=True)
    d = d.astype(np.int64)
    x = np.concatenate([u, v])
    y = np.concatenate([v, u])
    dx = d[np.searchsorted(nodes, x)]
    dy = d[np.searchsorted(nodes, y)]

    def exact_sum(a: np.ndarray) -> int:
        # chunked Python-int fold: each 1M-row chunk sum stays < 2^63
        # for per-element products <= (node count)^2 <= 4e12
        return sum(int(np.sum(a[i:i + 1_000_000]))
                   for i in range(0, len(a), 1_000_000))

    return pd.DataFrame({
        "m2": [int(len(x))],
        "sxy": [exact_sum(dx * dy)],
        "sx": [exact_sum(dx)],
        "sx2": [exact_sum(dx * dx)]}).astype("int64")


JACCARD_SCALE = 1_000_000_000


def _neighbor_jaccard_driver(u: np.ndarray, v: np.ndarray, k: int,
                             degree_cap: int) -> pd.DataFrame:
    """Driver tail of ``neighbor_jaccard_topk``: numpy over a distinct
    (u < v) edge array that already fits the driver."""
    empty = pd.DataFrame({"x": pd.Series([], dtype="int64"),
                          "y": pd.Series([], dtype="int64"),
                          "cn": pd.Series([], dtype="int64"),
                          "jscore": pd.Series([], dtype="int64")})
    if not len(u):
        return empty
    nodes, deg = np.unique(np.concatenate([u, v]), return_counts=True)
    deg = deg.astype(np.int64)
    centers = nodes[deg <= degree_cap]
    m = int(nodes.max()) + 1
    c = np.concatenate([u, v])
    nbr = np.concatenate([v, u])
    if len(centers):
        idx = np.searchsorted(centers, c)
        ok = (idx < len(centers)) & \
            (centers[np.minimum(idx, len(centers) - 1)] == c)
    else:
        ok = np.zeros(len(c), dtype=bool)
    c, nbr = c[ok], nbr[ok]
    if len(c) < 2:
        return empty
    order = np.lexsort((nbr, c))
    x, y = _offset_pairs(c[order], nbr[order])
    if not len(x):
        return empty
    pkey, cn = np.unique(x * m + y, return_counts=True)
    ekey = np.sort(u.astype(np.int64) * m + v)
    j = np.searchsorted(ekey, pkey)
    adjacent = (j < len(ekey)) & (ekey[np.minimum(j, len(ekey) - 1)] == pkey)
    pkey, cn = pkey[~adjacent], cn[~adjacent]
    if not len(pkey):
        return empty
    xs = (pkey // m).astype(np.int64)
    ys = (pkey % m).astype(np.int64)
    dx = deg[np.searchsorted(nodes, xs)]
    dy = deg[np.searchsorted(nodes, ys)]
    jscore = cn * JACCARD_SCALE // (dx + dy - cn)
    top = np.lexsort((ys, xs, -jscore))[:k]
    return pd.DataFrame({"x": xs[top], "y": ys[top],
                         "cn": cn[top].astype(np.int64),
                         "jscore": jscore[top].astype(np.int64)})


def neighbor_jaccard_topk(edges, k: int = 20, degree_cap: int = 48,
                          n_buckets: int = 64,
                          node_limit: int = 2_000_000,
                          pair_driver_limit: int = 2_000_000,
                          edge_driver_limit: int = 2_000_000):
    """Neighborhood-JACCARD link prediction over a DISTINCT undirected
    edge set (u < v): for every NON-adjacent pair (x, y) sharing at
    least one hub-damped common neighbor (a center of degree <=
    ``degree_cap``), rank by the scaled-integer Jaccard of their
    neighborhoods

        jscore = cn * 1e9 // (deg(x) + deg(y) - cn)

    (cn = shared neighbors reachable through centers; degrees are FULL
    degrees) and return the global top-k by (jscore desc, x, y) with the
    raw cn alongside.  Jaccard normalizes common_neighbors_topk's raw
    count by neighborhood size, so two low-degree twins outrank a pair
    that shares many neighbors merely because both are large — the
    normalized sibling of the cn recommender, exact by integer floor
    division (the SQL oracle replays the identical `cn*1e9 // (dx+dy-cn)`
    rational rank).

    Scale shape is common_neighbors_topk's: guarded node-vocabulary
    degree fold → broadcast centers → ONE center-bucket exchange for
    wedge pairs → guarded (pair, cn) merge; past ``pair_driver_limit``
    the SAME plan degrades to a distributed left-anti bucket join vs the
    edge keys, a broadcast-degree jscore stage, and a ``sorted_topk`` —
    no stage folds the unbounded pair domain on the driver."""
    if isinstance(edges, pa.Table):
        edges = edges.to_pandas()
    if isinstance(edges, pd.DataFrame):
        return _neighbor_jaccard_driver(
            edges["u"].to_numpy().astype(np.int64),
            edges["v"].to_numpy().astype(np.int64), k, degree_cap)

    import ray

    from timberjack_ray.aggregates import merge_partials_or_ds
    from timberjack_ray.functions.util import (collect_table_under,
                                               fetch_broadcast)

    edges = edges.select_columns(["u", "v"]).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t["u"].to_numpy(zero_copy_only=False),
            t["v"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        g = pa.table({"node": pa.array(both)}) \
            .group_by(["node"]).aggregate([([], "count_all")])
        return g.rename_columns(["node", "d"])

    deg_tbl, deg_mode = merge_partials_or_ds(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"], ["d"], node_limit)
    if deg_mode != "driver":
        raise ValueError(
            f"neighbor_jaccard_topk: node vocabulary exceeds node_limit="
            f"{node_limit}; the degree map no longer broadcasts")
    nodes = deg_tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = deg_tbl["d"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes)
    nodes, d = nodes[order], d[order]
    m = int(nodes.max()) + 1 if len(nodes) else 1
    deg_ref = ray.put((nodes, d))
    centers_ref = ray.put(nodes[d <= degree_cap])

    def sym_center(t: pa.Table) -> pa.Table:
        cset = fetch_broadcast(centers_ref)
        c = np.concatenate([t["u"].to_numpy(zero_copy_only=False),
                            t["v"].to_numpy(zero_copy_only=False)]) \
            .astype(np.int64)
        nbr = np.concatenate([t["v"].to_numpy(zero_copy_only=False),
                              t["u"].to_numpy(zero_copy_only=False)]) \
            .astype(np.int64)
        if len(cset):
            i = np.searchsorted(cset, c)
            ok = (i < len(cset)) & (cset[np.minimum(i, len(cset) - 1)] == c)
        else:
            ok = np.zeros(len(c), dtype=bool)
        return pa.table({"c": pa.array(c[ok]), "nbr": pa.array(nbr[ok])})

    def pair_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({"pkey": pa.array([], pa.int64()),
                          "cn": pa.array([], pa.int64())})
        if t.num_rows < 2:
            return empty
        c = t["c"].to_numpy(zero_copy_only=False)
        nbr = t["nbr"].to_numpy(zero_copy_only=False)
        order2 = np.lexsort((nbr, c))
        x, y = _offset_pairs(c[order2], nbr[order2])
        if not len(x):
            return empty
        g = pa.table({"pkey": pa.array(x * m + y)}) \
            .group_by(["pkey"]).aggregate([([], "count_all")])
        return g.rename_columns(["pkey", "cn"])

    def jscore_cols(pkey: np.ndarray, cn: np.ndarray, nsort, dsort):
        xs = (pkey // m).astype(np.int64)
        ys = (pkey % m).astype(np.int64)
        dx = dsort[np.searchsorted(nsort, xs)]
        dy = dsort[np.searchsorted(nsort, ys)]
        return xs, ys, cn * JACCARD_SCALE // (dx + dy - cn)

    sym = edges.map_batches(sym_center, batch_format="pyarrow")
    partials = bucket_exchange(sym, ["c"], pair_bucket, n_buckets)
    pairs, mode = merge_partials_or_ds(partials, ["pkey"], ["cn"],
                                       pair_driver_limit)
    if mode == "driver":
        ekeys_tbl = collect_table_under(
            edges.map_batches(
                lambda t: pa.table({"ekey": pa.array(
                    t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
                    * m + t["v"].to_numpy(zero_copy_only=False))}),
                batch_format="pyarrow"), edge_driver_limit)
        pkey = pairs["pkey"].to_numpy(zero_copy_only=False)
        cn = pairs["cn"].to_numpy(zero_copy_only=False)
        if ekeys_tbl is None:
            pairs = _one_block_ds(pkey, cn)
        else:
            # (an empty edge set collects with no schema)
            ekey = np.sort(ekeys_tbl["ekey"].to_numpy(zero_copy_only=False)) \
                if ekeys_tbl.num_rows else np.empty(0, np.int64)
            j = np.searchsorted(ekey, pkey)
            adj = (j < len(ekey)) & \
                (ekey[np.minimum(j, max(len(ekey) - 1, 0))] == pkey)
            pkey, cn = pkey[~adj], cn[~adj]
            if not len(pkey):
                return _neighbor_jaccard_driver(
                    np.array([], dtype=np.int64),
                    np.array([], dtype=np.int64), k, degree_cap)
            xs, ys, js = jscore_cols(pkey, cn, nodes, d)
            top = np.lexsort((ys, xs, -js))[:k]
            return pd.DataFrame({
                "x": xs[top], "y": ys[top],
                "cn": cn[top].astype(np.int64),
                "jscore": js[top].astype(np.int64)}).astype("int64")
    # distributed tail: anti vs edge keys, broadcast-degree jscore, top-k
    from timberjack_ray.functions.relational import (bucket_hash_join,
                                                     sorted_topk)

    ekeys = edges.map_batches(
        lambda t: pa.table({"ekey": pa.array(
            t["u"].to_numpy(zero_copy_only=False).astype(np.int64) * m
            + t["v"].to_numpy(zero_copy_only=False))}),
        batch_format="pyarrow")
    anti = bucket_hash_join(pairs, ekeys, "pkey", "ekey",
                            left_cols=["cn"], right_cols=[],
                            n_buckets=n_buckets, join_type="left anti")

    def named(t: pa.Table) -> pa.Table:
        nsort, dsort = fetch_broadcast(deg_ref)
        pk = t["pkey"].to_numpy(zero_copy_only=False)
        cn2 = t["cn"].to_numpy(zero_copy_only=False)
        xs, ys, js = jscore_cols(pk, cn2, nsort, dsort)
        return pa.table({"x": pa.array(xs), "y": pa.array(ys),
                         "cn": pa.array(cn2.astype(np.int64)),
                         "jscore": pa.array(js.astype(np.int64))})

    out = sorted_topk(anti.map_batches(named, batch_format="pyarrow"),
                      ["jscore", "x", "y"], k,
                      descending=[True, False, False])
    if out.empty:
        return pd.DataFrame({"x": pd.Series([], dtype="int64"),
                             "y": pd.Series([], dtype="int64"),
                             "cn": pd.Series([], dtype="int64"),
                             "jscore": pd.Series([], dtype="int64")})
    return out[["x", "y", "cn", "jscore"]].reset_index(drop=True) \
        .astype("int64")


def _lpa_driver(u: np.ndarray, v: np.ndarray, rounds: int) -> pd.DataFrame:
    """Index-compressed vote loop (round-5 rewrite, ~2× faster): labels
    live as INDICES into the sorted node array (label-index order ==
    label-value order, so ties-to-smallest is unchanged), and each round
    sorts ONE composite int64 key (src_idx·n + lab_idx) instead of a
    two-key lexsort over the 2|E| endpoint stream.  Same votes, same
    argmax, bit-identical census."""
    nodes = np.unique(np.concatenate([u, v]))
    n = len(nodes)
    if n and n > 3_000_000_000:  # pragma: no cover — composite bound
        raise ValueError("_lpa_driver: node count exceeds the n^2 < 2^63 "
                         "composite-key domain")
    src_i = np.searchsorted(nodes, np.concatenate([u, v]))
    nb_i = np.searchsorted(nodes, np.concatenate([v, u]))
    lab = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        key = src_i * np.int64(n) + lab[nb_i]
        key.sort()
        new = np.r_[True, key[1:] != key[:-1]]
        starts = np.flatnonzero(new)
        cnt = np.diff(np.r_[starts, len(key)])
        gk = key[starts]
        gn = gk // n
        gl = gk % n
        pick = np.lexsort((gl, -cnt, gn))
        first = np.r_[True, gn[pick][1:] != gn[pick][:-1]]
        nl = lab.copy()
        nl[gn[pick][first]] = gl[pick][first]
        lab = nl
    out = pd.Series(nodes[lab]).value_counts().sort_index()
    return pd.DataFrame({"community": out.index.to_numpy(np.int64),
                         "n_nodes": out.to_numpy(np.int64)})


def label_propagation_census(edges, rounds: int = 3,
                             driver_limit: int = 2_000_000,
                             node_limit: int = 2_000_000) -> pd.DataFrame:
    """Bounded-round SYNCHRONOUS label propagation (Raghavan et al. 2007
    — public) over an undirected distinct edge set (u < v): labels start
    as node ids; each round every node adopts the most frequent label
    among its NEIGHBORS' current labels, ties to the smallest label —
    the deterministic variant, so the bounded round count is part of the
    SEMANTICS and the SQL oracle unrolls each round as one
    (votes, argmax) CTE pair, exactly like kcore_peel/bfs_hops.
    Returns the community census (community, n_nodes) — the graph
    family's "which cluster, by local majority?" member (components give
    connectivity; this splits dense regions joined by thin bridges).

    Under ``driver_limit`` edges: one numpy vote-count/argmax loop.
    Past it: per round the label map broadcasts (``node_limit`` guard —
    the same fits-on-driver precondition every broadcast-label graph op
    here documents) and ONE streaming pass over the edge Dataset emits
    per-batch (node, lab, n) vote partials; the merge is bounded by
    distinct (node, label) pairs."""
    if isinstance(edges, pa.Table):
        edges = edges.to_pandas()
    if isinstance(edges, pd.DataFrame):
        u = edges["u"].to_numpy().astype(np.int64)
        v = edges["v"].to_numpy().astype(np.int64)
        if not len(u):
            return pd.DataFrame({"community": pd.Series([], dtype="int64"),
                                 "n_nodes": pd.Series([], dtype="int64")})
        return _lpa_driver(u, v, rounds)

    import ray

    from timberjack_ray.aggregates import merge_partials
    from timberjack_ray.functions.util import collect_table_under

    # materialize FIRST, collect from the materialized blocks: the edge
    # Dataset is typically a whole upstream exchange, and collect-then-
    # materialize executed it twice (round-5 sf1 finding)
    edges = edges.select_columns(["u", "v"]).materialize()
    small = collect_table_under(edges, driver_limit)
    if small is not None:
        return label_propagation_census(small, rounds=rounds)


    def node_partial(t: pa.Table) -> pa.Table:
        c = np.unique(np.concatenate(
            [t["u"].to_numpy(zero_copy_only=False),
             t["v"].to_numpy(zero_copy_only=False)]))
        return pa.table({"node": pa.array(c), "one": pa.array(
            np.ones(len(c), np.int64))})

    nt = merge_partials(edges.map_batches(node_partial,
                                          batch_format="pyarrow"),
                        ["node"], ["one"]).to_pandas()
    if len(nt) > node_limit:
        raise ValueError("label_propagation_census: node set exceeds "
                         "node_limit — the label map must fit the driver")
    nodes = nt["node"].to_numpy().astype(np.int64)
    nodes_sorted = np.sort(nodes)
    labels = nodes_sorted.copy()
    for _ in range(rounds):
        ref = ray.put((nodes_sorted, labels))

        def votes(t: pa.Table, _r=ref) -> pa.Table:
            ns, lb = ray.get(_r)
            uu = t["u"].to_numpy(zero_copy_only=False)
            vv = t["v"].to_numpy(zero_copy_only=False)
            src = np.concatenate([uu, vv])
            nbl = lb[np.searchsorted(ns, np.concatenate([vv, uu]))]
            g = pa.table({"node": pa.array(src), "lab": pa.array(nbl)}) \
                .group_by(["node", "lab"]).aggregate([([], "count_all")])
            return g.rename_columns(["node", "lab", "n"])

        # votes merge + per-node argmax stay DISTRIBUTED: the distinct
        # (node, label) pair count is edge-sized, which by construction
        # does not fit the driver on this path — only the one-winner-
        # per-node table (node-bounded, under node_limit) comes back

        def bucket_argmax(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"node": pa.array([], pa.int64()),
                                 "lab": pa.array([], pa.int64())})
            g = t.group_by(["node", "lab"]).aggregate([("n", "sum")])
            bn = g["node"].to_numpy(zero_copy_only=False)
            bl = g["lab"].to_numpy(zero_copy_only=False)
            bc = g["n_sum"].to_numpy(zero_copy_only=False)
            pk = np.lexsort((bl, -bc, bn))
            fs = np.r_[True, bn[pk][1:] != bn[pk][:-1]]
            return pa.table({"node": pa.array(bn[pk][fs]),
                             "lab": pa.array(bl[pk][fs])})

        win_ds = bucket_exchange(
            edges.map_batches(votes, batch_format="pyarrow"), ["node"],
            bucket_argmax, 256)
        wt = pa.concat_tables(
            [b for b in win_ds.iter_batches(batch_size=None,
                                            batch_format="pyarrow")
             if b.num_rows])
        win_n = wt["node"].to_numpy(zero_copy_only=False)
        win_l = wt["lab"].to_numpy(zero_copy_only=False)
        nl = labels.copy()
        nl[np.searchsorted(nodes_sorted, win_n)] = win_l
        labels = nl
    out = pd.Series(labels).value_counts().sort_index()
    return pd.DataFrame({"community": out.index.to_numpy(np.int64),
                         "n_nodes": out.to_numpy(np.int64)})


def bellman_ford_bounded(edges, seed: int | None = None, rounds: int = 4,
                         w_col: str = "w",
                         driver_limit: int = 2_000_000,
                         node_limit: int = 2_000_000) -> pd.DataFrame:
    """Bounded-round single-source shortest paths over an undirected
    weighted edge set (u < v, integer cost ``w_col`` >= 0): after k
    relaxation rounds, dist(v) = exact minimum cost over paths of <= k
    edges — the WEIGHTED sibling of ``bfs_hops`` (hop counts ignore how
    strong a tie is; integer costs rank them), with the round bound part
    of the SEMANTICS so the SQL oracle unrolls each relaxation as one
    min-fold CTE.  ``seed=None`` uses the minimum node id.  Returns
    (node, dist) for reached nodes, sorted by node.

    Under ``driver_limit`` edges: numpy minimum.at relaxation.  Past it:
    per round the dist map broadcasts (``node_limit`` guard — the
    fits-on-driver label-map precondition of this family) and ONE
    streaming pass over the edge Dataset emits per-batch (node, best)
    min partials; the merge is node-bounded."""
    if isinstance(edges, pa.Table):
        edges = edges.to_pandas()
    if isinstance(edges, pd.DataFrame):
        u = edges["u"].to_numpy().astype(np.int64)
        v = edges["v"].to_numpy().astype(np.int64)
        w = edges[w_col].to_numpy().astype(np.int64)
        if not len(u):
            return _empty_node_frame("dist")
        s = int(min(u.min(), v.min())) if seed is None else int(seed)
        nodes = np.unique(np.concatenate([u, v]))
        big = np.int64(2 ** 62)
        dist = np.full(len(nodes), big)
        si = np.searchsorted(nodes, s)
        if si < len(nodes) and nodes[si] == s:
            dist[si] = 0
        ui = np.searchsorted(nodes, u)
        vi = np.searchsorted(nodes, v)
        for _ in range(rounds):
            nd = dist.copy()
            np.minimum.at(nd, vi, np.where(dist[ui] < big,
                                           dist[ui] + w, big))
            np.minimum.at(nd, ui, np.where(dist[vi] < big,
                                           dist[vi] + w, big))
            if (nd == dist).all():
                break
            dist = nd
        m = dist < big
        return pd.DataFrame({"node": nodes[m], "dist": dist[m]}) \
            .astype("int64")

    import ray

    from timberjack_ray.functions.util import collect_table_under

    edges = edges.select_columns(["u", "v", w_col]).materialize()
    small = collect_table_under(edges, driver_limit)
    if small is not None:
        return bellman_ford_bounded(small, seed=seed, rounds=rounds,
                                    w_col=w_col)

    if seed is None:
        seed = _min_node(edges)
    dist: dict[int, int] = {int(seed): 0}
    for _ in range(rounds):
        ks = np.array(sorted(dist), dtype=np.int64)
        vs = np.array([dist[int(x)] for x in ks], dtype=np.int64)
        ref = ray.put((ks, vs))

        def relax(t: pa.Table, _r=ref) -> pa.Table:
            rk, rv = ray.get(_r)
            uu = t["u"].to_numpy(zero_copy_only=False)
            vv = t["v"].to_numpy(zero_copy_only=False)
            ww = t[w_col].to_numpy(zero_copy_only=False)
            src = np.concatenate([uu, vv])
            dst = np.concatenate([vv, uu])
            wc = np.concatenate([ww, ww])
            idx = np.searchsorted(rk, src)
            has = (idx < len(rk))
            idc = np.minimum(idx, max(len(rk) - 1, 0))
            has &= rk[idc] == src
            cand = np.where(has, rv[idc] + wc, np.int64(2 ** 62))
            ok = cand < 2 ** 62
            if not ok.any():
                return pa.table({"node": pa.array([], pa.int64()),
                                 "best": pa.array([], pa.int64())})
            g = pa.table({"node": pa.array(dst[ok]),
                          "best": pa.array(cand[ok])}) \
                .group_by("node").aggregate([("best", "min")])
            return g.rename_columns(["node", "best"])

        bt = merge_partials(edges.map_batches(relax, batch_format="pyarrow"),
                            ["node"], "best", ops=["min"]).to_pandas()
        if not len(bt):
            break
        changed = False
        for n_, b in zip(bt["node"].astype(int), bt["best"].astype(int)):
            if b < dist.get(n_, 2 ** 62):
                dist[n_] = b
                changed = True
        if len(dist) > node_limit:
            raise ValueError("bellman_ford_bounded: reached set exceeds "
                             "node_limit")
        if not changed:
            break
    if not _node_in_edges(edges, int(seed)):
        # driver-path parity: seed absent from the edge node set
        dist.pop(int(seed), None)
    out = pd.DataFrame(sorted(dist.items()), columns=["node", "dist"]) \
        if dist else _empty_node_frame("dist")
    return out.astype("int64")


def widest_path_bounded(edges, seed: int | None = None, rounds: int = 4,
                        w_col: str = "w", inf_width: int = 10 ** 9,
                        driver_limit: int = 2_000_000,
                        node_limit: int = 2_000_000) -> pd.DataFrame:
    """Bounded-round WIDEST path (max-bottleneck): width(v) = max over
    <= k-edge paths of the MINIMUM edge weight — Bellman-Ford on the
    (max, min) semiring instead of (min, +): "how strong is the
    strongest chain of ties to v?".  ``seed`` gets ``inf_width`` (the
    documented source convention, replayed by the oracle).  Returns
    (node, width) for reached nodes, sorted by node.

    Under ``driver_limit`` edges: numpy maximum.at relaxation.  Past it
    (round 5): the same broadcast-map degrade as bellman_ford_bounded on
    the swapped semiring — per round the reached-width map broadcasts
    (``node_limit`` guard) and ONE streaming pass over the edge Dataset
    emits per-batch (node, best) MAX partials of min(width[src], w); the
    fold is node-bounded."""
    if not isinstance(edges, pd.DataFrame):
        if isinstance(edges, pa.Table):
            edges = edges.to_pandas()
        else:
            from timberjack_ray.functions.util import collect_table_under

            small = collect_table_under(
                edges.select_columns(["u", "v", w_col]), driver_limit)
            if small is not None:
                edges = small.to_pandas()
            else:
                return _widest_path_distributed(
                    edges.select_columns(["u", "v", w_col]), seed, rounds,
                    w_col, inf_width, node_limit)
    u = edges["u"].to_numpy().astype(np.int64)
    v = edges["v"].to_numpy().astype(np.int64)
    w = edges[w_col].to_numpy().astype(np.int64)
    if not len(u):
        return _empty_node_frame("width")
    s = int(min(u.min(), v.min())) if seed is None else int(seed)
    nodes = np.unique(np.concatenate([u, v]))
    width = np.full(len(nodes), np.int64(-1))
    si = np.searchsorted(nodes, s)
    if si < len(nodes) and nodes[si] == s:
        width[si] = inf_width
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    for _ in range(rounds):
        nw = width.copy()
        np.maximum.at(nw, vi, np.minimum(width[ui], w))
        np.maximum.at(nw, ui, np.minimum(width[vi], w))
        nw = np.maximum(nw, width)
        if (nw == width).all():
            break
        width = nw
    m = width >= 0
    return pd.DataFrame({"node": nodes[m], "width": width[m]}) \
        .astype("int64")


def _node_in_edges(edges_ds, node: int) -> bool:
    """One streaming any() pass over a (materialized, slim) edge Dataset:
    does ``node`` appear as an endpoint?  Used by the distributed
    Bellman-Ford / widest-path degrades to mirror the driver paths'
    membership rule (an explicit seed absent from the edge set reaches
    nothing and must not appear in the output)."""
    def probe(t: pa.Table) -> pa.Table:
        hit = bool((t["u"].to_numpy(zero_copy_only=False) == node).any()
                   or (t["v"].to_numpy(zero_copy_only=False) == node).any())
        return pa.table({"hit": pa.array([int(hit)], pa.int64())})

    for b in edges_ds.map_batches(probe, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        if b.num_rows and int(pa.compute.sum(b["hit"]).as_py() or 0):
            return True
    return False


def _widest_path_distributed(edges_ds, seed, rounds: int, w_col: str,
                             inf_width: int, node_limit: int) -> pd.DataFrame:
    """Broadcast-map (max, min)-semiring relaxation over an edge Dataset
    — bellman_ford_bounded's distributed degrade with the operators
    swapped: candidate = min(width[src], w), fold = MAX per node.  The
    reached-width map is node-bounded (``node_limit`` guard); each round
    is one streaming pass; edge Dataset reused via materialize()."""
    import ray

    edges_ds = edges_ds.materialize()
    if seed is None:
        seed = _min_node(edges_ds)
    width: dict[int, int] = {int(seed): int(inf_width)}
    NEG = np.int64(-(2 ** 62))
    for _ in range(rounds):
        ks = np.array(sorted(width), dtype=np.int64)
        vs = np.array([width[int(x)] for x in ks], dtype=np.int64)
        ref = ray.put((ks, vs))

        def relax(t: pa.Table, _r=ref) -> pa.Table:
            rk, rv = ray.get(_r)
            uu = t["u"].to_numpy(zero_copy_only=False)
            vv = t["v"].to_numpy(zero_copy_only=False)
            ww = t[w_col].to_numpy(zero_copy_only=False)
            src = np.concatenate([uu, vv])
            dst = np.concatenate([vv, uu])
            wc = np.concatenate([ww, ww]).astype(np.int64)
            idx = np.searchsorted(rk, src)
            has = idx < len(rk)
            idc = np.minimum(idx, max(len(rk) - 1, 0))
            has &= rk[idc] == src
            cand = np.where(has, np.minimum(rv[idc], wc), NEG)
            ok = cand > NEG
            if not ok.any():
                return pa.table({"node": pa.array([], pa.int64()),
                                 "best": pa.array([], pa.int64())})
            g = pa.table({"node": pa.array(dst[ok]),
                          "best": pa.array(cand[ok])}) \
                .group_by("node").aggregate([("best", "max")])
            return g.rename_columns(["node", "best"])

        bt = merge_partials(
            edges_ds.map_batches(relax, batch_format="pyarrow"),
            ["node"], "best", ops=["max"]).to_pandas()
        if not len(bt):
            break
        changed = False
        for n_, b in zip(bt["node"].astype(int), bt["best"].astype(int)):
            if b > width.get(n_, -(2 ** 62)):
                width[n_] = b
                changed = True
        if len(width) > node_limit:
            raise ValueError("widest_path_bounded: reached set exceeds "
                             "node_limit")
        if not changed:
            break
    # driver-path parity: an explicit seed absent from the edge set is
    # unreachable and emitted by NO path; negative widths (possible only
    # with negative weights) are dropped by the driver's width >= 0 mask
    if not _node_in_edges(edges_ds, int(seed)):
        width.pop(int(seed), None)
    items = [(n_, w_) for n_, w_ in sorted(width.items()) if w_ >= 0]
    out = pd.DataFrame(items, columns=["node", "width"]) \
        if items else _empty_node_frame("width")
    return out.astype("int64")
