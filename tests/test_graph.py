"""Distributed connected components (round 3): the min-label propagation
Dataset path must produce exactly the driver union-find's components."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _cc(pairs, driver_limit, ray_ok=True):
    import ray.data as rd

    from timberjack_ray.functions.graph import connected_components

    t = pa.table({"a": pa.array(pairs[:, 0]), "b": pa.array(pairs[:, 1])})
    out = connected_components(rd.from_arrow(t).repartition(4),
                               driver_limit=driver_limit,
                               n_buckets=8, n_blocks=4)
    if isinstance(out, pd.DataFrame):
        return out.sort_values("node").reset_index(drop=True)
    return out.to_pandas().sort_values("node").reset_index(drop=True) \
        .astype({"node": "int64", "component": "int64"})


def test_connected_components_driver_vs_distributed_random(ray_session):
    rng = np.random.RandomState(17)
    # ~25 clusters of varying size, plus a chain (pointer-jumping stress:
    # depth 16 must converge in ~4 rounds, not 16)
    edges = []
    base = 0
    for sz in rng.randint(2, 8, 25):
        nodes = np.arange(base, base + sz, dtype=np.int64)
        for i in range(1, sz):
            edges.append((nodes[rng.randint(0, i)], nodes[i]))
        base += sz + 3  # gaps → singleton ids never appear
    chain = np.arange(10_000, 10_016, dtype=np.int64)
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    pairs = np.array(edges, dtype=np.int64)

    driver = _cc(pairs, driver_limit=10_000_000)
    assert driver.attrs["mode"] == "driver"
    dist = _cc(pairs, driver_limit=0)  # force the distributed path
    pd.testing.assert_frame_equal(
        dist, driver[["node", "component"]].astype("int64"))
    # chain collapses to one component labelled by its min node
    assert set(driver[driver["node"].isin(chain)]["component"]) == {10_000}


def test_connected_components_two_components_exact(ray_session):
    pairs = np.array([[5, 3], [3, 9], [20, 21]], dtype=np.int64)
    out = _cc(pairs, driver_limit=0)
    got = dict(zip(out["node"], out["component"]))
    assert got == {3: 3, 5: 3, 9: 3, 20: 20, 21: 20}


def test_minhash_dedup_distributed_components_match_driver(ray_session):
    """minhash_dedup past driver_limit must produce the same clusters via
    the Dataset min-label path as the driver union-find produces."""
    import ray.data as rd

    from timberjack_ray.functions.dedup import minhash_dedup

    base = ("the quick brown fox jumps over the lazy dog again and again "
            "in the yard")
    texts = []
    for i in range(40):
        words = base.split()
        words[i % len(words)] = f"w{i}"
        texts.append(" ".join(words))
    rng = np.random.RandomState(3)
    vocab = [f"tok{j}" for j in range(500)]
    texts += [" ".join(rng.choice(vocab, size=30)) for _ in range(40)]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(4)
    g_drv, p_drv = minhash_dedup(ds, threshold=0.5)
    g_dist, p_dist = minhash_dedup(ds, threshold=0.5, driver_limit=0)
    assert not isinstance(g_dist, pd.DataFrame)  # Dataset path taken
    df = g_dist.to_pandas().sort_values("doc_id").reset_index(drop=True) \
        .astype({"doc_id": "int64", "dup_group": "int64"})
    pd.testing.assert_frame_equal(
        df, g_drv.sort_values("doc_id").reset_index(drop=True)
        .astype({"doc_id": "int64", "dup_group": "int64"}))
    # the Dataset pair set keeps per-band duplicates (documented); the
    # distinct pairs must match the driver's deduped set exactly
    dd = p_dist.to_pandas().drop_duplicates(["a", "b"])
    assert (set(zip(dd["a"], dd["b"]))
            == set(zip(p_drv["a"], p_drv["b"])))


def test_pagerank_driver_basic():
    import numpy as np

    from timberjack_ray.functions.graph import PAGERANK_TOTAL, _pagerank_driver

    # star: 1,2,3 all point at 0; 0 points at 1
    u = np.array([1, 2, 3, 0], dtype=np.int64)
    v = np.array([0, 0, 0, 1], dtype=np.int64)
    out = _pagerank_driver(u, v, n_iter=5)
    r = dict(zip(out["node"], out["rank_fp"]))
    assert r[0] > r[1] > r[2] == r[3]  # hub ranks highest; 2,3 symmetric
    assert sum(r.values()) <= PAGERANK_TOTAL


def test_pagerank_distributed_matches_driver(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from timberjack_ray.functions.graph import _pagerank_driver, pagerank_int

    rng = np.random.RandomState(13)
    u = rng.randint(0, 60, size=400).astype(np.int64)
    v = (rng.randint(0, 80, size=400) + 100).astype(np.int64)
    uv = np.unique(np.stack([u, v], axis=1), axis=0)
    t = pa.table({"u": pa.array(uv[:, 0]), "v": pa.array(uv[:, 1])})
    exp = _pagerank_driver(uv[:, 0], uv[:, 1], n_iter=3) \
        .sort_values("node").reset_index(drop=True)
    got = pagerank_int(rd.from_arrow(t).repartition(4), n_iter=3,
                       driver_limit=10, n_buckets=8, n_blocks=4)
    assert not isinstance(got, type(exp))  # Dataset, not pandas
    got = got.to_pandas().sort_values("node").reset_index(drop=True)
    assert got["node"].tolist() == exp["node"].tolist()
    assert got["rank_fp"].tolist() == exp["rank_fp"].tolist()


def _brute_census(edges: set) -> tuple:
    nodes = sorted({x for e in edges for x in e})
    adj = {x: set() for x in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    wedges = sum(len(v) * (len(v) - 1) // 2 for v in adj.values())
    tri = 0
    for a, b in edges:
        tri += len(adj[a] & adj[b])
    return len(nodes), len(edges), wedges, tri // 3


def test_triangle_census_driver_matches_brute():
    rng = np.random.RandomState(7)
    from timberjack_ray.functions.graph import _triangle_census_driver

    pairs = {(int(a), int(b)) for a, b in rng.randint(0, 40, (300, 2))
             if a != b}
    edges = {(min(a, b), max(a, b)) for a, b in pairs}
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    got = _triangle_census_driver(u, v).iloc[0]
    want = _brute_census(edges)
    assert (got.n_nodes, got.n_edges, got.n_wedges, got.n_triangles) == want


def test_cooccurrence_triangles_distributed_matches_driver(ray_session):
    import ray.data as rd

    from timberjack_ray.functions.graph import cooccurrence_triangles

    rng = np.random.RandomState(11)
    g = rng.randint(0, 120, 2000).astype(np.int64)
    i = rng.randint(0, 60, 2000).astype(np.int64)
    t = pa.table({"g": pa.array(g), "i": pa.array(i)})
    driver = cooccurrence_triangles(
        rd.from_arrow(t).repartition(4), "g", "i", n_buckets=8,
        edge_driver_limit=10_000_000)
    dist = cooccurrence_triangles(
        rd.from_arrow(t).repartition(4), "g", "i", n_buckets=8,
        edge_driver_limit=1)  # force the distributed tail
    pd.testing.assert_frame_equal(driver, dist)
    # and both match an independent brute force
    edges = set()
    by_g = {}
    for gg, ii in zip(g.tolist(), i.tolist()):
        by_g.setdefault(gg, set()).add(ii)
    for items in by_g.values():
        s = sorted(items)
        for x in range(len(s)):
            for y in range(x + 1, len(s)):
                edges.add((s[x], s[y]))
    want = _brute_census(edges)
    got = driver.iloc[0]
    assert (got.n_nodes, got.n_edges, got.n_wedges, got.n_triangles) == want


def test_kcore_peel_driver_vs_distributed_and_bruteforce(ray_session):
    import pandas as pd
    import ray.data as rd

    from timberjack_ray.functions.graph import _kcore_driver, kcore_peel

    rng = np.random.RandomState(31)
    n = 80
    a = rng.randint(0, n, 400)
    b = rng.randint(0, n, 400)
    m = a != b
    u, v = np.minimum(a[m], b[m]), np.maximum(a[m], b[m])
    edges = pd.DataFrame({"u": u, "v": v}).drop_duplicates()

    # brute-force reference: peel to fixpoint (8 rounds is plenty at n=80)
    eu, ev = edges["u"].to_numpy(), edges["v"].to_numpy()
    for _ in range(100):
        nodes, deg = np.unique(np.concatenate([eu, ev]), return_counts=True)
        keep = set(nodes[deg >= 3])
        mm = np.array([x in keep and y in keep for x, y in zip(eu, ev)])
        if mm.all():
            break
        eu, ev = eu[mm], ev[mm]
    nodes, deg = np.unique(np.concatenate([eu, ev]), return_counts=True)
    ref = pd.DataFrame({"node": nodes, "degree": deg})

    drv = _kcore_driver(edges["u"].to_numpy().astype(np.int64),
                        edges["v"].to_numpy().astype(np.int64), 3, 100)
    assert drv.reset_index(drop=True).equals(ref.reset_index(drop=True))

    eds = rd.from_pandas(edges).repartition(4)
    dist = kcore_peel(eds, k=3, rounds=100, driver_limit=0)  # force distributed
    assert dist.attrs["mode"] == "distributed"
    assert dist[["node", "degree"]].reset_index(drop=True).equals(
        ref.astype({"node": "int64", "degree": "int64"})
        .reset_index(drop=True))


def test_common_neighbors_driver_and_distributed_match_brute(ray_session):
    """common_neighbors_topk: driver path, distributed path (forced via
    pair_driver_limit=0), and a set-based brute force agree on random
    graphs, including the hub cap and the non-adjacency anti filter."""
    import collections
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from timberjack_ray.functions.graph import (_common_neighbors_driver,
                                                common_neighbors_topk)

    def brute(u, v, k, cap):
        adj = collections.defaultdict(set)
        for a, b in zip(u, v):
            adj[a].add(b)
            adj[b].add(a)
        cnt = collections.Counter()
        for w, s in adj.items():
            if len(s) > cap:
                continue
            for a, b in itertools.combinations(sorted(s), 2):
                cnt[(a, b)] += 1
        es = set(zip(u, v))
        rows = [(a, b, c) for (a, b), c in cnt.items() if (a, b) not in es]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows[:k]

    rng = np.random.default_rng(7)
    for trial in range(8):
        n_nodes = int(rng.integers(5, 40))
        es = set()
        for _ in range(int(rng.integers(1, 120))):
            a, b = rng.integers(0, n_nodes, 2)
            if a != b:
                es.add((int(min(a, b)), int(max(a, b))))
        u = np.array([e[0] for e in es], dtype=np.int64)
        v = np.array([e[1] for e in es], dtype=np.int64)
        cap = int(rng.integers(2, 10))
        k = int(rng.integers(1, 8))
        exp = brute(u, v, k, cap)
        got = _common_neighbors_driver(u, v, k, cap)
        assert list(zip(got["x"], got["y"], got["cn"])) == exp, trial
        eds = rd.from_arrow(pa.table({"u": u, "v": v})).repartition(3)
        got2 = common_neighbors_topk(eds, k=k, degree_cap=cap, n_buckets=4,
                                     pair_driver_limit=0)
        assert list(zip(got2["x"], got2["y"], got2["cn"])) == exp, trial


def test_common_neighbors_empty_and_all_hubs():
    import numpy as np

    from timberjack_ray.functions.graph import _common_neighbors_driver

    out = _common_neighbors_driver(np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64), 5, 4)
    assert out.empty
    # every node a hub above the cap: no centers, no candidate pairs
    u = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
    v = np.array([1, 2, 3, 2, 3, 3], dtype=np.int64)
    out = _common_neighbors_driver(u, v, 5, 0)
    assert out.empty


def test_bfs_hops_driver_vs_distributed_vs_networkx_style(ray_session):
    """bfs_hops: driver walk, distributed per-round semi-join (forced via
    driver_limit=0), and a dict-based reference BFS agree, including the
    round bound truncating distances."""
    import collections

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from timberjack_ray.functions.graph import bfs_hops

    def ref_bfs(u, v, seed, rounds):
        adj = collections.defaultdict(set)
        for a, b in zip(u, v):
            adj[a].add(b)
            adj[b].add(a)
        dist = {seed: 0}
        frontier = [seed]
        for hop in range(1, rounds + 1):
            nxt = sorted({y for x in frontier for y in adj[x]
                          if y not in dist})
            for y in nxt:
                dist[y] = hop
            frontier = nxt
        return sorted(dist.items())

    rng = np.random.default_rng(13)
    for trial in range(6):
        n_nodes = int(rng.integers(4, 30))
        es = set()
        for _ in range(int(rng.integers(1, 60))):
            a, b = rng.integers(0, n_nodes, 2)
            if a != b:
                es.add((int(min(a, b)), int(max(a, b))))
        u = np.array([e[0] for e in es], dtype=np.int64)
        v = np.array([e[1] for e in es], dtype=np.int64)
        rounds = int(rng.integers(1, 5))
        seed = int(min(u.min(), v.min()))
        exp = ref_bfs(u, v, seed, rounds)
        got = bfs_hops(pa.table({"u": u, "v": v}), rounds=rounds)
        assert list(zip(got["node"], got["hop"])) == exp, trial
        eds = rd.from_arrow(pa.table({"u": u, "v": v})).repartition(3)
        got2 = bfs_hops(eds, rounds=rounds, driver_limit=0)
        assert list(zip(got2["node"], got2["hop"])) == exp, (trial, "dist")


def test_neighbor_jaccard_driver_and_distributed_match_brute(ray_session):
    """neighbor_jaccard_topk: driver path, distributed path (forced via
    pair_driver_limit=0), and a set-based brute force agree on random
    graphs — the scaled-int jscore, the hub cap on centers (cn counts
    only center-mediated wedges while degrees stay FULL), and the
    non-adjacency anti filter."""
    import collections
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from timberjack_ray.functions.graph import (JACCARD_SCALE,
                                                _neighbor_jaccard_driver,
                                                neighbor_jaccard_topk)

    def brute(u, v, k, cap):
        adj = collections.defaultdict(set)
        for a, b in zip(u, v):
            adj[a].add(b)
            adj[b].add(a)
        cnt = collections.Counter()
        for w, s in adj.items():
            if len(s) > cap:
                continue
            for a, b in itertools.combinations(sorted(s), 2):
                cnt[(a, b)] += 1
        es = set(zip(u, v))
        rows = []
        for (a, b), c in cnt.items():
            if (a, b) in es:
                continue
            js = c * JACCARD_SCALE // (len(adj[a]) + len(adj[b]) - c)
            rows.append((a, b, c, js))
        rows.sort(key=lambda r: (-r[3], r[0], r[1]))
        return rows[:k]

    rng = np.random.default_rng(11)
    for trial in range(8):
        n_nodes = int(rng.integers(5, 40))
        es = set()
        for _ in range(int(rng.integers(1, 120))):
            a, b = rng.integers(0, n_nodes, 2)
            if a != b:
                es.add((int(min(a, b)), int(max(a, b))))
        u = np.array([e[0] for e in es], dtype=np.int64)
        v = np.array([e[1] for e in es], dtype=np.int64)
        cap = int(rng.integers(2, 10))
        k = int(rng.integers(1, 8))
        exp = brute(u, v, k, cap)
        got = _neighbor_jaccard_driver(u, v, k, cap)
        assert list(zip(got["x"], got["y"], got["cn"],
                        got["jscore"])) == exp, trial
        eds = rd.from_arrow(pa.table({"u": u, "v": v})).repartition(3)
        got2 = neighbor_jaccard_topk(eds, k=k, degree_cap=cap, n_buckets=4,
                                     pair_driver_limit=0)
        assert list(zip(got2["x"], got2["y"], got2["cn"],
                        got2["jscore"])) == exp, trial


def test_degree_assortativity_driver_vs_distributed(ray_session):
    """degree_assortativity_stats: the 4-int sufficient statistics agree
    between the numpy driver path, the distributed broadcast-degree
    partial pass, and a dict brute force; star vs clique sanity signs."""
    import collections

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from timberjack_ray.functions.graph import (_assortativity_driver,
                                                degree_assortativity_stats)

    def brute(u, v):
        deg = collections.Counter()
        for a, b in zip(u, v):
            deg[a] += 1
            deg[b] += 1
        m2 = sxy = sx = sx2 = 0
        for a, b in zip(u, v):
            for x, y in ((a, b), (b, a)):
                m2 += 1
                sxy += deg[x] * deg[y]
                sx += deg[x]
                sx2 += deg[x] ** 2
        return [m2, sxy, sx, sx2]

    rng = np.random.default_rng(13)
    for trial in range(6):
        es = set()
        for _ in range(int(rng.integers(1, 150))):
            a, b = rng.integers(0, 30, 2)
            if a != b:
                es.add((int(min(a, b)), int(max(a, b))))
        u = np.array([e[0] for e in es], dtype=np.int64)
        v = np.array([e[1] for e in es], dtype=np.int64)
        exp = brute(u, v)
        assert _assortativity_driver(u, v).iloc[0].tolist() == exp, trial
        eds = rd.from_arrow(pa.table({"u": u, "v": v})).repartition(3)
        got = degree_assortativity_stats(eds)
        assert got.iloc[0].tolist() == exp, trial

    # a star graph is maximally disassortative: r < 0
    u = np.zeros(5, dtype=np.int64)
    v = np.arange(1, 6, dtype=np.int64)
    s = _assortativity_driver(u, v).iloc[0]
    num = s.m2 * s.sxy - s.sx ** 2
    den = s.m2 * s.sx2 - s.sx ** 2
    assert num < 0 < den


def test_label_propagation_matches_reference_and_modes(ray_session):
    """Driver LPA vs a per-node python reference (majority label, ties
    to smallest) on a random graph, and the distributed broadcast-vote
    path must agree exactly with the driver path."""
    import ray.data as rd

    from timberjack_ray.functions.graph import (_lpa_driver,
                                                label_propagation_census)

    rng = np.random.default_rng(21)
    m = 600
    u = rng.integers(0, 120, m).astype(np.int64)
    v = rng.integers(0, 120, m).astype(np.int64)
    keep = u != v
    uu = np.minimum(u[keep], v[keep])
    vv = np.maximum(u[keep], v[keep])
    ed = pd.DataFrame({"u": uu, "v": vv}).drop_duplicates() \
        .reset_index(drop=True)
    rounds = 3

    # python reference
    nodes = sorted(set(ed["u"]) | set(ed["v"]))
    nbrs = {n: [] for n in nodes}
    for a, b in zip(ed["u"], ed["v"]):
        nbrs[int(a)].append(int(b))
        nbrs[int(b)].append(int(a))
    lab = {n: n for n in nodes}
    for _ in range(rounds):
        nxt = {}
        for n in nodes:
            from collections import Counter
            c = Counter(lab[x] for x in nbrs[n])
            top = max(c.values())
            nxt[n] = min(l for l, k in c.items() if k == top)
        lab = nxt
    from collections import Counter
    cen = Counter(lab.values())
    ref = pd.DataFrame(sorted(cen.items()),
                       columns=["community", "n_nodes"]).astype("int64")

    got = label_propagation_census(ed, rounds=rounds)
    assert got.equals(ref), (got, ref)

    # distributed path (force past the driver guard) == driver path
    ds = rd.from_pandas(ed).repartition(4)
    got_d = label_propagation_census(ds, rounds=rounds, driver_limit=10)
    assert got_d.equals(ref)


def test_bellman_ford_bounded_matches_reference_and_modes(ray_session):
    """Weighted bounded-round SSSP vs a python reference (min cost over
    <= k-edge paths), driver == distributed, weighted order differs from
    hop order (a planted cheap 2-edge detour beats a costly direct
    edge)."""
    import ray.data as rd

    from timberjack_ray.functions.graph import bellman_ford_bounded

    rng = np.random.default_rng(33)
    m = 400
    u = rng.integers(0, 60, m).astype(np.int64)
    v = rng.integers(0, 60, m).astype(np.int64)
    keep = u != v
    ed = pd.DataFrame({"u": np.minimum(u[keep], v[keep]),
                       "v": np.maximum(u[keep], v[keep]),
                       "w": rng.integers(1, 100, keep.sum())
                       .astype(np.int64)}).drop_duplicates(["u", "v"]) \
        .reset_index(drop=True)
    # planted: direct 0-1 edge costs 99, detour 0-2-1 costs 1+1
    ed = pd.concat([pd.DataFrame({"u": [0, 0, 1], "v": [1, 2, 2],
                                  "w": [99, 1, 1]}), ed]) \
        .drop_duplicates(["u", "v"]).reset_index(drop=True)
    rounds = 4

    # python reference
    nodes = sorted(set(ed["u"]) | set(ed["v"]))
    seed = min(nodes)
    dist = {seed: 0}
    for _ in range(rounds):
        nd = dict(dist)
        for a, b, w in zip(ed["u"], ed["v"], ed["w"]):
            for x, y in ((a, b), (b, a)):
                if x in dist:
                    c = dist[x] + int(w)
                    if c < nd.get(y, 1 << 62):
                        nd[y] = c
        dist = nd
    ref = pd.DataFrame(sorted(dist.items()),
                       columns=["node", "dist"]).astype("int64")

    got = bellman_ford_bounded(ed, rounds=rounds)
    assert got.equals(ref), (got, ref)
    assert int(got[got["node"] == 1]["dist"].iloc[0]) == 2  # detour wins

    got_d = bellman_ford_bounded(rd.from_pandas(ed).repartition(4),
                                 rounds=rounds, driver_limit=10)
    assert got_d.equals(ref)


def test_widest_path_bounded_matches_reference(ray_session):
    """(max, min) semiring relaxation vs a python reference: the widest
    route can differ from the shortest — a planted strong 2-edge chain
    beats a weak direct edge."""
    from timberjack_ray.functions.graph import widest_path_bounded

    rng = np.random.default_rng(41)
    m = 300
    u = rng.integers(0, 40, m).astype(np.int64)
    v = rng.integers(0, 40, m).astype(np.int64)
    keep = u != v
    ed = pd.DataFrame({"u": np.minimum(u[keep], v[keep]),
                       "v": np.maximum(u[keep], v[keep]),
                       "w": rng.integers(1, 50, keep.sum())
                       .astype(np.int64)}).drop_duplicates(["u", "v"])
    ed = pd.concat([pd.DataFrame({"u": [0, 0, 1], "v": [1, 2, 2],
                                  "w": [1, 40, 40]}), ed]) \
        .drop_duplicates(["u", "v"]).reset_index(drop=True)
    rounds, INF = 4, 10 ** 9

    nodes = sorted(set(ed["u"]) | set(ed["v"]))
    seed = min(nodes)
    wid = {seed: INF}
    for _ in range(rounds):
        nd = dict(wid)
        for a, b, w in zip(ed["u"], ed["v"], ed["w"]):
            for x, y in ((a, b), (b, a)):
                if x in wid:
                    c = min(wid[x], int(w))
                    if c > nd.get(y, -1):
                        nd[y] = c
        wid = nd
    ref = pd.DataFrame(sorted(wid.items()),
                       columns=["node", "width"]).astype("int64")

    got = widest_path_bounded(ed, rounds=rounds)
    assert got.equals(ref), (got, ref)
    # the strong 2-edge chain (40) beats the weak direct edge (1);
    # random edges may offer an even wider route, never a narrower one
    assert int(got[got["node"] == 1]["width"].iloc[0]) >= 40


@pytest.mark.parametrize("fn_name,value_col,seed", [
    ("bfs_hops", "hop", None),
    ("bellman_ford_bounded", "dist", None),
    ("widest_path_bounded", "width", None),
    ("bfs_hops", "hop", 5),
], ids=["bfs_hops-hop", "bellman_ford_bounded-dist",
        "widest_path_bounded-width", "bfs_hops-hop-seed5"])
def test_bounded_walks_empty_edges_distributed(ray_session, fn_name,
                                               value_col, seed):
    """An empty edge Dataset, even with ``driver_limit=0``, returns the
    same typed empty frame as the driver path — with the default seed
    (no failing empty ``Min``) and with an explicit one (no seed row)."""
    import ray.data as rd

    from timberjack_ray.functions import graph

    empty = pa.table({"u": pa.array([], pa.int64()),
                      "v": pa.array([], pa.int64()),
                      "w": pa.array([], pa.int64())})
    fn = getattr(graph, fn_name)
    out = fn(rd.from_arrow(empty), seed=seed, driver_limit=0)
    assert list(out.columns) == ["node", value_col]
    assert len(out) == 0
    assert out.dtypes.tolist() == [np.dtype("int64")] * 2
    assert out.dtypes.tolist() == \
        fn(empty.to_pandas(), seed=seed).dtypes.tolist()
