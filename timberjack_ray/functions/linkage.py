"""Entity-resolution / record-linkage operators.

FastSS-style edit-distance-1 pair detection via deletion-neighborhood
blocking (Bocek et al. 2007, "Fast Similarity Search in Big Dictionaries"
— a public algorithm): every string emits itself plus each of its
one-character-deletion variants as blocking keys; two DISTINCT strings
are at Levenshtein distance EXACTLY 1 iff they share a key under one of
two positional certificates, so no string re-verification pass is ever
needed:

* (self, deletion) — the shorter string IS a deletion variant of the
  longer one: a single insert/delete edit.
* (deletion@p, deletion@p) with EQUAL original lengths — deleting the
  SAME position from both yields the same string, so they differ only at
  position p: a single substitution.  (Equal-position is required:
  "ab"/"ba" share variant "b" via positions 0 and 1 but are distance 2.)

Each distance-1 pair owns exactly ONE qualifying variant string (a
substitution pair can't differ at two positions; a length-change pair
can't also be equal-length), so the union of per-variant-group pairs is
globally duplicate-free without a cross-group dedup.

No counterpart in the reference (its matcher is substring/regex —
src/matcher.rs); this is the fuzzy-blocking step a crawl-metadata /
catalog-linkage pipeline needs at 100 TB, where the all-pairs
``levenshtein`` join the SQL oracle runs is quadratically impossible.

Scale shape: records are (variant, del_pos, olen, id) — O(len) per
string; ONE hash(variant) bucket exchange co-locates equal variants;
inside a bucket a single dictionary-encode + lexsort finds the
equal-variant segments and a d-offset sweep enumerates candidate pairs
(segment sizes are bounded by the alphabet: all strings sharing a
variant differ from it at one position).  Driver never sees pair-level
data except the final degree histogram (bounded by the max degree).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from timberjack_ray.aggregates import bucket_exchange
from timberjack_ray.functions.corpus import _utf32_codes


def _deletion_records(t: pa.Table, col: str, id_col: str) -> pa.Table:
    """Blocking records for a batch: each string's self row (del_pos=-1)
    plus every one-deletion variant (del_pos=p).  Vectorized by grouping
    rows on length: all rows of char-length L share one (L, L-1) gather
    grid, so variant construction is a handful of numpy gathers, never a
    per-string Python loop.  ASCII value buffers rebuild variant strings
    straight from a uint8 view; rare non-ASCII rows take a per-row
    fallback (documented slow path)."""
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    arr = t[col].combine_chunks() if isinstance(t[col], pa.ChunkedArray) \
        else t[col]
    codes, lens, offs = _utf32_codes(arr)
    n = len(ids)
    out_v: list[pa.Array] = []
    out_p: list[np.ndarray] = []
    out_l: list[np.ndarray] = []
    out_i: list[np.ndarray] = []
    # self records (variant = the string itself, del_pos = -1)
    out_v.append(arr.cast(pa.large_string()))
    out_p.append(np.full(n, -1, np.int32))
    out_l.append(lens.astype(np.int32))
    out_i.append(ids)
    is_ascii = codes.size == 0 or int(codes.max()) < 128
    for L in np.unique(lens):
        L = int(L)
        if L < 1:
            continue
        rows = np.flatnonzero(lens == L)
        starts = offs[rows]                       # (R,)
        # grid[p, j] = index of the j-th char of the variant that deletes
        # position p: j + (j >= p)
        j = np.arange(L - 1)
        grid = j[None, :] + (j[None, :] >= np.arange(L)[:, None])  # (L, L-1)
        gat = (starts[:, None, None] + grid[None, :, :]).reshape(-1)
        flat = codes[gat] if L > 1 else np.zeros(0, np.uint64)
        nv = len(rows) * L
        if is_ascii:
            buf = flat.astype(np.uint8).tobytes()
            off_arr = np.arange(nv + 1, dtype=np.int64) * (L - 1)
            va = pa.Array.from_buffers(
                pa.large_string(), nv,
                [None, pa.py_buffer(off_arr.tobytes()), pa.py_buffer(buf)])
        else:  # non-ASCII fallback: per-variant codepoint join
            cp = flat.reshape(nv, L - 1)
            va = pa.array(["".join(map(chr, row)) for row in cp],
                          pa.large_string())
        out_v.append(va)
        out_p.append(np.tile(np.arange(L, dtype=np.int32), len(rows)))
        out_l.append(np.full(nv, L, np.int32))
        out_i.append(np.repeat(ids[rows], L))
    return pa.table({
        "variant": pa.concat_arrays([v.cast(pa.large_string())
                                     for v in out_v]),
        "del_pos": pa.array(np.concatenate(out_p)),
        "olen": pa.array(np.concatenate(out_l)),
        "id": pa.array(np.concatenate(out_i)),
    })


def _ed1_pairs_segmented(t: pa.Table) -> pa.Table:
    """In-bucket pair kernel: dictionary-encode the variant strings, one
    lexsort groups equal variants, a d-offset sweep visits every
    within-segment pair, and the positional-certificate mask keeps the
    distance-1 ones.  Segment sizes are alphabet-bounded, so the sweep's
    Sum(s^2) work is the honest candidate count."""
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())})
    if t.num_rows < 2:
        return empty
    enc = pc.dictionary_encode(t["variant"].combine_chunks())
    vcode = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dp = t["del_pos"].to_numpy(zero_copy_only=False)
    ol = t["olen"].to_numpy(zero_copy_only=False)
    ids = t["id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, vcode))
    vc, dp, ol, ids = vcode[order], dp[order], ol[order], ids[order]
    new = np.r_[True, vc[1:] != vc[:-1]]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, len(vc)])
    mx = int(sizes.max())
    if mx < 2:
        return empty
    outs_a, outs_b = [], []
    for off in range(1, mx):
        valid = sizes > off
        cnt = sizes[valid] - off
        base = np.repeat(starts[valid], cnt)
        step = np.arange(len(base)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        i = base + step
        jj = i + off
        # positional certificates (xor: a (-1,-1) pair would be two EQUAL
        # strings — distance 0, excluded; callers guarantee distinctness
        # but the mask refuses it regardless)
        si, sj = dp[i] == -1, dp[jj] == -1
        qual = (si ^ sj) | ((dp[i] == dp[jj]) & ~si & (ol[i] == ol[jj]))
        qual &= ids[i] != ids[jj]   # same string's two deletions can collide
        if qual.any():
            outs_a.append(ids[i][qual])
            outs_b.append(ids[jj][qual])
    if not outs_a:
        return empty
    a = np.concatenate(outs_a)
    b = np.concatenate(outs_b)
    pr = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)], 1), axis=0)
    return pa.table({"a": pa.array(pr[:, 0]), "b": pa.array(pr[:, 1])})


def ed1_pairs(ds, col: str, id_col: str, n_buckets: int = 256):
    """All unordered id pairs whose strings are at Levenshtein distance
    EXACTLY 1.  PRECONDITION: strings are distinct across ids (dedup
    first if not).  The xor certificate only refuses (self, self)
    collisions; two DIFFERENT ids carrying identical strings share every
    (deletion@p, deletion@p) record with equal lengths and would be
    emitted as false distance-1 pairs — run exact dedup upstream when the
    column can repeat (ADVICE r4).  Returns a streaming Dataset of
    (a, b), each pair exactly once (see module docstring for the
    uniqueness argument)."""
    recs = ds.map_batches(
        lambda t: _deletion_records(t, col, id_col),
        batch_format="pyarrow")
    return bucket_exchange(recs, ["variant"], _ed1_pairs_segmented, n_buckets)


def ed1_neighbor_census(ds, col: str, id_col: str,
                        n_buckets: int = 256) -> pd.DataFrame:
    """Degree histogram of the distance-1 neighbor graph: for every
    string, how many other strings are one edit away; returns
    (n_nb, n_names) sorted by n_nb, including the zero-degree row.
    Driver volume = number of DISTINCT degrees (max-degree bounded);
    per-id degrees fold in one groupby over (id) pair endpoints."""
    total = ds.count()
    pairs = ed1_pairs(ds, col, id_col, n_buckets=n_buckets)

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table({"id": pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()])})

    def degree_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        g = t.group_by("id").aggregate([("id", "count")])
        return g.rename_columns(["id", "n"])

    from timberjack_ray.aggregates import grouped_aggregate_ds

    deg = grouped_aggregate_ds(
        pairs.map_batches(endpoints, batch_format="pyarrow")
        .map_batches(degree_partial, batch_format="pyarrow"),
        ["id"], [("n", "sum", "sum(n)")])

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"n_nb": pa.array([], pa.int64()),
                             "k": pa.array([], pa.int64())})
        g = t.group_by("sum(n)").aggregate([("sum(n)", "count")])
        return g.rename_columns(["n_nb", "k"])

    hist = deg.map_batches(hist_partial, batch_format="pyarrow") \
        .groupby("n_nb").sum("k")
    rows = hist.take_all()   # bounded by #distinct degrees
    out = {int(r["n_nb"]): int(r["sum(k)"]) for r in rows}
    seen = sum(out.values())
    if total - seen > 0:
        out[0] = out.get(0, 0) + (total - seen)
    items = sorted(out.items())
    return pd.DataFrame({"n_nb": [i[0] for i in items],
                         "n_names": [i[1] for i in items]}) \
        .astype({"n_nb": "int64", "n_names": "int64"})


def _ed1_verify(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """Vectorized Levenshtein-distance-EXACTLY-1 check over two object
    arrays of strings (the pairwise verifier sorted-neighborhood
    blocking needs; FastSS avoids it via positional certificates).
    Equal-length pairs: exactly one positional mismatch.  Length-diff-1
    pairs: the longer with its first mismatching position deleted equals
    the shorter.  One padded codepoint matrix per side, one
    take_along_axis gather — no per-pair Python."""
    n = len(xa)
    if n == 0:
        return np.zeros(0, bool)

    def padded(arr) -> tuple[np.ndarray, np.ndarray]:
        codes, lens, offs = _utf32_codes(pa.array(
            [str(s) for s in arr], pa.large_string()))
        mm = int(lens.max()) if len(lens) else 0
        mat = np.zeros((len(arr), max(mm, 1)), np.uint32)
        if codes.size:
            rows = np.repeat(np.arange(len(arr)), lens)
            cols = np.arange(len(codes)) - np.repeat(offs[:-1], lens)
            mat[rows, cols] = codes.astype(np.uint32)
        return mat, lens

    mx0, lx = padded(xa)
    my0, ly = padded(ya)
    m = int(max(mx0.shape[1], my0.shape[1], 1))
    mx = np.zeros((n, m), np.uint32)
    my = np.zeros((n, m), np.uint32)
    mx[:, : mx0.shape[1]] = mx0
    my[:, : my0.shape[1]] = my0
    out = np.zeros(n, bool)
    eqlen = lx == ly
    if eqlen.any():
        mism = (mx[eqlen] != my[eqlen]).sum(axis=1)
        out[np.flatnonzero(eqlen)[mism == 1]] = True
    d1 = np.abs(lx - ly) == 1
    if d1.any():
        idx = np.flatnonzero(d1)
        lon = np.where(lx[idx] > ly[idx], 0, 1)
        ml = np.where(lon[:, None] == 0, mx[idx], my[idx])
        ms = np.where(lon[:, None] == 0, my[idx], mx[idx])
        ll = np.maximum(lx[idx], ly[idx])
        neq = ml != ms
        neq[np.arange(m)[None, :] >= ll[:, None]] = True  # cap at longer
        p = neq.argmax(axis=1)                            # first mismatch
        g = np.arange(m - 1)[None, :] + \
            (np.arange(m - 1)[None, :] >= p[:, None])
        dele = np.take_along_axis(ml, g, axis=1)
        ok = (dele == ms[:, : m - 1]).all(axis=1)
        out[idx[ok]] = True
    return out


def snm_candidate_census(ds, col: str, id_col: str,
                         window: int = 5) -> pd.DataFrame:
    """Sorted-neighborhood blocking census (Hernandez & Stolfo 1995 —
    the OTHER classic linkage blocking strategy): sort the strings, take
    every pair within ``window`` positions as a candidate, verify with
    the exact distance-1 check; returns ONE row (n_candidates,
    n_matches) — the blocking-quality census (how many true matches does
    a window-w pass see, at what candidate cost).  Precondition:
    distinct strings per id.

    Scale shape: ONE range exchange (Ray Data sort on the string);
    in-block pairs resolve with a (window-1)-offset sweep + the
    vectorized verifier; the only cross-block work is the junctions —
    each block ships its first/last (window-1) slim rows, the driver
    orders fragments by block-min and pairs adjacent edges: 2(w-1) rows
    per block, never data."""
    w = int(window)
    srt = ds.select_columns([col, id_col]).sort(col)

    def per_block(t: pa.Table) -> pa.Table:
        names = t[col].to_numpy(zero_copy_only=False).astype(object)
        n = len(names)
        cand = 0
        match = 0
        for off in range(1, w):
            if n <= off:
                break
            a, b = names[:-off], names[off:]
            cand += len(a)
            match += int(_ed1_verify(a, b).sum())
        k = min(w - 1, n)
        head = t.slice(0, k).column(col)
        tail = t.slice(max(n - k, 0)).column(col)
        return pa.table({
            "n_candidates": pa.array([cand], pa.int64()),
            "n_matches": pa.array([match], pa.int64()),
            "edge_head": pa.array([head.to_pylist()]),
            "edge_tail": pa.array([tail.to_pylist()]),
            "lo": pa.array([names[0] if n else ""], pa.string())})

    rows = [b for b in srt.map_batches(per_block, batch_format="pyarrow")
            .iter_batches(batch_size=None, batch_format="pyarrow")
            if b.num_rows]
    frags = pa.concat_tables(rows).to_pylist() if rows else []
    frags.sort(key=lambda r: r["lo"])
    cand = sum(r["n_candidates"] for r in frags)
    match = sum(r["n_matches"] for r in frags)
    # junctions: walk blocks in order with a carry of the last (w-1)
    # names seen so far — pairs may span SEVERAL blocks when a block is
    # smaller than the window, so adjacent-block pairing is not enough
    carry: list = []
    xs, ys = [], []
    for f in frags:
        head, tail = f["edge_head"], f["edge_tail"]
        for j, y in enumerate(head):
            reach = w - 1 - j             # carry elements within range
            if reach <= 0:
                break
            for x in carry[-reach:]:
                xs.append(x)
                ys.append(y)
        if len(tail) >= w - 1:
            carry = list(tail[-(w - 1):])
        else:                             # small block: head == whole block
            carry = (carry + list(head))[-(w - 1):]
    if xs:
        cand += len(xs)
        match += int(_ed1_verify(np.array(xs, object),
                                 np.array(ys, object)).sum())
    return pd.DataFrame({"n_candidates": [cand], "n_matches": [match]}) \
        .astype("int64")
