"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Web-scale patterns over ``ray.data.Dataset``:

* exact      — content-hash column → hash-partition groupby → keep min(doc_id)
               per content (one shuffle of (hash, doc_id) pairs, never text).
* MinHash    — shingle → k minhashes → band → bucket groupby → candidate
               pairs verified by signature agreement (estimated Jaccard) →
               connected components → survivors.
* SimHash    — 64-bit sign-sum sketch; near-dup candidates share a 16-bit
               band (Hamming ≤ 3 ⟹ at least one of 4 bands equal).
* n-gram Jaccard — exact Jaccard verification on candidate pairs.

Partitioning assumption (documented per build-plan): the candidate-pair set
after LSH is orders of magnitude smaller than the corpus; connected
components run driver-side over pairs only (union-find).  When that
assumption fails (edge sets past a few million pairs),
``functions/graph.connected_components`` provides the equality-tested
distributed path — min-label propagation with pointer jumping, entirely
inside Ray Data.  At 100 TB the bucket groupbys shuffle fixed-size sketch
rows (ids + 8-byte hashes), not document text.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from timberjack_ray.aggregates import bucket_exchange

_MERSENNE = np.uint64((1 << 61) - 1)


def _stable_hash_strings(values: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(values.astype(object)).astype(np.uint64)


def add_content_hash(batch: pa.Table, col: str = "text", out: str = "content_hash") -> pa.Table:
    texts = batch[col].to_pandas().astype(str).to_numpy(dtype=object)
    h = pd.util.hash_array(texts).astype(np.uint64)
    return batch.append_column(out, pa.array(h.view(np.int64)))


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id"):
    """Survivor per distinct content: min(id) per content-hash group.

    Only (hash, id) pairs are shuffled.  Hash collisions across distinct
    texts are possible in principle (64-bit); verify within group when the
    domain requires certainty.
    """
    from timberjack_ray.aggregates import grouped_aggregate_ds

    def project(batch: pa.Table) -> pa.Table:
        hb = add_content_hash(batch, col)
        return hb.select([id_col, "content_hash"])

    pairs = ds.map_batches(project, batch_format="pyarrow")
    # bucket exchange, not a full-key ray groupby: content hashes are
    # ~all-distinct, and the sort-based groupby pays a full-width key
    # sort (measured 30x slower at 12M distinct keys)
    return grouped_aggregate_ds(pairs, ["content_hash"],
                                [(id_col, "min", id_col)])


def _minhash_params(num_perm: int, seed: int = 7):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.randint(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
    return a, b


def shingles(text: str, k: int = 3) -> np.ndarray:
    # single-space split (not runs-of-whitespace) so gram sets match the SQL
    # oracle's string_split(text, ' ') on texts with doubled/edge spaces
    ws = text.split(" ")
    if len(ws) <= k:
        return np.array([text], dtype=object)
    return np.array([" ".join(ws[i : i + k]) for i in range(len(ws) - k + 1)], dtype=object)


_FNV = np.uint64(1099511628211)


def gram_hashes_batch(texts, k: int = 3, window_at_k: bool = False):
    """Vectorized per-doc word-k-gram hashes → (flat uint64 values, offsets).

    One ``hash_array`` over the flat word stream + an FNV fold of ``k``
    shifted slices (the add_fingerprints machinery) replaces per-doc Python
    gram-string building.  Hash VALUES differ from hashing the joined gram
    strings, but the equivalence classes are identical (same word sequence ⇒
    same fold), which is all minhash signatures and Jaccard sets need.
    Docs with ≤ k words contribute ONE gram: the hash of the raw text
    (mirroring ``shingles``'s whole-text fallback).  Grams never cross
    document boundaries: only each doc's valid gram range is gathered.

    ``window_at_k=True`` moves the boundary so docs with EXACTLY k words go
    through the FNV window fold (one gram, same hash namespace as the same
    word sequence inside a longer doc) instead of the whole-text fallback —
    required by stride-1 span detection (``dup_span_positions``), whose SQL
    oracle windows every doc with nw >= k uniformly.  The default keeps the
    nw <= k whole-text fallback that the decontaminate / contamination /
    Jaccard oracles encode ('S:'-prefixed short-doc namespace).
    """
    s = pd.Series(list(texts), dtype=object).astype(str)
    n = len(s)
    if n == 0:
        return np.zeros(0, np.uint64), np.zeros(1, np.int64)
    # literal single-space split: pandas' default split() collapses runs of
    # any whitespace and drops empties, which diverges from the SQL oracle's
    # string_split(text, ' ') on doubled/leading/trailing spaces (ADVICE r02)
    words = s.str.split(" ")
    wc = words.str.len().to_numpy(dtype=np.int64)
    w_offs = np.concatenate([[0], np.cumsum(wc)])
    total = int(w_offs[-1])
    long_mask = wc >= k if window_at_k else wc > k
    out_lens = np.where(long_mask, wc - k + 1, 1)
    out_offs = np.concatenate([[0], np.cumsum(out_lens)]).astype(np.int64)
    out = np.zeros(int(out_offs[-1]), dtype=np.uint64)
    # short docs: whole-text hash
    if (~long_mask).any():
        short_idx = out_offs[:-1][~long_mask]
        out[short_idx] = pd.util.hash_array(
            s[~long_mask].to_numpy(dtype=object)).astype(np.uint64)
    if long_mask.any() and total >= k:
        flat = words.explode().dropna().to_numpy(dtype=object)
        wh = pd.util.hash_array(flat).astype(np.uint64)
        ng = total - k + 1
        gh = np.zeros(ng, dtype=np.uint64)
        for i in range(k):  # k iterations, vectorized across all grams
            gh = gh * _FNV + wh[i : i + ng]
        # gather each long doc's valid gram range into its output slot
        L = out_lens[long_mask]
        src_start = w_offs[:-1][long_mask]
        dst_start = out_offs[:-1][long_mask]
        total_long = int(L.sum())
        pos = np.arange(total_long, dtype=np.int64)
        rel = pos - np.repeat(np.concatenate([[0], np.cumsum(L)])[:-1], L)
        out[np.repeat(dst_start, L) + rel] = gh[np.repeat(src_start, L) + rel]
    return out, out_offs


class MinHasher:
    """Per-batch stage: per-doc MinHash signature (num_perm × uint64)."""

    def __init__(self, col: str = "text", num_perm: int = 64, shingle_k: int = 3, seed: int = 7):
        self.col = col
        self.num_perm = num_perm
        self.k = shingle_k
        self.a, self.b = _minhash_params(num_perm, seed)

    def signature(self, text: str) -> np.ndarray:
        sh, _ = gram_hashes_batch([text], self.k)
        # (num_perm, n_shingles) universal hashing, min over shingles
        vals = (self.a[:, None] * sh[None, :] + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.col].to_pylist()
        if not texts:
            sigs = np.zeros((0, self.num_perm), np.uint64)
        else:
            # fully vectorized: rolling word-hash grams for the whole batch
            # (gram_hashes_batch — no per-doc gram-string building), one
            # (num_perm × total_grams) universal-hash matrix, per-doc minima
            # via reduceat
            flat, offsets = gram_hashes_batch(texts, self.k)
            vals = (self.a[:, None] * flat[None, :] + self.b[:, None]) % _MERSENNE
            sigs = np.minimum.reduceat(vals, offsets[:-1], axis=1).T
        sig_col = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).view(np.int64)), self.num_perm
        )
        return pa.table({"doc_id": batch["doc_id"], "sig": sig_col})


def minhash_bands(sig_ds, num_perm: int = 64, bands: int = 16):
    """Explode signatures to (band, band_hash, doc_id, sig) rows.

    16 bands × 4 rows at num_perm=64 ⇒ LSH threshold ≈ (1/b)^(1/r) ≈ 0.5.
    """
    rows_per_band = num_perm // bands

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sig_arr = batch["sig"].combine_chunks()
        sigs = np.ascontiguousarray(
            np.asarray(sig_arr.flatten()).reshape(n, num_perm)
        ).view(np.uint64)
        # FNV-style fold of every band segment at once: (n, bands)
        seg = sigs.reshape(n, bands, rows_per_band)
        bh = np.zeros((n, bands), dtype=np.uint64)
        for j in range(rows_per_band):  # rows_per_band is tiny (4); cols stay vectorized
            bh = bh * np.uint64(1099511628211) + seg[:, :, j]
        # band-major order ⇒ signatures repeat in the same order per band
        sig_rep = pa.concat_arrays([sig_arr] * bands)
        doc_np = np.asarray(batch["doc_id"].combine_chunks())
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(bands, dtype=np.int32), n)),
                "band_hash": pa.array(bh.T.reshape(-1).view(np.int64)),
                "doc_id": pa.array(np.tile(doc_np, bands)),
                "sig": sig_rep,
            }
        )

    return sig_ds.map_batches(explode, batch_format="pyarrow")


def _pairs_segmented(t: pa.Table, threshold: float, max_bucket: int) -> pa.Table:
    """Signature-verified pair generation over MANY (band, band_hash)
    buckets in ONE vectorized pass — the scale path (round 2): one lexsort,
    adjacent-run dedup/cap, then an offset loop (d = 1..max bucket size,
    bounded by ``max_bucket``) where every iteration compares whole
    signature sub-matrices across all buckets at once.  Replaces
    one-Python-call-per-bucket pairing: cost is O(total pairs) vectorized
    work regardless of how many millions of buckets a partition holds."""
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "est_jaccard": pa.array([], pa.float64())})
    if t.num_rows < 2:
        return empty
    band = t["band"].to_numpy(zero_copy_only=False).astype(np.int64)
    bh = t["band_hash"].to_numpy(zero_copy_only=False).astype(np.int64)
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    sig_arr = t["sig"].combine_chunks()
    n0 = t.num_rows
    sigs = np.ascontiguousarray(
        np.asarray(sig_arr.flatten()).reshape(n0, -1))
    order = np.lexsort((ids, bh, band))
    band, bh, ids, sigs = band[order], bh[order], ids[order], sigs[order]
    # same-doc repeats within a bucket collapse (sorted → adjacent runs)
    dup = np.r_[False, (band[1:] == band[:-1]) & (bh[1:] == bh[:-1])
                & (ids[1:] == ids[:-1])]
    if dup.any():
        keep = ~dup
        band, bh, ids, sigs = band[keep], bh[keep], ids[keep], sigs[keep]
    # cap degenerate buckets at max_bucket rows (deterministic: doc_id asc)
    change = np.r_[True, (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])]
    starts = np.flatnonzero(change)
    sizes = np.diff(np.r_[starts, len(band)])
    rank = np.arange(len(band)) - np.repeat(starts, sizes)
    capped = rank < max_bucket
    if not capped.all():
        band, bh, ids, sigs = band[capped], bh[capped], ids[capped], sigs[capped]
        change = np.r_[True, (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])]
    seg_id = np.cumsum(change)
    n = len(ids)
    if n < 2:
        return empty
    max_size = int(np.bincount(seg_id).max())
    A, B, J = [], [], []
    for d in range(1, max_size):
        idx = np.arange(n - d)
        ii = idx[seg_id[idx] == seg_id[idx + d]]
        if not len(ii):
            continue
        agree = (sigs[ii] == sigs[ii + d]).mean(axis=1)
        hit = agree >= threshold
        if hit.any():
            x, y = ids[ii[hit]], ids[ii[hit] + d]
            A.append(np.minimum(x, y))
            B.append(np.maximum(x, y))
            J.append(agree[hit])
    if not A:
        return empty
    return pa.table({"a": pa.array(np.concatenate(A).astype(np.int64)),
                     "b": pa.array(np.concatenate(B).astype(np.int64)),
                     "est_jaccard": pa.array(np.concatenate(J))})


def candidate_pairs(band_ds, num_perm: int = 64, threshold: float = 0.7,
                    max_bucket: int = 256, driver_limit: int = 2_000_000):
    """Within-bucket pairs verified by signature agreement (estimated
    Jaccard ≥ threshold).  Buckets larger than ``max_bucket`` are truncated —
    giant buckets mean degenerate content where pairwise expansion explodes.

    Physical plan: almost every LSH bucket is a singleton, so shuffling ALL
    band rows into a groupby wastes the whole exchange.  Instead:

    1. bucket-occupancy partial count per batch → tiny driver merge;
    2. broadcast the multi-occupant bucket keys, semi-join-filter the band
       rows down to candidates only (``pc.is_in`` per batch);
    3. pair within buckets — driver-side pandas groupby when the filtered
       set is ≤ ``driver_limit`` rows (it is bounded by actual near-dup
       volume), else the distributed ``groupby().map_groups`` path.
    """
    import ray

    from timberjack_ray.aggregates import merge_partials

    def occupancy(t: pa.Table) -> pa.Table:
        g = t.select(["band", "band_hash"]).group_by(["band", "band_hash"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["band", "band_hash", "n"])

    # band rows are consumed twice (occupancy + filter) — callers should
    # pass a band_ds whose upstream is materialized or cheap to recompute
    # (minhash_dedup materializes the compact sig table, 8·num_perm B/doc)
    occ = merge_partials(band_ds.map_batches(occupancy, batch_format="pyarrow"),
                         ["band", "band_hash"], "n")
    hot = occ.filter(pc.greater_equal(occ["n"], 2))
    n_candidate_rows = int(pc.sum(hot["n"]).as_py() or 0)
    hot_keys = hot["band_hash"].combine_chunks()  # cross-band key collisions
    # only keep extra rows; the pairing groupby still keys on (band, hash)
    hot_ref = ray.put(hot_keys)

    def filter_hot(t: pa.Table) -> pa.Table:
        keys = ray.get(hot_ref)
        return t.filter(pc.is_in(t["band_hash"], value_set=keys))

    filtered = band_ds.map_batches(filter_hot, batch_format="pyarrow")

    if n_candidate_rows <= driver_limit:
        frames = [b for b in filtered.iter_batches(
            batch_size=None, batch_format="pyarrow") if b.num_rows]
        if not frames:
            return pd.DataFrame({"a": [], "b": [], "est_jaccard": []})
        return _pairs_segmented(pa.concat_tables(frames), threshold,
                                max_bucket).to_pandas()

    # distributed: coarse-bucket the band hashes so each exchange call (one
    # shuffled block of whole buckets) pairs MANY buckets with the
    # one-lexsort segmented kernel (grouping on the raw (band, hash) key
    # would be per-bucket Python at LSH scale)
    return bucket_exchange(
        filtered, ["band_hash"],
        lambda t: _pairs_segmented(t, threshold, max_bucket), 256)


def minhash_dedup(ds, col: str = "text", num_perm: int = 64, bands: int = 16,
                  threshold: float = 0.7, driver_limit: int = 2_000_000):
    """Full MinHash-LSH near-dup pipeline → pandas DataFrame of
    (doc_id, dup_group) for docs in some near-dup cluster, plus the
    verified pair set.  ``dup_group`` is the component's min doc id.

    Clustering routes through ``functions/graph``: union-find on the
    driver while the verified pair set stays under ``driver_limit``
    (the usual |pairs| ≪ |docs| case), the distributed min-label
    propagation past it — in which case BOTH return values are Datasets:
    (doc_id, dup_group), and a pair set that may still hold per-band
    duplicate (a, b) rows (harmless to the components; distinct-ify
    downstream if pair identity matters).  Non-integer doc ids keep a
    driver-only union-find (lexicographic min representative).

    The hasher runs as stateless tasks: the permutation params are bytes,
    shipped inside the pickled instance, so it fuses with the read and
    scales to every core with no pool start-up.
    """
    sig = ds.map_batches(MinHasher(col=col, num_perm=num_perm),
                         batch_format="pyarrow")
    # compact: 8·num_perm bytes/doc — cheap to hold, saves recomputing the
    # hash stage for candidate_pairs' two passes over the exploded bands
    sig = sig.materialize()
    bands_ds = minhash_bands(sig, num_perm=num_perm, bands=bands)
    pairs = candidate_pairs(bands_ds, num_perm=num_perm, threshold=threshold,
                            driver_limit=driver_limit)

    if not isinstance(pairs, pd.DataFrame):
        from timberjack_ray.functions.util import collect_table_under

        small = collect_table_under(pairs, driver_limit)
        if small is None:
            # past the driver assumption: distributed components, and the
            # pair set stays a Dataset too
            from timberjack_ray.functions.graph import connected_components

            comp = connected_components(pairs, driver_limit=0)
            groups = comp.map_batches(
                lambda t: t.rename_columns(["doc_id", "dup_group"]),
                batch_format="pyarrow")
            return groups, pairs
        pairs = small.to_pandas()
    pairs = pairs.drop_duplicates(["a", "b"])

    if len(pairs) and pd.api.types.is_integer_dtype(pairs["a"]):
        from timberjack_ray.functions.graph import _union_find_components

        comp = _union_find_components(
            pairs["a"].to_numpy().astype(np.int64),
            pairs["b"].to_numpy().astype(np.int64))
        groups = comp.rename(columns={"node": "doc_id",
                                      "component": "dup_group"})
        return groups, pairs

    # non-integer ids: driver union-find, lexicographic min representative
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs["a"], pairs["b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            if str(rb) < str(ra):
                ra, rb = rb, ra
            parent[rb] = ra
    members = sorted(set(pairs["a"]).union(set(pairs["b"])))
    groups = pd.DataFrame({"doc_id": members, "dup_group": [find(m) for m in members]})
    return groups, pairs


class SimHasher:
    """64-bit SimHash over word hashes (sign-sum sketch)."""

    def __init__(self, col: str = "text"):
        self.col = col
        self.bits = np.uint64(1) << np.arange(64, dtype=np.uint64)

    def simhash(self, text: str) -> np.uint64:
        ws = np.array(text.split(), dtype=object)
        if len(ws) == 0:
            return np.uint64(0)
        hs = _stable_hash_strings(ws)
        bitmat = ((hs[:, None] & self.bits[None, :]) != 0).astype(np.int32)
        votes = bitmat.sum(axis=0) * 2 - len(hs)
        return np.uint64(((votes > 0).astype(np.uint64) * self.bits).sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.col].to_pylist()
        sh = np.array([self.simhash(t) for t in texts], dtype=np.uint64)
        return pa.table({"doc_id": batch["doc_id"], "simhash": pa.array(sh.view(np.int64))})


def simhash_candidates(ds, col: str = "text"):
    """SimHash → 4×16-bit band buckets → candidate pairs with Hamming ≤ 3."""
    sh = ds.map_batches(SimHasher(col=col), batch_format="pyarrow")

    def explode(batch: pa.Table) -> pa.Table:
        h = np.asarray(batch["simhash"]).view(np.uint64)
        n = len(h)
        doc = batch["doc_id"].combine_chunks()
        segs = np.stack([((h >> np.uint64(16 * b)) & np.uint64(0xFFFF))
                         .astype(np.int64) for b in range(4)])
        return pa.table({
            "band": pa.array(np.repeat(np.arange(4, dtype=np.int32), n)),
            "key": pa.array(segs.reshape(-1)),
            "doc_id": pa.concat_arrays([doc] * 4),
            "simhash": pa.array(np.tile(h.view(np.int64), 4)),
        })

    banded = sh.map_batches(explode, batch_format="pyarrow")
    # coarse-bucket the 16-bit band keys: each exchange call (one shuffled
    # block of whole buckets) pairs MANY (band, key) buckets with one
    # segmented vectorized pass
    return bucket_exchange(banded, ["key"], _simhash_pairs_segmented, 256)


def _simhash_pairs_segmented(t: pa.Table, max_ham: int = 3,
                             max_bucket: int = 256) -> pa.Table:
    """Hamming-verified pairs over MANY (band, key) buckets in one
    vectorized pass (same segmented-offset shape as ``_pairs_segmented``):
    lexsort, adjacent same-doc dedup, then per-offset XOR + unpackbits
    popcount across all buckets at once.  Degenerate buckets (e.g. many
    empty docs all at simhash 0 sharing a 16-bit band key) are capped at
    ``max_bucket`` rows (deterministic: doc_id asc) — without the cap one
    giant segment makes the offset loop O(rows × max_segment) (ADVICE r02)."""
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "hamming": pa.array([], pa.int64())})
    if t.num_rows < 2:
        return empty
    band = t["band"].to_numpy(zero_copy_only=False).astype(np.int64)
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    hv = t["simhash"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
    order = np.lexsort((ids, key, band))
    band, key, ids, hv = band[order], key[order], ids[order], hv[order]
    dup = np.r_[False, (band[1:] == band[:-1]) & (key[1:] == key[:-1])
                & (ids[1:] == ids[:-1])]
    if dup.any():
        keep = ~dup
        band, key, ids, hv = band[keep], key[keep], ids[keep], hv[keep]
    change = np.r_[True, (band[1:] != band[:-1]) | (key[1:] != key[:-1])]
    starts = np.flatnonzero(change)
    sizes = np.diff(np.r_[starts, len(band)])
    rank = np.arange(len(band)) - np.repeat(starts, sizes)
    capped = rank < max_bucket
    if not capped.all():
        band, key, ids, hv = band[capped], key[capped], ids[capped], hv[capped]
        change = np.r_[True, (band[1:] != band[:-1]) | (key[1:] != key[:-1])]
    seg_id = np.cumsum(change)
    n = len(ids)
    if n < 2:
        return empty
    max_size = int(np.bincount(seg_id).max())
    A, B, H = [], [], []
    for d in range(1, max_size):
        idx = np.arange(n - d)
        ii = idx[seg_id[idx] == seg_id[idx + d]]
        if not len(ii):
            continue
        x = hv[ii] ^ hv[ii + d]
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1) \
            .sum(axis=1).astype(np.int64)
        hit = ham <= max_ham
        if hit.any():
            p, q = ids[ii[hit]], ids[ii[hit] + d]
            A.append(np.minimum(p, q))
            B.append(np.maximum(p, q))
            H.append(ham[hit])
    if not A:
        return empty
    return pa.table({"a": pa.array(np.concatenate(A).astype(np.int64)),
                     "b": pa.array(np.concatenate(B).astype(np.int64)),
                     "hamming": pa.array(np.concatenate(H))})


def jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = set(shingles(a, k).tolist()), set(shingles(b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard similarity join (prefix filtering)
# ---------------------------------------------------------------------------

class PrefixGramStage:
    """map_batches stage: per doc, emit one row per PREFIX gram.

    Grams are distinct word k-grams (``shingles`` — whole text when the doc
    has ≤ k words), globally ordered by their stable 64-bit hash.  For a doc
    with m distinct grams the prefix is its (m − ⌈t·m⌉ + 1) smallest gram
    hashes: any pair with Jaccard ≥ t shares at least ⌈t·max(mA,mB)⌉ grams,
    so their prefixes must intersect (prefix-filter lemma, Chaudhuri et al.
    2006) — grouping prefix rows by gram yields a COMPLETE candidate set and
    the join is exact after verification.  Hash order is a valid (random)
    total order; a global frequency order would prune better at the cost of
    one extra counting pass (documented trade).

    Each prefix row carries the doc's full sorted gram-hash set for in-bucket
    verification (duplication ≈ (1−t)·m per doc — fine for documents; for
    book-length docs switch to the two-phase candidates-then-join variant).
    """

    def __init__(self, threshold: float = 0.6, k: int = 3,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.t = threshold
        self.k = k
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = np.asarray(batch[self.id_col])
        n = len(texts)
        if n == 0:
            return pa.table({
                "gram": pa.array([], pa.int64()),
                self.id_col: pa.array([], pa.int64()),
                "m": pa.array([], pa.int64()),
                "gram_set": pa.array([], pa.large_list(pa.int64())),
            })
        # vectorized grams + per-doc sorted-distinct via ONE global lexsort
        flat, offs = gram_hashes_batch([t or "" for t in texts], self.k)
        doc_rep = np.repeat(np.arange(n), np.diff(offs))
        order = np.lexsort((flat, doc_rep))
        fs, dr = flat[order], doc_rep[order]
        keep = np.concatenate([[True], (fs[1:] != fs[:-1]) | (dr[1:] != dr[:-1])])
        fs, dr = fs[keep], dr[keep]
        ms = np.bincount(dr, minlength=n).astype(np.int64)
        new_offs = np.concatenate([[0], np.cumsum(ms)]).astype(np.int64)
        sets = [fs[new_offs[i]: new_offs[i + 1]] for i in range(n)]
        Ls = np.maximum(ms - np.ceil(self.t * ms).astype(np.int64) + 1, 1)
        gram = np.concatenate([s[:L] for s, L in zip(sets, Ls)]) \
            if len(sets) else np.zeros(0, np.uint64)
        # full set attached to every prefix row of its doc
        set_values = np.concatenate([np.tile(s, L) for s, L in zip(sets, Ls)]) \
            if len(sets) else np.zeros(0, np.uint64)
        set_lens = np.repeat(ms, Ls)
        offsets = np.concatenate([[0], np.cumsum(set_lens)]).astype(np.int64)
        set_col = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), pa.array(set_values.view(np.int64)))
        return pa.table({
            "gram": pa.array(gram.view(np.int64)),
            self.id_col: pa.array(np.repeat(ids, Ls)),
            "m": pa.array(np.repeat(ms, Ls)),
            "gram_set": set_col,
        })


def _pair_inter_chunk(flat: np.ndarray, offs: np.ndarray, m_doc: np.ndarray,
                      a_idx: np.ndarray, b_idx: np.ndarray, n_uniq: int) -> np.ndarray:
    """Exact ``|gramset(a) ∩ gramset(b)|`` for each (a_idx, b_idx) pair.

    Gathers both docs' rank arrays per pair with one ragged fancy-index,
    packs (pair, rank) into a single sortable int64 key, sorts once and
    counts duplicate keys (per-doc sets are distinct, so a duplicate key ⟺
    the gram is in both sets).  Pure numpy — runs serially or as a Ray task
    over ``ray.put``-shared ``flat``/``offs``/``m_doc``.
    """
    cn = len(a_idx)
    docs2 = np.empty(2 * cn, dtype=np.int64)
    docs2[0::2], docs2[1::2] = a_idx, b_idx
    seg_lens = m_doc[docs2]
    cum = np.cumsum(seg_lens)
    total = int(cum[-1]) if cn else 0
    shift = offs[docs2] - (cum - seg_lens)
    gidx = np.arange(total, dtype=np.int64) + np.repeat(shift, seg_lens)
    key = np.repeat(np.arange(cn, dtype=np.int64).repeat(2) * n_uniq, seg_lens) \
        + flat[gidx]
    key.sort()
    dup = key[1:] == key[:-1]
    return np.bincount(key[1:][dup] // n_uniq, minlength=cn)


def _jaccard_small_fold(tbl: pa.Table, threshold: float, id_col: str,
                        max_bucket: int, use_ray_tasks: bool = True) -> pd.DataFrame:
    """Driver-side exact verify over collected prefix rows, fully vectorized.

    Groups prefix rows by gram (occupancy ≥ 2 only), emits UNIQUE unordered
    id pairs per bucket-size class via one reshape + ``triu_indices``, then
    verifies every unique pair exactly once with a single lexsort
    duplicate-count over the concatenated gram sets — no per-pair
    ``intersect1d`` and no per-group pandas ``apply`` (a pair sharing g
    grams was previously verified g times).  Ids must be in [0, 2^31) —
    the same packing contract as the distributed pair-dedup path.
    """
    empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                          "b": pd.Series([], dtype="int64"),
                          "jacc": pd.Series([], dtype="float64")})
    if tbl.num_rows == 0:
        return empty
    gram = tbl.column("gram").combine_chunks().to_numpy(zero_copy_only=False)
    ids = tbl.column(id_col).combine_chunks().to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, gram))
    g, i = gram[order], ids[order]
    keep = np.r_[True, (g[1:] != g[:-1]) | (i[1:] != i[:-1])]  # drop dup (gram,id)
    g, i = g[keep], i[keep]
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    sizes = np.diff(np.r_[starts, len(g)])
    multi = sizes >= 2
    starts, sizes = starts[multi], np.minimum(sizes[multi], max_bucket)
    if not len(starts):
        return empty
    lo_parts, hi_parts = [], []
    for s in np.unique(sizes):
        sel = starts[sizes == s]
        mem = i[sel[:, None] + np.arange(s)[None, :]]     # (n_buckets, s)
        iu, ju = np.triu_indices(s, k=1)
        a, b = mem[:, iu].ravel(), mem[:, ju].ravel()
        lo_parts.append(np.minimum(a, b))
        hi_parts.append(np.maximum(a, b))
    lo = np.concatenate(lo_parts).astype(np.uint64)
    hi = np.concatenate(hi_parts).astype(np.uint64)
    packed = np.unique((lo << np.uint64(32)) | hi)
    lo = (packed >> np.uint64(32)).astype(np.int64)
    hi = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)
    # one flat (rank-encoded) gram array over involved docs — per-PAIR copies
    # below are pure fancy-indexing, never a Python-level list of arrays
    first = tbl.select([id_col, "gram_set"]).to_pandas().drop_duplicates(id_col)
    doc_ids = first[id_col].to_numpy(np.int64)
    order_d = np.argsort(doc_ids)
    doc_ids = doc_ids[order_d]
    doc_sets = [np.asarray(s, dtype=np.int64) for s in first["gram_set"].to_numpy()[order_d]]
    m_doc = np.fromiter((len(s) for s in doc_sets), dtype=np.int64, count=len(doc_sets))
    flat = np.concatenate(doc_sets)
    offs = np.r_[0, np.cumsum(m_doc)]
    _, flat = np.unique(flat, return_inverse=True)   # dense gram ranks < n_uniq
    n_uniq = int(flat.max()) + 1 if len(flat) else 1
    a_idx = np.searchsorted(doc_ids, lo)
    b_idx = np.searchsorted(doc_ids, hi)
    m_a, m_b = m_doc[a_idx], m_doc[b_idx]
    # length filter: jacc >= t forces min(m)/max(m) >= t
    ok = np.minimum(m_a, m_b) >= threshold * np.maximum(m_a, m_b)
    lo, hi, a_idx, b_idx = lo[ok], hi[ok], a_idx[ok], b_idx[ok]
    m_a, m_b = m_a[ok], m_b[ok]
    npairs = len(lo)
    if npairs == 0:
        return empty
    # chunked exact intersection (see _pair_inter_chunk); chunks fan out as
    # Ray tasks over a ray.put-broadcast flat array — the verify is memory-
    # bandwidth-bound numpy that would otherwise serialize on the driver
    import ray

    cum_vals = np.cumsum(m_a + m_b)
    bounds = [0]
    while bounds[-1] < npairs:
        s = bounds[-1]
        base_vals = cum_vals[s - 1] if s else 0
        bounds.append(min(npairs, max(s + 1, int(np.searchsorted(
            cum_vals, base_vals + 4_000_000)) + 1)))
    chunks = list(zip(bounds[:-1], bounds[1:]))
    if use_ray_tasks and len(chunks) > 1 and ray.is_initialized():
        flat_ref, offs_ref, m_ref = ray.put(flat), ray.put(offs), ray.put(m_doc)
        rf = ray.remote(num_cpus=1)(_pair_inter_chunk)
        inter = np.concatenate(ray.get([
            rf.remote(flat_ref, offs_ref, m_ref, a_idx[s:e], b_idx[s:e], n_uniq)
            for s, e in chunks]))
    else:
        inter = np.concatenate([
            _pair_inter_chunk(flat, offs, m_doc, a_idx[s:e], b_idx[s:e], n_uniq)
            for s, e in chunks])
    union = m_a + m_b - inter
    jacc = inter / np.maximum(union, 1)
    hit = jacc >= threshold
    return pd.DataFrame({"a": pd.Series(lo[hit], dtype="int64"),
                         "b": pd.Series(hi[hit], dtype="int64"),
                         "jacc": pd.Series(jacc[hit], dtype="float64")})


def ngram_jaccard_pairs(ds, threshold: float = 0.6, k: int = 3,
                        id_col: str = "doc_id", text_col: str = "text",
                        max_bucket: int = 512, driver_limit: int = 500_000):
    """EXACT n-gram Jaccard similarity self-join: every pair with distinct
    word-k-gram Jaccard ≥ threshold → Dataset of (a, b, jacc), deduped.

    Unlike minhash/simhash (approximate candidates), this is an exact
    algorithm: prefix-filter rows → one groupby on gram → in-bucket exact
    verification → pair dedup groupby.  Shuffle volume is prefix rows
    (≈ (1−t)·grams per doc), never raw text.  When the prefix rows fit on
    the driver (≤ driver_limit) a pandas fold replaces both groupbys — same
    small-side pattern as candidate_pairs.
    """
    prefix_rows = ds.map_batches(
        PrefixGramStage(threshold=threshold, k=k, id_col=id_col, text_col=text_col),
        batch_format="pyarrow")

    from timberjack_ray.functions.util import collect_table_under

    small = collect_table_under(prefix_rows, driver_limit)
    if small is not None:
        import ray.data as rd

        return rd.from_pandas(_jaccard_small_fold(small, threshold, id_col, max_bucket))

    # distributed path: same occupancy prefilter as candidate_pairs — count
    # gram occupancy (tiny partial merge), broadcast the multi-occupant gram
    # keys, semi-join-filter the prefix rows before the pairing groupby so
    # singleton-gram set payloads never shuffle
    import ray

    from timberjack_ray.aggregates import merge_partials

    def occupancy(t: pa.Table) -> pa.Table:
        g = t.select(["gram"]).group_by("gram").aggregate([([], "count_all")])
        return g.rename_columns(["gram", "n"])

    occ = merge_partials(prefix_rows.map_batches(occupancy, batch_format="pyarrow"),
                         ["gram"], "n")
    hot_ref = ray.put(occ.filter(pc.greater_equal(occ["n"], 2))["gram"].combine_chunks())

    def filter_hot(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["gram"], value_set=ray.get(hot_ref)))

    # coarse-bucket the hot grams: each exchange call (one shuffled block
    # of whole buckets) runs the SAME
    # vectorized multi-gram verify as the driver fold over its slice (one
    # lexsort + unique-pair triu + chunked exact intersection — never a
    # per-gram or per-pair Python call); nested Ray tasks stay off inside
    # dataset workers (use_ray_tasks=False)
    filtered = prefix_rows.map_batches(filter_hot, batch_format="pyarrow")
    pairs = bucket_exchange(
        filtered, ["gram"],
        lambda t: pa.Table.from_pandas(
            _jaccard_small_fold(t, threshold, id_col, max_bucket,
                                use_ray_tasks=False),
            preserve_index=False),
        256)
    # a pair found in several gram buckets dedups with a C-side aggregate
    # (values are identical per pair, so min == first)

    keyed = pairs.map_batches(
        lambda t: t.append_column(
            "pair_key",
            pa.array((np.asarray(t["a"], dtype=np.int64) << np.int64(31))
                     | np.asarray(t["b"], dtype=np.int64))),
        batch_format="pyarrow")
    from timberjack_ray.aggregates import grouped_aggregate_ds

    return grouped_aggregate_ds(
        keyed, ["pair_key"],
        [("a", "min", "a"), ("b", "min", "b"), ("jacc", "min", "jacc")]) \
        .drop_columns(["pair_key"])


# ---------------------------------------------------------------------------
# Benchmark decontamination (held-out n-gram overlap removal)
# ---------------------------------------------------------------------------

# per-worker-process cache of the broadcast benchmark gram array — the
# canonical implementation lives in util.fetch_broadcast (stateless tasks
# fetch once per worker, the stage still fuses with its neighbours)
from timberjack_ray.functions.util import (  # noqa: E402
    fetch_broadcast as _fetch_bench,
    sorted_lookup,
    sorted_member_mask,
)


def benchmark_gram_set(bench_ds, col: str = "text", k: int = 3) -> np.ndarray:
    """Distinct word-k-gram hashes of the benchmark side, driver-folded.

    Benchmark/eval sets are small BY DEFINITION (they are test sets), so the
    distinct-gram fold fits on the driver: each batch emits its per-batch
    unique hashes (``gram_hashes_batch`` — same equivalence classes as the
    joined gram strings), the driver unions.  Partial volume is per-batch
    distinct x 8 B, bounded by the benchmark's total gram count.
    """
    def partial(t: pa.Table) -> pa.Table:
        h, _ = gram_hashes_batch(t[col].to_pylist(), k)
        return pa.table({"g": pa.array(np.unique(h), pa.uint64())})

    chunks = [
        b["g"].to_numpy(zero_copy_only=False)
        for b in bench_ds.map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    if not chunks:
        return np.zeros(0, np.uint64)
    return np.unique(np.concatenate(chunks))


def decontaminate(train_ds, bench_ds, col: str = "text",
                  id_col: str = "doc_id", k: int = 3):
    """Drop training docs sharing ANY word-k-gram with a benchmark set.

    The standard training-data decontamination step (e.g. GPT-3 appendix C /
    The Pile: n-gram overlap against eval benchmarks).  Plan: (1) fold the
    benchmark side's distinct gram hashes on the driver (small side — see
    ``benchmark_gram_set``), (2) ``ray.put`` the sorted array ONCE, (3) one
    streaming ``map_batches`` pass over the training side marks each doc via
    a vectorized searchsorted membership probe + per-doc ``reduceat`` — no
    shuffle, no join; the training side never materializes.

    Docs with <= k words count as one whole-text gram (mirrors ``shingles``).
    Returns the surviving-rows Dataset (same schema as ``train_ds``).
    """
    import ray

    grams = benchmark_gram_set(bench_ds, col, k)  # already unique+sorted
    ref = ray.put(grams)

    def keep_clean(t: pa.Table) -> pa.Table:
        g = _fetch_bench(ref)
        texts = t[col].to_pylist()
        if len(texts) == 0:
            return t
        h, offs = gram_hashes_batch(texts, k)
        if len(g) == 0 or len(h) == 0:
            return t
        # every doc emits >= 1 gram (whole-text fallback), so offsets are
        # strictly increasing and reduceat segments are well-formed
        doc_hits = np.add.reduceat(
            sorted_member_mask(g, h).astype(np.int64), offs[:-1])
        return t.filter(pa.array(doc_hits == 0))

    return train_ds.map_batches(keep_clean, batch_format="pyarrow")


# -- Bloom-filter decontamination ------------------------------------------
# Same semantics as ``decontaminate`` (drop any training doc sharing a
# word-k-gram with the benchmark set) but the membership side is a fixed-size
# Bloom bitmap instead of the exact sorted gram array: constant broadcast
# size regardless of benchmark gram cardinality, at the cost of a bounded
# false-POSITIVE rate (extra docs dropped — never a contaminated doc kept,
# the safe direction for decontamination).

_BLOOM_MIX = np.uint64(0x9E3779B97F4A7C15)


def gram_hashes_poly(texts, k: int = 3):
    """SQL-replayable word-k-gram hashes → (flat uint64 values, offsets).

    The Horner-family twin of ``gram_hashes_batch``: word hash = Horner
    fold over codepoints (``corpus.horner_hash_strings``), gram hash = a
    k-term Horner chain of word hashes folded with ``_BLOOM_MIX`` (the
    odd golden-ratio constant) — NOT ``POLY_BASE``: reusing the small
    intra-word base for the gram fold makes digits swap across word
    boundaries without changing the hash (``b1·B² + a2·B`` terms align),
    which MinHash tolerates but set-membership (Bloom) cannot.  A huge
    odd multiplier keeps the fold a bijection per step while destroying
    the positional overlap; DuckDB replays it with the 32-bit-split
    HUGEINT multiply.  Docs with FEWER than ``k`` words contribute ONE
    gram: the whole-text content hash (``len(whl) >= k`` windows in the
    SQL twin — note this boundary differs from ``gram_hashes_batch``'s
    ``<= k`` fallback).  Grams never cross document boundaries."""
    import pyarrow.compute as pc

    from timberjack_ray.functions.corpus import (_word_offsets,
                                                 horner_hash_strings)

    col = texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) \
        else pa.array([str(x) for x in texts], pa.string())
    n = len(col)
    if n == 0:
        return np.zeros(0, np.uint64), np.zeros(1, np.int64)
    chash = horner_hash_strings(col)
    words = pc.split_pattern(col, " ")
    flat, w_offs = _word_offsets(words)
    wc = np.diff(w_offs)
    total = int(w_offs[-1])
    long_mask = wc >= k

    out_c = np.where(long_mask, wc - k + 1, 1).astype(np.int64)
    out_offs = np.concatenate([[0], np.cumsum(out_c)])
    final = np.empty(int(out_offs[-1]), dtype=np.uint64)

    if total >= k and long_mask.any():
        wh = horner_hash_strings(flat)
        ngr = total - k + 1
        gh = np.zeros(ngr, dtype=np.uint64)
        for i in range(k):
            gh = gh * _BLOOM_MIX + wh[i:i + ngr]
        delta = np.zeros(ngr + 1, dtype=np.int64)
        np.add.at(delta, w_offs[:-1][long_mask], 1)
        np.add.at(delta, (w_offs[:-1] + wc - k + 1)[long_mask], -1)
        valid = np.cumsum(delta[:-1]) > 0
        gh_valid = gh[valid]
        lc = out_c[long_mask]
        if lc.sum():
            run_starts = np.concatenate([[0], np.cumsum(lc)[:-1]])
            idx = (np.repeat(out_offs[:-1][long_mask], lc)
                   + np.arange(int(lc.sum())) - np.repeat(run_starts, lc))
            final[idx] = gh_valid
    final[out_offs[:-1][~long_mask]] = chash[~long_mask]
    return final, out_offs


def _bloom_coords(h: np.ndarray, m_bits: int, n_hashes: int):
    """Kirsch–Mitzenmacher double hashing: positions h1 + i*h2 (mod m)."""
    h1 = h
    h2 = (h ^ (h >> np.uint64(33))) * _BLOOM_MIX | np.uint64(1)
    m = np.uint64(m_bits)
    for i in range(n_hashes):
        yield ((h1 + np.uint64(i) * h2) % m).astype(np.int64)


def benchmark_bloom(bench_ds, col: str = "text", k: int = 3,
                    m_bits: int = 1 << 22, n_hashes: int = 4,
                    hasher: str = "fnv") -> np.ndarray:
    """Distributed Bloom build over the benchmark side's gram hashes.

    Each batch collapses to ONE fixed-size packed-uint64 bitmap row
    (``np.bitwise_or.at`` on word indices — vectorized, no Python loop over
    grams); the driver OR-folds bitmaps as they stream in, so driver memory
    is one bitmap + one in-flight batch regardless of benchmark size.  At
    multi-GB bitmap sizes the same partials feed a tree-OR Ray aggregate
    instead; the default 4 Mbit (512 KB) map holds ~300 k grams at <1 % FP
    with ``n_hashes=4``.
    """
    n_words = (m_bits + 63) // 64
    gram_fn = gram_hashes_poly if hasher == "poly" else gram_hashes_batch

    def partial(t: pa.Table) -> pa.Table:
        bm = np.zeros(n_words, dtype=np.uint64)
        h, _ = gram_fn(t[col].to_pylist(), k)
        if len(h):
            hu = np.unique(h)
            for pos in _bloom_coords(hu, m_bits, n_hashes):
                np.bitwise_or.at(bm, pos >> 6,
                                 np.uint64(1) << (pos & np.int64(63)).astype(np.uint64))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    acc = np.zeros(n_words, dtype=np.uint64)
    for b in bench_ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in b["bm"].to_pylist():
            acc |= np.frombuffer(buf, dtype=np.uint64)
    return acc


def bloom_decontaminate(train_ds, bench_ds, col: str = "text",
                        id_col: str = "doc_id", k: int = 3,
                        m_bits: int = 1 << 22, n_hashes: int = 4,
                        hasher: str = "fnv"):
    """Bloom-membership decontamination pass: broadcast the bitmap once
    (``ray.put``), then one streaming ``map_batches`` over the training side
    — per gram, a gram "hits" iff ALL its Bloom bits are set; a doc is
    dropped iff any gram hits.  No false negatives (every doc the exact
    ``decontaminate`` drops is dropped here too); false positives drop a
    bounded extra fraction, tested in tests/test_functions.py.  Returns the
    surviving-rows Dataset (same schema as ``train_ds``)."""
    import ray

    bm = benchmark_bloom(bench_ds, col, k, m_bits, n_hashes, hasher)
    ref = ray.put(bm)
    gram_fn = gram_hashes_poly if hasher == "poly" else gram_hashes_batch

    def keep_clean(t: pa.Table) -> pa.Table:
        bits = _fetch_bench(ref)
        texts = t[col].to_pylist()
        if len(texts) == 0:
            return t
        h, offs = gram_fn(texts, k)
        if len(h) == 0:
            return t
        hit = np.ones(len(h), dtype=bool)
        for pos in _bloom_coords(h, m_bits, n_hashes):
            word = bits[pos >> 6]
            hit &= ((word >> (pos & np.int64(63)).astype(np.uint64))
                    & np.uint64(1)).astype(bool)
        doc_hits = np.add.reduceat(hit.astype(np.int64), offs[:-1])
        return t.filter(pa.array(doc_hits == 0))

    return train_ds.map_batches(keep_clean, batch_format="pyarrow")


def contamination_stats(train_ds, bench_ds, col: str = "text",
                        id_col: str = "doc_id", k: int = 3):
    """Per-doc contamination FRACTION statistics against a benchmark set:
    (id, n_grams, n_hit) where n_grams = the doc's DISTINCT word-k-gram
    count and n_hit = how many of those grams appear in the benchmark —
    the graded variant of ``decontaminate`` (threshold on n_hit/n_grams
    downstream instead of any-hit dropping; both ints so the result is
    exactly hashable, no float division on the gate path).

    Same 100-TB shape as decontaminate: bench grams driver-folded (small
    side by definition) → ray.put once → ONE streaming map_batches pass;
    per batch one lexsort dedups each doc's gram multiset and a vectorized
    searchsorted probe + two bincounts produce the stats.  No shuffle.
    """
    import ray

    grams = benchmark_gram_set(bench_ds, col, k)
    ref = ray.put(grams)

    def stats(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({id_col: t[id_col],
                             "n_grams": pa.array([], pa.int64()),
                             "n_hit": pa.array([], pa.int64())})
        h, offs = gram_hashes_batch(t[col].to_pylist(), k)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
        order = np.lexsort((h, doc_idx))
        hs, di = h[order], doc_idx[order]
        first = np.r_[True, (hs[1:] != hs[:-1]) | (di[1:] != di[:-1])]
        uh, ud = hs[first], di[first]
        n_grams = np.bincount(ud, minlength=n)
        g = _fetch_bench(ref)
        hit = sorted_member_mask(g, uh)
        n_hit = np.bincount(ud[hit], minlength=n)
        return pa.table({id_col: t[id_col],
                         "n_grams": pa.array(n_grams.astype(np.int64)),
                         "n_hit": pa.array(n_hit.astype(np.int64))})

    return train_ds.map_batches(stats, batch_format="pyarrow")


def cross_dedup(new_ds, base_ds, col: str = "text", id_col: str = "doc_id",
                base_limit: int = 50_000_000):
    """Cross-corpus exact dedup: drop rows of ``new_ds`` whose ``col``
    content already appears in ``base_ds`` — the "dedup the new crawl
    against the existing corpus" step (incremental curation; self-dedup is
    ``exact_dedup``).

    Plan: fold the BASE side's distinct content hashes on the driver while
    they stay under ``base_limit`` (8 B/hash — 50 M ≈ 400 MB), broadcast
    the sorted array once, anti-filter the new side in ONE streaming
    map_batches pass (vectorized searchsorted membership) — no shuffle,
    the new side never materializes.  Past the limit, both sides project
    to (hash, side) pairs and the anti-join runs as ONE distributed
    groupby(hash) keeping hashes with no base row — each row crosses the
    exchange once, as 8+1 bytes.

    Returns the surviving-rows Dataset (schema of ``new_ds``).
    """
    import ray

    def hashes(t: pa.Table) -> pa.Table:
        hb = add_content_hash(t, col)
        return pa.table({"h": pc.unique(hb["content_hash"])})

    base_hashes: list[np.ndarray] = []
    n_base = 0
    over = False
    for b in base_ds.map_batches(hashes, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        a = b["h"].to_numpy(zero_copy_only=False)
        base_hashes.append(a)
        n_base += len(a)
        if n_base > base_limit:
            over = True
            break

    def _anti_filter(ref):
        # one closure serves both branches — only the broadcast ref differs
        def keep_new(t: pa.Table) -> pa.Table:
            gg = _fetch_bench(ref)
            h = add_content_hash(t, col)["content_hash"] \
                .to_numpy(zero_copy_only=False)
            if len(gg) == 0:
                return t
            return t.filter(pa.array(~sorted_member_mask(gg, h)))
        return keep_new

    if not over:
        g = np.unique(np.concatenate(base_hashes)) if base_hashes \
            else np.zeros(0, np.int64)
        return new_ds.map_batches(_anti_filter(ray.put(g)),
                                  batch_format="pyarrow")

    # distributed path: ONE groupby(hash) over (hash, side) pairs finds the
    # INTERSECTION hashes (present on both sides) — bounded by the actual
    # duplicate count, which is what makes this scale: the broadcast side
    # is |dups|, not |base| or |new|.  (Worst case everything is a dup and
    # the intersection is new-side-bounded — but then the output is empty.)

    def side_pairs(side: int):
        def f(t: pa.Table) -> pa.Table:
            u = pc.unique(add_content_hash(t, col)["content_hash"])
            return pa.table({"h": u, "s": pa.array(
                np.full(len(u), side, np.int64))})
        return f

    pairs = base_ds.map_batches(side_pairs(1), batch_format="pyarrow") \
        .union(new_ds.map_batches(side_pairs(0), batch_format="pyarrow"))
    from timberjack_ray.aggregates import grouped_aggregate_ds

    both = grouped_aggregate_ds(
        pairs, ["h"], [("s", "max", "mx"), ("s", "min", "mn")]) \
        .map_batches(lambda t: t.filter(
            pc.and_(pc.equal(t["mx"], 1), pc.equal(t["mn"], 0)))
            .select(["h"]), batch_format="pyarrow")
    dirty = np.sort(np.concatenate(
        [b["h"].to_numpy(zero_copy_only=False)
         for b in both.iter_batches(batch_size=None, batch_format="pyarrow")]
        or [np.zeros(0, np.int64)]))
    return new_ds.map_batches(_anti_filter(ray.put(dirty)),
                              batch_format="pyarrow")


def dup_span_positions(ds, span_words: int = 8, col: str = "text",
                       id_col: str = "doc_id"):
    """Find every position of a DUPLICATED ``span_words``-word span at ANY
    alignment (stride-1 sliding windows) — the detection pass of
    substring-level dedup (Lee et al. 2022, "Deduplicating Training Data
    Makes Language Models Better"): a span is reported iff its word
    sequence occurs ≥ 2 times corpus-wide (across or within docs).  Docs
    shorter than ``span_words`` contribute no spans.

    Plan: per batch, ``gram_hashes_batch`` (one rolling FNV fold over the
    flat word-hash stream — stride-1 windows share the k=span_words gram
    machinery) emits (hash, doc, pos) triples; pass 1 counts hashes with a
    distributed groupby (per-batch pre-count first, so the exchange
    carries batch-distinct hashes); hashes with total ≥ 2 stream back and
    broadcast (volume = the DUPLICATED-span vocabulary — the thing being
    hunted; bounded by dup volume, small on clean corpora and exactly the
    output size otherwise); pass 2 re-derives positions and keeps hits.
    Returns a Dataset of (doc_id, pos) rows.
    """
    import ray

    def triples(t: pa.Table) -> pa.Table:
        texts = t[col].to_pylist()
        n = len(texts)
        if n == 0:
            return pa.table({"h": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        # window_at_k: an exactly-span_words doc's single span must share
        # the FNV hash namespace with the same word sequence inside longer
        # docs (the oracle windows every doc with nw >= span_words)
        h, offs = gram_hashes_batch(texts, span_words, window_at_k=True)
        lens = np.diff(offs)
        wc = np.array([len(x.split(" ")) for x in texts], dtype=np.int64)
        # drop short docs' whole-text fallback gram: only true spans count
        keep_doc = wc >= span_words
        ids = np.repeat(t[id_col].to_numpy(zero_copy_only=False), lens)
        pos = np.arange(len(h), dtype=np.int64) \
            - np.repeat(offs[:-1], lens)
        keep = np.repeat(keep_doc, lens)
        return pa.table({"h": pa.array(h[keep].view(np.int64)),
                         id_col: pa.array(ids[keep]),
                         "pos": pa.array(pos[keep])})

    trip = ds.map_batches(triples, batch_format="pyarrow")

    def pre_count(t: pa.Table) -> pa.Table:
        g = t.select(["h"]).group_by("h").aggregate([([], "count_all")])
        return g.rename_columns(["h", "n"])

    from timberjack_ray.aggregates import merge_partials_or_ds

    folded, mode = merge_partials_or_ds(
        trip.map_batches(pre_count, batch_format="pyarrow"), ["h"], ["n"])
    if mode == "distributed":
        # span vocabulary past the guard: filter + collect only the
        # DUPLICATED hashes (bounded by dup volume, the thing being hunted)
        dup = folded.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n"], 2)).select(["h"]),
            batch_format="pyarrow")
        dup_h = np.sort(np.concatenate(
            [b["h"].to_numpy(zero_copy_only=False)
             for b in dup.iter_batches(batch_size=None,
                                       batch_format="pyarrow")]
            or [np.zeros(0, np.int64)]))
    else:
        dup_h = np.sort(folded.filter(pc.greater_equal(folded["n"], 2))
                        ["h"].to_numpy(zero_copy_only=False))
    ref = ray.put(dup_h)

    def hits(t: pa.Table) -> pa.Table:
        gg = _fetch_bench(ref)
        tt = triples(t)
        if len(gg) == 0 or tt.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        h = tt["h"].to_numpy(zero_copy_only=False)
        hit = sorted_member_mask(gg, h)
        return tt.filter(pa.array(hit)).select([id_col, "pos"])

    return ds.map_batches(hits, batch_format="pyarrow")


def remove_dup_spans(ds, span_words: int = 8, col: str = "text",
                     id_col: str = "doc_id",
                     keep_cols: list[str] | None = None,
                     stats: bool = False):
    """Substring-level dedup APPLICATION pass (Lee et al. 2022): for every
    word span of ``span_words`` occurring ≥ 2 times corpus-wide, keep the
    globally-FIRST occurrence (min (doc_id, pos)) and delete the words of
    every other occurrence; overlapping deleted spans union their word
    ranges.  Docs shorter than ``span_words`` pass through untouched.
    Returns a Dataset of (id, text) with the cleaned text — the companion
    of ``dup_span_positions`` (detection) that actually rewrites the corpus.

    Plan (same 100-TB shape as the detector): pass 1 — per-batch (hash →
    count, min packed(doc,pos)) partials, ONE distributed groupby(hash)
    folds Sum/Min, hashes with total ≥ 2 stream back with their global
    first occurrence (volume = duplicated-span vocabulary); pass 2 — one
    streaming map_batches: every occurrence whose packed key ≠ the global
    min marks its word range via a vectorized diff/cumsum coverage mask,
    and the text is rebuilt with ``pc.binary_join`` over the kept words —
    no per-row Python.  Precondition: 0 ≤ doc_id < 2^31 (packed into one
    int64 as doc_id·2^32 + pos).

    ``keep_cols`` pass through to the output; ``stats=True`` adds
    (n_before, n_kept) split-slot counts per doc (NOT derivable from the
    cleaned text: a fully-deleted doc's "" re-splits to one empty slot).
    """
    import ray

    SHIFT = np.int64(1) << np.int64(32)

    def arrays(t: pa.Table):
        """Shared per-batch span arrays: (words Series, wc, gram hashes as
        int64, per-doc gram lens, packed(doc,pos) keys, pos, span_ok mask)
        — ONE place computes the gram/packed geometry for both passes."""
        texts = t[col].to_pylist()
        h, offs = gram_hashes_batch(texts, span_words, window_at_k=True)
        lens = np.diff(offs)
        words = pd.Series(texts, dtype=object).astype(str).str.split(" ")
        wc = words.str.len().to_numpy(dtype=np.int64)
        span_ok = np.repeat(wc >= span_words, lens)
        ids = np.repeat(
            t[id_col].to_numpy(zero_copy_only=False).astype(np.int64), lens)
        pos = np.arange(len(h), dtype=np.int64) - np.repeat(offs[:-1], lens)
        return words, wc, h.view(np.int64), lens, ids * SHIFT + pos, pos, span_ok

    def occ(t: pa.Table):
        """(hash, packed(doc,pos)) for every true span occurrence."""
        _, _, h, _, packed, _, span_ok = arrays(t)
        return h[span_ok], packed[span_ok]

    def pre_fold(t: pa.Table) -> pa.Table:
        h, packed = occ(t)
        if len(h) == 0:
            return pa.table({"h": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "mn": pa.array([], pa.int64())})
        order = np.argsort(h, kind="stable")
        hs, ps = h[order], packed[order]
        first = np.r_[True, hs[1:] != hs[:-1]]
        uh = hs[first]
        n = np.diff(np.r_[np.flatnonzero(first), len(hs)])
        mn = np.minimum.reduceat(ps, np.flatnonzero(first))
        return pa.table({"h": pa.array(uh), "n": pa.array(n),
                         "mn": pa.array(mn)})

    from timberjack_ray.aggregates import merge_partials_or_ds

    folded, mode = merge_partials_or_ds(
        ds.map_batches(pre_fold, batch_format="pyarrow"),
        ["h"], ["n", "mn"], ops=["sum", "min"])
    if mode == "distributed":
        # span vocabulary past the guard: only DUPLICATED hashes (plus
        # their global first occurrence) come back — dup-volume-bounded
        dupd = folded.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n"], 2))
            .select(["h", "mn"]), batch_format="pyarrow")
        parts = [b for b in dupd.iter_batches(batch_size=None,
                                              batch_format="pyarrow")
                 if b.num_rows]
        dup = pa.concat_tables(parts) if parts else None
    else:
        dup = folded.filter(pc.greater_equal(folded["n"], 2))
        dup = dup if dup.num_rows else None
    if dup is not None:
        dh = dup["h"].to_numpy(zero_copy_only=False)
        order = np.argsort(dh)
        dup_h = dh[order]
        dup_mn = dup["mn"].to_numpy(zero_copy_only=False)[order]
    else:
        dup_h = np.zeros(0, np.int64)
        dup_mn = np.zeros(0, np.int64)
    ref = ray.put((dup_h, dup_mn))

    def finish(t: pa.Table, joined, new_wc, wc) -> pa.Table:
        cols = {id_col: t[id_col], "text": joined}
        for c in keep_cols or []:
            cols[c] = t[c]
        if stats:
            cols["n_before"] = pa.array(wc.astype(np.int64))
            cols["n_kept"] = pa.array(new_wc.astype(np.int64))
        return pa.table(cols)

    def clean(t: pa.Table) -> pa.Table:
        gh, gmn = _fetch_bench(ref)
        n = t.num_rows
        words, wc, hi, lens, packed, pos, span_ok = arrays(t) if n else \
            (None, np.zeros(0, np.int64), None, None, None, None, None)
        if n == 0 or len(gh) == 0:
            return finish(t, t[col], wc, wc)
        w_offs = np.concatenate([[0], np.cumsum(wc)])
        hit, idx = sorted_lookup(gh, hi)
        hit &= span_ok
        # delete every duplicated occurrence EXCEPT the global first
        dele = hit & (packed != np.where(hit, gmn[idx], np.int64(-1)))
        # coverage mask over the batch's flat word stream: diff + cumsum
        doc_of_gram = np.repeat(np.arange(n, dtype=np.int64), lens)
        start = w_offs[doc_of_gram[dele]] + pos[dele]
        total = int(w_offs[-1])
        diff = np.zeros(total + 1, dtype=np.int64)
        np.add.at(diff, start, 1)
        np.add.at(diff, start + span_words, -1)
        keep_w = np.cumsum(diff[:-1]) == 0
        # rebuild: filter the flat word stream (same Series the arrays
        # helper split), re-list by new per-doc counts, join — Arrow/numpy
        flat = words.explode().to_numpy(dtype=object)
        new_wc = np.add.reduceat(keep_w.astype(np.int64), w_offs[:-1])
        new_offs = np.concatenate([[0], np.cumsum(new_wc)]).astype(np.int64)
        kept = pa.array(flat[keep_w], pa.string())
        # LargeList (int64 offsets): immune to >2^31-word batches
        lst = pa.LargeListArray.from_arrays(pa.array(new_offs, pa.int64()),
                                            kept)
        joined = pc.binary_join(lst, " ")
        return finish(t, joined, new_wc, wc)

    return ds.map_batches(clean, batch_format="pyarrow")


def exact_dedup_keep_best(ds, key_fn, score_col: str,
                          id_col: str = "doc_id"):
    """Survivor per distinct content keeping the BEST copy — max
    ``score_col``, then min id — instead of ``exact_dedup``'s min-id rule
    (the RefinedWeb/C4 policy of retaining the longest / highest-quality
    duplicate when near-identical copies differ in formatting).

    ``key_fn``: pa.Table → pa.Array of group-key strings (e.g. a
    normalization chain); hashed with the same 64-bit stable hash as
    ``exact_dedup`` (same collision caveat).  Plan: only
    (key-hash, packed) pairs cross ONE Max groupby — packed =
    score·2³² + (2³²−1−id) so a single integer Max resolves
    (max score, min id); text never shuffles.  Precondition:
    0 ≤ score < 2³¹, 0 ≤ id < 2³².

    Returns a Dataset of (key-hash, id) survivors.
    """

    M = np.int64(1) << np.int64(32)

    def project(t: pa.Table) -> pa.Table:
        keys = key_fn(t)
        h = _stable_hash_strings(
            keys.to_numpy(zero_copy_only=False)).view(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sc = t[score_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= M
                         or sc.min() < 0 or sc.max() >= M // 2):
            raise ValueError("id/score outside the packable domain")
        packed = sc * M + (M - np.int64(1) - ids)
        return pa.table({"k": pa.array(h), "packed": pa.array(packed)})

    from timberjack_ray.aggregates import grouped_aggregate_ds

    best = grouped_aggregate_ds(
        ds.map_batches(project, batch_format="pyarrow"),
        ["k"], [("packed", "max", "packed")])

    def unpack(t: pa.Table) -> pa.Table:
        packed = t["packed"].to_numpy(zero_copy_only=False)
        return pa.table({"k": t["k"],
                         id_col: pa.array(M - np.int64(1) - packed % M)})

    return best.map_batches(unpack, batch_format="pyarrow")


def curation_kill_reasons(train_ds, bench_ds, col: str = "text",
                          id_col: str = "doc_id", min_words: int = 5,
                          k: int = 3) -> pd.DataFrame:
    """Per-stage curation AUDIT: how many docs each filter stage kills,
    with first-match-wins priority short → exact_dup → contaminated →
    kept (the "why was my doc dropped" debugging table every production
    curation pipeline needs).  The dedup winner is the min id among the
    NON-short copies of a text (short docs are gone before dedup runs),
    and contamination is the ``decontaminate`` rule (any shared word-
    k-gram with the benchmark side).

    Plan: short and contaminated flags are MAP-SIDE (one split + one
    broadcast gram probe); only (content-hash, id, short, contam) — four
    slim columns — ride ONE key-bucket exchange where each text's copies
    co-locate, a lexsort((id, short, hash)) puts every group's winner at
    its segment start, and ≤ 4 count rows leave each bucket.  Driver
    merges a 4-row table at any corpus size.
    """
    import ray

    from timberjack_ray.aggregates import merge_partials
    from timberjack_ray.functions.corpus import _segments

    grams = benchmark_gram_set(bench_ds, col, k)
    ref = ray.put(grams)

    def flags(t: pa.Table) -> pa.Table:
        g = _fetch_bench(ref)
        texts = t[col].to_pylist()
        if not texts:
            return pa.table({"chash": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "short": pa.array([], pa.int64()),
                             "contam": pa.array([], pa.int64())})
        nw = pc.list_value_length(pc.split_pattern(t[col], " ")) \
            .to_numpy(zero_copy_only=False)
        h, offs = gram_hashes_batch(texts, k)
        hits = np.add.reduceat(
            sorted_member_mask(g, h).astype(np.int64), offs[:-1]) \
            if len(g) and len(h) else np.zeros(len(texts), np.int64)
        # hash the already-materialized text list (same stable-hash family
        # as add_content_hash) instead of converting the column twice
        ch = pa.array(_stable_hash_strings(
            np.array(texts, dtype=object)).view(np.int64))
        return pa.table({"chash": ch,
                         id_col: t[id_col],
                         "short": pa.array((nw < min_words)
                                           .astype(np.int64)),
                         "contam": pa.array((hits > 0).astype(np.int64))})

    def per_bucket(t: pa.Table) -> pa.Table:
        ch = t["chash"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        sh = t["short"].to_numpy(zero_copy_only=False)
        co = t["contam"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, sh, ch))
        chs, idss, shs, cos = ch[order], ids[order], sh[order], co[order]
        starts, sizes = _segments(chs)
        # winner = min id among non-short copies = each segment's first
        # row under the (short, id) sort — unless even that row is short
        # (all copies short), in which case there is no dedup winner
        win_id = np.repeat(idss[starts], sizes)
        win_ok = np.repeat(shs[starts] == 0, sizes)
        reason = np.full(len(chs), 3, np.int64)              # kept
        reason[cos == 1] = 2                                  # contaminated
        reason[win_ok & (idss != win_id)] = 1                 # exact_dup
        reason[shs == 1] = 0                                  # short
        n = np.bincount(reason, minlength=4)
        nz = np.flatnonzero(n)
        return pa.table({"r": pa.array(nz.astype(np.int64)),
                         "n_docs": pa.array(n[nz].astype(np.int64))})

    out = merge_partials(
        bucket_exchange(train_ds.map_batches(flags, batch_format="pyarrow"),
                        ["chash"], per_bucket, 256),
        ["r"], "n_docs").to_pandas()
    names = np.array(["short", "exact_dup", "contaminated", "kept"])
    out["reason"] = names[out["r"].to_numpy()]
    return out[["reason", "n_docs"]].sort_values("reason") \
        .reset_index(drop=True).astype({"n_docs": "int64"})


def ngram_novelty(ds, col: str = "text", id_col: str = "doc_id",
                  k: int = 3, n_buckets: int = 256):
    """Per-doc NOVELTY score: of the doc's distinct word-k-grams, how many
    appear in NO earlier doc (global first occurrence = min doc id) —
    exact integers (n_grams, n_novel); the novelty fraction is the
    consumer's division.  The curation signal that separates original
    content from recombinations of already-crawled text (and the batch
    counterpart of scoring docs against `state/dedup_index` at gram
    granularity).

    Plan: per-batch DISTINCT (gram-hash, id) pairs (same S:/L: gram
    classes as ``decontaminate``) → ONE gram-hash bucket exchange
    co-locates every holder of a gram → per bucket, one lexsort finds
    each gram's min id and a C group_by folds per-doc (n_grams, n_novel)
    partials → a distributed per-id Sum merge.  Output is row-volume
    (one row per doc) and streams; exchange volume is the distinct
    (gram, doc) pair set.
    """

    from timberjack_ray.functions.corpus import _segments

    def pairs(t: pa.Table) -> pa.Table:
        texts = t[col].to_pylist()
        if not texts:
            return pa.table({"gh": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64())})
        h, offs = gram_hashes_batch(texts, k)
        ids = np.repeat(t[id_col].to_numpy(zero_copy_only=False)
                        .astype(np.int64), np.diff(offs))
        g = pa.table({"gh": pa.array(h.view(np.int64)),
                      id_col: pa.array(ids)}) \
            .group_by(["gh", id_col]).aggregate([])
        return g

    def per_bucket(t: pa.Table) -> pa.Table:
        gh = t["gh"].to_numpy(zero_copy_only=False)
        d = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, gh))
        hs, ds_ = gh[order], d[order]
        starts, sizes = _segments(hs)
        novel = (ds_ == np.repeat(ds_[starts], sizes)).astype(np.int64)
        g = pa.table({id_col: pa.array(ds_),
                      "n_novel": pa.array(novel)}) \
            .group_by(id_col).aggregate([("n_novel", "sum"),
                                         ([], "count_all")])
        return g.rename_columns([id_col, "n_novel", "n_grams"])

    partials = bucket_exchange(ds.map_batches(pairs, batch_format="pyarrow"),
                               ["gh"], per_bucket, n_buckets)
    from timberjack_ray.aggregates import grouped_aggregate_ds

    return grouped_aggregate_ds(
        partials, [id_col],
        [("n_grams", "sum", "n_grams"), ("n_novel", "sum", "n_novel")])


def minhash_horner_signature(batch: pa.Table, col: str = "text",
                             id_col: str = "doc_id", ngram: int = 3,
                             n_perm: int = 8) -> pa.Table:
    """SQL-REPLAYABLE MinHash signature (round 4 — the oracle-checked
    twin of ``MinHasher``'s siphash path): grams = ``ngram``-word Horner
    chains over per-word codepoint Horner hashes, permutation ``p`` maps
    ``g → (A_p·g + B_p) mod 2^64`` with ``A_p = POLY_BASE^(p+1)`` (odd ⇒
    a bijection of Z_2^64) and ``B_p = p·KNUTH32``; the signature entry
    is the min over grams.  Docs shorter than ``ngram`` words use the
    whole-text content hash as their single gram.  Every step is HUGEINT
    modular arithmetic in DuckDB.

    Output: long format (id, perm, minhash) — n_perm rows per doc.
    Fully vectorized (flat word-hash pass, per-perm affine + masked
    ``minimum.reduceat``)."""
    import pyarrow.compute as pc

    from timberjack_ray.functions.corpus import (KNUTH32, POLY_BASE,
                                                 _word_offsets,
                                                 horner_hash_strings)

    n = batch.num_rows
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if n == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "perm": pa.array([], pa.int64()),
                         "minhash": pa.array([], pa.int64())})
    chash = horner_hash_strings(batch[col])
    words = pc.split_pattern(batch[col], " ")
    flat, offsets = _word_offsets(words)
    wc = np.diff(offsets)
    total = int(offsets[-1])
    long_mask = wc >= ngram

    # per-doc gram-hash segments (short docs: the single chash gram)
    if total >= ngram and long_mask.any():
        wh = horner_hash_strings(flat)
        ngr = total - ngram + 1
        gh = np.zeros(ngr, dtype=np.uint64)
        for i in range(ngram):
            gh = gh * POLY_BASE + wh[i:i + ngr]
        delta = np.zeros(ngr + 1, dtype=np.int64)
        np.add.at(delta, offsets[:-1][long_mask], 1)
        np.add.at(delta, (offsets[:-1] + wc - ngram + 1)[long_mask], -1)
        valid = np.cumsum(delta[:-1]) > 0
    else:
        gh = np.zeros(0, dtype=np.uint64)
        valid = np.zeros(0, dtype=bool)

    U64 = np.uint64(0xFFFFFFFFFFFFFFFF)
    out_id = np.repeat(ids, n_perm)
    out_p = np.tile(np.arange(n_perm, dtype=np.int64), n)
    out_mh = np.empty(n * n_perm, dtype=np.uint64)
    a_int = 1
    for p in range(n_perm):
        a_int = (a_int * int(POLY_BASE)) % (1 << 64)  # POLY_BASE^(p+1)
        a = np.uint64(a_int)
        b = np.uint64(p * KNUTH32)
        mh = (chash * a + b)         # short-doc fallback per doc
        if len(gh):
            ph = np.append(np.where(valid, gh * a + b, U64), U64)
            seg_starts = np.minimum(offsets[:-1], len(gh))
            seg_mins = np.minimum.reduceat(ph, seg_starts)
            mh = np.where(long_mask, seg_mins, mh)
        out_mh[p::n_perm] = mh
    return pa.table({id_col: pa.array(out_id),
                     "perm": pa.array(out_p),
                     "minhash": pa.array(out_mh.view(np.int64))})


def simhash16_horner(batch: pa.Table, col: str = "text",
                     id_col: str = "doc_id", n_bits: int = 16) -> pa.Table:
    """SQL-REPLAYABLE 16-bit SimHash (round 4 — oracle-checked twin of
    ``SimHasher``): per doc, bit ``b`` is set iff MORE than half of its
    words (single-space split, empties kept, word hash = codepoint
    Horner fold) have bit ``b`` set — i.e. ``2·ones_b > n_words``, pure
    integer arithmetic DuckDB replays with ``//`` and ``%``.

    Vectorized: one flat word-hash pass, ``n_bits`` shifted-mask
    ``add.reduceat`` sums.  ``n_bits=64`` gives the full-width signature
    (bit 63 lands in the int64 sign — equality/XOR semantics unchanged,
    and the SQL replay converts mod-2^64 the same way minhash does)."""
    import pyarrow.compute as pc

    from timberjack_ray.functions.corpus import (_word_offsets,
                                                 horner_hash_strings)

    n = batch.num_rows
    if n == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "simhash": pa.array([], pa.int64())})
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    words = pc.split_pattern(batch[col], " ")
    flat, offsets = _word_offsets(words)
    wc = np.diff(offsets)
    wh = horner_hash_strings(flat)
    total = int(offsets[-1])
    sig = np.zeros(n, dtype=np.uint64)   # uint accumulate: bit 63 safe
    starts = np.minimum(offsets[:-1], max(total, 0))
    for b in range(n_bits):
        bits = ((wh >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
        bits = np.append(bits, 0)    # sentinel for trailing empty docs
        ones = np.add.reduceat(bits, starts) if total else np.zeros(n, np.int64)
        ones = np.where(wc > 0, ones, 0)
        sig |= (2 * ones > wc).astype(np.uint64) << np.uint64(b)
    return pa.table({id_col: pa.array(ids),
                     "simhash": pa.array(sig.view(np.int64))})


def bucket_pair_expand(t: pa.Table, key_cols: list[str],
                       doc_col: str = "doc") -> pa.Table:
    """All unordered ``(a, b)`` doc pairs sharing an EXACT key tuple —
    the in-bucket candidate-pair kernel behind the oracle-checked LSH
    pairing queries (minhash_lsh_pairs / simhash_lsh_pairs).

    One lexsort finds the equal-key segments; the d-offset loop (off =
    1..max segment size) emits every within-segment pair fully
    vectorized, so work is bounded by Σ s·(s−1)/2 over segment sizes s —
    the honest candidate count — with no per-row Python.  Pairs are
    returned min-first and de-duplicated within the call; callers
    holding a bucketed exchange (same key tuple never spans buckets)
    get globally-correct candidates from the per-bucket union."""
    pempty = pa.table({"a": pa.array([], pa.int64()),
                       "b": pa.array([], pa.int64())})
    if t.num_rows < 2:
        return pempty
    keys = [t[c].to_numpy(zero_copy_only=False) for c in key_cols]
    d = t[doc_col].to_numpy(zero_copy_only=False)
    order = np.lexsort(tuple([d] + keys[::-1]))
    ks = [k[order] for k in keys]
    d_ = d[order]
    new = np.zeros(len(d_), bool)
    new[0] = True
    for k in ks:
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(d_)))
    mx = int(sizes.max())
    if mx < 2:
        return pempty
    outs_a, outs_b = [], []
    for off in range(1, mx):
        valid = sizes > off
        cnt = sizes[valid] - off
        base = np.repeat(starts[valid], cnt)
        step = np.arange(len(base)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        i = base + step
        outs_a.append(d_[i])
        outs_b.append(d_[i + off])
    a = np.concatenate(outs_a)
    b = np.concatenate(outs_b)
    ne = a != b          # duplicate (key, doc) rows never self-pair
    a, b = a[ne], b[ne]
    pr = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)], 1),
                   axis=0)
    return pa.table({"a": pa.array(pr[:, 0]), "b": pa.array(pr[:, 1])})
