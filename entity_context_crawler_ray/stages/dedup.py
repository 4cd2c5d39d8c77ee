"""Deduplication operators: exact, MinHash+LSH, SimHash banding,
n-gram Jaccard, embedding-cosine near-dup.

The reference only needs exact dedup (pages PK, mentions UNIQUE —
SURVEY.md §2.7); a 100 TB training-data pipeline needs near-dup too.
Shuffle discipline: every operator pre-aggregates inside
``map_batches`` (hash columns, signatures, band keys) before its keyed
exchange (``exchange.by_key`` or a grouped aggregate) — the shuffle
moves fixed-width keys, never document text.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.hashing import md5_u64, md5_u128
from .exchange import by_key, join, run_starts, seg_ids

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")


def _text_hash(t: str) -> str:
    return hashlib.md5(t.encode("utf-8")).hexdigest()


def exact_dedup_stats(
    documents: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Group identical texts: (min_doc_id, n_dups, n_chars) per distinct
    content.  The shuffle key is a 128-bit content hash, not the text
    (collision probability negligible; the oracle groups by the text
    itself and agrees)."""
    from ray.data.aggregate import Count, Min

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = pa.array([_text_hash(x) for x in t[text_col].to_pylist()])
        lens = pa.array([len(x) for x in t[text_col].to_pylist()], pa.int64())
        return pa.table(
            {"h": hashes, id_col: t[id_col], "n_chars": lens}
        )

    hashed = documents.map_batches(add_hash, batch_format="pyarrow")
    agg = hashed.groupby("h").aggregate(
        Min(id_col, alias_name="min_doc_id"),
        Count(alias_name="n_dups"),
        Min("n_chars", alias_name="n_chars"),
    )
    return agg.drop_columns(["h"])


def exact_dedup_first(
    ds: ray.data.Dataset, text_col: str = "text", order_col: str = "doc_id"
) -> ray.data.Dataset:
    """Keep one row (min order_col) per distinct text — the
    hash-partition + per-group-first pattern."""

    def add_hash(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__h", pa.array([_text_hash(x) for x in t[text_col].to_pylist()])
        )

    def first(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[("__h", "ascending"), (order_col, "ascending")]))
        return t.take(run_starts(t["__h"])).drop_columns(["__h"])

    return by_key(ds.map_batches(add_hash, batch_format="pyarrow"), "__h", first)


# --- shingles + Jaccard ---------------------------------------------------


def word_shingles(text: str, n: int = 3) -> List[str]:
    ws = _WORD_RE.findall(text)
    if len(ws) < n:
        return [" ".join(ws)] if ws else []
    return [" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)]


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def ngram_jaccard_vs(
    documents: ray.data.Dataset,
    ref_text: str,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Jaccard similarity of every doc's distinct word n-gram set vs a
    reference text (broadcast scalar)."""
    ref = set(word_shingles(ref_text, n))

    def score(t: pa.Table) -> pa.Table:
        sims = pa.array(
            [
                jaccard(set(word_shingles(x, n)), ref)
                for x in t[text_col].to_pylist()
            ],
            pa.float64(),
        )
        return pa.table({id_col: t[id_col], "jaccard": sims})

    return documents.map_batches(score, batch_format="pyarrow")


# --- MinHash + LSH --------------------------------------------------------


def _block_pairs(t: pa.Table) -> pa.Table:
    """Within one partition of complete band_key groups: every ordered
    pair (a < b by position after sorting on (band_key, doc_id)) of
    docs sharing a band_key.  Row i pairs with the rest of its run,
    so the pairs come from one repeat + one segmented arange."""
    t = t.take(pc.sort_indices(t, sort_keys=[("band_key", "ascending"), ("doc_id", "ascending")]))
    starts = run_starts(t["band_key"])
    ends = np.append(starts[1:], t.num_rows)[seg_ids(starts, t.num_rows)]
    fan = ends - np.arange(t.num_rows) - 1  # later rows in the same run
    a = np.repeat(np.arange(t.num_rows), fan)
    first = np.cumsum(fan) - fan
    b = a + 1 + np.arange(len(a)) - np.repeat(first, fan)
    ids = t["doc_id"]
    return pa.table({"a": ids.take(a), "b": ids.take(b)})


def _distinct_pairs(t: pa.Table) -> pa.Table:
    return t.take(run_starts(t["a"], t["b"])).select(["a", "b"])


def band_pairs(band_rows: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct candidate pairs (a, b) of docs sharing a ``band_key``,
    from (doc_id, band_key) rows: one ``by_key`` on band_key emits the
    within-bucket pairs, a second on (a, b) dedups them.  Lazy."""
    return by_key(by_key(band_rows, "band_key", _block_pairs), ["a", "b"], _distinct_pairs)


def band_rows(documents: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, band_key) rows of ``minhash_bands``: the top 64 bits of
    each band hash as a signed key (the hash message starts with the
    band id, so bands never share a key)."""

    def keyed(t: pa.Table) -> pa.Table:
        bands = minhash_bands(t)
        keys = [int(h[:16], 16) - (1 << 63) for h in bands["band_hash"].to_pylist()]
        return pa.table({"doc_id": bands["doc_id"], "band_key": pa.array(keys, pa.int64())})

    return documents.map_batches(keyed, batch_format="pyarrow")


def minhash_bands(
    batch: pa.Table,
    num_perm: int = 16,
    bands: int = 4,
    shingle_n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """MinHash LSH banding: doc -> ``bands`` (doc_id, band_id,
    band_hash) rows.  ``num_perm`` permutations split into ``bands``
    bands of r rows each; docs sharing any band hash are candidates
    (the classic S-curve: P(candidate) = 1 - (1 - j^r)^bands).  Every
    hash is md5-derived and the permutation space is 2^32, so DuckDB
    reproduces the exact rows (SQL_MINHASH_BANDS).  Docs with zero
    words emit no rows (both sides agree)."""
    rows_per_band = num_perm // bands
    M = np.uint64(1 << 32)
    # int(hexdigest[:8], 16) == the high 32 bits of the u64 digest head
    a = (md5_u64([f"mh-a-{i}" for i in range(num_perm)]) >> np.uint64(32)) | np.uint64(1)
    b = md5_u64([f"mh-b-{i}" for i in range(num_perm)]) >> np.uint64(32)
    # one vectorized pass: all docs' shingles hash together, per-doc
    # signatures fall out of a single axis-1 reduceat
    ids = batch[id_col].to_pylist()
    gram_parts: List[str] = []
    keep_ids = []
    starts_list = []
    for doc_id, text in zip(ids, batch[text_col].to_pylist()):
        grams = word_shingles(text, shingle_n)
        if not grams:
            continue
        starts_list.append(len(gram_parts))
        keep_ids.append(doc_id)
        gram_parts.extend(grams)
    if not gram_parts:
        return pa.table(
            {
                id_col: pa.array([], batch[id_col].type),
                "band_id": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.string()),
            }
        )
    hs = md5_u64(["sh" + g for g in gram_parts]) >> np.uint64(32)
    starts = np.asarray(starts_list, dtype=np.int64)
    with np.errstate(over="ignore"):
        perms = (a[:, None] * hs[None, :] + b[:, None]) % M  # (P, grams)
    sig = np.minimum.reduceat(perms, starts, axis=1)         # (P, docs)
    # band-hash messages 'band-v1-v2-...', all bands in one md5 call
    n_docs = len(keep_ids)
    rows = sig.T.tolist()                                    # per doc
    r = rows_per_band
    msgs = [
        f"{band}-" + "-".join(map(str, row[band * r : band * r + r]))
        for band in range(bands)
        for row in rows
    ]
    hi, lo = md5_u128(msgs)
    doc_idx = np.tile(np.arange(n_docs), bands)
    band_idx = np.repeat(np.arange(bands), n_docs)
    return pa.table(
        {
            id_col: pa.array(
                [keep_ids[i] for i in doc_idx], batch[id_col].type
            ),
            "band_id": pa.array(band_idx, pa.int32()),
            "band_hash": pa.array(
                [f"{h:016x}{l:016x}" for h, l in zip(hi.tolist(), lo.tolist())],
                pa.string(),
            ),
        }
    )


_VERIFY_BLOOM_BITS = 1 << 23  # 1 MiB of driver memory regardless of pair count


def verify_jaccard_pairs(
    pairs: ray.data.Dataset,
    documents: ray.data.Dataset,
    threshold: float,
    shingle_n: int = 3,
    broadcast_threshold: int = 10_000,
) -> ray.data.Dataset:
    """Verify candidate pairs by true Jaccard — fully distributed.

    1. Stream a BLOOM of the pair doc-ids to the driver (per-batch bit
       arrays OR-merged: the driver holds bits, never an id set — this
       replaces the old driver-side pair table + shingle dict).
    2. Prune documents map-side through the broadcast bloom (~2×pairs
       docs survive, plus a negligible false-positive tail that the
       joins drop).
    3. Two ``exchange.join`` calls attach both texts to each pair.
    4. Per-batch shingling + Jaccard, filter ≥ threshold.

    When the candidate count is ≤ ``broadcast_threshold``, step 3 is
    replaced by a broadcast of the bloom-pruned texts (≈ 2×pairs rows,
    bounded by the threshold) consumed by a single map over the pair
    rows.  Two joins are two sorts whose fixed cost dominates at small
    candidate counts: on 4 CPUs, ``q_minhash_neardup`` at sf0.01 took
    0.89–1.02 s with the broadcast and 2.06–2.21 s forced onto the
    joins (medians of 5 runs, two sets).  Above the threshold the join
    path runs.
    """
    from ..state.bloom import BloomShard

    pairs = pairs.materialize()  # counted, bloomed and joined below
    a_type = None
    sch = pairs.schema()
    if sch is not None and "a" in sch.names:
        a_type = sch.types[sch.names.index("a")]
    empty = pa.table(
        {
            "a": pa.array([], a_type or pa.int64()),
            "b": pa.array([], a_type or pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    n_pairs = pairs.count()
    if n_pairs == 0:
        return ray.data.from_arrow(empty)

    def batch_bloom(t: pa.Table) -> pa.Table:
        sh = BloomShard(_VERIFY_BLOOM_BITS)
        sh.set_seen(
            [str(v) for v in t["a"].to_pylist()]
            + [str(v) for v in t["b"].to_pylist()]
        )
        return pa.table({"bits": pa.array([sh.bits.tobytes()], pa.binary())})

    merged = np.zeros(_VERIFY_BLOOM_BITS // 8, dtype=np.uint8)
    # iter_batches, not to_arrow_refs: avoids the wasted limit-1
    # schema re-execution on non-materialized plans
    for part in pairs.map_batches(
        batch_bloom, batch_format="pyarrow", batch_size=65536
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        for blob in part["bits"].to_pylist():
            merged |= np.frombuffer(blob, dtype=np.uint8)
    bloom_ref = ray.put(merged)

    def filt(t: pa.Table) -> pa.Table:
        sh = BloomShard(_VERIFY_BLOOM_BITS)
        sh.bits = ray.get(bloom_ref)  # probe() is read-only: zero-copy
        mask = sh.probe([str(v) for v in t["doc_id"].to_pylist()])
        return t.filter(pa.array(mask, pa.bool_()))

    # materialize the pruned docs ONCE (object store, ~2×pairs rows):
    # both join sides consume the same blocks instead of re-scanning +
    # re-filtering the documents per join
    docs = (
        documents.select_columns(["doc_id", "text"])
        .map_batches(filt, batch_format="pyarrow")
        .materialize()
    )

    if n_pairs <= broadcast_threshold:
        # bounded by the threshold: the bloom-pruned docs are ≈2×pairs
        # rows (+ negligible fp tail), so ship ONE text lookup through
        # the object store and verify with a single vectorized map —
        # no join exchange, no aggregator actors
        lookup = {}
        for part in docs.iter_batches(batch_size=None, batch_format="pyarrow"):
            lookup.update(zip(part["doc_id"].to_pylist(), part["text"].to_pylist()))
        lookup_ref = ray.put(lookup)

        def score_broadcast(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return empty
            lk = ray.get(lookup_ref)
            sims, keep = [], []
            for x, y in zip(t["a"].to_pylist(), t["b"].to_pylist()):
                ta, tb = lk.get(x), lk.get(y)
                if ta is None or tb is None:  # bloom fp partner — drop
                    keep.append(False)
                    sims.append(0.0)
                    continue
                keep.append(True)
                sims.append(
                    jaccard(
                        set(word_shingles(ta, shingle_n)),
                        set(word_shingles(tb, shingle_n)),
                    )
                )
            out = pa.table(
                {"a": t["a"], "b": t["b"], "jaccard": pa.array(sims, pa.float64())}
            ).filter(pa.array(keep, pa.bool_()))
            return out.filter(
                pc.greater_equal(out["jaccard"], pa.scalar(float(threshold)))
            )

        return pairs.map_batches(score_broadcast, batch_format="pyarrow")

    with_a = join(pairs, docs, on="a", right_on="doc_id").map_batches(
        lambda t: pa.table(
            {"a": t["a"], "b": t["b"], "text_a": t["text"]}
        ),
        batch_format="pyarrow",
    )
    joined = join(with_a, docs, on="b", right_on="doc_id")

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        sims = [
            jaccard(set(word_shingles(x, shingle_n)), set(word_shingles(y, shingle_n)))
            for x, y in zip(t["text_a"].to_pylist(), t["text"].to_pylist())
        ]
        out = pa.table(
            {"a": t["a"], "b": t["b"], "jaccard": pa.array(sims, pa.float64())}
        )
        return out.filter(
            pc.greater_equal(out["jaccard"], pa.scalar(float(threshold)))
        )

    return joined.map_batches(score, batch_format="pyarrow")


# --- embedding near-dup ---------------------------------------------------


def embedding_neardup_lsh(
    embeddings: ray.data.Dataset,
    threshold: float = 0.95,
    n_bits: int = 8,
    seed: int = 42,
) -> ray.data.Dataset:
    """Scale-path near-dup: sign-LSH bucket each vector (map_batches),
    co-locate buckets with one ``by_key``, compute exact pairwise cosine
    WITHIN each bucket.  Approximate: a pair split across buckets is
    missed — for cosine ≥ t the collision probability per plane is
    1 − arccos(t)/π (≈0.9 at t=0.95), so recall ≈ 0.9^n_bits per
    band; raise recall with fewer bits or multiple seeds (union of
    passes), trade against bucket size."""
    from .similarity import SignLSH, _normalize

    state = {}

    def assign(batch: pa.Table) -> pa.Table:
        mat = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        if "lsh" not in state:
            state["lsh"] = SignLSH(mat.shape[1], n_bits, seed)
        buckets = state["lsh"].bucket(_normalize(mat))
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "embedding": batch["embedding"],
                "bucket": pa.array(buckets.tolist(), pa.int64()),
            }
        )

    def bucket_pairs(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy()
        mat = _normalize(np.stack(t["embedding"].to_pylist()).astype(np.float64))
        bounds = run_starts(t["bucket"]).tolist() + [t.num_rows]
        i_all, j_all, cos = [], [], []
        for s, e in zip(bounds, bounds[1:]):
            sims = mat[s:e] @ mat[s:e].T
            i, j = np.nonzero(np.triu(sims >= threshold, 1))
            i_all.append(i + s)
            j_all.append(j + s)
            cos.append(sims[i, j])
        i, j = np.concatenate(i_all), np.concatenate(j_all)
        return pa.table(
            {
                "vec_id_a": pa.array(np.minimum(ids[i], ids[j]), pa.int64()),
                "vec_id_b": pa.array(np.maximum(ids[i], ids[j]), pa.int64()),
                "cosine": pa.array(np.concatenate(cos), pa.float64()),
            }
        )

    return by_key(
        embeddings.select_columns(["vec_id", "embedding"]).map_batches(
            assign, batch_format="pyarrow"
        ),
        "bucket",
        bucket_pairs,
    )


def embedding_neardup_pairs(
    embeddings: ray.data.Dataset, threshold: float = 0.95, max_rows: int = 1_000_000
) -> ray.data.Dataset:
    """All pairs (a < b) with cosine similarity ≥ threshold.

    Exact blocked computation: the L2-normalized matrix is broadcast
    once (ray.put), each batch computes a (batch × all) matmul and
    emits only pairs above threshold.  This is the EXACT ORACLE
    BASELINE — O(N²) with the full matrix broadcast — and refuses
    inputs beyond ``max_rows``: the scale path is
    ``embedding_neardup_lsh`` (bucketed candidate generation, this
    kernel's math as the within-bucket verifier)."""
    n = embeddings.count()
    if n > max_rows:
        raise ValueError(
            f"embedding_neardup_pairs is the exact O(N²) baseline and "
            f"refuses {n} rows (> {max_rows}); use embedding_neardup_lsh "
            f"for the bucketed scale path"
        )
    tbl = embeddings.select_columns(["vec_id", "embedding"]).to_pandas()
    ids = tbl["vec_id"].to_numpy()
    mat = np.stack(tbl["embedding"].to_numpy()).astype(np.float64)
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids, mat))

    def pairs(batch: pa.Table) -> pa.Table:
        all_ids, all_mat = ray.get(ref)
        b_ids = np.asarray(batch["vec_id"].to_pylist())
        b_mat = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        b_mat /= np.maximum(np.linalg.norm(b_mat, axis=1, keepdims=True), 1e-12)
        sims = b_mat @ all_mat.T  # (batch, N)
        rows_a, rows_b, rows_s = [], [], []
        for i in range(sims.shape[0]):
            mask = (sims[i] >= threshold) & (all_ids > b_ids[i])
            for j in np.nonzero(mask)[0]:
                rows_a.append(int(b_ids[i]))
                rows_b.append(int(all_ids[j]))
                rows_s.append(float(sims[i, j]))
        return pa.table(
            {
                "vec_id_a": pa.array(rows_a, pa.int64()),
                "vec_id_b": pa.array(rows_b, pa.int64()),
                "cosine": pa.array(rows_s, pa.float64()),
            }
        )

    return embeddings.map_batches(pairs, batch_format="pyarrow", batch_size=256)


# --- near-dup clusters (connected components over candidate pairs) --------


def connected_components(
    pairs: ray.data.Dataset,
    nodes: ray.data.Dataset,
    id_col: str = "doc_id",
    mode: str = "auto",
    driver_edge_threshold: int = 5_000_000,
    max_iters: int = 64,
) -> ray.data.Dataset:
    """Component label per node: min node id reachable through the
    pair edges (singletons label themselves) — the canonical-document
    step after near-dup pair generation.

    'auto' collects edges to the driver for a union-find while the
    edge count is under ``driver_edge_threshold`` (edges after LSH are
    a tiny fraction of the corpus) and otherwise runs DISTRIBUTED
    min-label propagation: per iteration, labels hash-join the (both-
    direction) edge list and each node takes min(own, neighbors')
    via one grouped Min — converging in graph-diameter iterations
    (near-dup clusters are shallow; ``max_iters`` is a backstop).
    Termination is detected by the monotonically decreasing label sum.
    Output: (id_col, component)."""
    edges_f = pairs.select_columns(["a", "b"])
    n_edges = edges_f.count()
    node_ids = nodes.select_columns([id_col])

    if mode == "driver" or (mode == "auto" and n_edges <= driver_edge_threshold):
        parent: Dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for part in edges_f.iter_batches(batch_size=None, batch_format="pyarrow"):
            for a, b in zip(part["a"].to_pylist(), part["b"].to_pylist()):
                ra, rb = find(a), find(b)
                if ra != rb:  # union by MIN id so labels are canonical
                    if rb < ra:
                        ra, rb = rb, ra
                    parent[rb] = ra
        comp_of = ray.put({x: find(x) for x in list(parent)})

        def label(t: pa.Table) -> pa.Table:
            m = ray.get(comp_of)
            ids = t[id_col].to_pylist()
            return pa.table(
                {
                    id_col: t[id_col],
                    "component": pa.array(
                        [m.get(i, i) for i in ids], t[id_col].type
                    ),
                }
            )

        return node_ids.map_batches(label, batch_format="pyarrow")

    # distributed min-label propagation
    both = edges_f.map_batches(
        lambda t: pa.table(
            {
                "u": pa.concat_arrays(
                    [t["a"].combine_chunks(), t["b"].combine_chunks()]
                ),
                "v": pa.concat_arrays(
                    [t["b"].combine_chunks(), t["a"].combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    labels = node_ids.map_batches(
        lambda t: pa.table({"u": t[id_col], "label": t[id_col]}),
        batch_format="pyarrow",
    ).materialize()
    prev_sum = None
    converged = False
    from ray.data.aggregate import Min

    for _ in range(max_iters):
        prop = join(both, labels, on="v", right_on="u").select_columns(["u", "label"])
        labels = (
            labels.union(prop).groupby("u").aggregate(Min("label", alias_name="label"))
        ).materialize()
        s = labels.sum("label")
        if s == prev_sum:
            converged = True
            break
        prev_sum = s
    if not converged:
        # the last allowed iteration still changed the sum — it may
        # have BEEN the fixpoint step, so run ONE confirming pass
        # before deciding (a converged-on-the-last-iteration graph
        # must not raise); only a sum still decreasing after that
        # means a component's diameter exceeds the budget
        prop = join(both, labels, on="v", right_on="u").select_columns(["u", "label"])
        confirm = (
            labels.union(prop).groupby("u").aggregate(Min("label", alias_name="label"))
        ).materialize()
        if confirm.sum("label") != prev_sum:
            raise RuntimeError(
                f"connected_components: min-label propagation did not "
                f"converge within max_iters={max_iters} (a component's "
                f"diameter exceeds the iteration budget); raise max_iters"
            )
    return labels.map_batches(
        lambda t: pa.table({id_col: t["u"], "component": t["label"]}),
        batch_format="pyarrow",
    )


def semantic_dedup(
    embeddings: ray.data.Dataset,
    k: int = 4,
    iterations: int = 2,
    threshold: float = 0.40,
    scale: int = 1000,
    max_cluster_rows: int = 100_000,
) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023) shape: k-means-cluster the
    embedding space, then mark near-duplicates WITHIN each cluster
    only — the cluster assignment is the blocking key that makes
    pairwise cosine affordable.  A vector is a duplicate iff some
    SMALLER-id vector in its cluster has cosine >= threshold, so
    exactly one canonical (the smallest id) survives per dup chain.
    Returns (vec_id, cluster, dup).

    Scale shape: centroid training exchanges only K×D partial sums
    (stages/similarity.py kmeans_centroids); the single corpus-wide
    shuffle is the cluster-keyed ``by_key``; within-cluster work is O(|c|²),
    so ``k`` must scale with the corpus (clusters of ~1k vectors).
    Groups larger than ``max_cluster_rows`` raise rather than silently
    quadratically blow up."""
    from .similarity import _normalize, assign_clusters, kmeans_centroids

    embeddings = embeddings.materialize()  # shared with the training scans
    cent = kmeans_centroids(embeddings, k, iterations, scale)
    assigned = assign_clusters(embeddings, cent, scale, keep_vec=True)

    def cluster_dups(t: pa.Table) -> pa.Table:
        t = t.sort_by([("cluster", "ascending"), ("vec_id", "ascending")])
        mat = _normalize(np.stack(t["embedding"].to_pylist()).astype(np.float64))
        bounds = run_starts(t["cluster"]).tolist() + [t.num_rows]
        dup = np.zeros(t.num_rows, dtype=np.int64)
        for s, e in zip(bounds, bounds[1:]):
            if e - s > max_cluster_rows:
                raise ValueError(
                    f"semantic_dedup cluster has {e - s} rows > "
                    f"max_cluster_rows={max_cluster_rows}; raise k so "
                    f"clusters stay small enough for pairwise cosine"
                )
            # dup[j] = exists i<j (id order) with cosine >= threshold
            dup[s:e] = np.triu(mat[s:e] @ mat[s:e].T >= threshold, 1).any(axis=0)
        return pa.table(
            {
                "vec_id": t["vec_id"].cast(pa.int64()),
                "cluster": t["cluster"].cast(pa.int64()),
                "dup": dup,
            }
        )

    return by_key(assigned, "cluster", cluster_dups)


def _levenshtein(a: str, b: str) -> int:
    """Plain DP Levenshtein (unit costs) — matches DuckDB's
    ``levenshtein``.  Only ever called on CANDIDATE pairs, which the
    deletion-neighborhood blocking has already bounded to distance
    <= 2, so the strings are near-equal length and short."""
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, 1):
        cur = [j]
        for i, ca in enumerate(a, 1):
            cur.append(
                min(prev[i] + 1, cur[i - 1] + 1,
                    prev[i - 1] + (ca != cb))
            )
        prev = cur
    return prev[-1]


def fuzzy_pairs_lev1(
    strings: ray.data.Dataset,
    col: str,
    max_len: int = 64,
    max_variant_group: int = 10_000,
) -> ray.data.Dataset:
    """Edit-distance-1 fuzzy SELF-join via deletion-neighborhood
    blocking (the SymSpell trick): every string s generates the
    variant set {s} ∪ {s minus one char}; two strings with
    levenshtein <= 1 ALWAYS share a variant, so an exact equi-join on
    the variant key is a complete (no-false-negative) candidate
    generator, and candidates are bounded at distance <= 2.  Returns
    (name_a, name_b, dist) for distinct-value pairs with dist <= 1,
    name_a < name_b.

    Scale shape: the exchange moves (variant, string) rows — ~len+1
    per distinct string — through ONE variant-keyed co-location
    (``by_key``), within-group ordered pairs, a pair-keyed dedup, then a
    vectorized-DP verify on the surviving candidates only.  No O(N²)
    anywhere; the quadratic risk (a hot variant) is bounded by how
    many strings can share one deletion — data-dependent, and the
    verify join touches only emitted pairs."""
    from ray.data.aggregate import Count

    def variants(batch: pa.Table) -> pa.Table:
        out_v: List[str] = []
        out_s: List[str] = []
        for s in set(batch[col].to_pylist()):
            if s is None or len(s) > max_len:
                continue
            out_v.append(s)
            out_s.append(s)
            for i in range(len(s)):
                out_v.append(s[:i] + s[i + 1:])
                out_s.append(s)
        return pa.table(
            {
                "var": pa.array(out_v, pa.string()),
                "s": pa.array(out_s, pa.string()),
            }
        )

    def group_pairs(t: pa.Table) -> pa.Table:
        # one row per distinct (var, s), then every s-pair of a var
        t = t.sort_by([("var", "ascending"), ("s", "ascending")])
        t = t.take(run_starts(t["var"], t["s"]))
        ss = t["s"].to_pylist()
        bounds = run_starts(t["var"]).tolist() + [t.num_rows]
        name_a, name_b = [], []
        for s, e in zip(bounds, bounds[1:]):
            if e - s > max_variant_group:
                raise ValueError(
                    f"fuzzy_pairs_lev1: {e - s} strings share one "
                    f"deletion variant (> max_variant_group="
                    f"{max_variant_group}); the pair fan-out would be "
                    f"quadratic — pre-block by a coarser key first"
                )
            for i in range(s, e):
                name_a += [ss[i]] * (e - i - 1)
                name_b += ss[i + 1 : e]
        return pa.table(
            {"name_a": pa.array(name_a, pa.string()), "name_b": pa.array(name_b, pa.string())}
        )

    cand = by_key(
        strings.select_columns([col]).map_batches(variants, batch_format="pyarrow"),
        "var",
        group_pairs,
    ).groupby(["name_a", "name_b"]).aggregate(Count(alias_name="n_vars"))

    def verify(batch: pa.Table) -> pa.Table:
        a_list = batch["name_a"].to_pylist()
        b_list = batch["name_b"].to_pylist()
        dists = [_levenshtein(a, b) for a, b in zip(a_list, b_list)]
        t = pa.table(
            {
                "name_a": batch["name_a"],
                "name_b": batch["name_b"],
                "dist": pa.array(dists, pa.int64()),
            }
        )
        return t.filter(pc.less_equal(t["dist"], 1))

    return cand.map_batches(verify, batch_format="pyarrow")


# --- Substring-level exact dedup (repeated-span removal) -------------------
#
# The Lee et al. 2022 ("Deduplicating Training Data Makes Language
# Models Better") shape, without the suffix array: mark text spans of
# >= n tokens that occur more than once ANYWHERE in the corpus, keep
# only the globally first occurrence.  The reference dedups whole rows
# on PKs only (reference dao/matches_db.py:42,92,131) — this operator
# is the training-data-pipeline extension.
#
# Scale shape (no suffix-array materialization, no driver state):
#   1. map_batches: tokenize each doc, emit one (gram-key, doc_id,
#      off) triple per n-gram — fixed-width keys, never text, leave
#      the node;
#   2. ONE key-partitioned exchange: groupby(gram key), keep-first by
#      (doc_id, off) inside each group, emit the rest as duplicate
#      occurrences;
#   3. groupby(doc_id): merge overlapping [off, off+n) token windows
#      into maximal spans (gaps-and-islands), and — for the cleaning
#      variant — drop the covered tokens from the text.
# Hot grams (site boilerplate repeated millions of times) make big
# groups in step 2; the kernel is a single mergesort + slice, linear
# in group size, and the group rows are 24-byte triples.

def span_ngram_occurrences(
    documents: ray.data.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_bits: int = 128,
) -> ray.data.Dataset:
    """(key_hi[, key_lo], doc_id, off) per n-gram occurrence.  Grams
    are md5-keyed (vectorized numpy MD5) so the DuckDB twin computes
    identical keys; ``hash_bits=128`` keys the exchange on the full
    digest (64-bit keys collide at ~2^32 distinct grams — hours of a
    100 TB corpus), ``hash_bits=64`` is the md5-twin oracle mode.
    Tokenization is the repo-wide ``[a-z0-9_]+`` lowercase idiom;
    the gram string is the ' '-join of its tokens (what SQL md5s).
    ``id_col`` must be integer-typed (the whole span family exchanges
    int64 doc ids; string ids would need a stable_hash64 id column
    first)."""
    if hash_bits not in (64, 128):
        raise ValueError("hash_bits must be 64 or 128")

    def emit(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        texts = t[text_col].to_pylist()
        doc_parts, off_parts, grams = [], [], []
        for d, txt in zip(ids, texts):
            toks = _WORD_RE.findall(txt.lower())
            m = len(toks) - n + 1
            if m <= 0:
                continue
            grams.extend(" ".join(toks[j : j + n]) for j in range(m))
            doc_parts.append(np.full(m, d, np.int64))
            off_parts.append(np.arange(m, dtype=np.int64))
        cols: dict = {}
        if grams:
            if hash_bits == 128:
                hi, lo = md5_u128(grams)
                cols["key_hi"] = pa.array(hi.view(np.int64), pa.int64())
                cols["key_lo"] = pa.array(lo.view(np.int64), pa.int64())
            else:
                cols["key_hi"] = pa.array(
                    md5_u64(grams).view(np.int64), pa.int64()
                )
            cols[id_col] = pa.array(np.concatenate(doc_parts), pa.int64())
            cols["off"] = pa.array(np.concatenate(off_parts), pa.int64())
        else:
            cols["key_hi"] = pa.array([], pa.int64())
            if hash_bits == 128:
                cols["key_lo"] = pa.array([], pa.int64())
            cols[id_col] = pa.array([], pa.int64())
            cols["off"] = pa.array([], pa.int64())
        # column order must be stable across batches
        order = (
            ["key_hi", "key_lo", id_col, "off"]
            if hash_bits == 128
            else ["key_hi", id_col, "off"]
        )
        return pa.table({c: cols[c] for c in order})

    return documents.map_batches(emit, batch_format="pyarrow")


def span_dup_offsets(
    documents: ray.data.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_bits: int = 128,
) -> ray.data.Dataset:
    """Duplicate n-gram occurrences (doc_id, off): every occurrence of
    a gram except the globally FIRST by (doc_id, off) ascending — the
    SQL ``row_number() OVER (PARTITION BY key ORDER BY doc_id, off)
    > 1`` window, realized as one gram-key-partitioned exchange."""
    occ = span_ngram_occurrences(
        documents, n=n, id_col=id_col, text_col=text_col, hash_bits=hash_bits
    )
    key_cols = ["key_hi", "key_lo"] if hash_bits == 128 else ["key_hi"]
    # by_key on the gram key + ONE vectorized lexsort per partition:
    # a per-group Python kernel call cost ~45 s on 270k tiny gram
    # groups at sf0.1 where this shape takes ~2 s

    def dups_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "off": pa.array([], pa.int64()),
                }
            )
        kh = t["key_hi"].to_numpy()
        doc = t[id_col].to_numpy()
        off = t["off"].to_numpy()
        if hash_bits == 128:
            kl = t["key_lo"].to_numpy()
            order = np.lexsort((off, doc, kl, kh))
            kh, kl, doc, off = kh[order], kl[order], doc[order], off[order]
            first = np.empty(len(kh), dtype=bool)
            first[0] = True
            first[1:] = (kh[1:] != kh[:-1]) | (kl[1:] != kl[:-1])
        else:
            order = np.lexsort((off, doc, kh))
            kh, doc, off = kh[order], doc[order], off[order]
            first = np.empty(len(kh), dtype=bool)
            first[0] = True
            first[1:] = kh[1:] != kh[:-1]
        keep = ~first
        return pa.table(
            {
                id_col: pa.array(doc[keep], pa.int64()),
                "off": pa.array(off[keep], pa.int64()),
            }
        )

    return by_key(occ, key_cols, dups_part)


def _merge_offsets(offs: np.ndarray, n: int) -> tuple:
    """Merge sorted unique offsets' [off, off+n) windows into maximal
    spans: a window merges into the running span when its start is
    <= the previous start + n (overlap or adjacency).  Returns
    (starts, ends) in token coordinates, end exclusive."""
    brk = np.flatnonzero(np.diff(offs) > n)
    starts = offs[np.concatenate(([0], brk + 1))]
    ends = offs[np.concatenate((brk, [len(offs) - 1]))] + n
    return starts, ends


def span_dedup_spans(
    documents: ray.data.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_bits: int = 128,
) -> ray.data.Dataset:
    """Maximal duplicated spans per doc (doc_id, tok_start, tok_end):
    the union of every duplicate n-gram window, merged by the
    gaps-and-islands rule (two windows merge when their starts differ
    by <= n).  ``tok_end`` is exclusive.  Two keyed exchanges total:
    gram key (keep-first), then doc_id (merge)."""
    dups = span_dup_offsets(
        documents, n=n, id_col=id_col, text_col=text_col, hash_bits=hash_bits
    )

    def merge_part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "tok_start": pa.array([], pa.int64()),
                "tok_end": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        doc = t[id_col].to_numpy()
        off = t["off"].to_numpy()
        order = np.lexsort((off, doc))
        doc, off = doc[order], off[order]
        uniq = np.empty(len(doc), dtype=bool)
        uniq[0] = True
        uniq[1:] = (doc[1:] != doc[:-1]) | (off[1:] != off[:-1])
        doc, off = doc[uniq], off[uniq]
        # islands: a new span starts at a doc change or a gap > n
        brk = np.empty(len(doc), dtype=bool)
        brk[0] = True
        brk[1:] = (doc[1:] != doc[:-1]) | (off[1:] - off[:-1] > n)
        starts_idx = np.flatnonzero(brk)
        ends_idx = np.append(starts_idx[1:], len(doc)) - 1
        return pa.table(
            {
                id_col: pa.array(doc[starts_idx], pa.int64()),
                "tok_start": pa.array(off[starts_idx], pa.int64()),
                "tok_end": pa.array(off[ends_idx] + n, pa.int64()),
            }
        )

    return by_key(dups, id_col, merge_part)


def span_dedup_clean(
    documents: ray.data.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_bits: int = 128,
) -> ray.data.Dataset:
    """Remove duplicated spans from each doc: (doc_id, clean_text,
    n_removed_tokens).  The globally first occurrence of a repeated
    span survives; later copies are cut.  Docs with no duplicate
    grams pass through whole.  The cleaned text is the ' '-join of
    surviving tokens under the repo-wide ``[a-z0-9_]+`` lowercase
    tokenization (lossless on the single-spaced corpus; a production
    variant would track char offsets instead).

    One extra doc_id-keyed exchange carries the duplicate offsets to
    the doc text (tagged union, the same pattern as ``exchange.join``) —
    the text itself moves through exactly one exchange."""
    dups = span_dup_offsets(
        documents, n=n, id_col=id_col, text_col=text_col, hash_bits=hash_bits
    )

    def tag_docs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: pc.cast(t[id_col], pa.int64()),
                text_col: t[text_col],
                "off": pa.array(
                    np.full(t.num_rows, -1, np.int64), pa.int64()
                ),
            }
        )

    def tag_dups(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t[id_col],
                text_col: pa.nulls(t.num_rows, pa.string()),
                "off": t["off"],
            }
        )

    tagged = documents.map_batches(
        tag_docs, batch_format="pyarrow"
    ).union(dups.map_batches(tag_dups, batch_format="pyarrow"))

    def clean_part(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "clean_text": pa.array([], pa.string()),
                "n_removed_tokens": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        doc = t[id_col].to_numpy()
        off = t["off"].to_numpy()
        texts = t[text_col].to_pylist()
        order = np.lexsort((off, doc))   # off=-1 text row leads its doc
        doc, off = doc[order], off[order]
        brk = np.empty(len(doc), dtype=bool)
        brk[0] = True
        brk[1:] = doc[1:] != doc[:-1]
        run_starts = np.flatnonzero(brk)
        run_ends = np.append(run_starts[1:], len(doc))
        out_id, out_text, out_rm = [], [], []
        for s, e in zip(run_starts, run_ends):
            txt = texts[order[s]]        # the off=-1 row, exactly one
            toks = _WORD_RE.findall(txt.lower())
            offs = off[s:e]
            offs = offs[offs >= 0]
            keep = np.ones(len(toks), dtype=bool)
            if offs.size:
                st, en = _merge_offsets(np.unique(offs), n)
                for a_, b_ in zip(st, en):
                    keep[a_:b_] = False
            out_id.append(int(doc[s]))
            out_text.append(" ".join(np.asarray(toks)[keep]) if toks else "")
            out_rm.append(int((~keep).sum()))
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "clean_text": pa.array(out_text, pa.string()),
                "n_removed_tokens": pa.array(out_rm, pa.int64()),
            }
        )

    return by_key(tagged, id_col, clean_part)


def span_novelty(
    documents: ray.data.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_bits: int = 128,
) -> ray.data.Dataset:
    """Per-doc n-gram novelty (a quality signal for curriculum /
    filtering): of a doc's n-grams, how many are the corpus-wide FIRST
    occurrence of their gram — (doc_id, n_grams, n_novel).  Reuses the
    span-dedup occurrence emitter: one gram-keyed exchange marks rank-1
    occurrences, one doc-keyed aggregate counts.  Docs with < n tokens
    emit no grams and no row (the SQL twin agrees)."""
    from ray.data.aggregate import Count, Sum

    occ = span_ngram_occurrences(
        documents, n=n, id_col=id_col, text_col=text_col, hash_bits=hash_bits
    )
    key_cols = ["key_hi", "key_lo"] if hash_bits == 128 else ["key_hi"]

    def mark_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "novel": pa.array([], pa.int64()),
                }
            )
        kh = t["key_hi"].to_numpy()
        doc = t[id_col].to_numpy()
        off = t["off"].to_numpy()
        if hash_bits == 128:
            kl = t["key_lo"].to_numpy()
            order = np.lexsort((off, doc, kl, kh))
            kh, kl, doc = kh[order], kl[order], doc[order]
            first = np.empty(len(kh), dtype=bool)
            first[0] = True
            first[1:] = (kh[1:] != kh[:-1]) | (kl[1:] != kl[:-1])
        else:
            order = np.lexsort((off, doc, kh))
            kh, doc = kh[order], doc[order]
            first = np.empty(len(kh), dtype=bool)
            first[0] = True
            first[1:] = kh[1:] != kh[:-1]
        return pa.table(
            {
                id_col: pa.array(doc, pa.int64()),
                "novel": pa.array(first.astype(np.int64), pa.int64()),
            }
        )

    return by_key(occ, key_cols, mark_part).groupby(id_col).aggregate(
        Count(alias_name="n_grams"), Sum("novel", alias_name="n_novel")
    )


def winnow_fingerprints(
    batch: pa.Table,
    k: int = 5,
    w: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """Winnowing fingerprints (Schleimer et al. 2003, the MOSS
    scheme): hash every word ``k``-gram, slide a window of ``w``
    consecutive hashes, select the window minimum (rightmost on ties),
    dedup selections — guarantees any shared run of >= w+k-1 words
    between two docs shares a fingerprint, at ~2/(w+1) the density of
    full fingerprinting.  Emits (doc_id, pos, fp) with fp the md5-u64
    hex of the selected gram, so the DuckDB twin reproduces every
    selection.  Pure map_batches: grams hash through the vectorized
    numpy MD5; window minima via one sliding_window_view argmin (the
    reversed-axis trick gives the rightmost tie).  Docs with < k words
    fingerprint their whole word list at pos 0."""
    from numpy.lib.stride_tricks import sliding_window_view

    texts = batch[text_col].to_pylist()
    ids = batch[id_col].to_pylist()
    gram_parts: List[str] = []
    starts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        starts[i] = len(gram_parts)
        ws_ = _WORD_RE.findall(t.lower())
        if len(ws_) >= k:
            gram_parts.extend(
                " ".join(ws_[j : j + k]) for j in range(len(ws_) - k + 1)
            )
        else:
            gram_parts.append(" ".join(ws_))
    hs = md5_u64(gram_parts)
    out_id, out_pos, out_fp = [], [], []
    lens = np.diff(np.append(starts, len(hs)))
    for i, d in enumerate(ids):
        h = hs[starts[i] : starts[i] + lens[i]]
        m = len(h)
        if m == 0:
            continue
        if m <= w:
            # single window: rightmost argmin over the whole doc
            rev = m - 1 - int(np.argmin(h[::-1]))
            sel = np.array([rev], dtype=np.int64)
        else:
            wins = sliding_window_view(h, w)          # (m-w+1, w)
            rev = w - 1 - np.argmin(wins[:, ::-1], axis=1)
            sel = np.unique(np.arange(m - w + 1) + rev)
        out_id.extend([d] * len(sel))
        out_pos.extend(sel.tolist())
        out_fp.extend(f"{v:016x}" for v in h[sel].tolist())
    return pa.table(
        {
            id_col: pa.array(out_id, batch[id_col].type),
            "pos": pa.array(out_pos, pa.int64()),
            "fp": pa.array(out_fp, pa.string()),
        }
    )
