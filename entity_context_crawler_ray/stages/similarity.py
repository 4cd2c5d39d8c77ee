"""Similarity search over an embedding column (list<float>).

- ``knn_bruteforce``: exact cosine top-k — numpy matmul per batch
  against a broadcast query vector, per-batch local top-k (the partial
  combiner), then a tiny global sort+limit over batch winners.
- ``lsh_buckets`` + ``knn_ivf``: the scale paths — sign-bit random
  projections bucket the space so candidate generation is local; IVF
  probes only the nearest centroid partitions.

All math in float64 for cross-engine determinism vs the DuckDB
``list_cosine_similarity`` oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.hashing import md5_u64


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)


def _topk_det(ids: np.ndarray, sims: np.ndarray, k: int):
    """Deterministic per-batch top-k on (cosine desc, id asc): ties at
    the k boundary keep the SMALLER id, matching the global
    sort+limit and the SQL twin.  A plain argpartition breaks boundary
    ties arbitrarily, which matters for duplicate embeddings (common
    in dedup corpora)."""
    if len(ids) > k:
        order = np.lexsort((ids, -sims))[:k]
        return ids[order], sims[order]
    return ids, sims


def knn_bruteforce(
    embeddings: ray.data.Dataset,
    query: Sequence[float],
    k: int = 20,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Exact top-k by cosine, deterministic tie-break on (−sim, id)."""
    q = np.asarray(query, dtype=np.float64)
    q = q / max(np.linalg.norm(q), 1e-12)
    q_ref = ray.put(q)

    def score_topk(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist())
        mat = _normalize(np.stack(batch[vec_col].to_pylist()).astype(np.float64))
        sims = mat @ qv
        ids, sims = _topk_det(ids, sims, k)
        return pa.table(
            {
                id_col: pa.array(ids.tolist(), pa.int64()),
                "cosine": pa.array(sims.tolist(), pa.float64()),
            }
        )

    partial = embeddings.map_batches(score_topk, batch_format="pyarrow")
    # global winners: tiny dataset (k per batch), exact sort + limit
    return partial.sort(["cosine", id_col], descending=[True, False]).limit(k)


class SignLSH:
    """Random-projection sign-bit bucketing (deterministic planes from
    hash seeds).  Vectors in the same bucket are ANN candidates.

    Plane coordinates are ``md5_u32('lshp-{seed}-{bit}-{dim}') / 2^31 - 1``
    (the top 32 bits of the md5), which DuckDB reproduces exactly, so
    the buckets, the IVF probe filter (SQL_KNN_IVF) and the LSH near-dup
    pairs (SQL_EMBEDDING_NEARDUP_LSH) are hash-exact oracle checks."""

    def __init__(self, dim: int, n_bits: int = 8, seed: int = 42):
        msgs = [f"lshp-{seed}-{b}-{d}" for b in range(n_bits) for d in range(dim)]
        top32 = (md5_u64(msgs) >> np.uint64(32)).astype(np.float64)
        self.planes = (top32 / 2**31 - 1.0).reshape(n_bits, dim)

    def bucket(self, mat: np.ndarray) -> np.ndarray:
        signs = (mat @ self.planes.T) > 0
        return (signs * (1 << np.arange(signs.shape[1]))).sum(axis=1)


def lsh_buckets(
    embeddings: ray.data.Dataset,
    n_bits: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Assign each vector its LSH bucket id (map_batches; the groupby
    on ``bucket`` downstream co-locates candidates)."""
    state = {}

    def assign(batch: pa.Table) -> pa.Table:
        mat = np.stack(batch[vec_col].to_pylist()).astype(np.float64)
        if "lsh" not in state:
            state["lsh"] = SignLSH(mat.shape[1], n_bits, seed)
        buckets = state["lsh"].bucket(_normalize(mat))
        return pa.table(
            {
                id_col: batch[id_col],
                "bucket": pa.array(buckets.tolist(), pa.int64()),
            }
        )

    return embeddings.map_batches(assign, batch_format="pyarrow")


def knn_ivf(
    embeddings: ray.data.Dataset,
    query: Sequence[float],
    k: int = 20,
    n_bits: int = 4,
    n_probe_hamming: int = 1,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Approximate top-k: probe only LSH buckets within
    ``n_probe_hamming`` bits of the query's bucket — the IVF-style
    pruned scan (recall traded for a ~2^bits reduction in work)."""
    q = np.asarray(query, dtype=np.float64)
    qn = q / max(np.linalg.norm(q), 1e-12)
    dim = len(q)
    lsh = SignLSH(dim, n_bits, seed)
    q_bucket = int(lsh.bucket(qn[None, :])[0])
    probe = {
        b
        for b in range(1 << n_bits)
        if bin(b ^ q_bucket).count("1") <= n_probe_hamming
    }
    q_ref = ray.put(qn)

    def score(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist())
        mat = _normalize(np.stack(batch[vec_col].to_pylist()).astype(np.float64))
        buckets = lsh.bucket(mat)
        mask = np.isin(buckets, list(probe))
        ids, mat = ids[mask], mat[mask]
        if len(ids) == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "cosine": pa.array([], pa.float64())}
            )
        sims = mat @ qv
        ids, sims = _topk_det(ids, sims, k)
        return pa.table(
            {
                id_col: pa.array(ids.tolist(), pa.int64()),
                "cosine": pa.array(sims.tolist(), pa.float64()),
            }
        )

    return (
        embeddings.map_batches(score, batch_format="pyarrow")
        .sort(["cosine", id_col], descending=[True, False])
        .limit(k)
    )


def quantize_half_away(mat: np.ndarray, scale: int) -> np.ndarray:
    """``round_half_away(x*scale)`` as int64 — matches SQL round()."""
    s = mat * scale
    return np.trunc(s + np.copysign(0.5, s)).astype(np.int64)


def kmeans_centroids(
    embeddings: ray.data.Dataset,
    k: int = 4,
    iterations: int = 2,
    scale: int = 1000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """Train distributed Lloyd's k-means over a quantized embedding
    column in EXACT integer arithmetic (same trick as stages/graph.py
    pagerank_int) and return the K×D int64 centroid matrix.

    Vectors quantize to ``round_half_away(x*scale)`` int64; init
    centroids are the ``k`` smallest-id vectors; each iteration is one
    broadcast of the K×D centroid table + one (cluster, dim)-keyed
    exchange of per-batch partial sums (≤ K×D rows per batch — never
    the vectors), then a driver-side floor-divide over the ≤ K×D
    aggregate.  Ties in the argmin go to the smallest cluster id;
    empty clusters keep their previous centroid.  Scale shape: the
    corpus streams through assignment ``iterations`` times, all
    exchanges are sketch-sized.

    The input is materialized once up front: every Lloyd iteration
    re-scans the same vectors, so pinning the blocks (spillable) beats
    re-running the upstream read per pass — with 2 iterations that is
    3 scans of one cached copy instead of 3 source re-reads."""
    from ray.data.aggregate import Sum

    embeddings = embeddings.materialize()

    def _quant(mat: np.ndarray) -> np.ndarray:
        return quantize_half_away(mat, scale)

    # init: k smallest ids — per-batch partial top-k, tiny global sort
    def smallest(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_pylist())
        vecs = batch[vec_col].to_pylist()
        order = np.argsort(ids)[:k]
        mats = [vecs[i] for i in order]
        return pa.table(
            {
                id_col: pa.array(ids[order].tolist(), pa.int64()),
                vec_col: pa.array(mats),
            }
        )

    seed_rows = (
        embeddings.map_batches(smallest, batch_format="pyarrow")
        .sort(id_col)
        .limit(k)
        .take_all()
    )
    cent = _quant(np.stack([r[vec_col] for r in seed_rows]).astype(np.float64))

    def make_assign(cent_ref):
        def assign(batch: pa.Table):
            c = ray.get(cent_ref)
            ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
            mat = _quant(
                np.stack(batch[vec_col].to_pylist()).astype(np.float64)
            )
            diff = mat[:, None, :] - c[None, :, :]
            dist = (diff * diff).sum(axis=2)
            cl = dist.argmin(axis=1).astype(np.int64)  # first = smallest id
            return ids, mat, cl

        return assign

    for _ in range(iterations):
        cent_ref = ray.put(cent)
        assign = make_assign(cent_ref)

        def partial(batch: pa.Table) -> pa.Table:
            _, mat, cl = assign(batch)
            kk, dd = cent.shape
            sums = np.zeros((kk, dd), dtype=np.int64)
            np.add.at(sums, cl, mat)
            counts = np.bincount(cl, minlength=kk).astype(np.int64)
            live = counts > 0
            n_live = int(live.sum())
            return pa.table(
                {
                    "cl": pa.array(
                        np.repeat(np.arange(kk)[live], dd), pa.int64()
                    ),
                    "dim": pa.array(np.tile(np.arange(dd), n_live), pa.int64()),
                    "s": pa.array(sums[live].reshape(-1), pa.int64()),
                    "n": pa.array(np.repeat(counts[live], dd), pa.int64()),
                }
            )

        agg = (
            embeddings.map_batches(partial, batch_format="pyarrow")
            .groupby(["cl", "dim"])
            .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
            .take_all()
        )
        new_cent = cent.copy()  # empty cluster keeps its centroid
        for r in agg:
            new_cent[int(r["cl"]), int(r["dim"])] = int(r["s"]) // int(r["n"])
        cent = new_cent

    return cent


def assign_clusters(
    embeddings: ray.data.Dataset,
    cent: np.ndarray,
    scale: int = 1000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    keep_vec: bool = False,
) -> ray.data.Dataset:
    """Assign every vector its nearest trained centroid (integer
    squared distance, tie -> smallest cluster id).  One broadcast of
    the K×D centroid matrix, no shuffle."""
    cent_ref = ray.put(cent)

    def emit(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        mat = quantize_half_away(
            np.stack(batch[vec_col].to_pylist()).astype(np.float64), scale
        )
        diff = mat[:, None, :] - c[None, :, :]
        cl = (diff * diff).sum(axis=2).argmin(axis=1).astype(np.int64)
        cols = {
            id_col: pa.array(ids, pa.int64()),
            "cluster": pa.array(cl, pa.int64()),
        }
        if keep_vec:
            cols[vec_col] = batch[vec_col]
        return pa.table(cols)

    return embeddings.map_batches(emit, batch_format="pyarrow")


def kmeans_int(
    embeddings: ray.data.Dataset,
    k: int = 4,
    iterations: int = 2,
    scale: int = 1000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """(vec_id, cluster) after :func:`kmeans_centroids` training plus
    one final broadcast-assignment pass — bit-identical to the
    unrolled SQL twin (queries.py sql_q_kmeans)."""
    embeddings = embeddings.materialize()  # shared with the training scans
    cent = kmeans_centroids(embeddings, k, iterations, scale, id_col, vec_col)
    return assign_clusters(embeddings, cent, scale, id_col, vec_col)


def knn_ivf_kmeans(
    embeddings: ray.data.Dataset,
    query: Sequence[float],
    k: int = 20,
    n_clusters: int = 4,
    iterations: int = 2,
    n_probe: int = 2,
    scale: int = 1000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """IVF with TRAINED partitions: k-means-cluster the corpus
    (integer-exact, :func:`kmeans_centroids`), rank centroids by
    integer squared distance to the quantized query, and scan only the
    ``n_probe`` nearest clusters with exact cosine — the classic
    IVF-Flat trade (recall vs a ~n_clusters/n_probe scan reduction).
    Returns exact cosine top-k within the probed partitions;
    deterministic tie-breaks everywhere (centroid ties -> smaller
    cluster id, result ties -> smaller vec_id)."""
    embeddings = embeddings.materialize()  # shared with the training scans
    cent = kmeans_centroids(
        embeddings, n_clusters, iterations, scale, id_col, vec_col
    )
    q = np.asarray(query, dtype=np.float64)
    qi = quantize_half_away(q, scale)
    d = ((cent - qi[None, :]) ** 2).sum(axis=1)
    probe = set(np.lexsort((np.arange(len(d)), d))[:n_probe].tolist())
    qn = q / max(np.linalg.norm(q), 1e-12)
    cent_ref = ray.put(cent)
    q_ref = ray.put(qn)

    def score(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        qv = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        raw = np.stack(batch[vec_col].to_pylist()).astype(np.float64)
        mat_i = quantize_half_away(raw, scale)
        diff = mat_i[:, None, :] - c[None, :, :]
        cl = (diff * diff).sum(axis=2).argmin(axis=1)
        mask = np.isin(cl, list(probe))
        ids, raw = ids[mask], raw[mask]
        if len(ids) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        sims = _normalize(raw) @ qv
        ids, sims = _topk_det(ids, sims, k)
        return pa.table(
            {
                id_col: pa.array(ids.tolist(), pa.int64()),
                "cosine": pa.array(sims.tolist(), pa.float64()),
            }
        )

    return (
        embeddings.map_batches(score, batch_format="pyarrow")
        .sort(["cosine", id_col], descending=[True, False])
        .limit(k)
    )
