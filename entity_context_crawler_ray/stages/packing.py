"""Sequence packing for LLM training-data preparation: assign every
document to a fixed-capacity token bin along a deterministic global
order, using a DISTRIBUTED PREFIX SCAN — no sort on the rank itself
and no stage ever holds more than one rank-partition of rows.

The pattern (two-pass exclusive prefix sum) is the classic scan
decomposition: partition the key space by the TOP BITS of a
deterministic md5 rank (so partitions are ordered by construction),
reduce each partition to one (partition, sum) row, cumsum those ≤
``num_parts`` rows on the driver into per-partition exclusive
offsets, then finish each partition independently with its offset.
At 100 TB the only driver-side state is ``num_parts`` scalars and the
only exchange is the partition-keyed ``by_key`` (a sort on the
partition id).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .exchange import by_key, run_starts, seg_cumsum, seg_ids
from .stats import _sample_u64_vec


def pack_sequences(
    ds: ray.data.Dataset,
    id_col: str,
    count_col: str,
    capacity: int,
    salt: str = "pack",
    num_parts: int = 256,
) -> ray.data.Dataset:
    """Assign each row a ``bin`` = which fixed-``capacity`` training
    sequence it lands in when documents are laid out end-to-end in
    the deterministic global order ``(md5_rank(id), id)``: bin =
    (exclusive running sum of ``count_col``) // capacity — i.e. SQL's
    ``(sum(count) OVER (ORDER BY rk, id ROWS UNBOUNDED PRECEDING) -
    count) // capacity``.

    Documents longer than ``capacity`` simply span bins (fixed-
    boundary packing); the order is partition- and block-layout-
    independent because rank derives from the id, not from position.
    """
    if num_parts < 1 or num_parts > 1 << 16:
        raise ValueError("num_parts must be in [1, 65536]")
    shift = 64 - max(1, (num_parts - 1).bit_length()) if num_parts > 1 else 64

    def rank(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        rk = _sample_u64_vec(ids, salt)
        part = (rk >> np.uint64(shift)).astype(np.int64) if num_parts > 1 else (
            np.zeros(len(ids), dtype=np.int64)
        )
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": pc.cast(batch[count_col], pa.int64()),
                "rk": pa.array(rk, pa.uint64()),
                "part": pa.array(part, pa.int64()),
            }
        )

    ranked = ds.map_batches(rank, batch_format="pyarrow")

    # Pass 1: one (part, sum) row per rank partition -> exclusive
    # offsets on the driver (<= num_parts rows, bounded by config).
    from ray.data.aggregate import Sum

    part_sums = (
        ranked.select_columns(["part", "n_tokens"])
        .groupby("part")
        .aggregate(Sum("n_tokens", alias_name="part_total"))
        .to_pandas()
    )
    totals = np.zeros(num_parts, dtype=np.int64)
    totals[part_sums["part"].to_numpy()] = part_sums["part_total"].to_numpy()
    offsets_ref = ray.put(np.cumsum(totals) - totals)

    # Pass 2: each partition finishes independently with its offset.
    def finish(t: pa.Table) -> pa.Table:
        starts = run_starts(t["part"])
        seg = seg_ids(starts, t.num_rows)
        order = np.lexsort((t[id_col].to_numpy(), t["rk"].to_numpy(), seg))
        n = t["n_tokens"].to_numpy()[order]
        part = t["part"].to_numpy()[order]
        prev = ray.get(offsets_ref)[part] + seg_cumsum(n, starts) - n
        return pa.table(
            {
                id_col: t[id_col].take(order),
                "n_tokens": n,
                "bin": prev // capacity,
            }
        )

    return by_key(ranked, "part", finish)


# --- Chunking (the step BEFORE packing in a training-data pipeline) --------

_WORD_RE = __import__("re").compile(r"[a-z0-9_]+")


def chunk_documents(
    documents: ray.data.Dataset,
    chunk_tokens: int = 50,
    overlap: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Fixed-size token chunking with overlap — split every doc into
    windows of ``chunk_tokens`` tokens advancing by
    ``chunk_tokens - overlap`` (the long-context training-prep
    shape).  Pure ``map_batches`` (chunk boundaries are per-doc
    local, zero exchange); emits (doc_id, chunk_id, chunk_text,
    n_tokens).  Chunk count = 1 if m <= chunk_tokens else
    1 + ceil((m - chunk_tokens) / step) — pure integer arithmetic,
    identical in the SQL twin.  Docs with zero tokens emit no rows
    (both engines agree)."""
    if not 0 <= overlap < chunk_tokens:
        raise ValueError("need 0 <= overlap < chunk_tokens")
    step = chunk_tokens - overlap

    def chunk(t: pa.Table) -> pa.Table:
        out_id, out_cid, out_text, out_n = [], [], [], []
        for d, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = _WORD_RE.findall(txt.lower())
            m = len(toks)
            if m == 0:
                continue
            n_chunks = (
                1 if m <= chunk_tokens
                else 1 + (m - chunk_tokens + step - 1) // step
            )
            for i in range(n_chunks):
                s = i * step
                piece = toks[s : s + chunk_tokens]
                out_id.append(d)
                out_cid.append(i)
                out_text.append(" ".join(piece))
                out_n.append(len(piece))
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "chunk_id": pa.array(out_cid, pa.int64()),
                "chunk_text": pa.array(out_text, pa.string()),
                "n_tokens": pa.array(out_n, pa.int64()),
            }
        )

    return documents.map_batches(chunk, batch_format="pyarrow")


def cdc_chunks(
    documents: ray.data.Dataset,
    w: int = 4,
    mask_bits: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Content-defined chunking (the FastCDC/Rabin shape on tokens):
    a chunk boundary falls AFTER token position p (p >= w-1) when
    md5_u64 of the w-token window ending at p is divisible by
    2^mask_bits — so an insertion reshuffles only its local chunk
    boundaries, never the rest of the doc (the property that makes
    CDC chunks dedup-friendly across near-identical docs).  Emits
    (doc_id, chunk_id, tok_start, tok_end, chunk_key) with tok_end
    exclusive and chunk_key = md5-u64 hex of the chunk's token join —
    the column an exact-dedup pass keys on.  Pure map_batches: one
    vectorized MD5 call hashes all of a block's windows (each doc
    slices its own out by offset), one more all of its chunk keys."""
    from ..functions.hashing import md5_u64

    mask = np.uint64((1 << mask_bits) - 1)

    def chunk(t: pa.Table) -> pa.Table:
        docs, windows = [], []          # (doc, tokens, first window)
        for d, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = _WORD_RE.findall(txt.lower())
            if toks:
                docs.append((d, toks, len(windows)))
                windows.extend(
                    " ".join(toks[j : j + w]) for j in range(len(toks) - w + 1)
                )
        h = md5_u64(windows)
        out_id, out_cid, out_s, out_e, keys = [], [], [], [], []
        for d, toks, at in docs:
            m = len(toks)
            # boundary after position p = (w-1) + idx where the window
            # hash has its low mask_bits zero; the last position never
            # opens an empty trailing chunk
            hd = h[at : at + max(m - w + 1, 0)]
            bpos = np.flatnonzero((hd & mask) == 0) + (w - 1)
            cuts = [0] + [p + 1 for p in bpos.tolist() if p < m - 1] + [m]
            for cid, (s, e) in enumerate(zip(cuts, cuts[1:])):
                out_id.append(d)
                out_cid.append(cid)
                out_s.append(s)
                out_e.append(e)
                keys.append(" ".join(toks[s:e]))
        out_k = [f"{k:016x}" for k in md5_u64(keys).tolist()]
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "chunk_id": pa.array(out_cid, pa.int64()),
                "tok_start": pa.array(out_s, pa.int64()),
                "tok_end": pa.array(out_e, pa.int64()),
                "chunk_key": pa.array(out_k, pa.string()),
            }
        )

    return documents.map_batches(chunk, batch_format="pyarrow")
