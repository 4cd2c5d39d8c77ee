"""Pipeline: combined matches store + entities + id_map -> contexts.

Rebuild of ``ecc build-contexts-db`` (reference
cmd/build_contexts_db.py:158-236).  The reference runs this stage as a
single serial Python loop over entities; here it is a two-stage Ray
Data pipeline:

1. **window**: map_batches over the combined store — each row already
   co-locates a page's text with its matches, so the reference's
   pages⋈matches shuffle join (dao/matches_db.py:183-193) is elided;
   the ±size window (SQLite SUBSTR clamping, functions.text.sql_window)
   is cut immediately and the wide ``clean_text`` column is dropped
   before anything shuffles (SURVEY.md §7.5(3)).
2. **per-entity co-group**: the distinct (entity_id, mention) pairs
   are tagged into the windows schema (window IS NULL) and unioned
   into one ``exchange.by_key`` on entity_id — the reference's
   entity ⋈ mentions join (cmd/build_contexts_db.py:215-218) runs as
   a co-group, with no driver-side collection that grows with the
   corpus.  One Arrow kernel per partition walks its entities: the
   deterministic sample of ≤K windows, a per-entity PhraseMatcher
   from {label} ∪ mentions, crop (token or sentence mode),
   strict-span pruning + '#' masking, rid lookup.

Determinism: the reference's sampling depends on global ``random``
state threaded through a serially-shuffled entity loop
(cmd/build_contexts_db.py:188-212); the rebuild derives a stable rank
per context row — rank = the top 64 bits of md5(seed, entity, page,
start_char, mention) — so the sampled set is independent of
partitioning and iteration order (SURVEY.md §4), and DuckDB recomputes
it: the sampled contexts are oracle-checked end to end
(``sql_ecc_contexts``).  Hot-entity skew: when K is set, each
input batch pre-keeps only the K smallest ranks per entity (the global
K smallest is a subset of per-batch K smallest), so no entity group
ever exceeds K×num_batches rows in the shuffle — and the kept set is
exactly correct, not approximate.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.broadcast import cached, ref_id
from ..functions.hashing import stable_hash64
from ..functions.matcher import PhraseMatcher
from ..functions.text import (
    crop_sentences_mode,
    crop_tokens,
    mask_context,
    sql_window,
)
from ..stages.exchange import by_key, run_starts, seg_ids
from ..stages.relational import broadcast_semi_join

CONTEXTS_SCHEMA = pa.schema(
    [
        ("entity", pa.int64()),
        ("entity_label", pa.string()),
        ("mention", pa.string()),
        ("page_title", pa.string()),
        ("context", pa.string()),
        ("masked_context", pa.string()),
    ]
)

_WINDOW_COLS = ["entity_id", "mention", "page_title", "window", "rank"]


class WindowMatches:
    """Combined rows -> one row per match with its ±size window.

    Stateless map_batches task: nested matches are exploded in Python
    (each row is heavy — full page text — so per-row work dominates),
    and the output carries only narrow columns.  With a limit, only
    the K smallest ranks per entity leave the batch."""

    def __init__(self, context_size: int, seed: int, limit_contexts: Optional[int]):
        self.size = context_size
        self.seed = seed
        self.limit = limit_contexts

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {c: [] for c in _WINDOW_COLS}
        titles = batch["title"].to_pylist()
        texts = batch["clean_text"].to_pylist()
        matches_col = batch["matches"].to_pylist()
        for title, text, matches in zip(titles, texts, matches_col):
            for m in matches:
                out["entity_id"].append(m["entity_id"])
                out["mention"].append(m["mention"])
                out["page_title"].append(title)
                out["window"].append(
                    sql_window(text, m["start_char"], m["end_char"], self.size)
                )
                # per-row hashlib md5: on these two-block keys it beat
                # one md5_u64 call per batch at every batch size tried
                out["rank"].append(
                    stable_hash64(
                        "ctx-sample",
                        self.seed,
                        m["entity_id"],
                        title,
                        m["start_char"],
                        m["mention"],
                    )
                )
        t = pa.table(
            {
                "entity_id": pa.array(out["entity_id"], pa.string()),
                "mention": pa.array(out["mention"], pa.string()),
                "page_title": pa.array(out["page_title"], pa.string()),
                "window": pa.array(out["window"], pa.string()),
                "rank": pa.array(out["rank"], pa.uint64()),
            }
        )
        if self.limit is not None and t.num_rows:
            # partial top-K combiner: keep K smallest ranks per entity
            t = t.sort_by([("entity_id", "ascending"), ("rank", "ascending")])
            starts = run_starts(t["entity_id"])
            pos = np.arange(t.num_rows) - starts[seg_ids(starts, t.num_rows)]
            t = t.filter(pos < self.limit)
        return t


def _pattern_rows(t: pa.Table) -> pa.Table:
    """Tag distinct (entity_id, mention) pairs as pattern rows in the
    windows schema: ``window`` is NULL, the discriminator the per-entity
    kernel splits on."""
    n = t.num_rows
    return pa.table(
        {
            "entity_id": t["entity_id"].cast(pa.string()),
            "mention": t["mention"].cast(pa.string()),
            "page_title": pa.nulls(n, pa.string()),
            "window": pa.nulls(n, pa.string()),
            "rank": pa.nulls(n, pa.uint64()),
        }
    )


def _entity_kernel(eid_ref, crop_sentences: bool, limit_contexts: Optional[int]):
    def entity_contexts(t: pa.Table) -> pa.Table:
        eid_info: Dict[str, tuple] = cached(
            ("contexts-lookup", ref_id(eid_ref)), lambda: ray.get(eid_ref)
        )
        # rank order within each entity: the deterministic sample of ≤K
        # (reference shuffle + head, cmd/build_contexts_db.py:210-212)
        t = t.sort_by([("entity_id", "ascending"), ("rank", "ascending")])
        eids, mentions, titles, windows = (
            t[c].to_pylist() for c in ("entity_id", "mention", "page_title", "window")
        )
        bounds = run_starts(t["entity_id"]).tolist() + [t.num_rows]
        rows = []
        for s, e in zip(bounds, bounds[1:]):
            picked = [i for i in range(s, e) if windows[i] is not None][:limit_contexts]
            if not picked:
                continue
            rid, label = eid_info[eids[s]]
            # per-entity matcher: {label} ∪ the co-grouped pattern rows'
            # mentions (reference cmd/build_contexts_db.py:215-218)
            matcher = PhraseMatcher(
                {label} | {mentions[i] for i in range(s, e) if windows[i] is None}
            )
            for i in picked:
                # crop (reference :239-300); empty crops drop
                if crop_sentences:
                    cropped = crop_sentences_mode(windows[i], matcher)
                else:
                    cropped = crop_tokens(windows[i])
                if not cropped:
                    continue
                # mask (reference :303-354); spanless contexts drop
                masked = mask_context(cropped, matcher)
                if masked is not None:
                    rows.append((rid, label, mentions[i], titles[i], cropped, masked))
        if not rows:
            return CONTEXTS_SCHEMA.empty_table()
        return pa.Table.from_arrays(
            [pa.array(c, f.type) for c, f in zip(zip(*rows), CONTEXTS_SCHEMA)],
            schema=CONTEXTS_SCHEMA,
        )

    return entity_contexts


def reference_shuffle_selection(
    entity_ids_in_file_order: list,
    in_id_map: set,
    has_page: set,
    limit_entities: int,
    seed,
) -> set:
    """Bit-compatible reproduction of the reference's --limit-entities
    walk: global rng seeded with the raw seed STRING
    (reference __main__.py:65-66), ``random.shuffle`` of the entity
    items in file order (cmd/build_contexts_db.py:188-189), id_map
    skip BEFORE the stop check (:193-194), early stop on enumerate
    index EQUALITY (:197-199 — a skipped boundary index disables it,
    faithfully reproduced), empty-URL skip after (:201-204)."""
    import random as _random

    items = list(entity_ids_in_file_order)
    rnd = _random.Random()
    rnd.seed(str(seed))
    rnd.shuffle(items)
    allowed = set()
    for entity_count, eid in enumerate(items):
        if eid not in in_id_map:
            continue
        if limit_entities and entity_count == limit_entities:
            break
        if eid in has_page:
            allowed.add(eid)
    return allowed


def build_contexts(
    combined: ray.data.Dataset,
    entities: pa.Table,
    id_map: pa.Table,
    mentions,
    *,
    context_size: int = 100,
    crop_sentences: bool = False,
    limit_contexts: Optional[int] = None,
    limit_entities: Optional[int] = None,
    seed: int = 42,
    order_mode: str = "stable-hash",
) -> ray.data.Dataset:
    """combined store (or a (title, clean_text, matches) projection of
    it) -> contexts Dataset (lazy).

    ``mentions``: the distinct (entity_id, mention) pairs — a
    ``ray.data.Dataset`` (e.g. ``mentions_view(combined)``), a
    ``pa.Table``, or a legacy ``{entity_id: [mention, ...]}`` dict.
    The pairs are co-grouped with the context windows on
    ``entity_id`` (tagged union into the same keyed exchange) — the per-
    entity pattern sets are never materialized on the driver, so no
    state here grows with the corpus (SURVEY.md §2.4 J5).

    ``order_mode`` governs which entities --limit-entities keeps:

    - 'stable-hash' (default): first N by seeded stable hash —
      partition/iteration-order independent (SURVEY.md §4).
    - 'reference-shuffle': bit-compatible with the reference's
      ``random.seed(str) + random.shuffle(entities-in-file-order)``
      walk (cmd/build_contexts_db.py:188-204), INCLUDING its quirks:
      the early-stop compares the enumerate index — counting id_map
      misses — for exact equality, so a skipped boundary index
      disables the stop; empty-URL entities consume a slot after the
      stop check.  Per-entity CONTEXT sampling stays seeded-stable in
      both modes: the reference shuffles context rows drawn in
      matches-db insertion order, which its own process pool makes
      nondeterministic (cmd/build_matches_db.py:162-163), so there is
      no reference bit-stream to match."""
    if order_mode not in ("stable-hash", "reference-shuffle"):
        raise ValueError(
            f"order_mode must be 'stable-hash' or 'reference-shuffle', got {order_mode!r}"
        )
    # eligible entities: in id_map (semi-join drop, reference :193-194)
    # with a non-empty page_title (empty-URL skip, reference :201-204)
    rid_of = dict(
        zip(id_map["entity_id"].to_pylist(), id_map["rid"].to_pylist())
    )
    eid_info: Dict[str, tuple] = {}
    for eid, label, title in zip(
        entities["entity_id"].to_pylist(),
        entities["label"].to_pylist(),
        entities["page_title"].to_pylist(),
    ):
        if title and eid in rid_of:
            eid_info[eid] = (rid_of[eid], label)

    allowed = None
    if limit_entities is not None:
        if order_mode == "reference-shuffle":
            allowed = reference_shuffle_selection(
                entities["entity_id"].to_pylist(),
                set(rid_of),
                set(eid_info),
                limit_entities,
                seed,
            )
        else:
            # first N eligible entities in seeded stable-hash order
            # (conformance definition per SURVEY.md §4: independent of
            # partitioning and iteration order)
            ordered = sorted(
                eid_info, key=lambda e: stable_hash64("entity-order", seed, e)
            )
            allowed = set(ordered[:limit_entities])

    eligible = set(eid_info) if allowed is None else allowed

    # normalize the mentions side to a Dataset of (entity_id, mention)
    if isinstance(mentions, dict):
        eids, ms = [], []
        for e, lst in mentions.items():
            for m in lst:
                eids.append(e)
                ms.append(m)
        mentions = pa.table(
            {
                "entity_id": pa.array(eids, pa.string()),
                "mention": pa.array(ms, pa.string()),
            }
        )
    if isinstance(mentions, pa.Table):
        mentions = ray.data.from_arrow(mentions)
    pattern_ds = mentions.map_batches(
        _pattern_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    windows = combined.map_batches(
        WindowMatches(context_size, seed, limit_contexts),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    combined_rows = broadcast_semi_join(windows, eligible, "entity_id").union(
        broadcast_semi_join(pattern_ds, eligible, "entity_id")
    )
    return by_key(
        combined_rows,
        "entity_id",
        _entity_kernel(ray.put(eid_info), crop_sentences, limit_contexts),
    )


def context_stats(contexts: ray.data.Dataset) -> ray.data.Dataset:
    """Per-entity context counts — the reference's CSV sidecar
    (cmd/build_contexts_db.py:234-236), as a grouped count."""
    from ray.data.aggregate import Count

    return contexts.groupby("entity_label").aggregate(Count(alias_name="n_contexts"))
