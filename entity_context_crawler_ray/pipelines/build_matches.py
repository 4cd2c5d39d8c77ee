"""Pipeline: docs + entities -> combined matches store
(pages ⊎ nested matches/mentions), and the exploded table views.

Rebuild of ``ecc build-matches-db`` (reference
cmd/build_matches_db.py:144-186).  The reference funnels every insert
through one SQLite connection in the main process; here each task
writes its own partitioned parquet and the "tables" are column-pruned
reads of the combined store — the matches view reads ONLY
(title, matches), never the wide ``clean_text`` column.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..sources.docs import entities_index
from ..stages.match import PageProcessor


def build_matches(
    docs: ray.data.Dataset,
    entities: pa.Table,
    *,
    batch_size: int = 64,
    tokenizer: str = "spec",
) -> ray.data.Dataset:
    """docs -> combined rows (lazy).  Entity indexes are broadcast via
    ``ray.put`` once; ``PageProcessor`` runs as tasks that load them
    once per worker process, so no actor pool starts per call and the
    stage fuses with the read feeding it.  ``tokenizer='spacy'`` plugs
    a real spaCy pipeline into the workers (conformance comparison;
    requires the package)."""
    ref = ray.put(entities_index(entities))
    return docs.map_batches(
        PageProcessor(ref, tokenizer),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def write_store(combined: ray.data.Dataset, out_dir: str) -> None:
    """Persist the combined store as partitioned parquet (many part
    files — resumable unit is the part file; SURVEY.md §4 checkpoint
    row)."""
    combined.write_parquet(out_dir)


def read_store(store_dir: str, columns: Optional[list] = None) -> ray.data.Dataset:
    return ray.data.read_parquet(store_dir, columns=columns)


# --- exploded table views (vectorized, zero-copy Arrow) -------------------


def _explode(batch: pa.Table, list_col: str, parent_cols: list) -> pa.Table:
    """Explode one list<struct> column, repeating parent columns.
    Vectorized via list_parent_indices + flatten (no Python row loop)."""
    col = batch[list_col].combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    parent_idx = pc.list_parent_indices(col)
    flat = pc.list_flatten(col)
    arrays = [pc.take(batch[c], parent_idx) for c in parent_cols]
    names = list(parent_cols)
    for field in flat.type:
        arrays.append(pc.struct_field(flat, field.name))
        names.append(field.name)
    return pa.table(dict(zip(names, arrays)))


def pages_view(combined: ray.data.Dataset) -> ray.data.Dataset:
    """pages table (reference dao/matches_db.py:29-44): title,
    clean_text + 7 stats columns; error rows excluded."""
    cols = [
        "title",
        "clean_text",
        "link_count",
        "entity_link_count",
        "mention_count",
        "unique_mention_count",
        "text_len",
        "clean_text_len",
        "match_count",
    ]
    return combined.map_batches(
        lambda t: t.filter(pc.equal(t["error"], "")).select(cols),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def matches_view(combined: ray.data.Dataset) -> ray.data.Dataset:
    """matches table (reference dao/matches_db.py:81-94); naturally
    unique on the PK (entity_id, page, start_char, mention) because the
    matcher emits distinct spans per page."""

    def explode(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["error"], "")).select(["title", "matches"])
        out = _explode(t, "matches", ["title"])
        return out.rename_columns(
            ["page", "entity_id", "entity_label", "mention", "start_char", "end_char", "context"]
        )

    return combined.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def errors_view(combined: ray.data.Dataset) -> ray.data.Dataset:
    """The errors side-output (M14, reference
    cmd/build_matches_db.py:319-320 / :167-169): pages whose processing
    raised (or whose fetch missed) — carried as data, not failures."""
    return combined.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t["error"], ""))).select(
            ["title", "error"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _explode_dedup_mentions(t: pa.Table) -> pa.Table:
    """Per-batch partial dedup combiner for the mentions explode."""
    t = t.filter(pc.equal(t["error"], "")).select(["mentions"])
    out = _explode(t, "mentions", [])
    return out.group_by(["entity_id", "mention"]).aggregate(
        [("entity_label", "min")]
    ).rename_columns(["entity_id", "mention", "entity_label"])


def mentions_view(combined: ray.data.Dataset) -> ray.data.Dataset:
    """mentions table with exact dedup on (entity_id, mention)
    (reference UNIQUE constraint dao/matches_db.py:131).  Partial dedup
    per batch first (combiner), then ONE global hash aggregate — the
    shuffle moves only pre-deduped keys and the dedup itself is a
    vectorized Min, not a per-group Python call."""
    from ray.data.aggregate import Min

    exploded = combined.map_batches(
        _explode_dedup_mentions, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        exploded.groupby(["entity_id", "mention"])
        .aggregate(Min("entity_label", alias_name="entity_label"))
        .select_columns(["entity_id", "entity_label", "mention"])
    )


def mentions_pairs_view(combined: ray.data.Dataset) -> ray.data.Dataset:
    """(entity_id, mention) pairs with PER-BATCH dedup only — the
    input build_contexts' co-group needs: the per-entity pattern SET
    collapses residual duplicates inside the group, so paying a global
    dedup shuffle first is pure overhead (the exact-deduped table view
    remains ``mentions_view``)."""
    return combined.map_batches(
        _explode_dedup_mentions, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["entity_id", "mention"])
