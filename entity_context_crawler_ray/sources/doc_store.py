"""Hash-partitioned doc store — the crawl's "web".

The reference reads a dump in file order (util/wikipedia.py:4-77); the
rebuild's fetch stage instead looks pages up by normalized title
(doc_id) in a doc store standing in for the web (SURVEY.md §3.4
"fetch" row).  Layout: ``store_dir/part=P/part.parquet`` with
``P = hash(doc_id) % num_partitions`` — a fetch batch touches only the
partitions its doc_ids hash into (partition pruning by key), and each
fetch actor caches the partitions it has read (at 10^10 scale the
cache is an LRU over Lance fragments; here whole partitions at sandbox
scale)."""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..functions.hashing import stable_hash64

DEFAULT_PARTITIONS = 32


def doc_partition(doc_id: str, num_partitions: int) -> int:
    return stable_hash64("docstore", doc_id) % num_partitions


def _check_partition(doc_ids: List[str], part: int, num_partitions: int) -> None:
    """Refuse a partition whose docs ``doc_partition`` sends elsewhere: a
    store written under another partition hash or count would otherwise
    make every lookup miss silently.  Sampling a few ids suffices, since
    a foreign layout misplaces each id with probability 1 - 1/N."""
    for d in doc_ids[:8]:
        if doc_partition(d, num_partitions) != part:
            raise ValueError(
                f"doc store partition {part} holds {d!r}, which belongs to "
                f"partition {doc_partition(d, num_partitions)} of {num_partitions}: "
                "the store was written with another partition hash or count; "
                "rewrite it with write_doc_store"
            )


def write_doc_store(
    docs: ray.data.Dataset, store_dir: str, num_partitions: int = DEFAULT_PARTITIONS
) -> None:
    """Partition docs by hash(doc_id) and write one dir per partition.

    Uses a shuffle repartition keyed on the partition id so each output
    file holds exactly one key range — the layout fetches prune on."""

    def add_part(batch: pa.Table) -> pa.Table:
        parts = pa.array(
            [doc_partition(d, num_partitions) for d in batch["doc_id"].to_pylist()],
            pa.int32(),
        )
        return batch.append_column("part", parts)

    # write to a temp dir + atomic rename so an interrupted build never
    # masquerades as a complete store
    import shutil

    tmp_dir = store_dir.rstrip("/") + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    with_part = docs.map_batches(add_part, batch_format="pyarrow")
    with_part.write_parquet(tmp_dir, partition_cols=["part"])
    shutil.rmtree(store_dir, ignore_errors=True)
    os.rename(tmp_dir, store_dir)


class DocStoreReader:
    """Batched point-lookup over the partitioned store (used inside
    fetch actors; one instance per actor, partitions cached)."""

    def __init__(self, store_dir: str, num_partitions: int = DEFAULT_PARTITIONS):
        self.store_dir = store_dir
        self.num_partitions = num_partitions
        # part -> (arrow spans column, {doc_id: row index}); rows stay
        # Arrow until actually fetched — conversion cost is then
        # proportional to fetched docs, not partition size
        self._cache: Dict[int, Tuple[pa.ChunkedArray, Dict[str, int]]] = {}

    def _partition_index(self, part: int):
        if part not in self._cache:
            path = os.path.join(self.store_dir, f"part={part}")
            if os.path.isdir(path):
                table = pq.read_table(path, columns=["doc_id", "spans"])
                ids = table["doc_id"].to_pylist()
                _check_partition(ids, part, self.num_partitions)
                row_of = {d: i for i, d in enumerate(ids)}
                self._cache[part] = (table["spans"].combine_chunks(), row_of)
            else:
                self._cache[part] = (None, {})
        return self._cache[part]

    def lookup_arrow(self, doc_ids: List[str]):
        """-> (found_ids, spans ListArray aligned with found_ids,
        missing ids).  The spans stay Arrow end to end — the fetch
        stage decomposes them columnarly (stages.match.SpanColumns)
        instead of materializing a dict per span."""
        found: List[str] = []
        missing: List[str] = []
        chunks: List[pa.Array] = []
        by_part: Dict[int, List[str]] = {}
        for d in doc_ids:
            by_part.setdefault(doc_partition(d, self.num_partitions), []).append(d)
        for part, ds in by_part.items():
            spans_col, row_of = self._partition_index(part)
            rows = []
            for d in ds:
                row = row_of.get(d)
                if row is None:
                    missing.append(d)
                else:
                    found.append(d)
                    rows.append(row)
            if rows:
                taken = spans_col.take(rows)
                if isinstance(taken, pa.ChunkedArray):
                    chunks.extend(taken.chunks)
                else:
                    chunks.append(taken)
        spans = pa.concat_arrays(chunks) if chunks else None
        return found, spans, missing

    def lookup(self, doc_ids: List[str]) -> Tuple[Dict[str, list], List[str]]:
        """-> ({doc_id: spans} for hits, [missing doc_ids]).

        Rows are gathered per partition with one vectorized
        ``take`` + ``to_pylist`` (an order of magnitude cheaper than
        per-row ``__getitem__().as_py()``)."""
        hits: Dict[str, list] = {}
        missing: List[str] = []
        by_part: Dict[int, List[str]] = {}
        for d in doc_ids:
            by_part.setdefault(doc_partition(d, self.num_partitions), []).append(d)
        for part, ds in by_part.items():
            spans_col, row_of = self._partition_index(part)
            found, rows = [], []
            for d in ds:
                row = row_of.get(d)
                if row is None:
                    missing.append(d)
                else:
                    found.append(d)
                    rows.append(row)
            if rows:
                taken = spans_col.take(rows).to_pylist()
                hits.update(zip(found, taken))
        return hits, missing


def preload_doc_store(store_dir: str, num_partitions: int) -> Dict[int, object]:
    """Load every partition into the object store ONCE (one Ray task
    per partition) and return {partition: ObjectRef((spans_col,
    doc_id->row))}.  Fetch workers then map the Arrow spans column
    zero-copy from plasma instead of each re-parsing parquet — the
    per-worker store cost drops from O(corpus) to O(fetched rows).
    On a multi-node cluster the same refs resolve via the distributed
    object store (one copy per node, not per worker)."""

    @ray.remote
    def load(part: int):
        path = os.path.join(store_dir, f"part={part}")
        if not os.path.isdir(path):
            return None, {}
        table = pq.read_table(path, columns=["doc_id", "spans"])
        ids = table["doc_id"].to_pylist()
        _check_partition(ids, part, num_partitions)
        return table["spans"].combine_chunks(), {d: i for i, d in enumerate(ids)}

    return {p: load.remote(p) for p in range(num_partitions)}


class PlasmaDocStoreReader:
    """DocStoreReader over preloaded plasma partitions (zero-copy)."""

    def __init__(self, refs: Dict[int, object], num_partitions: int):
        self.refs = refs
        self.num_partitions = num_partitions
        self._cache: Dict[int, Tuple[pa.ChunkedArray, Dict[str, int]]] = {}

    def _partition_index(self, part: int):
        if part not in self._cache:
            self._cache[part] = ray.get(self.refs[part])
        return self._cache[part]

    lookup = DocStoreReader.lookup
    lookup_arrow = DocStoreReader.lookup_arrow
