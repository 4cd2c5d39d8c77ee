"""THE storage interface — every durable-table touchpoint goes
through one backend object so the parquet stand-in can be swapped for
Lance in one place (north_rule names Lance; the ``lance`` package is
not installed in this environment, so the default backend is
parquet-on-directories with identical semantics).

Touchpoints routed through here:

- the bucketed frontier (``state/frontier.py``): per-bucket
  candidate files written by state-shard / fetch / driver producers,
  which the crawl checkpoints (``state/checkpoint.py``) reference;
- the hash-partitioned doc store (``sources/doc_store.py``): per-
  partition page tables.

The Lance mapping (used when ``lance`` IS importable and
``ECC_STORAGE_BACKEND=lance``): ``write_table`` ->
``lance.write_dataset(table, path, mode="overwrite")`` (one versioned
dataset per logical file; overwrite-on-retry becomes a new version
instead of a file replace, strictly safer), ``read_table`` ->
``lance.dataset(path).to_table(columns=...)``, ``list_tables`` ->
directory listing of ``.lance`` datasets.  Ray-Data-level sinks
(``Dataset.write_parquet``) map to ``Dataset.write_lance`` the same
way; those call sites are the pipelines' terminal writes and are
named in README.md.
"""

from __future__ import annotations

import glob as _glob
import os
from typing import List, Optional

import pyarrow as pa
import pyarrow.parquet as pq


class ParquetStore:
    """Default backend: one parquet file per logical table."""

    suffix = ".parquet"

    def write_table(self, table: pa.Table, path: str) -> None:
        # write-to-temp + atomic rename: a task cancelled mid-write (Ray
        # retry, a cancelled limit execution, preemption) must never
        # leave a truncated file at the final name — readers of bucket
        # dirs glob ``*.parquet`` and would trip on a 0-byte file
        tmp = f"{path}.tmp{os.getpid()}"
        pq.write_table(table, tmp)
        os.replace(tmp, path)

    def read_table(self, path: str, columns: Optional[List[str]] = None) -> pa.Table:
        # one file, no dataset discovery, no Arrow thread pool: the
        # crawl's readers (fetch-side tasks, state shards) already run
        # side by side, one core each, and on the KB-sized frontier
        # files a round reads this is ~3x faster than pq.read_table
        with pq.ParquetFile(path) as f:
            return f.read(columns=columns, use_threads=False)

    def list_tables(self, pattern: str) -> List[str]:
        """Glob logical tables (pattern WITHOUT suffix)."""
        return sorted(_glob.glob(pattern + self.suffix))


class LanceStore:  # pragma: no cover — lance not installed in sandbox
    """Lance backend: one versioned Lance dataset per logical table."""

    suffix = ".lance"

    def __init__(self):
        import lance  # noqa: F401 — raises if unavailable

        self._lance = lance

    def write_table(self, table: pa.Table, path: str) -> None:
        self._lance.write_dataset(table, path, mode="overwrite")

    def read_table(self, path: str, columns: Optional[List[str]] = None) -> pa.Table:
        return self._lance.dataset(path).to_table(columns=columns)

    def list_tables(self, pattern: str) -> List[str]:
        return sorted(_glob.glob(pattern + self.suffix))


_STORE = None


def get_store():
    """Process-wide backend singleton, selected by
    ``ECC_STORAGE_BACKEND`` (``parquet`` default; ``lance`` when the
    package exists)."""
    global _STORE
    if _STORE is None:
        backend = os.environ.get("ECC_STORAGE_BACKEND", "parquet")
        _STORE = LanceStore() if backend == "lance" else ParquetStore()
    return _STORE
