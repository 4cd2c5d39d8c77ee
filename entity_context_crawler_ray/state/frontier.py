"""The storage-resident crawl frontier: its row schemas and its
bucketed file layout.

The frontier between rounds is NOT driver state: it is a directory of
per-bucket parquet files (``out_dir/frontier/round=r/bucket=b/*``),
one bucket per state shard: bucket ``b`` holds the hosts whose
politeness and seen-filter state shard ``b`` owns
(``politeness_shard_of``).  Whoever produces candidates — the state
shards (deferrals), the fetch tasks (out-link partials) and the driver
(global-budget spill) — writes them into their owner's bucket, so
round scheduling needs NO runtime all-to-all: each state shard reads
its own bucket and combines it with Arrow group_bys
(``combine_candidates``).

Every file name is deterministic in (round, bucket, producer), so a
resumed or retried round overwrites its own files instead of
duplicating rows.
"""

from __future__ import annotations

import os
from typing import List

import pyarrow as pa
import pyarrow.compute as pc

from .politeness import politeness_shard_of
from .storage import get_store

FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("priority", pa.float64()),
        ("depth", pa.int32()),
    ]
)

CANDIDATE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("priority", pa.float64()),   # final rows only (partial rows: 0)
        ("depth", pa.int32()),
        ("partial_count", pa.int64()),  # -1 = final row; >=0 = in-degree partial
        ("is_entity", pa.int8()),
    ]
)

EMPTY_FRONTIER = FRONTIER_SCHEMA.empty_table()


def to_ipc(t: pa.Table) -> bytes:
    """Arrow IPC stream bytes.  A small table crosses a Ray call ~2 ms
    faster this way than through Ray's per-column pa.Table reducer."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def from_ipc(data: bytes) -> pa.Table:
    return pa.ipc.open_stream(data).read_all()


def frontier_round_dir(out_dir: str, round_id: int) -> str:
    return os.path.join(out_dir, "frontier", f"round={round_id}")


def as_candidates(t: pa.Table) -> pa.Table:
    """FRONTIER_SCHEMA rows -> CANDIDATE_SCHEMA final rows."""
    n = t.num_rows
    return pa.table(
        {
            "url": t["url"],
            "host": t["host"],
            "priority": t["priority"],
            "depth": t["depth"],
            "partial_count": pa.array([-1] * n, pa.int64()),
            "is_entity": pa.array([0] * n, pa.int8()),
        }
    )


def _frontier_table(url, host, priority, depth) -> pa.Table:
    return pa.table(
        {"url": url, "host": host, "priority": priority, "depth": depth}
    ).cast(FRONTIER_SCHEMA)


def combine_candidates(t: pa.Table, entity_bonus: float) -> pa.Table:
    """Dedup candidate rows by url -> FRONTIER_SCHEMA.

    Link in-degree partials for the same url are SUMMED (priority =
    total count + bonus·max(is_entity)); final rows take max(priority);
    across both, max(priority) / min(depth) — the round semantics'
    frontier dedup (crawl.py docstring step 1), expressed as three Arrow
    group_bys.  Single-threaded: the caller holds one CPU, and Arrow's
    thread pool costs more than it saves on one bucket's rows."""
    if t.num_rows == 0:
        return EMPTY_FRONTIER
    final_mask = pc.less(t["partial_count"], 0)
    finals = t.filter(final_mask)
    partials = t.filter(pc.invert(final_mask))
    parts: List[pa.Table] = []
    if finals.num_rows:
        fa = finals.group_by("url", use_threads=False).aggregate(
            [("priority", "max"), ("depth", "min"), ("host", "min")]
        )
        parts.append(
            _frontier_table(fa["url"], fa["host_min"], fa["priority_max"], fa["depth_min"])
        )
    if partials.num_rows:
        pagg = partials.group_by("url", use_threads=False).aggregate(
            [("partial_count", "sum"), ("is_entity", "max"), ("depth", "min"), ("host", "min")]
        )
        prio = pc.add(
            pc.cast(pagg["partial_count_sum"], pa.float64()),
            pc.multiply(
                pc.cast(pagg["is_entity_max"], pa.float64()),
                pa.scalar(float(entity_bonus), pa.float64()),
            ),
        )
        parts.append(_frontier_table(pagg["url"], pagg["host_min"], prio, pagg["depth_min"]))
    merged = pa.concat_tables(parts)
    if len(parts) == 2:
        ma = merged.group_by("url", use_threads=False).aggregate(
            [("priority", "max"), ("depth", "min"), ("host", "min")]
        )
        merged = _frontier_table(ma["url"], ma["host_min"], ma["priority_max"], ma["depth_min"])
    return merged


def write_bucketed(cand: pa.Table, next_dir: str, fname: str, num_shards: int) -> int:
    """Partition CANDIDATE_SCHEMA rows by owning state shard and write one
    ``bucket=b/{fname}.parquet`` per touched bucket (deterministic name
    -> retry-idempotent).  Returns rows written."""
    if cand.num_rows == 0:
        return 0
    # hash each distinct host once: a round's candidates repeat a few
    # hosts many times, and every producer (seeds, deferrals, fetch-task
    # link partials) goes through here
    hosts = pc.unique(cand["host"])
    host_buckets = pa.array(
        [politeness_shard_of(h, num_shards) for h in hosts.to_pylist()],
        pa.int32(),
    )
    buckets = pc.take(host_buckets, pc.index_in(cand["host"], value_set=hosts))
    store = get_store()
    for b in pc.unique(buckets).to_pylist():
        sub = cand.filter(pc.equal(buckets, b))
        bdir = os.path.join(next_dir, f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        store.write_table(sub, os.path.join(bdir, fname + store.suffix))
    return cand.num_rows
