"""Seeded input generation.

Writes a small TPC-H-ish table directory (the shape the program's
sources and queries read) from a workload seed: the same seed gives
byte-identical tables.  Only numpy and pyarrow run here; the program
never sees the seed, only the files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
N_NATIONS = 25
EVENT_TYPES = ["click", "view", "purchase", "signup", "error"]


def _documents(rng: np.random.Generator, n_docs: int) -> pa.Table:
    """Word-soup documents of 10..100 tokens.  One in twenty copies a
    12..30-token passage from an earlier document, so span dedup finds
    repeated spans to remove."""
    lens = rng.integers(10, 101, n_docs)
    words = np.asarray(VOCAB)[rng.integers(0, len(VOCAB), int(lens.sum()))]
    bounds = np.concatenate([[0], np.cumsum(lens)])
    docs = [list(words[bounds[i] : bounds[i + 1]]) for i in range(n_docs)]
    for i in np.flatnonzero(rng.random(n_docs) < 0.05):
        if i == 0:
            continue
        src = docs[int(rng.integers(0, i))]
        k = min(len(src), int(rng.integers(12, 31)))
        at = int(rng.integers(0, len(docs[i]) + 1))
        docs[i] = docs[i][:at] + src[:k] + docs[i][at:]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs), pa.int64()),
            "text": [" ".join(d) for d in docs],
        }
    )


def _events(rng: np.random.Generator, n_events: int, n_users: int) -> pa.Table:
    start = np.datetime64("2024-01-01T00:00:00", "us")
    offs = rng.integers(0, 30 * 86400 * 10**6, n_events)
    return pa.table(
        {
            "event_id": pa.array(np.arange(n_events), pa.int64()),
            "ts": pa.array(start + offs.astype("timedelta64[us]"), pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, n_users, n_events), pa.int64()),
            "event_type": np.asarray(EVENT_TYPES)[rng.integers(0, 5, n_events)],
            "value": np.round(rng.uniform(0, 500, n_events), 2),
        }
    )


def _orders(rng: np.random.Generator, n_orders: int, n_cust: int) -> pa.Table:
    return pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), pa.int64()),
            "o_totalprice": np.round(rng.uniform(900.0, 500000.0, n_orders), 2),
        }
    )


def _customer(rng: np.random.Generator, n_cust: int) -> pa.Table:
    return pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
            "c_nationkey": pa.array(rng.integers(0, N_NATIONS, n_cust), pa.int32()),
        }
    )


def _nation() -> pa.Table:
    keys = np.arange(N_NATIONS)
    return pa.table(
        {
            "n_nationkey": pa.array(keys, pa.int32()),
            "n_name": [f"NATION_{k}" for k in keys],
            "n_regionkey": pa.array(keys % 5, pa.int32()),
        }
    )


def _shuffled(rng: np.random.Generator, t: pa.Table) -> pa.Table:
    return t.take(pa.array(rng.permutation(t.num_rows)))


def write_tables(
    out_dir: str,
    seed: int,
    *,
    n_docs: int,
    n_events: int = 0,
    n_users: int = 1,
    n_orders: int = 0,
    n_cust: int = 1,
) -> str:
    """Write the seeded table dir; every table is stored in a seeded
    row order.  Tables whose size is 0 are not written."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    tables = {"documents": _documents(rng, n_docs)}
    if n_events:
        tables["events"] = _events(rng, n_events, n_users)
    if n_orders:
        tables["orders"] = _orders(rng, n_orders, n_cust)
        tables["customer"] = _customer(rng, n_cust)
        tables["nation"] = _nation()
    for name, t in tables.items():
        pq.write_table(_shuffled(rng, t), os.path.join(out_dir, f"{name}.parquet"))
    return out_dir
