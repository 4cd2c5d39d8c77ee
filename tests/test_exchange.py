"""The keyed exchange (stages/exchange.py): its segment helpers, its
partition invariance, and a DuckDB oracle gate over every registry
query whose plan runs through it."""

import os
import shutil
import sys
from contextlib import contextmanager

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data
from ray.data import DataContext

from entity_context_crawler_ray.pipelines import queries as q
from entity_context_crawler_ray.stages import exchange, relational

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from test_pipelines import ROOT, SF  # noqa: E402  the sf0.001 tables the data tests share
from tools.verify_oracles import TABLES, canonical, to_pandas, value_hash  # noqa: E402

# every oracle-checked registry query whose plan calls exchange.by_key
# or exchange.join (found by wrapping by_key over a full sf0.001 sweep)
EXCHANGE_QUERIES = [
    "q_revenue_by_nation",
    "q_distinct_pairs",
    "q_first_event_per_user",
    "q_unique_event_types",
    "q_span_dedup",
    "q_span_dedup_clean",
    "q_novelty",
    "q_incremental_dedup",
    "q_bigram_next",
    "q_grouped_p90",
    "q_weighted_sample_grouped",
    "q_sessions",
    "q_anti_join",
    "q_events_sliding",
    "q_events_cumulative",
    "q_grouped_median",
    "q_stratified_sample",
    "q_pack_documents",
    "q_inverted_index",
    "q_pagerank",
    "q_rollup_revenue",
    "q_order_ranks",
    "q_left_join_custorders",
    "q_bfs_customers",
    "q_grouped_mad",
    "q_funnel",
    "q_asof_join",
    "q_dedup_clusters",
    "q_dedup_keep_best",
    "q_top_orders_per_cust",
    "q_minhash_neardup",
    "q_embedding_neardup_lsh",
    "q_semantic_dedup",
    "q_fuzzy_names",
]


def _rows_hash(df):
    df = canonical(to_pandas(df))
    return len(df), value_hash(df)


# --- segment helpers ------------------------------------------------------


def test_segment_helpers_match_per_segment_numpy():
    rng = np.random.default_rng(3)
    key = np.sort(rng.integers(0, 9, 200))
    vals = rng.integers(-50, 50, 200)
    starts = exchange.run_starts(key)
    bounds = np.append(starts, len(key))
    assert list(starts) == [int(np.searchsorted(key, k)) for k in np.unique(key)]
    seg = exchange.seg_ids(starts, len(key))
    # sort values within each segment for the searchsorted check
    vals = vals[np.lexsort((vals, seg))]
    cum = exchange.seg_cumsum(vals, starts)
    mx = exchange.seg_reduce(np.maximum, vals, starts)
    probes = rng.integers(-60, 60, 50)
    probe_seg = rng.integers(0, len(starts), 50)
    for side in ("left", "right"):
        got = exchange.seg_searchsorted(vals, seg, probes, probe_seg, side=side)
        want = [
            bounds[s] + np.searchsorted(vals[bounds[s] : bounds[s + 1]], p, side=side)
            for p, s in zip(probes, probe_seg)
        ]
        assert list(got) == want
    for i in range(len(starts)):
        part = vals[bounds[i] : bounds[i + 1]]
        assert list(cum[bounds[i] : bounds[i + 1]]) == list(np.cumsum(part))
        assert mx[i] == part.max()
    # two key columns: a run breaks where either changes
    assert list(exchange.run_starts([1, 1, 1, 2], ["a", "b", "b", "b"])) == [0, 1, 3]


def test_one_per_key_idiom():
    """Every per-key operator of the package runs through
    ``exchange.by_key``: no ``groupby().map_groups()`` call is left."""
    pkg = os.path.join(ROOT, "entity_context_crawler_ray")
    hits = []
    for dirpath, _, files in os.walk(pkg):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                with open(path) as fh:
                    hits += [f"{path}:{n}" for n, line in enumerate(fh, 1) if ".map_groups(" in line]
    assert not hits


def test_no_numpy_char():
    """Hash messages are ``str`` lists or Arrow string arrays end to
    end: no ``np.char`` element-wise string pass is left in the
    package (each costs a fixed-width UCS-4 copy of every message)."""
    pkg = os.path.join(ROOT, "entity_context_crawler_ray")
    hits = []
    for dirpath, _, files in os.walk(pkg):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                with open(path) as fh:
                    hits += [f"{path}:{n}" for n, line in enumerate(fh, 1) if "np.char." in line]
    assert not hits


# --- partition invariance ------------------------------------------------

# (input pieces, target_max_block_size): pieces are Arrow tables for
# from_arrow, parquet files per table for the queries
LAYOUTS = {
    "1 piece": (1, None),
    "7 pieces": (7, None),
    "7 pieces, 4 KiB blocks": (7, 4096),
}


@contextmanager
def max_block_size(size):
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = size or saved
    try:
        yield
    finally:
        ctx.target_max_block_size = saved


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_by_key_delivers_each_key_to_one_call(layout):
    pieces, size = LAYOUTS[layout]
    rng = np.random.default_rng(7)
    t = pa.table({"k": rng.integers(0, 50, 35_000), "v": np.arange(35_000)})
    parts = [t.slice(i * 5_000, 5_000) for i in range(7)] if pieces == 7 else [t]

    def per_call(b: pa.Table) -> pa.Table:
        starts = exchange.run_starts(b["k"])
        return pa.table(
            {"k": b["k"].take(starts), "n": np.diff(np.append(starts, b.num_rows))}
        )

    with max_block_size(size):
        out = exchange.by_key(ray.data.from_arrow(parts), "k", per_call).to_pandas()
    # one row per (call, key): a key split across calls would repeat
    assert len(out) == out["k"].nunique() == 50
    want = np.bincount(t["k"].to_numpy(), minlength=50)
    assert dict(zip(out["k"], out["n"])) == dict(enumerate(want))


def _split_copy(dst, pieces: int) -> str:
    """The tables the invariance queries read, each as ``pieces``
    parquet files in a ``<table>.parquet`` directory (nation whole)."""
    for table in ("events", "documents", "orders", "customer"):
        t = pq.read_table(f"{SF}/{table}.parquet")
        os.makedirs(dst / f"{table}.parquet")
        step = -(-t.num_rows // pieces)
        for i in range(pieces):
            pq.write_table(t.slice(i * step, step), dst / f"{table}.parquet" / f"part-{i}.parquet")
    shutil.copy(f"{SF}/nation.parquet", dst / "nation.parquet")
    return str(dst)


def _layout_hashes(sf: str):
    orders = q._read(sf, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    customer = q._read(sf, "customer", ["c_custkey", "c_mktsegment"])
    got = {
        name: _rows_hash(getattr(q, name)(sf))
        for name in ("q_sessions", "q_span_dedup", "q_revenue_by_nation")
    }
    got["grouped_top_k"] = _rows_hash(
        relational.grouped_top_k(
            orders, "o_custkey", ["o_totalprice", "o_orderkey"], k=2, descending=[True, False]
        )
    )
    got["join_left"] = _rows_hash(
        exchange.join(customer, orders, on="c_custkey", right_on="o_custkey", how="left")
    )
    return got


def test_results_do_not_depend_on_block_layout(tmp_path):
    sf = {n: _split_copy(tmp_path / f"pieces{n}", n) for n in (1, 7)}
    hashes = {}
    for name, (pieces, size) in LAYOUTS.items():
        with max_block_size(size):
            hashes[name] = _layout_hashes(sf[pieces])
    first = hashes["1 piece"]
    for name, got in hashes.items():
        assert got == first, name


# --- oracle gate -----------------------------------------------------------


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    yield con
    con.close()


@pytest.mark.parametrize("name", EXCHANGE_QUERIES)
def test_exchange_queries_match_duckdb(name, duck):
    got = _rows_hash(q.queries()[name](SF))
    want = _rows_hash(duck.execute(q.oracle_sql()[name]).fetchdf())
    assert got == want


# the sampled Stage 2 output: the per-entity ≤K md5-rank sample, crop,
# masking and rid lookup, each checked against its DuckDB oracle
@pytest.mark.parametrize("name", ["ecc_contexts", "ecc_contexts_sentences", "ecc_context_stats"])
def test_sampled_contexts_match_duckdb(name, duck):
    got = _rows_hash(q.queries()[name](SF))
    want = _rows_hash(duck.execute(q.oracle_sql()[name]).fetchdf())
    assert got[0] > 0 and got == want
