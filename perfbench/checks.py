"""Output checks.  Each returns a list of failure messages (empty = pass).

They recompute what they compare against from the inputs, never from
the program's own bookkeeping: the crawl's fetch log comes from the
repository's pure-Python simulation of the crawl's round semantics
(tests/crawl_sim.py) fed the doc store's ``link`` spans, query results
from DuckDB on the same files.
"""

from __future__ import annotations

import glob
import os
from collections import Counter
from typing import Dict, Iterable, List, Set, Tuple

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from entity_context_crawler_ray.pipelines.crawl import CrawlConfig
from tests.crawl_sim import simulate_crawl
from tools import verify_oracles


def store_links(store_dir: str) -> Dict[str, List[str]]:
    """doc_id -> link targets, read straight from the store's parquet."""
    t = pq.read_table(store_dir, columns=["doc_id", "spans"])
    spans = t["spans"].combine_chunks()
    flat = pc.list_flatten(spans)
    parent = pc.list_parent_indices(spans)
    is_link = pc.and_(
        pc.equal(pc.struct_field(flat, "kind"), "link"),
        pc.not_equal(pc.struct_field(flat, "media_ref"), ""),
    )
    src = pc.take(t["doc_id"], pc.filter(parent, is_link)).to_pylist()
    dst = pc.filter(pc.struct_field(flat, "media_ref"), is_link).to_pylist()
    links: Dict[str, List[str]] = {d: [] for d in t["doc_id"].to_pylist()}
    for s, d in zip(src, dst):
        links[s].append(d)
    return links


def bfs_reach(links: Dict[str, List[str]], seeds: Iterable[str], max_depth: int) -> Set[str]:
    """URLs within ``max_depth`` link hops of ``seeds`` (seeds included)."""
    seen = set(seeds)
    level = list(seen)
    for _ in range(max_depth):
        nxt = []
        for u in level:
            for v in links.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        level = nxt
    return seen


def simulated_fetch_log(
    links: Dict[str, List[str]],
    seeds: pa.Table,
    title_to_eid: Dict[str, str],
    config: CrawlConfig,
) -> List[Tuple[int, int, str]]:
    """(round, rank, url) of every fetch the crawl must make, by the
    documented round semantics (crawl.py's module docstring)."""
    docs = {u: [{"kind": "link", "media_ref": t} for t in ts] for u, ts in links.items()}
    seed_rows = list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist()))
    return simulate_crawl(docs, seed_rows, title_to_eid, config)["fetch_log"]


def fetch_log(out_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(out_dir, "fetch_log", "*.parquet")))
    cols = ["url", "host", "depth", "round", "rank"]
    return pa.concat_tables([pq.read_table(f, columns=cols) for f in files])


def check_crawl(
    log: pa.Table,
    expected: List[Tuple[int, int, str]],
    reach: Set[str],
    capacity: int,
) -> List[str]:
    """The crawl fetched each URL once, stayed within ``capacity`` per
    host per round, fetched nothing beyond ``max_depth`` link hops of
    the seeds (``reach``, from ``bfs_reach``), and made exactly the
    ``expected`` fetches, in the same rounds and order.

    Under politeness deferral those semantics fetch a page at the depth
    of the path that reached it first, so they can fetch fewer pages
    than ``reach``; that shortfall is reported by the traced run as
    ``crawl.unreached_within_depth``, not failed here."""
    errs = []
    urls = log["url"].to_pylist()
    dup = [u for u, n in Counter(urls).items() if n > 1]
    if dup:
        errs.append(f"{len(dup)} urls fetched more than once, e.g. {dup[:3]}")
    fetched = set(urls)
    got = sorted(zip(log["round"].to_pylist(), log["rank"].to_pylist(), urls))
    if got != expected:
        diff = sorted(set(got) ^ set(expected))
        errs.append(
            f"fetch log differs from the round semantics: {len(got)} fetches vs "
            f"{len(expected)} expected, {len(diff)} (round, rank, url) differ, e.g. {diff[:3]}"
        )
    extra = sorted(fetched - reach)
    if extra:
        errs.append(f"{len(extra)} urls fetched beyond max_depth hops, e.g. {extra[:3]}")
    per = Counter(zip(log["round"].to_pylist(), log["host"].to_pylist()))
    over = {k: n for k, n in per.items() if n > capacity}
    if over:
        errs.append(f"{len(over)} (round, host) pairs over capacity {capacity}")
    return errs


def check_contexts(ctx: pa.Table) -> List[str]:
    errs = []
    if ctx.num_rows == 0:
        errs.append("no contexts")
    bad = pc.sum(
        pc.not_equal(pc.utf8_length(ctx["context"]), pc.utf8_length(ctx["masked_context"]))
    ).as_py()
    if bad:
        errs.append(f"{bad} masked_context lengths differ from context")
    return errs


def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive value hash, as tools/verify_oracles.py compares."""
    return verify_oracles.value_hash(verify_oracles.canonical(df))


def duckdb_hash(table_dir: str, sql: str) -> tuple:
    """(rows, value hash) of ``sql`` run by DuckDB over ``table_dir``."""
    import duckdb

    con = duckdb.connect()
    try:
        for path in glob.glob(os.path.join(table_dir, "*.parquet")):
            name = os.path.basename(path)[: -len(".parquet")]
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
        df = con.execute(sql).df()
    finally:
        con.close()
    return len(df), value_hash(df)
