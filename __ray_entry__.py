"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline — the frontier crawl over the
interleaved-docs store followed by the contexts extraction — on
sf0.001.  ``queries()`` / ``oracle_sql()`` expose one entry per
implemented operator/pipeline from SURVEY.md §2 plus the
training-data extensions (dedup / similarity / text analysis /
multimodal); see entity_context_crawler_ray/pipelines/queries.py.

Ray is initialised by the driver BEFORE this module is imported:
nothing in here (or the library) calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: crawl sf0.001's doc store to frontier exhaustion,
    then build entity contexts from the crawled pages."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from entity_context_crawler_ray.pipelines.build_contexts import build_contexts
    from entity_context_crawler_ray.pipelines.build_matches import mentions_pairs_view
    from entity_context_crawler_ray.functions.hashing import stable_hash64
    from entity_context_crawler_ray.pipelines.crawl import CrawlConfig, crawl
    from entity_context_crawler_ray.sources import docs as docsrc
    from entity_context_crawler_ray.sources.doc_store import write_doc_store

    sf_dir = "/root/testdata/sf0.001"
    # the cached store is keyed by the engine hash, which also places
    # docs in its partitions: a store written under another hash is
    # never reused
    tag = stable_hash64("entry", sf_dir, docsrc.DERIVATION_VERSION) % (1 << 32)
    base = f"/tmp/ecc_entry_{tag}"
    store = f"{base}/docstore"
    out = f"{base}/out"
    shutil.rmtree(out, ignore_errors=True)
    if not os.path.isdir(store):
        write_doc_store(docsrc.read_docs(sf_dir), store, num_partitions=16)

    ents = docsrc.entity_catalog(sf_dir)
    ref = ray.put(docsrc.entities_index(ents))
    cfg = CrawlConfig(
        max_depth=1,
        round_budget=1000,
        capacity=200,
        refill=100,
        num_bloom_shards=4,
        num_politeness_shards=2,
        doc_store_partitions=16,
        max_rounds=20,
    )
    crawl(store, docsrc.seed_table(sf_dir), ref, out, cfg)

    import glob

    import pyarrow.compute as pc

    round_files = sorted(glob.glob(f"{out}/round=*/*.parquet"))
    crawled = ray.data.read_parquet(round_files).map_batches(
        lambda t: t.filter(pc.equal(t["error"], "")),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    crawled = crawled.materialize()
    contexts = build_contexts(
        crawled,
        ents,
        docsrc.id_map_table(sf_dir),
        mentions_pairs_view(crawled),
        context_size=100,
        limit_contexts=10,
    )
    return contexts


def queries() -> dict[str, Callable[[str], Any]]:
    from entity_context_crawler_ray.pipelines.queries import queries as _q

    return _q()


def oracle_sql() -> dict[str, str]:
    from entity_context_crawler_ray.pipelines.queries import oracle_sql as _o

    return _o()
