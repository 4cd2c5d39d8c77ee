"""The three workloads.  Each one differs from the others in the input
property the program's cost depends on (whether a crawl runs at all,
under a politeness budget with checkpoints; whether entity contexts or
relational operators are built), so that every module the ROADMAP
plans to optimise does most of the work in one workload and little in
another (see README.md for the mapping).

A workload is driven as: ``prepare()`` several times (fresh inputs each
time, all from the seed), then ``iterate()`` repeatedly.  ``iterate``
times each operation from outside the program and returns the outputs
its checks need; ``layers()`` adds the traced per-layer numbers.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import os
import shutil
import statistics
import time
from typing import Dict, List

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

import checks
import gen
import tracing
from entity_context_crawler_ray.pipelines import build_contexts as bc_mod
from entity_context_crawler_ray.pipelines import build_matches as bm_mod
from entity_context_crawler_ray.pipelines import crawl as crawl_mod
from entity_context_crawler_ray.pipelines import queries as q_mod
from entity_context_crawler_ray.sources import doc_store as store_mod
from entity_context_crawler_ray.sources import docs as docs_mod
from entity_context_crawler_ray.stages import match as match_mod

STORE_PARTS = 16
KERNEL_BATCH = 128


def _now() -> float:
    return time.perf_counter()


def _seed_hash(seed: int, key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(f"{seed}\x1f{key}".encode(), digest_size=8).digest(), "big"
    )


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Iteration:
    """One pass of a workload: per-operation walls, outputs to check."""

    def __init__(self) -> None:
        self.times: Dict[str, float] = {}
        self.outputs: Dict[str, object] = {}
        self.stats: Dict[str, str] = {}
        self.items = 0

    def timed(self, op: str, fn):
        """Time ``fn``, after waiting for the CPUs the previous operation
        still holds (``wait_idle``).  The wait is the caller's cost too,
        so it is kept in ``times["wait.idle"]`` and counted in the
        pass's time."""
        self.times["wait.idle"] = self.times.get("wait.idle", 0.0) + wait_idle()
        t0 = _now()
        out = fn()
        self.times[op] = _now() - t0
        return out


def wait_idle(timeout_s: float = 10.0) -> float:
    """Collect garbage and wait until every CPU of the cluster is free.
    A finished dataset's actor pool keeps its CPUs until this process's
    garbage collector frees the executor (it sits in a reference cycle).
    Left to the collector's own schedule, the next operation runs short
    of CPUs until the collector happens to run; the forced collect makes
    that stall a short, steady cost, timed as part of the pass."""
    t0 = _now()
    gc.collect()
    total = ray.cluster_resources().get("CPU", 0)
    while ray.available_resources().get("CPU", 0) < total and _now() - t0 < timeout_s:
        time.sleep(0.02)
    return _now() - t0


def _contexts_digest(ctx: pa.Table) -> str:
    return checks.value_hash(ctx.to_pandas())


def _contexts_layers(stats: str, rows_out: int) -> Dict[str, float]:
    """Split a build_contexts execution into window map, exchange and
    per-entity kernel walls (operators after the first exchange)."""
    ops = tracing.stats_operators(stats)
    out = {"contexts.window_s": 0.0, "contexts.exchange_s": 0.0, "contexts.group_kernel_s": 0.0}
    windows = 0
    after_exchange = False
    for op in ops:
        if tracing.is_exchange(op["name"]):
            after_exchange = True
            out["contexts.exchange_s"] += op["wall_s"]
        elif after_exchange:
            out["contexts.group_kernel_s"] += op["wall_s"]
        elif "Window" in op["name"]:
            out["contexts.window_s"] += op["wall_s"]
            windows += op["rows_out"]
    out["contexts.windows"] = windows
    out["contexts.rows_out"] = rows_out
    out["contexts.keep_ratio"] = rows_out / windows if windows else 0.0
    return out


def _kernel_rate(fn, batch: pa.Table, reps: int = 3) -> float:
    """Rows per second of an in-process call on a fixed batch (median)."""
    walls = []
    for _ in range(reps):
        t0 = _now()
        fn(batch)
        walls.append(_now() - t0)
    return batch.num_rows / statistics.median(walls)


class _Workload:
    name = ""
    # fewest timed passes per run; a workload whose passes vary more
    # within a run gets more
    min_passes = 1

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed

    def _tables(self, **sizes) -> str:
        """Fresh seeded tables; replaces the previous preparation's inputs."""
        self.base = _fresh(os.path.join(self.root, "inputs"))
        return gen.write_tables(os.path.join(self.base, "tables"), self.seed, **sizes)


class _DocsWorkload(_Workload):
    """Shared input side of the three entity-context workloads."""

    n_docs = 0
    replicas = 1
    text_repeat = 1

    def _gen(self) -> str:
        return self._tables(n_docs=self.n_docs)

    def _catalogs(self, sf: str) -> None:
        self.ents = docs_mod.entity_catalog(sf, replicas=self.replicas)
        self.id_map = docs_mod.id_map_table(sf, replicas=self.replicas)
        self.index = docs_mod.entities_index(self.ents)

    def match_kernel_rate(self, docs: pa.Table) -> float:
        proc = match_mod.PageProcessor(self.index)
        return _kernel_rate(proc, docs.slice(0, KERNEL_BATCH))

    def window_kernel_rate(self, combined: pa.Table) -> float:
        win = bc_mod.WindowMatches(100, self.seed, None)
        return _kernel_rate(win, combined.slice(0, KERNEL_BATCH))


class CrawlPolite(_DocsWorkload):
    """Crawl the doc store to frontier exhaustion under a tight
    politeness budget, checkpointing every round."""

    name = "crawl_polite"
    ops = ["crawl"]
    min_passes = 3
    n_docs = 2000
    replicas = 2
    text_repeat = 1
    max_depth = 2
    capacity = 4

    def prepare(self) -> Dict[str, float]:
        sf = self._gen()
        self.store = os.path.join(self.base, "store")
        t0 = _now()
        store_mod.write_doc_store(
            docs_mod.read_docs(sf, replicas=self.replicas, text_repeat=self.text_repeat),
            self.store,
            num_partitions=STORE_PARTS,
        )
        derive = _now() - t0
        t0 = _now()
        refs = store_mod.preload_doc_store(self.store, STORE_PARTS)
        ray.get(list(refs.values()))
        self.store_refs = ray.put(refs)
        preload = _now() - t0
        self._catalogs(sf)
        self.entities_ref = ray.put(self.index)
        seeds = docs_mod.seed_table(sf, replicas=self.replicas)
        # a seeded-hash 3/4 subset of the seeds, in seeded-hash order
        keyed = sorted(
            (_seed_hash(self.seed, u), i) for i, u in enumerate(seeds["url"].to_pylist())
        )
        rows = [i for h, i in keyed if h % 4 != 0]
        self.seeds = seeds.take(pa.array(rows, pa.int64()))
        self._expected = None
        return {"sources.derive_s": derive, "sources.preload_s": preload}

    def config(self) -> crawl_mod.CrawlConfig:
        return crawl_mod.CrawlConfig(
            max_depth=self.max_depth,
            capacity=self.capacity,
            refill=self.capacity,
            num_bloom_shards=4,
            num_politeness_shards=2,
            doc_store_partitions=STORE_PARTS,
            fetch_batch_size=128,
            max_rounds=1000,
        )

    def iterate(self) -> Iteration:
        it = Iteration()
        out = _fresh(os.path.join(self.root, "crawl_out"))
        ckpt = _fresh(os.path.join(self.root, "ckpt"))
        metrics = it.timed(
            "crawl",
            lambda: crawl_mod.crawl(
                self.store,
                self.seeds,
                self.entities_ref,
                out,
                self.config(),
                ckpt_dir=ckpt,
                store_refs=self.store_refs,
            ),
        )
        it.outputs["crawl"] = metrics
        it.outputs["fetch_log"] = checks.fetch_log(out)
        it.items = metrics["urls_fetched"]
        return it

    def expected(self):
        """What the crawl must fetch, recomputed from the store's link
        spans: the (round, rank, url) fetches of the round semantics,
        and the seeds' breadth-first reachability within ``max_depth``
        hops."""
        if self._expected is None:
            links = checks.store_links(self.store)
            self._expected = (
                sorted(
                    checks.simulated_fetch_log(
                        links, self.seeds, self.index["title_to_eid"], self.config()
                    )
                ),
                checks.bfs_reach(links, self.seeds["url"].to_pylist(), self.max_depth),
            )
        return self._expected

    def check(self, it: Iteration) -> Dict[str, List[str]]:
        return {
            "crawl": checks.check_crawl(it.outputs["fetch_log"], *self.expected(), self.capacity)
        }

    def digest(self, it: Iteration) -> str:
        urls = sorted(it.outputs["fetch_log"]["url"].to_pylist())
        return hashlib.blake2b("\n".join(urls).encode(), digest_size=12).hexdigest()

    def layers(self, it: Iteration, tr: tracing.Tracer) -> Dict[str, float]:
        m = it.outputs["crawl"]
        rounds = m["rounds"]
        phase = lambda k: sum(r["phases"].get(k, 0.0) for r in rounds)  # noqa: E731
        round_sec = sum(r["sec"] for r in rounds)
        ckpt_s = tr.total("state.checkpoint.save_checkpoint")
        fetch = phase("fetch_extract")
        candidates = sum(r["candidates"] for r in rounds)
        part = pq.read_table(os.path.join(self.store, "part=0"), columns=["doc_id", "spans"])
        return {
            "crawl.wall_s": it.times["crawl"],
            "crawl.urls": m["urls_fetched"],
            "crawl.rounds": len(rounds),
            "crawl.schedule_s": phase("schedule"),
            "crawl.log_s": phase("log"),
            "crawl.fetch_extract_s": fetch,
            "crawl.links_s": phase("links"),
            "crawl.frontier_s": phase("frontier"),
            "crawl.round_overhead_s": (round_sec - fetch) / max(len(rounds), 1),
            "crawl.outside_rounds_s": it.times["crawl"] - round_sec - ckpt_s,
            "crawl.admit_ratio": m["urls_fetched"] / candidates if candidates else 0.0,
            "crawl.deferred": sum(r["deferred"] for r in rounds),
            "crawl.fetch_misses": sum(r["fetch_misses"] for r in rounds),
            "crawl.unreached_within_depth": len(
                self.expected()[1] - set(it.outputs["fetch_log"]["url"].to_pylist())
            ),
            "state.checkpoint.save_s": ckpt_s,
            "state.checkpoint.calls": tr.count("state.checkpoint.save_checkpoint"),
            "state.checkpoint.bytes": tr.counters.get("state.checkpoint.bytes", 0),
            "match.kernel_pages_per_s": self.match_kernel_rate(part),
        }


class DumpContexts(_DocsWorkload):
    """The reference's two-stage dump pipeline, no crawl: matches over a
    docs parquet, then contexts over the stored matches."""

    name = "dump_contexts"
    min_passes = 4
    n_docs = 1000
    replicas = 2
    text_repeat = 2
    ops = ["matches", "contexts"]

    def prepare(self) -> Dict[str, float]:
        sf = self._gen()
        self.docs_dir = os.path.join(self.base, "docs")
        t0 = _now()
        docs = docs_mod.read_docs(sf, replicas=self.replicas, text_repeat=self.text_repeat)
        # iter_batches drains one execution; to_arrow_refs() on a lazy
        # dataset starts a second one that keeps a CPU busy afterwards
        table = pa.concat_tables(docs.iter_batches(batch_size=None, batch_format="pyarrow"))
        # the docs parquet is stored in a seeded row order
        order = sorted(range(table.num_rows), key=lambda i: _seed_hash(self.seed, str(i)))
        os.makedirs(self.docs_dir)
        step = table.num_rows // 8 + 1
        shuffled = table.take(pa.array(order, pa.int64()))
        for k in range(0, table.num_rows, step):
            pq.write_table(shuffled.slice(k, step), os.path.join(self.docs_dir, f"{k}.parquet"))
        derive = _now() - t0
        self._catalogs(sf)
        return {"sources.derive_s": derive, "sources.preload_s": 0.0}

    def iterate(self) -> Iteration:
        it = Iteration()
        store = os.path.join(self.root, "matches")
        shutil.rmtree(store, ignore_errors=True)

        def matches():
            combined = bm_mod.build_matches(ray.data.read_parquet(self.docs_dir), self.ents)
            bm_mod.write_store(combined, store)
            return combined

        combined = it.timed("matches", matches)
        it.stats["matches"] = combined.stats()
        del combined  # its actor pool is released once the dataset is collected

        def contexts():
            combined = bm_mod.read_store(store)
            return bc_mod.build_contexts(
                combined,
                self.ents,
                self.id_map,
                bm_mod.mentions_pairs_view(combined),
                limit_contexts=None,
                crop_sentences=True,
                seed=self.seed,
            ).materialize()

        ctx = it.timed("contexts", contexts)
        it.outputs["contexts"] = pa.concat_tables(ray.get(ctx.to_arrow_refs()))
        it.stats["contexts"] = ctx.stats()
        it.outputs["store"] = store
        it.items = sum(
            pq.ParquetFile(f).metadata.num_rows for f in glob.glob(os.path.join(store, "*.parquet"))
        )
        return it

    def check(self, it: Iteration) -> Dict[str, List[str]]:
        pages = self.n_docs * self.replicas
        return {
            "matches": [] if it.items == pages else [f"store has {it.items} pages, expected {pages}"],
            "contexts": checks.check_contexts(it.outputs["contexts"]),
        }

    def digest(self, it: Iteration) -> str:
        return _contexts_digest(it.outputs["contexts"])

    def layers(self, it: Iteration, tr: tracing.Tracer) -> Dict[str, float]:
        combined = pq.read_table(it.outputs["store"])
        n_matches = pc.sum(pc.list_value_length(combined["matches"])).as_py()
        extract = sum(
            op["wall_s"]
            for op in tracing.stats_operators(it.stats["matches"])
            if "PageProcessor" in op["name"]
        )
        docs = pq.read_table(sorted(glob.glob(os.path.join(self.docs_dir, "*.parquet")))[0])
        out = {
            "matches.wall_s": it.times["matches"],
            "matches.extract_s": extract,
            "matches.pages": combined.num_rows,
            "matches.matches": n_matches,
            "match.kernel_pages_per_s": self.match_kernel_rate(docs),
            "contexts.wall_s": it.times["contexts"],
            "contexts.window_rows_per_s": self.window_kernel_rate(combined),
        }
        out.update(_contexts_layers(it.stats["contexts"], it.outputs["contexts"].num_rows))
        return out


class Operators(_Workload):
    """Three map_groups/exchange-heavy queries on seeded tables, each
    checked against its DuckDB twin."""

    name = "operators"
    min_passes = 3
    ops = queries = ("q_sessions", "q_revenue_by_nation", "q_span_dedup")
    sql = {
        "q_sessions": q_mod.SQL_SESSIONS,
        "q_revenue_by_nation": q_mod.SQL_REVENUE_BY_NATION,
        "q_span_dedup": q_mod.SQL_SPAN_DEDUP,
    }
    sizes = dict(n_docs=1000, n_events=20000, n_users=800, n_orders=20000, n_cust=2000)

    def prepare(self) -> Dict[str, float]:
        self.sf = self._tables(**self.sizes)
        self.oracle = None
        return {"sources.derive_s": 0.0, "sources.preload_s": 0.0}

    def oracles(self) -> Dict[str, tuple]:
        if self.oracle is None:
            self.oracle = {q: checks.duckdb_hash(self.sf, self.sql[q]) for q in self.queries}
        return self.oracle

    def iterate(self) -> Iteration:
        it = Iteration()
        for q in self.queries:
            lazy = {}

            def run(q=q):
                lazy["ds"] = getattr(q_mod, q)(self.sf)
                return lazy["ds"].to_pandas()

            it.outputs[q] = it.timed(q, run)
            it.stats[q] = lazy.pop("ds").stats()
        it.items = sum(
            pq.read_metadata(os.path.join(self.sf, f"{t}.parquet")).num_rows
            for t in ("events", "orders", "customer", "documents")
        )
        return it

    def check(self, it: Iteration) -> Dict[str, List[str]]:
        errs = {}
        for q in self.queries:
            df = it.outputs[q]
            want = self.oracles()[q]
            got = (len(df), checks.value_hash(df))
            errs[q] = [] if got == want else [f"{q}: (rows, hash) {got} != DuckDB {want}"]
        return errs

    def digest(self, it: Iteration) -> str:
        return "".join(checks.value_hash(it.outputs[q]) for q in self.queries)

    def layers(self, it: Iteration, tr: tracing.Tracer) -> Dict[str, float]:
        out = {}
        for q in self.queries:
            ops = tracing.stats_operators(it.stats[q])
            out[f"operators.{q}_s"] = it.times[q]
            out[f"operators.{q}.exchange_s"] = sum(
                o["wall_s"] for o in ops if tracing.is_exchange(o["name"])
            )
            out[f"operators.{q}.map_s"] = sum(
                o["wall_s"] for o in ops if not tracing.is_exchange(o["name"])
            )
        return out


WORKLOADS = {w.name: w for w in (CrawlPolite, DumpContexts, Operators)}
