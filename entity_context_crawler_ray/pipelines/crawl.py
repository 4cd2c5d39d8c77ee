"""Frontier-driven crawl over the doc store (north_rule core).

The reference approximates a crawl by a single pass over a dump in
file order (SURVEY.md §2.9); its "frontier" is implicitly the 1-hop
link neighborhood of the seed entity pages (reference README.md:5).
The rebuild makes that explicit: a priority URL frontier drained in
rounds, with

- one **state shard** actor per politeness shard (state/shard.py)
  holding the bloom **seen-filter** bits (state/bloom.py) and the
  per-host **politeness token buckets + robots budgets**
  (state/politeness.py) of the hosts it owns; the shard also
  schedules the frontier bucket of those hosts (owner computes), so a
  round makes one ``schedule`` and one ``commit`` call per shard and
  no other state round trip, and the shards schedule in parallel,
- a global **priority + round budget** split, deterministic via
  (priority desc, url asc) ordering — per-bucket local top-budget
  truncation + a bounded driver merge,
- **fetch+extract** as one plain Ray task per ``fetch_batch_size``
  slice of the round's fetch set, on warm task workers that keep the
  doc-store reader and entity index between rounds; each task runs
  the stage-1 matcher per fetched page (stages/match.py), writes the
  page parquet and writes its out-links into the next round's frontier
  buckets,
- a **storage-resident frontier**: one parquet dir per state shard
  (its hosts' candidates) between rounds, written in place by the producers
  (partition-on-write, state/frontier.py); the driver never holds the
  frontier,
- per-round **checkpoints** (manifest with the frontier dir
  reference + politeness snapshots, state/checkpoint.py) making the
  crawl resumable; the seen filters are rebuilt on resume from the
  per-round fetch log (``out_dir/fetch_log/round_{r}.parquet``), which
  holds exactly the URLs they marked, and per-round partitioned
  parquet output (``out_dir/round=r/``) with a ``round`` lineage
  column.

Round semantics (the conformance definition the parity simulator in
tests/crawl_sim reproduces):

1. frontier dedup by url (max priority, min depth);
2. drop urls the bloom filter has seen;
3. per-host admission: robots-denied dropped, then up to
   ``tokens(host)`` admitted in (priority desc, url) order, rest
   deferred to the next round;
4. global round budget: top ``round_budget`` by (priority desc, url)
   fetched, rest deferred;
5. fetched urls marked seen; pages extracted; out-links of pages at
   depth < max_depth become next-round candidates with
   priority = in-degree + entity_bonus·[target is entity page];
6. next frontier = deferred ∪ new candidates; stop when empty.
"""

from __future__ import annotations

import glob as _glob
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.broadcast import cached, ref_id
from ..sources.doc_store import PlasmaDocStoreReader, preload_doc_store
from ..sources.docs import host_of
from ..stages.match import CombinedBuilder, SpanColumns
from ..state.frontier import (
    EMPTY_FRONTIER,
    FRONTIER_SCHEMA,
    as_candidates,
    from_ipc,
    frontier_round_dir,
    write_bucketed,
)
from ..state.politeness import politeness_shard_of
from ..state.shard import CrawlStateShardActor

LINK_ITEM = pa.struct([("target", pa.string()), ("is_entity", pa.bool_())])


@dataclass
class CrawlConfig:
    max_depth: int = 1
    round_budget: int = 1 << 30
    capacity: int = 1 << 30          # politeness bucket capacity (tokens)
    refill: int = 1 << 30            # tokens refilled per round
    # wall-clock politeness (live-fetch deployments): tokens/sec accrual
    # replaces the per-round refill when set (state/politeness.py)
    refill_per_sec: Optional[float] = None
    deny: Dict[str, List[str]] = field(default_factory=dict)    # host -> url prefixes
    host_budget: Dict[str, int] = field(default_factory=dict)   # host -> lifetime cap
    # seen-filter size: EACH state shard's filter holds
    # num_bloom_shards × bloom_bits bits, because a host-skewed crawl can
    # put nearly every URL in one shard (state/bloom.py)
    num_bloom_shards: int = 4
    bloom_bits: int = 1 << 22
    # state shards: one actor each, owning one frontier bucket.  The
    # shards schedule a round in parallel, so raise this with the
    # cluster, up to about one per CPU: each is a process to start (on
    # 4 CPUs, 16 shards ran the bench.py crawl 1.9× slower than 4)
    num_politeness_shards: int = 2
    entity_bonus: float = 10.0
    fetch_batch_size: int = 64
    doc_store_partitions: int = 32
    max_rounds: int = 64             # safety backstop


# Fetch tasks run on Ray's task workers, which Ray reuses across tasks
# and across rounds.  Their heavy state (doc-store partition cache,
# entity indexes) therefore lives in the per-worker-process broadcast
# cache: loaded on a worker's first fetch, reused by every later round
# and every later crawl over the same broadcasts — no actor pool to
# start per crawl.
def _fetch_state(store_dir: str, num_partitions: int, entities_ref, store_refs):
    def load():
        idx = (
            ray.get(entities_ref)
            if isinstance(entities_ref, ray.ObjectRef)
            else entities_ref
        )
        reader = PlasmaDocStoreReader(ray.get(store_refs), num_partitions)
        return reader, idx["title_to_eid"], idx["eid_to_label"]

    # key includes the broadcast identities: the same store crawled
    # with different entity catalogs must not reuse a stale index
    return cached(("fetch", store_dir, ref_id(entities_ref), ref_id(store_refs)), load)


class FetchExtract:
    """Fetch stage body: admitted frontier rows -> combined page rows
    (+ out_links for the frontier).  Constructed per task, but all
    state comes from the worker-process cache (see _fetch_state)."""

    def __init__(self, store_dir: str, num_partitions: int, entities_ref, store_refs):
        self.reader, self.title_to_eid, self.eid_to_label = _fetch_state(
            store_dir, num_partitions, entities_ref, store_refs
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        found, spans_arr, _missing = self.reader.lookup_arrow(urls)
        pos = {u: i for i, u in enumerate(found)}
        spans = SpanColumns(spans_arr) if spans_arr is not None else None

        # columnar assembly throughout: combined rows via the shared
        # CombinedBuilder, out-links via flat children + offsets — no
        # per-row or per-link dicts (the measured 8→32 scaling
        # residual, BASELINE.md)
        b = CombinedBuilder()
        ol_off: List[int] = [0]
        ol_target: List[str] = []
        ol_entity: List[bool] = []
        fetched: List[bool] = []
        for url in urls:
            i = pos.get(url)
            if i is None:
                b.add_error(url, "fetch-miss")
                fetched.append(False)
            else:
                b.add_doc(url, spans, i, self.title_to_eid, self.eid_to_label)
                lo = int(spans.offs[i])
                hi = int(spans.offs[i + 1])
                ref = spans.ref
                for j in (lo + np.nonzero(spans.is_link[lo:hi])[0]).tolist():
                    r = ref[j]
                    if r:
                        ol_target.append(r)
                        ol_entity.append(r in self.title_to_eid)
                fetched.append(True)
            ol_off.append(len(ol_target))
        t = b.table()
        out_links = pa.ListArray.from_arrays(
            pa.array(ol_off, pa.int32()),
            pa.StructArray.from_arrays(
                [pa.array(ol_target, pa.string()), pa.array(ol_entity, pa.bool_())],
                fields=list(LINK_ITEM),
            ),
        )
        t = t.append_column("out_links", out_links)
        t = t.append_column("fetched", pa.array(fetched, pa.bool_()))
        t = t.append_column("depth", batch["depth"].combine_chunks().cast(pa.int32()))
        t = t.append_column("round", batch["round"].combine_chunks().cast(pa.int32()))
        return t


@ray.remote(num_cpus=1)
def _fetch_extract_task(
    urls: List[str],
    depths: List[int],
    round_id: int,
    source: Tuple,
    round_dir: str,
    links_dir: str,
    max_depth: int,
    num_shards: int,
) -> Tuple[int, int, str, int]:
    """Fetch + extract one slice of the round's fetch set, write its
    page parquet into ``round_dir`` and its out-link partials into the
    next round's frontier buckets (``links_dir``; partition-on-write:
    the link merge happens in the owning shard's next schedule call).
    ``source`` = (store_dir, num_partitions, entities_ref, store_refs),
    passed inside a tuple so the task receives the broadcast handles
    themselves, which key the worker cache (see _fetch_state).

    Retry-idempotent: both file names are deterministic in the slice's
    urls, and each file is written to a temp name, then renamed.
    Returns (n_fetched, n_link_rows, page file stem, n_page_rows)."""
    batch = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "depth": pa.array(depths, pa.int32()),
            "round": pa.array([round_id] * len(urls), pa.int32()),
        }
    )
    out = FetchExtract(*source)(batch)
    pages = out.drop_columns(["out_links", "fetched", "depth"])
    fname = hashlib.md5("\x1f".join(urls).encode("utf-8")).hexdigest()
    # zstd over the default snappy: page text compresses ~2× smaller,
    # and at 100 TB the write path (disk / network) is the shared
    # resource, not CPU — on this box it measurably removes a disk
    # bottleneck at 32 cpus (round wall 9.8s -> 4.8s on the heavy
    # corpus).  temp + atomic rename: a cancelled/retried task must
    # never leave a truncated file at the final name
    page_path = os.path.join(round_dir, f"{fname}.parquet")
    page_tmp = f"{page_path}.tmp{os.getpid()}"
    pq.write_table(pages, page_tmp, compression="zstd", compression_level=1)
    os.replace(page_tmp, page_path)

    col = out["out_links"].combine_chunks()
    parent = pc.list_parent_indices(col)
    flat = pc.list_flatten(col)
    depths = pc.take(out["depth"], parent)
    links = pa.table(
        {
            "target": pc.struct_field(flat, "target"),
            "is_entity": pc.cast(pc.struct_field(flat, "is_entity"), pa.int8()),
            "src_depth": depths,
        }
    ).filter(pc.less(depths, pa.scalar(max_depth, pa.int32())))
    # partial aggregate within the slice; the target host is computed
    # HERE (distributed) so the driver never hashes urls
    agg = links.group_by("target", use_threads=False).aggregate(
        [("target", "count"), ("is_entity", "max"), ("src_depth", "min")]
    )
    cand = pa.table(
        {
            "url": agg["target"],
            "host": pa.array([host_of(u) for u in agg["target"].to_pylist()], pa.string()),
            "priority": pa.array([0.0] * agg.num_rows, pa.float64()),
            "depth": pc.cast(
                pc.add(agg["src_depth_min"], pa.scalar(1, pa.int32())), pa.int32()
            ),
            "partial_count": pc.cast(agg["target_count"], pa.int64()),
            "is_entity": pc.cast(agg["is_entity_max"], pa.int8()),
        }
    )
    n_link_rows = write_bucketed(cand, links_dir, f"links-{fname}", num_shards)
    n_fetched = pc.sum(pc.cast(out["fetched"], pa.int64())).as_py() or 0
    return n_fetched, n_link_rows, fname, pages.num_rows


def _schedule_round(
    in_dir: str,
    next_dir: str,
    shards: List,
    config: CrawlConfig,
    round_id: int,
):
    """Round scheduling over the bucketed frontier dir: one ``schedule``
    call per state shard whose bucket holds candidates, all in
    parallel, then the driver's global (priority desc, url) merge and
    budget cut.  Returns (fetch_tbl, deferred_rows_written,
    n_denied, n_admitted, refunds), where
    ``refunds[s]`` = {host: n} are the admissions on shard ``s`` that
    the global cut deferred (refunded by the shard's ``commit``).
    Deferred rows never touch the driver beyond the global cut — they
    are already on disk in ``next_dir`` when this returns."""
    bucket_ids = sorted(
        int(os.path.basename(p).split("=", 1)[1])
        for p in _glob.glob(os.path.join(in_dir, "bucket=*"))
    )
    if not bucket_ids:
        return EMPTY_FRONTIER, 0, 0, 0, {}
    num_shards = len(shards)
    results = ray.get(
        [shards[b].schedule.remote(round_id, in_dir, next_dir) for b in bucket_ids]
    )
    n_denied = sum(r[1] for r in results)
    n_admitted = sum(r[2] for r in results)
    n_deferred = sum(r[3] for r in results)
    admitted = pa.concat_tables([from_ipc(r[0]) for r in results])
    admitted = admitted.take(
        pc.sort_indices(admitted, sort_keys=[("priority", "descending"), ("url", "ascending")])
    )
    fetch_tbl = admitted.slice(0, config.round_budget)
    cut = admitted.slice(min(config.round_budget, admitted.num_rows))
    # URLs admitted per-host but cut by the GLOBAL round budget are
    # deferred, not fetched — their token + lifetime-budget charge is
    # refunded so host budgets are consumed by fetches only
    refunds: Dict[int, Dict[str, int]] = {}
    for h in cut["host"].to_pylist():
        counts = refunds.setdefault(politeness_shard_of(h, num_shards), {})
        counts[h] = counts.get(h, 0) + 1
    n_deferred += write_bucketed(
        as_candidates(cut), next_dir, "spill", num_shards
    )
    return fetch_tbl, n_deferred, n_denied, n_admitted, refunds


def _urls_by_shard(fetch_tbl: pa.Table, num_shards: int) -> List[List[str]]:
    """The fetch set's urls grouped by the state shard owning their host."""
    out: List[List[str]] = [[] for _ in range(num_shards)]
    owner: Dict[str, int] = {}
    for url, host in zip(fetch_tbl["url"].to_pylist(), fetch_tbl["host"].to_pylist()):
        s = owner.get(host)
        if s is None:
            s = owner[host] = politeness_shard_of(host, num_shards)
        out[s].append(url)
    return out


def crawl(
    store_dir: str,
    seeds: pa.Table,
    entities_ref,
    out_dir: str,
    config: CrawlConfig,
    *,
    ckpt_dir: Optional[str] = None,
    resume: bool = False,
    store_refs=None,
) -> Dict:
    """Run the crawl to frontier exhaustion.  Returns metrics.

    ``seeds``: (url, priority).  ``entities_ref``: ray.put of
    sources.docs.entities_index output.  Output: combined page rows
    under ``out_dir/round=r/`` + ``fetch_log`` parquet per round.

    The metrics (also written to ``out_dir/_metrics.json``) split the
    call's time into ``setup_s`` (state actors started and ready, seed
    frontier written or checkpoint restored), ``wall_sec`` (the rounds,
    per-round ``phases`` in ``rounds``, plus checkpoints), of which
    ``checkpoint_s`` is checkpoint writing, and ``teardown_s``.
    ``state_shards`` holds each shard's bloom size, insert count and
    estimated FPR.

    ``resume=True`` continues from the latest complete round under
    ``ckpt_dir`` and raises ``ValueError`` when there is none: a fresh
    crawl would delete the output the caller asked to continue."""
    from ..state.checkpoint import latest_round, load_checkpoint, save_checkpoint

    if resume and (ckpt_dir is None or latest_round(ckpt_dir) is None):
        raise ValueError(
            f"nothing to resume: no complete checkpoint round in ckpt_dir "
            f"{ckpt_dir!r}; {out_dir} is left as it is"
        )
    t_setup = time.time()
    os.makedirs(out_dir, exist_ok=True)
    num_shards = config.num_politeness_shards
    pol_cfg = {
        "capacity": config.capacity,
        "refill": config.refill,
        "refill_per_sec": config.refill_per_sec,
        "deny": config.deny,
        "budget": config.host_budget,
    }
    # one state actor per shard, each owning one frontier bucket
    # (state/shard.py)
    shards = [
        CrawlStateShardActor.remote(
            s,
            num_shards,
            config.num_bloom_shards * config.bloom_bits,
            pol_cfg,
            config.round_budget,
            config.entity_bonus,
        )
        for s in range(num_shards)
    ]

    # the state actors die with the crawl, also when a resume is refused
    # or a round raises
    try:
        start_round = 0
        # fetch-log rows over every round so far: the checkpoint records it,
        # and a resume checks the log it rebuilds the seen filters from
        fetched = 0
        log_dir = os.path.join(out_dir, "fetch_log")
        # The frontier lives on storage only: frontier_dir is the bucketed
        # parquet dir the next round schedules from, and frontier_rows its
        # candidate-row count (a pre-dedup upper bound; 0 ends the crawl).
        if resume:
            state = load_checkpoint(ckpt_dir, num_shards, out_dir=out_dir)
            start_round = state["round"] + 1
            frontier_dir = state["frontier_dir"]
            frontier_rows = state["frontier_rows"]
            fetched = state["fetched"]
            ready = [
                h.restore.remote(p, log_dir, state["round"])
                for h, p in zip(shards, state["politeness"])
            ]
        else:
            # a fresh crawl owns its output and checkpoint rounds: an earlier
            # crawl's pages, frontier and fetch log left there would mix into
            # this crawl's output, and a later resume would pick up its
            # checkpoint rounds
            shutil.rmtree(os.path.join(out_dir, "frontier"), ignore_errors=True)
            shutil.rmtree(log_dir, ignore_errors=True)
            stale = _glob.glob(os.path.join(out_dir, "round=*"))
            if ckpt_dir is not None:
                stale += _glob.glob(os.path.join(ckpt_dir, "round=*"))
            for d in stale:
                shutil.rmtree(d)
            urls = seeds["url"].to_pylist()
            seed_tbl = pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "host": pa.array([host_of(u) for u in urls], pa.string()),
                    "priority": seeds["priority"],
                    "depth": pa.array([0] * len(urls), pa.int32()),
                }
            ).cast(FRONTIER_SCHEMA)
            frontier_dir = frontier_round_dir(out_dir, 0)
            frontier_rows = write_bucketed(
                as_candidates(seed_tbl), frontier_dir, "seed", num_shards
            )
            ready = [h.stats.remote() for h in shards]

        # plasma preload: one copy of each partition in the object store,
        # mapped zero-copy by every fetch worker (callers may pass prebuilt
        # ``store_refs`` to reuse a warm store across crawls)
        if store_refs is None:
            store_refs = ray.put(preload_doc_store(store_dir, config.doc_store_partitions))
        source = (store_dir, config.doc_store_partitions, entities_ref, store_refs)

        # the first call on a fresh actor waits for its process to start;
        # the seed write and preload above ran meanwhile
        rebuilt = ray.get(ready)
        if resume and sum(rebuilt) != fetched:
            raise ValueError(
                f"the fetch log under {log_dir} holds {sum(rebuilt)} rows through "
                f"round {start_round - 1}, the checkpoint recorded {fetched}; "
                "re-crawl without --resume"
            )
        metrics: Dict = {
            "rounds": [],
            "urls_fetched": 0,
            "pages_extracted": 0,
            "setup_s": round(time.time() - t_setup, 3),
        }
        checkpoint_s = 0.0
        t_start = time.time()

        for round_id in range(start_round, config.max_rounds):
            if frontier_rows == 0:
                break
            t_round = time.time()
            phase_t: Dict[str, float] = {}

            def _mark(name: str, since=[time.time()]):
                now = time.time()
                phase_t[name] = round(now - since[0], 3)
                since[0] = now

            next_dir = frontier_round_dir(out_dir, round_id + 1)
            # next_dir receives the schedule deferrals and the fetch-task
            # link partials — clear any stale files from an interrupted
            # earlier attempt at this round
            shutil.rmtree(next_dir, ignore_errors=True)

            # scheduling: combine -> probe -> admission -> sort + budget
            # split; then one commit per shard marks the fetch set seen and
            # refunds the global cut (and returns the shard's politeness
            # snapshot when checkpointing) while the round fetches
            fetch_tbl, n_deferred, n_denied, n_admitted, refunds = _schedule_round(
                frontier_dir, next_dir, shards, config, round_id
            )
            commits = [
                h.commit.remote(urls, refunds.get(s, {}), ckpt_dir is not None)
                for s, (h, urls) in enumerate(zip(shards, _urls_by_shard(fetch_tbl, num_shards)))
            ]
            _mark("schedule")

            # fetch log: the crawl-ordering parity artifact, and the durable
            # seen state a resume rebuilds the filters from — temp + atomic
            # rename, so a kill never leaves a truncated round file
            os.makedirs(log_dir, exist_ok=True)
            log_tbl = fetch_tbl.append_column(
                "rank", pa.array(range(fetch_tbl.num_rows), pa.int64())
            ).append_column(
                "round", pa.array([round_id] * fetch_tbl.num_rows, pa.int32())
            )
            log_path = os.path.join(log_dir, f"round_{round_id}.parquet")
            pq.write_table(log_tbl, f"{log_path}.tmp")
            os.replace(f"{log_path}.tmp", log_path)
            fetched += fetch_tbl.num_rows
            _mark("log")

            n_links_rows = 0
            n_fetched = 0
            if fetch_tbl.num_rows:
                round_dir = os.path.join(out_dir, f"round={round_id}")
                os.makedirs(round_dir, exist_ok=True)
                urls = fetch_tbl["url"].to_pylist()
                depths = fetch_tbl["depth"].to_pylist()
                step = config.fetch_batch_size
                fused = ray.get(
                    [
                        _fetch_extract_task.remote(
                            urls[i : i + step],
                            depths[i : i + step],
                            round_id,
                            source,
                            round_dir,
                            next_dir,
                            config.max_depth,
                            num_shards,
                        )
                        for i in range(0, len(urls), step)
                    ]
                )
                _mark("fetch_extract")

                n_fetched = sum(r[0] for r in fused)
                n_links_rows = sum(r[1] for r in fused)
                # per-partition lineage manifest: every page file this
                # round, with its row count (north_rule "per-partition
                # lineage"); '_'-prefixed so parquet dataset scans skip it
                with open(os.path.join(round_dir, "_lineage.json"), "w") as fh:
                    json.dump(
                        {
                            "round": round_id,
                            "files": [
                                {"file": f"{f}.parquet", "rows": int(r)}
                                for _, _, f, r in sorted(fused, key=lambda r: r[2])
                            ],
                        },
                        fh,
                    )
                _mark("links")
            snaps = ray.get(commits)
            _mark("commit")

            # next frontier = deferred (politeness + over-budget) + new links
            frontier_candidates = frontier_rows
            consumed_dir = frontier_dir
            frontier_dir = next_dir
            frontier_rows = n_deferred + n_links_rows

            metrics["urls_fetched"] += fetch_tbl.num_rows
            metrics["pages_extracted"] += n_fetched
            metrics["rounds"].append(
                {
                    "round": round_id,
                    "candidates": frontier_candidates,
                    "admitted": n_admitted,
                    "fetched": fetch_tbl.num_rows,
                    "extracted": n_fetched,
                    "fetch_misses": fetch_tbl.num_rows - n_fetched,
                    "robots_denied": n_denied,
                    "deferred": n_deferred,
                    "new_frontier": frontier_rows,
                    "sec": round(time.time() - t_round, 3),
                    "phases": phase_t,
                }
            )

            if ckpt_dir is not None:
                t_ckpt = time.time()
                save_checkpoint(
                    ckpt_dir,
                    round_id,
                    snaps,
                    frontier_dir=frontier_dir,
                    frontier_rows=frontier_rows,
                    fetched=fetched,
                    out_dir=out_dir,
                )
                checkpoint_s += time.time() - t_ckpt
            # the round consumed its input frontier dir; only the next round
            # dir (referenced by the checkpoint just written) is still live
            shutil.rmtree(consumed_dir, ignore_errors=True)

        metrics["wall_sec"] = round(time.time() - t_start, 3)
        metrics["checkpoint_s"] = round(checkpoint_s, 3)
        metrics["urls_per_sec"] = round(
            metrics["urls_fetched"] / max(metrics["wall_sec"], 1e-9), 2
        )
        t_teardown = time.time()
        metrics["state_shards"] = ray.get([h.stats.remote() for h in shards])
    finally:
        for h in shards:
            ray.kill(h)
    metrics["teardown_s"] = round(time.time() - t_teardown, 3)
    # persist the run metrics beside the output (atomic rename): the
    # fetch/extract counters travel with the crawl artifact, not just
    # the caller's stdout (north_rule: lineage + metrics).  Underscore
    # prefix: dataset readers skip it (like _lineage.json)
    tmp = os.path.join(out_dir, "_metrics.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(metrics, fh, indent=1)
    os.rename(tmp, os.path.join(out_dir, "_metrics.json"))
    return metrics
