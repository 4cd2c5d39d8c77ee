"""Frontier-driven crawl over the doc store (north_rule core).

The reference approximates a crawl by a single pass over a dump in
file order (SURVEY.md §2.9); its "frontier" is implicitly the 1-hop
link neighborhood of the seed entity pages (reference README.md:5).
The rebuild makes that explicit: a priority URL frontier drained in
rounds, with

- a sharded **bloom seen-filter** (state/bloom.py) probed and marked
  by the per-bucket schedule tasks,
- per-host **politeness token buckets + robots budgets**
  (state/politeness.py), one batched admission call per frontier
  bucket; hot buckets are first pre-truncated per url-hash slice to
  each host's top-capacity (the exact-top-K combiner trick,
  SURVEY.md §7.4),
- a global **priority + round budget** split, deterministic via
  (priority desc, url asc) ordering — per-bucket local top-budget
  truncation + a bounded driver merge,
- **fetch+extract** as a task ``map_batches`` over the
  hash-partitioned doc store, running the stage-1 matcher per fetched
  page (stages/match.py) and emitting out-links for the next round,
- a **storage-resident frontier**: bucketed-by-host parquet dirs
  between rounds, written in place by the producers
  (partition-on-write — see the bucketed-frontier section below); the
  driver never holds the frontier,
- per-round **checkpoints** (frontier dir reference + bloom/
  politeness snapshots + manifest, state/checkpoint.py) making the
  crawl resumable, and per-round partitioned parquet output
  (``out_dir/round=r/``) with a ``round`` lineage column.

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
import ray.data

from ..functions.broadcast import cached, ref_id
from ..functions.hashing import stable_hash64, stable_hash64_array
from ..sources.doc_store import DocStoreReader, PlasmaDocStoreReader, preload_doc_store
from ..sources.docs import host_of
from ..stages.match import CombinedBuilder, SpanColumns
from ..state.bloom import BloomShardActor, ShardedSeenFilter
from ..state.politeness import PolitenessShardActor, politeness_shard_of
from ..state.storage import get_store

FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("priority", pa.float64()),
        ("depth", pa.int32()),
    ]
)

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
    num_bloom_shards: int = 4
    bloom_bits: int = 1 << 22
    seen_filter: str = "bloom"       # 'bloom' | 'cuckoo' (deletable)
    num_politeness_shards: int = 2
    # Distributed pre-scheduling of HOT buckets (default-on): a
    # single-domain crawl funnels every candidate into one frontier
    # bucket (bucket = f(host)), so one schedule task would do all the
    # combine/probe/sort work.  Buckets whose on-disk candidate bytes
    # exceed presplit_factor/num_buckets of the round total AND
    # presplit_min_bytes are pre-processed by a wave of url-hash-sliced
    # tasks (combine → bloom probe → robots-deny → per-host
    # top-capacity truncation) that leave compact presched files for
    # the admitting task — semantics-preserving because every
    # global-top-room candidate survives its slice's top-capacity cut.
    presplit_factor: float = 2.0
    presplit_min_bytes: int = 32 << 20
    presplit_slices: int = 8         # tasks per hot bucket in the wave
    entity_bonus: float = 10.0
    fetch_batch_size: int = 64
    doc_store_partitions: int = 32
    preload_store: bool = True       # pin partitions in plasma (zero-copy fetch)
    max_rounds: int = 64             # safety backstop
    # bucketed-frontier fan-out: num_politeness_shards × this many
    # buckets (each bucket is one schedule task + one file set per
    # producer).  0 = auto: ~1 bucket per 8 cluster CPUs (measured:
    # excess buckets cost more in per-task + bloom-RPC overhead than
    # they buy in parallelism — 32 buckets ran 2× slower than 4 on a
    # 32-CPU box; a 256-node cluster auto-sizes to ~1024).
    frontier_buckets_per_shard: int = 0

    def num_frontier_buckets(self) -> int:
        per_shard = self.frontier_buckets_per_shard
        if per_shard <= 0:
            try:
                cpus = int(ray.cluster_resources().get("CPU", 8))
            except Exception:  # noqa: BLE001
                cpus = 8
            per_shard = max(1, cpus // (8 * self.num_politeness_shards))
        return self.num_politeness_shards * per_shard


# The crawl loop launches a fresh Dataset execution per round, so
# per-execution actor pools would cold-start every round.
# Fetch/probe/mark stages are therefore stateless TASKS whose heavy
# state (doc-store partition cache, entity indexes) lives in the
# per-worker-process broadcast cache — loaded once per worker, shared
# across rounds (the long-lived-pool equivalent for a round-driven
# driver loop; at cluster scale the same cache amortizes across the
# whole crawl because Ray reuses worker processes).
def _fetch_state(store_dir: str, num_partitions: int, entities_ref, store_refs=None):
    def load():
        idx = (
            ray.get(entities_ref)
            if isinstance(entities_ref, ray.ObjectRef)
            else entities_ref
        )
        if store_refs is not None:
            reader = PlasmaDocStoreReader(ray.get(store_refs), num_partitions)
        else:
            reader = DocStoreReader(store_dir, num_partitions)
        return reader, idx["title_to_eid"], idx["eid_to_label"]

    # key includes the broadcast identities: the same store crawled
    # with different entity catalogs must not reuse a stale index
    return cached(("fetch", store_dir, ref_id(entities_ref), ref_id(store_refs)), load)


class FetchExtract:
    """Fetch stage body: admitted frontier rows -> combined page rows
    (+ out_links for the frontier).  Constructed per task, but all
    state comes from the worker-process cache (see _fetch_state)."""

    def __init__(self, store_dir: str, num_partitions: int, entities_ref, store_refs=None):
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


# --------------------------------------------------------------------------
# Bucketed frontier.  The frontier between rounds is NOT driver state:
# it is a directory of per-bucket parquet files
# (``out_dir/frontier/round=r/bucket=b/*.parquet``), bucketed by
# hash(host) at WRITE time by whoever produces candidates — the
# admission tasks (deferrals), the fused fetch tasks (out-link
# partials) and the driver (global-budget spill).  Because the shuffle
# happens at write time, round scheduling needs NO runtime all-to-all:
# one map task per bucket reads its own files, combines/dedups them
# with Arrow group_bys, probes the bloom shards, issues ONE batched
# admission call to its politeness shard (bucket % num_shards ==
# politeness_shard_of(host) by construction), writes its deferrals
# straight back to the next round's bucket dir, and returns only its
# locally-top-``round_budget`` admitted rows.  The driver transiently
# holds at most num_buckets × round_budget admitted rows for the
# global (priority desc, url) merge — never the frontier itself.
#
# Every file name is deterministic in (round, bucket, producer), so a
# resumed/retried round overwrites its own files instead of
# duplicating rows.

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


def frontier_bucket_of(host: str, num_buckets: int, num_shards: int) -> int:
    """Bucket by host so (a) every copy of a url lands in one bucket
    (same url -> same host) and (b) bucket % num_shards ==
    politeness_shard_of(host) — each bucket talks to exactly ONE
    politeness shard."""
    s = politeness_shard_of(host, num_shards)
    sub = stable_hash64("frontier-bucket", host) % max(num_buckets // num_shards, 1)
    return sub * num_shards + s


def _frontier_round_dir(out_dir: str, round_id: int) -> str:
    return os.path.join(out_dir, "frontier", f"round={round_id}")


def _as_candidates(t: pa.Table) -> pa.Table:
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


def _combine_candidates(t: pa.Table, entity_bonus: float) -> pa.Table:
    """Dedup candidate rows by url -> FRONTIER_SCHEMA.

    Link in-degree partials for the same url are SUMMED (priority =
    total count + bonus·max(is_entity)); final rows take max(priority);
    across both, max(priority) / min(depth) — the round semantics'
    frontier dedup (module docstring step 1), expressed as three Arrow
    group_bys."""
    if t.num_rows == 0:
        return _EMPTY_FRONTIER
    final_mask = pc.less(t["partial_count"], 0)
    finals = t.filter(final_mask)
    partials = t.filter(pc.invert(final_mask))
    parts: List[pa.Table] = []
    if finals.num_rows:
        fa = finals.group_by("url").aggregate(
            [("priority", "max"), ("depth", "min"), ("host", "min")]
        )
        parts.append(
            pa.table(
                {
                    "url": fa["url"],
                    "host": fa["host_min"],
                    "priority": fa["priority_max"],
                    "depth": fa["depth_min"],
                }
            ).cast(FRONTIER_SCHEMA)
        )
    if partials.num_rows:
        pagg = partials.group_by("url").aggregate(
            [("partial_count", "sum"), ("is_entity", "max"), ("depth", "min"), ("host", "min")]
        )
        prio = pc.add(
            pc.cast(pagg["partial_count_sum"], pa.float64()),
            pc.multiply(
                pc.cast(pagg["is_entity_max"], pa.float64()),
                pa.scalar(float(entity_bonus), pa.float64()),
            ),
        )
        parts.append(
            pa.table(
                {
                    "url": pagg["url"],
                    "host": pagg["host_min"],
                    "priority": prio,
                    "depth": pagg["depth_min"],
                }
            ).cast(FRONTIER_SCHEMA)
        )
    merged = pa.concat_tables(parts)
    if len(parts) == 2:
        ma = merged.group_by("url").aggregate(
            [("priority", "max"), ("depth", "min"), ("host", "min")]
        )
        merged = pa.table(
            {
                "url": ma["url"],
                "host": ma["host_min"],
                "priority": ma["priority_max"],
                "depth": ma["depth_min"],
            }
        ).cast(FRONTIER_SCHEMA)
    return merged


def _write_bucketed(
    cand: pa.Table, next_dir: str, fname: str, num_buckets: int, num_shards: int
) -> int:
    """Partition CANDIDATE_SCHEMA rows by frontier bucket and write one
    ``bucket=b/{fname}.parquet`` per touched bucket (deterministic name
    -> retry-idempotent).  Returns rows written."""
    if cand.num_rows == 0:
        return 0
    # hash each distinct host once: a round's candidates repeat a few
    # hosts many times, and every producer (seeds, deferrals, fetch-task
    # link partials) goes through here
    hosts = pc.unique(cand["host"])
    host_buckets = pa.array(
        [frontier_bucket_of(h, num_buckets, num_shards) for h in hosts.to_pylist()],
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


_SCHED_MARKER_COLS = ["n_denied", "n_admitted", "n_deferred"]


def _make_bucket_scheduler(
    in_dir: str,
    next_dir: str,
    bloom,
    politeness,
    config: CrawlConfig,
    round_id: int,
    num_buckets: int,
    presplit: frozenset = frozenset(),
):
    """One task per frontier bucket: read -> combine -> probe -> admit
    (ONE politeness call) -> defer-write -> local top-budget truncate.
    Emits admitted rows plus one counter marker row (url = null).

    ``num_buckets`` is resolved ONCE in crawl() and threaded through —
    auto mode re-queried cluster CPUs per call site, so an autoscaling
    cluster could give producers of the same round dir different
    host→bucket mappings, breaking the one-url-one-bucket invariant."""
    num_shards = config.num_politeness_shards

    def schedule_bucket(batch: pa.Table) -> pa.Table:
        store = get_store()
        out: List[pa.Table] = []
        for b in batch["bucket"].to_pylist():
            # a presplit (hot) bucket was already combined/probed/
            # denied/truncated by the wave-0 slice tasks — merge only
            # their compact presched survivor files
            pattern = "presched-*" if b in presplit else "*"
            files = store.list_tables(os.path.join(in_dir, f"bucket={b}", pattern))
            if not files:
                continue
            raw = pa.concat_tables([store.read_table(f) for f in files])
            cand = _combine_candidates(raw, config.entity_bonus)
            if cand.num_rows:
                seen = ShardedSeenFilter(bloom).probe(cand["url"].to_pylist())
                cand = cand.filter(pa.array([not s for s in seen]))
            n_denied = 0
            n_deferred = 0
            n_admitted = 0
            admit_parts: List[pa.Table] = []
            defer_parts: List[pa.Table] = []
            if cand.num_rows:
                idx = pc.sort_indices(
                    cand,
                    sort_keys=[
                        ("host", "ascending"),
                        ("priority", "descending"),
                        ("url", "ascending"),
                    ],
                )
                cand = cand.take(idx)
                hosts = cand["host"].to_pylist()
                # contiguous host runs
                runs: List[tuple] = []
                start = 0
                for i in range(1, len(hosts) + 1):
                    if i == len(hosts) or hosts[i] != hosts[start]:
                        runs.append((hosts[start], start, i))
                        start = i
                urls = cand["url"].to_pylist()
                statuses = ray.get(
                    politeness[b % num_shards].admit_many.remote(
                        round_id,
                        [host for host, _, _ in runs],
                        [urls[s:e] for _, s, e in runs],
                    )
                )
                admit_i: List[int] = []
                defer_i: List[int] = []
                for (_, s, _), stats in zip(runs, statuses):
                    for i, st in enumerate(stats, s):
                        if st == "admit":
                            admit_i.append(i)
                        elif st == "defer":
                            defer_i.append(i)
                        else:
                            n_denied += 1
                n_admitted = len(admit_i)
                admitted = cand.take(pa.array(admit_i, pa.int64()))
                # local truncate: rows beyond the bucket's own top
                # round_budget cannot make the global top, so defer AND
                # refund them here (source-tagged so the driver's
                # global-cut refund still lands)
                if admitted.num_rows > config.round_budget:
                    order = pc.sort_indices(
                        admitted,
                        sort_keys=[("priority", "descending"), ("url", "ascending")],
                    )
                    admitted = admitted.take(order)
                    cut = admitted.slice(config.round_budget)
                    admitted = admitted.slice(0, config.round_budget)
                    per_host: Dict[str, int] = {}
                    for h in cut["host"].to_pylist():
                        per_host[h] = per_host.get(h, 0) + 1
                    ray.get(
                        politeness[b % num_shards].refund_many.remote(
                            round_id, per_host, f"local:{b}"
                        )
                    )
                    defer_parts.append(cut)
                admit_parts.append(admitted)
                if defer_i:
                    defer_parts.append(cand.take(pa.array(defer_i, pa.int64())))
            defer_tbl = (
                pa.concat_tables(defer_parts) if defer_parts else _EMPTY_FRONTIER
            )
            n_deferred = _write_bucketed(
                _as_candidates(defer_tbl),
                next_dir,
                f"defer-{b}",
                num_buckets,
                num_shards,
            )
            admitted_tbl = (
                pa.concat_tables(admit_parts) if admit_parts else _EMPTY_FRONTIER
            )
            marker = pa.table(
                {
                    "url": pa.array([None], pa.string()),
                    "host": pa.array([""], pa.string()),
                    "priority": pa.array([0.0], pa.float64()),
                    "depth": pa.array([0], pa.int32()),
                    "n_denied": pa.array([n_denied], pa.int64()),
                    "n_admitted": pa.array([n_admitted], pa.int64()),
                    "n_deferred": pa.array([n_deferred], pa.int64()),
                }
            )
            zeros = pa.array([0] * admitted_tbl.num_rows, pa.int64())
            for c in _SCHED_MARKER_COLS:
                admitted_tbl = admitted_tbl.append_column(c, zeros)
            out.append(pa.concat_tables([admitted_tbl, marker]))
        if not out:
            empty = _EMPTY_FRONTIER
            for c in _SCHED_MARKER_COLS:
                empty = empty.append_column(c, pa.array([], pa.int64()))
            return empty
        return pa.concat_tables(out)

    return schedule_bucket


@ray.remote(num_cpus=1)
def _presplit_task(
    bucket: int,
    slice_id: int,
    n_slices: int,
    in_dir: str,
    next_dir: str,
    bloom,
    config: CrawlConfig,
    num_buckets: int,
) -> Tuple[int, int]:
    """Wave-0 pre-scheduling of one url-hash SLICE of a hot bucket:
    combine partials → bloom probe → robots-deny → per-host sort +
    top-capacity truncation.  Survivors land as a compact
    ``presched-{slice}`` file the admitting wave-1 task merges; the
    truncated tail is deferred to the next round.  Exact because (a)
    every copy/partial of a url shares its slice (url hash), so
    combine is complete, and (b) a host's global top-room candidates
    are within each slice's local top-capacity.  Retry-idempotent:
    reads + deterministic atomic writes only; never touches the
    politeness actors.  Returns (n_denied, n_deferred)."""
    store = get_store()
    bdir = os.path.join(in_dir, f"bucket={bucket}")
    files = [
        f
        for f in store.list_tables(os.path.join(bdir, "*"))
        if not os.path.basename(f).startswith("presched-")
    ]
    if not files:
        return 0, 0
    raw = pa.concat_tables([store.read_table(f) for f in files])
    mine = raw.filter(
        pa.array(
            stable_hash64_array(raw["url"].to_pylist(), "presplit") % n_slices
            == slice_id
        )
    )
    cand = _combine_candidates(mine, config.entity_bonus)
    if cand.num_rows:
        seen = ShardedSeenFilter(bloom).probe(cand["url"].to_pylist())
        cand = cand.filter(pa.array([not s for s in seen]))
    n_denied = 0
    n_deferred = 0
    if not cand.num_rows:
        return 0, 0
    idx = pc.sort_indices(
        cand,
        sort_keys=[
            ("host", "ascending"),
            ("priority", "descending"),
            ("url", "ascending"),
        ],
    )
    cand = cand.take(idx)
    hosts = cand["host"].to_pylist()
    urls = cand["url"].to_pylist()
    keep_idx: List[int] = []
    defer_idx: List[int] = []
    start = 0
    for i in range(1, len(hosts) + 1):
        if i == len(hosts) or hosts[i] != hosts[start]:
            prefixes = tuple(config.deny.get(hosts[start], ()))
            kept = 0
            for k in range(start, i):
                if prefixes and any(urls[k].startswith(p) for p in prefixes):
                    n_denied += 1
                elif kept < config.capacity:
                    keep_idx.append(k)
                    kept += 1
                else:
                    defer_idx.append(k)
            start = i
    if defer_idx:
        n_deferred = _write_bucketed(
            _as_candidates(cand.take(pa.array(defer_idx, pa.int64()))),
            next_dir,
            f"psdefer-{bucket}-{slice_id}",
            num_buckets,
            config.num_politeness_shards,
        )
    keep = cand.take(pa.array(keep_idx, pa.int64()))
    if keep.num_rows:
        store.write_table(
            _as_candidates(keep),
            os.path.join(bdir, f"presched-{slice_id}{store.suffix}"),
        )
    return n_denied, n_deferred


@ray.remote(num_cpus=1)
def _bucket_schedule_task(
    bucket_ids: List[int],
    in_dir: str,
    next_dir: str,
    bloom,
    politeness,
    config: CrawlConfig,
    round_id: int,
    num_buckets: int,
    presplit: frozenset = frozenset(),
) -> pa.Table:
    """One Ray task scheduling a CHUNK of frontier buckets (see
    _schedule_round_bucketed): loops the shared scheduler body over
    its buckets and returns the concatenated admitted+marker rows.
    Retry-idempotent — every write inside is deterministically named
    and the politeness admit cache replays."""
    fn = _make_bucket_scheduler(
        in_dir, next_dir, bloom, politeness, config, round_id, num_buckets, presplit
    )
    return fn(pa.table({"bucket": pa.array(bucket_ids, pa.int32())}))


def _schedule_round_bucketed(
    in_dir: str,
    next_dir: str,
    bloom,
    politeness,
    config: CrawlConfig,
    round_id: int,
    num_buckets: int,
):
    """Distributed round scheduling over the bucketed frontier dir.
    Returns (fetch_tbl, deferred_rows_written, n_denied, n_admitted,
    n_presplit_buckets).  Deferred rows never touch the driver — they
    are already on disk in ``next_dir`` when this returns.

    Scheduling is kilobyte-sized bookkeeping at a fixed fan-out (one
    unit per bucket), so it runs as PLAIN Ray tasks — one task per
    bucket chunk — rather than a per-round Dataset execution: the
    streaming executor's launch cost (~0.3 s) dominated small rounds,
    while task submission is ~ms.  Each task loops its chunk of
    buckets through the same scheduler body."""
    bucket_ids = sorted(
        int(os.path.basename(p).split("=", 1)[1])
        for p in _glob.glob(os.path.join(in_dir, "bucket=*"))
    )
    if not bucket_ids:
        return _EMPTY_FRONTIER, 0, 0, 0, 0
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001
        cpus = 8

    # wave 0 (default-on): pre-schedule HOT buckets with url-hash
    # sliced tasks.  Detection is on-disk bucket byte skew — a
    # single-domain crawl funnels every candidate into one bucket, so
    # that bucket's bytes dwarf total/num_buckets.  Byte sizes come
    # from a directory stat, no reads.
    presplit: frozenset = frozenset()
    n_denied0 = 0
    n_deferred0 = 0
    sizes = {
        b: sum(
            os.path.getsize(f)
            for f in _glob.glob(os.path.join(in_dir, f"bucket={b}", "*"))
            if not os.path.basename(f).startswith("presched-")
        )
        for b in bucket_ids
    }
    total_bytes = sum(sizes.values())
    rel_cut = (
        total_bytes * config.presplit_factor / num_buckets if num_buckets > 1 else 0.0
    )
    cut = max(rel_cut, float(config.presplit_min_bytes))
    # >= so a fully-skewed layout still trips when num_buckets is
    # small (one bucket holding everything == factor×fair-share exactly
    # at num_buckets == factor)
    hot = [b for b in bucket_ids if sizes[b] > 0 and sizes[b] >= cut]
    if hot:
        n_slices = max(int(config.presplit_slices), 1)
        pre_refs = [
            _presplit_task.remote(
                b, j, n_slices, in_dir, next_dir, bloom, config, num_buckets
            )
            for b in hot
            for j in range(n_slices)
        ]
        for nd, nf in ray.get(pre_refs):
            n_denied0 += nd
            n_deferred0 += nf
        presplit = frozenset(hot)

    n_tasks = min(len(bucket_ids), max(cpus, 1))
    chunks = [bucket_ids[i::n_tasks] for i in range(n_tasks)]
    refs = [
        _bucket_schedule_task.remote(
            chunk,
            in_dir,
            next_dir,
            bloom,
            politeness,
            config,
            round_id,
            num_buckets,
            presplit,
        )
        for chunk in chunks
        if chunk
    ]
    parts = [t for t in ray.get(refs) if t.num_rows]
    if not parts:
        return _EMPTY_FRONTIER, n_deferred0, n_denied0, 0, len(presplit)
    allt = pa.concat_tables(parts)
    marker_mask = pc.is_null(allt["url"])
    markers = allt.filter(marker_mask)
    n_denied = int(pc.sum(markers["n_denied"]).as_py() or 0)
    n_admitted = int(pc.sum(markers["n_admitted"]).as_py() or 0)
    n_deferred = int(pc.sum(markers["n_deferred"]).as_py() or 0)
    admitted = allt.filter(pc.invert(marker_mask)).select(
        ["url", "host", "priority", "depth"]
    )
    order = pc.sort_indices(
        admitted, sort_keys=[("priority", "descending"), ("url", "ascending")]
    )
    admitted = admitted.take(order)
    fetch_tbl = admitted.slice(0, config.round_budget).cast(FRONTIER_SCHEMA)
    cut = admitted.slice(min(config.round_budget, admitted.num_rows))
    if cut.num_rows:
        _refund_over_budget(politeness, round_id, cut["host"].to_pylist())
        n_deferred += _write_bucketed(
            _as_candidates(cut),
            next_dir,
            "spill",
            num_buckets,
            config.num_politeness_shards,
        )
    if fetch_tbl.num_rows:
        ShardedSeenFilter(bloom).set_seen(fetch_tbl["url"].to_pylist())
    return (
        fetch_tbl,
        n_deferred + n_deferred0,
        n_denied + n_denied0,
        n_admitted,
        len(presplit),
    )


def _refund_over_budget(politeness, round_id: int, cut_hosts: List[str]) -> None:
    """URLs admitted per-host but cut by the GLOBAL round budget are
    deferred, not fetched — refund their token + lifetime-budget charge
    (one batched idempotent call per politeness shard) so host budgets
    are consumed by fetches only, never by deferrals re-admitted later."""
    if not cut_hosts:
        return
    per_host: Dict[str, int] = {}
    for h in cut_hosts:
        per_host[h] = per_host.get(h, 0) + 1
    by_shard: Dict[int, Dict[str, int]] = {}
    for h, n in per_host.items():
        by_shard.setdefault(politeness_shard_of(h, len(politeness)), {})[h] = n
    ray.get(
        [
            politeness[s].refund_many.remote(round_id, counts)
            for s, counts in by_shard.items()
        ]
    )


_EMPTY_FRONTIER = pa.table(
    {
        "url": pa.array([], pa.string()),
        "host": pa.array([], pa.string()),
        "priority": pa.array([], pa.float64()),
        "depth": pa.array([], pa.int32()),
    }
)


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
    under ``out_dir/round=r/`` + ``fetch_log`` parquet per round."""
    from ..state.checkpoint import latest_round, load_checkpoint, save_checkpoint

    os.makedirs(out_dir, exist_ok=True)

    if config.seen_filter == "cuckoo":
        from ..state.cuckoo import CuckooShardActor

        bloom = [CuckooShardActor.remote() for _ in range(config.num_bloom_shards)]
    else:
        bloom = [
            BloomShardActor.remote(config.bloom_bits)
            for _ in range(config.num_bloom_shards)
        ]
    pol_cfg = {
        "capacity": config.capacity,
        "refill": config.refill,
        "refill_per_sec": config.refill_per_sec,
        "deny": config.deny,
        "budget": config.host_budget,
    }
    politeness = [
        PolitenessShardActor.remote(pol_cfg)
        for _ in range(config.num_politeness_shards)
    ]

    num_buckets = config.num_frontier_buckets()
    num_shards = config.num_politeness_shards
    start_round = 0
    # The frontier lives on storage only: frontier_dir is the bucketed
    # parquet dir the next round schedules from, and frontier_rows its
    # candidate-row count (a pre-dedup upper bound; 0 ends the crawl).
    if resume and ckpt_dir is not None and latest_round(ckpt_dir) is not None:
        state = load_checkpoint(ckpt_dir, out_dir=out_dir)
        start_round = state["round"] + 1
        frontier_dir = state["frontier_dir"]
        frontier_rows = state["frontier_rows"]
        ShardedSeenFilter(bloom).restore(state["bloom"])
        ray.get(
            [h.restore.remote(s) for h, s in zip(politeness, state["politeness"])]
        )
    else:
        shutil.rmtree(os.path.join(out_dir, "frontier"), ignore_errors=True)
        urls = seeds["url"].to_pylist()
        seed_tbl = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "host": pa.array([host_of(u) for u in urls], pa.string()),
                "priority": seeds["priority"],
                "depth": pa.array([0] * len(urls), pa.int32()),
            }
        ).cast(FRONTIER_SCHEMA)
        frontier_dir = _frontier_round_dir(out_dir, 0)
        frontier_rows = _write_bucketed(
            _as_candidates(seed_tbl), frontier_dir, "seed", num_buckets, num_shards
        )

    # optional plasma preload: one copy of each partition in the
    # object store, mapped zero-copy by every fetch worker (callers may
    # pass prebuilt ``store_refs`` to reuse a warm store across crawls)
    _store_refs_local = None
    if store_refs is None and config.preload_store:
        _store_refs_local = preload_doc_store(store_dir, config.doc_store_partitions)
        store_refs = ray.put(_store_refs_local)

    # spin up the state actors before round 0 (first .remote on a fresh
    # actor pays process startup; do it once, in parallel)
    ray.get(
        [h.probe.remote([]) for h in bloom]
        + [h.admit_many.remote(-1, [], []) for h in politeness]
    )

    metrics: Dict = {"rounds": [], "urls_fetched": 0, "pages_extracted": 0}
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

        next_dir = _frontier_round_dir(out_dir, round_id + 1)
        # next_dir receives the schedule deferrals and the fetch-task
        # link partials — clear any stale files from an interrupted
        # earlier attempt at this round
        shutil.rmtree(next_dir, ignore_errors=True)

        # scheduling: combine -> probe -> admission -> sort + budget
        # split, then the fetch set is marked seen
        (
            fetch_tbl,
            n_deferred,
            n_denied,
            n_admitted,
            n_presplit,
        ) = _schedule_round_bucketed(
            frontier_dir, next_dir, bloom, politeness, config, round_id, num_buckets
        )
        _mark("schedule")

        # fetch log (crawl-ordering parity artifact)
        log_dir = os.path.join(out_dir, "fetch_log")
        os.makedirs(log_dir, exist_ok=True)
        log_tbl = fetch_tbl.append_column(
            "rank", pa.array(range(fetch_tbl.num_rows), pa.int64())
        ).append_column(
            "round", pa.array([round_id] * fetch_tbl.num_rows, pa.int32())
        )
        pq.write_table(log_tbl, os.path.join(log_dir, f"round_{round_id}.parquet"))
        _mark("log")

        n_links_rows = 0
        if fetch_tbl.num_rows:
            # one Arrow slice per fetch batch: from_arrow with a single
            # table would yield ONE block -> ONE serial map task
            with_round = fetch_tbl.append_column(
                "round", pa.array([round_id] * fetch_tbl.num_rows, pa.int32())
            )
            step = config.fetch_batch_size
            slices = [
                with_round.slice(i, step)
                for i in range(0, with_round.num_rows, step)
            ]
            fetch_in = ray.data.from_arrow(slices)

            # ONE fused execution per round: fetch + extract + write the
            # page parquet from inside the task (deterministic file name
            # per batch -> a retried task overwrites its own file, never
            # duplicates) + per-batch link partial aggregates, written
            # straight into the next round's frontier dir
            # (partition-on-write: the link merge happens per-bucket at
            # the next schedule, no groupby execution, nothing returned
            # to the driver but counters).
            round_dir = os.path.join(out_dir, f"round={round_id}")
            os.makedirs(round_dir, exist_ok=True)
            max_depth = config.max_depth
            links_dir = next_dir

            def fetch_extract_fused(batch: pa.Table) -> pa.Table:
                out = FetchExtract(
                    store_dir, config.doc_store_partitions, entities_ref, store_refs
                )(batch)
                pages = out.drop_columns(["out_links", "fetched", "depth"])
                fname = hashlib.blake2b(
                    ("\x1f".join(batch["url"].to_pylist())).encode("utf-8"),
                    digest_size=10,
                ).hexdigest()
                # zstd over the default snappy: page text compresses
                # ~2× smaller, and at 100 TB the write path (disk /
                # network) is the shared resource, not CPU — on this
                # box it measurably removes a disk bottleneck at 32
                # cpus (round wall 9.8s -> 4.8s on the heavy corpus)
                # temp + atomic rename: a cancelled/retried task must
                # never leave a truncated file at the final name
                page_path = os.path.join(round_dir, f"{fname}.parquet")
                page_tmp = f"{page_path}.tmp{os.getpid()}"
                pq.write_table(
                    pages,
                    page_tmp,
                    compression="zstd",
                    compression_level=1,
                )
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
                # partial aggregate within the batch; target host is
                # computed HERE (distributed) so the driver never
                # hashes urls
                agg = links.group_by("target").aggregate(
                    [("target", "count"), ("is_entity", "max"), ("src_depth", "min")]
                )
                agg = agg.append_column(
                    "host",
                    pa.array([host_of(u) for u in agg["target"].to_pylist()], pa.string()),
                )
                nf = pc.sum(pc.cast(out["fetched"], pa.int64())).as_py() or 0
                cand = pa.table(
                    {
                        "url": agg["target"],
                        "host": agg["host"],
                        "priority": pa.array([0.0] * agg.num_rows, pa.float64()),
                        "depth": pc.cast(
                            pc.add(agg["src_depth_min"], pa.scalar(1, pa.int32())),
                            pa.int32(),
                        ),
                        "partial_count": pc.cast(agg["target_count"], pa.int64()),
                        "is_entity": pc.cast(agg["is_entity_max"], pa.int8()),
                    }
                )
                n_rows = _write_bucketed(
                    cand, links_dir, f"links-{fname}", num_buckets, num_shards
                )
                return pa.table(
                    {
                        "n_fetched": pa.array([nf], pa.int64()),
                        "n_link_rows": pa.array([n_rows], pa.int64()),
                        "fname": pa.array([fname], pa.string()),
                        "n_rows": pa.array([pages.num_rows], pa.int64()),
                    }
                )

            # drain via iter_batches, NOT to_arrow_refs(): in Ray 2.49
            # to_arrow_refs() calls schema(fetch_if_missing=True) after
            # consuming the bundles, which launches a SECOND limit-1
            # execution of this plan — re-running these side-effecting
            # tasks and cancelling them mid-write once one row arrives,
            # leaving truncated parquet files for the next round to
            # trip over.  iter_batches drains one execution and stops.
            fused_parts = list(
                fetch_in.map_batches(
                    fetch_extract_fused,
                    batch_format="pyarrow",
                    batch_size=config.fetch_batch_size,
                    num_cpus=1,
                ).iter_batches(batch_size=None, batch_format="pyarrow")
            )
            fused = pa.concat_tables(fused_parts, promote_options="default")
            _mark("fetch_extract")

            n_fetched = int(pc.sum(fused["n_fetched"]).as_py() or 0)
            n_links_rows = int(pc.sum(fused["n_link_rows"]).as_py() or 0)
            n_missing = fetch_tbl.num_rows - n_fetched
            lineage_rows = list(
                zip(fused["fname"].to_pylist(), fused["n_rows"].to_pylist())
            )
            # per-partition lineage manifest: every page file this
            # round, with its row count (north_rule "per-partition
            # lineage"); '_'-prefixed so parquet dataset scans skip it
            import json as _json

            with open(os.path.join(round_dir, "_lineage.json"), "w") as fh:
                _json.dump(
                    {
                        "round": round_id,
                        "files": [
                            {"file": f"{f}.parquet", "rows": int(r)}
                            for f, r in sorted(lineage_rows)
                        ],
                    },
                    fh,
                )
            _mark("links")
        else:
            n_fetched = 0
            n_missing = 0

        # next frontier = deferred (politeness + over-budget) + new links
        frontier_candidates = frontier_rows
        consumed_dir = frontier_dir
        frontier_dir = next_dir
        frontier_rows = n_deferred + n_links_rows
        _mark("frontier")

        metrics["urls_fetched"] += fetch_tbl.num_rows
        metrics["pages_extracted"] += n_fetched
        metrics["rounds"].append(
            {
                "round": round_id,
                "candidates": frontier_candidates,
                "admitted": n_admitted,
                "fetched": fetch_tbl.num_rows,
                "extracted": n_fetched,
                "fetch_misses": n_missing,
                "robots_denied": n_denied,
                "deferred": n_deferred,
                "new_frontier": frontier_rows,
                "presplit_buckets": n_presplit,
                "sec": round(time.time() - t_round, 3),
                "phases": phase_t,
            }
        )

        if ckpt_dir is not None:
            save_checkpoint(
                ckpt_dir,
                round_id,
                ShardedSeenFilter(bloom).snapshot(),
                ray.get([h.snapshot.remote() for h in politeness]),
                frontier_dir=frontier_dir,
                frontier_rows=frontier_rows,
                out_dir=out_dir,
            )
        # the round consumed its input frontier dir; only the next round
        # dir (referenced by the checkpoint just written) is still live
        shutil.rmtree(consumed_dir, ignore_errors=True)

    metrics["wall_sec"] = round(time.time() - t_start, 3)
    metrics["urls_per_sec"] = round(
        metrics["urls_fetched"] / max(metrics["wall_sec"], 1e-9), 2
    )
    # persist the run metrics beside the output (atomic rename): the
    # fetch/extract counters travel with the crawl artifact, not just
    # the caller's stdout (north_rule: lineage + metrics)
    import json as _json

    # underscore prefix: dataset readers skip it (like _lineage.json)
    tmp = os.path.join(out_dir, "_metrics.json.tmp")
    with open(tmp, "w") as fh:
        _json.dump(metrics, fh, indent=1)
    os.rename(tmp, os.path.join(out_dir, "_metrics.json"))
    for h in bloom + politeness:
        ray.kill(h)
    return metrics
