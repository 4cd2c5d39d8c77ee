"""One crawl state shard: the seen-filter bits and the politeness
buckets of every host hashing to it, and the scheduler for its
frontier bucket (owner computes).

A host's URLs, its token bucket and its frontier bucket share one
shard (``politeness_shard_of(host)``; the frontier has one bucket per
shard, state/frontier.py).  Scheduling the bucket — read → combine →
bloom probe → per-host admission → write deferrals → local top-budget
— therefore touches only this shard's own state, and a round makes one
``schedule`` call per shard with no blocking round trip inside it; the
shards schedule in parallel, so the shard count is the round's
scheduling parallelism.  After the driver's global budget cut, one
``commit`` call per shard marks the fetched URLs seen, refunds the
cut, and (when the crawl checkpoints) returns the politeness snapshot.
The seen filter is not snapshotted: ``restore`` rebuilds it from the
fetch log, which holds exactly the URLs ``commit`` marked.

The class is plain Python, so tests drive it in-process;
``CrawlStateShardActor`` is the deployed form: one per shard, kept by
the driver across crawls (``pipelines/crawl.py``).  A crawl checks an
idle actor out, puts it into its own fresh state with ``reset`` (on
resume, ``restore`` follows), and on success ``clear``s it and checks
it back in, so each actor process starts once per driver.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .bloom import BloomShard
from .frontier import (
    EMPTY_FRONTIER,
    as_candidates,
    combine_candidates,
    to_ipc,
    write_bucketed,
)
from .politeness import PolitenessShard, politeness_shard_of
from .storage import get_store


class CrawlStateShard:
    def __init__(self, *args):
        # the actor starts bare; crawl() resets it to each crawl's shard
        if args:
            self.reset(*args)

    def reset(
        self,
        shard_id: int,
        num_shards: int,
        bloom_bits: int,
        politeness_config: Dict,
        round_budget: int,
        entity_bonus: float,
    ) -> None:
        """Put the shard into the fresh state of shard ``shard_id`` of a
        new crawl: empty seen filter, no host buckets."""
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.bloom = BloomShard(bloom_bits)
        self.politeness = PolitenessShard(politeness_config)
        self.round_budget = round_budget
        self.entity_bonus = entity_bonus

    def clear(self) -> None:
        """Drop the crawl's state, so an idle shard holds no bloom bits."""
        self.bloom = self.politeness = None

    def schedule(
        self, round_id: int, in_dir: str, next_dir: str
    ) -> Tuple[bytes, int, int, int]:
        """Schedule this shard's frontier bucket -> (admitted rows (at
        most ``round_budget``, FRONTIER_SCHEMA) as Arrow IPC bytes
        (``frontier.from_ipc``), n_denied, n_admitted, n_deferred).
        Deferred rows are written to ``next_dir`` as ``defer-{shard}``."""
        admitted, n_denied, n_admitted, n_deferred = self._schedule(round_id, in_dir, next_dir)
        return to_ipc(admitted), n_denied, n_admitted, n_deferred

    def _schedule(
        self, round_id: int, in_dir: str, next_dir: str
    ) -> Tuple[pa.Table, int, int, int]:
        store = get_store()
        bucket = self.shard_id
        files = store.list_tables(os.path.join(in_dir, f"bucket={bucket}", "*"))
        if not files:
            return EMPTY_FRONTIER, 0, 0, 0
        raw = pa.concat_tables([store.read_table(f) for f in files])
        cand = combine_candidates(raw, self.entity_bonus)
        if cand.num_rows:
            seen = self.bloom.probe(cand["url"].to_pylist())
            cand = cand.filter(pc.invert(pa.array(seen, pa.bool_())))
        if not cand.num_rows:
            return EMPTY_FRONTIER, 0, 0, 0
        cand = cand.take(
            pc.sort_indices(
                cand,
                sort_keys=[
                    ("host", "ascending"),
                    ("priority", "descending"),
                    ("url", "ascending"),
                ],
            )
        )
        hosts = cand["host"].to_pylist()
        urls = cand["url"].to_pylist()
        # contiguous host runs, each in (priority desc, url) order — the
        # order HostPolicy.admit requires
        runs: List[Tuple[str, int, int]] = []
        start = 0
        for i in range(1, len(hosts) + 1):
            if i == len(hosts) or hosts[i] != hosts[start]:
                runs.append((hosts[start], start, i))
                start = i
        statuses = self.politeness.admit_many(
            round_id, [h for h, _, _ in runs], [urls[s:e] for _, s, e in runs]
        )
        admit_i: List[int] = []
        defer_i: List[int] = []
        n_denied = 0
        for (_, s, _), stats in zip(runs, statuses):
            for i, st in enumerate(stats, s):
                if st == "admit":
                    admit_i.append(i)
                elif st == "defer":
                    defer_i.append(i)
                else:
                    n_denied += 1
        admitted = cand.take(pa.array(admit_i, pa.int64()))
        defer_parts: List[pa.Table] = []
        # local truncate: rows beyond the bucket's own top round_budget
        # cannot make the global top, so defer AND refund them here
        if admitted.num_rows > self.round_budget:
            admitted = admitted.take(
                pc.sort_indices(
                    admitted, sort_keys=[("priority", "descending"), ("url", "ascending")]
                )
            )
            cut = admitted.slice(self.round_budget)
            admitted = admitted.slice(0, self.round_budget)
            per_host: Dict[str, int] = {}
            for h in cut["host"].to_pylist():
                per_host[h] = per_host.get(h, 0) + 1
            self.politeness.refund_many(per_host)
            defer_parts.append(cut)
        defer_parts.append(cand.take(pa.array(defer_i, pa.int64())))
        n_deferred = write_bucketed(
            as_candidates(pa.concat_tables(defer_parts)),
            next_dir,
            f"defer-{bucket}",
            self.num_shards,
        )
        return admitted, n_denied, len(admit_i), n_deferred

    def commit(
        self,
        fetched_urls: Sequence[str],
        refunds: Dict[str, int],
        snapshot: bool = False,
    ) -> Optional[Dict]:
        """End of the round's scheduling: mark the fetched URLs seen,
        refund the admissions the driver's global budget cut, and return
        the politeness snapshot when the crawl checkpoints this round."""
        self.bloom.set_seen(fetched_urls)
        self.politeness.refund_many(refunds)
        return self.politeness.snapshot() if snapshot else None

    def stats(self) -> Dict:
        return {
            "bloom_bits": self.bloom.num_bits,
            "bloom_inserts": self.bloom.count,
            "bloom_fpr_est": self.bloom.estimated_fpr(),
        }

    def restore(self, politeness_snap: Dict, log_dir: str, through_round: int) -> int:
        """Resume from a checkpoint: restore the politeness buckets and
        rebuild the seen filter from the fetch log of rounds
        0..``through_round`` — the rows whose host this shard owns, the
        same urls ``commit`` marked, so the bits and insert count equal
        the live shard's.  Returns the number of rows inserted; a missing
        or unreadable log file raises."""
        self.politeness.restore(politeness_snap)
        n = 0
        for r in range(through_round + 1):
            path = os.path.join(log_dir, f"round_{r}.parquet")
            try:
                log = pq.read_table(path, columns=["url", "host"])
            except (OSError, pa.ArrowInvalid) as e:
                raise ValueError(
                    f"fetch log of round {r} is missing or unreadable: {e}; "
                    "re-crawl without --resume"
                ) from e
            # each distinct host of the round hashed once
            hosts = pc.dictionary_encode(log["host"].combine_chunks())
            owned = [
                politeness_shard_of(h, self.num_shards) == self.shard_id
                for h in hosts.dictionary.to_pylist()
            ]
            mine = pc.take(pa.array(owned, pa.bool_()), hosts.indices)
            urls = log["url"].filter(mine).to_pylist()
            self.bloom.set_seen(urls)
            n += len(urls)
        return n


CrawlStateShardActor = ray.remote(num_cpus=0)(CrawlStateShard)
