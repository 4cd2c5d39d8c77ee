"""Crawl machinery tests: bloom shards, politeness, ordering parity
vs the pure-Python simulator, checkpoint/resume, hot-bucket presplit."""

import glob
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

from entity_context_crawler_ray.pipelines.crawl import CrawlConfig, crawl
from entity_context_crawler_ray.sources.doc_store import (
    DocStoreReader,
    write_doc_store,
)
from entity_context_crawler_ray.sources.docs import (
    entity_catalog,
    entities_index,
    read_docs,
    seed_table,
)
from entity_context_crawler_ray.state.bloom import BloomShard
from entity_context_crawler_ray.state.politeness import HostPolicy

from crawl_sim import simulate_crawl

SF = "/root/testdata/sf0.001"
BASE = "/tmp/ecc_test_crawl"


def test_bloom_shard_basics():
    b = BloomShard(num_bits=1 << 16)
    urls = [f"u{i}" for i in range(100)]
    assert b.probe(urls) == [False] * 100
    b.set_seen(urls[:50])
    probed = b.probe(urls)
    assert probed[:50] == [True] * 50
    assert sum(probed[50:]) <= 1  # tiny FP allowance
    # idempotent re-mark
    b.set_seen(urls[:50])
    assert b.probe(urls[:50]) == [True] * 50
    # snapshot round-trip
    snap = b.snapshot()
    b2 = BloomShard(num_bits=1 << 16)
    b2.restore(snap)
    assert b2.probe(urls[:50]) == [True] * 50


def test_host_policy_budget_and_robots():
    p = HostPolicy(capacity=2, refill=1, deny_prefixes=("bad",), crawl_budget=4)
    adm, dfr, den = p.admit(0, ["a", "b", "bad1", "c"])
    assert adm == ["a", "b"] and dfr == ["c"] and den == ["bad1"]
    adm, dfr, den = p.admit(1, ["c", "d"])  # 1 token refilled
    assert adm == ["c"] and dfr == ["d"]
    adm, dfr, den = p.admit(2, ["d", "e"])  # lifetime budget 4: 1 room left
    assert adm == ["d"] and "e" in dfr + den


@pytest.fixture(scope="module")
def store_and_inputs():
    shutil.rmtree(BASE, ignore_errors=True)
    store = f"{BASE}/docstore"
    docs_ds = read_docs(SF)
    write_doc_store(docs_ds, store, num_partitions=8)
    ents = entity_catalog(SF)
    ref = ray.put(entities_index(ents))
    docs_local = {
        r["doc_id"]: r["spans"] for r in docs_ds.iter_rows()
    }
    seeds = seed_table(SF)
    return store, ref, docs_local, entities_index(ents), seeds


def _run(store, ref, seeds, cfg, tag, ckpt=False, resume=False):
    out = f"{BASE}/out_{tag}"
    if not resume:
        shutil.rmtree(out, ignore_errors=True)
    return (
        crawl(
            store,
            seeds,
            ref,
            out,
            cfg,
            ckpt_dir=f"{BASE}/ckpt_{tag}" if ckpt else None,
            resume=resume,
        ),
        out,
    )


def _read_fetch_log(out) -> pd.DataFrame:
    files = sorted(glob.glob(f"{out}/fetch_log/*.parquet"))
    return (
        pd.concat([pq.read_table(f).to_pandas() for f in files])
        .sort_values(["round", "rank"])
        .reset_index(drop=True)
    )


def test_crawl_matches_simulator(store_and_inputs):
    store, ref, docs_local, idx, seeds = store_and_inputs
    cfg = CrawlConfig(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        deny={"h3": ["Doc_1"]},
        host_budget={"h5": 7},
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
    )
    metrics, out = _run(store, ref, seeds, cfg, "parity")
    sim = simulate_crawl(
        docs_local,
        list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist())),
        idx["title_to_eid"],
        cfg,
    )
    log = _read_fetch_log(out)
    got = list(zip(log["round"], log["rank"], log["url"]))
    assert got == sim["fetch_log"]  # crawl ordering parity
    assert set(log["url"]) == sim["seen"]  # final URL-seen set parity
    assert metrics["urls_fetched"] == len(sim["fetch_log"])
    # per-partition lineage: every round manifest lists exactly the
    # page files present, with matching row counts
    import json

    for rdir in sorted(glob.glob(f"{out}/round=*")):
        with open(f"{rdir}/_lineage.json") as fh:
            lineage = json.load(fh)
        files = sorted(os.path.basename(p) for p in glob.glob(f"{rdir}/*.parquet"))
        assert sorted(e["file"] for e in lineage["files"]) == files
        for e in lineage["files"]:
            assert pq.read_table(f"{rdir}/{e['file']}").num_rows == e["rows"]


def test_crawl_forced_presplit_equals_plain(store_and_inputs):
    """The hot-bucket presplit wave forced on every bucket (thresholds
    0): wave-0 slice tasks combine/probe/deny/truncate, wave 1 merges
    their presched files — the fetch log must equal the plain crawl's
    row for row."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    kw = dict(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
    )
    _, out_plain = _run(store, ref, seeds, CrawlConfig(**kw), "plain")
    metrics_ps, out_presplit = _run(
        store,
        ref,
        seeds,
        CrawlConfig(
            presplit_factor=0.0,
            presplit_min_bytes=0,
            presplit_slices=3,
            **kw,
        ),
        "presplit",
    )
    pd.testing.assert_frame_equal(
        _read_fetch_log(out_plain)[["round", "rank", "url"]],
        _read_fetch_log(out_presplit)[["round", "rank", "url"]],
    )
    # the wave actually ran: every round presplit its buckets
    assert all(r["presplit_buckets"] > 0 for r in metrics_ps["rounds"])


def test_crawl_bucketed_with_budgets_matches_simulator(store_and_inputs):
    """Several frontier buckets per politeness shard under binding
    robots rules + host budgets + global budget must still reproduce
    the simulator's ordering and seen set."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    cfg = CrawlConfig(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        deny={"h3": ["Doc_1"]},
        host_budget={"h5": 7},
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
        frontier_buckets_per_shard=3,
    )
    _, out = _run(store, ref, seeds, cfg, "bucketed_budget")
    sim = simulate_crawl(
        docs_local,
        list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist())),
        idx["title_to_eid"],
        cfg,
    )
    log = _read_fetch_log(out)
    assert list(zip(log["round"], log["rank"], log["url"])) == sim["fetch_log"]
    assert set(log["url"]) == sim["seen"]
    # the frontier never lived on the driver: consumed round dirs are
    # cleaned up, at most the final (empty) round dir remains
    assert len(glob.glob(f"{out}/frontier/round=*")) <= 1


def test_crawl_presplit_with_budgets_matches_simulator(store_and_inputs):
    """Forced hot-bucket presplit under binding robots rules + token
    capacity + host budgets must still reproduce the simulator's
    ordering and seen set — wave-0 deny counting and per-host
    top-capacity truncation are exercised for real (capacity=5)."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    cfg = CrawlConfig(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        deny={"h3": ["Doc_1"]},
        host_budget={"h5": 7},
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
        presplit_factor=0.0,
        presplit_min_bytes=0,
        presplit_slices=3,
    )
    metrics, out = _run(store, ref, seeds, cfg, "presplit_budget")
    sim = simulate_crawl(
        docs_local,
        list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist())),
        idx["title_to_eid"],
        cfg,
    )
    log = _read_fetch_log(out)
    assert list(zip(log["round"], log["rank"], log["url"])) == sim["fetch_log"]
    assert set(log["url"]) == sim["seen"]
    assert all(r["presplit_buckets"] > 0 for r in metrics["rounds"])


def test_crawl_one_host_seed_auto_presplit(store_and_inputs):
    """A single-host seed set funnels the whole round-0 frontier into
    ONE bucket; the default byte-skew detection (factor 2.0; min-bytes
    floored to 0 for this KB-scale corpus) must auto-engage the
    presplit wave for that bucket, and the fetch log must still match
    the simulator exactly."""
    from entity_context_crawler_ray.sources.docs import host_of

    store, ref, docs_local, idx, seeds = store_and_inputs
    mask = [host_of(u) == "h3" for u in seeds["url"].to_pylist()]
    one_host = seeds.filter(pa.array(mask))
    assert one_host.num_rows > 0
    cfg = CrawlConfig(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
        presplit_min_bytes=0,
        presplit_slices=3,
    )
    metrics, out = _run(store, ref, one_host, cfg, "one_host_presplit")
    sim = simulate_crawl(
        docs_local,
        list(zip(one_host["url"].to_pylist(), one_host["priority"].to_pylist())),
        idx["title_to_eid"],
        cfg,
    )
    log = _read_fetch_log(out)
    assert list(zip(log["round"], log["rank"], log["url"])) == sim["fetch_log"]
    # round 0: one bucket holds ~100% of the bytes -> auto-detected hot
    assert metrics["rounds"][0]["presplit_buckets"] >= 1


def test_crawl_bucketed_resume_equivalence(store_and_inputs):
    """Kill after round 0 (max_rounds=1), then resume: the checkpoint
    references the on-storage frontier dir, and the resumed crawl
    reproduces the uninterrupted fetch log without duplicating any
    page row."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    kw = dict(
        max_depth=1,
        round_budget=30,
        capacity=4,
        refill=2,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
    )
    m_full, out_full = _run(
        store, ref, seeds, CrawlConfig(max_rounds=40, **kw), "bfull", ckpt=True
    )
    m_a, out_part = _run(
        store, ref, seeds, CrawlConfig(max_rounds=1, **kw), "bpart", ckpt=True
    )
    m_b, _ = _run(
        store, ref, seeds, CrawlConfig(max_rounds=40, **kw), "bpart",
        ckpt=True, resume=True,
    )
    pd.testing.assert_frame_equal(
        _read_fetch_log(out_full)[["round", "rank", "url"]],
        _read_fetch_log(out_part)[["round", "rank", "url"]],
    )
    assert m_full["urls_fetched"] == m_a["urls_fetched"] + m_b["urls_fetched"]
    # extracted pages: union of rounds matches too
    n_full = pads.dataset(
        out_full, format="parquet", partitioning="hive", ignore_prefixes=["fetch_log", "_", ".", "frontier"]
    ).count_rows()
    n_part = pads.dataset(
        out_part, format="parquet", partitioning="hive", ignore_prefixes=["fetch_log", "_", ".", "frontier"]
    ).count_rows()
    assert n_full == n_part


def test_crawl_resume_equivalence(store_and_inputs):
    """Kill later in the crawl (after round 1, max_rounds=2), then resume:
    the checkpoint carries a frontier that already holds links discovered
    by fetched pages, and the resumed crawl still reproduces the
    uninterrupted fetch log and page rows."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    kw = dict(
        max_depth=1,
        round_budget=30,
        capacity=4,
        refill=2,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
    )
    # uninterrupted run
    m_full, out_full = _run(
        store, ref, seeds, CrawlConfig(max_rounds=40, **kw), "full", ckpt=True
    )
    # interrupted after round 1 (max_rounds=2), then resumed
    m_a, out_part = _run(
        store, ref, seeds, CrawlConfig(max_rounds=2, **kw), "part", ckpt=True
    )
    m_b, _ = _run(
        store,
        ref,
        seeds,
        CrawlConfig(max_rounds=40, **kw),
        "part",
        ckpt=True,
        resume=True,
    )
    assert m_b["urls_fetched"] > 0
    full_log = _read_fetch_log(out_full)
    part_log = _read_fetch_log(out_part)
    pd.testing.assert_frame_equal(
        full_log[["round", "rank", "url"]], part_log[["round", "rank", "url"]]
    )
    assert m_full["urls_fetched"] == m_a["urls_fetched"] + m_b["urls_fetched"]
    # extracted pages: union of rounds matches too
    n_full = pads.dataset(
        out_full, format="parquet", partitioning="hive", ignore_prefixes=["fetch_log", "_", ".", "frontier"]
    ).count_rows()
    n_part = pads.dataset(
        out_part, format="parquet", partitioning="hive", ignore_prefixes=["fetch_log", "_", ".", "frontier"]
    ).count_rows()
    assert n_full == n_part


def test_doc_store_lookup(store_and_inputs):
    store, ref, docs_local, idx, seeds = store_and_inputs
    reader = DocStoreReader(store, 8)
    some = list(docs_local)[:7]
    hits, missing = reader.lookup(some + ["Doc_nonexistent"])
    assert missing == ["Doc_nonexistent"]
    for d in some:
        assert [
            (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in hits[d]
        ] == [
            (s["kind"], s["text"], s["media_ref"], s["offset"])
            for s in docs_local[d]
        ]


def test_cuckoo_shard_basics():
    from entity_context_crawler_ray.state.cuckoo import CuckooShard

    c = CuckooShard(num_buckets=1 << 10)
    urls = [f"u{i}" for i in range(500)]
    assert c.probe(urls) == [False] * 500
    c.set_seen(urls[:250])
    probed = c.probe(urls)
    assert probed[:250] == [True] * 250
    assert sum(probed[250:]) <= 2  # tiny FP allowance
    # idempotent insert, then delete support (the bloom can't do this)
    c.set_seen(urls[:250])
    assert c.delete("u0") and not c.contains("u0")
    assert not c.delete("u0")
    snap = c.snapshot()
    c2 = CuckooShard(num_buckets=1 << 10)
    c2.restore(snap)
    assert c2.probe(urls[:10]) == c.probe(urls[:10])


def test_cuckoo_saturation_no_false_negatives():
    """Regression: at table saturation the failed kick chain used to
    drop the in-flight evicted victim fingerprint — a previously
    inserted url silently forgotten.  The chain is now unwound before
    spilling, so EVERY inserted url must still probe seen."""
    from entity_context_crawler_ray.state.cuckoo import CuckooShard

    c = CuckooShard(num_buckets=8)  # 32 slots << 200 urls: saturates
    urls = [f"u{i}" for i in range(200)]
    c.set_seen(urls)
    assert all(c.probe(urls)), "saturated cuckoo shard lost inserted urls"
    assert c.count == 200
    # the overflow-spilled url lives in overflow ONLY: one delete
    # succeeds, a second returns False, and count stays consistent
    for u in urls:
        assert c.delete(u)
    for u in urls:
        assert not c.contains(u) or c.count >= 0  # no double-representation
    assert c.count <= 2  # fp-collision slack only


def test_host_policy_refund_restores_lifetime_budget():
    """Regression: URLs admitted per-host but cut by the global round
    budget used to consume the host's lifetime crawl_budget without a
    fetch; refund returns the charge so they can be fetched later."""
    p = HostPolicy(capacity=10, refill=10, crawl_budget=3)
    adm, dfr, den = p.admit(0, ["a", "b", "c"])
    assert adm == ["a", "b", "c"]
    p.refund(2)  # b, c cut by the global budget
    assert p.fetched_total == 1
    adm, dfr, den = p.admit(1, ["b", "c", "d"])
    assert adm == ["b", "c"]  # budget room restored for the deferred urls
    assert dfr + den == ["d"]


def test_host_policy_wallclock_refill():
    """Wall-clock refill mode (live-fetch deployments): tokens accrue
    with elapsed clock seconds, capped at capacity — simulated time."""
    now = [1000.0]
    p = HostPolicy(capacity=4, refill=0, refill_per_sec=2.0, clock=lambda: now[0])
    adm, dfr, _ = p.admit(0, ["a", "b", "c", "d", "e"])
    assert adm == ["a", "b", "c", "d"] and dfr == ["e"]  # starts full
    adm, dfr, _ = p.admit(1, ["e", "f"])
    assert adm == [] and dfr == ["e", "f"]  # no time passed, no tokens
    now[0] += 1.0  # 1s × 2 tokens/s = 2 tokens
    adm, dfr, _ = p.admit(2, ["e", "f", "g"])
    assert adm == ["e", "f"] and dfr == ["g"]
    now[0] += 100.0  # long idle: capped at capacity
    adm, dfr, _ = p.admit(3, ["g", "h", "i", "j", "k", "l"])
    assert adm == ["g", "h", "i", "j"] and dfr == ["k", "l"]
    # fractional accrual: 0.6s -> 1.2 tokens -> 1 whole token admitted
    now[0] += 0.6
    adm, dfr, _ = p.admit(4, ["k", "l"])
    assert adm == ["k"] and dfr == ["l"]


def test_politeness_shard_wallclock_snapshot_roundtrip():
    from entity_context_crawler_ray.state.politeness import PolitenessShard

    now = [50.0]
    s = PolitenessShard(
        {"capacity": 3, "refill": 0, "refill_per_sec": 1.0}, clock=lambda: now[0]
    )
    adm, _, _ = s.admit(0, "h", ["a", "b", "c", "d"])
    assert adm == ["a", "b", "c"]
    snap = s.snapshot()
    s2 = PolitenessShard(snap["config"], clock=lambda: now[0])
    s2.restore(snap)
    now[0] += 2.0
    adm, dfr, _ = s2.admit(1, "h", ["d", "e", "f"])
    assert adm == ["d", "e"] and dfr == ["f"]  # 2s elapsed -> 2 tokens


def test_politeness_shard_refund_idempotent():
    from entity_context_crawler_ray.state.politeness import PolitenessShard

    s = PolitenessShard({"capacity": 5, "refill": 5, "budget": {"h": 5}})
    s.admit(0, "h", ["a", "b", "c", "d"])
    s.refund_many(0, {"h": 2})
    s.refund_many(0, {"h": 2})  # retried call: must not double-refund
    assert s.hosts["h"].fetched_total == 2


def test_crawl_with_cuckoo_filter(store_and_inputs):
    """Same crawl, cuckoo seen-filter: identical fetch log."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    kw = dict(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
    )
    _, out_bloom = _run(store, ref, seeds, CrawlConfig(**kw), "bloomf")
    _, out_cuckoo = _run(
        store, ref, seeds, CrawlConfig(seen_filter="cuckoo", **kw), "cuckoof"
    )
    pd.testing.assert_frame_equal(
        _read_fetch_log(out_bloom)[["round", "rank", "url"]],
        _read_fetch_log(out_cuckoo)[["round", "rank", "url"]],
    )


def test_crawl_depth2_matches_simulator(store_and_inputs):
    """Deeper frontier (links of depth-1 pages followed too)."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    cfg = CrawlConfig(
        max_depth=2,
        round_budget=60,
        capacity=8,
        refill=4,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=60,
    )
    metrics, out = _run(store, ref, seeds, cfg, "depth2")
    sim = simulate_crawl(
        docs_local,
        list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist())),
        idx["title_to_eid"],
        cfg,
    )
    log = _read_fetch_log(out)
    assert list(zip(log["round"], log["rank"], log["url"])) == sim["fetch_log"]
    assert metrics["urls_fetched"] > 0
    assert set(log["url"]) == sim["seen"]


def _storage_backend(name: str):
    from entity_context_crawler_ray.state import storage

    if name == "lance":
        pytest.importorskip("lance")
        return storage.LanceStore()
    return storage.ParquetStore()


@pytest.mark.parametrize("backend", ["parquet", "lance"])
def test_storage_interface_roundtrip(tmp_path, backend):
    """The single storage seam (state/storage.py): table round-trip,
    column pruning, suffix-aware listing, overwrite-on-retry — under
    BOTH backends (the lance leg skips when the package is absent in
    this sandbox, it does not disappear)."""
    import pyarrow as pa

    store = _storage_backend(backend)
    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    p = str(tmp_path / ("t" + store.suffix))
    store.write_table(t, p)
    assert store.read_table(p).equals(t)
    assert store.read_table(p, columns=["b"]).column_names == ["b"]
    assert store.list_tables(str(tmp_path / "*")) == [p]
    # retry-idempotent overwrite (lance: a new dataset version; parquet:
    # file replace) — readers see exactly the latest write either way
    t2 = pa.table({"a": [9], "b": ["w"]})
    store.write_table(t2, p)
    assert store.read_table(p).equals(t2)


def test_storage_backend_selection(monkeypatch):
    """get_store honors ECC_STORAGE_BACKEND (fresh singleton per
    selection); the default is parquet."""
    from entity_context_crawler_ray.state import storage

    monkeypatch.setattr(storage, "_STORE", None)
    monkeypatch.delenv("ECC_STORAGE_BACKEND", raising=False)
    assert isinstance(storage.get_store(), storage.ParquetStore)
    monkeypatch.setattr(storage, "_STORE", None)
    monkeypatch.setenv("ECC_STORAGE_BACKEND", "lance")
    try:
        store = storage.get_store()
    except ImportError:
        pytest.skip("lance not installed — selection path exercised")
    assert isinstance(store, storage.LanceStore)


@pytest.mark.parametrize("backend", ["lance"])
def test_crawl_on_lance_backend(store_and_inputs, monkeypatch, backend):
    """End-to-end crawl with the frontier/checkpoint store on Lance —
    the north_rule's storage target.  Skips (never deletes) when the
    package is absent; on machines with lance this drives the bucketed
    frontier + checkpoints through real Lance datasets."""
    pytest.importorskip("lance")
    from entity_context_crawler_ray.state import storage

    monkeypatch.setenv("ECC_STORAGE_BACKEND", "lance")
    monkeypatch.setattr(storage, "_STORE", None)
    store, ref, docs_local, idx, seeds = store_and_inputs
    cfg = CrawlConfig(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
    )
    metrics, out = _run(store, ref, seeds, cfg, "lance_backend")
    sim = simulate_crawl(
        docs_local,
        list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist())),
        idx["title_to_eid"],
        cfg,
    )
    log = _read_fetch_log(out)
    assert list(zip(log["round"], log["rank"], log["url"])) == sim["fetch_log"]


def test_crawl_wallclock_politeness_smoke(store_and_inputs):
    """Wall-clock refill mode through the full crawl: an effectively
    unlimited rate reproduces the unlimited-refill fetch log."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    kw = dict(
        max_depth=1,
        round_budget=40,
        capacity=5,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
    )
    _, out_round = _run(store, ref, seeds, CrawlConfig(refill=5, **kw), "wc_round")
    _, out_wall = _run(
        store, ref, seeds, CrawlConfig(refill=0, refill_per_sec=1e9, **kw), "wc_wall"
    )
    pd.testing.assert_frame_equal(
        _read_fetch_log(out_round)[["round", "rank", "url"]],
        _read_fetch_log(out_wall)[["round", "rank", "url"]],
    )


def test_crawl_edge_cases(store_and_inputs):
    """Degenerate configs terminate cleanly: depth 0 fetches only the
    seeds; an empty seed list fetches nothing."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    import pyarrow as pa

    kw = dict(
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=10,
    )
    m, out = _run(store, ref, seeds, CrawlConfig(max_depth=0, **kw), "depth0")
    assert m["urls_fetched"] == seeds.num_rows  # seeds only, 1 round
    assert len(m["rounds"]) == 1

    empty = pa.table(
        {"url": pa.array([], pa.string()), "priority": pa.array([], pa.float64())}
    )
    m, _ = _run(store, ref, empty, CrawlConfig(max_depth=1, **kw), "noseeds")
    assert m["urls_fetched"] == 0 and m["rounds"] == []


def test_politeness_admit_replay_compact():
    """Retried admit calls replay the cached decision exactly — and the
    cache stores only boundary counts, never the URL lists (a bucketed
    round over millions of hosts must not retain the round's URL
    strings in actor memory)."""
    from entity_context_crawler_ray.state.politeness import PolitenessShard

    shard = PolitenessShard(
        {
            "capacity": 3,
            "refill": 1,
            "deny": {"h": ["http://h/private"]},
            "budget": {"h": 4},
        }
    )
    urls = [f"http://h/{i}" for i in range(5)] + ["http://h/private/x"]
    first = shard.admit(0, "h", urls)
    again = shard.admit(0, "h", urls)
    assert first == again
    adm, dfr, den = first
    assert len(adm) == 3 and den == ["http://h/private/x", "http://h/4"]
    # compact cache: counts + a 64-bit content fingerprint, no url
    # strings retained
    entry = shard._cache[("admit", 0, "h")]
    assert entry[:3] == (6, 4, 3) and isinstance(entry[3], int)
    # a replay with a different url list is a contract violation ...
    import pytest as _pytest

    with _pytest.raises(ValueError):
        shard.admit(0, "h", urls[:2])
    # ... and so is a SAME-LENGTH but different or reordered list
    with _pytest.raises(ValueError):
        shard.admit(0, "h", list(reversed(urls)))
    # batched form goes through the same compact cache
    statuses = shard.admit_many(0, ["h"], [urls])
    assert statuses[0] == ["admit"] * 3 + ["defer", "deny", "deny"]


def test_checkpoint_frontier_dir_relative_and_validated(tmp_path):
    """Bucketed checkpoints store frontier_dir relative to out_dir (the
    output tree may be remounted elsewhere on resume) and
    load_checkpoint fails loudly on a dangling frontier reference."""
    import json

    import pytest as _pytest

    from entity_context_crawler_ray.state.checkpoint import (
        load_checkpoint,
        save_checkpoint,
    )

    out_dir = tmp_path / "out"
    fdir = out_dir / "frontier" / "round=3"
    fdir.mkdir(parents=True)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(
        ckpt,
        2,
        [{}],
        [{}],
        frontier_dir=str(fdir),
        frontier_rows=7,
        out_dir=str(out_dir),
    )
    with open(os.path.join(ckpt, "round=2", "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["frontier_dir"] == os.path.join("frontier", "round=3")

    # resolves against a MOVED output tree
    moved = tmp_path / "moved"
    os.rename(out_dir, moved)
    state = load_checkpoint(ckpt, out_dir=str(moved))
    assert state["frontier_dir"] == str(moved / "frontier" / "round=3")
    assert state["frontier_rows"] == 7

    # dangling reference (consumed frontier dir) fails loudly
    with _pytest.raises(FileNotFoundError):
        load_checkpoint(ckpt, out_dir=str(tmp_path / "nowhere"))

    # a manifest without a frontier_dir cannot be resumed: it fails
    # loudly instead of starting from an empty frontier
    bare = tmp_path / "bare" / "round=0"
    bare.mkdir(parents=True)
    with open(bare / "manifest.json", "w") as fh:
        json.dump({"round": 0, "frontier_rows": 5}, fh)
    with _pytest.raises(ValueError, match="no frontier_dir"):
        load_checkpoint(str(tmp_path / "bare"), out_dir=str(moved))


def test_connected_components_nonconvergence_raises(ray_session):
    """Distributed min-label propagation must not silently return split
    components when max_iters is exhausted mid-convergence."""
    import pytest as _pytest
    import ray.data as rd

    from entity_context_crawler_ray.stages.dedup import connected_components

    chain = pa.table({"a": [0, 1, 2, 3], "b": [1, 2, 3, 4]})
    nodes = pa.table({"doc_id": list(range(5))})
    with _pytest.raises(RuntimeError, match="did not converge"):
        connected_components(
            rd.from_arrow(chain),
            rd.from_arrow(nodes),
            mode="distributed",
            max_iters=1,
        ).to_pandas()
    # with room to converge the same chain labels as one component
    out = connected_components(
        rd.from_arrow(chain),
        rd.from_arrow(nodes),
        mode="distributed",
        max_iters=16,
    ).to_pandas()
    assert set(out["component"]) == {0}


def test_xml_backward_scan_finds_closing_tag(tmp_path):
    """_page_split_offsets locates </mediawiki> by scanning a tail
    window backward — the driver must never stream the whole dump."""
    from entity_context_crawler_ray.sources.wikipedia_xml import (
        _page_split_offsets,
        _scan_backward,
    )

    body = b"<mediawiki>" + b"<page>x</page>" * 1000 + b"</mediawiki>\n"
    p = tmp_path / "dump.xml"
    p.write_bytes(body)
    with open(p, "rb") as fh:
        # tiny chunk forces multiple backward windows incl. a
        # needle-straddling boundary
        hit = _scan_backward(fh, len(body), b"</mediawiki", chunk=7)
    assert hit == body.rfind(b"</mediawiki")
    ranges = _page_split_offsets(str(p), 4)
    assert ranges[0][0] == body.find(b"<page")
    assert ranges[-1][1] == body.rfind(b"</mediawiki")


def test_resume_after_completed_bucketed_crawl_is_noop(store_and_inputs, tmp_path):
    """The FINAL checkpoint of a bucketed crawl references a next-round
    frontier dir that was never created (nothing deferred); resuming
    from it must be a no-op, not a FileNotFoundError."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    cfg = CrawlConfig(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        num_bloom_shards=2,
        num_politeness_shards=2,
        doc_store_partitions=8,
        max_rounds=40,
    )
    out = str(tmp_path / "out")
    ckpt = str(tmp_path / "ckpt")
    m1 = crawl(store, seeds, ref, out, cfg, ckpt_dir=ckpt)
    assert m1["urls_fetched"] > 0
    log1 = _read_fetch_log(out)
    # resume from the completed state: fetches nothing, changes nothing
    m2 = crawl(store, seeds, ref, out, cfg, ckpt_dir=ckpt, resume=True)
    assert m2["urls_fetched"] == 0
    pd.testing.assert_frame_equal(_read_fetch_log(out), log1)
