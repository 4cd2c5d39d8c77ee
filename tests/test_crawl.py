"""Crawl machinery tests: bloom shards, politeness, state shards,
ordering parity vs the pure-Python simulator, checkpoint/resume."""

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

from entity_context_crawler_ray.pipelines.crawl import (
    CrawlConfig,
    crawl,
    release_state_shards,
)
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
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def test_crawl_bucketed_with_budgets_matches_simulator(store_and_inputs):
    """Six frontier buckets (one per state shard) under binding robots
    rules + host budgets + global budget must still reproduce the
    simulator's ordering and seen set."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    cfg = CrawlConfig(
        max_depth=1,
        round_budget=40,
        capacity=5,
        refill=3,
        deny={"h3": ["Doc_1"]},
        host_budget={"h5": 7},
        num_bloom_shards=2,
        num_politeness_shards=6,
        doc_store_partitions=8,
        max_rounds=40,
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


def test_crawl_one_host_seed_matches_simulator(store_and_inputs):
    """A single-host seed set funnels the whole round-0 frontier into
    ONE bucket, scheduled by its owning state shard alone; the fetch log
    must still match the simulator exactly."""
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
    )
    _, out = _run(store, ref, one_host, cfg, "one_host")
    sim = simulate_crawl(
        docs_local,
        list(zip(one_host["url"].to_pylist(), one_host["priority"].to_pylist())),
        idx["title_to_eid"],
        cfg,
    )
    log = _read_fetch_log(out)
    assert list(zip(log["round"], log["rank"], log["url"])) == sim["fetch_log"]


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
    # read under another partition count (or a store written under
    # another partition hash), lookups would miss silently: refused
    with pytest.raises(ValueError, match="another partition hash or count"):
        DocStoreReader(store, 7).lookup(some)


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
        frontier_dir=str(fdir),
        frontier_rows=7,
        fetched=11,
        out_dir=str(out_dir),
    )
    with open(os.path.join(ckpt, "round=2", "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["frontier_dir"] == os.path.join("frontier", "round=3")
    assert (manifest["keying"], manifest["num_shards"], manifest["fetched"]) == (
        "host-md5", 1, 11,
    )
    # the round dir holds the manifest and the politeness buckets only
    assert sorted(os.listdir(os.path.join(ckpt, "round=2"))) == [
        "manifest.json", "politeness.json",
    ]

    # resolves against a MOVED output tree
    moved = tmp_path / "moved"
    os.rename(out_dir, moved)
    state = load_checkpoint(ckpt, 1, out_dir=str(moved))
    assert state["frontier_dir"] == str(moved / "frontier" / "round=3")
    assert state["frontier_rows"] == 7 and state["fetched"] == 11

    # dangling reference (consumed frontier dir) fails loudly
    with _pytest.raises(FileNotFoundError):
        load_checkpoint(ckpt, 1, out_dir=str(tmp_path / "nowhere"))


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


RESUME_KW = dict(
    max_depth=1,
    round_budget=30,
    capacity=4,
    refill=2,
    num_bloom_shards=2,
    num_politeness_shards=2,
    doc_store_partitions=8,
)


def test_fresh_crawl_clears_stale_checkpoint(store_and_inputs, tmp_path):
    """A fresh crawl into the output and checkpoint dirs of an earlier,
    longer crawl starts both over: its output holds only its own rounds,
    and a later resume continues the fresh crawl (not the stale latest
    round, which would stop it early) and ends with the uninterrupted
    fetch log."""
    from entity_context_crawler_ray.state.checkpoint import latest_round

    store, ref, docs_local, idx, seeds = store_and_inputs
    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    m_full = crawl(store, seeds, ref, out, CrawlConfig(max_rounds=40, **RESUME_KW), ckpt_dir=ckpt)
    full_log = _read_fetch_log(out)
    assert latest_round(ckpt) > 2
    m_a = crawl(store, seeds, ref, out, CrawlConfig(max_rounds=2, **RESUME_KW), ckpt_dir=ckpt)
    assert latest_round(ckpt) == 1
    assert set(_read_fetch_log(out)["round"]) == {0, 1}
    assert sorted(glob.glob(f"{out}/round=*")) == [f"{out}/round=0", f"{out}/round=1"]
    m_b = crawl(
        store, seeds, ref, out, CrawlConfig(max_rounds=40, **RESUME_KW),
        ckpt_dir=ckpt, resume=True,
    )
    assert m_full["urls_fetched"] == m_a["urls_fetched"] + m_b["urls_fetched"]
    pd.testing.assert_frame_equal(_read_fetch_log(out), full_log)


PAGE_COLS = ["round", "title", "clean_text", "match_count", "error"]


def _page_table(out) -> pd.DataFrame:
    return (
        pd.concat(
            pq.read_table(f, columns=PAGE_COLS).to_pandas()
            for f in glob.glob(f"{out}/round=*/*.parquet")
        )
        .sort_values(PAGE_COLS)
        .reset_index(drop=True)
    )


def test_resumed_round_replaces_stale_page_files(store_and_inputs, tmp_path):
    """Page files are named by the md5 of their fetch slice, so a round
    re-run with another ``fetch_batch_size`` writes other names: the
    re-run must clear the round's dir, or an interrupted attempt's pages
    stay beside the new ones (duplicate rows, files missing from
    ``_lineage.json``)."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    full, out, ckpt = (str(tmp_path / d) for d in ("full", "out", "ckpt"))
    crawl(store, seeds, ref, full, CrawlConfig(max_rounds=40, **RESUME_KW))
    crawl(store, seeds, ref, out, CrawlConfig(max_rounds=2, **RESUME_KW), ckpt_dir=ckpt)
    # an interrupted attempt at round 2 left one of its page files
    stale = sorted(glob.glob(f"{full}/round=2/*.parquet"))[0]
    os.makedirs(f"{out}/round=2")
    shutil.copy(stale, f"{out}/round=2/interrupted.parquet")
    crawl(
        store, seeds, ref, out,
        CrawlConfig(max_rounds=40, fetch_batch_size=7, **RESUME_KW),
        ckpt_dir=ckpt, resume=True,
    )
    pd.testing.assert_frame_equal(_page_table(out), _page_table(full))
    for rdir in glob.glob(f"{out}/round=*"):
        with open(f"{rdir}/_lineage.json") as fh:
            listed = sorted(e["file"] for e in json.load(fh)["files"])
        assert listed == sorted(os.path.basename(p) for p in glob.glob(f"{rdir}/*.parquet"))


def _alive_state_shards() -> int:
    """CrawlStateShard actors still alive, read from the GCS actor table
    (``ray.util.state`` needs the dashboard, which the tests run without)."""
    from ray._private.state import actors

    return sum(
        a["ActorClassName"] == "CrawlStateShard" and a["State"] == "ALIVE"
        for a in actors().values()
    )


def test_resume_refuses_damaged_fetch_log(store_and_inputs, tmp_path):
    """The fetch log is the crawl's durable seen state: when the file of
    a checkpointed round is missing, truncated or short, resume raises
    instead of rebuilding an under-filled seen filter and fetching
    seen URLs again.  No state actor outlives a refused resume."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")
    release_state_shards()
    crawl(store, seeds, ref, out, CrawlConfig(max_rounds=2, **RESUME_KW), ckpt_dir=ckpt)
    path = os.path.join(out, "fetch_log", "round_0.parquet")
    with open(path, "rb") as fh:
        intact = fh.read()
    short = pq.read_table(path)
    assert short.num_rows > 1
    short_path = str(tmp_path / "short.parquet")
    pq.write_table(short.slice(1), short_path)
    with open(short_path, "rb") as fh:
        damaged = {"missing": None, "truncated": intact[: len(intact) // 2], "short": fh.read()}
    resume = CrawlConfig(max_rounds=40, **RESUME_KW)
    for how, data in damaged.items():
        if data is None:
            os.remove(path)
        else:
            with open(path, "wb") as fh:
                fh.write(data)
        with pytest.raises(ValueError, match="re-crawl without --resume") as refused:
            crawl(store, seeds, ref, out, resume, ckpt_dir=ckpt, resume=True)
        # the refused crawl killed its state actors (ray.kill is async);
        # their handles are not what ended them: ``refused`` holds the
        # error, whose traceback still references them
        deadline = time.time() + 10
        while _alive_state_shards() and time.time() < deadline:
            time.sleep(0.1)
        assert _alive_state_shards() == 0, how
    with open(path, "wb") as fh:
        fh.write(intact)
    assert crawl(store, seeds, ref, out, resume, ckpt_dir=ckpt, resume=True)["urls_fetched"] > 0


CLI_CRAWL = ["--partitions", "8", "--round-budget", "30", "--capacity", "4", "--refill", "2"]


def _page_rows(out) -> int:
    return sum(
        pq.read_metadata(f).num_rows for f in glob.glob(f"{out}/round=*/*.parquet")
    )


def test_cli_crawl_sigkill_resume(store_and_inputs, tmp_path):
    """CLI crash recovery: the crawl runs in its own process (and Ray
    cluster), its process group is SIGKILLed once round 2's checkpoint
    is written, and ``--resume`` then ends with the uninterrupted run's
    fetch log and page rows, none duplicated."""
    from entity_context_crawler_ray.__main__ import main

    store = store_and_inputs[0]
    ents = str(tmp_path / "entities.parquet")
    pq.write_table(entity_catalog(SF), ents)
    full, out, ckpt = (str(tmp_path / d) for d in ("full", "out", "ckpt"))
    assert main(["crawl", store, ents, full, *CLI_CRAWL]) == 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "entity_context_crawler_ray", "crawl", store, ents, out,
         *CLI_CRAWL, "--ckpt-dir", ckpt],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    manifest = os.path.join(ckpt, "round=2", "manifest.json")
    deadline = time.time() + 120
    try:
        while not os.path.exists(manifest):
            assert proc.poll() is None, "the crawl exited before round 2's checkpoint"
            assert time.time() < deadline, "no round 2 checkpoint within 120 s"
            time.sleep(0.01)
    finally:
        # the process group holds the crawl and its Ray cluster
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    full_log = _read_fetch_log(full)[["round", "rank", "url"]]
    # killed mid-crawl: the run never finished
    assert not os.path.exists(os.path.join(out, "_metrics.json"))
    assert len(_read_fetch_log(out)) < len(full_log)

    assert main(["crawl", store, ents, out, *CLI_CRAWL, "--ckpt-dir", ckpt, "--resume"]) == 0
    pd.testing.assert_frame_equal(_read_fetch_log(out)[["round", "rank", "url"]], full_log)
    assert _page_rows(out) == _page_rows(full) > 0


def test_cli_resume_without_checkpoint_keeps_output(store_and_inputs, tmp_path):
    """``--resume`` skips the overwrite guard, so a resume with nothing
    to resume from (here: no ``--ckpt-dir``, or an empty one) must be
    refused, not fall through to a fresh crawl that deletes the output
    it was asked to continue."""
    from entity_context_crawler_ray.__main__ import main

    store = store_and_inputs[0]
    ents = str(tmp_path / "entities.parquet")
    pq.write_table(entity_catalog(SF), ents)
    out = str(tmp_path / "out")
    assert main(["crawl", store, ents, out, *CLI_CRAWL]) == 0
    log = _read_fetch_log(out)
    mtimes = {f: os.path.getmtime(f) for f in glob.glob(f"{out}/fetch_log/*")}
    rounds = sorted(glob.glob(f"{out}/round=*"))
    assert len(log) > 0 and rounds
    empty = str(tmp_path / "ckpt")
    os.makedirs(empty)
    for ckpt in ([], ["--ckpt-dir", empty]):
        assert main(["crawl", store, ents, out, *CLI_CRAWL, *ckpt, "--resume"]) == 1
        pd.testing.assert_frame_equal(_read_fetch_log(out), log)
        assert {f: os.path.getmtime(f) for f in glob.glob(f"{out}/fetch_log/*")} == mtimes
        assert sorted(glob.glob(f"{out}/round=*")) == rounds


# --- crawl state shards ---------------------------------------------------


def _shard_bucket_fixture(tmp_path):
    """One frontier bucket on disk (final rows + link partials over
    three hosts, one url already seen) and the config that makes every
    branch of the schedule body fire: robots deny, lifetime budget,
    token deferral and the local top-budget cut."""
    from entity_context_crawler_ray.state.frontier import CANDIDATE_SCHEMA

    num_shards = 1
    hosts = ["ha", "hb", "hc"]
    rows = []
    for h in hosts:
        for i in range(6):
            rows.append((f"{h}/p{i}", h, float(i % 3), 1, -1, 0))
            rows.append((f"{h}/p{i}", h, 0.0, 2, i, i % 2))  # partial
    rows.append(("hb/private/x", "hb", 9.0, 0, -1, 0))
    cols = list(zip(*rows))
    t = pa.table(
        {f.name: pa.array(c, f.type) for f, c in zip(CANDIDATE_SCHEMA, cols)}
    )
    in_dir = tmp_path / "in"
    (in_dir / "bucket=0").mkdir(parents=True)
    pq.write_table(t.slice(0, 20), in_dir / "bucket=0" / "a.parquet")
    pq.write_table(t.slice(20), in_dir / "bucket=0" / "b.parquet")
    pol_cfg = {
        "capacity": 4,
        "refill": 2,
        "deny": {"hb": ["hb/private"]},
        "budget": {"hc": 3},
    }
    return str(in_dir), pol_cfg, num_shards


def _reference_schedule_bucket(
    bloom, pol, round_id, in_dir, next_dir, bucket, num_shards, round_budget, entity_bonus,
):
    """The schedule body as it ran before the state shards: separate
    BloomShard and PolitenessShard objects, probe → admit_many →
    split → local top-budget cut with a refund."""
    import pyarrow.compute as pc

    from entity_context_crawler_ray.state.frontier import (
        as_candidates,
        combine_candidates,
        write_bucketed,
    )

    files = sorted(glob.glob(os.path.join(in_dir, f"bucket={bucket}", "*.parquet")))
    cand = combine_candidates(
        pa.concat_tables([pq.read_table(f) for f in files]), entity_bonus
    )
    seen = bloom.probe(cand["url"].to_pylist())
    cand = cand.filter(pa.array([not x for x in seen]))
    cand = cand.take(
        pc.sort_indices(
            cand,
            sort_keys=[("host", "ascending"), ("priority", "descending"), ("url", "ascending")],
        )
    )
    hosts, urls = cand["host"].to_pylist(), cand["url"].to_pylist()
    runs, start = [], 0
    for i in range(1, len(hosts) + 1):
        if i == len(hosts) or hosts[i] != hosts[start]:
            runs.append((hosts[start], start, i))
            start = i
    statuses = pol.admit_many(round_id, [h for h, _, _ in runs], [urls[s:e] for _, s, e in runs])
    admit_i, defer_i, n_denied = [], [], 0
    for (_, s, _), stats in zip(runs, statuses):
        for i, st in enumerate(stats, s):
            if st == "admit":
                admit_i.append(i)
            elif st == "defer":
                defer_i.append(i)
            else:
                n_denied += 1
    admitted = cand.take(pa.array(admit_i, pa.int64()))
    defer_parts = []
    if admitted.num_rows > round_budget:
        admitted = admitted.take(
            pc.sort_indices(admitted, sort_keys=[("priority", "descending"), ("url", "ascending")])
        )
        cut = admitted.slice(round_budget)
        admitted = admitted.slice(0, round_budget)
        per_host = {}
        for h in cut["host"].to_pylist():
            per_host[h] = per_host.get(h, 0) + 1
        pol.refund_many(per_host)
        defer_parts.append(cut)
    defer_parts.append(cand.take(pa.array(defer_i, pa.int64())))
    n_deferred = write_bucketed(
        as_candidates(pa.concat_tables(defer_parts)),
        next_dir, f"defer-{bucket}", num_shards,
    )
    return admitted, n_denied, len(admit_i), n_deferred


def test_state_shard_schedule_equals_separate_state(tmp_path):
    """In-process, no Ray: a CrawlStateShard scheduling its bucket makes
    the same admit/defer/deny split, writes the same deferral file and
    leaves the same politeness state as the separate BloomShard +
    PolitenessShard path it replaces."""
    from entity_context_crawler_ray.state.frontier import from_ipc
    from entity_context_crawler_ray.state.politeness import PolitenessShard
    from entity_context_crawler_ray.state.shard import CrawlStateShard

    in_dir, pol_cfg, num_shards = _shard_bucket_fixture(tmp_path)
    round_budget, bonus, bits = 5, 10.0, 1 << 16
    already = ["ha/p0", "hc/p5"]

    shard = CrawlStateShard(0, num_shards, bits, pol_cfg, round_budget, bonus)
    shard.commit(already, {})
    bloom = BloomShard(bits)
    bloom.set_seen(already)
    pol = PolitenessShard(pol_cfg)

    ipc, *counts = shard.schedule(0, in_dir, str(tmp_path / "new"))
    got = (from_ipc(ipc), *counts)
    want = _reference_schedule_bucket(
        bloom, pol, 0, in_dir, str(tmp_path / "old"), 0, num_shards, round_budget, bonus,
    )
    assert got[0].equals(want[0])
    assert got[1:] == want[1:]
    n_denied, n_admitted, n_deferred = got[1:]
    # every branch fired: deny, budget-deny, token deferral, local cut
    assert n_denied >= 2 and n_admitted > round_budget and n_deferred > 0
    assert got[0].num_rows == round_budget
    assert not set(got[0]["url"].to_pylist()) & set(already)
    new = pq.read_table(tmp_path / "new" / "bucket=0" / "defer-0.parquet")
    old = pq.read_table(tmp_path / "old" / "bucket=0" / "defer-0.parquet")
    assert new.equals(old)
    assert shard.politeness.snapshot() == pol.snapshot()


def test_state_shard_rebuilt_from_fetch_log(tmp_path):
    """A shard restored from its politeness snapshot (through the
    checkpoint's JSON) and the fetch log has the live shard's bloom bits
    and insert count, and schedules the next round identically.  In a
    multi-shard crawl each shard inserts only the log rows whose host
    it owns.  A checkpoint keyed another way is refused."""
    import json

    from entity_context_crawler_ray.state.checkpoint import (
        load_checkpoint,
        save_checkpoint,
    )
    from entity_context_crawler_ray.state.frontier import from_ipc
    from entity_context_crawler_ray.state.politeness import politeness_shard_of
    from entity_context_crawler_ray.state.shard import CrawlStateShard

    in_dir, pol_cfg, num_shards = _shard_bucket_fixture(tmp_path)
    a = CrawlStateShard(0, num_shards, 1 << 16, pol_cfg, 5, 10.0)
    log_dir = tmp_path / "fetch_log"
    log_dir.mkdir()
    # two rounds, each fetching three admitted rows: the live shard marks
    # them seen, and the log records them
    for r in range(2):
        ipc, *_ = a.schedule(r, in_dir, str(tmp_path / f"r{r}"))
        fetch = from_ipc(ipc).slice(0, 3)
        snap = a.commit(fetch["url"].to_pylist(), {"ha": 1}, snapshot=True)
        pq.write_table(fetch, log_dir / f"round_{r}.parquet")
    assert snap == a.politeness.snapshot()

    b = CrawlStateShard(0, num_shards, 1 << 16, pol_cfg, 5, 10.0)
    assert b.restore(json.loads(json.dumps(snap)), str(log_dir), 1) == 6
    assert b.bloom.bits.tobytes() == a.bloom.bits.tobytes()
    assert b.bloom.count == a.bloom.count == 6
    assert b.stats() == a.stats()
    assert b.politeness.snapshot() == a.politeness.snapshot()
    # the next round schedules identically on both
    ra = a.schedule(2, in_dir, str(tmp_path / "a2"))
    rb = b.schedule(2, in_dir, str(tmp_path / "b2"))
    assert ra == rb

    # two shards: each owns its hosts' rows, together every row once
    log = pa.concat_tables([pq.read_table(log_dir / f"round_{r}.parquet") for r in range(2)])
    owner = [politeness_shard_of(h, 2) for h in log["host"].to_pylist()]
    urls = log["url"].to_pylist()
    for s in range(2):
        part = CrawlStateShard(s, 2, 1 << 16, pol_cfg, 5, 10.0)
        mine = [u for u, o in zip(urls, owner) if o == s]
        assert 0 < part.restore({"config": pol_cfg, "hosts": {}}, str(log_dir), 1) == len(mine)
        want = BloomShard(1 << 16)
        want.set_seen(mine)
        assert part.bloom.bits.tobytes() == want.bits.tobytes()

    # the manifest carries the keying: a checkpoint with none, with
    # another keying (the earlier blake2b "host") or for another shard
    # count is refused
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(
        ckpt, 1, [snap], frontier_dir=str(tmp_path / "r1"), frontier_rows=1,
        fetched=6, out_dir=str(tmp_path),
    )
    assert load_checkpoint(ckpt, 1, out_dir=str(tmp_path))["fetched"] == 6
    with pytest.raises(ValueError, match="re-crawl"):
        load_checkpoint(ckpt, 2, out_dir=str(tmp_path))
    path = os.path.join(ckpt, "round=1", "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    unkeyed = {k: v for k, v in manifest.items() if k != "keying"}
    for old in (unkeyed, {**manifest, "keying": "host"}):
        with open(path, "w") as fh:
            json.dump(old, fh)
        with pytest.raises(ValueError, match="re-crawl"):
            load_checkpoint(ckpt, 1, out_dir=str(tmp_path))


def test_crawl_resume_equivalence_three_shards(store_and_inputs):
    """Three state shards, each with a four-filter bit budget: the crawl
    still equals the simulator, starts one state actor per politeness
    shard, and resuming after round 1 reproduces the uninterrupted fetch
    log and page rows."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    kw = dict(
        max_depth=1,
        round_budget=30,
        capacity=4,
        refill=2,
        num_bloom_shards=4,
        num_politeness_shards=3,
        doc_store_partitions=8,
    )
    m_full, out_full = _run(
        store, ref, seeds, CrawlConfig(max_rounds=40, **kw), "three_full", ckpt=True
    )
    sim = simulate_crawl(
        docs_local,
        list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist())),
        idx["title_to_eid"],
        CrawlConfig(max_rounds=40, **kw),
    )
    full_log = _read_fetch_log(out_full)
    assert list(zip(full_log["round"], full_log["rank"], full_log["url"])) == sim["fetch_log"]
    shards = m_full["state_shards"]
    assert len(shards) == 3
    # every shard holds the whole budget; each fetched url is marked
    # seen in exactly one shard
    assert {s["bloom_bits"] for s in shards} == {4 * CrawlConfig().bloom_bits}
    assert sum(s["bloom_inserts"] for s in shards) == m_full["urls_fetched"]
    for key in ("setup_s", "checkpoint_s", "teardown_s", "wall_sec"):
        assert m_full[key] >= 0.0

    m_a, out_part = _run(
        store, ref, seeds, CrawlConfig(max_rounds=2, **kw), "three_part", ckpt=True
    )
    m_b, _ = _run(
        store, ref, seeds, CrawlConfig(max_rounds=40, **kw), "three_part",
        ckpt=True, resume=True,
    )
    assert m_b["urls_fetched"] > 0
    pd.testing.assert_frame_equal(
        full_log[["round", "rank", "url"]],
        _read_fetch_log(out_part)[["round", "rank", "url"]],
    )
    assert m_full["urls_fetched"] == m_a["urls_fetched"] + m_b["urls_fetched"]
    n_full, n_part = (
        pads.dataset(
            o, format="parquet", partitioning="hive",
            ignore_prefixes=["fetch_log", "_", ".", "frontier"],
        ).count_rows()
        for o in (out_full, out_part)
    )
    assert n_full == n_part


def test_crawl_one_host_bloom_load(store_and_inputs):
    """A one-host crawl marks every url seen in ONE state shard.  That
    shard's filter holds the whole bit budget, so its FPR is what one
    filter of the budget has at the crawl's load — not the FPR of a
    1/num_shards share."""
    from entity_context_crawler_ray.sources.docs import host_of

    store, ref, _docs_local, _idx, seeds = store_and_inputs
    one_host = seeds.filter(pa.array([host_of(u) == "h3" for u in seeds["url"].to_pylist()]))
    cfg = CrawlConfig(
        max_depth=0,  # seeds only: every fetch is on h3
        num_bloom_shards=2,
        bloom_bits=1 << 12,
        num_politeness_shards=3,
        doc_store_partitions=8,
    )
    m, _ = _run(store, ref, one_host, cfg, "one_host_bloom")
    n = m["urls_fetched"]
    shards = m["state_shards"]
    inserts = sorted(s["bloom_inserts"] for s in shards)
    assert n > 0 and inserts == [0, 0, n]
    budget = cfg.num_bloom_shards * cfg.bloom_bits
    full = BloomShard(budget)
    full.count = n
    loaded = max(shards, key=lambda s: s["bloom_inserts"])
    assert loaded["bloom_bits"] == budget
    assert loaded["bloom_fpr_est"] == pytest.approx(full.estimated_fpr())
    share = BloomShard(budget // 3)
    share.count = n
    assert loaded["bloom_fpr_est"] < share.estimated_fpr()


# --- state shards kept per driver ------------------------------------------


def _state_shards_gone() -> bool:
    """Whether every state actor is dead within 10 s (ray.kill is async)."""
    deadline = time.time() + 10
    while _alive_state_shards() and time.time() < deadline:
        time.sleep(0.1)
    return _alive_state_shards() == 0


def test_state_shards_reused_across_configs(store_and_inputs):
    """The driver starts each state actor once: later crawls, with other
    shard counts, capacities and bloom budgets, check idle actors out and
    reset them.  Every crawl equals the simulator, no bloom bit or
    politeness bucket of an earlier crawl survives the reset, and no more
    actors live than the largest crawl needs."""
    store, ref, docs_local, idx, seeds = store_and_inputs
    release_state_shards()
    assert _state_shards_gone()
    three = CrawlConfig(
        max_depth=1, round_budget=30, capacity=4, refill=2,
        num_bloom_shards=4, num_politeness_shards=3, doc_store_partitions=8,
    )
    two = CrawlConfig(
        max_depth=1, round_budget=30, capacity=6, refill=2,
        num_bloom_shards=2, bloom_bits=1 << 18, num_politeness_shards=2,
        doc_store_partitions=8,
    )
    started = []
    for i, cfg in enumerate([three, two, three]):
        m, out = _run(store, ref, seeds, cfg, f"reuse{i}")
        sim = simulate_crawl(
            docs_local,
            list(zip(seeds["url"].to_pylist(), seeds["priority"].to_pylist())),
            idx["title_to_eid"],
            cfg,
        )
        log = _read_fetch_log(out)
        assert list(zip(log["round"], log["rank"], log["url"])) == sim["fetch_log"], i
        shards = m["state_shards"]
        assert len(shards) == cfg.num_politeness_shards
        assert {s["bloom_bits"] for s in shards} == {cfg.num_bloom_shards * cfg.bloom_bits}
        assert sum(s["bloom_inserts"] for s in shards) == m["urls_fetched"] > 0
        assert _alive_state_shards() <= 3
        with open(f"{out}/_metrics.json") as fh:
            assert json.load(fh)["state_shards_started"] == m["state_shards_started"]
        started.append(m["state_shards_started"])
    assert started == [3, 0, 0]
    assert release_state_shards() == 3
    assert _state_shards_gone()


RESTART_CRAWL = """
import ray
from entity_context_crawler_ray.pipelines.crawl import CrawlConfig, crawl
from entity_context_crawler_ray.sources.docs import entity_catalog, entities_index, seed_table
cfg = CrawlConfig(max_depth=1, round_budget=30, capacity=4, refill=2,
                  num_politeness_shards=2, doc_store_partitions=8)
for i in range(2):
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    ref = ray.put(entities_index(entity_catalog({sf!r})))
    m = crawl({store!r}, seed_table({sf!r}), ref, {out!r} + str(i), cfg)
    print("crawl", m["urls_fetched"], m["state_shards_started"])
    ray.shutdown()
"""


def test_crawl_after_ray_restart(store_and_inputs, tmp_path):
    """Idle state actors belong to one Ray cluster: after
    ``ray.shutdown()`` and a new ``ray.init()`` the next crawl starts
    its own instead of calling the dead ones (in its own process, with
    its own clusters; the process group is killed if it hangs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
    script = RESTART_CRAWL.format(sf=SF, store=store_and_inputs[0], out=str(tmp_path / "out"))
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("two crawls across a Ray restart did not finish within 120 s")
    assert proc.returncode == 0, err[-3000:]
    lines = [ln.split() for ln in out.splitlines() if ln.startswith("crawl ")]
    assert len(lines) == 2 and lines[0] == lines[1], out
    assert int(lines[0][1]) > 0 and lines[0][2] == "2"
