"""Row-level parity: the distributed pipelines vs an independent
pure-Python, single-process implementation of the reference semantics
(mirroring reference cmd/build_matches_db.py:237-320 and
cmd/build_contexts_db.py:158-354 step by step, with the rebuild's
deterministic tokenizer + sampling conformance definitions from
SURVEY.md §4).

Comparison is order-insensitive at table level (the reference's own
insert order is nondeterministic, cmd/build_matches_db.py:163) and by
offset-sorted span sequence per row."""

import pandas as pd
import pytest

from entity_context_crawler_ray.functions.hashing import stable_hash64
from entity_context_crawler_ray.functions.matcher import PhraseMatcher
from entity_context_crawler_ray.functions.text import (
    clean_up_text,
    crop_sentences_mode,
    crop_tokens,
    mask_context,
    sql_window,
    tokenize,
)
from entity_context_crawler_ray.pipelines.build_contexts import build_contexts
from entity_context_crawler_ray.pipelines.build_matches import (
    build_matches,
    matches_view,
    mentions_view,
    pages_view,
)
from entity_context_crawler_ray.sources.docs import (
    entity_catalog,
    entities_index,
    id_map_table,
    read_docs,
)

SF = "/root/testdata/sf0.001"


def simulate_stage1(docs_rows, idx):
    """Pure-python stage 1 (matches-db builder)."""
    t2e, e2l = idx["title_to_eid"], idx["eid_to_label"]
    pages, matches, mentions = [], [], set()
    for row in docs_rows:
        title = row["doc_id"]
        spans = sorted(row["spans"], key=lambda s: s["offset"])
        links = [s for s in spans if s["kind"] == "link"]
        entity_links = [l for l in links if l["media_ref"] in t2e]
        m2e = {}
        for l in entity_links:
            mention = l["text"] if l["text"] else l["media_ref"]
            m2e.setdefault(mention, set()).add(t2e[l["media_ref"]])
        m2e = {m: next(iter(es)) for m, es in m2e.items() if len(es) == 1}
        for m, e in m2e.items():
            mentions.add((e, e2l[e], m))
        page_text = "\n".join(s["text"] for s in spans if s["kind"] == "text")
        clean = clean_up_text(page_text)
        toks = tokenize(clean)
        matcher = PhraseMatcher(m2e.keys())
        pat = {tuple(t[0] for t in tokenize(m)): (m, e) for m, e in m2e.items()}
        n_matches = 0
        for ts, te in matcher(toks):
            sc, ec = toks[ts][1], toks[te - 1][2]
            m, e = pat[tuple(t[0] for t in toks[ts:te])]
            matches.append((e, e2l[e], m, title, sc, ec))
            n_matches += 1
        pages.append((title, clean, len(links), len(entity_links), n_matches))
    return pages, matches, mentions


def simulate_stage2(
    pages, matches, mentions, entities, id_map, *, context_size, crop_sentences,
    limit_contexts, seed
):
    """Pure-python stage 2 (contexts-db builder)."""
    text_of = {title: clean for title, clean, *_ in pages}
    rid_of = dict(zip(id_map["entity_id"].to_pylist(), id_map["rid"].to_pylist()))
    label_of = dict(
        zip(entities["entity_id"].to_pylist(), entities["label"].to_pylist())
    )
    title_of = dict(
        zip(entities["entity_id"].to_pylist(), entities["page_title"].to_pylist())
    )
    mentions_by_e = {}
    for e, _l, m in mentions:
        mentions_by_e.setdefault(e, set()).add(m)

    by_entity = {}
    for e, _l, m, page, sc, ec in matches:
        by_entity.setdefault(e, []).append((m, page, sc, ec))

    out = []
    for e, rows in by_entity.items():
        if e not in rid_of or not title_of.get(e):
            continue
        label = label_of[e]
        ranked = sorted(
            rows,
            key=lambda r: stable_hash64("ctx-sample", seed, e, r[1], r[2], r[0]),
        )
        if limit_contexts is not None:
            ranked = ranked[:limit_contexts]
        matcher = PhraseMatcher({label} | mentions_by_e.get(e, set()))
        for m, page, sc, ec in ranked:
            window = sql_window(text_of[page], sc, ec, context_size)
            cropped = (
                crop_sentences_mode(window, matcher)
                if crop_sentences
                else crop_tokens(window)
            )
            if not cropped:
                continue
            masked = mask_context(cropped, matcher)
            if masked is None:
                continue
            out.append((rid_of[e], label, m, page, cropped, masked))
    return out


@pytest.fixture(scope="module")
def inputs():
    docs = read_docs(SF)
    ents = entity_catalog(SF)
    idmap = id_map_table(SF)
    docs_rows = [
        {"doc_id": r["doc_id"], "spans": r["spans"]} for r in docs.iter_rows()
    ]
    return docs, ents, idmap, docs_rows, entities_index(ents)


def test_stage1_parity(inputs):
    docs, ents, idmap, docs_rows, idx = inputs
    combined = build_matches(docs, ents).materialize()

    sim_pages, sim_matches, sim_mentions = simulate_stage1(docs_rows, idx)

    got_pages = (
        pages_view(combined)
        .to_pandas()[["title", "clean_text", "link_count", "entity_link_count", "match_count"]]
        .sort_values("title")
        .reset_index(drop=True)
    )
    want_pages = (
        pd.DataFrame(
            sim_pages,
            columns=["title", "clean_text", "link_count", "entity_link_count", "match_count"],
        )
        .sort_values("title")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got_pages, want_pages, check_dtype=False
    )

    got_matches = set(
        map(
            tuple,
            matches_view(combined)
            .to_pandas()[["entity_id", "entity_label", "mention", "page", "start_char", "end_char"]]
            .itertuples(index=False),
        )
    )
    assert got_matches == set(sim_matches)

    got_mentions = set(
        map(
            tuple,
            mentions_view(combined)
            .to_pandas()[["entity_id", "entity_label", "mention"]]
            .itertuples(index=False),
        )
    )
    assert got_mentions == sim_mentions


def _combined_rows(ds):
    """Combined rows as sortable tuples, nested matches and mentions
    included (list order within a row is part of the result)."""
    rows = []
    for r in ds.iter_rows():
        rows.append(
            tuple(
                tuple(tuple(sorted(m.items())) for m in v) if isinstance(v, list) else v
                for _, v in sorted(r.items())
            )
        )
    return sorted(rows)


def test_stage1_partition_invariance(inputs):
    """Batch boundaries never change Stage 1: batch_size 7 and 64 give
    identical combined rows, and those rows are the golden ones."""
    docs, ents, idmap, docs_rows, idx = inputs
    small = build_matches(docs, ents, batch_size=7).materialize()
    large = build_matches(docs, ents, batch_size=64).materialize()
    rows = _combined_rows(small)
    assert rows == _combined_rows(large)

    sim_pages, sim_matches, sim_mentions = simulate_stage1(docs_rows, idx)
    by_title = {r["title"]: r for r in small.iter_rows()}
    assert sorted(by_title) == sorted(p[0] for p in sim_pages)
    assert all(r["error"] == "" for r in by_title.values())
    assert sorted(
        (r["title"], r["clean_text"], r["link_count"], r["entity_link_count"], r["match_count"])
        for r in by_title.values()
    ) == sorted(sim_pages)
    assert sorted(
        (m["entity_id"], m["entity_label"], m["mention"], title, m["start_char"], m["end_char"])
        for title, r in by_title.items()
        for m in r["matches"]
    ) == sorted(sim_matches)
    assert {
        (m["entity_id"], m["entity_label"], m["mention"])
        for r in by_title.values()
        for m in r["mentions"]
    } == sim_mentions


def test_stage2_partition_invariance(inputs):
    """Block boundaries never change Stage 2: the same combined rows and
    mentions in 1 or 7 blocks give the same context multiset, with and
    without the per-batch top-K combiner, in both crop modes."""
    docs, ents, idmap, docs_rows, idx = inputs
    combined = build_matches(docs, ents).materialize()
    mentions = mentions_view(combined).select_columns(["entity_id", "mention"]).materialize()

    def contexts(blocks, **kw):
        ds = build_contexts(
            combined.repartition(blocks), ents, idmap, mentions.repartition(blocks), **kw
        )
        return sorted(tuple(r.values()) for r in ds.take_all())

    for crop_sentences in (False, True):
        for limit_contexts in (None, 3):
            kw = dict(crop_sentences=crop_sentences, limit_contexts=limit_contexts, seed=7)
            one = contexts(1, **kw)
            assert one and one == contexts(7, **kw), kw


@pytest.mark.parametrize(
    "kw",
    [
        dict(context_size=100, crop_sentences=False, limit_contexts=None, seed=42),
        dict(context_size=80, crop_sentences=False, limit_contexts=3, seed=7),
        dict(context_size=150, crop_sentences=True, limit_contexts=5, seed=42),
    ],
)
def test_stage2_parity(inputs, kw):
    docs, ents, idmap, docs_rows, idx = inputs
    combined = build_matches(docs, ents).materialize()
    mdf = mentions_view(combined).select_columns(["entity_id", "mention"]).to_pandas()
    mbe = mdf.groupby("entity_id")["mention"].apply(list).to_dict()

    got = build_contexts(combined, ents, idmap, mbe, **kw).to_pandas()
    got_set = set(
        map(
            tuple,
            got[["entity", "entity_label", "mention", "page_title", "context", "masked_context"]]
            .itertuples(index=False),
        )
    )

    sim_pages, sim_matches, sim_mentions = simulate_stage1(docs_rows, idx)
    want = simulate_stage2(sim_pages, sim_matches, sim_mentions, ents, idmap, **kw)
    assert got_set == set(want)
    assert len(got) == len(want)  # multiset equality (no dup loss)
