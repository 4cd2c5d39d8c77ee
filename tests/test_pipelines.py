"""End-to-end tests for the matches + contexts pipelines on sf0.001.

Parity checks follow SURVEY.md §5: table-level, order-insensitive
(the reference's own output order is nondeterministic via
imap_unordered, reference cmd/build_matches_db.py:163)."""

import os
import signal
import subprocess
import sys

import pandas as pd
import pytest

from entity_context_crawler_ray.pipelines.build_contexts import build_contexts
from entity_context_crawler_ray.pipelines.build_matches import (
    build_matches,
    matches_view,
    mentions_view,
    pages_view,
)
from entity_context_crawler_ray.sources.docs import (
    entity_catalog,
    id_map_table,
    read_docs,
)

SF = "/root/testdata/sf0.001"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ONE_CPU_BUILD = """
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from entity_context_crawler_ray.pipelines.build_matches import build_matches
from entity_context_crawler_ray.sources.docs import entity_catalog, read_docs
n = build_matches(read_docs({sf!r}), entity_catalog({sf!r})).materialize().count()
ray.shutdown()
print("rows", n)
"""


def test_build_matches_finishes_on_one_cpu():
    """Stage 1 must not hold the CPUs its own reads need: on a
    one-CPU Ray cluster it finishes (in its own process, with its own
    cluster; the process group, Ray's processes included, is killed
    if it hangs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_BUILD.format(sf=SF)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("build_matches did not finish within 60 s at num_cpus=1")
    assert proc.returncode == 0, err[-3000:]
    assert "rows 500" in out


@pytest.fixture(scope="module")
def combined():
    docs = read_docs(SF)
    ents = entity_catalog(SF)
    return build_matches(docs, ents).materialize()


@pytest.fixture(scope="module")
def ents():
    return entity_catalog(SF)


@pytest.fixture(scope="module")
def idmap():
    return id_map_table(SF)


@pytest.fixture(scope="module")
def mentions_by_entity(combined):
    # the Dataset form — exercises the distributed co-group path
    # (the legacy dict form is covered by test_parity.py)
    return mentions_view(combined).select_columns(["entity_id", "mention"])


def test_pages_nonempty_and_no_errors(combined):
    df = pages_view(combined).to_pandas()
    assert len(df) == 500  # one page per source document
    assert (combined.to_pandas()["error"] == "").all()
    # stats invariants
    assert (df["entity_link_count"] <= df["link_count"]).all()
    assert (df["unique_mention_count"] <= df["mention_count"]).all()
    # cleaner drops content but joins paragraphs with '\n\n' where the
    # source used '\n' (reference cmd/build_matches_db.py:352-357), so
    # allow one extra char per paragraph boundary
    assert (df["clean_text_len"] <= 2 * df["text_len"]).all()


def test_matches_pk_unique_and_offsets_valid(combined):
    m = matches_view(combined).to_pandas()
    pages = pages_view(combined).to_pandas().set_index("title")["clean_text"]
    assert len(m) > 0
    # PK (entity_id, page, start_char, mention) — reference dao/matches_db.py:92
    assert not m.duplicated(["entity_id", "page", "start_char", "mention"]).any()
    # offsets index into the cleaned page text and the slice equals the mention
    for _, r in m.sample(min(len(m), 50), random_state=0).iterrows():
        text = pages[r["page"]]
        assert text[r["start_char"] : r["end_char"]] == r["mention"]


def test_mentions_unique(combined):
    me = mentions_view(combined).to_pandas()
    assert len(me) > 0
    assert not me.duplicated(["entity_id", "mention"]).any()


def test_contexts_token_mode(combined, ents, idmap, mentions_by_entity):
    df = build_contexts(
        combined, ents, idmap, mentions_by_entity, context_size=100
    ).to_pandas()
    assert len(df) > 0
    # masked_context is the same length with at least one '#' run
    assert (df["masked_context"].str.len() == df["context"].str.len()).all()
    assert df["masked_context"].str.contains("#", regex=False).all()
    # unmasked chars agree
    for _, r in df.head(20).iterrows():
        assert all(
            a == b for a, b in zip(r["context"], r["masked_context"]) if b != "#"
        )
    # entity rids come from id_map (odd by construction)
    assert (df["entity"] % 2 == 1).all()


def test_contexts_deterministic_and_limited(combined, ents, idmap, mentions_by_entity):
    kw = dict(context_size=80, limit_contexts=3, seed=7)
    a = (
        build_contexts(combined, ents, idmap, mentions_by_entity, **kw)
        .to_pandas()
        .sort_values(list(pd.Index(["entity", "page_title", "context"])))
        .reset_index(drop=True)
    )
    b = (
        build_contexts(combined, ents, idmap, mentions_by_entity, **kw)
        .to_pandas()
        .sort_values(list(pd.Index(["entity", "page_title", "context"])))
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert a.groupby("entity").size().max() <= 3


def test_limit_entities(combined, ents, idmap, mentions_by_entity):
    df = build_contexts(
        combined, ents, idmap, mentions_by_entity, limit_entities=5
    ).to_pandas()
    assert df["entity"].nunique() <= 5


def test_unknown_order_mode_raises(combined, ents, idmap, mentions_by_entity):
    # refused up front, also when --limit-entities does not consult it
    for kw in ({}, {"limit_entities": 5}):
        with pytest.raises(ValueError, match="'stable-hash' or 'reference-shuffle'"):
            build_contexts(combined, ents, idmap, mentions_by_entity, order_mode="shuffle", **kw)


def test_sentence_mode_masks_whole_sentences(combined, ents, idmap, mentions_by_entity):
    df = build_contexts(
        combined,
        ents,
        idmap,
        mentions_by_entity,
        context_size=150,
        crop_sentences=True,
    ).to_pandas()
    assert len(df) > 0
    # every kept sentence starts uppercase and fired the matcher
    for ctx in df["context"].head(20):
        for sent in ctx.split("\n"):
            assert sent and sent[0].isupper()
