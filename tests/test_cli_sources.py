"""Tests for the reference-format sources (Wikipedia XML, entities
JSON, mid2rid TXT), the wikitext spec, and the CLI — modeled on the
reference's integration suite (reference
tests/integration/test_suite.py: drives main(argv), asserts
non-emptiness)."""

import json
import os
import shutil
import textwrap

import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from entity_context_crawler_ray.__main__ import main
from entity_context_crawler_ray.functions.wikitext import (
    extract_wikilinks,
    plain_text,
)
from entity_context_crawler_ray.sources.reference_inputs import (
    load_entities_json,
    load_mid2rid_txt,
    normalize_page_url,
)
from entity_context_crawler_ray.sources.wikipedia_xml import (
    WikipediaPages,
    page_to_doc_row,
    read_wikipedia_xml,
)

BASE = "/tmp/ecc_test_cli"

WIKI_XML = textwrap.dedent(
    """\
    <mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">
      <page>
        <title>Germany</title>
        <revision><text>Germany is a big country in [[Europe]].
    The capital of [[Germany|the country]] is [[Berlin]]. This longer sentence says Berlin is the capital and survives cleaning. Berlin also appears again in this long trailing sentence of text.
    [[File:Map.png|Map of Germany]] {{Infobox|junk=1}}</text></revision>
      </page>
      <page>
        <title>Talk:Germany</title>
        <revision><text>namespace-skipped page</text></revision>
      </page>
      <page>
        <title>Redirected</title>
        <redirect title="Germany"/>
        <revision><text>#REDIRECT [[Germany]]</text></revision>
      </page>
      <page>
        <title>NoText</title>
      </page>
    </mediawiki>
    """
)


@pytest.fixture(scope="module")
def xml_path():
    os.makedirs(BASE, exist_ok=True)
    p = f"{BASE}/wiki.xml"
    with open(p, "w") as fh:
        fh.write(WIKI_XML)
    return p


def test_wikitext_spec():
    markup = "See [[Berlin]] and [[Germany|the country]] plus [[File:X.png|cap]]."
    assert extract_wikilinks(markup) == [
        ("Berlin", ""),
        ("Germany", "the country"),
        ("File:X.png", "cap"),
    ]
    txt = plain_text("'''Bold''' {{tmpl|x}} [[Germany|country]] <ref>src</ref> end")
    assert "Bold" in txt and "country" in txt
    assert "{{" not in txt and "ref" not in txt and "'''" not in txt


def test_wikipedia_pages_iterator(xml_path):
    it = WikipediaPages(xml_path)
    pages = list(it)
    titles = [p["title"] for p in pages]
    assert titles == ["Germany", "Redirected"]
    assert it.skipped_special_pages == 1
    assert it.missing_texts == 1
    assert pages[1]["redirect"] == "Germany"
    # limit_pages early stop counts raw <page> elements (reference
    # util/wikipedia.py:42-43)
    assert len(list(WikipediaPages(xml_path, limit_pages=1))) == 1


def test_page_to_doc_row(xml_path):
    page = next(iter(WikipediaPages(xml_path)))
    row = page_to_doc_row(page["title"], page["text"])
    kinds = [s["kind"] for s in row["spans"]]
    assert "link" in kinds and "text" in kinds and "media" in kinds
    offsets = [s["offset"] for s in row["spans"]]
    assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)
    link_targets = [s["media_ref"] for s in row["spans"] if s["kind"] == "link"]
    assert "Europe" in link_targets and "Germany" in link_targets


def test_page_to_doc_row_true_interleaving():
    """Link/media spans sit at their real document positions among the
    text paragraphs (input_hint interleaved semantics) — a link in the
    middle of the page must NOT be emitted before earlier paragraphs."""
    markup = (
        "First paragraph with no links at all here.\n"
        "Second paragraph mentions [[Berlin]] mid-sentence and goes on.\n"
        "[[File:Map.png|caption]]\n"
        "Last paragraph links [[Europe|the continent]] late."
    )
    row = page_to_doc_row("T", markup)
    seq = [(s["kind"], s["media_ref"]) for s in row["spans"]]
    assert seq == [
        ("text", ""),            # first paragraph BEFORE any link span
        ("link", "Berlin"),      # link pinned to its own paragraph
        ("text", ""),
        ("media", "File:Map.png"),
        ("link", "Europe"),
        ("text", ""),
    ]
    # anchor text stays inline in the paragraph text
    texts = [s["text"] for s in row["spans"] if s["kind"] == "text"]
    assert "Berlin" in texts[1] and "the continent" in texts[2]
    # a link inside a removed template has no text position: it is
    # still extracted (same link set) but appended at the end
    row2 = page_to_doc_row("T2", "Para one.\n{{box|[[Hidden]]}}\nPara two.")
    seq2 = [(s["kind"], s["media_ref"]) for s in row2["spans"]]
    assert seq2 == [("text", ""), ("text", ""), ("link", "Hidden")]


def test_reference_input_loaders(tmp_path):
    entities = {
        "/m/0abc": {"label": "Germany", "wikipedia": "http://en.wikipedia.org/wiki/Germany"},
        "/m/0xyz": {"label": "Café", "wikipedia": "http://en.wikipedia.org/wiki/Caf%C3%A9_Nation"},
        "/m/0empty": {"label": "NoPage", "wikipedia": ""},
    }
    jp = tmp_path / "entities.json"
    jp.write_text(json.dumps(entities))
    t = load_entities_json(str(jp))
    by_id = dict(zip(t["entity_id"].to_pylist(), t["page_title"].to_pylist()))
    assert by_id["/m/0abc"] == "Germany"
    assert by_id["/m/0xyz"] == "Café Nation"  # percent-decode + underscore
    assert by_id["/m/0empty"] == ""
    assert normalize_page_url("") == ""

    mp = tmp_path / "mid2rid.txt"
    mp.write_text("mid rid\n/m/0abc 7\n/m/0xyz 68\n")
    m = load_mid2rid_txt(str(mp))
    assert dict(zip(m["entity_id"].to_pylist(), m["rid"].to_pylist())) == {
        "/m/0abc": 7,
        "/m/0xyz": 68,
    }


def test_cli_end_to_end(xml_path, tmp_path):
    """XML -> matches store -> contexts store through main(argv),
    asserting non-emptiness like the reference integration suite."""
    entities = {
        "/m/germany": {"label": "Germany", "wikipedia": "http://en.wikipedia.org/wiki/Germany"},
        "/m/berlin": {"label": "Berlin", "wikipedia": "http://en.wikipedia.org/wiki/Berlin"},
    }
    jp = tmp_path / "entities.json"
    jp.write_text(json.dumps(entities))
    mp = tmp_path / "mid2rid.txt"
    mp.write_text("mid rid\n/m/germany 1\n/m/berlin 2\n")

    matches_dir = str(tmp_path / "matches_store")
    assert (
        main(["build-matches-db", xml_path, str(jp), matches_dir, "--limit-pages", "5"])
        == 0
    )
    combined = pq.read_table(matches_dir)
    assert combined.num_rows == 2  # Germany + Redirected
    total_matches = sum(len(m) for m in combined["matches"].to_pylist())
    assert total_matches > 0

    ctx_dir = str(tmp_path / "contexts_store")
    csv_path = str(tmp_path / "stats.csv")
    assert (
        main(
            [
                "build-contexts-db",
                str(jp),
                str(mp),
                matches_dir,
                ctx_dir,
                "--context-size",
                "120",
                "--crop-sentences",
                "--limit-contexts",
                "100",
                "--csv-file",
                csv_path,
            ]
        )
        == 0
    )
    ctx = pq.read_table(ctx_dir)
    assert ctx.num_rows > 0
    assert set(ctx.column_names) == {
        "entity", "entity_label", "mention", "page_title", "context", "masked_context",
    }
    assert os.path.isfile(csv_path)
    # rerun without --overwrite refuses
    assert main(["build-contexts-db", str(jp), str(mp), matches_dir, ctx_dir]) == 1

    # downstream readers (reference dao/contexts_db.py:39-95)
    from entity_context_crawler_ray.pipelines.contexts_store import (
        count_contexts,
        select_contexts,
        select_distinct_entities,
    )

    ents = select_distinct_entities(ctx_dir)
    assert len(ents) >= 1
    one = select_contexts(ctx_dir, ents[0], limit=2).to_pandas()
    assert 1 <= len(one) <= 2 and (one["entity"] == ents[0]).all()
    assert count_contexts(ctx_dir) == ctx.num_rows


def test_cli_help():
    assert main([]) == 0


def test_pipeline_registry_and_cli(tmp_path):
    """SURVEY §2.10 extension surface: registered steps compose from a
    declarative spec, custom steps register, unknown steps error."""
    import json

    import pyarrow as pa
    import ray.data

    from entity_context_crawler_ray.__main__ import main
    from entity_context_crawler_ray.pipelines.registry import (
        STEPS,
        list_steps,
        register_step,
        run_pipeline,
    )

    spec = {
        "input": "/root/testdata/sf0.001/documents.parquet",
        "input_columns": ["doc_id", "text"],
        "steps": [
            {"step": "sample", "args": {"p": 0.5}},
            {"step": "simhash"},
            {"step": "select", "args": {"columns": ["doc_id", "simhash"]}},
        ],
    }
    out = run_pipeline(spec).to_pandas()
    assert set(out.columns) == {"doc_id", "simhash"} and len(out) > 100

    # custom step registration
    @register_step("double_ids", "test step")
    def _double(ds):
        return ds.map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("doc_id"),
                "doc_id",
                pa.compute.multiply(t["doc_id"], 2),
            ),
            batch_format="pyarrow",
        )

    spec2 = dict(spec, steps=[{"step": "double_ids"}, {"step": "limit", "args": {"n": 5}}])
    got = run_pipeline(spec2).to_pandas()
    assert (got["doc_id"] % 2 == 0).all() and len(got) == 5
    del STEPS["double_ids"]

    with pytest.raises(KeyError):
        run_pipeline(dict(spec, steps=[{"step": "nope"}]))

    # CLI drive
    sp = tmp_path / "spec.json"
    sp.write_text(json.dumps(spec))
    outdir = str(tmp_path / "out")
    assert main(["pipeline", str(sp), outdir]) == 0
    assert len(ray.data.read_parquet(outdir).take(3)) == 3
    assert main(["pipeline", "--list-steps"]) == 0
    assert "sample" in list_steps()


def test_driver_entry_contract():
    """The driver surface: entry() runs the flagship pipeline on
    sf0.001 and returns rows with a stable schema; every oracle_sql()
    key has a queries() twin."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", "/root/repo/__ray_entry__.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["__ray_entry__"] = mod
    spec.loader.exec_module(mod)

    qs, orc = mod.queries(), mod.oracle_sql()
    assert set(orc) <= set(qs)
    assert len(orc) >= 46  # oracle coverage floor (round 4: 46)
    # every entry but one is oracle-checked (its ln() key has no
    # ulp-exact SQL twin), and md5 is the one hash family: no entry
    # carries a hash-family twin
    assert set(qs) - set(orc) == {"q_weighted_sample_fast"}
    assert not [k for k in qs if k.endswith("_md5")]

    res = mod.entry()
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    assert len(df) > 0
    assert list(df.columns) == [
        "entity",
        "entity_label",
        "mention",
        "page_title",
        "context",
        "masked_context",
    ]


def test_derived_inputs_are_pinned():
    """The input generator (sources/docs.py) keeps its own hash, so a
    change to the engine's hash never moves the derived corpus: the
    host map and the sf0.001 docs keep the values recorded when the
    engine's hash was blake2b."""
    import pandas as pd
    import pyarrow as pa

    from entity_context_crawler_ray.sources import docs
    from test_pipelines import SF  # the sf0.001 tables the data tests share
    from tools.verify_oracles import value_hash

    assert docs.DERIVATION_VERSION == 3
    assert [docs.host_of(d) for d in ("Doc_0", "Doc_17", "Doc_r1_123")] == ["h2", "h5", "h15"]
    t = pa.concat_tables(ray.get(docs.read_docs(SF).to_arrow_refs())).sort_by("doc_id")
    df = pd.DataFrame(
        {"doc_id": t["doc_id"].to_pylist(), "spans": [repr(s) for s in t["spans"].to_pylist()]}
    )
    assert (len(df), value_hash(df)) == (500, "e034c06cc39371f0d0922623")


def test_host_of_parses_real_urls():
    """Real scheme://host URLs parse to the registrable netloc host
    (lowercase, port/userinfo stripped); bare titles keep the synthetic
    hN fallback so the sandbox corpus exercises a multi-host shape."""
    from entity_context_crawler_ray.sources.docs import N_HOSTS, host_of

    assert host_of("https://en.wikipedia.org/wiki/Graph") == "en.wikipedia.org"
    assert host_of("http://EN.Wikipedia.ORG:8080/wiki/X") == "en.wikipedia.org"
    assert host_of("https://user:pw@example.com/path") == "example.com"
    # bare title -> synthetic bucket, deterministic
    h = host_of("Doc_17")
    assert h.startswith("h") and int(h[1:]) < N_HOSTS
    assert h == host_of("Doc_17")
    # malformed scheme URL with empty netloc also falls back
    assert host_of("https:///nohost").startswith("h")
