"""Real-markup parity on a committed, hand-written fixture.

``tests/data/wikitext_pages.xml`` holds three pages (one in the Talk
namespace, which the reader skips) whose markup covers the constructs
the wikitext spec (functions/wikitext.py) must handle: a nested
template, a ``<ref>`` inside a template and a template inside a
``<ref>``, a ``{|...|}`` table, pipe links, a link with an underscore
target, a media link, a heading and bold quotes.
``tests/data/wikitext_entities.json`` is the matching catalog in the
reference's entities JSON format.

Every expected value below is derived by hand from the specs, not
read off the engine:

- spans (functions/wikitext.py): each wikilink is replaced by its
  anchor (or target), templates are removed innermost-out, then the
  table, refs, heading markers and quote runs; each non-empty line
  is a text span, preceded by the links placed in it; links removed
  with their template or table follow the last span, in markup order;
- cleaned text (functions/text.py ``clean_up_text``): lines under 40
  chars dropped, sentences kept when >= 40 chars, upper-case first and
  free of ``| = http Category:``, paragraphs joined by a blank line;
- matches (stages/match.py): the anchors (or targets) of links to
  entity pages, minus anchors naming two entities, phrase-matched
  case-sensitively over the cleaned text, at their character offsets.

Unlike tests/test_reference_fixture.py, this needs nothing outside
the repository, so it always runs."""

import os

import pyarrow.parquet as pq

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
XML = os.path.join(DATA, "wikitext_pages.xml")
ENTITIES = os.path.join(DATA, "wikitext_entities.json")

ADA_P1 = (
    "Augusta Ada King was an English mathematician who wrote about the "
    "analytical engine of Charles Babbage. She is often called the first "
    "computer programmer."
)
ADA_P2 = (
    "The analytical engine was never built, but Babbage called her the "
    "Enchantress of Numbers."
)
ADA_P3 = (
    "In 1843 she translated a paper on the engine and added notes longer "
    "than the paper."
)
CB_P1 = "Charles Babbage was an English polymath who designed the difference engine."
CB_P2 = "Babbage worked with Ada on the analytical engine until her death in 1852."
CB_P3 = "Later the engine was built by the Science Museum from his plans."

# (kind, text, media_ref) per span, in offset order
SPANS = {
    "Ada Lovelace": [
        ("link", "analytical engine", "Analytical Engine"),
        ("link", "", "Charles Babbage"),
        ("text", ADA_P1, ""),
        ("text", "Legacy", ""),
        ("text", ADA_P2, ""),
        ("media", "thumb|Portrait", "File:Ada portrait.jpg"),
        ("text", ADA_P3 + " Short one.", ""),
        # removed with the infobox's inner template, the ref's template
        # and the table
        ("link", "", "Analytical Engine"),
        ("link", "", "Charles Babbage"),
        ("link", "Notes", "Sketch of the Analytical Engine"),
    ],
    "Charles Babbage": [
        ("link", "difference engine", "Difference engine"),
        ("text", CB_P1, ""),
        ("link", "Ada", "Ada Lovelace"),
        ("link", "analytical engine", "Analytical Engine"),
        ("text", CB_P2, ""),
        ("link", "engine", "Difference engine"),
        ("link", "Science Museum", "Science Museum, London"),
        (
            "text",
            CB_P3 + " The formula a = b + c was printed on page one of his notebook.",
            "",
        ),
        # removed with the efn template
        ("link", "engine", "Analytical Engine"),
    ],
}

PAGES = {
    "Ada Lovelace": dict(
        clean_text=f"{ADA_P1}\n\n{ADA_P2}\n\n{ADA_P3}",
        link_count=5,
        entity_link_count=4,
        mention_count=3,
        unique_mention_count=3,
        text_len=346,
        clean_text_len=330,
        # (entity_id, mention, start_char, end_char)
        matches=[
            ("/m/0ae", "analytical engine", 66, 83),
            ("/m/0cb", "Charles Babbage", 87, 102),
            ("/m/0ae", "analytical engine", 160, 177),
        ],
        mentions=[
            ("/m/0ae", "Analytical Engine"),
            ("/m/0ae", "analytical engine"),
            ("/m/0cb", "Charles Babbage"),
        ],
    ),
    "Charles Babbage": dict(
        clean_text=f"{CB_P1}\n\n{CB_P2}\n\n{CB_P3}",
        link_count=6,
        entity_link_count=5,
        # "engine" names both engines, so it is no unique mention
        mention_count=4,
        unique_mention_count=3,
        text_len=277,
        clean_text_len=216,
        matches=[
            ("/m/0de", "difference engine", 57, 74),
            ("/m/0ada", "Ada", 97, 100),
            ("/m/0ae", "analytical engine", 108, 125),
        ],
        mentions=[
            ("/m/0ada", "Ada"),
            ("/m/0ae", "analytical engine"),
            ("/m/0de", "difference engine"),
        ],
    ),
}


def test_wikitext_fixture_spans():
    """The XML reader turns each article into the hand-derived span
    sequence and skips the Talk page."""
    from entity_context_crawler_ray.sources.wikipedia_xml import read_wikipedia_xml

    rows = {r["doc_id"]: r["spans"] for r in read_wikipedia_xml(XML).take_all()}
    assert sorted(rows) == sorted(SPANS)
    for title, want in SPANS.items():
        spans = rows[title]
        assert [s["offset"] for s in spans] == list(range(len(want))), title
        assert [(s["kind"], s["text"], s["media_ref"]) for s in spans] == want, title


def test_wikitext_fixture_matches(tmp_path):
    """build-matches-db over the fixture: cleaned text, link counts and
    every match with its offsets equal the hand-derived values."""
    from entity_context_crawler_ray.__main__ import main

    out = str(tmp_path / "matches")
    assert main(["build-matches-db", XML, ENTITIES, out]) == 0
    rows = {r["title"]: r for r in pq.read_table(out).to_pylist()}
    assert sorted(rows) == sorted(PAGES)
    labels = {
        "/m/0ada": "Ada Lovelace",
        "/m/0ae": "Analytical Engine",
        "/m/0cb": "Charles Babbage",
        "/m/0de": "Difference engine",
    }
    for title, want in PAGES.items():
        row = rows[title]
        assert row["error"] == "", title
        for col in (
            "clean_text",
            "link_count",
            "entity_link_count",
            "mention_count",
            "unique_mention_count",
            "text_len",
            "clean_text_len",
        ):
            assert row[col] == want[col], (title, col)
        got = [
            (m["entity_id"], m["mention"], m["start_char"], m["end_char"])
            for m in row["matches"]
        ]
        assert got == want["matches"], title
        assert row["match_count"] == len(want["matches"])
        for m in row["matches"]:
            assert m["entity_label"] == labels[m["entity_id"]]
            assert row["clean_text"][m["start_char"] : m["end_char"]] == m["mention"]
        assert [(m["entity_id"], m["mention"]) for m in row["mentions"]] == want["mentions"]
