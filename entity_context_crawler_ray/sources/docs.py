"""The ``docs`` table of interleaved text + media documents, plus the
``entities`` / ``id_map`` / ``seeds`` catalogs.

Authoritative input shape (BASELINE.json ``input_hint``):

    doc_id: string
    spans:  list<struct<kind: string, text: string,
                        media_ref: string, offset: int32>>

``kind='text'`` spans carry sentences; ``kind='link'`` spans carry an
anchor text + the target doc_id in ``media_ref`` (the rebuild analogue
of a wikilink, reference cmd/build_matches_db.py:251-252);
``kind='media'`` spans carry a caption + media URI.  ``offset`` is the
0-based document-order position, strictly increasing per row — the
per-row invariant everywhere is span-sequence equality on
``(kind, text, media_ref, order)`` with spans ordered by ``offset``.

Since no external data is allowed, the docs corpus is DERIVED
DETERMINISTICALLY from the driver's ``documents.parquet``
(``/root/testdata/sf*/``): each source document becomes one page whose
text spans are its sentences and whose link/media spans are injected
by stable arithmetic on ``doc_id`` (seeded, partition-independent).
The derivation itself runs distributed as ``map_batches`` so the docs
table scales with the source table; entity anchors are injected as
full sentences (>= 40 chars, uppercase start) so the downstream
cleaner keeps them and the matcher has known hits (FIXTURES.md §1).

Entity universe (FIXTURES.md §2-4): every doc with ``doc_id % 5 == 0``
is an entity page; ~1 in 5 of those entities has an empty
``page_title`` (the reference's empty-wikipedia-URL case,
cmd/build_contexts_db.py:201-204); ~1 in 5 is missing from ``id_map``
(the mid2rid semi-join drop, cmd/build_contexts_db.py:193-194); a pair
of entities shares a label (non-unique labels, like the reference
fixture).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

SPAN_TYPE = pa.list_(
    pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("offset", pa.int32()),
        ]
    )
)

DOCS_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", SPAN_TYPE)])

# bump when the derivation rules change: cached /tmp doc stores keyed
# by this version are regenerated instead of reused stale
DERIVATION_VERSION = 3

N_HOSTS = 16  # politeness host buckets; host = f"h{_derive_hash('host', doc_id) % N_HOSTS}"


def _derive_hash(*parts: object) -> int:
    """64-bit blake2b of the '\\x1f'-joined parts.  The derivation keeps
    its own hash, not the engine's md5 ``stable_hash64``, so the derived
    corpus (and every oracle input built from it) stays byte-identical
    across engine hash changes; DERIVATION_VERSION guards the rules."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def doc_title(idx: int, replica: int = 0) -> str:
    return f"Doc_{idx}" if replica == 0 else f"Doc_r{replica}_{idx}"


def host_of(doc_id: str) -> str:
    """Politeness host of a doc id.

    Real URLs (``scheme://host/path``) parse to the lowercased netloc
    host (userinfo/port stripped) — the deployment path, where one
    Wikipedia crawl is ONE host and politeness must group by the real
    domain.  Bare titles (the sandbox corpus) fall back to a synthetic
    hash into ``N_HOSTS`` buckets so the politeness machinery is
    exercised with a multi-host shape at test scale."""
    if "://" in doc_id:
        from urllib.parse import urlsplit

        netloc = urlsplit(doc_id).netloc.lower()
        host = netloc.rsplit("@", 1)[-1].split(":", 1)[0]
        if host:
            return host
    return f"h{_derive_hash('host', doc_id) % N_HOSTS}"


def is_entity_idx(idx: int) -> bool:
    return idx % 5 == 0


def entity_id_for(idx: int, replica: int = 0) -> str:
    return f"E{idx:06d}" if replica == 0 else f"E_r{replica}_{idx:06d}"


def entity_label_for(idx: int, replica: int = 0) -> str:
    # one shared label per 1000-block to exercise non-unique labels
    suffix = "" if replica == 0 else f" R{replica}"
    if idx % 1000 == 990:
        return "Entity Shared Label" + suffix
    return f"Entity {idx}{suffix} Alpha"


def entity_alias_for(idx: int, replica: int = 0) -> str:
    suffix = "" if replica == 0 else f" R{replica}"
    return f"Alias {idx}{suffix} Beta"


def entity_has_page(idx: int) -> bool:
    """~1 in 5 entities has an empty page_title (empty-URL case)."""
    return _derive_hash("haspage", idx) % 5 != 0


def entity_in_id_map(idx: int) -> bool:
    """~1 in 5 entities is missing from id_map (semi-join drop)."""
    return _derive_hash("idmap", idx) % 5 != 0


def _doc_spans(
    idx: int, text: str, n_docs: int, replica: int, text_repeat: int = 1
) -> List[dict]:
    """Deterministic interleaved span sequence for one source document."""
    spans: List[dict] = []
    offset = 0

    def add(kind: str, stext: str, media_ref: str = "") -> None:
        nonlocal offset
        spans.append(
            {"kind": kind, "text": stext, "media_ref": media_ref, "offset": offset}
        )
        offset += 1

    # The source documents are lowercase word soup without punctuation;
    # sentencify deterministically: chunks of 7 words, capitalized and
    # period-terminated — except every 5th chunk stays lowercase and
    # every 7th is truncated short, so the cleaner's uppercase/length
    # filters (reference cmd/build_matches_db.py:344-350) have real
    # work on every page.
    # text_repeat scales page weight toward realistic article length
    # (the source docs are ~50 words; real wiki articles are ~1000+)
    words = text.split() * max(text_repeat, 1)
    sents = []
    for ci, start in enumerate(range(0, len(words), 9)):
        chunk = words[start : start + 9]
        if ci % 7 == 3:
            chunk = chunk[:3]  # short sentence: fails the >=40-char rule
        sent = " ".join(chunk)
        if not sent:
            continue
        if ci % 5 != 2:  # every 5th stays lowercase: fails isupper rule
            sent = sent[0].upper() + sent[1:] + "."
        sents.append(sent)
    # two sentences per text span (a span = a paragraph downstream)
    for i in range(0, len(sents), 2):
        add("text", " ".join(sents[i : i + 2]))

    # inject links + an anchor sentence each: ~60% target entity pages
    # (those give the matcher hits that survive the cleaner), the rest
    # target arbitrary pages — so the crawl's 1-hop neighborhood covers
    # non-entity pages too, like a real wiki link graph
    n_links = 1 + _derive_hash("nlinks", idx) % 5
    for j in range(n_links):
        target_idx = (idx * 31 + 7 * (j + 1) + 13) % n_docs
        if _derive_hash("targetkind", idx, j) % 5 < 3:
            target_idx -= target_idx % 5  # snap to an entity page index
        use_alias = _derive_hash("alias", idx, j) % 3 == 0
        anchor = (
            entity_alias_for(target_idx, replica)
            if use_alias
            else entity_label_for(target_idx, replica)
        )
        # empty-anchor case: fall back to target title (reference
        # cmd/build_matches_db.py:261 uses link.title when text is empty)
        if _derive_hash("emptyanchor", idx, j) % 7 == 0:
            anchor = ""
        shown = anchor if anchor else doc_title(target_idx, replica)
        add("link", anchor, doc_title(target_idx, replica))
        add(
            "text",
            f"The entity {shown} appears prominently in this detailed study of related topics.",
        )
        # ambiguous-anchor case: same anchor text linking a second target
        if _derive_hash("ambig", idx, j) % 11 == 0 and anchor:
            other = (target_idx + 5) % n_docs
            other -= other % 5
            if other != target_idx:
                add("link", anchor, doc_title(other, replica))

    # sprinkle media spans between text spans (interleaving is nontrivial)
    if _derive_hash("media", idx) % 2 == 0:
        add(
            "media",
            f"Figure {idx % 9}: an illustrative diagram for this article.",
            f"media://img/{idx}.png",
        )
    return spans


class DeriveDocs:
    """map_batches callable: documents rows -> docs rows (input_hint shape)."""

    def __init__(self, n_docs: int, replicas: int = 1, text_repeat: int = 1):
        self.n_docs = n_docs
        self.replicas = replicas
        self.text_repeat = text_repeat

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids: List[str] = []
        span_col: List[List[dict]] = []
        idxs = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        for r in range(self.replicas):
            for idx, text in zip(idxs, texts):
                doc_ids.append(doc_title(idx, r))
                span_col.append(
                    _doc_spans(idx, text, self.n_docs, r, self.text_repeat)
                )
        return pa.Table.from_arrays(
            [pa.array(doc_ids, pa.string()), pa.array(span_col, SPAN_TYPE)],
            schema=DOCS_SCHEMA,
        )


def num_source_docs(sf_dir: str) -> int:
    return pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows


def read_docs(
    sf_dir: str, replicas: int = 1, text_repeat: int = 1
) -> ray.data.Dataset:
    """documents.parquet -> docs Dataset (distributed derivation).

    Column-pruned read (only doc_id + text leave storage).
    """
    n = num_source_docs(sf_dir)
    src = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return src.map_batches(
        DeriveDocs(n, replicas, text_repeat), batch_format="pyarrow", batch_size=256
    )


def entity_catalog(sf_dir: str, replicas: int = 1) -> pa.Table:
    """The small-side ``entities`` table (broadcast everywhere).

    Columns: entity_id, label, page_title ('' for the empty-URL case).
    Links are intra-replica, so each replica carries its own entity
    universe — the workload scales linearly with ``replicas``.
    """
    n = num_source_docs(sf_dir)
    eids, labels, titles = [], [], []
    for r in range(replicas):
        for idx in range(0, n, 5):
            eids.append(entity_id_for(idx, r))
            labels.append(entity_label_for(idx, r))
            titles.append(doc_title(idx, r) if entity_has_page(idx) else "")
    return pa.table({"entity_id": eids, "label": labels, "page_title": titles})


def id_map_table(sf_dir: str, replicas: int = 1) -> pa.Table:
    """entity_id -> rid (non-contiguous), ~80% coverage of entities."""
    n = num_source_docs(sf_dir)
    eids, rids = [], []
    for r in range(replicas):
        for idx in range(0, n, 5):
            if entity_in_id_map(idx):
                eids.append(entity_id_for(idx, r))
                rids.append((r * n + idx) * 2 + 1)
    return pa.table({"entity_id": eids, "rid": pa.array(rids, pa.int64())})


def seed_table(sf_dir: str, replicas: int = 1) -> pa.Table:
    """Crawl seeds: entity pages with a non-empty title, priority 1.0."""
    ents = entity_catalog(sf_dir, replicas)
    titles = [t for t in ents["page_title"].to_pylist() if t != ""]
    return pa.table(
        {"url": titles, "priority": pa.array([1.0] * len(titles), pa.float64())}
    )


def entities_index(entities: pa.Table) -> Dict[str, Dict]:
    """Driver-side indexes built once and broadcast via ray.put:
    title->entity_id (the reference's entity_page_title_to_mid,
    cmd/build_matches_db.py:225-234) and entity_id->label.
    """
    title_to_eid: Dict[str, str] = {}
    eid_to_label: Dict[str, str] = {}
    for eid, label, title in zip(
        entities["entity_id"].to_pylist(),
        entities["label"].to_pylist(),
        entities["page_title"].to_pylist(),
    ):
        eid_to_label[eid] = label
        if title:
            title_to_eid[title] = eid
    return {"title_to_eid": title_to_eid, "eid_to_label": eid_to_label}
