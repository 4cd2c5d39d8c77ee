"""Stage 1 — docs -> pages + matches + mentions.

Ray-Data-native rebuild of the reference's ``_process_page`` worker
(reference cmd/build_matches_db.py:237-320) as a task
``map_batches`` stage: the entity indexes are broadcast once with
``ray.put`` and loaded ONCE per worker process on first use (the
reference replicates them per pool worker via the Pool initializer,
cmd/build_matches_db.py:215-222), and each call processes a batch of
docs.  Running as tasks, the stage fuses with the read that feeds it
and reserves no CPUs of its own.

Output is ONE combined row per doc carrying the page, its stats and
the nested matches/mentions lists — pages and their matches are
co-located by construction, which lets stage 2 window contexts
WITHOUT the pages⋈matches shuffle join the reference performs in SQL
(dao/matches_db.py:183-193): the join key (page title) is this row's
own ``title``, so the join is elided (SURVEY.md §2.4 J2 note).

Assembly is COLUMNAR end to end: the input ``spans`` list<struct>
column is decomposed once per batch into flat child lists
(``SpanColumns``), and the output is accumulated in per-column
builders (``CombinedBuilder``) — no per-row dicts, no per-match
dicts, no ``Table.from_pylist``.  Per-row dict materialization was
measured as the allocator-bound residual limiting 8→32-CPU scaling
(BASELINE.md).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.broadcast import cached, ref_id
from ..functions.matcher import PhraseMatcher
from ..functions.text import clean_up_text, token_texts, tokenize, tokenize_arrays

MATCH_ITEM = pa.struct(
    [
        ("entity_id", pa.string()),
        ("entity_label", pa.string()),
        ("mention", pa.string()),
        ("start_char", pa.int32()),
        ("end_char", pa.int32()),
        ("context", pa.string()),
    ]
)
MENTION_ITEM = pa.struct(
    [("entity_id", pa.string()), ("entity_label", pa.string()), ("mention", pa.string())]
)

COMBINED_SCHEMA = pa.schema(
    [
        ("title", pa.string()),
        ("clean_text", pa.string()),
        ("link_count", pa.int32()),
        ("entity_link_count", pa.int32()),
        ("mention_count", pa.int32()),
        ("unique_mention_count", pa.int32()),
        ("text_len", pa.int32()),
        ("clean_text_len", pa.int32()),
        ("match_count", pa.int32()),
        ("matches", pa.list_(MATCH_ITEM)),
        ("mentions", pa.list_(MENTION_ITEM)),
        ("error", pa.string()),
    ]
)

DEBUG_WINDOW = 20  # ±20-char debug snippet (reference cmd/build_matches_db.py:295-297)


class SpanColumns:
    """One columnar decomposition of a ``spans`` list<struct> column:
    flat child lists + per-doc offsets.  Built once per batch (or per
    lookup) — each doc is then a [lo, hi) slice of the flat lists,
    with no per-span dict ever created."""

    __slots__ = ("offs", "is_link", "is_text", "text", "ref", "offset")

    def __init__(self, col) -> None:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # list offsets may not start at 0 after a slice/take — rebase
        raw = col.offsets.to_numpy(zero_copy_only=False)
        self.offs = (raw - raw[0]).astype(np.int64)
        flat = col.flatten()
        # kind stays vectorized: bool masks from one Arrow compare each
        # instead of a python string per span (kind[i] == 'link' per
        # span measured in the 8→32 scaling residual)
        kind_arr = pc.struct_field(flat, "kind")
        self.is_link = pc.equal(kind_arr, "link").to_numpy(zero_copy_only=False)
        self.is_text = pc.equal(kind_arr, "text").to_numpy(zero_copy_only=False)
        self.text = pc.struct_field(flat, "text").to_pylist()
        self.ref = pc.struct_field(flat, "media_ref").to_pylist()
        self.offset = pc.struct_field(flat, "offset").to_numpy(zero_copy_only=False)

    @classmethod
    def from_dicts_list(cls, spans_list: List[List[dict]]) -> "SpanColumns":
        """Adapter for callers holding spans as lists of dicts (the
        spec form used by ``process_doc`` and tests)."""
        self = object.__new__(cls)
        offs = [0]
        kind: List = []
        text: List = []
        ref: List = []
        offset: List = []
        for spans in spans_list:
            for s in spans:
                kind.append(s["kind"])
                text.append(s["text"])
                ref.append(s["media_ref"])
                offset.append(s["offset"])
            offs.append(len(kind))
        self.offs = np.asarray(offs, dtype=np.int64)
        self.is_link = np.asarray([k == "link" for k in kind], dtype=bool)
        self.is_text = np.asarray([k == "text" for k in kind], dtype=bool)
        self.text = text
        self.ref = ref
        self.offset = np.asarray(offset, dtype=np.int64)
        return self


class CombinedBuilder:
    """Per-column accumulators for COMBINED_SCHEMA rows.

    ``add_doc`` appends one page's worth of columns (transactionally:
    a failing page rolls back its partial appends and becomes an error
    row — the reference's per-page guard, cmd/build_matches_db.py:
    319-320).  ``table()`` assembles the Arrow table with
    ``ListArray.from_arrays`` over the flat match/mention children."""

    _SCALARS = (
        "title",
        "clean_text",
        "link_count",
        "entity_link_count",
        "mention_count",
        "unique_mention_count",
        "text_len",
        "clean_text_len",
        "match_count",
        "error",
    )
    _FLAT = (
        "m_eid",
        "m_label",
        "m_mention",
        "m_start",
        "m_end",
        "m_ctx",
        "n_eid",
        "n_label",
        "n_mention",
    )
    __slots__ = _SCALARS + _FLAT + ("m_off", "n_off")

    def __init__(self) -> None:
        for name in self._SCALARS + self._FLAT:
            setattr(self, name, [])
        self.m_off = [0]
        self.n_off = [0]

    def add_error(self, title: str, msg: str) -> None:
        # error rows carry 0 (not null) in the seven count columns —
        # aggregates over counts must filter error == '' first, as every
        # *_view and oracle in this repo does
        self.title.append(title)
        self.clean_text.append("")
        for name in self._SCALARS[2:9]:
            getattr(self, name).append(0)
        self.error.append(msg)
        self.m_off.append(len(self.m_eid))
        self.n_off.append(len(self.n_eid))

    def add_doc(
        self,
        title: str,
        spans: SpanColumns,
        doc_idx: int,
        title_to_eid: Dict[str, str],
        eid_to_label: Dict[str, str],
        tok=None,
    ) -> bool:
        """Append one page; on any per-page exception, roll back the
        partial appends and record an error row instead.  Returns True
        when the page extracted cleanly."""
        marks = [len(getattr(self, n)) for n in self._SCALARS + self._FLAT]
        try:
            self._extract(title, spans, doc_idx, title_to_eid, eid_to_label, tok)
            return True
        except Exception as exc:  # noqa: BLE001 — poison-row guard
            for n, mark in zip(self._SCALARS + self._FLAT, marks):
                lst = getattr(self, n)
                del lst[mark:]
            del self.m_off[len(self.title) + 1 :]
            del self.n_off[len(self.title) + 1 :]
            self.add_error(title, f"{type(exc).__name__}: {exc}")
            return False

    def _extract(
        self,
        title: str,
        spans: SpanColumns,
        doc_idx: int,
        title_to_eid: Dict[str, str],
        eid_to_label: Dict[str, str],
        tok=None,
    ) -> None:
        """Pure per-doc logic (reference _process_page,
        cmd/build_matches_db.py:241-317), over the interleaved-span
        schema: link spans play the role of wikilinks, text spans of
        plain text.  Spans are processed in ``offset`` order (the
        per-row invariant).  ``tok`` overrides the deterministic spec
        tokenizer (e.g. functions.text.make_spacy_tokenizer for the
        conformance comparison)."""
        tok = tok or tokenize
        lo = int(spans.offs[doc_idx])
        hi = int(spans.offs[doc_idx + 1])
        order = lo + np.argsort(spans.offset[lo:hi], kind="stable")
        text, ref = spans.text, spans.ref

        link_idx = order[spans.is_link[order]].tolist()
        entity_idx = [i for i in link_idx if ref[i] in title_to_eid]

        # anchor text, falling back to the target title when empty
        # (reference cmd/build_matches_db.py:261)
        mention_to_eids: Dict[str, set] = {}
        for i in entity_idx:
            mention = text[i] if text[i] else ref[i]
            mention_to_eids.setdefault(mention, set()).add(title_to_eid[ref[i]])

        # ambiguity dedup: mentions mapping to >1 entity dropped
        # (reference cmd/build_matches_db.py:265-266)
        mention_to_eid = {
            m: next(iter(eids))
            for m, eids in mention_to_eids.items()
            if len(eids) == 1
        }

        # page text = text spans in document order, one paragraph per span
        page_text = "\n".join(
            text[i] for i in order[spans.is_text[order]].tolist()
        )
        clean_text = clean_up_text(page_text)

        # phrase-match mentions over the cleaned text; per-page matcher
        # is cheap, built per doc like the reference
        # (cmd/build_matches_db.py:273-274).  Pages with no unique
        # mentions skip tokenization entirely (tokenize is ~40% of
        # extraction and an empty matcher can never fire).
        spec = tok is tokenize
        matcher = PhraseMatcher(mention_to_eid.keys(), None if spec else tok)
        tok_texts: List[str] = []
        tok_starts: List[int] = []
        tok_ends: List[int] = []
        if matcher:
            # parallel-array tokens (no triple tuples on the hot path;
            # tokenize_arrays takes the vectorized ASCII scan)
            if spec:
                tok_texts, tok_starts, tok_ends = tokenize_arrays(clean_text)
            else:
                triples = tok(clean_text)
                tok_texts = [t[0] for t in triples]
                tok_starts = [t[1] for t in triples]
                tok_ends = [t[2] for t in triples]
            token_spans = matcher(tok_texts)
        else:
            token_spans = []

        # pattern token-tuple -> eid: lookup via tokens; the mention
        # column records the ACTUAL document span text
        # clean_text[start:end] (the reference stores match_span.text,
        # cmd/build_matches_db.py:287-289) — for token-equal but
        # byte-different spans (doubled whitespace) the stored mention
        # must equal the slice, not the pattern surface
        pat_lookup = {}
        for m, eid in mention_to_eid.items():
            key = tuple(token_texts(m)) if spec else tuple(t[0] for t in tok(m))
            pat_lookup[key] = eid

        n_matches = 0
        text_n = len(clean_text)
        for ts, te in token_spans:
            start_char = tok_starts[ts]
            end_char = tok_ends[te - 1]
            eid = pat_lookup[tuple(tok_texts[ts:te])]
            self.m_eid.append(eid)
            self.m_label.append(eid_to_label[eid])
            self.m_mention.append(clean_text[start_char:end_char])
            self.m_start.append(start_char)
            self.m_end.append(end_char)
            self.m_ctx.append(
                clean_text[
                    max(start_char - DEBUG_WINDOW, 0) : min(
                        end_char + DEBUG_WINDOW, text_n
                    )
                ]
            )
            n_matches += 1

        for eid, label, m in sorted(
            (mention_to_eid[m], eid_to_label[mention_to_eid[m]], m)
            for m in mention_to_eid
        ):
            self.n_eid.append(eid)
            self.n_label.append(label)
            self.n_mention.append(m)

        self.title.append(title)
        self.clean_text.append(clean_text)
        self.link_count.append(len(link_idx))
        self.entity_link_count.append(len(entity_idx))
        self.mention_count.append(len(mention_to_eids))
        self.unique_mention_count.append(len(mention_to_eid))
        self.text_len.append(len(page_text))
        self.clean_text_len.append(text_n)
        self.match_count.append(n_matches)
        self.error.append("")
        self.m_off.append(len(self.m_eid))
        self.n_off.append(len(self.n_eid))

    def table(self) -> pa.Table:
        matches = pa.ListArray.from_arrays(
            pa.array(self.m_off, pa.int32()),
            pa.StructArray.from_arrays(
                [
                    pa.array(self.m_eid, pa.string()),
                    pa.array(self.m_label, pa.string()),
                    pa.array(self.m_mention, pa.string()),
                    pa.array(self.m_start, pa.int32()),
                    pa.array(self.m_end, pa.int32()),
                    pa.array(self.m_ctx, pa.string()),
                ],
                fields=list(MATCH_ITEM),
            ),
        )
        mentions = pa.ListArray.from_arrays(
            pa.array(self.n_off, pa.int32()),
            pa.StructArray.from_arrays(
                [
                    pa.array(self.n_eid, pa.string()),
                    pa.array(self.n_label, pa.string()),
                    pa.array(self.n_mention, pa.string()),
                ],
                fields=list(MENTION_ITEM),
            ),
        )
        return pa.Table.from_arrays(
            [
                pa.array(self.title, pa.string()),
                pa.array(self.clean_text, pa.string()),
                pa.array(self.link_count, pa.int32()),
                pa.array(self.entity_link_count, pa.int32()),
                pa.array(self.mention_count, pa.int32()),
                pa.array(self.unique_mention_count, pa.int32()),
                pa.array(self.text_len, pa.int32()),
                pa.array(self.clean_text_len, pa.int32()),
                pa.array(self.match_count, pa.int32()),
                matches,
                mentions,
                pa.array(self.error, pa.string()),
            ],
            schema=COMBINED_SCHEMA,
        )


def process_doc(
    title: str,
    spans: List[dict],
    title_to_eid: Dict[str, str],
    eid_to_label: Dict[str, str],
) -> dict:
    """Spec form of the per-doc extraction: one doc in (spans as a
    list of dicts), one COMBINED_SCHEMA row out as a dict.  Thin
    wrapper over the columnar ``CombinedBuilder`` hot path (kept as
    the readable reference point and for tests; pipelines call the
    builder directly)."""
    b = CombinedBuilder()
    b._extract(
        title, SpanColumns.from_dicts_list([spans]), 0, title_to_eid, eid_to_label
    )
    return b.table().to_pylist()[0]


class PageProcessor:
    """Task callable: docs batch -> combined rows batch.

    ``entities_ref`` is a ``ray.put`` handle of the dict returned by
    ``sources.docs.entities_index``.  The instance holds only that
    handle and the tokenizer name, so ``map_batches`` runs it as plain
    tasks; the index (and the spaCy pipeline) is loaded on the first
    call in each worker process and reused by every later batch and
    call with the same broadcast (``functions.broadcast``).  A plain
    index dict also works, for in-process calls."""

    def __init__(self, entities_ref, tokenizer: str = "spec"):
        if tokenizer not in ("spec", "spacy"):
            raise ValueError(f"unknown tokenizer {tokenizer!r}")
        self.entities_ref = entities_ref
        self.tokenizer = tokenizer
        self._state = None if isinstance(entities_ref, ray.ObjectRef) else self._load()

    def _load(self):
        ref = self.entities_ref
        idx = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        # conformance escape hatch: ``tokenizer='spacy'`` loads a REAL
        # spaCy pipeline once per worker (the reference's model load,
        # cmd/build_matches_db.py:220) so divergence from the
        # deterministic spec is measurable, not just asserted
        tok = None
        if self.tokenizer == "spacy":
            from ..functions.text import make_spacy_tokenizer

            tok = make_spacy_tokenizer()
        return idx["title_to_eid"], idx["eid_to_label"], tok

    def __call__(self, batch: pa.Table) -> pa.Table:
        title_to_eid, eid_to_label, tok = self._state or cached(
            ("PageProcessor", ref_id(self.entities_ref), self.tokenizer), self._load
        )
        b = CombinedBuilder()
        titles = batch["doc_id"].to_pylist()
        spans = SpanColumns(batch["spans"])
        for i, title in enumerate(titles):
            b.add_doc(title, spans, i, title_to_eid, eid_to_label, tok)
        return b.table()
