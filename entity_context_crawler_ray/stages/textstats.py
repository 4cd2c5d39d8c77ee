"""Text-analysis operators over a ``text`` column: token counting,
quality scoring, language-ID, document fingerprinting.

These extend the reference's per-page stats (M13, reference
cmd/build_matches_db.py:305-313) with the operations a large-scale
training-data pipeline needs.  Every function is a vectorized-or-
compiled-regex ``map_batches`` body over Arrow batches; the regexes
are RE2-compatible so each operator has an exact DuckDB oracle.
"""

from __future__ import annotations

import hashlib
import re
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import TOKEN_PATTERN
from .exchange import by_key, run_starts, seg_ids, seg_reduce

_TOKEN_RE = re.compile(TOKEN_PATTERN)
_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_PUNCT_RE = re.compile(r"[^A-Za-z0-9_\s]")

# tiny deterministic stopword lists (language-ID heuristic)
STOPWORDS = {
    "en": ("the", "a", "of", "and", "to", "in", "is"),
    "de": ("der", "die", "das", "und", "ein", "zu", "ist"),
    "es": ("el", "la", "de", "y", "un", "es", "en"),
}
EN_STOP = set(STOPWORDS["en"])


def doc_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """n_tokens, n_words, n_punct, text_chars per row."""
    texts = batch[text_col].to_pylist()
    n_tokens = [len(_TOKEN_RE.findall(t)) for t in texts]
    n_words = [len(_WORD_RE.findall(t)) for t in texts]
    n_punct = [len(_PUNCT_RE.findall(t)) for t in texts]
    out = batch.drop_columns([text_col])
    out = out.append_column("n_tokens", pa.array(n_tokens, pa.int64()))
    out = out.append_column("n_words", pa.array(n_words, pa.int64()))
    out = out.append_column("n_punct", pa.array(n_punct, pa.int64()))
    out = out.append_column("text_chars", pc.cast(pc.utf8_length(batch[text_col]), pa.int64()))
    return out


def quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality signals: word count, stopword count, stop_ratio,
    mean word length — integer counts plus deterministic ratios."""
    texts = batch[text_col].to_pylist()
    n_words: List[int] = []
    n_stop: List[int] = []
    sum_wlen: List[int] = []
    for t in texts:
        ws = _WORD_RE.findall(t.lower())
        n_words.append(len(ws))
        n_stop.append(sum(1 for w in ws if w in EN_STOP))
        sum_wlen.append(sum(len(w) for w in ws))
    n_words_a = np.array(n_words, dtype=np.int64)
    n_stop_a = np.array(n_stop, dtype=np.int64)
    sum_wlen_a = np.array(sum_wlen, dtype=np.int64)
    denom = np.maximum(n_words_a, 1)
    out = batch.drop_columns([text_col])
    out = out.append_column("n_words", pa.array(n_words_a))
    out = out.append_column("n_stop", pa.array(n_stop_a))
    out = out.append_column("stop_ratio", pa.array(n_stop_a / denom))
    out = out.append_column("mean_word_len", pa.array(sum_wlen_a / denom))
    return out


def lang_id(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword-vote language ID over {en, de, es}; ties resolve in
    that order (deterministic)."""
    texts = batch[text_col].to_pylist()
    langs = []
    sets = [(l, set(ws)) for l, ws in STOPWORDS.items()]
    for t in texts:
        ws = _WORD_RE.findall(t.lower())
        votes = {l: sum(1 for w in ws if w in s) for l, s in sets}
        langs.append(max(("en", "de", "es"), key=lambda l: (votes[l], )))
    out = batch.drop_columns([text_col])
    return out.append_column("lang_pred", pa.array(langs, pa.string()))


def fingerprint(batch: pa.Table, text_col: str = "text", shingle: int = 5) -> pa.Table:
    """Document fingerprint = lexicographic min of md5 hex digests of
    word ``shingle``-grams (md5 so DuckDB computes the identical
    value); docs with < shingle words fingerprint the whole word list.
    Vectorized: all grams hash through the numpy MD5 kernel at once;
    the per-doc lexicographic min over hex == numeric min over the
    (hi, lo) u64 split, taken with two reduceat passes."""
    from ..functions.hashing import md5_u128

    texts = batch[text_col].to_pylist()
    if not texts:
        out = batch.drop_columns([text_col])
        return out.append_column(
            "fingerprint", pa.array([], pa.string())
        )
    gram_parts: List[str] = []
    starts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        starts[i] = len(gram_parts)
        ws = _WORD_RE.findall(t)
        if len(ws) >= shingle:
            gram_parts.extend(
                " ".join(ws[j : j + shingle])
                for j in range(len(ws) - shingle + 1)
            )
        else:
            gram_parts.append(" ".join(ws))
    hi, lo = md5_u128(gram_parts)
    min_hi = np.minimum.reduceat(hi, starts)
    doc_of = np.repeat(
        np.arange(len(texts)), np.diff(np.append(starts, len(hi)))
    )
    lo_masked = np.where(hi == min_hi[doc_of], lo, np.iinfo(np.uint64).max)
    min_lo = np.minimum.reduceat(lo_masked, starts)
    fps = [f"{h:016x}{l:016x}" for h, l in zip(min_hi.tolist(), min_lo.tolist())]
    out = batch.drop_columns([text_col])
    return out.append_column("fingerprint", pa.array(fps, pa.string()))


# GPT-2-style pre-tokenizer (public: Radford et al. 2019, the released
# gpt2 `pat` regex), restricted to RE2-compatible syntax (no lookahead,
# no unicode property classes) so Python `re` and DuckDB's RE2 tokenize
# identically — both engines use leftmost-first alternation.
BPE_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"
_BPE_RE = re.compile(BPE_PATTERN)


def bpe_token_count(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc BPE-ish token count: the number of pre-tokenizer pieces
    under BPE_PATTERN (a proxy for LLM token cost — real BPE merges
    only split pieces further, so this lower-bounds the BPE count with
    the same shape).  Compiled regex, one findall per doc."""
    texts = batch[text_col].to_pylist()
    n = [len(_BPE_RE.findall(t)) for t in texts]
    out = batch.drop_columns([text_col])
    return out.append_column("n_bpe_tokens", pa.array(n, pa.int64()))


def tfidf_topk(
    documents,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_vocab_broadcast: int = 5_000_000,
):
    """Per-doc top-``k`` terms by smooth TF-IDF
    (``tf * (ln((N+1)/(df+1)) + 1)``, sklearn's smooth_idf form), ties
    broken by word asc.  Two passes over ``documents``:

    1. document frequency per word — map-side partial df per batch,
       then ONE word-keyed exchange (same discipline as
       ``term_doc_freq``); the df table is vocabulary-sized, not
       corpus-sized, and is broadcast via ``ray.put``.
    2. per-doc tf + scoring + per-doc top-k — pure ``map_batches``,
       no further shuffle.

    Scale guard: the broadcast df map is bounded by
    ``max_vocab_broadcast`` distinct words; beyond that a word-keyed
    join (explode → join df → re-group by doc) is the path, and this
    helper raises with that instruction rather than silently
    collecting an unbounded vocabulary on the driver."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    def partial_df(batch: pa.Table) -> pa.Table:
        words: List[str] = []
        for t in batch[text_col].to_pylist():
            words.extend(set(_WORD_RE.findall(t.lower())))
        if not words:
            return pa.table(
                {"word": pa.array([], pa.string()), "pdf": pa.array([], pa.int64())}
            )
        w = pa.table({"word": pa.array(words, pa.string())})
        agg = w.group_by("word").aggregate([("word", "count")])
        return pa.table(
            {"word": agg["word"], "pdf": pc.cast(agg["word_count"], pa.int64())}
        )

    n_docs = documents.count()
    df_ds = (
        documents.map_batches(partial_df, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("pdf", alias_name="df"))
    )
    vocab = df_ds.count()
    if vocab > max_vocab_broadcast:
        raise ValueError(
            f"vocabulary {vocab} exceeds max_vocab_broadcast="
            f"{max_vocab_broadcast}; use the word-keyed join path "
            "(explode words, join the df table on word, re-group by "
            f"{id_col}) instead of a driver broadcast"
        )
    df_map = {}
    for b in df_ds.iter_batches(batch_format="pyarrow"):
        df_map.update(zip(b["word"].to_pylist(), b["df"].to_pylist()))
    df_ref = ray.put(df_map)
    import math

    def score(batch: pa.Table) -> pa.Table:
        dfm = ray.get(df_ref)
        ids, words, tfs, dfs, scores = [], [], [], [], []
        for doc_id, t in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            tf: dict = {}
            for w in _WORD_RE.findall(t.lower()):
                tf[w] = tf.get(w, 0) + 1
            scored = [
                (c * (math.log((n_docs + 1.0) / (dfm[w] + 1.0)) + 1.0), w, c)
                for w, c in tf.items()
            ]
            scored.sort(key=lambda x: (-x[0], x[1]))
            for s, w, c in scored[:k]:
                ids.append(doc_id)
                words.append(w)
                tfs.append(c)
                dfs.append(dfm[w])
                scores.append(s)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "word": pa.array(words, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
                "df": pa.array(dfs, pa.int64()),
                "tfidf": pa.array(scores, pa.float64()),
            }
        )

    return documents.map_batches(score, batch_format="pyarrow")


DEFAULT_REDACT = (
    (r"[A-Za-z0-9_.+-]+@[A-Za-z0-9-]+\.[A-Za-z0-9.-]+", "<EMAIL>"),
    (r"[0-9]+", "<NUM>"),
)


def make_redactor(rules=DEFAULT_REDACT, text_col: str = "text"):
    """PII/pattern scrubbing ``map_batches`` body: apply the ordered
    (regex, replacement) rules to the text column.  Regexes are
    compiled once per closure (per worker), RE2-compatible so the
    DuckDB ``regexp_replace(..., 'g')`` oracle is exact."""
    compiled = [(re.compile(p), r) for p, r in rules]

    def redact(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        for rx, repl in compiled:
            texts = [rx.sub(repl, t) for t in texts]
        return batch.set_column(
            batch.schema.get_field_index(text_col),
            text_col,
            pa.array(texts, pa.string()),
        )

    return redact


def term_doc_freq(
    documents, top_n: int = 100, id_col: str = "doc_id", text_col: str = "text"
):
    """Global term document-frequency, top-``top_n`` by (df desc, word
    asc).  Map-side partial aggregation: each batch collapses its
    distinct-per-doc words to (word, partial df) with an Arrow
    group_by BEFORE the one word-keyed exchange — the shuffle moves
    one row per (word, batch), never one per occurrence."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        words: List[str] = []
        for t in batch[text_col].to_pylist():
            words.extend(set(_WORD_RE.findall(t.lower())))
        if not words:
            return pa.table(
                {"word": pa.array([], pa.string()), "pdf": pa.array([], pa.int64())}
            )
        w = pa.table({"word": pa.array(words, pa.string())})
        agg = w.group_by("word").aggregate([("word", "count")])
        return pa.table(
            {"word": agg["word"], "pdf": pc.cast(agg["word_count"], pa.int64())}
        )

    return (
        documents.map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("pdf", alias_name="df"))
        .sort(["df", "word"], descending=[True, False])
        .limit(top_n)
    )


def simhash64(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit SimHash over distinct word unigrams: bit b of the
    signature = sign of sum over words of (+1/-1) by bit b of the
    word's 64-bit hash.  Word hash = first 8 bytes of md5 — md5 so the
    DuckDB oracle (SQL_SIMHASH) computes the identical signature.
    Stored as int64 with a -2^63 offset (no-word docs = -2^63)."""
    from ..functions.hashing import md5_u64

    texts = batch[text_col].to_pylist()
    words: List[str] = []
    starts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        starts[i] = len(words)
        words.extend(sorted(set(_WORD_RE.findall(t.lower()))))
    sigs = np.full(len(texts), -(1 << 63), dtype=np.int64)
    if words:
        hs = md5_u64(words)
        # (n_words, 64) ±1 bit matrix, summed per doc with one reduceat
        bits = (
            (hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
            & np.uint64(1)
        ).astype(np.int64)
        # one trailing zero row makes every start (== len(hs) for
        # trailing tokenless docs) a valid reduceat index without
        # shortening the previous doc's segment
        contrib = np.vstack([2 * bits - 1, np.zeros((1, 64), np.int64)])
        lens = np.diff(np.append(starts, len(hs)))
        acc = np.add.reduceat(contrib, starts, axis=0)
        sig = ((acc > 0).astype(np.uint64)
               << np.arange(64, dtype=np.uint64)[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        signed = (sig ^ np.uint64(1 << 63)).view(np.int64)
        sigs = np.where(lens > 0, signed, -(1 << 63))
    out = batch.drop_columns([text_col])
    return out.append_column("simhash", pa.array(sigs, pa.int64()))


def inverted_index(
    documents,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_df: int = 0,
):
    """Distributed inverted-index build: word -> ordered posting list
    of ``doc:position`` (0-based token index, ``_WORD_RE`` tokens on
    lowercased text) plus df (distinct docs) and total occurrence
    count.  The search-index / n-gram-LM construction shape.

    One word-keyed ``by_key`` exchange of (word, doc, pos) triples —
    already the minimal exchange for position-bearing postings; per
    partition, postings assemble with one lexsort and one Arrow list
    join, never a Python loop over words.  With ``max_df`` > 0, words
    appearing in more than ``max_df`` docs are dropped AFTER df is
    known (stopword pruning) so giant posting rows never materialize."""

    def explode(batch: pa.Table) -> pa.Table:
        docs, words, poss = [], [], []
        for d, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            toks = _WORD_RE.findall(t.lower())
            words.extend(toks)
            poss.extend(range(len(toks)))
            docs.extend([d] * len(toks))
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                id_col: pa.array(docs, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
            }
        )

    def postings(t: pa.Table) -> pa.Table:
        starts = run_starts(t["word"])
        seg = seg_ids(starts, t.num_rows)
        docs, pos = t[id_col].to_numpy(), t["pos"].to_numpy()
        order = np.lexsort((pos, docs, seg))
        docs, pos = docs[order], pos[order]
        new_doc = np.ones(len(docs), dtype=bool)
        new_doc[1:] = (seg[1:] != seg[:-1]) | (docs[1:] != docs[:-1])
        df = seg_reduce(np.add, new_doc.astype(np.int64), starts)
        pairs = pc.binary_join_element_wise(
            pa.array(docs).cast(pa.string()), pa.array(pos).cast(pa.string()), ":"
        )
        lists = pa.ListArray.from_arrays(pa.array(np.append(starts, len(docs)), pa.int32()), pairs)
        out = pa.table(
            {
                "word": t["word"].take(starts),
                "df": df,
                "n_postings": np.diff(np.append(starts, len(docs))),
                "postings": pc.binary_join(lists, ","),
            }
        )
        return out.filter(pc.less_equal(out["df"], max_df)) if max_df else out

    return by_key(documents.map_batches(explode, batch_format="pyarrow"), "word", postings)


def repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition quality signals per doc: distinct-word
    fraction and the share of all word-bigrams taken by the single
    most frequent bigram (high => boilerplate / degenerate text).
    Pure map — no exchange; fractions are plain IEEE divisions so the
    DuckDB twin reproduces them bit-for-bit."""
    n_words, n_distinct, top_bi, n_bi = [], [], [], []
    for t in batch[text_col].to_pylist():
        toks = _WORD_RE.findall(t.lower())
        n_words.append(len(toks))
        n_distinct.append(len(set(toks)))
        counts: dict = {}
        for i in range(len(toks) - 1):
            g = toks[i] + " " + toks[i + 1]
            counts[g] = counts.get(g, 0) + 1
        n_bi.append(max(len(toks) - 1, 0))
        top_bi.append(max(counts.values()) if counts else 0)
    out = batch.drop_columns([text_col])
    out = out.append_column("n_words", pa.array(n_words, pa.int64()))
    out = out.append_column("n_distinct_words", pa.array(n_distinct, pa.int64()))
    out = out.append_column(
        "dup_word_frac",
        pa.array(
            [1.0 - d / w if w else 0.0 for d, w in zip(n_distinct, n_words)],
            pa.float64(),
        ),
    )
    out = out.append_column("n_bigrams", pa.array(n_bi, pa.int64()))
    out = out.append_column("top_bigram_count", pa.array(top_bi, pa.int64()))
    return out.append_column(
        "top_bigram_frac",
        pa.array(
            [c / n if n else 0.0 for c, n in zip(top_bi, n_bi)], pa.float64()
        ),
    )


def contamination_counts(
    documents,
    benchmark,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_benchmark_grams: int = 50_000_000,
):
    """Benchmark decontamination: per document, how many DISTINCT
    word n-grams it shares with a benchmark/eval corpus (> 0 =>
    contaminated, drop before training).

    The benchmark side is small by definition (eval sets are KB–MB
    against a 100 TB corpus), so its distinct-gram set is collected
    once, guarded by ``max_benchmark_grams``, broadcast with
    ``ray.put``, and probed inside ``map_batches`` — the classic
    broadcast semi-join; a corpus-sized right side would instead need
    a gram-keyed distributed semi-join (the q_anti_join shape)."""
    import ray

    def grams_of(text: str) -> set:
        toks = _WORD_RE.findall(text.lower())
        return {
            " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
        }

    def bench_partial(batch: pa.Table) -> pa.Table:
        out: set = set()
        for t in batch[text_col].to_pylist():
            out |= grams_of(t)
        return pa.table({"gram": pa.array(sorted(out), pa.string())})

    grams_ds = benchmark.map_batches(
        bench_partial, batch_format="pyarrow"
    ).materialize()  # count + collect share one execution
    # guard BEFORE collecting (same order as value_rank/bfs_levels):
    # the row count is a cheap distributed aggregate, the set build is
    # the driver-memory risk being guarded
    n_grams = grams_ds.count()
    if n_grams > max_benchmark_grams:
        raise ValueError(
            f"benchmark gram rows ({n_grams}) exceed "
            f"max_benchmark_grams={max_benchmark_grams}; use a "
            "gram-keyed distributed semi-join instead of broadcast"
        )
    bench_grams = set(grams_ds.to_pandas()["gram"])
    ref = ray.put(bench_grams)

    def probe(batch: pa.Table) -> pa.Table:
        bg = ray.get(ref)
        shared = [
            len(grams_of(t) & bg) for t in batch[text_col].to_pylist()
        ]
        return pa.table(
            {
                id_col: batch[id_col],
                "n_shared": pa.array(shared, pa.int64()),
                "contaminated": pa.array(
                    [int(s > 0) for s in shared], pa.int64()
                ),
            }
        )

    return documents.map_batches(probe, batch_format="pyarrow")


# --- Trained BPE (learned merge table) -------------------------------------
#
# ``bpe_token_count`` above counts PRE-TOKENIZER pieces; this section
# learns an actual merge table (Sennrich et al. 2016) distributedly
# and applies it.  Scale shape (the k-means sketch-exchange pattern,
# similarity.py kmeans_centroids): the word-count table stays a
# Dataset; each merge step is one map-side partial pair-count +
# groupby(pair).sum exchange + a 1-row argmax; the driver holds only
# the merge table (vocab-sized).
#
# Merge application is ONE left-to-right non-overlapping pass: within
# a single rule (a, b) -> ab, merging cannot create a new (a, b)
# adjacency (the merged symbol ab != a and != b), so one pass is
# complete.  Symbols render as '(sym)' in the SQL twin, so DuckDB's
# replace('(a)(b)' -> '(ab)') — also left-to-right non-overlapping,
# with no boundary chars shared between occurrences — applies the
# merge IDENTICALLY, making the whole training loop expressible as an
# unrolled CTE chain (the PageRank precedent).

_SYM_RE = re.compile(r"[a-z0-9_]+")


def _apply_merges(word: str, merges: List[tuple]) -> List[str]:
    """Apply a learned merge table to one word: start from characters,
    run each merge rule in order as a single left-to-right pass."""
    syms = list(word)
    for a, b in merges:
        if len(syms) < 2:
            break
        out = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def word_counts(
    documents, text_col: str = "text"
):
    """(word, cnt) over the repo-wide ``[a-z0-9_]+`` lowercase
    tokenization — map-side partial counts, one word-keyed exchange."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for t in batch[text_col].to_pylist():
            for w in _SYM_RE.findall(t.lower()):
                counts[w] = counts.get(w, 0) + 1
        return pa.table(
            {
                "word": pa.array(list(counts.keys()), pa.string()),
                "cnt": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return (
        documents.map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )


def bpe_train(
    documents,
    num_merges: int = 8,
    text_col: str = "text",
) -> List[tuple]:
    """Learn ``num_merges`` BPE merges over the corpus.  Returns the
    merge table [(left, right), ...] in training order.  Each step:
    re-derive every word's symbol sequence from the merges so far
    (stateless map — the words Dataset is materialized ONCE and
    re-scanned, the Lloyd-iteration discipline), emit per-batch
    partial adjacent-pair counts weighted by word count, ONE
    pair-keyed exchange to sum, then argmax with the deterministic
    (count desc, left asc, right asc) tie-break — a 1-row collect.
    Driver state: the merge table only."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    words = word_counts(documents, text_col=text_col).materialize()
    merges: List[tuple] = []
    for _ in range(num_merges):
        merges_ref = ray.put(list(merges))

        def pair_partial(batch: pa.Table, _ref=merges_ref) -> pa.Table:
            import ray as _ray

            ms = _ray.get(_ref)
            counts: dict = {}
            for w, c in zip(
                batch["word"].to_pylist(), batch["cnt"].to_pylist()
            ):
                syms = _apply_merges(w, ms)
                for i in range(len(syms) - 1):
                    k = (syms[i], syms[i + 1])
                    counts[k] = counts.get(k, 0) + c
            keys = list(counts.keys())
            return pa.table(
                {
                    "a": pa.array([k[0] for k in keys], pa.string()),
                    "b": pa.array([k[1] for k in keys], pa.string()),
                    "c": pa.array(
                        [counts[k] for k in keys], pa.int64()
                    ),
                }
            )

        top = (
            words.map_batches(pair_partial, batch_format="pyarrow")
            .groupby(["a", "b"])
            .aggregate(Sum("c", alias_name="c"))
            .sort(["c", "a", "b"], descending=[True, False, False])
            .limit(1)
            .take_all()
        )
        if not top:
            break
        merges.append((top[0]["a"], top[0]["b"]))
    return merges


def bpe_encode_count(
    documents,
    merges: List[tuple],
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Per-doc token count under a TRAINED merge table: each
    ``[a-z0-9_]+`` word encodes to its BPE symbols, the doc's count is
    the sum — (doc_id, n_bpe_tokens).  Pure map_batches; the merge
    table ships once via the closure (vocab-sized).  A per-batch word
    cache bounds re-encoding cost (corpus vocabulary << corpus
    tokens)."""
    import ray.data

    ms = list(merges)

    def encode(batch: pa.Table) -> pa.Table:
        cache: dict = {}
        out = []
        for t in batch[text_col].to_pylist():
            n = 0
            for w in _SYM_RE.findall(t.lower()):
                k = cache.get(w)
                if k is None:
                    k = len(_apply_merges(w, ms))
                    cache[w] = k
                n += k
            out.append(n)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_bpe_tokens": pa.array(out, pa.int64()),
            }
        )

    return documents.map_batches(encode, batch_format="pyarrow")


class QualityModel:
    """Model-based quality classifier INFERENCE stage (the
    linear/fastText shape): hashed bag-of-words features -> integer
    dot product against a weight vector, emitting (doc_id, score,
    keep).  The heuristic ``quality_score`` above is rule-based; this
    is the learned-classifier plumbing.

    Actor-pool pattern (the MediaEmbedder discipline, media.py:381):
    pass the CLASS to ``map_batches(QualityModel, concurrency=N)`` so
    the weight vector is built ONCE per actor in ``__init__`` — in
    production that line is a weight-file load; here the weights are
    synthesized deterministically (w[j] = (j*2654435761 mod 2^32) mod
    2001 - 1000) so the DuckDB twin can rebuild them exactly and the
    inference arithmetic is integer end-to-end (no cross-engine float
    risk).  Feature hash: md5_u64('qw' ‖ word) mod dim, vectorized
    via the numpy MD5 kernel; per-doc score = sum over word
    OCCURRENCES (count-weighted bag), reduced with one reduceat."""

    def __init__(self, dim: int = 4096, salt: str = "qw"):
        self.dim = dim
        self.salt = salt
        j = np.arange(dim, dtype=np.uint64)
        self.weights = (
            (j * np.uint64(2654435761)) % np.uint64(1 << 32)
            % np.uint64(2001)
        ).astype(np.int64) - 1000

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import md5_u64

        texts = batch["text"].to_pylist()
        words: List[str] = []
        starts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            starts[i] = len(words)
            words.extend(_SYM_RE.findall(t.lower()))
        scores = np.zeros(len(texts), dtype=np.int64)
        if words:
            buckets = md5_u64([self.salt + w for w in words]) % np.uint64(self.dim)
            wt = self.weights[buckets.astype(np.int64)]
            # per-doc sums over wt padded with one zero, so a trailing
            # tokenless doc's start (== len) stays a valid index; empty
            # docs (start == next start) get 0
            sums = np.add.reduceat(np.append(wt, 0), starts)
            lens = np.diff(np.append(starts, len(wt)))
            scores = np.where(lens > 0, sums, 0)
        out = batch.drop_columns(["text"])
        out = out.append_column("score", pa.array(scores, pa.int64()))
        return out.append_column(
            "keep", pa.array((scores > 0).tolist(), pa.bool_())
        )
