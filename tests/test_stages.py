"""Unit tests for the operator stages (textstats, dedup, similarity,
relational, windows, media) on small controlled inputs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from entity_context_crawler_ray.stages import (
    dedup,
    exchange,
    media,
    relational,
    similarity,
    textstats,
    windows,
)


def _docs_ds():
    rows = [
        {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog"},
        {"doc_id": 2, "text": "the quick brown fox jumps over the lazy cat"},
        {"doc_id": 3, "text": "completely different words entirely here now"},
        {"doc_id": 4, "text": "the quick brown fox jumps over the lazy dog"},
    ]
    return ray.data.from_items(rows)


def test_textstats_counts():
    t = pa.table({"doc_id": [1], "text": ["Hello, world! The end."]})
    out = textstats.doc_stats(t)
    assert out["n_tokens"][0].as_py() == 7  # Hello , world ! The end .
    out2 = textstats.quality_score(t)
    assert out2["n_words"][0].as_py() == 4
    assert out2["n_stop"][0].as_py() == 1  # 'the'
    out3 = textstats.lang_id(
        pa.table({"doc_id": [1, 2], "text": ["the cat and the dog", "der hund und die katze"]})
    )
    assert out3["lang_pred"].to_pylist() == ["en", "de"]


def test_fingerprint_and_simhash_deterministic():
    t = pa.table({"doc_id": [1, 2], "text": ["a b c d e f g", "a b c d e f g"]})
    fp = textstats.fingerprint(t)
    assert fp["fingerprint"][0].as_py() == fp["fingerprint"][1].as_py()
    sh = textstats.simhash64(t)
    assert sh["simhash"][0].as_py() == sh["simhash"][1].as_py()


def test_exact_dedup():
    out = dedup.exact_dedup_stats(_docs_ds()).to_pandas()
    # docs 1 and 4 are identical
    dup_row = out[out["n_dups"] == 2]
    assert len(dup_row) == 1 and dup_row["min_doc_id"].iloc[0] == 1
    first = dedup.exact_dedup_first(_docs_ds()).to_pandas()
    assert sorted(first["doc_id"]) == [1, 2, 3]


def test_block_pairs_match_pairwise_loop():
    rng = np.random.default_rng(5)
    t = pa.table({"doc_id": rng.permutation(60), "band_key": rng.integers(0, 12, 60)})
    got = dedup._block_pairs(t)
    want = []
    for key in sorted(set(t["band_key"].to_pylist())):
        ids = sorted(d for d, k in zip(t["doc_id"].to_pylist(), t["band_key"].to_pylist()) if k == key)
        want += [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    assert sorted(zip(got["a"].to_pylist(), got["b"].to_pylist())) == sorted(want)
    assert got.schema.field("a").type == t["doc_id"].type


def test_minhash_finds_near_dups():
    pairs = dedup.band_pairs(dedup.band_rows(_docs_ds())).to_pandas()
    cand = set(map(tuple, pairs[["a", "b"]].to_numpy()))
    assert (1, 4) in cand  # exact dup always a candidate
    verified = dedup.verify_jaccard_pairs(
        ray.data.from_pandas(pairs), _docs_ds(), threshold=0.5
    ).to_pandas()
    vset = set(map(tuple, verified[["a", "b"]].to_numpy()))
    assert (1, 4) in vset
    assert (1, 2) in vset or (1, 2) not in cand  # if candidate, it verifies (j≈0.6)
    # doc 3 shares nothing
    assert not any(3 in p for p in vset)


def test_ngram_jaccard_vs():
    out = dedup.ngram_jaccard_vs(
        _docs_ds(), "the quick brown fox jumps over the lazy dog"
    ).to_pandas().set_index("doc_id")["jaccard"]
    assert out[1] == 1.0 and out[4] == 1.0
    assert 0 < out[2] < 1.0 and out[3] == 0.0


def _emb_ds(n=100, dim=8):
    rng = np.random.RandomState(7)
    mat = rng.randn(n, dim)
    return (
        ray.data.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(range(n), pa.int64()),
                    "embedding": pa.array(
                        [list(map(float, r)) for r in mat],
                        pa.list_(pa.float32()),
                    ),
                }
            )
        ),
        mat,
    )


def test_knn_bruteforce_exact():
    ds, mat = _emb_ds()
    q = mat[0]
    out = similarity.knn_bruteforce(ds, q, k=5).to_pandas()
    # numpy ground truth (float32 storage round-trip like the dataset)
    m32 = mat.astype(np.float32).astype(np.float64)
    m32 /= np.linalg.norm(m32, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    sims = m32 @ qn
    expect = np.argsort(-sims)[:5]
    assert list(out["vec_id"]) == list(expect)
    assert out["vec_id"].iloc[0] == 0


def test_knn_ivf_probes_subset():
    ds, mat = _emb_ds()
    out = similarity.knn_ivf(ds, mat[0], k=5, n_bits=3).to_pandas()
    assert out["vec_id"].iloc[0] == 0  # query's own bucket always probed
    assert len(out) <= 5


def test_embedding_neardup():
    # construct two nearly identical vectors
    t = pa.table(
        {
            "vec_id": pa.array([10, 20, 30], pa.int64()),
            "embedding": pa.array(
                [[1.0, 0.0, 0.0], [0.999, 0.01, 0.0], [0.0, 1.0, 0.0]],
                pa.list_(pa.float32()),
            ),
        }
    )
    pairs = dedup.embedding_neardup_pairs(
        ray.data.from_arrow(t), threshold=0.95
    ).to_pandas()
    assert set(map(tuple, pairs[["vec_id_a", "vec_id_b"]].to_numpy())) == {(10, 20)}


def test_join_matches_pandas():
    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "lv": ["a", "b", "c", "d", "e"]})
    right = pd.DataFrame({"k": [2, 3, 3, 4], "rv": [10.0, 20.0, 30.0, 40.0]})
    out = (
        exchange.join(
            ray.data.from_pandas(left), ray.data.from_pandas(right), on="k"
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    expect = (
        left.merge(right, on="k").sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[expect.columns], expect)


def test_broadcast_joins():
    ds = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]}))
    small = pa.table({"k": [2, 3], "name": ["x", "y"]})
    out = relational.broadcast_inner_join(ds, small, on="k").to_pandas()
    assert sorted(out["name"]) == ["x", "y"]
    semi = relational.broadcast_semi_join(ds, {1, 3}, on="k").to_pandas()
    assert sorted(semi["k"]) == [1, 3]
    # null keys never match, not even a null in the key set
    with_null = ray.data.from_arrow(pa.table({"k": pa.array([1, None, 3], pa.int64())}))
    assert relational.broadcast_semi_join(with_null, {1, None}, on="k").to_pandas()["k"].tolist() == [1]
    assert relational.broadcast_semi_join(ds, set(), on="k").count() == 0


def test_windows_and_sessions():
    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2, 2],
            "event_type": ["a", "a", "b", "a", "a"],
            "ts": [
                base,
                base + pd.Timedelta(minutes=10),
                base + pd.Timedelta(hours=2),
                base,
                base + pd.Timedelta(hours=3),
            ],
            "value": [1.0, 5.0, 2.0, 7.0, 3.0],
        }
    )
    ds = ray.data.from_pandas(df)
    w = windows.tumbling_window_agg(ds, 3600).to_pandas()
    a_win = w[w["event_type"] == "a"]
    assert a_win["n_events"].sum() == 4
    s = windows.sessionize(ds, gap_s=1800).to_pandas().set_index("user_id")
    assert s.loc[1, "n_sessions"] == 2  # 10-min gap same session, 2h gap new
    assert s.loc[2, "n_sessions"] == 2


def test_media_decode_real_and_fake():
    from entity_context_crawler_ray.sources.docs import read_docs

    docs = read_docs("/root/testdata/sf0.001").limit(50)
    meta = media.extract_media_spans(docs).to_pandas()
    assert len(meta) > 0
    assert set(meta.columns) == {"doc_id", "media_ref", "caption", "span_offset"}
    # REAL bitstream decode: synthesized-but-really-encoded PPM/BMP
    # bytes through the pure-numpy parsers
    decoded = media.decode_media(docs.limit(20)).to_pandas()
    assert len(decoded) > 0
    assert (
        decoded["n_bytes"]
        == decoded["width"] * decoded["height"] * decoded["channels"]
    ).all()
    for r, w, h, c, p in zip(
        decoded["media_ref"],
        decoded["width"],
        decoded["height"],
        decoded["channels"],
        decoded["payload"],
    ):
        ew, eh, ec, pix = media.decode_image_bytes(media.synthesize_image_bytes(r))
        assert (ew, eh, ec) == (w, h, c)
        assert pix.tobytes() == p
    # fake stand-in still available for plumbing-only tests
    fake = media.decode_media(docs.limit(20), fake=True).to_pandas()
    assert len(fake) and (fake["width"] >= 16).all()
    # compressed formats fail loudly at the kernel point
    with pytest.raises(NotImplementedError):
        media.decode_image_bytes(b"\xff\xd8\xff\xe0 jpeg body")


def test_image_codec_golden_and_roundtrip():
    """Golden byte-literal decodes + encode/decode round-trips for the
    pure-numpy PPM/PGM/BMP bitstream kernels."""
    import struct

    import numpy as np

    # golden 2x2 RGB PPM with a header comment
    ppm = b"P6\n# comment\n2 2\n255\n" + bytes(
        [255, 0, 0, 0, 255, 0, 0, 0, 255, 10, 20, 30]
    )
    w, h, c, pix = media.decode_image_bytes(ppm)
    assert (w, h, c) == (2, 2, 3)
    assert pix[0, 0].tolist() == [255, 0, 0]
    assert pix[1, 1].tolist() == [10, 20, 30]

    # golden 2x2 24-bpp BMP: bottom-up rows, BGR, stride padded to 8
    body = bytes(
        [0, 0, 255, 30, 20, 10, 0, 0]  # bottom row: (255,0,0) (10,20,30)
        + [255, 0, 0, 0, 255, 0, 0, 0]  # top row: (0,0,255) (0,255,0)
    )
    bmp = (
        struct.pack("<2sIHHI", b"BM", 54 + len(body), 0, 0, 54)
        + struct.pack("<IiiHHIIiiII", 40, 2, 2, 1, 24, 0, len(body), 0, 0, 0, 0)
        + body
    )
    w, h, c, pix = media.decode_image_bytes(bmp)
    assert (w, h, c) == (2, 2, 3)
    assert pix[0, 0].tolist() == [0, 0, 255]  # top-left after bottom-up flip
    assert pix[1, 0].tolist() == [255, 0, 0]
    assert pix[1, 1].tolist() == [10, 20, 30]

    # round-trips over random pixels
    rng = np.random.RandomState(7)
    rgb = rng.randint(0, 256, size=(5, 3, 3), dtype=np.uint8)
    for blob, ec in [
        (media.encode_ppm(rgb), 3),
        (media.encode_bmp(rgb), 3),
        (media.encode_ppm(rgb[:, :, :1]), 1),
    ]:
        w, h, c, pix = media.decode_image_bytes(blob)
        assert (w, h, c) == (3, 5, ec)
        np.testing.assert_array_equal(pix, rgb[:, :, :ec])

    # real nearest-neighbor resize on a decoded pixel buffer
    import ray.data as rd

    dec = rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array(["d"], pa.string()),
                pa.array(["m"], pa.string()),
                pa.array([3], pa.int32()),
                pa.array([5], pa.int32()),
                pa.array([3], pa.int32()),
                pa.array([45], pa.int64()),
                pa.array([rgb.tobytes()], pa.binary()),
            ],
            schema=media.DECODED_SCHEMA,
        )
    )
    out = media.resize_media(dec, max_side=2).to_pandas().iloc[0]
    ys = (np.arange(2) * 5 // 2).astype(int)
    xs = (np.arange(1) * 3 // 1).astype(int)
    want = rgb[ys][:, xs]
    assert (out["width"], out["height"]) == (1, 2)
    assert out["payload"] == want.tobytes()


def test_embedding_neardup_lsh_recall():
    """The LSH-bucketed variant finds the overwhelming share of what
    the exact variant finds (same threshold), and no false positives."""
    ds, _ = _emb_ds(n=200, dim=8)
    exact = dedup.embedding_neardup_pairs(ds, threshold=0.85).to_pandas()
    approx = dedup.embedding_neardup_lsh(ds, threshold=0.85, n_bits=4).to_pandas()
    exact_pairs = set(map(tuple, exact[["vec_id_a", "vec_id_b"]].to_numpy()))
    approx_pairs = set(map(tuple, approx[["vec_id_a", "vec_id_b"]].to_numpy()))
    assert approx_pairs <= exact_pairs  # within-bucket cosine is exact
    if exact_pairs:
        recall = len(approx_pairs & exact_pairs) / len(exact_pairs)
        assert recall >= 0.5


def test_connected_components_driver_and_distributed_agree():
    """Distributed min-label propagation == driver union-find, with
    singletons labeling themselves."""
    import pyarrow as pa
    import ray.data

    pairs = ray.data.from_arrow(
        pa.table({"a": [1, 2, 5, 8], "b": [2, 3, 6, 9]})
    )
    nodes = ray.data.from_arrow(pa.table({"doc_id": list(range(11))}))
    want = {0: 0, 1: 1, 2: 1, 3: 1, 4: 4, 5: 5, 6: 5, 7: 7, 8: 8, 9: 8, 10: 10}
    for mode in ("driver", "distributed"):
        out = dedup.connected_components(pairs, nodes, mode=mode).to_pandas()
        got = dict(zip(out["doc_id"], out["component"]))
        assert got == want, mode


def test_asof_join_matches_pandas_merge_asof():
    """asof_join == pandas.merge_asof(direction='backward') on
    tie-free data; ties on the right time resolve to max value."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from entity_context_crawler_ray.stages.relational import asof_join

    rng = np.random.RandomState(7)
    left = pd.DataFrame(
        {
            "k": rng.randint(0, 5, 60),
            "t": rng.randint(0, 1000, 60).astype("int64"),
            "event_id": np.arange(60, dtype="int64"),
        }
    )
    right = pd.DataFrame(
        {
            "rk": rng.randint(0, 5, 40),
            "rt": (rng.randint(0, 100, 40) * 10).astype("int64"),  # forced ties
            "val": np.arange(40, dtype="int64"),
        }
    )
    out = asof_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        on="k",
        right_on="rk",
        left_time="t",
        right_time="rt",
        right_value="val",
    ).to_pandas()
    # expected: per (k, t) the max rt <= t, then max val at that rt
    exp = left.merge(right, left_on="k", right_on="rk")
    exp = exp[exp["rt"] <= exp["t"]]
    g = exp.groupby("event_id").apply(
        lambda d: d[d["rt"] == d["rt"].max()]["val"].max(), include_groups=False
    )
    got = dict(zip(out["event_id"], out["asof_value"]))
    assert got == g.to_dict()
    # rows with no earlier right row are absent (inner semantics)
    assert set(out["event_id"]) == set(g.index)


def test_quantiles_exact_matches_numpy():
    """Histogram-refinement selection == numpy lower-interpolation
    quantiles, including a heavy-duplicate column that forces the
    zero-width-bin shortcut."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from entity_context_crawler_ray.stages.stats import quantiles_exact

    rng = np.random.RandomState(3)
    vals = np.concatenate(
        [rng.exponential(100.0, 5000), np.full(2000, 7.25)]
    )  # skew + duplicates
    ds = ray.data.from_arrow(pa.table({"x": vals})).repartition(8)
    qs = [0.1, 0.5, 0.9, 0.99]
    out = quantiles_exact(ds, "x", qs, num_bins=64, collect_limit=500)
    got = dict(zip(out["q"].to_pylist(), out["value"].to_pylist()))
    srt = np.sort(vals)
    for q in qs:
        want = float(srt[int(np.floor(q * (len(vals) - 1)))])
        assert got[q] == want, q


def test_sample_fraction_deterministic_and_partition_independent():
    import pyarrow as pa
    import ray.data

    from entity_context_crawler_ray.stages.stats import sample_fraction

    t = pa.table({"k": list(range(2000))})
    a = sample_fraction(ray.data.from_arrow(t), "k", 0.2).to_pandas()
    b = sample_fraction(
        ray.data.from_arrow(t).repartition(7), "k", 0.2
    ).to_pandas()
    assert sorted(a["k"]) == sorted(b["k"])
    assert 0.15 < len(a) / 2000 < 0.25


def test_media_resize_embed_frames():
    """Multimodal plumbing: resize keeps aspect + bounds, embeddings
    are unit-norm and batch-size independent, frame sampling fan-out
    is bounded by duration/interval."""
    import numpy as np

    from entity_context_crawler_ray.sources.docs import read_docs

    docs = read_docs("/root/testdata/sf0.001").limit(60)
    decoded = media.decode_media(docs, fake=True)
    resized = media.resize_media(decoded, max_side=20).to_pandas()
    assert len(resized) > 0
    assert (resized[["width", "height"]].max(axis=1) <= 20).all()
    assert (resized["n_bytes"] > 0).all()

    emb_a = media.embed_media(media.resize_media(decoded, max_side=20), batch_size=7).to_pandas()
    emb_b = media.embed_media(media.resize_media(decoded, max_side=20), batch_size=64).to_pandas()
    for df in (emb_a, emb_b):
        norms = np.array([np.linalg.norm(e) for e in df["embedding"]])
        assert np.allclose(norms, 1.0)
    a = {r: tuple(e) for r, e in zip(emb_a["media_ref"], emb_a["embedding"])}
    b = {r: tuple(e) for r, e in zip(emb_b["media_ref"], emb_b["embedding"])}
    assert a == b  # batch size never changes the result

    frames = media.sample_frames(media.extract_media_spans(docs), every_ms=1000).to_pandas()
    assert len(frames) > 0
    per_ref = frames.groupby("media_ref").size()
    assert (per_ref <= 11).all()  # duration <= 10.5s at 1s intervals
    assert (frames["ts_ms"] % 1000 == 0).all()


def test_spacy_tokenizer_plug():
    """The conformance escape hatch: PageProcessor(tokenizer='spacy')
    loads a real spaCy pipeline per actor.  Runs only where spacy is
    installed (skipped-not-deleted in this sandbox); the plug's error
    path and the unknown-tokenizer guard are tested everywhere."""
    import pyarrow as pa

    from entity_context_crawler_ray.sources.docs import entities_index
    from entity_context_crawler_ray.stages.match import PageProcessor

    ents = pa.table(
        {"entity_id": ["E1"], "label": ["Alpha Beta"], "page_title": ["P1"]}
    )
    idx = entities_index(ents)
    with pytest.raises(ValueError, match="unknown tokenizer"):
        PageProcessor(idx, tokenizer="nope")
    pytest.importorskip("spacy")
    from entity_context_crawler_ray.functions.text import (
        make_spacy_tokenizer,
        tokenize,
    )

    proc = PageProcessor(idx, tokenizer="spacy")
    batch = pa.table(
        {
            "doc_id": ["d1"],
            "spans": pa.array(
                [[
                    {"kind": "link", "text": "Alpha Beta", "media_ref": "P1", "offset": 0},
                    {"kind": "text", "text": "This sentence mentions Alpha Beta prominently today.", "media_ref": "", "offset": 1},
                ]],
                type=pa.list_(pa.struct([
                    ("kind", pa.string()), ("text", pa.string()),
                    ("media_ref", pa.string()), ("offset", pa.int32()),
                ])),
            ),
        }
    )
    out = proc(batch).to_pylist()[0]
    assert out["error"] == ""
    # on plain prose both tokenizers agree
    tok = make_spacy_tokenizer()
    assert [t[0] for t in tok("Alpha Beta today.")] == [
        t[0] for t in tokenize("Alpha Beta today.")
    ]


def test_combined_builder_rollback_on_poison_doc():
    """A doc that raises mid-extraction must roll back its partial
    column appends and become an error row — neighbours unaffected and
    offsets consistent (the transactional guard in CombinedBuilder)."""
    from entity_context_crawler_ray.stages.match import (
        CombinedBuilder,
        SpanColumns,
    )

    good = [
        {"kind": "link", "text": "Alpha", "media_ref": "P1", "offset": 0},
        {"kind": "text", "text": "This long sentence mentions Alpha prominently enough to survive.", "media_ref": "", "offset": 1},
    ]
    # a None text span raises TypeError in the page-text join, after
    # the link bookkeeping already touched the builder's inputs
    poison = [
        {"kind": "link", "text": "Alpha", "media_ref": "P1", "offset": 0},
        {"kind": "text", "text": None, "media_ref": "", "offset": 1},
    ]
    spans = SpanColumns.from_dicts_list([good, poison, good])
    t2e = {"P1": "E1"}
    e2l = {"E1": "Alpha"}
    b = CombinedBuilder()
    assert b.add_doc("d0", spans, 0, t2e, e2l) is True
    assert b.add_doc("d1", spans, 1, t2e, e2l) is False
    assert b.add_doc("d2", spans, 2, t2e, e2l) is True
    t = b.table()
    rows = t.to_pylist()
    assert [r["title"] for r in rows] == ["d0", "d1", "d2"]
    assert rows[1]["error"] != "" and rows[1]["matches"] == [] and rows[1]["mentions"] == []
    # the two good docs are identical and fully populated
    for k in ("clean_text", "match_count", "matches", "mentions"):
        assert rows[0][k] == rows[2][k]
    assert rows[0]["match_count"] >= 1


def test_bpe_token_count_known_values():
    t = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "Hello world",          # "Hello", " world"
                "don't stop",           # "don", "'t", " stop"
                "a1b2  c!?",            # "a", "1", "b", "2", "  ", "c", "!?"
            ],
        }
    )
    out = textstats.bpe_token_count(t)
    assert out["n_bpe_tokens"].to_pylist() == [2, 3, 7]
    # regex pieces must reassemble to the original text (the pattern
    # partitions every string)
    for s in t["text"].to_pylist():
        assert "".join(textstats._BPE_RE.findall(s)) == s


def test_join_anti_matches_pandas():
    left = pd.DataFrame({"k": [1, 2, 2, 3, 5], "lv": ["a", "b", "c", "d", "e"]})
    right = pd.DataFrame({"rk": [2, 3, 3, 4], "rv": [10.0, 20.0, 30.0, 40.0]})
    out = (
        exchange.join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            on="k",
            right_on="rk",
            how="anti",
        )
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    expect = (
        left[~left["k"].isin(right["rk"])]
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[expect.columns], expect)
    # empty right side: everything survives
    out2 = exchange.join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right[right["rk"] < 0]),
        on="k",
        right_on="rk",
        how="anti",
    ).to_pandas()
    assert len(out2) == len(left)


def test_sliding_range_agg_matches_bruteforce():
    rng = np.random.default_rng(7)
    n = 200
    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "event_id": np.arange(n),
            "user_id": rng.integers(0, 5, n),
            "ts": base + pd.to_timedelta(rng.integers(0, 7200, n), unit="s"),
            "value": np.round(rng.uniform(0, 100, n), 2),
        }
    )
    out = (
        windows.sliding_range_agg(ray.data.from_pandas(df), window_s=600)
        .to_pandas()
        .set_index("event_id")
        .sort_index()
    )
    cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    for i in range(n):
        mask = (
            (df["user_id"] == df["user_id"][i])
            & (df["ts"] >= df["ts"][i] - pd.Timedelta(seconds=600))
            & (df["ts"] <= df["ts"][i])
        )
        assert out.loc[i, "n_win"] == int(mask.sum())
        assert out.loc[i, "sum_cents_win"] == int(cents[mask.to_numpy()].sum())


def test_tfidf_topk_matches_bruteforce():
    import math

    rows = [
        {"doc_id": 0, "text": "apple banana apple cherry"},
        {"doc_id": 1, "text": "banana cherry cherry date egg"},
        {"doc_id": 2, "text": "apple apple apple fig"},
        {"doc_id": 3, "text": "grape"},
    ]
    out = (
        textstats.tfidf_topk(ray.data.from_items(rows), k=2)
        .to_pandas()
        .sort_values(["doc_id", "word"])
        .reset_index(drop=True)
    )
    # brute-force expectation
    n_docs = len(rows)
    docs = {r["doc_id"]: r["text"].split() for r in rows}
    dfc: dict = {}
    for words in docs.values():
        for w in set(words):
            dfc[w] = dfc.get(w, 0) + 1
    expect_rows = []
    for doc_id, words in docs.items():
        tf: dict = {}
        for w in words:
            tf[w] = tf.get(w, 0) + 1
        scored = sorted(
            (
                (c * (math.log((n_docs + 1.0) / (dfc[w] + 1.0)) + 1.0), w, c)
                for w, c in tf.items()
            ),
            key=lambda x: (-x[0], x[1]),
        )[:2]
        for s, w, c in scored:
            expect_rows.append(
                {"doc_id": doc_id, "word": w, "tf": c, "df": dfc[w], "tfidf": s}
            )
    expect = (
        pd.DataFrame(expect_rows)
        .sort_values(["doc_id", "word"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[expect.columns], expect, check_dtype=False)
    # vocabulary guard refuses an unbounded driver broadcast
    with pytest.raises(ValueError, match="max_vocab_broadcast"):
        textstats.tfidf_topk(ray.data.from_items(rows), k=1, max_vocab_broadcast=2)


def test_cumulative_agg_matches_bruteforce():
    rng = np.random.default_rng(11)
    n = 150
    base = pd.Timestamp("2024-03-01")
    df = pd.DataFrame(
        {
            "event_id": np.arange(n),
            "user_id": rng.integers(0, 4, n),
            # coarse timestamps force ties broken by event_id
            "ts": base + pd.to_timedelta(rng.integers(0, 20, n), unit="s"),
            "value": np.round(rng.uniform(0, 50, n), 2),
        }
    )
    out = (
        windows.cumulative_agg(ray.data.from_pandas(df))
        .to_pandas()
        .set_index("event_id")
        .sort_index()
    )
    expect = df.sort_values(["user_id", "ts", "event_id"]).copy()
    expect["cents"] = np.rint(expect["value"].to_numpy() * 100).astype(np.int64)
    expect["n_cum"] = expect.groupby("user_id").cumcount() + 1
    expect["sum_cents_cum"] = expect.groupby("user_id")["cents"].cumsum()
    expect = expect.set_index("event_id").sort_index()
    assert (out["n_cum"] == expect["n_cum"]).all()
    assert (out["sum_cents_cum"] == expect["sum_cents_cum"]).all()


def test_grouped_median_cents_matches_lower_rule():
    from entity_context_crawler_ray.stages import stats

    rng = np.random.default_rng(13)
    df = pd.DataFrame(
        {
            "grp": rng.choice(["a", "b", "c"], 301),
            "value": np.round(rng.uniform(-5, 5, 301), 2),
        }
    )
    out = (
        stats.grouped_median_cents(
            ray.data.from_pandas(df).repartition(7), "grp", "value"
        )
        .to_pandas()
        .set_index("grp")
        .sort_index()
    )
    cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    for g in ["a", "b", "c"]:
        vals = np.sort(cents[(df["grp"] == g).to_numpy()])
        assert out.loc[g, "median_cents"] == int(vals[(len(vals) - 1) // 2])
        assert out.loc[g, "n"] == len(vals)


def test_salted_group_sum_matches_plain_groupby():
    rng = np.random.default_rng(17)
    # one deliberately hot key: 90% of rows land on "hot"
    keys = np.where(rng.uniform(size=500) < 0.9, "hot", "cold")
    df = pd.DataFrame({"k": keys, "value": np.round(rng.uniform(0, 9, 500), 2)})
    out = (
        relational.salted_group_sum(
            ray.data.from_pandas(df).repartition(5), "k", "value", num_salts=8
        )
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
    for k in ["cold", "hot"]:
        m = (df["k"] == k).to_numpy()
        assert out.loc[k, "sum_cents"] == int(cents[m].sum())
        assert out.loc[k, "n_rows"] == int(m.sum())


def test_pack_sequences_matches_global_cumsum():
    from entity_context_crawler_ray.stages import packing, stats

    rng = np.random.default_rng(19)
    n = 400
    df = pd.DataFrame(
        {"doc_id": np.arange(n), "n_tokens": rng.integers(1, 300, n)}
    )
    out = (
        packing.pack_sequences(
            ray.data.from_pandas(df).repartition(9),
            "doc_id",
            "n_tokens",
            capacity=1000,
            num_parts=16,
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # brute force: global order by (md5 rank, id), exclusive cumsum
    rk = np.array(
        [stats._sample_u64(str(i), "pack") for i in df["doc_id"]],
        dtype=np.uint64,
    )
    order = np.lexsort((df["doc_id"].to_numpy(), rk))
    cnt = df["n_tokens"].to_numpy()[order]
    prev = np.cumsum(cnt) - cnt
    expect = pd.Series(
        prev // 1000, index=df["doc_id"].to_numpy()[order]
    ).sort_index()
    assert (out["bin"].to_numpy() == expect.to_numpy()).all()
    # partition-count independence
    out2 = (
        packing.pack_sequences(
            ray.data.from_pandas(df).repartition(2),
            "doc_id",
            "n_tokens",
            capacity=1000,
            num_parts=64,
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert (out["bin"].to_numpy() == out2["bin"].to_numpy()).all()


def test_hll_registers_merge_and_estimate():
    from entity_context_crawler_ray.stages import stats

    ds = ray.data.range(20000)
    regs = stats.hll_registers(ds, "id").to_pandas()
    d = dict(zip(regs["bucket"], regs["register"]))
    est = stats.hll_estimate(d)
    assert abs(est - 20000) / 20000 < 0.15  # ~6.5% expected at m=256
    # mergeability: sketch(A ∪ B) == max-merge(sketch(A), sketch(B))
    a = stats.hll_registers(ray.data.range(12000), "id").to_pandas()
    b_df = (
        ray.data.range(20000)
        .map_batches(
            lambda t: t.filter(np.array(t["id"]) >= 8000),
            batch_format="pyarrow",
        )
    )
    b = stats.hll_registers(b_df, "id").to_pandas()
    merged: dict = {}
    for frame in (a, b):
        for k, v in zip(frame["bucket"], frame["register"]):
            merged[k] = max(merged.get(k, 0), v)
    assert merged == d


def test_inverted_index_matches_bruteforce():
    import re

    rows = [
        {"doc_id": 2, "text": "apple banana apple"},
        {"doc_id": 0, "text": "banana cherry"},
        {"doc_id": 1, "text": "Apple! cherry_pie apple"},
    ]
    out = (
        textstats.inverted_index(ray.data.from_items(rows))
        .to_pandas()
        .set_index("word")
        .sort_index()
    )
    word_re = re.compile(r"[a-z0-9_]+")
    expect: dict = {}
    for r in rows:
        for p, w in enumerate(word_re.findall(r["text"].lower())):
            expect.setdefault(w, []).append((r["doc_id"], p))
    assert set(out.index) == set(expect)
    for w, posts in expect.items():
        posts.sort()
        assert out.loc[w, "df"] == len({d for d, _ in posts})
        assert out.loc[w, "n_postings"] == len(posts)
        assert out.loc[w, "postings"] == ",".join(f"{d}:{p}" for d, p in posts)
    # stopword pruning drops high-df words after df is known
    pruned = textstats.inverted_index(
        ray.data.from_items(rows), max_df=1
    ).to_pandas()
    assert set(pruned["word"]) == {"cherry", "cherry_pie"}


def test_repetition_stats_known_values():
    rows = [
        {"doc_id": 0, "text": "a b a b a b"},       # top bigram "a b" x3 of 5
        {"doc_id": 1, "text": "x y z"},             # all distinct
        {"doc_id": 2, "text": "solo"},              # no bigrams
    ]
    out = (
        ray.data.from_items(rows)
        .map_batches(textstats.repetition_stats, batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "n_words"] == 6 and out.loc[0, "n_distinct_words"] == 2
    assert out.loc[0, "top_bigram_count"] == 3 and out.loc[0, "n_bigrams"] == 5
    assert out.loc[0, "top_bigram_frac"] == 3 / 5
    assert out.loc[1, "dup_word_frac"] == 0.0
    assert out.loc[2, "n_bigrams"] == 0 and out.loc[2, "top_bigram_frac"] == 0.0


def test_contamination_counts_flags_overlap():
    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": "one two three four five six"},   # benchmark
            {"doc_id": 10, "text": "zzz one two three four five"},  # shares
            {"doc_id": 11, "text": "totally different words here now ok"},
        ]
    )
    bench = docs.filter(expr="doc_id < 10")
    out = (
        textstats.contamination_counts(docs, bench, n=5)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "contaminated"] == 1  # benchmark overlaps itself
    assert out.loc[10, "n_shared"] == 1 and out.loc[10, "contaminated"] == 1
    assert out.loc[11, "n_shared"] == 0 and out.loc[11, "contaminated"] == 0
    # guard refuses an unbounded broadcast
    with pytest.raises(ValueError, match="max_benchmark_grams"):
        textstats.contamination_counts(docs, bench, n=5, max_benchmark_grams=1)


def test_pagerank_int_hand_computed():
    from entity_context_crawler_ray.stages import graph

    # 1 -> {2,3}, 2 -> 3, 3 -> 1 (duplicate edge collapses)
    edges = ray.data.from_items(
        [
            {"src": 1, "dst": 2},
            {"src": 1, "dst": 3},
            {"src": 1, "dst": 3},
            {"src": 2, "dst": 3},
            {"src": 3, "dst": 1},
        ]
    )
    out = (
        graph.pagerank_int(edges, iterations=2)
        .to_pandas()
        .set_index("node")["pr"]
        .sort_index()
    )
    # iter1: r(1)=150000+850000, r(2)=150000+425000, r(3)=150000+425000+850000
    # iter2: r(1)=150000+floor(1425000*85/100)=1361250
    #        r(2)=150000+floor(1000000*85/200)=575000
    #        r(3)=150000+425000+floor(575000*85/100)=1063750
    assert out.to_dict() == {1: 1361250, 2: 575000, 3: 1063750}


def test_cms_registers_merge_and_estimate():
    from entity_context_crawler_ray.stages import stats

    rows = [{"k": f"key{i % 7}"} for i in range(700)]
    regs = stats.cms_registers(ray.data.from_items(rows), "k").to_pandas()
    d = {(r.depth, r.slot): r.cnt for r in regs.itertuples()}
    # every register row sums the full stream per depth
    for dep in range(4):
        assert sum(v for (dd, _), v in d.items() if dd == dep) == 700
    # point estimate upper-bounds the true count, equals it sans collision
    for i in range(7):
        assert stats.cms_estimate(d, f"key{i}") >= 100
    # mergeability: sketch(A ∪ B) == sum-merge(sketch(A), sketch(B))
    a = stats.cms_registers(
        ray.data.from_items(rows[:300]), "k"
    ).to_pandas()
    b = stats.cms_registers(
        ray.data.from_items(rows[300:]), "k"
    ).to_pandas()
    merged: dict = {}
    for frame in (a, b):
        for r in frame.itertuples():
            merged[(r.depth, r.slot)] = merged.get((r.depth, r.slot), 0) + r.cnt
    assert merged == d


def test_rollup_sum_cents_levels_consistent():
    rows = [
        {"g1": "x", "g2": "p", "v": 1.25},
        {"g1": "x", "g2": "q", "v": 2.50},
        {"g1": "y", "g2": "p", "v": 4.00},
        {"g1": "x", "g2": "p", "v": 0.75},
    ]
    out = (
        relational.rollup_sum_cents(
            ray.data.from_items(rows), ["g1", "g2"], "v"
        )
        .to_pandas()
        .set_index(["g1", "g2"])
    )
    assert out.loc[("x", "p"), "sum_cents"] == 200
    assert out.loc[("x", "*ALL*"), "sum_cents"] == 450
    assert out.loc[("y", "*ALL*"), "sum_cents"] == 400
    assert out.loc[("*ALL*", "*ALL*"), "sum_cents"] == 850
    assert out.loc[("*ALL*", "*ALL*"), "n_rows"] == 4
    # 3 finest + 2 per-g1 subtotals + 1 grand total
    assert len(out) == 6


def test_set_compare_classifies():
    left = ray.data.from_items([{"k": v} for v in [1, 2, 2, 3]])
    right = ray.data.from_items([{"k": v} for v in [3, 4, 4]])
    out = (
        relational.set_compare(left, right, "k")
        .to_pandas()
        .set_index("k")["op"]
        .sort_index()
    )
    assert out.to_dict() == {
        1: "left_only", 2: "left_only", 3: "both", 4: "right_only"
    }


def test_ranked_per_key_matches_sql_semantics():
    rows = [
        {"k": "a", "id": 1, "v": 3.00},
        {"k": "a", "id": 2, "v": 3.00},
        {"k": "a", "id": 3, "v": 2.00},
        {"k": "a", "id": 4, "v": 1.00},
        {"k": "b", "id": 5, "v": 9.99},
    ]
    out = (
        windows.ranked_per_key(
            ray.data.from_items(rows), "k", "v", "id", k=3
        )
        .to_pandas()
        .set_index("id")
        .sort_index()
    )
    # ties 300,300 -> rn 1,2 (id order), rank 1,1, dense 1,1; next: rn3 rank3 dense2
    assert out.loc[1, ["rn", "rnk", "dense_rnk"]].tolist() == [1, 1, 1]
    assert out.loc[2, ["rn", "rnk", "dense_rnk"]].tolist() == [2, 1, 1]
    assert out.loc[3, ["rn", "rnk", "dense_rnk"]].tolist() == [3, 3, 2]
    assert 4 not in out.index  # rn 4 cut by k=3
    assert out.loc[5, ["rn", "rnk", "dense_rnk"]].tolist() == [1, 1, 1]


def test_bucket_by_boundaries_tie_goes_low():
    from entity_context_crawler_ray.stages import stats

    ds = ray.data.from_items([{"x": v} for v in [5, 10, 11, 20, 25]])
    out = (
        stats.bucket_by_boundaries(ds, "x", [10.0, 20.0], out_col="b")
        .to_pandas()
        .set_index("x")["b"]
        .sort_index()
    )
    # value == boundary stays in the LOWER bucket (strict >)
    assert out.to_dict() == {5: 1, 10: 1, 11: 2, 20: 2, 25: 3}


def test_kmeans_int_hand_computed():
    from entity_context_crawler_ray.stages import similarity

    # 1-D points at 0, 1, 10, 11 (scale 1000) with k=2 seeded from the
    # two smallest ids (0.0 and 10.0): converges to centroids 500, 10500
    rows = [
        {"vec_id": 1, "embedding": [0.0]},
        {"vec_id": 2, "embedding": [10.0]},
        {"vec_id": 3, "embedding": [1.0]},
        {"vec_id": 4, "embedding": [11.0]},
    ]
    out = (
        similarity.kmeans_int(ray.data.from_items(rows), k=2, iterations=2)
        .to_pandas()
        .set_index("vec_id")["cluster"]
        .sort_index()
    )
    assert out.to_dict() == {1: 0, 2: 1, 3: 0, 4: 1}
    # equidistant point ties to the SMALLER cluster id
    rows2 = rows + [{"vec_id": 5, "embedding": [5.5]}]
    out2 = (
        similarity.kmeans_int(ray.data.from_items(rows2), k=2, iterations=0)
        .to_pandas()
        .set_index("vec_id")["cluster"]
        .sort_index()
    )
    # iterations=0: assign straight from seeds 0 and 10000; 5500 is
    # nearer 10000? no: |5500-0|=5500 > |5500-10000|=4500 -> cluster 1
    assert out2.to_dict() == {1: 0, 2: 1, 3: 0, 4: 1, 5: 1}


def test_semantic_dedup_marks_within_cluster_only():
    # two tight groups far apart; near-identical vectors inside each
    rows = [
        {"vec_id": 1, "embedding": [1.0, 0.0]},
        {"vec_id": 2, "embedding": [0.999, 0.01]},   # ~dup of 1
        {"vec_id": 3, "embedding": [-1.0, 0.0]},
        {"vec_id": 4, "embedding": [-0.999, -0.01]},  # ~dup of 3
        {"vec_id": 5, "embedding": [0.0, 1.0]},       # alone
    ]
    out = (
        dedup.semantic_dedup(
            ray.data.from_items(rows), k=2, iterations=2, threshold=0.99
        )
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    assert out["dup"].to_dict() == {1: 0, 2: 1, 3: 0, 4: 1, 5: 0}
    # smallest id in each dup chain survives; clusters separate the groups
    assert out.loc[1, "cluster"] != out.loc[3, "cluster"]
    # oversized-cluster guard raises instead of going quadratic
    with pytest.raises(Exception, match="max_cluster_rows"):
        dedup.semantic_dedup(
            ray.data.from_items(rows), k=1, iterations=0,
            max_cluster_rows=2,
        ).to_pandas()


def test_knn_ivf_kmeans_probes_subset_and_recalls_neighbors():
    from entity_context_crawler_ray.stages import similarity

    # two far-apart groups; query sits in group A -> probing 1 of 2
    # clusters must return only group-A ids, nearest first
    rows = (
        [{"vec_id": i, "embedding": [1.0, 0.01 * i]} for i in range(5)]
        + [{"vec_id": 10 + i, "embedding": [-1.0, -0.01 * i]} for i in range(5)]
    )
    out = (
        similarity.knn_ivf_kmeans(
            ray.data.from_items(rows), [1.0, 0.0], k=3,
            n_clusters=2, iterations=2, n_probe=1,
        )
        .to_pandas()
    )
    assert len(out) == 3
    assert set(out["vec_id"]) <= set(range(5))
    assert out["vec_id"].iloc[0] == 0  # exact match ranks first
    assert (out["cosine"].diff().dropna() <= 1e-12).all()


def test_bloom_bits_no_false_negatives_and_merges():
    from entity_context_crawler_ray.stages import stats

    members = [{"k": i} for i in range(0, 200, 2)]  # evens
    bits_ds = stats.bloom_bits(
        ray.data.from_items(members), "k", m_bits=256, k_hashes=3
    ).to_pandas()
    bits = np.zeros(256, dtype=bool)
    bits[bits_ds["bit"].to_numpy()] = True
    probe = ray.data.from_items([{"k": i} for i in range(200)])
    out = (
        stats.bloom_probe_flags(probe, "k", bits, k_hashes=3)
        .to_pandas()
        .set_index("k")["bloom_hit"]
    )
    # never a false negative
    assert all(out[i] == 1 for i in range(0, 200, 2))
    # small filter is dense enough to show SOME rejection of non-members
    assert (out[list(range(1, 200, 2))] == 0).any()
    # mergeable: bits(A ∪ B) == bits(A) | bits(B)
    a = stats.bloom_bits(
        ray.data.from_items(members[:50]), "k", m_bits=256, k_hashes=3
    ).to_pandas()["bit"]
    b = stats.bloom_bits(
        ray.data.from_items(members[50:]), "k", m_bits=256, k_hashes=3
    ).to_pandas()["bit"]
    assert set(a) | set(b) == set(bits_ds["bit"])


def test_new_ops_empty_and_edge_inputs():
    from entity_context_crawler_ray.stages import stats

    empty = ray.data.from_items([{"k": 1}]).filter(expr="k > 99")
    # set ops: one empty side classifies everything left_only
    out = relational.set_compare(
        ray.data.from_items([{"k": 1}]), empty, "k"
    ).to_pandas()
    assert out["op"].tolist() == ["left_only"]
    # CMS estimate of an absent key is 0 (all registers empty)
    assert stats.cms_estimate({}, "missing") == 0
    # rollup of a single row yields finest + 1 subtotal + grand total
    one = relational.rollup_sum_cents(
        ray.data.from_items([{"g1": "x", "g2": "y", "v": 1.0}]),
        ["g1", "g2"], "v",
    ).to_pandas()
    assert len(one) == 3 and set(one["sum_cents"]) == {100}


def test_join_left_outer():
    left = ray.data.from_items(
        [{"k": 1, "x": "a"}, {"k": 2, "x": "b"}, {"k": 3, "x": "c"}]
    )
    right = ray.data.from_items([{"k": 1, "y": 10}, {"k": 1, "y": 11}])
    out = (
        exchange.join(left, right, on="k", how="left")
        .to_pandas()
        .sort_values(["k", "y"])
        .reset_index(drop=True)
    )
    # k=1 fans out to both right rows; k=2,3 survive with null y
    assert len(out) == 4
    assert out[out["k"] == 1]["y"].tolist() == [10, 11]
    assert out[out["k"] > 1]["y"].isna().all()
    with pytest.raises(ValueError, match="how"):
        exchange.join(left, right, on="k", how="sideways")


def test_join_right_side_with_empty_blocks():
    # Ray 2.49's native Dataset.join raised ArrowInvalid on empty
    # right-side blocks (a filtered frontier carries them)
    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3, 4], "x": ["a", "b", "c", "d"]}))
    right = ray.data.from_arrow(
        [
            pa.table({"k": [2, 4], "y": [20, 40]}),
            pa.table({"k": pa.array([], pa.int64()), "y": pa.array([], pa.int64())}),
            pa.table({"k": [4], "y": [41]}),
            pa.table({"k": pa.array([], pa.int64()), "y": pa.array([], pa.int64())}),
        ]
    )
    inner = exchange.join(left, right, on="k").to_pandas().sort_values(["k", "y"])
    assert inner[["k", "x", "y"]].values.tolist() == [[2, "b", 20], [4, "d", 40], [4, "d", 41]]
    outer = exchange.join(left, right, on="k", how="left").to_pandas()
    assert sorted(outer["k"]) == [1, 2, 3, 4, 4]
    assert outer[outer["k"].isin([1, 3])]["y"].isna().all()
    anti = exchange.join(left, right, on="k", how="anti").to_pandas()
    assert sorted(anti["k"]) == [1, 3]


def test_join_keeps_nested_payload():
    # Arrow's hash join rejects list columns outside the key; the join
    # gathers payload by row index instead, so embeddings pass through
    left = ray.data.from_arrow(
        pa.table({"vec_id": [1, 2, 3], "embedding": [[0.1, 0.2], [0.3], [0.4, 0.5, 0.6]]})
    )
    right = ray.data.from_arrow(
        pa.table({"id": [3, 1], "tags": [["x"], ["y", "z"]], "label": [30, 10]})
    )
    out = (
        exchange.join(left, right, on="vec_id", right_on="id")
        .to_pandas()
        .sort_values("vec_id")
    )
    assert list(out.columns) == ["vec_id", "embedding", "tags", "label"]
    assert [list(e) for e in out["embedding"]] == [[0.1, 0.2], [0.4, 0.5, 0.6]]
    assert [list(t) for t in out["tags"]] == [["y", "z"], ["x"]]
    assert out["label"].tolist() == [10, 30]


def test_value_rank_ties_and_guard():
    from entity_context_crawler_ray.stages import stats

    ds = ray.data.from_items(
        [{"i": i, "v": v} for i, v in enumerate([5, 3, 5, 1, 3])]
    )
    out = (
        stats.value_rank(ds, "v")
        .to_pandas()
        .set_index("i")
        .sort_index()
    )
    # sorted: 1,3,3,5,5 -> rank 1,2,2,4,4 ; n_le 1,3,3,5,5
    assert out["rnk"].tolist() == [4, 2, 4, 1, 2]
    assert out["n_le"].tolist() == [5, 3, 5, 1, 3]
    with pytest.raises(ValueError, match="max_distinct"):
        stats.value_rank(ds, "v", max_distinct=2).to_pandas()


def test_grouped_count_distinct_and_hll_by():
    from entity_context_crawler_ray.stages import stats

    rows = [
        {"g": "a", "v": 1}, {"g": "a", "v": 1}, {"g": "a", "v": 2},
        {"g": "b", "v": 1}, {"g": "b", "v": 3}, {"g": "b", "v": 3},
    ]
    out = (
        stats.grouped_count_distinct(ray.data.from_items(rows), "g", "v")
        .to_pandas()
        .set_index("g")["n_distinct"]
    )
    assert out.to_dict() == {"a": 2, "b": 2}
    # per-group registers == per-group run of the global sketch
    byg = stats.hll_registers_by(
        ray.data.from_items(rows), "g", "v", b=4
    ).to_pandas()
    for g in ("a", "b"):
        solo = stats.hll_registers(
            ray.data.from_items([r for r in rows if r["g"] == g]), "v", b=4
        ).to_pandas()
        got = byg[byg["g"] == g].set_index("bucket")["register"].to_dict()
        want = solo.set_index("bucket")["register"].to_dict()
        assert got == want


def test_fuzzy_pairs_lev1_complete_and_exact():
    rows = [{"s": x} for x in
            ["abc", "abd", "ab", "abcd", "xyz", "axc", "zzzz"]]
    out = (
        dedup.fuzzy_pairs_lev1(ray.data.from_items(rows), "s")
        .to_pandas()
    )
    got = {(r.name_a, r.name_b): r.dist for r in out.itertuples()}
    # substitution, deletion, insertion all found; dist values exact
    assert got[("abc", "abd")] == 1      # substitution
    assert got[("ab", "abc")] == 1       # insertion/deletion
    assert got[("abc", "abcd")] == 1
    assert got[("ab", "abd")] == 1
    assert got[("abc", "axc")] == 1
    # nothing at distance >= 2 sneaks in
    assert all(d <= 1 for d in got.values())
    assert ("abc", "xyz") not in got and ("xyz", "zzzz") not in got
    # DP matches a known value
    from entity_context_crawler_ray.stages.dedup import _levenshtein
    assert _levenshtein("kitten", "sitting") == 3


def test_bfs_levels_hand_computed():
    from entity_context_crawler_ray.stages import graph

    # path 1-2-3-4-5 plus isolated 9; undirected via both directions
    base = [(1, 2), (2, 3), (3, 4), (4, 5)]
    edges = ray.data.from_items(
        [{"src": a, "dst": b} for a, b in base]
        + [{"src": b, "dst": a} for a, b in base]
    )
    out = (
        graph.bfs_levels(edges, [1], iterations=3)
        .to_pandas()
        .set_index("node")["d"]
        .sort_index()
    )
    assert out.to_dict() == {1: 0, 2: 1, 3: 2, 4: 3}  # 5 beyond horizon
    # multi-source takes the minimum over seeds
    out2 = (
        graph.bfs_levels(edges, [1, 5], iterations=2)
        .to_pandas()
        .set_index("node")["d"]
        .sort_index()
    )
    assert out2.to_dict() == {1: 0, 2: 1, 3: 2, 4: 1, 5: 0}


def test_cube_sum_cents_all_grouping_sets():
    rows = [
        {"g1": "x", "g2": "p", "v": 1.25},
        {"g1": "x", "g2": "q", "v": 2.50},
        {"g1": "y", "g2": "p", "v": 4.00},
    ]
    out = (
        relational.cube_sum_cents(
            ray.data.from_items(rows), ["g1", "g2"], "v"
        )
        .to_pandas()
        .set_index(["g1", "g2"])
    )
    assert out.loc[("*ALL*", "p"), "sum_cents"] == 525   # the non-rollup set
    assert out.loc[("*ALL*", "q"), "sum_cents"] == 250
    assert out.loc[("x", "*ALL*"), "sum_cents"] == 375
    assert out.loc[("*ALL*", "*ALL*"), "sum_cents"] == 775
    assert len(out) == 8  # 3 finest + 2 g1-subs + 2 g2-subs + grand


def test_funnel_stages_ordering_and_strict_ts():
    import pandas as pd

    def ev(u, t, ty):
        return {"user_id": u, "ts": pd.Timestamp(t), "event_type": ty}

    rows = [
        # u1 completes in order
        ev(1, "2024-01-01 00:00", "view"),
        ev(1, "2024-01-01 00:01", "click"),
        ev(1, "2024-01-01 00:02", "purchase"),
        # u2: purchase BEFORE click -> stalls at click... no: order is
        # view, purchase, click => reaches click (stage 2), purchase
        # never re-occurs after
        ev(2, "2024-01-01 00:00", "view"),
        ev(2, "2024-01-01 00:01", "purchase"),
        ev(2, "2024-01-01 00:02", "click"),
        # u3: click at the SAME ts as view -> strict > rejects it
        ev(3, "2024-01-01 00:00", "view"),
        ev(3, "2024-01-01 00:00", "click"),
        # u4: never views
        ev(4, "2024-01-01 00:00", "click"),
    ]
    out = (
        windows.funnel_stages(
            ray.data.from_items(rows), ["view", "click", "purchase"]
        )
        .to_pandas()
        .set_index("user_id")["funnel_stage"]
        .sort_index()
    )
    assert out.to_dict() == {1: 3, 2: 2, 3: 1, 4: 0}


def test_md5_u64_matches_hashlib():
    import hashlib

    from entity_context_crawler_ray.functions.hashing import md5_u64

    # mixed lengths spanning 1..5 blocks + block-boundary edges
    msgs = [b"", b"a", b"x" * 55, b"y" * 56, b"z" * 64, b"q" * 119,
            b"r" * 120, b"s" * 300, b"wsamp123-4-7"] + [
        ("k%d-%d" % (i, i * 7)).encode() * (1 + i % 9) for i in range(2000)
    ]
    got = md5_u64(np.array(msgs, dtype="S"))
    exp = np.array(
        [int.from_bytes(hashlib.md5(m).digest()[:8], "big") for m in msgs],
        dtype=np.uint64,
    )
    assert (got == exp).all()
    # over-wide dtype with short actual strings: length, not width
    wide = np.array([b"a"], dtype="S70")
    assert md5_u64(wide)[0] == exp[1]
    # 128-bit variant: full digest split big-endian
    from entity_context_crawler_ray.functions.hashing import md5_u128

    hi, lo = md5_u128(np.array(msgs, dtype="S"))
    exp_lo = np.array(
        [int.from_bytes(hashlib.md5(m).digest()[8:], "big") for m in msgs],
        dtype=np.uint64,
    )
    assert (hi == exp).all() and (lo == exp_lo).all()
    # str lanes hash as their UTF-8 bytes — the value DuckDB's md5()
    # computes over the same VARCHAR (Stage 2 rank keys carry
    # non-ASCII titles and mentions)
    import duckdb

    words = ["Zürich", "São Paulo\x1f12\x1fé", "東京" * 30, "plain", ""]
    want = [int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[:8], "big") for w in words]
    assert md5_u64(words).tolist() == want
    assert md5_u64(np.array(words, dtype=object)).tolist() == want
    con = duckdb.connect()
    duck = [
        con.execute("SELECT CAST(('0x' || substr(md5(?), 1, 16)) AS UBIGINT)", [w]).fetchone()[0]
        for w in words
    ]
    con.close()
    assert duck == want
    hi, _ = md5_u128(words)
    assert hi.tolist() == want
    # trailing NULs are message bytes in str, bytes and Arrow lanes
    # (only NumPy S arrays above strip them: that is their meaning)
    nul = ["ab\x00", "\x00", "é\x00", "x" * 54 + "\x00", "y" * 63 + "\x00\x00"]
    raw = [m.encode("utf-8") for m in nul]
    want = [int.from_bytes(hashlib.md5(m).digest()[:8], "big") for m in raw]
    con = duckdb.connect()
    duck = [
        con.execute("SELECT CAST(('0x' || substr(md5(?), 1, 16)) AS UBIGINT)", [m]).fetchone()[0]
        for m in nul
    ]
    con.close()
    assert duck == want
    assert md5_u64(nul).tolist() == want
    assert md5_u64(raw).tolist() == want
    assert md5_u64(pa.array(nul)).tolist() == want
    assert md5_u64(pa.array(raw, pa.binary())).tolist() == want
    assert md5_u64(pa.array(nul, pa.large_string())).tolist() == want
    # an Arrow slice reads its own lanes, not the parent's first ones
    assert md5_u64(pa.array(["pad"] + nul).slice(1)).tolist() == want
    # callers pass str keys straight through: a weighted sample keyed by
    # a non-ASCII string column hashes the keys' UTF-8 bytes
    from entity_context_crawler_ray.stages.stats import U64, _es_priority_partial

    t = pa.table({"k": ["Zürich", "東京"], "w": [2, 1]})
    pri = _es_priority_partial(["k"], "w", "fixedpoint", "s", 8)(t)["pri"]
    h = [int.from_bytes(hashlib.md5(("s" + k).encode("utf-8")).digest()[:8], "big")
         for k in ["Zürich", "東京"]]
    assert pri.to_pylist() == pytest.approx(
        [np.log((h[0] + 1.0) / U64) / 2, np.log((h[1] + 1.0) / U64)]
    )


def _md5(m: str) -> bytes:
    import hashlib

    return hashlib.md5(m.encode("utf-8")).digest()


def _md5_int(m: str) -> int:
    return int.from_bytes(_md5(m)[:8], "big")


# empty, n-1 tokens, exactly n tokens, non-ASCII, punctuation-only,
# and one long doc, for a gram builder with gram size n
def _edge_docs(n: int) -> pa.Table:
    texts = [
        "",
        " ".join(f"t{i}" for i in range(n - 1)),
        " ".join(f"T{i}" for i in range(n)),
        "Zürich Straße café naïve 東京 São Paulo über ÅNGSTRÖM " * 2,
        "... !!! ,,, -- ?? ; :)",
        " ".join(f"w{i % 7} x{i % 3}" for i in range(40)),
    ]
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})


def test_gram_builders_match_per_row_hashlib_on_edge_docs():
    import re

    from entity_context_crawler_ray.stages import packing

    def rows(df, cols):
        return sorted(df[cols].itertuples(index=False, name=None))

    # span_ngram_occurrences: (md5 hi, [md5 lo,] doc, off) per 8-gram
    docs = _edge_docs(8)
    want64, want128 = [], []
    for d, txt in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        toks = re.findall(r"[a-z0-9_]+", txt.lower())
        for off in range(len(toks) - 7):
            dg = _md5(" ".join(toks[off : off + 8]))
            hi = int.from_bytes(dg[:8], "big", signed=True)
            lo = int.from_bytes(dg[8:], "big", signed=True)
            want64.append((hi, d, off))
            want128.append((hi, lo, d, off))
    assert want64, "the edge docs should emit grams"
    got = dedup.span_ngram_occurrences(ray.data.from_arrow(docs), n=8).to_pandas()
    assert rows(got, ["key_hi", "key_lo", "doc_id", "off"]) == sorted(want128)
    got = dedup.span_ngram_occurrences(
        ray.data.from_arrow(docs), n=8, hash_bits=64
    ).to_pandas()
    assert rows(got, ["key_hi", "doc_id", "off"]) == sorted(want64)

    # cdc_chunks: a boundary after p when the window ending at p hashes
    # to 0 mod 2^mask_bits; chunk_key is the md5-u64 hex of the chunk
    w, bits = 4, 2
    docs = _edge_docs(w)
    want = []
    for d, txt in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        toks = re.findall(r"[a-z0-9_]+", txt.lower())
        m = len(toks)
        if not m:
            continue
        cuts = [0] + [
            p + 1
            for p in range(w - 1, m - 1)
            if _md5_int(" ".join(toks[p - w + 1 : p + 1])) % (1 << bits) == 0
        ] + [m]
        for cid, (s, e) in enumerate(zip(cuts, cuts[1:])):
            want.append((d, cid, s, e, _md5(" ".join(toks[s:e]))[:8].hex()))
    assert len(want) > len(docs), "mask_bits=2 should cut the long doc"
    got = packing.cdc_chunks(ray.data.from_arrow(docs), w=w, mask_bits=bits).to_pandas()
    cols = ["doc_id", "chunk_id", "tok_start", "tok_end", "chunk_key"]
    assert rows(got, cols) == sorted(want)

    # minhash_bands: per-shingle md5 permutations, min per row, md5 of
    # the 'band-v1-v2-...' message as 32 hex digits
    num_perm, bands, n = 8, 4, 3
    docs = _edge_docs(n)
    a = [(_md5_int(f"mh-a-{i}") >> 32) | 1 for i in range(num_perm)]
    b = [_md5_int(f"mh-b-{i}") >> 32 for i in range(num_perm)]
    r = num_perm // bands
    want = []
    for d, txt in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        ws = re.findall(r"[A-Za-z0-9_]+", txt)
        grams = (
            [" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)]
            if len(ws) >= n
            else [" ".join(ws)] * bool(ws)
        )
        if not grams:
            continue
        hs = [_md5_int("sh" + g) >> 32 for g in grams]
        sig = [min((a[p] * h + b[p]) % (1 << 32) for h in hs) for p in range(num_perm)]
        for band in range(bands):
            msg = f"{band}-" + "-".join(str(v) for v in sig[band * r : band * r + r])
            want.append((d, band, _md5(msg).hex()))
    got = dedup.minhash_bands(docs, num_perm=num_perm, bands=bands, shingle_n=n)
    assert rows(got.to_pandas(), ["doc_id", "band_id", "band_hash"]) == sorted(want)


def test_weighted_sample_both_modes_match_local_recomputation():
    import hashlib

    from entity_context_crawler_ray.stages import stats

    rows = [
        {"k": i, "w": (i * 13) % 9 + 1} for i in range(200)
    ]
    ds = ray.data.from_items(rows)

    # --- md5_maxw: vectorized kernel == the per-row hashlib loop
    got = (
        stats.weighted_sample(ds, ["k"], "w", k=10, mode="md5_maxw", salt="t")
        .to_pandas()["k"]
        .tolist()
    )

    def u64(m: str) -> int:
        return int.from_bytes(hashlib.md5(m.encode()).digest()[:8], "big")

    pri = {
        r["k"]: max(u64(f"t{r['k']}-{i}") for i in range(r["w"]))
        for r in rows
    }
    exp = [k for k, _ in sorted(pri.items(), key=lambda kv: (-kv[1], kv[0]))][:10]
    assert got == exp

    # --- fixedpoint: ONE hash per item, ln(u)/w key == local numpy
    got_f = (
        stats.weighted_sample(ds, ["k"], "w", k=10, mode="fixedpoint", salt="t")
        .to_pandas()["k"]
        .tolist()
    )
    pri_f = {
        r["k"]: np.log((u64(f"t{r['k']}") + 1.0) / 2.0**64) / r["w"]
        for r in rows
    }
    exp_f = [
        k for k, _ in sorted(pri_f.items(), key=lambda kv: (-kv[1], kv[0]))
    ][:10]
    assert got_f == exp_f

    # weight cap is a raise, not a truncation
    big = ray.data.from_items([{"k": 1, "w": 99999}])
    with pytest.raises(Exception):
        stats.weighted_sample(
            big, ["k"], "w", k=1, mode="md5_maxw", max_weight=10
        ).to_pandas()


def test_span_dedup_duplicated_paragraph_survives_once():
    para = "alpha bravo charlie delta echo foxtrot golf hotel india juliet"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "unique one two three " + para + " tail words here"},
            {"doc_id": 2, "text": "other prefix stuff " + para + " different ending now"},
            {"doc_id": 3, "text": "totally unrelated content with no repeats at all whatsoever"},
        ]
    )
    spans = (
        dedup.span_dedup_spans(docs, n=8)
        .to_pandas()
        .sort_values(["doc_id", "tok_start"])
        .reset_index(drop=True)
    )
    # only doc 2's copy is marked; doc 1 (globally first) is untouched
    assert spans.to_dict("records") == [
        {"doc_id": 2, "tok_start": 3, "tok_end": 13}
    ]
    clean = (
        dedup.span_dedup_clean(docs, n=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert clean.loc[0, "clean_text"].count(para) == 1  # first copy survives
    assert para not in clean.loc[1, "clean_text"]       # second copy removed
    assert clean.loc[1, "clean_text"] == "other prefix stuff different ending now"
    assert clean["n_removed_tokens"].tolist() == [0, 10, 0]
    # the paragraph survives exactly once across the whole corpus
    joined = " | ".join(clean["clean_text"])
    assert joined.count(para) == 1


def test_span_dedup_within_doc_and_short_docs():
    rep = "one two three four five six seven eight"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": rep + " middle filler words " + rep},
            {"doc_id": 2, "text": "short doc"},
        ]
    )
    clean = (
        dedup.span_dedup_clean(docs, n=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # within-doc repeat: second occurrence removed, first kept
    assert clean.loc[0, "clean_text"] == rep + " middle filler words"
    # sub-n docs pass through whole
    assert clean.loc[1, "clean_text"] == "short doc"
    # 64-bit twin agrees with the 128-bit production key here
    s64 = dedup.span_dedup_spans(docs, n=8, hash_bits=64).to_pandas()
    s128 = dedup.span_dedup_spans(docs, n=8, hash_bits=128).to_pandas()
    assert s64.sort_values(["doc_id", "tok_start"]).values.tolist() == \
        s128.sort_values(["doc_id", "tok_start"]).values.tolist()


def test_bpe_train_hand_computed_and_single_pass():
    # corpus: 'aaab' x2, 'ab' x1
    docs = ray.data.from_items(
        [{"doc_id": 1, "text": "aaab aaab"}, {"doc_id": 2, "text": "ab"}]
    )
    merges = textstats.bpe_train(docs, num_merges=3)
    # step1: pairs (a,a):4, (a,b):3 -> (a,a)
    # step2: (aa,a):2, (a,b):3 -> (a,b)
    # step3: aaab=[aa,ab], ab=[ab] -> (aa,ab):2
    assert merges == [("a", "a"), ("a", "b"), ("aa", "ab")]
    # single left-to-right pass: 'aaaa' + (a,a) -> [aa, aa], not [aaa..]
    assert textstats._apply_merges("aaaa", [("a", "a")]) == ["aa", "aa"]
    assert textstats._apply_merges("aaa", [("a", "a")]) == ["aa", "a"]
    # encode under the learned table
    enc = (
        textstats.bpe_encode_count(docs, merges)
        .to_pandas()
        .sort_values("doc_id")
    )
    # doc1: aaab -> [aaab? no: aa,ab -> merge3 -> aaab] = 1 sym, x2 words
    assert enc["n_bpe_tokens"].tolist() == [2, 1]


def test_quality_model_matches_local_dot_product():
    import hashlib

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "alpha beta gamma alpha"},
            {"doc_id": 2, "text": ""},
            {"doc_id": 3, "text": "zeta"},
        ]
    )
    out = (
        docs.map_batches(
            textstats.QualityModel,
            fn_constructor_kwargs={"dim": 64},
            batch_format="pyarrow",
            concurrency=1,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    def wt(word):
        j = int.from_bytes(hashlib.md5(b"qw" + word).digest()[:8], "big") % 64
        return (j * 2654435761) % (1 << 32) % 2001 - 1000

    exp1 = wt(b"alpha") * 2 + wt(b"beta") + wt(b"gamma")
    assert out["score"].tolist() == [exp1, 0, wt(b"zeta")]
    assert out["keep"].tolist() == [exp1 > 0, False, wt(b"zeta") > 0]


def test_winnow_fingerprints_hand_checked():
    import hashlib

    # 8 words, k=2 grams -> 7 hashes, w=3 windows
    words = ["a", "b", "c", "d", "e", "f", "g", "h"]
    t = pa.table({"doc_id": [1, 2], "text": [" ".join(words), "x y"]})
    out = dedup.winnow_fingerprints(t, k=2, w=3).to_pandas()

    def h(g):
        return int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "big")

    grams = [" ".join(words[i : i + 2]) for i in range(7)]
    hs = [h(g) for g in grams]
    expect = set()
    for s in range(5):  # windows of 3
        win = hs[s : s + 3]
        m = min(win)
        pos = s + max(i for i, v in enumerate(win) if v == m)  # rightmost
        expect.add(pos)
    got = set(out[out["doc_id"] == 1]["pos"])
    assert got == expect
    for _, r in out[out["doc_id"] == 1].iterrows():
        assert r["fp"] == f"{hs[r['pos']]:016x}"
    # short doc (< k words... 2 words == k): one gram, pos 0
    short = out[out["doc_id"] == 2]
    assert short["pos"].tolist() == [0]
    assert short["fp"].iloc[0] == f"{h('x y'):016x}"
    # guarantee: two docs sharing a >= w+k-1 word run share a fingerprint
    t2 = pa.table(
        {
            "doc_id": [1, 2],
            "text": [
                "p q r s one two three four five u v",
                "z z z one two three four five y",
            ],
        }
    )
    o2 = dedup.winnow_fingerprints(t2, k=2, w=3).to_pandas()
    f1 = set(o2[o2["doc_id"] == 1]["fp"])
    f2 = set(o2[o2["doc_id"] == 2]["fp"])
    assert f1 & f2


def test_span_novelty_counts():
    para = "one two three four five six seven eight"
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": para + " tail"},        # 9 toks, 2 grams
            {"doc_id": 2, "text": para},                  # 8 toks, 1 gram (dup)
            {"doc_id": 3, "text": "short"},               # no grams -> no row
        ]
    )
    out = (
        dedup.span_novelty(docs, n=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2]
    assert out[out["doc_id"] == 1]["n_novel"].iloc[0] == 2  # both first
    assert out[out["doc_id"] == 2]["n_novel"].iloc[0] == 0  # seen in doc 1
    assert out["n_grams"].tolist() == [2, 1]


def test_heavy_hitters_exact_guarantee_and_counts():
    from entity_context_crawler_ray.stages import stats

    # 61 a's, 26 b's, 13 singletons (N=100): with k=3 (phi=1/4, strict
    # >25) exactly 'a' and 'b' qualify; the candidate pass must
    # survive values spread thinly across partitions
    vals = [1] * 61 + [2] * 26 + list(range(100, 113))
    ds = ray.data.from_items([{"v": v} for v in vals]).repartition(8)
    out = (
        stats.heavy_hitters_exact(ds, "v", k=3)
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert out.to_dict("records") == [
        {"v": 1, "cnt": 61}, {"v": 2, "cnt": 26}
    ]
    # boundary: exactly N/(k+1) does NOT qualify (strict inequality)
    vals2 = [1] * 25 + list(range(200, 275))  # 25*4 == 100
    ds2 = ray.data.from_items([{"v": v} for v in vals2])
    assert len(stats.heavy_hitters_exact(ds2, "v", k=3).to_pandas()) == 0
    # no value above threshold -> empty result, not an error
    flat = ray.data.from_items([{"v": i} for i in range(50)])
    assert len(stats.heavy_hitters_exact(flat, "v", k=3).to_pandas()) == 0


def test_vectorized_kernels_empty_and_degenerate_batches():
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    assert textstats.fingerprint(empty).num_rows == 0
    assert textstats.simhash64(empty).num_rows == 0
    assert textstats.QualityModel(dim=64)(empty).num_rows == 0
    assert dedup.winnow_fingerprints(empty).num_rows == 0
    assert dedup.minhash_bands(empty).num_rows == 0
    # empty TEXT rows (not empty batches)
    one = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": pa.array([""], pa.string())}
    )
    # md5('') — the value DuckDB computes for the empty gram
    assert textstats.fingerprint(one)["fingerprint"][0].as_py().startswith(
        "d41d8cd98f00b204"
    )
    assert textstats.simhash64(one)["simhash"][0].as_py() == -(1 << 63)
    assert textstats.QualityModel(dim=64)(one)["score"][0].as_py() == 0


def test_simhash_trailing_tokenless_doc_keeps_previous_signature():
    """A tokenless doc at the end of a batch must not shorten the
    previous doc's reduceat segment: each signature is the doc's own."""
    batch = pa.table({"doc_id": [0, 1], "text": ["hello world foo bar", "!!!"]})
    alone = pa.table({"doc_id": [0], "text": ["hello world foo bar"]})
    got = textstats.simhash64(batch)["simhash"].to_pylist()
    assert got[0] == textstats.simhash64(alone)["simhash"][0].as_py()
    assert got[1] == -(1 << 63)


def test_quality_model_trailing_tokenless_doc_keeps_previous_score():
    """Same batch-boundary case for the classifier's per-doc sums."""
    model = textstats.QualityModel()
    batch = pa.table({"doc_id": [0, 1], "text": ["hello world foo bar", "!!!"]})
    alone = pa.table({"doc_id": [0], "text": ["hello world foo bar"]})
    got = model(batch)["score"].to_pylist()
    assert got[0] == model(alone)["score"][0].as_py() == -881
    assert got[1] == 0


def _duckdb_rows(sf_dir, table, sql):
    duckdb = pytest.importorskip("duckdb")
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{sf_dir}/{table}.parquet')"
    )
    return con.execute(sql).df()


def _sorted_frame(df):
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_weighted_sample_queries_reject_weights_beyond_sql_range(tmp_path):
    """The md5_maxw pair agrees up to the SQL twins' hash-index range
    and raises beyond it instead of silently diverging."""
    import pyarrow.parquet as pq

    from entity_context_crawler_ray.pipelines import queries as q

    def lineitem(top):
        n = 40
        pq.write_table(
            pa.table(
                {
                    "l_orderkey": pa.array(range(n), pa.int64()),
                    "l_linenumber": pa.array([1] * n, pa.int32()),
                    "l_quantity": pa.array(
                        [float(top)] + [float(i % 50 + 1) for i in range(1, n)]
                    ),
                }
            ),
            tmp_path / "lineitem.parquet",
        )

    lineitem(q.WSAMP_MAX_WEIGHT)
    got = q.q_weighted_sample(str(tmp_path)).to_pandas()
    want = _duckdb_rows(str(tmp_path), "lineitem", q.SQL_WEIGHTED_SAMPLE)
    pd.testing.assert_frame_equal(
        _sorted_frame(got), _sorted_frame(want), check_dtype=False
    )

    lineitem(q.WSAMP_MAX_WEIGHT + 1)
    with pytest.raises(Exception, match="max_weight"):
        q.q_weighted_sample(str(tmp_path)).materialize()

    # grouped twin: weight = value*100 // 1000 + 1
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3], pa.int64()),
                "event_type": ["a", "a", "b"],
                "value": [q.WSAMP_MAX_WEIGHT * 10.0, 1.0, 2.0],
            }
        ),
        tmp_path / "events.parquet",
    )
    with pytest.raises(Exception, match="max_weight"):
        q.q_weighted_sample_grouped(str(tmp_path)).materialize()


def test_incremental_dedup_non_ascii_text_matches_sql(tmp_path):
    """Non-ASCII documents hash as UTF-8 bytes (DuckDB's md5) instead
    of failing the content-key encode."""
    import pyarrow.parquet as pq

    from entity_context_crawler_ray.pipelines import queries as q

    texts = ["naïve café", "plain ascii", "Grüße", "ünïcode ✓",
             "naïve café", "plain ascii", "new ✓ text", "Grüße"]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(1, 9), pa.int64()), "text": texts}),
        tmp_path / "documents.parquet",
    )
    got = q.q_incremental_dedup(str(tmp_path)).to_pandas()
    want = _duckdb_rows(str(tmp_path), "documents", q.SQL_INCREMENTAL_DEDUP)
    pd.testing.assert_frame_equal(
        _sorted_frame(got), _sorted_frame(want), check_dtype=False
    )
    assert got["true_dup"].sum() == 3


def test_weighted_sample_grouped_per_group_topk():
    import hashlib

    from entity_context_crawler_ray.stages import stats

    rows = [
        {"g": "a" if i % 2 else "b", "k": i, "w": (i * 7) % 5 + 1}
        for i in range(60)
    ]
    ds = ray.data.from_items(rows)
    out = stats.weighted_sample_grouped(
        ds, "g", ["k"], "w", k=3, mode="md5_maxw", salt="t"
    ).to_pandas()

    def u64(m):
        return int.from_bytes(hashlib.md5(m.encode()).digest()[:8], "big")

    for grp in ("a", "b"):
        pri = {
            r["k"]: max(u64(f"t{r['k']}-{i}") for i in range(r["w"]))
            for r in rows
            if r["g"] == grp
        }
        exp = sorted(pri, key=lambda k: (-pri[k], k))[:3]
        got = sorted(
            out[out["g"] == grp]["k"].tolist(),
            key=lambda k: (-pri[k], k),
        )
        assert got == exp


def test_chunking_fixed_and_cdc_locality():
    from entity_context_crawler_ray.stages import packing

    words = " ".join(f"w{i % 37}x{i % 11}" for i in range(300))
    docs = ray.data.from_items([{"doc_id": 1, "text": words}])
    out = (
        packing.chunk_documents(docs, chunk_tokens=50, overlap=10)
        .to_pandas()
        .sort_values("chunk_id")
    )
    # 300 tokens, step 40: 1 + ceil(250/40) = 8 chunks; last is short
    assert len(out) == 8
    assert out["n_tokens"].tolist() == [50] * 7 + [20]
    assert out.iloc[0]["chunk_text"].split()[:2] == ["w0x0", "w1x1"]
    # overlap: chunk i starts 40 tokens in, repeating the last 10
    assert out.iloc[0]["chunk_text"].split()[40:] == \
        out.iloc[1]["chunk_text"].split()[:10]

    # CDC locality: inserting a token near the front must leave the
    # TAIL chunk keys identical (boundaries are content-defined)
    both = ray.data.from_items(
        [
            {"doc_id": 1, "text": words},
            {"doc_id": 2, "text": "zzz " + words},
        ]
    )
    cdc = packing.cdc_chunks(both, w=4, mask_bits=4).to_pandas()
    k1 = cdc[cdc["doc_id"] == 1]["chunk_key"].tolist()
    k2 = cdc[cdc["doc_id"] == 2]["chunk_key"].tolist()
    assert len(k1) > 3, "corpus should produce several CDC chunks"
    # all but the first chunk(s) re-align: the shared tail dominates
    shared = set(k1) & set(k2)
    assert len(shared) >= len(k1) - 2
    # zero-token docs emit nothing
    empty = packing.cdc_chunks(
        ray.data.from_items([{"doc_id": 3, "text": "..."}])
    ).to_pandas()
    assert len(empty) == 0
