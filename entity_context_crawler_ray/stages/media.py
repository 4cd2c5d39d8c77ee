"""Multimodal column handling: media spans as opaque references with
typed metadata, decode / feature-extract as actor-pool stages.

The docs table interleaves ``kind='media'`` spans (caption +
``media_ref`` URI) with text (BASELINE.json input_hint).  The decode
KERNEL is real: a pure-numpy parser for binary PPM/PGM (P6/P5) and
uncompressed 24/32-bit BMP (``decode_image_bytes``) — formats whose
bitstreams need no codec library.  Compressed formats (JPEG/PNG/video)
raise NotImplementedError at the exact point the codec call would go
(the libraries are not in this container).  In the sandbox the raw
encoded bytes come from a deterministic fetch stand-in
(``synthesize_image_bytes`` — a hash-seeded gradient image really
encoded as PPM or BMP); at deployment the fetch stage supplies the
``raw`` column instead and nothing else changes.

``MediaDecoder(fake=True)`` remains the hash-stable stand-in (no
bitstream at all) for tests that only need the plumbing shape.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import stable_hash64

MEDIA_META_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("caption", pa.string()),
        ("span_offset", pa.int32()),
    ]
)

DECODED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("channels", pa.int32()),
        ("n_bytes", pa.int64()),
        ("payload", pa.binary()),
    ]
)


# --- real image bitstream kernels (pure numpy / struct, no codec) ---------


def _ppm_header(data: bytes) -> Tuple[int, int, int, int]:
    """Parse a P5/P6 header: (width, height, maxval, data_offset).
    Whitespace-separated tokens with ``#`` comments, one whitespace
    byte after maxval, then the raster."""
    pos = 2
    vals = []
    while len(vals) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise ValueError("unterminated PPM comment")
            pos = nl + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        vals.append(int(data[start:pos]))
    pos += 1  # exactly one whitespace byte separates header and raster
    return vals[0], vals[1], vals[2], pos


def decode_image_bytes(data: bytes) -> Tuple[int, int, int, np.ndarray]:
    """Encoded image bytes -> (width, height, channels, pixels) with
    ``pixels`` a (height, width, channels) uint8 array.

    Real decoders, no codec library:
    - binary PPM (P6, RGB) / PGM (P5, grayscale), maxval <= 255
    - BMP: 'BM', BITMAPINFOHEADER(>=40), uncompressed (BI_RGB) 24/32
      bpp, bottom-up or top-down, 4-byte row padding, BGR(A) -> RGB(A)

    Compressed containers (JPEG/PNG/GIF/video) raise
    NotImplementedError — that is where a codec library plugs in.
    """
    magic = data[:2]
    if magic in (b"P6", b"P5"):
        w, h, maxval, off = _ppm_header(data)
        if maxval > 255:
            raise NotImplementedError("16-bit PPM needs byte-order handling")
        c = 3 if magic == b"P6" else 1
        need = w * h * c
        raster = np.frombuffer(data, dtype=np.uint8, count=need, offset=off)
        return w, h, c, raster.reshape(h, w, c)
    if magic == b"BM":
        if len(data) < 54:
            raise ValueError("truncated BMP header")
        pix_off = struct.unpack_from("<I", data, 10)[0]
        hdr_size = struct.unpack_from("<I", data, 14)[0]
        if hdr_size < 40:
            raise NotImplementedError("BITMAPCOREHEADER BMP not supported")
        w, h_signed = struct.unpack_from("<ii", data, 18)
        bpp = struct.unpack_from("<H", data, 28)[0]
        compression = struct.unpack_from("<I", data, 30)[0]
        if compression != 0:
            raise NotImplementedError(f"compressed BMP (method {compression})")
        if bpp not in (24, 32):
            raise NotImplementedError(f"{bpp}-bpp BMP (palette formats)")
        c = bpp // 8
        h = abs(h_signed)
        stride = ((bpp * w + 31) // 32) * 4
        raster = np.frombuffer(
            data, dtype=np.uint8, count=stride * h, offset=pix_off
        ).reshape(h, stride)
        rows = raster[:, : w * c].reshape(h, w, c)
        if h_signed > 0:  # bottom-up storage
            rows = rows[::-1]
        # BGR(A) -> RGB(A)
        if c == 3:
            rows = rows[:, :, [2, 1, 0]]
        else:
            rows = rows[:, :, [2, 1, 0, 3]]
        return w, h, c, np.ascontiguousarray(rows)
    for sig, name in ((b"\xff\xd8", "JPEG"), (b"\x89P", "PNG"), (b"GI", "GIF")):
        if magic == sig:
            raise NotImplementedError(
                f"{name} decode requires a codec library not present in "
                f"this environment"
            )
    raise ValueError(f"unrecognized image signature {magic!r}")


def encode_ppm(pixels: np.ndarray) -> bytes:
    """(h, w, 1|3) uint8 -> binary PGM/PPM bytes (the exact format
    ``decode_image_bytes`` parses — used by the round-trip tests and
    the sandbox fetch stand-in)."""
    h, w, c = pixels.shape
    magic = b"P6" if c == 3 else b"P5"
    return magic + f"\n{w} {h}\n255\n".encode() + pixels.tobytes()


def encode_bmp(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> uncompressed 24-bpp bottom-up BMP."""
    h, w, c = pixels.shape
    assert c == 3
    stride = ((24 * w + 31) // 32) * 4
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, : w * 3] = pixels[::-1, :, [2, 1, 0]].reshape(h, w * 3)
    body = rows.tobytes()
    header = struct.pack(
        "<2sIHHI", b"BM", 54 + len(body), 0, 0, 54
    ) + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 2835, 2835, 0, 0)
    return header + body


def synthesize_image_bytes(media_ref: str) -> bytes:
    """Deterministic fetch stand-in for the sandbox: a hash-seeded
    gradient image, REALLY encoded (alternating PPM / BMP by ref hash)
    so the decode stage exercises the true bitstream parsers.  At
    deployment the fetch stage supplies raw bytes instead.  The seed is
    the top 64 bits of md5('media-raw' ‖ ref), so a DuckDB oracle
    predicts the dims the real decoder must recover."""
    hseed = stable_hash64("media-raw" + media_ref)
    w = 8 + hseed % 25
    h = 8 + (hseed >> 8) % 25
    yy, xx = np.mgrid[0:h, 0:w]
    base = (xx * 7 + yy * 13 + (hseed % 251)) % 256
    pixels = np.stack(
        [base, (base * 3 + 17) % 256, (base * 5 + 29) % 256], axis=-1
    ).astype(np.uint8)
    if hseed % 2:
        return encode_bmp(pixels)
    return encode_ppm(pixels)


def extract_media_spans(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Project media spans out of the interleaved docs (vectorized
    explode, media rows only)."""

    def explode(t: pa.Table) -> pa.Table:
        col = t["spans"]
        parent = pc.list_parent_indices(col)
        flat = pc.list_flatten(col)
        kinds = pc.struct_field(flat, "kind")
        mask = pc.equal(kinds, "media")
        doc_ids = pc.take(t["doc_id"], parent).filter(mask)
        return pa.Table.from_arrays(
            [
                doc_ids,
                pc.struct_field(flat, "media_ref").filter(mask),
                pc.struct_field(flat, "text").filter(mask),
                pc.struct_field(flat, "offset").filter(mask),
            ],
            schema=MEDIA_META_SCHEMA,
        )

    return docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


class MediaDecoder:
    """Actor-pool decode stage.  ``__init__`` is where a per-actor
    codec/model would load once; ``__call__`` decodes a batch.  Keep
    ``batch_size`` small (binary payloads × concurrency must fit
    worker heap — SURVEY-level guidance for 100 TB media).

    Real mode (default): parses the batch's ``raw`` binary column with
    ``decode_image_bytes`` (PPM/PGM/BMP bitstreams) — payload is the
    decoded RGB/gray pixel buffer.  Per-image failures (unsupported
    codec, truncated stream) become NULL-payload rows, not task
    failures.  ``fake=True``: hash-derived dims + constant bytes, no
    bitstream (for plumbing-only tests)."""

    def __init__(self, fake: bool = False, max_side: int = 64):
        self.fake = fake
        self.max_side = max_side

    def _fake_one(self, media_ref: str) -> tuple:
        h = stable_hash64("media-decode", media_ref)
        width = 16 + (h % 49)
        height = 16 + ((h >> 8) % 49)
        rng_bytes = (h & 0xFF).to_bytes(1, "big") * min(width * height, 4096)
        return width, height, 1, rng_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, chans, n_bytes, payloads = [], [], [], [], []
        if self.fake:
            for ref in batch["media_ref"].to_pylist():
                w, h, c, data = self._fake_one(ref)
                widths.append(w)
                heights.append(h)
                chans.append(c)
                n_bytes.append(len(data))
                payloads.append(data)
        else:
            if "raw" not in batch.column_names:
                raise ValueError(
                    "MediaDecoder(fake=False) needs a 'raw' binary column "
                    "of encoded image bytes (the fetch stage supplies it; "
                    "see attach_raw_media)"
                )
            for raw in batch["raw"].to_pylist():
                try:
                    w, h, c, pixels = decode_image_bytes(raw)
                    data = pixels.tobytes()
                except (ValueError, NotImplementedError):
                    # undecodable stream -> null payload row (carried as
                    # data, same policy as the crawl's error rows)
                    widths.append(0)
                    heights.append(0)
                    chans.append(0)
                    n_bytes.append(0)
                    payloads.append(None)
                    continue
                widths.append(w)
                heights.append(h)
                chans.append(c)
                n_bytes.append(len(data))
                payloads.append(data)
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                batch["media_ref"],
                pa.array(widths, pa.int32()),
                pa.array(heights, pa.int32()),
                pa.array(chans, pa.int32()),
                pa.array(n_bytes, pa.int64()),
                pa.array(payloads, pa.binary()),
            ],
            schema=DECODED_SCHEMA,
        )


def attach_raw_media(media_meta: ray.data.Dataset) -> ray.data.Dataset:
    """Sandbox fetch stand-in: attach a ``raw`` column of REAL encoded
    PPM/BMP bytes, deterministically derived per ref.  At deployment
    this stage is the media fetch (byte-range read / blob get)."""

    def attach(t: pa.Table) -> pa.Table:
        raws = [synthesize_image_bytes(r) for r in t["media_ref"].to_pylist()]
        return t.append_column("raw", pa.array(raws, pa.binary()))

    return media_meta.map_batches(attach, batch_format="pyarrow")


def decode_media(
    docs: ray.data.Dataset,
    fake: bool = False,
    concurrency: int | tuple = (1, 4),
    batch_size: int = 32,
) -> ray.data.Dataset:
    """Full media path: project media spans -> (fetch raw bytes) ->
    actor-pool decode.  Real bitstream decode by default."""
    media = extract_media_spans(docs)
    if not fake:
        media = attach_raw_media(media)
    return media.map_batches(
        MediaDecoder,
        fn_constructor_kwargs={"fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def resize_media(decoded: ray.data.Dataset, max_side: int = 32) -> ray.data.Dataset:
    """Aspect-preserving downscale over DECODED_SCHEMA rows.  When the
    payload is a real (h, w, c) pixel buffer the resample is a REAL
    nearest-neighbor kernel (vectorized numpy index gather); fake
    payloads (no pixel geometry) fall back to byte truncation so the
    size bookkeeping still holds."""

    def resize(t: pa.Table) -> pa.Table:
        w = np.asarray(t["width"].to_pylist(), dtype=np.float64)
        h = np.asarray(t["height"].to_pylist(), dtype=np.float64)
        cs = t["channels"].to_pylist()
        scale = np.minimum(1.0, max_side / np.maximum(np.maximum(w, h), 1.0))
        nw = np.maximum(1, np.round(w * scale)).astype(np.int32)
        nh = np.maximum(1, np.round(h * scale)).astype(np.int32)
        payloads = t["payload"].to_pylist()
        out_p = []
        for p, ow, oh, c, a, b in zip(
            payloads, w.astype(np.int64), h.astype(np.int64), cs, nw, nh
        ):
            if p is None:
                out_p.append(None)
            elif c and len(p) == ow * oh * c:
                pix = np.frombuffer(p, dtype=np.uint8).reshape(oh, ow, c)
                ys = (np.arange(b) * oh // b).astype(np.int64)
                xs = (np.arange(a) * ow // a).astype(np.int64)
                out_p.append(np.ascontiguousarray(pix[ys][:, xs]).tobytes())
            else:
                out_p.append(p[: max(1, int(a) * int(b))])
        return pa.Table.from_arrays(
            [
                t["doc_id"],
                t["media_ref"],
                pa.array(nw.tolist(), pa.int32()),
                pa.array(nh.tolist(), pa.int32()),
                pa.array(cs, pa.int32()),
                pa.array([len(p) if p is not None else 0 for p in out_p], pa.int64()),
                pa.array(out_p, pa.binary()),
            ],
            schema=DECODED_SCHEMA,
        )

    return decoded.map_batches(resize, batch_format="pyarrow")


EMBED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("embedding", pa.list_(pa.float32())),
    ]
)


# Actor pools here autoscale from ONE actor ((1, 4)): chaining two
# fixed-size pools plus read tasks can otherwise starve a small CPU
# budget (observed deadlock at 4 CPUs with 2+2 fixed actors).
class MediaEmbedder:
    """Actor-pool feature extraction: the 'model' (a seeded projection
    matrix) loads ONCE per actor in ``__init__``; ``__call__`` runs
    BATCHED inference — payload byte histograms × projection in one
    matmul per batch (the exact shape a real vision encoder takes:
    swap the histogram for pixel tensors and the matmul for the
    model's forward)."""

    def __init__(self, dim: int = 16, seed: int = 42, emit_checksums: bool = False):
        rng = np.random.RandomState(seed)
        self.proj = rng.standard_normal((256, dim)).astype(np.float64)
        # emit_checksums appends integer provenance stats of the INPUT
        # payload (byte count / sum / position-weighted sum) — the
        # oracle-checkable fingerprint of what the model actually saw
        # (q_media_embed predicts them in closed form)
        self.emit_checksums = emit_checksums

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = np.zeros((batch.num_rows, 256), dtype=np.float64)
        n_bytes = np.zeros(batch.num_rows, dtype=np.int64)
        px_sum = np.zeros(batch.num_rows, dtype=np.int64)
        px_wsum = np.zeros(batch.num_rows, dtype=np.int64)
        for i, p in enumerate(batch["payload"].to_pylist()):
            if p:
                arr = np.frombuffer(p, dtype=np.uint8)
                feats[i] = np.bincount(arr, minlength=256)
                if self.emit_checksums:
                    a64 = arr.astype(np.int64)
                    n_bytes[i] = len(arr)
                    px_sum[i] = int(a64.sum())
                    px_wsum[i] = int((np.arange(len(arr), dtype=np.int64) * a64).sum())
        emb = feats @ self.proj  # one matmul per batch
        norms = np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
        emb = (emb / norms).astype(np.float32)
        cols = [
            batch["doc_id"],
            batch["media_ref"],
            pa.array([row.tolist() for row in emb], pa.list_(pa.float32())),
        ]
        if not self.emit_checksums:
            return pa.Table.from_arrays(cols, schema=EMBED_SCHEMA)
        return pa.Table.from_arrays(
            cols
            + [
                pa.array(n_bytes, pa.int64()),
                pa.array(px_sum, pa.int64()),
                pa.array(px_wsum, pa.int64()),
            ],
            names=list(EMBED_SCHEMA.names) + ["n_bytes", "px_sum", "px_wsum"],
        )


def embed_media(
    decoded: ray.data.Dataset,
    dim: int = 16,
    concurrency: int | tuple = (1, 4),
    batch_size: int = 64,
    emit_checksums: bool = False,
) -> ray.data.Dataset:
    """Decoded media -> unit-norm embeddings (actor-pool inference)."""
    return decoded.map_batches(
        MediaEmbedder,
        fn_constructor_kwargs={"dim": dim, "emit_checksums": emit_checksums},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


FRAME_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("frame_idx", pa.int32()),
        ("ts_ms", pa.int64()),
    ]
)


def sample_frames(
    media_meta: ray.data.Dataset,
    every_ms: int = 1000,
    fps: int = 25,
) -> ray.data.Dataset:
    """Video-style frame sampling plumbing: each media ref's stream
    length is probed (fake: hash-derived duration; real: container
    header read — no full decode), then one row per sampled frame is
    emitted at ``every_ms`` intervals.  Bounded fan-out explode: the
    output row count is duration/every_ms per ref, never a per-frame
    explosion of the whole stream.  The probed duration derives from
    the top 32 bits of md5('dur' ‖ ref), so a DuckDB oracle reproduces
    the sampling arithmetic exactly."""

    def _duration(r: str) -> int:
        return 500 + (stable_hash64("dur" + r) >> 32) % 10_000

    def explode(t: pa.Table) -> pa.Table:
        doc_ids, refs, idxs, tss = [], [], [], []
        for d, r in zip(t["doc_id"].to_pylist(), t["media_ref"].to_pylist()):
            duration_ms = _duration(r)
            for k, ts in enumerate(range(0, duration_ms, every_ms)):
                doc_ids.append(d)
                refs.append(r)
                idxs.append(ts * fps // 1000)
                tss.append(ts)
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids, pa.string()),
                pa.array(refs, pa.string()),
                pa.array(idxs, pa.int32()),
                pa.array(tss, pa.int64()),
            ],
            schema=FRAME_SCHEMA,
        )

    return media_meta.map_batches(explode, batch_format="pyarrow")
