"""Stable hashing: md5 is the engine's one hash family.

Everything here must be process-stable (no reliance on PYTHONHASHSEED)
because results cross task boundaries and seed deterministic sampling:
the reference threads ``--random-seed`` + PYTHONHASHSEED through a
serial loop (reference __main__.py:31-32,65-66;
cmd/build_contexts_db.py:188-212); the rebuild instead derives every
random decision from a stable per-key hash so results are independent
of partitioning and iteration order (SURVEY.md §4 determinism note).

Every hash is md5 — scalar keys through ``stable_hash64``, arrays
through the vectorized ``md5_u64`` / ``md5_u128`` — because DuckDB's
``md5()`` recomputes it, so every hash-driven decision (context
sampling ranks, LSH planes, MinHash permutations, media geometry) is
checkable by an oracle query.  The one exception is the sandbox input
generator (sources/docs.py), which keeps its own hash so the derived
corpus stays byte-stable.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def stable_hash64(*parts: object) -> int:
    """64-bit stable hash of the '\\x1f'-joined string forms of parts:
    the top 64 bits of their md5, so ``md5_u64`` over the same joined
    key and DuckDB's ``CAST(('0x' || substr(md5(k), 1, 16)) AS UBIGINT)``
    compute the same value."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.md5(key).digest()[:8], "big")


# --- Vectorized MD5 ---------------------------------------------------------
#
# Most hashed messages (sampling priorities, LSH plane seeds, n-gram
# span keys) fit one 64-byte block, so the MD5 of N messages reduces to
# 64 rounds of uint32 numpy arithmetic over a (16, chunk) word matrix:
# one compiled kernel instead of N Python ``hashlib`` calls; longer
# messages chain blocks.  Exactly RFC-1321 MD5, verified bit-for-bit
# against ``hashlib`` and DuckDB's ``md5()`` in tests/test_stages.py.
# In-process on one core (best of 3, bit-checked against hashlib) it
# wins on short single-block keys (500k 16-byte keys: 0.24 s vs
# 0.41 s), about ties on the 43-byte span grams ``q_span_dedup``
# hashes (50k ``md5_u128``: 21 ms vs 26 ms), and loses on tiny
# batches (60 urls: 0.5 ms vs 0.05 ms) and multi-block texts (50k
# 300-byte texts: 90 ms vs 62 ms).

# K[i] = floor(abs(sin(i+1)) * 2^32) — the RFC 1321 constant table;
# exact in IEEE-754 double (and asserted against hashlib in tests).
_MD5_K = np.array(
    [int(abs(math.sin(i + 1)) * (1 << 32)) & 0xFFFFFFFF for i in range(64)],
    dtype=np.uint32,
)
_MD5_S = (
    [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4
    + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4
)


def _md5_core(words: np.ndarray, state) -> tuple:
    """64 MD5 rounds over one message block per lane: ``words`` is
    (16, n) uint32 (contiguous rows so each round's message gather is
    one sequential read), ``state`` the four chaining uint32[n]
    vectors.  In-place uint32 ops on preallocated buffers — the
    temporaries stay cache-resident at the chunk sizes ``md5_u64``
    feeds in.  Returns the updated chaining state (Merkle–Damgård:
    state += round output)."""
    a0, b0, c0, d0 = state
    a, b, c, d = a0.copy(), b0.copy(), c0.copy(), d0.copy()
    n = words.shape[1]
    f = np.empty(n, np.uint32)
    rot = np.empty(n, np.uint32)
    for i in range(64):
        if i < 16:
            # (b&c)|(~b&d) == d ^ (b & (c^d)) — fewer temporaries
            np.bitwise_xor(c, d, out=f)
            np.bitwise_and(f, b, out=f)
            np.bitwise_xor(f, d, out=f)
            g = i
        elif i < 32:
            # (d&b)|(~d&c) == c ^ (d & (b^c))
            np.bitwise_xor(b, c, out=f)
            np.bitwise_and(f, d, out=f)
            np.bitwise_xor(f, c, out=f)
            g = (5 * i + 1) & 15
        elif i < 48:
            np.bitwise_xor(b, c, out=f)
            np.bitwise_xor(f, d, out=f)
            g = (3 * i + 5) & 15
        else:
            np.bitwise_or(b, ~d, out=f)
            np.bitwise_xor(f, c, out=f)
            g = (7 * i) & 15
        f += a
        f += _MD5_K[i]
        f += words[g]
        a, d, c = d, c, b
        s = _MD5_S[i]
        np.left_shift(f, np.uint32(s), out=rot)
        f >>= np.uint32(32 - s)
        rot |= f
        b = b + rot
    return (a0 + a, b0 + b, c0 + c, d0 + d)


def _md5_digest_words(
    msgs: np.ndarray, lengths: np.ndarray, chunk: int
) -> tuple:
    """Full vectorized MD5 (any message length): groups lanes by
    block count so every group runs a rectangular (16, m) kernel per
    block with Merkle–Damgård chaining.  Returns the four final
    uint32[N] state vectors (little-endian digest words A, B, C, D)."""
    n = msgs.shape[0]
    width = msgs.dtype.itemsize
    nblocks = (lengths + 9 + 63) // 64
    A = np.empty(n, np.uint32)
    B = np.empty(n, np.uint32)
    C = np.empty(n, np.uint32)
    D = np.empty(n, np.uint32)
    for nb in np.unique(nblocks):
        sel = np.flatnonzero(nblocks == nb)
        # the common case (uniform block count) indexes with slices —
        # a fancy-index gather here costs ~3x on short messages
        contiguous = sel.size and int(sel[-1]) - int(sel[0]) + 1 == sel.size
        ln = lengths[sel]
        for lo in range(0, sel.size, chunk):
            idx = (
                slice(int(sel[lo]), int(sel[lo]) + min(chunk, sel.size - lo))
                if contiguous
                else sel[lo : lo + chunk]
            )
            m = min(chunk, sel.size - lo)
            lens = ln[lo : lo + chunk]
            buf = np.zeros((m, int(nb) * 64), dtype=np.uint8)
            if width:
                take = min(width, buf.shape[1])
                buf[:, :take] = (
                    msgs[idx].view(np.uint8).reshape(m, width)[:, :take]
                )
            buf[np.arange(m), lens] = 0x80        # 1-bit terminator
            words = buf.view("<u4").reshape(m, int(nb) * 16)
            bits = lens * 8                       # 64-bit LE bit length
            words[:, -2] = (bits & 0xFFFFFFFF).astype(np.uint32)
            words[:, -1] = (bits >> 32).astype(np.uint32)
            state = (
                np.full(m, 0x67452301, np.uint32),
                np.full(m, 0xEFCDAB89, np.uint32),
                np.full(m, 0x98BADCFE, np.uint32),
                np.full(m, 0x10325476, np.uint32),
            )
            for blk in range(int(nb)):
                block = np.ascontiguousarray(
                    words[:, blk * 16 : (blk + 1) * 16].T
                )
                state = _md5_core(block, state)
            A[idx], B[idx], C[idx], D[idx] = state
    return A, B, C, D


def _as_bytes_lanes(msgs) -> tuple:
    """Normalize to an S-dtype array + actual per-lane byte lengths
    (fixed-width dtypes over-allocate: an int64 stringifies to U21,
    so the dtype width is not the message length).  ``str`` lanes hash
    as their UTF-8 bytes, as DuckDB's ``md5()`` hashes a VARCHAR."""
    msgs = np.asarray(msgs)
    if msgs.dtype.kind in "UO":
        msgs = msgs.astype("U", copy=False)
        try:
            msgs = msgs.astype("S")
        except UnicodeEncodeError:
            msgs = np.char.encode(msgs, "utf-8")
    else:
        msgs = msgs.astype("S", copy=False)
    lengths = np.char.str_len(msgs).astype(np.int64)
    return msgs, lengths


def md5_u64(msgs: np.ndarray, chunk: int = 1 << 16) -> np.ndarray:
    """Vectorized MD5: ``msgs`` is an array (or list) of bytes or
    ``str`` messages of any length.  Returns ``uint64[N]``
    equal to ``int.from_bytes(hashlib.md5(m).digest()[:8], "big")``
    per message — the exact value DuckDB's
    ``CAST(('0x' || substr(md5(m),1,16)) AS UBIGINT)`` computes, and
    ``stable_hash64`` over the same key."""
    msgs, lengths = _as_bytes_lanes(msgs)
    if msgs.shape[0] == 0:
        return np.empty(0, dtype=np.uint64)
    a, b, _, _ = _md5_digest_words(msgs, lengths, chunk)
    # digest[:8] = LE bytes of A then B, read big-endian:
    # u64 = byteswap32(A) << 32 | byteswap32(B)
    return (
        (a.byteswap().astype(np.uint64) << np.uint64(32))
        | b.byteswap().astype(np.uint64)
    )


def md5_u128(msgs: np.ndarray, chunk: int = 1 << 16) -> tuple:
    """Vectorized full-width MD5: returns ``(hi, lo)`` uint64 arrays —
    the 128-bit digest read big-endian, split so callers can key an
    exchange on two int64 columns.  64-bit gram keys collide at ~2^32
    distinct grams (hours of a 100 TB corpus); span-dedup's production
    path keys on the full 128 bits."""
    msgs, lengths = _as_bytes_lanes(msgs)
    if msgs.shape[0] == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    a, b, c, d = _md5_digest_words(msgs, lengths, chunk)
    hi = (a.byteswap().astype(np.uint64) << np.uint64(32)) | b.byteswap().astype(
        np.uint64
    )
    lo = (c.byteswap().astype(np.uint64) << np.uint64(32)) | d.byteswap().astype(
        np.uint64
    )
    return hi, lo
