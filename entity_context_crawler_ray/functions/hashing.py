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
import pyarrow as pa


def stable_hash64(*parts: object) -> int:
    """64-bit stable hash of the '\\x1f'-joined string forms of parts:
    the top 64 bits of their md5, so ``md5_u64`` over the same joined
    key and DuckDB's ``CAST(('0x' || substr(md5(k), 1, 16)) AS UBIGINT)``
    compute the same value."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.md5(key).digest()[:8], "big")


# --- Vectorized MD5 ---------------------------------------------------------
#
# Input contract (``_as_bytes_lanes``): a message is a ``str``, hashed
# as its exact UTF-8 bytes (the VARCHAR DuckDB's ``md5()`` hashes), or
# ``bytes``.  Lists of either and Arrow string/binary arrays are read as
# Arrow offsets plus one data buffer, so every lane hashes exactly its
# own bytes, trailing NULs included, and no lane is padded to the
# widest message of its batch.  NumPy ``S``/``U`` arrays keep NumPy's
# meaning: the trailing NUL padding is not part of the value.  Callers
# build messages with ``" ".join`` and f-strings, never NumPy's string
# ufuncs, whose every pass copies each message into fixed-width UCS-4.
#
# Most hashed messages (sampling priorities, LSH plane seeds, n-gram
# span keys) fit one 64-byte block, so the MD5 of N messages reduces to
# 64 rounds of uint32 numpy arithmetic over a (16, chunk) word matrix:
# one compiled kernel instead of N Python ``hashlib`` calls; longer
# messages chain blocks, one kernel call per block over the lanes that
# still have it.  Exactly RFC-1321 MD5, verified bit-for-bit against
# ``hashlib`` and DuckDB's ``md5()`` in tests/test_stages.py.
# In-process on one core (pinned with taskset, 4-CPU shared box, best
# of 3, bit-checked against hashlib), kernel vs a hashlib loop: it wins
# on short keys (500k 16-byte keys: 0.24 s vs 0.33 s) and on the
# 43-byte span grams ``q_span_dedup`` hashes (50k ``md5_u128``: 22 ms
# vs 33 ms), and loses on tiny batches (60 urls: 0.6 ms vs 0.04 ms;
# each call costs ~0.5 ms of numpy calls per block) and on multi-block
# texts (50k 300-byte texts: 94 ms vs 57 ms).

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


def _md5_digest_words(data: np.ndarray, off: np.ndarray, chunk: int) -> tuple:
    """Full vectorized MD5 (any message length) over Arrow-style lanes:
    lane i is ``data[off[i]:off[i+1]]``.  Lanes run in chunks of
    ``chunk``, most blocks first, so block b of a chunk is one
    rectangular (16, k) kernel over the prefix of k lanes that still
    have a block b (Merkle–Damgård chaining): a batch of mixed lengths
    costs as many kernel calls as its longest lane has blocks.  A block
    is read as one 64-byte row of a sliding-window view over the
    zero-tailed data; its bytes past the lane's end are zeroed, then
    MD5's terminator and bit length are written in.  Returns the four
    final uint32[N] state vectors (little-endian digest words A, B, C,
    D)."""
    n = off.size - 1
    base = int(off[0])
    lengths = np.diff(off)
    nblocks = (lengths + 9 + 63) // 64
    total = int(off[-1]) - base
    # zero tail: a lane's last block starts at most 8 bytes past its end
    padded = np.zeros(total + 128, np.uint8)
    padded[:total] = data[base : base + total]
    rows = np.lib.stride_tricks.sliding_window_view(padded, 64)
    order = np.argsort(-nblocks, kind="stable")
    cols = np.arange(16)
    state = [
        np.full(n, iv, np.uint32)
        for iv in (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    ]
    for lo in range(0, n, chunk):
        idx = order[lo : lo + chunk]
        starts = off[idx] - base
        lens = lengths[idx]
        nbs = nblocks[idx]
        neg = -nbs
        st = [s[idx] for s in state]
        for blk in range(int(nbs[0])):
            # lanes still running, and from j on the lanes whose message
            # ends in this block or the next (the rest are full blocks)
            k = int(np.searchsorted(neg, -blk, "left"))
            j = int(np.searchsorted(neg, -blk - 2, "left"))
            words = rows[starts[:k] + 64 * blk].view("<u4")   # (k, 16) copy
            # bytes past a lane's end belong to the next lane: keep the
            # words wholly inside it, zero the rest, then rebuild the
            # word the lane ends in with the 1-bit terminator
            tail = words[j:]
            rel = lens[j:k] - 64 * blk
            ends = np.flatnonzero((rel >= 0) & (rel < 64))
            full = rel[ends] >> 2
            shift = ((rel[ends] & 3) * 8).astype(np.uint32)
            part = tail[ends, full]
            tail *= cols < (rel >> 2)[:, None]
            tail[ends, full] = (
                part & ((np.uint32(1) << shift) - np.uint32(1))
            ) | (np.uint32(0x80) << shift)
            last = j + np.flatnonzero(nbs[j:k] == blk + 1)
            bits = lens[last] * 8                 # 64-bit LE bit length
            words[last, 14] = (bits & 0xFFFFFFFF).astype(np.uint32)
            words[last, 15] = (bits >> 32).astype(np.uint32)
            out = _md5_core(np.ascontiguousarray(words.T), [s[:k] for s in st])
            for s, o in zip(st, out):
                s[:k] = o
        for s, o in zip(state, st):
            s[idx] = o
    return tuple(state)


def _as_bytes_lanes(msgs) -> tuple:
    """Normalize to Arrow-style lanes: ``(data uint8, offsets int64[N+1])``.

    - ``str`` lanes (a list, an object array, an Arrow ``string``
      array) hash as their exact UTF-8 bytes, as DuckDB's ``md5()``
      hashes a VARCHAR; ``bytes`` lanes and Arrow ``binary`` arrays
      hash as themselves.  A trailing ``\\x00`` is part of the message.
    - NumPy ``S``/``U`` arrays keep NumPy's meaning: each element is
      its value with the trailing NUL padding stripped (an ``S70``
      array of ``b"a"`` hashes ``b"a"``).
    - Arrow arrays are read in place, offsets and data buffer; null
      lanes are refused (SQL ``md5(NULL)`` is NULL, not a hash)."""
    if isinstance(msgs, pa.ChunkedArray):
        msgs = msgs.combine_chunks()
    if not isinstance(msgs, pa.Array):
        if isinstance(msgs, np.ndarray):
            msgs = msgs.tolist()
        # an empty list has no element type to infer
        msgs = pa.array(msgs, None if len(msgs) else pa.string())
    t = msgs.type
    if pa.types.is_string(t) or pa.types.is_binary(t):
        off_type = np.int32
    elif pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        off_type = np.int64
    else:
        raise TypeError(f"md5 lanes must be str or bytes, got {t}")
    if msgs.null_count:
        raise ValueError("md5 lanes must not be null")
    _, obuf, dbuf = msgs.buffers()
    n = len(msgs)
    off = np.frombuffer(obuf, off_type)[msgs.offset : msgs.offset + n + 1]
    data = np.empty(0, np.uint8) if dbuf is None else np.frombuffer(dbuf, np.uint8)
    return data, off.astype(np.int64)


def md5_u64(msgs, chunk: int = 1 << 16) -> np.ndarray:
    """Vectorized MD5 of messages of any length: a list of ``str`` or
    ``bytes``, an Arrow string/binary array, or a NumPy ``S``/``U``/
    object array (read as ``_as_bytes_lanes`` says).  Returns
    ``uint64[N]`` equal to ``int.from_bytes(hashlib.md5(m).digest()[:8], "big")``
    per message — the exact value DuckDB's
    ``CAST(('0x' || substr(md5(m),1,16)) AS UBIGINT)`` computes, and
    ``stable_hash64`` over the same key."""
    data, off = _as_bytes_lanes(msgs)
    if off.size == 1:
        return np.empty(0, dtype=np.uint64)
    a, b, _, _ = _md5_digest_words(data, off, chunk)
    # digest[:8] = LE bytes of A then B, read big-endian:
    # u64 = byteswap32(A) << 32 | byteswap32(B)
    return (
        (a.byteswap().astype(np.uint64) << np.uint64(32))
        | b.byteswap().astype(np.uint64)
    )


def md5_u128(msgs, chunk: int = 1 << 16) -> tuple:
    """Vectorized full-width MD5: returns ``(hi, lo)`` uint64 arrays —
    the 128-bit digest read big-endian, split so callers can key an
    exchange on two int64 columns.  64-bit gram keys collide at ~2^32
    distinct grams (hours of a 100 TB corpus); span-dedup's production
    path keys on the full 128 bits."""
    data, off = _as_bytes_lanes(msgs)
    if off.size == 1:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    a, b, c, d = _md5_digest_words(data, off, chunk)
    hi = (a.byteswap().astype(np.uint64) << np.uint64(32)) | b.byteswap().astype(
        np.uint64
    )
    lo = (c.byteswap().astype(np.uint64) << np.uint64(32)) | d.byteswap().astype(
        np.uint64
    )
    return hi, lo
