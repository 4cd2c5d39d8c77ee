"""Bloom URL-seen filter shard (north_rule; no reference
counterpart — the reference's implicit seen-set is the pages PK,
dao/matches_db.py:42).

A ``BloomShard`` is a packed bitarray bloom filter of the URLs one
crawl state shard has seen: the shard that owns a URL's host
(state/shard.py), so scheduling a host's frontier bucket probes its
own filter with no round trip.  Because the filter is keyed by host, a
host-skewed crawl loads one shard with most of its URLs, so every
state shard's filter is sized for the crawl's whole bit budget
(``num_bloom_shards × bloom_bits``): no shard's FPR exceeds what one
filter of that budget would have at the crawl's total load, whatever
the skew, and filter memory is the budget times the shard count.

Sizing: with m bits, k hashes and n inserted keys the FPR is
``(1 - e^(-kn/m))^k`` (``estimated_fpr``); m = 2^22 bits, k = 7 hold
~180k URLs at < 1e-4 FPR (~1.5e-3 at 300k).  At the 10^10-URL design
point, size the per-shard budget for the most URLs one shard can own.

Idempotence: ``probe`` is read-only; ``set_seen`` is a pure
bit-OR, so re-applying a retried batch is a no-op — task retries
cannot double-mark or lose URLs (SURVEY.md §7.5(4)).

Durability: the filter is never checkpointed.  Its bits are a
function of the URLs inserted, which are exactly the crawl's fetch log
(``CrawlStateShard.commit`` marks the fetch set seen), so a resumed
crawl rebuilds each shard's filter from the log
(``CrawlStateShard.restore``), bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Sequence

import numpy as np


DEFAULT_NUM_BITS = 1 << 22
DEFAULT_NUM_HASHES = 7


def url_hashes(urls: Sequence[str]) -> np.ndarray:
    """(n, 2) uint64 base hashes (h1, h2) of each url: the two halves of
    its md5 read big-endian (the bits ``md5_u128`` gives), h2 made odd.
    One ``hashlib`` call per url: at a round's few dozen urls, and on
    urls longer than one md5 block, it beats the vectorized kernel
    (one Xeon core, 20- and 90-byte urls; 53 urls: 0.05-0.07 ms against
    0.7-1.0 ms; 100k urls: 74-82 ms against 77-114 ms).  Hashing is most of a probe's cost, so callers away
    from the filter (presplit slice tasks) hash their own urls and send
    the hashes (``probe_hashes``)."""
    if not len(urls):
        return np.empty((0, 2), dtype=np.uint64)
    digests = b"".join(hashlib.md5(u.encode("utf-8")).digest() for u in urls)
    hashes = np.frombuffer(digests, dtype=">u8").reshape(-1, 2).astype(np.uint64)
    hashes[:, 1] |= np.uint64(1)
    return hashes


class BloomShard:
    def __init__(self, num_bits: int = DEFAULT_NUM_BITS, num_hashes: int = DEFAULT_NUM_HASHES):
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.bits = np.zeros(num_bits // 8, dtype=np.uint8)
        self.count = 0  # approximate insert count (for FPR monitoring)

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        """(n, k) bit positions via double hashing:
        position_i = (h1 + i*h2) mod m, one vectorized numpy expression
        over ``url_hashes`` output."""
        i = np.arange(self.num_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return (hashes[:, :1] + i * hashes[:, 1:]) % np.uint64(self.num_bits)

    def probe(self, urls: Sequence[str]) -> List[bool]:
        """True = possibly seen; False = definitely new. Read-only."""
        return self.probe_hashes(url_hashes(urls))

    def probe_hashes(self, hashes: np.ndarray) -> List[bool]:
        """``probe`` over precomputed ``url_hashes``."""
        if not len(hashes):
            return []
        pos = self._positions(hashes)
        byte_idx = (pos >> np.uint64(3)).astype(np.int64)
        masks = (np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
        hit = (self.bits[byte_idx] & masks) != 0
        return hit.all(axis=1).tolist()

    def set_seen(self, urls: Sequence[str]) -> int:
        """Mark URLs seen (idempotent bit-OR). Returns shard count."""
        if not urls:
            return self.count
        pos = self._positions(url_hashes(urls))
        byte_idx = (pos >> np.uint64(3)).astype(np.int64)
        masks = (np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
        np.bitwise_or.at(self.bits, byte_idx.ravel(), masks.ravel())
        self.count += len(urls)
        return self.count

    def estimated_fpr(self) -> float:
        """Designed false-positive rate at the current insert count."""
        k = self.num_hashes
        return (1.0 - math.exp(-k * self.count / self.num_bits)) ** k

