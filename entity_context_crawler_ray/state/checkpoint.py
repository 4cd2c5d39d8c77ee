"""Per-round crawl checkpoints: a manifest (frontier dir reference,
keying, shard count, cumulative fetch-log rows) + the politeness
bucket state, manifest-last for atomic visibility.

Neither the frontier nor the seen filter is copied here.  The frontier
is already durable parquet under the crawl output (written through
state/storage.py, the parquet/Lance swap point), so the manifest
records only its path and candidate-row count.  The seen filter holds
exactly the URLs of the fetch log (``out_dir/fetch_log/round_{r}``),
so resume rebuilds it from the log (``CrawlStateShard.restore``) and
checks the rebuilt row count against the manifest's ``fetched``.

The politeness buckets stay a snapshot: in wall-clock mode
(``refill_per_sec``) a bucket depends on ``last_time``, which no log
holds.

Resume contract (tested in tests/test_crawl.py): kill after round r,
``crawl(..., resume=True)`` restores round r's frontier + actor state
and produces the same final state as an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

# How crawl state is keyed: a url's seen bit and its host's politeness
# bucket live in the state shard owning the host by md5
# (politeness_shard_of), and page files are named by md5.  A checkpoint
# keyed any other way (an earlier hash, another shard count) would
# resume without error, then split hosts across shards and rename
# re-run page files, so resume refuses it.
KEYING = "host-md5"


def _round_dir(ckpt_dir: str, round_id: int) -> str:
    return os.path.join(ckpt_dir, f"round={round_id}")


def save_checkpoint(
    ckpt_dir: str,
    round_id: int,
    politeness_snaps: List[Dict],
    *,
    frontier_dir: str,
    frontier_rows: int,
    fetched: int,
    out_dir: Optional[str] = None,
) -> None:
    """Record round ``round_id``: ``frontier_dir`` is the bucketed
    frontier the next round schedules from (a REFERENCE — re-writing
    the frontier here would be a second full copy per round), and
    ``fetched`` the fetch log's row count over rounds 0..round_id.

    When ``out_dir`` is given, ``frontier_dir`` is stored RELATIVE to
    it, so a checkpoint survives the output tree being moved or
    mounted at a different path on resume."""
    if out_dir is not None:
        frontier_dir = os.path.relpath(frontier_dir, out_dir)
    d = _round_dir(ckpt_dir, round_id)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "politeness.json"), "w") as fh:
        json.dump(politeness_snaps, fh)
    # manifest written LAST, via temp+rename so a kill mid-write can
    # never leave a truncated manifest that latest_round() would count
    # as a complete round (rename is atomic on POSIX)
    tmp = os.path.join(d, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(
            {
                "round": round_id,
                "frontier_rows": frontier_rows,
                "frontier_dir": frontier_dir,
                "keying": KEYING,
                "num_shards": len(politeness_snaps),
                "fetched": fetched,
            },
            fh,
        )
        fh.flush()
        os.fsync(fh.fileno())
    os.rename(tmp, os.path.join(d, "manifest.json"))


def latest_round(ckpt_dir: str) -> Optional[int]:
    if not os.path.isdir(ckpt_dir):
        return None
    best = None
    for name in os.listdir(ckpt_dir):
        if name.startswith("round="):
            r = int(name.split("=", 1)[1])
            path = os.path.join(ckpt_dir, name, "manifest.json")
            if not os.path.isfile(path):
                continue
            try:  # a manifest that doesn't parse is not a complete round
                with open(path) as fh:
                    json.load(fh)
            except (json.JSONDecodeError, OSError):
                continue
            best = r if best is None else max(best, r)
    return best


def load_checkpoint(
    ckpt_dir: str,
    num_shards: int,
    round_id: Optional[int] = None,
    out_dir: Optional[str] = None,
) -> Dict:
    """Load a checkpoint for a crawl of ``num_shards`` state shards.  A
    checkpoint keyed otherwise (``KEYING``, shard count) is refused.  A
    relative ``frontier_dir`` in the manifest is resolved against
    ``out_dir``; a referenced frontier dir that no longer exists (e.g.
    an earlier round whose frontier was consumed and deleted by the
    crawl loop) fails loudly here instead of resuming into an empty
    frontier."""
    if round_id is None:
        round_id = latest_round(ckpt_dir)
    assert round_id is not None, f"no complete checkpoint under {ckpt_dir}"
    d = _round_dir(ckpt_dir, round_id)
    with open(os.path.join(d, "manifest.json")) as fh:
        manifest = json.load(fh)
    keyed = (manifest.get("keying"), manifest.get("num_shards"))
    if keyed != (KEYING, num_shards):
        raise ValueError(
            f"checkpoint round={round_id} under {ckpt_dir} keys crawl state "
            f"by {keyed}, this crawl by {(KEYING, num_shards)}; it cannot "
            "be resumed: re-crawl without --resume"
        )
    fdir = manifest["frontier_dir"]
    if not os.path.isabs(fdir):
        if out_dir is None:
            # resolving against the process CWD would silently pick
            # a wrong path for relocated outputs; demand the anchor
            raise ValueError(
                f"checkpoint round={round_id} has a relative "
                f"frontier_dir {fdir!r}; pass out_dir= so it can be "
                f"resolved against the crawl output root"
            )
        fdir = os.path.join(out_dir, fdir)
    # a COMPLETED crawl's final checkpoint records frontier_rows=0
    # with a next-round dir that was never created (nothing was
    # deferred) — resume is then a no-op, not an error
    if not os.path.isdir(fdir) and manifest["frontier_rows"]:
        raise FileNotFoundError(
            f"checkpoint round={round_id} references frontier dir "
            f"{fdir!r} which does not exist — the crawl loop deletes "
            f"consumed frontier dirs, so only the LATEST checkpoint's "
            f"frontier is resumable; resume from latest_round() or "
            f"re-crawl"
        )
    with open(os.path.join(d, "politeness.json")) as fh:
        politeness = json.load(fh)
    return {
        "round": round_id,
        "frontier_dir": fdir,
        "frontier_rows": manifest["frontier_rows"],
        "fetched": manifest["fetched"],
        "politeness": politeness,
    }
