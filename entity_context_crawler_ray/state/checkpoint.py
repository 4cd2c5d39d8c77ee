"""Per-round crawl checkpoints: a reference to the bucketed frontier
dir + bloom shard bits + politeness bucket state, manifest-last for
atomic visibility.  The frontier itself is never copied here: it is
already durable parquet under the crawl output (written through
state/storage.py, the parquet/Lance swap point), so the manifest
records only its path and candidate-row count.

Resume contract (tested in tests/test_crawl.py): kill after round r,
``crawl(..., resume=True)`` restores round r's frontier + actor state
and produces the same final state as an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Dict, List, Optional


def _round_dir(ckpt_dir: str, round_id: int) -> str:
    return os.path.join(ckpt_dir, f"round={round_id}")


def save_checkpoint(
    ckpt_dir: str,
    round_id: int,
    bloom_snaps: List[Dict],
    politeness_snaps: List[Dict],
    *,
    frontier_dir: str,
    frontier_rows: int,
    out_dir: Optional[str] = None,
) -> None:
    """Record round ``round_id``: ``frontier_dir`` is the bucketed
    frontier the next round schedules from (a REFERENCE — re-writing
    the frontier here would be a second full copy per round).

    When ``out_dir`` is given, ``frontier_dir`` is stored RELATIVE to
    it, so a checkpoint survives the output tree being moved or
    mounted at a different path on resume."""
    if out_dir is not None:
        frontier_dir = os.path.relpath(frontier_dir, out_dir)
    d = _round_dir(ckpt_dir, round_id)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "bloom.pkl"), "wb") as fh:
        pickle.dump(bloom_snaps, fh)
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
    round_id: Optional[int] = None,
    out_dir: Optional[str] = None,
) -> Dict:
    """Load a checkpoint.  A relative ``frontier_dir`` in the manifest
    is resolved against ``out_dir``; a referenced frontier dir that no
    longer exists (e.g. an earlier round whose frontier was consumed
    and deleted by the crawl loop) fails loudly here instead of
    resuming into an empty frontier."""
    if round_id is None:
        round_id = latest_round(ckpt_dir)
    assert round_id is not None, f"no complete checkpoint under {ckpt_dir}"
    d = _round_dir(ckpt_dir, round_id)
    with open(os.path.join(d, "manifest.json")) as fh:
        manifest = json.load(fh)
    fdir = manifest.get("frontier_dir")
    if fdir is None:
        raise ValueError(
            f"checkpoint round={round_id} under {ckpt_dir} has no "
            f"frontier_dir; it was not written by this crawl and cannot "
            f"be resumed"
        )
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
    if not os.path.isdir(fdir) and manifest.get("frontier_rows"):
        raise FileNotFoundError(
            f"checkpoint round={round_id} references frontier dir "
            f"{fdir!r} which does not exist — the crawl loop deletes "
            f"consumed frontier dirs, so only the LATEST checkpoint's "
            f"frontier is resumable; resume from latest_round() or "
            f"re-crawl"
        )
    with open(os.path.join(d, "bloom.pkl"), "rb") as fh:
        bloom = pickle.load(fh)
    with open(os.path.join(d, "politeness.json")) as fh:
        politeness = json.load(fh)
    return {
        "round": round_id,
        "frontier_dir": fdir,
        "frontier_rows": manifest.get("frontier_rows"),
        "bloom": bloom,
        "politeness": politeness,
    }
