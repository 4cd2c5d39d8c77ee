"""Tracing for the ``--trace 1`` run: spans around the program's public
calls, taken from outside the program.

Public functions are wrapped through their module attributes for the
length of one traced iteration and restored afterwards, so no program
file changes.  ``crawl()`` imports ``save_checkpoint`` at call time,
which is why wrapping the module attribute reaches it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import re
import time
from typing import Dict, List, Tuple

PKG = "entity_context_crawler_ray"

# (module, attribute) of every public call a pass makes; the set-up
# calls (read_docs, write_doc_store, preload_doc_store) are timed where
# they run, as sources.derive_s and sources.preload_s
PUBLIC_CALLS = [
    ("pipelines.crawl", "crawl"),
    ("pipelines.build_matches", "build_matches"),
    ("pipelines.build_matches", "write_store"),
    ("pipelines.build_matches", "mentions_pairs_view"),
    ("pipelines.build_contexts", "build_contexts"),
    ("pipelines.queries", "q_sessions"),
    ("pipelines.queries", "q_revenue_by_nation"),
    ("pipelines.queries", "q_span_dedup"),
]


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


class Tracer:
    """Spans kept in memory: (name, start, end).  ``counters`` holds the
    checkpoint counts taken where the write happens."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []
        self.counters: Dict[str, float] = {}

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n, _, _ in self.spans if n == name)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, t0, time.perf_counter()))

        return traced

    def _wrap_checkpoint(self, fn):
        traced = self._wrap("state.checkpoint.save_checkpoint", fn)

        @functools.wraps(fn)
        def counted(ckpt_dir, round_id, *args, **kwargs):
            traced(ckpt_dir, round_id, *args, **kwargs)
            written = _dir_bytes(os.path.join(ckpt_dir, f"round={round_id}"))
            self.counters["state.checkpoint.bytes"] = (
                self.counters.get("state.checkpoint.bytes", 0) + written
            )

        return counted

    @contextlib.contextmanager
    def patched(self):
        """Wrap every public call (and ``save_checkpoint``) in place."""
        saved = []
        targets = PUBLIC_CALLS + [("state.checkpoint", "save_checkpoint")]
        for mod_name, attr in targets:
            mod = importlib.import_module(f"{PKG}.{mod_name}")
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            if attr == "save_checkpoint":
                setattr(mod, attr, self._wrap_checkpoint(fn))
            else:
                setattr(mod, attr, self._wrap(f"call.{attr}", fn))
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


_OP_LINE = re.compile(r"^\s*(?:Sub)?[Oo]perator \d+ (.+?): (.*)$")
_WALL = re.compile(r"in ([0-9.]+)s")
_ROWS_OUT = re.compile(r"Output num rows per block: .* ([0-9]+) total")


def stats_operators(stats: str) -> List[Dict]:
    """Top-level operators of a ``Dataset.stats()`` text:
    [{"name", "wall_s", "rows_out"}] in plan order."""
    ops: List[Dict] = []
    for line in stats.splitlines():
        if line.startswith("Operator "):
            m = _OP_LINE.match(line)
            if not m:
                continue
            wall = _WALL.search(m.group(2))
            ops.append(
                {
                    "name": m.group(1),
                    "wall_s": float(wall.group(1)) if wall else 0.0,
                    "rows_out": 0,
                }
            )
        elif ops and not line.startswith("\t") and "Output num rows per block" in line:
            rows = _ROWS_OUT.search(line)
            if rows and not ops[-1]["rows_out"]:
                ops[-1]["rows_out"] = int(rows.group(1))
    return ops


EXCHANGE_OPS = ("Sort", "Aggregate", "Repartition", "HashShuffle", "Join", "Shuffle", "Zip")


def is_exchange(op_name: str) -> bool:
    return any(k in op_name for k in EXCHANGE_OPS)
