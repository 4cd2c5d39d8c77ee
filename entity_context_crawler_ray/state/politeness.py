"""Per-host politeness token buckets + robots budgets (north_rule;
no reference counterpart — the reference reads a local dump and needs
no politeness, SURVEY.md §2.3 ST6).

One ``HostPolicy`` per host: a token bucket (``capacity`` tokens,
``refill`` tokens added per crawl round — rounds stand in for wall
time in the dump-driven sandbox) plus a robots model (deny-prefixes
and an optional per-host ``crawl_budget`` = lifetime fetch cap).

A ``PolitenessShard`` holds the buckets of every host with
``politeness_shard_of(host) == s``; the crawl keeps it inside state
shard ``s`` (state/shard.py), beside that shard's seen filter.  The
pure ``HostPolicy`` class is reused by the crawl-parity simulator.

Determinism: ``admit`` is called exactly once per (round, host),
because the state shard groups its bucket's candidates by host before
admission.  Every ``admit`` and ``refund`` runs inside a state shard
actor method, and Ray re-sends no actor method call (actors start with
``max_restarts=0`` and ``max_task_retries=0``), so no call is applied
twice and the shard keeps no replay cache.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..functions.hashing import stable_hash64


class HostPolicy:
    """Token bucket with two refill modes:

    - round mode (default): ``refill`` tokens per crawl round — rounds
      stand in for wall time in the dump-driven sandbox.
    - wall-clock mode (``refill_per_sec`` set): tokens accrue with
      elapsed ``clock()`` seconds — the live-fetch deployment mode.
      ``clock`` defaults to ``time.time`` (comparable across process
      restarts, so snapshots resume correctly); tests inject a fake.
    """

    def __init__(
        self,
        capacity: int,
        refill: int,
        deny_prefixes: Tuple[str, ...] = (),
        crawl_budget: int | None = None,
        refill_per_sec: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.capacity = capacity
        self.refill = refill
        self.refill_per_sec = refill_per_sec
        self.clock = clock or time.time
        self.deny_prefixes = tuple(deny_prefixes)
        self.crawl_budget = crawl_budget
        self.tokens: float = capacity
        self.fetched_total = 0
        self.last_round = -1
        self.last_time: Optional[float] = None

    def _refill_now(self, round_id: int) -> None:
        if self.refill_per_sec is not None:
            now = self.clock()
            if self.last_time is not None:
                elapsed = max(0.0, now - self.last_time)
                self.tokens = min(
                    self.capacity, self.tokens + elapsed * self.refill_per_sec
                )
            self.last_time = now
            self.last_round = max(self.last_round, round_id)
        elif round_id > self.last_round:
            rounds = round_id - self.last_round if self.last_round >= 0 else 0
            self.tokens = min(self.capacity, self.tokens + rounds * self.refill)
            self.last_round = round_id

    def admit(self, round_id: int, urls_by_priority: Sequence[str]) -> Tuple[List[str], List[str], List[str]]:
        """-> (admitted, deferred, robots_denied). urls must arrive
        sorted by descending priority (tie-broken by url)."""
        self._refill_now(round_id)
        allowed, denied = [], []
        for url in urls_by_priority:
            if any(url.startswith(p) for p in self.deny_prefixes):
                denied.append(url)
            else:
                allowed.append(url)
        if self.crawl_budget is not None:
            room = max(0, self.crawl_budget - self.fetched_total)
            denied.extend(allowed[room:])
            allowed = allowed[:room]
        take = min(int(self.tokens), len(allowed))
        admitted, deferred = allowed[:take], allowed[take:]
        self.tokens -= take
        self.fetched_total += take
        return admitted, deferred, denied

    def refund(self, n: int) -> None:
        """Return ``n`` admission charges: URLs admitted here but then
        cut by the crawl loop's GLOBAL round budget are deferred, not
        fetched — without a refund their tokens and (worse) their
        lifetime ``crawl_budget`` charge would be consumed by fetches
        that never happened, and re-charged on re-admission next round,
        eventually denying the host's remaining budget permanently."""
        if n <= 0:
            return
        self.tokens = min(self.capacity, self.tokens + n)
        self.fetched_total = max(0, self.fetched_total - n)


class PolitenessShard:
    """Holds HostPolicy state for every host hashing to this shard."""

    def __init__(self, config: Dict, clock: Optional[Callable[[], float]] = None):
        # config: {"capacity": int, "refill": int,
        #          "refill_per_sec": float | None (wall-clock mode),
        #          "deny": {host: [prefix,...]}, "budget": {host: int}}
        self.config = config
        self.clock = clock
        self.hosts: Dict[str, HostPolicy] = {}

    def _host(self, host: str) -> HostPolicy:
        if host not in self.hosts:
            self.hosts[host] = HostPolicy(
                capacity=self.config.get("capacity", 1 << 30),
                refill=self.config.get("refill", 1 << 30),
                deny_prefixes=tuple(self.config.get("deny", {}).get(host, ())),
                crawl_budget=self.config.get("budget", {}).get(host),
                refill_per_sec=self.config.get("refill_per_sec"),
                clock=self.clock,
            )
        return self.hosts[host]

    def admit(self, round_id: int, host: str, urls_by_priority: List[str]):
        """``HostPolicy.admit`` on ``host``'s bucket."""
        return self._host(host).admit(round_id, urls_by_priority)

    def admit_many(
        self, round_id: int, hosts: List[str], url_lists: List[List[str]]
    ) -> List[List[str]]:
        """Admit every host of one frontier bucket at once, returning
        per-host status lists aligned with the input url order ('admit'
        | 'defer' | 'deny').  Each url list must arrive sorted by
        (priority desc, url asc)."""
        out: List[List[str]] = []
        for host, urls in zip(hosts, url_lists):
            adm, dfr, den = self.admit(round_id, host, urls)
            status: Dict[str, str] = {}
            for u in adm:
                status[u] = "admit"
            for u in dfr:
                status[u] = "defer"
            for u in den:
                status[u] = "deny"
            out.append([status[u] for u in urls])
        return out

    def refund_many(self, host_counts: Dict[str, int]) -> None:
        """Return ``n`` over-round-budget admission charges to each
        host (see HostPolicy.refund)."""
        for host, n in host_counts.items():
            self._host(host).refund(n)

    def snapshot(self) -> Dict:
        return {
            "config": self.config,
            "hosts": {
                h: {
                    "tokens": p.tokens,
                    "fetched_total": p.fetched_total,
                    "last_round": p.last_round,
                    "last_time": p.last_time,
                }
                for h, p in self.hosts.items()
            },
        }

    def restore(self, snap: Dict) -> None:
        self.config = snap["config"]
        self.hosts = {}
        for h, st in snap["hosts"].items():
            pol = self._host(h)
            pol.tokens = st["tokens"]
            pol.fetched_total = st["fetched_total"]
            pol.last_round = st["last_round"]
            pol.last_time = st.get("last_time")


def politeness_shard_of(host: str, num_shards: int) -> int:
    return stable_hash64("politeness-shard", host) % num_shards
