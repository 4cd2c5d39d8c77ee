"""Per-worker-process cache for state derived from ``ray.put``
broadcasts.

Ray reuses task worker processes across tasks and across Dataset
executions.  A stage that needs heavy read-only state (an entity index,
a doc-store reader, a spaCy model) therefore runs as a plain task whose
callable carries only the broadcast handle, and loads the state here on
its first call in a process — once per worker, not once per task, and
without an actor pool that must start (and hold CPUs) per execution.

Keys name the broadcast by identity (``ref_id``), so a new broadcast
(another catalog, another store) never reuses stale state.  The cache
keeps the few most recently used entries: one pipeline call adds one
key per stage, and old calls' state is dropped instead of accumulating
in long-lived workers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")

MAX_ENTRIES = 4

_CACHE: "OrderedDict[Hashable, object]" = OrderedDict()


def ref_id(ref) -> Hashable:
    """Identity of a broadcast handle: the object id of a
    ``ray.ObjectRef``, else the Python identity of the value."""
    return ref.hex() if hasattr(ref, "hex") else id(ref)


def cached(key: Hashable, load: Callable[[], T]) -> T:
    """Return this process's value for ``key``, calling ``load()`` on
    the first request."""
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]
    value = load()
    _CACHE[key] = value
    while len(_CACHE) > MAX_ENTRIES:
        _CACHE.popitem(last=False)
    return value
