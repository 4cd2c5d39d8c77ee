"""The one keyed exchange of the operator library.

``by_key(ds, keys, kernel)`` gathers every row of a key into one kernel
call.  Ray's sort range-partitions on ``keys``, so all rows with equal
keys land in the same output block, and ``map_batches(batch_size=None)``
hands each block to ``kernel`` whole.  This is the exchange Ray's own
``GroupedData.map_groups`` runs, without its per-group Python call: the
kernel receives one key-sorted Arrow table holding any number of
complete groups and does its per-group work with the vectorized segment
helpers below.  The plan stays lazy and runs as tasks (no aggregator
actors).

The exchange, not its callers, picks the partition count: one per
cluster CPU.  Ray's sort makes one partition per input block and moves
blocks x partitions pieces, so a plan whose block count has grown
(a union of two reads, the output of an earlier sort) pays for it
quadratically: on 4 CPUs a 3,000-row sort took 0.84 s from 48 blocks
and 0.14 s after coalescing to 4.  ``by_key`` therefore coalesces to
the partition count first (``repartition`` without a shuffle: adjacent
blocks merge or split, no row changes block owner by key).

``join`` is the one shuffle equi-join, built on ``by_key``.

Partitioning assumption, as for any per-key operator: one key's rows
fit a worker.  Salt hot keys upstream if not.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import ray
import ray.data

Kernel = Callable[[pa.Table], pa.Table]


def by_key(
    ds: ray.data.Dataset, keys: Union[str, Sequence[str]], kernel: Kernel
) -> ray.data.Dataset:
    """Run ``kernel`` once per partition of ``ds`` sorted on ``keys``.

    Each call receives whole groups, sorted by ``keys`` (the order
    within a group is arbitrary).  Empty partitions are skipped.  A
    kernel with nothing to emit should return a zero-row table of its
    output schema, so every output block carries that schema."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def run(t: pa.Table):
        if t.num_rows:
            yield kernel(t)

    run.__name__ = getattr(kernel, "__name__", "by_key")
    return (
        ds.repartition(_num_partitions())
        .sort(keys)
        .map_batches(run, batch_size=None, batch_format="pyarrow")
    )


def _num_partitions() -> int:
    """Partitions of every keyed exchange: one per cluster CPU."""
    if not ray.is_initialized():
        ray.init()
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


# --- segment helpers: a segment is one run of equal keys -----------------


def run_starts(*cols) -> np.ndarray:
    """Start index of every run of equal values across one or more
    equally long key columns (numpy arrays or Arrow columns).  On a
    key-sorted table these are the group starts."""
    cols = [_np(c) for c in cols]
    n = len(cols[0])
    brk = np.zeros(n, dtype=bool)
    if n:
        brk[0] = True
        for c in cols:
            brk[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(brk)


def seg_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Segment number of each of ``n`` rows."""
    return np.repeat(np.arange(len(starts)), np.diff(np.append(starts, n)))


def seg_reduce(ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced over each segment (``np.add``, ``np.maximum``,
    ...); one value per segment."""
    if not len(starts):
        return values[:0]
    return ufunc.reduceat(values, starts)


def seg_cumsum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Inclusive running sum that restarts at every segment start."""
    c = np.cumsum(values)
    if not len(c):
        return c
    lens = np.diff(np.append(starts, len(values)))
    return c - np.repeat(c[starts] - values[starts], lens)


def seg_searchsorted(
    values: np.ndarray,
    seg: np.ndarray,
    probes: np.ndarray,
    probe_seg: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """``np.searchsorted`` of every probe within its own segment, in
    one call.  ``seg`` is non-decreasing and ``values`` is sorted within
    each segment.  Returns global positions into ``values``: a probe
    past the end of its segment gets the segment's end, one before its
    start gets the start.  Exact for any orderable dtype: values and
    probes are dense-ranked together, then offset by segment."""
    _, inv = np.unique(np.concatenate([values, probes]), return_inverse=True)
    width = np.int64(inv.max() + 2) if len(inv) else np.int64(1)
    inv = inv.astype(np.int64)
    v = seg.astype(np.int64) * width + inv[: len(values)]
    p = probe_seg.astype(np.int64) * width + inv[len(values):]
    return np.searchsorted(v, p, side=side)


def _np(col) -> np.ndarray:
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        return col.to_numpy(zero_copy_only=False)
    return np.asarray(col)


# --- the join --------------------------------------------------------------

_ARROW_JOIN = {"inner": "inner", "left": "left outer", "anti": "left anti"}
_L, _R = "__l.", "__r."


def join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: Optional[str] = None,
    how: str = "inner",
    suffix: str = "_r",
) -> ray.data.Dataset:
    """Equi-join ``left.on == right.right_on`` through one ``by_key``.

    ``how``: 'inner', 'left' (unmatched left rows get nulls on the
    right) or 'anti' (left rows without a match; the right side ships
    its key only).  Output columns: every left column, then every right
    column except ``right_on``; a right column whose name is taken on
    the left gets ``suffix``.  Null keys never match.

    Both sides are tagged into one schema (``__k`` key, ``__s`` side,
    then each side's columns under a side prefix, null on the other
    side's rows), so the join reads both sides' schemas when it is
    built: free for a read or a materialized side, one block's work for
    a side that ends in a map, the whole upstream for a side that ends
    in an aggregate or another exchange.  Per partition,
    Arrow's hash join runs over the key and row-index columns only and
    the payload is gathered with ``take``: Arrow's join rejects nested
    non-key columns (e.g. ``embedding`` lists), so payload never passes
    through it."""
    if how not in _ARROW_JOIN:
        raise ValueError(f"how must be 'inner', 'left' or 'anti', got {how!r}")
    right_on = right_on or on
    l_cols, r_all = _columns(left), _columns(right)
    key_type = _key_type(dict(l_cols).get(on), dict(r_all).get(right_on))
    r_cols = [] if how == "anti" else [c for c in r_all if c[0] != right_on]
    schema = pa.schema(
        [("__k", key_type), ("__s", pa.int8())]
        + [(_L + n, t) for n, t in l_cols]
        + [(_R + n, t) for n, t in r_cols]
    )
    tagged = left.map_batches(
        _tagger(schema, on, _L), batch_format="pyarrow"
    ).union(right.map_batches(_tagger(schema, right_on, _R), batch_format="pyarrow"))
    names = [n for n, _ in l_cols]
    out_names = names + [n + suffix if n in names else n for n, _ in r_cols]

    def joined(t: pa.Table) -> pa.Table:
        return _join_part(t, how, out_names)

    return by_key(tagged, "__k", joined)


def _columns(ds: ray.data.Dataset):
    sch = ds.schema()
    if sch is None:  # no block carries a schema: no rows either
        return []
    return [(n, _arrow_type(t)) for n, t in zip(sch.names, sch.types)]


def _key_type(lt: Optional[pa.DataType], rt: Optional[pa.DataType]) -> pa.DataType:
    if all(t is None or pa.types.is_integer(t) for t in (lt, rt)):
        return pa.int64()  # int32 and int64 keys of one value meet
    return lt if lt is not None else rt


def _tagger(schema: pa.Schema, key: str, prefix: str):
    side = 0 if prefix == _L else 1

    def tag(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if not n:
            return schema.empty_table()
        cols = [t[key].cast(schema.field(0).type), pa.array(np.full(n, side, np.int8))]
        for f in list(schema)[2:]:
            own = f.name.startswith(prefix)
            cols.append(t[f.name[len(prefix):]].cast(f.type) if own else pa.nulls(n, f.type))
        return pa.Table.from_arrays(cols, schema=schema)

    return tag


def _join_part(t: pa.Table, how: str, out_names) -> pa.Table:
    side = t["__s"].to_numpy()
    li = np.flatnonzero(side == 0)
    ri = np.flatnonzero(side == 1)
    keys = t["__k"]
    m = pa.table({"k": keys.take(li), "i": li}).join(
        pa.table({"k": keys.take(ri), "j": ri}),
        "k",
        join_type=_ARROW_JOIN[how],
        use_threads=False,
    )
    order = ["i"] if how == "anti" else ["i", "j"]
    m = m.sort_by([(c, "ascending") for c in order])
    payload = t.column_names[2:]
    cols = [
        t[c].take(m["i"] if c.startswith(_L) else m["j"])
        for c in payload
        if how != "anti" or c.startswith(_L)
    ]
    return pa.Table.from_arrays(cols, names=out_names)


def _arrow_type(typ) -> pa.DataType:
    # pandas-backed datasets report numpy dtypes / ``object``
    if isinstance(typ, pa.DataType):
        return typ
    try:
        return pa.from_numpy_dtype(typ)
    except (pa.ArrowNotImplementedError, TypeError):
        return pa.string()
