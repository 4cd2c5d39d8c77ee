"""Relational operator library: broadcast joins, as-of join,
dedup-first, top-k, salted sums, rollup/cube and set comparison.

These are the generic forms of the reference's joins/lookups
(SURVEY.md §2.4): J1/J3/J4 are broadcast probes (below); J2, the
shuffle join, is ``exchange.join``.  The per-key operators here run on
``exchange.by_key``, one vectorized kernel per key-sorted partition.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .exchange import by_key, run_starts, seg_ids, seg_searchsorted


def broadcast_inner_join(
    ds: ray.data.Dataset,
    small: pa.Table,
    on: str,
    right_on: Optional[str] = None,
) -> ray.data.Dataset:
    """Inner join with a broadcast small side (ray.put once, pandas
    merge per batch) — no shuffle.  The reference's per-page
    links⋈entities probe (cmd/build_matches_db.py:252) generalized."""
    right_on = right_on or on
    ref = ray.put(small.to_pandas())

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        rhs = ray.get(ref)
        return batch.merge(rhs, left_on=on, right_on=right_on, how="inner")

    return ds.map_batches(join, batch_format="pandas")


def broadcast_semi_join(
    ds: ray.data.Dataset, keys, on: str
) -> ray.data.Dataset:
    """Keep rows whose ``on`` value is in the broadcast key set (one
    Arrow array, probed with ``is_in``).  Null keys never match."""
    ref = ray.put(pa.array(list(keys)))

    def filt(batch: pa.Table) -> pa.Table:
        value_set = ray.get(ref).cast(batch[on].type)
        mask = pc.is_in(batch[on], value_set=value_set, skip_nulls=True)
        return batch.filter(pc.fill_null(mask, False))

    return ds.map_batches(filt, batch_format="pyarrow")


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    right_on: str,
    left_time: str,
    right_time: str,
    right_value: str,
) -> ray.data.Dataset:
    """As-of join (backward): for each left row, the right row of the
    same key with the greatest ``right_time`` <= ``left_time``; ties
    on ``right_time`` resolve to the max ``right_value``
    (deterministic).  Left rows with no earlier right row drop
    (inner semantics).

    Ray-Data shape: a tagged union of both sides goes through ONE
    ``by_key`` on the key; each partition sorts its right rows by
    (key, time, value) once and answers every left row with one
    segmented searchsorted — the distributed sort-merge as-of, not a
    cross join."""
    l_sch, r_sch = left.schema(), right.schema()
    extra = [c for c in l_sch.names if c not in (on, left_time)]
    l_types = dict(zip(l_sch.names, l_sch.types))
    r_types = dict(zip(r_sch.names, r_sch.types))
    key_type = pa.int64() if pa.types.is_integer(l_types[on]) else l_types[on]
    schema = pa.schema(
        [("__key", key_type), ("__t", l_types[left_time]), ("__s", pa.int8()),
         ("__rv", r_types[right_value])]
        + [(c, l_types[c]) for c in extra]
    )

    def tagger(side: int, key: str, time: str):
        def tag(t: pa.Table) -> pa.Table:
            n = t.num_rows
            if not n:
                return schema.empty_table()
            cols = [t[key].cast(key_type), t[time].cast(schema.field("__t").type),
                    pa.array(np.full(n, side, np.int8))]
            cols.append(t[right_value] if side else pa.nulls(n, schema.field("__rv").type))
            cols += [pa.nulls(n, schema.field(c).type) if side else t[c] for c in extra]
            return pa.Table.from_arrays(cols, schema=schema)

        return tag

    tagged = left.map_batches(tagger(0, on, left_time), batch_format="pyarrow").union(
        right.select_columns([right_on, right_time, right_value]).map_batches(
            tagger(1, right_on, right_time), batch_format="pyarrow"
        )
    )

    def merge(t: pa.Table) -> pa.Table:
        side = t["__s"].to_numpy()
        seg = seg_ids(run_starts(t["__key"]), t.num_rows)
        tt = t["__t"].to_numpy()
        li, ri = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
        rv = t["__rv"].take(ri).to_numpy(zero_copy_only=False)
        ri = ri[np.lexsort((rv, tt[ri], seg[ri]))]
        # last right row with time <= the left time; being the last of
        # its time run, it carries that run's max value
        pos = seg_searchsorted(tt[ri], seg[ri], tt[li], seg[li], side="right") - 1
        ok = pos >= np.searchsorted(seg[ri], seg[li], side="left")
        li, hit = li[ok], ri[pos[ok]]
        return pa.table(
            {
                on: t["__key"].take(li),
                left_time: t["__t"].take(li),
                **{c: t[c].take(li) for c in extra},
                "asof_time": t["__t"].take(hit),
                "asof_value": t["__rv"].take(hit),
            }
        )

    return by_key(tagged, "__key", merge)


def dedup_first(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    order_by: Sequence[str],
    ascending: bool = True,
) -> ray.data.Dataset:
    """One row per key group: the first by ``order_by`` — the
    INSERT-OR-IGNORE pattern (reference dao/matches_db.py:51-62)
    made deterministic."""
    keys = list(keys)
    order = "ascending" if ascending else "descending"

    def first(t: pa.Table) -> pa.Table:
        t = t.take(
            pc.sort_indices(
                t, sort_keys=[(k, "ascending") for k in keys]
                + [(c, order) for c in order_by]
            )
        )
        return t.take(run_starts(*[t[k] for k in keys]))

    return by_key(ds, keys, first)


def top_k(
    ds: ray.data.Dataset,
    by: Sequence[str],
    k: int,
    descending: Sequence[bool],
) -> ray.data.Dataset:
    """Global top-k via distributed sort + limit."""
    return ds.sort(list(by), descending=list(descending)).limit(k)


def grouped_top_k(
    ds: ray.data.Dataset,
    group_key: str,
    by: Sequence[str],
    k: int,
    descending: Sequence[bool],
) -> ray.data.Dataset:
    """Top-k rows PER group (the window-function
    ``row_number() OVER (PARTITION BY key ORDER BY ...) <= k`` shape).

    Map-side combiner: every batch is pre-truncated to its own per-key
    top-k (exact — the global per-key top-k is a subset of the union
    of per-batch per-key top-ks), so the one ``by_key`` exchange moves
    at most k rows per (key, batch) instead of every row.  The same
    kernel does both steps."""
    sort_keys = [(group_key, "ascending")] + [
        (c, "descending" if d else "ascending") for c, d in zip(by, descending)
    ]

    def top(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        starts = run_starts(t[group_key])
        rank = np.arange(t.num_rows) - starts[seg_ids(starts, t.num_rows)]
        return t.filter(rank < k)

    return by_key(ds.map_batches(top, batch_format="pyarrow"), group_key, top)


def salted_group_sum(
    ds: ray.data.Dataset,
    key_col: str,
    value_col: str,
    num_salts: int = 16,
) -> ray.data.Dataset:
    """Hot-key-safe grouped sum + count (exact integer cents): the
    skew pattern from the brief ("salt hot keys") made first-class.

    Phase 0 (map-side): each batch pre-aggregates to one row per
    (key, salt), salt = row-position % num_salts — so the first
    exchange moves ≤ num_salts rows per (key, batch) no matter how
    hot the key.  Phase 1: groupby (key, salt) sums the partials
    across batches; a key with 10^9 rows lands on num_salts reducers
    instead of one.  Phase 2: groupby key over ≤ num_salts rows per
    key.  The result is identical to a plain GROUP BY (addition is
    associative); only the exchange layout changes."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(pc.cast(batch[value_col], pa.float64()),
                                 pa.scalar(100.0))),
            pa.int64(),
        )
        salt = pa.array(
            np.arange(batch.num_rows, dtype=np.int64) % num_salts, pa.int64()
        )
        t = pa.table({key_col: batch[key_col], "__salt": salt, "cents": cents})
        agg = t.group_by([key_col, "__salt"]).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )
        return pa.table(
            {
                key_col: agg[key_col],
                "__salt": agg["__salt"],
                "ps": pc.cast(agg["cents_sum"], pa.int64()),
                "pn": pc.cast(agg["cents_count"], pa.int64()),
            }
        )

    salted = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, "__salt"])
        .aggregate(Sum("ps", alias_name="s"), Sum("pn", alias_name="n"))
    )
    return salted.groupby(key_col).aggregate(
        Sum("s", alias_name="sum_cents"), Sum("n", alias_name="n_rows")
    )


def _finest_sum_cents(
    ds: ray.data.Dataset, keys: List[str], value_col: str
) -> pa.Table:
    """The finest-grain (all keys) exact cents-sum + row-count
    aggregate shared by ROLLUP and CUBE: one map-side Arrow group_by
    partial per batch, ONE keyed exchange, result bounded by
    key-combination cardinality.  Key columns must be string-typed —
    coarser levels fill dropped slots with a string label, and a
    non-string key would make that concat raise (or, worse, a genuine
    key value could collide with the label if we compared sentinels;
    see cube_sum_cents, which avoids sentinel comparison entirely)."""
    from ray.data.aggregate import Sum

    schema = ds.schema()
    for k in keys:
        typ = schema.types[schema.names.index(k)]
        if isinstance(typ, pa.DataType) and not (
            pa.types.is_string(typ) or pa.types.is_large_string(typ)
        ):
            raise TypeError(
                f"rollup/cube key column {k!r} must be string-typed, "
                f"got {typ} — cast it upstream"
            )

    def partial(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(pc.cast(batch[value_col], pa.float64()),
                                 pa.scalar(100.0))),
            pa.int64(),
        )
        t = pa.table(
            {**{k: batch[k] for k in keys}, "cents": cents}
        )
        agg = t.group_by(keys).aggregate(
            [("cents", "sum"), ("cents", "count")]
        )
        return pa.table(
            {
                **{k: agg[k] for k in keys},
                "ps": pc.cast(agg["cents_sum"], pa.int64()),
                "pn": pc.cast(agg["cents_count"], pa.int64()),
            }
        )

    finest = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .aggregate(Sum("ps", alias_name="sum_cents"),
                   Sum("pn", alias_name="n_rows"))
    )
    return pa.Table.from_pandas(finest.to_pandas(), preserve_index=False)


def rollup_sum_cents(
    ds: ray.data.Dataset,
    key_cols: Sequence[str],
    value_col: str,
    all_label: str = "*ALL*",
) -> pa.Table:
    """SQL ``GROUP BY ROLLUP(key_cols)`` over an exact cents sum +
    row count: the finest level plus every prefix subtotal up to the
    grand total, subtotal key slots carrying ``all_label``.

    Scale shape: ONE map-side partial per batch (Arrow group_by on
    the finest key) and ONE keyed exchange at the finest granularity;
    every coarser level is re-aggregated from the finest AGGREGATE
    (bounded by key-combination cardinality, not corpus size), never
    from the raw rows — the classic rollup-from-cube trick.

    Edge semantics: an EMPTY input still yields the grand-total row
    (0 cents / 0 rows), where SQL's GROUP BY ROLLUP yields no rows —
    callers comparing against SQL on possibly-empty inputs should
    drop that row."""
    keys = list(key_cols)
    base = _finest_sum_cents(ds, keys, value_col)
    subsets = [tuple(keys[:lvl]) for lvl in range(len(keys) - 1, -1, -1)]
    return pa.concat_tables(
        [base] + _reaggregate_levels(base, keys, subsets, all_label)
    )


def _reaggregate_levels(
    base: pa.Table,
    keys: List[str],
    kept_sets,
    all_label: str,
) -> List[pa.Table]:
    """Build one coarser level per kept-key subset by re-aggregating
    the finest AGGREGATE (never the raw rows); dropped key slots carry
    ``all_label``."""
    levels = []
    for kept in kept_sets:
        kept = list(kept)
        if kept:
            agg = base.group_by(kept).aggregate(
                [("sum_cents", "sum"), ("n_rows", "sum")]
            )
            cols = {k: agg[k] for k in kept}
            n = agg.num_rows
            s = pc.cast(agg["sum_cents_sum"], pa.int64())
            c = pc.cast(agg["n_rows_sum"], pa.int64())
        else:
            n = 1
            s = pa.array([pc.sum(base["sum_cents"]).as_py() or 0], pa.int64())
            c = pa.array([pc.sum(base["n_rows"]).as_py() or 0], pa.int64())
            cols = {}
        for k in keys:
            if k not in kept:
                cols[k] = pa.array([all_label] * n, pa.string())
        levels.append(
            pa.table({**{k: cols[k] for k in keys}, "sum_cents": s,
                      "n_rows": c})
        )
    return levels


def cube_sum_cents(
    ds: ray.data.Dataset,
    key_cols: Sequence[str],
    value_col: str,
    all_label: str = "*ALL*",
) -> pa.Table:
    """SQL ``GROUP BY CUBE(key_cols)``: every key subset's aggregate
    in one result (2^k grouping sets), subtotal slots labeled
    ``all_label``.  Same scale shape as :func:`rollup_sum_cents` —
    one finest-grain exchange, every other grouping set re-aggregates
    the finest AGGREGATE driver-side (bounded by key-combination
    cardinality; k is small by construction).  The finest level is
    held directly (shared helper with rollup) rather than
    reconstructed by comparing key slots against ``all_label`` — a
    genuine key value equal to the label can therefore never be
    misclassified as a subtotal row."""
    from itertools import combinations

    keys = list(key_cols)
    base = _finest_sum_cents(ds, keys, value_col)
    # every grouping set except the full key set, coarsest-first to
    # match rollup's prefix order followed by the non-prefix subsets
    prefixes = [tuple(keys[:lvl]) for lvl in range(len(keys) - 1, -1, -1)]
    have = {tuple(keys)} | set(prefixes)
    missing = [
        tuple(k for k in keys if k in set(sub))
        for r in range(1, len(keys))
        for sub in combinations(keys, r)
        if tuple(k for k in keys if k in set(sub)) not in have
    ]
    return pa.concat_tables(
        [base]
        + _reaggregate_levels(base, keys, prefixes + missing, all_label)
    )


def set_compare(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_col: str,
) -> ray.data.Dataset:
    """Distinct-key set comparison — INTERSECT / EXCEPT / reverse
    EXCEPT in one pass: returns (key, op) with op in
    {'both', 'left_only', 'right_only'}.

    Scale shape: each side is tagged with presence flags and
    per-batch deduplicated map-side, so the single keyed exchange
    moves DISTINCT keys only; one groupby-max then a vectorized
    classify.  No sort, no join — the flags are the join."""
    from ray.data.aggregate import Max

    def tag(a: int, b: int):
        def fn(batch: pa.Table) -> pa.Table:
            keys = batch[key_col].combine_chunks().unique()
            n = len(keys)
            return pa.table(
                {
                    key_col: keys,
                    "in_a": pa.array([a] * n, pa.int64()),
                    "in_b": pa.array([b] * n, pa.int64()),
                }
            )

        return fn

    tagged = left.select_columns([key_col]).map_batches(
        tag(1, 0), batch_format="pyarrow"
    ).union(
        right.select_columns([key_col]).map_batches(
            tag(0, 1), batch_format="pyarrow"
        )
    )
    flags = tagged.groupby(key_col).aggregate(
        Max("in_a", alias_name="a"), Max("in_b", alias_name="b")
    )

    def classify(batch: pa.Table) -> pa.Table:
        a = batch["a"]
        b = batch["b"]
        both = pc.and_(pc.equal(a, 1), pc.equal(b, 1))
        op = pc.if_else(
            both,
            pa.scalar("both"),
            pc.if_else(pc.equal(a, 1), pa.scalar("left_only"),
                       pa.scalar("right_only")),
        )
        return pa.table({key_col: batch[key_col], "op": op})

    return flags.map_batches(classify, batch_format="pyarrow")
