"""Stream-shaped operators over the ``events`` log: tumbling, hopping
and sliding windows, sessions, running and ranked aggregates, funnels.

The reference has no windows/watermarks (SURVEY.md §2.9); these are
the batch formulations a training-data pipeline needs.  Windows keyed
by (key, window id) compute the id vectorized in ``map_batches`` and
run one grouped aggregate.  Per-key sequence operators (sessions,
sliding/running aggregates, ranks, funnels) run on
``exchange.by_key``: one vectorized kernel per key-sorted partition,
which orders each key's events with one lexsort and answers with
segmented scans — no per-key Python call.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .exchange import by_key, run_starts, seg_cumsum, seg_ids, seg_reduce, seg_searchsorted


def _ticks(col, unit: str = "us") -> np.ndarray:
    """Timestamps as int64 ``unit`` ticks since the epoch."""
    return col.cast(pa.timestamp(unit)).cast(pa.int64()).to_numpy()


def _cents(col) -> np.ndarray:
    return np.rint(col.to_numpy(zero_copy_only=False) * 100).astype(np.int64)


def _key_sorted(t: pa.Table, key_col: str, *within):
    """Row order by (key, *within) of a key-sorted partition, its
    segment starts and per-row segment ids (in that order).  ``within``
    are numpy arrays, most significant first.  The order moves rows
    only within their segment, so starts and ids hold after it."""
    starts = run_starts(t[key_col])
    seg = seg_ids(starts, t.num_rows)
    order = np.lexsort(tuple(reversed(within)) + (seg,))
    return order, starts, seg


def tumbling_window_agg(
    events: ray.data.Dataset,
    window_s: int,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
) -> ray.data.Dataset:
    """Per (key, window) counts + exact min/max of value.

    window_id = floor(epoch_micros / (window_s * 1e6)) — an integer,
    so results hash-match the SQL oracle exactly."""
    from ray.data.aggregate import Count, Max, Min

    us = window_s * 1_000_000

    def add_window(t: pa.Table) -> pa.Table:
        micros = pc.cast(t[ts_col], pa.int64())
        win = pc.divide(micros, pa.scalar(us, pa.int64()))
        return pa.table(
            {
                key_col: t[key_col],
                "window_id": win,
                value_col: t[value_col],
            }
        )

    return (
        events.map_batches(add_window, batch_format="pyarrow")
        .groupby([key_col, "window_id"])
        .aggregate(
            Count(alias_name="n_events"),
            Min(value_col, alias_name="min_value"),
            Max(value_col, alias_name="max_value"),
        )
    )


def sessionize(
    events: ray.data.Dataset,
    gap_s: int,
    key_col: str = "user_id",
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Per-key session stats with a ``gap_s`` inactivity threshold:
    a new session starts when ts - prev_ts > gap.  Returns
    (key, n_sessions, n_events, max_session_len)."""
    gap_ns = gap_s * 1_000_000_000

    def sessions(t: pa.Table) -> pa.Table:
        ts = _ticks(t[ts_col], "ns")
        order, starts, seg = _key_sorted(t, key_col, ts)
        ts = ts[order]
        new = np.ones(len(ts), dtype=bool)
        new[1:] = (seg[1:] != seg[:-1]) | (np.diff(ts) > gap_ns)
        s_starts = np.flatnonzero(new)
        s_len = np.diff(np.append(s_starts, len(ts)))
        # sessions never straddle keys: group them by their key
        per_key = run_starts(seg[s_starts])
        return pa.table(
            {
                key_col: t[key_col].take(starts),
                "n_sessions": np.diff(np.append(per_key, len(s_starts))),
                "n_events": np.diff(np.append(starts, len(ts))),
                "max_session_len": seg_reduce(np.maximum, s_len, per_key),
            }
        )

    return by_key(events.select_columns([key_col, ts_col]), key_col, sessions)


def sliding_range_agg(
    events: ray.data.Dataset,
    window_s: int,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
) -> ray.data.Dataset:
    """Per-EVENT sliding range window (SQL ``RANGE BETWEEN INTERVAL
    window_s SECOND PRECEDING AND CURRENT ROW``): for every event, the
    count and value-sum (in cents, so the sum is exact integer math)
    of the same key's events with ts in ``[t - window_s, t]``,
    boundary inclusive.

    One ``by_key`` exchange; per partition the window is two segmented
    ``searchsorted`` probes over the (key, ts)-sorted events plus one
    prefix sum.  Output is defined per (key, ts) VALUE, not row order,
    so ties in ts are deterministic (all peers get the full
    peer-inclusive window, the same semantics as SQL RANGE windows)."""
    win_us = window_s * 1_000_000

    def windowed(t: pa.Table) -> pa.Table:
        ts = _ticks(t[ts_col])
        order, _, seg = _key_sorted(t, key_col, ts)
        ts = ts[order]
        lo = seg_searchsorted(ts, seg, ts - win_us, seg, side="left")
        hi = seg_searchsorted(ts, seg, ts, seg, side="right")
        csum = np.concatenate(([0], np.cumsum(_cents(t[value_col])[order])))
        return pa.table(
            {
                id_col: t[id_col].take(order),
                key_col: t[key_col].take(order),
                "n_win": (hi - lo).astype(np.int64),
                "sum_cents_win": csum[hi] - csum[lo],
            }
        )

    return by_key(
        events.select_columns([id_col, key_col, ts_col, value_col]), key_col, windowed
    )


def cumulative_agg(
    events: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
) -> ray.data.Dataset:
    """Per-event running aggregate (SQL ``ROWS BETWEEN UNBOUNDED
    PRECEDING AND CURRENT ROW``): count + exact cents-sum of the
    key's events up to and including this one, ordered by
    ``(ts, id)`` so ties in ts are deterministic.

    One ``by_key`` exchange; per partition a lexsort + two segmented
    cumsums."""

    def running(t: pa.Table) -> pa.Table:
        order, starts, _ = _key_sorted(t, key_col, _ticks(t[ts_col]), t[id_col].to_numpy())
        return pa.table(
            {
                id_col: t[id_col].take(order),
                key_col: t[key_col].take(order),
                "n_cum": seg_cumsum(np.ones(t.num_rows, np.int64), starts),
                "sum_cents_cum": seg_cumsum(_cents(t[value_col])[order], starts),
            }
        )

    return by_key(
        events.select_columns([id_col, key_col, ts_col, value_col]), key_col, running
    )


def ranked_per_key(
    ds: ray.data.Dataset,
    key_col: str,
    order_col_cents: str,
    id_col: str,
    k: int = 3,
) -> ray.data.Dataset:
    """SQL ranking-window triple per key — ``row_number`` /
    ``rank`` / ``dense_rank`` over (value DESC, id ASC) — keeping
    rows with row_number <= k.

    ``order_col_cents`` is a float money column ranked on its exact
    integer cents so ties are well-defined.  One ``by_key`` exchange;
    per partition a lexsort + segmented scans.  row_number tie-breaks
    by id; rank/dense_rank depend on the value alone, so all three are
    partition/order-independent."""

    def ranked(t: pa.Table) -> pa.Table:
        cents = _cents(t[order_col_cents])
        order, starts, seg = _key_sorted(t, key_col, -cents, t[id_col].to_numpy())
        sc = cents[order]
        n = len(sc)
        new_val = np.ones(n, dtype=bool)
        new_val[1:] = (seg[1:] != seg[:-1]) | (sc[1:] != sc[:-1])
        pos = np.arange(n)
        rn = pos - starts[seg] + 1
        # rank = 1 + offset of the last value change (a change always
        # opens a segment, so the running max never crosses segments)
        rank = np.maximum.accumulate(np.where(new_val, pos, 0)) - starts[seg] + 1
        dense = seg_cumsum(new_val.astype(np.int64), starts)
        keep = rn <= k
        return pa.table(
            {
                key_col: t[key_col].take(order[keep]),
                id_col: t[id_col].take(order[keep]),
                "cents": sc[keep],
                "rn": rn[keep].astype(np.int64),
                "rnk": rank[keep].astype(np.int64),
                "dense_rnk": dense[keep],
            }
        )

    return by_key(ds.select_columns([key_col, id_col, order_col_cents]), key_col, ranked)


def funnel_stages(
    events: ray.data.Dataset,
    stages,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
) -> ray.data.Dataset:
    """Ordered funnel (sequence-pattern) analysis — the
    MATCH_RECOGNIZE shape: for every key, the furthest prefix of
    ``stages`` completed IN ORDER with STRICTLY increasing
    timestamps (greedy earliest-match, which is optimal for
    subsequence containment).  Returns (key, funnel_stage) with
    funnel_stage in [0, len(stages)].

    One ``by_key`` exchange; per partition one pass per STAGE (a small
    constant) finds, for every key at once, the min ts of that stage's
    events strictly after the previous stage's matched ts, exactly the
    SQL chained-min formulation (t_k = min ts of stage k events
    strictly after t_{k-1})."""
    stage_list = list(stages)
    never = np.iinfo(np.int64).max

    def funnel(t: pa.Table) -> pa.Table:
        starts = run_starts(t[key_col])
        seg = seg_ids(starts, t.num_rows)
        ts = _ticks(t[ts_col])
        types = t[type_col]
        last = np.full(len(starts), np.iinfo(np.int64).min)
        reached = np.zeros(len(starts), np.int64)
        alive = np.ones(len(starts), dtype=bool)
        for stage in stage_list:
            sel = pc.fill_null(pc.equal(types, stage), False).to_numpy(zero_copy_only=False)
            sel &= ts > last[seg]
            best = np.full(len(starts), never)
            np.minimum.at(best, seg[sel], ts[sel])
            alive &= best != never
            reached += alive
            last = np.where(alive, best, last)
        return pa.table({key_col: t[key_col].take(starts), "funnel_stage": reached})

    return by_key(events.select_columns([key_col, ts_col, type_col]), key_col, funnel)


def hopping_window_agg(
    events: ray.data.Dataset,
    window_s: int,
    hop_s: int,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
) -> ray.data.Dataset:
    """Hopping (overlapping) windows: length ``window_s``, advancing
    every ``hop_s`` — each event belongs to ``window_s // hop_s``
    windows.  ``window_s`` must be a multiple of ``hop_s`` so
    membership is pure integer arithmetic (window_id = the window's
    start hop index: hop_of(ts) - i for i in [0, m)), hash-exact in
    SQL.  Map-side explode (m small copies of (key, window, cents),
    never the event row) + ONE (key, window)-keyed exchange — the
    same shape as tumbling with an m-fold pre-aggregated fan-out."""
    from ray.data.aggregate import Count, Sum

    if window_s % hop_s != 0:
        raise ValueError("window_s must be a multiple of hop_s")
    m = window_s // hop_s
    hop_us = hop_s * 1_000_000

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    key_col: t[key_col],
                    "window_id": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                }
            )
        micros = pc.cast(t[ts_col], pa.int64()).to_numpy()
        hop = micros // hop_us
        cents = (
            pc.cast(
                pc.round(
                    pc.multiply(
                        pc.cast(t[value_col], pa.float64()),
                        pa.scalar(100.0),
                    )
                ),
                pa.int64(),
            ).to_numpy()
        )
        keys = t[key_col].to_numpy(zero_copy_only=False)
        win = np.repeat(hop, m) - np.tile(
            np.arange(m, dtype=np.int64), n
        )
        return pa.table(
            {
                key_col: pa.array(np.repeat(keys, m)),
                "window_id": pa.array(win, pa.int64()),
                "cents": pa.array(np.repeat(cents, m), pa.int64()),
            }
        )

    return (
        events.map_batches(explode, batch_format="pyarrow")
        .groupby([key_col, "window_id"])
        .aggregate(
            Count(alias_name="n_events"),
            Sum("cents", alias_name="sum_cents"),
        )
    )
