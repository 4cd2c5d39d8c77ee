"""Distributed order statistics + deterministic sampling.

- ``quantiles_exact``: EXACT quantiles of a numeric column by
  iterative histogram refinement (distributed selection): each pass is
  one ``map_batches`` sweep emitting per-window bin counts; the driver
  narrows every target rank's value window to its containing bin until
  the candidate rows fit a bounded collect, then takes the exact
  rank-th element.  No global sort — the classic external-selection
  shape (passes = O(log_bins(range)), each a streaming scan).
- ``sample_fraction``: deterministic hash sampling — keep rows whose
  md5-derived u64 of the key is under floor(p·2^64); partition- and
  order-independent, exactly reproducible in SQL (SQL_SAMPLE).
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .exchange import by_key, run_starts, seg_cumsum, seg_ids, seg_reduce, seg_searchsorted

U64 = 1 << 64


def quantiles_exact(
    ds: ray.data.Dataset,
    col: str,
    qs: Sequence[float],
    num_bins: int = 1024,
    collect_limit: int = 1_000_000,
    max_refine: int = 6,
) -> pa.Table:
    """-> pa.Table (q, value): value = sorted(col)[floor(q·(n-1))]
    (lower-interpolation rule, mirrored by the SQL oracle's
    row_number selection).  Driver memory: O(num_bins × len(qs)) per
    pass + one ≤ ``collect_limit`` collect at the end."""
    from ray.data.aggregate import Count, Max, Min

    stats = ds.aggregate(Min(col), Max(col), Count())
    n = int(stats["count()"])
    empty = pa.table(
        {"q": pa.array([], pa.float64()), "value": pa.array([], pa.float64())}
    )
    if n == 0:
        return empty
    lo0 = float(stats[f"min({col})"])
    hi0 = float(stats[f"max({col})"])

    # window per target rank: [lo, hi) (closed at hi only while it is
    # the global max), the rank offset WITHIN the window, candidates
    wins = {}
    done = {}
    for i, q in enumerate(qs):
        r = min(n - 1, int(math.floor(float(q) * (n - 1))))
        wins[i] = [lo0, hi0, True, r, n]  # lo, hi, closed, offset, cand

    for _ in range(max_refine):
        live = {i: w for i, w in wins.items() if i not in done}
        if not live:
            break
        for i, w in list(live.items()):
            if w[0] == w[1]:  # zero-width: every candidate equals lo
                done[i] = w[0]
                del live[i]
        if not live or sum(w[4] for w in live.values()) <= collect_limit:
            break
        edges = {
            i: np.linspace(w[0], w[1], num_bins + 1) for i, w in live.items()
        }
        spec = [(i, w[0], w[1], w[2], edges[i]) for i, w in live.items()]

        def hist(batch: pa.Table) -> pa.Table:
            v = np.asarray(batch[col].to_numpy(zero_copy_only=False), dtype=np.float64)
            out_w: List[int] = []
            out_b: List[int] = []
            out_c: List[int] = []
            for wi, wlo, whi, closed, e in spec:
                mask = (v >= wlo) & ((v <= whi) if closed else (v < whi))
                if mask.any():
                    counts, _ = np.histogram(v[mask], bins=e)
                    nz = np.nonzero(counts)[0]
                    out_w.extend([wi] * len(nz))
                    out_b.extend(nz.tolist())
                    out_c.extend(counts[nz].tolist())
            return pa.table(
                {
                    "win": pa.array(out_w, pa.int32()),
                    "bin": pa.array(out_b, pa.int32()),
                    "cnt": pa.array(out_c, pa.int64()),
                }
            )

        # stream the per-batch partials through the driver ONE REF AT A
        # TIME, accumulating into O(num_bins × windows) arrays — driver
        # memory is independent of the number of input blocks
        by_win = {}
        # iter_batches, not to_arrow_refs: the latter's post-execution
        # schema(fetch_if_missing=True) launches a wasted limit-1
        # re-execution of the plan on non-materialized datasets
        for part in ds.map_batches(hist, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        ):
            for wi, b, c in zip(
                part["win"].to_pylist(),
                part["bin"].to_pylist(),
                part["cnt"].to_pylist(),
            ):
                by_win.setdefault(wi, np.zeros(num_bins, dtype=np.int64))[b] += c
        for i in list(live):
            counts = by_win.get(i)
            w = wins[i]
            if counts is None:
                done[i] = w[0]
                continue
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, w[3] + 1))
            prev = int(cum[b - 1]) if b > 0 else 0
            e = edges[i]
            last = b == num_bins - 1
            wins[i] = [
                float(e[b]),
                float(e[b + 1]),
                w[2] and last,  # right-closed only while it holds the max
                w[3] - prev,
                int(counts[b]),
            ]

    # final bounded collect: (win, v) rows for every live window
    live = {i: w for i, w in wins.items() if i not in done}
    if live:
        spec2 = [(i, w[0], w[1], w[2]) for i, w in live.items()]

        def collect(batch: pa.Table) -> pa.Table:
            v = np.asarray(batch[col].to_numpy(zero_copy_only=False), dtype=np.float64)
            out_w: List[int] = []
            out_v: List[float] = []
            for wi, wlo, whi, closed in spec2:
                mask = (v >= wlo) & ((v <= whi) if closed else (v < whi))
                vv = v[mask]
                out_w.extend([wi] * len(vv))
                out_v.extend(vv.tolist())
            return pa.table(
                {
                    "win": pa.array(out_w, pa.int32()),
                    "v": pa.array(out_v, pa.float64()),
                }
            )

        parts = pa.concat_tables(
            list(
                ds.map_batches(collect, batch_format="pyarrow").iter_batches(
                    batch_size=None, batch_format="pyarrow"
                )
            )
        )
        for i, w in live.items():
            vals = np.sort(
                parts.filter(pa.compute.equal(parts["win"], i))["v"].to_numpy(
                    zero_copy_only=False
                )
            )
            done[i] = float(vals[w[3]])

    return pa.table(
        {
            "q": pa.array([float(q) for q in qs], pa.float64()),
            "value": pa.array([done[i] for i in range(len(qs))], pa.float64()),
        }
    )


def _sample_u64(key: str, salt: str) -> int:
    return int.from_bytes(
        hashlib.md5((salt + key).encode("utf-8")).digest()[:8], "big"
    )


def _sample_u64_vec(vals, salt: str) -> np.ndarray:
    """Vectorized ``_sample_u64`` (uint64[N]) via the numpy MD5 kernel
    — message = ``salt + str(v)`` exactly, as the oracle SQL hashes
    it (no per-row hashlib call: the hashing is one vector kernel)."""
    from ..functions.hashing import md5_u64

    if isinstance(vals, np.ndarray):
        vals = vals.tolist()
    return md5_u64([salt + str(v) for v in vals])


def sample_fraction(
    ds: ray.data.Dataset, key_col: str, p: float, salt: str = "sample"
) -> ray.data.Dataset:
    """Deterministic ~p-fraction sample: keep rows with
    md5_u64(salt ‖ str(key)) < floor(p·2^64).  Same key -> same
    decision on any partitioning / ordering / cluster size; the SQL
    twin is exact (see SQL_SAMPLE in queries.py)."""
    threshold = np.uint64(int(p * U64)) if p < 1.0 else None

    def filt(batch: pa.Table) -> pa.Table:
        if threshold is None or batch.num_rows == 0:
            return batch
        u = _sample_u64_vec(
            batch[key_col].to_numpy(zero_copy_only=False), salt
        )
        return batch.filter(pa.array(u < threshold, pa.bool_()))

    return ds.map_batches(filt, batch_format="pyarrow")


def _key_strings(t: pa.Table, key_cols: Sequence[str], salt: str) -> List[str]:
    """``salt + k0 + '-' + k1 + ...`` message prefixes — the exact
    string DuckDB builds with ``salt || k0 || '-' || k1``.  Integer
    columns stringify the same way in numpy ``.astype('U')`` and SQL
    ``CAST(.. AS VARCHAR)``."""
    cols = [
        t[c].to_numpy(zero_copy_only=False).astype("U").tolist()
        for c in key_cols
    ]
    return [salt + "-".join(parts) for parts in zip(*cols)]


def _es_priority_partial(
    key_cols: Sequence[str],
    weight_col: str,
    mode: str,
    salt: str,
    max_weight: int,
    extra_cols: Sequence[str] = (),
):
    """Per-batch Efraimidis–Spirakis priority kernel shared by the
    global and grouped weighted samplers: emits (extra_cols ∥
    key_cols ∥ pri).  See :func:`weighted_sample` for the two modes'
    semantics."""
    key_cols = list(key_cols)
    extra_cols = list(extra_cols)
    pri_type = pa.int64() if mode == "md5_maxw" else pa.float64()

    def partial(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in extra_cols + key_cols}
        n = t.num_rows
        if n == 0:
            cols["pri"] = pa.array([], pri_type)
            return pa.table(cols)
        from ..functions.hashing import md5_u64

        w = np.maximum(
            np.asarray(t[weight_col].to_pylist(), dtype=np.int64), 1
        )
        pref = _key_strings(t, key_cols, salt)
        if mode == "md5_maxw":
            wmax = int(w.max())
            if wmax > max_weight:
                raise ValueError(
                    f"md5_maxw weight {wmax} > max_weight {max_weight}: "
                    "the max-of-w twin costs O(Σ weight) hashes by design; "
                    "use mode='fixedpoint' (one hash per item) instead"
                )
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(w[:-1], out=starts[1:])
            h = md5_u64(
                [f"{p}-{i}" for p, wi in zip(pref, w.tolist()) for i in range(wi)]
            )
            pri = np.maximum.reduceat(h, starts)
            # shift into signed range so the Dataset sort is exact
            cols["pri"] = pa.array(
                (pri ^ np.uint64(1 << 63)).view(np.int64), pri_type
            )
        else:
            u = md5_u64(pref).astype(np.float64) + 1.0
            pri = np.log(u / float(U64)) / w
            cols["pri"] = pa.array(pri, pri_type)
        return pa.table(cols)

    return partial


def weighted_sample(
    ds: ray.data.Dataset,
    key_cols: Sequence[str],
    weight_col: str,
    k: int = 20,
    mode: str = "fixedpoint",
    salt: str = "wsamp",
    max_weight: int = 4096,
) -> ray.data.Dataset:
    """EXACT deterministic weighted sampling without replacement
    (Efraimidis–Spirakis): top-``k`` items by a priority key whose
    rank distribution equals selection probability ∝ weight.  Two
    kernels, both fully vectorized (no per-row Python hash loop —
    ``md5_u64`` is the numpy single-block MD5):

    - ``mode="md5_maxw"`` — the oracle twin: an item of integer
      weight w gets priority max(md5_u64(salt‖key‖'-'‖i) for i < w),
      distributed as u^(1/w) but in pure integer md5 arithmetic so
      DuckDB ranks identically (SQL_WEIGHTED_SAMPLE).  Cost: Σw
      hashes, vectorized via repeat/reduceat; weights are bounded by
      ``max_weight`` (raise, not truncate — the twin's validity
      domain is explicit).
    - ``mode="fixedpoint"`` — the production path: ONE hash per item,
      u = (md5_u64(salt‖key)+1)/2^64, priority = ln(u)/w (float64,
      monotone in u^(1/w)).  Cost O(N), not O(Σw); not SQL-oracled
      (cross-libm ln() ulp risk), verified by unit test against a
      local numpy recomputation instead.

    Items are deduplicated before ranking (groupby(key).max(pri)): a
    key's priority is the max over its duplicate rows, matching the
    SQL GROUP BY.  Per-batch partial top-k bounds the exchange; the
    global sort runs over ≤ k × num_blocks rows."""
    from ray.data.aggregate import Max

    if mode not in ("fixedpoint", "md5_maxw"):
        raise ValueError("mode must be 'fixedpoint' or 'md5_maxw'")
    key_cols = list(key_cols)
    partial = _es_priority_partial(
        key_cols, weight_col, mode, salt, max_weight
    )

    deduped = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_cols)
        .aggregate(Max("pri", alias_name="pri"))
    )

    sort_keys = [("pri", "descending")] + [(c, "ascending") for c in key_cols]

    def topk(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k])

    return (
        deduped.map_batches(topk, batch_format="pyarrow")
        .sort(
            ["pri"] + key_cols,
            descending=[True] + [False] * len(key_cols),
        )
        .limit(k)
        .select_columns(key_cols)
    )


def weighted_sample_grouped(
    ds: ray.data.Dataset,
    group_col: str,
    key_cols: Sequence[str],
    weight_col: str,
    k: int = 5,
    mode: str = "md5_maxw",
    salt: str = "wsamp",
    max_weight: int = 4096,
) -> ray.data.Dataset:
    """Weighted sampling without replacement PER GROUP: each group's
    top-``k`` items by the Efraimidis–Spirakis priority (same two
    kernels as :func:`weighted_sample`).  Items dedup within their
    group (groupby(group+key).max(pri)), then the per-key top-k runs
    through the ``grouped_top_k`` map-side combiner — the exchange
    moves ≤ k rows per (group, batch), never the raw items."""
    from ray.data.aggregate import Max

    from .relational import grouped_top_k

    if mode not in ("fixedpoint", "md5_maxw"):
        raise ValueError("mode must be 'fixedpoint' or 'md5_maxw'")
    key_cols = list(key_cols)
    partial = _es_priority_partial(
        key_cols, weight_col, mode, salt, max_weight, extra_cols=(group_col,)
    )
    deduped = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col] + key_cols)
        .aggregate(Max("pri", alias_name="pri"))
    )
    top = grouped_top_k(
        deduped,
        group_col,
        ["pri"] + key_cols,
        k=k,
        descending=[True] + [False] * len(key_cols),
    )
    return top.select_columns([group_col] + key_cols)


def grouped_median_cents(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    cents_in: bool = False,
    q_num: int = 1,
    q_den: int = 2,
    out_col: str = "median_cents",
) -> ray.data.Dataset:
    """EXACT per-group quantile (lower rule:
    ``sorted[(n-1)*q_num // q_den]`` — the default 1/2 is the median,
    the same rule as ``quantiles_exact``) of a cents-representable
    value column, computed over a VALUE HISTOGRAM: a map-side partial
    count per (group, cents) in each batch, ONE group-keyed
    ``by_key`` exchange of those counts, then a per-group walk of the
    histogram (segmented cumulative counts vs the target rank).  The
    quantile is a RATIONAL (q_num/q_den) so the rank is pure integer
    arithmetic in both engines — no float rounding divergence.

    Scale shape: the shuffle moves per-batch distinct (group, cents)
    pairs — bounded by batches × group × value cardinality, not corpus
    size — and no group ever materializes its raw rows, so a group
    with 10^9 rows costs the same as one with 10^3.

    ``cents_in=True`` means ``value_col`` already holds int64 cents
    (e.g. a derived |difference| column) — no ×100 conversion."""
    import pyarrow.compute as pc

    if not (0 <= q_num <= q_den and q_den > 0):
        raise ValueError("need 0 <= q_num <= q_den (a quantile in [0, 1])")

    def partial(batch: pa.Table) -> pa.Table:
        if cents_in:
            cents = pc.cast(batch[value_col], pa.int64())
        else:
            cents = pc.cast(
                pc.round(pc.multiply(pc.cast(batch[value_col], pa.float64()),
                                     pa.scalar(100.0))),
                pa.int64(),
            )
        t = pa.table({group_col: batch[group_col], "cents": cents})
        agg = t.group_by([group_col, "cents"]).aggregate([("cents", "count")])
        return pa.table(
            {
                group_col: agg[group_col],
                "cents": agg["cents"],
                "pn": pc.cast(agg["cents_count"], pa.int64()),
            }
        )

    def quantile(t: pa.Table) -> pa.Table:
        starts = run_starts(t[group_col])
        seg = seg_ids(starts, t.num_rows)
        cents, pn = t["cents"].to_numpy(), t["pn"].to_numpy()
        order = np.lexsort((cents, seg))
        cents, pn = cents[order], pn[order]
        n = seg_reduce(np.add, pn, starts)
        rank = (n - 1) * q_num // q_den  # 0-based lower-rule rank
        groups = np.arange(len(starts))
        idx = seg_searchsorted(seg_cumsum(pn, starts), seg, rank + 1, groups)
        return pa.table(
            {group_col: t[group_col].take(starts), out_col: cents[idx], "n": n}
        )

    return by_key(ds.map_batches(partial, batch_format="pyarrow"), group_col, quantile)


def hll_registers(
    ds: ray.data.Dataset,
    col: str,
    salt: str = "hll",
    b: int = 8,
) -> ray.data.Dataset:
    """HyperLogLog register table for a column: a MERGEABLE
    distinct-count sketch whose exchange is at most ``2^b`` rows per
    batch regardless of corpus size (Flajolet et al. 2007).

    Value hash = md5-u64 of ``salt + str(value)``; bucket = top ``b``
    bits; rho = 1 + leading-zero count of the next 24 bits (24 so the
    DuckDB twin's float ``log2`` stays exact — a 24-bit int is far
    inside the double mantissa and the true log2 of a non-power is
    ≥6e-8 from any integer).  Register = max rho per bucket.  Partial
    max inside each batch (Arrow group_by), then ONE (bucket)-keyed
    groupby-max: registers merge by max, so sketches of shards union
    for free — the property that makes HLL the 100 TB distinct-count
    shape.  Use :func:`hll_estimate` on the collected registers."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    if not 4 <= b <= 16:
        raise ValueError("b must be in [4, 16]")
    rem_bits = 24

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[col].to_pylist()
        if not vals:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "pmax": pa.array([], pa.int64()),
                }
            )
        u = _sample_u64_vec(vals, salt)
        bucket = (u >> np.uint64(64 - b)).astype(np.int64)
        rem = ((u >> np.uint64(64 - b - rem_bits)) & np.uint64(
            (1 << rem_bits) - 1
        )).astype(np.int64)
        rho = np.where(
            rem > 0,
            rem_bits
            - np.floor(np.log2(np.maximum(rem, 1))).astype(np.int64),
            rem_bits + 1,
        )
        t = pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "rho": pa.array(rho, pa.int64()),
            }
        )
        agg = t.group_by("bucket").aggregate([("rho", "max")])
        return pa.table(
            {
                "bucket": agg["bucket"],
                "pmax": pc.cast(agg["rho_max"], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Max("pmax", alias_name="register"))
    )


def cms_registers(
    ds: ray.data.Dataset,
    col: str,
    depth: int = 4,
    width: int = 64,
    salt: str = "cms",
) -> ray.data.Dataset:
    """Count-Min sketch register table for a column: a MERGEABLE
    frequency sketch (Cormode & Muthukrishnan 2005) whose exchange is
    at most ``depth × width`` rows per batch regardless of corpus
    size.  Row-d hash = md5-u64 of ``salt + str(d) + str(value)`` mod
    ``width`` (md5 so the DuckDB twin computes the identical slots);
    register(d, slot) = count of values hashing there.  Registers
    merge by SUM, so sketches of shards union for free; point
    estimates (min over depth) upper-bound the true frequency.

    Scale shape: one ``map_batches`` partial (Arrow group_by per
    batch) then ONE (depth, slot)-keyed groupby-sum of ≤ depth×width
    partial rows per batch — the classic sketch exchange."""
    from ray.data.aggregate import Sum

    if depth < 1 or width < 2:
        raise ValueError("depth >= 1 and width >= 2 required")

    def partial(batch: pa.Table) -> pa.Table:
        vals = [str(v) for v in batch[col].to_pylist()]
        n = len(vals)
        if n == 0:
            return pa.table(
                {
                    "depth": pa.array([], pa.int64()),
                    "slot": pa.array([], pa.int64()),
                    "pn": pa.array([], pa.int64()),
                }
            )
        d_col = np.repeat(np.arange(depth, dtype=np.int64), n)
        slots = np.concatenate(
            [
                (_sample_u64_vec(vals, f"{salt}{d}") % np.uint64(width))
                .astype(np.int64)
                for d in range(depth)
            ]
        )
        t = pa.table(
            {
                "depth": pa.array(d_col, pa.int64()),
                "slot": pa.array(slots, pa.int64()),
            }
        )
        agg = t.group_by(["depth", "slot"]).aggregate([("slot", "count")])
        import pyarrow.compute as pc

        return pa.table(
            {
                "depth": agg["depth"],
                "slot": agg["slot"],
                "pn": pc.cast(agg["slot_count"], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["depth", "slot"])
        .aggregate(Sum("pn", alias_name="cnt"))
    )


def cms_estimate(
    registers: dict, key: str, depth: int = 4, width: int = 64,
    salt: str = "cms",
) -> int:
    """Point-estimate a key's frequency from a {(depth, slot): cnt}
    dict as produced by :func:`cms_registers` — min over the depth
    rows (absent slot = 0)."""
    return min(
        registers.get((d, _sample_u64(key, f"{salt}{d}") % width), 0)
        for d in range(depth)
    )


def bucket_by_boundaries(
    ds: ray.data.Dataset,
    col: str,
    boundaries: Sequence[float],
    out_col: str = "bucket",
) -> ray.data.Dataset:
    """Assign every row the 1-based bucket ``1 + #{b in boundaries :
    value > b}`` — the composition step that turns
    :func:`quantiles_exact` output into a quality-decile label.  The
    boundary list is tiny and ships inside the task closure; one
    vectorized ``searchsorted`` per batch, no shuffle."""
    bnd = np.asarray(sorted(float(b) for b in boundaries), dtype=np.float64)

    def assign(batch: pa.Table) -> pa.Table:
        v = np.asarray(
            batch[col].to_numpy(zero_copy_only=False), dtype=np.float64
        )
        # value > boundary  <=>  strictly-right insertion point
        bucket = 1 + np.searchsorted(bnd, v, side="left")
        return batch.append_column(
            out_col, pa.array(bucket.astype(np.int64), pa.int64())
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def hll_estimate(registers: dict, b: int = 8) -> float:
    """Standard HLL estimate (with small-range correction) from a
    {bucket: register} dict as produced by :func:`hll_registers`;
    buckets absent from the dict are empty (register 0)."""
    m = 1 << b
    alpha = 0.7213 / (1.0 + 1.079 / m)
    s = sum(2.0 ** -registers.get(j, 0) for j in range(m))
    est = alpha * m * m / s
    if est <= 2.5 * m:
        zeros = sum(1 for j in range(m) if registers.get(j, 0) == 0)
        if zeros:
            return m * math.log(m / zeros)
    return est


def bloom_bits(
    ds: ray.data.Dataset,
    col: str,
    m_bits: int = 4096,
    k_hashes: int = 3,
    salt: str = "bloom",
) -> ray.data.Dataset:
    """Distributed Bloom-filter BUILD: the distinct set bit positions
    of a key column — md5 position hashes (``salt+d+value`` mod
    ``m_bits`` for d < k_hashes) so a SQL twin computes the identical
    filter.  Mergeable by union: per-batch dedup caps the exchange at
    ≤ m_bits rows per batch and one (bit)-keyed groupby makes it
    distinct — shards' filters OR together for free."""
    if not 1 <= k_hashes <= 16 or m_bits < 8:
        raise ValueError("need 1 <= k_hashes <= 16 and m_bits >= 8")

    def partial(batch: pa.Table) -> pa.Table:
        vals = [str(v) for v in batch[col].to_pylist()]
        if not vals:
            return pa.table({"bit": pa.array([], pa.int64())})
        pos = np.unique(
            np.concatenate(
                [
                    (_sample_u64_vec(vals, f"{salt}{d}") % np.uint64(m_bits))
                    .astype(np.int64)
                    for d in range(k_hashes)
                ]
            )
        )
        return pa.table({"bit": pa.array(pos, pa.int64())})

    from ray.data.aggregate import Count

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bit")
        .aggregate(Count(alias_name="n_parts"))
        .select_columns(["bit"])
    )


def bloom_probe_flags(
    ds: ray.data.Dataset,
    col: str,
    bits: np.ndarray,
    k_hashes: int = 3,
    salt: str = "bloom",
    out_col: str = "bloom_hit",
) -> ray.data.Dataset:
    """Probe a broadcast Bloom bit array (bool[m_bits]): append
    ``out_col`` = 1 iff ALL k positions are set (may false-positive,
    never false-negative).  The filter ships once via ray.put — a
    4 KiB array stands in for the full key set."""
    m_bits = len(bits)
    ref = ray.put(np.asarray(bits, dtype=bool))

    def probe(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        if batch.num_rows == 0:
            return batch.append_column(out_col, pa.array([], pa.int64()))
        vals = batch[col].to_numpy(zero_copy_only=False)
        hits = np.ones(len(vals), dtype=bool)
        for d in range(k_hashes):
            idx = (_sample_u64_vec(vals, f"{salt}{d}") % np.uint64(m_bits))
            hits &= b[idx.astype(np.int64)]
        return batch.append_column(
            out_col, pa.array(hits.astype(np.int64), pa.int64())
        )

    return ds.map_batches(probe, batch_format="pyarrow")


def value_rank(
    ds: ray.data.Dataset,
    col: str,
    max_distinct: int = 5_000_000,
) -> ray.data.Dataset:
    """Global SQL ``rank()`` / peer-inclusive running count for every
    row of an integer column WITHOUT a global sort: one (value)-keyed
    exchange of per-batch value counts builds the distinct-value
    histogram, its cumulative sums broadcast as two small arrays, and
    one vectorized searchsorted per batch assigns
    ``rnk = #{v' < v} + 1`` and ``n_le = #{v' <= v}`` (ties share
    both, exactly like SQL ORDER BY windows).

    Scale shape: the exchange and the broadcast are bounded by the
    column's DISTINCT-value cardinality, not the corpus —
    ``max_distinct`` guards the broadcast the way the dedup kernels
    guard their quadratic paths."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"v": pc.cast(batch[col], pa.int64())})
        agg = t.group_by("v").aggregate([("v", "count")])
        return pa.table(
            {
                "v": agg["v"],
                "pn": pc.cast(agg["v_count"], pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("pn", alias_name="n"))
        .materialize()  # count + collect share one execution
    )
    # guard BEFORE collecting: the count is a cheap distributed
    # aggregate, the collect is the driver-memory risk being guarded
    n_distinct = hist.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"value_rank: {n_distinct} distinct values > "
            f"max_distinct={max_distinct}; bucket the column first "
            f"(bucket_by_boundaries) or raise the guard"
        )
    rows = hist.take_all()
    vals = np.array([r["v"] for r in rows], dtype=np.int64)
    cnts = np.array([r["n"] for r in rows], dtype=np.int64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    cum = np.concatenate(([0], np.cumsum(cnts)))
    ref = ray.put((vals, cum))

    def assign(batch: pa.Table) -> pa.Table:
        vv, cc = ray.get(ref)
        x = np.asarray(
            pc.cast(batch[col], pa.int64()).to_numpy(zero_copy_only=False)
        )
        lo = np.searchsorted(vv, x, side="left")
        hi = np.searchsorted(vv, x, side="right")
        return batch.append_column(
            "rnk", pa.array(cc[lo] + 1, pa.int64())
        ).append_column("n_le", pa.array(cc[hi], pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


def grouped_count_distinct(
    ds: ray.data.Dataset, group_col: str, value_col: str
) -> ray.data.Dataset:
    """EXACT count-distinct per group: per-batch distinct (group,
    value) pairs (map-side dedup), ONE pair-keyed exchange that
    finishes the dedup, then a per-group count whose input is one row
    per distinct pair — the value column's raw occurrences never
    shuffle.  For very-high-cardinality values at 100 TB, switch to
    :func:`hll_registers_by` (constant-size per-group sketches)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {group_col: batch[group_col], value_col: batch[value_col]}
        )
        agg = t.group_by([group_col, value_col]).aggregate([])
        return agg.select([group_col, value_col])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, value_col])
        .aggregate(Count(alias_name="m"))
        .select_columns([group_col])
        .groupby(group_col)
        .aggregate(Count(alias_name="n_distinct"))
    )


def hll_registers_by(
    ds: ray.data.Dataset,
    group_col: str,
    col: str,
    salt: str = "hll",
    b: int = 4,
) -> ray.data.Dataset:
    """Per-GROUP HyperLogLog registers — the constant-size-per-key
    count-distinct shape: each batch contributes ≤ |groups|×2^b
    partial-max rows, one (group, bucket)-keyed exchange merges them
    by max.  Same md5 bucket/rho derivation as :func:`hll_registers`
    so a SQL twin computes identical registers."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    if not 4 <= b <= 16:
        raise ValueError("b must be in [4, 16]")
    rem_bits = 24

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[col].to_pylist()
        if not vals:
            return pa.table(
                {
                    group_col: batch[group_col],
                    "bucket": pa.array([], pa.int64()),
                    "pmax": pa.array([], pa.int64()),
                }
            )
        u = _sample_u64_vec(vals, salt)
        bucket = (u >> np.uint64(64 - b)).astype(np.int64)
        rem = ((u >> np.uint64(64 - b - rem_bits)) & np.uint64(
            (1 << rem_bits) - 1
        )).astype(np.int64)
        rho = np.where(
            rem > 0,
            rem_bits - np.floor(np.log2(np.maximum(rem, 1))).astype(np.int64),
            rem_bits + 1,
        )
        t = pa.table(
            {
                group_col: batch[group_col],
                "bucket": pa.array(bucket, pa.int64()),
                "rho": pa.array(rho, pa.int64()),
            }
        )
        agg = t.group_by([group_col, "bucket"]).aggregate([("rho", "max")])
        return pa.table(
            {
                group_col: agg[group_col],
                "bucket": agg["bucket"],
                "pmax": pc.cast(agg["rho_max"], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, "bucket"])
        .aggregate(Max("pmax", alias_name="register"))
    )


def heavy_hitters_exact(
    ds: ray.data.Dataset,
    col: str,
    k: int = 8,
    max_candidates: int = 1_000_000,
) -> ray.data.Dataset:
    """EXACT φ-heavy hitters (φ = 1/(k+1)): every value with global
    frequency > N/(k+1), with its exact count — the two-pass
    candidate/recount shape that makes heavy hitters exact at stream
    scale (Misra–Gries family):

    1. CANDIDATES — per batch, keep the values with batch frequency
       > n_batch/(k+1) (at most k per batch, computed with one
       np.unique; this is the fixpoint a Misra–Gries sketch of size k
       converges to on the batch).  Superset guarantee by averaging:
       if a value's global freq > N/(k+1) but NO batch had local freq
       > n_b/(k+1), then freq = Σ freq_b ≤ Σ n_b/(k+1) = N/(k+1) —
       contradiction.  One distinct-key exchange bounds the candidate
       table at ≤ k × num_batches rows; counted BEFORE collecting
       (``max_candidates`` guard), then broadcast via ray.put.
    2. RECOUNT — exact map-side partial counts of candidate values
       only + one candidate-keyed exchange; emit (value, cnt) where
       cnt·(k+1) > N.  N comes from Dataset.count() — a third
       streaming scan of the (possibly derived) input; the standard
       price of the two-pass family, each pass shuffle-free.

    Deterministic on any partitioning (the candidate PASS depends on
    batch layout, but the final exact filter does not — a candidate
    that isn't heavy is dropped by the recount), so the SQL twin is a
    plain GROUP BY ... HAVING."""
    from ray.data.aggregate import Sum

    def cand(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({"v": pa.array([], pa.int64())})
        vals, cnts = np.unique(v, return_counts=True)
        keep = vals[cnts * (k + 1) > len(v)]
        return pa.table({"v": pa.array(keep, pa.int64())})

    # materialize: candidate table is ≤ k × num_batches rows, and the
    # count() + take_all() below must not re-execute the source scan
    cands = (
        ds.map_batches(cand, batch_format="pyarrow")
        .groupby("v")
        .count()
        .materialize()
    )
    n_cand = cands.count()
    if n_cand > max_candidates:
        raise ValueError(
            f"{n_cand} heavy-hitter candidates > max_candidates "
            f"{max_candidates}: raise k's selectivity or the guard"
        )
    cand_set = set(r["v"] for r in cands.take_all())
    ref = ray.put(cand_set)
    total = ds.count()

    def recount(batch: pa.Table) -> pa.Table:
        cs = ray.get(ref)
        v = batch[col].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table(
                {"v": pa.array([], pa.int64()),
                 "cnt": pa.array([], pa.int64())}
            )
        vals, cnts = np.unique(v, return_counts=True)
        mask = np.array([x in cs for x in vals.tolist()], dtype=bool)
        return pa.table(
            {
                "v": pa.array(vals[mask], pa.int64()),
                "cnt": pa.array(cnts[mask], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(recount, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def final(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.greater(
            pc.multiply(pc.cast(t["cnt"], pa.int64()), pa.scalar(k + 1)),
            pa.scalar(total),
        )
        return t.filter(keep)

    return agg.map_batches(final, batch_format="pyarrow")


def mixture_sample(
    sources,
    salt: str = "mix",
) -> ray.data.Dataset:
    """Deterministic source-weighted data mixing — the
    training-mixture shape (N corpora, each contributing at its own
    rate): every source contributes its hash-``p`` sample
    (:func:`sample_fraction` with a per-source salt), tagged with the
    source name; the union is streaming (no shuffle, no
    materialization).  ``sources`` is a sequence of
    ``(name, dataset, key_col, p)``.  Same key -> same decision on any
    partitioning and across reruns, so mixtures are reproducible and
    resumable by construction."""
    import pyarrow.compute as pc

    parts = []
    for name, ds, key_col, p in sources:
        sampled = sample_fraction(ds, key_col, p, salt=f"{salt}-{name}")

        def tag(t: pa.Table, _name=name, _key=key_col) -> pa.Table:
            return pa.table(
                {
                    "source": pa.array([_name] * t.num_rows, pa.string()),
                    "key": pc.cast(t[_key], pa.int64()),
                }
            )

        parts.append(sampled.map_batches(tag, batch_format="pyarrow"))
    out = parts[0]
    for nxt in parts[1:]:
        out = out.union(nxt)
    return out
