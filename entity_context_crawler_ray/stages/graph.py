"""Iterative graph propagation on Ray Data: integer PageRank.

Float PageRank is not hash-comparable across engines (summation order
changes the last ulp), so the operator is defined over EXACT integer
arithmetic: ranks start at ``init`` micro-units, each edge carries
``floor(rank(src) * damp_num / (damp_den * out_degree(src)))``, and a
node's next rank is ``base + sum(incoming)``.  Per-edge floor makes
every contribution independent of ordering, so the distributed sums
are bit-identical to the unrolled SQL twin.

Scale shape per iteration: ONE src-keyed join (ranks onto the
materialized edge+out-degree table) and ONE node-keyed groupby-sum —
the textbook two-exchange PageRank step; the driver never sees a row.
Iterations are a fixed small count (power iteration converges
geometrically; rank ordering stabilizes in a handful of steps).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .exchange import by_key, join, run_starts


def pagerank_int(
    edges: ray.data.Dataset,
    iterations: int = 3,
    damp_num: int = 85,
    damp_den: int = 100,
    init: int = 1_000_000,
    base: int = 150_000,
) -> ray.data.Dataset:
    """Integer PageRank over an (src, dst) edge Dataset (duplicate
    edges collapsed).  Returns (node, pr) for every node that appears
    as a source or target; dangling mass evaporates (no
    redistribution), matching the SQL twin exactly."""
    from ray.data.aggregate import Count, Sum

    def cast_edge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.cast(t["src"], pa.int64()),
                "dst": pc.cast(t["dst"], pa.int64()),
            }
        )

    def distinct_out(t: pa.Table) -> pa.Table:
        # one src-keyed pass: distinct (src, dst) edges + out-degree
        t = t.take(pc.sort_indices(t, sort_keys=[("src", "ascending"), ("dst", "ascending")]))
        t = t.take(run_starts(t["src"], t["dst"]))
        starts = run_starts(t["src"])
        outd = np.diff(np.append(starts, t.num_rows))
        return t.append_column("outd", pa.array(np.repeat(outd, outd)))

    # (src, dst, outd) is reused every iteration — materialize once
    edges_w = by_key(
        edges.map_batches(cast_edge, batch_format="pyarrow"), "src", distinct_out
    ).materialize()

    def to_node(col: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"node": t[col]})

        return fn

    nodes = (
        edges_w.map_batches(to_node("src"), batch_format="pyarrow")
        .union(edges_w.map_batches(to_node("dst"), batch_format="pyarrow"))
        .groupby("node")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["node"])
        .materialize()
    )
    # a node with no incoming edge gets base + 0: every node adds a
    # zero contribution to its own sum
    zero = nodes.map_batches(
        lambda t: pa.table({"node": t["node"], "c": np.zeros(t.num_rows, np.int64)}),
        batch_format="pyarrow",
    )

    ranks = nodes.map_batches(
        lambda t: pa.table(
            {
                "node": t["node"],
                "pr": pa.array([init] * t.num_rows, pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def contrib(t: pa.Table) -> pa.Table:
        c = pc.divide(
            pc.multiply(pc.cast(t["pr"], pa.int64()), pa.scalar(damp_num)),
            pc.multiply(pc.cast(t["outd"], pa.int64()), pa.scalar(damp_den)),
        )  # arrow int/int divide truncates toward zero == floor (>=0)
        return pa.table({"node": t["dst"], "c": pc.cast(c, pa.int64())})

    def next_rank(t: pa.Table) -> pa.Table:
        s = pc.cast(t["s"], pa.int64())
        return pa.table(
            {"node": t["node"], "pr": pc.cast(pc.add(s, pa.scalar(base)), pa.int64())}
        )

    for _ in range(iterations):
        incoming = join(edges_w, ranks, on="src", right_on="node").map_batches(
            contrib, batch_format="pyarrow"
        )
        ranks = (
            zero.union(incoming)
            .groupby("node")
            .aggregate(Sum("c", alias_name="s"))
            .map_batches(next_rank, batch_format="pyarrow")
            .materialize()  # the next join reads its schema and rows
        )

    return ranks


def bfs_levels(
    edges: ray.data.Dataset,
    seed_nodes,
    iterations: int = 3,
    max_frontier: int = 5_000_000,
) -> ray.data.Dataset:
    """Multi-source BFS distances up to ``iterations`` hops: (node,
    dist) with dist = exact minimum hop count from any seed (nodes
    beyond the horizon are absent).  Direction-sensitive — pass both
    (src, dst) and (dst, src) rows for an undirected walk.

    TOP-DOWN level-synchronous BFS: each hop BROADCASTS the frontier
    node set (one ``ray.put``, read per task) and expands it with one
    streaming filter pass over the materialized edge table — no
    shuffle in the hop at all; the only exchange is the dst-keyed
    groupby-min that folds new reaches into the distance table.
    Frontier broadcast is the classic distributed-BFS trade (a set of
    node ids, not rows): it saves the hop a shuffle.  ``max_frontier``
    guards it; a graph whose frontier outgrows a broadcast would hop
    with ``exchange.join`` of the frontier onto the edges instead (it
    handles the empty blocks a filtered frontier carries).  Exact
    integer distances make the result bit-identical to an unrolled SQL
    twin regardless of partitioning."""
    from ray.data.aggregate import Count, Min

    def cast_edge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.cast(t["src"], pa.int64()),
                "dst": pc.cast(t["dst"], pa.int64()),
            }
        )

    dedup = (
        edges.map_batches(cast_edge, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .aggregate(Count(alias_name="_c"))
        .select_columns(["src", "dst"])
        .materialize()
    )

    dist = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(
                    sorted({int(s) for s in seed_nodes}), pa.int64()
                ),
                "d": pa.array(
                    [0] * len({int(s) for s in seed_nodes}), pa.int64()
                ),
            }
        )
    )

    for k in range(1, iterations + 1):
        frontier_ds = dist.filter(expr=f"d == {k - 1}").materialize()
        # guard BEFORE collecting — the count is cheap, the collect is
        # the driver-memory risk being guarded
        n_frontier = frontier_ds.count()
        if n_frontier == 0:
            break
        if n_frontier > max_frontier:
            raise ValueError(
                f"bfs_levels: frontier of {n_frontier} nodes "
                f"> max_frontier={max_frontier}; use a keyed-join hop "
                f"for graphs this wide"
            )
        frontier_nodes = [r["node"] for r in frontier_ds.take_all()]
        ref = ray.put(np.array(sorted(frontier_nodes), dtype=np.int64))

        def step(t: pa.Table, _k=k, _ref=ref) -> pa.Table:
            fr = ray.get(_ref)
            src = t["src"].to_numpy(zero_copy_only=False)
            mask = (
                np.searchsorted(fr, src)
                < len(fr)
            ) & (fr[np.minimum(np.searchsorted(fr, src), len(fr) - 1)] == src)
            dsts = t["dst"].to_numpy(zero_copy_only=False)[mask]
            return pa.table(
                {
                    "node": pa.array(dsts, pa.int64()),
                    "d": pa.array([_k] * len(dsts), pa.int64()),
                }
            )

        cand = dedup.map_batches(step, batch_format="pyarrow")
        dist = (
            dist.union(cand)
            .groupby("node")
            .aggregate(Min("d", alias_name="d"))
            .materialize()  # next hop's frontier filter reuses it
        )

    return dist
