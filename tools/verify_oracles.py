"""Local stand-in for the driver's correctness gate: run every
queries() entry and its oracle_sql() side by side on one sf dir and
compare row-count + schema + order-insensitive value hash.

Usage: python tools/verify_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd
import pyarrow as pa
import ray

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    h = hashlib.blake2b(digest_size=12)
    for col in df.columns:
        h.update(col.encode())
        for v in df[col].tolist():
            h.update(repr(v).encode())
    return h.hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    # declare the machine's own CPUs: more logical CPUs than cores
    # only makes Ray start more worker processes than can run
    ray.init(
        address="local", num_cpus=os.cpu_count(), include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from entity_context_crawler_ray.pipelines.queries import oracle_sql, queries

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs, oracles = queries(), oracle_sql()
    n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = canonical(to_pandas(fn(sf_dir)))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL  {name}: ray error {type(exc).__name__}: {exc}")
            n_fail += 1
            continue
        if name not in oracles:
            print(f"rows  {name}: {len(got)} rows (no oracle)")
            continue
        try:
            want = canonical(con.execute(oracles[name]).fetchdf())
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL  {name}: oracle error {exc}")
            n_fail += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if list(got.columns) != list(want.columns):
            problems.append(f"cols {list(got.columns)} != {list(want.columns)}")
        else:
            gd = [str(d) for d in got.dtypes]
            wd = [str(d) for d in want.dtypes]
            if gd != wd:
                problems.append(f"dtypes {gd} != {wd}")
            if not problems and value_hash(got) != value_hash(want):
                diff = (got != want) & ~(got.isna() & want.isna())
                ndiff = int(diff.to_numpy().sum()) if len(got) == len(want) else -1
                problems.append(f"value hash mismatch ({ndiff} cells)")
                for col in got.columns:
                    if len(got) == len(want) and not got[col].equals(want[col]):
                        bad = got[col][got[col] != want[col]]
                        print(f"      first diffs in {col}: got {bad.head(3).tolist()}")
                        print(
                            f"      vs want: {want[col][got[col] != want[col]].head(3).tolist()}"
                        )
        if problems:
            print(f"FAIL  {name}: {'; '.join(problems)}")
            n_fail += 1
        else:
            print(f"ok    {name}: {len(got)} rows hash-match")
    ray.shutdown()
    return n_fail


if __name__ == "__main__":
    sys.exit(main())
